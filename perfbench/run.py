"""The Panorama benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload perfect-cold|campaign|daemon-mixed \
        --seed N --seconds S --trace 0|1

Each workload runs in fresh processes built from ``src/`` of the
checkout.  With ``--trace 0`` the run prints the end-to-end metrics;
with ``--trace 1`` it prints the per-layer metrics of a traced run
(``BENCHMARK.json`` declares both tables, ``README.md`` says what each
means).
Every verdict is checked against known answers outside the timed
section; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` and the exit code is
non-zero when a known-answer check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spec import MOVES, SETUP_SAMPLES, child_timeout, declared

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def worker(args, tmp: Path, setup_only: bool) -> tuple[float, dict]:
    """Run worker.py in a fresh process; (set-up seconds, its result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--tmp", str(tmp)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=child_timeout(args.seconds))
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n"
                           f"{proc.stderr[-3000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["ready"] - t0, out["result"]


def run_workload(args, tmp: Path) -> dict:
    if args.workload == "daemon-mixed":
        sys.path.insert(0, str(ROOT / "src"))
        import mixed

        return mixed.run(args.seed, args.seconds, bool(args.trace), tmp)
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(worker(args, tmp, setup_only=True)[0])
    setup, result = worker(args, tmp, setup_only=False)
    if not args.trace:
        result["setup_s"] = setups + [setup]
    return result


def report(args, result: dict) -> dict:
    """Print the human-readable lines; return the metrics object."""
    doc = declared()
    w = args.workload
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {w} seed {args.seed} trace {args.trace}: "
          f"{result['units']} timed units")
    print(f"  verdict digest {result['digest']}")
    print(f"  failed_share {failed / attempted:.4g} ratio "
          f"({failed} of {attempted} units failed)")
    for problem in result["problems"]:
        print(f"  known-answer mismatch: {problem}")
    if result.get("shares"):
        print("  workload shares " + " ".join(
            f"{k}={v:.3f}" for k, v in result["shares"].items()))
    metrics: dict = {}
    if not args.trace:
        result["ok_share"] = 1.0 - failed / attempted
        for metric in doc["end_to_end"]:
            name, unit, bound = metric["name"], metric["unit"], metric["bound"]
            value = result[name]
            samples = result["units"]
            if name == "setup_s":
                samples = len(value)
                value = statistics.median(value)
            elif name in ("parallel_loop_share", "ok_share", "peak_rss_mb"):
                samples = 1
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:<22} {value:>12.6g} {unit:<8} n={samples:<6}"
                  f" bound {bound:g}")
        if "plain_throughput_per_s" in result:
            print("  timings above are at the reference speed (calibrate.py);"
                  " as timed on this host, throughput_per_s "
                  f"{result['plain_throughput_per_s']:.6g} units/s")
    else:
        from layers import DETERMINISTIC

        layers = result["layers"]
        print("  deterministic counts " + " ".join(
            f"{name}={layers[name]}" for name in DETERMINISTIC))
        for metric in doc["per_layer"]:
            name, unit = metric["name"], metric["unit"]
            metrics[name] = {"value": layers[name], "unit": unit}
            print(f"  {name:<32} {layers[name]:>12.6g} {unit:<8}"
                  f" -> {MOVES[name]}")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    workloads = sorted(w["name"] for w in declared()["workloads"])
    parser.add_argument("--workload", choices=workloads, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run unwinds, so workers are killed and daemons drained
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    os.environ["TMPDIR"] = str(tmp)
    # the analyzer's work counters follow set and dict iteration order,
    # which string hashing randomizes per process: pin it so counts repeat
    os.environ["PYTHONHASHSEED"] = "0"
    try:
        result = run_workload(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    metrics = report(args, result)
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
