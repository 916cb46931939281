"""Short runs of the real command: known answers, printed metrics,
determinism, and refusal outside a full checkout."""

import json
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT
from layers import DETERMINISTIC
from spec import declared


def bench(workload, seed, seconds, trace, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_untraced_run_prints_every_end_to_end_metric():
    out = result(bench("campaign", 5, 1, 0))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    end_to_end = declared()["end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in end_to_end}
    for metric in end_to_end:
        assert out["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert out["metrics"][metric["name"]]["value"] > 0


def test_traced_run_prints_every_per_layer_metric():
    proc = bench("perfect-cold", 5, 1, 1)
    out = result(proc)
    assert out["correct"]
    per_layer = declared()["per_layer"]
    assert set(out["metrics"]) == {m["name"] for m in per_layer}
    for metric in per_layer:
        assert out["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert out["metrics"]["trace.coverage_share"]["value"] >= 0.9
    assert "verdict digest" in proc.stdout


def test_daemon_replies_pass_known_answers():
    out = result(bench("daemon-mixed", 5, 1, 0))
    assert out["correct"] and out["failed"] == 0
    assert out["attempted"] >= 200


@pytest.mark.parametrize("workload", ["campaign", "daemon-mixed"])
def test_counts_and_digest_repeat_for_a_seed(workload):
    runs = [bench(workload, 7, 1, 1) for _ in range(2)]
    outs = [result(p) for p in runs]
    for name in DETERMINISTIC:
        assert outs[0]["metrics"][name] == outs[1]["metrics"][name], name
    digests = [line for p in runs for line in p.stdout.splitlines()
               if "verdict digest" in line]
    assert len(digests) == 2 and digests[0] == digests[1]
    if workload == "campaign":
        assert outs[0]["metrics"]["trace.coverage_share"]["value"] >= 0.9


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench("perfect-cold", 1, 1, 0, cwd=tmp_path,
                 script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
