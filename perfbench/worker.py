"""One fresh process running an in-process workload.

Usage (``run.py`` starts it; it is not meant to be called by hand)::

    python3 perfbench/worker.py --workload perfect-cold|campaign \
        --seed N --seconds S --trace 0|1 --tmp DIR [--setup-only]

The process sets up (``import repro``, inputs, ``Panorama`` /
``BatchEngine`` construction), prints the ``time.monotonic`` instant it
became ready, and unless ``--setup-only`` runs the workload and prints
its result as one JSON line.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import repro.engine.batch as batch  # noqa: E402  (needs the path above)
from repro import Panorama  # noqa: E402
from repro.engine.telemetry import analysis_stats_dict, loop_report_row  # noqa: E402
from repro.perf import profiler  # noqa: E402

from answers import check_perfect, check_rows, digest, parallel_counts  # noqa: E402
from calibrate import INTERVAL_S, calibrate, scale  # noqa: E402
from inputs import campaign_corpus, perfect_order, perfect_programs  # noqa: E402
from layers import counting_summary, layer_metrics, span_shares  # noqa: E402
from spec import MIN_TIMED_UNITS, phase_deadline  # noqa: E402
from tracing import Tracer  # noqa: E402

#: timed campaign passes the parallel-loop share is taken over
REFERENCE_PASSES = 16


class Phase:
    """One timed phase: seconds spent in units and per-unit latencies.

    ``busy`` is the plain time the units took; ``latencies`` and
    ``norm_busy`` are at the reference speed of ``calibrate.py``, which
    the end-to-end figures are taken at.
    """

    def __init__(self) -> None:
        self.busy = 0.0
        self.norm_busy = 0.0
        self.latencies: list[float] = []
        #: unit name -> latencies (perfect-cold: per program)
        self.by_name: dict[str, list[float]] = {}
        #: verdict rows the parallel-loop share is taken over, when the
        #: workload takes it from timed units
        self.reference: list[dict] = []
        self.started = time.monotonic()

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def running(self, seconds: float, floor_unmet: bool) -> bool:
        """Whether to start another pass: until *seconds* have passed and
        the floors are met, but never past the phase deadline."""
        elapsed = self.elapsed()
        return (elapsed < seconds or floor_unmet) and \
            elapsed < phase_deadline(seconds)

    def throughput(self) -> float:
        """Units per second at the reference speed."""
        return len(self.latencies) / self.norm_busy

    def plain_throughput(self) -> float:
        """Units per second as timed on the host."""
        return len(self.latencies) / self.busy


class Outcome:
    """Known-answer and failure accounting over every unit of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def note(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])


def cold() -> None:
    """Empty every symbolic cache and collect the heap, so the next unit
    starts cold; it runs outside the timed interval."""
    profiler.clear_caches()
    gc.collect()


class PerfectCold:
    """The five Perfect programs compiled cold by one caller, in a loop."""

    #: what the workload's reason says dominates a compile
    SHARES = ("driver.compile", {
        "classify": ("parallelize.classify",),
        "copy_out": ("privatize.below_summary", "privatize.copy_out"),
        "parse": ("fortran.parse",),
    })

    def __init__(self, args) -> None:
        self.seed = args.seed
        self.programs = perfect_programs()
        self.panoramas = {name: Panorama(sizes=sizes)
                          for name, (_src, sizes) in self.programs.items()}

    def compile(self, name: str):
        return self.panoramas[name].compile(self.programs[name][0])

    def counting_pass(self, outcome: Outcome) -> dict:
        before = profiler.snapshot()
        units, stats = [], []
        for name in perfect_order(self.seed, 0):
            cold()
            result = self.compile(name)
            units.append((name, [loop_report_row(r) for r in result.loops]))
            stats.append(analysis_stats_dict(result.analyzer.stats))
        perf = profiler.delta(before, profiler.snapshot())
        for name, rows in units:
            outcome.note(check_perfect(name, rows))
        return {"perf": perf, "stats": stats, "units": units, "cache": {}}

    def phase(self, seconds: float, floor: bool, outcome: Outcome) -> Phase:
        """Whole shuffled passes until *seconds* (and with *floor*, until
        MIN_TIMED_UNITS compiles) are done."""
        phase = Phase()
        pass_index = 1
        before = calibrate()
        while phase.running(seconds,
                            floor and len(phase.latencies) < MIN_TIMED_UNITS):
            for name in perfect_order(self.seed, pass_index):
                result = None  # the previous compile is garbage before cold()
                cold()
                t0 = time.perf_counter()
                result = self.compile(name)
                dt = time.perf_counter() - t0
                after = calibrate()
                norm = dt * scale((before + after) / 2)
                before = after
                phase.busy += dt
                phase.norm_busy += norm
                phase.latencies.append(norm)
                phase.by_name.setdefault(name, []).append(norm)
                outcome.note(check_perfect(
                    name, [loop_report_row(r) for r in result.loops]))
            pass_index += 1
        return phase


class Campaign:
    """Seeded campaign corpora, each one cold BatchEngine run (jobs=1,
    default schedule, a fresh durable disk tier)."""

    #: what the workload's reason says dominates a campaign; planning
    #: counts with the parsing it does for fingerprints
    SHARES = ("engine.run", {
        "parse": ("fortran.parse",),
        "screen": ("deptest.screen",),
        "plan": ("engine.plan+",),
    })

    def __init__(self, args) -> None:
        self.seed = args.seed
        self.tmp = args.tmp
        self.engine = self.new_engine()
        self.corpus = campaign_corpus(self.seed, 0)
        #: per item: latency, timed around the engine's item analysis,
        #: and how many calibrations of the pass came before it
        self.item_times: list[tuple[float, int]] = []
        #: calibrations of the current timed pass (None outside one), the
        #: instant the last ended, and the time they took inside the pass
        self.calibrations: list[float] | None = None
        self.calibrated_at = 0.0
        self.calibrating = 0.0
        analyze_item = batch._analyze_item

        def timed_item(*a, **kw):
            if self.calibrations is not None and time.perf_counter() \
                    - self.calibrated_at >= INTERVAL_S:
                c0 = time.perf_counter()
                self.calibrations.append(calibrate())
                self.calibrated_at = time.perf_counter()
                self.calibrating += self.calibrated_at - c0
            t0 = time.perf_counter()
            try:
                return analyze_item(*a, **kw)
            finally:
                self.item_times.append((time.perf_counter() - t0,
                                        len(self.calibrations or ())))

        batch._analyze_item = timed_item

    def new_engine(self):
        return batch.BatchEngine(cache_dir=tempfile.mkdtemp(dir=self.tmp),
                                 jobs=1)


    @staticmethod
    def note(report, outcome: Outcome) -> list:
        units = []
        for res in report.results:
            if not res.ok:
                outcome.note([f"{res.name}: {res.error_kind} error"])
                continue
            rows = res.rows()
            outcome.note(check_rows(rows))
            units.append((res.name, rows))
        if not report.complete:
            outcome.note(["campaign run incomplete"])
        return units

    def counting_pass(self, outcome: Outcome) -> dict:
        cold()
        before = profiler.snapshot()
        report = self.engine.run(self.corpus)
        perf = profiler.delta(before, profiler.snapshot())
        shutil.rmtree(self.engine.cache_dir, ignore_errors=True)
        cache = {key: sum(getattr(res.cache_stats, key) for res in report.results)
                 for key in ("hits", "misses", "stores")}
        return {"perf": perf, "units": self.note(report, outcome), "cache": cache,
                "stats": [res.payload["stats"] for res in report.results if res.ok]}

    def phase(self, seconds: float, floor: bool, outcome: Outcome) -> Phase:
        """Whole passes until *seconds* (and with *floor*, until
        MIN_TIMED_UNITS items and REFERENCE_PASSES passes) are done."""
        phase = Phase()
        pass_index = 1
        while phase.running(seconds, floor and (
                len(phase.latencies) < MIN_TIMED_UNITS
                or pass_index <= REFERENCE_PASSES)):
            items = campaign_corpus(self.seed, pass_index)
            self.item_times = []
            report = None  # the previous pass is garbage before cold()
            cold()
            self.calibrations = [calibrate()]
            self.calibrating = 0.0
            t0 = self.calibrated_at = time.perf_counter()
            engine = self.new_engine()
            report = engine.run(items)
            wall = time.perf_counter() - t0 - self.calibrating
            cals = self.calibrations
            self.calibrations = None
            cals.append(calibrate())
            shutil.rmtree(engine.cache_dir, ignore_errors=True)
            phase.busy += wall
            phase.norm_busy += wall * scale(statistics.fmean(cals))
            # an item: the calibrations just before and after it
            phase.latencies.extend(t * scale((cals[i - 1] + cals[i]) / 2)
                                   for t, i in self.item_times)
            units = self.note(report, outcome)
            if pass_index <= REFERENCE_PASSES:
                phase.reference.extend(r for _n, rows in units for r in rows)
            pass_index += 1
        return phase


def run(workload, trace: bool, seconds: float) -> dict:
    """Counting pass, then one timed phase (untraced run) or an untraced
    and a traced half (traced run)."""
    outcome = Outcome()
    tracer = Tracer()
    if trace:
        tracer.install()
    counted = workload.counting_pass(outcome)
    tracer.uninstall()
    rows = [r for _n, unit_rows in counted["units"] for r in unit_rows]
    out = {"digest": digest(counted["units"])}
    if not trace:
        phase = workload.phase(seconds, True, outcome)
        parallel, loops = parallel_counts(phase.reference or rows)
        lat_ms = [x * 1000.0 for x in phase.latencies]
        out.update({
            "units": len(lat_ms),
            "throughput_per_s": phase.throughput(),
            "plain_throughput_per_s": phase.plain_throughput(),
            "latency_ms_p50": statistics.median(lat_ms),
            "latency_ms_p95": statistics.quantiles(lat_ms, n=20)[18],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            "parallel_loop_share": parallel / loops,
        })
    else:
        counts = counting_summary(tracer.spans, counted["perf"],
                                  counted["stats"], rows, counted["cache"])
        root, groups = workload.SHARES
        out["shares"] = span_shares(tracer.spans, root, groups)
        if counted["cache"]:
            out["shares"]["cache_hit"] = counts["engine.cache_hit_rate"]
        plain = workload.phase(seconds / 2, False, outcome)
        tracer.clear()
        tracer.install()
        profiler.enable()
        before = profiler.snapshot()
        traced = workload.phase(seconds / 2, False, outcome)
        timers = profiler.delta(before, profiler.snapshot())
        profiler.disable()
        tracer.uninstall()
        extra = {}
        if isinstance(workload, PerfectCold):
            extra = {f"program.{name}.compile_ms": statistics.median(ts) * 1000.0
                     for name, ts in plain.by_name.items()}
        extra["trace.overhead_share"] = (
            1.0 - traced.throughput() / plain.throughput())
        out["units"] = len(plain.latencies) + len(traced.latencies)
        out["layers"] = layer_metrics(tracer.spans, len(traced.latencies),
                                      traced.busy, timers, counts, extra)
    out.update(attempted=outcome.attempted, failed=outcome.failed,
               problems=outcome.problems[:20])
    return out


WORKLOADS = {"perfect-cold": PerfectCold, "campaign": Campaign}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload](args)
    ready = time.monotonic()
    if args.setup_only:
        result = None
    else:
        result = run(workload, bool(args.trace), args.seconds)
    sys.stdout.write(json.dumps({"ready": ready, "result": result}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
