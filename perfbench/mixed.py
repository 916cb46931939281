"""The daemon-mixed workload: ``panorama-serve`` under two closed-loop
clients.

A client sends its next request only after the previous reply, so the
daemon's single analysis thread is shared by two waiting callers and
queue wait shows in the tail.  Clients run with ``retries=0`` so a 429
counts as a failure instead of being retried away.
"""

from __future__ import annotations

import bisect
import http.client
import json
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro import Panorama
from repro.engine.telemetry import loop_report_row
from repro.perf import profiler
from repro.server.client import PanoramaClient, ServiceError

from answers import check, digest, parallel_counts
from calibrate import scale
from inputs import Request, client_stream, warmup_requests, watch_base
from layers import counting_summary, layer_metrics
from spec import MIN_TIMED_UNITS, SETUP_SAMPLES, child_timeout, phase_deadline
from tracing import START, reindex

HERE = Path(__file__).resolve().parent
CLIENTS = 2

#: requests per client that the parallel-loop share is taken over
REFERENCE_PER_CLIENT = MIN_TIMED_UNITS // CLIENTS


class Daemon:
    """One ``panorama-serve`` subprocess on an ephemeral port."""

    def __init__(self, tmp: Path, tag: str, spans: Path | None = None) -> None:
        self.ready_file = tmp / f"{tag}.ready"
        self.log = tmp / f"{tag}.log"
        self.calibration_file = tmp / f"{tag}.calibration.json"
        self.spans = spans
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.setup_s = 0.0

    def start(self) -> "Daemon":
        t0 = time.monotonic()
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "daemon_main.py"),
                 str(self.calibration_file),
                 str(self.spans) if self.spans else "-",
                 "--port", "0", "--ready-file", str(self.ready_file)],
                stdin=subprocess.DEVNULL, stdout=log, stderr=log,
            )
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited early: {self.log_tail()}")
            text = self.ready_file.read_text() if self.ready_file.exists() else ""
            if text.endswith("\n"):
                break
            if time.monotonic() - t0 > 60:
                raise RuntimeError("daemon not ready after 60 s")
            time.sleep(0.005)
        self.port = int(text.split()[1])
        self.client(retries=3).health()
        self.setup_s = time.monotonic() - t0
        return self

    def client(self, retries: int = 0):
        return PanoramaClient("127.0.0.1", self.port, timeout=120.0,
                              retries=retries)

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def calibrations(self) -> list[list[float]]:
        """The daemon's ``[start, end, seconds]`` calibrations; read after
        :meth:`stop`."""
        return json.loads(self.calibration_file.read_text())

    def stop(self) -> list:
        """Drain the daemon (SIGTERM) and wait for it; returns its spans."""
        if self.proc is None:
            return []
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc = None
        if self.spans is not None and self.spans.exists():
            return json.loads(self.spans.read_text())
        return []

    def log_tail(self) -> str:
        return self.log.read_text(errors="replace")[-2000:] if self.log.exists() else ""


@dataclass(slots=True)
class Record:
    """One request's outcome as the client saw it."""

    client: int  # -1 for warm-up requests
    index: int  # position in the client's stream
    req: Request
    rtt: float  # round trip, seconds
    payload: dict | None
    error: str | None
    done: float  # time.monotonic() at the reply


def send(client, req, session: str | None):
    """One request; returns (payload, error)."""
    try:
        if req.kind == "watch":
            return client.watch_submit(session, req.source, name=req.name), None
        return client.analyze(req.source, name=req.name,
                              sizes=req.sizes or None, audit=req.audit), None
    except ServiceError as exc:
        return None, f"HTTP {exc.status} {exc.kind}"
    except (OSError, http.client.HTTPException) as exc:
        return None, f"{type(exc).__name__}: {exc}"


def warm_up(daemon: Daemon, seed: int) -> tuple[list[Record], list[str]]:
    """Sequential requests from one client before timing; opens one
    watch session per client and submits its revision 0."""
    client = daemon.client()
    records = []
    reqs = warmup_requests(seed)
    sessions = {}
    for c in range(CLIENTS):
        name = f"watch{c}.f"
        sessions[name] = client.watch_open(name=name)
        reqs.append(Request("watch", name, watch_base(c)))
    for i, req in enumerate(reqs):
        t0 = time.perf_counter()
        payload, error = send(client, req, sessions.get(req.name))
        records.append(Record(-1, i, req, time.perf_counter() - t0, payload,
                              error, time.monotonic()))
    return records, [sessions[f"watch{c}.f"] for c in range(CLIENTS)]


def closed_loop(daemon: Daemon, streams, sessions, seconds: float,
                min_per_client: int) -> tuple[list[Record], float, float | None]:
    """Every client sends its stream back to back until *seconds* have
    passed and it has sent *min_per_client* requests, but not past the
    phase deadline.

    Returns the records, the wall time, and the daemon's peak RSS once
    MIN_TIMED_UNITS requests are done (or at the end, if fewer were):
    resident caches grow with the requests served, so a fixed amount of
    work keeps RSS comparable.
    """
    records: list[list[Record]] = [[] for _ in streams]
    start = time.monotonic()
    lock = threading.Lock()
    done = [0]
    rss: list[float] = []

    def loop(c: int) -> None:
        client = daemon.client()
        i = 0
        while True:
            elapsed = time.monotonic() - start
            if (elapsed >= seconds and i >= min_per_client) or \
                    elapsed >= phase_deadline(seconds):
                break
            req = streams[c][i]
            t0 = time.perf_counter()
            payload, error = send(client, req, sessions[c])
            records[c].append(Record(c, i, req, time.perf_counter() - t0,
                                     payload, error, time.monotonic()))
            i += 1
            with lock:
                done[0] += 1
                if done[0] == MIN_TIMED_UNITS:
                    rss.append(daemon.peak_rss_mb())

    threads = [threading.Thread(target=loop, args=(c,), daemon=True)
               for c in range(len(streams))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=child_timeout(seconds))
        if t.is_alive():
            raise RuntimeError("client thread did not finish")
    flat = [r for rs in records for r in rs]
    wall = max(r.done for r in flat) - start
    return flat, wall, (rss[0] if rss else daemon.peak_rss_mb())


def at_reference_speed(records: list[Record], start: float,
                       calibrations: list[list[float]]) -> tuple[list[float], float]:
    """Round trips and the closed loop's wall time at the reference speed
    of ``calibrate.py``.

    The daemon's analysis thread calibrates before a request every
    ~0.1 s.  Calibration time inside a round trip or the wall time is
    taken out; what is left is scaled by the calibrations around it.
    """
    cals = sorted(calibrations)
    starts = [c[0] for c in cals]

    def factor(t: float) -> float:
        i = bisect.bisect_right(starts, t)
        near = [c[2] for c in cals[max(0, i - 1):i + 1]]
        return scale(statistics.fmean(near))

    def calibrating(t0: float, t1: float) -> float:
        return sum(max(0.0, min(t1, c[1]) - max(t0, c[0])) for c in cals)

    rtts = []
    for rec in records:
        t0 = rec.done - rec.rtt
        rtts.append((rec.rtt - calibrating(t0, rec.done))
                    * factor((t0 + rec.done) / 2))
    end = max(rec.done for rec in records)
    # the wall time, cut at each calibration's end into pieces
    cuts = [start] + [c[1] for c in cals if start < c[1] < end] + [end]
    wall = sum((b - a - calibrating(a, b)) * factor((a + b) / 2)
               for a, b in zip(cuts, cuts[1:]))
    return rtts, wall


def reference_rows(records: list[Record]):
    """Compare every reply with an in-process compile of the same
    source; yields (record, problems)."""
    memo: dict = {}
    for rec in records:
        if rec.payload is None:
            yield rec, [f"{rec.req.name}: {rec.error}"]
            continue
        key = (rec.req.source, tuple(sorted(rec.req.sizes.items())))
        ref = memo.get(key)
        if ref is None:
            result = Panorama(sizes=rec.req.sizes).compile(rec.req.source)
            ref = memo[key] = [loop_report_row(r) for r in result.loops]
        rows = rec.payload["loops"]
        if rec.req.kind == "watch":
            report = rec.payload["report"]
            affected = set(report["changed"]) | set(report["invalidated"])
            ref = [r for r in ref if r["routine"] in affected]
        problems = check(rec.req.kind, rec.req.answer, rows)
        if rows != ref:
            problems.append(f"{rec.req.name}: daemon rows differ from in-process")
        if rec.payload.get("degraded"):
            problems.append(f"{rec.req.name}: degraded")
        yield rec, problems


def _analyze_rows(records: list[Record]) -> list[dict]:
    return [r for rec in records if rec.payload is not None
            and rec.req.kind != "watch" for r in rec.payload["loops"]]


def _perf_delta(before: dict, after: dict) -> dict:
    return profiler.delta(before["perf"], after["perf"])


def _cache_delta(before: dict, after: dict) -> dict:
    return {k: after["summary_cache"][k] - before["summary_cache"][k]
            for k in ("hits", "misses", "stores")}


def server_figures(records: list[Record], stats: dict) -> dict:
    ok = [r for r in records if r.payload is not None]
    elapsed = [r.payload["request"]["elapsed_ms"] for r in ok]
    waits = [r.rtt * 1000.0 - e for r, e in zip(ok, elapsed)]
    rates = [r.payload["request"]["hit_rate"] for r in ok
             if r.payload["request"]["hit_rate"] is not None]
    reused = computed = 0
    for r in ok:
        if r.req.kind == "watch":
            reused += len(r.payload["report"]["reused"])
            computed += len(r.payload["report"]["computed"])
    return {
        "server.service_ms": statistics.fmean(elapsed) if elapsed else 0.0,
        "server.queue_wait_ms": statistics.fmean(waits) if waits else 0.0,
        "server.rejected": stats["admission"]["rejected"],
        "server.request_hit_rate": statistics.fmean(rates) if rates else 0.0,
        "server.watch_reused_share": reused / (reused + computed)
        if reused + computed else 0.0,
    }


def traffic_shares(records: list[Record], stats: tuple) -> dict:
    """What the timed requests were, and how the summary cache served
    them: request kinds, audited analyze requests, and summary-cache
    hits over hits plus stores (reads over reads and writes)."""
    n = len(records)
    shares = {kind: sum(1 for r in records if r.req.kind == kind) / n
              for kind in ("perfect", "campaign", "frontier", "watch")}
    analyze = [r for r in records if r.req.kind != "watch"]
    shares["audit"] = sum(1 for r in analyze if r.req.audit) / len(analyze)
    cache = _cache_delta(stats[1], stats[2])
    reads_writes = cache["hits"] + cache["stores"]
    shares["cache_read"] = cache["hits"] / reads_writes if reads_writes else 0.0
    return shares


def run(seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    """The whole daemon-mixed run; returns the same result shape as the
    in-process workloads (see worker.run)."""
    streams = [client_stream(seed, c) for c in range(CLIENTS)]
    setups: list[float] = []
    if not trace:
        for k in range(SETUP_SAMPLES - 1):
            daemon = Daemon(tmp, f"setup{k}")
            try:
                setups.append(daemon.start().setup_s)
            finally:
                daemon.stop()

    def session(tag: str, spans: Path | None, length: float, floor: int):
        daemon = Daemon(tmp, tag, spans)
        try:
            daemon.start()
            s0 = daemon.client().stats()
            warm, sessions = warm_up(daemon, seed)
            s1 = daemon.client().stats()
            mark = time.monotonic()
            timed, wall, rss = closed_loop(daemon, streams, sessions, length,
                                           floor)
            s2 = daemon.client().stats()
        finally:
            span_list = daemon.stop()
        return {"daemon": daemon, "stats": (s0, s1, s2), "warm": warm,
                "timed": timed, "wall": wall, "rss": rss, "mark": mark,
                "spans": span_list, "calibrations": daemon.calibrations()}

    out: dict = {}
    runs = []
    if not trace:
        main = session("main", None, seconds, REFERENCE_PER_CLIENT)
        setups.append(main["daemon"].setup_s)
        runs.append(main)
    else:
        plain = session("plain", None, seconds / 2, 0)
        traced = session("traced", tmp / "spans.json", seconds / 2, 0)
        runs += [plain, traced]
        main = traced

    attempted = failed = 0
    problems: list[str] = []
    for r in runs:
        for rec, probs in reference_rows(r["warm"] + r["timed"]):
            attempted += 1
            if probs:
                failed += 1
                problems.extend(probs[:3])
    out.update(attempted=attempted, failed=failed, problems=problems[:20])
    out["digest"] = digest(
        (rec.req.name, rec.payload["loops"]) for rec in main["warm"]
        if rec.payload is not None)

    if not trace:
        timed = main["timed"]
        ok = [r for r in timed if r.payload is not None]
        rtts, wall = at_reference_speed(timed, main["mark"],
                                        main["calibrations"])
        lat = [rtt * 1000.0 for rtt in rtts]
        reference = [r for r in timed if r.index < REFERENCE_PER_CLIENT]
        parallel, loops = parallel_counts(
            row for rec in reference if rec.payload is not None
            for row in rec.payload["loops"])
        out.update({
            "setup_s": setups,
            "units": len(timed),
            "throughput_per_s": len(ok) / wall,
            "plain_throughput_per_s": len(ok) / main["wall"],
            "latency_ms_p50": statistics.median(lat),
            "latency_ms_p95": statistics.quantiles(lat, n=20)[18],
            "peak_rss_mb": main["rss"],
            "parallel_loop_share": parallel / loops,
        })
        return out

    s0, s1, s2 = traced["stats"]
    spans = traced["spans"]
    warm_spans = reindex(spans, lambda s: s[START] < traced["mark"])
    timed_spans = reindex(spans, lambda s: s[START] >= traced["mark"])
    warm_ok = [r for r in traced["warm"] if r.payload is not None]
    counts = counting_summary(
        warm_spans, _perf_delta(s0, s1),
        [r.payload["stats"] for r in warm_ok if "stats" in r.payload],
        _analyze_rows(traced["warm"]), _cache_delta(s0, s1))
    extra = server_figures(plain["timed"], plain["stats"][2])
    extra["trace.overhead_share"] = 1.0 - (
        len(traced["timed"]) / traced["wall"]) / (
        len(plain["timed"]) / plain["wall"])
    out["units"] = len(plain["timed"]) + len(traced["timed"])
    out["layers"] = layer_metrics(timed_spans, len(traced["timed"]),
                                  traced["wall"], _perf_delta(s1, s2), counts,
                                  extra)
    out["shares"] = traffic_shares(plain["timed"], plain["stats"])
    out["shares"]["request_hit"] = extra["server.request_hit_rate"]
    return out
