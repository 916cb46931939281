"""Start ``panorama-serve`` the same way in traced and untraced runs.

Usage (``mixed.py`` starts it)::

    python3 perfbench/daemon_main.py CALIBRATION_FILE SPANS_FILE|- \
        [panorama-serve args...]

The analysis thread times the fixed work of :mod:`calibrate` before a
request, at most every ``calibrate.INTERVAL_S``, so the client can
put round trips at the reference speed; the calibrations are written
to CALIBRATION_FILE as ``[start, end, seconds]`` (``time.monotonic``)
when the server exits.  With a spans file, the outside-in wrappers of
:mod:`tracing` and the program's phase timers are installed too, and the
recorded spans are written to the file when the server exits (SIGTERM
drains it and returns).  With ``-`` no tracing is installed.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

def calibrate_before_requests() -> list[list[float]]:
    """Wrap the service's analysis entry points (outside any tracing
    wrapper) to calibrate before a request; returns the list the
    calibrations are appended to."""
    from calibrate import INTERVAL_S, calibrate
    from repro.server.service import AnalysisService

    records: list[list[float]] = []

    def wrap(fn):
        @functools.wraps(fn)
        def calibrated(*args, **kwargs):
            start = time.monotonic()
            if not records or start - records[-1][1] >= INTERVAL_S:
                seconds = calibrate()
                records.append([start, time.monotonic(), seconds])
            return fn(*args, **kwargs)

        return calibrated

    for name in ("analyze", "watch_submit"):
        setattr(AnalysisService, name, wrap(getattr(AnalysisService, name)))
    return records


def main(argv: list[str]) -> int:
    calibration_file, spans_file, serve_args = argv[0], argv[1], argv[2:]
    tracer = None
    if spans_file != "-":
        from repro.perf import profiler
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        profiler.enable()
    calibrations = calibrate_before_requests()
    from repro.server.cli import main as serve

    try:
        return serve(serve_args)
    finally:
        if tracer is not None:
            tracer.uninstall()
            Path(spans_file).write_text(json.dumps(tracer.spans))
        Path(calibration_file).write_text(json.dumps(calibrations))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
