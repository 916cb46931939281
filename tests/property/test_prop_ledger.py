"""Property test: kill-then-resume is bit-identical, wherever the kill.

A reference run writes a complete ledger.  The property truncates that
ledger at an *arbitrary byte offset* — simulating a crash at any point,
including mid-line — and asserts two invariants:

* :func:`repro.engine.ledger.replay` never raises past the missing
  header case, and every ``done`` record it trusts carries the exact
  payload of the reference run (digest checking filters torn tails);
* an engine resumed from the truncated ledger reproduces the reference
  run's verdict rows bit-for-bit (ledger-served + recomputed items are
  indistinguishable in the report).
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dataflow import AnalysisOptions
from repro.engine import BatchEngine, BatchItem
from repro.engine.campaign import generate_campaign
from repro.engine.ledger import (
    LedgerMismatch,
    LedgerWriter,
    replay,
    run_identity,
    verify_identity,
)

_STATE: dict = {}


def reference_items() -> list[BatchItem]:
    return [BatchItem(c.name, c.source) for c in generate_campaign(6, seed=11)]


def header_length() -> int:
    """Bytes of the reference ledger's header line, newline excluded (the
    header records this process's pid, so it is measured, not fixed)."""
    path = Path(tempfile.mkdtemp(prefix="prop-ledger-")) / "header.jsonl"
    ident = run_identity("batch", reference_items(), AnalysisOptions())
    with LedgerWriter(path, ident):
        pass
    return len(path.read_bytes()) - 1


#: a cut right before the header's newline leaves a whole but unterminated
#: header, which a resume must not glue its first record onto
HEADER_CUT = header_length()


def reference() -> dict:
    """One full ledgered run, built once per test session."""
    if _STATE:
        return _STATE
    items = reference_items()
    options = AnalysisOptions()
    root = Path(tempfile.mkdtemp(prefix="prop-ledger-"))
    path = root / "run.jsonl"
    ident = run_identity("batch", items, options)
    with LedgerWriter(path, ident) as w:
        engine = BatchEngine(
            options, jobs=1, run_machine_model=False, ledger=w
        )
        report = engine.run(items)
    assert report.complete and report.ok
    _STATE.update(
        items=items,
        options=options,
        ident=ident,
        root=root,
        raw=path.read_bytes(),
        rows=report.verdict_rows(),
        payloads={r.name: r.payload for r in report.results},
    )
    return _STATE


def truncated_ledger(ref: dict, cut: int) -> Path:
    raw = ref["raw"]
    path = ref["root"] / f"cut-{cut}.jsonl"
    path.write_bytes(raw[: min(cut, len(raw))])
    return path


@settings(max_examples=25, deadline=None)
@given(cut=st.integers(min_value=0, max_value=200_000))
def test_replay_tolerates_any_truncation(cut):
    ref = reference()
    path = truncated_ledger(ref, cut % (len(ref["raw"]) + 1))
    try:
        rep = replay(path)
    except LedgerMismatch:
        return  # cut fell inside the header line: refusing is correct
    verify_identity(rep.header, ref["ident"])
    assert rep.torn_lines <= 1  # a single cut tears at most one line
    for record in rep.done.values():
        assert record["payload"] == ref["payloads"][record["name"]]


@settings(max_examples=6, deadline=None)
@given(cut=st.integers(min_value=0, max_value=200_000))
@example(cut=HEADER_CUT)
def test_resume_from_any_truncation_is_bit_identical(cut):
    ref = reference()
    path = truncated_ledger(ref, cut % (len(ref["raw"]) + 1))
    try:
        rep = replay(path)
    except LedgerMismatch:
        return
    with LedgerWriter(path, ref["ident"], resume=True) as w:
        engine = BatchEngine(
            ref["options"], jobs=1, run_machine_model=False,
            ledger=w, resume=rep,
        )
        report = engine.run(list(ref["items"]))
    assert report.complete and report.ok
    assert report.verdict_rows() == ref["rows"]
    assert report.telemetry.resilience["resumed_items"] == len(rep.done)
    # and the appended ledger now replays as a complete run
    final = replay(path)
    assert final.ended == "complete"
    assert final.completed == len(ref["items"])
