"""Known answers the analyzer did not produce, and the verdict digest.

* Perfect programs: each Table 1/2 loop privatizes every array of its
  ``Kernel.privatizable`` set and none of ``not_privatizable``, and is
  not serial unless the paper lists an array it cannot privatize.
* Frontier kernels: the target loop's status equals ``expect_on``.
* Generated routines (campaign library routines and the daemon's watched
  routines): the outermost loop gets the status its ``make_routine``
  pattern is built for.
* Every row: no budget-degraded verdict.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Iterable, Sequence

from repro.kernels import FRONTIER_KERNELS, KERNELS

#: make_routine pattern (routine-name suffix) -> expected outer status
PATTERN_STATUS = {
    "pri": "parallel (privatized)",
    "red": "parallel (reduction)",
    "rec": "parallel (scan)",
    "str": "parallel",
}

#: campaign library routines (``L003PRI``) and watched routines (``W02REC``)
_GENERATED = re.compile(r"^(?:l\d{3}|w\d\d)(pri|red|rec|str)$")

_SERIAL = ("serial", "unknown")


def check_rows(rows: Sequence[dict]) -> list[str]:
    """Checks every row set gets: degradations and generated routines."""
    problems = [f"{r['loop']}: budget-degraded ({r['degraded']})"
                for r in rows if r.get("degraded")]
    seen: set[str] = set()
    for row in rows:
        match = _GENERATED.match(row["routine"])
        if match is None or row["routine"] in seen:
            continue
        seen.add(row["routine"])  # rows come outermost loop first
        want = PATTERN_STATUS[match.group(1)]
        if row["status"] != want:
            problems.append(f"{row['loop']}: {row['status']!r}, want {want!r}")
    return problems


def check_perfect(program: str, rows: Sequence[dict]) -> list[str]:
    problems = check_rows(rows)
    for kernel in KERNELS:
        if kernel.program != program:
            continue
        found = [r for r in rows if r["routine"] == kernel.routine
                 and r["label"] == kernel.loop_label]
        if len(found) != 1:
            problems.append(f"{kernel.full_id}: {len(found)} rows")
            continue
        row = found[0]
        privatized = set(row["privatized"])
        missing = set(kernel.privatizable) - privatized
        wrong = set(kernel.not_privatizable) & privatized
        if missing:
            problems.append(f"{kernel.full_id}: not privatized {sorted(missing)}")
        if wrong:
            problems.append(f"{kernel.full_id}: privatized {sorted(wrong)}")
        if not kernel.not_privatizable and row["status"] in _SERIAL:
            problems.append(f"{kernel.full_id}: {row['status']}")
    return problems


def check_frontier(name: str, rows: Sequence[dict]) -> list[str]:
    problems = check_rows(rows)
    kernel = next(k for k in FRONTIER_KERNELS if k.name == name)
    targets = [r for r in rows
               if r["routine"] == kernel.routine and r["var"] == kernel.var]
    if len(targets) <= kernel.ordinal:
        return problems + [f"{name}: target loop missing"]
    status = targets[kernel.ordinal]["status"]
    if status != kernel.expect_on:
        problems.append(f"{name}: {status!r}, want {kernel.expect_on!r}")
    return problems


def check(kind: str, answer: str | None, rows: Sequence[dict]) -> list[str]:
    """Known-answer problems of one unit's verdict rows (empty = pass)."""
    if kind == "perfect":
        return check_perfect(answer, rows)
    if kind == "frontier":
        return check_frontier(answer, rows)
    return check_rows(rows)


def parallel_counts(rows: Iterable[dict]) -> tuple[int, int]:
    """(loops reported parallel, loops reported)."""
    rows = list(rows)
    return sum(1 for r in rows if r["parallel"]), len(rows)


def digest(rows_by_unit: Iterable[tuple[str, Sequence[dict]]]) -> str:
    """SHA-256 over the canonical JSON of (unit, rows) pairs, in order."""
    h = hashlib.sha256()
    for name, rows in rows_by_unit:
        h.update(json.dumps([name, list(rows)], sort_keys=True).encode())
    return h.hexdigest()[:16]
