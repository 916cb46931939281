"""Analysis options, per-loop summary records, and statistics.

The three option toggles correspond to the technique columns of the
paper's Table 1:

* ``symbolic`` (T1) — symbolic expression analysis.  Off: only integer
  constants and enclosing loop indices are understood; all symbolic
  comparisons fail.
* ``if_conditions`` (T2) — IF condition analysis.  Off: branch
  contributions are merged under the unknown guard Δ (the traditional
  "conservative merge" of flow-sensitive analyses that ignore condition
  contents).
* ``interprocedural`` (T3) — interprocedural propagation through the HSG.
  Off: every CALL is opaque (arrays passed or in COMMON are Ω).

:class:`AnalysisOptions` declares each knob once; field metadata holds
its ``options_key`` tag and user-facing flag (request key: ``--no-fm``
→ ``"no_fm"``), from which the CLI flags, the request parser and the
cache key are generated.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field, fields

from typing import Any, Mapping, Optional, Tuple

from ..perf.metrics import MAX, MetricGroup
from ..regions import GARList
from ..resilience.budget import AnalysisBudget
from ..symbolic import Comparer, SymExpr

#: the flag the technique toggles share; its values are their key tags
_ABLATE = "--ablate"


def _check_budget(value: Any, number: type) -> Any:
    """The one budget rule: positive and finite, and an integer when
    *number* is ``int``.  Returns the value as *number*."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError("must be a number")
    # NaN fails this test; so does an int that would overflow float()
    if not 0 < value <= sys.float_info.max:
        raise ValueError("must be positive and finite")
    if number is int and value != int(value):
        raise ValueError("must be an integer")
    return number(value)


def _forms_text(forms: Tuple[Tuple[str, SymExpr], ...]) -> str:
    return ";".join(
        f"{name}={expr}" for name, expr in sorted(forms, key=lambda p: p[0])
    )


def _knob(default: Any, key: str, flag: Optional[str] = None, **meta) -> Any:
    return field(default=default, metadata={"key": key, "flag": flag, **meta})


@dataclass(frozen=True)
class AnalysisOptions:
    symbolic: bool = _knob(True, "T1", _ABLATE, help="symbolic")
    if_conditions: bool = _knob(True, "T2", _ABLATE, help="IF conditions")
    interprocedural: bool = _knob(True, "T3", _ABLATE, help="interprocedural")
    #: use the Fourier-Motzkin fallback prover (stronger simplifier)
    use_fm: bool = _knob(
        True, "FM", "--no-fm",
        help="disable the Fourier-Motzkin fallback prover",
    )
    #: frontier pass: array-content domain + recurrence/scan recognizer
    #: (docs/frontier.md); off reproduces pre-frontier verdicts exactly
    frontier: bool = _knob(
        True, "FR", "--no-frontier",
        help="disable the frontier pass (array-content facts and "
        "scan/recurrence recognition; docs/frontier.md)",
    )
    #: closed forms for subscript arrays (paper section 6): pairs of
    #: (array name, expression over convert.subscript_placeholder);
    #: library-only, no flag
    index_array_forms: Tuple[Tuple[str, SymExpr], ...] = _knob(
        (), "IA", text=_forms_text
    )
    #: analysis budget: wall-clock deadline per compile (None = unlimited)
    budget_ms: Optional[float] = _knob(
        None, "Bms", "--budget-ms", number=float, metavar="MS",
        help="analysis deadline per compile; exhaustion degrades the rest "
        "to conservative 'unknown (budget)' verdicts (CLI exit 3)",
    )
    #: analysis budget: abstract symbolic-kernel steps (None = unlimited)
    budget_steps: Optional[int] = _knob(
        None, "Bst", "--budget-steps", number=int, metavar="N",
        help="symbolic step budget per compile (the deterministic "
        "analogue of the deadline)",
    )

    def comparer(self) -> Comparer:
        """A comparer configured per the option toggles."""
        return Comparer(use_fm=self.use_fm, symbolic=self.symbolic)

    def budget(self) -> Optional[AnalysisBudget]:
        """A fresh budget per the limits, or None when unlimited."""
        if self.budget_ms is None and self.budget_steps is None:
            return None
        return AnalysisBudget(
            budget_ms=self.budget_ms, max_steps=self.budget_steps
        )

    @classmethod
    def all_on(cls) -> "AnalysisOptions":
        return cls()

    @classmethod
    def ablation(cls, disable: str) -> "AnalysisOptions":
        """Options with one technique disabled: 'T1' | 'T2' | 'T3'."""
        return cls(**{_TECHNIQUES[disable].name: False})  # type: ignore[arg-type]


_FLAGGED = [f for f in fields(AnalysisOptions) if f.metadata["flag"]]
_TECHNIQUES = {
    f.metadata["key"]: f for f in _FLAGGED if f.metadata["flag"] == _ABLATE
}
_REQUEST_KEYS = sorted({f.metadata["flag"][2:].replace("-", "_") for f in _FLAGGED})
_KEY_PARTS = [
    (f.name, f.metadata["key"], f.metadata.get("text", str))
    for f in fields(AnalysisOptions)
]


def add_option_flags(parser: Any, budgets_only: bool = False) -> None:
    """Add the option flags (or only the budget flags) to an argparse
    parser or argument group."""
    import argparse

    def budget(number: type, text: str) -> Any:
        try:
            return _check_budget(float(text), number)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{text!r}: {exc}")

    if not budgets_only:
        parser.add_argument(
            _ABLATE,
            choices=list(_TECHNIQUES),
            action="append",
            default=[],
            help="disable a technique (repeatable): " + ", ".join(
                f"{tag} {f.metadata['help']}" for tag, f in _TECHNIQUES.items()
            ),
        )
    for f in _FLAGGED:
        meta = f.metadata
        if "number" in meta:
            parser.add_argument(
                meta["flag"], type=functools.partial(budget, meta["number"]),
                metavar=meta["metavar"], help=meta["help"],
            )
        elif not budgets_only and meta["flag"] != _ABLATE:
            parser.add_argument(meta["flag"], action="store_true", help=meta["help"])


def options_from_args(args: Any) -> AnalysisOptions:
    """Options from a namespace parsed with :func:`add_option_flags`."""
    return options_from_request({k: getattr(args, k) for k in _REQUEST_KEYS})


def options_from_request(raw: Any, ceilings: Any = None) -> AnalysisOptions:
    """Options from a request's ``"options"`` object; ValueError (with a
    client-facing message) on unknown keys or refused values.  Budgets
    are clamped to the same-named attributes of *ceilings* (a
    ServerConfig): a request may only tighten the daemon's limits."""
    raw = raw or {}
    if not isinstance(raw, Mapping):
        raise ValueError('"options" must be an object')
    unknown = sorted(set(raw) - set(_REQUEST_KEYS))
    if unknown:
        raise ValueError(
            f"unknown option(s): {', '.join(unknown)} "
            f"(known: {', '.join(_REQUEST_KEYS)})"
        )
    ablate = raw.get(_ABLATE[2:]) or []
    if not isinstance(ablate, list) or not all(t in _TECHNIQUES for t in ablate):
        raise ValueError(
            f'"{_ABLATE[2:]}" must be a list drawn from {"/".join(_TECHNIQUES)}'
        )
    values = {}
    for f in _FLAGGED:
        meta = f.metadata
        key = meta["flag"][2:].replace("-", "_")
        given = raw.get(key)
        if meta["flag"] == _ABLATE:
            values[f.name] = meta["key"] not in ablate
        elif "number" in meta:
            number, ceiling = meta["number"], getattr(ceilings, f.name, None)
            if given is not None:
                try:
                    given = _check_budget(given, number)
                except ValueError as exc:
                    raise ValueError(f'"{key}" {exc}') from None
            if ceiling is not None:
                given = min(number(ceiling), given or math.inf)
            values[f.name] = given
        elif given is None or isinstance(given, bool):
            values[f.name] = not given
        else:
            raise ValueError(f'"{key}" must be a boolean')
    return AnalysisOptions(**values)


@functools.lru_cache(maxsize=64)
def options_key(options: AnalysisOptions) -> str:
    """Stable text form of every option (budgets too: exhaustion changes
    summaries), for fingerprinting.  Memoized: the generated join costs
    twice a hand-written f-string, and a process sees few option sets
    (equal options such as ``budget_ms`` 100 and 100.0 share one text;
    they analyze alike)."""
    return "|".join(
        f"{tag}={text(getattr(options, name))}" for name, tag, text in _KEY_PARTS
    )


@dataclass
class LoopSummaryRecord:
    """Everything the clients need about one DO loop (section 3/4 sets)."""

    routine: str
    var: str
    lo: SymExpr
    hi: SymExpr
    step: SymExpr
    #: per-iteration sets (in terms of the free index variable)
    mod_i: GARList = field(default_factory=GARList)
    ue_i: GARList = field(default_factory=GARList)
    #: prior/later iteration mods (free index = the current iteration)
    mod_lt: GARList = field(default_factory=GARList)
    mod_gt: GARList = field(default_factory=GARList)
    #: whole-loop sets (index eliminated)
    mod: GARList = field(default_factory=GARList)
    ue: GARList = field(default_factory=GARList)
    #: conservative flags
    has_premature_exit: bool = False
    negative_step: bool = False
    #: non-None when this record is a budget-exhaustion fallback: the
    #: reason string ("budget", "deadline", "steps") — the sets are the
    #: conservative declared-bounds over-approximation, not real analysis
    degraded: Optional[str] = None

    def __str__(self) -> str:
        return (
            f"loop {self.var}={self.lo},{self.hi},{self.step} in {self.routine}:\n"
            f"  MOD_i  = {self.mod_i}\n"
            f"  UE_i   = {self.ue_i}\n"
            f"  MOD_<i = {self.mod_lt}\n"
            f"  MOD_>i = {self.mod_gt}\n"
            f"  MOD    = {self.mod}\n"
            f"  UE     = {self.ue}"
        )


@dataclass
class AnalysisStats(MetricGroup):
    """Instrumentation used by the Figure-4 style cost reporting (a
    :mod:`repro.perf.metrics` group: counters sum when folded)."""

    nodes_visited: int = 0
    gar_ops: int = 0
    loops_summarized: int = 0
    routines_summarized: int = 0
    #: the largest GAR list seen; folds by max, not sum
    peak_gar_list: int = field(default=0, metadata=MAX)
    #: budget-exhaustion fallbacks taken (loops/calls degraded to the
    #: conservative whole-array summary)
    budget_degradations: int = 0
    #: frontier pass (docs/frontier.md): content-domain facts inferred,
    #: recurrence/scan matches recognized, and loops whose verdict is
    #: backed by frontier evidence records
    content_facts: int = 0
    recurrence_matches: int = 0
    frontier_upgrades: int = 0

    def note_list(self, gars: GARList) -> None:
        """Record a GAR-list size for the peak statistic."""
        if len(gars) > self.peak_gar_list:
            self.peak_gar_list = len(gars)
