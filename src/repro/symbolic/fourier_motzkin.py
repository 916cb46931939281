"""Fourier–Motzkin elimination over linear atom conjunctions.

The paper cites Fourier–Motzkin pairwise elimination as the general (most
precise, most expensive) machinery behind constraint-based array analyses
and suggests it as the stronger fallback for its limited pairwise predicate
simplifier.  This module provides exactly that fallback: a decision
procedure for *unsatisfiability* of a conjunction of relational atoms.

Nonlinear monomials are linearized by treating each distinct monomial as an
independent fresh variable.  Linearization only ever adds models, therefore:

* ``definitely_unsat(atoms) is True``  — sound: the conjunction has no
  solution (in fact no rational solution of the linearization).
* a ``False`` result means "could not prove unsatisfiable", not
  "satisfiable".

Strict inequalities (real-typed ``<``) are tracked with a strictness bit;
a derived constant constraint ``c <= 0`` is infeasible when ``c > 0``, or
``c >= 0`` if any contributing constraint was strict.

Disequalities (``e != 0``) are handled by case-splitting (into
``e <= -1`` / ``e >= 1`` for integer atoms, ``e < 0`` / ``e > 0`` for real
ones) up to a small bound, after which they are dropped — dropping only
weakens the system, so a True result remains trustworthy.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

from ..perf.profiler import COUNTERS, MISS, BoundedCache
from ..resilience.budget import charge as _budget_charge
from .expr import SymExpr
from .relation import Atom, BoolAtom, Relation, RelOp

#: elimination effort caps
MAX_VARIABLES = 24
MAX_CONSTRAINTS = 600
MAX_NE_SPLITS = 3

#: frozen atom set → unsat verdict.  LRU-bounded: the old clear-when-full
#: dict dropped the entire working set at the worst moment (mid-analysis
#: of a large routine); eviction now sheds only the coldest entries.
_UNSAT_CACHE = BoundedCache("fm.unsat", maxsize=65536)
#: (frozen context atoms, conclusion) → implication verdict; avoids even
#: building the combined atom list on repeats
_IMPLIED_CACHE = BoundedCache("fm.implied_by", maxsize=65536)


class _Constraint:
    """``coeffs . vars + const <= 0`` (or ``< 0`` when strict)."""

    __slots__ = ("coeffs", "const", "strict")

    def __init__(
        self, coeffs: dict[object, Fraction], const: Fraction, strict: bool = False
    ) -> None:
        self.coeffs = {k: v for k, v in coeffs.items() if v}
        self.const = const
        self.strict = strict

    def is_constant(self) -> bool:
        return not self.coeffs

    def infeasible(self) -> bool:
        if not self.is_constant():
            return False
        return self.const > 0 or (self.strict and self.const >= 0)


def _to_constraint(expr: SymExpr, strict: bool = False) -> _Constraint:
    coeffs: dict[object, Fraction] = {}
    const = Fraction(0)
    for mono, coeff in expr.terms:
        if mono.is_unit():
            const += coeff
        else:
            # the monomial object itself is the linearized variable key
            coeffs[mono] = coeffs.get(mono, Fraction(0)) + coeff
    return _Constraint(coeffs, const, strict)


def _eliminate(constraints: list[_Constraint]) -> Optional[bool]:
    """Run FM elimination; True = infeasible, False = feasible (rationally),
    None = gave up (too large)."""
    work = list(constraints)
    while True:
        for c in work:
            if c.infeasible():
                return True
        work = [c for c in work if not c.is_constant()]
        if not work:
            return False
        # one pass tallies the positive/negative occurrences per variable;
        # the old per-candidate rescan was O(V*C) every round
        pos: dict[object, int] = {}
        neg: dict[object, int] = {}
        for c in work:
            for v, coeff in c.coeffs.items():
                if coeff > 0:
                    pos[v] = pos.get(v, 0) + 1
                    neg.setdefault(v, 0)
                else:
                    neg[v] = neg.get(v, 0) + 1
                    pos.setdefault(v, 0)
        if len(pos) > MAX_VARIABLES:
            COUNTERS.fm_var_limit_bailouts += 1
            return None
        if len(work) > MAX_CONSTRAINTS:
            COUNTERS.fm_constraint_limit_bailouts += 1
            return None

        # pivot: fewest pos*neg products, ties broken by the canonical
        # monomial order so the choice never depends on set iteration
        var = min(pos, key=lambda v: (pos[v] * neg[v], v.sort_key()))
        uppers = []  # coeff > 0: var bounded above
        lowers = []  # coeff < 0: var bounded below
        others = []
        for c in work:
            coeff = c.coeffs.get(var, Fraction(0))
            if coeff > 0:
                uppers.append(c)
            elif coeff < 0:
                lowers.append(c)
            else:
                others.append(c)
        # one eliminated pair = one budget step, so --budget-steps
        # degrades proportionally on dense systems
        _budget_charge(len(uppers) * len(lowers))
        new = others
        for up in uppers:
            for lo in lowers:
                a = up.coeffs[var]
                b = -lo.coeffs[var]
                # combine: b*up + a*lo eliminates var
                coeffs: dict[object, Fraction] = {}
                for k, v in up.coeffs.items():
                    coeffs[k] = coeffs.get(k, Fraction(0)) + b * v
                for k, v in lo.coeffs.items():
                    coeffs[k] = coeffs.get(k, Fraction(0)) + a * v
                const = b * up.const + a * lo.const
                c = _Constraint(coeffs, const, up.strict or lo.strict)
                if c.infeasible():
                    return True
                if not c.is_constant():
                    new.append(c)
        if len(new) > MAX_CONSTRAINTS:
            COUNTERS.fm_constraint_limit_bailouts += 1
            return None
        work = new


def _atoms_to_systems(
    atoms: Sequence[Relation], splits_left: int
) -> Iterable[list[_Constraint]]:
    """Expand EQ into two LE's and case-split NE's into alternative systems."""
    base: list[_Constraint] = []
    nes: list[Relation] = []
    for atom in atoms:
        if atom.op is RelOp.LE:
            base.append(_to_constraint(atom.expr))
        elif atom.op is RelOp.LT:
            base.append(_to_constraint(atom.expr, strict=True))
        elif atom.op is RelOp.EQ:
            base.append(_to_constraint(atom.expr))
            base.append(_to_constraint(-atom.expr))
        else:  # NE
            nes.append(atom)
    # atoms arrive in set order: fix which splits are kept, and in which
    # order the systems are tried, by the canonical atom order
    nes.sort(key=lambda a: a.sort_key())
    if len(nes) > splits_left:
        COUNTERS.fm_ne_splits_dropped += len(nes) - splits_left
    nes = nes[:splits_left]  # drop extras (weakens the system: still sound)
    systems = [base]
    for rel in nes:
        if rel.integer:
            lo = _to_constraint(rel.expr + 1)  # e <= -1
            hi = _to_constraint(-rel.expr + 1)  # e >= 1
        else:
            lo = _to_constraint(rel.expr, strict=True)  # e < 0
            hi = _to_constraint(-rel.expr, strict=True)  # e > 0
        systems = [s + [lo] for s in systems] + [s + [hi] for s in systems]
    return systems


def definitely_unsat(atoms: Iterable[Atom]) -> bool:
    """True only when the conjunction of *atoms* is provably unsatisfiable.

    Results are memoized on the atom set — the region operations issue the
    same queries many times during propagation.
    """
    key = frozenset(atoms)
    cached = _UNSAT_CACHE.get(key)
    if cached is not MISS:
        return cached
    return _UNSAT_CACHE.put(key, _definitely_unsat(key))


def _definitely_unsat(atoms: frozenset) -> bool:
    relations: list[Relation] = []
    bools: dict[str, bool] = {}
    for atom in atoms:
        if isinstance(atom, BoolAtom):
            if atom.name in bools and bools[atom.name] != atom.value:
                return True
            bools[atom.name] = atom.value
        else:
            t = atom.truth()
            if t is False:
                return True
            if t is None:
                relations.append(atom)
    if not relations:
        return False
    # every case-split system must eliminate to infeasible
    for system in _atoms_to_systems(relations, MAX_NE_SPLITS):
        COUNTERS.fm_eliminations += 1
        if _eliminate(system) is not True:
            return False
    return True


def implied_by(context: Iterable[Atom], conclusion: Atom) -> bool:
    """True only when ``AND(context) => conclusion`` is provable.

    Checked as unsatisfiability of ``context AND NOT conclusion``.
    """
    ctx = context if isinstance(context, frozenset) else frozenset(context)
    key = (ctx, conclusion)
    cached = _IMPLIED_CACHE.get(key)
    if cached is not MISS:
        return cached
    return _IMPLIED_CACHE.put(
        key, definitely_unsat(list(ctx) + [conclusion.negate()])
    )
