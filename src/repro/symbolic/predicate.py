"""Guard predicates in ordered conjunctive normal form (paper section 5.2).

A :class:`Predicate` is either ``TRUE``, ``FALSE``, ``UNKNOWN`` (the paper's
unknown guard, written Δ), or a conjunction of :class:`Disjunction` clauses,
each a set of atoms (:class:`~repro.symbolic.relation.Relation` or
:class:`~repro.symbolic.relation.BoolAtom`).

The pairwise simplifications of the paper's "limited simplifier" — the
truth value of the conjunction/disjunction of two relational expressions,
subsumption between two disjunctions — happen eagerly at construction time.
Operations whose CNF result would exceed the complexity caps degrade to
``UNKNOWN`` exactly as the paper marks over-complex predicates unknown.
"""

from __future__ import annotations

import enum
import itertools
from typing import Iterable, Mapping, Optional

from ..perf.profiler import MISS, BoundedCache
from .expr import SymExpr
from .relation import Atom, BoolAtom, Relation, RelOp

#: complexity caps beyond which predicate operations degrade to UNKNOWN
MAX_CLAUSES = 80
MAX_ATOMS_PER_CLAUSE = 24

#: hash-consing (docs/performance.md, Layer 1): a clause is interned on
#: its atom set, a predicate on its raw and on its simplified clause set
_CLAUSE_INTERN = BoundedCache("disjunction.intern", maxsize=16384)
_INTERN = BoundedCache("predicate.intern", maxsize=16384)


class _Kind(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"
    CNF = "cnf"


class Disjunction:
    """One CNF clause: a disjunction of atoms, simplified pairwise."""

    __slots__ = ("atoms", "always_true", "_hash")

    def __new__(cls, atoms: Iterable[Atom]) -> "Disjunction":
        atoms = list(atoms)
        raw = frozenset(atoms)
        self = _CLAUSE_INTERN.get(raw)
        if self is not MISS:
            return self
        kept: list[Atom] = []
        always_true = False
        for atom in atoms:
            t = atom.truth()
            if t is True:
                always_true = True
                break
            if t is False:
                continue
            kept.append(atom)
        if not always_true:
            kept = cls._prune(kept)
            always_true = cls._is_tautology(kept)
        self = object.__new__(cls)
        self.always_true = always_true
        self.atoms: frozenset[Atom] = frozenset() if always_true else frozenset(kept)
        self._hash = hash((self.always_true, self.atoms))
        return _CLAUSE_INTERN.put(raw, self)

    def __reduce__(self):  # see Predicate.__reduce__
        return (Disjunction, (_TAUTOLOGY if self.always_true else self.atoms,))

    @staticmethod
    def _prune(atoms: list[Atom]) -> list[Atom]:
        """Drop atoms absorbed by weaker ones: if a => b then a OR b == b."""
        unique = list(dict.fromkeys(atoms))
        dropped: set[int] = set()
        for i, a in enumerate(unique):
            if i in dropped:
                continue
            for j, b in enumerate(unique):
                if i == j or j in dropped:
                    continue
                if a.implies(b) is True:
                    dropped.add(i)
                    break
        return [a for i, a in enumerate(unique) if i not in dropped]

    @staticmethod
    def _is_tautology(atoms: list[Atom]) -> bool:
        """Pairwise tautology: (not a) => b means a OR b covers everything."""
        for a, b in itertools.combinations(atoms, 2):
            if a.negate().implies(b) is True or b.negate().implies(a) is True:
                return True
        return False

    def is_false(self) -> bool:
        """True for the unsatisfiable empty clause."""
        return not self.always_true and not self.atoms

    def is_unit(self) -> bool:
        """True when the clause holds exactly one atom."""
        return len(self.atoms) == 1

    def unit_atom(self) -> Atom:
        """The single atom of a unit clause."""
        (atom,) = self.atoms
        return atom

    def subsumes(self, other: "Disjunction") -> bool:
        """``self => other`` clause-wise: every atom of self implies some
        atom of other (so any model of self is a model of other)."""
        if other.always_true:
            return True
        if self.always_true:
            return False
        return all(
            any(a.implies(b) is True for b in other.atoms) for a in self.atoms
        )

    def substitute(self, bindings: Mapping[str, SymExpr]) -> Optional["Disjunction"]:
        """``None`` signals an unrepresentable result (a logical variable
        bound to a non-variable value) — the predicate degrades to Δ."""
        if self.always_true:
            return self
        out = []
        for a in self.atoms:
            replaced = a.substitute(bindings)
            if replaced is None:
                return None
            out.append(replaced)
        return Disjunction(out)

    def rename(self, mapping: Mapping[str, str]) -> "Disjunction":
        """Variable renaming over all atoms."""
        if self.always_true:
            return self
        return Disjunction(a.rename(mapping) for a in self.atoms)

    def free_vars(self) -> frozenset[str]:
        """Variables occurring in any atom."""
        out: set[str] = set()
        for a in self.atoms:
            out |= a.free_vars()
        return frozenset(out)

    def evaluate(self, env: Mapping[str, int]) -> bool:
        """Concrete truth value under an environment."""
        return self.always_true or any(a.evaluate(env) for a in self.atoms)

    def sorted_atoms(self) -> list[Atom]:
        """The atoms in canonical display order."""
        return sorted(self.atoms, key=lambda a: a.sort_key())

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Disjunction)
            and self._hash == other._hash
            and self.always_true == other.always_true
            and self.atoms == other.atoms
        )

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self.atoms)

    def __repr__(self) -> str:
        return f"Disjunction<{self}>"

    def __str__(self) -> str:
        if self.always_true:
            return "True"
        if not self.atoms:
            return "False"
        return " .OR. ".join(str(a) for a in self.sorted_atoms())

    def sort_key(self) -> tuple:
        """Canonical ordering key."""
        return tuple(a.sort_key() for a in self.sorted_atoms())


class Predicate:
    """A guard predicate: TRUE / FALSE / UNKNOWN (Δ) / a CNF clause set."""

    __slots__ = ("_kind", "clauses", "_hash", "_units")

    def __init__(self, kind: _Kind, clauses: frozenset[Disjunction] = frozenset()):
        self._kind = kind
        self.clauses = clauses
        self._hash = hash((kind, clauses))
        self._units: Optional[tuple[Atom, ...]] = None

    def __reduce__(self):
        # rebuilt on load (the slot _hash is per-process); constants by name
        if self._kind is _Kind.CNF:
            return (Predicate.of_clauses, (self.clauses,))
        return self._kind.name

    # -- constructors ----------------------------------------------------------

    @classmethod
    def true(cls) -> "Predicate":
        return _TRUE

    @classmethod
    def false(cls) -> "Predicate":
        return _FALSE

    @classmethod
    def unknown(cls) -> "Predicate":
        return _UNKNOWN

    @classmethod
    def of_atom(cls, atom: Atom) -> "Predicate":
        # a constant atom folds in the clause, then the clause in the CNF
        return cls.of_clauses([Disjunction([atom])])

    @classmethod
    def of_clauses(cls, clauses: Iterable[Disjunction]) -> "Predicate":
        clauses = list(clauses)
        raw = frozenset(clauses)
        cached = _INTERN.get(raw)
        if cached is not MISS:
            return cached
        kept = _simplify_cnf(clauses)
        if kept is None:
            out = _FALSE
        elif not kept:
            out = _TRUE
        elif len(kept) > MAX_CLAUSES or any(
            len(c) > MAX_ATOMS_PER_CLAUSE for c in kept
        ):
            out = _UNKNOWN
        else:
            # also register the result under its own clause set
            canon = frozenset(kept)
            out = _INTERN.get(canon)
            if out is MISS or out.clauses != canon:
                out = _INTERN.put(canon, cls(_Kind.CNF, canon))
        return _INTERN.put(raw, out)

    # -- convenience relational constructors -------------------------------------

    @classmethod
    def le(cls, a, b, integer: bool = True) -> "Predicate":
        return cls.of_atom(Relation.le(a, b, integer))

    @classmethod
    def lt(cls, a, b, integer: bool = True) -> "Predicate":
        return cls.of_atom(Relation.lt(a, b, integer))

    @classmethod
    def ge(cls, a, b, integer: bool = True) -> "Predicate":
        return cls.of_atom(Relation.ge(a, b, integer))

    @classmethod
    def gt(cls, a, b, integer: bool = True) -> "Predicate":
        return cls.of_atom(Relation.gt(a, b, integer))

    @classmethod
    def eq(cls, a, b, integer: bool = True) -> "Predicate":
        return cls.of_atom(Relation.eq(a, b, integer))

    @classmethod
    def boolvar(cls, name: str, value: bool = True) -> "Predicate":
        return cls.of_atom(BoolAtom(name, value))

    # -- tests ----------------------------------------------------------------------

    def is_true(self) -> bool:
        """Is this the TRUE predicate?"""
        return self._kind is _Kind.TRUE

    def is_false(self) -> bool:
        """True for the unsatisfiable empty clause."""
        return self._kind is _Kind.FALSE

    def is_unknown(self) -> bool:
        """Is this the unknown predicate Δ?"""
        return self._kind is _Kind.UNKNOWN

    def is_cnf(self) -> bool:
        """Is this a genuine clause set (not a constant)?"""
        return self._kind is _Kind.CNF

    # -- logical operations --------------------------------------------------------

    def conj(self, other: "Predicate") -> "Predicate":
        """AND.  ``FALSE`` dominates; Δ AND P is Δ unless P is FALSE."""
        if self.is_false() or other.is_false():
            return _FALSE
        if self.is_true():
            return other
        if other.is_true():
            return self
        if self.is_unknown() or other.is_unknown():
            return _UNKNOWN
        return Predicate.of_clauses(self.clauses | other.clauses)

    def disj(self, other: "Predicate") -> "Predicate":
        """OR.  ``TRUE`` dominates; Δ OR P is Δ unless P is TRUE."""
        if self.is_true() or other.is_true():
            return _TRUE
        if self.is_false():
            return other
        if other.is_false():
            return self
        if self.is_unknown() or other.is_unknown():
            return _UNKNOWN
        if len(self.clauses) * len(other.clauses) > MAX_CLAUSES:
            return _UNKNOWN
        return Predicate.of_clauses(
            Disjunction(c1.atoms | c2.atoms)
            for c1 in self.clauses
            for c2 in other.clauses
        )

    def negate(self) -> "Predicate":
        """De Morgan negation, redistributed to CNF (Δ on blow-up)."""
        if self.is_true():
            return _FALSE
        if self.is_false():
            return _TRUE
        if self.is_unknown():
            return _UNKNOWN
        # not(AND of clauses) = OR over clauses of (AND of negated atoms):
        # distribute to CNF by taking one atom from each clause.
        sizes = 1
        for c in self.clauses:
            sizes *= max(len(c), 1)
            if sizes > MAX_CLAUSES:
                return _UNKNOWN
        picks = [c.sorted_atoms() for c in self.clauses]
        return Predicate.of_clauses(
            Disjunction(a.negate() for a in combo)
            for combo in itertools.product(*picks)
        )

    def __and__(self, other: "Predicate") -> "Predicate":
        return self.conj(other)

    def __or__(self, other: "Predicate") -> "Predicate":
        return self.disj(other)

    def __invert__(self) -> "Predicate":
        return self.negate()

    def implies(self, other: "Predicate") -> Optional[bool]:
        """Syntactic implication test; ``None`` when it cannot tell."""
        if self.is_false() or other.is_true():
            return True
        if self.is_unknown() or other.is_unknown():
            return None
        if self.is_true():
            # TRUE => other only if other is TRUE (handled) — cannot tell
            # otherwise unless other simplifies; report None/False by kind.
            return None if other.is_cnf() else other.is_true()
        if other.is_false():
            return None  # would require proving self unsatisfiable
        return (
            all(
                any(cp.subsumes(cq) for cp in self.clauses)
                for cq in other.clauses
            )
            or None
        )

    # -- data plumbing ------------------------------------------------------------------

    def substitute(self, bindings: Mapping[str, SymExpr]) -> "Predicate":
        """Value substitution over every clause (Δ if unrepresentable)."""
        if not self.is_cnf():
            return self
        new_clauses = []
        for clause in self.clauses:
            replaced = clause.substitute(bindings)
            if replaced is None:
                return _UNKNOWN
            new_clauses.append(replaced)
        return Predicate.of_clauses(new_clauses)

    def rename(self, mapping: Mapping[str, str]) -> "Predicate":
        """Variable renaming over all atoms."""
        if not self.is_cnf():
            return self
        return Predicate.of_clauses(c.rename(mapping) for c in self.clauses)

    def free_vars(self) -> frozenset[str]:
        """Variables occurring in any atom."""
        out: set[str] = set()
        for c in self.clauses:
            out |= c.free_vars()
        return frozenset(out)

    def contains(self, name: str) -> bool:
        """Does *name* occur free in the predicate?"""
        return name in self.free_vars()

    def evaluate(self, env: Mapping[str, int]) -> bool:
        """Concrete truth under *env*.  Raises on UNKNOWN: Δ has no value."""
        if self.is_true():
            return True
        if self.is_false():
            return False
        if self.is_unknown():
            raise ValueError("cannot evaluate an unknown predicate (Delta)")
        return all(c.evaluate(env) for c in self.clauses)

    def unit_atoms(self) -> list[Atom]:
        """Atoms of all unit clauses — the conjunction context they define —
        in canonical order, so Fourier–Motzkin never sees hash order."""
        if self._units is None:  # computed once per interned predicate
            units = (c.unit_atom() for c in self.clauses if c.is_unit())
            self._units = tuple(sorted(units, key=lambda a: a.sort_key()))
        return list(self._units)

    # -- identity ---------------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Predicate)
            and self._hash == other._hash
            and self._kind is other._kind
            and self.clauses == other.clauses
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Predicate<{self}>"

    def __str__(self) -> str:
        if self.is_true():
            return "True"
        if self.is_false():
            return "False"
        if self.is_unknown():
            return "Delta"
        parts = sorted((str(c) for c in self.clauses))
        if len(parts) == 1:
            return parts[0]
        return " .AND. ".join(f"({p})" if " .OR. " in p else p for p in parts)


def _simplify_cnf(clauses: list[Disjunction]) -> Optional[list[Disjunction]]:
    """Simplify a clause list; ``None`` means provably FALSE, ``[]`` TRUE.

    Implements the paper's pairwise strategy: unit-vs-atom propagation,
    unit-vs-unit contradiction, and clause subsumption, iterated to a
    (bounded) fixpoint.
    """
    work = [c for c in clauses if not c.always_true]
    if any(c.is_false() for c in work):
        return None
    for _ in range(8):  # bounded fixpoint
        changed = False
        units = [c.unit_atom() for c in work if c.is_unit()]
        # unit-vs-unit contradiction
        for a, b in itertools.combinations(units, 2):
            if a.conflicts(b):
                return None
        # unit propagation into other clauses
        new_work: list[Disjunction] = []
        for clause in work:
            if clause.is_unit():
                new_work.append(clause)
                continue
            atoms = list(clause.atoms)
            satisfied = False
            pruned: list[Atom] = []
            for atom in atoms:
                if any(u.implies(atom) is True for u in units):
                    satisfied = True  # clause guaranteed by a unit
                    break
                if any(u.conflicts(atom) for u in units):
                    changed = True
                    continue  # atom can never hold; drop it
                pruned.append(atom)
            if satisfied:
                changed = True
                continue
            if len(pruned) != len(atoms):
                clause = Disjunction(pruned)
                if clause.always_true:
                    changed = True
                    continue
            if clause.is_false():
                return None
            new_work.append(clause)
        work = new_work
        # subsumption: drop clause q when some other clause p subsumes it
        kept: list[Disjunction] = []
        removed: set[int] = set()
        for i, q in enumerate(work):
            drop = False
            for j, p in enumerate(work):
                if i == j or j in removed:
                    continue
                if p.subsumes(q) and not (q.subsumes(p) and j > i):
                    drop = True
                    break
            if drop:
                removed.add(i)
                changed = True
            else:
                kept.append(q)
        work = kept
        if not changed:
            break
    return work


_TRUE = Predicate(_Kind.TRUE)
_FALSE = Predicate(_Kind.FALSE)
_UNKNOWN = Predicate(_Kind.UNKNOWN)
_TAUTOLOGY = (Relation(0, RelOp.LE),)  # how an always-true clause pickles

TRUE = _TRUE
FALSE = _FALSE
UNKNOWN = _UNKNOWN
