"""Symbolic math substrate: expressions, relations, CNF predicates.

This package is the paper's "general expression operation library" and
"predicate operation library" (Figure 2): integer symbolic expressions
normalized to an ordered sum of products, relational atoms ``(e op 0)``,
guard predicates in conjunctive normal form with a pairwise simplifier,
and a Fourier-Motzkin refutation engine used as the stronger fallback.
"""

from .compare import Comparer, predicate_implies, predicate_unsat
from .environment import Env, all_envs
from .expr import ONE, ZERO, ExprLike, SymExpr, sym
from .fourier_motzkin import definitely_unsat, implied_by
from .predicate import FALSE, TRUE, UNKNOWN, Disjunction, Predicate
from .relation import Atom, BoolAtom, Relation, RelOp
from .terms import Monomial

__all__ = [
    "Atom",
    "BoolAtom",
    "Comparer",
    "Disjunction",
    "Env",
    "ExprLike",
    "FALSE",
    "Monomial",
    "ONE",
    "Predicate",
    "Relation",
    "RelOp",
    "SymExpr",
    "TRUE",
    "UNKNOWN",
    "ZERO",
    "all_envs",
    "definitely_unsat",
    "implied_by",
    "predicate_implies",
    "predicate_unsat",
    "sym",
]
