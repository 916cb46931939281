"""Property tests: Fourier–Motzkin refutation is sound on random systems.

Each case builds a randomized atom system (integer, strict real and
nonlinear atoms, NE case-splits, and coefficients far beyond 64 bits)
and checks the one-sided contract against brute-force evaluation on
small integer environments: a provably-unsat system has no model, and a
provable implication holds wherever its context does.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.symbolic import Relation, RelOp, SymExpr, definitely_unsat, implied_by, sym

from .strategies import VAR_NAMES, envs, linear_exprs, relations

#: coefficients beyond the 64-bit range (exact arithmetic must not wrap)
huge_ints = st.integers(min_value=2**63, max_value=2**70)


@st.composite
def strict_relations(draw):
    """Real-typed atoms, including strict ``<`` (never normalized away)."""
    expr = draw(linear_exprs())
    op = draw(st.sampled_from([RelOp.LE, RelOp.LT, RelOp.NE]))
    return Relation(expr, op, integer=False)


@st.composite
def atom_systems(draw, max_atoms: int = 5):
    """A random conjunction mixing integer, strict, and nonlinear atoms."""
    kinds = st.one_of(relations(), strict_relations())
    return [draw(kinds) for _ in range(draw(st.integers(1, max_atoms)))]


@st.composite
def huge_systems(draw, max_atoms: int = 4):
    """Systems whose coefficients are all at least ``2**63``."""
    out = []
    for _ in range(draw(st.integers(1, max_atoms))):
        expr = SymExpr.const(draw(huge_ints) * draw(st.sampled_from([-1, 1])))
        for name in VAR_NAMES:
            if draw(st.booleans()):
                expr = expr + sym(name) * draw(huge_ints)
        out.append(Relation(expr, draw(st.sampled_from([RelOp.LE, RelOp.EQ]))))
    return out


@given(atom_systems(max_atoms=4), envs())
@settings(max_examples=150, deadline=None)
def test_unsat_is_sound(atoms, env):
    """A provably-unsat system has no model (spot-checked per env)."""
    if definitely_unsat(atoms):
        assert not all(a.evaluate(env) for a in atoms)


@given(huge_systems(), envs())
@settings(max_examples=50, deadline=None)
def test_huge_unsat_is_sound(atoms, env):
    """Coefficients beyond 64 bits keep the one-sided guarantee."""
    if definitely_unsat(atoms):
        assert not all(a.evaluate(env) for a in atoms)


@given(atom_systems(), relations(), envs())
@settings(max_examples=100, deadline=None)
def test_implied_by_is_sound(context, conclusion, env):
    """A provable implication holds wherever its context holds."""
    if implied_by(context, conclusion) and all(a.evaluate(env) for a in context):
        assert conclusion.evaluate(env)
