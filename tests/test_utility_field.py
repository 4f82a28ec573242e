"""Utility fields: evaluation, discontinuity events, star-continuity."""

from __future__ import annotations

import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from itpref import (
    Act,
    ExponentialCurve,
    FilteredSpace,
    IdentityCurve,
    InvariantError,
    LinearCurve,
    PiecewiseLinearCurve,
    ProbabilityMeasure,
    UtilityField,
    cce,
    is_star_continuous,
)
from itpref.controls import three_atom_space
from itpref.sampling import random_act, random_representation

from conftest import bits, drawn_act, drawn_representation, foreign_act, foreign_null_measure

JUMPY = PiecewiseLinearCurve.from_points([(0, 0), (0.5, 0.4, 0.9, 0.9), (1, 1.4)])


def field_with_jump_on(space, atom_index: int) -> UtilityField:
    curves = [IdentityCurve()] * space.n_atoms(1)
    curves[atom_index] = JUMPY
    return UtilityField.from_atom_curves(space, [[IdentityCurve()], curves])


def limit_gap(curve, x: float) -> float:
    """Independent oracle: the paper-style two-sided limit gap at x, taking
    the inf/sup over 1/n with n up to 10**6 (monotone, so the extreme n
    realizes them)."""
    n = 10**6
    upper = min(curve(x + 1.0 / m) for m in (1, 10, 100, 10**4, n))
    lower = max(curve(x - 1.0 / m) for m in (1, 10, 100, 10**4, n))
    return float(upper - lower)


class TestEval:
    def test_identity_field_is_identity(self, four_state_space, staircase):
        rows = [[IdentityCurve()] * four_state_space.n_atoms(i) for i in range(3)]
        field = UtilityField.from_atom_curves(four_state_space, rows)
        assert field.eval(2, staircase).values == staircase.values

    def test_state_dependent_eval(self):
        space, _ = three_atom_space()
        field = UtilityField.from_atom_curves(
            space, [[IdentityCurve()], [LinearCurve(2), IdentityCurve(), LinearCurve(4)]]
        )
        f = Act(space, 1, (3, 3, 3))
        assert field.eval(1, f).values == (6, 3, 12)

    def test_exponential_closed_form(self, two_branch_space):
        import math

        field = UtilityField.from_atom_curves(
            two_branch_space,
            [[ExponentialCurve(1.0)], [ExponentialCurve(1.0)] * 2],
        )
        f = Act(two_branch_space, 1, (math.log(2), 0))
        assert field.eval(1, f).values[0] == pytest.approx(0.5, abs=1e-15)

    def test_coarser_act_required(self, four_state_space, staircase):
        rows = [[IdentityCurve()] * four_state_space.n_atoms(i) for i in range(3)]
        field = UtilityField.from_atom_curves(four_state_space, rows)
        with pytest.raises(InvariantError):
            field.eval(1, staircase)

    def test_atom_count_validated(self, four_state_space):
        with pytest.raises(InvariantError, match="curves"):
            UtilityField.from_atom_curves(
                four_state_space, [[IdentityCurve()], [IdentityCurve()], [IdentityCurve()] * 4]
            )

    def test_per_state_rows_rejected(self):
        """A field holds one curve per atom: rows of one curve per state,
        which could mix curves inside an atom, fail the count check."""
        space = FilteredSpace.build(
            ("x", "y", "z"), (0, 1, 2), [[["x", "y", "z"]], [["x", "y"], ["z"]], [["x"], ["y"], ["z"]]]
        )
        rows = (
            (IdentityCurve(),) * 3,
            (IdentityCurve(), LinearCurve(2), IdentityCurve()),
            (IdentityCurve(),) * 3,
        )
        with pytest.raises(InvariantError, match="time index 0 needs 1 curves, got 3"):
            UtilityField(space, rows)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), exact=st.booleans(), null=st.booleans())
def test_eval_is_each_states_curve_applied(seed, exact, null):
    """``eval(j, f)`` equals each state's curve in ``curves_by_state``
    applied to f's value there, in value and in type, on float and exact
    representations."""
    rng = random.Random(seed)
    rep = drawn_representation(rng, 4, exact, null)
    space, field = rep.space, rep.field
    for j in range(space.n_times):
        f = drawn_act(rng, space, rng.randint(0, j), exact)
        want = Act(space, j, tuple(u(x) for u, x in zip(field.curves_by_state[j], f.values)))
        assert bits(field.eval(j, f)) == bits(want)


class TestDiscontinuitySets:
    def test_continuous_field_always_empty(self, four_state_space, staircase):
        rows = [[IdentityCurve()] * four_state_space.n_atoms(i) for i in range(3)]
        field = UtilityField.from_atom_curves(four_state_space, rows)
        rd, ld, d = field.discontinuity_sets(2, staircase)
        assert not rd.members and not ld.members and not d.members

    def test_act_at_jump_hits_whole_atom(self):
        space, _ = three_atom_space()
        field = field_with_jump_on(space, 0)
        f = Act(space, 1, (0.5, 0, 0))
        rd, ld, d = field.discontinuity_sets(1, f)
        assert d.names == ("x",)
        assert ld.names == ("x",)       # value above the left limit
        assert not rd.members           # right limit equals the value
        # a jump on {y} attaining its left limit: right limit above the value
        right_jump = PiecewiseLinearCurve.from_points([(0, 0), (0.5, 0.4, 0.4, 0.9), (1, 1.4)])
        field = UtilityField.from_atom_curves(space, [[IdentityCurve()], [JUMPY, right_jump, IdentityCurve()]])
        rd, ld, d = field.discontinuity_sets(1, Act(space, 1, (0.5, 0.5, 0.5)))
        assert (rd.names, ld.names, d.names) == (("y",), ("x",), ("x", "y"))

    def test_act_avoiding_jumps_is_clean(self):
        space, _ = three_atom_space()
        field = field_with_jump_on(space, 0)
        f = Act(space, 1, (0.25, 0.5, 0.5))  # 0.5 sits on identity atoms only
        rd, ld, d = field.discontinuity_sets(1, f)
        assert not d.members

    def test_agrees_with_limit_oracle(self):
        # membership in the two-sided set matches the brute-force limit gap
        space, _ = three_atom_space()
        field = field_with_jump_on(space, 0)
        for x in (0.5, 0.25, 0.75, 0.0):
            f = Act.constant(space, 1, x)
            _, _, d = field.discontinuity_sets(1, f)
            gap = limit_gap(JUMPY, x)
            assert (0 in d.members) == (gap > 1e-3)


class TestForeignAndLateActs:
    """Acts from another space, or of a later time, are refused as the engine
    refuses them."""

    def test_eval_rejects_an_act_of_another_space(self):
        a, f = foreign_act()
        with pytest.raises(InvariantError, match="another filtered space"):
            a.field.eval(2, f)

    def test_discontinuity_sets_reject_an_act_of_another_space(self):
        a, f = foreign_act()
        with pytest.raises(InvariantError, match="another filtered space"):
            a.field.discontinuity_sets(2, f)

    def test_star_continuity_rejects_a_measure_of_another_space(self):
        # the other measure's positive time-1 atoms, read by index, would
        # skip the jump on atom {z}
        space, P = three_atom_space()
        field = field_with_jump_on(space, 2)
        assert not is_star_continuous(field, P, 1)
        with pytest.raises(InvariantError, match="measure is defined on another filtered space"):
            is_star_continuous(field, foreign_null_measure(), 1)

    def test_discontinuity_sets_reject_a_later_act(self):
        a, _ = foreign_act()
        g = random_act(random.Random(0), a.space, 2)
        with pytest.raises(InvariantError, match="act at time index 2 is not measurable at 1"):
            a.field.eval(1, g)
        with pytest.raises(InvariantError, match="act at time index 2 is not measurable at 1"):
            a.field.discontinuity_sets(1, g)


class TestStarContinuity:
    def test_identity_field(self, four_state_space, four_state_measure):
        rows = [[IdentityCurve()] * four_state_space.n_atoms(i) for i in range(3)]
        field = UtilityField.from_atom_curves(four_state_space, rows)
        assert is_star_continuous(field, four_state_measure, 1)

    def test_jump_on_positive_atom_flagged_with_witness(self):
        space, P = three_atom_space()
        field = field_with_jump_on(space, 0)
        res = is_star_continuous(field, P, 1)
        assert not res
        assert res.atom.names == ("x",)
        assert res.jump.x == 0.5
        _, _, d = field.discontinuity_sets(1, res.witness)
        assert P.event_mass(d) > 0

    def test_jump_on_null_atom_passes(self):
        space, _ = three_atom_space()
        P = ProbabilityMeasure(space, (0, Fraction(1, 2), Fraction(1, 2)))
        field = field_with_jump_on(space, 0)
        assert is_star_continuous(field, P, 1)


def test_evaluated_fields_and_curves_pickle():
    """A field pickles as its space and its per-atom curves: the derived
    per-state views and the curves' cached evaluators, closures, stay out.
    An evaluated representation round-trips, and its copy evaluates as the
    original does."""
    rng = random.Random(3)
    rep = random_representation(rng, n_times=3, kinds=("pl", "exp"))
    f = random_act(rng, rep.space, 2)
    want, want_cce = rep.field.eval(2, f), cce(rep, 1, 2, f)
    assert "evaluators_by_state" in vars(rep.field)
    assert set(rep.field.__getstate__()) == {"space", "curves"}
    copy = pickle.loads(pickle.dumps(rep))
    assert copy == rep
    assert bits(copy.field.eval(2, f)) == bits(want)
    assert bits(cce(copy, 1, 2, f)) == bits(want_cce)
