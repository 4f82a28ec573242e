"""Utility fields: evaluation, discontinuity events, star-continuity."""

from __future__ import annotations

import pickle
import random
from fractions import Fraction

import pytest

from itpref import (
    Act,
    ExponentialCurve,
    IdentityCurve,
    InvariantError,
    LinearCurve,
    PiecewiseLinearCurve,
    ProbabilityMeasure,
    UtilityField,
    is_star_continuous,
)
from itpref.controls import three_atom_space
from itpref.sampling import random_act, random_representation

from conftest import bits

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

    def test_nonmeasurable_field_evaluates_at_its_first_measurable_level(self):
        """A raw-built field that mixes curves inside a time-1 atom (a
        negative control): ``eval`` tags its result at the first level where
        the values are measurable, and raises when no level is."""
        from itpref import FilteredSpace

        rows = (
            (IdentityCurve(),) * 3,
            (IdentityCurve(), LinearCurve(2), IdentityCurve()),
            (IdentityCurve(),) * 3,
        )
        space = FilteredSpace.build(
            ("x", "y", "z"), (0, 1, 2), [[["x", "y", "z"]], [["x", "y"], ["z"]], [["x"], ["y"], ["z"]]]
        )
        field = UtilityField(space, rows)
        split = field.eval(1, Act(space, 1, (1, 1, 3)))
        assert split.values == (1, 2, 3) and split.time_index == 2
        zero = field.eval(1, Act.constant(space, 1, 0))
        assert zero.values == (0, 0, 0) and zero.time_index == 1
        merged = FilteredSpace.build(
            ("x", "y", "z"), (0, 1), [[["x", "y", "z"]], [["x", "y"], ["z"]]]
        )
        with pytest.raises(InvariantError, match="not measurable at time index 1"):
            UtilityField(merged, rows[:2]).eval(1, Act(merged, 1, (1, 1, 3)))


class TestDiscontinuitySets:
    def test_continuous_field_always_empty(self, four_state_space, staircase):
        rows = [[IdentityCurve()] * four_state_space.n_atoms(i) for i in range(3)]
        field = UtilityField.from_atom_curves(four_state_space, rows)
        rd, ld, d = field.discontinuity_sets(2, staircase)
        assert rd.is_empty and ld.is_empty and d.is_empty

    def test_act_at_jump_hits_whole_atom(self):
        space, _ = three_atom_space()
        field = field_with_jump_on(space, 0)
        f = Act(space, 1, (0.5, 0, 0))
        rd, ld, d = field.discontinuity_sets(1, f)
        assert d.names == ("x",)
        assert ld.names == ("x",)       # value above the left limit
        assert rd.is_empty              # right limit equals the value

    def test_act_avoiding_jumps_is_clean(self):
        space, _ = three_atom_space()
        field = field_with_jump_on(space, 0)
        f = Act(space, 1, (0.25, 0.5, 0.5))  # 0.5 sits on identity atoms only
        rd, ld, d = field.discontinuity_sets(1, f)
        assert d.is_empty

    def test_agrees_with_limit_oracle(self):
        # membership in the two-sided set matches the brute-force limit gap
        space, _ = three_atom_space()
        field = field_with_jump_on(space, 0)
        for x in (0.5, 0.25, 0.75, 0.0):
            f = Act.constant(space, 1, x)
            _, _, d = field.discontinuity_sets(1, f)
            gap = limit_gap(JUMPY, x)
            assert (0 in d.members) == (gap > 1e-3)


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
    """The curves' cached evaluators, closures, stay out of the pickled
    state: an evaluated representation round-trips, and its copy evaluates
    as the original does."""
    rng = random.Random(3)
    rep = random_representation(rng, n_times=3, kinds=("pl", "exp"))
    f = random_act(rng, rep.space, 2)
    want = rep.field.eval(2, f)
    copy = pickle.loads(pickle.dumps(rep))
    assert copy == rep
    assert bits(copy.field.eval(2, f)) == bits(want)
