"""Representation engine: V-functionals, certainty equivalents, verdicts,
semigroup identity, time consistency, discount and numeraire transforms."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from itpref import (
    Act,
    Event,
    ExponentialCurve,
    FilteredSpace,
    IdentityCurve,
    InvariantError,
    LinearCurve,
    PreconditionError,
    ProbabilityMeasure,
    RangeError,
    Representation,
    UtilityField,
    cce,
    compare,
    conditional_expectation,
    density_process,
    discount_transform,
    expected_utility_profile,
    numeraire_transform,
    semigroup_residual,
    time_consistency_check,
)
from itpref.apps import villa_scenario
from itpref.sampling import (
    margin_guarded_pair,
    random_act,
    random_equivalent_measure,
    random_representation,
    scaled_clone,
)

from conftest import identity_rep


def exp_rep(space: FilteredSpace, P: ProbabilityMeasure, a: float = 1.0) -> Representation:
    rows = [[ExponentialCurve(a)] * space.n_atoms(i) for i in range(space.n_times)]
    return Representation(space, P, UtilityField.from_atom_curves(space, rows))


def exp_cce_oracle(P: ProbabilityMeasure, f: Act, s: int, a: float = 1.0) -> list[float]:
    """Independent closed form: -(1/a) ln E[e^{-a f} | F_s], atom by atom."""
    space = P.space
    out = []
    for k in range(space.n_atoms(s)):
        members = space.atom_members(s, k)
        mass = P.mass(members)
        if mass == 0:
            out.append(0.0)
            continue
        mean = sum(P.weights[m] * math.exp(-a * float(f.values[m])) for m in members) / mass
        out.append(-math.log(mean) / a)
    return out


class TestVFunctional:
    def test_identity_is_conditional_expectation(self, four_state_identity_rep, staircase):
        got = expected_utility_profile(four_state_identity_rep, 1, 2, staircase)
        want = conditional_expectation(
            four_state_identity_rep.space, four_state_identity_rep.P, staircase, 1
        )
        assert got.values == want.values

    def test_localization(self, four_state_identity_rep, staircase):
        # V(f 1_A) = V(f) 1_A for A known at the conditioning time
        space = four_state_identity_rep.space
        A = Event.of_states(space, ("w1", "w2"), time_index=1)
        lhs = expected_utility_profile(four_state_identity_rep, 1, 2, staircase.restrict(A))
        rhs = expected_utility_profile(four_state_identity_rep, 1, 2, staircase).restrict(A)
        assert lhs.sup_dist(rhs) < 1e-12

    def test_localization_nonlinear(self):
        rng = random.Random(3)
        rep = random_representation(rng, n_times=3)
        space = rep.space
        f = random_act(rng, space, 2)
        for k in range(space.n_atoms(1)):
            A = space.atom_event(1, k)
            lhs = expected_utility_profile(rep, 1, 2, f.restrict(A))
            rhs = expected_utility_profile(rep, 1, 2, f).restrict(A)
            assert lhs.sup_dist(rhs, rep.P) < 1e-12

    def test_exponential_two_branches(self, two_branch_space):
        P = ProbabilityMeasure(two_branch_space, (Fraction(1, 2), Fraction(1, 2)))
        rep = exp_rep(two_branch_space, P)
        f = Act(two_branch_space, 1, (0.0, math.log(2)))
        got = expected_utility_profile(rep, 0, 1, f)
        assert got.values[0] == pytest.approx(0.25, abs=1e-15)

    def test_overflow_on_a_null_atom_is_not_evaluated(self, four_state_space):
        """Only positive atoms are valued: a time-2 utility that overflows on
        the null time-1 atom {w3,w4} leaves it at the flagged 0, while the
        same overflow inside a positive atom still raises."""
        space = four_state_space
        P = ProbabilityMeasure(space, (Fraction(1, 2), Fraction(1, 2), 0, 0))
        steep = LinearCurve(1e308)
        rows = [[IdentityCurve()], [IdentityCurve()] * 2, [IdentityCurve()] * 2 + [steep] * 2]
        rep = Representation(space, P, UtilityField.from_atom_curves(space, rows))
        f = Act(space, 2, (1, 3, 10.0, 10.0))
        got = expected_utility_profile(rep, 1, 2, f)
        assert got.values == (2, 2, 0, 0) and got.null_fill == frozenset({2, 3})
        assert compare(rep, 1, 2, Act.constant(space, 1, 2), f).tag == "equiv"
        with pytest.raises(InvariantError, match="act values must be finite"):
            expected_utility_profile(rep, 0, 2, f)


class TestCCE:
    def test_identity_matches_conditional_expectation_exactly(self):
        rng = random.Random(11)
        for _ in range(25):
            rep = random_representation(rng, kinds=("identity",))
            space = rep.space
            t = space.last_index
            f = random_act(rng, space, t)
            for s in range(t):
                got = cce(rep, s, t, f)
                want = conditional_expectation(space, rep.P, f, s)
                assert got.values == want.values  # bitwise, no tolerance

    def test_exponential_closed_form(self, two_branch_space):
        P = ProbabilityMeasure(two_branch_space, (Fraction(1, 2), Fraction(1, 2)))
        rep = exp_rep(two_branch_space, P)
        f = Act(two_branch_space, 1, (0.0, math.log(2)))
        got = cce(rep, 0, 1, f)
        assert got.values[0] == pytest.approx(-math.log(0.75), abs=1e-12)
        assert got.values[0] == pytest.approx(0.287682, abs=1e-6)

    def test_villa_time0_value_exact(self):
        spec = villa_scenario("paper-stated")
        rep = spec.representation()
        got = cce(rep, 0, 1, spec.acts["villa_t1"])
        assert got.values[0] == Fraction(1_099_900)

    def test_defining_property(self):
        rng = random.Random(13)
        for _ in range(25):
            rep = random_representation(rng)
            space = rep.space
            t = space.last_index
            f = random_act(rng, space, t)
            for s in range(t):
                c = cce(rep, s, t, f)
                u_c = rep.field.eval(s, c)
                target = conditional_expectation(space, rep.P, rep.field.eval(t, f), s)
                assert u_c.sup_dist(target, rep.P) < 1e-9

    def test_null_atoms_filled_and_flagged(self, four_state_space):
        P = ProbabilityMeasure(four_state_space, (Fraction(1, 2), Fraction(1, 2), 0, 0))
        rep = identity_rep(four_state_space, P)
        f = Act(four_state_space, 2, (1, 3, 5, 7))
        got = cce(rep, 1, 2, f)
        assert got.values == (2, 2, 0, 0)
        assert got.null_fill == frozenset({2, 3})

    def test_range_error_names_bound_and_atom(self, two_branch_space):
        P = ProbabilityMeasure(two_branch_space, (Fraction(1, 2), Fraction(1, 2)))
        field = UtilityField.from_atom_curves(
            two_branch_space, [[ExponentialCurve(1.0)], [IdentityCurve()] * 2]
        )
        rep = Representation(two_branch_space, P, field)
        with pytest.raises(RangeError, match="exp"):
            cce(rep, 0, 1, Act.constant(two_branch_space, 1, 5))

    def test_time_order_required(self, four_state_identity_rep, staircase):
        with pytest.raises(PreconditionError):
            cce(four_state_identity_rep, 2, 2, staircase)


class TestCompare:
    def test_cce_is_equivalent(self):
        rng = random.Random(17)
        for _ in range(20):
            rep = random_representation(rng)
            t = rep.space.last_index
            f = random_act(rng, rep.space, t)
            g = cce(rep, 0, t, f)
            assert compare(rep, 0, t, g, f).tag == "equiv"

    def test_shifted_cce_strictly_preferred(self):
        rng = random.Random(19)
        for _ in range(20):
            rep = random_representation(rng)
            t = rep.space.last_index
            f = random_act(rng, rep.space, t)
            g = cce(rep, 0, t, f).shift(1)
            verdict = compare(rep, 0, t, g, f)
            assert verdict.tag == "succeq"
            assert verdict.tri.C.is_empty

    def test_villa_cash_against_terminal_villa(self):
        spec = villa_scenario()
        rep = spec.representation()
        assert compare(rep, 0, 2, spec.acts["cash"], spec.acts["villa_t2"]).tag == "preceq"

    def test_tri_partition_totality(self):
        rng = random.Random(23)
        for _ in range(30):
            rep = random_representation(rng)
            s, t, g, f, _ = margin_guarded_pair(rng, rep, margin=1e-7)
            verdict = compare(rep, s, t, g, f)
            covered = (
                verdict.tri.A.members | verdict.tri.B.members | verdict.tri.C.members
            )
            positive = {
                m
                for k in rep.P.positive_atoms(s)
                for m in rep.space.atom_members(s, k)
            }
            assert positive <= covered
            assert rep.P.mass(covered) == pytest.approx(1.0, abs=1e-12)

    def test_verdict_monotone_in_g(self):
        rng = random.Random(29)
        for _ in range(30):
            rep = random_representation(rng)
            s, t, g, f, _ = margin_guarded_pair(rng, rep)
            before = compare(rep, s, t, g, f)
            k = rng.choice(rep.P.positive_atoms(s))
            bump = Act.from_atom_values(
                rep.space,
                s,
                [0.5 if j == k else 0 for j in range(rep.space.n_atoms(s))],
            )
            after = compare(rep, s, t, g.plus(bump), f)
            assert before.tri.B.members <= after.tri.B.members
            assert after.tri.C.members <= before.tri.C.members

    def test_equivalents_agree_up_to_tolerance(self, four_state_identity_rep, staircase):
        rep = four_state_identity_rep
        tol = 1e-9
        g1 = cce(rep, 1, 2, staircase)
        g2 = g1.shift(tol / 2)
        assert compare(rep, 1, 2, g1, staircase, tol).tag == "equiv"
        assert compare(rep, 1, 2, g2, staircase, tol).tag == "equiv"
        assert g1.sup_dist(g2, rep.P) <= tol

    def test_equivalents_agree_only_up_to_null_events(self, four_state_space):
        # two acts both equivalent to f may differ arbitrarily on the null
        # branch and still carry the same verdict
        P = ProbabilityMeasure(four_state_space, (Fraction(1, 2), Fraction(1, 2), 0, 0))
        rep = identity_rep(four_state_space, P)
        f = Act(four_state_space, 2, (1, 3, 5, 7))
        g1 = cce(rep, 1, 2, f)
        g2 = Act.from_atom_values(four_state_space, 1, [g1.value_on_atom(0), 999])
        assert compare(rep, 1, 2, g1, f).tag == "equiv"
        assert compare(rep, 1, 2, g2, f).tag == "equiv"
        assert g1.sup_dist(g2, rep.P) <= 1e-9      # agree on positive states
        assert g1.sup_dist(g2) > 1                 # wildly apart on the null atom


class TestSemigroup:
    def test_identity_exact_zero(self, four_state_space):
        # rational weights and payoffs: the tower property is exact, so the
        # two evaluation paths agree bitwise
        rng = random.Random(31)
        for _ in range(10):
            raw = [1 + rng.randrange(20) for _ in range(4)]
            P = ProbabilityMeasure(
                four_state_space, tuple(Fraction(w, sum(raw)) for w in raw)
            )
            rep = identity_rep(four_state_space, P)
            f = Act(
                four_state_space, 2,
                tuple(Fraction(rng.randrange(-8, 9), 4) for _ in range(4)),
            )
            assert semigroup_residual(rep, 0, 1, 2, f) == 0.0

    def test_exponential_nesting(self, four_state_space):
        P = ProbabilityMeasure(
            four_state_space,
            (Fraction(1, 10), Fraction(2, 10), Fraction(3, 10), Fraction(4, 10)),
        )
        rep = exp_rep(four_state_space, P)
        rng = random.Random(37)
        for _ in range(20):
            f = random_act(rng, four_state_space, 2)
            assert semigroup_residual(rep, 0, 1, 2, f) <= 2e-12

    def test_exponential_cce_matches_log_form(self, four_state_space):
        P = ProbabilityMeasure(
            four_state_space,
            (Fraction(1, 10), Fraction(2, 10), Fraction(3, 10), Fraction(4, 10)),
        )
        rep = exp_rep(four_state_space, P)
        rng = random.Random(38)
        for _ in range(20):
            f = random_act(rng, four_state_space, 2)
            got = cce(rep, 1, 2, f)
            want = exp_cce_oracle(P, f, 1)
            for k in range(four_state_space.n_atoms(1)):
                assert got.value_on_atom(k) == pytest.approx(want[k], abs=1e-12)

    def test_random_piecewise_linear_tree(self):
        rng = random.Random(41)
        for _ in range(15):
            rep = random_representation(rng, n_times=3, kinds=("pl",))
            f = random_act(rng, rep.space, 2)
            assert semigroup_residual(rep, 0, 1, 2, f) <= 1e-8

    def test_requires_ordered_times(self, four_state_identity_rep, staircase):
        with pytest.raises(PreconditionError):
            semigroup_residual(four_state_identity_rep, 0, 2, 1, staircase)


class TestTimeConsistency:
    def test_identity_shifted(self, four_state_identity_rep, staircase):
        rep = four_state_identity_rep
        g = conditional_expectation(rep.space, rep.P, staircase, 0).shift(1)
        assert time_consistency_check(rep, 0, 1, 2, g, staircase)

    def test_random_representations(self):
        rng = random.Random(43)
        for _ in range(40):
            rep = random_representation(rng, n_times=3)
            f = random_act(rng, rep.space, 2)
            sign = rng.choice((-1, 1))
            g = cce(rep, 0, 2, f).shift(sign * 0.5)
            assert time_consistency_check(rep, 0, 1, 2, g, f)

    def test_mixed_verdict_rejected(self):
        rng = random.Random(47)
        rep = random_representation(rng, n_times=3, min_first_split=3)
        # force a mixed verdict: above the equivalent on one atom, below on another
        f = random_act(rng, rep.space, 2)
        base = cce(rep, 0, 2, f)
        bump = Act.from_atom_values(rep.space, 0, [0])  # placeholder, rebuilt below
        while True:
            t = rep.space.last_index
            f = random_act(rng, rep.space, t)
            g = cce(rep, 0, t, f)
            verdict = compare(rep, 0, t, g.shift(0.25), f)
            break
        # a genuinely mixed pair needs per-atom signs to differ; build directly
        space = rep.space
        s = 1
        f = random_act(rng, space, space.last_index)
        g = cce(rep, s, space.last_index, f)
        offsets = [0.5 if k == 0 else -0.5 for k in range(space.n_atoms(s))]
        g_mixed = g.plus(Act.from_atom_values(space, s, offsets))
        if compare(rep, s, space.last_index, g_mixed, f).tag == "mixed":
            with pytest.raises(PreconditionError):
                time_consistency_check(rep, s, 1 + s, space.last_index, g_mixed, f)

    def test_corrupted_field_breaks_consistency(self):
        """Non-measurable curve assignment inside a time-1 atom: the nested
        path evaluates through one curve and averages through another, so the
        verdict flips between the direct and nested comparisons."""
        space = FilteredSpace.build(
            ("a", "b", "c"),
            (0, 1, 2),
            [[["a", "b", "c"]], [["a", "b"], ["c"]], [["a"], ["b"], ["c"]]],
        )
        P = ProbabilityMeasure(space, (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)))
        corrupted = UtilityField.from_state_curves(
            space,
            [
                [IdentityCurve()] * 3,
                [IdentityCurve(), LinearCurve(9), IdentityCurve()],
                [IdentityCurve()] * 3,
            ],
            validate_measurability=False,
        )
        rep = Representation(space, P, corrupted)
        g = Act.constant(space, 0, 1)
        f = Act(space, 2, (1, 1, 0))
        assert compare(rep, 0, 2, g, f).tag == "succeq"
        assert not time_consistency_check(rep, 0, 1, 2, g, f)


class TestDiscount:
    def test_same_measure_gives_unit_density(self):
        rng = random.Random(53)
        rep = random_representation(rng)
        result = discount_transform(rep, rep.P, n_pairs=40, seed=1)
        assert result.verified and result.flips == 0
        for beta in result.betas:
            assert all(
                beta.values[m] == 1
                for k in rep.P.positive_atoms(beta.time_index)
                for m in rep.space.atom_members(beta.time_index, k)
            )

    def test_two_state_terminal_density(self, two_branch_space):
        P = ProbabilityMeasure(two_branch_space, (Fraction(1, 2), Fraction(1, 2)))
        P_star = ProbabilityMeasure(two_branch_space, (Fraction(1, 4), Fraction(3, 4)))
        rep = identity_rep(two_branch_space, P)
        betas = density_process(rep, P_star)
        assert betas[1].values == (2, Fraction(2, 3))
        assert betas[0].values == (1, 1)

    def test_random_reweighting_preserves_verdicts(self):
        rng = random.Random(59)
        rep = random_representation(rng, n_times=3)
        P_star = random_equivalent_measure(rng, rep.P)
        result = discount_transform(rep, P_star, n_pairs=100, seed=7)
        assert result.verified and result.flips == 0

    def test_non_equivalent_rejected(self, four_state_space, four_state_measure):
        rep = identity_rep(four_state_space, four_state_measure)
        bad = ProbabilityMeasure(
            four_state_space, (Fraction(1, 2), Fraction(1, 2), 0, 0)
        )
        with pytest.raises(InvariantError, match="equivalent"):
            discount_transform(rep, bad)

    @pytest.mark.parametrize("n_pairs", [0, -3])
    def test_pair_count_below_one_rejected(self, four_state_identity_rep, n_pairs):
        rep = four_state_identity_rep
        with pytest.raises(ValueError, match="at least one pair"):
            discount_transform(rep, rep.P, n_pairs=n_pairs)


class TestNumeraire:
    def test_unit_numeraire_is_identity_transform(self):
        rng = random.Random(61)
        rep = random_representation(rng)
        ones = [Act.constant(rep.space, i, 1) for i in range(rep.space.n_times)]
        result = numeraire_transform(rep, ones, n_pairs=30, seed=2)
        assert result.verified
        assert result.rep.field.curves_by_state == rep.field.curves_by_state

    def test_constant_doubling(self, two_branch_space):
        P = ProbabilityMeasure(two_branch_space, (Fraction(1, 2), Fraction(1, 2)))
        rep = identity_rep(two_branch_space, P)
        twos = [Act.constant(two_branch_space, i, 2) for i in range(2)]
        result = numeraire_transform(rep, twos, n_pairs=30, seed=3)
        assert result.verified
        assert result.rep.field.curve_on_atom(1, 0)(5) == 10

    def test_random_numeraire_on_villa_tree(self):
        spec = villa_scenario()
        rep = spec.representation()
        rng = random.Random(67)
        numeraire = [
            Act.from_atom_values(
                rep.space, i,
                [0.5 + rng.random() for _ in range(rep.space.n_atoms(i))],
            )
            for i in range(rep.space.n_times)
        ]
        result = numeraire_transform(rep, numeraire, n_pairs=100, seed=5)
        assert result.verified and result.flips == 0

    def test_nonpositive_numeraire_rejected(self, four_state_identity_rep):
        space = four_state_identity_rep.space
        bad = [Act.constant(space, i, 1) for i in range(space.n_times)]
        bad[1] = Act.constant(space, 1, 0)
        with pytest.raises(InvariantError, match="positive"):
            numeraire_transform(four_state_identity_rep, bad)

    @pytest.mark.parametrize("n_pairs", [0, -3])
    def test_pair_count_below_one_rejected(self, four_state_identity_rep, n_pairs):
        space = four_state_identity_rep.space
        ones = [Act.constant(space, i, 1) for i in range(space.n_times)]
        with pytest.raises(ValueError, match="at least one pair"):
            numeraire_transform(four_state_identity_rep, ones, n_pairs=n_pairs)


class TestScaleInvariance:
    def test_delta_rescaling_preserves_all_verdicts(self):
        rng = random.Random(71)
        for _ in range(10):
            rep = random_representation(rng)
            clone = scaled_clone(rep, random_equivalent_measure(rng, rep.P))
            for _ in range(10):
                s, t, g, f, _ = margin_guarded_pair(rng, rep)
                a = compare(rep, s, t, g, f)
                b = compare(clone, s, t, g, f)
                assert a.tag == b.tag
                assert a.tri == b.tri
