"""Representation engine: V-functionals, certainty equivalents, verdicts,
semigroup identity, time consistency, discount and numeraire transforms."""

from __future__ import annotations

import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from itpref import (
    Act,
    Event,
    ExponentialCurve,
    FilteredSpace,
    GapError,
    IdentityCurve,
    InvariantError,
    LinearCurve,
    PiecewiseLinearCurve,
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
from itpref.apps import dpp_scenario, forward_scenario, random8_scenario, villa_scenario
from itpref.curves import INVERT_TOL
from itpref.engine import _discounted, _flips, _random_pair, classify, expected_utility, margins
from itpref.sampling import (
    ACT_HULL,
    MAX_DRAWS,
    margin_guarded_pair,
    random_act,
    random_equivalent_measure,
    random_measure,
    random_representation,
    scaled_clone,
    verdict_agreement,
)

from conftest import bits, drawn_act, drawn_representation, identity_rep


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

    def test_gap_error_names_value_curve_and_atom(self, four_state_space, four_state_measure):
        jump = PiecewiseLinearCurve.from_points([(0, 0), (0.5, 0.4, 0.9, 0.9), (1, 1.4)])
        rows = [[IdentityCurve()], [jump, IdentityCurve()], [IdentityCurve()] * 4]
        field = UtilityField.from_atom_curves(four_state_space, rows)
        rep = Representation(four_state_space, four_state_measure, field)
        with pytest.raises(GapError, match=r"utility 0\.6 falls in a jump gap of .* on atom \{w1,w2\}"):
            cce(rep, 1, 2, Act.constant(four_state_space, 2, 0.6))

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
            bumped = Act.from_atom_values(
                rep.space, s, [v + 0.5 if j == k else v for j, v in enumerate(g.atom_values())]
            )
            after = compare(rep, s, t, bumped, f)
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
        # above the equivalent on the first time-1 atom, below it on the others
        space = rep.space
        s, t = 1, space.last_index
        f = random_act(rng, space, t)
        g = cce(rep, s, t, f)
        g_mixed = Act.from_atom_values(
            space, s, [v + 0.5 if k == 0 else v - 0.5 for k, v in enumerate(g.atom_values())]
        )
        assert compare(rep, s, t, g_mixed, f).tag == "mixed"
        with pytest.raises(PreconditionError):
            time_consistency_check(rep, s, 1 + s, t, g_mixed, f)

    def test_corrupted_field_breaks_consistency(self):
        """Non-measurable curve assignment inside a time-1 atom: the nested
        path evaluates through one curve and averages through another, so the
        verdict flips between the direct and nested comparisons."""

        class CorruptedField(UtilityField):
            """Identity curves, except that the per-state sums read state b's
            time-1 curve as LinearCurve(9): not adapted."""

            @property
            def evaluators_by_state(self):
                rows = [list(row) for row in UtilityField.evaluators_by_state.func(self)]
                rows[1][1] = LinearCurve(9).evaluator
                return tuple(map(tuple, rows))

        space = FilteredSpace.build(
            ("a", "b", "c"),
            (0, 1, 2),
            [[["a", "b", "c"]], [["a", "b"], ["c"]], [["a"], ["b"], ["c"]]],
        )
        P = ProbabilityMeasure(space, (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)))
        rows = [[IdentityCurve()] * space.n_atoms(i) for i in range(space.n_times)]
        rep = Representation(space, P, CorruptedField.from_atom_curves(space, rows))
        g = Act.constant(space, 0, 1)
        f = Act(space, 2, (1, 1, 0))
        assert compare(rep, 0, 2, g, f).tag == "succeq"
        assert not time_consistency_check(rep, 0, 1, 2, g, f)

    def test_time_indices_outside_the_space_raise_as_compare_does(self, four_state_identity_rep, staircase):
        rep = four_state_identity_rep
        g = Act.constant(rep.space, 0, 1)
        for s, t, v in ((-1, 0, 1), (-2, 0, 2), (0, 1, 3), (1, 2, 5)):
            with pytest.raises(PreconditionError) as direct:
                compare(rep, s, v, g, staircase)
            with pytest.raises(PreconditionError, match=r"need time indices 0 <= s < t, got s=-?\d+, t=\d+") as got:
                time_consistency_check(rep, s, t, v, g, staircase)
            assert str(got.value) == str(direct.value) == f"need time indices 0 <= s < t, got s={s}, t={v}"

    def test_a_margin_that_is_not_finite_raises_as_compare_does(self):
        space = FilteredSpace.build(("a", "b"), (0, 1, 2), [[["a", "b"]], [["a", "b"]], [["a"], ["b"]]])
        P = ProbabilityMeasure.uniform(space)
        # the time-0 curve saturates to -inf below -700
        rows = [[ExponentialCurve(1.0)], [IdentityCurve()], [IdentityCurve(), IdentityCurve()]]
        rep = Representation(space, P, UtilityField.from_atom_curves(space, rows))
        g, f = Act.constant(space, 0, -800), Act(space, 2, (1, 2))
        for check in (lambda: compare(rep, 0, 2, g, f), lambda: time_consistency_check(rep, 0, 1, 2, g, f)):
            with pytest.raises(InvariantError, match="act values must be finite"):
                check()


def two_compare_time_consistency(rep, s, t, v, g, f, tol):
    """``time_consistency_check`` as it read the tags of two ``compare``
    verdicts."""
    if not s < t < v:
        raise PreconditionError(f"need s < t < v, got {s}, {t}, {v}")
    before = compare(rep, s, v, g, f, tol)
    if before.tag == "mixed":
        raise PreconditionError("time-consistency check needs a one-sided verdict")
    h = cce(rep, t, v, f)
    after = compare(rep, s, t, g, h, tol)
    return after.tag == before.tag


def outcome(call):
    """What ``call()`` returns, or the type and message of what it raises."""
    try:
        return call()
    except (PreconditionError, InvariantError, RangeError) as exc:
        return type(exc), str(exc)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), exact=st.booleans(), null=st.booleans())
def test_time_consistency_equals_the_two_compare_tags(seed, exact, null):
    """On float and exact representations, with and without a null atom:
    one-sided, tied and mixed verdicts, and the equivalent shifted both
    ways."""
    rng = random.Random(seed)
    rep = drawn_representation(rng, 4, exact, null)
    space = rep.space
    for s in range(space.last_index - 1):
        for v in range(s + 2, space.n_times):
            f = drawn_act(rng, space, rng.randint(0, v), exact)
            h = cce(rep, s, v, f)
            shift = Fraction(1, 4) if exact else 0.25
            for g in (drawn_act(rng, space, rng.randint(0, s), exact), h, h.shift(shift), h.shift(-shift)):
                for t in range(s + 1, v):
                    for tol in (1e-9, 0.0, 0.3):
                        want = outcome(lambda: two_compare_time_consistency(rep, s, t, v, g, f, tol))
                        assert outcome(lambda: time_consistency_check(rep, s, t, v, g, f, tol)) == want


def three_positive_atoms():
    """A measure with three positive time-1 atoms."""
    space = FilteredSpace.build(("x", "y", "z"), (0, 1), [[["x", "y", "z"]], [["x"], ["y"], ["z"]]])
    return ProbabilityMeasure(space, (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)))


def float_tol_tags(P, s, margin, tol):
    """``classify``'s tag as each margin met the float ``tol`` itself."""
    b = c = False
    for k in P.positive_atoms(s):
        d = margin[k]
        if abs(d) <= tol:
            continue
        if d > tol:
            b = True
        else:
            c = True
    return ("mixed" if c else "succeq") if b else ("preceq" if c else "equiv")


class TestClassifyExactMargins:
    @pytest.mark.parametrize("tol", [1e-9, 0.3, 2.0**-30, 1e-300])
    def test_the_band_edges_are_the_exact_tol(self, tol):
        P = three_positive_atoms()
        edge, eps = Fraction(tol), Fraction(1, 10**400)
        assert classify(P, 1, [edge, -edge, Fraction(0)], tol) == ("equiv", [0, 1, 2], [], [])
        assert classify(P, 1, [edge + eps, edge, -edge], tol) == ("succeq", [1, 2], [0], [])
        assert classify(P, 1, [-edge, -edge - eps, edge], tol) == ("preceq", [0, 2], [], [1])
        assert classify(P, 1, [edge + eps, Fraction(0), -edge - eps], tol) == ("mixed", [1], [0], [2])

    @pytest.mark.parametrize("tol", [0, 0.0, 1e-9, math.inf, Fraction(1, 3)])
    def test_exact_margins_get_the_tags_the_float_tol_gives(self, tol):
        P = three_positive_atoms()
        values = [Fraction(0), Fraction(1, 10**9), Fraction(-1, 10**9), Fraction(1, 3), Fraction(-1, 3),
                  Fraction(10**400), Fraction(-(10**400)), 0.5, 0]
        rng = random.Random(5)
        for _ in range(200):
            margin = [rng.choice(values) for _ in range(3)]
            assert classify(P, 1, margin, tol)[0] == float_tol_tags(P, 1, margin, tol), margin

    def test_a_decimal_margin_meets_the_binary_tol(self):
        P = three_positive_atoms()
        # the float 1e-9 lies just above 1/10**9
        assert classify(P, 1, [Fraction(1, 10**9)] * 3, 1e-9)[0] == "equiv"
        assert classify(P, 1, [Fraction(1e-9) + Fraction(1, 10**400)] * 3, 1e-9)[0] == "succeq"


class TestForeignSpace:
    """Acts and measures on another space are refused where they enter, not
    read state by state against this one: ``a`` has 7 states, ``b`` 8."""

    @pytest.fixture
    def reps(self):
        a = random_representation(random.Random(3), n_times=3)
        b = random_representation(random.Random(11), n_times=3)
        assert a.space.n_states != b.space.n_states
        return a, b

    def test_compare_refuses_foreign_acts(self, reps):
        a, b = reps
        rng = random.Random(1)
        g, f = random_act(rng, b.space, 0), random_act(rng, b.space, 1)
        with pytest.raises(InvariantError, match="another filtered space"):
            compare(a, 0, 1, g, f)
        with pytest.raises(InvariantError, match="another filtered space"):
            compare(a, 0, 1, random_act(rng, a.space, 0), f)

    def test_cce_refuses_a_foreign_act(self, reps):
        a, b = reps
        with pytest.raises(InvariantError, match="another filtered space"):
            cce(a, 0, 2, random_act(random.Random(1), b.space, 2))

    def test_density_process_refuses_a_foreign_measure(self, reps):
        a, b = reps
        with pytest.raises(InvariantError, match="another filtered space"):
            density_process(a, b.P)
        with pytest.raises(InvariantError, match="another filtered space"):
            discount_transform(a, b.P, n_pairs=5)

    def test_numeraire_transform_refuses_a_foreign_numeraire(self, reps):
        a, b = reps
        numeraire = [Act.constant(b.space, i, 1.5) for i in range(b.space.n_times)]
        with pytest.raises(InvariantError, match="another filtered space"):
            numeraire_transform(a, numeraire, n_pairs=5)

    def test_time_consistency_check_refuses_foreign_acts(self, reps):
        a, b = reps
        g, f = Act.constant(b.space, 0, 5.0), Act.constant(b.space, 2, 0.3)
        with pytest.raises(InvariantError, match="another filtered space"):
            time_consistency_check(a, 0, 1, 2, g, f)

    def test_an_equal_space_is_accepted(self, reps):
        a, _ = reps
        twin = pickle.loads(pickle.dumps(a.space))
        assert twin == a.space and twin is not a.space
        f = random_act(random.Random(1), a.space, 2)
        g = Act(twin, 2, f.values)
        assert bits(cce(a, 1, 2, g)) == bits(cce(a, 1, 2, f))


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

    def test_numeraire_known_before_its_time(self):
        """A numeraire given at an earlier time than its label scales each
        atom's curve by its value on that atom."""
        rng = random.Random(1)
        rep = random_representation(rng, n_times=3, min_first_split=3)
        space = rep.space
        early = Act.from_atom_values(space, 1, [1.5 + k for k in range(space.n_atoms(1))])
        numeraire = [Act.constant(space, 0, 1), early, early]
        result = numeraire_transform(rep, numeraire, n_pairs=50, seed=4)
        assert result.verified
        for k in range(space.n_atoms(2)):
            b = early.values[space.atom_members(2, k)[0]]
            assert result.rep.field.curve_on_atom(2, k)(0.5) == rep.field.curve_on_atom(2, k)(0.5 * b)

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
    def test_non_equivalent_measure_rejected(self, four_state_space, four_state_measure):
        """A clone needs the density of P with respect to P*: a P* with a
        null state that P charges, or charging a state that P does not, is
        refused either way round."""
        rep = identity_rep(four_state_space, four_state_measure)
        half = ProbabilityMeasure(four_state_space, (Fraction(1, 2), Fraction(1, 2), 0, 0))
        for P, P_star in ((rep.P, half), (half, rep.P)):
            with pytest.raises(InvariantError, match="equivalent"):
                scaled_clone(Representation(four_state_space, P, rep.field), P_star)

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


def profile_verdict(rep, s, t, g, f, tol):
    """(tag, (A, B, C) members, margin) as ``compare`` built them from two
    per-state acts: u(s, g) from ``UtilityField.eval`` minus
    ``expected_utility_profile``, each positive time-s atom tagged by the
    margin at its first state."""
    margin = Act(rep.space, s, tuple(
        a - b for a, b in zip(rep.field.eval(s, g).values, expected_utility_profile(rep, s, t, f).values)
    ))
    part = rep.space.partitions[s]
    a, b, c = [], [], []
    for k in rep.P.positive_atoms(s):
        d = margin.values[part[k][0]]
        if abs(d) <= tol:
            a.append(k)
        elif d > tol:
            b.append(k)
        else:
            c.append(k)
    tag = ("mixed" if c else "succeq") if b else ("preceq" if c else "equiv")
    return tag, tuple(frozenset(x for k in ks for x in part[k]) for ks in (a, b, c)), margin


def profile_cce(rep, s, t, f):
    """``cce`` as it inverted ``expected_utility_profile`` on each positive
    time-s atom."""
    target = expected_utility_profile(rep, s, t, f)
    per_atom = [0] * rep.space.n_atoms(s)
    for k in rep.P.positive_atoms(s):
        per_atom[k] = rep.field.curve_on_atom(s, k).invert_detailed(target.value_on_atom(k), INVERT_TOL).x
    return Act.from_atom_values(rep.space, s, per_atom, rep.P.null_atoms(s))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), exact=st.booleans(), null=st.booleans())
def test_compare_and_cce_equal_the_profile_construction(seed, exact, null):
    """``compare``'s tag, tri-partition and margin (values, their types and
    time index), and ``cce``'s act, equal bit for bit those built from
    ``expected_utility_profile``: float and exact representations, with and
    without a null atom, g at or before s and exact ties g = cce(f)."""
    rng = random.Random(seed)
    rep = drawn_representation(rng, 4, exact, null)
    space = rep.space
    for s in range(space.last_index):
        for t in range(s + 1, space.n_times):
            f = drawn_act(rng, space, rng.randint(0, t), exact)
            h = cce(rep, s, t, f)
            assert bits(h) == bits(profile_cce(rep, s, t, f))
            for g in (drawn_act(rng, space, rng.randint(0, s), exact), h):
                for tol in (1e-9, 0.0, 0.3):
                    got = compare(rep, s, t, g, f, tol)
                    tag, members, margin = profile_verdict(rep, s, t, g, f, tol)
                    assert got.tag == tag
                    assert tuple(e.members for e in (got.tri.A, got.tri.B, got.tri.C)) == members
                    assert got.margin.values == margin.values
                    assert [type(v) for v in got.margin.values] == [type(v) for v in margin.values]
                    assert got.margin.time_index == margin.time_index


def whole_act_discount_margin(rep, P_star, betas, s, t, g, f):
    """The discount audit's margins as it built them from per-state acts:
    u(s, g)·beta_s minus E_{P*}[u(t, f)·beta_t | F_s], read at the first
    state of each time-s atom."""
    space = rep.space
    lhs = [u * b for u, b in zip(rep.field.eval(s, g).values, betas[s].values)]
    weighted = Act(space, t, tuple(u * b for u, b in zip(rep.field.eval(t, f).values, betas[t].values)))
    rhs = conditional_expectation(space, P_star, weighted, s).values
    return [lhs[atom[0]] - rhs[atom[0]] for atom in space.partitions[s]]


def assert_discount_margins_match(rep, P_star, rng, n_pairs):
    """On ``n_pairs`` pairs drawn as the audit draws them, ``margins`` on the
    discounted representation (P*, beta u) equal the whole-act discount
    margins bit for bit on every positive atom."""
    betas = density_process(rep, P_star)
    discounted = _discounted(rep, P_star, betas)
    for _ in range(n_pairs):
        s, t, g, f = _random_pair(rng, rep.space)
        got = margins(discounted, s, t, g, f)
        want = whole_act_discount_margin(rep, P_star, betas, s, t, g, f)
        positive = rep.P.positive_atoms(s)
        assert [(type(got[k]), repr(got[k])) for k in positive] == [
            (type(want[k]), repr(want[k])) for k in positive
        ]


def exact_equivalent_measure(rng, P):
    """An equivalent measure with exact ``Fraction`` weights."""
    raw = [rng.randint(1, 9) if w > 0 else 0 for w in P.weights]
    return ProbabilityMeasure(P.space, tuple(Fraction(w, sum(raw)) for w in raw))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), exact=st.booleans(), null=st.booleans())
def test_discount_margins_equal_the_whole_act_construction(seed, exact, null):
    """The discount audit's margins, read by ``margins`` on (P*, beta u),
    equal in value and type the margins of the whole-act construction:
    float and exact representations, with and without a null atom, under
    float and exact equivalent measures."""
    rng = random.Random(seed)
    rep = drawn_representation(rng, 4, exact, null)
    for P_star in (random_equivalent_measure(rng, rep.P), exact_equivalent_measure(rng, rep.P)):
        assert_discount_margins_match(rep, P_star, rng, 50)


def compare_tag_flips(rep, rep_star, n_pairs, seed, tol):
    """``_flips`` as it read the tags of two ``compare`` verdicts per pair."""
    rng = random.Random(seed)
    flips = 0
    for _ in range(n_pairs):
        s, t, g, f = _random_pair(rng, rep.space)
        flips += compare(rep_star, s, t, g, f, tol).tag != compare(rep, s, t, g, f, tol).tag
    return flips


def test_flips_count_the_pairs_whose_compare_tags_differ():
    """Against a representation under another measure, so that tags do
    differ: float and exact, with and without a null atom."""
    total = 0
    for seed in range(4):
        for exact in (False, True):
            for null in (False, True):
                rng = random.Random(seed)
                rep = drawn_representation(rng, 3, exact, null)
                other = Representation(rep.space, random_measure(rng, rep.space), rep.field)
                for tol in (1e-9, 0.3):
                    got = _flips(rep, other, 30, seed, tol)
                    assert got == compare_tag_flips(rep, other, 30, seed, tol)
                    total += got
    assert total > 0


@pytest.mark.parametrize("build", [villa_scenario, dpp_scenario, forward_scenario, random8_scenario])
def test_discount_margins_on_shipped_scenarios(build):
    """The same bit-for-bit equality on the shipped scenarios."""
    rep = build().representation()
    rng = random.Random(83)
    for P_star in (rep.P, random_equivalent_measure(rng, rep.P), exact_equivalent_measure(rng, rep.P)):
        assert_discount_margins_match(rep, P_star, rng, 100)


def test_discount_margin_must_be_finite(four_state_space, four_state_measure):
    """A margin that overflows raises, as the act validation it replaces did."""
    rep = exp_rep(four_state_space, four_state_measure)
    discounted = _discounted(rep, rep.P, density_process(rep, rep.P))
    g = Act.constant(four_state_space, 0, 0)
    f = Act.constant(four_state_space, 2, -1000.0)
    with pytest.raises(InvariantError, match="^act values must be finite$"):
        margins(discounted, 0, 2, g, f)


def first_state_margins(rep, s, t, g, f):
    """The guard's margins as a dict: u(s, g) - E[u(t, f) | A] keyed by the
    first state of each positive time-s atom A."""
    part, row = rep.space.partitions[s], rep.field.curves_by_state[s]
    return {
        part[k][0]: row[part[k][0]](g.values[part[k][0]]) - expected_utility(rep, s, t, f, k)
        for k in rep.P.positive_atoms(s)
    }


def first_state_guarded_pair(rng, rep, margin=1e-5):
    """``margin_guarded_pair`` drawn and guarded on first-state margins."""
    for _ in range(MAX_DRAWS):
        s, t, g, f = _random_pair(rng, rep.space, ACT_HULL)
        d = first_state_margins(rep, s, t, g, f)
        if all(abs(v) >= margin for v in d.values()):
            return s, t, g, f, d
    raise RuntimeError("could not draw a margin-guarded pair")


def first_state_tag(rep, s, d, tol=1e-9):
    """The tag of first-state margins ``d``, read atom by atom."""
    return classify(rep.P, s, [d.get(atom[0]) for atom in rep.space.partitions[s]], tol)[0]


def first_state_agreement(rep_a, rep_b, n_pairs, seed):
    """``verdict_agreement``'s mismatch count on first-state margins."""
    rng = random.Random(seed)
    mismatches = 0
    for _ in range(n_pairs):
        s, t, g, f, d = first_state_guarded_pair(rng, rep_a)
        mismatches += first_state_tag(rep_a, s, d) != first_state_tag(
            rep_b, s, first_state_margins(rep_b, s, t, g, f)
        )
    return mismatches


@pytest.mark.parametrize("seed", [3, 17, 41, 97])
def test_guarded_draws_and_agreement_match_first_state_margins(seed):
    """``margin_guarded_pair`` draws the pairs, and ``verdict_agreement``
    counts the mismatches, that the first-state margins did, with the same
    margins on every positive atom, also when the second representation
    has a null atom the first does not (a wide guard band rejects draws
    on the positive atoms alone)."""
    rng = random.Random(seed)
    rep_a = random_representation(rng, min_first_split=3)
    space = rep_a.space
    dead = space.atom_members(1, rng.randrange(space.n_atoms(1)))
    rep_b = random_representation(rng, space=space)
    rep_b = Representation(space, random_measure(rng, space, null_states=dead), rep_b.field)
    for rep, margin in [(rep_a, 1e-5), (rep_b, 1e-5), (rep_b, 0.05)]:
        got_rng, want_rng = random.Random(seed), random.Random(seed)
        for _ in range(20):
            *got, d = margin_guarded_pair(got_rng, rep, margin)
            *want, want_d = first_state_guarded_pair(want_rng, rep, margin)
            assert got == want
            part = space.partitions[got[0]]
            assert {part[k][0]: d[k] for k in rep.P.positive_atoms(got[0])} == want_d
        assert got_rng.random() == want_rng.random()
    counts = [first_state_agreement(rep_a, other, 30, seed) for other in (rep_a, rep_b)]
    assert counts[0] == 0
    for other, want in zip((rep_a, rep_b), counts):
        assert verdict_agreement(rep_a, other, 30, seed=seed) == (30, want)
