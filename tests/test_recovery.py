"""Recovery of the representing pair and the relative-uniqueness audit."""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from itpref import (
    DEFAULT_GRID,
    Act,
    ActGrid,
    FilteredSpace,
    IdentityCurve,
    InducedOracle,
    LinearCurve,
    PiecewiseLinearCurve,
    PreferenceOracle,
    ProbabilityMeasure,
    QueryAnswer,
    Representation,
    UtilityField,
    check_relative_uniqueness,
    conditional_expectation,
    indifference_profile,
    recover_representation,
    recover_step0,
    recover_step_i,
)
from itpref.cli import main
from itpref.recovery import RecoveryError
from itpref.apps import villa_scenario
from itpref.controls import flat_segment, three_atom_space, identity_representation
from itpref.sampling import (
    random_equivalent_measure,
    random_representation,
    scaled_clone,
    verdict_agreement,
)

from conftest import identity_rep
from test_engine import exp_rep, exp_cce_oracle


def worked_example_rep() -> Representation:
    """p = (0.2, 0.3, 0.5), u_1 = (x, 2x, 4x), identity initial utility."""
    space, _ = three_atom_space()
    P = ProbabilityMeasure(space, (Fraction(1, 5), Fraction(3, 10), Fraction(1, 2)))
    field = UtilityField.from_atom_curves(
        space, [[IdentityCurve()], [IdentityCurve(), LinearCurve(2), LinearCurve(4)]]
    )
    return Representation(space, P, field)


class LinearOracle(PreferenceOracle):
    """Compares a constant g on A against V_A(f) = sum of c_s f(s) over A's
    states, and answers both ways on every event inside ``indifferent``."""

    def __init__(self, space, c, indifferent=frozenset()):
        super().__init__(space)
        self.c = c
        self.indifferent = frozenset(space.state_index(n) for n in indifferent)

    def query(self, i, g, f, A=None):
        members = range(self.space.n_states) if A is None else A.members
        if self.indifferent and set(members) <= self.indifferent:
            return QueryAnswer(True, True)
        v = sum(self.c[s] * f.values[s] for s in members)
        u = g.values[min(members)]
        return QueryAnswer(u >= v - 1e-12, u <= v + 1e-12)


class AlwaysIndifferentOracle(PreferenceOracle):
    def query(self, i, g, f, A=None):
        return QueryAnswer(True, True)


# recover_representation on random_representation(random.Random(1), n_times=3,
# kinds=("pl",), min_first_split=3), pinned bit for bit: per step, the masses,
# the Debreu residual and each curve's values at its grid anchors.
SEED1_STEPS = (
    (
        (
            0.047157614921537395, 0.728727062909722, 0.2241153221687405,
        ),
        9.249845334124984e-11,
        (
            (
                -1.7278586923097734, -0.7449008498783113, -0.32458147854216884, 0,
                0.3890042671878198, 0.8925983204710422, 1.7025385323955082,
            ),
            (
                -2.164329804721241, -1.3799981115387256, -0.6973247871707392, 0,
                0.352044823327139, 0.8925983204710422, 2.069453573738403,
            ),
            (
                -1.5468402854760752, -0.5172799842844137, -0.2038060326763343, 0,
                0.23746999436343919, 0.8925983204710422, 2.065543683449334,
            ),
        ),
    ),
    (
        (
            0.047157614921537395, 0.01148911570255094, 0.1889532114985308,
            0.1031522187302844, 0.27088314181177364, 0.011225649470707947,
            0.14302372569587418, 0.2241153221687405,
        ),
        1.7717832756503071e-10,
        (
            (
                -1.3574615131577146, -0.7312259845084967, -0.2258431667982104, 0.0,
                0.31650618030554206, 0.796231582324556, 1.1714241176075548,
            ),
            (
                -2.0769264632849938, -1.3778828842906357, -0.8391410964563023, 0.0,
                0.6757231736543996, 0.9166549663592969, 1.7250598094869585,
            ),
            (
                -2.006105557515989, -1.0959452112956494, -0.3087580917323499, 0.0,
                0.25411966680966336, 0.9166549663592969, 1.4552641176696992,
            ),
            (
                -2.4786306791204558, -1.204221095793903, -0.6147990450921667, 0.0,
                0.5140174813128177, 0.9166549663592969, 2.469732070633615,
            ),
            (
                -1.3345700718471887, -0.8785358720035833, -0.366859258784148, 0.0,
                0.34997875055021027, 0.9166549663592969, 1.8589299962194858,
            ),
            (
                -1.6880135212122265, -0.6017938290880601, -0.239354996918128, 0.0,
                0.5410568552422245, 0.9166549663592969, 1.5630458526509377,
            ),
            (
                -1.4371983725409376, -1.0245951366753738, -0.6216025179406521, 0.0,
                0.3368848731286699, 0.9166549663592968, 2.1764750225752594,
            ),
            (
                -1.4861183402798412, -0.6810288957420322, -0.436344631621868, 0.0,
                0.36183201024644895, 0.5321033412372662, 1.7154701371498395,
            ),
        ),
    ),
)
SEED1_QUERIES = 4382
# re-pinned when float oracles began recovering on the grid's float form: only
# the grid with 1/3 moves, 4 of its step entries in their last bits, because
# 1/3 is rounded once; query counts are unchanged
NON_DEFAULT_GRIDS_DIGEST = "cbce3ca05db67c176bf2aa36175fe317b710d40dddff14bf0a7daaf7e999b780"


class TestCCEFromOracle:
    def test_identity_matches_conditional_expectation(self, four_state_space, four_state_measure):
        rep = identity_rep(four_state_space, four_state_measure)
        oracle = InducedOracle(rep, tol=1e-12)
        f = Act(four_state_space, 2, (1, 2, 3, 4))
        got = indifference_profile(oracle, 1, f, tol=1e-10)
        want = conditional_expectation(four_state_space, four_state_measure, f, 1)
        assert got.sup_dist(want) < 1e-9

    def test_exponential_closed_form(self, four_state_space, four_state_measure):
        rep = exp_rep(four_state_space, four_state_measure)
        oracle = InducedOracle(rep, tol=1e-12)
        rng = random.Random(3)
        f = Act(four_state_space, 2, tuple(rng.uniform(-0.9, 0.9) for _ in range(4)))
        got = indifference_profile(oracle, 1, f, tol=1e-10)
        want = exp_cce_oracle(four_state_measure, f, 1)
        for k in range(four_state_space.n_atoms(1)):
            assert got.value_on_atom(k) == pytest.approx(want[k], abs=1e-8)

    def test_villa_time1_values(self):
        # under the stated measure the time-0 equivalent is 1,099,900; the
        # source's 10^6 arises only from its own (arithmetic-weight) variant
        from itpref.apps import villa_t1_value

        spec = villa_scenario("paper-stated")
        oracle = InducedOracle(spec.representation(), tol=1e-6)
        got = indifference_profile(oracle, 0, spec.acts["villa_t1"], tol=1e-4)
        assert got.values[0] == pytest.approx(1_099_900, abs=0.01)
        assert villa_t1_value("paper-arithmetic") == 10**6


class TestRecoverStep0:
    def test_worked_example(self):
        rep = worked_example_rep()
        oracle = InducedOracle(rep, tol=1e-12)
        step = recover_step0(oracle, rep.u0)
        expected = (Fraction(1, 14), Fraction(3, 14), Fraction(10, 14))
        for got, want in zip(step.masses, expected):
            assert got == pytest.approx(float(want), abs=1e-8)
        for k in range(3):
            for x in (-2, -0.5, 0.5, 1, 2):
                assert step.curves[k](x) == pytest.approx(2.8 * x, abs=1e-7)
        assert step.debreu_residual <= 1e-8

    def test_identity_fixed_point(self):
        space, P = three_atom_space()
        rep = identity_representation(space, P)
        oracle = InducedOracle(rep, tol=1e-12)
        step = recover_step0(oracle, rep.u0)
        for k in range(3):
            assert step.masses[k] == pytest.approx(float(P.atom_mass(1, k)), abs=1e-8)
            for x in (-2, -1, 1, 2):
                assert step.curves[k](x) == pytest.approx(x, abs=1e-7)

    def test_sigma_pinned_to_one(self):
        # with the initial utility fixed, the recovered split reproduces the
        # value functional itself: u0(cce(f)) = sum_j p_j u_j(f_j), no
        # rescaling slack survives the normalization
        rep = worked_example_rep()
        oracle = InducedOracle(rep, tol=1e-12)
        step = recover_step0(oracle, rep.u0)
        rng = random.Random(7)
        for _ in range(10):
            f = Act.from_atom_values(
                rep.space, 1, [rng.choice((-2, -1, 0, 1, 2)) for _ in range(3)]
            )
            from itpref.oracles import indifference_profile

            v = rep.u0(indifference_profile(oracle, 0, f, tol=1e-10).values[0])
            split = sum(step.masses[k] * step.curves[k](f.value_on_atom(k)) for k in range(3))
            assert v == pytest.approx(split, abs=1e-7)

    def test_nonadditive_oracle_rejected(self):
        class MinOracle(PreferenceOracle):
            def query(self, i, g, f, A=None):
                v = min(f.values)
                u = g.values[0]
                return QueryAnswer(u >= v - 1e-9, u <= v + 1e-9)

        space, _ = three_atom_space()
        oracle = MinOracle(space)
        with pytest.raises(RecoveryError, match="Debreu residual"):
            recover_step0(oracle, IdentityCurve())

    def test_three_essential_atoms_required(self, two_branch_space):
        P = ProbabilityMeasure(two_branch_space, (Fraction(1, 2), Fraction(1, 2)))
        rep = identity_rep(two_branch_space, P)
        oracle = InducedOracle(rep, tol=1e-12)
        with pytest.raises(RecoveryError, match="three"):
            recover_step0(oracle, rep.u0)
        step = recover_step0(oracle, rep.u0, require_three_essential=False)
        assert step.masses[0] == pytest.approx(0.5, abs=1e-8)

    def test_null_atom_gets_zero_mass_and_identity_curve(self):
        space, _ = three_atom_space()
        P = ProbabilityMeasure(space, (Fraction(1, 2), 0, Fraction(1, 2)))
        rep = identity_representation(space, P)
        oracle = InducedOracle(rep, tol=1e-12)
        step = recover_step0(oracle, rep.u0, require_three_essential=False)
        assert step.null_atoms == (1,)
        assert step.masses[1] == 0
        assert isinstance(step.curves[1], IdentityCurve)


    def test_non_positive_calibration_weight_rejected(self):
        space, _ = three_atom_space()
        oracle = LinearOracle(space, (Fraction(1, 4), Fraction(-1, 4), Fraction(1, 2)))
        with pytest.raises(RecoveryError, match=r"component value -0\.25 .* not positive"):
            recover_step0(oracle, IdentityCurve())

    def test_non_monotone_values_rejected(self):
        with pytest.raises(
            RecoveryError, match="not strictly increasing between x=-1/2 and x=0"
        ):
            recover_step0(flat_segment(), IdentityCurve())

    def test_always_indifferent_oracle_vanishes_at_step0(self):
        # every atom is null, so the step has no probability to hand on
        space, _ = three_atom_space()
        oracle = AlwaysIndifferentOracle(space)
        with pytest.raises(RecoveryError, match=r"vanishes on essential atom \{x,y,z\}"):
            recover_step0(oracle, IdentityCurve(), require_three_essential=False)
        with pytest.raises(RecoveryError, match=r"vanishes on essential atom \{x,y,z\}"):
            recover_representation(oracle, IdentityCurve(), require_three_essential=False)


class TestRecoverInductive:
    def test_single_time_space_rejected_up_front(self):
        from itpref import FilteredSpace

        space = FilteredSpace.build(("a", "b"), (0,), [[["a", "b"]]])
        P = ProbabilityMeasure(space, (Fraction(1, 2), Fraction(1, 2)))
        oracle = InducedOracle(identity_representation(space, P))
        with pytest.raises(RecoveryError, match="at least two times"):
            recover_representation(oracle, IdentityCurve())
        assert oracle.queries == 0

    def test_two_period_identity_recovers_exactly(self, four_state_space, four_state_measure):
        rep = identity_rep(four_state_space, four_state_measure)
        oracle = InducedOracle(rep, tol=1e-12)
        result = recover_representation(oracle, rep.u0, require_three_essential=False)
        uniq = check_relative_uniqueness(rep, result.rep, tol=1e-7)
        assert uniq.accepted, uniq
        for s, (wa, wb) in enumerate(zip(rep.P.weights, result.rep.P.weights)):
            assert float(wb) == pytest.approx(float(wa), abs=1e-7)

    def test_exponential_then_piecewise_round_trip(self):
        space = None
        rng = random.Random(11)
        from itpref import ExponentialCurve, FilteredSpace

        space = FilteredSpace.build(
            tuple(f"s{i}" for i in range(6)),
            (0, 1, 2),
            [
                [[f"s{i}" for i in range(6)]],
                [["s0", "s1"], ["s2", "s3"], ["s4", "s5"]],
                [[f"s{i}"] for i in range(6)],
            ],
        )
        raw = [1 + rng.random() for _ in range(6)]
        P = ProbabilityMeasure(space, tuple(w / sum(raw) for w in raw))
        from itpref.sampling import random_pl_curve

        field = UtilityField.from_atom_curves(
            space,
            [
                [IdentityCurve()],
                [ExponentialCurve(0.4)] * 3,
                [random_pl_curve(rng) for _ in range(6)],
            ],
        )
        rep = Representation(space, P, field)
        oracle = InducedOracle(rep, tol=1e-12)
        # the exponential level is recovered as a piecewise-linear tabulation,
        # so the inductive audit carries its interpolation error; verdicts on
        # pairs with margins above that error must still agree
        result = recover_representation(oracle, rep.u0, debreu_tol=0.05)
        checked, mismatches = verdict_agreement(rep, result.rep, 500, seed=13, margin=0.05)
        assert mismatches == 0, f"{mismatches}/{checked} verdicts flipped"

    def test_coarse_last_partition_spreads_each_atom_evenly(self):
        # the oracle sees the time-1 atom {c,d} only, so its mass is split
        # evenly over c and d, whatever the split under the original measure
        space = FilteredSpace.build(
            ("a", "b", "c", "d"), (0, 1), [[["a", "b", "c", "d"]], [["a"], ["b"], ["c", "d"]]]
        )
        P = ProbabilityMeasure(space, (Fraction(1, 4), Fraction(1, 4), Fraction(1, 8), Fraction(3, 8)))
        rep = identity_rep(space, P)
        result = recover_representation(InducedOracle(rep, tol=1e-12), rep.u0)
        assert [float(w) for w in result.rep.P.weights] == pytest.approx([0.25] * 4, abs=1e-7)
        assert check_relative_uniqueness(rep, result.rep, tol=1e-7).accepted

    def test_updated_probability_agrees_on_coarser_atoms(self):
        rng = random.Random(17)
        rep = random_representation(rng, n_times=3, kinds=("pl",), min_first_split=3)
        oracle = InducedOracle(rep, tol=1e-12)
        step1 = recover_step0(oracle, rep.u0)
        step2 = recover_step_i(oracle, 1, step1)
        space = rep.space
        amap = space.atom_index_map(1)
        for a in range(space.n_atoms(1)):
            children = [
                k for k in range(space.n_atoms(2))
                if amap[space.atom_members(2, k)[0]] == a
            ]
            assert sum(step2.masses[k] for k in children) == pytest.approx(
                float(step1.masses[a]), abs=1e-9
            )

    def test_wrong_previous_level_rejected(self):
        rep = worked_example_rep()
        oracle = InducedOracle(rep, tol=1e-12)
        with pytest.raises(RecoveryError, match="previous step recovered level 1, expected 0"):
            recover_step_i(oracle, 0, recover_step0(oracle, rep.u0))

    def test_parent_with_vanishing_children_rejected(self):
        from itpref import FilteredSpace

        states = ("a", "b", "c", "d", "e", "f")
        space = FilteredSpace.build(
            states, (0, 1, 2),
            [[list(states)], [["a", "b"], ["c", "d"], ["e", "f"]], [[s] for s in states]],
        )
        oracle = LinearOracle(
            space, tuple(Fraction(n, 21) for n in range(1, 7)), indifferent={"a", "b"}
        )
        step1 = recover_step0(oracle, IdentityCurve())
        assert step1.masses[0] > 0
        with pytest.raises(RecoveryError, match=r"vanishes on essential atom \{a,b\}"):
            recover_step_i(oracle, 1, step1)

    def test_seed1_steps_pinned_bit_for_bit(self):
        # the time-1 masses sum to 1 - 2**-53 in floats, so a step 0 that
        # divided by their sum would move them in the last bit
        assert sum(SEED1_STEPS[0][0]) != 1.0
        rep = random_representation(
            random.Random(1), n_times=3, kinds=("pl",), min_first_split=3
        )
        oracle = InducedOracle(rep, tol=1e-12)
        result = recover_representation(oracle, rep.u0, tol=1e-10)
        got = tuple(
            (
                step.masses,
                step.debreu_residual,
                tuple(tuple(a[2] for a in curve.anchors) for curve in step.curves),
            )
            for step in result.steps
        )
        assert got == SEED1_STEPS
        assert oracle.queries == SEED1_QUERIES

    def test_non_default_grids_pinned(self):
        """Every ``RecoveredStep`` and query count of criterion 3's first four
        recoveries on five grids other than the default, pinned as one
        sha256: grids without negatives (so ``X_BAR`` is inserted), with one
        point either side of 0, with float and non-dyadic ``Fraction``
        values.  ``debreu_tol=1.0`` because this pins identity, not
        accuracy: a coarse grid interpolates the curves it recovers."""
        grids = [
            (0, 2),
            (-1, 0),
            (-2, -1, 0, 1, 2),
            (-0.5, 0, 0.25, 3),
            (Fraction(-3, 4), 0, Fraction(1, 3), 2),
        ]
        digest = hashlib.sha256()
        rng = random.Random(77)
        for case in range(4):
            rep = random_representation(
                rng, n_times=3 if case % 2 == 0 else 4, kinds=("pl",), min_first_split=3
            )
            for values in grids:
                oracle = InducedOracle(rep, tol=1e-12)
                result = recover_representation(
                    oracle, rep.u0, ActGrid(values), tol=1e-10, debreu_tol=1.0
                )
                for step in result.steps:
                    digest.update(repr(step).encode() + b"\n")
                digest.update(f"queries {oracle.queries}\n".encode())
        assert digest.hexdigest() == NON_DEFAULT_GRIDS_DIGEST

    def test_villa_recovery_up_to_rescaling(self):
        # two essential atoms at the election time, and a nearly-null branch:
        # query noise is amplified by 1/mass there, so the uniqueness audit
        # runs at a loosened tolerance while verdicts must agree exactly
        spec = villa_scenario()
        rep = spec.representation()
        oracle = InducedOracle(rep, tol=1e-12)
        result = recover_representation(oracle, rep.u0, require_three_essential=False)
        uniq = check_relative_uniqueness(rep, result.rep, tol=1e-3)
        assert uniq.accepted
        checked, mismatches = verdict_agreement(rep, result.rep, 200, seed=19)
        assert mismatches == 0


def fractions_in(result):
    """The ``Fraction``s among the anchors of a recovery's curves."""
    return [
        n
        for step in result.steps
        for curve in step.curves
        for anchor in getattr(curve, "anchors", ())
        for n in anchor
        if type(n) is Fraction
    ]


class TestNumberKind:
    """A float oracle recovers on the grid's float form; an exact one keeps
    the grid's ``Fraction``s."""

    def test_float_oracle_matches_a_step_chain_on_the_fraction_grid(self):
        # criterion 3's first six cases: converting the dyadic default grid
        # once changes no value and no query
        rng = random.Random(77)
        for case in range(6):
            rep = random_representation(
                rng, n_times=3 if case % 2 == 0 else 4, kinds=("pl",), min_first_split=3
            )
            oracle = InducedOracle(rep, tol=1e-12)
            assert not oracle.exact
            result = recover_representation(oracle, rep.u0, tol=1e-10)
            chain_oracle = InducedOracle(rep, tol=1e-12)
            chain = [recover_step0(chain_oracle, rep.u0, DEFAULT_GRID, tol=1e-10)]
            for i in range(1, rep.space.n_times - 1):
                chain.append(recover_step_i(chain_oracle, i, chain[-1], DEFAULT_GRID, tol=1e-10))
            assert len(result.steps) == len(chain)
            for got, want in zip(result.steps, chain):
                assert got.masses == want.masses
                assert got.debreu_residual == want.debreu_residual
                assert got.normalization_offsets == want.normalization_offsets
                assert got.null_atoms == want.null_atoms
                assert [c.anchors for c in got.curves] == [c.anchors for c in want.curves]
            assert oracle.queries == chain_oracle.queries
            assert fractions_in(result) == []

    def test_exact_oracle_keeps_the_fraction_grid(self):
        rep = villa_scenario().representation()
        oracle = InducedOracle(rep, tol=1e-12)
        assert oracle.exact
        result = recover_representation(oracle, rep.u0, require_three_essential=False)
        assert Fraction(-1, 2) in fractions_in(result)

    def test_float_weights_make_a_representation_inexact(self):
        space, P = three_atom_space()
        assert identity_representation(space, P).exact
        floats = ProbabilityMeasure(space, (0.25, 0.25, 0.5))
        assert not InducedOracle(identity_representation(space, floats)).exact

    def test_oracle_without_a_representation_is_inexact(self):
        space, _ = three_atom_space()
        oracle = LinearOracle(space, (Fraction(1, 5), Fraction(3, 5), Fraction(1, 5)))
        assert not oracle.exact
        result = recover_representation(oracle, IdentityCurve())
        assert fractions_in(result) == []
        assert -0.5 in [a[0] for a in result.steps[0].curves[0].anchors]

    def test_grid_values_with_one_float_are_rejected_by_name(self, capsys):
        binomial = Path(__file__).resolve().parent.parent / "scenarios" / "binomial.sdu"
        code = main([
            "recover", "--scenario", str(binomial), "--allow-few-essential",
            "--grid=-1,0,1,1000000000000000001/1000000000000000000",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert "1 and 1000000000000000001/1000000000000000000 are the same float 1.0" in err


class TestRelativeUniqueness:
    def test_reflexive(self):
        rng = random.Random(23)
        rep = random_representation(rng)
        res = check_relative_uniqueness(rep, rep)
        assert res.accepted and res.max_deviation == 0.0

    def test_reflexive_with_a_null_state(self):
        space, _ = three_atom_space()
        rep = identity_representation(space, ProbabilityMeasure(space, (Fraction(1, 2), 0, Fraction(1, 2))))
        res = check_relative_uniqueness(rep, rep)
        assert res.accepted and res.max_deviation == 0.0

    def test_delta_construction_accepted(self):
        rng = random.Random(29)
        for _ in range(5):
            rep = random_representation(rng)
            clone = scaled_clone(rep, random_equivalent_measure(rng, rep.P))
            res = check_relative_uniqueness(rep, clone, tol=1e-9)
            assert res.accepted, res

    def test_single_point_perturbation_rejected(self):
        space, P = three_atom_space()
        base = identity_representation(space, P)
        bumped = PiecewiseLinearCurve.from_points(
            [(-2, -2), (-1, -1), (0, 0), (1, 1 + Fraction(1, 100)), (2, 2)]
        )
        field = UtilityField.from_atom_curves(
            space, [[IdentityCurve()], [bumped, IdentityCurve(), IdentityCurve()]]
        )
        other = Representation(space, P, field)
        res = check_relative_uniqueness(base, other, tol=1e-9)
        assert not res.accepted
        assert 0.009 <= res.max_deviation <= 0.011
        assert "atom {x}" in res.witness

    def test_non_equivalent_measures_rejected_with_witness(self):
        space, P = three_atom_space()
        base = identity_representation(space, P)
        dead = ProbabilityMeasure(space, (Fraction(1, 2), Fraction(1, 2), 0))
        other = identity_representation(space, dead)
        res = check_relative_uniqueness(base, other)
        assert not res.accepted
        assert res.max_deviation == math.inf
        assert "z" in res.witness


class TestVerdictAgreement:
    @pytest.mark.parametrize("n_pairs", [0, -1])
    def test_pair_count_below_one_rejected(self, four_state_identity_rep, n_pairs):
        rep = four_state_identity_rep
        with pytest.raises(ValueError, match="at least one pair"):
            verdict_agreement(rep, rep, n_pairs)
