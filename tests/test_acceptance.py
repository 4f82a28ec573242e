"""Acceptance suite: the nine exit criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

from __future__ import annotations

import contextlib
import random
import time
from fractions import Fraction

from itpref import (
    Act,
    InducedOracle,
    ProbabilityMeasure,
    Representation,
    UtilityField,
    IdentityCurve,
    PiecewiseLinearCurve,
    cce,
    check_C,
    check_M,
    check_ST,
    check_T,
    check_relative_uniqueness,
    conditional_expectation,
    discount_transform,
    is_star_continuous,
    numeraire_transform,
    recover_representation,
    semigroup_residual,
)
from itpref.axioms import C_STYLES
from itpref.apps import (
    dpp_scenario, run_dpp, run_villa, villa_scenario, villa_t1_value, villa_t2_formula,
)
from itpref.controls import (
    always_succeq,
    flat_segment,
    identity_representation,
    intransitive_band,
    jump_on_positive_atom,
    nonadditive_meanmax,
    three_atom_space,
)
from itpref.sampling import (
    random_act,
    random_equivalent_measure,
    random_representation,
    scaled_clone,
    verdict_agreement,
)

from test_engine import exp_rep, exp_cce_oracle
from test_utility_field import field_with_jump_on


@contextlib.contextmanager
def criterion(number: int, description: str, budget_s: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL - {description}")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s, budget {budget_s}s"
    print(f"[criterion {number}] PASS - {description} ({elapsed:.1f}s)")


def test_criterion_1_villa_reproduction():
    with criterion(1, "villa: exact 1e6 indifference, formula match, branch verdicts", 1.0):
        assert villa_t1_value("paper-arithmetic") == Fraction(10**6)  # exact rational
        formula = villa_t2_formula()
        result = run_villa(villa_scenario("paper-arithmetic"))
        assert result.passed
        # the engine's measure-path terminal value agrees with the displayed
        # formula to 1e-6 relative
        spec = villa_scenario("paper-stated")
        rep = spec.representation()
        measure_path = rep.P.expectation(rep.field.eval(2, spec.acts["villa_t2"]))
        assert abs(measure_path - formula) / formula <= 1e-6
        assert "on {d1} (election default): SUCCEQ" in result.text
        assert "on {d2,ok} (no election default): PRECEQ" in result.text


def test_criterion_2_semigroup_suite():
    with criterion(2, "semigroup residual <= 10*tol on 200 random representations", 30.0):
        tol = 1e-9
        rng = random.Random(2024)
        worst = 0.0
        for _ in range(200):
            rep = random_representation(rng)
            assert rep.star_continuity().ok
            space = rep.space
            v = space.last_index
            f = random_act(rng, space, v)
            for s in range(v - 1):
                for t in range(s + 1, v):
                    worst = max(worst, semigroup_residual(rep, s, t, v, f, tol))
        assert worst <= 10 * tol, f"worst residual {worst}"


def test_criterion_3_recovery_round_trip():
    with criterion(3, "50 piecewise-linear recoveries: uniqueness <= 1e-6, 0 verdict flips", 120.0):
        rng = random.Random(77)
        for case in range(50):
            rep = random_representation(
                rng,
                n_times=3 if case % 2 == 0 else 4,
                kinds=("pl",),
                min_first_split=3,
            )
            oracle = InducedOracle(rep, tol=1e-12)
            result = recover_representation(oracle, rep.u0, tol=1e-10)
            assert result.max_debreu_residual <= 1e-8
            uniq = check_relative_uniqueness(rep, result.rep, tol=1e-6)
            assert uniq.accepted, f"case {case}: deviation {uniq.max_deviation}"
            checked, mismatches = verdict_agreement(rep, result.rep, 500, seed=case)
            assert mismatches == 0, f"case {case}: {mismatches}/{checked} flips"


def test_criterion_4_uniqueness_controls():
    with criterion(4, "delta-rescalings accepted at 1e-9; 0.01 bumps rejected in band", 30.0):
        rng = random.Random(4)
        for _ in range(10):
            rep = random_representation(rng)
            clone = scaled_clone(rep, random_equivalent_measure(rng, rep.P))
            res = check_relative_uniqueness(rep, clone, tol=1e-9)
            assert res.accepted and res.max_deviation <= 1e-9
        space, P = three_atom_space()
        base = identity_representation(space, P)
        bumped = PiecewiseLinearCurve.from_points(
            [(-2, -2), (-1, -1), (0, 0), (1, 1 + Fraction(1, 100)), (2, 2)]
        )
        field = UtilityField.from_atom_curves(
            space, [[IdentityCurve()], [bumped, IdentityCurve(), IdentityCurve()]]
        )
        res = check_relative_uniqueness(base, Representation(space, P, field), tol=1e-9)
        assert not res.accepted
        assert 0.009 <= res.max_deviation <= 0.011


def test_criterion_5_axiom_suite():
    with criterion(5, "induced oracles pass every clause; five faults fail exactly", 60.0):
        rng = random.Random(55)
        rep = random_representation(
            rng, n_times=3, kinds=("pl", "linear", "identity"), min_first_split=3
        )
        oracle = InducedOracle(rep)
        for i in (0, 1):
            report = check_T(oracle, i)
            assert report.passed, report.render()
            assert check_M(oracle, i).passed
            assert check_ST(oracle, i).passed
            f = random_act(rng, rep.space, i + 1)
            for style in C_STYLES:
                assert check_C(oracle, i, f, style).passed
        jump_oracle, jump_witness = jump_on_positive_atom()
        fleet = [
            ("always-succeq", always_succeq(), "T", None),
            ("intransitive-band", intransitive_band(), "T", None),
            ("flat-segment", flat_segment(), "M", None),
            ("mean-max", nonadditive_meanmax(), "ST", None),
            ("jump", jump_oracle, "C", jump_witness),
        ]
        for name, bad, target, witness in fleet:
            f_c = witness if witness is not None else Act.from_atom_values(
                bad.space, 1, [1, 0, -1]
            )
            outcomes = {
                "T": check_T(bad, 0).passed,
                "M": check_M(bad, 0).passed,
                "ST": check_ST(bad, 0).passed,
                "C": all(check_C(bad, 0, f_c, s).passed for s in C_STYLES),
            }
            failed = sorted(k for k, ok in outcomes.items() if not ok)
            assert failed == [target], f"{name} failed {failed}, wanted [{target}]"


def test_criterion_6_closed_form_oracle_equivalence():
    with criterion(6, "exponential CCEs match -ln E[exp(-f)] to 1e-10; identity exact", 30.0):
        rng = random.Random(6)
        # exponential: 100 random acts against the independent closed form
        space = None
        for case in range(100):
            if case % 10 == 0:
                rep = random_representation(rng, kinds=("identity",))
                space = rep.space
                P = rep.P
                erep = exp_rep(space, P)
            t = space.last_index
            f = random_act(rng, space, t)
            for s in range(t):
                got = cce(erep, s, t, f)
                want = exp_cce_oracle(P, f, s)
                for k in P.positive_atoms(s):
                    assert abs(got.value_on_atom(k) - want[k]) <= 1e-10
        # identity: bitwise equality with the conditional expectation
        for _ in range(100):
            rep = random_representation(rng, kinds=("identity",))
            t = rep.space.last_index
            f = random_act(rng, rep.space, t)
            for s in range(t):
                assert cce(rep, s, t, f).values == conditional_expectation(
                    rep.space, rep.P, f, s
                ).values


def test_criterion_7_star_continuity_detector():
    with criterion(7, "jump fields flagged with positive-probability witness", 10.0):
        space, P = three_atom_space()
        flagged = field_with_jump_on(space, 0)
        res = is_star_continuous(flagged, P, 1)
        assert not res.ok
        _, _, d = flagged.discontinuity_sets(1, res.witness)
        assert P.event_mass(d) > 0
        smooth = identity_representation(space, P)
        for i in range(space.n_times):
            assert is_star_continuous(smooth.field, P, i).ok
        dead = ProbabilityMeasure(space, (0, Fraction(1, 2), Fraction(1, 2)))
        assert is_star_continuous(flagged, dead, 1).ok


def test_criterion_8_dpp_demo():
    with criterion(8, "binomial value function dominates every strategy; tight argmax", 10.0):
        spec = dpp_scenario()
        result = run_dpp(spec, tol=1e-9)
        assert result.passed
        assert "dominance v >= E[u(V_T)|F_t] for every strategy, atom-wise: PASS" in result.text
        assert "equality at the reported optimum within 1e-09: PASS" in result.text


def test_criterion_9_discount_and_numeraire():
    with criterion(9, "transform verdict preservation, 100 pairs each, zero flips", 30.0):
        rng = random.Random(9)
        rep = random_representation(rng, n_times=3)
        unit = discount_transform(rep, rep.P, n_pairs=100, seed=90)
        assert unit.verified and unit.flips == 0
        for beta in unit.betas:
            for k in rep.P.positive_atoms(beta.time_index):
                assert beta.value_on_atom(k) == 1
        skewed = discount_transform(
            rep, random_equivalent_measure(rng, rep.P), n_pairs=100, seed=91
        )
        assert skewed.verified and skewed.flips == 0
        numeraire = [
            Act.from_atom_values(
                rep.space, i, [0.5 + rng.random() for _ in range(rep.space.n_atoms(i))]
            )
            for i in range(rep.space.n_times)
        ]
        moved = numeraire_transform(rep, numeraire, n_pairs=100, seed=92)
        assert moved.verified and moved.flips == 0
