"""Worked demonstrations: villa story, dynamic programming, forward check."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from itpref import (
    Act,
    ExponentialCurve,
    IdentityCurve,
    LinearCurve,
    UtilityField,
)
from itpref.apps import (
    VILLA_VARIANTS,
    dpp_scenario,
    forward_scenario,
    run_dpp,
    run_forward_check,
    run_villa,
    villa_scenario,
    villa_t1_value,
    villa_t2_formula,
    villa_t2_value,
)
from itpref.scenario import ScenarioSpec, StrategySet, loads_scenario

from conftest import short_villa_text

VILLA_SDU = Path(__file__).resolve().parent.parent / "scenarios" / "villa.sdu"


class TestVilla:
    def test_output_byte_identical_across_runs(self):
        assert run_villa().text == run_villa().text
        stated = run_villa(villa_scenario("paper-stated")).text
        assert stated == run_villa(villa_scenario("paper-stated")).text

    def test_paper_arithmetic_values(self):
        assert villa_t1_value("paper-arithmetic") == 10**6
        assert villa_t2_formula() == Fraction(17829983, 10)
        assert float(villa_t2_formula()) == pytest.approx(1_782_998.3)

    def test_paper_stated_values(self):
        assert villa_t1_value("paper-stated") == 1_099_900
        assert villa_t2_value("paper-stated") == Fraction(1_782_998_317, 1000)

    def test_narrative_lines(self):
        text = run_villa().text
        assert "EQUIV (indifferent, so waiting costs nothing)" in text
        assert "on {d1} (election default): SUCCEQ" in text
        assert "on {d2,ok} (no election default): PRECEQ" in text
        assert "optimal policy: wait at t0" in text
        assert run_villa().passed

    def test_stated_variant_prefers_waiting_strictly(self):
        result = run_villa(villa_scenario("paper-stated"))
        assert "1099900" in result.text
        assert "PRECEQ (waiting is strictly attractive)" in result.text
        assert result.passed

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            villa_scenario("paper-wrong")
        with pytest.raises(ValueError, match="variant"):
            run_villa(replace(villa_scenario(), variant="paper-wrong"))

    def test_runs_on_the_spec_it_is_given(self):
        # a spec's own data, not the shipped villa's, decides the report
        spec = villa_scenario("paper-stated")
        cheaper = Act(spec.space, 1, (200_000, 1_000_000, 1_000_000))
        text = run_villa(replace(spec, acts={**spec.acts, "villa_t1": cheaper})).text
        assert "expected payoff = 1099900 " in run_villa(spec).text
        assert "expected payoff = 991000 " in text

    def test_verdicts_follow_the_spec(self):
        # the t1 value cut below the cash: waiting no longer pays, the story fails
        spec = villa_scenario("paper-stated")
        cheaper = Act(spec.space, 1, (200_000, 1_000_000, 1_000_000))
        result = run_villa(replace(spec, acts={**spec.acts, "villa_t1": cheaper}))
        assert "verdict cash vs villa at t1: SUCCEQ (waiting is strictly unattractive)" in result.text
        assert not result.passed

    @pytest.mark.parametrize("variant", ["paper-arithmetic", "paper-stated"])
    def test_less_cash_makes_waiting_strictly_attractive(self, variant):
        spec = villa_scenario(variant)
        cash = Act(spec.space, 0, (900_000,) * 3)
        result = run_villa(replace(spec, acts={**spec.acts, "cash": cash}))
        assert "immediate cash at t0: 900000\n" in result.text
        assert "verdict cash vs villa at t1: PRECEQ (waiting is strictly attractive)" in result.text
        assert "on {d1} (election default): SUCCEQ (take the cash)" in result.text
        assert result.passed

    def test_branches_are_read_from_the_time1_atoms(self):
        text = VILLA_SDU.read_text()
        spec = loads_scenario(text.replace("states = d1, d2, ok", "states = ok, d2, d1"))
        result = run_villa(spec)
        assert "on {d1} (election default): SUCCEQ (take the cash)" in result.text
        assert "on {ok,d2} (no election default): PRECEQ (take the villa)" in result.text
        assert "the cash on {d1} and the villa on {ok,d2}" in result.text
        assert result.passed

    @pytest.mark.parametrize("variant", VILLA_VARIANTS)
    @pytest.mark.parametrize("n_times", [1, 2])
    def test_a_scenario_with_fewer_than_three_times_is_refused(self, n_times, variant):
        # before, these raised an IndexError from the time-1 or time-2 reads
        spec = loads_scenario(short_villa_text(n_times, variant))
        with pytest.raises(ValueError, match=rf"villa scenario needs three times \(t0, t1, t2\), got {n_times}"):
            run_villa(spec)

    @pytest.mark.parametrize(
        "name, time, values, part",
        [
            ("villa_t2", 2, (200_000, 200_000, 900_000), "villa_t2"),
            ("villa_t1", 1, (200_000, 1_000_000, 1_000_000), "villa_t1"),
        ],
        ids=["villa_t2", "villa_t1"],
    )
    def test_paper_arithmetic_refuses_an_edited_villa(self, name, time, values, part):
        # the displayed sums describe the shipped villa only; before, these
        # printed t2 = 1782998.3 beside SUCCEQ, and t1 = 1000000 beside EQUIV
        spec = villa_scenario()
        edited = replace(spec, acts={**spec.acts, name: Act(spec.space, time, values)})
        with pytest.raises(ValueError, match=rf"paper-arithmetic .* {part} differ .* paper-stated"):
            run_villa(edited)
        assert run_villa(replace(edited, variant="paper-stated")).text.startswith(
            "villa scenario, variant = paper-stated"
        )

    @pytest.mark.parametrize(
        "old, new, part",
        [
            ("d1 = 1/100\nd2 = 99/100000000\nok = 98999901/100000000",
             "d1 = 1/50\nd2 = 98/100000000\nok = 97999902/100000000", "measure"),
            ("[utility t=1]\nd1 = pl((-1,-2),(0,0),(1,1/2))", "[utility t=1]\nd1 = identity",
             "t=1 utility"),
            ("ok = identity\n\n[act cash", "ok = linear(2)\n\n[act cash", "t=2 utility"),
        ],
        ids=["measure", "t1-utility", "t2-utility"],
    )
    def test_paper_arithmetic_names_what_differs(self, old, new, part):
        text = VILLA_SDU.read_text()
        assert old in text
        with pytest.raises(ValueError, match=rf"scenario's {part} differ"):
            run_villa(loads_scenario(text.replace(old, new)))

    def test_villa_needs_two_time1_atoms(self):
        text = VILLA_SDU.read_text()
        text = text.replace("partition t=1 = d1 | d2, ok", "partition t=1 = d1 | d2 | ok")
        text = text.replace("\nd2, ok = identity", "\nd2 = identity\nok = identity")
        with pytest.raises(ValueError, match="two time-1 atoms .* got 3"):
            run_villa(loads_scenario(text))

    def test_spec_without_villa_acts_rejected(self):
        with pytest.raises(ValueError, match="cash, villa_t1, villa_t2"):
            run_villa(dpp_scenario())
        spec = villa_scenario()
        no_cash = replace(spec, acts={k: v for k, v in spec.acts.items() if k != "cash"})
        with pytest.raises(ValueError, match=r"no act cash$"):
            run_villa(no_cash)


def direct_profile(spec: ScenarioSpec, name: str) -> list[float]:
    """Independent oracle for the DPP demo: raw per-state sums, no engine."""
    st = spec.strategies
    space, P = spec.space, spec.measure
    terminal = spec.acts[dict(st.members)[name][-1]]
    out = []
    for k in range(space.n_atoms(st.t)):
        members = space.atom_members(st.t, k)
        mass = float(P.mass(members))
        total = 0.0
        for m in members:
            curve = spec.field.curves_by_state[st.horizon][m]
            total += float(P.weights[m]) * float(curve(terminal.values[m]))
        out.append(total / mass)
    return out


class TestDPP:
    def test_single_strategy_value_is_its_profile(self):
        spec = dpp_scenario()
        solo = ScenarioSpec(
            spec.space, spec.measure, spec.field, spec.acts,
            StrategySet(1, 2, "X1", (("a1", ("X1", "W_a1_2")),)),
            spec.title, None,
        )
        result = run_dpp(solo)
        assert result.passed
        want = direct_profile(solo, "a1")
        for v in want:
            assert f"{v:.12g}" in result.text

    def test_shipped_binomial_dominance_exhaustive(self):
        spec = dpp_scenario()
        result = run_dpp(spec)
        assert result.passed
        profiles = {name: direct_profile(spec, name) for name, _ in spec.strategies.members}
        v = [max(p[k] for p in profiles.values()) for k in range(2)]
        for name, prof in profiles.items():
            for k in range(2):
                assert v[k] >= prof[k]
        # momentum measure: invest fully after good news, hold cash after bad
        assert "a1 on {uu,ud}, a0 on {du,dd}" in result.text

    def test_risk_neutral_martingale_everything_equivalent(self):
        spec = forward_scenario()
        result = run_dpp(spec)
        assert result.passed
        for name in ("a0", "a05", "a1"):
            assert f"X vs terminal({name}): EQUIV" in result.text

    def test_strategyless_scenario_rejected(self):
        spec = villa_scenario()
        with pytest.raises(ValueError, match="strategy"):
            run_dpp(spec)


class TestForward:
    def test_identity_martingale_passes_everything(self):
        result = run_forward_check(forward_scenario())
        assert result.passed
        assert result.text.count("PASS") >= 5
        for window in ("t0..t1", "t0..t2", "t1..t2"):
            assert f"window {window}: optimal strategy a0" in result.text

    def test_deflated_terminal_utility_fails_attainment(self):
        spec = forward_scenario()
        rows = [
            [IdentityCurve()],
            [IdentityCurve()] * 2,
            [LinearCurve(Fraction(9, 10))] * 4,
        ]
        deflated = ScenarioSpec(
            spec.space, spec.measure,
            UtilityField.from_atom_curves(spec.space, rows),
            spec.acts, spec.strategies, spec.title, None,
        )
        result = run_forward_check(deflated)
        assert not result.passed
        assert "(iv)  equality attained by some strategy for every window: FAIL" in result.text
        assert "(iii) supermartingale along every declared wealth process: PASS" in result.text

    def test_exponential_curves_pass_concavity(self):
        spec = forward_scenario()
        rows = [
            [ExponentialCurve(1.0)],
            [ExponentialCurve(1.0)] * 2,
            [ExponentialCurve(1.0)] * 4,
        ]
        expo = ScenarioSpec(
            spec.space, spec.measure,
            UtilityField.from_atom_curves(spec.space, rows),
            spec.acts, spec.strategies, spec.title, None,
        )
        result = run_forward_check(expo)
        assert "(i)   increasing and concave in outcomes on the grid: PASS" in result.text
        # cash is the optimal policy under strict risk aversion in a fair market
        assert result.passed
