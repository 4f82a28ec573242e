"""Scenario file format: parsing, validation, canonical round trips."""

from __future__ import annotations

import re
from dataclasses import replace
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from itpref import ScenarioError, load_scenario, save_scenario
from itpref.apps import dpp_scenario, forward_scenario, random8_scenario, villa_scenario
from itpref.scenario import dumps_scenario, loads_scenario, parse_number

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


class TestShippedFiles:
    @pytest.mark.parametrize("name", ["villa", "binomial", "forward", "random8"])
    def test_round_trip_is_byte_identical(self, name):
        path = SCENARIO_DIR / f"{name}.sdu"
        original = path.read_text(encoding="utf-8")
        assert dumps_scenario(loads_scenario(original)) == original

    @pytest.mark.parametrize(
        "name, builder",
        [
            ("villa", villa_scenario),
            ("binomial", dpp_scenario),
            ("forward", forward_scenario),
            ("random8", random8_scenario),
        ],
    )
    def test_builder_loads_its_packaged_file(self, name, builder):
        path = SCENARIO_DIR / f"{name}.sdu"
        assert builder() == load_scenario(path)
        packaged = resources.files("itpref") / "scenarios" / f"{name}.sdu"
        assert packaged.read_bytes() == path.read_bytes()

    def test_villa_variants_differ_only_in_the_tag(self):
        stated = villa_scenario("paper-stated")
        assert stated.variant == "paper-stated"
        assert stated == replace(villa_scenario(), variant="paper-stated")

    def test_villa_contents(self):
        spec = load_scenario(SCENARIO_DIR / "villa.sdu")
        assert spec.title == "villa" and spec.variant == "paper-arithmetic"
        assert spec.measure.weights[0] == Fraction(1, 100)
        assert spec.acts["villa_t2"].values == (200_000, 200_000, 1_800_000)
        rep = spec.representation()
        assert rep.field.curve_on_atom(1, 0)(200_000) == 100_000

    def test_tmp_save_restore(self, tmp_path):
        spec = dpp_scenario()
        out = tmp_path / "x.sdu"
        save_scenario(spec, out)
        again = load_scenario(out)
        assert again.strategies == spec.strategies
        assert again.acts.keys() == spec.acts.keys()


class TestNumbers:
    def test_kinds_preserved(self):
        assert parse_number("1/100") == Fraction(1, 100)
        assert isinstance(parse_number("1/100"), Fraction)
        assert parse_number("3") == 3 and isinstance(parse_number("3"), int)
        assert parse_number("1.5e3") == 1500.0 and isinstance(parse_number("1.5e3"), float)

    def test_rejects_garbage(self):
        with pytest.raises(ScenarioError):
            parse_number("abc")
        with pytest.raises(ScenarioError):
            parse_number("inf")
        with pytest.raises(ScenarioError):
            parse_number("1/0")


MINIMAL = """\
[space]
states = a, b
times = 0, 1
partition t=0 = a, b
partition t=1 = a | b

[measure]
a = 1/2
b = 1/2

[utility t=0]
a, b = identity

[utility t=1]
a = identity
b = linear(2)
"""

REPEATED_STATE = MINIMAL.replace("t=1 = a | b", "t=1 = a, a | b").replace(
    "[utility t=1]\na =", "[utility t=1]\na, a ="
)


class TestParsing:
    def test_minimal(self):
        spec = loads_scenario(MINIMAL)
        assert spec.space.states == ("a", "b")
        assert spec.acts == {}

    def test_empty_file(self):
        with pytest.raises(ScenarioError, match=r"\[space\]"):
            loads_scenario("")

    def test_non_refining_partition_names_atom(self):
        bad = MINIMAL.replace(
            "partition t=0 = a, b\npartition t=1 = a | b",
            "partition t=0 = a | b\npartition t=1 = a, b",
        )
        with pytest.raises(ScenarioError, match="trivial"):
            loads_scenario(bad)
        bad3 = """\
[space]
states = a, b, c
times = 0, 1, 2
partition t=0 = a, b, c
partition t=1 = a, b | c
partition t=2 = a | b, c

[measure]
a = 1/3
b = 1/3
c = 1/3
"""
        with pytest.raises(ScenarioError, match="refine"):
            loads_scenario(bad3)

    def test_state_repeated_inside_an_atom_rejected(self):
        # a repeated state counts twice: atom masses (1, 1/2) at t=1
        with pytest.raises(ScenarioError, match=r"line 1: .*exactly once"):
            loads_scenario(REPEATED_STATE)

    @pytest.mark.parametrize(
        "curve", ["linear(2, banana)", "exp(0.3,1,2)", "vscaled(identity,2,9)", "ascaled(linear(2))"]
    )
    def test_curve_argument_count_checked(self, curve):
        # an argument must not be dropped silently: a save would write the curve without it
        bad = MINIMAL.replace("linear(2)", curve)
        with pytest.raises(ScenarioError, match=re.escape(f"curve {curve!r} takes")):
            loads_scenario(bad)

    def test_measure_must_normalize(self):
        bad = MINIMAL.replace("a = 1/2", "a = 2/3")
        with pytest.raises(ScenarioError, match="sum"):
            loads_scenario(bad)

    def test_unknown_state_in_measure(self):
        bad = MINIMAL.replace("a = 1/2", "zz = 1/2")
        with pytest.raises(ScenarioError, match="zz"):
            loads_scenario(bad)

    def test_missing_utility_section(self):
        bad = MINIMAL.replace("[utility t=1]\na = identity\nb = linear(2)\n", "")
        with pytest.raises(ScenarioError, match=r"utility t=1"):
            loads_scenario(bad)

    def test_utility_key_must_be_an_atom(self):
        bad = MINIMAL.replace("[utility t=1]\na = identity", "[utility t=1]\na, b = identity")
        with pytest.raises(ScenarioError, match="not an atom"):
            loads_scenario(bad)

    def test_unknown_curve_kind(self):
        bad = MINIMAL.replace("linear(2)", "spline(2)")
        with pytest.raises(ScenarioError, match="spline"):
            loads_scenario(bad)

    def test_duplicate_keys_rejected(self):
        bad = MINIMAL.replace("a = 1/2\n", "a = 1/2\na = 1/2\n")
        with pytest.raises(ScenarioError, match="duplicate"):
            loads_scenario(bad)

    def test_line_numbers_reported(self):
        bad = MINIMAL.replace("a = 1/2", "a = oops")
        with pytest.raises(ScenarioError, match="line 8"):
            loads_scenario(bad)

    def test_act_star_shorthand(self):
        text = MINIMAL + "\n[act flat t=0]\n* = 5\n"
        spec = loads_scenario(text)
        assert spec.acts["flat"].values == (5, 5)

    def test_act_missing_state(self):
        text = MINIMAL + "\n[act partial t=1]\na = 5\n"
        with pytest.raises(ScenarioError, match="missing values"):
            loads_scenario(text)

    def test_act_measurability_checked(self):
        text = MINIMAL + "\n[act fine t=0]\na = 1\nb = 2\n"
        with pytest.raises(ScenarioError, match="not measurable"):
            loads_scenario(text)

    @pytest.mark.parametrize(
        "header", ["act villa_t2 at t=2", "utilty t=1", "act t=1", "strategy", "measures"]
    )
    def test_unknown_section_header_rejected(self, header):
        # a misspelt header would otherwise drop its whole section silently
        text = MINIMAL + f"\n[{header}]\na = 1\n"
        line = text.splitlines().index(f"[{header}]") + 1
        with pytest.raises(ScenarioError, match=rf"^line {line}: unknown section \[{header}\]"):
            loads_scenario(text)

    def test_unknown_preamble_key_rejected(self):
        # save would drop it, so save(load(p)) would not be byte-identical
        text = "title = t\nauthor = someone\n\n" + MINIMAL
        with pytest.raises(ScenarioError, match=r"^line 2: unknown preamble key 'author'"):
            loads_scenario(text)
        assert loads_scenario("title = t\nvariant = v\n\n" + MINIMAL).variant == "v"

    def test_comments_and_blank_lines_ignored(self):
        text = "# a comment\n\n" + MINIMAL
        assert loads_scenario(text).space.states == ("a", "b")


class TestStrategies:
    def test_strategy_validation(self):
        text = MINIMAL + """
[act X t=0]
* = 1

[act W1 t=1]
a = 2
b = 0

[strategies]
t = 0
horizon = 1
endowment = X
strategy solo = X, W1
"""
        spec = loads_scenario(text)
        assert spec.strategies.members == (("solo", ("X", "W1")),)

    def test_path_length_checked(self):
        text = MINIMAL + """
[act X t=0]
* = 1

[strategies]
t = 0
horizon = 1
endowment = X
strategy solo = X
"""
        with pytest.raises(ScenarioError, match="needs 2 acts"):
            loads_scenario(text)

    @pytest.mark.parametrize(
        "key, value", [("t", "1/2"), ("t", "0.0"), ("horizon", "3/2"), ("horizon", "1/1")]
    )
    def test_window_must_be_integer_literals(self, key, value):
        # each of these used to be truncated by int() into the window t=0, horizon=1
        window = {"t": "0", "horizon": "1", key: value}
        text = MINIMAL + f"""
[act X t=0]
* = 1

[act W1 t=1]
* = 2

[strategies]
t = {window["t"]}
horizon = {window["horizon"]}
endowment = X
strategy solo = X, W1
"""
        line = text.splitlines().index(f"{key} = {value}") + 1
        with pytest.raises(ScenarioError, match=rf"^line {line}: {key} must be an integer"):
            loads_scenario(text)

    def test_unknown_endowment(self):
        text = MINIMAL + """
[strategies]
t = 0
horizon = 1
endowment = nope
strategy solo = nope, nope
"""
        with pytest.raises(ScenarioError, match="endowment"):
            loads_scenario(text)
