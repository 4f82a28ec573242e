"""Command-line interface: exit codes, determinism, formats."""

from __future__ import annotations

import re
import shlex
import signal
from contextlib import contextmanager
from pathlib import Path

import pytest

from itpref.cli import main
from itpref.scenario import load_scenario

from conftest import short_villa_text
from test_scenario import REPEATED_STATE

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "scenarios"
VILLA = str(SCENARIO_DIR / "villa.sdu")
RANDOM8 = str(SCENARIO_DIR / "random8.sdu")
BINOMIAL = str(SCENARIO_DIR / "binomial.sdu")
FORWARD = str(SCENARIO_DIR / "forward.sdu")


def run(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_no_arguments_usage(self, capsys):
        code, _, err = run(capsys, [])
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, ["frobnicate"])
        assert code == 2

    def test_missing_scenario_file(self, capsys):
        code, _, err = run(capsys, ["compare", "--scenario", "nope.sdu", "--g", "a", "--f", "b"])
        assert code == 2
        assert "no such scenario" in err

    def test_state_repeated_inside_an_atom_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "repeat.sdu"
        path.write_text(REPEATED_STATE + "\n[act x t=1]\na = 1\nb = 2\n")
        code, _, err = run(capsys, ["cce", "--scenario", str(path), "--f", "x", "--s", "0"])
        assert code == 2
        assert "line 1:" in err and "exactly once" in err

    def test_unknown_act_is_input_error(self, capsys):
        code, _, err = run(capsys, ["cce", "--scenario", VILLA, "--f", "nonesuch"])
        assert code == 2
        assert "nonesuch" in err


class TestCompare:
    def test_villa_cash_vs_terminal_villa(self, capsys):
        code, out, _ = run(
            capsys,
            ["compare", "--scenario", VILLA, "--g", "cash", "--f", "villa_t2",
             "--s", "0", "--t", "2"],
        )
        assert code == 0
        assert "verdict: PRECEQ" in out

    def test_tsv_format(self, capsys):
        code, out, _ = run(
            capsys,
            ["compare", "--scenario", VILLA, "--g", "cash", "--f", "villa_t2",
             "--s", "0", "--t", "2", "--format", "tsv"],
        )
        assert code == 0
        assert "verdict\tPRECEQ" in out

    @pytest.mark.parametrize("flag, value", [("--s", "3"), ("--t", "3"), ("--s", "-1")])
    def test_time_index_out_of_range_is_input_error(self, capsys, flag, value):
        code, out, err = run(
            capsys, ["compare", "--scenario", VILLA, "--g", "cash", "--f", "villa_t2", flag, value]
        )
        assert code == 2
        assert out == ""
        assert "error: need time indices 0 <= s < t" in err


class TestSemigroup:
    def test_random8_within_bound(self, capsys):
        code, out, _ = run(capsys, ["semigroup", "--scenario", RANDOM8])
        assert code == 0
        assert "max residual" in out
        worst = float(out.split("max residual: ")[1].splitlines()[0])
        assert worst <= 1e-8

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, ["semigroup", "--scenario", RANDOM8])
        _, second, _ = run(capsys, ["semigroup", "--scenario", RANDOM8])
        assert first == second

    def test_explicit_triple(self, capsys):
        code, out, _ = run(
            capsys,
            ["semigroup", "--scenario", RANDOM8, "--f", "payoff_a",
             "--s", "0", "--t", "1", "--v", "3"],
        )
        assert code == 0
        assert out.count("payoff_a") == 1

    def test_partial_triple_rejected(self, capsys):
        code, _, err = run(capsys, ["semigroup", "--scenario", RANDOM8, "--s", "0"])
        assert code == 2
        assert "together" in err

    def test_unknown_act_is_input_error(self, capsys):
        code, out, err = run(capsys, ["semigroup", "--scenario", VILLA, "--f", "nosuch"])
        assert code == 2
        assert out == ""
        assert "unknown act 'nosuch'" in err


class TestGridFlag:
    def test_axioms_with_custom_grid(self, capsys):
        # values starting with '-' need the '--grid=' spelling
        code, out, _ = run(
            capsys,
            ["axioms", "--scenario", VILLA, "--step", "0", "--grid=-2,-1,0,1,2"],
        )
        assert code == 0
        assert "FAIL" not in out


@contextmanager
def raises_after(seconds):
    """Raise ``TimeoutError`` in the block once ``seconds`` have passed, so
    that a command that never ends fails instead of hanging the suite."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM timers")
def test_axioms_on_a_grid_of_large_constants_ends(capsys):
    # the audits bisect near 3e4 with tol 1e-12, below the float spacing
    # there: each search ends on adjacent floats
    with raises_after(60):
        code, out, _ = run(capsys, ["axioms", "--scenario", FORWARD, "--step", "0", "--grid=-30000,0,30000"])
    assert code == 0
    assert "FAIL" not in out


class TestCCE:
    def test_villa_time0(self, capsys):
        code, out, _ = run(capsys, ["cce", "--scenario", VILLA, "--f", "villa_t1", "--s", "0"])
        assert code == 0
        assert "1099900" in out


class TestAxioms:
    def test_villa_induced_oracle_passes(self, capsys):
        code, out, _ = run(capsys, ["axioms", "--scenario", VILLA, "--step", "0"])
        assert code == 0
        assert "[T.1 local-completeness @ step 0] PASS" in out
        assert "FAIL" not in out

    def test_deterministic_given_seed(self, capsys):
        args = ["axioms", "--scenario", VILLA, "--step", "0", "--seed", "7"]
        _, first, _ = run(capsys, args)
        _, second, _ = run(capsys, args)
        assert first == second

    @pytest.mark.parametrize("step", ["7", "-1"])
    def test_step_out_of_range_is_input_error(self, capsys, step):
        code, out, err = run(capsys, ["axioms", "--scenario", VILLA, "--step", step])
        assert code == 2
        assert out == ""
        assert f"--step {step} out of range 0..1" in err


class TestRecoverUniqueness:
    def test_round_trip_document(self, capsys, tmp_path):
        out_path = str(tmp_path / "recovered.sdu")
        code, out, _ = run(
            capsys,
            ["recover", "--scenario", VILLA, "--out", out_path,
             "--allow-few-essential", "--accept-tol", "1e-3"],
        )
        assert code == 0
        assert "verdict agreement: 100/100" in out
        recovered = load_scenario(out_path)
        assert recovered.space.states == ("d1", "d2", "ok")
        code, out, _ = run(
            capsys,
            ["uniqueness", "--scenario", VILLA, "--other", out_path, "--tol", "1e-3"],
        )
        assert code == 0
        assert "ACCEPT" in out

    def test_self_uniqueness_accepts(self, capsys):
        code, out, _ = run(capsys, ["uniqueness", "--scenario", VILLA, "--other", VILLA])
        assert code == 0
        assert "max deviation: 0.0" in out

    def test_few_essential_guard(self, capsys):
        code, _, err = run(capsys, ["recover", "--scenario", VILLA])
        assert code == 2
        assert "three" in err

    def test_bracket_failure_is_input_error(self, capsys, tmp_path):
        # exp(2) at t0 is bounded above by 1/2, so no constant brackets a
        # terminal act worth more than that
        path = tmp_path / "exp2.sdu"
        path.write_text(
            "title = exp2\n\n[space]\nstates = a, b, c\ntimes = 0, 1\n"
            "partition t=0 = a, b, c\npartition t=1 = a | b | c\n\n"
            "[measure]\na = 1/3\nb = 1/3\nc = 1/3\n\n"
            "[utility t=0]\na, b, c = exp(2)\n\n"
            "[utility t=1]\na = identity\nb = identity\nc = identity\n"
        )
        code, out, err = run(capsys, ["recover", "--scenario", str(path)])
        assert code == 2
        assert out == ""
        assert err == "error: no upper bracket on {a,b,c} at step 0\n"

    @pytest.mark.parametrize("pairs", ["0", "-1"])
    def test_pairs_below_one_is_input_error(self, capsys, pairs):
        code, out, err = run(
            capsys,
            ["recover", "--scenario", VILLA, "--pairs", pairs,
             "--allow-few-essential", "--accept-tol", "1e-3"],
        )
        assert code == 2
        assert out == ""
        assert f"--pairs must be at least 1, got {pairs}" in err


class TestExamples:
    @pytest.mark.parametrize("name", ["villa", "dpp", "forward"])
    def test_examples_run_clean(self, capsys, name):
        code, out, _ = run(capsys, ["example", name])
        assert code == 0 and out

    def test_villa_variant_flag(self, capsys):
        code, out, _ = run(capsys, ["example", "villa", "--variant", "paper-stated"])
        assert code == 0
        assert "1099900" in out

    def test_example_dpp_scenario_override(self, capsys):
        code, out, _ = run(capsys, ["example", "dpp", "--scenario", BINOMIAL])
        assert code == 0
        assert "optimal policy" in out

    def test_example_output_deterministic(self, capsys):
        _, first, _ = run(capsys, ["example", "villa"])
        _, second, _ = run(capsys, ["example", "villa"])
        assert first == second

    @pytest.mark.parametrize("variant", [[], ["--variant", "paper-stated"]])
    def test_villa_on_the_shipped_file_matches_the_builtin(self, capsys, variant):
        _, builtin, _ = run(capsys, ["example", "villa"] + variant)
        code, out, _ = run(capsys, ["example", "villa", "--scenario", VILLA] + variant)
        assert code == 0 and out == builtin

    def test_villa_examines_the_file_it_is_given(self, capsys):
        code, out, err = run(capsys, ["example", "villa", "--scenario", BINOMIAL])
        assert code == 2
        assert out == ""
        assert "no act cash, villa_t1, villa_t2" in err

    @pytest.mark.parametrize("variant", ["paper-arithmetic", "paper-stated"])
    @pytest.mark.parametrize("n_times", [1, 2])
    def test_villa_with_fewer_than_three_times_is_input_error(self, capsys, tmp_path, n_times, variant):
        short = tmp_path / "short.sdu"
        short.write_text(short_villa_text(n_times, variant), encoding="utf-8")
        code, out, err = run(capsys, ["example", "villa", "--scenario", str(short)])
        assert code == 2
        assert out == ""
        assert f"villa scenario needs three times (t0, t1, t2), got {n_times}" in err

    def test_edited_villa_under_paper_arithmetic_is_input_error(self, capsys, tmp_path):
        text = Path(VILLA).read_text(encoding="utf-8")
        edited = tmp_path / "edited.sdu"
        edited.write_text(text.replace("ok = 1800000", "ok = 900000"), encoding="utf-8")
        code, out, err = run(capsys, ["example", "villa", "--scenario", str(edited)])
        assert code == 2
        assert out == ""
        assert "villa_t2 differ" in err and "--variant paper-stated" in err
        code, out, _ = run(
            capsys, ["example", "villa", "--scenario", str(edited), "--variant", "paper-stated"]
        )
        assert out.startswith("villa scenario, variant = paper-stated")

    @pytest.mark.parametrize("name", ["dpp", "forward"])
    def test_variant_is_for_villa_only(self, capsys, name):
        code, out, err = run(capsys, ["example", name, "--variant", "paper-stated"])
        assert code == 2
        assert out == ""
        assert f"--variant applies to example villa only, not example {name}" in err

    def test_unknown_section_header_is_input_error(self, capsys, tmp_path):
        text = Path(VILLA).read_text(encoding="utf-8")
        typo = tmp_path / "typo.sdu"
        typo.write_text(text.replace("[act villa_t2 t=2]", "[act villa_t2 at t=2]"), encoding="utf-8")
        code, out, err = run(capsys, ["example", "villa", "--scenario", str(typo)])
        assert code == 2
        assert out == ""
        assert "unknown section [act villa_t2 at t=2]" in err


# (subcommand with its required arguments, flag it does not read)
UNREAD_FLAGS = [
    (["cce", "--scenario", VILLA, "--f", "villa_t1"], "--grid=0,1"),
    (["cce", "--scenario", VILLA, "--f", "villa_t1"], "--seed=1"),
    (["compare", "--scenario", VILLA, "--g", "cash", "--f", "villa_t2"], "--grid=0,1"),
    (["compare", "--scenario", VILLA, "--g", "cash", "--f", "villa_t2"], "--seed=1"),
    (["semigroup", "--scenario", VILLA], "--grid=0,1"),
    (["semigroup", "--scenario", VILLA], "--seed=1"),
    (["uniqueness", "--scenario", VILLA, "--other", VILLA], "--seed=1"),
    (["axioms", "--scenario", VILLA, "--step", "0"], "--format=tsv"),
    (["example", "villa"], "--tol=1e-3"),
    (["example", "villa"], "--grid=0,1"),
    (["example", "villa"], "--seed=1"),
    (["example", "villa"], "--format=tsv"),
]


@pytest.mark.parametrize(
    "args, flag", UNREAD_FLAGS, ids=[f"{a[0]}{f.split('=')[0]}" for a, f in UNREAD_FLAGS]
)
def test_subcommand_rejects_flags_it_does_not_read(capsys, args, flag):
    code, out, err = run(capsys, args + [flag])
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {flag}" in err


def _readme_commands() -> list[list[str]]:
    """The ``itpref`` lines of the README's "## Command line" block, without
    trailing comments."""
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n+```\n(.*?)^```", text, re.S | re.M).group(1)
    return [
        shlex.split(line.split("#")[0])
        for line in block.splitlines()
        if line.startswith("itpref ")
    ]


def test_readme_command_line_block_runs(capsys, monkeypatch, tmp_path):
    commands = _readme_commands()
    assert commands
    monkeypatch.chdir(REPO_ROOT)
    out_path = str(tmp_path / "out.sdu")
    for words in commands:
        args = [out_path if w == "out.sdu" else w for w in words[1:]]
        code, _, err = run(capsys, args)
        assert code == 0, f"{' '.join(words)} exited {code}: {err}"


# (subcommand with its required arguments, invalid tolerance flag)
BAD_TOLERANCES = [
    (["compare", "--scenario", RANDOM8, "--g", "payoff_mid", "--f", "payoff_a"], "--tol=-1"),
    (["compare", "--scenario", RANDOM8, "--g", "payoff_mid", "--f", "payoff_a"], "--tol=nan"),
    (["cce", "--scenario", VILLA, "--f", "villa_t1"], "--tol=inf"),
    (["axioms", "--scenario", VILLA, "--step", "0"], "--tol=-1"),
    (["recover", "--scenario", VILLA, "--allow-few-essential"], "--accept-tol=-1e-6"),
    (["recover", "--scenario", VILLA, "--allow-few-essential"], "--accept-tol=nan"),
]


@pytest.mark.parametrize(
    "args, flag", BAD_TOLERANCES, ids=[f"{a[0]}{f}" for a, f in BAD_TOLERANCES]
)
def test_tolerance_must_be_finite_and_nonnegative(capsys, args, flag):
    code, out, err = run(capsys, args + [flag])
    assert code == 2
    assert out == ""
    assert f"argument {flag.split('=')[0]}: must be finite and >= 0" in err


HUGE = f"{10**400}/3"  # a finite Fraction whose float overflows

# (subcommand with its required arguments), each reading --grid
GRID_COMMANDS = [
    ["recover", "--scenario", BINOMIAL, "--allow-few-essential"],
    ["axioms", "--scenario", BINOMIAL],
    ["uniqueness", "--scenario", BINOMIAL, "--other", BINOMIAL],
]


@pytest.mark.parametrize("args", GRID_COMMANDS, ids=[a[0] for a in GRID_COMMANDS])
def test_grid_value_beyond_float_range_is_input_error(capsys, args):
    code, out, err = run(capsys, args + [f"--grid=-1,0,1,{HUGE}"])
    assert code == 2
    assert out == ""
    assert f"error: --grid value '{HUGE}' is beyond the float range" in err


@pytest.mark.parametrize("args", GRID_COMMANDS, ids=[a[0] for a in GRID_COMMANDS])
def test_grid_value_with_a_digit_separator_is_input_error(capsys, args):
    # Fraction reads "1_0/3" from Python 3.11 on; no version may accept it
    for value in ("1_000", "1_0/3"):
        code, out, err = run(capsys, args + [f"--grid=-1,0,1,{value}"])
        assert code == 2
        assert out == ""
        assert f"error: not a number: '{value}'" in err


@pytest.mark.parametrize("args", GRID_COMMANDS, ids=[a[0] for a in GRID_COMMANDS])
def test_grid_whose_extension_overflows_is_input_error(capsys, args):
    # 1e308 is a float, but the audits' +-4*max|grid| constants are not
    code, out, err = run(capsys, args + ["--grid=-1,0,1,1e308"])
    assert code == 2
    assert out == ""
    assert "error: grid value 1e+308 is too large" in err


def test_axioms_on_a_float_scenario_rejects_grid_values_with_one_float(capsys):
    code, out, err = run(capsys, [
        "axioms", "--scenario", BINOMIAL, "--step", "0",
        "--grid=-1,0,1,1000000000000000001/1000000000000000000",
    ])
    assert code == 2
    assert out == ""
    assert "1 and 1000000000000000001/1000000000000000000 are the same float 1.0" in err
