"""The benchmark's four workloads: seeded inputs, ops and their checks.

An op is one timed call into the library's public API (``run``) plus an
untimed ``check`` of its result.  Checks use the acceptance suite's gates or
references the benchmark computes itself, never the code under test.  Each
workload's ``stream`` is a sequence of rounds of ``round_size`` ops with the
same mix; the timed loop cycles it and stops on a round boundary, so every
run measures whole rounds.  ``traced_ops`` is the fixed op count of the
traced run, so its counts repeat exactly per seed.

Library functions are called through their module (``engine.cce``) so that
the traced run sees them at the same binding the library's own callers use.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from itpref import axioms, cli, controls, curves, engine, oracles, recovery, sampling
from itpref.engine import Representation
from itpref.filtered_space import Act, ProbabilityMeasure
from itpref.utility_field import UtilityField

# Default seeds are the acceptance suite's; evaluate's second sub-fleet keeps
# criterion 6's offset from criterion 2 (2024 -> 6).
DEFAULT_SEEDS = {"recover": 77, "audit": 55, "evaluate": 2024, "cli": 0}
CLOSED_FORM_OFFSET = 6 - 2024


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


@dataclass
class Workload:
    stream: list[Op]
    round_size: int
    traced_ops: int


# ---------------------------------------------------------------------------
# the benchmark's own arithmetic for references

def _atoms(P: ProbabilityMeasure, s: int):
    """(members, mass) of every time-s atom, computed from the weights."""
    space = P.space
    for k in range(space.n_atoms(s)):
        members = space.atom_members(s, k)
        yield members, sum((P.weights[m] for m in members), 0)


def pl_value(points, x):
    """The benchmark's own piecewise-linear evaluation, exact on Fractions."""
    k = 0 if x <= points[0][0] else len(points) - 2 if x >= points[-1][0] else next(
        j for j in range(len(points) - 1) if points[j][0] <= x <= points[j + 1][0]
    )
    (x0, y0), (x1, y1) = points[k], points[k + 1]
    return y0 + (y1 - y0) / (x1 - x0) * (x - x0)


def curve_value(curve, x):
    """Own evaluation of identity, linear and continuous piecewise-linear
    curves from their parameters; exact on Fractions."""
    if isinstance(curve, curves.LinearCurve):
        return curve.slope * x
    if isinstance(curve, curves.PiecewiseLinearCurve):
        return pl_value([(a[0], a[2]) for a in curve.anchors], x)
    if type(curve) is curves.IdentityCurve:
        return x
    raise TypeError(f"no reference for {curve.spec()}")


def curve_inverse(curve, y):
    if isinstance(curve, curves.LinearCurve):
        return y / curve.slope
    if isinstance(curve, curves.PiecewiseLinearCurve):
        return pl_value([(a[2], a[0]) for a in curve.anchors], y)
    if type(curve) is curves.IdentityCurve:
        return y
    raise TypeError(f"no reference for {curve.spec()}")


# ---------------------------------------------------------------------------
# recover: oracle-only recovery round trips (acceptance criterion 3)

RECOVER_CASES = 6       # cases per op; a 20 s run takes two or three ops
RECOVER_ROUNDS = 8


def criterion3_spaces(n_cases: int) -> list:
    """Tree shapes of the first cases of criterion 3's generator (seed 77).

    Recovery cost is set mostly by the tree shape, so shapes are held fixed
    across workload seeds and the seed draws measures and curves on them;
    otherwise per-seed timings would measure which trees were drawn.
    """
    rng = random.Random(77)
    return [
        sampling.random_representation(
            rng, n_times=3 if c % 2 == 0 else 4, kinds=("pl",), min_first_split=3
        ).space
        for c in range(n_cases)
    ]


def recover_case(make_oracle, u0, truth: Representation | None, case: int):
    """One recovery: (run, check) for the oracle ``make_oracle()``."""

    def run():
        return recovery.recover_representation(make_oracle(), u0, tol=1e-10)

    def check(result) -> bool:
        if truth is None or result.max_debreu_residual > 1e-8:
            return False
        if not recovery.check_relative_uniqueness(truth, result.rep, tol=1e-6).accepted:
            return False
        _, flips = sampling.verdict_agreement(truth, result.rep, 500, seed=case)
        return flips == 0

    return run, check


def induced_case(rep: Representation, case: int):
    return recover_case(lambda: oracles.InducedOracle(rep, tol=1e-12), rep.u0, rep, case)


def cases_op(label: str, cases) -> Op:
    """Consecutive round trips, one per case.

    Per-case times are bimodal by horizon and, with six tree shapes, spread
    over six levels; a median over single cases, or over pairs of them,
    is one of a few order statistics of those levels, which moves with the
    host's speed more than a median over whole rounds of shapes does."""

    def run():
        return [r() for r, _ in cases]

    def check(results) -> bool:
        return all(c(res) for (_, c), res in zip(cases, results))

    return Op(label, run, check)


def build_recover(seed: int) -> Workload:
    """Each op is a round over the same first cases' shapes, with fresh
    values each round, so every op has the same shape mix."""
    rng = random.Random(seed)
    stream = []
    spaces = criterion3_spaces(RECOVER_CASES)
    for r in range(RECOVER_ROUNDS):
        cases = []
        for c in range(RECOVER_CASES):
            rep = sampling.random_representation(rng, kinds=("pl",), space=spaces[c])
            cases.append(induced_case(rep, c + RECOVER_CASES * r))
        stream.append(cases_op("round", cases))
    return Workload(stream, 1, 1)


# ---------------------------------------------------------------------------
# audit: axiom audits of induced oracles and the five controls (criterion 5)

AUDIT_ROUNDS = 4        # a 20 s run takes two or three


def audit_job(label: str, make_oracle, steps, f_by_step, expected: list[str]) -> Op:
    """Audit a fresh oracle with every check in every continuity style; the
    result is the sorted list of axiom families that failed."""

    def run():
        oracle = make_oracle()
        failed = set()
        for i in steps:
            if not axioms.check_T(oracle, i).passed:
                failed.add("T")
            if not axioms.check_M(oracle, i).passed:
                failed.add("M")
            if not axioms.check_ST(oracle, i).passed:
                failed.add("ST")
            styles = [axioms.check_C(oracle, i, f_by_step[i], s).passed for s in axioms.C_STYLES]
            if not all(styles):
                failed.add("C")
        return sorted(failed)

    return Op(label, run, lambda failed: failed == expected)


def control_jobs() -> list[tuple[str, Callable, Act, str]]:
    """(name, oracle factory, continuity act, target family) per control."""
    _, jump_witness = controls.jump_on_positive_atom()
    fleet = [
        ("always-succeq", controls.always_succeq, None, "T"),
        ("intransitive-band", controls.intransitive_band, None, "T"),
        ("flat-segment", controls.flat_segment, None, "M"),
        ("mean-max", controls.nonadditive_meanmax, None, "ST"),
        ("jump", lambda: controls.jump_on_positive_atom()[0], jump_witness, "C"),
    ]
    out = []
    for name, factory, witness, target in fleet:
        space = factory().space
        f_c = witness if witness is not None else Act.from_atom_values(space, 1, [1, 0, -1])
        out.append((name, factory, f_c, target))
    return out


def redraw_parameters(rng: random.Random, model: Representation) -> Representation:
    """``model``'s tree and curve kinds with a fresh measure and fresh curve
    parameters, drawn as ``sampling.random_representation`` draws them."""
    space = model.space
    P = sampling.random_measure(rng, space)
    rows = []
    for i in range(space.n_times):
        row = []
        for k in range(space.n_atoms(i)):
            kind = type(model.field.curve_on_atom(i, k))
            if kind is curves.LinearCurve:
                row.append(curves.LinearCurve(rng.uniform(0.3, 1.4)))
            elif kind is curves.PiecewiseLinearCurve:
                row.append(sampling.random_pl_curve(rng))
            else:
                row.append(curves.IdentityCurve())
        rows.append(row)
    return Representation(space, P, UtilityField.from_atom_curves(space, rows))


def expected_induced_failures(rep: Representation, steps) -> list[str]:
    """[] for an induced oracle, except ["T"] when a constant act at a grid
    extreme has its certainty equivalent beyond the transition check's
    search extension (4 x max|grid|): that check's non-degeneracy search is
    bounded and documented to report failure within the extension."""
    grid = axioms.DEFAULT_GRID
    reach = max(grid.extended())
    for i in steps:
        u_now, u_next = rep.field.curves_by_state[i], rep.field.curves_by_state[i + 1]
        for members, mass in _atoms(rep.P, i):
            if mass == 0:
                continue
            for v in (min(grid.values), max(grid.values)):
                y = sum(rep.P.weights[m] * curve_value(u_next[m], v) for m in members) / mass
                if abs(curve_inverse(u_now[members[0]], y)) > reach:
                    return ["T"]
    return []


def build_audit(seed: int) -> Workload:
    """Rounds of one induced oracle and the five controls.  Criterion 5's
    representation fixes the induced oracles' tree and curve kinds (see
    criterion3_spaces); each round draws the measure, the curve parameters
    and the continuity acts from the workload seed."""
    model = sampling.random_representation(
        random.Random(55), n_times=3, kinds=("pl", "linear", "identity"), min_first_split=3
    )
    rng = random.Random(seed)
    controls_ = control_jobs()
    stream = []
    for r in range(AUDIT_ROUNDS):
        rep = redraw_parameters(rng, model)
        fs = {i: sampling.random_act(rng, rep.space, i + 1) for i in (0, 1)}
        stream.append(audit_job(
            "induced", lambda rep=rep: oracles.InducedOracle(rep), (0, 1), fs,
            expected_induced_failures(rep, (0, 1)),
        ))
        for name, factory, f_c, target in controls_:
            stream.append(audit_job(name, factory, (0,), {0: f_c}, [target]))
    return Workload(stream, 1 + len(controls_), 1 + len(controls_))


# ---------------------------------------------------------------------------
# evaluate: cce / compare / semigroup / time-consistency queries

EVAL_MIX, EVAL_EXP, EVAL_EXACT = 128, 64, 64
EVAL_ROUNDS = 256
# one round of the closed-loop stream; kinds are interleaved, not drawn, so
# every run sees the same mix
EVAL_ROUND = (
    "cce-exp", "semigroup", "compare-exact", "cce-exact",
    "cce-exp", "semigroup", "compare-exact", "tc-exp",
    "cce-exp", "semigroup", "compare-exact", "cce-exact",
    "cce-exp", "semigroup", "compare-exact-id", "tc-exp",
)
SEMIGROUP_TOL = 1e-9
PL_XS = tuple(Fraction(x) for x in ("-2", "-1", "-1/2", "0", "1/2", "1", "2"))


def null_level1_states(rng: random.Random, space) -> tuple[int, ...]:
    """For a quarter of the fleet, the states of one time-1 atom, so that
    null atoms appear at every later time and the null-fill path runs."""
    if space.n_atoms(1) < 2 or rng.random() >= 0.25:
        return ()
    return space.atom_members(1, rng.randrange(space.n_atoms(1)))


def rational_pl_points(rng: random.Random) -> list[tuple[Fraction, Fraction]]:
    """Points of a curve through 0 with rational breakpoints and slopes."""
    zero = PL_XS.index(0)
    ys = {zero: Fraction(0)}
    for i in range(zero, len(PL_XS) - 1):
        ys[i + 1] = ys[i] + Fraction(rng.randint(3, 14), 10) * (PL_XS[i + 1] - PL_XS[i])
    for i in range(zero, 0, -1):
        ys[i - 1] = ys[i] - Fraction(rng.randint(3, 14), 10) * (PL_XS[i] - PL_XS[i - 1])
    return [(x, ys[i]) for i, x in enumerate(PL_XS)]


def exact_rep(rng: random.Random, pl: bool) -> Representation:
    """Fraction weights with identity or rational piecewise-linear curves."""
    space = sampling.random_space(rng)
    null = null_level1_states(rng, space)
    raw = [0 if s in null else rng.randint(1, 9) for s in range(space.n_states)]
    P = ProbabilityMeasure(space, tuple(Fraction(w, sum(raw)) for w in raw))
    rows = [
        [curves.PiecewiseLinearCurve.from_points(rational_pl_points(rng)) if pl
         else curves.IdentityCurve() for _ in range(space.n_atoms(i))]
        for i in range(space.n_times)
    ]
    return Representation(space, P, UtilityField.from_atom_curves(space, rows))


def exp_rep(rng: random.Random) -> tuple[Representation, float]:
    space = sampling.random_space(rng)
    P = sampling.random_measure(rng, space, null_states=null_level1_states(rng, space))
    a = rng.uniform(0.25, 0.5)
    rows = [[curves.ExponentialCurve(a)] * space.n_atoms(i) for i in range(space.n_times)]
    return Representation(space, P, UtilityField.from_atom_curves(space, rows)), a


def exact_act(rng: random.Random, space, i: int) -> Act:
    return Act.from_atom_values(
        space, i, [Fraction(rng.randint(-16, 16), 8) for _ in range(space.n_atoms(i))]
    )


def _null_fill_ok(result: Act, P: ProbabilityMeasure, s: int) -> bool:
    expected = {m for members, mass in _atoms(P, s) if mass == 0 for m in members}
    return set(result.null_fill) == expected and all(result.values[m] == 0 for m in expected)


def exp_closed_form(P: ProbabilityMeasure, a: float, f: Act, s: int) -> list:
    """-(1/a) ln E[e^{-a f} | F_s] per time-s atom; None on null atoms."""
    out = []
    for members, mass in _atoms(P, s):
        if mass == 0:
            out.append(None)
            continue
        mean = sum(P.weights[m] * math.exp(-a * float(f.values[m])) for m in members) / mass
        out.append(-math.log(mean) / a)
    return out


def cce_exp_op(rep, a, s, t, f, perturb: float = 0.0) -> Op:
    def check(result: Act) -> bool:
        want = exp_closed_form(rep.P, a, f, s)
        for (members, _), w in zip(_atoms(rep.P, s), want):
            if w is not None and abs(result.values[members[0]] - (w + perturb)) > 1e-10:
                return False
        return _null_fill_ok(result, rep.P, s)

    return Op("cce-exp", lambda: engine.cce(rep, s, t, f), check)


def cce_exact_op(rep, s, t, f) -> Op:
    P = rep.P

    def check(result: Act) -> bool:
        for members, mass in _atoms(P, s):
            if mass == 0:
                continue
            want = sum(P.weights[m] * f.values[m] for m in members) / mass
            got = result.values[members[0]]
            if type(got) is not Fraction or got != want:
                return False
        return _null_fill_ok(result, P, s)

    return Op("cce-exact", lambda: engine.cce(rep, s, t, f), check)


def compare_exact_op(label: str, rep, s, t, g, f) -> Op:
    P = rep.P
    u_s, u_t = rep.field.curves_by_state[s], rep.field.curves_by_state[t]
    tol = 1e-9

    def check(verdict) -> bool:
        signs = set()
        for members, mass in _atoms(P, s):
            if mass == 0:
                continue
            later = sum(P.weights[m] * curve_value(u_t[m], f.values[m]) for m in members) / mass
            first = members[0]
            want = curve_value(u_s[first], g.values[first]) - later
            if verdict.margin.values[first] != want:
                return False
            signs.add(0 if abs(want) <= tol else 1 if want > 0 else -1)
        tag = ("equiv" if signs <= {0} else "succeq" if -1 not in signs
               else "preceq" if 1 not in signs else "mixed")
        return verdict.tag == tag

    return Op(label, lambda: engine.compare(rep, s, t, g, f, tol), check)


def semigroup_op(rep, s, t, v, f) -> Op:
    return Op(
        "semigroup",
        lambda: engine.semigroup_residual(rep, s, t, v, f, SEMIGROUP_TOL),
        lambda r: r <= 10 * SEMIGROUP_TOL,
    )


def tc_exp_op(rep, a, s, t, v, f, side: float) -> Op:
    """Time consistency with g set a quarter off f's closed-form certainty
    equivalent on every atom, so the s..v verdict is one-sided."""
    want = exp_closed_form(rep.P, a, f, s)
    g = Act.from_atom_values(rep.space, s, [0 if w is None else w + side for w in want])
    return Op(
        "tc-exp",
        lambda: engine.time_consistency_check(rep, s, t, v, g, f),
        lambda consistent: consistent is True,
    )


def _two_times(rng: random.Random, space) -> tuple[int, int]:
    s = rng.randrange(0, space.last_index)
    return s, rng.randrange(s + 1, space.last_index + 1)


def _three_times(rng: random.Random, space) -> tuple[int, int, int]:
    v = rng.randrange(2, space.last_index + 1)
    s = rng.randrange(0, v - 1)
    return s, rng.randrange(s + 1, v), v


def build_evaluate(seed: int) -> Workload:
    mix_rng = random.Random(seed)
    rng = random.Random(seed + CLOSED_FORM_OFFSET)
    mix = [sampling.random_representation(mix_rng) for _ in range(EVAL_MIX)]
    exps = [exp_rep(rng) for _ in range(EVAL_EXP)]
    ids = [exact_rep(rng, pl=False) for _ in range(EVAL_EXACT // 2)]
    pls = [exact_rep(rng, pl=True) for _ in range(EVAL_EXACT // 2)]
    stream = []
    for r in range(EVAL_ROUNDS):
        for kind in EVAL_ROUND:
            if kind == "cce-exp":
                rep, a = rng.choice(exps)
                s, t = _two_times(rng, rep.space)
                stream.append(cce_exp_op(rep, a, s, t, sampling.random_act(rng, rep.space, t)))
            elif kind == "cce-exact":
                rep = rng.choice(ids)
                s, t = _two_times(rng, rep.space)
                stream.append(cce_exact_op(rep, s, t, exact_act(rng, rep.space, t)))
            elif kind.startswith("compare-exact"):
                rep = rng.choice(ids if kind.endswith("-id") else pls)
                s, t = _two_times(rng, rep.space)
                g = exact_act(rng, rep.space, s)
                stream.append(compare_exact_op(kind, rep, s, t, g, exact_act(rng, rep.space, t)))
            elif kind == "semigroup":
                rep = mix_rng.choice(mix)
                s, t, v = _three_times(mix_rng, rep.space)
                stream.append(semigroup_op(rep, s, t, v, sampling.random_act(mix_rng, rep.space, v)))
            else:
                rep, a = rng.choice(exps)
                s, t, v = _three_times(rng, rep.space)
                f = sampling.random_act(rng, rep.space, v)
                stream.append(tc_exp_op(rep, a, s, t, v, f, 0.25 if r % 2 else -0.25))
    return Workload(stream, len(EVAL_ROUND), len(stream))


# ---------------------------------------------------------------------------
# cli: in-process ``itpref`` commands on the shipped scenarios

GOLDENS = Path(__file__).resolve().parent / "goldens.json"
CLI_OUT = ".perfbench/cli-recovered.sdu"   # relative: it appears in stdout
CLI_ROUNDS = 128
CLI_TRACED_ROUNDS = 10
CLI_COMMANDS = {
    "cce-villa": ["cce", "--scenario", "scenarios/villa.sdu", "--f", "villa_t1", "--s", "0"],
    "cce-random8": ["cce", "--scenario", "scenarios/random8.sdu", "--f", "payoff_a", "--s", "1"],
    "cce-forward": ["cce", "--scenario", "scenarios/forward.sdu", "--f", "W_a05_2", "--s", "0"],
    "compare-villa": ["compare", "--scenario", "scenarios/villa.sdu", "--g", "cash",
                      "--f", "villa_t2", "--s", "0", "--t", "2"],
    "compare-random8": ["compare", "--scenario", "scenarios/random8.sdu", "--g", "payoff_mid",
                        "--f", "payoff_a", "--format", "tsv"],
    "compare-binomial": ["compare", "--scenario", "scenarios/binomial.sdu", "--g", "X1",
                         "--f", "W_a05_2"],
    "semigroup-random8": ["semigroup", "--scenario", "scenarios/random8.sdu"],
    "semigroup-binomial": ["semigroup", "--scenario", "scenarios/binomial.sdu"],
    "uniqueness-villa": ["uniqueness", "--scenario", "scenarios/villa.sdu",
                         "--other", "scenarios/villa.sdu"],
    "uniqueness-forward": ["uniqueness", "--scenario", "scenarios/forward.sdu",
                           "--other", "scenarios/forward.sdu"],
    "recover-villa": ["recover", "--scenario", "scenarios/villa.sdu", "--out", CLI_OUT,
                      "--allow-few-essential", "--accept-tol", "1e-3"],
    "example-villa": ["example", "villa"],
    "example-dpp": ["example", "dpp", "--scenario", "scenarios/binomial.sdu"],
    "example-forward": ["example", "forward"],
}


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``itpref.cli.main(argv)`` with stdout captured: (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


def cli_op(name: str, argv: list[str], golden: dict) -> Op:
    def check(result) -> bool:
        if list(result) != [golden["code"], golden["stdout"]]:
            return False
        if golden.get("written") is None:
            return True
        out = Path(CLI_OUT)
        written = out.read_text(encoding="utf-8") if out.exists() else None
        if written is not None:
            out.unlink()   # the next run must write it afresh
        return written == golden["written"]

    return Op(name, lambda: run_cli(argv), check)


def capture_goldens() -> dict:
    """Each catalogue command's exit code, stdout and written scenario."""
    goldens = {}
    for name, argv in CLI_COMMANDS.items():
        code, out = run_cli(argv)
        entry = {"argv": argv, "code": code, "stdout": out}
        if CLI_OUT in argv:
            entry["written"] = Path(CLI_OUT).read_text(encoding="utf-8")
            Path(CLI_OUT).unlink()
        goldens[name] = entry
    return goldens


def build_cli(seed: int) -> Workload:
    goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))
    for name, argv in CLI_COMMANDS.items():
        if goldens.get(name, {}).get("argv") != argv:
            raise RuntimeError(f"no golden for cli command {name!r}; see capture_goldens.py")
        for arg in argv:
            if arg.endswith(".sdu") and arg != CLI_OUT and not Path(arg).is_file():
                raise FileNotFoundError(arg)
    Path(CLI_OUT).parent.mkdir(exist_ok=True)
    rng = random.Random(seed)
    names = list(CLI_COMMANDS)
    stream = []
    for _ in range(CLI_ROUNDS):
        rng.shuffle(names)
        stream.extend(cli_op(n, CLI_COMMANDS[n], goldens[n]) for n in names)
    return Workload(stream, len(names), CLI_TRACED_ROUNDS * len(names))


BUILDERS = {
    "recover": build_recover,
    "audit": build_audit,
    "evaluate": build_evaluate,
    "cli": build_cli,
}
