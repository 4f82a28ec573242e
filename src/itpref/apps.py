"""Worked demonstrations: the inheritance (villa) story, the dynamic
programming principle on a binomial market, and the forward-performance
conditions.  Each produces a deterministic text report plus a pass flag.

The villa story ships in two variants because its source arithmetic is
internally inconsistent: ``paper-arithmetic`` reproduces the displayed sums
verbatim in exact rationals (the time-1 comparison lands on 10^6 exactly,
making waiting costless), while ``paper-stated`` treats the stated 1% election
default probability as an actual measure (the time-1 value is then 1,099,900).
Branch verdicts after the election agree under both variants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .curves import ExponentialCurve, IdentityCurve, PiecewiseLinearCurve
from .engine import compare, expected_utility_profile
from .filtered_space import Act, ProbabilityMeasure
from .scenario import ScenarioSpec, StrategySet
from .utility_field import UtilityField
from .filtered_space import FilteredSpace

VILLA_VARIANTS = ("paper-arithmetic", "paper-stated")


@dataclass(frozen=True)
class AppResult:
    text: str
    passed: bool


def _fmt(x) -> str:
    if isinstance(x, Fraction):
        return str(x) if x.denominator != 1 else str(x.numerator)
    return f"{float(x):.12g}"


# ---------------------------------------------------------------------------
# villa


def villa_scenario(variant: str = "paper-arithmetic") -> ScenarioSpec:
    """Three-state election/default tree with the state-dependent utility
    that halves gains and doubles losses once a default has occurred."""
    if variant not in VILLA_VARIANTS:
        raise ValueError(f"variant must be one of {VILLA_VARIANTS}")
    space = FilteredSpace.build(
        states=("d1", "d2", "ok"),
        times=(0, 1, 2),
        partitions=[
            [["d1", "d2", "ok"]],
            [["d1"], ["d2", "ok"]],
            [["d1"], ["d2"], ["ok"]],
        ],
    )
    # P(election default) = 1/100; P(later default | no election default) = 1e-6
    p_d1 = Fraction(1, 100)
    p_d2 = Fraction(99, 100) * Fraction(1, 10**6)
    measure = ProbabilityMeasure(space, (p_d1, p_d2, 1 - p_d1 - p_d2))
    after_default = PiecewiseLinearCurve.from_points(
        [(-1, -2), (0, 0), (1, Fraction(1, 2))]
    )
    ident = IdentityCurve()
    field = UtilityField.from_atom_curves(
        space,
        [
            [ident],
            [after_default, ident],
            [after_default, after_default, ident],
        ],
    )
    acts = {
        "cash": Act.constant(space, 0, 10**6),
        "villa_t1": Act(space, 1, (200_000, 1_110_000, 1_110_000)),
        "villa_t2": Act(space, 2, (200_000, 200_000, 1_800_000)),
    }
    return ScenarioSpec(space, measure, field, acts, None, "villa", variant)


def villa_t2_formula() -> Fraction:
    """The displayed time-2 expected payoff, in exact rationals."""
    big = Fraction(18, 10) * 10**6
    small = Fraction(1, 2) * 2 * 10**5
    eps1, eps2 = Fraction(1, 100), Fraction(1, 10**6)
    return big * (1 - eps1 - eps2) + small * (eps1 + eps2)


def villa_t1_value(variant: str = "paper-arithmetic") -> Fraction:
    """Time-1 expected payoff entering the t0 comparison, exact."""
    if variant == "paper-arithmetic":
        # the source's own weights: 9/10 on the intact branch, 1/100 on default
        return Fraction(111, 100) * 10**6 * Fraction(9, 10) + Fraction(1, 2) * 2 * 10**5 * Fraction(1, 100)
    spec = villa_scenario(variant)
    rep = spec.representation()
    value = rep.P.expectation(rep.field.eval(1, spec.acts["villa_t1"]))
    return Fraction(value)


def villa_t2_value(variant: str = "paper-arithmetic") -> Fraction:
    if variant == "paper-arithmetic":
        return villa_t2_formula()
    spec = villa_scenario(variant)
    rep = spec.representation()
    return Fraction(rep.P.expectation(rep.field.eval(2, spec.acts["villa_t2"])))


def run_villa(variant: str = "paper-arithmetic") -> AppResult:
    spec = villa_scenario(variant)
    rep = spec.representation()
    cash, villa_t1, villa_t2 = (
        spec.acts["cash"], spec.acts["villa_t1"], spec.acts["villa_t2"],
    )
    t2_value = villa_t2_value(variant)
    t1_value = villa_t1_value(variant)
    v02 = compare(rep, 0, 2, cash, villa_t2)
    branch = compare(rep, 1, 2, cash.at_time(1), villa_t2)
    on_d1 = "SUCCEQ" if {0} <= branch.tri.B.members else "PRECEQ"
    on_rest = "PRECEQ" if {1, 2} <= branch.tri.C.members else "SUCCEQ"
    lines = [
        f"villa scenario, variant = {variant}",
        "immediate cash at t0: 1000000",
        "",
        "t0 versus t2 (neglecting the intermediate time):",
        f"  expected payoff = 1.8e6*(1 - 1e-2 - 1e-6) + (1/2)*2e5*(1e-2 + 1e-6)"
        f" = {villa_t2_formula()} = {float(villa_t2_formula()):.1f}"
        if variant == "paper-arithmetic"
        else f"  expected payoff under the stated measure = {t2_value} = {float(t2_value):.3f}",
        f"  verdict cash vs villa at t2: {v02.tag.upper()} (the villa wins this comparison)",
        "",
        "t0 versus t1 (deciding whether to wait):",
    ]
    if variant == "paper-arithmetic":
        lines += [
            f"  expected payoff = 1.11e6*(9/10) + (1/2)*2e5*(1/100) = {t1_value}",
            "  verdict cash vs villa at t1: EQUIV (indifferent, so waiting costs nothing)",
        ]
    else:
        lines += [
            f"  expected payoff = {t1_value} (measure path with a 1% election default)",
            "  verdict cash vs villa at t1: PRECEQ (waiting is strictly attractive)",
        ]
    lines += [
        "",
        "per-branch verdicts at t1, cash against the villa at t2:",
        f"  on {{d1}} (election default): {on_d1} (take the cash)",
        f"  on {{d2,ok}} (no election default): {on_rest} (take the villa)",
        "",
        "optimal policy: wait at t0; after the election take the cash on {d1}"
        " and the villa on {d2,ok}",
    ]
    passed = (
        v02.tag == "preceq"
        and on_d1 == "SUCCEQ"
        and on_rest == "PRECEQ"
        and (variant != "paper-arithmetic" or t1_value == 10**6)
    )
    return AppResult("\n".join(lines) + "\n", passed)


# ---------------------------------------------------------------------------
# dynamic programming demo


def dpp_scenario() -> ScenarioSpec:
    """Two-period binomial market with momentum: after good news the risky
    asset is attractive, after bad news it is not; terminal utility is
    exponential."""
    space = FilteredSpace.build(
        states=("uu", "ud", "du", "dd"),
        times=(0, 1, 2),
        partitions=[
            [["uu", "ud", "du", "dd"]],
            [["uu", "ud"], ["du", "dd"]],
            [["uu"], ["ud"], ["du"], ["dd"]],
        ],
    )
    measure = ProbabilityMeasure(
        space, (Fraction(2, 5), Fraction(1, 10), Fraction(1, 20), Fraction(9, 20))
    )
    ident = IdentityCurve()
    expo = ExponentialCurve(1.0)
    field = UtilityField.from_atom_curves(
        space, [[ident], [ident, ident], [expo, expo, expo, expo]]
    )
    up, down = 1.2, 0.95
    acts = {
        "X1": Act.constant(space, 1, 1),
        "W_a0_2": Act.constant(space, 2, 1),
        "W_a05_2": Act(space, 2, tuple(1 + 0.5 * (r - 1) for r in (up, down, up, down))),
        "W_a1_2": Act(space, 2, (up, down, up, down)),
    }
    strategies = StrategySet(
        t=1,
        horizon=2,
        endowment="X1",
        members=(
            ("a0", ("X1", "W_a0_2")),
            ("a05", ("X1", "W_a05_2")),
            ("a1", ("X1", "W_a1_2")),
        ),
    )
    return ScenarioSpec(space, measure, field, acts, strategies, "binomial-dpp", None)


def run_dpp(spec: ScenarioSpec | None = None, tol: float = 1e-9) -> AppResult:
    """Exhaustive value function over the declared strategy set, the
    dominance inequality for every strategy, and equality at the argmax."""
    spec = spec if spec is not None else dpp_scenario()
    if spec.strategies is None:
        raise ValueError("scenario declares no strategy set")
    st = spec.strategies
    rep = spec.representation()
    space = spec.space
    t, horizon = st.t, st.horizon
    atom_count = space.n_atoms(t)
    profiles: dict[str, tuple[float, ...]] = {}
    for name, path in st.members:
        terminal = spec.acts[path[-1]]
        prof = expected_utility_profile(rep, t, horizon, terminal)
        profiles[name] = tuple(float(v) for v in prof.atom_values())
    v = tuple(max(profiles[n][k] for n, _ in st.members) for k in range(atom_count))
    argmax = tuple(
        next(n for n, _ in st.members if profiles[n][k] == v[k])
        for k in range(atom_count)
    )
    dominance_ok = all(
        v[k] >= profiles[n][k] for n, _ in st.members for k in range(atom_count)
    )
    equality_ok = all(abs(v[k] - profiles[argmax[k]][k]) <= tol for k in range(atom_count))
    lines = [
        f"dynamic programming demo: {len(st.members)} strategies from t{t} to t{horizon}",
        f"endowment {st.endowment} held at t{t}",
        "",
        "conditional expected terminal utility per strategy and atom:",
    ]
    for name, _ in st.members:
        cells = ", ".join(
            f"{space.atom_label(t, k)}: {_fmt(profiles[name][k])}"
            for k in range(atom_count)
        )
        lines.append(f"  {name}: {cells}")
    lines += [
        "value function v(t, X) = exhaustive maximum per atom:",
        "  " + ", ".join(
            f"{space.atom_label(t, k)}: {_fmt(v[k])} at {argmax[k]}"
            for k in range(atom_count)
        ),
        "",
        f"dominance v >= E[u(V_T)|F_t] for every strategy, atom-wise: "
        f"{'PASS' if dominance_ok else 'FAIL'}",
        f"equality at the reported optimum within {tol:g}: "
        f"{'PASS' if equality_ok else 'FAIL'}",
        "",
        "intertemporal reading: the endowment weakly dominates every strategy's"
        " terminal value and is equivalent to the optimal one:",
    ]
    for name, _ in st.members:
        dev = max(abs(v[k] - profiles[name][k]) for k in range(atom_count))
        lines.append(f"  X vs terminal({name}): {'EQUIV' if dev <= tol else 'SUCCEQ'}")
    per_atom_policy = ", ".join(
        f"{argmax[k]} on {space.atom_label(t, k)}" for k in range(atom_count)
    )
    lines += ["", f"optimal policy: {per_atom_policy}"]
    return AppResult("\n".join(lines) + "\n", dominance_ok and equality_ok)


# ---------------------------------------------------------------------------
# forward performance check


def forward_scenario() -> ScenarioSpec:
    """Martingale binomial market with risk-neutral utility: every
    self-financing strategy is optimal and the identity field is a forward
    performance."""
    space = FilteredSpace.build(
        states=("uu", "ud", "du", "dd"),
        times=(0, 1, 2),
        partitions=[
            [["uu", "ud", "du", "dd"]],
            [["uu", "ud"], ["du", "dd"]],
            [["uu"], ["ud"], ["du"], ["dd"]],
        ],
    )
    measure = ProbabilityMeasure(
        space, (Fraction(1, 9), Fraction(2, 9), Fraction(2, 9), Fraction(4, 9))
    )
    ident = IdentityCurve()
    field = UtilityField.from_atom_curves(
        space, [[ident], [ident, ident], [ident, ident, ident, ident]]
    )
    up, down = 1.2, 0.9

    def wealth(frac: float) -> tuple[Act, Act, Act]:
        x1 = (1 + frac * (up - 1), 1 + frac * (up - 1), 1 + frac * (down - 1), 1 + frac * (down - 1))
        x2 = (
            x1[0] * (1 + frac * (up - 1)),
            x1[1] * (1 + frac * (down - 1)),
            x1[2] * (1 + frac * (up - 1)),
            x1[3] * (1 + frac * (down - 1)),
        )
        return Act.constant(space, 0, 1), Act(space, 1, x1), Act(space, 2, x2)

    acts: dict[str, Act] = {}
    members = []
    for name, frac in (("a0", 0.0), ("a05", 0.5), ("a1", 1.0)):
        x0, x1, x2 = wealth(frac)
        acts[f"W_{name}_0"] = x0
        acts[f"W_{name}_1"] = x1
        acts[f"W_{name}_2"] = x2
        members.append((name, (f"W_{name}_0", f"W_{name}_1", f"W_{name}_2")))
    acts["X0"] = Act.constant(space, 0, 1)
    strategies = StrategySet(0, 2, "X0", tuple(members))
    return ScenarioSpec(space, measure, field, acts, strategies, "forward-martingale", None)


def run_forward_check(spec: ScenarioSpec | None = None, tol: float = 1e-9) -> AppResult:
    """The four forward-performance conditions for the scenario's utility
    field along the declared wealth processes."""
    spec = spec if spec is not None else forward_scenario()
    if spec.strategies is None:
        raise ValueError("scenario declares no strategy set")
    st = spec.strategies
    rep = spec.representation()
    space = spec.space
    xs = (-2, -1, -0.5, 0, 0.5, 1, 2)

    monotone_concave = True
    for i in range(space.n_times):
        for k in range(space.n_atoms(i)):
            curve = rep.field.curve_on_atom(i, k)
            vals = [float(curve(x)) for x in xs]
            if any(b <= a for a, b in zip(vals, vals[1:])):
                monotone_concave = False
            for (xa, ya), (xb, yb) in zip(zip(xs, vals), list(zip(xs, vals))[2:]):
                mid = float(curve((xa + xb) / 2))
                if mid < (ya + yb) / 2 - 1e-9:
                    monotone_concave = False

    initial_ok = all(
        abs(float(rep.field.curve_on_atom(0, 0)(x)) - float(rep.u0(x))) <= 1e-12
        for x in xs
    )

    pairs = [(a, b) for a in range(st.t, st.horizon) for b in range(a + 1, st.horizon + 1)]
    supermartingale_ok = True
    worst_gap = 0.0
    optimal: dict[tuple[int, int], str | None] = {}
    for a, b in pairs:
        best = None
        for name, path in st.members:
            xa = spec.acts[path[a - st.t]]
            xb = spec.acts[path[b - st.t]]
            lhs = expected_utility_profile(rep, a, b, xb)
            rhs = rep.field.eval(a, xa.at_time(a))
            diffs = [
                float(lhs.value_on_atom(k)) - float(rhs.value_on_atom(k))
                for k in rep.P.positive_atoms(a)
            ]
            gap = max(diffs)
            worst_gap = max(worst_gap, gap)
            if gap > tol:
                supermartingale_ok = False
            dev = max(abs(d) for d in diffs)
            if dev <= tol and best is None:
                best = name
        optimal[(a, b)] = best
    attained_ok = all(optimal[p] is not None for p in pairs)

    equiv_ok = True
    for a, b in pairs:
        name = optimal[(a, b)]
        if name is None:
            continue
        path = dict(st.members)[name]
        verdict = compare(rep, a, b, spec.acts[path[a - st.t]].at_time(a), spec.acts[path[b - st.t]])
        if verdict.tag != "equiv":
            equiv_ok = False

    passed = monotone_concave and initial_ok and supermartingale_ok and attained_ok and equiv_ok
    lines = [
        "forward performance check",
        f"(i)   increasing and concave in outcomes on the grid: "
        f"{'PASS' if monotone_concave else 'FAIL'}",
        f"(ii)  time-0 field equals the initial utility: {'PASS' if initial_ok else 'FAIL'}",
        f"(iii) supermartingale along every declared wealth process: "
        f"{'PASS' if supermartingale_ok else 'FAIL'} (worst gap {_fmt(worst_gap)})",
        f"(iv)  equality attained by some strategy for every window: "
        f"{'PASS' if attained_ok else 'FAIL'}",
    ]
    for a, b in pairs:
        lines.append(
            f"      window t{a}..t{b}: optimal strategy "
            f"{optimal[(a, b)] if optimal[(a, b)] else 'none'}"
        )
    lines.append(
        f"optimal wealth is its own intertemporal equivalent across windows: "
        f"{'PASS' if equiv_ok else 'FAIL'}"
    )
    return AppResult("\n".join(lines) + "\n", passed)


# ---------------------------------------------------------------------------
# shipped randomized scenario for the command line semigroup example


def random8_scenario() -> ScenarioSpec:
    """Fixed 8-state, 4-time scenario with mixed curve kinds."""
    from .curves import LinearCurve, PowerCurve

    states = tuple(f"s{i}" for i in range(8))
    space = FilteredSpace.build(
        states=states,
        times=(0, 1, 2, 3),
        partitions=[
            [states],
            [states[:4], states[4:]],
            [states[:2], states[2:4], states[4:6], states[6:]],
            [[s] for s in states],
        ],
    )
    measure = ProbabilityMeasure(
        space,
        tuple(Fraction(n, 60) for n in (5, 7, 9, 4, 11, 13, 3, 8)),
    )
    pl = PiecewiseLinearCurve.from_points(
        [(-2, Fraction(-5, 2)), (-1, -1), (0, 0), (1, Fraction(1, 2)), (2, Fraction(3, 2))]
    )
    field = UtilityField.from_atom_curves(
        space,
        [
            [IdentityCurve()],
            [ExponentialCurve(0.4), pl],
            [LinearCurve(Fraction(4, 5)), IdentityCurve(), PowerCurve(1.5), pl],
            [
                IdentityCurve(), LinearCurve(Fraction(6, 5)), ExponentialCurve(0.3),
                pl, PowerCurve(0.8), IdentityCurve(), LinearCurve(Fraction(1, 2)),
                IdentityCurve(),
            ],
        ],
    )
    acts = {
        "payoff_a": Act(space, 3, (0.5, -0.25, 0.75, 0.1, -0.6, 0.3, 0.9, -0.4)),
        "payoff_b": Act(space, 3, (-0.8, 0.2, 0.45, -0.15, 0.7, -0.3, 0.05, 0.6)),
        "payoff_mid": Act.from_atom_values(space, 2, (0.4, -0.2, 0.35, -0.5)),
    }
    return ScenarioSpec(space, measure, field, acts, None, "random8", None)
