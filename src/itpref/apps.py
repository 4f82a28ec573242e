"""Worked demonstrations: the inheritance (villa) story, the dynamic
programming principle on a binomial market, and the forward-performance
conditions.  Each produces a deterministic text report plus a pass flag.

Each scenario builder returns a fresh load of a packaged ``scenarios/*.sdu``.
The villa story has two variants, a tag on its one file, because its source
arithmetic is internally inconsistent: ``paper-arithmetic`` reproduces the
displayed sums verbatim in exact rationals (the time-1 comparison lands on
10^6 exactly, making waiting costless), while ``paper-stated`` treats the
stated 1% election default probability as an actual measure (the time-1 value
is then 1,099,900).  Branch verdicts after the election agree under both
variants.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from importlib import resources

from .axioms import DEFAULT_GRID
from .curves import fmt_number
from .engine import compare, expected_utility, margins
from .scenario import ScenarioSpec, loads_scenario

VILLA_VARIANTS = ("paper-arithmetic", "paper-stated")


@dataclass(frozen=True)
class AppResult:
    text: str
    passed: bool


def _fmt(x) -> str:
    return fmt_number(x) if isinstance(x, Fraction) else f"{float(x):.12g}"


def _shipped(name: str) -> ScenarioSpec:
    """A fresh load of the packaged ``scenarios/<name>.sdu``."""
    path = resources.files(__package__) / "scenarios" / f"{name}.sdu"
    return loads_scenario(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# villa


def villa_scenario(variant: str = "paper-arithmetic") -> ScenarioSpec:
    """Three-state election/default tree with the state-dependent utility
    that halves gains and doubles losses once a default has occurred."""
    if variant not in VILLA_VARIANTS:
        raise ValueError(f"variant must be one of {VILLA_VARIANTS}")
    return replace(_shipped("villa"), variant=variant)


def villa_t2_formula() -> Fraction:
    """The displayed time-2 expected payoff, in exact rationals."""
    big = Fraction(18, 10) * 10**6
    small = Fraction(1, 2) * 2 * 10**5
    eps1, eps2 = Fraction(1, 100), Fraction(1, 10**6)
    return big * (1 - eps1 - eps2) + small * (eps1 + eps2)


def _villa_values(spec: ScenarioSpec, variant: str) -> tuple[Fraction, Fraction]:
    """The time-1 and time-2 expected payoffs, exact: the displayed sums
    under ``paper-arithmetic``, the scenario's own measure otherwise."""
    if variant == "paper-arithmetic":
        # the source's own weights: 9/10 on the intact branch, 1/100 on default
        t1 = Fraction(111, 100) * 10**6 * Fraction(9, 10) + Fraction(1, 2) * 2 * 10**5 * Fraction(1, 100)
        return t1, villa_t2_formula()
    rep = spec.representation()
    t1, t2 = (rep.P.expectation(rep.field.eval(i, spec.acts[f"villa_t{i}"])) for i in (1, 2))
    return Fraction(t1), Fraction(t2)


# what the displayed sums are computed from, read per state
_VILLA_SUM_PARTS = {
    "measure": lambda spec: spec.measure.weights,
    "t=1 utility": lambda spec: spec.field.curves_by_state[1],
    "t=2 utility": lambda spec: spec.field.curves_by_state[2],
    "villa_t1": lambda spec: spec.acts["villa_t1"].values,
    "villa_t2": lambda spec: spec.acts["villa_t2"].values,
}


def _villa_sum_parts(spec: ScenarioSpec) -> dict[str, dict]:
    """Each part of ``spec`` in ``_VILLA_SUM_PARTS`` as a state name → value map."""
    return {name: dict(zip(spec.space.states, read(spec))) for name, read in _VILLA_SUM_PARTS.items()}


@lru_cache(maxsize=1)
def _shipped_villa_sum_parts() -> dict[str, dict]:
    return _villa_sum_parts(_shipped("villa"))


def villa_t1_value(variant: str = "paper-arithmetic") -> Fraction:
    """Time-1 expected payoff entering the t0 comparison, exact."""
    return _villa_values(villa_scenario(variant), variant)[0]


def villa_t2_value(variant: str = "paper-arithmetic") -> Fraction:
    return _villa_values(villa_scenario(variant), variant)[1]


# what each verdict of cash against the villa means at each decision
_VILLA_T2_SAYS = {
    "preceq": "the villa wins this comparison",
    "succeq": "the cash wins this comparison",
    "equiv": "a tie",
}
_VILLA_T1_SAYS = {
    "preceq": "waiting is strictly attractive",
    "succeq": "waiting is strictly unattractive",
    "equiv": "indifferent, so waiting costs nothing",
}
_VILLA_BRANCH_SAYS = {
    "preceq": "take the villa",
    "succeq": "take the cash",
    "equiv": "indifferent",
    "null": "a null branch",
}


def run_villa(spec: ScenarioSpec | None = None) -> AppResult:
    """The villa report on ``spec`` (default: the shipped villa) under its
    variant tag.  Its two time-1 atoms are the election default, the branch
    on which ``villa_t1`` is worth least, and the branch without one.
    ``paper-arithmetic``'s displayed sums describe the shipped villa only: a
    spec whose measure, t=1 or t=2 utility, ``villa_t1`` or ``villa_t2``
    differs from the shipped file's is a ``ValueError`` under that variant
    (the cash may change).  ``passed`` says whether the story holds on
    ``spec``: the villa wins when the intermediate time is neglected, waiting
    at t0 is at least as good as the cash, and after the election the cash
    wins on the default branch and the villa on the other.  A spec with fewer
    than three time labels is a ``ValueError`` under either variant."""
    spec = spec if spec is not None else villa_scenario()
    variant = spec.variant or "paper-arithmetic"
    if variant not in VILLA_VARIANTS:
        raise ValueError(f"variant must be one of {VILLA_VARIANTS}")
    missing = [n for n in ("cash", "villa_t1", "villa_t2") if n not in spec.acts]
    if missing:
        raise ValueError(f"villa scenario has no act {', '.join(missing)}")
    space = spec.space
    if space.n_times < 3:
        raise ValueError(f"villa scenario needs three times (t0, t1, t2), got {space.n_times}")
    if space.n_atoms(1) != 2:
        raise ValueError(
            f"villa scenario needs two time-1 atoms (default, no default), got {space.n_atoms(1)}"
        )
    if variant == "paper-arithmetic":
        shipped = _shipped_villa_sum_parts()
        unlike = [name for name, part in _villa_sum_parts(spec).items() if part != shipped[name]]
        if unlike:
            raise ValueError(
                f"variant paper-arithmetic prints the shipped villa's displayed sums, but this "
                f"scenario's {', '.join(unlike)} differ from the shipped file's; "
                f"run it as paper-stated (--variant paper-stated)"
            )
    t1_value, t2_value = _villa_values(spec, variant)
    rep = spec.representation()
    cash, villa_t2 = spec.acts["cash"], spec.acts["villa_t2"]
    v02 = compare(rep, 0, 2, cash, villa_t2).tag
    u_cash = rep.field.eval(0, cash).values[0]
    v01 = "equiv" if u_cash == t1_value else "preceq" if u_cash < t1_value else "succeq"
    tri = compare(rep, 1, 2, cash.at_time(1), villa_t2).tri
    atoms = space.partitions[1]
    worth = spec.acts["villa_t1"].values
    d = min(range(2), key=lambda k: worth[atoms[k][0]])

    def branch(k: int) -> tuple[str, str]:
        first = atoms[k][0]
        tags = (("equiv", tri.A), ("succeq", tri.B), ("preceq", tri.C))
        return space.atom_label(1, k), next((t for t, ev in tags if first in ev.members), "null")

    (default, on_default), (rest, on_rest) = branch(d), branch(1 - d)
    lines = [
        f"villa scenario, variant = {variant}",
        f"immediate cash at t0: {_fmt(cash.values[0])}",
        "",
        "t0 versus t2 (neglecting the intermediate time):",
        f"  expected payoff = 1.8e6*(1 - 1e-2 - 1e-6) + (1/2)*2e5*(1e-2 + 1e-6)"
        f" = {t2_value} = {float(t2_value):.1f}"
        if variant == "paper-arithmetic"
        else f"  expected payoff under the stated measure = {t2_value} = {float(t2_value):.3f}",
        f"  verdict cash vs villa at t2: {v02.upper()} ({_VILLA_T2_SAYS[v02]})",
        "",
        "t0 versus t1 (deciding whether to wait):",
        f"  expected payoff = 1.11e6*(9/10) + (1/2)*2e5*(1/100) = {t1_value}"
        if variant == "paper-arithmetic"
        else f"  expected payoff = {t1_value} (measure path with a 1% election default)",
        f"  verdict cash vs villa at t1: {v01.upper()} ({_VILLA_T1_SAYS[v01]})",
        "",
        "per-branch verdicts at t1, cash against the villa at t2:",
        f"  on {default} (election default): {on_default.upper()} ({_VILLA_BRANCH_SAYS[on_default]})",
        f"  on {rest} (no election default): {on_rest.upper()} ({_VILLA_BRANCH_SAYS[on_rest]})",
        "",
        f"optimal policy: wait at t0; after the election take the cash on {default}"
        f" and the villa on {rest}",
    ]
    passed = (
        v02 == "preceq" and v01 != "succeq" and on_default == "succeq" and on_rest == "preceq"
    )
    return AppResult("\n".join(lines) + "\n", passed)


# ---------------------------------------------------------------------------
# dynamic programming demo


def dpp_scenario() -> ScenarioSpec:
    """Two-period binomial market with momentum: after good news the risky
    asset is attractive, after bad news it is not; terminal utility is
    exponential."""
    return _shipped("binomial")


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
        profiles[name] = tuple(
            float(expected_utility(rep, t, horizon, terminal, k)) for k in range(atom_count)
        )
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
    return _shipped("forward")


def run_forward_check(spec: ScenarioSpec | None = None, tol: float = 1e-9) -> AppResult:
    """The four forward-performance conditions for the scenario's utility
    field along the declared wealth processes."""
    spec = spec if spec is not None else forward_scenario()
    if spec.strategies is None:
        raise ValueError("scenario declares no strategy set")
    st = spec.strategies
    rep = spec.representation()
    xs = DEFAULT_GRID.float_form().values

    monotone_concave = True
    for row in rep.field.curves:
        for curve in row:
            vals = [float(curve(x)) for x in xs]
            if any(b <= a for a, b in zip(vals, vals[1:])):
                monotone_concave = False
            for (xa, ya), (xb, yb) in zip(zip(xs, vals), list(zip(xs, vals))[2:]):
                mid = float(curve((xa + xb) / 2))
                if mid < (ya + yb) / 2 - 1e-9:
                    monotone_concave = False

    pairs = [(a, b) for a in range(st.t, st.horizon) for b in range(a + 1, st.horizon + 1)]
    supermartingale_ok = True
    worst_gap = 0.0
    optimal: dict[tuple[int, int], str | None] = {}
    for a, b in pairs:
        best = None
        for name, path in st.members:
            xa = spec.acts[path[a - st.t]]
            xb = spec.acts[path[b - st.t]]
            margin = margins(rep, a, b, xa.at_time(a), xb)
            diffs = [float(-margin[k]) for k in rep.P.positive_atoms(a)]
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

    passed = monotone_concave and supermartingale_ok and attained_ok and equiv_ok
    lines = [
        "forward performance check",
        f"(i)   increasing and concave in outcomes on the grid: "
        f"{'PASS' if monotone_concave else 'FAIL'}",
        # holds by construction: a scenario has no separate u0, only the time-0 field's curve
        "(ii)  time-0 field equals the initial utility: PASS",
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
    return _shipped("random8")
