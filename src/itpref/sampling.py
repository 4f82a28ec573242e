"""Seeded random generators for representation fleets, plus fleet-level
comparison helpers.

Curve parameters are constrained so that conditional expected utilities stay
strictly inside every curve's range on the act hull [-0.9, 0.9] (exponential
parameters small enough, slopes bounded), keeping randomized
certainty-equivalent suites free of range failures by construction.

That guarantee is hull-relative: axiom audits enumerate grid acts out to
+-2, where next-period utilities can escape a bounded (exponential) curve's
range at an earlier time.  Such representations genuinely violate the
membership side condition of the representation (and hence non-degeneracy),
so fleets feeding the axiom checker should draw earlier-time curves from the
unbounded-range kinds ("identity", "linear", "power", "pl") and leave
bounded kinds to the terminal time.
"""

from __future__ import annotations

import random
from functools import reduce
from operator import add
from typing import Sequence

from .axioms import DEFAULT_GRID
from .curves import (
    ExponentialCurve,
    IdentityCurve,
    LinearCurve,
    MonotoneCurve,
    PiecewiseLinearCurve,
    PowerCurve,
)
from .engine import (
    Representation, _discounted, _random_pair, check_pair_count, classify, density_process, margins
)
from .filtered_space import Act, FilteredSpace, Number, ProbabilityMeasure
from .utility_field import UtilityField

PL_XS = DEFAULT_GRID.float_form().values
ACT_HULL = 0.9
MAX_STATES = 16  # terminal states of a random space
MIN_MASS = 0.03  # floor of a random state weight before normalization
MAX_DRAWS = 200  # draws a margin-guarded pair may take


def random_space(
    rng: random.Random, n_times: int | None = None, min_first_split: int = 2,
) -> FilteredSpace:
    """Random refining chain: 3 or 4 time labels, trivial at time 0, splitting
    atoms as the level grows, at most ``MAX_STATES`` terminal states."""
    if n_times is None:
        n_times = rng.choice((3, 4))
    counts = [1, rng.randint(max(2, min_first_split), 4)]
    while len(counts) < n_times:
        grow = rng.randint(1, max(1, (MAX_STATES - counts[-1]) // 2))
        counts.append(min(MAX_STATES, counts[-1] + grow))
    n = counts[-1]
    states = [f"s{i}" for i in range(n)]
    # assign each state a nested path: split points chosen per level
    boundaries = [sorted(rng.sample(range(1, n), counts[t] - 1)) for t in range(n_times)]
    partitions = []
    for t in range(n_times):
        # enforce refinement: merge in all coarser cuts
        allcuts = sorted(set(c for b in boundaries[: t + 1] for c in b) | {0, n})
        partitions.append(
            [states[a:b] for a, b in zip(allcuts, allcuts[1:])]
        )
    return FilteredSpace.build(states, tuple(float(t) for t in range(n_times)), partitions)


def random_measure(
    rng: random.Random, space: FilteredSpace, null_states: Sequence[int] = (),
) -> ProbabilityMeasure:
    raw = [
        0.0 if s in null_states else MIN_MASS + rng.random()
        for s in range(space.n_states)
    ]
    total = reduce(add, raw, 0)
    return ProbabilityMeasure(space, tuple(w / total for w in raw))


def random_pl_curve(rng: random.Random, xs: Sequence[float] = PL_XS) -> PiecewiseLinearCurve:
    """Continuous piecewise-linear curve through 0 with breakpoints on the
    grid and slopes in [0.3, 1.4]."""
    xs = sorted(xs)
    zero = xs.index(0)
    ys = {zero: 0.0}
    for i in range(zero, len(xs) - 1):
        ys[i + 1] = ys[i] + rng.uniform(0.3, 1.4) * (xs[i + 1] - xs[i])
    for i in range(zero, 0, -1):
        ys[i - 1] = ys[i] - rng.uniform(0.3, 1.4) * (xs[i] - xs[i - 1])
    return PiecewiseLinearCurve.from_points([(x, ys[i]) for i, x in enumerate(xs)])


def random_curve(rng: random.Random, kinds: Sequence[str] | None = None) -> MonotoneCurve:
    kind = rng.choice(tuple(kinds) if kinds else ("identity", "linear", "exp", "power", "pl"))
    if kind == "identity":
        return IdentityCurve()
    if kind == "linear":
        return LinearCurve(rng.uniform(0.3, 1.4))
    if kind == "exp":
        return ExponentialCurve(rng.uniform(0.25, 0.5))
    if kind == "power":
        return PowerCurve(rng.uniform(0.6, 1.8))
    if kind == "pl":
        return random_pl_curve(rng)
    raise ValueError(f"unknown curve kind {kind!r}")


def random_representation(
    rng: random.Random,
    n_times: int | None = None,
    kinds: Sequence[str] | None = None,
    space: FilteredSpace | None = None,
    min_first_split: int = 2,
) -> Representation:
    if space is None:
        space = random_space(rng, n_times, min_first_split=min_first_split)
    P = random_measure(rng, space)
    per_time = [
        [random_curve(rng, kinds) for _ in range(space.n_atoms(i))]
        for i in range(space.n_times)
    ]
    return Representation(space, P, UtilityField.from_atom_curves(space, per_time))


def random_act(
    rng: random.Random, space: FilteredSpace, i: int, hull: float = ACT_HULL
) -> Act:
    return Act.from_atom_values(
        space, i, [rng.uniform(-hull, hull) for _ in range(space.n_atoms(i))]
    )


def random_equivalent_measure(rng: random.Random, P: ProbabilityMeasure) -> ProbabilityMeasure:
    raw = [(MIN_MASS + rng.random()) if w > 0 else 0.0 for w in P.weights]
    total = reduce(add, raw, 0)
    return ProbabilityMeasure(P.space, tuple(w / total for w in raw))


def scaled_clone(rep: Representation, P_star: ProbabilityMeasure) -> Representation:
    """The (P*, delta u) construction of the relative-uniqueness clause:
    curves at time i >= 1 are rescaled by the time-i density of P with
    respect to P*; the initial utility is untouched, its density taken as 1.
    ``P_star`` must be equivalent to ``rep.P``."""
    deltas = density_process(rep, P_star)
    return _discounted(rep, P_star, (Act.constant(rep.space, 0, 1), *deltas[1:]))


def margin_guarded_pair(
    rng: random.Random, rep: Representation, margin: float = 1e-5
) -> tuple[int, int, Act, Act, list[Number]]:
    """Random (s, t, g, f) whose comparison margins under ``rep`` stay clear
    of the equivalence band on every positive time-s atom, so verdicts are
    stable across faithful rescalings; with those margins, one per atom."""
    for _ in range(MAX_DRAWS):
        s, t, g, f = _random_pair(rng, rep.space, ACT_HULL)
        d = margins(rep, s, t, g, f)
        if all(abs(d[k]) >= margin for k in rep.P.positive_atoms(s)):
            return s, t, g, f, d
    raise RuntimeError("could not draw a margin-guarded pair")


def verdict_agreement(
    rep_a: Representation,
    rep_b: Representation,
    n_pairs: int,
    seed: int = 0,
    tol: float = 1e-9,
    margin: float = 1e-5,
) -> tuple[int, int]:
    """(pairs checked, mismatching verdict tags) over margin-guarded pairs."""
    check_pair_count(n_pairs)
    rng = random.Random(seed)
    mismatches = 0
    for _ in range(n_pairs):
        s, t, g, f, d = margin_guarded_pair(rng, rep_a, margin)
        tag_a = classify(rep_a.P, s, d, tol)[0]
        if tag_a != classify(rep_b.P, s, margins(rep_b, s, t, g, f), tol)[0]:
            mismatches += 1
    return n_pairs, mismatches
