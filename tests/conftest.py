"""Shared fixtures: small canonical spaces and representations."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from itpref import (
    Act,
    FilteredSpace,
    IdentityCurve,
    LinearCurve,
    PiecewiseLinearCurve,
    ProbabilityMeasure,
    Representation,
    UtilityField,
)
from itpref.oracles import BRACKET_LIMIT, INSENSITIVITY_PROBE, BracketError
from itpref.sampling import random_act, random_measure, random_representation


@pytest.fixture
def four_state_space() -> FilteredSpace:
    """Four states, three times: trivial, paired, singletons."""
    return FilteredSpace.build(
        states=("w1", "w2", "w3", "w4"),
        times=(0, 1, 2),
        partitions=[
            [["w1", "w2", "w3", "w4"]],
            [["w1", "w2"], ["w3", "w4"]],
            [["w1"], ["w2"], ["w3"], ["w4"]],
        ],
    )


@pytest.fixture
def four_state_measure(four_state_space) -> ProbabilityMeasure:
    return ProbabilityMeasure(
        four_state_space,
        (Fraction(1, 10), Fraction(2, 10), Fraction(3, 10), Fraction(4, 10)),
    )


def identity_rep(space: FilteredSpace, P: ProbabilityMeasure) -> Representation:
    rows = [[IdentityCurve()] * space.n_atoms(i) for i in range(space.n_times)]
    return Representation(space, P, UtilityField.from_atom_curves(space, rows))


@pytest.fixture
def four_state_identity_rep(four_state_space, four_state_measure) -> Representation:
    return identity_rep(four_state_space, four_state_measure)


@pytest.fixture
def two_branch_space() -> FilteredSpace:
    """Two equiprobable terminal branches, two times."""
    return FilteredSpace.build(
        states=("up", "down"),
        times=(0, 1),
        partitions=[[["up", "down"]], [["up"], ["down"]]],
    )


@pytest.fixture
def staircase(four_state_space) -> Act:
    return Act(four_state_space, 2, (1, 2, 3, 4))


def exact_representation(rng, space, null_states=()):
    """A representation whose weights and curves are exact ``Fraction``s."""
    raw = [0 if s in null_states else rng.randint(1, 9) for s in range(space.n_states)]
    P = ProbabilityMeasure(space, tuple(Fraction(w, sum(raw)) for w in raw))

    def curve():
        kind = rng.randrange(3)
        if kind == 0:
            return IdentityCurve()
        if kind == 1:
            return LinearCurve(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        up, down = Fraction(rng.randint(1, 9), 4), Fraction(rng.randint(1, 9), 4)
        return PiecewiseLinearCurve.from_points(
            [(-2, -2 * down), (0, 0), (Fraction(1, 3), up / 3), (2, up / 3 + Fraction(5, 3) * down)]
        )

    rows = [[curve() for _ in range(space.n_atoms(i))] for i in range(space.n_times)]
    return Representation(space, P, UtilityField.from_atom_curves(space, rows))


def coarse_terminal_reps() -> tuple[Representation, Representation]:
    """Two representations with the same curves on a 5-state space whose
    terminal atom {d,e} holds two states: d is null under P_a = (1/5, 1/5,
    1/5, 0, 2/5) and not under the uniform P_b, and both give {d,e} the mass
    2/5.  Acts are terminal-measurable, so the two are one preference."""
    space = FilteredSpace.build(
        ("a", "b", "c", "d", "e"), (0, 1, 2),
        [[["a", "b", "c", "d", "e"]], [["a", "b"], ["c", "d", "e"]], [["a"], ["b"], ["c"], ["d", "e"]]],
    )
    kink = PiecewiseLinearCurve.from_points([(-2, -4), (0, 0), (1, 1), (2, Fraction(3, 2))])
    field = UtilityField.from_atom_curves(
        space, [[IdentityCurve()], [LinearCurve(2), kink], [kink, LinearCurve(3), IdentityCurve(), kink]]
    )
    fifth = Fraction(1, 5)
    P_a = ProbabilityMeasure(space, (fifth, fifth, fifth, 0, 2 * fifth))
    return Representation(space, P_a, field), Representation(space, ProbabilityMeasure.uniform(space), field)


def drawn_representation(rng, n_times, exact, null):
    """A generated jump-free representation with at least three time-1
    atoms: float, or exact when ``exact``; with one null time-1 atom when
    ``null``."""
    rep = random_representation(rng, n_times=n_times, min_first_split=3)
    space = rep.space
    dead = space.atom_members(1, rng.randrange(space.n_atoms(1))) if null else ()
    if exact:
        return exact_representation(rng, space, dead)
    if null:
        return Representation(space, random_measure(rng, space, null_states=dead), rep.field)
    return rep


def drawn_act(rng, space, i, exact):
    """A time-``i`` act: floats on the act hull, or exact ``Fraction``s
    inside the exact curves' anchors."""
    if exact:
        return Act.from_atom_values(
            space, i, [Fraction(rng.randint(-9, 9), rng.randint(5, 9)) for _ in range(space.n_atoms(i))]
        )
    return random_act(rng, space, i)


def atom_search(answer, i, A, tol):
    """The tests' reference search, written apart from the library's: the
    constant c with c·1_A ~ f·1_A on the time-``i`` event A, where
    ``answer(c)`` is the :class:`~itpref.QueryAnswer` to c·1_A vs f·1_A.
    The probe (None when A is insensitive), then the bracket, which raises
    :class:`~itpref.BracketError` when an end fails, and the bisection,
    which stops when the bracket is ``tol`` wide or an answer would leave
    it unchanged."""
    huge, tiny = answer(INSENSITIVITY_PROBE), answer(-INSENSITIVITY_PROBE)
    if huge.preceq and tiny.succeq:
        return None
    hi = 1.0
    while not answer(hi).succeq:
        hi *= 2
        if hi > BRACKET_LIMIT:
            raise BracketError(f"no upper bracket on {A.label()} at step {i}")
    lo = -1.0
    while not answer(lo).preceq:
        lo *= 2
        if lo < -BRACKET_LIMIT:
            raise BracketError(f"no lower bracket on {A.label()} at step {i}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if answer(mid).succeq:
            if mid == hi:
                break
            hi = mid
        else:
            if mid == lo:
                break
            lo = mid
    return hi


def bits(act: Act):
    """An act's values with their types, and its ``null_fill``."""
    return [(type(v), repr(v)) for v in act.values], act.null_fill


def foreign_act():
    """A 7-state representation and a time-2 act on another, 8-state space."""
    a = random_representation(random.Random(3), n_times=3)
    b = random_representation(random.Random(11), n_times=3)
    assert (a.space.n_states, b.space.n_states) == (7, 8)
    return a, random_act(random.Random(0), b.space, 2)


def foreign_null_measure() -> ProbabilityMeasure:
    """A measure on another space: states x, y, z with time-1 atoms {x,y}
    and {z}, singletons at time 2, and the null state x."""
    space = FilteredSpace.build(
        ("x", "y", "z"), (0, 1, 2), [[["x", "y", "z"]], [["x", "y"], ["z"]], [["x"], ["y"], ["z"]]]
    )
    return ProbabilityMeasure(space, (0, Fraction(1, 2), Fraction(1, 2)))


def short_villa_text(n_times: int, variant: str) -> str:
    """A villa scenario of ``n_times`` < 3 time labels that holds the acts
    cash, villa_t1 and villa_t2, each at the latest time up to its own."""
    last = n_times - 1
    partitions = ["d1, d2, ok", "d1 | d2, ok"][:n_times]
    utilities = ["d1, d2, ok = identity", "d1 = identity\nd2, ok = identity"][:n_times]
    text = f"title = short\nvariant = {variant}\n\n[space]\nstates = d1, d2, ok\n"
    text += f"times = {', '.join(map(str, range(n_times)))}\n"
    text += "".join(f"partition t={t} = {p}\n" for t, p in enumerate(partitions))
    text += "\n[measure]\nd1 = 1/4\nd2 = 1/4\nok = 1/2\n"
    text += "".join(f"\n[utility t={t}]\n{u}\n" for t, u in enumerate(utilities))
    for name, t in (("cash", 0), ("villa_t1", 1), ("villa_t2", 2)):
        text += f"\n[act {name} t={min(t, last)}]\nd1 = 1\nd2 = 1\nok = 1\n"
    return text
