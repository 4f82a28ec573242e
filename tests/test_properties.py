"""Property tests over generated representations and acts (``hypothesis``)."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from itpref import (  # noqa: E402
    Act,
    BracketError,
    IdentityCurve,
    InducedOracle,
    LinearCurve,
    PiecewiseLinearCurve,
    PreconditionError,
    ProbabilityMeasure,
    Representation,
    UtilityField,
    indifference_profile,
)
from itpref.engine import expected_utility_profile  # noqa: E402
from itpref.oracles import QueryAnswer  # noqa: E402
from itpref.sampling import random_act, random_measure, random_representation  # noqa: E402


def bits(act: Act):
    return [(type(v), repr(v)) for v in act.values], act.null_fill


def repeated_pattern(rng, space):
    """Values of a time-2 act that repeat one pattern inside every time-1
    atom, so that time-1 atoms of the same shape share their restriction."""
    pattern = [rng.uniform(-2, 2) for _ in range(space.n_states)]
    parent, position, values = space.atom_index_map(1), {}, [0.0] * space.n_states
    for sub in space.partitions[2]:
        k = parent[sub[0]]
        position[k] = position.get(k, -1) + 1
        for s in sub:
            values[s] = pattern[position[k]]
    return tuple(values)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_long_lived_oracle_profiles_equal_fresh_ones(seed, data):
    """One oracle asked a sequence of acts that reuse each other's values on
    time-1 atoms returns, bit for bit, what a fresh oracle returns for each."""
    rng = random.Random(seed)
    rep = random_representation(rng, n_times=3, min_first_split=3)
    space = rep.space
    if data.draw(st.booleans(), label="null atom"):
        dead = space.atom_members(1, rng.randrange(space.n_atoms(1)))
        rep = Representation(space, random_measure(rng, space, null_states=dead), rep.field)
    # per step i, acts at time i + 1 to cut and paste along the time-1 atoms
    zero = (0,) * space.n_states
    pools = [
        [random_act(rng, space, 1).values for _ in range(3)] + [zero],
        [random_act(rng, space, 2).values for _ in range(2)] + [repeated_pattern(rng, space), zero],
    ]
    owner = space.atom_index_map(1)
    oracle = InducedOracle(rep, tol=1e-12)
    n_atoms = space.n_atoms(1)
    for _ in range(data.draw(st.integers(2, 6), label="profiles")):
        i = data.draw(st.sampled_from((0, 1)), label="step")
        tol = data.draw(st.sampled_from((1e-9, 1e-10)), label="tol")
        picks = data.draw(st.lists(st.integers(0, 3), min_size=n_atoms, max_size=n_atoms))
        pool = pools[i]
        f = Act(space, i + 1, tuple(pool[picks[owner[s]]][s] for s in range(space.n_states)))
        got = indifference_profile(oracle, i, f, tol)
        want = indifference_profile(InducedOracle(rep, tol=1e-12), i, f, tol)
        assert bits(got) == bits(want)


class Unbracketed(InducedOracle):
    """The induced oracle, except that no constant is ever "at least as good"
    as f on an event where f takes a value in ``poison``: local
    non-degeneracy fails on every atom where f is poisoned."""

    def __init__(self, rep, poison):
        super().__init__(rep, tol=1e-12)
        self.poison = poison

    def query(self, i, g, f, A=None):
        if not self.poison.isdisjoint(f.values[s] for s in A.members):
            return QueryAnswer(False, True)
        return super().query(i, g, f, A)


def outcome(oracle, i, f, tol):
    """The profile's bits, or the message of the ``BracketError`` raised."""
    try:
        return bits(indifference_profile(oracle, i, f, tol))
    except BracketError as exc:
        return str(exc)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_stored_bracket_failures_match_a_fresh_oracle(seed, data):
    """With bracket failures on the atoms the acts poison, one long-lived
    oracle raises the message, or returns the profile, that a fresh oracle
    does; a repeated call asks nothing."""
    rng = random.Random(seed)
    rep = random_representation(rng, n_times=3, min_first_split=3)
    space = rep.space
    poisoned = [
        Act.from_atom_values(space, t, [rng.uniform(2.5, 3) for _ in range(space.n_atoms(t))]).values
        for t in (1, 2)
    ]
    poison = frozenset(v for values in poisoned for v in values)
    pools = [
        [random_act(rng, space, 1).values, (0,) * space.n_states, poisoned[0]],
        [random_act(rng, space, 2).values, repeated_pattern(rng, space), poisoned[1]],
    ]
    owner = space.atom_index_map(1)
    oracle = Unbracketed(rep, poison)
    n_atoms = space.n_atoms(1)
    for _ in range(data.draw(st.integers(2, 8), label="profiles")):
        i = data.draw(st.sampled_from((0, 1)), label="step")
        picks = data.draw(st.lists(st.integers(0, 2), min_size=n_atoms, max_size=n_atoms))
        pool = pools[i]
        f = Act(space, i + 1, tuple(pool[picks[owner[s]]][s] for s in range(space.n_states)))
        got = outcome(oracle, i, f, 1e-9)
        assert got == outcome(Unbracketed(rep, poison), i, f, 1e-9)
        before = oracle.queries
        assert outcome(oracle, i, f, 1e-9) == got
        assert oracle.queries == before


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


@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), exact=st.booleans(), null=st.booleans())
def test_value_profile_is_the_engines_profile(seed, exact, null):
    """The induced oracle's per-atom expected utilities equal the engine's
    conditional expectation bit for bit, on float and exact representations
    with and without a null atom; an act not measurable at t_{i+1} raises
    before any atom, a null one included, is valued."""
    rng = random.Random(seed)
    rep = random_representation(rng, n_times=4, min_first_split=3)
    space = rep.space
    dead = space.atom_members(1, rng.randrange(space.n_atoms(1))) if null else ()
    if exact:
        rep = exact_representation(rng, space, dead)
    elif null:
        rep = Representation(space, random_measure(rng, space, null_states=dead), rep.field)
    assert bool(rep.P.null_atoms(1)) == null
    oracle = InducedOracle(rep)
    for i in range(space.n_times - 1):
        for t in range(i + 2):
            per_atom = [rng.uniform(-0.9, 0.9) for _ in range(space.n_atoms(t))]
            if exact:
                per_atom = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in per_atom]
            f = Act.from_atom_values(space, t, per_atom)
            want = expected_utility_profile(rep, i, i + 1, f).atom_values()
            got = oracle.value_profile(i, f)
            assert [(type(v), repr(v)) for v in got] == [(type(v), repr(v)) for v in want]
        if i + 2 < space.n_times:
            f = random_act(rng, space, i + 2)
            for attempt in (
                lambda: expected_utility_profile(rep, i, i + 1, f),
                lambda: oracle.value_profile(i, f),
                *[lambda k=k: oracle.atom_answers(i, f, k) for k in range(space.n_atoms(i))],
            ):
                with pytest.raises(PreconditionError):
                    attempt()
