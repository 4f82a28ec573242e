"""Property tests over generated representations and acts (``hypothesis``)."""

from __future__ import annotations

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from itpref import Act, InducedOracle, Representation, indifference_profile  # noqa: E402
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
