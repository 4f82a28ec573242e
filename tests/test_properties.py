"""Property tests over generated representations and acts (``hypothesis``)."""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
import re
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from itpref import (  # noqa: E402
    Act,
    BracketError,
    Event,
    FilteredSpace,
    InducedOracle,
    InvariantError,
    PiecewiseLinearCurve,
    PreconditionError,
    ProbabilityMeasure,
    Representation,
    UtilityField,
    cce,
    check_C,
    check_M,
    check_ST,
    check_T,
    check_relative_uniqueness,
    compare,
    conditional_expectation,
    indifference_profile,
    paste,
    recover_representation,
    recover_step_i,
    semigroup_residual,
)
from itpref.apps import villa_scenario  # noqa: E402
from itpref.axioms import C_STYLES, DEFAULT_GRID, _debreu_candidates, grid_for  # noqa: E402
from itpref.controls import flat_segment, identity_representation, three_atom_space  # noqa: E402
from itpref.curves import INVERT_TOL  # noqa: E402
from itpref.engine import expected_utility, expected_utility_profile  # noqa: E402
from itpref.oracles import QueryAnswer, atom_certainty_equivalents  # noqa: E402
from itpref.recovery import RecoveredStep, RecoveryError  # noqa: E402
from itpref.sampling import (  # noqa: E402
    random_act,
    random_equivalent_measure,
    random_measure,
    random_representation,
    random_space,
    scaled_clone,
    verdict_agreement,
)
from itpref.scenario import ScenarioSpec, dumps_scenario, loads_scenario  # noqa: E402

from conftest import atom_search, bits, drawn_act, drawn_representation  # noqa: E402


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


@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), exact=st.booleans(), null=st.booleans())
def test_value_profile_is_the_engines_profile(seed, exact, null):
    """The induced oracle's per-atom expected utilities equal the engine's
    conditional expectation bit for bit, on float and exact representations
    with and without a null atom; an act not measurable at t_{i+1} raises
    before any atom, a null one included, is valued or searched."""
    rng = random.Random(seed)
    rep = drawn_representation(rng, 4, exact, null)
    space = rep.space
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
                *[lambda k=k: oracle.search_atom(i, f, k, 1e-9) for k in range(space.n_atoms(i))],
            ):
                with pytest.raises(PreconditionError):
                    attempt()


@settings(derandomize=True, deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), null=st.booleans())
def test_exact_oracle_answers_equal_exact_arithmetic(seed, null):
    """On an exact representation and exact acts, the induced oracle's
    answers to float constants equal the answers of exact arithmetic on the
    constant as a ``Fraction``: ``query``'s at dyadic constants a bisection
    asks and at the curves' anchor abscissae, and the kernel's per-atom
    searches, which return and ask what the search on the exact answers
    does."""
    rng = random.Random(seed)
    rep = drawn_representation(rng, 3, True, null)
    space, P, tol = rep.space, rep.P, 1e-9
    oracle = InducedOracle(rep, tol)
    abscissae = {float(a[0]) for row in rep.field.curves for u in row for a in getattr(u, "anchors", ())}
    constants = sorted(abscissae | {0.0, 2.0**20, -(2.0**20), 1.0, -1.0, 2.0, -4.0, 0.5, -0.75, 0.375})
    constants += [rng.randint(-2**12, 2**12) / 2**rng.randint(1, 30) for _ in range(20)]
    for i in range(space.n_times - 1):
        f = drawn_act(rng, space, i + 1, True)

        def exact_answer(k, c):
            if not P.atom_masses(i)[k] > 0:
                return QueryAnswer(True, True)
            d = rep.field.curve_on_atom(i, k)(Fraction(c)) - expected_utility(rep, i, i + 1, f, k)
            assert isinstance(d, Fraction)
            return QueryAnswer(not d < -tol, not d > tol)

        for k, A in enumerate(space.atom_events(i)):
            asked = []
            want = atom_search(lambda c: asked.append(c) or exact_answer(k, c), i, A, tol)
            before = oracle.queries
            assert oracle.search_atom(i, f, k, tol) == want
            assert oracle.queries - before == len(asked)
        for c in constants:
            want = [exact_answer(k, c) for k in range(space.n_atoms(i))]
            g = Act.constant(space, i, c)
            for A, ks in [(None, range(len(want))), *((E, [k]) for k, E in enumerate(space.atom_events(i)))]:
                both = [want[k] for k in ks]
                assert oracle.query(i, g, f, A) == (all(w.succeq for w in both), all(w.preceq for w in both))


def certainty_equivalents_outcome(search, oracle, i, f):
    """What ``search`` returns for f at step i, or the type and message of
    the ``BracketError`` it raises, with the queries it asked."""
    try:
        got = search(oracle, i, f, 1e-9)
    except BracketError as exc:
        got = (type(exc), str(exc))
    return got, oracle.queries


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1), exact=st.booleans(), null=st.booleans(), failing=st.booleans()
)
def test_atom_certainty_equivalents_are_the_profiles_constants(seed, exact, null, failing):
    """On two fresh oracles, ``atom_certainty_equivalents`` and
    ``indifference_profile`` agree on the constants (None where the profile
    fills 0 and flags the atom's states as ``null_fill``), on the queries
    asked, and on a ``BracketError``'s type and message: float and exact
    representations, with and without a null atom, and an oracle whose
    brackets fail on the atoms where f takes a poisoned value."""
    rng = random.Random(seed)
    rep = drawn_representation(rng, 3, exact, null)
    space = rep.space
    for i in (0, 1):
        per_atom = [rng.uniform(-2, 2) for _ in range(space.n_atoms(i + 1))]
        if exact:
            per_atom = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in per_atom]
        poison = frozenset(v for v in per_atom if failing and rng.random() < 0.4)
        f = Act.from_atom_values(space, i + 1, per_atom)

        def fresh():
            return Unbracketed(rep, poison) if failing else InducedOracle(rep, tol=1e-12)

        got, got_queries = certainty_equivalents_outcome(atom_certainty_equivalents, fresh(), i, f)
        want, want_queries = certainty_equivalents_outcome(indifference_profile, fresh(), i, f)
        assert got_queries == want_queries
        if isinstance(want, Act):
            part = space.partitions[i]
            assert [(type(v), repr(v)) for v in want.atom_values()] == [
                (int, "0") if c is None else (type(c), repr(c)) for c in got
            ]
            assert want.null_fill == {s for k, c in enumerate(got) if c is None for s in part[k]}
        else:
            assert got == want


def whole_act_verdict(rep, s, t, g, f, tol):
    """(tag, (A, B, C) members, margin) the way ``compare`` computed them from
    whole acts: u(s, g) minus the conditional expectation of u(t, f), each
    positive time-s atom tagged by the margin at its first state."""
    space = rep.space
    expected = conditional_expectation(space, rep.P, rep.field.eval(t, f), s)
    margin = Act(space, s, tuple(a - b for a, b in zip(rep.field.eval(s, g).values, expected.values)))
    part = space.partitions[s]
    a, b, c = [], [], []
    for k in rep.P.positive_atoms(s):
        d = margin.values[part[k][0]]
        if abs(d) <= tol:
            a.append(k)
        elif d > tol:
            b.append(k)
        else:
            c.append(k)
    if not b and not c:
        tag = "equiv"
    elif not c:
        tag = "succeq"
    elif not b:
        tag = "preceq"
    else:
        tag = "mixed"
    members = tuple(frozenset(x for k in ks for x in part[k]) for ks in (a, b, c))
    return tag, members, margin


@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), exact=st.booleans(), null=st.booleans())
def test_compare_is_the_whole_act_verdict(seed, exact, null):
    """``compare``'s tag, tri-partition and margin (values, their types and
    time index) equal, bit for bit, those of the whole-act computation, on
    float and exact representations with and without a null atom, for acts
    at or before their comparison times and for exact ties g = cce(f)."""
    rng = random.Random(seed)
    rep = drawn_representation(rng, 4, exact, null)
    space = rep.space
    for s in range(space.last_index):
        for t in range(s + 1, space.n_times):
            f = drawn_act(rng, space, rng.randint(0, t), exact)
            for g in (drawn_act(rng, space, rng.randint(0, s), exact), cce(rep, s, t, f)):
                for tol in (1e-9, 0.0, 0.3):
                    got = compare(rep, s, t, g, f, tol)
                    tag, members, margin = whole_act_verdict(rep, s, t, g, f, tol)
                    assert got.tag == tag
                    tri = (got.tri.A, got.tri.B, got.tri.C)
                    assert tuple(e.members for e in tri) == members
                    assert all(e.time_index == s for e in tri)
                    assert bits(got.margin) == bits(margin)
                    assert got.margin.time_index == margin.time_index


@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), exact=st.booleans(), null=st.booleans())
def test_compare_finds_the_certainty_equivalent_equivalent(seed, exact, null):
    """``cce`` and ``compare`` agree: on jump-free representations, float
    and exact, with and without a null atom, ``compare(rep, s, t, cce(rep,
    s, t, f), f)`` is ``equiv``, and the certainty equivalent moved by
    +δ (-δ) on one positive time-s atom compares ``succeq`` (``preceq``)."""
    rng = random.Random(seed)
    rep = drawn_representation(rng, 4, exact, null)
    space = rep.space
    assert rep.star_continuity()
    delta = Fraction(1, 1000) if exact else 1e-3
    for s in range(space.last_index):
        for t in range(s + 1, space.n_times):
            f = drawn_act(rng, space, rng.randint(0, t), exact)
            g = cce(rep, s, t, f)
            assert compare(rep, s, t, g, f).tag == "equiv"
            k = rng.choice(rep.P.positive_atoms(s))
            for sign, tag in ((1, "succeq"), (-1, "preceq")):
                moved = Act.from_atom_values(
                    space, s, [v + sign * delta if j == k else v for j, v in enumerate(g.atom_values())]
                )
                assert compare(rep, s, t, moved, f).tag == tag


@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), exact=st.booleans(), null=st.booleans())
def test_semigroup_residual_is_within_ten_inversion_tolerances(seed, exact, null):
    """The semigroup identity: on jump-free representations, float and
    exact, with and without a null atom, the direct s..v certainty
    equivalent and the nested s..t of t..v one differ by at most
    10·INVERT_TOL on the positive states, for every s < t < v."""
    rng = random.Random(seed)
    rep = drawn_representation(rng, 4, exact, null)
    assert rep.star_continuity()
    for s, t, v in itertools.combinations(range(rep.space.n_times), 3):
        f = drawn_act(rng, rep.space, rng.randint(0, v), exact)
        assert semigroup_residual(rep, s, t, v, f) <= 10 * INVERT_TOL


def guarded_compare_flips(rep_a, rep_b, n_pairs, seed, margin=1e-5):
    """Mismatching ``compare`` tags over ``n_pairs`` pairs drawn as the
    guarded draw draws them, each guarded by ``compare``'s own margin."""
    space = rep_a.space
    rng = random.Random(seed)
    flips = 0
    for _ in range(n_pairs):
        for _ in range(200):
            s = rng.randrange(0, space.last_index)
            t = rng.randrange(s + 1, space.last_index + 1)
            g, f = random_act(rng, space, s), random_act(rng, space, t)
            verdict = compare(rep_a, s, t, g, f)
            if all(abs(verdict.margin.value_on_atom(k)) >= margin for k in rep_a.P.positive_atoms(s)):
                break
        flips += verdict.tag != compare(rep_b, s, t, g, f).tag
    return flips


@settings(derandomize=True, deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), null=st.booleans())
def test_verdict_agreement_counts_compare_flips(seed, null):
    """``verdict_agreement``'s mismatch count is the count of differing
    ``compare`` tags over the same guarded pairs, also when the second
    representation has a null atom the first does not."""
    rng = random.Random(seed)
    rep_a = random_representation(rng, min_first_split=3)
    space = rep_a.space
    rep_b = random_representation(rng, space=space)
    if null:
        dead = space.atom_members(1, rng.randrange(space.n_atoms(1)))
        rep_b = Representation(space, random_measure(rng, space, null_states=dead), rep_b.field)
    for other in (rep_a, rep_b):
        pair_seed = rng.randrange(10**6)
        want = guarded_compare_flips(rep_a, other, 20, pair_seed)
        assert verdict_agreement(rep_a, other, 20, seed=pair_seed) == (20, want)


def split_terminal_states(rng, rep):
    """``rep`` with every state split in two, so that each terminal atom
    holds two states, under two measures exact in ``Fraction``s: P_a puts
    each state's weight on one of its halves, P_b splits it between both."""
    space = rep.space
    halves = tuple(tuple(tuple(2 * s + h for s in atom for h in (0, 1)) for atom in part) for part in space.partitions)
    split = FilteredSpace(tuple(f"{name}{h}" for name in space.states for h in "ab"), space.times, halves)
    field = UtilityField.from_atom_curves(split, rep.field.curves)
    weights_a, weights_b = [], []
    for w in map(Fraction, rep.P.weights):
        weights_a += (w, 0) if rng.random() < 0.5 else (0, w)
        r = Fraction(rng.randint(1, 9), 10)
        weights_b += (w * r, w * (1 - r))
    return tuple(Representation(split, ProbabilityMeasure(split, tuple(weights)), field)
                 for weights in (weights_a, weights_b))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1))
def test_measures_that_agree_on_terminal_atoms_are_one_preference(seed):
    """A state null under one measure inside a terminal atom that both
    measures weigh alike changes no preference: the uniqueness check
    ACCEPTs with deviation 0.0 and no guarded verdict differs."""
    rng = random.Random(seed)
    rep_a, rep_b = split_terminal_states(rng, random_representation(rng))
    res = check_relative_uniqueness(rep_a, rep_b)
    assert res.accepted and res.max_deviation == 0.0, res
    assert verdict_agreement(rep_a, rep_b, 50, seed=seed) == (50, 0)


def test_expected_utility_profile_errors():
    """The error type and message for s > t, for an act not measurable at
    t, and for time indices out of range."""
    rng = random.Random(1)
    rep = random_representation(rng, n_times=4, min_first_split=3)
    f1, f2 = random_act(rng, rep.space, 1), random_act(rng, rep.space, 2)
    with pytest.raises(InvariantError, match=r"^cannot condition a time-1 act on later time index 2$"):
        expected_utility_profile(rep, 2, 1, f1)
    with pytest.raises(PreconditionError, match=r"^act at time index 2 is not measurable at 1$"):
        expected_utility_profile(rep, 0, 1, f2)
    with pytest.raises(PreconditionError, match=r"^act at time index 1 is not measurable at -1$"):
        expected_utility_profile(rep, 0, -1, f1)
    with pytest.raises(IndexError, match=r"^time index 4 out of range 0\.\.3$"):
        expected_utility_profile(rep, 0, 4, f2)
    with pytest.raises(IndexError, match=r"^time index -1 out of range 0\.\.3$"):
        expected_utility_profile(rep, -1, 2, f2)
    # the per-atom kernel raises the same errors
    with pytest.raises(InvariantError, match=r"^cannot condition a time-1 act on later time index 2$"):
        expected_utility(rep, 2, 1, f1, 0)
    with pytest.raises(PreconditionError, match=r"^act at time index 2 is not measurable at 1$"):
        expected_utility(rep, 0, 1, f2, 0)
    with pytest.raises(IndexError, match=r"^time index -1 out of range 0\.\.3$"):
        expected_utility(rep, -1, 2, f2, 0)
    with pytest.raises(IndexError, match=r"^time index 4 out of range 0\.\.3$"):
        expected_utility(rep, 0, 4, f2, 0)


def test_expected_utility_checks_t_before_a_null_atom():
    """On a null atom the kernel answers 0, but only for a time index t that
    exists: it checks t first."""
    rng = random.Random(1)
    rep = drawn_representation(rng, 4, False, True)
    (k,) = rep.P.null_atoms(1)
    f = random_act(rng, rep.space, 2)
    assert expected_utility(rep, 1, 2, f, k) == 0
    with pytest.raises(IndexError, match=r"^time index 4 out of range 0\.\.3$"):
        expected_utility(rep, 1, 4, f, k)


def plain_expected_utility(rep, s, t, f, k):
    """E[u(t, f) | A] on time-``s`` atom ``k``: the left-to-right loop on the
    measure's own weights and masses, 0 on a null atom."""
    mass = rep.P.atom_masses(s)[k]
    if not mass > 0:
        return 0
    value = 0
    for x in rep.space.partitions[s][k]:
        value += rep.P.weights[x] * rep.field.curves_by_state[t][x](f.values[x])
    return value / mass


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    null=st.booleans(),
    float_curves=st.booleans(),
    kinds=st.sampled_from((("float",), ("int", "dyadic", "third", "float"), ("int", "dyadic", "third"))),
)
def test_expected_utility_on_an_exact_measure_is_the_plain_sum(seed, null, float_curves, kinds):
    """On an exact measure, with exact or float curves, ``expected_utility``
    of a float act, of a mixed act of ints, ``Fraction``s and floats, or of
    an exact act of ints and ``Fraction``s (with exact curves, every atom
    then takes the integer fold), equals the plain loop in value and type
    on every atom of every level."""
    rng = random.Random(seed)
    rep = drawn_representation(rng, 3, True, null)
    if float_curves:
        floats = random_representation(random.Random(seed), n_times=3)
        rep = Representation(rep.space, rep.P, UtilityField(rep.space, tuple(
            tuple(floats.field.curves[i][0] for _ in row) for i, row in enumerate(rep.field.curves)
        )))
    space = rep.space
    for t in range(1, space.n_times):
        f = Act.from_atom_values(space, t, [atom_value(rng, rng.choice(kinds)) for _ in range(space.n_atoms(t))])
        for s in range(t + 1):
            for k in range(space.n_atoms(s)):
                got, want = expected_utility(rep, s, t, f, k), plain_expected_utility(rep, s, t, f, k)
                assert (type(got), repr(got)) == (type(want), repr(want)), (s, t, k)


def built(make):
    """An act's values with their types, time index and null_fill, or the
    type and message of the error that building it raised."""
    try:
        act = make()
    except (InvariantError, IndexError) as exc:
        return type(exc), str(exc)
    return bits(act), act.time_index


def atom_value(rng, kind):
    if kind == "int":
        return rng.randint(-5, 5)
    if kind == "dyadic":
        return Fraction(rng.randint(-9, 9), 2 ** rng.randint(0, 4))
    if kind == "third":
        return Fraction(rng.randint(-9, 9), 3)
    return rng.uniform(-2, 2)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), kinds=st.lists(st.sampled_from(("int", "dyadic", "third", "float")), min_size=1))
def test_trusted_constructors_equal_the_validating_constructor(seed, kinds):
    """``from_atom_values``, ``restrict``, ``paste`` and ``at_time`` build
    what ``Act(...)`` builds from the same values, or raise what it raises:
    on events at, before and after the act's time, on events with no time,
    some of which split an atom of the act's time."""
    rng = random.Random(seed)
    space = random_space(rng)
    n = space.n_states

    def drawn(i):
        per_atom = [atom_value(rng, rng.choice(kinds)) for _ in range(space.n_atoms(i))]
        null_atoms = [k for k in range(len(per_atom)) if rng.random() < 0.3]
        return per_atom, null_atoms

    def events():
        for j in range(space.n_times):
            yield space.union_event(j, [k for k in range(space.n_atoms(j)) if rng.random() < 0.5])
        yield Event(space, frozenset(s for s in range(n) if rng.random() < 0.5))

    for i in range(space.n_times):
        part, amap = space.partitions[i], space.atom_index_map(i)
        per_atom, null_atoms = drawn(i)
        spread = tuple(per_atom[k] for k in amap)
        null_fill = frozenset(s for k in null_atoms for s in part[k])
        assert built(lambda: Act.from_atom_values(space, i, per_atom, null_atoms)) == built(
            lambda: Act(space, i, spread, null_fill)
        )
        f = Act.from_atom_values(space, i, per_atom, null_atoms)
        g = Act.from_atom_values(space, i, drawn(i)[0])
        for j in range(-1, space.n_times + 1):
            assert built(lambda: f.at_time(j)) == built(lambda: Act(space, j, f.values, f.null_fill))
        for A in events():
            cut = tuple(v if s in A.members else 0 for s, v in enumerate(f.values))
            assert built(lambda: f.restrict(A)) == built(lambda: Act(space, i, cut))
            mixed = tuple(f.values[s] if s in A.members else g.values[s] for s in range(n))
            assert built(lambda: paste(f, g, A)) == built(lambda: Act(space, i, mixed))


@settings(derandomize=True, deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), bad=st.sampled_from((math.inf, -math.inf, math.nan)))
def test_trusted_constructors_keep_their_errors(seed, bad):
    """A non-finite per-atom value is rejected; cutting or pasting along an
    event that splits an atom of the act's time raises today's
    measurability error."""
    rng = random.Random(seed)
    space = random_space(rng)
    i = rng.randrange(space.n_times)
    per_atom = [rng.uniform(1, 2) for _ in range(space.n_atoms(i))]
    per_atom[rng.randrange(len(per_atom))] = bad
    with pytest.raises(InvariantError, match=r"^act values must be finite$"):
        Act.from_atom_values(space, i, per_atom)
    wide = [(k, atom) for k, atom in enumerate(space.partitions[i]) if len(atom) > 1]
    if not wide:
        return
    k, atom = rng.choice(wide)
    split = atom[: rng.randrange(1, len(atom))]
    message = (
        rf"^act not measurable at time index {i}: values differ inside atom "
        rf"{re.escape(space.atom_label(i, k))}$"
    )
    f = Act.from_atom_values(space, i, [rng.uniform(1, 2) for _ in range(space.n_atoms(i))])
    g = f.shift(5)
    splitting = [Event(space, frozenset(split))]
    for j in range(i + 1, space.n_times):
        subs = [sub for sub in space.partitions[j] if sub[0] in atom]
        if len(subs) > 1:  # a union of atoms, but at a time after the act's
            splitting.append(Event(space, frozenset(subs[0]), j))
            break
    for A in splitting:
        with pytest.raises(InvariantError, match=message):
            f.restrict(A)
        with pytest.raises(InvariantError, match=message):
            paste(f, g, A)


def anchor_scan(u, x):
    """Reference evaluation of a piecewise-linear curve: the segment found by
    walking the anchors in order, on the argument as given."""
    first, last, slopes = u.anchors[0], u.anchors[-1], u._slopes
    if x < first[0]:
        return first[1] + slopes[0] * (x - first[0])
    if x > last[0]:
        return last[3] + slopes[-1] * (x - last[0])
    for i, a in enumerate(u.anchors):
        if x == a[0]:
            return a[2]
        if x < u.anchors[i + 1][0]:
            return a[3] + slopes[i] * (x - a[0])


def drawn_curve(rng, kind):
    """Int, float or mixed abscissae with float values; dyadic or 1/3
    ``Fraction`` abscissae with float values; or exact ``Fraction``
    abscissae and values.  Some anchors are jumps."""
    n = rng.randint(2, 6)
    ks = sorted(rng.sample(range(-12, 13), n))
    xs = {
        "int": ks,
        "float": sorted(rng.sample([rng.uniform(-6, 6) for _ in range(3 * n)], n)),
        "mixed": [k if rng.random() < 0.5 else k + 0.25 for k in ks],
        "dyadic": [Fraction(k, 4) for k in ks],
        "third": [ks[0] + Fraction(1, 3)] + [Fraction(k, 4) for k in ks[1:]],
        "exact": [Fraction(k, rng.choice((3, 4))) for k in ks],
    }[kind]
    xs = sorted(xs)  # distinct: the 1/3 abscissa is no quarter

    def step():
        if kind == "exact":
            return Fraction(rng.randint(1, 9), rng.choice((1, 2, 3, 5, 7)))
        return rng.uniform(0.1, 2.0)

    anchors, y = [], -step() * len(xs)
    for x in xs:
        jump = rng.random() < 0.3
        value = y + step() if jump else y
        right = value + step() if jump else value
        anchors.append((x, y, value, right))
        y = right + step()
    return PiecewiseLinearCurve(tuple(anchors))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(("int", "float", "mixed", "dyadic", "third", "exact")),
)
def test_curve_evaluation_matches_the_anchor_scan(seed, kind):
    """Value and type of ``u(x)``, and of ``u``'s evaluator bound once,
    equal the anchor-scan reference's for dyadic, 1/3 and out-of-range
    ``Fraction``s, floats and ints on, next to and between every anchor."""
    rng = random.Random(seed)
    u = drawn_curve(rng, kind)
    evaluate = u.evaluator
    xs = [a[0] for a in u.anchors]
    points = [xs[0] - 1, xs[-1] + 1] + xs + [(a + b) / 2 for a, b in zip(xs, xs[1:])]
    args = []
    for p in points:
        exact = Fraction(p)
        args += [p, float(p), math.floor(p), math.ceil(p), exact]
        args += [exact + d for d in (Fraction(1, 3), -Fraction(1, 3), Fraction(1, 1024), -Fraction(1, 2))]
        args += [float(p) + d for d in (-1e-12, 1e-12)]
        args += [Fraction(float(p) + d) for d in (-1e-12, 1e-12)]
    args += [Fraction(2**60 + 1, 2), -Fraction(2**60 + 1, 2), Fraction(1, 2**1100), Fraction(3, 2**1074)]
    for x in args:
        want = anchor_scan(u, x)
        for got in (u(x), evaluate(x)):
            assert (type(got), repr(got)) == (type(want), repr(want)), (x, u)


@functools.lru_cache(maxsize=None)
def recovered_representations() -> tuple[Representation, ...]:
    """Two recoveries by float oracles, on the default grid's float form, and
    two by exact oracles, on its ``Fraction``s."""
    rng = random.Random(77)
    reps = [random_representation(rng, n_times=n, kinds=("pl",), min_first_split=3) for n in (3, 4)]
    reps += [villa_scenario().representation(), identity_representation(*three_atom_space())]
    return tuple(
        recover_representation(
            InducedOracle(rep, tol=1e-12), rep.u0, require_three_essential=rep.space.n_atoms(1) > 2
        ).rep
        for rep in reps
    )


def test_recoveries_print_the_grid_in_their_number_kind():
    texts = [
        dumps_scenario(ScenarioSpec(r.space, r.P, r.field, {})) for r in recovered_representations()
    ]
    assert ["(-0.5," in t for t in texts] == [True, True, False, False]
    assert ["(-1/2," in t for t in texts] == [False, False, True, True]


class AskingOracle(InducedOracle):
    """The induced oracle with ``ask`` overridden, so that every search
    takes the base class's path through ``ask``."""

    def ask(self, i, g, f, A=None):
        return super().ask(i, g, f, A)


def whole_act_tabulation(oracle, i, prev, grid, tol):
    """Step ``i``'s tabulation and Debreu audit with each act valued whole:
    ``atom_certainty_equivalents`` on every act, then the left fold of
    mass·u(c) over the positive time-``i`` atoms.  Returns the
    normalization offsets and the Debreu residual."""
    space, level = oracle.space, i + 1
    positive = [(k, mass, prev.curves[k]) for k, mass in enumerate(prev.masses) if mass > 0]

    def value(f):
        ces = atom_certainty_equivalents(oracle, i, f, tol)
        total = 0
        for k, mass, u in positive:
            total += mass * u(0 if ces[k] is None else ces[k])
        return float(total)

    xs = tuple(sorted(set(grid.values) | {0, 1}))
    tab = [[value(Act.constant(space, level, x).restrict(A)) for x in xs] for A in space.atom_events(level)]
    residual = 0.0
    for f, pos in _debreu_candidates(space, level, xs, 81 if level == 1 else 64):
        total = value(f)
        split = functools.reduce(operator.add, (tab[k][p] for k, p in enumerate(pos)), 0)
        residual = max(residual, abs(total - split))
    return tuple(float(col[xs.index(0)]) for col in tab), residual


def step_outcome(run, oracle):
    """``run(oracle)``'s result, or the type and message of what it raised,
    with the queries asked and the atom memo's keys in insertion order."""
    try:
        got = run(oracle)
    except (BracketError, RecoveryError) as exc:
        got = (type(exc), str(exc))
    return got, oracle.queries, list(oracle._atom_memo)


@settings(derandomize=True, deadline=None, max_examples=24)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_times=st.sampled_from((3, 4)),
    exact=st.booleans(),
    null=st.booleans(),
    oracle=st.sampled_from(("kernel", "ask", "failing")),
)
def test_recovery_terms_are_the_whole_act_values(seed, n_times, exact, null, oracle):
    """Each step of a recovery, on a fresh oracle, asks the queries, fills
    the atom memo in the order and reports the offsets and Debreu residual
    bit for bit, or raises the bracket failure, of a tabulation that values
    every act whole on another fresh oracle: float and exact measures, with
    a null time-1 atom (whose zero-mass parent is still searched), mixed
    curve kinds, on the induced kernel, on the path through ``ask``, and on
    an oracle whose brackets fail, after step 0, wherever an act takes the
    grid's largest value."""
    rep = drawn_representation(random.Random(seed), n_times, exact, null)
    grid = grid_for(InducedOracle(rep), DEFAULT_GRID)

    def fresh(i):
        if oracle == "failing" and i > 0:
            return Unbracketed(rep, frozenset(grid.values[-1:]))
        return (AskingOracle if oracle == "ask" else InducedOracle)(rep, tol=1e-12)

    prev = RecoveredStep(0, (1,), (rep.u0,), 0.0, (), (0.0,))
    for i in range(rep.space.n_times - 1):
        want, want_queries, want_order = step_outcome(
            lambda o: whole_act_tabulation(o, i, prev, grid, 1e-10), fresh(i)
        )
        got, got_queries, got_order = step_outcome(
            lambda o: recover_step_i(o, i, prev, grid, 1e-10, False, math.inf), fresh(i)
        )
        assert (got_queries, got_order) == (want_queries, want_order)
        if isinstance(got, RecoveredStep):
            offsets, residual = want
            assert [repr(x) for x in got.normalization_offsets] == [repr(x) for x in offsets]
            assert repr(got.debreu_residual) == repr(residual)
        elif got[0] is RecoveryError:
            assert type(want[0]) is float  # raised past the audit, which went as the reference's
            return
        else:
            assert got == want
            return
        prev = got


@settings(derandomize=True, deadline=None, max_examples=100)
@given(seed=st.integers(0, 2**32 - 1))
def test_scenario_text_round_trips_byte_for_byte(seed):
    """``dumps(loads(dumps(spec)))`` is ``dumps(spec)`` for a generated
    representation, its rescaled clone and a recovered one, each with a
    random act at every time."""
    rng = random.Random(seed)
    rep = random_representation(rng)
    clone = scaled_clone(rep, random_equivalent_measure(rng, rep.P))
    recovered = recovered_representations()[seed % 4]
    for r in (rep, clone, recovered):
        acts = {f"f{t}": random_act(rng, r.space, t) for t in range(r.space.n_times)}
        text = dumps_scenario(ScenarioSpec(r.space, r.P, r.field, acts, title=f"seed {seed}"))
        assert dumps_scenario(loads_scenario(text)) == text


class ExactView(InducedOracle):
    """An induced oracle declared exact, so the audits take the grid as
    given: the reference for the float-form audits of an inexact one."""

    exact = True


def floats_printed(text):
    """``text`` with every ``p/q`` printed as its float."""
    if text is None:
        return None
    return re.sub(r"-?\d+/\d+", lambda m: repr(float(Fraction(m.group()))), text)


def audit_results(oracle, i, f, cap=None):
    """(passed, counterexample, note, queries) of every check at step i."""
    kwargs = {} if cap is None else {"cap": cap}
    results = list(check_T(oracle, i, **kwargs).clauses.values())
    results += [check_M(oracle, i, **kwargs), check_ST(oracle, i, **kwargs)]
    results += [check_C(oracle, i, f, style) for style in C_STYLES]
    return [(r.passed, r.counterexample, r.note, r.queries) for r in results]


def assert_float_form_audit_matches(rep, i, f, cap=None):
    """The audits of ``rep``'s inexact oracle equal those of its exact view,
    once the view's counterexamples print their ``Fraction``s as floats."""
    oracle = InducedOracle(rep)
    assert not oracle.exact
    want = [
        (passed, floats_printed(c), note, queries)
        for passed, c, note, queries in audit_results(ExactView(rep), i, f, cap)
    ]
    assert audit_results(oracle, i, f, cap) == want


@settings(derandomize=True, deadline=None, max_examples=20)
@given(seed=st.integers(0, 2**32 - 1), n_times=st.sampled_from((2, 3)), data=st.data())
def test_float_form_audits_match_the_fraction_grid(seed, n_times, data):
    """An inexact induced oracle audited on the default grid's float form
    gives every check's result and query count of the same oracle audited
    on the grid's ``Fraction``s."""
    rng = random.Random(seed)
    rep = random_representation(rng, n_times=n_times)
    i = data.draw(st.integers(0, n_times - 2))
    assert_float_form_audit_matches(rep, i, random_act(rng, rep.space, i + 1), cap=400)


@pytest.mark.parametrize("i", [0, 1])
def test_float_form_audits_match_on_criterion5(i):
    rng = random.Random(55)
    rep = random_representation(rng, n_times=3, kinds=("pl", "linear", "identity"), min_first_split=3)
    fs = [random_act(rng, rep.space, j + 1) for j in (0, 1)]
    assert_float_form_audit_matches(rep, i, fs[i])


def test_float_form_audits_match_on_the_flat_segment():
    # the one control whose counterexample prints a grid Fraction
    rep = flat_segment().rep
    assert_float_form_audit_matches(rep, 0, Act.from_atom_values(rep.space, 1, [1, 0, -1]))
