"""Oracle interface: induced answers, bisection equivalents, null detection."""

from __future__ import annotations

import pickle
import random
from fractions import Fraction

import pytest

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # only the property test at the end needs hypothesis
    given = None

from itpref import (
    Act,
    BracketError,
    Event,
    FilteredSpace,
    IdentityCurve,
    InducedOracle,
    InvariantError,
    PiecewiseLinearCurve,
    ProbabilityMeasure,
    UtilityField,
    cce,
    compare,
    indifference_profile,
)
from itpref.controls import (
    AlwaysSucceqOracle,
    IntransitiveBandOracle,
    MeanMaxOracle,
    always_succeq,
    flat_segment,
    identity_representation,
    intransitive_band,
    nonadditive_meanmax,
    three_atom_space,
)
from itpref.engine import Representation
from itpref.oracles import (
    BRACKET_LIMIT,
    INSENSITIVITY_PROBE,
    PreferenceOracle,
    QueryAnswer,
    atom_certainty_equivalents,
    indifference_constant,
)
from itpref.sampling import margin_guarded_pair, random_act, random_measure, random_representation

from conftest import drawn_act, exact_representation, identity_rep


class TestInducedOracle:
    def test_agrees_with_compare(self):
        rng = random.Random(3)
        for _ in range(25):
            rep = random_representation(rng)
            oracle = InducedOracle(rep)
            s, t, g, f, _ = margin_guarded_pair(rng, rep)
            if t != s + 1:
                continue
            verdict = compare(rep, s, t, g, f)
            ans = oracle.ask(s, g, f)
            assert ans.succeq == verdict.holds_succeq
            assert ans.preceq == verdict.holds_preceq

    def test_restriction_to_event(self):
        rng = random.Random(5)
        rep = random_representation(rng, n_times=3, min_first_split=3)
        oracle = InducedOracle(rep)
        s = 1
        f = random_act(rng, rep.space, 2)
        g = cce(rep, s, 2, f)
        k = rep.P.positive_atoms(s)[0]
        g_up = Act.from_atom_values(
            rep.space, s, [v + 1 if j == k else v for j, v in enumerate(g.atom_values())]
        )
        on_atom = oracle.ask(s, g_up, f, rep.space.atom_event(s, k))
        assert on_atom.succeq and not on_atom.preceq
        elsewhere = rep.space.atom_event(s, k).complement()
        off_atom = oracle.ask(s, g_up, f, elsewhere)
        assert off_atom.equiv

    def test_exact_margin_at_an_anchor_stays_exact(self, two_branch_space):
        # at its anchor abscissa 1.0 the curve returns its exact value 1/3, so
        # the margin over the exact value 1/10 is 7/30, which exceeds a tol
        # set to the float margin float(1/3) - float(1/10): only the margin
        # taken in exact arithmetic answers "not preceq"
        space = two_branch_space
        u0 = PiecewiseLinearCurve.from_points([(-1, Fraction(-1, 3)), (0, 0), (1, Fraction(1, 3))])
        field = UtilityField.from_atom_curves(space, [[u0], [IdentityCurve()] * 2])
        rep = Representation(space, ProbabilityMeasure(space, (Fraction(1, 2), Fraction(1, 2))), field)
        oracle = InducedOracle(rep, float(Fraction(1, 3)) - float(Fraction(1, 10)))
        f = Act.constant(space, 1, Fraction(1, 10))
        assert oracle.atom_answers(0, f, 0)(1.0) == QueryAnswer(True, False)
        assert oracle.query(0, Act.constant(space, 0, 1.0), f) == QueryAnswer(True, False)

    def test_null_event_answers_vacuously(self, four_state_space):
        P = ProbabilityMeasure(four_state_space, (Fraction(1, 2), Fraction(1, 2), 0, 0))
        oracle = InducedOracle(identity_rep(four_state_space, P))
        dead = four_state_space.atom_event(1, 1)
        huge = Act.constant(four_state_space, 1, 100)
        tiny = Act.constant(four_state_space, 2, -100)
        assert oracle.ask(1, huge, tiny, dead).equiv

    @pytest.mark.parametrize("level", [1, 1.0], ids=["exact-value", "float-value"])
    def test_batched_answers_agree_at_the_band_edges(self, two_branch_space, level):
        # margins of exactly -tol and +tol lie inside the band: both answers
        # hold, from ``query`` and from either answer closure
        space = two_branch_space
        oracle = InducedOracle(identity_rep(space, ProbabilityMeasure.uniform(space)), tol=0.25)
        f = Act.constant(space, 1, level)
        answer = oracle.atom_answers(0, f, 0)
        for c in (0.75, 1.25, Fraction(3, 4), Fraction(5, 4)):
            assert answer(c) == oracle.query(0, Act.constant(space, 0, c), f) == QueryAnswer(True, True)

    def test_an_event_not_known_at_t_i_is_refused(self):
        sp = FilteredSpace.build(
            ("a", "b", "c"), (0, 1, 2), [[["a", "b", "c"]], [["a", "b"], ["c"]], [["a"], ["b"], ["c"]]]
        )
        oracle = InducedOracle(identity_rep(sp, ProbabilityMeasure.uniform(sp)))
        g, f = Act.constant(sp, 1, 0), Act(sp, 2, (10, -10, 0))
        for state in (0, 1):  # {a} and {b} each split the time-1 atom {a,b}
            with pytest.raises(InvariantError, match="not a union of atoms at time index 1: splits atom {a,b}"):
                oracle.ask(1, g, f, Event(sp, frozenset({state}), 2))
        # a union of time-1 atoms stays valid under a later time index
        assert oracle.ask(1, g, f, Event(sp, frozenset({2}), 2)) == QueryAnswer(True, True)
        other = FilteredSpace.build(
            ("x", "y", "z"), (0, 1, 2), [[["x", "y", "z"]], [["x"], ["y", "z"]], [["x"], ["y"], ["z"]]]
        )
        with pytest.raises(InvariantError, match="event is defined on another filtered space"):
            oracle.ask(1, g, f, Event(other, frozenset({1, 2}), 1))

    def test_an_event_of_another_space_is_refused_after_a_valid_ask_on_its_states(self):
        sp = FilteredSpace.build(
            ("a", "b", "c"), (0, 1, 2), [[["a", "b", "c"]], [["a", "b"], ["c"]], [["a"], ["b"], ["c"]]]
        )
        oracle = InducedOracle(identity_rep(sp, ProbabilityMeasure.uniform(sp)))
        g, f = Act.constant(sp, 1, 0), Act(sp, 2, (10, -10, 0))
        assert oracle.ask(1, g, f, Event(sp, frozenset({2}), 1)) == QueryAnswer(True, True)
        other = FilteredSpace.build(
            ("x", "y", "z"), (0, 1, 2), [[["x", "y", "z"]], [["x"], ["y", "z"]], [["x"], ["y"], ["z"]]]
        )
        with pytest.raises(InvariantError, match="event is defined on another filtered space"):
            oracle.ask(1, g, f, Event(other, frozenset({2}), 2))
        # a space equal to the oracle's, built apart, is the same space
        twin = FilteredSpace(sp.states, sp.times, sp.partitions)
        assert oracle.ask(1, g, f, Event(twin, frozenset({2}), 1)) == QueryAnswer(True, True)

    def test_the_flat_segment_control_refuses_another_space_on_every_call(self):
        oracle = flat_segment()
        space = oracle.space
        g, f = Act.constant(space, 0, 0), Act.from_atom_values(space, 1, [1, 0, -1])
        whole = space.whole_event(0)
        first = oracle.ask(0, g, f, whole)
        other = FilteredSpace.build(("p", "q", "r"), (0, 1), [[["p", "q", "r"]], [["p", "q"], ["r"]]])
        for _ in range(2):
            with pytest.raises(InvariantError, match="event is defined on another filtered space"):
                oracle.ask(0, g, f, Event(other, whole.members, 0))
        assert oracle.ask(0, g, f, whole) == first

    def test_answers_stable(self):
        space, P = three_atom_space()
        oracle = InducedOracle(identity_representation(space, P))
        g = Act.constant(space, 0, Fraction(1, 3))
        f = Act.from_atom_values(space, 1, [1, 0, -1])
        first = oracle.ask(0, g, f)
        assert all(oracle.ask(0, g, f) == first for _ in range(5))

    def test_batched_answers_equal_single_queries(self):
        """On float and exact ``Fraction`` representations with a null atom,
        at floats, exact ``Fraction``s and constants that sit exactly on an
        anchor of the atom's curve, given as its abscissa, as that
        abscissa's float and as its ``Fraction``.  The same for the
        intransitive band on each representation, at steps 0 and 1, on its
        designated act and on another: only the designated act's search at
        step 0 calls ``query``."""
        rng = random.Random(13)
        anchors_on_positive_atoms = {False: 0, True: 0}
        for case in range(12):
            exact = case >= 6
            rep = random_representation(rng, n_times=3, min_first_split=3)
            space = rep.space
            dead = space.atom_members(1, 0)
            if exact:
                rep = exact_representation(rng, space, dead)
            else:
                rep = Representation(space, random_measure(rng, space, null_states=dead), rep.field)
            per_atom, single = InducedOracle(rep), InducedOracle(rep)
            f = drawn_act(rng, space, 2, exact)
            asked = []
            for k in range(space.n_atoms(1)):
                asked += [(k, rng.uniform(-3, 3)) for _ in range(3)]
                asked += [(k, Fraction(rng.randint(-27, 27), rng.randint(1, 9))) for _ in range(3)]
                for anchor in getattr(rep.field.curve_on_atom(1, k), "anchors", ()):
                    asked += [(k, anchor[0]), (k, float(anchor[0])), (k, Fraction(anchor[0]))]
                    anchors_on_positive_atoms[exact] += k > 0  # atom 0 is null
            want = [
                single.ask(1, Act.constant(space, 1, c), f, space.atom_event(1, k))
                for k, c in asked
            ]
            answers = [per_atom.atom_answers(1, f, k) for k in range(space.n_atoms(1))]
            assert [answers[k](c) for k, c in asked] == want
            assert per_atom.queries == single.queries == len(asked)

            target = drawn_act(rng, space, 1, exact)
            per_band, single_band = IntransitiveBandOracle(rep, target), IntransitiveBandOracle(rep, target)
            band_query, calls = per_band.query, []
            per_band.query = lambda *args: calls.append(args) or band_query(*args)
            consts = [c for _, c in asked]
            for i, designated, other in (
                (0, target, drawn_act(rng, space, 1, exact)),
                (1, target.at_time(2), f),
            ):
                for g in (designated, other):
                    for k in range(space.n_atoms(i)):
                        before = len(calls)
                        answer = per_band.atom_answers(i, g, k)
                        assert [answer(c) for c in consts] == [
                            single_band.ask(i, Act.constant(space, i, c), g, space.atom_event(i, k))
                            for c in consts
                        ]
                        assert len(calls) - before == (len(consts) if i == 0 and g is designated else 0)
            assert per_band.queries == single_band.queries
        assert all(anchors_on_positive_atoms.values())


    def test_an_oracle_that_has_answered_pickles(self):
        rng = random.Random(5)
        rep = random_representation(rng, n_times=3, kinds=("pl",), min_first_split=3)
        oracle = InducedOracle(rep)
        f = random_act(rng, rep.space, 1)
        asked = [Act.constant(rep.space, 0, c) for c in (-1.0, 0.0, 0.5)]
        want = [oracle.ask(0, g, f) for g in asked]
        copy = pickle.loads(pickle.dumps(oracle))
        assert [copy.ask(0, g, f) for g in asked] == want
        assert copy.queries == oracle.queries + len(asked)


class TestMeanMaxMemo:
    def test_shared_values_answer_as_a_fresh_oracle_would(self):
        space, _ = three_atom_space()
        P = ProbabilityMeasure(space, (Fraction(1, 4), 0, Fraction(3, 4)))  # {y} is null
        f = Act.from_atom_values(space, 1, [1, 0, -1])  # V(f) = -1/2 + 1
        twin = Act.from_atom_values(space, 1, [1, 0, -1])
        as_floats = Act.from_atom_values(space, 1, [1.0, 0.0, -1.0])
        h = Act.from_atom_values(space, 1, [Fraction(1, 3), 5, -0.5])  # 5 sits on the null state
        acts = [f, f, twin, h, as_floats, f, h, h, twin]
        # the events known at t_0: none, the whole space (under time indices 0
        # and 1) and the empty one
        events = [
            None,
            space.whole_event(0),
            space.whole_event(1),
            Event(space, frozenset(), 0),
        ]
        constants = [Act.constant(space, 0, c) for c in (0, 0.5, 0.5 + 2e-9, Fraction(5, 6), 1)]
        oracle = MeanMaxOracle(space, P)
        asked = 0
        for x in acts:
            for g in constants:
                for A in events:
                    got = oracle.ask(0, g, x, A)
                    asked += 1
                    assert oracle.queries == asked
                    assert got == MeanMaxOracle(space, P).ask(0, g, x, A), (x.values, g.values, A)
        answers = {oracle.ask(0, g, f, A) for g in constants for A in events}
        assert len(answers) == 3  # better, worse and equivalent all occur


class TestMeanMaxEvents:
    def test_an_event_not_known_at_t_i_is_refused(self):
        oracle = nonadditive_meanmax()
        sp = oracle.space
        g, f = Act.constant(sp, 0, 0), Act.from_atom_values(sp, 1, [1, 0, -1])
        for A in (Event(sp, frozenset({0})), *sp.atom_events(1), Event(sp, frozenset({0, 2}), 1)):
            for _ in range(2):  # refused again, not remembered as asked
                with pytest.raises(InvariantError, match="not a union of atoms at time index 0: splits atom {x,y,z}"):
                    oracle.ask(0, g, f, A)
        assert oracle.ask(0, g, f, sp.whole_event(1)) == oracle.ask(0, g, f)
        assert oracle.ask(0, g, f, Event(sp, frozenset(), 0)) == QueryAnswer(True, True)

    def test_an_event_of_another_space_is_refused_on_every_call(self):
        oracle = nonadditive_meanmax()
        sp = oracle.space
        g, f = Act.constant(sp, 0, 0), Act.from_atom_values(sp, 1, [1, 0, -1])
        first = oracle.ask(0, g, f, sp.whole_event(0))
        other = FilteredSpace.build(("p", "q", "r"), (0, 1), [[["p", "q", "r"]], [["p", "q"], ["r"]]])
        for _ in range(2):
            with pytest.raises(InvariantError, match="event is defined on another filtered space"):
                oracle.ask(0, g, f, Event(other, frozenset({0, 1, 2}), 0))
        assert oracle.ask(0, g, f, sp.whole_event(0)) == first


class TestControlEvents:
    """The always-succeq and intransitive-band controls refuse the events
    the induced and mean-max oracles refuse."""

    OTHER = FilteredSpace.build(("p", "q", "r"), (0, 1), [[["p", "q", "r"]], [["p", "q"], ["r"]]])

    def test_always_succeq_refuses_an_event_not_known_at_t_i(self):
        oracle = always_succeq()
        sp = oracle.space
        g, f = Act.constant(sp, 0, 0), Act.from_atom_values(sp, 1, [1, 0, -1])
        for A in (Event(sp, frozenset({0})), *sp.atom_events(1), Event(sp, frozenset({0, 2}), 1)):
            for _ in range(2):  # refused again, not remembered as asked
                with pytest.raises(InvariantError, match="not a union of atoms at time index 0: splits atom {x,y,z}"):
                    oracle.ask(0, g, f, A)
        for A in (None, sp.whole_event(0), sp.whole_event(1), Event(sp, frozenset(), 0)):
            assert oracle.ask(0, g, f, A) == QueryAnswer(True, False)

    def test_always_succeq_refuses_an_event_of_another_space_on_every_call(self):
        oracle = always_succeq()
        sp = oracle.space
        g, f = Act.constant(sp, 0, 0), Act.from_atom_values(sp, 1, [1, 0, -1])
        oracle.ask(0, g, f, sp.whole_event(0))
        for _ in range(2):
            with pytest.raises(InvariantError, match="event is defined on another filtered space"):
                oracle.ask(0, g, f, Event(self.OTHER, frozenset({0, 1, 2}), 0))

    def test_the_band_refuses_another_space_for_its_designated_act(self):
        oracle = intransitive_band()
        sp = oracle.space
        g = Act.constant(sp, 0, 0)
        # the band's answer: 0 is within the band below the value 3/8
        assert oracle.ask(0, g, oracle.target, sp.whole_event(0)) == QueryAnswer(True, True)
        for _ in range(2):
            with pytest.raises(InvariantError, match="event is defined on another filtered space"):
                oracle.ask(0, g, oracle.target, Event(self.OTHER, frozenset({0, 1, 2}), 0))
        twin = FilteredSpace(sp.states, sp.times, sp.partitions)
        assert oracle.ask(0, g, oracle.target, Event(twin, frozenset({0, 1, 2}), 0)) == QueryAnswer(True, True)


# every oracle in the library, each with the act f it is asked about at step
# 0: the band's designated act takes its own branch, any other act the
# induced oracle's
EVENT_ORACLES = {
    "induced": (lambda: InducedOracle(identity_representation(*three_atom_space())), False),
    "flat_segment": (flat_segment, False),
    "mean_max": (nonadditive_meanmax, False),
    "always_succeq": (always_succeq, False),
    "band_designated_act": (intransitive_band, True),
    "band_other_act": (intransitive_band, False),
}


def event_case(name):
    build, designated = EVENT_ORACLES[name]
    oracle = build()
    sp = oracle.space
    f = oracle.target if designated else Act.from_atom_values(sp, 1, [1, 0, -1])
    return oracle, Act.constant(sp, 0, 0), f


@pytest.mark.parametrize("name", list(EVENT_ORACLES))
class TestEventRule:
    """Each oracle keeps the one event rule: an event must live on the
    oracle's space and be known at t_i."""

    OTHER = TestControlEvents.OTHER

    def test_another_space_is_refused_first_and_after_a_valid_ask(self, name):
        oracle, g, f = event_case(name)
        foreign = Event(self.OTHER, frozenset({0, 1, 2}), 0)
        with pytest.raises(InvariantError, match="event is defined on another filtered space"):
            oracle.ask(0, g, f, foreign)
        first = oracle.ask(0, g, f, oracle.space.whole_event(0))
        for _ in range(2):
            with pytest.raises(InvariantError, match="event is defined on another filtered space"):
                oracle.ask(0, g, f, foreign)
        assert oracle.ask(0, g, f, oracle.space.whole_event(0)) == first
        assert oracle.queries == 5

    def test_an_event_not_known_at_t_i_is_refused_on_every_repeat(self, name):
        oracle, g, f = event_case(name)
        sp = oracle.space
        for A in (Event(sp, frozenset({0})), *sp.atom_events(1), Event(sp, frozenset({0, 2}), 1)):
            for _ in range(2):
                with pytest.raises(InvariantError, match="not a union of atoms at time index 0: splits atom {x,y,z}"):
                    oracle.ask(0, g, f, A)
        assert oracle.ask(0, g, f, sp.whole_event(1)) == oracle.ask(0, g, f)

    def test_an_equal_space_built_apart_is_accepted(self, name):
        oracle, g, f = event_case(name)
        sp = oracle.space
        twin = FilteredSpace(sp.states, sp.times, sp.partitions)
        for members in (frozenset({0, 1, 2}), frozenset()):
            on_twin = oracle.ask(0, g, f, Event(twin, members, 0))
            assert oracle.ask(0, g, f, Event(sp, members, 0)) == on_twin
            assert oracle.ask(0, g, f, Event(twin, members, 0)) == on_twin


class TestIndifference:
    def test_profile_matches_engine_cce(self):
        rng = random.Random(7)
        for _ in range(10):
            rep = random_representation(rng, n_times=3)
            oracle = InducedOracle(rep, tol=1e-12)
            f = random_act(rng, rep.space, 2)
            got = indifference_profile(oracle, 1, f, tol=1e-10)
            want = cce(rep, 1, 2, f)
            assert got.sup_dist(want, rep.P) < 1e-9

    def test_constant_bisection_two_branches(self, two_branch_space):
        P = ProbabilityMeasure(two_branch_space, (Fraction(1, 2), Fraction(1, 2)))
        oracle = InducedOracle(identity_rep(two_branch_space, P), tol=1e-12)
        f = Act(two_branch_space, 1, (4, -1))
        c = indifference_constant(oracle, 0, f, two_branch_space.whole_event(0), tol=1e-10)
        assert c == pytest.approx(1.5, abs=1e-9)

    def test_bracket_failure_on_degenerate_oracle(self):
        oracle = AlwaysSucceqOracle(three_atom_space()[0])
        f = Act.constant(oracle.space, 1, 0)
        with pytest.raises(BracketError):
            indifference_constant(oracle, 0, f, oracle.space.whole_event(0))

    def test_constant_on_an_insensitive_event_is_none(self, four_state_space):
        P = ProbabilityMeasure(four_state_space, (Fraction(1, 2), Fraction(1, 2), 0, 0))
        oracle = InducedOracle(identity_rep(four_state_space, P))
        f = Act(four_state_space, 2, (1, 3, 5, 7))
        assert indifference_constant(oracle, 1, f, four_state_space.atom_event(1, 1)) is None
        assert oracle.queries == 2  # the probe's huge and tiny constants

    def test_insensitive_atom_detected_and_filled(self, four_state_space):
        P = ProbabilityMeasure(four_state_space, (Fraction(1, 2), Fraction(1, 2), 0, 0))
        oracle = InducedOracle(identity_rep(four_state_space, P))
        f = Act(four_state_space, 2, (1, 3, 5, 7))
        prof = indifference_profile(oracle, 1, f)
        assert prof.null_fill == frozenset({2, 3})
        assert prof.values[2] == 0 and prof.values[3] == 0
        assert prof.values[0] == pytest.approx(2, abs=1e-8)


def atom_search(oracle, i, f, k, tol):
    """The reference search of one atom, written on ``oracle.ask`` apart
    from the library's: the probe (None when the atom is insensitive), then
    the bracket and the bisection."""
    space = oracle.space
    A = space.atom_event(i, k)

    def ask(c):
        return oracle.ask(i, Act.constant(space, i, c), f, A)

    huge, tiny = ask(INSENSITIVITY_PROBE), ask(-INSENSITIVITY_PROBE)
    if huge.preceq and tiny.succeq:
        return None
    hi = 1.0
    while not ask(hi).succeq:
        hi *= 2
        if hi > BRACKET_LIMIT:
            raise BracketError(f"no upper bracket on {A.label()} at step {i}")
    lo = -1.0
    while not ask(lo).preceq:
        lo *= 2
        if lo < -BRACKET_LIMIT:
            raise BracketError(f"no lower bracket on {A.label()} at step {i}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if ask(mid).succeq:
            hi = mid
        else:
            lo = mid
    return hi


def sequential_profile(oracle, i, f, tol):
    """The atom-by-atom reference: one :func:`atom_search` after another,
    each to its end, raising the first failure."""
    found = [atom_search(oracle, i, f, k, tol) for k in range(oracle.space.n_atoms(i))]
    return as_profile(oracle.space, i, found)


def as_profile(space, i, found):
    """Per-atom constants, None for an insensitive atom, as a time-``i``
    act with the insensitive atoms filled with 0 and flagged."""
    per_atom = [0 if c is None else c for c in found]
    insensitive = [k for k, c in enumerate(found) if c is None]
    return Act.from_atom_values(space, i, per_atom, insensitive)


class TestLockstepProfile:
    """``indifference_profile`` searches every atom of a level through
    ``atom_answers``; it must return, and ask, exactly what the reference
    search on ``ask`` does."""

    @staticmethod
    def assert_same_as_sequential(make_oracle, i, f, tol=1e-10):
        profiled, reference = make_oracle(), make_oracle()
        got = indifference_profile(profiled, i, f, tol)
        want = sequential_profile(reference, i, f, tol)
        assert got.values == want.values
        assert got.null_fill == want.null_fill
        assert profiled.queries == reference.queries > 0

    def test_induced_oracles_with_a_null_atom(self):
        rng = random.Random(11)
        for case in range(6):
            rep = random_representation(rng, n_times=3, min_first_split=3)
            space = rep.space
            dead = space.atom_members(1, case % space.n_atoms(1))
            P = random_measure(rng, space, null_states=dead)
            rep = Representation(space, P, rep.field)
            assert P.null_atoms(1)
            for i in (0, 1):
                f = random_act(rng, space, i + 1)
                self.assert_same_as_sequential(lambda: InducedOracle(rep, tol=1e-12), i, f)

    def test_overriding_query_keeps_its_answers(self):
        band = intransitive_band()
        for f in (band.target, Act.from_atom_values(band.space, 1, [1, 0, -1])):
            self.assert_same_as_sequential(intransitive_band, 0, f)
        honest = InducedOracle(band.rep)
        banded = indifference_profile(intransitive_band(), 0, band.target, 1e-10)
        assert banded.values != indifference_profile(honest, 0, band.target, 1e-10).values

    def test_overriding_ask_sees_every_query(self):
        class Logged(InducedOracle):
            def ask(self, i, g, f, A=None):
                self.asked.append(A)
                return super().ask(i, g, f, A)

        rep = random_representation(random.Random(17), n_times=3, min_first_split=3)
        oracle = Logged(rep)
        oracle.asked = []
        indifference_profile(oracle, 1, random_act(random.Random(18), rep.space, 2))
        assert len(oracle.asked) == oracle.queries > 0

    def test_mean_max_control(self):
        space = nonadditive_meanmax().space
        for per_atom in ([1, 0, -1], [2, 2, 2], [-3, 0, Fraction(1, 3)]):
            f = Act.from_atom_values(space, 1, per_atom)
            self.assert_same_as_sequential(nonadditive_meanmax, 0, f)

    def test_degenerate_oracle_raises_the_same_error(self):
        space = three_atom_space()[0]
        f = Act.constant(space, 1, 0)
        profiled, reference = AlwaysSucceqOracle(space), AlwaysSucceqOracle(space)
        with pytest.raises(BracketError) as got:
            indifference_profile(profiled, 0, f)
        with pytest.raises(BracketError) as want:
            sequential_profile(reference, 0, f, 1e-9)
        assert str(got.value) == str(want.value) == "no lower bracket on {x,y,z} at step 0"
        assert profiled.queries == reference.queries

    def test_lowest_failing_atom_wins_over_an_earlier_round(self):
        class ThreeFaults(PreferenceOracle):
            """Atoms {x} and {z} lose their lower bracket after 44 asks;
            atom {y} loses its upper bracket after 43."""

            def query(self, i, g, f, A=None):
                if 1 in A.members:
                    return QueryAnswer(False, True)
                return QueryAnswer(True, False)

        singletons = [["x"], ["y"], ["z"]]
        space = FilteredSpace.build(("x", "y", "z"), (0, 1, 2), [[["x", "y", "z"]], singletons, singletons])
        f = Act.constant(space, 2, 0)
        oracle, reference = ThreeFaults(space), ThreeFaults(space)
        with pytest.raises(BracketError) as got:
            indifference_profile(oracle, 1, f)
        with pytest.raises(BracketError) as want:
            sequential_profile(reference, 1, f, 1e-9)
        assert str(got.value) == str(want.value) == "no lower bracket on {x} at step 1"
        # {x} fails after 44 asks, and {y} and {z} above it are not searched
        assert oracle.queries == reference.queries == 44
        assert stored_atoms(oracle) == {0: "no lower bracket on {x} at step 1"}

    def test_atom_finishing_with_the_failure_is_not_stored(self):
        tol = 5e-12
        f = Act(POISON_SPACE, 2, (POISON, 0.5, -0.25))
        # {x} fails after 43 queries; alone, {y} and {z} each finish after 43
        for k in (1, 2):
            alone = PoisonedIdentity(POISON_SPACE)
            atom_search(alone, 1, f, k, tol)
            assert alone.queries == 43
        oracle, reference = PoisonedIdentity(POISON_SPACE), PoisonedIdentity(POISON_SPACE)
        with pytest.raises(BracketError) as got:
            indifference_profile(oracle, 1, f, tol)
        with pytest.raises(BracketError) as want:
            sequential_profile(reference, 1, f, tol)
        assert str(got.value) == str(want.value) == "no upper bracket on {x} at step 1"
        # {y} and {z} above {x} are not searched
        assert oracle.queries == reference.queries == 43
        assert stored_atoms(oracle) == {0: "no upper bracket on {x} at step 1"}


class AtomLog(InducedOracle):
    """Induced oracle that records which atoms its per-atom answer
    functions are asked about."""

    def __init__(self, rep):
        super().__init__(rep, tol=1e-12)
        self.asked = set()

    def atom_answers(self, i, f, k):
        answer = super().atom_answers(i, f, k)

        def logged(c):
            self.asked.add(k)
            return answer(c)

        return logged


def stored_atoms(oracle):
    """The atom memo as {atom index: stored result}."""
    return {key[1]: c for key, c in oracle._atom_memo.items()}


def with_atom_values(f, i, k, new):
    """``f`` with the states of time-``i`` atom ``k`` set to ``new``."""
    members = set(f.space.partitions[i][k])
    return Act(f.space, f.time_index, tuple(new if s in members else v for s, v in enumerate(f.values)))


POISON = 9.0
POISON_SPACE = FilteredSpace.build(
    ("x", "y", "z"), (0, 1, 2), [[["x", "y", "z"]], [["x"], ["y"], ["z"]], [["x"], ["y"], ["z"]]]
)


class PoisonedIdentity(PreferenceOracle):
    """Identity comparisons on singleton atoms, except that an atom where f
    is ``POISON`` never answers "at least as good": its upper bracket fails."""

    def query(self, i, g, f, A=None):
        v = f.values[min(A.members)]
        if v == POISON:
            return QueryAnswer(False, True)
        c = g.values[0]
        return QueryAnswer(c >= v, c <= v)


class TestAtomMemo:
    """``indifference_profile`` searches each (level, atom, restriction of f,
    tol) once per oracle; a repeat asks nothing and returns the same constant."""

    def test_shared_restrictions_ask_nothing(self):
        rng = random.Random(29)
        for _ in range(4):
            rep = random_representation(rng, n_times=3, min_first_split=3)
            space = rep.space
            f = random_act(rng, space, 2)
            k = rng.randrange(space.n_atoms(1))
            g = with_atom_values(f, 1, k, 1.25)
            oracle = AtomLog(rep)
            indifference_profile(oracle, 1, f, 1e-10)
            oracle.asked.clear()
            before = oracle.queries
            got = indifference_profile(oracle, 1, g, 1e-10)
            assert oracle.asked == {k}
            alone = InducedOracle(rep, tol=1e-12)
            atom_search(alone, 1, g, k, 1e-10)
            assert oracle.queries - before == alone.queries
            want = indifference_profile(InducedOracle(rep, tol=1e-12), 1, g, 1e-10)
            assert got.values == want.values
            assert got.null_fill == want.null_fill

    def test_other_tol_or_time_index_searches_again(self):
        rep = random_representation(random.Random(31), n_times=3, min_first_split=3)
        space = rep.space
        f1 = random_act(random.Random(32), space, 1)
        f2 = Act(space, 2, f1.values)
        oracle = AtomLog(rep)
        first = indifference_profile(oracle, 1, f1, 1e-10)
        for f, tol in ((f1, 1e-9), (f2, 1e-10)):
            oracle.asked.clear()
            again = indifference_profile(oracle, 1, f, tol)
            assert oracle.asked == set(range(space.n_atoms(1)))
            assert again.sup_dist(first) < 1e-8

    def test_bracket_failure_is_stored_and_raised_fresh(self):
        f = Act(POISON_SPACE, 2, (0.5, POISON, -0.75))
        fresh = PoisonedIdentity(POISON_SPACE)
        with pytest.raises(BracketError):
            indifference_profile(fresh, 1, f)
        oracle = PoisonedIdentity(POISON_SPACE)
        spent, raised = [], []
        for _ in range(3):
            before = oracle.queries
            with pytest.raises(BracketError) as err:
                indifference_profile(oracle, 1, f)
            assert str(err.value) == "no upper bracket on {y} at step 1"
            spent.append(oracle.queries - before)
            raised.append(err.value)
        assert spent == [fresh.queries, 0, 0]
        assert len({id(exc) for exc in raised}) == 3  # a fresh error each time

    def test_stored_failure_yields_only_to_a_lower_one(self):
        oracle = PoisonedIdentity(POISON_SPACE)

        def spend(values, label):
            before = oracle.queries
            with pytest.raises(BracketError) as err:
                indifference_profile(oracle, 1, Act(POISON_SPACE, 2, values))
            assert str(err.value) == f"no upper bracket on {label} at step 1"
            return oracle.queries - before

        def alone(values, k):
            fresh = PoisonedIdentity(POISON_SPACE)
            try:
                atom_search(fresh, 1, Act(POISON_SPACE, 2, values), k, 1e-9)
            except BracketError:
                pass
            return fresh.queries

        spend((0.5, 0.25, POISON), "{z}")
        # {z}'s failure is stored: only the unsearched {x} below it is asked
        assert spend((POISON, 0.25, POISON), "{x}") == alone((POISON, 0.25, POISON), 0)
        assert spend((0.75, 0.25, POISON), "{z}") == alone((0.75, 0.25, POISON), 0)
        # {x}'s failure is stored: nothing above it is searched
        assert spend((POISON, -0.5, -0.75), "{x}") == 0
        f = Act(POISON_SPACE, 2, (0.75, -0.5, -0.75))
        got = indifference_profile(oracle, 1, f)
        assert got == indifference_profile(PoisonedIdentity(POISON_SPACE), 1, f)

    def test_insensitive_atom_is_stored_as_insensitive(self, four_state_space):
        P = ProbabilityMeasure(four_state_space, (Fraction(1, 2), Fraction(1, 2), 0, 0))
        oracle = AtomLog(identity_rep(four_state_space, P))
        indifference_profile(oracle, 1, Act(four_state_space, 2, (1, 3, 5, 7)))
        oracle.asked.clear()
        prof = indifference_profile(oracle, 1, Act(four_state_space, 2, (2, 4, 5, 7)))
        assert oracle.asked == {0}
        assert prof.null_fill == frozenset({2, 3})
        assert prof.values[2] == prof.values[3] == 0
        assert prof.values[0] == pytest.approx(3, abs=1e-8)


# how one scripted atom answers c·1_A vs f·1_A: honestly (c against f's
# value), never "at least as good" (no upper bracket), never "at most as
# good" (no lower bracket), or both ways whatever c is (insensitive)
SCRIPTS = {
    "no upper": QueryAnswer(False, True),
    "no lower": QueryAnswer(True, False),
    "insensitive": QueryAnswer(True, True),
}


class Scripted(PreferenceOracle):
    """An oracle on singleton atoms whose atom k answers as ``kinds[k]``."""

    def __init__(self, space, kinds):
        super().__init__(space)
        self.kinds = kinds

    def query(self, i, g, f, A=None):
        k = min(A.members)
        if self.kinds[k] == "honest":
            c, v = g.values[k], f.values[k]
            return QueryAnswer(c >= v, c <= v)
        return SCRIPTS[self.kinds[k]]


if given is not None:

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        st.lists(
            st.tuples(st.sampled_from(["honest", *SCRIPTS]), st.floats(-100, 100)),
            min_size=2,
            max_size=5,
        )
    )
    def test_library_search_is_the_reference(atoms):
        """On 2-5 scripted singleton atoms at step 1, both library entry
        points return, or raise, and ask exactly what the reference does,
        and a repeated call asks nothing."""
        kinds, values = zip(*atoms)
        states = [f"s{k}" for k in range(len(atoms))]
        singletons = [[s] for s in states]
        space = FilteredSpace.build(states, (0, 1, 2), [[states], singletons, singletons])
        f = Act(space, 2, values)

        def outcome(run, oracle):
            try:
                got = run(oracle, 1, f, 1e-9)
            except BracketError as exc:
                return str(exc)
            if isinstance(got, list):
                got = as_profile(space, 1, got)
            return got.values, got.null_fill

        reference = Scripted(space, kinds)
        want = outcome(sequential_profile, reference)
        for run in (atom_certainty_equivalents, indifference_profile):
            oracle = Scripted(space, kinds)
            assert outcome(run, oracle) == want
            assert oracle.queries == reference.queries
            assert outcome(run, oracle) == want
            assert oracle.queries == reference.queries
