"""Oracle interface: induced answers, bisection equivalents, null detection."""

from __future__ import annotations

import math
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
    LinearCurve,
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
from itpref import oracles
from itpref.engine import Representation
from itpref.oracles import (
    PreferenceOracle,
    QueryAnswer,
    _certify,
    atom_certainty_equivalents,
    indifference_constant,
)
from itpref.sampling import margin_guarded_pair, random_act, random_measure, random_representation

from conftest import atom_search, drawn_act, drawn_representation, exact_representation, identity_rep


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
        elsewhere = rep.space.union_event(s, [j for j in range(rep.space.n_atoms(s)) if j != k])
        off_atom = oracle.ask(s, g_up, f, elsewhere)
        assert off_atom.equiv

    def test_exact_margin_at_an_anchor_stays_exact(self, two_branch_space):
        # at its anchor abscissa 1.0 the curve returns its exact value 1/3, so
        # the margin over the exact value 1/10 is 7/30, which exceeds a tol
        # set to the float margin float(1/3) - float(1/10): only the margin
        # taken in exact arithmetic answers "not preceq"
        space = two_branch_space
        band = float(Fraction(1, 3)) - float(Fraction(1, 10))

        def oracle_with(u0):
            field = UtilityField.from_atom_curves(space, [[u0], [IdentityCurve()] * 2])
            P = ProbabilityMeasure(space, (Fraction(1, 2), Fraction(1, 2)))
            return InducedOracle(Representation(space, P, field), band)

        oracle = oracle_with(PiecewiseLinearCurve.from_points([(-1, Fraction(-1, 3)), (0, 0), (1, Fraction(1, 3))]))
        f = Act.constant(space, 1, Fraction(1, 10))
        assert oracle.query(0, Act.constant(space, 0, 1.0), f) == QueryAnswer(True, False)
        # mirrored at the search's first upper bracket end 1.0: u0(1) = 1/10
        # against the value 1/3 is the margin -7/30, below -tol, so the
        # bracket doubles; a float margin would be -tol and keep 1.0
        mirrored = PiecewiseLinearCurve.from_points(
            [(-1, Fraction(-1, 10)), (0, 0), (1, Fraction(1, 10)), (2, Fraction(1, 5))]
        )
        f = Act.constant(space, 1, Fraction(1, 3))
        assert oracle_with(mirrored).query(0, Act.constant(space, 0, 1.0), f) == QueryAnswer(False, True)
        got = assert_kernel_is_reference(lambda: oracle_with(mirrored), 0, f, 0, 1e-10)
        assert 1.0 < got <= 1.0 + 1e-10

    def test_null_event_answers_vacuously(self, four_state_space):
        P = ProbabilityMeasure(four_state_space, (Fraction(1, 2), Fraction(1, 2), 0, 0))
        oracle = InducedOracle(identity_rep(four_state_space, P))
        dead = four_state_space.atom_event(1, 1)
        huge = Act.constant(four_state_space, 1, 100)
        tiny = Act.constant(four_state_space, 2, -100)
        assert oracle.ask(1, huge, tiny, dead).equiv

    @pytest.mark.parametrize("level", [Fraction(5, 4), 1.25], ids=["exact-value", "float-value"])
    def test_batched_answers_agree_at_the_band_edges(self, two_branch_space, level):
        # margins of exactly -tol and +tol lie inside the band: both answers
        # hold, from ``query`` and in the kernel's search, at the bracket
        # ends 1.0 (margin -tol against the value 5/4) and -1.0 (margin +tol
        # against -5/4), which each search then keeps
        space = two_branch_space

        def make():
            return InducedOracle(identity_rep(space, ProbabilityMeasure.uniform(space)), tol=0.25)

        for sign, c in ((1, 1.0), (-1, -1.0)):
            f = Act.constant(space, 1, sign * level)
            assert make().query(0, Act.constant(space, 0, c), f) == QueryAnswer(True, True)
            got = assert_kernel_is_reference(make, 0, f, 0, 1e-10)
            if sign == 1:
                assert got == 1.0  # kept: the value is inf{c : c >= 1}
            else:
                assert -1.0 < got <= -1.0 + 1e-10  # bisected down to the kept -1.0

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
        whole = space.atom_event(0, 0)
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
        """The kernel's per-atom searches return, and ask, what the search
        through ``ask`` does, on float and exact ``Fraction``
        representations with a null atom, at three search tolerances; the
        searches' constants include anchors of positive atoms' curves.  The
        same for the intransitive band on each representation, at steps 0
        and 1, on its designated act and on another: only the designated
        act's search at step 0 calls ``query``."""
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
            asked, ask = [], single.ask
            single.ask = lambda i, g, f, A=None: asked.append((A.members, g.values[0])) or ask(i, g, f, A)
            f = drawn_act(rng, space, 2, exact)
            for k in range(space.n_atoms(1)):
                for tol in (1e-10, 2.0**-30, 0.0):
                    assert search_outcome(per_atom.search_atom, 1, f, k, tol) == search_outcome(
                        lambda *args: ask_search(single, *args), 1, f, k, tol
                    )
                    assert per_atom.queries == single.queries
            for members, c in asked:
                k = space.atom_index_map(1)[min(members)]
                anchors = getattr(rep.field.curve_on_atom(1, k), "anchors", ())
                anchors_on_positive_atoms[exact] += k > 0 and any(a[0] == c for a in anchors)  # atom 0 is null

            target = drawn_act(rng, space, 1, exact)
            per_band, single_band = IntransitiveBandOracle(rep, target), IntransitiveBandOracle(rep, target)
            band_query, calls = per_band.query, []
            per_band.query = lambda *args: calls.append(args) or band_query(*args)
            for i, designated, other in (
                (0, target, drawn_act(rng, space, 1, exact)),
                (1, target.at_time(2), f),
            ):
                for g in (designated, other):
                    for k in range(space.n_atoms(i)):
                        before, asked_before = len(calls), per_band.queries
                        assert search_outcome(per_band.search_atom, i, g, k, 1e-10) == search_outcome(
                            lambda *args: ask_search(single_band, *args), i, g, k, 1e-10
                        )
                        spent = per_band.queries - asked_before
                        assert len(calls) - before == (spent if i == 0 and g is designated else 0)
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
            space.atom_event(0, 0),
            space.union_event(1, range(space.n_atoms(1))),
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
        assert oracle.ask(0, g, f, sp.union_event(1, range(sp.n_atoms(1)))) == oracle.ask(0, g, f)
        assert oracle.ask(0, g, f, Event(sp, frozenset(), 0)) == QueryAnswer(True, True)

    def test_an_event_of_another_space_is_refused_on_every_call(self):
        oracle = nonadditive_meanmax()
        sp = oracle.space
        g, f = Act.constant(sp, 0, 0), Act.from_atom_values(sp, 1, [1, 0, -1])
        first = oracle.ask(0, g, f, sp.atom_event(0, 0))
        other = FilteredSpace.build(("p", "q", "r"), (0, 1), [[["p", "q", "r"]], [["p", "q"], ["r"]]])
        for _ in range(2):
            with pytest.raises(InvariantError, match="event is defined on another filtered space"):
                oracle.ask(0, g, f, Event(other, frozenset({0, 1, 2}), 0))
        assert oracle.ask(0, g, f, sp.atom_event(0, 0)) == first


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
        for A in (None, sp.atom_event(0, 0), sp.union_event(1, range(sp.n_atoms(1))), Event(sp, frozenset(), 0)):
            assert oracle.ask(0, g, f, A) == QueryAnswer(True, False)

    def test_always_succeq_refuses_an_event_of_another_space_on_every_call(self):
        oracle = always_succeq()
        sp = oracle.space
        g, f = Act.constant(sp, 0, 0), Act.from_atom_values(sp, 1, [1, 0, -1])
        oracle.ask(0, g, f, sp.atom_event(0, 0))
        for _ in range(2):
            with pytest.raises(InvariantError, match="event is defined on another filtered space"):
                oracle.ask(0, g, f, Event(self.OTHER, frozenset({0, 1, 2}), 0))

    def test_the_band_refuses_another_space_for_its_designated_act(self):
        oracle = intransitive_band()
        sp = oracle.space
        g = Act.constant(sp, 0, 0)
        # the band's answer: 0 is within the band below the value 3/8
        assert oracle.ask(0, g, oracle.target, sp.atom_event(0, 0)) == QueryAnswer(True, True)
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
        first = oracle.ask(0, g, f, oracle.space.atom_event(0, 0))
        for _ in range(2):
            with pytest.raises(InvariantError, match="event is defined on another filtered space"):
                oracle.ask(0, g, f, foreign)
        assert oracle.ask(0, g, f, oracle.space.atom_event(0, 0)) == first
        assert oracle.queries == 5

    def test_an_event_not_known_at_t_i_is_refused_on_every_repeat(self, name):
        oracle, g, f = event_case(name)
        sp = oracle.space
        for A in (Event(sp, frozenset({0})), *sp.atom_events(1), Event(sp, frozenset({0, 2}), 1)):
            for _ in range(2):
                with pytest.raises(InvariantError, match="not a union of atoms at time index 0: splits atom {x,y,z}"):
                    oracle.ask(0, g, f, A)
        assert oracle.ask(0, g, f, sp.union_event(1, range(sp.n_atoms(1)))) == oracle.ask(0, g, f)

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
        c = indifference_constant(oracle, 0, f, two_branch_space.atom_event(0, 0), tol=1e-10)
        assert c == pytest.approx(1.5, abs=1e-9)

    def test_bracket_failure_on_degenerate_oracle(self):
        oracle = AlwaysSucceqOracle(three_atom_space()[0])
        f = Act.constant(oracle.space, 1, 0)
        with pytest.raises(BracketError):
            indifference_constant(oracle, 0, f, oracle.space.atom_event(0, 0))

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


def ask_search(oracle, i, f, k, tol):
    """:func:`conftest.atom_search` of time-``i`` atom ``k`` on the answers
    of ``oracle.ask``, with each constant act built and validated anew."""
    space = oracle.space
    A = space.atom_event(i, k)
    return atom_search(lambda c: oracle.ask(i, Act.constant(space, i, c), f, A), i, A, tol)


def search_outcome(search, i, f, k, tol):
    """What ``search(i, f, k, tol)`` finds, as ``search_atom`` returns it:
    the constant, None for an insensitive atom, or the message of a
    bracket failure (which :func:`ask_search` raises)."""
    try:
        return search(i, f, k, tol)
    except BracketError as exc:
        return str(exc)


def assert_kernel_is_reference(make_oracle, i, f, k, tol):
    """The induced kernel's search of atom ``k`` on a fresh ``make_oracle()``
    returns, and asks, what :func:`ask_search` and the base class's search
    through ``ask`` do, each on another; the kernel calls no ``query``.
    Returns what it found."""
    kernel, reference, base = make_oracle(), make_oracle(), make_oracle()

    def unreachable(*args):
        raise AssertionError("the kernel's search asked through query")

    kernel.query = unreachable  # an instance attribute: the dispatch sees the class's
    got = search_outcome(kernel.search_atom, i, f, k, tol)
    assert got == search_outcome(lambda *args: ask_search(reference, *args), i, f, k, tol)
    assert got == search_outcome(lambda *args: PreferenceOracle.search_atom(base, *args), i, f, k, tol)
    assert kernel.queries == reference.queries == base.queries
    return got


def sequential_profile(oracle, i, f, tol):
    """The atom-by-atom reference: one :func:`ask_search` after another,
    each to its end, raising the first failure."""
    found = [ask_search(oracle, i, f, k, tol) for k in range(oracle.space.n_atoms(i))]
    return as_profile(oracle.space, i, found)


def as_profile(space, i, found):
    """Per-atom constants, None for an insensitive atom, as a time-``i``
    act with the insensitive atoms filled with 0 and flagged."""
    per_atom = [0 if c is None else c for c in found]
    insensitive = [k for k, c in enumerate(found) if c is None]
    return Act.from_atom_values(space, i, per_atom, insensitive)


class TestLockstepProfile:
    """``indifference_profile`` searches every atom of a level through
    ``search_atom``; it must return, and ask, exactly what the reference
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
            ask_search(alone, 1, f, k, tol)
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
    """Induced oracle that records which atoms it searches; it overrides
    neither ``query`` nor ``ask``, so it keeps the kernel."""

    def __init__(self, rep):
        super().__init__(rep, tol=1e-12)
        self.asked = set()

    def search_atom(self, i, f, k, tol):
        self.asked.add(k)
        return super().search_atom(i, f, k, tol)


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
            ask_search(alone, 1, g, k, 1e-10)
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
                ask_search(fresh, 1, Act(POISON_SPACE, 2, values), k, 1e-9)
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
# value), honestly but undecided within ``VAGUE`` of f's value (vague),
# never "at least as good" (no upper bracket), never "at most as good" (no
# lower bracket), both ways whatever c is (insensitive), or neither way
# whatever c is (undecided)
SCRIPTS = {
    "no upper": QueryAnswer(False, True),
    "no lower": QueryAnswer(True, False),
    "insensitive": QueryAnswer(True, True),
    "undecided": QueryAnswer(False, False),
}
VAGUE = 0.75


class Scripted(PreferenceOracle):
    """An oracle on singleton atoms whose atom k answers as ``kinds[k]``."""

    def __init__(self, space, kinds):
        super().__init__(space)
        self.kinds = kinds

    def query(self, i, g, f, A=None):
        k = min(A.members)
        if self.kinds[k] in ("honest", "vague"):
            c, v = g.values[k], f.values[k]
            if self.kinds[k] == "vague" and abs(c - v) < VAGUE:
                return QueryAnswer(False, False)
            return QueryAnswer(c >= v, c <= v)
        return SCRIPTS[self.kinds[k]]


if given is not None:

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        st.lists(
            st.tuples(st.sampled_from(["honest", "vague", *SCRIPTS]), st.floats(-100, 100)),
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


# two equiprobable states under one time-0 atom, split at time 1
TWO = FilteredSpace.build(("up", "down"), (0, 1), [[["up", "down"]], [["up"], ["down"]]])


def on_two(u0, band=0.25):
    """The factory of the induced oracle on ``TWO`` with time-0 curve
    ``u0``, identity curves at time 1 and answer band ``band``."""
    field = UtilityField.from_atom_curves(TWO, [[u0], [IdentityCurve()] * 2])
    rep = Representation(TWO, ProbabilityMeasure.uniform(TWO), field)
    return lambda: InducedOracle(rep, band)


# a curve flat at -1/4 below -1 and at 1/4 above 1: against the value 0 the
# probe's margins are exactly -1/4 and +1/4
FLAT_ENDS = PiecewiseLinearCurve.from_points([(-2, -0.25), (-1, -0.25), (1, 0.25), (2, 0.25)], strict=False)
TINY_SLOPE = LinearCurve(Fraction(1, 2**50))  # 2**-10 at the bracket limit
LIMIT_SLOPE = LinearCurve(Fraction(1, 2**40))  # 1 at the bracket limit


class Exhausting(IdentityCurve):
    """The identity curve, which raises once ``left`` evaluations are spent:
    a search that would never end fails instead."""

    def __init__(self, left=10_000):
        self.left = left

    def __call__(self, x):
        self.left -= 1
        if self.left < 0:
            raise RuntimeError("evaluations spent")
        return x


class NanAbove(IdentityCurve):
    """The identity curve up to 1/4, NaN above it."""

    def __call__(self, x):
        return math.nan if x > 0.25 else x


class TestKernelSearch:
    """The induced oracle's one-loop search against the search through
    ``ask`` at the places where one comparison or one count decides."""

    @pytest.mark.parametrize(
        "u0, level, band, tol, want",
        [
            # margin -tol at the first midpoint 0.0: kept as the upper end
            (IdentityCurve(), 0.25, 0.25, 1e-10, 0.0),
            (IdentityCurve(), Fraction(1, 4), 0.25, 1e-10, 0.0),
            # margins +tol and -tol at the probe's huge and tiny constants
            (FLAT_ENDS, 0, 0.25, 1e-10, None),
            (FLAT_ENDS, 0.0, 0.25, 1e-10, None),
            # a bracket width that reaches tol exactly
            (IdentityCurve(), 0.3, 0.0, 2.0**-30, 0.30000000074505806),
            # no tol, or one below 0: the bisection ends on adjacent floats
            (Exhausting(), 0.3, 0.0, 0.0, 0.3),
            (Exhausting(), Fraction(3, 10), 0.0, 0.0, 0.3),
            (Exhausting(), 0.3, 0.0, -1.0, 0.3),
            # the upper end found at the bracket limit itself
            (LIMIT_SLOPE, 1, 0.0, 1e-10, 2.0**40),
            (TINY_SLOPE, 1, 0.25, 1e-10, "no upper bracket on {up,down} at step 0"),
            (TINY_SLOPE, -1.0, 0.25, 1e-10, "no lower bracket on {up,down} at step 0"),
            # a margin inside the band at the huge constant only
            (FLAT_ENDS, 0.25, 0.0, 1e-10, 1.0),
        ],
    )
    def test_pinned_cases(self, u0, level, band, tol, want):
        f = Act.constant(TWO, 1, level)
        assert assert_kernel_is_reference(on_two(u0, band), 0, f, 0, tol) == want

    def test_a_null_atom_asks_the_probe_only(self, four_state_space):
        P = ProbabilityMeasure(four_state_space, (Fraction(1, 2), Fraction(1, 2), 0, 0))
        f = Act(four_state_space, 2, (1, 3, 5, 7))
        rep = identity_rep(four_state_space, P)
        assert assert_kernel_is_reference(lambda: InducedOracle(rep), 1, f, 0, 1e-10) == pytest.approx(2, abs=1e-9)
        assert assert_kernel_is_reference(lambda: InducedOracle(rep), 1, f, 1, 1e-10) is None
        oracle = InducedOracle(rep)
        assert oracle.search_atom(1, f, 1, 1e-10) is None and oracle.queries == 2

    def test_a_nan_margin_holds_neither_side(self):
        """A curve that is NaN above 1/4 answers neither way there, on
        ``query`` and in both searches, so the upper bracket fails."""
        space, P = three_atom_space()
        field = UtilityField.from_atom_curves(space, [[NanAbove()], [IdentityCurve()] * 3])
        rep = Representation(space, P, field)
        f = Act.from_atom_values(space, 1, [Fraction(-1, 2), Fraction(-1, 2), 0])  # value -1/4
        oracle = InducedOracle(rep)
        assert oracle.query(0, Act.constant(space, 0, 0.5), f) == QueryAnswer(False, False)
        assert oracle.query(0, Act.constant(space, 0, 0.25), f) == QueryAnswer(True, False)
        want = "no upper bracket on {x,y,z} at step 0"
        assert assert_kernel_is_reference(lambda: InducedOracle(rep), 0, f, 0, 1e-9) == want
        fresh = InducedOracle(rep)
        with pytest.raises(BracketError, match="no upper bracket"):
            atom_certainty_equivalents(fresh, 0, f)
        assert fresh.queries == 43  # the probe's two constants, then 1, 2, ..., 2**40

    def test_queries_count_the_answer_a_curve_raised_in(self):
        for fails_at in (1, 2, 3, 30):
            spent = []
            for search in (InducedOracle.search_atom, PreferenceOracle.search_atom):
                curve = Exhausting()
                oracle = on_two(curve)()
                curve.left = fails_at - 1
                with pytest.raises(RuntimeError, match="evaluations spent"):
                    search(oracle, 0, Act.constant(TWO, 1, 0.3), 0, 1e-10)
                spent.append(oracle.queries)
            assert spent == [fails_at, fails_at]


class Bounded(InducedOracle):
    """An induced oracle that overrides ``ask``, so it searches through it,
    and raises after ``limit`` queries in place of asking forever."""

    limit = 10_000

    def ask(self, i, g, f, A=None):
        if self.queries >= self.limit:
            raise RuntimeError("queries spent")
        return super().ask(i, g, f, A)


class TestSearchEnds:
    """A bisection whose ``tol`` is below the float spacing at its constant
    stops on adjacent floats, on the kernel and through ``ask``."""

    def test_a_tol_below_the_spacing_ends_on_adjacent_floats(self):
        f = Act(TWO, 1, (1e8, 1e8 + 2))
        bounded = Bounded(on_two(IdentityCurve(), band=1e-12)().rep, 1e-12)
        for oracle in (on_two(Exhausting(), band=1e-12)(), bounded):
            assert indifference_profile(oracle, 0, f, 1e-9).values == (100000001.0, 100000001.0)
            assert oracle.queries == 85

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-9])
    def test_a_tol_not_finite_and_nonnegative_is_refused(self, tol):
        space, P = three_atom_space()
        field = UtilityField.from_atom_curves(space, [[Exhausting()], [IdentityCurve()] * 3])
        oracle = InducedOracle(Representation(space, P, field))
        f = Act.from_atom_values(space, 1, [Fraction(-1, 2), 1, Fraction(1, 2)])  # value 3/8
        searches = (
            lambda: atom_certainty_equivalents(oracle, 0, f, tol),
            lambda: indifference_profile(oracle, 0, f, tol),
            lambda: indifference_constant(oracle, 0, f, oracle.space.atom_event(0, 0), tol),
        )
        for search in searches:
            with pytest.raises(ValueError, match="search tol must be finite and >= 0, got"):
                search()
        assert oracle.queries == 0
        assert atom_certainty_equivalents(oracle, 0, f, 1e-10) == [pytest.approx(0.375, abs=1e-9)]


# certificate cases: a kinked continuous curve, one with a jump at 1, one
# flat on [1, 2], and one whose segment right of 1 starts at 1e16, where the
# float spacing of the utility is 2
KINKED = PiecewiseLinearCurve.from_points([(-1.3, -1.0), (0, 0), (0.7, 0.3), (1.9, 1)])
JUMPED = PiecewiseLinearCurve.from_points([(-1, -1), (0, 0), (1, 0.5, 1, 1.5), (2, 3)])
FLAT_MID = PiecewiseLinearCurve.from_points([(-1, -1), (0, 0), (1, 0.5), (2, 0.5), (3, 2)], strict=False)
COARSE = PiecewiseLinearCurve.from_points([(0, 0), (1, 1e16), (3, 1e16 + 4)])
# two equiprobable states split at time 1, so that a time-1 curve may jump
LADDER = FilteredSpace.build(("up", "down"), (0, 1, 2), [[["up", "down"]], [["up"], ["down"]], [["up"], ["down"]]])


def on_ladder(u1, band):
    """The factory of the induced oracle on ``LADDER`` with curve ``u1`` on
    the time-1 atom {up}, identity curves elsewhere and band ``band``."""
    field = UtilityField.from_atom_curves(LADDER, [[IdentityCurve()], [u1, IdentityCurve()], [IdentityCurve()] * 2])
    rep = Representation(LADDER, ProbabilityMeasure.uniform(LADDER), field)
    return lambda: InducedOracle(rep, band)


def counting_copy(curve):
    """A fresh copy of the piecewise-linear ``curve`` whose evaluator
    appends each argument to the returned list."""
    copy = PiecewiseLinearCurve(curve.anchors)
    evaluate, calls = copy.evaluator, []

    def counted(x):
        calls.append(x)
        return evaluate(x)

    copy.__dict__["evaluator"] = counted  # the cached property's slot
    return copy, calls


class TestCertificate:
    """The kernel answers a bisection midpoint inside a certified segment by
    one comparison with the certificate's threshold.  Each case pins the
    crossing, the certificate and the curve evaluations the kernel makes,
    and finds and asks what the reference search does."""

    @pytest.mark.parametrize("tol", [0.0, 1e-10])
    @pytest.mark.parametrize(
        "curve, level, band, span, certified",
        [
            pytest.param(KINKED, -2.9, 0.0, (-math.inf, -1.3, -3.7700000000000005), True, id="left-walks-up"),
            pytest.param(KINKED, 1.7, 0.0, (1.9, math.inf, 3.0999999999999996), True, id="right-walks-up"),
            pytest.param(KINKED, 0.7, 0.0, (0.7, 1.9, 1.3857142857142857), True, id="inside-walks-down"),
            # 0.685 is KINKED(1.36) exactly, the float above x̂
            pytest.param(KINKED, 0.685, 0.0, (0.7, 1.9, 1.3599999999999999), True, id="walks-up-to-an-exact-hit"),
            pytest.param(KINKED, 0.45, 0.25, (0, 0.7, 0.4666666666666667), True, id="inside-banded"),
            pytest.param(KINKED, 0.2, 1e-12, (0, 0.7, 0.4666666666643333), True, id="inside-thin-band"),
            pytest.param(KINKED, 0.3, 0.0, None, False, id="on-an-anchor"),
            pytest.param(KINKED, -1.0, 0.0, None, False, id="on-the-first-anchor"),
            pytest.param(JUMPED, 1.25, 0.0, None, False, id="in-a-jump-gap"),
            pytest.param(FLAT_MID, 0.5, 0.0, None, False, id="on-a-flat-segment"),
            pytest.param(FLAT_ENDS, 0.5, 0.0, None, False, id="beyond-a-flat-end"),
            # the threshold 4 floats below x̂ and 2**51 floats below it
            pytest.param(KINKED, -0.1, 1e-9, (-1.3, 0, -0.13000000129999978), False, id="walk-one-past-its-cap"),
            pytest.param(COARSE, 1e16 + 2, 0.0, (1, 3, 2.0), False, id="walk-far-past-its-cap"),
        ],
    )
    def test_named_cases(self, curve, level, band, span, certified, tol):
        assert curve._crossing(level - band) == span
        cert = None if span is None else _certify(span, curve.evaluator, level, band)
        assert (cert is not None) == certified
        if cert is not None:
            a, b, t = cert
            below = math.nextafter(t, -math.inf)
            assert curve(t) - level >= -band and not curve(below) - level >= -band
            assert a < below < t < b
        f = Act.constant(LADDER, 2, level)
        copy, calls = counting_copy(curve)
        oracle = on_ladder(copy, band)()
        oracle.search_atom(1, f, 0, tol)
        if certified:
            assert len(calls) < oracle.queries
        else:
            walked = 0 if span is None else 1 + oracles._WALK
            assert len(calls) == oracle.queries + walked
        assert_kernel_is_reference(on_ladder(curve, band), 1, f, 0, tol)

    def test_only_plain_float_data_crosses(self):
        """A curve with a ``Fraction``, or with an anchor number that
        differs from its float image, gets no crossing; its float twin
        does."""
        twin = PiecewiseLinearCurve.from_points([(-1, -1), (0, 0), (1, 0.5)])
        assert twin._crossing(0.25) == (0, 1, 0.5)
        assert PiecewiseLinearCurve.from_points([(-1, -1), (0, 0), (1, Fraction(1, 2))])._crossing(0.25) is None
        wide = PiecewiseLinearCurve.from_points([(-1, -1), (0, 0), (2**53 + 1, 2**53 + 1)])
        assert wide._crossing(0.25) is None


# levels on the identity time-2 curve, so f's value on {up} is the level
# itself: float and exact, ordinary, huge (a crossing estimate that
# overflows against a tiny slope) and subnormal
AFFINE_LEVELS = (
    0.3, -2.5, 1e300, -1e300, 5e-324, -1e-310, 1e-20,
    Fraction(3, 10), Fraction(-5, 2), Fraction(10**300), Fraction(1, 10**320),
)
AFFINE_CURVES = [IdentityCurve()] + [LinearCurve(s) for s in (1e-300, 1e-9, 0.3, 7.5, 1e9, 1e300)]


class TestAffineCertificate:
    """An identity curve and a float-slope linear curve are each one affine
    segment over the whole line, certified like a piecewise-linear segment:
    the kernel's search returns and asks what the reference search does."""

    @pytest.mark.parametrize("band", [0.0, 1e-9, 0.25])
    @pytest.mark.parametrize("curve", AFFINE_CURVES, ids=lambda c: c.spec())
    def test_kernel_is_the_reference_search(self, curve, band):
        for level in AFFINE_LEVELS:
            f = Act.constant(LADDER, 2, level)
            for tol in (0.0, 1e-12, 1e-10):
                assert_kernel_is_reference(on_ladder(curve, band), 1, f, 0, tol)

    def test_crossings(self):
        assert IdentityCurve()._crossing(0.25) == (-math.inf, math.inf, 0.25)
        assert LinearCurve(0.5)._crossing(0.25) == (-math.inf, math.inf, 0.5)
        assert LinearCurve(1e-300)._crossing(1e300) == (-math.inf, math.inf, math.inf)
        # an exact slope gets no crossing
        assert LinearCurve(Fraction(1, 2))._crossing(0.25) is None
        assert LinearCurve(2)._crossing(0.25) is None


def test_the_identity_search_evaluates_the_margin_a_few_times(monkeypatch):
    """One step-0 search on the identity curve of the intransitive-band or
    the flat-segment control, at the audits' tol 1e-12, asks 45 queries and
    evaluates the margin at most 6 times (45 without the certificate): the
    probe and the bracket evaluate it, the certificate answers every
    bisection midpoint."""
    evaluated = []
    search = oracles._margin_search

    def counting_search(margin, *args):
        def counted(c):
            evaluated.append(c)
            return margin(c)

        return search(counted, *args)

    monkeypatch.setattr(oracles, "_margin_search", counting_search)
    for make in (intransitive_band, flat_segment):
        oracle = make()
        evaluated.clear()
        f = Act.from_atom_values(oracle.space, 1, [1, 0, -1])
        indifference_profile(oracle, 0, f, 1e-12)
        assert oracle.queries == 45
        assert len(evaluated) <= 6


if given is not None:

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        exact=st.booleans(),
        null=st.booleans(),
        band=st.sampled_from([1e-9, 0.0, 0.25]),
        tol=st.sampled_from([1e-9, 2.0**-30, 0.0]),
    )
    def test_kernel_search_is_the_search_through_ask(seed, exact, null, band, tol):
        """On generated float and exact induced oracles, with and without a
        null time-1 atom, every per-atom search at steps 0 and 1 returns,
        and asks, what the search through ``ask`` does."""
        rng = random.Random(seed)
        rep = drawn_representation(rng, 3, exact, null)
        for i in (0, 1):
            f = drawn_act(rng, rep.space, i + 1, exact)
            for k in range(rep.space.n_atoms(i)):
                assert_kernel_is_reference(lambda: InducedOracle(rep, band), i, f, k, tol)

    @st.composite
    def float_pl_cases(draw):
        """A float piecewise-linear curve through 0, built with
        ``strict=False``: two to six off-grid float and int abscissae, some
        anchors jumps (left < value < right) and some segments flat; and a
        level at one of its anchor values (or that value plus the band),
        between two of them, beyond all of them, taken by the curve at a
        float or anywhere, as a float or as its exact ``Fraction``."""
        abscissa = st.one_of(st.integers(-40, 40), st.floats(-40, 40)).filter(bool)
        xs = sorted({0, *draw(st.lists(abscissa, min_size=1, max_size=5, unique=True))})
        rise = st.floats(1e-3, 10)
        step = st.one_of(rise, st.just(0.0))
        y, anchors = draw(st.floats(-50, 0)), []
        for x in xs:
            left = y
            value = right = left
            if draw(st.booleans()):
                value = left + draw(rise)
                right = value + draw(rise)
            anchors.append((x, left, value, right))
            y = right + draw(step)
        zero = anchors[xs.index(0)][2]
        anchors = [(x, l - zero, v - zero, r - zero) for x, l, v, r in anchors]
        curve = PiecewiseLinearCurve.from_points(anchors, strict=False)
        band = draw(st.sampled_from([0.0, 1e-12, 1e-9, 0.25]))
        values = sorted({n for _, *lvr in anchors for n in lvr})
        at = st.sampled_from(values)
        between = st.integers(0, len(values) - 2).map(lambda j: 0.5 * (values[j] + values[j + 1]))
        level = draw(
            st.one_of(
                between if len(values) > 1 else at,
                st.sampled_from([values[0] - 1.0, values[-1] + 1.0, values[0] - 1e3, values[-1] + 1e3]),
                st.floats(-200, 200),
                st.floats(xs[0] - 5, xs[-1] + 5).map(lambda c: float(curve(c))),
                at,
                at.map(lambda v: v + band),
            )
        )
        if draw(st.booleans()):
            level = Fraction(level)
        return curve, level, band

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(case=float_pl_cases(), tol=st.sampled_from([0.0, 1e-12, 1e-10]))
    def test_certified_kernel_is_the_reference_search(case, tol):
        """On a generated float piecewise-linear time-1 curve, with jumps,
        flat segments and off-grid abscissae, the kernel's search, certified
        or not, returns and asks what the reference search does."""
        curve, level, band = case
        assert_kernel_is_reference(on_ladder(curve, band), 1, Act.constant(LADDER, 2, level), 0, tol)
