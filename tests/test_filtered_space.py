"""Spaces, measures, acts, conditional expectation, null events, paste."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from operator import add

import pytest

from itpref import (
    Act,
    Event,
    FilteredSpace,
    InvariantError,
    ProbabilityMeasure,
    conditional_expectation,
    is_measurable,
    is_null_event,
    maximal_null_event,
    null_events,
    paste,
)
from itpref.apps import villa_scenario, villa_t2_formula
from itpref.controls import three_atom_space
from itpref.sampling import random_act, random_measure, random_representation, random_space

from conftest import foreign_act, foreign_null_measure


class TestConstruction:
    def test_time0_must_be_trivial(self):
        with pytest.raises(InvariantError, match="trivial"):
            FilteredSpace.build(
                ("a", "b"), (0, 1), [[["a"], ["b"]], [["a"], ["b"]]]
            )

    def test_refinement_enforced(self):
        with pytest.raises(InvariantError, match="refine"):
            FilteredSpace.build(
                ("a", "b", "c"),
                (0, 1, 2),
                [[["a", "b", "c"]], [["a", "b"], ["c"]], [["a"], ["b", "c"]]],
            )

    def test_partition_must_cover(self):
        with pytest.raises(InvariantError, match="cover"):
            FilteredSpace.build(("a", "b"), (0,), [[["a"]]])

    def test_state_repeated_inside_an_atom_rejected(self):
        # a repeated state counts twice: atom masses (1, 1/2) under uniform weights
        with pytest.raises(InvariantError, match="exactly once"):
            FilteredSpace.build(("a", "b"), (0, 1), [[["a", "b"]], [["a", "a"], ["b"]]])
        with pytest.raises(InvariantError, match="exactly once"):
            FilteredSpace(("a", "b"), (0, 1), (((0, 1),), ((0, 0), (1,))))

    def test_times_strictly_increasing(self):
        with pytest.raises(InvariantError, match="increasing"):
            FilteredSpace.build(("a",), (0, 0), [[["a"]], [["a"]]])

    def test_measure_normalization_tolerance(self, four_state_space):
        ProbabilityMeasure(four_state_space, (0.1, 0.2, 0.3, 0.4 + 5e-13))
        with pytest.raises(InvariantError, match="sum"):
            ProbabilityMeasure(four_state_space, (0.1, 0.2, 0.3, 0.5))

    def test_measure_nonnegative(self, four_state_space):
        with pytest.raises(InvariantError, match="nonnegative"):
            ProbabilityMeasure(four_state_space, (-0.1, 0.4, 0.3, 0.4))

    def test_act_measurability_enforced(self, four_state_space):
        with pytest.raises(InvariantError, match="not measurable"):
            Act(four_state_space, 1, (1, 2, 3, 3))

    def test_act_values_finite(self, four_state_space):
        with pytest.raises(InvariantError, match="finite"):
            Act(four_state_space, 0, (float("inf"),) * 4)

    def test_constant_act_checks_its_value_and_time_index(self, four_state_space):
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(InvariantError, match="finite"):
                Act.constant(four_state_space, 1, bad)
        for i in (3, -1):
            with pytest.raises(IndexError, match="out of range"):
                Act.constant(four_state_space, i, 0)

    def test_constant_act_equals_the_validated_act(self, four_state_space):
        for i in range(3):
            c = Act.constant(four_state_space, i, Fraction(7, 3))
            want = Act(four_state_space, i, (Fraction(7, 3),) * 4)
            assert c == want and hash(c) == hash(want)
            assert c.null_fill == frozenset()

    def test_event_atom_union_check(self, four_state_space):
        with pytest.raises(InvariantError, match="union of atoms"):
            Event.of_states(four_state_space, ("w1",), time_index=1)
        Event.of_states(four_state_space, ("w1", "w2"), time_index=1)


class TestAtoms:
    def test_pair_partition(self, four_state_space):
        got = four_state_space.atom_events(1)
        assert [a.names for a in got] == [("w1", "w2"), ("w3", "w4")]

    def test_time0_is_whole_set(self, four_state_space):
        got = four_state_space.atom_events(0)
        assert [a.names for a in got] == [("w1", "w2", "w3", "w4")]

    def test_villa_election_partition(self):
        spec = villa_scenario()
        got = spec.space.atom_events(1)
        assert [a.names for a in got] == [("d1",), ("d2", "ok")]

    def test_index_out_of_range(self, four_state_space):
        with pytest.raises(IndexError):
            four_state_space.atom_events(3)

    def test_atom_events_built_once_and_equal_to_fresh_events(self, four_state_space):
        for i in range(3):
            for k, members in enumerate(four_state_space.partitions[i]):
                ev = four_state_space.atom_event(i, k)
                assert ev is four_state_space.atom_events(i)[k]
                assert ev is four_state_space.atom_event(i, k)
                fresh = Event(four_state_space, frozenset(members), i)
                assert ev == fresh and hash(ev) == hash(fresh)


class TestMeasurability:
    def test_constant_everywhere(self, four_state_space):
        c = Act.constant(four_state_space, 2, 7)
        assert all(is_measurable(four_state_space, i, c) for i in range(3))

    def test_fine_act_not_coarse(self, four_state_space, staircase):
        assert is_measurable(four_state_space, 2, staircase)
        assert not is_measurable(four_state_space, 1, staircase)

    def test_villa_terminal_payoff_not_known_at_election(self):
        spec = villa_scenario()
        # 200000 on d2 vs 1800000 on ok inside the same election-time atom
        assert not is_measurable(spec.space, 1, spec.acts["villa_t2"])
        assert is_measurable(spec.space, 2, spec.acts["villa_t2"])

    def test_measurable_at_every_later_time(self):
        # b and c differ by 2e-12, each within 1e-12 of a: measurable at 1,
        # where {a,b,c} is one atom, so also at 2, where {b,c} is one atom
        sp = FilteredSpace.build(
            ("a", "b", "c"), (0, 1, 2), [[["a", "b", "c"]], [["a", "b", "c"]], [["a"], ["b", "c"]]]
        )
        f = Act(sp, 1, (0.0, 1e-12, -1e-12))
        assert is_measurable(sp, 2, f)
        finer = f.at_time(2)
        assert (finer.time_index, finer.values, finer.null_fill) == (2, f.values, f.null_fill)
        with pytest.raises(IndexError, match="out of range"):
            f.at_time(3)

    def test_coarsening_still_validates(self, four_state_space, staircase):
        assert staircase.at_time(2) == staircase
        with pytest.raises(InvariantError, match="not measurable at time index 1"):
            staircase.at_time(1)
        with pytest.raises(IndexError, match="out of range"):
            staircase.at_time(-1)
        coarse = Act(four_state_space, 1, (5, 5, 6, 6))
        assert coarse.at_time(1) == coarse
        with pytest.raises(InvariantError, match="not measurable at time index 0"):
            coarse.at_time(0)

    def test_event_measurability(self, four_state_space):
        ev = Event.of_states(four_state_space, ("w1", "w2"))
        assert is_measurable(four_state_space, 1, ev)
        assert not is_measurable(four_state_space, 1, Event.of_states(four_state_space, ("w2",)))


class TestForeignActs:
    def test_expectation_rejects_an_act_of_another_space(self):
        a, f = foreign_act()
        with pytest.raises(InvariantError, match="another filtered space"):
            a.P.expectation(f)

    def test_conditional_expectation_rejects_an_act_of_another_space(self):
        a, f = foreign_act()
        with pytest.raises(InvariantError, match="another filtered space"):
            conditional_expectation(a.space, a.P, f, 1)

    def test_conditional_expectation_rejects_a_measure_of_another_space(self):
        a, f = foreign_act()
        g = random_act(random.Random(0), a.space, 2)
        with pytest.raises(InvariantError, match="measure is defined on another filtered space"):
            conditional_expectation(a.space, ProbabilityMeasure.uniform(f.space), g, 1)

    def test_restrict_rejects_an_event_of_another_space(self):
        a, f = foreign_act()
        g = random_act(random.Random(0), a.space, 2)
        with pytest.raises(InvariantError, match="event is defined on another filtered space"):
            g.restrict(f.space.atom_events(2)[-1])

    def test_paste_rejects_an_event_of_another_space(self):
        a, f = foreign_act()
        g = random_act(random.Random(0), a.space, 2)
        with pytest.raises(InvariantError, match="event is defined on another filtered space"):
            paste(g, g, f.space.atom_events(2)[-1])

    def test_event_mass_rejects_an_event_of_another_space(self):
        a, f = foreign_act()
        with pytest.raises(InvariantError, match="event is defined on another filtered space"):
            a.P.event_mass(f.space.atom_events(2)[-1])

    def test_null_events_reject_a_measure_of_another_space(self):
        # read by atom index, the other measure's time-1 atoms are all positive
        space, _ = three_atom_space()
        with pytest.raises(InvariantError, match="measure is defined on another filtered space"):
            null_events(space, foreign_null_measure(), 1)

    def test_maximal_null_event_rejects_a_measure_of_another_space(self):
        space, _ = three_atom_space()
        with pytest.raises(InvariantError, match="measure is defined on another filtered space"):
            maximal_null_event(space, foreign_null_measure(), 1)

    def test_an_equal_space_is_accepted(self, four_state_space, four_state_measure, staircase):
        space = four_state_space
        twin = FilteredSpace(space.states, space.times, space.partitions)
        f = Act(twin, 2, staircase.values)
        assert four_state_measure.expectation(f) == four_state_measure.expectation(staircase)
        got = conditional_expectation(four_state_space, four_state_measure, f, 1)
        assert got.values == conditional_expectation(
            four_state_space, four_state_measure, staircase, 1
        ).values
        P = ProbabilityMeasure(twin, four_state_measure.weights)
        assert conditional_expectation(space, P, staircase, 1).values == got.values
        A, B = space.atom_event(1, 1), twin.atom_event(1, 1)
        assert staircase.restrict(B) == staircase.restrict(A)
        assert paste(f.restrict(A), staircase, B).values == staircase.values
        assert four_state_measure.event_mass(B) == four_state_measure.event_mass(A)


class TestConditionalExpectation:
    def test_weighted_average_per_atom(self, four_state_space, four_state_measure, staircase):
        got = conditional_expectation(four_state_space, four_state_measure, staircase, 1)
        assert got.values == (
            Fraction(5, 3), Fraction(5, 3), Fraction(25, 7), Fraction(25, 7)
        )

    def test_constant_is_fixed_point(self, four_state_space, four_state_measure):
        c = Act.constant(four_state_space, 2, Fraction(9, 7))
        got = conditional_expectation(four_state_space, four_state_measure, c, 0)
        assert got.values == (Fraction(9, 7),) * 4

    def test_villa_terminal_payoff_at_time0(self):
        # exact rational expectation under the stated measure, against the
        # displayed-sum value: they agree to far better than 1e-6 relative
        spec = villa_scenario("paper-stated")
        rep = spec.representation()
        utility = rep.field.eval(2, spec.acts["villa_t2"])
        got = conditional_expectation(spec.space, spec.measure, utility, 0)
        exact = got.values[0]
        assert exact == Fraction(1782998317, 1000)
        formula = villa_t2_formula()
        assert abs(exact - formula) / formula < 1e-6

    def test_zero_probability_atom_filled_and_flagged(self, four_state_space):
        P = ProbabilityMeasure(four_state_space, (Fraction(1, 2), Fraction(1, 2), 0, 0))
        f = Act(four_state_space, 2, (1, 2, 3, 4))
        got = conditional_expectation(four_state_space, P, f, 1)
        assert got.values == (Fraction(3, 2), Fraction(3, 2), 0, 0)
        assert got.null_fill == frozenset({2, 3})

    def test_cannot_condition_on_later_time(self, four_state_space, four_state_measure):
        f = Act.constant(four_state_space, 0, 1)
        with pytest.raises(InvariantError, match="later"):
            conditional_expectation(four_state_space, four_state_measure, f, 2)

    def test_tower_property(self):
        rng = random.Random(5)
        for _ in range(20):
            space = random_space(rng)
            P = random_measure(rng, space)
            f = random_act(rng, space, space.last_index, hull=3.0)
            for i in range(space.last_index):
                for k in range(i, space.last_index):
                    inner = conditional_expectation(space, P, f, k)
                    two_step = conditional_expectation(space, P, inner, i)
                    direct = conditional_expectation(space, P, f, i)
                    assert two_step.sup_dist(direct, P) < 1e-12

    def test_linearity_and_positivity(self):
        rng = random.Random(6)
        space = random_space(rng)
        P = random_measure(rng, space)
        f = random_act(rng, space, space.last_index)
        g = random_act(rng, space, space.last_index)
        f_plus_g = Act(space, space.last_index, tuple(a + b for a, b in zip(f.values, g.values)))
        lhs = conditional_expectation(space, P, f_plus_g, 1).values
        rhs = zip(conditional_expectation(space, P, f, 1).values, conditional_expectation(space, P, g, 1).values)
        assert max(abs(x - (a + b)) for x, (a, b) in zip(lhs, rhs)) < 1e-12
        nonneg = Act(space, space.last_index, tuple(abs(v) for v in f.values))
        assert min(conditional_expectation(space, P, nonneg, 1).values) >= 0

    def test_pull_out_indicator(self, four_state_space, four_state_measure, staircase):
        # E[f 1_A | F_i] = 1_A E[f | F_i] for A known at time i
        A = Event.of_states(four_state_space, ("w1", "w2"), time_index=1)
        lhs = conditional_expectation(
            four_state_space, four_state_measure, staircase.restrict(A), 1
        )
        rhs = conditional_expectation(four_state_space, four_state_measure, staircase, 1)
        masked = Act(
            four_state_space,
            1,
            tuple(v if s in A.members else 0 for s, v in enumerate(rhs.values)),
        )
        assert lhs.values == masked.values


class TestNullEvents:
    def test_zero_weight_atom(self):
        space = FilteredSpace.build(
            ("a", "b", "c"), (0, 1), [[["a", "b", "c"]], [["a"], ["b"], ["c"]]]
        )
        P = ProbabilityMeasure(space, (Fraction(1, 5), Fraction(4, 5), 0))
        got = null_events(space, P, 1)
        assert [e.names for e in got] == [("c",)]
        assert maximal_null_event(space, P, 1).names == ("c",)
        assert is_null_event(P, Event.of_states(space, ("c",)))
        assert not is_null_event(P, Event.of_states(space, ("b", "c")))

    def test_strictly_positive_measure(self, four_state_space, four_state_measure):
        assert null_events(four_state_space, four_state_measure, 1) == []

    def test_villa_with_certain_no_default(self):
        # a zero-probability election default makes the whole branch null,
        # so the intermediate information cannot matter
        spec = villa_scenario()
        weights = dict(zip(spec.space.states, spec.measure.weights))
        total = weights["d2"] + weights["ok"]
        P0 = ProbabilityMeasure.of(
            spec.space,
            {"d1": 0, "d2": weights["d2"] / total, "ok": weights["ok"] / total},
        )
        got = null_events(spec.space, P0, 1)
        assert [e.names for e in got] == [("d1",)]


def _fleet(seed: int = 41, n: int = 10) -> list[tuple[FilteredSpace, ProbabilityMeasure]]:
    """Seeded (space, measure) pairs: the float measures of random
    representations, and exact Fraction measures on the same spaces with one
    terminal atom null."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        rep = random_representation(rng)
        space = rep.space
        out.append((space, rep.P))
        raw = [Fraction(rng.randint(1, 9)) for _ in range(space.n_states)]
        for s in rng.choice(space.partitions[space.last_index]):
            raw[s] = Fraction(0)
        total = sum(raw)
        out.append((space, ProbabilityMeasure(space, tuple(w / total for w in raw))))
    return out


FLEET = _fleet()


def _constructs(build) -> bool:
    try:
        build()
    except InvariantError:
        return False
    return True


class TestPerAtomFacts:
    def test_atom_masses_follow_the_weights(self):
        assert any(P.null_atoms(space.last_index) for space, P in FLEET)
        for space, P in FLEET:
            for i in range(space.n_times):
                # added left to right from 0, as the library adds
                want = tuple(reduce(add, (P.weights[s] for s in atom), 0) for atom in space.partitions[i])
                assert P.atom_masses(i) == want
                assert tuple(P.atom_mass(i, k) for k in range(len(want))) == want
                assert P.positive_atoms(i) == tuple(k for k, m in enumerate(want) if m > 0)
                assert P.null_atoms(i) == tuple(k for k, m in enumerate(want) if m == 0)

    def test_from_atom_values_sets_values_and_null_fill(self):
        rng = random.Random(42)
        for space, P in FLEET:
            for i in range(space.n_times):
                part = space.partitions[i]
                per_atom = [rng.uniform(-1, 1) for _ in part]
                f = Act.from_atom_values(space, i, per_atom, P.null_atoms(i))
                assert f.time_index == i
                assert all(f.values[s] == per_atom[k] for k, atom in enumerate(part) for s in atom)
                assert f.atom_values() == tuple(per_atom)
                null_states = {
                    s for atom in part if all(P.weights[m] == 0 for m in atom) for s in atom
                }
                assert f.null_fill == null_states
                with pytest.raises(InvariantError, match="one value per atom"):
                    Act.from_atom_values(space, i, per_atom + [0])

    def test_union_event_is_the_union_of_its_atoms(self):
        rng = random.Random(43)
        for space, P in FLEET:
            for i in range(space.n_times):
                ks = [k for k in range(space.n_atoms(i)) if rng.random() < 0.5]
                ev = space.union_event(i, ks)
                want = set()
                for k in ks:
                    want |= space.atom_event(i, k).members
                assert ev.members == want and ev.time_index == i
                nulls = set()
                for e in null_events(space, P, i):
                    nulls |= e.members
                assert maximal_null_event(space, P, i).members == nulls

    def test_is_measurable_agrees_with_the_constructors(self):
        rng = random.Random(44)
        for space, _ in FLEET:
            last = space.last_index
            terminal = space.atom_index_map(last)
            distinct = Act.from_atom_values(space, last, [float(k) for k in range(space.n_atoms(last))])
            for i in range(space.n_times):
                part = space.partitions[i]
                exact = Act.from_atom_values(space, i, [rng.uniform(-1, 1) for _ in part])
                nudged = Act(space, i, tuple(v + rng.uniform(0, 5e-13) for v in exact.values))
                one_each = all(len({terminal[s] for s in atom}) == 1 for atom in part)
                assert is_measurable(space, i, exact)
                assert is_measurable(space, i, nudged)
                assert is_measurable(space, i, distinct) == one_each
                ev = space.union_event(i, [k for k in range(len(part)) if rng.random() < 0.5])
                assert is_measurable(space, i, ev)
                wide = [atom for atom in part if len(atom) > 1]
                if wide:
                    assert not is_measurable(space, i, Event(space, frozenset(wide[0][:1])))
                for h in range(space.n_times):
                    for f in (exact, nudged, distinct):
                        assert is_measurable(space, h, f) == _constructs(
                            lambda: Act(space, h, f.values)
                        )
                    assert is_measurable(space, h, ev) == _constructs(
                        lambda: Event(space, ev.members, h)
                    )


class TestPaste:
    def test_idempotent(self, four_state_space, staircase):
        A = Event.of_states(four_state_space, ("w1", "w2"))
        assert paste(staircase, staircase, A).values == staircase.values

    def test_whole_event_returns_first(self, four_state_space, staircase):
        other = Act.constant(four_state_space, 2, (9))
        assert paste(staircase, other, four_state_space.whole_event()).values == staircase.values

    def test_definitional_example(self, four_state_space):
        f = Act(four_state_space, 1, (1, 1, 0, 0))
        g = Act.constant(four_state_space, 1, 5)
        A = Event.of_states(four_state_space, ("w1", "w2"))
        assert paste(f, g, A).values == (1, 1, 5, 5)

    def test_time_mismatch_rejected(self, four_state_space):
        f = Act.constant(four_state_space, 1, 1)
        g = Act.constant(four_state_space, 2, 2)
        with pytest.raises(InvariantError, match="time index"):
            paste(f, g, four_state_space.whole_event())

    def test_sum_identity(self):
        rng = random.Random(8)
        for _ in range(10):
            space = random_space(rng)
            j = space.last_index
            f = random_act(rng, space, j)
            g = random_act(rng, space, j)
            members = frozenset(
                s for s in range(space.n_states) if rng.random() < 0.5
            )
            A = Event(space, members)
            left = zip(paste(f, g, A).values, paste(g, f, A).values)
            right = zip(f.values, g.values)
            assert max(abs((a + b) - (c + d)) for (a, b), (c, d) in zip(left, right)) < 1e-12

    def test_preserves_measurability(self, four_state_space):
        f = Act(four_state_space, 1, (1, 1, 0, 0))
        g = Act(four_state_space, 1, (2, 2, 3, 3))
        A = Event.of_states(four_state_space, ("w3", "w4"), time_index=1)
        out = paste(f, g, A)
        assert is_measurable(four_state_space, 1, out)
