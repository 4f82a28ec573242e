"""Axiom verification: valid oracles pass, each corrupted oracle fails its
own axiom, and oracle-derived structures agree with the measure-side ones."""

from __future__ import annotations

import itertools
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from itpref import (
    Act,
    ActGrid,
    DEFAULT_GRID,
    FilteredSpace,
    InducedOracle,
    ProbabilityMeasure,
    cce,
    check_C,
    check_M,
    check_ST,
    check_T,
    compare,
    derive_null_events,
    enumerate_simple_acts,
    null_events,
    tri_partition,
)
from itpref.axioms import (
    C_STYLES,
    SUBGRID,
    _atom_unions,
    _debreu_candidates,
    _sure_thing_candidates,
    grid_for,
)
from itpref.controls import (
    always_succeq,
    flat_segment,
    identity_representation,
    intransitive_band,
    jump_on_positive_atom,
    nonadditive_meanmax,
    three_atom_space,
)
from itpref.recovery import _recovery_xs
from itpref.sampling import margin_guarded_pair, random_act, random_representation

from conftest import bits, drawn_representation


@pytest.fixture(scope="module")
def valid_oracle():
    space, P = three_atom_space()
    return InducedOracle(identity_representation(space, P))


class TestDeriveNullEvents:
    def test_strictly_positive_measure_has_none(self, valid_oracle):
        assert derive_null_events(valid_oracle, 1) == []
        with pytest.raises(ValueError, match="need i >= 1"):
            derive_null_events(valid_oracle, 0)

    def test_zero_weight_atom_found(self):
        space, _ = three_atom_space()
        P = ProbabilityMeasure(space, (Fraction(1, 2), 0, Fraction(1, 2)))
        oracle = InducedOracle(identity_representation(space, P))
        got = derive_null_events(oracle, 1)
        assert [e.names for e in got] == [("y",)]
        assert [e.names for e in null_events(space, P, 1)] == [("y",)]

    def test_villa_certain_no_default(self):
        from itpref.apps import villa_scenario

        spec = villa_scenario()
        w = dict(zip(spec.space.states, spec.measure.weights))
        total = w["d2"] + w["ok"]
        P0 = ProbabilityMeasure.of(
            spec.space, {"d1": 0, "d2": w["d2"] / total, "ok": w["ok"] / total}
        )
        from itpref import Representation

        rep = Representation(spec.space, P0, spec.field)
        oracle = InducedOracle(rep)
        got = derive_null_events(oracle, 1)
        assert [e.names for e in got] == [("d1",)]

    def test_matches_measure_nulls_on_random_reps(self):
        rng = random.Random(13)
        for _ in range(5):
            rep = random_representation(rng, n_times=3, kinds=("pl", "identity"))
            oracle = InducedOracle(rep)
            derived = {e.names for e in derive_null_events(oracle, 1)}
            measured = {e.names for e in null_events(rep.space, rep.P, 1)}
            assert derived == measured


class TestCheckT:
    def test_valid_oracle_all_clauses(self, valid_oracle):
        report = check_T(valid_oracle, 0)
        assert report.passed
        assert set(report.clauses) == {
            "1 local-completeness", "2 transitivity", "3 normalization",
            "4 non-degeneracy", "5 consistency", "6 stability",
        }
        assert "not falsified within bounds" in report.clauses["4 non-degeneracy"].note

    def test_degenerate_control(self):
        report = check_T(always_succeq(), 0)
        assert not report.passed
        assert not report.clauses["3 normalization"].passed
        assert not report.clauses["4 non-degeneracy"].passed

    def test_intransitive_control_emits_counterexample(self):
        report = check_T(intransitive_band(), 0)
        assert not report.clauses["2 transitivity"].passed
        assert report.clauses["2 transitivity"].counterexample

    def test_conditional_step_on_random_rep(self):
        rng = random.Random(17)
        rep = random_representation(
            rng, n_times=3, kinds=("pl", "linear", "identity"), min_first_split=3
        )
        oracle = InducedOracle(rep)
        report = check_T(oracle, 1)
        assert report.passed, report.render()

    def test_range_incompatible_field_fails_non_degeneracy(self):
        """A bounded curve at an earlier time cannot dominate later utilities
        that escape its range: the membership side condition of the
        representation fails, non-degeneracy reports it, and the certainty
        equivalent raises the matching range error."""
        from itpref import (
            ExponentialCurve,
            FilteredSpace,
            LinearCurve,
            RangeError,
            Representation,
            UtilityField,
            cce,
        )

        space = FilteredSpace.build(
            ("a", "b", "c"),
            (0, 1, 2),
            [[["a", "b", "c"]], [["a"], ["b"], ["c"]], [["a"], ["b"], ["c"]]],
        )
        P = ProbabilityMeasure(space, (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)))
        field = UtilityField.from_atom_curves(
            space,
            [
                [LinearCurve(1)],
                [ExponentialCurve(Fraction(1, 2))] * 3,  # range bounded above by 2
                [LinearCurve(2)] * 3,                    # u(2) = 4 escapes it
            ],
        )
        rep = Representation(space, P, field)
        report = check_T(InducedOracle(rep), 1)
        res = report.clauses["4 non-degeneracy"]
        assert not res.passed
        assert "no dominating constant" in res.counterexample
        assert "undecidable" in res.note
        with pytest.raises(RangeError):
            cce(rep, 1, 2, Act.constant(space, 2, 2))

    def test_consistency_and_stability_fail_on_different_pairs(self):
        """Each of clauses 5 and 6 keeps examining pairs after the other
        failed: stability fails on the first pair, whose g is constant,
        and consistency only on a later one."""
        from itpref import PreferenceOracle, QueryAnswer

        space = FilteredSpace.build(
            ("a", "b", "c"), (0, 1, 2), [[["a", "b", "c"]], [["a"], ["b"], ["c"]], [["a"], ["b"], ["c"]]]
        )
        induced = InducedOracle(
            identity_representation(space, ProbabilityMeasure(space, (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))))
        )

        class SplitUnions(PreferenceOracle):
            """Induced answers, except at step 1 on two unions of atoms: the
            whole space answers undecided when g is constant, and {a,b}
            answers both ways when it is not."""

            def query(self, i, g, f, A=None):
                if i == 1 and A is not None:
                    constant = len(set(g.values)) == 1
                    if constant and len(A.members) == 3:
                        return QueryAnswer(False, False)
                    if not constant and A.members == {0, 1}:
                        return QueryAnswer(True, True)
                return induced.query(i, g, f, A)

        report = check_T(SplitUnions(space), 1)
        res5, res6 = report.clauses["5 consistency"], report.clauses["6 stability"]
        assert not res5.passed and not res6.passed
        g5, g6 = (re.match(r"g=\(([^)]*)\)", r.counterexample).group(1) for r in (res5, res6))
        assert len(set(g6.split(","))) == 1 < len(set(g5.split(",")))

    def test_render_is_deterministic(self, valid_oracle):
        a = check_T(valid_oracle, 0).render()
        b = check_T(valid_oracle, 0).render()
        assert a == b and "[T.1 local-completeness @ step 0] PASS" in a


class TestCheckM:
    def test_valid_oracle(self, valid_oracle):
        assert check_M(valid_oracle, 0).passed

    def test_flat_segment_fails_with_witness(self):
        res = check_M(flat_segment(), 0)
        assert not res.passed
        assert res.counterexample and "g1" in res.counterexample

    def test_single_atom_level(self):
        from itpref import FilteredSpace, Representation, UtilityField, IdentityCurve

        space = FilteredSpace.build(
            ("a", "b"), (0, 1, 2), [[["a", "b"]], [["a", "b"]], [["a"], ["b"]]]
        )
        P = ProbabilityMeasure(space, (Fraction(1, 2), Fraction(1, 2)))
        rows = [[IdentityCurve()] * space.n_atoms(i) for i in range(3)]
        oracle = InducedOracle(Representation(space, P, UtilityField.from_atom_curves(space, rows)))
        assert check_M(oracle, 0).passed


class TestCheckST:
    def test_valid_oracle(self, valid_oracle):
        assert check_ST(valid_oracle, 0).passed

    def test_nonadditive_fails(self):
        res = check_ST(nonadditive_meanmax(), 0)
        assert not res.passed
        assert "no bracketing act" in res.counterexample

    def test_whole_event_instance_trivial(self, valid_oracle):
        # A = whole space leaves nothing off A; the премise transfers directly
        assert check_ST(valid_oracle, 0).passed

    def test_candidates_drawn_lazily(self):
        # the whole event over 10 atoms has 4**10 sign patterns; at most 32
        # are ever drawn, so memory stays flat even when the cap ends the run
        states = tuple(f"s{k}" for k in range(10))
        space = FilteredSpace.build(states, (0, 1), [[list(states)], [[s] for s in states]])
        P = ProbabilityMeasure(space, (Fraction(1, 10),) * 10)
        oracle = InducedOracle(identity_representation(space, P))
        tracemalloc.start()
        try:
            res = check_ST(oracle, 0, cap=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.passed and res.note.startswith("query cap reached")
        assert peak < 10 * 2**20


@pytest.mark.parametrize(
    "check, make, i",
    [
        (check_M, nonadditive_meanmax, 0),
        (check_ST, nonadditive_meanmax, 0),
        (check_T, lambda: InducedOracle(_criterion5_rep()[0]), 1),
    ],
    ids=["M", "ST", "T"],
)
def test_capped_early_return_counts_its_queries(check, make, i):
    res = check(make(), i, cap=50)
    for r in res.clauses.values() if check is check_T else [res]:
        spent = int(re.fullmatch(r"query cap reached after (\d+) queries", r.note).group(1))
        assert r.queries == spent > 50


def _criterion5_rep():
    rng = random.Random(55)
    rep = random_representation(
        rng, n_times=3, kinds=("pl", "linear", "identity"), min_first_split=3
    )
    return rep, [random_act(rng, rep.space, i + 1) for i in (0, 1)]


def _fleet(name):
    """(oracle factory, step, continuity act) of one fleet member: criterion
    5's induced oracle at steps 0 and 1, and the five controls at step 0."""
    if name.startswith("induced@"):
        rep, fs = _criterion5_rep()
        i = int(name[-1])
        return (lambda: InducedOracle(rep)), i, fs[i]
    if name == "jump":
        return (lambda: jump_on_positive_atom()[0]), 0, jump_on_positive_atom()[1]
    make = {
        "always-succeq": always_succeq,
        "intransitive-band": intransitive_band,
        "flat-segment": flat_segment,
        "mean-max": nonadditive_meanmax,
    }[name]
    return make, 0, Act.from_atom_values(make().space, 1, [1, 0, -1])


def _capped(n):
    return (True, None, f"query cap reached after {n} queries")


def _checked(n_seq):
    return (True, None, f"4 strict acts x {n_seq} sequences checked")


def _no_tail(style):
    return (
        False,
        f"style={style} atom={{x,y,z}}: no tail of the sequence keeps the dominated act "
        f"on its side (g offset from the equivalent of f)",
        "",
    )


PASS = (True, None, "")
VACUOUS = (True, None, "vacuous at the initial time: only the trivial event conditions")
NOT_FALSIFIED = (True, None, "not falsified within bounds +-8")
NO_EQUIVALENT = (True, None, "no certainty equivalent bracketable; premise vacuous")
# check_T's clauses at step 0: a clean pass, and the two transition controls
T_PASSES = (PASS,) * 3 + (NOT_FALSIFIED,) + (VACUOUS,) * 2
SUCCEQ_T = (PASS,) * 2 + (
    (False, "1_{} !~ 1_{} despite both null", ""),
    (
        False,
        "f=(-2,-2,-2): no dominated constant within +-8",
        "unbounded search is undecidable; failure within extension reported",
    ),
) + (VACUOUS,) * 2
BAND_T = (
    PASS,
    (False, "f=(-1/2,1,1/2): 0 preceq f, -1/2 succeq f, but 0 > -1/2", ""),
    PASS,
    NOT_FALSIFIED,
) + (VACUOUS,) * 2
FLAT_M = (
    False,
    "A={x} f=(-2,-2,-2) g1=-0.5 g2=0: equivalent of the g1-paste is not strictly below "
    "the g2-paste on any essential event",
    "",
)

# (passed, counterexample, note) of every result, per fleet member and
# (check, cap); cap None is the default cap.  A check asks each distinct
# question once, so at cap 3000 check_T at step 0 finishes (1440 queries)
# and reads as at the default cap
PINNED_RESULTS = {
    "induced@0": {
        ("T", 5): (_capped(6),) * 4 + (VACUOUS,) * 2,
        ("M", 5): (_capped(53),),
        ("ST", 5): (_capped(53),),
        ("T", 50): (_capped(51),) * 4 + (VACUOUS,) * 2,
        ("M", 50): (_capped(53),),
        ("ST", 50): (_capped(53),),
        ("T", 400): (_capped(401),) * 4 + (VACUOUS,) * 2,
        ("M", 400): (_capped(489),),
        ("ST", 400): (_capped(404),),
        ("T", 3000): T_PASSES,
        ("M", 3000): (_capped(3097),),
        ("ST", 3000): (_capped(3263),),
        ("T", None): T_PASSES,
        ("M", None): (PASS,),
        ("ST", None): (PASS,),
        ("C/uniform", None): (_checked(2),),
        ("C/atomwise", None): (_checked(1),),
        ("C/random", None): (_checked(1),),
    },
    "induced@1": {
        ("T", 5): (_capped(53),) * 6,
        ("M", 5): (_capped(202),),
        ("ST", 5): (_capped(149),),
        ("T", 50): (_capped(53),) * 6,
        ("M", 50): (_capped(202),),
        ("ST", 50): (_capped(149),),
        ("T", 400): (_capped(401),) * 6,
        ("M", 400): (_capped(402),),
        ("ST", 400): (_capped(1026),),
        ("T", 3000): (_capped(3001),) * 6,
        ("M", 3000): (_capped(3048),),
        ("ST", 3000): (_capped(3230),),
        ("C/uniform", None): (_checked(2),),
        ("C/atomwise", None): (_checked(1),),
        ("C/random", None): (_checked(1),),
    },
    "always-succeq": {
        ("T", 5): (_capped(6),) * 4 + (VACUOUS,) * 2,
        ("M", 5): (PASS,),
        ("ST", 5): (_capped(352),),
        ("T", 50): (_capped(51),) * 4 + (VACUOUS,) * 2,
        ("M", 50): (PASS,),
        ("ST", 50): (_capped(352),),
        ("T", 400): (_capped(401),) * 4 + (VACUOUS,) * 2,
        ("M", 400): (PASS,),
        ("ST", 400): (_capped(440),),
        ("T", 3000): SUCCEQ_T,
        ("M", 3000): (PASS,),
        ("ST", 3000): (PASS,),
        ("T", None): SUCCEQ_T,
        ("M", None): (PASS,),
        ("ST", None): (PASS,),
        ("C/uniform", None): (NO_EQUIVALENT,),
        ("C/atomwise", None): (NO_EQUIVALENT,),
        ("C/random", None): (NO_EQUIVALENT,),
    },
    "intransitive-band": {
        ("T", 5): (_capped(6),) * 4 + (VACUOUS,) * 2,
        ("M", 5): (_capped(51),),
        ("ST", 5): (_capped(51),),
        ("T", 50): (_capped(51),) * 4 + (VACUOUS,) * 2,
        ("M", 50): (_capped(51),),
        ("ST", 50): (_capped(51),),
        ("T", 400): (_capped(401),) * 4 + (VACUOUS,) * 2,
        ("M", 400): (_capped(475),),
        ("ST", 400): (_capped(731),),
        ("T", 3000): BAND_T,
        ("M", 3000): (_capped(3045),),
        ("ST", 3000): (_capped(3210),),
        ("T", None): BAND_T,
        ("M", None): (PASS,),
        ("ST", None): (PASS,),
        ("C/uniform", None): (_checked(2),),
        ("C/atomwise", None): (_checked(1),),
        ("C/random", None): (_checked(1),),
    },
    "flat-segment": {
        ("T", 5): (_capped(6),) * 4 + (VACUOUS,) * 2,
        ("M", 5): (_capped(51),),
        ("ST", 5): (_capped(51),),
        ("T", 50): (_capped(51),) * 4 + (VACUOUS,) * 2,
        ("M", 50): (_capped(51),),
        ("ST", 50): (_capped(51),),
        ("T", 400): (_capped(401),) * 4 + (VACUOUS,) * 2,
        ("M", 400): (FLAT_M,),
        ("ST", 400): (_capped(731),),
        ("T", 3000): T_PASSES,
        ("M", 3000): (FLAT_M,),
        ("ST", 3000): (_capped(3222),),
        ("T", None): T_PASSES,
        ("M", None): (FLAT_M,),
        ("ST", None): (PASS,),
        ("C/uniform", None): (_checked(2),),
        ("C/atomwise", None): (_checked(1),),
        ("C/random", None): (_checked(1),),
    },
    "mean-max": {
        ("T", 5): (_capped(6),) * 4 + (VACUOUS,) * 2,
        ("M", 5): (_capped(53),),
        ("ST", 5): (_capped(53),),
        ("T", 50): (_capped(51),) * 4 + (VACUOUS,) * 2,
        ("M", 50): (_capped(53),),
        ("ST", 50): (_capped(53),),
        ("T", 400): (_capped(401),) * 4 + (VACUOUS,) * 2,
        ("M", 400): (_capped(481),),
        ("ST", 400): (_capped(403),),
        ("T", 3000): T_PASSES,
        ("M", 3000): (_capped(3001),),
        ("ST", 3000): (_capped(3001),),
        ("T", None): T_PASSES,
        ("M", None): (PASS,),
        ("ST", None): ((
            False,
            "A={x,y} f1=(-1,1,0) f2=(0,0,0) h=1 k=-2: no bracketing act within the grid closure",
            "",
        ),),
        ("C/uniform", None): (_checked(2),),
        ("C/atomwise", None): (_checked(1),),
        ("C/random", None): (_checked(1),),
    },
    "jump": {
        ("T", 5): (_capped(6),) * 4 + (VACUOUS,) * 2,
        ("M", 5): (_capped(51),),
        ("ST", 5): (_capped(51),),
        ("T", 50): (_capped(51),) * 4 + (VACUOUS,) * 2,
        ("M", 50): (_capped(51),),
        ("ST", 50): (_capped(51),),
        ("T", 400): (_capped(401),) * 4 + (VACUOUS,) * 2,
        ("M", 400): (_capped(475),),
        ("ST", 400): (_capped(731),),
        ("T", 3000): T_PASSES,
        ("M", 3000): (_capped(3051),),
        ("ST", 3000): (_capped(3226),),
        ("T", None): T_PASSES,
        ("M", None): (PASS,),
        ("ST", None): (PASS,),
        ("C/uniform", None): (_no_tail("uniform"),),
        ("C/atomwise", None): (_no_tail("atomwise"),),
        ("C/random", None): (_checked(1),),
    },
}


@pytest.mark.parametrize("name", list(PINNED_RESULTS))
def test_results_pinned(name):
    make, i, f_c = _fleet(name)
    checks = {"T": check_T, "M": check_M, "ST": check_ST}
    for (check, cap), want in PINNED_RESULTS[name].items():
        if check.startswith("C/"):
            results = [check_C(make(), i, f_c, check[2:])]
        else:
            kwargs = {} if cap is None else {"cap": cap}
            res = checks[check](make(), i, **kwargs)
            results = list(res.clauses.values()) if check == "T" else [res]
        got = tuple((r.passed, r.counterexample, r.note) for r in results)
        assert got == want, (name, check, cap)


CAP_NOTE = re.compile(r"query cap reached after \d+ queries")


@pytest.mark.parametrize("name", list(PINNED_RESULTS))
def test_capped_result_is_capped_or_the_uncapped_result(name):
    """A check keeps its loop order whatever the cap, so at every cap of
    PINNED_RESULTS each T/M/ST result either stopped at the cap or is the
    result at the default cap: the same verdict, counterexample and note."""
    make, i, _ = _fleet(name)
    caps = sorted({cap for _, cap in PINNED_RESULTS[name] if cap is not None})
    for check in (check_T, check_M, check_ST):

        def results(**kwargs):
            res = check(make(), i, **kwargs)
            rs = res.clauses.values() if check is check_T else [res]
            return [(r.passed, r.counterexample, r.note) for r in rs]

        uncapped = results()
        for cap in caps:
            for got, want in zip(results(cap=cap), uncapped, strict=True):
                capped = got[:2] == (True, None) and CAP_NOTE.fullmatch(got[2])
                assert capped or got == want, (name, check.__name__, cap)


@pytest.mark.parametrize("i", [0, 1])
@pytest.mark.parametrize("check", ["T", "M", "ST"] + [f"C/{style}" for style in C_STYLES])
def test_check_asks_each_question_once(check, i):
    """One check call asks the oracle each distinct (step, g, f, event)
    question once.  The log is an instance attribute, so the induced
    oracle's ``atom_answers`` keeps its fast path and the searches' queries
    are not logged."""
    rep, fs = _criterion5_rep()
    oracle = InducedOracle(rep)
    asked = []
    ask = oracle.ask

    def logging_ask(j, g, f, A=None):
        asked.append((j, g.time_index, g.values, f.time_index, f.values, None if A is None else A.members))
        return ask(j, g, f, A)

    oracle.ask = logging_ask
    if check.startswith("C/"):
        check_C(oracle, i, fs[i], check[2:])
    else:
        {"T": check_T, "M": check_M, "ST": check_ST}[check](oracle, i)
    assert asked and len(set(asked)) == len(asked)

class TestCheckC:
    def test_valid_oracle_all_styles(self, valid_oracle):
        f = Act.from_atom_values(valid_oracle.space, 1, [1, 0, -1])
        for style in C_STYLES:
            assert check_C(valid_oracle, 0, f, style).passed

    def test_jump_fails_exactly_at_the_jump(self):
        oracle, witness = jump_on_positive_atom()
        res = check_C(oracle, 0, witness, "uniform")
        assert not res.passed
        off_jump = Act.from_atom_values(oracle.space, 1, [0.25, 0, 0])
        assert check_C(oracle, 0, off_jump, "uniform").passed

    def test_queries_are_the_oracle_queries_spent(self, valid_oracle):
        f = Act.from_atom_values(valid_oracle.space, 1, [1, 0, -1])
        for style in C_STYLES:
            before = valid_oracle.queries
            res = check_C(valid_oracle, 0, f, style)
            assert res.queries == valid_oracle.queries - before > 0

    def test_unknown_style_raises_before_any_query(self):
        oracle = always_succeq()  # premise vacuous: no equivalent is bracketable
        f = Act.from_atom_values(oracle.space, 1, [1, 0, -1])
        with pytest.raises(ValueError, match="no-such-style"):
            check_C(oracle, 0, f, "no-such-style")
        assert oracle.queries == 0

    def test_conditional_step(self):
        rng = random.Random(19)
        rep = random_representation(rng, n_times=3, min_first_split=3)
        oracle = InducedOracle(rep)
        f = random_act(rng, rep.space, 2)
        for style in C_STYLES:
            assert check_C(oracle, 1, f, style).passed


class TestTriPartition:
    def test_matches_engine_partition(self):
        rng = random.Random(23)
        for _ in range(15):
            rep = random_representation(rng)
            oracle = InducedOracle(rep)
            s, t, g, f, _ = margin_guarded_pair(rng, rep)
            if t != s + 1:
                continue
            tri, violations = tri_partition(oracle, s, g, f)
            assert not violations
            verdict = compare(rep, s, t, g, f)
            assert tri.A.members == verdict.tri.A.members
            assert tri.B.members == verdict.tri.B.members
            assert tri.C.members == verdict.tri.C.members

    def test_cce_gives_full_equivalence(self, valid_oracle):
        rep = valid_oracle.rep
        f = Act.from_atom_values(rep.space, 1, [2, 1, -1])
        g = cce(rep, 0, 1, f)
        tri, violations = tri_partition(valid_oracle, 0, g, f)
        assert not violations
        assert tri.A.members == frozenset(range(rep.space.n_states))

    def test_half_raised_splits(self):
        rng = random.Random(29)
        rep = random_representation(rng, n_times=3, min_first_split=4)
        oracle = InducedOracle(rep)
        s = 1
        f = random_act(rng, rep.space, 2)
        g = cce(rep, s, 2, f)
        raised = list(range(0, rep.space.n_atoms(s), 2))
        half_raised = Act.from_atom_values(
            rep.space, s,
            [v + 0.5 if k in raised else v - 0.5 for k, v in enumerate(g.atom_values())],
        )
        tri, violations = tri_partition(oracle, s, half_raised, f)
        assert not violations
        expected_b = {
            m for k in raised if rep.P.atom_mass(s, k) > 0
            for m in rep.space.atom_members(s, k)
        }
        assert tri.B.members == expected_b

    def test_always_succeq_classifies_everything_better(self):
        oracle = always_succeq()
        g = Act.constant(oracle.space, 0, 0)
        f = Act.constant(oracle.space, 1, 0)
        tri, violations = tri_partition(oracle, 0, g, f)
        assert not violations  # answers succeq everywhere, so B covers all

    def test_unclassifiable_atom_reported_as_violation(self):
        from itpref import PreferenceOracle, QueryAnswer

        class MuteOracle(PreferenceOracle):
            """Answers nothing: every atom violates local completeness."""

            def query(self, i, g, f, A=None):
                return QueryAnswer(False, False)

        space, _ = three_atom_space()
        oracle = MuteOracle(space)
        g = Act.constant(space, 0, 0)
        f = Act.constant(space, 1, 0)
        tri, violations = tri_partition(oracle, 0, g, f)
        assert violations == ["atom {x,y,z} unclassifiable (local completeness fails)"]
        assert tri.A.is_empty and tri.B.is_empty and tri.C.is_empty


class TestFaultMatrix:
    def test_each_fault_fails_exactly_its_target(self):
        jump_oracle, jump_witness = jump_on_positive_atom()
        cases = [
            ("always-succeq", always_succeq(), "T", None),
            ("intransitive", intransitive_band(), "T", None),
            ("flat-segment", flat_segment(), "M", None),
            ("mean-max", nonadditive_meanmax(), "ST", None),
            ("jump", jump_oracle, "C", jump_witness),
        ]
        for name, oracle, target, witness in cases:
            f_c = witness if witness is not None else Act.from_atom_values(
                oracle.space, 1, [1, 0, -1]
            )
            outcomes = {
                "T": check_T(oracle, 0).passed,
                "M": check_M(oracle, 0).passed,
                "ST": check_ST(oracle, 0).passed,
                "C": all(check_C(oracle, 0, f_c, s).passed for s in C_STYLES),
            }
            failed = sorted(k for k, ok in outcomes.items() if not ok)
            assert failed == [target], f"{name}: failed {failed}, wanted [{target}]"


class TestEnumeration:
    def test_constants_first_and_deterministic(self, valid_oracle):
        space = valid_oracle.space
        acts = enumerate_simple_acts(space, 1, DEFAULT_GRID, cap=30)
        assert [a.values for a in acts[:7]] == [
            (v,) * 3 for v in DEFAULT_GRID.values
        ]
        again = enumerate_simple_acts(space, 1, DEFAULT_GRID, cap=30)
        assert [a.values for a in acts] == [a.values for a in again]

    def test_distinct_value_cap(self, valid_oracle):
        acts = enumerate_simple_acts(valid_oracle.space, 1, DEFAULT_GRID, max_distinct=2, cap=500)
        assert all(len(set(a.values)) <= 2 for a in acts)

    def test_grid_invariants(self):
        from itpref import ActGrid

        with pytest.raises(ValueError, match="0"):
            ActGrid((1, 2))
        with pytest.raises(ValueError, match="sorted"):
            ActGrid((0, 2, 1))
        assert max(DEFAULT_GRID.extended()) == 8

    @pytest.mark.parametrize(
        "values, message",
        [
            ((0, float("nan")), "not finite"),
            ((0, float("inf")), "not finite"),
            ((float("nan"), 0, 1), "not finite"),
            ((-1, 0, True), "bool"),
        ],
    )
    def test_grid_rejects_non_finite_and_bool_values(self, values, message):
        from itpref import ActGrid

        with pytest.raises(ValueError, match=message):
            ActGrid(values)

    @pytest.mark.parametrize(
        "values, named",
        [
            ((-1, 0, 1, 1e308), "1e+308"),
            ((-(10**308), 0), f"-{10**308}"),
            ((0, Fraction(2 * 10**308, 3)), f"{2 * 10**308}/3"),
        ],
        ids=["float", "int", "fraction"],
    )
    def test_grid_rejects_an_extension_beyond_the_float_range(self, values, named):
        from itpref import ActGrid

        with pytest.raises(ValueError) as err:
            ActGrid(values)
        assert str(err.value) == (
            f"grid value {named} is too large: the grid's extension +-4*max|grid| "
            f"exceeds the float range"
        )

    def test_grid_extension_at_the_float_limit_is_finite(self):
        from itpref import ActGrid

        assert ActGrid((0, 4e307)).extended() == (-1.6e308, 0, 4e307, 1.6e308)


def test_audit_grid_follows_the_oracle_number_kind():
    """Exact oracles are audited on the grid as given, inexact ones on its
    float form; PINNED_RESULTS shows both in print: intransitive-band's
    ``-1/2`` and flat-segment's ``-0.5``."""
    exact = intransitive_band()
    assert exact.exact and grid_for(exact, DEFAULT_GRID) is DEFAULT_GRID
    inexact = flat_segment()
    grid = grid_for(inexact, DEFAULT_GRID)
    assert [(type(x), x) for x in grid.values] == [
        (int, -2), (int, -1), (float, -0.5), (int, 0), (float, 0.5), (int, 1), (int, 2)
    ]
    assert grid_for(inexact, grid) == grid


# Reference loops for the candidate acts: the product prefix written out once
# per call site, as enumerate_simple_acts, recovery's Debreu audit and check_ST
# each wrote it by hand.  Replacing prefixes by covering arrays re-pins the
# property test below on purpose.

def prefix_simple_acts(space, level, grid, max_distinct, cap):
    acts = [Act.constant(space, level, v) for v in grid.values]
    seen = {a.values for a in acts}
    m = space.n_atoms(level)
    if m > 1:
        for combo in itertools.product(grid.values, repeat=m):
            if len(acts) >= cap:
                break
            if len(set(combo)) > max_distinct:
                continue
            act = Act.from_atom_values(space, level, combo)
            if act.values not in seen:
                seen.add(act.values)
                acts.append(act)
    return acts[:cap]


def prefix_debreu_candidates(space, level, xs, cap):
    z = xs.index(0)
    picks = tuple(dict.fromkeys((max(z - 1, 0), z, z + 1)))
    amap = space.atom_index_map(level)
    out = []
    for pos in itertools.product(picks, repeat=space.n_atoms(level)):
        if all(p == z for p in pos):
            continue
        out.append((Act(space, level, tuple([xs[pos[k]] for k in amap])), pos))
        if len(out) >= cap:
            break
    return out


def prefix_sure_thing_candidates(space, level, atoms):
    out = []
    for combo in itertools.islice(itertools.product(SUBGRID, repeat=len(atoms)), 32):
        per_atom = [0] * space.n_atoms(level)
        for k, v in zip(atoms, combo):
            per_atom[k] = v
        out.append(Act.from_atom_values(space, level, per_atom))
    return out


SIXTEEN = FilteredSpace.build(
    [f"s{k}" for k in range(16)],
    (0, 1, 2),
    [
        [[f"s{k}" for k in range(16)]],
        [[f"s{k}" for k in range(j, j + 4)] for j in range(0, 16, 4)],
        [[f"s{k}"] for k in range(16)],
    ],
)
ENUMERATION_GRIDS = (
    DEFAULT_GRID,
    DEFAULT_GRID.float_form(),
    ActGrid((0, 2)),
    ActGrid((-1, 0)),
    ActGrid((-2, -1, 0, 1, 2)),
    ActGrid((-0.5, 0, 0.25, 3)),
    ActGrid((Fraction(-3, 4), 0, Fraction(1, 3), 2)),
)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_candidate_acts_keep_the_product_prefix_order(seed, data):
    """Every candidate-act list equals its reference loop's, act for act,
    value types included: on drawn spaces (up to 16 states) and a space with
    a 16-atom level, at every level (level 0 has one atom), on default and
    non-default grids, and at caps below the number of grid constants."""
    rng = random.Random(seed)
    if data.draw(st.booleans(), label="16-atom level"):
        space = SIXTEEN
    else:
        space = drawn_representation(rng, rng.choice((3, 4)), exact=False, null=False).space
    level = data.draw(st.integers(0, space.last_index), label="level")
    grid = data.draw(st.sampled_from(ENUMERATION_GRIDS), label="grid")
    cap = data.draw(
        st.one_of(st.integers(0, len(grid.values)), st.sampled_from((8, 12, 24, 128, 160))),
        label="cap",
    )
    max_distinct = data.draw(st.sampled_from((2, 3)), label="max distinct")
    assert [bits(a) for a in enumerate_simple_acts(space, level, grid, max_distinct, cap)] == [
        bits(a) for a in prefix_simple_acts(space, level, grid, max_distinct, cap)
    ]

    xs = _recovery_xs(grid)
    for debreu_cap in (max(cap, 1), 81, 64):  # the old loop returned one act at cap 0
        got = _debreu_candidates(space, level, xs, debreu_cap)
        want = prefix_debreu_candidates(space, level, xs, debreu_cap)
        assert [(bits(f), pos) for f, pos in got] == [(bits(f), pos) for f, pos in want]

    m = space.n_atoms(level)
    essential = sorted(rng.sample(range(m), rng.randint(0, m)))
    for atoms in _atom_unions(essential, 2, cap=10) + [tuple(range(m))]:
        assert [bits(f) for f in _sure_thing_candidates(space, level, atoms)] == [
            bits(f) for f in prefix_sure_thing_candidates(space, level, atoms)
        ]
