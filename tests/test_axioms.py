"""Axiom verification: valid oracles pass, each corrupted oracle fails its
own axiom, and oracle-derived structures agree with the measure-side ones."""

from __future__ import annotations

import itertools
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

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
    BISECT_TOL,
    C_STYLES,
    NULL_PROBE_ACTS,
    QUERY_CAP,
    SUBGRID,
    CheckResult,
    TransitionReport,
    _atom_unions,
    _Budget,
    _debreu_candidates,
    _sure_thing_candidates,
    _vals,
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
from itpref.filtered_space import Event, paste
from itpref.oracles import BracketError, PreferenceOracle, indifference_profile
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

    def test_normalization_compares_the_union_of_two_null_atoms(self):
        """With two null time-1 atoms their union is a null event too: an
        oracle that ranks only the union's indicator apart fails
        normalization on it."""
        from itpref import PreferenceOracle, QueryAnswer

        space = FilteredSpace.build(
            ("a", "b", "c"), (0, 1, 2), [[["a", "b", "c"]], [["a"], ["b"], ["c"]], [["a"], ["b"], ["c"]]]
        )
        induced = InducedOracle(identity_representation(space, ProbabilityMeasure(space, (1, 0, 0))))

        class UnionApart(PreferenceOracle):
            def query(self, i, g, f, A=None):
                if i == 1 and g.values == (0, 1, 1):
                    return QueryAnswer(False, False)
                return induced.query(i, g, f, A)

        res = check_T(UnionApart(space), 1).clauses["3 normalization"]
        assert not res.passed
        assert res.counterexample == "1_{b,c} !~ 1_{} despite both null"
        assert check_T(induced, 1).clauses["3 normalization"].passed

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

    def test_whole_space_instance_trivial(self, valid_oracle):
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
    oracle's ``search_atom`` keeps its kernel and the searches' queries are
    not logged."""
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
        assert not tri.A.members and not tri.B.members and not tri.C.members


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


# ---------------------------------------------------------------------------
# The loops of check_T, check_M and check_ST (and the null derivation they
# run) as they were before the checks kept per-loop rows of answers: every
# question goes through the budget's table, however often a loop asks it.
# The rows must leave every result, cap note and query count as it was.


def ref_null_atoms(budget: _Budget, i: int, grid: ActGrid) -> tuple[int, ...]:
    if i < 1:
        return ()
    oracle = budget.oracle
    space, grid = oracle.space, grid_for(oracle, grid)
    step = i - 1
    candidates = enumerate_simple_acts(space, i, grid, max_distinct=2, cap=NULL_PROBE_ACTS)
    consts = [Act.constant(space, i, c) for c in grid.values]
    equivalents: dict = {}

    def rewrite_keeps_equivalence(n: int, A: Event) -> bool:
        f = candidates[n]
        g = ref_equivalent(oracle, step, f, equivalents, n)
        if g is None:
            return True
        return not budget.ask(step, g, f).equiv or all(
            budget.ask(step, g, paste(c, f, A)).equiv for c in consts
        )

    return tuple(
        k for k, A in enumerate(space.atom_events(i))
        if all(rewrite_keeps_equivalence(n, A) for n in range(len(candidates)))
    )


def ref_essential_atoms(budget: _Budget, level: int, grid: ActGrid) -> list[int]:
    nulls = ref_null_atoms(budget, level, grid)
    return [k for k in range(budget.oracle.space.n_atoms(level)) if k not in nulls]


def ref_equivalent(oracle: PreferenceOracle, i: int, X: Act, found: dict, key) -> Act | None:
    if key not in found:
        try:
            found[key] = indifference_profile(oracle, i, X, BISECT_TOL)
        except BracketError:
            found[key] = None
    return found[key]


def ref_check_T(
    oracle: PreferenceOracle,
    i: int,
    grid: ActGrid = DEFAULT_GRID,
    cap: int = QUERY_CAP,
) -> TransitionReport:
    space, grid = oracle.space, grid_for(oracle, grid)
    budget = _Budget(oracle, cap)
    ask = budget.ask
    report = TransitionReport(step=i)

    null_i = ref_null_atoms(budget, i, grid)
    null_union = space.union_event(i, null_i)
    ess = [k for k in range(space.n_atoms(i)) if k not in null_i]
    ess_atoms = [space.atom_event(i, k) for k in ess]
    f_acts = enumerate_simple_acts(space, i + 1, grid, cap=160)
    if i == 0:
        g_acts = [Act.constant(space, 0, v) for v in grid.values]
    else:
        g_acts = enumerate_simple_acts(space, i, grid, max_distinct=2, cap=24)
    ext = grid.extended()
    ext_acts = [(c, Act.constant(space, i, c)) for c in ext]

    # 1. local completeness
    res = CheckResult(True)
    for g, f in budget.each(itertools.product(g_acts, f_acts)):
        if i == 0:
            if ask(0, g, f).undecided:
                res = CheckResult(False, f"g={_vals(g)} f={_vals(f)} undecided")
                break
        else:
            if not ess_atoms:
                res = CheckResult(False, "no essential event answers any comparison")
                break
            if all(ask(i, g, f, A).undecided for A in ess_atoms):
                res = CheckResult(
                    False, f"g={_vals(g)} f={_vals(f)} undecided on every essential atom"
                )
                break
    report.clauses["1 local-completeness"] = budget.close(res)

    # 2. transitivity
    res = CheckResult(True)
    for f in budget.each(f_acts):
        lows = [c for c, const in ext_acts if ask(i, const, f).preceq]
        highs = [c for c, const in ext_acts if ask(i, const, f).succeq]
        if not lows or not highs:
            continue
        a, b = max(lows), min(highs)
        if a > b:
            if i == 0:
                res = CheckResult(False, f"f={_vals(f)}: {a} preceq f, {b} succeq f, but {a} > {b}")
                break
            # {b < a} is the whole space here; it must be null
            if any(k not in null_i for k in range(space.n_atoms(i))):
                res = CheckResult(
                    False, f"f={_vals(f)}: constants {b} succeq f and {a} preceq f with {{g<h}} essential"
                )
                break
    if res.passed and i >= 1:
        for f, g, h in budget.each(itertools.product(f_acts[:32], g_acts, g_acts)):
            if ask(i, g, f).succeq and ask(i, h, f).preceq:
                where = {s for s in range(space.n_states) if g.values[s] < h.values[s]}
                if not where <= null_union.members:
                    res = CheckResult(
                        False,
                        f"g={_vals(g)} succeq f={_vals(f)}, h={_vals(h)} preceq f, "
                        f"but {{g<h}} is essential",
                    )
                    break
    report.clauses["2 transitivity"] = budget.close(res)

    # 3. normalization: null indicators are mutually equivalent
    res = CheckResult(True)
    null_events: list[Event] = [Event(space, frozenset(), i)]
    null_events += [space.atom_event(i, k) for k in sorted(null_i)]
    if len(null_i) > 1:
        null_events.append(null_union)
    for A, B in budget.each(itertools.product(null_events, repeat=2)):
        if not ask(i, A.indicator(i), B.indicator(i + 1)).equiv:
            res = CheckResult(False, f"1_{A.label()} !~ 1_{B.label()} despite both null")
            break
    report.clauses["3 normalization"] = budget.close(res)

    # 4. non-degeneracy: dominating/dominated constants within the extension
    res = CheckResult(True, note=f"not falsified within bounds +-{ext[-1]}")
    for f in budget.each(f_acts):
        g2 = next((c for c, const in reversed(ext_acts) if ask(i, const, f).succeq), None)
        g1 = next((c for c, const in ext_acts if ask(i, const, f).preceq), None)
        if g2 is None or g1 is None:
            side = "dominating" if g2 is None else "dominated"
            res = CheckResult(
                False,
                f"f={_vals(f)}: no {side} constant within +-{ext[-1]}",
                note="unbounded search is undecidable; failure within extension reported",
            )
            break
    report.clauses["4 non-degeneracy"] = budget.close(res)

    # 5 & 6: consistency under sub-events; stability under unions
    if i == 0:
        note = "vacuous at the initial time: only the trivial event conditions"
        report.clauses["5 consistency"] = CheckResult(True, note=note)
        report.clauses["6 stability"] = CheckResult(True, note=note)
    else:
        res5 = CheckResult(True)
        res6 = CheckResult(True)
        masks = [space.union_event(i, ks) for ks in _atom_unions(ess, len(ess), cap=32)]
        for g, f in budget.each(itertools.product(g_acts[:8], f_acts[:48])):
            answers = {ev.members: ask(i, g, f, ev) for ev in masks}
            for ev in masks:
                big = answers[ev.members]
                for sub in masks:
                    if sub.members < ev.members:
                        small = answers[sub.members]
                        if res5.passed and (
                            (big.succeq and not small.succeq)
                            or (big.preceq and not small.preceq)
                        ):
                            res5 = CheckResult(
                                False,
                                f"g={_vals(g)} f={_vals(f)}: answer on {ev.label()} "
                                f"not inherited by {sub.label()}",
                            )
            for ea, eb in itertools.combinations(masks, 2):
                if ea.members & eb.members:
                    continue
                union = answers.get(frozenset(ea.members | eb.members))
                if union is None:
                    continue
                va, vb = answers[ea.members], answers[eb.members]
                if res6.passed and (
                    (va.succeq and vb.succeq and not union.succeq)
                    or (va.preceq and vb.preceq and not union.preceq)
                ):
                    res6 = CheckResult(
                        False,
                        f"g={_vals(g)} f={_vals(f)}: {ea.label()} and {eb.label()} "
                        f"agree but their union does not",
                    )
            if not res5.passed and not res6.passed:
                break
        report.clauses["5 consistency"] = budget.close(res5)
        report.clauses["6 stability"] = budget.close(res6)
    return report


def ref_check_M(
    oracle: PreferenceOracle,
    i: int,
    grid: ActGrid = DEFAULT_GRID,
    cap: int = QUERY_CAP,
) -> CheckResult:
    space, grid = oracle.space, grid_for(oracle, grid)
    budget = _Budget(oracle, cap)
    ask = budget.ask
    up = ref_essential_atoms(budget, i + 1, grid)
    ess_i = [space.atom_event(i, k) for k in ref_essential_atoms(budget, i, grid)]
    events = [space.union_event(i + 1, ks) for ks in _atom_unions(up, 2, cap=12)]
    f_acts = enumerate_simple_acts(space, i + 1, grid, max_distinct=2, cap=12)
    consts = [Act.constant(space, i + 1, g) for g in grid.values]
    pairs = list(itertools.combinations(range(len(consts)), 2))
    skipped = 0
    row_A = row_f = None

    for A, f, (n1, n2) in budget.each(itertools.product(events, f_acts, pairs)):
        if A is not row_A or f is not row_f:
            # the pairs run innermost: each grid constant pasted on A over f,
            # and each paste's certainty equivalent, built once per (A, f)
            row_A, row_f = A, f
            row = [paste(c, f, A) for c in consts]
            equivalents = {}
        # the equivalent of each paste must sit strictly on its side of the other
        for n, m, below, side in (
            (n1, n2, True, "g1-paste is not strictly below the g2-paste"),
            (n2, n1, False, "g2-paste is not strictly above the g1-paste"),
        ):
            X, Y = row[n], row[m]
            c = ref_equivalent(oracle, i, X, equivalents, n)
            if c is None:
                skipped += 1
                break
            if ask(i, c, X).equiv and not any(
                (ans.preceq if below else ans.succeq) and not ans.equiv
                for ans in (ask(i, c, Y, e) for e in ess_i)
            ):
                return budget.close(CheckResult(
                    False,
                    f"A={A.label()} f={_vals(f)} g1={grid.values[n1]} g2={grid.values[n2]}: "
                    f"equivalent of the {side} on any essential event",
                ))
    note = f"{skipped} premises not instantiable" if skipped else ""
    return budget.close(CheckResult(True, note=note))


def ref_check_ST(
    oracle: PreferenceOracle,
    i: int,
    grid: ActGrid = DEFAULT_GRID,
    cap: int = QUERY_CAP,
) -> CheckResult:
    space, grid = oracle.space, grid_for(oracle, grid)
    budget = _Budget(oracle, cap)
    ask = budget.ask
    unions = _atom_unions(ref_essential_atoms(budget, i + 1, grid), 2, cap=10)
    unions.append(tuple(range(space.n_atoms(i + 1))))
    h_acts = [Act.constant(space, i + 1, h) for h in grid.values]
    ext_acts = [Act.constant(space, i, c) for c in grid.extended()]

    for atoms in unions:
        A = space.union_event(i + 1, atoms)
        f_cands = _sure_thing_candidates(space, i + 1, atoms)
        # pasted[j][n]: candidate j on A and the n-th grid constant off it, built
        # once; its certainty equivalent is searched on first use
        pasted = [[paste(f, h, A) for h in h_acts] for f in f_cands]
        equivalents: dict = {}
        for j1, j2 in budget.each(itertools.product(range(len(f_cands)), repeat=2)):
            f1, f2 = f_cands[j1], f_cands[j2]
            if f1.values == f2.values:
                continue
            premise_h = None
            for n, (h, X1, X2) in enumerate(zip(grid.values, pasted[j1], pasted[j2])):
                c1 = ref_equivalent(oracle, i, X1, equivalents, (j1, n))
                if c1 is not None and ask(i, c1, X1).succeq and ask(i, c1, X2).preceq:
                    premise_h = h
                    break
            if premise_h is None:
                continue
            for n, (k, Y1, Y2) in enumerate(zip(grid.values, pasted[j1], pasted[j2])):
                g2 = ref_equivalent(oracle, i, Y1, equivalents, (j1, n))
                found = g2 is not None and ask(i, g2, Y1).succeq and ask(i, g2, Y2).preceq
                if not found:
                    found = any(
                        ask(i, cand, Y1).succeq and ask(i, cand, Y2).preceq for cand in ext_acts
                    )
                if not found:
                    return budget.close(CheckResult(
                        False,
                        f"A={A.label()} f1={_vals(f1)} f2={_vals(f2)} h={premise_h} k={k}: "
                        f"no bracketing act within the grid closure",
                    ))
    return budget.close(CheckResult(True))


ROW_CONTROLS = {
    "always-succeq": always_succeq,
    "intransitive-band": intransitive_band,
    "flat-segment": flat_segment,
    "mean-max": nonadditive_meanmax,
    "jump": lambda: jump_on_positive_atom()[0],
}
ROW_CAPS = (10, 50, 500, QUERY_CAP)


def _outcome(res):
    if isinstance(res, TransitionReport):
        return {name: _outcome(r) for name, r in res.clauses.items()}
    return res.passed, res.counterexample, res.note, res.queries


def _logged(oracle):
    """``oracle`` with each question it is asked through ``ask`` logged in
    ``oracle.asked``.  The log is an instance attribute, so the induced
    kernel's searches, which never call ``ask``, are not logged."""
    oracle.asked = []
    ask = oracle.ask

    def logging_ask(j, g, f, A=None):
        oracle.asked.append((j, g.values, f.values, None if A is None else A.members))
        return ask(j, g, f, A)

    oracle.ask = logging_ask
    return oracle


def _assert_rows_keep_every_result(make, i, grid=DEFAULT_GRID):
    """Each check against its reference body, each run on a fresh oracle, at
    every cap: the same results, the same oracle query count, and the same
    questions asked in the same order."""
    for check, reference in ((check_T, ref_check_T), (check_M, ref_check_M), (check_ST, ref_check_ST)):
        for cap in ROW_CAPS:
            new, old = _logged(make()), _logged(make())
            got = _outcome(check(new, i, grid, cap)), new.queries, new.asked
            assert got == (_outcome(reference(old, i, grid, cap)), old.queries, old.asked), (check.__name__, cap)


@pytest.mark.parametrize("member", list(ROW_CONTROLS))
def test_rows_keep_every_result_on_the_controls(member):
    _assert_rows_keep_every_result(ROW_CONTROLS[member], 0)


@settings(derandomize=True, deadline=None, max_examples=3)
@given(
    seed=st.integers(0, 2**32 - 1), exact=st.booleans(), null=st.booleans(), i=st.integers(0, 1)
)
@example(seed=1, exact=True, null=False, i=0)
@example(seed=2, exact=True, null=False, i=1)
@example(seed=3, exact=True, null=True, i=0)
@example(seed=4, exact=True, null=True, i=1)
def test_rows_keep_every_result_on_induced_oracles(seed, exact, null, i):
    """On generated float and exact representations, with and without a
    null time-1 atom, at steps 0 and 1."""
    rep = drawn_representation(random.Random(seed), 3, exact, null)
    _assert_rows_keep_every_result(lambda: InducedOracle(rep), i)
