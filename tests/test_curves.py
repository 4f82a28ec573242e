"""Monotone curves: evaluation, inversion, jumps, ranges, serialization."""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from itpref import (
    ArgScaledCurve,
    ExponentialCurve,
    IdentityCurve,
    LinearCurve,
    MonotoneCurve,
    PiecewiseLinearCurve,
    PowerCurve,
    RangeError,
    ValueScaledCurve,
)
from itpref.curves import _segments
from itpref.filtered_space import _float_image
from itpref.scenario import parse_curve

ALL_KINDS = [
    IdentityCurve(),
    LinearCurve(Fraction(3, 2)),
    ExponentialCurve(1.0),
    PowerCurve(1.5),
    PiecewiseLinearCurve.from_points([(-1, -2), (0, 0), (1, Fraction(1, 2))]),
    ArgScaledCurve(ExponentialCurve(0.5), 2),
    ValueScaledCurve(LinearCurve(2), Fraction(1, 3)),
]


class TestClosedForms:
    def test_identity(self):
        c = IdentityCurve()
        assert c(3.7) == 3.7 and c.invert(3.7) == 3.7

    def test_exponential_at_log2(self):
        c = ExponentialCurve(1.0)
        assert abs(c(math.log(2)) - 0.5) < 1e-15

    def test_exponential_inversion(self):
        c = ExponentialCurve(1.0)
        assert abs(c.invert(0.25) - (-math.log(0.75))) < 1e-15
        assert abs(c.invert(0.25) - 0.2876820724517809) < 1e-12

    def test_villa_halved_gains(self):
        u = PiecewiseLinearCurve.from_points([(-1, -2), (0, 0), (1, Fraction(1, 2))])
        assert u(200_000) == 100_000
        assert u(-100) == -200
        assert u.invert(100_000) == 200_000

    def test_power(self):
        c = PowerCurve(2.0)
        assert c(3) == 9 and c(-3) == -9
        assert abs(c.invert(16) - 4) < 1e-12 and abs(c.invert(-16) + 4) < 1e-12

    def test_linear_fraction_exact(self):
        c = LinearCurve(Fraction(3, 2))
        assert c(Fraction(2, 3)) == 1
        assert c.invert(Fraction(3, 4)) == Fraction(1, 2)


class TestProperties:
    @pytest.mark.parametrize("curve", ALL_KINDS, ids=lambda c: c.spec())
    def test_normalized_at_zero(self, curve):
        assert abs(curve(0)) < 1e-12

    @pytest.mark.parametrize("curve", ALL_KINDS, ids=lambda c: c.spec())
    def test_strictly_increasing_on_grid(self, curve):
        xs = [-3 + 6 * k / 1200 for k in range(1201)]
        vals = [curve(x) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("curve", ALL_KINDS, ids=lambda c: c.spec())
    def test_invert_round_trip(self, curve):
        rng = random.Random(1)
        jump_abscissae = {j.x for j in curve.jumps()}
        for _ in range(1000):
            x = rng.uniform(-3, 3)
            if any(abs(x - float(a)) < 1e-9 for a in jump_abscissae):
                continue
            y = curve(x)
            assert abs(curve.invert(y) - x) < 1e-9

    @pytest.mark.parametrize(
        "curve",
        ALL_KINDS + [ArgScaledCurve(ALL_KINDS[4], Fraction(2, 3)), ValueScaledCurve(ALL_KINDS[4], 3)],
        ids=lambda c: c.spec(),
    )
    def test_evaluator_is_the_call_bit_for_bit(self, curve):
        evaluate = curve.evaluator
        assert curve.evaluator is evaluate  # one evaluator per curve
        args = [0, 1, -3, 7, 0.0, -0.0, 0.25, -1.5, 1e-300, 800.0, -800.0]
        args += [Fraction(1, 3), Fraction(-7, 2), Fraction(1, 2**1100)]
        for x in args:
            got, want = evaluate(x), curve(x)
            assert (type(got), repr(got)) == (type(want), repr(want)), x

    def test_slope_must_be_positive(self):
        with pytest.raises(ValueError):
            LinearCurve(0)
        with pytest.raises(ValueError):
            ExponentialCurve(-1)
        with pytest.raises(ValueError):
            PowerCurve(0)


def three_test_segments(anchors, slopes, at):
    """``curves._segments`` as it placed ``x`` before one search did: a test
    for each end, then the search."""

    def evaluate(x):
        if x < at[0]:
            first = anchors[0]
            return first[1] + slopes[0] * (x - first[0])
        if x > at[-1]:
            last = anchors[-1]
            return last[3] + slopes[-1] * (x - last[0])
        i = bisect_right(at, x) - 1
        a = anchors[i]
        if x == at[i]:
            return a[2]
        return a[3] + slopes[i] * (x - a[0])

    return evaluate


@st.composite
def pl_anchors(draw):
    """Two to six increasing anchors, some of them jumps, each number an
    ``int`` (where whole), a ``Fraction`` or a ``float``: all of one kind or
    mixed."""
    n = draw(st.integers(2, 6))
    gaps = st.fractions(Fraction(1, 8), 3, max_denominator=12)
    rises = st.one_of(st.just(Fraction(0)), gaps)
    x, y = draw(st.fractions(-4, 0, max_denominator=12)), draw(st.fractions(-4, 0, max_denominator=12))
    exact = []
    for _ in range(n):
        left = y
        value = left + draw(rises)
        right = value + draw(rises)
        exact.append((x, left, value, right))
        x, y = x + draw(gaps), right + draw(gaps)
    kinds = ["int", "fraction", "float"]
    kind = draw(st.sampled_from(kinds + ["mixed"]))

    def typed(q):
        k = draw(st.sampled_from(kinds)) if kind == "mixed" else kind
        if k == "float":
            return float(q)
        return int(q) if k == "int" and q.denominator == 1 else q

    return tuple(tuple(typed(q) for q in anchor) for anchor in exact)


class TestPiecewiseLinear:
    def test_segment_slopes_validated(self):
        with pytest.raises(ValueError, match="slope"):
            PiecewiseLinearCurve.from_points([(-1, 0), (0, 0), (1, 1)])
        PiecewiseLinearCurve.from_points([(-1, 0), (0, 0), (1, 1)], strict=False)

    def test_normalization_validated(self):
        with pytest.raises(ValueError, match="normalized"):
            PiecewiseLinearCurve.from_points([(-1, 0), (1, 1)])

    def test_extension_slopes(self):
        u = PiecewiseLinearCurve.from_points([(-1, -2), (0, 0), (1, Fraction(1, 2))])
        assert u(-3) == -2 + 2 * (-2)      # first slope 2 extended
        assert u(5) == Fraction(1, 2) + Fraction(1, 2) * 4  # last slope 1/2 extended

    def test_jump_anchor(self):
        u = PiecewiseLinearCurve.from_points([(0, 0), (1, 1, 1, 2), (2, 3)])
        assert u(1) == 1
        assert u(0.5) == 0.5
        assert u(1.5) == 2.5
        (j,) = u.jumps()
        assert (j.x, j.left, j.value, j.right) == (1, 1, 1, 2)

    def test_evaluation_matches_the_anchor_scan(self, monkeypatch):
        def scan(u, x):
            """Reference: find the segment by walking the anchors in order."""
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

        curves = [
            PiecewiseLinearCurve.from_points(
                [(-2.5, -3.0), (-1, -1.25), (-0.3, -0.2), (0, 0), (0.5, 0.4, 0.45, 0.9),
                 (1.25, 1.1), (3, 2.0)]
            ),
            PiecewiseLinearCurve.from_points(
                [(-2, Fraction(-7, 3)), (Fraction(-1, 3), Fraction(-1, 5)), (0, 0),
                 (Fraction(2, 3), Fraction(1, 2), Fraction(3, 5), 1), (4, Fraction(9, 2))]
            ),
            # a recovered curve: Fraction abscissae on a dyadic grid, which
            # float arguments compare with as floats; a jump anchor at 1/2
            PiecewiseLinearCurve.from_points(
                [(Fraction(-3, 2), Fraction(-9, 5)), (Fraction(-1, 4), Fraction(-1, 3)), (0, 0),
                 (Fraction(1, 2), Fraction(2, 7), Fraction(1, 3), Fraction(5, 7)),
                 (Fraction(5, 4), 1), (3, Fraction(11, 7))]
            ),
            # an abscissa 1/3 with no exact float: float arguments compare exactly
            PiecewiseLinearCurve.from_points(
                [(-1, Fraction(-3, 2)), (0, 0), (Fraction(1, 3), Fraction(1, 4), Fraction(1, 3), 1),
                 (2, 3)]
            ),
            # dyadic abscissae, non-dyadic slopes (1/3, 2/3) and right limit
            # 7/10 at a jump: float arguments meet the float images of both
            PiecewiseLinearCurve.from_points(
                [(-1, Fraction(-1, 3)), (0, 0),
                 (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(7, 10)),
                 (2, Fraction(17, 10))]
            ),
        ]
        floats_of = {}
        for u in curves:
            xs = [a[0] for a in u.anchors]
            points = [xs[0] - 1, xs[-1] + Fraction(7, 3)] + xs
            points += [(a + b) / 2 for a, b in zip(xs, xs[1:])]
            points += [a + (b - a) / 7 for a, b in zip(xs, xs[1:])]
            floats = [float(x) for x in points] + [float(x) + d for x in xs for d in (-1e-12, 1e-12)]
            floats_of[u] = floats
            for x in points + floats + [Fraction(x) for x in points]:
                got, want = u(x), scan(u, x)
                assert (type(got), repr(got)) == (type(want), repr(want)), x
        jump = curves[1].anchors[3]
        assert curves[1](jump[0]) == jump[2] == Fraction(3, 5)
        assert curves[1](Fraction(1, 3)) == Fraction(1, 4)
        assert isinstance(curves[1](Fraction(1, 3)), Fraction)
        assert curves[0](0.5) == 0.45 and curves[0](0.25) == 0.2
        assert curves[2](0.5) == Fraction(1, 3) and curves[2](0.5 + 1e-12) > Fraction(5, 7)
        assert curves[4](0.5) == Fraction(2, 5) and curves[4](Fraction(1, 2)) == Fraction(2, 5)

        # a float argument meets no Fraction operator on dyadic abscissae;
        # beside 1/3 it meets only comparisons, which stay exact
        met = []

        def spy(name):
            operator = getattr(Fraction, name)

            def spied(a, b):
                if type(b) is float:
                    met.append(name)
                return operator(a, b)

            return spied

        names = [f"__{op}__" for op in ("lt", "le", "gt", "ge", "eq")]
        names += [f"__{r}{op}__" for op in ("add", "sub", "mul", "truediv") for r in ("", "r")]
        with monkeypatch.context() as m:
            for name in names:
                m.setattr(Fraction, name, spy(name))
            for u in curves[2], curves[4]:
                for x in floats_of[u]:
                    u(x)
            assert met == []
            for x in floats_of[curves[3]]:
                curves[3](x)
        assert met and set(met) <= set(names[:5])

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(anchors=pl_anchors())
    def test_one_search_equals_the_three_test_placement(self, anchors):
        """``_segments`` equals, bit for bit and type for type, the evaluator
        that placed ``x`` by two range tests and then a search: on the
        anchors as given and on their float images, at every abscissa,
        between abscissae, beyond both ends and at ±inf, as ``int``,
        ``Fraction`` and ``float``."""
        slopes = tuple((l1 - r0) / (x1 - x0) for (x0, _, _, r0), (x1, l1, _, _) in zip(anchors, anchors[1:]))
        xs = tuple(a[0] for a in anchors)
        images = tuple(tuple(map(_float_image, a)) for a in anchors)
        points = [Fraction(x) for x in xs]
        points += [(a + b) / 2 for a, b in zip(points, points[1:])]
        points += [points[0] - 1, points[0] - Fraction(1, 3), points[-1] + Fraction(1, 3), points[-1] + 7]
        args = [math.inf, -math.inf]
        for p in points:
            args += [Fraction(p), float(p)] + ([int(p)] if p.denominator == 1 else [])
        for a, sl, at in ((anchors, slopes, xs), (images, tuple(map(_float_image, slopes)), tuple(map(_float_image, xs)))):
            new, old = _segments(a, sl, at), three_test_segments(a, sl, at)
            for x in args:
                got, want = new(x), old(x)
                assert (type(got), repr(got)) == (type(want), repr(want)), x

    def test_fraction_arguments_with_no_exact_float_keep_the_exact_path(self):
        # float(2**53 + 1) and float(2**-1100) are the jump abscissae 2**53
        # and 0: evaluating either argument as its float would give the
        # jump's value, not its right limit
        wide = PiecewiseLinearCurve.from_points([(-1, -1.0), (0, 0.0), (2**53, 1.0, 1.0, 3.0)])
        assert wide(Fraction(2**53 + 1)) == 3.0 == wide(2**53 + 1)
        jump = PiecewiseLinearCurve.from_points([(-1, -1.0), (0, -0.5, 0.0, 0.5), (1, 1.0)])
        assert jump(Fraction(1, 2**1100)) == 0.5 and jump(float(Fraction(1, 2**1100))) == 0.0
        assert type(jump(Fraction(1, 4))) is float and jump(Fraction(1, 4)) == 0.625

    def test_inversion_in_gap_flags(self):
        u = PiecewiseLinearCurve.from_points([(0, 0), (1, 1, 1, 2), (2, 3)])
        hit = u.invert_detailed(1)
        assert hit.x == 1 and not hit.in_gap
        gap = u.invert_detailed(1.5)
        assert gap.x == 1 and gap.in_gap

    def test_invalid_anchor_order(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            PiecewiseLinearCurve.from_points([(1, 1), (0, 0)])

    def test_fraction_arithmetic_stays_exact(self):
        u = PiecewiseLinearCurve.from_points([(-1, -2), (0, 0), (1, Fraction(1, 2))])
        assert u(Fraction(1, 3)) == Fraction(1, 6)
        assert u.invert(Fraction(1, 6)) == Fraction(1, 3)


class TestRangeErrors:
    def test_exponential_bound_named(self):
        c = ExponentialCurve(2.0)
        with pytest.raises(RangeError, match="0.5"):
            c.invert(0.5)
        with pytest.raises(RangeError):
            c.invert(0.7)
        assert abs(c(c.invert(0.49)) - 0.49) < 1e-12

    def test_value_scaled_range(self):
        c = ValueScaledCurve(ExponentialCurve(1.0), 2)
        assert c.range_sup() == 2.0
        with pytest.raises(RangeError):
            c.invert(2.5)


@dataclass(frozen=True)
class _CubicCurve(MonotoneCurve):
    """No closed-form inversion: exercises the bisection fallback."""

    def __call__(self, x):
        xf = float(x)
        return xf + xf**3

    def spec(self) -> str:
        return "cubic"


@pytest.mark.parametrize(
    "curve, exact",
    list(zip(ALL_KINDS, (True, True, False, False, True, False, True)))
    + [
        (_CubicCurve(), False),  # a curve class that does not say counts as inexact
        (LinearCurve(1.5), False),
        (PiecewiseLinearCurve.from_points([(-1, -2), (0, 0), (1, 0.5)]), False),
        (ArgScaledCurve(IdentityCurve(), 0.5), False),
        (ValueScaledCurve(IdentityCurve(), 0.5), False),
    ],
)
def test_exact_when_every_parameter_is_an_int_or_a_fraction(curve, exact):
    assert curve.exact is exact


class TestBisectionFallback:
    def test_converges_within_tolerance(self):
        c = _CubicCurve()
        for target in (-9.0, -1.2, 0.0, 0.7, 30.0):
            x = c.invert(target, tol=1e-12)
            assert abs(c(x) - target) <= 1e-11


class TestScaledCurves:
    def test_arg_scaled(self):
        c = ArgScaledCurve(LinearCurve(3), 2)
        assert c(5) == 30
        assert c.invert(30) == 5

    def test_value_scaled(self):
        c = ValueScaledCurve(LinearCurve(3), Fraction(1, 2))
        assert c(4) == 6
        assert c.invert(6) == 4

    def test_jumps_rescale(self):
        base = PiecewiseLinearCurve.from_points([(0, 0), (1, 1, 1, 2), (2, 3)])
        (ja,) = ArgScaledCurve(base, 2).jumps()
        assert ja.x == 0.5 and ja.right == 2
        (jv,) = ValueScaledCurve(base, 3).jumps()
        assert jv.x == 1 and jv.right == 6

    def test_positive_scale_required(self):
        with pytest.raises(ValueError):
            ArgScaledCurve(IdentityCurve(), 0)
        with pytest.raises(ValueError):
            ValueScaledCurve(IdentityCurve(), -1)


class TestSerialization:
    @pytest.mark.parametrize("curve", ALL_KINDS, ids=lambda c: c.spec())
    def test_spec_round_trip(self, curve):
        again = parse_curve(curve.spec())
        assert again == curve

    def test_jump_spec_round_trip(self):
        u = PiecewiseLinearCurve.from_points([(0, 0), (1, 1, Fraction(3, 2), 2), (2, 3)])
        assert parse_curve(u.spec()) == u
