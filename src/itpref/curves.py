"""Strictly increasing utility curves.

Every curve is total on the reals, normalized to pass through the origin, and
invertible: identity, linear, exponential and signed power curves invert in
closed form, piecewise-linear curves by segment arithmetic, and anything else
falls back to bracketed bisection with geometric bracket expansion.

Piecewise-linear curves may carry explicit jump points (distinct left/right
limits) so the discontinuity machinery downstream is non-vacuous.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

from .filtered_space import Number, _float_image, _is_exact

INVERT_TOL = 1e-12      # default inversion tolerance, on the utility scale
MAX_BISECT = 200
NORM_TOL = 1e-12        # |u(0)| allowed


class RangeError(ValueError):
    """Inversion target outside the closure of the curve's range."""


class GapError(ValueError):
    """Inversion target falls in a jump gap of the curve."""


def fmt_number(x: Number) -> str:
    """Canonical text form: ints bare, Fractions as p/q, floats via repr."""
    if isinstance(x, bool):
        raise TypeError("bool is not a number here")
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return repr(float(x))


@dataclass(frozen=True)
class Jump:
    """A discontinuity point: left limit, attained value, right limit."""

    x: Number
    left: Number
    value: Number
    right: Number


@dataclass(frozen=True)
class Inversion:
    x: Number
    in_gap: bool = False


class MonotoneCurve:
    """Base class; subclasses implement ``__call__`` and usually a closed-form
    ``invert_detailed``."""

    exact = False  # every parameter an int or a Fraction; a class must say so

    def __call__(self, x: Number) -> Number:
        raise NotImplementedError

    @property
    def evaluator(self) -> Callable[[Number], Number]:
        """x ↦ u(x) as a plain callable: loops that evaluate one curve many
        times bind it once.  ``evaluator(x)`` is ``self(x)`` bit for bit; by
        default it is the curve itself, through its ``__call__``."""
        return self

    def invert(self, y: Number, tol: float = INVERT_TOL) -> Number:
        return self.invert_detailed(y, tol).x

    def invert_detailed(self, y: Number, tol: float = INVERT_TOL) -> Inversion:
        return self._bisect_invert(y, tol)

    def jumps(self) -> tuple[Jump, ...]:
        return ()

    # open range bounds; inversion targets must lie strictly inside
    def range_inf(self) -> float:
        return -math.inf

    def range_sup(self) -> float:
        return math.inf

    def check_in_range(self, y: Number) -> None:
        if not self.range_inf() < y < self.range_sup():
            raise RangeError(
                f"target {y!r} outside the range ({fmt_number(self.range_inf())}, "
                f"{fmt_number(self.range_sup())}) of {self.spec()}"
            )

    def spec(self) -> str:
        raise NotImplementedError

    def _bisect_invert(self, y: Number, tol: float) -> Inversion:
        """Bracketed bisection; bracket [-1, 1] doubled until it straddles y."""
        self.check_in_range(y)
        lo, hi = -1.0, 1.0
        for _ in range(MAX_BISECT):
            if self(lo) <= y:
                break
            lo *= 2
        for _ in range(MAX_BISECT):
            if self(hi) >= y:
                break
            hi *= 2
        if self(lo) > y or self(hi) < y:
            raise RangeError(f"no bracket found for target {y!r} under {self.spec()}")
        for _ in range(MAX_BISECT):
            mid = 0.5 * (lo + hi)
            v = self(mid)
            if abs(v - y) <= tol:
                return Inversion(mid)
            if v < y:
                lo = mid
            else:
                hi = mid
        mid = 0.5 * (lo + hi)
        # a persistent residual means y sits inside a jump gap at mid
        return Inversion(mid, in_gap=abs(self(mid) - y) > tol)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.spec()})"


@dataclass(frozen=True)
class IdentityCurve(MonotoneCurve):
    exact = True

    def __call__(self, x: Number) -> Number:
        return x

    def invert_detailed(self, y: Number, tol: float = INVERT_TOL) -> Inversion:
        return Inversion(y)

    def spec(self) -> str:
        return "identity"


@dataclass(frozen=True)
class LinearCurve(MonotoneCurve):
    slope: Number

    def __post_init__(self) -> None:
        if not self.slope > 0:
            raise ValueError("linear curve needs slope > 0")

    @property
    def exact(self) -> bool:
        return _is_exact(self.slope)

    def __call__(self, x: Number) -> Number:
        return self.slope * x

    def invert_detailed(self, y: Number, tol: float = INVERT_TOL) -> Inversion:
        return Inversion(y / self.slope)

    def spec(self) -> str:
        return f"linear({fmt_number(self.slope)})"


@dataclass(frozen=True)
class ExponentialCurve(MonotoneCurve):
    """u(x) = (1 - e^{-a x}) / a, bounded above by 1/a."""

    a: float

    def __post_init__(self) -> None:
        if not self.a > 0:
            raise ValueError("exponential curve needs risk parameter a > 0")

    def __call__(self, x: Number) -> float:
        z = -self.a * float(x)
        if z > 700.0:  # saturate: exp would overflow; only comparisons see this
            return -math.inf
        return -math.expm1(z) / self.a

    def invert_detailed(self, y: Number, tol: float = INVERT_TOL) -> Inversion:
        self.check_in_range(y)
        return Inversion(-math.log1p(-self.a * float(y)) / self.a)

    def range_sup(self) -> float:
        return 1.0 / self.a

    def spec(self) -> str:
        return f"exp({fmt_number(self.a)})"


@dataclass(frozen=True)
class PowerCurve(MonotoneCurve):
    """Signed power u(x) = sign(x) |x|^p, through the origin."""

    p: float

    def __post_init__(self) -> None:
        if not self.p > 0:
            raise ValueError("power curve needs exponent p > 0")

    def __call__(self, x: Number) -> float:
        xf = float(x)
        return math.copysign(abs(xf) ** self.p, xf) if xf != 0 else 0.0

    def invert_detailed(self, y: Number, tol: float = INVERT_TOL) -> Inversion:
        yf = float(y)
        if yf == 0:
            return Inversion(0.0)
        return Inversion(math.copysign(abs(yf) ** (1.0 / self.p), yf))

    def spec(self) -> str:
        return f"power({fmt_number(self.p)})"


@dataclass(frozen=True)
class PiecewiseLinearCurve(MonotoneCurve):
    """Piecewise-linear curve given by anchors (x, left, value, right).

    Between anchors the curve interpolates linearly from one anchor's right
    limit to the next anchor's left limit; the first and last segment slopes
    extend to -inf and +inf.  Anchors with left < right are jump points.
    """

    anchors: tuple[tuple[Number, Number, Number, Number], ...]

    def __post_init__(self) -> None:
        if len(self.anchors) < 2:
            raise ValueError("piecewise-linear curve needs at least two anchors")
        xs = [a[0] for a in self.anchors]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("anchor abscissae must be strictly increasing")
        for x, l, v, r in self.anchors:
            if not l <= v <= r:
                raise ValueError(f"anchor at {x!r} needs left <= value <= right")

    @property
    def exact(self) -> bool:
        return _is_exact(*(n for anchor in self.anchors for n in anchor))

    @classmethod
    def from_points(
        cls, points: Sequence[Sequence[Number]], strict: bool = True
    ) -> "PiecewiseLinearCurve":
        """Build from (x, y) pairs and (x, left, value, right) jump quadruples."""
        anchors = []
        for pt in points:
            if len(pt) == 2:
                x, y = pt
                anchors.append((x, y, y, y))
            elif len(pt) == 4:
                anchors.append(tuple(pt))
            else:
                raise ValueError("points must be (x,y) or (x,left,value,right)")
        curve = cls(tuple(anchors))
        # a throwaway evaluator, so that building a curve caches none and
        # converts no abscissa
        u0 = _segments(curve.anchors, curve._slopes, tuple(a[0] for a in curve.anchors))(0)
        if abs(u0) > NORM_TOL:
            raise ValueError(f"curve is not normalized: u(0) = {u0!r}")
        if strict:
            for i, s in enumerate(curve._slopes):
                if not s > 0:
                    raise ValueError(f"segment {i} slope {s!r} is not positive")
        return curve

    @cached_property
    def _slopes(self) -> tuple[Number, ...]:
        return tuple(
            (l1 - r0) / (x1 - x0)
            for (x0, _, _, r0), (x1, l1, _, _) in zip(self.anchors, self.anchors[1:])
        )

    @cached_property
    def evaluator(self) -> Callable[[Number], Number]:
        """The curve's one copy of its arithmetic, built on first use."""
        return _piecewise_linear(self.anchors, self._slopes)

    def __call__(self, x: Number) -> Number:
        return self.evaluator(x)

    def __getstate__(self) -> dict:
        # the cached evaluator is a closure, which does not pickle; a copy
        # builds its own on first use
        return {"anchors": self.anchors}

    def invert_detailed(self, y: Number, tol: float = INVERT_TOL) -> Inversion:
        slopes = self._slopes
        first = self.anchors[0]
        if y < first[1]:
            return Inversion(first[0] + (y - first[1]) / slopes[0])
        for i, (x, l, v, r) in enumerate(self.anchors):
            if y <= r:
                # inside this anchor's band [left, right]
                in_gap = r > l and abs(y - v) > tol
                return Inversion(x, in_gap)
            if i + 1 < len(self.anchors) and y < self.anchors[i + 1][1]:
                return Inversion(x + (y - r) / slopes[i])
        last = self.anchors[-1]
        return Inversion(last[0] + (y - last[3]) / slopes[-1])

    def jumps(self) -> tuple[Jump, ...]:
        return tuple(
            Jump(x, l, v, r) for x, l, v, r in self.anchors if r > l
        )

    def spec(self) -> str:
        parts = []
        for x, l, v, r in self.anchors:
            if l == v == r:
                parts.append(f"({fmt_number(x)},{fmt_number(v)})")
            else:
                parts.append(
                    f"({fmt_number(x)},{fmt_number(l)},{fmt_number(v)},{fmt_number(r)})"
                )
        return "pl(" + ",".join(parts) + ")"


def _piecewise_linear(
    anchors: tuple[tuple[Number, Number, Number, Number], ...],
    slopes: tuple[Number, ...],
) -> Callable[[Number], Number]:
    """The evaluator of the piecewise-linear curve with these anchors and
    segment slopes.

    A float argument is compared with the abscissae as floats when every one
    converts exactly, so each comparison gives the exact result without
    converting the argument to a ``Fraction``, and with the abscissae as
    given otherwise.  Exact runs (villa) evaluate curves recovered on the
    ``Fraction`` grid at float certainty equivalents, so every query of their
    oracle searches would otherwise meet ``Fraction`` constants.  On a curve
    with a ``Fraction`` constant, a float argument also does its arithmetic
    on the float images of the abscissae, limits and slopes
    (:func:`~itpref.filtered_space._float_image`), made on the first float
    argument: the operands Python's own mixed arithmetic makes on every
    call, so each result is that arithmetic's bit for bit.  An anchor keeps
    its value, so an anchor hit returns it as given.  A curve with no
    ``Fraction`` constant gets no images and no dispatch."""
    xs = tuple(a[0] for a in anchors)
    float_xs = tuple(map(_float_image, xs))
    at_float = float_xs if float_xs == xs else xs
    if not any(type(n) is Fraction for n in (*slopes, *(n for a in anchors for n in a))):
        # equal to ``xs`` term by term, and Python compares numbers exactly
        return _segments(anchors, slopes, at_float)
    plain = _segments(anchors, slopes, xs)
    on_float = None

    def evaluate(x: Number) -> Number:
        nonlocal on_float
        if type(x) is not float:
            return plain(x)
        if on_float is None:
            images = tuple((fx, _float_image(l), v, _float_image(r)) for fx, (_, l, v, r) in zip(float_xs, anchors))
            on_float = _segments(images, tuple(map(_float_image, slopes)), at_float)
        return on_float(x)

    return evaluate


def _segments(
    anchors: tuple[tuple[Number, Number, Number, Number], ...],
    slopes: tuple[Number, ...],
    at: tuple[Number, ...],
) -> Callable[[Number], Number]:
    """x ↦ the piecewise-linear value on these anchors and segment slopes,
    with ``x`` placed among the abscissae ``at`` by one search."""
    last = len(slopes)  # the last anchor's index

    def evaluate(x: Number) -> Number:
        # at[i] <= x < at[i + 1]; i = -1 left of the first anchor, i = last
        # at or right of the last
        i = bisect_right(at, x) - 1
        if i < 0:
            first = anchors[0]
            return first[1] + slopes[0] * (x - first[0])
        a = anchors[i]
        if x == at[i]:
            return a[2]
        return a[3] + (slopes[i] if i < last else slopes[-1]) * (x - a[0])

    return evaluate


@dataclass(frozen=True)
class ArgScaledCurve(MonotoneCurve):
    """x -> base(b x); the numeraire composition u*(x) = u(x B)."""

    base: MonotoneCurve
    b: Number

    def __post_init__(self) -> None:
        if not self.b > 0:
            raise ValueError("argument scale must be positive")

    @property
    def exact(self) -> bool:
        return self.base.exact and _is_exact(self.b)

    def __call__(self, x: Number) -> Number:
        return self.base(x * self.b)

    def invert_detailed(self, y: Number, tol: float = INVERT_TOL) -> Inversion:
        inner = self.base.invert_detailed(y, tol)
        return Inversion(inner.x / self.b, inner.in_gap)

    def jumps(self) -> tuple[Jump, ...]:
        return tuple(Jump(j.x / self.b, j.left, j.value, j.right) for j in self.base.jumps())

    def range_inf(self) -> float:
        return self.base.range_inf()

    def range_sup(self) -> float:
        return self.base.range_sup()

    def spec(self) -> str:
        return f"ascaled({self.base.spec()},{fmt_number(self.b)})"


@dataclass(frozen=True)
class ValueScaledCurve(MonotoneCurve):
    """x -> k base(x); the density-rescaled utility delta * u."""

    base: MonotoneCurve
    k: Number

    def __post_init__(self) -> None:
        if not self.k > 0:
            raise ValueError("value scale must be positive")

    @property
    def exact(self) -> bool:
        return self.base.exact and _is_exact(self.k)

    def __call__(self, x: Number) -> Number:
        return self.k * self.base(x)

    def invert_detailed(self, y: Number, tol: float = INVERT_TOL) -> Inversion:
        return self.base.invert_detailed(y / self.k, tol)

    def jumps(self) -> tuple[Jump, ...]:
        return tuple(
            Jump(j.x, self.k * j.left, self.k * j.value, self.k * j.right)
            for j in self.base.jumps()
        )

    def range_inf(self) -> float:
        lo = self.base.range_inf()
        return lo if math.isinf(lo) else float(self.k) * lo

    def range_sup(self) -> float:
        hi = self.base.range_sup()
        return hi if math.isinf(hi) else float(self.k) * hi

    def spec(self) -> str:
        return f"vscaled({self.base.spec()},{fmt_number(self.k)})"
