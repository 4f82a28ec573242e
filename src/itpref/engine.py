"""Representation-side machinery for intertemporal preference queries.

A representation is a probability on the terminal states together with a
stochastic dynamic utility field.  It answers: one-step expected-utility
functionals, conditional certainty equivalents (invert the earlier curve on
the conditional expected utility of the later act), tri-partitioned verdicts
"up to null events", the semigroup identity residual, time-consistency, and
the stochastic-discount / numeraire reformulations of the same preference.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .curves import (
    ArgScaledCurve,
    GapError,
    INVERT_TOL,
    MonotoneCurve,
    NORM_TOL,
    RangeError,
    ValueScaledCurve,
)
from .filtered_space import (
    ACT_TOL,
    Act,
    Event,
    FilteredSpace,
    InvariantError,
    Number,
    ProbabilityMeasure,
    _check_act,
    _check_space,
    _is_exact,
    _is_finite,
)
from .utility_field import StarContinuityResult, UtilityField, is_star_continuous


_EXACT_TYPES = frozenset((int, Fraction))


class PreconditionError(ValueError):
    """An operation's stated precondition does not hold."""


@dataclass(frozen=True)
class Representation:
    """A (probability, stochastic dynamic utility) pair on a filtered space.

    The time-0 curve plays the role of the fixed initial utility: it must be
    continuous and vanish at 0.  Star-continuity at later times is *not* a
    construction invariant (negative controls deliberately violate it); the
    theorem-facing suites assert :meth:`star_continuity` up front.
    """

    space: FilteredSpace
    P: ProbabilityMeasure
    field: UtilityField

    def __post_init__(self) -> None:
        _check_space(self.space, self.P, "measure")
        _check_space(self.space, self.field, "field")
        u0 = self.field.curve_on_atom(0, 0)
        if u0.jumps():
            raise InvariantError("initial utility must be continuous")
        if abs(u0(0)) > NORM_TOL:
            raise InvariantError(f"initial utility not normalized: u0(0) = {u0(0)!r}")

    @property
    def u0(self) -> MonotoneCurve:
        return self.field.curve_on_atom(0, 0)

    @property
    def exact(self) -> bool:
        """Whether every weight and every curve parameter is an ``int`` or a
        ``Fraction``."""
        return _is_exact(*self.P.weights) and all(
            curve.exact for row in self.field.curves for curve in row
        )

    def star_continuity(self, i: int | None = None) -> StarContinuityResult:
        indices = range(self.space.n_times) if i is None else [i]
        for j in indices:
            res = is_star_continuous(self.field, self.P, j)
            if not res:
                return res
        return StarContinuityResult(True)


@dataclass(frozen=True)
class TriPartition:
    """Equivalence / strictly-better / strictly-worse events covering the
    positive-probability states at the comparison time."""

    A: Event
    B: Event
    C: Event

    @classmethod
    def of_atoms(
        cls, space: FilteredSpace, i: int, a: list[int], b: list[int], c: list[int]
    ) -> "TriPartition":
        """The partition whose events are the unions of the time-``i`` atoms
        in ``a``, ``b`` and ``c``."""
        return cls(space.union_event(i, a), space.union_event(i, b), space.union_event(i, c))


@dataclass(frozen=True)
class Verdict:
    """Outcome of a conditional comparison, with its witnessing tri-partition.

    Tags: ``equiv`` (B and C null), ``succeq`` (C null, B essential),
    ``preceq`` (B null, C essential), ``mixed`` (both essential).
    """

    tag: str
    tri: TriPartition
    margin: Act  # u(s, g) - E[u(t, f) | F_s], one value per time-s atom

    @property
    def holds_succeq(self) -> bool:
        return self.tag in ("succeq", "equiv")

    @property
    def holds_preceq(self) -> bool:
        return self.tag in ("preceq", "equiv")


def expected_utility(rep: Representation, s: int, t: int, f: Act, k: int) -> Number:
    """E[u(t, f) | A] on time-``s`` atom A = ``k`` alone, summed left to right
    as ``conditional_expectation`` sums it; 0 on a null atom.  On a measure
    with a ``Fraction`` weight the atom's utilities are evaluated first.
    When none is a float and the atom's mass is exact, the mean is folded
    on integer numerators and denominators (:func:`_exact_mean`), which
    gives the plain sum's value and type; otherwise an exact weight or mass
    meets a float through its float image, per term, so the sum is the
    plain one bit for bit."""
    _check_act(rep.space, f, t, PreconditionError)
    if s > t:
        raise InvariantError(f"cannot condition a time-{t} act on later time index {s}")
    try:
        row = rep.field.evaluators_by_state[t]
    except IndexError:
        rep.space.check_time_index(t)  # raises with the range of time indices
        raise
    P = rep.P
    mass = P.atom_masses(s)[k]
    if not mass > 0:
        return 0
    weights, images, values = P.weights, P._weight_images, f.values
    value = 0
    if images is weights:  # no Fraction weight or mass: the plain sum, no per-term test
        for x in rep.space.partitions[s][k]:
            value += weights[x] * row[x](values[x])
        value /= mass
    else:
        atom = rep.space.partitions[s][k]
        ys = [row[x](values[x]) for x in atom]
        if type(mass) is not float and _EXACT_TYPES.issuperset(map(type, ys)):
            value = _exact_mean(atom, weights, ys, mass)
        else:
            for x, y in zip(atom, ys):
                value += (images[x] if type(y) is float else weights[x]) * y
            value /= P._atom_mass_images[s][k] if type(value) is float else mass
    if not _is_finite(value):
        raise InvariantError("act values must be finite")
    return value


def _exact_mean(atom: tuple[int, ...], weights: tuple[Number, ...], ys: list[Number], mass: Number) -> Number:
    """Σ w·y / mass over the atom's states, for ``int`` or ``Fraction``
    weights, utilities ``ys`` and mass, folded on integer numerators and
    denominators: Python's own exact value and type, normalized once.  An
    all-``int`` sum over an ``int`` mass is divided as Python divides it,
    into a float."""
    n, d = 0, 1
    for x, y in zip(atom, ys):
        w = weights[x]
        term_d = w.denominator * y.denominator
        if term_d == d:
            n += w.numerator * y.numerator
        else:
            n = n * term_d + w.numerator * y.numerator * d
            d *= term_d
    if type(mass) is int and all(type(y) is int for y in ys):
        return n / mass  # every weight of an int mass is an int, so n is the sum
    return Fraction(n * mass.denominator, d * mass.numerator)


def expected_utility_profile(rep: Representation, s: int, t: int, f: Act) -> Act:
    """E[u(t, f) | F_s] for arbitrary grid times s <= t."""
    space = rep.space
    per_atom = [expected_utility(rep, s, t, f, k) for k in range(space.n_atoms(s))]
    return Act.from_atom_values(space, s, per_atom, rep.P.null_atoms(s))


def cce(rep: Representation, s: int, t: int, f: Act, tol: float = INVERT_TOL) -> Act:
    """Conditional certainty equivalent of the time-t act f, valued at time s.

    Atom-wise inversion of the time-s curve on E[u(t,f)|F_s]; zero-probability
    atoms are filled with 0 and flagged.  A target outside a curve's range is
    a hard error (the representation's side condition fails), as is a target
    inside a jump gap.
    """
    _check_times(rep.space, s, t)
    per_atom: list[Number] = [0] * rep.space.n_atoms(s)
    for k in rep.P.positive_atoms(s):
        y = expected_utility(rep, s, t, f, k)
        curve = rep.field.curve_on_atom(s, k)
        try:
            inv = curve.invert_detailed(y, tol)
        except RangeError as exc:
            raise RangeError(
                f"atom {rep.space.atom_label(s, k)} at time index {s}: {exc}"
            ) from None
        if inv.in_gap:
            raise GapError(
                f"conditional expected utility {y!r} falls in a jump gap of "
                f"{curve.spec()} on atom {rep.space.atom_label(s, k)}"
            )
        per_atom[k] = inv.x
    return Act.from_atom_values(rep.space, s, per_atom, rep.P.null_atoms(s))


def _check_times(space: FilteredSpace, s: int, t: int) -> None:
    """``s`` and ``t`` must be time indices with ``0 <= s < t``."""
    if not 0 <= s < t <= space.last_index:
        raise PreconditionError(f"need time indices 0 <= s < t, got s={s}, t={t}")


def margins(rep: Representation, s: int, t: int, g: Act, f: Act) -> list[Number]:
    """u(s, g) - E[u(t, f) | A] on each time-``s`` atom A, in atom order: the
    atom's curve at g's value there, minus :func:`expected_utility`."""
    _check_act(rep.space, g, s, PreconditionError)
    row = rep.field.evaluators_by_state[rep.space.check_time_index(s)]
    return [
        row[atom[0]](g.values[atom[0]]) - expected_utility(rep, s, t, f, k)
        for k, atom in enumerate(rep.space.partitions[s])
    ]


def compare(
    rep: Representation, s: int, t: int, g: Act, f: Act, tol: float = ACT_TOL
) -> Verdict:
    """Tri-partitioned verdict for "g at time s versus f at time t".

    Atoms with |margin| <= tol count as equivalent so that inversion noise
    never flips a tie; zero-probability atoms are left unclassified.
    """
    _check_times(rep.space, s, t)
    margin = margins(rep, s, t, g, f)
    tag, a, b, c = classify(rep.P, s, margin, tol)
    tri = TriPartition.of_atoms(rep.space, s, a, b, c)
    return Verdict(tag, tri, Act.from_atom_values(rep.space, s, margin))


def classify(
    P: ProbabilityMeasure, s: int, margin: Sequence[Number], tol: float
) -> tuple[str, list[int], list[int], list[int]]:
    """(tag, equivalent, better, worse) time-``s`` atoms, from ``margin[k]``
    on each positive atom ``k``: |margin| <= tol is equivalent, else better
    or worse by its sign.  A float ``tol`` meets exact margins as its exact
    value, the ``Fraction`` each comparison would convert it to, made once
    per call (an infinite ``tol`` has none and stays as given)."""
    if type(tol) is float and math.isfinite(tol) and any(type(d) is Fraction for d in margin):
        tol = Fraction(tol)
    a: list[int] = []
    b: list[int] = []
    c: list[int] = []
    for k in P.positive_atoms(s):
        d = margin[k]
        if abs(d) <= tol:
            a.append(k)
        elif d > tol:
            b.append(k)
        else:
            c.append(k)
    return ("mixed" if c else "succeq") if b else ("preceq" if c else "equiv"), a, b, c


def semigroup_residual(
    rep: Representation, s: int, t: int, v: int, f: Act, tol: float = INVERT_TOL
) -> float:
    """Sup-norm gap between the direct CCE over s..v and the nested
    s..t of t..v CCE, over positive-probability states."""
    if not s < t < v:
        raise PreconditionError(f"need s < t < v, got {s}, {t}, {v}")
    direct = cce(rep, s, v, f, tol)
    nested = cce(rep, s, t, cce(rep, t, v, f, tol), tol)
    return direct.sup_dist(nested, rep.P)


def time_consistency_check(
    rep: Representation, s: int, t: int, v: int, g: Act, f: Act, tol: float = ACT_TOL
) -> bool:
    """Whether the s..v verdict between g and f survives replacing f by its
    time-t certainty equivalent.  Mixed verdicts violate the precondition."""
    if not s < t < v:
        raise PreconditionError(f"need s < t < v, got {s}, {t}, {v}")
    _check_times(rep.space, s, v)
    before = _tag(rep, s, v, g, f, tol)
    if before == "mixed":
        raise PreconditionError("time-consistency check needs a one-sided verdict")
    h = cce(rep, t, v, f)
    return _tag(rep, s, t, g, h, tol) == before


def _tag(rep: Representation, s: int, t: int, g: Act, f: Act, tol: float) -> str:
    """``compare(rep, s, t, g, f, tol).tag`` for valid ``s < t``, read from
    :func:`classify` with no tri-partition or margin act built; a margin
    that is not finite raises as that act would."""
    margin = margins(rep, s, t, g, f)
    if not all(map(_is_finite, margin)):
        raise InvariantError("act values must be finite")
    return classify(rep.P, s, margin, tol)[0]


@dataclass(frozen=True)
class DiscountResult:
    betas: tuple[Act, ...]
    verified: bool
    pairs_checked: int
    flips: int


def density_process(rep: Representation, P_star: ProbabilityMeasure) -> tuple[Act, ...]:
    """beta_t = E_{P*}[dP/dP* | F_t] atom-wise: the conditional density
    P(atom)/P*(atom) per time.  Common-null atoms carry the neutral value 1,
    flagged as filled."""
    _check_space(rep.space, P_star, "P*")
    if not rep.P.is_equivalent_to(P_star):
        raise InvariantError("stochastic discount factor requires a measure equivalent on the terminal atoms")
    betas = []
    for i in range(rep.space.n_times):
        per_atom = [
            p / q if q > 0 else 1
            for p, q in zip(rep.P.atom_masses(i), P_star.atom_masses(i))
        ]
        betas.append(Act.from_atom_values(rep.space, i, per_atom, P_star.null_atoms(i)))
    return tuple(betas)


def check_pair_count(n_pairs: int) -> None:
    """A randomized verdict audit must check at least one pair: over none it
    would report success without evidence."""
    if n_pairs < 1:
        raise PreconditionError(f"need at least one pair to audit, got n_pairs={n_pairs}")


def _random_pair(
    rng: random.Random, space: FilteredSpace, hull: float = 2
) -> tuple[int, int, Act, Act]:
    """(s, t, g, f): random time indices s < t and acts g at s, f at t, with
    values uniform on [-hull, hull], one per atom."""
    s = rng.randrange(0, space.last_index)
    t = rng.randrange(s + 1, space.last_index + 1)
    g, f = (
        Act.from_atom_values(space, i, [rng.uniform(-hull, hull) for _ in range(space.n_atoms(i))])
        for i in (s, t)
    )
    return s, t, g, f


def _transformed(
    rep: Representation, P: ProbabilityMeasure,
    curve_at: Callable[[int, int, MonotoneCurve], MonotoneCurve],
) -> Representation:
    """The representation on ``rep``'s space under ``P`` whose curve on each
    time-``i`` atom ``k`` is ``curve_at(i, k, u)``, u being ``rep``'s curve
    there: a change of measure or of numeraire, as a representation."""
    return Representation(rep.space, P, UtilityField(rep.space, tuple(
        tuple(curve_at(i, k, u) for k, u in enumerate(row)) for i, row in enumerate(rep.field.curves)
    )))


def _scaled(kind: type, curve: MonotoneCurve, b: Number) -> MonotoneCurve:
    """``kind(curve, b)``, or ``curve`` itself where ``b == 1``."""
    return curve if b == 1 else kind(curve, b)


def _discounted(rep: Representation, P: ProbabilityMeasure, betas: Sequence[Act]) -> Representation:
    """(P, beta u) for an equivalent measure ``P``: ``rep``'s curves rescaled
    by the density ``betas[i]`` on each time-i atom, time 0 included."""
    return _transformed(rep, P, lambda i, k, u: _scaled(ValueScaledCurve, u, betas[i].value_on_atom(k)))


def _flips(
    rep: Representation, rep_star: Representation, n_pairs: int, seed: int, tol: float,
    rebase: Callable[[int, Act], Act] = lambda i, act: act,
) -> int:
    """Of ``n_pairs`` random pairs (s, t, g, f), those on which ``rep`` and
    ``rep_star`` give different ``compare`` tags (:func:`_tag`),
    ``rep_star`` comparing the acts as ``rebase`` maps them at their
    times."""
    rng = random.Random(seed)
    flips = 0
    for _ in range(n_pairs):
        s, t, g, f = _random_pair(rng, rep.space)
        original = _tag(rep, s, t, g, f, tol)
        if _tag(rep_star, s, t, rebase(s, g), rebase(t, f), tol) != original:
            flips += 1
    return flips


def discount_transform(
    rep: Representation,
    P_star: ProbabilityMeasure,
    n_pairs: int = 100,
    seed: int = 0,
    tol: float = ACT_TOL,
) -> DiscountResult:
    """Stochastic discount factor for evaluating the same preference under an
    equivalent subjective measure, plus a randomized verdict-preservation
    audit of the identity  beta_s u(s,g) >= E_{P*}[beta_t u(t,f) | F_s]:
    ``compare`` on (P*, beta u) against ``compare`` on ``rep``."""
    check_pair_count(n_pairs)
    betas = density_process(rep, P_star)
    flips = _flips(rep, _discounted(rep, P_star, betas), n_pairs, seed, tol)
    return DiscountResult(betas, flips == 0, n_pairs, flips)


@dataclass(frozen=True)
class NumeraireResult:
    rep: Representation
    verified: bool
    pairs_checked: int
    flips: int


def numeraire_transform(
    rep: Representation,
    numeraire: tuple[Act, ...] | list[Act],
    n_pairs: int = 100,
    seed: int = 0,
    tol: float = ACT_TOL,
) -> NumeraireResult:
    """Rebase the utility field on a strictly positive numeraire process:
    u*(t, x) = u(t, x * B_t), with verdicts on discounted acts audited against
    the original ones on a randomized test grid."""
    check_pair_count(n_pairs)
    space = rep.space
    if len(numeraire) != space.n_times:
        raise InvariantError("one numeraire act per time label required")
    for i, b in enumerate(numeraire):
        _check_space(space, b, "numeraire")
        if b.time_index > i:
            raise InvariantError(f"numeraire at time index {i} is not F_{i}-measurable")
        if min(b.values) <= 0:
            raise InvariantError("numeraire must be strictly positive")
    numeraire = [b.at_time(i) for i, b in enumerate(numeraire)]  # B_i read per time-i atom
    rep_star = _transformed(
        rep, rep.P, lambda i, k, u: _scaled(ArgScaledCurve, u, numeraire[i].value_on_atom(k))
    )

    def rebase(i: int, act: Act) -> Act:
        return Act(space, i, tuple(a / b for a, b in zip(act.values, numeraire[i].values)))

    flips = _flips(rep, rep_star, n_pairs, seed, tol, rebase)
    return NumeraireResult(rep_star, flips == 0, n_pairs, flips)
