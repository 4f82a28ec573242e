"""Preference oracles: the abstract query interface and the induced oracle.

An oracle answers conditional one-step comparisons "g at t_i versus f at
t_{i+1}, restricted to an event A known at t_i" with a (holds_succeq,
holds_preceq) pair.  The contract every oracle keeps: answers are
deterministic, and an answer on A depends only on g and f on A (a
conditional comparison sees nothing outside its event).  The induced oracle
reads the answers off a representation; hand-corrupted oracles used as
negative controls live in :mod:`itpref.controls`.  The base class holds the
event rule every oracle keeps, :meth:`PreferenceOracle._check_event`: an
event of another space is refused on every call, and one not known at t_i
once per (i, A's states).

Also here: constant-act bisection (the workhorse of both axiom checking and
recovery) and oracle-level null-atom detection.  :func:`_margin_search` is
the one probe, bracket and bisection loop, on a numeric margin m(c) of
c·1_A against f·1_A and a band: c·1_A >= f·1_A when m(c) >= -band, <= when
m(c) <= band, and a NaN margin holds neither side.  ``search_atom`` runs it
on one time-i atom A: the base class on ``ask``'s answers, one query per
answer, each mapped to 0 (equivalent), +1, -1 or NaN (undecided) against
band 0; the induced oracle on the atom's curve minus f's conditional
expected utility on that atom, against its ``tol``, with the answers
``query`` would give and the same ``queries`` count.  A subclass that
overrides ``query`` or ``ask`` takes the base class's search, except the
intransitive-band control (:mod:`itpref.controls`), which keeps the induced
kernel for every search but its designated act's at step 0.  ``queries``
counts only queries actually asked: a memo hit asks none.

``atom_certainty_equivalents`` searches each atom of a level in index order,
up to the first bracket failure, which it raises.  By the contract an atom's
certainty equivalent depends only on f on that atom, so
:func:`_atom_certainty_equivalent`, the one memo rule, which recovery also
calls atom by atom, stores each atom's search on the oracle under f's
values on that atom, the bracket failures with the rest, and never repeats
it.  A search stops when its bracket is ``tol`` wide or its ends are
adjacent floats; ``tol`` must be finite and >= 0.

On a piecewise-linear curve whose data are plain floats (and ints equal to
their float images), the induced kernel certifies the segment its answer
turns on: inside one open segment (a, b) the float evaluator computes
fl(r + fl(s·fl(c - x0))) with one slope s > 0, and round-to-nearest is
monotone, so fl(that - value) >= -band is a nondecreasing step of c.  An
identity curve (c) and a linear curve with a float slope (fl(slope·c)) are
each one such segment, (-inf, inf).  The kernel finds its step t, the first
float at which the margin holds, by evaluating the margin near the segment's
affine crossing estimate, and keeps t only when t and the float below it
both lie strictly inside (a, b).  The bisection then answers a midpoint
inside (a, b) by ``mid >= t``, the evaluator's own answer bit for bit, and
evaluates every other one; the certificate changes no answer, result or
``queries`` count, and ``queries`` still counts every bisection answer.
``Fraction`` curves, a linear curve with an exact slope, other curve kinds,
subclasses of the three certified kinds and the base class's search get no
certificate.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from math import inf, isfinite, nan, nextafter
from typing import Callable, NamedTuple

from .curves import IdentityCurve, LinearCurve, PiecewiseLinearCurve
from .engine import Representation, expected_utility
from .filtered_space import ACT_TOL, Act, Event, FilteredSpace, Number, _check_space, _float_image

BRACKET_LIMIT = 2.0**40  # constants beyond this mean local non-degeneracy failed
INSENSITIVITY_PROBE = 2.0**20  # the huge and tiny constants an insensitive atom ignores
_UNSEARCHED = object()  # an atom memo miss: None means insensitive
_WALK = 4  # adjacent floats a certificate's walk steps at most
_NO_CERTIFICATE = (inf, inf, inf)  # no midpoint exceeds inf, so none is certified
# the curve kinds whose ``_crossing`` describes their own evaluator; the type
# must match exactly, since a subclass may override ``__call__`` or ``evaluator``
_CERTIFIED = (PiecewiseLinearCurve, IdentityCurve, LinearCurve)


class BracketError(RuntimeError):
    """No indifference bracket found; the oracle is locally degenerate."""


class QueryAnswer(NamedTuple):
    succeq: bool
    preceq: bool

    @property
    def equiv(self) -> bool:
        return self.succeq and self.preceq

    @property
    def undecided(self) -> bool:
        return not (self.succeq or self.preceq)


# the four answers, indexed [succeq][preceq], so per-atom answers build none
_ANSWERS = (
    (QueryAnswer(False, False), QueryAnswer(False, True)),
    (QueryAnswer(True, False), QueryAnswer(True, True)),
)


class PreferenceOracle(ABC):
    """Query interface for one-step intertemporal comparisons; atoms per
    time come from ``space``."""

    exact = False  # whether recovery keeps an exact grid exact

    def __init__(self, space: FilteredSpace) -> None:
        self.space = space
        self.queries = 0
        self._cce_memo: dict = {}
        # one entry per atom search: its constant, None (insensitive) or its
        # BracketError message
        self._atom_memo: dict = {}
        self._known: set = set()  # the (i, A's states) found known at t_i

    def steps(self) -> range:
        """Supported step indices i for the (i, i+1) relation."""
        return range(self.space.n_times - 1)

    def ask(self, i: int, g: Act, f: Act, A: Event | None = None) -> QueryAnswer:
        self.queries += 1
        return self.query(i, g, f, A)

    def search_atom(self, i: int, f: Act, k: int, tol: float) -> float | str | None:
        """:func:`_margin_search` on time-``i`` atom A = ``k`` through
        ``ask``, one query per answer: the constant c with c·1_A ~ f·1_A,
        None when A is insensitive, or the bracket failure's message."""
        A = self.space.atom_events(i)[k]
        return _margin_search(_margins_on(self, i, f, A), 0.0, 0.0, tol, i, A)

    @abstractmethod
    def query(self, i: int, g: Act, f: Act, A: Event | None = None) -> QueryAnswer:
        """Answer g·1_A vs f·1_A for the relation between t_i and t_{i+1}."""

    def _check_event(self, i: int, A: Event) -> None:
        """The event rule of every oracle in the library: ``A`` must live on
        this space, tested on every call (identity first, then equality),
        and be known at t_i, a union of time-``i`` atoms, checked once per
        (i, A's states)."""
        if A.space is not self.space:
            _check_space(self.space, A, "event")
        key = (i, A.members)
        if key not in self._known:
            Event(self.space, A.members, i)
            self._known.add(key)


class InducedOracle(PreferenceOracle):
    """Oracle induced by a representation: g·1_A >= f·1_A iff the utility
    margin is nonnegative on every positive-probability atom inside A, with a
    symmetric tolerance band so ties answer both ways; a NaN margin holds
    neither side."""

    def __init__(self, rep: Representation, tol: float = ACT_TOL) -> None:
        super().__init__(rep.space)
        self.rep = rep
        self.tol = tol
        self._value_memo: dict = {}
        self._query_atoms: dict = {}

    @property
    def exact(self) -> bool:
        """:attr:`Representation.exact` of the representation answering."""
        return self.rep.exact

    def __getstate__(self) -> dict:
        # the cached curve evaluators can be closures, which do not pickle
        return {**self.__dict__, "_query_atoms": {}}

    def value_profile(self, i: int, f: Act) -> tuple[Number, ...]:
        """Per-atom E[u(t_{i+1}, f) | F_{t_i}] at time index i, memoized: bit
        for bit ``expected_utility_profile(rep, i, i + 1, f).atom_values()``.
        :meth:`query` reads the memo itself and calls this only on a miss."""
        key = (i, f.time_index, f.values)
        hit = self._value_memo.get(key)
        if hit is None:
            hit = tuple([expected_utility(self.rep, i, i + 1, f, k) for k in range(self.space.n_atoms(i))])
            self._value_memo[key] = hit
        return hit

    def query(self, i: int, g: Act, f: Act, A: Event | None = None) -> QueryAnswer:
        # value_profile's memo, read here so that a hit makes no call
        values = self._value_memo.get((i, f.time_index, f.values))
        if values is None:
            values = self.value_profile(i, f)
        # (atom, first state, curve evaluator) of each positive atom inside A,
        # per (i, A's states); the table is keyed by A's states alone, so A's
        # space is checked on every call that is not a hit on this space
        key = (i, None if A is None else A.members)
        atoms = self._query_atoms.get(key)
        if A is not None and (atoms is None or A.space is not self.space):
            self._check_event(i, A)
        if atoms is None:
            field, part = self.rep.field, self.space.partitions[i]
            atoms = self._query_atoms[key] = tuple(
                (k, part[k][0], field.curve_on_atom(i, k).evaluator)
                for k in self.rep.P.positive_atoms(i)
                if A is None or part[k][0] in A.members
            )
        gv, tol = g.values, self.tol
        succ = prec = True
        for k, first, curve in atoms:
            d = curve(gv[first]) - values[k]
            if not d >= -tol:
                succ = False
            if not d <= tol:
                prec = False
            if not succ and not prec:
                break
        return _ANSWERS[succ][prec]

    def search_atom(self, i: int, f: Act, k: int, tol: float) -> float | str | None:
        """:meth:`PreferenceOracle.search_atom` on :meth:`query`'s answers,
        taken from atom ``k``'s curve and ``expected_utility`` alone, with no
        act or event built.  A subclass that overrides ``query`` or ``ask``
        gets the base class's search, unless it keeps this kernel where its
        ``query`` agrees, as :class:`~itpref.controls.IntransitiveBandOracle`
        does."""
        cls = type(self)
        if cls.query is not InducedOracle.query or cls.ask is not PreferenceOracle.ask:
            return super().search_atom(i, f, k, tol)
        return self._kernel_search(i, f, k, tol)

    def _kernel_search(self, i: int, f: Act, k: int, tol: float) -> float | str | None:
        """:func:`_margin_search` on atom ``k``'s curve minus f's expected
        utility on it, against the band ``self.tol``: the answers
        :meth:`query` gives, for any subclass whose ``query`` agrees on that
        atom.  ``queries`` gains the answers asked once, also when a curve
        evaluation raises.  On a :class:`PiecewiseLinearCurve` of plain
        float data, an :class:`IdentityCurve` or a :class:`LinearCurve` with
        a float slope (the exact type, not a subclass) it certifies the
        segment the margin crosses, from the curve's ``_crossing`` and
        :func:`_certify`, and passes the certificate to the bisection, which
        answers inside it by one comparison; the walk's evaluations are no
        answers and count as no queries."""
        value = expected_utility(self.rep, i, i + 1, f, k)
        if not self.rep.P.atom_masses(i)[k] > 0:
            self.queries += 2  # as ``query``, the probe's constants answer both ways
            return None
        atom_curve = self.rep.field.curve_on_atom(i, k)
        curve = atom_curve.evaluator
        margin, level, band = curve, value, self.tol  # the answer to c is margin(c) - value against the band
        if type(value) is not float:
            # a float utility meets an exact value through its float image,
            # an anchor hit's exact utility meets the value itself
            image, exact = _float_image(value), value

            def margin(c: float) -> Number:
                y = curve(c)
                return y - (image if type(y) is float else exact)

            value, level = 0, image
        certificate = None
        if type(atom_curve) in _CERTIFIED and type(level) is float:
            # the float utility at which the answer turns; an exact value
            # beyond the float range has no float level
            span = atom_curve._crossing(level - band)
            if span is not None:
                certificate = _certify(span, margin, value, band)
        return _margin_search(margin, value, band, tol, i, self.space.atom_events(i)[k], self, certificate)


def _certify(
    span: tuple[Number, Number, float], margin: Callable[[float], Number], value: Number, band: float
) -> tuple[Number, Number, float] | None:
    """The certificate (a, b, t) of the crossing ``span`` = (a, b, x̂): t is
    the first float at which ``margin(c) - value >= -band`` holds, found by
    evaluating the margin at x̂ and walking at most ``_WALK`` adjacent floats
    from it, and both t and the float just below it lie strictly inside
    (a, b).  None when the walk exceeds its cap or leaves (a, b)."""
    a, b, t = span
    if margin(t) - value >= -band:
        for _ in range(_WALK):
            below = nextafter(t, -inf)
            if not margin(below) - value >= -band:
                break
            t = below
        else:
            return None
    else:
        for _ in range(_WALK):
            below, t = t, nextafter(t, inf)
            if margin(t) - value >= -band:
                break
        else:
            return None
    return (a, b, t) if a < below and t < b else None


def _margins_on(oracle: PreferenceOracle, i: int, f: Act, A: Event) -> Callable[[float], float]:
    """c ↦ the margin of ``oracle.ask``'s answer to c·1_A vs f·1_A against
    band 0: 0 equivalent, +1 succeq only, -1 preceq only, NaN undecided.
    ``c`` must be finite, as every constant :func:`_margin_search` asks is,
    so each query's act is built unvalidated once ``i`` is checked."""
    space = oracle.space
    n = space.n_states
    space.check_time_index(i)

    def margin(c: float) -> float:
        succeq, preceq = oracle.ask(i, Act._trusted(space, i, (c,) * n), f, A)
        if succeq:
            return 0.0 if preceq else 1.0
        return -1.0 if preceq else nan

    return margin


def _margin_search(
    margin: Callable[[float], Number],
    value: Number,
    band: float,
    tol: float,
    i: int,
    A: Event,
    counter: PreferenceOracle | None = None,
    certificate: tuple[Number, Number, float] | None = None,
) -> float | str | None:
    """The constant c with c·1_A ~ f·1_A on the time-``i`` event A, where
    m(c) = ``margin(c) - value`` holds c·1_A >= f·1_A when m(c) >= -band
    and c·1_A <= f·1_A when m(c) <= band (a NaN holds neither).  None when
    the probe's huge and tiny constants both compare both ways (A is
    insensitive); else each end of the bracket doubles from [-1, 1] until
    it holds its side, up to ``BRACKET_LIMIT`` (or the result is the
    failure's message), and the bisected upper end converges to
    inf{c : c·1_A >= f·1_A}.  The bisection stops when the bracket is at
    most ``tol`` wide or an answer would leave it unchanged, its ends being
    adjacent floats.  ``counter.queries``, if given, gains the margins
    asked once, also when ``margin`` raises.  A ``certificate`` (a, b, t)
    from :func:`_certify` answers each bisection midpoint strictly inside
    (a, b) by ``mid >= t`` in place of a margin evaluation, the same answer
    bit for bit; every other midpoint, the probe and the bracket evaluate
    ``margin`` as without one, and every answer counts as a query."""
    a, b, t = certificate or _NO_CERTIFICATE
    asked = 1
    try:
        huge = margin(INSENSITIVITY_PROBE) - value
        asked = 2
        tiny = margin(-INSENSITIVITY_PROBE) - value
        if huge <= band and tiny >= -band:
            return None
        hi, asked = 1.0, 3
        while not margin(hi) - value >= -band:
            hi *= 2
            if hi > BRACKET_LIMIT:
                return f"no upper bracket on {A.label()} at step {i}"
            asked += 1
        lo = -1.0
        asked += 1
        while not margin(lo) - value <= band:
            lo *= 2
            if lo < -BRACKET_LIMIT:
                return f"no lower bracket on {A.label()} at step {i}"
            asked += 1
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            asked += 1
            if mid >= t if a < mid < b else margin(mid) - value >= -band:
                if mid == hi:
                    break
                hi = mid
            elif mid == lo:
                break
            else:
                lo = mid
        return hi
    finally:
        if counter is not None:
            counter.queries += asked


def _check_tol(tol: float) -> None:
    """A search ``tol`` must be finite and >= 0, the CLI's rule for
    tolerances: a NaN or infinite one would end the bisection at once."""
    if not (tol >= 0 and isfinite(tol)):
        raise ValueError(f"search tol must be finite and >= 0, got {tol!r}")


def indifference_constant(
    oracle: PreferenceOracle, i: int, f: Act, A: Event, tol: float = 1e-9
) -> float | None:
    """The constant c with c·1_A ~ f·1_A on the time-``i`` event A by
    :func:`_margin_search` through ``ask``, or None when A is insensitive
    (as a null event is); raises :class:`BracketError` when a bracket end
    fails."""
    _check_tol(tol)
    c = _margin_search(_margins_on(oracle, i, f, A), 0.0, 0.0, tol, i, A)
    if type(c) is str:
        raise BracketError(c)
    return c


def atom_certainty_equivalents(
    oracle: PreferenceOracle, i: int, f: Act, tol: float = 1e-9
) -> list[float | None]:
    """Per-atom certainty equivalent of f at time index i, from oracle
    queries alone: one constant c_k with c_k·1_A ~ f·1_A per time-``i`` atom
    A, in atom order, or None for an insensitive (null-behaving) atom.

    The atoms are searched one after another, each to its end by
    :meth:`~PreferenceOracle.search_atom` (the induced oracle's one-loop
    kernel, or the base class's search through ``ask`` for an oracle that
    overrides ``query`` or ``ask``), and each search is memoized on the
    oracle under ``f``'s values on that atom, a bracket failure as its
    message: an atom whose restriction was searched before asks no query.
    The first atom that fails to bracket stops the search: its failure is
    raised as a fresh :class:`BracketError`, and the atoms above it are not
    searched.  ``tol`` must be finite and >= 0 (a ``ValueError`` else)."""
    _check_tol(tol)
    values = f.values
    return [
        _atom_certainty_equivalent(oracle, i, f, k, pick(values), tol)
        for k, pick in enumerate(oracle.space.atom_pickers(i))
    ]


def _atom_certainty_equivalent(
    oracle: PreferenceOracle, i: int, f: Act, k: int, on_atom: object, tol: float
) -> float | None:
    """The certainty equivalent of f on time-``i`` atom ``k``, where
    ``on_atom`` is f's values on that atom as the atom's picker returns
    them: the search stored on the oracle under (i, k, f's time index,
    ``on_atom``, ``tol``), or on a miss :meth:`~PreferenceOracle.search_atom`'s,
    stored there, a bracket failure as its message.  A failure, stored or
    fresh, is raised as a fresh :class:`BracketError`.  The one memo rule
    of :func:`atom_certainty_equivalents` and of recovery's per-atom terms;
    ``tol`` is checked by the caller."""
    key = (i, k, f.time_index, on_atom, tol)
    memo = oracle._atom_memo
    c = memo.get(key, _UNSEARCHED)
    if c is _UNSEARCHED:
        c = memo[key] = oracle.search_atom(i, f, k, tol)
    if type(c) is str:
        raise BracketError(c)
    return c


def indifference_profile(
    oracle: PreferenceOracle, i: int, f: Act, tol: float = 1e-9
) -> Act:
    """Atom-wise certainty equivalent of f at time index i, from oracle
    queries alone, as a time-``i`` act: :func:`atom_certainty_equivalents`
    with insensitive atoms filled with 0 and flagged, mirroring the
    conditional-expectation convention.  Completed profiles are memoized
    whole on the oracle under ``f``'s values."""
    key = (i, f.time_index, f.values, tol)
    hit = oracle._cce_memo.get(key)
    if hit is not None:
        return hit
    found = atom_certainty_equivalents(oracle, i, f, tol)
    per_atom = [0 if c is None else c for c in found]
    insensitive = [k for k, c in enumerate(found) if c is None]
    act = Act.from_atom_values(oracle.space, i, per_atom, insensitive)
    oracle._cce_memo[key] = act
    return act
