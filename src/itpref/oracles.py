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

``atom_answers`` returns the answer function c ↦ (c·1_A vs f·1_A) of one
time-i atom A, one query per call: the base class answers through ``ask``,
the induced oracle from the atom's curve and f's conditional expected
utility on that atom alone.  A subclass that overrides ``query`` or ``ask``
falls back to the base class's path, except the intransitive-band control
(:mod:`itpref.controls`), which keeps the induced kernel for every search
but its designated act's at step 0.  ``queries`` counts only queries
actually asked: a memo hit asks none.

Also here: constant-act bisection (the workhorse of both axiom checking and
recovery) and oracle-level null-atom detection, one search body that probes,
brackets and bisects on an answer function.  ``indifference_profile`` runs
it on each atom of a level in index order, up to the first bracket failure,
which it raises; by the contract an atom's certainty equivalent depends only
on f on that atom, so it stores each atom's search on the oracle, the
bracket failures with the rest, and never repeats it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, NamedTuple

from .engine import Representation, expected_utility
from .filtered_space import ACT_TOL, Act, Event, FilteredSpace, Number, _check_space, _float_image

BRACKET_LIMIT = 2.0**40  # constants beyond this mean local non-degeneracy failed
INSENSITIVITY_PROBE = 2.0**20  # the huge and tiny constants an insensitive atom ignores
_UNSEARCHED = object()  # an atom memo miss: None means insensitive


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

Answer = Callable[[float], QueryAnswer]


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

    def atom_answers(self, i: int, f: Act, k: int) -> Answer:
        """The answer function of time-``i`` atom ``k``: c ↦ c·1_A vs f·1_A,
        with A that atom, one query per call."""
        return _answers_on(self, i, f, self.space.atom_events(i)[k])

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
    symmetric tolerance band so ties answer both ways."""

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
        for bit ``expected_utility_profile(rep, i, i + 1, f).atom_values()``."""
        key = (i, f.time_index, f.values)
        hit = self._value_memo.get(key)
        if hit is None:
            hit = tuple([expected_utility(self.rep, i, i + 1, f, k) for k in range(self.space.n_atoms(i))])
            self._value_memo[key] = hit
        return hit

    def query(self, i: int, g: Act, f: Act, A: Event | None = None) -> QueryAnswer:
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
            if d < -tol:
                succ = False
            if d > tol:
                prec = False
            if not succ and not prec:
                break
        return _ANSWERS[succ][prec]

    def atom_answers(self, i: int, f: Act, k: int) -> Answer:
        """:meth:`query`'s answers on atom ``k`` from its curve and
        ``expected_utility`` alone, with no act or event built.  A
        subclass that overrides ``query`` or ``ask`` gets the base class's,
        unless it keeps this kernel where its ``query`` agrees, as
        :class:`~itpref.controls.IntransitiveBandOracle` does."""
        cls = type(self)
        if cls.query is not InducedOracle.query or cls.ask is not PreferenceOracle.ask:
            return super().atom_answers(i, f, k)
        return self._kernel_answers(i, f, k)

    def _kernel_answers(self, i: int, f: Act, k: int) -> Answer:
        """:meth:`atom_answers`' kernel, for any subclass whose ``query``
        answers on atom ``k`` as :meth:`query` does."""
        value = expected_utility(self.rep, i, i + 1, f, k)
        if not self.rep.P.atom_masses(i)[k] > 0:

            def null_answer(c: float) -> QueryAnswer:  # as ``query``: both ways
                self.queries += 1
                return _ANSWERS[True][True]

            return null_answer
        curve = self.rep.field.curve_on_atom(i, k).evaluator
        tol = self.tol
        if type(value) is float:  # as exact_answer, without its type test

            def answer(c: float) -> QueryAnswer:
                self.queries += 1
                d = curve(c) - value
                return _ANSWERS[not d < -tol][not d > tol]

            return answer
        # a float utility meets an exact value through its float image
        image = _float_image(value)

        def exact_answer(c: float) -> QueryAnswer:
            self.queries += 1
            y = curve(c)
            d = y - (image if type(y) is float else value)
            return _ANSWERS[not d < -tol][not d > tol]

        return exact_answer


def _answers_on(oracle: PreferenceOracle, i: int, f: Act, A: Event) -> Answer:
    """c ↦ ``oracle.ask`` of c·1_A vs f·1_A.  ``c`` must be finite, as every
    constant :func:`_search` asks is, so each query's act is built
    unvalidated once ``i`` is checked."""
    space = oracle.space
    n = space.n_states
    space.check_time_index(i)
    return lambda c: oracle.ask(i, Act._trusted(space, i, (c,) * n), f, A)


def _search(answer: Answer, i: int, A: Event, tol: float):
    """The constant c with c·1_A ~ f·1_A on the time-``i`` event A, where
    ``answer(c)`` answers c·1_A vs f·1_A.  None when the probe's huge and
    tiny constants both compare both ways (A is insensitive); else each end
    of the bracket doubles from [-1, 1] until it answers its side, up to
    ``BRACKET_LIMIT`` (or the result is the failure's message), and the
    bisected upper end converges to inf{c : c·1_A >= f·1_A}."""
    huge, tiny = answer(INSENSITIVITY_PROBE), answer(-INSENSITIVITY_PROBE)
    if huge.preceq and tiny.succeq:
        return None
    hi = 1.0
    while not answer(hi).succeq:
        hi *= 2
        if hi > BRACKET_LIMIT:
            return f"no upper bracket on {A.label()} at step {i}"
    lo = -1.0
    while not answer(lo).preceq:
        lo *= 2
        if lo < -BRACKET_LIMIT:
            return f"no lower bracket on {A.label()} at step {i}"
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if answer(mid).succeq:
            hi = mid
        else:
            lo = mid
    return hi


def indifference_constant(
    oracle: PreferenceOracle, i: int, f: Act, A: Event, tol: float = 1e-9
) -> float | None:
    """The constant c with c·1_A ~ f·1_A on the time-``i`` event A by
    :func:`_search`, or None when A is insensitive (as a null event is);
    raises :class:`BracketError` when a bracket end fails."""
    c = _search(_answers_on(oracle, i, f, A), i, A, tol)
    if type(c) is str:
        raise BracketError(c)
    return c


def atom_certainty_equivalents(
    oracle: PreferenceOracle, i: int, f: Act, tol: float = 1e-9
) -> list[float | None]:
    """Per-atom certainty equivalent of f at time index i, from oracle
    queries alone: one constant c_k with c_k·1_A ~ f·1_A per time-``i`` atom
    A, in atom order, or None for an insensitive (null-behaving) atom.

    The atoms are searched one after another, each to its end on
    :meth:`~PreferenceOracle.atom_answers`, and each search is memoized on
    the oracle under ``f``'s values on that atom, a bracket failure as its
    message: an atom whose restriction was searched before asks no query.
    The first atom that fails to bracket stops the search: its failure is
    raised as a fresh :class:`BracketError`, and the atoms above it are not
    searched."""
    space = oracle.space
    values, memo, events = f.values, oracle._atom_memo, space.atom_events(i)
    found = []
    for k, pick in enumerate(space.atom_pickers(i)):
        atom_key = (i, k, f.time_index, pick(values), tol)
        c = memo.get(atom_key, _UNSEARCHED)
        if c is _UNSEARCHED:
            c = memo[atom_key] = _search(oracle.atom_answers(i, f, k), i, events[k], tol)
        if type(c) is str:
            raise BracketError(c)
        found.append(c)
    return found


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
