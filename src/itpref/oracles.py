"""Preference oracles: the abstract query interface and the induced oracle.

An oracle answers conditional one-step comparisons "g at t_i versus f at
t_{i+1}, restricted to an event A known at t_i" with a (holds_succeq,
holds_preceq) pair.  The contract every oracle keeps: answers are
deterministic, and an answer on A depends only on g and f on A (a
conditional comparison sees nothing outside its event).  The induced oracle
reads the answers off a representation; hand-corrupted oracles used as
negative controls live in :mod:`itpref.controls`.

``ask_atoms`` asks one such comparison per time-i atom at once, "constant
c_k on A_k vs f on A_k": the base class loops over ``ask``, so every oracle
answers it; the induced oracle answers all atoms in one pass over its value
profile and curves.  ``queries`` counts one query per atom answered either
way, and only queries actually asked: a memo hit asks none.

Also here: constant-act bisection against an oracle (the workhorse of both
axiom checking and recovery) and oracle-level null-atom detection.  One
search body probes, brackets and bisects an atom; ``indifference_profile``
runs it for every atom of a level in lockstep, one ``ask_atoms`` call per
round, and ``atom_is_insensitive`` and ``indifference_constant`` run it
through ``ask`` on a single event.  By the contract an atom's certainty
equivalent depends only on f on that atom, so ``indifference_profile``
stores each atom's search on the oracle, the bracket failures with the rest,
and never repeats it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Generator, NamedTuple, Sequence

from .engine import Representation, expected_utility_profile
from .filtered_space import ACT_TOL, Act, Event, FilteredSpace, Number

BRACKET_LIMIT = 2.0**40  # constants beyond this mean local non-degeneracy failed
INSENSITIVITY_PROBE = 2.0**20  # the huge and tiny constants an insensitive atom ignores
_UNSEARCHED = object()  # an atom memo miss: None is a stored result (insensitive)


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


# the four answers, indexed [succeq][preceq], so batched answers build none
_ANSWERS = (
    (QueryAnswer(False, False), QueryAnswer(False, True)),
    (QueryAnswer(True, False), QueryAnswer(True, True)),
)


class PreferenceOracle(ABC):
    """Query interface for one-step intertemporal comparisons; atoms per
    time come from ``space``."""

    def __init__(self, space: FilteredSpace) -> None:
        self.space = space
        self.queries = 0
        self._cce_memo: dict = {}
        # one entry per atom search: its constant, None (insensitive) or its
        # BracketError message
        self._atom_memo: dict = {}

    def steps(self) -> range:
        """Supported step indices i for the (i, i+1) relation."""
        return range(self.space.n_times - 1)

    def ask(self, i: int, g: Act, f: Act, A: Event | None = None) -> QueryAnswer:
        self.queries += 1
        return self.query(i, g, f, A)

    def ask_atoms(
        self, i: int, f: Act, atoms: Sequence[int], constants: Sequence[float]
    ) -> list[QueryAnswer]:
        """Answer c·1_A vs f·1_A for each time-``i`` atom index in ``atoms``,
        with A that atom and c its entry of ``constants``: one query each."""
        space = self.space
        events = space.atom_events(i)
        return [
            self.ask(i, Act.constant(space, i, c), f, events[k])
            for k, c in zip(atoms, constants)
        ]

    @abstractmethod
    def query(self, i: int, g: Act, f: Act, A: Event | None = None) -> QueryAnswer:
        """Answer g·1_A vs f·1_A for the relation between t_i and t_{i+1}."""


class InducedOracle(PreferenceOracle):
    """Oracle induced by a representation: g·1_A >= f·1_A iff the utility
    margin is nonnegative on every positive-probability atom inside A, with a
    symmetric tolerance band so ties answer both ways."""

    def __init__(self, rep: Representation, tol: float = ACT_TOL) -> None:
        super().__init__(rep.space)
        self.rep = rep
        self.tol = tol
        self._value_memo: dict = {}
        self._last_profile: tuple = (None, None, ())

    def value_profile(self, i: int, f: Act) -> tuple[Number, ...]:
        """Per-atom E[u(t_{i+1}, f) | F_{t_i}] at time index i, memoized.
        The act asked last is recognised by identity, without hashing its
        values: a lockstep bisection asks about the same act every round."""
        last_f, last_i, last = self._last_profile
        if f is last_f and i == last_i:
            return last
        key = (i, f.time_index, f.values)
        hit = self._value_memo.get(key)
        if hit is None:
            hit = expected_utility_profile(self.rep, i, i + 1, f).atom_values()
            self._value_memo[key] = hit
        self._last_profile = (f, i, hit)
        return hit

    def query(self, i: int, g: Act, f: Act, A: Event | None = None) -> QueryAnswer:
        values = self.value_profile(i, f)
        row = self.rep.field.curves_by_state[i]
        part = self.space.partitions[i]
        succ = prec = True
        for k in self.rep.P.positive_atoms(i):
            first = part[k][0]
            if A is not None and first not in A.members:
                continue
            d = row[first](g.values[first]) - values[k]
            if d < -self.tol:
                succ = False
            if d > self.tol:
                prec = False
            if not succ and not prec:
                break
        return QueryAnswer(succ, prec)

    def ask_atoms(
        self, i: int, f: Act, atoms: Sequence[int], constants: Sequence[float]
    ) -> list[QueryAnswer]:
        """:meth:`query`'s answers for the atoms in one pass over the value
        profile and the curves, with no act or event built.  A subclass that
        overrides ``query`` or ``ask`` gets the base-class loop instead."""
        cls = type(self)
        if cls.query is not InducedOracle.query or cls.ask is not PreferenceOracle.ask:
            return super().ask_atoms(i, f, atoms, constants)
        self.queries += len(atoms)
        values = self.value_profile(i, f)
        row = self.rep.field.curves_by_state[i]
        part = self.space.partitions[i]
        masses = self.rep.P.atom_masses(i)
        tol = self.tol
        answers = []
        for k, c in zip(atoms, constants):
            if masses[k] > 0:
                d = row[part[k][0]](c) - values[k]
                answers.append(_ANSWERS[not d < -tol][not d > tol])
            else:  # no positive atom inside A: the comparison holds vacuously
                answers.append(_ANSWERS[True][True])
        return answers


def _probe() -> Generator[float, QueryAnswer, bool]:
    """The insensitivity probe: yields the huge and the tiny constant, is sent
    each answer, and returns whether both compared both ways."""
    hi = yield INSENSITIVITY_PROBE
    lo = yield -INSENSITIVITY_PROBE
    return hi.preceq and lo.succeq


def _bisect(i: int, A: Event, tol: float) -> Generator[float, QueryAnswer, float]:
    """Bracket and bisect for the constant c with c·1_A ~ f·1_A: yields each
    constant to ask, is sent its answer, and returns the upper end."""
    hi = 1.0
    while not (yield hi).succeq:
        hi *= 2
        if hi > BRACKET_LIMIT:
            raise BracketError(f"no upper bracket on {A.label()} at step {i}")
    lo = -1.0
    while not (yield lo).preceq:
        lo *= 2
        if lo < -BRACKET_LIMIT:
            raise BracketError(f"no lower bracket on {A.label()} at step {i}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if (yield mid).succeq:
            hi = mid
        else:
            lo = mid
    return hi


def _atom_search(i: int, A: Event, tol: float) -> Generator[float, QueryAnswer, float | None]:
    """The search on one atom: None when it is insensitive, else its
    bisected constant."""
    if (yield from _probe()):
        return None
    return (yield from _bisect(i, A, tol))


def _drive(oracle: PreferenceOracle, i: int, f: Act, A: Event, search: Generator):
    """Run one search to its end, one ``ask`` per constant it yields."""
    space = oracle.space
    try:
        c = next(search)
        while True:
            c = search.send(oracle.ask(i, Act.constant(space, i, c), f, A))
    except StopIteration as done:
        return done.value


def atom_is_insensitive(oracle: PreferenceOracle, i: int, f: Act, A: Event) -> bool:
    """True when huge and tiny constants both compare both ways on A: the
    oracle does not react to anything there, i.e. the atom behaves as null."""
    return _drive(oracle, i, f, A, _probe())


def indifference_constant(
    oracle: PreferenceOracle, i: int, f: Act, A: Event, tol: float = 1e-9
) -> float:
    """Bisect for the constant c with c·1_A ~ f·1_A.  Each end of the bracket
    doubles from [-1, 1] until it answers its side, up to ``BRACKET_LIMIT``.
    Converges to inf{c : c·1_A >= f·1_A}."""
    return _drive(oracle, i, f, A, _bisect(i, A, tol))


def indifference_profile(
    oracle: PreferenceOracle, i: int, f: Act, tol: float = 1e-9
) -> Act:
    """Atom-wise certainty equivalent of f at time index i, from oracle
    queries alone.  Insensitive (null-behaving) atoms are filled with 0 and
    flagged, mirroring the conditional-expectation convention.

    Each atom's search is memoized on the oracle under ``f``'s values on
    that atom, so an atom whose restriction was searched before asks no
    query.  The other atoms are searched in lockstep, one
    :meth:`~PreferenceOracle.ask_atoms` call per round for every atom still
    searching; each is asked exactly what :func:`atom_is_insensitive` and
    :func:`indifference_constant` would ask it.  When atoms fail to bracket,
    the lowest-index failure is raised.  A failed search is stored as its
    message: a stored failure counts from the start, so only unsearched atoms
    below it are searched, and each raise is a fresh :class:`BracketError`.
    Only completed profiles enter the whole-profile memo."""
    space = oracle.space
    key = (i, f.time_index, f.values, tol)
    hit = oracle._cce_memo.get(key)
    if hit is not None:
        return hit
    values, memo = f.values, oracle._atom_memo
    keys = [
        (i, k, f.time_index, tuple([values[s] for s in atom]), tol)
        for k, atom in enumerate(space.partitions[i])
    ]
    found = [memo.get(atom_key, _UNSEARCHED) for atom_key in keys]
    # the lowest stored failure is raised unless an atom below it fails too
    failure = next((k for k, c in enumerate(found) if type(c) is str), len(found))
    live = [k for k in range(failure) if found[k] is _UNSEARCHED]
    events = space.atom_events(i)
    searches = {k: _atom_search(i, events[k], tol) for k in live}
    asks = [next(searches[k]) for k in live]
    while live:
        answers = oracle.ask_atoms(i, f, live, asks)
        searching, asks = [], []
        for k, answer in zip(live, answers):
            try:
                asks.append(searches[k].send(answer))
                searching.append(k)
            except StopIteration as done:
                found[k] = memo[keys[k]] = done.value
            except BracketError as exc:
                found[k] = memo[keys[k]] = str(exc)
                failure = k  # atoms after k can no longer change the outcome
                break
        live = searching
    if failure < len(found):
        raise BracketError(found[failure])
    per_atom = [0 if c is None else c for c in found]
    insensitive = [k for k, c in enumerate(found) if c is None]
    act = Act.from_atom_values(space, i, per_atom, insensitive)
    oracle._cce_memo[key] = act
    return act
