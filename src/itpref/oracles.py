"""Preference oracles: the abstract query interface and the induced oracle.

An oracle answers conditional one-step comparisons "g at t_i versus f at
t_{i+1}, restricted to an event A known at t_i" with a (holds_succeq,
holds_preceq) pair.  Answers must be deterministic and stable.  The induced
oracle reads the answers off a representation; hand-corrupted oracles used as
negative controls live in :mod:`itpref.controls`.

Also here: constant-act bisection against an oracle (the workhorse of both
axiom checking and recovery) and oracle-level null-atom detection.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import NamedTuple

from .engine import Representation, expected_utility_profile
from .filtered_space import ACT_TOL, Act, Event, FilteredSpace, Number

BRACKET_LIMIT = 2.0**40  # constants beyond this mean local non-degeneracy failed
INSENSITIVITY_PROBE = 2.0**20  # the huge and tiny constants an insensitive atom ignores


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


class PreferenceOracle(ABC):
    """Query interface for one-step intertemporal comparisons; atoms per
    time come from ``space``."""

    def __init__(self, space: FilteredSpace) -> None:
        self.space = space
        self.queries = 0
        self._cce_memo: dict = {}

    def steps(self) -> range:
        """Supported step indices i for the (i, i+1) relation."""
        return range(self.space.n_times - 1)

    def ask(self, i: int, g: Act, f: Act, A: Event | None = None) -> QueryAnswer:
        self.queries += 1
        return self.query(i, g, f, A)

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

    def value_profile(self, i: int, f: Act) -> tuple[Number, ...]:
        """Per-atom E[u(t_{i+1}, f) | F_{t_i}] at time index i, memoized."""
        key = (i, f.time_index, f.values)
        hit = self._value_memo.get(key)
        if hit is None:
            hit = expected_utility_profile(self.rep, i, i + 1, f).atom_values()
            self._value_memo[key] = hit
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


def atom_is_insensitive(oracle: PreferenceOracle, i: int, f: Act, A: Event) -> bool:
    """True when huge and tiny constants both compare both ways on A: the
    oracle does not react to anything there, i.e. the atom behaves as null."""
    space = oracle.space
    hi = oracle.ask(i, Act.constant(space, i, INSENSITIVITY_PROBE), f, A)
    lo = oracle.ask(i, Act.constant(space, i, -INSENSITIVITY_PROBE), f, A)
    return hi.preceq and lo.succeq


def indifference_constant(
    oracle: PreferenceOracle, i: int, f: Act, A: Event, tol: float = 1e-9
) -> float:
    """Bisect for the constant c with c·1_A ~ f·1_A.  Each end of the bracket
    doubles from [-1, 1] until it answers its side, up to ``BRACKET_LIMIT``.
    Converges to inf{c : c·1_A >= f·1_A}."""
    space = oracle.space

    def answer(c: float) -> QueryAnswer:
        return oracle.ask(i, Act.constant(space, i, c), f, A)

    hi = 1.0
    while not answer(hi).succeq:
        hi *= 2
        if hi > BRACKET_LIMIT:
            raise BracketError(f"no upper bracket on {A.label()} at step {i}")
    lo = -1.0
    while not answer(lo).preceq:
        lo *= 2
        if lo < -BRACKET_LIMIT:
            raise BracketError(f"no lower bracket on {A.label()} at step {i}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if answer(mid).succeq:
            hi = mid
        else:
            lo = mid
    return hi


def indifference_profile(
    oracle: PreferenceOracle, i: int, f: Act, tol: float = 1e-9
) -> Act:
    """Atom-wise certainty equivalent of f at time index i, from oracle
    queries alone.  Insensitive (null-behaving) atoms are filled with 0 and
    flagged, mirroring the conditional-expectation convention."""
    space = oracle.space
    key = (i, f.time_index, f.values, tol)
    hit = oracle._cce_memo.get(key)
    if hit is not None:
        return hit
    per_atom: list[Number] = [0] * space.n_atoms(i)
    insensitive: list[int] = []
    for k in range(len(per_atom)):
        A = space.atom_event(i, k)
        if atom_is_insensitive(oracle, i, f, A):
            insensitive.append(k)
            continue
        per_atom[k] = indifference_constant(oracle, i, f, A, tol)
    act = Act.from_atom_values(space, i, per_atom, insensitive)
    oracle._cce_memo[key] = act
    return act
