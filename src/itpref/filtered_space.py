"""Finite filtered probability spaces.

States, refining partition chains, probability measures, measurable acts and
events, conditional expectation with an explicit zero-probability-atom
convention, and the paste algebra on acts.

Exact arithmetic is preserved end to end: weights and act values may be ints,
Fractions or floats, and every operation here keeps Fractions exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from operator import add, itemgetter
from typing import TYPE_CHECKING, Iterable, Sequence, Union

if TYPE_CHECKING:
    from .utility_field import UtilityField

Number = Union[int, float, Fraction]

MEASURE_TOL = 1e-12  # normalization and measurability absolute tolerance
ACT_TOL = 1e-9       # default tie tolerance of verdicts and oracle answers


class InvariantError(ValueError):
    """A domain-type invariant failed at construction."""


def _is_finite(x: Number) -> bool:
    return not isinstance(x, float) or math.isfinite(x)


def _is_exact(*xs: Number) -> bool:
    """Whether every number is an ``int`` or a ``Fraction``."""
    return all(isinstance(x, (int, Fraction)) for x in xs)


def _float_image(q: Number) -> Number:
    """The operand an exact ``q`` becomes where it meets a float: ``float(q)``,
    which Python's own arithmetic computes again on every mixed operation,
    forward or reverse (``q - x`` is ``float(q) - x``, ``x - q`` is
    ``x - float(q)``), so using the image once made gives every result bit
    for bit.  ``q`` itself when it overflows the float range, so that the
    arithmetic raises as before.  Comparisons must keep ``q``: a float
    compares with a ``Fraction`` exactly."""
    try:
        return float(q)
    except OverflowError:
        return q


def _float_images(xs: tuple[Number, ...]) -> tuple[Number, ...]:
    """:func:`_float_image` of each number, for float arguments to meet;
    ``xs`` itself when it holds no ``Fraction``, so float data get no copy."""
    if not any(type(x) is Fraction for x in xs):
        return xs
    return tuple(map(_float_image, xs))


@dataclass(frozen=True)
class FilteredSpace:
    """Finite state set with a refining chain of partitions, one per time.

    ``partitions[i]`` holds the atoms of the time-``i`` information as tuples
    of state indices.  ``partitions[0]`` must be the single atom covering the
    whole state set, and every later partition refines the previous one.
    Atom order is the order of first state occurrence, so all derived output
    is deterministic.
    """

    states: tuple[str, ...]
    times: tuple[float, ...]
    partitions: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self) -> None:
        if not self.states:
            raise InvariantError("state set is empty")
        if len(set(self.states)) != len(self.states):
            raise InvariantError("duplicate state identifiers")
        if len(self.times) != len(self.partitions):
            raise InvariantError("one partition required per time label")
        if not self.times:
            raise InvariantError("at least one time label required")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise InvariantError("times must be strictly increasing")
        n = len(self.states)
        for i, part in enumerate(self.partitions):
            for atom in part:
                if not atom:
                    raise InvariantError(f"empty atom at time index {i}")
                if tuple(sorted(atom)) != atom:
                    raise InvariantError(f"atom {atom} at time index {i} not in state order")
            # overlapping atoms, and a state repeated inside one atom, fail here too
            if sorted(s for atom in part for s in atom) != list(range(n)):
                raise InvariantError(
                    f"partition at time index {i} does not cover the state set exactly once"
                )
            firsts = [atom[0] for atom in part]
            if firsts != sorted(firsts):
                raise InvariantError(f"atoms at time index {i} not ordered by first state")
        if len(self.partitions[0]) != 1:
            raise InvariantError("time-0 information must be trivial (single atom)")
        for i in range(len(self.partitions) - 1):
            coarse = self.atom_index_map(i)
            for atom in self.partitions[i + 1]:
                if len({coarse[s] for s in atom}) != 1:
                    raise InvariantError(
                        f"atom {self.atom_label(i + 1, self.partitions[i + 1].index(atom))} "
                        f"at time index {i + 1} does not refine time index {i}"
                    )

    @classmethod
    def build(
        cls,
        states: Sequence[str],
        times: Sequence[float],
        partitions: Sequence[Sequence[Sequence[str]]],
    ) -> "FilteredSpace":
        """Build from state names, canonicalizing atom and state order."""
        states = tuple(states)
        index = {s: k for k, s in enumerate(states)}
        canon = []
        for part in partitions:
            atoms = []
            for atom in part:
                try:
                    atoms.append(tuple(sorted(index[s] for s in atom)))
                except KeyError as exc:
                    raise InvariantError(f"unknown state {exc.args[0]!r} in partition") from None
            atoms.sort(key=lambda a: a[0])
            canon.append(tuple(atoms))
        return cls(states, tuple(times), tuple(canon))

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_times(self) -> int:
        return len(self.times)

    @property
    def last_index(self) -> int:
        return len(self.times) - 1

    def check_time_index(self, i: int) -> int:
        if not 0 <= i < len(self.times):
            raise IndexError(f"time index {i} out of range 0..{self.last_index}")
        return i

    def atom_index_map(self, i: int) -> tuple[int, ...]:
        """For time index ``i``, map each state index to its atom index."""
        return self._atom_maps[self.check_time_index(i)]

    @cached_property
    def _atom_maps(self) -> tuple[tuple[int, ...], ...]:
        maps = []
        for part in self.partitions:
            m = [0] * self.n_states
            for k, atom in enumerate(part):
                for s in atom:
                    m[s] = k
            maps.append(tuple(m))
        return tuple(maps)

    @cached_property
    def _atom_events(self) -> tuple[tuple["Event", ...], ...]:
        return tuple(
            tuple(Event(self, frozenset(atom), i) for atom in part)
            for i, part in enumerate(self.partitions)
        )

    @cached_property
    def _atom_pickers(self) -> tuple[tuple[itemgetter, ...], ...]:
        return tuple(tuple(itemgetter(*atom) for atom in part) for part in self.partitions)

    def n_atoms(self, i: int) -> int:
        return len(self.partitions[self.check_time_index(i)])

    def atom_members(self, i: int, k: int) -> tuple[int, ...]:
        return self.partitions[self.check_time_index(i)][k]

    def atom_label(self, i: int, k: int) -> str:
        return "{" + ",".join(self.states[s] for s in self.atom_members(i, k)) + "}"

    def atom_events(self, i: int) -> tuple["Event", ...]:
        """The time-``i`` atoms as events, in atom order."""
        return self._atom_events[self.check_time_index(i)]

    def atom_pickers(self, i: int) -> tuple[itemgetter, ...]:
        """Per time-``i`` atom, in atom order, the picker of a value tuple's
        entries on the atom's states: a tuple of them, or the one value of a
        one-state atom."""
        return self._atom_pickers[self.check_time_index(i)]

    def atom_event(self, i: int, k: int) -> "Event":
        return self.atom_events(i)[k]

    def state_index(self, name: str) -> int:
        try:
            return self.states.index(name)
        except ValueError:
            raise KeyError(f"unknown state {name!r}") from None

    def union_event(self, i: int, ks: Iterable[int]) -> "Event":
        """The union of the time-``i`` atoms with indices ``ks``.  A union of
        time-``i`` atoms is known at ``i`` by construction, so only ``i`` is
        checked, and the event is built unvalidated as ``Act._trusted``
        builds acts."""
        part = self.partitions[self.check_time_index(i)]
        event = object.__new__(Event)
        event.__dict__.update(space=self, members=frozenset([s for k in ks for s in part[k]]), time_index=i)
        return event


@dataclass(frozen=True)
class Event:
    """Set of states, optionally pinned to a time index at which it must be
    a union of atoms."""

    space: FilteredSpace
    members: frozenset[int]
    time_index: int | None = None

    def __post_init__(self) -> None:
        if not self.members <= frozenset(range(self.space.n_states)):
            raise InvariantError("event members outside the state set")
        if self.time_index is not None:
            i = self.space.check_time_index(self.time_index)
            for k, atom in enumerate(self.space.partitions[i]):
                inter = self.members & set(atom)
                if inter and inter != set(atom):
                    raise InvariantError(
                        f"event is not a union of atoms at time index {i}: "
                        f"splits atom {self.space.atom_label(i, k)}"
                    )

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.space.states[s] for s in sorted(self.members))

    def label(self) -> str:
        return "{" + ",".join(self.names) + "}"

    def indicator(self, j: int) -> "Act":
        """The act 1_A, measurable at time index ``j``."""
        values = tuple(1 if s in self.members else 0 for s in range(self.space.n_states))
        return Act(self.space, j, values)


@dataclass(frozen=True)
class Act:
    """Real-valued payoff on states, measurable at ``time_index``.

    ``null_fill`` records states whose value came from the zero-probability
    convention of :func:`conditional_expectation`; it never participates in
    equality.
    """

    space: FilteredSpace
    time_index: int
    values: tuple[Number, ...]
    null_fill: frozenset[int] = field(default_factory=frozenset, compare=False)

    def __post_init__(self) -> None:
        values = self.values
        self.space.check_time_index(self.time_index)
        if len(values) != self.space.n_states:
            raise InvariantError("one value per state required")
        if not all(map(_is_finite, values)):
            raise InvariantError("act values must be finite")
        for k, atom in enumerate(self.space.partitions[self.time_index]):
            if len(atom) == 1:
                continue
            v0 = values[atom[0]]
            for s in atom[1:]:
                if abs(values[s] - v0) > MEASURE_TOL:
                    raise InvariantError(
                        f"act not measurable at time index {self.time_index}: values differ "
                        f"inside atom {self.space.atom_label(self.time_index, k)}"
                    )

    @classmethod
    def _trusted(
        cls,
        space: FilteredSpace,
        i: int,
        values: tuple[Number, ...],
        null_fill: frozenset[int] = frozenset(),
    ) -> "Act":
        """The act, unvalidated: the caller guarantees a valid ``i``, one
        finite value per state, and measurability at ``i``.  Every derived
        construction that is measurable by construction builds here."""
        act = object.__new__(cls)
        act.__dict__.update(space=space, time_index=i, values=values, null_fill=null_fill)
        return act

    @classmethod
    def constant(cls, space: FilteredSpace, i: int, value: Number) -> "Act":
        """The act equal to ``value`` on every state.  It is measurable at
        every time index, so only ``i`` and the one value are checked."""
        space.check_time_index(i)
        if not _is_finite(value):
            raise InvariantError("act values must be finite")
        return cls._trusted(space, i, (value,) * space.n_states)

    @classmethod
    def from_atom_values(
        cls,
        space: FilteredSpace,
        i: int,
        per_atom: Sequence[Number],
        null_atoms: Iterable[int] = (),
    ) -> "Act":
        """The time-``i`` act with value ``per_atom[k]`` on atom ``k``; the
        states of ``null_atoms`` form its ``null_fill``.  One value per atom
        is measurable at ``i`` by construction, so only ``i``, the count and
        the finiteness of the values are checked."""
        amap = space.atom_index_map(i)
        part = space.partitions[i]
        if len(per_atom) != len(part):
            raise InvariantError("one value per atom required")
        null_fill = frozenset(s for k in null_atoms for s in part[k])
        if not all(map(_is_finite, per_atom)):
            raise InvariantError("act values must be finite")
        return cls._trusted(space, i, tuple([per_atom[k] for k in amap]), null_fill)

    def value_on_atom(self, k: int) -> Number:
        return self.values[self.space.partitions[self.time_index][k][0]]

    def atom_values(self) -> tuple[Number, ...]:
        return tuple(self.values[atom[0]] for atom in self.space.partitions[self.time_index])

    def at_time(self, j: int) -> "Act":
        """Reinterpret at time index ``j``.  An act measurable at its time is
        measurable at every later (finer) one, so only a coarser ``j`` is
        checked against the act's values."""
        if j >= self.time_index:
            return Act._trusted(self.space, self.space.check_time_index(j), self.values, self.null_fill)
        return Act(self.space, j, self.values, self.null_fill)

    def _keeps_measurability(self, A: Event) -> bool:
        """Whether ``A`` is a union of atoms at or before this act's time, so
        that cutting the act along ``A`` keeps it measurable."""
        return A.space is self.space and A.time_index is not None and A.time_index <= self.time_index

    def restrict(self, A: Event) -> "Act":
        """The act f·1_A (zero off ``A``)."""
        _check_space(self.space, A, "event")
        values = tuple([v if s in A.members else 0 for s, v in enumerate(self.values)])
        if self._keeps_measurability(A):
            return Act._trusted(self.space, self.time_index, values)
        return Act(self.space, self.time_index, values)

    def shift(self, c: Number) -> "Act":
        return Act(self.space, self.time_index, tuple(v + c for v in self.values))

    def sup_dist(self, other: "Act", P: "ProbabilityMeasure | None" = None) -> float:
        """Sup-norm distance, optionally restricted to P-positive states."""
        gaps = (
            abs(a - b)
            for s, (a, b) in enumerate(zip(self.values, other.values))
            if P is None or P.weights[s] > 0
        )
        return float(max(gaps, default=0))


@dataclass(frozen=True)
class ProbabilityMeasure:
    """Nonnegative weights on states summing to one (within 1e-12)."""

    space: FilteredSpace
    weights: tuple[Number, ...]

    def __post_init__(self) -> None:
        if len(self.weights) != self.space.n_states:
            raise InvariantError("one weight per state required")
        for w in self.weights:
            if not _is_finite(w) or w < 0:
                raise InvariantError("weights must be finite and nonnegative")
        total = reduce(add, self.weights, 0)
        if abs(total - 1) > MEASURE_TOL:
            raise InvariantError(f"weights sum to {total!r}, not 1")

    @classmethod
    def of(cls, space: FilteredSpace, by_state: dict[str, Number]) -> "ProbabilityMeasure":
        missing = set(space.states) - set(by_state)
        if missing:
            raise InvariantError(f"missing weights for states {sorted(missing)}")
        return cls(space, tuple(by_state[s] for s in space.states))

    @classmethod
    def uniform(cls, space: FilteredSpace) -> "ProbabilityMeasure":
        return cls(space, (Fraction(1, space.n_states),) * space.n_states)

    def mass(self, states: Iterable[int]) -> Number:
        return reduce(add, (self.weights[s] for s in states), 0)

    @cached_property
    def _atom_masses(self) -> tuple[tuple[Number, ...], ...]:
        return tuple(tuple(self.mass(atom) for atom in part) for part in self.space.partitions)

    @cached_property
    def _weight_images(self) -> tuple[Number, ...]:
        """The weights as a float utility meets them: ``_float_images``."""
        return _float_images(self.weights)

    @cached_property
    def _atom_mass_images(self) -> tuple[tuple[Number, ...], ...]:
        """Per time index, the atom masses as a float meets them."""
        return tuple(map(_float_images, self._atom_masses))

    @cached_property
    def _positive_atoms(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(k for k, m in enumerate(masses) if m > 0) for masses in self._atom_masses
        )

    @cached_property
    def _null_atoms(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(k for k, m in enumerate(masses) if m == 0) for masses in self._atom_masses
        )

    def atom_masses(self, i: int) -> tuple[Number, ...]:
        """The masses of the time-``i`` atoms, in atom order."""
        return self._atom_masses[self.space.check_time_index(i)]

    def atom_mass(self, i: int, k: int) -> Number:
        return self.atom_masses(i)[k]

    def event_mass(self, A: Event) -> Number:
        _check_space(self.space, A, "event")
        return self.mass(A.members)

    def expectation(self, f: Act) -> Number:
        _check_act(self.space, f)
        return reduce(add, (w * v for w, v in zip(self.weights, f.values)), 0)

    def positive_atoms(self, i: int) -> tuple[int, ...]:
        return self._positive_atoms[self.space.check_time_index(i)]

    def null_atoms(self, i: int) -> tuple[int, ...]:
        return self._null_atoms[self.space.check_time_index(i)]

    def positive_states(self) -> tuple[int, ...]:
        return tuple(s for s, w in enumerate(self.weights) if w > 0)

    def is_equivalent_to(self, other: "ProbabilityMeasure") -> bool:
        """Same null terminal atoms: mutual absolute continuity on the
        terminal information.  Acts are measurable there, so how a terminal
        atom's mass spreads over its states is invisible to preferences."""
        last = self.space.last_index
        return self.null_atoms(last) == other.null_atoms(last)


def _check_space(
    space: FilteredSpace, obj: Act | Event | ProbabilityMeasure | UtilityField, kind: str
) -> None:
    """``obj`` must live on ``space``: the same object, tested first, or an
    equal one; else ``InvariantError`` naming the ``kind`` of ``obj``."""
    if obj.space is not space and obj.space != space:
        raise InvariantError(f"{kind} is defined on another filtered space")


def _check_act(
    space: FilteredSpace, act: Act, j: int | None = None, late: type[ValueError] = InvariantError
) -> None:
    """``act`` must live on ``space`` (:func:`_check_space`) and, when ``j``
    is given, be measurable at time index ``j``; an act of a later time
    raises ``late``."""
    _check_space(space, act, "act")
    if j is not None and act.time_index > j:
        raise late(f"act at time index {act.time_index} is not measurable at {j}")


def is_measurable(space: FilteredSpace, i: int, obj: Act | Event) -> bool:
    """True iff ``obj`` is constant per atom (acts) / a union of atoms (events)
    of the time-``i`` partition.  An act is measurable at every time from its
    own time index on."""
    if isinstance(obj, Act) and obj.space is space and obj.time_index <= space.check_time_index(i):
        return True
    try:
        if isinstance(obj, Event):
            Event(space, obj.members, i)
        else:
            Act(space, i, obj.values)
    except InvariantError:
        return False
    return True


def conditional_expectation(
    space: FilteredSpace, P: ProbabilityMeasure, f: Act, i: int
) -> Act:
    """E_P[f | F_{t_i}] computed atom by atom.

    Atoms of zero probability get the value 0; the affected states are
    recorded in the result's ``null_fill`` so callers can honour the
    "up to null events" reading of downstream identities.
    """
    _check_act(space, f)
    _check_space(space, P, "measure")
    space.check_time_index(i)
    if i > f.time_index:
        raise InvariantError(
            f"cannot condition a time-{f.time_index} act on later time index {i}"
        )
    weights, values = P.weights, f.values
    per_atom = [
        reduce(add, (weights[s] * values[s] for s in atom), 0) / mass if mass > 0 else 0
        for atom, mass in zip(space.partitions[i], P.atom_masses(i))
    ]
    return Act.from_atom_values(space, i, per_atom, P.null_atoms(i))


def null_events(space: FilteredSpace, P: ProbabilityMeasure, i: int) -> list[Event]:
    """The zero-probability atoms at time ``i``; their union is the maximal
    null event, and an event is null iff contained in that union."""
    _check_space(space, P, "measure")
    return [space.atom_event(i, k) for k in P.null_atoms(i)]


def maximal_null_event(space: FilteredSpace, P: ProbabilityMeasure, i: int) -> Event:
    _check_space(space, P, "measure")
    return space.union_event(i, P.null_atoms(i))


def is_null_event(P: ProbabilityMeasure, A: Event) -> bool:
    return P.event_mass(A) == 0


def paste(f: Act, g: Act, A: Event) -> Act:
    """The act equal to ``f`` on ``A`` and to ``g`` elsewhere."""
    _check_space(f.space, g, "act")
    if f.time_index != g.time_index:
        raise InvariantError(
            f"paste requires a shared time index, got {f.time_index} and {g.time_index}"
        )
    _check_space(f.space, A, "event")
    values = tuple([
        fv if s in A.members else gv for s, (fv, gv) in enumerate(zip(f.values, g.values))
    ])
    if f._keeps_measurability(A):
        return Act._trusted(f.space, f.time_index, values)
    return Act(f.space, f.time_index, values)
