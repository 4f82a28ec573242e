"""Stochastic dynamic utility fields.

A field attaches one strictly increasing curve to every (time, atom) pair of a
filtered space, evaluates acts through it, and locates the states where an act
sits on a discontinuity of its curve (the right/left/two-sided discontinuity
events).  On a finite space the star-continuity test collapses to "no jump on
any positive-probability atom"; the detector still reports a witness act in
the general form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

from .curves import Jump, MonotoneCurve
from .filtered_space import (
    Act,
    Event,
    FilteredSpace,
    InvariantError,
    Number,
    ProbabilityMeasure,
    _check_act,
    _check_space,
)


@dataclass(frozen=True)
class UtilityField:
    """One curve per (time, atom): ``curves[i][k]`` is the curve on time-``i``
    atom ``k``.  The field is adapted by construction: at time i a state
    reads its curve through the time-i information alone."""

    space: FilteredSpace
    curves: tuple[tuple[MonotoneCurve, ...], ...]

    def __post_init__(self) -> None:
        if len(self.curves) != self.space.n_times:
            raise InvariantError("one curve list per time label required")
        for i, row in enumerate(self.curves):
            if len(row) != self.space.n_atoms(i):
                raise InvariantError(
                    f"time index {i} needs {self.space.n_atoms(i)} curves, got {len(row)}"
                )

    @classmethod
    def from_atom_curves(
        cls, space: FilteredSpace, per_time: Sequence[Sequence[MonotoneCurve]]
    ) -> "UtilityField":
        return cls(space, tuple(tuple(row) for row in per_time))

    @cached_property
    def curves_by_state(self) -> tuple[tuple[MonotoneCurve, ...], ...]:
        """``curves`` read per state: row i holds each state's time-i atom's
        curve."""
        return tuple(
            tuple(row[k] for k in self.space.atom_index_map(i)) for i, row in enumerate(self.curves)
        )

    @cached_property
    def evaluators_by_state(self) -> tuple[tuple[Callable[[Number], Number], ...], ...]:
        """``curves_by_state`` with each curve replaced by its evaluator."""
        return tuple(tuple(curve.evaluator for curve in row) for row in self.curves_by_state)

    def __getstate__(self) -> dict:
        # the derived views hold evaluators, which can be closures and do not pickle
        return {"space": self.space, "curves": self.curves}

    def curve_on_atom(self, i: int, k: int) -> MonotoneCurve:
        return self.curves[self.space.check_time_index(i)][k]

    def eval(self, j: int, f: Act) -> Act:
        """u(t_j, f): each time-j atom's curve applied to the act's value
        there, once per atom."""
        _check_act(self.space, f, j)
        curves = self.curves[self.space.check_time_index(j)]
        per_atom = [u(f.values[atom[0]]) for u, atom in zip(curves, self.space.partitions[j])]
        return Act.from_atom_values(self.space, j, per_atom)

    def discontinuity_sets(self, j: int, f: Act) -> tuple[Event, Event, Event]:
        """States where f hits a right / left / any discontinuity of its curve.

        Read off the curves' jump lists exactly: a state belongs to the
        right-discontinuity event iff its value is a jump abscissa whose right
        limit exceeds the attained value, and symmetrically on the left.
        """
        self.space.check_time_index(j)
        _check_act(self.space, f, j)
        right: set[int] = set()
        left: set[int] = set()
        for s in range(self.space.n_states):
            for jump in self.curves_by_state[j][s].jumps():
                if f.values[s] == jump.x:
                    if jump.right > jump.value:
                        right.add(s)
                    if jump.value > jump.left:
                        left.add(s)
        return (
            Event(self.space, frozenset(right), j),
            Event(self.space, frozenset(left), j),
            Event(self.space, frozenset(right | left), j),
        )


@dataclass(frozen=True)
class StarContinuityResult:
    ok: bool
    witness: Act | None = None
    atom: Event | None = None
    jump: Jump | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_star_continuous(
    field: UtilityField, P: ProbabilityMeasure, j: int
) -> StarContinuityResult:
    """True iff no curve on a positive-probability atom at time j has a jump.

    On a finite space an act can sit exactly on any abscissa, so this is
    equivalent to the universally quantified definition; when it fails the
    result carries a witness act f with P(D_f) > 0 (the jump abscissa on the
    offending atom, zero elsewhere).
    """
    space = field.space
    _check_space(space, P, "measure")
    for k in P.positive_atoms(j):
        curve = field.curve_on_atom(j, k)
        jumps = curve.jumps()
        if jumps:
            jump = jumps[0]
            per_atom = [0] * space.n_atoms(j)
            per_atom[k] = jump.x
            witness = Act.from_atom_values(space, j, per_atom)
            return StarContinuityResult(False, witness, space.atom_event(j, k), jump)
    return StarContinuityResult(True)
