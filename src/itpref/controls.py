"""Hand-corrupted oracles, one per axiom family.

Each control is built to fail exactly its targeted axiom on the default grid
and pass (possibly vacuously) every other check:

* ``always_succeq``        — answers "at least as good" to everything: breaks
  the transition axiom (normalization, non-degeneracy, completeness via an
  all-null family) while monotonicity / sure-thing / continuity have no
  instantiable premises.
* ``intransitive_band``    — honest induced oracle except for one designated
  act that accepts strictly cheaper constants: breaks transitivity only.
  Its searches keep the induced oracle's per-atom kernel, all but the
  designated act's at step 0.
* ``flat_segment``         — a utility curve flat on [-0.75, 0.75] on one
  atom: breaks strict monotonicity only.
* ``nonadditive_meanmax``  — V(f) = E_P[f] + max f: strictly monotone and
  continuous but not additively decomposable across events: breaks the
  sure-thing principle only.
* ``jump_on_positive_atom`` — a utility jump on an essential atom: breaks
  pointwise continuity only (the star-continuity contradiction), with the act
  sitting at the jump as the designated witness.

Every control refuses the events the induced oracle refuses, through the
base class's one event rule, :meth:`~itpref.oracles.PreferenceOracle._check_event`.
"""

from __future__ import annotations

from fractions import Fraction

from .curves import IdentityCurve, PiecewiseLinearCurve
from .engine import Representation
from .filtered_space import Act, FilteredSpace, ProbabilityMeasure
from .oracles import InducedOracle, PreferenceOracle, QueryAnswer
from .utility_field import UtilityField


def three_atom_space() -> tuple[FilteredSpace, ProbabilityMeasure]:
    """Two-period space with three essential singleton atoms at t_1."""
    space = FilteredSpace.build(
        states=("x", "y", "z"),
        times=(0.0, 1.0),
        partitions=[[["x", "y", "z"]], [["x"], ["y"], ["z"]]],
    )
    P = ProbabilityMeasure(space, (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)))
    return space, P


def identity_representation(space: FilteredSpace, P: ProbabilityMeasure) -> Representation:
    rows = [[IdentityCurve()] * space.n_atoms(i) for i in range(space.n_times)]
    return Representation(space, P, UtilityField.from_atom_curves(space, rows))


class AlwaysSucceqOracle(PreferenceOracle):
    """Degenerate control: holds_succeq always, holds_preceq never, on every
    event of its space known at t_i."""

    def query(self, i, g, f, A=None):  # noqa: D102 - contract in class docstring
        if A is not None:
            self._check_event(i, A)
        return QueryAnswer(True, False)


def always_succeq() -> AlwaysSucceqOracle:
    space, _ = three_atom_space()
    return AlwaysSucceqOracle(space)


class IntransitiveBandOracle(InducedOracle):
    """Honest induced oracle except on one designated act, where constants up
    to 1.0 below its value still count as "at least as good".

    The designated act has three distinct coordinates, none equal to -2 and
    the first outside the sure-thing subgrid, so the monotonicity and
    sure-thing searches never paste it together; only the transition check's
    direct enumeration reaches it."""

    HALF_BAND = 1.0

    def __init__(self, rep: Representation, target: Act) -> None:
        super().__init__(rep)
        self.target = target
        self._target_value = self.value_profile(0, target)[0]

    def query(self, i, g, f, A=None):
        if i == 0 and f.values == self.target.values and (A is None or len(A.members) == self.space.n_states):
            if A is not None:
                self._check_event(0, A)
            v = self._target_value
            u = self.rep.u0(g.values[0])
            return QueryAnswer(u >= v - self.HALF_BAND, u <= v + self.tol)
        return super().query(i, g, f, A)

    def atom_answers(self, i, f, k):
        """The induced kernel's answers, except for the designated act at
        step 0, the one place :meth:`query` deviates: that search takes the
        base class's path through ``ask``."""
        if i == 0 and f.values == self.target.values:
            return PreferenceOracle.atom_answers(self, i, f, k)
        return self._kernel_answers(i, f, k)


def intransitive_band() -> IntransitiveBandOracle:
    space, P = three_atom_space()
    rep = identity_representation(space, P)
    # honest value 3/8, band-accepted from -5/8: the grid constants b = -1/2
    # (succeq via the band) and a = 0 (honest preceq) violate a <= b
    target = Act.from_atom_values(space, 1, [Fraction(-1, 2), 1, Fraction(1, 2)])
    return IntransitiveBandOracle(rep, target)


def flat_segment() -> InducedOracle:
    space, P = three_atom_space()
    flat = PiecewiseLinearCurve.from_points(
        [(-2, -1.25), (-0.75, 0), (0.75, 0), (2, 1.25)], strict=False
    )
    field = UtilityField.from_atom_curves(
        space,
        [[IdentityCurve()], [flat, IdentityCurve(), IdentityCurve()]],
    )
    return InducedOracle(Representation(space, P, field))


class MeanMaxOracle(PreferenceOracle):
    """V(f) = E_P[f] + max over positive-probability states of f, compared
    against the identity initial utility."""

    def __init__(self, space: FilteredSpace, P: ProbabilityMeasure, tol: float = 1e-9) -> None:
        super().__init__(space)
        self.P = P
        self.tol = tol
        self._positive = P.positive_states()
        self._values: dict = {}

    def _value(self, f: Act) -> float:
        """V(f), memoized by the act's values."""
        v = self._values.get(f.values)
        if v is None:
            v = float(self.P.expectation(f)) + max(float(f.values[s]) for s in self._positive)
            self._values[f.values] = v
        return v

    def query(self, i, g, f, A=None):
        if A is not None:
            self._check_event(i, A)
            # weights are nonnegative: A is null iff it holds no positive state
            if A.members.isdisjoint(self._positive):
                return QueryAnswer(True, True)
        # time-0 information is trivial, so any essential A is the whole space
        u = float(g.values[0])  # identity initial utility; g is constant
        v = self._value(f)
        return QueryAnswer(u >= v - self.tol, u <= v + self.tol)


def nonadditive_meanmax() -> MeanMaxOracle:
    space, P = three_atom_space()
    return MeanMaxOracle(space, P)


def jump_on_positive_atom() -> tuple[InducedOracle, Act]:
    """Oracle with a left discontinuity at 0.5 on atom {x}, plus the witness
    act sitting exactly at the jump."""
    space, P = three_atom_space()
    jumpy = PiecewiseLinearCurve.from_points(
        [(0, 0), (0.5, 0.4, 0.9, 0.9), (1, 1.4)]
    )
    field = UtilityField.from_atom_curves(
        space,
        [[IdentityCurve()], [jumpy, IdentityCurve(), IdentityCurve()]],
    )
    oracle = InducedOracle(Representation(space, P, field))
    witness = Act(space, 1, (0.5, 0, 0))
    return oracle, witness
