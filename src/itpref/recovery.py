"""Recovery of the representing pair (probability, utility field) from a
preference oracle, and the relative-uniqueness audit.

Step i (``recover_step_i``) runs in one pass.  It builds the composite
unconditional functional f ↦ E_{P_i}[u_i(C_{i,i+1}(f))], tabulates it
through the oracle's certainty equivalents, finds the null atoms, audits its
additive decomposability across the time-(i+1) atoms (the Debreu residual),
and splits each essential component canonically at the calibration outcome
x̄ into an auxiliary mass P̃ and a utility curve.  The Bayesian reweighting
then fixes each atom's final mass and curve once: Z = dP_i/dP̃ makes the new
probability agree with the old one on the coarser information, and the
curve is built from its points scaled by κ = dP̃/dP_{i+1}.  Step 0 is the
same step started from trivial information: mass 1 and the initial utility
u0, where Z = κ = 1.

Recovered curves are tabulated on the grid and piecewise-linear interpolated,
so recovery is grid-exact only for piecewise-linear ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Sequence

from .axioms import DEFAULT_GRID, ActGrid, _debreu_candidates, grid_for
from .curves import IdentityCurve, MonotoneCurve, PiecewiseLinearCurve
from .engine import Representation
from .filtered_space import Act, Number, ProbabilityMeasure
from .oracles import PreferenceOracle, atom_certainty_equivalents
from .utility_field import UtilityField

NULL_VALUE_TOL = 1e-7   # |V_j| below this on the whole grid marks a null atom
DEBREU_TOL = 1e-6
X_BAR = 1  # calibration outcome: an atom's mass is proportional to its value gap X_BAR vs 0


class RecoveryError(RuntimeError):
    """The oracle does not admit the requested reconstruction."""


@dataclass(frozen=True)
class RecoveredStep:
    """Probability masses and tabulated curves for the atoms of one level."""

    level: int
    masses: tuple[Number, ...]
    curves: tuple[MonotoneCurve, ...]
    debreu_residual: float
    null_atoms: tuple[int, ...]
    normalization_offsets: tuple[float, ...]


def _recovery_xs(grid: ActGrid) -> tuple[Number, ...]:
    return tuple(sorted(set(grid.values) | {X_BAR, 0}))


def recover_step0(
    oracle: PreferenceOracle,
    u0: MonotoneCurve,
    grid: ActGrid = DEFAULT_GRID,
    tol: float = 1e-10,
    require_three_essential: bool = True,
    debreu_tol: float = DEBREU_TOL,
) -> RecoveredStep:
    """Recover (P_1, u_1) on the time-1 atoms: the step i = 0, started from
    trivial information with mass 1 and the initial utility u0."""
    return recover_step_i(
        oracle, 0, _initial_step(u0), grid, tol, require_three_essential, debreu_tol,
    )


def _initial_step(u0: MonotoneCurve) -> RecoveredStep:
    return RecoveredStep(0, (1,), (u0,), 0.0, (), (0.0,))


def recover_step_i(
    oracle: PreferenceOracle,
    i: int,
    prev: RecoveredStep,
    grid: ActGrid = DEFAULT_GRID,
    tol: float = 1e-10,
    require_three_essential: bool = True,
    debreu_tol: float = DEBREU_TOL,
) -> RecoveredStep:
    """Recover (P_{i+1}, u_{i+1}) given the step-i output.

    Routes through the auxiliary unconditional functional
    f ↦ E_{P_i}[u_i(C_{i,i+1}(f))]: its additive split across the
    (i+1)-atoms gives an auxiliary probability P̃ and curves, and reweighting
    by Z = dP_i/dP̃|F_i makes the new probability agree with P_i on the
    time-i atoms while the curves absorb κ = dP̃/dP_{i+1}.
    The Debreu audit takes at most 81 acts at i = 0 and 64 later.
    """
    space = oracle.space
    if prev.level != i:
        raise RecoveryError(f"previous step recovered level {prev.level}, expected {i}")
    level = i + 1
    m = space.n_atoms(level)

    # (atom, mass, curve evaluator) of each positive time-i atom, in atom order
    terms = [
        (k, mass, prev.curves[k].evaluator) for k, mass in enumerate(prev.masses) if mass > 0
    ]

    def value(f: Act) -> float:
        ces = atom_certainty_equivalents(oracle, i, f, tol)
        total = 0
        for k, mass, u in terms:
            total += mass * u(0 if ces[k] is None else ces[k])
        return float(total)

    # tab[k][p]: the value of xs[p] on time-(i+1) atom k and 0 elsewhere
    xs = _recovery_xs(grid)
    tab = [
        [value(Act.constant(space, level, x).restrict(A)) for x in xs]
        for A in space.atom_events(level)
    ]
    zero, x_bar = xs.index(0), xs.index(X_BAR)
    null_atoms = tuple(
        k for k in range(m) if max(abs(v) for v in tab[k]) <= NULL_VALUE_TOL
    )
    essential = [k for k in range(m) if k not in null_atoms]
    if require_three_essential and len(essential) < 3:
        raise RecoveryError(
            f"level {level} has {len(essential)} essential atoms; the additive "
            f"decomposition needs at least three"
        )

    residual = 0.0
    # 81 acts at step 0 and 64 later: the cap fixes the residual reported and the query count
    for f, pos in _debreu_candidates(space, level, xs, 81 if level == 1 else 64):
        total = value(f)
        split = reduce(add, (tab[k][pos[k]] for k in range(m)), 0)
        residual = max(residual, abs(total - split))
    if residual > debreu_tol:
        raise RecoveryError(
            f"level {level}: additive decomposition fails, Debreu residual "
            f"{residual:.3g} exceeds {debreu_tol:.3g}"
        )

    weights = {}
    for k in essential:
        w = tab[k][x_bar] - tab[k][zero]
        if not w > 0:
            raise RecoveryError(
                f"level {level} atom {space.atom_label(level, k)}: component value "
                f"{w!r} at the calibration outcome {X_BAR} is not positive; the "
                f"oracle does not rank {X_BAR} above 0 on an essential atom"
            )
        weights[k] = w
    total_weight = reduce(add, weights.values(), 0)

    # the auxiliary split P̃ and each essential atom's curve points under it
    aux: dict[int, Number] = {}
    points: dict[int, list[tuple[Number, Number]]] = {}
    for k, w in weights.items():
        aux[k] = p = w / total_weight
        points[k] = [(x, 0 if x == 0 else (v - tab[k][zero]) / p) for x, v in zip(xs, tab[k])]
        for (x0, y0), (x1, y1) in zip(points[k], points[k][1:]):
            if not y1 > y0:
                raise RecoveryError(
                    f"level {level} atom {space.atom_label(level, k)}: recovered values "
                    f"not strictly increasing between x={x0} and x={x1}"
                )

    amap_lo = space.atom_index_map(i)
    parent = [amap_lo[atom[0]] for atom in space.partitions[level]]
    parent_mass: dict[int, Number] = {}
    for k in range(m):
        parent_mass[parent[k]] = parent_mass.get(parent[k], 0) + aux.get(k, 0)
    for a in range(space.n_atoms(i)):
        if prev.masses[a] > 0 and not parent_mass.get(a, 0) > 0:
            raise RecoveryError(
                f"recovered auxiliary probability vanishes on essential atom "
                f"{space.atom_label(i, a)}; the oracle violates normalization "
                f"across the step"
            )

    masses: list[Number] = [0] * m
    curves: list[MonotoneCurve] = [IdentityCurve()] * m
    for k, p in aux.items():
        a = parent[k]
        if prev.masses[a] == 0:
            continue
        # Z = dP_i/dP̃ and κ = dP̃/dP_{i+1} on the child atom.  P_0 is the unit
        # mass, so both are 1 at step 0: dividing by P̃'s float sum, which can
        # miss 1 in the last bit, would perturb P_1
        if i == 0:
            z = kappa = 1
        else:
            z, kappa = prev.masses[a] / parent_mass[a], parent_mass[a] / prev.masses[a]
        masses[k] = p * z
        if kappa != 1:  # at κ = 1 the points stay as tabulated, their 0 an exact int
            points[k] = [(x, kappa * y) for x, y in points[k]]
        curves[k] = PiecewiseLinearCurve.from_points(points[k])
    for a in range(space.n_atoms(i)):
        children_total = reduce(add, (masses[k] for k in range(m) if parent[k] == a), 0)
        if abs(children_total - prev.masses[a]) > 1e-9:
            raise RecoveryError(
                f"updated probability does not agree with the step-{i} one on "
                f"atom {space.atom_label(i, a)}"
            )
    offsets = tuple(float(col[zero]) for col in tab)
    return RecoveredStep(level, tuple(masses), tuple(curves), residual, null_atoms, offsets)


@dataclass(frozen=True)
class RecoveryResult:
    rep: Representation
    steps: tuple[RecoveredStep, ...]

    @property
    def max_debreu_residual(self) -> float:
        return max(s.debreu_residual for s in self.steps)


def recover_representation(
    oracle: PreferenceOracle,
    u0: MonotoneCurve,
    grid: ActGrid = DEFAULT_GRID,
    tol: float = 1e-10,
    require_three_essential: bool = True,
    debreu_tol: float = DEBREU_TOL,
) -> RecoveryResult:
    """Full reconstruction across every step the oracle supports.

    State weights spread each terminal atom's mass uniformly over its states;
    acts are terminal-measurable, so the choice is preference-irrelevant.
    Recovered curves at earlier levels enter the later composite functionals,
    so for ground truth that is not piecewise linear the additivity audit
    carries the grid interpolation error; widen ``debreu_tol`` accordingly.
    An oracle that is not ``exact`` recovers on the grid's float form.
    """
    space = oracle.space
    if space.n_times < 2:
        raise RecoveryError("recovery needs at least two times; the space has one")
    grid = grid_for(oracle, grid)
    steps: list[RecoveredStep] = []
    last = _initial_step(u0)
    for i in range(space.n_times - 1):
        last = recover_step_i(
            oracle, i, last, grid, tol, require_three_essential, debreu_tol
        )
        steps.append(last)
    part = space.partitions[last.level]
    P = ProbabilityMeasure(
        space, tuple(last.masses[k] / len(part[k]) for k in space.atom_index_map(last.level))
    )
    per_time: list[Sequence[MonotoneCurve]] = [[u0]]
    for step in steps:
        per_time.append(step.curves)
    field = UtilityField.from_atom_curves(space, per_time)
    return RecoveryResult(Representation(space, P, field), tuple(steps))


@dataclass(frozen=True)
class UniquenessResult:
    accepted: bool
    max_deviation: float
    witness: str | None = None

    def __bool__(self) -> bool:
        return self.accepted


def check_relative_uniqueness(
    rep_a: Representation,
    rep_b: Representation,
    xs: Sequence[Number] = DEFAULT_GRID.values,
    tol: float = 1e-9,
) -> UniquenessResult:
    """Whether rep_b is the delta-rescaling of rep_a: equivalent measures and
    u_b(t_i, x) = delta_i u_a(t_i, x) with delta_i the time-i density of P_a
    with respect to P_b, for every i >= 1 and positive-probability atom."""
    space = rep_a.space
    if space != rep_b.space:
        raise RecoveryError("representations live on different spaces")
    for s, (wa, wb) in enumerate(zip(rep_a.P.weights, rep_b.P.weights)):
        if (wa > 0) != (wb > 0):
            return UniquenessResult(
                False, float("inf"),
                f"state {space.states[s]} is null under exactly one measure",
            )
    worst = 0.0
    witness = None
    for i in range(space.n_times):
        for k in rep_a.P.positive_atoms(i):
            delta = rep_a.P.atom_mass(i, k) / rep_b.P.atom_mass(i, k) if i >= 1 else 1
            ua = rep_a.field.curve_on_atom(i, k)
            ub = rep_b.field.curve_on_atom(i, k)
            for x in xs:
                dev = abs(float(ub(x)) - float(delta) * float(ua(x)))
                if dev > worst:
                    worst = dev
                    witness = (
                        f"time index {i}, atom {space.atom_label(i, k)}, x={x}"
                    )
    return UniquenessResult(worst <= tol, worst, None if worst <= tol else witness)
