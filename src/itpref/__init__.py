"""Intertemporal preferences on finite filtered probability spaces.

Evaluate stochastic dynamic utilities, compute conditional certainty
equivalents, decide intertemporal preference queries, verify the preference
axioms by exhaustive search at desk scale, and recover the representing
(probability, utility) pair from a preference oracle.

The public surface is ``__all__``: every name imported below, and no
submodule.
"""

from types import ModuleType as _ModuleType

from .axioms import (
    ActGrid,
    CheckResult,
    DEFAULT_GRID,
    TransitionReport,
    audit_step,
    check_C,
    check_M,
    check_ST,
    check_T,
    derive_null_events,
    enumerate_simple_acts,
    render_audit,
    tri_partition,
)
from .curves import (
    ArgScaledCurve,
    ExponentialCurve,
    GapError,
    IdentityCurve,
    Jump,
    LinearCurve,
    MonotoneCurve,
    PiecewiseLinearCurve,
    PowerCurve,
    RangeError,
    ValueScaledCurve,
)
from .engine import (
    DiscountResult,
    NumeraireResult,
    PreconditionError,
    Representation,
    TriPartition,
    Verdict,
    cce,
    compare,
    density_process,
    discount_transform,
    expected_utility_profile,
    numeraire_transform,
    semigroup_residual,
    time_consistency_check,
)
from .filtered_space import (
    Act,
    Event,
    FilteredSpace,
    InvariantError,
    ProbabilityMeasure,
    conditional_expectation,
    is_measurable,
    is_null_event,
    maximal_null_event,
    null_events,
    paste,
)
from .oracles import (
    BracketError,
    InducedOracle,
    PreferenceOracle,
    QueryAnswer,
    indifference_profile,
)
from .recovery import (
    RecoveredStep,
    RecoveryError,
    RecoveryResult,
    UniquenessResult,
    check_relative_uniqueness,
    recover_representation,
    recover_step0,
    recover_step_i,
)
from .apps import (
    AppResult,
    dpp_scenario,
    forward_scenario,
    random8_scenario,
    run_dpp,
    run_forward_check,
    run_villa,
    villa_scenario,
)
from .scenario import ScenarioError, ScenarioSpec, StrategySet, load_scenario, save_scenario
from .utility_field import StarContinuityResult, UtilityField, is_star_continuous

__version__ = "0.1.0"

__all__ = [
    name for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
]
