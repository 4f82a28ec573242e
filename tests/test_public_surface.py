"""The package's public surface, pinned: ``itpref.__all__`` names every
public object and no submodule.  Adding or removing a name is an API change:
it edits ``PUBLIC`` and is declared in CHANGES.md.

The test imports nothing but the package, so it can run against an
installed copy from outside the checkout.
"""

from __future__ import annotations

from types import ModuleType

import itpref

PUBLIC = [
    "Act", "ActGrid", "AppResult", "ArgScaledCurve", "BracketError", "CheckResult",
    "DEFAULT_GRID", "DiscountResult", "Event", "ExponentialCurve", "FilteredSpace",
    "GapError", "IdentityCurve", "InducedOracle", "InvariantError", "Jump",
    "LinearCurve", "MonotoneCurve", "NumeraireResult", "PiecewiseLinearCurve",
    "PowerCurve", "PreconditionError", "PreferenceOracle", "ProbabilityMeasure",
    "QueryAnswer", "RangeError", "RecoveredStep", "RecoveryError", "RecoveryResult",
    "Representation", "ScenarioError", "ScenarioSpec", "StarContinuityResult",
    "StrategySet", "TransitionReport", "TriPartition", "UniquenessResult",
    "UtilityField", "ValueScaledCurve", "Verdict", "audit_step", "cce", "check_C",
    "check_M", "check_ST", "check_T", "check_relative_uniqueness", "compare",
    "conditional_expectation", "density_process", "derive_null_events",
    "discount_transform", "dpp_scenario", "enumerate_simple_acts",
    "expected_utility_profile", "forward_scenario", "indifference_profile",
    "is_measurable", "is_null_event", "is_star_continuous", "load_scenario",
    "maximal_null_event", "null_events", "numeraire_transform", "paste",
    "random8_scenario", "recover_representation", "recover_step0", "recover_step_i",
    "render_audit", "run_dpp", "run_forward_check", "run_villa", "save_scenario",
    "semigroup_residual", "time_consistency_check", "tri_partition", "villa_scenario",
]


def test_all_is_the_pinned_list():
    assert sorted(itpref.__all__) == PUBLIC


def test_every_name_resolves_to_an_object_that_is_not_a_module():
    for name in itpref.__all__:
        assert not isinstance(getattr(itpref, name), ModuleType), name


def test_a_star_import_binds_exactly_the_surface():
    namespace: dict = {}
    exec("from itpref import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC
