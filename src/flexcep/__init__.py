"""Nodal capacity expansion planning with flexible large-load siting.

Solve planning instances either as one extensive-form MILP or via an
augmented progressive hedging decomposition with dualized cross-scenario
expectation constraints and lower/upper bound tracking.
"""

from .core import (
    Branch,
    Bus,
    ExpectationConstraintSpec,
    FULL_FLEX,
    GenTech,
    INFLEXIBLE,
    LargeLoadTech,
    Mandate,
    PlanningInstance,
    Scenario,
    StorageTech,
    TierSpec,
    Violation,
    compare_tiers,
    enumerate_expectation_constraints,
    validate_instance,
)
from .canonical import (
    CanonicalModel,
    SolveResult,
    VariableIndex,
    objective_value,
    relax_integrality,
    restrict_bounds,
)
from .build import (
    build_extensive_form,
    build_scenario_subproblem,
    first_stage_info,
)
from .solvers import SolverConfig, solve
from .pha import (
    PHAConfig,
    PHAState,
    consensus_metric,
    lagrangian_lower_bound,
    run_pha,
)
from .oracle import brute_force_optimum, generate
from .report import SolveReport
from .storage import load_instance, save_instance, save_report

__version__ = "0.1.0"
