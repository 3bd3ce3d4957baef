"""Partial identification of causal effects from 2x2 tables.

Pipeline: a contingency table is normalized to an ObservedJoint; the
identified interval for the observational contrast psi is computed by
optimizing over probability measures on a discretized unit cube of
(propensity, prognosis-without, prognosis-with) triples under moment
budgets (f, g); a bias parameter K (or a range for it) then shifts the
interval onto the causal contrast tau.  A discrete simulator with
exactly enumerable oracles validates the whole chain.
"""
from .bounds import (
    BoundsRequest,
    EqualityInfeasibleError,
    GridColumns,
    GridSpec,
    InfeasibleBudgetError,
    IterationLimitError,
    minimal_budget,
    solve_bounds,
)
from .core import (
    AtomicMeasure,
    ContingencyTable,
    DegenerateTableError,
    IdentifiedInterval,
    MomentBudget,
    ObservedJoint,
    normalize,
    relative_risk,
    risk_difference,
    risk_x0,
    risk_x1,
)
from .sensitivity import (
    BiasDecomposition,
    IndividualProfile,
    ShiftedRange,
    calibrate_budget,
    decompose,
    k_individual,
    population_k,
    shift_interval,
    shift_interval_range,
)
from .sim import (
    CoverageReport,
    OracleSummary,
    PopulationSpec,
    RunRecord,
    TypeOracle,
    VersionModel,
    coverage_experiment,
    oracle,
    sample,
    tabulate,
)

__version__ = "0.1.0"

__all__ = [
    "AtomicMeasure",
    "BiasDecomposition",
    "BoundsRequest",
    "ContingencyTable",
    "CoverageReport",
    "DegenerateTableError",
    "EqualityInfeasibleError",
    "GridColumns",
    "GridSpec",
    "IdentifiedInterval",
    "IndividualProfile",
    "InfeasibleBudgetError",
    "IterationLimitError",
    "MomentBudget",
    "ObservedJoint",
    "OracleSummary",
    "PopulationSpec",
    "RunRecord",
    "ShiftedRange",
    "TypeOracle",
    "VersionModel",
    "calibrate_budget",
    "coverage_experiment",
    "decompose",
    "k_individual",
    "minimal_budget",
    "normalize",
    "oracle",
    "population_k",
    "relative_risk",
    "risk_difference",
    "risk_x0",
    "risk_x1",
    "sample",
    "shift_interval",
    "shift_interval_range",
    "solve_bounds",
    "tabulate",
]
