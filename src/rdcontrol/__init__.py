"""Joint compression, congestion-control and scheduling optimization.

Couples lossy source coding (via the entropy-rate / distortion-offset
split of the rate-distortion function), congestion control and max-weight
scheduling through dual decomposition, with closed-form layer solvers,
brute-force oracles, and a two-user Gaussian-MAC distortion program.
"""

from .errors import (
    DomainError,
    GridTooLargeError,
    InconsistencyError,
    InfeasibleError,
    InfeasibleOffsetError,
    RdControlError,
    ScenarioError,
    UnsupportedCombinationError,
)
from .layers import (
    LogLinear,
    LogRate,
    SolverCaps,
    Zero,
    compression_given_rate,
    compression_subproblem,
    congestion_subproblem,
    operating_point,
)
from .mac import CornerSolution, MacScenario, entropy_point, lp_oracle, solve_corner
from .oracle import (
    Axis,
    GridSearchResult,
    GridSpec,
    KktReport,
    default_grid,
    grid_search_num,
    kkt_residuals,
)
from .orchestrator import (
    Constant,
    Diminishing,
    DualState,
    PrimalAllocation,
    Scenario,
    SolveReport,
    SourceSpec,
    Trace,
    dual_iterate,
    dual_objective,
    lagrangian_value,
    primal_objective,
    primal_violation,
    solve,
)
from .regions import BoxRegion, GaussianMacRegion, VertexRegion, capacity_C
from .scenario import (
    load_mac_scenario,
    load_scenario,
    mac_scenario_from_dict,
    scenario_from_dict,
)
from .sources import (
    BinarySource,
    alpha_beta,
    binary_entropy,
    distortion_from_beta,
    inverse_binary_entropy,
    rd_binary,
    source_entropy,
)

__version__ = "0.1.0"

__all__ = [
    "Axis",
    "BinarySource",
    "BoxRegion",
    "Constant",
    "CornerSolution",
    "Diminishing",
    "DomainError",
    "DualState",
    "GaussianMacRegion",
    "GridSearchResult",
    "GridSpec",
    "GridTooLargeError",
    "InconsistencyError",
    "InfeasibleError",
    "InfeasibleOffsetError",
    "KktReport",
    "LogLinear",
    "LogRate",
    "MacScenario",
    "PrimalAllocation",
    "RdControlError",
    "Scenario",
    "ScenarioError",
    "SolveReport",
    "SolverCaps",
    "SourceSpec",
    "Trace",
    "UnsupportedCombinationError",
    "VertexRegion",
    "Zero",
    "alpha_beta",
    "binary_entropy",
    "capacity_C",
    "compression_given_rate",
    "compression_subproblem",
    "congestion_subproblem",
    "default_grid",
    "distortion_from_beta",
    "dual_iterate",
    "dual_objective",
    "entropy_point",
    "grid_search_num",
    "inverse_binary_entropy",
    "kkt_residuals",
    "lagrangian_value",
    "load_mac_scenario",
    "load_scenario",
    "lp_oracle",
    "mac_scenario_from_dict",
    "operating_point",
    "primal_objective",
    "primal_violation",
    "rd_binary",
    "scenario_from_dict",
    "solve",
    "solve_corner",
    "source_entropy",
]
