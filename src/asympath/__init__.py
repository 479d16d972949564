"""Exact-arithmetic solvers and LP bounds for asymmetric s-t path problems:
the traveling salesman path, its k-person variant, and directed latency.
"""

from .atspp import HamPath, multipath_cover, solve_atspp, solve_k_person
from .cover import KPathCycleCover, min_k_path_cycle_cover, strengthen_fractional_cover
from .errors import (
    AcyclicityError,
    ContractError,
    DegenerateLatencyError,
    InfeasibleError,
    InputError,
    InvariantError,
    SizeLimitError,
    SolverError,
)
from .graphs import ArcFlow, Decomposition
from .latency import LatencyOrder, append, solve_latency, total_latency
from .lp import (
    LatencyLpSolution,
    build_latency_lp,
    normalize_latencies,
    solve_latency_lp,
    solve_lp_alpha,
)
from .metric import (
    MetricInstance,
    gen_bad_gap,
    gen_random,
    induced_subinstance,
    load_instance,
    metric_closure,
    save_instance,
    validate,
)
from .oracle import ExactResult, exact_atspp, exact_k_person, exact_latency
from .simplex import LpModel, LpSolution, simplex_solve

__version__ = "0.1.0"
