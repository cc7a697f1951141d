"""Cost-minimizing workflow planning and simulation for rented cloud instances.

The package plans DAG workflows onto instance types so that monetary cost is
minimized subject to a probabilistic deadline guarantee, optionally refines
each task with a spot instance and bid price in front of its on-demand
instance, and validates plans with a deterministic discrete-event
simulator replaying historical spot price traces.
"""

from .cloud_model import (
    Catalog,
    CatalogError,
    GammaSpec,
    InstanceType,
    NormalSpec,
    TaskProfile,
    default_catalog,
    expected_ondemand_cost,
    load_catalog,
    task_time_distribution,
)
from .distributions import (
    DEFAULT_SAMPLE_COUNT,
    EmpiricalDistribution,
    convolve,
    derive_seed,
    dominates,
    max_of,
    substream,
)
from .planner_astar import (
    AStarParams,
    InfeasiblePlanError,
    JobPlan,
    TaskDistCache,
    astar_configure,
    load_plan_cache,
    plan_cost,
    plan_distribution,
    save_plan_cache,
)
from .planner_hybrid import (
    binary_search_bid,
    check_refinement,
    hybrid_cost,
    hybrid_time_distribution,
    refine_plan,
    refine_task,
)
from .simulator import (
    PlanMismatchError,
    SimConfig,
    SimReport,
    SimulationError,
    Simulator,
    bill,
)
from .spot_market import (
    FailureModel,
    FirstFailureDistribution,
    SpotPriceTrace,
    TraceError,
    estimate_ffp,
    load_trace,
)
from .workflow_dag import (
    ConfigDim,
    CycleError,
    HybridConfig,
    Task,
    WorkflowError,
    WorkflowJob,
    build_job,
    deadline_bounds,
    epigenomics_like,
    is_feasible,
    ligo_like,
    load_workflow,
    montage_like,
    save_workflow,
    workflow_time_distribution,
)

__version__ = "0.1.0"
