"""Refinement of on-demand plans with leading spot dimensions.

For each task, candidate spot instances (of the task's on-demand type or a
more expensive one) are prepended to its configuration when a bidding price
can be found that passes two gates:

  * timing gate: the hybrid execution-time distribution must stochastically
    dominate (be everywhere at least as fast as, up to epsilon) the
    on-demand-only distribution, so per-task refinement cannot erode the
    workflow-level deadline guarantee;
  * cost gate: the estimated hybrid cost, charging spot usage at the bid
    price and weighting the on-demand fallback by the cumulative failure
    probability, must not exceed the expected on-demand cost.

Bidding prices are located by recursive bisection over [p_min, the spot
type's on-demand price]; too-costly bids move the search down, dominance
failures move it up, and the search reports not-found when the interval
collapses below a resolution threshold.
"""

from dataclasses import dataclass

import numpy as np

from .cloud_model import SECONDS_PER_HOUR, expected_ondemand_cost
from .distributions import EmpiricalDistribution, _aligned, derive_seed, dominates, substream
from .spot_market import estimate_ffp
from .workflow_dag import ConfigDim, HybridConfig


@dataclass
class RefineParams:
    n_dims: int = 2                     # total config length incl. the on-demand dim
    p_min: float = 0.001                # lowest bid considered, USD/hour
    bid_search_tolerance: float = 0.001  # interval width where bisection gives up
    dominance_epsilon: float = 0.01

    def __post_init__(self):
        if self.n_dims < 1:
            raise ValueError("n_dims must be >= 1")
        if self.p_min <= 0:
            raise ValueError("p_min must be positive")


def _bid_key(bid):
    return int(round(bid * 1e6))


def hybrid_time_distribution(spot_parts, od_dist, seed=0):
    """Task completion-time distribution under a hybrid configuration.

    spot_parts is a list of (spot_time_dist, first_failure_dist) pairs, one
    per spot dimension in execution order; od_dist is the on-demand
    distribution.  Sampling per trial: draw the would-be spot execution
    time and a first-failure time; if no failure strictly before the task
    finishes, the task completes on that spot instance, otherwise the
    failure time is consumed and execution cascades to the next dimension.
    Normalization across the branches is implicit in the sampler.
    """
    n = max([od_dist.sample_count] + [d.sample_count for d, _ in spot_parts])
    rng = substream(seed, "hybrid-mixture")
    # Time spent so far; a trial adds 0.0 once it has finished.
    elapsed = np.zeros(n)
    remaining = np.ones(n, dtype=bool)
    for spot_dist, ffp in spot_parts:
        if not remaining.any():
            break
        ts = _aligned(spot_dist, n, rng)
        fail_t = ffp.sample_failure_times(rng, n)
        failed = fail_t < ts
        elapsed += np.where(remaining, np.where(failed, fail_t, ts), 0.0)
        remaining &= failed
    if remaining.any():
        elapsed += np.where(remaining, _aligned(od_dist, n, rng), 0.0)
    return EmpiricalDistribution._adopt(elapsed)


def hybrid_cost(config, dim_dists, failure):
    """Estimated monetary cost of a task under a hybrid configuration (USD).

    Sample-average over index-paired execution-time draws (the distributions
    must have equal sample counts): every spot dimension is charged its bid
    price for the full would-be execution time (reached with the
    probability that all earlier dimensions failed), and the on-demand
    dimension is charged its price weighted by the probability that every
    spot dimension failed before the task could finish there.  Times are
    converted to hours.  This deliberately prices spot usage at the bid
    (an overestimate of the market price), while the simulator bills actual
    trace prices; the two bases are kept distinct.
    """
    dims = config.dims
    per_sample = 0.0
    reach = 1.0
    for dim, dist in zip(dims[:-1], dim_dists[:-1]):
        per_sample += reach * dim.price * dist.samples / SECONDS_PER_HOUR
        ffp = estimate_ffp(failure, dim.type_id, dim.price)
        reach = reach * ffp.cumulative_before_many(dist.samples)
    per_sample += reach * dims[-1].price * dim_dists[-1].samples / SECONDS_PER_HOUR
    return float(per_sample.mean())


def binary_search_bid(spot_type, od_dim, spot_dist, od_dist, failure, params,
                      p_low, p_high, seed=0):
    """Bisect for a bidding price passing both refinement gates.

    Returns the accepted bid or None (not found).  A midpoint whose hybrid
    cost exceeds the on-demand cost sends the search to the lower half; a
    midpoint failing the dominance gate sends it to the upper half.
    """
    if p_low > p_high or (p_high - p_low) < params.bid_search_tolerance:
        return None
    p_mid = (p_low + p_high) / 2.0

    candidate = HybridConfig((
        ConfigDim(spot_type.id, p_mid, True),
        od_dim,
    ))
    spot_cost = hybrid_cost(candidate, [spot_dist, od_dist], failure)
    od_cost = expected_ondemand_cost(od_dim.price, od_dist)
    if spot_cost > od_cost:
        return binary_search_bid(spot_type, od_dim, spot_dist, od_dist,
                                 failure, params, p_low, p_mid, seed=seed)

    ffp = estimate_ffp(failure, spot_type.id, p_mid)
    hybrid_dist = hybrid_time_distribution(
        [(spot_dist, ffp)], od_dist,
        seed=derive_seed(seed, "bid", spot_type.id, _bid_key(p_mid)),
    )
    if not dominates(hybrid_dist, od_dist, params.dominance_epsilon):
        return binary_search_bid(spot_type, od_dim, spot_dist, od_dist,
                                 failure, params, p_mid, p_high, seed=seed)
    return p_mid


def refine_task(task_id, ondemand_type, catalog, failure, cache, params=None, seed=0):
    """Hybrid configuration for one task, given its on-demand type.

    Scans candidate spot types from the on-demand type up to the most
    expensive type for each spot dimension; the last candidate whose bid
    search succeeds wins the dimension (deliberately keeping the scan's
    last-writer-wins order).  Dimensions with no acceptable bid are omitted.
    Pure per task: refining one task never touches another's configuration.
    """
    params = params if params is not None else RefineParams()
    od_dim = ConfigDim(ondemand_type.id, ondemand_type.ondemand_price, False)
    od_dist = cache.dist(task_id, ondemand_type.id)

    slots = [None] * (params.n_dims - 1)
    if failure is not None:
        for dim_idx in range(params.n_dims - 1):
            for spot_type_id in range(ondemand_type.id, len(catalog)):
                if not failure.has_trace(spot_type_id):
                    continue
                spot_type = catalog[spot_type_id]
                p_max = spot_type.ondemand_price
                bid = binary_search_bid(
                    spot_type, od_dim,
                    cache.dist(task_id, spot_type_id), od_dist,
                    failure, params, params.p_min, p_max,
                    seed=derive_seed(seed, "refine", task_id, dim_idx),
                )
                if bid is not None:
                    slots[dim_idx] = ConfigDim(spot_type_id, bid, True)

    dims = tuple(s for s in slots if s is not None) + (od_dim,)
    return HybridConfig(dims)


def refine_plan(job, plan, catalog, failure, cache, params=None, seed=0):
    """Refine every task of an on-demand plan; returns HybridConfig per task id."""
    return [
        refine_task(task.id, catalog[plan[task.id]], catalog, failure, cache,
                    params=params, seed=seed)
        for task in job.tasks
    ]


def check_refinement(task_id, config, failure, cache, params=None, seed=0):
    """Re-evaluate the acceptance gates of a refined config.

    Reproduces the estimator runs the bid search performed when it accepted
    each spot dimension (same seeds, same pairing), so a config returned by
    refine_task must pass.  Returns (cost_ok, dominance_ok).  The evaluation
    is the per-dimension two-instance form: each spot dimension is checked
    against the on-demand base it was accepted against.
    """
    params = params if params is not None else RefineParams()
    od_dim = config.ondemand_dim
    od_dist = cache.dist(task_id, od_dim.type_id)
    if not config.spot_dims:
        return True, True
    cost_ok = True
    dominance_ok = True
    od_cost = expected_ondemand_cost(od_dim.price, od_dist)
    for dim_idx, dim in enumerate(config.spot_dims):
        spot_dist = cache.dist(task_id, dim.type_id)
        candidate = HybridConfig((dim, od_dim))
        cost_ok = cost_ok and (
            hybrid_cost(candidate, [spot_dist, od_dist], failure) <= od_cost
        )
        ffp = estimate_ffp(failure, dim.type_id, dim.price)
        task_seed = derive_seed(seed, "refine", task_id, dim_idx)
        hd = hybrid_time_distribution(
            [(spot_dist, ffp)], od_dist,
            seed=derive_seed(task_seed, "bid", dim.type_id, _bid_key(dim.price)),
        )
        dominance_ok = dominance_ok and dominates(hd, od_dist, params.dominance_epsilon)
    return cost_ok, dominance_ok
