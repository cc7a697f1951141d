"""Refinement of on-demand plans with one leading spot dimension.

Each task may gain one spot instance, of its on-demand type or a more
expensive one, in front of its on-demand instance when a bidding price can
be found that passes two gates:

  * timing gate: the hybrid execution-time distribution must stochastically
    dominate (be everywhere at least as fast as, up to epsilon) the
    on-demand-only distribution, so per-task refinement cannot erode the
    workflow-level deadline guarantee;
  * cost gate: the estimated hybrid cost, charging spot usage at the bid
    price and weighting the on-demand fallback by the cumulative failure
    probability, must not exceed the expected on-demand cost.  It is
    computed in bucket space over the failure model's time grid.

Bidding prices are located by recursive bisection over [P_MIN, the spot
type's on-demand price]; too-costly bids move the search down, dominance
failures move it up, and the search reports not-found when the interval
collapses below BID_SEARCH_TOLERANCE.  Spot types are tried from the most
expensive down to the on-demand type, and the first accepted bid wins.

Cost floor.  Every bid shares the failure model's walks, so a lower bid
fails at least as often and its fallback sum is at least as large.  When
the cost gate fails at a midpoint, each bid of the lower half therefore
costs at least the midpoint's cost with the spot term re-priced at the
half's low end.  When that floor exceeds the on-demand cost by more than
COST_FLOOR_MARGIN (relative), every step of the lower half would fail the
cost gate and the search reports not-found at once.  The margin is far
above the rounding of the floor and of the gate's sums, so the accepted
bids are those of the full bisection.
"""

import numpy as np

from .cloud_model import SECONDS_PER_HOUR, expected_ondemand_cost
from .distributions import EmpiricalDistribution, _paired, derive_seed, dominates, substream
from .spot_market import STEP, estimate_ffp
from .workflow_dag import ConfigDim, HybridConfig

P_MIN = 0.001                 # lowest bid considered, USD/hour
BID_SEARCH_TOLERANCE = 0.001  # interval width where bisection gives up
DOMINANCE_EPSILON = 0.01
COST_FLOOR_MARGIN = 1e-9      # relative; see the module docstring


def _bid_key(bid):
    return int(round(bid * 1e6))


def hybrid_time_distribution(spot_dist, ffp, od_dist, seed=0):
    """Task completion-time distribution with one spot dimension.

    spot_dist and od_dist are the task's execution-time distributions on
    the spot and on-demand types, with equal sample counts; ffp is the spot
    instance's first-failure distribution.  Sampling per trial: draw the
    would-be spot execution time t and a uniform u.  The spot instance
    fails before the task finishes iff u < ffp.cumulative_before(t), the
    law the cost gate charges; then the failure time, the last grid point
    whose failed_before share is at most u, is spent and the task reruns
    on demand.  Both operands are shuffled: they can be the same
    distribution object, and the rerun must not reuse the spot attempt's
    sample index.
    """
    spot_samples, od_samples = _paired((spot_dist, od_dist))
    rng = substream(seed, "hybrid-mixture")
    times = spot_samples.copy()
    rng.shuffle(times)
    u = rng.random(times.size)
    reruns = od_samples.copy()
    rng.shuffle(reruns)
    failed = np.flatnonzero(u < ffp.cumulative_before(times))
    fail_t = STEP * (ffp.failed_before.searchsorted(u[failed], "right") - 1)
    times[failed] = fail_t + reruns[failed]
    return EmpiricalDistribution._adopt(times)


def hybrid_cost(config, dim_dists, failure):
    """Estimated monetary cost of a task under a hybrid configuration (USD).

    dim_dists holds the task's time distribution on each dimension.  An
    on-demand-only config costs its expected on-demand cost.  With a spot
    dimension, the average over index-paired samples charges the bid for
    the spot time, plus the on-demand price for the on-demand time weighted
    by the probability that the spot instance fails before the task
    finishes there.  Spot usage is deliberately priced at the bid (above
    the market price); the simulator bills actual trace prices.

    In bucket space the average is (bid * E[spot] + p_od * sum_k F_k * W_k
    / n) / 3600, the sum taken by FailureModel.fallback_time_sum; it equals
    the per-sample mean up to rounding.
    """
    if not config.spot_dims:
        return expected_ondemand_cost(config.ondemand_dim.price, dim_dists[0])
    spot_dim, od_dim = config.dims
    spot_dist, od_dist = dim_dists
    ffp = estimate_ffp(failure, spot_dim.type_id, spot_dim.price)
    fallback = failure.fallback_time_sum(ffp, spot_dist, od_dist)
    return (spot_dim.price * spot_dist.expectation()
            + od_dim.price * fallback / spot_dist.sample_count) / SECONDS_PER_HOUR


def _gate_costs(spot_dim, od_dim, spot_dist, od_dist, failure):
    """(hybrid cost, on-demand cost) of the cost gate, which passes when
    the first is at most the second."""
    candidate = HybridConfig((spot_dim, od_dim))
    return (hybrid_cost(candidate, [spot_dist, od_dist], failure),
            expected_ondemand_cost(od_dim.price, od_dist))


def _dominance_ok(spot_dim, spot_dist, od_dist, failure, seed):
    """Timing gate: the hybrid time distribution dominates the on-demand one.

    seed is the task's refinement seed; the hybrid sampler's seed is
    derived from it, the spot type and the bid.
    """
    ffp = estimate_ffp(failure, spot_dim.type_id, spot_dim.price)
    hybrid_dist = hybrid_time_distribution(
        spot_dist, ffp, od_dist,
        seed=derive_seed(seed, "bid", spot_dim.type_id, _bid_key(spot_dim.price)),
    )
    return dominates(hybrid_dist, od_dist, DOMINANCE_EPSILON)


def binary_search_bid(spot_type, od_dim, spot_dist, od_dist, failure,
                      p_low, p_high, seed=0):
    """Bisect for a bidding price passing both refinement gates.

    Returns the accepted bid or None (not found).  A midpoint whose hybrid
    cost exceeds the on-demand cost sends the search to the lower half,
    unless the cost floor (see the module docstring) rules the whole half
    out; a midpoint failing the dominance gate sends it to the upper half.
    """
    if p_low > p_high or (p_high - p_low) < BID_SEARCH_TOLERANCE:
        return None
    p_mid = (p_low + p_high) / 2.0
    spot_dim = ConfigDim(spot_type.id, p_mid, True)
    cost, od_cost = _gate_costs(spot_dim, od_dim, spot_dist, od_dist, failure)
    if cost > od_cost:
        floor = cost - (p_mid - p_low) * spot_dist.expectation() / SECONDS_PER_HOUR
        if floor > od_cost * (1.0 + COST_FLOOR_MARGIN):
            return None
        return binary_search_bid(spot_type, od_dim, spot_dist, od_dist,
                                 failure, p_low, p_mid, seed=seed)
    if not _dominance_ok(spot_dim, spot_dist, od_dist, failure, seed):
        return binary_search_bid(spot_type, od_dim, spot_dist, od_dist,
                                 failure, p_mid, p_high, seed=seed)
    return p_mid


def refine_task(task_id, ondemand_type, failure, cache, seed=0):
    """Hybrid configuration for one task, given its on-demand type.

    Scans spot types from the most expensive down to the on-demand type and
    puts the first one whose bid search succeeds in front of the on-demand
    dimension; with none, the task stays on demand.  Types without a trace
    in `failure` have no spot market and are skipped, so a failure model
    without traces keeps every task on demand.  Every search uses the
    task's ("refine", task, 0) seed and pure memos, so the winner does not
    depend on the scan order: it is the type an ascending scan that keeps
    its last success would pick.  Pure per task: refining one task never touches another's
    configuration.  Spot types come from the cache's catalog.
    """
    od_dim = ConfigDim(ondemand_type.id, ondemand_type.ondemand_price, False)
    od_dist = cache.dist(task_id, ondemand_type.id)
    task_seed = derive_seed(seed, "refine", task_id, 0)
    for spot_type_id in range(len(cache.catalog) - 1, ondemand_type.id - 1, -1):
        if not failure.has_trace(spot_type_id):
            continue
        spot_type = cache.catalog[spot_type_id]
        bid = binary_search_bid(
            spot_type, od_dim, cache.dist(task_id, spot_type_id), od_dist,
            failure, P_MIN, spot_type.ondemand_price, seed=task_seed,
        )
        if bid is not None:
            return HybridConfig((ConfigDim(spot_type_id, bid, True), od_dim))
    return HybridConfig.ondemand_only(ondemand_type)


def refine_plan(job, plan, failure, cache, seed=0):
    """Refine every task of an on-demand plan; returns HybridConfig per task id."""
    return [
        refine_task(task.id, cache.catalog[plan[task.id]], failure, cache, seed=seed)
        for task in job.tasks
    ]


def check_refinement(task_id, config, failure, cache, seed=0):
    """Re-evaluate the acceptance gates of a refined config.

    Reproduces the estimator runs the bid search made when it accepted the
    config's spot dimension (same seeds, same pairing), so a config
    returned by refine_task passes.  Returns (cost_ok, dominance_ok); an
    on-demand-only config passes both.
    """
    if not config.spot_dims:
        return True, True
    spot_dim, od_dim = config.dims
    spot_dist = cache.dist(task_id, spot_dim.type_id)
    od_dist = cache.dist(task_id, od_dim.type_id)
    cost, od_cost = _gate_costs(spot_dim, od_dim, spot_dist, od_dist, failure)
    return (cost <= od_cost,
            _dominance_ok(spot_dim, spot_dist, od_dist, failure,
                          derive_seed(seed, "refine", task_id, 0)))
