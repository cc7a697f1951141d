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
    probability, must not exceed the expected on-demand cost.

Bidding prices are located by recursive bisection over [P_MIN, the spot
type's on-demand price]; too-costly bids move the search down, dominance
failures move it up, and the search reports not-found when the interval
collapses below BID_SEARCH_TOLERANCE.  Spot types are tried from the most
expensive down to the on-demand type, and the first accepted bid wins.
"""

import numpy as np

from .cloud_model import SECONDS_PER_HOUR, expected_ondemand_cost
from .distributions import EmpiricalDistribution, _paired, derive_seed, dominates, substream
from .spot_market import estimate_ffp
from .workflow_dag import ConfigDim, HybridConfig

P_MIN = 0.001                 # lowest bid considered, USD/hour
BID_SEARCH_TOLERANCE = 0.001  # interval width where bisection gives up
DOMINANCE_EPSILON = 0.01


def _bid_key(bid):
    return int(round(bid * 1e6))


def hybrid_time_distribution(spot_dist, ffp, od_dist, seed=0):
    """Task completion-time distribution with one spot dimension.

    spot_dist and od_dist are the task's execution-time distributions on
    the spot and on-demand types, with equal sample counts; ffp is the spot
    instance's first-failure distribution.  Sampling per trial: draw the
    would-be spot execution time and a first-failure time; if no failure
    strictly before the task finishes, the task completes on the spot
    instance, otherwise the failure time is spent and the task reruns on
    demand.  Both operands are permuted: they can be the same distribution
    object, and the rerun must not reuse the spot attempt's sample index.
    """
    spot_samples, od_samples = _paired((spot_dist, od_dist))
    n = spot_samples.size
    rng = substream(seed, "hybrid-mixture")
    ts = spot_samples[rng.permutation(n)]
    fail_t = ffp.sample_failure_times(rng, n)
    failed = fail_t < ts
    if not failed.any():
        return EmpiricalDistribution._adopt(ts)
    od = od_samples[rng.permutation(n)]
    return EmpiricalDistribution._adopt(np.where(failed, fail_t + od, ts))


def hybrid_cost(config, dim_dists, failure):
    """Estimated monetary cost of a task under a hybrid configuration (USD).

    dim_dists holds the task's time distribution on each dimension.  An
    on-demand-only config costs its expected on-demand cost.  With a spot
    dimension, the average over index-paired samples charges the bid for
    the spot time, plus the on-demand price for the on-demand time weighted
    by the probability that the spot instance fails before the task
    finishes there.  Spot usage is deliberately priced at the bid (above
    the market price); the simulator bills actual trace prices.
    """
    if not config.spot_dims:
        return expected_ondemand_cost(config.ondemand_dim.price, dim_dists[0])
    spot_dim, od_dim = config.dims
    spot, od = dim_dists[0].samples, dim_dists[1].samples
    failed = estimate_ffp(failure, spot_dim.type_id, spot_dim.price).cumulative_before(spot)
    per_sample = (spot_dim.price * spot / SECONDS_PER_HOUR
                  + failed * od_dim.price * od / SECONDS_PER_HOUR)
    return float(per_sample.mean())


def _cost_ok(spot_dim, od_dim, spot_dist, od_dist, failure):
    """Cost gate: the hybrid's estimated cost is at most the on-demand cost."""
    candidate = HybridConfig((spot_dim, od_dim))
    return (hybrid_cost(candidate, [spot_dist, od_dist], failure)
            <= expected_ondemand_cost(od_dim.price, od_dist))


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
    cost exceeds the on-demand cost sends the search to the lower half; a
    midpoint failing the dominance gate sends it to the upper half.
    """
    if p_low > p_high or (p_high - p_low) < BID_SEARCH_TOLERANCE:
        return None
    p_mid = (p_low + p_high) / 2.0
    spot_dim = ConfigDim(spot_type.id, p_mid, True)
    if not _cost_ok(spot_dim, od_dim, spot_dist, od_dist, failure):
        return binary_search_bid(spot_type, od_dim, spot_dist, od_dist,
                                 failure, p_low, p_mid, seed=seed)
    if not _dominance_ok(spot_dim, spot_dist, od_dist, failure, seed):
        return binary_search_bid(spot_type, od_dim, spot_dist, od_dist,
                                 failure, p_mid, p_high, seed=seed)
    return p_mid


def refine_task(task_id, ondemand_type, catalog, failure, cache, seed=0):
    """Hybrid configuration for one task, given its on-demand type.

    Scans spot types from the most expensive down to the on-demand type and
    puts the first one whose bid search succeeds in front of the on-demand
    dimension; with none, or with no failure model (no spot market), the
    task stays on demand.  Every search uses the task's ("refine", task, 0)
    seed and pure memos, so the winner does not depend on the scan order:
    it is the type an ascending scan that keeps its last success would
    pick.  Pure per task: refining one task never touches another's
    configuration.
    """
    if failure is not None:
        od_dim = ConfigDim(ondemand_type.id, ondemand_type.ondemand_price, False)
        od_dist = cache.dist(task_id, ondemand_type.id)
        task_seed = derive_seed(seed, "refine", task_id, 0)
        for spot_type_id in range(len(catalog) - 1, ondemand_type.id - 1, -1):
            if not failure.has_trace(spot_type_id):
                continue
            spot_type = catalog[spot_type_id]
            bid = binary_search_bid(
                spot_type, od_dim, cache.dist(task_id, spot_type_id), od_dist,
                failure, P_MIN, spot_type.ondemand_price, seed=task_seed,
            )
            if bid is not None:
                return HybridConfig((ConfigDim(spot_type_id, bid, True), od_dim))
    return HybridConfig.ondemand_only(ondemand_type)


def refine_plan(job, plan, catalog, failure, cache, seed=0):
    """Refine every task of an on-demand plan; returns HybridConfig per task id."""
    return [
        refine_task(task.id, catalog[plan[task.id]], catalog, failure, cache, seed=seed)
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
    return (_cost_ok(spot_dim, od_dim, spot_dist, od_dist, failure),
            _dominance_ok(spot_dim, spot_dist, od_dist, failure,
                          derive_seed(seed, "refine", task_id, 0)))
