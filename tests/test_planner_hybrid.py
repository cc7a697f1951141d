import numpy as np
import pytest

from spotflow.cloud_model import GammaSpec, _positive_draw, expected_ondemand_cost
from spotflow.distributions import EmpiricalDistribution, derive_seed, dominates, substream
from spotflow.planner_astar import TaskDistCache, astar_configure
from spotflow.planner_hybrid import (
    DOMINANCE_EPSILON,
    P_MIN,
    binary_search_bid,
    check_refinement,
    hybrid_cost,
    hybrid_time_distribution,
    refine_plan,
    refine_task,
)
from spotflow.spot_market import FailureModel, FirstFailureDistribution, estimate_ffp
from spotflow.workflow_dag import ConfigDim, HybridConfig, deadline_bounds

from conftest import (
    alternating_trace,
    chain_job,
    constant_trace,
    cpu_profile,
    ordered_catalog,
    stable_trace,
)


def pm(value, n=2000):
    return EmpiricalDistribution(np.full(n, value))


def synthetic_ffp(step, count_by_bucket, trials):
    nbuckets = max(count_by_bucket) + 1 if count_by_bucket else 1
    counts = np.zeros(nbuckets, dtype=np.int64)
    for bucket, count in count_by_bucket.items():
        counts[bucket] = count
    return FirstFailureDistribution(step=step, counts=counts, trials=trials)


def preset_model(type_id, bid, dist, **kwargs):
    """Failure model with an injected first-failure distribution."""
    model = FailureModel(traces={type_id: constant_trace(0.01)}, num_trials=10, **kwargs)
    model._cache[(type_id, float(bid))] = dist
    return model


class TestHybridTimeDistribution:
    def test_never_failing_equals_spot_distribution(self):
        spot = EmpiricalDistribution(_positive_draw(GammaSpec(5, 60), substream(1, "gamma"), 4000))
        od = EmpiricalDistribution(_positive_draw(GammaSpec(5, 80), substream(2, "gamma"), 4000))
        ffp = synthetic_ffp(60.0, {}, trials=1)
        got = hybrid_time_distribution(spot, ffp, od, seed=3)
        for q in np.linspace(0, 1, 21):
            assert got.percentile(q) == pytest.approx(spot.percentile(q))

    def test_certain_immediate_failure_equals_ondemand(self):
        spot = EmpiricalDistribution(_positive_draw(GammaSpec(5, 60), substream(1, "gamma"), 4000))
        od = EmpiricalDistribution(_positive_draw(GammaSpec(5, 80), substream(2, "gamma"), 4000))
        ffp = synthetic_ffp(60.0, {0: 1}, trials=1)
        got = hybrid_time_distribution(spot, ffp, od, seed=3)
        for q in np.linspace(0, 1, 21):
            assert got.percentile(q) == pytest.approx(od.percentile(q))

    def test_two_branch_hand_enumeration(self):
        # Spot takes 10 s, on-demand 8 s; failure hits at t=5 with prob 0.5.
        spot, od = pm(10.0), pm(8.0)
        ffp = synthetic_ffp(5.0, {1: 1}, trials=2)
        got = hybrid_time_distribution(spot, ffp, od, seed=4)
        values = set(np.round(got.samples, 9))
        assert values == {10.0, 13.0}
        frac_13 = float(np.mean(got.samples == 13.0))
        assert frac_13 == pytest.approx(0.5, abs=0.03)

    def test_unequal_sample_counts_rejected(self):
        ffp = synthetic_ffp(5.0, {1: 1}, trials=2)
        with pytest.raises(ValueError, match="unequal sample counts"):
            hybrid_time_distribution(pm(10.0, 2000), ffp, pm(8.0, 1000), seed=5)


class TestHybridCost:
    def test_never_failing_spot_charges_bid_only(self):
        config = HybridConfig((ConfigDim(0, 0.1, True), ConfigDim(0, 0.2, False)))
        model = preset_model(0, 0.1, synthetic_ffp(60.0, {}, trials=1))
        cost = hybrid_cost(config, [pm(1800.0), pm(1800.0)], model)
        assert cost == pytest.approx(0.1 * 0.5)

    def test_half_failure_hand_computation(self):
        # cumulative failure before the 0.5 h spot time is exactly 0.5.
        config = HybridConfig((ConfigDim(0, 0.1, True), ConfigDim(0, 0.2, False)))
        model = preset_model(0, 0.1, synthetic_ffp(900.0, {1: 1}, trials=2))
        cost = hybrid_cost(config, [pm(1800.0), pm(1800.0)], model)
        assert cost == pytest.approx(0.1 * 0.5 + 0.5 * 0.2 * 0.5)

    def test_zero_duration_task_costs_nothing(self):
        config = HybridConfig((ConfigDim(0, 0.1, True), ConfigDim(0, 0.2, False)))
        model = preset_model(0, 0.1, synthetic_ffp(60.0, {0: 1}, trials=1))
        cost = hybrid_cost(config, [pm(0.0), pm(0.0)], model)
        assert cost == 0.0

    def test_ondemand_cost(self):
        assert expected_ondemand_cost(0.2, pm(1800.0)) == pytest.approx(0.1)

    def test_ondemand_only_config_is_the_plan_search_cost(self):
        # One on-demand cost formula: on a dyna-ns plan, every task's hybrid
        # cost is the search's TaskDistCache.cost, bit for bit.
        catalog = ordered_catalog(3)
        job = chain_job([cpu_profile(600.0), cpu_profile(450.0), cpu_profile(1300.0)],
                        guarantee_p=0.9)
        d_min, d_max = deadline_bounds(job, catalog, n=1000, seed=5)
        job = job.with_deadline((d_min + d_max) / 2)
        cache = TaskDistCache(job, catalog, 2000, 5)
        plan = astar_configure(job, catalog, cache=cache, seed=5)
        for task in job.tasks:
            config = HybridConfig.ondemand_only(catalog[plan[task.id]])
            got = hybrid_cost(config, [cache.dist(task.id, plan[task.id])], None)
            assert got == cache.cost(task.id, plan[task.id])


class FixtureContext:
    """Shared planning context on the strictly ordered 2-type catalog."""

    def __init__(self, trace, seed=11, guarantee_p=0.9):
        self.catalog = ordered_catalog(2)
        job = chain_job([cpu_profile(600.0)], guarantee_p=guarantee_p)
        d_min, d_max = deadline_bounds(job, self.catalog, n=1000, seed=seed)
        self.job = job.with_deadline(d_max * 1.5)
        self.cache = TaskDistCache(self.job, self.catalog, 2000, seed)
        self.failure = FailureModel(traces={0: trace, 1: trace},
                                    num_trials=4000, rng_seed=seed)


class TestBinarySearchBid:
    def test_stable_cheap_trace_finds_bid(self):
        ctx = FixtureContext(stable_trace(0.024, hours=300))
        od_dim = ConfigDim(0, 0.06, False)
        dist = ctx.cache.dist(0, 0)
        bid = binary_search_bid(ctx.catalog[0], od_dim, dist, dist,
                                ctx.failure, 0.001, 0.06, seed=1)
        assert bid is not None
        config = HybridConfig((ConfigDim(0, bid, True), od_dim))
        assert hybrid_cost(config, [dist, dist], ctx.failure) < expected_ondemand_cost(0.06, dist)

    def test_unaffordable_market_returns_not_found(self):
        # Price is always above every searchable bid: any hybrid pays both
        # the (failing) spot time and the on-demand fallback.
        ctx = FixtureContext(constant_trace(0.30))
        od_dim = ConfigDim(0, 0.06, False)
        dist = ctx.cache.dist(0, 0)
        bid = binary_search_bid(ctx.catalog[0], od_dim, dist, dist,
                                ctx.failure, 0.001, 0.06, seed=1)
        assert bid is None

    def test_returned_bid_lies_in_linear_scan_passing_set(self):
        ctx = FixtureContext(alternating_trace(low=0.01, high=0.08, seg_seconds=7200.0))
        od_dim = ConfigDim(0, 0.06, False)
        dist = ctx.cache.dist(0, 0)
        bid = binary_search_bid(ctx.catalog[0], od_dim, dist, dist,
                                ctx.failure, 0.001, 0.06, seed=1)

        def gates_pass(b):
            config = HybridConfig((ConfigDim(0, b, True), od_dim))
            if hybrid_cost(config, [dist, dist], ctx.failure) > expected_ondemand_cost(0.06, dist):
                return False
            ffp = estimate_ffp(ctx.failure, 0, b)
            hd = hybrid_time_distribution(dist, ffp, dist, seed=99)
            return dominates(hd, dist, DOMINANCE_EPSILON)

        # Fine-grained scan oracle over the bid grid.
        passing = [b for b in np.arange(0.001, 0.0605, 0.001) if gates_pass(b)]
        if bid is None:
            assert not passing
        else:
            assert gates_pass(bid)
            assert min(abs(bid - b) for b in passing) <= 0.002

    def test_monotone_gates_on_constant_trace(self):
        ctx = FixtureContext(constant_trace(0.03))
        od_dim = ConfigDim(0, 0.06, False)
        dist = ctx.cache.dist(0, 0)

        # Dominance gate: once it passes at a bid, it passes at higher bids.
        passes = []
        for b in (0.01, 0.02, 0.029, 0.031, 0.04, 0.05):
            ffp = estimate_ffp(ctx.failure, 0, b)
            hd = hybrid_time_distribution(dist, ffp, dist, seed=1)
            passes.append(dominates(hd, dist, 0.01))
        assert passes == sorted(passes)

        # Cost: within a fixed failure regime, raising the bid raises cost.
        def cost_at(b):
            config = HybridConfig((ConfigDim(0, b, True), od_dim))
            return hybrid_cost(config, [dist, dist], ctx.failure)

        below = [cost_at(b) for b in (0.005, 0.01, 0.02, 0.029)]
        above = [cost_at(b) for b in (0.031, 0.04, 0.05, 0.06)]
        assert below == sorted(below)
        assert above == sorted(above)


class TestRefineTask:
    def test_no_trace_gives_ondemand_only(self):
        ctx = FixtureContext(stable_trace(0.024, hours=300))
        config = refine_task(0, ctx.catalog[0], ctx.catalog, None, ctx.cache)
        assert len(config.dims) == 1
        assert not config.dims[0].is_spot

    def test_stable_trace_gains_spot_dim_and_saves(self):
        ctx = FixtureContext(stable_trace(0.024, hours=300))
        config = refine_task(0, ctx.catalog[0], ctx.catalog, ctx.failure, ctx.cache)
        assert len(config.spot_dims) >= 1
        dists = [ctx.cache.dist(0, d.type_id) for d in config.dims]
        od_dist = ctx.cache.dist(0, 0)
        assert hybrid_cost(config, dists, ctx.failure) < expected_ondemand_cost(0.06, od_dist)

    def test_hostile_market_keeps_ondemand_only(self):
        ctx = FixtureContext(constant_trace(0.90))
        most_expensive = ctx.catalog.most_expensive()
        config = refine_task(0, most_expensive, ctx.catalog, ctx.failure, ctx.cache)
        assert len(config.dims) == 1
        assert config.dims[0].type_id == most_expensive.id

    def test_localization(self):
        # Refining task 0 of a 2-task job does not touch task 1's input data;
        # refine_plan output per task equals per-task refinement.
        catalog = ordered_catalog(2)
        job = chain_job([cpu_profile(600.0)] * 2, guarantee_p=0.9)
        d_min, d_max = deadline_bounds(job, catalog, n=1000, seed=5)
        job = job.with_deadline(d_max * 1.5)
        cache = TaskDistCache(job, catalog, 2000, 5)
        failure = FailureModel(traces={0: stable_trace(0.024, hours=300)},
                               num_trials=3000, rng_seed=5)
        whole = refine_plan(job, [0, 0], catalog, failure, cache, seed=5)
        single0 = refine_task(0, catalog[0], catalog, failure, cache, seed=5)
        single1 = refine_task(1, catalog[0], catalog, failure, cache, seed=5)
        assert whole == [single0, single1]

    def test_refinement_gates_hold_post_hoc(self):
        ctx = FixtureContext(stable_trace(0.024, hours=300))
        config = refine_task(0, ctx.catalog[0], ctx.catalog, ctx.failure, ctx.cache, seed=3)
        od_dist = ctx.cache.dist(0, 0)
        if config.spot_dims:
            dists = [ctx.cache.dist(0, d.type_id) for d in config.dims]
            assert hybrid_cost(config, dists, ctx.failure) <= expected_ondemand_cost(0.06, od_dist)
            (spot_dim,) = config.spot_dims
            hd = hybrid_time_distribution(ctx.cache.dist(0, spot_dim.type_id),
                                          estimate_ffp(ctx.failure, spot_dim.type_id,
                                                       spot_dim.price),
                                          od_dist, seed=77)
            assert dominates(hd, od_dist, 0.01)


def ascending_refinement(task_id, ondemand_type, catalog, failure, cache, seed):
    """Reference scan: every type from the on-demand one up, last success wins.

    Returns the config and the ids of the types whose bid search succeeded.
    """
    od_dim = ConfigDim(ondemand_type.id, ondemand_type.ondemand_price, False)
    od_dist = cache.dist(task_id, ondemand_type.id)
    task_seed = derive_seed(seed, "refine", task_id, 0)
    dims = (od_dim,)
    accepted = []
    for type_id in range(ondemand_type.id, len(catalog)):
        if not failure.has_trace(type_id):
            continue
        spot_type = catalog[type_id]
        bid = binary_search_bid(spot_type, od_dim, cache.dist(task_id, type_id), od_dist,
                                failure, P_MIN, spot_type.ondemand_price, seed=task_seed)
        if bid is not None:
            dims = (ConfigDim(type_id, bid, True), od_dim)
            accepted.append(type_id)
    return HybridConfig(dims), accepted


class TestRefineTaskScanOrder:
    """refine_task's top-down scan picks what an ascending full scan keeps."""

    MARKETS = {
        # The most expensive type's market is hostile: the winner is the
        # second type tried from the top.
        "two-accept": (stable_trace(0.024, hours=300), stable_trace(0.024, hours=300),
                       constant_trace(0.90)),
        "hostile": (constant_trace(0.90),) * 3,
    }

    @pytest.mark.parametrize("market", sorted(MARKETS))
    def test_matches_ascending_last_writer_wins(self, market):
        catalog = ordered_catalog(3)
        job = chain_job([cpu_profile(600.0), cpu_profile(450.0)], guarantee_p=0.9)

        def context():
            # Fresh memos per side, so neither run can reuse the other's.
            failure = FailureModel(traces=dict(enumerate(self.MARKETS[market])),
                                   num_trials=3000, rng_seed=13)
            return failure, TaskDistCache(job, catalog, 2000, 13)

        got_failure, got_cache = context()
        ref_failure, ref_cache = context()
        all_accepted = []
        for task_id, od_type_id in ((0, 0), (1, 1)):
            got = refine_task(task_id, catalog[od_type_id], catalog, got_failure,
                              got_cache, seed=13)
            want, accepted = ascending_refinement(task_id, catalog[od_type_id], catalog,
                                                  ref_failure, ref_cache, seed=13)
            assert got == want
            all_accepted.append(accepted)
        if market == "hostile":
            assert all_accepted == [[], []]
        else:
            assert all_accepted[0] == [0, 1]


def test_check_refinement_rejects_two_spot_dims():
    # A second spot dimension is refused when the config is built, so no
    # such config reaches check_refinement.
    ctx = FixtureContext(stable_trace(0.024, hours=300))
    with pytest.raises(ValueError, match="one or two dimensions, got 3"):
        config = HybridConfig((ConfigDim(1, 0.05, True), ConfigDim(0, 0.03, True),
                               ConfigDim(0, 0.06, False)))
        check_refinement(0, config, ctx.failure, ctx.cache)
