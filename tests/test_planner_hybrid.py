import numpy as np
import pytest

from spotflow.cloud_model import expected_ondemand_cost
from spotflow.distributions import EmpiricalDistribution, dominates
from spotflow.planner_astar import TaskDistCache
from spotflow.planner_hybrid import (
    RefineParams,
    binary_search_bid,
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
    return EmpiricalDistribution.point_mass(value, n)


def synthetic_ffp(step, mass_by_bucket, no_failure):
    nbuckets = max(mass_by_bucket) + 1 if mass_by_bucket else 1
    masses = np.zeros(nbuckets)
    for bucket, p in mass_by_bucket.items():
        masses[bucket] = p
    return FirstFailureDistribution(step=step, masses=masses, no_failure_mass=no_failure)


def preset_model(type_id, bid, dist, **kwargs):
    """Failure model with an injected first-failure distribution."""
    model = FailureModel(traces={type_id: constant_trace(0.01)}, num_trials=10, **kwargs)
    model._cache[(type_id, round(float(bid), 9))] = dist
    return model


class TestHybridTimeDistribution:
    def test_never_failing_equals_spot_distribution(self):
        spot = EmpiricalDistribution.from_gamma(5, 60, n=4000, seed=1)
        od = EmpiricalDistribution.from_gamma(5, 80, n=4000, seed=2)
        ffp = synthetic_ffp(60.0, {}, no_failure=1.0)
        got = hybrid_time_distribution([(spot, ffp)], od, seed=3)
        for q in np.linspace(0, 1, 21):
            assert got.percentile(q) == pytest.approx(spot.percentile(q))

    def test_certain_immediate_failure_equals_ondemand(self):
        spot = EmpiricalDistribution.from_gamma(5, 60, n=4000, seed=1)
        od = EmpiricalDistribution.from_gamma(5, 80, n=4000, seed=2)
        ffp = synthetic_ffp(60.0, {0: 1.0}, no_failure=0.0)
        got = hybrid_time_distribution([(spot, ffp)], od, seed=3)
        for q in np.linspace(0, 1, 21):
            assert got.percentile(q) == pytest.approx(od.percentile(q))

    def test_two_branch_hand_enumeration(self):
        # Spot takes 10 s, on-demand 8 s; failure hits at t=5 with prob 0.5.
        spot, od = pm(10.0), pm(8.0)
        ffp = synthetic_ffp(5.0, {1: 0.5}, no_failure=0.5)
        got = hybrid_time_distribution([(spot, ffp)], od, seed=4)
        values = set(np.round(got.samples, 9))
        assert values == {10.0, 13.0}
        frac_13 = float(np.mean(got.samples == 13.0))
        assert frac_13 == pytest.approx(0.5, abs=0.03)

    def test_cascade_through_two_spot_dims(self):
        # Both spot dims always fail at t=0: outcome is exactly on-demand.
        spot1, spot2, od = pm(10.0), pm(20.0), pm(8.0)
        ffp = synthetic_ffp(5.0, {0: 1.0}, no_failure=0.0)
        got = hybrid_time_distribution([(spot1, ffp), (spot2, ffp)], od, seed=5)
        assert got.min_value() == got.max_value() == 8.0


class TestHybridCost:
    def test_never_failing_spot_charges_bid_only(self):
        config = HybridConfig((ConfigDim(0, 0.1, True), ConfigDim(0, 0.2, False)))
        model = preset_model(0, 0.1, synthetic_ffp(60.0, {}, 1.0))
        cost = hybrid_cost(config, [pm(1800.0), pm(1800.0)], model)
        assert cost == pytest.approx(0.1 * 0.5)

    def test_half_failure_hand_computation(self):
        # cumulative failure before the 0.5 h spot time is exactly 0.5.
        config = HybridConfig((ConfigDim(0, 0.1, True), ConfigDim(0, 0.2, False)))
        model = preset_model(0, 0.1, synthetic_ffp(900.0, {1: 0.5}, 0.5))
        cost = hybrid_cost(config, [pm(1800.0), pm(1800.0)], model)
        assert cost == pytest.approx(0.1 * 0.5 + 0.5 * 0.2 * 0.5)

    def test_zero_duration_task_costs_nothing(self):
        config = HybridConfig((ConfigDim(0, 0.1, True), ConfigDim(0, 0.2, False)))
        model = preset_model(0, 0.1, synthetic_ffp(60.0, {0: 1.0}, 0.0))
        cost = hybrid_cost(config, [pm(0.0), pm(0.0)], model)
        assert cost == 0.0

    def test_ondemand_cost(self):
        assert expected_ondemand_cost(0.2, pm(1800.0)) == pytest.approx(0.1)


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
        self.params = RefineParams()


class TestBinarySearchBid:
    def test_stable_cheap_trace_finds_bid(self):
        ctx = FixtureContext(stable_trace(0.024, hours=300))
        od_dim = ConfigDim(0, 0.06, False)
        dist = ctx.cache.dist(0, 0)
        bid = binary_search_bid(ctx.catalog[0], od_dim, dist, dist,
                                ctx.failure, ctx.params, 0.001, 0.06, seed=1)
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
                                ctx.failure, ctx.params, 0.001, 0.06, seed=1)
        assert bid is None

    def test_returned_bid_lies_in_linear_scan_passing_set(self):
        ctx = FixtureContext(alternating_trace(low=0.01, high=0.08, seg_seconds=7200.0))
        od_dim = ConfigDim(0, 0.06, False)
        dist = ctx.cache.dist(0, 0)
        bid = binary_search_bid(ctx.catalog[0], od_dim, dist, dist,
                                ctx.failure, ctx.params, 0.001, 0.06, seed=1)

        def gates_pass(b):
            config = HybridConfig((ConfigDim(0, b, True), od_dim))
            if hybrid_cost(config, [dist, dist], ctx.failure) > expected_ondemand_cost(0.06, dist):
                return False
            ffp = estimate_ffp(ctx.failure, 0, b)
            hd = hybrid_time_distribution([(dist, ffp)], dist, seed=99)
            return dominates(hd, dist, ctx.params.dominance_epsilon)

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
            hd = hybrid_time_distribution([(dist, ffp)], dist, seed=1)
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
            parts = [(ctx.cache.dist(0, d.type_id),
                      estimate_ffp(ctx.failure, d.type_id, d.price))
                     for d in config.spot_dims]
            hd = hybrid_time_distribution(parts, od_dist, seed=77)
            assert dominates(hd, od_dist, 0.01)
