import math
from bisect import bisect_right

import numpy as np
import pytest

from spotflow import planner_hybrid
from spotflow.cloud_model import (
    SECONDS_PER_HOUR,
    GammaSpec,
    TaskProfile,
    _positive_draw,
    default_catalog,
    expected_ondemand_cost,
)
from spotflow.distributions import EmpiricalDistribution, derive_seed, dominates, substream
from spotflow.planner_astar import TaskDistCache, astar_configure
from spotflow.planner_hybrid import (
    BID_SEARCH_TOLERANCE,
    COST_FLOOR_MARGIN,
    DOMINANCE_EPSILON,
    P_MIN,
    binary_search_bid,
    check_refinement,
    hybrid_cost,
    hybrid_time_distribution,
    refine_plan,
    refine_task,
)
from spotflow.spot_market import (
    HORIZON,
    NBUCKETS,
    STEP,
    FailureModel,
    SpotPriceTrace,
    estimate_ffp,
    grid_index,
)
from spotflow.workflow_dag import ConfigDim, HybridConfig, build_job, deadline_bounds, montage_like

from conftest import (
    alternating_trace,
    chain_job,
    constant_trace,
    counts_with_gaps,
    cpu_profile,
    ffp_from_counts,
    mixed_profile,
    ordered_catalog,
    spiky_trace,
    stable_trace,
)


def pm(value, n=2000):
    return EmpiricalDistribution(np.full(n, value))


def synthetic_ffp(count_by_time, trials):
    """First-failure distribution with count_by_time[t] walks failing at
    elapsed time t, a grid point."""
    counts = np.zeros(NBUCKETS, dtype=np.int64)
    for t, count in count_by_time.items():
        counts[int(t // STEP)] = count
    return ffp_from_counts(counts, trials)


def failure_time(failed_before, u):
    """The inverse-CDF draw for one uniform u: the last grid point whose
    failed_before share is at most u, or inf when that is the last grid
    point (the walk survives HORIZON)."""
    k = bisect_right(failed_before, u) - 1
    return k * STEP if k < NBUCKETS else math.inf


def mixture_reference(spot, od, ffp, seed):
    """(samples, generator) of hybrid_time_distribution, drawn sample by
    sample: rng.permutation gathers where the sampler shuffles copies, and
    a trial reruns on demand iff its failure time is strictly before its
    spot time."""
    n = spot.size
    rng = substream(seed, "hybrid-mixture")
    spot_times = spot[rng.permutation(n)].tolist()
    uniforms = rng.random(n).tolist()
    reruns = od[rng.permutation(n)].tolist()
    shares = ffp.failed_before.tolist()
    samples = []
    for t, u, o in zip(spot_times, uniforms, reruns):
        fail = failure_time(shares, u)
        samples.append(fail + o if fail < t else t)
    return np.array(samples), rng


def preset_model(type_id, bid, dist):
    """Failure model with an injected first-failure distribution."""
    model = FailureModel(traces={type_id: constant_trace(0.01)}, num_trials=10)
    model._cache[(type_id, float(bid))] = dist
    return model


class TestHybridTimeDistribution:
    def test_never_failing_equals_spot_distribution(self):
        spot = EmpiricalDistribution(_positive_draw(GammaSpec(5, 60), substream(1, "gamma"), 4000))
        od = EmpiricalDistribution(_positive_draw(GammaSpec(5, 80), substream(2, "gamma"), 4000))
        ffp = synthetic_ffp({}, trials=1)
        got = hybrid_time_distribution(spot, ffp, od, seed=3)
        for q in np.linspace(0, 1, 21):
            assert got.percentile(q) == pytest.approx(spot.percentile(q))

    def test_certain_immediate_failure_equals_ondemand(self):
        spot = EmpiricalDistribution(_positive_draw(GammaSpec(5, 60), substream(1, "gamma"), 4000))
        od = EmpiricalDistribution(_positive_draw(GammaSpec(5, 80), substream(2, "gamma"), 4000))
        ffp = synthetic_ffp({0.0: 1}, trials=1)
        got = hybrid_time_distribution(spot, ffp, od, seed=3)
        for q in np.linspace(0, 1, 21):
            assert got.percentile(q) == pytest.approx(od.percentile(q))

    def test_two_branch_hand_enumeration(self):
        # Spot takes 600 s, on-demand 480 s; failure hits at t=300 with prob 0.5.
        spot, od = pm(600.0), pm(480.0)
        ffp = synthetic_ffp({300.0: 1}, trials=2)
        got = hybrid_time_distribution(spot, ffp, od, seed=4)
        values = set(np.round(got.samples, 9))
        assert values == {600.0, 780.0}
        frac_780 = float(np.mean(got.samples == 780.0))
        assert frac_780 == pytest.approx(0.5, abs=0.03)

    def test_matches_the_whole_vector_mixture(self):
        # The sampler shuffles copies of its operands and writes the reruns
        # at the failed indices only; the reference gathers both operands
        # through rng.permutation and selects from the whole rerun vector,
        # from the same draws.
        rng = np.random.default_rng(9)
        for case in range(20):
            spot = EmpiricalDistribution(rng.gamma(3.0, 400.0, size=1500))
            od = spot if case % 4 == 0 else EmpiricalDistribution(rng.gamma(3.0, 300.0, 1500))
            counts = rng.integers(0, 50, size=NBUCKETS) * (rng.random(NBUCKETS) < 0.05)
            ffp = ffp_from_counts(counts, int(counts.sum()) + 100)
            draws = substream(case, "hybrid-mixture")
            ts = spot.samples[draws.permutation(1500)]
            shares = ffp.failed_before.tolist()
            fail_t = np.array([failure_time(shares, u) for u in draws.random(1500).tolist()])
            rerun = fail_t + od.samples[draws.permutation(1500)]
            want = np.where(fail_t < ts, rerun, ts)
            got = hybrid_time_distribution(spot, ffp, od, seed=case)
            assert got.samples.tobytes() == want.tobytes(), case

    def test_unequal_sample_counts_rejected(self):
        ffp = synthetic_ffp({300.0: 1}, trials=2)
        with pytest.raises(ValueError, match="unequal sample counts"):
            hybrid_time_distribution(pm(10.0, 2000), ffp, pm(8.0, 1000), seed=5)


def spot_times(rng, n):
    """n spot times: 0, grid points and one ulp either side of them, times
    at and past HORIZON, and gamma draws for the rest."""
    grid = rng.integers(1, NBUCKETS, size=n // 5) * STEP
    special = np.concatenate((
        [0.0, np.nextafter(HORIZON, 0.0), HORIZON, np.nextafter(HORIZON, np.inf),
         HORIZON + 1.0, 2 * HORIZON],
        grid, np.nextafter(grid, 0.0), np.nextafter(grid, np.inf)))
    return np.concatenate((special, rng.gamma(2.0, 2000.0, size=n - special.size)))


def on_grid(counts):
    """The given leading bucket counts, zero-padded to the grid."""
    return np.concatenate((np.array(counts, dtype=np.int64),
                           np.zeros(NBUCKETS - len(counts), dtype=np.int64)))


class TestFailureDraws:
    """hybrid_time_distribution against mixture_reference, value for value
    and in the state its generator is left in."""

    @pytest.mark.parametrize("counts, trials", [
        (on_grid([]), 4000),
        (on_grid([4000]), 4000),
        (on_grid([0] * (NBUCKETS - 1) + [4000]), 4000),
        (on_grid([1000] * 4), 4000),
        (on_grid([0, 2000]), 4000),
    ], ids=["no-failure", "bucket-0", "bucket-1439", "buckets-0-to-3", "half-in-bucket-1"])
    def test_matches_the_oracle_on_edge_laws(self, monkeypatch, counts, trials):
        rng = np.random.default_rng(23)
        spot = spot_times(rng, 1000)
        self.check(monkeypatch, spot, rng.gamma(2.0, 1500.0, size=spot.size),
                   ffp_from_counts(counts, trials), seed=1)

    def test_matches_the_oracle_on_gapped_random_laws(self, monkeypatch):
        rng = np.random.default_rng(21)
        for trial in range(24):
            trials = (1, 7, 10_000, 123_457)[trial % 4]
            used = int(rng.choice([1, 3, 100, NBUCKETS]))
            counts = counts_with_gaps(rng, used, trials, float(rng.choice([1.0, 0.9, 0.3])))
            spot = spot_times(rng, int(rng.choice([400, 1000])))
            od = spot if trial % 3 == 0 else rng.gamma(2.0, 1500.0, size=spot.size)
            self.check(monkeypatch, spot, od, ffp_from_counts(counts, trials), seed=trial)

    def test_matches_the_oracle_on_an_estimated_law(self, monkeypatch):
        model = FailureModel(traces={0: spiky_trace()}, num_trials=10_000, rng_seed=2)
        rng = np.random.default_rng(5)
        spot = spot_times(rng, 4000)
        self.check(monkeypatch, spot, rng.gamma(2.0, 1500.0, size=spot.size),
                   estimate_ffp(model, 0, 0.1), seed=5)

    @staticmethod
    def check(monkeypatch, spot, od, ffp, seed):
        used = []

        def recording_substream(*key):
            used.append(substream(*key))
            return used[-1]

        monkeypatch.setattr(planner_hybrid, "substream", recording_substream)
        spot_dist = EmpiricalDistribution(spot)
        od_dist = spot_dist if od is spot else EmpiricalDistribution(od)
        got = hybrid_time_distribution(spot_dist, ffp, od_dist, seed=seed)
        want, want_rng = mixture_reference(spot_dist.samples, od_dist.samples, ffp, seed)
        assert got.samples.tobytes() == want.tobytes()
        assert len(used) == 1
        assert used[0].bit_generator.state == want_rng.bit_generator.state


class TestBothGatesChargeOneLaw:
    # 3 of 10 walks fail in bucket K - 1 and 4 in bucket K, so the shares
    # around grid point K (0.0, 0.3, 0.7) are far apart.
    K = 15

    @pytest.mark.parametrize("spot_t, share", [
        (K * STEP - 1.0, 0.3), (K * STEP, 0.3), (K * STEP + 1.0, 0.7), (HORIZON, 0.7),
    ])
    def test_fallback_sum_and_failed_share_read_one_entry(self, spot_t, share):
        n, od_t = 10_000, 1e6
        counts = np.zeros(NBUCKETS, dtype=np.int64)
        counts[self.K - 1], counts[self.K] = 3, 4
        ffp = ffp_from_counts(counts, 10)
        entry = ffp.failed_before[grid_index(spot_t)]
        assert entry == share
        spot, od = pm(spot_t, n), pm(od_t, n)
        assert FailureModel(traces={}).fallback_time_sum(ffp, spot, od) == n * od_t * entry
        # A failed trial ends after the rerun, past the spot time.
        hybrid = hybrid_time_distribution(spot, ffp, od, seed=2)
        failed_share = float(np.mean(hybrid.samples > spot_t))
        assert abs(failed_share - entry) <= 4 * math.sqrt(entry * (1 - entry) / n)


class TestHybridCost:
    def test_never_failing_spot_charges_bid_only(self):
        config = HybridConfig((ConfigDim(0, 0.1, True), ConfigDim(0, 0.2, False)))
        model = preset_model(0, 0.1, synthetic_ffp({}, trials=1))
        cost = hybrid_cost(config, [pm(1800.0), pm(1800.0)], model)
        assert cost == pytest.approx(0.1 * 0.5)

    def test_half_failure_hand_computation(self):
        # cumulative failure before the 0.5 h spot time is exactly 0.5.
        config = HybridConfig((ConfigDim(0, 0.1, True), ConfigDim(0, 0.2, False)))
        model = preset_model(0, 0.1, synthetic_ffp({900.0: 1}, trials=2))
        cost = hybrid_cost(config, [pm(1800.0), pm(1800.0)], model)
        assert cost == pytest.approx(0.1 * 0.5 + 0.5 * 0.2 * 0.5)

    def test_zero_duration_task_costs_nothing(self):
        config = HybridConfig((ConfigDim(0, 0.1, True), ConfigDim(0, 0.2, False)))
        model = preset_model(0, 0.1, synthetic_ffp({0.0: 1}, trials=1))
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
        plan = astar_configure(job, catalog, cache=cache)
        for task in job.tasks:
            config = HybridConfig.ondemand_only(catalog[plan[task.id]])
            got = hybrid_cost(config, [cache.dist(task.id, plan[task.id])],
                              FailureModel(traces={}))
            assert got == cache.cost(task.id, plan[task.id])


def sample_space_cost(config, dim_dists, failure):
    """hybrid_cost of a spot config as the mean over index-paired samples."""
    spot_dim, od_dim = config.dims
    spot, od = dim_dists[0].samples, dim_dists[1].samples
    failed = estimate_ffp(failure, spot_dim.type_id, spot_dim.price).cumulative_before(spot)
    per_sample = (spot_dim.price * spot / SECONDS_PER_HOUR
                  + failed * od_dim.price * od / SECONDS_PER_HOUR)
    return float(per_sample.mean())


def spiky_market(catalog):
    """Per type: 0.4x its on-demand price, with an hour at 3x every 20 hours."""
    return {t.id: spiky_trace(base=0.4 * t.ondemand_price, spike=3.0 * t.ondemand_price,
                              low_hours=19, spike_hours=1, cycles=60)
            for t in catalog}


class TestBucketSpaceCost:
    def test_matches_the_sample_space_mean(self):
        catalog = default_catalog()
        profiles = [mixed_profile(0.2), mixed_profile(1.0), mixed_profile(4.0),
                    TaskProfile()]  # the last task takes no time
        job = build_job(dict(enumerate(profiles)), [], guarantee_p=0.9, class_id="cost")
        cache = TaskDistCache(job, catalog, 2000, 3)
        failure = FailureModel(traces=spiky_market(catalog), num_trials=2000, rng_seed=3)
        rng = np.random.default_rng(17)
        never_failed = 0
        for case in range(300):
            task_id = int(rng.integers(len(profiles)))
            spot_type, od_type = (catalog[int(i)] for i in rng.integers(len(catalog), size=2))
            if case % 5 == 0:  # above every price: no walk fails
                bid = 3.5 * spot_type.ondemand_price
            else:
                bid = float(rng.uniform(P_MIN, spot_type.ondemand_price))
            config = HybridConfig((ConfigDim(spot_type.id, bid, True),
                                   ConfigDim(od_type.id, od_type.ondemand_price, False)))
            dists = [cache.dist(task_id, spot_type.id), cache.dist(task_id, od_type.id)]
            want = sample_space_cost(config, dists, failure)
            assert hybrid_cost(config, dists, failure) == pytest.approx(want, rel=1e-12, abs=0)
            never_failed += not estimate_ffp(failure, spot_type.id, bid).failed_before.any()
        assert never_failed >= 60

    def test_check_refinement_passes_every_config_refined_on_montage_16(self):
        catalog = default_catalog()
        job = montage_like(16, seed=1)
        cache = TaskDistCache(job, catalog, 2000, 0)
        failure = FailureModel(traces=spiky_market(catalog), num_trials=2000, rng_seed=0)
        plan = [task.id % len(catalog) for task in job.tasks]
        configs = refine_plan(job, plan, failure, cache)
        assert len(configs) == 51
        assert sum(bool(config.spot_dims) for config in configs) >= 25
        for task_id, config in enumerate(configs):
            assert check_refinement(task_id, config, failure, cache) == (True, True)


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


def full_bisection(spot_type, od_dim, spot_dist, od_dist, failure, p_low, p_high, seed, steps):
    """binary_search_bid without the cost floor, as it was before it: the
    floor's oracle.  Appends each midpoint it tries to `steps`."""
    if p_low > p_high or (p_high - p_low) < BID_SEARCH_TOLERANCE:
        return None
    p_mid = (p_low + p_high) / 2.0
    steps.append(p_mid)
    config = HybridConfig((ConfigDim(spot_type.id, p_mid, True), od_dim))
    if (hybrid_cost(config, [spot_dist, od_dist], failure)
            > expected_ondemand_cost(od_dim.price, od_dist)):
        return full_bisection(spot_type, od_dim, spot_dist, od_dist, failure,
                              p_low, p_mid, seed, steps)
    hybrid = hybrid_time_distribution(
        spot_dist, estimate_ffp(failure, spot_type.id, p_mid), od_dist,
        seed=derive_seed(seed, "bid", spot_type.id, int(round(p_mid * 1e6))))
    if not dominates(hybrid, od_dist, DOMINANCE_EPSILON):
        return full_bisection(spot_type, od_dim, spot_dist, od_dist, failure,
                              p_mid, p_high, seed, steps)
    return p_mid


def random_market(rng, ondemand_price, points=600):
    """A trace of jittered base prices with random spikes above on demand."""
    base = ondemand_price * rng.uniform(0.1, 0.9)
    prices = base * (1.0 + rng.uniform(0.0, 0.3) * rng.random(points))
    spikes = rng.random(points) < rng.uniform(0.0, 0.2)
    prices[spikes] = ondemand_price * rng.uniform(1.0, 4.0)
    return SpotPriceTrace(np.arange(points) * rng.choice([600.0, 1800.0, 3600.0]), prices)


class TestCostFloor:
    """binary_search_bid with the cost floor returns what full bisection does."""

    @staticmethod
    def context(rng, seed):
        catalog = ordered_catalog(3)
        job = chain_job([mixed_profile(rng.uniform(0.3, 3.0))])
        cache = TaskDistCache(job, catalog, 1000, seed)
        traces = {t.id: random_market(rng, t.ondemand_price) for t in catalog}
        return catalog, cache, FailureModel(traces=traces, num_trials=1500, rng_seed=seed)

    def test_matches_full_bisection_on_random_markets(self, monkeypatch):
        gate_calls = []

        def counting_hybrid_cost(*args):
            gate_calls.append(args[0])
            return hybrid_cost(*args)

        monkeypatch.setattr(planner_hybrid, "hybrid_cost", counting_hybrid_cost)
        rng = np.random.default_rng(21)
        oracle_steps = []
        found = 0
        for seed in range(25):
            catalog, cache, failure = self.context(rng, seed)
            for od_type in catalog:
                od_dim = ConfigDim(od_type.id, od_type.ondemand_price, False)
                for spot_type in catalog[od_type.id:]:
                    args = (spot_type, od_dim, cache.dist(0, spot_type.id),
                            cache.dist(0, od_type.id), failure, P_MIN, spot_type.ondemand_price)
                    want = full_bisection(*args, seed, oracle_steps)
                    assert binary_search_bid(*args, seed=seed) == want, (seed, od_type, spot_type)
                    found += want is not None
        assert found >= 40
        # The floor cut the cost gate's evaluations.
        assert len(gate_calls) < len(oracle_steps) / 2

    def test_matches_full_bisection_with_costs_within_the_margin(self):
        # The on-demand price is set so that the first step's floor equals
        # the on-demand cost up to a few margins either side: there the
        # search must still recurse whenever a lower bid could pass.
        rng = np.random.default_rng(22)
        cut = kept = 0
        for seed in range(10):
            catalog, cache, failure = self.context(rng, seed)
            spot_type, od_type = catalog[2], catalog[0]
            spot_dist, od_dist = cache.dist(0, spot_type.id), cache.dist(0, od_type.id)
            p_mid = (P_MIN + spot_type.ondemand_price) / 2.0
            fallback = failure.fallback_time_sum(estimate_ffp(failure, spot_type.id, p_mid),
                                                 spot_dist, od_dist) / spot_dist.sample_count
            # floor = (P_MIN E[spot] + p_od fallback) / 3600 = p_od E[od] / 3600
            p_edge = P_MIN * spot_dist.expectation() / (od_dist.expectation() - fallback)
            for k in (-3, -1, -0.5, 0, 0.5, 1, 1.5, 3):
                od_dim = ConfigDim(od_type.id, p_edge * (1.0 + k * COST_FLOOR_MARGIN), False)
                args = (spot_type, od_dim, spot_dist, od_dist, failure,
                        P_MIN, spot_type.ondemand_price)
                steps = []
                want = full_bisection(*args, seed, steps)
                assert binary_search_bid(*args, seed=seed) == want, (seed, k)
                cost = hybrid_cost(HybridConfig((ConfigDim(spot_type.id, p_mid, True), od_dim)),
                                   [spot_dist, od_dist], failure)
                floor = cost - (p_mid - P_MIN) * spot_dist.expectation() / SECONDS_PER_HOUR
                od_cost = expected_ondemand_cost(od_dim.price, od_dist)
                assert abs(floor / od_cost - 1.0) < 4 * COST_FLOOR_MARGIN
                cut += floor > od_cost * (1.0 + COST_FLOOR_MARGIN)
                kept += floor <= od_cost * (1.0 + COST_FLOOR_MARGIN)
        assert cut >= 10 and kept >= 10


class TestRefineTask:
    def test_no_trace_gives_ondemand_only(self):
        # No spot market: a failure model without traces.
        ctx = FixtureContext(stable_trace(0.024, hours=300))
        config = refine_task(0, ctx.catalog[0], FailureModel(traces={}), ctx.cache)
        assert len(config.dims) == 1
        assert not config.dims[0].is_spot

    def test_stable_trace_gains_spot_dim_and_saves(self):
        ctx = FixtureContext(stable_trace(0.024, hours=300))
        config = refine_task(0, ctx.catalog[0], ctx.failure, ctx.cache)
        assert len(config.spot_dims) >= 1
        dists = [ctx.cache.dist(0, d.type_id) for d in config.dims]
        od_dist = ctx.cache.dist(0, 0)
        assert hybrid_cost(config, dists, ctx.failure) < expected_ondemand_cost(0.06, od_dist)

    def test_hostile_market_keeps_ondemand_only(self):
        ctx = FixtureContext(constant_trace(0.90))
        most_expensive = ctx.catalog.most_expensive()
        config = refine_task(0, most_expensive, ctx.failure, ctx.cache)
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
        whole = refine_plan(job, [0, 0], failure, cache)
        single0 = refine_task(0, catalog[0], failure, cache)
        single1 = refine_task(1, catalog[0], failure, cache)
        assert whole == [single0, single1]

    def test_refinement_gates_hold_post_hoc(self):
        ctx = FixtureContext(stable_trace(0.024, hours=300))
        config = refine_task(0, ctx.catalog[0], ctx.failure, ctx.cache)
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


def ascending_refinement(task_id, ondemand_type, catalog, failure, cache):
    """Reference scan: every type from the on-demand one up, last success wins.

    Returns the config and the ids of the types whose bid search succeeded.
    """
    od_dim = ConfigDim(ondemand_type.id, ondemand_type.ondemand_price, False)
    od_dist = cache.dist(task_id, ondemand_type.id)
    task_seed = derive_seed(cache.seed, "refine", task_id, 0)
    dims = (od_dim,)
    accepted = []
    for type_id in range(ondemand_type.id, len(catalog)):
        if type_id not in failure.traces:
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
            got = refine_task(task_id, catalog[od_type_id], got_failure, got_cache)
            want, accepted = ascending_refinement(task_id, catalog[od_type_id], catalog,
                                                  ref_failure, ref_cache)
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


class TestRefinementSeedIsTheCaches:
    """Refinement reads its seed from the class's TaskDistCache only."""

    def test_refine_plan_and_refine_task_take_no_seed(self):
        ctx = FixtureContext(stable_trace(0.024, hours=300))
        with pytest.raises(TypeError):
            refine_task(0, ctx.catalog[0], ctx.failure, ctx.cache, seed=ctx.cache.seed)
        with pytest.raises(TypeError):
            refine_plan(ctx.job, [0], ctx.failure, ctx.cache, seed=ctx.cache.seed)

    def test_check_refinement_accepts_only_the_caches_seed(self):
        ctx = FixtureContext(stable_trace(0.024, hours=300))
        config = refine_task(0, ctx.catalog[0], ctx.failure, ctx.cache)
        assert config.spot_dims
        want = check_refinement(0, config, ctx.failure, ctx.cache)
        assert want == (True, True)
        assert check_refinement(0, config, ctx.failure, ctx.cache, seed=ctx.cache.seed) == want
        with pytest.raises(ValueError, match="differs from the cache's seed 11"):
            check_refinement(0, config, ctx.failure, ctx.cache, seed=12)
