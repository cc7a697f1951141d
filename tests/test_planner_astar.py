import dataclasses
import heapq
import itertools
import math
import os

import numpy as np
import pytest

from spotflow import planner_astar
from spotflow.cli import ExperimentSpec, plan_class
from spotflow.cloud_model import (
    Catalog,
    GammaSpec,
    InstanceType,
    NormalSpec,
    TaskProfile,
    expected_ondemand_cost,
    task_time_distribution,
)
from spotflow.distributions import EmpiricalDistribution, derive_seed, dominates
from spotflow.planner_astar import (
    AStarParams,
    InfeasiblePlanError,
    JobPlan,
    SearchStats,
    TaskDistCache,
    astar_configure,
    load_plan_cache,
    plan_cost,
    percentile_lower_bound,
    plan_distribution,
    save_plan_cache,
)
from spotflow.spot_market import FailureModel
from spotflow.workflow_dag import ConfigDim, HybridConfig, build_job, deadline_bounds, is_feasible

from conftest import (brute_force_configure, chain_job, cpu_profile, diamond_job, mixed_profile,
                      ordered_catalog, stable_trace)


def skewed_catalog():
    """Three types where type 1 costs 2x type 0 and computes 4x faster.

    Bandwidths grow by 1.5x per tier as in ordered_catalog, so an I/O-heavy
    task is cheapest on type 0 and a CPU-heavy one on type 1.
    """
    tiers = [(0.06, 1e9, 1.0), (0.12, 4e9, 1.5), (0.48, 8e9, 2.25)]
    return Catalog([
        InstanceType(i, "s%d" % i, price, speed,
                     GammaSpec(100.0, bw), NormalSpec(100.0 * bw, 15.0 * bw),
                     GammaSpec(100.0, bw), GammaSpec(100.0, bw), 0.0, 0.0)
        for i, (price, speed, bw) in enumerate(tiers)
    ])


def random_case(rng, catalog, i, n=400, seed=3, tasks=(4, 5)):
    """A random DAG of tasks[0]..tasks[1] distinct CPU- or I/O-heavy tasks,
    with a deadline log-uniform from slightly below D_min up to D_max."""
    n_tasks = int(rng.integers(tasks[0], tasks[1] + 1))
    profiles = {}
    for tid in range(n_tasks):
        s = rng.uniform(0.5, 2.0)
        cpu_heavy = rng.random() < 0.5
        profiles[tid] = TaskProfile(
            instructions=(8e11 if cpu_heavy else 5e10) * s,
            seq_io_mb=(200 if cpu_heavy else 3000) * s,
            rnd_io_mb=50 * s, net_in_mb=100 * s, net_out_mb=50 * s)
    edges = [e for e in itertools.combinations(range(n_tasks), 2) if rng.random() < 0.5]
    job = build_job(profiles, edges, guarantee_p=0.9, class_id="random-%d" % i)
    d_min, d_max = deadline_bounds(job, catalog, n=n, seed=seed)
    job = job.with_deadline(d_min * (d_max / d_min) ** rng.uniform(-0.2, 1.0))
    return job, TaskDistCache(job, catalog, sample_count=n, seed=seed)


def planned_job(profiles, builder=chain_job, deadline_frac=0.5, guarantee_p=0.9,
                catalog=None, n=1500, seed=7):
    catalog = catalog or ordered_catalog(3)
    job = builder(profiles, guarantee_p=guarantee_p)
    d_min, d_max = deadline_bounds(job, catalog, n=n, seed=seed)
    return job.with_deadline(d_min + deadline_frac * (d_max - d_min)), catalog


class TestSingleTask:
    def test_both_types_feasible_picks_cheapest(self):
        cat = ordered_catalog(2)
        job = chain_job([cpu_profile(60.0)], deadline=1000.0)
        plan = astar_configure(job, cat, cache=TaskDistCache(job, cat, 200, 1))
        assert plan == [0]

    def test_only_expensive_type_feasible(self):
        cat = ordered_catalog(2)
        # 60 s on t0, 30 s on t1; deadline between the two.
        job = chain_job([cpu_profile(60.0)], deadline=40.0)
        plan = astar_configure(job, cat, cache=TaskDistCache(job, cat, 200, 1))
        assert plan == [1]

    def test_infeasible_raises_with_diagnosis(self):
        cat = ordered_catalog(2)
        job = chain_job([cpu_profile(60.0)], deadline=10.0)
        with pytest.raises(InfeasiblePlanError) as err:
            astar_configure(job, cat, cache=TaskDistCache(job, cat, 200, 1))
        # The bound is the task's time on its per-sample fastest type, t1.
        assert err.value.bound == 30.0
        assert not err.value.budget_exhausted
        assert str(err.value).endswith(
            "(all 2 plans evaluated): lower bound 30.0 s vs deadline 10.0 s")

    def test_budget_of_exactly_every_plan_is_not_exhausted(self):
        cat = ordered_catalog(2)
        job = chain_job([cpu_profile(60.0)], deadline=10.0)
        with pytest.raises(InfeasiblePlanError) as err:
            astar_configure(job, cat, params=AStarParams(max_iter=2),
                            cache=TaskDistCache(job, cat, 200, 1))
        assert not err.value.budget_exhausted and err.value.evaluated == 2


class TestOracleEquivalence:
    def test_three_task_chain_matches_exhaustive(self):
        job, cat = planned_job([mixed_profile()] * 3)
        cache = TaskDistCache(job, cat, sample_count=1500, seed=7)
        plan = astar_configure(job, cat, cache=cache)
        bf_plan, bf_cost = brute_force_configure(job, cache)
        assert plan_cost(cache, tuple(plan)) == bf_cost
        assert bf_plan is not None

    def test_diamond_matches_exhaustive(self):
        job, cat = planned_job([mixed_profile(s) for s in (1.0, 2.0, 0.5, 1.0)],
                               builder=diamond_job, deadline_frac=0.35)
        cache = TaskDistCache(job, cat, sample_count=1500, seed=7)
        plan = astar_configure(job, cat, cache=cache)
        _, bf_cost = brute_force_configure(job, cache)
        assert plan_cost(cache, tuple(plan)) == bf_cost

    def test_tight_deadline_forces_most_expensive(self):
        job, cat = planned_job([mixed_profile()] * 2, deadline_frac=0.0)
        # Deadline at D_min: only near-fastest plans can qualify; compare
        # against the oracle whatever the outcome.
        cache = TaskDistCache(job, cat, sample_count=1500, seed=7)
        bf_plan, bf_cost = brute_force_configure(job, cache)
        if bf_plan is None:
            with pytest.raises(InfeasiblePlanError):
                astar_configure(job, cat, cache=cache)
        else:
            plan = astar_configure(job, cat, cache=cache)
            assert plan_cost(cache, tuple(plan)) == bf_cost

    def test_exact_tie_returns_the_lexicographically_smallest_plan(self):
        # Price x time is equal on both types, so every plan costs the same;
        # only (0, 0), at 2000 s, misses the 1500 s deadline.
        cat = Catalog([dataclasses.replace(t, ondemand_price=price)
                       for t, price in zip(ordered_catalog(2), (0.1, 0.2))])  # 1e9, 2e9 instr/s
        job = chain_job([cpu_profile(1000.0)] * 2, deadline=1500.0)
        cache = TaskDistCache(job, cat, sample_count=200, seed=0)
        (cost,) = {plan_cost(cache, p) for p in itertools.product(range(2), repeat=2)}
        assert round(cost, 4) == 0.0556
        assert astar_configure(job, cat, cache=cache) == [0, 1]
        assert brute_force_configure(job, cache) == ((0, 1), cost)

    def test_random_dags_on_cost_skewed_catalog(self):
        # On skewed_catalog a CPU-heavy task is cheapest on type 1, so task
        # costs are not monotone in type id; the search must still match
        # the exhaustive optimum and give up only when nothing is feasible.
        catalog = skewed_catalog()
        rng = np.random.default_rng(5)
        feasible = infeasible = 0
        for i in range(40):
            job, cache = random_case(rng, catalog, i)
            _, bf_cost = brute_force_configure(job, cache)
            if bf_cost == math.inf:
                with pytest.raises(InfeasiblePlanError) as err:
                    astar_configure(job, catalog, cache=cache)
                # The queue ran dry: every plan was evaluated, none is feasible.
                plans = len(catalog) ** len(job.tasks)
                assert not err.value.budget_exhausted and err.value.evaluated == plans
                assert "(all %d plans evaluated)" % plans in str(err.value)
                infeasible += 1
            else:
                plan = astar_configure(job, catalog, cache=cache)
                assert plan_cost(cache, tuple(plan)) == bf_cost, (i, plan)
                feasible += 1
        assert feasible >= 30 and infeasible >= 3


def full_sweep_search(job, cache, max_iter):
    """The search with every popped plan evaluated in full by is_feasible,
    without the prefix screen: the screen's oracle.

    Returns (plan or None, evaluated, generated, still queued).
    """
    n_tasks = len(job.tasks)
    ranked = [sorted(range(len(cache.catalog)), key=lambda k: (cache.cost(tid, k), k))
              for tid in range(n_tasks)]
    upgrade = [dict(zip(r, r[1:])) for r in ranked]
    initial = tuple(r[0] for r in ranked)
    heap = [(plan_cost(cache, initial), initial, 0)]
    evaluated = generated = 0
    while heap and evaluated < max_iter:
        evaluated += 1
        _, plan, level = heapq.heappop(heap)
        if is_feasible(job, plan_distribution(job, cache, plan)):
            return plan, evaluated, generated, len(heap)
        for tid in range(level, n_tasks):
            type_id = upgrade[tid].get(plan[tid])
            if type_id is not None:
                child = plan[:tid] + (type_id,) + plan[tid + 1:]
                generated += 1
                heapq.heappush(heap, (plan_cost(cache, child), child, tid))
    return None, evaluated, generated, len(heap)


@pytest.fixture
def full_evals(monkeypatch):
    """The plans the search evaluates in full, in order."""
    plans = []

    def counting_plan_distribution(*args):
        plans.append(args[2])
        return plan_distribution(*args)

    monkeypatch.setattr(planner_astar, "plan_distribution", counting_plan_distribution)
    return plans


class TestPrefixScreen:
    """The screened search returns exactly what the full-sweep search does."""

    @pytest.mark.parametrize("n", [600, 1024, 3000])
    def test_matches_the_full_sweep_search(self, n, full_evals):
        catalog = skewed_catalog()
        rng = np.random.default_rng(n)
        screened = boundary_hits = budget_ends = proofs = 0
        for i in range(12):
            job, cache = random_case(rng, catalog, i, n=n, seed=i, tasks=(3, 7))
            bound = percentile_lower_bound(job, cache)
            # The drawn deadline; the percentile of the plan the search
            # returns at it (or of the fastest plan), where exactly ceil(q*n)
            # samples are at or below the deadline, and one float below
            # that; and a deadline below D_min.
            found = full_sweep_search(job, cache, 500)[0]
            fastest = tuple(len(catalog) - 1 for _ in job.tasks)
            edge = plan_distribution(job, cache, found or fastest).percentile(job.guarantee_p)
            for deadline in (job.deadline, edge, np.nextafter(edge, 0.0), job.deadline / 3):
                for max_iter in (500, int(rng.integers(1, 6)), int(rng.integers(6, 40))):
                    case = job.with_deadline(float(deadline))
                    want, evaluated, generated, queued = full_sweep_search(case, cache, max_iter)
                    stats = SearchStats()
                    full_evals.clear()
                    try:
                        got = astar_configure(case, catalog, params=AStarParams(max_iter),
                                              cache=cache, stats=stats)
                    except InfeasiblePlanError as err:
                        assert want is None, (i, deadline, max_iter)
                        assert err.bound == bound and err.deadline == case.deadline
                        assert err.evaluated == evaluated == stats.iterations
                        assert err.budget_exhausted == (queued > 0)
                        budget_ends += err.budget_exhausted
                        proofs += not err.budget_exhausted
                        assert str(err) == str(InfeasiblePlanError(case, bound, evaluated,
                                                                   queued > 0))
                    else:
                        assert tuple(got) == want, (i, deadline, max_iter)
                        assert stats.iterations == evaluated
                        boundary_hits += plan_distribution(case, cache, tuple(got)).percentile(
                            case.guarantee_p) == deadline
                    assert (stats.generated, stats.pruned) == (generated, queued)
                    assert stats.iterations == stats.screened + len(full_evals)
                    if n <= planner_astar.SCREEN_SAMPLES:
                        # The head is the whole vector: only the returned
                        # plan is swept in full.
                        assert full_evals == ([want] if want else [])
                    screened += stats.screened
        assert screened >= 1000 and boundary_hits >= 10
        assert budget_ends >= 50 and proofs >= 5

    def test_counts_at_the_screen_boundary(self, full_evals):
        # One task, 100 samples, q = 0.9, D = 1000: a plan is screened when
        # more than 10 of its samples exceed D, and a sample equal to D is
        # within it.  Type 0 has 11 samples above D and is screened; type 1,
        # with exactly 10 samples above D or with 11 equal to it, is
        # evaluated in full and feasible; type 2 is never popped.
        catalog = ordered_catalog(3)
        job = chain_job([cpu_profile(1.0)], deadline=1000.0)
        type0 = np.r_[np.full(89, 500.0), np.full(11, 1000.5)]
        for type1 in (np.r_[np.full(90, 900.0), np.full(10, 1001.0)],
                      np.r_[np.full(89, 900.0), np.full(11, 1000.0)]):
            cache = TaskDistCache(job, catalog, 100, 0)
            cache._dists = [[EmpiricalDistribution(samples)
                             for samples in (type0, type1, np.full(100, 10.0))]]
            cache._costs = [[1.0, 2.0, 3.0]]
            stats = SearchStats()
            full_evals.clear()
            assert astar_configure(job, catalog, cache=cache, stats=stats) == [1]
            assert stats.screened == 1 and full_evals == [(1,)]


class TestLowerBound:
    def test_at_most_every_plans_percentile(self):
        # Brute force over every plan of random DAGs of 4-6 CPU- or
        # I/O-heavy tasks on three types.
        catalog = skewed_catalog()
        rng = np.random.default_rng(21)
        for i in range(8):
            job, cache = random_case(rng, catalog, i, tasks=(4, 6))
            percentiles = [plan_distribution(job, cache, plan).percentile(job.guarantee_p)
                           for plan in itertools.product(range(3), repeat=len(job.tasks))]
            assert percentile_lower_bound(job, cache) <= min(percentiles), i

    def test_equals_the_fastest_plan_on_cpu_only_tasks(self):
        # A CPU-only task takes a fixed time on each type, so the fastest
        # type is fastest in every sample and the all-fastest plan meets
        # the bound.
        catalog = ordered_catalog(3)
        rng = np.random.default_rng(22)
        for i in range(6):
            n_tasks = int(rng.integers(4, 7))
            profiles = {tid: cpu_profile(float(rng.uniform(10.0, 100.0)))
                        for tid in range(n_tasks)}
            edges = [e for e in itertools.combinations(range(n_tasks), 2) if rng.random() < 0.5]
            job = build_job(profiles, edges, guarantee_p=0.9, class_id="cpu-%d" % i)
            cache = TaskDistCache(job, catalog, 200, i)
            percentiles = {plan: plan_distribution(job, cache, plan).percentile(job.guarantee_p)
                           for plan in itertools.product(range(3), repeat=n_tasks)}
            bound = percentile_lower_bound(job, cache)
            assert bound == min(percentiles.values()) == percentiles[(2,) * n_tasks], i


class TestSearchBehaviour:
    def test_deterministic(self):
        job, cat = planned_job([mixed_profile()] * 3, deadline_frac=0.3)
        p1 = astar_configure(job, cat, cache=TaskDistCache(job, cat, 1000, 3))
        p2 = astar_configure(job, cat, cache=TaskDistCache(job, cat, 1000, 3))
        assert p1 == p2

    def test_sample_count_with_a_cache_is_an_error(self):
        # The cache fixes the sample count; a second one is not ignored.
        job, cat = planned_job([mixed_profile()] * 2)
        with pytest.raises(ValueError, match="sample_count"):
            astar_configure(job, cat, sample_count=200, cache=TaskDistCache(job, cat, 200, 7))

    def test_cache_over_another_catalog_is_an_error(self):
        # The search ranks the cache's types; without the check a 60 s task
        # due in 20 s got type 2, which the given catalog does not have.
        job = chain_job([cpu_profile(60.0)], deadline=20.0)
        with pytest.raises(ValueError, match="another catalog"):
            astar_configure(job, ordered_catalog(2),
                            cache=TaskDistCache(job, ordered_catalog(3), 200, 1))

    @pytest.mark.parametrize("catalog", [ordered_catalog(3), skewed_catalog()],
                             ids=["ordered", "skewed"])
    def test_evaluates_plans_in_cost_order(self, catalog):
        # Every plan cheaper than the returned one is evaluated first, and
        # nothing after the first feasible plan is.
        rng = np.random.default_rng(8)
        checked = 0
        for i in range(30):
            job, cache = random_case(rng, catalog, i)
            stats = SearchStats()
            try:
                plan = astar_configure(job, catalog, cache=cache, stats=stats)
            except InfeasiblePlanError:
                continue
            best = plan_cost(cache, tuple(plan))
            costs = [plan_cost(cache, p) for p in
                     itertools.product(range(len(catalog)), repeat=len(job.tasks))]
            below = sum(c < best for c in costs)
            at_most = sum(c <= best for c in costs)
            assert below <= stats.iterations - 1 <= at_most, (i, plan)
            assert stats.feasible_found == 1
            # The initial plan and every generated one is popped or left queued.
            assert stats.iterations + stats.pruned == stats.generated + 1
            checked += 1
        assert checked >= 20

    def test_max_iter_respected(self):
        job, cat = planned_job([mixed_profile()] * 4, deadline_frac=0.2)
        stats = SearchStats()
        params = AStarParams(max_iter=3)
        try:
            astar_configure(job, cat, params=params, cache=TaskDistCache(job, cat, 500, 3),
                            stats=stats)
        except InfeasiblePlanError:
            pass
        assert stats.iterations <= 3

    def test_budget_exhausted_is_reported(self):
        # At D_min none of the first three plans is feasible, and more are
        # still queued when the budget ends.
        job, cat = planned_job([mixed_profile()] * 4, deadline_frac=0.0)
        with pytest.raises(InfeasiblePlanError) as err:
            astar_configure(job, cat, params=AStarParams(max_iter=3),
                            cache=TaskDistCache(job, cat, 500, 3))
        assert err.value.budget_exhausted and err.value.evaluated == 3
        assert "(budget of 3 iterations exhausted)" in str(err.value)

    def test_initial_state_feasible_returns_all_cheapest(self):
        # Past D_max with margin: the percentile sits above the expectation,
        # so frac 1.0 alone does not make the all-cheapest plan feasible.
        job, cat = planned_job([mixed_profile()] * 3, deadline_frac=1.5)
        stats = SearchStats()
        plan = astar_configure(job, cat, cache=TaskDistCache(job, cat, 1000, 3), stats=stats)
        assert plan == [0, 0, 0]

    def test_monotone_expansion_dominance_per_task(self):
        # On a catalog with strictly ordered types, the mutated dimension of
        # any child has a distribution dominating the parent's.
        job, cat = planned_job([mixed_profile()] * 2)
        cache = TaskDistCache(job, cat, sample_count=1500, seed=7)
        for tid in range(2):
            for t1 in range(len(cat) - 1):
                for t2 in range(t1 + 1, len(cat)):
                    assert dominates(cache.dist(tid, t2), cache.dist(tid, t1), 0.01)


class TestTaskDistCache:
    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_table_equals_serial_draws_bit_for_bit(self, monkeypatch, workers):
        # Each pair draws from its own substream, so neither the pool size
        # nor the order the pool finishes in changes a sample.
        monkeypatch.setattr(planner_astar, "_usable_cpus", lambda: [0] * workers)
        cat = ordered_catalog(3)
        job = diamond_job([mixed_profile(), cpu_profile(50.0),
                           mixed_profile(0.5), mixed_profile(2.0)])
        n, seed = 300, 4
        cache = TaskDistCache(job, cat, n, seed)
        for t in job.tasks:
            for k in range(len(cat)):
                serial = task_time_distribution(t.profile, cat[k], n, derive_seed(seed, t.id, k))
                assert cache.dist(t.id, k).samples.tobytes() == serial.samples.tobytes()
                assert cache.cost(t.id, k) == expected_ondemand_cost(cat[k].ondemand_price,
                                                                     serial)

    @pytest.mark.parametrize("refused", [False, True])
    def test_pool_threads_are_pinned_to_distinct_usable_cpus(self, monkeypatch, refused):
        pins = []

        def pin(pid, cpus):
            pins.append((pid, cpus))
            if refused:
                raise OSError(22, "Invalid argument")

        monkeypatch.setattr(planner_astar, "_usable_cpus", lambda: [3, 5])
        monkeypatch.setattr(os, "sched_setaffinity", pin, raising=False)
        job = chain_job([mixed_profile()] * 4)
        cache = TaskDistCache(job, ordered_catalog(3), 2000, 1)
        assert cache.dist(3, 2).samples.size == 2000
        # The pool starts a thread only when none is idle, so it may start one.
        assert pins and all(pid == 0 and len(cpus) == 1 for pid, cpus in pins)
        assert sorted(cpu for _, (cpu,) in pins) == [3, 5][:len(pins)]

    def test_a_plan_draws_each_pair_once(self, monkeypatch):
        calls = []
        draw = planner_astar.task_time_distribution

        def counting_draw(*args, **kwargs):
            calls.append(args)
            return draw(*args, **kwargs)

        monkeypatch.setattr(planner_astar, "task_time_distribution", counting_draw)
        cat = ordered_catalog(3)
        job = diamond_job([mixed_profile(), cpu_profile(50.0),
                           mixed_profile(0.5), mixed_profile(2.0)])
        failure = FailureModel(traces={0: stable_trace(0.02)}, num_trials=500, rng_seed=2)
        plan_class(ExperimentSpec(samples=300, seed=4), job, cat, failure)
        assert len(calls) == len(job.tasks) * len(cat)

    def test_a_failing_draw_reaches_the_caller_unchanged(self):
        good = ordered_catalog(2)
        bad = Catalog([good[0], dataclasses.replace(good[1], seq_io=GammaSpec(0.0, 1.0))])
        job = chain_job([mixed_profile(), mixed_profile(0.5)])
        with pytest.raises(ValueError, match="produces no positive mass") as serial:
            task_time_distribution(job.tasks[0].profile, bad[1], 200, 1)
        # The table is drawn whole when it is built, so the constructor raises.
        with pytest.raises(ValueError) as pooled:
            TaskDistCache(job, bad, 200, 1)
        assert str(pooled.value) == str(serial.value)


class TestPlanCache:
    def test_roundtrip(self, tmp_path):
        config = HybridConfig((ConfigDim(1, 0.031, True), ConfigDim(0, 0.06, False)))
        plans = {
            "wf-a": JobPlan("wf-a", 1234.5, 0.96,
                            [config, HybridConfig((ConfigDim(0, 0.06, False),))]),
        }
        path = tmp_path / "plans.json"
        save_plan_cache(plans, path)
        loaded = load_plan_cache(path)
        assert loaded["wf-a"].deadline == 1234.5
        assert loaded["wf-a"].task_configs[0] == config

    def test_rejects_other_files(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            load_plan_cache(path)
