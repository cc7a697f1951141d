import re

import numpy as np
import pytest

from spotflow import workflow_dag
from spotflow.cloud_model import (CLOCK_BOUND, GammaSpec, TaskProfile, _positive_draw,
                                  default_catalog)
from spotflow.distributions import EmpiricalDistribution, substream
from spotflow.planner_astar import TaskDistCache
from spotflow.workflow_dag import (
    CycleError,
    HybridConfig,
    ConfigDim,
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

from conftest import chain_job, cpu_profile, diamond_job, mixed_profile, ordered_catalog


def pm(value, n=100):
    return EmpiricalDistribution(np.full(n, value))


def uniform_dist(lo, hi, n=10_000, seed=0):
    rng = substream(seed, "uniform-fixture")
    return EmpiricalDistribution(rng.uniform(lo, hi, n))


class TestTaskById:
    def test_replaced_job_indexes_its_own_tasks(self):
        job = build_job({5: cpu_profile(1.0), 9: cpu_profile(2.0)}, [(9, 5)])
        other = job.with_deadline(100.0)
        assert other.tasks == job.tasks


class TestAssignIds:
    def test_chain_ids(self):
        job = chain_job([TaskProfile()] * 3)
        assert [t.id for t in job.tasks] == [0, 1, 2]
        assert job.tasks[1].predecessors == [0]
        assert job.tasks[1].successors == [2]

    def test_diamond_endpoints(self):
        job = diamond_job([TaskProfile()] * 4)
        assert job.tasks[0].predecessors == []
        assert job.tasks[3].successors == []
        for u, v in job.edges():
            assert u < v

    def test_reversed_input_order_is_canonicalized(self):
        # Input ids deliberately anti-topological.
        job = build_job({5: TaskProfile(), 2: TaskProfile(), 9: TaskProfile()},
                        [(9, 2), (2, 5)])
        assert [t.id for t in job.tasks] == [0, 1, 2]
        assert job.edges() == [(0, 1), (1, 2)]

    def test_cycle_detected_with_edge(self):
        with pytest.raises(CycleError) as err:
            build_job({0: TaskProfile(), 1: TaskProfile(), 2: TaskProfile()},
                      [(0, 1), (1, 2), (2, 1)])
        u, v = err.value.edge
        assert (u, v) in ((1, 2), (2, 1))


def _tasks(*links):
    """Tasks from (id, predecessors, successors) triples, in the order given."""
    return [Task(id=tid, profile=TaskProfile(), predecessors=list(preds),
                 successors=list(succs))
            for tid, preds, succs in links]


class TestIdInvariant:
    def test_positional_topological_job_is_accepted(self):
        job = WorkflowJob(_tasks((0, [], [1, 2]), (1, [0], [2]), (2, [0, 1], [])))
        assert job.edges() == [(0, 1), (0, 2), (1, 2)]

    @pytest.mark.parametrize("links", [
        [(1, [], []), (0, [], [])],                  # ids are not positions
        [(0, [], []), (2, [], [])],                  # a gap in the ids
        [(0, [], []), (0, [], [])],                  # duplicate id
        [(0, [0], [])],                              # own predecessor
        [(0, [], []), (1, [2], []), (2, [], [])],    # predecessor after its task
        [(0, [], []), (1, [-1], [])],                # predecessor below 0
        [(0, [], [0])],                              # own successor
        [(0, [], []), (1, [], [0])],                 # successor before its task
        [(0, [], [2]), (1, [], [])],                 # successor beyond the job
    ])
    def test_constructor_rejects_other_numberings(self, links):
        with pytest.raises(WorkflowError):
            WorkflowJob(_tasks(*links))

    @pytest.mark.parametrize("seed", range(12))
    def test_build_job_numbers_random_dags_topologically(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 16))
        provisional = [int(x) for x in rng.permutation(100)[:n]]
        hidden = [provisional[i] for i in rng.permutation(n)]  # a topological order
        edges = [(hidden[a], hidden[b]) for a in range(n) for b in range(a + 1, n)
                 if rng.random() < 0.3]
        given = [provisional[i] for i in rng.permutation(n)]
        profiles = {tid: TaskProfile(instructions=float(tid + 1)) for tid in given}
        job = build_job(profiles, edges)

        new_id = {int(t.profile.instructions) - 1: t.id for t in job.tasks}
        assert sorted(new_id) == sorted(given)
        assert sorted(new_id.values()) == list(range(n))
        assert sorted(job.edges()) == sorted((new_id[u], new_id[v]) for u, v in edges)
        assert all(u < v for u, v in job.edges())
        preds = {tid: {u for u, v in edges if v == tid} for tid in given}
        placed = set()
        for task in job.tasks:
            ready = [tid for tid in given if tid not in placed and preds[tid] <= placed]
            assert new_id[ready[0]] == task.id
            placed.add(ready[0])


class TestComposition:
    def test_chain_of_point_masses(self):
        job = chain_job([TaskProfile()] * 3)
        dist = workflow_time_distribution(job, {0: pm(2), 1: pm(3), 2: pm(4)})
        assert dist.sorted_samples[0] == dist.sorted_samples[-1] == 9.0

    def test_fan_in_max_then_add(self):
        # Two parallel tasks joining into a final task.
        job = build_job({0: TaskProfile(), 1: TaskProfile(), 2: TaskProfile()},
                        [(0, 2), (1, 2)])
        dist = workflow_time_distribution(job, {0: pm(2), 1: pm(5), 2: pm(1)})
        assert dist.sorted_samples[0] == dist.sorted_samples[-1] == 6.0

    def test_diamond_against_independent_critical_path_oracle(self):
        job = diamond_job([TaskProfile()] * 4)
        dists = {i: uniform_dist(1, 10, seed=100 + i) for i in range(4)}
        got = workflow_time_distribution(job, dists)

        # Independent oracle: brute-force critical path over freshly sampled
        # tuples with a different generator.
        rng = np.random.default_rng(999)
        n = 40_000
        a, b, c, d = (rng.uniform(1, 10, n) for _ in range(4))
        oracle = a + np.maximum(b, c) + d
        assert got.expectation() == pytest.approx(oracle.mean(), rel=0.03)

    def test_missing_distribution_rejected(self):
        job = chain_job([TaskProfile()] * 2)
        with pytest.raises(WorkflowError):
            workflow_time_distribution(job, {0: pm(1)})

    def test_non_series_parallel_falls_back(self):
        # Triangle A->B->C plus A->C is not reducible by node merges.
        job = build_job({0: TaskProfile(), 1: TaskProfile(), 2: TaskProfile()},
                        [(0, 1), (1, 2), (0, 2)])
        dists = {0: pm(2), 1: pm(3), 2: pm(4)}
        dist = workflow_time_distribution(job, dists)
        assert dist.sorted_samples[0] == dist.sorted_samples[-1] == 9.0

    def test_workflow_slower_than_any_single_task(self):
        job = diamond_job([TaskProfile()] * 4)
        dists = {i: uniform_dist(5, 20, seed=300 + i) for i in range(4)}
        wf = workflow_time_distribution(job, dists)
        from spotflow.distributions import dominates
        for d in dists.values():
            assert dominates(d, wf, 0.01)


def ks_distance(dist, cdf):
    """Kolmogorov-Smirnov distance between an empirical and an exact CDF."""
    x = dist.sorted_samples
    f = cdf(x)
    n = x.size
    ranks = np.arange(1, n + 1)
    return max(np.max(ranks / n - f), np.max(f - (ranks - 1) / n))


class TestMakespanStatistics:
    """Index-paired composition against closed-form makespan laws."""

    N = 10_000
    KS_BOUND = 1.63 / np.sqrt(N)  # 1% level of the one-sample KS test

    @pytest.mark.parametrize("seed", range(5))
    def test_gamma_chain_is_erlang(self, seed):
        # Gamma(2, 3) + Gamma(3, 3) + Gamma(1, 3) = Erlang(6) with scale 3.
        job = chain_job([TaskProfile()] * 3)
        dists = {i: EmpiricalDistribution(
                     _positive_draw(GammaSpec(k, 3.0), substream(10 * seed + i, "gamma"), self.N))
                 for i, k in enumerate((2, 3, 1))}
        got = workflow_time_distribution(job, dists)

        def erlang_cdf(x):
            y = x / 3.0
            term = np.ones_like(y)
            total = np.ones_like(y)
            for k in range(1, 6):
                term = term * y / k
                total += term
            return 1.0 - np.exp(-y) * total

        assert ks_distance(got, erlang_cdf) <= self.KS_BOUND

    @pytest.mark.parametrize("seed", range(5))
    def test_exponential_fan_is_max(self, seed):
        job = build_job({i: TaskProfile() for i in range(3)}, [])
        dists = {i: EmpiricalDistribution(
                     _positive_draw(GammaSpec(1, 1.0), substream(10 * seed + i, "gamma"), self.N))
                 for i in range(3)}
        got = workflow_time_distribution(job, dists)
        assert ks_distance(got, lambda x: (1.0 - np.exp(-x)) ** 3) <= self.KS_BOUND

    def test_diamond_keeps_shared_ancestor_correlated(self):
        # E[a + max(b, c) + d] = 1 + 1.5 + 1 for Exp(1) tasks; pairing the
        # two branches' copies of a independently would raise the mean.
        job = diamond_job([TaskProfile()] * 4)
        dists = {i: EmpiricalDistribution(
                     _positive_draw(GammaSpec(1, 1.0), substream(40 + i, "gamma"), self.N))
                 for i in range(4)}
        got = workflow_time_distribution(job, dists)
        assert got.expectation() == pytest.approx(3.5, rel=0.02)


class TestFeasibility:
    def test_boundary_inclusive(self):
        job = chain_job([TaskProfile()], deadline=100.0, guarantee_p=0.96)
        assert is_feasible(job, pm(100))
        assert not is_feasible(job, pm(101))

    def test_nearest_rank_boundary(self):
        dist = EmpiricalDistribution(np.arange(1, 101, dtype=float))
        job96 = chain_job([TaskProfile()], deadline=96.0, guarantee_p=0.96)
        job95 = chain_job([TaskProfile()], deadline=95.0, guarantee_p=0.96)
        assert is_feasible(job96, dist)
        assert not is_feasible(job95, dist)

    def test_requires_deadline(self):
        job = chain_job([TaskProfile()])
        with pytest.raises(WorkflowError):
            is_feasible(job, pm(1))

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"), CLOCK_BOUND])
    def test_rejects_bad_deadline(self, bad):
        message = "deadline must be in (0, %g) s" % CLOCK_BOUND
        with pytest.raises(WorkflowError, match=re.escape(message)):
            chain_job([TaskProfile()], deadline=bad)


class TestDeadlineBounds:
    def test_single_cpu_task(self):
        cat = ordered_catalog(4)
        job = chain_job([cpu_profile(80.0)])  # 80 s on t0, 10 s on t3
        d_min, d_max = deadline_bounds(job, cat, n=100, seed=0)
        assert d_min == pytest.approx(10.0)
        assert d_max == pytest.approx(80.0)

    def test_chain_adds(self):
        cat = ordered_catalog(4)
        job = chain_job([cpu_profile(80.0), cpu_profile(80.0)])
        d_min, d_max = deadline_bounds(job, cat, n=100, seed=0)
        assert d_min == pytest.approx(20.0)
        assert d_max == pytest.approx(160.0)

    def test_fan_uses_longest_branch(self):
        cat = ordered_catalog(4)
        # A -> {B, C} -> D with B slower than C.
        job = diamond_job([cpu_profile(40.0), cpu_profile(80.0),
                           cpu_profile(20.0), cpu_profile(40.0)])
        d_min, d_max = deadline_bounds(job, cat, n=100, seed=0)
        assert d_max == pytest.approx(40 + 80 + 40)
        assert d_min == pytest.approx((40 + 80 + 40) / 8)


    def test_cache_gives_the_same_bounds(self):
        cat = ordered_catalog(3)
        # The pure-CPU task is on the critical path and keeps its exact CPU
        # time, which the mean of its cached samples misses by a rounding;
        # the others read the cache.
        job = diamond_job([mixed_profile(), cpu_profile(3333.3),
                           mixed_profile(0.5), mixed_profile(2.0)])
        cache = TaskDistCache(job, cat, sample_count=300, seed=4)
        for k in (0, 2):
            cpu_time = job.tasks[1].profile.instructions / cat[k].cpu_speed
            assert cache.dist(1, k).expectation() != cpu_time
        with_cache = deadline_bounds(job, cat, cache=cache)
        assert with_cache == deadline_bounds(job, cat, n=300, seed=4)
        assert [len(row) for row in cache._dists] == [len(cat)] * len(job.tasks)

    def test_n_and_seed_come_only_without_a_cache(self, monkeypatch):
        # The cache fixes both, so either one given with it is refused,
        # even when it matches, before any task time is read or drawn.
        cat = ordered_catalog(2)
        job = chain_job([mixed_profile()])
        cache = TaskDistCache(job, cat, sample_count=300, seed=4)
        monkeypatch.setattr(workflow_dag, "expected_task_time", None)  # a read would raise
        for kwargs in ({"n": 300}, {"seed": 4}, {"n": 300, "seed": 4}, {"n": 200, "seed": 5}):
            with pytest.raises(ValueError, match="n and seed are fixed by the cache"):
                deadline_bounds(job, cat, cache=cache, **kwargs)

    def test_cache_must_match_the_catalog(self):
        # Read from a cache over another catalog, the bounds would come from
        # that catalog's fastest and slowest types.
        job = chain_job([mixed_profile()])
        with pytest.raises(ValueError, match="another catalog"):
            deadline_bounds(job, default_catalog(),
                            cache=TaskDistCache(job, ordered_catalog(4), 300, 4))


class TestHybridConfig:
    def test_last_dim_must_be_ondemand(self):
        with pytest.raises(ValueError):
            HybridConfig((ConfigDim(0, 0.05, True),))

    def test_spot_dims_before_ondemand(self):
        with pytest.raises(ValueError, match="must be spot"):
            HybridConfig((ConfigDim(0, 0.06, False), ConfigDim(0, 0.06, False)))
        # At most one spot dimension.
        with pytest.raises(ValueError, match="one or two dimensions, got 3"):
            HybridConfig((ConfigDim(1, 0.05, True), ConfigDim(0, 0.03, True),
                          ConfigDim(0, 0.06, False)))
        config = HybridConfig((ConfigDim(1, 0.03, True), ConfigDim(0, 0.06, False)))
        assert len(config.spot_dims) == 1
        assert not config.ondemand_dim.is_spot


class TestWorkflowFiles:
    def test_roundtrip(self, tmp_path):
        job = diamond_job([TaskProfile(instructions=1e9, seq_io_mb=5)] * 4)
        path = tmp_path / "wf.txt"
        save_workflow(job, path)
        loaded = load_workflow(path)
        assert [t.id for t in loaded.tasks] == [0, 1, 2, 3]
        assert sorted(loaded.edges()) == sorted(job.edges())
        assert loaded.class_id == "wf"

    def test_class_id_drops_only_the_last_extension(self, tmp_path):
        path = tmp_path / "x.y.wf"
        path.write_text("task 0 1e9 0 0 0 0\n")
        assert load_workflow(path).class_id == "x.y"

    def test_auto_ids(self, tmp_path):
        path = tmp_path / "wf.txt"
        path.write_text("task 1e9 0 0 0 0\ntask 2e9 0 0 0 0\nedge 0 1\n")
        job = load_workflow(path)
        assert len(job.tasks) == 2
        assert job.edges() == [(0, 1)]

    def test_parse_error_line_number(self, tmp_path):
        path = tmp_path / "wf.txt"
        path.write_text("task 0 1e9 0 0 0 0\nbogus line\n")
        with pytest.raises(WorkflowError, match=":2:"):
            load_workflow(path)

    @pytest.mark.parametrize("line", ["task inf 1e9 0 0 0 0", "task 0 nan 0 0 0 0",
                                      "task 1e9 0 inf 0 0"])
    def test_non_finite_numbers_rejected_with_line(self, tmp_path, line):
        path = tmp_path / "wf.txt"
        path.write_text("task 1e9 0 0 0 0\n%s\n" % line)
        with pytest.raises(WorkflowError, match=":2:"):
            load_workflow(path)

    @pytest.mark.parametrize("tid", ["1.5", "1e3"])
    def test_non_integer_task_id_rejected_with_line(self, tmp_path, tid):
        path = tmp_path / "wf.txt"
        path.write_text("task 0 1e9 0 0 0 0\ntask %s 1e9 0 0 0 0\n" % tid)
        with pytest.raises(WorkflowError, match=":2: .*'%s'" % tid):
            load_workflow(path)

    def test_cycle_in_file(self, tmp_path):
        path = tmp_path / "wf.txt"
        path.write_text("task 0 1 0 0 0 0\ntask 1 1 0 0 0 0\nedge 0 1\nedge 1 0\n")
        with pytest.raises(CycleError):
            load_workflow(path)


class TestGenerators:
    @pytest.mark.parametrize("maker", [
        lambda: montage_like(width=4, seed=1),
        lambda: ligo_like(branches=2, width=3, seed=2),
        lambda: epigenomics_like(lanes=3, depth=3, seed=3),
    ])
    def test_generated_jobs_are_valid_dags(self, maker):
        job = maker()
        assert len(job.tasks) > 4
        for u, v in job.edges():
            assert u < v
        # Deterministic for the same seed.
        again = maker()
        assert again.edges() == job.edges()
        assert [t.profile for t in again.tasks] == [t.profile for t in job.tasks]

    def test_montage_has_single_sink(self):
        job = montage_like(width=4, seed=1)
        assert len(job.sink_ids()) == 1
