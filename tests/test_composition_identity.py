"""Makespan composition is bit-identical to a plain per-sample longest path.

The reference below stacks the task samples into a (tasks x samples) array
and computes every sample's critical-path length with numpy alone.  The
package composes through convolve/max_of, which pair samples by index; both
must give the same arrays on any DAG, series/parallel reducible or not.
"""

import numpy as np
import pytest

from spotflow.cloud_model import default_catalog
from spotflow.distributions import EmpiricalDistribution
from spotflow.planner_astar import TaskDistCache, plan_distribution
from spotflow.workflow_dag import (
    WorkflowError,
    build_job,
    ligo_like,
    montage_like,
    workflow_time_distribution,
)

from conftest import cpu_profile


def ref_longest_path(job, dists):
    """Per-sample critical-path length, one row of samples per task id."""
    samples = np.stack([dists[tid].samples for tid in range(len(job.tasks))])
    finish = np.empty_like(samples)
    for t in job.tasks:
        finish[t.id] = samples[t.id]
        if t.predecessors:
            finish[t.id] = finish[t.predecessors].max(axis=0) + samples[t.id]
    return finish[job.sink_ids()].max(axis=0)


def is_series_parallel(job):
    """True when the DAG reduces to one node by series and parallel merges."""
    preds = {t.id: set(t.predecessors) for t in job.tasks}
    succs = {tid: set(ids) for tid, ids in enumerate(job.successors())}
    preds["src"], succs["src"] = set(), set(job.source_ids())
    preds["snk"], succs["snk"] = set(job.sink_ids()), set()
    for tid in job.source_ids():
        preds[tid].add("src")
    for tid in job.sink_ids():
        succs[tid].add("snk")
    changed = True
    while changed and len(preds) > 1:
        changed = False
        for u in list(preds):
            if u in preds and len(succs[u]) == 1:
                (v,) = succs[u]
                if len(preds[v]) == 1:  # series: u absorbs v
                    succs[u] = succs.pop(v)
                    del preds[v]
                    for w in succs[u]:
                        preds[w] = preds[w] - {v} | {u}
                    changed = True
        groups = {}
        for u in preds:
            groups.setdefault((frozenset(preds[u]), frozenset(succs[u])), []).append(u)
        for members in groups.values():
            for v in members[1:]:  # parallel: members[0] absorbs the rest
                for w in preds.pop(v):
                    succs[w].discard(v)
                for w in succs.pop(v):
                    preds[w].discard(v)
                changed = True
    return len(preds) == 1


def random_case(rng):
    n_tasks = int(rng.integers(3, 9))
    density = rng.uniform(0.2, 0.7)
    edges = [(u, v) for u in range(n_tasks) for v in range(u + 1, n_tasks)
             if rng.random() < density]
    job = build_job({i: cpu_profile(1.0) for i in range(n_tasks)}, edges)
    n = int(rng.choice([16, 40, 64]))
    dists = {t.id: EmpiricalDistribution(rng.gamma(2.0, 50.0, size=n)) for t in job.tasks}
    return job, dists


@pytest.mark.parametrize("rng_seed", [11, 12])
def test_random_dags_match_per_sample_longest_path(rng_seed):
    rng = np.random.default_rng(rng_seed)
    reducible = irreducible = 0
    for case in range(80):
        job, dists = random_case(rng)
        got = workflow_time_distribution(job, dists)
        assert np.array_equal(got.samples, ref_longest_path(job, dists)), (case, job.edges())
        # The sweep over the heads of the task samples is the head of the sweep.
        k = got.sample_count // 3
        heads = {tid: d.head(k) for tid, d in dists.items()}
        assert np.shares_memory(heads[0].samples, dists[0].samples)
        assert np.array_equal(workflow_time_distribution(job, heads).samples, got.samples[:k])
        if is_series_parallel(job):
            reducible += 1
        else:
            irreducible += 1
    assert reducible >= 10 and irreducible >= 10


def test_unequal_sample_counts_rejected():
    job = build_job({i: cpu_profile(1.0) for i in range(3)}, [(0, 1), (1, 2)])
    dists = {0: EmpiricalDistribution(np.full(40, 1.0)),
             1: EmpiricalDistribution(np.full(40, 2.0)),
             2: EmpiricalDistribution(np.full(64, 3.0))}
    with pytest.raises(WorkflowError, match="unequal sample counts"):
        workflow_time_distribution(job, dists)


@pytest.mark.parametrize("make_job", [lambda: ligo_like(1, 4), lambda: montage_like(4)],
                         ids=["series-parallel", "monte-carlo"])
def test_plans_evaluated_a_b_a_give_identical_arrays(make_job):
    # ligo_like(1, 4) is series/parallel reducible, montage_like(4) is not.
    job = make_job()
    cache = TaskDistCache(job, default_catalog(), sample_count=2000, seed=5)
    plan_a = tuple([0] * len(job.tasks))
    plan_b = tuple(i % 4 for i in range(len(job.tasks)))
    first = plan_distribution(job, cache, plan_a)
    other = plan_distribution(job, cache, plan_b)
    again = plan_distribution(job, cache, plan_a)
    assert np.array_equal(first.samples, again.samples)
    assert not np.array_equal(first.samples, other.samples)
    dists = {tid: cache.dist(tid, type_id) for tid, type_id in enumerate(plan_a)}
    assert np.array_equal(again.samples, ref_longest_path(job, dists))


def test_lazily_sorted_distribution_is_immutable():
    samples = np.random.default_rng(3).gamma(2.0, 10.0, size=501)
    d = EmpiricalDistribution(samples)
    assert d.percentile(0.5) == np.sort(samples)[250]
    srt = d.sorted_samples
    assert np.array_equal(srt, np.sort(samples))
    assert not d.samples.flags.writeable and not srt.flags.writeable
    for arr in (srt, d.samples):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    for name in ("_samples", "_mean"):
        with pytest.raises(AttributeError):
            setattr(d, name, None)
    samples[0] = -1.0  # the caller's array is copied, not shared
    assert d.samples[0] >= 0.0 and d.sorted_samples[0] >= 0.0
