"""Makespan composition is bit-identical to per-operand shuffling.

The reference below is the composition as first written: every convolve and
max draws its own permutation (equal sizes) or bootstrap resample (unequal
sizes) per operand, and the series/parallel reduction is recomputed for
every evaluation.  The package composes from memoized index vectors and a
merge schedule computed once per DAG shape; both must give the same arrays.
"""

import numpy as np
import pytest

from spotflow import distributions
from spotflow.cloud_model import default_catalog
from spotflow.distributions import EmpiricalDistribution, _pairing, substream
from spotflow.planner_astar import TaskDistCache, plan_distribution
from spotflow.workflow_dag import build_job, ligo_like, montage_like, workflow_time_distribution

from conftest import cpu_profile


def ref_derive_seed(seed, *key):
    return int(substream(seed, *key).integers(0, 2**63))


def ref_aligned(dist, n, rng):
    if dist.sample_count == n:
        return rng.permutation(dist.samples)
    return rng.choice(dist.samples, size=n, replace=True)


def ref_convolve(a, b, seed):
    n = max(a.sample_count, b.sample_count)
    rng = substream(seed, "convolve")
    return EmpiricalDistribution(ref_aligned(a, n, rng) + ref_aligned(b, n, rng))


def ref_max_of(dists, seed):
    if len(dists) == 1:
        return dists[0]
    n = max(d.sample_count for d in dists)
    rng = substream(seed, "max")
    acc = np.array(ref_aligned(dists[0], n, rng))
    for d in dists[1:]:
        np.maximum(acc, ref_aligned(d, n, rng), out=acc)
    return EmpiricalDistribution(acc)


def ref_reduce(job, dists, seed):
    n = max(d.sample_count for d in dists.values())
    zero = EmpiricalDistribution.point_mass(0.0, n=max(n, 2))
    preds = {t.id: set(t.predecessors) for t in job.tasks}
    succs = {t.id: set(t.successors) for t in job.tasks}
    node_dist = dict(dists, src=zero, snk=zero)
    preds["src"], succs["src"] = set(), set(job.source_ids())
    preds["snk"], succs["snk"] = set(job.sink_ids()), set()
    for tid in job.source_ids():
        preds[tid].add("src")
    for tid in job.sink_ids():
        succs[tid].add("snk")
    op = 0

    def order_key(node):
        return (0, node) if isinstance(node, int) else (1, node)

    changed = True
    while changed and len(node_dist) > 1:
        changed = False
        for u in sorted(node_dist, key=order_key):
            if u not in node_dist:
                continue
            while len(succs[u]) == 1:
                (v,) = succs[u]
                if len(preds[v]) != 1:
                    break
                node_dist[u] = ref_convolve(node_dist[u], node_dist[v],
                                            ref_derive_seed(seed, "compose", op))
                op += 1
                succs[u] = set(succs[v])
                for w in succs[u]:
                    preds[w].discard(v)
                    preds[w].add(u)
                del node_dist[v], preds[v], succs[v]
                changed = True
        groups = {}
        for u in sorted(node_dist, key=order_key):
            groups.setdefault((frozenset(preds[u]), frozenset(succs[u])), []).append(u)
        for members in groups.values():
            if len(members) < 2:
                continue
            node_dist[members[0]] = ref_max_of([node_dist[m] for m in members],
                                               ref_derive_seed(seed, "compose", op))
            op += 1
            for v in members[1:]:
                for w in preds[v]:
                    succs[w].discard(v)
                for w in succs[v]:
                    preds[w].discard(v)
                del node_dist[v], preds[v], succs[v]
            changed = True
    if len(node_dist) == 1:
        (result,) = node_dist.values()
        return result
    return None


def ref_monte_carlo(job, dists, seed):
    n = max(d.sample_count for d in dists.values())
    rng = substream(seed, "critical-path")
    durations = {tid: ref_aligned(dists[tid], n, rng) for tid in sorted(dists)}
    finish = {}
    for t in sorted(job.tasks, key=lambda t: t.id):
        acc = durations[t.id].copy()
        if t.predecessors:
            pred_max = finish[t.predecessors[0]]
            for p in t.predecessors[1:]:
                pred_max = np.maximum(pred_max, finish[p])
            acc += pred_max
        finish[t.id] = acc
    makespan = None
    for tid in job.sink_ids():
        makespan = finish[tid] if makespan is None else np.maximum(makespan, finish[tid])
    return EmpiricalDistribution(makespan)


def ref_workflow_time(job, dists, seed):
    if len(job.tasks) == 1:
        return dists[job.tasks[0].id]
    reduced = ref_reduce(job, dists, seed)
    return reduced if reduced is not None else ref_monte_carlo(job, dists, seed)


def random_case(rng, equal_sizes):
    n_tasks = int(rng.integers(3, 9))
    density = rng.uniform(0.2, 0.7)
    edges = [(u, v) for u in range(n_tasks) for v in range(u + 1, n_tasks)
             if rng.random() < density]
    job = build_job({i: cpu_profile(1.0) for i in range(n_tasks)}, edges)
    sizes = [64] * n_tasks if equal_sizes else rng.choice([16, 40, 64], size=n_tasks)
    dists = {t.id: EmpiricalDistribution(rng.gamma(2.0, 50.0, size=int(size)))
             for t, size in zip(job.tasks, sizes)}
    return job, dists


@pytest.mark.parametrize("equal_sizes", [True, False])
def test_random_dags_match_per_operand_shuffling(equal_sizes):
    rng = np.random.default_rng(11 if equal_sizes else 12)
    reducible = irreducible = 0
    for case in range(80):
        job, dists = random_case(rng, equal_sizes)
        seed = int(rng.integers(0, 2**62))
        want = ref_workflow_time(job, dists, seed)
        got = workflow_time_distribution(job, dists, seed=seed)
        assert np.array_equal(got.samples, want.samples), (case, job.edges())
        if ref_reduce(job, dists, seed) is None:
            irreducible += 1
        else:
            reducible += 1
    assert reducible >= 10 and irreducible >= 10


@pytest.mark.parametrize("make_job", [lambda: ligo_like(1, 4), lambda: montage_like(4)],
                         ids=["series-parallel", "monte-carlo"])
def test_plans_evaluated_a_b_a_give_identical_arrays(make_job):
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
    want = ref_workflow_time(job, dists, ref_derive_seed(5, "compose-root"))
    assert np.array_equal(again.samples, want.samples)


def test_pairing_cache_stays_within_its_byte_bound():
    cache = distributions._PAIRINGS
    n = 10_000
    for seed in range(150):  # 150 x 80 KB, well past the bound
        entry = _pairing(seed, "convolve", (n, n), n)
        assert all(idx.dtype == np.int32 and not idx.flags.writeable for idx in entry)
        assert cache.nbytes <= distributions.PAIRING_CACHE_BYTES
    held = sum(idx.nbytes for entry in cache._entries.values() for idx in entry)
    assert held == cache.nbytes
    # The most recent entry is served from the cache; an entry larger than
    # the bound is returned but not kept.
    assert _pairing(149, "convolve", (n, n), n) is entry
    too_big = (n,) * (distributions.PAIRING_CACHE_BYTES // (4 * n) + 1)
    big = _pairing(7, "critical-path", too_big, n)
    assert len(big) == len(too_big)
    assert (7, "critical-path", too_big, n) not in cache._entries
    assert cache.nbytes <= distributions.PAIRING_CACHE_BYTES


def test_lazily_sorted_distribution_is_immutable():
    samples = np.random.default_rng(3).gamma(2.0, 10.0, size=501)
    d = EmpiricalDistribution(samples)
    assert d.percentile(0.5) == np.sort(samples)[250]
    srt = d.sorted_samples
    assert np.array_equal(srt, np.sort(d.samples))
    assert d.sorted_samples is srt
    assert not d.samples.flags.writeable and not srt.flags.writeable
    with pytest.raises(ValueError):
        srt[0] = 0.0
    with pytest.raises(AttributeError):
        d._sorted = None
    samples[0] = -1.0  # the caller's array is copied, not shared
    assert d.min_value() >= 0.0
