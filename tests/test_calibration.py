"""Planner against simulator: simulated makespans follow the planned law.

With no acquisition lag and an on-demand plan, a simulated job's makespan
is the longest path through its DAG over its tasks' simulated durations.
Those durations come from the planner's own sampler
(cloud_model.sample_task_time) under keys of their own, rounded to whole
seconds.  So the simulated makespans and a per-sample longest path over the
planner's TaskDistCache samples are draws of one law, and a two-sample
Kolmogorov-Smirnov test must not tell them apart at the 1% level:
D <= 1.63 * sqrt((n + m) / (n m)), about 0.040 for n = 2,000 simulated jobs
and m = 10,000 planner samples.

The reference path rounds each task sample with np.rint, as the
simulator's integer clock does.  Against the unrounded plan_distribution
the statistic nearly doubles on the ligo and epigenomics m1.medium cases,
whose makespan standard deviation is only about 10 s: 0.031-0.037 at
simulation seeds 11 and 12, against 0.013-0.018 for the rounded path, so a
gate on the unrounded law would sit within a few thousandths of its bound.
Over all six cases the rounded path gives D = 0.013-0.025 at seed 11.  A
simulator that draws a task's
durations without one of its bandwidth bands, from another type than the
plan's, or rounds them up fails the gate.
"""

import dataclasses
import math

import numpy as np
import pytest

from spotflow.cloud_model import Catalog, default_catalog
from spotflow.planner_astar import JobPlan, TaskDistCache
from spotflow.simulator import SimConfig, Simulator
from spotflow.workflow_dag import HybridConfig, epigenomics_like, ligo_like, montage_like

SIM_JOBS = 2000
SIM_SEED = 11
REFERENCE_SAMPLES = 10_000
KS_1PCT = 1.63


def zero_lag_catalog():
    return Catalog([dataclasses.replace(t, acquisition_lag_ondemand=0.0,
                                        acquisition_lag_spot=0.0)
                    for t in default_catalog()])


def rounded_longest_path(job, cache, type_id):
    """Per-sample makespan of an all-`type_id` plan over whole-second task times."""
    finish = {}
    for task in sorted(job.tasks, key=lambda t: t.id):  # ids are topological
        start = np.zeros(cache.sample_count)
        for pred in task.predecessors:
            start = np.maximum(start, finish[pred])
        finish[task.id] = start + np.rint(cache.dist(task.id, type_id).samples)
    return np.maximum.reduce([finish[tid] for tid in job.sink_ids()])


def ks_statistic(a, b):
    """Two-sample KS statistic, exact with ties (both ECDFs on the pooled values)."""
    a, b = np.sort(a), np.sort(b)
    grid = np.union1d(a, b)
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


@pytest.mark.parametrize("type_id", [0, 1], ids=["m1.small", "m1.medium"])
@pytest.mark.parametrize("job", [
    montage_like(4),
    ligo_like(1, 4),
    epigenomics_like(2, 4, seed=6),
], ids=lambda job: job.class_id)
def test_simulated_makespans_follow_the_planned_law(job, type_id):
    catalog = zero_lag_catalog()
    plan = JobPlan(job.class_id, 1e9, job.guarantee_p,
                   [HybridConfig.ondemand_only(catalog[type_id])] * len(job.tasks))
    report = Simulator(SimConfig(arrival_rate_per_min=0.01, job_count=SIM_JOBS, seed=SIM_SEED),
                       [job], {job.class_id: plan}, catalog).run()
    simulated = np.array([row["makespan_s"] for row in report.per_job], dtype=np.float64)
    planned = rounded_longest_path(job, TaskDistCache(job, catalog, REFERENCE_SAMPLES),
                                   type_id)
    n, m = simulated.size, planned.size
    assert ks_statistic(simulated, planned) <= KS_1PCT * math.sqrt((n + m) / (n * m))
