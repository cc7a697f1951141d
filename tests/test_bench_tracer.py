"""The benchmark's per-layer tracer still finds every name it wraps.

bench/tracing.py patches program functions by name (workflow_dag.convolve,
planner_astar.workflow_time_distribution, each module's substream, ...) and
raises MissingTarget for a name the program no longer has.  Entering a
Tracer here turns a rename into a test failure.
"""

import pathlib
import sys
from collections import Counter

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    yield tracing
    sys.modules.pop("tracing", None)


def test_tracer_installs_and_restores_every_target(tracing):
    from spotflow import distributions, planner_astar, workflow_dag
    from spotflow.cloud_model import default_catalog

    originals = (workflow_dag.convolve, workflow_dag.max_of,
                 planner_astar.workflow_time_distribution, distributions.substream)
    job = workflow_dag.ligo_like(1, 3)
    cache = planner_astar.TaskDistCache(job, default_catalog(), sample_count=200)
    with tracing.Tracer() as tracer:
        assert workflow_dag.convolve is not originals[0]
        planner_astar.plan_distribution(job, cache, (0,) * len(job.tasks))
    # The wrapped composition names are the ones plan evaluation calls.
    spans = Counter(tracer.names[i] for i in tracer.span_name)
    assert spans["distributions.convolve"] >= 1
    assert spans["distributions.max_of"] >= 1
    assert (workflow_dag.convolve, workflow_dag.max_of,
            planner_astar.workflow_time_distribution, distributions.substream) == originals


def test_tracer_records_the_refinement_layers(tracing):
    from spotflow import planner_astar, planner_hybrid
    from spotflow.spot_market import FailureModel

    from conftest import chain_job, mixed_profile, ordered_catalog, stable_trace

    catalog = ordered_catalog(2)
    job = chain_job([mixed_profile()])
    cache = planner_astar.TaskDistCache(job, catalog, sample_count=400, seed=2)
    failure = FailureModel(traces={0: stable_trace(0.02)}, num_trials=500, rng_seed=2)
    with tracing.Tracer() as tracer:
        config = planner_hybrid.refine_task(0, catalog[0], catalog, failure, cache)
    assert config.spot_dims
    spans = Counter(tracer.names[i] for i in tracer.span_name)
    for name in ("distributions.dominates", "planner_hybrid.hybrid_time",
                 "spot_market.estimate_ffp"):
        assert spans[name] >= 1, name
