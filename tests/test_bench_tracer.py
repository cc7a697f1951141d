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
        config = planner_hybrid.refine_task(0, catalog[0], failure, cache)
    assert config.spot_dims
    spans = Counter(tracer.names[i] for i in tracer.span_name)
    for name in ("distributions.dominates", "planner_hybrid.hybrid_time",
                 "spot_market.estimate_ffp"):
        assert spans[name] >= 1, name


# Every span name the benchmark's per-layer metrics read, by layer.
ROUTED_SPANS = (
    # search
    "planner_astar.search", "planner_astar.evals", "workflow_dag.compose",
    "workflow_dag.deadline_bounds",
    # composition
    "distributions.convolve", "distributions.max_of", "distributions.percentile",
    # task-time draws
    "cloud_model.task_time_distribution", "cloud_model.expected_task_time",
    # refinement
    "planner_hybrid.refine", "planner_hybrid.refine_task", "planner_hybrid.bid_step",
    "planner_hybrid.hybrid_cost", "planner_hybrid.hybrid_time", "spot_market.estimate_ffp",
    "distributions.dominates",
    # shared
    "distributions.substream", "cli.load", "cli.plan_cache_io",
    # simulator
    "simulator.run", "cloud_model.sample_task_time", "simulator.bill",
    "simulator.pool.acquire", "simulator.pool.create", "simulator.pool.mark_idle",
    "simulator.pool.remove", "spot_market.first_exceedance", "spot_market.price_at",
)


def test_a_plan_and_simulate_run_reaches_every_traced_layer(tracing, tmp_path, capsys):
    # A layer the program reaches without going through the patched name
    # would read 0 in the benchmark without failing it.
    from spotflow import cli
    from spotflow.planner_astar import load_plan_cache
    from spotflow.workflow_dag import save_workflow

    from conftest import (chain_job, mixed_profile, ordered_catalog, save_catalog, spiky_trace,
                          stable_trace)

    save_catalog(ordered_catalog(2), tmp_path / "catalog.csv")
    save_workflow(chain_job([mixed_profile(), mixed_profile(0.5)], class_id="toy"),
                  tmp_path / "toy.wf")
    # The plan bids against a cheap stable market; simulate replays a market
    # that spikes far above any bid for one hour in three, so some spot
    # instances are killed and others are billed at market prices.
    for name, trace in (("stable", stable_trace(0.024)),
                        ("spiky", spiky_trace(spike=3.0, low_hours=2))):
        (tmp_path / name).mkdir()
        (tmp_path / name / "t0.csv").write_text("".join(
            "%r,%r\n" % (float(t), float(p)) for t, p in zip(trace.timestamps, trace.prices)))
    common = ["--catalog", str(tmp_path / "catalog.csv"), "--workflow", str(tmp_path / "toy.wf"),
              "--out", str(tmp_path / "out"), "--samples", "400", "--seed", "2"]
    with tracing.Tracer() as tracer:
        assert cli.main(["plan", *common, "--trace-dir", str(tmp_path / "stable"),
                         "--planner", "dyna", "--ffp-trials", "500",
                         "--deadline-factor", "1.5"]) == 0
        assert cli.main(["simulate", *common, "--trace-dir", str(tmp_path / "spiky"),
                         "--jobs", "20"]) == 0
    capsys.readouterr()
    plans = load_plan_cache(tmp_path / "out" / "plans.json")
    assert any(config.spot_dims for config in plans["toy"].task_configs)
    spans = Counter(tracer.names[i] for i in tracer.span_name)
    for name in ROUTED_SPANS:
        assert spans[name] >= 1, name
    assert tracer.counts["out_of_bid"] >= 1
