"""Tracer counters on small hand-built cases.

    python3 -m pytest bench/tests
"""

import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from spotflow import (  # noqa: E402
    ConfigDim,
    FailureModel,
    HybridConfig,
    JobPlan,
    SimConfig,
    Simulator,
    SpotPriceTrace,
    TaskProfile,
    build_job,
    default_catalog,
    planner_astar,
    planner_hybrid,
)
from tracing import MissingTarget, Tracer  # noqa: E402

PROFILE = TaskProfile(instructions=1e12, seq_io_mb=1000, net_in_mb=100, net_out_mb=100)


def one_task_job(deadline):
    return build_job({0: PROFILE}, [], deadline=deadline, class_id="one")


def test_trace_always_above_bid_gives_one_out_of_bid_and_one_restart():
    catalog = default_catalog()
    small = catalog[0]
    job = one_task_job(deadline=1e6)
    plan = JobPlan(class_id="one", deadline=1e6, guarantee_p=0.96, task_configs=[
        HybridConfig((ConfigDim(small.id, 0.01, True),
                      ConfigDim(small.id, small.ondemand_price, False))),
    ])
    trace = SpotPriceTrace([0.0, 3600.0], [1.0, 1.0])
    sim = Simulator(SimConfig(job_count=1), [job], {"one": plan}, catalog, {small.id: trace})
    with Tracer() as tracer:
        report = sim.run()
    m = tracer.metrics(tasks_submitted=1, class_ids=[])
    assert report.per_job[0]["completion"] is not None
    assert m["simulator.out_of_bid"] == 1
    assert m["simulator.restarts"] == 1
    assert m["simulator.instances"] == 2


def test_one_task_job_is_evaluated_once():
    catalog = default_catalog()
    with Tracer() as tracer:
        plan = planner_astar.astar_configure(one_task_job(deadline=1e9), catalog,
                                             sample_count=200)
    m = tracer.metrics(tasks_submitted=0, class_ids=["one"])
    assert plan == [0]
    assert m["planner_astar.evals"] == 1
    assert m["planner_astar.evals.one"] == 1
    assert m["planner_astar.iterations"] == 1
    assert m["planner_astar.budget_exhausted"] == 0


def test_repeated_ffp_key_counts_as_hit():
    model = FailureModel(traces={0: SpotPriceTrace([0.0, 3600.0, 7200.0], [0.02, 0.5, 0.02])},
                         num_trials=100)
    with Tracer() as tracer:
        first = planner_hybrid.estimate_ffp(model, 0, 0.05)
        second = planner_hybrid.estimate_ffp(model, 0, 0.05)
        planner_hybrid.estimate_ffp(model, 0, 0.06)
    m = tracer.metrics(tasks_submitted=0, class_ids=[])
    assert second is first
    assert m["spot_market.estimate_ffp.calls"] == 3
    assert m["spot_market.estimate_ffp.hit_ratio"] == 1 / 3


def test_uninstall_restores_every_patched_name():
    before = (planner_astar.astar_configure, planner_hybrid.estimate_ffp,
              Simulator.run, planner_hybrid.substream)
    with Tracer():
        assert planner_astar.astar_configure is not before[0]
    after = (planner_astar.astar_configure, planner_hybrid.estimate_ffp,
             Simulator.run, planner_hybrid.substream)
    assert after == before


def test_missing_patch_target_raises_and_leaves_nothing_patched(monkeypatch):
    original = planner_astar.astar_configure
    monkeypatch.delattr(planner_hybrid, "hybrid_cost")
    with pytest.raises(MissingTarget, match="hybrid_cost"):
        with Tracer():
            pass
    assert planner_astar.astar_configure is original
