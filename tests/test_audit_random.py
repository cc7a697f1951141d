"""Seeded random simulations, each checked by the event-log auditor.

Each case draws a small workload from np.random.default_rng([39, case]):

- a DAG of 3-8 tasks, every edge from a lower to a higher task id;
- 2-4 types of ordered_catalog, each kind's acquisition lag drawn from
  {0, 60, 420} s;
- one spiky price trace per type, on irregular sampling steps;
- per task, an on-demand-only config or a spot dimension on a random type
  whose bid lies below every price of its trace (out of bid at once),
  inside the price range, or above every price (never out of bid);
- a release policy, 20-200 jobs and 0.001-10 arrivals per minute,
  log-uniform.

The run's event log must re-derive report.json's fields (rederive_report)
and keep the schedule rules (check_schedule).  A case that fails names a
fault in the simulator or in the auditor; it is fixed, never dropped or
reseeded.
"""

import dataclasses
import json

import numpy as np
import pytest

from spotflow.cloud_model import Catalog, TaskProfile
from spotflow.planner_astar import JobPlan, save_plan_cache
from spotflow.simulator import RELEASE_POLICIES, SimConfig, Simulator
from spotflow.spot_market import SpotPriceTrace
from spotflow.workflow_dag import ConfigDim, HybridConfig, build_job

from conftest import ordered_catalog
from log_audit import check_schedule, parse, rederive_report

CASES = 200
LAGS = (0.0, 60.0, 420.0)


def random_catalog(rng):
    types = [dataclasses.replace(itype, acquisition_lag_ondemand=rng.choice(LAGS),
                                 acquisition_lag_spot=rng.choice(LAGS))
             for itype in ordered_catalog(int(rng.integers(2, 5)))]
    return Catalog(types)


def random_job(rng):
    n = int(rng.integers(3, 9))
    density = rng.uniform(0.2, 0.6)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    profiles = {i: TaskProfile(instructions=rng.uniform(5e10, 3e12),
                               seq_io_mb=rng.uniform(0, 5000), rnd_io_mb=rng.uniform(0, 500),
                               net_in_mb=rng.uniform(0, 1000), net_out_mb=rng.uniform(0, 1000))
               for i in range(n)}
    return build_job(profiles, edges, deadline=rng.uniform(500, 30_000), class_id="random")


def spiky_random_trace(rng, itype):
    """Prices near a random share of the on-demand price, with random spikes above it."""
    n = int(rng.integers(20, 300))
    times = np.cumsum(rng.choice([300.0, 600.0, 1800.0, 3600.0], size=n)) + rng.random()
    prices = itype.ondemand_price * rng.uniform(0.2, 0.6) * (1.0 + 0.2 * rng.random(n))
    spikes = rng.random(n) < rng.uniform(0.02, 0.2)
    prices[spikes] = itype.ondemand_price * rng.uniform(1.5, 4.0)
    return SpotPriceTrace(times, prices)


def random_config(rng, catalog, traces):
    ondemand = HybridConfig.ondemand_only(catalog[int(rng.integers(len(catalog)))])
    if rng.random() < 0.25:
        return ondemand
    type_id = int(rng.integers(len(catalog)))
    prices = traces[type_id].prices
    bid = rng.choice([prices.min() * rng.uniform(0.5, 0.99),  # out of bid at once
                      rng.uniform(prices.min(), prices.max()),
                      prices.max() * rng.uniform(1.01, 2.0)])  # never out of bid
    return HybridConfig((ConfigDim(type_id, float(bid), True),) + ondemand.dims)


@pytest.mark.parametrize("case", range(CASES))
def test_random_run_passes_the_audit(tmp_path, case):
    rng = np.random.default_rng([39, case])
    catalog = random_catalog(rng)
    job = random_job(rng)
    traces = {itype.id: spiky_random_trace(rng, itype) for itype in catalog}
    plans = {job.class_id: JobPlan(job.class_id, job.deadline, job.guarantee_p,
                                   [random_config(rng, catalog, traces) for _ in job.tasks])}
    config = SimConfig(arrival_rate_per_min=10 ** rng.uniform(-3, 1),
                       job_count=int(rng.integers(20, 201)), seed=case,
                       idle_release_policy=str(rng.choice(RELEASE_POLICIES)),
                       collect_event_log=True)
    sim = Simulator(config, [job], plans, catalog, traces)
    report = json.loads(sim.run().to_json())
    save_plan_cache(plans, tmp_path / "plans.json")
    plans_doc = json.loads((tmp_path / "plans.json").read_text(encoding="utf-8"))

    events = parse(sim.event_log)
    derived = rederive_report(events, plans_doc, catalog, traces)
    for key, value in derived.items():
        assert value == report[key], key
    check_schedule(events, {job.class_id: job}, plans_doc, catalog, traces)
