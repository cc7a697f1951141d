import math
import re

import pytest

from spotflow.cloud_model import Catalog, GammaSpec, InstanceType, NormalSpec
from spotflow.distributions import substream
from spotflow.planner_astar import JobPlan
from spotflow.simulator import (
    EventKind,
    Instance,
    InstancePool,
    PlanMismatchError,
    SimConfig,
    Simulator,
    bill,
    run,
)
from spotflow.spot_market import SpotPriceTrace
from spotflow.workflow_dag import ConfigDim, HybridConfig

from conftest import chain_job, constant_trace, cpu_profile, ordered_catalog


def single_type_catalog(lag_od=0.0, lag_spot=0.0):
    return Catalog([InstanceType(
        0, "solo", 0.06, 1e9,
        GammaSpec(100, 1.0), NormalSpec(100, 10), GammaSpec(100, 1.0), GammaSpec(100, 1.0),
        lag_od, lag_spot,
    )])


def od_config(catalog, type_id=0):
    return HybridConfig.ondemand_only(catalog[type_id])


def spot_first_config(catalog, bid, type_id=0):
    itype = catalog[type_id]
    return HybridConfig((ConfigDim(type_id, bid, True),
                         ConfigDim(type_id, itype.ondemand_price, False)))


def first_arrival(seed, rate_per_min=0.1):
    """Mirror of the simulator's arrival stream, for hand-traced timelines."""
    rng = substream(seed, "arrivals")
    return int(math.ceil(rng.exponential(60.0 / rate_per_min)))


def make_plans(job, configs):
    return {job.class_id: JobPlan(job.class_id, job.deadline, job.guarantee_p, configs)}


class TestBill:
    def _inst(self, is_spot, bid=None):
        return Instance(id=0, type_id=0, is_spot=is_spot, bid=bid, ready_time=0)

    def test_ondemand_90_minutes(self):
        itype = single_type_catalog()[0]
        assert bill(self._inst(False), 5400, "user", itype) == (2, pytest.approx(0.12))

    def test_spot_out_of_bid_partial_hour_free(self):
        itype = single_type_catalog()[0]
        trace = constant_trace(0.05)
        assert bill(self._inst(True, 0.1), 5400, "out-of-bid", itype, trace) == (
            1, pytest.approx(0.05))

    def test_spot_user_terminated_rounds_up(self):
        itype = single_type_catalog()[0]
        trace = constant_trace(0.05)
        assert bill(self._inst(True, 0.1), 1800, "user", itype, trace) == (1, pytest.approx(0.05))

    def test_spot_price_sampled_at_hour_starts(self):
        itype = single_type_catalog()[0]
        trace = SpotPriceTrace([0, 3600, 7200], [0.05, 0.07, 0.05])
        assert bill(self._inst(True, 0.2), 7200, "user", itype, trace) == (2, pytest.approx(0.12))

    def test_61_minute_ondemand_bills_two_hours(self):
        itype = single_type_catalog()[0]
        assert bill(self._inst(False), 3660, "user", itype) == (2, pytest.approx(0.12))


class TestPool:
    def test_same_kind_reuse(self):
        pool = InstancePool()
        inst = pool.create(0, False, None, ready_time=0)
        pool.mark_idle(inst)
        got = pool.acquire_or_reuse(0, False, now=100, expected_time=9999)
        assert got is inst

    def test_spot_consolidates_onto_ondemand(self):
        pool = InstancePool()
        inst = pool.create(0, False, None, ready_time=0)
        pool.mark_idle(inst)
        got = pool.acquire_or_reuse(0, True, now=1800, expected_time=600)
        assert got is inst

    def test_consolidation_needs_remaining_headroom(self):
        pool = InstancePool()
        inst = pool.create(0, False, None, ready_time=0)
        pool.mark_idle(inst)
        assert pool.acquire_or_reuse(0, True, now=3000, expected_time=900) is None
        assert pool.acquire_or_reuse(0, True, now=3000, expected_time=300) is inst

    def test_ondemand_never_consolidates_onto_spot(self):
        pool = InstancePool()
        inst = pool.create(0, True, 0.1, ready_time=0)
        pool.mark_idle(inst)
        assert pool.acquire_or_reuse(0, False, now=100, expected_time=1) is None

    def test_type_must_match(self):
        pool = InstancePool()
        inst = pool.create(0, False, None, ready_time=0)
        pool.mark_idle(inst)
        assert pool.acquire_or_reuse(1, False, now=100, expected_time=1) is None


class TestSingleTaskRuns:
    def test_ondemand_cost_and_hit(self):
        cat = single_type_catalog()
        job = chain_job([cpu_profile(600.0)], deadline=2000.0, class_id="one")
        plans = make_plans(job, [od_config(cat)])
        rep = run(SimConfig(job_count=1, seed=4), [job], plans, cat)
        assert rep.total_cost == pytest.approx(0.06)
        assert rep.hit_rate == 1.0
        assert rep.per_job[0]["makespan_s"] == 600

    def test_61_minute_task_two_hours(self):
        cat = single_type_catalog()
        job = chain_job([cpu_profile(3660.0)], deadline=10_000.0, class_id="long")
        plans = make_plans(job, [od_config(cat)])
        rep = run(SimConfig(job_count=1, seed=4), [job], plans, cat)
        assert rep.total_cost == pytest.approx(0.12)
        assert rep.instance_hours == {"solo:ondemand": 2}

    def test_late_job_misses_deadline(self):
        cat = single_type_catalog()
        job = chain_job([cpu_profile(600.0)], deadline=100.0, class_id="late")
        plans = make_plans(job, [od_config(cat)])
        rep = run(SimConfig(job_count=1, seed=4), [job], plans, cat)
        assert rep.hit_rate == 0.0

    def test_acquisition_lag_counts_against_makespan(self):
        cat = single_type_catalog(lag_od=120.0)
        job = chain_job([cpu_profile(600.0)], deadline=2000.0, class_id="lagged")
        plans = make_plans(job, [od_config(cat)])
        rep = run(SimConfig(job_count=1, seed=4), [job], plans, cat)
        assert rep.per_job[0]["makespan_s"] == 720


class TestHybridExecution:
    def test_spot_spike_falls_back_to_ondemand(self):
        # Hand-traced timeline: spot boots (420 s), runs 300 s, dies in a
        # price spike, task restarts on-demand (120 s lag) and finishes.
        seed = 4
        cat = single_type_catalog(lag_od=120.0, lag_spot=420.0)
        a = first_arrival(seed)
        spike_start = a + 720.0
        trace = SpotPriceTrace(
            [0.0, spike_start, spike_start + 3600.0],
            [0.05, 0.50, 0.05],
        )
        job = chain_job([cpu_profile(600.0)], deadline=2000.0, class_id="spiky")
        plans = make_plans(job, [spot_first_config(cat, bid=0.10)])
        sim = Simulator(SimConfig(job_count=1, seed=seed, collect_event_log=True),
                        [job], plans, cat, {0: trace})
        rep = sim.run()
        # Spot ran 300 s and died out-of-bid: full hours elapsed = 0, so $0.
        # On-demand: ready at spike+120, runs 600 s, 1 hour billed.
        assert rep.total_cost == pytest.approx(0.06)
        assert rep.instance_hours == {"solo:ondemand": 1, "solo:spot": 0}
        assert rep.per_job[0]["makespan_s"] == 420 + 300 + 120 + 600
        assert rep.hit_rate == 1.0
        assert any("OutOfBid" in line for line in sim.event_log)

    def test_always_failing_spot_still_completes(self):
        cat = single_type_catalog()
        trace = constant_trace(0.50)  # every bid below 0.5 dies at boot
        job = chain_job([cpu_profile(600.0)] * 2, deadline=5000.0, class_id="rough")
        plans = make_plans(job, [spot_first_config(cat, bid=0.10)] * 2)
        rep = run(SimConfig(job_count=3, seed=5), [job], plans, cat, {0: trace})
        assert rep.job_count == 3
        assert all(row["completion"] is not None for row in rep.per_job)
        assert rep.hit_rate == 1.0

    def test_high_bid_spot_never_fails(self):
        cat = single_type_catalog()
        trace = constant_trace(0.02)
        job = chain_job([cpu_profile(600.0)], deadline=2000.0, class_id="calm")
        plans = make_plans(job, [spot_first_config(cat, bid=1000.0)])
        rep = run(SimConfig(job_count=1, seed=5), [job], plans, cat, {0: trace})
        assert rep.total_cost == pytest.approx(0.02)
        assert rep.instance_hours == {"solo:spot": 1}


class TestReuseAndConsolidation:
    def test_chain_reuses_instance_within_paid_hour(self):
        cat = single_type_catalog(lag_od=120.0)
        job = chain_job([cpu_profile(600.0)] * 3, deadline=10_000.0, class_id="chain")
        plans = make_plans(job, [od_config(cat)] * 3)
        sim = Simulator(SimConfig(job_count=1, seed=4), [job], plans, cat)
        rep = sim.run()
        assert len(sim.pool.instances) == 1
        assert rep.total_cost == pytest.approx(0.06)
        # One acquisition lag, then back-to-back execution.
        assert rep.per_job[0]["makespan_s"] == 120 + 3 * 600

    def test_spot_request_consolidated_onto_idle_ondemand(self):
        cat = single_type_catalog(lag_od=120.0, lag_spot=420.0)
        trace = constant_trace(0.02)
        job = chain_job([cpu_profile(600.0)] * 2, deadline=10_000.0, class_id="mix")
        plans = {job.class_id: JobPlan(job.class_id, job.deadline, job.guarantee_p,
                                       [od_config(cat), spot_first_config(cat, bid=0.05)])}
        sim = Simulator(SimConfig(job_count=1, seed=4), [job], plans, cat, {0: trace})
        rep = sim.run()
        # The second (spot-first) task runs on the idle on-demand instance.
        assert len(sim.pool.instances) == 1
        assert not sim.pool.instances[0].is_spot
        assert rep.total_cost == pytest.approx(0.06)

    def test_ondemand_request_not_placed_on_idle_spot(self):
        cat = single_type_catalog()
        trace = constant_trace(0.02)
        job = chain_job([cpu_profile(600.0)] * 2, deadline=10_000.0, class_id="mix2")
        plans = {job.class_id: JobPlan(job.class_id, job.deadline, job.guarantee_p,
                                       [spot_first_config(cat, bid=1000.0), od_config(cat)])}
        sim = Simulator(SimConfig(job_count=1, seed=4), [job], plans, cat, {0: trace})
        sim.run()
        kinds = sorted(inst.is_spot for inst in sim.pool.instances.values())
        assert kinds == [False, True]

    def test_immediate_release_acquires_more_instances(self):
        cat = single_type_catalog()
        job = chain_job([cpu_profile(60.0)], deadline=10_000.0, class_id="r")
        plans = make_plans(job, [od_config(cat)])
        reuse = Simulator(SimConfig(job_count=5, seed=6, arrival_rate_per_min=1.0),
                          [job], plans, cat)
        rep_reuse = reuse.run()
        fresh = Simulator(SimConfig(job_count=5, seed=6, arrival_rate_per_min=1.0,
                                    idle_release_policy="immediate"),
                          [job], plans, cat)
        rep_fresh = fresh.run()
        assert len(fresh.pool.instances) > len(reuse.pool.instances)
        assert rep_fresh.total_cost >= rep_reuse.total_cost

    def test_no_overlapping_busy_intervals(self):
        cat = single_type_catalog()
        job = chain_job([cpu_profile(240.0)] * 3, deadline=10_000.0, class_id="busy")
        plans = make_plans(job, [od_config(cat)] * 3)
        sim = Simulator(SimConfig(job_count=8, seed=7, arrival_rate_per_min=2.0),
                        [job], plans, cat)
        sim.run()
        for inst in sim.pool.instances.values():
            intervals = sorted(inst.busy_intervals)
            for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
                assert e1 <= s2


class TestInvariants:
    def _mixed_sim(self, seed=11):
        cat = ordered_catalog(2, lag_od=120.0, lag_spot=420.0)
        trace = constant_trace(0.02)
        job = chain_job([cpu_profile(400.0), cpu_profile(900.0)],
                        deadline=10_000.0, class_id="inv")
        plans = {job.class_id: JobPlan(job.class_id, job.deadline, job.guarantee_p,
                                       [spot_first_config(cat, bid=0.05),
                                        od_config(cat, 1)])}
        config = SimConfig(job_count=20, seed=seed, arrival_rate_per_min=0.5,
                           collect_event_log=True)
        return Simulator(config, [job], plans, cat, {0: trace, 1: trace})

    def test_billing_conservation_exact(self):
        rep = self._mixed_sim().run()
        assert sum(rep.instance_bills) == rep.total_cost

    def test_byte_identical_reports_for_same_seed(self):
        r1 = self._mixed_sim(seed=13).run()
        r2 = self._mixed_sim(seed=13).run()
        assert r1.to_json().encode() == r2.to_json().encode()

    def test_different_seeds_differ(self):
        r1 = self._mixed_sim(seed=13).run()
        r2 = self._mixed_sim(seed=14).run()
        assert r1.to_json() != r2.to_json()

    def test_no_task_starts_before_predecessors_finish(self):
        sim = self._mixed_sim()
        sim.run()
        finishes = {}
        for line in sim.event_log:
            m = re.match(r"(\d+) TaskFinish job=(\d+) task=(\d+)", line)
            if m:
                t, j, task = map(int, m.groups())
                finishes[(j, task)] = t
        job = sim.classes[0]
        for line in sim.event_log:
            m = re.match(r"(\d+) TaskStart job=(\d+) task=(\d+)", line)
            if not m:
                continue
            t, j, task = map(int, m.groups())
            for pred in job.task_by_id(task).predecessors:
                assert finishes[(j, pred)] <= t

    def test_every_job_completes(self):
        rep = self._mixed_sim().run()
        assert all(row["completion"] is not None for row in rep.per_job)


class TestHitRates:
    def test_all_on_time(self):
        cat = single_type_catalog()
        job = chain_job([cpu_profile(600.0)], deadline=5000.0, class_id="ok")
        plans = make_plans(job, [od_config(cat)])
        rep = run(SimConfig(job_count=4, seed=8), [job], plans, cat)
        assert rep.hit_rate == 1.0

    def test_one_of_two_classes_late(self):
        cat = single_type_catalog()
        ok = chain_job([cpu_profile(600.0)], deadline=5000.0, class_id="ok")
        late = chain_job([cpu_profile(600.0)], deadline=10.0, class_id="late")
        plans = {}
        plans.update(make_plans(ok, [od_config(cat)]))
        plans.update(make_plans(late, [od_config(cat)]))
        rep = run(SimConfig(job_count=2, seed=8), [ok, late], plans, cat)
        assert rep.hit_rate == 0.5


class TestValidation:
    def test_missing_plan_rejected_before_simulation(self):
        cat = single_type_catalog()
        job = chain_job([cpu_profile(600.0)], deadline=5000.0, class_id="x")
        with pytest.raises(PlanMismatchError):
            Simulator(SimConfig(job_count=1, seed=1), [job], {}, cat)

    def test_task_count_mismatch_rejected(self):
        cat = single_type_catalog()
        job = chain_job([cpu_profile(600.0)] * 2, deadline=5000.0, class_id="x")
        plans = make_plans(job, [od_config(cat)])  # only one config
        with pytest.raises(PlanMismatchError):
            Simulator(SimConfig(job_count=1, seed=1), [job], plans, cat)

    def test_spot_dim_without_trace_rejected(self):
        cat = single_type_catalog()
        job = chain_job([cpu_profile(600.0)], deadline=5000.0, class_id="x")
        plans = make_plans(job, [spot_first_config(cat, bid=0.1)])
        with pytest.raises(PlanMismatchError):
            Simulator(SimConfig(job_count=1, seed=1), [job], plans, cat, {})

    @pytest.mark.parametrize("rate", [0.0, -1.0, math.nan, math.inf])
    def test_arrival_rate_must_be_positive_and_finite(self, rate):
        with pytest.raises(ValueError, match="arrival rate"):
            SimConfig(arrival_rate_per_min=rate)

    def test_event_kind_tie_break_order(self):
        assert (EventKind.TASK_FINISH < EventKind.OUT_OF_BID
                < EventKind.JOB_ARRIVAL < EventKind.INSTANCE_READY
                < EventKind.INSTANCE_RELEASE)
