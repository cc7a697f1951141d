import json
import math
import re

import numpy as np
import pytest

from spotflow import simulator
from spotflow.cloud_model import (
    Catalog,
    GammaSpec,
    InstanceType,
    NormalSpec,
    default_catalog,
)
from spotflow.distributions import substream
from spotflow.planner_astar import JobPlan, save_plan_cache
from spotflow.simulator import (
    EventKind,
    Instance,
    InstancePool,
    PlanMismatchError,
    SimConfig,
    Simulator,
    bill,
)
from spotflow.spot_market import SpotPriceTrace
from spotflow.workflow_dag import ConfigDim, HybridConfig, build_job, ligo_like, montage_like

from conftest import chain_job, constant_trace, cpu_profile, ordered_catalog, spiky_trace
from log_audit import check_schedule, rederive_bills


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


class TestPaidUntil:
    """One paid-hour rule: bill's started hours end at Instance.paid_until.

    Checked against a float reference: started hours are ceil(elapsed /
    3600) (0 for no time), paid_until is ready + 3600 * started hours, and
    an out-of-bid spot instance pays the full hours, elapsed // 3600.
    """

    ITYPE = single_type_catalog()[0]
    TRACE = constant_trace(0.05, hours=2)

    def check_started(self, ready, elapsed):
        started = math.ceil(elapsed / 3600) if elapsed > 0 else 0
        inst = Instance(id=0, type_id=0, is_spot=False, bid=None, ready_time=ready)
        hours, _ = bill(inst, ready + elapsed, "user", self.ITYPE)
        got = inst.paid_until(ready + elapsed)
        assert hours == started and got == ready + 3600 * hours
        assert type(hours) is int and type(got) is int

    def check_out_of_bid(self, ready, elapsed):
        # Billing loops over the paid hours, so keep `elapsed` small.
        inst = Instance(id=0, type_id=0, is_spot=True, bid=0.1, ready_time=ready)
        hours, _ = bill(inst, ready + elapsed, "out-of-bid", self.ITYPE, self.TRACE)
        assert hours == math.floor(elapsed / 3600) and type(hours) is int

    @pytest.mark.parametrize("elapsed", [0, 1, 3599, 3600, 3601, 3660])
    def test_hour_edges(self, elapsed):
        for ready in (0, 7, 3600, 10**9):
            self.check_started(ready, elapsed)
            self.check_out_of_bid(ready, elapsed)

    def test_random_ints_up_to_1e9(self):
        rng = np.random.default_rng(22)
        for ready, elapsed in rng.integers(0, 10**9, size=(5000, 2)).tolist():
            self.check_started(ready, elapsed)
            self.check_out_of_bid(ready, elapsed % 100_000)


class TestPool:
    def test_same_kind_reuse(self):
        pool = InstancePool()
        inst = pool.create(0, False, None, ready_time=0)
        pool.mark_idle(inst)
        got = pool.acquire_or_reuse(0, False, now=100, expected_time=lambda: 9999)
        assert got is inst

    def test_spot_consolidates_onto_ondemand(self):
        pool = InstancePool()
        inst = pool.create(0, False, None, ready_time=0)
        pool.mark_idle(inst)
        got = pool.acquire_or_reuse(0, True, now=1800, expected_time=lambda: 600)
        assert got is inst

    def test_consolidation_needs_remaining_headroom(self):
        pool = InstancePool()
        inst = pool.create(0, False, None, ready_time=0)
        pool.mark_idle(inst)
        assert pool.acquire_or_reuse(0, True, now=3000, expected_time=lambda: 900) is None
        assert pool.acquire_or_reuse(0, True, now=3000, expected_time=lambda: 300) is inst

    @pytest.mark.parametrize("now, fits, too_long", [
        (3000, 600, 601),  # 600 s left of the first hour
        (3600, 0, 1),      # on the boundary the next hour is not paid yet
        (7000, 200, 201),  # 200 s left of the second hour
    ])
    def test_consolidation_headroom_ends_at_the_paid_hour(self, now, fits, too_long):
        pool = InstancePool()
        inst = pool.create(0, False, None, ready_time=0)
        pool.mark_idle(inst)
        assert pool.acquire_or_reuse(0, True, now=now, expected_time=lambda: too_long) is None
        assert pool.acquire_or_reuse(0, True, now=now, expected_time=lambda: fits) is inst

    def test_ondemand_never_consolidates_onto_spot(self):
        pool = InstancePool()
        inst = pool.create(0, True, 0.1, ready_time=0)
        pool.mark_idle(inst)
        assert pool.acquire_or_reuse(0, False, now=100, expected_time=lambda: 1) is None

    def test_type_must_match(self):
        pool = InstancePool()
        inst = pool.create(0, False, None, ready_time=0)
        pool.mark_idle(inst)
        assert pool.acquire_or_reuse(1, False, now=100, expected_time=lambda: 1) is None

    def test_spot_reuse_needs_a_bid_at_least_the_requested_one(self):
        # An instance bid at b1 dies on prices a b2 > b1 request covers.
        pool = InstancePool()
        inst = pool.create(0, True, 0.05, ready_time=0)
        pool.mark_idle(inst)
        assert pool.acquire_or_reuse(0, True, now=100, bid=0.10) is None
        assert pool.acquire_or_reuse(0, True, now=100, bid=0.05) is inst
        pool.mark_idle(inst)
        assert pool.acquire_or_reuse(0, True, now=100, bid=0.01) is inst

    def test_spot_reuse_takes_lowest_id_among_high_enough_bids(self):
        pool = InstancePool()
        low, high, higher = (pool.create(0, True, bid, ready_time=0)
                             for bid in (0.05, 0.10, 0.20))
        for inst in (higher, low, high):
            pool.mark_idle(inst)
        assert pool.acquire_or_reuse(0, True, now=100, bid=0.08) is high
        assert pool.acquire_or_reuse(0, True, now=100, bid=0.08) is higher
        assert pool.acquire_or_reuse(0, True, now=100, bid=0.08) is None
        assert pool.acquire_or_reuse(0, True, now=100, bid=0.08) is None
        assert pool.acquire_or_reuse(0, True, now=100, bid=0.05) is low

    def test_headroom_is_read_only_by_a_consolidation_check(self):
        calls = []

        def expected_time():
            calls.append(1)
            return 600

        pool = InstancePool()
        spot, od = pool.create(0, True, 0.05, ready_time=0), pool.create(0, False, None, 0)
        pool.mark_idle(spot)
        assert pool.acquire_or_reuse(0, True, now=1800, bid=0.10,
                                     expected_time=expected_time) is None
        assert calls == []  # no idle on-demand instance to consolidate onto
        pool.mark_idle(od)
        assert pool.acquire_or_reuse(0, True, now=1800, bid=0.05,
                                     expected_time=expected_time) is spot
        assert pool.acquire_or_reuse(0, False, now=1800, expected_time=expected_time) is od
        assert calls == []
        pool.mark_idle(od)
        assert pool.acquire_or_reuse(0, True, now=1800, bid=0.05,
                                     expected_time=expected_time) is od
        assert calls == [1]


class TestSingleTaskRuns:
    def test_ondemand_cost_and_hit(self):
        cat = single_type_catalog()
        job = chain_job([cpu_profile(600.0)], deadline=2000.0, class_id="one")
        plans = make_plans(job, [od_config(cat)])
        rep = Simulator(SimConfig(job_count=1, seed=4), [job], plans, cat).run()
        assert rep.total_cost == pytest.approx(0.06)
        assert rep.hit_rate == 1.0
        assert rep.per_job[0]["makespan_s"] == 600

    def test_61_minute_task_two_hours(self):
        cat = single_type_catalog()
        job = chain_job([cpu_profile(3660.0)], deadline=10_000.0, class_id="long")
        plans = make_plans(job, [od_config(cat)])
        rep = Simulator(SimConfig(job_count=1, seed=4), [job], plans, cat).run()
        assert rep.total_cost == pytest.approx(0.12)
        assert rep.instance_hours == {"solo:ondemand": 2}

    def test_late_job_misses_deadline(self):
        cat = single_type_catalog()
        job = chain_job([cpu_profile(600.0)], deadline=100.0, class_id="late")
        plans = make_plans(job, [od_config(cat)])
        rep = Simulator(SimConfig(job_count=1, seed=4), [job], plans, cat).run()
        assert rep.hit_rate == 0.0

    def test_acquisition_lag_counts_against_makespan(self):
        cat = single_type_catalog(lag_od=120.0)
        job = chain_job([cpu_profile(600.0)], deadline=2000.0, class_id="lagged")
        plans = make_plans(job, [od_config(cat)])
        rep = Simulator(SimConfig(job_count=1, seed=4), [job], plans, cat).run()
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
        rep = Simulator(SimConfig(job_count=3, seed=5), [job], plans, cat, {0: trace}).run()
        assert rep.job_count == 3
        assert all(row["completion"] is not None for row in rep.per_job)
        assert rep.hit_rate == 1.0

    def test_high_bid_spot_never_fails(self):
        cat = single_type_catalog()
        trace = constant_trace(0.02)
        job = chain_job([cpu_profile(600.0)], deadline=2000.0, class_id="calm")
        plans = make_plans(job, [spot_first_config(cat, bid=1000.0)])
        rep = Simulator(SimConfig(job_count=1, seed=5), [job], plans, cat, {0: trace}).run()
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
        kinds = sorted(inst.is_spot for inst in sim.pool.instances)
        assert kinds == [False, True]

    @pytest.mark.parametrize("bid2, makespan, instances", [
        (0.10, 1200, [(True, 0.05), (True, 0.10)]),   # refused: fresh b2 instance
        (0.05, 1500, [(False, None), (True, 0.05)]),  # reused, killed, restarted
    ])
    def test_spot_reuse_respects_the_requested_bid(self, bid2, makespan, instances):
        # Task 0 runs 600 s on spot at b1 = 0.05; task 1 asks for spot at
        # b2.  From 900 s after arrival the price, 0.08, lies between 0.05
        # and 0.10: the b1 instance dies then, a b2 = 0.10 one never does.
        seed = 4
        cat = single_type_catalog()
        a = first_arrival(seed)
        trace = SpotPriceTrace([0.0, a + 900.0, a + 900.0 + 100 * 3600.0],
                               [0.02, 0.08, 0.08])
        job = chain_job([cpu_profile(600.0)] * 2, deadline=10_000.0, class_id="bids")
        plans = make_plans(job, [spot_first_config(cat, bid=0.05),
                                 spot_first_config(cat, bid=bid2)])
        sim = Simulator(SimConfig(job_count=1, seed=seed), [job], plans, cat, {0: trace})
        rep = sim.run()
        assert rep.per_job[0]["makespan_s"] == makespan
        assert sorted((i.is_spot, i.bid) for i in sim.pool.instances) == instances

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
        sim = Simulator(SimConfig(job_count=8, seed=7, arrival_rate_per_min=2.0,
                                  collect_event_log=True),
                        [job], plans, cat)
        sim.run()
        busy = {}
        for line in sim.event_log:
            m = re.match(r"(\d+) TaskStart .* inst=(\d+) duration=(\d+)$", line)
            if m:
                start, inst_id, duration = map(int, m.groups())
                busy.setdefault(inst_id, []).append((start, start + duration))
        assert sum(map(len, busy.values())) == 8 * 3
        assert set(busy) == set(range(len(sim.pool.instances)))
        assert max(map(len, busy.values())) > 1  # some instance is reused
        for intervals in busy.values():
            intervals.sort()
            for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
                assert e1 <= s2

    def test_pending_release_never_ends_a_reused_instances_task(self):
        # The 600 s task finishes at 720 s after arrival and schedules a
        # release for the paid hour's end, 3,720 s; the instance is reused
        # at once for a 3,600 s task that runs until 4,320 s.  The stale
        # release must not end it, so the task is not restarted and the
        # instance is billed for the two hours it ran.
        cat = single_type_catalog(lag_od=120.0)
        job = chain_job([cpu_profile(600.0), cpu_profile(3600.0)], deadline=10_000.0,
                        class_id="stale")
        plans = make_plans(job, [od_config(cat)] * 2)
        sim = Simulator(SimConfig(job_count=1, seed=4), [job], plans, cat)
        rep = sim.run()
        assert len(sim.pool.instances) == 1
        assert rep.per_job[0]["makespan_s"] == 120 + 600 + 3600
        assert rep.instance_hours == {"solo:ondemand": 2}

    @pytest.mark.parametrize("policy, second_task_s, release_pushes, released_after, hours", [
        # Idle at 720 s and again at 1,320 s: both ask for the paid hour's
        # end at 3,720 s, so one release event serves both.
        ("hour-boundary", 600.0, 1, 3720, 1),
        # The second idle transition, at 4,320 s, falls in the second paid
        # hour; the first hour's event finds the instance busy.
        ("hour-boundary", 3600.0, 2, 7320, 2),
        ("immediate", 600.0, 2, 1320, 1),
        ("immediate", 3600.0, 2, 4320, 2),
    ])
    def test_reuse_idle_release(self, monkeypatch, policy, second_task_s, release_pushes,
                                released_after, hours):
        # One instance runs a 600 s task from 120 s after arrival, goes idle,
        # is reused at once by the chain's second task and goes idle again.
        pushed = []
        push = simulator.heappush

        def counting_push(heap, entry):
            pushed.append(entry[1])
            push(heap, entry)

        monkeypatch.setattr(simulator, "heappush", counting_push)
        seed = 4
        cat = single_type_catalog(lag_od=120.0)
        job = chain_job([cpu_profile(600.0), cpu_profile(second_task_s)], deadline=10_000.0,
                        class_id="reuse")
        plans = make_plans(job, [od_config(cat)] * 2)
        sim = Simulator(SimConfig(job_count=1, seed=seed, idle_release_policy=policy,
                                  collect_event_log=True), [job], plans, cat)
        rep = sim.run()
        a = first_arrival(seed)
        assert len(sim.pool.instances) == 1
        assert "%d InstanceReuse inst=0 job=0 task=1" % (a + 720) in sim.event_log
        assert pushed.count(EventKind.INSTANCE_RELEASE) == release_pushes
        assert [line for line in sim.event_log if "InstanceRelease" in line] == [
            "%d InstanceRelease inst=0" % (a + released_after)]
        assert rep.instance_hours == {"solo:ondemand": hours}


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
        job = sim.records[0].workflow
        for line in sim.event_log:
            m = re.match(r"(\d+) TaskStart job=(\d+) task=(\d+)", line)
            if not m:
                continue
            t, j, task = map(int, m.groups())
            for pred in job.tasks[task].predecessors:
                assert finishes[(j, pred)] <= t

    def test_every_job_completes(self):
        rep = self._mixed_sim().run()
        assert all(row["completion"] is not None for row in rep.per_job)


class TestEventLogAudit:
    def test_a_run_with_two_bids_per_type_passes_the_audit(self, tmp_path):
        # Tasks alternate between bids 0.03 and 0.05 on type 0, and each
        # cycle of the trace has an hour at 0.04, which kills only the lower
        # bid, so reuse across bids and restarts both happen.
        cat = default_catalog()
        hours = [(3, 0.02), (1, 0.04), (2, 0.02), (1, 3.0)] * 40
        starts = np.cumsum([0] + [3600 * h for h, _ in hours[:-1]])
        traces = {0: SpotPriceTrace(starts, [price for _, price in hours])}
        jobs = [montage_like(4, seed=0), ligo_like(1, 4, seed=0)]
        plans = {}
        for job in jobs:
            plans.update(make_plans(job.with_deadline(10_000.0),
                                    [spot_first_config(cat, bid=0.03 if t.id % 2 else 0.05)
                                     for t in job.tasks]))
        save_plan_cache(plans, tmp_path / "plans.json")
        sim = Simulator(SimConfig(job_count=150, seed=2, arrival_rate_per_min=0.5,
                                  collect_event_log=True), jobs, plans, cat, traces)
        rep = sim.run()
        log = sim.event_log
        check_schedule(log, {job.class_id: job for job in jobs},
                       json.loads((tmp_path / "plans.json").read_text(encoding="utf-8")),
                       cat, traces)
        assert rederive_bills(log, cat, traces) == (rep.instance_bills, rep.instance_hours)
        assert sum(" OutOfBid " in line for line in log) > 10
        assert sum(" attempt=1 " in line for line in log) > 10


def _two_class_run(catalog, plans_for, traces=None, **config):
    jobs = [montage_like(4, seed=0), ligo_like(1, 4, seed=0)]
    plans = {}
    for job in jobs:
        plans.update(make_plans(job.with_deadline(10_000.0), plans_for(job)))
    sim = Simulator(SimConfig(**config), jobs, plans, catalog, traces)
    return sim, sim.run()


class TestBatchedDurations:
    def test_durations_do_not_depend_on_arrival_order(self):
        # Durations are keyed by (class, task, attempt) and job index, so a
        # job's tasks last as long whether jobs overlap or not.
        cat = default_catalog()

        def plans_for(job):
            return [od_config(cat, 1)] * len(job.tasks)

        starts = {}
        for rate in (0.01, 1.0):
            sim, _ = _two_class_run(cat, plans_for, job_count=40, seed=3,
                                    arrival_rate_per_min=rate, collect_event_log=True)
            starts[rate] = {
                (int(m[1]), int(m[2])): int(m[3])
                for m in map(re.compile(r"\d+ TaskStart job=(\d+) task=(\d+) "
                                        r"attempt=0 inst=\d+ duration=(\d+)").match,
                             sim.event_log)
                if m
            }
        assert len(starts[0.01]) == 20 * sum(len(rec.workflow.tasks) for rec in sim.records)
        assert starts[0.01] == starts[1.0]

    def test_one_draw_per_class_task_and_attempt(self, monkeypatch):
        # Regression guard: durations are drawn as one batch per key, not
        # once per task start.
        cat = default_catalog()
        calls = []
        original = simulator.sample_task_time

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(simulator, "sample_task_time", counting)

        def plans_for(job):
            return [spot_first_config(cat, bid=0.05)] * len(job.tasks)

        sim, rep = _two_class_run(cat, plans_for, {0: spiky_trace()}, job_count=200,
                                  seed=2, arrival_rate_per_min=0.5, collect_event_log=True)
        assert rep.job_count == 200
        # The spikes forced restarts onto the on-demand dimension.
        assert sum(" attempt=1 " in line for line in sim.event_log) > 10
        assert 0 < len(calls) <= sum(2 * len(rec.workflow.tasks) for rec in sim.records)
        assert all(n == 200 for _, _, n, _ in calls)


class TestEventLoop:
    def test_events_are_plain_ints(self, monkeypatch):
        cat = default_catalog()
        pushed = []
        push = simulator.heappush

        def checked_push(heap, entry):
            pushed.append(entry)
            push(heap, entry)

        monkeypatch.setattr(simulator, "heappush", checked_push)

        jobs = [montage_like(4, seed=0), ligo_like(1, 4, seed=0)]
        plans = {}
        for job in jobs:
            plans.update(make_plans(job.with_deadline(10_000.0),
                                    [spot_first_config(cat, bid=0.05, type_id=1)]
                                    * len(job.tasks)))
        for policy in ("hour-boundary", "immediate"):
            Simulator(SimConfig(job_count=60, seed=2, arrival_rate_per_min=0.5,
                                idle_release_policy=policy),
                      jobs, plans, cat, {1: spiky_trace()}).run()
        assert {entry[1] for entry in pushed} == set(EventKind)  # every kind occurred
        assert {tuple(map(type, entry)) for entry in pushed} == {(int, int, int, int)}

    def test_log_off_and_on_give_the_same_report(self):
        cat = default_catalog()

        def plans_for(job):
            return [spot_first_config(cat, bid=0.05)] * len(job.tasks)

        reports = [
            _two_class_run(cat, plans_for, {0: spiky_trace()}, job_count=80, seed=2,
                           arrival_rate_per_min=0.5, collect_event_log=log)
            for log in (False, True)
        ]
        assert reports[0][0].event_log == []
        assert len(reports[1][0].event_log) > 1000
        assert reports[0][1].to_json() == reports[1][1].to_json()

    def test_same_second_releases_settle_in_heap_order(self):
        # Sources 0 (600 s) and 1 (700 s) start on fresh instances 0 and 1
        # at 120 s; both paid hours end at T = 3,720 s.  Instance 0 idles at
        # 720 s and pushes the release at T first; instance 1 idles at 820 s
        # and pushes second.  Task 2 (300 s, after task 1) then reuses
        # instance 0, which idles again at 1,120 s and pushes nothing.  At T
        # the two release events settle in push order: instance 0 first,
        # although instance 1 went idle last.
        seed = 4
        cat = single_type_catalog(lag_od=120.0)
        job = build_job({0: cpu_profile(600.0), 1: cpu_profile(700.0), 2: cpu_profile(300.0)},
                        [(1, 2)], deadline=10_000.0, class_id="tie")
        plans = make_plans(job, [od_config(cat)] * 3)
        sim = Simulator(SimConfig(job_count=1, seed=seed, collect_event_log=True),
                        [job], plans, cat)
        rep = sim.run()
        a = first_arrival(seed)
        assert "%d InstanceReuse inst=0 job=0 task=2" % (a + 820) in sim.event_log
        assert "%d TaskFinish job=0 task=2 inst=0" % (a + 1120) in sim.event_log
        assert [line for line in sim.event_log if "InstanceRelease" in line] == [
            "%d InstanceRelease inst=0" % (a + 3720), "%d InstanceRelease inst=1" % (a + 3720)]
        assert rep.instance_hours == {"solo:ondemand": 2}


class TestConsolidationHeadroom:
    """The headroom estimate is drawn only for keys a consolidation check reads."""

    def test_ondemand_only_run_draws_none(self):
        cat = default_catalog()
        sim, rep = _two_class_run(cat, lambda job: [od_config(cat, 1)] * len(job.tasks),
                                  job_count=100, seed=3, arrival_rate_per_min=0.5)
        assert rep.job_count == 100
        assert [rec.means for rec in sim.records] == [{}, {}]

    def test_spot_run_draws_only_for_checked_keys(self, monkeypatch):
        # A spot request reaches a consolidation check when no idle spot
        # instance of its type bids enough and an on-demand one idles.
        cat = default_catalog()
        checked, requested = set(), set()
        acquire = InstancePool.acquire_or_reuse

        def tracking_acquire(pool, type_id, is_spot, now, bid=0.0, expected_time=None):
            # The headroom callable is bound to the request's (class, task, type).
            rec, task_id, headroom_type = expected_time.args
            assert headroom_type == type_id
            key = (rec.workflow.class_id, task_id, type_id)
            idle = [i for i in pool.instances
                    if i.alive and i.assigned is None and i.type_id == type_id]
            if is_spot:
                requested.add(key)
                if (not any(i.is_spot and i.bid >= bid for i in idle)
                        and any(not i.is_spot for i in idle)):
                    checked.add(key)
            return acquire(pool, type_id, is_spot, now, bid, expected_time)

        monkeypatch.setattr(InstancePool, "acquire_or_reuse", tracking_acquire)

        def plans_for(job):
            return [spot_first_config(cat, bid=0.05)] * len(job.tasks)

        sim, _ = _two_class_run(cat, plans_for, {0: spiky_trace()}, job_count=200,
                                seed=2, arrival_rate_per_min=0.5)
        assert checked  # the run consolidates, so some keys are drawn
        drawn = {(rec.workflow.class_id, *key) for rec in sim.records for key in rec.means}
        assert drawn == checked
        assert checked < requested


class TestHitRates:
    def test_all_on_time(self):
        cat = single_type_catalog()
        job = chain_job([cpu_profile(600.0)], deadline=5000.0, class_id="ok")
        plans = make_plans(job, [od_config(cat)])
        rep = Simulator(SimConfig(job_count=4, seed=8), [job], plans, cat).run()
        assert rep.hit_rate == 1.0

    def test_one_of_two_classes_late(self):
        cat = single_type_catalog()
        ok = chain_job([cpu_profile(600.0)], deadline=5000.0, class_id="ok")
        late = chain_job([cpu_profile(600.0)], deadline=10.0, class_id="late")
        plans = {}
        plans.update(make_plans(ok, [od_config(cat)]))
        plans.update(make_plans(late, [od_config(cat)]))
        rep = Simulator(SimConfig(job_count=2, seed=8), [ok, late], plans, cat).run()
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
