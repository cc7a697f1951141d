"""Discrete-event simulator of the workflow service runtime.

Jobs arrive as a Poisson process and execute their tasks on a pool of
rented instances according to each task's hybrid configuration: its spot
dimension, if it has one, first, and the on-demand dimension as the last
resort.  A spot instance dies the moment the market price exceeds its bid;
the task it was running restarts from scratch on the on-demand dimension
(results of finished predecessor tasks are kept, so only the interrupted
task reruns).

The pool reuses idle instances of the requested kind and type without a new
acquisition lag; an idle spot instance is reused only for a request bidding
no more than the instance's own bid, since its out-of-bid event was
scheduled from that bid.  A spot request may also be placed onto an idle
on-demand instance of the same type (never the reverse).

Billing is hourly, by one integer rule over whole seconds: every started
hour is paid in full (started_hours, ceil-division by 3600), except that a
spot instance killed by an out-of-bid event pays only its full hours
(floor division), so its final partial hour is free.  Spot hours are
charged at the market price sampled at each hour start.
Instance.paid_until(now) = ready_time + 3600 * started_hours(now -
ready_time) ends the paid hour running at `now`: consolidation needs the
task's expected time to fit before it, and under the "hour-boundary"
policy an instance going idle is released at it.  Each idle transition
records the release time it asks for (Instance.release_at); a release
event is pushed only when release_at changes, so an instance reused and
idled again within one paid hour shares that hour's event.  A release
event settles its own instance if that instance is still idle and due
now.

The core is strictly single-threaded and deterministic: every event,
releases included, is ordered by one key, (time, kind rank, push
sequence), and every random draw comes from a stream keyed by stable
identifiers, never by arrival order.  Task durations are drawn by the
planner's own sampler, cloud_model.sample_task_time, as one array per
(class, task, attempt) key indexed by job index, and rounded to whole
seconds.

The event loop does simulation work only: `run` is one loop that pops heap
entries of plain ints and handles each event kind in its own branch, with
three local helpers, `request`, `start` and `settle`, and the pool's
methods bound once.  Event log lines are formatted only when the log is
collected, and a task's consolidation headroom estimate is drawn only when
a consolidation check reads it.  No event makes or reads a numpy scalar or
builds a closure: a request reads its (type, spot flag, price, lag,
headroom callable) from its class's ClassRecord, built once, idle lists are
keyed by one int per (type, kind), durations are `array("q")` tables drawn
on first use and read by index, paid hours are integer divisions, and a
price trace answers cyclic lookups by bisecting its compact `array("d")`
columns, of which its numpy arrays are views.  One job arrival is queued at
a time, so the heap holds only the events in flight.
"""

import bisect
import enum
import json
import math
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from heapq import heappop, heappush
from itertools import accumulate, count, cycle

import numpy as np

from .cloud_model import CLOCK_BOUND, SECONDS_PER_HOUR, expected_task_time, sample_task_time
from .distributions import derive_seed, substream

EXPECTATION_SAMPLES = 2000  # for consolidation headroom estimates


class SimulationError(RuntimeError):
    pass


class PlanMismatchError(SimulationError):
    """The supplied plan cache does not cover the submitted job classes."""


class EventKind(enum.IntEnum):
    # Order encodes the tie-break at equal timestamps: completions settle
    # before failures, failures before new work, releases always last.
    # Each kind has its own branch in Simulator.run, in this order.
    TASK_FINISH = 0
    OUT_OF_BID = 1
    JOB_ARRIVAL = 2
    INSTANCE_READY = 3
    INSTANCE_RELEASE = 4


# Plain-int kinds for heap entries: the heap compares them and `run` branches
# on them.
_TASK_FINISH, _OUT_OF_BID, _JOB_ARRIVAL, _INSTANCE_READY, _INSTANCE_RELEASE = map(int, EventKind)

_HOUR = int(SECONDS_PER_HOUR)


def started_hours(elapsed):
    """Billing hours started within `elapsed` whole seconds: ceil-division, 0 for none."""
    return -(-elapsed // _HOUR) if elapsed > 0 else 0


@dataclass
class SimConfig:
    arrival_rate_per_min: float = 0.1
    job_count: int = 100
    seed: int = 0
    idle_release_policy: str = "hour-boundary"  # or "immediate"
    collect_event_log: bool = False

    def __post_init__(self):
        if not 0 < self.arrival_rate_per_min < math.inf:
            raise ValueError("arrival rate must be positive and finite")
        if self.job_count < 1:
            raise ValueError("job_count must be >= 1")
        if self.idle_release_policy not in ("hour-boundary", "immediate"):
            raise ValueError("unknown idle_release_policy %r" % self.idle_release_policy)


@dataclass
class Instance:
    id: int
    type_id: int
    is_spot: bool
    bid: float | None
    ready_time: int
    alive: bool = True
    # (job_index, task_id, attempt) currently assigned, also while booting.
    assigned: tuple | None = None
    # Release time asked for by the latest idle transition.
    release_at: int | None = None

    def paid_until(self, now):
        """End of the billing hour running at `now` (`now` itself on a boundary).

        ready_time + 3600 * started_hours(now - ready_time).
        """
        return self.ready_time + _HOUR * started_hours(now - self.ready_time)


class InstancePool:
    """Every instance created, with idle lists per (type, kind).

    Instance ids are creation order: instance i is instances[i].  Spot and
    on-demand instances are kept in separate idle lists; an instance is
    never assigned to two tasks at once.
    """

    def __init__(self):
        self.instances = []
        self._idle = defaultdict(list)  # 2 * type_id + is_spot -> idle ids, ascending

    def create(self, type_id, is_spot, bid, ready_time):
        inst = Instance(
            id=len(self.instances), type_id=type_id, is_spot=is_spot,
            bid=bid, ready_time=ready_time,
        )
        self.instances.append(inst)
        return inst

    def acquire_or_reuse(self, type_id, is_spot, now, bid=0.0, expected_time=None):
        """Idle instance satisfying the request, or None if one must be acquired.

        Idle instances are taken lowest id first.  An on-demand request
        reuses any idle on-demand instance of the type.  A spot request at
        `bid` reuses an idle spot instance of the type whose own bid is >=
        `bid` (a lower-bid instance would die on prices the request's bid
        covers).  Failing that, it may be consolidated onto an idle
        on-demand instance of the same type when that instance's remaining
        paid partial hour covers the task's expected execution time; an
        on-demand request is never placed on a spot instance.

        expected_time is a zero-argument callable giving that expected time
        in seconds.  It is called at most once, and only when a spot request
        found no reusable spot instance while an on-demand one idles.
        """
        idle = self._idle[2 * type_id + is_spot]
        if not is_spot:
            return self.instances[idle.pop(0)] if idle else None
        for i, inst_id in enumerate(idle):
            if self.instances[inst_id].bid >= bid:
                return self.instances[idle.pop(i)]
        od_idle = self._idle[2 * type_id]
        if od_idle:
            expected = expected_time()
            for i, inst_id in enumerate(od_idle):
                inst = self.instances[inst_id]
                if expected <= inst.paid_until(now) - now:
                    od_idle.pop(i)
                    return inst
        return None

    def mark_idle(self, inst):
        inst.assigned = None
        bisect.insort(self._idle[2 * inst.type_id + inst.is_spot], inst.id)

    def remove(self, inst):
        inst.alive = False
        idle = self._idle[2 * inst.type_id + inst.is_spot]
        if inst.id in idle:
            idle.remove(inst.id)


def bill(inst, end_time, terminated_by, itype, trace=None):
    """(billed hours, monetary cost) of one instance's lifetime [ready_time, end_time].

    Times are whole seconds.  On-demand: started hours, at the fixed
    hourly price.  Spot, user-terminated: started hours, each charged the
    market price at its hour start.  Spot, out-of-bid: only fully elapsed
    hours are charged (the terminal partial hour is free).
    """
    if terminated_by not in ("user", "out-of-bid"):
        raise ValueError("terminated_by must be 'user' or 'out-of-bid'")
    elapsed = end_time - inst.ready_time
    if inst.is_spot and terminated_by == "out-of-bid":
        hours = elapsed // _HOUR
    else:
        hours = started_hours(elapsed)
    if not inst.is_spot:
        return hours, hours * itype.ondemand_price
    if trace is None:
        raise SimulationError("spot billing requires a price trace")
    total = 0.0
    for h in range(hours):
        total += trace.price_at_cyclic(inst.ready_time + h * _HOUR)
    return hours, total


@dataclass
class ClassRecord:
    """What the simulator reads of one workflow class, built once per class.

    requests and durations are indexed by task id, then attempt: the
    request (type id, spot flag, price, whole-second lag, headroom) and the
    duration array by job index (None until drawn).  headroom is the
    zero-argument callable InstancePool.acquire_or_reuse calls for the
    task's consolidation estimate, Simulator._expected_time bound to (this
    record, task id, type id); means holds those estimates by (task id,
    type id), drawn on first check.
    """

    workflow: object  # WorkflowJob
    deadline: float
    requests: list
    durations: list
    sources: list  # task ids without predecessors
    preds: list  # predecessor count by task id
    successors: list  # successor ids by task id, as WorkflowJob.successors() gives them
    means: dict = field(default_factory=dict)


@dataclass
class JobRun:
    index: int
    cls: ClassRecord
    arrival: int
    unfinished: int
    pending_preds: list  # by task id
    completion: int | None = None


@dataclass
class SimReport:
    job_count: int
    total_cost: float
    avg_cost_per_job: float
    avg_makespan_s: float
    hit_rate: float
    instance_hours: dict
    instance_bills: list
    per_job: list
    seed: int

    def to_json(self):
        # The fields as they are: dataclasses.asdict would deep-copy every
        # per-job row and bill first, about doubling the encoding time.
        return json.dumps(vars(self), sort_keys=True) + "\n"


class Simulator:
    """Deterministic simulation runs of one workload.

    Each run builds its own jobs, InstancePool, bills and event log, so a
    second run replays the workload from the start and returns the same
    report; `pool` and `event_log` hold the latest run's.
    """

    def __init__(self, config, job_classes, plans, catalog, traces=None):
        self.config = config
        self.catalog = catalog
        self.traces = traces or {}
        classes = list(job_classes)
        if not classes:
            raise SimulationError("need at least one job class")
        missing = [cls.class_id for cls in classes if cls.class_id not in plans]
        if missing:
            raise PlanMismatchError("plan cache lacks classes: %s" % missing)
        # One record per class, in the order jobs cycle through them.
        self.records = [self._record(cls, plans[cls.class_id]) for cls in classes]

    def _record(self, cls, plan):
        """The class's ClassRecord, once its plan is checked against the
        class, the catalog and the traces."""
        catalog = self.catalog
        if len(plan.task_configs) != len(cls.tasks):
            raise PlanMismatchError(
                "plan for %r covers %d tasks, workflow has %d"
                % (cls.class_id, len(plan.task_configs), len(cls.tasks))
            )
        if plan.deadline is None or not 0 < plan.deadline < CLOCK_BOUND:
            raise PlanMismatchError("plan for %r has no deadline in (0, %g) s"
                                    % (cls.class_id, CLOCK_BOUND))
        for config_ in plan.task_configs:
            for dim in config_.dims:
                if not 0 <= dim.type_id < len(catalog):
                    raise PlanMismatchError(
                        "plan for %r uses type id %d, the catalog has ids 0..%d"
                        % (cls.class_id, dim.type_id, len(catalog) - 1)
                    )
                if dim.is_spot and dim.type_id not in self.traces:
                    raise PlanMismatchError(
                        "plan for %r uses spot type %d with no price trace"
                        % (cls.class_id, dim.type_id)
                    )
        rec = ClassRecord(
            workflow=cls,
            deadline=plan.deadline,
            requests=[],
            durations=[[None] * len(config_.dims) for config_ in plan.task_configs],
            sources=cls.source_ids(),
            preds=[len(tk.predecessors) for tk in cls.tasks],
            successors=cls.successors(),
        )
        rec.requests = [
            tuple((d.type_id, d.is_spot, d.price, int(catalog[d.type_id].lag(d.is_spot)),
                   partial(self._expected_time, rec, task_id, d.type_id))
                  for d in config_.dims)
            for task_id, config_ in enumerate(plan.task_configs)
        ]
        return rec

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------

    def run(self):
        jobs, catalog, traces = self._schedule_arrivals(), self.catalog, self.traces
        self.pool = pool = InstancePool()
        self.event_log = []
        bills = []  # (instance_id, type_id, is_spot, hours, amount)
        instances, acquire, create, mark_idle = (pool.instances, pool.acquire_or_reuse,
                                                 pool.create, pool.mark_idle)
        # Heap entries are (time, kind, push sequence, payload), all plain ints.
        heap, push, pop, tick = [], heappush, heappop, count().__next__
        log = self.event_log.append if self.config.collect_event_log else None
        release_at_once = self.config.idle_release_policy == "immediate"

        def settle(inst, now, terminated_by):
            hours, amount = bill(inst, now, terminated_by, catalog[inst.type_id],
                                 traces.get(inst.type_id))
            bills.append((inst.id, inst.type_id, inst.is_spot, hours, amount))
            pool.remove(inst)

        def start(inst, job, task_id, attempt, now):
            """Run the task the instance is assigned to, from now."""
            table = job.cls.durations[task_id][attempt]
            if table is None:
                table = self._draw_durations(job.cls, task_id, attempt)
            duration = table[job.index]
            if log:
                log("%d TaskStart job=%d task=%d attempt=%d inst=%d duration=%d"
                    % (now, job.index, task_id, attempt, inst.id, duration))
            push(heap, (now + duration, _TASK_FINISH, tick(), inst.id))

        def request(job, task_id, attempt, now):
            type_id, is_spot, price, lag, headroom = job.cls.requests[task_id][attempt]
            inst = acquire(type_id, is_spot, now, price, headroom)
            if inst is not None:
                inst.assigned = (job.index, task_id, attempt)
                if log:
                    log("%d InstanceReuse inst=%d job=%d task=%d"
                        % (now, inst.id, job.index, task_id))
                start(inst, job, task_id, attempt, now)
                return
            ready = now + lag
            inst = create(type_id, is_spot, price if is_spot else None, ready)
            inst.assigned = (job.index, task_id, attempt)
            if log:
                log("%d InstanceRequest inst=%d type=%d spot=%d job=%d task=%d"
                    % (now, inst.id, type_id, is_spot, job.index, task_id))
            push(heap, (ready, _INSTANCE_READY, tick(), inst.id))
            if is_spot:
                fail_at = traces[type_id].first_exceedance_cyclic(ready, price)
                if fail_at is not None:
                    push(heap, (math.ceil(fail_at), _OUT_OF_BID, tick(), inst.id))

        push(heap, (jobs[0].arrival, _JOB_ARRIVAL, tick(), 0))
        while heap:
            now, kind, _, payload = pop(heap)
            if kind == _TASK_FINISH:
                inst = instances[payload]
                if not inst.alive:
                    continue  # an out-of-bid event killed the instance and its task first
                job_index, task_id, _ = inst.assigned
                job = jobs[job_index]
                if log:
                    log("%d TaskFinish job=%d task=%d inst=%d" % (now, job_index, task_id, payload))
                mark_idle(inst)
                # Ask for the idle instance's release; push an event for a new time only.
                when = now if release_at_once else inst.paid_until(now)
                if when != inst.release_at:
                    inst.release_at = when
                    push(heap, (when, _INSTANCE_RELEASE, tick(), payload))
                job.unfinished -= 1
                if job.unfinished == 0:
                    job.completion = now
                    if log:
                        log("%d JobComplete job=%d" % (now, job_index))
                    continue
                pending = job.pending_preds
                for succ in job.cls.successors[task_id]:
                    pending[succ] -= 1
                    if pending[succ] == 0:
                        request(job, succ, 0, now)
            elif kind == _OUT_OF_BID:
                inst = instances[payload]
                if not inst.alive:
                    continue
                if log:
                    log("%d OutOfBid inst=%d" % (now, payload))
                victim = inst.assigned  # None when the instance was idling
                settle(inst, now, "out-of-bid")
                if victim is not None:
                    job_index, task_id, attempt = victim
                    request(jobs[job_index], task_id, attempt + 1, now)
            elif kind == _JOB_ARRIVAL:
                # One arrival is queued at a time, which keeps the heap small.
                # It is the only arrival event queued, so the order is unchanged.
                if payload + 1 < len(jobs):
                    push(heap, (jobs[payload + 1].arrival, _JOB_ARRIVAL, tick(), payload + 1))
                job = jobs[payload]
                if log:
                    log("%d JobArrival job=%d class=%s" % (now, payload, job.cls.workflow.class_id))
                for task_id in job.cls.sources:
                    request(job, task_id, 0, now)
            elif kind == _INSTANCE_READY:
                inst = instances[payload]
                if inst.alive:  # and assigned: only a task finish, which comes later, idles it
                    if log:
                        log("%d InstanceReady inst=%d" % (now, payload))
                    job_index, task_id, attempt = inst.assigned
                    start(inst, jobs[job_index], task_id, attempt, now)
            else:  # _INSTANCE_RELEASE: settle the instance if it is still idle and due now
                inst = instances[payload]
                if inst.alive and inst.assigned is None and inst.release_at == now:
                    if log:
                        log("%d InstanceRelease inst=%d" % (now, payload))
                    settle(inst, now, "user")
        incomplete = [j.index for j in jobs if j.completion is None]
        if incomplete:
            raise SimulationError("jobs never completed: %s" % incomplete)
        alive = [i.id for i in instances if i.alive]
        if alive:
            raise SimulationError("instances still alive at drain: %s" % alive)
        return self._build_report(jobs, bills)

    def _schedule_arrivals(self):
        """A new JobRun per arrival, in arrival order, classes taken in turn."""
        rng = substream(self.config.seed, "arrivals")
        scale = 60.0 / self.config.arrival_rate_per_min
        gaps = rng.exponential(scale, size=self.config.job_count)
        arrivals = list(accumulate(gaps.tolist()))  # each an exact running sum
        if not arrivals[-1] < CLOCK_BOUND:
            raise ValueError("arrival_rate %r jobs/min is too small: %d arrival times reach %g s"
                             % (self.config.arrival_rate_per_min, len(arrivals), CLOCK_BOUND))
        return [JobRun(index=i, cls=rec, arrival=int(math.ceil(t)),
                       unfinished=len(rec.preds), pending_preds=rec.preds.copy())
                for i, (t, rec) in enumerate(zip(arrivals, cycle(self.records)))]

    def _draw_durations(self, rec, task_id, attempt):
        """Durations (whole seconds) of one (class, task, attempt), by job index.

        The key fixes the instance type: it is the attempt's dimension type,
        which consolidation onto an idle on-demand instance keeps.  Rounding
        to the nearest second (half to even) keeps the integer clock without
        biasing durations upward, as ceiling would.  Stored in the record's
        durations as an `array("q")`.
        """
        key = (rec.workflow.class_id, task_id, attempt)
        times = sample_task_time(
            rec.workflow.tasks[task_id].profile,
            self.catalog[rec.requests[task_id][attempt][0]],
            self.config.job_count,
            derive_seed(self.config.seed, "duration", *key),
        )
        rounded = np.rint(times)
        if not (rounded < CLOCK_BOUND).all():  # also false for inf and nan
            raise ValueError("class %s task %d: duration %g s is past the simulator's integer clock"
                             % (key[0], task_id, rounded.max()))
        table = array("q", rounded.astype(np.int64).tobytes())
        rec.durations[task_id][attempt] = table
        return table

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------

    def _expected_time(self, rec, task_id, type_id):
        """Mean execution time of a task on a type, for consolidation checks.

        Drawn on first use only, into the record's means; the seed is keyed
        by (task, type), so when or whether a key is drawn changes no value.
        """
        key = (task_id, type_id)
        if key not in rec.means:
            rec.means[key] = expected_task_time(
                rec.workflow.tasks[task_id].profile,
                self.catalog[type_id],
                n=EXPECTATION_SAMPLES,
                seed=derive_seed(self.config.seed, "expected", task_id, type_id),
            )
        return rec.means[key]

    def _build_report(self, jobs, bills):
        per_job = []
        hits = 0
        makespans = []
        for job in jobs:
            makespan = job.completion - job.arrival
            hit = makespan <= job.cls.deadline
            hits += int(hit)
            makespans.append(makespan)
            per_job.append({
                "job": job.index,
                "class": job.cls.workflow.class_id,
                "arrival": job.arrival,
                "completion": job.completion,
                "makespan_s": makespan,
                "deadline_s": job.cls.deadline,
                "hit": bool(hit),
            })
        hours_by_kind = {}
        amounts = []
        for _, type_id, is_spot, hours, amount in sorted(bills):
            key = "%s:%s" % (self.catalog[type_id].name, "spot" if is_spot else "ondemand")
            hours_by_kind[key] = hours_by_kind.get(key, 0) + hours
            amounts.append(amount)
        total = sum(amounts)
        n = len(jobs)
        return SimReport(
            job_count=n,
            total_cost=total,
            avg_cost_per_job=total / n,
            avg_makespan_s=sum(makespans) / n,
            hit_rate=hits / n,
            instance_hours=hours_by_kind,
            instance_bills=amounts,
            per_job=per_job,
            seed=self.config.seed,
        )
