"""Search for the cheapest per-task on-demand instance assignment.

The state space is the vector of instance type ids per task (topological
id order).  Each task ranks its types by that task's expected cost, lower
type id first on ties.  The search starts from the plan of every task's
rank-0 type and moves one task at a time up one rank, so a plan never costs
less than the plan it came from.  A uniform-cost queue ordered by
(plan_cost, plan) therefore evaluates plans in non-decreasing cost, and the
first feasible plan it pops is a cheapest feasible plan.

Feasibility rule.  Of a plan's n makespan samples, at most n - ceil(p*n)
may lie strictly above the deadline D (a sample equal to D is within it);
one more and its p-percentile exceeds D.  A popped plan is first swept
over its first SCREEN_SAMPLES samples only (samples are paired by index, so
that is the head of its full makespan vector).  When more than n - ceil(p*n)
of those already exceed D the plan is infeasible, its full evaluation is
skipped and only its children are queued; otherwise is_feasible decides it
on the full sweep.  The head only ever proves infeasibility, so the search
returns the plan, and pops the plans, that evaluating every pop in full
would.
"""

import heapq
import itertools
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cloud_model import CLOCK_BOUND, expected_ondemand_cost, task_time_distribution
from .distributions import (DEFAULT_SAMPLE_COUNT, EmpiricalDistribution, derive_seed,
                            percentile_rank)
from .workflow_dag import (
    ConfigDim,
    HybridConfig,
    WorkflowError,
    is_feasible,
    workflow_time_distribution,
)


class InfeasiblePlanError(RuntimeError):
    """No feasible plan was found within the iteration budget.

    budget_exhausted tells the two reasons apart: True when the search
    stopped at max_iter with plans still queued (a feasible plan may
    exist), False when it evaluated every plan, which proves none is
    feasible.  bound is percentile_lower_bound's bound on every plan's
    percentile; above the deadline, it alone proves no plan is feasible.
    """

    def __init__(self, job, bound, evaluated, budget_exhausted):
        self.bound = bound
        self.deadline = job.deadline
        self.evaluated = evaluated
        self.budget_exhausted = budget_exhausted
        reason = ("budget of %d iterations exhausted" % evaluated if budget_exhausted
                  else "all %d plans evaluated" % evaluated)
        super().__init__(
            "no feasible plan for %r (%s): lower bound %.1f s vs deadline %.1f s"
            % (job.class_id, reason, bound, job.deadline)
        )


# Samples a popped plan is swept over before its full evaluation.
SCREEN_SAMPLES = 1024


@dataclass
class AStarParams:
    max_iter: int = 10_000

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class SearchStats:
    """Diagnostics of one search run.

    pruned counts the generated plans still queued, never evaluated, when
    the search returned.  Of the iterations (popped plans), screened were
    decided by the prefix screen and the rest were evaluated in full.
    """

    iterations: int = 0
    generated: int = 0
    pruned: int = 0
    feasible_found: int = 0
    screened: int = 0


class TaskDistCache:
    """Per-(task, type) execution-time distributions and costs of one class.

    Distributions are seeded from (seed, task id, type id) so every plan
    evaluation, in the search or in an exhaustive oracle, sees identical
    samples for the same assignment.  The constructor draws the whole
    [task][type] table in one batch on one thread per usable CPU, each
    thread pinned to its own CPU: numpy's samplers release the GIL, and
    each pair draws from its own substream, so the values do not depend on
    the thread count or the order of draws.  A draw that raises raises
    from the constructor.
    """

    def __init__(self, job, catalog, sample_count=DEFAULT_SAMPLE_COUNT, seed=0):
        self.catalog = catalog
        self.sample_count = sample_count
        self.seed = seed
        pairs = [(t, itype) for t in job.tasks for itype in catalog]
        # Seeds are derived here: derive_seed's lru_cache is shared state.
        seeds = [derive_seed(seed, t.id, itype.id) for t, itype in pairs]
        cpus = _usable_cpus()
        with ThreadPoolExecutor(max_workers=len(cpus), initializer=_pin_worker,
                                initargs=(iter(cpus),)) as pool:
            # task_time_distribution is read from this module at each
            # construction, so a wrapper patched onto the name sees every draw.
            dists = list(pool.map(task_time_distribution, [t.profile for t, _ in pairs],
                                  [itype for _, itype in pairs],
                                  itertools.repeat(sample_count), seeds))
        n_types = len(catalog)
        self._dists = [dists[i:i + n_types] for i in range(0, len(dists), n_types)]
        self._costs = [[expected_ondemand_cost(itype.ondemand_price, dist)
                        for itype, dist in zip(catalog, row)] for row in self._dists]

    def dist(self, task_id, type_id):
        return self._dists[task_id][type_id]

    def cost(self, task_id, type_id):
        return self._costs[task_id][type_id]


def _usable_cpus():
    """Ids of the CPUs this process may run on (all of them where affinity
    is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


def _pin_worker(cpus):
    """Pin the calling pool thread (pid 0) to the next CPU of `cpus`.

    Left to the Linux scheduler, the threads of a new pool ran on one CPU
    for about a second on a 2-vCPU KVM guest, and drew no faster than one
    thread.  The pool thread ends with the pool, and so does its pin; where
    pinning is unsupported or refused the thread runs unpinned.
    """
    cpu = next(cpus)  # a list iterator steps under the GIL: no CPU twice
    if hasattr(os, "sched_setaffinity"):
        try:
            os.sched_setaffinity(0, {cpu})
        except OSError:
            pass


def plan_cost(cache, plan):
    """Expected on-demand cost of a whole plan (sum over tasks)."""
    return sum(cache.cost(tid, type_id) for tid, type_id in enumerate(plan))


def plan_distribution(job, cache, plan):
    """Workflow makespan distribution under a plan.

    Depends only on the cache's per-(task, type) distributions, so two
    routes evaluating the same plan get bit-identical results.
    """
    dists = [cache.dist(tid, type_id) for tid, type_id in enumerate(plan)]
    return workflow_time_distribution(job, dists)


def _head_misses(job, cache, heads, plan, above):
    """True when more than `above` of the plan's first SCREEN_SAMPLES
    makespan samples exceed the deadline.

    The sweep is workflow_time_distribution over the heads of the task
    distributions, memoized in `heads` by (task, type).
    """
    dists = []
    for tid, type_id in enumerate(plan):
        head = heads.get((tid, type_id))
        if head is None:
            head = heads[tid, type_id] = cache.dist(tid, type_id).head(SCREEN_SAMPLES)
        dists.append(head)
    makespan = workflow_time_distribution(job, dists)
    return np.count_nonzero(makespan.samples > job.deadline) > above


def percentile_lower_bound(job, cache):
    """A lower bound on every plan's makespan percentile: the percentile of
    one sweep over each task's per-sample minimum across types.

    The longest path is monotone in task times, so sample i of that sweep
    is at most sample i of any plan's makespan, and so is each order
    statistic.
    """
    types = range(len(cache.catalog))
    fastest = [EmpiricalDistribution(np.min([cache.dist(tid, k).samples for k in types], axis=0))
               for tid in range(len(job.tasks))]
    return workflow_time_distribution(job, fastest).percentile(job.guarantee_p)


def astar_configure(job, catalog, params=None, sample_count=None, cache=None, stats=None):
    """Cheapest feasible per-task on-demand type assignment.

    Returns the plan as a list of type ids indexed by task id.  Plans are
    popped in non-decreasing plan_cost order, so the first feasible one
    is a cheapest feasible plan and is returned at once; the prefix screen
    (see the module docstring) skips the full evaluation of plans it proves
    infeasible.  Raises InfeasiblePlanError when no feasible plan is found
    within max_iter iterations, carrying percentile_lower_bound and whether
    the budget or the plans ran out first.  A `cache` (the class's
    TaskDistCache) fixes the sample count and the seed, and must be drawn
    over `catalog`.
    """
    if job.deadline is None:
        raise WorkflowError("job has no deadline set")
    if cache is None:
        n = DEFAULT_SAMPLE_COUNT if sample_count is None else sample_count
        cache = TaskDistCache(job, catalog, n)
    elif sample_count is not None:
        raise ValueError("sample_count is fixed by the cache; pass one or the other")
    elif tuple(cache.catalog) != tuple(catalog):
        raise ValueError("cache draws over another catalog")
    params = params if params is not None else AStarParams()
    stats = stats if stats is not None else SearchStats()

    n_tasks = len(job.tasks)
    ranked = [sorted(range(len(cache.catalog)), key=lambda k: (cache.cost(tid, k), k))
              for tid in range(n_tasks)]
    # upgrade[t] maps each type to the next one in task t's cost ranking.
    upgrade = [dict(zip(r, r[1:])) for r in ranked]
    initial = tuple(r[0] for r in ranked)
    # A feasible plan has at most `above` samples above the deadline.
    above = cache.sample_count - percentile_rank(job.guarantee_p, cache.sample_count)
    heads = {}

    # Entries are (cost, plan, level); a plan may still upgrade tasks
    # level..n-1, so it has one parent and is pushed once.
    heap = [(plan_cost(cache, initial), initial, 0)]
    found = None
    evaluated = 0
    while heap and evaluated < params.max_iter:
        evaluated += 1
        _, plan, level = heapq.heappop(heap)
        if _head_misses(job, cache, heads, plan, above):
            stats.screened += 1
        elif is_feasible(job, plan_distribution(job, cache, plan)):
            stats.feasible_found += 1
            found = plan
            break
        for tid in range(level, n_tasks):
            type_id = upgrade[tid].get(plan[tid])
            if type_id is not None:
                child = plan[:tid] + (type_id,) + plan[tid + 1:]
                stats.generated += 1
                heapq.heappush(heap, (plan_cost(cache, child), child, tid))

    stats.iterations += evaluated
    stats.pruned += len(heap)
    if found is None:
        raise InfeasiblePlanError(job, percentile_lower_bound(job, cache), evaluated,
                                  budget_exhausted=bool(heap))
    return list(found)


# ---------------------------------------------------------------------------
# Plan cache file
# ---------------------------------------------------------------------------


@dataclass
class JobPlan:
    """Cached planning result for one workflow class."""

    class_id: str
    deadline: float
    guarantee_p: float
    task_configs: list  # HybridConfig per task id


def save_plan_cache(plans, path):
    """Write plans (mapping class_id -> JobPlan) as a JSON plan-cache file."""
    doc = {"format": "plan-cache/1", "classes": {}}
    for class_id, plan in sorted(plans.items()):
        doc["classes"][class_id] = {
            "deadline": plan.deadline,
            "guarantee_p": plan.guarantee_p,
            "tasks": [
                [
                    {"type_id": d.type_id, "price": d.price, "is_spot": d.is_spot}
                    for d in config.dims
                ]
                for config in plan.task_configs
            ],
        }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def read_json(path):
    """The JSON document in a file; a file that does not decode, does not
    parse or nests too deeply is a ValueError naming the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError("%s: %s" % (path, exc)) from None
        except RecursionError:  # the decoder recurses once per nesting level
            raise ValueError("%s: JSON nested too deeply" % path) from None


def json_number(value):
    """value as a float if it is a JSON number a float can hold, else NaN
    (which fails every range check): a bool or a string is no number."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    return math.nan


def load_plan_cache(path):
    """Plans by class id from a plan-cache file written by save_plan_cache.

    The document's shape and each field's type and range are checked, and a
    malformed file raises ValueError naming the path and the class.  Type
    ids are only checked to be non-negative integers here: which ids exist
    depends on the catalog, and the simulator checks them against it.
    """
    doc = read_json(path)
    if not isinstance(doc, dict) or doc.get("format") != "plan-cache/1":
        raise ValueError("%s: not a plan-cache file" % path)
    classes = doc.get("classes")
    if not isinstance(classes, dict):
        raise ValueError('%s: "classes" must be an object of plans by class id' % path)
    plans = {}
    for class_id, rec in classes.items():
        try:
            plans[class_id] = _plan_from_json(class_id, rec)
        except ValueError as exc:
            raise ValueError("%s: class %r: %s" % (path, class_id, exc)) from None
    return plans


_PLAN_KEYS = ("deadline", "guarantee_p", "tasks")
_DIM_KEYS = ("is_spot", "price", "type_id")


def _plan_from_json(class_id, rec):
    if not isinstance(rec, dict) or sorted(rec) != list(_PLAN_KEYS):
        raise ValueError("a plan is an object with exactly the keys %s" % ", ".join(_PLAN_KEYS))
    if not 0 < json_number(rec["deadline"]) < CLOCK_BOUND:
        raise ValueError("deadline must be in (0, %g) s, got %r" % (CLOCK_BOUND, rec["deadline"]))
    if not 0 < json_number(rec["guarantee_p"]) <= 1:
        raise ValueError("guarantee_p must be a number in (0, 1], got %r"
                         % (rec["guarantee_p"],))
    if not isinstance(rec["tasks"], list):
        raise ValueError("tasks must be a list of configurations, one per task")
    configs = []
    for task_id, dims in enumerate(rec["tasks"]):
        if not isinstance(dims, list):
            raise ValueError("task %d: a configuration is a list of dimensions" % task_id)
        try:
            configs.append(HybridConfig(tuple(map(_dim_from_json, dims))))
        except ValueError as exc:
            raise ValueError("task %d: %s" % (task_id, exc)) from None
    return JobPlan(
        class_id=class_id,
        deadline=rec["deadline"],
        guarantee_p=rec["guarantee_p"],
        task_configs=configs,
    )


def _dim_from_json(dim):
    if not isinstance(dim, dict) or sorted(dim) != list(_DIM_KEYS):
        raise ValueError("a dimension is an object with exactly the keys %s"
                         % ", ".join(_DIM_KEYS))
    type_id, price, is_spot = dim["type_id"], dim["price"], dim["is_spot"]
    if not isinstance(type_id, int) or isinstance(type_id, bool) or type_id < 0:
        raise ValueError("type_id must be a non-negative integer, got %r" % (type_id,))
    if not 0 < json_number(price) < math.inf:
        raise ValueError("price must be a positive finite number, got %r" % (price,))
    if not isinstance(is_spot, bool):
        raise ValueError("is_spot must be true or false, got %r" % (is_spot,))
    return ConfigDim(type_id, price, is_spot)
