"""Workflow model: tasks, jobs, hybrid configurations and makespan algebra.

A job is a DAG of tasks with a deadline and a probabilistic guarantee p:
the promise is that the workflow finishes by the deadline at the p-th
percentile of its makespan distribution.  The whole-workflow distribution
is composed from per-task distributions by one per-sample longest-path
sweep over index-paired samples, whatever the DAG's shape.
"""

import dataclasses
import math
from dataclasses import dataclass, field

from .cloud_model import TaskProfile, expected_task_time
from .distributions import (
    DEFAULT_SAMPLE_COUNT,
    convolve,
    derive_seed,
    max_of,
    substream,
)


class WorkflowError(ValueError):
    """Raised for malformed workflow structures or files."""


class CycleError(WorkflowError):
    """Raised when a workflow graph contains a cycle."""

    def __init__(self, edge):
        self.edge = edge
        super().__init__("workflow contains a cycle through edge %s -> %s" % edge)


@dataclass(frozen=True)
class ConfigDim:
    """One dimension of a hybrid configuration: an instance to try.

    For the spot dimension `price` is the bidding price; for the on-demand
    dimension it is the hourly on-demand price.
    """

    type_id: int
    price: float
    is_spot: bool


@dataclass(frozen=True)
class HybridConfig:
    """Instances for one task: an optional spot dimension, then on-demand.

    A task interrupted on its spot instance reruns on the on-demand one,
    so it always completes.
    """

    dims: tuple

    def __post_init__(self):
        dims = tuple(self.dims)
        object.__setattr__(self, "dims", dims)
        if not 1 <= len(dims) <= 2:
            raise ValueError("a configuration has one or two dimensions, got %d" % len(dims))
        if dims[-1].is_spot:
            raise ValueError("last dimension must be on-demand")
        if len(dims) == 2 and not dims[0].is_spot:
            raise ValueError("the dimension before the on-demand one must be spot")

    @classmethod
    def ondemand_only(cls, itype):
        return cls((ConfigDim(itype.id, itype.ondemand_price, False),))

    @property
    def spot_dims(self):
        return self.dims[:-1]

    @property
    def ondemand_dim(self):
        return self.dims[-1]


@dataclass
class Task:
    id: int
    profile: TaskProfile
    predecessors: list = field(default_factory=list)
    successors: list = field(default_factory=list)


@dataclass
class WorkflowJob:
    """A DAG of tasks plus its QoS contract.

    Tasks are indexed by id when the job is made: replace the job
    (with_deadline, dataclasses.replace) rather than edit its task list.
    """

    tasks: list
    deadline: float | None = None
    guarantee_p: float = 0.96
    class_id: str = "job"

    def __post_init__(self):
        if self.deadline is not None and not 0 < self.deadline < math.inf:
            raise WorkflowError("deadline must be positive and finite")
        if not 0.0 < self.guarantee_p <= 1.0:
            raise WorkflowError("guarantee_p must be in (0, 1]")
        self._by_id = {t.id: t for t in self.tasks}
        if len(self._by_id) != len(self.tasks):
            raise WorkflowError("task ids must be unique")
        for t in self.tasks:
            for p in t.predecessors:
                if p not in self._by_id:
                    raise WorkflowError("task %d references unknown predecessor %d" % (t.id, p))
            for s in t.successors:
                if s not in self._by_id:
                    raise WorkflowError("task %d references unknown successor %d" % (t.id, s))

    def task_by_id(self, task_id):
        return self._by_id[task_id]

    def source_ids(self):
        return [t.id for t in self.tasks if not t.predecessors]

    def sink_ids(self):
        return [t.id for t in self.tasks if not t.successors]

    def edges(self):
        return [(t.id, s) for t in self.tasks for s in t.successors]

    def with_deadline(self, deadline):
        return dataclasses.replace(self, deadline=deadline)


def build_job(profiles, edges, deadline=None, guarantee_p=0.96, class_id="job"):
    """Assemble a job from task profiles and (u, v) edges, then assign ids.

    `profiles` maps provisional task ids to TaskProfile.
    """
    tasks = {tid: Task(id=tid, profile=prof) for tid, prof in profiles.items()}
    for u, v in edges:
        if u not in tasks or v not in tasks:
            raise WorkflowError("edge (%s, %s) references unknown task" % (u, v))
        tasks[u].successors.append(v)
        tasks[v].predecessors.append(u)
    job = WorkflowJob(
        tasks=list(tasks.values()),
        deadline=deadline,
        guarantee_p=guarantee_p,
        class_id=class_id,
    )
    return assign_ids(job)


def assign_ids(job):
    """Renumber tasks so ids follow a topological order.

    Every edge (u, v) ends up with id(u) < id(v).  Ties are broken by input
    order, so the renumbering is deterministic.  Raises CycleError naming an
    edge on a cycle when the graph is not acyclic.
    """
    order_index = {t.id: i for i, t in enumerate(job.tasks)}
    indegree = {t.id: len(t.predecessors) for t in job.tasks}
    by_id = {t.id: t for t in job.tasks}
    ready = sorted((tid for tid, deg in indegree.items() if deg == 0),
                   key=order_index.__getitem__)
    topo = []
    while ready:
        tid = ready.pop(0)
        topo.append(tid)
        inserted = []
        for s in by_id[tid].successors:
            indegree[s] -= 1
            if indegree[s] == 0:
                inserted.append(s)
        if inserted:
            ready.extend(inserted)
            ready.sort(key=order_index.__getitem__)
    if len(topo) != len(job.tasks):
        remaining = {tid for tid, deg in indegree.items() if deg > 0}
        # Walk predecessors inside the remainder until a node repeats.
        node = next(iter(sorted(remaining, key=order_index.__getitem__)))
        seen = []
        while node not in seen:
            seen.append(node)
            node = next(p for p in by_id[node].predecessors if p in remaining)
        start = seen.index(node)
        cycle = seen[start:] + [node]
        raise CycleError((cycle[1], cycle[0]))

    mapping = {old: new for new, old in enumerate(topo)}
    new_tasks = [
        Task(
            id=mapping[tid],
            profile=by_id[tid].profile,
            predecessors=sorted(mapping[p] for p in by_id[tid].predecessors),
            successors=sorted(mapping[s] for s in by_id[tid].successors),
        )
        for tid in topo
    ]
    return dataclasses.replace(job, tasks=new_tasks)


# ---------------------------------------------------------------------------
# Whole-workflow execution time composition
# ---------------------------------------------------------------------------


def workflow_time_distribution(job, per_task_dists):
    """Makespan distribution of the whole workflow.

    A per-sample longest path, swept in task-id (topological) order: a task
    finishes at the latest finish of its predecessors plus its own time,
    and the makespan is the latest finish over the sink tasks.  convolve
    and max_of pair samples by index, so sample i of the result is the
    critical-path length under sample i of every task, for any DAG.  The
    per-task distributions must have equal sample counts.  Resource
    contention is ignored: the planning model assumes an instance is
    available per task.
    """
    missing = [t.id for t in job.tasks if t.id not in per_task_dists]
    if missing:
        raise WorkflowError("missing distributions for tasks %s" % missing)
    counts = sorted({per_task_dists[t.id].sample_count for t in job.tasks})
    if len(counts) > 1:
        raise WorkflowError("per-task distributions have unequal sample counts %s" % counts)
    finish = {}
    for t in sorted(job.tasks, key=lambda t: t.id):  # ids are topological
        dist = per_task_dists[t.id]
        if t.predecessors:
            dist = convolve(max_of([finish[p] for p in t.predecessors]), dist)
        finish[t.id] = dist
    return max_of([finish[tid] for tid in job.sink_ids()])


def is_feasible(job, dist):
    """True when the makespan percentile at the guarantee level meets the deadline.

    The boundary is inclusive: a percentile exactly equal to the deadline
    counts as feasible.  This is the single definition of feasibility used
    everywhere (planners, tests, reports).
    """
    if job.deadline is None:
        raise WorkflowError("job has no deadline set")
    return dist.percentile(job.guarantee_p) <= job.deadline


def critical_path_length(job, task_values):
    """Longest path through the DAG using per-task scalar durations."""
    finish = {}
    for t in sorted(job.tasks, key=lambda t: t.id):  # ids are topological
        best = 0.0
        for p in t.predecessors:
            best = max(best, finish[p])
        finish[t.id] = best + task_values[t.id]
    return max(finish[tid] for tid in job.sink_ids())


def deadline_bounds(job, catalog, n=DEFAULT_SAMPLE_COUNT, seed=0, cache=None):
    """(D_min, D_max): expected critical-path makespan on the most expensive
    and on the cheapest instance type.

    These anchor deadline settings; the default experiment deadline is their
    midpoint.  Task times on a type are seeded from (seed, task id, type
    id), as in the planner's TaskDistCache; pass the class's cache (same n
    and seed) to read them from it instead of drawing them again.
    """
    if cache is not None and (cache.sample_count, cache.seed) != (n, seed):
        raise ValueError("cache draws %d samples at seed %d, not %d at seed %d"
                         % (cache.sample_count, cache.seed, n, seed))

    def mean_times(itype):
        return {
            t.id: expected_task_time(
                t.profile, itype, n=n, seed=derive_seed(seed, t.id, itype.id),
                dist=None if cache is None else cache.dist(t.id, itype.id))
            for t in job.tasks
        }

    d_min = critical_path_length(job, mean_times(catalog.most_expensive()))
    d_max = critical_path_length(job, mean_times(catalog.cheapest()))
    return d_min, d_max


# ---------------------------------------------------------------------------
# Workflow files and example generators
# ---------------------------------------------------------------------------


def load_workflow(path, deadline=None, guarantee_p=0.96, class_id=None):
    """Parse a workflow file into a job with topological ids.

    Format, one directive per line (comments start with '#'):

        task [ID] INSTR SEQ_MB RND_MB NET_IN_MB NET_OUT_MB
        edge SRC_ID DST_ID

    Task ids are optional; tasks without an explicit id are numbered by
    order of appearance.  Ids are renumbered topologically after loading.
    """
    profiles = {}
    edges = []
    auto_id = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            kind = parts[0]
            try:
                if kind == "task":
                    if len(parts) == 7:
                        tid = int(parts[1])
                    elif len(parts) == 6:
                        tid = auto_id
                    else:
                        raise ValueError("task needs 5 profile fields (and an optional id)")
                    prof = [float(x) for x in parts[-5:]]
                    if tid in profiles:
                        raise ValueError("duplicate task id %d" % tid)
                    auto_id = max(auto_id, tid) + 1
                    profiles[tid] = TaskProfile(*prof)
                elif kind == "edge":
                    if len(parts) != 3:
                        raise ValueError("edge needs exactly 2 task ids")
                    edges.append((int(parts[1]), int(parts[2])))
                else:
                    raise ValueError("unknown directive %r" % kind)
            except ValueError as exc:
                raise WorkflowError("%s:%d: %s" % (path, lineno, exc)) from exc
    if not profiles:
        raise WorkflowError("%s: workflow file defines no tasks" % path)
    if class_id is None:
        class_id = _stem(path)
    try:
        return build_job(profiles, edges, deadline=deadline,
                         guarantee_p=guarantee_p, class_id=class_id)
    except CycleError:
        raise
    except WorkflowError as exc:
        raise WorkflowError("%s: %s" % (path, exc)) from exc


def _stem(path):
    name = str(path).replace("\\", "/").rsplit("/", 1)[-1]
    return name.rsplit(".", 1)[0]


def save_workflow(job, path):
    with open(path, "w", encoding="utf-8") as fh:
        for t in job.tasks:
            p = t.profile
            fh.write("task %d %g %g %g %g %g\n" % (
                t.id, p.instructions, p.seq_io_mb, p.rnd_io_mb, p.net_in_mb, p.net_out_mb))
        for u, v in job.edges():
            fh.write("edge %d %d\n" % (u, v))


def _synthetic_profile(rng, kind):
    """Synthetic task profile; `kind` biases the dominating resource.

    Sized so tasks take tens of minutes on the cheapest type: instance
    acquisition lags should be a secondary effect, as for the real
    hour-scale workflows these shapes imitate.
    """
    instr = float(rng.uniform(4e11, 16e11))
    io = float(rng.uniform(800, 8000))
    net = float(rng.uniform(200, 2000))
    if kind == "io":
        return TaskProfile(instructions=instr * 0.2, seq_io_mb=io * 4,
                           rnd_io_mb=io * 0.5, net_in_mb=net, net_out_mb=net)
    if kind == "cpu":
        return TaskProfile(instructions=instr * 4, seq_io_mb=io * 0.2,
                           net_in_mb=net * 0.5, net_out_mb=net * 0.5)
    return TaskProfile(instructions=instr, seq_io_mb=io,
                       rnd_io_mb=io * 0.2, net_in_mb=net, net_out_mb=net)


def _shape(seed, name):
    """(profiles, edges, add) for building one generated shape.

    add(kind) draws the next task's profile from the shape's own substream,
    in call order, and returns the new task's id.
    """
    rng = substream(seed, name)
    profiles = {}

    def add(kind):
        nid = len(profiles)
        profiles[nid] = _synthetic_profile(rng, kind)
        return nid

    return profiles, [], add


def montage_like(width=4, seed=0, guarantee_p=0.96):
    """I/O-heavy mosaicking shape: fan, pairwise layer, join, fan, tail chain."""
    profiles, edges, add = _shape(seed, "montage")
    level1 = [add("io") for _ in range(width)]
    level2 = [add("io") for _ in range(width)]
    for i, t in enumerate(level2):
        edges.append((level1[i], t))
        edges.append((level1[(i + 1) % width], t))
    join = add("cpu")
    for t in level2:
        edges.append((t, join))
    level3 = [add("io") for _ in range(width)]
    for t in level3:
        edges.append((join, t))
    tail1, tail2 = add("io"), add("mixed")
    for t in level3:
        edges.append((t, tail1))
    edges.append((tail1, tail2))
    return build_job(profiles, edges, guarantee_p=guarantee_p,
                     class_id="montage-like-%d" % width)


def ligo_like(branches=2, width=3, seed=0, guarantee_p=0.96):
    """Branchy inspiral shape: parallel groups, each fan-join, then a merge."""
    profiles, edges, add = _shape(seed, "ligo")
    group_tails = []
    for _ in range(branches):
        head = add("cpu")
        mids = [add("mixed") for _ in range(width)]
        tail = add("cpu")
        for m in mids:
            edges.append((head, m))
            edges.append((m, tail))
        group_tails.append(tail)
    merge = add("mixed")
    for t in group_tails:
        edges.append((t, merge))
    return build_job(profiles, edges, guarantee_p=guarantee_p,
                     class_id="ligo-like-%dx%d" % (branches, width))


def epigenomics_like(lanes=3, depth=3, seed=0, guarantee_p=0.96):
    """CPU-heavy pipeline shape: parallel lanes of chained tasks, then merge."""
    profiles, edges, add = _shape(seed, "epigenomics")
    split = add("io")
    lane_tails = []
    for _ in range(lanes):
        prev = split
        for _ in range(depth):
            node = add("cpu")
            edges.append((prev, node))
            prev = node
        lane_tails.append(prev)
    merge = add("io")
    for t in lane_tails:
        edges.append((t, merge))
    final = add("mixed")
    edges.append((merge, final))
    return build_job(profiles, edges, guarantee_p=guarantee_p,
                     class_id="epigenomics-like-%dx%d" % (lanes, depth))
