"""Workflow model: tasks, jobs, hybrid configurations and makespan algebra.

A job is a DAG of tasks with a deadline and a probabilistic guarantee p:
the promise is that the workflow finishes by the deadline at the p-th
percentile of its makespan distribution.  The whole-workflow distribution
is composed from per-task distributions by one per-sample longest-path
sweep over index-paired samples, whatever the DAG's shape.
"""

import dataclasses
import heapq
from dataclasses import dataclass, field

from .cloud_model import CLOCK_BOUND, TaskProfile, expected_task_time
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
    predecessors: list = field(default_factory=list)  # the job's one copy of its edges


@dataclass
class WorkflowJob:
    """A DAG of tasks plus its QoS contract.

    Task ids are list positions in topological order: task i is tasks[i],
    and every edge runs from a lower id to a higher one.  build_job makes
    jobs of this form; the constructor rejects any other.
    """

    tasks: list
    deadline: float | None = None
    guarantee_p: float = 0.96
    class_id: str = "job"

    def __post_init__(self):
        if self.deadline is not None and not 0 < self.deadline < CLOCK_BOUND:
            raise WorkflowError("deadline must be in (0, %g) s" % CLOCK_BOUND)
        if not 0.0 < self.guarantee_p <= 1.0:
            raise WorkflowError("guarantee_p must be in (0, 1]")
        for i, t in enumerate(self.tasks):
            if t.id != i:
                raise WorkflowError("task at position %d has id %r" % (i, t.id))
            if not all(0 <= p < i for p in t.predecessors):
                raise WorkflowError("task %d has a predecessor outside [0, %d): %s"
                                    % (i, i, t.predecessors))

    def successors(self):
        """Successor ids by task id, ascending; an edge listed twice appears twice."""
        succs = [[] for _ in self.tasks]
        for t in self.tasks:
            for p in t.predecessors:
                succs[p].append(t.id)
        return succs

    def source_ids(self):
        return [t.id for t in self.tasks if not t.predecessors]

    def sink_ids(self):
        return [tid for tid, succs in enumerate(self.successors()) if not succs]

    def edges(self):
        return [(u, v) for u, succs in enumerate(self.successors()) for v in succs]

    def with_deadline(self, deadline):
        return dataclasses.replace(self, deadline=deadline)


def build_job(profiles, edges, deadline=None, guarantee_p=0.96, class_id="job"):
    """Assemble a job from task profiles and (u, v) edges.

    `profiles` maps provisional task ids to TaskProfile.  Tasks are
    numbered in topological order; among the tasks whose predecessors are
    all numbered, the one given first in `profiles` comes next, so the
    numbering is deterministic.  Raises CycleError naming an edge on a
    cycle when the graph is not acyclic.
    """
    order = list(profiles)
    rank = {tid: r for r, tid in enumerate(order)}
    preds = {tid: [] for tid in order}
    succs = {tid: [] for tid in order}
    for u, v in edges:
        if u not in rank or v not in rank:
            raise WorkflowError("edge (%s, %s) references unknown task" % (u, v))
        succs[u].append(v)
        preds[v].append(u)
    indegree = {tid: len(ps) for tid, ps in preds.items()}
    ready = [r for r, tid in enumerate(order) if not indegree[tid]]  # ranks, a heap
    topo = []
    while ready:
        tid = order[heapq.heappop(ready)]
        topo.append(tid)
        for s in succs[tid]:
            indegree[s] -= 1
            if not indegree[s]:
                heapq.heappush(ready, rank[s])
    if len(topo) != len(order):
        remaining = {tid for tid, deg in indegree.items() if deg}
        # Walk predecessors inside the remainder until a node repeats.
        node = min(remaining, key=rank.__getitem__)
        seen = []
        while node not in seen:
            seen.append(node)
            node = next(p for p in preds[node] if p in remaining)
        cycle = seen[seen.index(node):] + [node]
        raise CycleError((cycle[1], cycle[0]))

    new_id = {tid: i for i, tid in enumerate(topo)}
    tasks = [Task(id=i, profile=profiles[tid], predecessors=sorted(new_id[p] for p in preds[tid]))
             for i, tid in enumerate(topo)]
    return WorkflowJob(tasks=tasks, deadline=deadline, guarantee_p=guarantee_p,
                       class_id=class_id)


# ---------------------------------------------------------------------------
# Whole-workflow execution time composition
# ---------------------------------------------------------------------------


def workflow_time_distribution(job, task_dists):
    """Makespan distribution of the whole workflow.

    A per-sample longest path, swept in task-id (topological) order: a task
    finishes at the latest finish of its predecessors plus its own time,
    and the makespan is the latest finish over the sink tasks.  convolve
    and max_of pair samples by index, so sample i of the result is the
    critical-path length under sample i of every task, for any DAG.
    task_dists[i] is task i's distribution; all have equal sample counts.
    Resource contention is ignored: the planning model assumes an instance
    is available per task.
    """
    if len(task_dists) != len(job.tasks):
        raise WorkflowError("%d distributions for %d tasks" % (len(task_dists), len(job.tasks)))
    counts = sorted({task_dists[t.id].sample_count for t in job.tasks})
    if len(counts) > 1:
        raise WorkflowError("per-task distributions have unequal sample counts %s" % counts)
    finish = []
    for t in job.tasks:  # ids are topological
        dist = task_dists[t.id]
        if t.predecessors:
            dist = convolve(max_of([finish[p] for p in t.predecessors]), dist)
        finish.append(dist)
    return max_of([finish[tid] for tid in job.sink_ids()])


def is_feasible(job, dist):
    """True when the makespan percentile at the guarantee level meets the deadline.

    The boundary is inclusive: a percentile exactly equal to the deadline
    counts as feasible.  The search calls it on every pop its prefix
    screen does not decide, and the exhaustive test oracle on every plan.
    """
    if job.deadline is None:
        raise WorkflowError("job has no deadline set")
    return dist.percentile(job.guarantee_p) <= job.deadline


def critical_path_length(job, task_values):
    """Longest path through the DAG; task_values[i] is task i's scalar duration."""
    finish = []
    for t in job.tasks:  # ids are topological
        finish.append(max([finish[p] for p in t.predecessors], default=0.0) + task_values[t.id])
    return max(finish[tid] for tid in job.sink_ids())


def deadline_bounds(job, catalog, n=None, seed=None, cache=None):
    """(D_min, D_max): expected critical-path makespan on the most expensive
    and on the cheapest instance type.

    These anchor deadline settings; the default experiment deadline is their
    midpoint.  Task times on a type are seeded from (seed, task id, type
    id), as in the planner's TaskDistCache.  Pass the class's cache, drawn
    over `catalog`, to read them from it instead of drawing them again: it
    fixes the sample count and the seed, so `n` and `seed` (by default
    DEFAULT_SAMPLE_COUNT and 0) come only without one.
    """
    if cache is None:
        n = DEFAULT_SAMPLE_COUNT if n is None else n
        seed = 0 if seed is None else seed
    elif n is not None or seed is not None:
        raise ValueError("n and seed are fixed by the cache; pass them or the cache")
    elif tuple(cache.catalog) != tuple(catalog):
        raise ValueError("cache draws over another catalog")

    def mean_times(itype):
        if cache is not None:
            return [expected_task_time(t.profile, itype, dist=cache.dist(t.id, itype.id))
                    for t in job.tasks]
        return [expected_task_time(t.profile, itype, n=n, seed=derive_seed(seed, t.id, itype.id))
                for t in job.tasks]

    d_min = critical_path_length(job, mean_times(catalog.most_expensive()))
    d_max = critical_path_length(job, mean_times(catalog.cheapest()))
    return d_min, d_max


# ---------------------------------------------------------------------------
# Workflow files and example generators
# ---------------------------------------------------------------------------


def load_workflow(path, guarantee_p=0.96):
    """Parse a workflow file into a job with topological ids, without a
    deadline, whose class id is the file name without its extension.

    Format, one directive per line (comments start with '#'):

        task [ID] INSTR SEQ_MB RND_MB NET_IN_MB NET_OUT_MB
        edge SRC_ID DST_ID

    Task ids are optional; tasks without an explicit id are numbered by
    order of appearance.  Ids are renumbered topologically after loading.
    """
    profiles = {}
    edges = []
    auto_id = 0
    try:
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
                        edges.append((lineno, int(parts[1]), int(parts[2])))
                    else:
                        raise ValueError("unknown directive %r" % kind)
                except ValueError as exc:
                    raise WorkflowError("%s:%d: %s" % (path, lineno, exc)) from exc
    except UnicodeDecodeError as exc:
        raise WorkflowError("%s: %s" % (path, exc)) from None
    if not profiles:
        raise WorkflowError("%s: workflow file defines no tasks" % path)
    for lineno, u, v in edges:  # an edge may come before its tasks
        if u not in profiles or v not in profiles:
            raise WorkflowError("%s:%d: edge (%d, %d) references unknown task"
                                % (path, lineno, u, v))
    try:
        return build_job(profiles, [(u, v) for _, u, v in edges],
                         guarantee_p=guarantee_p, class_id=_stem(path))
    except WorkflowError as exc:
        exc.args = ("%s: %s" % (path, exc),)  # keeps the type, and a CycleError's edge
        raise


def _stem(path):
    name = str(path).replace("\\", "/").rsplit("/", 1)[-1]
    return name.rsplit(".", 1)[0]


def save_workflow(job, path):
    """Write `job` in load_workflow's format.  Profiles are written as
    round-trip floats, so the file reloads to the same profiles and edges."""
    with open(path, "w", encoding="utf-8") as fh:
        for t in job.tasks:
            fh.write("task %d %r %r %r %r %r\n" % (t.id, *dataclasses.astuple(t.profile)))
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
