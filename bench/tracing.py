"""Per-layer tracing of spotflow from outside the program.

A Tracer replaces public functions and methods with timing wrappers, patched
where each caller looks the name up (a module that did `from x import f`
holds its own reference, so `f` is patched in that module).  Each wrapper
records a span (name, start, end, parent span, class id) in flat arrays and
the arrays are aggregated, or written out, when the traced run ends.  A name
the program no longer has raises MissingTarget, so a rename fails the traced
run instead of silently reading 0; update the patch list with the rename.

Self time is a span's duration minus the part its direct children cover.
Busy time (`.s`) sums only spans with no enclosing span of the same name, so
recursion (bid bisection) is not counted twice.
"""

from array import array
from collections import Counter
from time import perf_counter

import numpy as np

from spotflow import (
    cloud_model,
    distributions,
    planner_astar,
    planner_hybrid,
    simulator,
    spot_market,
    workflow_dag,
)

# Modules whose own `substream` reference gets a wrapper.
_SUBSTREAM_USERS = (distributions, cloud_model, workflow_dag, planner_hybrid,
                    spot_market, simulator)


class MissingTarget(AttributeError):
    """A name the tracer wraps or reads is missing from the program."""


def _require(owner, attr):
    value = vars(owner).get(attr)
    if value is None:
        raise MissingTarget("tracing: %s has no %r" % (getattr(owner, "__name__", owner), attr))
    return value


def _job_class(args, kwargs):
    job = args[0] if args else kwargs.get("job")
    return getattr(job, "class_id", "")


class Tracer:
    """Span recorder; use as a context manager around the traced calls."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.classes = [""]
        self._class_ids = {"": 0}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_class = array("i")
        self.span_nested = array("b")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []
        self._depth = []
        self._cls = [0]
        self.counts = Counter()
        self._ffp_seen = {}
        self._patches = []

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def install(self):
        p = self._patch
        p(planner_astar, "astar_configure", "planner_astar.search",
          before=self._inject_stats, after=self._collect_stats, class_of=_job_class)
        p(planner_astar, "plan_distribution", "planner_astar.evals")
        p(planner_astar, "workflow_time_distribution", "workflow_dag.compose")
        p(planner_astar, "task_time_distribution", "cloud_model.task_time_distribution")
        p(cloud_model, "task_time_distribution", "cloud_model.task_time_distribution")
        p(workflow_dag, "expected_task_time", "cloud_model.expected_task_time")
        p(simulator, "expected_task_time", "cloud_model.expected_task_time")
        p(workflow_dag, "deadline_bounds", "workflow_dag.deadline_bounds",
          class_of=_job_class)
        p(workflow_dag, "convolve", "distributions.convolve")
        p(workflow_dag, "max_of", "distributions.max_of")
        p(distributions.EmpiricalDistribution, "percentile", "distributions.percentile")
        p(planner_hybrid, "refine_plan", "planner_hybrid.refine", class_of=_job_class)
        p(planner_hybrid, "refine_task", "planner_hybrid.refine_task")
        p(planner_hybrid, "binary_search_bid", "planner_hybrid.bid_step",
          after=self._count_accept)
        p(planner_hybrid, "hybrid_cost", "planner_hybrid.hybrid_cost")
        p(planner_hybrid, "hybrid_time_distribution", "planner_hybrid.hybrid_time")
        p(planner_hybrid, "estimate_ffp", "spot_market.estimate_ffp",
          after=self._count_ffp_hit)
        p(planner_hybrid, "dominates", "distributions.dominates")
        p(simulator.Simulator, "run", "simulator.run")
        p(simulator, "sample_task_time", "cloud_model.sample_task_time")
        p(simulator, "bill", "simulator.bill", after=self._count_out_of_bid)
        p(simulator.InstancePool, "acquire_or_reuse", "simulator.pool.acquire",
          after=self._count_reuse)
        p(simulator.InstancePool, "create", "simulator.pool.create")
        p(simulator.InstancePool, "mark_idle", "simulator.pool.mark_idle")
        p(simulator.InstancePool, "remove", "simulator.pool.remove")
        p(spot_market.SpotPriceTrace, "first_exceedance_cyclic",
          "spot_market.first_exceedance")
        p(spot_market.SpotPriceTrace, "price_at_cyclic", "spot_market.price_at")
        p(spot_market, "load_trace", "cli.load")
        p(workflow_dag, "load_workflow", "cli.load")
        p(planner_astar, "save_plan_cache", "cli.plan_cache_io")
        p(planner_astar, "load_plan_cache", "cli.plan_cache_io")
        for module in _SUBSTREAM_USERS:
            p(module, "substream", "distributions.substream")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, name, before=None, after=None, class_of=None):
        original = _require(owner, attr)
        nid = self._name_id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            if class_of is not None:
                tracer._cls.append(tracer._class_id(class_of(args, kwargs)))
            idx = tracer._open(nid)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                tracer._close(idx, nid)
                if class_of is not None:
                    tracer._cls.pop()
                if after is not None:
                    after(idx, args, kwargs, result)

        wrapper.__wrapped__ = original
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._name_ids[name]

    def _class_id(self, class_id):
        if class_id not in self._class_ids:
            self._class_ids[class_id] = len(self.classes)
            self.classes.append(class_id)
        return self._class_ids[class_id]

    def _open(self, nid):
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_class.append(self._cls[-1])
        self.span_nested.append(self._depth[nid] > 0)
        self.span_end.append(0.0)
        self._depth[nid] += 1
        self._stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def _close(self, idx, nid):
        self.span_end[idx] = perf_counter()
        self._stack.pop()
        self._depth[nid] -= 1

    # ------------------------------------------------------------------
    # counters that need arguments or results
    # ------------------------------------------------------------------

    def _inject_stats(self, args, kwargs):
        if kwargs.get("stats") is None:
            kwargs["stats"] = _require(planner_astar, "SearchStats")()

    def _collect_stats(self, idx, args, kwargs, result):
        stats = kwargs["stats"]
        for key in ("iterations", "generated", "pruned", "feasible_found"):
            self.counts[key] += getattr(stats, key)
        params = kwargs.get("params") or (args[2] if len(args) > 2 else None)
        max_iter = (params if params is not None else planner_astar.AStarParams()).max_iter
        if stats.iterations >= max_iter:
            self.counts["budget_exhausted"] += 1

    def _count_accept(self, idx, args, kwargs, result):
        parent = self.span_parent[idx]
        if parent >= 0 and self.names[self.span_name[parent]] == "planner_hybrid.refine_task":
            self.counts["bid_searches"] += 1
            self.counts["bid_accepted"] += result is not None

    def _count_ffp_hit(self, idx, args, kwargs, result):
        model, type_id, bid = args[:3]
        entry = self._ffp_seen.setdefault(id(model), (model, set()))
        key = (type_id, round(float(bid), 9))
        if key in entry[1]:
            self.counts["ffp_hits"] += 1
        entry[1].add(key)

    def _count_out_of_bid(self, idx, args, kwargs, result):
        terminated_by = kwargs.get("terminated_by", args[2] if len(args) > 2 else None)
        self.counts["out_of_bid"] += terminated_by == "out-of-bid"

    def _count_reuse(self, idx, args, kwargs, result):
        self.counts["reuses"] += result is not None

    # ------------------------------------------------------------------
    # aggregation and output
    # ------------------------------------------------------------------

    def _arrays(self):
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        cls = np.frombuffer(self.span_class, dtype=np.int32)
        nested = np.frombuffer(self.span_nested, dtype=np.int8).astype(bool)
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        return name, parent, cls, nested, start, end

    def save(self, path):
        """Write the raw spans (and name/class tables) as an .npz file."""
        name, parent, cls, _, start, end = self._arrays()
        np.savez(path, name=name, parent=parent, cls=cls, start=start, end=end,
                 names=np.array(self.names), classes=np.array(self.classes))

    def metrics(self, tasks_submitted, class_ids):
        """Per-layer metric values by name.

        tasks_submitted is the number of tasks the traced simulations
        submitted (jobs x tasks per job); class_ids lists the classes that
        get per-class metrics.
        """
        name, parent, cls, nested, start, end = self._arrays()
        dur = end - start
        cover = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(cover, parent[has_parent], dur[has_parent])
        self_time = dur - cover

        def sel(span):
            nid = self._name_ids.get(span)
            return name == nid if nid is not None else np.zeros(name.size, dtype=bool)

        def calls(span):
            return int(sel(span).sum())

        def busy(span, mask=True):
            return float(dur[sel(span) & ~nested & mask].sum())

        def self_s(span):
            return float(self_time[sel(span)].sum())

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counts
        m = {}
        for span in ("distributions.convolve", "distributions.max_of",
                     "distributions.percentile", "distributions.dominates",
                     "distributions.substream", "planner_hybrid.hybrid_cost",
                     "planner_hybrid.hybrid_time", "spot_market.estimate_ffp",
                     "cloud_model.task_time_distribution",
                     "cloud_model.expected_task_time", "cloud_model.sample_task_time",
                     "spot_market.first_exceedance", "spot_market.price_at",
                     "simulator.bill"):
            m[span + ".calls"] = calls(span)
            m[span + ".s"] = busy(span)
        m["workflow_dag.compose.calls"] = calls("workflow_dag.compose")
        m["workflow_dag.compose.self_s"] = self_s("workflow_dag.compose")
        m["workflow_dag.deadline_bounds.s"] = busy("workflow_dag.deadline_bounds")

        m["planner_astar.search.s"] = busy("planner_astar.search")
        m["planner_astar.search.self_s"] = self_s("planner_astar.search")
        for key in ("iterations", "generated", "pruned", "feasible_found",
                    "budget_exhausted"):
            m["planner_astar." + key] = c[key]
        m["planner_astar.evals"] = calls("planner_astar.evals")
        m["planner_astar.prune_ratio"] = ratio(c["pruned"], c["generated"])

        m["planner_hybrid.refine.s"] = busy("planner_hybrid.refine")
        m["planner_hybrid.refine.self_s"] = self_s("planner_hybrid.refine")
        m["planner_hybrid.tasks"] = calls("planner_hybrid.refine_task")
        m["planner_hybrid.bid_searches"] = c["bid_searches"]
        m["planner_hybrid.bid_steps"] = calls("planner_hybrid.bid_step")
        m["planner_hybrid.bid_accept_ratio"] = ratio(c["bid_accepted"], c["bid_searches"])
        m["spot_market.estimate_ffp.hit_ratio"] = ratio(
            c["ffp_hits"], m["spot_market.estimate_ffp.calls"])

        pool = ("simulator.pool.acquire", "simulator.pool.create",
                "simulator.pool.mark_idle", "simulator.pool.remove")
        requests = calls("simulator.pool.acquire")
        m["simulator.run.s"] = busy("simulator.run")
        m["simulator.run.self_s"] = self_s("simulator.run")
        m["simulator.pool.s"] = sum(busy(span) for span in pool)
        m["simulator.task_starts"] = m["cloud_model.sample_task_time.calls"]
        # A restart is an instance request beyond each task's first one.
        m["simulator.restarts"] = max(requests - tasks_submitted, 0)
        m["simulator.out_of_bid"] = c["out_of_bid"]
        m["simulator.instances"] = calls("simulator.pool.create")
        m["simulator.reuse_ratio"] = ratio(c["reuses"], requests)
        m["simulator.task_starts_per_s"] = ratio(m["simulator.task_starts"],
                                                 m["simulator.run.s"])

        m["cli.load.s"] = busy("cli.load")
        m["cli.plan_cache_io.s"] = busy("cli.plan_cache_io")

        for class_id in class_ids:
            in_class = cls == self._class_ids.get(class_id, -1)
            m["workflow_dag.compose.s." + class_id] = busy("workflow_dag.compose", in_class)
            m["planner_astar.evals." + class_id] = int(
                (sel("planner_astar.evals") & in_class).sum())
        return m
