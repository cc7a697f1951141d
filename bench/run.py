#!/usr/bin/env python3
"""spotflow benchmark: one workload, end to end or traced per layer.

    python3 bench/run.py --workload plan-search --seed 1 --seconds 30 --trace 0

Run from a source checkout; the program is imported from ./src.  Set-up
writes seeded inputs (price traces, workflow files) under .bench_work/, then
the workload's spotflow commands run in-process through spotflow.cli.main
in a closed loop of passes until --seconds of passes have elapsed.  The
workload's set-ups are repeated at even intervals between the passes.
Workloads and their parameters are defined in bench/workloads.json.

Every pass runs the same commands on the same inputs, so each command is
timed many times in a run.  Times are reported in reference seconds: a
command's wall time scaled by PROBE_REF_S over the time a fixed speed probe
(the benchmark's own interpreter, object and numpy work, no spotflow code)
takes just before and just after it.  On a shared host the same command's
wall time swings by a factor of up to 2 over tens of seconds as the host's
load changes; the probe swings with it, and the scaled time stays within a
few percent.  plan_s and simulate_s sum, over the pass's plan or simulate
commands, each command's median over the run's passes; setup_s is the
median of the run's set-ups.  Wall times are printed beside them.

With --trace 0 the last line of stdout is a JSON object holding every
end-to-end metric of BENCHMARK.json; with --trace 1 it holds every per-layer
metric, taken from one traced pass between two plain ones.  Outputs are
checked either way (see Workload.evaluate); a failed check is reported on
stderr and the run exits 1 without a result.
"""

import argparse
import contextlib
import gc
import hashlib
import heapq
import io
import json
import math
import os
import pathlib
import random
import resource
import shutil
import statistics
import sys
import traceback
from time import perf_counter

import numpy as np

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Passes stop once this many times --seconds have gone by in the run, set-ups
# included, however few passes that left: a slow host shortens the run
# instead of running it past its time limit.
MAX_RUN_FACTOR = 2.5

# Seconds the speed probe takes on a host running at the reference speed;
# a reference second is a wall second times PROBE_REF_S / probe seconds.
PROBE_REF_S = 0.04

_PROBE_SAMPLES = np.random.default_rng(0).random((8, 10_000))


def speed_probe():
    """Wall seconds of a fixed piece of work, run where a command is timed.

    It mixes what spotflow's time goes to, in about the shares that tracked
    spotflow's own commands best through the host's slow and fast stretches:
    interpreted arithmetic, object and heap churn (the simulator's event
    loop), numpy sorts and scans over sample arrays (distribution
    composition), and creating many small random generators (per-draw seed
    derivation).  It allocates little, so it does not set peak_rss_mb.
    """
    gc.collect()
    t0 = perf_counter()
    total = 0
    for k in range(50_000):
        total += k * k
    rnd = random.Random(1)
    heap, table = [], {}
    for k in range(5_000):
        heapq.heappush(heap, (rnd.random(), k))
        table[k] = [k, str(k)]
    while heap:
        table.pop(heapq.heappop(heap)[1])
    for _ in range(10):
        ordered = np.sort(_PROBE_SAMPLES, axis=1)
        np.maximum(ordered, np.cumsum(ordered, axis=1)[::-1])
    for k in range(1_500):
        np.random.default_rng([k, 7]).random()
    return perf_counter() - t0


def import_program():
    """Import spotflow from this checkout's src/, never from elsewhere."""
    package = SRC / "spotflow"
    if not (package / "__init__.py").is_file():
        raise SystemExit("bench: no spotflow sources at %s" % package)
    sys.path.insert(0, str(SRC))
    import spotflow
    if pathlib.Path(spotflow.__file__).resolve().parent != package:
        raise SystemExit("bench: spotflow imported from %s, not %s"
                         % (spotflow.__file__, package))


def digest(path):
    return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()


class CheckFailed(Exception):
    pass


class Workload:
    """One workload's inputs, commands and output checks for one seed."""

    def __init__(self, name, spec, seed, work):
        from spotflow import default_catalog

        self.name = name
        self.seed = seed
        self.work = work
        self.wl = spec["workloads"][name]
        self.trace_spec = spec["trace"]
        self.plan_seed = spec["plan_seed"]
        self.plan_params = dict(spec["plan_defaults"])
        if "deadline_factor" in self.wl:
            self.plan_params["deadline_factor"] = self.wl["deadline_factor"]
        self.arrival_rate = spec["simulate_defaults"]["arrival_rate_per_min"]
        self.classes = self.wl["classes"]
        self.catalog = default_catalog()
        self.trace_dir = work / "traces"
        self.wf_dir = work / "workflows"
        self.task_counts = {}
        self.last_probe = None

    def wf(self, cls):
        return self.wf_dir / ("%s.wf" % cls["class_id"])

    # ------------------------------------------------------------------
    # set-up
    # ------------------------------------------------------------------

    def write_inputs(self):
        import inputs

        self.trace_dir.mkdir(parents=True, exist_ok=True)
        self.wf_dir.mkdir(parents=True, exist_ok=True)
        for itype in self.catalog:
            text = inputs.trace_text(self.seed, itype.name, itype.ondemand_price,
                                     self.trace_spec)
            (self.trace_dir / ("%s.csv" % itype.name)).write_text(text, encoding="utf-8")
        for cls in self.classes:
            text = inputs.workflow_text(cls["shape"], cls["params"], cls["generator_seed"])
            self.wf(cls).write_text(text, encoding="utf-8")
            self.task_counts[cls["class_id"]] = text.count("task ")

    def setup(self):
        """Write the inputs; returns the set-up's timing record."""
        return self.timed(self.write_inputs)

    def timed(self, fn):
        """Run fn() between two speed probes; returns its wall and reference seconds.

        The probe after one timed call is the probe before the next.  The
        garbage of earlier work is collected outside the timed region, so a
        command neither pays for it nor finds it still held when peak_rss_mb
        is read, as if it ran in a process of its own.
        """
        if self.last_probe is None:
            self.last_probe = speed_probe()
        before = self.last_probe
        gc.collect()
        t0 = perf_counter()
        result = fn()
        s = perf_counter() - t0
        self.last_probe = speed_probe()
        return {"result": result, "s": s,
                "ref_s": s * 2 * PROBE_REF_S / (before + self.last_probe)}

    # ------------------------------------------------------------------
    # spotflow commands
    # ------------------------------------------------------------------

    def _common_flags(self, classes, out, seed):
        argv = []
        for cls in classes:
            argv += ["--workflow", str(self.wf(cls))]
        p = self.plan_params
        return argv + [
            "--trace-dir", str(self.trace_dir), "--out", str(out),
            "--seed", str(seed), "--samples", str(p["samples"]),
            "--deadline-factor", repr(p["deadline_factor"]),
            "--guarantee", repr(p["guarantee"]),
        ]

    def _call(self, argv):
        from spotflow import cli

        log = io.StringIO()

        def command():
            try:
                with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                    return cli.main(argv)
            except Exception as exc:  # a raise is a failed operation, not a crash
                log.write(traceback.format_exc())
                return "raised %s" % type(exc).__name__

        op = self.timed(command)
        op["rc"] = op.pop("result")
        op["log"] = log.getvalue()
        return op

    def plan(self, classes, out):
        argv = ["plan"] + self._common_flags(classes, out, self.plan_seed) + [
            "--planner", self.plan_params["planner"],
            "--ffp-trials", str(self.plan_params["ffp_trials"]),
        ]
        max_iters = {c["max_iter"] for c in classes if "max_iter" in c}
        if max_iters:
            argv += ["--max-iter", str(max(max_iters))]
        return self._call(argv)

    def simulate(self, classes, plans, out):
        argv = ["simulate"] + self._common_flags(classes, out, self.seed) + [
            "--plans", str(plans), "--jobs", str(self.wl["simulate_jobs"]),
            "--lambda", repr(self.arrival_rate),
        ]
        return self._call(argv)

    def groups(self):
        """(name, classes) of each plan call of a pass, and of its simulate call."""
        if self.wl["calls"] == "per-class":
            return [(cls["class_id"], [cls]) for cls in self.classes]
        return [("all", self.classes)]

    def run_pass(self, out):
        """One pass: every plan call, then a simulate call per planned group."""
        ops = {}
        for who, classes in self.groups():
            ops["plan:" + who] = self.plan(classes, out / who)
        for who, classes in self.groups():
            if ops["plan:" + who]["rc"] == 0 and all(c["simulate"] for c in classes):
                ops["simulate:" + who] = self.simulate(
                    classes, out / who / "plans.json", out / who / "sim")
        for key, op in ops.items():
            kind, who = key.split(":")
            op["path"] = out / who / ("sim/report.json" if kind == "simulate" else "plans.json")
            op["digest"] = digest(op["path"]) if op["rc"] == 0 else None
        return ops

    # ------------------------------------------------------------------
    # output checks
    # ------------------------------------------------------------------

    def failure_model(self):
        from spotflow import FailureModel, load_trace

        traces = {t.id: load_trace(str(self.trace_dir / ("%s.csv" % t.name)))
                  for t in self.catalog}
        return FailureModel(traces=traces, num_trials=self.plan_params["ffp_trials"],
                            rng_seed=self.plan_seed)

    def _cache(self, job):
        from spotflow import TaskDistCache

        return TaskDistCache(job, self.catalog, self.plan_params["samples"], self.plan_seed)

    def check_plans(self, plans_path, classes, failure):
        """Re-evaluate each planned class; returns (on-demand, hybrid) cost sums."""
        from spotflow import (check_refinement, hybrid_cost, is_feasible, load_plan_cache,
                              load_workflow, plan_cost, plan_distribution)

        plans = load_plan_cache(plans_path)
        od_total = hybrid_total = 0.0
        for cls in classes:
            plan = plans[cls["class_id"]]
            job = load_workflow(str(self.wf(cls)), guarantee_p=plan.guarantee_p)
            job = job.with_deadline(plan.deadline)
            cache = self._cache(job)
            configs = plan.task_configs
            od_plan = tuple(c.ondemand_dim.type_id for c in configs)
            if not is_feasible(job, plan_distribution(job, cache, od_plan)):
                raise CheckFailed("%s: on-demand plan misses its deadline" % cls["class_id"])
            od_total += plan_cost(cache, od_plan)
            for tid, config in enumerate(configs):
                dists = [cache.dist(tid, d.type_id) for d in config.dims]
                hybrid_total += hybrid_cost(config, dists, failure)
                if config.spot_dims and not all(check_refinement(
                        tid, config, failure, cache, seed=self.plan_seed)):
                    raise CheckFailed("%s: task %d fails check_refinement"
                                      % (cls["class_id"], tid))
        return od_total, hybrid_total

    def fallback_cost(self, cls):
        """Cost of the per-task-fastest plan, or None when it misses the deadline.

        The deadline is derived as `spotflow plan` documents it:
        D_min + deadline_factor * (D_max - D_min).
        """
        from spotflow import deadline_bounds, is_feasible, load_workflow, plan_cost, \
            plan_distribution

        job = load_workflow(str(self.wf(cls)), guarantee_p=self.plan_params["guarantee"])
        d_min, d_max = deadline_bounds(job, self.catalog, n=self.plan_params["samples"],
                                       seed=self.plan_seed)
        job = job.with_deadline(d_min + self.plan_params["deadline_factor"] * (d_max - d_min))
        cache = self._cache(job)
        fastest = tuple(
            min(range(len(self.catalog)), key=lambda k: cache.dist(t.id, k).expectation())
            for t in job.tasks)
        if not is_feasible(job, plan_distribution(job, cache, fastest)):
            return None
        return plan_cost(cache, fastest)

    def check_report(self, path):
        """(jobs, hits, total cost) of a simulation report after checking it."""
        rep = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
        jobs = self.wl["simulate_jobs"]
        if rep["job_count"] != jobs or len(rep["per_job"]) != jobs:
            raise CheckFailed("%s: %d of %d jobs reported" % (path, rep["job_count"], jobs))
        if any(row["completion"] is None for row in rep["per_job"]):
            raise CheckFailed("%s: a simulated job did not complete" % path)
        if not math.isclose(sum(rep["instance_bills"]), rep["total_cost"],
                            rel_tol=1e-9, abs_tol=1e-9):
            raise CheckFailed("%s: instance bills do not sum to total_cost" % path)
        return jobs, sum(row["hit"] for row in rep["per_job"]), rep["total_cost"]

    def tasks_submitted(self, ops):
        total = 0
        for key, op in ops.items():
            if key.startswith("simulate:") and op["rc"] == 0:
                rep = json.loads(op["path"].read_text(encoding="utf-8"))
                total += sum(self.task_counts[row["class"]] for row in rep["per_job"])
        return total

    def evaluate(self, passes):
        """Check every output; returns (quality metrics, failed ops per pass, notes).

        Raises CheckFailed on a wrong output.  A plan call that exits 3
        ("infeasible") is a failed operation only when a feasible plan is
        shown to exist; otherwise the workload itself is broken.
        """
        first = passes[0]
        for i, ops in enumerate(passes[1:], start=1):
            for key, op in ops.items():
                if op["digest"] != first[key]["digest"]:
                    raise CheckFailed("%s: output of pass %d differs from pass 0" % (key, i))
        failure = self.failure_model()
        od_cost = hybrid = 0.0
        failed = 0
        notes = ["%s: exit %s, %.3f s, sha256 %s" % (key, op["rc"], op["s"], op["digest"])
                 for key, op in first.items()]
        for who, classes in self.groups():
            op = first["plan:" + who]
            if op["rc"] == 0:
                o, h = self.check_plans(op["path"], classes, failure)
                od_cost += o
                hybrid += h
                continue
            fallbacks = [self.fallback_cost(cls) for cls in classes] if op["rc"] == 3 else [None]
            if None in fallbacks:
                raise CheckFailed("plan %s failed (%s): %s" % (who, op["rc"], op["log"].strip()))
            failed += 1
            od_cost += sum(fallbacks)
            hybrid += sum(fallbacks)
            notes.append("planner defect: %s exits 3 although its per-task-fastest plan "
                         "meets the deadline (cost $%.4f)" % (who, sum(fallbacks)))
        jobs = hits = 0
        sim_cost = 0.0
        for key, op in first.items():
            if key.startswith("simulate:"):
                if op["rc"] != 0:
                    raise CheckFailed("%s failed (%s): %s" % (key, op["rc"], op["log"].strip()))
                j, h, c = self.check_report(op["path"])
                jobs, hits, sim_cost = jobs + j, hits + h, sim_cost + c
        quality = {
            "plan_cost_usd": od_cost,
            "plan_hybrid_cost_usd": hybrid,
            "sim_cost_per_job_usd": sim_cost / jobs,
            "sim_hit_rate": hits / jobs,
        }
        return quality, failed, notes


def command_seconds(passes, kind, field="ref_s"):
    """Sum over the pass's `kind` commands of each command's median over passes."""
    keys = [key for key in passes[0] if key.startswith(kind + ":")]
    return sum(statistics.median(ops[key][field] for ops in passes) for key in keys)


def measure(w, seconds, trace, class_ids):
    """Run the workload; returns (metrics by name, attempted, failed, notes).

    class_ids lists the classes that get per-class per-layer metrics.
    """
    if trace:
        from tracing import Tracer

        # A plain warm-up pass, then a traced and a plain pass of the same
        # work; the overhead compares the last two, both run warm.
        w.setup()
        warm = w.run_pass(w.work / "pass-warm")
        tracer = Tracer()
        with tracer:
            traced = w.run_pass(w.work / "pass-traced")
        plain = w.run_pass(w.work / "pass-plain")
        _, failed, notes = w.evaluate([warm, traced, plain])
        spans = ROOT / ".bench_work" / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        tracer.save(spans / ("%s-seed%d.npz" % (w.name, w.seed)))
        metrics = tracer.metrics(w.tasks_submitted(traced), class_ids)
        traced_s, plain_s = (sum(op["ref_s"] for op in ops.values()) for ops in (traced, plain))
        metrics["trace.overhead_share"] = (traced_s - plain_s) / plain_s
        return metrics, len(traced), failed, notes

    # Set-up k of n runs once k/n of the passes' time has gone by, so the
    # set-ups sample the same stretch of the run as the passes.
    n_setups = w.wl["setups"]
    setups = []

    def setup_due(until):
        while len(setups) < n_setups and until >= len(setups) * seconds / n_setups:
            setups.append(w.setup())

    passes = []
    measured = 0.0
    start = perf_counter()
    while measured < seconds and perf_counter() - start < MAX_RUN_FACTOR * seconds:
        setup_due(measured)
        t0 = perf_counter()
        passes.append(w.run_pass(w.work / ("pass-%d" % len(passes))))
        measured += perf_counter() - t0
    setup_due(math.inf)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    quality, failed, notes = w.evaluate(passes)

    def times(field):
        return {
            "setup_s": statistics.median(r[field] for r in setups),
            "plan_s": command_seconds(passes, "plan", field),
            "simulate_s": command_seconds(passes, "simulate", field),
        }

    metrics = times("ref_s")
    metrics["peak_rss_mb"] = peak_rss_mb
    metrics.update(quality)
    notes.append("%d set-ups, %d passes, %.1f s of passes" % (len(setups), len(passes), measured))
    notes.append("wall seconds: " + ", ".join("%s %.4g" % kv for kv in times("s").items()))
    return metrics, sum(len(ops) for ops in passes), failed * len(passes), notes


def main(argv=None):
    spec = json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import_program()
    sys.path.insert(0, str(BENCH))

    work = ROOT / ".bench_work" / ("%s-seed%d-%d" % (args.workload, args.seed, os.getpid()))
    w = Workload(args.workload, spec, args.seed, work)
    class_ids = list(dict.fromkeys(c["class_id"] for wl in spec["workloads"].values()
                                   for c in wl["classes"]))
    try:
        metrics, attempted, failed, notes = measure(w, args.seconds, args.trace, class_ids)
    except CheckFailed as exc:
        print("check failed: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = declared["per_layer" if args.trace else "end_to_end"]
    if sorted(m["name"] for m in wanted) != sorted(metrics):
        raise SystemExit("bench: metrics %s do not match BENCHMARK.json"
                         % sorted(set(metrics) ^ {m["name"] for m in wanted}))
    for note in notes:
        print(note)
    for m in wanted:
        print("%-45s %14.6g %s" % (m["name"], metrics[m["name"]], m["unit"]))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
