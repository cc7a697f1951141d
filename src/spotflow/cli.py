"""Command-line driver for planning, simulation and failure-model inspection.

Subcommands:

  plan      build per-task instance configurations for workflow classes and
            write them to a plan-cache file
  simulate  replay a workload against a plan cache on a price trace and
            report cost / makespan / deadline-hit metrics
  ffp       tabulate the cumulative first-failure probability of a spot
            (type, bid) pair over elapsed time

Flags can also be supplied through a JSON spec file (--spec); explicit
command-line flags take precedence over spec-file values.
"""

import argparse
import json
import math
import pathlib
import sys
import time
import typing
from dataclasses import dataclass, field, fields

from . import cloud_model, planner_astar, planner_hybrid, simulator, spot_market, workflow_dag
from .cloud_model import CLOCK_BOUND

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_MISMATCH = 4

# Bad input or configuration, exit EXIT_PARSE.  CatalogError, TraceError
# and WorkflowError are all ValueErrors; a MemoryError is a count too
# large to allocate (--samples, --jobs, --ffp-trials).
PARSE_ERRORS = (ValueError, OSError, MemoryError)

SPOT_ONLY_BID = 1000.0  # effectively never out-of-bid

PLANNERS = ("dyna", "dyna-ns", "spot-only")


@dataclass
class ExperimentSpec:
    """Resolved experiment parameters shared by the subcommands."""

    catalog: str | None = None          # None -> built-in default catalog
    trace_dir: str | None = None
    workflows: list = field(default_factory=list)
    guarantee: float = 0.96
    deadline: float | None = None       # explicit deadline in seconds
    deadline_factor: float = 0.5        # else D_min + factor * (D_max - D_min)
    arrival_rate: float = 0.1           # jobs per minute
    jobs: int = 100
    seed: int = 0
    planner: str = "dyna"
    out: str = "."
    samples: int = 10_000
    ffp_trials: int = 10_000
    max_iter: int = 10_000
    release_policy: str = "hour-boundary"
    event_log: bool = False
    baseline: str | None = None

    def __post_init__(self):
        for f in fields(self):  # spec files can hold any JSON value
            value = getattr(self, f.name)
            types = typing.get_args(f.type) or (f.type,)
            if (not isinstance(value, types + ((int,) if float in types else ()))
                    or isinstance(value, bool) and bool not in types
                    or f.type is list and not all(isinstance(v, str) for v in value)):
                raise ValueError("%s must be %s, got %r"
                                 % (f.name, " or ".join(t.__name__ for t in types), value))
            if float in types and isinstance(value, int):  # checked as the float it is used as
                try:
                    setattr(self, f.name, float(value))
                except OverflowError:
                    raise ValueError("%s must be within the float range, got an integer"
                                     " too large for a float" % f.name) from None
        if self.planner not in PLANNERS:
            raise ValueError("planner must be one of %s" % (PLANNERS,))
        if not 0 < self.arrival_rate < math.inf:
            raise ValueError("arrival_rate must be positive and finite, got %r"
                             % self.arrival_rate)
        if not 0.0 < self.guarantee <= 1.0:
            raise ValueError("guarantee must be in (0, 1]")
        if self.samples < 2:
            raise ValueError("samples must be >= 2, got %d" % self.samples)
        for name in ("max_iter", "ffp_trials", "jobs"):
            if getattr(self, name) < 1:
                raise ValueError("%s must be >= 1, got %d" % (name, getattr(self, name)))
        if not math.isfinite(self.deadline_factor):
            raise ValueError("deadline_factor must be finite, got %r" % self.deadline_factor)
        if self.deadline is not None and not 0 < self.deadline < CLOCK_BOUND:
            raise ValueError("deadline must be in (0, %g) s, got %r" % (CLOCK_BOUND, self.deadline))

    def load_catalog(self):
        if self.catalog is None:
            return cloud_model.default_catalog()
        return cloud_model.load_catalog(self.catalog)

    def load_traces(self, catalog, type_ids=None):
        """Traces keyed by type id, from <trace_dir>/<type name>.csv files:
        of every catalog type, or only of the types in `type_ids`."""
        traces = {}
        if self.trace_dir is None:
            return traces
        root = pathlib.Path(self.trace_dir)
        if not root.is_dir():
            raise ValueError("trace_dir %s is not a directory" % root)
        for itype in catalog:
            if type_ids is not None and itype.id not in type_ids:
                continue
            path = root / ("%s.csv" % itype.name)
            if path.exists():
                traces[itype.id] = spot_market.load_trace(str(path))
        return traces

    def load_workflows(self):
        """The workflow classes, without deadlines; class ids must differ."""
        if not self.workflows:
            raise ValueError("no workflow files given")
        jobs = {}  # class id -> (path, job)
        for path in self.workflows:
            job = workflow_dag.load_workflow(path, guarantee_p=self.guarantee)
            if job.class_id in jobs:
                raise ValueError("workflow class %r is defined twice: by %s and by %s"
                                 % (job.class_id, jobs[job.class_id][0], path))
            jobs[job.class_id] = (path, job)
        return [job for _, job in jobs.values()]


def _spec_from_args(args):
    values = {}
    if getattr(args, "spec", None):
        doc = planner_astar.read_json(args.spec)
        if not isinstance(doc, dict):
            raise ValueError("%s: spec must be a JSON object, got %s"
                             % (args.spec, type(doc).__name__))
        unknown = sorted(set(doc) - set(ExperimentSpec.__dataclass_fields__))
        if unknown:
            raise ValueError("%s: unknown spec key(s): %s" % (args.spec, ", ".join(unknown)))
        values.update(doc)
    for key in ExperimentSpec.__dataclass_fields__:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            values[key] = flag_value
    return ExperimentSpec(**values)


def _add_common_flags(p):
    p.add_argument("--spec", help="JSON file of experiment parameters")
    p.add_argument("--catalog", help="instance catalog CSV (default: built-in)")
    p.add_argument("--trace-dir", dest="trace_dir", help="directory of <type>.csv price traces")
    p.add_argument("--workflow", dest="workflows", action="append",
                   help="workflow file; repeat for a class mix")
    p.add_argument("--guarantee", type=float, help="probabilistic deadline guarantee p")
    p.add_argument("--deadline", type=float, help="explicit deadline in seconds")
    p.add_argument("--deadline-factor", dest="deadline_factor", type=float,
                   help="deadline position within [D_min, D_max]")
    p.add_argument("--lambda", dest="arrival_rate", type=float, help="job arrivals per minute")
    p.add_argument("--jobs", type=int, help="number of jobs to simulate")
    p.add_argument("--seed", type=int)
    p.add_argument("--planner", choices=PLANNERS)
    p.add_argument("--out", help="output directory")
    p.add_argument("--samples", type=int, help="Monte Carlo sample count for distributions")
    p.add_argument("--ffp-trials", dest="ffp_trials", type=int)
    p.add_argument("--max-iter", dest="max_iter", type=int,
                   help="search iteration budget per workflow class")
    p.add_argument("--release-policy", dest="release_policy",
                   choices=("hour-boundary", "immediate"))
    p.add_argument("--event-log", dest="event_log", action="store_const", const=True)
    p.add_argument("--baseline", help="report JSON to normalize against")


def _out_dir(spec):
    out = pathlib.Path(spec.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _failure_model(spec, catalog, type_ids=None):
    """The failure model over trace_dir's traces (without any: no spot market)."""
    return spot_market.FailureModel(traces=spec.load_traces(catalog, type_ids),
                                    num_trials=spec.ffp_trials, rng_seed=spec.seed)


def plan_class(spec, job, catalog, failure):
    """Plan one workflow class: its deadline, the on-demand search, then the
    task configs (spot refinement against `failure`, or against a failure
    model without traces for dyna-ns, or fixed-bid spot for spot-only).
    Returns the JobPlan and the on-demand plan's expected cost; raises
    InfeasiblePlanError, or one of PARSE_ERRORS for bad input.
    """
    cache = planner_astar.TaskDistCache(job, catalog, spec.samples, spec.seed)
    deadline = spec.deadline
    if deadline is None:
        d_min, d_max = workflow_dag.deadline_bounds(job, catalog, cache=cache)
        deadline = d_min + spec.deadline_factor * (d_max - d_min)
        if not 0 < deadline < CLOCK_BOUND:
            raise workflow_dag.WorkflowError(
                "deadline factor %r between D_min %g s and D_max %g s gives deadline %g s,"
                " which is not in (0, %g) s"
                % (spec.deadline_factor, d_min, d_max, deadline, CLOCK_BOUND))
    job = job.with_deadline(float(deadline))
    plan = planner_astar.astar_configure(
        job, catalog, params=planner_astar.AStarParams(max_iter=spec.max_iter), cache=cache)
    if spec.planner == "spot-only":
        # simulate replays a trace for every spot type a plan uses.
        for type_id in plan:
            if not failure.has_trace(type_id):
                raise spot_market.TraceError("no trace for type %s" % catalog[type_id].name)
        # High fixed bid: spot execution with an (unreachable) on-demand
        # fallback dimension retained as the completion guarantee.
        configs = [
            workflow_dag.HybridConfig((
                workflow_dag.ConfigDim(type_id, SPOT_ONLY_BID, True),
                workflow_dag.ConfigDim(type_id, catalog[type_id].ondemand_price, False),
            ))
            for type_id in plan
        ]
    else:  # dyna-ns is dyna without a spot market: tasks stay on demand.
        if spec.planner == "dyna-ns":
            failure = spot_market.FailureModel(traces={})
        configs = planner_hybrid.refine_plan(job, plan, failure, cache)
    job_plan = planner_astar.JobPlan(job.class_id, job.deadline, job.guarantee_p, configs)
    return job_plan, planner_astar.plan_cost(cache, tuple(plan))


def cmd_plan(spec):
    """Plan each class and write the plans of those that planned.

    A class with bad input gets one `error: class <id>: ...` line and a
    class without a feasible plan one `infeasible:` line; neither stops
    the other classes.  Exits 2 if any class had bad input, else 3 if any
    was infeasible, else 0.
    """
    catalog = spec.load_catalog()
    jobs = spec.load_workflows()
    # dyna-ns plans without a spot market, so it reads no trace.
    failure = (spot_market.FailureModel(traces={}) if spec.planner == "dyna-ns"
               else _failure_model(spec, catalog))
    out = _out_dir(spec)
    plans = {}
    bad_input = infeasible = 0
    for job in jobs:
        t0 = time.perf_counter()
        try:
            job_plan, est_cost = plan_class(spec, job, catalog, failure)
        except planner_astar.InfeasiblePlanError as exc:
            print("infeasible: %s" % exc, file=sys.stderr)
            infeasible += 1
            continue
        except PARSE_ERRORS as exc:
            print("error: class %s: %s" % (job.class_id, exc), file=sys.stderr)
            bad_input += 1
            continue
        wall = time.perf_counter() - t0
        plans[job.class_id] = job_plan
        spot_dims = sum(len(c.spot_dims) for c in job_plan.task_configs)
        print("planned %s: %d tasks, est. cost $%.4f, %d spot dims, %.2f s"
              % (job.class_id, len(job.tasks), est_cost, spot_dims, wall))
    if plans:
        cache_path = out / "plans.json"
        planner_astar.save_plan_cache(plans, cache_path)
        print("plan cache written to %s" % cache_path)
    if bad_input:
        return EXIT_PARSE
    return EXIT_INFEASIBLE if infeasible else EXIT_OK


def _load_baseline(path):
    """(avg_cost_per_job, hit_rate) of a baseline report.json."""
    doc = planner_astar.read_json(path)
    cost, hit_rate = (doc.get(key) if isinstance(doc, dict) else None
                      for key in ("avg_cost_per_job", "hit_rate"))
    if not (0 < planner_astar.json_number(cost) < math.inf
            and 0 <= planner_astar.json_number(hit_rate) <= 1):
        raise ValueError("%s: baseline avg_cost_per_job must be positive and finite and hit_rate"
                         " in [0, 1], got %r and %r" % (path, cost, hit_rate))
    return float(cost), float(hit_rate)


def cmd_simulate(spec, plans_path=None):
    """Replay the workload against the plan cache and write the report.

    Only the <type>.csv traces of the types the simulated classes' plans
    bid on (their spot dimensions) are read; no other trace file is opened.
    A simulated plan that bids on a type without a trace exits 4.
    """
    baseline = _load_baseline(spec.baseline) if spec.baseline else None
    catalog = spec.load_catalog()
    jobs = spec.load_workflows()  # hits are scored against the plan-cache deadlines
    out = _out_dir(spec)
    path = pathlib.Path(plans_path) if plans_path else out / "plans.json"
    plans = planner_astar.load_plan_cache(path)
    config = simulator.SimConfig(
        arrival_rate_per_min=spec.arrival_rate,
        job_count=spec.jobs,
        seed=spec.seed,
        idle_release_policy=spec.release_policy,
        collect_event_log=spec.event_log,
    )
    bid_on = {dim.type_id for job in jobs if job.class_id in plans
              for config in plans[job.class_id].task_configs for dim in config.spot_dims}
    traces = spec.load_traces(catalog, bid_on)
    sim = simulator.Simulator(config, jobs, plans, catalog, traces)
    rep = sim.run()

    (out / "report.json").write_text(rep.to_json(), encoding="utf-8")
    if spec.event_log:
        (out / "events.log").write_text("\n".join(sim.event_log) + "\n", encoding="utf-8")
    if baseline is not None:
        ratios = {
            "avg_cost_ratio": rep.avg_cost_per_job / baseline[0],
            "hit_rate_delta": rep.hit_rate - baseline[1],
        }
        (out / "normalized.json").write_text(
            json.dumps(ratios, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print("simulated %d jobs: hit rate %.4f, avg cost $%.4f, avg makespan %.0f s"
          % (rep.job_count, rep.hit_rate, rep.avg_cost_per_job, rep.avg_makespan_s))
    print("report written to %s" % (out / "report.json"))
    return EXIT_OK


def cmd_ffp(spec, type_name, bid):
    catalog = spec.load_catalog()
    itype = catalog.by_name(type_name)
    model = _failure_model(spec, catalog, {itype.id})
    if not model.has_trace(itype.id):
        raise spot_market.TraceError("no trace for type %s" % type_name)
    dist = spot_market.estimate_ffp(model, itype.id, bid)
    out = _out_dir(spec)
    shares = dist.failed_before
    with open(out / "ffp.csv", "w", encoding="utf-8") as fh:
        fh.write("t_seconds,cumulative_failure\n")
        for k, p in enumerate(shares):
            fh.write("%.0f,%.6f\n" % (k * spot_market.STEP, p))
    print("type %s bid %.4f: failure mass %.4f, no-failure mass %.4f"
          % (type_name, bid, shares[-1], 1.0 - shares[-1]))
    print("table written to %s" % (out / "ffp.csv"))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spotflow",
        description="Workflow planning and cloud simulation with probabilistic deadlines",
    )
    common = argparse.ArgumentParser(add_help=False)
    _add_common_flags(common)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("plan", parents=[common], help="build and cache instance configurations")

    p_sim = sub.add_parser("simulate", parents=[common],
                           help="simulate a workload against a plan cache")
    p_sim.add_argument("--plans", help="plan-cache file (default: <out>/plans.json)")

    p_ffp = sub.add_parser("ffp", parents=[common],
                           help="tabulate cumulative failure probability")
    p_ffp.add_argument("type_name", help="instance type name, e.g. m1.small")
    p_ffp.add_argument("bid", type=float, help="bid price in USD/hour")

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = _spec_from_args(args)
        if args.command == "plan":
            return cmd_plan(spec)
        if args.command == "simulate":
            return cmd_simulate(spec, getattr(args, "plans", None))
        return cmd_ffp(spec, args.type_name, args.bid)
    except simulator.PlanMismatchError as exc:
        print("mismatch: %s" % exc, file=sys.stderr)
        return EXIT_MISMATCH
    except PARSE_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
