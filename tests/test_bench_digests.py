"""The benchmark's outputs at seed 1, byte for byte.

Writes each workload's seed-1 inputs with bench/inputs.py and the
parameters in bench/workloads.json (both only read), runs `spotflow plan`
and `spotflow simulate` with the flags bench/run.py uses, and checks the
sha256 of plans.json and report.json.  plan-refine is a 51-task class at
10,000 samples, where a last-bit shift in a refinement cost can flip a gate
that the 2,000-sample golden case never reaches; plan-search pins the
search's plans (its epigenomics-like-2x4 class exits 3 at its 100-iteration
budget, and its stderr diagnosis is pinned too), and simulate pins a
1,000-job run over two classes planned in one call.

A change that alters these outputs on purpose takes the new digests from

    python3 bench/run.py --workload W --seed 1 --seconds 1

and says so in CHANGES.md, as for the golden files.
"""

import hashlib
import json
import pathlib
import sys

import pytest

from spotflow import cli, planner_astar
from spotflow.cloud_model import default_catalog

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
SEED = 1
DIGESTS = {
    "plans.json": "019bc8d5329ab7024e24b0aa00ee762188b296ee3dfb91aea17fa1db924dc276",
    "sim/report.json": "dcd2e3ab1a2f9743baded4c5a0800c270d26b782bd9a6d242f0556fd2e7b5acd",
}
# Per plan call: the plan exit code, the digests of its outputs and its
# stderr (the search's diagnosis when it exits 3).
PLAN_SEARCH = {
    "ligo-like-1x4": (0, {
        "plans.json": "921e7a1f75b3ca61861f585cc31133a34762dc64f57aedb0cfcd286dadd5204d",
        "sim/report.json": "0206af6fc11fec2a395626c57dd56eef9b362fea67c42b27556f9633740ab875",
    }, ""),
    "montage-like-4": (0, {
        "plans.json": "96c39b98d19b61cfcebfbe0ccca555162e1202ae138a50dc0e0ef0d4083642f5",
        "sim/report.json": "d46fabaf8ad15b4972be532506532c43c8323da96c9f734ae2c0f0f5034e82ca",
    }, ""),
    "epigenomics-like-2x4": (cli.EXIT_INFEASIBLE, {}, (
        "infeasible: no feasible plan for 'epigenomics-like-2x4' (budget of 100 iterations"
        " exhausted): lower bound 2694.3 s vs deadline 11310.5 s\n")),
}
SIMULATE = {
    "plans.json": "de5125fd180b607ad4962fa9a502c07efd7a161fe99f53d2d7b4bb46abf62e51",
    "sim/report.json": "d55d3805fb5bb063d64df76e9964a0b07fa1ebfd04ac7482e645e424cd7f0c07",
}


class Bench:
    """One workload's seed-1 inputs and its spotflow calls, as bench/run.py makes them."""

    def __init__(self, name, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(BENCH))
        monkeypatch.delitem(sys.modules, "inputs", raising=False)
        import inputs

        self.spec = json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))
        self.workload = self.spec["workloads"][name]
        self.trace_dir = tmp_path / "traces"
        self.trace_dir.mkdir()
        for itype in default_catalog():
            (self.trace_dir / ("%s.csv" % itype.name)).write_text(
                inputs.trace_text(SEED, itype.name, itype.ondemand_price, self.spec["trace"]),
                encoding="utf-8")
        self.paths = {}
        for cls in self.workload["classes"]:
            path = tmp_path / ("%s.wf" % cls["class_id"])
            path.write_text(inputs.workflow_text(cls["shape"], cls["params"],
                                                 cls["generator_seed"]), encoding="utf-8")
            self.paths[cls["class_id"]] = path
        self.params = dict(self.spec["plan_defaults"],
                           deadline_factor=self.workload.get(
                               "deadline_factor", self.spec["plan_defaults"]["deadline_factor"]))

    def common(self, classes, seed):
        argv = []
        for cls in classes:
            argv += ["--workflow", str(self.paths[cls["class_id"]])]
        return argv + ["--trace-dir", str(self.trace_dir), "--seed", str(seed),
                       "--samples", str(self.params["samples"]),
                       "--deadline-factor", repr(self.params["deadline_factor"]),
                       "--guarantee", repr(self.params["guarantee"])]

    def plan(self, classes, out):
        argv = ["plan", *self.common(classes, self.spec["plan_seed"]), "--out", str(out),
                "--planner", self.params["planner"],
                "--ffp-trials", str(self.params["ffp_trials"])]
        max_iters = {c["max_iter"] for c in classes if "max_iter" in c}
        if max_iters:
            argv += ["--max-iter", str(max(max_iters))]
        return cli.main(argv)

    def simulate(self, classes, out):
        return cli.main(["simulate", *self.common(classes, SEED), "--out", str(out / "sim"),
                         "--plans", str(out / "plans.json"),
                         "--jobs", str(self.workload["simulate_jobs"]),
                         "--lambda",
                         repr(self.spec["simulate_defaults"]["arrival_rate_per_min"])])


def assert_digests(out, digests):
    for name, want in digests.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == want, name


def test_plan_refine_outputs_match_the_benchmark_digests(tmp_path, monkeypatch, capsys):
    bench = Bench("plan-refine", tmp_path, monkeypatch)
    classes = bench.workload["classes"]
    out = tmp_path / "out"
    assert bench.plan(classes, out) == 0
    assert bench.simulate(classes, out) == 0
    capsys.readouterr()
    assert_digests(out, DIGESTS)


@pytest.mark.parametrize("class_id", sorted(PLAN_SEARCH))
def test_plan_search_outputs_match_the_benchmark_digests(class_id, tmp_path, monkeypatch,
                                                         capsys):
    bench = Bench("plan-search", tmp_path, monkeypatch)
    (cls,) = [c for c in bench.workload["classes"] if c["class_id"] == class_id]
    want_rc, digests, want_err = PLAN_SEARCH[class_id]
    out = tmp_path / "out"
    assert bench.plan([cls], out) == want_rc
    if want_rc == 0:
        assert cls["simulate"]
        assert bench.simulate([cls], out) == 0
    else:
        assert not (out / "plans.json").exists()
    assert capsys.readouterr().err == want_err
    assert_digests(out, digests)


def test_simulate_outputs_match_the_benchmark_digests(tmp_path, monkeypatch, capsys):
    bench = Bench("simulate", tmp_path, monkeypatch)
    classes = bench.workload["classes"]
    out = tmp_path / "out"
    assert bench.plan(classes, out) == 0
    assert bench.simulate(classes, out) == 0
    capsys.readouterr()
    assert_digests(out, SIMULATE)


def test_epigenomics_search_screens_most_pops(tmp_path, monkeypatch, capsys):
    # The prefix screen, with the deadline as its bar, decides all 100 of
    # the class's pops, so none gets a full evaluation.
    bench = Bench("plan-search", tmp_path, monkeypatch)
    (cls,) = [c for c in bench.workload["classes"] if c["class_id"] == "epigenomics-like-2x4"]
    runs, full_evals = [], []
    search, evaluate = planner_astar.astar_configure, planner_astar.plan_distribution

    def recording_search(*args, **kwargs):
        runs.append(kwargs.setdefault("stats", planner_astar.SearchStats()))
        return search(*args, **kwargs)

    def counting_evaluate(*args):
        full_evals.append(args[2])
        return evaluate(*args)

    monkeypatch.setattr(planner_astar, "astar_configure", recording_search)
    monkeypatch.setattr(planner_astar, "plan_distribution", counting_evaluate)
    assert bench.plan([cls], tmp_path / "out") == cli.EXIT_INFEASIBLE
    capsys.readouterr()
    (stats,) = runs
    assert stats.iterations == 100 == stats.screened
    assert full_evals == []
