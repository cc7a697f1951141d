"""The benchmark's outputs at seed 1, byte for byte.

Imports bench/run.py (only read) and runs its own commands: each workload's
seed-1 inputs are written by `Workload.write_inputs` and one pass by
`Workload.run_pass`, so the flags checked here are the ones the benchmark
passes.  Each operation's exit code, its log and the sha256 of its output
(plans.json of a plan call, report.json of a simulate call) are checked,
and a failed operation must write no output.  plan-refine is a 51-task
class at 10,000 samples, where a last-bit shift in a refinement cost can
flip a gate that the 2,000-sample golden case never reaches; plan-search
pins the search's plans (its epigenomics-like-2x4 class exits 3 at its
100-iteration budget, with its diagnosis as its log), and simulate pins a
1,000-job run over two classes planned in one call.

A change that alters these outputs on purpose takes the new digests from

    python3 bench/run.py --workload W --seed 1 --seconds 1

and the new logs from this test's failure report, and says so in
CHANGES.md, as for the golden files.
"""

import json
import pathlib
import re
import sys

import pytest

from spotflow import cli, planner_astar

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
SEED = 1
# (exit code, output sha256, log) of each operation of a seed-1 pass, keyed
# as Workload.run_pass keys them.  The log is the command's stdout and
# stderr, with the pass's output directory written <out> and a plan's wall
# time <wall>.
PASSES = {
    "plan-refine": {
        "plan:montage-like-16": (
            0, "019bc8d5329ab7024e24b0aa00ee762188b296ee3dfb91aea17fa1db924dc276",
            "planned montage-like-16: 51 tasks, est. cost $0.3916, 51 spot dims, <wall> s\n"
            "plan cache written to <out>/montage-like-16/plans.json\n"),
        "simulate:montage-like-16": (
            0, "87bbdf63f5460edb4484bc5c987d49e5fd559fde28660b337603154bae01afa6",
            "simulated 200 jobs: hit rate 1.0000, avg cost $0.5552, avg makespan 2901 s\n"
            "report written to <out>/montage-like-16/sim/report.json\n"),
    },
    "plan-search": {
        "plan:ligo-like-1x4": (
            0, "921e7a1f75b3ca61861f585cc31133a34762dc64f57aedb0cfcd286dadd5204d",
            "planned ligo-like-1x4: 7 tasks, est. cost $0.2486, 6 spot dims, <wall> s\n"
            "plan cache written to <out>/ligo-like-1x4/plans.json\n"),
        "simulate:ligo-like-1x4": (
            0, "53778ac2fbe7c1b3c73fe374242c041b8a2ebc223d155f12ae8730ecee5252ee",
            "simulated 300 jobs: hit rate 1.0000, avg cost $0.4026, avg makespan 2828 s\n"
            "report written to <out>/ligo-like-1x4/sim/report.json\n"),
        "plan:montage-like-4": (
            0, "96c39b98d19b61cfcebfbe0ccca555162e1202ae138a50dc0e0ef0d4083642f5",
            "planned montage-like-4: 15 tasks, est. cost $0.1588, 15 spot dims, <wall> s\n"
            "plan cache written to <out>/montage-like-4/plans.json\n"),
        "simulate:montage-like-4": (
            0, "85df737fa5905dd23abcccca659c7209bd98ce52c588f7b1ea2f604aa04cdc46",
            "simulated 300 jobs: hit rate 0.9533, avg cost $0.2179, avg makespan 2547 s\n"
            "report written to <out>/montage-like-4/sim/report.json\n"),
        "plan:epigenomics-like-2x4": (
            cli.EXIT_INFEASIBLE, None,
            "infeasible: no feasible plan for 'epigenomics-like-2x4' (budget of 100 iterations"
            " exhausted): lower bound 2694.3 s vs deadline 11310.5 s\n"),
    },
    "simulate": {
        "plan:all": (
            0, "de5125fd180b607ad4962fa9a502c07efd7a161fe99f53d2d7b4bb46abf62e51",
            "planned montage-like-4: 15 tasks, est. cost $0.1588, 15 spot dims, <wall> s\n"
            "planned montage-like-8: 27 tasks, est. cost $0.2917, 26 spot dims, <wall> s\n"
            "plan cache written to <out>/all/plans.json\n"),
        "simulate:all": (
            0, "d81dec1d083a305b190786b0389b1cad8f3258aedca320bdc013932c6d2c1086",
            "simulated 1000 jobs: hit rate 0.9790, avg cost $0.3361, avg makespan 3152 s\n"
            "report written to <out>/all/sim/report.json\n"),
    },
}


@pytest.fixture
def bench_run(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import run
    yield run
    for name in ("run", "inputs"):
        sys.modules.pop(name, None)


def workload(bench_run, name, work, class_id=None):
    """The workload at seed 1 with its inputs written, or only its class `class_id`."""
    spec = json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))
    if class_id is not None:
        wl = spec["workloads"][name]
        wl["classes"] = [c for c in wl["classes"] if c["class_id"] == class_id]
    w = bench_run.Workload(name, spec, SEED, work)
    w.write_inputs()
    return w


def check_pass(w, out, want):
    """Run one pass into `out` and check it against `want`, as PASSES pins it.

    An operation that fails must leave no output file.
    """
    ops = w.run_pass(out)
    got = {key: (op["rc"], op["digest"],
                 re.sub(r"spot dims, [\d.]+ s$", "spot dims, <wall> s",
                        op["log"].replace(str(out), "<out>"), flags=re.M))
           for key, op in ops.items()}
    assert got == want, "".join(op["log"] for op in ops.values())
    assert [key for key, op in ops.items() if op["rc"] != 0 and op["path"].exists()] == []


def test_plan_refine_outputs_match_the_benchmark_digests(bench_run, tmp_path):
    check_pass(workload(bench_run, "plan-refine", tmp_path), tmp_path / "out",
               PASSES["plan-refine"])


@pytest.mark.parametrize("class_id", ["epigenomics-like-2x4", "ligo-like-1x4",
                                      "montage-like-4"])
def test_plan_search_outputs_match_the_benchmark_digests(class_id, bench_run, tmp_path):
    check_pass(workload(bench_run, "plan-search", tmp_path, class_id), tmp_path / "out",
               {key: want for key, want in PASSES["plan-search"].items()
                if key.endswith(":" + class_id)})


def test_simulate_outputs_match_the_benchmark_digests(bench_run, tmp_path):
    check_pass(workload(bench_run, "simulate", tmp_path), tmp_path / "out",
               PASSES["simulate"])


def test_epigenomics_search_screens_most_pops(bench_run, tmp_path, monkeypatch):
    # The prefix screen, with the deadline as its bar, decides all 100 of
    # the class's pops, so none gets a full evaluation.
    w = workload(bench_run, "plan-search", tmp_path, "epigenomics-like-2x4")
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
    assert w.plan(w.classes, tmp_path / "out")["rc"] == cli.EXIT_INFEASIBLE
    (stats,) = runs
    assert stats.iterations == 100 == stats.screened
    assert full_evals == []
