"""Golden outputs: one small fixed plan-and-simulate run, byte for byte.

Plans two classes (montage_like(4, seed=0), whose DAG is not series/parallel
reducible, and ligo_like(1, 4, seed=0), which is) with the `dyna` planner
over one seeded synthetic spiky trace per instance type, then simulates 50
jobs with the event log on.  The resulting plans.json, report.json and
events.log must equal the files in tests/data/ exactly, so a refactor that
is meant to keep outputs unchanged is checked by the test suite and not only
by the benchmark's digests.  The event log pins the simulator's event order
and tie-breaks, which the report's totals can hide.

A change that alters these outputs on purpose regenerates the files with

    PYTHONPATH=src python3 tests/test_golden.py

and says so in CHANGES.md.
"""

import hashlib
import json
import pathlib
import re
import sys
from collections import Counter

import numpy as np

from spotflow import cli, simulator
from spotflow.cloud_model import default_catalog
from spotflow.spot_market import load_trace
from spotflow.simulator import EventKind
from spotflow.workflow_dag import ligo_like, load_workflow, montage_like, save_workflow

from log_audit import check_schedule, rederive_report

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = {"plans.json": DATA / "golden_plans.json",
          "sim/report.json": DATA / "golden_report.json",
          "sim/events.log": DATA / "golden_events.log"}


def write_inputs(root):
    """Workflow files and one seeded trace per catalog type under root."""
    workflows = []
    for job in (montage_like(4, seed=0), ligo_like(1, 4, seed=0)):
        path = root / ("%s.txt" % job.class_id)
        save_workflow(job, path)
        workflows.append(path)
    trace_dir = root / "traces"
    trace_dir.mkdir()
    for itype in default_catalog():
        rng = np.random.default_rng([11, itype.id])
        prices = itype.ondemand_price * 0.4 * (1.0 + 0.1 * rng.random(500))
        prices[rng.random(500) < 0.05] = itype.ondemand_price * 3.0
        with open(trace_dir / ("%s.csv" % itype.name), "w", encoding="utf-8") as fh:
            for i, price in enumerate(prices):
                fh.write("%d,%.6f\n" % (i * 1800, price))
    return workflows, trace_dir


def run_case(root, sim_flags=()):
    """Plan and simulate the fixed case under root; returns the output dir.

    sim_flags are extra `spotflow simulate` flags.
    """
    workflows, trace_dir = write_inputs(root)
    out = root / "out"
    common = ["--trace-dir", str(trace_dir), "--seed", "5",
              "--samples", "2000", "--ffp-trials", "2000"]
    for path in workflows:
        common += ["--workflow", str(path)]
    assert cli.main(["plan", *common, "--out", str(out), "--planner", "dyna"]) == 0
    assert cli.main(["simulate", *common, "--out", str(out / "sim"),
                     "--plans", str(out / "plans.json"), "--jobs", "50", "--event-log",
                     *sim_flags]) == 0
    return out


def test_outputs_match_golden_files(tmp_path):
    out = run_case(tmp_path)
    for name, golden in GOLDEN.items():
        assert (out / name).read_bytes() == golden.read_bytes(), name


def test_immediate_release_outputs_match_pinned_digests(tmp_path):
    """The golden case under `--release-policy immediate`, byte for byte.

    The files are not kept, since the hour-boundary golden files already
    pin plans.  events.log's digest is the one this test was introduced
    with; report.json's is of the one-line compact layout, and its value
    under json.loads is the value the indented report had.
    """
    out = run_case(tmp_path, sim_flags=["--release-policy", "immediate"])
    digests = {name: hashlib.sha256((out / "sim" / name).read_bytes()).hexdigest()
               for name in ("report.json", "events.log")}
    assert digests == {
        "report.json": "d5de8e658fe0a91ae18085dab9b3e3373ceea1ea5e800031f5b54f3014439703",
        "events.log": "5c36a86a99ef1094f2745ba39395191e30ef4093d77b8f7f6b08a219e2c0bcb4",
    }
    log = (out / "sim" / "events.log").read_text(encoding="utf-8")
    assert log.count(" InstanceRelease ") == 405
    assert log.count(" OutOfBid ") == 17


def load_traces(trace_dir, catalog):
    return {itype.id: load_trace(str(trace_dir / ("%s.csv" % itype.name))) for itype in catalog}


def check_report_against_log(trace_dir, log_path, report_path, plans_path):
    """Every report field rederive_report derives equals report.json's, exactly."""
    catalog = default_catalog()
    derived = rederive_report(log_path.read_text(encoding="utf-8").splitlines(),
                              json.loads(plans_path.read_text(encoding="utf-8")),
                              catalog, load_traces(trace_dir, catalog))
    report = json.loads(report_path.read_text(encoding="utf-8"))
    for key, value in derived.items():
        assert value == report[key], key


def test_golden_bills_follow_from_the_event_log(tmp_path):
    """golden_report.json's bills, hours, per-job rows and totals, exactly, from
    golden_events.log and golden_plans.json."""
    _, trace_dir = write_inputs(tmp_path)
    check_report_against_log(trace_dir, GOLDEN["sim/events.log"], GOLDEN["sim/report.json"],
                             GOLDEN["plans.json"])


def test_immediate_release_bills_follow_from_the_event_log(tmp_path):
    out = run_case(tmp_path, sim_flags=["--release-policy", "immediate"])
    check_report_against_log(tmp_path / "traces", out / "sim" / "events.log",
                             out / "sim" / "report.json", out / "plans.json")


def check_schedule_against_plans(root, log_path, plans_path):
    """check_schedule over the workflow files and traces write_inputs left under root."""
    workflows = [load_workflow(str(path)) for path in sorted(root.glob("*.txt"))]
    catalog = default_catalog()
    check_schedule(log_path.read_text(encoding="utf-8").splitlines(),
                   {job.class_id: job for job in workflows},
                   json.loads(plans_path.read_text(encoding="utf-8")),
                   catalog, load_traces(root / "traces", catalog))


def test_golden_schedule_follows_the_dags_plans_and_traces(tmp_path):
    """golden_events.log keeps precedence, restarts, out-of-bid times and reuse bids."""
    write_inputs(tmp_path)
    check_schedule_against_plans(tmp_path, GOLDEN["sim/events.log"], GOLDEN["plans.json"])


def test_immediate_release_schedule_follows_the_dags_plans_and_traces(tmp_path):
    out = run_case(tmp_path, sim_flags=["--release-policy", "immediate"])
    check_schedule_against_plans(tmp_path, out / "sim" / "events.log", out / "plans.json")


def test_plan_stdout_matches_golden_lines(tmp_path, capsys):
    """`spotflow plan` prints one line per class and the cache path; wall time masked."""
    out = run_case(tmp_path)
    lines = capsys.readouterr().out.splitlines()
    plan_lines = [re.sub(r", [0-9.]+ s$", ", <wall> s", line) for line in lines
                  if line.startswith(("planned ", "plan cache written"))]
    assert plan_lines == [
        "planned montage-like-4: 15 tasks, est. cost $0.1663, 14 spot dims, <wall> s",
        "planned ligo-like-1x4: 7 tasks, est. cost $0.1868, 6 spot dims, <wall> s",
        "plan cache written to %s" % (out / "plans.json"),
    ]


def test_golden_event_log_covers_interruptions_and_reuse():
    """The pinned run exercises out-of-bid kills, restarts and reuse."""
    log = (DATA / "golden_events.log").read_text(encoding="utf-8")
    assert " OutOfBid " in log
    assert " InstanceReuse " in log
    assert " attempt=1 " in log


def test_golden_run_pushes_one_release_event_per_paid_hour(tmp_path, monkeypatch):
    """An instance idled again within its paid hour shares that hour's release event.

    The golden run idles instances 551 times; before releases were pushed
    once per paid hour it pushed 550 release events, 476 of them void.
    """
    pushed = Counter()
    push = simulator.heappush

    def counting_push(heap, entry):
        pushed[entry[1]] += 1
        push(heap, entry)

    monkeypatch.setattr(simulator, "heappush", counting_push)
    run_case(tmp_path)
    assert pushed[EventKind.INSTANCE_RELEASE] == 117
    assert sum(pushed.values()) == 879


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        out = run_case(pathlib.Path(tmp))
        DATA.mkdir(exist_ok=True)
        for name, golden in GOLDEN.items():
            golden.write_bytes((out / name).read_bytes())
            print("wrote %s" % golden, file=sys.stderr)
