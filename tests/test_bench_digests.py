"""The benchmark's plan-refine outputs at seed 1, byte for byte.

Writes the plan-refine workload's seed-1 inputs with bench/inputs.py and
the parameters in bench/workloads.json (both only read), runs `spotflow
plan` and `spotflow simulate` with the workload's flags, and checks the
sha256 of plans.json and report.json.  The case is a 51-task class at
10,000 samples, where a last-bit shift in a refinement cost can flip a gate
that the 2,000-sample golden case never reaches.

A change that alters these outputs on purpose takes the new digests from

    python3 bench/run.py --workload plan-refine --seed 1 --seconds 1

and says so in CHANGES.md, as for the golden files.
"""

import hashlib
import json
import pathlib
import sys

from spotflow import cli
from spotflow.cloud_model import default_catalog

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
SEED = 1
DIGESTS = {
    "plans.json": "019bc8d5329ab7024e24b0aa00ee762188b296ee3dfb91aea17fa1db924dc276",
    "sim/report.json": "dcd2e3ab1a2f9743baded4c5a0800c270d26b782bd9a6d242f0556fd2e7b5acd",
}


def test_plan_refine_outputs_match_the_benchmark_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "inputs", raising=False)
    import inputs

    spec = json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))
    workload = spec["workloads"]["plan-refine"]
    trace_dir = tmp_path / "traces"
    trace_dir.mkdir()
    for itype in default_catalog():
        (trace_dir / ("%s.csv" % itype.name)).write_text(
            inputs.trace_text(SEED, itype.name, itype.ondemand_price, spec["trace"]),
            encoding="utf-8")
    workflows = []
    for cls in workload["classes"]:
        path = tmp_path / ("%s.wf" % cls["class_id"])
        path.write_text(inputs.workflow_text(cls["shape"], cls["params"], cls["generator_seed"]),
                        encoding="utf-8")
        workflows += ["--workflow", str(path)]
    params = dict(spec["plan_defaults"], deadline_factor=workload["deadline_factor"])
    out = tmp_path / "out"

    def common(seed):
        return workflows + ["--trace-dir", str(trace_dir), "--seed", str(seed),
                            "--samples", str(params["samples"]),
                            "--deadline-factor", repr(params["deadline_factor"]),
                            "--guarantee", repr(params["guarantee"])]

    assert cli.main(["plan", *common(spec["plan_seed"]), "--out", str(out),
                     "--planner", params["planner"],
                     "--ffp-trials", str(params["ffp_trials"])]) == 0
    assert cli.main(["simulate", *common(SEED), "--out", str(out / "sim"),
                     "--plans", str(out / "plans.json"),
                     "--jobs", str(workload["simulate_jobs"]),
                     "--lambda", repr(spec["simulate_defaults"]["arrival_rate_per_min"])]) == 0
    capsys.readouterr()
    for name, want in DIGESTS.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == want, name
