import dataclasses
import json
import math
import pathlib
import shutil
import sys
import warnings

import pytest

from spotflow import cli, planner_astar, workflow_dag
from spotflow.cloud_model import CLOCK_BOUND, Catalog, GammaSpec
from spotflow.planner_astar import TaskDistCache, load_plan_cache, plan_distribution
from spotflow.workflow_dag import save_workflow

from conftest import (chain_job, cpu_profile, mixed_profile, ordered_catalog, save_catalog,
                      stable_trace)

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def workspace(tmp_path):
    """Catalog, 2-task workflow and a stable type-0 trace on disk."""
    cat = ordered_catalog(2)
    catalog_path = tmp_path / "catalog.csv"
    save_catalog(cat, catalog_path)

    job = chain_job([cpu_profile(600.0), cpu_profile(300.0)], class_id="toy")
    wf_path = tmp_path / "toy.txt"
    save_workflow(job, wf_path)

    trace_dir = tmp_path / "traces"
    trace_dir.mkdir()
    trace = stable_trace(0.024, hours=400)
    with open(trace_dir / "t0.csv", "w") as fh:
        for t, p in zip(trace.timestamps, trace.prices):
            fh.write("%d,%.5f\n" % (t, p))

    out = tmp_path / "out"
    return {
        "catalog": str(catalog_path),
        "workflow": str(wf_path),
        "trace_dir": str(trace_dir),
        "out": str(out),
        "tmp": tmp_path,
    }


def base_args(ws, *extra):
    return ["--catalog", ws["catalog"], "--workflow", ws["workflow"],
            "--out", ws["out"], "--samples", "800", "--ffp-trials", "2000",
            "--seed", "3", *extra]


def plan_bidding_on_t0(ws):
    """Plan the toy class with dyna on the stable t0 trace: it bids on t0 only."""
    assert cli.main(["plan", *base_args(ws, "--planner", "dyna", "--trace-dir",
                                        ws["trace_dir"], "--deadline-factor", "1.5")]) == 0
    plans = load_plan_cache(ws["tmp"] / "out" / "plans.json")
    assert {d.type_id for c in plans["toy"].task_configs for d in c.spot_dims} == {0}


class TestPlan:
    def test_writes_one_record_per_task(self, workspace):
        rc = cli.main(["plan", *base_args(workspace, "--planner", "dyna-ns")])
        assert rc == 0
        plans = load_plan_cache(workspace["tmp"] / "out" / "plans.json")
        assert set(plans) == {"toy"}
        assert len(plans["toy"].task_configs) == 2

    def test_dyna_ns_is_ondemand_only(self, workspace):
        cli.main(["plan", *base_args(workspace, "--planner", "dyna-ns")])
        plans = load_plan_cache(workspace["tmp"] / "out" / "plans.json")
        for config in plans["toy"].task_configs:
            assert len(config.dims) == 1
            assert not config.dims[0].is_spot

    def test_dyna_ns_is_dyna_without_a_spot_market(self, workspace, tmp_path):
        # Given the traces, dyna-ns still plans what dyna plans without them.
        def plan(out, *extra):
            args = base_args(workspace, *extra)
            args[args.index("--out") + 1] = str(tmp_path / out)
            assert cli.main(["plan", *args]) == 0
            return (tmp_path / out / "plans.json").read_bytes()

        assert (plan("ns", "--planner", "dyna-ns", "--trace-dir", workspace["trace_dir"])
                == plan("dyna", "--planner", "dyna"))

    def test_dyna_ns_reads_no_trace(self, workspace):
        # dyna-ns plans without a spot market, so a malformed trace is never opened.
        trace_dir = pathlib.Path(workspace["trace_dir"])
        (trace_dir / "t1.csv").write_text("0,not-a-price\n")
        rc = cli.main(["plan", *base_args(workspace, "--planner", "dyna-ns",
                                          "--trace-dir", str(trace_dir))])
        assert rc == 0
        assert (workspace["tmp"] / "out" / "plans.json").exists()

    def test_spot_only_bids_1000(self, workspace):
        # A trace for each type, so that simulate can replay the plan.
        trace_dir = pathlib.Path(workspace["trace_dir"])
        (trace_dir / "t1.csv").write_text((trace_dir / "t0.csv").read_text())
        assert cli.main(["plan", *base_args(workspace, "--planner", "spot-only",
                                            "--trace-dir", str(trace_dir))]) == 0
        plans = load_plan_cache(workspace["tmp"] / "out" / "plans.json")
        for config in plans["toy"].task_configs:
            assert config.dims[0].is_spot
            assert config.dims[0].price == 1000.0
        assert cli.main(["simulate", *base_args(workspace, "--trace-dir", str(trace_dir),
                                                "--jobs", "5")]) == 0

    def test_spot_only_without_a_trace_for_a_planned_type_exits_2(self, workspace, capsys):
        # Without traces simulate would reject every spot dimension of the plan.
        rc = cli.main(["plan", *base_args(workspace, "--planner", "spot-only")])
        assert rc == cli.EXIT_PARSE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: class toy: no trace for type t")
        assert not (workspace["tmp"] / "out" / "plans.json").exists()

    def test_a_class_with_bad_input_keeps_the_other_classes_plans(self, tmp_path, capsys):
        # Class c plans on m1.small, which has a trace; class a needs m1.medium, which has none.
        (tmp_path / "c.wf").write_text("task 0 1e12 0 0 0 0\n")
        save_workflow(workflow_dag.montage_like(2, seed=1), tmp_path / "a.wf")
        (tmp_path / "traces").mkdir()
        (tmp_path / "traces" / "m1.small.csv").write_text("0,0.02\n3600,0.03\n")
        rc = cli.main(["plan", "--workflow", str(tmp_path / "c.wf"),
                       "--workflow", str(tmp_path / "a.wf"), "--planner", "spot-only",
                       "--deadline-factor", "1.0", "--samples", "300",
                       "--trace-dir", str(tmp_path / "traces"), "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_PARSE
        out, err = capsys.readouterr()
        assert out.startswith("planned c: ")
        assert err == "error: class a: no trace for type m1.medium\n"
        assert set(load_plan_cache(tmp_path / "out" / "plans.json")) == {"c"}

    def test_dyna_refines_with_traces(self, workspace):
        rc = cli.main(["plan", *base_args(workspace, "--planner", "dyna",
                                          "--trace-dir", workspace["trace_dir"],
                                          "--deadline-factor", "1.5")])
        assert rc == 0
        plans = load_plan_cache(workspace["tmp"] / "out" / "plans.json")
        spot_dims = sum(len(c.spot_dims) for c in plans["toy"].task_configs)
        assert spot_dims >= 1

    def test_infeasible_exit_code(self, workspace):
        rc = cli.main(["plan", *base_args(workspace, "--planner", "dyna-ns",
                                          "--deadline", "1.0")])
        assert rc == cli.EXIT_INFEASIBLE

    def test_infeasible_class_does_not_drop_the_others(self, workspace, tmp_path, capsys):
        # Under a 1,000 s deadline "toy" plans (900 s on t0) and "long"
        # cannot (3,000 s even on t1).
        long_path = tmp_path / "long.txt"
        save_workflow(chain_job([cpu_profile(6000.0)], class_id="long"), long_path)
        rc = cli.main(["plan", *base_args(workspace, "--planner", "dyna-ns",
                                          "--workflow", str(long_path),
                                          "--deadline", "1000")])
        assert rc == cli.EXIT_INFEASIBLE
        plans = load_plan_cache(workspace["tmp"] / "out" / "plans.json")
        assert set(plans) == {"toy"}
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("infeasible: ") and "'long'" in err[0]
        # "long" is 3,000 s even on its fastest type: its lower bound alone
        # shows that no plan meets the deadline.
        assert "(all 2 plans evaluated): lower bound 3000.0 s vs deadline 1000.0 s" in err[0]

    def test_infeasible_says_when_the_budget_ran_out(self, tmp_path, monkeypatch, capsys):
        # The benchmark's epigenomics-like-2x4 class at its 100-iteration
        # budget: plans are still queued when the search stops.
        monkeypatch.syspath_prepend(str(BENCH))
        monkeypatch.delitem(sys.modules, "inputs", raising=False)
        import inputs
        wf_path = tmp_path / "epigenomics-like-2x4.wf"
        wf_path.write_text(inputs.workflow_text("epigenomics", {"lanes": 2, "depth": 4}, 6))
        rc = cli.main(["plan", "--workflow", str(wf_path), "--out", str(tmp_path / "out"),
                       "--seed", "0", "--samples", "10000", "--deadline-factor", "0.5",
                       "--guarantee", "0.96", "--planner", "dyna-ns", "--max-iter", "100"])
        assert rc == cli.EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert "'epigenomics-like-2x4' (budget of 100 iterations exhausted)" in err

    def test_parse_error_exit_code(self, workspace, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,name\n0,broken\n")
        rc = cli.main(["plan", "--catalog", str(bad),
                       "--workflow", workspace["workflow"], "--out", workspace["out"]])
        assert rc == cli.EXIT_PARSE

    def test_nan_trace_price_is_parse_error(self, workspace, tmp_path, capsys):
        trace_dir = tmp_path / "nan"
        trace_dir.mkdir()
        (trace_dir / "t0.csv").write_text("0,0.02\n3600,nan\n")
        rc = cli.main(["plan", *base_args(workspace, "--trace-dir", str(trace_dir))])
        assert rc == cli.EXIT_PARSE
        assert "prices must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["-5", "0", "1"])
    def test_samples_below_two_is_parse_error(self, workspace, capsys, samples):
        rc = cli.main(["plan", *base_args(workspace, "--samples", samples)])
        assert rc == cli.EXIT_PARSE
        assert "samples must be >= 2, got %s" % samples in capsys.readouterr().err
        assert not (workspace["tmp"] / "out" / "plans.json").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--deadline-factor", "nan", "deadline_factor must be finite, got nan"),
        ("--deadline-factor", "inf", "deadline_factor must be finite, got inf"),
        ("--deadline", "0", "deadline must be in (0, %g) s, got 0.0" % CLOCK_BOUND),
        ("--deadline", "inf", "deadline must be in (0, %g) s, got inf" % CLOCK_BOUND),
        ("--deadline", "nan", "deadline must be in (0, %g) s, got nan" % CLOCK_BOUND),
        ("--deadline", "1e19", "deadline must be in (0, %g) s, got 1e+19" % CLOCK_BOUND),
    ])
    def test_bad_deadline_is_parse_error_before_any_draw(self, workspace, capsys, monkeypatch,
                                                         flag, value, message):
        monkeypatch.setattr(planner_astar, "TaskDistCache", None)  # a draw would raise
        rc = cli.main(["plan", *base_args(workspace, flag, value)])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_PARSE
        assert err == "error: %s\n" % message
        assert not (workspace["tmp"] / "out" / "plans.json").exists()

    @pytest.mark.parametrize("command, flags, message", [
        ("plan", ["--max-iter", "0"], "max_iter must be >= 1, got 0"),
        ("plan", ["--planner", "dyna-ns", "--ffp-trials", "-3"],
         "ffp_trials must be >= 1, got -3"),
        ("simulate", ["--jobs", "0"], "jobs must be >= 1, got 0"),
    ])
    def test_count_below_one_is_parse_error_before_any_draw(self, workspace, capsys, monkeypatch,
                                                            command, flags, message):
        monkeypatch.setattr(planner_astar, "TaskDistCache", None)  # a draw would raise
        rc = cli.main([command, *base_args(workspace, *flags)])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_PARSE
        assert err == "error: %s\n" % message
        assert not (workspace["tmp"] / "out" / "plans.json").exists()
        assert not (workspace["tmp"] / "out" / "report.json").exists()

    def test_bandwidth_without_positive_mass_is_parse_error(self, workspace, capsys):
        # The draw fails on a pool thread; the error still reaches main.
        cat = ordered_catalog(2)
        save_catalog(Catalog([cat[0], dataclasses.replace(cat[1], seq_io=GammaSpec(0.0, 1.0))]),
                     workspace["catalog"])
        save_workflow(chain_job([mixed_profile()], class_id="toy"), workspace["workflow"])
        rc = cli.main(["plan", *base_args(workspace, "--planner", "dyna-ns")])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_PARSE
        assert err.startswith("error: class toy: bandwidth model GammaSpec(k=0.0, theta=1.0)"
                              " produces no positive mass") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (workspace["tmp"] / "out" / "plans.json").exists()

    def test_samples_too_many_to_allocate_is_parse_error(self, workspace, capsys):
        # numpy refuses an 8 PB array at once, without touching memory.
        rc = cli.main(["plan", *base_args(workspace, "--samples", str(10 ** 15))])
        assert rc == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: class toy: Unable to allocate") and err.count("\n") == 1
        assert not (workspace["tmp"] / "out" / "plans.json").exists()

    @pytest.mark.parametrize("task, flags, message", [
        ("task 0 0 0 0 0 0", [], "deadline factor 0.5 between D_min 0 s and D_max 0 s"
                                 " gives deadline 0 s"),
        ("task 0 100 0 0 0 0", ["--deadline-factor", "-3"], "deadline factor -3.0 between"),
        # simulate could not replay this class: its durations pass the int64 clock.
        ("task 0 1e300 0 0 0 0\ntask 1 1e9 0 0 0 0\nedge 0 1", ["--samples", "300"],
         "deadline factor 0.5 between D_min 5e+290 s and D_max 1e+291 s"
         " gives deadline 7.5e+290 s"),
    ], ids=["all-zero-task", "negative-factor", "past-the-clock-bound"])
    def test_derived_deadline_not_positive_is_parse_error(self, workspace, capsys,
                                                          task, flags, message):
        with open(workspace["workflow"], "w") as fh:
            fh.write(task + "\n")
        rc = cli.main(["plan", *base_args(workspace, "--planner", "dyna-ns", *flags)])
        assert rc == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: class toy: %s" % message) and err.count("\n") == 1
        assert err.endswith(" s, which is not in (0, %g) s\n" % CLOCK_BOUND)
        assert not (workspace["tmp"] / "out" / "plans.json").exists()

    def test_missing_trace_dir_is_parse_error(self, workspace, tmp_path, capsys):
        missing = tmp_path / "no-such-traces"
        rc = cli.main(["plan", *base_args(workspace, "--trace-dir", str(missing))])
        assert rc == cli.EXIT_PARSE
        assert "trace_dir %s is not a directory" % missing in capsys.readouterr().err
        assert not (workspace["tmp"] / "out" / "plans.json").exists()


class TestSimulate:
    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_bad_arrival_rate_is_parse_error_before_any_output(self, workspace, capsys, value):
        rc = cli.main(["simulate", *base_args(workspace, "--lambda", value)])
        assert rc == cli.EXIT_PARSE
        assert capsys.readouterr().err == (
            "error: arrival_rate must be positive and finite, got %r\n" % float(value))
        assert not (workspace["tmp"] / "out").exists()

    def test_arrival_times_past_the_largest_float_are_parse_error(self, workspace, capsys):
        # Mean gaps of 6e307 s: the running sum of 20 arrivals overflows.
        rc = self._plan_then_simulate(workspace, "--lambda", "1e-306", "--jobs", "20")
        assert rc == cli.EXIT_PARSE
        assert capsys.readouterr().err == ("error: arrival_rate 1e-306 jobs/min is too small:"
                                           " 20 arrival times reach %g s\n" % CLOCK_BOUND)
        assert not (workspace["tmp"] / "out" / "report.json").exists()

    def test_arrival_times_past_the_clock_bound_are_parse_error(self, workspace, capsys):
        # Mean gaps of 6e301 s: finite floats, but past the simulator's int64 clock.
        rc = self._plan_then_simulate(workspace, "--lambda", "1e-300")
        assert rc == cli.EXIT_PARSE
        assert capsys.readouterr().err == ("error: arrival_rate 1e-300 jobs/min is too small:"
                                           " 10 arrival times reach %g s\n" % CLOCK_BOUND)
        assert not (workspace["tmp"] / "out" / "report.json").exists()

    def _plan_then_simulate(self, ws, *extra):
        assert cli.main(["plan", *base_args(ws, "--planner", "dyna-ns")]) == 0
        return cli.main(["simulate", *base_args(ws, "--planner", "dyna-ns",
                                                "--jobs", "10", *extra)])

    def test_report_files_written(self, workspace):
        rc = self._plan_then_simulate(workspace, "--event-log")
        assert rc == 0
        out = workspace["tmp"] / "out"
        report = json.loads((out / "report.json").read_text())
        assert report["job_count"] == 10
        assert 0.0 <= report["hit_rate"] <= 1.0
        assert (out / "events.log").exists()

    def test_report_json_is_the_only_report(self, workspace, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(json.dumps({"avg_cost_per_job": 0.5, "hit_rate": 0.25}))
        assert self._plan_then_simulate(workspace, "--event-log", "--baseline", str(base)) == 0
        out = workspace["tmp"] / "out"
        assert sorted(path.name for path in out.iterdir()) == [
            "events.log", "normalized.json", "plans.json", "report.json"]
        assert len(json.loads((out / "report.json").read_text())["per_job"]) == 10

    def test_per_job_flag_is_usage_error(self, workspace, capsys):
        assert cli.main(["plan", *base_args(workspace, "--planner", "dyna-ns")]) == 0
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", *base_args(workspace, "--per-job")])
        assert exc.value.code == cli.EXIT_PARSE
        assert "unrecognized arguments: --per-job" in capsys.readouterr().err
        assert not (workspace["tmp"] / "out" / "report.json").exists()

    def test_duration_past_the_integer_clock_is_parse_error(self, workspace, capsys):
        # rint(1e300) does not fit int64: cast anyway, it would wrap to -2**63.
        # plan refuses such a class, so the plan is made before task 0 grows.
        assert cli.main(["plan", *base_args(workspace, "--planner", "dyna-ns")]) == 0
        with open(workspace["workflow"], "w") as fh:
            fh.write("task 0 1e300 0 0 0 0\ntask 1 1e9 0 0 0 0\nedge 0 1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["simulate", *base_args(workspace, "--jobs", "3")])
        assert rc == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: class toy task 0: duration ") and err.count("\n") == 1
        assert "past the simulator's integer clock" in err
        assert not (workspace["tmp"] / "out" / "report.json").exists()

    def test_count_too_large_to_allocate_is_parse_error(self, workspace, capsys):
        # numpy refuses an 8 PB array at once, without touching memory.
        assert cli.main(["plan", *base_args(workspace, "--planner", "dyna-ns")]) == 0
        capsys.readouterr()
        rc = cli.main(["simulate", *base_args(workspace, "--jobs", str(10 ** 15))])
        assert rc == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
        assert not (workspace["tmp"] / "out" / "report.json").exists()

    def test_repeat_seed_byte_identical(self, workspace):
        self._plan_then_simulate(workspace)
        out = workspace["tmp"] / "out"
        first = (out / "report.json").read_bytes()
        assert cli.main(["simulate", *base_args(workspace, "--jobs", "10")]) == 0
        assert (out / "report.json").read_bytes() == first

    def test_derives_no_deadlines(self, workspace, monkeypatch):
        # Hits are scored against the plan cache's deadlines.
        self._plan_then_simulate(workspace)
        report = workspace["tmp"] / "out" / "report.json"
        first = report.read_bytes()

        def fail(*args, **kwargs):
            raise AssertionError("simulate derived a deadline")

        monkeypatch.setattr(workflow_dag, "deadline_bounds", fail)
        assert cli.main(["simulate", *base_args(workspace, "--jobs", "10")]) == 0
        assert report.read_bytes() == first

    def test_class_mismatch_exit_code(self, workspace, tmp_path):
        assert cli.main(["plan", *base_args(workspace, "--planner", "dyna-ns")]) == 0
        other = chain_job([cpu_profile(100.0)], class_id="other")
        other_path = tmp_path / "other.txt"
        save_workflow(other, other_path)
        rc = cli.main(["simulate", "--catalog", workspace["catalog"],
                       "--workflow", str(other_path), "--out", workspace["out"],
                       "--jobs", "2"])
        assert rc == cli.EXIT_MISMATCH

    def test_baseline_writes_normalized_ratios(self, workspace, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(json.dumps({"avg_cost_per_job": 0.5, "hit_rate": 0.25}))
        assert self._plan_then_simulate(workspace, "--baseline", str(base)) == 0
        out = workspace["tmp"] / "out"
        report = json.loads((out / "report.json").read_text())
        ratios = json.loads((out / "normalized.json").read_text())
        assert ratios == {"avg_cost_ratio": report["avg_cost_per_job"] / 0.5,
                          "hit_rate_delta": report["hit_rate"] - 0.25}
        assert (out / "normalized.json").read_bytes() == (
            b'{\n  "avg_cost_ratio": 0.144,\n  "hit_rate_delta": 0.75\n}\n')

    def test_missing_trace_dir_is_parse_error(self, workspace, tmp_path, capsys):
        missing = tmp_path / "no-such-traces"
        rc = self._plan_then_simulate(workspace, "--trace-dir", str(missing))
        assert rc == cli.EXIT_PARSE
        assert "trace_dir %s is not a directory" % missing in capsys.readouterr().err
        assert not (workspace["tmp"] / "out" / "report.json").exists()

    def test_trace_of_a_type_no_plan_bids_on_is_not_read(self, workspace):
        plan_bidding_on_t0(workspace)
        args = base_args(workspace, "--trace-dir", workspace["trace_dir"], "--jobs", "10")
        report = workspace["tmp"] / "out" / "report.json"
        assert cli.main(["simulate", *args]) == 0
        first = report.read_bytes()
        report.unlink()
        (pathlib.Path(workspace["trace_dir"]) / "t1.csv").write_bytes(b"\xff not a trace\n")
        assert cli.main(["simulate", *args]) == 0
        assert report.read_bytes() == first

    def test_trace_only_an_unsimulated_class_bids_on_is_not_read(self, workspace, tmp_path,
                                                                 capsys):
        # One cache holds "toy", which bids on t0, and "other", planned on
        # demand.  Simulating "other" alone opens no trace, not even a
        # malformed t0.csv; simulating "toy" reads it.
        plan_bidding_on_t0(workspace)
        other = chain_job([cpu_profile(100.0)], class_id="other")
        other_path = tmp_path / "other.txt"
        save_workflow(other, other_path)
        assert cli.main(["plan", "--catalog", workspace["catalog"], "--workflow", str(other_path),
                         "--out", str(tmp_path / "other-out"), "--samples", "800",
                         "--planner", "dyna-ns"]) == 0
        doc = json.loads((workspace["tmp"] / "out" / "plans.json").read_text())
        doc["classes"].update(
            json.loads((tmp_path / "other-out" / "plans.json").read_text())["classes"])
        merged = tmp_path / "merged.json"
        merged.write_text(json.dumps(doc))
        bad = tmp_path / "bad-traces"
        bad.mkdir()
        (bad / "t0.csv").write_bytes(b"\xff not a trace\n")
        out = tmp_path / "sim"

        def simulate(*workflows):
            flags = [flag for path in workflows for flag in ("--workflow", str(path))]
            return cli.main(["simulate", "--catalog", workspace["catalog"], *flags,
                             "--trace-dir", str(bad), "--plans", str(merged),
                             "--out", str(out), "--jobs", "10"])

        assert simulate(other_path) == cli.EXIT_OK
        assert (out / "report.json").exists()
        missing = tmp_path / "missing.txt"
        save_workflow(chain_job([cpu_profile(50.0)], class_id="missing"), missing)
        capsys.readouterr()
        assert simulate(other_path, missing) == cli.EXIT_MISMATCH
        assert "plan cache lacks classes: ['missing']" in capsys.readouterr().err
        assert simulate(workspace["workflow"]) == cli.EXIT_PARSE
        assert "t0.csv" in capsys.readouterr().err

    def test_an_edge_listed_twice_plans_and_simulates_as_listed_once(self, workspace, tmp_path):
        # Task 1 waits for task 0 twice, and task 0's finish releases it twice.
        text = pathlib.Path(workspace["workflow"]).read_text()
        assert text.endswith("edge 0 1\n")
        outputs = []
        for name, extra in (("once", ""), ("twice", "edge 0 1\n")):
            wf = tmp_path / name / "toy.txt"
            wf.parent.mkdir()
            wf.write_text(text + extra)
            args = ["--catalog", workspace["catalog"], "--workflow", str(wf),
                    "--trace-dir", workspace["trace_dir"], "--out", str(wf.parent),
                    "--samples", "800", "--ffp-trials", "2000", "--seed", "3"]
            assert cli.main(["plan", *args, "--deadline-factor", "1.5"]) == 0
            assert cli.main(["simulate", *args, "--jobs", "10", "--event-log"]) == 0
            outputs.append([(wf.parent / f).read_bytes()
                            for f in ("plans.json", "report.json", "events.log")])
        assert outputs[0] == outputs[1]
        assert b'"is_spot": true' in outputs[0][0]

    def test_bid_on_type_without_a_trace_is_mismatch(self, workspace, tmp_path, capsys):
        plan_bidding_on_t0(workspace)
        other = tmp_path / "only-t1"
        other.mkdir()
        shutil.copy(pathlib.Path(workspace["trace_dir"]) / "t0.csv", other / "t1.csv")
        capsys.readouterr()
        rc = cli.main(["simulate", *base_args(workspace, "--trace-dir", str(other),
                                              "--jobs", "10")])
        assert rc == cli.EXIT_MISMATCH
        assert capsys.readouterr().err == (
            "mismatch: plan for 'toy' uses spot type 0 with no price trace\n")
        assert not (workspace["tmp"] / "out" / "report.json").exists()

    @pytest.mark.parametrize("doc, message", [
        ({"hit_rate": 1.0}, "avg_cost_per_job"),
        ({"avg_cost_per_job": 0, "hit_rate": 1.0}, "must be positive"),
        ({"avg_cost_per_job": 1.0, "hit_rate": math.nan}, "hit_rate in [0, 1], got 1.0 and nan"),
        ({"avg_cost_per_job": math.inf, "hit_rate": 0.5}, "must be positive and finite"),
        ({"avg_cost_per_job": 1.0, "hit_rate": True}, "got 1.0 and True"),
        ({"avg_cost_per_job": "0.5", "hit_rate": 1.0}, "got '0.5' and 1.0"),
        ({"avg_cost_per_job": 0.5, "hit_rate": "1"}, "got 0.5 and '1'"),
        ({"avg_cost_per_job": "0.5", "hit_rate": "1"}, "got '0.5' and '1'"),
        ([0.5, 1.0], "got None and None"),
    ])
    def test_bad_baseline_is_parse_error(self, workspace, tmp_path, capsys, doc, message):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(doc))
        assert self._plan_then_simulate(workspace, "--baseline", str(base)) == cli.EXIT_PARSE
        assert message in capsys.readouterr().err
        assert not (workspace["tmp"] / "out" / "normalized.json").exists()

    def test_cost_weakly_rises_with_stricter_guarantee(self, workspace):
        # Deadline pinned at the 95th percentile of the all-cheapest plan:
        # guarantees below 0.95 keep the cheapest plan, above it force
        # upgrades, so average cost is non-decreasing in p.
        cat = ordered_catalog(2)
        job = chain_job([cpu_profile(600.0), cpu_profile(300.0)],
                        class_id="toy", guarantee_p=0.9)
        cache = TaskDistCache(job, cat, 800, 3)
        deadline = plan_distribution(job, cache, (0, 0)).percentile(0.95)

        costs = []
        for p in ("0.90", "0.92", "0.94", "0.96", "0.98", "0.999"):
            out = str(workspace["tmp"] / ("sweep-%s" % p))
            rc = cli.main(["plan", "--catalog", workspace["catalog"],
                           "--workflow", workspace["workflow"], "--out", out,
                           "--samples", "800", "--seed", "3",
                           "--planner", "dyna-ns", "--guarantee", p,
                           "--deadline", "%.6f" % deadline])
            assert rc == 0
            rc = cli.main(["simulate", "--catalog", workspace["catalog"],
                           "--workflow", workspace["workflow"], "--out", out,
                           "--jobs", "20", "--seed", "3", "--guarantee", p])
            assert rc == 0
            report = json.loads((workspace["tmp"] / ("sweep-%s" % p) / "report.json").read_text())
            costs.append(report["avg_cost_per_job"])
        assert costs == sorted(costs)



def _set_ondemand_type(doc, type_id):
    doc["classes"]["toy"]["tasks"][0][-1]["type_id"] = type_id


def _set_deadline(doc, deadline):
    doc["classes"]["toy"]["deadline"] = deadline


def _add_spot_dims(doc, count):
    dims = doc["classes"]["toy"]["tasks"][1]
    spot = {"type_id": dims[-1]["type_id"], "price": 0.03, "is_spot": True}
    dims[:0] = [dict(spot) for _ in range(count)]


def _set_in_plan(doc, value, *keys):
    """Set doc["classes"]["toy"][keys[0]][keys[1]]... to value."""
    node = doc["classes"]["toy"]
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value


class TestMalformedPlanCache:
    """A bad --plans file exits with a one-line message naming the class."""

    @pytest.mark.parametrize("mutate, code, message", [
        (lambda doc: _set_ondemand_type(doc, 9), cli.EXIT_MISMATCH,
         "plan for 'toy' uses type id 9, the catalog has ids 0..1"),
        (lambda doc: _set_ondemand_type(doc, -1), cli.EXIT_PARSE,
         "class 'toy': task 0: type_id must be a non-negative integer, got -1"),
        (lambda doc: doc.pop("classes"), cli.EXIT_PARSE,
         '"classes" must be an object'),
        (lambda doc: _set_deadline(doc, "soon"), cli.EXIT_PARSE,
         "class 'toy': deadline must be in (0, %g) s, got 'soon'" % CLOCK_BOUND),
        (lambda doc: _set_deadline(doc, math.nan), cli.EXIT_PARSE,
         "class 'toy': deadline must be in (0, %g) s, got nan" % CLOCK_BOUND),
        (lambda doc: _set_deadline(doc, 2**63), cli.EXIT_PARSE,
         "class 'toy': deadline must be in (0, %g) s, got %d" % (CLOCK_BOUND, 2**63)),
        (lambda doc: _add_spot_dims(doc, 2), cli.EXIT_PARSE,
         "class 'toy': task 1: a configuration has one or two dimensions, got 3"),
        (lambda doc: _set_in_plan(doc, 1.5, "guarantee_p"), cli.EXIT_PARSE,
         "class 'toy': guarantee_p must be a number in (0, 1], got 1.5"),
        (lambda doc: _set_in_plan(doc, {}, "tasks"), cli.EXIT_PARSE,
         "class 'toy': tasks must be a list of configurations, one per task"),
        (lambda doc: _set_in_plan(doc, {}, "tasks", 0), cli.EXIT_PARSE,
         "class 'toy': task 0: a configuration is a list of dimensions"),
        (lambda doc: _set_in_plan(doc, [], "tasks", 0, -1), cli.EXIT_PARSE,
         "class 'toy': task 0: a dimension is an object with exactly the keys"
         " is_spot, price, type_id"),
        (lambda doc: _set_in_plan(doc, 0, "tasks", 0, -1, "price"), cli.EXIT_PARSE,
         "class 'toy': task 0: price must be a positive finite number, got 0"),
        (lambda doc: _set_in_plan(doc, 1, "tasks", 0, -1, "is_spot"), cli.EXIT_PARSE,
         "class 'toy': task 0: is_spot must be true or false, got 1"),
    ], ids=["type-9", "type-minus-1", "no-classes", "string-deadline", "nan-deadline",
            "clock-bound-deadline", "two-spot-dims", "guarantee-1.5", "tasks-not-a-list",
            "config-not-a-list", "dim-not-an-object", "zero-price", "is-spot-1"])
    def test_exit_code_and_message(self, workspace, tmp_path, capsys, mutate, code, message):
        assert cli.main(["plan", *base_args(workspace, "--planner", "dyna-ns")]) == 0
        doc = json.loads((workspace["tmp"] / "out" / "plans.json").read_text())
        mutate(doc)
        path = tmp_path / "bad-plans.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = cli.main(["simulate", *base_args(workspace, "--jobs", "2", "--plans", str(path))])
        err = capsys.readouterr().err
        assert rc == code
        assert message in err
        assert err.count("\n") == 1 and "Traceback" not in err
        if code == cli.EXIT_PARSE:
            assert str(path) in err
        assert not (workspace["tmp"] / "out" / "report.json").exists()


@pytest.mark.parametrize("flag", ["--plans", "--spec", "--baseline"])
def test_deeply_nested_json_is_parse_error(workspace, tmp_path, capsys, flag):
    # The JSON decoder recurses once per nesting level.
    assert cli.main(["plan", *base_args(workspace, "--planner", "dyna-ns")]) == 0
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    capsys.readouterr()
    rc = cli.main(["simulate", *base_args(workspace, "--jobs", "2", flag, str(path))])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_PARSE
    assert err == "error: %s: JSON nested too deeply\n" % path


NOT_UTF8 = b"\xff\xfe not utf-8\n"


@pytest.mark.parametrize("flag, content", [
    ("--workflow", NOT_UTF8), ("--trace-dir", NOT_UTF8), ("--catalog", NOT_UTF8),
    ("--plans", NOT_UTF8), ("--spec", NOT_UTF8), ("--baseline", NOT_UTF8),
    ("--plans", b"task 1e9 0 0 0 0\n"), ("--spec", b"{"), ("--baseline", b""),
], ids=["workflow", "trace-dir", "catalog", "plans", "spec", "baseline",
        "plans-not-json", "spec-not-json", "baseline-not-json"])
def test_unreadable_input_is_parse_error_naming_the_file(workspace, tmp_path, capsys,
                                                         flag, content):
    if flag == "--trace-dir":  # simulate reads the traces of bid-on types only
        plan_bidding_on_t0(workspace)
    else:
        assert cli.main(["plan", *base_args(workspace, "--planner", "dyna-ns")]) == 0
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    path = inputs / "t0.csv"  # type t0's trace when the flag is --trace-dir
    path.write_bytes(content)
    value = str(inputs if flag == "--trace-dir" else path)
    args = base_args(workspace, "--jobs", "2")
    if flag in args:
        args[args.index(flag) + 1] = value
    else:
        args += [flag, value]
    capsys.readouterr()
    rc = cli.main(["simulate", *args])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_PARSE
    assert err.startswith("error: %s: " % path) and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (workspace["tmp"] / "out" / "report.json").exists()


@pytest.mark.parametrize("command", ["plan", "simulate"])
def test_repeated_class_id_is_parse_error(workspace, tmp_path, capsys, command):
    paths = []
    for name, tasks in (("a", 1), ("b", 2)):
        (tmp_path / name).mkdir()
        paths.append(tmp_path / name / "wf.txt")
        save_workflow(chain_job([cpu_profile(100.0)] * tasks, class_id="wf"), paths[-1])
    args = ["--catalog", workspace["catalog"], "--out", workspace["out"], "--samples", "800"]
    out = workspace["tmp"] / "out"
    if command == "simulate":
        assert cli.main(["plan", *args, "--workflow", str(paths[0])]) == 0
        capsys.readouterr()
    rc = cli.main([command, *args, "--workflow", str(paths[0]), "--workflow", str(paths[1])])
    assert rc == cli.EXIT_PARSE
    assert capsys.readouterr() == ("", "error: workflow class 'wf' is defined twice:"
                                       " by %s and by %s\n" % tuple(paths))
    assert not (out / ("report.json" if command == "simulate" else "plans.json")).exists()


@pytest.mark.parametrize("command", [["plan"], ["ffp", "t0", "0.05"]], ids=["plan", "ffp"])
def test_repeated_type_name_is_parse_error(workspace, capsys, command):
    catalog = pathlib.Path(workspace["catalog"])
    catalog.write_text(catalog.read_text().replace(",t1,", ",t0,"))
    args = base_args(workspace, "--trace-dir", workspace["trace_dir"])
    assert cli.main([command[0], *args, *command[1:]]) == cli.EXIT_PARSE
    assert capsys.readouterr().err == (
        "error: %s: instance type name 't0' is used twice\n" % catalog)
    assert not (workspace["tmp"] / "out" / "plans.json").exists()


class TestFfp:
    def test_constant_low_all_zero(self, workspace, tmp_path):
        trace_dir = tmp_path / "calm"
        trace_dir.mkdir()
        (trace_dir / "t0.csv").write_text("0,0.02\n3600,0.02\n")
        rc = cli.main(["ffp", *base_args(workspace, "--trace-dir", str(trace_dir)),
                       "t0", "0.05"])
        assert rc == 0
        rows = (workspace["tmp"] / "out" / "ffp.csv").read_text().strip().splitlines()[1:]
        assert all(float(r.split(",")[1]) == 0.0 for r in rows)

    def test_constant_high_immediate(self, workspace, tmp_path):
        trace_dir = tmp_path / "hot"
        trace_dir.mkdir()
        (trace_dir / "t0.csv").write_text("0,0.50\n3600,0.50\n")
        rc = cli.main(["ffp", *base_args(workspace, "--trace-dir", str(trace_dir)),
                       "t0", "0.05"])
        assert rc == 0
        rows = (workspace["tmp"] / "out" / "ffp.csv").read_text().strip().splitlines()[1:]
        # Mass 1.0 lands in the first bucket; cumulative hits 1 from the
        # second grid point on.
        assert float(rows[0].split(",")[1]) == 0.0
        assert all(float(r.split(",")[1]) == 1.0 for r in rows[1:])

    def test_alternating_trace_matches_hand_walk(self, workspace, tmp_path):
        # Low/high hour pairs with the bid in between: every walk fails
        # within one period, so the cumulative curve reaches ~1 by two hours.
        trace_dir = tmp_path / "alt"
        trace_dir.mkdir()
        lines = []
        t = 0
        for _ in range(100):
            lines.append("%d,0.05" % t); t += 3600
            lines.append("%d,0.15" % t); t += 3600
        (trace_dir / "t0.csv").write_text("\n".join(lines) + "\n")
        rc = cli.main(["ffp", *base_args(workspace, "--trace-dir", str(trace_dir)),
                       "t0", "0.10"])
        assert rc == 0
        rows = (workspace["tmp"] / "out" / "ffp.csv").read_text().strip().splitlines()[1:]
        values = [float(r.split(",")[1]) for r in rows]
        assert values == sorted(values)
        # Hand-walk: ~half the starts fail immediately, the rest within 1 h.
        t_of = [float(r.split(",")[0]) for r in rows]
        one_hour = values[t_of.index(3600.0)]
        assert one_hour == pytest.approx(1.0, abs=0.03)
        assert values[-1] == pytest.approx(1.0, abs=0.02)

    def test_table_covers_one_day_on_a_minute_grid(self, workspace, tmp_path):
        trace_dir = tmp_path / "two"
        trace_dir.mkdir()
        (trace_dir / "t0.csv").write_text("0,0.02\n3600,0.5\n")
        rc = cli.main(["ffp", *base_args(workspace, "--trace-dir", str(trace_dir)),
                       "t0", "0.05"])
        assert rc == 0
        header, *rows = (workspace["tmp"] / "out" / "ffp.csv").read_text().splitlines()
        assert header == "t_seconds,cumulative_failure"
        assert [r.split(",")[0] for r in rows] == [str(60 * k) for k in range(1441)]

    def test_missing_trace_is_parse_error(self, workspace):
        rc = cli.main(["ffp", *base_args(workspace), "t0", "0.05"])
        assert rc == cli.EXIT_PARSE

    def test_reads_only_the_queried_types_trace(self, workspace, tmp_path, capsys):
        trace_dir = tmp_path / "mixed"
        trace_dir.mkdir()
        (trace_dir / "t0.csv").write_text("0,0.02\n3600,0.5\n")
        (trace_dir / "t1.csv").write_text("0,not-a-price\n")
        args = base_args(workspace, "--trace-dir", str(trace_dir))
        assert cli.main(["ffp", *args, "t0", "0.05"]) == 0
        assert len((workspace["tmp"] / "out" / "ffp.csv").read_text().splitlines()) == 1442
        capsys.readouterr()
        assert cli.main(["ffp", *args, "t1", "0.05"]) == cli.EXIT_PARSE
        assert capsys.readouterr().err.startswith("error: %s" % (trace_dir / "t1.csv"))

    def test_unknown_type_is_parse_error_naming_known_types(self, workspace, capsys):
        rc = cli.main(["ffp", *base_args(workspace, "--trace-dir", workspace["trace_dir"]),
                       "m1.nope", "0.05"])
        assert rc == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert "'m1.nope'" in err
        assert "t0, t1" in err
        assert "Traceback" not in err


class TestSpecFile:
    def test_flags_override_spec_file(self, workspace, tmp_path, capsys):
        spec = {"jobs": 7, "planner": "dyna-ns", "seed": 3,
                "catalog": workspace["catalog"],
                "workflows": [workspace["workflow"]],
                "out": workspace["out"], "samples": 800}
        spec_path = tmp_path / "exp.json"
        spec_path.write_text(json.dumps(spec))
        assert cli.main(["plan", "--spec", str(spec_path)]) == 0
        rc = cli.main(["simulate", "--spec", str(spec_path), "--jobs", "3"])
        assert rc == 0
        report = json.loads((workspace["tmp"] / "out" / "report.json").read_text())
        assert report["job_count"] == 3

    @pytest.mark.parametrize("doc, message", [
        ({"nope": 1, "jobs": 2}, "unknown spec key(s): nope"),
        ({"zz": 1, "aa": 2}, "unknown spec key(s): aa, zz"),
        ([1, 2], "spec must be a JSON object, got list"),
        ({"jobs": "many"}, "jobs must be int"),
        ({"workflows": "one.txt"}, "workflows must be list"),
        ({"per_job": True}, "unknown spec key(s): per_job"),  # report.json holds per_job
        ({"planner": "x"}, "planner must be one of ('dyna', 'dyna-ns', 'spot-only')"),
        ({"guarantee": 1.5}, "guarantee must be in (0, 1]"),
        ({}, "no workflow files given"),
    ])
    def test_bad_spec_is_parse_error(self, tmp_path, capsys, doc, message):
        spec_path = tmp_path / "exp.json"
        spec_path.write_text(json.dumps(doc))
        assert cli.main(["plan", "--spec", str(spec_path)]) == cli.EXIT_PARSE
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, value, message", [
        # Rounds to 2**63 as a float, which is the clock bound itself.
        ("plan", "deadline", 2 ** 63 - 1,
         "deadline must be in (0, %g) s, got %r" % (CLOCK_BOUND, 2.0 ** 63)),
        ("plan", "deadline_factor", 10 ** 400,
         "deadline_factor must be within the float range, got an integer too large for a float"),
        ("simulate", "deadline_factor", 10 ** 400,
         "deadline_factor must be within the float range, got an integer too large for a float"),
        ("simulate", "arrival_rate", 10 ** 400,
         "arrival_rate must be within the float range, got an integer too large for a float"),
    ], ids=["deadline-2**63-1", "plan-400-digit-factor", "simulate-400-digit-factor",
            "simulate-400-digit-rate"])
    def test_integer_checked_as_the_float_it_becomes(self, workspace, tmp_path, capsys,
                                                     command, key, value, message):
        spec = {"catalog": workspace["catalog"], "workflows": [workspace["workflow"]],
                "out": workspace["out"], "samples": 800, key: value}
        spec_path = tmp_path / "exp.json"
        spec_path.write_text(json.dumps(spec))
        assert cli.main([command, "--spec", str(spec_path)]) == cli.EXIT_PARSE
        assert capsys.readouterr().err == "error: %s\n" % message
        assert not (workspace["tmp"] / "out").exists()


@pytest.mark.parametrize("command", [[], ["plan"], ["simulate"], ["ffp"]],
                         ids=["spotflow", "plan", "simulate", "ffp"])
def test_help_screens_are_pinned(command, capsys, monkeypatch):
    # tests/data/help holds each screen as printed 80 columns wide.
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--help"])
    assert exc.value.code == 0
    name = command[0] if command else "spotflow"
    expected = (pathlib.Path(__file__).parent / "data" / "help" / ("%s.txt" % name)).read_text()
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("trace", ["-1e308,0.02\n1e308,0.5\n", "0,0.5\n1e308,0.02\n",
                                   "0,0.5\n1e19,0.02\n"],
                         ids=["span-overflows", "cycle-overflows", "cycle-past-the-clock-bound"])
@pytest.mark.parametrize("command", [["plan"], ["simulate"], ["ffp", "t0", "0.05"]],
                         ids=["plan", "simulate", "ffp"])
def test_trace_whose_cycle_overflows_is_parse_error(workspace, capsys, command, trace):
    if command[0] == "simulate":  # simulate reads the traces of bid-on types only
        plan_bidding_on_t0(workspace)
    path = pathlib.Path(workspace["trace_dir"]) / "t0.csv"
    path.write_text(trace)
    capsys.readouterr()
    args = base_args(workspace, "--trace-dir", workspace["trace_dir"], "--jobs", "2")
    assert cli.main([command[0], *args, *command[1:]]) == cli.EXIT_PARSE
    assert capsys.readouterr().err == (
        "error: %s: trace cycle (span plus median interval) must be below %g s\n"
        % (path, CLOCK_BOUND))
    output = {"plan": "plans.json", "simulate": "report.json", "ffp": "ffp.csv"}[command[0]]
    assert not (workspace["tmp"] / "out" / output).exists()


def test_readme_library_use_block_runs_as_written(tmp_path, monkeypatch, capsys):
    # The block is read from README.md, so the snippet and the API change together.
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    block = readme.split("## Library use\n\n```python\n", 1)[1].split("```", 1)[0]
    (tmp_path / "traces").mkdir()
    trace = stable_trace(0.024, hours=400)
    with open(tmp_path / "traces" / "m1.small.csv", "w") as fh:
        for t, p in zip(trace.timestamps, trace.prices):
            fh.write("%d,%.5f\n" % (t, p))
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    hit_rate, cost_per_job = map(float, capsys.readouterr().out.split())
    assert 0.0 <= hit_rate <= 1.0 and cost_per_job > 0.0
