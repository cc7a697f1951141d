#!/usr/bin/env python3
"""Run the benchmark over several seeds and record the result.

    python3 bench/record.py --seeds 1-10 --workload plan-search --out bench/results/x.json
    python3 bench/record.py --compare bench/results/a.json bench/results/b.json

Each (workload, seed) is one `bench/run.py` process, run one after another.
For every end-to-end metric the record keeps each run's value, the median
and the quartile spread ((Q3 - Q1) / median, quartiles as
statistics.quantiles(values, n=4) gives them), next to the machine's
processor count, the Python and numpy versions and the git commit.

--compare checks a second record against a first with BENCHMARK.json's
bounds: it exits 1 when a spread (setup_s excepted) exceeds its metric's
bound or a median of the second is worse than the first's by more than it.
"""

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def summarize(values):
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "spread": None}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "spread": (q3 - q1) / median if median else None}


def compare(first_path, second_path, declared):
    """Print each metric's medians, change and spreads; returns 0 when within bounds."""
    first, second = (json.loads(pathlib.Path(p).read_text(encoding="utf-8"))
                     for p in (first_path, second_path))
    over = 0
    print("%-12s %-22s %12s %12s %8s %8s %8s %6s" % (
        "workload", "metric", "median 1", "median 2", "worse", "spread 1", "spread 2", "bound"))
    for workload in first["workloads"]:
        for m in declared["end_to_end"]:
            a = first["workloads"][workload]["metrics"][m["name"]]
            b = second["workloads"][workload]["metrics"][m["name"]]
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (b["median"] - a["median"]) / a["median"]
            spreads = [r["spread"] for r in (a, b)]
            flag = worse > m["bound"] or (m["name"] != "setup_s" and any(
                s > m["bound"] for s in spreads))
            over += flag
            print("%-12s %-22s %12.6g %12.6g %+8.3f %8.3f %8.3f %6.2f%s" % (
                workload, m["name"], a["median"], b["median"], worse, spreads[0],
                spreads[1], m["bound"], "  OVER" if flag else ""))
    return 1 if over else 0


def main(argv=None):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"),
                        help="seed range, e.g. 1-10")
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the record as JSON here")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"),
                        help="check two end-to-end records against the bounds")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare, declared)
    bounds = {m["name"]: m.get("bound") for m in declared["end_to_end"]}

    import numpy

    record = {
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "run_seconds": declared["run_seconds"],
        "trace": args.trace,
        "workloads": {},
    }
    for workload in args.workload or names:
        runs = []
        for seed in args.seeds:
            cmd = declared["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(declared["run_seconds"]), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall_s = time.perf_counter() - t0
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                raise SystemExit("%s seed %d exited %d" % (workload, seed, proc.returncode))
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            result["wall_s"] = wall_s
            runs.append(result)
            print("%s seed %d (%.0f s): %s" % (workload, seed, wall_s, " ".join(
                "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items()
                if k in bounds or args.trace)), flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = dict(summarize(values), values=values,
                                 unit=runs[0]["metrics"][name]["unit"])
            if args.trace == 0:
                s = metrics[name]["spread"]
                print("  %-22s median %-12.6g spread %-8s bound %s" % (
                    name, metrics[name]["median"],
                    "-" if s is None else "%.4f" % s, bounds.get(name)))
        record["workloads"][workload] = {
            "seeds": args.seeds,
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "wall_s": [r["wall_s"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "metrics": metrics,
        }
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
