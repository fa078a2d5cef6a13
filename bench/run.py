"""Benchmark for sphtwist: four closed-loop workloads, one fresh process each.

    python3 bench/run.py                          # all four workloads
    python3 bench/run.py --workload ladder --seed 1 --seconds 20 --trace 0

Each workload runs in its own single-threaded process (child.py) that
imports sphtwist from this checkout's src/: set-up, one untimed warm-up
pass whose outputs are checked, then timed passes over a fixed list of
cases until --seconds have passed.  Every time metric is a median over
passes of one fixed aggregate, never a percentile across cases of
different sizes, and every case time is scaled by the machine's speed at
the time (see child.py).  Set-up is repeated in fresh processes and its
median reported.

With --trace 1 the run reports per-layer metrics instead: a traced process
(tracer.py) gives spans and counts, and an untraced one of equal length
gives the baseline for the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Exit codes: 0 when the run completed
(correct may still be false), 2 when the checkout or a child is broken.
"""

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("ladder", "iso", "cli", "shadows")
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("top_s", "s"),
    ("light_s", "s"),
    ("peak_rss_mb", "MB"),
)
SETUP_SAMPLES = 15  # fresh processes whose set-up times give setup_s
BUDGET_S = 170.0  # one workload's run must end within this many seconds

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


class BenchError(Exception):
    pass


def loadavg():
    return " ".join("%.2f" % x for x in os.getloadavg())


def child(workload, seed, seconds, role, deadline):
    cmd = [sys.executable, os.path.join(BENCH, "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--role", role]
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        raise BenchError("no time left for the %s %s process" % (workload, role))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError("%s %s process ran out of time" % (workload, role))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("%s %s process failed (exit %d): %s" % (
            workload, role, proc.returncode, proc.stderr.strip()[-2000:]))
    return json.loads(lines[-1])


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def run_workload(workload, seed, seconds, trace, deadline):
    """One workload: returns (correct, attempted, failed, metrics, notes)."""
    if not trace:
        # set-up samples before and after the main process, spread in time
        samples = [child(workload, seed, seconds, "setup", deadline)
                   for _ in range(SETUP_SAMPLES // 2)]
        main = child(workload, seed, seconds, "run", deadline)
        samples += [main] + [child(workload, seed, seconds, "setup", deadline)
                             for _ in range(SETUP_SAMPLES - 1 - SETUP_SAMPLES // 2)]
        setups = [s["setup_s"] for s in samples]
        raw_setups = [s["raw_setup_s"] for s in samples]
        passes = main["passes"]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": median_of(passes, "wall_s"),
            "cpu_s": median_of(passes, "cpu_s"),
            "top_s": median_of(passes, "top_s"),
            "light_s": median_of(passes, "light_s"),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        print("%s: unscaled medians: wall %.4f s, set-up %.4f s" % (
            workload, median_of(passes, "raw_wall_s"), statistics.median(raw_setups)))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
        runs = [main]
    else:
        plain = child(workload, seed, seconds / 2, "run", deadline)
        traced = child(workload, seed, seconds / 2, "trace", deadline)
        layers = [p["layers"] for p in traced["passes"]]
        metrics = {}
        for name, first in layers[0].items():
            unit = "s" if name.endswith("_s") else (
                "bytes" if name.endswith("_bytes") else "count")
            median = statistics.median if unit == "s" else statistics.median_low
            metrics[name] = {"value": median(l[name] for l in layers), "unit": unit}
            if unit != "s" and any(l[name] != first for l in layers):
                print("note: %s differs between traced passes" % name)
        overhead = median_of(traced["passes"], "wall_s") - median_of(plain["passes"],
                                                                     "wall_s")
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        passes = traced["passes"]
        runs = [plain, traced]
    problems = [p for r in runs for p in r["problems"]]
    notes = ["passes: %d; failed cases: %s" % (
        len(passes), ", ".join(runs[-1]["failed_cases"]) or "none")]
    notes += ["CHECK FAILED: " + p for p in problems]
    return (all(r["correct"] for r in runs), sum(p["attempted"] for p in passes),
            sum(p["failed"] for p in passes), metrics, notes)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed seconds per workload (at least three passes); "
                    "default run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "sphtwist", "__init__.py")):
        print("error: %s holds no src/sphtwist to benchmark" % ROOT, file=sys.stderr)
        return 2
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            args.seconds = float(json.load(fh)["run_seconds"])
    compileall.compile_dir(os.path.join(ROOT, "src", "sphtwist"), quiet=1)
    compileall.compile_dir(BENCH, quiet=1, maxlevels=0)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        print("%s: load average at start %s" % (name, loadavg()), flush=True)
        try:
            correct, attempted, failed, metrics, notes = run_workload(
                name, args.seed, args.seconds, args.trace,
                time.monotonic() + BUDGET_S)
        except BenchError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        print("%s: load average at end %s" % (name, loadavg()))
        for note in notes:
            print("%s: %s" % (name, note))
        for metric, m in metrics.items():
            print("%-8s %-34s %14.6f %s" % (name, metric, m["value"], m["unit"]))
        print("%-8s attempted %d, failed %d, correct %s" % (
            name, attempted, failed, str(correct).lower()), flush=True)
        total["correct"] = total["correct"] and correct
        total["attempted"] += attempted
        total["failed"] += failed
        if len(names) == 1:
            total["metrics"] = metrics
        else:
            total["metrics"].update(("%s.%s" % (name, k), v) for k, v in metrics.items())
    print(json.dumps(total, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
