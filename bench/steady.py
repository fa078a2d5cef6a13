"""Steadiness check: two sets of runs per workload, compared against the bounds.

    python3 bench/steady.py --runs 10
    python3 bench/steady.py --workloads iso --runs 5

Each run is ``run.py --workload W --seed S --trace 0`` with a new seed and
the run length from BENCHMARK.json; set 1
uses seeds 1..runs and set 2 the next ``runs`` seeds, and set 2
starts after set 1 has finished on every workload.  For each set and each
end-to-end metric it prints the median, the quartiles (statistics.quantiles,
n=4) and the spread (q3 - q1) / median.  A metric agrees when both sets'
spreads are within its bound from BENCHMARK.json and neither set's median
is worse than the other's by more than the bound; the share of failed
operations must be identical in both sets.  Spreads above a third
of the bound are marked, since the bound must leave room for real changes.
The load average printed by each run is passed through.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def run_once(workload, seed):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    for line in lines:
        if "load average" in line or "CHECK FAILED" in line or "unscaled" in line:
            print("  seed %d %s" % (seed, line))
    if proc.returncode != 0 or not lines:
        raise SystemExit("run failed: %s\n%s" % (" ".join(cmd), proc.stderr[-2000:]))
    result = json.loads(lines[-1])
    result["elapsed_s"] = time.monotonic() - t0
    return result


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=None, help="comma-separated; default all")
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])

    results = {w: [[], []] for w in workloads}
    for s in range(2):
        for w in workloads:
            for r in range(args.runs):
                seed = 1 + s * args.runs + r
                res = run_once(w, seed)
                results[w][s].append(res)
                print("set %d %-8s seed %-3d %5.1f s  %s" % (
                    s + 1, w, seed, res["elapsed_s"], " ".join(
                        "%s=%.4g" % (k, v["value"]) for k, v in res["metrics"].items())),
                    flush=True)

    all_agree = True
    report = {"seconds": spec["run_seconds"], "runs": args.runs, "workloads": {}}
    print("\nworkload metric        bound  " + "  ".join(
        "set%d median [q1, q3] spread" % (s + 1) for s in range(2)) + "  verdict")
    for w in workloads:
        sets = results[w]
        shares = {(sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))
                  for runs in sets}
        share_ok = len({f / a for f, a in shares}) == 1
        correct = all(r["correct"] for runs in sets for r in runs)
        rows = {}
        for metric, bound in bounds.items():
            stats = [summarize([r["metrics"][metric]["value"] for r in runs])
                     for runs in sets]
            spread_ok = all(st["spread"] <= bound for st in stats)
            ratio = stats[1]["median"] / stats[0]["median"]
            drift = ratio - 1
            # neither set's median may be worse than the other's by more than the bound
            agree = spread_ok and max(ratio, 1 / ratio) - 1 <= bound
            steady = all(st["spread"] <= bound / 3 for st in stats)
            all_agree = all_agree and agree
            rows[metric] = {"bound": bound, "sets": stats, "drift": drift,
                            "agree": agree, "steady": steady}
            print("%-8s %-13s %5.2f  %s  drift %+.3f  %s%s" % (
                w, metric, bound, "  ".join(
                    "%.4g [%.4g, %.4g] %.3f" % (st["median"], st["q1"], st["q3"],
                                                st["spread"]) for st in stats),
                drift, "agree" if agree else "DISAGREE",
                "" if steady else " (spread above bound/3)"))
        print("%-8s failed/attempted per set: %s  %s; outputs %s" % (
            w, ", ".join("%d/%d" % fa for fa in sorted(shares)),
            "same share" if share_ok else "SHARES DIFFER",
            "correct" if correct else "INCORRECT"))
        all_agree = all_agree and share_ok and correct
        report["workloads"][w] = {"metrics": rows, "failed_share_equal": share_ok,
                                  "correct": correct}
    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
    path = os.path.join(BENCH, "out", "steady-%s.json" % time.strftime("%Y%m%dT%H%M%S"))
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    print("\n%s; details in %s" % ("all metrics agree" if all_agree else
                                   "some metrics DISAGREE", os.path.relpath(path, ROOT)))
    return 0 if all_agree else 1


if __name__ == "__main__":
    sys.exit(main())
