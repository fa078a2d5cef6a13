"""One workload in one fresh process; started by run.py, prints one JSON line.

Times are rescaled by the speed of the machine at the moment they are
taken.  The host's CPU is shared, and its speed for this process swings by
a factor of up to 2.5 within seconds (a fixed loop takes 0.15 ms or 0.3 ms
depending on what else the host runs).  So a short probe loop runs before
the first case, after every case, and every SAMPLE_S seconds inside a case
(from a timer signal; the time spent there is taken out of the case's
time).  Each case's time is multiplied by PROBE_REF_S / (mean of the probes
taken during it or within NEAR_S of it): times read as seconds on this
machine when it is not contended.  The probe uses only the standard
library, so no change to sphtwist can move it.

Roles:
  setup  import sphtwist, build the inputs, call each case kind once on its
         smallest instance, report the time that took (scaled by probes
         taken just before and just after it);
  run    the same set-up, one untimed warm-up pass whose outputs are checked,
         then timed passes until --seconds have passed (at least
         MIN_PASSES), each compared with the warm-up pass;
  trace  like run, with tracer.Tracer installed after set-up.
"""

import argparse
import gc
import json
import math
import os
import resource
import signal
import sys
import time
from fractions import Fraction

PROBE_REF_S = 1.5e-4  # the probe's time on the reference machine, uncontended
SAMPLE_S = 0.1  # probe period inside long cases
NEAR_S = 0.05  # probes this close to a case also measure its speed
MIN_PASSES = 3
_KEYS = ([("e", i) for i in range(1, 6)] + [("a", i, i + 1) for i in range(1, 5)]
         + [("l", i) for i in range(1, 6)])


def _probe_kernel():
    """The engine's inner-loop mix: tuple-keyed dicts, Fractions, small lists."""
    acc = {}
    x = Fraction(1)
    row = []
    for r in range(1, 25):
        for k in _KEYS:
            s = acc.get(k, 0) + r
            if s % 7:
                acc[k] = s
            else:
                acc.pop(k, None)
        x = x * Fraction(r + 1, r) - Fraction(1, r + 2)
        row = [(k, v) for k, v in acc.items() if v & 1]
    return len(row), x


def probe():
    """Seconds the probe kernel takes now (best of five)."""
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        _probe_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class Speedometer:
    """Probes (time taken, seconds) appended from a timer signal while a case runs."""

    def __init__(self, probes):
        self.probes = probes
        self.spent_wall = 0.0
        self.spent_cpu = 0.0

    def _tick(self, _signum, _frame):
        t0, c0 = time.perf_counter(), time.process_time()
        self.probes.append((t0, probe()))
        self.spent_wall += time.perf_counter() - t0
        self.spent_cpu += time.process_time() - c0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_pass(wl, tracer):
    gc.collect()
    if tracer is not None:
        tracer.reset()
    wl.stdout_bytes = 0
    clock = time.perf_counter
    cpu_clock = time.process_time
    outputs, spans, probes = [], [], [(clock(), probe())]
    for case in wl.cases:
        with Speedometer(probes) as speed:
            t0, c0 = clock(), cpu_clock()
            try:
                out, error = case.run(), None
            except Exception as exc:  # a failed operation; counted, never fatal
                out, error = None, "%s: %s" % (type(exc).__name__, exc)
            t1, c1 = clock(), cpu_clock()
        spans.append((t0, t1, t1 - t0 - speed.spent_wall, c1 - c0 - speed.spent_cpu))
        probes.append((clock(), probe()))
        outputs.append((out, error))
    walls, cpus, raw = [], [], []
    for t0, t1, wall, cpu in spans:
        near = [p for t, p in probes if t0 - NEAR_S <= t <= t1 + NEAR_S]
        scale = PROBE_REF_S * len(near) / sum(near)
        walls.append(wall * scale)
        cpus.append(cpu * scale)
        raw.append(wall)
    summary = {
        "wall_s": sum(walls),
        "cpu_s": sum(cpus),
        "top_s": sum(w for c, w in zip(wl.cases, walls) if c.name == wl.top),
        "light_s": sum(w for c, w in zip(wl.cases, walls) if c.light),
        "raw_wall_s": sum(raw),
        "attempted": len(wl.cases),
        "failed": sum(error is not None for _out, error in outputs),
    }
    if tracer is not None:
        # per-layer times come from unscaled spans; give them the pass's scale
        scale = summary["wall_s"] / summary["raw_wall_s"]
        summary["layers"] = {k: v * scale if k.endswith("_s") else v
                             for k, v in tracer.layer_metrics(wl.stdout_bytes).items()}
    return outputs, summary


def main():
    before = probe()
    start = time.perf_counter()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--role", choices=("setup", "run", "trace"), required=True)
    args = ap.parse_args()

    bench = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(bench), "src")
    sys.path[:0] = [src, bench]
    import sphtwist

    if not os.path.abspath(sphtwist.__file__).startswith(src + os.sep):
        sys.exit("sphtwist was imported from %s, not from %s" % (sphtwist.__file__, src))
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    for case in wl.smallest():
        try:
            case.run()
        except Exception:  # the same operation fails again, and is counted, in every pass
            pass
    setup = time.perf_counter() - start
    # set-up is scaled by the mean of a probe just before it and one just after
    result = {"setup_s": setup * 2 * PROBE_REF_S / (before + probe()),
              "raw_setup_s": setup}
    if args.role == "setup":
        print(json.dumps(result))
        return

    tracer = None
    if args.role == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    warm, _ = run_pass(wl, tracer)
    problems = []
    for case, (out, error) in zip(wl.cases, warm):
        if error is None:
            problems += ["%s: %s" % (case.name, p) for p in case.check(out)]
        elif not case.known_fault:
            problems.append("%s: raised %s" % (case.name, error))
    expected = [(workloads.canon(out), error) for out, error in warm]
    del warm

    passes = []
    begin = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - begin < args.seconds:
        outputs, summary = run_pass(wl, tracer)
        for case, (out, error), want in zip(wl.cases, outputs, expected):
            if (workloads.canon(out), error) != want:
                problems.append("%s: output differs from the warm-up pass" % case.name)
        passes.append(summary)
        del outputs

    if tracer is not None:
        write_trace(os.path.join(bench, "out", "trace-%s-seed%d.json" % (
            args.workload, args.seed)), args, tracer)
    result.update(
        passes=passes,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        correct=not problems,
        problems=problems[:20],
        failed_cases=[c.name for c, (_o, e) in zip(wl.cases, expected) if e is not None],
    )
    print(json.dumps(result))


def write_trace(path, args, tracer):
    """The spans and per-name totals of the last traced pass."""
    names = sorted({s[0] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    t0 = tracer.spans[0][2] if tracer.spans else 0.0
    data = {
        "workload": args.workload,
        "seed": args.seed,
        "names": names,
        "spans": [[index[n], parent, round(start - t0, 7), round(end - start, 7)]
                  for n, parent, start, end in tracer.spans],
        "by_name": {n: {"calls": c, "total_s": t, "self_s": s}
                    for n, (c, t, s) in sorted(tracer.aggregate().items())},
        "counts": dict(tracer.counts),
    }
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh)


if __name__ == "__main__":
    main()
