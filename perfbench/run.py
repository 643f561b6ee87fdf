"""trigrad benchmark harness.

    python3 perfbench/run.py --workload mixed --seed 7 --seconds 20 --trace 0

Single process, closed loop, one client: the next job starts only when the
previous one has returned.  Inputs come from --seed; each job is timed on
its own and checked exactly after its timer stops.  --seconds sets the
amount of work: the number of rounds of the workload's strata is
--seconds divided by the nominal length of one round on the reference
machine, so a faster program finishes the same job list sooner.  Times
are corrected for the drifting speed of a shared machine with a fixed
probe loop timed around every job (see PROBE_SECONDS).

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones; the
last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}.  --workload all runs every
workload in its own interpreter and prints one table.  --self-test checks
that the exact checks reject a perturbed result and that the per-layer
counters repeat for a repeated seed.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, SRC)

try:
    import trigrad
    import trigrad.cli  # noqa: F401
except ImportError as exc:
    sys.exit(f"perfbench: cannot import trigrad from {SRC}: {exc}")
if not os.path.abspath(trigrad.__file__).startswith(SRC + os.sep):
    sys.exit(f"perfbench: trigrad was imported from {trigrad.__file__}, "
             f"not from {SRC}")

import spans  # noqa: E402
from workloads import WORKLOADS, draw  # noqa: E402

END_TO_END_UNITS = {
    "wall_s": "s",
    "job_s.p50": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
SETUP_REPS = 7
# The reference machine is shared and its speed drifts by +-20 % over
# minutes.  Every time is therefore also reported corrected to the speed at
# which speed_probe() takes PROBE_SECONDS (its typical time there while
# busy): raw * PROBE_SECONDS / probe, with the probe taken around each job.
PROBE_SECONDS = 0.0016
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import trigrad, trigrad.cli\n"
    "print(time.perf_counter() - t)\n"
)


def measure_setup() -> tuple[float, float]:
    """Median, over SETUP_REPS fresh interpreters, of the time that
    `import trigrad, trigrad.cli` takes, corrected and raw; one untimed run
    first writes the bytecode caches."""

    def once() -> float:
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, SRC],
            check=True, capture_output=True, text=True, timeout=120,
        )
        return float(done.stdout)

    once()
    before = speed_probe()
    raw = statistics.median(once() for _ in range(SETUP_REPS))
    after = speed_probe()
    return raw * PROBE_SECONDS / ((before + after) / 2), raw


def _probe_work() -> None:
    d: dict[int, int] = {}
    for i in range(8000):
        k = i * 7919 % 1021
        d[k] = d.get(k, 0) + i * i


def speed_probe() -> float:
    """Seconds a fixed pure-Python loop takes now (best of three).  The
    loop touches no trigrad code, so it tracks only the machine's speed."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        _probe_work()
        best = min(best, perf_counter() - t0)
    return best


def make_jobs(w, seed: int, seconds: float, max_jobs: int | None) -> list:
    rounds = max(1, round(seconds / w.round_seconds))
    inputs = draw(random.Random(seed), w.strata(), rounds)
    if max_jobs is not None:
        inputs = inputs[:max_jobs]
    return inputs


def run_jobs(w, inputs, tracer=None) -> dict:
    """Closed loop over the job list.  Returns per-job times, raw and
    corrected for the machine's speed, and failures; with a tracer, spans
    are recorded while each job runs (not its check)."""
    times, corrected, failed = [], [], 0
    crossings = nvars = 0
    before = speed_probe()
    for inp in inputs:
        prepared = w.prepare(inp)
        c, v = w.describe(prepared)
        crossings += c
        nvars += v
        if tracer is not None:
            tracer.recording = True
        t0 = perf_counter()
        try:
            if tracer is not None:
                with tracer.span("job"):
                    out = w.run(prepared)
            else:
                out = w.run(prepared)
            raised = False
        except Exception:  # a raising job is a failed job; keep going
            traceback.print_exc()
            raised = True
        finally:
            if tracer is not None:
                tracer.recording = False
        times.append(perf_counter() - t0)
        after = speed_probe()
        corrected.append(times[-1] * PROBE_SECONDS / ((before + after) / 2))
        before = after
        if raised or not w.check(prepared, out):
            print(f"perfbench: {w.name} job failed on input {inp!r}",
                  file=sys.stderr)
            failed += 1
    return {
        "times": times,
        "corrected": corrected,
        "failed": failed,
        "crossings": crossings,
        "vars": nvars,
    }


def result_line(attempted, failed, metrics, units) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": v, "unit": units[k]} for k, v in metrics.items()
        },
    }


def untraced(args) -> int:
    w = WORKLOADS[args.workload]
    setup_s, setup_raw = measure_setup()
    inputs = make_jobs(w, args.seed, args.seconds, args.jobs)
    print("inputs " + json.dumps(inputs))
    r = run_jobs(w, inputs)
    times, raw = r["corrected"], r["times"]
    metrics = {
        "wall_s": sum(times),
        "job_s.p50": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "setup_s": setup_s,
    }
    raw_metrics = {
        "wall_s": sum(raw),
        "job_s.p50": statistics.median(raw),
        "setup_s": setup_raw,
    }
    # per-job times, for percentiles pooled over the runs of a set
    print("job_times " + json.dumps(times))
    print("job_times_raw " + json.dumps(raw))
    for k, v in metrics.items():
        extra = f"  (raw {raw_metrics[k]:.6f})" if k in raw_metrics else ""
        print(f"{k:<12} {v:12.6f} {END_TO_END_UNITS[k]}{extra}")
    p90 = statistics.quantiles(times, n=10, method="inclusive")[-1] if (
        len(times) > 1) else times[0]
    print(f"{'job_s.p90':<12} {p90:12.6f} s ({len(times)} jobs)")
    print(f"{'fail_ratio':<12} {r['failed'] / len(times):12.6f} ratio "
          f"({r['failed']} of {len(times)} jobs)")
    print(json.dumps(result_line(len(times), r["failed"], metrics,
                                 END_TO_END_UNITS)))
    return 0


PER_LAYER_UNITS = {
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "braid.crossings": "count",
    "braid.vars": "count",
}


def per_layer_unit(name: str) -> str:
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def child_result(args, trace: int, jobs: int | None = None) -> dict:
    """Run this script on the same arguments in a fresh interpreter and
    return its result line."""
    cmd = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    jobs = jobs if jobs is not None else args.jobs
    if jobs is not None:
        cmd += ["--jobs", str(jobs)]
    done = subprocess.run(cmd, check=True, capture_output=True, text=True,
                          timeout=600)
    return json.loads(done.stdout.strip().splitlines()[-1])


def traced(args) -> int:
    w = WORKLOADS[args.workload]
    inputs = make_jobs(w, args.seed, args.seconds, args.jobs)
    # the first quarter of the job list, untraced, alone, in a fresh
    # interpreter: the reference for the tracing overhead
    nref = max(1, len(inputs) // 4)
    reference = child_result(args, trace=0, jobs=nref)
    print("inputs " + json.dumps(inputs))
    tracer = spans.Tracer()
    tracer.install()
    try:
        r = run_jobs(w, inputs, tracer)
    finally:
        tracer.uninstall()
    wall = sum(r["times"])
    ref_wall = reference["metrics"]["wall_s"]["value"]
    metrics = {
        "trace.wall_s": wall,
        "trace.overhead_ratio": sum(r["corrected"][:nref]) / ref_wall - 1,
        "braid.crossings": r["crossings"],
        "braid.vars": r["vars"],
    }
    metrics.update(tracer.metrics())
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{w.name}-seed{args.seed}.jsonl.gz")
    tracer.write(path)
    print(f"spans {len(tracer.spans)} written to {os.path.relpath(path)}")
    print("span names " + " ".join(sorted(tracer.span_names())))
    gone = sorted(tracer.missing | tracer.broken)
    if gone:
        print("absent hooks " + " ".join(gone), file=sys.stderr)
    for k, v in metrics.items():
        share = f"  {v / wall:7.1%} of trace.wall_s" if (
            k.endswith("_s") and k != "trace.wall_s" and wall
        ) else ""
        print(f"{k:<40} {v:14.6f} {per_layer_unit(k)}{share}")
    units = {k: per_layer_unit(k) for k in metrics}
    print(json.dumps(result_line(len(r["times"]), r["failed"], metrics,
                                 units)))
    return 0


def run_all(args) -> int:
    """Every workload in its own interpreter; one table of metrics."""
    rows, ok = {}, True
    for name in WORKLOADS:
        args.workload = name
        res = child_result(args, trace=args.trace)
        rows[name] = res
        ok = ok and res["correct"]
        for k, m in res["metrics"].items():
            print(f"{name:<9} {k:<40} {m['value']:14.6f} {m['unit']}")
        print(f"{name:<9} {'fail_ratio':<40} "
              f"{res['failed'] / res['attempted']:14.6f} ratio "
              f"({res['failed']} of {res['attempted']} jobs)")
    print(json.dumps(rows))
    return 0 if ok else 1


def self_test(args) -> int:
    """The exact checks must pass on real results and fail on perturbed
    ones; the per-layer counters must repeat for a repeated seed."""
    ok = True
    for w in WORKLOADS.values():
        inp = make_jobs(w, args.seed, w.round_seconds, 1)[0]
        prepared = w.prepare(inp)
        out = w.run(prepared)
        passes = w.check(prepared, out)
        rejects = not w.check(prepared, w.perturb(prepared, out))
        print(f"{w.name:<9} check passes: {passes}  perturbed rejected: "
              f"{rejects}")
        ok = ok and passes and rejects
    for name in WORKLOADS:
        args.workload, args.jobs, args.seconds = name, 2, 1
        first, second = (child_result(args, trace=1) for _ in range(2))
        same = all(
            first["metrics"].get(k) == second["metrics"].get(k)
            for k in spans.COUNTERS
        )
        print(f"{name:<9} counters repeat for seed {args.seed}: {same}")
        ok = ok and same
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--jobs", type=int, default=None,
                    help="cap the job list (quick runs and the self-test)")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if args.self_test:
        return self_test(args)
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return traced(args) if args.trace else untraced(args)


if __name__ == "__main__":
    sys.exit(main())
