"""Benchmark of sumfree, run from the root of a checkout.

    python3 bench/run.py --workload certify --seed 1 --seconds 15 --trace 0

``--workload all`` runs the three workloads in turn, each in a process
of its own, and prints every metric of each.

Workloads (see ``workloads.py``; why each was chosen is in
``BENCHMARK.json``):

  certify   a seeded corpus of 200 set texts through parse, predicate,
            lemma report, proof trace and containment check
  optimize  optimize(3, s, 1600) for s = 1, 2, 3
  discrete  max_k_sum_free at n = 62, k = 3, 4, 5, every maximum set listed

With ``--trace 0`` the run repeats whole passes over the items of the
workload until ``--seconds`` seconds have passed and reports the
end-to-end metrics; set-up time is the median of separate set-up
processes.  With ``--trace 1`` it makes one untraced and one traced
pass over the items and reports the per-layer metrics and the tracing
overhead.  Every time is scaled to a reference host speed sampled
while the program runs (see ``speed.py``), because a shared host can
change speed twofold within a minute.  Every result is checked; the
last line of output is a JSON object, and the exit code is 1 if any
check failed.
The program is imported from ``src/`` of the checkout and nowhere else.
"""

from time import perf_counter

_STARTED = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the seconds since process start at "
                             "reference speed, exit")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    with speed.Probe() as probe:
        program = load_program()
        if program is None:
            return 2
        workload = workloads.WORKLOADS[args.workload](program, args.seed)
        workload.warm_up()
        ready = perf_counter()
    if args.setup_only:
        print(probe.scaled(_STARTED, ready))
        return 0

    report, lines = traced_run(workload, program) if args.trace else timed_run(workload, args)
    env = environment(program)
    print(f"workload={workload.name} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    for line in lines:
        print(line)
    for name, m in report["metrics"].items():
        print(f"  {name} = {m['value']} {m['unit']}")
    print(json.dumps(report))
    return 0 if report["correct"] else 1


def run_all(args) -> int:
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, timeout=600).returncode)
    return status


def load_program():
    """The package from src/ of this checkout, or None after a message."""
    sys.path.insert(0, SRC)
    try:
        program = workloads.load_program()
    except ImportError as exc:
        print(f"cannot import sumfree from {SRC}: {exc}", file=sys.stderr)
        return None
    where = os.path.abspath(program["sumfree"].__file__)
    if os.path.commonpath([where, SRC]) != SRC:
        print(f"sumfree was imported from {where}, not from {SRC}", file=sys.stderr)
        return None
    return program


def environment(program) -> dict:
    return {
        "RATIONAL_BACKEND": program["sumfree"].RATIONAL_BACKEND,
        "KERNEL_BACKEND": program["sumfree.discrete"].KERNEL_BACKEND,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def setup_seconds(args) -> list:
    """Set-up time of fresh processes (import, inputs, warm-up) at
    reference speed."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    out = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
        out.append(float(done.stdout.split()[-1]))
    return out


def _run_item(workload, item):
    """(output or None, start, end, errors) for one item."""
    start = perf_counter()
    try:
        out = workload.call(item)
    except Exception as exc:  # a crash is a wrong answer, not the end of the run
        return None, start, perf_counter(), [f"raised {exc!r}"]
    end = perf_counter()
    return out, start, end, workload.check(item, out)


def timed_run(workload, args):
    """(result, report lines) of a run of about ``args.seconds``."""
    setup = setup_seconds(args)
    items = workload.items
    spans, raw, work, failures = [], 0.0, 0, []
    start = perf_counter()
    with speed.Probe() as probe:
        # whole passes only, so that every run times the same mix of items
        while not spans or perf_counter() - start < args.seconds:
            for item in items:
                _, t0, t1, errs = _run_item(workload, item)
                spans.append((t0, t1))
                work += workload.work(item)
                if errs:
                    failures.append((item, errs))
    # each item's own time, scaled by the host speed sampled around it
    latencies = []
    for t0, t1 in spans:
        raw += probe.net(t0, t1)
        latencies.append(probe.scaled(t0, t1))
    p90 = latencies[0]
    if len(latencies) > 1:
        p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "throughput_per_s": (work / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "latency_p90_ms": (p90 * 1000, "ms"),
    }
    lines = [f"  {len(latencies)} items ({work} x {workload.unit}) in "
             f"{perf_counter() - start:.3f} s; {raw:.3f} s in the program, "
             f"{sum(latencies):.3f} s at reference speed; {len(probe.samples)} speed samples",
             f"  setup samples at reference speed {setup}",
             f"  error_rate = {len(failures)}/{len(latencies)}"]
    lines += _failure_lines(failures)
    return _result(not failures, len(latencies), len(failures), metrics), lines


def traced_run(workload, program):
    """(result, report lines) of one untraced and one traced pass."""
    items = workload.items
    targets, classes = workloads.trace_targets(program)
    tracer = tracing.Tracer()
    with speed.Probe() as probe:
        start = perf_counter()
        plain = [_run_item(workload, item) for item in items]
        middle = perf_counter()
        with tracing.patched(tracer, targets, classes=classes):
            traced = []
            for idx, item in enumerate(items):
                tracer.item = idx
                traced.append(_run_item(workload, item))
        end = perf_counter()
    untraced_s, traced_s = probe.scaled(start, middle), probe.scaled(middle, end)

    failures = []
    for item, (out_p, _, _, errs_p), (out_t, _, _, errs_t) in zip(items, plain, traced):
        errs = [f"untraced: {e}" for e in errs_p] + [f"traced: {e}" for e in errs_t]
        if not errs and workload.summary(out_p) != workload.summary(out_t):
            errs.append("traced result differs from untraced result")
        if errs:
            failures.append((item, errs))
    outs = [out for out, _, _, _ in traced if out is not None]
    work = sum(workload.work(item) for item in items)
    metrics = workloads.layer_metrics(workload, tracer, outs, work, untraced_s, traced_s,
                                      probe.scaled)
    lines = [f"  {len(items)} items, {len(tracer.spans)} spans; "
             f"traced {traced_s:.3f} s vs untraced {untraced_s:.3f} s at reference speed",
             f"  error_rate = {len(failures)}/{len(items)}"]
    lines += _failure_lines(failures)
    return _result(not failures, 2 * len(items), len(failures), metrics), lines


def _failure_lines(failures) -> list:
    return [f"  FAILED {getattr(item, 'text', item)}: {errs}" for item, errs in failures[:20]]


def _result(correct, attempted, failed, metrics) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
