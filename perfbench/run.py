"""tangleweb benchmark: one closed-loop client, one process, one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The process sets up what the workload needs
(timed from the start of this script, as `setup_s`), then runs the
workload's operations one after another and checks every output, or a
seeded sample of them, outside the timed region.

Stream workloads (normalize-stream, evaluate-stream) run fresh seeded
batches until S seconds of operations have been timed; `wall_s` is the
median batch time.  Fixed workloads (centralizer-tables, certify-dims) run
their list once; `wall_s` is its time.

Every time in the end-to-end metrics is scaled to one reference speed of the
host, sampled while it is measured (see speed.py); the unscaled wall time
is printed beside them.

--trace 0 prints the end-to-end metrics.  --trace 1 first runs the same
workload untraced in a child process, then repeats the same batches with
every layer wrapped (see tracing.py) and prints the per-layer metrics and
the tracing overhead.  Spans go to .perfbench/ under the repository root.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import speed  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
# the library reads this only in its command line; keep every run on defaults
BUDGET_WAS_SET = os.environ.pop("TANGLEWEB_BUDGET", None) is not None

try:
    import workloads  # noqa: E402  (imports tangleweb from src/)
except ImportError as exc:
    sys.exit(f"cannot import the library from {ROOT / 'src'}: {exc}")
if not pathlib.Path(sys.modules["tangleweb"].__file__).is_relative_to(ROOT / "src"):
    sys.exit(f"tangleweb was imported from outside {ROOT / 'src'}")

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "latency_p50_ms": "ms",
    "latency_tail_ms": "ms", "peak_rss_mb": "MB", "ok_ops_frac": "ratio",
}
# set-up samples: the first from this process, the rest each in a fresh
# process; at least two, and a third while their total stays under the
# budget (the dim7 rule derivation alone takes 6-11 s on a shared 2-core VM)
SETUP_SAMPLES_MIN = 2
SETUP_SAMPLES_MAX = 3
SETUP_SAMPLE_BUDGET_S = 6.0
CHILD_TIMEOUT_S = 170
PROBE = speed.Probe()


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest inputs; for the benchmark's own smoke test")
    # internal modes, used by this script's child processes
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--timing-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def run_ops(wl, args, tracer=None, batches=None):
    """Run batches of operations.

    Returns the (start, end) of each batch, the (start, end) of each
    operation by batch, and the (op, result) pairs to check: the sampled
    ones and every one that raised.
    """
    batch_spans, op_spans, kept = [], [], []
    elapsed = 0.0
    index = 0
    op_id = 0
    perf = time.perf_counter
    while True:
        if batches is not None:
            if index >= batches:
                break
        elif index > 0 and (not wl.streaming or elapsed >= args.seconds):
            break
        ops = wl.batch(args.seed, index, tiny=args.tiny)
        lat = []
        t0 = perf()
        for op in ops:
            if tracer is not None:
                tracer.op = op_id
            s = perf()
            try:
                result = wl.run(op)
            except Exception as exc:  # an operation that raises is a failed op
                result = exc
            lat.append((s, perf()))
            if isinstance(result, Exception) or op.check:
                kept.append((op, result))
            op_id += 1
        t1 = perf()
        batch_spans.append((t0, t1))
        op_spans.append(lat)
        elapsed += t1 - t0
        index += 1
    return batch_spans, op_spans, kept


def run_checks(wl, kept, seed):
    failed = []
    for op, result in kept:
        if isinstance(result, Exception):
            failed.append(f"{op.kind}/{op.case}: raised {result!r}")
            continue
        try:
            ok = wl.check(op, result, seed)
        except Exception as exc:  # a check that raises counts as failed
            ok = False
            result = exc
        if not ok:
            failed.append(f"{op.kind}/{op.case}: check failed")
    return failed


def tail(latencies):
    """Highest percentile with at least ten samples beyond it, as
    (seconds, percentile, samples beyond); with fewer than 20 samples none
    lies at or above the median, so the maximum."""
    xs = sorted(latencies)
    n = len(xs)
    if n >= 20:
        return xs[n - 11], 100.0 * (n - 10) / n, 10
    return xs[-1], 100.0, 0


def setup_sample(args):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                         timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    return float(out.stdout.strip().splitlines()[-1])


def untraced_child(args):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--timing-only"]
    if args.tiny:
        cmd.append("--tiny")
    out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                         timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    return json.loads(out.stdout.strip().splitlines()[-1])


def emit(lines, result):
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)


def main(argv=None):
    args = parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]()
    PROBE.start()

    if args.setup_only:
        wl.setup()
        print(repr(PROBE.scaled(T_START, time.perf_counter())))
        return 0

    if args.trace:
        PROBE.stop()
        return main_traced(args, wl)

    wl.setup()
    setup_end = time.perf_counter()
    batch_spans, op_spans, kept = run_ops(wl, args)
    PROBE.stop()
    if args.timing_only:
        print(json.dumps({"batches": len(batch_spans),
                          "ops_s": sum(PROBE.net(a, b) for a, b in batch_spans)}))
        return 0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = run_checks(wl, kept, args.seed)

    setups = [PROBE.scaled(T_START, setup_end)]
    while not args.tiny and (len(setups) < SETUP_SAMPLES_MIN or (
            len(setups) < SETUP_SAMPLES_MAX and sum(setups) < SETUP_SAMPLE_BUDGET_S)):
        setups.append(setup_sample(args))

    batch_times = [PROBE.scaled(a, b) for a, b in batch_spans]
    latencies = [[PROBE.scaled(a, b) for a, b in lat] for lat in op_spans]
    all_lat = [x for lat in latencies for x in lat]
    attempted = len(all_lat)
    # the tail of each batch, then the median over batches: one run's
    # slowest few operations vary too much from seed to seed to compare
    tails = [tail(lat) for lat in latencies]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(batch_times),
        "latency_p50_ms": statistics.median(all_lat) * 1e3,
        "latency_tail_ms": statistics.median(t for t, _, _ in tails) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "ok_ops_frac": 1.0 - len(failed) / attempted,
    }
    raw_wall = statistics.median(PROBE.net(a, b) for a, b in batch_spans)
    loops = sorted(PROBE.loops)
    lines = [
        f"env: python {platform.python_version()}, nproc {os.cpu_count()}, "
        f"TANGLEWEB_BUDGET {'was set; removed for the run' if BUDGET_WAS_SET else 'unset'}",
        f"workload {wl.name} (seed {args.seed}): {len(batch_spans)} batch(es), "
        f"{attempted} operations, {len(kept)} outputs checked",
        "inputs: " + json.dumps(wl.profile(), sort_keys=True),
        f"times are scaled to the reference speed (speed.py): {len(loops)} probe samples, "
        f"reference loop {loops[0] * 1e3:.3f} / {loops[len(loops) // 2] * 1e3:.3f} / "
        f"{loops[-1] * 1e3:.3f} ms (min / median / max) against {speed.REFERENCE_S * 1e3:.3f} ms; "
        f"unscaled wall_s {raw_wall:.6g} s",
        f"setup samples (s): {', '.join(f'{s:.4f}' for s in setups)}",
        f"latency_tail_ms is p{tails[0][1]:.2f} of the {len(latencies[0])} operations of "
        f"a batch ({tails[0][2]} beyond it), median over {len(latencies)} batch(es); "
        f"latency_p50_ms is over all {attempted} operations",
    ]
    lines += [f"metric {k} = {v:.6g} {END_TO_END[k]}" for k, v in values.items()]
    lines.append(f"metric failed_ops_frac = {len(failed) / attempted:.6g} ratio")
    lines += [f"FAILED {f}" for f in failed[:20]]
    emit(lines, {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()},
    })
    return 0


def main_traced(args, wl):
    import tracing

    base = untraced_child(args)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wl.setup()
        batch_spans, op_spans, kept = run_ops(wl, args, tracer=tracer,
                                              batches=base["batches"])
    finally:
        tracer.uninstall()
    failed = run_checks(wl, kept, args.seed)
    traced_s = sum(b - a for a, b in batch_spans)
    attempted = sum(map(len, op_spans))
    metrics = tracer.per_layer(traced_s - base["ops_s"])
    units = tracing.metric_units()
    out_path = ROOT / ".perfbench" / f"spans-{wl.name}-seed{args.seed}.tsv.gz"
    tracer.write_spans(out_path)
    lines = [
        f"traced workload {wl.name} (seed {args.seed}): {len(batch_spans)} batch(es), "
        f"{attempted} operations; untraced {base['ops_s']:.4f} s, traced {traced_s:.4f} s",
        f"spans: {tracer.spans_total} recorded, first {min(tracer.spans_total, tracer.span_cap)} "
        f"written to {out_path.relative_to(ROOT)}",
    ]
    lines += [f"layer {k} = {v:.6g} {units[k]}" for k, v in metrics.items()]
    lines += [f"FAILED {f}" for f in failed[:20]]
    emit(lines, {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        PROBE.stop()
