"""Workload process: runs operations of one workload and prints its figures as one JSON line.

Started by ``run.py`` with BLAS threads pinned to 1.  The operations are
``inputs.operations(workload, seed, 1 + OPS)``; operation 0 is an untimed
warm-up.  Modes:

``--setup-only``
    time ``import tricoil``, the parse of the workload's first config and
    the ``Scenario`` build, in this fresh process, and exit.
(default)
    one pass: a closed loop with one caller runs the operations back to
    back and records each one's time and output digest; with ``--check``
    every output is checked against the references, outside the timed
    region.
``--trace-seconds S``
    alternate an untraced and a traced pass over the operations for at
    most S seconds (at least once); per-layer figures come from the traced
    passes, counters from the first one, and their time ratio is the
    tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# The span sum may differ from the harness's own clock by the cost of the
# root span itself; anything more means time went missing.
SPAN_SUM_TOL = 0.01
MAX_REPORTED_ERRORS = 5


def measure_setup(workload: str, seed: int) -> float:
    """Seconds to import tricoil, parse the workload's config and build its Scenario."""
    doc = inputs.operations(workload, seed, 1 + inputs.OPS[workload])[0].doc
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import tricoil.config

    if workload != "single-link":
        import tricoil.cli  # noqa: F401  (the CLI workloads run through it)
    tricoil.config.parse_config(doc).scenario()
    elapsed = time.perf_counter() - start
    if not Path(tricoil.config.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"tricoil was imported from {tricoil.config.__file__}, not from {SRC}")
    return elapsed


class Runner:
    """Runs operations of one workload and keeps the tally of failures."""

    def __init__(self, workload, out: Path):
        self.workload = workload
        self.out = out
        self.attempted = 0
        self.failures = []

    def execute(self, op, tracer=None):
        """Run one operation; return (seconds, outcome or None, errors)."""
        self.attempted += 1
        args = self.workload.prepare(op, self.out)
        start = time.perf_counter()
        try:
            result = tracer.op(self.workload.run, args) if tracer else self.workload.run(args)
        except Exception as exc:  # a raising operation is a failed operation, not a crash
            return time.perf_counter() - start, None, [f"{type(exc).__name__}: {exc}"]
        seconds = time.perf_counter() - start
        return seconds, self.workload.outcome(args, self.out, result), []

    def check(self, op, outcome, errors) -> bool:
        if not errors:
            try:
                errors = self.workload.check(op, outcome)
            except Exception as exc:  # malformed output makes the check raise
                errors = [f"check raised {type(exc).__name__}: {exc}"]
        self.fail(errors)
        return not errors

    def fail(self, errors):
        if errors:
            self.failures.append(errors[:MAX_REPORTED_ERRORS])

    def tally(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": len(self.failures),
            "error_rate": len(self.failures) / self.attempted,
            "failures": self.failures[:MAX_REPORTED_ERRORS],
        }


def run_pass(runner: Runner, ops: list, check: bool) -> dict:
    """One untimed warm-up operation, then every operation of ``ops`` timed.

    Returns the per-operation times and output digests; with ``check`` the
    outputs are also checked against the references (untimed).
    """
    import workloads

    times, digests = [], []
    gc.collect()
    for op in ops:
        elapsed, outcome, errors = runner.execute(op)
        times.append(elapsed)
        digests.append(None if outcome is None else workloads.digest(outcome))
        if check:
            runner.check(op, outcome, errors)
        else:
            runner.fail(errors)
    return {"times": times[1:], "digests": digests}


def run_traced(runner: Runner, ops: list, seconds: float) -> dict:
    import numpy as np
    import tracing
    import workloads

    _, outcome, errors = runner.execute(ops[0])
    runner.check(ops[0], outcome, errors)
    ops = ops[1:]
    tracer = tracing.Tracer()
    untraced_s, traced_s, layer_self, reps = 0.0, 0.0, [], 0
    started = time.perf_counter()
    # stop before a repetition would end past ``seconds``
    while reps == 0 or (time.perf_counter() - started) * (reps + 1) / reps <= seconds:
        plain = []
        for op in ops:
            elapsed, outcome, errors = runner.execute(op)
            untraced_s += elapsed
            runner.check(op, outcome, errors)
            plain.append(outcome)
        traced, pass_s = [], 0.0
        tracer.install()
        try:
            for op in ops:
                elapsed, outcome, errors = runner.execute(op, tracer)
                pass_s += elapsed
                traced.append((outcome, errors))
        finally:
            tracer.uninstall()
        traced_s += pass_s
        for expected, (outcome, errors) in zip(plain, traced):
            if not errors and expected is not None and workloads.digest(expected) != workloads.digest(outcome):
                errors = ["traced and untraced outputs differ"]
            runner.fail(errors)

        spans, observed = tracer.take()
        summary = tracing.summarize(tracer, spans, observed)
        layer_self.append(summary["self_s"])
        if not summary["nested"] or summary["self_sum_residual"] > 1e-9:
            runner.fail(["spans do not nest: self times do not add up to the span total"])
        if abs(summary["pass_s"] - pass_s) > SPAN_SUM_TOL * pass_s:
            runner.fail([f"span total {summary['pass_s']:.6f} s vs traced pass {pass_s:.6f} s"])
        if reps == 0:
            first_summary, first_spans = summary, spans
            written = [runner.workload.written_bytes(o) for o, _ in traced if o is not None]
        elif (summary["counters"], summary["calls"]) != (first_summary["counters"], first_summary["calls"]):
            runner.fail(["counters differ between two traced passes of the same operations"])
        reps += 1

    OUT.mkdir(exist_ok=True)
    fid, start, end, parent = (np.array(col) for col in zip(*first_spans))
    np.savez_compressed(
        OUT / f"spans-{runner.workload.name}.npz",
        names=np.array(tracer.names), fid=fid, start=start, end=end, parent=parent,
    )

    layers = {f"{layer}.self_s": statistics.median(rep[layer] for rep in layer_self) for layer in layer_self[0]}
    layers.update({f"{layer}.calls": n for layer, n in first_summary["calls"].items()})
    layers.update(first_summary["counters"])
    layers.update({
        "plots.bytes": sum(svg for _, svg in written),
        "cli.bytes_written": sum(total for total, _ in written),
        "trace.overhead_ratio": traced_s / untraced_s,
        "trace.passes": reps,
        "trace.ops_per_pass": len(ops),
        "trace.span_sum_s": first_summary["pass_s"],
        "trace.spans_per_pass": len(first_spans),
    })
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, help="operations per pass (default per workload)")
    parser.add_argument("--cpu", type=int, help="run on this CPU only")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--check", action="store_true", help="check every output of the pass")
    parser.add_argument("--trace-seconds", type=float, help="traced run of this many seconds instead of one pass")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    setup_s = measure_setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy as np
    import workloads

    # operation 0 is the untimed warm-up of each pass
    ops = inputs.operations(args.workload, args.seed, 1 + (args.ops or inputs.OPS[args.workload]))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        runner = Runner(workloads.WORKLOADS[args.workload], workdir)
        if args.trace_seconds is not None:
            figures = run_traced(runner, ops, args.trace_seconds)
        else:
            figures = run_pass(runner, ops, args.check)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    figures.update(runner.tally())
    figures["setup_s"] = setup_s
    figures["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    figures["numpy"] = np.__version__
    try:
        figures["blas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # older numpy prints instead of returning a dict
        figures["blas"] = None
    print(json.dumps(figures))
    return 0


if __name__ == "__main__":
    sys.exit(main())
