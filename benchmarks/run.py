"""tricoil benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 benchmarks/run.py --workload angle-sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics.  The seed fixes a list of
operations; fresh workload processes (BLAS threads pinned to 1) each run
the whole list once, one operation after another, until the passes' timed
operations add up to ``--seconds``.  The first pass checks every output,
and every later pass must reproduce its outputs bit for bit.  ``--trace 1``
reports the per-layer metrics of a separate traced run.

The second-to-last stdout line is a detail record (run environment,
latency sample count and percentile, error rate, failures); the last line
is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits 2 without a result when the package source under ``src/`` is
missing or a workload process fails.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
BENCHMARK = ROOT / "BENCHMARK.json"

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_PASSES = 2  # byte-identical outputs are checked across passes
SETUP_SAMPLES = 9  # fresh processes timed for setup_s: the passes, topped up with probes
DEADLINE_S = 170.0  # the whole run ends within this


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env.pop("TRICOIL_OUT", None)
    return env


def run_worker(args: list, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a workload process")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def src_nonblank_lines() -> int:
    return sum(
        sum(1 for line in path.read_text().splitlines() if line.strip())
        for path in sorted(SRC.rglob("*.py"))
    )


def environment(workload: str, seed: int, worker: dict) -> dict:
    return {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": worker.get("numpy"),
        "blas": worker.get("blas"),
        "blas_threads": {var: worker_env()[var] for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "input_rng": f"random.Random('{workload}:{seed}')",
        "src_nonblank_lines": src_nonblank_lines(),
    }


def measure(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """Passes in fresh processes until their timed operations add up to ``seconds``."""
    common = ["--workload", workload, "--seed", str(seed)]
    # Passes take turns on the allowed CPUs: the host's contention hits each
    # virtual CPU in its own phases, so the passes sample both.
    cpus = sorted(os.sched_getaffinity(0))
    passes, busy = [], 0.0
    while len(passes) < MIN_PASSES or busy < seconds:
        started = time.monotonic()
        if passes and deadline - started < 3 * pass_wall:
            break  # no room left for another pass
        cpu = ["--cpu", str(cpus[len(passes) % len(cpus)])]
        passes.append(run_worker(common + cpu + (["--check"] if not passes else []), deadline))
        pass_wall = time.monotonic() - started
        busy += sum(passes[-1]["times"])
    setup = [p["setup_s"] for p in passes]
    while len(setup) < SETUP_SAMPLES:
        setup.append(run_worker(common + ["--setup-only"], deadline)["setup_s"])

    failures = [f for p in passes for f in p["failures"]]
    failed = sum(p["failed"] for p in passes)
    for p in passes[1:]:
        for i, (a, b) in enumerate(zip(passes[0]["digests"], p["digests"])):
            if a is not None and b is not None and a != b:
                failed += 1
                failures.append([f"operation {i}: outputs differ between two passes"])
    attempted = sum(p["attempted"] for p in passes)

    # An operation's latency is its median time over the passes.  The host's
    # contention comes in phases of seconds; a quiet phase that happens to
    # fall in one run would move a best time, not a median.
    typical = sorted((statistics.median(times) for times in zip(*(p["times"] for p in passes))), reverse=True)
    tail_index = min(10, len(typical) - 1)  # ten samples beyond the reported one
    units = inputs.units_per_op(workload)
    return {
        "setup_s": statistics.median(setup),
        "throughput_per_s": units * len(typical) / sum(typical),
        "latency_p50_ms": 1e3 * statistics.median(typical),
        "latency_tail_ms": 1e3 * typical[tail_index],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "latency_tail_percentile": 100.0 * (1.0 - tail_index / len(typical)),
        "latency_samples": len(typical),
        "timed_runs": sum(len(p["times"]) for p in passes),
        "passes": len(passes),
        "busy_s": busy,
        "setup_samples_s": setup,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures": failures[:5],
        "numpy": passes[0]["numpy"],
        "blas": passes[0]["blas"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tricoil benchmark")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    # on SIGTERM, unwind so that subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "tricoil" / "__init__.py").is_file():
        print(f"error: no tricoil package source under {SRC}", file=sys.stderr)
        return 2
    # the metrics and their units are the ones BENCHMARK.json declares
    wanted = json.loads(BENCHMARK.read_text())["per_layer" if args.trace else "end_to_end"]
    try:
        if args.trace:
            trace_args = ["--workload", args.workload, "--seed", str(args.seed), "--trace-seconds", str(args.seconds)]
            figures = run_worker(trace_args, deadline)
        else:
            figures = measure(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(json.dumps({"environment": environment(args.workload, args.seed, figures), "detail": figures}))
    result = {
        "correct": figures["failed"] == 0,
        "attempted": figures["attempted"],
        "failed": figures["failed"],
        "metrics": {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
