"""Self-test of the benchmark itself.  Run from the repository root:

    python3 benchmarks/selftest.py

1. A traced run reports every per-layer metric of ``BENCHMARK.json``, and
   the exact-repeat counters come out identical from two fresh processes
   given the same seed, for every workload.
2. Each workload's output check passes on a clean operation and catches a
   small perturbation of one output value.
3. Installing and removing the tracer leaves every tricoil binding as it was.
4. The workloads are the ones ``BENCHMARK.json`` declares, apart from the
   runnable but undeclared ``inputs.UNDECLARED``.

Exits 1 on the first failed assertion.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import run  # noqa: E402

EXACT_COUNTERS = (
    "optimizer.rounds",
    "optimizer.eig_calls",
    "magnetics.calls",
    "magnetics.unique_ratio",
    "optimizer.useful_round_ratio",
    "oracle.samples",
)
SELFTEST_OPS = {"angle-sweep": 2, "threshold-sweep": 1, "single-link": 5, "oracle": 3}


def traced_counters(workload: str, seed: int) -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--trace-seconds", "0",
            "--ops", str(SELFTEST_OPS[workload])]
    figures = run.run_worker(args, deadline=time.monotonic() + 300)
    declared = [m["name"] for m in json.loads(run.BENCHMARK.read_text())["per_layer"]]
    missing = [name for name in declared if name not in figures]
    assert not missing, f"{workload}: traced run lacks per-layer metrics {missing}"
    return {name: figures[name] for name in EXACT_COUNTERS}


def test_counters_repeat():
    for workload in inputs.WORKLOADS:
        first, second = traced_counters(workload, 5), traced_counters(workload, 5)
        assert first == second, f"{workload}: counters differ between runs: {first} vs {second}"
        print(f"ok  counters repeat exactly: {workload} {first}")


def _perturb_csv(data: bytes, row: int, col: int, delta: float) -> bytes:
    lines = data.decode().splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[row] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode()


PERTURB = {
    "angle-sweep": lambda o: {**o, "sweep.csv": _perturb_csv(o["sweep.csv"], 5, 1, 1e-6)},
    "threshold-sweep": lambda o: {**o, "threshold.csv": _perturb_csv(o["threshold.csv"], 2, 1, 1e-6)},
    "single-link": lambda o: {**o, "3.pathloss": o["3.pathloss"] + 1e-6},
    "oracle": lambda o: {**o, "oracle.csv": _perturb_csv(o["oracle.csv"], 1, 1, 1e-6)},
}


def test_checks_catch_perturbation(workdir: Path):
    import workloads

    for name, workload in workloads.WORKLOADS.items():
        out = workdir / name
        for op in inputs.operations(name, 5, 20):
            args = workload.prepare(op, out)
            try:
                result = workload.run(args)
            except workloads.OpFailed:
                continue  # a failing operation has no outputs to perturb
            outcome = workload.outcome(args, out, result)
            break
        assert workload.check(op, outcome) == [], f"{name}: clean outputs fail the check"
        assert workload.check(op, PERTURB[name](outcome)), f"{name}: check misses a 1e-6 perturbation"
        print(f"ok  check passes clean outputs and catches a perturbation: {name}")


def test_tracer_restores_bindings():
    import tracing

    def snapshot():
        return {
            (modname, attr): obj
            for modname, module in sys.modules.items()
            if modname == "tricoil" or modname.startswith("tricoil.")
            for owner in [module] + [v for v in vars(module).values() if isinstance(v, type)]
            for attr, obj in vars(owner).items()
        }

    before = snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    wrapped = sum(1 for key, obj in snapshot().items() if before.get(key) is not obj)
    tracer.uninstall()
    after = snapshot()
    assert wrapped > 50, f"tracer wrapped only {wrapped} bindings"
    changed = [key for key in before if before[key] is not after[key]]
    assert not changed, f"bindings not restored: {changed[:5]}"
    print(f"ok  tracer wraps {wrapped} bindings and restores all of them")


def test_workload_names():
    declared = json.loads(run.BENCHMARK.read_text())
    runnable = tuple(w for w in inputs.WORKLOADS if w not in inputs.UNDECLARED)
    assert tuple(w["name"] for w in declared["workloads"]) == runnable
    print("ok  workload names match BENCHMARK.json")


def main() -> int:
    import shutil
    import tempfile

    test_workload_names()
    test_counters_repeat()
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".bench_out"))
    try:
        test_checks_catch_perturbation(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    test_tracer_restores_bindings()
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (AssertionError, run.BenchError) as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        sys.exit(1)
