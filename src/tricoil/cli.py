"""Command-line entry point: experiment dispatch, CSV emission, SVG plots.

Subcommands::

    optimize        alternating optimization at one angle -> trace.csv
    sweep-angle     four-strategy orientation sweep       -> sweep.csv
    sweep-threshold stopping-threshold study              -> threshold.csv
    oracle          brute-force verifier reports          -> oracle.csv
    mutual          coupling matrix at one angle          -> mutual.csv

Exit codes: 0 success, 1 validation/usage error, 2 runtime or verifier
failure.  The ``TRICOIL_OUT`` environment variable overrides the output
directory.  Numeric CSV fields carry 17 significant digits so outputs
diff cleanly across runs; identical configuration and seed produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from tricoil.config import ConfigError, ScenarioConfig, parse_config
from tricoil.circuit import equal_weights
from tricoil.experiments import angle_sweep, summary_stats, threshold_sweep
from tricoil.geometry import FRAME_MODES, alpha_grid
from tricoil.magnetics import FORMULA_MODES
from tricoil.optimizer import alternate, equal_current
from tricoil.oracle import OracleFailure, verify_current_step, verify_dipole_expansion, verify_weight_step
from tricoil.plots import angle_sweep_plot, threshold_plot, trace_plot

ENV_OUT = "TRICOIL_OUT"
DEFAULT_THRESHOLDS = tuple(np.logspace(-4.0, 0.0, 13))


class _Parser(argparse.ArgumentParser):
    """Argument parser that exits with status 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _f17(value) -> str:
    return format(float(value), ".17g")


def build_parser() -> _Parser:
    parser = _Parser(prog="tricoil", description="Tri-directional coil link simulator and beamforming optimizer")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="JSON configuration file")
    common.add_argument("--out", type=Path, help="output directory (default from config)")
    common.add_argument("--alpha", type=float, help="receiver tilt angle in radians (default 1.0)")
    common.add_argument("--delta", type=float, help="stopping threshold in dB")
    common.add_argument("--angles", type=int, help="number of sweep angles")
    common.add_argument("--seed", type=int, help="random seed for the verifiers")
    common.add_argument("--plot", action="store_true", help="also render SVG plots")
    common.add_argument("--frame-mode", choices=FRAME_MODES, help="receiver frame construction")
    common.add_argument("--formula-mode", choices=FORMULA_MODES, help="coupling formula variant")

    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    sub.add_parser("optimize", parents=[common], help="run the alternating optimization at one angle")
    sub.add_parser("sweep-angle", parents=[common], help="compare strategies over the orientation sweep")
    sub.add_parser("sweep-threshold", parents=[common], help="study the stopping-threshold trade-off")
    sub.add_parser("oracle", parents=[common], help="run the brute-force verifiers")
    sub.add_parser("mutual", parents=[common], help="emit the mutual-inductance matrix at one angle")
    return parser


def _load_config(args) -> ScenarioConfig:
    if args.config is not None:
        try:
            text = Path(args.config).read_bytes()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        cfg = parse_config(text)
    else:
        cfg = ScenarioConfig()

    overrides = {}
    if args.delta is not None:
        overrides["delta"] = args.delta
    if args.angles is not None:
        overrides["angles"] = args.angles
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.frame_mode is not None:
        overrides["frame_mode"] = args.frame_mode
    if args.formula_mode is not None:
        overrides["formula_mode"] = args.formula_mode
    if args.out is not None:
        overrides["out_dir"] = str(args.out)
    return dataclasses.replace(cfg, **overrides)  # construction validates the result


def _out_dir(cfg: ScenarioConfig) -> Path:
    env = os.environ.get(ENV_OUT)
    out = Path(env) if env else Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {path}")


def _write_text(path: Path, text: str):
    path.write_bytes(text.encode("utf-8"))
    print(f"wrote {path}")


def _cmd_optimize(cfg: ScenarioConfig, alpha: float, out: Path, plot: bool) -> int:
    scenario = cfg.scenario()
    m = scenario.mutual_at(alpha)
    trace = alternate(m, scenario.link, delta=cfg.delta, max_iter=cfg.max_iter)
    rows = [
        [step.iteration, _f17(alpha)]
        + [_f17(v) for v in step.currents]
        + [_f17(v) for v in step.weights]
        + [_f17(step.pathloss)]
        for step in trace.steps
    ]
    _write_csv(out / "trace.csv", ["iter", "alpha", "i1", "i2", "i3", "s1", "s2", "s3", "pathloss_db"], rows)
    if plot:
        _write_text(out / "trace.svg", trace_plot(trace, alpha))
    best = trace.best_round()
    print(
        f"alpha={alpha:g} converged={str(trace.converged).lower()} iterations={trace.iterations} "
        f"start={trace.steps[0].pathloss:.4f} dB best={best.pathloss:.4f} dB"
    )
    return 0


def _cmd_sweep_angle(cfg: ScenarioConfig, out: Path, plot: bool) -> int:
    scenario = cfg.scenario()
    result = angle_sweep(scenario, alpha_grid(cfg.angles), delta=cfg.delta, max_iter=cfg.max_iter)
    rows = [
        [
            _f17(p.alpha),
            _f17(p.joint_db),
            _f17(p.txonly_db),
            _f17(p.rxonly_db),
            _f17(p.equal_db),
            p.iterations,
            str(p.converged).lower(),
        ]
        for p in result.points
    ]
    _write_csv(
        out / "sweep.csv",
        ["alpha", "joint_db", "txonly_db", "rxonly_db", "equal_db", "iters", "converged"],
        rows,
    )
    if plot:
        _write_text(out / "sweep.svg", angle_sweep_plot(result))
    summary = summary_stats(result)
    for strategy, stats in summary.per_strategy.items():
        print(
            f"{strategy:8s} mean={stats.mean:.4f} dB  min={stats.minimum:.4f}  "
            f"max={stats.maximum:.4f}  fluctuation={stats.fluctuation:.4f}"
        )
    print(f"mean reduction {summary.mean_reduction_pct:.2f}%  mean iterations {summary.mean_iterations:.2f}")
    return 0


def _cmd_sweep_threshold(cfg: ScenarioConfig, out: Path, plot: bool) -> int:
    scenario = cfg.scenario()
    points = threshold_sweep(scenario, DEFAULT_THRESHOLDS, alpha_grid(cfg.angles), max_iter=cfg.max_iter)
    rows = [[_f17(p.delta), _f17(p.mean_reduction_pct), _f17(p.mean_iterations)] for p in points]
    _write_csv(out / "threshold.csv", ["delta", "mean_reduction_pct", "mean_iters"], rows)
    if plot:
        _write_text(out / "threshold.svg", threshold_plot(points))
    return 0


def _cmd_oracle(cfg: ScenarioConfig, alpha: float, out: Path) -> int:
    scenario = cfg.scenario()
    m = scenario.mutual_at(alpha)
    reports = [
        verify_current_step(m, equal_weights(), samples=100_000, seed=cfg.seed),
        verify_weight_step(m, equal_current(scenario.link), grid=50),
        verify_dipole_expansion(trials=1000, seed=cfg.seed, tx=scenario.tx, rx=scenario.rx),
    ]
    rows = [
        [r.claim, _f17(r.closed_form), _f17(r.oracle_best), _f17(r.gap), r.samples, r.seed]
        for r in reports
    ]
    _write_csv(out / "oracle.csv", ["claim", "closed_form", "oracle_best", "gap", "samples", "seed"], rows)
    for r in reports:
        print(f"{r.claim}: gap={r.gap:.3e} samples={r.samples} seed={r.seed}")
    return 0


def _cmd_mutual(cfg: ScenarioConfig, alpha: float, out: Path) -> int:
    scenario = cfg.scenario()
    m = scenario.mutual_at(alpha)
    header = ["alpha"] + [f"m{i + 1}{j + 1}" for i in range(3) for j in range(3)]
    rows = [[_f17(alpha)] + [_f17(v) for v in m.ravel()]]
    _write_csv(out / "mutual.csv", header, rows)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        cfg = _load_config(args)
        out = _out_dir(cfg)
        alpha = 1.0 if args.alpha is None else float(args.alpha)
        if args.command == "optimize":
            return _cmd_optimize(cfg, alpha, out, args.plot)
        if args.command == "sweep-angle":
            return _cmd_sweep_angle(cfg, out, args.plot)
        if args.command == "sweep-threshold":
            return _cmd_sweep_threshold(cfg, out, args.plot)
        if args.command == "oracle":
            return _cmd_oracle(cfg, alpha, out)
        if args.command == "mutual":
            return _cmd_mutual(cfg, alpha, out)
        raise ConfigError(f"unknown subcommand {args.command!r}")
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OracleFailure as exc:
        print(f"verifier failure: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, OSError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
