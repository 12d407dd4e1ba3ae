"""Operations of the four workloads and the checks of their outputs.

Each workload turns a generated ``inputs.Op`` into arguments (``prepare``,
untimed), runs the operation (``run``, the timed part), gathers what it
produced (``outcome``, untimed) and checks that against the independent
references in ``reference.py`` (``check``, untimed).  Calls into tricoil go
through module attributes so that the tracer's wrappers are used when it
is installed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

import tricoil.cli
import tricoil.config
import tricoil.optimizer

import inputs
import reference as ref
from reference import DB_TOL, REL_TOL

THRESHOLDS = np.logspace(-4.0, 0.0, inputs.THRESHOLD_COUNT)


class OpFailed(RuntimeError):
    """The program returned a nonzero exit code."""


def _grid(count: int) -> np.ndarray:
    return np.arange(count) * (2.0 * math.pi / count)


def _close(value: float, expected: float, rel: float = REL_TOL) -> bool:
    return abs(value - expected) <= rel * max(abs(expected), 1e-300)


def _rows(data: bytes, header: list) -> list:
    lines = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    if not lines or lines[0] != header:
        raise ValueError(f"CSV header {lines[:1]} differs from {header}")
    return lines[1:]


def _check_svg(data: bytes) -> list:
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        return [f"SVG does not parse: {exc}"]
    return [] if root.tag.endswith("svg") else [f"SVG root element is {root.tag!r}"]


class CliWorkload:
    """A workload whose operation is one in-process ``tricoil`` CLI call."""

    name = ""
    files = ()

    def argv(self, op: inputs.Op, out: Path) -> list:
        raise NotImplementedError

    def prepare(self, op: inputs.Op, out: Path) -> list:
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.json").write_text(op.doc)
        return self.argv(op, out)

    def run(self, argv: list):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = tricoil.cli.main(argv)
        if code != 0:
            raise OpFailed(f"exit code {code}: {sink.getvalue().strip()[-300:]}")

    def outcome(self, argv: list, out: Path, result) -> dict:
        return {name: (out / name).read_bytes() for name in self.files}

    def check(self, op: inputs.Op, outcome: dict) -> list:
        errors = []
        for name, data in outcome.items():
            if name.endswith(".svg"):
                errors += _check_svg(data)
        return errors + self.check_csv(op, outcome)

    def check_csv(self, op: inputs.Op, outcome: dict) -> list:
        raise NotImplementedError

    @staticmethod
    def written_bytes(outcome: dict) -> tuple:
        """(all bytes written, SVG bytes) of one operation."""
        total = sum(len(data) for data in outcome.values())
        svg = sum(len(data) for name, data in outcome.items() if name.endswith(".svg"))
        return total, svg


class AngleSweep(CliWorkload):
    name = "angle-sweep"
    files = ("sweep.csv", "sweep.svg")
    header = ["alpha", "joint_db", "txonly_db", "rxonly_db", "equal_db", "iters", "converged"]

    def argv(self, op, out):
        angles = str(inputs.SWEEP_ANGLES)
        return ["sweep-angle", "--plot", "--config", str(out / "config.json"), "--out", str(out), "--angles", angles]

    def check_csv(self, op, outcome):
        rows = _rows(outcome["sweep.csv"], self.header)
        grid = _grid(inputs.SWEEP_ANGLES)
        if len(rows) != len(grid):
            return [f"sweep.csv has {len(rows)} rows, expected {len(grid)}"]
        link = ref.Link(json.loads(op.doc))
        scenario = tricoil.config.parse_config(op.doc).scenario()
        errors, equal = [], []
        for row, alpha in zip(rows, grid):
            got = dict(zip(self.header, row))
            if abs(float(got["alpha"]) - alpha) > 1e-12:
                errors.append(f"alpha {got['alpha']} is not grid angle {alpha!r}")
                continue
            m = scenario.mutual_at(alpha)
            if link.gram_identity_error(m) > REL_TOL:
                errors.append(f"alpha={alpha:.6f}: mutual matrix breaks the dipole Gram identity")
            want = link.strategies(m)
            for col in ("joint_db", "txonly_db", "rxonly_db", "equal_db"):
                if not abs(float(got[col]) - want[col]) <= DB_TOL:
                    errors.append(f"alpha={alpha:.6f}: {col} {got[col]} vs reference {want[col]!r}")
            if int(got["iters"]) != want["iters"] or got["converged"] != str(want["converged"]).lower():
                errors.append(
                    f"alpha={alpha:.6f}: iters/converged {got['iters']}/{got['converged']} "
                    f"vs reference {want['iters']}/{want['converged']}"
                )
            if not float(got["joint_db"]) >= link.optimum_db(m) - DB_TOL:
                errors.append(f"alpha={alpha:.6f}: joint_db {got['joint_db']} below the closed-form optimum")
            equal.append(float(got["equal_db"]))
        if equal and not max(equal) - min(equal) <= DB_TOL:
            errors.append(f"equal_db varies by {max(equal) - min(equal):.3e} dB over orientation")
        return errors


class ThresholdSweep(CliWorkload):
    name = "threshold-sweep"
    files = ("threshold.csv", "threshold.svg")
    header = ["delta", "mean_reduction_pct", "mean_iters"]

    def argv(self, op, out):
        angles = str(inputs.THRESHOLD_ANGLES)
        return ["sweep-threshold", "--plot", "--config", str(out / "config.json"), "--out", str(out), "--angles", angles]

    def check_csv(self, op, outcome):
        rows = _rows(outcome["threshold.csv"], self.header)
        if len(rows) != len(THRESHOLDS):
            return [f"threshold.csv has {len(rows)} rows, expected {len(THRESHOLDS)}"]
        link = ref.Link(json.loads(op.doc))
        scenario = tricoil.config.parse_config(op.doc).scenario()
        reductions = np.empty((len(THRESHOLDS), inputs.THRESHOLD_ANGLES))
        iterations = np.empty_like(reductions)
        optimum = np.empty(inputs.THRESHOLD_ANGLES)
        # joint >= optimum per angle bounds the mean reduction only while
        # every equal-allocation pathloss, the divisor, is positive
        positive = True
        errors = []
        for k, alpha in enumerate(_grid(inputs.THRESHOLD_ANGLES)):
            m = scenario.mutual_at(alpha)
            if link.gram_identity_error(m) > REL_TOL:
                errors.append(f"alpha={alpha:.6f}: mutual matrix breaks the dipole Gram identity")
            equal = link.pathloss(m, link.equal_current(), ref.UNIFORM)
            positive = positive and equal > 0.0
            optimum[k] = 100.0 * (equal - link.optimum_db(m)) / equal
            losses, converged = link.alternate(m, THRESHOLDS.min())
            for j, delta in enumerate(THRESHOLDS):
                best, rounds = ref.truncate(losses, converged, delta, link.max_iter)
                reductions[j, k] = 100.0 * (equal - best) / equal
                iterations[j, k] = rounds
        for j, (row, delta) in enumerate(zip(rows, THRESHOLDS)):
            got_delta, got_reduction, got_iters = (float(v) for v in row)
            if not _close(got_delta, delta, 1e-12):
                errors.append(f"threshold {row[0]} is not {delta!r}")
            if not abs(got_reduction - np.mean(reductions[j])) <= DB_TOL:
                errors.append(f"delta={delta:.3g}: mean_reduction_pct {row[1]} vs reference {np.mean(reductions[j])!r}")
            if not abs(got_iters - np.mean(iterations[j])) <= 1e-12:
                errors.append(f"delta={delta:.3g}: mean_iters {row[2]} vs reference {np.mean(iterations[j])!r}")
            if positive and not got_reduction <= np.mean(optimum) + DB_TOL:
                errors.append(f"delta={delta:.3g}: mean reduction beats the closed-form optimum")
        return errors


class Oracle(CliWorkload):
    name = "oracle"
    files = ("oracle.csv",)
    header = ["claim", "closed_form", "oracle_best", "gap", "samples", "seed"]

    def argv(self, op, out):
        return ["oracle", "--seed", str(op.oracle_seed), "--alpha", repr(op.alpha), "--out", str(out)]

    def check_csv(self, op, outcome):
        rows = {row[0]: row for row in _rows(outcome["oracle.csv"], self.header)}
        if sorted(rows) != ["current_step", "dipole_expansion", "weight_step"]:
            return [f"oracle.csv claims {sorted(rows)}"]
        link = ref.Link(json.loads(op.doc))
        m = tricoil.config.parse_config(op.doc).scenario().mutual_at(op.alpha)
        errors = []
        if link.gram_identity_error(m) > REL_TOL:
            errors.append("mutual matrix breaks the dipole Gram identity")
        sm = m * ref.UNIFORM
        top = float(np.linalg.eigvalsh(sm @ sm.T)[-1])
        a2 = (m.T @ link.equal_current()) ** 2
        expected = {
            "current_step": (top, None, 100_000, op.oracle_seed),
            "weight_step": (float(np.sum(a2 * a2) / np.sum(a2)), float(np.max(a2)), 1326, 0),
            "dipole_expansion": (None, None, 1000, op.oracle_seed),
        }
        for claim, (closed, best, samples, seed) in expected.items():
            _, got_closed, got_best, got_gap, got_samples, got_seed = rows[claim]
            got_closed, got_best, got_gap = float(got_closed), float(got_best), float(got_gap)
            if closed is not None and not _close(got_closed, closed):
                errors.append(f"{claim}: closed_form {got_closed!r} vs reference {closed!r}")
            if best is not None and not _close(got_best, best):
                errors.append(f"{claim}: oracle_best {got_best!r} vs reference {best!r}")
            if not abs(got_gap - ref.relative_gap(got_closed, got_best)) <= 1e-12:
                errors.append(f"{claim}: gap {got_gap!r} is not the relative gap of its row")
            if (int(got_samples), int(got_seed)) != (samples, seed):
                errors.append(f"{claim}: samples/seed {got_samples}/{got_seed}, expected {samples}/{seed}")
        if not float(rows["current_step"][3]) <= 1e-9:
            errors.append("current_step: a random current beat the eigen solution")
        if not float(rows["dipole_expansion"][1]) <= 1e-12:
            errors.append("dipole_expansion: z/y rows deviate from the dipole formula")
        return errors


class SingleLink:
    """parse_config -> scenario -> mutual_at -> alternate -> best_round, for each link of an operation."""

    name = "single-link"

    def prepare(self, op, out):
        return op

    def run(self, op):
        return [self.solve(link) for link in op.links]

    @staticmethod
    def solve(link):
        cfg = tricoil.config.parse_config(link.doc)
        scenario = cfg.scenario()
        m = scenario.mutual_at(link.alpha)
        trace = tricoil.optimizer.alternate(m, scenario.link, delta=cfg.delta, max_iter=cfg.max_iter)
        return m, trace, trace.best_round()

    def outcome(self, op, out, result):
        """The outputs of link ``i`` under keys ``"<i>.<name>"``."""
        outcome = {}
        for i, (m, trace, best) in enumerate(result):
            outcome.update({
                f"{i}.m": m.copy(),
                f"{i}.pathloss": best.pathloss,
                f"{i}.iterations": trace.iterations,
                f"{i}.converged": trace.converged,
                f"{i}.currents": np.array(best.currents),
                f"{i}.weights": np.array(best.weights),
            })
        return outcome

    def check(self, op, outcome):
        errors = []
        for i, link in enumerate(op.links):
            got = {key.split(".", 1)[1]: value for key, value in outcome.items() if key.startswith(f"{i}.")}
            errors += [f"link {i}: {error}" for error in self.check_link(link, got)]
        return errors

    @staticmethod
    def check_link(op, outcome):
        doc = json.loads(op.doc)
        link = ref.Link(doc)
        m = outcome["m"]
        errors = []
        losses, converged = link.alternate(m, link.delta)
        if (outcome["iterations"], outcome["converged"]) != (len(losses), converged):
            errors.append(
                f"iterations/converged {outcome['iterations']}/{outcome['converged']} "
                f"vs reference {len(losses)}/{converged}"
            )
        if not abs(outcome["pathloss"] - min(losses)) <= DB_TOL:
            errors.append(f"best pathloss {outcome['pathloss']!r} vs reference {min(losses)!r}")
        if not outcome["pathloss"] >= link.optimum_db(m) - DB_TOL:
            errors.append("best pathloss below the closed-form optimum")
        if not abs(float(outcome["weights"] @ outcome["weights"]) - 1.0) <= 1e-12:
            errors.append("weights do not have unit square-sum")
        if not _close(float(outcome["currents"] @ outcome["currents"]), link.p0 / link.r_t):
            errors.append("currents do not meet the power budget")
        if doc["frame_mode"] == "orthonormal" and doc["formula_mode"] == "canonical":
            if link.gram_identity_error(m) > REL_TOL:
                errors.append("mutual matrix breaks the dipole Gram identity")
        return errors

    @staticmethod
    def written_bytes(outcome):
        return 0, 0


WORKLOADS = {w.name: w for w in (AngleSweep(), ThresholdSweep(), SingleLink(), Oracle())}


def digest(outcome: dict) -> str:
    """SHA-256 over an operation's outputs, bit for bit."""
    h = hashlib.sha256()
    for key in sorted(outcome):
        value = outcome[key]
        h.update(key.encode())
        if isinstance(value, np.ndarray):
            h.update(f"{value.dtype.str}{value.shape}".encode())
            h.update(value.tobytes())
        elif isinstance(value, bytes):
            h.update(value)
        elif isinstance(value, float):
            h.update(value.hex().encode())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()
