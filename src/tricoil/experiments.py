"""Sweep studies: strategy comparisons over receiver orientation and threshold.

Four operating strategies are compared on identical geometry:

* ``equal``   - equal current in every transmit coil, uniform combiner.
* ``tx-only`` - eigen-solved current, uniform combiner.
* ``rx-only`` - equal current, proportional combiner weights.
* ``joint``   - alternating optimization of both.

The reported joint pathloss is the best iterate of the trace, not the
last: the weight rule carries no monotonicity guarantee, and best-iterate
reporting makes the dominance properties (every optimizing strategy at
least as good as equal allocation) provable.

Percentage reductions are computed in the dB domain,
``100 * (L_equal - L_optimized) / L_equal``.  Note that dB-percentages
depend on the absolute pathloss level and therefore on the electrical
constants; dB *differences* do not.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from tricoil.circuit import LinkParams, equal_weights, pathloss_db
from tricoil.geometry import FRAME_ORTHONORMAL, TriadPose, receiver_pose_from_alpha, transmitter_pose
from tricoil.magnetics import FORMULA_CANONICAL, CoilSpec, mutual_matrix
from tricoil.optimizer import alternate, equal_current, optimal_current, optimal_weights

STRATEGY_JOINT = "joint"
STRATEGY_TX_ONLY = "tx-only"
STRATEGY_RX_ONLY = "rx-only"
STRATEGY_EQUAL = "equal"
STRATEGIES = (STRATEGY_JOINT, STRATEGY_TX_ONLY, STRATEGY_RX_ONLY, STRATEGY_EQUAL)

DEFAULT_DELTA = 2.5e-2
DEFAULT_MAX_ITER = 100


@dataclass(frozen=True)
class Scenario:
    """One simulated link: coils, geometry, electrical context, and modes."""

    tx: CoilSpec
    rx: CoilSpec
    rx_center: np.ndarray
    link: LinkParams
    frame_mode: str = FRAME_ORTHONORMAL
    formula_mode: str = FORMULA_CANONICAL
    tx_pose: TriadPose = dataclasses.field(default_factory=transmitter_pose)

    def __post_init__(self):
        object.__setattr__(self, "rx_center", np.asarray(self.rx_center, dtype=float))

    @classmethod
    def reference(
        cls,
        turns: int = 10,
        radius: float = 0.1,
        wire_resistance_per_meter: float = 0.01,
        rx_center=(1.0, 1.0, 1.5),
        frequency_hz: float = 1.0e7,
        current_amplitude: float = 2.0,
        frame_mode: str = FRAME_ORTHONORMAL,
        formula_mode: str = FORMULA_CANONICAL,
    ) -> "Scenario":
        """The default study scenario (10-turn 0.1 m coils, receiver at (1,1,1.5))."""
        coil = CoilSpec(turns=turns, radius=radius, wire_resistance_per_meter=wire_resistance_per_meter)
        link = LinkParams.matched(coil, coil, frequency_hz=frequency_hz, current_amplitude=current_amplitude)
        return cls(
            tx=coil,
            rx=coil,
            rx_center=np.asarray(rx_center, dtype=float),
            link=link,
            frame_mode=frame_mode,
            formula_mode=formula_mode,
        )

    def mutual_at(self, alpha: float) -> np.ndarray:
        """Mutual-inductance matrix with the receiver tilted by ``alpha``."""
        pose = receiver_pose_from_alpha(alpha, self.frame_mode)
        rx_pose = dataclasses.replace(pose, center=self.rx_center)
        return mutual_matrix(self.tx_pose, rx_pose, self.tx, self.rx, self.formula_mode)


@dataclass(frozen=True)
class SweepPoint:
    """Per-angle strategy comparison on identical geometry."""

    alpha: float
    joint_db: float
    txonly_db: float
    rxonly_db: float
    equal_db: float
    iterations: int
    converged: bool

    def loss(self, strategy: str) -> float:
        return {
            STRATEGY_JOINT: self.joint_db,
            STRATEGY_TX_ONLY: self.txonly_db,
            STRATEGY_RX_ONLY: self.rxonly_db,
            STRATEGY_EQUAL: self.equal_db,
        }[strategy]


@dataclass(frozen=True)
class SweepResult:
    points: tuple

    def losses(self, strategy: str) -> np.ndarray:
        return np.array([p.loss(strategy) for p in self.points])

    def alphas(self) -> np.ndarray:
        return np.array([p.alpha for p in self.points])


@dataclass(frozen=True)
class ThresholdPoint:
    """Joint-strategy statistics over an angle grid for one stopping threshold."""

    delta: float
    mean_reduction_pct: float
    mean_iterations: float


@dataclass(frozen=True)
class StrategyStats:
    mean: float
    minimum: float
    maximum: float

    @property
    def fluctuation(self) -> float:
        return self.maximum - self.minimum


@dataclass(frozen=True)
class SweepSummary:
    """Aggregate view of a sweep: per-strategy pathloss statistics."""

    per_strategy: dict
    mean_reduction_pct: float
    mean_iterations: float


def _strategy_loss(m, link: LinkParams, strategy: str, delta=DEFAULT_DELTA, max_iter=DEFAULT_MAX_ITER):
    """Pathloss of one strategy on one mutual matrix, and the joint strategy's trace."""
    if strategy == STRATEGY_EQUAL:
        return pathloss_db(m, equal_current(link), equal_weights(), link), None
    if strategy == STRATEGY_TX_ONLY:
        currents = optimal_current(m, equal_weights(), link)
        return pathloss_db(m, currents, equal_weights(), link), None
    if strategy == STRATEGY_RX_ONLY:
        currents = equal_current(link)
        weights = optimal_weights(m, currents)
        return pathloss_db(m, currents, weights, link), None
    if strategy == STRATEGY_JOINT:
        trace = alternate(m, link, delta=delta, max_iter=max_iter)
        return trace.best_round().pathloss, trace
    raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")


def run_strategy(
    scenario: Scenario,
    alpha: float,
    strategy: str,
    delta: float = DEFAULT_DELTA,
    max_iter: int = DEFAULT_MAX_ITER,
):
    """Pathloss of one strategy at one angle; the joint strategy also returns its trace.

    Returns ``(pathloss_db, trace)`` where ``trace`` is ``None`` for the
    closed-form strategies (they involve no iteration).
    """
    return _strategy_loss(scenario.mutual_at(alpha), scenario.link, strategy, delta, max_iter)


def angle_sweep(scenario: Scenario, grid, delta: float = DEFAULT_DELTA, max_iter: int = DEFAULT_MAX_ITER) -> SweepResult:
    """All four strategies at every angle of ``grid``; deterministic, grid order kept."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("angle grid must be nonempty")
    link = scenario.link
    points = []
    for alpha in grid:
        m = scenario.mutual_at(alpha)
        equal_db, _ = _strategy_loss(m, link, STRATEGY_EQUAL)
        txonly_db, _ = _strategy_loss(m, link, STRATEGY_TX_ONLY)
        rxonly_db, _ = _strategy_loss(m, link, STRATEGY_RX_ONLY)
        joint_db, trace = _strategy_loss(m, link, STRATEGY_JOINT, delta, max_iter)
        points.append(
            SweepPoint(
                alpha=float(alpha),
                joint_db=joint_db,
                txonly_db=txonly_db,
                rxonly_db=rxonly_db,
                equal_db=equal_db,
                iterations=trace.iterations,
                converged=trace.converged,
            )
        )
    return SweepResult(points=tuple(points))


def threshold_sweep(scenario: Scenario, deltas, angle_grid, max_iter: int = DEFAULT_MAX_ITER) -> list:
    """Joint-strategy reduction and iteration statistics for each stopping threshold.

    Each angle is solved once, at the smallest threshold; every threshold's
    run is the prefix of that trace that ``OptimizationTrace.truncated``
    cuts, identical to a fresh ``alternate`` at that threshold.
    """
    deltas = [float(d) for d in deltas]
    if any(not d > 0.0 for d in deltas):
        raise ValueError("thresholds must be positive")
    if not deltas:
        return []
    angle_grid = np.asarray(angle_grid, dtype=float)
    mutuals = [scenario.mutual_at(alpha) for alpha in angle_grid]
    link = scenario.link
    equal_losses = np.array([_strategy_loss(m, link, STRATEGY_EQUAL)[0] for m in mutuals])
    smallest = min(deltas)
    traces = [alternate(m, link, delta=smallest, max_iter=max_iter) for m in mutuals]

    points = []
    for delta in deltas:
        reductions = np.empty(len(mutuals))
        iterations = np.empty(len(mutuals))
        for k, full in enumerate(traces):
            trace = full.truncated(delta)
            joint = trace.best_round().pathloss
            reductions[k] = 100.0 * (equal_losses[k] - joint) / equal_losses[k]
            iterations[k] = trace.iterations
        points.append(
            ThresholdPoint(
                delta=delta,
                mean_reduction_pct=float(np.mean(reductions)),
                mean_iterations=float(np.mean(iterations)),
            )
        )
    return points


def summary_stats(result: SweepResult) -> SweepSummary:
    """Mean/min/max pathloss per strategy, mean dB-percentage reduction, mean iterations."""
    if not result.points:
        raise ValueError("sweep result is empty")
    per_strategy = {}
    for strategy in STRATEGIES:
        losses = result.losses(strategy)
        per_strategy[strategy] = StrategyStats(
            mean=float(np.mean(losses)),
            minimum=float(np.min(losses)),
            maximum=float(np.max(losses)),
        )
    equal = result.losses(STRATEGY_EQUAL)
    joint = result.losses(STRATEGY_JOINT)
    reductions = 100.0 * (equal - joint) / equal
    iterations = np.array([p.iterations for p in result.points])
    return SweepSummary(
        per_strategy=per_strategy,
        mean_reduction_pct=float(np.mean(reductions)),
        mean_iterations=float(np.mean(iterations)),
    )
