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
from tricoil.optimizer import alternate, alternate_stack, equal_current, optimal_current, optimal_weights

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


def _mutual_stack(scenario: Scenario, grid) -> tuple:
    """The angle grid as an array, and the ``(N, 3, 3)`` stack of its mutual matrices."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("angle grid must be nonempty")
    return grid, np.stack([scenario.mutual_at(alpha) for alpha in grid])


def _closed_form_losses(m, link: LinkParams) -> dict:
    """Equal, tx-only and rx-only pathlosses of one mutual matrix or of each matrix of a stack."""
    i_eq, s_eq = equal_current(link), equal_weights()
    return {
        STRATEGY_EQUAL: pathloss_db(m, i_eq, s_eq, link),
        STRATEGY_TX_ONLY: pathloss_db(m, optimal_current(m, s_eq, link), s_eq, link),
        STRATEGY_RX_ONLY: pathloss_db(m, i_eq, optimal_weights(m, i_eq), link),
    }


def run_strategy(
    scenario: Scenario, alpha: float, strategy: str, delta: float = DEFAULT_DELTA, max_iter: int = DEFAULT_MAX_ITER
):
    """Pathloss of one strategy at one angle; the joint strategy also returns its trace.

    Returns ``(pathloss_db, trace)`` where ``trace`` is ``None`` for the
    closed-form strategies (they involve no iteration).
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    m = scenario.mutual_at(alpha)
    if strategy == STRATEGY_JOINT:
        trace = alternate(m, scenario.link, delta=delta, max_iter=max_iter)
        return trace.best_round().pathloss, trace
    return float(_closed_form_losses(m, scenario.link)[strategy]), None


def angle_sweep(scenario: Scenario, grid, delta: float = DEFAULT_DELTA, max_iter: int = DEFAULT_MAX_ITER) -> SweepResult:
    """All four strategies at every angle of ``grid``; deterministic, grid order kept.

    The strategies run on the stack of the grid's mutual matrices: the
    closed-form ones as array expressions, the joint one as one
    ``alternate_stack`` run whose lanes equal lone ``alternate`` runs.
    """
    grid, ms = _mutual_stack(scenario, grid)
    closed = _closed_form_losses(ms, scenario.link)
    run = alternate_stack(ms, scenario.link, delta=delta, max_iter=max_iter)
    columns = (grid, run.best_pathloss(), closed[STRATEGY_TX_ONLY], closed[STRATEGY_RX_ONLY], closed[STRATEGY_EQUAL])
    columns += (run.iterations, run.converged)
    return SweepResult(points=tuple(SweepPoint(*point) for point in zip(*(c.tolist() for c in columns))))


def threshold_sweep(scenario: Scenario, deltas, angle_grid, max_iter: int = DEFAULT_MAX_ITER) -> list:
    """Joint-strategy reduction and iteration statistics for each stopping threshold.

    The grid is solved once, at the smallest threshold; every threshold's
    run is the cut of that run that ``StackedRun.cut`` makes, identical
    to a fresh ``alternate`` at that threshold.
    """
    deltas = [float(d) for d in deltas]
    if any(not d > 0.0 for d in deltas):
        raise ValueError("thresholds must be positive")
    _, ms = _mutual_stack(scenario, angle_grid)
    if not deltas:
        return []
    equal = pathloss_db(ms, equal_current(scenario.link), equal_weights(), scenario.link)
    run = alternate_stack(ms, scenario.link, delta=min(deltas), max_iter=max_iter)
    cuts = [run.cut(delta) for delta in deltas]
    reductions = [100.0 * (equal - cut.best_pathloss()) / equal for cut in cuts]
    return [
        ThresholdPoint(delta, float(np.mean(reduction)), float(np.mean(cut.iterations)))
        for delta, reduction, cut in zip(deltas, reductions, cuts)
    ]


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
