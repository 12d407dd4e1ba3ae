"""Closed-form beamforming steps and the alternating optimization loop.

For fixed combiner weights the best transmit current maximizes the
Rayleigh quotient of ``Q = m @ diag(s^2) @ m.T`` (the received-power
quadratic form in the stored matrix layout), so it is the top eigenvector
of ``Q`` scaled to the power budget.  For a fixed current the weights are
set proportional to the per-coil coupling magnitudes ``|m.T @ I|``.  The
loop alternates the two steps and stops when the pathloss change falls
below a threshold.

The eigensolver is ``np.linalg.eigh`` behind a thin wrapper that checks
the input, scales it, orders the eigenpairs descending and fixes each
eigenvector's sign, so every caller gets a deterministic result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tricoil.circuit import LinkParams, _pathloss, check_weights, coupled_amplitudes, equal_weights

SYMMETRY_TOL = 1e-12
EIGENVALUE_TIE_REL = 1e-9
_UPPER = np.triu_indices(3, 1)
_TINY = np.finfo(float).smallest_subnormal


class NoCouplingError(ValueError):
    """Raised when the coupling matrix carries no power to any receive coil."""


@dataclass(frozen=True)
class TraceStep:
    """One recorded state of the alternating loop."""

    iteration: int
    currents: np.ndarray
    weights: np.ndarray
    pathloss: float


@dataclass(frozen=True)
class OptimizationTrace:
    """Complete record of one alternating-optimization run.

    ``steps[0]`` is the starting state (equal-allocation current with the
    initial weights); steps 1..n are the optimization rounds.
    ``iterations`` counts the optimization rounds only.
    """

    steps: tuple
    converged: bool
    iterations: int
    threshold: float

    @property
    def rounds(self) -> tuple:
        """The optimization rounds (starting state excluded)."""
        return self.steps[1:] if self.steps and self.steps[0].iteration == 0 else self.steps

    def best_round(self) -> TraceStep:
        """The recorded round with the lowest pathloss."""
        return min(self.rounds, key=lambda step: step.pathloss)

    def final_round(self) -> TraceStep:
        return self.rounds[-1]


@dataclass(frozen=True)
class StackedRun:
    """Per-lane record of the alternating loop on a stack of N mutual matrices.

    Column 0 of ``currents``, ``weights`` (``(N, K+1, 3)``) and ``pathloss``
    (``(N, K+1)``) is the starting state, column n round n.  Lane k's run
    is its first ``iterations[k] + 1`` columns; it stopped on the exit test
    if ``converged[k]``, else after ``max_iter`` rounds.
    """

    currents: np.ndarray
    weights: np.ndarray
    pathloss: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    threshold: float

    def best_pathloss(self) -> np.ndarray:
        """Each lane's lowest pathloss over its rounds 1..iterations."""
        rounds = np.arange(1, self.pathloss.shape[1])
        return np.min(np.where(rounds <= self.iterations[:, np.newaxis], self.pathloss[:, 1:], np.inf), axis=1)

    def cut(self, delta: float) -> "StackedRun":
        """The run ``alternate_stack`` makes at ``delta >= self.threshold`` with the same ``max_iter``.

        Only the exit test reads the threshold, so each lane's run at
        ``delta`` is a prefix of this one: it stops on the first round that
        meets the exit test at ``delta``, or where this run stopped.  A
        smaller, non-positive or NaN ``delta`` raises ``ValueError``.
        """
        if not (delta >= self.threshold):
            raise ValueError(f"delta must be >= the run threshold {self.threshold}, got {delta}")
        with np.errstate(invalid="ignore"):  # inf - inf
            settled = _settled(self.pathloss[:, 2:], self.pathloss[:, 1:-1], delta)
        hit = settled.any(axis=1)  # no lane hits in a one-round run, whose empty round axis argmax rejects
        iterations = np.where(hit, settled.argmax(axis=1) + 2, self.iterations) if hit.any() else self.iterations
        return StackedRun(self.currents, self.weights, self.pathloss, iterations, hit, float(delta))


def _settled(loss, previous, delta: float) -> np.ndarray:
    """The exit test, per lane: absolute, so a regression does not stop the loop; two infinite losses never settle."""
    return np.abs(loss - previous) <= delta


def build_qform(m, weights) -> np.ndarray:
    """Received-power quadratic form Q = m @ diag(s^2) @ m.T (symmetric PSD); leading axes broadcast."""
    return _qform(np.asarray(m, dtype=float), check_weights(weights))


def _qform(m, s):
    sm = s[..., np.newaxis, :] * m  # scale columns: (S @ m.T).T
    return sm @ sm.swapaxes(-1, -2)


def symmetric_eig3(q) -> tuple:
    """Eigen-decomposition of a symmetric 3x3 matrix, or of each matrix of a stack, via ``np.linalg.eigh``.

    Returns ``(eigenvalues, eigenvectors)`` of shapes ``(..., 3)`` and
    ``(..., 3, 3)``, with eigenvalues sorted descending and unit
    eigenvectors in the matching *columns*.  Each input is symmetrized and
    scaled by its largest entry before the solve, so extreme magnitudes
    neither overflow nor underflow.  An exactly diagonal input returns
    permuted coordinate axes, so ``np.eye(3)`` and the zero matrix give
    the canonical basis.  The sign convention makes the output
    deterministic: the largest-magnitude component of each eigenvector is
    positive (first such component on exact ties).  Residuals satisfy
    ``||Q v - lam v|| <= 1e-10 * ||Q||_F`` and eigenvectors are mutually
    orthogonal well within 1e-9.  Each matrix of a stack gets exactly the
    result it gets alone; one invalid matrix fails the whole call.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim not in (2, 3) or q.shape[-2:] != (3, 3):
        raise ValueError(f"expected a 3x3 matrix or an (N, 3, 3) stack, got shape {q.shape}")
    stack = q.reshape(-1, 3, 3)
    values, vectors = _eig_desc(stack)  # first, as it rejects non-finite entries
    bound = SYMMETRY_TOL * np.maximum(1.0, np.abs(stack).max(axis=(1, 2)))
    if (np.abs(stack - stack.swapaxes(1, 2)).max(axis=(1, 2)) > bound).any():
        raise ValueError("matrix is not symmetric")
    return values.reshape(q.shape[:-1]), vectors.reshape(q.shape)


def _eig_desc(stack) -> tuple:
    """``symmetric_eig3`` on an ``(N, 3, 3)`` stack of symmetric matrices; a non-finite entry raises."""
    scale = np.abs(stack).max(axis=(1, 2))
    if not np.isfinite(scale).all():
        raise ValueError("matrix contains non-finite entries")
    # exact symmetrization + scaling; a zero matrix stays zero
    a = (stack + stack.swapaxes(1, 2)) / (2.0 * np.maximum(scale, _TINY))[:, np.newaxis, np.newaxis]
    values, vectors = np.linalg.eigh(a)  # ascending
    values = values[:, ::-1] * scale[:, np.newaxis]
    vectors = vectors[:, :, ::-1]
    lead = vectors[np.arange(len(a))[:, np.newaxis], np.abs(vectors).argmax(axis=1), np.arange(3)]
    vectors = np.where((lead < 0.0)[:, np.newaxis, :], -vectors, vectors)
    off_diagonal = a[:, _UPPER[0], _UPPER[1]]
    if not off_diagonal.all():
        for k in (~off_diagonal.any(axis=1)).nonzero()[0]:  # exactly diagonal, zero included
            diagonal = np.diagonal(a[k])
            order = np.argsort(-diagonal, kind="stable")
            values[k], vectors[k] = diagonal[order] * scale[k], np.eye(3)[:, order]
    return values, vectors


def _break_tie(m: np.ndarray, tied_vectors: np.ndarray) -> np.ndarray:
    """Among a degenerate top eigenspace, pick the direction of strongest coupling.

    Maximizes ``||m.T @ v||^2`` over the tied subspace (a small symmetric
    eigenproblem in the subspace coordinates); falls back to the first
    basis vector when the couplings cannot distinguish any direction.  The
    eigenvector sign rule then applies.
    """
    gram = m @ m.T
    sub = tied_vectors.T @ gram @ tied_vectors
    sub_values, sub_vectors = np.linalg.eigh(sub)  # ascending
    if sub_values[-1] - sub_values[0] <= EIGENVALUE_TIE_REL * max(abs(sub_values[-1]), 1e-300):
        coeff = np.eye(sub.shape[0])[:, 0]  # fully isotropic: canonical choice
    else:
        coeff = sub_vectors[:, -1]
    v = tied_vectors @ coeff
    v = v / np.linalg.norm(v)
    return -v if v[np.argmax(np.abs(v))] < 0.0 else v


def _top_direction(ms, q) -> np.ndarray:
    """Unit top eigenvector of each form of the stack ``q``, ties resolved on the matching ``ms``."""
    values, vectors = _eig_desc(q)
    if values[:, 0].min() <= 0.0:
        raise NoCouplingError("received power vanishes for every current vector")
    # lane k ties its top eigenvalue (now known positive) with the next one (column 0) or two (column 1)
    tied = values[:, :1] - values[:, 1:] <= EIGENVALUE_TIE_REL * values[:, :1]
    for k in tied[:, 0].nonzero()[0]:
        vectors[k, :, 0] = _break_tie(ms[k], vectors[k, :, : 2 + tied[k, 1]])
    return vectors[:, :, 0]


def optimal_current(m, weights, params: LinkParams) -> np.ndarray:
    """Transmit current maximizing receive power for fixed weights, per stacked link.

    The top unit eigenvector of the received-power quadratic form, scaled
    so that ``||I||^2 = P0 / R_t`` (the power budget is met with
    equality).  Degenerate top eigenvalues are resolved toward the
    direction of strongest raw coupling, then the eigenvector sign rule
    applies, making the result deterministic.
    """
    q = build_qform(m, weights)
    ms = np.broadcast_to(m, q.shape).reshape(-1, 3, 3)
    top = _top_direction(ms, q.reshape(-1, 3, 3))
    return math.sqrt(params.p0 / params.r_t) * top.reshape(q.shape[:-1])


def optimal_weights(m, currents) -> np.ndarray:
    """Combiner weights proportional to the per-coil coupling magnitudes, per stacked link.

    ``s_n = |a_n| / sqrt(sum_j a_j^2)`` with ``a = m.T @ I``; the result
    has unit square-sum.  Applying the rule again with the same current
    reproduces the same weights exactly.
    """
    a = np.abs(coupled_amplitudes(m, currents))
    norm = np.sqrt(np.vecdot(a, a))[..., np.newaxis]
    if (norm == 0.0).any():
        raise NoCouplingError("all coupling amplitudes are zero; weights undefined")
    return a / norm


def equal_current(params: LinkParams) -> np.ndarray:
    """Equal-allocation drive meeting the power budget: sqrt(P0/(3 R_t)) per coil."""
    return np.full(3, math.sqrt(params.p0 / (3.0 * params.r_t)))


def alternate_stack(ms, params: LinkParams, s0=None, delta: float = 2.5e-2, max_iter: int = 100) -> StackedRun:
    """``alternate`` on every matrix of an ``(N, 3, 3)`` stack at once; ``s0`` is one triple or ``(N, 3)``.

    Lane k makes, bit for bit, the rounds ``alternate`` makes on ``ms[k]``
    alone.  The loop runs until every lane has met the exit test, or for
    ``max_iter`` rounds; a lane that met it early computes further rounds,
    which its ``iterations`` leaves out.
    """
    if not (delta > 0.0):
        raise ValueError(f"delta must be > 0, got {delta}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    ms = np.asarray(ms, dtype=float)
    if ms.ndim != 3 or ms.shape[1:] != (3, 3) or len(ms) == 0:
        raise ValueError(f"expected a nonempty (N, 3, 3) stack of matrices, got shape {ms.shape}")
    currents = equal_current(params) * np.ones((len(ms), 1))
    weights = np.empty_like(currents)
    weights[:] = equal_weights() if s0 is None else check_weights(s0)  # one triple, or one per lane
    root = math.sqrt(params.p0 / params.r_t)
    settled = np.zeros(len(ms), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):  # an infinite loss (_pathloss, _settled) is no fault
        history = [(currents, weights, _pathloss(ms, currents, weights, params))]
        for r in range(1, max_iter + 1):
            currents = root * _top_direction(ms, _qform(ms, weights))
            weights = optimal_weights(ms, currents)
            history.append((currents, weights, _pathloss(ms, currents, weights, params)))
            if r > 1:
                settled |= _settled(history[-1][2], history[-2][2], delta)
                if settled.all():
                    break
    currents, weights, losses = (np.array(column).swapaxes(0, 1) for column in zip(*history))
    rounds = np.full(len(ms), len(history) - 1)
    return StackedRun(currents, weights, losses, rounds, settled, float(delta)).cut(delta)


def alternate(m, params: LinkParams, s0=None, delta: float = 2.5e-2, max_iter: int = 100) -> OptimizationTrace:
    """Alternating optimization of currents and weights.

    Starting from weights ``s0`` (uniform by default), each round solves
    the current step, then the weight step, and records the pathloss.
    The loop exits once the absolute pathloss change between consecutive
    rounds is at most ``delta`` (dB) or after ``max_iter`` rounds, in
    which case ``converged`` is False.

    The starting state (equal-allocation current with ``s0``) is recorded
    as step 0 so traces show the unoptimized baseline; ``iterations``
    counts optimization rounds only.  This is the one-lane view of
    ``alternate_stack``.
    """
    run = alternate_stack(np.asarray(m, dtype=float)[np.newaxis], params, s0, delta, max_iter)
    lane = zip(run.currents[0], run.weights[0], run.pathloss[0].tolist())
    steps = tuple(TraceStep(n, *state) for n, state in enumerate(lane))
    return OptimizationTrace(steps, bool(run.converged[0]), int(run.iterations[0]), run.threshold)
