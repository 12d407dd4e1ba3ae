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

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from tricoil.circuit import LinkParams, check_weights, coupled_amplitudes, equal_weights, pathloss_db

SYMMETRY_TOL = 1e-12
EIGENVALUE_TIE_REL = 1e-9


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

    def truncated(self, delta: float) -> "OptimizationTrace":
        """The trace ``alternate`` returns at the larger threshold ``delta``.

        The loop is deterministic and only its exit test reads the
        threshold, so the run at ``delta >= self.threshold`` (same
        ``max_iter``) is a prefix of this one: it stops on the first round
        that meets the exit test at ``delta``, or where this run stopped.
        A smaller, non-positive or NaN ``delta`` raises ``ValueError``.
        """
        if not (delta >= self.threshold > 0.0):
            raise ValueError(f"delta must be >= the trace threshold {self.threshold}, got {delta}")
        rounds = self.rounds
        for n in range(2, len(rounds) + 1):
            if _settled(rounds[n - 1].pathloss, rounds[n - 2].pathloss, delta):
                return OptimizationTrace(
                    # the starting state, when recorded, and the first n rounds
                    steps=self.steps[: len(self.steps) - len(rounds) + n],
                    converged=True,
                    iterations=rounds[n - 1].iteration,
                    threshold=float(delta),
                )
        return dataclasses.replace(self, threshold=float(delta))


def _settled(loss: float, previous: float, delta: float) -> bool:
    """The loop's exit test; absolute, not signed, so that a regression does not stop the loop."""
    return abs(loss - previous) <= delta


def build_qform(m, weights) -> np.ndarray:
    """Received-power quadratic form Q = m @ diag(s^2) @ m.T (symmetric PSD)."""
    s = check_weights(weights)
    m = np.asarray(m, dtype=float)
    sm = s[np.newaxis, :] * m  # scale columns: (S @ m.T).T
    return sm @ sm.T


def symmetric_eig3(q) -> tuple:
    """Eigen-decomposition of a symmetric 3x3 matrix via ``np.linalg.eigh``.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues sorted
    descending and unit eigenvectors in the matching *columns*.  The input
    is symmetrized and scaled by its largest entry before the solve, so
    extreme magnitudes neither overflow nor underflow.  An exactly
    diagonal input returns permuted coordinate axes, so ``np.eye(3)``
    gives the canonical basis.  The sign convention makes the output
    deterministic: the largest-magnitude component of each eigenvector is
    positive (first such component on exact ties).  Residuals satisfy
    ``||Q v - lam v|| <= 1e-10 * ||Q||_F`` and eigenvectors are mutually
    orthogonal well within 1e-9.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {q.shape}")
    if not np.all(np.isfinite(q)):
        raise ValueError("matrix contains non-finite entries")
    scale = float(np.max(np.abs(q)))
    if np.max(np.abs(q - q.T)) > SYMMETRY_TOL * max(1.0, scale):
        raise ValueError("matrix is not symmetric")
    if scale == 0.0:
        return np.zeros(3), np.eye(3)

    a = (q + q.T) / (2.0 * scale)  # exact symmetrization + scaling
    diagonal = np.diag(a)
    if not np.any(a - np.diag(diagonal)):
        order = np.argsort(-diagonal, kind="stable")
        return diagonal[order] * scale, np.eye(3)[:, order]

    values, vectors = np.linalg.eigh(a)  # ascending
    values = values[::-1] * scale
    vectors = vectors[:, ::-1].copy()
    lead = np.argmax(np.abs(vectors), axis=0)
    vectors[:, vectors[lead, np.arange(3)] < 0.0] *= -1.0
    return values, vectors


def _break_tie(m: np.ndarray, tied_vectors: np.ndarray) -> np.ndarray:
    """Among a degenerate top eigenspace, pick the direction of strongest coupling.

    Maximizes ``||m.T @ v||^2`` over the tied subspace (a small symmetric
    eigenproblem in the subspace coordinates); falls back to the first
    basis vector when the couplings cannot distinguish any direction.
    """
    gram = m @ m.T
    sub = tied_vectors.T @ gram @ tied_vectors
    sub_values, sub_vectors = np.linalg.eigh(sub)  # ascending
    if sub_values[-1] - sub_values[0] <= EIGENVALUE_TIE_REL * max(abs(sub_values[-1]), 1e-300):
        coeff = np.eye(sub.shape[0])[:, 0]  # fully isotropic: canonical choice
    else:
        coeff = sub_vectors[:, -1]
    v = tied_vectors @ coeff
    return v / np.linalg.norm(v)


def optimal_current(m, weights, params: LinkParams) -> np.ndarray:
    """Transmit current maximizing receive power for fixed weights.

    The top unit eigenvector of the received-power quadratic form, scaled
    so that ``||I||^2 = P0 / R_t`` (the power budget is met with
    equality).  Degenerate top eigenvalues are resolved toward the
    direction of strongest raw coupling, then the eigenvector sign rule
    applies, making the result deterministic.
    """
    m = np.asarray(m, dtype=float)
    q = build_qform(m, weights)
    if np.max(np.abs(q)) == 0.0:
        raise NoCouplingError("no coupling between transmit currents and receive coils")
    values, vectors = symmetric_eig3(q)
    if values[0] <= 0.0:
        raise NoCouplingError("received power vanishes for every current vector")
    tie_span = 1
    for k in (1, 2):
        if values[0] - values[k] <= EIGENVALUE_TIE_REL * abs(values[0]):
            tie_span = k + 1
    if tie_span > 1:
        v = _break_tie(m, vectors[:, :tie_span])
        lead = int(np.argmax(np.abs(v)))
        if v[lead] < 0.0:
            v = -v
    else:
        v = vectors[:, 0]
    return math.sqrt(params.p0 / params.r_t) * v


def optimal_weights(m, currents) -> np.ndarray:
    """Combiner weights proportional to the per-coil coupling magnitudes.

    ``s_n = |a_n| / sqrt(sum_j a_j^2)`` with ``a = m.T @ I``; the result
    has unit square-sum.  Applying the rule again with the same current
    reproduces the same weights exactly.
    """
    a = np.abs(coupled_amplitudes(m, currents))
    norm = np.linalg.norm(a)
    if norm == 0.0:
        raise NoCouplingError("all coupling amplitudes are zero; weights undefined")
    return a / norm


def equal_current(params: LinkParams) -> np.ndarray:
    """Equal-allocation drive meeting the power budget: sqrt(P0/(3 R_t)) per coil."""
    return np.full(3, math.sqrt(params.p0 / (3.0 * params.r_t)))


def alternate(
    m,
    params: LinkParams,
    s0=None,
    delta: float = 2.5e-2,
    max_iter: int = 100,
) -> OptimizationTrace:
    """Alternating optimization of currents and weights.

    Starting from weights ``s0`` (uniform by default), each round solves
    the current step, then the weight step, and records the pathloss.
    The loop exits once the absolute pathloss change between consecutive
    rounds is at most ``delta`` (dB) or after ``max_iter`` rounds, in
    which case ``converged`` is False.

    The starting state (equal-allocation current with ``s0``) is recorded
    as step 0 so traces show the unoptimized baseline; ``iterations``
    counts optimization rounds only.
    """
    if not (delta > 0.0):
        raise ValueError(f"delta must be > 0, got {delta}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    m = np.asarray(m, dtype=float)
    s = equal_weights() if s0 is None else check_weights(s0)

    i0 = equal_current(params)
    steps = [TraceStep(0, i0, s.copy(), pathloss_db(m, i0, s, params))]

    converged = False
    previous = None
    for n in range(1, max_iter + 1):
        currents = optimal_current(m, s, params)
        s = optimal_weights(m, currents)
        loss = pathloss_db(m, currents, s, params)
        steps.append(TraceStep(n, currents, s, loss))
        if previous is not None and _settled(loss, previous, delta):
            converged = True
            break
        previous = loss

    return OptimizationTrace(
        steps=tuple(steps),
        converged=converged,
        iterations=steps[-1].iteration,
        threshold=float(delta),
    )
