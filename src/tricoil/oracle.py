"""Independent brute-force verifiers for the closed-form beamforming steps.

Each verifier re-derives a closed-form claim by sampling or enumeration
and reports the gap between the closed form and the brute-force optimum.
Sampling uses normalized triples of independent standard normals from a
seeded generator, so every run reproduces exactly from (seed, samples).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tricoil.magnetics import CoilSpec, _coupling_scale, dipole_mutual, paper_literal_mutual
from tricoil.optimizer import build_qform, symmetric_eig3

DOMINANCE_TOL = 1e-9
LOW_CONFIDENCE_SAMPLES = 1000
GAP_FLOOR = 1e-30

# transmit coil axes assumed by the closed-form coupling polynomials
_TX_AXES = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


class OracleFailure(RuntimeError):
    """A brute-force check contradicted a closed-form claim."""


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one verifier run.

    ``gap`` is the relative difference between the brute-force optimum
    and the closed form, with the denominator floored to avoid blowups on
    null couplings.  ``low_confidence`` flags runs whose sample count is
    too small to trust the brute-force side.
    """

    claim: str
    closed_form: float
    oracle_best: float
    gap: float
    samples: int
    seed: int
    low_confidence: bool = False


def _relative_gap(closed_form: float, oracle_best: float) -> float:
    denom = max(abs(closed_form), abs(oracle_best), GAP_FLOOR)
    return (oracle_best - closed_form) / denom


def unit_sphere_samples(count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` unit vectors: normalized triples of independent standard normals."""
    raw = rng.standard_normal((count, 3))
    norms = np.linalg.norm(raw, axis=1)
    norms[norms == 0.0] = 1.0
    return raw / norms[:, np.newaxis]


def verify_current_step(m, weights, samples: int = 100_000, seed: int = 42) -> OracleReport:
    """Check that the eigen-solved current dominates random unit currents.

    Draws ``samples`` uniform directions, evaluates the received-power
    Rayleigh quotient on each, and requires the closed-form top eigenvalue
    to beat every sample within a 1e-9 relative tolerance.  Raises
    :class:`OracleFailure` if any sample wins.
    """
    samples = int(samples)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    q = build_qform(np.asarray(m, dtype=float), weights)
    closed_form = float(symmetric_eig3(q)[0][0])
    rng = np.random.default_rng(seed)
    directions = unit_sphere_samples(samples, rng)
    quotients = np.einsum("ij,jk,ik->i", directions, q, directions)
    oracle_best = float(np.max(quotients))
    gap = _relative_gap(closed_form, oracle_best)
    if gap > DOMINANCE_TOL:
        raise OracleFailure(
            f"random current beat the eigen solution: closed form {closed_form!r}, "
            f"sample best {oracle_best!r} (relative gap {gap:.3e})"
        )
    return OracleReport(
        claim="current_step",
        closed_form=closed_form,
        oracle_best=oracle_best,
        gap=gap,
        samples=samples,
        seed=seed,
        low_confidence=samples < LOW_CONFIDENCE_SAMPLES,
    )


def weight_rule_objective(couplings) -> float:
    """Received-power objective of the proportional weight rule.

    With ``a`` the per-coil coupling magnitudes and ``s = a/||a||`` the
    rule's weights, the objective is ``sum(a^4)/sum(a^2)``.
    """
    a2 = np.asarray(couplings, dtype=float) ** 2
    total = float(np.sum(a2))
    if total == 0.0:
        return 0.0
    return float(np.sum(a2**2)) / total


def concentration_objective(couplings) -> float:
    """Analytic maximum of the weight subproblem: all weight on the best coil."""
    return float(np.max(np.asarray(couplings, dtype=float) ** 2))


def verify_weight_step(m, currents, grid: int = 50) -> OracleReport:
    """Grid-search the weight subproblem and document the proportional rule's gap.

    The subproblem maximizes ``sum_n s_n^2 a_n^2`` under unit square-sum
    weights.  Its analytic optimum concentrates all weight on the
    best-coupled coil; the proportional rule generally lands below it.
    The report's closed form is the rule's objective, the oracle best is
    the grid optimum, and the gap documents the shortfall (it is *not*
    asserted to vanish).

    The grid enumerates ``t`` on the unit 2-simplex (``s = sqrt(t)``)
    with ``grid`` divisions per dimension; the simplex vertices are on
    the grid, so the grid best reaches the concentration value exactly.
    """
    grid = int(grid)
    if grid < 2:
        raise ValueError("grid must be >= 2")
    a = np.abs(np.asarray(m, dtype=float).T @ np.asarray(currents, dtype=float))
    rule_value = weight_rule_objective(a)
    a2 = a**2

    best = 0.0
    for i in range(grid + 1):
        for j in range(grid + 1 - i):
            t = np.array([i, j, grid - i - j], dtype=float) / grid
            value = float(np.dot(t, a2))
            if value > best:
                best = value

    return OracleReport(
        claim="weight_step",
        closed_form=rule_value,
        oracle_best=best,
        gap=_relative_gap(rule_value, best),
        samples=(grid + 1) * (grid + 2) // 2,
        seed=0,
    )


def verify_dipole_expansion(
    trials: int = 1000,
    seed: int = 7,
    tx: CoilSpec | None = None,
    rx: CoilSpec | None = None,
) -> OracleReport:
    """Cross-check the coupling polynomials against the general dipole formula.

    Over ``trials`` random geometries (random receive normal, random
    offset), the z-axis and y-axis polynomial rows must match the dipole
    formula to 1e-12 of the dipole coupling scale ``k / r^3`` (no
    coupling at distance ``r`` exceeds twice that scale); the x-axis
    row's variant cosine assignment deviates, and its largest deviation
    on the same scale is reported.  Dividing by the scale rather than by
    the coupling itself keeps rounding noise on near-zero couplings from
    failing the check.
    The report's closed form carries the matched rows' worst deviation,
    the oracle best the x-axis row's worst deviation.
    """
    trials = int(trials)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    tx = tx or CoilSpec(turns=10, radius=0.1, wire_resistance_per_meter=0.01)
    rx = rx or CoilSpec(turns=10, radius=0.1, wire_resistance_per_meter=0.01)
    rng = np.random.default_rng(seed)

    worst_matched = 0.0
    worst_variant = 0.0
    for _ in range(trials):
        n_r = unit_sphere_samples(1, rng)[0]
        offset = rng.uniform(-2.0, 2.0, size=3)
        r = np.linalg.norm(offset)
        if r < 0.3:  # keep away from the singular center
            offset = offset / max(r, 1e-12) * 0.3
        scale = _coupling_scale(tx, rx) / np.linalg.norm(offset) ** 3
        for axis, matched in ((0, True), (1, False), (2, True)):
            poly = paper_literal_mutual(axis, n_r, offset, tx, rx)
            dip = dipole_mutual(_TX_AXES[axis], n_r, offset, tx, rx)
            deviation = abs(poly - dip) / scale
            if matched:
                worst_matched = max(worst_matched, deviation)
            else:
                worst_variant = max(worst_variant, deviation)

    if worst_matched > 1e-12:
        raise OracleFailure(
            f"z/y-axis coupling polynomials deviate from the dipole formula by {worst_matched:.3e}"
        )
    return OracleReport(
        claim="dipole_expansion",
        closed_form=worst_matched,
        oracle_best=worst_variant,
        gap=_relative_gap(worst_matched, worst_variant),
        samples=trials,
        seed=seed,
    )
