"""Mutual inductance between tri-directional coil triads via the magnetic-dipole model.

Coils are treated as ideal magnetic dipoles (loop radius small against the
separation).  The general coupling between a transmit coil with unit
normal ``n_t`` and a receive coil with unit normal ``n_r`` separated by
``r`` is

    M = mu0 * Nt * Nr * St * Sr / (4 pi r^3) * (3 (n_t . rhat)(n_r . rhat) - n_t . n_r)

with ``S = pi * radius^2`` the loop area.  Two formula modes build the
3x3 coupling matrix:

* ``"canonical"`` (default): the dipole expression above for every
  transmit/receive pair; the transmit triad may be oriented arbitrarily.
* ``"paper"``: the verbatim polynomial expansions for an axis-aligned
  transmitter (first coil along z, second along x, third along y),
  reproduced verbatim.  The x-axis row of that expansion assigns two
  direction cosines differently from the dipole model (the z and y rows
  match it exactly); the variant is kept for comparison.

All units are SI.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tricoil.geometry import TriadPose, transmitter_pose

MU_0 = 4.0e-7 * np.pi  # vacuum permeability (H/m), exact by definition

FORMULA_CANONICAL = "canonical"
FORMULA_PAPER = "paper"
FORMULA_MODES = (FORMULA_CANONICAL, FORMULA_PAPER)


class SingularGeometryError(ValueError):
    """Raised when transmit and receive coils coincide (zero separation)."""


@dataclass(frozen=True)
class CoilSpec:
    """Physical description of one coil of a tri-directional antenna.

    Parameters
    ----------
    turns : int
        Number of winding turns, >= 1.
    radius : float
        Loop radius in meters, > 0.
    wire_resistance_per_meter : float
        Resistance of the coil wire per unit length (ohm/m), >= 0.
    """

    turns: int
    radius: float
    wire_resistance_per_meter: float

    def __post_init__(self):
        if int(self.turns) != self.turns or self.turns < 1:
            raise ValueError(f"turns must be a positive integer, got {self.turns}")
        if not (self.radius > 0.0):
            raise ValueError(f"radius must be > 0, got {self.radius}")
        if self.wire_resistance_per_meter < 0.0:
            raise ValueError(
                f"wire_resistance_per_meter must be >= 0, got {self.wire_resistance_per_meter}"
            )

    @property
    def area(self) -> float:
        """Loop area pi * radius^2 (m^2)."""
        return np.pi * self.radius**2


def coil_resistance(spec: CoilSpec) -> float:
    """Series resistance of one coil: wire resistance times total wire length."""
    return spec.wire_resistance_per_meter * 2.0 * np.pi * spec.radius * spec.turns


def _coupling_scale(tx: CoilSpec, rx: CoilSpec) -> float:
    return MU_0 * tx.turns * rx.turns * tx.area * rx.area / (4.0 * np.pi)


def dipole_mutual(n_t, n_r, offset, tx: CoilSpec, rx: CoilSpec):
    """General dipole coupling (henries) between two coils, or between broadcast stacks of them.

    Parameters
    ----------
    n_t, n_r : array-like (..., 3)
        Coil normals, with broadcasting leading axes: ``(3, 1, 3)`` against
        ``(3, 3)`` gives the 3x3 block.  The expression is linear in each,
        so unit vectors give the physical coupling.
    offset : array-like (3,)
        Receive center minus transmit center, in meters.  Must be nonzero.
    """
    offset = np.asarray(offset, dtype=float)
    r = np.linalg.norm(offset)
    if r == 0.0:
        raise SingularGeometryError("coil centers coincide; dipole coupling is singular")
    rhat = offset / r
    angular = 3.0 * np.vecdot(n_t, rhat) * np.vecdot(n_r, rhat) - np.vecdot(n_t, n_r)
    return _coupling_scale(tx, rx) / r**3 * angular


def paper_literal_mutual(tx_axis: int, n_r, offset, tx: CoilSpec, rx: CoilSpec):
    """Published polynomial coupling for transmit coil ``tx_axis`` (henries).

    ``tx_axis`` selects the axis-aligned transmit coil: 0 for the z-axis
    coil, 1 for the x-axis coil, 2 for the y-axis coil.  ``n_r`` holds the
    receive-coil direction cosines in its last axis, so a receive triad's
    normals give one coupling per receive coil.  Rows 0 and 2 expand the
    dipole model exactly; row 1 is the variant whose direction-cosine
    assignment differs from it.
    """
    offset = np.asarray(offset, dtype=float)
    r = np.linalg.norm(offset)
    if r == 0.0:
        raise SingularGeometryError("coil centers coincide; dipole coupling is singular")
    x, y, z = offset
    ca, cb, cg = np.moveaxis(np.asarray(n_r, dtype=float), -1, 0)
    scale = _coupling_scale(tx, rx) / r**5
    if tx_axis == 0:  # z-axis transmit coil
        poly = 3.0 * x * z * ca + 3.0 * y * z * cb + (2.0 * z * z - x * x - y * y) * cg
    elif tx_axis == 1:  # x-axis transmit coil, variant cosine assignment
        poly = 3.0 * x * y * cb + 3.0 * x * z * ca + (2.0 * x * x - y * y - z * z) * cg
    elif tx_axis == 2:  # y-axis transmit coil
        poly = 3.0 * y * z * cg + 3.0 * x * y * ca + (2.0 * y * y - x * x - z * z) * cb
    else:
        raise ValueError(f"tx_axis must be 0, 1 or 2, got {tx_axis}")
    return scale * poly


def mutual_matrix(
    tx_pose: TriadPose,
    rx_pose: TriadPose,
    tx: CoilSpec,
    rx: CoilSpec,
    mode: str = FORMULA_CANONICAL,
) -> np.ndarray:
    """3x3 mutual-inductance matrix; entry [i, j] couples transmit coil i to receive coil j.

    Canonical mode evaluates the dipole expression on every coil pair in
    one broadcast call and accepts any transmit orientation.  Paper mode
    evaluates the verbatim polynomials, one call per transmit row, and
    requires the transmit triad to be the axis-aligned one (coils along z,
    x, y).  A coupling scale or an entry that overflows raises
    ``ArithmeticError``.
    """
    if mode not in FORMULA_MODES:
        raise ValueError(f"unknown formula mode {mode!r}; expected one of {FORMULA_MODES}")
    offset = rx_pose.center - tx_pose.center
    if mode == FORMULA_PAPER:
        expected = transmitter_pose(tx_pose.center).normals
        if np.max(np.abs(tx_pose.normals - expected)) > 1e-12:
            raise ValueError("paper formula mode requires the axis-aligned transmit triad (z, x, y)")
    if not np.isfinite(_coupling_scale(tx, rx)):
        raise ArithmeticError("coupling scale mu0*Nt*Nr*At*Ar/(4*pi) overflows")
    with np.errstate(over="raise", divide="raise", invalid="raise"):  # FloatingPointError, not a warning
        if mode == FORMULA_CANONICAL:
            return dipole_mutual(tx_pose.normals[:, np.newaxis], rx_pose.normals, offset, tx, rx)
        return np.array([paper_literal_mutual(i, rx_pose.normals, offset, tx, rx) for i in range(3)])
