"""Electrical link evaluation: receive voltage, powers, and pathloss.

Conventions, fixed once and used everywhere:

* The mutual matrix ``m`` stores ``m[i, j]`` = coupling of transmit coil i
  to receive coil j, so receive coil n sums the contributions of all
  transmit coils: ``E_n = j * omega * sum_k m[k, n] * I_k``, i.e.
  ``E = j*omega * m.T @ currents``.
* The combiner applies one real weight per receive coil; the weight
  vector has unit square-sum.  Receive power is the weighted sum of the
  per-coil powers, so with ``a = m.T @ currents``:

      P_r = Z_L * omega^2 / (Z_r + Z_L)^2 * sum_n s_n^2 * a_n^2

* Transmit power is ``R_t * ||currents||^2`` (amplitude convention, no
  RMS one-half factor; all ratios in this package are consistent with
  it and the pathloss difference between two operating points does not
  depend on it).
* Pathloss is ``-10*log10(P_r / P_t)`` in dB; larger means a worse link.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tricoil.magnetics import CoilSpec, coil_resistance

WEIGHT_NORM_TOL = 1e-12


@dataclass(frozen=True)
class LinkParams:
    """Electrical context of the link.

    Parameters
    ----------
    omega : float
        Angular signal frequency (rad/s), > 0.
    r_t : float
        Transmit coil resistance (ohm), > 0.
    z_r : float
        Receive coil impedance at resonance, resistive (ohm), > 0.
    z_l : float
        Load impedance (ohm), > 0.
    p0 : float
        Transmit power budget (W), > 0.
    """

    omega: float
    r_t: float
    z_r: float
    z_l: float
    p0: float

    def __post_init__(self):
        for name in ("omega", "r_t", "z_r", "z_l", "p0"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")

    @property
    def receive_constant(self) -> float:
        """The frequency/load factor Z_L * omega^2 / (Z_r + Z_L)^2."""
        return self.z_l * self.omega**2 / (self.z_r + self.z_l) ** 2

    @classmethod
    def matched(
        cls,
        tx: CoilSpec,
        rx: CoilSpec,
        frequency_hz: float = 1.0e7,
        current_amplitude: float = 2.0,
    ) -> "LinkParams":
        """Defaults for an unspecified electrical context.

        Matched resistive load at resonance (Z_r = Z_L = receive coil
        resistance), and a power budget that the equal-allocation drive
        ``current_amplitude * (1, 1, 1)`` meets exactly.  These choices
        shift every pathloss by the same constant; differences between
        operating points do not depend on them.
        """
        r_t = coil_resistance(tx)
        z = coil_resistance(rx)
        p0 = 3.0 * current_amplitude**2 * r_t
        return cls(omega=2.0 * np.pi * frequency_hz, r_t=r_t, z_r=z, z_l=z, p0=p0)


def check_weights(weights) -> np.ndarray:
    """Validate combiner weights, one triple or an ``(N, 3)`` stack, each of unit square-sum."""
    s = np.asarray(weights, dtype=float)
    if s.ndim not in (1, 2) or s.shape[-1] != 3:
        raise ValueError(f"weights must have shape (3,) or (N, 3), got {s.shape}")
    norm_sq = np.vecdot(s, s)
    if not (np.abs(norm_sq - 1.0) <= WEIGHT_NORM_TOL).all():
        raise ValueError(f"weights must satisfy sum(s^2) = 1 within {WEIGHT_NORM_TOL}, got {norm_sq}")
    return s


def equal_weights() -> np.ndarray:
    """The uniform combiner (1,1,1)/sqrt(3)."""
    return np.full(3, 1.0 / np.sqrt(3.0))


def coupled_amplitudes(m, currents) -> np.ndarray:
    """Per-receive-coil coupling sums ``a_n = sum_k m[k, n] * I_k``; leading axes broadcast."""
    return np.vecdot(np.asarray(currents, dtype=float)[..., np.newaxis], np.asarray(m, dtype=float), axis=-2)


def receive_voltage(m, currents, omega: float) -> np.ndarray:
    """Open-circuit induced voltage phasor at each receive coil (complex volts)."""
    return 1j * float(omega) * coupled_amplitudes(m, currents)


def receive_power(m, currents, weights, params: LinkParams):
    """Weighted receive power (W); always >= 0, zero iff S * (m.T @ I) = 0.  One value per stacked link."""
    return _receive_power(m, currents, check_weights(weights), params)


def _receive_power(m, currents, s, params: LinkParams):
    return params.receive_constant * ((s * coupled_amplitudes(m, currents)) ** 2).sum(axis=-1)


def transmit_power(currents, r_t: float):
    """Total transmit power R_t * (I1^2 + I2^2 + I3^2) (W), one value per current vector."""
    if not r_t > 0.0:
        raise ValueError(f"r_t must be > 0, got {r_t}")
    i = np.asarray(currents, dtype=float)
    return r_t * np.vecdot(i, i)


def pathloss_db(m, currents, weights, params: LinkParams):
    """Link pathloss -10*log10(P_r / P_t) in dB, one value per stacked link.

    Invariant under scaling of the current vector.  Returns ``inf`` when
    the received power vanishes (no coupling through the combiner); a zero
    current vector is rejected.
    """
    i = np.asarray(currents, dtype=float)
    if (transmit_power(i, params.r_t) == 0.0).any():
        raise ValueError("current vector must be nonzero")
    with np.errstate(divide="ignore"):
        return _pathloss(m, i, check_weights(weights), params)


def _pathloss(m, currents, s, params: LinkParams):
    """``pathloss_db`` on checked inputs; call it under ``np.errstate(divide="ignore")`` (P_r = 0: infinite loss)."""
    return -10.0 * np.log10(_receive_power(m, currents, s, params) / transmit_power(currents, params.r_t))
