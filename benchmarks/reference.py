"""Independent references that the benchmark checks program outputs against.

Nothing here calls tricoil.  The link constants are re-derived from the
configuration document, the alternating loop uses ``np.linalg.eigh``
instead of the program's own 3x3 eigensolver, and the global optimum of
the implemented objective has a closed form:

    max  sum_n s_n^2 (m.T I)_n^2   with ||s|| = 1, ||I||^2 = P0 / R_t

puts all weight on the receive coil whose column of ``m`` has the largest
norm and drives the current along that column.
"""

from __future__ import annotations

import math

import numpy as np

DB_TOL = 1e-9
REL_TOL = 1e-9

# Defaults of the configuration document (README table).
_DEFAULTS = {
    "turns": 10,
    "radius": 0.1,
    "wire_resistance_per_meter": 0.01,
    "current_amplitude": 2.0,
    "frequency_hz": 1.0e7,
    "z_r": None,
    "z_l": None,
    "delta": 2.5e-2,
    "max_iter": 100,
}
_MU0_OVER_4PI = 1.0e-7
# transmit triad: coils along z, x, y (rows)
TX_NORMALS = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


class Link:
    """Electrical constants of one configuration document."""

    def __init__(self, doc: dict):
        v = {**_DEFAULTS, **doc}
        coil_r = v["wire_resistance_per_meter"] * 2.0 * math.pi * v["radius"] * v["turns"]
        omega = 2.0 * math.pi * v["frequency_hz"]
        z_r = coil_r if v["z_r"] is None else v["z_r"]
        z_l = coil_r if v["z_l"] is None else v["z_l"]
        self.r_t = coil_r
        self.p0 = 3.0 * v["current_amplitude"] ** 2 * coil_r
        self.c = z_l * omega**2 / (z_r + z_l) ** 2
        self.delta = v["delta"]
        self.max_iter = v["max_iter"]
        self.turns = v["turns"]
        self.radius = v["radius"]
        self.rx_center = np.asarray(v.get("rx_center", (1.0, 1.0, 1.5)), dtype=float)

    @property
    def current_norm(self) -> float:
        return math.sqrt(self.p0 / self.r_t)

    def pathloss(self, m, currents, weights) -> float:
        a = m.T @ currents
        p_r = self.c * float(np.sum((weights * a) ** 2))
        p_t = self.r_t * float(currents @ currents)
        return -10.0 * math.log10(p_r / p_t)

    def equal_current(self) -> np.ndarray:
        return np.full(3, math.sqrt(self.p0 / (3.0 * self.r_t)))

    def top_current(self, m, weights) -> np.ndarray:
        sm = m * weights  # scales column n of m by s_n
        _, vectors = np.linalg.eigh(sm @ sm.T)
        v = vectors[:, -1]
        if v[np.argmax(np.abs(v))] < 0.0:
            v = -v
        return self.current_norm * v

    def alternate(self, m, delta: float):
        """Per-round pathlosses of the alternating loop and whether it converged."""
        s = UNIFORM
        losses = []
        for _ in range(self.max_iter):
            currents = self.top_current(m, s)
            a = np.abs(m.T @ currents)
            s = a / np.linalg.norm(a)
            losses.append(self.pathloss(m, currents, s))
            if len(losses) > 1 and abs(losses[-1] - losses[-2]) <= delta:
                return losses, True
        return losses, False

    def strategies(self, m) -> dict:
        """Pathloss of the four strategies and the joint loop's iterations at one angle."""
        i_eq = self.equal_current()
        a = np.abs(m.T @ i_eq)
        losses, converged = self.alternate(m, self.delta)
        return {
            "equal_db": self.pathloss(m, i_eq, UNIFORM),
            "txonly_db": self.pathloss(m, self.top_current(m, UNIFORM), UNIFORM),
            "rxonly_db": self.pathloss(m, i_eq, a / np.linalg.norm(a)),
            "joint_db": min(losses),
            "iters": len(losses),
            "converged": converged,
        }

    def optimum_db(self, m) -> float:
        """Closed-form global optimum of the implemented objective."""
        best_column = float(np.max(np.sum(m * m, axis=0)))
        return -10.0 * math.log10(self.c * best_column / self.r_t)

    def gram_identity_error(self, m) -> float:
        """Relative error of ``m m.T = k^2 T (I + 3 rhat rhat.T) T.T``.

        Holds for the canonical dipole formula with an orthonormal receive
        frame, whatever the receiver's orientation.
        """
        r = float(np.linalg.norm(self.rx_center))
        rhat = self.rx_center / r
        area = math.pi * self.radius**2
        k = _MU0_OVER_4PI * self.turns**2 * area**2 / r**3
        expected = k**2 * TX_NORMALS @ (np.eye(3) + 3.0 * np.outer(rhat, rhat)) @ TX_NORMALS.T
        return float(np.max(np.abs(m @ m.T - expected)) / np.max(np.abs(expected)))


UNIFORM = np.full(3, 1.0 / math.sqrt(3.0))


def truncate(losses, converged: bool, delta: float, max_iter: int):
    """Best pathloss and rounds of the run at ``delta``, from the run at a smaller threshold.

    Only the loop's exit test depends on the threshold, so the run at a
    larger threshold is a prefix of the run at the smallest one.
    """
    for n in range(2, len(losses) + 1):
        if abs(losses[n - 1] - losses[n - 2]) <= delta:
            return min(losses[:n]), n
    if converged or len(losses) != max_iter:
        raise ValueError("threshold is below the one the losses were computed at")
    return min(losses), max_iter


def relative_gap(closed_form: float, best: float) -> float:
    return (best - closed_form) / max(abs(closed_form), abs(best), 1e-30)
