import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tricoil.circuit import LinkParams, equal_weights, pathloss_db
from tricoil.cli import DEFAULT_THRESHOLDS
from tricoil.experiments import Scenario
from tricoil.geometry import alpha_grid
from tricoil.optimizer import (
    NoCouplingError,
    alternate,
    build_qform,
    equal_current,
    optimal_current,
    optimal_weights,
    symmetric_eig3,
)

SCENARIO = Scenario.reference()


def power_iteration_top(q, steps=10_000, seed=0):
    """Independent largest-eigenpair oracle: plain power iteration.

    Stops once the residual ``||q x - rho x||`` of the Rayleigh quotient
    ``rho`` is at most ``1e-12 ||q||_F``: a symmetric matrix has an
    eigenvalue within that residual of ``rho``.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(3)
    x /= np.linalg.norm(x)
    tol = 1e-12 * np.linalg.norm(q)
    for _ in range(steps):
        y = q @ x
        rho = float(x @ y)
        if np.linalg.norm(y - rho * x) <= tol:
            return rho, x
        x = y / np.linalg.norm(y)
    return float(x @ q @ x), x


def random_physical_qform(rng):
    """PSD quadratic form with the magnitudes the link actually produces."""
    alpha = rng.uniform(0, 2 * np.pi)
    m = SCENARIO.mutual_at(alpha)
    s = np.abs(rng.standard_normal(3)) + 0.1
    s /= np.linalg.norm(s)
    return build_qform(m, s)


class TestSymmetricEig3:
    def test_diagonal(self):
        values, vectors = symmetric_eig3(np.diag([3.0, 2.0, 1.0]))
        assert_allclose(values, [3.0, 2.0, 1.0], rtol=0)
        assert_allclose(vectors[:, 0], [1.0, 0.0, 0.0], atol=0)
        assert_allclose(np.abs(vectors), np.eye(3), atol=0)

    def test_identity_is_deterministic(self):
        values, vectors = symmetric_eig3(np.eye(3))
        assert_allclose(values, [1.0, 1.0, 1.0], rtol=0)
        assert_allclose(vectors, np.eye(3), atol=0)

    def test_zero_matrix(self):
        values, vectors = symmetric_eig3(np.zeros((3, 3)))
        assert_allclose(values, np.zeros(3), atol=0)
        assert_allclose(vectors, np.eye(3), atol=0)

    def test_non_symmetric_rejected(self):
        q = np.eye(3)
        q[0, 1] = 1e-6
        with pytest.raises(ValueError):
            symmetric_eig3(q)

    def test_random_physical_forms_against_power_iteration(self):
        rng = np.random.default_rng(21)
        for trial in range(300):
            q = random_physical_qform(rng)
            values, vectors = symmetric_eig3(q)
            norm_q = np.linalg.norm(q)
            # residuals and orthonormality
            for k in range(3):
                residual = np.linalg.norm(q @ vectors[:, k] - values[k] * vectors[:, k])
                assert residual <= 1e-10 * norm_q
                assert abs(np.linalg.norm(vectors[:, k]) - 1.0) < 1e-12
            gram = vectors.T @ vectors
            assert np.max(np.abs(gram - np.eye(3))) < 1e-9
            assert values[0] >= values[1] >= values[2]
            assert values[2] >= -1e-12 * norm_q  # PSD input
            # independent oracle for the top eigenvalue
            top, _ = power_iteration_top(q, seed=trial)
            assert_allclose(values[0], top, rtol=1e-8)

    def test_extreme_scaling(self):
        base = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 1.0]])
        ref_values, _ = symmetric_eig3(base)
        for scale in (1e-30, 1e18):
            values, vectors = symmetric_eig3(base * scale)
            assert_allclose(values, ref_values * scale, rtol=1e-12)

    def test_sign_convention(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            q = random_physical_qform(rng)
            _, vectors = symmetric_eig3(q)
            for k in range(3):
                col = vectors[:, k]
                assert col[int(np.argmax(np.abs(col)))] > 0

    def test_near_degenerate_pair(self):
        q = np.diag([1.0, 1.0 + 1e-13, 2.0])
        values, vectors = symmetric_eig3(q)
        for k in range(3):
            residual = np.linalg.norm(q @ vectors[:, k] - values[k] * vectors[:, k])
            assert residual <= 1e-10 * np.linalg.norm(q)

    def test_indefinite_matrices_match_invariants(self):
        # the solver only needs symmetry; check eigenvalue sums/products
        # against the trace and determinant as an independent cross-check
        rng = np.random.default_rng(24)
        for _ in range(200):
            raw = rng.standard_normal((3, 3)) * 10.0 ** rng.integers(-6, 7)
            q = raw + raw.T
            values, vectors = symmetric_eig3(q)
            norm_q = np.linalg.norm(q)
            assert_allclose(np.sum(values), np.trace(q), rtol=0, atol=1e-12 * norm_q)
            assert_allclose(np.prod(values), np.linalg.det(q), rtol=0, atol=1e-10 * norm_q**3)
            for k in range(3):
                residual = np.linalg.norm(q @ vectors[:, k] - values[k] * vectors[:, k])
                assert residual <= 1e-10 * norm_q

    def test_near_rank_one(self):
        u = np.array([0.6, -0.48, 0.64])
        q = np.outer(u, u) + 1e-9 * np.eye(3)
        values, vectors = symmetric_eig3(q)
        assert_allclose(values[0], np.dot(u, u) + 1e-9, rtol=1e-10)
        assert_allclose(np.abs(vectors[:, 0]), np.abs(u) / np.linalg.norm(u), atol=1e-7)


class TestOptimalCurrent:
    def test_diagonal_form(self):
        # equal weights turn m m^T/3 into the quadratic form; pick m so Q = diag(3,2,1)
        m = math.sqrt(3.0) * np.diag([math.sqrt(3.0), math.sqrt(2.0), 1.0])
        params = LinkParams(omega=1.0, r_t=1.0, z_r=1.0, z_l=1.0, p0=4.0)
        current = optimal_current(m, equal_weights(), params)
        assert_allclose(current, [2.0, 0.0, 0.0], atol=1e-12)
        assert_allclose(np.dot(current, current), params.p0 / params.r_t, rtol=1e-10)

    def test_degenerate_spectrum_tie_break(self):
        # Q is isotropic but the raw couplings are not: the tie resolves
        # toward the strongest coupling direction
        m = np.diag([2.0, 1.0, 0.5])
        s = np.array([0.25, 1.0, 4.0])
        s = np.sqrt(s / s.sum())
        q = build_qform(m, s)
        assert_allclose(q, np.eye(3) * q[0, 0], atol=1e-15 * q[0, 0])
        params = LinkParams(omega=1.0, r_t=1.0, z_r=1.0, z_l=1.0, p0=1.0)
        current = optimal_current(m, s, params)
        assert_allclose(current, [1.0, 0.0, 0.0], atol=1e-9)

    def test_twofold_tie_break(self):
        # Q = diag(0.8, 0.8, 0): the tie between x and y resolves toward x,
        # the stronger raw coupling; a rotated copy resolves toward R[:, 0]
        m = np.diag([2.0, 1.0, 0.1])
        s = np.sqrt([0.2, 0.8, 0.0])
        assert_allclose(build_qform(m, s), np.diag([0.8, 0.8, 0.0]), atol=1e-15)
        params = LinkParams(omega=1.0, r_t=1.0, z_r=1.0, z_l=1.0, p0=1.0)
        assert_allclose(optimal_current(m, s, params), [1.0, 0.0, 0.0], atol=1e-9)
        rot, _ = np.linalg.qr(np.random.default_rng(25).standard_normal((3, 3)))
        expected = rot[:, 0] * np.sign(rot[np.argmax(np.abs(rot[:, 0])), 0])
        assert_allclose(optimal_current(rot @ m, s, params), expected, atol=1e-9)

    def test_fully_isotropic_is_deterministic(self):
        params = LinkParams(omega=1.0, r_t=1.0, z_r=1.0, z_l=1.0, p0=1.0)
        a = optimal_current(np.eye(3), equal_weights(), params)
        b = optimal_current(np.eye(3), equal_weights(), params)
        assert a.tobytes() == b.tobytes()
        assert_allclose(np.linalg.norm(a), 1.0, rtol=1e-12)

    def test_power_budget_met_on_scenario(self):
        m = SCENARIO.mutual_at(1.0)
        current = optimal_current(m, equal_weights(), SCENARIO.link)
        assert_allclose(
            np.dot(current, current) * SCENARIO.link.r_t, SCENARIO.link.p0, rtol=1e-10
        )

    def test_dominates_random_currents(self):
        m = SCENARIO.mutual_at(1.0)
        q = build_qform(m, equal_weights())
        current = optimal_current(m, equal_weights(), SCENARIO.link)
        value = current @ q @ current / (current @ current)
        rng = np.random.default_rng(42)
        samples = rng.standard_normal((10_000, 3))
        samples /= np.linalg.norm(samples, axis=1)[:, np.newaxis]
        quotients = np.einsum("ij,jk,ik->i", samples, q, samples)
        assert value >= np.max(quotients) - 1e-9 * abs(value)

    def test_no_coupling(self):
        with pytest.raises(NoCouplingError):
            optimal_current(np.zeros((3, 3)), equal_weights(), SCENARIO.link)


class TestOptimalWeights:
    def test_single_path(self):
        m = np.diag([1.0, 0.0, 0.0])
        assert_allclose(optimal_weights(m, [1.0, 0.0, 0.0]), [1.0, 0.0, 0.0], atol=0)

    def test_equal_couplings(self):
        m = np.eye(3)
        assert_allclose(optimal_weights(m, [1.0, 1.0, 1.0]), np.full(3, 1 / np.sqrt(3)), rtol=1e-15)

    def test_matches_scalar_recomputation(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            m = rng.standard_normal((3, 3)) * 1e-9
            i = rng.standard_normal(3)
            s = optimal_weights(m, i)
            a = np.array([abs(sum(m[k, n] * i[k] for k in range(3))) for n in range(3)])
            assert_allclose(s, a / math.sqrt(np.sum(a**2)), rtol=1e-12)
            assert_allclose(np.sum(s**2), 1.0, atol=1e-12)

    def test_idempotent_for_fixed_current(self):
        m = SCENARIO.mutual_at(0.7)
        i = equal_current(SCENARIO.link)
        first = optimal_weights(m, i)
        second = optimal_weights(m, i)
        assert first.tobytes() == second.tobytes()

    def test_no_coupling(self):
        with pytest.raises(NoCouplingError):
            optimal_weights(np.zeros((3, 3)), [1.0, 1.0, 1.0])


class TestAlternate:
    def test_converges_on_scenario(self):
        m = SCENARIO.mutual_at(1.0)
        trace = alternate(m, SCENARIO.link, delta=2.5e-2)
        assert trace.converged
        assert 2 <= trace.iterations <= 100
        rounds = trace.rounds
        assert abs(rounds[-1].pathloss - rounds[-2].pathloss) <= trace.threshold
        # step 0 is the equal-allocation starting state
        assert trace.steps[0].iteration == 0
        assert_allclose(trace.steps[0].currents, equal_current(SCENARIO.link), rtol=1e-15)

    def test_infinite_threshold_stops_at_two(self):
        m = SCENARIO.mutual_at(1.0)
        trace = alternate(m, SCENARIO.link, delta=math.inf)
        assert trace.converged
        assert trace.iterations == 2

    def test_fixed_point_restart(self):
        # drive the map to a machine-precision fixed point, then feed the
        # resulting weights back in as the starting point
        m = SCENARIO.mutual_at(1.0)
        first = alternate(m, SCENARIO.link, delta=1e-13, max_iter=500)
        assert first.converged
        final = first.final_round()
        second = alternate(m, SCENARIO.link, s0=final.weights, delta=2.5e-2)
        assert second.converged
        assert second.iterations <= 2
        assert abs(second.final_round().pathloss - final.pathloss) <= 1e-9

    def test_constraints_hold_on_every_round(self):
        link = SCENARIO.link
        for alpha in (0.3, 1.0, 2.2, 4.8):
            trace = alternate(SCENARIO.mutual_at(alpha), link)
            for step in trace.rounds:
                assert_allclose(np.dot(step.currents, step.currents) * link.r_t, link.p0, rtol=1e-9)
                assert_allclose(np.sum(step.weights**2), 1.0, atol=1e-12)

    def test_first_round_beats_equal_allocation(self):
        link = SCENARIO.link
        for alpha in np.linspace(0.1, 6.2, 25):
            m = SCENARIO.mutual_at(alpha)
            baseline = pathloss_db(m, equal_current(link), equal_weights(), link)
            trace = alternate(m, link)
            assert trace.rounds[0].pathloss <= baseline + 1e-9

    def test_max_iter_returns_unconverged_trace(self):
        m = SCENARIO.mutual_at(1.0)
        trace = alternate(m, SCENARIO.link, delta=1e-15, max_iter=3)
        assert not trace.converged
        assert trace.iterations == 3

    def test_rejects_bad_arguments(self):
        m = SCENARIO.mutual_at(1.0)
        with pytest.raises(ValueError):
            alternate(m, SCENARIO.link, delta=0.0)
        with pytest.raises(ValueError):
            alternate(m, SCENARIO.link, max_iter=0)


def assert_same_trace(got, expected):
    assert got.iterations == expected.iterations
    assert got.converged == expected.converged
    assert got.threshold == expected.threshold
    assert len(got.steps) == len(expected.steps)
    for a, b in zip(got.steps, expected.steps):
        assert a.iteration == b.iteration
        assert np.array_equal(a.currents, b.currents)
        assert np.array_equal(a.weights, b.weights)
        assert a.pathloss == b.pathloss


class TestTruncated:
    def test_matches_fresh_runs_at_cli_thresholds(self):
        link = SCENARIO.link
        for alpha in alpha_grid(36):
            m = SCENARIO.mutual_at(alpha)
            full = alternate(m, link, delta=1e-4)
            for delta in DEFAULT_THRESHOLDS:
                assert_same_trace(full.truncated(delta), alternate(m, link, delta=delta))

    def test_max_iter_cap_without_convergence(self):
        m = SCENARIO.mutual_at(1.0)
        full = alternate(m, SCENARIO.link, delta=1e-15, max_iter=3)
        assert not full.converged
        for delta in (1e-15, 1e-4, 1.0):
            assert_same_trace(full.truncated(delta), alternate(m, SCENARIO.link, delta=delta, max_iter=3))

    def test_rejects_thresholds_below_the_trace(self):
        full = alternate(SCENARIO.mutual_at(1.0), SCENARIO.link, delta=1e-3)
        for delta in (5e-4, 0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                full.truncated(delta)
