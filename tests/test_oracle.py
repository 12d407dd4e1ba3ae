import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tricoil.circuit import equal_weights
from tricoil.experiments import Scenario
from tricoil.magnetics import CoilSpec, dipole_mutual, paper_literal_mutual
from tricoil.optimizer import equal_current
from tricoil.oracle import (
    OracleFailure,
    concentration_objective,
    verify_current_step,
    verify_dipole_expansion,
    verify_weight_step,
    weight_rule_objective,
)

SCENARIO = Scenario.reference()
COIL = CoilSpec(turns=10, radius=0.1, wire_resistance_per_meter=0.01)


class TestCurrentStep:
    def test_diagonal_form(self):
        # equal weights: Q = m m^T / 3 = diag(3,2,1)
        m = math.sqrt(3.0) * np.diag([math.sqrt(3.0), math.sqrt(2.0), 1.0])
        report = verify_current_step(m, equal_weights(), samples=100_000, seed=1)
        assert report.gap <= 0.0
        assert_allclose(report.closed_form, 3.0, rtol=1e-12)
        assert report.oracle_best <= 3.0
        assert report.oracle_best > 2.9  # sphere samples approach the top eigenvalue

    def test_scenario_dominance(self):
        m = SCENARIO.mutual_at(1.0)
        report = verify_current_step(m, equal_weights(), samples=100_000, seed=42)
        assert report.gap <= 0.0
        assert not report.low_confidence

    def test_low_sample_count_flagged(self):
        m = SCENARIO.mutual_at(1.0)
        report = verify_current_step(m, equal_weights(), samples=10, seed=5)
        assert report.low_confidence

    def test_deterministic_given_seed(self):
        m = SCENARIO.mutual_at(2.0)
        a = verify_current_step(m, equal_weights(), samples=5000, seed=99)
        b = verify_current_step(m, equal_weights(), samples=5000, seed=99)
        assert a == b


class TestWeightStep:
    def test_concentrated_coupling_has_zero_gap(self):
        m = np.diag([1.0, 0.0, 0.0])
        report = verify_weight_step(m, [1.0, 0.0, 0.0], grid=50)
        assert_allclose(report.closed_form, 1.0, rtol=1e-12)
        assert_allclose(report.oracle_best, 1.0, rtol=1e-12)
        assert abs(report.gap) <= 1e-12

    def test_symmetric_couplings_have_zero_gap(self):
        m = np.eye(3)
        report = verify_weight_step(m, [1.0, 1.0, 1.0], grid=50)
        assert_allclose(report.closed_form, 1.0, rtol=1e-12)
        assert_allclose(report.oracle_best, 1.0, rtol=1e-12)
        assert abs(report.gap) <= 1e-12

    def test_two_one_one_documents_quarter_gap(self):
        # couplings (2,1,1): rule objective 18/6 = 3, concentration 4
        m = np.diag([2.0, 1.0, 1.0])
        i = np.ones(3)
        report = verify_weight_step(m, i, grid=50)
        assert_allclose(report.closed_form, 3.0, rtol=1e-12)
        assert_allclose(report.oracle_best, 4.0, rtol=1e-12)
        assert_allclose(report.gap, 0.25, rtol=1e-12)
        assert_allclose(concentration_objective([2.0, 1.0, 1.0]), 4.0, rtol=0)
        assert_allclose(weight_rule_objective([2.0, 1.0, 1.0]), 3.0, rtol=1e-15)

    def test_grid_best_brackets_rule_and_concentration(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            m = rng.standard_normal((3, 3)) * 1e-9
            i = rng.standard_normal(3)
            a = np.abs(m.T @ i)
            if np.all(a == 0.0):
                continue
            report = verify_weight_step(m, i, grid=60)
            assert report.oracle_best >= report.closed_form - 1e-12 * report.oracle_best
            assert report.oracle_best <= concentration_objective(a) * (1 + 1e-12)

    def test_scenario_rule_value(self):
        m = SCENARIO.mutual_at(1.0)
        i = equal_current(SCENARIO.link)
        report = verify_weight_step(m, i, grid=50)
        a = np.abs(m.T @ i)
        assert_allclose(report.closed_form, weight_rule_objective(a), rtol=1e-12)


class TestDipoleExpansion:
    def test_random_trials(self):
        report = verify_dipole_expansion(trials=1000, seed=7)
        assert report.closed_form <= 1e-12  # z and y rows match the dipole model
        assert report.oracle_best > 0.0  # the x-axis variant deviates
        assert report.samples == 1000

    def test_near_zero_couplings_pass(self):
        # seed 16 draws geometries whose matched-row couplings nearly vanish;
        # rounding noise there must not count as a deviation
        report = verify_dipole_expansion(trials=1000, seed=16, tx=COIL, rx=COIL)
        assert report.closed_form <= 1e-12

    def test_axis_aligned_exact(self):
        offset = np.array([0.0, 0.0, 2.0])
        n_r = np.array([0.0, 0.0, 1.0])
        assert_allclose(
            paper_literal_mutual(0, n_r, offset, COIL, COIL),
            dipole_mutual([0, 0, 1.0], n_r, offset, COIL, COIL),
            rtol=1e-15,
        )

    def test_on_axis_boundary_deviation(self):
        # with the offset on the z-axis the x-coil row reduces to a single
        # term; the variant and the dipole model then differ by
        # scale * z^2 * |cos_alpha - cos_gamma| and agree when the two
        # cosines coincide (e.g. a receive normal along y)
        offset = np.array([0.0, 0.0, 1.7])
        rng = np.random.default_rng(8)
        x_axis = np.array([1.0, 0.0, 0.0])
        for _ in range(50):
            n_r = rng.standard_normal(3)
            n_r /= np.linalg.norm(n_r)
            variant = paper_literal_mutual(1, n_r, offset, COIL, COIL)
            dip = dipole_mutual(x_axis, n_r, offset, COIL, COIL)
            ca, _, cg = n_r
            r = np.linalg.norm(offset)
            scale = 4e-7 * np.pi * COIL.turns**2 * COIL.area**2 / (4 * np.pi * r**5)
            assert_allclose(abs(variant - dip), scale * offset[2] ** 2 * abs(ca - cg), rtol=1e-10)
        n_y = np.array([0.0, 1.0, 0.0])
        assert paper_literal_mutual(1, n_y, offset, COIL, COIL) == pytest.approx(
            dipole_mutual(x_axis, n_y, offset, COIL, COIL), abs=1e-30
        )

    def test_deterministic_given_seed(self):
        a = verify_dipole_expansion(trials=200, seed=7)
        b = verify_dipole_expansion(trials=200, seed=7)
        assert a == b


def test_failure_raised_when_closed_form_loses(monkeypatch):
    # shrink the eigenvalue the verifier computes so a sample must win
    from tricoil import oracle as oracle_mod

    real = oracle_mod.symmetric_eig3

    def shrunk(q):
        values, vectors = real(q)
        return values * 0.5, vectors

    monkeypatch.setattr(oracle_mod, "symmetric_eig3", shrunk)
    with pytest.raises(OracleFailure):
        verify_current_step(SCENARIO.mutual_at(1.0), equal_weights(), samples=1000, seed=3)
