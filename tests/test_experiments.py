import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tricoil.circuit import LinkParams, equal_weights, pathloss_db
from tricoil.cli import DEFAULT_THRESHOLDS
from tricoil.experiments import (
    STRATEGIES,
    Scenario,
    SweepPoint,
    SweepResult,
    angle_sweep,
    run_strategy,
    summary_stats,
    threshold_sweep,
)
from tricoil.geometry import alpha_grid
from tricoil.optimizer import alternate, equal_current, optimal_current, optimal_weights

SCENARIO = Scenario.reference()
SMALL_GRID = alpha_grid(24)


@pytest.fixture(scope="module")
def sweep():
    return angle_sweep(SCENARIO, SMALL_GRID, delta=2.5e-2)


class TestRunStrategy:
    def test_equal_matches_direct_evaluation(self):
        loss, trace = run_strategy(SCENARIO, 1.0, "equal")
        m = SCENARIO.mutual_at(1.0)
        direct = pathloss_db(m, equal_current(SCENARIO.link), equal_weights(), SCENARIO.link)
        assert loss == direct
        assert trace is None  # no iterations involved

    def test_joint_reports_best_round(self):
        loss, trace = run_strategy(SCENARIO, 1.0, "joint")
        assert trace is not None
        assert loss == min(step.pathloss for step in trace.rounds)

    def test_closed_form_strategies_have_no_trace(self):
        for strategy in ("tx-only", "rx-only"):
            _, trace = run_strategy(SCENARIO, 0.5, strategy)
            assert trace is None

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            run_strategy(SCENARIO, 1.0, "psychic")


class TestDominance:
    def test_every_optimizing_strategy_beats_equal(self, sweep):
        for point in sweep.points:
            assert point.joint_db <= point.equal_db + 1e-9
            assert point.txonly_db <= point.equal_db + 1e-9
            assert point.rxonly_db <= point.equal_db + 1e-9

    def test_rank_one_symmetric_coupling_makes_all_strategies_agree(self):
        # rank-1 coupling with symmetric entries: the eigen step, the
        # weight rule and the equal baseline all land on the same point
        u = np.full(3, 1 / math.sqrt(3.0))
        m = 1e-9 * np.outer(u, u)
        link = LinkParams(omega=1.0, r_t=1.0, z_r=1.0, z_l=1.0, p0=3.0)
        i_eq = equal_current(link)
        losses = {
            "equal": pathloss_db(m, i_eq, equal_weights(), link),
            "tx-only": pathloss_db(m, optimal_current(m, equal_weights(), link), equal_weights(), link),
            "rx-only": pathloss_db(m, i_eq, optimal_weights(m, i_eq), link),
            "joint": alternate(m, link).best_round().pathloss,
        }
        spread = max(losses.values()) - min(losses.values())
        assert spread < 1e-9


class TestAngleSweep:
    def test_grid_order_and_completeness(self, sweep):
        assert_allclose(sweep.alphas(), SMALL_GRID, rtol=0)
        assert all(p.converged for p in sweep.points)
        assert all(p.iterations >= 2 for p in sweep.points)

    def test_deterministic(self):
        a = angle_sweep(SCENARIO, alpha_grid(6))
        b = angle_sweep(SCENARIO, alpha_grid(6))
        assert a == b

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            angle_sweep(SCENARIO, [])

    def test_points_equal_single_angle_strategies(self, sweep):
        for point in sweep.points:
            for strategy in STRATEGIES:
                assert point.loss(strategy) == run_strategy(SCENARIO, point.alpha, strategy)[0]
            trace = run_strategy(SCENARIO, point.alpha, "joint")[1]
            assert (point.iterations, point.converged) == (trace.iterations, trace.converged)


class TestThresholdSweep:
    def test_huge_threshold_stops_at_two_rounds(self):
        points = threshold_sweep(SCENARIO, [1e6], SMALL_GRID)
        assert points[0].mean_iterations == 2.0

    def test_reduction_plateau_versus_decline(self):
        points = threshold_sweep(SCENARIO, [3e-4, 3e-1], SMALL_GRID)
        tight, loose = points
        assert tight.mean_reduction_pct >= loose.mean_reduction_pct - 1e-9
        assert tight.mean_iterations >= loose.mean_iterations

    def test_rejects_nonpositive_thresholds(self):
        with pytest.raises(ValueError):
            threshold_sweep(SCENARIO, [0.0], SMALL_GRID)
        with pytest.raises(ValueError):
            threshold_sweep(SCENARIO, [1e-3, math.nan], SMALL_GRID)

    def test_unsorted_duplicate_thresholds_match_single_calls(self):
        deltas = [3e-1, 1e-4, 3e-1, 1e-2]
        points = threshold_sweep(SCENARIO, deltas, SMALL_GRID)
        assert points == [threshold_sweep(SCENARIO, [d], SMALL_GRID)[0] for d in deltas]

    def test_no_thresholds(self):
        assert threshold_sweep(SCENARIO, [], SMALL_GRID) == []

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            threshold_sweep(SCENARIO, [1e-3], [])

    def test_matches_fresh_runs_at_cli_thresholds(self):
        grid = alpha_grid(36)
        link = SCENARIO.link
        mutuals = [SCENARIO.mutual_at(alpha) for alpha in grid]
        equal = np.array([pathloss_db(m, equal_current(link), equal_weights(), link) for m in mutuals])
        points = threshold_sweep(SCENARIO, DEFAULT_THRESHOLDS, grid)
        assert [p.delta for p in points] == list(DEFAULT_THRESHOLDS)
        for point in points:
            traces = [alternate(m, link, delta=point.delta) for m in mutuals]
            joint = np.array([trace.best_round().pathloss for trace in traces])
            assert point.mean_iterations == np.mean([trace.iterations for trace in traces])
            assert point.mean_reduction_pct == np.mean(100.0 * (equal - joint) / equal)


class TestRegressionAnchors:
    """Frozen values for the default scenario at a 1 rad tilt.

    Computed once with an independent throwaway implementation (LAPACK
    eigensolver, direct formula evaluation) and frozen here; they guard
    the whole pipeline against silent numerical drift.
    """

    def test_mutual_matrix_entries(self):
        m = SCENARIO.mutual_at(1.0)
        frozen = np.array(
            [
                [1.3616600783286449e-09, 8.6852278804135295e-11, 1.1927239335925787e-09],
                [3.6564188519416169e-10, -1.1826513306663701e-09, 7.9514928906171924e-10],
                [1.3135265469202519e-09, -5.7402158861463646e-10, -3.3131220377571636e-10],
            ]
        )
        assert_allclose(m, frozen, rtol=1e-12)

    def test_strategy_pathlosses(self):
        expected = {
            "equal": 3.8665353125842907,
            "tx-only": 3.7368855409406141,
            "rx-only": 2.4534581462680398,
            "joint": 1.2235376081657829,
        }
        for strategy, frozen in expected.items():
            loss, trace = run_strategy(SCENARIO, 1.0, strategy)
            assert_allclose(loss, frozen, rtol=1e-10)
        _, trace = run_strategy(SCENARIO, 1.0, "joint")
        assert trace.iterations == 4


class TestSummaryStats:
    def test_single_angle(self):
        point = SweepPoint(
            alpha=1.0, joint_db=2.0, txonly_db=3.0, rxonly_db=4.0, equal_db=5.0, iterations=4, converged=True
        )
        summary = summary_stats(SweepResult(points=(point,)))
        assert summary.per_strategy["joint"].mean == 2.0
        assert summary.per_strategy["equal"].maximum == 5.0
        assert_allclose(summary.mean_reduction_pct, 100 * (5.0 - 2.0) / 5.0, rtol=1e-15)
        assert summary.mean_iterations == 4.0

    def test_constant_input_has_zero_fluctuation(self):
        point = SweepPoint(
            alpha=0.0, joint_db=2.0, txonly_db=2.0, rxonly_db=2.0, equal_db=2.0, iterations=2, converged=True
        )
        summary = summary_stats(SweepResult(points=(point, dataclasses.replace(point, alpha=1.0))))
        for strategy in STRATEGIES:
            assert summary.per_strategy[strategy].fluctuation == 0.0

    def test_scenario_band_consistency(self, sweep):
        summary = summary_stats(sweep)
        joint = summary.per_strategy["joint"].fluctuation
        rxonly = summary.per_strategy["rx-only"].fluctuation
        assert joint <= rxonly + 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summary_stats(SweepResult(points=()))
