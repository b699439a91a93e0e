import math

import numpy as np
import pytest

from ssflow import (
    ComparisonError,
    DomainError,
    IntegrationFailure,
    IntegrationSettings,
    PMEParams,
    StopEvent,
    Trajectory,
    compare_trajectories,
    integrate,
    straight_line,
    unified_coefficients,
    unified_system,
)
from ssflow.params import UnifiedCoefficients

PME = PMEParams(2.0, 1.0, 1.0 / 3.0)


def _linear_flow(y):
    # phi' = 1, psi' = psi*phi: exactly solvable, psi(0)=0 stays 0
    return np.array([y[0] * y[1], 1.0])


class TestIntegrate:
    def test_decoupled_linear_flow(self):
        coeffs = UnifiedCoefficients(0.0, 0.0, 0.0, 1.0, 1, 0)
        traj = integrate(unified_system(coeffs), (0.0, 0.0), (0.0, 1.0))
        assert traj.status == "completed"
        assert traj.final_state[1] == pytest.approx(1.0, abs=1e-12)
        assert traj.final_state[0] == pytest.approx(0.0, abs=1e-14)

    def test_line_invariance_over_long_span(self):
        coeffs = unified_coefficients(PME)
        a1, a2 = straight_line(coeffs)
        sett = IntegrationSettings(rel_tol=1e-10, abs_tol=1e-13)
        traj = integrate(unified_system(coeffs), (0.01, a1 * 1.01), (0.0, 5.0), sett)
        dev = np.max(np.abs(traj.states[:, 1] - a1 * traj.states[:, 0] - a2))
        assert traj.status == "completed"
        assert dev < 1e-8

    def test_event_stops_at_crossing(self):
        ev = StopEvent(component=0, bound=0.0, direction=-1)
        traj = integrate(
            lambda y: np.array([-1.0, 0.0]),
            (0.5, 0.0),
            (0.0, 2.0),
            IntegrationSettings(stop_events=(ev,)),
        )
        assert traj.status == "event"
        assert traj.r1[-1] == pytest.approx(0.5, abs=1e-10)
        assert traj.final_state[0] == pytest.approx(0.0, abs=1e-10)

    def test_event_direction_filter(self):
        ev = StopEvent(component=0, bound=0.0, direction=+1)
        traj = integrate(
            lambda y: np.array([-1.0, 0.0]),
            (0.5, 0.0),
            (0.0, 2.0),
            IntegrationSettings(stop_events=(ev,)),
        )
        assert traj.status == "completed"

    def test_divergence_guard(self):
        coeffs = unified_coefficients(PME)
        traj = integrate(unified_system(coeffs), (0.5, 3.0), (0.0, 50.0))
        assert traj.status == "diverged"
        assert np.linalg.norm(traj.final_state) > 1e12

    def test_max_steps_truncation(self):
        coeffs = unified_coefficients(PME)
        traj = integrate(
            unified_system(coeffs), (0.01, 0.8), (0.0, 5.0), IntegrationSettings(max_steps=5)
        )
        assert traj.status == "truncated"
        assert len(traj) == 6

    def test_nan_raises_with_partial(self):
        def rhs(y):
            if y[0] > 1.0:
                return np.array([math.nan, math.nan])
            return np.array([1.0, 0.0])

        with pytest.raises(IntegrationFailure) as exc:
            integrate(rhs, (0.0, 0.0), (0.0, 3.0))
        partial = exc.value.partial
        assert len(partial) > 1
        assert partial.r1[-1] <= 1.0 + 1e-6

    def test_rhs_not_finite_at_start(self):
        with pytest.raises(DomainError):
            integrate(lambda y: np.array([math.inf, 0.0]), (0.0, 0.0), (0.0, 1.0))

    def test_degenerate_span(self):
        with pytest.raises(DomainError):
            integrate(_linear_flow, (0.0, 0.0), (1.0, 1.0))

    def test_backward_integration(self):
        coeffs = UnifiedCoefficients(0.0, 0.0, 0.0, 1.0, 1, 0)
        traj = integrate(unified_system(coeffs), (0.0, 1.0), (1.0, 0.0))
        assert traj.status == "completed"
        assert traj.final_state[1] == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.diff(traj.r1) < 0)

    def test_order_of_accuracy(self):
        coeffs = unified_coefficients(PME)
        ref = integrate(
            unified_system(coeffs), (0.01, 0.8), (0.0, 1.0),
            IntegrationSettings(rel_tol=1e-13, abs_tol=1e-15),
        )

        def end_err(h):
            t = integrate(
                unified_system(coeffs), (0.01, 0.8), (0.0, 1.0),
                IntegrationSettings(rel_tol=1.0, abs_tol=1.0, max_step=h),
            )
            return float(np.linalg.norm(t.final_state - ref.final_state))

        assert end_err(0.05) / end_err(0.025) > 4.0

    def test_reversibility(self):
        coeffs = unified_coefficients(PME)
        y0 = np.array([0.01, 0.8])
        fw = integrate(unified_system(coeffs), y0, (0.0, 2.0))
        bw = integrate(unified_system(coeffs), fw.final_state, (2.0, 0.0))
        err = np.linalg.norm(bw.final_state - y0)
        assert err <= 10.0 * (1e-9 * np.linalg.norm(y0) + 1e-12)

    def test_settings_validation(self):
        with pytest.raises(DomainError):
            IntegrationSettings(rel_tol=0.0)
        with pytest.raises(DomainError):
            IntegrationSettings(max_steps=0)
        with pytest.raises(DomainError):
            StopEvent(component=2, bound=0.0)


class TestTrajectory:
    def test_monotonicity_enforced(self):
        with pytest.raises(Exception):
            Trajectory(np.array([0.0, 1.0, 0.5]), np.zeros((3, 2)), np.zeros((3, 2)))

    def test_phase_states_view(self):
        traj = Trajectory(np.array([0.0, 1.0]), np.array([[1.0, 2.0], [3.0, 4.0]]), np.zeros((2, 2)))
        states = traj.phase_states()
        assert states[0].psi == 1.0 and states[1].phi == 4.0


class TestCompareTrajectories:
    def test_self_comparison_is_zero(self):
        coeffs = unified_coefficients(PME)
        traj = integrate(unified_system(coeffs), (0.01, 0.8), (0.0, 2.0))
        assert compare_trajectories(traj, traj) == 0.0

    def test_perturbed_start_detected(self):
        coeffs = unified_coefficients(PME)
        a = integrate(unified_system(coeffs), (0.01, 0.8), (0.0, 2.0))
        b = integrate(unified_system(coeffs), (0.011, 0.8), (0.0, 2.0))
        assert compare_trajectories(a, b) >= 1e-3

    def test_disjoint_ranges_refused(self):
        a = Trajectory(np.array([0.0, 1.0]), np.zeros((2, 2)), np.zeros((2, 2)))
        b = Trajectory(np.array([2.0, 3.0]), np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ComparisonError):
            compare_trajectories(a, b)

    def test_tolerance_refinement_improves_agreement(self):
        # halving tolerances tracks a tight reference at least ~4x closer
        coeffs = unified_coefficients(PME)
        ref = integrate(
            unified_system(coeffs), (0.05, 0.7), (0.0, 2.0),
            IntegrationSettings(rel_tol=1e-13, abs_tol=1e-16),
        )

        def dev(rtol):
            t = integrate(
                unified_system(coeffs), (0.05, 0.7), (0.0, 2.0),
                IntegrationSettings(rel_tol=rtol, abs_tol=rtol * 1e-3),
            )
            return float(np.linalg.norm(t.final_state - ref.final_state))

        coarse, fine = dev(1e-6), dev(1e-8)
        assert coarse / max(fine, 1e-16) > 4.0

    def test_nan_derivatives_propagate(self):
        # a NaN deviation must stay NaN, so a worst-of check can never pass on it
        from ssflow.verify import _Agg

        r1 = np.linspace(0.0, 1.0, 5)
        states = np.column_stack([r1, r1 * r1])
        derivs = np.column_stack([np.ones(5), np.full(5, np.nan)])
        a = Trajectory(r1, states, derivs)
        b = Trajectory(r1, states + 1e-3, derivs)
        dev = compare_trajectories(a, b)
        assert math.isnan(dev)
        agg = _Agg(1e-6)
        agg.add(dev)
        assert agg.result("conjugacy").passed is False
