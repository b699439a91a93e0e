import math

import numpy as np
import pytest
from hypothesis import assume, given, settings as hyp_settings, strategies as st

from ssflow import (
    AnchorMismatchError,
    DomainError,
    IntegrationSettings,
    NativeStatePLE,
    NativeStatePME,
    OrientationError,
    OutsideSupportError,
    PhaseState,
    PLEParams,
    PMEParams,
    ProfileSample,
    SimilarityType,
    SingularEvaluationError,
    Trajectory,
    TruncationWarning,
    UnifiedCoefficients,
    alpha_from,
    barenblatt_ple,
    barenblatt_pme,
    critical_exponents,
    integrate,
    line_betas_ple,
    line_betas_pme,
    line_condition_value,
    ple_native_system_xy,
    ple_to_unified,
    ple_trajectory_to_unified,
    pme_native_system,
    pme_to_unified,
    pme_trajectory_to_unified,
    profile_to_state,
    reconstruct_profile,
    state_to_profile,
    straight_line,
    unified_coefficients,
    unified_system,
    unified_to_ple,
    unified_to_pme,
    yamabe_curve,
)
from ssflow.phase_plane import _ple_forward, _pme_forward

PME = PMEParams(2.0, 1.0, 1.0 / 3.0)
PLE = PLEParams(3.0, 1.0, 1.0 / 3.0)
SQRT6 = math.sqrt(6.0)


def _ple_xz_field(x, z, params):
    """Reference native p-Laplacian (X, Z) field with Z = eta^gamma f, for X > 0.

    dX = ((2-p)/(p-1)) (-(n-gamma)X + alpha Z X^((3-2p)/(2-p)) - beta X^2),  dZ = gamma Z - X^(1/(2-p))
    """
    p, n, beta, gamma = params.p, params.n, params.beta, params.gamma
    pow1 = abs(x) ** ((3.0 - 2.0 * p) / (2.0 - p))
    dx = ((2.0 - p) / (p - 1.0)) * (-(n - gamma) * x + alpha_from(params) * z * pow1 - beta * abs(x) * x)
    return dx, gamma * z - x ** (1.0 / (2.0 - p))


class TestNativeRhs:
    def test_pme_origin_fixed(self):
        assert pme_native_system(PME)((0.0, 0.0)) == (0.0, 0.0)

    def test_pme_spot_values(self):
        assert pme_native_system(PME)((1.0, 0.0)) == pytest.approx((-1.0, 0.0), abs=1e-15)
        assert pme_native_system(PME)((0.0, 1.0)) == pytest.approx((-1.0 / 3.0, 2.0), abs=1e-15)

    def test_ple_xy_origin_fixed(self):
        assert ple_native_system_xy(PLE)((0.0, 0.0)) == (0.0, 0.0)

    def test_ple_xy_spot_value(self):
        dx, dy = ple_native_system_xy(PLE)((1.0, 0.0))
        assert dx == pytest.approx(13.0 / 6.0, rel=1e-14)
        assert dy == -1.0

    def test_ple_xy_x_axis_invariant(self):
        for y in (-1.0, 0.5, 2.0):
            dx, dy = ple_native_system_xy(PLE)((0.0, y))
            assert dx == 0.0
            alpha, n = alpha_from(PLE), PLE.n
            assert dy == pytest.approx(-alpha * y * y + n * y, rel=1e-14)

    def test_ple_xz_consistent_with_xy(self):
        # Y = |X|^(1/(p-2)) X Z ties the two systems together
        params = PLEParams(3.0, 2.0, 0.1)
        p, x, z = params.p, 0.8, 1.3
        y = x ** (1.0 / (p - 2.0) + 1.0) * z
        dx_z, dz = _ple_xz_field(x, z, params)
        dx_y, dy = ple_native_system_xy(params)((x, y))
        assert dx_z == pytest.approx(dx_y, rel=1e-13)
        dy_chain = (p - 1.0) / (p - 2.0) * x ** (1.0 / (p - 2.0)) * dx_z * z + x ** (
            (p - 1.0) / (p - 2.0)
        ) * dz
        assert dy_chain == pytest.approx(dy, rel=1e-13)


class TestUnifiedRhs:
    def test_constant_term_only(self):
        coeffs = UnifiedCoefficients(0.0, 0.0, 0.0, 1.0, 1, 0)
        assert unified_system(coeffs)((0.0, 0.0)) == (0.0, 1.0)

    def test_type3_drops_psi(self):
        coeffs = UnifiedCoefficients(0.0, 0.0, 0.0, 1.0, 1, 0)
        assert unified_system(coeffs)((5.0, 0.0)) == (0.0, 1.0)

    def test_psi_axis_invariant(self):
        coeffs = unified_coefficients(PME)
        dpsi, _ = unified_system(coeffs)((0.0, 0.37))
        assert dpsi == 0.0

    def test_line_tangency_reference_case(self):
        rhs = unified_system(unified_coefficients(PME))
        a = SQRT6 / 3.0
        for psi in np.linspace(-2.0, 2.0, 100):
            phi = a * (psi + 1.0)
            dpsi, dphi = rhs((psi, phi))
            assert abs(dphi - a * dpsi) < 1e-12


class TestTransforms:
    def test_pme_forward_reference(self):
        st = pme_to_unified(NativeStatePME(0.0, 0.0), PME)
        assert st.psi == 0.0
        assert st.phi == pytest.approx(2.0 / SQRT6, abs=1e-15)

    def test_pme_round_trip(self):
        for x, y in [(0.3, 1.2), (-1.0, 0.0), (2.0, 5.0)]:
            st = pme_to_unified(NativeStatePME(x, y), PME)
            back = unified_to_pme(st, PME)
            assert back.x == pytest.approx(x, abs=1e-14)
            assert back.y == pytest.approx(y, abs=1e-14)

    def test_pme_psi_scale(self):
        st = pme_to_unified(NativeStatePME(0.0, 6.0), PME)
        assert st.psi == pytest.approx(1.0, abs=1e-15)

    def test_ple_forward_scale(self):
        st = ple_to_unified(NativeStatePLE(1.0, 0.0), PLE)
        assert st.psi == pytest.approx(1.0 / 12.0, abs=1e-16)

    # the forward map and the inverse share one rule, X > 0, which NaN fails too
    @pytest.mark.parametrize("x", [-1.0, math.nan])
    def test_ple_orientation_guard(self, x):
        with pytest.raises(OrientationError):
            ple_to_unified(NativeStatePLE(x, 0.0), PLE)

    def test_ple_round_trip(self):
        params = PLEParams(3.0, 1.0, 0.25)
        for x, y in [(1.0, 2.0), (0.2, -0.5), (3.0, 0.1)]:
            st = ple_to_unified(NativeStatePLE(x, y), params)
            back = unified_to_ple(st, params)
            assert back.x == pytest.approx(x, rel=1e-12)
            assert back.y == pytest.approx(y, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("p", [0.5, 0.8])
    def test_ple_round_trip_below_one(self, p):
        # for p < 1 the embedding's a = 1/(|b|(p-1)) is negative: X > 0 maps to Psi < 0
        params = PLEParams(p, 3.0, 0.3)
        st = ple_to_unified((0.4, 0.7), params)
        assert st.psi < 0.0
        back = unified_to_ple(st, params)
        assert back.x == pytest.approx(0.4, rel=1e-14)
        assert back.y == pytest.approx(0.7, rel=1e-14)

    def test_ple_inverse_alpha_zero_refused(self):
        # p = 3, beta = 1/3 Type I forces alpha = 0
        assert alpha_from(PLE) == 0.0
        with pytest.raises(SingularEvaluationError):
            unified_to_ple(PhaseState(0.1, 0.5), PLE)

    def test_critical_transform_uses_substituted_scale(self):
        params = PMEParams(1.0 / 3.0, 3.0, 0.5)  # m = m_c(3)
        coeffs = unified_coefficients(params)
        assert coeffs.critical and coeffs.sqrt_abs_b == pytest.approx(1.0)
        st = pme_to_unified(NativeStatePME(0.0, 1.0), params)
        assert st.psi == pytest.approx(1.0)
        assert st.phi == pytest.approx(2.0)


class TestProfileToState:
    def test_pme_vertex(self):
        st = profile_to_state(ProfileSample(1.0, 1.0, 0.0), PME)
        assert st.psi == pytest.approx(1.0 / 6.0, abs=1e-16)
        assert st.phi == pytest.approx(2.0 / SQRT6, abs=1e-15)
        assert tuple(st) == (st.psi, st.phi)  # a named pair: unpacks, and keeps .psi and .phi

    def test_ple_decreasing_sample(self):
        st = profile_to_state(ProfileSample(1.0, 1.0, -1.0), PLE)
        assert st.psi == pytest.approx(1.0 / 12.0, abs=1e-16)

    def test_pme_nonpositive_f_refused(self):
        with pytest.raises(OutsideSupportError):
            profile_to_state(ProfileSample(1.0, 0.0, -1.0), PME)

    def test_ple_zero_slope_refused(self):
        with pytest.raises(SingularEvaluationError):
            profile_to_state(ProfileSample(1.0, 1.0, 0.0), PLE)

    def test_eta_positive_required(self):
        with pytest.raises(Exception):
            ProfileSample(0.0, 1.0, -1.0)

    @pytest.mark.parametrize("eta", [0.0, -1.0, math.nan, math.inf])
    def test_eta_not_positive_and_finite_refused(self, eta):
        with pytest.raises(DomainError):
            ProfileSample(eta, 1.0, -1.0)


class TestConjugacyByFiniteDifferences:
    def test_mapped_derivative_matches_unified_field(self):
        # uniform fine steps, map states, centered differences vs the field: O(h^2)
        rhs = unified_system(unified_coefficients(PME))
        errs = []
        for h in (2e-3, 1e-3):
            sett = IntegrationSettings(rel_tol=1e-3, abs_tol=1e-3, max_step=h)
            nat = integrate(pme_native_system(PME), (0.2, 0.5), (0.0, 0.5), sett)
            mapped = pme_trajectory_to_unified(nat, PME)
            worst = 0.0
            for i in range(1, len(mapped) - 1):
                dr = mapped.r1[i + 1] - mapped.r1[i - 1]
                fd = (mapped.states[i + 1] - mapped.states[i - 1]) / dr
                field = np.array(rhs(mapped.states[i]))
                worst = max(worst, float(np.max(np.abs(fd - field))))
            errs.append(worst)
        assert errs[0] / errs[1] > 3.0  # halving h roughly quarters the error
        assert errs[1] < 1e-5


class TestPointwiseConjugacy:
    """The forward map T carries each native field F onto the unified field G: DT F(x) / s = G(T(x)).

    No integrator is involved.  The gap is scaled by the largest term of G(T(x)); over 20,000
    random parameter sets per equation, all three similarity types, the worst was 1.3e-15 (PME)
    and 9.3e-15 (PLE).  Next to the critical exponent the coefficients lose digits like
    1e-16 / |m - m_c|, so the draws keep 1e-2 away from it.
    """

    BOUND = 1e-12

    @staticmethod
    def _scaled_gap(params, forward, native_system, x, y):
        coeffs = unified_coefficients(params)
        s = coeffs.sqrt_abs_b
        dpsi, dphi = forward(params, s, linear=True)(*native_system(params)((x, y)))
        psi, phi = forward(params, s)(x, y)
        g_psi, g_phi = unified_system(coeffs)((psi, phi))
        terms = (psi * phi, coeffs.c1 * phi * phi, coeffs.c2 * psi * phi, coeffs.c3 * phi,
                 coeffs.psi_coeff * psi, coeffs.const_term)
        return max(abs(dpsi / s - g_psi), abs(dphi / s - g_phi)) / max(abs(t) for t in terms)

    @hyp_settings(max_examples=300, derandomize=True, deadline=None)
    @given(m=st.floats(0.1, 4.0), n=st.floats(1.0, 6.0), beta=st.floats(-1.0, 1.0),
           sim_type=st.sampled_from(SimilarityType), x=st.floats(-3.0, 3.0), y=st.floats(-3.0, 3.0))
    def test_pme(self, m, n, beta, sim_type, x, y):
        assume(abs(m - 1.0) > 1e-6 and abs(m - critical_exponents(n).m_c) > 1e-2)
        params = PMEParams(m, n, beta, sim_type)
        assert self._scaled_gap(params, _pme_forward, pme_native_system, x, y) <= self.BOUND

    # the p-Laplacian field carries |X|, and the unified plane holds its X > 0 half
    @hyp_settings(max_examples=300, derandomize=True, deadline=None)
    @given(p=st.floats(1.1, 5.0), n=st.floats(1.0, 6.0), beta=st.floats(-1.0, 1.0),
           sim_type=st.sampled_from(SimilarityType), x=st.floats(0.05, 3.0), y=st.floats(-3.0, 3.0))
    def test_ple(self, p, n, beta, sim_type, x, y):
        assume(abs(p - 2.0) > 1e-6 and abs(p - critical_exponents(n).p_c) > 1e-2)
        params = PLEParams(p, n, beta, sim_type)
        assert self._scaled_gap(params, _ple_forward, ple_native_system_xy, x, y) <= self.BOUND


class TestReconstruction:
    def test_power_law_from_fixed_psi(self):
        psi0 = 0.3
        traj = Trajectory(
            np.linspace(0.0, 1.0, 11),
            np.column_stack([np.full(11, psi0), np.zeros(11)]),
            np.zeros((11, 2)),
        )
        f0 = (6.0 * psi0) ** (-1.0)
        x0 = -2.0 / (1.0 - 2.0)
        anchor = ProfileSample(1.0, f0, x0 * f0)
        samples = reconstruct_profile(traj, PME, anchor)
        assert len(samples) == 11
        for smp in samples:
            assert smp.f == pytest.approx(f0 * smp.eta ** 2.0, rel=1e-13)

    def test_empty_trajectory(self):
        traj = Trajectory(np.array([]), np.zeros((0, 2)), np.zeros((0, 2)))
        assert reconstruct_profile(traj, PME, ProfileSample(1.0, 1.0, 1.0)) == []

    def test_anchor_mismatch_raises(self):
        traj = Trajectory(
            np.linspace(0.0, 1.0, 5),
            np.column_stack([np.full(5, 0.3), np.zeros(5)]),
            np.zeros((5, 2)),
        )
        with pytest.raises(AnchorMismatchError):
            reconstruct_profile(traj, PME, ProfileSample(1.0, 1.0, 0.0))

    def test_truncation_on_nonpositive_psi(self):
        states = np.column_stack([np.array([0.2, 0.1, -0.1, -0.2]), np.zeros(4)])
        traj = Trajectory(np.linspace(0.0, 1.0, 4), states, np.zeros((4, 2)))
        f0 = (6.0 * 0.2) ** (-1.0)
        anchor = ProfileSample(1.0, f0, 2.0 * f0)
        with pytest.warns(TruncationWarning):
            out = reconstruct_profile(traj, PME, anchor)
        assert len(out) == 2

    def test_truncation_at_first_refused_state_below_one(self):
        # p < 1: valid states have Psi < 0, and the first Psi > 0 state ends the profile
        params = PLEParams(0.5, 3.0, 0.3)
        anchor = ProfileSample(1.0, 1.0, -0.5)
        st = profile_to_state(anchor, params)
        states = np.array([(st.psi, st.phi), (st.psi, st.phi), (-st.psi, st.phi), (st.psi, st.phi)])
        traj = Trajectory(np.linspace(0.0, 0.3, 4), states, np.zeros((4, 2)))
        with pytest.warns(TruncationWarning):
            out = reconstruct_profile(traj, params, anchor)
        assert len(out) == 2
        assert out[0].eta == anchor.eta
        assert out[0].f == pytest.approx(anchor.f, rel=1e-14)
        assert out[0].fprime == pytest.approx(anchor.fprime, rel=1e-14)

    def test_samples_sorted_increasing_eta_backward_run(self):
        coeffs = unified_coefficients(PME)
        start = profile_to_state(ProfileSample(1.0, 0.5, -0.1), PME)
        sett = IntegrationSettings(rel_tol=1e-10, abs_tol=1e-13)
        traj = integrate(unified_system(coeffs), tuple(start), (0.0, -1.0), sett)
        samples = reconstruct_profile(traj, PME, ProfileSample(1.0, 0.5, -0.1))
        etas = [s.eta for s in samples]
        assert etas == sorted(etas)
        assert etas[-1] == pytest.approx(1.0, rel=1e-12)


class TestStraightLines:
    def test_reference_line(self):
        coeffs = unified_coefficients(PME)
        a1, a2 = straight_line(coeffs)
        assert a1 == a2 == pytest.approx(SQRT6 / 3.0, rel=1e-14)

    def test_second_root(self):
        coeffs = unified_coefficients(PMEParams(2.0, 1.0, 0.25))
        assert straight_line(coeffs) is not None

    def test_no_line_off_root(self):
        coeffs = unified_coefficients(PMEParams(2.0, 1.0, 0.5))
        assert line_condition_value(coeffs) == pytest.approx(0.5, rel=1e-13)
        assert straight_line(coeffs) is None

    def test_requires_type1_positive_b(self):
        coeffs = unified_coefficients(PMEParams(2.0, 1.0, 1.0 / 3.0, SimilarityType.TYPE_II))
        with pytest.raises(Exception):
            straight_line(coeffs)

    def test_line_betas_pme(self):
        assert line_betas_pme(2.0, 1.0) == pytest.approx((1.0 / 3.0, 0.25), rel=1e-15)

    def test_line_betas_ple_swapped(self):
        assert line_betas_ple(3.0, 1.0) == pytest.approx((0.25, 1.0 / 3.0), rel=1e-15)

    def test_line_betas_absent_root(self):
        b1, b2 = line_betas_pme(0.0, 3.0)
        assert b2 is None  # 1/(2m) escapes at m = 0
        assert b1 == pytest.approx(-1.0, rel=1e-15)

    @pytest.mark.parametrize("m,n", [(2.0, 1.0), (3.0, 1.0), (2.0, 3.0), (1.5, 4.0)])
    def test_both_betas_satisfy_condition(self, m, n):
        for beta in line_betas_pme(m, n):
            coeffs = unified_coefficients(PMEParams(m, n, beta))
            assert abs(line_condition_value(coeffs)) < 1e-12


class TestYamabeCurve:
    def test_vertex_value(self):
        assert yamabe_curve(4.0, 0.0) == pytest.approx(2.0, abs=1e-15)

    def test_zero_crossing(self):
        phi = math.sqrt(4.0 / (4.0 - 2.0))
        assert yamabe_curve(4.0, phi) == pytest.approx(0.0, abs=1e-15)

    def test_domain(self):
        with pytest.raises(Exception):
            yamabe_curve(2.0, 0.0)

    @pytest.mark.parametrize("n", [3.0, 4.0, 5.0])
    def test_exact_trajectory_of_slope_field(self, n):
        m_s = (n - 2.0) / (n + 2.0)
        rhs = unified_system(unified_coefficients(PMEParams(m_s, n, 0.0, SimilarityType.TYPE_II)))
        for phi in np.linspace(-2.0, 2.0, 100):
            psi = yamabe_curve(n, float(phi))
            dpsi, dphi = rhs((psi, phi))
            # the parabola has dPsi/dPhi = -n phi / 2
            assert abs(dpsi + n * phi / 2.0 * dphi) < 1e-12


class TestSingleImplementation:
    """The trajectory maps, scalar maps and profile inverse share one kernel each."""

    SETT = IntegrationSettings(rel_tol=1e-9, abs_tol=1e-12)

    def test_pme_trajectory_states_equal_scalar_map(self):
        params = PMEParams(0.25, 3.0, 1.0)
        nat = integrate(pme_native_system(params), (-0.5, 0.2), (0.0, 1.0), self.SETT)
        mapped = pme_trajectory_to_unified(nat, params)
        rows = np.array([tuple(pme_to_unified(row, params)) for row in nat.states])
        assert len(rows) > 10
        assert np.array_equal(mapped.states, rows)

    def test_ple_trajectory_states_equal_scalar_map(self):
        params = PLEParams(1.25, 2.5, 0.4)
        nat = integrate(ple_native_system_xy(params), (0.3, -0.2), (0.0, 1.0), self.SETT)
        mapped = ple_trajectory_to_unified(nat, params)
        rows = np.array([tuple(ple_to_unified(row, params)) for row in nat.states])
        assert len(rows) > 10
        assert np.array_equal(mapped.states, rows)

    @pytest.mark.parametrize("profile", [barenblatt_pme(2.0, 1.0, 1.0), barenblatt_ple(3.0, 1.0, 1.0)])
    def test_state_to_profile_inverts_profile_to_state(self, profile):
        params = profile.params
        for smp in profile.sample(profile.interior_points(25)):
            back = state_to_profile(profile_to_state(smp, params), smp.eta, params)
            assert back.eta == smp.eta
            assert back.f == pytest.approx(smp.f, rel=1e-12)
            assert back.fprime == pytest.approx(smp.fprime, rel=1e-12)

    def test_state_to_profile_ple_alpha_zero_refused(self):
        assert alpha_from(PLE) == 0.0
        with pytest.raises(SingularEvaluationError):
            state_to_profile(PhaseState(0.1, 0.5), 1.0, PLE)

    # X = Psi/a must be positive; a < 0 for p < 1 puts the refused side at Psi >= 0
    @pytest.mark.parametrize(
        "params,psis",
        [(PLEParams(3.0, 1.0, 0.25), (0.0, -0.1)), (PLEParams(0.5, 3.0, 0.3), (0.0, 0.1))],
        ids=["p3", "p0.5"],
    )
    def test_state_to_profile_ple_orientation_guard(self, params, psis):
        for psi in psis:
            with pytest.raises(OrientationError):
                state_to_profile(PhaseState(psi, 0.5), 1.0, params)

    @pytest.mark.parametrize("eta", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("params", [PME, PLEParams(3.0, 1.0, 0.25)], ids=["pme", "ple"])
    def test_state_to_profile_refuses_eta_before_dividing(self, params, eta):
        with pytest.raises(DomainError):
            state_to_profile(PhaseState(0.2, 0.5), eta, params)

    def test_state_to_profile_pme_outside_support(self):
        with pytest.raises(OutsideSupportError):
            state_to_profile(PhaseState(-0.1, 0.5), 1.0, PME)

    # eta^2 overflows, so Y/eta^2 (X/eta^2) is 0.0 raised to a negative power, or eta^2 underflows to 0.0
    @pytest.mark.parametrize("eta", [1e200, 1e-300])
    @pytest.mark.parametrize("params", [PMEParams(2.0, 1.0, 0.3), PLEParams(3.0, 1.0, 0.25)], ids=["pme", "ple"])
    def test_state_to_profile_refuses_eta_squared_out_of_range(self, params, eta):
        with pytest.raises(DomainError, match="eta"):
            state_to_profile(PhaseState(1.0, 1.0), eta, params)

    # p = 0 sits in the critical band of p_c(1e-300) ~ 2e-300, so sqrt|b| = n = 1e-300 and |b| underflows to 0.0
    def test_ple_embedding_refuses_an_underflowing_scale(self):
        params = PLEParams(0.0, 1e-300, 1.0)
        with pytest.raises(DomainError, match="underflows"):
            unified_to_ple(PhaseState(0.25, 0.5), params)
        with pytest.raises(DomainError, match="underflows"):
            ple_to_unified(NativeStatePLE(1.0, 1.0), params)
        with pytest.raises(DomainError, match="underflows"):
            state_to_profile(PhaseState(0.25, 5e-324), 5e-324, params)

    # X^((p-1)/(p-2)) = X^1.5 underflows to 0.0 for X near the smallest subnormal
    def test_state_to_profile_ple_refuses_an_underflowing_x_power(self):
        with pytest.raises(DomainError, match="underflows"):
            state_to_profile(PhaseState(5e-324, 1e-300), 0.25, PLEParams(4.0, 0.3, -1.0, SimilarityType.TYPE_III))
