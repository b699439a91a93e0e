import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from ssflow import (
    ClosedFormProfile,
    CriticalError,
    DegenerateError,
    DomainError,
    IntegrationFailure,
    OutsideSupportError,
    PLEParams,
    PMEParams,
    SimilarityType,
    SingularEvaluationError,
    SsflowError,
    alpha_from,
    barenblatt_ple,
    barenblatt_pme,
    dipole_derivative_ple,
    dipole_pme,
    loewner_nirenberg_pme,
    mass_integral,
    max_residual,
    ple_residual,
    pme_residual,
    profile_to_state,
    selfsimilar_value,
    yamabe_curve,
    yamabe_ple,
)

T2 = SimilarityType.TYPE_II


def _fd_check(profile, etas, h=1e-5):
    """Centered finite differences of f reproduce f' and f'' at O(h^2)."""
    worst1 = worst2 = 0.0
    for eta in etas:
        fp_fd = (profile.f(eta + h) - profile.f(eta - h)) / (2.0 * h)
        fpp_fd = (profile.f(eta + h) - 2.0 * profile.f(eta) + profile.f(eta - h)) / (h * h)
        worst1 = max(worst1, abs(fp_fd - profile.fprime(eta)))
        worst2 = max(worst2, abs(fpp_fd - profile.fsecond(eta)))
    return worst1, worst2


class TestBarenblattPME:
    def test_reference_shape(self):
        prof = barenblatt_pme(2.0, 1.0, 1.0)
        assert prof.f(0.0) == pytest.approx(1.0)
        assert prof.f(1.0) == pytest.approx(1.0 - 1.0 / 6.0, rel=1e-15)
        assert prof.support[1] == pytest.approx(math.sqrt(6.0), rel=1e-15)

    def test_vertex_value_general(self):
        prof = barenblatt_pme(3.0, 2.0, 2.0)
        assert prof.f(0.0) == pytest.approx(2.0 ** 0.5, rel=1e-15)

    def test_residual_zero_on_support(self):
        prof = barenblatt_pme(2.0, 1.0, 1.0)
        assert abs(pme_residual(prof, prof.params, 1.0)) < 1e-12
        assert max_residual(prof) < 1e-12

    def test_fast_diffusion_global_support(self):
        prof = barenblatt_pme(0.5, 3.0, 1.0)
        assert math.isinf(prof.support[1])
        assert max_residual(prof) < 1e-8

    def test_outside_support_raises(self):
        prof = barenblatt_pme(2.0, 1.0, 1.0)
        with pytest.raises(OutsideSupportError):
            prof.f(10.0)
        with pytest.raises(OutsideSupportError):
            prof.f(math.sqrt(6.0))

    def test_derivative_consistency(self):
        # h large enough that O(h^2) truncation dominates roundoff
        prof = barenblatt_pme(3.0, 1.0, 1.0)
        e1h, e2h = _fd_check(prof, [0.5, 1.0, 1.5], h=2e-3)
        e1h2, e2h2 = _fd_check(prof, [0.5, 1.0, 1.5], h=1e-3)
        assert e1h / max(e1h2, 1e-16) > 3.0
        assert e2h / max(e2h2, 1e-16) > 3.0
        assert e1h < 1e-5

    def test_invalid_constants(self):
        with pytest.raises(DomainError):
            barenblatt_pme(2.0, 1.0, -1.0)


class TestBarenblattPLE:
    def test_reference_shape(self):
        prof = barenblatt_ple(3.0, 1.0, 1.0)
        # A = (1/3) * (1/4)^(1/2) = 1/6; f = (C - eta^(3/2)/6)^2
        assert prof.constants["A"] == pytest.approx(1.0 / 6.0, rel=1e-15)
        assert prof.f(0.0) == pytest.approx(1.0)
        assert prof.f(1.0) == pytest.approx((1.0 - 1.0 / 6.0) ** 2, rel=1e-14)

    def test_vertex_exponent(self):
        prof = barenblatt_ple(4.0, 2.0, 3.0)
        assert prof.f(0.0) == pytest.approx(3.0 ** 1.5, rel=1e-14)

    def test_residual(self):
        prof = barenblatt_ple(3.0, 1.0, 1.0)
        assert abs(ple_residual(prof, prof.params, 1.0)) < 1e-10
        assert max_residual(prof) < 1e-10


class TestBarenblattPLEDegenerate:
    """p = 0 and p = 1 are refused, and so is a beta1 that underflows to 0.0, before A divides or powers."""

    @pytest.mark.parametrize("p", [0.0, -0.0, 1.0])
    def test_exponent_refused(self, p):
        with pytest.raises(DegenerateError, match="p ="):
            barenblatt_ple(p, 3.0)

    @pytest.mark.parametrize("p,n", [(1e-300, 1e308), (-1e300, 1e300), (0.3, math.inf)])
    def test_beta1_underflow_refused(self, p, n):
        with pytest.raises(DomainError):
            barenblatt_ple(p, n)

    def test_denominator_band_includes_its_edge(self):
        # n(p-2) + p is exactly 1e-12 here: on the edge of the exclusion band, so refused
        assert 5e-13 * (1.999999999999e-12 - 2.0) + 1.999999999999e-12 == 1e-12
        with pytest.raises(DegenerateError, match="source-type exponent degenerates"):
            barenblatt_ple(1.999999999999e-12, 5e-13)


class TestDipolePME:
    def test_reference_shape(self):
        prof = dipole_pme(2.0, 1.0, 1.0)
        assert prof.constants["b"] == pytest.approx(6.0, rel=1e-15)
        assert prof.f(1.0) == pytest.approx(1.0 - 1.0 / 6.0, rel=1e-14)
        assert prof.support[1] == pytest.approx(6.0 ** (2.0 / 3.0), rel=1e-14)

    def test_zero_at_origin_below_dimension_two(self):
        prof = dipole_pme(2.0, 1.0, 1.0)
        assert prof.f(0.0) == 0.0

    def test_residual(self):
        prof = dipole_pme(2.0, 1.0, 1.0)
        assert abs(pme_residual(prof, prof.params, 1.0)) < 1e-8
        assert max_residual(prof) < 1e-8

    @pytest.mark.parametrize("m,n,K", [(2.0, 3.0, 1.0), (3.0, 2.0, 2.0), (2.5, 4.0, 0.5)])
    def test_residual_other_parameters(self, m, n, K):
        prof = dipole_pme(m, n, K)
        assert max_residual(prof) < 1e-8

    def test_exponents_secret_relation(self):
        # beta = 1/(2m) forces alpha = 1/m under Type I scaling
        prof = dipole_pme(2.0, 1.0, 1.0)
        assert prof.params.beta == 0.25
        assert alpha_from(prof.params) == pytest.approx(0.5, rel=1e-15)

    def test_critical_refused(self):
        with pytest.raises(CriticalError):
            dipole_pme(1.0 / 3.0, 3.0, 1.0)

    def test_linear_exponent_refused_by_params(self):
        # b divides by m - 1; PMEParams refuses m = 1 first
        with pytest.raises(DegenerateError):
            dipole_pme(1.0, 3.0, 1.0)


class TestDipoleDerivativePLE:
    def test_reference_shape(self):
        prof = dipole_derivative_ple(3.0, 1.0, 1.0)
        # f'(eta) = (c - eta^2/12)_+ for p=3, n=1
        assert prof.fprime(1.0) == pytest.approx(1.0 - 1.0 / 12.0, rel=1e-14)
        assert prof.constants["E"] == pytest.approx(2.0, rel=1e-15)
        assert prof.support[1] == pytest.approx(math.sqrt(12.0), rel=1e-14)

    def test_alpha_is_zero(self):
        prof = dipole_derivative_ple(3.0, 1.0, 1.0)
        assert alpha_from(prof.params) == 0.0
        assert prof.params.beta == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_f_anchored_at_right_edge(self):
        prof = dipole_derivative_ple(3.0, 1.0, 1.0)
        edge = prof.support[1]
        assert prof.f(edge * (1.0 - 1e-9)) == pytest.approx(0.0, abs=1e-10)
        # f is negative inside (increasing toward the anchor at 0)
        assert prof.f(1.0) < 0.0

    def test_f_consistent_with_quadrature(self):
        prof = dipole_derivative_ple(3.0, 1.0, 1.0)
        edge = prof.support[1]
        val, _ = quad(lambda s: prof.fprime(s), 1.0, edge * (1.0 - 1e-12))
        assert prof.f(1.0) == pytest.approx(-val, rel=1e-9)

    def test_residual_uses_derivative_only(self):
        prof = dipole_derivative_ple(3.0, 1.0, 1.0)
        assert max_residual(prof) < 1e-8

    @staticmethod
    def _f_reference(prof, eta):
        """-(integral of f' over [eta, edge]) by 50-digit mpmath.quad.

        With d = edge - t, L - k t^E = -L expm1(E log1p(-d/edge)) keeps its
        digits near the edge, and d = v^(1/(e+1)) removes the d^e endpoint
        singularity, so the quadrature sees a smooth integrand in v.
        """
        p, n = prof.params.p, prof.params.n
        with mpmath.workdps(50):
            L, b, E = (mpmath.mpf(prof.constants[key]) for key in ("c", "b", "E"))
            q, e = -(mpmath.mpf(n) - 1) / (mpmath.mpf(p) - 1), 1 / (mpmath.mpf(p) - 2)
            edge = (L * (mpmath.mpf(p) - 1) * b) ** (1 / E)

            def integrand(v):
                d = v ** (1 / (e + 1))
                w_over_d = -L * mpmath.expm1(E * mpmath.log1p(-d / edge)) / d
                return (edge - d) ** q * w_over_d ** e / (e + 1)

            return -mpmath.quad(integrand, [0, (edge - mpmath.mpf(eta)) ** (e + 1)])

    # p < 1 (e < -1/2, singular f' at the edge; a = (q+1)/E = -5/2 at (0.3, 0.2)),
    # 2 < p < 3 (e > 1; e = 50 moves the split to s = 1/50), a = 0 at p = n = 3, where
    # the series takes its log term, and a = -1 + 3e-16 at (2.25, 6), where a + 1 is tiny
    @pytest.mark.parametrize(
        "p,n",
        [(0.5, 1.0), (0.5, 3.0), (0.3, 0.2), (2.02, 1.0), (2.2, 1.0), (2.25, 6.0), (3.0, 1.0), (3.0, 3.0),
         (4.0, 3.0), (6.0, 5.0)],
    )
    def test_f_matches_50_digit_quadrature(self, p, n):
        prof = dipole_derivative_ple(p, n, 1.0)
        for fraction in (0.001, 0.3, 0.7, 0.99):
            eta = fraction * prof.support[1]
            ref = self._f_reference(prof, eta)
            assert abs((prof.f(eta) - ref) / ref) <= 1e-10, (p, n, fraction)

    def test_critical_refused(self):
        with pytest.raises(CriticalError):
            dipole_derivative_ple(1.5, 3.0, 1.0)  # p_c(3) = 3/2

    def test_series_too_long_refused(self):
        # e = 1/(p-2) = 2000: the series would need more terms than its budget
        with pytest.raises(DegenerateError, match="series"):
            dipole_derivative_ple(2.0005, 1.0, 1.0)

    @pytest.mark.parametrize("p", [0.0, 1.0, 2.0])
    def test_degenerate_exponent_refused(self, p):
        # beta = 1/p and b divides by (p - 1)(p - 2): each is refused before it divides
        with pytest.raises(DegenerateError):
            dipole_derivative_ple(p, 3.0, 1.0)


class TestLoewnerNirenberg:
    def test_reference_shape(self):
        prof = loewner_nirenberg_pme(3.0, 1.0)
        assert prof.f(0.0) == pytest.approx(1.0)
        assert prof.f(1.0) == pytest.approx((1.0 + 1.0 / 12.0) ** -2.5, rel=1e-14)
        assert prof.params.m == pytest.approx(0.2, rel=1e-15)
        assert alpha_from(prof.params) == pytest.approx(1.25, rel=1e-15)

    def test_vertex_scaling(self):
        prof = loewner_nirenberg_pme(4.0, 2.0)
        assert prof.f(0.0) == pytest.approx(2.0 ** -3.0, rel=1e-14)

    @pytest.mark.parametrize("n", [3.0, 4.0, 5.0])
    @pytest.mark.parametrize("k1", [0.7, 1.0, 2.5])
    def test_residual_scaling_family(self, n, k1):
        prof = loewner_nirenberg_pme(n, k1)
        assert max_residual(prof) < 1e-9

    def test_domain(self):
        with pytest.raises(DomainError):
            loewner_nirenberg_pme(2.0, 1.0)


class TestYamabePLE:
    def test_constant_value(self):
        prof = yamabe_ple(3.0, 1.0)
        C = (12.0 / 5.0) * (108.0 / 5.0) ** 0.25
        assert prof.constants["C"] == pytest.approx(C, rel=1e-14)
        assert prof.f(0.0) == pytest.approx(C, rel=1e-14)
        assert prof.f(1.0) == pytest.approx(C * 2.0 ** -1.5, rel=1e-14)

    @pytest.mark.parametrize("n", [3.0, 4.0, 5.0])
    @pytest.mark.parametrize("k2", [0.5, 1.0, 2.0])
    def test_residual(self, n, k2):
        prof = yamabe_ple(n, k2)
        assert max_residual(prof) < 1e-8

    @pytest.mark.parametrize("n", [3.0, 4.0, 5.0])
    def test_phase_image_on_yamabe_curve(self, n):
        prof = yamabe_ple(n, 1.0)
        for eta in np.geomspace(0.1, 10.0, 30):
            smp = prof.sample([float(eta)])[0]
            state = profile_to_state(smp, prof.params)
            assert abs(state.psi - yamabe_curve(n, state.phi)) < 1e-8

    def test_domain(self):
        with pytest.raises(DomainError):
            yamabe_ple(2.0, 1.0)


class TestResiduals:
    def test_constant_profile_residual_is_alpha_c(self):
        params = PMEParams(2.0, 3.0, 0.1)
        const = 0.7
        prof = ClosedFormProfile(
            {"c": const},
            params,
            f=lambda e: const,
            fprime=lambda e: 0.0,
            fsecond=lambda e: 0.0,
        )
        alpha = alpha_from(params)
        assert pme_residual(prof, params, 1.3) == pytest.approx(alpha * const, rel=1e-14)

    def test_perturbed_barenblatt_first_order(self):
        # the residual responds linearly to a constant offset; for m=2, n=1 the
        # response coefficient f'' + alpha vanishes identically, so use m=3
        base = barenblatt_pme(3.0, 1.0, 1.0)

        def perturbed(eps):
            prof = ClosedFormProfile(
                {},
                base.params,
                f=lambda e: base.f(e) + eps,
                fprime=base.fprime,
                fsecond=base.fsecond,
            )
            return pme_residual(prof, base.params, 1.0)

        r1, r2 = perturbed(0.01), perturbed(0.005)
        assert abs(r1) > 1e-4  # genuinely nonzero response
        assert r1 / r2 == pytest.approx(2.0, rel=0.05)  # first order in eps
        # slope matches the analytic linearization at eta = 1
        f, fp, fpp = base.f(1.0), base.fprime(1.0), base.fsecond(1.0)
        alpha = alpha_from(base.params)
        slope = 2.0 * f * fpp + 2.0 * fp * fp + alpha
        assert r1 / 0.01 == pytest.approx(slope, rel=0.05)

    def test_pme_residual_outside_support(self):
        prof = barenblatt_pme(2.0, 1.0, 1.0)
        with pytest.raises(OutsideSupportError):
            pme_residual(prof, prof.params, 5.0)

    def test_ple_residual_zero_slope(self):
        params = PLEParams(3.0, 1.0, 0.25)
        prof = ClosedFormProfile(
            {}, params,
            f=lambda e: 1.0, fprime=lambda e: 0.0, fsecond=lambda e: 0.0,
        )
        with pytest.raises(SingularEvaluationError):
            ple_residual(prof, params, 1.0)

    def test_eta_positive_required(self):
        prof = barenblatt_pme(2.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            pme_residual(prof, prof.params, 0.0)


class TestMaxResidual:
    @pytest.mark.parametrize("index", [0, 2, 4])
    def test_one_nan_residual_gives_nan(self, index):
        prof = barenblatt_pme(2.0, 1.0, 1.0)
        bad = prof.interior_points(5)[index]
        broken = type(prof)(**{**vars(prof), "fprime": lambda eta: math.nan if eta == bad else prof.fprime(eta)})
        assert math.isnan(max_residual(broken, count=5))

    def test_worst_of_the_interior_residuals(self):
        prof = dipole_pme(2.0, 1.0, 1.0)
        etas = prof.interior_points(7)
        worst = max(abs(pme_residual(prof, prof.params, eta)) for eta in etas)
        assert max_residual(prof, count=7) == worst


# (profile, lo_eff, hi_eff): the ends interior_points sets exactly on each kind of support
_SQRT6 = math.sqrt(6.0)
_RIGHT_EDGE = dipole_pme(0.2, 5.0, 1.0).support[0]  # c > 0 and E < 0: support (edge, inf)


class TestInteriorPoints:
    @pytest.mark.parametrize(
        "prof,lo,hi",
        [
            (barenblatt_pme(2.0, 1.0, 1.0), _SQRT6 * 1e-2, _SQRT6 * (1.0 - 1e-6)),
            (loewner_nirenberg_pme(3.0, 1.0), 1e-2, 1e2),
            (dipole_pme(0.2, 5.0, 1.0), _RIGHT_EDGE * (1.0 + 1e-3), max(1e2, _RIGHT_EDGE * (1.0 + 1e-3) * 1e4)),
        ],
        ids=["compact", "global", "outside-an-edge"],
    )
    @pytest.mark.parametrize("count", [2, 3, 50, 80])
    def test_log_spaced_python_floats_inside_the_support(self, prof, lo, hi, count):
        pts = prof.interior_points(count)
        assert isinstance(pts, list) and len(pts) == count
        assert all(type(x) is float for x in pts)
        assert pts[0] == lo and pts[-1] == hi
        assert all(a < b for a, b in zip(pts, pts[1:]))
        assert prof.support[0] < pts[0] and pts[-1] < prof.support[1]
        ratios = [b / a for a, b in zip(pts, pts[1:])]
        assert max(ratios) == pytest.approx(min(ratios), rel=1e-12)

    def test_one_point_is_the_lower_end(self):
        prof = barenblatt_pme(2.0, 1.0, 1.0)
        assert prof.interior_points(1) == [_SQRT6 * 1e-2]

    @pytest.mark.parametrize("count", [0, -1])
    def test_fewer_than_one_point_refused(self, count):
        with pytest.raises(DomainError, match="count"):
            barenblatt_pme(2.0, 1.0, 1.0).interior_points(count)


class TestEmptySupport:
    """A free boundary that underflows to eta = 0.0 leaves no support to sample: refused when built."""

    def test_dipole_derivative_edge_underflow(self):
        with pytest.raises(DomainError, match="support"):
            dipole_derivative_ple(1e-300, 0.25)

    # E < 0 here, so L/c underflowing to 0.0 puts the edge past the float range instead
    @pytest.mark.parametrize("p,n,C", [(0.25, 1.0, 5e-324), (1e-300, 1e300, 1.0)])
    def test_barenblatt_edge_past_the_float_range(self, p, n, C):
        with pytest.raises(DomainError, match="support"):
            barenblatt_ple(p, n, C)

    def test_dipole_derivative_exponent_rounding_to_minus_one(self):
        with pytest.raises(DegenerateError, match="integrable"):
            dipole_derivative_ple(0.9999999999999999, 2.0)


class TestSelfSimilarValue:
    def test_type1_t_equals_one(self):
        prof = barenblatt_pme(2.0, 1.0, 1.0)
        assert selfsimilar_value(prof.params, prof, 0.5, 1.0) == prof.f(0.5)

    def test_type2_requires_T(self):
        prof = loewner_nirenberg_pme(3.0, 1.0)
        with pytest.raises(SsflowError):
            selfsimilar_value(prof.params, prof, 0.5, 1.0)

    def test_type2_vanishes_at_extinction(self):
        prof = loewner_nirenberg_pme(3.0, 1.0)
        u1 = selfsimilar_value(prof.params, prof, 0.5, 0.0, T=1.0)
        u2 = selfsimilar_value(prof.params, prof, 0.5, 0.999999, T=1.0)
        assert u2 < 1e-6 * u1

    def test_type2_time_domain(self):
        prof = loewner_nirenberg_pme(3.0, 1.0)
        with pytest.raises(DomainError):
            selfsimilar_value(prof.params, prof, 0.5, 2.0, T=1.0)

    @pytest.mark.parametrize("x_radius", [-0.5, math.nan, math.inf, -math.inf])
    def test_radius_must_be_finite_and_non_negative(self, x_radius):
        prof = loewner_nirenberg_pme(3.0, 1.0)
        with pytest.raises(DomainError, match="x_radius"):
            selfsimilar_value(prof.params, prof, x_radius, 0.5, 1.0)

    def test_type3_exponential_form(self):
        params = PMEParams(2.0, 1.0, 0.25, SimilarityType.TYPE_III)
        prof = barenblatt_pme(2.0, 1.0, 1.0)
        alpha = alpha_from(params)
        val = selfsimilar_value(params, prof, 0.5, 0.3)
        assert val == pytest.approx(math.exp(alpha * 0.3) * prof.f(0.5 * math.exp(0.25 * 0.3)), rel=1e-14)


class TestMassConservation:
    def test_barenblatt_mass_time_independent(self):
        prof = barenblatt_pme(2.0, 1.0, 1.0)
        m1 = mass_integral(prof, prof.params, t=1.0)
        m2 = mass_integral(prof, prof.params, t=2.0)
        assert abs(m1 - m2) / abs(m1) < 1e-6

    # (profile, the same f in mpmath, t, T): compact and unbounded supports, Type I and II
    @pytest.mark.parametrize(
        "prof,f,t,T",
        [
            (barenblatt_pme(2.0, 1.0, 1.0), lambda eta: 1 - eta ** 2 / 6, 1.0, None),
            (barenblatt_pme(2.0, 1.0, 1.0), lambda eta: 1 - eta ** 2 / 6, 2.0, None),
            (barenblatt_pme(0.5, 3.0, 2.0), lambda eta: (2 + eta ** 2 / 2) ** -2, 1.5, None),
            (loewner_nirenberg_pme(3.0, 1.3),
             lambda eta: (mpmath.mpf(1.3) + eta ** 2 / (12 * mpmath.mpf(1.3))) ** -2.5, 0.5, 1.0),
        ],
        ids=["barenblatt-t1", "barenblatt-t2", "fast-diffusion", "loewner-nirenberg"],
    )
    def test_mass_matches_50_digit_quadrature(self, prof, f, t, T):
        params = prof.params
        with mpmath.workdps(50):
            alpha, beta, n = (mpmath.mpf(x) for x in (alpha_from(params), params.beta, params.n))
            if T is None:  # Type I: u = t^-alpha f(r t^-beta)
                amp, stretch = mpmath.mpf(t) ** -alpha, mpmath.mpf(t) ** beta
            else:  # Type II: u = (T-t)^alpha f(r (T-t)^beta)
                amp, stretch = (mpmath.mpf(T) - t) ** alpha, (mpmath.mpf(T) - t) ** -beta
            hi = prof.support[1] * stretch if math.isfinite(prof.support[1]) else mpmath.inf
            omega = 2 * mpmath.pi ** (n / 2) / mpmath.gamma(n / 2)
            ref = omega * mpmath.quad(lambda r: amp * f(r / stretch) * r ** (n - 1), [0, stretch, hi])
        assert abs(mass_integral(prof, params, t, T) - ref) <= 1e-9 * abs(ref)

    def test_infinite_mass_refused(self):
        # m < m_c(3) = 1/3: f ~ eta^-5/2 leaves u r^2 ~ r^-1/2, whose integral diverges
        prof = barenblatt_pme(0.2, 3.0, 1.0)
        with pytest.raises(IntegrationFailure, match="decay"):
            mass_integral(prof, prof.params, t=1.0)

    def test_mass_value_against_closed_form(self):
        # integral of 2*(1 - x^2/6) over [0, sqrt(6)] doubled: 2 * (sqrt6 - 6^{1.5}/18) = 4*sqrt(6)/3
        prof = barenblatt_pme(2.0, 1.0, 1.0)
        m1 = mass_integral(prof, prof.params, t=1.0)
        assert m1 == pytest.approx(4.0 * math.sqrt(6.0) / 3.0, rel=1e-9)


class TestTimeDomain:
    """selfsimilar_value and mass_integral refuse the same times, before any power of t is taken."""

    @staticmethod
    def _evaluate(fn, prof, params, t, T):
        if fn == "value":
            return selfsimilar_value(params, prof, 0.5, t, T)
        return mass_integral(prof, params, t, T)

    @pytest.mark.parametrize("fn", ["value", "mass"])
    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf])
    def test_type1_needs_positive_finite_t(self, fn, t):
        prof = barenblatt_pme(2.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            self._evaluate(fn, prof, prof.params, t, None)

    @pytest.mark.parametrize("fn", ["value", "mass"])
    @pytest.mark.parametrize(
        "t,T", [(0.0, math.nan), (0.0, math.inf), (math.nan, 1.0), (-math.inf, 1.0), (1.0, 1.0)]
    )
    def test_type2_needs_finite_t_below_finite_T(self, fn, t, T):
        prof = loewner_nirenberg_pme(3.0, 1.0)
        with pytest.raises(DomainError):
            self._evaluate(fn, prof, prof.params, t, T)

    def test_type2_mass_needs_T(self):  # selfsimilar_value: TestSelfSimilarValue.test_type2_requires_T
        prof = loewner_nirenberg_pme(3.0, 1.0)
        with pytest.raises(SsflowError, match="extinction time"):
            mass_integral(prof, prof.params, 0.0)

    @pytest.mark.parametrize("fn", ["value", "mass"])
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_type3_needs_finite_t(self, fn, t):
        prof = barenblatt_pme(2.0, 1.0, 1.0)
        params = PMEParams(2.0, 1.0, 0.25, SimilarityType.TYPE_III)
        with pytest.raises(DomainError):
            self._evaluate(fn, prof, params, t, None)


class TestCrossEquationPairings:
    def test_dipole_and_ple_barenblatt_share_line(self):
        # (m=2, n=1, beta=1/4) and (p=3, n'=1, beta'=1/4) share Phi = a(Psi+1)
        a = math.sqrt(6.0) / 4.0
        dip = dipole_pme(2.0, 1.0, 1.0)
        for eta in np.geomspace(0.3, 3.0, 15):
            smp = dip.sample([float(eta)])[0]
            st = profile_to_state(smp, dip.params)
            assert abs(st.phi - a * (st.psi + 1.0)) < 1e-10
        bar = barenblatt_ple(3.0, 1.0, 1.0)
        for eta in np.geomspace(0.1, 2.0, 15):
            smp = bar.sample([float(eta)])[0]
            st = profile_to_state(smp, bar.params)
            assert abs(st.phi - a * (st.psi + 1.0)) < 1e-10

    def test_pme_barenblatt_and_negated_derivative_family_share_line(self):
        # (m=2, n=1, beta=1/3) and the sign-flipped derivative-primary profile
        # (p=3, n'=1, beta'=1/3) trace the same invariant line
        a = math.sqrt(6.0) / 3.0
        bar = barenblatt_pme(2.0, 1.0, 1.0)
        for eta in np.geomspace(0.05, 2.2, 15):
            smp = bar.sample([float(eta)])[0]
            st = profile_to_state(smp, bar.params)
            assert abs(st.phi - a * (st.psi + 1.0)) < 1e-10
        dd = dipole_derivative_ple(3.0, 1.0, 1.0)
        pars = PLEParams(3.0, 1.0, 1.0 / 3.0)
        for eta in np.geomspace(0.2, 3.0, 15):
            from ssflow import ProfileSample

            smp = ProfileSample(float(eta), -dd.f(float(eta)), -dd.fprime(float(eta)))
            st = profile_to_state(smp, pars)
            assert abs(st.phi - a * (st.psi + 1.0)) < 1e-10

    @pytest.mark.parametrize("n", [3.0, 4.0, 5.0])
    def test_loewner_nirenberg_and_yamabe_share_curve(self, n):
        ln = loewner_nirenberg_pme(n, 1.3)
        yp = yamabe_ple(n, 0.8)
        for prof in (ln, yp):
            for eta in np.geomspace(0.1, 10.0, 20):
                smp = prof.sample([float(eta)])[0]
                st = profile_to_state(smp, prof.params)
                assert abs(st.psi - yamabe_curve(n, st.phi)) < 1e-6


# One parameter set per closed form, plus the fast-diffusion Barenblatt, the
# negative-beta1' p-Laplacian Barenblatt and a singular-at-origin dipole.
FAMILIES = [
    (barenblatt_pme, (3.0, 1.0, 1.0)),
    (barenblatt_pme, (0.5, 3.0, 2.0)),
    (barenblatt_ple, (3.0, 1.0, 1.0)),
    (barenblatt_ple, (1.5, 4.0, 1.0)),
    (dipole_pme, (2.0, 1.0, 1.0)),
    (dipole_pme, (2.5, 4.0, 0.5)),
    (dipole_derivative_ple, (3.0, 1.0, 1.0)),
    (dipole_derivative_ple, (4.0, 3.0, 2.0)),
    (loewner_nirenberg_pme, (3.0, 1.3)),
    (yamabe_ple, (4.0, 0.8)),
]
BOUNDED = [(fn, args) for fn, args in FAMILIES if math.isfinite(fn(*args).support[1])]


def _family_id(value):
    return getattr(value, "__name__", repr(value))


class TestDerivativesByFiniteDifferences:
    @pytest.mark.parametrize("factory,args", FAMILIES, ids=_family_id)
    def test_centred_differences(self, factory, args):
        # f' against D f and f'' against D f' with h = 1e-4 eta: truncation is
        # O(1e-8) relative, rounding (1e-12 for the quadrature f) stays below it.
        prof = factory(*args)
        for eta in prof.interior_points(9)[1:-1]:
            eta = float(eta)
            h = 1e-4 * eta
            d1 = (prof.f(eta + h) - prof.f(eta - h)) / (2.0 * h)
            d2 = (prof.fprime(eta + h) - prof.fprime(eta - h)) / (2.0 * h)
            fp, fpp = prof.fprime(eta), prof.fsecond(eta)
            assert abs(d1 - fp) <= 1e-6 * (abs(fp) + abs(prof.f(eta)) / eta)
            assert abs(d2 - fpp) <= 1e-6 * (abs(fpp) + abs(fp) / eta)


class TestEtaDomainPolicy:
    @pytest.mark.parametrize("factory,args", FAMILIES, ids=_family_id)
    def test_negative_eta_is_a_domain_error(self, factory, args):
        prof = factory(*args)
        for fn in (prof.f, prof.fprime, prof.fsecond):
            with pytest.raises(DomainError):
                fn(-1.0)

    @pytest.mark.parametrize(
        "prof,name",
        [
            (barenblatt_ple(3.0, 1.0, 1.0), "fsecond"),  # eta^(-1/2)
            (dipole_pme(2.0, 1.0, 1.0), "fprime"),  # eta^(q-1), q = 1/2
            (dipole_pme(2.0, 3.0, 1.0), "f"),  # eta^q, q = -1/2
            (dipole_derivative_ple(4.0, 3.0, 1.0), "f"),  # f' ~ eta^(-2/3)
            (dipole_derivative_ple(4.0, 3.0, 1.0), "fprime"),
        ],
    )
    def test_negative_power_at_origin_is_singular(self, prof, name):
        with pytest.raises(SingularEvaluationError):
            getattr(prof, name)(0.0)

    def test_regular_origin_returns_the_value(self):
        bar = barenblatt_pme(2.0, 1.0, 1.0)
        assert bar.fprime(0.0) == 0.0
        assert bar.fsecond(0.0) == pytest.approx(-1.0 / 3.0, rel=1e-15)
        dd = dipole_derivative_ple(3.0, 1.0, 1.0)  # f' = 1 - eta^2/12
        assert dd.fprime(0.0) == 1.0
        assert dd.fsecond(0.0) == 0.0
        assert dd.f(0.0) == pytest.approx(-(math.sqrt(12.0) - 12.0 ** 1.5 / 36.0), rel=1e-12)
        assert loewner_nirenberg_pme(3.0, 1.0).fprime(0.0) == 0.0
        yam = yamabe_ple(3.0, 1.0)
        assert yam.fsecond(0.0) == 0.0  # eta^(g-2), g = 6

    @pytest.mark.parametrize("factory,args", BOUNDED, ids=_family_id)
    def test_free_boundary_and_beyond_are_outside(self, factory, args):
        prof = factory(*args)
        edge = prof.support[1]
        for eta in (edge, 2.0 * edge):
            for fn in (prof.f, prof.fprime, prof.fsecond):
                with pytest.raises(OutsideSupportError):
                    fn(eta)


# (factory, its leading arguments, the name of its constant): one per closed form
CONSTANTS = [
    (barenblatt_pme, (2.0, 1.0), "C"),
    (barenblatt_ple, (3.0, 1.0), "C"),
    (dipole_pme, (2.0, 1.0), "K"),
    (dipole_derivative_ple, (3.0, 1.0), "c"),
    (loewner_nirenberg_pme, (3.0,), "k1"),
    (yamabe_ple, (4.0,), "k2"),
]


class TestConstantDomain:
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("factory,args,name", CONSTANTS, ids=[c[0].__name__ for c in CONSTANTS])
    def test_constant_must_be_positive_and_finite(self, factory, args, name, value):
        with pytest.raises(DomainError, match=f"^{name} must be positive and finite, got {value}$"):
            factory(*args, value)


class TestBarenblattPLENegativeBeta1:
    # beta1' = 1/(n(p-2)+p) < 0: the power 1/(p-1) of beta1' keeps its sign
    @pytest.mark.parametrize("p,n", [(1.5, 4.0), (1.25, 6.0), (1.7, 8.0)])
    def test_residual_vanishes(self, p, n):
        prof = barenblatt_ple(p, n, 1.0)
        assert prof.constants["beta1"] < 0.0
        assert prof.constants["A"] > 0.0  # f blows up at the edge of a bounded support
        # the last interior point sits 1e-6 inside the blow-up, where the
        # residual's terms exceed 1e11; everywhere before it they are O(1)
        for eta in prof.interior_points(50)[:-1]:
            assert abs(ple_residual(prof, prof.params, float(eta))) < 1e-12


class TestPowerOverflow:
    """A float ** raises OverflowError where * gives inf: each power is a DomainError that names it."""

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: barenblatt_ple(1e-300, 0.3), "the free boundary (L/c)^(1/E) = "),
            (lambda: barenblatt_ple(1.0000000000000002, 5e-324).f(2.0), "eta^E = 2.0^"),
            (lambda: dipole_pme(2.0000000000000004, 1e300, 0.2).f(0.5), "overflows at eta = 0.5"),
            (lambda: barenblatt_pme(1.5, 1.0, 1e308).f(0.0), "overflows at eta = 0"),
            (lambda: barenblatt_ple(0.3, 1e308), "|beta1|^(1/(p-1)) = "),
            (lambda: barenblatt_ple(1.0 + 1e-13, 1.5), "|beta1|^(1/(p-1)) = "),
            (lambda: max_residual(barenblatt_pme(-1.0, 4.0, 1e308)), "f^(m-1) or f^(m-2) overflows at eta = "),
            (lambda: max_residual(barenblatt_ple(0.2, 4.0, 1e308)), "|f'|^(p-2) overflows at eta = "),
            (lambda: dipole_derivative_ple(2.5, 3.0, 1e300), "the scale c^e (c/k)^a of f overflows"),
        ],
        ids=["free-boundary", "eta-power", "term-power", "value-at-zero", "beta1-power-huge-n",
             "beta1-power-p-near-one", "pme-residual", "ple-residual", "derivative-primary-scale"],
    )
    def test_overflow_is_a_domain_error(self, build, message):
        with pytest.raises(DomainError) as err:
            build()
        assert message in str(err.value)

