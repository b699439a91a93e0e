import math

import pytest
from hypothesis import given, strategies as st

from ssflow import (
    DegenerateError,
    DomainError,
    PLEParams,
    PMEParams,
    SimilarityType,
    alpha_from,
    critical_exponents,
    unified_coefficients,
)

T1, T2, T3 = SimilarityType.TYPE_I, SimilarityType.TYPE_II, SimilarityType.TYPE_III


class TestAlphaFrom:
    def test_pme_type1(self):
        assert alpha_from(PMEParams(2.0, 1.0, 1.0 / 3.0, T1)) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_pme_type2_beta0(self):
        assert alpha_from(PMEParams(0.2, 3.0, 0.0, T2)) == pytest.approx(1.25, abs=1e-15)

    def test_ple_type2_beta0(self):
        assert alpha_from(PLEParams(1.2, 3.0, 0.0, T2)) == pytest.approx(1.25, abs=1e-15)

    @given(
        m=st.floats(-3.0, 4.0).filter(lambda m: abs(m - 1.0) > 1e-3),
        beta=st.floats(-2.0, 2.0),
        st_idx=st.sampled_from([T1, T2, T3]),
    )
    def test_pme_defining_relation(self, m, beta, st_idx):
        alpha = alpha_from(PMEParams(m, 3.0, beta, st_idx))
        target = {T1: 1.0, T2: -1.0, T3: 0.0}[st_idx]
        # Type III uses alpha(1-m) = 2 beta, i.e. the homogeneous relation
        assert (m - 1.0) * alpha + 2.0 * beta == pytest.approx(target, abs=1e-12)

    @given(
        p=st.floats(0.5, 5.0).filter(lambda p: abs(p - 2.0) > 1e-3),
        beta=st.floats(-2.0, 2.0),
        st_idx=st.sampled_from([T1, T2, T3]),
    )
    def test_ple_defining_relation(self, p, beta, st_idx):
        alpha = alpha_from(PLEParams(p, 3.0, beta, st_idx))
        target = {T1: 1.0, T2: -1.0, T3: 0.0}[st_idx]
        assert (p - 2.0) * alpha + p * beta == pytest.approx(target, abs=1e-12)


    # (1 - 2 beta)/(m - 1) and (-1 - p beta)/(p - 2) leave the float range: no parameter is printed non-finite
    @pytest.mark.parametrize(
        "params",
        [PMEParams(0.2, 4.0, -1e308), PMEParams(3.0, 1.0, 1e308, T2), PLEParams(1.5, 1.0, 1e308, T2),
         PMEParams(1.5, 1.0, 1e308, T3)],
        ids=["pme-type1", "pme-type2", "ple-type2", "pme-type3"],
    )
    def test_overflowing_alpha_refused(self, params):
        with pytest.raises(DomainError, match="overflow"):
            alpha_from(params)


class TestCriticalExponents:
    @pytest.mark.parametrize(
        "n,m_c,m_s,p_c,p_s",
        [
            (4.0, 0.5, 1.0 / 3.0, 1.6, 4.0 / 3.0),
            (2.0, 0.0, 0.0, 4.0 / 3.0, 1.0),
            (1.0, -1.0, -1.0 / 3.0, 1.0, 2.0 / 3.0),
        ],
    )
    def test_values(self, n, m_c, m_s, p_c, p_s):
        crit = critical_exponents(n)
        assert crit.m_c == pytest.approx(m_c, abs=1e-15)
        assert crit.m_s == pytest.approx(m_s, abs=1e-15)
        assert crit.p_c == pytest.approx(p_c, abs=1e-15)
        assert crit.p_s == pytest.approx(p_s, abs=1e-15)

    @given(n=st.floats(0.1, 50.0))
    def test_sobolev_shift(self, n):
        crit = critical_exponents(n)
        assert crit.p_s == pytest.approx(crit.m_s + 1.0, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            critical_exponents(0.0)
        with pytest.raises(DomainError):
            critical_exponents(-1.0)

    # p_c = 2n/(n+1) overflows for a huge n, m_c = (n-2)/n for a tiny one
    @pytest.mark.parametrize("n", [1e308, 1e-308, 5e-324, math.inf, math.nan])
    def test_overflowing_exponents_refused(self, n):
        with pytest.raises(DomainError, match="overflow"):
            critical_exponents(n)


class TestParamValidation:
    def test_linear_rejected(self):
        with pytest.raises(DegenerateError):
            PMEParams(1.0, 3.0, 0.1)
        with pytest.raises(DegenerateError):
            PMEParams(1.0 + 1e-14, 3.0, 0.1)
        with pytest.raises(DegenerateError):
            PLEParams(2.0, 3.0, 0.1)

    def test_dimension_rejected(self):
        with pytest.raises(DomainError):
            PMEParams(2.0, 0.0, 0.1)
        with pytest.raises(DomainError):
            PLEParams(3.0, -1.0, 0.1)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            PMEParams(math.nan, 3.0, 0.1)


class TestUnifiedCoefficients:
    # Before, the overflowed p_c or m_c made these critical (c3 = -1), and the huge PME n gave c2 = c3 = NaN.
    @pytest.mark.parametrize(
        "params",
        [PLEParams(4.0, 1e308, 0.2), PMEParams(3.0, 1e-308, 0.2), PMEParams(3.0, 1e308, 0.0)],
        ids=["ple-huge-n", "pme-tiny-n", "pme-huge-n"],
    )
    def test_overflowing_dimension_refused(self, params):
        with pytest.raises(DomainError, match="overflow"):
            unified_coefficients(params)

    # the exponents are finite here, but b, sqrt|b| or c2 = beta sqrt|b| is not
    @pytest.mark.parametrize(
        "params",
        [PMEParams(3.0, 8e307, 0.0), PMEParams(3.0, 1e300, 1e200), PLEParams(1.5, 3.0, 1e308),
         PMEParams(0.6, 5.0, 1e308)],
        ids=["pme-b", "pme-c2", "ple-c2", "critical-c2"],
    )
    def test_overflowing_coefficients_refused(self, params):
        with pytest.raises(DomainError, match="overflow"):
            unified_coefficients(params)

    def test_pme_reference_case(self):
        c = unified_coefficients(PMEParams(2.0, 1.0, 1.0 / 3.0, T1))
        assert c.c1 == pytest.approx(2.0, abs=1e-15)
        assert c.c2 == pytest.approx(math.sqrt(6.0) / 3.0, abs=1e-15)
        assert c.c3 == pytest.approx(7.0 / math.sqrt(6.0), abs=1e-14)
        assert c.sqrt_abs_b == pytest.approx(math.sqrt(6.0), abs=1e-15)
        assert c.const_term == 1 and c.psi_coeff == 1 and not c.critical
        assert c.b == pytest.approx(6.0, abs=1e-13)

    def test_ple_matches_pme_reference(self):
        a = unified_coefficients(PMEParams(2.0, 1.0, 1.0 / 3.0, T1))
        b = unified_coefficients(PLEParams(3.0, 1.0, 1.0 / 3.0, T1))
        assert b.c1 == pytest.approx(a.c1, abs=1e-14)
        assert b.c2 == pytest.approx(a.c2, abs=1e-14)
        assert b.c3 == pytest.approx(a.c3, abs=1e-14)
        assert b.const_term == a.const_term

    @pytest.mark.parametrize("n", [0.5, 1.0, 3.0, 4.0, 5.0, 7.25])
    def test_critical_pme_c3_is_minus_one(self, n):
        m_c = critical_exponents(n).m_c
        c = unified_coefficients(PMEParams(m_c, n, 0.4))
        assert c.critical and c.const_term == 0
        assert c.c3 == -1.0
        assert c.sqrt_abs_b == pytest.approx(n - 2.0, abs=1e-15)
        assert c.c2 == pytest.approx(0.4 * (n - 2.0), rel=1e-14)

    @pytest.mark.parametrize("n", [0.5, 1.0, 3.0, 4.0, 5.0])
    def test_critical_ple_c3_is_minus_one(self, n):
        p_c = critical_exponents(n).p_c
        c = unified_coefficients(PLEParams(p_c, n, 0.4))
        assert c.critical and c.const_term == 0 and c.c3 == -1.0
        assert c.sqrt_abs_b == pytest.approx(n, abs=1e-15)

    @pytest.mark.parametrize("tol", [-1e-9, math.nan, math.inf])
    def test_critical_tol_must_be_non_negative_and_finite(self, tol):
        with pytest.raises(DomainError):
            unified_coefficients(PMEParams(2.0, 1.0, 0.25), critical_tol=tol)

    def test_critical_dimension_two_degenerates(self):
        with pytest.raises(DegenerateError):
            unified_coefficients(PMEParams(0.0 + 1e-15, 2.0, 0.1))

    def test_yamabe_row(self):
        # m = m_s(4) = 1/3 with beta = 0, Type II: c1 = -1/2, c2 = c3 = 0, sgn(b) = +1
        c = unified_coefficients(PMEParams(1.0 / 3.0, 4.0, 0.0, T2))
        assert c.c1 == pytest.approx(-0.5, abs=1e-15)
        assert c.c2 == 0.0
        assert c.c3 == pytest.approx(0.0, abs=1e-15)
        assert c.const_term == 1 and c.psi_coeff == -1
        assert c.b == pytest.approx(2.0, rel=1e-14)

    @given(
        m=st.floats(-1.0, 3.0).filter(
            lambda m: abs(m - 1.0) > 1e-3 and abs(m) > 1e-3 and abs(m + 1.0) > 1e-3
        ),
        beta=st.floats(-1.0, 1.0),
    )
    def test_c1_relation_under_p_equals_m_plus_1(self, m, beta):
        a = unified_coefficients(PMEParams(m, 3.0, beta))
        b = unified_coefficients(PLEParams(m + 1.0, 3.0, beta))
        # m/(m-1) == ((m+1)-1)/((m+1)-2) identically; floats re-round p = m+1
        assert a.c1 == pytest.approx(b.c1, rel=1e-14)

    def test_c1_relation_exact_for_exact_shift(self):
        a = unified_coefficients(PMEParams(2.0, 3.0, 0.5))
        b = unified_coefficients(PLEParams(3.0, 3.0, 0.5))
        assert a.c1 == b.c1

    def test_c2_is_beta_times_scale(self):
        for beta in (-1.0, 0.0, 0.7):
            c = unified_coefficients(PMEParams(2.5, 3.0, beta))
            assert c.c2 == pytest.approx(beta * c.sqrt_abs_b, rel=1e-15, abs=1e-15)

    def test_type3_psi_coeff_zero(self):
        c = unified_coefficients(PMEParams(2.0, 1.0, 0.25, T3))
        assert c.psi_coeff == 0

