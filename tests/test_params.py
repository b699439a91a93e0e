import math
from enum import Enum

import pytest
from hypothesis import given, strategies as st

from ssflow import (
    DegenerateError,
    DomainError,
    PLEParams,
    PMEParams,
    SimilarityType,
    SsflowError,
    alpha_from,
    critical_exponents,
    unified_coefficients,
)
from ssflow.equivalence import Branch, ple_to_pme, pme_to_ple
from ssflow.solutions import dipole_derivative_ple, dipole_pme

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

    # the band of an excluded value is |x - v| <= 1e-12, its edge included, for p = 0 as for every other value
    @pytest.mark.parametrize("p", [1e-12, -1e-12])
    def test_p_zero_band_includes_its_edge(self, p):
        with pytest.raises(DegenerateError, match="^p = 0 is the second root of b"):
            unified_coefficients(PLEParams(p, 3.0, 0.3))

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


# The parameter algebra pinned bit for bit: alpha, the unified coefficients, the dipole b and the outcome at
# each excluded value and 5e-13 and 2e-12 to either side of it.  Every value is compared by repr, so -0.0 and
# the last bit count; refusals by error type.
_MAKE = {"pme": PMEParams, "ple": PLEParams}
# (equation, x): (c1, c3, sqrt_abs_b, const_term) of the unified coefficients at n = 3, for any beta and type
_COEFFS = {
    ("pme", 2.0): (2.0, 2.846049894151541, 3.1622776601683795, 1),
    ("pme", 0.25): (-0.3333333333333333, -0.40824829046386296, 0.8164965809277259, 1),
    ("pme", -0.3333333333333333): (0.25, 1.1547005383792515, 1.7320508075688772, 1),
    ("ple", 3.0): (2.0, 3.0, 3.0, 1),
    ("ple", 1.25): (-0.3333333333333333, -0.12909944487358066, 2.581988897471611, 1),
    ("ple", 0.5): (0.3333333333333333, 1.4288690166235207, 1.632993161855452, -1),
}
# (equation, x, type, beta, alpha, c2) at n = 3; a list, since 0.0 and -0.0 are the same dict key
_ALPHA_C2 = [
    ("pme", 2.0, 1, 0.0, 1.0, 0.0),
    ("pme", 2.0, 1, -0.0, 1.0, -0.0),
    ("pme", 2.0, 1, 0.3, 0.4, 0.9486832980505138),
    ("pme", 2.0, 1, -1.7, 4.4, -5.375872022286245),
    ("pme", 2.0, 2, 0.0, -1.0, 0.0),
    ("pme", 2.0, 2, -0.0, -1.0, -0.0),
    ("pme", 2.0, 2, 0.3, -1.6, 0.9486832980505138),
    ("pme", 2.0, 2, -1.7, 2.4, -5.375872022286245),
    ("pme", 2.0, 3, 0.0, -0.0, 0.0),
    ("pme", 2.0, 3, -0.0, 0.0, -0.0),
    ("pme", 2.0, 3, 0.3, -0.6, 0.9486832980505138),
    ("pme", 2.0, 3, -1.7, 3.4, -5.375872022286245),
    ("pme", 0.25, 1, 0.0, -1.3333333333333333, 0.0),
    ("pme", 0.25, 1, -0.0, -1.3333333333333333, -0.0),
    ("pme", 0.25, 1, 0.3, -0.5333333333333333, 0.24494897427831777),
    ("pme", 0.25, 1, -1.7, -5.866666666666667, -1.388044187577134),
    ("pme", 0.25, 2, 0.0, 1.3333333333333333, 0.0),
    ("pme", 0.25, 2, -0.0, 1.3333333333333333, -0.0),
    ("pme", 0.25, 2, 0.3, 2.1333333333333333, 0.24494897427831777),
    ("pme", 0.25, 2, -1.7, -3.1999999999999997, -1.388044187577134),
    ("pme", 0.25, 3, 0.0, 0.0, 0.0),
    ("pme", 0.25, 3, -0.0, -0.0, -0.0),
    ("pme", 0.25, 3, 0.3, 0.7999999999999999, 0.24494897427831777),
    ("pme", 0.25, 3, -1.7, -4.533333333333333, -1.388044187577134),
    ("pme", -0.3333333333333333, 1, 0.0, -0.75, 0.0),
    ("pme", -0.3333333333333333, 1, -0.0, -0.75, -0.0),
    ("pme", -0.3333333333333333, 1, 0.3, -0.30000000000000004, 0.5196152422706631),
    ("pme", -0.3333333333333333, 1, -1.7, -3.3000000000000003, -2.9444863728670914),
    ("pme", -0.3333333333333333, 2, 0.0, 0.75, 0.0),
    ("pme", -0.3333333333333333, 2, -0.0, 0.75, -0.0),
    ("pme", -0.3333333333333333, 2, 0.3, 1.2000000000000002, 0.5196152422706631),
    ("pme", -0.3333333333333333, 2, -1.7, -1.8, -2.9444863728670914),
    ("pme", -0.3333333333333333, 3, 0.0, 0.0, 0.0),
    ("pme", -0.3333333333333333, 3, -0.0, -0.0, -0.0),
    ("pme", -0.3333333333333333, 3, 0.3, 0.45, 0.5196152422706631),
    ("pme", -0.3333333333333333, 3, -1.7, -2.5500000000000003, -2.9444863728670914),
    ("ple", 3.0, 1, 0.0, 1.0, 0.0),
    ("ple", 3.0, 1, -0.0, 1.0, -0.0),
    ("ple", 3.0, 1, 0.3, 0.10000000000000009, 0.8999999999999999),
    ("ple", 3.0, 1, -1.7, 6.1, -5.1),
    ("ple", 3.0, 2, 0.0, -1.0, 0.0),
    ("ple", 3.0, 2, -0.0, -1.0, -0.0),
    ("ple", 3.0, 2, 0.3, -1.9, 0.8999999999999999),
    ("ple", 3.0, 2, -1.7, 4.1, -5.1),
    ("ple", 3.0, 3, 0.0, -0.0, 0.0),
    ("ple", 3.0, 3, -0.0, 0.0, -0.0),
    ("ple", 3.0, 3, 0.3, -0.8999999999999999, 0.8999999999999999),
    ("ple", 3.0, 3, -1.7, 5.1, -5.1),
    ("ple", 1.25, 1, 0.0, -1.3333333333333333, 0.0),
    ("ple", 1.25, 1, -0.0, -1.3333333333333333, -0.0),
    ("ple", 1.25, 1, 0.3, -0.8333333333333334, 0.7745966692414833),
    ("ple", 1.25, 1, -1.7, -4.166666666666667, -4.389381125701739),
    ("ple", 1.25, 2, 0.0, 1.3333333333333333, 0.0),
    ("ple", 1.25, 2, -0.0, 1.3333333333333333, -0.0),
    ("ple", 1.25, 2, 0.3, 1.8333333333333333, 0.7745966692414833),
    ("ple", 1.25, 2, -1.7, -1.5, -4.389381125701739),
    ("ple", 1.25, 3, 0.0, 0.0, 0.0),
    ("ple", 1.25, 3, -0.0, -0.0, -0.0),
    ("ple", 1.25, 3, 0.3, 0.5, 0.7745966692414833),
    ("ple", 1.25, 3, -1.7, -2.8333333333333335, -4.389381125701739),
    ("ple", 0.5, 1, 0.0, -0.6666666666666666, 0.0),
    ("ple", 0.5, 1, -0.0, -0.6666666666666666, -0.0),
    ("ple", 0.5, 1, 0.3, -0.5666666666666667, 0.4898979485566356),
    ("ple", 0.5, 1, -1.7, -1.2333333333333334, -2.7760883751542687),
    ("ple", 0.5, 2, 0.0, 0.6666666666666666, 0.0),
    ("ple", 0.5, 2, -0.0, 0.6666666666666666, -0.0),
    ("ple", 0.5, 2, 0.3, 0.7666666666666666, 0.4898979485566356),
    ("ple", 0.5, 2, -1.7, 0.10000000000000002, -2.7760883751542687),
    ("ple", 0.5, 3, 0.0, 0.0, 0.0),
    ("ple", 0.5, 3, -0.0, -0.0, -0.0),
    ("ple", 0.5, 3, 0.3, 0.09999999999999999, 0.4898979485566356),
    ("ple", 0.5, 3, -1.7, -0.5666666666666667, -2.7760883751542687),
]
# (equation, x, n, b) of dipole_pme(m, n) and dipole_derivative_ple(p, n)
_DIPOLE_B = [
    ("pme", 2.0, 1.0, 6.0),
    ("pme", 0.25, 3.0, 0.6666666666666665),
    ("ple", 3.0, 1.0, 6.0),
    ("ple", 2.5, 3.0, 13.333333333333334),
]
# (case, offset, outcome): the values of the case at its excluded value plus the offset, or the error type
_EXCLUDED = [
    ("PMEParams m=1", 0.0, "DegenerateError"),
    ("PMEParams m=1", 5e-13, "DegenerateError"),
    ("PMEParams m=1", -5e-13, "DegenerateError"),
    ("PMEParams m=1", 2e-12, (1.000000000002, 3.0, 0.3)),
    ("PMEParams m=1", -2e-12, (0.999999999998, 3.0, 0.3)),
    ("PLEParams p=2", 0.0, "DegenerateError"),
    ("PLEParams p=2", 5e-13, "DegenerateError"),
    ("PLEParams p=2", -5e-13, "DegenerateError"),
    ("PLEParams p=2", 2e-12, (2.000000000002, 3.0, 0.3)),
    ("PLEParams p=2", -2e-12, (1.999999999998, 3.0, 0.3)),
    ("unified_coefficients p=1", 0.0, "DegenerateError"),
    ("unified_coefficients p=1", 5e-13, "DegenerateError"),
    ("unified_coefficients p=1", -5e-13, "DegenerateError"),
    ("unified_coefficients p=1", 2e-12,
     (-1.9999557565637568e-12, 300003.3183130734, 9.999889390707672e-07, 1000011.0610435781, 1, 1, False)),
    ("unified_coefficients p=1", -2e-12,
     (1.9999557565557572e-12, 300003.3183130734, 9.999889390867666e-07, 1000011.0610435781, -1, 1, False)),
    ("unified_coefficients p=0", 0.0, "DegenerateError"),
    ("unified_coefficients p=0", 5e-13, "DegenerateError"),
    ("unified_coefficients p=0", -5e-13, "DegenerateError"),
    ("unified_coefficients p=0", 2e-12,
     (0.4999999999995, 7.348469228355658e-07, 1224744.871389752, 2.4494897427852193e-06, -1, 1, False)),
    ("unified_coefficients p=0", -2e-12,
     (0.5000000000004999, 7.34846922834341e-07, 1224744.871393426, 2.4494897427811366e-06, 1, 1, False)),
    ("pme_to_ple n=2 branch1", 0.0, "DimensionTwoError"),
    ("pme_to_ple n=2 branch1", 5e-13, "DimensionTwoError"),
    ("pme_to_ple n=2 branch1", -5e-13, "DimensionTwoError"),
    ("pme_to_ple n=2 branch1", 2e-12, (3.0, 1.5001333508735115e-12, 0.39999999999999997)),
    ("pme_to_ple n=2 branch1", -2e-12, "UnphysicalDimensionError"),
    ("pme_to_ple m=-1 branch1", 0.0, "DegenerateError"),
    ("pme_to_ple m=-1 branch1", 5e-13, "DegenerateError"),
    ("pme_to_ple m=-1 branch1", -5e-13, "DegenerateError"),
    ("pme_to_ple m=-1 branch1", 2e-12, "UnphysicalDimensionError"),
    ("pme_to_ple m=-1 branch1", -2e-12, (-1.999955756559757e-12, 9.999778782778786e-13, 300006636663.4508)),
    ("ple_to_pme p=1 branch1", 0.0, "DegenerateError"),
    ("ple_to_pme p=1 branch1", 5e-13, "DegenerateError"),
    ("ple_to_pme p=1 branch1", -5e-13, "DegenerateError"),
    ("ple_to_pme p=1 branch1", 2e-12, (1.999955756559757e-12, 2.0000000000119997, 75001659165.8627)),
    ("ple_to_pme p=1 branch1", -2e-12, (-1.999955756559757e-12, 1.9999999999880003, -75001659165.56271)),
    ("pme_to_ple n=2 branch2", 0.0, "DimensionTwoError"),
    ("pme_to_ple n=2 branch2", 5e-13, "DimensionTwoError"),
    ("pme_to_ple n=2 branch2", -5e-13, "DimensionTwoError"),
    ("pme_to_ple n=2 branch2", 2e-12, "UnphysicalDimensionError"),
    ("pme_to_ple n=2 branch2", -2e-12, (3.0, 1.4999668174205678e-12, 0.3999999999998)),
    ("pme_to_ple m=-1 branch2", 0.0, "DegenerateError"),
    ("pme_to_ple m=-1 branch2", 5e-13, "DegenerateError"),
    ("pme_to_ple m=-1 branch2", -5e-13, "DegenerateError"),
    ("pme_to_ple m=-1 branch2", 2e-12, (1.999955756559757e-12, 4.999889391406892e-13, -600013273324.8018)),
    ("pme_to_ple m=-1 branch2", -2e-12, "UnphysicalDimensionError"),
    ("ple_to_pme p=1 branch2", 0.0, "DegenerateError"),
    ("ple_to_pme p=1 branch2", 5e-13, "DegenerateError"),
    ("ple_to_pme p=1 branch2", -5e-13, "DegenerateError"),
    ("ple_to_pme p=1 branch2", 2e-12, (1.999955756559757e-12, 2.0000000000059996, -150019974263.14133)),
    ("ple_to_pme p=1 branch2", -2e-12, (-1.999955756559757e-12, 1.9999999999940004, 150019974262.5413)),
]
_CASES = {
    "PMEParams m=1": (1.0, lambda x: PMEParams(x, 3.0, 0.3)),
    "PLEParams p=2": (2.0, lambda x: PLEParams(x, 3.0, 0.3)),
    "unified_coefficients p=1": (1.0, lambda x: unified_coefficients(PLEParams(x, 3.0, 0.3))),
    "unified_coefficients p=0": (0.0, lambda x: unified_coefficients(PLEParams(x, 3.0, 0.3))),
}
for _br in Branch:
    _CASES[f"pme_to_ple n=2 branch{_br.value}"] = (2.0, lambda x, br=_br: pme_to_ple(PMEParams(2.0, x, 0.3), br))
    _CASES[f"pme_to_ple m=-1 branch{_br.value}"] = (-1.0, lambda x, br=_br: pme_to_ple(PMEParams(x, 3.0, 0.3), br))
    _CASES[f"ple_to_pme p=1 branch{_br.value}"] = (1.0, lambda x, br=_br: ple_to_pme(PLEParams(x, 3.0, 0.3), br))


class TestParameterAlgebraTable:
    @pytest.mark.parametrize("eq,x,t,beta,alpha,c2", _ALPHA_C2)
    def test_alpha_and_coefficients(self, eq, x, t, beta, alpha, c2):
        params = _MAKE[eq](x, 3.0, beta, SimilarityType(t))
        c = unified_coefficients(params)
        assert repr((alpha_from(params), c.c2)) == repr((alpha, c2))
        assert repr((c.c1, c.c3, c.sqrt_abs_b, c.const_term)) == repr(_COEFFS[eq, x])
        assert c.psi_coeff == params.sim_type.psi_coeff and not c.critical

    @pytest.mark.parametrize("eq,x,n,b", _DIPOLE_B)
    def test_dipole_b(self, eq, x, n, b):
        profile = (dipole_pme if eq == "pme" else dipole_derivative_ple)(x, n)
        assert repr(profile.constants["b"]) == repr(b)

    @pytest.mark.parametrize("case,offset,outcome", _EXCLUDED)
    def test_excluded_values(self, case, offset, outcome):
        value, build = _CASES[case]
        try:
            got = tuple(v for v in vars(build(value + offset)).values() if not isinstance(v, Enum))
        except SsflowError as exc:
            got = type(exc).__name__
        assert repr(got) == repr(outcome)
