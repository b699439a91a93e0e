import math
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from ssflow import (
    Branch,
    CriticalError,
    DegenerateError,
    DimensionTwoError,
    DomainError,
    EquivalenceReport,
    PLEParams,
    PMEParams,
    UnifiedCoefficients,
    UnphysicalDimensionError,
    critical_exponents,
    ple_preimage_dimensions,
    ple_to_pme,
    pme_branch_dimensions,
    pme_to_ple,
    self_map,
    unified_coefficients,
    verify_equivalence,
)
from ssflow.equivalence import coefficient_deviation

B1, B2 = Branch.BRANCH1, Branch.BRANCH2


def _valid_m(m, n):
    crit = critical_exponents(n)
    return abs(m - 1.0) > 1e-3 and abs(m) > 1e-3 and abs(m - crit.m_c) > 1e-3


class TestPmeToPle:
    def test_n1_branch2_keeps_dimension(self):
        img = pme_to_ple(PMEParams(2.0, 1.0, 1.0 / 3.0), B2)
        assert img.p == 3.0
        assert img.n == pytest.approx(1.0, abs=1e-15)
        assert img.beta == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_yamabe_branches_coincide(self):
        a = pme_to_ple(PMEParams(0.2, 3.0, 0.5), B1)
        b = pme_to_ple(PMEParams(0.2, 3.0, 0.5), B2)
        assert a.p == b.p == pytest.approx(1.2, abs=1e-15)
        assert a.n == pytest.approx(3.0, rel=1e-14)
        assert b.n == pytest.approx(3.0, rel=1e-14)

    def test_quarter_case_both_branches(self):
        a = pme_to_ple(PMEParams(0.25, 3.0, 1.0), B1)
        assert (a.p, a.n, a.beta) == pytest.approx((1.25, 2.5, 0.4), rel=1e-14)
        b = pme_to_ple(PMEParams(0.25, 3.0, 1.0), B2)
        assert (b.p, b.n, b.beta) == pytest.approx((1.25, 5.0, -0.2), rel=1e-13)

    def test_critical_m_refused(self):
        with pytest.raises(CriticalError):
            pme_to_ple(PMEParams(1.0 / 3.0, 3.0, 0.1), B1)

    def test_dimension_two_refused(self):
        with pytest.raises(DimensionTwoError):
            pme_to_ple(PMEParams(1.7, 2.0, 0.1), B1)

    def test_m_zero_branch1_refused_branch2_allowed(self):
        with pytest.raises(DegenerateError):
            pme_to_ple(PMEParams(0.0, 3.0, 0.1), B1)
        img = pme_to_ple(PMEParams(0.0, 3.0, 0.1), B2)
        assert img.n == pytest.approx(1.0, rel=1e-14)

    def test_unphysical_dimension_carries_value(self):
        with pytest.raises(UnphysicalDimensionError) as exc:
            pme_to_ple(PMEParams(3.0, 1.0, 0.1), B1)  # n'_1 = -(m+1)/(2m) < 0
        assert exc.value.n_prime == pytest.approx(-2.0 / 3.0, rel=1e-14)

    def test_beta_zero_maps_to_beta_zero(self):
        assert pme_to_ple(PMEParams(2.0, 3.0, 0.0), B1).beta == 0.0
        assert pme_to_ple(PMEParams(0.25, 3.0, 0.0), B2).beta == 0.0

    @pytest.mark.parametrize("branch", [B1, B2])
    @pytest.mark.parametrize("m", [-1.0, -1.0 + 1e-13])
    def test_m_minus_one_refused(self, m, branch):
        # beta' = beta F / (m+1) divides by zero at p = m + 1 = 0
        with pytest.raises(DegenerateError):
            pme_to_ple(PMEParams(m, 3.0, 0.5), branch)

    def test_m_minus_one_branch_dimensions_still_defined(self):
        # the dimension formulas multiply by m + 1, so both targets are 0
        assert pme_branch_dimensions(-1.0, 3.0) == (0.0, 0.0)


class TestPleToPme:
    def test_inverse_of_quarter_case(self):
        src = ple_to_pme(PLEParams(1.25, 5.0, -0.2), B2)
        assert (src.m, src.n, src.beta) == pytest.approx((0.25, 3.0, 1.0), rel=1e-13)

    def test_inverse_of_n1_case(self):
        src = ple_to_pme(PLEParams(3.0, 1.0, 1.0 / 3.0), B2)
        assert (src.m, src.n, src.beta) == pytest.approx((2.0, 1.0, 1.0 / 3.0), rel=1e-14)

    def test_yamabe_both_branches(self):
        for branch in (B1, B2):
            src = ple_to_pme(PLEParams(1.2, 3.0, 0.5), branch)
            assert src.m == pytest.approx(0.2, rel=1e-14)
            assert src.n == pytest.approx(3.0, rel=1e-13)

    def test_critical_p_refused(self):
        n_prime = 3.0
        p_c = 2.0 * n_prime / (n_prime + 1.0)
        with pytest.raises(CriticalError):
            ple_to_pme(PLEParams(p_c, n_prime, 0.1), B1)

    def test_p_one_refused(self):
        with pytest.raises(DegenerateError):
            ple_to_pme(PLEParams(1.0, 3.0, 0.1), B1)

    @pytest.mark.parametrize("branch", [B1, B2])
    @pytest.mark.parametrize("p", [0.0, 1e-13])
    def test_p_zero_refused(self, p, branch):
        with pytest.raises(DegenerateError):
            ple_to_pme(PLEParams(p, 3.0, 0.5), branch)

    @pytest.mark.parametrize("p", [0.0, -1e-13])
    def test_p_zero_preimage_dimensions_refused(self, p):
        with pytest.raises(DegenerateError):
            ple_preimage_dimensions(p, 3.0)

    @pytest.mark.parametrize("n_prime", [0.5, 2.0, 3.0, 7.5])
    def test_branch2_inverse_degeneracy_is_p_c(self, n_prime):
        # n'(1-m) = m+1 is p = p_c(n'): the raw preimage refuses it, the map's p_c guard first
        p_c = 2.0 * n_prime / (n_prime + 1.0)
        with pytest.raises(DegenerateError, match="Branch2 inverse degenerates"):
            ple_preimage_dimensions(p_c, n_prime)
        for branch in (B1, B2):
            with pytest.raises(CriticalError):
                ple_to_pme(PLEParams(p_c, n_prime, 0.1), branch)


class TestPreimagePrecision:
    """The inverse is written in p, so a small p keeps its low bits (m = p - 1 would drop them)."""

    @staticmethod
    def _exact_inverse(ple, branch):
        p, n_prime, beta_prime = Fraction(ple.p), Fraction(ple.n), Fraction(ple.beta)
        if branch is B1:
            n, factor = 2 + 2 * (p - 1) * n_prime / p, 2 * (p - 1)
        else:
            n = 2 * (n_prime - p) / (n_prime * (2 - p) - p)
            factor = n * (p - 2) + 2
        return float(n), float(beta_prime * p / factor)

    @pytest.mark.parametrize(
        "m,n,branch",
        [(-0.999999, 1e6, B2), (-0.9999, 1e4, B2), (-0.99, 50.0, B2), (0.25, 3.0, B1), (2.0, 1.0, B2)],
    )
    def test_inverse_matches_exact_arithmetic(self, m, n, branch):
        ple = pme_to_ple(PMEParams(m, n, 0.7), branch)
        back = ple_to_pme(ple, branch)
        exact_n, exact_beta = self._exact_inverse(ple, branch)
        assert back.n == pytest.approx(exact_n, rel=1e-9)
        assert back.beta == pytest.approx(exact_beta, rel=1e-9)
        assert ple_preimage_dimensions(ple.p, ple.n)[branch.value - 1] == pytest.approx(exact_n, rel=1e-9)


class TestPreimageFactorZero:
    """Branch 2's F = n(p - 2) + 2 cancels to 0.0 for a large n': refused before beta = beta' p / F divides."""

    @pytest.mark.parametrize("p,n_prime,beta", [(3.0, 1e300, 0.5), (1.0 / 3.0, 1e300, 1.0)])
    def test_degenerate_error(self, p, n_prime, beta):
        with pytest.raises(DegenerateError, match="F"):
            ple_to_pme(PLEParams(p, n_prime, beta), B2)


class TestRoundTrip:
    @pytest.mark.parametrize("branch", [B1, B2])
    @pytest.mark.parametrize(
        "m,n,beta",
        [(2.0, 1.0, 1.0 / 3.0), (0.25, 3.0, 1.0), (3.0, 5.0, -0.7), (0.5, 3.0, 0.2), (-1.0 / 3.0, 1.0, 1.0)],
    )
    def test_grid_round_trips(self, branch, m, n, beta):
        src = PMEParams(m, n, beta)
        try:
            img = pme_to_ple(src, branch)
        except UnphysicalDimensionError:
            pytest.skip("branch image has non-positive dimension")
        back = ple_to_pme(img, branch)
        assert back.m == pytest.approx(m, rel=1e-10)
        assert back.n == pytest.approx(n, rel=1e-10)
        assert back.beta == pytest.approx(beta, rel=1e-10, abs=1e-12)

    @given(
        m=st.floats(-0.9, 3.0),
        n=st.sampled_from([1.0, 2.5, 3.0, 4.0, 5.5]),
        beta=st.floats(-1.0, 1.0),
        branch=st.sampled_from([B1, B2]),
    )
    def test_property_round_trip(self, m, n, beta, branch):
        assume(_valid_m(m, n))
        src = PMEParams(m, n, beta)
        try:
            img = pme_to_ple(src, branch)
        except UnphysicalDimensionError:
            assume(False)
        back = ple_to_pme(img, branch)
        assert back.m == pytest.approx(m, rel=1e-10, abs=1e-12)
        assert back.n == pytest.approx(n, rel=1e-10)
        assert back.beta == pytest.approx(beta, rel=1e-10, abs=1e-12)


class TestSumIdentities:
    @given(m=st.floats(-0.9, 3.0), n=st.sampled_from([1.0, 3.0, 4.0, 5.0]))
    def test_ple_branch_sum(self, m, n):
        assume(_valid_m(m, n))
        n1, n2 = pme_branch_dimensions(m, n)
        p = m + 1.0
        assert 1.0 / n1 + 1.0 / n2 == pytest.approx((2.0 - p) / p, abs=1e-12)

    def test_pme_preimage_sum(self):
        # fixed p: the two source dimensions of one target satisfy the dual identity
        p, n_prime = 1.25, 2.5
        m = p - 1.0
        n1, n2 = ple_preimage_dimensions(p, n_prime)
        assert 1.0 / (n1 - 2.0) + 1.0 / (n2 - 2.0) == pytest.approx((1.0 - m) / (2.0 * m), abs=1e-12)
        assert (n1, n2) == pytest.approx((3.0, 4.0), rel=1e-13)

    def test_quarter_case_pair_value(self):
        n1, n2 = pme_branch_dimensions(0.25, 3.0)
        assert (n1, n2) == pytest.approx((2.5, 5.0), rel=1e-14)
        assert 1.0 / n1 + 1.0 / n2 == pytest.approx(0.6, abs=1e-15)


class TestSelfMap:
    def test_pme_self_map_changes_dimension(self):
        out = self_map(PMEParams(0.25, 3.0, 1.0), B1, B2)
        assert out.m == 0.25
        # partner dimension satisfies 1/(n1-2) + 1/(n2-2) = (1-m)/(2m)
        lhs = 1.0 / (3.0 - 2.0) + 1.0 / (out.n - 2.0)
        assert lhs == pytest.approx((1.0 - 0.25) / 0.5, abs=1e-12)

    def test_yamabe_fixed_point(self):
        # the dimension is fixed at m = m_s; mixing branches traverses the
        # orientation involution once, so beta returns with flipped sign
        out = self_map(PMEParams(0.2, 3.0, 0.5), B1, B2)
        assert out.n == pytest.approx(3.0, rel=1e-12)
        assert abs(out.beta) == pytest.approx(0.5, rel=1e-12)

    def test_same_branch_is_identity(self):
        src = PMEParams(0.25, 3.0, 0.3)
        out = self_map(src, B2, B2)
        assert out.m == pytest.approx(src.m, rel=1e-13)
        assert out.n == pytest.approx(src.n, rel=1e-13)
        assert out.beta == pytest.approx(src.beta, rel=1e-13)

    def test_ple_self_map(self):
        src = PLEParams(1.25, 2.5, 0.4)
        out = self_map(src, B1, B2)
        assert out.p == 1.25
        assert 1.0 / 2.5 + 1.0 / out.n == pytest.approx((2.0 - 1.25) / 1.25, abs=1e-12)


class TestVerifyEquivalence:
    def test_matched_pair_passes(self):
        rep = verify_equivalence(PMEParams(2.0, 1.0, 1.0 / 3.0), PLEParams(3.0, 1.0, 1.0 / 3.0))
        assert rep.passed and not rep.flipped
        assert rep.c_max_rel_dev < 1e-14

    def test_branch1_quarter_case(self):
        pme = PMEParams(0.25, 3.0, 1.0)
        ple = pme_to_ple(pme, B1)
        rep = verify_equivalence(pme, ple)
        assert rep.passed and not rep.flipped
        # beta^2 (n-2)^2 = (beta' n')^2 = 1 here
        assert (ple.beta * ple.n) ** 2 == pytest.approx(1.0, rel=1e-14)

    def test_branch2_quarter_case_is_orientation_flipped(self):
        pme = PMEParams(0.25, 3.0, 1.0)
        ple = pme_to_ple(pme, B2)
        rep = verify_equivalence(pme, ple)
        assert rep.passed and rep.flipped

    def test_mismatched_pair_reports_c_mismatch(self):
        rep = verify_equivalence(PMEParams(2.0, 3.0, 0.1), PLEParams(3.0, 3.0, 0.1))
        assert not rep.c_match
        assert not rep.passed

    def test_critical_refused(self):
        with pytest.raises(CriticalError):
            verify_equivalence(PMEParams(1.0 / 3.0, 3.0, 0.1), PLEParams(3.0, 3.0, 0.1))

    def test_dimension_two_refused_like_the_maps(self):
        pme = PMEParams(1.7, 2.0, 0.1)
        with pytest.raises(DimensionTwoError) as from_map:
            pme_to_ple(pme, B1)
        with pytest.raises(DimensionTwoError) as from_check:
            verify_equivalence(pme, PLEParams(3.0, 3.0, 0.1))
        assert str(from_check.value) == str(from_map.value)

    def test_m_minus_one_refused(self):
        # both branch dimensions are 0 at p = m + 1 = 0, so the branch sum would divide by 0
        with pytest.raises(DegenerateError):
            verify_equivalence(PMEParams(-1.0, 3.0, 0.5), PLEParams(0.5, 3.0, 0.5))

    def test_b_ratio_identity_value(self):
        pme = PMEParams(0.25, 3.0, 1.0)
        ple = pme_to_ple(pme, B1)
        ca, cb = unified_coefficients(pme), unified_coefficients(ple)
        assert cb.b / ca.b == pytest.approx((ple.n / (pme.n - 2.0)) ** 2, rel=1e-13)

    # a float ** raises OverflowError past about 1.3e154, where * gives inf: each square names itself
    @pytest.mark.parametrize(
        "pme,ple,square",
        [
            (ple_to_pme(PLEParams(-0.5, 1.0, 1e308), B1), PLEParams(-0.5, 1.0, 1e308), "beta (n - 2)"),
            (ple_to_pme(PLEParams(-0.5, 1.0, 1e308), B2), PLEParams(-0.5, 1.0, 1e308), "beta (n - 2)"),
            (PMEParams(2.0, 3.0, 0.0), PLEParams(3.0, 3.0, 1e200), "beta' n'"),
            (PMEParams(2.0, 2.0 + 1e-11, 0.0), PLEParams(3.0, 1e150, 0.0), "n'/(n - 2)"),
        ],
        ids=["beta-n-branch1", "beta-n-branch2", "beta-prime-n-prime", "dimension-ratio"],
    )
    def test_overflowing_square_refused(self, pme, ple, square):
        with pytest.raises(DomainError, match=f"^the square of {re.escape(square)} = .* overflows$"):
            verify_equivalence(pme, ple)


class TestEquivalenceReportDeviations:
    """verify_equivalence measures each identity once; the booleans are ``dev <= tol`` of its numbers."""

    def test_deviations_are_reported(self):
        pme = PMEParams(0.25, 3.0, 1.0)
        ple = pme_to_ple(pme, B1)
        rep = verify_equivalence(pme, ple)
        ca, cb = unified_coefficients(pme), unified_coefficients(ple)
        lhs, rhs = (pme.beta * (pme.n - 2.0)) ** 2, (ple.beta * ple.n) ** 2
        assert rep.beta_dev == abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
        ratio, target = cb.b / ca.b, (ple.n / (pme.n - 2.0)) ** 2
        assert rep.b_ratio_dev == abs(ratio - target) / max(1.0, abs(ratio), abs(target))
        assert rep.sign_match and rep.psi_match
        assert max(rep.c_max_rel_dev, rep.beta_dev, rep.b_ratio_dev) < 1e-13

    @pytest.mark.parametrize("field", ["c_max_rel_dev", "beta_dev", "b_ratio_dev"])
    @pytest.mark.parametrize("dev", [math.nan, math.inf, 2e-10])
    def test_deviation_beyond_tol_fails(self, field, dev):
        devs = {"c_max_rel_dev": 0.0, "beta_dev": 0.0, "b_ratio_dev": 0.0, field: dev}
        rep = EquivalenceReport(**devs, sign_match=True, psi_match=True, tol=1e-10)
        checks = {"c_max_rel_dev": rep.c_match, "beta_dev": rep.beta_identity, "b_ratio_dev": rep.b_ratio}
        assert checks.pop(field) is False and all(checks.values())
        assert rep.passed is False

    def test_deviation_at_tol_passes(self):
        rep = EquivalenceReport(1e-10, 1e-10, 1e-10, sign_match=True, psi_match=True, tol=1e-10)
        assert rep.c_match and rep.beta_identity and rep.b_ratio and rep.passed

    @pytest.mark.parametrize("sign_match,psi_match", [(False, True), (True, False)])
    def test_discrete_mismatch_fails_the_coefficient_match(self, sign_match, psi_match):
        rep = EquivalenceReport(0.0, 0.0, 0.0, sign_match=sign_match, psi_match=psi_match, tol=1e-10)
        assert not rep.c_match and not rep.passed

    def test_nan_coefficient_deviation_is_reported(self):
        # the bare max of the three deviations dropped a NaN that did not come first
        nan = math.nan
        dev, flipped = coefficient_deviation(UnifiedCoefficients(1.5, nan, nan, 1.0, 1, 1),
                                             UnifiedCoefficients(1.5, 0.0, 0.0, 1.0, 1, 1))
        assert math.isnan(dev) and flipped is False

    def test_overflowing_dimension_does_not_pass(self):
        # c2 = c3 = NaN on the porous-medium side once passed every identity
        with pytest.raises(DomainError, match="overflow"):
            verify_equivalence(PMEParams(3.0, 1e308, 0.0), PLEParams(4.0, 1.0, 0.0))


class TestCoefficientAgreementGrid:
    def test_matched_coefficients_to_1e12(self):
        # every valid branch image reproduces (c1, c2, c3) to 1e-12 relative,
        # up to the exact orientation involution negating c2 and c3 jointly
        from ssflow.equivalence import coefficient_deviation

        grid_m = (-1.0 / 3.0, 0.2, 0.25, 0.5, 2.0, 3.0)
        for m in grid_m:
            for n in (1.0, 3.0, 4.0, 5.0):
                crit = critical_exponents(n)
                if abs(m - crit.m_c) < 1e-9:
                    continue
                for beta in (0.0, 0.37, 1.0):
                    pme = PMEParams(m, n, beta)
                    ca = unified_coefficients(pme)
                    for branch in (B1, B2):
                        try:
                            ple = pme_to_ple(pme, branch)
                        except UnphysicalDimensionError:
                            continue
                        dev, _ = coefficient_deviation(ca, unified_coefficients(ple))
                        assert dev < 1e-12, (m, n, beta, branch, dev)


class TestCriticalLimit:
    @pytest.mark.parametrize("n", [3.0, 4.0, 5.0])
    def test_branch_limit_linear_convergence(self, n):
        m_c = critical_exponents(n).m_c
        beta = 0.7
        devs = []
        for eps in (1e-3, 5e-4, 2.5e-4):
            img = pme_to_ple(PMEParams(m_c + eps, n, beta), B1)
            devs.append(abs(img.n - (n - 1.0)))
        assert devs[0] / devs[1] == pytest.approx(2.0, abs=0.25)
        assert devs[1] / devs[2] == pytest.approx(2.0, abs=0.25)
        img = pme_to_ple(PMEParams(m_c + 1e-6, n, beta), B1)
        assert img.beta == pytest.approx(beta * (n - 2.0) / (n - 1.0), rel=1e-4)
