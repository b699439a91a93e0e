import pytest
from hypothesis import assume, given, strategies as st

from ssflow import (
    Branch,
    CriticalError,
    DegenerateError,
    DimensionTwoError,
    PLEParams,
    PMEParams,
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
