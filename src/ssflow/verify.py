"""Grid-based verification suite behind the ``verify`` CLI command.

Runs every identity, conjugacy, residual, and trajectory check on the default
parameter grid and aggregates one pass/fail record per check name.  Cells that
violate the preconditions of the maps (critical exponent, non-positive target
dimension) are skipped and reported, not failed.
"""

from __future__ import annotations

import math

from . import solutions
from ._records import CheckResult, _Agg, _worst
from .equivalence import (
    DEFAULT_IDENTITY_TOL,
    Branch,
    EquivalenceReport,
    ple_preimage_dimensions,
    ple_to_pme,
    pme_branch_dimensions,
    pme_to_ple,
    verify_equivalence,
)
from .errors import UnphysicalDimensionError
from .integrator import IntegrationSettings, compare_trajectories, integrate
from .params import (
    PLEParams,
    PMEParams,
    SimilarityType,
    critical_exponents,
    line_betas_ple,
    line_betas_pme,
    unified_coefficients,
)
from .phase_plane import (
    line_condition_value,
    ple_native_system_xy,
    ple_trajectory_to_unified,
    pme_native_system,
    pme_trajectory_to_unified,
    profile_to_state,
    straight_line,
    unified_system,
    yamabe_curve,
)

GRID_M = (-1.0 / 3.0, 0.2, 0.25, 0.5, 2.0, 3.0)
GRID_N = (1.0, 3.0, 4.0, 5.0)

# (exponent, n, beta) -> native starting points of the conjugacy check
CONJUGACY_POINTS_PME = {
    (2.0, 1.0, 1.0 / 3.0): ((0.0, 0.5), (0.3, 0.2), (0.6, 0.4), (0.2, 0.8), (0.5, 0.1)),
    (0.25, 3.0, 1.0): ((0.0, 0.3), (-0.5, 0.2), (0.4, 0.1), (-1.0, 0.4), (0.2, 0.25)),
}
CONJUGACY_POINTS_PLE = {
    (3.0, 1.0, 1.0 / 3.0): ((0.1, 0.5), (0.2, 0.3), (0.05, 1.0), (0.3, -0.2), (0.15, 0.8)),
    (1.25, 2.5, 0.4): ((0.5, -0.5), (0.3, -0.2), (0.2, 0.1), (0.4, -0.8), (0.6, -0.3)),
}


def default_grid_cells(skipped: list[dict]):
    """Yield (m, n, betas, branches) for each grid (m, n) outside the critical band.

    The band is ``unified_coefficients``' own, DEFAULT_CRITICAL_TOL around m_c.  ``branches``
    have an image of positive dimension, whatever beta.  Each skip is recorded once.
    """
    for m in GRID_M:
        for n in GRID_N:
            base = PMEParams(m, n, 0.0)
            if unified_coefficients(base).critical:
                skipped.append({"m": m, "n": n, "reason": "m = m_c (critical)"})
                continue
            betas = [0.0, 1.0]
            for b in line_betas_pme(m, n):
                if b is not None and all(abs(b - x) > 1e-15 for x in betas):
                    betas.append(b)
            branches = []
            for branch in (Branch.BRANCH1, Branch.BRANCH2):
                try:
                    pme_to_ple(base, branch)
                    branches.append(branch)
                except UnphysicalDimensionError as exc:
                    skipped.append({"m": m, "n": n, "branch": branch.name, "reason": str(exc)})
            yield m, n, betas, branches


def check_identity_grid(cells: list[tuple], tol: float) -> tuple[list[CheckResult], list[EquivalenceReport]]:
    """Coefficient identification, algebraic identities, and round trips on the grid's cells.

    The coefficient identities are ``verify_equivalence``'s deviations, one report per
    mapped pair; the reports come back with the checks, in the grid's order, for
    ``check_verify_pairs``.  Identities free of beta are sampled once per (m, n) or per
    (m, n, branch).
    """
    coeff = _Agg(tol)
    beta_id = _Agg(1e-12)
    b_ratio = _Agg(1e-12)
    sign_id = _Agg(1e-12)
    sum_np = _Agg(1e-12)
    sum_n = _Agg(1e-12)
    roundtrip = _Agg(1e-10)
    line_cond = _Agg(1e-10)
    reports = []

    for m, n, betas, branches in cells:
        np1, np2 = pme_branch_dimensions(m, n)
        sum_np.add(1.0 / np1 + 1.0 / np2 - (1.0 - m) / (m + 1.0))
        base = PMEParams(m, n, 0.0)
        images = [pme_to_ple(base, branch) for branch in branches]
        for ple in images:
            n1, n2 = ple_preimage_dimensions(ple.p, ple.n)
            sum_n.add(1.0 / (n1 - 2.0) + 1.0 / (n2 - 2.0) - (1.0 - m) / (2.0 * m))
        # Straight-line condition for the two line betas (needs sgn(b) = +1, Type I).
        if unified_coefficients(base).const_term == 1:
            lines = [PMEParams(m, n, lb) for lb in line_betas_pme(m, n) if lb is not None]
            lines += [PLEParams(ple.p, ple.n, lb) for ple in images
                      for lb in line_betas_ple(ple.p, ple.n) if lb is not None]
            for params in lines:
                line_cond.add(line_condition_value(unified_coefficients(params)))

        for beta in betas:
            pme = PMEParams(m, n, beta)
            for branch in branches:
                ple = pme_to_ple(pme, branch)
                rep = verify_equivalence(pme, ple, tol)
                reports.append(rep)
                coeff.add(rep.c_max_rel_dev)
                coeff.add(0.0 if rep.sign_match else 1.0)
                coeff.add(0.0 if rep.psi_match else 1.0)
                beta_id.add(rep.beta_dev)
                b_ratio.add(rep.b_ratio_dev)
                sign_id.add(0.0 if rep.sign_match else 1.0)

                back = ple_to_pme(ple, branch)
                roundtrip.add(abs(back.m - m) / max(1.0, abs(m)))
                roundtrip.add(abs(back.n - n) / max(1.0, abs(n)))
                roundtrip.add(abs(back.beta - beta) / max(1.0, abs(beta)))

    return [
        coeff.result("coefficient_match"),
        beta_id.result("beta_identity"),
        b_ratio.result("b_ratio_identity"),
        sign_id.result("sign_match"),
        sum_np.result("branch_sum_ple"),
        sum_n.result("branch_sum_pme"),
        roundtrip.result("roundtrip"),
        line_cond.result("line_condition"),
    ], reports


def check_verify_pairs(reports: list[EquivalenceReport], tol: float) -> CheckResult:
    """verify_equivalence passes for every mapped pair: the grid's reports from ``check_identity_grid``."""
    agg = _Agg(tol)
    for rep in reports:
        agg.add(0.0 if rep.passed else 1.0)
        agg.add(rep.c_max_rel_dev)
    return agg.result("verify_equivalence_pairs")


def check_conjugacy() -> CheckResult:
    """Native flows mapped to the unified plane match direct integration over r1 in [0, 3]."""
    sett = IntegrationSettings(rel_tol=1e-9, abs_tol=1e-12)
    span = 3.0
    agg = _Agg(1e-6)
    cases = (
        (PMEParams, CONJUGACY_POINTS_PME, pme_native_system, pme_trajectory_to_unified),
        (PLEParams, CONJUGACY_POINTS_PLE, ple_native_system_xy, ple_trajectory_to_unified),
    )
    for params_cls, table, native_system, to_unified in cases:
        for key, points in table.items():
            params = params_cls(*key)
            coeffs = unified_coefficients(params)
            for y0 in points:
                nat = integrate(native_system(params), y0, (0.0, span / coeffs.sqrt_abs_b), sett)
                mapped = to_unified(nat, params)
                uni = integrate(unified_system(coeffs), mapped.points[0], (0.0, span), sett)
                agg.add(compare_trajectories(mapped, uni))
    return agg.result("conjugacy")


def check_closed_forms() -> CheckResult:
    """Residual oracle on all closed-form profiles (50 interior points each)."""
    profiles = [
        solutions.barenblatt_pme(2.0, 1.0, 1.0),
        solutions.barenblatt_ple(3.0, 1.0, 1.0),
        solutions.dipole_pme(2.0, 1.0, 1.0),
        solutions.dipole_derivative_ple(3.0, 1.0, 1.0),
    ]
    for n in (3.0, 4.0, 5.0):
        profiles.append(solutions.loewner_nirenberg_pme(n, 1.0))
        profiles.append(solutions.yamabe_ple(n, 1.0))
    return solutions._residual_check("closed_form_residuals", profiles, 50)


def check_yamabe_profiles() -> CheckResult:
    """Mapped profile samples land on the exact parabola trajectory."""
    agg = _Agg(1e-6)
    for n in (3.0, 4.0, 5.0):
        for prof in (solutions.loewner_nirenberg_pme(n, 1.0), solutions.yamabe_ple(n, 1.0)):
            for smp in prof.sample(solutions._geomspace(0.1, 10.0, 40)):
                state = profile_to_state(smp, prof.params)
                agg.add(state.psi - yamabe_curve(n, state.phi))
    return agg.result("yamabe_profiles_on_curve")


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """numpy.linspace's points: i * step + start with step = (stop - start)/(num - 1), the last one stop."""
    step = (stop - start) / (num - 1)
    return [i * step + start for i in range(num - 1)] + [stop]


def check_yamabe_slope_field() -> CheckResult:
    """The parabola is tangent to the unified field at 100 sample points."""
    agg = _Agg(1e-12)
    for n in (3.0, 4.0, 5.0):
        m_s = critical_exponents(n).m_s
        field = unified_system(unified_coefficients(PMEParams(m_s, n, 0.0, SimilarityType.TYPE_II)))
        for phi in _linspace(-2.0, 2.0, 100):
            psi = yamabe_curve(n, phi)
            dpsi, dphi = field((psi, phi))
            # the curve has dPsi/dPhi = -n*phi/2; tangency kills this combination
            agg.add(dpsi + n * phi / 2.0 * dphi)
    return agg.result("yamabe_slope_field")


def check_critical_case() -> list[CheckResult]:
    """c3 = -1 in the critical reduction; the map limit converges linearly."""
    c3_agg = _Agg(1e-12)
    for n in (3.0, 4.0, 5.0):
        crit = critical_exponents(n)
        cm = unified_coefficients(PMEParams(crit.m_c, n, 0.7))
        cp = unified_coefficients(PLEParams(crit.p_c, n, 0.7))
        c3_agg.add(cm.c3 + 1.0)
        c3_agg.add(cp.c3 + 1.0)
        c3_agg.add(0.0 if (cm.const_term == 0 and cm.critical) else 1.0)
        c3_agg.add(0.0 if (cp.const_term == 0 and cp.critical) else 1.0)

    # Linear convergence of the branch limit m -> m_c: halving eps halves the gap.
    ratio_agg = _Agg(0.25)
    beta = 0.7
    for n in (3.0, 4.0, 5.0):
        m_c = critical_exponents(n).m_c
        for sign in (1.0, -1.0):
            devs_n, devs_b = [], []
            for eps in (1e-3, 5e-4, 2.5e-4):
                img = pme_to_ple(PMEParams(m_c + sign * eps, n, beta), Branch.BRANCH1)
                devs_n.append(abs(img.n - (n - 1.0)))
                devs_b.append(abs(img.beta - beta * (n - 2.0) / (n - 1.0)))
            for devs in (devs_n, devs_b):
                ratio_agg.add(devs[0] / devs[1] - 2.0)
                ratio_agg.add(devs[1] / devs[2] - 2.0)
    return [c3_agg.result("critical_c3"), ratio_agg.result("critical_limit_linear")]


def check_line_trajectories() -> CheckResult:
    """Orbits started on an invariant line stay on it over r1 in [0, 5]."""
    sett = IntegrationSettings(rel_tol=1e-10, abs_tol=1e-13)
    agg = _Agg(1e-8)
    cases = []
    for lb in line_betas_pme(2.0, 1.0):
        cases.append(unified_coefficients(PMEParams(2.0, 1.0, lb)))
    for lb in line_betas_ple(3.0, 1.0):
        cases.append(unified_coefficients(PLEParams(3.0, 1.0, lb)))
    for coeffs in cases:
        line = straight_line(coeffs)
        if line is None:
            agg.add(math.inf)
            continue
        a1, a2 = line
        traj = integrate(unified_system(coeffs), (0.01, a1 * 0.01 + a2), (0.0, 5.0), sett)
        agg.add(_worst(phi - a1 * psi - a2 for psi, phi in traj.points))
    return agg.result("line_trajectories")


def check_mass_conservation() -> CheckResult:
    """Source-type solution mass is time independent (quadrature oracle)."""
    prof = solutions.barenblatt_pme(2.0, 1.0, 1.0)
    m1 = solutions.mass_integral(prof, prof.params, t=1.0)
    m2 = solutions.mass_integral(prof, prof.params, t=2.0)
    agg = _Agg(1e-6)
    agg.add(abs(m1 - m2) / abs(m1))
    return agg.result("mass_conservation")


def run_default_verification(tol_identities: float = DEFAULT_IDENTITY_TOL) -> dict:
    """Run the whole suite; returns the JSON-ready report dictionary."""
    skipped: list[dict] = []
    cells = list(default_grid_cells(skipped))
    checks, reports = check_identity_grid(cells, tol_identities)
    checks.append(check_verify_pairs(reports, tol_identities))
    checks.append(check_conjugacy())
    checks.append(check_closed_forms())
    checks.append(check_yamabe_profiles())
    checks.append(check_yamabe_slope_field())
    checks.extend(check_critical_case())
    checks.append(check_line_trajectories())
    checks.append(check_mass_conservation())
    return {
        "status": "ok" if all(c.passed for c in checks) else "fail",
        "checks": [c.as_dict() for c in checks],
        "params": {
            "grid_m": list(GRID_M),
            "grid_n": list(GRID_N),
            "beta_set": "0, beta1, beta2, 1",
            "skipped": skipped,
        },
    }
