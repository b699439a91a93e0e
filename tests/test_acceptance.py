"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The parameter grid is m in {-1/3, 1/5, 1/4, 1/2, 2, 3}, n in {1, 3, 4, 5},
beta in {0, beta1, beta2, 1}, valid cells only; cells at the critical
exponent and branch images with non-positive dimension are skipped.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.integrate import quad

from ssflow import (
    Branch,
    IntegrationSettings,
    PLEParams,
    PMEParams,
    ProfileSample,
    SimilarityType,
    UnphysicalDimensionError,
    barenblatt_ple,
    barenblatt_pme,
    compare_trajectories,
    critical_exponents,
    dipole_derivative_ple,
    dipole_pme,
    integrate,
    line_betas_ple,
    line_betas_pme,
    line_condition_value,
    loewner_nirenberg_pme,
    ple_native_system_xy,
    ple_preimage_dimensions,
    ple_to_pme,
    ple_trajectory_to_unified,
    pme_branch_dimensions,
    pme_native_system,
    pme_to_ple,
    pme_trajectory_to_unified,
    profile_to_state,
    selfsimilar_value,
    straight_line,
    unified_coefficients,
    unified_system,
    yamabe_curve,
    yamabe_ple,
)

GRID_M = (-1.0 / 3.0, 0.2, 0.25, 0.5, 2.0, 3.0)
GRID_N = (1.0, 3.0, 4.0, 5.0)


def _report(num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{tag}] {desc}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {desc} {detail}"


def _grid_cells():
    for m in GRID_M:
        for n in GRID_N:
            crit = critical_exponents(n)
            if abs(m - crit.m_c) <= 1e-9 * max(1.0, abs(crit.m_c)):
                continue  # critical cell: beta1 infinite, maps refuse
            b1, b2 = line_betas_pme(m, n)
            betas = [0.0, 1.0]
            for b in (b1, b2):
                if b is not None and all(abs(b - x) > 1e-15 for x in betas):
                    betas.append(b)
            for beta in betas:
                yield m, n, beta


def _branch_images(pme):
    for branch in (Branch.BRANCH1, Branch.BRANCH2):
        try:
            yield branch, pme_to_ple(pme, branch)
        except UnphysicalDimensionError:
            continue


def _coeff_dev(ca, cb):
    """Field-wise deviation, up to the exact orientation involution that
    negates (c2, c3) jointly (the reversed-orientation branch image)."""

    def rd(a, b):
        return abs(a - b) / max(1.0, abs(a), abs(b))

    same = max(rd(ca.c1, cb.c1), rd(ca.c2, cb.c2), rd(ca.c3, cb.c3))
    flip = max(rd(ca.c1, cb.c1), rd(ca.c2, -cb.c2), rd(ca.c3, -cb.c3))
    dev = min(same, flip)
    if ca.const_term != cb.const_term or ca.psi_coeff != cb.psi_coeff:
        dev = max(dev, 1.0)
    return dev


def test_criterion_1_coefficient_identification():
    t0 = time.perf_counter()
    worst = 0.0
    cells = 0
    for m, n, beta in _grid_cells():
        pme = PMEParams(m, n, beta)
        ca = unified_coefficients(pme)
        for _, ple in _branch_images(pme):
            worst = max(worst, _coeff_dev(ca, unified_coefficients(ple)))
            cells += 1
    elapsed = time.perf_counter() - t0
    _report(1, "coefficient identification on the default grid", worst < 1e-10 and elapsed < 1.0,
            f"max dev {worst:.2e}, {cells} branch images, {elapsed:.2f}s")


def test_criterion_2_identity_suite():
    worst = 0.0
    for m, n, beta in _grid_cells():
        pme = PMEParams(m, n, beta)
        ca = unified_coefficients(pme)
        p = m + 1.0
        n1p, n2p = pme_branch_dimensions(m, n)
        worst = max(worst, abs(1.0 / n1p + 1.0 / n2p - (2.0 - p) / p))
        for _, ple in _branch_images(pme):
            cb = unified_coefficients(ple)
            lhs = (beta * (n - 2.0)) ** 2
            rhs = (ple.beta * ple.n) ** 2
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
            worst = max(worst, abs(cb.b / ca.b - (ple.n / (n - 2.0)) ** 2))
            worst = max(worst, 0.0 if ca.const_term == cb.const_term else 1.0)
            ns1, ns2 = ple_preimage_dimensions(ple.p, ple.n)
            worst = max(worst, abs(1.0 / (ns1 - 2.0) + 1.0 / (ns2 - 2.0) - (1.0 - m) / (2.0 * m)))
    _report(2, "identity suite (beta, b-ratio, sign, branch sums)", worst < 1e-12,
            f"max dev {worst:.2e}")


def test_criterion_3_round_trip():
    worst = 0.0
    for m, n, beta in _grid_cells():
        pme = PMEParams(m, n, beta)
        for branch, ple in _branch_images(pme):
            back = ple_to_pme(ple, branch)
            worst = max(worst, abs(back.m - m) / max(1.0, abs(m)))
            worst = max(worst, abs(back.n - n) / max(1.0, abs(n)))
            worst = max(worst, abs(back.beta - beta) / max(1.0, abs(beta)))
    _report(3, "round-trip ple_to_pme . pme_to_ple = identity per branch", worst < 1e-10,
            f"max dev {worst:.2e}")


def test_criterion_4_conjugacy_of_flows():
    t0 = time.perf_counter()
    sett = IntegrationSettings(rel_tol=1e-9, abs_tol=1e-12)
    span = 3.0
    worst = 0.0

    pme_cases = [
        (PMEParams(2.0, 1.0, 1.0 / 3.0), [(0.0, 0.5), (0.3, 0.2), (0.6, 0.4), (0.2, 0.8), (0.5, 0.1)]),
        (PMEParams(0.25, 3.0, 1.0), [(0.0, 0.3), (-0.5, 0.2), (0.4, 0.1), (-1.0, 0.4), (0.2, 0.25)]),
    ]
    for params, points in pme_cases:
        coeffs = unified_coefficients(params)
        for y0 in points:
            nat = integrate(pme_native_system(params), y0, (0.0, span / coeffs.sqrt_abs_b), sett)
            mapped = pme_trajectory_to_unified(nat, params)
            uni = integrate(unified_system(coeffs), mapped.states[0], (0.0, span), sett)
            worst = max(worst, compare_trajectories(mapped, uni))

    ple_cases = [
        (PLEParams(3.0, 1.0, 1.0 / 3.0), [(0.1, 0.5), (0.2, 0.3), (0.05, 1.0), (0.3, -0.2), (0.15, 0.8)]),
        (PLEParams(1.25, 2.5, 0.4), [(0.5, -0.5), (0.3, -0.2), (0.2, 0.1), (0.4, -0.8), (0.6, -0.3)]),
    ]
    for params, points in ple_cases:
        coeffs = unified_coefficients(params)
        for y0 in points:
            nat = integrate(ple_native_system_xy(params), y0, (0.0, span / coeffs.sqrt_abs_b), sett)
            mapped = ple_trajectory_to_unified(nat, params)
            uni = integrate(unified_system(coeffs), mapped.states[0], (0.0, span), sett)
            worst = max(worst, compare_trajectories(mapped, uni))

    elapsed = time.perf_counter() - t0
    _report(4, "conjugacy of native and unified flows", worst < 1e-6 and elapsed < 5.0,
            f"max deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_5_closed_form_residuals():
    profiles = [
        barenblatt_pme(2.0, 1.0, 1.0),
        barenblatt_ple(3.0, 1.0, 1.0),
        dipole_pme(2.0, 1.0, 1.0),
        dipole_derivative_ple(3.0, 1.0, 1.0),
    ]
    for n in (3.0, 4.0, 5.0):
        profiles.append(loewner_nirenberg_pme(n, 1.0))
        profiles.append(yamabe_ple(n, 1.0))
    from ssflow import max_residual

    worst = max(max_residual(prof, count=50) for prof in profiles)
    _report(5, "closed-form residuals at 50 log-spaced interior points", worst < 1e-8,
            f"max |residual| {worst:.2e} over {len(profiles)} profiles")


def test_criterion_6_straight_lines():
    worst_cond = 0.0
    for beta in line_betas_pme(2.0, 1.0):
        worst_cond = max(worst_cond, abs(line_condition_value(unified_coefficients(PMEParams(2.0, 1.0, beta)))))
    for beta in line_betas_ple(3.0, 1.0):
        worst_cond = max(worst_cond, abs(line_condition_value(unified_coefficients(PLEParams(3.0, 1.0, beta)))))

    sett = IntegrationSettings(rel_tol=1e-10, abs_tol=1e-13)
    worst_traj = 0.0
    coeff_sets = [unified_coefficients(PMEParams(2.0, 1.0, b)) for b in line_betas_pme(2.0, 1.0)]
    coeff_sets += [unified_coefficients(PLEParams(3.0, 1.0, b)) for b in line_betas_ple(3.0, 1.0)]
    for coeffs in coeff_sets:
        a1, a2 = straight_line(coeffs)
        traj = integrate(unified_system(coeffs), (0.01, a1 * 0.01 + a2), (0.0, 5.0), sett)
        assert traj.status == "completed"
        worst_traj = max(worst_traj, float(np.max(np.abs(traj.states[:, 1] - a1 * traj.states[:, 0] - a2))))
    _report(6, "straight-line condition and on-line trajectories",
            worst_cond < 1e-10 and worst_traj < 1e-8,
            f"condition {worst_cond:.2e}, trajectory distance {worst_traj:.2e}")


def test_criterion_7_yamabe_consistency():
    worst_profile = 0.0
    for n in (3.0, 4.0, 5.0):
        for prof in (loewner_nirenberg_pme(n, 1.0), yamabe_ple(n, 1.0)):
            for eta in np.geomspace(0.1, 10.0, 40):
                smp = ProfileSample(float(eta), prof.f(float(eta)), prof.fprime(float(eta)))
                state = profile_to_state(smp, prof.params)
                worst_profile = max(worst_profile, abs(state.psi - yamabe_curve(n, state.phi)))

    worst_field = 0.0
    for n in (3.0, 4.0, 5.0):
        m_s = critical_exponents(n).m_s
        rhs = unified_system(unified_coefficients(PMEParams(m_s, n, 0.0, SimilarityType.TYPE_II)))
        for phi in np.linspace(-2.0, 2.0, 100):
            psi = yamabe_curve(n, float(phi))
            dpsi, dphi = rhs((psi, float(phi)))
            worst_field = max(worst_field, abs(dpsi + n * phi / 2.0 * dphi))
    _report(7, "Yamabe curve: profile images and slope field",
            worst_profile < 1e-6 and worst_field < 1e-12,
            f"profiles {worst_profile:.2e}, field {worst_field:.2e}")


def test_criterion_8_critical_case():
    worst_c3 = 0.0
    syst2_used = True
    for n in (3.0, 4.0, 5.0):
        crit = critical_exponents(n)
        cm = unified_coefficients(PMEParams(crit.m_c, n, 0.7))
        cp = unified_coefficients(PLEParams(crit.p_c, n, 0.7))
        worst_c3 = max(worst_c3, abs(cm.c3 + 1.0), abs(cp.c3 + 1.0))
        syst2_used = syst2_used and cm.critical and cp.critical
        syst2_used = syst2_used and cm.const_term == 0 and cp.const_term == 0

    ratios_ok = True
    worst_ratio = 0.0
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
                for r in (devs[0] / devs[1], devs[1] / devs[2]):
                    worst_ratio = max(worst_ratio, abs(r - 2.0))
                    ratios_ok = ratios_ok and abs(r - 2.0) < 0.25
    _report(8, "critical case: c3 = -1, reduced system, linear map limit",
            worst_c3 < 1e-12 and syst2_used and ratios_ok,
            f"c3 dev {worst_c3:.1e}, halving-ratio dev {worst_ratio:.2e}")


def test_criterion_9_mass_conservation():
    prof = barenblatt_pme(2.0, 1.0, 1.0)
    params = prof.params
    edge = prof.support[1]

    def mass(t):
        # independent quadrature oracle over the full line (n = 1: factor 2)
        val, _ = quad(
            lambda x: selfsimilar_value(params, prof, x, t),
            0.0,
            edge * t ** params.beta,
            epsabs=1e-12,
            epsrel=1e-12,
        )
        return 2.0 * val

    m1, m2 = mass(1.0), mass(2.0)
    drift = abs(m1 - m2) / abs(m1)
    _report(9, "Barenblatt mass conservation between t=1 and t=2", drift < 1e-6,
            f"relative drift {drift:.2e}")


def test_criterion_10_cli_contract():
    env = dict(os.environ)
    res = subprocess.run(
        [sys.executable, "-m", "ssflow", "verify", "--grid", "default"],
        capture_output=True, text=True, env=env,
    )
    verify_ok = res.returncode == 0 and json.loads(res.stdout)["status"] == "ok"

    golden = Path(__file__).parent / "golden"
    bits_ok = True
    import tempfile

    for preset, name in (("barenblatt-line", "barenblatt_line.csv"), ("yamabe-vertex", "yamabe_vertex.csv")):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "t.csv"
            r = subprocess.run(
                [sys.executable, "-m", "ssflow", "integrate", "--preset", preset, "--out", str(out)],
                capture_output=True, text=True, env=env,
            )
            bits_ok = bits_ok and r.returncode == 0 and out.read_bytes() == (golden / name).read_bytes()
            # reparse: text floats recover the doubles exactly
            for line in out.read_text().splitlines()[1:]:
                vals = [float(v) for v in line.split(",")]
                bits_ok = bits_ok and ",".join(f"{v:.17g}" for v in vals) == line
    _report(10, "CLI: verify exits 0 and golden trajectories reparse bit-identically",
            verify_ok and bits_ok)
