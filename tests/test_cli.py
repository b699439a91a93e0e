import gc
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args, env=None, timeout=120):
    cmd = [sys.executable, "-m", "ssflow", *args]
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(cmd, capture_output=True, text=True, env=full_env, timeout=timeout)


class TestMapCommand:
    def test_branch2_reference(self):
        res = run_cli("map", "--eq", "pme", "--m", "2", "--n", "1",
                      "--beta", "0.333333333333", "--branch", "2")
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert data["status"] == "ok"
        (target,) = data["targets"]
        assert target["p"] == 3.0
        assert target["n"] == pytest.approx(1.0)
        assert target["beta"] == pytest.approx(1.0 / 3.0, rel=1e-9)
        assert all(c["pass"] for c in data["checks"])

    def test_yamabe_branches_coincide(self):
        res = run_cli("map", "--eq", "pme", "--m", "0.2", "--n", "3", "--beta", "0")
        assert res.returncode == 0
        data = json.loads(res.stdout)
        dims = sorted(t["n"] for t in data["targets"])
        assert dims == pytest.approx([3.0, 3.0], rel=1e-12)

    def test_dimension_two_exits_one(self):
        res = run_cli("map", "--eq", "pme", "--m", "1.7", "--n", "2", "--beta", "0.5")
        assert res.returncode == 1
        data = json.loads(res.stdout)
        assert data["status"] == "error"
        assert "DimensionTwo" in data["error"]["type"]

    def test_usage_error_exits_one(self):
        res = run_cli("map", "--eq", "pme", "--m", "2")
        assert res.returncode == 1

    def test_ple_direction(self):
        res = run_cli("map", "--eq", "ple", "--p", "1.25", "--n", "5", "--beta", "-0.2",
                      "--branch", "2")
        assert res.returncode == 0
        data = json.loads(res.stdout)
        (target,) = data["targets"]
        assert target["m"] == pytest.approx(0.25)
        assert target["n"] == pytest.approx(3.0, rel=1e-12)


    def test_every_check_reports_its_deviation(self):
        # max_dev was null for beta_identity, b_ratio and sign_match
        res = run_cli("map", "--eq", "pme", "--m", "0.25", "--n", "3", "--beta", "1")
        assert res.returncode == 0
        checks = json.loads(res.stdout)["checks"]
        assert len(checks) == 8
        for check in checks:
            assert isinstance(check["max_dev"], float) and check["max_dev"] <= check["tol"], check
            if check["name"].endswith("sign_match"):
                assert check["max_dev"] == 0.0

    # Branch 2's alpha' = (1 - p' beta')/(p' - 2) overflows; before, its target printed "alpha": -Infinity
    def test_a_branch_whose_alpha_overflows_is_a_branch_error(self):
        res = run_cli("map", "--eq", "pme", "--m", "0.25", "--n", "10", "--beta", "3e307")
        data = json.loads(res.stdout)
        (target,) = data["targets"]
        assert target["branch"] == 1 and math.isfinite(target["alpha"])
        (error,) = data["branch_errors"]
        assert error["branch"] == 2 and error["type"] == "DomainError" and "alpha" in error["message"]
        assert not any(c["name"].startswith("branch2_") for c in data["checks"])
        assert res.returncode == 2 and data["status"] == "fail"  # Branch 1's beta identity is NaN


class TestCoeffsCommand:
    def test_reference_coefficients(self):
        res = run_cli("coeffs", "--eq", "pme", "--m", "2", "--n", "1", "--beta", "0.25")
        assert res.returncode == 0
        data = json.loads(res.stdout)
        c = data["coefficients"]
        assert c["c1"] == 2.0
        assert c["c2"] == pytest.approx(math.sqrt(6.0) / 4.0, rel=1e-14)
        assert c["b"] == pytest.approx(6.0, rel=1e-13)

    def test_critical_case_flagged(self):
        res = run_cli("coeffs", "--eq", "ple", "--p", "1.5", "--n", "3", "--beta", "0.1")
        data = json.loads(res.stdout)
        assert data["coefficients"]["critical"] is True
        assert data["coefficients"]["c3"] == -1.0

    # p_c = 2n/(n+1) overflows; before, this exited 0 with c2 = c3 = NaN and sqrt_abs_b = Infinity
    @pytest.mark.parametrize("eq", [("pme", "--m", "3"), ("ple", "--p", "4")], ids=["pme", "ple"])
    def test_overflowing_dimension_is_a_domain_error(self, eq):
        res = run_cli("coeffs", "--eq", *eq, "--n", "1e308", "--beta", "0")
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        data = json.loads(res.stdout)
        assert data["status"] == "error" and data["error"]["type"] == "DomainError"

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_critical_tol_is_a_domain_error(self, tol):
        res = run_cli("coeffs", "--eq", "pme", "--m", "2", "--n", "1", "--beta", "0.25", "--critical-tol", tol)
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        data = json.loads(res.stdout)
        assert data["error"]["type"] == "DomainError"


class TestIntegrateCommand:
    def test_csv_contract_and_roundtrip(self, tmp_path):
        out = tmp_path / "traj.csv"
        res = run_cli("integrate", "--preset", "barenblatt-line", "--out", str(out))
        assert res.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "r1,psi,phi"
        # full-precision floats reparse exactly: rewriting them reproduces the text
        for line in lines[1:]:
            vals = [float(x) for x in line.split(",")]
            assert ",".join(f"{v:.17g}" for v in vals) == line

    def test_on_line_start_stays_on_line(self, tmp_path):
        out = tmp_path / "line.csv"
        res = run_cli(
            "integrate", "--eq", "pme", "--m", "2", "--n", "1",
            "--beta", "0.3333333333333333",
            "--psi0", "1.0", "--phi0", "1.632993161855452",
            "--span", "0", "-5", "--out", str(out),
        )
        assert res.returncode == 0
        a = math.sqrt(6.0) / 3.0
        for line in out.read_text().splitlines()[1:]:
            r1, psi, phi = map(float, line.split(","))
            assert abs(phi - a * (psi + 1.0)) < 1e-8

    def test_stdout_output(self):
        res = run_cli("integrate", "--preset", "yamabe-vertex")
        assert res.returncode == 0
        assert res.stdout.startswith("r1,psi,phi\n")


class TestProfileCommand:
    def test_reconstructed_barenblatt(self, tmp_path):
        # start at the eta = 1 state of the C=1 source profile: f = 5/6, f' = -1/3
        out = tmp_path / "prof.csv"
        res = run_cli(
            "profile", "--eq", "pme", "--m", "2", "--n", "1",
            "--beta", "0.3333333333333333",
            "--psi0", "0.2", "--phi0", "0.9797958971132712",
            "--span", "0", "1.5", "--out", str(out),
        )
        assert res.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "eta,f,fprime"
        eta, f, fp = map(float, lines[1].split(","))
        assert eta == pytest.approx(1.0)
        assert f == pytest.approx(5.0 / 6.0, abs=1e-9)
        # samples follow the closed form f = 1 - eta^2/6
        for line in lines[1:]:
            eta, f, fp = map(float, line.split(","))
            assert f == pytest.approx(1.0 - eta * eta / 6.0, abs=1e-7)
            assert fp == pytest.approx(-eta / 3.0, abs=1e-7)

    @pytest.mark.parametrize("eta", ["0", "nan", "inf", "-1"])
    def test_anchor_eta_not_positive_and_finite_is_a_domain_error(self, eta):
        res = run_cli("profile", "--preset", "barenblatt-line", "--anchor-eta", eta)
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        assert "eta,f,fprime" not in res.stdout
        data = json.loads(res.stdout)
        assert data["error"]["type"] == "DomainError"

    def test_eta_overflow_is_a_json_error_without_warnings(self):
        # r1/sqrt|b| passes 709 long before this orbit ends: eta leaves the float range
        res = run_cli("profile", "--eq", "pme", "--m", "0.3333333333333333", "--n", "4", "--beta", "0",
                      "--sim-type", "2", "--psi0", "2", "--phi0", "0", "--span", "0", "2000")
        assert res.returncode == 1
        assert res.stderr == ""
        assert json.loads(res.stdout)["status"] == "error"


class TestExplicitCommand:
    def test_barenblatt_with_footer(self, tmp_path):
        out = tmp_path / "bb.csv"
        res = run_cli("explicit", "--kind", "barenblatt-pme", "--m", "2", "--n", "1",
                      "--C", "1", "--out", str(out))
        assert res.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "eta,f,fprime"
        assert len(lines) == 51
        footer = json.loads((tmp_path / "bb.csv.footer.json").read_text())
        assert footer["checks"][0]["max_dev"] < 1e-10
        assert footer["checks"][0]["pass"] is True

    def test_footer_to_stderr_without_out(self):
        res = run_cli("explicit", "--kind", "yamabe-ple", "--n", "4", "--k2", "1")
        assert res.returncode == 0
        assert res.stdout.startswith("eta,f,fprime\n")
        footer = json.loads(res.stderr)
        assert footer["checks"][0]["pass"] is True

    def test_unknown_kind_usage_error(self):
        res = run_cli("explicit", "--kind", "nope", "--n", "3")
        assert res.returncode == 1


class TestVerifyCommand:
    def test_default_grid_passes(self):
        res = run_cli("verify", "--grid", "default")
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert data["status"] == "ok"
        assert all(c["pass"] for c in data["checks"])
        names = {c["name"] for c in data["checks"]}
        assert {"coefficient_match", "roundtrip", "conjugacy", "closed_form_residuals"} <= names

    def test_unknown_grid(self):
        res = run_cli("verify", "--grid", "huge")
        assert res.returncode == 1

    def test_tol_env_override_can_fail(self):
        # an absurdly tight identity tolerance must flip verification to exit 2
        res = run_cli("verify", "--grid", "default", env={"SSFLOW_TOL": "1e-18"})
        assert res.returncode == 2
        data = json.loads(res.stdout)
        assert data["status"] == "fail"

    # critical_tol's rule, 0 <= tol < inf: inf passed every identity check, nan and -1 failed them all
    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf"])
    @pytest.mark.parametrize(
        "argv", [("verify",), ("map", "--eq", "pme", "--m", "0.25", "--n", "3", "--beta", "1")], ids=["verify", "map"]
    )
    def test_tol_env_outside_range_is_a_domain_error(self, argv, tol):
        res = run_cli(*argv, env={"SSFLOW_TOL": tol})
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        data = json.loads(res.stdout)
        assert data["error"]["type"] == "DomainError"

    def test_tol_env_zero_accepted(self):
        res = run_cli("map", "--eq", "pme", "--m", "2", "--n", "1", "--beta", "0.25", env={"SSFLOW_TOL": "0"})
        assert res.returncode == 0  # this pair's identities hold exactly
        assert all(c["tol"] == 0.0 for c in json.loads(res.stdout)["checks"])


class TestVerifyGrid:
    # (m, n, branch) of each precondition skip, in the grid's order; branch None is a critical cell
    SKIPPED = [
        (-1.0 / 3.0, 3.0, "BRANCH1"), (-1.0 / 3.0, 4.0, "BRANCH1"), (-1.0 / 3.0, 5.0, "BRANCH1"),
        (0.2, 1.0, "BRANCH1"), (0.25, 1.0, "BRANCH1"), (0.5, 1.0, "BRANCH1"), (0.5, 3.0, "BRANCH2"),
        (0.5, 4.0, None), (2.0, 1.0, "BRANCH1"), (2.0, 3.0, "BRANCH2"), (2.0, 4.0, "BRANCH2"),
        (2.0, 5.0, "BRANCH2"), (3.0, 1.0, "BRANCH1"), (3.0, 3.0, "BRANCH2"), (3.0, 4.0, "BRANCH2"),
        (3.0, 5.0, "BRANCH2"),
    ]

    def test_each_skip_listed_once(self):
        from ssflow.verify import run_default_verification

        skipped = run_default_verification()["params"]["skipped"]
        assert [(s["m"], s["n"], s.get("branch")) for s in skipped] == self.SKIPPED
        for s in skipped:
            critical = "branch" not in s
            assert (s["reason"] == "m = m_c (critical)") is critical
            assert critical or "non-positive dimension" in s["reason"]

    def test_sample_counts(self, monkeypatch):
        # identities free of beta are sampled once per (m, n) or per (m, n, branch), not per beta
        from ssflow import verify

        samples = {}

        class Counting(verify._Agg):
            def result(self, name):
                samples[name] = self.samples
                return super().result(name)

        monkeypatch.setattr(verify, "_Agg", Counting)
        verify.run_default_verification()
        expected = {
            "coefficient_match": 360, "beta_identity": 120, "b_ratio_identity": 120, "sign_match": 120,
            "branch_sum_ple": 23, "branch_sum_pme": 31, "roundtrip": 360, "line_condition": 86,
            "verify_equivalence_pairs": 240,
        }
        assert {name: samples[name] for name in expected} == expected


class TestVerifyAggregation:
    def test_nan_deviation_fails(self):
        from ssflow.verify import _Agg

        agg = _Agg(1e-6)
        agg.add(float("nan"))
        res = agg.result("x")
        assert res.passed is False
        assert not math.isfinite(res.max_dev)

    def test_nan_stays_worst_after_finite_samples(self):
        from ssflow.verify import _Agg

        agg = _Agg(1e-6)
        agg.add(1e-9)
        agg.add(float("nan"))
        agg.add(1e-8)
        res = agg.result("x")
        assert res.passed is False and agg.failures == 1
        assert math.isnan(res.max_dev)

    def test_infinite_deviation_fails(self):
        from ssflow.verify import _Agg

        agg = _Agg(1e-6)
        agg.add(-math.inf)
        res = agg.result("x")
        assert res.passed is False and res.max_dev == math.inf

    def test_finite_deviations_unchanged(self):
        from ssflow.verify import _Agg

        agg = _Agg(1e-6)
        for dev in (0.0, -5e-7, 2e-7):
            agg.add(dev)
        res = agg.result("x")
        assert res.passed is True and res.max_dev == 5e-7


class TestIntegrationFailureContract:
    def test_overflowing_start_is_a_json_error(self):
        res = run_cli("integrate", "--eq", "pme", "--m", "2", "--n", "1", "--beta", "0.3",
                      "--psi0", "1e150", "--phi0", "1e150", "--span", "0", "1")
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        data = json.loads(res.stdout)
        assert data["status"] == "error"
        assert data["error"]["type"] == "IntegrationFailure"


class TestUnifiedFlagRemoved:
    def test_unified_flag_is_a_usage_error(self):
        res = run_cli("integrate", "--unified", "--preset", "barenblatt-line")
        assert res.returncode == 1
        assert res.stdout == ""
        data = json.loads(res.stderr)
        assert data["status"] == "error"
        assert data["error"]["type"] == "usage"


class TestExplicitNonFiniteConstant:
    """A NaN or infinite constant is a parameter error before any row is written."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("explicit", "--kind", "barenblatt-pme", "--m", "2", "--n", "1", "--C", "nan"),
            ("explicit", "--kind", "barenblatt-pme", "--m", "2", "--n", "1", "--C", "inf"),
            ("explicit", "--kind", "yamabe-ple", "--n", "4", "--k2", "inf"),
        ],
        ids=["C-nan", "C-inf", "k2-inf"],
    )
    def test_domain_error_and_no_csv(self, argv):
        res = run_cli(*argv)
        assert res.returncode == 1
        assert res.stderr == ""  # no residual footer
        data = json.loads(res.stdout)  # the error report is all of stdout: no CSV
        assert data["error"]["type"] == "DomainError"
        assert "must be positive and finite" in data["error"]["message"]


class TestExplicitFalseSuccess:
    @pytest.mark.parametrize("points", ["0", "-1"])
    def test_non_positive_points_is_a_domain_error(self, points):
        res = run_cli("explicit", "--kind", "barenblatt-pme", "--m", "3", "--n", "1",
                      "--points", points)
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        assert "eta,f,fprime" not in res.stdout
        data = json.loads(res.stdout)
        assert data["status"] == "error"
        assert data["error"]["type"] == "DomainError"

    def test_failed_residual_check_exits_two(self):
        res = run_cli("explicit", "--kind", "dipole-pme", "--m", "2", "--n", "1", "--K", "1e200")
        assert res.returncode == 2
        footer = json.loads(res.stderr)
        assert footer["checks"][0]["pass"] is False
        assert footer["status"] == "fail"

    def test_nan_residual_exits_two(self, monkeypatch, capsys):
        from ssflow import cli, solutions

        build = solutions.barenblatt_pme

        def nan_at_third_point(*args):
            profile = build(*args)
            bad = profile.interior_points(5)[2]
            return type(profile)(**{**vars(profile), "f": lambda eta: math.nan if eta == bad else profile.f(eta)})

        monkeypatch.setattr(solutions, "barenblatt_pme", nan_at_third_point)
        rc = cli.main(["explicit", "--kind", "barenblatt-pme", "--m", "2", "--n", "1", "--points", "5"])
        footer = json.loads(capsys.readouterr().err)
        assert rc == 2
        assert footer["status"] == "fail"
        assert footer["checks"][0]["pass"] is False
        assert math.isnan(footer["checks"][0]["max_dev"])

    def test_overflow_is_a_json_error(self):
        res = run_cli("explicit", "--kind", "barenblatt-pme", "--m", "1.001", "--n", "1",
                      "--C", "1e10")
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        data = json.loads(res.stdout)
        assert data["status"] == "error"
        assert data["error"]["type"] == "DomainError"  # the power that overflows, named; was a bare OverflowError
        assert "overflows at eta = " in data["error"]["message"]


class TestImportBudget:
    """No command loads SciPy or numpy; numpy loads when a caller reads a Trajectory's arrays.

    Nor does ssflow load ``dataclasses`` or ``inspect``, which cost a cold start about 7 ms: the
    probe reports which of the two were loaded after the interpreter's own start-up (``site`` may
    load modules first).  Nor does ``explicit`` load ``phase_plane`` or ``integrator``: its six closed
    forms need neither.
    """

    @staticmethod
    def _run_in_fresh_process(argv=None, modules="ssflow, ssflow.cli"):
        # main() prints CSV/JSON to stdout, so the probe result goes on the last line
        code = (
            "import json, sys\n"
            "slow = ('dataclasses', 'inspect')\n"
            "before = {name for name in slow if name in sys.modules}\n"
            f"import {modules}\n"
            f"argv = {argv!r}\n"
            "rc = None if argv is None else ssflow.cli.main(argv)\n"
            "print()\n"
            "print(json.dumps({'rc': rc, 'numpy': 'numpy' in sys.modules, 'scipy': 'scipy' in sys.modules,\n"
            "                  'slow': sorted(name for name in slow if name in sys.modules and name not in before),\n"
            "                  'stepping': sorted(name for name in ('ssflow.integrator', 'ssflow.phase_plane')\n"
            "                                     if name in sys.modules)}))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        return json.loads(res.stdout.splitlines()[-1]), res

    def test_package_import_leaves_numpy_and_scipy_unloaded(self):
        probe, _ = self._run_in_fresh_process()
        assert probe["numpy"] is False
        assert probe["scipy"] is False
        assert probe["slow"] == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["coeffs", "--eq", "pme", "--m", "2", "--n", "1", "--beta", "0.25"],
            ["map", "--eq", "pme", "--m", "0.25", "--n", "3", "--beta", "1"],
            ["map", "--eq", "ple", "--p", "1.25", "--n", "5", "--beta", "-0.2"],
            ["explicit", "--kind", "barenblatt-pme", "--m", "2", "--n", "1"],
            ["explicit", "--kind", "barenblatt-ple", "--p", "3", "--n", "1"],
            ["explicit", "--kind", "dipole-pme", "--m", "2", "--n", "1"],
            ["explicit", "--kind", "dipole-derivative-ple", "--p", "3", "--n", "1"],
            ["explicit", "--kind", "loewner-nirenberg-pme", "--n", "3"],
            ["explicit", "--kind", "yamabe-ple", "--n", "4"],
            ["integrate", "--preset", "barenblatt-line"],
            ["integrate", "--preset", "yamabe-vertex"],
            ["profile", "--preset", "barenblatt-line"],
            ["profile", "--preset", "yamabe-vertex"],
            ["verify"],
        ],
        ids=["coeffs", "map-pme", "map-ple", "explicit-barenblatt", "explicit-barenblatt-ple",
             "explicit-dipole", "explicit-dipole-derivative", "explicit-loewner-nirenberg",
             "explicit-yamabe", "integrate", "integrate-yamabe-vertex", "profile-barenblatt-line", "profile",
             "verify"],
    )
    def test_scalar_commands_leave_numpy_unloaded(self, argv):
        probe, _ = self._run_in_fresh_process(argv)
        assert probe["rc"] == 0
        assert probe["numpy"] is False
        assert probe["scipy"] is False
        assert probe["slow"] == []
        if argv[0] == "explicit":  # the closed forms read their line betas from params, not phase_plane
            assert probe["stepping"] == []

    def test_trajectory_arrays_load_numpy_on_first_read(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = (
            "import json, sys\n"
            "from ssflow import integrate\n"
            "traj = integrate(lambda y: (y[0] * y[1], 1.0), (1.0, 0.0), (0.0, 1.0))\n"
            "before = 'numpy' in sys.modules\n"
            "r1 = traj.r1\n"
            "print(json.dumps({'before': before, 'after': 'numpy' in sys.modules, 'cached': traj.r1 is r1,\n"
            "                  'type': type(r1).__module__ + '.' + type(r1).__name__}))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout) == {"before": False, "after": True, "cached": True, "type": "numpy.ndarray"}

    def test_dipole_derivative_profile_leaves_scipy_unloaded(self):
        probe, res = self._run_in_fresh_process(
            ["explicit", "--kind", "dipole-derivative-ple", "--p", "3", "--n", "1"])
        assert probe["rc"] == 0
        footer = json.loads(res.stderr)
        assert footer["status"] == "ok"
        assert footer["checks"][0]["pass"] is True
        assert probe["scipy"] is False

    def test_solutions_module_leaves_numpy_unloaded(self):
        probe, _ = self._run_in_fresh_process(modules="ssflow.solutions")
        assert probe["numpy"] is False


# numpy ignores feature names it does not know, so this pins its AVX2 loops on any x86 host
_AVX2_DISPATCH = {"NPY_DISABLE_CPU_FEATURES": "AVX512_ICL AVX512_SPR X86_V4"}


class TestSimdDispatchIndependence:
    """Output bytes do not depend on which SIMD loops numpy dispatches to."""

    # each profile differed in a few rows while numpy's exp built the eta grid of the reconstruction
    @pytest.mark.parametrize(
        "argv",
        [("verify",), ("profile", "--preset", "barenblatt-line"), ("profile", "--preset", "yamabe-vertex")],
        ids=["verify", "profile-barenblatt-line", "profile-yamabe-vertex"],
    )
    def test_stdout(self, argv):
        default, avx2 = run_cli(*argv), run_cli(*argv, env=_AVX2_DISPATCH)
        assert default.returncode == avx2.returncode == 0
        assert default.stdout == avx2.stdout

    # one case per kind; each differed between the two dispatches while numpy spaced the points
    @pytest.mark.parametrize(
        "argv",
        [
            ["--kind", "barenblatt-pme", "--m", "2", "--n", "4", "--points", "50"],
            ["--kind", "barenblatt-ple", "--p", "4", "--n", "4", "--points", "50"],
            ["--kind", "dipole-pme", "--m", "2", "--n", "3", "--points", "30"],
            ["--kind", "dipole-derivative-ple", "--p", "4", "--n", "1", "--points", "80"],
            ["--kind", "loewner-nirenberg-pme", "--n", "3", "--points", "50"],
            ["--kind", "yamabe-ple", "--n", "4", "--points", "80"],
        ],
        ids=lambda argv: argv[1],
    )
    def test_explicit(self, tmp_path, argv):
        outputs = []
        for tag, env in (("default", None), ("avx2", _AVX2_DISPATCH)):
            out = tmp_path / f"{tag}.csv"
            res = run_cli("explicit", *argv, "--out", str(out), env=env)
            assert res.returncode == 0, res.stderr
            outputs.append((out.read_bytes(), (tmp_path / f"{tag}.csv.footer.json").read_bytes()))
        assert outputs[0] == outputs[1]


class TestProfileOrientationContract:
    """p < 1 maps X > 0 to Psi < 0: a start on the other side is refused as JSON, not a traceback."""

    def test_wrong_side_start_is_an_orientation_json_error(self):
        res = run_cli("profile", "--eq", "ple", "--p", "0.5", "--n", "3", "--beta", "0.3",
                      "--psi0", "0.2", "--phi0", "0.5", "--span", "0", "0.1")
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        data = json.loads(res.stdout)
        assert data["status"] == "error"
        assert data["error"]["type"] == "OrientationError"



class TestExponentMinusOneContract:
    """m = -1 (p = 0) makes the maps divide by m + 1: a JSON error, not a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("map", "--eq", "pme", "--m", "-1", "--n", "3", "--beta", "0.5"),
            ("map", "--eq", "ple", "--p", "0", "--n", "3", "--beta", "0.5"),
        ],
        ids=["pme-m-minus-one", "ple-p-zero"],
    )
    def test_map_is_a_degenerate_json_error(self, argv):
        res = run_cli(*argv)
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        data = json.loads(res.stdout)
        assert data["status"] == "error"
        assert data["error"]["type"] == "DegenerateError"


class TestDipoleLinearExponentContract:
    """m = 1 (p = 0, 1, 2) is refused before a dipole factory divides by m - 1 (p, p - 1, p - 2)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("explicit", "--kind", "dipole-pme", "--m", "1", "--n", "3"),
            ("explicit", "--kind", "dipole-derivative-ple", "--p", "2", "--n", "3"),
            ("explicit", "--kind", "dipole-derivative-ple", "--p", "1", "--n", "3"),
            ("explicit", "--kind", "dipole-derivative-ple", "--p", "0", "--n", "3"),
        ],
        ids=["dipole-pme-m-one", "dipole-derivative-ple-p-two", "dipole-derivative-ple-p-one",
             "dipole-derivative-ple-p-zero"],
    )
    def test_explicit_is_a_degenerate_json_error(self, argv):
        res = run_cli(*argv)
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        data = json.loads(res.stdout)
        assert data["status"] == "error"
        assert data["error"]["type"] == "DegenerateError"


class TestMapAllBranchesFail:
    # (argv, the error type of each branch); at m = 0 Branch2 maps, and its identity check refuses
    @pytest.mark.parametrize(
        "argv,types",
        [
            (("map", "--eq", "pme", "--m", "-1", "--n", "3", "--beta", "0.5"),
             ["DegenerateError", "DegenerateError"]),
            (("map", "--eq", "pme", "--m", "0", "--n", "3", "--beta", "0.25"),
             ["DegenerateError", "CriticalError"]),
        ],
        ids=["m-minus-one", "m-zero"],
    )
    def test_error_lists_every_branch(self, argv, types):
        res = run_cli(*argv)
        assert res.returncode == 1
        error = json.loads(res.stdout)["error"]
        assert [b["branch"] for b in error["branches"]] == [1, 2]
        assert all(set(b) == {"branch", "type", "message"} for b in error["branches"])
        assert [b["type"] for b in error["branches"]] == types
        # the older fields keep their meaning: the first branch's type, the list as a string
        assert error["type"] == error["branches"][0]["type"]
        assert json.loads(error["message"]) == error["branches"]


class TestRequiredParamFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ("map", "--eq", "pme", "--m", "2", "--beta", "0.5"),
            ("coeffs", "--eq", "ple", "--p", "3", "--n", "1"),
            ("integrate", "--eq", "pme", "--m", "2", "--psi0", "0.2", "--phi0", "1"),
            ("profile", "--eq", "pme", "--m", "2", "--n", "1", "--psi0", "0.2", "--phi0", "1"),
        ],
        ids=["map", "coeffs", "integrate", "profile"],
    )
    def test_missing_n_or_beta_is_one_error(self, argv):
        res = run_cli(*argv)
        assert res.returncode == 1
        assert json.loads(res.stdout) == {
            "status": "error",
            "error": {"type": "SsflowError", "message": "--n and --beta are required"},
        }

    def test_preset_overrides_param_flags(self):
        plain = run_cli("profile", "--preset", "yamabe-vertex")
        flagged = run_cli("profile", "--preset", "yamabe-vertex", "--eq", "ple", "--p", "3", "--beta", "1")
        assert plain.returncode == flagged.returncode == 0
        assert flagged.stdout == plain.stdout


class TestRetryAfterRejection:
    def test_rejected_steps_do_not_fake_an_underflow(self):
        # a retry once started from the rejected trial's end slope, and the step shrank to underflow
        res = run_cli(
            "integrate", "--eq", "pme", "--m", "2", "--n", "0.5796212519887138",
            "--beta", "0.5321926204839686", "--psi0", "0.3526599811137704",
            "--phi0", "1.5566109251507614", "--span", "0", "3.246410105056178",
            "--rel-tol", "3.120788804005148e-07", "--abs-tol", "1e-13",
        )
        assert res.returncode == 0, res.stdout + res.stderr
        last = [float(v) for v in res.stdout.splitlines()[-1].split(",")]
        assert math.hypot(last[1], last[2]) > 1e12  # stopped by the divergence guard


class TestNonFiniteIntegratorFlags:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--preset", "barenblatt-line", "--max-step", "nan"],
            ["--preset", "barenblatt-line", "--rel-tol", "nan"],
            ["--preset", "barenblatt-line", "--abs-tol", "nan"],
            ["--preset", "barenblatt-line", "--rel-tol", "inf"],
            ["--eq", "pme", "--m", "2", "--n", "1", "--beta", "0.3333333333333333",
             "--psi0", "0.1", "--phi0", "0.5", "--span", "0", "nan"],
            ["--eq", "pme", "--m", "2", "--n", "1", "--beta", "0.3333333333333333",
             "--psi0", "0.1", "--phi0", "0.5", "--span", "0", "inf"],
        ],
        ids=["max-step-nan", "rel-tol-nan", "abs-tol-nan", "rel-tol-inf", "span-nan", "span-inf"],
    )
    def test_parameter_error(self, flags):
        res = run_cli("integrate", *flags, timeout=60)
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        data = json.loads(res.stdout)
        assert data["status"] == "error"
        assert data["error"]["type"] == "DomainError"


class TestGoldenTrajectories:
    @pytest.mark.parametrize(
        "preset,golden",
        [("barenblatt-line", "barenblatt_line.csv"), ("yamabe-vertex", "yamabe_vertex.csv")],
    )
    def test_bit_identical_regeneration(self, tmp_path, preset, golden):
        out = tmp_path / "out.csv"
        res = run_cli("integrate", "--preset", preset, "--out", str(out))
        assert res.returncode == 0
        assert out.read_bytes() == (GOLDEN / golden).read_bytes()

    @pytest.mark.parametrize(
        "preset,golden",
        [("barenblatt-line", "profile_barenblatt_line.csv"), ("yamabe-vertex", "profile_yamabe_vertex.csv")],
    )
    def test_profile_bit_identical_regeneration(self, tmp_path, preset, golden):
        # the reconstructed profile's bytes: the orbit of the integrate golden, mapped back node by node
        out = tmp_path / "out.csv"
        res = run_cli("profile", "--preset", preset, "--out", str(out))
        assert res.returncode == 0
        assert out.read_bytes() == (GOLDEN / golden).read_bytes()

    def test_verify_bit_identical(self):
        # the whole report: every check's max_dev, tol and pass, and the skipped cells
        res = subprocess.run([sys.executable, "-m", "ssflow", "verify"], capture_output=True, timeout=120,
                             env={key: value for key, value in os.environ.items() if key != "SSFLOW_TOL"})
        assert res.returncode == 0
        assert res.stdout == (GOLDEN / "verify_default.json").read_bytes()

    def test_golden_reparse_matches_library(self):
        from ssflow import IntegrationSettings, PMEParams, integrate, straight_line, unified_coefficients, unified_system

        coeffs = unified_coefficients(PMEParams(2.0, 1.0, 1.0 / 3.0))
        a1, a2 = straight_line(coeffs)
        sett = IntegrationSettings(rel_tol=1e-10, abs_tol=1e-13)
        traj = integrate(unified_system(coeffs), (0.01, a1 * 0.01 + a2), (0.0, 5.0), sett)
        rows = [
            tuple(map(float, line.split(",")))
            for line in (GOLDEN / "barenblatt_line.csv").read_text().splitlines()[1:]
        ]
        assert len(rows) == len(traj)
        for (r1, psi, phi), tr, ts in zip(rows, traj.r1, traj.states):
            assert r1 == tr and psi == ts[0] and phi == ts[1]


class TestBlasKernelIndependence:
    # The stage sums run on Python floats, so no output may depend on the OpenBLAS kernel numpy
    # loads; Prescott is the oldest x86-64 kernel and differs from the newer ones in its dgemv.
    @pytest.mark.parametrize(
        "argv",
        [["integrate", "--preset", "barenblatt-line"], ["integrate", "--preset", "yamabe-vertex"], ["verify"]],
        ids=["barenblatt-line", "yamabe-vertex", "verify"],
    )
    def test_prescott_gives_the_default_bytes(self, argv):
        env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
        runs = [
            subprocess.run([sys.executable, "-m", "ssflow", *argv], capture_output=True, env=kernel_env, timeout=120)
            for kernel_env in (env, env | {"OPENBLAS_CORETYPE": "Prescott"})
        ]
        assert [run.returncode for run in runs] == [0, 0]
        assert runs[1].stdout == runs[0].stdout


class TestNegativeNumberTokens:
    # every token float() accepts is a value, not an option flag
    @pytest.mark.parametrize(
        "argv,dest,expected",
        [
            (["--psi0", "-1e-3"], "psi0", -1e-3),
            (["--m", "-1e-1"], "m", -0.1),
            (["--phi0", "-.5"], "phi0", -0.5),
            (["--phi0", "-5."], "phi0", -5.0),
            (["--phi0", "-1_000E+0_1"], "phi0", -1e4),
            (["--span", "-1e-1", "0"], "span", [-0.1, 0.0]),
            (["--span", "-inf", "0"], "span", [-math.inf, 0.0]),
            (["--span", "-Infinity", "0"], "span", [-math.inf, 0.0]),
        ],
    )
    def test_read_as_value(self, argv, dest, expected):
        from ssflow.cli import build_parser

        args = build_parser().parse_args(["integrate", *argv])
        assert getattr(args, dest) == expected

    def test_negative_nan_is_a_value(self):
        from ssflow.cli import build_parser

        args = build_parser().parse_args(["integrate", "--span", "-nan", "0"])
        assert math.isnan(args.span[0])

    def test_negative_infinite_span_is_a_domain_error(self):
        res = run_cli("integrate", "--eq", "pme", "--m", "2", "--n", "1", "--beta", "0.3333333333333333",
                      "--psi0", "0.1", "--phi0", "0.5", "--span", "-inf", "0")
        assert res.returncode == 1
        data = json.loads(res.stdout)
        assert data["error"]["type"] == "DomainError"

    def test_non_number_is_still_a_usage_error(self):
        res = run_cli("integrate", "--psi0", "-x")
        assert res.returncode == 1
        assert json.loads(res.stderr)["error"]["type"] == "usage"


class TestOverflowLeavesStderrClean:
    def test_no_runtime_warning(self):
        res = run_cli("integrate", "--eq", "pme", "--m", "2", "--n", "1", "--beta", "0.3333333333333333",
                      "--psi0", "1e150", "--phi0", "1e150", "--span", "0", "1")
        assert res.returncode == 1
        assert res.stderr == ""
        data = json.loads(res.stdout)
        assert data["error"]["type"] == "IntegrationFailure"



class TestArgumentFuzzFindings:
    """Inputs the seeded argument fuzz (test_cli_fuzz.py) found: each a JSON error, all of stdout."""

    @pytest.mark.parametrize(
        "argv,kind",
        [
            (("map", "--eq", "ple", "--p", "3", "--n", "1e300", "--beta", "0.5", "--branch", "2"),
             "DegenerateError"),
            (("map", "--eq", "ple", "--p", "0.3333333333333333", "--n", "1e300", "--beta", "1", "--branch", "2"),
             "DegenerateError"),
            (("explicit", "--kind", "barenblatt-ple", "--n", "3", "--p", "0"), "DegenerateError"),
            (("explicit", "--kind", "barenblatt-ple", "--n", "3", "--p", "1"), "DegenerateError"),
            (("explicit", "--kind", "barenblatt-ple", "--p", "1e-300", "--n", "1e308"), "DomainError"),
            (("explicit", "--kind", "dipole-derivative-ple", "--p", "1e-300", "--n", "0.25"), "DomainError"),
            (("profile", "--eq", "pme", "--m", "2", "--n", "1", "--beta", "0.3", "--psi0", "1", "--phi0", "1",
              "--anchor-eta", "1e200"), "DomainError"),
            (("profile", "--preset", "barenblatt-line", "--anchor-eta", "1e-300"), "DomainError"),
            # the residual fails after sampling: no CSV row may precede the error report
            (("explicit", "--kind", "dipole-pme", "--m", "-1", "--n", "1e300"), "OutsideSupportError"),
            (("explicit", "--kind", "barenblatt-ple", "--p", "1.0000000000000002", "--n", "2.0000000000000004"),
             "SingularEvaluationError"),
            # found with other seeds: |b| = s*s underflows in the p-Laplacian inverse, and X^((p-1)/(p-2)) does
            (("profile", "--eq", "ple", "--p", "0", "--n", "1e-300", "--beta", "1e300", "--psi0", "0.25",
              "--phi0", "5e-324", "--max-steps", "1000", "--anchor-eta", "5e-324"), "DomainError"),
            (("profile", "--eq", "ple", "--p", "4", "--n", "0.3", "--beta", "-1", "--sim-type", "3", "--psi0",
              "5e-324", "--phi0", "1e-300", "--max-step", "0.9999999999999999", "--span", "-0.5", "-1e300",
              "--max-steps", "50", "--anchor-eta", "0.25"), "DomainError"),
            # both branch images are refused: Branch 1's beta' and Branch 2's alpha' overflow
            (("map", "--eq", "ple", "--p", "1.2", "--n", "2", "--beta", "1e308"), "DomainError"),
            # a float ** overflows: the identity squares of map, then the closed forms' powers
            (("map", "--eq", "ple", "--p", "-0.5", "--n", "1", "--beta", "1e308"), "DomainError"),
            (("map", "--eq", "ple", "--p", "0.3333333333333333", "--n", "0.25", "--beta", "-1e300"),
             "DomainError"),
            (("explicit", "--kind", "barenblatt-ple", "--p", "1e-300", "--n", "0.3"), "DomainError"),
            (("explicit", "--kind", "barenblatt-ple", "--p", "1.0000000000000002", "--n", "5e-324"),
             "DomainError"),
            (("explicit", "--kind", "dipole-pme", "--m", "2.0000000000000004", "--n", "1e300", "--K", "0.2"),
             "DomainError"),
            (("explicit", "--kind", "barenblatt-ple", "--p", "0.3", "--n", "1e308"), "DomainError"),
            (("explicit", "--kind", "barenblatt-pme", "--m", "-1", "--n", "4", "--C", "1e308"), "DomainError"),
            (("explicit", "--kind", "barenblatt-ple", "--p", "0.2", "--n", "4", "--C", "1e308"), "DomainError"),
            (("explicit", "--kind", "dipole-derivative-ple", "--p", "2.5", "--n", "3", "--c", "1e300"),
             "DomainError"),
            # a term coefficient of f' is -inf: the rows were f = 0, f' = nan and the exit code 2
            (("explicit", "--kind", "yamabe-ple", "--n", "3", "--k2", "1e300"), "DomainError"),
        ],
        ids=["map-F-zero-p3", "map-F-zero-p-third", "barenblatt-ple-p-zero", "barenblatt-ple-p-one",
             "barenblatt-ple-beta1-underflow", "dipole-derivative-empty-support", "profile-anchor-eta-huge",
             "profile-anchor-eta-tiny", "explicit-residual-outside-support", "explicit-residual-singular",
             "profile-ple-scale-underflow", "profile-ple-x-power-underflow", "map-alpha-overflow",
             "map-square-overflow", "map-square-overflow-one-branch-unphysical", "explicit-free-boundary-overflow",
             "explicit-eta-power-overflow", "explicit-term-power-overflow", "explicit-beta1-power-overflow",
             "explicit-pme-residual-overflow", "explicit-ple-residual-overflow", "explicit-derivative-scale-overflow",
             "explicit-term-coefficient-overflow"],
    )
    def test_json_error(self, argv, kind):
        res = run_cli(*argv)
        assert res.returncode == 1
        assert res.stderr == ""
        data = json.loads(res.stdout)
        assert data["status"] == "error"
        assert data["error"]["type"] == kind


class TestEntryPoint:
    """``run()`` ends every process entry point; ``main()`` never touches the garbage collector."""

    COMMANDS = [
        ["map", "--eq", "pme", "--m", "0.25", "--n", "3", "--beta", "1"],
        ["coeffs", "--eq", "pme", "--m", "2", "--n", "1", "--beta", "0.25"],
        ["integrate", "--preset", "barenblatt-line"],
        ["profile", "--preset", "yamabe-vertex"],
        ["explicit", "--kind", "barenblatt-pme", "--m", "2", "--n", "1"],
        ["verify"],
    ]
    # what pip's console-script wrapper for `ssflow = "ssflow.cli:run"` does
    CONSOLE_SCRIPT = "import sys; from ssflow.cli import run; sys.argv[0] = 'ssflow'; sys.exit(run())"

    @staticmethod
    def _fresh(*args):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {key: value for key, value in os.environ.items() if key != "SSFLOW_TOL"}
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        return subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=120)

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
    def test_main_leaves_the_collector_alone(self, argv, capsys):
        from ssflow import cli

        frozen = gc.get_freeze_count()
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert gc.isenabled()
        assert gc.get_freeze_count() == frozen

    @pytest.mark.parametrize(
        "entry", [("-m", "ssflow"), ("-m", "ssflow.cli"), ("-c", CONSOLE_SCRIPT)], ids=["package", "module", "script"]
    )
    @pytest.mark.parametrize(
        "argv,code",
        [
            (["coeffs", "--eq", "pme", "--m", "2", "--n", "1", "--beta", "0.25"], 0),
            (["coeffs", "--eq", "pme", "--m", "2"], 1),
            (["coeffs", "--bogus"], 1),
            (["explicit", "--kind", "dipole-pme", "--m", "2", "--n", "1", "--K", "1e200"], 2),
        ],
        ids=["ok", "param-error", "usage-error", "failed-check"],
    )
    def test_process_matches_main(self, entry, argv, code, capfdbinary):
        from ssflow import cli

        assert cli.main(argv) == code
        expected = capfdbinary.readouterr()
        res = self._fresh(*entry, *argv)
        assert (res.returncode, res.stdout, res.stderr) == (code, expected.out, expected.err)

    @pytest.mark.parametrize("entry", [("-m", "ssflow"), ("-m", "ssflow.cli")], ids=["package", "module"])
    def test_out_files_match_main(self, entry, tmp_path):
        from ssflow import cli

        argv = ["explicit", "--kind", "yamabe-ple", "--n", "4", "--out"]
        assert cli.main([*argv, str(tmp_path / "main.csv")]) == 0
        res = self._fresh(*entry, *argv, str(tmp_path / "run.csv"))
        assert (res.returncode, res.stdout, res.stderr) == (0, b"", b"")
        for suffix in (".csv", ".csv.footer.json"):
            assert (tmp_path / f"run{suffix}").read_bytes() == (tmp_path / f"main{suffix}").read_bytes()

    @pytest.mark.parametrize(
        "call",
        ["from ssflow.cli import run; run()",
         "import runpy; runpy.run_module('ssflow', run_name='__main__', alter_sys=True)",
         "import runpy; runpy.run_module('ssflow.cli', run_name='__main__', alter_sys=True)"],
        ids=["run", "package", "module"],
    )
    def test_run_freezes_after_main_and_keeps_atexit(self, call):
        # the handler runs after run() has frozen the heap, and still writes to a stream that is flushed
        code = (
            "import atexit, gc, sys\n"
            "atexit.register(lambda: print(gc.isenabled(), gc.get_freeze_count() > 0, file=sys.stderr))\n"
            "sys.argv = ['ssflow', 'verify']\n"
            f"{call}\n"
        )
        res = self._fresh("-c", code)
        assert res.returncode == 0
        assert res.stdout == (GOLDEN / "verify_default.json").read_bytes()
        assert res.stderr == b"False True\n"
