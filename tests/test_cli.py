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

    def test_overflow_is_a_json_error(self):
        res = run_cli("explicit", "--kind", "barenblatt-pme", "--m", "1.001", "--n", "1",
                      "--C", "1e10")
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        data = json.loads(res.stdout)
        assert data["status"] == "error"
        assert data["error"]["type"] == "OverflowError"


class TestImportBudget:
    """SciPy is imported only by the code paths that call ``quad``."""

    @staticmethod
    def _run_in_fresh_process(argv=None):
        # main() prints CSV/JSON to stdout, so the probe result goes on the last line
        code = (
            "import json, sys\n"
            "import ssflow, ssflow.cli\n"
            f"argv = {argv!r}\n"
            "rc = None if argv is None else ssflow.cli.main(argv)\n"
            "print()\n"
            "print(json.dumps({'rc': rc, 'scipy': 'scipy' in sys.modules}))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        return json.loads(res.stdout.splitlines()[-1]), res

    def test_package_import_leaves_scipy_unloaded(self):
        probe, _ = self._run_in_fresh_process()
        assert probe["scipy"] is False

    @pytest.mark.parametrize(
        "argv",
        [
            ["coeffs", "--eq", "pme", "--m", "2", "--n", "1", "--beta", "0.25"],
            ["map", "--eq", "pme", "--m", "0.25", "--n", "3", "--beta", "1"],
            ["map", "--eq", "ple", "--p", "1.25", "--n", "5", "--beta", "-0.2"],
            ["integrate", "--preset", "barenblatt-line"],
            ["profile", "--preset", "yamabe-vertex"],
            ["explicit", "--kind", "barenblatt-pme", "--m", "2", "--n", "1"],
        ],
        ids=["coeffs", "map-pme", "map-ple", "integrate", "profile", "explicit-barenblatt"],
    )
    def test_quad_free_commands_leave_scipy_unloaded(self, argv):
        probe, _ = self._run_in_fresh_process(argv)
        assert probe["rc"] == 0
        assert probe["scipy"] is False

    def test_dipole_derivative_profile_loads_scipy_lazily(self):
        probe, res = self._run_in_fresh_process(
            ["explicit", "--kind", "dipole-derivative-ple", "--p", "3", "--n", "1"])
        assert probe["rc"] == 0
        footer = json.loads(res.stderr)
        assert footer["status"] == "ok"
        assert footer["checks"][0]["pass"] is True
        assert probe["scipy"] is True


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


class TestMapAllBranchesFail:
    def test_error_lists_every_branch(self):
        res = run_cli("map", "--eq", "pme", "--m", "-1", "--n", "3", "--beta", "0.5")
        assert res.returncode == 1
        error = json.loads(res.stdout)["error"]
        assert [b["branch"] for b in error["branches"]] == [1, 2]
        assert all(set(b) == {"branch", "type", "message"} for b in error["branches"])
        assert all(b["type"] == "DegenerateError" for b in error["branches"])
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

