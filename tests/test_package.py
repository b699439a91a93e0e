"""The package's public names: scalar modules load eagerly, numpy-backed ones on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ssflow

# Everything `import ssflow` exposes, lazy names included.
PUBLIC = [
    "AnchorMismatchError", "Branch", "ClosedFormProfile", "ComparisonError", "CriticalError",
    "CriticalExponents", "DegenerateError", "DimensionTwoError", "DomainError", "EquivalenceReport",
    "IntegrationFailure", "IntegrationSettings", "NativeStatePLE", "NativeStatePME", "OrientationError",
    "OutsideSupportError", "PLEParams", "PMEParams", "PhaseState", "ProfileSample",
    "SimilarityType", "SingularEvaluationError", "SsflowError", "StopEvent", "Trajectory",
    "TruncationWarning", "UnifiedCoefficients", "UnphysicalDimensionError", "alpha_from",
    "barenblatt_ple", "barenblatt_pme", "compare_trajectories", "critical_exponents",
    "dipole_derivative_ple", "dipole_pme", "equivalence", "errors", "integrate", "integrator",
    "line_betas_ple", "line_betas_pme", "line_condition_value", "loewner_nirenberg_pme",
    "mass_integral", "max_residual", "params", "phase_plane",
    "ple_native_system_xy", "ple_preimage_dimensions", "ple_residual", "ple_to_pme", "ple_to_unified",
    "ple_trajectory_to_unified", "pme_branch_dimensions", "pme_native_system",
    "pme_residual", "pme_to_ple", "pme_to_unified", "pme_trajectory_to_unified", "profile_to_state",
    "reconstruct_profile", "self_map", "selfsimilar_value", "solutions", "state_to_profile",
    "straight_line", "unified_coefficients", "unified_system", "unified_to_ple",
    "unified_to_pme", "verify_equivalence", "yamabe_curve", "yamabe_ple",
]


def _fresh_process(code):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


def test_dir_lists_every_public_name_before_any_is_loaded():
    probe = _fresh_process(
        "import json, sys, ssflow\n"
        "print(json.dumps({'dir': [n for n in dir(ssflow) if not n.startswith('_')],"
        " 'numpy': 'numpy' in sys.modules}))"
    )
    assert probe["dir"] == PUBLIC
    assert probe["numpy"] is False


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from ssflow import *", namespace)
    assert sorted(name for name in namespace if name != "__builtins__") == PUBLIC


def test_lazy_names_are_the_module_objects():
    from ssflow import integrator, phase_plane, solutions

    assert ssflow.integrate is integrator.integrate
    assert ssflow.Trajectory is phase_plane.Trajectory
    assert ssflow.mass_integral is solutions.mass_integral
    assert ssflow.solutions is solutions


@pytest.mark.parametrize(
    "name",
    ["Regime", "classify_regime", "pme_native_rhs", "ple_native_rhs_xy", "ple_native_rhs_xz", "unified_rhs",
     "ProfileKind", "no_such_name"],
)
def test_unknown_names_raise_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(ssflow, name)
