"""Self-similar phase-plane toolkit for porous-medium and p-Laplacian flows.

``params``, ``equivalence`` and ``errors`` are scalar algebra and load with the
package.  ``integrator``, ``phase_plane`` and ``solutions`` and their names
load on first access (PEP 562).  Every module runs on Python floats and
``math``: a ``Trajectory`` stores its nodes as floats and builds its numpy
arrays (``r1``, ``states``, ``derivs``) only when they are first read, so
numpy is imported by nothing but that read.
"""

from importlib import import_module as _import_module

from .equivalence import (
    Branch,
    EquivalenceReport,
    ple_preimage_dimensions,
    ple_to_pme,
    pme_branch_dimensions,
    pme_to_ple,
    self_map,
    verify_equivalence,
)
from .errors import (
    AnchorMismatchError,
    ComparisonError,
    CriticalError,
    DegenerateError,
    DimensionTwoError,
    DomainError,
    IntegrationFailure,
    OrientationError,
    OutsideSupportError,
    SingularEvaluationError,
    SsflowError,
    TruncationWarning,
    UnphysicalDimensionError,
)
from .params import (
    CriticalExponents,
    PLEParams,
    PMEParams,
    SimilarityType,
    UnifiedCoefficients,
    alpha_from,
    critical_exponents,
    unified_coefficients,
)

_LAZY = {
    "integrator": ("IntegrationSettings", "StopEvent", "compare_trajectories", "integrate"),
    "phase_plane": (
        "NativeStatePLE",
        "NativeStatePME",
        "PhaseState",
        "ProfileSample",
        "Trajectory",
        "line_betas_ple",
        "line_betas_pme",
        "line_condition_value",
        "ple_native_system_xy",
        "ple_to_unified",
        "ple_trajectory_to_unified",
        "pme_native_system",
        "pme_to_unified",
        "pme_trajectory_to_unified",
        "profile_to_state",
        "reconstruct_profile",
        "state_to_profile",
        "straight_line",
        "unified_system",
        "unified_to_ple",
        "unified_to_pme",
        "yamabe_curve",
    ),
    "solutions": (
        "ClosedFormProfile",
        "barenblatt_ple",
        "barenblatt_pme",
        "dipole_derivative_ple",
        "dipole_pme",
        "loewner_nirenberg_pme",
        "mass_integral",
        "max_residual",
        "ple_residual",
        "pme_residual",
        "selfsimilar_value",
        "yamabe_ple",
    ),
}
# name -> the module that defines it; a lazy module is its own entry
_HOME = {name: module for module, names in _LAZY.items() for name in (module, *names)}

__all__ = sorted([name for name in globals() if not name.startswith("_")] + list(_HOME))
__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = _import_module(f".{module}", __name__)
    value = loaded if name == module else getattr(loaded, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
