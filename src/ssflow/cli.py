"""Command-line frontend: parameter maps, coefficients, trajectories, profiles.

Subcommands
-----------
map        dimension-change maps with the full identity report (JSON)
coeffs     unified coefficients of one parameter set (JSON)
integrate  unified-plane trajectory as CSV (columns r1,psi,phi)
profile    reconstructed radial profile as CSV (columns eta,f,fprime)
explicit   closed-form profile samples as CSV plus a JSON residual footer
verify     the whole invariant suite on the default grid (JSON summary)

Exit codes: 0 success, 1 usage or parameter error, 2 verification failure.
CSV is UTF-8 with LF endings and 17 significant digits, so reparsing
reproduces the in-memory doubles bit for bit.  ``SSFLOW_TOL`` overrides the
identity tolerance used by ``verify`` and ``map``; it must satisfy 0 <= tol < inf.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

from .equivalence import DEFAULT_IDENTITY_TOL, Branch, ple_to_pme, pme_to_ple, verify_equivalence
from .errors import DomainError, IntegrationFailure, SsflowError
from .params import (
    DEFAULT_CRITICAL_TOL,
    PLEParams,
    PMEParams,
    SimilarityType,
    alpha_from,
    unified_coefficients,
)

# No command imports numpy: `map` and `coeffs` run on the scalar modules above,
# and the others import `integrator`, `phase_plane`, `solutions` or `verify`
# inside the command, all of which run on Python floats.  numpy loads only when
# a caller reads a Trajectory's arrays (`r1`, `states`, `derivs`).

_EXIT_CODES = {"ok": 0, "error": 1, "fail": 2}

# Named trajectories with frozen parameters, used for golden-file regression:
# (params, (psi0, phi0), span); phi0 = "line" starts on the invariant straight line.
PRESETS = {
    "barenblatt-line": (PMEParams(2.0, 1.0, 1.0 / 3.0), (0.01, "line"), (0.0, 5.0)),
    "yamabe-vertex": (PMEParams(1.0 / 3.0, 4.0, 0.0, SimilarityType.TYPE_II), (2.0, 0.0), (0.0, 6.0)),
}


# A leading "-" and then anything float() reads (1e-3, .5, 1_000, inf, nan):
# argparse's own pattern knows only -1 and -1.5 and takes the rest for flags.
_DIGITS = r"\d(?:_?\d)*"
_NEGATIVE_NUMBER = re.compile(
    rf"^-(?:(?:{_DIGITS}(?:\.(?:{_DIGITS})?)?|\.{_DIGITS})(?:e[-+]?{_DIGITS})?|inf(?:inity)?|nan)$",
    re.IGNORECASE,
)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 1 with JSON."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        raise SystemExit(_emit_error("usage", message, stream=sys.stderr))


def _write(text: str, out: str | None, stream=None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        (stream or sys.stdout).write(text)


def _emit_error(kind: str, message: str, stream=None) -> int:
    return _json_out({"status": "error", "error": {"type": kind, "message": message}}, None, stream)


def _json_out(payload: dict, out: str | None, stream=None) -> int:
    """Write a JSON report; returns the exit code of its status."""
    _write(json.dumps(payload, indent=2) + "\n", out, stream)
    return _EXIT_CODES[payload["status"]]


def _csv_out(header: tuple[str, ...], rows, out: str | None) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(f"{v:.17g}" for v in row) for row in rows)
    _write("\n".join(lines) + "\n", out)


def _default_tol() -> float:
    raw = os.environ.get("SSFLOW_TOL", "")
    try:
        tol = float(raw) if raw else DEFAULT_IDENTITY_TOL
    except ValueError:
        raise SsflowError(f"SSFLOW_TOL is not a number: {raw!r}")
    if not 0.0 <= tol < math.inf:  # refuses NaN, which fails every check, and inf, which passes them all
        raise DomainError(f"SSFLOW_TOL must be non-negative and finite, got {raw!r}")
    return tol


def _params_from_args(args) -> PMEParams | PLEParams:
    if args.n is None or args.beta is None:
        raise SsflowError("--n and --beta are required")
    st = SimilarityType(args.sim_type)
    if args.eq == "pme":
        if args.m is None:
            raise SsflowError("--m is required for --eq pme")
        return PMEParams(args.m, args.n, args.beta, st)
    if args.p is None:
        raise SsflowError("--p is required for --eq ple")
    return PLEParams(args.p, args.n, args.beta, st)


def _params_dict(params) -> dict:
    d = {"n": params.n, "beta": params.beta, "sim_type": params.sim_type.value,
         "alpha": alpha_from(params)}
    if isinstance(params, PMEParams):
        d["eq"] = "pme"
        d["m"] = params.m
    else:
        d["eq"] = "ple"
        d["p"] = params.p
    return d


def _report_checks(rep) -> list[dict]:
    return [
        {"name": "coeff_match", "pass": rep.c_match, "max_dev": rep.c_max_rel_dev, "tol": rep.tol},
        {"name": "beta_identity", "pass": rep.beta_identity, "max_dev": rep.beta_dev, "tol": rep.tol},
        {"name": "b_ratio", "pass": rep.b_ratio, "max_dev": rep.b_ratio_dev, "tol": rep.tol},
        {"name": "sign_match", "pass": rep.sign_match, "max_dev": 0.0 if rep.sign_match else 1.0, "tol": rep.tol},
    ]


def cmd_map(args) -> int:
    params = _params_from_args(args)
    tol = _default_tol()
    branches = {"1": [Branch.BRANCH1], "2": [Branch.BRANCH2],
                "both": [Branch.BRANCH1, Branch.BRANCH2]}[args.branch]
    is_pme = isinstance(params, PMEParams)
    targets = []
    checks = []
    errors = []
    for branch in branches:
        try:
            image = pme_to_ple(params, branch) if is_pme else ple_to_pme(params, branch)
            rep = verify_equivalence(params, image, tol) if is_pme else verify_equivalence(image, params, tol)
            entry = _params_dict(image)  # refuses an image whose alpha overflows
        except SsflowError as exc:
            errors.append({"branch": branch.value, "type": type(exc).__name__, "message": str(exc)})
            continue
        entry["branch"] = branch.value
        entry["orientation_flipped"] = rep.flipped
        targets.append(entry)
        for c in _report_checks(rep):
            c["name"] = f"branch{branch.value}_{c['name']}"
            checks.append(c)
    if not targets:
        error = {"type": errors[0]["type"], "message": json.dumps(errors), "branches": errors}
        return _json_out({"status": "error", "error": error}, None)
    payload = {
        "status": "ok" if all(c["pass"] for c in checks) else "fail",
        "params": _params_dict(params),
        "targets": targets,
        "checks": checks,
    }
    if errors:
        payload["branch_errors"] = errors
    return _json_out(payload, args.out)


def cmd_coeffs(args) -> int:
    params = _params_from_args(args)
    c = unified_coefficients(params, critical_tol=args.critical_tol)
    payload = {
        "status": "ok",
        "params": _params_dict(params),
        "checks": [],
        "coefficients": {
            "c1": c.c1,
            "c2": c.c2,
            "c3": c.c3,
            "sqrt_abs_b": c.sqrt_abs_b,
            "b": c.b,
            "const_term": c.const_term,
            "psi_coeff": c.psi_coeff,
            "critical": c.critical,
        },
    }
    return _json_out(payload, args.out)


def _integrate_from_args(args):
    from .integrator import IntegrationSettings, integrate
    from .phase_plane import straight_line, unified_system

    if args.preset:
        params, (psi0, phi0), span = PRESETS[args.preset]
    else:
        params, psi0, phi0, span = _params_from_args(args), args.psi0, args.phi0, tuple(args.span)
    coeffs = unified_coefficients(params)
    if phi0 == "line":
        a1, a2 = straight_line(coeffs)
        phi0 = a1 * psi0 + a2
    elif psi0 is None or phi0 is None:
        raise SsflowError("--psi0 and --phi0 are required without --preset")
    settings = IntegrationSettings(
        rel_tol=args.rel_tol, abs_tol=args.abs_tol, max_step=args.max_step, max_steps=args.max_steps
    )
    return params, coeffs, integrate(unified_system(coeffs), (psi0, phi0), span, settings)


def cmd_integrate(args) -> int:
    _, _, traj = _integrate_from_args(args)
    _csv_out(("r1", "psi", "phi"), ((r, psi, phi) for r, (psi, phi) in zip(traj.grid, traj.points)), args.out)
    return 0


def cmd_profile(args) -> int:
    from .phase_plane import reconstruct_profile, state_to_profile

    params, coeffs, traj = _integrate_from_args(args)
    anchor = state_to_profile(traj.points[0], args.anchor_eta, params, coeffs)
    samples = reconstruct_profile(traj, params, anchor)
    _csv_out(("eta", "f", "fprime"), ((s.eta, s.f, s.fprime) for s in samples), args.out)
    return 0


# kind -> (builder in ``solutions``, exponent flag, constant flag)
_EXPLICIT_BUILDERS = {
    "barenblatt-pme": ("barenblatt_pme", "m", "C"),
    "barenblatt-ple": ("barenblatt_ple", "p", "C"),
    "dipole-pme": ("dipole_pme", "m", "K"),
    "dipole-derivative-ple": ("dipole_derivative_ple", "p", "c"),
    "loewner-nirenberg-pme": ("loewner_nirenberg_pme", None, "k1"),
    "yamabe-ple": ("yamabe_ple", None, "k2"),
}


def cmd_explicit(args) -> int:
    from . import solutions
    from ._records import _Agg

    name, exponent_flag, const_flag = _EXPLICIT_BUILDERS[args.kind]
    builder = getattr(solutions, name)
    const = getattr(args, const_flag)
    if exponent_flag is None:
        profile = builder(args.n, const)
    else:
        exponent = getattr(args, exponent_flag)
        if exponent is None:
            raise SsflowError(f"--{exponent_flag} is required for kind {args.kind}")
        profile = builder(exponent, args.n, const)
    etas = profile.interior_points(args.points)
    rows = [(s.eta, s.f, s.fprime) for s in profile.sample(etas)]
    agg = _Agg(1e-8)
    agg.add(solutions.max_residual(profile, args.points))  # before any row: a failing residual is all of stdout
    check = agg.result("max_residual")
    _csv_out(("eta", "f", "fprime"), rows, args.out)
    footer = {
        "status": "ok" if check.passed else "fail",
        "params": _params_dict(profile.params),
        "checks": [check.as_dict()],
        "kind": args.kind,
        "constants": profile.constants,
        "support": [profile.support[0], None if math.isinf(profile.support[1]) else profile.support[1]],
    }
    return _json_out(footer, args.out and args.out + ".footer.json", sys.stderr)


def cmd_verify(args) -> int:
    from .verify import run_default_verification

    report = run_default_verification(tol_identities=_default_tol())
    return _json_out(report, args.out)


def _add_param_flags(sub):
    sub.add_argument("--eq", choices=("pme", "ple"), default="pme")
    sub.add_argument("--m", type=float, default=None, help="porous-medium exponent (pme)")
    sub.add_argument("--p", type=float, default=None, help="p-Laplacian exponent (ple)")
    sub.add_argument("--n", type=float, default=None, help="space dimension (any positive real)")
    sub.add_argument("--beta", type=float, default=None, help="similarity exponent beta")
    sub.add_argument("--sim-type", type=int, choices=(1, 2, 3), default=1, dest="sim_type")


def _add_integration_flags(sub):
    sub.add_argument("--psi0", type=float, default=None)
    sub.add_argument("--phi0", type=float, default=None)
    sub.add_argument("--span", type=float, nargs=2, default=(0.0, 5.0), metavar=("R0", "R1"))
    sub.add_argument("--rel-tol", type=float, default=1e-10, dest="rel_tol")
    sub.add_argument("--abs-tol", type=float, default=1e-13, dest="abs_tol")
    sub.add_argument("--max-step", type=float, default=math.inf, dest="max_step")
    sub.add_argument("--max-steps", type=int, default=100_000, dest="max_steps")
    sub.add_argument("--preset", choices=sorted(PRESETS), default=None,
                     help="named trajectory; overrides parameters and initial state")


def build_parser() -> _Parser:
    parser = _Parser(prog="ssflow", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("map", help="dimension-change maps with identity checks")
    _add_param_flags(s)
    s.add_argument("--branch", choices=("1", "2", "both"), default="both")
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_map)

    s = subs.add_parser("coeffs", help="unified phase-plane coefficients")
    _add_param_flags(s)
    s.add_argument("--critical-tol", type=float, default=DEFAULT_CRITICAL_TOL, dest="critical_tol")
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_coeffs)

    s = subs.add_parser("integrate", help="integrate the unified system; CSV r1,psi,phi")
    _add_param_flags(s)
    _add_integration_flags(s)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_integrate)

    s = subs.add_parser("profile", help="reconstruct a radial profile; CSV eta,f,fprime")
    _add_param_flags(s)
    _add_integration_flags(s)
    s.add_argument("--anchor-eta", type=float, default=1.0, dest="anchor_eta")
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_profile)

    s = subs.add_parser("explicit", help="closed-form profile samples; CSV plus residual footer")
    s.add_argument("--kind", choices=sorted(_EXPLICIT_BUILDERS), required=True)
    s.add_argument("--m", type=float, default=None)
    s.add_argument("--p", type=float, default=None)
    s.add_argument("--n", type=float, required=True)
    s.add_argument("--C", type=float, default=1.0)
    s.add_argument("--K", type=float, default=1.0)
    s.add_argument("--c", type=float, default=1.0)
    s.add_argument("--k1", type=float, default=1.0)
    s.add_argument("--k2", type=float, default=1.0)
    s.add_argument("--points", type=int, default=50)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_explicit)

    s = subs.add_parser("verify", help="run the full invariant suite")
    s.add_argument("--grid", choices=("default",), default="default")
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (SsflowError, IntegrationFailure, OverflowError) as exc:
        return _emit_error(type(exc).__name__, str(exc))
    except OSError as exc:
        return _emit_error("io", str(exc))


if __name__ == "__main__":
    sys.exit(main())
