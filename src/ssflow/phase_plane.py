"""Phase-plane systems, variable transforms, and trajectory-level constructions.

Four autonomous systems live here: the native porous-medium plane
(X, Y) = (eta f'/f, eta^2 f^(1-m)), the two native p-Laplacian planes
(X, Z) and (X, Y), and the unified quadratic plane (Psi, Phi) that both
equations share.  The transforms in and out of the unified plane are exact
conjugacies once the independent variable is rescaled to r1 = sqrt|b| * r
with r = log(eta).

Also here: reconstruction of radial profiles from unified trajectories,
the invariant straight lines of the Type I flow with sgn(b) = +1, the two
beta values that produce them, and the exact parabola-shaped trajectory of
the Yamabe case.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._records import ProfileSample, _check_eta
from .errors import (
    AnchorMismatchError,
    CriticalError,
    DegenerateError,
    DomainError,
    OrientationError,
    OutsideSupportError,
    SingularEvaluationError,
    SsflowError,
    TruncationWarning,
)
from .params import (
    PLEParams,
    PMEParams,
    UnifiedCoefficients,
    alpha_from,
    unified_coefficients,
)


@dataclass(frozen=True)
class PhaseState:
    """A point of the unified plane."""

    psi: float
    phi: float

    def as_tuple(self) -> tuple[float, float]:
        return (self.psi, self.phi)


@dataclass(frozen=True)
class NativeStatePME:
    """Native porous-medium variables X = eta f'/f, Y = eta^2 f^(1-m)."""

    x: float
    y: float


@dataclass(frozen=True)
class NativeStatePLE:
    """Native p-Laplacian variables.

    X = -eta^2 |f'|^(1-p) f',  Z = eta^gamma f,  and the derived
    Y = |X|^(1/(p-2)) X Z = -eta |f'|^(-p) f' f.
    """

    x: float
    z: float
    y: float

    @classmethod
    def from_xz(cls, x: float, z: float, params: PLEParams) -> "NativeStatePLE":
        p = params.p
        y = _signed_pow(x, 1.0 / (p - 2.0) + 1.0) * z if x != 0.0 else 0.0
        return cls(x, z, y)

    @classmethod
    def from_xy(cls, x: float, y: float, params: PLEParams) -> "NativeStatePLE":
        if x == 0.0:
            raise SingularEvaluationError("Z is undefined at X = 0")
        p = params.p
        z = y * _sign_f(x) / abs(x) ** ((p - 1.0) / (p - 2.0))
        return cls(x, z, y)


@dataclass(frozen=True)
class Trajectory:
    """An integrated orbit: strictly monotone independent variable, 2d states.

    ``derivs`` stores the right-hand side at each node (used for cubic Hermite
    interpolation); ``status`` is one of completed / event / diverged /
    truncated; ``meta`` holds the integrator's ``settings``, ``accepted``, ``rejected``,
    ``rhs_evals`` and fired stop ``event`` (mapped orbits add ``system``, ``mapped_from``).
    """

    r1: np.ndarray
    states: np.ndarray
    derivs: np.ndarray
    status: str = "completed"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        r1 = np.asarray(self.r1, dtype=float)
        states = np.asarray(self.states, dtype=float).reshape(-1, 2)
        derivs = np.asarray(self.derivs, dtype=float).reshape(-1, 2)
        object.__setattr__(self, "r1", r1)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "derivs", derivs)
        if not (len(r1) == len(states) == len(derivs)):
            raise SsflowError("trajectory arrays must have equal length")
        if len(r1) and not (np.isfinite(r1).all() and np.isfinite(states).all()):
            raise SsflowError("trajectory grid and states must be finite")
        if len(r1) > 1:
            d = np.diff(r1)
            if not (np.all(d > 0.0) or np.all(d < 0.0)):
                raise SsflowError("trajectory grid must be strictly monotone")

    def __len__(self) -> int:
        return len(self.r1)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def phase_states(self) -> list[PhaseState]:
        return [PhaseState(float(s[0]), float(s[1])) for s in self.states]


def _pair(state) -> tuple[float, float]:
    if isinstance(state, PhaseState):
        return state.psi, state.phi
    if isinstance(state, NativeStatePME):
        return state.x, state.y
    a, b = state
    return float(a), float(b)


def _sign_f(x: float) -> float:
    return 1.0 if x > 0.0 else (-1.0 if x < 0.0 else 0.0)


def _signed_pow(x: float, e: float) -> float:
    """sign(x) |x|^e, the odd extension of the power; 0 stays 0 for e > 0."""
    if x == 0.0:
        if e > 0.0:
            return 0.0
        raise SingularEvaluationError(f"|0| to the non-positive power {e}")
    return _sign_f(x) * abs(x) ** e


# ----------------------------------------------------------------------
# Right-hand sides (derivatives w.r.t. r = log eta, except the unified
# system which runs in r1 = sqrt|b| * r).
# ----------------------------------------------------------------------


def pme_native_system(params: PMEParams):
    """Right-hand side for the integrator on native (X, Y); the constants are bound once."""
    two_minus_n, m, one_minus_m, beta = 2.0 - params.n, params.m, 1.0 - params.m, params.beta
    alpha = alpha_from(params)

    def rhs(state) -> tuple[float, float]:
        x, y = state
        return two_minus_n * x - m * x * x - (alpha + beta * x) * y, (2.0 + one_minus_m * x) * y

    return rhs


def pme_native_rhs(state, params: PMEParams) -> tuple[float, float]:
    """dX = (2-n)X - mX^2 - (alpha + beta X)Y,  dY = (2 + (1-m)X)Y."""
    return pme_native_system(params)(_pair(state))


def ple_native_rhs_xz(state, params: PLEParams) -> tuple[float, float]:
    """Native (X, Z) flow; not quadratic because of the fractional powers.

    dX = ((2-p)/(p-1)) (-(n-gamma)X + alpha Z |X|^((3-2p)/(2-p)) - beta|X|X)
    dZ = gamma Z - |X|^((p-1)/(2-p)) X

    Policy at X = 0: |0|^0 := 1 when the first exponent vanishes (p = 3/2);
    any |0| to a negative power raises.
    """
    x, z = _pair(state)
    p, n, beta = params.p, params.n, params.beta
    alpha = alpha_from(params)
    gamma = params.gamma
    e1 = (3.0 - 2.0 * p) / (2.0 - p)
    if x == 0.0:
        if e1 < 0.0:
            raise SingularEvaluationError(f"|0|^{e1}: X = 0 is singular for this p")
        pow1 = 1.0 if e1 == 0.0 else 0.0
    else:
        pow1 = abs(x) ** e1
    # |X|^((p-1)/(2-p)) X folded to sign(X)|X|^(1/(2-p)); diverges at 0 for p > 2.
    flux = _signed_pow(x, 1.0 / (2.0 - p))
    dx = ((2.0 - p) / (p - 1.0)) * (-(n - gamma) * x + alpha * z * pow1 - beta * abs(x) * x)
    dz = gamma * z - flux
    return dx, dz


def ple_native_system_xy(params: PLEParams):
    """Right-hand side for the integrator on native p-Laplacian (X, Y); the constants are bound once."""
    p, n, beta = params.p, params.n, params.beta
    k, gamma_minus_n, alpha = (2.0 - p) / (p - 1.0), params.gamma - n, alpha_from(params)

    def rhs(state) -> tuple[float, float]:
        x, y = state
        ax = abs(x)
        return k * x * (gamma_minus_n + alpha * y - beta * ax), -alpha * y * y + n * y + beta * y * ax - ax

    return rhs


def ple_native_rhs_xy(state, params: PLEParams) -> tuple[float, float]:
    """Quadratic native flow (X has a sign through |X|).

    dX = ((2-p)/(p-1)) X (gamma - n + alpha Y - beta|X|)
    dY = -alpha Y^2 + n Y + beta Y |X| - |X|
    """
    return ple_native_system_xy(params)(_pair(state))


def unified_system(coeffs: UnifiedCoefficients):
    """Right-hand side for the integrator: a (Psi, Phi) pair in, the (dPsi, dPhi) pair out."""
    c1, c2, c3 = coeffs.c1, coeffs.c2, coeffs.c3
    e, k = float(coeffs.psi_coeff), float(coeffs.const_term)

    def rhs(y) -> tuple[float, float]:
        psi, phi = y
        return psi * phi, c1 * phi * phi - c2 * psi * phi - c3 * phi + e * psi + k

    return rhs


def unified_rhs(state, coeffs: UnifiedCoefficients) -> tuple[float, float]:
    """dPsi = Psi Phi,  dPhi = c1 Phi^2 - c2 Psi Phi - c3 Phi + e Psi + sgn(b)."""
    return unified_system(coeffs)(_pair(state))


# ----------------------------------------------------------------------
# Transforms between the native and unified planes.  One code path covers
# the critical case too: sqrt_abs_b holds the substituted scale there and
# |b| is replaced by its square throughout.
# ----------------------------------------------------------------------


def _pme_forward(x, y, params: PMEParams, s, linear=False):
    """Phi = (2 + (1-m)X)/sqrt|b|,  Psi = Y/|b| on components; ``linear`` drops the 2."""
    shift = 0.0 if linear else 2.0
    return y / (s * s), (shift + (1.0 - params.m) * x) / s


def _pme_inverse(psi, phi, params: PMEParams, s):
    """X = (Phi sqrt|b| - 2)/(1-m),  Y = |b| Psi on components."""
    return (phi * s - 2.0) / (1.0 - params.m), (s * s) * psi


def _ple_forward(x, y, params: PLEParams, s, linear=False):
    """Psi = a X with a = 1/(|b|(p-1)),  Phi = k (gamma - n + alpha Y - beta X) with
    k = -(p-2)/((p-1) sqrt|b|), on components; ``linear`` drops gamma - n."""
    p = params.p
    shift = 0.0 if linear else params.gamma - params.n
    a = 1.0 / (s * s * (p - 1.0))
    k = -(p - 2.0) / ((p - 1.0) * s)
    return a * x, k * (shift + alpha_from(params) * y - params.beta * x)


def _ple_inverse(psi, phi, params: PLEParams, s):
    """(X, Y) from (Psi, Phi); needs Psi > 0 and alpha != 0 to solve the Phi definition for Y."""
    if psi <= 0.0:
        raise OrientationError(f"the inverse embedding needs Psi > 0, got Psi = {psi}")
    p = params.p
    alpha = alpha_from(params)
    a = 1.0 / (s * s * (p - 1.0))
    x = psi / a
    if alpha == 0.0:
        raise SingularEvaluationError(
            "alpha = 0: Y cannot be recovered from Phi; use the native (X, Z) system"
        )
    return x, (-phi * (p - 1.0) * s / (p - 2.0) - params.gamma + params.n + params.beta * x) / alpha


def _scale(params, coeffs: UnifiedCoefficients | None) -> float:
    return (coeffs if coeffs is not None else unified_coefficients(params)).sqrt_abs_b


def pme_to_unified(state, params: PMEParams, coeffs: UnifiedCoefficients | None = None) -> PhaseState:
    """Phi = (2 + (1-m)X)/sqrt|b|,  Psi = Y/|b|."""
    x, y = _pair(state)
    return PhaseState(*_pme_forward(x, y, params, _scale(params, coeffs)))


def unified_to_pme(state, params: PMEParams, coeffs: UnifiedCoefficients | None = None) -> NativeStatePME:
    """Inverse transform: X = (Phi sqrt|b| - 2)/(1-m),  Y = |b| Psi."""
    psi, phi = _pair(state)
    return NativeStatePME(*_pme_inverse(psi, phi, params, _scale(params, coeffs)))


def ple_to_unified(state, params: PLEParams, coeffs: UnifiedCoefficients | None = None) -> PhaseState:
    """Psi = a X with a = 1/(|b|(p-1));  Phi from the affine combination of X, Y.

    Requires the orientation X > 0 (decreasing profiles).
    """
    if isinstance(state, NativeStatePLE):
        x, y = state.x, state.y
    else:
        x, y = _pair(state)
    if x <= 0.0:
        raise OrientationError(f"the unified embedding needs X > 0, got X = {x}")
    return PhaseState(*_ple_forward(x, y, params, _scale(params, coeffs)))


def unified_to_ple(state, params: PLEParams, coeffs: UnifiedCoefficients | None = None) -> NativeStatePLE:
    """Inverse transform; needs alpha != 0 to solve the Phi definition for Y."""
    psi, phi = _pair(state)
    x, y = _ple_inverse(psi, phi, params, _scale(params, coeffs))
    return NativeStatePLE.from_xy(x, y, params)


def profile_to_state(sample: ProfileSample, params) -> PhaseState:
    """Compose the native variable definitions with the unified embedding."""
    eta, f, fp = sample.eta, sample.f, sample.fprime
    if isinstance(params, PMEParams):
        if f <= 0.0:
            raise OutsideSupportError(f"porous-medium phase variables need f > 0, got f = {f}")
        x = eta * fp / f
        y = eta * eta * f ** (1.0 - params.m)
        return pme_to_unified(NativeStatePME(x, y), params)
    if isinstance(params, PLEParams):
        if fp == 0.0:
            raise SingularEvaluationError("p-Laplacian phase variables need f' != 0")
        p = params.p
        x = -eta * eta * abs(fp) ** (1.0 - p) * fp
        y = -eta * abs(fp) ** (-p) * fp * f
        return ple_to_unified((x, y), params)
    raise TypeError(f"expected PMEParams or PLEParams, got {type(params).__name__}")


def state_to_profile(state, eta: float, params, coeffs: UnifiedCoefficients | None = None) -> ProfileSample:
    """Inverse of ``profile_to_state``: the sample at radius ``eta`` carried by a unified state.

    The phase plane forgets the eta scale, so the caller supplies 0 < eta < inf
    (checked first).  Raises OutsideSupportError (porous medium) or OrientationError
    (p-Laplacian) when Psi is not positive, SingularEvaluationError at p-Laplacian alpha = 0.
    """
    _check_eta(eta)
    psi, phi = _pair(state)
    if isinstance(params, PMEParams):
        x, y = _pme_inverse(psi, phi, params, _scale(params, coeffs))
        if y <= 0.0:
            raise OutsideSupportError(f"Psi = {psi} cannot give f > 0")
        f = (y / (eta * eta)) ** (1.0 / (1.0 - params.m))
        return ProfileSample(float(eta), float(f), float(x * f / eta))
    x, y = _ple_inverse(psi, phi, params, _scale(params, coeffs))
    z = NativeStatePLE.from_xy(x, y, params).z
    fp = -((x / (eta * eta)) ** (1.0 / (2.0 - params.p)))
    return ProfileSample(float(eta), float(z * eta ** (-params.gamma)), float(fp))


# ----------------------------------------------------------------------
# Trajectory-level mappings by the exact chain rule, independent of the
# conjugacy they test: the map on states, its linear part / sqrt|b| on derivs.
# ----------------------------------------------------------------------


def _map_trajectory(traj: Trajectory, params, forward, source: str) -> Trajectory:
    s = unified_coefficients(params).sqrt_abs_b
    states = forward(traj.states[:, 0], traj.states[:, 1], params, s)
    derivs = forward(traj.derivs[:, 0], traj.derivs[:, 1], params, s, linear=True)
    meta = dict(traj.meta)
    meta.update(system="unified", mapped_from=source)
    return Trajectory(s * traj.r1, np.column_stack(states), np.column_stack(derivs) / s,
                      status=traj.status, meta=meta)


def pme_trajectory_to_unified(traj: Trajectory, params: PMEParams) -> Trajectory:
    """Map a native (X, Y) trajectory in r to the unified plane in r1 = sqrt|b| r."""
    return _map_trajectory(traj, params, _pme_forward, "pme_native")


def ple_trajectory_to_unified(traj: Trajectory, params: PLEParams) -> Trajectory:
    """Map a native (X, Y) p-Laplacian trajectory in r to the unified plane."""
    if np.any(traj.states[:, 0] <= 0.0):
        raise OrientationError("the unified embedding needs X > 0 along the whole arc")
    return _map_trajectory(traj, params, _ple_forward, "ple_native_xy")


# ----------------------------------------------------------------------
# Profile reconstruction.
# ----------------------------------------------------------------------


def reconstruct_profile(traj: Trajectory, params, anchor: ProfileSample) -> list[ProfileSample]:
    """Rebuild (eta, f, f') samples from a unified trajectory.

    The phase plane forgets one multiplicative constant (the eta scale), so the
    caller pins it with ``anchor``, which must map onto the first trajectory
    state.  Radii follow eta_i = anchor.eta * exp((r1_i - r1_0)/sqrt|b|).
    States whose Psi is not positive cannot carry a positive profile; the
    output is truncated there with a TruncationWarning.
    """
    if len(traj) == 0:
        return []
    coeffs = unified_coefficients(params)

    state0 = traj.states[0]
    mapped = profile_to_state(anchor, params)
    dist = math.hypot(mapped.psi - state0[0], mapped.phi - state0[1])
    if dist > 1e-8 * max(1.0, float(np.linalg.norm(state0))):
        raise AnchorMismatchError(
            f"anchor maps to ({mapped.psi}, {mapped.phi}), first state is ({state0[0]}, {state0[1]})"
        )

    etas = anchor.eta * np.exp((traj.r1 - traj.r1[0]) / coeffs.sqrt_abs_b)
    stop = len(traj)
    bad = np.flatnonzero(traj.states[:, 0] <= 0.0)
    if len(bad):
        stop = int(bad[0])
        warnings.warn(
            f"reconstruction truncated at eta = {etas[stop]}: Psi = {traj.states[stop, 0]} is not positive",
            TruncationWarning,
            stacklevel=2,
        )
    samples = [
        state_to_profile(st, float(eta), params, coeffs) for eta, st in zip(etas[:stop], traj.states[:stop])
    ]
    samples.sort(key=lambda smp: smp.eta)
    return samples


# ----------------------------------------------------------------------
# Straight lines and the Yamabe trajectory.
# ----------------------------------------------------------------------


def straight_line(coeffs: UnifiedCoefficients, cond_tol: float = 1e-9) -> tuple[float, float] | None:
    """Invariant line Phi = a1 Psi + a2 of the Type I flow with sgn(b) = +1.

    The line exists iff c1 c2^2 - (c1-1) c3 c2 + (c1-1)^2 = 0, and then
    a1 = a2 = c2/(c1-1).  Returns None when the condition fails beyond
    ``cond_tol``.
    """
    if coeffs.critical:
        raise CriticalError("straight-line analysis needs the non-critical system")
    if coeffs.const_term != 1 or coeffs.psi_coeff != 1:
        raise SsflowError("straight-line analysis assumes sgn(b) = +1 and Type I similarity")
    if abs(coeffs.c1 - 1.0) < 1e-14:
        raise DegenerateError("c1 = 1 makes the line coefficients blow up")
    if abs(line_condition_value(coeffs)) > cond_tol:
        return None
    a = coeffs.c2 / (coeffs.c1 - 1.0)
    return (a, a)


def line_condition_value(coeffs: UnifiedCoefficients) -> float:
    """The straight-line condition c1 c2^2 - (c1-1) c3 c2 + (c1-1)^2."""
    return (
        coeffs.c1 * coeffs.c2 **2
        - (coeffs.c1 - 1.0) * coeffs.c3 * coeffs.c2
        + (coeffs.c1 - 1.0) ** 2
    )


def line_betas_pme(m: float, n: float) -> tuple[float | None, float | None]:
    """The two beta values with an invariant line: 1/(n(m-1)+2) and 1/(2m).

    A vanishing denominator means the corresponding root escapes to infinity
    and is reported as None.
    """
    d1 = n * (m - 1.0) + 2.0
    beta1 = None if d1 == 0.0 else 1.0 / d1
    beta2 = None if m == 0.0 else 1.0 / (2.0 * m)
    return beta1, beta2


def line_betas_ple(p: float, n: float) -> tuple[float | None, float | None]:
    """p-Laplacian analogue: 1/(n(p-2)+p) and 1/p."""
    d1 = n * (p - 2.0) + p
    beta1 = None if d1 == 0.0 else 1.0 / d1
    beta2 = None if p == 0.0 else 1.0 / p
    return beta1, beta2


def yamabe_curve(n: float, phi: float) -> float:
    """Exact trajectory Psi = n/(n-2) - n Phi^2/4 of the Yamabe flow (n > 2).

    The Yamabe setting is Type II with beta = 0, where c1 = -(n-2)/4 and
    c2 = c3 = 0: substituting the parabola into dPhi/dPsi =
    (c1 Phi^2 - Psi + 1)/(Psi Phi) closes identically.
    """
    if n <= 2.0:
        raise DomainError(f"the Yamabe trajectory needs n > 2, got n = {n}")
    return n / (n - 2.0) - n * phi * phi / 4.0
