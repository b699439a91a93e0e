"""Phase-plane systems, variable transforms, and trajectory-level constructions.

Three autonomous systems live here: the native porous-medium plane
(X, Y) = (eta f'/f, eta^2 f^(1-m)), the native p-Laplacian plane
(X, Y) = (-eta^2 |f'|^(1-p) f', -eta |f'|^(-p) f' f), and the unified
quadratic plane (Psi, Phi) that both equations share.  Each has one
right-hand side, its bound ``*_system`` factory, and every state is a pair.
The transforms in and out of the unified plane are exact conjugacies once
the independent variable is rescaled to r1 = sqrt|b| * r with r = log(eta).

Also here: reconstruction of radial profiles from unified trajectories,
the invariant straight lines of the Type I flow with sgn(b) = +1 (the two
beta values that produce them are ``params``' ``line_betas_*``), and the
exact parabola-shaped trajectory of the Yamabe case.
"""

from __future__ import annotations

import math
import numbers
import operator
import warnings
from functools import cached_property
from itertools import chain
from typing import NamedTuple

from ._records import ProfileSample, _Record, _check_positive
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
    line_betas_ple,  # the betas of straight_line's lines, importable from here too
    line_betas_pme,
    unified_coefficients,
)


class PhaseState(NamedTuple):
    """A point of the unified plane."""

    psi: float
    phi: float


class NativeStatePME(NamedTuple):
    """Native porous-medium variables X = eta f'/f, Y = eta^2 f^(1-m)."""

    x: float
    y: float


class NativeStatePLE(NamedTuple):
    """Native p-Laplacian variables X = -eta^2 |f'|^(1-p) f', Y = -eta |f'|^(-p) f' f."""

    x: float
    y: float


# These iterate, but over characters or byte codes: never a pair, a row or a grid.
_TEXT = (str, bytes, bytearray, memoryview)


def _is_complex(x) -> bool:
    """Whether ``x`` is a complex number, also one of numpy's, whose float() drops the imaginary part."""
    return x.__class__ is not float and isinstance(x, numbers.Complex) and not isinstance(x, numbers.Real)


def _pair(value) -> tuple[float, float]:
    """``value`` as a (float, float) pair: anything that unpacks into two real numbers.

    A str or bytes-like (as the value or as a component), a complex (Python's or numpy's),
    None or a non-pair raises DomainError.
    """
    try:
        if isinstance(value, _TEXT):
            raise TypeError
        a, b = value
        if _is_complex(a) or _is_complex(b):
            raise TypeError
        math.isfinite(a), math.isfinite(b)  # a TypeError unless both are real numbers
    except (TypeError, ValueError):
        raise DomainError(f"states and slopes are pairs of real numbers, not {value!r}") from None
    return float(a), float(b)


def _pairs(rows) -> tuple:
    """``rows`` as a tuple of ``_pair``s; an ndarray's rows are read as lists of floats."""
    return tuple(map(_pair, rows.tolist() if hasattr(rows, "tolist") else rows))


def _array(values, *shape):
    import numpy as np  # the first numpy import of a process that reads arrays

    array = np.fromiter(values, dtype=float).reshape(shape)
    array.flags.writeable = False  # the floats stay the data; an edited view would silently disagree
    return array


class Trajectory(_Record):
    """An integrated orbit: strictly monotone independent variable, 2d states.

    ``grid`` holds the independent variable as floats, ``points`` the states and
    ``slopes`` the right-hand side at each node (used for cubic Hermite
    interpolation) as (float, float) pairs; the constructor converts every row and
    grid node, numpy arrays' included, by the pair rule (``_pair``), and refuses a str
    or bytes-like grid.  ``integrate`` and the trajectory maps build these floats
    themselves and skip the conversion (``_of_floats``); the equal-length, finite
    grid and states, and strictly monotone grid checks run for every trajectory,
    whatever built it.  ``r1``, ``states`` and ``derivs`` are the same data as
    read-only numpy arrays of shape (N,), (N, 2) and (N, 2), built on first read.
    ``status`` is one of completed / event / diverged / truncated; ``meta`` holds
    the integrator's ``settings``, ``accepted``, ``rejected``, ``rhs_evals`` and
    fired stop ``event`` (mapped orbits add ``system``, ``mapped_from``).
    """

    _fields = ("grid", "points", "slopes", "status", "meta")

    def __init__(self, grid, points, slopes, status: str = "completed", meta: dict | None = None):
        if hasattr(grid, "tolist") and not isinstance(grid, memoryview):  # a memoryview lists its byte codes
            grid = grid.tolist()
        try:
            if isinstance(grid, _TEXT):
                raise TypeError
            grid = tuple(grid)  # zip(grid, grid) of an iterator would pair neighbouring nodes
            grid = tuple(r for r, _ in map(_pair, zip(grid, grid)))  # each node through the pair rule
            points, slopes = _pairs(points), _pairs(slopes)
        except TypeError:
            raise DomainError("a trajectory is a sequence of real numbers and two sequences of pairs") from None
        vars(self).update(grid=grid, points=points, slopes=slopes, status=status, meta={} if meta is None else meta)
        self._check()

    @classmethod
    def _of_floats(cls, grid, points, slopes, status: str, meta: dict) -> Trajectory:
        """A trajectory of its producer's own floats: float nodes and (float, float) tuple rows, kept as given."""
        traj = cls.__new__(cls)
        vars(traj).update(grid=tuple(grid), points=tuple(points), slopes=tuple(slopes), status=status, meta=meta)
        traj._check()
        return traj

    def _check(self) -> None:
        grid, points = self.grid, self.points
        if not (len(grid) == len(points) == len(self.slopes)):
            raise SsflowError("trajectory arrays must have equal length")
        if not all(map(math.isfinite, chain(grid, chain.from_iterable(points)))):
            raise SsflowError("trajectory grid and states must be finite")
        later = grid[1:]
        if later and not (all(map(operator.lt, grid, later)) or all(map(operator.gt, grid, later))):
            raise SsflowError("trajectory grid must be strictly monotone")

    def __len__(self) -> int:
        return len(self.grid)

    @cached_property
    def r1(self):
        return _array(self.grid, -1)

    @cached_property
    def states(self):
        return _array(chain.from_iterable(self.points), -1, 2)

    @cached_property
    def derivs(self):
        return _array(chain.from_iterable(self.slopes), -1, 2)

    @property
    def final_state(self):
        return self.states[-1]


# ----------------------------------------------------------------------
# Right-hand sides (derivatives w.r.t. r = log eta, except the unified
# system which runs in r1 = sqrt|b| * r).
# ----------------------------------------------------------------------


def pme_native_system(params: PMEParams):
    """Right-hand side for the integrator on native (X, Y); the constants are bound once.

    dX = (2-n)X - mX^2 - (alpha + beta X)Y,  dY = (2 + (1-m)X)Y
    """
    two_minus_n, m, one_minus_m, beta = 2.0 - params.n, params.m, 1.0 - params.m, params.beta
    alpha = alpha_from(params)

    def rhs(state) -> tuple[float, float]:
        x, y = state
        return two_minus_n * x - m * x * x - (alpha + beta * x) * y, (2.0 + one_minus_m * x) * y

    return rhs


def ple_native_system_xy(params: PLEParams):
    """Right-hand side for the integrator on native p-Laplacian (X, Y); the constants are bound once.

    Quadratic, with the sign of X carried through |X|:
    dX = ((2-p)/(p-1)) X (gamma - n + alpha Y - beta|X|),  dY = -alpha Y^2 + n Y + beta Y |X| - |X|
    """
    p, n, beta = params.p, params.n, params.beta
    k, gamma_minus_n, alpha = (2.0 - p) / (p - 1.0), params.gamma - n, alpha_from(params)

    def rhs(state) -> tuple[float, float]:
        x, y = state
        ax = abs(x)
        return k * x * (gamma_minus_n + alpha * y - beta * ax), -alpha * y * y + n * y + beta * y * ax - ax

    return rhs


def unified_system(coeffs: UnifiedCoefficients):
    """Right-hand side for the integrator: a (Psi, Phi) pair in, the (dPsi, dPhi) pair out.

    dPsi = Psi Phi,  dPhi = c1 Phi^2 - c2 Psi Phi - c3 Phi + e Psi + sgn(b)
    """
    c1, c2, c3 = coeffs.c1, coeffs.c2, coeffs.c3
    e, k = float(coeffs.psi_coeff), float(coeffs.const_term)

    def rhs(y) -> tuple[float, float]:
        psi, phi = y
        return psi * phi, c1 * phi * phi - c2 * psi * phi - c3 * phi + e * psi + k

    return rhs


# ----------------------------------------------------------------------
# Transforms between the native and unified planes.  One code path covers
# the critical case too: sqrt_abs_b holds the substituted scale there and
# |b| is replaced by its square throughout.
# ----------------------------------------------------------------------


def _pme_forward(params: PMEParams, s, linear=False):
    """The map (X, Y) -> (Psi, Phi) = (Y/|b|, (2 + (1-m)X)/sqrt|b|); ``linear`` drops the 2."""
    s = float(s)
    shift, one_minus_m, abs_b = 0.0 if linear else 2.0, float(1.0 - params.m), s * s

    def forward(x, y):
        return y / abs_b, (shift + one_minus_m * x) / s

    return forward


def _pme_inverse(psi, phi, params: PMEParams, s):
    """X = (Phi sqrt|b| - 2)/(1-m),  Y = |b| Psi on components."""
    return (phi * s - 2.0) / (1.0 - params.m), (s * s) * psi


def _ple_forward(params: PLEParams, s, linear=False):
    """The map (X, Y) -> (Psi, Phi) = (a X, k (gamma - n + alpha Y - beta X)) with
    a = 1/(|b|(p-1)) and k = -(p-2)/((p-1) sqrt|b|); ``linear`` drops gamma - n."""
    p, alpha, beta = params.p, float(alpha_from(params)), float(params.beta)
    shift = 0.0 if linear else float(params.gamma - params.n)
    a = float(_ple_scale(p, s))
    k = float(-(p - 2.0) / ((p - 1.0) * s))

    def forward(x, y):
        return a * x, k * (shift + alpha * y - beta * x)

    return forward


def _ple_scale(p, s):
    """a = 1/(|b|(p-1)) of Psi = a X; DomainError where |b| = s*s underflows to 0.0."""
    try:
        return 1.0 / (s * s * (p - 1.0))
    except ZeroDivisionError:
        raise DomainError(f"|b| (p - 1) underflows to 0 at sqrt|b| = {s}, p = {p}") from None


def _ple_inverse(psi, phi, params: PLEParams, s):
    """(X, Y) from (Psi, Phi); needs X = Psi/a > 0 and alpha != 0 to solve the Phi definition for Y."""
    p = params.p
    alpha = alpha_from(params)
    a = _ple_scale(p, s)
    x = psi / a
    if not x > 0.0:
        raise OrientationError(f"the inverse embedding needs X = Psi/a > 0, got Psi = {psi} with a = {a}")
    if alpha == 0.0:
        raise SingularEvaluationError("alpha = 0: Y cannot be recovered from Phi")
    return x, (-phi * (p - 1.0) * s / (p - 2.0) - params.gamma + params.n + params.beta * x) / alpha


def pme_to_unified(state, params: PMEParams) -> PhaseState:
    """Phi = (2 + (1-m)X)/sqrt|b|,  Psi = Y/|b|."""
    x, y = _pair(state)
    return PhaseState(*_pme_forward(params, unified_coefficients(params).sqrt_abs_b)(x, y))


def unified_to_pme(state, params: PMEParams) -> NativeStatePME:
    """Inverse transform: X = (Phi sqrt|b| - 2)/(1-m),  Y = |b| Psi."""
    psi, phi = _pair(state)
    return NativeStatePME(*_pme_inverse(psi, phi, params, unified_coefficients(params).sqrt_abs_b))


def ple_to_unified(state, params: PLEParams) -> PhaseState:
    """Psi = a X with a = 1/(|b|(p-1));  Phi from the affine combination of X, Y.

    Requires the orientation X > 0 (decreasing profiles).
    """
    x, y = _pair(state)
    if not x > 0.0:
        raise OrientationError(f"the unified embedding needs X > 0, got X = {x}")
    return PhaseState(*_ple_forward(params, unified_coefficients(params).sqrt_abs_b)(x, y))


def unified_to_ple(state, params: PLEParams) -> NativeStatePLE:
    """Inverse transform; needs X > 0 and alpha != 0 to solve the Phi definition for Y."""
    psi, phi = _pair(state)
    return NativeStatePLE(*_ple_inverse(psi, phi, params, unified_coefficients(params).sqrt_abs_b))


def profile_to_state(sample: ProfileSample, params) -> PhaseState:
    """Compose the native variable definitions with the unified embedding."""
    eta, f, fp = sample.eta, sample.f, sample.fprime
    if isinstance(params, PMEParams):
        if f <= 0.0:
            raise OutsideSupportError(f"porous-medium phase variables need f > 0, got f = {f}")
        x = eta * fp / f
        y = eta * eta * f ** (1.0 - params.m)
        return pme_to_unified((x, y), params)
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
    (checked first).  Raises OutsideSupportError (porous medium) when Psi is not
    positive, OrientationError (p-Laplacian) when X = Psi/a is not positive, and
    SingularEvaluationError at p-Laplacian alpha = 0.
    """
    _check_positive("eta", eta)
    psi, phi = _pair(state)
    s = (coeffs if coeffs is not None else unified_coefficients(params)).sqrt_abs_b
    if isinstance(params, PMEParams):
        x, y = _pme_inverse(psi, phi, params, s)
        if y <= 0.0:
            raise OutsideSupportError(f"Psi = {psi} cannot give f > 0")
        f = _eta_scaled_power(y, eta, 1.0 / (1.0 - params.m))
        return ProfileSample(float(eta), float(f), float(x * f / eta))
    x, y = _ple_inverse(psi, phi, params, s)
    p = params.p
    try:
        z = y / x ** ((p - 1.0) / (p - 2.0))  # Z = eta^gamma f; X > 0 here
    except ZeroDivisionError:
        raise DomainError(f"X = {x}: X^((p-1)/(p-2)) underflows to 0") from None
    fp = -_eta_scaled_power(x, eta, 1.0 / (2.0 - p))
    return ProfileSample(float(eta), float(z * eta ** (-params.gamma)), float(fp))


def _eta_scaled_power(v: float, eta: float, k: float) -> float:
    """(v / eta^2)^k for v > 0; DomainError where eta^2 underflows to 0.0, or v / eta^2 does and k < 0."""
    try:
        return (v / (eta * eta)) ** k
    except ZeroDivisionError:
        raise DomainError(f"eta = {eta}: {v}/eta^2 leaves the float range") from None


# ----------------------------------------------------------------------
# Trajectory-level mappings by the exact chain rule, independent of the
# conjugacy they test: the map on states, its linear part / sqrt|b| on derivs.
# ----------------------------------------------------------------------


def _map_trajectory(traj: Trajectory, params, forward, source: str) -> Trajectory:
    s = float(unified_coefficients(params).sqrt_abs_b)
    state_map, slope_map = forward(params, s), forward(params, s, linear=True)
    slopes = []
    for dx, dy in traj.slopes:
        dpsi, dphi = slope_map(dx, dy)
        slopes.append((dpsi / s, dphi / s))
    meta = dict(traj.meta)
    meta.update(system="unified", mapped_from=source)
    return Trajectory._of_floats([s * r for r in traj.grid], [state_map(x, y) for x, y in traj.points], slopes,
                                 traj.status, meta)


def pme_trajectory_to_unified(traj: Trajectory, params: PMEParams) -> Trajectory:
    """Map a native (X, Y) trajectory in r to the unified plane in r1 = sqrt|b| r."""
    return _map_trajectory(traj, params, _pme_forward, "pme_native")


def ple_trajectory_to_unified(traj: Trajectory, params: PLEParams) -> Trajectory:
    """Map a native (X, Y) p-Laplacian trajectory in r to the unified plane."""
    if any(x <= 0.0 for x, _ in traj.points):
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
    The output is truncated with a TruncationWarning at the first state that
    cannot carry a profile, the first one ``state_to_profile`` refuses with
    OutsideSupportError or OrientationError.
    """
    if len(traj) == 0:
        return []
    coeffs = unified_coefficients(params)
    r1, states = traj.grid, traj.points

    psi0, phi0 = states[0]
    mapped = profile_to_state(anchor, params)
    dist = math.hypot(mapped.psi - psi0, mapped.phi - phi0)
    if dist > 1e-8 * max(1.0, math.hypot(psi0, phi0)):
        raise AnchorMismatchError(f"anchor maps to ({mapped.psi}, {mapped.phi}), first state is ({psi0}, {phi0})")

    samples = []
    for r, state in zip(r1, states):
        eta = anchor.eta * math.exp((r - r1[0]) / coeffs.sqrt_abs_b)
        try:
            samples.append(state_to_profile(state, eta, params, coeffs))
        except (OutsideSupportError, OrientationError) as exc:
            warnings.warn(f"reconstruction truncated at eta = {eta}: {exc}", TruncationWarning, stacklevel=2)
            break
    samples.sort(key=lambda smp: smp.eta)
    return samples


# ----------------------------------------------------------------------
# Straight lines and the Yamabe trajectory.
# ----------------------------------------------------------------------


def straight_line(coeffs: UnifiedCoefficients) -> tuple[float, float] | None:
    """Invariant line Phi = a1 Psi + a2 of the Type I flow with sgn(b) = +1.

    The line exists iff c1 c2^2 - (c1-1) c3 c2 + (c1-1)^2 = 0, and then
    a1 = a2 = c2/(c1-1).  Returns None when the condition fails beyond 1e-9.
    """
    if coeffs.critical:
        raise CriticalError("straight-line analysis needs the non-critical system")
    if coeffs.const_term != 1 or coeffs.psi_coeff != 1:
        raise SsflowError("straight-line analysis assumes sgn(b) = +1 and Type I similarity")
    if abs(coeffs.c1 - 1.0) < 1e-14:
        raise DegenerateError("c1 = 1 makes the line coefficients blow up")
    if abs(line_condition_value(coeffs)) > 1e-9:
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


def yamabe_curve(n: float, phi: float) -> float:
    """Exact trajectory Psi = n/(n-2) - n Phi^2/4 of the Yamabe flow (n > 2).

    The Yamabe setting is Type II with beta = 0, where c1 = -(n-2)/4 and
    c2 = c3 = 0: substituting the parabola into dPhi/dPsi =
    (c1 Phi^2 - Psi + 1)/(Psi Phi) closes identically.
    """
    if n <= 2.0:
        raise DomainError(f"the Yamabe trajectory needs n > 2, got n = {n}")
    return n / (n - 2.0) - n * phi * phi / 4.0
