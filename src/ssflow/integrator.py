"""Adaptive embedded Runge-Kutta integrator for 2d autonomous systems.

One Dormand-Prince 5(4) pair with the standard step-size controller drives
every trajectory computation in the package.  The systems here are polynomial
and non-stiff away from blow-up, so no implicit machinery is needed; a
divergence guard stops orbits that reach the quadratic blow-up instead.

Stopping events are threshold crossings of one state component, located by
bisection on the cubic Hermite interpolant of the accepted step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ComparisonError, DomainError, IntegrationFailure
from .phase_plane import Trajectory

# Orbits whose norm exceeds this are declared divergent (finite-r1 blow-up).
OVERFLOW_GUARD = 1e12

# Dormand-Prince 5(4) tableau; the propagated solution is 5th order and the
# last row is the FSAL stage.
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

_A_NP = tuple(np.asarray(row) for row in _A)
_E_NP = np.asarray(_E)


@dataclass(frozen=True)
class StopEvent:
    """Stop when ``state[component]`` crosses ``bound``.

    direction +1 triggers on upward crossings, -1 on downward, 0 on either.
    """

    component: int
    bound: float
    direction: int = 0

    def __post_init__(self):
        if self.component not in (0, 1):
            raise DomainError("component must be 0 or 1")
        if self.direction not in (-1, 0, 1):
            raise DomainError("direction must be -1, 0 or +1")


@dataclass(frozen=True)
class IntegrationSettings:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_step: float = math.inf
    max_steps: int = 100_000
    stop_events: tuple[StopEvent, ...] = ()

    def __post_init__(self):
        if not (0.0 < self.rel_tol < math.inf and 0.0 < self.abs_tol < math.inf):
            raise DomainError("tolerances must be positive and finite")
        if not self.max_step > 0.0:  # refuses NaN; the default inf means no cap
            raise DomainError("max_step must be positive")
        if self.max_steps <= 0:
            raise DomainError("max_steps must be positive")


def _hermite(theta, h, y0, f0, y1, f1):
    """Cubic Hermite value on one step, theta in [0, 1]."""
    t2 = theta * theta
    t3 = t2 * theta
    h00 = 2 * t3 - 3 * t2 + 1
    h10 = t3 - 2 * t2 + theta
    h01 = -2 * t3 + 3 * t2
    h11 = t3 - t2
    return h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1


def _locate_event(ev, h, y0, f0, y1, f1):
    """Bisect the Hermite interpolant; returns theta of the crossing or None."""
    g0 = y0[ev.component] - ev.bound
    g1 = y1[ev.component] - ev.bound
    if g0 == 0.0 or g0 * g1 > 0.0:
        return None
    rising = g1 > g0
    if ev.direction == 1 and not rising:
        return None
    if ev.direction == -1 and rising:
        return None
    lo, hi = 0.0, 1.0
    glo = g0
    # Bisection to 1e-12 in the independent variable.
    while (hi - lo) * abs(h) > 1e-12:
        mid = 0.5 * (lo + hi)
        gm = _hermite(mid, h, y0, f0, y1, f1)[ev.component] - ev.bound
        if gm == 0.0:
            return mid
        if (gm > 0.0) == (glo > 0.0):
            lo, glo = mid, gm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def integrate(rhs, y0, span, settings: IntegrationSettings | None = None) -> Trajectory:
    """Integrate ``dy/dr = rhs(y)`` over ``span`` with adaptive step control.

    ``rhs`` takes the state as a length-2 array and returns the derivative as
    any pair (tuple, list or array).  It is called once at the start, six
    times per attempted step and once at a stop event, so counting its calls
    counts the attempts.  The trajectory records every accepted step together
    with the right-hand side there.  Termination: the end of the span (status
    "completed"), a stop event ("event"), the step budget ("truncated"), or
    the divergence guard ("diverged").  Non-finite values from ``rhs`` that
    persist as the step shrinks raise IntegrationFailure carrying the partial
    trajectory.
    """
    settings = settings or IntegrationSettings()
    r0, r_end = float(span[0]), float(span[1])
    if not (math.isfinite(r0) and math.isfinite(r_end)):
        raise DomainError(f"span must be finite, got ({r0}, {r_end})")
    if r0 == r_end:
        raise DomainError("span must be non-degenerate")
    direction = 1.0 if r_end > r0 else -1.0
    rel_tol, abs_tol, max_step = settings.rel_tol, settings.abs_tol, settings.max_step

    y = np.array(y0, dtype=float).reshape(2)
    f = np.array(rhs(y), dtype=float).reshape(2)
    if not (math.isfinite(f[0]) and math.isfinite(f[1])):
        raise DomainError(f"rhs is not finite at the initial state {y}")

    # Every state and derivative appended below is a fresh array, never a view of k.
    rs, ys, fs = [r0], [y], [f]
    meta = {"settings": settings}

    def _result(status):
        return Trajectory(np.array(rs), np.array(ys), np.array(fs), status=status, meta=meta)

    h = direction * min(max_step, abs(r_end - r0) / 100.0, 0.1)
    r = r0
    accepted = 0
    k = np.empty((7, 2))

    # Overflowing stages are rejected below, so numpy need not warn about them.
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            if accepted >= settings.max_steps:
                return _result("truncated")
            remaining = r_end - r
            if direction * remaining <= 0.0:
                return _result("completed")
            if abs(h) > abs(remaining):
                h = remaining
            if abs(h) > max_step:
                h = direction * max_step

            k[0] = f
            err_norm = math.nan  # stays NaN when a stage or the new state is not finite
            for i in range(1, 7):
                y_new = y + h * (k[:i].T @ _A_NP[i])
                a, b = rhs(y_new)
                if not (math.isfinite(a) and math.isfinite(b)):
                    break
                k[i] = a, b
            else:  # the quadrature row equals the last stage point, so y_new is the new state
                u, v = y_new
                if math.isfinite(u) and math.isfinite(v):
                    q0, q1 = h * (k.T @ _E_NP) / (abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new)))
                    err_norm = math.sqrt((q0 * q0 + q1 * q1) / 2)

            if math.isnan(err_norm):  # something was not finite: halve the step
                factor = 0.5
            else:
                factor = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm ** -0.2))
            if not err_norm <= 1.0:
                h *= factor
                if abs(h) < 1e-14 * max(1.0, abs(r)):
                    cause = "rhs produced non-finite values" if math.isnan(err_norm) else "step size underflow"
                    raise IntegrationFailure(f"{cause} near r = {r}", partial=_result("truncated"))
                continue

            # Accepted.  FSAL: the last stage is f at (r + h, y_new); the copy
            # keeps it, as the next attempt overwrites k.
            f_new = k[6].copy()
            # Events first: an interior crossing replaces the endpoint.
            hit = None
            for ev in settings.stop_events:
                theta = _locate_event(ev, h, y, f, y_new, f_new)
                if theta is not None and (hit is None or theta < hit[0]):
                    hit = (theta, ev)
            if hit is not None:
                theta, ev = hit
                y_ev = _hermite(theta, h, y, f, y_new, f_new)
                rs.append(r + theta * h)
                ys.append(y_ev)
                fs.append(np.array(rhs(y_ev), dtype=float))
                meta["event"] = ev
                return _result("event")

            r += h
            y, f = y_new, f_new
            rs.append(r)
            ys.append(y)
            fs.append(f)
            accepted += 1
            if math.hypot(u, v) > OVERFLOW_GUARD:
                return _result("diverged")
            h *= factor


def _interp_states(traj: Trajectory, grid: np.ndarray) -> np.ndarray:
    """Cubic Hermite interpolation of a trajectory at points inside its range."""
    order = np.argsort(traj.r1)
    r1, y, f = traj.r1[order], traj.states[order], traj.derivs[order]
    if len(r1) == 1:
        return y
    i0 = np.clip(np.searchsorted(r1, grid, side="right") - 1, 0, len(r1) - 2)
    i1 = i0 + 1
    h = (r1[i1] - r1[i0])[:, None]
    theta = (grid - r1[i0])[:, None] / h
    return _hermite(theta, h, y[i0], f[i0], y[i1], f[i1])


def compare_trajectories(a: Trajectory, b: Trajectory) -> float:
    """Maximum Euclidean deviation between two orbits on their common range.

    Both trajectories are interpolated (cubic Hermite from the stored
    derivatives) onto the union of their grids restricted to the overlap.
    A NaN deviation anywhere makes the result NaN.
    """
    if len(a) == 0 or len(b) == 0:
        raise ComparisonError("cannot compare an empty trajectory")
    lo = max(a.r1.min(), b.r1.min())
    hi = min(a.r1.max(), b.r1.max())
    if lo > hi:
        raise ComparisonError(f"trajectory ranges do not overlap: [{lo}, {hi}] is empty")
    grid = np.union1d(a.r1, b.r1)
    grid = grid[(grid >= lo) & (grid <= hi)]
    d = _interp_states(a, grid) - _interp_states(b, grid)
    return float(np.max(np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])))
