"""Adaptive embedded Runge-Kutta integrator for 2d autonomous systems.

One Dormand-Prince 5(4) pair with the standard step-size controller drives
every trajectory computation in the package.  The systems here are polynomial
and non-stiff away from blow-up, so no implicit machinery is needed; a
divergence guard stops orbits that reach the quadratic blow-up instead.
The step runs on Python floats: its stage and error sums are plain left-to-right
sums, and the accepted nodes go into the ``Trajectory`` as the same float pairs,
so integrating imports no numpy and no trajectory depends on a BLAS.

The ``Trajectory`` keeps those floats as they are: it skips the conversion
pass for them (as it does for the trajectory maps of ``phase_plane``), while
its finite and strictly-monotone checks run on every trajectory it holds.

Stopping events are threshold crossings of one state component, located by
bisection on the cubic Hermite interpolant of the accepted step;
``compare_trajectories`` evaluates the same interpolant of each orbit at the
other orbit's nodes, since at its own nodes an orbit's interpolant is the node.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import chain

from ._records import _Record, _worst
from .errors import ComparisonError, DomainError, IntegrationFailure
from .phase_plane import Trajectory, _pair

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

# The sums of stages 2-7 and the error sum, as (j, a_j) pairs over the stored
# slopes k[j]; zero entries are left out, which changes no sum because each starts
# at +0.0 (a -0.0 start moves stored bytes: test_stage_sums_start_at_positive_zero).
_ROWS = tuple(tuple((j, a) for j, a in enumerate(row) if a != 0.0) for row in _A[1:] + (_E,))


class StopEvent(_Record):
    """Stop when ``state[component]`` crosses ``bound``.

    direction +1 triggers on upward crossings, -1 on downward, 0 on either.
    """

    _fields = ("component", "bound", "direction")

    def __init__(self, component: int, bound: float, direction: int = 0):
        if component not in (0, 1):
            raise DomainError("component must be 0 or 1")
        if direction not in (-1, 0, 1):
            raise DomainError("direction must be -1, 0 or +1")
        vars(self).update(component=component, bound=bound, direction=direction)


class IntegrationSettings(_Record):
    _fields = ("rel_tol", "abs_tol", "max_step", "max_steps", "stop_events")

    def __init__(self, rel_tol: float = 1e-9, abs_tol: float = 1e-12, max_step: float = math.inf,
                 max_steps: int = 100_000, stop_events: tuple[StopEvent, ...] = ()):
        if not (0.0 < rel_tol < math.inf and 0.0 < abs_tol < math.inf):
            raise DomainError("tolerances must be positive and finite")
        if not max_step > 0.0:  # refuses NaN; the default inf means no cap
            raise DomainError("max_step must be positive")
        if max_steps <= 0:
            raise DomainError("max_steps must be positive")
        vars(self).update(rel_tol=rel_tol, abs_tol=abs_tol, max_step=max_step, max_steps=max_steps,
                          stop_events=stop_events)


def _hermite_weights(theta, h):
    """The cubic Hermite weights (h00, h10 h, h01, h11 h) of y0, f0, y1, f1 at theta in [0, 1] of a step h."""
    t2 = theta * theta
    t3 = t2 * theta
    return 2 * t3 - 3 * t2 + 1, (t3 - 2 * t2 + theta) * h, -2 * t3 + 3 * t2, (t3 - t2) * h


def _hermite(theta, h, y0, f0, y1, f1):
    """Cubic Hermite value of one component on one step, theta in [0, 1]."""
    h00, h10, h01, h11 = _hermite_weights(theta, h)
    return h00 * y0 + h10 * f0 + h01 * y1 + h11 * f1


def _locate_event(ev, h, y0, f0, y1, f1):
    """Bisect the Hermite interpolant of the event component; returns theta of the crossing or None."""
    g0 = y0 - ev.bound
    g1 = y1 - ev.bound
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
        gm = _hermite(mid, h, y0, f0, y1, f1) - ev.bound
        if gm == 0.0:
            return mid
        if (gm > 0.0) == (glo > 0.0):
            lo, glo = mid, gm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _finite_pair(value) -> tuple[float, float] | None:
    """``value`` as a pair of finite floats by ``_pair``, or None when it is not one."""
    try:
        a, b = _pair(value)
    except DomainError:
        return None
    return (a, b) if math.isfinite(a) and math.isfinite(b) else None


def integrate(rhs, y0, span, settings: IntegrationSettings | None = None) -> Trajectory:
    """Integrate ``dy/dr = rhs(y)`` over ``span`` with adaptive step control.

    ``rhs`` takes the state as a ``(float, float)`` tuple and returns the
    derivative as any pair (tuple, list or array).  It is called once at the
    start, six times per attempted step (fewer when a stage is not finite)
    and once at a stop event, so counting its calls counts the attempts.  The
    trajectory records every accepted step together with the right-hand side
    there; ``meta`` counts the ``accepted`` and ``rejected`` steps and the
    ``rhs_evals``.  Termination: the end of the span (status "completed"), a
    stop event ("event"), the step budget ("truncated"), or the divergence
    guard ("diverged").  Non-finite values from ``rhs`` that persist as the
    step shrinks raise IntegrationFailure carrying the partial trajectory.  ``y0`` and
    every ``rhs`` value are pairs by the rule of ``phase_plane._pair``: anything that
    unpacks into two real numbers (tuple, list, numpy row, ``PhaseState``), never a str,
    bytes-like, complex or None.  A ``y0`` (before any ``rhs`` call) or ``rhs(y0)`` that is
    not a finite pair raises DomainError, and so does a later ``rhs`` value that is not a pair.
    """
    settings = settings or IntegrationSettings()
    r0, r_end = float(span[0]), float(span[1])
    if not (math.isfinite(r0) and math.isfinite(r_end)):
        raise DomainError(f"span must be finite, got ({r0}, {r_end})")
    if r0 == r_end:
        raise DomainError("span must be non-degenerate")
    direction = 1.0 if r_end > r0 else -1.0
    # floats, so that every stored node is one (the Trajectory keeps them unconverted)
    rel_tol, abs_tol, max_step = float(settings.rel_tol), float(settings.abs_tol), float(settings.max_step)
    max_steps, stop_events = settings.max_steps, settings.stop_events

    start = _finite_pair(y0)
    if start is None:
        raise DomainError(f"y0 must be a finite pair, got {y0!r}")
    value = rhs(start)
    slope = _finite_pair(value)
    if slope is None:
        raise DomainError(f"rhs must give a finite pair at the initial state {start}, got {value!r}")
    (y0, y1), (f0, f1) = start, slope

    rs, ys, fs = [r0], [start], [slope]
    meta = {"settings": settings}
    h = direction * min(max_step, abs(r_end - r0) / 100.0, 0.1)
    r = r0
    accepted = rejected = 0
    evals = 1  # rhs calls so far
    # The slopes of the seven stages, one list per component; k0[0], k1[0] is f at the step start.
    k0, k1 = [f0] + [0.0] * 6, [f1] + [0.0] * 6

    def result(status):
        meta.update(accepted=accepted, rejected=rejected, rhs_evals=evals)
        return Trajectory._of_floats(rs, ys, fs, status, meta)

    while True:
        if accepted >= max_steps:
            return result("truncated")
        remaining = r_end - r
        if direction * remaining <= 0.0:
            return result("completed")
        if abs(h) > abs(remaining):
            h = remaining
        if abs(h) > max_step:
            h = direction * max_step

        err_norm = math.nan  # stays NaN when a stage or the new state is not finite
        # Every sum runs left to right, unfused, as in Hairer's dopri5.f, so the bytes depend
        # only on IEEE double arithmetic and two libm calls: pow (err_norm ** -0.2) and hypot.
        for i, row in enumerate(_ROWS, 1):
            s0 = s1 = 0.0
            for j, a_j in row:
                s0 += a_j * k0[j]
                s1 += a_j * k1[j]
            if i == 7:  # the error sum; the quadrature row was the last stage point, so (u, v) is the new state
                if math.isfinite(u) and math.isfinite(v):
                    q0 = h * s0 / (abs_tol + rel_tol * max(abs(y0), abs(u)))
                    q1 = h * s1 / (abs_tol + rel_tol * max(abs(y1), abs(v)))
                    err_norm = math.sqrt((q0 * q0 + q1 * q1) / 2)
                break
            u = y0 + h * s0
            v = y1 + h * s1
            value = rhs((u, v))
            evals += 1
            try:  # inline, and _pair only for a pair not of floats: this runs six times per step
                a, b = value
                if a.__class__ is not float or b.__class__ is not float:  # ints, numpy scalars, byte codes
                    a, b = _pair(value)
            except (TypeError, ValueError, DomainError):
                raise DomainError(f"rhs must give a pair of real numbers, got {value!r} at {(u, v)}") from None
            if not (math.isfinite(a) and math.isfinite(b)):
                break
            k0[i], k1[i] = a, b

        if math.isnan(err_norm):  # something was not finite: halve the step
            factor = 0.5
        else:
            factor = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm ** -0.2))
        if not err_norm <= 1.0:
            rejected += 1
            h *= factor
            if abs(h) < 1e-14 * max(1.0, abs(r)):
                cause = "rhs produced non-finite values" if math.isnan(err_norm) else "step size underflow"
                raise IntegrationFailure(f"{cause} near r = {r}", partial=result("truncated"))
            continue

        # Accepted.  FSAL: the last stage (a, b), floats as stored in k0[6], k1[6], is f at (r + h, (u, v)).
        accepted += 1
        # Events first: an interior crossing replaces the endpoint.
        hit = None
        for ev in stop_events:
            c = ev.component
            theta = _locate_event(ev, h, (y0, y1)[c], (f0, f1)[c], (u, v)[c], (a, b)[c])
            if theta is not None and (hit is None or theta < hit[0]):
                hit = (theta, ev)
        if hit is not None:
            theta, ev = hit
            y_ev = (_hermite(theta, h, y0, f0, u, a), _hermite(theta, h, y1, f1, v, b))
            slope = _pair(rhs(y_ev))
            evals += 1
            rs.append(r + theta * h)
            ys.append(y_ev)
            fs.append(slope)
            meta["event"] = ev
            return result("event")

        r += h
        y0, y1, f0, f1 = u, v, a, b
        k0[0], k1[0] = a, b
        rs.append(r)
        ys.append((u, v))
        fs.append((a, b))
        if math.hypot(u, v) > OVERFLOW_GUARD:
            return result("diverged")
        h *= factor


def _ascending(traj: Trajectory) -> tuple[tuple, tuple, tuple]:
    """``traj``'s grid, points and slopes, reversed when its grid descends."""
    r, ys, fs = traj.grid, traj.points, traj.slopes
    return (r[::-1], ys[::-1], fs[::-1]) if r[0] > r[-1] else (r, ys, fs)


def _hermite_walk(orbit: tuple[tuple, tuple, tuple], grid) -> list[tuple[float, float]]:
    """Cubic Hermite states of the ascending ``orbit`` (``_ascending``) at the ascending ``grid`` in its range.

    A point g takes the step from the last node at or below g (the final step at the
    last node), so a node of the orbit is the start of its step, with theta = 0.
    """
    r, ys, fs = orbit
    if len(r) == 1:
        return [ys[0]] * len(grid)
    out = []
    last = len(r) - 2
    i, r1 = min(max(bisect_right(r, grid[0]) - 1, 0), last) - 1, -math.inf  # the first point loads its step
    for g in grid:
        while g >= r1 and i < last:
            i += 1
            r0, r1 = r[i], r[i + 1]
            h = r1 - r0
            (y0, z0), (f0, e0), (y1, z1), (f1, e1) = ys[i], fs[i], ys[i + 1], fs[i + 1]
        h00, h10, h01, h11 = _hermite_weights((g - r0) / h, h)
        out.append((h00 * y0 + h10 * f0 + h01 * y1 + h11 * f1, h00 * z0 + h10 * e0 + h01 * z1 + h11 * e1))
    return out


def _node_squares(own, other, lo: float, hi: float):
    """Squared distances from ``own``'s nodes in [lo, hi] to ``other``'s interpolant (ascending orbits).

    At its own node an orbit's interpolant is the node: theta = 0 gives the weights (1, 0, 0, 0),
    and theta = 1 at the last node (0, 0, 1, 0).  Where a slope or a step width is not finite
    the zero weights make 0 * inf or 0 * NaN, so there the orbit's own walk gives its NaN.
    """
    r, ys, fs = own
    i, j = bisect_left(r, lo), bisect_right(r, hi)
    nodes = r[i:j]
    if not nodes:
        return ()
    exact = len(r) == 1 or (math.isfinite(r[-1] - r[0]) and all(map(math.isfinite, chain.from_iterable(fs))))
    values = ys[i:j] if exact else _hermite_walk(own, nodes)
    pairs = zip(values, _hermite_walk(other, nodes))
    return ((u0 - v0) * (u0 - v0) + (u1 - v1) * (u1 - v1) for (u0, u1), (v0, v1) in pairs)


def compare_trajectories(a: Trajectory, b: Trajectory) -> float:
    """Maximum Euclidean deviation between two orbits on their common range.

    Each orbit's nodes in the overlap are compared with the other orbit's
    cubic Hermite interpolant (from the stored derivatives): the same points
    and values as interpolating both onto the union of their grids.
    A NaN deviation anywhere makes the result NaN.
    """
    if len(a) == 0 or len(b) == 0:
        raise ComparisonError("cannot compare an empty trajectory")
    a, b = _ascending(a), _ascending(b)
    lo, hi = max(a[0][0], b[0][0]), min(a[0][-1], b[0][-1])
    if lo > hi:
        raise ComparisonError(f"trajectory ranges do not overlap: [{lo}, {hi}] is empty")
    # sqrt is monotone and keeps NaN, so the root of the worst square is the worst deviation
    return math.sqrt(_worst(chain(_node_squares(a, b, lo, hi), _node_squares(b, a, lo, hi))))
