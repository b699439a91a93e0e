import math

import numpy as np
import pytest
from hypothesis import assume, given, settings as hyp_settings, strategies as st

from ssflow import (
    ComparisonError,
    DomainError,
    IntegrationFailure,
    IntegrationSettings,
    PhaseState,
    PLEParams,
    PMEParams,
    SsflowError,
    StopEvent,
    Trajectory,
    compare_trajectories,
    integrate,
    ple_native_system_xy,
    pme_native_system,
    pme_to_unified,
    pme_trajectory_to_unified,
    ple_trajectory_to_unified,
    ple_to_unified,
    state_to_profile,
    straight_line,
    unified_coefficients,
    unified_system,
    unified_to_ple,
    unified_to_pme,
)
from ssflow.params import UnifiedCoefficients

PME = PMEParams(2.0, 1.0, 1.0 / 3.0)


def _linear_flow(y):
    # phi' = 1, psi' = psi*phi: exactly solvable, psi(0)=0 stays 0
    return np.array([y[0] * y[1], 1.0])


class TestIntegrate:
    def test_decoupled_linear_flow(self):
        coeffs = UnifiedCoefficients(0.0, 0.0, 0.0, 1.0, 1, 0)
        traj = integrate(unified_system(coeffs), (0.0, 0.0), (0.0, 1.0))
        assert traj.status == "completed"
        assert traj.final_state[1] == pytest.approx(1.0, abs=1e-12)
        assert traj.final_state[0] == pytest.approx(0.0, abs=1e-14)

    def test_line_invariance_over_long_span(self):
        coeffs = unified_coefficients(PME)
        a1, a2 = straight_line(coeffs)
        sett = IntegrationSettings(rel_tol=1e-10, abs_tol=1e-13)
        traj = integrate(unified_system(coeffs), (0.01, a1 * 1.01), (0.0, 5.0), sett)
        dev = np.max(np.abs(traj.states[:, 1] - a1 * traj.states[:, 0] - a2))
        assert traj.status == "completed"
        assert dev < 1e-8

    def test_event_stops_at_crossing(self):
        ev = StopEvent(component=0, bound=0.0, direction=-1)
        traj = integrate(
            lambda y: np.array([-1.0, 0.0]),
            (0.5, 0.0),
            (0.0, 2.0),
            IntegrationSettings(stop_events=(ev,)),
        )
        assert traj.status == "event"
        assert traj.r1[-1] == pytest.approx(0.5, abs=1e-10)
        assert traj.final_state[0] == pytest.approx(0.0, abs=1e-10)

    def test_event_direction_filter(self):
        ev = StopEvent(component=0, bound=0.0, direction=+1)
        traj = integrate(
            lambda y: np.array([-1.0, 0.0]),
            (0.5, 0.0),
            (0.0, 2.0),
            IntegrationSettings(stop_events=(ev,)),
        )
        assert traj.status == "completed"

    def test_divergence_guard(self):
        coeffs = unified_coefficients(PME)
        traj = integrate(unified_system(coeffs), (0.5, 3.0), (0.0, 50.0))
        assert traj.status == "diverged"
        assert np.linalg.norm(traj.final_state) > 1e12

    def test_max_steps_truncation(self):
        coeffs = unified_coefficients(PME)
        traj = integrate(
            unified_system(coeffs), (0.01, 0.8), (0.0, 5.0), IntegrationSettings(max_steps=5)
        )
        assert traj.status == "truncated"
        assert len(traj) == 6

    def test_nan_raises_with_partial(self):
        def rhs(y):
            if y[0] > 1.0:
                return np.array([math.nan, math.nan])
            return np.array([1.0, 0.0])

        with pytest.raises(IntegrationFailure) as exc:
            integrate(rhs, (0.0, 0.0), (0.0, 3.0))
        partial = exc.value.partial
        assert len(partial) > 1
        assert partial.r1[-1] <= 1.0 + 1e-6

    def test_rhs_not_finite_at_start(self):
        with pytest.raises(DomainError):
            integrate(lambda y: np.array([math.inf, 0.0]), (0.0, 0.0), (0.0, 1.0))

    def test_degenerate_span(self):
        with pytest.raises(DomainError):
            integrate(_linear_flow, (0.0, 0.0), (1.0, 1.0))

    def test_backward_integration(self):
        coeffs = UnifiedCoefficients(0.0, 0.0, 0.0, 1.0, 1, 0)
        traj = integrate(unified_system(coeffs), (0.0, 1.0), (1.0, 0.0))
        assert traj.status == "completed"
        assert traj.final_state[1] == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.diff(traj.r1) < 0)

    def test_order_of_accuracy(self):
        coeffs = unified_coefficients(PME)
        ref = integrate(
            unified_system(coeffs), (0.01, 0.8), (0.0, 1.0),
            IntegrationSettings(rel_tol=1e-13, abs_tol=1e-15),
        )

        def end_err(h):
            t = integrate(
                unified_system(coeffs), (0.01, 0.8), (0.0, 1.0),
                IntegrationSettings(rel_tol=1.0, abs_tol=1.0, max_step=h),
            )
            return float(np.linalg.norm(t.final_state - ref.final_state))

        assert end_err(0.05) / end_err(0.025) > 4.0

    def test_reversibility(self):
        coeffs = unified_coefficients(PME)
        y0 = np.array([0.01, 0.8])
        fw = integrate(unified_system(coeffs), y0, (0.0, 2.0))
        bw = integrate(unified_system(coeffs), fw.final_state, (2.0, 0.0))
        err = np.linalg.norm(bw.final_state - y0)
        assert err <= 10.0 * (1e-9 * np.linalg.norm(y0) + 1e-12)

    def test_settings_validation(self):
        with pytest.raises(DomainError):
            IntegrationSettings(rel_tol=0.0)
        with pytest.raises(DomainError):
            IntegrationSettings(max_steps=0)
        with pytest.raises(DomainError):
            StopEvent(component=2, bound=0.0)


_GRID = [0.0, 0.25, 0.5, 1.0]
_POINTS = [(0.5, -1.0), (0.75, -0.5), (1.0, 0.0), (2.0, 1.5)]
_SLOPES = [(1.0, 2.0), (1.5, 2.5), (2.0, 3.0), (math.nan, 4.0)]


def _refused_inputs():
    """(grid, points, slopes) that a Trajectory must refuse, each as lists."""
    cases = {
        "short-grid": (_GRID[:3], _POINTS, _SLOPES),
        "short-states": (_GRID, _POINTS[:3], _SLOPES),
        "short-derivs": (_GRID, _POINTS, _SLOPES[:3]),
        "non-monotone": ([0.0, 1.0, 0.5, 2.0], _POINTS, _SLOPES),
        "repeated-node": ([0.0, 0.5, 0.5, 1.0], _POINTS, _SLOPES),
    }
    for bad in (math.nan, math.inf, -math.inf):
        cases[f"grid-{bad}"] = (_GRID[:2] + [bad] + _GRID[3:], _POINTS, _SLOPES)
        cases[f"states-{bad}"] = (_GRID, _POINTS[:1] + [(0.75, bad)] + _POINTS[2:], _SLOPES)
    return cases


class TestTrajectory:
    """Floats are the data; ``r1``, ``states`` and ``derivs`` are read-only arrays of them built on first read."""

    def test_monotonicity_enforced(self):
        with pytest.raises(Exception):
            Trajectory(np.array([0.0, 1.0, 0.5]), np.zeros((3, 2)), np.zeros((3, 2)))

    @pytest.mark.parametrize("direction", [1.0, -1.0])
    def test_lists_and_arrays_give_the_same_trajectory(self, direction):
        grid = [direction * r for r in _GRID]
        from_lists = Trajectory(grid, _POINTS, [list(f) for f in _SLOPES])
        from_arrays = Trajectory(np.array(grid), np.array(_POINTS), np.array(_SLOPES))
        for traj in (from_lists, from_arrays):
            assert traj.grid == tuple(grid)
            assert traj.points == tuple(_POINTS)
            assert traj.slopes[:3] == tuple(_SLOPES[:3]) and math.isnan(traj.slopes[3][0])
            assert {type(v) for v in traj.grid} == {float}
            assert {type(row) for row in traj.points + traj.slopes} == {tuple}
            assert {type(v) for row in traj.points + traj.slopes for v in row} == {float}
        for name, shape in (("r1", (4,)), ("states", (4, 2)), ("derivs", (4, 2))):
            a, b = getattr(from_lists, name), getattr(from_arrays, name)
            assert a.shape == b.shape == shape
            assert a.dtype == b.dtype == np.float64
            assert a.tobytes() == b.tobytes()

    def test_integer_and_numpy_scalar_values_become_floats(self):
        traj = Trajectory([0, np.float32(0.5)], [(1, 2), np.array([3, 4])], [(np.int64(5), 6.0), (7, 8)])
        assert traj.grid == (0.0, 0.5)
        assert traj.points == ((1.0, 2.0), (3.0, 4.0))
        assert {type(v) for row in traj.points + traj.slopes for v in (*row, *traj.grid)} == {float}

    def test_float_pair_rows_are_kept(self):
        points = [(0.5, 1.0), (0.25, 2.0)]
        traj = Trajectory([0.0, 1.0], points, points)
        assert all(kept is given for kept, given in zip(traj.points, points))

    @pytest.mark.parametrize("case", _refused_inputs().values(), ids=_refused_inputs().keys())
    def test_lists_and_arrays_are_refused_alike(self, case):
        grid, points, slopes = case
        for build in (list, np.array):
            with pytest.raises(SsflowError):
                Trajectory(build(grid), build(points), build(slopes))

    def test_rows_that_are_not_pairs_refused(self):
        with pytest.raises(SsflowError, match="pairs"):
            Trajectory([0.0, 1.0], [(0.0, 1.0), (0.0, 1.0, 2.0)], [(0.0, 0.0), (0.0, 0.0)])

    def test_non_finite_derivatives_accepted(self):
        traj = Trajectory(_GRID, _POINTS, [(math.nan, math.inf)] * 4)
        assert np.isnan(traj.derivs[:, 0]).all()

    def test_empty_trajectory(self):
        traj = Trajectory([], [], [])
        assert len(traj) == 0
        assert traj.r1.shape == (0,) and traj.states.shape == traj.derivs.shape == (0, 2)

    def test_arrays_are_built_once_and_read_only(self):
        traj = integrate(_gaussian_flow, (1.0, 0.0), (0.0, 1.0))
        for name in ("r1", "states", "derivs"):
            array = getattr(traj, name)
            assert getattr(traj, name) is array
            with pytest.raises(ValueError):
                array[0] = 1.0
        assert traj.states.tolist() == [list(p) for p in traj.points]
        assert traj.final_state.tolist() == list(traj.points[-1])

    def test_frozen(self):
        traj = Trajectory(_GRID, _POINTS, _SLOPES)
        with pytest.raises(AttributeError):
            traj.grid = (0.0,)


class TestProducersKeepTheChecks:
    """integrate and the trajectory maps skip the conversion pass, never the finite and monotone checks."""

    def test_integrate_refuses_a_grid_that_stops_moving(self):
        # a step of 0.1 leaves r = 1e20 where it was
        with pytest.raises(SsflowError, match="monotone"):
            integrate(lambda y: (1.0, 0.0), (0.0, 0.0), (1e20, 1e20 + 1e6))

    def test_map_refuses_an_overflowing_state(self):
        native = Trajectory([0.0, 1.0], [(1e308, 1.0), (1e308, 1.0)], [(0.0, 0.0), (0.0, 0.0)])
        with pytest.raises(SsflowError, match="finite"):
            pme_trajectory_to_unified(native, PMEParams(-2.0, 1.0, 0.3))

    def test_numpy_scalar_settings_and_params_store_the_same_floats(self):
        scalars = IntegrationSettings(rel_tol=np.float64(1e-9), abs_tol=np.float64(1e-12), max_step=np.float64(0.05))
        floats = IntegrationSettings(rel_tol=1e-9, abs_tol=1e-12, max_step=0.05)
        rhs = ple_native_system_xy(PLEParams(3.0, 1.0, 1.0 / 3.0))
        native = integrate(rhs, (0.2, 0.3), (0.0, 1.0), scalars)
        assert native == integrate(rhs, (0.2, 0.3), (0.0, 1.0), floats)
        for params in (PLEParams(np.float64(3.0), np.float64(1.0), np.float64(1.0 / 3.0)),
                       PLEParams(3.0, 1.0, 1.0 / 3.0)):
            mapped = ple_trajectory_to_unified(native, params)
            for traj in (native, mapped):
                assert {type(v) for row in traj.points + traj.slopes for v in (*row, *traj.grid)} == {float}
        assert mapped == ple_trajectory_to_unified(native, PLEParams(np.float64(3.0), 1.0, np.float64(1.0 / 3.0)))


class TestCompareTrajectories:
    def test_self_comparison_is_zero(self):
        coeffs = unified_coefficients(PME)
        traj = integrate(unified_system(coeffs), (0.01, 0.8), (0.0, 2.0))
        assert compare_trajectories(traj, traj) == 0.0

    def test_perturbed_start_detected(self):
        coeffs = unified_coefficients(PME)
        a = integrate(unified_system(coeffs), (0.01, 0.8), (0.0, 2.0))
        b = integrate(unified_system(coeffs), (0.011, 0.8), (0.0, 2.0))
        assert compare_trajectories(a, b) >= 1e-3

    def test_disjoint_ranges_refused(self):
        a = Trajectory(np.array([0.0, 1.0]), np.zeros((2, 2)), np.zeros((2, 2)))
        b = Trajectory(np.array([2.0, 3.0]), np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ComparisonError):
            compare_trajectories(a, b)

    def test_tolerance_refinement_improves_agreement(self):
        # halving tolerances tracks a tight reference at least ~4x closer
        coeffs = unified_coefficients(PME)
        ref = integrate(
            unified_system(coeffs), (0.05, 0.7), (0.0, 2.0),
            IntegrationSettings(rel_tol=1e-13, abs_tol=1e-16),
        )

        def dev(rtol):
            t = integrate(
                unified_system(coeffs), (0.05, 0.7), (0.0, 2.0),
                IntegrationSettings(rel_tol=rtol, abs_tol=rtol * 1e-3),
            )
            return float(np.linalg.norm(t.final_state - ref.final_state))

        coarse, fine = dev(1e-6), dev(1e-8)
        assert coarse / max(fine, 1e-16) > 4.0

    def test_nan_derivatives_propagate(self):
        # a NaN deviation must stay NaN, so a worst-of check can never pass on it
        from ssflow.verify import _Agg

        r1 = np.linspace(0.0, 1.0, 5)
        states = np.column_stack([r1, r1 * r1])
        derivs = np.column_stack([np.ones(5), np.full(5, np.nan)])
        a = Trajectory(r1, states, derivs)
        b = Trajectory(r1, states + 1e-3, derivs)
        dev = compare_trajectories(a, b)
        assert math.isnan(dev)
        agg = _Agg(1e-6)
        agg.add(dev)
        assert agg.result("conjugacy").passed is False


def _gaussian_flow(y):
    # psi' = psi*phi, phi' = 1 from (1, 0): psi = exp(r^2 / 2) crosses B at r = sqrt(2 ln B)
    return y[0] * y[1], 1.0


class TestFsalDerivative:
    """The derivative carried between steps is f at the accepted state, not a stage-buffer view."""

    def test_event_location_uses_start_slope(self):
        worst = 0.0
        for bound in np.linspace(1.5, 40.0, 60):
            sett = IntegrationSettings(rel_tol=1e-9, abs_tol=1e-12, stop_events=(StopEvent(0, bound, +1),))
            traj = integrate(_gaussian_flow, (1.0, 0.0), (0.0, 5.0), sett)
            assert traj.status == "event"
            worst = max(worst, abs(traj.r1[-1] - math.sqrt(2.0 * math.log(bound))))
        # a start slope equal to the end slope put crossings off by about 1e-3
        assert worst < 1e-6

    def test_stored_derivatives_match_rhs(self):
        coeffs = unified_coefficients(PME)
        rhs = unified_system(coeffs)
        traj = integrate(rhs, (0.5, 3.0), (0.0, 50.0))
        assert traj.status == "diverged"
        for y, f in zip(traj.states, traj.derivs):
            assert tuple(f) == tuple(np.array(rhs(y), dtype=float))


class TestRhsContract:
    @pytest.mark.parametrize("shape", [tuple, list, np.array])
    def test_any_pair_is_accepted(self, shape):
        traj = integrate(lambda y: shape((y[0] * y[1], 1.0)), (1.0, 0.0), (0.0, 1.0))
        assert traj.status == "completed"
        assert traj.final_state[0] == pytest.approx(math.exp(0.5), rel=1e-8)

    @pytest.mark.parametrize(
        "rhs,y0,span,events",
        [
            (unified_system(unified_coefficients(PME)), (0.01, 0.8), (0.0, 5.0), ()),
            (unified_system(unified_coefficients(PME)), (0.5, 3.0), (0.0, 50.0), ()),  # rejects, then diverges
            (_gaussian_flow, (1.0, 0.0), (0.0, 5.0), (StopEvent(0, 20.0, +1),)),
        ],
        ids=["completed", "diverged", "event"],
    )
    def test_one_call_per_stage(self, rhs, y0, span, events):
        evals = 0

        def counted(y):
            nonlocal evals
            evals += 1
            return rhs(y)

        traj = integrate(counted, y0, span, IntegrationSettings(stop_events=events))
        n_events = 1 if traj.status == "event" else 0
        accepted = len(traj) - 1
        assert (evals - 1 - n_events) % 6 == 0
        assert evals - 1 - n_events >= 6 * accepted

    @pytest.mark.parametrize(
        "value",
        [(1.0, 0.0, 5.0), (1.0,), 5.0, None, [[1.0, 0.0]], np.zeros((2, 1))],
        ids=["triple", "single", "scalar", "none", "row", "column"],
    )
    def test_not_a_pair_at_start_refused_before_stepping(self, value):
        calls = 0

        def rhs(y):
            nonlocal calls
            calls += 1
            return value

        with pytest.raises(DomainError):
            integrate(rhs, (0.0, 0.0), (0.0, 1.0))
        assert calls == 1

    @pytest.mark.parametrize(
        "value", [(1.0, 0.0, 5.0), (1.0,), 5.0, None], ids=["triple", "single", "scalar", "none"]
    )
    def test_not_a_pair_at_a_later_stage_refused(self, value):
        # a pair at y0, something else once the state has moved
        with pytest.raises(DomainError, match="pair"):
            integrate(lambda y: (1.0, 0.0) if y[0] < 0.5 else value, (0.0, 0.0), (0.0, 1.0))

    def test_not_a_pair_at_the_event_row_refused(self):
        settings = IntegrationSettings(stop_events=(StopEvent(0, 0.5, +1),))
        calls = 0

        def flow(y):
            nonlocal calls
            calls += 1
            return (1.0, 0.0)

        assert integrate(flow, (0.0, 0.0), (0.0, 1.0), settings).status == "event"
        event_row, calls = calls, 0  # the event row is the last rhs call

        def triple_at_event_row(y):
            nonlocal calls
            calls += 1
            return (1.0, 0.0, 5.0) if calls == event_row else (1.0, 0.0)

        with pytest.raises(DomainError, match="pair"):
            integrate(triple_at_event_row, (0.0, 0.0), (0.0, 1.0), settings)
        assert calls == event_row


class TestStartContract:
    """integrate reads y0 and rhs(y0) as pairs of floats, whatever pair type carries them."""

    @pytest.mark.parametrize("span", [(0.0, 5.0), (0.0, -1.0)])
    def test_y0_forms_give_identical_bytes(self, span):
        rhs = unified_system(unified_coefficients(PME))
        forms = [[0.01, 0.8], (0.01, 0.8), np.array([[0.01, 0.8]])[0], PhaseState(0.01, 0.8),
                 (np.float64(0.01), 0.8)]
        trajs = [integrate(rhs, y0, span) for y0 in forms]
        for traj in trajs:
            assert traj.points[0] == (0.01, 0.8)
            assert traj.status == trajs[0].status
            for name in ("r1", "states", "derivs"):
                assert getattr(traj, name).tobytes() == getattr(trajs[0], name).tobytes()

    @pytest.mark.parametrize(
        "value",
        [(math.inf, 0.0), (1.0, math.nan), (1.0, 2.0, 3.0), [[1.0, 2.0]], "12", None],
        ids=["inf", "nan", "triple", "nested", "str", "none"],
    )
    def test_rhs_at_start_not_a_finite_pair_refused(self, value):
        with pytest.raises(DomainError, match="initial state"):
            integrate(lambda y: value, (0.0, 0.0), (0.0, 1.0))


# Values that are not a pair of real numbers, though some of them unpack into two items.
_NOT_PAIRS = {"str": "12", "bytes": b"12", "str-items": ("1", "2"), "complex": (1j, 0.0), "none": None,
              "single": (1.0,), "bytearray": bytearray(b"12"), "memoryview": memoryview(b"12"),
              "numpy-complex128": (np.complex128(1.0 + 1.0j), 0.0), "numpy-complex64": (0.0, np.complex64(1.0j))}
# numpy reads a buffer as its byte codes: np.array(bytearray(b"12")) is the real pair (49, 50), so the
# tests that build an array of a value leave the bytes-like buffers out.
_ARRAY_NOT_PAIRS = {k: v for k, v in _NOT_PAIRS.items() if not isinstance(v, (bytearray, memoryview))}
_STOP_AT_HALF = IntegrationSettings(stop_events=(StopEvent(0, 0.5, +1),))


def _event_row_call():
    """The number of the rhs call that gives the event row of a unit flow stopped at psi = 0.5."""
    calls = 0

    def flow(y):
        nonlocal calls
        calls += 1
        return (1.0, 0.0)

    assert integrate(flow, (0.0, 0.0), (0.0, 1.0), _STOP_AT_HALF).status == "event"
    return calls


class TestPairRule:
    """One rule for a state pair: whatever unpacks into two real numbers, and nothing else, at every entry point."""

    @pytest.mark.parametrize("value", _NOT_PAIRS.values(), ids=_NOT_PAIRS.keys())
    def test_integrate_y0_refused(self, value):
        with pytest.raises(DomainError):
            integrate(_linear_flow, value, (0.0, 1.0))

    @pytest.mark.parametrize("value", _NOT_PAIRS.values(), ids=_NOT_PAIRS.keys())
    def test_rhs_at_start_refused(self, value):
        with pytest.raises(DomainError, match="initial state"):
            integrate(lambda y: value, (0.0, 0.0), (0.0, 1.0))

    @pytest.mark.parametrize("value", _NOT_PAIRS.values(), ids=_NOT_PAIRS.keys())
    def test_rhs_at_a_later_stage_refused(self, value):
        with pytest.raises(DomainError, match="pair"):
            integrate(lambda y: (1.0, 0.0) if y[0] < 0.5 else value, (0.0, 0.0), (0.0, 1.0))

    @pytest.mark.parametrize("value", _NOT_PAIRS.values(), ids=_NOT_PAIRS.keys())
    def test_rhs_at_the_event_row_refused(self, value):
        event_row, calls = _event_row_call(), 0

        def flow(y):
            nonlocal calls
            calls += 1
            return value if calls == event_row else (1.0, 0.0)

        with pytest.raises(DomainError, match="pair"):
            integrate(flow, (0.0, 0.0), (0.0, 1.0), _STOP_AT_HALF)
        assert calls == event_row

    @pytest.mark.parametrize(
        "build,value",
        [(list, v) for v in _NOT_PAIRS.values()] + [(np.array, v) for v in _ARRAY_NOT_PAIRS.values()],
        ids=[f"list-{k}" for k in _NOT_PAIRS] + [f"array-{k}" for k in _ARRAY_NOT_PAIRS],
    )
    def test_trajectory_rows_refused(self, value, build):
        good = build([(0.0, 1.0), (0.5, 2.0)])
        for points, slopes in ((build([value, value]), good), (good, build([value, value]))):
            with pytest.raises(SsflowError):
                Trajectory([0.0, 1.0], points, slopes)

    @pytest.mark.parametrize(
        "build,value",
        [(lambda v: v, v) for v in _NOT_PAIRS.values()] + [(np.array, v) for v in _ARRAY_NOT_PAIRS.values()],
        ids=[f"as-given-{k}" for k in _NOT_PAIRS] + [f"array-{k}" for k in _ARRAY_NOT_PAIRS],
    )
    def test_trajectory_grid_refused(self, value, build):
        rows = [(0.0, 1.0), (0.5, 2.0)]
        with pytest.raises(SsflowError):
            Trajectory(build(value), rows, rows)

    @pytest.mark.parametrize("value", _NOT_PAIRS.values(), ids=_NOT_PAIRS.keys())
    @pytest.mark.parametrize(
        "transform",
        [
            lambda s: pme_to_unified(s, PME),
            lambda s: unified_to_pme(s, PME),
            lambda s: ple_to_unified(s, PLEParams(3.0, 1.0, 1.0 / 3.0)),
            lambda s: unified_to_ple(s, PLEParams(3.0, 1.0, 1.0 / 3.0)),
            lambda s: state_to_profile(s, 1.0, PME),
        ],
        ids=["pme_to_unified", "unified_to_pme", "ple_to_unified", "unified_to_ple", "state_to_profile"],
    )
    def test_transforms_refuse(self, value, transform):
        with pytest.raises(DomainError):
            transform(value)

    @pytest.mark.parametrize("state", [(2, 1), [0.5, np.float64(0.25)], np.array([0.5, 0.25]), PhaseState(0.5, 0.25)],
                             ids=["ints", "list", "array", "phase-state"])
    def test_real_pairs_accepted(self, state):
        expected = tuple(map(float, state))
        assert tuple(unified_to_pme(state, PME)) == tuple(unified_to_pme(expected, PME))
        assert Trajectory([0, 1], [state, state], [state, state]).points == (expected, expected)
        assert integrate(lambda y: state, state, (0.0, 1.0)).points[0] == expected


class TestNonFiniteInputs:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rel_tol": math.nan},
            {"abs_tol": math.nan},
            {"rel_tol": math.inf},
            {"abs_tol": math.inf},
            {"max_step": math.nan},
        ],
    )
    def test_settings_refused(self, kwargs):
        with pytest.raises(DomainError):
            IntegrationSettings(**kwargs)

    def test_unbounded_max_step_stays_legal(self):
        assert IntegrationSettings(max_step=math.inf).max_step == math.inf

    @pytest.mark.parametrize("span", [(0.0, math.nan), (math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0)])
    def test_non_finite_span_refused(self, span):
        with pytest.raises(DomainError):
            integrate(_linear_flow, (0.0, 0.0), span)

    @pytest.mark.parametrize(
        "y0",
        [(math.inf, 0.0), (0.0, -math.inf), (math.nan, 0.0), (1.0, 2.0, 3.0), (1.0,), (), None, "12", b"12",
         (1j, 0.0)],
        ids=["inf", "-inf", "nan", "triple", "single", "empty", "none", "str", "bytes", "complex"],
    )
    def test_y0_not_a_finite_pair_refused(self, y0):
        def rhs(y):
            raise AssertionError("rhs called before y0 was checked")

        with pytest.raises(DomainError):
            integrate(rhs, y0, (0.0, 1.0))


class TestDop853Oracle:
    """Final states agree with SciPy's DOP853 run at far tighter tolerance.

    Bound: 10 x rel_tol on the final-state deviation relative to max(1, |ref|).
    Over 1,860 seeded orbits of this family the worst ratio was 1.7 (p99 0.84);
    retries that started from a rejected trial's end slope reached 1,596.
    """

    BOUND = 10.0

    @hyp_settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        c=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
        e=st.sampled_from((-1, 0, 1)),
        k=st.sampled_from((-1, 0, 1)),
        y0=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
        r1=st.floats(-1.0, 1.0),
        log_tol=st.floats(-10.0, -6.0),
    )
    def test_final_state_matches_dop853(self, c, e, k, y0, r1, log_tol):
        from scipy.integrate import solve_ivp

        assume(r1 != 0.0)
        rel_tol = 10.0 ** log_tol
        rhs = unified_system(UnifiedCoefficients(c[0], c[1], c[2], 1.0, k, e))
        try:
            traj = integrate(rhs, y0, (0.0, r1), IntegrationSettings(rel_tol=rel_tol, abs_tol=1e-3 * rel_tol))
        except IntegrationFailure:
            assume(False)
        assume(traj.status == "completed" and np.abs(traj.states).max() <= 4.0)
        ref = solve_ivp(lambda r, y: rhs(y), (0.0, r1), y0, method="DOP853", rtol=1e-13, atol=1e-15).y[:, -1]
        dev = np.max(np.abs(traj.final_state - ref)) / max(1.0, np.max(np.abs(ref)))
        assert dev <= self.BOUND * rel_tol


# ----------------------------------------------------------------------
# Reference stepper: an array-based DOPRI5 loop with its own controller.  Its
# stage and error sums are the sequential, unfused sums of Hairer's dopri5.f,
# formed on whole rows of k and over every tableau entry, zeros included, so
# that every output byte can be compared with it.
# ----------------------------------------------------------------------

_REF_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_REF_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def _ref_sum(k, row):
    """row[0] * k[0] + row[1] * k[1] + ..., added left to right onto +0.0, one product at a time."""
    s = np.zeros(2)
    for a, k_j in zip(row, k):
        s = s + a * k_j
    return s


def _ref_hermite(theta, h, y0, f0, y1, f1):
    t2 = theta * theta
    t3 = t2 * theta
    h00 = 2 * t3 - 3 * t2 + 1
    h10 = t3 - 2 * t2 + theta
    h01 = -2 * t3 + 3 * t2
    h11 = t3 - t2
    return h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1


def _ref_locate_event(ev, h, y0, f0, y1, f1):
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
    while (hi - lo) * abs(h) > 1e-12:
        mid = 0.5 * (lo + hi)
        gm = _ref_hermite(mid, h, y0, f0, y1, f1)[ev.component] - ev.bound
        if gm == 0.0:
            return mid
        if (gm > 0.0) == (glo > 0.0):
            lo, glo = mid, gm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _ref_integrate(rhs, y0, span, settings):
    """Returns (r1, states, derivs, status); a failure returns its partial with status "failure"."""
    r0, r_end = float(span[0]), float(span[1])
    direction = 1.0 if r_end > r0 else -1.0
    rel_tol, abs_tol, max_step = settings.rel_tol, settings.abs_tol, settings.max_step
    y = np.array(y0, dtype=float).reshape(2)
    f = np.array(rhs(y), dtype=float).reshape(2)
    rs, ys, fs = [r0], [y], [f]

    def result(status):
        return np.array(rs), np.array(ys), np.array(fs), status

    h = direction * min(max_step, abs(r_end - r0) / 100.0, 0.1)
    r = r0
    accepted = 0
    k = np.empty((7, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            if accepted >= settings.max_steps:
                return result("truncated")
            remaining = r_end - r
            if direction * remaining <= 0.0:
                return result("completed")
            if abs(h) > abs(remaining):
                h = remaining
            if abs(h) > max_step:
                h = direction * max_step
            k[0] = f
            err_norm = math.nan
            for i in range(1, 7):
                y_new = y + h * _ref_sum(k, _REF_A[i])
                a, b = rhs(y_new)
                if not (math.isfinite(a) and math.isfinite(b)):
                    break
                k[i] = a, b
            else:
                u, v = y_new
                if math.isfinite(u) and math.isfinite(v):
                    q0, q1 = h * _ref_sum(k, _REF_E) / (abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new)))
                    err_norm = math.sqrt((q0 * q0 + q1 * q1) / 2)
            if math.isnan(err_norm):
                factor = 0.5
            else:
                factor = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm ** -0.2))
            if not err_norm <= 1.0:
                h *= factor
                if abs(h) < 1e-14 * max(1.0, abs(r)):
                    return result("failure")
                continue
            f_new = k[6].copy()
            hit = None
            for ev in settings.stop_events:
                theta = _ref_locate_event(ev, h, y, f, y_new, f_new)
                if theta is not None and (hit is None or theta < hit[0]):
                    hit = (theta, ev)
            if hit is not None:
                theta, ev = hit
                y_ev = _ref_hermite(theta, h, y, f, y_new, f_new)
                rs.append(r + theta * h)
                ys.append(y_ev)
                fs.append(np.array(rhs(y_ev), dtype=float))
                return result("event")
            r += h
            y, f = y_new, f_new
            rs.append(r)
            ys.append(y)
            fs.append(f)
            accepted += 1
            if math.hypot(u, v) > 1e12:
                return result("diverged")
            h *= factor


def _nan_beyond_one(y):
    return (math.nan, math.nan) if y[0] > 1.0 else (1.0, 0.0)


_UNIFIED = unified_system(unified_coefficients(PME))
# (rhs, y0, span, settings, expected status)
BIT_CASES = {
    "completed": (_UNIFIED, (0.01, 0.8), (0.0, 5.0), IntegrationSettings(), "completed"),
    "diverged": (_UNIFIED, (0.5, 3.0), (0.0, 50.0), IntegrationSettings(), "diverged"),
    "truncated": (_UNIFIED, (0.01, 0.8), (0.0, 5.0), IntegrationSettings(max_steps=5), "truncated"),
    "event-up": (_gaussian_flow, (1.0, 0.0), (0.0, 5.0),
                 IntegrationSettings(stop_events=(StopEvent(0, 20.0, +1),)), "event"),
    "event-down": (_gaussian_flow, (1.0, 0.0), (0.0, -5.0),
                   IntegrationSettings(stop_events=(StopEvent(1, -1.5, -1),)), "event"),
    "nan-failure": (_nan_beyond_one, (0.0, 0.0), (0.0, 3.0), IntegrationSettings(), "failure"),
    "backward": (_UNIFIED, (0.01, 0.8), (2.0, -1.0), IntegrationSettings(), "completed"),
    "max-step": (_UNIFIED, (0.01, 0.8), (0.0, 2.0), IntegrationSettings(max_step=0.01), "completed"),
    "pme-native": (pme_native_system(PME), (0.2, 0.5), (0.0, 3.0), IntegrationSettings(), "completed"),
    "ple-native": (ple_native_system_xy(PLEParams(1.25, 2.5, 0.4)), (0.3, -0.2), (0.0, 1.0),
                   IntegrationSettings(), "completed"),
}


def _run(rhs, y0, span, settings):
    """The trajectory and status of ``integrate``; a failure gives its partial and "failure"."""
    try:
        traj = integrate(rhs, y0, span, settings)
    except IntegrationFailure as exc:
        traj, status = exc.partial, "failure"
    else:
        status = traj.status
    return traj, status


def _assert_same_bytes(rhs, y0, span, settings):
    traj, status = _run(rhs, y0, span, settings)
    r1, states, derivs, ref_status = _ref_integrate(rhs, y0, span, settings)
    assert status == ref_status
    assert traj.r1.tobytes() == r1.tobytes()
    assert traj.states.tobytes() == states.tobytes()
    assert traj.derivs.tobytes() == derivs.tobytes()
    return status


def _copysign_flow(y):
    # f0 = -5e-324 at psi = -0.0: the first stage sum 0.2 * f0 underflows to a zero
    # whose sign depends on whether it was fused with the +0.0 it is added to.
    return math.copysign(5e-324, y[0]), 1.0


def _sign_of_psi_flow(y):
    return -0.0, math.copysign(1.0, y[0])


class TestScalarLoopBitIdentity:
    """The float step loop reproduces the array loop byte for byte."""

    @pytest.mark.parametrize("case", BIT_CASES.values(), ids=BIT_CASES.keys())
    def test_outcome_matches_reference(self, case):
        rhs, y0, span, settings, expected = case
        assert _assert_same_bytes(rhs, y0, span, settings) == expected

    def test_seeded_orbits_match_reference(self):
        rng = np.random.default_rng(20071)
        statuses = set()
        for _ in range(60):
            c = rng.uniform(-2.0, 2.0, size=3)
            coeffs = UnifiedCoefficients(c[0], c[1], c[2], 1.0, int(rng.choice((-1, 1))), int(rng.choice((-1, 0, 1))))
            y0 = tuple(rng.uniform(-1.0, 1.0, size=2))
            span = (0.0, float(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 6.0)))
            events = (StopEvent(1, float(rng.uniform(-2.0, 2.0)), int(rng.choice((-1, 0, 1)))),)
            settings = IntegrationSettings(rel_tol=10.0 ** rng.uniform(-11.0, -6.0), max_steps=400,
                                           stop_events=events if rng.random() < 0.5 else ())
            statuses.add(_assert_same_bytes(unified_system(coeffs), y0, span, settings))
        assert {"completed", "event", "diverged"} <= statuses

    def test_rhs_receives_float_tuples(self):
        seen = set()

        def spy(y):
            seen.add((type(y), type(y[0]), type(y[1]), len(y)))
            return _gaussian_flow(y)

        integrate(spy, np.array([1.0, 0.0]), (0.0, 5.0), IntegrationSettings(stop_events=(StopEvent(0, 20.0, +1),)))
        assert seen == {(tuple, float, float, 2)}

    @pytest.mark.parametrize(
        "rhs",
        [
            lambda y: (math.floor(8.0 * y[1]), 1),
            lambda y: (2**53 + 1, 2**60 + 1),  # ints that round on the way to a double
            lambda y: (np.float32(y[0] * y[1] + 1.0), np.float32(-y[0])),
            lambda y: (np.array(y[0] * y[1]), np.array(1.0)),
        ],
        ids=["int", "big-int", "float32", "0-d"],
    )
    def test_non_float_rhs_values_match_reference(self, rhs):
        settings = IntegrationSettings(stop_events=(StopEvent(0, 1.5, +1),))
        for span in ((0.0, 3.0), (0.0, -3.0)):
            _assert_same_bytes(rhs, (1.0, 0.0), span, settings)

    @pytest.mark.parametrize("span", [(0.0, 1.0), (0.0, -1.0)])
    def test_underflowed_first_stage_matches_reference(self, span):
        _assert_same_bytes(_copysign_flow, (-0.0, 0.0), span, IntegrationSettings(max_steps=20))

    # psi stays a signed zero and dphi copies its sign, so a stage sum that started at
    # -0.0 (phi at node 1: -1.785459634812323e-11 forward, 1.6318600093202318e-11 backward)
    # would feed the opposite sign to the next stage
    @pytest.mark.parametrize("span, phi1", [((0.0, 1.0), 4.6517142758712467e-10), ((0.0, -1.0), 0.009999999999999998)])
    def test_stage_sums_start_at_positive_zero(self, span, phi1):
        traj = integrate(_sign_of_psi_flow, (-0.0, 0.0), span)
        assert traj.states[1][1] == phi1
        _assert_same_bytes(_sign_of_psi_flow, (-0.0, 0.0), span, IntegrationSettings())


def _ref_interp_states(traj, grid):
    """Cubic Hermite interpolation of a trajectory at points inside its range, vectorised."""
    order = np.argsort(traj.r1)
    r1, y, f = traj.r1[order], traj.states[order], traj.derivs[order]
    if len(r1) == 1:
        return y
    i0 = np.clip(np.searchsorted(r1, grid, side="right") - 1, 0, len(r1) - 2)
    i1 = i0 + 1
    h = (r1[i1] - r1[i0])[:, None]
    theta = (grid - r1[i0])[:, None] / h
    return _ref_hermite(theta, h, y[i0], f[i0], y[i1], f[i1])


def _ref_compare(a, b):
    """The numpy compare_trajectories that the merge walk replaced: union grid, searchsorted, np.max."""
    lo = max(a.r1.min(), b.r1.min())
    hi = min(a.r1.max(), b.r1.max())
    grid = np.union1d(a.r1, b.r1)
    grid = grid[(grid >= lo) & (grid <= hi)]
    d = _ref_interp_states(a, grid) - _ref_interp_states(b, grid)
    return float(np.max(np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])))


def _assert_same_deviation(a, b):
    dev, ref = compare_trajectories(a, b), _ref_compare(a, b)
    assert dev.hex() == ref.hex() or (math.isnan(dev) and math.isnan(ref)), (dev, ref)
    return dev


def _seeded_pairs(seed, count):
    """Orbit pairs with overlapping ranges: a second tolerance, a nudged start, or the reverse run."""
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        c = rng.uniform(-2.0, 2.0, size=3).tolist()
        rhs = unified_system(UnifiedCoefficients(c[0], c[1], c[2], 1.0, int(rng.choice((-1, 1))), 1))
        y0 = tuple(rng.uniform(-1.0, 1.0, size=2).tolist())
        span = (0.0, float(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 4.0)))
        fine = IntegrationSettings(rel_tol=10.0 ** rng.uniform(-11.0, -8.0), max_steps=600)
        coarse = IntegrationSettings(rel_tol=10.0 ** rng.uniform(-7.0, -4.0), max_steps=600)
        try:
            a = integrate(rhs, y0, span, fine)
            kind = len(pairs) % 3
            if kind == 0:
                b = integrate(rhs, y0, span, coarse)
            elif kind == 1:
                b = integrate(rhs, (y0[0] + 1e-4, y0[1]), span, coarse)
            else:  # back from the end of a, so b's r1 runs the other way
                b = integrate(rhs, a.points[-1], (a.grid[-1], a.grid[0]), coarse)
        except IntegrationFailure:
            continue
        pairs.append((a, b))
    return pairs


class TestCompareOracle:
    """compare_trajectories returns the float of the vectorised reference, bit for bit."""

    def test_seeded_pairs_match_reference(self):
        devs = [_assert_same_deviation(a, b) for a, b in _seeded_pairs(2007, 210)]
        devs += [_assert_same_deviation(b, a) for a, b in _seeded_pairs(2008, 30)]
        assert len(devs) == 240 and min(devs) > 0.0

    def test_conjugacy_pairs_match_reference(self):
        from ssflow import verify

        captured = []

        def capture(a, b):
            captured.append((a, b))
            return compare_trajectories(a, b)

        original = verify.compare_trajectories
        verify.compare_trajectories = capture
        try:
            verify.check_conjugacy()
        finally:
            verify.compare_trajectories = original
        assert len(captured) == 20
        for a, b in captured:
            _assert_same_deviation(a, b)

    @pytest.mark.parametrize("r", [0.0, 0.3, 1.0])
    def test_single_node_trajectory(self, r):
        rhs = unified_system(unified_coefficients(PME))
        long = integrate(rhs, (0.01, 0.8), (0.0, 1.0))
        node = dict(zip(long.grid, long.points)).get(r, (0.02, 0.7))
        single = Trajectory([r], [node], [rhs(node)])
        assert _assert_same_deviation(single, long) == _assert_same_deviation(long, single)

    @pytest.mark.parametrize("count", [2, 3])
    def test_short_backward_trajectory(self, count):
        rhs = unified_system(unified_coefficients(PME))
        long = integrate(rhs, (0.01, 0.8), (0.0, 1.0))
        short = integrate(rhs, long.points[-1], (1.0, 0.0), IntegrationSettings(max_steps=count - 1))
        assert len(short) == count and short.grid[0] > short.grid[-1]
        assert _assert_same_deviation(short, long) > 0.0

    @pytest.mark.parametrize("backward", [False, True])
    def test_ranges_touching_at_one_node(self, backward):
        rhs = unified_system(unified_coefficients(PME))
        a = integrate(rhs, (0.01, 0.8), (0.0, 1.0))
        b = integrate(rhs, (0.02, 0.7), (1.0, 2.0))
        if backward:
            b = integrate(rhs, (0.02, 0.7), (1.0, 0.5))
            a = integrate(rhs, (0.01, 0.8), (0.5, 0.0))
        for pair in ((a, b), (b, a)):
            assert _assert_same_deviation(*pair) > 1e-3

    # A slope that is not finite makes the interpolant NaN at its own nodes too (0 * inf, 0 * NaN),
    # so a node may stand in for its interpolant only where all four slopes of its step are finite.
    @pytest.mark.parametrize(
        "slope,nodes,reverse",
        [
            (math.nan, (0,), False), (math.nan, (3,), False), (math.nan, (6,), False),
            (math.inf, (0,), False), (math.inf, (3,), False), (math.inf, (6,), False),
            (-math.inf, (0,), False), (-math.inf, (3,), False), (-math.inf, (6,), False),
            (1e308, tuple(range(7)), False),  # finite, though two slopes of a step sum to inf
            (math.nan, (6,), True),  # the last node of a reversed orbit starts its first ascending step
        ],
        ids=["nan-first", "nan-middle", "nan-last", "inf-first", "inf-middle", "inf-last",
             "minus-inf-first", "minus-inf-middle", "minus-inf-last", "overflowing-sum", "nan-last-reversed"],
    )
    def test_nan_derivatives_give_nan(self, slope, nodes, reverse):
        r1 = np.linspace(0.0, 1.0, 7)
        grid = r1[::-1] if reverse else r1
        derivs = np.ones((7, 2))
        derivs[list(nodes), 1] = slope
        a = Trajectory(grid, np.column_stack([grid, grid * grid]), derivs)
        # b covers a, and its two nodes inside lie on steps away from a's first, middle and last node,
        # so only a's own nodes meet the non-finite slope
        g = np.linspace(-0.05, 1.05, 4)
        b = Trajectory(g, np.column_stack([g, g * g]) + 1e-3, np.ones((4, 2)))
        for pair in ((a, b), (b, a)):
            with np.errstate(invalid="ignore", over="ignore"):  # the reference's 0 * inf
                dev = _assert_same_deviation(*pair)
            assert math.isnan(dev) is not math.isfinite(slope)


class TestKernelCounters:
    """meta counts the accepted and rejected steps and the rhs calls of every outcome."""

    @pytest.mark.parametrize("case", BIT_CASES.values(), ids=BIT_CASES.keys())
    def test_counters_match_counting_wrapper(self, case):
        rhs, y0, span, settings, _ = case
        evals = 0

        def counted(y):
            nonlocal evals
            evals += 1
            return rhs(y)

        traj, status = _run(counted, y0, span, settings)
        meta = traj.meta
        assert meta["rhs_evals"] == evals
        assert meta["accepted"] == len(traj) - 1
        assert meta["settings"] is settings
        if status != "failure":  # a non-finite stage ends its attempt early, so the inference undercounts
            events = 1 if status == "event" else 0
            assert meta["rejected"] == (evals - 1 - events) // 6 - meta["accepted"]
        else:
            assert meta["rejected"] >= 1

