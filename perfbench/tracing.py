"""Spans and counters recorded around ssflow's public functions.

Only traced runs use this module.  It wraps functions from outside: each
layer function is replaced, in every ``ssflow`` module that binds it, by a
wrapper that records a span and the counts of work done, and the original is
put back afterwards.  RHS evaluations are counted by wrapping the callable
passed to ``integrate``; they are a count, not a span, so RHS time stays in
the ``integrator.integrate`` self time.

A span is ``[op, name, start, end, parent, child_time]``.  Spans of one
operation share ``op``; ``parent`` is the index of the enclosing span or -1.
Self time is a span's duration minus ``child_time``, the sum of its direct
children's durations.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import collections
import functools
import importlib
import sys
import time

clock = time.monotonic  # CLOCK_MONOTONIC: comparable across processes on Linux

VERIFY_CHECKS = (
    "check_identity_grid",
    "check_verify_pairs",
    "check_conjugacy",
    "check_closed_forms",
    "check_yamabe_profiles",
    "check_yamabe_slope_field",
    "check_critical_case",
    "check_line_trajectories",
    "check_mass_conservation",
)

# span name -> functions (defining module, attribute) that it wraps
LAYER_FUNCTIONS = {
    "params.unified_coefficients": [("ssflow.params", "unified_coefficients")],
    "equivalence.maps": [
        ("ssflow.equivalence", "pme_to_ple"),
        ("ssflow.equivalence", "ple_to_pme"),
        ("ssflow.equivalence", "pme_branch_dimensions"),
        ("ssflow.equivalence", "ple_preimage_dimensions"),
    ],
    "equivalence.verify_equivalence": [("ssflow.equivalence", "verify_equivalence")],
    "phase_plane.trajectory_map": [
        ("ssflow.phase_plane", "pme_trajectory_to_unified"),
        ("ssflow.phase_plane", "ple_trajectory_to_unified"),
    ],
    "phase_plane.reconstruct_profile": [("ssflow.phase_plane", "reconstruct_profile")],
    "integrator.integrate": [("ssflow.integrator", "integrate")],
    "integrator.compare_trajectories": [("ssflow.integrator", "compare_trajectories")],
    "solutions.max_residual": [("ssflow.solutions", "max_residual")],
    "solutions.mass_integral": [("ssflow.solutions", "mass_integral")],
}
LAYER_FUNCTIONS.update({f"verify.{name}": [("ssflow.verify", name)] for name in VERIFY_CHECKS})

STATUSES = ("completed", "event", "diverged", "truncated", "failure")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: collections.Counter = collections.Counter()
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------
    def begin(self, name: str, start: float | None = None) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([self.op, name, clock() if start is None else start, None, parent, 0.0])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def end(self, idx: int, end: float | None = None) -> None:
        span = self.spans[idx]
        span[3] = clock() if end is None else end
        if self.stack and self.stack[-1] == idx:
            self.stack.pop()
        if span[4] >= 0:
            self.spans[span[4]][5] += span[3] - span[2]

    def add_child(self, parent: int, name: str, start: float, end: float) -> int:
        """Record a closed span measured elsewhere (another process)."""
        self.spans.append([self.op, name, start, end, parent, 0.0])
        self.spans[parent][5] += end - start
        return len(self.spans) - 1

    # -- wrapping -------------------------------------------------------
    def _wrapper(self, name, fn):
        if name == "integrator.integrate":
            return self._integrate_wrapper(fn)
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counts[f"{name}.calls"] += 1
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(self.counts, args, result)
            return result

        return traced

    def _integrate_wrapper(self, fn):
        @functools.wraps(fn)
        def traced(rhs, *args, **kwargs):
            evals = 0

            def counted(y):
                nonlocal evals
                evals += 1
                return rhs(y)

            self.counts["integrator.integrate.calls"] += 1
            idx = self.begin("integrator.integrate")
            try:
                traj = fn(counted, *args, **kwargs)
            except BaseException as exc:
                self.end(idx)
                _integrate_counts(self.counts, getattr(exc, "partial", None), evals, "failure")
                raise
            self.end(idx)
            _integrate_counts(self.counts, traj, evals, traj.status)
            return traj

        return traced

    def patch(self) -> None:
        """Replace every ssflow binding of each layer function by its wrapper."""
        modules = [mod for key, mod in list(sys.modules.items()) if key == "ssflow" or key.startswith("ssflow.")]
        for name, targets in LAYER_FUNCTIONS.items():
            for modname, attr in targets:
                original = getattr(importlib.import_module(modname), attr)
                wrapper = self._wrapper(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, key, original))
                            setattr(mod, key, wrapper)

    def unpatch(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    # -- summaries ------------------------------------------------------
    def self_times(self) -> dict:
        out: dict = collections.defaultdict(float)
        for span in self.spans:
            out[span[1]] += (span[3] - span[2]) - span[5]
        return dict(out)

    def export(self) -> list[list]:
        return [[op, name, start, end, parent] for op, name, start, end, parent, _ in self.spans]


def _integrate_counts(counts, traj, evals, status):
    counts["phase_plane.rhs_evals"] += evals
    events = 1 if status == "event" else 0
    accepted = len(traj) - 1 if traj is not None else 0  # an event's step is accepted, then cut at it
    counts["integrator.integrate.accepted_steps"] += accepted
    # derived: every attempted step costs 6 evaluations, plus 1 at the start and 1 per event
    counts["integrator.integrate.rejected_steps"] += (evals - 1 - events) // 6 - accepted
    counts[f"integrator.status.{status}"] += 1


def _compare_points(counts, args, result):
    import numpy as np  # imported here so that the CLI probe pays no numpy import before ssflow

    a, b = args[0], args[1]
    lo = max(a.r1.min(), b.r1.min())
    hi = min(a.r1.max(), b.r1.max())
    grid = np.union1d(a.r1, b.r1)
    counts["integrator.compare_trajectories.grid_points"] += int(np.count_nonzero((grid >= lo) & (grid <= hi)))


def _reconstruct_samples(counts, args, result):
    counts["phase_plane.reconstruct_profile.samples"] += len(result)


_AFTER = {
    "integrator.compare_trajectories": _compare_points,
    "phase_plane.reconstruct_profile": _reconstruct_samples,
}
