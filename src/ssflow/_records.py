"""Value records shared by the modules.

A radial profile sample, the worst-deviation rule, and the pass/fail record
of one named check that streams it, on Python floats alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError


def _check_positive(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:  # refuses NaN
        raise DomainError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class ProfileSample:
    """One radial sample (eta, f(eta), f'(eta)) with 0 < eta < inf."""

    eta: float
    f: float
    fprime: float

    def __post_init__(self):
        _check_positive("eta", self.eta)


def _worst(devs) -> float:
    """The largest |dev| of ``devs``: 0.0 for none, and the first NaN, read no further, when there is one."""
    worst = 0.0
    for dev in map(abs, devs):
        if dev > worst:
            worst = dev
        elif dev != dev:  # NaN
            return dev
    return worst


@dataclass
class CheckResult:
    name: str
    passed: bool
    max_dev: float
    tol: float

    def as_dict(self) -> dict:
        return {"name": self.name, "pass": self.passed, "max_dev": self.max_dev, "tol": self.tol}


@dataclass
class _Agg:
    """Running worst-deviation aggregator for one named check: ``_worst`` fed one value at a time."""

    tol: float
    max_dev: float = 0.0
    failures: int = 0
    samples: int = 0

    def add(self, dev: float) -> None:
        self.samples += 1
        dev = abs(dev)
        if math.isnan(dev) or dev > self.max_dev:  # a NaN stays the reported worst
            self.max_dev = dev
        if not dev <= self.tol:  # NaN compares false, so it fails
            self.failures += 1

    def result(self, name: str) -> CheckResult:
        return CheckResult(name, self.failures == 0 and self.samples > 0, self.max_dev, self.tol)
