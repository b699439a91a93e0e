"""Value records shared by the modules.

The frozen record base, a radial profile sample, the worst-deviation rule, and
the pass/fail record of one named check that streams it, on Python floats alone.
"""

from __future__ import annotations

import math
from operator import attrgetter

from .errors import DomainError


class _Record:
    """A frozen value record: equal, hashed and shown by the fields its ``_fields`` names, in order.

    Records of different classes are never equal.  Each subclass validates its arguments in its own
    ``__init__`` and stores them with ``vars(self).update``; that ``__dict__`` serves ``cached_property``,
    pickle and ``copy``.
    """

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls._fields)  # the field tuple (of two or more fields); not a method, so unbound

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _check_positive(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:  # refuses NaN
        raise DomainError(f"{name} must be positive and finite, got {value}")


class ProfileSample(_Record):
    """One radial sample (eta, f(eta), f'(eta)) with 0 < eta < inf."""

    _fields = ("eta", "f", "fprime")

    def __init__(self, eta: float, f: float, fprime: float):
        _check_positive("eta", eta)
        vars(self).update(eta=eta, f=f, fprime=fprime)


def _worst(devs) -> float:
    """The largest |dev| of ``devs``: 0.0 for none, and the first NaN, read no further, when there is one."""
    worst = 0.0
    for dev in map(abs, devs):
        if dev > worst:
            worst = dev
        elif dev != dev:  # NaN
            return dev
    return worst


class CheckResult:
    def __init__(self, name: str, passed: bool, max_dev: float, tol: float):
        self.name, self.passed, self.max_dev, self.tol = name, passed, max_dev, tol

    def as_dict(self) -> dict:
        return {"name": self.name, "pass": self.passed, "max_dev": self.max_dev, "tol": self.tol}


class _Agg:
    """Running worst-deviation aggregator for one named check: ``_worst`` fed one value at a time."""

    def __init__(self, tol: float):
        self.tol, self.max_dev, self.failures, self.samples = tol, 0.0, 0, 0

    def add(self, dev: float) -> None:
        self.samples += 1
        dev = abs(dev)
        if math.isnan(dev) or dev > self.max_dev:  # a NaN stays the reported worst
            self.max_dev = dev
        if not dev <= self.tol:  # NaN compares false, so it fails
            self.failures += 1

    def result(self, name: str) -> CheckResult:
        return CheckResult(name, self.failures == 0 and self.samples > 0, self.max_dev, self.tol)
