"""Parameters and unified phase-plane coefficients for self-similar diffusion.

Radial self-similar solutions of the porous medium equation
``u_t = Laplace(u^m / m)`` (m != 1) and of the p-Laplacian equation
``u_t = div(|grad u|^(p-2) grad u)`` (p != 2) both reduce, in suitable
phase-plane variables, to one quadratic autonomous system,

    dPsi/dr1 = Psi * Phi
    dPhi/dr1 = c1*Phi^2 - c2*Psi*Phi - c3*Phi + e*Psi + s,

with e = +1 / -1 / 0 for the three similarity types and s = sgn(b)
(s = 0 in the critical case b = 0).  This module owns the parameter
containers for both equations, the alpha/beta exponent relations, the
critical exponents where the reduction changes form, the Type I betas with
an invariant line, and the shared coefficient tuple (c1, c2, c3, sqrt|b|).
"""

from __future__ import annotations

import functools
import math
from enum import Enum

from ._records import _Record
from .errors import DegenerateError, DomainError

# Default relative band around m_c (p_c) treated as the critical case; the
# coefficients blow up like 1/sqrt|b| just outside it.
DEFAULT_CRITICAL_TOL = 1e-9

# Band around an excluded value (m = 1 or p = 2, where c1 = m/(m-1) blows up; p = 1, p = 0,
# m_c, p_c, a vanishing beta1 denominator) inside which the records, the coefficients,
# the dimension maps and the closed forms refuse to run: |x - v| <= _EXCLUSION_TOL.
_EXCLUSION_TOL = 1e-12


class SimilarityType(Enum):
    """Time dependence of the self-similar ansatz.

    TYPE_I:   u(x,t) = t^(-alpha) f(x t^(-beta))
    TYPE_II:  u(x,t) = (T-t)^alpha f(x (T-t)^beta)
    TYPE_III: u(x,t) = e^(alpha t) f(x e^(beta t))
    """

    TYPE_I = 1
    TYPE_II = 2
    TYPE_III = 3

    @property
    def psi_coeff(self) -> int:
        """Coefficient of Psi in the second unified equation: +1, -1 or 0."""
        return (1, -1, 0)[self._value_ - 1]  # _value_: Enum's value property costs ten times this tuple index


class PMEParams(_Record):
    """Porous-medium parameters: diffusion exponent m != 1, dimension n > 0."""

    _fields = ("m", "n", "beta", "sim_type")

    def __init__(self, m: float, n: float, beta: float, sim_type: SimilarityType = SimilarityType.TYPE_I):
        _check_params(m, n, beta, "m", 1.0)
        vars(self).update(m=m, n=n, beta=beta, sim_type=sim_type)


class PLEParams(_Record):
    """p-Laplacian parameters: exponent p != 2, dimension n > 0."""

    _fields = ("p", "n", "beta", "sim_type")

    def __init__(self, p: float, n: float, beta: float, sim_type: SimilarityType = SimilarityType.TYPE_I):
        _check_params(p, n, beta, "p", 2.0)
        vars(self).update(p=p, n=n, beta=beta, sim_type=sim_type)

    @property
    def gamma(self) -> float:
        """Radial weight exponent gamma = p / (2 - p) of the native Z variable."""
        return self.p / (2.0 - self.p)


class CriticalExponents(_Record):
    """The four critical exponents of a given dimension n.

    m_c, p_c mark b = 0 (the reduction loses its constant term); m_s, p_s are
    the Sobolev/Yamabe values where c3 = 0 and the two dimension-change
    branches merge.  They satisfy p_s = m_s + 1 for the same n.
    """

    _fields = ("m_c", "m_s", "p_c", "p_s")

    def __init__(self, m_c: float, m_s: float, p_c: float, p_s: float):
        vars(self).update(m_c=m_c, m_s=m_s, p_c=p_c, p_s=p_s)


class UnifiedCoefficients(_Record):
    """Constants of the quadratic system shared by both equations.

    ``sqrt_abs_b`` holds sqrt(|b|) in the generic case.  In the critical case
    (b = 0) it holds the substituted scale n-2 (porous medium) or n (p-Laplacian),
    which makes c3 exactly -1; for n < 2 that substituted value is negative.
    ``const_term`` is sgn(b), or 0 in the critical case.  ``psi_coeff`` is the
    similarity-type coefficient of Psi (+1, -1 or 0).
    """

    _fields = ("c1", "c2", "c3", "sqrt_abs_b", "const_term", "psi_coeff", "critical")

    def __init__(self, c1: float, c2: float, c3: float, sqrt_abs_b: float, const_term: int, psi_coeff: int,
                 critical: bool = False):
        vars(self).update(c1=c1, c2=c2, c3=c3, sqrt_abs_b=sqrt_abs_b, const_term=const_term, psi_coeff=psi_coeff,
                          critical=critical)

    @property
    def b(self) -> float:
        """The signed constant b; exactly 0.0 in the critical case."""
        if self.critical:
            return 0.0
        return self.const_term * self.sqrt_abs_b * self.sqrt_abs_b


def _check_params(x: float, n: float, beta: float, name: str, linear: float) -> None:
    """The checks of either record: finite (x, n, beta), x outside the band of its linear value, n > 0."""
    for v in (x, n, beta):
        if not math.isfinite(v):
            raise DomainError(f"parameters must be finite, got {v}")
    if abs(x - linear) <= _EXCLUSION_TOL:
        raise DegenerateError(f"{name} = {linear:g} is the linear heat equation; excluded")
    if n <= 0.0:
        raise DomainError(f"dimension n must be positive, got {n}")


def _scaling(params) -> tuple[float, float, float]:
    """(x, x1, k) of the scaling relation: (m, 1, 2) for the porous medium, (p, 2, p) for the p-Laplacian."""
    if isinstance(params, PMEParams):
        return params.m, 1.0, 2.0
    if isinstance(params, PLEParams):
        return params.p, 2.0, params.p
    raise TypeError(f"expected PMEParams or PLEParams, got {type(params).__name__}")


def alpha_from(params) -> float:
    """Similarity exponent alpha determined by beta through the scaling relation.

    (x - x1)*alpha + k*beta = e, with (x, x1, k) = (m, 1, 2) for the porous medium
    and (p, 2, p) for the p-Laplacian, and e = +1 (Type I), -1 (Type II) or 0
    (Type III).  Type III is solved as alpha = k*beta/(x1 - x), which keeps the
    sign of a zero alpha.  Raises DomainError where alpha overflows.
    """
    x, x1, k = _scaling(params)
    if params.sim_type is SimilarityType.TYPE_III:
        alpha = k * params.beta / (x1 - x)
    else:
        alpha = (params.sim_type.psi_coeff - k * params.beta) / (x - x1)
    if not math.isfinite(alpha):  # a huge beta, or one over an |m - 1| (|p - 2|) just above _EXCLUSION_TOL
        raise DomainError(f"alpha of {params} overflows: {alpha}")
    return alpha


# Bounded: callers that draw a fresh n per operation would grow an unbounded cache.
@functools.lru_cache(maxsize=256, typed=True)
def critical_exponents(n: float) -> CriticalExponents:
    """Evaluate m_c = (n-2)/n, m_s = (n-2)/(n+2), p_c = 2n/(n+1), p_s = 2n/(n+2)."""
    if n <= 0.0:
        raise DomainError(f"dimension n must be positive, got {n}")
    crit = CriticalExponents(
        m_c=(n - 2.0) / n,
        m_s=(n - 2.0) / (n + 2.0),
        p_c=2.0 * n / (n + 1.0),
        p_s=2.0 * n / (n + 2.0),
    )
    if not all(map(math.isfinite, (crit.m_c, crit.m_s, crit.p_c, crit.p_s))):  # 2n overflows, or 1/n
        raise DomainError(f"the critical exponents of n = {n} overflow: {crit}")
    return crit


def _no_overflow(c1, c2, c3, s, sign, psi, critical) -> UnifiedCoefficients:
    """The coefficients of these values, refused when b, sqrt|b|, c2 or c3 overflowed (b is 0 when critical)."""
    if not (math.isfinite(c2) and math.isfinite(c3) and (critical or s * s < math.inf)):
        raise DomainError(f"the unified coefficients overflow: c2 = {c2}, c3 = {c3}, sqrt|b| = {s}")
    return UnifiedCoefficients(c1, c2, c3, s, sign, psi, critical)


def _is_critical(value, crit, tol) -> bool:
    return abs(value - crit) <= tol * max(1.0, abs(crit))


def _b(params) -> float:
    """The constant b: 2n(m - m_c)/(m-1) for the porous medium, p(n+1)(p - p_c)/((p-2)(p-1)) for the p-Laplacian."""
    n, crit = params.n, critical_exponents(params.n)
    if isinstance(params, PMEParams):
        return 2.0 * n * (params.m - crit.m_c) / (params.m - 1.0)
    p = params.p
    return p * (n + 1.0) * (p - crit.p_c) / ((p - 2.0) * (p - 1.0))


def unified_coefficients(params, critical_tol: float = DEFAULT_CRITICAL_TOL) -> UnifiedCoefficients:
    """Reduce either parameter set to the coefficients of the unified system.

    Porous medium:  c1 = m/(m-1),  b = 2n(m - m_c)/(m-1),
                    c3 = (n+2)(m - m_s) / ((m-1) sqrt|b|).
    p-Laplacian:    c1 = (p-1)/(p-2),  b = p(n+1)(p - p_c)/((p-2)(p-1)),
                    c3 = (n+2)(p - p_s) / ((p-2) sqrt|b|).
    Always c2 = beta * sqrt|b|.  Within ``critical_tol`` of m_c (p_c) the
    substituted scale sqrt(b) := n-2 (resp. n) is used instead, which gives
    c3 = -1 exactly and drops the constant term.
    """
    if not 0.0 <= critical_tol < math.inf:  # refuses NaN
        raise DomainError(f"critical_tol must be non-negative and finite, got {critical_tol}")
    psi = params.sim_type.psi_coeff
    crit = critical_exponents(params.n)
    x, x1, _ = _scaling(params)
    n, beta, pme = params.n, params.beta, isinstance(params, PMEParams)
    x_c, x_s, s = (crit.m_c, crit.m_s, n - 2.0) if pme else (crit.p_c, crit.p_s, n)
    c1 = (x if pme else x - 1.0) / (x - x1)
    if _is_critical(x, x_c, critical_tol):
        if s == 0.0:
            raise DegenerateError("critical porous-medium case degenerates at n = 2")
        return _no_overflow(c1, beta * s, -1.0, s, 0, psi, critical=True)
    if not pme and abs(x - 1.0) <= _EXCLUSION_TOL:
        raise DegenerateError("p = 1: the phase-plane reduction divides by p - 1")
    if not pme and abs(x) <= _EXCLUSION_TOL:
        raise DegenerateError("p = 0 is the second root of b; the reduction degenerates")
    b = _b(params)
    s = math.sqrt(abs(b))
    c3 = (n + 2.0) * (x - x_s) / ((x - x1) * s)
    return _no_overflow(c1, beta * s, c3, s, _sign(b), psi, critical=False)


def _sign(x: float) -> int:
    return 1 if x > 0.0 else (-1 if x < 0.0 else 0)


def line_betas_pme(m: float, n: float) -> tuple[float | None, float | None]:
    """The Type I betas with an invariant line: Barenblatt's 1/(n(m-1)+2) and the dipole's 1/(2m).

    A root at infinity is None: beta1 within _EXCLUSION_TOL of a zero denominator, beta2 at an exact zero.
    """
    return _line_betas(n * (m - 1.0) + 2.0, 2.0 * m)


def line_betas_ple(p: float, n: float) -> tuple[float | None, float | None]:
    """p-Laplacian analogue: 1/(n(p-2)+p) and 1/p, None by the same rule."""
    return _line_betas(n * (p - 2.0) + p, p)


def _line_betas(d1: float, d2: float) -> tuple[float | None, float | None]:
    return (None if abs(d1) <= _EXCLUSION_TOL else 1.0 / d1), (None if d2 == 0.0 else 1.0 / d2)

