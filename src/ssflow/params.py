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
critical exponents where the reduction changes form, and the computation
of the shared coefficient tuple (c1, c2, c3, sqrt|b|).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

from .errors import DegenerateError, DomainError

# Construction rejects |m - 1| (or |p - 2|) below this: the near-linear case
# makes c1 = m/(m-1) blow up and poisons everything downstream.
LINEAR_TOL = 1e-12

# Default relative band around m_c (p_c) treated as the critical case; the
# coefficients blow up like 1/sqrt|b| just outside it.
DEFAULT_CRITICAL_TOL = 1e-9


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
        return {1: 1, 2: -1, 3: 0}[self.value]


@dataclass(frozen=True)
class PMEParams:
    """Porous-medium parameters: diffusion exponent m != 1, dimension n > 0."""

    m: float
    n: float
    beta: float
    sim_type: SimilarityType = SimilarityType.TYPE_I

    def __post_init__(self):
        _check_finite(self.m, self.n, self.beta)
        if abs(self.m - 1.0) < LINEAR_TOL:
            raise DegenerateError("m = 1 is the linear heat equation; excluded")
        if self.n <= 0.0:
            raise DomainError(f"dimension n must be positive, got {self.n}")

    @property
    def alpha(self) -> float:
        return alpha_from(self)


@dataclass(frozen=True)
class PLEParams:
    """p-Laplacian parameters: exponent p != 2, dimension n > 0."""

    p: float
    n: float
    beta: float
    sim_type: SimilarityType = SimilarityType.TYPE_I

    def __post_init__(self):
        _check_finite(self.p, self.n, self.beta)
        if abs(self.p - 2.0) < LINEAR_TOL:
            raise DegenerateError("p = 2 is the linear heat equation; excluded")
        if self.n <= 0.0:
            raise DomainError(f"dimension n must be positive, got {self.n}")

    @property
    def alpha(self) -> float:
        return alpha_from(self)

    @property
    def gamma(self) -> float:
        """Radial weight exponent gamma = p / (2 - p) of the native Z variable."""
        return self.p / (2.0 - self.p)


@dataclass(frozen=True)
class CriticalExponents:
    """The four critical exponents of a given dimension n.

    m_c, p_c mark b = 0 (the reduction loses its constant term); m_s, p_s are
    the Sobolev/Yamabe values where c3 = 0 and the two dimension-change
    branches merge.  They satisfy p_s = m_s + 1 for the same n.
    """

    m_c: float
    m_s: float
    p_c: float
    p_s: float


@dataclass(frozen=True)
class UnifiedCoefficients:
    """Constants of the quadratic system shared by both equations.

    ``sqrt_abs_b`` holds sqrt(|b|) in the generic case.  In the critical case
    (b = 0) it holds the substituted scale n-2 (porous medium) or n (p-Laplacian),
    which makes c3 exactly -1; for n < 2 that substituted value is negative.
    ``const_term`` is sgn(b), or 0 in the critical case.  ``psi_coeff`` is the
    similarity-type coefficient of Psi (+1, -1 or 0).
    """

    c1: float
    c2: float
    c3: float
    sqrt_abs_b: float
    const_term: int
    psi_coeff: int
    critical: bool = False

    @property
    def b(self) -> float:
        """The signed constant b; exactly 0.0 in the critical case."""
        if self.critical:
            return 0.0
        return self.const_term * self.sqrt_abs_b * self.sqrt_abs_b


class Regime(Enum):
    """Coarse label for parameters that need special handling; nothing dispatches on it."""

    GENERIC = "generic"
    CRITICAL_B_ZERO = "critical_b_zero"
    YAMABE = "yamabe"
    NEAR_LINEAR = "near_linear"
    DIMENSION_TWO = "dimension_two"


def _check_finite(*values):
    for v in values:
        if not math.isfinite(v):
            raise DomainError(f"parameters must be finite, got {v}")


def alpha_from(params) -> float:
    """Similarity exponent alpha determined by beta through the scaling relation.

    Porous medium: (m-1)*alpha + 2*beta = +1 (Type I), -1 (Type II), and
    alpha*(1-m) = 2*beta for Type III.  p-Laplacian: (p-2)*alpha + p*beta
    with the same right-hand sides, and alpha*(2-p) = p*beta for Type III.
    """
    st = params.sim_type
    if isinstance(params, PMEParams):
        m, beta = params.m, params.beta
        if st is SimilarityType.TYPE_I:
            return (1.0 - 2.0 * beta) / (m - 1.0)
        if st is SimilarityType.TYPE_II:
            return (-1.0 - 2.0 * beta) / (m - 1.0)
        return 2.0 * beta / (1.0 - m)
    if isinstance(params, PLEParams):
        p, beta = params.p, params.beta
        if st is SimilarityType.TYPE_I:
            return (1.0 - p * beta) / (p - 2.0)
        if st is SimilarityType.TYPE_II:
            return (-1.0 - p * beta) / (p - 2.0)
        return p * beta / (2.0 - p)
    raise TypeError(f"expected PMEParams or PLEParams, got {type(params).__name__}")


# Bounded: callers that draw a fresh n per operation would grow an unbounded cache.
@functools.lru_cache(maxsize=256, typed=True)
def critical_exponents(n: float) -> CriticalExponents:
    """Evaluate m_c = (n-2)/n, m_s = (n-2)/(n+2), p_c = 2n/(n+1), p_s = 2n/(n+2)."""
    if n <= 0.0:
        raise DomainError(f"dimension n must be positive, got {n}")
    return CriticalExponents(
        m_c=(n - 2.0) / n,
        m_s=(n - 2.0) / (n + 2.0),
        p_c=2.0 * n / (n + 1.0),
        p_s=2.0 * n / (n + 2.0),
    )


def _is_critical(value, crit, tol) -> bool:
    return abs(value - crit) <= tol * max(1.0, abs(crit))


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
    if critical_tol < 0.0:
        raise DomainError("critical_tol must be non-negative")
    psi = params.sim_type.psi_coeff
    crit = critical_exponents(params.n)
    n = params.n
    if isinstance(params, PMEParams):
        m, beta = params.m, params.beta
        c1 = m / (m - 1.0)
        if _is_critical(m, crit.m_c, critical_tol):
            s = n - 2.0
            if s == 0.0:
                raise DegenerateError("critical porous-medium case degenerates at n = 2")
            return UnifiedCoefficients(c1, beta * s, -1.0, s, 0, psi, critical=True)
        b = 2.0 * n * (m - crit.m_c) / (m - 1.0)
        s = math.sqrt(abs(b))
        c3 = (n + 2.0) * (m - crit.m_s) / ((m - 1.0) * s)
        return UnifiedCoefficients(c1, beta * s, c3, s, _sign(b), psi)
    if isinstance(params, PLEParams):
        p, beta = params.p, params.beta
        c1 = (p - 1.0) / (p - 2.0)
        if _is_critical(p, crit.p_c, critical_tol):
            s = n
            return UnifiedCoefficients(c1, beta * s, -1.0, s, 0, psi, critical=True)
        if abs(p - 1.0) < LINEAR_TOL:
            raise DegenerateError("p = 1: the phase-plane reduction divides by p - 1")
        if abs(p) < LINEAR_TOL:
            raise DegenerateError("p = 0 is the second root of b; the reduction degenerates")
        b = p * (n + 1.0) * (p - crit.p_c) / ((p - 2.0) * (p - 1.0))
        s = math.sqrt(abs(b))
        c3 = (n + 2.0) * (p - crit.p_s) / ((p - 2.0) * s)
        return UnifiedCoefficients(c1, beta * s, c3, s, _sign(b), psi)
    raise TypeError(f"expected PMEParams or PLEParams, got {type(params).__name__}")


def _sign(x: float) -> int:
    return 1 if x > 0.0 else (-1 if x < 0.0 else 0)


def classify_regime(params, tol: float = 1e-9) -> Regime:
    """Label the regime of ``params`` for reports; the package's own guards do not consult it.

    Dimension two blocks the equivalence maps; near-linear exponents are
    rejected upstream anyway; the critical and Yamabe values mark b = 0 and
    c3 = 0 respectively.
    """
    n = params.n
    if abs(n - 2.0) <= tol * 2.0:
        return Regime.DIMENSION_TWO
    crit = critical_exponents(n)
    if isinstance(params, PMEParams):
        x, x_lin, x_c, x_s = params.m, 1.0, crit.m_c, crit.m_s
    else:
        x, x_lin, x_c, x_s = params.p, 2.0, crit.p_c, crit.p_s
    if abs(x - x_lin) <= tol * abs(x_lin):
        return Regime.NEAR_LINEAR
    if _is_critical(x, x_c, tol):
        return Regime.CRITICAL_B_ZERO
    if _is_critical(x, x_s, tol):
        return Regime.YAMABE
    return Regime.GENERIC
