"""Closed-form radial profiles, ODE residual evaluators, and u(x,t) values.

Each factory returns an immutable profile object with analytic f, f', f''.
Every closed form is A eta^q (L - c eta^E)^e (for the derivative-primary
family this is f'), so one builder, ``_power_law``, gives all of them their
derivatives and one eta-domain policy.
The residual evaluators apply the profile ODEs

    porous medium:  f^(m-1) f'' + (m-1) f^(m-2) f'^2 + ((n-1)/eta) f^(m-1) f'
                    + alpha f + beta eta f' = 0
    p-Laplacian:    (p-1)|f'|^(p-2) f'' + ((n-1)/eta)|f'|^(p-2) f'
                    + alpha f + beta eta f' = 0

and return exactly 0 (up to rounding) on the closed forms.  Evaluators are
strict about support: outside the open positivity set they raise instead of
returning 0, so free-boundary points are never silently verified.

``scipy.integrate`` is imported only inside the two functions that call
``quad`` (``dipole_derivative_ple`` and ``mass_integral``): its import costs
most of a CLI start-up, and no other code path needs a quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import (
    CriticalError,
    DegenerateError,
    DomainError,
    OutsideSupportError,
    SingularEvaluationError,
    SsflowError,
)
from .params import (
    PLEParams,
    PMEParams,
    SimilarityType,
    _is_critical,
    alpha_from,
    critical_exponents,
)
from .phase_plane import ProfileSample


class ProfileKind(Enum):
    BARENBLATT_PME = "barenblatt-pme"
    BARENBLATT_PLE = "barenblatt-ple"
    DIPOLE_PME = "dipole-pme"
    DIPOLE_DERIVATIVE_PLE = "dipole-derivative-ple"
    LOEWNER_NIRENBERG_PME = "loewner-nirenberg-pme"
    YAMABE_PLE = "yamabe-ple"
    POWER_LAW = "power-law"


@dataclass(frozen=True)
class ClosedFormProfile:
    """A radial profile with analytic first and second derivatives.

    ``support`` is the open interval of eta where the profile is admissible
    (positive profile, or positive derivative factor for derivative-primary
    profiles).  Negative eta raises DomainError and eta at or beyond a free
    boundary OutsideSupportError; eta = 0 gives the value where every power
    of eta in the formula is non-negative and SingularEvaluationError
    otherwise.
    """

    kind: ProfileKind
    constants: dict = field(default_factory=dict)
    params: object = None
    f: Callable[[float], float] = None
    fprime: Callable[[float], float] = None
    fsecond: Callable[[float], float] = None
    support: tuple[float, float] = (0.0, math.inf)

    def interior_points(self, count: int = 50) -> np.ndarray:
        """Log-spaced points strictly inside the support.

        The margins keep clear of both the free boundary and the origin,
        where profiles singular like eta^q (q < 0) make the residual an
        ill-conditioned cancellation of large terms.
        """
        if count < 1:
            raise DomainError(f"count must be at least 1, got {count}")
        lo, hi = self.support
        if math.isinf(hi):
            lo_eff = lo * (1.0 + 1e-3) if lo > 0.0 else 1e-2
            hi_eff = max(1e2, lo_eff * 1e4)
        else:
            lo_eff = lo * (1.0 + 1e-3) if lo > 0.0 else hi * 1e-2
            hi_eff = hi * (1.0 - 1e-6)
        return np.geomspace(lo_eff, hi_eff, count)

    def sample(self, etas) -> list[ProfileSample]:
        return [ProfileSample(float(e), self.f(float(e)), self.fprime(float(e))) for e in etas]


@lru_cache(maxsize=256)
def _power_law(A: float, q: float, L: float, c: float, E: float, e: float):
    """g = A eta^q (L - c eta^E)^e, its first two derivatives and its support.

    Returns ``(support, (g, g', g''), raw)``.  The derivatives come from the
    product and chain rules as sums of terms k eta^a w^b with w = L - c eta^E.
    Each of the three evaluators has one domain policy: eta < 0 raises
    DomainError; at eta = 0 a negative power of eta raises
    SingularEvaluationError and any other formula returns its value; eta at or
    beyond the free boundary (w = 0) raises OutsideSupportError.  ``raw`` is
    the positive-part formula A eta^q (w)_+^e with no checks, for quadrature.
    The closures are pure functions of the six numbers, so profiles built
    again with the same constants (every ``verify`` run) share them.
    """
    if c <= 0.0:
        support = (0.0, math.inf)
    else:
        edge = (L / c) ** (1.0 / E)
        support = (0.0, edge) if E > 0.0 else (edge, math.inf)
    lo, hi = support

    def refuse(eta, terms):
        if eta < 0.0:
            raise DomainError(f"eta must be non-negative, got {eta}")
        if eta != 0.0 or lo > 0.0:
            raise OutsideSupportError(f"eta = {eta} lies outside the open support ({lo}, {hi})")
        if (c != 0.0 and E < 0.0) or any(a < 0.0 for _, a, _ in terms):
            raise SingularEvaluationError("a negative power of eta is singular at eta = 0")
        return sum((k * L ** b for k, a, b in terms if a == 0.0), 0.0)

    def evaluator(*terms):
        terms = [t for t in terms if t[0] != 0.0]

        def h(eta):
            if not lo < eta < hi:
                return refuse(eta, terms)
            w = L - c * eta ** E
            if not w > 0.0:
                raise OutsideSupportError(f"eta = {eta} is outside the positivity set")
            total = 0.0
            for k, a, b in terms:
                total += k * eta ** a * w ** b
            return total

        return h

    def raw(eta):
        w = L - c * eta ** E
        return A * eta ** q * w ** e if w > 0.0 else 0.0

    cE = c * E
    derivs = (
        evaluator((A, q, e)),
        evaluator((A * q, q - 1.0, e), (-A * e * cE, q + E - 1.0, e - 1.0)),
        evaluator(
            (A * q * (q - 1.0), q - 2.0, e),
            (-A * e * cE * (2.0 * q + E - 1.0), q + E - 2.0, e - 1.0),
            (A * e * (e - 1.0) * cE * cE, q + 2.0 * E - 2.0, e - 2.0),
        ),
    )
    return support, derivs, raw


def barenblatt_pme(m: float, n: float, C: float = 1.0) -> ClosedFormProfile:
    """Source-type profile f = (C - k eta^2)_+^(1/(m-1)) with k = (m-1) beta1 / 2.

    beta1 = 1/(n(m-1)+2) and alpha = n beta1 (Type I): the divergence term then
    absorbs alpha f + beta eta f' exactly, so the residual vanishes on the
    whole positivity set.  Compactly supported for m > 1, global for m < 1.
    """
    if C <= 0.0:
        raise DomainError("C must be positive")
    denom = n * (m - 1.0) + 2.0
    if abs(denom) < 1e-12:
        raise DegenerateError("n(m-1) + 2 = 0: the source-type exponent degenerates")
    beta1 = 1.0 / denom
    k = (m - 1.0) * beta1 / 2.0
    params = PMEParams(m, n, beta1, SimilarityType.TYPE_I)
    support, derivs, _ = _power_law(1.0, 0.0, C, k, 2.0, 1.0 / (m - 1.0))
    return ClosedFormProfile(
        ProfileKind.BARENBLATT_PME, {"C": C, "k": k, "beta1": beta1}, params, *derivs, support
    )


def barenblatt_ple(p: float, n: float, C: float = 1.0) -> ClosedFormProfile:
    """Source-type p-Laplacian profile from the ansatz |f'|^(p-2) f' = -beta eta f.

    f = (C - A eta^(p/(p-1)))_+^((p-1)/(p-2)) with
    A = ((p-2)/p) sign(beta1') |beta1'|^(1/(p-1)), beta1' = 1/(n(p-2)+p),
    alpha = n beta1' (Type I).
    """
    if C <= 0.0:
        raise DomainError("C must be positive")
    denom = n * (p - 2.0) + p
    if abs(denom) < 1e-12:
        raise DegenerateError("n(p-2) + p = 0: the source-type exponent degenerates")
    beta1 = 1.0 / denom
    A = (p - 2.0) / p * math.copysign(abs(beta1) ** (1.0 / (p - 1.0)), beta1)
    params = PLEParams(p, n, beta1, SimilarityType.TYPE_I)
    support, derivs, _ = _power_law(1.0, 0.0, C, A, p / (p - 1.0), (p - 1.0) / (p - 2.0))
    return ClosedFormProfile(
        ProfileKind.BARENBLATT_PLE, {"C": C, "A": A, "beta1": beta1}, params, *derivs, support
    )


def dipole_pme(m: float, n: float, K: float = 1.0) -> ClosedFormProfile:
    """Antisymmetric-source profile f = eta^q (K - eta^e / b)_+^(1/(m-1)).

    q = -(n-2)/m, e = (mn-n+2)/m, b = 2n(m - m_c)/(m-1); the similarity
    exponents are beta = 1/(2m) and alpha = 1/m (Type I).
    """
    if K <= 0.0:
        raise DomainError("K must be positive")
    if m == 0.0:
        raise DegenerateError("m = 0 has no dipole profile of this form")
    crit = critical_exponents(n)
    if _is_critical(m, crit.m_c, 1e-12):
        raise CriticalError("the dipole formula divides by b = 0 at m = m_c")
    b = 2.0 * n * (m - crit.m_c) / (m - 1.0)
    q = -(n - 2.0) / m
    e = (m * n - n + 2.0) / m
    params = PMEParams(m, n, 1.0 / (2.0 * m), SimilarityType.TYPE_I)
    support, derivs, _ = _power_law(1.0, q, K, 1.0 / b, e, 1.0 / (m - 1.0))
    return ClosedFormProfile(
        ProfileKind.DIPOLE_PME, {"K": K, "b": b, "q": q, "e": e}, params, *derivs, support
    )


def dipole_derivative_ple(p: float, n: float, c: float = 1.0) -> ClosedFormProfile:
    """Derivative-primary profile: the closed form fixes f', not f.

    f'(eta) = eta^(-(n-1)/(p-1)) (c - eta^E/((p-1)b))_+^(1/(p-2)) with
    E = (p-2)b/p; beta = 1/p forces alpha = 0 (Type I), so f never enters the
    profile ODE and is recovered by quadrature with f = 0 at the right
    support endpoint.  f is defined wherever f' is.
    """
    if c <= 0.0:
        raise DomainError("c must be positive")
    crit = critical_exponents(n)
    if _is_critical(p, crit.p_c, 1e-12):
        raise CriticalError("the derivative formula divides by b = 0 at p = p_c")
    b = p * (n + 1.0) * (p - crit.p_c) / ((p - 2.0) * (p - 1.0))
    E = (p - 2.0) * b / p
    q = -(n - 1.0) / (p - 1.0)
    params = PLEParams(p, n, 1.0 / p, SimilarityType.TYPE_I)
    support, derivs, raw = _power_law(1.0, q, c, 1.0 / ((p - 1.0) * b), E, 1.0 / (p - 2.0))
    fprime, fsecond, _ = derivs
    edge = support[1]
    if math.isinf(edge):
        raise DomainError("unbounded derivative support: no right endpoint to anchor f")
    from scipy.integrate import quad

    def f(eta):
        fprime(eta)  # the same domain policy as f'
        val, _ = quad(raw, eta, edge, epsabs=1e-12, epsrel=1e-12, limit=200)
        return -val

    constants = {"c": c, "b": b, "E": E, "edge": edge}
    return ClosedFormProfile(ProfileKind.DIPOLE_DERIVATIVE_PLE, constants, params, f, fprime, fsecond, support)


def loewner_nirenberg_pme(n: float, k1: float = 1.0) -> ClosedFormProfile:
    """Global fast-diffusion profile f = (k1 + eta^2/(4 n k1))^(-(n+2)/2).

    Lives at the Yamabe exponent m = m_s(n) with beta = 0, Type II, and
    alpha = (n+2)/4; requires n > 2.
    """
    if n <= 2.0:
        raise DomainError(f"this profile needs n > 2, got n = {n}")
    if k1 <= 0.0:
        raise DomainError("k1 must be positive")
    m = critical_exponents(n).m_s
    params = PMEParams(m, n, 0.0, SimilarityType.TYPE_II)
    support, derivs, _ = _power_law(1.0, 0.0, k1, -1.0 / (4.0 * n * k1), 2.0, -(n + 2.0) / 2.0)
    return ClosedFormProfile(ProfileKind.LOEWNER_NIRENBERG_PME, {"k1": k1}, params, *derivs, support)


def yamabe_ple(n: float, k2: float = 1.0) -> ClosedFormProfile:
    """Global p-Laplacian profile at p = p_s(n): f = C (1 + k2 eta^(2n/(n-2)))^(-n/2).

    C = (4n/(n+2)) (4 n^3 k2 / (n^2-4))^((n-2)/4); beta = 0, Type II,
    alpha = (n+2)/4; requires n > 2.
    """
    if n <= 2.0:
        raise DomainError(f"this profile needs n > 2, got n = {n}")
    if k2 <= 0.0:
        raise DomainError("k2 must be positive")
    p = critical_exponents(n).p_s
    params = PLEParams(p, n, 0.0, SimilarityType.TYPE_II)
    C = 4.0 * n / (n + 2.0) * (4.0 * n ** 3 * k2 / (n * n - 4.0)) ** ((n - 2.0) / 4.0)
    support, derivs, _ = _power_law(C, 0.0, 1.0, -k2, 2.0 * n / (n - 2.0), -n / 2.0)
    return ClosedFormProfile(ProfileKind.YAMABE_PLE, {"k2": k2, "C": C}, params, *derivs, support)


def pme_residual(profile, params: PMEParams, eta: float) -> float:
    """Left-hand side of the porous-medium profile ODE at one point.

    Exactly zero (to rounding) for closed-form solutions on their support.
    """
    if eta <= 0.0:
        raise DomainError(f"eta must be positive, got {eta}")
    f = profile.f(eta)
    if f <= 0.0:
        raise OutsideSupportError(f"the residual needs f > 0, got f = {f}")
    fp = profile.fprime(eta)
    fpp = profile.fsecond(eta)
    m, n = params.m, params.n
    alpha = alpha_from(params)
    return (
        f ** (m - 1.0) * fpp
        + (m - 1.0) * f ** (m - 2.0) * fp * fp
        + (n - 1.0) / eta * f ** (m - 1.0) * fp
        + alpha * f
        + params.beta * eta * fp
    )


def ple_residual(profile, params: PLEParams, eta: float) -> float:
    """Left-hand side of the p-Laplacian profile ODE at one point."""
    if eta <= 0.0:
        raise DomainError(f"eta must be positive, got {eta}")
    fp = profile.fprime(eta)
    if fp == 0.0:
        raise SingularEvaluationError("the diffusivity degenerates where f' = 0")
    f = profile.f(eta)
    fpp = profile.fsecond(eta)
    p, n = params.p, params.n
    alpha = alpha_from(params)
    return (
        (p - 1.0) * abs(fp) ** (p - 2.0) * fpp
        + (n - 1.0) / eta * abs(fp) ** (p - 2.0) * fp
        + alpha * f
        + params.beta * eta * fp
    )


def max_residual(profile: ClosedFormProfile, count: int = 50) -> float:
    """Worst |residual| over log-spaced interior points of the support (NaN if any is NaN)."""
    params = profile.params
    if isinstance(params, PMEParams):
        res = pme_residual
    elif isinstance(params, PLEParams):
        res = ple_residual
    else:
        raise TypeError("profile does not carry usable parameters")
    etas = profile.interior_points(count)
    return float(np.max([abs(res(profile, params, float(eta))) for eta in etas]))


def selfsimilar_value(params, profile, x_radius: float, t: float, T: Optional[float] = None) -> float:
    """Evaluate the self-similar ansatz u at radius ``x_radius`` and time ``t``.

    Type I: t^(-alpha) f(x t^(-beta)) for t > 0.
    Type II: (T-t)^alpha f(x (T-t)^beta) for t < T (T required).
    Type III: e^(alpha t) f(x e^(beta t)).
    """
    if x_radius < 0.0:
        raise DomainError("x_radius is a radius; it must be non-negative")
    alpha = alpha_from(params)
    beta = params.beta
    st = params.sim_type
    if st is SimilarityType.TYPE_I:
        if t <= 0.0:
            raise DomainError("Type I self-similar solutions live on t > 0")
        return t ** (-alpha) * profile.f(x_radius * t ** (-beta))
    if st is SimilarityType.TYPE_II:
        if T is None:
            raise SsflowError("Type II needs the extinction time T")
        if t >= T:
            raise DomainError(f"Type II solutions live on t < T = {T}")
        s = T - t
        return s ** alpha * profile.f(x_radius * s ** beta)
    return math.exp(alpha * t) * profile.f(x_radius * math.exp(beta * t))


def mass_integral(profile: ClosedFormProfile, params, t: float = 1.0, T: Optional[float] = None) -> float:
    """Total mass of the self-similar solution at time t (radial quadrature).

    Integrates u(r, t) r^(n-1) over the radial support and multiplies by the
    area of the unit sphere in dimension n.
    """
    from scipy.integrate import quad

    n = params.n
    omega = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    if params.sim_type is SimilarityType.TYPE_I:
        stretch = t ** params.beta
    elif params.sim_type is SimilarityType.TYPE_II:
        if T is None:
            raise SsflowError("Type II needs the extinction time T")
        stretch = (T - t) ** (-params.beta)
    else:
        stretch = math.exp(-params.beta * t)
    lo = profile.support[0] * stretch
    hi = profile.support[1] * stretch

    def integrand(r):
        return selfsimilar_value(params, profile, r, t, T) * r ** (n - 1.0)

    val, _ = quad(integrand, lo, hi, epsabs=1e-9, epsrel=1e-9, limit=200)
    return omega * val
