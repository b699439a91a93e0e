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

No quadrature library is needed.  The derivative-primary f is an
incomplete Beta integral, summed as two binomial series (``_beta_tail``).
``mass_integral`` stays a numerical oracle: a double-exponential rule
(tanh-sinh, or exp-sinh on an infinite support; Takahasi & Mori 1974), so
the mass-conservation check does not hold by construction.

Everything runs on Python floats and ``math``, without numpy: the C
library's log10, pow, exp, sinh and cosh give the same points and sums
whichever SIMD loops numpy would pick on the CPU at hand.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Optional

from ._records import CheckResult, ProfileSample, _Agg, _Record, _check_positive, _worst
from .errors import (
    CriticalError,
    DegenerateError,
    DomainError,
    IntegrationFailure,
    OutsideSupportError,
    SingularEvaluationError,
    SsflowError,
)
from .params import (
    _EXCLUSION_TOL,
    PLEParams,
    PMEParams,
    SimilarityType,
    _b,
    _is_critical,
    alpha_from,
    critical_exponents,
    line_betas_ple,
    line_betas_pme,
)


class ClosedFormProfile(_Record):
    """A radial profile with analytic first and second derivatives.

    ``support`` is the open interval of eta where the profile is admissible
    (positive profile, or positive derivative factor for derivative-primary
    profiles).  Negative eta raises DomainError and eta at or beyond a free
    boundary OutsideSupportError; eta = 0 gives the value where every power
    of eta in the formula is non-negative and SingularEvaluationError
    otherwise.
    """

    _fields = ("constants", "params", "f", "fprime", "fsecond", "support")

    def __init__(self, constants: dict | None = None, params: object = None, f: Callable[[float], float] = None,
                 fprime: Callable[[float], float] = None, fsecond: Callable[[float], float] = None,
                 support: tuple[float, float] = (0.0, math.inf)):
        vars(self).update(constants={} if constants is None else constants, params=params, f=f, fprime=fprime,
                          fsecond=fsecond, support=support)

    def interior_points(self, count: int = 50) -> list[float]:
        """Log-spaced points strictly inside the support, ``_geomspace`` between two margins.

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
        return _geomspace(lo_eff, hi_eff, count)

    def sample(self, etas) -> list[ProfileSample]:
        return [ProfileSample(float(e), self.f(float(e)), self.fprime(float(e))) for e in etas]


def _geomspace(lo: float, hi: float, count: int) -> list[float]:
    """``count`` log-spaced floats from lo to hi (both > 0), the two ends exact.

    The order of operations is numpy.geomspace's: a, b = log10(lo), log10(hi),
    step = (b - a) / (count - 1), then 10 ** (i step + a).  The C library's
    log10 and pow stand in for numpy's loops, whose results change with the
    SIMD extensions of the CPU.
    """
    if count == 1:
        return [lo]
    a, b = math.log10(lo), math.log10(hi)
    step = (b - a) / (count - 1)
    return [lo, *(10.0 ** (i * step + a) for i in range(1, count - 1)), hi]


def _power_law(A: float, q: float, L: float, c: float, E: float, e: float):
    """g = A eta^q (L - c eta^E)^e, its first two derivatives and its support.

    Returns ``(support, (g, g', g''))``.  The derivatives come from the
    product and chain rules as sums of terms k eta^a w^b with w = L - c eta^E.
    Each of the three evaluators has one domain policy: eta < 0 raises
    DomainError; at eta = 0 a negative power of eta raises
    SingularEvaluationError and any other formula returns its value; eta at or
    beyond the free boundary (w = 0) raises OutsideSupportError.
    """
    if c <= 0.0:
        support = (0.0, math.inf)
    else:
        try:
            edge = (L / c) ** (1.0 / E)
        except ZeroDivisionError:  # L/c underflowed to 0.0 and E < 0: the edge lies beyond the float range
            edge = math.inf
        except OverflowError:
            raise DomainError(f"the free boundary (L/c)^(1/E) = ({L}/{c})^(1/{E}) leaves the float range") from None
        support = (0.0, edge) if E > 0.0 else (edge, math.inf)
        if not support[0] < support[1]:
            raise DomainError(f"the free boundary eta = {edge} leaves the float range: the support is empty")
    lo, hi = support

    def refuse(eta, terms):
        if eta < 0.0:
            raise DomainError(f"eta must be non-negative, got {eta}")
        if eta != 0.0 or lo > 0.0:
            raise OutsideSupportError(f"eta = {eta} lies outside the open support ({lo}, {hi})")
        if (c != 0.0 and E < 0.0) or any(a < 0.0 for _, a, _ in terms):
            raise SingularEvaluationError("a negative power of eta is singular at eta = 0")
        try:
            return sum((k * L ** b for k, a, b in terms if a == 0.0), 0.0)
        except OverflowError:
            raise DomainError(f"a power L^b of L = {L} overflows at eta = 0") from None

    def evaluator(*terms):
        terms = [t for t in terms if t[0] != 0.0]
        overflowed = [t for t in terms if not math.isfinite(t[0])]

        def h(eta):
            if overflowed:  # an infinite k gives inf * 0 = nan where its power underflows
                k, a, b = overflowed[0]
                raise DomainError(f"the coefficient {k} of the term eta^{a} w^{b} is not finite")
            if not lo < eta < hi:
                return refuse(eta, terms)
            try:
                w = L - c * eta ** E
            except OverflowError:
                raise DomainError(f"eta^E = {eta}^{E} overflows") from None
            if not w > 0.0:
                raise OutsideSupportError(f"eta = {eta} is outside the positivity set")
            total = 0.0
            try:
                for k, a, b in terms:
                    total += k * eta ** a * w ** b
            except OverflowError:
                raise DomainError(f"eta^{a} w^{b} overflows at eta = {eta}, w = {w}") from None
            return total

        return h

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
    return support, derivs


def barenblatt_pme(m: float, n: float, C: float = 1.0) -> ClosedFormProfile:
    """Source-type profile f = (C - k eta^2)_+^(1/(m-1)) with k = (m-1) beta1 / 2.

    beta1 = 1/(n(m-1)+2) and alpha = n beta1 (Type I): the divergence term then
    absorbs alpha f + beta eta f' exactly, so the residual vanishes on the
    whole positivity set.  Compactly supported for m > 1, global for m < 1.
    """
    _check_positive("C", C)
    beta1, _ = line_betas_pme(m, n)
    if beta1 is None:
        raise DegenerateError("n(m-1) + 2 = 0: the source-type exponent degenerates")
    k = (m - 1.0) * beta1 / 2.0
    params = PMEParams(m, n, beta1, SimilarityType.TYPE_I)
    support, derivs = _power_law(1.0, 0.0, C, k, 2.0, 1.0 / (m - 1.0))
    return ClosedFormProfile({"C": C, "k": k, "beta1": beta1}, params, *derivs, support)


def barenblatt_ple(p: float, n: float, C: float = 1.0) -> ClosedFormProfile:
    """Source-type p-Laplacian profile from the ansatz |f'|^(p-2) f' = -beta eta f.

    f = (C - A eta^(p/(p-1)))_+^((p-1)/(p-2)) with
    A = ((p-2)/p) sign(beta1') |beta1'|^(1/(p-1)), beta1' = 1/(n(p-2)+p),
    alpha = n beta1' (Type I).
    """
    _check_positive("C", C)
    if p == 0.0 or p == 1.0:
        raise DegenerateError(f"p = {p} has no source-type profile of this form")
    beta1, _ = line_betas_ple(p, n)
    if beta1 is None:
        raise DegenerateError("n(p-2) + p = 0: the source-type exponent degenerates")
    params = PLEParams(p, n, beta1, SimilarityType.TYPE_I)  # refuses p = 2 and a non-finite n before A
    if beta1 == 0.0:
        raise DomainError(f"n(p-2) + p = {n * (p - 2.0) + p} leaves the float range: beta1 rounds to 0")
    try:
        A = (p - 2.0) / p * math.copysign(abs(beta1) ** (1.0 / (p - 1.0)), beta1)
    except OverflowError:
        raise DomainError(f"|beta1|^(1/(p-1)) = {abs(beta1)}^{1.0 / (p - 1.0)} overflows") from None
    support, derivs = _power_law(1.0, 0.0, C, A, p / (p - 1.0), (p - 1.0) / (p - 2.0))
    return ClosedFormProfile({"C": C, "A": A, "beta1": beta1}, params, *derivs, support)


def dipole_pme(m: float, n: float, K: float = 1.0) -> ClosedFormProfile:
    """Antisymmetric-source profile f = eta^q (K - eta^e / b)_+^(1/(m-1)).

    q = -(n-2)/m, e = (mn-n+2)/m, b = 2n(m - m_c)/(m-1); the similarity
    exponents are beta = 1/(2m) and alpha = 1/m (Type I).
    """
    _check_positive("K", K)
    _, beta2 = line_betas_pme(m, n)
    if beta2 is None:
        raise DegenerateError("m = 0 has no dipole profile of this form")
    if _is_critical(m, critical_exponents(n).m_c, _EXCLUSION_TOL):
        raise CriticalError("the dipole formula divides by b = 0 at m = m_c")
    params = PMEParams(m, n, beta2, SimilarityType.TYPE_I)  # refuses m = 1 before b divides by it
    b = _b(params)
    q = -(n - 2.0) / m
    e = (m * n - n + 2.0) / m
    support, derivs = _power_law(1.0, q, K, 1.0 / b, e, 1.0 / (m - 1.0))
    return ClosedFormProfile({"K": K, "b": b, "q": q, "e": e}, params, *derivs, support)


def dipole_derivative_ple(p: float, n: float, c: float = 1.0) -> ClosedFormProfile:
    """Derivative-primary profile: the closed form fixes f', not f.

    f'(eta) = eta^(-(n-1)/(p-1)) (c - eta^E/((p-1)b))_+^(1/(p-2)) with
    E = (p-2)b/p; beta = 1/p forces alpha = 0 (Type I), so f never enters the
    profile ODE.  f = -(integral of f' from eta to the right support endpoint),
    so f = 0 there; s = eta^E/((p-1)bc) turns it into the incomplete Beta
    integral of ``_beta_tail``.  f is defined wherever f' is.
    """
    _check_positive("c", c)
    _, beta2 = line_betas_ple(p, n)
    if beta2 is None or p == 1.0:
        raise DegenerateError(f"p = {p} has no derivative-primary profile of this form")
    if _is_critical(p, critical_exponents(n).p_c, _EXCLUSION_TOL):
        raise CriticalError("the derivative formula divides by b = 0 at p = p_c")
    params = PLEParams(p, n, beta2, SimilarityType.TYPE_I)  # refuses p = 2 before b divides by it
    b = _b(params)
    E = (p - 2.0) * b / p
    q = -(n - 1.0) / (p - 1.0)
    k, e = 1.0 / ((p - 1.0) * b), 1.0 / (p - 2.0)
    support, derivs = _power_law(1.0, q, c, k, E, e)
    fprime, fsecond, _ = derivs
    edge = support[1]
    if math.isinf(edge):
        raise DomainError("unbounded derivative support: no right endpoint to anchor f")
    # t = (c s / k)^(1/E): t^q (c - k t^E)^e dt = c^e (c/k)^a / E * s^(a-1) (1-s)^e ds
    a = (q + 1.0) / E
    try:
        scale = -(c ** e) * (c / k) ** a / E
    except OverflowError:
        raise DomainError(f"the scale c^e (c/k)^a of f overflows: c = {c}, c/k = {c / k}, e = {e}, a = {a}") from None
    if not e > -1.0:  # p - 2 rounds to -1 just below p = 1, where the integral for f diverges
        raise DegenerateError(f"p = {p}: the exponent 1/(p-2) = {e} leaves no integrable f")
    tail = _beta_tail(a, e)

    def f(eta):
        fprime(eta)  # the same domain policy as f'
        v = k * eta ** E
        return scale * tail(v / c, (c - v) / c)

    constants = {"c": c, "b": b, "E": E, "edge": edge}
    return ClosedFormProfile(constants, params, f, fprime, fsecond, support)


# A series stops once its remainder falls below this share of its sum, and
# refuses to run past _SERIES_TERMS terms.
_SERIES_TOL = 2.0 ** -56
_SERIES_TERMS = 100_000


def _beta_tail(a: float, e: float):
    """The integral of t^(a-1) (1-t)^e over [s, 1], for 0 <= s < 1, e > -1 and any real a.

    It is split at t = sigma into two binomial series:
    - on [s, sigma], (1-t)^e = sum c_k t^k with c_k = (-e)_k / k!, and t^(x-1)
      with x = a + k integrates to (sigma^x - s^x) / x, or to log(sigma/s)
      where x = 0;
    - on [sigma, 1], or on [s, 1] when s >= sigma, u = 1 - t gives
      t^(a-1) = sum d_k u^k with d_k = (1-a)_k / k!, and u^(e+k) integrates
      to u^(e+1+k) / (e+1+k).
    sigma = 1/2, so that each ratio is at most 1/2, unless one series
    alternates over many terms: the c_k alternate up to k = e and the d_k up
    to k = a - 1, which costs a factor ((1+t)/(1-t))^e (or the same in u) in
    relative accuracy.  So sigma = 1/e for e > 2, and 1 - 1/(a-1) for a > 3,
    which bounds that factor by e^2; the other series then has positive terms
    and converges more slowly.  Terms with x > 1/2 split into a constant,
    summed once here, and s^x / x, which shrinks like s^k; those with
    x <= 1/2 keep the expm1 form, so that x near 0 loses nothing to
    cancellation.

    Returns ``tail(s, u)``; the caller passes u = 1 - s, formed so that it
    keeps its digits near t = 1.  Raises DegenerateError where a series would
    need more than _SERIES_TERMS terms (e or |a| in the tens of thousands).
    """
    b = e + 1.0
    sigma = 1.0 / e if e > 2.0 else (1.0 - 1.0 / (a - 1.0) if a > 3.0 else 0.5)

    def upper(u):
        total, d, power = 0.0, 1.0, u ** b
        for k in range(_SERIES_TERMS):
            term = d * power / (b + k)
            total += term
            if d == 0.0 or (k >= a and abs(term) <= _SERIES_TOL * (1.0 - u) * abs(total)):
                return total
            d *= (k + 1 - a) / (k + 1)
            power *= u
        raise _too_many_terms(a, e)

    near, far = [], []  # (c_k, a + k) for a + k <= 1/2 and for a + k > 1/2
    const = upper(1.0 - sigma)
    c = 1.0
    for k in range(_SERIES_TERMS):
        x = a + k
        if x <= 0.5:
            near.append((c, x))
        else:
            term = c * sigma ** x / x
            const += term
            far.append((c, x))
            if c == 0.0 or (k > e and abs(term) <= _SERIES_TOL * (1.0 - sigma) * abs(const)):
                break
        c *= (k - e) / (k + 1)
    else:
        raise _too_many_terms(a, e)
    last_alternating = a + e

    def tail(s, u):
        if s >= sigma:
            return upper(u)
        ell = math.log(sigma / s) if s > 0.0 else math.inf
        total = const
        for c, x in near:
            if x == 0.0:
                total += c * ell
            elif x > 0.0:
                total -= c * sigma ** x * math.expm1(-x * ell) / x
            else:
                total += c * s ** x * math.expm1(x * ell) / x
        power = s ** far[0][1]
        for c, x in far:
            term = c * power / x
            total -= term
            if x > last_alternating and abs(term) <= _SERIES_TOL * (1.0 - s) * abs(total):
                break
            power *= s
        return total

    return tail


def _too_many_terms(a: float, e: float) -> DegenerateError:
    return DegenerateError(
        f"the incomplete Beta series for a = {a}, e = {e} needs more than {_SERIES_TERMS} terms"
    )


def loewner_nirenberg_pme(n: float, k1: float = 1.0) -> ClosedFormProfile:
    """Global fast-diffusion profile f = (k1 + eta^2/(4 n k1))^(-(n+2)/2).

    Lives at the Yamabe exponent m = m_s(n) with beta = 0, Type II, and
    alpha = (n+2)/4; requires n > 2.
    """
    if n <= 2.0:
        raise DomainError(f"this profile needs n > 2, got n = {n}")
    _check_positive("k1", k1)
    m = critical_exponents(n).m_s
    params = PMEParams(m, n, 0.0, SimilarityType.TYPE_II)
    support, derivs = _power_law(1.0, 0.0, k1, -1.0 / (4.0 * n * k1), 2.0, -(n + 2.0) / 2.0)
    return ClosedFormProfile({"k1": k1}, params, *derivs, support)


def yamabe_ple(n: float, k2: float = 1.0) -> ClosedFormProfile:
    """Global p-Laplacian profile at p = p_s(n): f = C (1 + k2 eta^(2n/(n-2)))^(-n/2).

    C = (4n/(n+2)) (4 n^3 k2 / (n^2-4))^((n-2)/4); beta = 0, Type II,
    alpha = (n+2)/4; requires n > 2.
    """
    if n <= 2.0:
        raise DomainError(f"this profile needs n > 2, got n = {n}")
    _check_positive("k2", k2)
    p = critical_exponents(n).p_s
    params = PLEParams(p, n, 0.0, SimilarityType.TYPE_II)
    C = 4.0 * n / (n + 2.0) * (4.0 * n ** 3 * k2 / (n * n - 4.0)) ** ((n - 2.0) / 4.0)
    support, derivs = _power_law(C, 0.0, 1.0, -k2, 2.0 * n / (n - 2.0), -n / 2.0)
    return ClosedFormProfile({"k2": k2, "C": C}, params, *derivs, support)


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
    try:
        return (
            f ** (m - 1.0) * fpp
            + (m - 1.0) * f ** (m - 2.0) * fp * fp
            + (n - 1.0) / eta * f ** (m - 1.0) * fp
            + alpha * f
            + params.beta * eta * fp
        )
    except OverflowError:
        raise DomainError(f"f^(m-1) or f^(m-2) overflows at eta = {eta}: f = {f}, m = {m}") from None


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
    try:
        return (
            (p - 1.0) * abs(fp) ** (p - 2.0) * fpp
            + (n - 1.0) / eta * abs(fp) ** (p - 2.0) * fp
            + alpha * f
            + params.beta * eta * fp
        )
    except OverflowError:
        raise DomainError(f"|f'|^(p-2) overflows at eta = {eta}: f' = {fp}, p = {p}") from None


def max_residual(profile: ClosedFormProfile, count: int = 50) -> float:
    """Worst |residual| over log-spaced interior points of the support (NaN if any is NaN)."""
    params = profile.params
    if isinstance(params, PMEParams):
        res = pme_residual
    elif isinstance(params, PLEParams):
        res = ple_residual
    else:
        raise TypeError("profile does not carry usable parameters")
    return _worst(res(profile, params, eta) for eta in profile.interior_points(count))


def _residual_check(name: str, profiles, count: int) -> CheckResult:
    """The closed-form residual check: every profile's ``max_residual`` over ``count`` points within 1e-8."""
    agg = _Agg(1e-8)
    for profile in profiles:
        agg.add(max_residual(profile, count))
    return agg.result(name)


def _check_time(sim_type: SimilarityType, t: float, T: Optional[float]) -> None:
    """The time domain of each similarity type: t finite, and t > 0 (Type I) or t < T, T finite (Type II)."""
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t}")
    if sim_type is SimilarityType.TYPE_I:
        if t <= 0.0:
            raise DomainError("Type I self-similar solutions live on t > 0")
    elif sim_type is SimilarityType.TYPE_II:
        if T is None:
            raise SsflowError("Type II needs the extinction time T")
        if not math.isfinite(T):
            raise DomainError(f"the extinction time T must be finite, got {T}")
        if t >= T:
            raise DomainError(f"Type II solutions live on t < T = {T}")


def selfsimilar_value(params, profile, x_radius: float, t: float, T: Optional[float] = None) -> float:
    """Evaluate the self-similar ansatz u at radius ``x_radius`` and time ``t``.

    Type I: t^(-alpha) f(x t^(-beta)) for t > 0.
    Type II: (T-t)^alpha f(x (T-t)^beta) for t < T (T required and finite).
    Type III: e^(alpha t) f(x e^(beta t)).
    Every type needs a finite t.
    """
    if not 0.0 <= x_radius < math.inf:  # refuses NaN
        raise DomainError(f"x_radius is a radius; it must be non-negative and finite, got {x_radius}")
    st = params.sim_type
    _check_time(st, t, T)
    scale = _time_factor(st, t, T, alpha_from(params), "alpha")
    f = profile.f(x_radius * _time_factor(st, t, T, params.beta, "beta"))
    u = scale * f
    if not math.isfinite(u) and math.isfinite(scale) and math.isfinite(f):
        raise DomainError(f"u = {scale} * {f}, the time factor times f, overflows at x_radius = {x_radius}, t = {t}")
    return u


def _time_factor(st: SimilarityType, t: float, T: Optional[float], a: float, name: str) -> float:
    """t^(-a), (T - t)^a or e^(a t) for Types I, II and III; DomainError where it overflows."""
    try:
        if st is SimilarityType.TYPE_I:
            return t ** (-a)
        if st is SimilarityType.TYPE_II:
            return (T - t) ** a
        return math.exp(a * t)
    except OverflowError:
        power = {SimilarityType.TYPE_I: "t^(-a)", SimilarityType.TYPE_II: "(T - t)^a"}.get(st, "e^(a t)")
        raise DomainError(f"the time factor {power} of {name} overflows: a = {a}, t = {t}, T = {T}") from None


# Double-exponential rule: nodes t = j h on |t| <= _DE_SPAN, at most _DE_LEVELS
# halvings of h, and done when two successive sums agree to _DE_TOL.
_DE_SPAN = 4.0
_DE_LEVELS = 10
_DE_TOL = 1e-10


@lru_cache(maxsize=2 * _DE_LEVELS)
def _de_level(level: int, infinite: bool) -> tuple[tuple[bool, float, float], ...]:
    """The nodes of one level on a unit scale, as (left, offset, weight) in increasing t.

    Level 0 has t = -_DE_SPAN, ..., _DE_SPAN in steps of 1; level k adds the
    odd multiples of h = 2^-k.  With u = pi/2 sinh t, exp-sinh puts a node at
    lo + scale * offset, offset = exp(u).  tanh-sinh puts it at
    lo + width * offset on the left half (``left``) and at hi - width * offset
    on the right, offset = 1 / (1 + exp(2|u|)) being its distance to the
    nearer end.  ``weight`` is dx/dt per unit of scale or width.
    """
    h = 2.0 ** -level
    first, stride = (0, 1) if level == 0 else (1, 2)
    nodes = []
    for j in range(first, round(2.0 * _DE_SPAN / h) + 1, stride):
        t = j * h - _DE_SPAN  # exact: a multiple of h no larger than _DE_SPAN
        u = 0.5 * math.pi * math.sinh(t)
        dudt = 0.5 * math.pi * math.cosh(t)
        if infinite:
            offset = math.exp(u)
            weight = dudt * offset
        else:
            offset = 1.0 / (1.0 + math.exp(2.0 * abs(u)))
            cosh_u = math.cosh(u)
            weight = 0.5 * dudt / (cosh_u * cosh_u)
        nodes.append((t < 0.0, offset, weight))
    return tuple(nodes)


def _double_exponential(g, lo: float, hi: float, scale: float) -> float:
    """Integral of g over (lo, hi) by the double-exponential rule (Takahasi & Mori 1974).

    On a finite interval, tanh-sinh: x = lo + (hi - lo) / (1 + exp(-pi sinh t)).
    On [lo, inf), exp-sinh: x = lo + scale exp(pi/2 sinh t).  The step h
    halves, and each level adds only the new odd nodes, until two successive
    sums agree to _DE_TOL.  Each level's terms are summed one by one in
    increasing t.  The distance to the nearer end is formed directly, and a
    node that rounds onto an end is dropped, so g is never called at lo or
    hi.  Raises IntegrationFailure if the outermost terms are not negligible
    (a divergent or slowly decaying integral) or the sums do not settle.
    """
    infinite = math.isinf(hi)
    width = scale if infinite else hi - lo
    total = 0.0
    for level in range(_DE_LEVELS):
        part, terms = 0.0, []
        for left, offset, weight in _de_level(level, infinite):
            gap = width * offset
            x = lo + gap if infinite or left else hi - gap
            if lo < x < hi:
                terms.append(width * weight * g(x))
                part += terms[-1]
        part *= 2.0 ** -level
        # the rule ends at |t| = _DE_SPAN, so the outermost terms bound what it leaves out
        if level == 0 and not abs(terms[0]) + abs(terms[-1]) <= _DE_TOL * abs(part):
            raise IntegrationFailure(f"the integrand does not decay toward the ends of ({lo}, {hi})")
        previous, total = total, 0.5 * total + part if level else part
        if level and abs(total - previous) <= _DE_TOL * abs(total):
            return total
    raise IntegrationFailure(f"double-exponential quadrature did not settle to {_DE_TOL} in {_DE_LEVELS} levels")


def mass_integral(profile: ClosedFormProfile, params, t: float = 1.0, T: Optional[float] = None) -> float:
    """Total mass of the self-similar solution at time t (radial quadrature).

    Integrates u(r, t) r^(n-1) over the radial support with
    ``_double_exponential`` and multiplies by the area of the unit sphere in
    dimension n.  t and T have the domain of ``selfsimilar_value``.
    """
    _check_time(params.sim_type, t, T)
    n = params.n
    omega = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    stretch = _time_factor(params.sim_type, t, T, -params.beta, "-beta")
    lo = profile.support[0] * stretch
    hi = profile.support[1] * stretch

    def integrand(r):
        return selfsimilar_value(params, profile, r, t, T) * r ** (n - 1.0)

    return omega * _double_exponential(integrand, lo, hi, stretch)
