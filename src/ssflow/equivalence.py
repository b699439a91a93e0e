"""Two-branch parameter maps between porous-medium and p-Laplacian flows.

Matching the unified phase-plane coefficients of both equations forces
p = m + 1 and a quadratic condition on the target dimension, hence two
branches in either direction:

    n'_1 = (n-2)(m+1) / (2m),          beta'_1 = beta * 2m/(m+1)
    n'_2 = (n-2)(m+1) / (n-2-nm),      beta'_2 = beta * (n(m-1)+2)/(m+1)

The two branches coincide exactly at the Yamabe exponent m = m_s, where
n' = n.  Composing the two directions with different branches yields
self-maps of either equation that change the dimension; the branch pairs
satisfy 1/n'_1 + 1/n'_2 = (2-p)/p and 1/(n_1-2) + 1/(n_2-2) = (1-m)/(2m).
"""

from __future__ import annotations

from enum import Enum

from ._records import _Record, _worst
from .errors import (
    CriticalError,
    DegenerateError,
    DimensionTwoError,
    DomainError,
    UnphysicalDimensionError,
)
from .params import _EXCLUSION_TOL, PLEParams, PMEParams, _is_critical, critical_exponents, unified_coefficients

DEFAULT_IDENTITY_TOL = 1e-10  # the coefficient identities' tolerance unless a caller or SSFLOW_TOL sets one


class Branch(Enum):
    BRANCH1 = 1
    BRANCH2 = 2


class EquivalenceReport(_Record):
    """The coefficient identities of a parameter pair, each measured once by ``verify_equivalence``.

    ``c_max_rel_dev`` is the worst relative (c1, c2, c3) deviation in the better of the
    two orientations, ``beta_dev`` and ``b_ratio_dev`` those of beta^2 (n-2)^2 = (beta' n')^2
    and b'/b = n'^2/(n-2)^2; ``sign_match`` (sgn b = sgn b') and ``psi_match`` are discrete.
    Each boolean is ``dev <= tol`` of its deviation, so a NaN fails.  ``flipped`` records
    that the match holds in the reversed orientation (Psi, Phi, r1) -> (Psi, -Phi, -r1),
    which negates c2 and c3 together; one of the two branch images always sits in that
    orientation because the dimension quadratic squares the c3 identification.
    """

    _fields = ("c_max_rel_dev", "beta_dev", "b_ratio_dev", "sign_match", "psi_match", "tol", "flipped")

    def __init__(self, c_max_rel_dev: float, beta_dev: float, b_ratio_dev: float, sign_match: bool,
                 psi_match: bool, tol: float, flipped: bool = False):
        vars(self).update(c_max_rel_dev=c_max_rel_dev, beta_dev=beta_dev, b_ratio_dev=b_ratio_dev,
                          sign_match=sign_match, psi_match=psi_match, tol=tol, flipped=flipped)

    @property
    def c_match(self) -> bool:
        return self.c_max_rel_dev <= self.tol and self.sign_match and self.psi_match

    @property
    def beta_identity(self) -> bool:
        return self.beta_dev <= self.tol

    @property
    def b_ratio(self) -> bool:
        return self.b_ratio_dev <= self.tol

    @property
    def passed(self) -> bool:
        return self.c_match and self.beta_identity and self.b_ratio


def coefficient_deviation(ca, cb) -> tuple[float, bool]:
    """Worst relative (c1, c2, c3) deviation over the two orientations, by ``_worst``: a NaN is the worst.

    Returns the deviation and whether the reversed orientation (c2, c3
    negated on one side) was the matching one.
    """
    c1_dev = _rel_dev(ca.c1, cb.c1)
    same = _worst((c1_dev, _rel_dev(ca.c2, cb.c2), _rel_dev(ca.c3, cb.c3)))
    flip = _worst((c1_dev, _rel_dev(ca.c2, -cb.c2), _rel_dev(ca.c3, -cb.c3)))
    if flip < same:
        return flip, True
    return same, False


def _guard_pme_source(m: float, n: float) -> None:
    if abs(n - 2.0) <= _EXCLUSION_TOL:
        raise DimensionTwoError("the dimension-change maps are not applicable for n = 2")
    m_c = critical_exponents(n).m_c
    if _is_critical(m, m_c, _EXCLUSION_TOL):
        raise CriticalError(f"m = m_c({n}) = {m_c}: no double branch at the critical exponent")


def _guard_p_zero(m: float) -> None:
    # beta' = beta F / (m+1) and the inverse dimension formulas divide by m + 1 = p.
    if abs(m + 1.0) <= _EXCLUSION_TOL:
        raise DegenerateError("p = m + 1 = 0: the branch maps divide by m + 1")


def _image(m: float, n: float, branch: Branch) -> tuple[float, float]:
    """(n', F) of the forward map on one branch, unguarded; beta' = beta F / (m+1)."""
    if branch is Branch.BRANCH1:
        return (n - 2.0) * (m + 1.0) / (2.0 * m), 2.0 * m
    return (n - 2.0) * (m + 1.0) / (n - 2.0 - n * m), n * (m - 1.0) + 2.0


def _preimage(p: float, n_prime: float, branch: Branch) -> tuple[float, float]:
    """(n, F) of the inverse map on one branch; F as in ``_image``, so beta = beta' p / F.

    Written in p rather than m = p - 1, whose rounding would lose the low bits of a small p.
    """
    _guard_p_zero(p - 1.0)
    if branch is Branch.BRANCH1:
        return 2.0 + 2.0 * (p - 1.0) * n_prime / p, 2.0 * (p - 1.0)
    n = 2.0 * (n_prime - p) / (n_prime * (2.0 - p) - p)
    return n, n * (p - 2.0) + 2.0


def pme_branch_dimensions(m: float, n: float) -> tuple[float, float]:
    """Raw target dimensions (n'_1, n'_2) without the positivity check."""
    _guard_pme_source(m, n)
    n1 = float("nan") if m == 0.0 else _image(m, n, Branch.BRANCH1)[0]
    return n1, _image(m, n, Branch.BRANCH2)[0]


def ple_preimage_dimensions(p: float, n_prime: float) -> tuple[float, float]:
    """Raw source dimensions (n_1, n_2) inverting the two branches."""
    n1 = _preimage(p, n_prime, Branch.BRANCH1)[0]
    # n'(2-p) - p = (n'+1)(p_c - p): in ple_to_pme the p_c guard refuses this point.
    if abs(n_prime * (2.0 - p) - p) <= _EXCLUSION_TOL:
        raise DegenerateError("Branch2 inverse degenerates: n'(1-m) = m+1")
    return n1, _preimage(p, n_prime, Branch.BRANCH2)[0]


def pme_to_ple(params: PMEParams, branch: Branch) -> PLEParams:
    """Map (m, n, beta) to the matched p-Laplacian parameters on one branch.

    Requires n != 2 and m outside {-1, 0 (Branch1 only), m_c, 1}.  A non-positive
    target dimension raises, with the raw value attached to the error.
    """
    m, n, beta = params.m, params.n, params.beta
    _guard_pme_source(m, n)
    if m == 0.0 and branch is not Branch.BRANCH2:  # Branch2 stays finite at m = 0 (n' = 1); Branch1 divides by 2m
        raise DegenerateError("m = 0 is only mapped by Branch2")
    _guard_p_zero(m)
    p = m + 1.0
    n_prime, factor = _image(m, n, branch)
    beta_prime = beta * factor / (m + 1.0)
    if n_prime <= 0.0:
        raise UnphysicalDimensionError(
            f"{branch.name} of (m={m}, n={n}) gives non-positive dimension n'={n_prime}",
            n_prime=n_prime,
        )
    return PLEParams(p, n_prime, beta_prime, params.sim_type)


def ple_to_pme(params: PLEParams, branch: Branch) -> PMEParams:
    """Invert the dimension-change map on one branch: m = p - 1.

    Requires p != p_c(n') (the critical identification point) and p not in
    {0, 1, 2}.  Round-tripping the forward map on the same branch is the identity.
    """
    p, n_prime, beta_prime = params.p, params.n, params.beta
    if abs(p - 1.0) <= _EXCLUSION_TOL:
        raise DegenerateError("p = 1 maps to m = 0; the inverse branch pair is not defined there")
    p_c = critical_exponents(n_prime).p_c
    if _is_critical(p, p_c, _EXCLUSION_TOL):
        raise CriticalError(f"p = p_c({n_prime}) = {p_c}: critical identification point")
    n, factor = _preimage(p, n_prime, branch)
    if factor == 0.0:  # Branch2's F cancels to 0.0 for a large n'; exactly, F = 2p(1-p)/(n'(2-p) - p)
        raise DegenerateError(f"{branch.name} inverse of (p={p}, n'={n_prime}): F = n(p-2) + 2 rounds to 0")
    beta = beta_prime * p / factor
    if n <= 0.0:
        raise UnphysicalDimensionError(
            f"{branch.name} inverse of (p={p}, n'={n_prime}) gives non-positive dimension n={n}",
            n_prime=n,
        )
    return PMEParams(p - 1.0, n, beta, params.sim_type)


def self_map(params, first: Branch, second: Branch):
    """Map an equation into itself through the other one, changing dimension.

    Porous medium: forward on ``first``, back on ``second`` (m unchanged, n and
    beta change); analogously for the p-Laplacian.  Using the same branch twice
    reproduces the input.
    """
    if isinstance(params, PMEParams):
        return ple_to_pme(pme_to_ple(params, first), second)
    if isinstance(params, PLEParams):
        return pme_to_ple(ple_to_pme(params, first), second)
    raise TypeError(f"expected PMEParams or PLEParams, got {type(params).__name__}")


def _rel_dev(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _square(name: str, x: float) -> float:
    """x ** 2, whose OverflowError past about 1.3e154 becomes a DomainError naming the square."""
    try:
        return x ** 2
    except OverflowError:
        raise DomainError(f"the square of {name} = {x} overflows") from None


def verify_equivalence(pme: PMEParams, ple: PLEParams, tol: float = DEFAULT_IDENTITY_TOL) -> EquivalenceReport:
    """Measure every coefficient identity of a matched parameter pair, the one place they are computed.

    Reports the relative deviations of (c1, c2, c3), beta^2 (n-2)^2 = (beta' n')^2
    and b'/b = n'^2/(n-2)^2 (each by ``_rel_dev``), sgn(b) = sgn(b') and the Psi coefficient.
    Refuses critical parameters (the ratio identities divide by b) and the
    porous-medium sources the maps refuse (n = 2, m = -1).
    """
    ca = unified_coefficients(pme)
    cb = unified_coefficients(ple)
    if ca.critical or cb.critical:
        raise CriticalError("identity checks divide by b; critical parameters refused")
    _guard_pme_source(pme.m, pme.n)  # the maps' guards on the source (n = 2, m = m_c; m = 0 maps on Branch2)
    _guard_p_zero(pme.m)

    c_max, flipped = coefficient_deviation(ca, cb)
    return EquivalenceReport(
        c_max_rel_dev=c_max,
        beta_dev=_rel_dev(_square("beta (n - 2)", pme.beta * (pme.n - 2.0)), _square("beta' n'", ple.beta * ple.n)),
        b_ratio_dev=_rel_dev(cb.b / ca.b, _square("n'/(n - 2)", ple.n / (pme.n - 2.0))),
        sign_match=ca.const_term == cb.const_term,
        psi_match=ca.psi_coeff == cb.psi_coeff,
        tol=tol,
        flipped=flipped,
    )
