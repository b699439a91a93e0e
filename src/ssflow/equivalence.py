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

from dataclasses import dataclass
from enum import Enum

from .errors import (
    CriticalError,
    DegenerateError,
    DimensionTwoError,
    UnphysicalDimensionError,
)
from .params import PLEParams, PMEParams, _is_critical, critical_exponents, unified_coefficients

# Band around the excluded values m_c / p_c inside which the maps refuse to run.
_EXCLUSION_TOL = 1e-12


class Branch(Enum):
    BRANCH1 = 1
    BRANCH2 = 2


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of checking all coefficient identities for a parameter pair.

    All booleans use the single tolerance stored in ``tol``;
    ``c_max_rel_dev`` is the worst relative deviation over (c1, c2, c3),
    taken in the better of the two orientations.  ``flipped`` records that
    the match holds in the reversed orientation (Psi, Phi, r1) ->
    (Psi, -Phi, -r1), which negates c2 and c3 together; one of the two
    branch images always sits in that orientation because the dimension
    quadratic squares the c3 identification.  ``sum_identity_value``
    records 1/n'_1 + 1/n'_2 computed from the porous-medium side (its
    target is (1-m)/(m+1) = (2-p)/p).
    """

    c_match: bool
    c_max_rel_dev: float
    beta_identity: bool
    b_ratio: bool
    sign_match: bool
    sum_identity_value: float
    tol: float
    flipped: bool = False

    @property
    def passed(self) -> bool:
        return self.c_match and self.beta_identity and self.b_ratio and self.sign_match


def coefficient_deviation(ca, cb) -> tuple[float, bool]:
    """Worst relative (c1, c2, c3) deviation over the two orientations.

    Returns the deviation and whether the reversed orientation (c2, c3
    negated on one side) was the matching one.
    """
    same = max(_rel_dev(ca.c1, cb.c1), _rel_dev(ca.c2, cb.c2), _rel_dev(ca.c3, cb.c3))
    flip = max(_rel_dev(ca.c1, cb.c1), _rel_dev(ca.c2, -cb.c2), _rel_dev(ca.c3, -cb.c3))
    if flip < same:
        return flip, True
    return same, False


def _guard_pme_source(m: float, n: float, branch: Branch | None) -> None:
    if abs(n - 2.0) <= _EXCLUSION_TOL:
        raise DimensionTwoError("the dimension-change maps are not applicable for n = 2")
    m_c = critical_exponents(n).m_c
    if _is_critical(m, m_c, _EXCLUSION_TOL):
        raise CriticalError(f"m = m_c({n}) = {m_c}: no double branch at the critical exponent")
    if m == 0.0 and branch is not Branch.BRANCH2:
        # The second branch stays finite at m = 0 (it gives n' = 1); the first divides by 2m.
        raise DegenerateError("m = 0 is only mapped by Branch2")


def _guard_p_zero(m: float) -> None:
    # beta' = beta F / (m+1) and the inverse dimension formulas divide by m + 1 = p.
    if abs(m + 1.0) <= _EXCLUSION_TOL:
        raise DegenerateError("p = m + 1 = 0: the branch maps divide by m + 1")


def _image(m: float, n: float, branch: Branch) -> tuple[float, float]:
    """(n', F) of the forward map on one branch, unguarded; beta' = beta F / (m+1)."""
    if branch is Branch.BRANCH1:
        return (n - 2.0) * (m + 1.0) / (2.0 * m), 2.0 * m
    return (n - 2.0) * (m + 1.0) / (n - 2.0 - n * m), n * (m - 1.0) + 2.0


def _preimage(m: float, n_prime: float, branch: Branch) -> tuple[float, float]:
    """(n, F) of the inverse map on one branch, m = p - 1; F as in ``_image``."""
    _guard_p_zero(m)
    if branch is Branch.BRANCH1:
        return 2.0 + 2.0 * m * n_prime / (m + 1.0), 2.0 * m
    n = 2.0 * (n_prime - m - 1.0) / (n_prime * (1.0 - m) - m - 1.0)
    return n, n * (m - 1.0) + 2.0


def pme_branch_dimensions(m: float, n: float) -> tuple[float, float]:
    """Raw target dimensions (n'_1, n'_2) without the positivity check."""
    _guard_pme_source(m, n, Branch.BRANCH2 if m == 0.0 else None)
    n1 = float("nan") if m == 0.0 else _image(m, n, Branch.BRANCH1)[0]
    return n1, _image(m, n, Branch.BRANCH2)[0]


def ple_preimage_dimensions(p: float, n_prime: float) -> tuple[float, float]:
    """Raw source dimensions (n_1, n_2) inverting the two branches."""
    m = p - 1.0
    n1 = _preimage(m, n_prime, Branch.BRANCH1)[0]
    # n'(1-m) - (m+1) = (n'+1)(p_c - p): in ple_to_pme the p_c guard refuses this point.
    if abs(n_prime * (1.0 - m) - m - 1.0) <= _EXCLUSION_TOL:
        raise DegenerateError("Branch2 inverse degenerates: n'(1-m) = m+1")
    return n1, _preimage(m, n_prime, Branch.BRANCH2)[0]


def pme_to_ple(params: PMEParams, branch: Branch) -> PLEParams:
    """Map (m, n, beta) to the matched p-Laplacian parameters on one branch.

    Requires n != 2 and m outside {-1, 0 (Branch1 only), m_c, 1}.  A non-positive
    target dimension raises, with the raw value attached to the error.
    """
    m, n, beta = params.m, params.n, params.beta
    _guard_pme_source(m, n, branch)
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
    m = p - 1.0
    n, factor = _preimage(m, n_prime, branch)
    beta = beta_prime * (m + 1.0) / factor
    if n <= 0.0:
        raise UnphysicalDimensionError(
            f"{branch.name} inverse of (p={p}, n'={n_prime}) gives non-positive dimension n={n}",
            n_prime=n,
        )
    return PMEParams(m, n, beta, params.sim_type)


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


def verify_equivalence(pme: PMEParams, ple: PLEParams, tol: float = 1e-10) -> EquivalenceReport:
    """Check every coefficient identity for a matched parameter pair.

    Reports the field-wise coefficient match, beta^2 (n-2)^2 = (beta' n')^2,
    b'/b = n'^2/(n-2)^2, sgn(b) = sgn(b'), and the branch-sum diagnostic.
    Refuses critical parameters (the ratio identities divide by b) and the
    porous-medium sources the maps refuse (n = 2, m = -1).
    """
    ca = unified_coefficients(pme)
    cb = unified_coefficients(ple)
    if ca.critical or cb.critical:
        raise CriticalError("identity checks divide by b; critical parameters refused")
    n1, n2 = pme_branch_dimensions(pme.m, pme.n)
    _guard_p_zero(pme.m)

    c_max, flipped = coefficient_deviation(ca, cb)
    c_match = c_max <= tol and ca.const_term == cb.const_term and ca.psi_coeff == cb.psi_coeff

    lhs = (pme.beta * (pme.n - 2.0)) ** 2
    rhs = (ple.beta * ple.n) ** 2
    beta_identity = _rel_dev(lhs, rhs) <= tol

    ratio = cb.b / ca.b
    target = (ple.n / (pme.n - 2.0)) ** 2
    b_ratio = _rel_dev(ratio, target) <= tol

    sign_match = ca.const_term == cb.const_term

    sum_value = 1.0 / n1 + 1.0 / n2

    return EquivalenceReport(
        c_match=c_match,
        c_max_rel_dev=c_max,
        beta_identity=beta_identity,
        b_ratio=b_ratio,
        sign_match=sign_match,
        sum_identity_value=sum_value,
        tol=tol,
        flipped=flipped,
    )
