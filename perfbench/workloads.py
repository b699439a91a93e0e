"""Seeded operation lists for the three benchmark workloads.

Standard library only: the ``cli_mix`` driver builds its inputs without
importing ssflow, so package import is paid only inside the timed CLI
processes.  An operation list depends on the seed and nothing else.

Kinds are drawn in shuffled blocks whose composition is fixed, so every
whole block has exactly the stated shares and a short run still sees the
intended mix.  Parameters are drawn from a second stream, so a shorter list
is a prefix of a longer one; ``orbit_ensemble`` draws them stratified (see
``Stratified``).
"""

from __future__ import annotations

import math
import random

# Operations per block of each kind; the share of a kind is count / block size.
CLI_BLOCK = {"coeffs": 4, "map": 4, "integrate": 4, "profile": 3, "explicit": 4, "verify": 1}
ORBIT_BLOCK = {"short": 7, "long": 6, "event": 3, "conjugacy": 2, "reconstruct": 2}

# Step budgets: large enough that most orbits end by the span or the
# divergence guard, small enough that no single task dominates a run.
SHORT_MAX_STEPS = 300
LONG_MAX_STEPS = 1200
# Strata per parameter in orbit_ensemble (see Stratified).
ORBIT_STRATA = 64


def shares(block: dict) -> dict:
    total = sum(block.values())
    return {kind: count / total for kind, count in block.items()}


def draw_kinds(rng: random.Random, block: dict, count: int) -> list[str]:
    kinds: list[str] = []
    while len(kinds) < count:
        chunk = [kind for kind, c in block.items() for _ in range(c)]
        rng.shuffle(chunk)
        kinds.extend(chunk)
    return kinds[:count]


def _crit_pme(n):
    return (n - 2.0) / n, (n - 2.0) / (n + 2.0)


def _crit_ple(n):
    return 2.0 * n / (n + 1.0), 2.0 * n / (n + 2.0)


# ----------------------------------------------------------------------
# cli_mix
# ----------------------------------------------------------------------

def _pme_map_valid(m, n):
    """Non-critical, n != 2, and at least one branch with a positive dimension."""
    m_c, _ = _crit_pme(n)
    if abs(m - 1.0) < 1e-6 or abs(m - m_c) < 1e-3 or abs(n - 2.0) < 1e-6 or m == 0.0:
        return False
    n1 = (n - 2.0) * (m + 1.0) / (2.0 * m)
    n2 = (n - 2.0) * (m + 1.0) / (n - 2.0 - n * m)
    return max(n1, n2) > 0.0


def _ple_map_valid(p, n):
    p_c, _ = _crit_ple(n)
    return p > 1.0 and abs(p - 2.0) > 1e-6 and abs(p - p_c) > 1e-3


PME_CELLS = tuple(
    (m, n)
    for m in (-1.0 / 3.0, 0.2, 0.25, 0.5, 0.8, 1.5, 2.0, 3.0)
    for n in (1.0, 2.5, 3.0, 4.0, 5.0, 6.0)
    if _pme_map_valid(m, n)
)
PLE_CELLS = tuple(
    (p, n)
    for p in (1.25, 1.5, 1.8, 2.5, 3.0, 4.0)
    for n in (1.0, 2.5, 3.0, 4.0, 5.0)
    if _ple_map_valid(p, n)
)
# (m, n) with m > 1 for invariant-line starts: b > 0 and Type I.
LINE_CELLS = ((2.0, 1.0), (3.0, 1.0), (1.5, 3.0), (2.0, 3.0), (3.0, 4.0), (2.5, 5.0))

EXPLICIT_CASES = {
    "barenblatt-pme": ("m", (1.5, 2.0, 3.0), (1.0, 3.0, 4.0), "C"),
    "barenblatt-ple": ("p", (2.5, 3.0, 4.0), (1.0, 3.0, 4.0), "C"),
    "dipole-pme": ("m", (2.0, 3.0), (1.0, 3.0), "K"),
    "dipole-derivative-ple": ("p", (3.0, 4.0), (1.0, 3.0), "c"),
    "loewner-nirenberg-pme": (None, None, (3.0, 4.0, 5.0, 6.0), "k1"),
    "yamabe-ple": (None, None, (3.0, 4.0, 5.0, 6.0), "k2"),
}

PRESETS = {"barenblatt-line": "barenblatt_line.csv", "yamabe-vertex": "yamabe_vertex.csv"}
PROFILE_TOL = 1e-8  # |f - (1 - eta^2/6)| on every Barenblatt profile row
LINE_TOL = 1e-8  # |Phi - a (Psi + 1)| on every row of an invariant-line orbit


def line_slope(m: float, n: float, beta: float) -> float:
    """a in Phi = a Psi + a for the PME Type I line (a = c2 / (c1 - 1))."""
    m_c, _ = _crit_pme(n)
    s = math.sqrt(abs(2.0 * n * (m - m_c) / (m - 1.0)))
    return beta * s * (m - 1.0)


def _param_flags(rng, eq, sim):
    if eq == "pme":
        m, n = rng.choice(PME_CELLS)
        flags = ["--eq", "pme", "--m", repr(m)]
    else:
        p, n = rng.choice(PLE_CELLS)
        flags = ["--eq", "ple", "--p", repr(p)]
    beta = rng.uniform(-1.0, 1.5)
    return flags + ["--n", repr(n), "--beta", repr(beta), "--sim-type", str(sim)]


def _cli_op(rng, kind):
    if kind in ("coeffs", "map"):
        argv = [kind] + _param_flags(rng, rng.choice(("pme", "ple")), rng.choice((1, 2, 3)))
        return {"kind": kind, "argv": argv}
    if kind == "integrate":
        u = rng.random()
        if u < 0.5:
            preset = "barenblatt-line" if u < 0.25 else "yamabe-vertex"
            return {"kind": kind, "argv": ["integrate", "--preset", preset], "golden": PRESETS[preset]}
        m, n = rng.choice(LINE_CELLS)
        beta = rng.choice((1.0 / (n * (m - 1.0) + 2.0), 1.0 / (2.0 * m)))
        a = line_slope(m, n, beta)
        psi0 = rng.uniform(0.01, 0.5)
        if rng.random() < 0.7:
            # forward along the line: Psi blows up at r1 = log((1 + psi0)/psi0) / a
            end = rng.uniform(0.3, 0.8) * math.log((1.0 + psi0) / psi0) / a
        else:
            end = -rng.uniform(1.0, 4.0)
        argv = ["integrate", "--eq", "pme", "--m", repr(m), "--n", repr(n), "--beta", repr(beta),
                "--psi0", repr(psi0), "--phi0", repr(a * psi0 + a), "--span", "0", repr(end)]
        return {"kind": kind, "argv": argv, "line": a}
    if kind == "profile":
        # Barenblatt profile f = 1 - eta^2/6 of (m, n, C) = (2, 1, 1), beta = 1/3;
        # its support ends at eta = sqrt(6).
        eta0 = rng.uniform(0.5, 1.5)
        eta1 = rng.uniform(0.3, 2.0)
        while abs(math.log(eta1 / eta0)) < 0.1:
            eta1 = rng.uniform(0.3, 2.0)
        f0, fp0 = 1.0 - eta0 * eta0 / 6.0, -eta0 / 3.0
        x, y = eta0 * fp0 / f0, eta0 * eta0 / f0
        s = math.sqrt(6.0)
        argv = ["profile", "--eq", "pme", "--m", "2", "--n", "1", "--beta", repr(1.0 / 3.0),
                "--psi0", repr(y / 6.0), "--phi0", repr((2.0 - x) / s),
                "--span", "0", repr(s * math.log(eta1 / eta0)), "--anchor-eta", repr(eta0)]
        return {"kind": kind, "argv": argv}
    if kind == "explicit":
        name = rng.choice(sorted(EXPLICIT_CASES))
        flag, exps, dims, const = EXPLICIT_CASES[name]
        argv = ["explicit", "--kind", name, "--n", repr(rng.choice(dims)),
                f"--{const}", repr(rng.uniform(0.5, 2.0)), "--points", str(rng.randint(30, 80))]
        if flag is not None:
            argv += [f"--{flag}", repr(rng.choice(exps))]
        return {"kind": kind, "argv": argv}
    if kind == "verify":
        return {"kind": kind, "argv": ["verify", "--grid", "default"]}
    raise ValueError(kind)


def cli_ops(seed: int, count: int) -> list[dict]:
    kinds = draw_kinds(random.Random(f"cli_mix/{seed}/kinds"), CLI_BLOCK, count)
    rng = random.Random(f"cli_mix/{seed}")
    return [_cli_op(rng, kind) for kind in kinds]


# A fixed, seed-independent warm-up command.
CLI_WARMUP_ARGV = ["coeffs", "--eq", "pme", "--m", "2", "--n", "1", "--beta", "0.25"]


# ----------------------------------------------------------------------
# orbit_ensemble
# ----------------------------------------------------------------------

class Stratified:
    """Seeded draws that cover each parameter's range evenly.

    Each named draw takes its values from a shuffled deck of ``size`` strata:
    every ``size`` consecutive draws of one name put exactly one value in
    each 1/size of the range, and the decks of different names are shuffled
    independently (a Latin hypercube).  The cost of an orbit depends
    strongly on its parameters, so this narrows how much a run's work
    differs between seeds: over the first 600 operations of seeds 1-8, the
    quartile spread of the per-seed median RHS evaluations per operation
    fell from 0.095 to 0.059 of its median, and that of the mean from 0.077
    to 0.053.
    """

    def __init__(self, rng: random.Random, size: int):
        self.rng, self.size, self.decks = rng, size, {}

    def unit(self, name: str) -> float:
        deck = self.decks.get(name)
        if not deck:
            deck = [(i + self.rng.random()) / self.size for i in range(self.size)]
            self.rng.shuffle(deck)
            self.decks[name] = deck
        return deck.pop()

    def uniform(self, name: str, a: float, b: float) -> float:
        return a + (b - a) * self.unit(name)

    def choice(self, name: str, seq):
        return seq[min(int(self.unit(name) * len(seq)), len(seq) - 1)]


def _band_value(draw, name, lo, hi, top, below_one):
    """Draw one side of the two critical values lo <= hi, keeping 0.05 away."""
    bands = [(lo - 1.0, lo - 0.05), (hi + 0.05, below_one), (below_one + 0.1, top)]
    if hi - lo > 0.2:
        bands.append((lo + 0.05, hi - 0.05))
    a, b = draw.choice(f"{name}.band", [band for band in bands if band[1] - band[0] > 0.05])
    return draw.uniform(f"{name}.x", a, b)


def draw_orbit_params(draw, kind):
    """(eq, exponent, n, beta, sim_type) with the exponent off every singular value."""
    eq = draw.choice(f"{kind}.eq", ("pme", "ple"))
    sim = draw.choice(f"{kind}.sim", (1, 2, 3))
    n = draw.uniform(f"{kind}.n", 0.5, 6.0)
    beta = draw.uniform(f"{kind}.beta", -0.5, 1.5)
    if eq == "pme":
        m_c, m_s = _crit_pme(n)
        x = _band_value(draw, f"{kind}.pme", min(m_c, m_s), max(m_c, m_s), 3.0, 0.95)
    else:
        p_c, p_s = _crit_ple(n)
        lo, hi = min(p_c, p_s), max(p_c, p_s)
        x = _band_value(draw, f"{kind}.ple", lo, hi, 4.0, 1.95)
        if x < 1.05:  # keep clear of p = 1 where the reduction divides by p - 1
            x = draw.uniform(f"{kind}.ple.high", 2.05, 4.0)
    return eq, x, n, beta, sim


CONJUGACY_CASES = (
    ("pme", 2.0, 1.0, 1.0 / 3.0, ((0.0, 0.5), (0.3, 0.2), (0.6, 0.4), (0.2, 0.8), (0.5, 0.1))),
    ("pme", 0.25, 3.0, 1.0, ((0.0, 0.3), (-0.5, 0.2), (0.4, 0.1), (-1.0, 0.4), (0.2, 0.25))),
    ("ple", 3.0, 1.0, 1.0 / 3.0, ((0.1, 0.5), (0.2, 0.3), (0.05, 1.0), (0.3, -0.2), (0.15, 0.8))),
    ("ple", 1.25, 2.5, 0.4, ((0.5, -0.5), (0.3, -0.2), (0.2, 0.1), (0.4, -0.8), (0.6, -0.3))),
)


def _orbit_op(draw, kind):
    if kind in ("short", "long", "event"):
        eq, x, n, beta, sim = draw_orbit_params(draw, kind)
        y0 = (draw.uniform(f"{kind}.psi0", -2.0, 2.0), draw.uniform(f"{kind}.phi0", -2.0, 2.0))
        length = draw.uniform(f"{kind}.length", *((0.2, 1.5) if kind == "short" else (2.0, 6.0)))
        end = length if draw.unit(f"{kind}.direction") < 0.5 else -length
        op = {"kind": kind, "eq": eq, "x": x, "n": n, "beta": beta, "sim": sim, "y0": y0,
              "span": (0.0, end), "max_steps": SHORT_MAX_STEPS if kind == "short" else LONG_MAX_STEPS}
        if kind == "event":
            offset = draw.uniform("event.offset", 0.1, 1.5)
            op["event_bound"] = y0[1] + (offset if draw.unit("event.side") < 0.5 else -offset)
        return op
    if kind == "conjugacy":
        eq, x, n, beta, points = draw.choice("conjugacy.case", CONJUGACY_CASES)
        px, py = draw.choice("conjugacy.point", points)
        y0 = (px + draw.uniform("conjugacy.dpsi", -0.03, 0.03), py + draw.uniform("conjugacy.dphi", -0.03, 0.03))
        return {"kind": kind, "eq": eq, "x": x, "n": n, "beta": beta, "sim": 1, "y0": y0,
                "span": draw.uniform("conjugacy.span", 1.0, 3.0)}
    if kind == "reconstruct":
        eq = draw.choice("reconstruct.eq", ("pme", "ple"))
        n = draw.uniform("reconstruct.n", 0.5, 5.0)
        x = draw.uniform(f"reconstruct.{eq}", *((1.2, 3.5) if eq == "pme" else (2.2, 4.0)))
        C = draw.uniform("reconstruct.C", 0.5, 2.0)
        return {"kind": kind, "eq": eq, "x": x, "n": n, "C": C,
                "eta0_frac": draw.uniform("reconstruct.eta0", 0.2, 0.7),
                "eta1_frac": draw.uniform("reconstruct.eta1", 0.15, 0.8)}
    raise ValueError(kind)


def orbit_ops(seed: int, count: int) -> list[dict]:
    kinds = draw_kinds(random.Random(f"orbit_ensemble/{seed}/kinds"), ORBIT_BLOCK, count)
    draw = Stratified(random.Random(f"orbit_ensemble/{seed}"), ORBIT_STRATA)
    return [_orbit_op(draw, kind) for kind in kinds]


def barenblatt(eq: str, x: float, n: float, C: float):
    """(beta1, f, f', edge) of the Type I source profile, written out independently.

    PME: f = (C - k eta^2)^(1/(m-1)),  k = (m-1) beta1 / 2,  beta1 = 1/(n(m-1)+2).
    PLE: f = (C - A eta^(p/(p-1)))^((p-1)/(p-2)),  A = ((p-2)/p) beta1^(1/(p-1)),
         beta1 = 1/(n(p-2)+p).
    """
    if eq == "pme":
        m = x
        beta1 = 1.0 / (n * (m - 1.0) + 2.0)
        k = (m - 1.0) * beta1 / 2.0
        e = 1.0 / (m - 1.0)
        return (beta1, lambda eta: (C - k * eta * eta) ** e,
                lambda eta: -2.0 * k * e * eta * (C - k * eta * eta) ** (e - 1.0), math.sqrt(C / k))
    p = x
    beta1 = 1.0 / (n * (p - 2.0) + p)
    A = (p - 2.0) / p * beta1 ** (1.0 / (p - 1.0))
    ee, eo = p / (p - 1.0), (p - 1.0) / (p - 2.0)
    return (beta1, lambda eta: (C - A * eta ** ee) ** eo,
            lambda eta: -A * p / (p - 2.0) * eta ** (1.0 / (p - 1.0)) * (C - A * eta ** ee) ** (1.0 / (p - 2.0)),
            (C / A) ** (1.0 / ee))
