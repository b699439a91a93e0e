"""A seeded argument fuzz of the CLI: every argv ends in an exit code and JSON, never a traceback.

The argv come from a fixed grammar (the five commands other than ``verify``, each with its
flags) filled from a fixed pool of edge values, and run in-process through ``cli.main``.
"""

import contextlib
import io
import json
import math
import random
import warnings

from ssflow import cli

SEED = 7
COUNT = 2000

# Signed zeros and ones, the ends of the double range, the non-finite values, values just off the
# linear exponents 1 and 2, m_c(3) = 1/3, and ordinary values the closed forms and maps accept.
POOL = (
    "0", "-0", "1", "-1", "1e-300", "-1e-300", "1e300", "-1e300", "1e308", "5e-324", "inf", "-inf", "nan",
    "0.9999999999999999", "1.0000000000000002", "1.9999999999999998", "2.0000000000000004",
    "0.3333333333333333", "0.2", "0.25", "0.3", "0.5", "-0.5", "2", "3", "4",
)
# A step budget of at most 1,000 steps and at most 200 residual points keep each argv short.
MAX_STEPS = ("-1", "0", "1", "2", "50", "1000")
POINTS = ("-1", "0", "1", "2", "50", "200")

PARAM_FLAGS = ("--m", "--p", "--n", "--beta")
INTEGRATION_FLAGS = ("--psi0", "--phi0", "--rel-tol", "--abs-tol", "--max-step")


def _argv(rng):
    """One argv: each flag of the drawn command appears with its own probability."""
    command = rng.choice(("map", "coeffs", "integrate", "profile", "explicit"))
    argv = [command]

    def flag(name, values, present=0.85):
        if rng.random() < present:
            argv.extend((name, rng.choice(values)))

    if command == "explicit":
        flag("--kind", sorted(cli._EXPLICIT_BUILDERS), present=0.95)
        for name in ("--m", "--p", "--n"):
            flag(name, POOL)
        for name in ("--C", "--K", "--c", "--k1", "--k2"):
            flag(name, POOL, present=0.2)
        flag("--points", POINTS, present=0.5)
        return argv
    flag("--eq", ("pme", "ple"))
    for name in PARAM_FLAGS:
        flag(name, POOL)
    flag("--sim-type", ("1", "2", "3"), present=0.3)
    if command == "map":
        flag("--branch", ("1", "2", "both"), present=0.5)
    elif command == "coeffs":
        flag("--critical-tol", POOL, present=0.3)
    else:
        for name in INTEGRATION_FLAGS:
            flag(name, POOL, present=0.85 if name in ("--psi0", "--phi0") else 0.2)
        if rng.random() < 0.3:
            argv.extend(("--span", rng.choice(POOL), rng.choice(POOL)))
        flag("--preset", sorted(cli.PRESETS), present=0.1)
        argv.extend(("--max-steps", rng.choice(MAX_STEPS)))
        if command == "profile":
            flag("--anchor-eta", POOL, present=0.7)
    return argv


def _findings(argv):
    """What is wrong with running ``argv``: an escaped exception, an exit code, output, warning or a bare overflow."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - any escape is the finding
            return [f"{type(exc).__name__}: {exc}"]
    found = [f"{w.category.__name__}: {w.message}" for w in caught if issubclass(w.category, RuntimeWarning)]
    if code not in (0, 1, 2):
        return found + [f"exit code {code!r}"]
    command, out, err = argv[0], out.getvalue(), err.getvalue()
    if command in ("integrate", "profile") and code == 0:
        return found  # CSV on stdout
    # a usage error and the explicit footer go to stderr, every other JSON to stdout
    text = err if not out or (command == "explicit" and code != 1) else out
    try:
        payload = json.loads(text)
    except ValueError:
        return found + [f"output is not JSON: {text[:200]!r}"]
    if payload.get("error", {}).get("type") == "OverflowError":  # a DomainError names the quantity that overflows
        found.append(f"OverflowError names no quantity: {payload['error']['message']}")
    for check in payload.get("checks", []):
        if check["pass"] and not math.isfinite(check["max_dev"]):
            found.append(f"check {check['name']} passes with max_dev {check['max_dev']}")
    return found


def test_seeded_argv_keep_the_cli_contract():
    rng = random.Random(SEED)
    failures = []
    for _ in range(COUNT):
        argv = _argv(rng)
        found = _findings(argv)
        if found:
            failures.append((" ".join(argv), found))
    assert failures == []
