"""Run the CLI fuzz grammar against two source trees and report which argv change their output.

    python tests/cli_differential.py BASE_SRC [HEAD_SRC]

The argv are ``test_cli_fuzz``'s grammar on seeds 7, 1, 2, 3, 4 and 5, 2,000 each.  Each tree
runs all of them in-process through ``ssflow.cli.main``, in a process of its own; HEAD_SRC
defaults to the ``src`` next to this file.  The report is how many argv differ in exit code,
stdout, stderr or warnings, and the first five that do.  It is a log, never a gate: mending a
defect changes outputs on purpose, so the exit code is 0 whatever differs.
"""

import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
import warnings
from pathlib import Path

SEEDS = (7, 1, 2, 3, 4, 5)
COUNT = 2000
SHOWN = 5
FIELDS = ("exit code", "stdout", "stderr", "warnings")


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _collect(src):
    """Print one JSON line per argv: the argv, its outcome (exit code, stdout, stderr, warnings) and output heads."""
    sys.path.insert(0, src)
    from ssflow import cli
    from test_cli_fuzz import _argv

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"ssflow loaded from {cli.__file__}, not from {src}")
    for seed in SEEDS:
        rng = random.Random(seed)
        for _ in range(COUNT):
            argv = _argv(rng)
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                try:
                    code = cli.main(argv)
                except Exception as exc:  # noqa: BLE001 - an escape is an outcome to compare
                    code = f"{type(exc).__name__}: {exc}"
            caught = [f"{w.category.__name__}: {w.message}" for w in caught]
            outcome = [code, _digest(out.getvalue()), _digest(err.getvalue()), caught]
            print(json.dumps([argv, outcome, out.getvalue()[:200], err.getvalue()[:200]]))


def _run(src):
    res = subprocess.run([sys.executable, __file__, "--collect", src], capture_output=True, text=True)
    if res.returncode != 0:
        raise SystemExit(f"the run against {src} failed:\n{res.stderr}")
    return [json.loads(line) for line in res.stdout.splitlines()]


def main(argv):
    if argv[:1] == ["--collect"]:
        return _collect(argv[1])
    if not 1 <= len(argv) <= 2:
        raise SystemExit(__doc__)
    base_src = argv[0]
    head_src = argv[1] if len(argv) == 2 else str(Path(__file__).resolve().parents[1] / "src")
    base, head = _run(base_src), _run(head_src)
    if [row[0] for row in base] != [row[0] for row in head]:
        raise SystemExit("the two trees drew different argv from the grammar")
    differ = [(b, h) for b, h in zip(base, head) if b[1] != h[1]]
    print(f"{len(differ)} of {len(head)} argv differ between {base_src} and {head_src} "
          f"(seeds {', '.join(map(str, SEEDS))}; exit code, stdout, stderr or warnings)")
    for (args, b, b_out, b_err), (_, h, h_out, h_err) in differ[:SHOWN]:
        fields = ", ".join(name for name, x, y in zip(FIELDS, b, h) if x != y)
        print(f"\n{' '.join(args)}\n  differs in: {fields}")
        print(f"  base: exit {b[0]!r}, stdout {b_out!r}, stderr {b_err!r}, warnings {b[3]!r}")
        print(f"  head: exit {h[0]!r}, stdout {h_out!r}, stderr {h_err!r}, warnings {h[3]!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
