"""The README's examples run as written: the library tour and every CLI line."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


def _cli_lines():
    lines = []
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("ssflow "):
                lines.append(line)
    return lines


def test_library_tour_runs():
    (tour,) = _blocks("python")
    exec(compile(tour, "README.md", "exec"), {})


@pytest.mark.parametrize("line", _cli_lines())
def test_cli_example_exits_zero(line, tmp_path):
    argv = shlex.split(line, comments=True)
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    res = subprocess.run([sys.executable, "-m", *argv], capture_output=True, text=True, env=env, cwd=tmp_path)
    assert res.returncode == 0, res.stdout + res.stderr
