"""Self-tests of the benchmark: seeded inputs, stated mix, checks and exact counts.

    python -m pytest perfbench/test_perfbench.py -q
"""

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import calibrate  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_same_seed_gives_same_operations():
    assert workloads.cli_ops(7, 300) == workloads.cli_ops(7, 300)
    assert workloads.orbit_ops(7, 300) == workloads.orbit_ops(7, 300)
    assert workloads.cli_ops(7, 300) != workloads.cli_ops(8, 300)
    assert workloads.orbit_ops(7, 300) != workloads.orbit_ops(8, 300)
    assert workloads.cli_ops(7, 300)[:45] == workloads.cli_ops(7, 45)
    assert workloads.orbit_ops(7, 300)[:45] == workloads.orbit_ops(7, 45)


@pytest.mark.parametrize("ops, block", [(workloads.cli_ops, workloads.CLI_BLOCK),
                                        (workloads.orbit_ops, workloads.ORBIT_BLOCK)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mix_matches_stated_shares(ops, block, seed):
    size = sum(block.values())
    drawn = [op["kind"] for op in ops(seed, 10 * size)]
    for kind, share in workloads.shares(block).items():
        assert drawn.count(kind) == round(share * len(drawn))
    # every whole block has the stated composition, not only the total
    first = drawn[:size]
    assert {kind: first.count(kind) for kind in block} == block


def test_stratified_draws_put_one_value_in_each_stratum():
    draw = workloads.Stratified(workloads.random.Random(3), 16)
    for name in ("a", "b"):
        values = [draw.uniform(name, -2.0, 2.0) for _ in range(32)]
        for deck in (values[:16], values[16:]):
            assert sorted(int((v + 2.0) / 4.0 * 16) for v in deck) == list(range(16))


def test_orbit_parameters_cover_both_sides_of_critical_values():
    sides = set()
    cells = set()
    for op in workloads.orbit_ops(1, 2000):
        if op["kind"] not in ("short", "long", "event"):
            continue
        n, x = op["n"], op["x"]
        assert 0.5 <= n <= 6.0
        crit = (n - 2.0) / n, (n - 2.0) / (n + 2.0)
        if op["eq"] == "ple":
            crit = 2.0 * n / (n + 1.0), 2.0 * n / (n + 2.0)
        assert min(abs(x - c) for c in crit) >= 0.05
        sides.add((op["eq"], x > crit[0], x > crit[1]))
        cells.add((op["eq"], op["sim"]))
    assert len(cells) == 6
    for eq in ("pme", "ple"):
        assert {(a, b) for e, a, b in sides if e == eq} >= {(False, False), (True, True)}
        assert any(a != b for e, a, b in sides if e == eq)  # between the two critical values


def _run_cli_in_process(argv):
    from ssflow import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return types.SimpleNamespace(returncode=rc, stdout=out.getvalue().encode(), stderr=err.getvalue().encode())


def test_cli_operations_pass_their_checks():
    mix = worker.CliMix.__new__(worker.CliMix)  # checks only; no warm-up process
    mix.golden = {name: (ROOT / "tests" / "golden" / name).read_bytes() for name in workloads.PRESETS.values()}
    seen = set()
    for op in workloads.cli_ops(1, 120):
        if op["kind"] == "verify" and "verify" in seen:
            continue
        seen.add(op["kind"])
        assert mix.check(op, _run_cli_in_process(op["argv"])) is None, op["argv"]
    assert seen == set(workloads.CLI_BLOCK)


@pytest.mark.parametrize("eq, cells", [("pme", workloads.PME_CELLS), ("ple", workloads.PLE_CELLS)])
def test_every_cli_parameter_cell_maps(eq, cells):
    flag = "--m" if eq == "pme" else "--p"
    for x, n in cells:
        for sim in ("1", "2", "3"):
            argv = ["map", "--eq", eq, flag, repr(x), "--n", repr(n), "--beta", "0.7", "--sim-type", sim]
            proc = _run_cli_in_process(argv)
            assert proc.returncode == 0 and json.loads(proc.stdout)["status"] == "ok", argv


def test_cli_check_rejects_wrong_output():
    mix = worker.CliMix.__new__(worker.CliMix)
    mix.golden = {"barenblatt_line.csv": b"r1,psi,phi\n0,1,2\n0.5,1,2\n"}
    op = {"kind": "integrate", "argv": [], "golden": "barenblatt_line.csv"}
    ok = types.SimpleNamespace(returncode=0, stdout=b"r1,psi,phi\n0,1,2\n0.5,1,2\n", stderr=b"")
    assert mix.check(op, ok) is None
    assert "golden" in mix.check(op, types.SimpleNamespace(returncode=0, stdout=b"r1,psi,phi\n0,1,2\n0.5,1,3\n",
                                                           stderr=b""))
    assert "header" in mix.check(op, types.SimpleNamespace(returncode=0, stdout=b"r,psi,phi\n", stderr=b""))
    assert mix.check(op, types.SimpleNamespace(returncode=0, stdout=b"", stderr=b"Traceback (most recent")) == \
        "traceback"
    assert "outside" in mix.check(op, types.SimpleNamespace(returncode=-11, stdout=b"", stderr=b""))
    profile = {"kind": "profile", "argv": []}
    off = types.SimpleNamespace(returncode=0, stdout=b"eta,f,fprime\n1,0.8333333333,0\n1.5,0.625001,0\n",
                                stderr=b"")
    assert "Barenblatt" in mix.check(profile, off)


def test_raising_or_unreadable_operations_count_as_failed():
    mix = worker.CliMix.__new__(worker.CliMix)
    op = {"kind": "coeffs", "argv": []}
    garbled = types.SimpleNamespace(returncode=0, stdout=b"not json", stderr=b"")
    assert "unreadable" in worker.verdict(mix, op, garbled)
    assert "raised" in worker.verdict(mix, op, ZeroDivisionError("x"))
    orbits = worker.OrbitEnsemble.__new__(worker.OrbitEnsemble)
    orbits.run = lambda op: 1 / 0
    assert isinstance(orbits.execute({"kind": "short"})[1], ZeroDivisionError)


def test_verify_report_check_does_not_trust_pass_flags():
    good = {"status": "ok", "checks": [{"name": "a", "pass": True, "max_dev": 1e-12, "tol": 1e-10}]}
    assert worker.check_verify_report(good) is None
    for dev in (math.nan, math.inf, 1e-9, None):
        bad = {"status": "ok", "checks": [{"name": "a", "pass": True, "max_dev": dev, "tol": 1e-10}]}
        assert worker.check_verify_report(bad) is not None


def _traced_counts(workload, seed, count):
    wl = worker.WORKLOADS[workload](seed)
    tracer = tracing.Tracer()
    _, _, failures = worker.run_pass(wl, count=count, tracer=tracer)
    assert failures == []
    return dict(tracer.counts)


@pytest.mark.parametrize("workload, count", [("orbit_ensemble", 40), ("verify_grid", 1)])
def test_counts_repeat_exactly_for_a_seed(workload, count):
    first = _traced_counts(workload, 5, count)
    assert first["phase_plane.rhs_evals"] > 0 and first["integrator.integrate.accepted_steps"] > 0
    assert _traced_counts(workload, 5, count) == first


def test_tracing_restores_the_package_and_accounts_for_all_time():
    import ssflow
    from ssflow import integrator, verify

    originals = (ssflow.integrate, integrator.integrate, verify.integrate, verify.check_conjugacy)
    wl = worker.VerifyGrid(0)
    tracer = tracing.Tracer()
    untraced, traced, failures = worker.run_pass(wl, count=1, tracer=tracer)
    assert failures == []
    assert (ssflow.integrate, integrator.integrate, verify.integrate, verify.check_conjugacy) == originals
    m = worker.layer_metrics(tracer, untraced, traced, [])
    assert m["trace.layer_self_s"] + m["trace.untraced_s"] == pytest.approx(m["trace.op_s"], rel=1e-9)
    assert m["integrator.integrate.calls"] == 44
    assert m["integrator.compare_trajectories.calls"] == 20
    assert all(m[f"verify.{name}.self_s"] > 0.0 for name in tracing.VERIFY_CHECKS)


def test_tail_percentile_leaves_ten_samples_beyond():
    t = worker.tail([float(i) for i in range(1, 41)])
    assert t == {"value": 30.0, "percentile": 75.0, "beyond": 10, "samples": 40}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify_grid", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_calibration_uses_the_kernel_runs_around_each_operation():
    nominal = calibrate.NOMINAL_S
    cal = calibrate.Calibration()
    cal.probes = [(0.0, nominal), (1.0, nominal), (2.0, 4.0 * nominal), (3.0, 4.0 * nominal)]
    slow = 0.25 ** calibrate.SENSITIVITY
    assert cal.factors([(0.1, 0.9), (2.1, 2.9), (1.1, 1.9), (3.5, 4.0)]) == pytest.approx(
        [1.0, slow, (1.0 / 2.5) ** calibrate.SENSITIVITY, slow])
    cal.run_kernel()
    assert 0.0 < cal.probes[-1][1] < 1.0
