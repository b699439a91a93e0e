"""ssflow benchmark: three seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload cli_mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload

Run from the repository root.  Workloads (see workloads.py):

- ``cli_mix``: fresh ``python -m ssflow`` processes over all six subcommands.
  Package import is most of each command, so only here does import work show.
- ``orbit_ensemble``: seeded unified-plane orbits (plain, with stop events,
  conjugacy and profile reconstruction tasks) in one process.  Stepping is
  most of the time; import is none of it.
- ``verify_grid``: repeated ``run_default_verification()`` in one process on
  the product's fixed grid (the seed is ignored).  Only here does
  ``compare_trajectories`` do real work.

End-to-end metrics (``--trace 0``): ``setup_s`` (import, warm-up and input
generation; the median of five set-ups, four of them in set-up-only
processes), ``latency_p50_s``, ``latency_tail_s`` (highest percentile with ten
samples beyond it), ``throughput_ops_per_s``, ``ok_frac`` (operations whose
output passed every check, over attempted; ``failed_frac`` is printed
alongside) and ``peak_rss_mb`` (this workload's process, or the largest CLI
child for ``cli_mix``).  Operation times are wall times scaled toward
nominal machine speed by a frozen reference kernel timed just before and
just after each operation (calibrate.py), because a core of a shared
two-core machine changes speed by tens of percent within and between runs;
the raw wall times are kept in the run's record.  The benchmark and the
processes it starts run on one CPU.  ``setup_s`` is scaled the same way, by
the kernel runs just before and after set-up.

Per-layer metrics (``--trace 1``) come from a separate traced pass; the
names follow the modules of ``src/ssflow``.  What each should move:

- ``import.*``: ``latency_p50_s`` on ``cli_mix``; only ``setup_s`` elsewhere.
- ``cli.<command>.latency_p50_s``: ``latency_p50_s`` on ``cli_mix``.
- ``integrator.integrate.*``, ``integrator.status.*``,
  ``phase_plane.rhs_evals``: ``throughput_ops_per_s`` on ``orbit_ensemble``
  and ``latency_p50_s`` on ``verify_grid``.
- ``phase_plane.trajectory_map.*``, ``integrator.compare_trajectories.*``,
  ``verify.<check>.self_s``: ``latency_p50_s`` on ``verify_grid``.
- ``phase_plane.reconstruct_profile.*``: ``orbit_ensemble``, and
  ``cli.profile`` on ``cli_mix``.
- ``params.*``, ``equivalence.*``, ``solutions.*``: ``verify_grid``, and
  ``cli.explicit`` on ``cli_mix``.
- ``integrator.oracle_dev_*``: accuracy against an independent DOP853 solve.
- ``trace.*``: operation time, the part no layer covers, tracing overhead
  and layer shares.

Every run writes its full record, with the environment, to ``.perfbench/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("cli_mix", "orbit_ensemble", "verify_grid")
SETUP_PROBES = 4
RUN_TIMEOUT = 170

THREAD_VARS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

UNITS = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "throughput_ops_per_s": "1/s",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_step") or name.endswith("us_per_point"):
        return "us"
    if name.endswith("_frac") or name.startswith("trace.share.") or name.endswith("step_acceptance"):
        return "frac"
    if "oracle_dev" in name:
        return "rel"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_VARS)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args, out: Path, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    # The worker's own output goes to our stderr; our stdout ends with the result line.
    subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=sys.stderr, check=True, timeout=RUN_TIMEOUT)
    result = json.loads(out.read_text())
    out.unlink()
    return result


def environment() -> dict:
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "pinned_to_cpus": sorted(os.sched_getaffinity(0)), "threads": THREAD_VARS}
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}, timeout=10)
        env["commit"] = commit.stdout.strip() if commit.returncode == 0 else "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        env["commit"] = "unknown (git unavailable)"
    digest = hashlib.sha256()
    for path in sorted((SRC / "ssflow").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    env["source_sha256"] = digest.hexdigest()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu"] = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                              platform.processor())
    except OSError:
        env["cpu"] = platform.processor()
    code = ("import json, numpy, scipy; d = numpy.show_config(mode='dicts'); "
            "b = d.get('Build Dependencies', {}).get('blas', {}); "
            "print(json.dumps({'numpy': numpy.__version__, 'scipy': scipy.__version__, "
            "'blas': b.get('name'), 'blas_version': b.get('version')}))")
    probe = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True,
                           timeout=60)
    env.update(json.loads(probe.stdout) if probe.returncode == 0 else {"numpy": "unavailable"})
    return env


def run_one(args) -> dict:
    out = OUT_DIR / f"worker-{args.workload}-{os.getpid()}.json"
    setups = []
    if args.trace == 0:
        setups = [run_worker(args, out, setup_only=True) for _ in range(SETUP_PROBES)]
    res = run_worker(args, out)
    res["setup_raw_samples_s"] = [r["setup_raw_s"] for r in setups + [res]]
    setups = [r["setup_s"] for r in setups + [res]]
    failed, attempted = res["failed"], res["attempted"]
    if args.trace == 0:
        values = dict(res["end_to_end"], setup_s=statistics.median(setups), ok_frac=1.0 - failed / attempted)
        metrics = {name: {"value": values[name], "unit": UNITS[name]} for name in UNITS}
        res["setup_samples_s"] = setups
    else:
        metrics = {name: {"value": value, "unit": per_layer_unit(name)}
                   for name, value in sorted(res["per_layer"].items())}
    layer = res.get("per_layer", {})
    # Layer self times plus the untraced remainder must add up to operation time.
    accounted = not layer or abs(layer["trace.layer_self_s"] + layer["trace.untraced_s"]
                                 - layer["trace.op_s"]) <= 1e-9 * max(1.0, layer["trace.op_s"])
    res["environment"] = environment()
    res["metrics"] = metrics
    res["failed_frac"] = failed / attempted
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(res, indent=1))
    return {"correct": failed == 0 and accounted, "attempted": attempted, "failed": failed, "metrics": metrics,
            "record": str(record.relative_to(ROOT)), "tail": res.get("tail"), "failures": res["failures"]}


def print_summary(workload: str, summary: dict) -> None:
    print(f"== {workload}: attempted {summary['attempted']}, failed {summary['failed']} "
          f"(failed_frac {summary['failed'] / summary['attempted']:.4g}), record {summary['record']}")
    for name, m in summary["metrics"].items():
        print(f"  {name:52s} {m['value']:>14.6g} {m['unit']}")
    if summary["tail"]:
        t = summary["tail"]
        print(f"  latency_tail_s is p{t['percentile']:.1f} of {t['samples']} samples, {t['beyond']} beyond it")
    for reason in summary["failures"]:
        print(f"  FAILED {reason}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in (SRC / "ssflow" / "__init__.py", ROOT / "tests" / "golden") if not p.exists()]
    if missing:
        print(f"benchmark needs the ssflow sources; missing: {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    # Byte-compile once, untimed, so that no timed import pays for compilation.
    if not compileall.compile_dir(str(SRC / "ssflow"), quiet=1):
        print("ssflow sources do not compile", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    # One client on one core: this process and every process it starts run on
    # one CPU, so that the calibration kernel measures the core the
    # operations run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        summary = run_one(argparse.Namespace(**{**vars(args), "workload": workload}))
        print_summary(workload, summary)
        results[workload] = summary
    if len(results) == 1:
        final = results[args.workload]
        metrics = final["metrics"]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values())}
        metrics = {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()}
    print(json.dumps({"correct": final["correct"], "attempted": final["attempted"], "failed": final["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
