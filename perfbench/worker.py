"""Run one workload in this process and write its measurements as JSON.

    python worker.py --workload W --seed S --seconds T --trace 0|1 --out FILE
    python worker.py --workload W --seed S --setup-only --out FILE

``run.py`` starts this with ssflow's sources on PYTHONPATH and BLAS pinned to
one thread.  Operations run in a closed loop with one client: the next one
starts when the previous one has returned and its output has been checked.
The timed phase is the sum of the operations' wall times, so the untimed
checks between operations do not count.

With ``--trace 0`` the loop runs for T seconds, with the calibration kernel
of calibrate.py between operations.  With ``--trace 1`` it runs a fixed
number of operations, proportional to T, each twice: untraced, then with
spans around every layer function (see tracing.py).  The same seed and T
therefore give the same traced operations and the same layer counts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import workloads
from tracing import STATUSES, VERIFY_CHECKS, Tracer, clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

# Operations drawn per run, a few times what a 30 s run completes at this
# commit; a faster program goes round the list again.  Drawing them is part
# of set-up, so the list is no longer than that.
CLI_OPS = 200
ORBIT_OPS = 4000
# Operations per second of --seconds in a traced run; each runs twice, untraced then traced.
TRACE_RATE = {"cli_mix": 0.6, "orbit_ensemble": 24.0, "verify_grid": 1.1}
TRACE_BLOCK = {"cli_mix": sum(workloads.CLI_BLOCK.values()), "orbit_ensemble": sum(workloads.ORBIT_BLOCK.values())}

ORACLE_RTOL = 1e-13
ORACLE_ATOL = 1e-13
# Final-state deviation from the oracle, relative to max(1, |y|).  Orbits that
# pass close to blow-up amplify the 1e-9 step tolerance: the worst seen in
# timed runs of seeds 201-210, 301-310 and 401-410 (about 20,000 orbits) was
# 4.1e-3, with a median near 3e-10, so a bound of 5e-2 flags only gross
# disagreement such as a wrong right-hand side or step.
ORACLE_BOUND = 5e-2
# Native-vs-unified orbit deviation.  `ssflow verify` uses 1e-6 on its fixed
# points; the seeded starts and spans here reached 6.7e-7 (900 tasks, seeds 1-30).
CONJUGACY_TOL = 1e-5
RECONSTRUCT_TOL = 1e-7  # |f - f_exact| / max(1, f_exact); worst seen 6e-10 (seeds 1-30)
# |Phi - bound| / max(1, |dPhi/dr1|) at a located event: the event is bisected
# to 1e-12 in r1, so on a steep crossing Phi itself may miss by more.
EVENT_TOL = 1e-8


def _median(values):
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# cli_mix: one fresh `python -m ssflow` process per operation
# ----------------------------------------------------------------------

class CliMix:
    def __init__(self, seed: int):
        self.ops = workloads.cli_ops(seed, CLI_OPS)
        self.golden = {name: (ROOT / "tests" / "golden" / name).read_bytes()
                       for name in workloads.PRESETS.values()}
        self._spawn(workloads.CLI_WARMUP_ARGV)

    def _spawn(self, argv, spans_file=None):
        if spans_file is None:
            cmd = [sys.executable, "-m", "ssflow", *argv]
        else:
            cmd = [sys.executable, str(HERE / "cli_probe.py"), spans_file, *argv]
        t0 = clock()
        proc = subprocess.run(cmd, capture_output=True, cwd=ROOT, timeout=150)
        return t0, clock(), proc

    def execute(self, op):
        t0, t1, proc = self._spawn(op["argv"])
        return t1 - t0, proc

    def execute_traced(self, op, tracer: Tracer):
        spans_file = str(OUT_DIR / f"probe-{os.getpid()}.json")
        t0, t1, proc = self._spawn(op["argv"], spans_file)
        with open(spans_file, encoding="utf-8") as fh:
            probe = json.load(fh)
        os.unlink(spans_file)
        top = tracer.begin(f"op.{op['kind']}", start=t0)
        tracer.end(top, end=t1)
        tracer.add_child(top, "import.interpreter", t0, probe["started"])
        tracer.add_child(top, "import.ssflow", *probe["import"])
        base = len(tracer.spans)
        for _, name, start, end, parent in probe["spans"]:
            tracer.add_child(top if parent < 0 else base + parent, name, start, end)
        tracer.counts.update(probe["counts"])
        return t1 - t0, proc

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def check(self, op, proc) -> str | None:
        out, err = proc.stdout, proc.stderr.decode("utf-8", "replace")
        if "Traceback" in err:
            return "traceback"
        if proc.returncode not in (0, 1, 2):
            return f"exit code {proc.returncode} outside the documented set"
        if proc.returncode != 0:
            return f"exit code {proc.returncode}"
        kind = op["kind"]
        if kind in ("coeffs", "map", "verify"):
            payload = json.loads(out)
            if payload.get("status") != "ok":
                return f"status {payload.get('status')!r}"
            return check_verify_report(payload) if kind == "verify" else None
        text = out.decode("utf-8")
        lines = text.splitlines()
        header = "r1,psi,phi" if kind == "integrate" else "eta,f,fprime"
        if not lines or lines[0] != header:
            return f"csv header {lines[:1]!r}"
        rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
        if len(rows) < 2 or not all(math.isfinite(v) for row in rows for v in row):
            return "csv rows missing or not finite"
        if "golden" in op and out != self.golden[op["golden"]]:
            return f"differs from golden {op['golden']}"
        if "line" in op:
            a = op["line"]
            worst = max(abs(phi - a * psi - a) / max(1.0, abs(phi)) for _, psi, phi in rows)
            if worst > workloads.LINE_TOL:
                return f"left the invariant line by {worst:.3g}"
        if kind == "profile":
            worst = max(abs(f - (1.0 - eta * eta / 6.0)) for eta, f, _ in rows)
            if worst > workloads.PROFILE_TOL:
                return f"Barenblatt profile off by {worst:.3g}"
        if kind == "explicit":
            footer = json.loads(err)
            if footer.get("status") != "ok" or not footer["checks"][0]["pass"]:
                return "explicit footer does not pass"
        return None


def check_verify_report(report: dict) -> str | None:
    """Every check must pass with a finite max_dev within its tol, whatever `pass` says."""
    if report.get("status") != "ok":
        return f"verify status {report.get('status')!r}"
    if not report.get("checks"):
        return "verify report has no checks"
    for check in report["checks"]:
        dev, tol = check.get("max_dev"), check.get("tol")
        if not check.get("pass") or dev is None or not math.isfinite(dev) or not dev <= tol:
            return f"verify check {check.get('name')} max_dev={dev} tol={tol}"
    return None


# ----------------------------------------------------------------------
# orbit_ensemble: seeded orbit tasks in this process
# ----------------------------------------------------------------------

class InProcess:
    def _run(self, op):
        try:
            return self.run(op)
        except Exception as exc:  # a failed operation, counted by its check; the run goes on
            return exc

    def execute(self, op):
        t0 = clock()
        result = self._run(op)
        return clock() - t0, result

    def execute_traced(self, op, tracer: Tracer):
        idx = tracer.begin(f"op.{op['kind']}")
        result = self._run(op)
        tracer.end(idx)
        span = tracer.spans[idx]
        return span[3] - span[2], result

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class OrbitEnsemble(InProcess):
    def __init__(self, seed: int):
        import ssflow  # noqa: F401  (timed as part of set-up)
        from ssflow import errors, integrator, params, phase_plane

        self.errors, self.integrator, self.params, self.pp = errors, integrator, params, phase_plane
        self.ops = workloads.orbit_ops(seed, ORBIT_OPS)
        self.oracle_records: list[dict] = []
        for op in workloads.orbit_ops(0, 8):  # fixed warm-up, independent of the seed
            self.run(op)

    def _params(self, op, beta=None):
        sim = self.params.SimilarityType(op["sim"]) if "sim" in op else self.params.SimilarityType.TYPE_I
        cls = self.params.PMEParams if op["eq"] == "pme" else self.params.PLEParams
        return cls(op["x"], op["n"], op["beta"] if beta is None else beta, sim)

    def run(self, op):
        integ, pp = self.integrator, self.pp
        kind = op["kind"]
        if kind == "conjugacy":
            prm = self._params(op)
            coeffs = self.params.unified_coefficients(prm)
            sett = integ.IntegrationSettings(rel_tol=1e-9, abs_tol=1e-12)
            if op["eq"] == "pme":
                native, to_unified = pp.pme_native_system(prm), pp.pme_trajectory_to_unified
            else:
                native, to_unified = pp.ple_native_system_xy(prm), pp.ple_trajectory_to_unified
            nat = integ.integrate(native, op["y0"], (0.0, op["span"] / coeffs.sqrt_abs_b), sett)
            mapped = to_unified(nat, prm)
            uni = integ.integrate(pp.unified_system(coeffs), mapped.states[0], (0.0, op["span"]), sett)
            return {"status": (nat.status, uni.status), "dev": integ.compare_trajectories(mapped, uni)}
        if kind == "reconstruct":
            beta1, f, fp, edge = workloads.barenblatt(op["eq"], op["x"], op["n"], op["C"])
            prm = self._params(op, beta=beta1)
            coeffs = self.params.unified_coefficients(prm)
            eta0, eta1 = op["eta0_frac"] * edge, op["eta1_frac"] * edge
            anchor = pp.ProfileSample(eta0, f(eta0), fp(eta0))
            state = pp.profile_to_state(anchor, prm)
            sett = integ.IntegrationSettings(rel_tol=1e-10, abs_tol=1e-13)
            traj = integ.integrate(pp.unified_system(coeffs), (state.psi, state.phi),
                                   (0.0, coeffs.sqrt_abs_b * math.log(eta1 / eta0)), sett)
            samples = pp.reconstruct_profile(traj, prm, anchor)
            return {"status": traj.status, "nodes": len(traj), "samples": samples, "f": f}
        prm = self._params(op)
        coeffs = self.params.unified_coefficients(prm)
        events = (integ.StopEvent(1, op["event_bound"], 0),) if kind == "event" else ()
        sett = integ.IntegrationSettings(max_steps=op["max_steps"], stop_events=events)
        try:
            traj = integ.integrate(pp.unified_system(coeffs), op["y0"], op["span"], sett)
        except self.errors.IntegrationFailure:
            return {"status": "failure"}
        return {"status": traj.status, "r": float(traj.r1[-1]), "y": [float(v) for v in traj.states[-1]],
                "dphi": float(traj.derivs[-1][1]),
                "coeffs": (coeffs.c1, coeffs.c2, coeffs.c3, coeffs.psi_coeff, coeffs.const_term)}

    def check(self, op, res) -> str | None:
        kind = op["kind"]
        if kind == "conjugacy":
            if res["status"] != ("completed", "completed"):
                return f"conjugacy orbits ended {res['status']}"
            if not res["dev"] <= CONJUGACY_TOL:
                return f"conjugacy deviation {res['dev']:.3g}"
            return None
        if kind == "reconstruct":
            if res["status"] != "completed" or len(res["samples"]) != res["nodes"]:
                return f"reconstruction ended {res['status']} with {len(res['samples'])}/{res['nodes']} samples"
            f = res["f"]
            worst = max(abs(s.f - f(s.eta)) / max(1.0, f(s.eta)) for s in res["samples"])
            if not worst <= RECONSTRUCT_TOL:
                return f"reconstructed profile off by {worst:.3g}"
            return None
        status = res["status"]
        if status not in STATUSES or status == "failure":
            return f"integration status {status!r}"
        if status == "event":
            if kind != "event":
                return "event status without a stop event"
            if not abs(res["y"][1] - op["event_bound"]) <= EVENT_TOL * max(1.0, abs(res["dphi"])):
                return "event located off its bound"
        if status == "completed" and abs(res["r"] - op["span"][1]) > 1e-12 * max(1.0, abs(op["span"][1])):
            return "completed before the end of the span"
        # A traced run checks each operation twice; its orbit goes to the oracle once.
        if status in ("completed", "event") and not (self.oracle_records and self.oracle_records[-1]["op"] is op):
            self.oracle_records.append(dict(op=op, **res))
        return None


def run_oracle(records: list[dict]) -> tuple[list[float], list[str]]:
    """Independent DOP853 solution of every completed or event-stopped orbit."""
    from scipy.integrate import solve_ivp

    devs, failures = [], []
    for rec in records:
        op = rec["op"]
        c1, c2, c3, e, s = rec["coeffs"]

        def fun(t, y):
            psi, phi = y
            return [psi * phi, c1 * phi * phi - c2 * psi * phi - c3 * phi + e * psi + s]

        events = None
        if op["kind"] == "event":
            bound = op["event_bound"]

            def events(t, y):
                return y[1] - bound

            events.terminal = True
        sol = solve_ivp(fun, op["span"], op["y0"], method="DOP853", rtol=ORACLE_RTOL, atol=ORACLE_ATOL,
                        events=events)
        if rec["status"] == "event":
            if sol.status != 1:
                failures.append("oracle finds no event where the integrator stopped at one")
                continue
            r_o, y_o = float(sol.t_events[0][0]), sol.y_events[0][0]
        else:
            if sol.status != 0:
                failures.append(f"oracle ended with status {sol.status} on a completed orbit")
                continue
            r_o, y_o = float(sol.t[-1]), sol.y[:, -1]
        scale = max(1.0, math.hypot(*y_o))
        dev = max(math.hypot(rec["y"][0] - y_o[0], rec["y"][1] - y_o[1]) / scale,
                  abs(rec["r"] - r_o) / max(1.0, abs(r_o)))
        devs.append(dev)
        if not dev <= ORACLE_BOUND:
            failures.append(f"oracle deviation {dev:.3g}")
    return devs, failures


# ----------------------------------------------------------------------
# verify_grid: repeated run_default_verification() on the fixed grid
# ----------------------------------------------------------------------

class VerifyGrid(InProcess):
    def __init__(self, seed: int):
        # The grid is the product's own workload; the seed is accepted and ignored.
        import ssflow  # noqa: F401
        from ssflow import verify

        self.verify = verify
        self.ops = [{"kind": "default_grid"}]
        self.names = [c["name"] for c in verify.run_default_verification()["checks"]]

    def run(self, op):
        return self.verify.run_default_verification()

    def check(self, op, report) -> str | None:
        if [c["name"] for c in report.get("checks", [])] != self.names:
            return "verify report lists different checks than the warm-up"
        return check_verify_report(report)


WORKLOADS = {"cli_mix": CliMix, "orbit_ensemble": OrbitEnsemble, "verify_grid": VerifyGrid}


# ----------------------------------------------------------------------
# passes and metrics
# ----------------------------------------------------------------------

def verdict(wl, op, result) -> str | None:
    """Why the operation failed, or None; output its check cannot read fails too."""
    if isinstance(result, Exception):
        return f"raised {type(result).__name__}: {result}"
    try:
        return wl.check(op, result)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output ({type(exc).__name__}: {exc})"


def run_pass(wl, seconds=None, count=None, tracer=None, calibration=None, intervals=None):
    """Closed loop over wl.ops; returns per-op (kind, latency) and failure reasons.

    With a ``calibration``, its kernel runs between operations (see
    calibrate.py) and once after the last; each operation's (start, end) is
    appended to ``intervals``.

    With a tracer, each operation runs untraced and then traced, so that the
    two passes see the same machine state; the traced latencies come second.
    """
    done, traced, failures, total, i = [], [], [], 0.0, 0
    while True:
        if calibration is not None:
            calibration.between_operations()
        op = wl.ops[i % len(wl.ops)]
        start = clock()
        latency, result = wl.execute(op)
        if calibration is not None:
            intervals.append((start, clock()))
        reason = verdict(wl, op, result)
        if tracer is not None:
            tracer.op = i
            tracer.patch()
            try:
                traced_latency, traced_result = wl.execute_traced(op, tracer)
            finally:
                tracer.unpatch()
            reason = reason or verdict(wl, op, traced_result)
            traced.append((op["kind"], traced_latency))
        if reason is not None:
            failures.append(f"op {i} ({op['kind']}): {reason}")
        done.append((op["kind"], latency))
        total += latency
        i += 1
        if (count is not None and i >= count) or (seconds is not None and total >= seconds):
            if calibration is not None:
                calibration.run_kernel()
            return done, traced, failures


def tail(latencies):
    """Highest percentile with at least ten samples above it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return {"value": xs[-1], "percentile": 100.0, "beyond": 0, "samples": n}
    return {"value": xs[n - 11], "percentile": 100.0 * (n - 10) / n, "beyond": 10, "samples": n}


def import_probes(reps: int = 5) -> dict:
    """Fresh-process costs: interpreter start, and `import ssflow` inside a process."""
    interp, imports = [], []
    code = "import time; t = time.perf_counter(); import ssflow; print(time.perf_counter() - t)"
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, cwd=ROOT, timeout=60)
        interp.append(time.perf_counter() - t0)
        out = subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT, timeout=60,
                             capture_output=True, text=True)
        imports.append(float(out.stdout))
    return {"import.interpreter_s": _median(interp), "import.ssflow_s": _median(imports)}


def layer_metrics(tracer: Tracer, untraced, traced, oracle_devs) -> dict:
    counts = tracer.counts
    selfs = tracer.self_times()
    op_s = sum(lat for _, lat in traced)
    untraced_s = sum(t for name, t in selfs.items() if name.startswith("op."))
    layer_sum = sum(t for name, t in selfs.items() if not name.startswith("op."))
    m = {}
    for kind in workloads.CLI_BLOCK:
        m[f"cli.{kind}.latency_p50_s"] = _median([lat for k, lat in untraced if k == kind])
    integ_self = selfs.get("integrator.integrate", 0.0)
    acc = counts["integrator.integrate.accepted_steps"]
    rej = counts["integrator.integrate.rejected_steps"]
    m.update({
        "integrator.integrate.calls": counts["integrator.integrate.calls"],
        "integrator.integrate.accepted_steps": acc,
        "integrator.integrate.rejected_steps": rej,
        "integrator.integrate.step_acceptance": acc / (acc + rej) if acc + rej else 0.0,
        "integrator.integrate.self_s": integ_self,
        "integrator.integrate.us_per_step": 1e6 * integ_self / acc if acc else 0.0,
    })
    for status in STATUSES:
        m[f"integrator.status.{status}"] = counts[f"integrator.status.{status}"]
    m["phase_plane.rhs_evals"] = counts["phase_plane.rhs_evals"]
    cmp_self = selfs.get("integrator.compare_trajectories", 0.0)
    points = counts["integrator.compare_trajectories.grid_points"]
    m.update({
        "integrator.compare_trajectories.calls": counts["integrator.compare_trajectories.calls"],
        "integrator.compare_trajectories.grid_points": points,
        "integrator.compare_trajectories.self_s": cmp_self,
        "integrator.compare_trajectories.us_per_point": 1e6 * cmp_self / points if points else 0.0,
        "integrator.oracle_dev_p50": _median(oracle_devs),
        "integrator.oracle_dev_max": max(oracle_devs, default=0.0),
        "phase_plane.reconstruct_profile.samples": counts["phase_plane.reconstruct_profile.samples"],
    })
    for name in ("phase_plane.trajectory_map", "phase_plane.reconstruct_profile", "params.unified_coefficients",
                 "equivalence.maps", "equivalence.verify_equivalence", "solutions.max_residual",
                 "solutions.mass_integral"):
        m[f"{name}.calls"] = counts[f"{name}.calls"]
        m[f"{name}.self_s"] = selfs.get(name, 0.0)
    for check in VERIFY_CHECKS:
        m[f"verify.{check}.self_s"] = selfs.get(f"verify.{check}", 0.0)

    def share(prefix):
        return sum(t for name, t in selfs.items() if name.startswith(prefix)) / op_s if op_s else 0.0

    m.update({
        "trace.ops": len(traced),
        "trace.op_s": op_s,
        "trace.untraced_s": untraced_s,
        "trace.layer_self_s": layer_sum,
        "trace.overhead_frac": op_s / sum(lat for _, lat in untraced) - 1.0,
        "trace.share.import": share("import."),
        "trace.share.integrator": share("integrator."),
        "trace.share.integrator.integrate": share("integrator.integrate"),
        "trace.share.integrator.compare_trajectories": share("integrator.compare_trajectories"),
    })
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    # Set-up is scaled like an operation, by the kernel runs around it.
    calibration = calibrate.Calibration()
    calibrate.probe()  # the kernel's first run in a process is about an eighth slower; not used
    calibration.run_kernel()
    started = clock()
    wl = WORKLOADS[args.workload](args.seed)
    set_up = (started, clock())
    calibration.run_kernel()
    setup_raw = set_up[1] - set_up[0]
    result = {"workload": args.workload, "seed": args.seed, "setup_raw_s": setup_raw,
              "setup_s": setup_raw * calibration.factors([set_up])[0]}
    if not args.setup_only:
        if args.trace == 0:
            intervals = []
            done, _, failures = run_pass(wl, seconds=args.seconds, calibration=calibration, intervals=intervals)
            rss = wl.peak_rss_mb()
            raw = [latency for _, latency in done]
            factors = calibration.factors(intervals)
            lat = [latency * f for latency, f in zip(raw, factors)]
            tl = tail(lat)
            result["end_to_end"] = {"latency_p50_s": statistics.median(lat), "latency_tail_s": tl["value"],
                                    "throughput_ops_per_s": len(lat) / sum(lat), "peak_rss_mb": rss}
            result["raw"] = {"latency_p50_s": statistics.median(raw), "latency_tail_s": tail(raw)["value"],
                             "throughput_ops_per_s": len(raw) / sum(raw)}
            result["tail"] = tl
            kernel = [duration for _, duration in calibration.probes]
            result["calibration"] = {"probes": len(kernel), "kernel_median_s": statistics.median(kernel),
                                     "nominal_s": calibrate.NOMINAL_S, "sensitivity": calibrate.SENSITIVITY,
                                     "factor_median": statistics.median(factors)}
        else:
            tracer = Tracer()
            count = max(2, round(args.seconds * TRACE_RATE[args.workload]))
            block = TRACE_BLOCK.get(args.workload)
            if block:  # whole blocks, so that every operation kind is traced
                count = -(-count // block) * block
            untraced, traced, failures = run_pass(wl, count=count, tracer=tracer)
            done = untraced
        oracle_devs = []
        if isinstance(wl, OrbitEnsemble):
            oracle_devs, oracle_failures = run_oracle(wl.oracle_records)
            failures += oracle_failures
            result["oracle"] = {"orbits": len(wl.oracle_records), "dev_max": max(oracle_devs, default=0.0)}
        if args.trace == 1:
            result["per_layer"] = layer_metrics(tracer, untraced, traced, oracle_devs)
            result["per_layer"].update(import_probes())
            result["counts"] = dict(sorted(tracer.counts.items()))
            result["derived"] = {"integrator.integrate.rejected_steps":
                                 "(rhs evals - 1 - events) / 6 - accepted steps, per integrate call"}
            OUT_DIR.mkdir(exist_ok=True)
            spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
            spans_file.write_text(json.dumps(tracer.export()))
            result["spans_file"] = str(spans_file.relative_to(ROOT))
        result.update(attempted=len(done), failed=len(failures), failures=failures[:20],
                      kinds={k: sum(1 for kind, _ in done if kind == k) for k in sorted({k for k, _ in done})})
    Path(args.out).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
