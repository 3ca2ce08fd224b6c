"""Closed-loop benchmark of the aircover simulator.

Runs one workload the way ``aircover run`` does (parse_config, step
repeatedly, write_trace, write_summary, emit_plotdata), one simulation at a
time from a single process, for --seconds, then checks every run's
artifacts and prints one JSON line.  See perfbench/README.md.

Usage (from the repository root):
    python3 perfbench/run.py --workload trio_passage --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from workloads import OUT_ROOT, SRC, WORKLOADS

workloads.pin_threads()  # before numpy is first imported

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import reference  # noqa: E402
import tracer as tracing  # noqa: E402

# The window is extended until p95 has at least ten samples beyond it.
MIN_TIMED_STEPS = 200
# Never start another run after this many seconds, whatever the floors say.
HARD_STOP_S = 120.0
END_TO_END_UNITS = {
    "setup_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p95": "ms",
    "steps_per_s": "1/s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "qp_ok_share": "share",
    "check_ok_share": "share",
}


def import_program():
    """Import aircover from this checkout's src/ and nowhere else."""
    package = SRC / "aircover"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no aircover source at {package}")
    sys.path.insert(0, str(SRC))
    import aircover.cli
    import aircover.sim

    if Path(aircover.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported aircover from {aircover.__file__}, not {package}")
    return aircover.cli, aircover.sim


class StepClock:
    """Wraps aircover.sim.step to record each step's (start, end)."""

    def __init__(self, sim):
        self.sim = sim
        self.original = sim.step
        self.marks = []
        marks = self.marks
        clock = time.perf_counter
        step = self.original

        def timed_step(world, scenario):
            t0 = clock()
            out = step(world, scenario)
            marks.append((t0, clock()))
            return out

        sim.step = timed_step

    def restore(self):
        self.sim.step = self.original


def calibrate():
    """Fixed pure-Python and numpy kernels, in ms (median of 5): a host-speed diagnostic."""
    def python_kernel():
        total = 0
        for i in range(200_000):
            total += i * i
        return total

    a = np.linspace(0.0, 1.0, 500_000)

    def numpy_kernel():
        return float(np.exp(-a * a).sum())

    out = {}
    for name, kernel in (("python_ms", python_kernel), ("numpy_ms", numpy_kernel)):
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            kernel()
            times.append(1e3 * (time.perf_counter() - t0))
        out[name] = statistics.median(times)
    return out


def environment():
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in workloads.THREAD_VARS},
    }


class Bench:
    def __init__(self, workload, seed, out, cli, sim):
        self.workload = workload
        self.out = out
        self.cli = cli
        self.clock = StepClock(sim)
        self.config = out / "scenario.cfg"
        self.config.write_text(workload.config_text(seed))
        self.scenario = self.cli.parse_config(self.config.read_text())
        self.reference = reference.load(workload, seed)
        self.checked = []  # (label, problems) per checked run
        self.first = None  # fingerprint of the first run that completed

    def run(self, out_dir, steps=None):
        """One ``aircover run`` in this process; returns its timings."""
        self.clock.marks.clear()
        t0 = time.perf_counter()
        code = self.cli.main(self.workload.cli_args(self.config, out_dir, steps))
        t1 = time.perf_counter()
        marks = list(self.clock.marks)
        if code != 0 or not marks:
            return {"code": code, "steps": len(marks)}
        return {
            "code": code,
            "steps": len(marks),
            "run_s": t1 - t0,
            "setup_s": marks[0][1] - t0,
            "step_s": [end - start for start, end in marks[1:]],
            "loop_s": marks[-1][1] - marks[0][1],
        }

    def check(self, label, out_dir, code, steps):
        """Exit code, step count, replay identity and the pinned reference, for one run."""
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        elif steps != self.workload.steps:
            problems.append(f"{steps} steps, expected {self.workload.steps}")
        else:
            got = reference.fingerprint(out_dir / "trace.csv", out_dir / "summary.txt")
            if self.first is None:
                self.first = got
            elif any(got[k] != self.first[k] for k in reference.DIGESTS):
                problems.append("trace.csv or summary.txt differs from the first replay")
            problems += reference.compare(got, self.reference)
        self.checked.append((label, problems))
        return not problems


def measure(bench, seconds, trace):
    """The closed loop: one full run after another until the window and floors are met."""
    workload = bench.workload
    full_dir = bench.out / "run"
    setup_dir = bench.out / "setup"
    full_dir.mkdir()
    setup_dir.mkdir()
    bench.run(setup_dir, steps=1)  # warm-up: first-call costs of the interpreter and libraries
    tracer = tracing.Tracer() if trace else None
    untraced, traced, setups, broken = [], [], [], []
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        timed = sum(len(r["step_s"]) for r in untraced)
        if trace:
            enough = elapsed >= seconds and len(untraced) >= 2 and len(traced) >= 2
        else:
            enough = elapsed >= seconds and timed >= MIN_TIMED_STEPS and len(untraced) >= 2
        if enough or elapsed >= HARD_STOP_S:
            break
        use_tracer = trace and i % 2 == 1
        if use_tracer:
            tracer.install(run_id=i)
        result = bench.run(full_dir)
        if use_tracer:
            broken += tracer.uninstall()
        ok = bench.check(f"run {i}{' traced' if use_tracer else ''}", full_dir,
                         result["code"], result["steps"])
        if not ok and result["code"] != 0:
            break
        (traced if use_tracer else untraced).append(result)
        if not trace:
            for _ in range(workload.setup_reps):
                setups.append(bench.run(setup_dir, steps=1).get("setup_s"))
        i += 1
    setups = [t for t in setups if t is not None] + [r["setup_s"] for r in untraced]
    return untraced, traced, setups, tracer, broken


def rss_child(bench):
    """Peak RSS (MB) of a fresh ``aircover run`` process that ran this workload once."""
    out_dir = bench.out / "child"
    out_dir.mkdir()
    proc = subprocess.run(
        workloads.aircover_command(bench.workload, bench.config, out_dir),
        env=workloads.child_env(), capture_output=True, text=True, timeout=170,
    )
    steps = None
    if proc.returncode == 0:
        _, rows = reference.read_trace(out_dir / "trace.csv")
        steps = len(rows)
    bench.check("fresh process", out_dir, proc.returncode, steps)
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def qp_ok_share(out_dir):
    header, rows = reference.read_trace(out_dir / "trace.csv")
    cols = [i for i, name in enumerate(header) if name.startswith("fallback")]
    fallbacks = sum(int(row[c]) for row in rows for c in cols)
    return 1.0 - fallbacks / (len(rows) * len(cols))


def end_to_end(bench, untraced, setups, rss_mb):
    step_ms = 1e3 * np.array([t for r in untraced for t in r["step_s"]])
    checked = len(bench.checked)
    failed = sum(1 for _, problems in bench.checked if problems)
    values = {
        "setup_s": (statistics.median(setups), len(setups)),
        "step_ms_p50": (float(np.median(step_ms)), len(step_ms)),
        "step_ms_p95": (float(np.percentile(step_ms, 95)), len(step_ms)),
        "steps_per_s": (len(step_ms) / sum(r["loop_s"] for r in untraced), len(untraced)),
        "run_s": (statistics.median(r["run_s"] for r in untraced), len(untraced)),
        "peak_rss_mb": (rss_mb, 1),
        "qp_ok_share": (qp_ok_share(bench.out / "run"), 1),
        "check_ok_share": (1.0 - failed / checked, checked),
    }
    return {k: (v, END_TO_END_UNITS[k], n) for k, (v, n) in values.items()}


def per_layer(bench, untraced, traced, tracer, broken):
    metrics, checks = tracing.layer_metrics(
        tracer, len(bench.scenario.agents), bench.scenario.hole_check_every)
    untraced_run = statistics.median(r["run_s"] for r in untraced)
    traced_run = statistics.median(r["run_s"] for r in traced)
    untraced_steps = [t for r in untraced for t in r["step_s"]]
    metrics["trace.overhead_share"] = (traced_run / untraced_run - 1.0, "share")
    metrics["trace.untraced_step_ms"] = (1e3 * statistics.fmean(untraced_steps), "ms")
    checks["wrappers restored the original functions"] = not broken
    n_traced_steps = sum(r["steps"] for r in traced)
    return {k: (v, unit, n_traced_steps) for k, (v, unit) in metrics.items()}, checks


def run_workload(args):
    cli, sim = import_program()
    workload = WORKLOADS[args.workload]
    out = OUT_ROOT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    bench = Bench(workload, args.seed, out, cli, sim)
    (out / "command.txt").write_text(
        "PYTHONPATH=src aircover "
        + " ".join(workload.cli_args(bench.config.relative_to(workloads.ROOT), "out")) + "\n")

    diagnostics = {"environment": environment(), "calibration_before": calibrate()}
    untraced, traced, setups, tracer, broken = measure(bench, args.seconds, args.trace)
    diagnostics["calibration_after"] = calibrate()
    checks = {}
    if args.trace:
        metrics, checks = per_layer(bench, untraced, traced, tracer, broken)
        tracer.write_csv(out / "spans.csv")
        layers = {k[len("share."):]: v[0] for k, v in metrics.items() if k.startswith("share.")}
        diagnostics["largest_layer"] = max(layers, key=layers.get)
    else:
        metrics = end_to_end(bench, untraced, setups, rss_child(bench))
    bench.clock.restore()

    failed = sum(1 for _, problems in bench.checked if problems)
    correct = failed == 0 and all(checks.values())
    first = bench.first
    diagnostics["artifacts"] = {
        **{k: first[k] for k in reference.DIGESTS},
        "matches_pinned_digests": all(first[k] == bench.reference[k] for k in reference.DIGESTS),
        **{k: first["summary"][k] for k in ("hole_witness_steps", "min_ncbf", "fallback_count")},
    }
    result = {
        "correct": correct,
        "attempted": len(bench.checked),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit, _) in metrics.items()},
    }
    (out / "results.json").write_text(json.dumps({
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "result": result, "samples": {k: n for k, (_, _, n) in metrics.items()},
        "checks": checks, "runs_checked": bench.checked, "diagnostics": diagnostics,
        "per_run": [{"run_s": r["run_s"], "setup_s": r["setup_s"],
                     "step_ms_p50": 1e3 * float(np.median(r["step_s"])),
                     "steps_per_s": len(r["step_s"]) / r["loop_s"]} for r in untraced + traced],
    }, indent=1) + "\n")

    print(f"# workload {workload.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    for key, value in diagnostics.items():
        print(f"# {key}: {json.dumps(value)}")
    for label, problems in bench.checked:
        print(f"# check {label}: {'ok' if not problems else '; '.join(problems[:5])}")
    for label, ok in checks.items():
        print(f"# check {label}: {'ok' if ok else 'FAILED'}")
    for key, (value, unit, n) in metrics.items():
        print(f"{key} {value:.6g} {unit} n={n}")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload, each in a fresh process; prints each one's lines, then a combined JSON."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=300,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description="Closed-loop aircover benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
