"""qobserver benchmark: one workload per process, driven from a single thread.

    python3 perfbench/run.py --workload demo --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 25       # every workload, one process each

Run from the repository root.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.
The workloads, metrics and run length come from BENCHMARK.json at the
repository root.  See perfbench/README.md for what each metric measures.
"""

from __future__ import annotations

import argparse
import ctypes
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}

SETUP_PROBES = 5
WARMUP_OPS = 1
PROBE_TIMEOUT_S = 60
WORKLOAD_TIMEOUT_S = 170


def blas_threads() -> dict:
    """Thread count of each OpenBLAS loaded in this process, left as the program found it."""
    found = {}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                found[Path(path).name] = int(fn())
                break
    return found


def measure_setup(workload) -> list[float]:
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
           ",".join(workload.setup_modules), *map(str, workload.setup_inputs())]
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True,
                             timeout=PROBE_TIMEOUT_S)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


class Run:
    """Counts, op times and check statistics of one measured run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.op_times: list[float] = []
        self.traced_times: dict[int, float] = {}
        self.stats: dict[str, float] = {}
        self.errors: list[str] = []
        self.failed_ops: set[str] = set()

    def add_stats(self, stats: dict) -> None:
        """Sizes add up over operations; residuals keep their worst value."""
        for key, value in stats.items():
            if key == "cli.output_mb":
                self.stats[key] = self.stats.get(key, 0.0) + value
            else:
                self.stats[key] = max(self.stats.get(key, 0.0), value)


def run_op(op, run: Run) -> float:
    start = time.perf_counter()
    result = op.run()
    elapsed = time.perf_counter() - start
    try:
        outcome = op.check(result)
    except checks.CheckFailed as exc:
        # A wrong result is a failed operation too, so ops_per_s never credits it.
        run.errors.append(f"{op.label}: {exc}")
        run.failed += 1
        run.failed_ops.add(op.label)
        return elapsed
    if outcome.failed:
        run.failed += 1
        run.failed_ops.add(op.label)
    run.add_stats(outcome.stats)
    return elapsed


def measure(workload, seconds: float, tracer) -> Run:
    """Whole rounds for about ``seconds``.

    A new round starts only while the mean round so far still fits in the
    time left, so runs end near ``seconds`` whatever a round costs.  With a
    tracer, rounds alternate untraced and traced, so that both see the same
    host speed; at least one of each is run.
    """
    ops = workload.round()
    warmup = Run()
    for op in ops[:WARMUP_OPS]:
        run_op(op, warmup)
    run = Run()
    run.errors = warmup.errors
    start = time.perf_counter()
    while True:
        traced = tracer is not None and run.rounds % 2 == 1
        if traced:
            tracer.install()
        try:
            for op in ops:
                op_id = tracer.begin_op() if traced else None
                elapsed = run_op(op, run)
                run.attempted += 1
                if traced:
                    run.traced_times[op_id] = elapsed
                else:
                    run.op_times.append(elapsed)
        finally:
            if traced:
                tracer.uninstall()
        run.rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (run.rounds + 1) / run.rounds > seconds and run.rounds >= (2 if tracer else 1):
            return run


def per_layer_metrics(workload, run: Run, tracer) -> tuple[dict, list[str]]:
    values, missing = tracing.layer_summary(tracer.spans, run.traced_times, run.rounds // 2,
                                            workload.expected)
    n_ops = run.attempted
    for metric in ("simulation.propagate_dev", "simulation.avg_bias"):
        values[metric] = run.stats.get(metric, 0.0)
    values["cli.output_mb"] = run.stats.get("cli.output_mb", 0.0) / n_ops
    values["trace.overhead_s"] = values["trace.op_s"] - statistics.fmean(run.op_times)
    return values, missing


def run_workload(args) -> int:
    if not (SRC / "qobserver" / "__init__.py").is_file():
        print(f"error: no qobserver sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    phases = {"start": time.perf_counter()}
    try:
        workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, workdir)
        phases["inputs"] = time.perf_counter()
        setup = measure_setup(workload)
        phases["setup"] = time.perf_counter()
        tracer = tracing.Tracer() if args.trace else None
        run = measure(workload, args.seconds, tracer)
        phases["measure"] = time.perf_counter()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    marks = list(phases.items())
    phase_s = {name: t - marks[i - 1][1] for i, (name, t) in enumerate(marks) if i}

    if args.trace:
        metrics, missing = per_layer_metrics(workload, run, tracer)
        names = [m["name"] for m in BENCHMARK["per_layer"]]
    else:
        done = run.attempted - run.failed
        metrics = {
            "setup_s": statistics.median(setup),
            "op_p50_s": statistics.median(run.op_times),
            "ops_per_s": done / sum(run.op_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        missing = []
        names = [m["name"] for m in BENCHMARK["end_to_end"]]
    for error in run.errors[:5]:
        print(f"check failed: {error}", file=sys.stderr)
    if run.failed_ops:
        print(f"failed operations: {', '.join(sorted(run.failed_ops))}", file=sys.stderr)
    for metric in missing:
        print(f"missing span: {metric} never fired on {args.workload}", file=sys.stderr)

    import numpy
    import scipy
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": run.rounds, "setup_samples": setup,
        "blas_threads": blas_threads(), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "missing": missing, "check_errors": len(run.errors),
        "phase_s": phase_s,
    }
    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": UNITS[name]}
                    for name in names if name in metrics},
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    record = {"info": info, "result": result, "op_times": run.op_times}
    if tracer is not None:
        record["spans"] = [vars(s) for s in tracer.spans]
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record) + "\n")
    print("info " + json.dumps(info))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; a table, then each workload's JSON."""
    status = 0
    lines = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=WORKLOAD_TIMEOUT_S + args.seconds)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            print(f"{name}: exit {out.returncode}", file=sys.stderr)
            status = out.returncode
            continue
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, value in result["metrics"].items():
            print(f"  {metric:<26} {value['value']:.6g} {value['unit']}")
        lines.append(json.dumps({"workload": name, **result}))
    print("\n".join(lines))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload (default: every workload, one process each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
