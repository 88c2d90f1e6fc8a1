"""Benchmark entry point.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process, one operation at a time. It generates
the workload's inputs from the seed, times cycles of the workload's two
operations for at least S seconds (and at least three cycles), checks
every output, and prints every metric by name and unit. The last line of
standard output is one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Run it from the root of a checkout; it reads and writes only there.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy can be imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_CYCLES = 3
SETUP_REPEATS = 5
IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import codeset_bench.harness, codeset_bench.cli"


def tree_bytes(path: Path) -> int:
    if not path.exists():
        return 0
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def src_lines() -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in (SRC / "codeset_bench").rglob("*.py")
    )


def machine_facts(loadavg: tuple[float, float, float]) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS + ("CODESET_BENCH_THREADS",)},
        "loadavg_at_start": list(loadavg),
        "platform": platform.platform(),
    }


def emit(line: str = "") -> None:
    print(line, flush=True)


def timed_setup(workload, seed: int, work: Path):
    """Set the workload up SETUP_REPEATS times, each from a fresh
    interpreter import plus input generation, and keep the last inputs.
    Returns the ops factory and (raw seconds, slowdown) per repeat."""
    from calibrate import SpeedProbe

    samples = []
    for i in range(SETUP_REPEATS):
        with SpeedProbe() as speed:
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], check=True, cwd=ROOT)
            ops_factory = workload.setup(seed, work / f"inputs{i}")
            elapsed = time.perf_counter() - t0
        samples.append((elapsed, speed.slowdown()))
        if i:
            shutil.rmtree(work / f"inputs{i - 1}")
    return ops_factory, samples


def run_cycles(ops_factory, work: Path, seconds: float, tracer=None, on_traced=None) -> list[dict]:
    """Run cycles until ``seconds`` have passed and MIN_CYCLES are done.

    Each operation's wall time is kept with the slowdown it ran under.
    With a tracer, even cycles are traced and odd ones are
    not, so one run also yields the tracing overhead; ``on_traced(cycle)``
    takes a traced cycle's spans before the next cycle clears them.
    """
    from calibrate import SpeedProbe

    cycles = []
    start = time.perf_counter()
    while len(cycles) < MIN_CYCLES or time.perf_counter() - start < seconds:
        workspace = work / "workspace"
        shutil.rmtree(workspace, ignore_errors=True)
        ops, space = ops_factory(workspace)
        traced = tracer is not None and len(cycles) % 2 == 0
        if tracer is not None:
            tracer.reset()
        cycle = {"traced": traced, "raw": {}, "slowdown": {}, "problems": [], "quality": {}}
        for op in ops:
            if traced:
                tracer.recording = True
            with SpeedProbe() as speed:
                t0 = time.perf_counter()
                try:
                    with tracer.span("bench." + op.name) if traced else nullcontext():
                        result = op.run()
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    result = None
                elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.recording = False
            cycle["raw"][op.name] = elapsed
            cycle["slowdown"][op.name] = speed.slowdown()
            if result is None:
                cycle["problems"].append([op.name, "raised"])
                continue
            cycle["problems"] += [[op.name, p] for p in op.check(result)]
            if op.quality is not None:
                cycle["quality"][op.name] = op.quality(result)
        cycle["sizes"] = {
            "total": tree_bytes(space),
            "cache": tree_bytes(space / "cache"),
            "features": tree_bytes(space / "cache" / "features"),
            "runs": tree_bytes(space / "runs"),
        }
        if traced:
            on_traced(cycle)
        cycles.append(cycle)
    return cycles


def calibrated(cycle: dict, op: str) -> float:
    return cycle["raw"][op] / cycle["slowdown"][op]


def report_ops(workload, cycles) -> dict[str, tuple[float, str]]:
    """Print each operation's times and its run's test quality under the
    names users know (cold_run_s, report_s, ...); return them."""
    named = {}
    untraced = [c for c in cycles if not c["traced"]]
    last = cycles[-1]["quality"]
    for op, label in zip(cycles[0]["raw"], workload.op_names):
        raw = [c["raw"][op] for c in untraced]
        cal = [calibrated(c, op) for c in untraced]
        named[label] = (statistics.median(cal), "s")
        emit(f"op {label}: calibrated median {statistics.median(cal):.6f} s "
             f"(min {min(cal):.6f}, max {max(cal):.6f}); raw median {statistics.median(raw):.6f} s "
             f"(min {min(raw):.6f}, max {max(raw):.6f}); n {len(raw)}")
        if op in last:
            f1, auc = last[op]
            prefix = label[: -len("run_s")] if label.endswith("_run_s") else ""
            named[f"{prefix}test_f1"] = (f1, "1")
            named[f"{prefix}test_auc"] = (auc, "1")
    return named


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "codeset_bench" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload == "all":
        return run_all(workloads.WORKLOADS, args)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(workload, args, work, loadavg)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(names, args) -> int:
    """Run every workload, each in its own process, one after another."""
    worst = 0
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, cwd=ROOT).returncode)
    return worst


def measure(workload, args, work: Path, loadavg) -> int:
    facts = machine_facts(loadavg)
    emit(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    emit(f"why: {workload.why}")
    emit("machine " + json.dumps(facts, sort_keys=True))

    ops_factory, setup_samples = timed_setup(workload, args.seed, work)
    setup_s = statistics.median(raw / slow for raw, slow in setup_samples)
    emit(f"setup (import + inputs): calibrated median {setup_s:.6f} s; raw "
         f"{[round(raw, 4) for raw, _ in setup_samples]}, slowdown "
         f"{[round(slow, 3) for _, slow in setup_samples]}")

    tracer = None
    traced_cycles = []
    on_traced = None
    if args.trace:
        import instrument
        from spans import SpanIndex, Tracer, self_times

        tracer = Tracer()
        instrument.install(tracer)

        def on_traced(cycle):
            spans = list(tracer.spans)
            cycle["layers"] = instrument.layer_metrics(SpanIndex(spans), tracer.counts, cycle["sizes"])
            cycle["self"] = self_times(spans)
            traced_cycles.append(cycle)
    try:
        cycles = run_cycles(ops_factory, work, args.seconds, tracer, on_traced)
    finally:
        if tracer is not None:
            tracer.restore()

    attempted = sum(len(c["raw"]) for c in cycles)
    failed_ops = {(i, op) for i, c in enumerate(cycles) for op, _ in c["problems"]}
    for i, c in enumerate(cycles):
        for op, problem in c["problems"]:
            emit(f"check failed: cycle {i} {op}: {problem}")
    named = report_ops(workload, cycles)
    emit(f"checks: {attempted - len(failed_ops)} of {attempted} operations correct")

    result = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": facts,
        "setup_samples": setup_samples,
        "cycles": [{k: v for k, v in c.items() if k not in ("layers", "self")} for c in cycles],
    }
    if args.trace:
        metrics = trace_report(traced_cycles, cycles)
    else:
        untraced = [c for c in cycles if not c["traced"]]
        first, second = cycles[0]["raw"]
        metrics = {
            "setup_s": (setup_s, "s"),
            "first_op_s": (statistics.median(calibrated(c, first) for c in untraced), "s"),
            "second_op_s": (statistics.median(calibrated(c, second) for c in untraced), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "workspace_mb": (statistics.median(c["sizes"]["total"] for c in untraced) / 2**20, "MiB"),
            "src_lines": (src_lines(), "count"),
        }
        named.update((k, metrics[k]) for k in ("setup_s", "peak_rss_mb", "workspace_mb", "src_lines"))
        for name, (value, unit) in named.items():
            emit(f"metric {name} = {value!r} {unit}")
        result["named_metrics"] = named

    result["metrics"] = metrics
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    out = results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    emit(f"results: {out.relative_to(ROOT)}")
    emit(json.dumps({
        "correct": not failed_ops,
        "attempted": attempted,
        "failed": len(failed_ops),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def trace_report(traced_cycles, cycles) -> dict[str, tuple[float, str]]:
    """Print the traced run's report and return the per-layer metrics,
    each the median over the traced cycles."""
    import instrument

    n = len(traced_cycles)
    emit(f"traced cycles: {n} of {len(cycles)}")
    for op in cycles[0]["raw"]:
        on = statistics.median(calibrated(c, op) for c in cycles if c["traced"])
        off = statistics.median(calibrated(c, op) for c in cycles if not c["traced"])
        emit(f"op {op}: calibrated traced {on:.6f} s, untraced {off:.6f} s, "
             f"tracing overhead {on - off:+.6f} s")
    totals: dict[str, list[float]] = {}
    for c in traced_cycles:
        for name, (self_s, calls) in c["self"].items():
            acc = totals.setdefault(name, [0.0, 0.0])
            acc[0] += self_s / n
            acc[1] += calls / n
    entry = {"bench." + op for op in cycles[0]["raw"]} | set(instrument.ENTRY_POINTS)
    unattributed = sum(v[0] for name, v in totals.items() if name in entry)
    emit(f"raw self time per traced cycle, by span; unattributed (self time of the "
         f"entry calls) {unattributed:.6f} s:")
    for name, (self_s, calls) in sorted(totals.items(), key=lambda kv: -kv[1][0]):
        emit(f"  {name:<44} self {self_s:10.6f} s  calls {calls:10.1f}")
    metrics = {}
    for name, (_, unit) in traced_cycles[0]["layers"].items():
        value = statistics.median(c["layers"][name][0] for c in traced_cycles)
        metrics[name] = (value, unit)
        emit(f"layer {name} = {value!r} {unit}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
