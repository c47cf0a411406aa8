"""Closed-loop benchmark of tenslab, one workload per process.

Run from the root of a tenslab checkout:

    python3 benchmark/run.py --workload cp-fit --seed 1 --seconds 25 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 25 --trace 0

A run imports tenslab from ``src/`` of the checkout, makes the workload's
inputs from the seed, then runs identical jobs one after another (a single
caller) until the jobs have taken ``--seconds`` seconds. With ``--trace 0``
it reports the end-to-end metrics; with ``--trace 1`` it spends half the
time untraced and half traced and reports the per-layer metrics. The last
line of standard output is one JSON object; the lines before it are for
people. ``--workload all`` runs every workload in its own process.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracing
from workloads import WORKLOADS, CheckFailed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 3       # setup_s is the median of this many set-ups
MIN_JOBS = 11           # so that job_tail_s has ten jobs beyond it
MIN_TRACED_JOBS = 2     # per traced pass
MAX_FAILURES = 10

END_TO_END = [
    ("job_p50_s", "s", "lower"),
    ("job_tail_s", "s", "lower"),
    ("jobs_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("rel_error_max", "ratio", "lower"),
]


def import_tenslab():
    """Import tenslab afresh from the checkout's ``src/``."""
    for name in [n for n in sys.modules if n == "tenslab" or n.startswith("tenslab.")]:
        del sys.modules[name]
    import tenslab
    import tenslab.cli
    if Path(tenslab.__file__).resolve().parent != SRC / "tenslab":
        raise ImportError(f"imported tenslab from {tenslab.__file__}, not from {SRC}")
    return tenslab


class Phase:
    """Jobs run back to back: their times, errors and failures."""

    def __init__(self):
        self.times: list[float] = []
        self.errors: list[float] = []
        self.layers: list[dict[str, float]] = []
        self.failed = 0

    @property
    def attempted(self) -> int:
        return len(self.times)


def run_jobs(workload, seconds: float, min_jobs: int, tracer=None) -> Phase:
    """Run jobs 0, 1, ... until they took ``seconds`` and at least ``min_jobs`` ran.

    A job fails on an exception, a nonzero exit code or a failed check. The
    checks run between jobs, outside the timed region. A phase also ends
    after MAX_FAILURES failed jobs.
    """
    phase = Phase()
    k = 0
    while (k < min_jobs or sum(phase.times) < seconds) and phase.failed < MAX_FAILURES:
        if tracer is not None:
            tracer.reset()
        start = time.perf_counter()
        try:
            outcome = workload.job(k)
        except Exception:
            phase.times.append(time.perf_counter() - start)
            phase.failed += 1
            traceback.print_exc(file=sys.stderr)
        else:
            phase.times.append(time.perf_counter() - start)
            if tracer is not None:
                phase.layers.append(tracing.job_layers(tracer.spans, phase.times[-1]))
            try:
                phase.errors.append(workload.check(outcome))
            except CheckFailed as exc:
                phase.failed += 1
                print(f"check failed in {workload.name} job {k}: {exc}", file=sys.stderr)
        k += 1
    return phase


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten jobs beyond it, and its rank."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[0], 0.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # KiB on Linux


# -- environment ----------------------------------------------------------------

def _openblas():
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if get is not None:
                    return get, getattr(lib, f"{prefix}set_num_threads{suffix}", None)
    return None, None


def environment(nproc: int) -> dict:
    """numpy, BLAS, CPU and cache facts; caps BLAS threads at nproc if needed."""
    env = {"numpy": np.__version__, "python": platform.python_version(), "nproc": nproc}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"], env["blas_version"] = blas.get("name", "?"), blas.get("version", "?")
    except (TypeError, KeyError):
        env["blas"], env["blas_version"] = "unknown", "unknown"
    get_threads, set_threads = _openblas()
    threads = int(get_threads()) if get_threads else None
    if threads is not None and threads > nproc and set_threads is not None:
        set_threads(nproc)
        env["blas_threads_default"] = threads
        threads = int(get_threads())
    env["blas_threads"] = threads if threads is not None else "unknown"
    env["cpu"] = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu"] = line.split(":", 1)[1].strip()
                break
    libc = ctypes.CDLL(None)
    for key, sc_name in (("l2_bytes", 191), ("l3_bytes", 194)):   # glibc _SC_LEVEL{2,3}_CACHE_SIZE
        value = libc.sysconf(sc_name)
        env[key] = value if value > 0 else "unknown"
    return env


def _mib(n) -> str:
    return f"{n / 2 ** 20:.2f} MiB" if isinstance(n, int) else str(n)


def print_environment(env: dict, workload) -> None:
    print(f"env numpy {env['numpy']}, BLAS {env['blas']} {env['blas_version']} with "
          f"{env['blas_threads']} threads (default), nproc {env['nproc']}, "
          f"Python {env['python']}, CPU {env['cpu']}")
    if "blas_threads_default" in env:
        print(f"env BLAS default of {env['blas_threads_default']} threads capped at nproc")
    size = workload.input_bytes
    fits = next((name for name, cap in (("L2", env["l2_bytes"]), ("L3", env["l3_bytes"]))
                 if isinstance(cap, int) and size <= cap), "neither cache")
    print(f"env {workload.name}: {workload.input_label} is {_mib(size)}; "
          f"L2 {_mib(env['l2_bytes'])}, L3 {_mib(env['l3_bytes'])} (shared); fits in {fits}")


# -- one workload -----------------------------------------------------------------

def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload_cls = WORKLOADS[name]
    setup_times = []
    failed = 0
    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        tl = import_tenslab()
        workload = workload_cls(tl, seed, workdir)
        workload.setup()
        try:
            outcome = workload.job(0)   # warm-up
            setup_times.append(time.perf_counter() - start)
            workload.check(outcome)
        except CheckFailed as exc:
            failed += 1
            print(f"check failed in {name} warm-up: {exc}", file=sys.stderr)
        except Exception:
            setup_times.append(time.perf_counter() - start)
            failed += 1
            traceback.print_exc(file=sys.stderr)

    nproc = len(os.sched_getaffinity(0))
    print_environment(environment(nproc), workload)
    if not trace:
        phase = run_jobs(workload, seconds, MIN_JOBS)
        tail_s, tail_pct = tail(phase.times)
        metrics = {
            "job_p50_s": statistics.median(phase.times),
            "job_tail_s": tail_s,
            "jobs_per_s": phase.attempted / sum(phase.times),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mib": peak_rss_mib(),
            # 1.0 (no better than a zero result) when no job passed its checks
            "rel_error_max": max(phase.errors, default=1.0),
        }
        units = {m: u for m, u, _ in END_TO_END}
        failed += phase.failed
        notes = {"job_tail_s": f"p{tail_pct:.1f}", "setup_s": f"median of {SETUP_REPEATS}"}
        print(f"{name}: {phase.attempted} jobs, one caller, closed loop, seed {seed}")
        for key, value in metrics.items():
            n = SETUP_REPEATS if key == "setup_s" else phase.attempted
            extra = f" {notes[key]}" if key in notes else ""
            print(f"  {key:<14} {value:.6g} {units[key]} (n={n}){extra}")
        print(f"  {'fail_ratio':<14} {failed / phase.attempted:.6g} (failed {failed} of "
              f"{phase.attempted} jobs)")
        return result(failed == 0, phase.attempted, failed, metrics, units)

    plain = run_jobs(workload, seconds / 2, MIN_TRACED_JOBS + 1)
    tracer = tracing.Tracer()
    tracer.install(tl, workload.counted_callables())
    try:
        passes = [run_jobs(workload, seconds / 4, MIN_TRACED_JOBS, tracer) for _ in range(2)]
    finally:
        tracer.uninstall()
    failed += plain.failed + sum(p.failed for p in passes)
    attempted = plain.attempted + sum(p.attempted for p in passes)
    layers = passes[0].layers + passes[1].layers
    if not layers:
        print(f"error: no traced {name} job completed", file=sys.stderr)
        return result(False, attempted, max(failed, 1), {}, {})
    metrics = {key: statistics.median(job[key] for job in layers) for key in layers[0]}
    traced_times = passes[0].times + passes[1].times
    metrics["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(plain.times)
    units = {m: u for m, u, _, _ in tracing.PER_LAYER}
    units.update((m, u) for m, u, _ in tracing.TRACE_METRICS)

    correct = failed == 0
    shared = min(len(p.layers) for p in passes)
    for key in tracing.COMPUTED:
        first = [job[key] for job in passes[0].layers[:shared]]
        second = [job[key] for job in passes[1].layers[:shared]]
        if first != second:
            correct = False
            print(f"computed count {key} differs between traced passes: {first} vs {second}",
                  file=sys.stderr)
    if metrics["trace.coverage"] < 0.95:
        correct = False
        print(f"top-level spans cover only {metrics['trace.coverage']:.3f} of the traced job",
              file=sys.stderr)
    print(f"{name}: traced {len(layers)} jobs in two passes, {plain.attempted} untraced, "
          f"seed {seed}")
    for key in sorted(metrics):
        label = " (computed, repeats exactly)" if key in tracing.COMPUTED else ""
        print(f"  {key:<32} {metrics[key]:.6g} {units[key]}{label}")
    print("each layer should move:")
    for prefix, target in tracing.TARGETS.items():
        print(f"  {prefix:<22} {target}")
    return result(correct, attempted, failed, metrics, units)


def result(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> dict:
    return {"correct": bool(correct), "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()}}


# -- all workloads ------------------------------------------------------------------

def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    names = list(results)
    keys = list(results[names[0]]["metrics"])
    print()
    print(f"{'metric':<32}{'unit':>7}" + "".join(f"{n:>14}" for n in names))
    for key in keys:
        unit = results[names[0]]["metrics"][key]["unit"]
        print(f"{key:<32}{unit:>7}"
              + "".join(f"{results[n]['metrics'][key]['value']:>14.5g}" for n in names))
    print(f"{'fail_ratio':<32}{'':>7}"
          + "".join(f"{results[n]['failed'] / results[n]['attempted']:>14.5g}" for n in names))
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "workloads": results}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "tenslab" / "__init__.py").is_file():
        print(f"error: no tenslab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORK / f"{args.workload}-{os.getpid()}", ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
