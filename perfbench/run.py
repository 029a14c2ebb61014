#!/usr/bin/env python3
"""Benchmark of the ``lam`` library: one workload per process.

Run from the root of a checkout::

    python3 perfbench/run.py --workload lab-large --seed 1 --seconds 10 --trace 0

With ``--trace 0`` it times a closed loop of ops (one caller, the next op
starts when the previous one returns) for at least ``--seconds`` seconds,
with a machine-speed probe (``speed.py``) that scales the set-up and op
times to a nominal machine speed, checks every output, re-runs a fixed
subset of ops in a child process under a second ``PYTHONHASHSEED`` and
prints the end-to-end metrics.  With
``--trace 1`` it times the same loop, runs the ops it completed a second
time with spans and counters around the library's functions, and prints
the per-layer metrics.  The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable summary and the environment.

The process re-executes itself once to pin ``PYTHONHASHSEED`` and the
BLAS thread count, so timings do not depend on the caller's environment.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
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

from speed import Probe
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Hash seed of every timed run, and the second seed of the divergence check.
HASH_SEED = "0"
SECOND_HASH_SEED = "1"
#: numpy's linear algebra here is tiny lstsq and eigenvalue calls: one thread.
PINNED_ENV = {
    "PYTHONHASHSEED": HASH_SEED,
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
#: Set-up runs at least this many times and for at least this long.
SETUP_REPEATS = 7
SETUP_MIN_S = 1.0
CHILD_TIMEOUT_S = 150


def pin_environment(argv: list[str]) -> None:
    """Re-execute this script with the pinned environment unless it is set."""
    if all(os.environ.get(k) == v for k, v in PINNED_ENV.items()):
        return
    env = dict(os.environ, **PINNED_ENV)
    os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)


def import_library():
    """Import ``lam`` from this checkout's ``src``, never from elsewhere."""
    init = SRC / "lam" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import lam

    if Path(lam.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported lam from {lam.__file__}, not {init}")
    return lam


def blas_threads() -> str:
    """Threads of the OpenBLAS numpy loaded, read from the library itself."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def environment(args) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "blas_threads": blas_threads(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
    }


#: Fewest ops for which the 90th percentile has ten samples beyond it.
P90_MIN_OPS = 100


def p90(values: list[float]) -> float:
    """90th percentile of the op times; the median when the run has too few
    ops for a 90th percentile with ten samples beyond it."""
    if len(values) < P90_MIN_OPS:
        return statistics.median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def timed_loop(rounds, seconds: float):
    """Run whole rounds, cycling, until ``seconds`` have passed; returns
    the log of ``run_op`` results, each (op, start, seconds, error)."""
    log = []
    started = time.perf_counter()
    while True:
        for ops in rounds:
            log += [run_op(op) for op in ops]
            if time.perf_counter() - started >= seconds:
                return log


def run_op(op, tracer=None):
    """Call and check one op; returns (op, start, seconds, error or None).

    Only the call is timed; the check runs after it.  An op that raises is
    a failed op, not the end of the run."""
    span = tracer.open("bench.op") if tracer is not None else None
    t0 = time.perf_counter()
    try:
        out = op.call()
        error = None
    except Exception as e:  # the loop keeps counting past a failed op
        error = f"raised {type(e).__name__}: {e}"
    elapsed = time.perf_counter() - t0
    if span is not None:
        tracer.close(span)
    if error is None:
        error = op.check(out)
    return op, t0, elapsed, error


def run_hash_ops(workload) -> list[str]:
    """Digests of the hash subset's outputs.  Checks run too, because some
    write the files later ops read; their verdicts are not counted here."""
    digests = []
    for op in workload.hash_ops():
        out = op.call()
        op.check(out)
        digests.append(op.digest(out))
    return digests


def hash_divergence(workload, workdir: Path, args) -> tuple[int, int]:
    """Re-run the workload's hash subset in one child under the second hash
    seed, alongside the same subset here; returns (divergent, compared)."""
    child_dir = workdir / "hash-child"
    child_dir.mkdir()
    env = dict(os.environ, PYTHONHASHSEED=SECOND_HASH_SEED)
    cmd = [sys.executable, str(HERE / "hashcheck.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(child_dir)]
    with subprocess.Popen(cmd, env=env, cwd=child_dir, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as child:
        try:
            mine = run_hash_ops(workload)
            out, err = child.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
    if child.returncode != 0:
        raise RuntimeError(f"hash check child failed ({child.returncode}): {err.strip()}")
    theirs = json.loads(out.strip().splitlines()[-1])
    return count_divergent(mine, theirs), len(mine)


def count_divergent(mine: list[str], theirs: list[str]) -> int:
    """Ops whose outputs differ; a length mismatch is an error, not a count."""
    if len(mine) != len(theirs):
        raise ValueError(f"compared {len(mine)} outputs with {len(theirs)}")
    return sum(a != b for a, b in zip(mine, theirs))


def measure_setup(workload) -> list[tuple[float, float]]:
    """Set the workload up ``SETUP_REPEATS`` times, and more until
    ``SETUP_MIN_S`` have passed; returns (start, seconds) of each set-up."""
    times = []
    started = time.perf_counter()
    while len(times) < SETUP_REPEATS or time.perf_counter() - started < SETUP_MIN_S:
        t0 = time.perf_counter()
        workload.setup()
        times.append((t0, time.perf_counter() - t0))
    return times


def wall_clock_line(setups, raw, probe: Probe) -> str:
    """The uncalibrated set-up and op times, and the machine speed."""
    wall = [dt for _, _, dt, _ in raw]
    good = sum(err is None for *_, err in raw)
    return (f"wall clock: setup_s {statistics.median(dt for _, dt in setups):.6g}  "
            f"op_p50_s {statistics.median(wall):.6g}  ops_per_s {good / sum(wall):.6g}  "
            f"machine speed {probe.speed():.3f} of nominal ({len(probe.samples)} probes)")


def end_to_end(workload, log, setup_s: float, workdir: Path, args, summary: list[str]) -> dict:
    """End-to-end metrics from the calibrated log, each (op, seconds, error)."""
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    good = [dt for _, dt, err in log if err is None]
    times = [dt for _, dt, _ in log]
    divergent, compared = hash_divergence(workload, workdir, args)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(good) / sum(times), "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_p90_s": (p90(times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "fit_grad_max": (workload.fit_grad_max(), "abs"),
        "hash_stable_share": ((compared - divergent) / compared, "ratio"),
    }
    summary.append(f"ops {len(log)}  fail_ratio {(len(log) - len(good)) / len(log):.4f}  "
                   f"hash_divergent_ops {divergent} of {compared}")
    return metrics


def per_layer(workload, log, rounds, summary: list[str]):
    """Replay the timed loop's ops with tracing on; returns the per-layer
    metrics and the log of the traced ops."""
    import instrument
    from tracing import Tracer

    untraced = sum(dt for _, dt, _ in log)
    times_by_name: dict[str, list[float]] = {}
    for op, dt, _ in log:
        times_by_name.setdefault(op.name, []).append(dt)
    tracer = Tracer()
    instrument.install(tracer)
    try:
        # the same ops in the same order as the timed loop
        ops = itertools.cycle([op for ops in rounds for op in ops])
        traced_log = [(op, dt, err) for op, _, dt, err in
                      (run_op(op, tracer=tracer) for op in itertools.islice(ops, len(log)))]
    finally:
        tracer.restore()
    traced = sum(s.duration for s in tracer.spans if s.name == "bench.op")
    metrics = instrument.per_layer_metrics(tracer, traced, untraced, times_by_name)
    values = {name: value for name, (value, _) in metrics.items()}
    shares = "  ".join(f"{layer} {values[layer + '.share']:.3f}" for layer in instrument.LAYERS)
    summary.append(f"layer shares of traced wall time: {shares}")
    if workload.name in instrument.PREDICTIONS:
        claim, share = instrument.PREDICTIONS[workload.name]
        value = share(values)
        summary.append(f"prediction: {claim}: {'met' if value > 0.5 else 'not met'} ({value:.3f})")
    return metrics, traced_log


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_environment(argv)
    import_library()

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    home = os.getcwd()
    summary: list[str] = []
    try:
        os.chdir(workdir)
        workload = WORKLOADS[args.workload](args.seed, workdir)
        # the traced run keeps wall times: its metrics have no bound
        probe = Probe()
        with probe if not args.trace else contextlib.nullcontext():
            setups = measure_setup(workload)
            rounds = workload.cycle()
            raw = timed_loop(rounds, args.seconds)
        log = [(op, probe.calibrated(t0, dt), err) for op, t0, dt, err in raw]
        if args.trace:
            metrics, traced_log = per_layer(workload, log, rounds, summary)
            log += traced_log
        else:
            summary.append(wall_clock_line(setups, raw, probe))
            setup_s = statistics.median(probe.calibrated(t0, dt) for t0, dt in setups)
            metrics = end_to_end(workload, log, setup_s, workdir, args, summary)
    finally:
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    failed = [(op.name, err) for op, _, err in log if err is not None]
    for name, err in failed[:10]:
        summary.append(f"FAILED {name}: {err}")
    for name, (value, unit) in metrics.items():
        summary.append(f"{name:40s} {value:.6g} {unit}")
    print("\n".join(summary))
    print("env " + json.dumps(environment(args), sort_keys=True))
    result = {
        "correct": not failed,
        "attempted": len(log),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
