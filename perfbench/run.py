"""finitegauss benchmark: one command, every end-to-end or per-layer metric.

    python3 perfbench/run.py --workload {cli-large,library} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; finitegauss is imported from its
src/ directory.  This process uses only the standard library.  It pins
the BLAS thread count to one (BLAS_THREADS), times fresh
interpreters importing the package (setup_s, half of them before and half
after the workload), and runs the workload in one fresh worker process,
whose peak resident memory is peak_rss_mb.
With --trace 0 it reports the end-to-end metrics; with --trace 1 the
per-layer metrics of a traced run.  The last line of stdout is the JSON
result; the lines before it record the environment and a readable report.
See perfbench/README.md for the workloads and what each metric means.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("cli-large", "library")
SETUP_REPEATS = 9
# One BLAS thread, which is at most nproc on any machine.  With two on a
# 2-core VM, OpenBLAS's second thread spins between calls on the core the
# interpreter does not use: the d=301 Wigner jobs ran twice as slow, and
# any other work on that core stalled every threaded call.  A cli-large
# round took 23.6 s with one thread and 25.0 s with two.
BLAS_THREADS = 1
RUN_TIMEOUT_S = 170.0
UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s", "job_tail_s": "s",
         "peak_rss_mb": "MB", "ok_frac": "ratio"}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # A fixed string hash seed fixes dict and set layouts from one process to
    # the next, so that runs differ only in their seeded inputs.
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def timed_run(cmd: list[str], env: dict, deadline: float) -> float:
    """Wall time of one child process, which is killed at the deadline.

    Popen.wait with a timeout polls with sleeps of up to 50 ms, which rounds
    a 0.2 s import up to the next poll; a blocking wait does not.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT)
    killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        code = proc.wait()
    finally:
        killer.cancel()
        killer.join()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)
    return elapsed


def measure_setup(env: dict, repeats: int, deadline: float) -> list[float]:
    """Wall times of fresh interpreters importing finitegauss and finitegauss.cli."""
    cmd = [sys.executable, "-c", "import finitegauss, finitegauss.cli"]
    return [timed_run(cmd, env, deadline) for _ in range(repeats)]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "finitegauss").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str | None:
    # Only ask git inside a checkout that is itself a repository, never a parent directory.
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def report(args, result: dict, setup: list[float] | None) -> None:
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={result['rounds']}/{result['planned_rounds']} ops={result['attempted']} failed={result['failed']} "
          f"correct={str(result['correct']).lower()}")
    metrics = result["metrics"]
    if args.trace:
        for name, unit in LAYER_METRICS.items():
            print(f"  {name:32s} {metrics[name]:>16.6g} {unit}")
    else:
        notes = {
            "setup_s": f"median of {len(setup)} fresh interpreters",
            "jobs_per_s": f"{result['samples']} ops in {result['timed_s']:.3f} s timed",
            "job_p50_s": f"median of {result['samples']} ops",
            "job_tail_s": f"p{result['tail_percentile']:.2f} of {result['samples']} ops "
                          f"({result['tail_beyond']} beyond)",
            "peak_rss_mb": f"worker process ru_maxrss; {result['setup_rss_mb']:.1f} MB of it "
                           "was reached by set-up, before the first op",
            "ok_frac": "1 - failed_frac",
        }
        for name, unit in UNITS.items():
            print(f"  {name:12s} {metrics[name]:>14.6g} {unit:6s} {notes[name]}")
        print(f"  {'failed_frac':12s} {result['failed_frac']:>14.6g} {'ratio':6s} "
              f"{result['failed']}/{result['attempted']} ops")
    for label, f in result["failures"].items():
        kind = f"UNEXPECTED x{f['unexpected']}" if f["unexpected"] else "known defect"
        print(f"  fail x{f['count']} [{kind}] {label}: {f['error'][:160]}")


def measure(args, env: dict, deadline: float) -> tuple[dict, list[float] | None]:
    """Set-up times (untraced runs only) and the worker's result."""
    setup = None
    if not args.trace:
        # The first import in a checkout also writes bytecode caches; it is not timed.
        measure_setup(env, 1, deadline)
        # Half the samples before the workload and half after, so their median
        # spans the run rather than one moment of a noisy machine.
        setup = measure_setup(env, SETUP_REPEATS // 2, deadline)
    worker = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=deadline - time.monotonic())
    if worker.returncode != 0:
        sys.stderr.write(worker.stderr)
        raise RuntimeError(f"worker exited with {worker.returncode}")
    result = json.loads(worker.stdout.splitlines()[-1])
    if not Path(result["env"].pop("finitegauss_file")).resolve().is_relative_to(SRC):
        raise RuntimeError("finitegauss was not imported from this checkout")
    if setup is not None:
        setup += measure_setup(env, SETUP_REPEATS - len(setup), deadline)
        result["metrics"]["setup_s"] = statistics.median(setup)
    return result, setup


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "finitegauss" / "__init__.py").is_file():
        print(f"error: {ROOT} is not a finitegauss source checkout (needs src/finitegauss)",
              file=sys.stderr)
        return 2

    threads = min(nproc(), BLAS_THREADS)
    try:
        result, setup = measure(args, child_env(threads), time.monotonic() + RUN_TIMEOUT_S)
    except (subprocess.TimeoutExpired, subprocess.CalledProcessError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env_record = {
        "git_sha": git_sha(), "src_sha256": source_digest(),
        "python": platform.python_version(), **result["env"],
        "blas_threads": threads, "nproc": nproc(), "seed": args.seed,
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
    }
    print("env " + json.dumps(env_record))
    report(args, result, setup)
    units = LAYER_METRICS if args.trace else UNITS
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
