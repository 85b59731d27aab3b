"""Run one workload in this fresh process and print its measurements as JSON.

Started by run.py with the BLAS thread count already pinned in the
environment.  One client runs a closed loop: each op starts only after
the previous one and its oracle have finished.

The work of a run is fixed by --seconds alone: seconds / nominal round
time whole rounds (at least one), where the nominal round time is what a
round takes on the reference machine (2 cores, one OpenBLAS thread,
numpy 2.4).  Every commit and every machine thus measures the same op
multiset, so the tail percentile is comparable across commits.
A traced run executes a fixed number of rounds untraced, then the same
rounds under a timing tracer, so that its counts repeat exactly from run
to run, and once more under a memory tracer for the allocation peaks.
"""
from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
import time

import numpy as np

import finitegauss
import workloads
from tracer import ALLOC_METRICS, Tracer

# Stop starting rounds past this wall time, so a run ends well inside 180 s.
WALL_CAP_S = 120.0
# Seconds one round takes on the reference machine.
NOMINAL_ROUND_S = {"cli-large": 22.0, "library": 3.5}
# Rounds per pass of a traced run (untraced, timing and memory passes).
TRACE_ROUNDS = {"cli-large": 1, "library": 2}
TAIL_BEYOND = 10
WARMUP_OPS = 15


def verdict(check, outcome) -> str | None:
    """None if check accepts the outcome, else why it does not."""
    try:
        check(outcome)
    except workloads.OracleError as exc:
        return str(exc)
    except Exception as exc:  # an oracle that cannot read the output fails the op
        return f"oracle raised {type(exc).__name__}: {exc}"
    return None


def execute(op: workloads.Op, tracer: Tracer | None):
    """Run one op, time it, then check it.

    Returns (seconds, error or None, whether the error is the op's known
    defect).  The op's outcome is dropped here, before the next op runs.
    """
    start = time.perf_counter()
    try:
        outcome = op.run()
        raised = False
    except Exception as exc:  # a failing op is counted, not fatal
        outcome, raised = exc, True
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.paused = True
        if isinstance(outcome, workloads.CliResult):
            tracer.output_bytes += len(outcome.out.encode())
    try:
        error = f"{type(outcome).__name__}: {outcome}" if raised else verdict(op.check, outcome)
        expected = False
        if error is not None and op.known_defect is not None:
            mismatch = verdict(op.known_defect.expect, outcome)
            expected = mismatch is None
            if not expected:
                error += f"; not the known defect: {mismatch}"
    finally:
        if tracer is not None:
            tracer.paused = False
    return elapsed, error, expected


class Pass:
    """Op times and failures of one pass over a list of rounds."""

    def __init__(self):
        self.times: list[float] = []
        self.failures: dict[str, dict] = {}

    def run_round(self, ops, tracer: Tracer | None = None) -> None:
        for op in ops:
            if tracer is not None:
                tracer.op += 1
            elapsed, error, expected = execute(op, tracer)
            self.times.append(elapsed)
            if error is not None:
                entry = self.failures.setdefault(op.label, {"count": 0, "unexpected": 0, "error": error[:300]})
                entry["count"] += 1
                if not expected:
                    if not entry["unexpected"]:
                        entry["error"] = error[:300]
                    entry["unexpected"] += 1

    @property
    def failed(self) -> int:
        return sum(f["count"] for f in self.failures.values())

    @property
    def correct(self) -> bool:
        """Every failure was the op's known defect, as that defect states it."""
        return all(f["unexpected"] == 0 for f in self.failures.values())


def traced_pass(plan, tracer: Tracer) -> tuple[Tracer, Pass]:
    p = Pass()
    tracer.install()
    try:
        for ops in plan:
            p.run_round(ops, tracer)
    finally:
        tracer.uninstall()
    return tracer, p


def tail_rank(n: int) -> int:
    """Index into n sorted samples of the highest percentile with TAIL_BEYOND beyond it."""
    return max(0, n - TAIL_BEYOND - 1)


def end_to_end(p: Pass) -> dict:
    """Throughput, median and tail of all op times of the run."""
    times = sorted(p.times)
    attempted = len(times)
    rank = tail_rank(attempted)
    return {
        "metrics": {
            "jobs_per_s": attempted / sum(times),
            "job_p50_s": statistics.median(times),
            "job_tail_s": times[rank],
            "ok_frac": 1.0 - p.failed / attempted,
        },
        "samples": attempted,
        "timed_s": sum(times),
        "tail_percentile": 100.0 * (rank + 1) / attempted,
        "tail_beyond": attempted - rank - 1,
        "failed_frac": p.failed / attempted,
    }


def blas_version() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wall0 = time.perf_counter()
    rng = random.Random(args.seed)
    make_round = workloads.round_factory(args.workload)
    # the benchmark's own share of peak_rss_mb: interpreter, numpy and the oracle references
    setup_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Warm-up: untimed ops fill caches and finish lazy set-up; cli-large
    # warms up on the same jobs at d=31 rather than paying for a full round.
    if args.workload == "cli-large":
        warmup = workloads.cli_large_ops(ds=(31,), gauss_d=31)
    else:
        warmup = make_round(random.Random(args.seed + 1))[:WARMUP_OPS]
    Pass().run_round(warmup)
    # Move the benchmark's own state (references, ops) out of the
    # collector's view, so a full collection costs what it would in a CLI
    # process rather than adding the benchmark's objects to the tail.
    gc.collect()
    gc.freeze()

    out = {"env": {"numpy": np.__version__, "openblas": blas_version(),
                   "finitegauss_file": finitegauss.__file__}}
    correct = True
    if args.trace == 0:
        p = Pass()
        planned = max(1, round(args.seconds / NOMINAL_ROUND_S[args.workload]))
        rounds = 0
        while rounds < planned and (rounds == 0 or time.perf_counter() - wall0 < WALL_CAP_S):
            p.run_round(make_round(rng))
            rounds += 1
        out.update(end_to_end(p))
        out["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["setup_rss_mb"] = setup_rss_mb
    else:
        rounds = planned = TRACE_ROUNDS[args.workload]
        plan = [make_round(rng) for _ in range(rounds)]
        untraced = Pass()
        for ops in plan:
            untraced.run_round(ops)
        timing, p = traced_pass(plan, Tracer())
        memory, _ = traced_pass(plan, Tracer(memory=True))
        out["metrics"] = timing.metrics(sum(untraced.times), sum(p.times))
        mem = memory.metrics(1.0, 1.0)
        out["metrics"].update({name: mem[name] for name in ALLOC_METRICS})
        correct = untraced.correct
    out.update({
        "rounds": rounds,
        "planned_rounds": planned,
        "attempted": len(p.times),
        "failed": p.failed,
        "correct": correct and p.correct,
        "failures": p.failures,
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
