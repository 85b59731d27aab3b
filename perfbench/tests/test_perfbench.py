"""Tests of the benchmark itself: every oracle accepts the program's output
and rejects a perturbed copy of it, and every metric is reported with its unit."""
from __future__ import annotations

import dataclasses
import json
import math
import random
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import finitegauss as fg
import run
import worker
import workloads as wl
from tracer import LAYER_METRICS, Tracer

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL_D = 61  # large enough for the large-d analytic limits to hold to 1e-12
LIB_D = 101  # the smallest library d; its coherent labels stay on the equidistant levels


def _is_float(cell: str) -> bool:
    """A number that is not an integer label."""
    for kind in (int, float):
        try:
            kind(cell)
            return kind is float
        except ValueError:
            pass
    return False


def perturb_largest(text: str, factor: float = 1 + 1e-6) -> str:
    """Scale the largest-magnitude non-integer number of a CSV output."""
    rows = [line.split(",") for line in text.splitlines()]
    best = None
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            if _is_float(cell) and (best is None or abs(float(cell)) > best[0]):
                best = (abs(float(cell)), i, j)
    assert best is not None and best[0] > 0.0
    _, i, j = best
    rows[i][j] = repr(float(rows[i][j]) * factor)
    return "\n".join(",".join(row) for row in rows) + "\n"


def rejects(check, result) -> bool:
    try:
        check(result)
    except wl.OracleError:
        return True
    return False


# ---------------------------------------------------------------- cli-large

@pytest.fixture(scope="module")
def small_cli_ops():
    return wl.cli_large_ops(ds=(SMALL_D,), gauss_d=101)


def test_cli_large_oracles_accept_and_reject(small_cli_ops):
    assert len(small_cli_ops) == 11
    for op in small_cli_ops:
        res = op.run()
        op.check(res)
        assert op.known_defect is None
        assert rejects(op.check, dataclasses.replace(res, code=3)), op.label
        if op.label.startswith("revival"):
            payload = json.loads(res.out)
            wrong = json.dumps(dict(payload, period=payload["period"] * (1 + 1e-6)))
        else:
            wrong = perturb_largest(res.out)
        assert rejects(op.check, dataclasses.replace(res, out=wrong)), op.label


def test_cli_large_repeats_the_moderate_jobs():
    ops = wl.cli_large_ops(ds=(31, 61), gauss_d=31, repeats={31: 3})
    assert len(ops) == 3 * 6 + 3 + 9 + 2
    assert wl.CLI_LARGE_REPEATS == {301: 6, 1001: 1}


def _one_op_pass(op, outcome=None, raises=None):
    """A pass over one op whose run returns outcome, raises, or runs the program."""
    def run():
        if raises is not None:
            raise raises
        return outcome

    if outcome is not None or raises is not None:
        op = dataclasses.replace(op, run=run)
    p = worker.Pass()
    p.run_round([op])
    return p


def test_free_delta_defect_excuses_only_its_own_failure():
    ops = {op.label: op for op in wl.cli_large_ops(ds=(201,), gauss_d=31)}
    assert sum(op.known_defect is not None for op in ops.values()) == 1
    op = ops["revival --d 201 --ham free --state delta 0"]
    res = op.run()
    p = _one_op_pass(op, res)
    assert p.failed == 1 and p.correct
    payload = json.loads(res.out)
    for key, bad in (("kind", "none"), ("period", payload["period"] * (1 + 1e-6)),
                     ("max_residual", 1e-9), ("max_residual", 1e-3)):
        wrong = dataclasses.replace(res, out=json.dumps(dict(payload, **{key: bad})))
        p = _one_op_pass(op, wrong)
        assert p.failed == 1 and not p.correct, (key, bad)
    for wrong in (dataclasses.replace(res, code=1), dataclasses.replace(res, out="{}")):
        p = _one_op_pass(op, wrong)
        assert p.failed == 1 and not p.correct
    p = _one_op_pass(op, raises=fg.FiniteGaussError("bad input"))
    assert p.failed == 1 and not p.correct
    assert "not the known defect" in p.failures[op.label]["error"]


def test_wigner_oracle_rejects_a_broken_marginal():
    d = SMALL_D
    g = wl.wrapped_reference(d, 1.0, 0.0)
    reference = fg.wigner_closed_form(d, 1.0).values
    check = wl.check_wigner(d, reference, g, "definition", False)
    res = wl.run_cli(("wigner", "--d", str(d)))
    check(res)
    lines = res.out.splitlines()
    row = lines[1].split(",")
    row[1] = repr(float(row[1]) + 1e-9)
    lines[1] = ",".join(row)
    assert rejects(check, dataclasses.replace(res, out="\n".join(lines) + "\n"))


@pytest.mark.parametrize("source", ["closed", "definition", "theta"])
def test_wigner_oracle_peak_stays_below_the_programs(source):
    """peak_rss_mb is set by the CLI, not by the oracle that parses its grid.

    Both peaks are counted from the same start, so the oracle's includes the
    output text it is handed.  d=301 keeps the test quick; the ratio of the
    two peaks is about the same at d=1001, where both grow as d**2.
    """
    d = 301
    check = wl.check_wigner(d, fg.wigner_closed_form(d, 1.0).values, wl.wrapped_reference(d, 1.0, 0.0),
                            source, source == "closed")
    argv = ("wigner", "--d", str(d), "--source", source) + (("--check",) if source == "closed" else ())
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        res = wl.run_cli(argv)
        program = tracemalloc.get_traced_memory()[1] - start
        tracemalloc.reset_peak()
        check(res)
        oracle = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert oracle < 0.75 * program


# ---------------------------------------------------------------- library

@pytest.fixture(scope="module")
def oscillator():
    h = fg.oscillator_hamiltonian(LIB_D)
    return h, fg.hermitian_eig(h)


@pytest.mark.parametrize("kappa", [1e-8, 1.0, 1e8])
def test_library_oracle_accepts_and_rejects(oscillator, kappa):
    h, spectrum = oscillator
    r = wl.library_analysis(fg, LIB_D, kappa, fg.PhasePoint(2, -3), h, spectrum)
    wl.check_library(fg, r)
    for key in ("g", "g_plus", "fourier", "dual", "w_def", "w_closed", "psi_t", "series"):
        bad = np.array(r[key], copy=True)
        flat = bad.reshape(-1)
        k = int(np.argmax(np.abs(flat)))
        flat[k] += 1e-6 * (abs(flat[k]) or 1.0)  # g_plus underflows to all zeros at kappa=1e8
        with pytest.raises(wl.OracleError):
            wl.check_library(fg, dict(r, **{key: bad}))
    with pytest.raises(wl.OracleError):
        wl.check_library(fg, dict(r, residual=1e-7))
    with pytest.raises(wl.OracleError):
        wl.check_library(fg, dict(r, unc=dataclasses.replace(r["unc"], delta_q=r["unc"].delta_q + 1e-9)))
    with pytest.raises(wl.OracleError):
        wl.check_library(fg, dict(r, report=dataclasses.replace(r["report"], period=2 * math.pi * 1.5)))


def test_library_ops_check_every_d():
    ops = wl.library_rounds(ds=(LIB_D, LIB_D + 20), side_d=31)(random.Random(2))
    op = next(op for op in ops if op.label == "library kappa=1")
    results = op.run()
    assert [r["d"] for r in results] == [LIB_D, LIB_D + 20]
    op.check(results)
    results[1]["w_def"] = results[1]["w_def"] * (1 + 1e-6)
    with pytest.raises(wl.OracleError):
        op.check(results)


def test_library_side_oracles_reject():
    v = fg.mehta_eigenvector(SMALL_D, 3)
    fv = fg.fourier_apply(v).amps
    wl.check_mehta(3)((v.amps, fv))
    with pytest.raises(wl.OracleError):
        wl.check_mehta(3)((v.amps, -fv))
    grid = fg.wigner_theta_form(SMALL_D)
    check = wl.check_theta_form(fg.wigner_closed_form(SMALL_D, 1.0).values)
    check(grid)
    with pytest.raises(wl.OracleError):
        check(dataclasses.replace(grid, fitted_scale=grid.fitted_scale * (1 + 1e-6)))


def test_library_round_has_every_kappa_and_marks_the_window_cap_defect():
    make_round = wl.library_rounds(ds=(LIB_D,), side_d=31)
    ops = make_round(random.Random(0))
    assert len(ops) == len(wl.LIBRARY_KAPPAS) + 3
    defects = [op for op in ops if op.known_defect]
    assert [op.label for op in defects] == ["library kappa=1e-13"]
    with pytest.raises(fg.NumericalFailureError):
        defects[0].run()
    p = _one_op_pass(defects[0])
    assert p.failed == 1 and p.correct
    for exc in (ValueError("boom"), fg.NumericalFailureError("eigen residual too large"),
                fg.CapacityExceededError("wrapped sum window did not converge")):
        p = _one_op_pass(defects[0], raises=exc)
        assert p.failed == 1 and not p.correct, exc
    assert [op.label for op in make_round(random.Random(5))] == [
        op.label for op in wl.library_rounds(ds=(LIB_D,), side_d=31)(random.Random(5))]


# ---------------------------------------------------------------- tracing

def _traced(ops, memory=False):
    original = fg.finite_gaussian
    tracer, p = worker.traced_pass([ops], Tracer(memory=memory))
    assert fg.finite_gaussian is original and fg.spectral.finite_gaussian is original
    assert not tracemalloc.is_tracing()
    return tracer, p


def _spans_nest(tracer):
    for s in tracer.spans:
        assert s.self_s >= 0.0
        if s.parent is not None:
            assert s.parent.start <= s.start <= s.end <= s.parent.end
            assert s.parent.op == s.op
    return [s for s in tracer.spans if s.parent is not None and s.parent.layer != s.layer]


def test_traced_cli_ops_report_every_layer_metric(small_cli_ops):
    tracer, p = _traced(small_cli_ops)
    assert p.failed == 0
    m = tracer.metrics(1.0, 1.0)
    assert set(m) == set(LAYER_METRICS)
    assert m["cli.jobs"] == len(small_cli_ops)
    assert m["cli.output_bytes"] == sum(len(op.run().out) for op in small_cli_ops)
    cmd = sum(s.duration for s in tracer.spans if s.name.startswith("cmd_"))
    main = sum(s.duration for s in tracer.spans if s.name == "main")
    assert m["cli.cmd_s"] == pytest.approx(cmd) and m["cli.self_s"] == pytest.approx(main - cmd)
    eigs = [s for s in tracer.spans if s.name == "hermitian_eig"]
    assert m["spectral.eig_calls"] == len(eigs) > 0
    assert m["wigner.theta_evals"] == sum(
        s.name == "theta" and s.parent.name == "wigner_theta_form" for s in tracer.spans) > 0
    assert m["wrapped.points"] > 0 and m["hilbert.operator_bytes"] > 0
    # the CLI revival passes its spectrum to certify_period
    assert m["dynamics.spectrum_reuse_ratio"] == 1.0
    assert _spans_nest(tracer)


def test_traced_library_ops_nest_spans():
    ops = wl.library_rounds(ds=(LIB_D,), side_d=31)(random.Random(1))
    tracer, p = _traced(ops)
    assert p.correct
    m = tracer.metrics(1.0, 2.0)
    assert set(m) == set(LAYER_METRICS)
    assert m["trace.overhead_ratio"] == 2.0
    assert m["cli.jobs"] == 0 and m["cli.self_s"] == 0.0
    assert m["dynamics.eig_resolves"] == sum(
        s.name == "hermitian_eig" and s.parent is not None and s.parent.layer == "dynamics"
        for s in tracer.spans)
    assert 0.0 < m["dynamics.spectrum_reuse_ratio"] <= 1.0
    assert m["dynamics.certify_margin_max"] > 0.0
    # the timing pass runs without tracemalloc; the memory pass measures the peaks
    assert m["wigner.alloc_peak_mb"] == 0.0 and m["hilbert.alloc_peak_mb"] == 0.0
    mem = _traced(ops, memory=True)[0].metrics(1.0, 1.0)
    assert mem["wigner.alloc_peak_mb"] > 0.0 and mem["hilbert.alloc_peak_mb"] > 0.0
    crossing = _spans_nest(tracer)
    assert "wrapped" in {s.layer for s in crossing}


# ---------------------------------------------------------------- the command

def _run(*args, cwd=ROOT, bench=ROOT / "perfbench"):
    return subprocess.run([sys.executable, str(bench / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_reported_metrics():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS) == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == LAYER_METRICS


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_every_metric_with_its_unit(trace):
    res = _run("--workload", "library", "--seed", "3", "--seconds", "0.1", "--trace", trace)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # each library round has one baseline failure, the kappa=1e-13 op
    round_ops = len(wl.LIBRARY_KAPPAS) + 3
    assert result["correct"] is True and result["attempted"] >= round_ops
    assert result["failed"] * round_ops == result["attempted"]
    units = run.UNITS if trace == "0" else LAYER_METRICS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    env = json.loads(lines[0].removeprefix("env "))
    for key in ("git_sha", "python", "numpy", "openblas", "blas_threads", "nproc", "seed"):
        assert key in env
    report = "\n".join(lines[1:-1])
    for name, unit in units.items():
        assert f"{name} " in report and unit in report
    if trace == "0":
        assert "failed_frac" in report and "beyond" in report


def test_timed_child_is_killed_at_the_deadline():
    env = run.child_env(1)
    assert 0.0 < run.timed_run([sys.executable, "-c", "pass"], env, time.monotonic() + 60) < 30
    start = time.monotonic()
    with pytest.raises(subprocess.CalledProcessError):
        run.timed_run([sys.executable, "-c", "import time; time.sleep(60)"], env, time.monotonic() + 0.5)
    assert time.monotonic() - start < 30


def test_command_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = _run("--workload", "library", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path, bench=tmp_path / "perfbench")
    assert res.returncode != 0
    assert res.stdout.strip() == ""
