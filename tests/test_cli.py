"""Command-line surface: goldens, determinism, formats, exit codes, flags."""
import argparse
import contextlib
import functools
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import finitegauss
from finitegauss import (
    Dimension,
    FiniteGaussError,
    NumericalFailureError,
    WignerGrid,
    WignerSource,
    certify_period,
    commutator_spectrum,
    detect_revival,
    finite_gaussian,
    free_hamiltonian,
    free_spectrum,
    hermitian_eig,
    naive_gaussian,
    oscillator_hamiltonian,
    populated_levels,
    shifted_finite_gaussian,
    wigner_closed_form,
    wigner_definition,
    wigner_theta_form,
)
from finitegauss import cli
from finitegauss.cli import _build_parser, _golden_jobs, _render_wigner, main
from finitegauss.dynamics import CERT_TOL
from finitegauss.spectral import _populated_spectrum

GOLDEN_DIR = Path(__file__).parent / "goldens"


def run_to_file(argv, path: Path) -> int:
    return main(list(argv) + ["--out", str(path)])


class TestGoldens:
    @pytest.mark.parametrize("name,argv", _golden_jobs(), ids=[n for n, _ in _golden_jobs()])
    def test_byte_identical(self, name, argv, tmp_path):
        out = tmp_path / name
        code = run_to_file(argv, out)
        assert code in (0, 3)
        assert out.read_bytes() == (GOLDEN_DIR / name).read_bytes()

    def test_goldens_all_present(self):
        names = {n for n, _ in _golden_jobs()}
        assert names == {p.name for p in GOLDEN_DIR.iterdir()}

    def test_commutator_golden_multiset(self):
        # The golden eigenvalue list agrees with a fresh solve as a
        # multiset, independent of row order.
        rows = (GOLDEN_DIR / "commutator_d15.csv").read_text().strip().splitlines()[1:]
        printed = sorted(float(line.split(",")[1]) for line in rows)
        fresh = sorted(commutator_spectrum(Dimension(15)).eigenvalues)
        assert np.max(np.abs(np.asarray(printed) - np.asarray(fresh))) <= 1e-12


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["gauss", "--d", "9", "--kappa", "2.5"],
            ["commutator", "--d", "11"],
            ["spectrum", "--d", "11", "--ham", "osc", "--format", "json"],
            ["wigner", "--d", "7", "--source", "theta", "--format", "json"],
            ["revival", "--d", "7", "--ham", "free", "--state", "delta", "1"],
        ],
    )
    def test_repeat_runs_identical(self, argv, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_to_file(argv, a) == run_to_file(argv, b)
        assert a.read_bytes() == b.read_bytes()

    @staticmethod
    def stdout_at_1_and_2_blas_threads(argv):
        package_root = str(Path(finitegauss.__file__).parents[1])
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            proc = subprocess.run([sys.executable, "-m", "finitegauss.cli", *argv], capture_output=True, env=env)
            assert proc.returncode == 0
            outputs.append(proc.stdout)
        return outputs

    def test_quasi_bytes_do_not_depend_on_the_blas_thread_count(self):
        # The oscillator is applied by FFT, so no BLAS summation order reaches the digits.
        one, two = self.stdout_at_1_and_2_blas_threads(["quasi", "--d", "1001"])
        assert one == two

    def test_uncertainty_bytes_do_not_depend_on_the_blas_thread_count(self):
        # Both commutator sums are row convolutions, not dense matrix-vector products, so at
        # this size their summation order does not follow the thread count.
        one, two = self.stdout_at_1_and_2_blas_threads(["uncertainty", "--d-list", "1001"])
        assert one == two

    def test_csv_dialect(self, tmp_path):
        out = tmp_path / "x.csv"
        run_to_file(["gauss", "--d", "5"], out)
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")
        text = raw.decode("utf-8")
        assert text.splitlines()[0] == "n,g,g_plus,naive"

    def test_floats_round_trip(self, tmp_path):
        out = tmp_path / "x.csv"
        run_to_file(["gauss", "--d", "7", "--kappa", "1.25"], out)
        from finitegauss import finite_gaussian

        g = finite_gaussian(Dimension(7), 1.25)
        for line, n in zip(out.read_text().splitlines()[1:], range(-3, 4)):
            assert float(line.split(",")[1]) == g.value(n)


class TestExitCodes:
    def test_even_dimension_rejected(self, capsys):
        assert main(["gauss", "--d", "4"]) == 2
        assert "error" in capsys.readouterr().err

    def test_negative_kappa_rejected(self, capsys):
        assert main(["gauss", "--d", "5", "--kappa", "-2"]) == 2
        capsys.readouterr()

    def test_unknown_state_rejected(self, capsys):
        assert main(["revival", "--d", "5", "--ham", "free", "--state", "squeezed"]) == 2
        capsys.readouterr()

    def test_delta_out_of_range_rejected(self, capsys):
        assert main(["revival", "--d", "5", "--ham", "free", "--state", "delta", "9"]) == 2
        capsys.readouterr()

    def test_coherent_arity_rejected(self, capsys):
        assert main(["revival", "--d", "5", "--ham", "osc", "--state", "coherent", "1"]) == 2
        capsys.readouterr()

    def test_bad_d_list_rejected(self, capsys):
        assert main(["uncertainty", "--d-list", "3,x"]) == 2
        capsys.readouterr()

    def test_usage_error_from_parser(self):
        with pytest.raises(SystemExit) as err:
            main(["gauss"])
        assert err.value.code == 2

    def test_uncertified_revival_exits_3(self, capsys, tmp_path):
        # Incommensurable-looking ratios at the default tolerance: the
        # detected multiplier is astronomical and fails certification.
        out = tmp_path / "r.json"
        code = main(
            ["revival", "--d", "31", "--ham", "osc", "--state", "coherent", "3", "0",
             "--out", str(out)]
        )
        assert code == 3
        payload = json.loads(out.read_text())
        assert payload["certified"] is False
        assert "not certified" in capsys.readouterr().err

    @pytest.mark.parametrize("check", [[], ["--check"]])
    def test_theta_source_refuses_kappa_other_than_one(self, check, capsys):
        # --kappa was ignored: the kappa = 1 grid was printed beside a check made at kappa
        assert main(["wigner", "--d", "5", "--source", "theta", "--kappa", "0.5", *check]) == 2
        assert "--kappa 0.5" in capsys.readouterr().err
        assert main(["wigner", "--d", "5", "--source", "theta", "--kappa", "1", *check]) == 0
        capsys.readouterr()

    def test_success_is_zero(self, capsys):
        assert main(["quasi", "--d", "5"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "flags", [pytest.param(["--rel-tol", "nan"], id="flags3")]
    )
    def test_bad_revival_tolerance_rejected(self, flags, capsys):
        argv = ["revival", "--d", "9", "--ham", "free", "--state", "delta", "0"]
        assert main(argv + flags) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(
                ["uncertainty", "--d-list", "3,5", "--kappa", "inf"], id="argv1"
            ),
            pytest.param(["wigner", "--d", "5", "--kappa", "nan"], id="argv2"),
        ],
    )
    def test_bad_library_parameter_rejected(self, argv, capsys):
        assert main(argv) == 2
        assert "error" in capsys.readouterr().err

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        assert main(["gauss", "--d", "3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_out_dir_that_is_a_file_exits_2(self, capsys, tmp_path):
        target = tmp_path / "goldens"
        target.write_text("kept\n")
        assert main(["make-goldens", "--out-dir", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [target] and target.read_text() == "kept\n"


class TestFormats:
    def test_json_table(self, capsys):
        assert main(["uncertainty", "--d-list", "3,5", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["d"] for r in rows] == [3, 5]
        assert rows[0]["product"] == pytest.approx(0.44259776311852, abs=1e-12)

    def test_json_spectrum_gap_null_on_last_row(self, capsys):
        assert main(["spectrum", "--d", "5", "--ham", "free", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[-1]["gap"] is None
        assert all(isinstance(r["eigenvalue"], float) for r in rows)

    def test_json_wigner_grid(self, capsys):
        assert main(["wigner", "--d", "5", "--format", "json", "--check"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["d"] == 5
        assert len(payload["values"]) == 5
        assert payload["check_max_abs_diff"] <= 1e-13

    def test_wigner_check_row_in_csv(self, capsys):
        assert main(["wigner", "--d", "5", "--check"]) == 0
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert last.startswith("check_max_abs_diff,")
        assert float(last.split(",")[1]) <= 1e-13

    @pytest.fixture
    def no_eigh(self, monkeypatch):
        def no_solve(*_):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigh", no_solve)

    def test_free_spectrum_needs_no_eigensolve(self, no_eigh, capsys):
        assert main(["spectrum", "--d", "201", "--ham", "free"]) == 0
        top = capsys.readouterr().out.splitlines()[1]
        assert top.startswith(f"0,{np.pi * (100 * 100) / 201!r},")

    def test_free_delta_revival_certified_at_d201(self, no_eigh, capsys):
        assert main(["revival", "--d", "201", "--ham", "free", "--state", "delta", "0"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert '"period": 402.0,' in out
        assert payload["kind"] == "commensurate" and payload["certified"] is True

    @pytest.mark.parametrize("argv", [["spectrum", "--ham", "free"], ["revival", "--ham", "free", "--state", "delta", "0"]],
                             ids=["spectrum", "revival"])
    def test_free_jobs_build_no_hamiltonian(self, argv, no_eigh, monkeypatch, capsys):
        # the free levels are closed form and the free modes' amplitudes one FFT
        import finitegauss.spectral as spectral

        def no_build(*_):
            raise AssertionError("dense free route called")

        for name in ("free_hamiltonian", "free_spectrum", "_toeplitz"):
            monkeypatch.setattr(spectral, name, no_build)
        assert main(argv + ["--d", "31"]) == 0
        out = capsys.readouterr().out
        if argv[0] == "spectrum":
            assert out.count("\n") == 32
        else:
            assert json.loads(out)["certified"] is True

    def test_spectrum_solver_is_looked_up_at_call_time(self, monkeypatch, capsys):
        # A profiler rebinds module attributes after import; a solver kept in a
        # table built at import ran unobserved.
        assert main(["spectrum", "--d", "9", "--ham", "osc"]) == 0
        first = capsys.readouterr().out
        solved = []
        real_solve = cli._form_eig

        def spy(form):
            solved.append(form.dim.d)
            return real_solve(form)

        monkeypatch.setattr(cli, "_form_eig", spy)
        assert main(["spectrum", "--d", "9", "--ham", "osc"]) == 0
        assert capsys.readouterr().out == first
        assert solved == [9]

    @pytest.mark.parametrize("d", [101, 1001])
    @pytest.mark.parametrize("kappa", [0.5, 2.0, 4.0])
    def test_oscillator_breathing_period_is_half_the_orbit(self, d, kappa, capsys):
        # A squeezed Gaussian populates only the even levels, about 2 apart, so it
        # breathes with period pi, half the 2*pi of a displaced state.
        argv = ["revival", "--d", str(d), "--ham", "osc", "--state", "gauss",
                "--kappa", repr(kappa), "--rel-tol", "1e-6"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "equidistant"
        assert payload["period"] == pytest.approx(np.pi, rel=1e-9)
        assert payload["certified"] is True
        print(f"d={d} kappa={kappa}: max_residual / CERT_TOL = {payload['max_residual'] / CERT_TOL:.2e}")

    def test_revival_report_keys(self, capsys):
        assert main(["revival", "--d", "9", "--ham", "free", "--state", "delta", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "kind", "period", "m", "certified", "max_residual", "zero_level", "note",
        }
        assert payload["kind"] == "commensurate"
        assert payload["m"] == 1
        assert payload["period"] == pytest.approx(18.0, rel=1e-12)
        assert payload["certified"] is True

    def test_spectrum_descending(self, capsys):
        assert main(["spectrum", "--d", "9", "--ham", "osc"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        vals = [float(line.split(",")[1]) for line in lines]
        assert vals == sorted(vals, reverse=True)
        gaps = [float(line.split(",")[2]) for line in lines[:-1]]
        for k, gap in enumerate(gaps):
            assert gap == pytest.approx(vals[k] - vals[k + 1], abs=1e-15)
        assert lines[-1].endswith(",")


def _reference_csv_cell(c) -> str:
    if c is None:
        return ""
    if isinstance(c, (float, np.floating)):
        return repr(float(c))
    return str(c)


def _reference_json_cell(c):
    """The Python-native value json.dumps writes for one cell."""
    if isinstance(c, (float, np.floating)):
        return float(c)
    if isinstance(c, np.integer):
        return int(c)
    return c


def reference_table(header, rows, fmt: str) -> str:
    """The table rendered a row at a time, one cell after another: the renderer's reference."""
    if fmt == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_reference_csv_cell(c) for c in row))
        return "\n".join(lines) + "\n"
    payload = [{key: _reference_json_cell(c) for key, c in zip(header, row)} for row in rows]
    return json.dumps(payload, indent=2) + "\n"


# a small pool, so that columns repeat cells; the two NaNs differ in their payload bits
_POOLED_FLOATS = [0.0, -0.0, 1.0, np.nan, np.array(0x7FF8000000000001).view(np.float64).item(), np.inf, 5e-324]
_FLOAT_CELLS = st.one_of(
    st.floats(width=64),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.225073858507201e-308]),
    st.sampled_from(_POOLED_FLOATS),
)


@st.composite
def table_columns(draw):
    """A header and columns of one length: float64 and int64 arrays, and lists of ints, str or floats."""
    rows = draw(st.integers(0, 64))
    cells = st.lists(_FLOAT_CELLS, min_size=rows, max_size=rows)
    kinds = {
        "float64": cells.map(lambda v: np.array(v, dtype=np.float64)),
        "int64": st.lists(st.integers(-2**63, 2**63 - 1), min_size=rows, max_size=rows).map(np.array),
        "ints": st.lists(st.integers(), min_size=rows, max_size=rows),
        "str": st.lists(st.text(max_size=6), min_size=rows, max_size=rows),
        "np.float64": cells.map(lambda v: [np.float64(x) for x in v]),
        "float": cells,
    }
    columns = draw(st.lists(st.sampled_from(sorted(kinds)).flatmap(kinds.get), min_size=1, max_size=5))
    return [f"c{j}" for j in range(len(columns))], columns


def dense_free_revival(d: int, state: list[str], kappa: float, rel_tol: float) -> dict:
    """revival --ham free's report from free_spectrum of the d x d free Hamiltonian."""
    dim = Dimension(d)
    h = free_hamiltonian(dim)
    spec = free_spectrum(h)
    psi = cli._revival_state(dim, state, kappa)
    levels, weights, _ = populated_levels(spec, psi)
    report = detect_revival(levels, weights, rel_tol)
    residual = float(certify_period(h, psi, report.period, spectrum=spec))
    return {"kind": report.kind, "period": report.period, "m": report.m, "certified": residual <= CERT_TOL,
            "max_residual": residual, "zero_level": report.zero_level, "note": report.note}


@st.composite
def free_revival_jobs(draw):
    """Odd d <= 301 and a delta, coherent or gauss state on it."""
    d = 2 * draw(st.integers(1, 150)) + 1
    s = d // 2
    label = st.integers(-s, s).map(str)
    state = draw(st.one_of(st.tuples(st.just("delta"), label), st.tuples(st.just("coherent"), label, label),
                           st.tuples(st.just("gauss"))))
    return d, list(state), draw(st.sampled_from([0.3, 1.0, 2.5]))


class TestTables:
    @settings(max_examples=300, deadline=None)
    @given(table_columns(), st.sampled_from(["csv", "json"]))
    def test_columns_render_as_the_rows_would(self, table, fmt):
        header, columns = table
        rows = [list(row) for row in zip(*columns)]
        assert cli._render_table(header, columns, fmt).encode() == reference_table(header, rows, fmt).encode()

    @staticmethod
    def gauss_columns(d: int):
        dim = Dimension(d)
        return [dim.indices(), finite_gaussian(dim, 1.0).values, shifted_finite_gaussian(dim, 1.0).values,
                naive_gaussian(dim, 1.0)]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(("job", "d"), [("spectrum", 5), ("spectrum", 101), ("spectrum", 1001), ("gauss", 10001)],
                             ids=["5", "101", "1001", "gauss-10001"])
    def test_free_spectrum_prints_the_dense_levels(self, job, d, fmt, capsys):
        # and gauss, whose float columns repeat most of their cells
        if job == "spectrum":
            vals = free_spectrum(free_hamiltonian(Dimension(d))).eigenvalues[::-1]
            header, argv = ["k", "eigenvalue", "gap"], ["spectrum", "--d", str(d), "--ham", "free"]
            rows = [[k, v, vals[k] - vals[k + 1] if k + 1 < d else None] for k, v in enumerate(vals)]
        else:
            header, argv = ["n", "g", "g_plus", "naive"], ["gauss", "--d", str(d)]
            rows = [list(row) for row in zip(*self.gauss_columns(d))]
        assert main([*argv, "--format", fmt]) == 0
        assert capsys.readouterr().out.encode() == reference_table(header, rows, fmt).encode()

    def test_each_distinct_float_is_formatted_once(self, monkeypatch, capsys):
        calls = []

        def counted_repr(x):
            calls.append(x)
            return repr(x)

        monkeypatch.setattr(cli, "repr", counted_repr, raising=False)  # found before the builtin
        vals = free_spectrum(free_hamiltonian(Dimension(1001))).eigenvalues[::-1]
        jobs = [(["gauss", "--d", "1001"], self.gauss_columns(1001)[1:]),
                (["spectrum", "--d", "1001", "--ham", "free"], [vals, vals[:-1] - vals[1:]])]
        for argv, floats in jobs:
            calls.clear()
            assert main(argv) == 0
            capsys.readouterr()
            assert len(calls) == sum(np.unique(col.view(np.int64)).size for col in floats)

    def test_csv_table_holds_o_d_memory(self, tmp_path):
        # measured at d = 20001 (numpy 2.4, Python 3.11): 32.1 x 8d bytes. JSON is not checked here:
        # a JSON table goes through json.dumps(indent=2), which peaks at 151 x 8d bytes.
        d = 20001
        argv = ["gauss", "--d", str(d), "--out", str(tmp_path / "gauss.csv")]
        assert cli.main(argv) == 0
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 8 * d


class TestFreeRevival:
    @settings(max_examples=60, deadline=None)
    @given(free_revival_jobs())
    def test_report_matches_the_dense_route(self, job):
        d, state, kappa = job
        want = dense_free_revival(d, state, kappa, 1e-9)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["revival", "--d", str(d), "--ham", "free", "--state", *state, "--kappa", repr(kappa)])
        got = json.loads(out.getvalue())
        assert code == (0 if want["certified"] else 3)
        assert got["max_residual"] == pytest.approx(want.pop("max_residual"), rel=1e-14, abs=0.0)
        assert {key: got[key] for key in want} == want

    @pytest.mark.parametrize("argv,bound", [(["revival", "--state", "delta", "0"], 4e6), (["spectrum"], 8e6)],
                             ids=["revival", "spectrum"])
    def test_peak_at_d_10001_is_linear_in_d(self, argv, bound, monkeypatch):
        # one d x d float64 array is 800 MB here
        text = []

        class Keep:
            def write(self, chunk):
                text.append(chunk)
                return len(chunk)

        monkeypatch.setattr(sys, "stdout", Keep())
        tracemalloc.start()
        try:
            code = main(argv + ["--d", "10001", "--ham", "free"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and peak <= bound, f"tracemalloc peak {peak / 1e6:.2f} MB"
        if argv[0] == "revival":
            assert 0.0 <= json.loads(text[0])["max_residual"] <= CERT_TOL


def dense_oscillator_revival(d: int, state: list[str], kappa: float, rel_tol: float) -> dict:
    """revival --ham osc's report from the public pipeline on the d x d oscillator."""
    dim = Dimension(d)
    h = oscillator_hamiltonian(dim)
    spec = hermitian_eig(h)
    psi = cli._revival_state(dim, state, kappa)
    levels, weights, _ = populated_levels(spec, psi)
    report = detect_revival(levels, weights, rel_tol)
    residual = None if report.period is None else float(certify_period(h, psi, report.period, spectrum=spec))
    return {"kind": report.kind, "period": report.period, "m": report.m,
            "certified": residual is not None and residual <= CERT_TOL, "max_residual": residual,
            "zero_level": report.zero_level, "note": report.note}


# (d, state, kappa, rel_tol) of oscillator revivals the Ritz space does not hold: every d < 72, and
# states spread over many levels beyond
FALLBACK_JOBS = [
    (3, ["gauss"], 1.0, 1e-9),
    (5, ["delta", "0"], 1.0, 1e-9),
    (9, ["coherent", "1", "0"], 1.0, 1e-9),  # the denominator LCM exceeds the capacity
    (9, ["coherent", "1", "0"], 1.0, 1e-6),
    (31, ["gauss"], 1.0, 1e-9),
    (31, ["coherent", "1", "0"], 1.0, 1e-6),
    (63, ["gauss"], 0.5, 1e-9),
    (71, ["delta", "1"], 1.0, 1e-9),  # kind none
    (101, ["delta", "0"], 1.0, 1e-9),
    (301, ["coherent", "15", "0"], 1.0, 1e-9),
    (301, ["coherent", "30", "7"], 1.0, 1e-6),
    (1001, ["coherent", "300", "0"], 1.0, 1e-9),
]


class TestOscillatorFallback:
    @pytest.mark.parametrize("d,state,kappa,rel_tol", FALLBACK_JOBS,
                             ids=[f"d{d}-{'-'.join(s)}-k{k}-tol{t}" for d, s, k, t in FALLBACK_JOBS])
    def test_report_matches_the_dense_pipeline(self, d, state, kappa, rel_tol):
        assert _populated_spectrum(cli._revival_state(Dimension(d), state, kappa)) is None
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["revival", "--d", str(d), "--ham", "osc", "--state", *state,
                         "--kappa", repr(kappa), "--rel-tol", repr(rel_tol)])
        try:
            want = dense_oscillator_revival(d, state, kappa, rel_tol)
        except FiniteGaussError as exc:
            assert (code, out.getvalue(), err.getvalue()) == (3, "", f"numerical failure: {exc}\n")
            return
        assert code == (0 if want["certified"] else 3)
        assert json.loads(out.getvalue()) == want  # max_residual too, by ==


def reference_wigner_csv(grid, check_value) -> str:
    """The CSV grid with one repr per cell: the renderer's reference."""
    idx = [int(i) for i in grid.dim.indices()]
    lines = [",".join(["n"] + [str(m) for m in idx])]
    for i, n in enumerate(idx):
        lines.append(",".join([str(n)] + [repr(float(v)) for v in grid.values[i]]))
    if check_value is not None:
        lines.append(f"check_max_abs_diff,{repr(float(check_value))}")
    return "\n".join(lines) + "\n"


def reference_wigner_json(grid, check_value) -> str:
    """The JSON grid with the values converted one cell at a time."""
    idx = [int(i) for i in grid.dim.indices()]
    payload = {
        "d": grid.dim.d,
        "kappa": float(grid.kappa),
        "source": grid.source.value,
        "n": idx,
        "m": idx,
        "values": [[float(v) for v in row] for row in grid.values],
    }
    if grid.fitted_scale is not None:
        payload["fitted_scale"] = float(grid.fitted_scale)
    if check_value is not None:
        payload["check_max_abs_diff"] = float(check_value)
    return json.dumps(payload, indent=2) + "\n"


# Signed zeros, the smallest subnormal, and values on each side of repr's
# switches between positional and exponent notation (1e-4, 1e16).
_EDGE_VALUES = [0.0, -0.0, 5e-324, 1e-5, 1e-4, 1e15, 1e16, 0.1, 1.0 / 3.0]
_EDGE_VALUES += [float(np.nextafter(v, 0.0)) for v in (1e-4, 1e16)]
_EDGE_VALUES += [float(np.nextafter(v, np.inf)) for v in (1e-5, 1e15)]
_EDGE_VALUES += [-v for v in _EDGE_VALUES]


def _flip_low_bit(v: float) -> float:
    """v with the lowest bit of its pattern flipped: a neighbouring float, or inf and nan traded."""
    return (np.array(v).view(np.int64) ^ 1).view(np.float64).item()


def _symmetries(values) -> tuple[bool, bool]:
    """Whether the grid's bits are even in n and in m."""
    bits = values.view(np.int64)
    return bool(np.array_equal(bits, bits[::-1])), bool(np.array_equal(bits, bits[:, ::-1]))


@st.composite
def even_grids_with_defects(draw):
    """Odd d in [3, 41] and a grid of a drawn symmetry class: even in n or not, even in m or not.

    Each symmetry is intact or broken with probability 1/2.  Broken in m, each
    row of the upper half is either symmetric in m bit for bit, or breaks that
    symmetry in one cell, or only by 0.0 against -0.0, and at least one row
    breaks it.  Broken in n, each row of the lower half either mirrors its
    partner bit for bit, differs from it in one cell, or differs only by 0.0
    against -0.0, and at least one row differs; a grid even in m changes the
    mirror cell alike.
    """
    d = 2 * draw(st.integers(1, 20)) + 1
    s = d // 2
    even_n, even_m = draw(st.booleans()), draw(st.booleans())
    extra = draw(st.lists(st.floats(width=64), max_size=6))
    pool = np.array(_EDGE_VALUES + extra)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    right = rng.choice(pool, size=(s + 1, s + 1))  # m = 0..s
    upper = np.hstack([right[:, :0:-1], right])
    if not even_m:
        m_kinds = draw(st.lists(st.sampled_from(["symmetric", "cell", "zero_sign"]), min_size=s + 1, max_size=s + 1))
        m_kinds[draw(st.integers(0, s))] = draw(st.sampled_from(["cell", "zero_sign"]))
        for r, kind in enumerate(m_kinds):
            col = draw(st.integers(0, s - 1))  # m = col - s < 0
            if kind == "cell":
                mirror = np.array(upper[r, d - 1 - col]).view(np.int64)
                upper[r, col] = draw(st.sampled_from([v for v in _EDGE_VALUES if np.array(v).view(np.int64) != mirror]))
            elif kind == "zero_sign":
                upper[r, col], upper[r, d - 1 - col] = -0.0, 0.0
    grid = np.vstack([upper, upper[-2::-1]])
    if not even_n:
        n_kinds = draw(st.lists(st.sampled_from(["mirror", "cell", "zero_sign"]), min_size=s, max_size=s))
        n_kinds[draw(st.integers(0, s - 1))] = draw(st.sampled_from(["cell", "zero_sign"]))
        for r, kind in zip(range(s + 1, d), n_kinds):
            col = draw(st.integers(0, d - 1))
            for c in {col, d - 1 - col} if even_m else {col}:
                if kind == "cell":
                    grid[r, c] = _flip_low_bit(grid[r, c])
                elif kind == "zero_sign":
                    grid[r, c], grid[d - 1 - r, c] = 0.0, -0.0
    # a zero_sign in n can land on the cell that broke m, and mend it
    assume(_symmetries(grid) == (even_n, even_m))
    return WignerGrid(Dimension(d), 1.0, grid, WignerSource.DEFINITION)


WIGNER_ROUTES = {
    "definition": lambda dim: wigner_definition(dim, 1.0),
    "closed": lambda dim: wigner_closed_form(dim, 1.0),
    "theta": wigner_theta_form,
}


@functools.cache
def route_grid(source: str, d: int) -> WignerGrid:
    return WIGNER_ROUTES[source](Dimension(d))


class TestWignerRendering:
    @settings(max_examples=200, deadline=None)
    @given(even_grids_with_defects(), st.sampled_from([None, 0.0, 1.3877787807814457e-17]))
    def test_csv_matches_reference(self, grid, check_value):
        assert "".join(_render_wigner(grid, check_value, "csv")) == reference_wigner_csv(grid, check_value)

    @settings(max_examples=200, deadline=None)
    @given(even_grids_with_defects(), st.sampled_from([None, 0.0, 1.3877787807814457e-17]))
    def test_json_matches_reference(self, grid, check_value):
        # json.dumps writes inf, -inf and nan as Infinity, -Infinity and NaN
        assert "".join(_render_wigner(grid, check_value, "json")) == reference_wigner_json(grid, check_value)

    @pytest.mark.parametrize("check", [False, True])
    @pytest.mark.parametrize("source", ["definition", "closed", "theta"])
    def test_cli_csv_matches_reference(self, source, check, capsys):
        # at d=301 the rows take more than one block, and the last block is partial
        for d in (3, 31, 101, 301):
            dim = Dimension(d)
            grid = WIGNER_ROUTES[source](dim)
            check_value = None
            if check:
                diff = wigner_definition(dim, 1.0).values - wigner_closed_form(dim, 1.0).values
                check_value = float(np.max(np.abs(diff)))
            argv = ["wigner", "--d", str(d), "--source", source] + (["--check"] if check else [])
            assert main(argv) == 0
            assert capsys.readouterr().out == reference_wigner_csv(grid, check_value)

    @pytest.mark.parametrize("source", ["definition", "closed", "theta"])
    def test_stdout_and_out_file_match_reference(self, source, capsys, tmp_path):
        dim = Dimension(31)
        grid = WIGNER_ROUTES[source](dim)
        diff = wigner_definition(dim, 1.0).values - wigner_closed_form(dim, 1.0).values
        want = reference_wigner_csv(grid, float(np.max(np.abs(diff)))).encode()
        argv = ["wigner", "--d", "31", "--source", source, "--check"]
        assert main(argv) == 0
        assert capsys.readouterr().out.encode() == want
        assert run_to_file(argv, tmp_path / "w.csv") == 0
        assert (tmp_path / "w.csv").read_bytes() == want

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize("argv", [["--source", "definition"], ["--source", "closed", "--check"]],
                             ids=["route", "check"])
    def test_numerical_failure_writes_nothing(self, argv, to_file, monkeypatch, capsys, tmp_path):
        def failing(*_args):
            raise NumericalFailureError("imaginary residue", residual=1.0)

        monkeypatch.setattr(cli, "wigner_definition", failing)
        out = tmp_path / "w.csv"
        assert main(["wigner", "--d", "31", *argv] + (["--out", str(out)] if to_file else [])) == 3
        assert capsys.readouterr().out == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--source", "definition"], ["--source", "closed", "--check"],
                                      ["--source", "theta"]], ids=["definition", "closed", "theta"])
    def test_peak_at_d_1001_holds_one_grid_and_half_the_text(self, argv, monkeypatch):
        # Rows are written as they are formatted; only rows n < 0 wait for their mirror.
        # Whole, the text is 23 MB, and the grid 8 MB.
        class Discard:
            def write(self, text):
                return len(text)

        monkeypatch.setattr(sys, "stdout", Discard())
        tracemalloc.start()
        try:
            assert main(["wigner", "--d", "1001", *argv]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 30e6

    @pytest.mark.parametrize("source", ["definition", "closed", "theta"])
    def test_cli_json_matches_reference(self, source, capsys):
        dim = Dimension(31)
        grid = WIGNER_ROUTES[source](dim)
        assert main(["wigner", "--d", "31", "--source", source, "--format", "json"]) == 0
        assert capsys.readouterr().out == reference_wigner_json(grid, None)

    @pytest.mark.parametrize("check", [False, True])
    @pytest.mark.parametrize("d", [3, 31, 101, 301])
    @pytest.mark.parametrize("source", ["definition", "closed", "theta"])
    def test_streamed_json_matches_one_dump(self, source, d, check, capsys):
        dim = Dimension(d)
        grid = WIGNER_ROUTES[source](dim)
        check_value = None
        if check:
            diff = wigner_definition(dim, 1.0).values - wigner_closed_form(dim, 1.0).values
            check_value = float(np.max(np.abs(diff)))
        argv = ["wigner", "--d", str(d), "--source", source, "--format", "json"] + (["--check"] if check else [])
        assert main(argv) == 0
        assert capsys.readouterr().out.encode() == reference_wigner_json(grid, check_value).encode()

    def test_json_peak_at_d_1001_holds_one_grid_and_a_row(self, monkeypatch):
        # One dump of the whole payload peaked at 151 MiB; the grid is 8 MB.
        # The rows are rendered alike for every route, so one route is measured.
        class Discard:
            def write(self, text):
                return len(text)

        monkeypatch.setattr(sys, "stdout", Discard())
        tracemalloc.start()
        try:
            assert main(["wigner", "--d", "1001", "--format", "json"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40e6

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_peak_at_d_1001_with_every_chunk_kept_holds_one_grid_and_half_the_text(self, fmt, monkeypatch):
        # A sink that keeps each chunk, as the benchmark's does: beyond the kept text, the peak is the
        # grid and the texts of rows n < 0 until each is written, 9.4 MB (CSV) and 9.2 MB (JSON).
        # Holding those texts until the grid ends took it to 19.8 MB and 23.3 MB.
        class Keep:
            def __init__(self):
                self.parts = []

            def write(self, text):
                self.parts.append(text)
                return len(text)

        sink = Keep()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            assert main(["wigner", "--d", "1001", "--format", fmt]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - sum(map(sys.getsizeof, sink.parts)) <= 12e6

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("defect", ["cell", "n_mirror", "m_mirror"])
    @pytest.mark.parametrize("source", ["definition", "closed", "theta"])
    def test_d_301_grid_with_a_defect_matches_reference(self, source, defect, fmt):
        # The strategy's grids fit in one block of rows; at d = 301 the rows take several.
        # A cell breaks both symmetries, a cell with its n-mirror only m, with its m-mirror only n.
        d, i, j = 301, 200, 40  # n = 50, m = -110
        grid = route_grid(source, d)
        values = grid.values.copy()
        assert _symmetries(values) == (True, True)
        cells = {"cell": [(i, j)], "n_mirror": [(i, j), (d - 1 - i, j)], "m_mirror": [(i, j), (i, d - 1 - j)]}
        for r, c in cells[defect]:
            values[r, c] = _flip_low_bit(values[r, c])
        assert _symmetries(values) == {"cell": (False, False), "n_mirror": (True, False),
                                       "m_mirror": (False, True)}[defect]
        defective = WignerGrid(grid.dim, grid.kappa, values, grid.source, grid.fitted_scale)
        reference = reference_wigner_csv if fmt == "csv" else reference_wigner_json
        assert "".join(_render_wigner(defective, None, fmt)) == reference(defective, None)


# The flags each subcommand reads; any other flag is a usage error.
COMMAND_FLAGS = {
    "gauss": {"--d", "--kappa", "--format", "--out"},
    "commutator": {"--d", "--format", "--out"},
    "uncertainty": {"--d-list", "--kappa", "--format", "--out"},
    "spectrum": {"--d", "--ham", "--format", "--out"},
    "quasi": {"--d", "--format", "--out"},
    "wigner": {"--d", "--kappa", "--source", "--check", "--format", "--out"},
    "revival": {"--d", "--ham", "--state", "--kappa", "--rel-tol", "--out"},
    "make-goldens": {"--out-dir"},
}


class TestFlags:
    def test_each_subcommand_takes_only_the_flags_it_reads(self):
        parser = _build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        got = {
            name: {flag for action in p._actions for flag in action.option_strings} - {"-h", "--help"}
            for name, p in sub.choices.items()
        }
        assert got == COMMAND_FLAGS
        assert sum(len(flags) for flags in got.values()) == 31

    @pytest.mark.parametrize(
        "argv",
        [
            ["commutator", "--d", "5", "--kappa", "2"],
            ["revival", "--d", "9", "--state", "delta", "0", "--format", "csv"],
            ["quasi", "--d", "5", "--kappa", "2"],
            ["spectrum", "--d", "5", "--term-tol", "1e-12"],
            # the truncation rule is the constant TERM_TOL; no subcommand takes it
            ["gauss", "--d", "5", "--term-tol", "0"],
            ["uncertainty", "--d-list", "3,5", "--term-tol", "1e-18"],
            ["quasi", "--d", "5", "--term-tol", "1e-18"],
            ["wigner", "--d", "5", "--term-tol", "1e-18"],
            ["revival", "--d", "9", "--state", "gauss", "--term-tol", "1e-18"],
            # the eigen residual, population, denominator and certification
            # limits are constants: EIG_RESIDUAL_TOL, WEIGHT_FLOOR, MAX_DEN, CERT_TOL
            ["spectrum", "--d", "5", "--eig-tol", "1e-10"],
            ["revival", "--d", "9", "--state", "delta", "0", "--eig-tol", "1e-10"],
            ["revival", "--d", "9", "--state", "delta", "0", "--max-den", "1000000"],
            ["revival", "--d", "9", "--state", "delta", "0", "--cert-tol", "1e-8"],
            ["revival", "--d", "9", "--state", "delta", "0", "--weight-floor", "1e-12"],
        ],
    )
    def test_unread_flag_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestParserOnce:
    def test_two_calls_build_one_parser(self, monkeypatch, capsys):
        builds = []
        real = cli._build_parser

        def counted():
            builds.append(1)
            return real()

        monkeypatch.setattr(cli, "_PARSER", None)
        monkeypatch.setattr(cli, "_build_parser", counted)
        assert main(["quasi", "--d", "5"]) == 0
        assert main(["gauss", "--d", "5"]) == 0
        assert len(builds) == 1

    def test_a_command_rebound_after_the_first_call_is_the_one_that_runs(self, monkeypatch, capsys):
        assert main(["quasi", "--d", "5"]) == 0
        capsys.readouterr()
        monkeypatch.setattr(cli, "cmd_quasi", lambda args: (f"rebound {args.d}\n", 0))
        assert main(["quasi", "--d", "5"]) == 0
        assert capsys.readouterr().out == "rebound 5\n"


class TestMakeGoldens:
    def test_regenerates_full_set(self, tmp_path):
        out_dir = tmp_path / "fresh"
        assert main(["make-goldens", "--out-dir", str(out_dir)]) == 0
        for name, _ in _golden_jobs():
            assert (out_dir / name).read_bytes() == (GOLDEN_DIR / name).read_bytes()


class TestConsoleEntryPoint:
    def test_installed_script(self, tmp_path):
        # The child imports the same package as this process, also when only
        # pytest's own pythonpath setting put it on sys.path.
        package_root = str(Path(finitegauss.__file__).parents[1])
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "finitegauss.cli", "gauss", "--d", "3"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "n,g,g_plus,naive"


class TestWignerRowReuse:
    @staticmethod
    def formatted_rows(d: int, source: str, fmt: str, monkeypatch, capsys) -> list:
        """The rows the formatter is given while the CLI prints the d x d grid of source."""
        from finitegauss._shortest import RowFormatter

        formatted = []
        real = RowFormatter.join_rows

        def counting(self, rows, columns=None):
            formatted.extend(rows)
            return real(self, rows, columns)

        monkeypatch.setattr(RowFormatter, "join_rows", counting)
        assert main(["wigner", "--d", str(d), "--source", source, "--format", fmt]) == 0
        reference = reference_wigner_csv if fmt == "csv" else reference_wigner_json
        assert capsys.readouterr().out == reference(WIGNER_ROUTES[source](Dimension(d)), None)
        return formatted

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("source", ["definition", "closed", "theta"])
    def test_rows_n_above_zero_reuse_the_text_of_rows_below_at_d_31(self, source, fmt, monkeypatch, capsys):
        # rows n <= 0 are formatted, each as its m >= 0 half
        formatted = self.formatted_rows(31, source, fmt, monkeypatch, capsys)
        assert len(formatted) == 16 and {len(row) for row in formatted} == {16}

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("source", ["definition", "closed", "theta"])
    def test_rows_n_above_zero_reuse_the_text_of_rows_below_at_d_301(self, source, fmt, monkeypatch, capsys):
        # rows n <= 0 take three blocks, so row -n is written from a text formatted blocks before
        formatted = self.formatted_rows(301, source, fmt, monkeypatch, capsys)
        assert len(formatted) == 151 and {len(row) for row in formatted} == {151}
