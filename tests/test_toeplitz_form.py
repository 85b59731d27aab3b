"""The oscillator, the free Hamiltonian and -i[Q,P] as a real even symbol plus a diagonal,
against the dense matrices they stand in for."""
import contextlib
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitegauss import (
    Dimension,
    InvalidParameterError,
    KindMismatchError,
    MatrixKind,
    OperatorMatrix,
    free_hamiltonian,
    oscillator_hamiltonian,
)
from finitegauss import cli, hilbert, spectral
from finitegauss.spectral import _folded, _matrix_blocks, _mirrored, _parity_blocks, _ToeplitzForm

# The FFT apply against the dense product, relative to max|H| * |v|: worst seen
# 4.0e-16 for the lattice apply and 5.5e-16 for the folded blocks, over every odd
# d < 200 and d in {301, 501, 999, 1001, 1501, 2001}, for the three operators and
# random normal columns.
APPLY_TOL = 2e-15


def forms_and_matrices(dim: Dimension):
    """(form, dense OperatorMatrix) for the oscillator, the free Hamiltonian and -i[Q,P]."""
    commutator = OperatorMatrix(dim, -spectral._commutator_kernel(dim), MatrixKind.HERMITIAN)
    return {
        "oscillator": (spectral._oscillator_form(dim), oscillator_hamiltonian(dim)),
        "free": (_ToeplitzForm(dim, spectral._free_symbol(dim)), free_hamiltonian(dim)),
        "commutator": (_ToeplitzForm(dim, -spectral._commutator_symbol(dim)), commutator),
    }


def assert_bitwise(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestAgainstDense:
    @given(st.integers(1, 500).map(lambda s: Dimension(2 * s + 1)))
    @settings(max_examples=25, deadline=None)
    def test_blocks_and_scale_are_those_of_the_dense_matrix(self, dim):
        for form, m in forms_and_matrices(dim).values():
            blocks, scale = _matrix_blocks(m)
            assert len(blocks) == 2
            for got, want in zip(form.blocks(), blocks):
                assert_bitwise(got, want)
            assert form.scale() == scale

    @pytest.mark.parametrize("d", [3, 9, 31, 301, 1001])
    def test_entries_are_those_of_the_builders(self, d):
        for form, m in forms_and_matrices(Dimension(d)).values():
            assert_bitwise(form.entries(), m.entries)

    @pytest.mark.parametrize("d", [3, 5, 31, 101, 999, 2001])
    def test_fft_apply_matches_the_dense_product(self, d):
        rng = np.random.default_rng(d)
        for form, m in forms_and_matrices(Dimension(d)).values():
            v = rng.normal(size=(d, 3))
            err = np.max(np.abs(form.apply(v) - m.entries @ v))
            assert err <= APPLY_TOL * form.scale() * np.max(np.linalg.norm(v, axis=0))
            dense = form.blocks()
            for ke, ko in ((3, 3), (3, 2), (1, 2)):  # the blocks share rows of the apply, whatever their widths
                ws = rng.normal(size=(dense[0].shape[1], ke)), rng.normal(size=(dense[1].shape[1], ko))
                for got, block, w in zip(form.folded_apply(*ws), dense, ws):
                    err = np.max(np.abs(got - block @ w))
                    assert err <= APPLY_TOL * form.scale() * max(np.max(np.linalg.norm(x, axis=0)) for x in ws)

    @pytest.mark.parametrize("d", [9, 31, 301])
    def test_spectra_are_those_of_hermitian_eig(self, d):
        for form, m in forms_and_matrices(Dimension(d)).values():
            got, want = spectral._form_eig(form), spectral.hermitian_eig(m)
            assert_bitwise(got.eigenvalues, want.eigenvalues)
            assert_bitwise(got.eigenvectors, want.eigenvectors)
            assert got.residual == want.residual


class TestRefusals:
    """The form takes exactly even, finite arrays; anything else raises the dense tag check's errors."""

    @pytest.mark.parametrize("name", ["oscillator", "free", "commutator"])
    @pytest.mark.parametrize("index", [0, 7, 29])
    def test_symbol_one_ulp_off_even_is_refused(self, name, index):
        form, _ = forms_and_matrices(Dimension(31))[name]
        symbol = form.symbol.copy()
        symbol[index] = np.nextafter(symbol[index], np.inf)
        with pytest.raises(KindMismatchError, match="not exactly even"):
            _ToeplitzForm(form.dim, symbol, form.potential)

    def test_potential_one_ulp_off_even_is_refused(self):
        form = spectral._oscillator_form(Dimension(31))
        potential = form.potential.copy()
        potential[3] = np.nextafter(potential[3], 0.0)
        with pytest.raises(KindMismatchError, match="not exactly even"):
            _ToeplitzForm(form.dim, form.symbol, potential)

    @pytest.mark.parametrize("where", ["symbol", "potential"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_are_refused(self, where, bad):
        form, m = forms_and_matrices(Dimension(31))["oscillator"]
        arrays = {"symbol": form.symbol.copy(), "potential": form.potential.copy()}
        arrays[where][[4, -5]] = bad  # kept even, so only the finiteness check can refuse
        entries = m.entries.copy()
        entries[4, 4] = bad
        with pytest.raises(InvalidParameterError, match="matrix entries must be finite"):
            OperatorMatrix(form.dim, entries, MatrixKind.HERMITIAN)
        with pytest.raises(InvalidParameterError, match="matrix entries must be finite"):
            _ToeplitzForm(form.dim, arrays["symbol"], arrays["potential"])


@pytest.fixture
def no_square_arrays(monkeypatch):
    """Refuse any array of d**2 / 4 cells or more for d = 4001, and trace the peak allocation."""
    limit = 4001**2 / 4

    def refuse(rows, cols):
        assert rows * cols < limit, f"allocates {rows} x {cols}"

    for name in ("empty", "zeros", "ones", "full"):
        real = getattr(np, name)

        def guarded(shape, *args, real=real, **kwargs):
            refuse(np.prod(shape, dtype=float), 1)
            return real(shape, *args, **kwargs)

        monkeypatch.setattr(np, name, guarded)
    for module in (hilbert, spectral):  # the dense builders: _toeplitz, _roots, _mirrored, the parity blocks
        real_check = module._check_capacity

        def checked(rows, cols, itemsize, real_check=real_check):
            refuse(rows, cols)
            real_check(rows, cols, itemsize)

        monkeypatch.setattr(module, "_check_capacity", checked)
    tracemalloc.start()
    yield limit
    tracemalloc.stop()


class TestNoDenseMatrix:
    def test_revival_at_d_4001_certifies_in_far_less_than_a_square(self, no_square_arrays):
        out = io.StringIO()
        argv = ["revival", "--d", "4001", "--ham", "osc", "--state", "coherent", "1", "0", "--rel-tol", "1e-6"]
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
        assert '"certified": true' in out.getvalue()
        assert tracemalloc.get_traced_memory()[1] < 8 * no_square_arrays

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--d", "31", "--ham", "osc"],
        ["commutator", "--d", "31"],
        ["revival", "--d", "301", "--ham", "osc", "--state", "coherent", "1", "0", "--rel-tol", "1e-6"],
    ], ids=["spectrum", "commutator", "revival-ritz"])
    def test_cli_eigen_jobs_build_no_operator_matrix(self, argv, monkeypatch):
        def refuse(*_args):
            raise AssertionError("built a d x d matrix")

        monkeypatch.setattr(spectral, "_toeplitz", refuse)
        monkeypatch.setattr(OperatorMatrix, "__post_init__", refuse)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0

    @pytest.mark.parametrize("argv", [
        ["revival", "--d", "31", "--ham", "osc", "--state", "gauss"],
        ["revival", "--d", "301", "--ham", "osc", "--state", "coherent", "15", "0"],
    ], ids=["revival-dense", "revival-fallback"])
    def test_revivals_without_a_ritz_space_solve_and_certify_the_whole_oscillator(self, argv, monkeypatch):
        calls = []
        for name in ("oscillator_hamiltonian", "hermitian_eig", "certify_period"):
            real = getattr(cli, name)

            def spy(*args, name=name, real=real, **kwargs):
                calls.append((name, kwargs.get("spectrum") is not None))
                return real(*args, **kwargs)

            monkeypatch.setattr(cli, name, spy)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        assert calls == [("oscillator_hamiltonian", False), ("hermitian_eig", False), ("certify_period", True)]


def explicit_parity_basis(s: int) -> np.ndarray:
    """P whose columns are delta_0, (delta_n + delta_-n)/sqrt(2) for n = 1..s, then (delta_n - delta_-n)/sqrt(2)."""
    d, half, n = 2 * s + 1, math.sqrt(0.5), np.arange(1, s + 1)
    p = np.zeros((d, d))
    p[s, 0] = 1.0
    p[s + n, n] = p[s - n, n] = p[s + n, s + n] = half
    p[s - n, s + n] = -half
    return p


class TestOneParityBasis:
    """_parity_blocks and _folded against the explicit basis P: worst seen 5.9e-16 and 3.0e-16 of the scale
    over 3000 random cases with s < 31."""

    @given(st.integers(1, 30), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_blocks_and_fold_are_those_of_the_explicit_basis(self, s, seed):
        rng = np.random.default_rng(seed)
        d = 2 * s + 1
        a = rng.normal(size=(d, d))
        h = a + a[::-1, ::-1]  # real and exactly parity even, not symmetric
        p = explicit_parity_basis(s)
        want = p.T @ h @ p
        even, odd = _parity_blocks(h[s:, s:], h[s:, s::-1], h.diagonal()[s:])
        assert np.max(np.abs(even - want[: s + 1, : s + 1])) <= 1e-15 * np.max(np.abs(h))
        assert np.max(np.abs(odd - want[s + 1 :, s + 1 :])) <= 1e-15 * np.max(np.abs(h))
        assert np.max(np.abs(want[: s + 1, s + 1 :])) <= 1e-15 * np.max(np.abs(h))  # H keeps each parity
        v = rng.normal(size=(d, 3))
        folded = np.vstack(_folded(v))
        assert np.max(np.abs(folded - p.T @ v)) <= 1e-15 * np.max(np.abs(v))
        assert np.array_equal(np.concatenate(_folded(v[:, 0])), folded[:, 0])  # a vector folds as a column does

    @given(st.integers(1, 30), st.data())
    @settings(max_examples=60, deadline=None)
    def test_fold_takes_mirrored_columns_back_to_their_blocks(self, s, data):
        ke, ko = data.draw(st.integers(1, s + 1)), data.draw(st.integers(1, s))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        even_w, odd_w = rng.normal(size=(s + 1, ke)), rng.normal(size=(s, ko))
        _, vecs = _mirrored([(np.zeros(ke), even_w), (np.zeros(ko), odd_w)])
        even, odd = _folded(vecs)
        assert not np.any(even[:, ke:]) and not np.any(odd[:, :ke])  # mirrored columns are exactly even or odd
        assert np.array_equal(even[0, :ke], even_w[0])
        assert np.max(np.abs(even[:, :ke] - even_w)) <= 4 * np.finfo(float).eps * np.max(np.abs(even_w))
        assert np.max(np.abs(odd[:, ke:] - odd_w)) <= 4 * np.finfo(float).eps * np.max(np.abs(odd_w))
