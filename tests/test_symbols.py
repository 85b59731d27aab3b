"""Operators gathered from a symbol match their elementwise d x d builders bit for bit.

Each reference below builds the matrix entry by entry over u = j - l, or
from the table of roots of unity indexed by (a*b) mod d.  The library
builds the same values from a one-dimensional symbol; comparing the raw
bytes also checks the sign of every zero.
"""
import math

import numpy as np
import pytest

from finitegauss import (
    Dimension,
    PhasePoint,
    commutator_qp,
    displacement,
    floratos_approx,
    fourier_matrix,
    free_hamiltonian,
    free_spectrum,
    momentum_operator,
    oscillator_hamiltonian,
)
from finitegauss.hilbert import _displacement_action, _roots, _toeplitz

DIMS = [3, 5, 9, 31, 101, 1001]


def _dense_kernel(dim):
    n = dim.indices()
    u = n[:, None] - n[None, :]
    signs = np.where(u % 2 == 0, 1.0, -1.0)
    sines = np.sin(np.pi * u / dim.d)
    np.fill_diagonal(sines, 1.0)
    return u, signs, sines


def _root_table(dim):
    # entries d - s..d - 1 are the conjugates of s..1, as in the library's table
    d, s = dim.d, dim.s
    table = np.exp(2j * np.pi * np.arange(d) / d)
    for j in range(1, s + 1):
        table[d - j] = table[j].conjugate()
    return table


def _ref_momentum(dim):
    _, signs, sines = _dense_kernel(dim)
    entries = -0.5j * math.sqrt(2.0 * math.pi / dim.d) * signs / sines
    np.fill_diagonal(entries, 0.0)
    return entries


def _ref_commutator(dim):
    u, signs, sines = _dense_kernel(dim)
    kernel = signs * ((np.pi * u / dim.d) / sines)
    np.fill_diagonal(kernel, 0.0)
    return -1j * kernel


def _ref_floratos(dim):
    _, signs, _ = _dense_kernel(dim)
    return 1j * signs * (np.eye(dim.d) - 1.0)


def _ref_free(dim):
    d, s = dim.d, dim.s
    k = np.arange(s + 1)
    col = np.fft.irfft(np.pi * (k * k) / d, n=d)
    col[d - s :] = col[s:0:-1]
    n = dim.indices()
    return col[np.mod(np.subtract.outer(n, n), d)]


def _ref_oscillator(dim):
    h = _ref_free(dim).copy()
    q = math.sqrt(2.0 * math.pi / dim.d) * dim.indices().astype(float)
    h[np.diag_indices(dim.d)] += 0.5 * q * q
    return h


def _ref_fourier(dim):
    n = dim.indices()
    return _root_table(dim)[np.mod(np.outer(n, n), dim.d)] / math.sqrt(dim.d)


def _ref_displacement_action(dim, alpha, beta):
    d = dim.d
    b = np.asarray(beta)
    roots = _root_table(dim)[np.mod(np.multiply.outer(dim.indices(), b), d)]
    phases = np.exp(-1j * np.pi * alpha * b / d) * roots
    return phases, np.mod(np.arange(d) - alpha, d)


def _ref_free_vectors(dim):
    d, s = dim.d, dim.s
    n, k = np.arange(s + 1), np.arange(1, s + 1)
    roots = _root_table(dim)[np.mod(np.outer(n, k), d)]
    vecs = np.empty((d, d))
    vecs[:, 0] = 1.0 / math.sqrt(d)
    vecs[s:, 1 : s + 1] = math.sqrt(2.0 / d) * roots.real
    vecs[s:, s + 1 :] = math.sqrt(2.0 / d) * roots.imag
    # rows n < 0 mirror rows n > 0: cosines are even, sines odd
    parity = np.where(np.arange(d) <= s, 1.0, -1.0)
    vecs[:s] = vecs[:s:-1] * parity
    return vecs


def _same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_toeplitz_reads_the_symbol_at_j_minus_l():
    col = np.arange(9.0)
    t = _toeplitz(col)
    j, l = np.indices((5, 5))
    assert np.array_equal(t, col[j - l + 4])
    assert t.flags.c_contiguous and t.flags.owndata


@pytest.mark.parametrize("d", DIMS)
class TestBitIdentical:
    def test_momentum(self, d):
        dim = Dimension(d)
        _same_bytes(momentum_operator(dim).entries, _ref_momentum(dim))

    def test_commutator(self, d):
        dim = Dimension(d)
        _same_bytes(commutator_qp(dim).entries, _ref_commutator(dim))

    def test_floratos(self, d):
        dim = Dimension(d)
        _same_bytes(floratos_approx(dim).entries, _ref_floratos(dim))

    def test_free_hamiltonian(self, d):
        dim = Dimension(d)
        _same_bytes(free_hamiltonian(dim).entries, _ref_free(dim))

    def test_oscillator_hamiltonian(self, d):
        dim = Dimension(d)
        _same_bytes(oscillator_hamiltonian(dim).entries, _ref_oscillator(dim))

    def test_fourier(self, d):
        dim = Dimension(d)
        _same_bytes(fourier_matrix(dim).entries, _ref_fourier(dim))

    def test_displacement(self, d):
        dim = Dimension(d)
        s = dim.s
        for alpha, beta in [(0, 0), (1, -1), (s, s), (-s, 1), (-1, -s)]:
            phases, cols = _ref_displacement_action(dim, alpha, beta)
            want = np.zeros((d, d), dtype=complex)
            want[np.arange(d), cols] = phases
            _same_bytes(displacement(dim, PhasePoint(alpha, beta)).entries, want)

    def test_displacement_over_every_beta(self, d):
        dim = Dimension(d)
        for alpha in (0, -dim.s):
            for beta in range(-dim.s, dim.s + 1):
                got_phases, got_cols = _displacement_action(dim, alpha, beta)
                want_phases, want_cols = _ref_displacement_action(dim, alpha, beta)
                _same_bytes(got_phases, want_phases)
                _same_bytes(got_cols, want_cols)

    def test_root_table_is_conjugate_symmetric(self, d):
        table = _roots(Dimension(d), np.arange(d), 1)
        _same_bytes(table[:0:-1], table[1:].conj())

    def test_free_spectrum_eigenvectors(self, d):
        # The modes pass through the sqrt(1/2) of the parity blocks, so they
        # match the elementwise reference to rounding, up to the gauge's sign
        # and tie order.
        dim = Dimension(d)
        levels = np.pi * np.arange(dim.s + 1) ** 2 / d
        want_vals, want_vecs = np.concatenate((levels, levels[1:])), _ref_free_vectors(dim)
        got = free_spectrum(free_hamiltonian(dim))
        v = got.eigenvectors
        signed_perm = np.rint(v.T @ want_vecs)  # got column i is +-want column j
        assert np.array_equal(np.abs(signed_perm).sum(axis=0), np.ones(d))
        assert np.array_equal(np.abs(signed_perm).sum(axis=1), np.ones(d))
        _same_bytes(got.eigenvalues, np.abs(signed_perm) @ want_vals)
        # worst seen over every odd d <= 1001: 5.0e-16
        assert np.allclose(v, want_vecs @ signed_perm.T, rtol=1e-15, atol=0.0)
        even = np.all(v[::-1] == v, axis=0)
        assert np.count_nonzero(even) == dim.s + 1
        assert np.array_equal(v[::-1, ~even], -v[:, ~even])


@pytest.mark.parametrize("d", [9, 25, 225, 1001])
def test_free_eigenvector_pivots_are_exact(d):
    # The gauge picks each column's sign and tie order at its largest
    # modulus.  Mirror-equal entries carry equal bits, so no entry comes
    # within rounding of that maximum without being equal to it.
    v = np.abs(free_spectrum(free_hamiltonian(Dimension(d))).eigenvectors)
    top = v.max(axis=0)
    near = (v >= top * (1.0 - 8e-16)) & (v != top)
    assert np.count_nonzero(near.any(axis=0)) == 0
