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
from finitegauss.hilbert import _displacement_action, _toeplitz
from finitegauss.spectral import EIG_RESIDUAL_TOL, _checked_spectrum

DIMS = [3, 5, 9, 31, 101, 1001]


def _dense_kernel(dim):
    n = dim.indices()
    u = n[:, None] - n[None, :]
    signs = np.where(u % 2 == 0, 1.0, -1.0)
    sines = np.sin(np.pi * u / dim.d)
    np.fill_diagonal(sines, 1.0)
    return u, signs, sines


def _root_table(dim):
    return np.exp(2j * np.pi * np.arange(dim.d) / dim.d)


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
    n, k = dim.indices(), np.arange(1, s + 1)
    roots = _root_table(dim)[np.mod(np.outer(n, k), d)]
    vecs = np.empty((d, d))
    vecs[:, 0] = 1.0 / math.sqrt(d)
    vecs[:, 1 : s + 1] = math.sqrt(2.0 / d) * roots.real
    vecs[:, s + 1 :] = math.sqrt(2.0 / d) * roots.imag
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
            got_phases, got_cols = _displacement_action(dim, alpha, dim.indices())
            want_phases, want_cols = _ref_displacement_action(dim, alpha, dim.indices())
            _same_bytes(got_phases, want_phases)
            _same_bytes(got_cols, want_cols)

    def test_free_spectrum_eigenvectors(self, d):
        dim = Dimension(d)
        h = free_hamiltonian(dim)
        levels = np.pi * np.arange(dim.s + 1) ** 2 / d
        want = _checked_spectrum(
            h, EIG_RESIDUAL_TOL, lambda m: (np.concatenate((levels, levels[1:])), _ref_free_vectors(dim))
        )
        got = free_spectrum(h)
        _same_bytes(got.eigenvectors, want.eigenvectors)
        _same_bytes(got.eigenvalues, want.eigenvalues)
