"""Hermitian eigenanalysis and the operator-level consequences.

Holds the deterministic eigensolver contract used everywhere else,
the exact commutator of position with momentum, its rank-one
approximation, the free and oscillator Hamiltonians with the closed-form
free eigensystem, and the uncertainty bookkeeping for wrapped Gaussians.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, KindMismatchError, NumericalFailureError
from .hilbert import MatrixKind, OperatorMatrix, _lattice_symbol, _roots, _toeplitz
from .lattice import Dimension, as_dimension
from .wrapped import finite_gaussian

EIG_RESIDUAL_TOL = 1e-10
HALF_COMM_CROSS_TOL = 1e-12
UNCERTAINTY_GAP_TOL = 1e-12  # how far product may fall below half_comm before it fails


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (ascending) and phase-fixed orthonormal eigenvectors.

    eigenvectors[:, k] belongs to eigenvalues[k].  Each column is
    normalized so its largest-modulus component is real and positive;
    exact eigenvalue ties are ordered by that component's index.  The
    eigenvectors are float64 when the operator's entries are real and
    complex otherwise.  residual is max_k of the 2-norm of
    M v_k - lambda_k v_k.
    """

    dim: Dimension
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual: float

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        self.eigenvectors.setflags(write=False)


@dataclass(frozen=True)
class UncertaintyReport:
    """Position/momentum spreads of a wrapped Gaussian and the bound they meet."""

    dim: Dimension
    kappa: float
    delta_q: float
    delta_p: float
    product: float
    half_comm: float
    gap: float


@dataclass(frozen=True)
class QuasiEigenReport:
    """Rayleigh-style quotient and pointwise defect of H g_1 = lam g_1.

    residual[i] = (H g_1 - lam g_1)(n) at n = i - s, with lam chosen so
    the defect vanishes at n = 0.
    """

    dim: Dimension
    lam: float
    residual: np.ndarray

    def __post_init__(self):
        self.residual.setflags(write=False)


def _checked_spectrum(m: OperatorMatrix, residual_tol: float, solve) -> Spectrum:
    """Check m and residual_tol, run solve(m) -> (vals, vecs), fix the gauge, check the residual.

    The residual is measured on the full matrix m, however solve found
    the eigenpairs.
    """
    if m.kind is not MatrixKind.HERMITIAN:
        raise KindMismatchError(f"eigensolver needs a hermitian operator, got {m.kind.value}")
    residual_tol = float(residual_tol)
    if not (math.isfinite(residual_tol) and residual_tol > 0.0):
        raise InvalidParameterError(f"residual_tol must be finite and positive, got {residual_tol}")
    vals, vecs = solve(m)

    pivots = np.argmax(np.abs(vecs), axis=0)
    order = np.lexsort((pivots, vals))
    vals, vecs, pivots = vals[order], vecs[:, order], pivots[order]

    piv = vecs[pivots, np.arange(vecs.shape[1])]
    vecs = vecs * (piv.conj() / np.abs(piv))

    scale = float(np.max(np.abs(m.entries)))
    residual = float(np.max(np.linalg.norm(m.entries @ vecs - vecs * vals, axis=0)))
    if residual > residual_tol * scale:
        raise NumericalFailureError(
            f"eigenpair residual {residual:.3e} exceeds {residual_tol:.1e} * {scale:.3e}",
            residual=residual,
        )
    return Spectrum(m.dim, vals, vecs, residual)


def _eigh(h: np.ndarray):
    try:
        return np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigensolver did not converge: {exc}") from exc


def _parity_split_eigh(m: OperatorMatrix):
    """eigh of m, split by parity n -> -n when m is real and commutes with it exactly.

    In the basis delta_0, (delta_n + delta_-n)/sqrt(2) the even block
    is up + down with row and column 0 scaled by 1/sqrt(2); in the basis
    (delta_n - delta_-n)/sqrt(2) the odd block is up - down without
    them.  Here h = m.entries, up = h[n >= 0, l >= 0] and
    down = h[n >= 0, l <= 0].  Any other matrix goes to one dense eigh.
    """
    h = m.entries
    if h.dtype.kind != "f" or not np.array_equal(h, h[::-1, ::-1]):
        return _eigh(h)
    d = h.shape[0]
    s = d // 2
    up, down = h[s:, s:], h[s:, s::-1]
    even = up + down
    even[0, :] *= math.sqrt(0.5)
    even[:, 0] *= math.sqrt(0.5)
    even_vals, even_w = _eigh(even)
    odd_vals, odd_w = _eigh((up - down)[1:, 1:])

    vecs = np.zeros((d, d))
    vecs[s, : s + 1] = even_w[0]
    vecs[s + 1 :, : s + 1] = math.sqrt(0.5) * even_w[1:]
    vecs[s - 1 :: -1, : s + 1] = vecs[s + 1 :, : s + 1]
    vecs[s + 1 :, s + 1 :] = math.sqrt(0.5) * odd_w
    vecs[s - 1 :: -1, s + 1 :] = -vecs[s + 1 :, s + 1 :]
    return np.concatenate((even_vals, odd_vals)), vecs


def hermitian_eig(m: OperatorMatrix, residual_tol: float = EIG_RESIDUAL_TOL) -> Spectrum:
    """Full eigensystem of a Hermitian operator with a deterministic gauge.

    Real entries give float64 eigenvectors.  A real matrix that equals
    its parity image h[::-1, ::-1] exactly is solved as two real blocks,
    even and odd under n -> -n; any other matrix goes to one dense eigh.

    Raises NumericalFailureError if the solver fails to converge or the
    worst eigenpair residual exceeds residual_tol times the largest
    matrix entry.
    """
    return _checked_spectrum(m, residual_tol, _parity_split_eigh)


def _commutator_kernel(dim: Dimension) -> np.ndarray:
    """The real matrix 1j*[Q, P]: (-1)**(j-l) * (pi*(j-l)/d) / sin(pi*(j-l)/d), zero diagonal."""
    u, signs, sines = _lattice_symbol(dim)
    symbol = signs * ((np.pi * u / dim.d) / sines)
    symbol[u == 0] = 0.0
    return _toeplitz(symbol)


def commutator_qp(dim) -> OperatorMatrix:
    """Exact commutator [Q, P]; anti-Hermitian with zero diagonal.

    Off the diagonal the entries are
    -1j * (pi*(j-l)/d) * (-1)**(j-l) / sin(pi*(j-l)/d).
    """
    dim = as_dimension(dim)
    return OperatorMatrix(dim, -1j * _commutator_kernel(dim), MatrixKind.GENERAL)


def commutator_spectrum(dim) -> Spectrum:
    """Spectrum of the Hermitian form -1j*[Q, P], a real symmetric matrix.

    Its eigenvalues are the imaginary parts of the commutator's
    spectrum; in the large-d bulk they pile up at +1.
    """
    dim = as_dimension(dim)
    return hermitian_eig(OperatorMatrix(dim, -_commutator_kernel(dim), MatrixKind.HERMITIAN))


def floratos_approx(dim) -> OperatorMatrix:
    """Rank-one-shift stand-in for [Q, P]: entries 1j*(-1)**(j-l)*(delta_jl - 1).

    Spectrum is 1j with multiplicity d-1 plus the single outlier
    (1-d)*1j, so it reproduces the commutator's bulk but not its tails.
    """
    dim = as_dimension(dim)
    u, signs, _ = _lattice_symbol(dim)
    return OperatorMatrix(dim, _toeplitz(1j * signs * ((u == 0) - 1.0)), MatrixKind.GENERAL)


def _free_levels(dim: Dimension) -> np.ndarray:
    """pi*k**2/d for k = 0..s."""
    k = np.arange(dim.s + 1)
    return np.pi * (k * k) / dim.d


def free_hamiltonian(dim) -> OperatorMatrix:
    """H = P**2 / 2, real symmetric; its spectrum is pi*n**2/d over the centered labels.

    P**2 is circulant: P = F Q F^dag, so H[j, l] = col[(j - l) mod d]
    with col the inverse DFT of the levels.  The column is mirrored,
    col[d - u] = col[u], so that H is exactly symmetric and even under
    parity, and extended periodically to the symbol over u = 1-d..d-1.
    """
    dim = as_dimension(dim)
    d, s = dim.d, dim.s
    col = np.fft.irfft(_free_levels(dim), n=d)
    col[d - s :] = col[s:0:-1]
    return OperatorMatrix(dim, _toeplitz(np.concatenate((col[1:], col))), MatrixKind.HERMITIAN)


def _free_eigenpairs(m: OperatorMatrix):
    d, s = m.dim.d, m.dim.s
    levels = _free_levels(m.dim)
    roots = _roots(m.dim, m.dim.indices(), np.arange(1, s + 1))
    vecs = np.empty((d, d))
    vecs[:, 0] = 1.0 / math.sqrt(d)
    vecs[:, 1 : s + 1] = math.sqrt(2.0 / d) * roots.real
    vecs[:, s + 1 :] = math.sqrt(2.0 / d) * roots.imag
    return np.concatenate((levels, levels[1:])), vecs


def free_spectrum(h: OperatorMatrix) -> Spectrum:
    """Closed-form eigensystem of the free Hamiltonian h, with no eigensolve.

    Level pi*k**2/d carries 1/sqrt(d) for k = 0 and the pair
    sqrt(2/d)*cos(2*pi*k*n/d), sqrt(2/d)*sin(2*pi*k*n/d) for k = 1..s,
    with k*n reduced mod d before scaling.  The kind check, the gauge,
    the tie order and the residual check against h are those of
    hermitian_eig at its default EIG_RESIDUAL_TOL, so a matrix that is
    not the free Hamiltonian fails the residual check with
    NumericalFailureError.
    """
    return _checked_spectrum(h, EIG_RESIDUAL_TOL, _free_eigenpairs)


def oscillator_hamiltonian(dim) -> OperatorMatrix:
    """H = (P**2 + Q**2) / 2 on the centered lattice.

    Q is diagonal, so H is the free Hamiltonian with q**2 / 2 added on
    its diagonal, q = sqrt(2*pi/d) * n over the centered labels.
    """
    dim = as_dimension(dim)
    h = free_hamiltonian(dim).entries.copy()
    q = math.sqrt(2.0 * math.pi / dim.d) * dim.indices().astype(float)
    h[np.diag_indices(dim.d)] += 0.5 * q * q
    return OperatorMatrix(dim, h, MatrixKind.HERMITIAN)


def quasi_eigen_residual(dim) -> QuasiEigenReport:
    """How close the kappa=1 wrapped Gaussian is to an oscillator eigenstate.

    lam = (H g_1)(0) / g_1(0) and residual = H g_1 - lam g_1, which is
    zero at n = 0 by construction and shrinks rapidly with d elsewhere.
    """
    dim = as_dimension(dim)
    g = finite_gaussian(dim, 1.0).values
    hg = oscillator_hamiltonian(dim).entries @ g
    lam = float(hg[dim.s] / g[dim.s])
    return QuasiEigenReport(dim, lam, hg - lam * g)


def uncertainty_product(dim, kappa: float) -> UncertaintyReport:
    """Spreads of g_kappa in position and momentum and the Schwarz gap.

    delta_p is computed on g_{1/kappa}, the exact Fourier transform of
    g_kappa up to scale.  half_comm is half the magnitude of the
    commutator expectation in the normalized state, accumulated as the
    explicit pair sum over j > l; it is cross-checked against the
    quadratic form with the full commutator matrix, and the report
    ships the pair-sum value.
    """
    dim = as_dimension(dim)
    d = dim.d
    ns = dim.indices().astype(float)

    g = finite_gaussian(dim, kappa).values
    gsq = float(np.dot(g, g))
    var_q = 2.0 * math.pi / d * float(np.dot(ns * ns * g, g)) / gsq

    gdual = finite_gaussian(dim, 1.0 / kappa).values
    gdualsq = float(np.dot(gdual, gdual))
    var_p = 2.0 * math.pi / d * float(np.dot(ns * ns * gdual, gdual)) / gdualsq

    kernel = _commutator_kernel(dim)
    # sum i*[Q, P] over j > l only, then the expectation carries a factor 2
    pair_sum = float(g @ (np.tril(kernel, -1) @ g))
    expect_mag = abs(2.0 * pair_sum / gsq)
    quad_mag = abs(float(g @ (kernel @ g)) / gsq)
    if abs(expect_mag - quad_mag) > HALF_COMM_CROSS_TOL:
        raise NumericalFailureError(
            "pair-sum and quadratic-form commutator expectations disagree: "
            f"{expect_mag!r} vs {quad_mag!r}"
        )

    delta_q = math.sqrt(var_q)
    delta_p = math.sqrt(var_p)
    product = delta_q * delta_p
    half_comm = 0.5 * expect_mag
    gap = product - half_comm
    if gap < -UNCERTAINTY_GAP_TOL:
        raise NumericalFailureError(f"uncertainty product violates its lower bound by {-gap:.3e}")
    return UncertaintyReport(dim, kappa, delta_q, delta_p, product, half_comm, gap)
