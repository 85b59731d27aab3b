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

from .errors import DimensionMismatchError, InvalidParameterError, KindMismatchError, NumericalFailureError
from .hilbert import MatrixKind, OperatorMatrix, StateVector, _lattice_symbol, _roots, _toeplitz
from .lattice import Dimension, _check_capacity, as_dimension
from .wrapped import TERM_TOL, finite_gaussian

EIG_RESIDUAL_TOL = 1e-10
HALF_COMM_CROSS_TOL = 1e-12
UNCERTAINTY_GAP_TOL = 1e-12  # how far product may fall below half_comm before it fails


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (ascending) and phase-fixed orthonormal eigenvectors.

    eigenvectors[:, k] belongs to eigenvalues[k]; there are K columns,
    1 <= K <= d, and any other shape raises DimensionMismatchError.  A
    Spectrum with K < d holds only some levels, so a state it evolves
    must lie in their span (see dynamics).  Each column is
    normalized so its largest-modulus component is real and positive;
    exact eigenvalue ties are ordered by that component's index.  The
    eigenvectors are float64 when the operator's entries are real and
    complex otherwise.  residual is max_k of the 2-norm of M v_k - lambda_k v_k,
    taken on the even and odd blocks solved when M is real and exactly
    parity even, each eigenvector then being exactly even or odd.
    """

    dim: Dimension
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual: float

    def __post_init__(self):
        k, shape = self.eigenvalues.size, self.eigenvectors.shape
        if self.eigenvalues.ndim != 1 or shape != (self.dim.d, k) or not 1 <= k <= self.dim.d:
            raise DimensionMismatchError(f"{k} eigenvalues and eigenvectors {shape} are not 1..{self.dim.d} levels")
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
    """Check m and residual_tol, solve m through _solved, fix the gauge, check the residual.

    The gauge only reorders the eigenpairs and rescales each by a unit
    phase (+-1 for real vectors), so it leaves the residual as it is.
    """
    if m.kind is not MatrixKind.HERMITIAN:
        raise KindMismatchError(f"eigensolver needs a hermitian operator, got {m.kind.value}")
    residual_tol = float(residual_tol)
    if not (math.isfinite(residual_tol) and residual_tol > 0.0):
        raise InvalidParameterError(f"residual_tol must be finite and positive, got {residual_tol}")
    vals, vecs, residual = _solved(m, solve)

    pivots = np.argmax(np.abs(vecs), axis=0)
    order = np.lexsort((pivots, vals))
    vals, vecs, pivots = vals[order], vecs[:, order], pivots[order]

    piv = vecs[pivots, np.arange(vecs.shape[1])]
    vecs = vecs * (piv.conj() / np.abs(piv))

    scale = float(np.max(np.abs(m.entries)))
    if residual > residual_tol * scale:
        raise NumericalFailureError(
            f"eigenpair residual {residual:.3e} exceeds {residual_tol:.1e} * {scale:.3e}",
            residual=residual,
        )
    return Spectrum(m.dim, vals, vecs, residual)


def _is_parity_even(h: np.ndarray) -> bool:
    """Whether h is real and equals its parity image h[::-1, ::-1] exactly."""
    return h.dtype.kind == "f" and np.array_equal(h, h[::-1, ::-1])


def _residual(a: np.ndarray, vals: np.ndarray, vecs: np.ndarray) -> float:
    """max_k of the 2-norm of a w_k - lambda_k w_k."""
    return float(np.max(np.linalg.norm(a @ vecs - vecs * vals, axis=0)))


def _solved(m: OperatorMatrix, solve):
    """(vals, vecs, residual) of m from solve(m, blocks), which returns (vals, w) per block.

    A real h = m.entries equal to its parity image is given as two
    blocks, h in the bases delta_0, (delta_n + delta_-n)/sqrt(2) (even)
    and (delta_n - delta_-n)/sqrt(2) (odd), n > 0; any other h is given
    whole.  Each block's eigenpairs are checked on that block; the bases
    are orthonormal, so the residual is that of h in exact arithmetic.
    """
    h = m.entries
    if _is_parity_even(h):
        s = m.dim.s
        up, down = h[s:, s:], h[s:, s::-1]
        even = up + down
        even[0, :] *= math.sqrt(0.5)
        even[:, 0] *= math.sqrt(0.5)
        blocks = (even, (up - down)[1:, 1:])
    else:
        blocks = (h,)
    pairs = solve(m, blocks)
    residual = max(_residual(a, vals, w) for a, (vals, w) in zip(blocks, pairs))
    vals, vecs = pairs[0] if len(pairs) == 1 else _mirrored(pairs)
    return vals, vecs, residual


def _mirrored(pairs):
    """(vals, vecs) on the lattice from the even and odd (vals, w) of _solved: even columns first.

    Blocks of any width.  v(0) is row 0 of an even w, v(n) is row n times sqrt(1/2), v(-n) = +-v(n).
    """
    (even_vals, even_w), (odd_vals, odd_w) = pairs
    s, ke = odd_w.shape[0], even_w.shape[1]
    _check_capacity(2 * s + 1, ke + odd_w.shape[1], 8)
    vecs = np.zeros((2 * s + 1, ke + odd_w.shape[1]))
    vecs[s, :ke] = even_w[0]
    vecs[s + 1 :, :ke] = math.sqrt(0.5) * even_w[1:]
    vecs[s + 1 :, ke:] = math.sqrt(0.5) * odd_w
    vecs[s - 1 :: -1, :ke] = vecs[s + 1 :, :ke]
    vecs[s - 1 :: -1, ke:] = -vecs[s + 1 :, ke:]
    return np.concatenate((even_vals, odd_vals)), vecs


def _parity_split_eigh(m: OperatorMatrix, blocks):
    """eigh of each block of m that _solved gives: its two parity blocks, or the whole matrix."""
    try:
        return [np.linalg.eigh(a) for a in blocks]
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigensolver did not converge: {exc}") from exc


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


def _hermite_blocks(dim: Dimension, count: int):
    """The Hermite functions k < count at x_n = sqrt(2*pi/d)*n, as the even and odd block bases of _solved.

    psi_0 = pi**-0.25 exp(-x**2/2), psi_{k+1} = sqrt(2/(k+1)) x psi_k - sqrt(k/(k+1)) psi_{k-1}.  Even k
    give the even block's columns over n = 0..s, odd k the odd block's over n = 1..s; rows n > 0 carry sqrt(2).
    """
    x = math.sqrt(2.0 * math.pi / dim.d) * np.arange(dim.s + 1)
    funcs = np.zeros((count + 1, dim.s + 1))  # row 0 stands for psi_{-1} = 0
    funcs[1] = math.pi**-0.25 * np.exp(-0.5 * x * x)
    for k in range(count - 1):
        funcs[k + 2] = math.sqrt(2.0 / (k + 1)) * x * funcs[k + 1] - math.sqrt(k / (k + 1)) * funcs[k]
    funcs[:, 1:] *= math.sqrt(2.0)
    return funcs[1::2].T, funcs[2::2, 1:].T


def _populated_spectrum(h: OperatorMatrix, psi: StateVector) -> Spectrum:
    """The levels of the oscillator h that psi populates, by Rayleigh-Ritz on Hermite functions.

    The Ritz space is the first K functions of _hermite_blocks, orthonormalized by QR in each parity
    block.  One QR of all d // 8 functions and c = Q^T psi measure what each K misses: the part of psi
    outside the first K columns has squared norm |psi - Q c|**2 plus the sum of |c_j|**2 over the later
    columns, a sum of orthogonal parts.  K is the smallest count from 8 to d // 8 whose later columns
    hold no more of psi than lies outside all d // 8, so K misses at most sqrt(2) times what the cap
    misses: rounding, for a coherent state.  The cap keeps every turning point sqrt(2K + 1) below 0.4
    times the lattice half-width sqrt(pi*d/2), in position and by self-duality in momentum.
    hermitian_eig(h) runs instead when K reaches the cap (the expansion has not settled; so for every
    d < 72) or misses more than sqrt(TERM_TOL)*|psi|.  The K x K blocks are solved by eigh, and the
    Ritz pairs assembled by _mirrored pass the gauge and the residual check of hermitian_eig against h.
    """
    s, cap = h.dim.s, h.dim.d // 8
    if cap <= 8:
        return hermitian_eig(h)
    amps = psi.amps
    parts = ((amps[s:] + amps[s::-1]) * math.sqrt(0.5), (amps[s + 1 :] - amps[s - 1 :: -1]) * math.sqrt(0.5))
    parts[0][0] = amps[s]
    bases = [np.linalg.qr(b)[0] for b in _hermite_blocks(h.dim, cap)]
    coeffs = [q.T @ part for q, part in zip(bases, parts)]
    outside = sum(float(np.linalg.norm(part - q @ c)) ** 2 for q, part, c in zip(bases, parts, coeffs))
    # tails[b][j]: the squared norm of c over columns j.. of block b; both are 0 at the cap
    tails = [np.append(np.cumsum(np.abs(c[::-1]) ** 2)[::-1], 0.0) for c in coeffs]
    counts = np.arange(8, cap + 1)
    later = tails[0][(counts + 1) // 2] + tails[1][counts // 2]
    k = int(counts[np.argmax(later <= outside)])
    if k == cap or outside + later[k - 8] > TERM_TOL * psi.norm() ** 2:
        return hermitian_eig(h)
    spans = (bases[0][:, : (k + 1) // 2], bases[1][:, : k // 2])

    def ritz(m, blocks):  # the oscillator is exactly parity even, so _solved gives two blocks
        small = _parity_split_eigh(m, [q.T @ (a @ q) for a, q in zip(blocks, spans)])
        return [(vals, q @ y) for q, (vals, y) in zip(spans, small)]

    return _checked_spectrum(h, EIG_RESIDUAL_TOL, ritz)


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


def _free_entries(dim: Dimension) -> np.ndarray:
    """The entries of P**2 / 2 as a fresh, writable array; see free_hamiltonian."""
    d, s = dim.d, dim.s
    col = np.fft.irfft(_free_levels(dim), n=d)
    col[d - s :] = col[s:0:-1]
    return _toeplitz(np.concatenate((col[1:], col)))


def free_hamiltonian(dim) -> OperatorMatrix:
    """H = P**2 / 2, real symmetric; its spectrum is pi*n**2/d over the centered labels.

    P**2 is circulant: P = F Q F^dag, so H[j, l] = col[(j - l) mod d]
    with col the inverse DFT of the levels.  The column is mirrored,
    col[d - u] = col[u], so that H is exactly symmetric and even under
    parity, and extended periodically to the symbol over u = 1-d..d-1.
    """
    dim = as_dimension(dim)
    return OperatorMatrix(dim, _free_entries(dim), MatrixKind.HERMITIAN)


def _free_eigenpairs(m: OperatorMatrix, blocks):
    """The closed-form free modes in the coordinates of the blocks _solved gives.

    The even block's are 2/sqrt(d) * cos(2*pi*k*n/d), n, k = 0..s, with
    row and column 0 scaled by sqrt(1/2); the odd block's are
    2/sqrt(d) * sin(2*pi*k*n/d), n, k = 1..s.  A whole matrix gets them assembled.
    """
    s = m.dim.s
    levels = _free_levels(m.dim)
    roots = _roots(m.dim, np.arange(s + 1), np.arange(s + 1))
    even = (2.0 / math.sqrt(m.dim.d)) * roots.real
    even[0, :] *= math.sqrt(0.5)
    even[:, 0] *= math.sqrt(0.5)
    odd = (2.0 / math.sqrt(m.dim.d)) * roots.imag[1:, 1:]
    pairs = [(levels, even), (levels[1:], odd)]
    return pairs if len(blocks) == 2 else [_mirrored(pairs)]


def free_spectrum(h: OperatorMatrix) -> Spectrum:
    """Closed-form eigensystem of the free Hamiltonian h, with no eigensolve.

    Level pi*k**2/d carries 1/sqrt(d) for k = 0 and the pair
    sqrt(2/d)*cos(2*pi*k*n/d), sqrt(2/d)*sin(2*pi*k*n/d) for k = 1..s,
    with k*n reduced mod d before scaling.  They are built on the parity
    blocks and mirrored, so they are exactly even or odd.  The kind check, the gauge,
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
    h = _free_entries(dim)
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
