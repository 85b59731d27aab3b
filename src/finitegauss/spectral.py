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
from .hilbert import (
    MatrixKind,
    OperatorMatrix,
    StateVector,
    _hermite_functions,
    _lattice_symbol,
    _roots,
    _toeplitz,
)
from .lattice import Dimension, _check_capacity, _owned, _sealed, as_dimension
from .wrapped import TERM_TOL, _positive, finite_gaussian

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
    Both arrays are kept by lattice._owned.
    """

    dim: Dimension
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual: float

    def __post_init__(self):
        k, shape = self.eigenvalues.size, self.eigenvectors.shape
        if self.eigenvalues.ndim != 1 or shape != (self.dim.d, k) or not 1 <= k <= self.dim.d:
            raise DimensionMismatchError(f"{k} eigenvalues and eigenvectors {shape} are not 1..{self.dim.d} levels")
        for name in ("eigenvalues", "eigenvectors"):
            object.__setattr__(self, name, _owned(getattr(self, name)))


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
    the defect vanishes at n = 0.  residual is kept by lattice._owned.
    """

    dim: Dimension
    lam: float
    residual: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "residual", _owned(self.residual))


def _checked_spectrum(dim: Dimension, blocks, scale: float, solve) -> Spectrum:
    """The Spectrum of a Hermitian operator, largest entry scale, from its blocks: solved, gauged and checked."""
    return _checked(_solved(dim, blocks, solve), scale)


def _solved(dim: Dimension, blocks, solve) -> Spectrum:
    """The gauged Spectrum of a Hermitian operator from its blocks, not yet checked (see _checked).

    blocks are the whole matrix, or its even and odd blocks (see _matrix_blocks).  solve(dim, blocks)
    returns (vals, w) per block; each block's residual is taken on that block, and two blocks' pairs
    are assembled by _mirrored.
    """
    pairs = solve(dim, blocks)
    residual = max(_residual(a, vals, w) for a, (vals, w) in zip(blocks, pairs))
    return _gauged(dim, pairs, residual)


def _checked(spectrum: Spectrum, scale: float, residual_tol: float = EIG_RESIDUAL_TOL) -> Spectrum:
    """spectrum, once its residual is at most residual_tol times the largest entry scale of its operator."""
    if spectrum.residual > residual_tol * scale:
        raise NumericalFailureError(
            f"eigenpair residual {spectrum.residual:.3e} exceeds {residual_tol:.1e} * {scale:.3e}",
            residual=spectrum.residual,
        )
    return spectrum


def _gauged(dim: Dimension, pairs, residual: float) -> Spectrum:
    """The Spectrum of the solved (vals, w) of one or two blocks, gauged, with the residual they were solved to.

    The gauge only reorders the eigenpairs and rescales each by a unit phase (+-1 for real vectors),
    so it leaves the residual as it is.  Its arrays are fresh, so the Spectrum takes them over uncopied.
    """
    if len(pairs) == 1:
        vals, vecs = pairs[0]
        pivots = np.argmax(np.abs(vecs), axis=0)
    else:  # mirrored columns have |v(-n)| = |v(n)| bit for bit, so the first maximum lies at n <= 0
        vals, vecs = _mirrored(pairs)
        pivots = np.argmax(np.abs(vecs[: dim.s + 1]), axis=0)

    order = np.lexsort((pivots, vals))
    vals, vecs, pivots = vals[order], vecs[:, order], pivots[order]

    piv = vecs[pivots, np.arange(vecs.shape[1])]
    vecs = vecs * (piv.conj() / np.abs(piv))
    return Spectrum(dim, _sealed(vals), _sealed(vecs), residual)


def _is_parity_even(h: np.ndarray) -> bool:
    """Whether h is real and equals its parity image h[::-1, ::-1] exactly."""
    return h.dtype.kind == "f" and np.array_equal(h, h[::-1, ::-1])


def _residual(a: np.ndarray, vals: np.ndarray, vecs: np.ndarray) -> float:
    """max_k of the 2-norm of a w_k - lambda_k w_k."""
    return float(np.max(np.linalg.norm(a @ vecs - vecs * vals, axis=0)))


def _matrix_blocks(m: OperatorMatrix):
    """The blocks of the Hermitian m that _checked_spectrum solves, and max|m|.

    A real h = m.entries equal to its parity image is given as its two
    _parity_blocks; any other h is given whole.  The bases are
    orthonormal, so a block's residual is that of h in exact arithmetic.
    """
    if m.kind is not MatrixKind.HERMITIAN:
        raise KindMismatchError(f"eigensolver needs a hermitian operator, got {m.kind.value}")
    h, s = m.entries, m.dim.s
    blocks = _parity_blocks(h[s:, s:], h[s:, s::-1], h.diagonal()[s:]) if _is_parity_even(h) else (h,)
    return blocks, float(np.max(np.abs(h)))


def _parity_blocks(up: np.ndarray, down: np.ndarray, diag: np.ndarray):
    """A real parity-even H in the bases delta_0, (delta_n + delta_-n)/sqrt(2) (even) and (delta_n - delta_-n)/sqrt(2)
    (odd), n > 0, from the views up[i, j] = H[i, j] and down[i, j] = H[i, -j], i, j = 0..s.

    H[n, n] is read from diag alone, also where down meets it at n = 0, so a symbol's windows stand in for up and down.
    """
    steps = down.diagonal().copy()  # H[n, -n]
    steps[0] = diag[0]
    even = up + down
    even[np.diag_indices(diag.size)] = diag + steps
    even[0, :] *= math.sqrt(0.5)
    even[:, 0] *= math.sqrt(0.5)
    odd = up[1:, 1:] - down[1:, 1:]
    odd[np.diag_indices(diag.size - 1)] = diag[1:] - steps[1:]
    return even, odd


def _folded(v: np.ndarray):
    """The rows of v in the bases of _parity_blocks: v(0), then (v(n) +- v(-n)) * sqrt(1/2), n > 0, along axis 0."""
    s = v.shape[0] // 2
    even = (v[s:] + v[s::-1]) * math.sqrt(0.5)
    even[0] = v[s]
    return even, (v[s + 1 :] - v[s - 1 :: -1]) * math.sqrt(0.5)


def _mirrored(pairs):
    """(vals, vecs) on the lattice from the even and odd (vals, w) of _matrix_blocks: even columns first.

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


def _parity_split_eigh(dim: Dimension, blocks):
    """eigh of each block that _checked_spectrum is given: the two parity blocks, or the whole matrix."""
    try:
        return [np.linalg.eigh(a) for a in blocks]
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigensolver did not converge: {exc}") from exc


def hermitian_eig(m: OperatorMatrix, residual_tol: float = EIG_RESIDUAL_TOL) -> Spectrum:
    """Full eigensystem of a Hermitian operator with a deterministic gauge.

    Real entries give float64 eigenvectors.  A real matrix that equals
    its parity image h[::-1, ::-1] exactly is solved as two real blocks,
    even and odd under n -> -n; any other matrix goes to one dense eigh.

    Each OperatorMatrix is solved once: the first call that gets past the
    kind check and the solver keeps the Spectrum on m, and every later call
    returns that same object, so m keeps at most one more d x d array for
    its lifetime.  An equal matrix built anew is solved anew.  Every call
    validates residual_tol before any solve and checks the kept residual
    against it.  A partial or closed-form spectrum (free_spectrum) is still
    handed to the dynamics by their spectrum= argument.

    Raises NumericalFailureError if the solver fails to converge or the
    worst eigenpair residual exceeds residual_tol times the largest
    matrix entry.
    """
    residual_tol = _positive("residual_tol", residual_tol)
    if m._spectrum is None:
        blocks, scale = _matrix_blocks(m)
        object.__setattr__(m, "_spectrum", (_solved(m.dim, blocks, _parity_split_eigh), scale))
    spectrum, scale = m._spectrum
    return _checked(spectrum, scale, residual_tol)


@dataclass(frozen=True)
class _ToeplitzForm:
    """The real operator H[j, l] = symbol[j - l + d - 1] plus potential[j] on the diagonal, with no d x d array.

    symbol runs over u = 1-d..d-1 and potential over n = -s..s; None stands for -0.0, which adds to every
    float without changing a bit, where 0.0 would turn the commutator's -0.0 into 0.0.  Construction checks in
    O(d) what OperatorMatrix's HERMITIAN tag and finiteness scan, and _is_parity_even, check of the dense
    matrix in O(d**2): both arrays are finite and exactly even, so H is real symmetric and equals its
    parity image.  A NaN raises InvalidParameterError and an array that is not exactly even
    KindMismatchError, the errors of the dense tag check.
    """

    dim: Dimension
    symbol: np.ndarray
    potential: np.ndarray | None = None

    def __post_init__(self):
        if self.potential is None:
            object.__setattr__(self, "potential", np.full(self.dim.d, -0.0))
        parts = (self.symbol, self.potential)
        if not all(np.all(np.isfinite(a)) for a in parts):
            raise InvalidParameterError("matrix entries must be finite")
        if not all(np.array_equal(a, a[::-1]) for a in parts):
            raise KindMismatchError("symbol or potential is not exactly even: H is not symmetric and parity even")

    def _diagonal(self) -> np.ndarray:
        """H[n, n] over n = -s..s: symbol(0), plus the potential as the dense builders add it."""
        return self.symbol[self.dim.d - 1] + self.potential

    def entries(self) -> np.ndarray:
        """H as a fresh, writable d x d array."""
        h = _toeplitz(self.symbol)
        h[np.diag_indices(self.dim.d)] += self.potential
        return h

    def scale(self) -> float:
        """max|H|: each symbol value off u = 0 is an entry, and the diagonal holds the rest."""
        off = np.abs(self.symbol[: self.dim.d - 1])  # u < 0; the symbol is even
        return float(max(np.max(off), np.max(np.abs(self._diagonal()))))

    def blocks(self):
        """The even and odd blocks that _matrix_blocks takes from the dense H, bit for bit.

        With T(u) the symbol, the _parity_blocks views are up[i, j] = T(i - j) and down[i, j] = T(i + j)
        over i, j = 0..s, off the diagonal of H, which is given whole.
        """
        d, s = self.dim.d, self.dim.s
        _check_capacity(s + 1, s + 1, 8)
        windows = np.lib.stride_tricks.sliding_window_view(self.symbol, s + 1)  # windows[k, j] = T(k + j - d + 1)
        return _parity_blocks(windows[s:d][::-1], windows[d - 1 :], self._diagonal()[s:])


def _form_eig(form: _ToeplitzForm) -> Spectrum:
    """hermitian_eig of the dense form.entries(), the same bits, from the blocks the form gives."""
    return _checked_spectrum(form.dim, form.blocks(), form.scale(), _parity_split_eigh)


def _hermite_blocks(dim: Dimension, count: int):
    """The Hermite functions k < count at x_n = sqrt(2*pi/d)*n, as the even and odd block bases of _matrix_blocks.

    Even k give the even block's columns over n = 0..s, odd k the odd block's over n = 1..s; rows n > 0
    carry sqrt(2).  The functions come from _hermite_functions, so far states keep their norm at large d.
    """
    funcs = _hermite_functions(math.sqrt(2.0 * math.pi / dim.d) * np.arange(dim.s + 1), count)
    funcs[:, 1:] *= math.sqrt(2.0)
    return funcs[0::2].T, funcs[1::2, 1:].T


def _populated_spectrum(psi: StateVector) -> Spectrum | None:
    """The levels of the oscillator that psi populates, by Rayleigh-Ritz on Hermite functions, or None.

    The Ritz space is the first K functions of _hermite_blocks, orthonormalized by QR in each parity
    block.  One QR of all d // 8 functions and c = Q^T psi measure what each K misses: the part of psi
    outside the first K columns has squared norm |psi - Q c|**2 plus the sum of |c_j|**2 over the later
    columns, a sum of orthogonal parts.  K is the smallest count from 8 to d // 8 whose later columns
    hold no more of psi than lies outside all d // 8, so K misses at most sqrt(2) times what the cap
    misses: rounding, for a coherent state.  The cap keeps every turning point sqrt(2K + 1) below 0.4
    times the lattice half-width sqrt(pi*d/2), in position and by self-duality in momentum.
    None is returned when K reaches the cap (the expansion has not settled; so for every d < 72) or
    misses more than sqrt(TERM_TOL)*|psi|: the caller then solves oscillator_hamiltonian(d) whole.
    Otherwise no d x d array is built: H Q comes from one _folded_oscillator_apply of both blocks'
    columns, O(K d log d) in time and O(K d) in memory (the selection above holds the d // 8
    functions).  The K x K blocks Q^T H Q are solved by eigh, and the Ritz pairs (lambda, Q y),
    assembled by _mirrored, pass the gauge and the EIG_RESIDUAL_TOL * max|H| residual check of
    hermitian_eig, with the residual H Q y - lambda Q y taken as (H Q) y - lambda Q y.
    """
    dim = psi.dim
    cap = dim.d // 8
    if cap <= 8:
        return None
    parts = _folded(psi.amps)
    bases = [np.linalg.qr(b)[0] for b in _hermite_blocks(dim, cap)]
    coeffs = [q.T @ part for q, part in zip(bases, parts)]
    outside = sum(float(np.linalg.norm(part - q @ c)) ** 2 for q, part, c in zip(bases, parts, coeffs))
    # tails[b][j]: the squared norm of c over columns j.. of block b; both are 0 at the cap
    tails = [np.append(np.cumsum(np.abs(c[::-1]) ** 2)[::-1], 0.0) for c in coeffs]
    counts = np.arange(8, cap + 1)
    later = tails[0][(counts + 1) // 2] + tails[1][counts // 2]
    k = int(counts[np.argmax(later <= outside)])
    if k == cap or outside + later[k - 8] > TERM_TOL * psi.norm() ** 2:
        return None
    spans = (bases[0][:, : (k + 1) // 2], bases[1][:, : k // 2])
    hqs = _folded_oscillator_apply(dim, *spans)
    small = _parity_split_eigh(dim, [q.T @ hq for q, hq in zip(spans, hqs)])
    pairs = [(vals, q @ y) for q, (vals, y) in zip(spans, small)]
    residual = max(float(np.max(np.linalg.norm(hq @ y - w * vals, axis=0)))
                   for hq, (_, y), (vals, w) in zip(hqs, small, pairs))
    return _checked(_gauged(dim, pairs, residual), _oscillator_form(dim).scale())


def _commutator_symbol(dim: Dimension) -> np.ndarray:
    """The symbol of the real matrix 1j*[Q, P]: (-1)**u * (pi*u/d) / sin(pi*u/d), zero at u = 0."""
    u, signs, sines = _lattice_symbol(dim)
    symbol = signs * ((np.pi * u / dim.d) / sines)
    symbol[u == 0] = 0.0
    return symbol


def commutator_qp(dim) -> OperatorMatrix:
    """Exact commutator [Q, P]; anti-Hermitian with zero diagonal.

    Off the diagonal the entries are
    -1j * (pi*(j-l)/d) * (-1)**(j-l) / sin(pi*(j-l)/d).
    """
    dim = as_dimension(dim)
    return OperatorMatrix(dim, _sealed(-1j * _toeplitz(_commutator_symbol(dim))), MatrixKind.GENERAL)


def commutator_spectrum(dim) -> Spectrum:
    """Spectrum of the Hermitian form -1j*[Q, P], a real symmetric matrix.

    Its eigenvalues are the imaginary parts of the commutator's
    spectrum; in the large-d bulk they pile up at +1.
    """
    dim = as_dimension(dim)
    return _form_eig(_ToeplitzForm(dim, -_commutator_symbol(dim)))


def floratos_approx(dim) -> OperatorMatrix:
    """Rank-one-shift stand-in for [Q, P]: entries 1j*(-1)**(j-l)*(delta_jl - 1).

    Spectrum is 1j with multiplicity d-1 plus the single outlier
    (1-d)*1j, so it reproduces the commutator's bulk but not its tails.
    """
    dim = as_dimension(dim)
    u, signs, _ = _lattice_symbol(dim)
    return OperatorMatrix(dim, _sealed(_toeplitz(1j * signs * ((u == 0) - 1.0))), MatrixKind.GENERAL)


def _free_levels(dim: Dimension) -> np.ndarray:
    """pi*k**2/d for k = 0..s."""
    k = np.arange(dim.s + 1)
    return np.pi * (k * k) / dim.d


def _free_symbol(dim: Dimension) -> np.ndarray:
    """The symbol of P**2 / 2 over u = 1-d..d-1; see free_hamiltonian."""
    d, s = dim.d, dim.s
    col = np.fft.irfft(_free_levels(dim), n=d)
    col[d - s :] = col[s:0:-1]
    return np.concatenate((col[1:], col))


def free_hamiltonian(dim) -> OperatorMatrix:
    """H = P**2 / 2, real symmetric; its spectrum is pi*n**2/d over the centered labels.

    P**2 is circulant: P = F Q F^dag, so H[j, l] = col[(j - l) mod d]
    with col the inverse DFT of the levels.  The column is mirrored,
    col[d - u] = col[u], so that H is exactly symmetric and even under
    parity, and extended periodically to the symbol over u = 1-d..d-1.
    """
    dim = as_dimension(dim)
    return OperatorMatrix(dim, _sealed(_toeplitz(_free_symbol(dim))), MatrixKind.HERMITIAN)


def _free_eigenpairs(dim: Dimension, blocks):
    """The closed-form free modes in the coordinates of the blocks _matrix_blocks gives.

    The even block's are 2/sqrt(d) * cos(2*pi*k*n/d), n, k = 0..s, with
    row and column 0 scaled by sqrt(1/2); the odd block's are
    2/sqrt(d) * sin(2*pi*k*n/d), n, k = 1..s.  A whole matrix gets them assembled.
    """
    s = dim.s
    levels = _free_levels(dim)
    roots = _roots(dim, np.arange(s + 1), np.arange(s + 1))
    even = (2.0 / math.sqrt(dim.d)) * roots.real
    even[0, :] *= math.sqrt(0.5)
    even[:, 0] *= math.sqrt(0.5)
    odd = (2.0 / math.sqrt(dim.d)) * roots.imag[1:, 1:]
    pairs = [(levels, even), (levels[1:], odd)]
    return pairs if len(blocks) == 2 else [_mirrored(pairs)]


def _free_coefficients(psi: StateVector):
    """The levels of free_spectrum and the amplitudes of psi on its modes, by one FFT and no d x d array.

    With f(k) = sum_n psi(n) exp(-2j*pi*k*n/d), psi's amplitude is f(0)/sqrt(d) on the constant
    mode, and (f(k) + f(-k))/sqrt(2d) and 1j*(f(k) - f(-k))/sqrt(2d) on the cos and sin modes of
    level k = 1..s.  The levels ascend, as free_spectrum's do, with the cos mode first at each.
    """
    d, s = psi.dim.d, psi.dim.s
    f = np.fft.fft(np.fft.ifftshift(psi.amps))  # f(k) at index k mod d
    up, down = f[1 : s + 1], f[:s:-1]
    coeffs = np.empty(d, dtype=complex)
    coeffs[0] = f[0] / math.sqrt(d)
    coeffs[1::2] = (up + down) / math.sqrt(2.0 * d)
    coeffs[2::2] = 1j * (up - down) / math.sqrt(2.0 * d)
    return np.repeat(_free_levels(psi.dim), 2)[1:], coeffs


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
    return _checked_spectrum(h.dim, *_matrix_blocks(h), _free_eigenpairs)


def oscillator_hamiltonian(dim) -> OperatorMatrix:
    """H = (P**2 + Q**2) / 2 on the centered lattice.

    Q is diagonal, so H is the free Hamiltonian with q**2 / 2 added on
    its diagonal, q = sqrt(2*pi/d) * n over the centered labels.
    """
    dim = as_dimension(dim)
    return OperatorMatrix(dim, _sealed(_oscillator_form(dim).entries()), MatrixKind.HERMITIAN)


def _oscillator_potential(dim: Dimension) -> np.ndarray:
    """q**2 / 2 over n = -s..s, q = sqrt(2*pi/d) * n."""
    q = math.sqrt(2.0 * math.pi / dim.d) * dim.indices().astype(float)
    return 0.5 * q * q


def _oscillator_form(dim: Dimension) -> _ToeplitzForm:
    """oscillator_hamiltonian as its kinetic symbol, that of P**2 / 2, and the potential q**2 / 2."""
    return _ToeplitzForm(dim, _free_symbol(dim), _oscillator_potential(dim))


def _oscillator_apply(dim: Dimension, rows: np.ndarray) -> np.ndarray:
    """H v for each row v of the real array rows, (K, d) or (d,), as the paper writes H = (P**2 + Q**2) / 2.

    P = F Q F^dag, so P**2 / 2 multiplies mode k of the rfft by the free level pi*k**2/d, and Q**2 / 2 multiplies
    v(n) by q**2 / 2.  O(K d log d) time and O(K d) memory, fastest with the rows contiguous along the lattice.
    """
    modes = np.fft.rfft(rows)
    modes *= _free_levels(dim)  # in place: one complex temporary fewer at the peak
    hv = np.fft.irfft(modes, n=dim.d)
    hv += _oscillator_potential(dim) * rows
    return hv


def _folded_oscillator_apply(dim: Dimension, even_w: np.ndarray, odd_w: np.ndarray):
    """(E @ even_w, O @ odd_w) for the oscillator's even and odd blocks E and O of _matrix_blocks, by one apply.

    A column w of a block is the lattice vector with v(0) = w[0] and v(+-n) = w[n] * sqrt(1/2) (even),
    or v(+-n) = +-w[n] * sqrt(1/2) (odd).  Column j of both blocks shares one row of the apply, and
    H v is _folded back.  H keeps each parity, so each fold keeps its own block's part, up to rounding.
    """
    s, half = dim.s, math.sqrt(0.5)
    ke, ko = even_w.shape[1], odd_w.shape[1]
    rows = np.zeros((max(ke, ko), 2 * s + 1))
    rows[:ke, s] = even_w[0]
    rows[:ke, s + 1 :] = half * even_w[1:].T
    rows[:ke, :s] = rows[:ke, : s : -1]
    odd = half * odd_w.T
    rows[:ko, s + 1 :] += odd
    rows[:ko, :s] -= odd[:, ::-1]
    even, odd = _folded(_oscillator_apply(dim, rows).T)
    return even[:, :ke], odd[:, :ko]


def quasi_eigen_residual(dim) -> QuasiEigenReport:
    """How close the kappa=1 wrapped Gaussian is to an oscillator eigenstate.

    lam = (H g_1)(0) / g_1(0) and residual = H g_1 - lam g_1, which is
    zero at n = 0 by construction and shrinks rapidly with d elsewhere.
    H g_1 comes from _oscillator_apply, so no d x d array is built.
    """
    dim = as_dimension(dim)
    g = finite_gaussian(dim, 1.0).values
    hg = _oscillator_apply(dim, g)
    lam = float(hg[dim.s] / g[dim.s])
    return QuasiEigenReport(dim, lam, _sealed(hg - lam * g))


def uncertainty_product(dim, kappa: float) -> UncertaintyReport:
    """Spreads of g_kappa in position and momentum and the Schwarz gap.

    delta_p is computed on g_{1/kappa}, the exact Fourier transform of
    g_kappa up to scale.  half_comm is half the magnitude of the
    commutator expectation in the normalized state, accumulated as the
    explicit pair sum over j > l; it is cross-checked against the
    quadratic form with the full commutator, and the report ships the
    pair-sum value.  -i[Q, P] commutes with F, so both sums run on the
    narrower of g_kappa and g_{1/kappa}, as convolutions with the
    commutator's symbol: no d x d array is built.
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

    # (i*[Q, P] g)[j] = sum_l symbol(j - l) g[l], a convolution of g with the symbol over u = 1-d..d-1;
    # the pair sum keeps j > l only (u > 0), so the expectation carries a factor 2
    g, gsq = (g, gsq) if kappa >= 1.0 else (gdual, gdualsq)
    symbol = _commutator_symbol(dim)
    pair_sum = float(g[1:] @ np.convolve(g, symbol[d:])[: d - 1])
    expect_mag = abs(2.0 * pair_sum / gsq)
    quad_mag = abs(float(g @ np.convolve(g, symbol, "valid")) / gsq)  # "valid": the d rows j = 0..d-1
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
