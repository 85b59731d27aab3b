"""Hermitian eigenanalysis and the operator-level consequences.

Holds the deterministic eigensolver contract used everywhere else,
the exact commutator of position with momentum, its rank-one
approximation, the oscillator Hamiltonian, and the uncertainty
bookkeeping for wrapped Gaussians.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, KindMismatchError, NumericalFailureError
from .hilbert import MatrixKind, OperatorMatrix, _lattice_kernel, momentum_operator, position_operator
from .lattice import Dimension, as_dimension
from .wrapped import finite_gaussian

EIG_RESIDUAL_TOL = 1e-10
HALF_COMM_CROSS_TOL = 1e-12


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (ascending) and phase-fixed orthonormal eigenvectors.

    eigenvectors[:, k] belongs to eigenvalues[k].  Each column is
    normalized so its largest-modulus component is real and positive;
    exact eigenvalue ties are ordered by that component's index.
    residual is max_k of the 2-norm of M v_k - lambda_k v_k.
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


def hermitian_eig(m: OperatorMatrix, residual_tol: float = EIG_RESIDUAL_TOL) -> Spectrum:
    """Full eigensystem of a Hermitian operator with a deterministic gauge.

    Raises NumericalFailureError if the solver fails to converge or the
    worst eigenpair residual exceeds residual_tol times the largest
    matrix entry.
    """
    if m.kind is not MatrixKind.HERMITIAN:
        raise KindMismatchError(f"eigensolver needs a hermitian operator, got {m.kind.value}")
    residual_tol = float(residual_tol)
    if not (math.isfinite(residual_tol) and residual_tol > 0.0):
        raise InvalidParameterError(f"residual_tol must be finite and positive, got {residual_tol}")
    try:
        vals, vecs = np.linalg.eigh(m.entries)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigensolver did not converge: {exc}") from exc

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


def commutator_qp(dim) -> OperatorMatrix:
    """Exact commutator [Q, P]; anti-Hermitian with zero diagonal.

    Off the diagonal the entries are
    -1j * (pi*(j-l)/d) * (-1)**(j-l) / sin(pi*(j-l)/d).
    """
    dim = as_dimension(dim)
    u, signs, sines = _lattice_kernel(dim)
    entries = -1j * signs * ((np.pi * u / dim.d) / sines)
    np.fill_diagonal(entries, 0.0)
    return OperatorMatrix(dim, entries, MatrixKind.GENERAL)


def commutator_spectrum(dim) -> Spectrum:
    """Spectrum of the Hermitian form -1j*[Q, P].

    Its eigenvalues are the imaginary parts of the commutator's
    spectrum; in the large-d bulk they pile up at +1.
    """
    dim = as_dimension(dim)
    c = commutator_qp(dim)
    return hermitian_eig(OperatorMatrix(dim, -1j * c.entries, MatrixKind.HERMITIAN))


def floratos_approx(dim) -> OperatorMatrix:
    """Rank-one-shift stand-in for [Q, P]: entries 1j*(-1)**(j-l)*(delta_jl - 1).

    Spectrum is 1j with multiplicity d-1 plus the single outlier
    (1-d)*1j, so it reproduces the commutator's bulk but not its tails.
    """
    dim = as_dimension(dim)
    _, signs, _ = _lattice_kernel(dim)
    entries = 1j * signs * (np.eye(dim.d) - 1.0)
    return OperatorMatrix(dim, entries, MatrixKind.GENERAL)


def free_hamiltonian(dim) -> OperatorMatrix:
    """H = P**2 / 2; its spectrum is pi*n**2/d over the centered labels."""
    dim = as_dimension(dim)
    p = momentum_operator(dim).entries
    return OperatorMatrix(dim, 0.5 * (p @ p), MatrixKind.HERMITIAN)


def oscillator_hamiltonian(dim) -> OperatorMatrix:
    """H = (P**2 + Q**2) / 2 on the centered lattice.

    Q is diagonal, so H is the free Hamiltonian with Q**2 / 2 added on
    its diagonal.
    """
    dim = as_dimension(dim)
    h = free_hamiltonian(dim).entries.copy()
    q = position_operator(dim).entries.diagonal().real
    h[np.diag_indices(dim.d)] += 0.5 * q * q
    return OperatorMatrix(dim, h, MatrixKind.HERMITIAN)


def quasi_eigen_residual(dim, term_tol: float = 1e-18) -> QuasiEigenReport:
    """How close the kappa=1 wrapped Gaussian is to an oscillator eigenstate.

    lam = (H g_1)(0) / g_1(0) and residual = H g_1 - lam g_1, which is
    zero at n = 0 by construction and shrinks rapidly with d elsewhere.
    """
    dim = as_dimension(dim)
    g = finite_gaussian(dim, 1.0, term_tol).values
    h = oscillator_hamiltonian(dim).entries
    hg = h @ g
    worst_imag = float(np.max(np.abs(hg.imag)))
    if worst_imag > 1e-12 * max(1.0, float(np.max(np.abs(hg.real)))):
        raise NumericalFailureError(
            f"oscillator action on a real vector left imaginary residue {worst_imag:.3e}",
            residual=worst_imag,
        )
    hg = hg.real
    lam = float(hg[dim.s] / g[dim.s])
    return QuasiEigenReport(dim, lam, hg - lam * g)


def uncertainty_product(dim, kappa: float, term_tol: float = 1e-18) -> UncertaintyReport:
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

    g = finite_gaussian(dim, kappa, term_tol).values
    gsq = float(np.dot(g, g))
    var_q = 2.0 * math.pi / d * float(np.dot(ns * ns * g, g)) / gsq

    gdual = finite_gaussian(dim, 1.0 / kappa, term_tol).values
    gdualsq = float(np.dot(gdual, gdual))
    var_p = 2.0 * math.pi / d * float(np.dot(ns * ns * gdual, gdual)) / gdualsq

    cross = commutator_qp(dim).entries
    # i*[Q, P] is the real kernel (-1)**u * (pi*u/d) / sin(pi*u/d); sum
    # over j > l only, then the expectation carries a factor 2
    pair_sum = float(g @ (np.tril((1j * cross).real, -1) @ g))
    expect_mag = abs(2.0 * pair_sum / gsq)
    quad_mag = abs(complex(g @ (cross @ g)) / gsq)
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
    if gap < -1e-12:
        raise NumericalFailureError(f"uncertainty product violates its lower bound by {-gap:.3e}")
    return UncertaintyReport(dim, kappa, delta_q, delta_p, product, half_comm, gap)
