"""State vectors and the basic operator algebra on C^d, d odd.

Index convention matches the lattice module: basis states are labelled
by centered representatives n = -s..s, stored with n = -s first.  The
Fourier kernel uses the positive sign,

    (F psi)(k) = d**-0.5 * sum_n exp(+2j*pi*k*n/d) * psi(n),

so that position maps to momentum as F Q F^dag = P.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateVectorError,
    DimensionMismatchError,
    InvalidParameterError,
    KindMismatchError,
    NumericalFailureError,
    PhasePointRangeError,
    UnsupportedOrderError,
)
from .lattice import Dimension, _check_capacity, _owned, _sealed, as_dimension
from .wrapped import _WINDOW_CAP, TERM_TOL, finite_gaussian

HERMITIAN_TOL = 1e-13
UNITARY_TOL = 1e-12


class MatrixKind(enum.Enum):
    HERMITIAN = "hermitian"
    UNITARY = "unitary"
    GENERAL = "general"


@dataclass(frozen=True)
class StateVector:
    """A vector in C^d over the centered lattice; amps is complex and kept by lattice._owned."""

    dim: Dimension
    amps: np.ndarray

    def __post_init__(self):
        amps = _owned(self.amps, complex)
        if amps.shape != (self.dim.d,):
            raise DimensionMismatchError(
                f"amplitude vector has shape {amps.shape}, lattice needs ({self.dim.d},)"
            )
        if not np.all(np.isfinite(amps.view(float))):
            raise InvalidParameterError("amplitudes must be finite")
        object.__setattr__(self, "amps", amps)

    def norm(self) -> float:
        with np.errstate(over="ignore"):  # a sum of squares past the float64 range reads as inf
            n = float(np.linalg.norm(self.amps))
            if math.isinf(n):  # scale by an exact power of two so the sum of squares fits
                n = float(np.linalg.norm(self.amps * 2.0**-600)) * 2.0**600
        return n

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n < 1e-150:
            raise DegenerateVectorError(f"cannot normalize a vector of norm {n}")
        if math.isinf(n):  # the norm itself overflows: normalize a copy scaled by 2**-600
            return StateVector(self.dim, _sealed(self.amps * 2.0**-600)).normalized()
        return StateVector(self.dim, _sealed(self.amps / n))


@dataclass(frozen=True)
class OperatorMatrix:
    """A d x d matrix tagged with its structural kind.

    entries is float64 if the input is real, else complex, and kept by lattice._owned.
    Construction verifies the tag: hermitian matrices must equal their
    adjoint to 1e-13 relative in the max norm, unitary matrices must
    satisfy M^dag M = I to 1e-12 in the max norm.  spectral.hermitian_eig
    keeps the Spectrum it solves, with max|entries|, in _spectrum; it is
    per object, and dataclasses.replace starts without it.
    """

    dim: Dimension
    entries: np.ndarray
    kind: MatrixKind = field(default=MatrixKind.GENERAL)
    _spectrum: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex if np.iscomplexobj(self.entries) else float)
        d = self.dim.d
        if entries.shape != (d, d):
            raise DimensionMismatchError(
                f"matrix has shape {entries.shape}, lattice needs ({d}, {d})"
            )
        if not np.all(np.isfinite(entries.view(float))):
            raise InvalidParameterError("matrix entries must be finite")
        kind = MatrixKind(self.kind)
        if kind is MatrixKind.HERMITIAN:
            scale = np.max(np.abs(entries))
            if scale > 0.0:
                dev = np.max(np.abs(entries - entries.conj().T))
                if dev > HERMITIAN_TOL * scale:
                    raise KindMismatchError(
                        f"matrix tagged hermitian deviates from its adjoint by {dev:.3e}"
                    )
        elif kind is MatrixKind.UNITARY:
            dev = np.max(np.abs(entries.conj().T @ entries - np.eye(d)))
            if dev > UNITARY_TOL:
                raise KindMismatchError(
                    f"matrix tagged unitary fails M^dag M = I by {dev:.3e}"
                )
        object.__setattr__(self, "entries", _owned(entries))  # after the check, so its temporaries are freed
        object.__setattr__(self, "kind", kind)

    def apply(self, state: StateVector) -> StateVector:
        if state.dim != self.dim:
            raise DimensionMismatchError("operator and state live on different lattices")
        return StateVector(self.dim, _sealed(self.entries @ state.amps))


@dataclass(frozen=True)
class PhasePoint:
    """A point (alpha, beta) of the d x d discrete phase space."""

    alpha: int
    beta: int

    def __post_init__(self):
        for name in ("alpha", "beta"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
                raise InvalidParameterError(f"{name} must be an integer, got {v!r}")
            object.__setattr__(self, name, int(v))

    def check_range(self, dim: Dimension) -> None:
        s = dim.s
        if abs(self.alpha) > s or abs(self.beta) > s:
            raise PhasePointRangeError(
                f"phase point ({self.alpha}, {self.beta}) outside centered range |.| <= {s}"
            )


def _roots(dim: Dimension, a, b) -> np.ndarray:
    """exp(2j*pi*a*b/d) over the outer product of labels a and b; a*b is reduced mod d first."""
    d = dim.d
    _check_capacity(np.size(a), np.size(b), 16)
    table = np.exp(2j * np.pi * np.arange(d) / d)
    table[dim.s + 1 :] = table[dim.s : 0 : -1].conj()  # entry d - j is conj(entry j), bit for bit
    return table[np.mod(np.multiply.outer(a, b), d)]


def _toeplitz(col: np.ndarray) -> np.ndarray:
    """The d x d matrix whose (j, l) entry is col[j - l + d - 1], for a symbol over u = 1-d..d-1."""
    d = (col.size + 1) // 2
    _check_capacity(d, d, col.itemsize)
    return np.lib.stride_tricks.sliding_window_view(col[::-1], d)[::-1].copy()


def fourier_matrix(dim) -> OperatorMatrix:
    """The unitary finite Fourier transform on the centered lattice, as a dense matrix."""
    dim = as_dimension(dim)
    n = dim.indices()
    entries = _roots(dim, n, n) / math.sqrt(dim.d)
    return OperatorMatrix(dim, _sealed(entries), MatrixKind.UNITARY)


def fourier_apply(state: StateVector, inverse: bool = False) -> StateVector:
    """Apply the finite Fourier transform (or its inverse) to a state by FFT."""
    # the kernel's positive sign is numpy's inverse FFT; labels roll so n = 0 comes first
    transform = np.fft.fft if inverse else np.fft.ifft
    amps = np.fft.fftshift(transform(np.fft.ifftshift(state.amps), norm="ortho"))
    return StateVector(state.dim, _sealed(amps))


def position_operator(dim) -> OperatorMatrix:
    """Q = sqrt(2*pi/d) * diag(n) over the centered labels."""
    dim = as_dimension(dim)
    _check_capacity(dim.d, dim.d, 8)
    q = math.sqrt(2.0 * math.pi / dim.d) * dim.indices().astype(float)
    return OperatorMatrix(dim, _sealed(np.diag(q)), MatrixKind.HERMITIAN)


def _lattice_symbol(dim: Dimension):
    """Label differences u = 1-d..d-1, the signs (-1)**u and sin(pi*u/d) with 1 at u = 0.

    An operator whose (j, l) entry depends only on u = j - l is _toeplitz of its symbol over u.
    """
    u = np.arange(1 - dim.d, dim.d)
    signs = np.where(u % 2 == 0, 1.0, -1.0)
    sines = np.sin(np.pi * u / dim.d)
    sines[dim.d - 1] = 1.0
    return u, signs, sines


def momentum_operator(dim) -> OperatorMatrix:
    """P = F Q F^dag in closed form.

    Entries are purely imaginary: p[j,l] = -(i/2) * sqrt(2*pi/d)
    * (-1)**(j-l) / sin(pi*(j-l)/d) off the diagonal, zero on it.
    """
    dim = as_dimension(dim)
    u, signs, sines = _lattice_symbol(dim)
    symbol = -0.5j * math.sqrt(2.0 * math.pi / dim.d) * signs / sines
    symbol[u == 0] = 0.0
    return OperatorMatrix(dim, _sealed(_toeplitz(symbol)), MatrixKind.HERMITIAN)


def _displacement_action(dim: Dimension, alpha: int, beta: int):
    """(D psi)[j] = phases[j] * psi[cols[j]] in storage order, for D = D(alpha, beta)."""
    d = dim.d
    b = np.asarray(beta)  # numpy scalar arithmetic: Python's complex division rounds differently
    phases = np.exp(-1j * np.pi * alpha * b / d) * _roots(dim, dim.indices(), b)
    cols = np.mod(np.arange(d) - alpha, d)
    return phases, cols


def coherent_state(dim, point: PhasePoint) -> StateVector:
    """Displaced normalized wrapped Gaussian with kappa = 1.

    The modulus is the kappa=1 wrapped Gaussian recentered at alpha;
    the phase is linear in the lattice label with frequency beta.
    """
    dim = as_dimension(dim)
    point.check_range(dim)
    g = finite_gaussian(dim, 1.0)
    base = g.values / math.sqrt(g.squared_norm())
    phases, cols = _displacement_action(dim, point.alpha, point.beta)
    return StateVector(dim, _sealed(phases * base[cols]))


def _frame_symbol(dim: Dimension) -> np.ndarray:
    """(1/d) times the sum of the d**2 coherent projectors, whose (j, l) entry is symbol[(j - l) % d].

    The phase exp(-1j*pi*alpha*beta/d) cancels in each projector, leaving R(u) * S(u) / d:
    R is the cyclic autocorrelation of the normalized g, and S(u)/d, with S(u) = sum_beta exp(2j*pi*beta*u/d),
    is the inverse DFT of the constant vector; both are taken by FFT.
    """
    g = finite_gaussian(dim, 1.0)
    base = g.values / math.sqrt(g.squared_norm())
    autocorrelation = np.fft.irfft(np.abs(np.fft.rfft(base)) ** 2, dim.d)
    return autocorrelation * np.fft.ifft(np.ones(dim.d))


def frame_resolution_residual(dim) -> float:
    """Max-norm deviation of (1/d) sum over all d**2 coherent projectors from I.

    Zero (to rounding) because the coherent family forms a tight frame.
    """
    dim = as_dimension(dim)
    return float(np.max(np.abs(_frame_symbol(dim) - (np.arange(dim.d) == 0))))


def _hermite_functions(x, count: int) -> np.ndarray:
    """The normalized Hermite functions psi_0..psi_{count-1} at the points x, one row per k.

    The normalized three-term recurrence runs on h_k = psi_k * exp(x**2/2): h_0 = pi**-0.25,
    h_{k+1} = sqrt(2/(k+1)) x h_k - sqrt(k/(k+1)) h_{k-1}.  Every 8 steps each point's pair
    (h_k, h_{k-1}) is divided by a power of two whose exponent the point keeps, and the factor
    exp(-x**2/2) is applied together with that exponent in log form, so no psi_k underflows before
    its value does (Bunck, BIT 49, 281, 2009).  Values below 2**-900 are returned as exact zeros.
    A table beyond lattice._MAX_ARRAY_BYTES raises CapacityExceededError before it is allocated.
    """
    ln2_hi, ln2_lo = 6.93147180369123816490e-01, 1.90821492927058770002e-10  # shift * ln2_hi is exact (Cody-Waite)
    x = np.asarray(x, dtype=float)
    _check_capacity(count, x.size, 8)
    out = np.empty((count,) + x.shape)
    half_square = 0.5 * x * x
    prev, h = np.zeros(x.shape), np.full(x.shape, math.pi**-0.25)
    shift = np.zeros(x.shape)  # psi_k = h_k * 2**shift * exp(-x**2/2)
    for start in range(0, count, 8):
        exponent = np.frexp(np.maximum(np.abs(h), np.abs(prev)))[1]
        h, prev = np.ldexp(h, -exponent), np.ldexp(prev, -exponent)
        shift += exponent
        stop = min(start + 8, count)
        for k in range(start, stop):
            out[k] = h
            prev, h = h, math.sqrt(2.0 / (k + 1)) * x * h - math.sqrt(k / (k + 1)) * prev
        out[start:stop] *= np.exp((shift * ln2_hi - half_square) + shift * ln2_lo)
    out[np.abs(out) < 2.0**-900] = 0.0  # subnormal entries would slow every later product
    return out


def mehta_eigenvector(dim, k: int) -> StateVector:
    """Unnormalized k-th discrete Hermite-Gaussian, a Fourier eigenvector.

    Built by periodizing exp(-x**2/2) * H_k(x) at x = sqrt(2*pi/d) * (alpha*d + n);
    satisfies F f_k = i**k f_k exactly in exact arithmetic.  The alpha-window
    grows until the first excluded term, at both edge points, is below
    TERM_TOL * max(1, |Phi(0)|).  Supported for k = 0..6; higher orders are
    refused, and a lattice too small to carry the requested order raises
    DegenerateVectorError.
    """
    dim = as_dimension(dim)
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise InvalidParameterError(f"order k must be an integer, got {k!r}")
    if k < 0 or k > 6:
        raise UnsupportedOrderError(f"order k = {k} outside the supported range 0..6")
    d, s = dim.d, dim.s
    step = math.sqrt(2.0 * math.pi / d)
    scale = math.sqrt(2.0**k * math.factorial(k) * math.sqrt(math.pi))  # scale * psi_k(x) = exp(-x**2/2) * H_k(x)

    # the window |alpha| <= A holds the terms at m = alpha*d + n, |m| < reach; m = +-reach are the first excluded
    halfwidth = 0
    while True:
        reach = halfwidth * d + s + 1
        terms = scale * _hermite_functions(step * np.arange(-reach, reach + 1.0), k + 1)[k]
        rows = terms[1:-1].reshape(2 * halfwidth + 1, d)  # rows[A + alpha][n + s]
        if max(abs(terms[0]), abs(terms[-1])) < TERM_TOL * max(1.0, abs(float(np.sum(rows[:, s])))):
            break
        halfwidth += 1
        if halfwidth > _WINDOW_CAP:
            raise NumericalFailureError("periodized sum window did not converge")
    # pairs (a, -a) summed from the outside in, so the sum is exactly even or odd in n
    values = sum((rows[halfwidth + a] + rows[halfwidth - a] for a in range(halfwidth, 0, -1)), np.zeros(d))
    values = values + rows[halfwidth]
    if float(np.linalg.norm(values)) < 1e-10:
        raise DegenerateVectorError(f"order-{k} vector on a lattice of size {dim.d} is numerically null")
    return StateVector(dim, values)
