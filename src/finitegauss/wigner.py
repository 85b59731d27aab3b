"""Discrete Wigner function of wrapped Gaussians and its factorized forms.

Three independent routes to the same d x d grid: the defining chord sum,
evaluated as a real FFT over the chord offset k; the exact two-term
product of wrapped Gaussians at doubled/halved widths; and the kappa=1
theta-product form, which matches them after scaling by (2*d**3)**-0.5.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailureError
from .lattice import _BLOCK_CELLS, Dimension, _check_capacity, _owned, _row_blocks, _sealed, as_dimension
from .wrapped import ThetaKind, _positive, finite_gaussian, shifted_finite_gaussian, theta

REALNESS_TOL = 1e-13


class WignerSource(enum.Enum):
    DEFINITION = "definition"
    CLOSED_FORM = "closed_form"
    THETA_FORM = "theta_form"


@dataclass(frozen=True)
class WignerGrid:
    """Real Wigner values over (n, m) in {-s..s}**2, rows indexed by n.

    fitted_scale is set only for the theta form: the exact constant
    c = (2*d**3)**-0.5 that scales its values to the kappa = 1 grid.
    values is kept by lattice._owned.
    """

    dim: Dimension
    kappa: float
    values: np.ndarray
    source: WignerSource
    fitted_scale: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", _owned(self.values))

    def value(self, n: int, m: int) -> float:
        return float(self.values[self.dim.offset(n), self.dim.offset(m)])


@dataclass(frozen=True)
class Marginals:
    """Row sums pos and column sums mom of a Wigner grid.  Both are kept by lattice._owned."""

    pos: np.ndarray
    mom: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pos", _owned(self.pos))
        object.__setattr__(self, "mom", _owned(self.mom))


def _two_products(a: np.ndarray, b: np.ndarray, c: np.ndarray, e: np.ndarray) -> np.ndarray:
    """outer(a, b) + outer(c, e), filled in blocks of rows so only one grid is held.

    Each cell is a[i]*b[j] + c[i]*e[j], rounded as the two outer products are.
    """
    grid = np.empty((a.size, b.size))
    for rows in _row_blocks(a.size, b.size, _BLOCK_CELLS):
        block = grid[rows]
        np.multiply(a[rows, None], b, out=block)
        block += c[rows, None] * e
    return grid


def wigner_definition(dim, kappa: float) -> WignerGrid:
    """Chord-sum Wigner grid of g_kappa.

        W(n, m) = (1/d) sum_k exp(4j*pi*m*k/d) g(n-k) g(n+k)

    The chords are real and even in k, so the k-sum is a real DFT read
    at frequency 2m mod d folded into 0..s.  It runs over blocks of rows
    n <= 0, each written into the one grid, and rows n > 0 are their
    mirror: g is exactly even, so row -n holds the same chords as row n.
    Its imaginary residue is checked against 1e-13 times the largest
    value and discarded.
    """
    dim = as_dimension(dim)
    kappa = _positive("kappa", kappa)
    d, s = dim.d, dim.s
    _check_capacity(d, d, 8)
    # row n + s of each factor is a window of three periods of g, over k = 0..d-1: the order the DFT reads
    periods = np.tile(finite_gaussian(dim, kappa).values, 3)
    ahead = np.lib.stride_tricks.sliding_window_view(periods, d)[d : 2 * d]  # g(n + k)
    behind = np.lib.stride_tricks.sliding_window_view(periods[::-1], d)[2 * d - 1 : d - 1 : -1]  # g(n - k)
    freq = np.mod(2 * dim.indices(), d)
    cols = np.minimum(freq, d - freq)
    grid = np.empty((d, d))
    top = residue = 0.0
    for rows in _row_blocks(s + 1, d, 4 * _BLOCK_CELLS):  # larger than _two_products' blocks: one rfft call each
        block = np.take(np.fft.rfft(ahead[rows] * behind[rows], axis=1) / d, cols, axis=1)
        top = max(top, float(np.max(np.abs(block))))
        residue = max(residue, float(np.max(np.abs(block.imag))))
        grid[rows] = block.real
    grid[s + 1 :] = grid[s - 1 :: -1]
    if residue > REALNESS_TOL * top:
        raise NumericalFailureError(
            f"Wigner grid of an even state has imaginary residue {residue:.3e}",
            residual=residue,
        )
    return WignerGrid(dim, kappa, _sealed(grid), WignerSource.DEFINITION)


def wigner_closed_form(dim, kappa: float) -> WignerGrid:
    """Exact factorized Wigner grid:

        W(n, m) = (2*kappa*d)**-0.5 * [ g_{2k}(n)  (g_{2/k}(m) + g+_{2/k}(m))
                                      + g+_{2k}(n) (g_{2/k}(m) - g+_{2/k}(m)) ]
    """
    dim = as_dimension(dim)
    kappa = _positive("kappa", kappa)
    _check_capacity(dim.d, dim.d, 8)
    gn = finite_gaussian(dim, 2.0 * kappa).values
    gn_plus = shifted_finite_gaussian(dim, 2.0 * kappa).values
    gm = finite_gaussian(dim, 2.0 / kappa).values
    gm_plus = shifted_finite_gaussian(dim, 2.0 / kappa).values
    grid = _two_products(gn, gm + gm_plus, gn_plus, gm - gm_plus)
    grid /= math.sqrt(2.0 * kappa * dim.d)
    return WignerGrid(dim, kappa, _sealed(grid), WignerSource.CLOSED_FORM)


def wigner_theta_form(dim) -> WignerGrid:
    """Theta-product Wigner grid for kappa = 1, up to one overall constant:

        W'(n, m) = theta3(n/d, 1/(2d)) theta3(2m/d, 2/d)
                 + theta4(n/d, 1/(2d)) theta2(2m/d, 2/d)

    fitted_scale holds the exact constant c = (2*d**3)**-0.5, so that
    c * W' is the kappa = 1 Wigner grid.  No other route is evaluated.
    """
    dim = as_dimension(dim)
    d = dim.d
    _check_capacity(d, d, 8)
    ns = dim.indices()
    col3 = theta(ThetaKind.THETA3, ns / d, 1.0 / (2.0 * d))
    col4 = theta(ThetaKind.THETA4, ns / d, 1.0 / (2.0 * d))
    row3 = theta(ThetaKind.THETA3, 2.0 * ns / d, 2.0 / d)
    row2 = theta(ThetaKind.THETA2, 2.0 * ns / d, 2.0 / d)
    grid = _two_products(col3, row3, col4, row2)
    return WignerGrid(dim, 1.0, _sealed(grid), WignerSource.THETA_FORM, fitted_scale=(2.0 * d**3) ** -0.5)


def wigner_marginals(w: WignerGrid) -> Marginals:
    """Row sums (position marginal) and column sums (momentum marginal)."""
    return Marginals(pos=_sealed(w.values.sum(axis=1)), mom=_sealed(w.values.sum(axis=0)))
