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
from .lattice import Dimension, as_dimension
from .wrapped import ThetaKind, _check_kappa, finite_gaussian, shifted_finite_gaussian, theta

REALNESS_TOL = 1e-13
# cells per block of a filled grid: the one temporary block stays in cache
_BLOCK_CELLS = 4096


class WignerSource(enum.Enum):
    DEFINITION = "definition"
    CLOSED_FORM = "closed_form"
    THETA_FORM = "theta_form"


@dataclass(frozen=True)
class WignerGrid:
    """Real Wigner values over (n, m) in {-s..s}**2, rows indexed by n.

    fitted_scale is set only for the theta form: the exact constant
    c = (2*d**3)**-0.5 that scales its values to the kappa = 1 grid.
    """

    dim: Dimension
    kappa: float
    values: np.ndarray
    source: WignerSource
    fitted_scale: float | None = None

    def __post_init__(self):
        self.values.setflags(write=False)

    def value(self, n: int, m: int) -> float:
        return float(self.values[self.dim.offset(n), self.dim.offset(m)])


@dataclass(frozen=True)
class Marginals:
    pos: np.ndarray
    mom: np.ndarray


def _two_products(a: np.ndarray, b: np.ndarray, c: np.ndarray, e: np.ndarray) -> np.ndarray:
    """outer(a, b) + outer(c, e), filled in blocks of rows so only one grid is held.

    Each cell is a[i]*b[j] + c[i]*e[j], rounded as the two outer products are.
    """
    grid = np.empty((a.size, b.size))
    rows = max(1, _BLOCK_CELLS // b.size)
    for i in range(0, a.size, rows):
        block = grid[i : i + rows]
        np.multiply(a[i : i + rows, None], b, out=block)
        block += c[i : i + rows, None] * e
    return grid


def wigner_definition(dim, kappa: float) -> WignerGrid:
    """Chord-sum Wigner grid of g_kappa.

        W(n, m) = (1/d) sum_k exp(4j*pi*m*k/d) g(n-k) g(n+k)

    The chords are real and even in k, so the k-sum is a real DFT read
    at frequency 2m mod d folded into 0..s.  Its imaginary residue is
    checked against 1e-13 times the largest value and discarded; the
    real part is copied out so the complex grid is freed.
    """
    dim = as_dimension(dim)
    kappa = _check_kappa(kappa)
    d = dim.d
    g = finite_gaussian(dim, kappa).values
    n = dim.indices()[:, None]
    k = np.fft.ifftshift(dim.indices())[None, :]  # 0..s, -s..-1: the order the DFT reads
    chords = g[dim.offset(n - k)] * g[dim.offset(n + k)]
    spectrum = np.fft.rfft(chords, axis=1) / d
    freq = np.mod(2 * dim.indices(), d)
    grid = np.take(spectrum, np.minimum(freq, d - freq), axis=1)
    top = float(np.max(np.abs(grid)))
    residue = float(np.max(np.abs(grid.imag)))
    if residue > REALNESS_TOL * top:
        raise NumericalFailureError(
            f"Wigner grid of an even state has imaginary residue {residue:.3e}",
            residual=residue,
        )
    return WignerGrid(dim, kappa, grid.real.copy(), WignerSource.DEFINITION)


def wigner_closed_form(dim, kappa: float) -> WignerGrid:
    """Exact factorized Wigner grid:

        W(n, m) = (2*kappa*d)**-0.5 * [ g_{2k}(n)  (g_{2/k}(m) + g+_{2/k}(m))
                                      + g+_{2k}(n) (g_{2/k}(m) - g+_{2/k}(m)) ]
    """
    dim = as_dimension(dim)
    kappa = _check_kappa(kappa)
    gn = finite_gaussian(dim, 2.0 * kappa).values
    gn_plus = shifted_finite_gaussian(dim, 2.0 * kappa).values
    gm = finite_gaussian(dim, 2.0 / kappa).values
    gm_plus = shifted_finite_gaussian(dim, 2.0 / kappa).values
    grid = _two_products(gn, gm + gm_plus, gn_plus, gm - gm_plus)
    grid /= math.sqrt(2.0 * kappa * dim.d)
    return WignerGrid(dim, kappa, grid, WignerSource.CLOSED_FORM)


def wigner_theta_form(dim) -> WignerGrid:
    """Theta-product Wigner grid for kappa = 1, up to one overall constant:

        W'(n, m) = theta3(n/d, 1/(2d)) theta3(2m/d, 2/d)
                 + theta4(n/d, 1/(2d)) theta2(2m/d, 2/d)

    fitted_scale holds the exact constant c = (2*d**3)**-0.5, so that
    c * W' is the kappa = 1 Wigner grid.  No other route is evaluated.
    """
    dim = as_dimension(dim)
    d = dim.d
    ns = dim.indices()
    col3 = theta(ThetaKind.THETA3, ns / d, 1.0 / (2.0 * d))
    col4 = theta(ThetaKind.THETA4, ns / d, 1.0 / (2.0 * d))
    row3 = theta(ThetaKind.THETA3, 2.0 * ns / d, 2.0 / d)
    row2 = theta(ThetaKind.THETA2, 2.0 * ns / d, 2.0 / d)
    grid = _two_products(col3, row3, col4, row2)
    return WignerGrid(dim, 1.0, grid, WignerSource.THETA_FORM, fitted_scale=(2.0 * d**3) ** -0.5)


def wigner_marginals(w: WignerGrid) -> Marginals:
    """Row sums (position marginal) and column sums (momentum marginal)."""
    return Marginals(pos=w.values.sum(axis=1), mom=w.values.sum(axis=0))
