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
from .wrapped import (
    ThetaKind,
    _check_kappa,
    _check_tol,
    finite_gaussian,
    shifted_finite_gaussian,
    theta,
)

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


def wigner_definition(dim, kappa: float, term_tol: float = 1e-18) -> WignerGrid:
    """Chord-sum Wigner grid of g_kappa.

        W(n, m) = (1/d) sum_k exp(4j*pi*m*k/d) g(n-k) g(n+k)

    The chords are real and even in k, so the k-sum is a real DFT read
    at frequency 2m mod d folded into 0..s.  Its imaginary residue is
    checked against 1e-13 times the largest value and discarded.
    """
    dim = as_dimension(dim)
    kappa = _check_kappa(kappa)
    term_tol = _check_tol(term_tol)
    d = dim.d
    g = finite_gaussian(dim, kappa, term_tol).values
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
    return WignerGrid(dim, kappa, grid.real, WignerSource.DEFINITION)


def wigner_closed_form(dim, kappa: float, term_tol: float = 1e-18) -> WignerGrid:
    """Exact factorized Wigner grid:

        W(n, m) = (2*kappa*d)**-0.5 * [ g_{2k}(n)  (g_{2/k}(m) + g+_{2/k}(m))
                                      + g+_{2k}(n) (g_{2/k}(m) - g+_{2/k}(m)) ]
    """
    dim = as_dimension(dim)
    kappa = _check_kappa(kappa)
    term_tol = _check_tol(term_tol)
    gn = finite_gaussian(dim, 2.0 * kappa, term_tol).values
    gn_plus = shifted_finite_gaussian(dim, 2.0 * kappa, term_tol).values
    gm = finite_gaussian(dim, 2.0 / kappa, term_tol).values
    gm_plus = shifted_finite_gaussian(dim, 2.0 / kappa, term_tol).values
    grid = (np.outer(gn, gm + gm_plus) + np.outer(gn_plus, gm - gm_plus)) / math.sqrt(
        2.0 * kappa * dim.d
    )
    return WignerGrid(dim, kappa, grid, WignerSource.CLOSED_FORM)


def wigner_theta_form(dim, term_tol: float = 1e-18) -> WignerGrid:
    """Theta-product Wigner grid for kappa = 1, up to one overall constant:

        W'(n, m) = theta3(n/d, 1/(2d)) theta3(2m/d, 2/d)
                 + theta4(n/d, 1/(2d)) theta2(2m/d, 2/d)

    fitted_scale holds the exact constant c = (2*d**3)**-0.5, so that
    c * W' is the kappa = 1 Wigner grid.  No other route is evaluated.
    """
    dim = as_dimension(dim)
    term_tol = _check_tol(term_tol)
    d = dim.d
    ns = dim.indices()
    col3 = theta(ThetaKind.THETA3, ns / d, 1.0 / (2.0 * d), term_tol)
    col4 = theta(ThetaKind.THETA4, ns / d, 1.0 / (2.0 * d), term_tol)
    row3 = theta(ThetaKind.THETA3, 2.0 * ns / d, 2.0 / d, term_tol)
    row2 = theta(ThetaKind.THETA2, 2.0 * ns / d, 2.0 / d, term_tol)
    grid = np.outer(col3, row3) + np.outer(col4, row2)
    return WignerGrid(dim, 1.0, grid, WignerSource.THETA_FORM, fitted_scale=(2.0 * d**3) ** -0.5)


def wigner_marginals(w: WignerGrid) -> Marginals:
    """Row sums (position marginal) and column sums (momentum marginal)."""
    return Marginals(pos=w.values.sum(axis=1), mom=w.values.sum(axis=0))
