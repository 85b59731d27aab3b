"""Wrapped Gaussian sums and Jacobi theta kernels on odd cyclic lattices.

The central object is the wrapped Gaussian

    g_kappa(n) = sum_alpha exp(-kappa*pi*(alpha*d + n)**2 / d),

together with its half-period-shifted companion

    g_kappa_plus(n) = sum_alpha exp(-kappa*pi*((alpha + 1/2)*d + n)**2 / d).

Both are even in n and strictly positive.  Poisson summation gives the
dual theta forms g_kappa(n) = theta3(n/d, 1/(kappa*d)) / sqrt(kappa*d) and
g_kappa_plus(n) = theta4(n/d, 1/(kappa*d)) / sqrt(kappa*d); the alternating
sum is the theta2 form.  Every sum takes the direct alpha-sum when
kappa*d >= 1 and the theta series when kappa*d < 1, so its window is at
most a few terms for every kappa and the window cap cannot be reached from
finite_gaussian.  A kappa for which kappa*pi/d or 1/(kappa*d) is not finite
is refused.  Windows are truncated where the first excluded term, at the
worst lattice point, falls below TERM_TOL times the partial sum at n=0,
and are accumulated from the largest |alpha| inward so that results are
bit-for-bit even in n.  TERM_TOL = 1e-18 lies below half an ulp of the
partial sum, so a wider window would add only rounding.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, NumericalFailureError
from .lattice import Dimension, _owned, _sealed, as_dimension

_WINDOW_CAP = 100_000
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
TERM_TOL = 1e-18


class ThetaKind(enum.Enum):
    """The three even Jacobi theta series used by this package."""

    THETA2 = "theta2"
    THETA3 = "theta3"
    THETA4 = "theta4"


@dataclass(frozen=True)
class FiniteGaussian:
    """A wrapped Gaussian sampled on the centered lattice -s..s.

    values[i] holds the value at n = i - s.  value(n) accepts any
    integer (or integer array) and reduces it into the lattice first.
    values is kept by lattice._owned.
    """

    dim: Dimension
    kappa: float
    shifted: bool
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _owned(self.values))

    def value(self, n):
        return self.values[self.dim.offset(n)]

    def squared_norm(self) -> float:
        return float(np.dot(self.values, self.values))


def _positive(name: str, x: float) -> float:
    """x as a float, or InvalidParameterError naming it when it is not finite and positive."""
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise InvalidParameterError(f"{name} must be finite and positive, got {x}")
    return x


def _halfwidth(c: float, step: float, shift: float, half: float, what: str) -> int:
    """Smallest window halfwidth A meeting the truncation rule.

    The window sums exp(-c*((a + half)*step + x)**2) for |x| <= shift.
    Unshifted windows (half = 0) cover a in [-A, A]; shifted windows
    (half = 1/2) cover the offset pairs (a, -a-1) for a in [0, A].  The
    first excluded term is evaluated at the worst point x = -shift and
    compared with the partial sum at x = 0.
    """
    center = half * step
    partial = 2.0 * math.exp(-c * center ** 2) if half else 1.0
    a = 0
    while True:
        edge = center + step - shift
        excluded = math.exp(-c * edge * edge)
        # an underflowed term can never contribute, whatever the partial sum;
        # an edge at or inside the worst point is not excluded yet
        if (excluded == 0.0 or excluded < TERM_TOL * partial) and edge > 0:
            return a
        a += 1
        if a > _WINDOW_CAP:
            raise NumericalFailureError(f"{what} window did not converge")
        center += step
        partial += 2.0 * math.exp(-c * center ** 2)


def _gauss_terms(c: float, x: np.ndarray, reach: float) -> np.ndarray:
    """exp(-c*x*x) for |x| <= reach, evaluated without overflow.

    When c*reach*reach overflows, x is first clipped to +-sqrt(746/c):
    exp(-746) is 0.0 in double precision, so a clipped term is 0.0 either
    way, and every term inside the clip keeps its bits.
    """
    if not math.isfinite(c * reach * reach):
        bound = math.sqrt(746.0 / c)
        x = np.clip(x, -bound, bound)
    return np.exp(-c * x * x)


def _wrapped_sum(kind: ThetaKind, dim: Dimension, kappa: float, n=None) -> np.ndarray:
    """The wrapped sum whose Poisson dual is theta `kind`, at n (default: the lattice).

    THETA3 is g_kappa, THETA4 is g_kappa_plus and THETA2 the alternating
    sum.  Below kappa*d = 1 the theta side is evaluated; otherwise the
    direct alpha-sum.  Either way the window is O(1) terms.
    """
    d = dim.d
    c = kappa * math.pi / d
    t = 1.0 / (kappa * d)
    if not (math.isfinite(c) and math.isfinite(t)):
        raise InvalidParameterError(
            f"kappa = {kappa} is out of range at d = {d}: kappa*pi/d or 1/(kappa*d) is not finite"
        )
    ns = (dim.indices() if n is None else np.asarray(n)).astype(float)
    if kappa * d < 1.0:
        return theta(kind, ns / d, t) / math.sqrt(kappa * d)
    half = 0.5 if kind is ThetaKind.THETA4 else 0.0
    # the worst point: n = -s on the lattice, the largest |n| of an argument
    shift = dim.s if n is None else float(np.max(np.abs(ns), initial=0.0))
    halfwidth = _halfwidth(c, d, shift, half, "wrapped sum")
    acc = np.zeros(ns.shape)
    # shifted pairs (a, -a-1) give offsets +-(a+1/2)d down to a = 0; the
    # unshifted center term a = 0 is added once, last
    for a in range(halfwidth, -1 if half else 0, -1):
        offset = (a + half) * d
        pair = _gauss_terms(c, offset + ns, offset + shift) + _gauss_terms(c, -offset + ns, offset + shift)
        acc += -pair if kind is ThetaKind.THETA2 and a % 2 else pair
    if not half:
        acc += _gauss_terms(c, ns, shift)
    return acc


def finite_gaussian(dim, kappa: float) -> FiniteGaussian:
    """Wrapped Gaussian g_kappa on the lattice of size dim.

    kappa > 0 is the squeezing parameter: large kappa narrows the state
    in position, small kappa narrows its Fourier transform.
    """
    dim = as_dimension(dim)
    kappa = _positive("kappa", kappa)
    values = _wrapped_sum(ThetaKind.THETA3, dim, kappa)
    return FiniteGaussian(dim, kappa, False, _sealed(values))


def shifted_finite_gaussian(dim, kappa: float) -> FiniteGaussian:
    """Half-period-shifted wrapped Gaussian g_kappa_plus.

    Peaks at the lattice edges |n| = s instead of at n = 0.
    """
    dim = as_dimension(dim)
    kappa = _positive("kappa", kappa)
    values = _wrapped_sum(ThetaKind.THETA4, dim, kappa)
    return FiniteGaussian(dim, kappa, True, _sealed(values))


def theta(kind: ThetaKind, z, t: float):
    """Jacobi theta series theta_k(z, i*t) for purely imaginary modulus.

    Only the even real cosine form is computed:

        theta2 = sum_a exp(-pi*t*(a+1/2)**2) * cos(2*pi*(a+1/2)*z)
        theta3 = sum_a exp(-pi*t*a**2)       * cos(2*pi*a*z)
        theta4 = sum_a (-1)**a exp(-pi*t*a**2) * cos(2*pi*a*z)

    t must be positive; z may be an array, all of it summed over one window.
    Terms are paired (a, -a) so each contribution is real; no complex arithmetic.
    """
    kind = ThetaKind(kind)
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise InvalidParameterError(f"z must be finite, got {z}")
    t = _positive("t", t)

    c = math.pi * t
    half = 0.5 if kind is ThetaKind.THETA2 else 0.0
    halfwidth = _halfwidth(c, 1.0, 0.0, half, "theta series")
    acc = np.zeros(z.shape)
    for a in range(halfwidth, -1 if half else 0, -1):
        h = a + half
        term = 2.0 * math.exp(-c * h * h) * np.cos(2.0 * math.pi * h * z)
        acc += -term if kind is ThetaKind.THETA4 and a % 2 == 1 else term
    acc = acc if half else acc + 1.0
    return float(acc) if z.shape == () else acc


def naive_gaussian(dim, kappa: float) -> np.ndarray:
    """Single-term Gaussian exp(-kappa*pi*n**2/d) without wrapping.

    Useful as a reference for how much the periodization tails matter;
    it is not even approximately its own Fourier transform at small d.
    """
    dim = as_dimension(dim)
    kappa = _positive("kappa", kappa)
    c = kappa * math.pi / dim.d
    if not math.isfinite(c):
        raise InvalidParameterError(f"kappa = {kappa} is out of range at d = {dim.d}: kappa*pi/d is not finite")
    return _gauss_terms(c, dim.indices().astype(float), dim.s)


def _as_int64(n) -> np.ndarray:
    """n as an int64 array, exactly; InvalidParameterError when it is not integer or lies outside int64.

    Python ints beyond int64 arrive as uint64 or object arrays, and uint64
    mixed with int64 is float64, so the range is checked before any cast.
    """
    narr = np.asarray(n)
    if narr.dtype == object and all(isinstance(v, int) for v in narr.flat):
        fits = all(_INT64_MIN <= v <= _INT64_MAX for v in narr.flat)
    elif np.issubdtype(narr.dtype, np.unsignedinteger):
        fits = narr.size == 0 or narr.max() <= np.uint64(_INT64_MAX)
    elif np.issubdtype(narr.dtype, np.integer):
        fits = True
    else:
        raise InvalidParameterError("argument n must be integer-valued")
    if not fits:
        raise InvalidParameterError(f"argument n must lie in the int64 range [{_INT64_MIN}, {_INT64_MAX}]")
    return narr.astype(np.int64)


def alternating_wrapped_sum(dim, kappa: float, n):
    """Sign-alternating wrapped Gaussian sum at a literal integer argument.

        sum_alpha (-1)**alpha * exp(-kappa*pi*(alpha*d + n)**2 / d)

    Anti-periodic, f(n + d) = -f(n): n = r + q*d with |r| <= s is summed
    at r and negated for odd q, so every int64 n costs the same few terms.
    Terms are paired (a, -a) to keep the alternating cancellation stable;
    below kappa*d = 1 the sum is theta2(r/d, 1/(kappa*d)) / sqrt(kappa*d).
    Accepts scalar or array n; returns matching shape.
    """
    dim = as_dimension(dim)
    kappa = _positive("kappa", kappa)
    narr = _as_int64(n)
    q, r = np.divmod(narr, np.int64(dim.d))  # n = q*d + r, 0 <= r < d; nothing is added to n
    wrap = r > dim.s
    acc = _wrapped_sum(ThetaKind.THETA2, dim, kappa, np.where(wrap, r - dim.d, r))
    acc = np.where((q % 2 == 1) != wrap, -acc, acc)
    return float(acc) if narr.shape == () else acc
