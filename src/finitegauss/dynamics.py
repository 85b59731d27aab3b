"""Unitary evolution and revival detection from populated spectra.

A revival is an exact recurrence of the evolved state, up to a global
phase in the equidistant case.  detect_revival certifies one from the
populated levels alone, per the two sufficient conditions: rational
level ratios (period 2*m*pi/eps_1) or equally spaced levels (period
2*pi/gap).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CapacityExceededError,
    DegenerateVectorError,
    DimensionMismatchError,
    InvalidParameterError,
    KindMismatchError,
    NoLevelsError,
    NumericalFailureError,
)
from .hilbert import MatrixKind, OperatorMatrix, StateVector
from .lattice import _owned, _sealed
from .spectral import Spectrum, hermitian_eig
from .wrapped import TERM_TOL, _positive

WEIGHT_FLOOR = 1e-12  # a level is populated when |<v|psi>|**2 exceeds this
MAX_DEN = 10**6  # the largest denominator a level ratio's convergent may have
CERT_TOL = 1e-8  # a certify_period residual at most this certifies the period


@dataclass(frozen=True)
class RevivalReport:
    """Outcome of revival detection on a populated level set.

    kind is "commensurate", "equidistant", or "none"; period and m are
    None when absent.  zero_level records that a populated level at
    zero energy was set aside and handled as a constant-phase component.
    """

    kind: str
    period: float | None
    m: int | None
    zero_level: bool = False
    note: str | None = None

    def __post_init__(self):
        if self.period is not None and not math.isfinite(self.period):
            raise CapacityExceededError(f"the {self.kind} revival period overflows float64")


@dataclass(frozen=True)
class TimeSeries:
    """Sampled |autocorrelation| values; values[i] pairs with times[i].  Both are kept by lattice._owned."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", _owned(self.times))
        object.__setattr__(self, "values", _owned(self.values))


def _spectrum_for(h: OperatorMatrix, psi: StateVector, spectrum: Spectrum | None) -> Spectrum:
    """Check that h can evolve psi; solve if no spectrum is given."""
    if h.kind is not MatrixKind.HERMITIAN:
        raise KindMismatchError(f"evolution needs a hermitian generator, got {h.kind.value}")
    if psi.dim != h.dim:
        raise DimensionMismatchError("state and generator live on different lattices")
    return spectrum if spectrum is not None else hermitian_eig(h)


def _check_phases(levels: np.ndarray, times) -> None:
    """Raise InvalidParameterError when a phase t*lambda over the times and levels overflows."""
    t, level = float(np.max(np.abs(times), initial=0.0)), float(np.max(np.abs(levels)))
    if not math.isfinite(t * level):
        raise InvalidParameterError(f"time {t!r} times level {level!r} overflows the phase t*lambda")


def _apply(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """v @ x for a complex vector x; a real v takes two real products instead of a complex copy."""
    return v @ x.real + 1j * (v @ x.imag) if v.dtype == np.float64 else v @ x


def _coefficients(spec: Spectrum, psi: StateVector) -> np.ndarray:
    """V^dagger psi: the amplitudes of psi on the eigenvectors.

    When V holds K < d levels, NumericalFailureError is raised if |psi - V c| exceeds
    sqrt(TERM_TOL) * |psi|, that is, if the levels hold less than (1 - TERM_TOL) of |psi|**2.
    """
    if spec.dim != psi.dim:
        raise DimensionMismatchError("state and spectrum live on different lattices")
    v = spec.eigenvectors
    coeffs = _apply(v.conj().T, psi.amps)
    if v.shape[1] < v.shape[0]:
        missed = float(np.linalg.norm(psi.amps - _apply(v, coeffs)))
        if not missed <= math.sqrt(TERM_TOL) * psi.norm():
            raise NumericalFailureError(f"the {v.shape[1]} levels miss {missed:.3e} of the state", residual=missed)
    return coeffs


def evolve(h: OperatorMatrix, psi: StateVector, t: float, spectrum: Spectrum | None = None) -> StateVector:
    """exp(-1j*t*H) psi via the eigendecomposition of H.

    Without spectrum=, h's Spectrum comes from hermitian_eig, which solves
    each operator once and keeps the result on it.  spectrum= passes a
    Spectrum of h that hermitian_eig does not give: a partial one, or a
    closed form such as free_spectrum.
    """
    t = float(t)
    if not math.isfinite(t):
        raise InvalidParameterError(f"evolution time must be finite, got {t}")
    spec = _spectrum_for(h, psi, spectrum)
    _check_phases(spec.eigenvalues, [t])
    coeffs = _coefficients(spec, psi)
    return StateVector(psi.dim, _sealed(_apply(spec.eigenvectors, np.exp(-1j * t * spec.eigenvalues) * coeffs)))


def autocorrelation(h: OperatorMatrix, psi: StateVector, times, spectrum: Spectrum | None = None) -> TimeSeries:
    """|<psi| exp(-1j*t*H) |psi>| sampled at the given times.

    h's Spectrum is taken, or given by spectrum=, as for evolve.  The lightest
    levels, of total weight at most TERM_TOL * |psi|**2, are left out.  The
    series keeps its own copy of times; the caller's array is left as it is.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not np.all(np.isfinite(times)):
        raise InvalidParameterError("times must be a 1-d vector of finite values")
    spec = _spectrum_for(h, psi, spectrum)
    _check_phases(spec.eigenvalues, times)
    weights = np.abs(_coefficients(spec, psi)) ** 2
    order = np.argsort(weights, kind="stable")
    kept = np.sort(order[np.cumsum(weights[order]) > TERM_TOL * np.sum(weights)])
    phases = np.exp(-1j * np.outer(times, spec.eigenvalues[kept]))
    return TimeSeries(times, _sealed(np.abs(phases @ weights[kept])))


def populated_levels(spectrum: Spectrum, psi: StateVector):
    """Eigenvalues, squared overlaps of psi with each eigenvector, and the
    mask of the populated levels: those of weight above WEIGHT_FLOOR."""
    weights = np.abs(_coefficients(spectrum, psi)) ** 2
    return spectrum.eigenvalues.copy(), weights, weights > WEIGHT_FLOOR


def _first_convergent(x: float, rel_tol: float):
    """First continued-fraction convergent p/q of x with q <= MAX_DEN and
    |x - p/q| <= rel_tol*|x|, or None."""
    p_prev, q_prev = 1, 0
    p, q = math.floor(x), 1
    rest = x - math.floor(x)
    for _ in range(128):
        if q > MAX_DEN:
            return None
        if abs(x - p / q) <= rel_tol * abs(x):
            return p, q
        if rest <= 0.0:
            return None
        inv = 1.0 / rest
        a = math.floor(inv)
        rest = inv - a
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
    return None


def _merge_levels(eps: np.ndarray, tol: float) -> np.ndarray:
    """The lowest level of each cluster: sorted, a level joins the cluster whose lowest level is within tol."""
    reps = []
    for e in np.sort(eps):
        if not reps or e - reps[-1] > tol:
            reps.append(e)
    return np.array(reps)


def _zero_level_fits(base: float, gap: float, rel_tol: float) -> bool:
    """A populated zero level keeps the up-to-phase period 2*pi/gap only
    when the smallest nonzero level is a whole number of gaps."""
    ratio = base / gap
    return abs(ratio - round(ratio)) <= rel_tol * max(1.0, abs(ratio))


def detect_revival(levels, weights, rel_tol: float = 1e-9) -> RevivalReport:
    """Certify a revival period from populated levels, or report none.

    Selection: levels with weight above WEIGHT_FLOOR enter; degenerate
    selected levels merge within rel_tol times the level scale; a
    populated zero level is set aside as a constant-phase component and
    flagged.  A single surviving level is a stationary state.  Three or
    more equally spaced levels (gaps agreeing to rel_tol) give the
    equidistant period 2*pi/gap; otherwise every ratio to the smallest
    level must admit a continued-fraction convergent with denominator
    <= MAX_DEN and relative error <= rel_tol, giving period
    2*m*pi/eps_1 with m the LCM of the denominators.  A certified pair
    is reported with the tighter pair period 2*pi/gap unless a populated
    zero level forbids the up-to-phase reading.  A level ratio or a
    period that overflows float64 raises CapacityExceededError.
    """
    levels = np.asarray(levels, dtype=float)
    wts = np.asarray(weights, dtype=float)
    if levels.ndim != 1 or levels.shape != wts.shape:
        raise InvalidParameterError("levels and weights must be matching 1-d vectors")
    if not (np.all(np.isfinite(levels)) and np.all(np.isfinite(wts))):
        raise InvalidParameterError("levels and weights must be finite")
    if np.any(wts < 0.0):
        raise InvalidParameterError("weights must be nonnegative")
    rel_tol = _positive("rel_tol", rel_tol)

    selected = np.flatnonzero(wts > WEIGHT_FLOOR)
    if selected.size == 0:
        raise NoLevelsError("no level carries weight above the floor")

    eps = levels[selected]
    scale = float(np.max(np.abs(eps)))
    merge_tol = rel_tol * scale if scale > 0.0 else 0.0
    reps = _merge_levels(eps, merge_tol)

    zero_level = bool(np.any(np.abs(reps) <= merge_tol))
    nonzero = reps[np.abs(reps) > merge_tol]

    if nonzero.size == 0:
        return RevivalReport(
            "equidistant", 1.0, None, True,
            "only a zero level is populated; the state is constant and any time is a period",
        )
    if nonzero.size == 1 and not zero_level:
        return RevivalReport(
            "equidistant", 2.0 * math.pi / abs(float(nonzero[0])), None, False,
            "single populated level; the state is stationary and any time is a period up to phase",
        )

    base = float(nonzero[np.argmin(np.abs(nonzero))])

    if nonzero.size >= 3:
        gaps = np.diff(nonzero)
        mean_gap = float(np.mean(gaps))
        if (
            mean_gap > 0.0
            and float(np.max(np.abs(gaps - mean_gap))) <= rel_tol * abs(mean_gap)
            and (not zero_level or _zero_level_fits(base, mean_gap, rel_tol))
        ):
            return RevivalReport("equidistant", 2.0 * math.pi / mean_gap, None, zero_level)

    denominators = [1]
    for e in nonzero:
        x = float(e) / base
        if not math.isfinite(x):
            raise CapacityExceededError(f"level ratio {float(e)!r} / {base!r} overflows float64")
        hit = _first_convergent(x, rel_tol)
        if hit is None:
            return RevivalReport("none", None, None, zero_level)
        denominators.append(hit[1])
    m = math.lcm(*denominators)
    if m > 2**63:
        raise CapacityExceededError(f"denominator LCM {m} exceeds the 2**63 capacity")

    if nonzero.size == 2:
        gap = float(abs(nonzero[1] - nonzero[0]))
        if not zero_level or _zero_level_fits(base, gap, rel_tol):
            return RevivalReport("equidistant", 2.0 * math.pi / gap, None, zero_level)

    return RevivalReport("commensurate", 2.0 * math.pi * m / abs(base), int(m), zero_level)


def certify_period(
    h: OperatorMatrix, psi: StateVector, period: float, spectrum: Spectrum | None = None
) -> float:
    """2-norm defect of the claimed period at the best global phase, from the levels and weights.

    With c = V^dagger psi, w = |c|**2 and u_k = exp(-1j*lambda_k*T), the phase
    phi = arg sum_k w_k u_k minimizes |psi(t0+T) - e^{1j*phi} psi(t0)|_2, and the minimum
    D = (sum_k w_k |u_k - e^{1j*phi}|**2)**0.5 is the same for every start time t0, so D
    bounds the entrywise defect at all of them at once.  D is summed from the unit phases
    u_k, not as 4*sin((lambda_k*T + phi)/2)**2, where adding phi would round away up to
    eps*|lambda_k*T| of each phase.  For a partial spectrum, D is the defect inside the
    span of the levels; the part they miss is bounded by the sqrt(TERM_TOL) * |psi| check
    of _coefficients.  A period is certified when D is at most CERT_TOL, which a NaN
    defect never is.  The zero state raises DegenerateVectorError.  h's Spectrum is
    taken, or given by spectrum=, as for evolve.
    """
    period = float(period)
    if not math.isfinite(period):
        raise InvalidParameterError(f"period must be finite, got {period}")
    spec = _spectrum_for(h, psi, spectrum)
    return _defect(spec.eigenvalues, np.abs(_coefficients(spec, psi)), period)


def _defect(levels: np.ndarray, mags: np.ndarray, period: float) -> float:
    """certify_period's D from the levels and the moduli |c_k| of the state's amplitudes on them.

    A phase period*lambda that overflows raises InvalidParameterError.
    """
    _check_phases(levels, [period])
    top = float(np.max(mags))
    if top == 0.0:
        raise DegenerateVectorError("the zero state has no phase to fit a period against")
    # scale by an exact power of two so the squared weights neither underflow nor overflow
    shift = math.frexp(top)[1]
    weights = np.ldexp(mags, -shift) ** 2
    turns = np.exp(-1j * period * levels)
    phase = np.exp(1j * np.angle(weights @ turns))
    return math.ldexp(float(np.sqrt(weights @ np.abs(turns - phase) ** 2)), shift)
