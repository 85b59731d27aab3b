"""Evolution, autocorrelation, revival detection and certification."""
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitegauss import (
    CapacityExceededError,
    DegenerateVectorError,
    Dimension,
    DimensionMismatchError,
    InvalidParameterError,
    MatrixKind,
    NoLevelsError,
    OperatorMatrix,
    PhasePoint,
    Spectrum,
    StateVector,
    autocorrelation,
    certify_period,
    coherent_state,
    detect_revival,
    evolve,
    finite_gaussian,
    free_hamiltonian,
    free_spectrum,
    hermitian_eig,
    oscillator_hamiltonian,
    populated_levels,
    shifted_finite_gaussian,
)
from finitegauss import dynamics
from finitegauss.wrapped import TERM_TOL


def random_state(dim: Dimension, seed: int) -> StateVector:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=dim.d) + 1j * rng.normal(size=dim.d)
    return StateVector(dim, amps).normalized()


def dense_coefficients(spec: Spectrum, psi: StateVector) -> np.ndarray:
    """V^dagger psi through a complex copy of V: the reference for the real products."""
    return spec.eigenvectors.astype(complex).conj().T @ psi.amps


def dense_evolve(spec: Spectrum, psi: StateVector, t: float) -> np.ndarray:
    v = spec.eigenvectors.astype(complex)
    return v @ (np.exp(-1j * t * spec.eigenvalues) * dense_coefficients(spec, psi))


def dense_autocorrelation(spec: Spectrum, psi: StateVector, times) -> np.ndarray:
    """|<psi| exp(-1j*t*H) |psi>| summed over every level, none left out."""
    weights = np.abs(dense_coefficients(spec, psi)) ** 2
    return np.abs(np.exp(-1j * np.outer(times, spec.eigenvalues)) @ weights)


def dense_defect(spec: Spectrum, psi: StateVector, period: float) -> float:
    """|psi(T) - e^{1j*phi} psi|_2 by dense evolution, at the best phase phi = arg <psi|psi(T)>."""
    after = dense_evolve(spec, psi, period)
    overlap = np.vdot(psi.amps, after)
    phase = overlap / abs(overlap) if overlap != 0.0 else 1.0
    return float(np.linalg.norm(after - phase * psi.amps))


def best_phase(spec: Spectrum, psi: StateVector, period: float) -> complex:
    """e^{1j*phi} with phi = arg sum_k w_k exp(-1j*lambda_k*T)."""
    weights = np.abs(dense_coefficients(spec, psi)) ** 2
    overlap = weights @ np.exp(-1j * period * spec.eigenvalues)
    return overlap / abs(overlap)


def convergents(x: float, count: int):
    """Plain continued-fraction convergents of x, as Fractions."""
    out = []
    p_prev, q_prev = 1, 0
    p, q = math.floor(x), 1
    rest = x - math.floor(x)
    for _ in range(count):
        out.append(Fraction(p, q))
        if rest == 0.0:
            break
        inv = 1.0 / rest
        a = math.floor(inv)
        rest = inv - a
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
    return out


class TestEvolution:
    def test_norm_preserved(self):
        dim = Dimension(9)
        h = free_hamiltonian(dim)
        psi = random_state(dim, 1)
        for t in (0.1, 1.7, 25.0):
            assert evolve(h, psi, t).norm() == pytest.approx(1.0, rel=1e-12)

    def test_zero_time_is_identity(self):
        dim = Dimension(7)
        h = oscillator_hamiltonian(dim)
        psi = random_state(dim, 2)
        assert np.max(np.abs(evolve(h, psi, 0.0).amps - psi.amps)) <= 1e-13

    def test_composition(self):
        dim = Dimension(7)
        h = oscillator_hamiltonian(dim)
        psi = random_state(dim, 3)
        spec = hermitian_eig(h)
        one = evolve(h, evolve(h, psi, 0.4, spec), 0.6, spec).amps
        direct = evolve(h, psi, 1.0, spec).amps
        assert np.max(np.abs(one - direct)) <= 1e-12

    @pytest.mark.parametrize("d", [5, 9, 15])
    def test_free_evolution_period_2d(self, d):
        dim = Dimension(d)
        h = free_hamiltonian(dim)
        psi = random_state(dim, d)
        out = evolve(h, psi, 2.0 * d).amps
        assert np.max(np.abs(out - psi.amps)) <= 1e-10

    @pytest.mark.parametrize("d", [101, 301])
    @pytest.mark.parametrize("kappa", [0.5, 1.0, 3.0])
    def test_free_half_period_shifts_the_gaussian(self, d, kappa):
        # At t = d the free phases exp(-1j*pi*k**2) are (-1)**k, a translation
        # by half the lattice, which carries g_kappa to g_kappa_plus: the
        # lattice half Talbot revival (Berry & Klein, J. Mod. Opt. 43, 2139, 1996).
        dim = Dimension(d)
        g = StateVector(dim, finite_gaussian(dim, kappa).values.astype(complex)).normalized()
        shifted = StateVector(dim, shifted_finite_gaussian(dim, kappa).values.astype(complex)).normalized()
        out = evolve(free_hamiltonian(dim), g, float(d)).amps
        overlap = np.vdot(shifted.amps, out)
        assert np.max(np.abs(out - overlap / abs(overlap) * shifted.amps)) <= 1e-12

    def test_free_spectrum_quadratic(self):
        d = 7
        vals = hermitian_eig(free_hamiltonian(Dimension(d))).eigenvalues
        want = sorted(math.pi * n * n / d for n in range(-3, 4))
        assert np.max(np.abs(np.asarray(vals) - np.asarray(want))) <= 1e-12

    def test_autocorrelation_reuses_given_spectrum(self, monkeypatch):
        dim = Dimension(9)
        h = oscillator_hamiltonian(dim)
        psi = random_state(dim, 12)
        times = [0.0, 0.3, 7.5]
        want = autocorrelation(h, psi, times).values
        spec = hermitian_eig(h)

        def no_solve(*_):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigh", no_solve)
        got = autocorrelation(h, psi, times, spectrum=spec).values
        assert got.tobytes() == want.tobytes()

    def test_solved_operator_evolves_without_a_solve(self, monkeypatch):
        # every call without spectrum= ran a fresh eigh of h
        dim = Dimension(31)
        h = oscillator_hamiltonian(dim)
        psi = coherent_state(dim, PhasePoint(3, -2))
        times = np.linspace(0.0, 2.0 * math.pi, 50)
        spec = hermitian_eig(h)

        def no_solve(*_):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigh", no_solve)
        pairs = [
            (autocorrelation(h, psi, times).values, autocorrelation(h, psi, times, spectrum=spec).values),
            (evolve(h, psi, 1.7).amps, evolve(h, psi, 1.7, spectrum=spec).amps),
            (certify_period(h, psi, 2.0 * math.pi), certify_period(h, psi, 2.0 * math.pi, spectrum=spec)),
        ]
        for got, want in pairs:
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_autocorrelation_leaves_the_callers_times_writeable(self):
        # the caller's float array went into the series and came back read-only
        dim = Dimension(9)
        times = np.linspace(0.0, 1.0, 5)
        series = autocorrelation(oscillator_hamiltonian(dim), random_state(dim, 3), times)
        assert times.flags.writeable and not series.times.flags.writeable
        times[0] = 7.0
        assert series.times[0] == 0.0

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_is_refused_before_any_solve(self, t, monkeypatch):
        # A nan time used to surface later as "amplitudes must be finite".
        dim = Dimension(9)
        h = oscillator_hamiltonian(dim)

        def no_solve(*_):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigh", no_solve)
        with pytest.raises(InvalidParameterError, match="time"):
            evolve(h, random_state(dim, 4), t)

    @pytest.mark.parametrize("with_spectrum", [False, True])
    def test_time_that_overflows_a_phase_is_refused(self, with_spectrum):
        # t*lambda overflowed to inf: evolve warned, then reported non-finite amplitudes
        dim = Dimension(5)
        h = free_hamiltonian(dim)
        spec = free_spectrum(h) if with_spectrum else None
        psi = random_state(dim, 4)
        with pytest.raises(InvalidParameterError, match="overflows the phase"):
            evolve(h, psi, 1e308, spectrum=spec)
        with pytest.raises(InvalidParameterError, match="overflows the phase"):
            evolve(h, psi, -1e308, spectrum=spec)
        assert evolve(h, psi, 1e300, spectrum=spec).norm() == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("with_spectrum", [False, True])
    def test_autocorrelation_refuses_a_time_that_overflows_a_phase(self, with_spectrum):
        # the sample at 1e308 used to come back as nan
        dim = Dimension(5)
        h = free_hamiltonian(dim)
        spec = free_spectrum(h) if with_spectrum else None
        with pytest.raises(InvalidParameterError, match="overflows the phase"):
            autocorrelation(h, random_state(dim, 6), [0.0, 1e308], spectrum=spec)
        assert autocorrelation(h, random_state(dim, 6), [], spectrum=spec).values.size == 0

    @pytest.mark.parametrize(
        "times",
        [[0.0, math.nan, math.inf], [-math.inf], [[0.0, 1.0], [2.0, 3.0]], 1.5],
        ids=["nan-inf", "minus-inf", "2-d", "scalar"],
    )
    def test_autocorrelation_refuses_bad_times_before_any_solve(self, times, monkeypatch):
        # Non-finite times returned nan values; 2-d times were flattened,
        # so values[i] no longer paired with times[i].
        dim = Dimension(9)
        h = oscillator_hamiltonian(dim)

        def no_solve(*_):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigh", no_solve)
        with pytest.raises(InvalidParameterError, match="times"):
            autocorrelation(h, random_state(dim, 6), times)

    def test_autocorrelation_peaks_at_period(self):
        dim = Dimension(9)
        h = free_hamiltonian(dim)
        psi = random_state(dim, 11)
        series = autocorrelation(h, psi, [0.0, 5.0, 18.0])
        assert series.values[0] == pytest.approx(1.0, rel=1e-12)
        assert series.values[2] == pytest.approx(1.0, abs=1e-10)
        assert series.values[1] < 1.0


class TestPopulatedLevels:
    def test_delta_populates_only_even_levels(self):
        # delta_0 is even: it has exactly zero overlap with the s odd
        # (sine) eigenvectors and populates the s + 1 even ones.
        dim = Dimension(9)
        h = free_hamiltonian(dim)
        amps = np.zeros(9, dtype=complex)
        amps[dim.offset(0)] = 1.0
        for spec in (hermitian_eig(h), free_spectrum(h)):
            _, weights, mask = populated_levels(spec, StateVector(dim, amps))
            assert int(np.sum(mask)) == dim.s + 1
            assert np.count_nonzero(weights) == dim.s + 1
            even = spec.eigenvectors[:, mask]
            assert np.max(np.abs(even - even[::-1])) <= 1e-15
            assert float(np.sum(weights)) == pytest.approx(1.0, rel=1e-12)

    def test_gaussian_single_level_at_large_d(self):
        dim = Dimension(31)
        h = oscillator_hamiltonian(dim)
        g = finite_gaussian(dim, 1.0)
        psi = StateVector(dim, g.values.astype(complex)).normalized()
        _, weights, mask = populated_levels(hermitian_eig(h), psi)
        assert int(np.sum(mask)) == 1
        assert float(np.max(weights)) >= 1.0 - 1e-12


class TestDetectRevival:
    def test_level_ratio_that_overflows_is_refused(self):
        # math.floor(inf) raised a bare OverflowError
        with pytest.raises(CapacityExceededError, match="overflows"):
            detect_revival([1e-19, 3e-19, 1e300], [1, 1, 1], rel_tol=1e-320)

    @pytest.mark.parametrize(
        "levels",
        [[5e-324, 1e-323], [5e-324, 1e-323, 1.5e-323], [5e-324, 1e-323, 2e-323, 3e-322], [5e-324]],
        ids=["pair", "equidistant", "commensurate", "single"],
    )
    def test_period_that_overflows_is_refused(self, levels):
        # 2*pi over a subnormal gap or level overflowed and was reported as period inf
        with pytest.raises(CapacityExceededError, match="overflows"):
            detect_revival(levels, [1.0] * len(levels))

    def test_equidistant_triple(self):
        eps = 0.7
        rep = detect_revival([eps, 2 * eps, 3 * eps], [0.3, 0.4, 0.3])
        assert rep.kind == "equidistant"
        assert rep.period == pytest.approx(2 * math.pi / eps, rel=1e-12)

    def test_report_carries_the_outcome_only(self):
        # the selected levels are populated_levels' mask and the tolerance is the caller's rel_tol
        rep = detect_revival([1.0, 3.0], [0.5, 0.5])
        assert [f.name for f in dataclasses.fields(rep)] == ["kind", "period", "m", "zero_level", "note"]

    def test_pair_gives_half_period(self):
        rep = detect_revival([1.0, 3.0], [0.5, 0.5])
        assert rep.kind == "equidistant"
        assert rep.period == pytest.approx(math.pi, rel=1e-12)

    def test_zero_level_only(self):
        rep = detect_revival([0.0], [1.0])
        assert rep.kind == "equidistant"
        assert rep.period == 1.0
        assert rep.zero_level
        assert rep.note is not None

    def test_single_level_stationary(self):
        rep = detect_revival([2.5], [1.0])
        assert rep.kind == "equidistant"
        assert rep.period == pytest.approx(2 * math.pi / 2.5, rel=1e-12)
        assert rep.note is not None

    def test_zero_plus_single_level(self):
        rep = detect_revival([0.0, 2.0], [0.5, 0.5])
        assert rep.period is not None
        assert rep.zero_level
        # True period must return the nonzero phase to 1 relative to the
        # constant component: 2*pi/2.
        assert rep.period == pytest.approx(math.pi, rel=1e-12)

    def test_commensurate_ratios(self):
        base = math.pi / 9
        levels = [base, 4 * base, 9 * base, 16 * base]
        rep = detect_revival(levels, [0.25] * 4)
        assert rep.kind == "commensurate"
        assert rep.m == 1
        assert rep.period == pytest.approx(18.0, rel=1e-12)

    def test_commensurate_lcm(self):
        levels = [1.0, 1.5, 4.0 / 3.0]
        rep = detect_revival(levels, [0.4, 0.3, 0.3])
        assert rep.kind == "commensurate"
        assert rep.m == 6
        assert rep.period == pytest.approx(12 * math.pi, rel=1e-12)

    def test_zero_gate_blocks_pair_shortcut(self):
        # Offset pair with a populated constant component: the phase
        # trick is unavailable, so the full commensurate period rules.
        rep = detect_revival([0.0, 1.0, 2.5], [0.2, 0.4, 0.4])
        assert rep.kind == "commensurate"
        assert rep.m == 2
        assert rep.period == pytest.approx(4 * math.pi, rel=1e-12)

    def test_offset_progression_without_zero(self):
        # Oscillator-like levels k + 1/2: equidistant up to global phase.
        levels = [0.5, 1.5, 2.5, 3.5]
        rep = detect_revival(levels, [0.25] * 4)
        assert rep.kind == "equidistant"
        assert rep.period == pytest.approx(2 * math.pi, rel=1e-12)

    def test_irrational_ratio_reported_none(self):
        # The first convergent of the golden ratio within 1e-13 has a
        # denominator above MAX_DEN.
        phi = (1 + math.sqrt(5)) / 2
        rep = detect_revival([1.0, phi], [0.5, 0.5], rel_tol=1e-13)
        assert rep.kind == "none"
        assert rep.period is None
        assert rep.m is None

    @pytest.mark.parametrize("d", [9, 1001, 10001])
    def test_exact_free_levels_are_commensurate_at_large_d(self, d):
        # The free levels pi*n**2/d with equal weights: every level is a
        # whole multiple n**2 of the smallest nonzero one, so m = 1 and the
        # period is 2d, however large the ratio s**2 grows.
        n = Dimension(d).indices()
        rep = detect_revival(np.pi * (n * n) / d, np.full(d, 1.0 / d))
        assert rep.kind == "commensurate"
        assert rep.m == 1
        assert rep.period == pytest.approx(2 * d, rel=1e-12)

    def test_irrational_ratio_certified_at_loose_tolerance(self):
        # A generous tolerance admits a rational stand-in; the report
        # carries the (large) multiplier honestly.
        phi = (1 + math.sqrt(5)) / 2
        rep = detect_revival([1.0, phi], [0.5, 0.5], rel_tol=1e-3)
        assert rep.kind == "equidistant" or rep.m is not None

    def test_capacity_guard(self):
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
        levels = [1.0] + [(p + 1) / p for p in primes]
        with pytest.raises(CapacityExceededError):
            detect_revival(levels, [1.0] * len(levels))

    def test_degenerate_levels_merge(self):
        rep = detect_revival([1.0, 1.0 + 1e-15, 2.0], [0.3, 0.3, 0.4])
        assert rep.kind == "equidistant"
        assert rep.period == pytest.approx(2 * math.pi, rel=1e-9)

    def test_weight_floor_drops_levels(self):
        # The irrational level is below the floor and must not block the pair.
        rep = detect_revival([1.0, 2.0, math.sqrt(2)], [0.5, 0.5, 1e-14])
        assert rep.kind == "equidistant"
        assert rep.period == pytest.approx(2 * math.pi, rel=1e-12)

    def test_no_levels_above_floor(self):
        with pytest.raises(NoLevelsError):
            detect_revival([1.0, 2.0], [1e-15, 1e-16])

    def test_rejects_mismatched_inputs(self):
        with pytest.raises(InvalidParameterError):
            detect_revival([1.0, 2.0], [1.0])
        with pytest.raises(InvalidParameterError):
            detect_revival([1.0], [-0.5])
        with pytest.raises(InvalidParameterError):
            detect_revival([math.nan], [1.0])

    @pytest.mark.parametrize("rel_tol", [math.nan, math.inf, 0.0, -1e-9])
    def test_rejects_bad_rel_tol(self, rel_tol):
        # A nan tolerance used to pass every comparison and report a period.
        with pytest.raises(InvalidParameterError):
            detect_revival([1.0, 2.0], [0.5, 0.5], rel_tol=rel_tol)

    @given(
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=1, max_value=40),
        st.floats(min_value=0.01, max_value=50.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_detected_period_closes_all_phases(self, n_levels, step_num, base):
        # Arithmetic progressions starting at the base level must always
        # certify, and every populated phase must close at the period.
        levels = [base + k * step_num * 0.125 for k in range(n_levels + 1)]
        weights = [1.0] * len(levels)
        rep = detect_revival(levels, weights, rel_tol=1e-9)
        assert rep.period is not None
        if rep.kind == "commensurate":
            for e in levels:
                turns = e * rep.period / (2 * math.pi)
                assert abs(turns - round(turns)) <= 1e-6 * max(1.0, abs(turns))


class TestFirstConvergent:
    def test_sqrt2_matches_enumeration(self):
        # The accepted denominator must be the first in the convergent
        # sequence meeting the tolerance.
        x = math.sqrt(2)
        rel_tol = 1e-9
        # Three unequally spaced levels force the rational-ratio route;
        # the 1 and 2 contribute denominator 1, so m is the denominator
        # accepted for sqrt(2).
        rep = detect_revival([1.0, x, 2.0], [0.4, 0.3, 0.3], rel_tol=rel_tol)
        assert rep.kind == "commensurate"
        seq = convergents(x, 40)
        first = next(f for f in seq if abs(x - f) <= rel_tol * x and f.denominator <= dynamics.MAX_DEN)
        assert rep.m == first.denominator
        for f in seq:
            if f == first:
                break
            assert abs(x - f) > rel_tol * x


class TestCertifyPeriod:
    def test_free_delta_certifies(self):
        dim = Dimension(9)
        h = free_hamiltonian(dim)
        amps = np.zeros(9, dtype=complex)
        amps[4] = 1.0
        psi = StateVector(dim, amps)
        assert certify_period(h, psi, 18.0) <= 1e-10

    def test_wrong_period_large_residual(self):
        dim = Dimension(9)
        h = free_hamiltonian(dim)
        psi = random_state(dim, 5)
        assert certify_period(h, psi, 17.0) > 1e-3

    def test_oscillator_coherent_certifies_2pi(self):
        dim = Dimension(31)
        h = oscillator_hamiltonian(dim)
        psi = coherent_state(dim, PhasePoint(1, 0))
        spec = hermitian_eig(h)
        levels, weights, _ = populated_levels(spec, psi)
        rep = detect_revival(levels, weights, rel_tol=1e-6)
        assert rep.kind == "equidistant"
        assert rep.period == pytest.approx(2 * math.pi, rel=1e-7)
        assert certify_period(h, psi, rep.period, spectrum=spec) <= dynamics.CERT_TOL

    def test_gaussian_is_stationary_at_large_d(self):
        dim = Dimension(31)
        h = oscillator_hamiltonian(dim)
        g = finite_gaussian(dim, 1.0)
        psi = StateVector(dim, g.values.astype(complex)).normalized()
        spec = hermitian_eig(h)
        levels, weights, _ = populated_levels(spec, psi)
        rep = detect_revival(levels, weights)
        assert rep.kind == "equidistant"
        assert rep.note is not None
        assert certify_period(h, psi, rep.period, spectrum=spec) <= 1e-10

    def test_zero_state_is_refused(self):
        # A zero state has no phase to fit: 0/0 used to read as a 0.0 residual.
        dim = Dimension(9)
        psi = StateVector(dim, np.zeros(9, dtype=complex))
        with pytest.raises(DegenerateVectorError):
            certify_period(free_hamiltonian(dim), psi, 17.0)

    @pytest.mark.parametrize("period", [math.nan, math.inf])
    def test_non_finite_period_is_refused(self, period):
        dim = Dimension(9)
        h = free_hamiltonian(dim)
        with pytest.raises(InvalidParameterError, match="period"):
            certify_period(h, random_state(dim, 5), period)

    @pytest.mark.parametrize("with_spectrum", [False, True])
    def test_period_that_overflows_a_phase_is_refused(self, with_spectrum):
        # t*lambda overflowed, the defect was nan, and max(0.0, nan) read as certified
        dim = Dimension(5)
        h = free_hamiltonian(dim)
        psi = StateVector(dim, np.eye(5, dtype=complex)[2])
        spec = free_spectrum(h) if with_spectrum else None
        with pytest.raises(InvalidParameterError, match="overflows the phase"):
            certify_period(h, psi, 1e308, spectrum=spec)

    def test_nan_defect_never_certifies(self):
        dim = Dimension(9)
        h = free_hamiltonian(dim)
        spec = free_spectrum(h)
        vecs = spec.eigenvectors.copy()
        vecs[:, 3] = math.nan
        broken = Spectrum(dim, spec.eigenvalues.copy(), vecs, spec.residual)
        psi = StateVector(dim, np.eye(9, dtype=complex)[4])
        with np.errstate(invalid="ignore"):
            assert math.isnan(certify_period(h, psi, 18.0, spectrum=broken))

    @pytest.mark.parametrize("period", [17.0, 18.0])
    def test_defect_scales_with_the_state(self, period):
        # The weights |c|**2 of a state scaled by 2**600 overflow and those of
        # one scaled by 2**-600 underflow; the defect is still returned in the
        # state's own units, exactly scaled.
        dim = Dimension(9)
        h = free_hamiltonian(dim)
        spec = free_spectrum(h)
        psi = random_state(dim, 5)
        base = certify_period(h, psi, period, spectrum=spec)
        for e in (600, -600):
            scaled = StateVector(dim, psi.amps * 2.0**e)
            assert certify_period(h, scaled, period, spectrum=spec) == base * 2.0**e

    @pytest.mark.parametrize(
        "label, rel_tol", [(None, 1e-9), (PhasePoint(1, 0), 1e-6), (PhasePoint(2, 0), 1e-6)]
    )
    def test_spurious_small_lattice_periods_stay_uncertified(self, label, rel_tol):
        # At d=9 the oscillator levels are far from equally spaced; the
        # convergents still admit a huge commensurate period, which the state
        # does not keep.  These are the three d=9 oscillator rows of
        # scripts/revival_demo.py.
        dim = Dimension(9)
        h = oscillator_hamiltonian(dim)
        spec = hermitian_eig(h)
        if label is None:
            psi = StateVector(dim, finite_gaussian(dim, 1.0).values.astype(complex)).normalized()
        else:
            psi = coherent_state(dim, label)
        levels, weights, _ = populated_levels(spec, psi)
        rep = detect_revival(levels, weights, rel_tol=rel_tol)
        assert rep.kind == "commensurate"
        assert certify_period(h, psi, rep.period, spectrum=spec) >= 1e-4

    @pytest.mark.parametrize("ham", ["free", "osc"])
    def test_certified_period_holds_from_every_start_time(self, ham):
        # D is the 2-norm defect from any start time, so it bounds the
        # entrywise defect from each of them; the slack is the rounding of the
        # phases t*lambda, eps*max|lambda|*(|t0| + T).
        dim = Dimension(9 if ham == "free" else 31)
        if ham == "free":
            h = free_hamiltonian(dim)
            spec, psi, rel_tol = free_spectrum(h), random_state(dim, 5), 1e-9
        else:
            h = oscillator_hamiltonian(dim)
            spec, psi, rel_tol = hermitian_eig(h), coherent_state(dim, PhasePoint(1, 0)), 1e-6
        levels, weights, _ = populated_levels(spec, psi)
        period = detect_revival(levels, weights, rel_tol=rel_tol).period
        defect = certify_period(h, psi, period, spectrum=spec)
        assert defect <= dynamics.CERT_TOL
        phase = best_phase(spec, psi, period)
        top = float(np.max(np.abs(spec.eigenvalues)))
        for t0 in np.linspace(-40.0, 40.0, 17):
            entrywise = np.max(np.abs(dense_evolve(spec, psi, t0 + period) - phase * dense_evolve(spec, psi, t0)))
            assert entrywise <= defect + np.finfo(float).eps * top * (abs(t0) + period)


@st.composite
def evolution_cases(draw):
    """(hamiltonian, spectrum, normalized state) at d in [3, 1001]: the free or
    oscillator generator, a random state or a coherent state with
    |alpha|, |beta| <= s/4."""
    s = draw(st.integers(min_value=1, max_value=500))
    dim = Dimension(2 * s + 1)
    if draw(st.booleans()):
        h = free_hamiltonian(dim)
        spec = free_spectrum(h)
    else:
        h = oscillator_hamiltonian(dim)
        spec = hermitian_eig(h)
    if draw(st.booleans()):
        psi = random_state(dim, draw(st.integers(min_value=0, max_value=2**32 - 1)))
    else:
        coord = st.integers(min_value=-(s // 4), max_value=s // 4)
        psi = coherent_state(dim, PhasePoint(draw(coord), draw(coord)))
    return h, spec, psi


class TestRealProjection:
    """The real-product projection and the truncated autocorrelation against
    the dense complex all-level route they replace."""

    @given(evolution_cases(), st.floats(min_value=0.0, max_value=50.0))
    @settings(max_examples=30, deadline=None)
    def test_matches_the_dense_complex_route(self, case, t):
        # Both routes differ only in rounding: the real products split each
        # complex product into two, and autocorrelation leaves out at most
        # TERM_TOL of the weight.  1e-14 (of |psi|**2 = 1) is about 45 ulps.
        h, spec, psi = case
        assert spec.eigenvectors.dtype == np.float64
        times = np.linspace(0.0, t, 40)
        got = autocorrelation(h, psi, times, spectrum=spec).values
        assert np.max(np.abs(got - dense_autocorrelation(spec, psi, times))) <= 1e-14
        assert np.max(np.abs(evolve(h, psi, t, spec).amps - dense_evolve(spec, psi, t))) <= 1e-14
        _, weights, mask = populated_levels(spec, psi)
        assert np.max(np.abs(weights - np.abs(dense_coefficients(spec, psi)) ** 2)) <= 1e-14
        assert np.array_equal(mask, weights > dynamics.WEIGHT_FLOOR)
        # The closed form sums over the levels; the reference subtracts two
        # evolved states.  In 400 random cases up to d=1001 and t=2d they
        # differed by at most 6.7e-16.
        got = certify_period(h, psi, t, spectrum=spec)
        assert got == pytest.approx(dense_defect(spec, psi, t), abs=1e-14)

    @given(evolution_cases(), st.floats(min_value=0.0, max_value=50.0), st.floats(min_value=-50.0, max_value=50.0))
    @settings(max_examples=30, deadline=None)
    def test_defect_bounds_the_entrywise_defect_at_any_start_time(self, case, period, t0):
        # In exact arithmetic the entrywise defect from t0 is at most its
        # 2-norm, which is D for every t0.  The dense route rounds each phase
        # t*lambda by up to eps*max|lambda|*|t|; that is the stated slack.
        h, spec, psi = case
        phase = best_phase(spec, psi, period)
        entrywise = np.max(np.abs(dense_evolve(spec, psi, t0 + period) - phase * dense_evolve(spec, psi, t0)))
        slack = np.finfo(float).eps * float(np.max(np.abs(spec.eigenvalues))) * (abs(t0) + period)
        assert entrywise <= certify_period(h, psi, period, spectrum=spec) + slack

    @given(
        st.integers(min_value=1, max_value=60),
        st.floats(min_value=0.05, max_value=5.0),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_autocorrelation_drops_at_most_term_tol_of_the_weight(self, s, rate, seed):
        # Distinct integer levels identify each summed level; the weights
        # fall off as exp(-2*rate*k) in a random level order, so tens of
        # levels lie below TERM_TOL each.  The dropped weight is compared
        # with TERM_TOL * sum(w) to 1e-12 relative, the rounding of two sums
        # in different orders.  The next lighter level would break the bound,
        # so the rule is cumulative and drops as much as it may.
        dim = Dimension(2 * s + 1)
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(dim.d, dim.d)))
        levels = np.arange(dim.d, dtype=float)
        h = (q * levels) @ q.T
        spec = Spectrum(dim, levels, q, 0.0)
        amps = q @ (np.exp(-rate * rng.permutation(dim.d)) * np.exp(2j * math.pi * rng.random(dim.d)))
        psi = StateVector(dim, amps)
        summed = []
        outer = np.outer

        def spy(a, b):
            summed.append(np.array(b))
            return outer(a, b)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np, "outer", spy)
            autocorrelation(OperatorMatrix(dim, 0.5 * (h + h.T), MatrixKind.HERMITIAN), psi, [0.0, 1.0], spec)
        (kept_levels,) = summed
        assert np.all(np.diff(kept_levels) > 0)
        kept = kept_levels.astype(int)
        _, weights, _ = populated_levels(spec, psi)
        bound = TERM_TOL * float(np.sum(weights))
        dropped = float(np.sum(np.delete(weights, kept)))
        assert dropped <= bound * (1.0 + 1e-12)
        assert kept.size == 0 or dropped + float(np.min(weights[kept])) > bound * (1.0 - 1e-12)

    def test_complex_eigenvectors_take_the_complex_product(self):
        # A complex spectrum is projected with one complex product, exactly
        # as the dense route does, so the results agree byte for byte.
        dim = Dimension(9)
        rng = np.random.default_rng(7)
        a = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        h = OperatorMatrix(dim, a + a.conj().T, MatrixKind.HERMITIAN)
        spec = hermitian_eig(h)
        assert spec.eigenvectors.dtype == np.complex128
        psi = random_state(dim, 8)
        assert evolve(h, psi, 1.3, spec).amps.tobytes() == dense_evolve(spec, psi, 1.3).tobytes()
        _, weights, _ = populated_levels(spec, psi)
        assert weights.tobytes() == (np.abs(dense_coefficients(spec, psi)) ** 2).tobytes()
        assert certify_period(h, psi, 2.0, spectrum=spec) == pytest.approx(dense_defect(spec, psi, 2.0), abs=1e-14)
        times = np.linspace(0.0, 5.0, 11)
        got = autocorrelation(h, psi, times, spectrum=spec).values
        assert np.max(np.abs(got - dense_autocorrelation(spec, psi, times))) <= 1e-14

    def test_certify_period_projects_once(self, monkeypatch):
        # The coefficients V^dagger psi are computed once; the defect is a
        # sum over them, with no evolved state.
        calls = []
        project = dynamics._coefficients

        def counted(spec, psi):
            calls.append(psi)
            return project(spec, psi)

        monkeypatch.setattr(dynamics, "_coefficients", counted)
        dim = Dimension(9)
        h = free_hamiltonian(dim)
        certify_period(h, random_state(dim, 5), 18.0, spectrum=free_spectrum(h))
        assert len(calls) == 1

    @pytest.mark.parametrize("other", [7, 11])
    def test_spectrum_of_another_lattice_is_refused(self, other):
        # It used to surface as numpy's "matmul: ... mismatch" ValueError.
        dim = Dimension(9)
        h = oscillator_hamiltonian(dim)
        psi = random_state(dim, 3)
        spec = hermitian_eig(oscillator_hamiltonian(Dimension(other)))
        for call in (
            lambda: populated_levels(spec, psi),
            lambda: evolve(h, psi, 1.0, spec),
            lambda: certify_period(h, psi, 1.0, spectrum=spec),
            lambda: autocorrelation(h, psi, [0.0, 1.0], spectrum=spec),
        ):
            with pytest.raises(DimensionMismatchError):
                call()
