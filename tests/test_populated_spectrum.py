"""The oscillator levels a revival populates, by Rayleigh-Ritz on sampled Hermite
functions, against the dense hermitian_eig they stand in for."""
import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from finitegauss import (
    Dimension,
    NumericalFailureError,
    PhasePoint,
    Spectrum,
    StateVector,
    autocorrelation,
    certify_period,
    coherent_state,
    detect_revival,
    evolve,
    hermitian_eig,
    oscillator_hamiltonian,
    populated_levels,
)
from finitegauss import cli, dynamics, spectral
from finitegauss.spectral import _hermite_blocks, _populated_spectrum
from finitegauss.wrapped import TERM_TOL

# Ritz and dense routes must agree to these: the levels relative to max|H|,
# the evolved state against |psi| = 1 and the period relatively.  Worst seen
# over 72 coherent states at d in [61, 2001]: 3.3e-16, 4.4e-13 and 1.4e-13;
# the dense eigenvectors themselves carry about 1e-16 * max|H| / gap.
LEVEL_AGREE_TOL = 1e-12
EVOLVE_AGREE_TOL = 1e-12
PERIOD_AGREE_TOL = 1e-12


def eigh_call_shapes(monkeypatch) -> list:
    """Record the shape of every matrix np.linalg.eigh is asked to solve."""
    shapes = []
    real_eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return shapes


def assert_exactly_even_or_odd(vecs: np.ndarray) -> None:
    even = np.all(vecs[::-1] == vecs, axis=0)
    odd = np.all(vecs[::-1] == -vecs, axis=0)
    assert vecs.dtype == np.float64
    assert np.all(even | odd)


@st.composite
def coherent_cases(draw):
    """(h, psi) at odd d in [61, 2001], psi coherent with |alpha|, |beta| <= 3."""
    dim = Dimension(2 * draw(st.integers(30, 1000)) + 1)
    label = st.integers(-3, 3)
    return oscillator_hamiltonian(dim), coherent_state(dim, PhasePoint(draw(label), draw(label)))


class TestAgainstDense:
    @given(coherent_cases())
    @settings(max_examples=12, deadline=None)
    def test_levels_evolution_and_revival_match_hermitian_eig(self, case):
        h, psi = case
        dense = hermitian_eig(h)
        ritz = _populated_spectrum(h, psi)
        k = ritz.eigenvalues.size
        assert k == h.dim.d or 8 <= k <= h.dim.d // 8
        scale = float(np.max(np.abs(h.entries)))
        # the K Ritz values stand for the K lowest levels
        assert np.max(np.abs(ritz.eigenvalues - dense.eigenvalues[:k])) <= LEVEL_AGREE_TOL * scale
        assert_exactly_even_or_odd(ritz.eigenvectors)

        reports = []
        for spec in (dense, ritz):
            levels, weights, _ = populated_levels(spec, psi)
            report = detect_revival(levels, weights, 1e-6)
            assert certify_period(h, psi, report.period, spectrum=spec) <= dynamics.CERT_TOL
            reports.append(report)
        assert reports[1].kind == reports[0].kind
        assert reports[1].period == pytest.approx(reports[0].period, rel=PERIOD_AGREE_TOL)
        period = reports[0].period
        moved = evolve(h, psi, period, spectrum=ritz).amps - evolve(h, psi, period, spectrum=dense).amps
        assert np.max(np.abs(moved)) <= EVOLVE_AGREE_TOL

    @pytest.mark.parametrize("point", [(1, 0), (0, 3), (-20, 15), (100, 0)])
    def test_large_d_takes_the_ritz_route(self, point, monkeypatch):
        h = oscillator_hamiltonian(Dimension(1001))
        psi = coherent_state(h.dim, PhasePoint(*point))
        shapes = eigh_call_shapes(monkeypatch)
        spec = _populated_spectrum(h, psi)
        k = spec.eigenvalues.size
        assert 8 <= k <= 1001 // 8
        assert shapes and all(rows <= k for rows, _ in shapes)
        assert spec.residual <= spectral.EIG_RESIDUAL_TOL * np.max(np.abs(h.entries))
        assert_exactly_even_or_odd(spec.eigenvectors)


class TestCapturedWeight:
    def ritz_case(self):
        h = oscillator_hamiltonian(Dimension(301))
        psi = coherent_state(h.dim, PhasePoint(3, -2))
        spec = _populated_spectrum(h, psi)
        assert spec.eigenvalues.size < h.dim.d
        return h, psi, spec

    def test_a_state_outside_the_span_is_refused(self):
        h, _, spec = self.ritz_case()
        delta = StateVector(h.dim, np.eye(h.dim.d, dtype=complex)[h.dim.s])
        with pytest.raises(NumericalFailureError, match="levels miss"):
            certify_period(h, delta, 2.0 * math.pi, spectrum=spec)
        with pytest.raises(NumericalFailureError, match="levels miss"):
            evolve(h, delta, 1.0, spectrum=spec)
        with pytest.raises(NumericalFailureError, match="levels miss"):
            autocorrelation(h, delta, [0.0, 1.0], spectrum=spec)
        with pytest.raises(NumericalFailureError, match="levels miss"):
            populated_levels(spec, delta)

    @given(st.lists(st.integers(0, 200), min_size=1, max_size=6, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_refused_exactly_when_the_dropped_levels_outweigh_term_tol(self, picks):
        # Leave out some levels of the Ritz spectrum: the state then misses
        # their weight, and the check fires once that passes TERM_TOL.
        h, psi, spec = self.ritz_case()
        k = spec.eigenvalues.size
        dropped = sorted({p % k for p in picks})
        keep = np.setdiff1d(np.arange(k), dropped)
        v = spec.eigenvectors.astype(complex)
        coeffs = v.conj().T @ psi.amps
        weights = np.abs(coeffs) ** 2
        # the part outside all K levels, and the dropped levels: orthogonal parts of psi
        missed = float(np.linalg.norm(psi.amps - v @ coeffs)) ** 2 + float(np.sum(weights[dropped]))
        assume(not 0.25 * TERM_TOL <= missed <= 4.0 * TERM_TOL)  # rounding decides at the edge
        partial = Spectrum(h.dim, spec.eigenvalues[keep].copy(), spec.eigenvectors[:, keep].copy(), spec.residual)
        if missed > TERM_TOL:
            with pytest.raises(NumericalFailureError):
                populated_levels(partial, psi)
        else:
            _, kept_weights, _ = populated_levels(partial, psi)
            assert kept_weights == pytest.approx(weights[keep], abs=1e-15)


class TestRoute:
    def test_spread_and_localized_states_fall_back_to_the_dense_solve(self, monkeypatch):
        h = oscillator_hamiltonian(Dimension(1001))
        for psi in (StateVector(h.dim, np.eye(h.dim.d, dtype=complex)[h.dim.s]),
                    coherent_state(h.dim, PhasePoint(300, 0))):
            shapes = eigh_call_shapes(monkeypatch)
            spec = _populated_spectrum(h, psi)
            assert spec.eigenvalues.size == h.dim.d
            assert shapes == [(501, 501), (500, 500)]

    @pytest.mark.parametrize("d", [31, 41, 63])
    @pytest.mark.parametrize("state", [["gauss"], ["coherent", "1", "0", "--rel-tol", "1e-6"]],
                             ids=["gauss", "coherent"])
    def test_small_lattices_take_the_dense_route(self, d, state, monkeypatch):
        # The golden revival jobs run at d = 31; every d < 64 is solved densely.
        shapes = eigh_call_shapes(monkeypatch)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["revival", "--d", str(d), "--ham", "osc", "--state", *state]) == 0
        s = d // 2
        assert shapes == [(s + 1, s + 1), (s, s)]

    def test_cli_revival_at_d_1001_solves_no_dense_block(self, monkeypatch):
        shapes = eigh_call_shapes(monkeypatch)
        out = io.StringIO()
        argv = ["revival", "--d", "1001", "--ham", "osc", "--state", "coherent", "1", "0", "--rel-tol", "1e-6"]
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
        assert shapes and all(rows <= 1001 // 8 for rows, _ in shapes)
        assert '"certified": true' in out.getvalue()


class TestHermiteBlocks:
    @pytest.mark.parametrize("d", [65, 301])
    def test_blocks_are_the_sampled_hermite_functions(self, d):
        # psi_k(x) = (2**k k! sqrt(pi))**-0.5 H_k(x) exp(-x**2/2), H_k by numpy's physicists' series
        dim = Dimension(d)
        even, odd = _hermite_blocks(dim, 9)
        assert even.shape == (dim.s + 1, 5) and odd.shape == (dim.s, 4)
        x = math.sqrt(2.0 * math.pi / d) * np.arange(dim.s + 1)
        for k in range(9):
            coef = np.zeros(k + 1)
            coef[k] = 1.0
            want = np.polynomial.hermite.hermval(x, coef) * np.exp(-0.5 * x * x)
            want /= math.sqrt(2.0**k * math.factorial(k) * math.sqrt(math.pi))
            want[1:] *= math.sqrt(2.0)
            got = even[:, k // 2] if k % 2 == 0 else odd[:, k // 2]
            assert np.max(np.abs(got - (want if k % 2 == 0 else want[1:]))) <= 1e-14
