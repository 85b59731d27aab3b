"""Commutator spectrum, uncertainty products, oscillator eigensystem."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitegauss import (
    Dimension,
    DimensionMismatchError,
    InvalidParameterError,
    KindMismatchError,
    MatrixKind,
    NumericalFailureError,
    OperatorMatrix,
    Spectrum,
    StateVector,
    commutator_qp,
    commutator_spectrum,
    finite_gaussian,
    floratos_approx,
    fourier_apply,
    fourier_matrix,
    free_hamiltonian,
    free_spectrum,
    hermitian_eig,
    momentum_operator,
    oscillator_hamiltonian,
    position_operator,
    quasi_eigen_residual,
    uncertainty_product,
)
from finitegauss import spectral

# 15 published eigenvalues of -i[Q,P] at d = 15, ascending.
COMMUTATOR_D15 = [
    -27.276466375122,
    -4.322222514423,
    0.649632619978,
    0.988901431861,
    0.999822475466,
    0.999998706977,
    0.999999996717,
    0.999999999998,
    1.000000000091,
    1.000000076444,
    1.000016906603,
    1.001534631543,
    1.067898771074,
    2.560890405316,
    18.32999286747,
]

# Published uncertainty data at kappa = 1: d -> (product, half commutator, gap).
UNCERTAINTY_ROWS = {
    3: (0.44259776311852, 0.44259776311852, 0.0),
    5: (0.49709993841560, 0.49620649757954, 0.000893440),
    7: (0.49985914364743, 0.49985140492777, 7.738719663e-6),
    9: (0.49999327972581, 0.49999098992968, 2.289796128e-6),
    11: (0.49999968416091, 0.49999965440967, 2.975123667e-8),
    13: (0.49999998532738, 0.49999998026367, 5.063715121e-9),
    15: (0.49999999932443, 0.49999999924381, 8.061781262e-11),
}

# Published oscillator levels, full double precision, ascending per size.
OSCILLATOR_LEVELS = {
    3: [0.44259776311852512929, 1.6517973392746703630, 2.0943951023931954923],
    5: [
        0.4969786369997022051,
        1.538153655416400568,
        2.273277799898969258,
        3.512928870280915013,
        4.745031651763185909,
    ],
    7: [
        0.499856150139578337,
        1.502561583500699708,
        2.47233783699377457,
        3.62995143640368874,
        4.09277086004846592,
        5.50140576717735412,
        7.43385759445478451,
    ],
    9: [
        0.499993189736805367,
        1.50016625850219728,
        2.49772584010989943,
        3.51412161417356547,
        4.41464563337680779,
        5.77295679998478618,
        5.92973728896402282,
        7.60184907174441951,
        10.1567063512714060,
    ],
    11: [
        0.499999681486528590,
        1.50000973439528691,
        2.49983706209132176,
        3.50138128059791320,
        4.48940449755755592,
        5.54102579221970530,
        6.3246269976446565,
        7.7995168891272831,
        7.9646966778296552,
        9.8025414079905865,
        12.9088130508553718,
    ],
    13: [
        0.49999998523619522,
        1.50000054667770710,
        2.49998925045441074,
        3.50011404063347207,
        4.4989567577622088,
        5.5054526489310496,
        6.4693456592281102,
        7.5884610505873736,
        8.2116879367741713,
        9.7134880733084487,
        10.2024626522878073,
        12.0888294874935604,
        15.6858062111396956,
    ],
}

# Published quasi-eigenvalue table: d -> (lambda, residuals at n = 1..s).
QUASI_ROWS = {
    3: (0.442598, [2.2e-16]),
    5: (0.489794, [1.2e-2, -1.2e-2]),
    7: (0.498096, [2.8e-3, -8.5e-4, -2.0e-3]),
    9: (0.499638, [5.8e-4, -1.5e-4, 1.3e-4, -5.5e-4]),
    11: (0.49993, [1.1e-4, -3.1e-5, 4.3e-5, -2.9e-5, -1.0e-4]),
}


class TestCommutator:
    @pytest.mark.parametrize("d", [3, 5, 9, 15, 41])
    def test_closed_form_matches_direct_product(self, d):
        dim = Dimension(d)
        q = position_operator(dim).entries
        p = momentum_operator(dim).entries
        direct = q @ p - p @ q
        assert np.max(np.abs(commutator_qp(dim).entries - direct)) <= 1e-13

    def test_published_spectrum_d15(self):
        got = commutator_spectrum(Dimension(15)).eigenvalues
        for computed, printed in zip(sorted(got), sorted(COMMUTATOR_D15)):
            assert abs(computed - printed) <= 1e-9

    def test_trace_free(self):
        for d in (3, 9, 15, 41):
            c = commutator_qp(Dimension(d)).entries
            assert abs(np.trace(c)) == 0.0
            assert abs(sum(commutator_spectrum(Dimension(d)).eigenvalues)) <= 1e-10

    @pytest.mark.parametrize("d", [15, 41])
    def test_bulk_tends_to_one(self, d):
        vals = commutator_spectrum(Dimension(d)).eigenvalues
        middle = vals[d // 3 : -d // 3 or None]
        assert np.max(np.abs(np.asarray(middle) - 1.0)) <= 0.2

    @pytest.mark.parametrize("d", [3, 7, 15])
    def test_floratos_limit_spectrum(self, d):
        # The rank-one approximation has eigenvalues {1 (d-1 times), 1-d}.
        m = floratos_approx(Dimension(d)).entries
        vals = np.sort(np.linalg.eigvalsh(-1j * m @ np.eye(d)).real)
        want = np.sort([1.0] * (d - 1) + [1.0 - d])
        assert np.max(np.abs(vals - want)) <= 1e-12

    def test_floratos_antihermitian(self):
        m = floratos_approx(Dimension(9)).entries
        assert np.max(np.abs(m + m.conj().T)) <= 1e-15


class TestHermitianEig:
    def test_rejects_non_hermitian_kind(self):
        g = OperatorMatrix(Dimension(3), np.eye(3, dtype=complex), MatrixKind.GENERAL)
        with pytest.raises(KindMismatchError):
            hermitian_eig(g)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_bad_residual_tol_before_solving(self, tol, monkeypatch):
        def no_solve(_):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigh", no_solve)
        with pytest.raises(InvalidParameterError):
            hermitian_eig(oscillator_hamiltonian(Dimension(5)), tol)

    def test_residual_bound_holds(self):
        dim = Dimension(21)
        h = oscillator_hamiltonian(dim)
        spec = hermitian_eig(h)
        scale = np.max(np.abs(h.entries))
        for k, lam in enumerate(spec.eigenvalues):
            v = spec.eigenvectors[:, k]
            assert np.linalg.norm(h.entries @ v - lam * v) <= 1e-10 * scale

    def test_eigenvalues_ascending(self):
        spec = hermitian_eig(oscillator_hamiltonian(Dimension(13)))
        assert list(spec.eigenvalues) == sorted(spec.eigenvalues)

    def test_phase_fix_deterministic(self):
        # Largest component of each eigenvector is real positive.
        spec = hermitian_eig(oscillator_hamiltonian(Dimension(9)))
        for k in range(9):
            v = spec.eigenvectors[:, k]
            piv = v[np.argmax(np.abs(v))]
            assert abs(piv.imag) <= 1e-13
            assert piv.real > 0

    def test_orthonormal_eigenvectors(self):
        spec = hermitian_eig(oscillator_hamiltonian(Dimension(11)))
        v = spec.eigenvectors
        assert np.max(np.abs(v.conj().T @ v - np.eye(11))) <= 1e-12


class TestOscillator:
    @pytest.mark.parametrize("d", sorted(OSCILLATOR_LEVELS))
    def test_published_levels(self, d):
        got = hermitian_eig(oscillator_hamiltonian(Dimension(d))).eigenvalues
        want = OSCILLATOR_LEVELS[d]
        assert len(got) == len(want)
        for computed, printed in zip(got, want):
            assert abs(computed - printed) <= 5e-7

    def test_levels_match_published_to_machine_precision(self):
        # The printed levels carry up to 18 digits and agree far below
        # the acceptance tolerance.
        for d, want in OSCILLATOR_LEVELS.items():
            got = hermitian_eig(oscillator_hamiltonian(Dimension(d))).eigenvalues
            assert np.max(np.abs(np.asarray(got) - np.asarray(want))) <= 1e-12

    @pytest.mark.parametrize("d", [5, 9, 13, 31, 101])
    def test_bitwise_equal_to_dense_reference(self, d):
        # Adding Q**2/2 on the diagonal of the free Hamiltonian rounds
        # exactly like adding the dense 0.5*(Q@Q), signed zeros included.
        q = position_operator(Dimension(d)).entries
        want = free_hamiltonian(Dimension(d)).entries + 0.5 * (q @ q)
        assert oscillator_hamiltonian(Dimension(d)).entries.tobytes() == want.tobytes()

    def test_built_with_one_tag_check(self, monkeypatch):
        checks = []
        real_check = OperatorMatrix.__post_init__

        def spy(self):
            checks.append(self.kind)
            real_check(self)

        monkeypatch.setattr(OperatorMatrix, "__post_init__", spy)
        oscillator_hamiltonian(Dimension(9))
        assert checks == [MatrixKind.HERMITIAN]

    @pytest.mark.parametrize("d", [5, 9, 13, 31, 101])
    def test_free_hamiltonian_matches_dense_square(self, d):
        # The circulant build against 0.5*(P@P), whose own rounding
        # dominates the difference: worst seen 3.3e-15 * max|H|.
        p = momentum_operator(Dimension(d)).entries
        want = 0.5 * (p @ p)
        h = free_hamiltonian(Dimension(d)).entries
        assert h.dtype == np.float64
        assert np.max(np.abs(h - want)) <= 1e-14 * np.max(np.abs(h))

    @pytest.mark.parametrize("d", [3, 9, 101, 1001])
    def test_free_hamiltonian_symmetric_and_parity_even(self, d):
        h = free_hamiltonian(Dimension(d)).entries
        assert np.array_equal(h, h.T)
        assert np.array_equal(h, h[::-1, ::-1])

    def test_hamiltonian_commutes_with_fourier(self):
        # FQF+ = P and FPF+ = -Q make H Fourier invariant.
        dim = Dimension(13)
        h = oscillator_hamiltonian(dim).entries
        f = fourier_matrix(dim).entries
        assert np.max(np.abs(f @ h - h @ f)) <= 1e-12

    @pytest.mark.parametrize("d", [9, 31, 101, 301])
    def test_eigenvectors_are_fourier_eigenvectors(self, d):
        # The eigenvectors are discrete Hermite functions: F v_k = lambda v_k
        # with lambda in {1, i, -1, -i}, and lambda = i**k for the low levels.
        # Measured: worst deviation 1.5e-14 at d = 301, and lambda = i**k
        # below k = 0.74*d to 0.78*d for d from 9 to 1001.
        dim = Dimension(d)
        vecs = hermitian_eig(oscillator_hamiltonian(dim)).eigenvectors
        phases = np.array([1.0, 1j, -1.0, -1j])
        for k in range(d):
            v = vecs[:, k]
            fv = fourier_apply(StateVector(dim, v)).amps
            dev = np.max(np.abs(fv[:, None] - v[:, None] * phases), axis=0)
            assert dev.min() <= 1e-13
            if k < 0.7 * d:
                assert np.argmin(dev) == k % 4

    def test_low_levels_approach_half_integers(self):
        vals = hermitian_eig(oscillator_hamiltonian(Dimension(31))).eigenvalues
        for k in range(8):
            assert abs(vals[k] - (k + 0.5)) <= 1e-6


class TestQuasiEigen:
    @pytest.mark.parametrize("d", sorted(QUASI_ROWS))
    def test_published_lambda(self, d):
        rep = quasi_eigen_residual(Dimension(d))
        assert abs(rep.lam - QUASI_ROWS[d][0]) <= 1e-6

    @pytest.mark.parametrize("d", sorted(QUASI_ROWS))
    def test_published_residuals(self, d):
        rep = quasi_eigen_residual(Dimension(d))
        s = d // 2
        for n, printed in enumerate(QUASI_ROWS[d][1], start=1):
            computed = rep.residual[s + n]
            if abs(printed) <= 1e-14 and abs(computed) <= 1e-14:
                continue
            assert abs(computed - printed) <= 0.15 * abs(printed)

    def test_defect_vanishes_at_origin(self):
        rep = quasi_eigen_residual(Dimension(9))
        assert abs(rep.residual[4]) <= 1e-15

    def test_residual_even(self):
        rep = quasi_eigen_residual(Dimension(11))
        s = 5
        for n in range(1, s + 1):
            assert rep.residual[s + n] == pytest.approx(rep.residual[s - n], abs=1e-15)

    def test_lambda_approaches_ground_energy(self):
        rep = quasi_eigen_residual(Dimension(31))
        assert abs(rep.lam - 0.5) <= 1e-9


class TestUncertainty:
    @pytest.mark.parametrize("d", sorted(UNCERTAINTY_ROWS))
    def test_published_products(self, d):
        rep = uncertainty_product(Dimension(d), 1.0)
        product, half_comm, gap = UNCERTAINTY_ROWS[d]
        assert abs(rep.product - product) <= 1e-10
        assert abs(rep.half_comm - half_comm) <= 1e-10
        if gap == 0.0:
            assert abs(rep.gap) <= 1e-12
        else:
            assert abs(rep.gap - gap) <= 0.01 * gap

    def test_spreads_equal_at_self_dual_point(self):
        rep = uncertainty_product(Dimension(9), 1.0)
        assert rep.delta_q == pytest.approx(rep.delta_p, rel=1e-14)

    def test_kappa_inversion_swaps_spreads(self):
        a = uncertainty_product(Dimension(11), 2.0)
        b = uncertainty_product(Dimension(11), 0.5)
        assert a.delta_q == pytest.approx(b.delta_p, rel=1e-12)
        assert a.delta_p == pytest.approx(b.delta_q, rel=1e-12)
        assert a.product == pytest.approx(b.product, rel=1e-12)

    @given(
        st.integers(min_value=1, max_value=12).map(lambda s: 2 * s + 1),
        st.sampled_from([0.25, 1.0 / 3.0, 0.5, 1.0, 2.0, 3.0, 4.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_schwarz_inequality(self, d, kappa):
        rep = uncertainty_product(Dimension(d), kappa)
        assert rep.product >= rep.half_comm - 1e-12
        assert rep.gap >= -1e-12

    def test_gap_limit_is_the_named_constant(self, monkeypatch):
        # d = 5 has gap ~ 8.9e-4; a limit of -2*gap demands gap >= 2*gap and fails it
        gap = uncertainty_product(Dimension(5), 1.0).gap
        monkeypatch.setattr(spectral, "UNCERTAINTY_GAP_TOL", -0.5 * gap)
        assert uncertainty_product(Dimension(5), 1.0).gap == gap
        monkeypatch.setattr(spectral, "UNCERTAINTY_GAP_TOL", -2.0 * gap)
        with pytest.raises(NumericalFailureError, match="lower bound"):
            uncertainty_product(Dimension(5), 1.0)

    def test_product_approaches_half(self):
        rep = uncertainty_product(Dimension(41), 1.0)
        assert abs(rep.product - 0.5) <= 1e-12


class TestStoredSpectrum:
    def test_each_operator_is_solved_once(self, monkeypatch):
        h = oscillator_hamiltonian(Dimension(31))
        shapes = eigh_call_shapes(monkeypatch)
        spec = hermitian_eig(h)
        assert hermitian_eig(h) is spec and hermitian_eig(h, 1e-9) is spec
        assert len(shapes) == 2  # the even and odd blocks, once

    def test_equal_operator_built_anew_is_solved_anew(self, monkeypatch):
        h = oscillator_hamiltonian(Dimension(31))
        spec = hermitian_eig(h)
        shapes = eigh_call_shapes(monkeypatch)
        again = OperatorMatrix(h.dim, h.entries, MatrixKind.HERMITIAN)
        assert np.array_equal(again.entries, h.entries)
        assert hermitian_eig(again) is not spec and len(shapes) == 2
        assert hermitian_eig(dataclasses.replace(h)) is not spec and len(shapes) == 4

    def test_tight_tol_on_a_solved_operator_raises_without_a_solve(self, monkeypatch):
        h = oscillator_hamiltonian(Dimension(31))
        spec = hermitian_eig(h)
        scale = float(np.max(np.abs(h.entries)))
        assert spec.residual > 0.0
        shapes = eigh_call_shapes(monkeypatch)
        with pytest.raises(NumericalFailureError, match="eigenpair residual") as info:
            hermitian_eig(h, 0.5 * spec.residual / scale)
        assert info.value.residual == spec.residual
        assert hermitian_eig(h) is spec and shapes == []

    def test_tight_tol_on_the_first_call_still_keeps_the_spectrum(self, monkeypatch):
        h = oscillator_hamiltonian(Dimension(31))
        shapes = eigh_call_shapes(monkeypatch)
        with pytest.raises(NumericalFailureError):
            hermitian_eig(h, 1e-300)
        spec = hermitian_eig(h)
        assert hermitian_eig(h) is spec and len(shapes) == 2

    def test_failed_solve_keeps_nothing(self, monkeypatch):
        h = oscillator_hamiltonian(Dimension(9))
        real_eigh = np.linalg.eigh

        def diverge(*_):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigh", diverge)
        with pytest.raises(NumericalFailureError, match="did not converge"):
            hermitian_eig(h)
        monkeypatch.setattr(np.linalg, "eigh", real_eigh)
        shapes = eigh_call_shapes(monkeypatch)
        spec = hermitian_eig(h)
        assert len(shapes) == 2 and hermitian_eig(h) is spec

    def test_failed_kind_check_keeps_nothing(self):
        g = OperatorMatrix(Dimension(3), np.eye(3), MatrixKind.GENERAL)
        for _ in range(2):
            with pytest.raises(KindMismatchError):
                hermitian_eig(g)

    def test_spectrum_arrays_cannot_be_thawed(self):
        spec = hermitian_eig(oscillator_hamiltonian(Dimension(9)))
        for a in (spec.eigenvalues, spec.eigenvectors):
            with pytest.raises(ValueError):
                a.setflags(write=True)

    @given(
        st.integers(min_value=1, max_value=30).map(lambda s: 2 * s + 1),
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_stored_spectrum_is_a_fresh_solve_of_a_copy(self, d, seed, real, even):
        rng = np.random.default_rng(seed)
        b = rng.normal(size=(d, d)) if real else rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        a = 0.5 * (b + b.conj().T)
        if even:
            a = 0.5 * (a + a[::-1, ::-1])
        h = OperatorMatrix(Dimension(d), a, MatrixKind.HERMITIAN)
        stored = hermitian_eig(h)
        fresh = hermitian_eig(OperatorMatrix(h.dim, h.entries.copy(), MatrixKind.HERMITIAN))
        assert hermitian_eig(h) is stored and fresh is not stored
        assert stored.residual == fresh.residual
        for got, want in [(stored.eigenvalues, fresh.eigenvalues), (stored.eigenvectors, fresh.eigenvectors)]:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def parity_even_matrix(d: int, seed: int) -> np.ndarray:
    """A random real symmetric matrix that equals its parity image exactly."""
    b = np.random.default_rng(seed).normal(size=(d, d))
    a = 0.5 * (b + b.T)
    return 0.5 * (a + a[::-1, ::-1])


def complex_reference(h: np.ndarray) -> np.ndarray:
    """Eigenvalues of h by the generic path: one dense complex eigh."""
    dim = Dimension(h.shape[0])
    return hermitian_eig(OperatorMatrix(dim, h.astype(complex), MatrixKind.HERMITIAN)).eigenvalues


def eigh_call_shapes(monkeypatch) -> list:
    """Record the shape of every matrix np.linalg.eigh is asked to solve."""
    shapes = []
    real_eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return shapes


# Eigenvalues of a fast path must agree with the complex eigh to this
# fraction of max|H| (worst seen up to d=1001: 3.5e-15), and its
# eigenvectors must be orthonormal to 1e-13.
EIG_AGREE_TOL = 1e-14
ORTHONORMAL_TOL = 1e-13


def assert_matches_reference(spec, h: np.ndarray) -> None:
    d = h.shape[0]
    want = complex_reference(h)
    assert np.max(np.abs(spec.eigenvalues - want)) <= EIG_AGREE_TOL * np.max(np.abs(h))
    v = spec.eigenvectors
    assert v.dtype == np.float64
    assert np.max(np.abs(v.T @ v - np.eye(d))) <= ORTHONORMAL_TOL


class TestParitySplit:
    @given(st.integers(min_value=1, max_value=30).map(lambda s: 2 * s + 1), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_parity_even_matrix(self, d, seed):
        h = parity_even_matrix(d, seed)
        spec = hermitian_eig(OperatorMatrix(Dimension(d), h, MatrixKind.HERMITIAN))
        assert_matches_reference(spec, h)

    @pytest.mark.parametrize("d", [9, 31, 101])
    def test_oscillator(self, d):
        h = oscillator_hamiltonian(Dimension(d))
        assert_matches_reference(hermitian_eig(h), h.entries)

    @pytest.mark.parametrize("d", [9, 31, 101])
    def test_commutator(self, d):
        kernel = (-1j * commutator_qp(Dimension(d)).entries).real
        assert_matches_reference(commutator_spectrum(Dimension(d)), kernel)

    def test_parity_even_matrix_is_solved_as_two_blocks(self, monkeypatch):
        h = parity_even_matrix(21, 7)
        shapes = eigh_call_shapes(monkeypatch)
        hermitian_eig(OperatorMatrix(Dimension(21), h, MatrixKind.HERMITIAN))
        assert shapes == [(11, 11), (10, 10)]

    def test_matrix_without_parity_takes_generic_path(self, monkeypatch):
        h = parity_even_matrix(21, 7)
        h[0, 1] = h[1, 0] = h[0, 1] + 1.0
        shapes = eigh_call_shapes(monkeypatch)
        spec = hermitian_eig(OperatorMatrix(Dimension(21), h, MatrixKind.HERMITIAN))
        assert shapes == [(21, 21)]
        assert_matches_reference(spec, h)

    def test_complex_matrix_takes_generic_path(self, monkeypatch):
        h = parity_even_matrix(21, 7).astype(complex)
        shapes = eigh_call_shapes(monkeypatch)
        spec = hermitian_eig(OperatorMatrix(Dimension(21), h, MatrixKind.HERMITIAN))
        assert shapes == [(21, 21)]
        assert spec.eigenvectors.dtype == np.complex128


def dense_residual(h: np.ndarray, vals: np.ndarray, vecs: np.ndarray) -> float:
    return float(np.max(np.linalg.norm(h @ vecs - vecs * vals, axis=0)))


def spy_calls(monkeypatch, name: str) -> list:
    """Record the arguments of every call to spectral.<name>, which still runs."""
    calls = []
    real = getattr(spectral, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(spectral, name, spy)
    return calls


# The residual reported for the parity blocks must agree with the dense
# residual of the returned eigenpairs to this fraction of max|H| (worst
# seen over 300 random draws and the structured cases up to d=1001: 9.2e-16).
FOLD_AGREE_TOL = 1e-14


def assert_split(vecs: np.ndarray) -> None:
    """vecs holds s+1 exactly even real columns, then s exactly odd ones."""
    s = vecs.shape[0] // 2
    assert vecs.dtype == np.float64
    assert np.array_equal(vecs[::-1, : s + 1], vecs[:, : s + 1])
    assert np.array_equal(vecs[::-1, s + 1 :], -vecs[:, s + 1 :])


def assert_blocks_match_dense(spec, h: np.ndarray) -> None:
    """spec's columns are exactly even or odd, s+1 even, and its residual is that of the dense product."""
    v = spec.eigenvectors
    order = np.argsort(~np.all(v[::-1] == v, axis=0), kind="stable")
    assert_split(v[:, order])
    gap = abs(spec.residual - dense_residual(h, spec.eigenvalues, v))
    assert gap <= FOLD_AGREE_TOL * np.max(np.abs(h))


class TestFoldedResidual:
    """A parity-even matrix is checked on its even and odd blocks, the matrix folded onto n >= 0."""

    @given(st.integers(min_value=1, max_value=30).map(lambda s: 2 * s + 1), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_parity_even_matrix(self, d, seed):
        h = parity_even_matrix(d, seed)
        assert_blocks_match_dense(hermitian_eig(OperatorMatrix(Dimension(d), h, MatrixKind.HERMITIAN)), h)

    @pytest.mark.parametrize("d", [9, 31, 101, 301, 1001])
    def test_oscillator(self, d):
        h = oscillator_hamiltonian(Dimension(d))
        assert_blocks_match_dense(hermitian_eig(h), h.entries)

    @pytest.mark.parametrize("d", [9, 31, 101, 301, 1001])
    def test_commutator(self, d):
        spec = commutator_spectrum(Dimension(d))
        assert_blocks_match_dense(spec, -spectral._commutator_kernel(Dimension(d)))

    @given(st.integers(min_value=1, max_value=30).map(lambda s: 2 * s + 1))
    @settings(max_examples=30, deadline=None)
    def test_free_spectrum_of_any_size(self, d):
        h = free_hamiltonian(Dimension(d))
        assert_blocks_match_dense(free_spectrum(h), h.entries)

    @pytest.mark.parametrize("d", [9, 31, 101, 301, 1001])
    def test_free_spectrum_takes_folded_path(self, d):
        h = free_hamiltonian(Dimension(d))
        assert_blocks_match_dense(free_spectrum(h), h.entries)

    def test_hermitian_eig_reports_the_folded_residual(self, monkeypatch):
        # every matrix eigh solves is checked by _residual, and the worst of them is reported
        solved, checked = [], []
        real_eigh, real_residual = np.linalg.eigh, spectral._residual

        def eigh(a):
            solved.append(a)
            return real_eigh(a)

        def residual(a, vals, vecs):
            checked.append((a, real_residual(a, vals, vecs)))
            return checked[-1][1]

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        monkeypatch.setattr(spectral, "_residual", residual)
        spec = hermitian_eig(oscillator_hamiltonian(Dimension(31)))
        assert [a.shape for a in solved] == [(16, 16), (15, 15)]
        assert len(checked) == len(solved) and all(a is b for (a, _), b in zip(checked, solved))
        assert spec.residual == max(r for _, r in checked)

    def test_parity_test_runs_once_per_call(self, monkeypatch):
        bent = parity_even_matrix(21, 7)
        bent[0, 1] = bent[1, 0] = bent[0, 1] + 1.0
        calls = spy_calls(monkeypatch, "_is_parity_even")
        hermitian_eig(oscillator_hamiltonian(Dimension(31)))
        assert len(calls) == 1
        hermitian_eig(OperatorMatrix(Dimension(21), bent, MatrixKind.HERMITIAN))
        assert len(calls) == 2
        free_spectrum(free_hamiltonian(Dimension(101)))
        assert len(calls) == 3

    @pytest.mark.parametrize("k", [0, 7, 15, 16, 30])
    def test_shifted_eigenvalue_fails_on_folded_path(self, k):
        # k < 16 shifts an eigenvalue of the d = 31 oscillator's even block, k >= 16 one of its odd block
        def shifted(dim, blocks):
            pairs = spectral._parity_split_eigh(dim, blocks)
            even_size = pairs[0][0].size
            block, i = (0, k) if k < even_size else (1, k - even_size)
            pairs[block][0][i] += 1e-6
            return pairs

        h = oscillator_hamiltonian(Dimension(31))
        with pytest.raises(NumericalFailureError) as info:
            spectral._checked_spectrum(h.dim, *spectral._matrix_blocks(h), shifted)
        assert info.value.residual >= 0.99e-6

    def test_complex_matrix_takes_dense_path(self):
        h = OperatorMatrix(Dimension(21), parity_even_matrix(21, 7).astype(complex), MatrixKind.HERMITIAN)
        spec = hermitian_eig(h)
        assert spec.residual == dense_residual(h.entries, *np.linalg.eigh(h.entries))

    def test_split_vectors_of_a_matrix_that_is_not_even_take_dense_path(self):
        h = oscillator_hamiltonian(Dimension(31))
        spec = hermitian_eig(h)
        vals, vecs = spec.eigenvalues, spec.eigenvectors
        bent = h.entries.copy()
        bent[2, 5] += 1e-12
        bent[5, 2] += 1e-12
        given_blocks = []

        def solve(dim, blocks):
            given_blocks.append(blocks)
            return [(vals, vecs)]

        bent_m = OperatorMatrix(Dimension(31), bent, MatrixKind.HERMITIAN)
        spec = spectral._checked_spectrum(bent_m.dim, *spectral._matrix_blocks(bent_m), solve)
        assert [b[0].shape for b in given_blocks] == [(31, 31)] and len(given_blocks[0]) == 1
        assert spec.residual == dense_residual(bent, vals, vecs)

    def test_free_spectrum_of_a_matrix_that_is_not_even_takes_dense_path(self):
        h = free_hamiltonian(Dimension(31))
        bent = h.entries.copy()
        bent[2, 5] += 1e-12
        bent[5, 2] += 1e-12
        m = OperatorMatrix(Dimension(31), bent, MatrixKind.HERMITIAN)
        spec = free_spectrum(m)
        [(vals, vecs)] = spectral._free_eigenpairs(m.dim, (bent,))
        assert_split(vecs)
        assert spec.residual == dense_residual(bent, vals, vecs)
        want = free_spectrum(h)
        assert np.array_equal(spec.eigenvalues, want.eigenvalues)
        assert np.array_equal(spec.eigenvectors, want.eigenvectors)


class TestGaugePivots:
    """Mirrored columns have |v(-n)| = |v(n)| bit for bit, so the gauge's first largest entry lies at n <= 0."""

    @given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_top_half_argmax_is_the_full_argmax(self, s, seed, spread):
        # few distinct magnitudes, so that ties between rows are common
        rng = np.random.default_rng(seed)
        even_w = rng.integers(-spread, spread + 1, size=(s + 1, s + 1)) * 0.5
        odd_w = rng.integers(-spread, spread + 1, size=(s, s)) * 0.5
        _, vecs = spectral._mirrored([(np.zeros(s + 1), even_w), (np.zeros(s), odd_w)])
        full = np.argmax(np.abs(vecs), axis=0)
        assert np.array_equal(full, np.argmax(np.abs(vecs[: s + 1]), axis=0))
        assert np.all(full <= s)

    @pytest.mark.parametrize("d", [3, 9, 31, 101, 301])
    def test_each_column_is_positive_at_its_full_argmax(self, d):
        dim = Dimension(d)
        spectra = [hermitian_eig(oscillator_hamiltonian(dim)), commutator_spectrum(dim),
                   free_spectrum(free_hamiltonian(dim)),
                   hermitian_eig(OperatorMatrix(dim, parity_even_matrix(d, d), MatrixKind.HERMITIAN))]
        for spec in spectra:
            v = spec.eigenvectors
            full = np.argmax(np.abs(v), axis=0)
            assert np.array_equal(full, np.argmax(np.abs(v[: dim.s + 1]), axis=0))
            assert np.all(v[full, np.arange(d)] > 0.0)


class TestFreeSpectrum:
    @given(st.integers(min_value=1, max_value=50).map(lambda s: 2 * s + 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_generic_eigh(self, d):
        h = free_hamiltonian(Dimension(d))
        assert_matches_reference(free_spectrum(h), h.entries)

    @pytest.mark.parametrize("d", [3, 9, 31])
    def test_closed_form_levels(self, d):
        k = np.abs(Dimension(d).indices())
        want = np.sort(np.pi * (k * k) / d)
        assert np.array_equal(free_spectrum(free_hamiltonian(Dimension(d))).eigenvalues, want)

    def test_solves_nothing(self, monkeypatch):
        def no_solve(*_):
            raise AssertionError("eigh called")

        h = free_hamiltonian(Dimension(101))
        monkeypatch.setattr(np.linalg, "eigh", no_solve)
        spec = free_spectrum(h)
        assert spec.residual <= 1e-10 * np.max(np.abs(h.entries))

    def test_other_hamiltonian_fails_the_residual_check(self):
        # The closed-form modes are not eigenvectors of the oscillator.
        h = oscillator_hamiltonian(Dimension(9))
        with pytest.raises(NumericalFailureError) as info:
            free_spectrum(h)
        assert info.value.residual > 1e-10 * np.max(np.abs(h.entries))

    def test_non_hermitian_matrix_is_refused(self):
        with pytest.raises(KindMismatchError):
            free_spectrum(commutator_qp(Dimension(9)))

    @given(st.integers(min_value=1, max_value=150).map(lambda s: 2 * s + 1), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_fft_coefficients_match_the_dense_modes(self, d, seed):
        # Each level k > 0 holds one even (cos) and one odd (sin) mode; the FFT lists cos first.
        dim = Dimension(d)
        rng = np.random.default_rng(seed)
        psi = StateVector(dim, rng.normal(size=d) + 1j * rng.normal(size=d))
        spec = free_spectrum(free_hamiltonian(dim))
        v = spec.eigenvectors
        odd = ~np.all(v == v[::-1], axis=0)
        order = np.lexsort((odd, spec.eigenvalues))
        levels, coeffs = spectral._free_coefficients(psi)
        assert np.array_equal(levels, spec.eigenvalues)
        want = np.abs(v.T @ psi.amps)[order]
        assert np.max(np.abs(np.abs(coeffs) - want)) <= 1e-13 * psi.norm()


class TestSpectrumShape:
    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_holds_one_to_d_levels(self, k):
        spec = Spectrum(Dimension(9), np.arange(k, dtype=float), np.eye(9)[:, :k], 0.0)
        assert spec.eigenvectors.shape == (9, k)

    @pytest.mark.parametrize(
        "vals, vecs",
        [
            (np.arange(3.0), np.eye(9)[:, :4]),  # one more column than levels
            (np.arange(4.0), np.eye(9)[:, :3]),
            (np.arange(0.0), np.eye(9)[:, :0]),  # no level
            (np.arange(10.0), np.ones((9, 10))),  # more levels than the lattice has
            (np.arange(3.0), np.eye(7)[:, :3]),  # rows of another lattice
            (np.arange(3.0), np.eye(9)[:, :3].T),
            (np.zeros((3, 1)), np.eye(9)[:, :3]),  # eigenvalues that are not a vector
            (np.arange(9.0), np.eye(9).ravel()),
        ],
    )
    def test_other_shapes_raise(self, vals, vecs):
        with pytest.raises(DimensionMismatchError):
            Spectrum(Dimension(9), vals, vecs, 0.0)

    @pytest.mark.parametrize("frozen", [False, True])
    def test_keeps_the_callers_arrays_as_they_were(self, frozen):
        # Spectrum froze the caller's vals in place; thawed again, a write showed in the spectrum
        vals, vecs = np.arange(3.0), np.eye(9)[:, :3].copy()
        for a in (vals, vecs):
            a.setflags(write=not frozen)
        spec = Spectrum(Dimension(9), vals, vecs, 0.0)
        for a in (vals, vecs):
            assert a.flags.writeable is not frozen
            a.setflags(write=True)
        vals[0], vecs[0, 0] = 99.0, 99.0
        assert spec.eigenvalues.tolist() == [0.0, 1.0, 2.0] and np.array_equal(spec.eigenvectors, np.eye(9)[:, :3])
        for a in (spec.eigenvalues, spec.eigenvectors):
            with pytest.raises(ValueError):
                a.setflags(write=True)
