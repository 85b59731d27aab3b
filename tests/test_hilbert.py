"""Fourier transform, Weyl pair, coherent frame, Mehta eigenvectors."""
import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitegauss import (
    CapacityExceededError,
    DegenerateVectorError,
    Dimension,
    DimensionMismatchError,
    KindMismatchError,
    MatrixKind,
    OperatorMatrix,
    PhasePoint,
    PhasePointRangeError,
    StateVector,
    UnsupportedOrderError,
    coherent_state,
    finite_gaussian,
    fourier_apply,
    fourier_matrix,
    frame_resolution_residual,
    hermitian_eig,
    mehta_eigenvector,
    momentum_operator,
    oscillator_hamiltonian,
    position_operator,
)
from finitegauss import spectral, wigner
from finitegauss.hilbert import HERMITIAN_TOL, _displacement_action, _frame_symbol, _hermite_functions
from finitegauss.lattice import _MAX_ARRAY_BYTES, _check_capacity


def brute_fourier(dim: Dimension) -> np.ndarray:
    d, s = dim.d, dim.s
    f = np.empty((d, d), dtype=complex)
    for i, k in enumerate(range(-s, s + 1)):
        for j, n in enumerate(range(-s, s + 1)):
            f[i, j] = np.exp(2j * np.pi * k * n / d) / math.sqrt(d)
    return f


class TestFourier:
    @pytest.mark.parametrize("d", [3, 5, 9, 15])
    def test_matches_direct_kernel(self, d):
        dim = Dimension(d)
        f = fourier_matrix(dim)
        assert np.max(np.abs(f.entries - brute_fourier(dim))) <= 1e-15

    @pytest.mark.parametrize("d", [3, 7, 21, 41])
    def test_unitary(self, d):
        f = fourier_matrix(Dimension(d)).entries
        assert np.max(np.abs(f.conj().T @ f - np.eye(d))) <= 1e-13

    @pytest.mark.parametrize("d", [3, 9, 25])
    def test_fourth_power_is_identity(self, d):
        f = fourier_matrix(Dimension(d)).entries
        assert np.max(np.abs(np.linalg.matrix_power(f, 4) - np.eye(d))) <= 1e-12

    def test_apply_matches_matrix(self):
        dim = Dimension(11)
        rng = np.random.default_rng(7)
        amps = rng.normal(size=11) + 1j * rng.normal(size=11)
        psi = StateVector(dim, amps)
        via_apply = fourier_apply(psi).amps
        via_matrix = fourier_matrix(dim).entries @ amps
        assert np.max(np.abs(via_apply - via_matrix)) <= 1e-13

    @given(st.integers(min_value=1, max_value=100), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_fft_matches_dense_matrix(self, s, seed):
        # Forward against F, inverse against F^dag; rounding only, relative to |psi|.
        dim = Dimension(2 * s + 1)
        rng = np.random.default_rng(seed)
        psi = StateVector(dim, rng.normal(size=dim.d) + 1j * rng.normal(size=dim.d))
        f = fourier_matrix(dim).entries
        assert np.max(np.abs(fourier_apply(psi).amps - f @ psi.amps)) <= 1e-14 * psi.norm()
        back = fourier_apply(psi, inverse=True).amps
        assert np.max(np.abs(back - f.conj().T @ psi.amps)) <= 1e-14 * psi.norm()

    def test_inverse_round_trip(self):
        dim = Dimension(9)
        rng = np.random.default_rng(3)
        psi = StateVector(dim, rng.normal(size=9) + 1j * rng.normal(size=9))
        back = fourier_apply(fourier_apply(psi), inverse=True)
        assert np.max(np.abs(back.amps - psi.amps)) <= 1e-13

    @given(st.integers(min_value=1, max_value=20))
    @settings(max_examples=30, deadline=None)
    def test_norm_preserved(self, s):
        dim = Dimension(2 * s + 1)
        rng = np.random.default_rng(s)
        psi = StateVector(dim, rng.normal(size=dim.d) + 1j * rng.normal(size=dim.d))
        assert fourier_apply(psi).norm() == pytest.approx(psi.norm(), rel=1e-12)

    @pytest.mark.parametrize("d", list(range(3, 102, 2)))
    @pytest.mark.parametrize("kappa", [0.25, 1.0 / 3.0, 0.5, 1.0, 2.0, 3.0, 4.0])
    def test_gaussian_duality(self, d, kappa):
        # F maps the kappa Gaussian to the 1/kappa one, scaled by 1/sqrt(kappa).
        dim = Dimension(d)
        g = finite_gaussian(dim, kappa)
        dual = finite_gaussian(dim, 1.0 / kappa)
        out = fourier_apply(StateVector(dim, g.values.astype(complex))).amps
        assert np.max(np.abs(out - dual.values / math.sqrt(kappa))) <= 1e-13


class TestPositionMomentum:
    @pytest.mark.parametrize("d", [3, 5, 9, 21, 41])
    def test_momentum_is_conjugated_position(self, d):
        dim = Dimension(d)
        f = fourier_matrix(dim).entries
        q = position_operator(dim).entries
        p = momentum_operator(dim).entries
        assert np.max(np.abs(f @ q @ f.conj().T - p)) <= 1e-12

    @pytest.mark.parametrize("d", [3, 9, 21])
    def test_position_is_anticonjugated_momentum(self, d):
        dim = Dimension(d)
        f = fourier_matrix(dim).entries
        q = position_operator(dim).entries
        p = momentum_operator(dim).entries
        assert np.max(np.abs(f @ p @ f.conj().T + q)) <= 1e-12

    def test_position_diagonal(self):
        dim = Dimension(7)
        q = position_operator(dim).entries
        want = math.sqrt(2 * math.pi / 7) * np.arange(-3, 4)
        assert np.max(np.abs(q - np.diag(want))) == 0.0

    def test_momentum_hermitian_with_zero_diagonal(self):
        p = momentum_operator(Dimension(9))
        assert p.kind is MatrixKind.HERMITIAN
        assert np.max(np.abs(np.diag(p.entries))) == 0.0

    def test_spectra_match(self):
        # P = FQF+ forces identical eigenvalue sets.
        dim = Dimension(11)
        q_eigs = np.sort(np.diag(position_operator(dim).entries).real)
        p_eigs = np.sort(np.linalg.eigvalsh(momentum_operator(dim).entries))
        assert np.max(np.abs(q_eigs - p_eigs)) <= 1e-12


def displacement(dim: Dimension, alpha: int, beta: int) -> np.ndarray:
    """The dense d x d matrix of D(alpha, beta), built from the action that coherent_state applies."""
    phases, cols = _displacement_action(dim, alpha, beta)
    entries = np.zeros((dim.d, dim.d), dtype=complex)
    entries[np.arange(dim.d), cols] = phases
    return entries


class TestDisplacement:
    def test_translation_part(self):
        dim = Dimension(5)
        a = displacement(dim, 1, 0)
        psi = np.array([0, 0, 1, 0, 0], dtype=complex)
        moved = a @ psi
        assert moved[3] == pytest.approx(1.0)

    def test_modulation_part(self):
        dim = Dimension(5)
        b = displacement(dim, 0, 1)
        psi = np.ones(5, dtype=complex)
        out = b @ psi
        want = np.exp(2j * np.pi * np.arange(-2, 3) / 5)
        assert np.max(np.abs(out - want)) <= 1e-14

    @pytest.mark.parametrize("d", [3, 5, 9])
    def test_unitary(self, d):
        dim = Dimension(d)
        s = dim.s
        for alpha in (-s, 0, 1, s):
            for beta in (-s, 0, 1, s):
                m = displacement(dim, alpha, beta)
                assert np.max(np.abs(m.conj().T @ m - np.eye(d))) <= 1e-14

    @given(
        st.integers(min_value=1, max_value=7),
        st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_braiding_phase(self, s, data):
        # A^alpha B^beta = exp(-2 pi i alpha beta / d) B^beta A^alpha
        d = 2 * s + 1
        dim = Dimension(d)
        alpha = data.draw(st.integers(min_value=-s, max_value=s))
        beta = data.draw(st.integers(min_value=-s, max_value=s))
        a = np.linalg.matrix_power(displacement(dim, 1, 0), alpha % d)
        b = np.linalg.matrix_power(displacement(dim, 0, 1), beta % d)
        phase = np.exp(-2j * np.pi * alpha * beta / d)
        assert np.max(np.abs(a @ b - phase * b @ a)) <= 1e-12

    def test_composition_from_weyl_pair(self):
        # D(alpha,beta) equals the phased product of pure shift and modulation.
        dim = Dimension(7)
        for alpha, beta in ((1, 2), (-3, 3), (2, -1)):
            dab = displacement(dim, alpha, beta)
            a = np.linalg.matrix_power(displacement(dim, 1, 0), alpha % 7)
            b = np.linalg.matrix_power(displacement(dim, 0, 1), beta % 7)
            phase = np.exp(1j * np.pi * alpha * beta / 7)
            assert np.max(np.abs(dab - phase * a @ b)) <= 1e-12


class TestCoherent:
    def test_center_is_normalized_gaussian(self):
        dim = Dimension(9)
        g = finite_gaussian(dim, 1.0)
        want = g.values / math.sqrt(g.squared_norm())
        got = coherent_state(dim, PhasePoint(0, 0)).amps
        assert np.max(np.abs(got - want)) <= 1e-14

    def test_displaced_norm_one(self):
        dim = Dimension(11)
        for alpha, beta in ((1, 0), (2, -3), (-5, 5)):
            assert coherent_state(dim, PhasePoint(alpha, beta)).norm() == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("d", [3, 5, 9, 15])
    def test_tight_frame(self, d):
        assert frame_resolution_residual(Dimension(d)) <= 1e-12

    @pytest.mark.parametrize("d", [3, 5, 9, 15, 31])
    def test_frame_sum_matches_double_loop(self, d):
        # The circulant symbol, read at (j - l) mod d, against the d**2
        # projectors summed one at a time.
        dim = Dimension(d)
        want = np.zeros((d, d), dtype=complex)
        for alpha in range(-dim.s, dim.s + 1):
            for beta in range(-dim.s, dim.s + 1):
                v = coherent_state(dim, PhasePoint(alpha, beta)).amps
                want += np.outer(v, v.conj())
        want /= d
        j, l = np.indices((d, d))
        assert np.max(np.abs(_frame_symbol(dim)[(j - l) % d] - want)) <= 1e-14

    def test_frame_symbol_holds_no_square_table(self):
        # A d x d complex table is 16 MB at d = 1001; the symbol takes blocks of beta and an FFT.
        dim = Dimension(1001)
        tracemalloc.start()
        try:
            _frame_symbol(dim)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * dim.d * 16

    def test_point_out_of_range_rejected(self):
        with pytest.raises(PhasePointRangeError):
            coherent_state(Dimension(5), PhasePoint(3, 0))
        with pytest.raises(PhasePointRangeError):
            coherent_state(Dimension(5), PhasePoint(0, -3))

    def test_overlap_modulus_depends_on_separation_only(self):
        dim = Dimension(7)
        c00 = coherent_state(dim, PhasePoint(0, 0)).amps
        c11 = coherent_state(dim, PhasePoint(1, 1)).amps
        c22 = coherent_state(dim, PhasePoint(2, 2)).amps
        first = abs(np.vdot(c00, c11))
        second = abs(np.vdot(c11, c22))
        assert first == pytest.approx(second, rel=1e-12)


class TestMehta:
    @pytest.mark.parametrize("d", [9, 15, 31])
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5, 6])
    def test_fourier_eigenvector(self, d, k):
        dim = Dimension(d)
        fk = mehta_eigenvector(dim, k)
        out = fourier_apply(fk).amps
        assert np.max(np.abs(out - (1j**k) * fk.amps)) <= 1e-11

    def test_order_zero_is_gaussian(self):
        # The order-0 periodization of exp(-x**2/2), x = sqrt(2*pi/d)*(alpha*d + n), is the wrapped
        # Gaussian g_1 with no scaling, at every window size from d = 3 up.
        for d in (3, 9, 31, 101, 1001):
            f0 = mehta_eigenvector(Dimension(d), 0).amps
            assert np.max(np.abs(f0 - finite_gaussian(Dimension(d), 1.0).values)) <= 1e-15

    @staticmethod
    def oscillator_overlap_defect(d: int) -> float:
        # An independent route: the dense eigenvectors v_k of the lattice oscillator, levels in ascending order.
        spec = hermitian_eig(oscillator_hamiltonian(Dimension(d)))
        defects = []
        for k in range(7):
            f = mehta_eigenvector(Dimension(d), k).amps
            defects.append(1.0 - abs(np.vdot(spec.eigenvectors[:, k], f / np.linalg.norm(f))))
        return max(defects)

    @pytest.mark.parametrize("d", [31, 41, 101])
    def test_matches_the_oscillator_eigenvectors(self, d):
        assert self.oscillator_overlap_defect(d) <= 1e-14

    def test_oscillator_overlap_defect_at_small_d(self):
        # Below d = 31 the two families differ visibly; the defect shrinks fast with d (7.3e-4 at d = 9).
        for d in (9, 11, 15, 21):
            defect = self.oscillator_overlap_defect(d)
            print(f"d={d}: worst 1 - |<v_k, f_k>| over k <= 6 = {defect:.2e}")
            assert defect < 1e-2

    def test_parity(self):
        dim = Dimension(11)
        s = dim.s
        for k in range(7):
            v = mehta_eigenvector(dim, k).amps.real
            sign = (-1) ** k
            for n in range(1, s + 1):
                assert v[s + n] == pytest.approx(sign * v[s - n], abs=1e-15)

    def test_unsupported_order(self):
        with pytest.raises(UnsupportedOrderError):
            mehta_eigenvector(Dimension(9), 7)
        with pytest.raises(UnsupportedOrderError):
            mehta_eigenvector(Dimension(9), -1)

    def test_degenerate_small_dimension(self):
        # At d = 3 the order-3 periodization cancels identically.
        with pytest.raises(DegenerateVectorError):
            mehta_eigenvector(Dimension(3), 3)


def decimal_hermite_functions(x: float, count: int) -> list:
    """psi_0..psi_{count-1} at the double x, by the normalized recurrence in 40-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 40
        pi = Decimal("3.141592653589793238462643383279502884197169")
        xd = Decimal(x)  # the double's exact value
        gauss = (-xd * xd / 2).exp()
        prev, h, out = Decimal(0), 1 / pi.sqrt().sqrt(), []
        for k in range(count):
            out.append(float(h * gauss))
            prev, h = h, (Decimal(2) / (k + 1)).sqrt() * xd * h - (Decimal(k) / (k + 1)).sqrt() * prev
        return out


class TestHermiteFunctions:
    # At d = 10001 the lattice reaches x = 125 and the Ritz cap d // 8 reaches k = 1249, whose turning
    # point is near x = 50; an unscaled recurrence loses psi_k beyond x = 38.6, where exp(-x**2/2) underflows.
    D = 10001

    @pytest.fixture(scope="class")
    def lattice_functions(self):
        x = math.sqrt(2.0 * math.pi / self.D) * np.arange(self.D // 2 + 1)
        return x, _hermite_functions(x, self.D // 8)

    def test_matches_a_decimal_reference(self, lattice_functions):
        x, funcs = lattice_functions
        for n in (0, 1, 500, 1000, 1300, 1500, 1700, 2000, 3000, 5000):
            want = np.array(decimal_hermite_functions(float(x[n]), self.D // 8))
            assert np.max(np.abs(funcs[:, n] - want)) <= 1e-13, n

    def test_lattice_norms_are_one(self, lattice_functions):
        # step * sum over n = -s..s of psi_k(x_n)**2, from the half lattice n >= 0
        x, funcs = lattice_functions
        norms = x[1] * (funcs[:, 0] ** 2 + 2.0 * np.sum(funcs[:, 1:] ** 2, axis=1))
        assert np.max(np.abs(norms - 1.0)) <= 1e-11

    def test_no_entry_is_subnormal(self, lattice_functions):
        _, funcs = lattice_functions
        assert not np.any((funcs != 0.0) & (np.abs(funcs) < np.finfo(float).tiny))


class TestStateAndOperatorTypes:
    def test_state_requires_matching_length(self):
        with pytest.raises(DimensionMismatchError):
            StateVector(Dimension(5), np.zeros(4, dtype=complex))

    def test_normalize_zero_vector_rejected(self):
        psi = StateVector(Dimension(5), np.zeros(5, dtype=complex))
        with pytest.raises(DegenerateVectorError):
            psi.normalized()

    @pytest.mark.parametrize(
        "amp, phase", [(1e308, 1.0), (1.7e308, 1.0), (1.7e308 + 1.7e308j, (1.0 + 1.0j) / math.sqrt(2.0))]
    )
    def test_normalize_vector_whose_sum_of_squares_overflows(self, amp, phase):
        # the norm overflowed to inf and the vector normalized to zero
        unit = StateVector(Dimension(3), [amp] * 3).normalized()
        assert np.allclose(unit.amps, phase / math.sqrt(3.0), rtol=1e-15, atol=0.0)
        assert unit.norm() == pytest.approx(1.0, rel=1e-15)

    def test_norm_of_a_vector_whose_sum_of_squares_overflows(self):
        # np.linalg.norm squares first, so a norm of 1.73e308 read inf
        assert StateVector(Dimension(3), [1e308] * 3).norm() == pytest.approx(math.sqrt(3.0) * 1e308, rel=1e-15)
        assert StateVector(Dimension(3), [-1e308, 1e308j, 0.0]).norm() == pytest.approx(
            math.sqrt(2.0) * 1e308, rel=1e-15
        )
        assert StateVector(Dimension(3), [1.7e308] * 3).norm() == math.inf

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_operator_keeps_its_own_copy(self, dtype):
        # the entries were the caller's array, frozen; once thawed, a write bent the tagged matrix
        h = np.eye(3, dtype=dtype)
        m = OperatorMatrix(Dimension(3), h, MatrixKind.HERMITIAN)
        assert h.flags.writeable and not m.entries.flags.writeable
        h[0, 1] = 5.0
        assert np.array_equal(m.entries, np.eye(3))
        big = np.eye(5, dtype=dtype)
        view = OperatorMatrix(Dimension(3), big[1:4, 1:4], MatrixKind.HERMITIAN)
        big[1, 2] = 5.0
        assert np.array_equal(view.entries, np.eye(3))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_operator_entries_cannot_be_thawed(self, dtype):
        # entries was an owned array, so setflags(write=True) let a write reach an operator after its solve
        m = OperatorMatrix(Dimension(3), np.eye(3, dtype=dtype), MatrixKind.HERMITIAN)
        with pytest.raises(ValueError):
            m.entries.setflags(write=True)
        assert np.array_equal(m.entries, np.eye(3))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_state_keeps_its_own_copy(self, dtype):
        amps = np.ones(3, dtype=dtype)
        psi = StateVector(Dimension(3), amps)
        assert amps.flags.writeable and not psi.amps.flags.writeable
        amps[0] = np.nan
        assert np.array_equal(psi.amps, np.ones(3))

    def test_hermitian_kind_checked(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(KindMismatchError):
            OperatorMatrix(Dimension(3), np.eye(3) + np.triu(np.ones((3, 3)), 1), MatrixKind.HERMITIAN)
        assert bad is not None

    def test_hermitian_check_compares_with_the_adjoint(self):
        # complex symmetric is not hermitian: the check compares with the conjugate transpose
        with pytest.raises(KindMismatchError):
            OperatorMatrix(Dimension(3), np.full((3, 3), 1j), MatrixKind.HERMITIAN)
        herm = np.ones((3, 3)) + 1j * (np.triu(np.ones((3, 3)), 1) - np.tril(np.ones((3, 3)), -1))
        assert OperatorMatrix(Dimension(3), herm, MatrixKind.HERMITIAN).entries.dtype == np.complex128

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_hermitian_tolerance_is_relative_to_the_largest_entry(self, dtype):
        a = 4.0 * np.ones((3, 3), dtype=dtype)
        a[0, 1] += 4.0 * 0.5 * HERMITIAN_TOL
        OperatorMatrix(Dimension(3), a.copy(), MatrixKind.HERMITIAN)
        a[0, 1] += 4.0 * HERMITIAN_TOL
        with pytest.raises(KindMismatchError):
            OperatorMatrix(Dimension(3), a, MatrixKind.HERMITIAN)

    def test_real_entries_stay_real(self):
        assert position_operator(Dimension(5)).entries.dtype == np.float64
        assert OperatorMatrix(Dimension(3), np.eye(3, dtype=int)).entries.dtype == np.float64
        assert momentum_operator(Dimension(5)).entries.dtype == np.complex128

    def test_unitary_kind_checked(self):
        with pytest.raises(KindMismatchError):
            OperatorMatrix(Dimension(3), 2.0 * np.eye(3, dtype=complex), MatrixKind.UNITARY)

    def test_apply_checks_dimension(self):
        op = fourier_matrix(Dimension(5))
        psi = StateVector(Dimension(7), np.ones(7, dtype=complex))
        with pytest.raises(DimensionMismatchError):
            op.apply(psi)


# One lattice size past the budget: a float64 d x d array there takes 1.3e12 bytes.
HUGE = Dimension(400001)

DENSE_BUILDERS = {
    "oscillator_hamiltonian": lambda: spectral.oscillator_hamiltonian(HUGE),
    "free_hamiltonian": lambda: spectral.free_hamiltonian(HUGE),
    "commutator_qp": lambda: spectral.commutator_qp(HUGE),
    "commutator_spectrum": lambda: spectral.commutator_spectrum(HUGE),
    "floratos_approx": lambda: spectral.floratos_approx(HUGE),
    "uncertainty_product": lambda: spectral.uncertainty_product(HUGE, 1.0),
    "quasi_eigen_residual": lambda: spectral.quasi_eigen_residual(HUGE),
    "momentum_operator": lambda: momentum_operator(HUGE),
    "position_operator": lambda: position_operator(HUGE),
    "fourier_matrix": lambda: fourier_matrix(HUGE),
    "wigner_definition": lambda: wigner.wigner_definition(HUGE, 1.0),
    "wigner_closed_form": lambda: wigner.wigner_closed_form(HUGE, 1.0),
    "wigner_theta_form": lambda: wigner.wigner_theta_form(HUGE),
    # even and odd blocks of s columns each, as views that hold one number
    "_mirrored": lambda: spectral._mirrored(
        [(np.zeros(HUGE.s + 1), np.broadcast_to(0.0, (HUGE.s + 1, HUGE.s + 1))),
         (np.zeros(HUGE.s), np.broadcast_to(0.0, (HUGE.s, HUGE.s)))]),
}


class TestCapacityGuard:
    @pytest.fixture
    def no_large_allocation(self, monkeypatch):
        """np.empty and np.zeros refuse any array of more than 10**7 entries."""
        for name in ("empty", "zeros"):
            real = getattr(np, name)

            def guarded(shape, *args, real=real, **kwargs):
                assert np.prod(shape, dtype=float) <= 1e7, f"allocates {shape}"
                return real(shape, *args, **kwargs)

            monkeypatch.setattr(np, name, guarded)

    @pytest.mark.parametrize("build", DENSE_BUILDERS.values(), ids=DENSE_BUILDERS.keys())
    def test_dense_builders_refuse_before_allocating(self, build, no_large_allocation):
        with pytest.raises(CapacityExceededError, match="exceeds 2147483648 bytes"):
            build()

    def test_budget_keeps_every_documented_size(self):
        # a complex d x d array fits up to d = 11585, so every path at d <= 10001 runs
        _check_capacity(10001, 10001, 16)
        _check_capacity(11585, 11585, 16)
        with pytest.raises(CapacityExceededError):
            _check_capacity(11587, 11587, 16)
        assert _MAX_ARRAY_BYTES == 2**31
