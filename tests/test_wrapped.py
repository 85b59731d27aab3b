"""Wrapped-sum core: brute-force oracles, symmetry, theta identities."""
import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finitegauss
from finitegauss import (
    Dimension,
    InvalidDimensionError,
    InvalidParameterError,
    ThetaKind,
    alternating_wrapped_sum,
    finite_gaussian,
    naive_gaussian,
    periodize,
    shifted_finite_gaussian,
    theta,
)

# Window wide enough that the discarded tail is far below double precision
# for every kappa*d used here.
ORACLE_WINDOW = 100
FIXED_WINDOW = 40


def brute_wrapped(d: int, kappa: float, n: int, shifted: bool = False) -> float:
    total = 0.0
    for a in range(-ORACLE_WINDOW, ORACLE_WINDOW + 1):
        x = (a + 0.5) * d + n if shifted else a * d + n
        total += math.exp(-kappa * math.pi * x * x / d)
    return total


def brute_alternating(d: int, kappa: float, n: int) -> float:
    total = 0.0
    for a in range(-ORACLE_WINDOW, ORACLE_WINDOW + 1):
        total += (-1) ** a * math.exp(-kappa * math.pi * (a * d + n) ** 2 / d)
    return total


odd_dims = st.integers(min_value=1, max_value=25).map(lambda s: 2 * s + 1)
kappas = st.sampled_from([0.25, 1.0 / 3.0, 0.5, 1.0, 2.0, 3.0, 4.0])


class TestFiniteGaussian:
    @pytest.mark.parametrize("d", [3, 5, 9, 31])
    @pytest.mark.parametrize("kappa", [0.25, 1.0, 4.0])
    def test_matches_brute_force(self, d, kappa):
        g = finite_gaussian(Dimension(d), kappa)
        for n in range(-(d // 2), d // 2 + 1):
            assert g.value(n) == pytest.approx(brute_wrapped(d, kappa, n), abs=1e-15, rel=1e-14)

    @pytest.mark.parametrize("d", [3, 5, 9, 31])
    @pytest.mark.parametrize("kappa", [0.25, 1.0, 4.0])
    def test_shifted_matches_brute_force(self, d, kappa):
        g = shifted_finite_gaussian(Dimension(d), kappa)
        for n in range(-(d // 2), d // 2 + 1):
            assert g.value(n) == pytest.approx(
                brute_wrapped(d, kappa, n, shifted=True), abs=1e-15, rel=1e-14
            )

    @given(odd_dims, kappas)
    @settings(max_examples=60, deadline=None)
    def test_even_bit_exact(self, d, kappa):
        g = finite_gaussian(Dimension(d), kappa)
        gp = shifted_finite_gaussian(Dimension(d), kappa)
        s = d // 2
        for n in range(1, s + 1):
            assert g.value(n) == g.value(-n)
            assert gp.value(n) == gp.value(-n)

    @given(odd_dims, kappas)
    @settings(max_examples=40, deadline=None)
    def test_positive(self, d, kappa):
        g = finite_gaussian(Dimension(d), kappa)
        assert np.all(g.values > 0)

    def test_value_reduces_modulo_d(self):
        g = finite_gaussian(Dimension(7), 1.0)
        assert g.value(8) == g.value(1)
        assert g.value(-10) == g.value(4)

    def test_peak_at_origin(self):
        g = finite_gaussian(Dimension(11), 1.0)
        assert g.value(0) == max(g.values)

    def test_shifted_peak_at_edge(self):
        gp = shifted_finite_gaussian(Dimension(11), 1.0)
        assert gp.value(5) == max(gp.values)

    def test_truncation_soundness(self):
        # The TERM_TOL window against the same pairs summed outside-in
        # over a fixed, far wider window: the dropped tail is invisible.
        d = 15
        ns = np.arange(-(d // 2), d // 2 + 1, dtype=float)
        for kappa in (0.25, 1.0, 4.0):
            c = kappa * math.pi / d
            for shifted, build in ((False, finite_gaussian), (True, shifted_finite_gaussian)):
                half = 0.5 if shifted else 0.0
                ref = np.zeros(d)
                for a in range(FIXED_WINDOW, -1 if shifted else 0, -1):
                    x = (a + half) * d + ns
                    y = -(a + half) * d + ns
                    ref += np.exp(-c * x * x) + np.exp(-c * y * y)
                if not shifted:
                    ref += np.exp(-c * ns * ns)
                assert np.max(np.abs(build(Dimension(d), kappa).values - ref)) <= 1e-18

    def test_no_public_callable_takes_term_tol(self):
        # One truncation rule, the constant TERM_TOL, for every sum.
        for name in finitegauss.__all__:
            obj = getattr(finitegauss, name)
            if inspect.isfunction(obj) or dataclasses.is_dataclass(obj):
                assert "term_tol" not in inspect.signature(obj).parameters, name

    def test_squared_norm_positive(self):
        g = finite_gaussian(Dimension(9), 1.0)
        assert g.squared_norm() == pytest.approx(float(np.sum(g.values**2)))

    @pytest.mark.parametrize("bad", [0, -1.0, math.inf, math.nan])
    def test_rejects_bad_kappa(self, bad):
        with pytest.raises(InvalidParameterError):
            finite_gaussian(Dimension(5), bad)

    @pytest.mark.parametrize("bad_d", [2, 4, 1, -3, 0])
    def test_rejects_bad_dimension(self, bad_d):
        with pytest.raises(InvalidDimensionError):
            finite_gaussian(Dimension(bad_d), 1.0)

    def test_extreme_kappa_converges(self):
        # Large kappa*d drives the shifted center value below double
        # precision; the window rule must still terminate.
        g = shifted_finite_gaussian(Dimension(101), 12.0)
        assert np.all(np.isfinite(g.values))
        assert g.value(50) > 0


class TestThetaIdentities:
    @pytest.mark.parametrize("d", [3, 7, 15, 31])
    @pytest.mark.parametrize("kappa", [0.25, 1.0 / 3.0, 0.5, 1.0, 3.0])
    def test_gaussian_is_theta3(self, d, kappa):
        g = finite_gaussian(Dimension(d), kappa)
        for n in range(-(d // 2), d // 2 + 1):
            ref = theta(ThetaKind.THETA3, n / d, 1.0 / (kappa * d)) / math.sqrt(kappa * d)
            assert g.value(n) == pytest.approx(ref, rel=1e-14)

    @pytest.mark.parametrize("d", [3, 7, 15, 31])
    @pytest.mark.parametrize("kappa", [0.25, 1.0, 3.0])
    def test_shifted_gaussian_is_theta4(self, d, kappa):
        gp = shifted_finite_gaussian(Dimension(d), kappa)
        for n in range(-(d // 2), d // 2 + 1):
            ref = theta(ThetaKind.THETA4, n / d, 1.0 / (kappa * d)) / math.sqrt(kappa * d)
            assert gp.value(n) == pytest.approx(ref, rel=1e-13, abs=1e-16)

    def test_theta_series_against_wide_sum(self):
        # 201-term direct series as the frozen oracle.
        for kind, offset in ((ThetaKind.THETA3, 0.0), (ThetaKind.THETA4, 0.5), (ThetaKind.THETA2, 0.0)):
            for z in (0.0, 0.1, 0.37, 0.5):
                for t in (0.2, 1.0, 3.7):
                    q = math.exp(-math.pi * t)
                    if kind is ThetaKind.THETA2:
                        ref = sum(
                            2 * q ** ((a + 0.5) ** 2) * math.cos((2 * a + 1) * math.pi * z)
                            for a in range(0, 101)
                        )
                    else:
                        ref = 1.0 + sum(
                            2 * q ** (a * a) * math.cos(2 * math.pi * a * (z + offset))
                            for a in range(1, 101)
                        )
                    assert theta(kind, z, t) == pytest.approx(ref, rel=1e-14, abs=1e-300)

    @pytest.mark.parametrize("kind", list(ThetaKind))
    @pytest.mark.parametrize("shape", [(0,), (7,), (3, 4)])
    def test_theta_array_matches_scalar_calls(self, kind, shape):
        z = np.linspace(-1.3, 1.3, math.prod(shape)).reshape(shape)
        got = theta(kind, z, 0.37)
        assert got.shape == shape
        for zz, value in zip(z.ravel(), got.ravel()):
            assert value == pytest.approx(theta(kind, float(zz), 0.37), rel=1e-15, abs=0.0)

    def test_theta_scalar_returns_float(self):
        assert type(theta(ThetaKind.THETA3, 0.25, 1.0)) is float
        assert type(theta(ThetaKind.THETA2, np.float64(0.25), 1.0)) is float

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_theta_rejects_non_finite_element(self, bad):
        with pytest.raises(InvalidParameterError):
            theta(ThetaKind.THETA4, np.array([0.0, bad, 0.5]), 1.0)
        with pytest.raises(InvalidParameterError):
            theta(ThetaKind.THETA4, bad, 1.0)

    def test_theta_rejects_nonpositive_t(self):
        with pytest.raises(InvalidParameterError):
            theta(ThetaKind.THETA3, 0.0, 0.0)
        with pytest.raises(InvalidParameterError):
            theta(ThetaKind.THETA3, 0.0, -1.0)


class TestSplittingIdentities:
    DIMS = [3, 5, 7, 9, 15, 31, 101]
    KAPPAS = [0.25, 1.0 / 3.0, 1.0, 3.0, 4.0]

    @pytest.mark.parametrize("d", DIMS)
    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_splitting(self, d, kappa):
        dim = Dimension(d)
        g = finite_gaussian(dim, kappa)
        g4 = finite_gaussian(dim, 4 * kappa)
        g4p = shifted_finite_gaussian(dim, 4 * kappa)
        for n in range(-(d // 2), d // 2 + 1):
            assert abs(g.value(2 * n) - (g4.value(n) + g4p.value(n))) <= 1e-13

    @pytest.mark.parametrize("d", DIMS)
    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_alternating(self, d, kappa):
        dim = Dimension(d)
        g4 = finite_gaussian(dim, 4 * kappa)
        g4p = shifted_finite_gaussian(dim, 4 * kappa)
        for n in range(-(d // 2), d // 2 + 1):
            lhs = alternating_wrapped_sum(dim, kappa, 2 * n)
            assert abs(lhs - (g4.value(n) - g4p.value(n))) <= 1e-13

    def test_alternating_matches_brute_force(self):
        for d in (5, 9):
            for kappa in (0.5, 1.0, 2.0):
                for n in range(-d, d + 1):
                    got = alternating_wrapped_sum(Dimension(d), kappa, n)
                    assert got == pytest.approx(brute_alternating(d, kappa, n), abs=1e-16, rel=1e-13)

    def test_alternating_antiperiodic(self):
        dim = Dimension(7)
        for n in range(-7, 8):
            a = alternating_wrapped_sum(dim, 1.0, n)
            b = alternating_wrapped_sum(dim, 1.0, n + 7)
            assert b == pytest.approx(-a, rel=1e-13, abs=1e-18)

    def test_alternating_accepts_arrays(self):
        dim = Dimension(5)
        ns = np.array([-2, -1, 0, 1, 2])
        arr = alternating_wrapped_sum(dim, 1.0, ns)
        for i, n in enumerate(ns):
            assert arr[i] == alternating_wrapped_sum(dim, 1.0, int(n))


class TestNaiveAndPeriodize:
    def test_naive_is_single_term(self):
        d = 9
        nv = naive_gaussian(Dimension(d), 1.0)
        for i, n in enumerate(range(-4, 5)):
            assert nv[i] == pytest.approx(math.exp(-math.pi * n * n / d), rel=1e-15)

    def test_naive_below_wrapped(self):
        g = finite_gaussian(Dimension(7), 1.0)
        nv = naive_gaussian(Dimension(7), 1.0)
        assert np.all(nv <= g.values)

    def test_periodize_recovers_wrapped_gaussian(self):
        # The continuous Gaussian in physical units wraps to the lattice one.
        d, kappa = 9, 1.0
        dim = Dimension(d)
        g = finite_gaussian(dim, kappa)
        per = periodize(lambda x: math.exp(-0.5 * kappa * x * x), dim)
        assert np.max(np.abs(per - g.values)) <= 1e-15

    def test_periodize_constant_rejected(self):
        # A non-decaying sample can never meet the tail criterion.
        from finitegauss import NumericalFailureError

        with pytest.raises(NumericalFailureError):
            periodize(lambda x: 1.0, Dimension(5))


class TestDimension:
    def test_indices_centered(self):
        dim = Dimension(7)
        assert list(dim.indices()) == [-3, -2, -1, 0, 1, 2, 3]

    def test_reduce_and_offset(self):
        dim = Dimension(7)
        assert dim.reduce(4) == -3
        assert dim.reduce(-4) == 3
        assert dim.offset(-3) == 0
        assert dim.offset(3) == 6

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=-200, max_value=200))
    @settings(max_examples=80, deadline=None)
    def test_reduce_is_congruent_and_in_range(self, s, n):
        dim = Dimension(2 * s + 1)
        r = dim.reduce(n)
        assert -s <= r <= s
        assert (r - n) % dim.d == 0
