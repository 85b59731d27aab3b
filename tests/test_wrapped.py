"""Wrapped-sum core: brute-force oracles, symmetry, theta identities."""
import dataclasses
import inspect
import math
import re
import sys

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


def direct_sum(kind: ThetaKind, d: int, kappa: float, ns: np.ndarray) -> np.ndarray:
    """The direct alpha-sum whose theta dual is `kind`, over a fixed window, outside-in."""
    c = kappa * math.pi / d
    half = 0.5 if kind is ThetaKind.THETA4 else 0.0
    acc = np.zeros(ns.shape)
    for a in range(FIXED_WINDOW, -1 if half else 0, -1):
        x = (a + half) * d + ns
        y = -(a + half) * d + ns
        pair = np.exp(-c * x * x) + np.exp(-c * y * y)
        acc += -pair if kind is ThetaKind.THETA2 and a % 2 else pair
    if not half:
        acc += np.exp(-c * ns * ns)
    return acc


def modular_sum(kind: ThetaKind, d: int, kappa: float, ns: np.ndarray) -> np.ndarray:
    """The same sum by Poisson summation: theta_kind(n/d, 1/(kappa*d)) / sqrt(kappa*d)."""
    return theta(kind, ns / d, 1.0 / (kappa * d)) / math.sqrt(kappa * d)


WRAPPED_SUMS = {
    ThetaKind.THETA3: lambda dim, kappa: finite_gaussian(dim, kappa).values,
    ThetaKind.THETA4: lambda dim, kappa: shifted_finite_gaussian(dim, kappa).values,
    ThetaKind.THETA2: lambda dim, kappa: alternating_wrapped_sum(dim, kappa, dim.indices()),
}


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
            for kind in (ThetaKind.THETA3, ThetaKind.THETA4):
                got = WRAPPED_SUMS[kind](Dimension(d), kappa)
                assert np.max(np.abs(got - direct_sum(kind, d, kappa, ns))) <= 1e-18

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

    @pytest.mark.parametrize("n", [10**6, 10**12, 2**63 - 1, -(2**63 - 1)])
    def test_alternating_at_large_n(self, n):
        # n = r + q*d with |r| <= s, reduced in Python's unbounded integers
        dim = Dimension(3)
        q, r = divmod(n, 3)
        if r > dim.s:
            q, r = q + 1, r - 3
        want = alternating_wrapped_sum(dim, 1.0, r)
        want = -want if q % 2 else want
        assert alternating_wrapped_sum(dim, 1.0, n) == want
        # one large entry leaves the other entries of an array as they are
        both = alternating_wrapped_sum(dim, 1.0, np.array([n, 1]))
        assert both.tolist() == [want, alternating_wrapped_sum(dim, 1.0, 1)]


# kappa*d log-uniform over both sides of the route switch at kappa*d = 1
overlap_kd = st.floats(min_value=-1.0, max_value=1.0).map(lambda e: 10.0**e)
both_routes_kd = st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0**e)
wide_dims = st.integers(min_value=1, max_value=500).map(lambda s: 2 * s + 1)


class TestCrossRoute:
    @given(wide_dims, overlap_kd)
    @settings(max_examples=60, deadline=None)
    def test_routes_agree_on_overlap(self, d, kd):
        # On kappa*d in [0.1, 10] both routes converge fast.  g and g+ agree
        # to 1e-15 of their max.
        kappa = kd / d
        ns = Dimension(d).indices().astype(float)
        for kind in (ThetaKind.THETA3, ThetaKind.THETA4):
            direct, modular = direct_sum(kind, d, kappa, ns), modular_sum(kind, d, kappa, ns)
            assert np.max(np.abs(direct - modular)) <= 1e-15 * np.max(modular)

    @given(wide_dims, overlap_kd)
    @settings(max_examples=60, deadline=None)
    def test_alternating_routes_agree_on_overlap(self, d, kd):
        # Measured against g_kappa, the sum of the absolute terms, not against
        # its own max: the direct route cancels terms as large as max g, and
        # at kappa*d = 0.1 its rounding is 1e-13 of the alternating sum's own
        # max.  At |n| up to 3d the theta phases 2*pi*h*n/d carry about
        # 2e-15 of rounding, hence 4e-15.
        kappa = kd / d
        ns = np.arange(-3 * d, 3 * d + 1, dtype=float)
        direct = direct_sum(ThetaKind.THETA2, d, kappa, ns)
        modular = modular_sum(ThetaKind.THETA2, d, kappa, ns)
        scale = np.max(direct_sum(ThetaKind.THETA3, d, kappa, ns))
        assert np.max(np.abs(direct - modular)) <= 4e-15 * scale

    @given(wide_dims, both_routes_kd, st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_alternating_antiperiodic_bitwise(self, d, kd, n, q):
        dim = Dimension(d)
        want = alternating_wrapped_sum(dim, kd / d, n)
        want = -want if q % 2 else want
        got = alternating_wrapped_sum(dim, kd / d, n + q * d)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @given(wide_dims, both_routes_kd)
    @settings(max_examples=60, deadline=None)
    def test_library_takes_the_theta_route_below_kappa_d_one(self, d, kd):
        kappa = kd / d
        dim = Dimension(d)
        ns = dim.indices().astype(float)
        for kind, build in WRAPPED_SUMS.items():
            values = build(dim, kappa)
            if kappa * d < 1.0:
                assert np.array_equal(values, modular_sum(kind, d, kappa, ns))
            else:
                scale = np.max(direct_sum(ThetaKind.THETA3, d, kappa, ns))
                assert np.max(np.abs(values - direct_sum(kind, d, kappa, ns))) <= 1e-18 * scale

    @given(wide_dims, both_routes_kd)
    @settings(max_examples=60, deadline=None)
    def test_both_routes_bit_even(self, d, kd):
        dim = Dimension(d)
        for build in WRAPPED_SUMS.values():
            values = build(dim, kd / d)
            assert np.array_equal(values, values[::-1])

    @pytest.mark.parametrize("d", [1, 3, 31, 1001])
    def test_every_decade_of_kappa(self, d):
        # Dimension refuses d = 1 before kappa is looked at.  For d >= 3 every
        # decade up to 1e307, and float max / pi, the largest kappa whose
        # kappa*pi is finite, returns finite, non-negative values, positive
        # wherever the largest single term is a positive double (at large
        # kappa it underflows, and so does the sum).  Warnings are errors, so
        # no term may overflow.
        if d == 1:
            with pytest.raises(InvalidDimensionError):
                finite_gaussian(d, 1.0)
            return
        dim = Dimension(d)
        ns = dim.indices().astype(float)
        for kappa in [10.0**e for e in range(-300, 308)] + [sys.float_info.max / math.pi]:
            c = kappa * math.pi / d
            for values, dist in (
                (finite_gaussian(dim, kappa).values, np.abs(ns)),
                (shifted_finite_gaussian(dim, kappa).values, d / 2 - np.abs(ns)),
                (naive_gaussian(dim, kappa), np.abs(ns)),
            ):
                assert np.all(np.isfinite(values)) and np.all(values >= 0), kappa
                # beyond sqrt(746/c) the term is 0.0, and c*dist*dist may overflow
                near = np.minimum(dist, math.sqrt(746.0 / c))
                lead = np.exp(-c * near * near)
                assert np.all(values[lead > 0] > 0), kappa
            assert np.all(np.isfinite(alternating_wrapped_sum(dim, kappa, dim.indices()))), kappa

    @pytest.mark.parametrize(
        "d, kappa",
        [(3, 1.7e308), (1001, 1.7e308), (3, 1e-310), (31, 1e-310), (3, 5e-324), (1001, 5e-324)],
    )
    def test_out_of_range_kappa_raises_before_allocating(self, d, kappa, monkeypatch):
        # kappa*pi/d or 1/(kappa*d) is not finite; the lattice indices are
        # never built.
        assert not (math.isfinite(kappa * math.pi / d) and math.isfinite(1.0 / (kappa * d)))
        monkeypatch.setattr(Dimension, "indices", lambda self: pytest.fail("allocated"))
        for call in (
            lambda: finite_gaussian(d, kappa),
            lambda: shifted_finite_gaussian(d, kappa),
            lambda: alternating_wrapped_sum(d, kappa, 0),
        ):
            with pytest.raises(InvalidParameterError, match=re.escape(f"kappa = {kappa!r} is out of range at d = {d}:")):
                call()

    def test_tiny_kappa_matches_long_double_sum(self):
        # kappa = 1e-13 at d = 301 needs ~8e5 direct terms a side; the
        # reference sums them in long double.  Agreement to 1e-15 relative.
        d, kappa = 301, 1e-13
        g = finite_gaussian(d, kappa)
        pi = np.longdouble("3.141592653589793238462643383279502884")
        c = np.longdouble(kappa) * pi / d
        amax = int(math.sqrt(60.0 / (math.pi * kappa * d))) + 1
        alphas = np.arange(-amax, amax + 1, dtype=np.longdouble)
        for n in (0, d // 2):
            x = alphas * d + n
            ref = float(np.sum(np.exp(-c * x * x)))
            assert g.value(n) == pytest.approx(ref, rel=1e-15, abs=0.0)


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

    @pytest.mark.parametrize("d", [3, 1001])
    def test_naive_refuses_out_of_range_kappa_and_keeps_tiny_kappa(self, d):
        # kappa*pi/d overflowed to inf, and -inf * 0 gave nan at n = 0.
        with pytest.raises(InvalidParameterError, match=re.escape(f"kappa = {1.7e308!r} is out of range at d = {d}:")):
            naive_gaussian(d, 1.7e308)
        # At the small end kappa*pi/d underflows to 0 or a subnormal, which is finite.
        assert np.array_equal(naive_gaussian(d, 5e-324), np.ones(d))

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
