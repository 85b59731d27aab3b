"""Phase-space grid: defining sum, closed form, theta form, marginals."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitegauss import (
    Dimension,
    WignerSource,
    finite_gaussian,
    shifted_finite_gaussian,
    wigner_closed_form,
    wigner_definition,
    wigner_marginals,
    wigner_theta_form,
)
from finitegauss import wigner

ALL_DIMS = list(range(3, 65, 2))
ALL_KAPPAS = [0.25, 1.0 / 3.0, 0.5, 1.0, 4.0 / 3.0, 2.0, 3.0, 4.0]
# kappa*d just below, at and just above 1, where the wrapped sums change route
BOUNDARY_KD = [1.0 - 1e-12, 1.0, 1.0 + 1e-12]


def brute_wigner(d: int, kappa: float) -> np.ndarray:
    """Defining double sum, no vectorization, as the independent oracle."""
    dim = Dimension(d)
    g = finite_gaussian(dim, kappa)
    s = dim.s
    out = np.empty((d, d))
    for i, n in enumerate(range(-s, s + 1)):
        for j, m in enumerate(range(-s, s + 1)):
            acc = 0.0 + 0.0j
            for k in range(-s, s + 1):
                acc += np.exp(4j * np.pi * m * k / d) * g.value(n - k) * g.value(n + k)
            out[i, j] = acc.real / d
    return out


def dense_kernel_wigner(d: int, kappa: float) -> np.ndarray:
    """Chord table times the d x d table of exp(4j*pi*m*k/d): the O(d**3) reference."""
    dim = Dimension(d)
    g = finite_gaussian(dim, kappa).values
    n = dim.indices()[:, None]
    k = dim.indices()[None, :]
    chords = g[dim.offset(n - k)] * g[dim.offset(n + k)]
    roots = np.exp(2j * np.pi * np.arange(d) / d)
    kernel = roots[np.mod(2 * np.outer(dim.indices(), dim.indices()), d)]
    return (chords @ kernel.T / d).real


def dense_chord_wigner(d: int, kappa: float) -> np.ndarray:
    """The whole d x d chord table gathered by modular index, then one rfft: the blocked sum's reference."""
    dim = Dimension(d)
    g = finite_gaussian(dim, kappa).values
    n = dim.indices()[:, None]
    k = np.fft.ifftshift(dim.indices())[None, :]  # 0..s, -s..-1: the order the DFT reads
    chords = g[dim.offset(n - k)] * g[dim.offset(n + k)]
    spectrum = np.fft.rfft(chords, axis=1) / d
    freq = np.mod(2 * dim.indices(), d)
    return np.take(spectrum, np.minimum(freq, d - freq), axis=1).real


class TestDefinition:
    @pytest.mark.parametrize("d", [3, 5, 9])
    @pytest.mark.parametrize("kappa", [0.5, 1.0, 3.0])
    def test_matches_brute_force(self, d, kappa):
        grid = wigner_definition(Dimension(d), kappa)
        assert np.max(np.abs(grid.values - brute_wigner(d, kappa))) <= 1e-14

    @given(st.integers(min_value=1, max_value=100), st.floats(min_value=-2.0, max_value=2.0))
    @settings(max_examples=40, deadline=None)
    def test_fft_matches_dense_kernel(self, s, log_kappa):
        # Same sum, other order of additions: a few ulps of the peak.
        d, kappa = 2 * s + 1, 10.0**log_kappa
        want = dense_kernel_wigner(d, kappa)
        got = wigner_definition(Dimension(d), kappa).values
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @given(st.integers(min_value=1, max_value=150), st.floats(min_value=-3.0, max_value=3.0),
           st.sampled_from(["one_row", "ragged", "default"]))
    @settings(max_examples=60, deadline=None)
    def test_row_blocks_match_dense_chord_table(self, s, log_kappa, blocks):
        # Each row's rfft reads the same chords in the same order, so the grid is bitwise equal.
        # A constant of d gives 4-row blocks, which leave a ragged last block at every odd d >= 5.
        d, kappa = 2 * s + 1, 10.0**log_kappa
        cells = {"one_row": 1, "ragged": d, "default": wigner._BLOCK_CELLS}[blocks]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(wigner, "_BLOCK_CELLS", cells)
            got = wigner_definition(Dimension(d), kappa).values
        assert got.tobytes() == dense_chord_wigner(d, kappa).tobytes()

    def test_real_valued(self):
        grid = wigner_definition(Dimension(15), 2.0)
        assert grid.values.dtype.kind == "f"

    def test_source_tag(self):
        assert wigner_definition(Dimension(3), 1.0).source is WignerSource.DEFINITION
        assert wigner_closed_form(Dimension(3), 1.0).source is WignerSource.CLOSED_FORM
        assert wigner_theta_form(Dimension(3)).source is WignerSource.THETA_FORM

    @pytest.mark.parametrize("d", [3, 7, 11])
    def test_even_in_both_arguments(self, d):
        v = wigner_definition(Dimension(d), 1.0).values
        assert np.max(np.abs(v - v[::-1, :])) <= 1e-15
        assert np.max(np.abs(v - v[:, ::-1])) <= 1e-15

    def test_sum_rule(self):
        for d, kappa in ((5, 1.0), (9, 0.5), (15, 3.0)):
            grid = wigner_definition(Dimension(d), kappa)
            g = finite_gaussian(Dimension(d), kappa)
            assert float(grid.values.sum()) == pytest.approx(g.squared_norm(), rel=1e-13)

    @pytest.mark.parametrize("d", [3, 5, 9, 15])
    def test_anti_peak_at_far_corner(self, d):
        # The grid minimum is negative and sits at the edge-center point.
        dim = Dimension(d)
        v = wigner_definition(dim, 1.0).values
        i, j = np.unravel_index(np.argmin(v), v.shape)
        assert v[i, j] < 0
        assert abs(i - dim.s) == dim.s and abs(j - dim.s) == dim.s

    def test_value_lookup(self):
        grid = wigner_definition(Dimension(7), 1.0)
        assert grid.value(0, 0) == grid.values[3, 3]
        assert grid.value(-3, 2) == grid.values[0, 5]


class TestClosedFormEquivalence:
    @pytest.mark.parametrize("d", ALL_DIMS)
    @pytest.mark.parametrize("kappa", ALL_KAPPAS)
    def test_equivalence_entrywise(self, d, kappa):
        dim = Dimension(d)
        wd = wigner_definition(dim, kappa).values
        wc = wigner_closed_form(dim, kappa).values
        assert np.max(np.abs(wd - wc)) <= 1e-12 * np.max(np.abs(wd))

    @staticmethod
    def assert_routes_agree(d, kappa):
        dim = Dimension(d)
        wd = wigner_definition(dim, kappa).values
        wc = wigner_closed_form(dim, kappa).values
        assert np.max(np.abs(wd - wc)) <= 1e-12 * np.max(np.abs(wd))

    @given(st.integers(min_value=1, max_value=150).map(lambda s: 2 * s + 1),
           st.floats(min_value=-8.0, max_value=8.0))
    @settings(max_examples=60, deadline=None)
    def test_equivalence_over_every_decade(self, d, log_kappa):
        self.assert_routes_agree(d, 10.0**log_kappa)

    @given(st.integers(min_value=1, max_value=150).map(lambda s: 2 * s + 1), st.sampled_from(BOUNDARY_KD))
    @settings(max_examples=30, deadline=None)
    def test_equivalence_where_kappa_d_crosses_one(self, d, kd):
        self.assert_routes_agree(d, kd / d)

    @pytest.mark.parametrize("kappa", [1e-8, 1e-3, 1.0, 1e8] + [kd / 1001 for kd in BOUNDARY_KD])
    def test_equivalence_at_d_1001(self, kappa):
        self.assert_routes_agree(1001, kappa)

    def test_closed_form_terms(self):
        # Direct assembly from the four wrapped factors.
        d, kappa = 9, 2.0
        dim = Dimension(d)
        g2k = finite_gaussian(dim, 2 * kappa).values
        g2kp = shifted_finite_gaussian(dim, 2 * kappa).values
        h = finite_gaussian(dim, 2.0 / kappa).values
        hp = shifted_finite_gaussian(dim, 2.0 / kappa).values
        want = (np.outer(g2k, h + hp) + np.outer(g2kp, h - hp)) / math.sqrt(2 * kappa * d)
        got = wigner_closed_form(dim, kappa).values
        assert np.max(np.abs(got - want)) <= 1e-15


class TestThetaForm:
    @pytest.mark.parametrize("d", list(range(3, 33, 2)))
    def test_proportional_to_definition(self, d):
        dim = Dimension(d)
        grid = wigner_theta_form(dim)
        ref = wigner_definition(dim, 1.0).values
        fitted = grid.fitted_scale * grid.values
        peak = np.max(np.abs(ref))
        assert np.max(np.abs(fitted - ref)) <= 1e-11 * peak

    @pytest.mark.parametrize("d", list(range(3, 29, 2)))
    def test_pointwise_relative_agreement(self, d):
        # Pointwise comparison holds away from the deep zero crossing,
        # which first enters the grid around d = 29.
        dim = Dimension(d)
        grid = wigner_theta_form(dim)
        ref = wigner_definition(dim, 1.0).values
        fitted = grid.fitted_scale * grid.values
        assert np.max(np.abs(fitted - ref) / np.abs(ref)) <= 1e-11

    @pytest.mark.parametrize("d", [3, 9, 15, 31, 101, 301])
    def test_fitted_scale_closed_form(self, d):
        dim = Dimension(d)
        grid = wigner_theta_form(dim)
        assert grid.fitted_scale == (2 * d**3) ** -0.5
        assert grid.fitted_scale == pytest.approx(1.0 / (math.sqrt(2.0) * d**1.5), rel=1e-12)
        ref = wigner_definition(dim, 1.0).values
        fit = float(np.vdot(grid.values, ref) / np.vdot(grid.values, grid.values))
        assert grid.fitted_scale == pytest.approx(fit, rel=1e-12)

    def test_evaluates_no_other_route(self, monkeypatch):
        import finitegauss.wigner as wigner

        def no_route(*_args, **_kwargs):
            raise AssertionError("another Wigner route was evaluated")

        monkeypatch.setattr(wigner, "wigner_definition", no_route)
        monkeypatch.setattr(wigner, "wigner_closed_form", no_route)
        grid = wigner_theta_form(Dimension(101))
        assert grid.fitted_scale == (2 * 101**3) ** -0.5

    def test_scale_matches_single_point_ratio(self):
        dim = Dimension(15)
        grid = wigner_theta_form(dim)
        ref = wigner_definition(dim, 1.0)
        ratio = ref.value(0, 0) / grid.value(0, 0)
        assert grid.fitted_scale == pytest.approx(ratio, rel=1e-13)


class TestOneGrid:
    @pytest.mark.parametrize("route,d", [(lambda dim: wigner_closed_form(dim, 4.0 / 3.0), 301),
                                         (wigner_theta_form, 301),
                                         (lambda dim: wigner_definition(dim, 0.7), 1001)],
                             ids=["closed", "theta", "definition"])
    def test_peak_holds_one_grid(self, route, d):
        # Filled in blocks of rows: no second grid, complex grid or d x d chord table is ever held.
        dim = Dimension(d)
        route(dim)
        tracemalloc.start()
        try:
            route(dim)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * dim.d * dim.d * 8

    @pytest.mark.parametrize("route", [lambda dim: wigner_definition(dim, 0.7),
                                       lambda dim: wigner_closed_form(dim, 0.7), wigner_theta_form],
                             ids=["definition", "closed", "theta"])
    def test_grid_owns_a_contiguous_buffer(self, route):
        # values is a sealed view (lattice._owned) of one contiguous d x d float64 buffer
        values = route(Dimension(31)).values
        assert values.dtype == np.float64
        assert values.flags.c_contiguous and values.base.flags.owndata
        assert values.base.nbytes == values.nbytes

    def test_definition_keeps_no_complex_grid_alive(self):
        dim = Dimension(301)
        tracemalloc.start()
        try:
            grid = wigner_definition(dim, 1.0)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert grid.values.nbytes == dim.d * dim.d * 8
        assert kept <= 1.1 * grid.values.nbytes

    @pytest.mark.parametrize("block_cells", [1, 100, wigner._BLOCK_CELLS])
    @pytest.mark.parametrize("d", [3, 31, 301])
    def test_blocks_match_outer_products(self, d, block_cells, monkeypatch):
        # block_cells 1 gives one row per block, 100 a ragged last block at d=31
        monkeypatch.setattr(wigner, "_BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(d)
        a, b, c, e = rng.normal(size=(4, d))
        got = wigner._two_products(a, b, c, e)
        assert got.tobytes() == (np.outer(a, b) + np.outer(c, e)).tobytes()


class TestMarginals:
    @pytest.mark.parametrize("d", [3, 7, 15, 31])
    @pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
    def test_position_marginal(self, d, kappa):
        dim = Dimension(d)
        marg = wigner_marginals(wigner_definition(dim, kappa))
        g = finite_gaussian(dim, kappa)
        assert np.max(np.abs(marg.pos - g.values**2)) <= 1e-12

    @pytest.mark.parametrize("d", [3, 7, 15, 31])
    @pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
    def test_momentum_marginal(self, d, kappa):
        # Row sums give the dual Gaussian squared over kappa, the exact
        # image of the geometric phase sum collapsing to a delta.
        dim = Dimension(d)
        marg = wigner_marginals(wigner_definition(dim, kappa))
        dual = finite_gaussian(dim, 1.0 / kappa)
        assert np.max(np.abs(marg.mom - dual.values**2 / kappa)) <= 1e-12

    def test_marginals_consistent_across_sources(self):
        dim = Dimension(9)
        a = wigner_marginals(wigner_definition(dim, 1.0))
        b = wigner_marginals(wigner_closed_form(dim, 1.0))
        assert np.max(np.abs(a.pos - b.pos)) <= 1e-13
        assert np.max(np.abs(a.mom - b.mom)) <= 1e-13
