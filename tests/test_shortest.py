"""The vectorized shortest-digit kernel writes exactly the text of `repr`."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitegauss import Dimension, wigner_closed_form, wigner_definition, wigner_theta_form
from finitegauss._shortest import RowFormatter
from finitegauss.lattice import _BLOCK_CELLS


def reprs(values) -> list[str]:
    return list(map(repr, np.asarray(values, dtype=np.float64).tolist()))


def kernel(values) -> list[str]:
    """The kernel's text of each value on its own, one value per row."""
    return RowFormatter(",").join_rows(np.asarray(values, dtype=np.float64).reshape(-1, 1))


def neighbours(v: float) -> list[float]:
    return [float(np.nextafter(v, -np.inf)), v, float(np.nextafter(v, np.inf))]


# The smallest subnormal, the smallest normal and the largest finite value, and
# repr's switches between positional and exponent notation at 1e-4 and 1e16.
EDGES = [5e-324, 2.2250738585072014e-308, float(np.nextafter(2.2250738585072014e-308, 0.0)),
         1.7976931348623157e308]
EDGES += [x for v in (1e-5, 1e-4, 1e15, 1e16, 1e17) for x in neighbours(v)]
EDGES += [0.0, np.inf, np.nan, 0.1, 1.0 / 3.0, 1.0, 9.5, 10.0, 123456789.0, 2.0**53, 2.0**53 + 2.0]
EDGES += [-v for v in EDGES]


class TestMatchesRepr:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.floats(width=64), min_size=1, max_size=40))
    def test_floats(self, values):
        assert kernel(values) == reprs(values)

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    def test_bit_patterns(self, patterns):
        values = np.array(patterns, dtype=np.uint64).view(np.float64)
        assert kernel(values) == reprs(values)

    def test_powers_of_two(self):
        # the spacing below a power of two is half the spacing above it
        values = np.ldexp(1.0, np.arange(-1074, 1024))
        assert values.size == 2098
        assert kernel(values) == reprs(values)
        assert kernel(-values) == reprs(-values)

    def test_named_edges(self):
        assert kernel(EDGES) == reprs(EDGES)

    def test_every_decimal_point_position(self):
        # 1.2345 10^e for every exponent: each point position and each exponent width
        values = [float(f"1.2345e{e}") for e in range(-320, 309)] + [float(f"7e{e}") for e in range(-323, 309)]
        assert kernel(values) == reprs(values)

    def test_random_values_across_chunks(self):
        rng = np.random.default_rng(20)
        values = np.concatenate([
            rng.integers(0, 2**64, 3 * _BLOCK_CELLS, dtype=np.uint64).view(np.float64),
            rng.random(_BLOCK_CELLS),
            10.0 ** rng.uniform(-323, 308, _BLOCK_CELLS),
            rng.integers(0, 2**52, _BLOCK_CELLS, dtype=np.uint64).view(np.float64),
            np.round(rng.uniform(-1e6, 1e6, _BLOCK_CELLS), 3),
            rng.integers(-10**6, 10**6, _BLOCK_CELLS).astype(np.float64),
        ])
        assert kernel(values) == reprs(values)

    @pytest.mark.parametrize("route", ["definition", "closed", "theta"])
    def test_distinct_values_of_the_d_1001_grids(self, route):
        dim = Dimension(1001)
        grid = {"definition": lambda: wigner_definition(dim, 1.0), "closed": lambda: wigner_closed_form(dim, 1.0),
                "theta": lambda: wigner_theta_form(dim)}[route]()
        values = np.unique(grid.values.view(np.int64)).view(np.float64)
        assert values.size > 100_000
        assert kernel(values) == reprs(values)


class TestRows:
    @pytest.mark.parametrize("sep", [",", ",\n      "])
    def test_rows_join_their_cells(self, sep):
        rng = np.random.default_rng(3)
        values = 10.0 ** rng.uniform(-30, 5, (7, 9)) * rng.choice([-1.0, 1.0], (7, 9))
        assert RowFormatter(sep).join_rows(values) == [sep.join(reprs(row)) for row in values]

    def test_columns_repeat_cells(self):
        values = np.array([[0.5, -0.0, 1e-300], [np.inf, 2.0, np.nan]])
        columns = np.array([2, 1, 0, 1, 2])
        assert RowFormatter(",").join_rows(values, columns) == [",".join(reprs(row[columns])) for row in values]

    def test_rows_longer_than_a_chunk(self):
        values = np.linspace(-1.0, 1.0, 8 * _BLOCK_CELLS + 3).reshape(1, -1)
        assert RowFormatter(",").join_rows(values) == [",".join(reprs(values[0]))]

    @staticmethod
    def traced_join(formatter, rows, columns) -> int:
        """The peak of the heap that tracemalloc sees while the formatter joins rows."""
        tracemalloc.start()
        try:
            formatter.join_rows(rows, columns)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_of_a_d_1001_block_stays_small(self):
        # The buffers live in mappings of their own, which tracemalloc does not see, and the
        # kernel's temporaries on the heap, where it does: one block of the d=1001 CSV, 16 half
        # rows with mirror columns, maps about 0.8 MB and peaks at about 2.3 MB of heap.
        formatter = RowFormatter(",")
        block = 4 * _BLOCK_CELLS // 1001
        columns = np.abs(np.arange(-500, 501))
        assert self.traced_join(formatter, np.ones((block, 501)), columns) <= 4e6
        assert sum(b.size for b in formatter.buffers.values()) <= 3e6
        # Four blocks at once are formatted in two steps, whose temporaries do not add up:
        # about 4.2 MB, where one step over all of them would take about 8.5 MB.
        assert self.traced_join(RowFormatter(","), np.ones((4 * block, 501)), columns) <= 6e6
