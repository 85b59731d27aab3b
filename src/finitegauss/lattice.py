"""Centered index bookkeeping for odd cyclic lattices.

Everything in this package lives on Z_d with d odd, addressed by the
centered representatives n = -s..s where d = 2s+1.  Arrays are stored
with n = -s first, so position n sits at offset n + s.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityExceededError, InvalidDimensionError

_BLOCK_CELLS = 4096  # cells per block of row-blocked work: one temporary block stays in cache
_MAX_ARRAY_BYTES = 2**31  # the largest dense array built; a complex d x d at d = 10001 takes 1.6e9 bytes


@dataclass(frozen=True)
class Dimension:
    """An odd lattice size d = 2s+1 with s >= 1."""

    d: int

    def __post_init__(self):
        if not isinstance(self.d, (int, np.integer)) or isinstance(self.d, bool):
            raise InvalidDimensionError(f"lattice size must be an integer, got {self.d!r}")
        if self.d < 3 or self.d % 2 == 0:
            raise InvalidDimensionError(f"lattice size must be odd and >= 3, got {self.d}")
        object.__setattr__(self, "d", int(self.d))

    @property
    def s(self) -> int:
        return (self.d - 1) // 2

    def indices(self) -> np.ndarray:
        """Centered representatives -s..s in storage order."""
        return np.arange(-self.s, self.s + 1)

    def reduce(self, n) -> np.ndarray | int:
        """Map any integer (or integer array) to its centered representative."""
        return (np.asarray(n) + self.s) % self.d - self.s

    def offset(self, n) -> np.ndarray | int:
        """Storage offset of the centered representative of n."""
        return (np.asarray(n) + self.s) % self.d


def as_dimension(d) -> Dimension:
    """Coerce an int or Dimension to a Dimension."""
    if isinstance(d, Dimension):
        return d
    return Dimension(d)


def _row_blocks(rows: int, width: int, cells: int) -> list[slice]:
    """Slices covering rows 0..rows-1 of a `width`-wide array, about `cells` cells and at least one row each."""
    step = max(1, cells // width)
    return [slice(i, i + step) for i in range(0, rows, step)]


def _sealed(a: np.ndarray) -> np.ndarray:
    """A read-only view of the fresh array a, frozen in place: a must be held by no caller.

    numpy refuses to make a view writeable while its owner is read-only, so the view stays frozen.
    """
    a.setflags(write=False)
    return a.view()


def _owned(a, dtype=None) -> np.ndarray:
    """a as an array that no one can write: a read-only view of a read-only array (a _sealed one) is kept as
    it is, and anything else is copied, as dtype if given, and sealed, so the caller's own array stays as it was."""
    if (isinstance(a, np.ndarray) and not a.flags.writeable and isinstance(a.base, np.ndarray)
            and not a.base.flags.writeable and (dtype is None or a.dtype == dtype)):
        return a
    return _sealed(np.array(a, dtype=dtype))


def _check_capacity(rows: int, cols: int, itemsize: int) -> None:
    """Raise CapacityExceededError, before allocating, when a rows x cols array exceeds _MAX_ARRAY_BYTES."""
    if rows * cols * itemsize > _MAX_ARRAY_BYTES:
        raise CapacityExceededError(
            f"a {rows} x {cols} array of {itemsize}-byte entries exceeds {_MAX_ARRAY_BYTES} bytes"
        )
