"""Shortest round-trip text of float64 arrays, byte for byte as `repr` writes it.

The digits are chosen by Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020; compare Ryu, U. Adams, PLDI 2018) on uint64 arrays, with
64 x 64 -> 128-bit products taken from 32-bit halves.  `repr`'s rule differs
from the paper's Java code in two places: the candidate one digit shorter is
tried whenever s >= 10, not only from s >= 100, and subnormals are not
rescaled.  Each value is written into a fixed-column byte layout whose unused
columns a pattern table zeroes; dropping the NUL bytes leaves the text.

The kernel is plain array expressions, run on 4 * _BLOCK_CELLS values at a
time, so that its temporaries, about 265 bytes a value, are freed step by
step.  What a `RowFormatter` keeps from one call to the next lives in
anonymous mappings of its own: the values it is given, their cells and the
cells repeated by columns.  Kept, the buffers are made once per render:
fresh heap arrays per call raised cli-large's peak RSS from 100.2-103.8 MB
to 104.2-111.0 MB, and a fresh mapping per call made the d=1001 grids
15-40% slower (4 and 2 pairs of runs on a shared 2-core host).  Mapped, a
buffer outgrown during a render is returned to the system instead of
leaving a hole in the heap between the row texts.  Integer arrays keep
explicit dtypes, since uint64 mixed with int64 is float64.
"""
from __future__ import annotations

import functools
import mmap

import numpy as np

from .lattice import _BLOCK_CELLS

_K_MIN, _K_MAX = -324, 292  # decimal exponents k of the 126-bit powers 10^-k
_DEC_MIN, _DEC_MAX = -323, 309  # decimal point positions: 5e-324 is 0.5e-323, 1.8e308 is 0.18e309

# Cell columns: the sign, the "0.000" of values below 1e-3, 18 slots for the
# digits and the point, then "e", the exponent's sign and three digits.  The
# slots hold d1 . d2 .. d17; below 1 the point is dropped, and at point
# positions 2..16 the slots of those values are shifted to d1 .. dp . dp+1 ..
_SLOTS, _E, _WIDTH = 6, 24, 29
# Pattern keys: 17 per class, one per count of significant digits, then inf and nan.
_ZERO_KEY = 17 * 4  # point position 1 with one digit: "0.0"
_SHIFTED_KEYS = (17 * 5, 17 * 20)  # point positions 2..16
_INF_KEY, _NAN_KEY = 17 * 22, 17 * 22 + 1

_U64 = np.uint64
_ABS = _U64((1 << 63) - 1)
_LOW32 = _U64(0xFFFFFFFF)

def _table_of_g():
    """g = g1 2^63 + g0 with (g - 1) 2^r <= 10^-k < g 2^r and 2^125 <= g < 2^126, for each k."""
    g1, g0 = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        p = 10 ** abs(k)
        if k <= 0:
            r = p.bit_length() - 126
            g = (p >> r if r >= 0 else p << -r) + 1
        else:
            g = (1 << 125 + p.bit_length()) // p + 1
        g1.append(g >> 63)
        g0.append(g & (1 << 63) - 1)
    return np.array(g1, np.uint64), np.array(g0, np.uint64)


def _patterns():
    """One row per point position class and count of significant digits, then inf and nan.

    A column that holds a constant carries its byte, one that takes a digit,
    a sign or a shifted point carries 0xFF, an unused one 0.  Classes 0..19
    are the point positions -3..16, which `repr` writes positionally; 20 and
    21 are exponent text with two and with three exponent digits.
    """
    rows = []
    for cls in range(22):
        for n in range(1, 18):
            row = bytearray(_WIDTH)
            row[0] = 0xFF
            slots = b"\xff" + (b"." if n > 1 else b"\0") + b"\xff" * (n - 1)
            if cls <= 3:  # 0.ddd to 0.000ddd
                row[1:6 - cls] = b"0.000"[:5 - cls]
                slots = slots[:1] + b"\0" + slots[2:]
            elif cls == 4:  # d.ddd, d.0
                slots = b"\xff." + b"\xff" * max(n - 1, 1)
            elif cls < 20:  # digits around a shifted point, at least one after it
                slots = b"\xff" * (max(n, cls - 2) + 1)
            else:  # d.ddde+XX
                row[_E:] = b"e\xff" + (b"\xff" if cls == 21 else b"\0") + b"\xff\xff"
            row[_SLOTS:_SLOTS + len(slots)] = slots
            rows.append(bytes(row))
    rows.append(b"\xffinf".ljust(_WIDTH, b"\0"))
    rows.append(b"\0nan".ljust(_WIDTH, b"\0"))
    return np.frombuffer(b"".join(rows), np.uint8).reshape(len(rows), _WIDTH)


@functools.cache  # built by the first formatter, not at import
def _tables() -> dict:
    g1, g0 = _table_of_g()
    four = np.arange(10000)
    decpt = np.arange(_DEC_MIN, _DEC_MAX + 1)
    cls = np.where((decpt < -3) | (decpt > 16), 20 + (np.abs(decpt - 1) >= 100), decpt + 3)
    return {
        # the 32-bit halves of g1 and g0, then g1 whole for the low word of g1 cp
        "g": np.stack([g1 >> 32, g1 & _LOW32, g0 >> 32, g0 & _LOW32, g1]),
        "pow10": 10 ** np.arange(18, dtype=np.uint64),
        # the four digit characters of 0..9999 as the bytes of one uint32
        "digits4": (four[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8).view(np.uint32)[:, 0],
        "exponent": np.frombuffer(b"".join(b"%03d" % i for i in range(325)), np.uint8).reshape(325, 3),
        # by point position: the key of its class with 17 significant digits
        "key": (17 * cls + 16).astype(np.intp),
        # trailing zeros of four decimal digits
        "zeros4": sum(four % p == 0 for p in (10, 100, 1000, 10000)).astype(np.uint8),
        # slots d1 .. dp . dp+1 .. d17 for point position p, from d1 .. d17 and a point
        "shift": np.array([list(range(p)) + [17] + list(range(p, 17)) for p in range(17)], np.intp),
        "patterns": _patterns(),
    }


def _scratch(nbytes: int) -> np.ndarray:
    """nbytes in an anonymous mapping of their own, which is unmapped when the array is freed.

    Off the heap, a render's buffers leave no free space there for the row
    texts that outlive them to pin.
    """
    return np.frombuffer(mmap.mmap(-1, max(nbytes, 1)), np.uint8)[:nbytes]


def _mulhi(a1, a0, b1, b0):
    """floor(a b / 2^64) from 32-bit halves, for a < 2^63 and b < 2^60.

    Those bounds keep (a0 b0 >> 32) + a0 b1 + a1 b0 below 2^64, so the middle
    terms need no split.
    """
    return a1 * b1 + ((((a0 * b0) >> _U64(32)) + a0 * b1 + a1 * b0) >> _U64(32))


def _rop(g, cp):
    """Schubfach's r_o(g cp): g cp / 2^127 rounded to odd, with g from the table's columns."""
    g1h, g1l, g0h, g0l, g1 = g
    cph, cpl = cp >> _U64(32), cp & _LOW32
    z = ((g1 * cp) >> _U64(1)) + _mulhi(g0h, g0l, cph, cpl)
    return (_mulhi(g1h, g1l, cph, cpl) + (z >> _U64(63))) | (((z & _ABS) + _ABS) >> _U64(63))


def _decimal(x, t):
    """Shortest decimals f 10^k of |x|, and the mask of zeros, infinities and nans."""
    bits = x.view(np.uint64) & _ABS
    special = bits - _U64(1) >= _U64(0x7FEFFFFFFFFFFFFF)
    bits[special] = _U64(0x3FF0000000000000)  # 1.0 until the keys are set

    # |x| = c 2^q; the spacing below c is irregular at the powers of two above the subnormals
    q = (bits >> _U64(52)).view(np.int64)
    c = bits & _U64((1 << 52) - 1)
    irregular = (c == _U64(0)) & (q > 1)
    c |= (q != 0).astype(np.uint64) << _U64(52)
    q = np.maximum(q, 1) - 1075

    # k = floor(log10 2^q), or floor(log10 (3/4) 2^q) on irregular spacing; h = q + floor(log2 10^-k) + 2
    k = (q * 661971961083 - irregular * np.int64(274743187321)) >> 41
    h = (k * -913124641741 >> 38) + q + 2
    g = np.take(t["g"], k - _K_MIN, axis=1, mode="clip")

    # vb, vbr, vbl: |x| and the ends of its rounding interval, times 4 / 10^k, rounded to odd
    cb = c << _U64(2)
    vb, vbr, vbl = _rop(g, np.stack([cb, cb + _U64(2), cb - _U64(2) + irregular]) << h.view(np.uint64))
    # the ends belong to the interval when c is even: y 10^k is inside iff lo <= 4 y <= hi
    odd = c & _U64(1)
    lo, hi = vbl + odd, vbr - odd

    # s or s + 1, whichever is inside, or the nearer one, the even one on a tie
    s = vb >> _U64(2)
    s4 = s << _U64(2)
    nearer = (s4 + _U64(4) > hi) | (vb < s4 - (s & _U64(1)) + _U64(3))
    f = s + _U64(1) - ((lo <= s4) & nearer)
    # unless one digit fewer fits: 10 floor(s / 10) or the next multiple of 10, when exactly one is inside
    s10 = s // _U64(10)
    lower = lo <= s10 * _U64(40)
    fewer = (lower != (s10 * _U64(40) + _U64(40) <= hi)) & (s >= _U64(10))
    return np.where(fewer, (s10 + _U64(1) - lower) * _U64(10), f), k, special


def _cells(x, cells, t, patterns) -> None:
    """Write the layout of the float64 values x into the rows of cells."""
    f, k, special = _decimal(x, t)
    # f has nd digits: scale it to 17, so the point sits nd digits after the first
    nd = np.searchsorted(t["pow10"], f, side="right")
    decpt = k + nd
    f *= np.take(t["pow10"], 17 - nd, mode="clip")
    f[special] = 0  # "0.0" for zeros

    # 17 digits as a digit and four groups of four
    first, rest = np.divmod(f, _U64(10**16))
    high, low = np.divmod(rest, _U64(10**8))
    groups = np.stack([first, *np.divmod(high, _U64(10**4)), *np.divmod(low, _U64(10**4))], axis=1).view(np.intp)
    chars = np.take(t["digits4"], groups, mode="clip").view(np.uint8)[:, 3:]  # "000d" then four groups

    # the key of the pattern: point position class and significant digits
    zeros = np.take(t["zeros4"], groups[:, 1:], mode="clip")
    tz, run = zeros[:, 3].copy(), True
    for j in (2, 1, 0):  # a group of four zeros carries the count on to the group before it
        run = run & (zeros[:, j + 1] == 4)
        tz += run * zeros[:, j]
    key = np.take(t["key"], decpt - _DEC_MIN, mode="clip") - tz
    if special.any():
        at = np.flatnonzero(special)
        magnitude = x[at].view(np.uint64) & _ABS
        key[at] = np.where(magnitude == 0, _ZERO_KEY,
                           np.where(magnitude == 0x7FF0000000000000, _INF_KEY, _NAN_KEY))

    np.take(patterns, key, axis=0, out=cells, mode="clip")
    cells[:, 0] &= np.where(x.view(np.uint64) >= _U64(1 << 63), np.uint8(ord("-")), np.uint8(0))
    cells[:, _SLOTS] &= chars[:, 0]
    cells[:, _SLOTS + 2:_E] &= chars[:, 1:]
    # exponent decpt - 1: its sign and three digits
    cells[:, _E + 1] &= np.where(decpt < 1, np.uint8(ord("-")), np.uint8(ord("+")))
    cells[:, _E + 2:_WIDTH] &= np.take(t["exponent"], np.abs(decpt - 1), axis=0, mode="clip")

    # point positions 2..16: the point moves into the digits
    at = np.flatnonzero((key >= _SHIFTED_KEYS[0]) & (key < _SHIFTED_KEYS[1]))
    if at.size:
        source = np.empty((at.size, 18), np.uint8)
        source[:, :17] = chars[at]
        source[:, 17] = ord(".")
        shifted = np.take_along_axis(source, t["shift"][decpt[at]], axis=1)
        cells[at, _SLOTS:_E] = patterns[key[at], _SLOTS:_E] & shifted


class RowFormatter:
    """The text of rows of float64 values, each value as `repr` writes it, cells joined by sep.

    A formatter keeps its buffers from one call to the next, grown to the
    largest call, so that a render of many blocks of rows maps them once.
    They live in mappings of their own; the kernel's temporaries, a step of
    4 * _BLOCK_CELLS values at a time, are freed before the row texts are made.
    """

    def __init__(self, sep: str):
        sep_bytes = np.frombuffer(sep.encode("ascii"), np.uint8)
        self.width = _WIDTH + sep_bytes.size
        self.tables = _tables()
        self.patterns = np.empty((len(self.tables["patterns"]), self.width), np.uint8)
        self.patterns[:, :_WIDTH] = self.tables["patterns"]
        self.patterns[:, _WIDTH:] = sep_bytes
        self.buffers = {}

    def _buffer(self, name: str, nbytes: int) -> np.ndarray:
        """The first nbytes of the named buffer, grown if it is smaller."""
        if name not in self.buffers or self.buffers[name].size < nbytes:
            self.buffers[name] = _scratch(nbytes)
        return self.buffers[name][:nbytes]

    def join_rows(self, rows, columns=None) -> list[str]:
        """sep.join(map(repr, row[columns].tolist())) for each row, a 2-D array or a list of equal rows.

        Given columns, a row repeats cells of its values without formatting
        them again.  Rows may be views into a larger array.
        """
        if not len(rows):
            return []
        shape = len(rows), len(rows[0])
        values = self._buffer("values", 8 * shape[0] * shape[1]).view(np.float64).reshape(shape)
        for target, row in zip(values, rows):
            target[:] = row
        flat = values.reshape(-1)
        cells = self._buffer("formatted", flat.size * self.width).reshape(*shape, self.width)
        flat_cells = cells.reshape(-1, self.width)
        step = 4 * _BLOCK_CELLS
        for start in range(0, flat.size, step):
            _cells(flat[start:start + step], flat_cells[start:start + step], self.tables, self.patterns)
        if columns is not None:
            repeated = self._buffer("repeated", shape[0] * len(columns) * self.width)
            cells = np.take(cells, columns, axis=1, out=repeated.reshape(shape[0], len(columns), self.width),
                            mode="clip")
        cells[:, -1, _WIDTH:] = 0  # no separator after a row's last cell
        # Row by row, the temporaries are the size of the texts that outlive
        # them, so each row's temporaries fit where the last row's were.
        return [row.tobytes().translate(None, b"\0").decode("ascii") for row in cells]
