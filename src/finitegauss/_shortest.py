"""Shortest round-trip text of float64 arrays, byte for byte as `repr` writes it.

The digits are chosen by Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020; compare Ryu, U. Adams, PLDI 2018) on uint64 arrays, with
64 x 64 -> 128-bit products taken from 32-bit halves.  `repr`'s rule differs
from the paper's Java code in two places: the candidate one digit shorter is
tried whenever s >= 10, not only from s >= 100, and subnormals are not
rescaled.  Each value is written into a fixed-column byte layout whose unused
columns a pattern table zeroes; dropping the NUL bytes leaves the text.

Every array op writes into work arrays that a `RowFormatter` allocates once,
in mappings of their own: fresh temporaries at each step, or buffers in the
heap between the row texts that outlive them, leave a heap that is not
returned after a render.  Integer arrays keep explicit dtypes, since uint64
mixed with int64 is float64.
"""
from __future__ import annotations

import functools
import math
import mmap
from types import SimpleNamespace

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


class _Work:
    """Work arrays for up to `size` values, in one mapping; `view(n)` gives their first n entries by name."""

    U64 = ("bits", "c", "cb", "cp", "vb", "vbl", "vbr", "lo", "hi", "s", "s10", "f",
           "cph", "cpl", "x1", "z", "w1", "w2")
    I64 = ("q", "k", "h", "index", "decpt", "key")
    BOOL = ("special", "negative", "irregular", "flag", "up", "inside", "zero_run")
    U8 = ("sign", "exponent_sign", "tz")

    def __init__(self, size: int):
        self.size = size
        # the 8-byte types first, so that every array is aligned
        fields = [(name, np.uint64, (size,)) for name in self.U64]
        fields += [(name, np.int64, (size,)) for name in self.I64]
        fields += [("g", np.uint64, (5, size)), ("groups", np.intp, (size, 5)), ("digits", np.uint32, (size, 5))]
        fields += [(name, np.bool_, (size,)) for name in self.BOOL]
        fields += [(name, np.uint8, (size,)) for name in self.U8]
        fields += [("zeros", np.uint8, (size, 4)), ("exponent", np.uint8, (size, 3))]
        nbytes = [np.dtype(dtype).itemsize * math.prod(shape) for _, dtype, shape in fields]
        memory = _scratch(sum(nbytes))
        self.arrays, start = {}, 0
        for (name, dtype, shape), n in zip(fields, nbytes):
            self.arrays[name] = memory[start:start + n].view(dtype).reshape(shape)
            start += n

    def view(self, n: int) -> SimpleNamespace:
        return SimpleNamespace(**{name: a[:, :n] if name == "g" else a[:n] for name, a in self.arrays.items()})


def _mulhi(a1, a0, b1, b0, out, w1, w2):
    """out = floor(a b / 2^64) from 32-bit halves, for a < 2^63 and b < 2^60.

    Those bounds keep (a0 b0 >> 32) + a0 b1 + a1 b0 below 2^64, so the middle
    terms need no split.
    """
    np.multiply(a0, b0, out=w1)
    np.right_shift(w1, 32, out=w1)
    np.multiply(a0, b1, out=w2)
    np.add(w1, w2, out=w1)
    np.multiply(a1, b0, out=w2)
    np.add(w1, w2, out=w1)
    np.right_shift(w1, 32, out=w1)
    np.multiply(a1, b1, out=out)
    np.add(out, w1, out=out)


def _rop(g, cp, out, w):
    """Schubfach's r_o(g cp): g cp / 2^127 rounded to odd, with g from the table's columns."""
    g1h, g1l, g0h, g0l, g1 = g
    np.right_shift(cp, 32, out=w.cph)
    np.bitwise_and(cp, _LOW32, out=w.cpl)
    _mulhi(g0h, g0l, w.cph, w.cpl, w.x1, w.w1, w.w2)
    _mulhi(g1h, g1l, w.cph, w.cpl, out, w.w1, w.w2)
    z = w.z
    np.multiply(g1, cp, out=z)
    np.right_shift(z, 1, out=z)
    np.add(z, w.x1, out=z)
    np.right_shift(z, 63, out=w.w1)
    np.add(out, w.w1, out=out)
    np.bitwise_and(z, _ABS, out=z)
    np.add(z, _ABS, out=z)
    np.right_shift(z, 63, out=z)
    np.bitwise_or(out, z, out=out)


def _decimal(x, w, t) -> None:
    """Shortest decimals f 10^k of |x| into w.f and w.k; w.special marks zeros, infinities and nans."""
    bits, c, q, k, h = w.bits, w.c, w.q, w.k, w.h
    np.bitwise_and(x.view(np.uint64), _ABS, out=bits)
    np.subtract(bits, _U64(1), out=c)
    np.greater_equal(c, _U64(0x7FEFFFFFFFFFFFFF), out=w.special)
    np.copyto(bits, _U64(0x3FF0000000000000), where=w.special)  # 1.0 until the keys are set

    # |x| = c 2^q; the spacing below c is irregular at the powers of two above the subnormals
    np.right_shift(bits, _U64(52), out=q.view(np.uint64))
    np.bitwise_and(bits, _U64((1 << 52) - 1), out=c)
    np.equal(c, _U64(0), out=w.irregular)
    np.greater(q, 1, out=w.flag)
    np.logical_and(w.irregular, w.flag, out=w.irregular)
    np.not_equal(q, 0, out=w.flag)
    np.left_shift(w.flag.view(np.uint8), 52, out=w.cb, dtype=np.uint64)
    np.bitwise_or(c, w.cb, out=c)
    np.maximum(q, 1, out=q)
    np.subtract(q, 1075, out=q)

    # k = floor(log10 2^q), or floor(log10 (3/4) 2^q) on irregular spacing; h = q + floor(log2 10^-k) + 2
    np.multiply(q, 661971961083, out=k)
    np.multiply(w.irregular, np.int64(274743187321), out=h)
    np.subtract(k, h, out=k)
    np.right_shift(k, 41, out=k)
    np.multiply(k, -913124641741, out=h)
    np.right_shift(h, 38, out=h)
    np.add(h, q, out=h)
    np.add(h, 2, out=h)
    np.subtract(k, _K_MIN, out=w.index)
    np.take(t["g"], w.index, axis=1, out=w.g, mode="clip")

    # vb, vbl, vbr: |x| and the ends of its rounding interval, times 4 / 10^k, rounded to odd
    hu, cb, cp = h.view(np.uint64), w.cb, w.cp
    np.left_shift(c, _U64(2), out=cb)
    np.left_shift(cb, hu, out=cp)
    _rop(w.g, cp, w.vb, w)
    np.add(cb, _U64(2), out=cp)
    np.left_shift(cp, hu, out=cp)
    _rop(w.g, cp, w.vbr, w)
    np.subtract(cb, _U64(2), out=cp)
    np.add(cp, w.irregular, out=cp)
    np.left_shift(cp, hu, out=cp)
    _rop(w.g, cp, w.vbl, w)
    # the ends belong to the interval when c is even: y 10^k is inside iff lo <= 4 y <= hi
    np.bitwise_and(c, _U64(1), out=cp)
    np.add(w.vbl, cp, out=w.lo)
    np.subtract(w.vbr, cp, out=w.hi)

    # s or s + 1, whichever is inside, or the nearer one, the even one on a tie
    s, f = w.s, w.f
    np.right_shift(w.vb, _U64(2), out=s)
    np.left_shift(s, _U64(2), out=cp)
    np.less_equal(w.lo, cp, out=w.up)
    np.add(cp, _U64(4), out=cb)
    np.less_equal(cb, w.hi, out=w.inside)
    np.bitwise_and(s, _U64(1), out=cb)
    np.subtract(cp, cb, out=cp)
    np.add(cp, _U64(3), out=cp)
    np.less(w.vb, cp, out=w.flag)
    np.logical_not(w.inside, out=w.inside)
    np.logical_or(w.inside, w.flag, out=w.flag)
    np.logical_and(w.up, w.flag, out=w.flag)  # s is chosen
    np.add(s, _U64(1), out=f)
    np.subtract(f, w.flag, out=f)
    # unless one digit fewer fits: 10 floor(s / 10) or the next multiple of 10, when exactly one is inside
    np.floor_divide(s, _U64(10), out=w.s10)
    np.multiply(w.s10, _U64(40), out=cp)
    np.less_equal(w.lo, cp, out=w.up)
    np.add(cp, _U64(40), out=cp)
    np.less_equal(cp, w.hi, out=w.inside)
    np.not_equal(w.up, w.inside, out=w.inside)
    np.greater_equal(s, _U64(10), out=w.flag)
    np.logical_and(w.inside, w.flag, out=w.inside)
    np.add(w.s10, _U64(1), out=cp)
    np.subtract(cp, w.up, out=cp)
    np.multiply(cp, _U64(10), out=cp)
    np.copyto(f, cp, where=w.inside)


def _cells(x, cells, w, t, patterns) -> None:
    """Write the layout of the float64 values x into the rows of cells."""
    _decimal(x, w, t)
    f, k = w.f, w.k
    # f has nd digits: scale it to 17, so the point sits nd digits after the first
    nd = np.searchsorted(t["pow10"], f, side="right")
    np.add(k, nd, out=w.decpt)
    np.subtract(17, nd, out=w.index)
    np.take(t["pow10"], w.index, out=w.cp, mode="clip")
    np.multiply(f, w.cp, out=f)
    np.copyto(f, _U64(0), where=w.special)  # "0.0" for zeros

    # 17 digits as a digit and four groups of four; the divisions run on contiguous arrays
    groups = w.groups.view(np.uint64)
    part, rest = w.cb, w.cp
    np.floor_divide(f, _U64(10**16), out=part)
    groups[:, 0] = part
    np.multiply(part, _U64(10**16), out=rest)
    np.subtract(f, rest, out=rest)
    np.floor_divide(rest, _U64(10**8), out=part)
    np.multiply(part, _U64(10**8), out=w.w1)
    np.subtract(rest, w.w1, out=rest)
    for col, four in ((1, part), (3, rest)):
        np.floor_divide(four, _U64(10**4), out=w.w2)
        groups[:, col] = w.w2
        np.multiply(w.w2, _U64(10**4), out=w.w1)
        np.subtract(four, w.w1, out=groups[:, col + 1])
    np.take(t["digits4"], w.groups, out=w.digits, mode="clip")
    chars = w.digits.view(np.uint8)[:, 3:]  # "000d" then four groups

    # the key of the pattern: point position class and significant digits
    zeros, tz, run = w.zeros, w.tz, w.zero_run
    np.take(t["zeros4"], w.groups[:, 1:], out=zeros, mode="clip")
    np.copyto(tz, zeros[:, 3])
    run.fill(True)
    for j in (2, 1, 0):  # a group of four zeros carries the count on to the group before it
        np.equal(zeros[:, j + 1], 4, out=w.flag)
        np.logical_and(run, w.flag, out=run)
        np.multiply(run, zeros[:, j], out=zeros[:, j])
        np.add(tz, zeros[:, j], out=tz)
    np.subtract(w.decpt, _DEC_MIN, out=w.index)
    np.take(t["key"], w.index, out=w.key, mode="clip")
    np.subtract(w.key, tz, out=w.key)
    if w.special.any():
        at = np.flatnonzero(w.special)
        magnitude = x[at].view(np.uint64) & _ABS
        w.key[at] = np.where(magnitude == 0, _ZERO_KEY,
                             np.where(magnitude == 0x7FF0000000000000, _INF_KEY, _NAN_KEY))

    # exponent decpt - 1: its sign and three digits
    np.subtract(w.decpt, 1, out=w.index)
    np.less(w.index, 0, out=w.flag)
    np.abs(w.index, out=w.index)
    np.take(t["exponent"], w.index, axis=0, out=w.exponent, mode="clip")
    w.exponent_sign.fill(ord("+"))
    np.copyto(w.exponent_sign, np.uint8(ord("-")), where=w.flag)
    np.greater_equal(x.view(np.uint64), _U64(1 << 63), out=w.negative)
    w.sign.fill(0)
    np.copyto(w.sign, np.uint8(ord("-")), where=w.negative)

    np.take(patterns, w.key, axis=0, out=cells, mode="clip")
    np.bitwise_and(cells[:, 0], w.sign, out=cells[:, 0])
    np.bitwise_and(cells[:, _SLOTS], chars[:, 0], out=cells[:, _SLOTS])
    np.bitwise_and(cells[:, _SLOTS + 2:_E], chars[:, 1:], out=cells[:, _SLOTS + 2:_E])
    np.bitwise_and(cells[:, _E + 1], w.exponent_sign, out=cells[:, _E + 1])
    np.bitwise_and(cells[:, _E + 2:_WIDTH], w.exponent, out=cells[:, _E + 2:_WIDTH])

    # point positions 2..16: the point moves into the digits
    np.greater_equal(w.key, _SHIFTED_KEYS[0], out=w.flag)
    np.less(w.key, _SHIFTED_KEYS[1], out=w.up)
    np.logical_and(w.flag, w.up, out=w.flag)
    if w.flag.any():
        at = np.flatnonzero(w.flag)
        source = np.empty((at.size, 18), np.uint8)
        source[:, :17] = chars[at]
        source[:, 17] = ord(".")
        shifted = np.take_along_axis(source, t["shift"][w.decpt[at]], axis=1)
        cells[at, _SLOTS:_E] = patterns[w.key[at], _SLOTS:_E] & shifted


class RowFormatter:
    """The text of rows of float64 values, each value as `repr` writes it, cells joined by sep.

    A formatter keeps its work arrays and buffers from one call to the next,
    grown to the largest call, so that a render of many blocks of rows
    allocates them once.  They live in mappings of their own, and the only
    heap allocations of a call are row-sized: a render's heap then holds its
    row texts and no holes between them.
    """

    def __init__(self, sep: str):
        sep_bytes = np.frombuffer(sep.encode("ascii"), np.uint8)
        self.width = _WIDTH + sep_bytes.size
        self.tables = _tables()
        self.patterns = np.empty((len(self.tables["patterns"]), self.width), np.uint8)
        self.patterns[:, :_WIDTH] = self.tables["patterns"]
        self.patterns[:, _WIDTH:] = sep_bytes
        self.work = _Work(0)
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
        if self.work.size < min(flat.size, _BLOCK_CELLS):
            self.work = _Work(min(flat.size, _BLOCK_CELLS))
        cells = self._buffer("formatted", flat.size * self.width).reshape(*shape, self.width)
        flat_cells = cells.reshape(-1, self.width)
        for start in range(0, flat.size, _BLOCK_CELLS):
            x = flat[start:start + _BLOCK_CELLS]
            _cells(x, flat_cells[start:start + _BLOCK_CELLS], self.work.view(x.size), self.tables, self.patterns)
        if columns is not None:
            repeated = self._buffer("repeated", shape[0] * len(columns) * self.width)
            cells = np.take(cells, columns, axis=1, out=repeated.reshape(shape[0], len(columns), self.width),
                            mode="clip")
        cells[:, -1, _WIDTH:] = 0  # no separator after a row's last cell
        # Row by row, the temporaries are the size of the texts that outlive
        # them, so each row's temporaries fit where the last row's were.
        return [row.tobytes().translate(None, b"\0").decode("ascii") for row in cells]
