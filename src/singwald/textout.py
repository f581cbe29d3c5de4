"""The numeric tables of ``wald`` as text, computed in numpy.

Every table the commands print is one call of :func:`_lines`: tab-separated
rows of float columns at one precision and of word columns.  ``wald
sample`` prints each draw as ``"%.17g\\n" % value``; ``wald cdf``,
``quantile`` and ``moments`` print ``%.12g`` numbers, and ``wald
tetrad-test`` four indices, four ``%.10g`` numbers and a word per row.
Formatting each value through Python costs about 0.7 us a value;
:func:`_lines` writes the same bytes from whole-array numpy operations and
formats through Python only the rare values the kernel cannot decide
exactly: zeros, non-finite values, possible rounding ties and values next
to a power of ten.

Text is built as a table of bytes with one fixed-width row per line, whose
unused bytes are NUL; deleting the NUL bytes of the whole table at once
gives the text.  A number of up to 17 digits, with the tab or newline
after it, takes a cell of 25 bytes: a sign byte, then three little-endian
uint64 words holding its digits, the '.' or the leading zeros, the
exponent and the terminator.  A shorter significand is written as 17
digits whose last ones are cut off.  Cells of one decimal exponent share a
layout, and the bytes that ``%g`` leaves out (stripped trailing zeros, a
'.' with no digit after it) are NUL.  A value left to Python has its own
text written into its cell; the longest, ``-1.2345678901234567e-308\\n``,
fills it.  A column keeps only the cell bytes that some row uses, so a
column without a negative value has no sign byte.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

_U = np.uint64
# Values per block.  On a sorted sample, 8,192 took 1.2 times and 32,768
# 1.25 times the time per value of 16,384, whose temporaries stay in a
# 2 MB cache; those of a 65,536-value block are mapped and faulted in anew.
_BLOCK = 1 << 14
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's constant: splits a double in halves
_TIE = 1e-9  # a rounding remainder this close to 1/2 may be an exact tie
_TEN8 = _U(10**8)
# _PREFIX[b] keeps bytes 0..b-1 of a word.
_PREFIX = np.array([(1 << 8 * b) - 1 for b in range(9)], dtype=_U)


@lru_cache(maxsize=None)
def _pow10(k: int) -> tuple[float, float, float, float, int]:
    """10^k as (hi + lo) * 2^s, hi = hh + hl in [1, 2].

    hi is 10^k / 2^s correctly rounded and lo the remainder correctly
    rounded, both by Python's exact division of integers; hh and hl are
    hi's halves of at most 26 significant bits.
    """
    num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
    s = num.bit_length() - den.bit_length()
    num, den = (num, den << s) if s >= 0 else (num << -s, den)
    if num < den:
        num, s = num << 1, s - 1
    hi = num / den
    lo = (num * 2**52 - int(hi * 2**52) * den) / (den * 2**52)
    c = _SPLIT * hi
    hh = c - (c - hi)
    return hi, hh, hi - hh, lo, s


class _Layout(NamedTuple):
    """How ``%g`` lays out the digits of one decimal exponent: the number is
    digits[:cut] + gap + digits[cut:] + tail, in at most ``full`` bytes
    with its sign."""

    cut: int
    width: int  # gap bytes
    low: tuple[np.uint64, ...]  # per word, the bytes before the gap
    high: tuple[np.uint64, ...]  # per word, the bytes after the gap
    gap: tuple[np.uint64, ...]  # per word, the gap
    tail: tuple[np.uint64, ...]  # per word, the tail
    full: int


@lru_cache(maxsize=None)
def _layout(e: int, digits: int, end: bytes) -> _Layout:
    """The gap is '0.' and leading zeros before every digit for exponents
    -4..-1, and otherwise a '.' after the integer digits: all of them below
    the exponent ``digits``, and the first digit in scientific notation,
    whose tail is the exponent.  The tail ends in ``end``."""
    if -4 <= e < 0:
        cut, gap, tail = 0, b"0." + b"0" * (-e - 1), end
    elif 0 <= e < digits:
        cut, gap, tail = e + 1, b".", end
    else:
        cut, gap, tail = 1, b".", b"e%+03d" % e + end
    width = len(gap)

    def words(pos: int, text: bytes) -> tuple[np.uint64, ...]:
        value = int.from_bytes(text, "little") << 8 * pos
        return tuple(_U((value >> 64 * i) & (2**64 - 1)) for i in range(3))

    return _Layout(
        cut, width, words(0, b"\xff" * cut), words(cut + width, b"\xff" * (24 - cut - width)),
        words(cut, gap), words(digits + width, tail), 1 + digits + width + len(tail),
    )


def _swar_digits(y: np.ndarray) -> np.ndarray:
    """Each y < 10^8 as its 8 decimal digits, one per byte of a uint64 with
    the most significant digit in the lowest byte (digit values, not ASCII).
    Each step splits every lane in two by a multiply-shift division."""
    hi = (y * _U(109951163)) >> _U(40)  # y // 10^4
    y = hi | ((y - hi * _U(10_000)) << _U(32))
    hi = ((y * _U(5243)) >> _U(19)) & _U(0x0000007F0000007F)  # 32-bit lanes // 100
    y = hi | ((y - hi * _U(100)) << _U(16))
    hi = ((y * _U(103)) >> _U(10)) & _U(0x000F000F000F000F)  # 16-bit lanes // 10
    return hi | ((y - hi * _U(10)) << _U(8))


def _nonzero_bytes(w: np.ndarray) -> np.ndarray:
    """Bit i set where byte i of w, a digit value below 10, is nonzero."""
    flags = ((w + _U(0x7F7F7F7F7F7F7F7F)) & _U(0x8080808080808080)) >> _U(7)
    return (flags * _U(0x0102040810204080)) >> _U(56)


def _decimal(x: np.ndarray, digits: int, pow10) -> tuple[np.ndarray, np.ndarray]:
    """The ``digits``-digit significands d of the positive finite values x
    and the mask of the exact ones, given ``pow10`` = :func:`_pow10`
    (digits - 1 - e) of an estimate e of each decimal exponent
    floor(log10 x): ``%.<digits>g`` prints x as d * 10^(e - digits + 1)
    wherever the mask holds.

    Each x is m * 2^q with an integer m < 2^53, and 10^(digits-1-e) is
    (hh + hl + lo) * 2^s, so N = x * 10^(digits-1-e) is
    (m*(hh + hl) + m*lo) * 2^(q+s).  The product m*(hh + hl) is exact as a
    double plus its rounding error (Dekker's two-product); only m*lo, its
    sum with that error and lo's own rounding are inexact.  With m < 2^53,
    |lo| <= 2^-53 and 2^(q+s) <= 16 wherever N < 10^17, the computed N is
    within 2^-45 < 1e-13 of the exact one.  Below 2^53 the product's
    fraction is moved into the remainder, which adds at most 2^-53.

    ``%g`` prints round(N), the exact N rounded to an integer with ties to
    even, and an error of 1e-13 moves that rounding only if N lies within
    1e-13 of a half-integer.  So d = round(N) is exact wherever the
    computed remainder N - floor(N) is at least 1e-9 from 1/2 and floor(N)
    lies in [10^(digits-1) + 2, 10^digits - 2): there the exact N lies in
    [10^(digits-1), 10^digits), so e is floor(log10 x) and the rounding
    does not carry to 10^digits.  Possible ties and values within 2 units
    of a power of ten, where the estimate e may be off by one, are left to
    Python.
    """
    hi, hh, hl, lo, s = pow10
    frac, q = np.frexp(x)
    m = frac * 2.0**53
    c = _SPLIT * m
    mh = c - (c - m)
    ml = m - mh
    p = m * hi
    err = ((mh * hh - p) + mh * hl + ml * hh) + ml * hl
    q += s - 53
    big = np.ldexp(p, q)  # an integer wherever N >= 2^53
    small = np.ldexp(err + m * lo, q)
    if digits < 16:
        whole = np.floor(big)
        small += big - whole
        big = whole
    whole = np.floor(small)
    rem = small - whole
    d = big.astype(np.int64) + whole.astype(np.int64)
    exact = (d >= 10 ** (digits - 1) + 2) & (d < 10**digits - 2) & (np.abs(rem - 0.5) >= _TIE)
    return d + (rem > 0.5), exact


def _digit_words(d: np.ndarray) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The 17 ASCII digits of each d in [10^16, 10^17) as three words, and
    how many remain after stripping trailing zeros."""
    d = d.view(_U)
    top = d // _TEN8
    lead = top // _TEN8
    digits = _swar_digits(np.stack([top - lead * _TEN8, d - top * _TEN8]))
    # 1 + the index of the last nonzero digit after the first
    flags = _nonzero_bytes(digits[0]) | (_nonzero_bytes(digits[1]) << _U(8))
    sig = np.frexp(flags.astype(np.float64))[1] + 1
    digits += _U(0x3030303030303030)
    a, b = digits
    return ((lead + _U(0x30)) | (a << _U(8)), (a >> _U(56)) | (b << _U(8)), b >> _U(56)), sig


def _exact_cells(x: np.ndarray, digits: int, end: bytes) -> tuple[np.ndarray, np.ndarray, int]:
    """The cells of ``b"%.<digits>g" % value + end`` for the values of x as
    an (n, 4) little-endian uint64 array whose words 1 to 3 are written
    (word 0 is left to the caller), the mask of the values written exactly,
    and the longest layout among them, sign included."""
    a = np.abs(x)
    fast = (a > 0) & (a < np.inf)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    # Values of one exponent estimate share their powers of ten and layout.
    e_lo = int(e.min())
    span = range(e_lo, int(e.max()) + 1)
    at = e - e_lo

    def per_value(values, dtype):
        """One value per exponent in ``span`` as one per value of x; a
        scalar when x has a single exponent."""
        if len(values) == 1:
            return dtype(values[0])
        return np.take(np.array(values, dtype=dtype), at)

    hi, hh, hl, lo, s = zip(*(_pow10(digits - 1 - k) for k in span))
    pow10 = [per_value(v, np.float64) for v in (hi, hh, hl, lo)] + [per_value(s, np.int32)]
    d, exact = _decimal(a, digits, pow10)
    exact &= fast
    if digits < 17:
        d *= 10 ** (17 - digits)
    chars, sig = _digit_words(d)
    cut, width, low, high, gap, tail, full = zip(*(_layout(k, digits, end) for k in span))
    low, high, gap, tail = (
        [per_value(word, _U) for word in zip(*field)] for field in (low, high, gap, tail)
    )
    # Keep every significant digit and every digit before the gap; keep
    # the gap only if a digit follows it.  At 17 digits most rows keep all
    # of them.
    shift = per_value([8 * w for w in width], _U)
    back = _U(64) - shift
    cut, width = per_value(cut, np.intp), per_value(width, np.intp)
    kept = np.maximum(sig, cut)
    stop = kept + np.where(kept > cut, width, 0)
    short = np.flatnonzero(stop < 17 + width) if digits == 17 else slice(None)
    # Each cell is the top byte of word 0, the sign, and words 1 to 3.
    cells = np.empty((x.size, 4), dtype="<u8")
    for i in range(3):
        # Open the gap: the bytes after it move up by its width.
        moved = (chars[i] << shift) | (chars[i - 1] >> back) if i else chars[i] << shift
        w = (chars[i] & low[i]) | (moved & high[i]) | gap[i]
        w[short] &= _PREFIX[np.clip(stop[short] - 8 * i, 0, 8)]
        np.bitwise_or(w, tail[i], out=cells[:, i + 1])
    return cells, exact, int(np.max(per_value(full, np.intp)))


def _numbers(x: np.ndarray, digits: int, end: bytes) -> np.ndarray:
    """``b"%.<digits>g" % value + end`` of each value of x as one row of an
    (n, w) uint8 array, NUL-padded: the columns of the cells that some
    value uses.  Values not written exactly are formatted by Python."""
    cells, exact, longest = _exact_cells(x, digits, end)
    slow = np.flatnonzero(~exact)
    negative = np.signbit(x)
    if not (slow.size or negative.any()):
        # no sign to write: the cells start at word 1
        return cells.view(np.uint8)[:, 8 : 7 + longest]
    cells[:, 0] = negative * _U(ord("-") << 56)
    cells = cells.view(np.uint8)
    fmt = b"%%.%dg%s" % (digits, end)
    for i, value in zip(slow.tolist(), x[slow].tolist()):
        text = fmt % value
        cells[i] = 0
        cells[i, 7 : 7 + len(text)] = np.frombuffer(text, dtype=np.uint8)
    return cells[:, 7 : 32 if slow.size else 7 + longest]


def _words(codes: np.ndarray, words, end: bytes) -> np.ndarray:
    """``words[code] + end`` for each of the integer codes, NUL-padded, as
    the rows of a uint8 array."""
    table = np.array([str(w).encode("ascii") + end for w in words])
    return np.take(table.view(np.uint8).reshape(table.size, -1), codes, axis=0)


def _lines(columns, digits: int):
    """The rows of the equal-length ``columns`` as tab-separated lines, one
    string per ``_BLOCK`` rows: a float array prints as ``%.<digits>g``,
    and a pair (codes, words) as ``words[code]``."""
    ends = [b"\t"] * (len(columns) - 1) + [b"\n"]
    # Floats are formatted block by block, words looked up at once.
    arrays = [
        _words(*column, end) if isinstance(column, tuple)
        else np.ascontiguousarray(column, dtype=np.float64)
        for column, end in zip(columns, ends)
    ]
    for i in range(0, len(arrays[0]), _BLOCK):
        cells = [
            _numbers(a[i : i + _BLOCK], digits, end) if a.dtype == np.float64 else a[i : i + _BLOCK]
            for a, end in zip(arrays, ends)
        ]
        raw = (np.concatenate(cells, axis=1) if len(cells) > 1 else cells[0]).tobytes()
        # replace() copies the text between NUL bytes, translate() tests
        # every byte: the first is the faster where NUL bytes are rare, as
        # in the cells of 17-digit text.
        raw = raw.replace(b"\0", b"") if digits == 17 else raw.translate(None, b"\0")
        yield raw.decode("ascii")
