"""The ``"%.17g\\n"`` text of a float array, computed in numpy.

``wald sample`` prints every draw as ``"%.17g\\n" % value``.  Formatting
each value through Python costs about 0.7 us a value; :func:`_g17_lines`
writes the same bytes from whole-array numpy operations and formats
through Python only the rare values it cannot decide exactly.

Each value becomes one row of at most 24 bytes, held as three
little-endian uint64 words: its digits, the '.' or the leading zeros, and
the exponent and newline.  Rows of one decimal exponent share a layout,
and the bytes that ``%.17g`` leaves out (stripped trailing zeros, a '.'
with no digit after it) are NUL; deleting the NUL bytes of all rows at
once gives the text.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

_U = np.uint64
# Values per block: the temporaries of one block stay small enough for the
# allocator to reuse, where those of a 65,536-value block are mapped and
# faulted in anew (1.6 times the time per value; 4,096 took 1.2 times).
_BLOCK = 1 << 13
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
    """How ``%.17g`` lays out the 17 digits of one decimal exponent: the
    row is digits[:cut] + gap + digits[cut:] + tail."""

    cut: int
    width: int  # gap bytes
    low: tuple[np.uint64, ...]  # per word, the bytes before the gap
    high: tuple[np.uint64, ...]  # per word, the bytes after the gap
    gap: tuple[np.uint64, ...]  # per word, the gap
    tail: np.uint64  # the tail, always in the third word
    full: int  # bytes of a row that keeps all 17 digits


@lru_cache(maxsize=None)
def _layout(e: int) -> _Layout:
    """The gap is '0.' and leading zeros before every digit for exponents
    -4..-1, and otherwise a '.' after the integer digits (the first digit
    in scientific notation, whose tail is the exponent)."""
    if -4 <= e < 0:
        cut, gap, tail = 0, b"0." + b"0" * (-e - 1), b"\n"
    elif 0 <= e < 17:
        cut, gap, tail = e + 1, b".", b"\n"
    else:
        cut, gap, tail = 1, b".", b"e%+03d\n" % e
    width = len(gap)

    def words(pos: int, text: bytes) -> tuple[np.uint64, ...]:
        value = int.from_bytes(text, "little") << 8 * pos
        return tuple(_U((value >> 64 * i) & (2**64 - 1)) for i in range(3))

    return _Layout(
        cut, width, words(0, b"\xff" * cut), words(cut + width, b"\xff" * (24 - cut - width)),
        words(cut, gap), words(17 + width, tail)[2], 17 + width + len(tail),
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


def _decimal17(x: np.ndarray, pow10) -> tuple[np.ndarray, np.ndarray]:
    """The 17-digit significands d of the positive finite values x and the
    mask of the exact ones, given ``pow10`` = :func:`_pow10` (16 - e) of an
    estimate e of each decimal exponent floor(log10 x): ``%.17g`` prints x
    as d * 10^(e - 16) wherever the mask holds.

    Each x is m * 2^q with an integer m < 2^53, and 10^(16-e) is
    (hh + hl + lo) * 2^s, so N = x * 10^(16-e) is
    (m*(hh + hl) + m*lo) * 2^(q+s).  The product m*(hh + hl) is exact as a
    double plus its rounding error (Dekker's two-product); only m*lo, its
    sum with that error and lo's own rounding are inexact.  With m < 2^53,
    |lo| <= 2^-53 and 2^(q+s) <= 16 wherever N < 10^17, the computed N is
    within 2^-45 < 1e-13 of the exact one.

    ``%.17g`` prints round(N), the exact N rounded to an integer with ties
    to even, and an error of 1e-13 moves that rounding only if N lies
    within 1e-13 of a half-integer.  So d = round(N) is exact wherever the
    computed remainder N - floor(N) is at least 1e-9 from 1/2 and floor(N)
    lies in [10^16 + 2, 10^17 - 2): there the exact N lies in
    [10^16, 10^17), so e is floor(log10 x) and the rounding does not carry
    to 10^17.  Possible ties and values within 2 units of a power of ten,
    where the estimate e may be off by one, are left to Python.
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
    whole = np.floor(small)
    rem = small - whole
    d = big.astype(np.int64) + whole.astype(np.int64)
    exact = (d >= 10**16 + 2) & (d < 10**17 - 2) & (np.abs(rem - 0.5) >= _TIE)
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


def _rows(x: np.ndarray) -> tuple[bytes, np.ndarray]:
    """The rows of x joined, and the mask of the rows written here; every
    other row, left to Python, is all NUL."""
    fast = (x > 0) & (x < np.inf)
    xs = np.where(fast, x, 1.0)
    e = np.floor(np.log10(xs)).astype(np.intp)
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

    hi, hh, hl, lo, s = zip(*(_pow10(16 - k) for k in span))
    pow10 = [per_value(v, np.float64) for v in (hi, hh, hl, lo)] + [per_value(s, np.int32)]
    d, exact = _decimal17(xs, pow10)
    exact &= fast
    chars, sig = _digit_words(d)
    # Open the gap: the bytes after it move up by its width.
    lays = [_layout(k) for k in span]
    cut, width, low, high, gap, tail, _ = zip(*lays)
    low, high, gap = ([per_value(word, _U) for word in zip(*field)] for field in (low, high, gap))
    shift = per_value([8 * w for w in width], _U)
    back = _U(64) - shift
    words = []
    for i in range(3):
        moved = (chars[i] << shift) | (chars[i - 1] >> back) if i else chars[i] << shift
        words.append((chars[i] & low[i]) | (moved & high[i]) | gap[i])
    # Keep every significant digit and every digit before the gap; keep
    # the gap only if a digit follows it.  Most rows keep all 17 digits.
    cut, width = per_value(cut, np.intp), per_value(width, np.intp)
    kept = np.maximum(sig, cut)
    end = kept + np.where(kept > cut, width, 0)
    cut_short = np.flatnonzero(end < 17 + width)
    for i, w in enumerate(words):
        w[cut_short] &= _PREFIX[np.clip(end[cut_short] - 8 * i, 0, 8)]
    words[2] |= per_value(tail, _U)
    rows = np.stack(words, axis=1)
    rows[~exact] = 0
    table = rows.astype("<u8", copy=False).view(np.uint8)  # byte i of a row is bits 8i..8i+7
    # The rows of each run of one exponent, cut to the longest row of that
    # exponent, leave only the stripped digits NUL, which are sparse.  A
    # sorted sample has one run per exponent.
    starts = [0, *(np.flatnonzero(e[1:] != e[:-1]) + 1).tolist(), e.size]
    return b"".join(
        table[i:j, : lays[at[i]].full].tobytes() for i, j in zip(starts, starts[1:])
    ), exact


def _lines(x: np.ndarray) -> str:
    """The ``%.17g`` lines of the values x."""
    raw, exact = _rows(x)
    text = raw.replace(b"\0", b"").decode("ascii")
    if exact.all():
        return text
    # Merge in the lines of the values left to Python.
    lines = np.empty(x.size, dtype=object)
    lines[exact] = text.split("\n")[:-1]
    slow = x[~exact].tolist()
    lines[~exact] = ("%.17g\n" * len(slow) % tuple(slow)).split("\n")[:-1]
    return "\n".join(lines.tolist()) + "\n"


def _g17_lines(values) -> str:
    """``"%.17g\\n" * n % tuple(values)``, byte for byte."""
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    return "".join(_lines(x[i : i + _BLOCK]) for i in range(0, x.size, _BLOCK))
