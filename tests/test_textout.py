"""The numpy ``%.17g``, ``%.12g`` and ``%.10g`` table writer against Python's own."""

from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singwald import textout
from singwald.textout import _lines

DIGITS = [17, 12, 10]


def python_lines(values, digits: int = 17) -> str:
    values = np.asarray(values, dtype=float).tolist()
    return f"%.{digits}g\n" * len(values) % tuple(values)


def numpy_lines(values, digits: int = 17) -> str:
    """A one-column table: the lines of ``wald sample`` at 17 digits."""
    return "".join(_lines([np.asarray(values, dtype=float)], digits))


def assert_same_text(values, digits: int = 17):
    values = np.asarray(values, dtype=float)
    got, want = numpy_lines(values, digits), python_lines(values, digits)
    if got == want:
        return
    got, want = got.split("\n"), want.split("\n")
    assert len(got) == len(want)
    bad = [(repr(v), g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not bad[:5]


def left_to_python(values, digits: int = 17) -> np.ndarray:
    """Mask of the values the formatter hands to Python."""
    return ~textout._exact_cells(np.asarray(values, dtype=float), digits, b"\n")[1]


def neighbours(values, ulps: int = 1) -> np.ndarray:
    """values and the ``ulps`` doubles on each side of every one."""
    values = np.asarray(values, dtype=float)
    out, down, up = [values], values, values
    for _ in range(ulps):
        down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
        out += [down, up]
    return np.concatenate(out)


def signed(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, -values])


def powers_of_ten() -> np.ndarray:
    return np.array([float(f"1e{j}") for j in range(-323, 309)])


def carries_to_power_of_ten() -> dict[int, float]:
    """Doubles below 10^j whose 17-digit rounding is 10^j, so printing them
    moves the decimal exponent up by one, by j."""
    out = {}
    for j, p in zip(range(-323, 309), powers_of_ten()):
        for y in neighbours([p]).tolist():
            if Decimal(y) < Decimal(10) ** j and Decimal("%.17g" % y) == Decimal(10) ** j:
                out[j] = y
    return out


def ties(digits: int) -> list[float]:
    """Doubles k * 2^-m, k odd, whose exact decimal value has digits + 1
    significant digits ending in 5: halfway between two values of
    ``digits`` digits."""
    out = []
    for m in range(1, 26):
        first = -(-(10**digits) // 5**m) | 1
        for k in (first, first + 2):
            if k * 5**m < 10 ** (digits + 1) and k < 2**53:
                out.append(float(np.ldexp(float(k), -m)))
    return out


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_any_finite_floats(values):
    for digits in DIGITS:
        assert_same_text(values, digits)


def random_finite_bit_patterns() -> np.ndarray:
    # half of them negative
    bits = np.random.default_rng(20261018).integers(0, 2**64, 10**6, dtype=np.uint64)
    values = bits.view(np.float64)
    return values[np.isfinite(values)]


def test_random_bit_patterns_over_the_finite_range():
    assert_same_text(random_finite_bit_patterns())


def test_random_bit_patterns_at_ten_digits():
    assert_same_text(random_finite_bit_patterns(), 10)


def test_random_bit_patterns_at_twelve_digits():
    assert_same_text(random_finite_bit_patterns(), 12)


def test_signed_zeros_subnormal_and_largest():
    for digits in DIGITS:
        assert_same_text(
            [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310,
             1.7976931348623157e308, -1.7976931348623157e308],
            digits,
        )


def test_non_finite_values_keep_their_place():
    values = np.random.default_rng(3).standard_normal(3 * textout._BLOCK)
    values[[5, 700, 9000, 20000, 20001]] = [np.nan, np.inf, -np.inf, 0.0, -0.0]
    for digits in DIGITS:
        assert_same_text(values, digits)


def test_powers_of_ten_and_two_and_their_neighbours():
    for digits in DIGITS:
        assert_same_text(signed(neighbours(powers_of_ten())), digits)
        assert_same_text(signed(neighbours(np.ldexp(1.0, np.arange(-1074, 1024)))), digits)


def test_notation_switch_points():
    # %.17g turns scientific below 1e-4 and from 1e17 on, %.12g from 1e12
    # and %.10g from 1e10
    assert_same_text(signed(neighbours([1e-4, 1e17, 1e16, 0.001], ulps=3)))
    assert_same_text(signed(neighbours([1e-4, 1e-5, 1e12, 1e11, 0.001], ulps=3)), 12)
    assert_same_text(signed(neighbours([1e-4, 1e-5, 1e10, 1e9, 0.001], ulps=3)), 10)
    # %.12g and %.10g round these up across the switch
    assert python_lines([9.9999999999996e-05, 999999999999.5], 12) == "0.0001\n1e+12\n"
    assert_same_text(signed(neighbours([9.999999999995e-05, 999999999999.5, 0.9999999999995], ulps=3)), 12)
    assert python_lines([9.9999999995e-05, 1e-05, 9999999999.5], 10) == "0.0001\n1e-05\n1e+10\n"
    assert_same_text(signed(neighbours([9.9999999995e-05, 9999999999.5, 0.99999999995], ulps=3)), 10)


def test_rounding_that_carries_to_a_power_of_ten():
    carries = carries_to_power_of_ten()
    assert len(carries) == 14
    assert {1e-305, 1e-243, 1e-79, 1e-73} <= set(carries.values())
    # none sits at a notation switch point
    assert -4 not in carries and 17 not in carries
    assert_same_text(signed(list(carries.values())))
    # at 12 and 10 digits, the doubles around the rounding boundary below 10^j
    for digits in (12, 10):
        below = powers_of_ten()[1:-1] * (1.0 - float(f"5e-{digits + 1}"))
        assert_same_text(signed(neighbours(below, ulps=2)), digits)


def test_exact_ties_round_half_to_even():
    for digits in DIGITS:
        exact = ties(digits)
        assert len(exact) >= 20
        for t in exact:
            tail = Decimal(t).as_tuple().digits
            assert len(tail) == digits + 1 and tail[-1] == 5
        assert_same_text(signed(exact), digits)


def test_ten_digit_integer_ties():
    assert python_lines([12345678905.0, 12345678915.0], 10) == "1.23456789e+10\n1.234567892e+10\n"
    assert_same_text(signed(neighbours([12345678905.0, 12345678915.0])), 10)
    assert python_lines([1234567890125.0, 1234567890135.0], 12) == (
        "1.23456789012e+12\n1.23456789014e+12\n"
    )
    assert_same_text(signed(neighbours([1234567890125.0, 1234567890135.0])), 12)


def test_python_formats_only_ties_and_not_a_wald_sample():
    # The fallback must stay rare: sending every value through Python
    # keeps the bytes right and gives the speed back.
    sample = np.sort(np.random.default_rng(16).chisquare(1, 10**5) / 16.0)
    for digits in DIGITS:
        assert not left_to_python(sample, digits).any()
        assert not left_to_python(-sample, digits).any()
        assert left_to_python(signed(ties(digits)), digits).all()


@pytest.mark.parametrize("size", [0, 1, 8191, 8193, textout._BLOCK - 1, textout._BLOCK + 1])
def test_block_edges(size):
    values = np.sort(np.random.default_rng(size).exponential(1.0, size))
    for digits in DIGITS:
        blocks = list(_lines([-values], digits))
        assert len(blocks) == -(-size // textout._BLOCK)
        assert "".join(blocks) == python_lines(-values, digits)
    assert numpy_lines(values) == python_lines(values)


def test_tsv_columns():
    gamma = np.array([-0.0, 1.5e-300, np.nan, 2.5])
    text = "".join(_lines(
        [(np.array([0, 7, 12, 3]), range(13)), gamma, (np.array([1, 0, 1, 2]), ("a", "bcd", "e"))], 10
    ))
    assert text == "0\t-0\tbcd\n7\t1.5e-300\ta\n12\tnan\tbcd\n3\t2.5\te\n"
    assert "".join(_lines([gamma, -gamma], 12)) == "-0\t0\n1.5e-300\t-1.5e-300\nnan\tnan\n2.5\t-2.5\n"
