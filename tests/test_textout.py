"""The numpy ``%.17g`` formatter of ``wald sample`` against Python's own."""

from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singwald import textout
from singwald.textout import _g17_lines


def python_lines(values) -> str:
    values = np.asarray(values, dtype=float).tolist()
    return "%.17g\n" * len(values) % tuple(values)


def assert_same_text(values):
    values = np.asarray(values, dtype=float)
    got, want = _g17_lines(values), python_lines(values)
    if got == want:
        return
    got, want = got.split("\n"), want.split("\n")
    assert len(got) == len(want)
    bad = [(repr(v), g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not bad[:5]


def left_to_python(values) -> np.ndarray:
    """Mask of the values the formatter hands to Python."""
    return ~textout._rows(np.asarray(values, dtype=float))[1]


def neighbours(values, ulps: int = 1) -> np.ndarray:
    """values and the ``ulps`` doubles on each side of every one."""
    values = np.asarray(values, dtype=float)
    out, down, up = [values], values, values
    for _ in range(ulps):
        down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
        out += [down, up]
    return np.concatenate(out)


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


def seventeen_digit_ties() -> list[float]:
    """Doubles k * 2^-m, k odd, whose exact decimal value has 18
    significant digits ending in 5: halfway between two 17-digit values."""
    ties = []
    for m in range(2, 26):
        first = -(-(10**17) // 5**m) | 1
        for k in (first, first + 2):
            if k * 5**m < 10**18 and k < 2**53:
                ties.append(float(np.ldexp(float(k), -m)))
    return ties


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_any_finite_floats(values):
    assert_same_text(values)


def test_random_bit_patterns_over_the_finite_range():
    bits = np.random.default_rng(20261018).integers(0, 2**64, 10**6, dtype=np.uint64)
    values = bits.view(np.float64)
    assert_same_text(values[np.isfinite(values)])


def test_signed_zeros_subnormal_and_largest():
    assert_same_text([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308])


def test_non_finite_values_keep_their_place():
    values = np.random.default_rng(3).standard_normal(3 * textout._BLOCK)
    values[[5, 700, 9000, 20000]] = [np.nan, np.inf, -np.inf, 0.0]
    assert_same_text(values)


def test_powers_of_ten_and_two_and_their_neighbours():
    assert_same_text(neighbours(powers_of_ten()))
    assert_same_text(neighbours(np.ldexp(1.0, np.arange(-1074, 1024))))


def test_notation_switch_points():
    # %g turns scientific below 1e-4 and from 1e17 on.
    assert_same_text(neighbours([1e-4, 1e17, 1e16, 0.001], ulps=3))


def test_rounding_that_carries_to_a_power_of_ten():
    carries = carries_to_power_of_ten()
    assert len(carries) == 14
    assert {1e-305, 1e-243, 1e-79, 1e-73} <= set(carries.values())
    # none sits at a notation switch point
    assert -4 not in carries and 17 not in carries
    assert_same_text(list(carries.values()))


def test_exact_ties_round_half_to_even():
    ties = seventeen_digit_ties()
    assert len(ties) >= 20
    for t in ties:
        digits = Decimal(t).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5
    assert_same_text(ties)


def test_python_formats_only_ties_and_not_a_wald_sample():
    # The fallback must stay rare: sending every value through Python
    # keeps the bytes right and gives the speed back.
    sample = np.sort(np.random.default_rng(16).chisquare(1, 10**5) / 16.0)
    assert not left_to_python(sample).any()
    assert left_to_python(seventeen_digit_ties()).all()


@pytest.mark.parametrize("size", [0, 1, textout._BLOCK - 1, textout._BLOCK + 1])
def test_block_edges(size):
    values = np.sort(np.random.default_rng(size).exponential(1.0, size))
    assert _g17_lines(values) == python_lines(values)
