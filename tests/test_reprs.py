"""float_reprs against float.__repr__, byte for byte."""

import math
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fopid.reprs import float_reprs


def reprs_of(values):
    """float_reprs's rows, NUL bytes removed, as strings."""
    return [bytes(row[row != 0]).decode("ascii") for row in float_reprs(np.asarray(values, float))]


def assert_matches_repr(values):
    values = np.asarray(values, float)
    wrong = [
        (value, got)
        for value, got in zip(values.tolist(), reprs_of(values))
        if got != float.__repr__(value)
    ]
    assert not wrong, wrong[:10]


def neighbours(values):
    """Each value with the doubles just below and above it, of both signs."""
    values = np.asarray(values, float)
    around = np.concatenate(
        (np.nextafter(values, -np.inf), values, np.nextafter(values, np.inf))
    )
    return np.concatenate((around, -around))


def test_zeros_extremes_and_subnormals():
    tiny = 5e-324
    values = [
        0.0, -0.0, tiny, -tiny, sys.float_info.max, -sys.float_info.max,
        sys.float_info.min, 2.225073858507201e-308, 1e-310, 123e-320, math.inf, -math.inf,
    ]
    assert reprs_of(values[:2]) == ["0.0", "-0.0"]
    assert_matches_repr(values)
    assert reprs_of([math.nan]) == ["nan"]
    assert_matches_repr(neighbours([tiny, 1e-310, sys.float_info.min]))


def test_powers_of_two_and_ten():
    # A power of two has an interval twice as wide above it as below.
    assert_matches_repr(neighbours(np.ldexp(1.0, np.arange(-1074, 1024))))
    assert_matches_repr(neighbours([float(f"1e{k}") for k in range(-323, 309)]))


def test_edges_of_fixed_notation_and_carries():
    # 1e-4 and 1e16 are where float.__repr__ switches to exponent
    # notation, and 1e15 where the vectorised range ends. A value just
    # below a power of ten rounds up to it at 15 or 16 digits, an extra
    # digit.
    assert reprs_of([9.9999999999999995e-5, 1e-4, 1e15, 1e16]) == [
        "9.999999999999999e-05", "0.0001", "1000000000000000.0", "1e+16",
    ]
    nines = [
        float("0." + "9" * digits) * 10.0**k for digits in range(14, 18) for k in range(-5, 17)
    ]
    assert_matches_repr(neighbours([1e-4, 1e15, 1e16, *nines]))
    halves = [float(f"{lead}e{k}") for lead in ("9.5", "9.95", "0.5") for k in range(-6, 17)]
    assert_matches_repr(neighbours(halves))


def test_random_mixes():
    rng = np.random.default_rng(2025)
    size = 20_000
    assert_matches_repr(rng.uniform(-10, 10, size))
    assert_matches_repr(np.exp(rng.uniform(math.log(1e-5), math.log(1e16), size)))
    assert_matches_repr(rng.integers(0, 2**64, size, dtype=np.uint64).view(float))
    rounded = rng.uniform(-1000, 1000, size)
    assert_matches_repr([round(value, digits) for value, digits in zip(
        rounded.tolist(), rng.integers(0, 12, size).tolist()
    )])
    for step in (1e-3, 7e-4, 0.01):
        assert_matches_repr(np.arange(size) * step)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_matches_repr_on_finite_floats(values):
    assert_matches_repr(values)
