"""The bytes of ``float.__repr__`` for a whole float64 array at once.

``float.__repr__`` is Gay's correctly rounded shortest conversion ("Correctly
rounded binary-decimal and decimal-binary conversions", 1990): the fewest
significant digits that read back to the same double, and of those the
nearest to it, in fixed notation from 1e-4 up to 1e16 and in exponent
notation outside. ``float_reprs`` forms the same digits with numpy for
1e-4 <= |x| < 1e15:

1. With e = floor(log2 |x|) and s = 16 - floor(log10 |x|), both read from
   the binary exponent (BINADE_POWERS), P = |x| * 10^s has 17 digits
   before its point. It is formed exactly as the unevaluated sum p + lo of
   Dekker's two-product ("A floating-point technique for extending the
   available precision", Numer. Math., 1971). 10^s is exact for s <= 22.
2. D17 is the integer nearest to P, and D16 and D15 are the integers
   nearest to P / 10 and P / 100, taken from D17 by integer division and
   its remainder. Each keeps its distance |P - 10^j D| in units of P.
3. The decimals that read back as x lie within half an ulp of it, which
   is 2^(e - 53) * 10^s in units of P, a power of two times an exact power
   of ten. The doubles are closer together than 15-digit decimals, so at most
   one of those lies in that interval, and when it does it is D15. D17
   always lies in it. The digits are the first of D15, D16 and D17 whose
   distance is inside, D15 without its trailing zeros.
4. A row is a sign, the "0.000" that a value below 1 starts with, and the
   17 digits with a point column after each digit that can end the
   integer part, from tables indexed by the decimal exponent and the digit
   count. Everything that the string does not show is a NUL byte.

Every value that this cannot decide takes ``float.__repr__`` itself:
values outside that range, which include 0, -0.0, infinities and NaN;
powers of two, whose interval is not symmetric; a carry to an extra digit;
and a distance within a relative 1e-6 of the interval's edge or of a tie
between two candidates, where the exact rule for the edge or the tie would
decide.
"""

from __future__ import annotations

import math

import numpy as np

# Veltkamp's constant 2^27 + 1: for c = a * SPLITTER, c - (c - a) is the high half of a.
SPLITTER = 134217729.0
POW10 = np.array([float(10**s) for s in range(23)])
_cut = POW10 * SPLITTER
POW10_HI = _cut - (_cut - POW10)
POW10_LO = POW10 - POW10_HI
del _cut
# DIGITS4[v] is the four ASCII digits of v < 10^4, packed in one uint32,
# and TRAILING_ZEROS4[v] counts the zeros that end them: both are built
# digit by digit, v = 1000 a + 100 b + 10 c + d, on axes a, b, c, d.
_ascii = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_is_zero = _ascii == ord("0")
DIGITS4 = np.empty((10, 10, 10, 10, 4), np.uint8)
TRAILING_ZEROS4 = np.zeros((), np.intp)
for _place in range(4):
    _shape = (10,) + (1,) * (3 - _place)
    DIGITS4[..., _place] = _ascii.reshape(_shape)
    TRAILING_ZEROS4 = _is_zero.reshape(_shape) * (1 + TRAILING_ZEROS4)
DIGITS4 = DIGITS4.view(np.uint32).reshape(-1)
TRAILING_ZEROS4 = TRAILING_ZEROS4.reshape(-1)
del _ascii, _is_zero, _place, _shape
# np.frexp writes x as m * 2^k with 1/2 <= m < 1. The values from 1e-4 to
# 1e15 have -13 <= k <= 50, and each binade [2^(k - 1), 2^k) holds at most
# one power of ten. BINADE_POWERS[k + 13] is floor(log10 2^(k - 1)), and
# NEXT_TENS[k + 13] the double nearest to the next power of ten. No double
# lies between a power of ten and its nearest double, so floor(log10 x) is
# BINADE_POWERS plus one where x >= NEXT_TENS.
BINADE_POWERS = np.array([math.floor(math.log10(2.0 ** (k - 1))) for k in range(-13, 51)])
NEXT_TENS = np.array([float(f"1e{power + 1}") for power in BINADE_POWERS.tolist()])
# Adding 1.5 * 2^52 rounds a float of magnitude below 2^51 to an integer, ties to even.
ROUNDER = 1.5 * 2.0**52
# Decimal exponents of the values that float_reprs lays out itself.
POWERS = range(-4, 15)
# A row of float_reprs has a sign column, five columns for the "0.000"
# before the digits of a value below 1, then digits 0 to 14 each followed
# by a column for the point, then digits 15 and 16. TEMPLATES[negative,
# power, count] holds the sign, prefix and point of a value with that
# sign, decimal exponent and number of digits shown; SHOWN[power, count] is
# 255 at the columns of those digits and 0 elsewhere.
DIGIT_COLUMNS = 6 + np.arange(17) + np.minimum(np.arange(17), 15)
POINT_COLUMNS = DIGIT_COLUMNS[:15] + 1
TEMPLATES = np.zeros((2, len(POWERS), 18, 38), np.uint8)
SHOWN = np.zeros((len(POWERS), 18, 38), np.uint8)
TEMPLATES[1, ..., 0] = ord("-")
for _row, _power in enumerate(POWERS):
    if _power < 0:
        _prefix = np.frombuffer(("0." + "0" * (-_power - 1)).encode(), np.uint8)
        TEMPLATES[:, _row, :, 1 : 1 + len(_prefix)] = _prefix
    else:
        TEMPLATES[:, _row, :, POINT_COLUMNS[_power]] = ord(".")
    for _count in range(1, 18):
        SHOWN[_row, _count, DIGIT_COLUMNS[:_count]] = 255
del _row, _power, _prefix, _count
# Relative distance from an interval edge or a tie below which float.__repr__ decides.
MARGIN = 1e-6


def float_reprs(values: np.ndarray) -> np.ndarray:
    """A uint8 matrix whose row i, with its NUL bytes removed, is repr(values[i]) in ASCII.

    ``values`` is a one-dimensional float64 array. NUL bytes may stand
    anywhere in a row, so one mask over the whole matrix removes them.
    """
    x = np.asarray(values, dtype=float)
    magnitude = np.abs(x)
    mantissa, exponent = np.frexp(magnitude)
    # A power of two, mantissa 1/2, has an interval twice as wide above it as below.
    fast = (magnitude >= 1e-4) & (magnitude < 1e15) & (mantissa != 0.5)
    del mantissa
    # Every other value is worked as 1.5 = 0.75 * 2^1 and written by float.__repr__.
    slow = ~fast
    magnitude[slow] = 1.5
    exponent[slow] = 1
    digits, power, decided = _shortest(magnitude, exponent)
    del magnitude, exponent
    fast &= decided
    slow = ~fast
    del fast, decided
    digits[slow] = 10**16
    power[slow] = 0
    cells = _layout(digits, power, x < 0)
    slow = np.flatnonzero(slow)
    if len(slow):
        texts = [float.__repr__(value) for value in x[slow].tolist()]
        width = max(map(len, texts))
        if width > cells.shape[1]:
            cells = np.pad(cells, ((0, 0), (0, width - cells.shape[1])))
        cells[slow] = 0
        cells[slow, :width] = np.frombuffer(
            "".join(text.ljust(width, "\0") for text in texts).encode(), np.uint8
        ).reshape(-1, width)
    return cells


def _shortest(
    magnitude: np.ndarray, exponent: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The shortest digits of each positive, finite value, as a 17-digit integer.

    exponent is the binary exponent that np.frexp gives for magnitude.

    Returns (digits, power, decided): the digits padded with zeros to 17,
    the decimal exponent of the first, and whether steps 1 to 3 of the
    module docstring decide them. Undecided rows hold any integers.
    """
    binade = exponent + 13
    power = BINADE_POWERS.take(binade)
    power += magnitude >= NEXT_TENS.take(binade)
    del binade
    shift = 16 - power
    scale = POW10[shift]
    product = magnitude * scale
    cut = magnitude * SPLITTER
    high = cut - (cut - magnitude)
    low = np.subtract(magnitude, high, out=cut)
    scale_high, scale_low = POW10_HI[shift], POW10_LO[shift]
    error = ((high * scale_high - product) + high * scale_low + low * scale_high) + low * scale_low
    del cut, high, low, scale_high, scale_low
    nearest = error + ROUNDER
    nearest -= ROUNDER
    # product is an integer here, and product + error is P exactly.
    d17 = product.astype(np.int64)
    d17 += nearest.astype(np.int64)
    rest = np.subtract(error, nearest, out=error)
    del product, nearest
    half_ulp = np.ldexp(scale, exponent - 54, out=scale)

    d16 = d17 // 10
    below = (d17 - 10 * d16) + rest
    up = below > 5
    d16 += up
    miss16 = np.abs(below - 10 * up)
    d15 = d17 // 100
    below = (d17 - 100 * d15) + rest
    up = below > 50
    d15 += up
    miss15 = np.abs(below - 100 * up)
    del below, up, rest
    ok15 = miss15 < half_ulp * (1 - MARGIN)
    ok16 = (miss16 < half_ulp * (1 - MARGIN)) & (np.abs(miss16 - 5) > 5 * MARGIN)
    decided = ok15 | (
        (miss15 > half_ulp * (1 + MARGIN)) & (ok16 | (miss16 > half_ulp * (1 + MARGIN)))
    )
    # A carry to an extra digit, as for 9.999999999999998, is left to float.__repr__.
    decided &= d15 < 10**15
    d15 *= 100
    d16 *= 10
    digits = np.where(ok15, d15, np.where(ok16, d16, d17))
    return digits, power, decided


def _layout(digits: np.ndarray, power: np.ndarray, negative: np.ndarray) -> np.ndarray:
    """The rows of the values with these 17 digits, decimal exponents and signs.

    digits[i] lies in [10^16, 10^17), and power[i] is in POWERS. Only the
    columns of TEMPLATES that some row uses are kept. digits is overwritten.
    """
    # digits = lead * 10^16 + g1 * 10^12 + g2 * 10^8 + g3 * 10^4 + g4, split
    # in place: digits becomes g4 and upper g2.
    words = np.empty((len(digits), 5), np.uint32)
    lead = digits // 10**16
    words[:, 0] = DIGITS4.take(lead)
    digits -= lead * 10**16
    del lead
    upper = digits // 10**8
    digits -= upper * 10**8
    high, low = upper // 10**4, digits // 10**4
    upper -= high * 10**4
    digits -= low * 10**4
    groups = [high, upper, low, digits]
    for column, group in enumerate(groups, 1):
        words[:, column] = DIGITS4.take(group)
    # The lead digit is the last byte of its word.
    matrix = words.view(np.uint8)[:, 3:]

    # Digits are shown up to the last nonzero one and, when the value is an
    # integer, up to the "0" after its point.
    zeros = TRAILING_ZEROS4.take(groups[3])
    ended = groups[3] == 0
    for group in groups[2::-1]:
        zeros += ended * TRAILING_ZEROS4.take(group)
        ended &= group == 0
    count = np.maximum(17 - zeros, power + 2)

    lowest = int(power.min(initial=0))
    top = int(power.max(initial=0))
    # The sign and the prefix of the lowest power, the digits that can end
    # the integer part with their points, and the other digits.
    head = 2 - lowest if lowest else 1
    columns = np.concatenate(
        (np.arange(head), np.arange(6, 8 + 2 * top), DIGIT_COLUMNS[top + 1 :])
    )
    cells = np.zeros((len(digits), len(columns)), np.uint8)
    cells[:, head : head + 2 * top + 2 : 2] = matrix[:, : top + 1]
    cells[:, head + 2 * top + 2 :] = matrix[:, top + 1 :]
    index = (power - POWERS[0]) * 18 + count
    cells &= SHOWN.reshape(-1, 38)[:, columns].take(index, axis=0)
    index += negative * SHOWN.size // 38
    cells |= TEMPLATES.reshape(-1, 38)[:, columns].take(index, axis=0)
    return cells
