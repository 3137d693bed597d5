"""Closed-form counts and their asymptotic estimate.

All integer results are exact; divisions are checked for exactness so a
transcription slip fails loudly instead of rounding.  math.comb and
math.factorial are stateless C implementations, safe under concurrent
reads.
"""

from __future__ import annotations

import math


class DivisibilityError(ArithmeticError):
    """An exact division in a closed formula left a remainder."""


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise DivisibilityError(f"{num} not divisible by {den}")
    return q


def multinomial(n: int, parts: tuple[int, ...]) -> int:
    """n! / (k1! ... km!) with sum(parts) == n required."""
    if any(k < 0 for k in parts):
        raise ValueError("multinomial parts must be nonnegative")
    if sum(parts) != n:
        raise ValueError(f"parts {parts} do not sum to {n}")
    out = 1
    rest = n
    for k in parts[:-1]:
        out *= math.comb(rest, k)
        rest -= k
    return out


def flat_count(d: int) -> int:
    """Number of flat (codimension-0) configurations of degree d."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    return _exact_div(math.comb(4 * d + 1, d), 4 * d + 1)


def codim1_count(d: int) -> int:
    """Number of codimension-1 configurations of degree d."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if d < 2:
        return 0
    return 4 * math.comb(4 * d, d - 2)


def flat_row(dmax: int) -> list[int]:
    """flat_count(d) for d = 0..dmax, each cell from the one before:
    flat_count(d+1) = flat_count(d) (4d+1)(4d+2)(4d+3)(4d+4)
    / ((d+1)(3d+2)(3d+3)(3d+4)), one product and one exact division of
    a big int by a small one per cell instead of a binomial."""
    row, v = [], 1
    for d in range(dmax + 1):
        row.append(v)
        v = _exact_div(v * ((4*d + 1) * (4*d + 2) * (4*d + 3) * (4*d + 4)),
                       (d + 1) * (3*d + 2) * (3*d + 3) * (3*d + 4))
    return row


def codim1_row(dmax: int) -> list[int]:
    """codim1_count(d) for d = 0..dmax, each cell from the one before:
    codim1_count(d+1) = codim1_count(d) (4d+1)(4d+2)(4d+3)(4d+4)
    / ((d-1)(3d+3)(3d+4)(3d+5)) for d >= 2."""
    row, v = [0, 0][:dmax + 1], 4
    for d in range(2, dmax + 1):
        row.append(v)
        v = _exact_div(v * ((4*d + 1) * (4*d + 2) * (4*d + 3) * (4*d + 4)),
                       (d - 1) * (3*d + 3) * (3*d + 4) * (3*d + 5))
    return row


def simple_count(c: int, d: int) -> int:
    """Number of simple configurations of codimension c and degree d:
    0 when d < 2c, else 4^c / (c+3d+1) * multinomial(4d; c, d-2c, c+3d)."""
    if c < 0 or d < 0:
        raise ValueError("codimension and degree must be nonnegative")
    if d < 2 * c:
        return 0
    m = multinomial(4 * d, (c, d - 2 * c, c + 3 * d))
    return _exact_div(4 ** c * m, c + 3 * d + 1)


def fuss_convolution(a: int, b: int) -> int:
    """sum over d1+...+da = b of prod flat_count(di), in closed form:
    a/(4b+a) * C(4b+a, b)."""
    if a < 1:
        raise ValueError("need at least one factor")
    if b < 0:
        raise ValueError("total degree must be nonnegative")
    return _exact_div(a * math.comb(4 * b + a, b), 4 * b + a)


# ----------------------------------------------------------------------
# asymptotics
# ----------------------------------------------------------------------

_LOG_PREFIX = 0.5 * math.log(2.0 / (27.0 * math.pi))
_LOG_BASE_C = math.log(4.0 / 3.0)
_LOG_BASE_D = math.log(256.0 / 27.0)


def asymptotic_log(c: int, d: int) -> float:
    """log of the large-degree estimate for counts at fixed codimension c:
    sqrt(2/(27 pi)) (4/3)^c (256/27)^d d^(c-3/2) / c!.

    Log-gamma keeps this cheap and overflow-free for c, d up to 1e4 and
    beyond; compare against exact counts via their logs.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    if c < 0:
        raise ValueError("codimension must be nonnegative")
    return (_LOG_PREFIX + c * _LOG_BASE_C + d * _LOG_BASE_D
            + (c - 1.5) * math.log(d) - math.lgamma(c + 1))


def asymptotic_estimate(c: int, d: int) -> float:
    """Floating-point value of the estimate (may overflow to inf for huge
    d; use asymptotic_log for comparisons at scale)."""
    try:
        return math.exp(asymptotic_log(c, d))
    except OverflowError:
        return math.inf


def asymptotic_ratio(exact: int, c: int, d: int) -> float:
    """exact / estimate, evaluated in the log domain."""
    if exact <= 0:
        raise ValueError("exact count must be positive")
    return math.exp(math.log(exact) - asymptotic_log(c, d))
