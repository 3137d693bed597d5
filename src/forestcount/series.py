"""Exact truncated bivariate power series over arbitrary-precision integers.

A BiSeries holds the coefficients of a formal series in two variables
(x marking codimension, y marking degree) restricted to the box
0 <= c <= cmax, 0 <= d <= dmax.  All arithmetic truncates to the box.
Every series in this package has nonnegative exponents only, so each
retained coefficient of a sum or product is exact: discarded terms can
never flow back into the box.

Coefficients are plain Python ints (the native arbitrary-precision
integer), so there is no rounding and no overflow at any magnitude.
Instances are immutable after construction and safe to share across
threads; all operations are pure functions.

Products and quotients share one packed row loop (see _convolve); a
plain nested-loop product, `mul_reference`, is the test suite's check
on it.
"""

from __future__ import annotations

import operator
import struct
from collections.abc import Iterator, Sequence
from functools import lru_cache
from itertools import repeat

# Packed rows kept by `_pack`, least recently used evicted first.  An
# odd (64,32) solve packs 919 distinct (row, width) pairs and a linear
# one 1,044; larger boxes evict during the solve.
PACK_MEMO_SIZE = 1024
# `struct` format codes of the slot widths it converts in C: signed
# little-endian integers of 1, 2, 4 and 8 bytes.
_STRUCT_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}


class BoxMismatchError(ValueError):
    """Two series with different truncation boxes were combined."""


@lru_cache(maxsize=PACK_MEMO_SIZE)
def _pack(row: tuple[int, ...], bps: int) -> int:
    """Pack a row into the signed slot integer sum_c row[c] * 2**(8*bps*c).

    Slot c occupies bytes [c*bps, (c+1)*bps) little-endian; callers size
    bps so that every coefficient and every slot of any product or
    accumulation stays below 2**(8*bps-1) in absolute value.  Each slot
    is written in two's complement, by one `struct.pack` call for slots
    of 1, 2, 4 or 8 bytes and by `int.to_bytes` per slot for wider ones,
    so a negative slot also adds one to the slot above.  The negative
    slots are exactly those with their top bit set: shifted down to the
    bottom bit of their slot, masked by `_ones` and shifted up one slot,
    those bits are the units to subtract, all in one expression.  A
    coefficient outside the slot's range raises (`struct.error` or
    `OverflowError`); it never wraps.

    Memoised by value, so equal rows share one packing per width even
    when they are different tuples (each Newton step rebuilds its low
    rows); hashing a row costs a small fraction of packing it.
    """
    code = _STRUCT_CODES.get(bps)
    if code:
        buf = struct.pack(f"<{len(row)}{code}", *row)
    else:  # up to the last nonzero slot: high zero bytes add nothing
        top = len(row)
        while top and not row[top - 1]:
            top -= 1
        buf = b"".join([row[c].to_bytes(bps, "little", signed=True)
                        for c in range(top)])
    packed = int.from_bytes(buf, "little")
    if min(row) < 0:
        w = 8 * bps
        packed -= ((packed >> (w - 1)) & _ones(len(row), bps)) << w
    return packed


@lru_cache(maxsize=64)    # one mask per (slots per row, bytes per slot)
def _ones(nslots: int, bps: int) -> int:
    """The packed int with the bottom bit of each of the first nslots
    slots set."""
    return int.from_bytes((b"\x01" + bytes(bps - 1)) * nslots, "little")


@lru_cache(maxsize=64)
def _zeros(n: int) -> tuple[int, ...]:
    return (0,) * n


def _unpack(acc: int, nslots: int, bps: int) -> tuple[int, ...]:
    """The first nslots signed slots of a packed int, as a tuple.

    Only the slots up to acc's top nonzero slot t are read; the rest are
    a shared zero tuple.  With w = 8*bps, every slot s_c of acc lies
    below 2**(w-1) in absolute value (callers size bps so), hence
    |sum_{c<t} s_c 2**(w*c)| <= (2**(w-1) - 1)(2**(w*t) - 1)/(2**w - 1)
    < 2**(w*t-1), so 2**(w*t-1) < |acc| < 2**(w*(t+1)-1): |acc| has at
    least w*t and at most w*(t+1) - 1 bits, and t = bits // w exactly.
    A product's slots above nslots are dropped, so at most nslots are
    read.

    Adding the bias, the top bit of each slot, lifts every slot into
    [0, 2**w) without carries between slots; flipping the same bits
    back leaves each slot in two's complement, read as a signed value:
    by one `struct.unpack` call for slots of 1, 2, 4 or 8 bytes,
    `int.from_bytes` per slot for wider ones.
    """
    w = 8 * bps
    k = min(abs(acc).bit_length() // w + 1, nslots)
    bias = _ones(k, bps) << (w - 1)
    low = ((acc + bias) & ((1 << (w * k)) - 1)) ^ bias
    buf = low.to_bytes(k * bps, "little")
    code = _STRUCT_CODES.get(bps)
    if code:
        head = struct.unpack(f"<{k}{code}", buf)
    else:
        head = tuple([int.from_bytes(buf[c * bps:(c + 1) * bps], "little",
                                     signed=True) for c in range(k)])
    return head + _zeros(nslots - k)


def _row_bits(rows: Sequence[Sequence[int]]) -> list[int]:
    """max|v|.bit_length() of each row: 0 exactly for an all-zero row."""
    return [max(map(abs, r)).bit_length() if any(r) else 0 for r in rows]


def _convolve(a: Sequence[tuple[int, ...]], b: Sequence[tuple[int, ...]],
              lo: int, dbound: int) -> Iterator[tuple[int, ...]]:
    """Yield the rows sum_{i=lo..d} a[i] * b[d-i] for d = 0..dbound.

    a holds rows 0..dbound.  b may grow while rows are read: a quotient
    passes the list of its own rows and appends row d after reading row
    d (lo = 1, so row d reads b[0..d-1] only, whose sizes are known by
    then).  Each output row sizes its own slots from the rows that meet
    in it: the largest bits(a_i) + bits(b_{d-i}) over the pairs with both
    rows nonzero, plus the bits of nslots * (d+1), the most slot products
    one slot can sum, plus a sign bit, in whole bytes: up to 8 bytes
    rounded up to a power of two, so `_pack` and `_unpack` convert the
    slots through `struct`, and above 8 bytes rounded up to a multiple
    of 8, since the multiply's cost follows the bits per slot and a
    power of two would pad a 17-byte slot to 32.  (Exact byte widths
    make more width classes, hence more packs, and are slower.)  Each
    such width class keeps its own packed rows; a row enters a class the
    first time it meets a nonzero row there, through the `_pack` memo,
    which also serves the rows that earlier products already packed at
    that width, and each pair is multiplied as soon as its rows are
    packed.  A product of a series with itself (b is a) is a square: it
    shares one list per class, lists only the pairs i <= d-i and doubles
    every product but the middle one.  A row with no nonzero pair, or
    whose sum is zero, is a shared zero tuple.
    """
    nslots = len(a[0])
    zero_row = (0,) * nslots
    square = b is a
    abits = _row_bits(a)
    bbits = abits if square else []
    # width class bps -> (packed rows of a, packed rows of b); a nonzero
    # row packs to a nonzero int, so 0 also marks "not packed yet"
    classes: dict[int, tuple[list[int], list[int]]] = {}
    for d in range(dbound + 1):
        if not square:
            bbits += _row_bits(b[len(bbits):])
        top = d // 2 if square else d
        pairs = [i for i in range(lo, top + 1) if abits[i] and bbits[d - i]]
        if not pairs:
            yield zero_row
            continue
        need = max([abits[i] + bbits[d - i] for i in pairs])
        nbytes = (need + (nslots * (d + 1)).bit_length() + 8) // 8
        bps = (1 << (nbytes - 1).bit_length() if nbytes <= 8
               else (nbytes + 7) // 8 * 8)
        if bps not in classes:
            pa = [0] * (dbound + 1)
            classes[bps] = (pa, pa if square else pa[:])
        pa, pb = classes[bps]
        acc = 0
        # only rows that meet here are packed: another row of a or b may
        # be too wide for this class
        for i in pairs:
            j = d - i
            if not pa[i]:
                pa[i] = _pack(a[i], bps)
            if not pb[j]:
                pb[j] = _pack(b[j], bps)
            p = pa[i] * pb[j]
            acc += p + p if square and i < j else p
        yield _unpack(acc, nslots, bps) if acc else zero_row


class BiSeries:
    """Dense truncated bivariate series with exact int coefficients."""

    __slots__ = ("cmax", "dmax", "_rows")

    def __init__(self, cmax: int, dmax: int,
                 rows: tuple[tuple[int, ...], ...]):
        # rows[d][c]; use the constructors below rather than this directly
        self.cmax = cmax
        self.dmax = dmax
        self._rows = rows

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, cmax: int, dmax: int) -> "BiSeries":
        if cmax < 0 or dmax < 0:
            raise ValueError("box bounds must be nonnegative")
        row = (0,) * (cmax + 1)
        return cls(cmax, dmax, (row,) * (dmax + 1))

    @classmethod
    def one(cls, cmax: int, dmax: int) -> "BiSeries":
        return cls.monomial(cmax, dmax, 0, 0, 1)

    @classmethod
    def monomial(cls, cmax: int, dmax: int, c: int, d: int,
                 coeff: int = 1) -> "BiSeries":
        """The series coeff * x^c y^d (zero if (c,d) falls outside the box)."""
        if cmax < 0 or dmax < 0:
            raise ValueError("box bounds must be nonnegative")
        if c < 0 or d < 0:
            raise ValueError("exponents must be nonnegative")
        zero_row = (0,) * (cmax + 1)
        rows = [zero_row] * (dmax + 1)
        if c <= cmax and d <= dmax:
            rows[d] = zero_row[:c] + (coeff,) + zero_row[c + 1:]
        return cls(cmax, dmax, tuple(rows))

    @classmethod
    def from_terms(cls, cmax: int, dmax: int,
                   terms: dict[tuple[int, int], int]) -> "BiSeries":
        """Build from a {(c, d): coefficient} mapping; out-of-box terms error."""
        rows = [[0] * (cmax + 1) for _ in range(dmax + 1)]
        for (c, d), v in terms.items():
            if not (0 <= c <= cmax and 0 <= d <= dmax):
                raise ValueError(f"term ({c},{d}) outside box ({cmax},{dmax})")
            rows[d][c] = v
        return cls(cmax, dmax, tuple(tuple(r) for r in rows))

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------

    def coeff(self, c: int, d: int) -> int:
        """Coefficient of x^c y^d; reads outside the box error."""
        if not (0 <= c <= self.cmax and 0 <= d <= self.dmax):
            raise IndexError(f"({c},{d}) outside box ({self.cmax},{self.dmax})")
        return self._rows[d][c]

    def terms(self) -> Iterator[tuple[int, int, int]]:
        """Yield (c, d, coefficient) for every nonzero coefficient."""
        for d, row in enumerate(self._rows):
            for c, v in enumerate(row):
                if v:
                    yield c, d, v

    def grid(self) -> list[list[int]]:
        """Coefficients as a (cmax+1) x (dmax+1) nested list, entry [c][d]."""
        return [[self._rows[d][c] for d in range(self.dmax + 1)]
                for c in range(self.cmax + 1)]

    def is_zero(self) -> bool:
        return all(not any(row) for row in self._rows)

    def valuation(self) -> int:
        """The first row d holding a nonzero coefficient (the y-valuation),
        dmax + 1 for the zero series."""
        for d, row in enumerate(self._rows):
            if any(row):
                return d
        return self.dmax + 1

    def box(self) -> tuple[int, int]:
        return (self.cmax, self.dmax)

    def min_coefficient(self) -> int:
        return min(min(row) for row in self._rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BiSeries):
            return NotImplemented
        return (self.cmax == other.cmax and self.dmax == other.dmax
                and self._rows == other._rows)

    def __hash__(self) -> int:
        return hash((self.cmax, self.dmax, self._rows))

    def __repr__(self) -> str:
        shown = []
        for c, d, v in self.terms():
            shown.append(f"{v}*x^{c}*y^{d}")
            if len(shown) == 6:
                shown.append("...")
                break
        body = " + ".join(shown) if shown else "0"
        return f"BiSeries({self.cmax},{self.dmax}; {body})"

    # ------------------------------------------------------------------
    # ring operations
    # ------------------------------------------------------------------

    def _check_box(self, other: "BiSeries") -> None:
        if self.cmax != other.cmax or self.dmax != other.dmax:
            raise BoxMismatchError(
                f"box mismatch: ({self.cmax},{self.dmax}) vs "
                f"({other.cmax},{other.dmax})")

    def __add__(self, other: "BiSeries") -> "BiSeries":
        self._check_box(other)
        rows = tuple(tuple(map(operator.add, ra, rb))
                     for ra, rb in zip(self._rows, other._rows))
        return BiSeries(self.cmax, self.dmax, rows)

    def __sub__(self, other: "BiSeries") -> "BiSeries":
        self._check_box(other)
        rows = tuple(tuple(map(operator.sub, ra, rb))
                     for ra, rb in zip(self._rows, other._rows))
        return BiSeries(self.cmax, self.dmax, rows)

    def __neg__(self) -> "BiSeries":
        rows = tuple(tuple(-v for v in row) for row in self._rows)
        return BiSeries(self.cmax, self.dmax, rows)

    def scale(self, k: int) -> "BiSeries":
        """Multiply every coefficient by the integer k."""
        rows = tuple(tuple(map(operator.mul, row, repeat(k)))
                     for row in self._rows)
        return BiSeries(self.cmax, self.dmax, rows)

    def __mul__(self, other: "BiSeries") -> "BiSeries":
        return self._mul_bounded(other, self.dmax)

    def _mul_bounded(self, other: "BiSeries", dbound: int) -> "BiSeries":
        """Truncated product, computed only for rows d <= dbound.

        Rows above dbound come out zero (all rows when dbound < 0).  With
        nonnegative exponents the retained rows are exact, so internal
        callers can shrink dbound when higher rows are about to be shifted
        out or truncated away.
        """
        self._check_box(other)
        if dbound < 0:
            return BiSeries.zero(self.cmax, self.dmax)
        dbound = min(dbound, self.dmax)
        a = self._rows[:dbound + 1]
        b = a if other is self else other._rows[:dbound + 1]
        rows = tuple(_convolve(a, b, 0, dbound))
        return BiSeries(self.cmax, dbound, rows).pad(self.dmax)

    def __pow__(self, e: int) -> "BiSeries":
        """e-th truncated power by binary exponentiation (e >= 0)."""
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        if e == 0:
            return BiSeries.one(self.cmax, self.dmax)
        result, base = None, self
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def shift(self, dc: int, dd: int) -> "BiSeries":
        """Multiply by the monomial x^dc y^dd; terms leaving the box drop."""
        if dc < 0 or dd < 0:
            raise ValueError("shift amounts must be nonnegative")
        cmax, dmax = self.cmax, self.dmax
        zero_row = (0,) * (cmax + 1)
        out = [zero_row] * min(dd, dmax + 1)
        for d in range(dmax + 1 - dd):
            src = self._rows[d]
            out.append(zero_row if dc > cmax else
                       (0,) * dc + src[:cmax + 1 - dc])
        return BiSeries(cmax, dmax, tuple(out))

    def crop(self, cmax: int, dmax: int) -> "BiSeries":
        """The series truncated to the smaller box (cmax, dmax).

        Exact: with nonnegative exponents no coefficient inside the
        smaller box depends on one outside it.
        """
        if not (0 <= cmax <= self.cmax and 0 <= dmax <= self.dmax):
            raise ValueError(f"({cmax},{dmax}) is not inside box "
                             f"({self.cmax},{self.dmax})")
        if (cmax, dmax) == (self.cmax, self.dmax):
            return self
        rows = tuple(row[:cmax + 1] for row in self._rows[:dmax + 1])
        return BiSeries(cmax, dmax, rows)

    def drop(self, k: int) -> "BiSeries":
        """Rows k..dmax, on the box (cmax, dmax - k): the series divided
        by y^k once its rows below k are dropped.  pad(dmax).shift(0, k)
        puts them back on the taller box."""
        if not 0 <= k <= self.dmax:
            raise ValueError(f"cannot drop {k} rows of box "
                             f"({self.cmax},{self.dmax})")
        return BiSeries(self.cmax, self.dmax - k, self._rows[k:])

    def pad(self, dmax: int) -> "BiSeries":
        """The series zero-extended to the taller box (cmax, dmax)."""
        if dmax < self.dmax:
            raise ValueError(f"({self.cmax},{dmax}) is shorter than box "
                             f"({self.cmax},{self.dmax})")
        zero_row = (0,) * (self.cmax + 1)
        rows = self._rows + (zero_row,) * (dmax - self.dmax)
        return BiSeries(self.cmax, dmax, rows)

    def widen(self, cmax: int) -> "BiSeries":
        """The series zero-extended to the wider box (cmax, dmax)."""
        if cmax < self.cmax:
            raise ValueError(f"({cmax},{self.dmax}) is narrower than box "
                             f"({self.cmax},{self.dmax})")
        zeros = (0,) * (cmax - self.cmax)
        rows = tuple(row + zeros for row in self._rows)
        return BiSeries(cmax, self.dmax, rows)

    # ------------------------------------------------------------------
    # division
    # ------------------------------------------------------------------

    def divide(self, den: "BiSeries") -> "BiSeries":
        """Exact series quotient self/den; den must have constant term +-1.

        The unit constant term keeps every quotient coefficient integral;
        mul(den, result) reproduces self on the whole box.
        """
        return self._divide_bounded(den, self.dmax)

    def invert(self) -> "BiSeries":
        """Multiplicative inverse on the box; constant term must be +-1."""
        return BiSeries.one(self.cmax, self.dmax)._divide_bounded(self, self.dmax)

    def _divide_bounded(self, den: "BiSeries", dbound: int) -> "BiSeries":
        """Quotient rows for d <= dbound, zero above (exact on retained rows).

        With den's row 0 the constant unit, row d of den * q = self gives
        q_d = unit * (self_d - sum_{i=1..d} den_i q_{d-i}).
        """
        self._check_box(den)
        cmax, dmax = self.cmax, self.dmax
        dbound = min(dbound, dmax)
        den0 = den._rows[0]
        unit = den0[0]
        if unit not in (1, -1):
            raise ValueError(f"constant term must be +-1, got {unit}")
        if dbound < 0:
            return BiSeries.zero(cmax, dmax)
        num = self
        if any(den0[1:]):
            # reduce row 0 to 1 once: multiply both sides by 1/D0(x), the
            # inverse of D0 transposed into y, whose row 0 is the unit
            inv0 = BiSeries(0, cmax, tuple((v,) for v in den0)).invert()
            scale = BiSeries(cmax, 0, (tuple(inv0.grid()[0]),)).pad(dmax)
            num, den, unit = self * scale, den * scale, 1
        q: list[tuple[int, ...]] = []
        sums = _convolve(den._rows[:dbound + 1], q, 1, dbound)
        for row, s in zip(num._rows, sums):
            # unit * (row - s): the operand order carries the sign
            q.append(tuple(map(operator.sub, row, s) if unit == 1
                           else map(operator.sub, s, row)))
        return BiSeries(cmax, dbound, tuple(q)).pad(dmax)


def mul_reference(a: BiSeries, b: BiSeries) -> BiSeries:
    """Nested-loop truncated product; the independent check for __mul__."""
    a._check_box(b)
    cmax, dmax = a.cmax, a.dmax
    out = [[0] * (cmax + 1) for _ in range(dmax + 1)]
    for d1, row1 in enumerate(a._rows):
        for c1, v1 in enumerate(row1):
            if not v1:
                continue
            for d2 in range(dmax + 1 - d1):
                row2 = b._rows[d2]
                target = out[d1 + d2]
                for c2 in range(cmax + 1 - c1):
                    v2 = row2[c2]
                    if v2:
                        target[c1 + c2] += v1 * v2
    return BiSeries(cmax, dmax, tuple(tuple(r) for r in out))
