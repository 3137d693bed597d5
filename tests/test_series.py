import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from forestcount.series import (PACK_MEMO_SIZE, BiSeries, BoxMismatchError,
                                _pack, _unpack, mul_reference)


def series_from(cmax, dmax, terms):
    return BiSeries.from_terms(cmax, dmax, terms)


# ----------------------------------------------------------------------
# constructors and access
# ----------------------------------------------------------------------

def test_one_has_single_unit_coefficient():
    one = BiSeries.one(2, 2)
    assert one.coeff(0, 0) == 1
    assert one.coeff(1, 1) == 0
    assert one.coeff(2, 2) == 0


def test_zero_is_zero_everywhere():
    z = BiSeries.zero(0, 0)
    assert z.coeff(0, 0) == 0
    assert z.is_zero()


def test_coeff_outside_box_errors():
    one = BiSeries.one(2, 2)
    with pytest.raises(IndexError):
        one.coeff(3, 0)
    with pytest.raises(IndexError):
        one.coeff(0, -1)


def test_negative_box_rejected():
    with pytest.raises(ValueError):
        BiSeries.zero(-1, 0)


def test_from_terms_out_of_box_rejected():
    with pytest.raises(ValueError):
        series_from(1, 1, {(2, 0): 1})


# ----------------------------------------------------------------------
# add / sub / mul basics
# ----------------------------------------------------------------------

def test_binomial_square():
    # (1 + xy)^2 = 1 + 2xy + x^2 y^2
    a = series_from(2, 2, {(0, 0): 1, (1, 1): 1})
    sq = a * a
    assert sq.coeff(0, 0) == 1
    assert sq.coeff(1, 1) == 2
    assert sq.coeff(2, 2) == 1


def test_mul_truncates():
    y = series_from(0, 1, {(0, 1): 1})
    assert (y * y).is_zero()


def test_sub_self_is_zero():
    a = series_from(3, 3, {(0, 0): 5, (2, 1): -7, (3, 3): 2})
    assert (a - a).is_zero()


def test_box_mismatch_is_error():
    a = BiSeries.one(2, 2)
    b = BiSeries.one(2, 3)
    with pytest.raises(BoxMismatchError):
        a + b
    with pytest.raises(BoxMismatchError):
        a * b


# ----------------------------------------------------------------------
# shift
# ----------------------------------------------------------------------

def test_shift_moves_unit():
    assert BiSeries.one(2, 2).shift(1, 1).coeff(1, 1) == 1


def test_shift_out_of_box_drops():
    assert BiSeries.one(2, 2).shift(3, 0).is_zero()


def test_shift_identity():
    a = series_from(2, 3, {(1, 2): 4, (0, 0): -1})
    assert a.shift(0, 0) == a


def test_shift_negative_rejected():
    with pytest.raises(ValueError):
        BiSeries.one(2, 2).shift(-1, 0)


def test_crop_keeps_the_smaller_box():
    a = series_from(3, 4, {(0, 0): 1, (1, 2): -5, (3, 1): 7, (2, 4): 2})
    small = a.crop(1, 2)
    assert small.box() == (1, 2)
    assert list(small.terms()) == [(0, 0, 1), (1, 2, -5)]
    assert a.crop(3, 4) is a
    # products commute with cropping: no term outside the box flows in
    b = series_from(3, 4, {(0, 0): -1, (1, 1): 3, (0, 3): 4})
    assert (a * b).crop(2, 3) == a.crop(2, 3) * b.crop(2, 3)
    with pytest.raises(ValueError):
        a.crop(4, 4)
    with pytest.raises(ValueError):
        a.crop(-1, 0)


def test_pad_zero_extends_to_a_taller_box():
    a = series_from(3, 2, {(0, 0): 1, (1, 2): -5, (3, 1): 7})
    b = series_from(3, 2, {(0, 0): -1, (1, 1): 3, (2, 2): 4})
    tall = a.pad(6)
    assert tall.box() == (3, 6)
    assert all(tall.coeff(c, d) == 0 for c in range(4) for d in range(3, 7))
    assert tall.crop(3, 2) == a
    assert a.pad(2) == a
    with pytest.raises(ValueError):
        a.pad(1)
    # a product on the taller box is exact on the original rows
    assert (a.pad(6) * b.pad(6)).crop(3, 2) == a * b
    # drop(k) keeps rows k..dmax; padded and shifted back, rows below k
    # are zero and the rest unchanged
    for s in (a, b, tall):
        for k in range(s.dmax + 1):
            low = {(c, d): v for c, d, v in s.terms() if d >= k}
            assert s.drop(k).box() == (3, s.dmax - k)
            assert s.drop(k).pad(s.dmax).shift(0, k) == \
                series_from(3, s.dmax, low)
        for k in (-1, s.dmax + 1):
            with pytest.raises(ValueError):
                s.drop(k)


def test_widen_zero_extends_to_a_wider_box():
    a = series_from(2, 3, {(0, 0): 1, (1, 2): -5, (2, 3): 7})
    wide = a.widen(5)
    assert wide.box() == (5, 3)
    assert wide == series_from(5, 3, dict(((c, d), v)
                                          for c, d, v in a.terms()))
    assert wide.crop(2, 3) == a
    assert a.widen(2) == a
    with pytest.raises(ValueError):
        a.widen(1)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 7),
       st.integers(0, 7), st.integers(-9, 9))
def test_monomial_matches_a_cell_by_cell_build(cmax, dmax, c, d, coeff):
    # the construction of every row as its own list of cells, which
    # monomial's shared zero rows replace; (c, d) may lie outside the box
    rows = [[0] * (cmax + 1) for _ in range(dmax + 1)]
    if c <= cmax and d <= dmax:
        rows[d][c] = coeff
    cells = BiSeries(cmax, dmax, tuple(tuple(r) for r in rows))
    m = BiSeries.monomial(cmax, dmax, c, d, coeff)
    assert m == cells
    assert all(type(row) is tuple and len(row) == cmax + 1
               for row in m._rows)
    assert BiSeries.one(cmax, dmax) == BiSeries.monomial(cmax, dmax, 0, 0)


# ----------------------------------------------------------------------
# pow
# ----------------------------------------------------------------------

def test_pow_zero_is_one():
    a = series_from(2, 2, {(1, 0): 3, (0, 1): -2})
    assert a ** 0 == BiSeries.one(2, 2)


def test_pow_binomial():
    # (1 + y)^4 has y^2 coefficient 6
    a = series_from(0, 4, {(0, 0): 1, (0, 1): 1})
    assert (a ** 4).coeff(0, 2) == 6


def test_pow_two_equals_mul():
    a = series_from(3, 3, {(0, 0): 2, (1, 1): -3, (2, 0): 1, (0, 3): 7})
    assert a ** 2 == a * a


def test_pow_negative_rejected():
    with pytest.raises(ValueError):
        BiSeries.one(1, 1) ** -1


# ----------------------------------------------------------------------
# invert / divide
# ----------------------------------------------------------------------

def test_invert_one():
    one = BiSeries.one(3, 3)
    assert one.invert() == one


def test_invert_geometric():
    # 1/(1+y) = 1 - y + y^2 - y^3
    a = series_from(0, 3, {(0, 0): 1, (0, 1): 1})
    inv = a.invert()
    assert [inv.coeff(0, d) for d in range(4)] == [1, -1, 1, -1]


def test_invert_requires_unit():
    with pytest.raises(ValueError):
        series_from(1, 1, {(0, 0): 2}).invert()
    with pytest.raises(ValueError):
        BiSeries.zero(1, 1).invert()


def test_invert_negative_unit():
    a = series_from(1, 2, {(0, 0): -1, (0, 1): 3, (1, 1): -2})
    assert a * a.invert() == BiSeries.one(1, 2)


def test_divide_roundtrip():
    num = series_from(2, 3, {(0, 0): 4, (1, 1): -2, (2, 3): 9})
    den = series_from(2, 3, {(0, 0): 1, (1, 0): 5, (0, 2): -3})
    assert den * num.divide(den) == num


def test_x_terms_in_row_zero_cost_one_reduction(monkeypatch):
    # row 0 = 1 + 5x is reduced to 1 by one one-column inverse, and the
    # reduced pair goes straight on to the quotient rows: no nested call
    # on it, whose end would rest on every product being right
    num = series_from(2, 3, {(0, 0): 4, (1, 1): -2, (2, 3): 9})
    den = series_from(2, 3, {(0, 0): 1, (1, 0): 5, (0, 2): -3})
    boxes = []
    divide_bounded = BiSeries._divide_bounded

    def spy(self, other, dbound):
        boxes.append(self.box())
        return divide_bounded(self, other, dbound)

    monkeypatch.setattr(BiSeries, "_divide_bounded", spy)
    q = num.divide(den)
    assert boxes == [(2, 3), (0, 2)]
    assert den * q == num


# ----------------------------------------------------------------------
# property tests: ring axioms, packed product vs reference
# ----------------------------------------------------------------------

WIDE = 2 ** 130


@st.composite
def boxed_series(draw, max_c=4, max_d=4, bound=50, min_c=0):
    cmax = draw(st.integers(min_c, max_c))
    dmax = draw(st.integers(0, max_d))
    coeff = st.integers(-bound, bound)
    rows = [[draw(coeff) for _ in range(cmax + 1)] for _ in range(dmax + 1)]
    return BiSeries(cmax, dmax, tuple(tuple(r) for r in rows))


@st.composite
def series_triple(draw, bound=50, min_c=0):
    a = draw(boxed_series(bound=bound, min_c=min_c))
    coeff = st.integers(-bound, bound)

    def same_box():
        rows = [[draw(coeff) for _ in range(a.cmax + 1)]
                for _ in range(a.dmax + 1)]
        return BiSeries(a.cmax, a.dmax, tuple(tuple(r) for r in rows))

    return a, same_box(), same_box()


@st.composite
def skewed_triple(draw):
    """Three series on one box whose row magnitudes jump at a drawn split:
    either tiny coefficients below it and +-2**130-sized ones from it on,
    or mirrored, +-2**130-sized rows below it, an all-zero row at it and
    tiny rows above it."""
    cmax = draw(st.integers(1, 4))
    dmax = draw(st.integers(2, 5))
    falling = draw(st.booleans())
    split = draw(st.integers(1, dmax - 1 if falling else dmax))
    tiny = st.integers(-3, 3)
    huge = st.builds(lambda v, sign: sign * v, st.integers(WIDE - 3, WIDE),
                     st.sampled_from([1, -1]))

    def kind(d):
        if not falling:
            return tiny if d < split else huge
        return huge if d < split else st.just(0) if d == split else tiny

    def series():
        rows = [[draw(kind(d)) for _ in range(cmax + 1)]
                for d in range(dmax + 1)]
        return BiSeries(cmax, dmax, tuple(tuple(r) for r in rows))

    return series(), series(), series()


def with_unit(s, unit):
    """s with constant term unit and a nonzero x^1 y^0 term (if cmax >= 1)."""
    rows = [list(r) for r in s._rows]
    rows[0][0] = unit
    if s.cmax >= 1:
        rows[0][1] = rows[0][1] or -WIDE
    return BiSeries(s.cmax, s.dmax, tuple(tuple(r) for r in rows))


@settings(max_examples=60, deadline=None)
@given(series_triple())
def test_ring_axioms(triple):
    a, b, c = triple
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=80, deadline=None)
@given(series_triple())
def test_packed_product_matches_reference(triple):
    a, b, _ = triple
    assert a * b == mul_reference(a, b)
    assert a * a == mul_reference(a, a)


@settings(max_examples=60, deadline=None)
@given(series_triple(bound=WIDE))
def test_packed_product_wide_signed_matches_reference(triple):
    a, b, _ = triple
    assert a * b == mul_reference(a, b)
    assert a * a == mul_reference(a, a)


# rows of b bits need slots of about b/4 bytes, so the bits just below
# 4 * step put the needed widths on both sides of each 8-byte step:
# 8/9, 16/17 and 24/25 bytes
@pytest.mark.parametrize("bits", [*range(1, 18)] + [
    b for step in (8, 16, 24) for b in range(4 * step - 2, 4 * step + 2)])
def test_packed_product_fills_slots(bits):
    # all-maximal rows push a product slot to the top of its sizing bound
    top = 2 ** bits - 1
    for cmax, dmax in ((0, 2), (1, 1), (2, 4)):
        full = {(c, d): top for c in range(cmax + 1) for d in range(dmax + 1)}
        a = series_from(cmax, dmax, full)
        for b in (a, -a):
            assert a * b == mul_reference(a, b)


@settings(max_examples=60, deadline=None)
@given(skewed_triple(), st.sampled_from([1, -1]))
def test_skewed_rows_match_reference(triple, unit):
    # each output row has its own slot width, so a row packed or read at
    # another row's width overflows: the huge rows at a tiny row's width,
    # the quotient's growing rows at the width of the rows before them
    a, b, c = triple
    assert a * b == mul_reference(a, b)
    assert a * a == mul_reference(a, a)
    plain = (unit,) + (0,) * a.cmax
    with_x = (unit, c.coeff(1, 0) or 1) + c._rows[0][2:]
    for row0 in (plain, with_x):
        den = BiSeries(a.cmax, a.dmax, (row0,) + c._rows[1:])
        assert mul_reference(den, b.divide(den)) == b


@settings(max_examples=40, deadline=None)
@given(boxed_series(max_c=3, max_d=3, bound=WIDE))
def test_pow_matches_repeated_reference_products(a):
    expected = BiSeries.one(a.cmax, a.dmax)
    for e in range(6):
        assert a ** e == expected, e
        expected = mul_reference(expected, a)


@settings(max_examples=40, deadline=None)
@given(series_triple(bound=WIDE), st.sampled_from([1, -1]))
def test_bounded_rows_match_full_result(triple, unit):
    # rows d <= k equal the full product/quotient, rows above k are zero;
    # a negative k keeps no row (it must not wrap around to rows[:-1])
    a, b, c = triple
    den = with_unit(c, unit)
    full_mul, full_div = a * b, a.divide(den)
    zero = BiSeries.zero(a.cmax, a.dmax)
    cmax, dmax = a.box()
    for k in range(dmax + 1):
        assert a._mul_bounded(b, k) == full_mul.crop(cmax, k).pad(dmax)
        assert a._divide_bounded(den, k) == full_div.crop(cmax, k).pad(dmax)
    for k in (-1, -2, -a.dmax - 3):
        assert a._mul_bounded(b, k) == zero
        assert a._divide_bounded(den, k) == zero


# ----------------------------------------------------------------------
# the packed kernel: squares in _convolve, the _pack memo
# ----------------------------------------------------------------------

def renewed(s):
    """s with every row a new tuple of the same values."""
    return BiSeries(s.cmax, s.dmax, tuple(tuple(list(r)) for r in s._rows))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.one_of(st.just(0), st.integers(-WIDE, WIDE)),
                min_size=1, max_size=9))
@example([5, 7, 0, 11, 13])         # d = 4 has a zero middle row
@example([0, 3, 0, 0, 2, 0])        # zeros beside every middle
@example([0, 0, 0, 0])
def test_square_equals_the_pair_sum(values):
    # a one-column series (cmax 0) packs each row into one slot, so row d
    # of its square is the plain pair sum; zeros are drawn often: zero
    # middle rows and zero partners.  a * a takes the square path,
    # a * renewed(a) the general one
    a = BiSeries(0, len(values) - 1, tuple((v,) for v in values))
    pair_sums = [sum(values[i] * values[d - i] for i in range(d + 1))
                 for d in range(len(values))]
    assert [r[0] for r in (a * a)._rows] == pair_sums
    assert [r[0] for r in (a * renewed(a))._rows] == pair_sums


@st.composite
def series_with_zero_rows(draw):
    """A series whose drawn rows, the middle ones included, are zero."""
    a = draw(boxed_series(max_c=4, max_d=6, bound=WIDE))
    zeroed = draw(st.sets(st.integers(0, a.dmax)))
    zero_row = (0,) * (a.cmax + 1)
    return BiSeries(a.cmax, a.dmax, tuple(
        zero_row if d in zeroed else r for d, r in enumerate(a._rows)))


@settings(max_examples=60, deadline=None)
@given(series_with_zero_rows())
def test_square_matches_general_product_and_reference(a):
    # a * a takes the square path, a * renewed(a) the general one
    assert a * a == a * renewed(a) == mul_reference(a, a)


@settings(max_examples=60, deadline=None)
@given(series_with_zero_rows())
def test_valuation_is_the_first_nonzero_row(a):
    first = next((d for _, d, _ in a.terms()), a.dmax + 1)
    assert a.valuation() == first
    assert a.is_zero() == (a.valuation() == a.dmax + 1)


def test_one_row_packed_at_two_widths():
    row = (5, -3, 0, 200, -1)
    for bps in (2, 4, 2, 8, 4):
        expected = sum(v * 2 ** (8 * bps * c) for c, v in enumerate(row))
        for same in (row, tuple(list(row))):
            assert _pack(same, bps) == expected, bps
        assert _unpack(_pack(row, bps), len(row), bps) == row


def extreme_rows(top):
    """Rows of 1, 3 and 6 slots: all +top, all -top, all -1, each
    position holding the sign opposite to the rest, and each position
    the last nonzero one."""
    for n in (1, 3, 6):
        yield (top,) * n
        yield (-top,) * n
        yield (-1,) * n
        for p in range(n):
            for v in (top, -top):
                yield tuple(v if c == p else -v for c in range(n))
                yield tuple(v if c == p else -v if c < p else 0
                            for c in range(n))


@pytest.mark.parametrize("bps", [1, 2, 4, 8, 16, 24, 32, 40])
def test_pack_round_trip_at_every_width(bps):
    # 1, 2, 4 and 8 bytes convert through struct, wider slots per slot;
    # +-(2**(8*bps-1) - 1) is the widest coefficient a slot holds
    top = 2 ** (8 * bps - 1) - 1
    for row in extreme_rows(top):
        packed = _pack(row, bps)
        assert packed == sum(v * 2 ** (8 * bps * c)
                             for c, v in enumerate(row)), row
        assert _unpack(packed, len(row), bps) == row, row


@pytest.mark.parametrize("bps", [1, 2, 4, 8, 16, 24, 32, 40])
def test_pack_rejects_coefficients_outside_the_slot(bps):
    # a coefficient that does not fit raises; it never wraps
    for v in (2 ** (8 * bps - 1), -2 ** (8 * bps - 1) - 1, 2 ** (8 * bps)):
        for row in ((v,), (0, v, -1), (-1, 1, v)):
            with pytest.raises((struct.error, OverflowError)):
                _pack(row, bps)


def test_pack_memo_stays_bounded():
    assert _pack.cache_info().maxsize == PACK_MEMO_SIZE
    a = series_from(3, 5, {(c, d): (-7) ** (c + d) for c in range(4)
                           for d in range(6)})
    expected = mul_reference(a, a)
    for i in range(PACK_MEMO_SIZE + 100):
        _pack((i, -i), 4)
        assert _pack.cache_info().currsize <= PACK_MEMO_SIZE
        if i % 256 == 0:
            # products stay exact while the memo evicts
            assert a * a == expected
    assert _pack.cache_info().currsize == PACK_MEMO_SIZE


@settings(max_examples=40, deadline=None)
@given(series_triple(bound=WIDE), st.sampled_from([1, -1]))
def test_products_and_quotients_with_a_warm_memo(triple, unit):
    # the second round packs nothing: equal rows, even as new tuples,
    # come from the memo
    a, b, c = triple
    den = with_unit(c, unit)
    cold = (a * b, a * a, a.divide(den))
    misses = _pack.cache_info().misses
    a2, b2, den2 = renewed(a), renewed(b), renewed(den)
    warm = (a2 * b2, a2 * a2, a2.divide(den2))
    assert _pack.cache_info().misses == misses
    assert warm == cold
    assert cold[:2] == (mul_reference(a, b), mul_reference(a, a))
    assert mul_reference(den, cold[2]) == a


@settings(max_examples=40, deadline=None)
@given(series_triple(bound=WIDE, min_c=1), st.sampled_from([1, -1]))
def test_divide_roundtrip_wide_signed(triple, unit):
    num, c, _ = triple
    den = with_unit(c, unit)
    assert den.coeff(1, 0) != 0
    assert mul_reference(den, num.divide(den)) == num


@settings(max_examples=40, deadline=None)
@given(boxed_series(max_c=3, max_d=3))
def test_truncation_exactness(a):
    # product in a larger box restricted to the small box must agree
    big_rows = [list(row) + [0, 0] for row in a._rows] + \
               [[0] * (a.cmax + 3), [0] * (a.cmax + 3)]
    big = BiSeries(a.cmax + 2, a.dmax + 2, tuple(tuple(r) for r in big_rows))
    small = a * a
    large = big * big
    for c in range(a.cmax + 1):
        for d in range(a.dmax + 1):
            assert small.coeff(c, d) == large.coeff(c, d)


@settings(max_examples=40, deadline=None)
@given(boxed_series())
def test_invert_is_two_sided(a):
    # force a unit constant term regardless of the drawn series
    rows = [list(r) for r in a._rows]
    rows[0][0] = 1
    u = BiSeries(a.cmax, a.dmax, tuple(tuple(r) for r in rows))
    one = BiSeries.one(a.cmax, a.dmax)
    assert u * u.invert() == one
    assert u.invert() * u == one


def test_grid_layout_matches_coeff():
    a = series_from(2, 3, {(2, 1): 7, (0, 3): -4})
    g = a.grid()
    assert g[2][1] == 7
    assert g[0][3] == -4
    assert len(g) == 3 and len(g[0]) == 4


def test_terms_iterates_nonzero_only():
    a = series_from(2, 2, {(1, 1): 5})
    assert list(a.terms()) == [(1, 1, 5)]
