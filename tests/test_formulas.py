import math

import pytest

from forestcount.formulas import (DivisibilityError, asymptotic_estimate,
                                  asymptotic_log, asymptotic_ratio,
                                  codim1_count, codim1_row, flat_count,
                                  flat_row, fuss_convolution, multinomial,
                                  simple_count)


def test_flat_count_small_values():
    assert [flat_count(d) for d in range(6)] == [1, 1, 4, 22, 140, 969]


def test_flat_count_matches_binomial_form():
    for d in range(40):
        assert flat_count(d) * (4 * d + 1) == math.comb(4 * d + 1, d)


def test_codim1_count():
    assert codim1_count(0) == 0
    assert codim1_count(1) == 0
    assert codim1_count(2) == 4
    assert codim1_count(3) == 48
    for d in range(2, 30):
        assert codim1_count(d) == 4 * math.comb(4 * d, d - 2)


def test_rows_by_ratio_updates_match_every_cell():
    flat, codim1 = flat_row(400), codim1_row(400)
    assert flat == [flat_count(d) for d in range(401)]
    assert codim1 == [codim1_count(d) for d in range(401)]
    for dmax in range(4):
        assert flat_row(dmax) == flat[:dmax + 1]
        assert codim1_row(dmax) == codim1[:dmax + 1]


def test_simple_count_examples():
    assert simple_count(1, 2) == 4
    assert simple_count(3, 5) == 0  # indicator d >= 2c
    for d in range(8):
        assert simple_count(0, d) == flat_count(d)
        assert simple_count(1, d) == codim1_count(d)


def test_simple_count_brute_multinomial():
    # spot-check the multinomial arithmetic by raw factorials
    for c, d in [(2, 4), (2, 10), (3, 6), (4, 9)]:
        m = math.factorial(4 * d) // (
            math.factorial(c) * math.factorial(d - 2 * c)
            * math.factorial(c + 3 * d))
        assert simple_count(c, d) == 4 ** c * m // (c + 3 * d + 1)


def test_multinomial_validation():
    assert multinomial(8, (1, 0, 7)) == 8
    with pytest.raises(ValueError):
        multinomial(8, (1, 1, 7))
    with pytest.raises(ValueError):
        multinomial(4, (5, -1))


def test_exact_division_guard():
    with pytest.raises(DivisibilityError):
        # 7 does not divide 3! arrangements of this fake expression
        from forestcount.formulas import _exact_div
        _exact_div(10, 7)


def test_fuss_convolution_single_factor():
    for b in range(11):
        assert fuss_convolution(1, b) == flat_count(b)


def test_fuss_convolution_zero_degree():
    for a in range(1, 6):
        assert fuss_convolution(a, 0) == 1


def test_fuss_convolution_by_hand():
    # flat(0)flat(2) + flat(1)flat(1) + flat(2)flat(0) = 4 + 1 + 4
    assert fuss_convolution(2, 2) == 9


def test_fuss_convolution_brute_force():
    flats = [flat_count(d) for d in range(11)]
    conv = [1] + [0] * 10
    for a in range(1, 6):
        nxt = [0] * 11
        for i, v in enumerate(conv):
            if v:
                for j in range(11 - i):
                    nxt[i + j] += v * flats[j]
        conv = nxt
        for b in range(11):
            assert fuss_convolution(a, b) == conv[b]


def test_fuss_convolution_validation():
    with pytest.raises(ValueError):
        fuss_convolution(0, 3)
    with pytest.raises(ValueError):
        fuss_convolution(2, -1)


# ----------------------------------------------------------------------
# asymptotics
# ----------------------------------------------------------------------

def test_asymptotic_successive_ratio_identity():
    # estimate(0, d+1)/estimate(0, d) = (256/27) ((d+1)/d)^(-3/2)
    for d in (5, 50, 500):
        got = math.exp(asymptotic_log(0, d + 1) - asymptotic_log(0, d))
        want = 256 / 27 * ((d + 1) / d) ** -1.5
        assert got == pytest.approx(want, rel=1e-12)


def test_asymptotic_matches_flat_row():
    ratio = asymptotic_ratio(flat_count(200), 0, 200)
    assert 0.9 <= ratio <= 1.1


def test_asymptotic_matches_codim1_row():
    ratio = asymptotic_ratio(codim1_count(200), 1, 200)
    assert 0.9 <= ratio <= 1.1


def test_asymptotic_estimate_overflow_to_inf():
    assert asymptotic_estimate(0, 10 ** 4) == math.inf
    assert math.isfinite(asymptotic_log(0, 10 ** 4))


def test_asymptotic_log_cheap_at_scale():
    assert math.isfinite(asymptotic_log(10 ** 4, 10 ** 4))


def test_asymptotic_validation():
    with pytest.raises(ValueError):
        asymptotic_log(0, 0)
    with pytest.raises(ValueError):
        asymptotic_log(-1, 5)
