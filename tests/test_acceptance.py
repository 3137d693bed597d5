"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is also driven end to end by `forestcount verify`.
"""

import json
import math
import time
from pathlib import Path

from forestcount.dp import cross_validate, dp_count, dp_table
from forestcount.formulas import (asymptotic_ratio, codim1_count, flat_count,
                                  fuss_convolution, simple_count)
from forestcount.oracle import enumerate_flat
from forestcount.solver import cached_solution, solve_simple
from forestcount.verify import (check_alt_tails, check_min_poly,
                                check_q_factor, growth_constant,
                                route_agreement_document, row_sum_check)

REPO_ROOT = Path(__file__).resolve().parents[1]


def _announce(number: int, label: str) -> None:
    print(f"ACCEPTANCE {number:2d} ({label}): PASS")


def test_criterion_01_flat_row_exactness():
    t0 = time.monotonic()
    expected = [flat_count(d) for d in range(31)]
    for name in ("odd", "linear"):
        sol = cached_solution(name, 0, 30)
        assert [sol.n1.coeff(0, d) for d in range(31)] == expected
    assert dp_table(0, 30)[0] == expected
    t_oracle = time.monotonic()
    assert [len(enumerate_flat(d)) for d in range(4)] == [1, 1, 4, 22]
    assert time.monotonic() - t_oracle < 5.0
    assert time.monotonic() - t0 < 10.0
    _announce(1, "flat row, all routes, d <= 30; oracle d <= 3")


def test_criterion_02_codim1_row_exactness():
    expected = [codim1_count(d) for d in range(31)]
    assert expected[:4] == [0, 0, 4, 48]
    for d in range(31):
        assert expected[d] == (4 * math.comb(4 * d, d - 2) if d >= 2 else 0)
    for name in ("odd", "linear"):
        sol = cached_solution(name, 1, 30)
        assert [sol.n1.coeff(1, d) for d in range(31)] == expected
    assert dp_table(1, 30)[1] == expected
    _announce(2, "codimension-1 row, all routes, d <= 30")


def test_criterion_03_simple_equivalence():
    t0 = time.monotonic()
    n4 = solve_simple(10, 30)
    for c in range(11):
        for d in range(31):
            assert n4.coeff(c, d) == simple_count(c, d), (c, d)
    assert time.monotonic() - t0 < 30.0
    _announce(3, "simple configurations: equation vs closed form on (10,30)")


def test_criterion_04_fuss_convolution():
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
            assert fuss_convolution(a, b) == conv[b], (a, b)
    _announce(4, "convolution closed form vs brute force, a <= 5, b <= 10")


def test_criterion_05_support_bound():
    cmax, dmax = 40, 20
    for name in ("odd", "linear"):
        n1 = cached_solution(name, cmax, dmax).n1
        for c in range(cmax + 1):
            for d in range(dmax + 1):
                if c >= 2 * d and (c, d) != (0, 0):
                    assert n1.coeff(c, d) == 0, (name, c, d)
    for c in range(cmax + 1):
        for d in range(dmax + 1):
            if c >= 2 * d and (c, d) != (0, 0):
                assert dp_count(c, d) == 0, (c, d)
    assert codim1_count(0) == 0
    _announce(5, "support bound c >= 2d on (40,20), all routes")


def test_criterion_06_minimal_polynomial():
    report = check_min_poly(12, 12)
    # a nonzero residual would downgrade to a documented finding; the
    # computed series satisfies the polynomial exactly, so demand "pass"
    # and keep the finding path visible in the report schema
    assert report["status"] in ("pass", "finding")
    assert report["status"] == "pass", report["offending_cells"]
    factor = check_q_factor()
    assert factor["status"] == "pass", factor
    _announce(6, "minimal-polynomial residual zero on (12,12); "
                 "Q(0,z) = -16(1-z)^6")


def test_criterion_07_growth_constant():
    t0 = time.monotonic()
    value = growth_constant()
    assert abs(value - 25.327) <= 1e-3
    assert time.monotonic() - t0 < 1.0
    _announce(7, f"growth constant {value:.6f} = 25.327 +- 0.001")


def test_criterion_08_row_sum_growth():
    t0 = time.monotonic()
    report = row_sum_check(60)
    details = report["details"]
    assert details["residual_zero"], report["offending_cells"]
    assert report["status"] == "pass"
    # ratios stabilize into [20, 27] at d = 7 and stay there through 60
    assert details["ratios_stable_from"] == 7
    assert 20.0 <= details["final_ratio"] <= 27.0
    assert abs(details["final_ratio"] / 25.327 - 1.0) <= 0.10
    assert time.monotonic() - t0 < 15.0
    _announce(8, f"row sums to d = 60: Q-residual zero, "
                 f"S60/S59 = {details['final_ratio']:.4f}")


def test_criterion_09_asymptotics():
    t0 = time.monotonic()
    for c in (0, 1, 2):
        ratio = asymptotic_ratio(simple_count(c, 200), c, 200)
        assert 0.8 <= ratio <= 1.2, (c, ratio)
    assert time.monotonic() - t0 < 1.0
    _announce(9, "exact/asymptotic within [0.8, 1.2] at c in {0,1,2}, d=200")


def test_criterion_10_route_agreement_artifact():
    result = cross_validate(10, 20)
    assert len(result["matching_conventions"]) >= 1
    assert result["matching_conventions"] == ["odd"]
    tails = check_alt_tails()
    assert tails["details"]["annihilating_tail"] == [11]
    document = route_agreement_document(10, 20)
    committed = json.loads((REPO_ROOT / "route_agreement.json").read_text())
    assert committed == document
    _announce(10, "recurrence realizes the odd convention on (10,20); "
                  "tail z^11 annihilates the linear-convention series")
