from fractions import Fraction

import pytest

from forestcount import dp, verify
from forestcount.series import BiSeries, mul_reference
from forestcount.solver import cached_solution
from forestcount.verify import (CHECKS, ODD_EQUATION, P_MIN, Q_REFERENCE,
                                WORK, ZPolynomial, check_alt_tails,
                                check_asymptotics, check_codim1_row,
                                check_cross_routes, check_flat_row,
                                check_fuss_convolution,
                                check_growth_constant, check_min_poly,
                                check_oracle, check_q_consistency,
                                check_q_factor, check_simple_closed_form,
                                check_support_bound, check_system_equation,
                                derived_q, growth_constant, linear_equation,
                                r_eval, residual_bivariate,
                                route_agreement_document, row_sum_check,
                                run_suite, suite_passed)

EXPECTED_ROW_SUMS = [1, 1, 8, 104, 1656, 29408, 558856, 11121272,
                     228823544, 4828576832, 103927948296]


def test_p_has_sixty_terms():
    assert len(P_MIN.terms) == 60


def test_q_derived_matches_reference():
    assert derived_q() == Q_REFERENCE
    assert check_q_consistency()["status"] == "pass"


def test_q_factors_at_y_zero():
    # Q(0, z) = -16 (1 - z)^6
    report = check_q_factor()
    assert report["status"] == "pass"
    coeffs = derived_q().z_coeffs_at_origin()
    assert coeffs == {0: -16, 1: 96, 2: -240, 3: 320, 4: -240, 5: 96, 6: -16}


def test_p_at_origin_is_identically_zero_in_z():
    # every term of P carries x or y, so P(0, 0, z) = 0; z = 1 a root
    assert P_MIN.z_coeffs_at_origin() == {}


def test_min_poly_residual_vanishes():
    report = check_min_poly(12, 12)
    assert report["status"] == "pass"
    assert report["offending_cells"] == []


def test_min_poly_on_tiny_box():
    # degenerate box: every term shifts out, residual trivially zero
    assert check_min_poly(0, 0)["status"] == "pass"


def test_system_equation_annihilates_odd_series():
    assert check_system_equation(10, 10)["status"] == "pass"


def test_alt_tail_z11_annihilates_linear_series():
    report = check_alt_tails()
    assert report["status"] == "pass"
    assert report["details"]["annihilating_tail"] == [11]
    z9 = report["details"]["variants"]["z9"]
    assert not z9["zero_residual"]
    first = z9["first_offending"][0]
    assert first[:2] == [3, 3]


def test_residual_checks_run_on_the_asked_box(monkeypatch):
    # a cached covering box must not widen the substitution
    for name in ("odd", "linear"):
        cached_solution(name, 48, 24)
    boxes = []
    real_residual = ZPolynomial.residual

    def recording_residual(self, z):
        boxes.append(z.box())
        return real_residual(self, z)

    monkeypatch.setattr(ZPolynomial, "residual", recording_residual)
    assert check_min_poly(6, 6)["status"] == "pass"
    assert check_system_equation(7, 5)["status"] == "pass"
    assert check_alt_tails(13, 9)["status"] == "pass"
    assert boxes == [(6, 6), (7, 5), (13, 9), (13, 9)]


def test_residual_of_difference_is_zero():
    # poly z - z is empty after normalization; residual must vanish
    poly = ZPolynomial.from_terms([(0, 0, 1, 1), (0, 0, 1, -1)])
    n1 = cached_solution("odd", 5, 5).n1
    assert residual_bivariate(poly, n1).is_zero()


def residual_by_terms(poly, z):
    """poly(x, y, z) summed coefficient by coefficient, powers of z from
    mul_reference; terms outside z's box contribute nothing."""
    cmax, dmax = z.cmax, z.dmax
    powers = [BiSeries.one(cmax, dmax)]
    for _ in range(max(t[2] for t in poly.terms)):
        powers.append(mul_reference(powers[-1], z))
    coeffs = {}
    for xe, ye, ze, co in poly.terms:
        for c in range(xe, cmax + 1):
            for d in range(ye, dmax + 1):
                coeffs[c, d] = (coeffs.get((c, d), 0)
                                + co * powers[ze].coeff(c - xe, d - ye))
    return BiSeries.from_terms(cmax, dmax, coeffs)


@pytest.mark.parametrize("poly", [P_MIN, ODD_EQUATION], ids=["P", "odd"])
@pytest.mark.parametrize("box", [(0, 0), (3, 0), (0, 1)])
def test_residual_drops_terms_outside_the_box(poly, box):
    cmax, dmax = box
    assert any(xe > cmax or ye > dmax for xe, ye, _, _ in poly.terms)
    z = BiSeries.from_terms(cmax, dmax, {(c, d): 3 + 2 * c - 5 * d
                                         for c in range(cmax + 1)
                                         for d in range(dmax + 1)})
    assert poly.residual(z) == residual_by_terms(poly, z)


def test_zpolynomial_algebra():
    a = ZPolynomial.from_terms([(0, 0, 0, 1), (1, 0, 1, 2)])
    b = ZPolynomial.from_terms([(0, 1, 0, 3)])
    assert (a * b).terms == ((0, 1, 0, 3), (1, 1, 1, 6))
    assert a.subs_x(2).terms == ((0, 0, 0, 1), (0, 0, 1, 4))


def test_odd_equation_shape():
    # expanded product has the eight-term shape the recurrence transcribes
    assert (0, 1, 4, 2) in ODD_EQUATION.terms
    assert (2, 2, 9, -1) in ODD_EQUATION.terms


def test_linear_equation_tail_power():
    eq9 = linear_equation(9)
    eq11 = linear_equation(11)
    assert (3, 2, 9, 1) in eq9.terms
    assert (3, 2, 11, 1) in eq11.terms


# ----------------------------------------------------------------------
# growth constant
# ----------------------------------------------------------------------

def test_growth_constant_value():
    value = growth_constant()
    assert abs(value - 25.327) <= 1e-3
    assert check_growth_constant()["status"] == "pass"


def test_growth_constant_stable_under_refinement():
    coarse = growth_constant(1e-9)
    fine = growth_constant(1e-13)
    assert abs(coarse - fine) <= 1e-4


def test_r_polynomial_endpoints():
    assert r_eval(Fraction(0)) == -84375
    y0 = Fraction(1, 25)  # past the root, R should already be positive
    assert r_eval(y0) > 0


def test_r_small_at_root():
    y0inv = growth_constant()
    r = float(r_eval(Fraction(1) / Fraction(y0inv).limit_denominator(10 ** 9)))
    assert abs(r) < 1e-6 * max(abs(c) for c in (-84375, 1620000, 12241152,
                                                21528576, 1048576))


# ----------------------------------------------------------------------
# row sums
# ----------------------------------------------------------------------

def test_row_sums_small_box():
    report = row_sum_check(10)
    sums = [int(s) for s in report["details"]["first_sums"]]
    assert sums == EXPECTED_ROW_SUMS[:8]
    assert report["details"]["residual_zero"]
    assert report["status"] == "pass"
    assert report["details"]["ratios_stable_from"] == 7


def test_q_annihilates_row_sum_series():
    sums = {(0, d): s for d, s in enumerate(EXPECTED_ROW_SUMS)}
    assert derived_q().residual(BiSeries.from_terms(0, 10, sums)).is_zero()
    # Q(0, z) = -16 (1 - z)^6 vanishes to sixth order at z = S_0 = 1, so
    # an error in S_5 first shows at y^6, through dQ/dz of Q's y^1 terms
    sums[(0, 5)] += 1
    residual = derived_q().residual(BiSeries.from_terms(0, 10, sums))
    assert next(residual.terms()) == (0, 6, 1)


def test_row_sum_report_schema():
    report = row_sum_check(8)
    for key in ("schema", "check", "status", "offending_cells", "details"):
        assert key in report
    assert report["check"] == "row-sum"
    assert report["details"]["convention"] == "odd"


def test_row_sum_rejects_box_without_ratios():
    with pytest.raises(ValueError):
        row_sum_check(0)


# ----------------------------------------------------------------------
# aggregate checks at reduced scale
# ----------------------------------------------------------------------

def test_flat_row_check():
    assert check_flat_row(10)["status"] == "pass"


def test_codim1_row_check():
    report = check_codim1_row(10)
    assert report["status"] == "pass"
    assert report["details"]["first_values"][:4] == ["0", "0", "4", "48"]


def test_simple_closed_form_check():
    assert check_simple_closed_form(4, 10)["status"] == "pass"


def test_fuss_convolution_check():
    assert check_fuss_convolution(4, 8)["status"] == "pass"


def test_support_bound_check():
    assert check_support_bound(10, 5)["status"] == "pass"


def test_asymptotics_check():
    report = check_asymptotics(d=200)
    assert report["status"] == "pass"
    assert report["details"]["window"] == [0.8, 1.2]
    assert list(report["details"]["ratios"]) == ["0", "1", "2"]
    for ratio in report["details"]["ratios"].values():
        assert 0.8 <= ratio <= 1.2


def test_oracle_check():
    report = check_oracle(2)
    assert report["status"] == "pass"
    assert report["details"]["counts"] == {"0": 1, "1": 1, "2": 4}


def test_cross_routes_check():
    report = check_cross_routes(5, 6)
    assert report["status"] == "pass"
    assert "odd" in report["details"]["matching_conventions"]


def test_run_suite_single_and_unknown():
    reports = run_suite(only="growth-constant")
    assert len(reports) == 1 and suite_passed(reports)
    with pytest.raises(ValueError):
        run_suite(only="no-such-check")


def test_every_check_is_registered():
    assert set(CHECKS) == {
        "flat-row", "codim1-row", "simple-closed-form", "fuss-convolution",
        "support-bound", "min-poly", "q-consistency", "q-factor",
        "system-equation", "alt-tail", "growth-constant", "asymptotics",
        "oracle", "cross-routes", "row-sum"}


def test_route_agreement_document_shape():
    doc = route_agreement_document(5, 6)
    assert doc["schema"] == "route-agreement@1"
    assert doc["dp_matches_conventions"] == ["odd"]
    assert doc["annihilating_tail_powers"] == [11]
    assert set(doc["per_convention"]) == {"odd", "linear"}


# keyword overrides: none (each check's defaults), the benchmark's suite
# and what the default `forestcount verify` passes
SUITES = {
    "defaults": {},
    "benchmark": {"row-sum": {"dmax": 24}, "oracle": {"max_degree": 4}},
    "verify": {"row-sum": {"dmax": 60}, "oracle": {"max_degree": 3},
               "cross-routes": {"cmax": 10, "dmax": 20},
               "min-poly": {"cmax": 12, "dmax": 12},
               "system-equation": {"cmax": 12, "dmax": 12}},
}


@pytest.mark.parametrize("overrides", SUITES.values(), ids=SUITES)
def test_each_check_does_the_work_it_declares(monkeypatch, overrides):
    calls = {}

    def spy(kind, module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[kind].append(args)
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    for kind, module, name in (
            ("solves", verify, "cached_solution"),
            ("solves", dp, "cached_solution"),     # cross_validate's
            ("simple", verify, "solve_simple"),
            ("dp", verify, "dp_table"), ("dp", dp, "dp_table"),
            ("fills", dp, "_fill"),                # dp_count's too
            ("oracle", verify, "enumerate_flat")):
        spy(kind, module, name)
    assert set(WORK) == set(CHECKS)
    for name, check in CHECKS.items():
        kwargs = overrides.get(name, {})
        calls.update((kind, []) for kind in
                     ("solves", "simple", "dp", "fills", "oracle"))
        check(**kwargs)
        work = WORK[name](**kwargs)
        degrees = [] if work.oracle is None else range(work.oracle + 1)
        assert calls == {"solves": list(work.solves),
                         "simple": list(work.simple),
                         "dp": list(work.dp), "fills": list(work.dp),
                         "oracle": [(d,) for d in degrees]}, name
