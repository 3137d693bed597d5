"""Algebraic and asymptotic consistency checks over the computed series.

Each check returns a JSON-ready report with the stable shape

    {"check": <name>, "status": "pass" | "fail" | "finding",
     "offending_cells": [...], "details": {...}}

so the suite can be consumed by CI.  "finding" marks a documented
discrepancy that the check is designed to surface (these are first-class
outputs, not failures): residual checks always report the full offending
coefficient set, never just a boolean, because locating a wrong term
precisely is the point.

The module owns three built-in integer polynomials: P(x, y, z), the
candidate minimal polynomial annihilating the configuration series
under the odd weight convention; its specialization Q(y, z) = P(1, y, z),
which annihilates the row-sum series and is cross-checked against an
independently transcribed copy; and R(y), whose smallest positive root
locates the row-sum growth rate.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import islice
from math import comb

from .dp import cross_validate, dp_count, dp_table
from .formulas import (asymptotic_ratio, codim1_count, codim1_row,
                       flat_count, flat_row, fuss_convolution, simple_count)
from .oracle import enumerate_flat, validate_diagram
from .series import BiSeries
from .solver import (CONVENTIONS, FrozenRecord, cached_solution,
                     solve_simple)

REPORT_SCHEMA = "verify-report@1"


def _report(check: str, status: str, offending=None, **details) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "check": check,
        "status": status,
        "offending_cells": list(offending or []),
        "details": details,
    }


# ----------------------------------------------------------------------
# integer polynomials in x, y, z
# ----------------------------------------------------------------------

class ZPolynomial(FrozenRecord):
    """Sum of terms coeff * x^a y^b z^e with integer coefficients.

    terms is a tuple of (a, b, e, coeff); equality and hash use it.  The
    polynomial is immutable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[int, int, int, int], ...]):
        object.__setattr__(self, "terms", terms)

    def _key(self):
        return self.terms

    @classmethod
    def from_terms(cls, terms) -> "ZPolynomial":
        merged: dict[tuple[int, int, int], int] = {}
        for xe, ye, ze, co in terms:
            key = (xe, ye, ze)
            merged[key] = merged.get(key, 0) + co
        normal = tuple((xe, ye, ze, co)
                       for (xe, ye, ze), co in sorted(merged.items()) if co)
        return cls(normal)

    def __mul__(self, other: "ZPolynomial") -> "ZPolynomial":
        prods = []
        for x1, y1, z1, c1 in self.terms:
            for x2, y2, z2, c2 in other.terms:
                prods.append((x1 + x2, y1 + y2, z1 + z2, c1 * c2))
        return ZPolynomial.from_terms(prods)

    def __add__(self, other: "ZPolynomial") -> "ZPolynomial":
        return ZPolynomial.from_terms(self.terms + other.terms)

    def subs_x(self, value: int) -> "ZPolynomial":
        return ZPolynomial.from_terms(
            (0, ye, ze, co * value ** xe) for xe, ye, ze, co in self.terms)

    def z_coeffs_at_origin(self) -> dict[int, int]:
        """Coefficients of z^e after setting x = 0, y = 0."""
        return {ze: co for xe, ye, ze, co in self.terms if xe == 0 and ye == 0}

    def residual(self, z: BiSeries) -> BiSeries:
        """The series obtained by substituting z (exact on z's box)."""
        cmax, dmax = z.cmax, z.dmax
        maxz = max((t[2] for t in self.terms), default=0)
        powers = [BiSeries.one(cmax, dmax), z]
        for _ in range(maxz - 1):
            powers.append(powers[-1] * z)
        acc = BiSeries.zero(cmax, dmax)
        for xe, ye, ze, co in self.terms:
            acc = acc + powers[ze].scale(co).shift(xe, ye)
        return acc

    def mismatches(self, other: "ZPolynomial") -> list[dict]:
        mine = {(xe, ye, ze): co for xe, ye, ze, co in self.terms}
        theirs = {(xe, ye, ze): co for xe, ye, ze, co in other.terms}
        out = []
        for key in sorted(set(mine) | set(theirs)):
            a, b = mine.get(key, 0), theirs.get(key, 0)
            if a != b:
                xe, ye, ze = key
                out.append({"x": xe, "y": ye, "z": ze,
                            "derived": a, "reference": b})
        return out


# The 60-term minimal-polynomial candidate for the odd-convention series.
P_MIN = ZPolynomial.from_terms([
    (4, 0, 0, -1), (5, 0, 0, -4), (6, 0, 0, -6), (7, 0, 0, -4), (8, 0, 0, -1),
    (4, 0, 1, 6), (5, 0, 1, 24), (6, 0, 1, 36), (7, 0, 1, 24), (8, 0, 1, 6),
    (4, 0, 2, -15), (5, 0, 2, -60), (6, 0, 2, -90), (7, 0, 2, -60),
    (8, 0, 2, -15),
    (4, 0, 3, 20), (5, 0, 3, 80), (6, 0, 3, 120), (7, 0, 3, 80), (8, 0, 3, 20),
    (4, 0, 4, -15), (5, 0, 4, -60), (6, 0, 4, -90), (7, 0, 4, -60),
    (8, 0, 4, -15),
    (0, 1, 4, -1), (1, 1, 4, -4), (2, 1, 4, -2), (3, 1, 4, 4), (5, 1, 4, -4),
    (8, 1, 4, -1),
    (4, 0, 5, 6), (5, 0, 5, 24), (6, 0, 5, 36), (7, 0, 5, 24), (8, 0, 5, 6),
    (0, 1, 5, 1), (1, 1, 5, 8), (2, 1, 5, 6), (3, 1, 5, -12), (5, 1, 5, 16),
    (8, 1, 5, 5),
    (4, 0, 6, -1), (5, 0, 6, -4), (6, 0, 6, -6), (7, 0, 6, -4), (8, 0, 6, -1),
    (1, 1, 6, -4), (2, 1, 6, -6), (3, 1, 6, 12), (5, 1, 6, -24), (8, 1, 6, -10),
    (2, 1, 7, 2), (3, 1, 7, -4), (5, 1, 7, 16), (8, 1, 7, 10),
    (5, 1, 8, -4), (8, 1, 8, -5), (0, 2, 8, -1),
    (8, 1, 9, 1),
])

# Independent transcription of the x = 1 specialization, used only to
# cross-check the derived version (a deliberate redundancy).
Q_REFERENCE = ZPolynomial.from_terms([
    (0, 0, 0, -16), (0, 0, 1, 96), (0, 0, 2, -240), (0, 0, 3, 320),
    (0, 0, 4, -240), (0, 1, 4, -8), (0, 0, 5, 96), (0, 1, 5, 24),
    (0, 0, 6, -16), (0, 1, 6, -32), (0, 1, 7, 24), (0, 1, 8, -9),
    (0, 2, 8, -1), (0, 1, 9, 1),
])

# Growth-locating polynomial; its smallest positive root y0 gives the
# row-sum growth rate y0^-1.
R_COEFFS = (-84375, 1620000, 12241152, 21528576, 1048576)


def derived_q() -> ZPolynomial:
    return P_MIN.subs_x(1)


def r_eval(y):
    """R(y) by Horner's rule, exact for a fractions.Fraction y."""
    acc = 0
    for co in reversed(R_COEFFS):
        acc = acc * y + co
    return acc


# ----------------------------------------------------------------------
# single-equation forms of the system, per convention
# ----------------------------------------------------------------------

# odd convention: (1 - z + y z^4)(1 + y z^4 - x^2 y z^5) + x y z^6 = 0
ODD_EQUATION = (ZPolynomial.from_terms([(0, 0, 0, 1), (0, 0, 1, -1),
                                        (0, 1, 4, 1)])
                * ZPolynomial.from_terms([(0, 0, 0, 1), (0, 1, 4, 1),
                                          (2, 1, 5, -1)])
                + ZPolynomial.from_terms([(1, 1, 6, 1)]))


def linear_equation(tail_power: int) -> ZPolynomial:
    """The linear-convention single equation with tail x^3 y^2 z^tail_power.

    Two candidate tail exponents (9 and 11) are in circulation; the
    alt-tail check reports which one actually annihilates the computed
    series.
    """
    f1 = ZPolynomial.from_terms([
        (0, 0, 0, 1), (0, 0, 1, -1), (0, 1, 4, 2), (0, 1, 5, -1),
        (1, 1, 6, 1), (0, 2, 8, 1)])
    f2 = ZPolynomial.from_terms([(0, 0, 0, 1), (0, 1, 4, 1), (1, 1, 5, -1)])
    return f1 * f2 + ZPolynomial.from_terms([(3, 2, tail_power, 1)])


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------

def residual_bivariate(poly: ZPolynomial, z: BiSeries) -> BiSeries:
    """Substitute the series z into poly, truncated to z's box."""
    return poly.residual(z)


def _nonzero_cells(series: BiSeries, limit: int = 20) -> list[list[int]]:
    return [list(cell) for cell in islice(series.terms(), limit)]


def check_min_poly(cmax: int = 12, dmax: int = 12) -> dict:
    """P(x, y, n1) must vanish on the box for the odd convention.

    A nonzero residual is reported as a located finding (lowest-order
    offending coefficients first), not a hard failure: the residual
    check exists to pin such discrepancies down.
    """
    n1 = cached_solution("odd", cmax, dmax).n1.crop(cmax, dmax)
    residual = P_MIN.residual(n1)
    if residual.is_zero():
        return _report("min-poly", "pass", box=[cmax, dmax],
                       term_count=len(P_MIN.terms))
    return _report("min-poly", "finding", _nonzero_cells(residual),
                   box=[cmax, dmax], term_count=len(P_MIN.terms),
                   note="nonzero residual; offending cells listed as (c, d, value)")


def check_q_consistency() -> dict:
    """The derived specialization x = 1 must match the reference copy."""
    diffs = derived_q().mismatches(Q_REFERENCE)
    if not diffs:
        return _report("q-consistency", "pass",
                       term_count=len(Q_REFERENCE.terms))
    return _report("q-consistency", "finding",
                   [[d["y"], d["z"]] for d in diffs], mismatches=diffs)


def check_q_factor() -> dict:
    """Q(0, z) must factor as -16 (1 - z)^6 exactly."""
    got = derived_q().z_coeffs_at_origin()
    want = {e: -16 * (-1) ** e * comb(6, e) for e in range(7)}
    bad = sorted(set(got) | set(want))
    bad = [[e, got.get(e, 0), want.get(e, 0)] for e in bad
           if got.get(e, 0) != want.get(e, 0)]
    if not bad:
        return _report("q-factor", "pass", coefficients=sorted(got.items()))
    return _report("q-factor", "fail", bad)


def check_system_equation(cmax: int = 12, dmax: int = 12) -> dict:
    """The odd-convention single equation must annihilate the solver's n2."""
    n2 = cached_solution("odd", cmax, dmax).n2.crop(cmax, dmax)
    residual = ODD_EQUATION.residual(n2)
    if residual.is_zero():
        return _report("system-equation", "pass", box=[cmax, dmax])
    return _report("system-equation", "fail", _nonzero_cells(residual),
                   box=[cmax, dmax])


def check_alt_tails(cmax: int = 13, dmax: int = 9) -> dict:
    """Exactly one tail exponent (9 or 11) must annihilate the
    linear-convention series; record which."""
    n2 = cached_solution("linear", cmax, dmax).n2.crop(cmax, dmax)
    outcome = {}
    zero_tails = []
    for power in (9, 11):
        residual = linear_equation(power).residual(n2)
        entry = {"zero_residual": residual.is_zero()}
        if not residual.is_zero():
            entry["first_offending"] = _nonzero_cells(residual, limit=4)
        outcome[f"z{power}"] = entry
        if residual.is_zero():
            zero_tails.append(power)
    status = "pass" if len(zero_tails) == 1 else "fail"
    return _report("alt-tail", status, box=[cmax, dmax],
                   annihilating_tail=zero_tails, variants=outcome)


def growth_constant(abs_tol: float = 1e-12) -> float:
    """Smallest positive root y0 of R, as y0^-1, via exact sign bisection.

    Signs are evaluated in rational arithmetic at dyadic points, so the
    bracket is exact no matter the coefficient magnitudes; abs_tol bounds
    the width of the final bracket around y0.
    """
    from fractions import Fraction  # only this check needs it
    lo, hi = Fraction(0), Fraction(1)
    if r_eval(lo) >= 0 or r_eval(hi) <= 0:
        raise ArithmeticError("no sign change on (0, 1); bad transcription")
    tol = Fraction(abs_tol)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if r_eval(mid) < 0:
            lo = mid
        else:
            hi = mid
    return float(2 / (lo + hi))


def check_growth_constant() -> dict:
    value = growth_constant()
    ok = abs(value - 25.327) <= 1e-3
    return _report("growth-constant", "pass" if ok else "fail",
                   [] if ok else [[round(value, 6)]],
                   value=value, expected=25.327, tolerance=1e-3,
                   r_at_zero=R_COEFFS[0])


# ----------------------------------------------------------------------
# row sums
# ----------------------------------------------------------------------

RATIO_WINDOW = (20.0, 27.0)


def row_sum_check(dmax: int = 60) -> dict:
    """Check the row-sum series S(y): Q-residual and growth behaviour.

    S_d = sum_c n1(c, d) under the odd convention, whose P specialises
    to Q, needs the solver on the box (2*dmax, dmax) (the support bound
    caps c below 2d).  The report carries the first sums, every
    successive ratio, the degree from which the ratios stay inside
    RATIO_WINDOW, and the comparison against growth_constant().
    dmax must be at least 1: a one-row box has no ratio to judge.
    """
    if dmax < 1:
        raise ValueError(f"row-sum needs dmax >= 1, got {dmax}")
    solution = cached_solution("odd", 2 * dmax, dmax)
    n1 = solution.n1
    sums = [sum(n1.coeff(c, d) for c in range(2 * dmax + 1))
            for d in range(dmax + 1)]
    ratios = [sums[d + 1] / sums[d] for d in range(dmax)]
    lo, hi = RATIO_WINDOW
    stable_from = dmax
    for d in range(dmax - 1, -1, -1):
        if not (lo <= ratios[d] <= hi):
            break
        stable_from = d
    # Q(y, S(y)) == 0 through order dmax
    row_sums = BiSeries.from_terms(0, dmax,
                                   {(0, d): s for d, s in enumerate(sums)})
    residual = derived_q().residual(row_sums)
    offending = [[d, v] for _, d, v in islice(residual.terms(), 20)]
    rate = growth_constant()
    final_ratio = ratios[-1]
    ok = not offending and stable_from < dmax
    return _report(
        "row-sum", "pass" if ok else "fail", offending,
        dmax=dmax, convention="odd",
        first_sums=[str(s) for s in sums[:8]],
        final_ratio=final_ratio, growth_constant=rate,
        final_ratio_over_growth=final_ratio / rate,
        ratio_window=[lo, hi], ratios_stable_from=stable_from,
        residual_zero=not offending)


# ----------------------------------------------------------------------
# route, closed-form, oracle and asymptotic checks
# ----------------------------------------------------------------------

def _row_check(check: str, c: int, closed_row, dmax: int) -> dict:
    """Row c must agree across solver (both conventions), the recurrence
    route and the closed form's row closed_row(dmax)."""
    routes = {"closed-form": closed_row(dmax),
              "dp": dp_table(c, dmax)[c]}
    for name in CONVENTIONS:
        n1 = cached_solution(name, c, dmax).n1
        routes[f"solver[{name}]"] = [n1.coeff(c, d) for d in range(dmax + 1)]
    reference = routes["closed-form"]
    bad = [[name, d] for name, row in routes.items()
           for d in range(dmax + 1) if row[d] != reference[d]]
    return _report(check, "pass" if not bad else "fail", bad,
                   dmax=dmax, first_values=[str(v) for v in reference[:8]])


def check_flat_row(dmax: int = 30) -> dict:
    """Row c = 0 against the flat-count closed form."""
    return _row_check("flat-row", 0, flat_row, dmax)


def check_codim1_row(dmax: int = 30) -> dict:
    """Row c = 1 against the codimension-1 closed form."""
    return _row_check("codim1-row", 1, codim1_row, dmax)


def simple_closed_form(cmax: int, dmax: int) -> tuple[list, list]:
    """The closed-form simple counts on the box, row by codimension, and
    every cell [c, d, solver, closed form] where solve_simple differs."""
    closed = [[simple_count(c, d) for d in range(dmax + 1)]
              for c in range(cmax + 1)]
    n4 = solve_simple(cmax, dmax)
    return closed, [[c, d, n4.coeff(c, d), closed[c][d]]
                    for c in range(cmax + 1) for d in range(dmax + 1)
                    if n4.coeff(c, d) != closed[c][d]]


def check_simple_closed_form(cmax: int = 10, dmax: int = 30) -> dict:
    """solve_simple must equal the closed form on the whole box."""
    bad = simple_closed_form(cmax, dmax)[1]
    return _report("simple-closed-form", "pass" if not bad else "fail",
                   bad[:20], box=[cmax, dmax])


def check_fuss_convolution(amax: int = 5, bmax: int = 10) -> dict:
    """Closed form vs the literal convolution of flat counts."""
    flats = BiSeries.from_terms(
        0, bmax, {(0, d): v for d, v in enumerate(flat_row(bmax))})
    conv = BiSeries.one(0, bmax)
    bad = []
    for a in range(1, amax + 1):
        conv = conv * flats
        for b in range(bmax + 1):
            got, want = conv.coeff(0, b), fuss_convolution(a, b)
            if got != want:
                bad.append([a, b, got, want])
    return _report("fuss-convolution", "pass" if not bad else "fail", bad,
                   amax=amax, bmax=bmax)


def check_support_bound(cmax: int = 40, dmax: int = 20) -> dict:
    """n1(c, d) = 0 whenever c >= 2d (except the empty configuration at
    (0,0)), on every route."""
    routes = {f"solver[{name}]": cached_solution(name, cmax, dmax).n1.coeff
              for name in CONVENTIONS}
    routes["dp"] = dp_count
    bad = [[route, c, d] for route, count in routes.items()
           for c in range(cmax + 1) for d in range(dmax + 1)
           if c >= 2 * d and (c, d) != (0, 0) and count(c, d) != 0]
    if codim1_count(0) != 0:
        bad.append(["closed-form", 1, 0])
    return _report("support-bound", "pass" if not bad else "fail", bad[:20],
                   box=[cmax, dmax])


def check_cross_routes(cmax: int = 10, dmax: int = 20) -> dict:
    """At least one convention must reproduce the recurrence route on
    every cell of the box."""
    result = cross_validate(cmax, dmax)
    matching = result["matching_conventions"]
    status = "pass" if matching else "fail"
    offending = []
    for name, entry in result["per_convention"].items():
        for m in entry["mismatches"][:5]:
            offending.append([name, m["c"], m["d"], m["dp"], m["solver"]])
    return _report("cross-routes", status,
                   offending if not matching else [],
                   box=[cmax, dmax], matching_conventions=matching,
                   per_convention={k: {kk: vv for kk, vv in v.items()
                                       if kk != "mismatches"}
                                   for k, v in result["per_convention"].items()},
                   sample_disagreements=offending)


def check_asymptotics(d: int = 200) -> dict:
    """Exact simple counts over the estimate must sit inside the window
    [0.8, 1.2] for codimensions 0, 1 and 2."""
    lo, hi = 0.8, 1.2
    ratios = {}
    bad = []
    for c in (0, 1, 2):
        r = asymptotic_ratio(simple_count(c, d), c, d)
        ratios[str(c)] = r
        if not (lo <= r <= hi):
            bad.append([c, d, r])
    return _report("asymptotics", "pass" if not bad else "fail", bad,
                   degree=d, window=[lo, hi], ratios=ratios)


def check_oracle(max_degree: int = 3) -> dict:
    """Exhaustive diagram enumeration must reproduce the flat counts,
    with every generated diagram revalidated independently."""
    bad = []
    counts = {}
    for d in range(max_degree + 1):
        diagrams = enumerate_flat(d)
        counts[str(d)] = len(diagrams)
        expected = flat_count(d)
        if len(diagrams) != expected:
            bad.append([d, len(diagrams), expected])
        for diag in diagrams:
            ok, violations = validate_diagram(diag)
            if not ok:
                bad.append([d, "invalid-diagram", violations])
        if len(set(diagrams)) != len(diagrams):
            bad.append([d, "duplicates"])
    return _report("oracle", "pass" if not bad else "fail", bad,
                   max_degree=max_degree, counts=counts)


# ----------------------------------------------------------------------
# suite registry
# ----------------------------------------------------------------------

# name -> check function; run_suite passes per-check keyword overrides
CHECKS = {
    "flat-row": check_flat_row,
    "codim1-row": check_codim1_row,
    "simple-closed-form": check_simple_closed_form,
    "fuss-convolution": check_fuss_convolution,
    "support-bound": check_support_bound,
    "min-poly": check_min_poly,
    "q-consistency": check_q_consistency,
    "q-factor": check_q_factor,
    "system-equation": check_system_equation,
    "alt-tail": check_alt_tails,
    "growth-constant": check_growth_constant,
    "asymptotics": check_asymptotics,
    "oracle": check_oracle,
    "cross-routes": check_cross_routes,
    "row-sum": row_sum_check,
}


class Work(namedtuple("Work", "solves simple dp oracle",
                      defaults=((), (), (), None))):
    """What one check computes, for the keyword arguments it is given: the
    (rule, cmax, dmax) boxes it asks cached_solution for, in order; the
    (cmax, dmax) boxes it passes to solve_simple and to dp_table; and the
    degree up to which it enumerates flat diagrams, or None.  cli prices
    it to share the checks between two processes and guards the boxes a
    user sizes by it."""

    __slots__ = ()


def _both(cmax: int, dmax: int) -> tuple:
    return tuple((name, cmax, dmax) for name in CONVENTIONS)


# name -> the Work of CHECKS[name] called with the same keyword arguments;
# the defaults are the check's (tests/test_verify.py spies on the calls)
WORK = {
    "flat-row": lambda dmax=30: Work(_both(0, dmax), dp=((0, dmax),)),
    "codim1-row": lambda dmax=30: Work(_both(1, dmax), dp=((1, dmax),)),
    "simple-closed-form": lambda cmax=10, dmax=30: Work(
        simple=((cmax, dmax),)),
    "fuss-convolution": lambda amax=5, bmax=10: Work(),
    "support-bound": lambda cmax=40, dmax=20: Work(_both(cmax, dmax)),
    "min-poly": lambda cmax=12, dmax=12: Work((("odd", cmax, dmax),)),
    "q-consistency": Work,
    "q-factor": Work,
    "system-equation": lambda cmax=12, dmax=12: Work((("odd", cmax, dmax),)),
    "alt-tail": lambda cmax=13, dmax=9: Work((("linear", cmax, dmax),)),
    "growth-constant": Work,
    "asymptotics": lambda d=200: Work(),
    "oracle": lambda max_degree=3: Work(oracle=max_degree),
    "cross-routes": lambda cmax=10, dmax=20: Work(_both(cmax, dmax),
                                                  dp=((cmax, dmax),)),
    "row-sum": lambda dmax=60: Work((("odd", 2 * dmax, dmax),)),
}


def run_suite(only: str | None = None, overrides: dict | None = None) -> list[dict]:
    """Run the named check (or all), applying per-check kwarg overrides."""
    names = [only] if only else list(CHECKS)
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise ValueError(f"unknown check(s): {', '.join(unknown)}")
    overrides = overrides or {}
    reports = []
    for name in names:
        kwargs = overrides.get(name, {})
        reports.append(CHECKS[name](**kwargs))
    return reports


def suite_passed(reports: list[dict]) -> bool:
    """True unless some check ended in a hard failure ("finding" is a
    documented outcome, not a failure)."""
    return all(r["status"] != "fail" for r in reports)


def route_agreement_document(cmax: int = 10, dmax: int = 20) -> dict:
    """The committed route-agreement artifact: which convention the
    recurrence route realizes, and which equation tail annihilates the
    linear-convention series."""
    cross = cross_validate(cmax, dmax)
    tails = check_alt_tails()
    conventions = {}
    for name, entry in cross["per_convention"].items():
        conventions[name] = {
            "agree": entry["agree"],
            "cells": entry["cells"],
            "mismatch_count": entry["mismatch_count"],
            "first_mismatches": entry["mismatches"][:5],
        }
    return {
        "schema": "route-agreement@1",
        "box": [cmax, dmax],
        "dp_matches_conventions": cross["matching_conventions"],
        "per_convention": conventions,
        "linear_equation_tail": tails["details"]["variants"],
        "annihilating_tail_powers": tails["details"]["annihilating_tail"],
    }
