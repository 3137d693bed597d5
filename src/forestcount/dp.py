"""Independent counting route: the cubic array recurrence.

The array N has shape (c+1) x d x 10; entry N[c1][d1][e] is the
coefficient of x^c1 y^d1 in the e-th power of the partial-configuration
series n2.  The e = 1 plane is filled by an eight-term signed recurrence
(reads at negative indices count as 0), planes e = 2..9 by convolution
with the previous plane, and the answer for codimension c, degree d is
the entry N[c][d-1][4].  The loop order (c1 outer, d1 inner, then e) and
the index offsets are deliberately frozen so intermediate states stay
comparable against hand traces; any disagreement with the equation
solver is surfaced by cross_validate, never patched here.

Two deliberate boundary cases: queries with c >= 2d return 0 up front
(the support guard), and (0,0) returns 1 (the empty configuration),
which the guard would otherwise misreport.
"""

from __future__ import annotations

from collections.abc import Iterable

from .solver import CONVENTIONS, cached_solution


class NegativeCountError(RuntimeError):
    """The recurrence produced a negative final count; a transcription
    error or inconsistent recurrence, never valid output."""


def _fill(cbound: int, dbound: int) -> list[list[list[int]]]:
    """Fill the (cbound+1) x dbound x 10 array in the fixed loop order."""
    N = [[[0] * 10 for _ in range(dbound)] for _ in range(cbound + 1)]

    def at(c1: int, d1: int, e: int) -> int:
        if c1 < 0 or d1 < 0:
            return 0
        return N[c1][d1][e]

    for c1 in range(cbound + 1):
        for d1 in range(dbound):
            N[c1][d1][0] = 1 if (c1 == 0 and d1 == 0) else 0
            N[c1][d1][1] = (N[c1][d1][0]
                            + 2 * at(c1, d1 - 1, 4)
                            - at(c1, d1 - 1, 5)
                            - at(c1 - 2, d1 - 1, 5)
                            + at(c1 - 1, d1 - 1, 6)
                            + at(c1 - 2, d1 - 1, 6)
                            + at(c1, d1 - 2, 8)
                            - at(c1 - 2, d1 - 2, 9))
            for e in range(2, 10):
                acc = 0
                for c2 in range(c1 + 1):
                    row = N[c2]
                    other = N[c1 - c2]
                    for d2 in range(d1 + 1):
                        acc += row[d2][1] * other[d1 - d2][e - 1]
                N[c1][d1][e] = acc
    return N


def dp_count(c: int, d: int) -> int:
    """Count configurations of codimension c and degree d via the recurrence.

    Deterministic; each query fills a private array, so concurrent
    queries are independent.
    """
    if c < 0 or d < 0:
        raise ValueError("codimension and degree must be nonnegative")
    if c == 0 and d == 0:
        return 1
    if c >= 2 * d:
        return 0
    N = _fill(c, d)
    value = N[c][d - 1][4]
    if value < 0:
        raise NegativeCountError(f"recurrence gave {value} at ({c},{d})")
    return value


def dp_table(cmax: int, dmax: int) -> list[list[int]]:
    """All counts on the box from one array fill.

    The recurrence never references the query bounds, so a single fill
    at (cmax, dmax) yields every cell; dp_count stays the literal
    one-query-one-array route and the two are interchangeable.
    """
    if cmax < 0 or dmax < 0:
        raise ValueError("box bounds must be nonnegative")
    N = _fill(cmax, dmax) if dmax >= 1 else None
    out = [[0] * (dmax + 1) for _ in range(cmax + 1)]
    for c in range(cmax + 1):
        for d in range(dmax + 1):
            if c == 0 and d == 0:
                out[c][d] = 1
            elif c >= 2 * d:
                out[c][d] = 0
            else:
                value = N[c][d - 1][4]
                if value < 0:
                    raise NegativeCountError(
                        f"recurrence gave {value} at ({c},{d})")
                out[c][d] = value
    return out


def cross_validate(cmax: int, dmax: int,
                   conventions: Iterable[str] = tuple(CONVENTIONS)) -> dict:
    """Compare the recurrence route against the solver on a whole box.

    Disagreement is reported data, not an error: the report carries a
    per-convention mismatch list and names every convention whose solver
    output the recurrence reproduces on all cells.
    """
    recurrence = dp_table(cmax, dmax)
    per_convention: dict[str, dict] = {}
    matching: list[str] = []
    for name in conventions:
        solution = cached_solution(name, cmax, dmax)
        mismatches = []
        for c in range(cmax + 1):
            for d in range(dmax + 1):
                expected = solution.n1.coeff(c, d)
                got = recurrence[c][d]
                if got != expected:
                    mismatches.append(
                        {"c": c, "d": d, "dp": got, "solver": expected})
        per_convention[name] = {
            "agree": not mismatches,
            "cells": (cmax + 1) * (dmax + 1),
            "mismatch_count": len(mismatches),
            "mismatches": mismatches[:20],
        }
        if not mismatches:
            matching.append(name)
    return {
        "check": "cross-routes",
        "box": [cmax, dmax],
        "per_convention": per_convention,
        "matching_conventions": matching,
    }
