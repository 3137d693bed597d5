"""Fixed-point solver for the configuration-counting equation system.

The three mutually recursive series are

    n1 = 1 + y * n2^4
    n2 = n1 * n3
    n2 = n1 + sum_{k>=1} x^weight(k) y^k n2^(4k+1) n3^k

where n1 counts configurations, n2 partial configurations and n3
widespread partial configurations, by codimension (x) and degree (y).
The local codimension exponent weight(k) attached to a meeting point
where k even lines touch the base line is pluggable; two built-in
conventions are provided and every query can be run under either, so
that any convention-dependent cell is surfaced rather than hidden.

Every correction term in the third equation carries a factor y, so a
fixed-point sweep starting from n2 = 1 stabilizes at least one further
y-degree per iteration; at most dmax+1 sweeps are needed.  Sweeps keep
the state truncated to the already-exact degrees (identical retained
coefficients, and every product is bounded by those rows).  The three
defining equations are
re-verified on the full box before a solution is returned.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable

from .series import BiSeries


class SolverError(RuntimeError):
    pass


class ConvergenceError(SolverError):
    """The sweep count exceeded dmax+1; the system is degree-triangular,
    so this signals an implementation bug, not bad input."""


class NegativeCoefficientError(SolverError):
    """A negative count appeared; signals a wrong convention or recurrence."""


@dataclass(frozen=True)
class CodimWeight:
    """A named rule assigning a local codimension exponent to k >= 1.

    k is the number of even lines at the first base-line meeting point.
    weight must be nondecreasing with weight(k) >= 1; the built-in
    conventions additionally satisfy weight(1) = 1 (a simple tangency
    has codimension 1).
    """

    name: str
    weight: Callable[[int], int] = field(compare=False)

    def table(self, kmax: int) -> list[int]:
        """weight(1..kmax) as a list (index 0 unused), validated."""
        ws = [0] * (kmax + 1)
        prev = 1
        for k in range(1, kmax + 1):
            w = self.weight(k)
            if w < 1:
                raise ValueError(f"{self.name}: weight({k}) = {w} < 1")
            if w < prev:
                raise ValueError(f"{self.name}: weight must be nondecreasing")
            ws[k] = w
            prev = w
        return ws


ODD = CodimWeight("odd", lambda k: 2 * k - 1)
LINEAR = CodimWeight("linear", lambda k: 1 if k == 1 else k + 1)

CONVENTIONS: dict[str, CodimWeight] = {"odd": ODD, "linear": LINEAR}


def get_convention(conv: str | CodimWeight) -> CodimWeight:
    if isinstance(conv, CodimWeight):
        return conv
    try:
        return CONVENTIONS[conv]
    except KeyError:
        names = ", ".join(sorted(CONVENTIONS))
        raise ValueError(f"unknown convention {conv!r} (built-ins: {names})")


@dataclass(frozen=True)
class SystemSolution:
    """Solved (n1, n2, n3) triple on a box, under one weight convention."""

    n1: BiSeries
    n2: BiSeries
    n3: BiSeries
    convention: CodimWeight
    box: tuple[int, int]

    def verify(self) -> None:
        """Re-check the three defining equations and nonnegativity."""
        cmax, dmax = self.box
        one = BiSeries.one(cmax, dmax)
        weights = self.convention.table(dmax) if dmax >= 1 else []
        if self.n1 != one + (self.n2 ** 4).shift(0, 1):
            raise SolverError("equation n1 = 1 + y n2^4 violated")
        if self.n1 * self.n3 != self.n2:
            raise SolverError("equation n2 = n1 n3 violated")
        tail = _weighted_tail(self.n2, self.n3, weights, dmax)
        if self.n2 != self.n1 + tail:
            raise SolverError("meeting-point equation for n2 violated")
        for name, s in (("n1", self.n1), ("n2", self.n2), ("n3", self.n3)):
            if s.min_coefficient() < 0:
                raise NegativeCoefficientError(f"negative coefficient in {name}")


def _weighted_tail(n2: BiSeries, n3: BiSeries, weights: list[int],
                   dstate: int) -> BiSeries:
    """sum_k x^weight(k) y^k n2^(4k+1) n3^k, truncated to the box.

    Computed incrementally (g_k = g_{k-1} * n2^4 n3) with each product
    bounded by the rows that survive the y^k shift.  dstate bounds the
    rows of n2/n3 that are known-exact during a sweep.
    """
    cmax, dmax = n2.cmax, n2.dmax
    acc = BiSeries.zero(cmax, dmax)
    if dmax < 1 or not weights:
        return acc
    u = n2._mul_bounded(n2, dstate)
    u = u._mul_bounded(u, dstate)
    u = u._mul_bounded(n3, dstate)          # n2^4 n3
    g = n2
    for k in range(1, dmax + 1):
        w = weights[k]
        if w > cmax:
            break                           # weights nondecreasing
        g = g._mul_bounded(u, min(dstate, dmax - k))
        acc = acc + g.shift(w, k)
    return acc


def solve_system(convention: str | CodimWeight, cmax: int,
                 dmax: int) -> SystemSolution:
    """Solve the three-equation system on the box (cmax, dmax).

    Returns the unique solution with nonnegative coefficients, always
    re-checked by SystemSolution.verify.  Raises ConvergenceError if the
    sweeps fail to stabilize (impossible for a correct implementation)
    and NegativeCoefficientError if any count comes out negative.
    """
    if cmax < 0 or dmax < 0:
        raise ValueError("box bounds must be nonnegative")
    conv = get_convention(convention)
    weights = conv.table(dmax) if dmax >= 1 else []
    one = BiSeries.one(cmax, dmax)
    n2 = one
    for s in range(1, dmax + 2):
        exact = s - 1                       # rows of n2 already exact
        n2sq = n2._mul_bounded(n2, exact)
        n2p4 = n2sq._mul_bounded(n2sq, exact)
        n1 = (one + n2p4.shift(0, 1)).truncate_degree(s)
        n3 = n2._divide_bounded(n1, exact)
        nxt = (n1 + _weighted_tail(n2, n3, weights, exact)).truncate_degree(s)
        if nxt == n2:
            break
        n2 = nxt
    else:
        raise ConvergenceError(
            f"no fixed point within {dmax + 1} sweeps on ({cmax},{dmax})")
    # n1(0, d) > 0 for every d, so only the sweep with exact = dmax can
    # reproduce n2: its n1 and n3 are already the full-box series
    solution = SystemSolution(n1, n2, n3, conv, (cmax, dmax))
    solution.verify()
    return solution


def solve_simple(cmax: int, dmax: int) -> BiSeries:
    """Solve n4 = 1 + y n4^4 + 4 x y^2 n4^8 (simple configurations),
    re-checked on the full box."""
    if cmax < 0 or dmax < 0:
        raise ValueError("box bounds must be nonnegative")
    one = BiSeries.one(cmax, dmax)
    n4 = one
    for s in range(1, dmax + 2):
        exact = s - 1
        p2 = n4._mul_bounded(n4, exact)
        p4 = p2._mul_bounded(p2, exact)
        p8 = p4._mul_bounded(p4, exact)
        nxt = (one + p4.shift(0, 1) + p8.scale(4).shift(1, 2)).truncate_degree(s)
        if nxt == n4:
            break
        n4 = nxt
    else:
        raise ConvergenceError(
            f"no fixed point within {dmax + 1} sweeps on ({cmax},{dmax})")
    if n4 != one + (n4 ** 4).shift(0, 1) + (n4 ** 8).scale(4).shift(1, 2):
        raise SolverError("simple-configuration equation violated")
    if n4.min_coefficient() < 0:
        raise NegativeCoefficientError("negative coefficient in n4")
    return n4


# ----------------------------------------------------------------------
# solution cache: concurrent readers, single-writer insertion
# ----------------------------------------------------------------------

_cache_lock = threading.Lock()
_cache: dict[tuple[str, tuple[int, ...], int, int], SystemSolution] = {}


def cached_solution(convention: str | CodimWeight, cmax: int,
                    dmax: int) -> SystemSolution:
    """solve_system with reuse: a cached solution on a covering box serves
    a smaller query under the same convention name when their validated
    weight tables agree through the query's degree (rows d <= dmax depend
    on weight(k) for k <= dmax only)."""
    conv = get_convention(convention)
    weights = tuple(conv.table(dmax))
    for (name, ws, cm, dm), sol in list(_cache.items()):
        if (name == conv.name and cm >= cmax and dm >= dmax
                and ws[:dmax + 1] == weights):
            return sol
    solution = solve_system(conv, cmax, dmax)
    with _cache_lock:
        dominated = [k for k in _cache
                     if k[0] == conv.name and k[2] <= cmax and k[3] <= dmax
                     and k[1] == weights[:k[3] + 1]]
        for key in dominated:
            del _cache[key]
        _cache[(conv.name, weights, cmax, dmax)] = solution
    return solution


def clear_cache() -> None:
    with _cache_lock:
        _cache.clear()


def count_configurations(c: int, d: int,
                         convention: str | CodimWeight = ODD) -> int:
    """#configurations of codimension c and degree d (exact, >= 0)."""
    if c < 0 or d < 0:
        raise ValueError("codimension and degree must be nonnegative")
    solution = cached_solution(convention, c, d)
    value = solution.n1.coeff(c, d)
    if value < 0:
        raise NegativeCoefficientError(f"negative count at ({c},{d})")
    return value
