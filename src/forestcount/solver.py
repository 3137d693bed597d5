"""Newton solver for the configuration-counting equation system.

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

Eliminating n1 and n3 leaves one equation z = G(z) for z = n2 (and
n4 = G(n4) for simple configurations).  Newton's iteration
z <- z + (G(z) - z) / (1 - G'(z)) doubles the number of exact y-degrees
at each step (Brent and Kung, J. ACM 25(4), 1978), so about log2(dmax)
steps reach the box, and each step works on the box of the rows it
makes exact.  The defining equations are re-verified on the full box
before a solution is returned.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable

from .series import BiSeries


class SolverError(RuntimeError):
    pass


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
        n2p4 = self.n2 ** 4
        if self.n1 != one + n2p4.shift(0, 1):
            raise SolverError("equation n1 = 1 + y n2^4 violated")
        if self.n1 * self.n3 != self.n2:
            raise SolverError("equation n2 = n1 n3 violated")
        tail = _weighted_tail(self.n2, n2p4 * self.n3, weights)
        if self.n2 != self.n1 + tail:
            raise SolverError("meeting-point equation for n2 violated")
        for name, s in (("n1", self.n1), ("n2", self.n2), ("n3", self.n3)):
            if s.min_coefficient() < 0:
                raise NegativeCoefficientError(f"negative coefficient in {name}")


def _weighted_tail(n2: BiSeries, u: BiSeries,
                   weights: list[int]) -> BiSeries:
    """sum_k x^weight(k) y^k n2 u^k for u = n2^4 n3, truncated to the box.

    Computed incrementally (g_k = g_{k-1} * u) with each product bounded
    by the rows that survive the y^k shift.
    """
    cmax, dmax = n2.cmax, n2.dmax
    acc = BiSeries.zero(cmax, dmax)
    if dmax < 1 or not weights:
        return acc
    g = n2
    for k in range(1, dmax + 1):
        w = weights[k]
        if w > cmax:
            break                           # weights nondecreasing
        g = g._mul_bounded(u, dmax - k)
        acc = acc + g.shift(w, k)
    return acc


def _newton(step, cmax: int, dmax: int) -> BiSeries:
    """The root of z = G(z) with z(x, 0) = 1, on the box (cmax, dmax).

    z lives on the box (cmax, p-1) of its exact rows, starting from p = 1.
    A step zero-extends z to the box (cmax, q-1), q = min(2p, dmax+1),
    that it makes exact; step(z, e) returns G(z) on that box and G'(z)
    on the box (cmax, e), e = q-p-1.  The numerator G(z) - z has
    y-valuation >= p, so rows < q of the quotient need the denominator
    1 - G'(z) only through row e, and G' has y-valuation >= 1, so that
    denominator has constant term 1.
    """
    z, p = BiSeries.one(cmax, 0), 1
    while p <= dmax:
        q = min(2 * p, dmax + 1)
        e = q - p - 1
        z = z.pad(q - 1)
        g, dg = step(z, e)
        den = (BiSeries.one(cmax, e) - dg).pad(q - 1)
        z = z + (g - z).divide(den)
        p = q
    return z


def _system_step(weights: list[int]):
    """The Newton step for z = n2.

    With a = y z^4, n1 = 1 + a, r = a / n1 and t = z r (= y z^4 n3),
    G(z) = n1 + z T(t) for T(t) = sum_k x^weight(k) t^k, and
    G'(z) = 4 y z^3 + T(t) + z T'(t) dt/dz, where
    dt/dz = r (5 + a) / n1 = 5r - 4r^2, so z T'(t) dt/dz = (5 - 4r) K(t)
    for K(t) = t T'(t) = sum_k k x^weight(k) t^k.  One table of powers
    t^k serves both T and K.
    """

    def step(z: BiSeries, e: int) -> tuple[BiSeries, BiSeries]:
        cmax, b = z.cmax, z.dmax
        z2 = z * z
        a = (z2 * z2).shift(0, 1)
        n1 = BiSeries.one(cmax, b) + a
        r = a.divide(n1)
        t = z * r
        tt = BiSeries.zero(cmax, b)         # T(t)
        kt = BiSeries.zero(cmax, e)         # K(t)
        tk = t
        # t^k has y-valuation k: only k <= b with weight(k) <= cmax count
        for k in range(1, b + 1):
            if weights[k] > cmax:
                break                       # weights nondecreasing
            if k > 1:
                tk = tk * t
            term = tk.shift(weights[k], 0)
            tt = tt + term
            if k <= e:
                kt = kt + term.crop(cmax, e).scale(k)
        g = n1 + z * tt
        five_4r = BiSeries.one(cmax, e).scale(5) - r.crop(cmax, e).scale(4)
        dg = ((z2.crop(cmax, e) * z.crop(cmax, e)).scale(4).shift(0, 1)
              + tt.crop(cmax, e) + kt * five_4r)
        return g, dg

    return step


def solve_system(convention: str | CodimWeight, cmax: int,
                 dmax: int) -> SystemSolution:
    """Solve the three-equation system on the box (cmax, dmax).

    n2 comes from Newton's iteration on n2 = G(n2) (see _system_step),
    then n1 = 1 + y n2^4 and n3 = n2 / n1 on the full box.  Returns the
    unique solution with nonnegative coefficients, always re-checked by
    SystemSolution.verify, which raises NegativeCoefficientError if any
    count comes out negative.
    """
    if cmax < 0 or dmax < 0:
        raise ValueError("box bounds must be nonnegative")
    conv = get_convention(convention)
    weights = conv.table(dmax) if dmax >= 1 else []
    n2 = _newton(_system_step(weights), cmax, dmax)
    n1 = BiSeries.one(cmax, dmax) + (n2 ** 4).shift(0, 1)
    n3 = n2.divide(n1)
    solution = SystemSolution(n1, n2, n3, conv, (cmax, dmax))
    solution.verify()
    return solution


def _simple_step(z: BiSeries, e: int) -> tuple[BiSeries, BiSeries]:
    """G(z) = 1 + y z^4 + 4 x y^2 z^8 and G'(z) = 4 y z^3 + 32 x y^2 z^7."""
    cmax = z.cmax
    z2 = z * z
    z4 = z2 * z2
    g = (BiSeries.one(cmax, z.dmax) + z4.shift(0, 1)
         + (z4 * z4).scale(4).shift(1, 2))
    z3 = z2.crop(cmax, e) * z.crop(cmax, e)
    dg = (z3.scale(4).shift(0, 1)
          + (z3 * z4.crop(cmax, e)).scale(32).shift(1, 2))
    return g, dg


def solve_simple(cmax: int, dmax: int) -> BiSeries:
    """Solve n4 = 1 + y n4^4 + 4 x y^2 n4^8 (simple configurations) by
    Newton's iteration, re-checked on the full box."""
    if cmax < 0 or dmax < 0:
        raise ValueError("box bounds must be nonnegative")
    n4 = _newton(_simple_step, cmax, dmax)
    n4p4 = n4 ** 4
    if n4 != (BiSeries.one(cmax, dmax) + n4p4.shift(0, 1)
              + (n4p4 * n4p4).scale(4).shift(1, 2)):
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
