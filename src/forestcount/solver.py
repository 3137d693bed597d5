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

With t = y n2^4 n3, which the first two equations make n2 - n3 and
the meeting-point sum sum_k x^weight(k) t^k =: T(t), the third reads
n2 (1 - T(t)) = n1, so n3 = R := 1 / (1 - T(t)) and n2 = R + t.
Eliminating n1, n2 and n3 leaves one equation t = G(t) = y (R + t)^4 R
in Lagrangian form (Flajolet and Sedgewick, Analytic Combinatorics,
2009, section VII.4), and n4 = G(n4) for simple configurations, each
solved by Newton's iteration, each step of which can double the number
of exact y-degrees (Brent and Kung, J. ACM 25(4), 1978; von zur Gathen
and Gerhard, Modern Computer Algebra, section 9; see _newton).  n1, n2
and n3 are then read off the rows that Newton's last step added, with
products on those rows only (_read_off).  Every solution is checked on
its full box before it is returned (see _check_solved).
"""

from __future__ import annotations

from _thread import allocate_lock
from collections import Counter, namedtuple
from collections.abc import Callable

from .series import BiSeries


class SolverError(RuntimeError):
    pass


class NegativeCoefficientError(SolverError):
    """A negative count appeared; signals a wrong convention or recurrence."""


class FrozenRecord:
    """An immutable record that must not compare as a tuple, whose fields
    are its class's __slots__, set by __init__ through object.__setattr__.
    Equality and hash use the _key() that each subclass defines; copy and
    pickle rebuild a record through __init__, with its fields in
    __slots__ order."""

    __slots__ = ()

    def __setattr__(self, attr, value):
        raise AttributeError(f"cannot assign to field {attr!r}")

    def __delattr__(self, attr):
        raise AttributeError(f"cannot delete field {attr!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{self.__class__.__name__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, n) for n in self.__slots__)


class CodimWeight(FrozenRecord):
    """A named rule assigning a local codimension exponent to k >= 1.

    k is the number of even lines at the first base-line meeting point.
    weight must be nondecreasing with weight(k) >= 1; the built-in
    conventions additionally satisfy weight(1) = 1 (a simple tangency
    has codimension 1).  Immutable; equality and hash use the name only.
    """

    __slots__ = ("name", "weight")

    def __init__(self, name: str, weight: Callable[[int], int]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "weight", weight)

    def _key(self):
        return self.name

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


class TailSplit(namedtuple("TailSplit", "prefix k0 w0 s")):
    """T(t) = sum_{k<k0} x^prefix[k-1] t^k + x^w0 t^k0 / (1 - x^s t)."""

    __slots__ = ()


def _tail_split(weights: list[int], cmax: int, dmax: int) -> TailSplit:
    """Split weight(1..dmax) on the box (cmax, dmax) into a prefix and a run.

    K is the last k <= dmax with weight(k) <= cmax.  The run
    weight(k) = w0 + s (k - k0) must equal the table for k0..K, and its
    extension must leave the box where the table does: K = dmax, or
    w0 + s (K+1-k0) > cmax.  A one-term run with s = cmax+1 always
    qualifies; the longest qualifying run is taken, so the prefix is as
    short as it can be.  With no such K, T = 0 on the box, and the split
    is the empty run k0 = 1, w0 = s = cmax+1, whose terms all lie outside
    the box.  Terms with k > b or weight > cmax vanish on a box (cmax, b),
    so the split holds there for every b <= dmax.  It is checked against
    the table before it is returned.
    """
    top = 0
    for k in range(1, dmax + 1):
        if weights[k] > cmax:
            break                           # weights nondecreasing
        top = k
    k0, s = max(top, 1), cmax + 1
    if top > 1:
        step = weights[top] - weights[top - 1]
        if top == dmax or weights[top] + step > cmax:
            k0, s = top - 1, step
            while k0 > 1 and weights[k0] - weights[k0 - 1] == step:
                k0 -= 1
    split = TailSplit(tuple(weights[1:k0]), k0,
                      weights[k0] if top else s, s)
    _check_split(split, weights, cmax, dmax)
    return split


def _check_split(split: TailSplit, weights: list[int], cmax: int,
                 dmax: int) -> None:
    """Raise SolverError unless the split equals sum_k x^weight(k) y^k,
    built from the table, exponent by exponent on the box (cmax, dmax).

    The split is expanded term by term, its run as
    x^w0 y^k0 sum_j x^(s j) y^j, and both sides are kept as multisets of
    exponents, so a term the split repeats is a mismatch too.
    """
    table = Counter((w, k) for k, w in enumerate(weights[1:dmax + 1], 1)
                    if w <= cmax)
    prefix, k0, w0, s = split
    terms = [*enumerate(prefix, 1),
             *((k, w0 + s * (k - k0)) for k in range(k0, dmax + 1))]
    expanded = Counter((w, k) for k, w in terms if k <= dmax and w <= cmax)
    if expanded != table:
        raise SolverError(f"tail split {split} does not match the weight "
                          f"table on the box ({cmax},{dmax})")


def _below(z: BiSeries, k: int) -> BiSeries:
    """z without its top k rows (row 0 always stays): the rows of a factor
    that y^k shifts out of the box.  w.pad(z.dmax).shift(0, k) puts a
    result w built from it back on z's box."""
    return z.crop(z.cmax, max(z.dmax - k, 0))


class SystemSolution(namedtuple("SystemSolution",
                                "n1 n2 n3 convention box")):
    """Solved (n1, n2, n3) triple on a box (cmax, dmax), under one weight
    convention (a CodimWeight)."""

    __slots__ = ()

    def verify(self) -> None:
        """Re-check the three defining equations and nonnegativity."""
        cmax, dmax = self.box
        split = _tail_split(self.convention.table(dmax), cmax, dmax)
        if self.n1 != _n1_of(self.n2):
            raise SolverError("equation n1 = 1 + y n2^4 violated")
        _check_solved(self.n1, self.n2, self.n3, split)


def _n1_of(n2: BiSeries) -> BiSeries:
    """n1 = 1 + y n2^4 on n2's box."""
    cmax, dmax = n2.box()
    return BiSeries.one(cmax, dmax) + (_below(n2, 1) ** 4).pad(dmax).shift(0, 1)


def _check_solved(n1: BiSeries, n2: BiSeries, n3: BiSeries,
                  split: TailSplit) -> None:
    """Raise SolverError unless n2 = n1 n3, the meeting-point equation
    and nonnegativity hold on the box, for an n1 = 1 + y n2^4 taken as
    given: solve_system reads it off the last Newton step, exact unless
    n2 = n1 n3 fails (see _read_off), and verify() compares it with
    _n1_of."""
    if n1 * n3 != n2:
        raise SolverError("equation n2 = n1 n3 violated")
    # truncation to the box is a ring homomorphism, so with both
    # equations holding there, y n2^4 n3 = (n1 - 1) n3 = n2 - n3 exactly
    if not _weighted_tail(n1, n2, n2 - n3, split):
        raise SolverError("meeting-point equation for n2 violated")
    for name, s in (("n1", n1), ("n2", n2), ("n3", n3)):
        if s.min_coefficient() < 0:
            raise NegativeCoefficientError(f"negative coefficient in {name}")


def _weighted_tail(n1: BiSeries, n2: BiSeries, v: BiSeries,
                   split: TailSplit) -> bool:
    """Whether n2 = n1 + n2 T(v) holds on the box, for v = y n2^4 n3.

    With L = n2 - n1 - n2 P(v), the equation multiplied through by
    1 - x^s v reads L (1 - x^s v) = x^w0 v^k0 n2.  It is checked as
    L = v (x^s L + x^w0 v^(k0-1) n2), with v^k n2 built one product at a
    time, k0 products in all.  Since 1 - x^s v has constant term 1, the
    cleared form holds exactly when the equation does; it has no
    division, so it is a different computation from the Newton step's.
    """
    lhs, vkn2 = n2 - n1, n2                 # vkn2 = v^k n2
    for w in split.prefix:
        vkn2 = v * vkn2
        lhs = lhs - vkn2.shift(w, 0)
    return lhs == v * (lhs.shift(split.s, 0) + vkn2.shift(split.w0, 0))


def _newton(step, cmax: int, dmax: int,
            seed: BiSeries | None = None) -> tuple[BiSeries, tuple | None]:
    """The root of t = G(t) on the box (cmax, dmax), where row d of G(t)
    depends on rows < d of t only, and what the last step kept (None
    when there is no step).

    t lives on the box (cmax, p-1) of its exact rows, starting from the
    one row t(x, 0) = 0 (p = 1), or from a seed's p = seed.dmax + 1 rows
    (1 <= p <= dmax); a root whose row 0 is not zero, as n4's, needs a
    seed of that one row.  The precisions q are the halving ladder
    ceil((dmax+1) / 2^j) in increasing order, from the first one above p:
    dmax.bit_length() steps from p = 1, each with q <= 2p (the rung below
    q is at most p), the last ending at q = dmax+1.  A step zero-extends t
    to the box (cmax, q-1) that it makes exact; step(t, e) returns G(t)
    on that box, G'(t) on the box (cmax, e), e = q-p-1, and what it
    keeps for the caller.  The numerator
    G(t) - t has y-valuation >= p, so its rows p..q-1 divided by
    1 - G'(t), on the box (cmax, e), are the rows that the step adds, and
    rows < p stay as they are.  G' has y-valuation >= 1, so that
    denominator has constant term 1.

    Rows < p of G(t) - t vanish exactly when the seed's p rows are those
    of the root, by induction on d.  The first seeded step checks this.
    If row m < p is the first nonzero one, the same induction shows the
    seed's rows < m exact, so G(t)'s rows <= m are the root's: the ladder
    restarts from these m + 1 rows, which for m = 0 (a wrong row 0) is
    the one-row start.
    """
    ladder, n = [], dmax + 1
    while n > 1:
        ladder.append(n)
        n = (n + 1) // 2
    t, p, kept = BiSeries.zero(cmax, 0), 1, None
    if seed is not None:
        t, p = seed, seed.dmax + 1
    for q in reversed(ladder):
        if q <= p:
            continue
        e = q - p - 1
        t = t.pad(q - 1)
        g, dg, kept = step(t, e)
        num = g - t
        if seed is not None:
            m = num.valuation()
            if m < p:
                return _newton(step, cmax, dmax, g.crop(cmax, m))
            seed = None
        den = BiSeries.one(cmax, e) - dg
        t = t + num.drop(p).divide(den).pad(q - 1).shift(0, p)
        p = q
    return t, kept


def _system_step(split: TailSplit):
    """The Newton step for t = y n2^4 n3 = n2 - n3, for the tail split of
    the weight table.

    With N = 1 - x^s t and the prefix P(t) = sum_{k<k0} x^weight(k) t^k,
    1 - T(t) = Q / N for Q = (1 - P) N - x^w0 t^k0, a sum of shifts of
    t^0..t^k0, which take k0 - 1 products.  Then n3 = R = N / Q, the
    step's one full-box quotient, n2 = R + t and G(t) = y n2^4 R, with
    n2^4 by two squares on the rows below the top one.  On the box
    (cmax, e), R' = dR/dt = (-x^s - R Q') / Q, with Q' also a sum of
    shifts of powers of t, and G'(t) = y n2^3 (4R + (4R + n2) R'), which
    y shifts so that its factors are needed on the box (cmax, e - 1) only.

    Each call keeps (R, n2^4, R', n2^3) for _read_off: R on the step's
    box (cmax, b), n2^4 on (cmax, b - 1), R' on (cmax, e) and n2^3 on
    (cmax, e - 1), or None when e = 0.
    """
    prefix, k0, w0, s = split

    def step(t: BiSeries, e: int) -> tuple[BiSeries, BiSeries, tuple]:
        cmax, b = t.cmax, t.dmax
        one = BiSeries.one(cmax, b)
        powers = [one, t]                   # t^0..t^k0
        for _ in prefix:
            powers.append(powers[-1] * t)
        n = one - t.shift(s, 0)
        q = n - powers[k0].shift(w0, 0)
        # -Q' on the box (cmax, e)
        low = [tk.crop(cmax, e) for tk in powers]
        xs = low[0].shift(s, 0)
        dq = xs + low[k0 - 1].scale(k0).shift(w0, 0)
        for k, wk in enumerate(prefix, 1):  # -x^wk t^k (1 - x^s t) in Q
            q = q - powers[k].shift(wk, 0) + powers[k + 1].shift(wk + s, 0)
            dq = (dq + low[k - 1].scale(k).shift(wk, 0)
                  - low[k].scale(k + 1).shift(wk + s, 0))
        r = n.divide(q)
        n2 = r + t
        nb = _below(n2, 1)
        sq = nb * nb
        n2_4 = sq * sq
        g = (n2_4 * _below(r, 1)).pad(b).shift(0, 1)
        dr = (r.crop(cmax, e) * dq - xs).divide(q.crop(cmax, e))
        if e == 0:
            cube, dg = None, BiSeries.zero(cmax, 0)
        else:
            r_c, n2_c = r.crop(cmax, e - 1), n2.crop(cmax, e - 1)
            cube = sq.crop(cmax, e - 1) * n2_c
            four_r = r_c.scale(4)
            dphi = cube * (four_r + (four_r + n2_c) * _below(dr, 1))
            dg = dphi.pad(e).shift(0, 1)
        return g, dg, (r, n2_4, dr, cube)

    return step


def _read_off(t: BiSeries, kept) -> tuple[BiSeries, BiSeries, BiSeries]:
    """(n1, n2, n3) on t's box (cmax, dmax), from Newton's root t and
    what its last step kept (see _system_step): R, n2_p^4, R' and n2_p^3
    at the step's start t_p, t's rows below p, with e = dmax - p.

    _newton's last step changes t's rows p..dmax only, so with
    D = t.drop(p), t = t_p + y^p D and n2_p = R + t_p.  The ladder
    keeps dmax + 1 <= 2p, so every term with D^2 vanishes on the box and
    n3 = R(t) = R + y^p D R', n2 = n3 + t and, n2 moving by
    y^p (D R' + D) from n2_p, n1 = 1 + y n2^4 =
    1 + y n2_p^4 + y^(p+1) 4 n2_p^3 (D R' + D), all exactly.  Only rows
    <= e of R' meet D, so n3's product is on the box (cmax, e) and n1's,
    whose top row y^(p+1) shifts out, on (cmax, e - 1), or none when
    e = 0.

    So n1 n3 - n2 = y n2^4 R(t) - t = G(t) - t on the whole box: if t's
    first wrong row is m, G(t)'s row m is the root's, and _check_solved
    rejects n2 = n1 n3 at row m, below p or not.  That product shares no
    quotient with the step.
    """
    if kept is None:                        # dmax = 0: no step, t = 0
        one = BiSeries.one(t.cmax, 0)
        return one, one, one
    r, n2_4, dr, cube = kept
    dmax, e = t.dmax, dr.dmax
    p = dmax - e
    top = t.drop(p)
    move = top * dr                         # D R'
    n3 = r + move.pad(dmax).shift(0, p)
    n1 = BiSeries.one(t.cmax, dmax) + n2_4.pad(dmax).shift(0, 1)
    if cube is not None:                    # y^(p+1) shifts it out at e = 0
        tail = cube * _below(move + top, 1)
        n1 = n1 + tail.scale(4).pad(dmax).shift(0, p + 1)
    return n1, n3 + t, n3


def solve_system(convention: str | CodimWeight, cmax: int,
                 dmax: int) -> SystemSolution:
    """Solve the three-equation system on the box (cmax, dmax).

    t = n2 - n3 comes from Newton's iteration on t = G(t) (see
    _system_step), started from the exact leading rows of a cached
    n2 - n3 of the same rule when the cache holds one (see _seed).
    n1 = 1 + y n2^4, n2 and n3 are then read off the rows of t that the
    last Newton step added and what that step kept, with two products on
    as many rows, no square and no quotient (see _read_off).  Returns the
    unique solution with nonnegative coefficients, whatever the cache
    holds.  n2 = n1 n3 (a full-box product, which rejects any wrong row
    of t), the meeting-point equation and nonnegativity are always
    checked on the full box (_check_solved), which raises
    NegativeCoefficientError if any count comes out negative; n1 holds
    by construction (SystemSolution.verify rebuilds it with _n1_of), so
    it is built only once.
    """
    if cmax < 0 or dmax < 0:
        raise ValueError("box bounds must be nonnegative")
    conv = get_convention(convention)
    weights = conv.table(dmax)
    split = _tail_split(weights, cmax, dmax)
    seed = _seed(conv.name, tuple(weights), cmax, dmax)
    n1, n2, n3 = _read_off(*_newton(_system_step(split), cmax, dmax, seed))
    _check_solved(n1, n2, n3, split)
    return SystemSolution(n1, n2, n3, conv, (cmax, dmax))


def _simple_g(z4: BiSeries, dmax: int) -> BiSeries:
    """G(z) = 1 + y z^4 + 4 x y^2 z^8 on the box (cmax, dmax), from
    z^4 = _below(z, 1) ** 4."""
    z8 = _below(z4, 1) ** 2
    return (BiSeries.one(z4.cmax, dmax) + z4.pad(dmax).shift(0, 1)
            + z8.scale(4).pad(dmax).shift(1, 2))


def _simple_step(z: BiSeries, e: int) -> tuple[BiSeries, BiSeries, None]:
    """G(z) = 1 + y z^4 + 4 x y^2 z^8 and G'(z) = 4 y z^3 + 32 x y^2 z^7;
    it keeps nothing."""
    cmax = z.cmax
    zb = _below(z, 1)
    z2 = zb * zb
    z4 = z2 * z2
    g = _simple_g(z4, z.dmax)
    z3 = z2.crop(cmax, e) * z.crop(cmax, e)
    dg = (z3.scale(4).shift(0, 1)
          + (z3 * z4.crop(cmax, e)).scale(32).shift(1, 2))
    return g, dg, None


def solve_simple(cmax: int, dmax: int) -> BiSeries:
    """Solve n4 = 1 + y n4^4 + 4 x y^2 n4^8 (simple configurations) by
    Newton's iteration, re-checked on the full box."""
    if cmax < 0 or dmax < 0:
        raise ValueError("box bounds must be nonnegative")
    n4, _ = _newton(_simple_step, cmax, dmax, BiSeries.one(cmax, 0))
    if n4 != _simple_g(_below(n4, 1) ** 4, dmax):
        raise SolverError("simple-configuration equation violated")
    if n4.min_coefficient() < 0:
        raise NegativeCoefficientError("negative coefficient in n4")
    return n4


# ----------------------------------------------------------------------
# solution cache: concurrent readers, single-writer insertion
# ----------------------------------------------------------------------

_cache_lock = allocate_lock()
_cache: dict[tuple[str, tuple[int, ...], int, int], SystemSolution] = {}


def cached_solution(convention: str | CodimWeight, cmax: int,
                    dmax: int) -> SystemSolution:
    """solve_system with reuse: a cached solution on a covering box serves
    a smaller query under the same convention name when their validated
    weight tables agree through the query's degree (rows d <= dmax depend
    on weight(k) for k <= dmax only).  A miss is solved by solve_system,
    whose Newton iteration starts from the cached n2 that gives it the
    most exact leading rows (see _seed)."""
    if cmax < 0 or dmax < 0:
        raise ValueError("box bounds must be nonnegative")
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


def _seed(name: str, weights: tuple[int, ...], cmax: int,
          dmax: int) -> BiSeries | None:
    """The leading rows of a cached t = n2 - n3 to start Newton from on
    the box (cmax, dmax), or None when no cached box gives 2 rows or more.

    A box (cm, dm) at least as wide gives its rows d < min(dm+1, dmax),
    cropped to cmax: rows and columns of the solution depend on lower
    ones only.  A narrower box gives its rows before the first whose n2
    has a nonzero top column c = cm, widened with zero columns: n2's row
    support grows with d, so these rows of n2 are expected to have no
    terms above cm on the wider box either, and then neither have t's,
    since 0 <= t <= n2 term by term (t = (n1 - 1) n3 and n3 = n2 - t
    have no negative terms).  The first Newton step checks that; a rule
    whose rows have gaps in their support, such as weight(k) = k^2, can
    fail it.  The cached rule must have the same name and the same
    weights through the rows given (row d depends on weight(k) for
    k <= d only).  The most rows win.
    """
    best, rows = None, 1
    for (nm, ws, cm, dm), sol in list(_cache.items()):
        if nm != name:
            continue
        p = min(dm + 1, dmax)
        if cm < cmax:
            p = next((d for d in range(p) if sol.n2.coeff(cm, d)), p)
        if p > rows and ws[:p] == weights[:p]:
            best, rows = sol, p
    if best is None:
        return None
    box = min(best.box[0], cmax), rows - 1
    return (best.n2.crop(*box) - best.n3.crop(*box)).widen(cmax)


def clear_cache() -> None:
    with _cache_lock:
        _cache.clear()


def count_configurations(c: int, d: int,
                         convention: str | CodimWeight = ODD) -> int:
    """#configurations of codimension c and degree d (exact, >= 0)."""
    return cached_solution(convention, c, d).n1.coeff(c, d)
