import threading

import pytest
from hypothesis import example, given, settings, strategies as st

from forestcount import solver
from forestcount.formulas import codim1_count, flat_count, simple_count
from forestcount.series import BiSeries
from forestcount.solver import (CONVENTIONS, LINEAR, ODD, CodimWeight,
                                SolverError, TailSplit, _check_split,
                                _newton, _simple_step, _tail_split,
                                _weighted_tail, cached_solution, clear_cache,
                                count_configurations, get_convention,
                                solve_simple, solve_system)

# frozen from cross-route runs: first rows where the conventions part ways
ROW_D4 = {
    "odd": [140, 480, 608, 344, 80, 4, 0, 0],
    "linear": [140, 480, 608, 344, 84, 0, 0, 0],
}
ROW_D5 = {
    "odd": [969, 4560, 8740, 8760, 4845, 1380, 150, 4, 0, 0],
    "linear": [969, 4560, 8740, 8760, 4925, 1404, 50, 0, 0, 0],
}


def test_weight_tables():
    assert ODD.table(5)[1:] == [1, 3, 5, 7, 9]
    assert LINEAR.table(5)[1:] == [1, 3, 4, 5, 6]


def test_weight_validation():
    bad = CodimWeight("bad", lambda k: 5 - k)
    with pytest.raises(ValueError):
        bad.table(6)
    nonpos = CodimWeight("nonpos", lambda k: k - 1)
    with pytest.raises(ValueError):
        nonpos.table(3)


def test_get_convention():
    assert get_convention("odd") is ODD
    assert get_convention(LINEAR) is LINEAR
    with pytest.raises(ValueError):
        get_convention("nope")


@pytest.mark.parametrize("name", list(CONVENTIONS))
def test_degree_one_single_cross(name):
    sol = solve_system(name, 0, 1)
    assert sol.n1.coeff(0, 1) == 1


@pytest.mark.parametrize("name", list(CONVENTIONS))
def test_flat_row_is_fuss_catalan(name):
    sol = solve_system(name, 0, 8)
    assert [sol.n1.coeff(0, d) for d in range(9)] == \
        [flat_count(d) for d in range(9)]


@pytest.mark.parametrize("name", list(CONVENTIONS))
def test_codim1_row(name):
    sol = solve_system(name, 1, 8)
    assert [sol.n1.coeff(1, d) for d in range(9)] == \
        [codim1_count(d) for d in range(9)]
    assert sol.n1.coeff(1, 2) == 4


def test_empty_configuration():
    assert count_configurations(0, 0) == 1


def test_cell_1_1_is_zero():
    assert count_configurations(1, 1) == 0


def test_cell_2_2_cross_route_pinned():
    # pinned by cross-route agreement: both conventions and the
    # recurrence route give 0 at (2, 2)
    assert count_configurations(2, 2, "odd") == 0
    assert count_configurations(2, 2, "linear") == 0


@pytest.mark.parametrize("name", list(CONVENTIONS))
def test_support_bound(name):
    sol = solve_system(name, 10, 5)
    for c in range(11):
        for d in range(6):
            if c >= 2 * d and (c, d) != (0, 0):
                assert sol.n1.coeff(c, d) == 0


def test_conventions_diverge_at_4_4():
    for name in CONVENTIONS:
        sol = solve_system(name, 9, 5)
        assert [sol.n1.coeff(c, 4) for c in range(8)] == ROW_D4[name]
        assert [sol.n1.coeff(c, 5) for c in range(10)] == ROW_D5[name]


@pytest.mark.parametrize("name", list(CONVENTIONS))
def test_solution_verifies_and_nonnegative(name):
    sol = solve_system(name, 8, 8)
    sol.verify()  # re-checks the three equations
    for s in (sol.n1, sol.n2, sol.n3):
        assert s.min_coefficient() >= 0


def test_verify_rejects_perturbed_solutions():
    sol = solve_system("odd", 6, 6)
    # y n2^4 never reads the top row of n2, so a bump there leaves
    # n1 = 1 + y n2^4 standing and must break n2 = n1 n3
    for (c, d), n2_message in (((2, 3), "n1 = 1"), ((0, 6), "n2 = n1 n3"),
                               ((6, 6), "n2 = n1 n3")):
        bump = BiSeries.monomial(6, 6, c, d)
        for name, message in (("n1", "n1 = 1"), ("n2", n2_message),
                              ("n3", "n2 = n1 n3")):
            bad = sol._replace(**{name: getattr(sol, name) + bump})
            with pytest.raises(SolverError, match=message):
                bad.verify()
    # odd and linear part ways at (4, 4): only the meeting-point tail sees it
    with pytest.raises(SolverError, match="meeting-point"):
        sol._replace(convention=LINEAR).verify()


def test_solution_equations_hold_exactly():
    sol = solve_system("odd", 6, 6)
    one = BiSeries.one(6, 6)
    assert sol.n1 == one + (sol.n2 ** 4).shift(0, 1)
    assert sol.n2 == sol.n1 * sol.n3
    # third equation, expanded by hand for the odd weights on this box
    tail = BiSeries.zero(6, 6)
    g = sol.n2
    u = (sol.n2 ** 4) * sol.n3
    for k in range(1, 7):
        g = g * u
        tail = tail + g.shift(2 * k - 1, k)
    assert sol.n2 == sol.n1 + tail


def test_custom_weight_convention():
    # a constant-then-linear variant: usable, just not a built-in
    conv = CodimWeight("flatweights", lambda k: k)
    sol = solve_system(conv, 4, 4)
    assert [sol.n1.coeff(0, d) for d in range(5)] == \
        [flat_count(d) for d in range(5)]
    assert sol.n1.min_coefficient() >= 0


# one rule outgrows cmax early, one starts above codimension 1
RULES = [ODD, LINEAR,
         CodimWeight("square", lambda k: k * k),
         CodimWeight("two", lambda k: 2),
         CodimWeight("flatweights", lambda k: k),
         CodimWeight("triple", lambda k: 3 * k)]


def naive_system(conv, cmax, dmax):
    """Iterate n2 <- n1 + sum_k x^w(k) y^k n2^(4k+1) n3^k on the full
    box, with n1 = 1 + y n2^4 and n3 = n2 / n1, until n2 stops changing."""
    weights = conv.table(dmax)
    one = BiSeries.one(cmax, dmax)
    n2 = one
    while True:
        n1 = one + (n2 ** 4).shift(0, 1)
        n3 = n2.divide(n1)
        nxt, g, u = n1, n2, n2 ** 4 * n3
        for k in range(1, dmax + 1):
            g = g * u                       # n2^(4k+1) n3^k
            nxt = nxt + g.shift(weights[k], k)
        if nxt == n2:
            return n1, n2, n3
        n2 = nxt


@pytest.mark.parametrize("conv", RULES, ids=[r.name for r in RULES])
def test_solver_matches_naive_sweep(conv):
    for cmax in range(9):
        for dmax in range(9):
            sol = solve_system(conv, cmax, dmax)
            assert (sol.n1, sol.n2, sol.n3) == naive_system(conv, cmax, dmax), \
                (cmax, dmax)


@pytest.mark.parametrize("conv", RULES[:3], ids=[r.name for r in RULES[:3]])
def test_clipped_newton_steps_match_a_deeper_solve(conv):
    # the halving ladder takes steps with q < 2p for most dmax; the naive
    # sweep above stops at dmax 8
    deep = solve_system(conv, 6, 24).n2
    for d in range(25):
        assert solve_system(conv, 6, d).n2 == deep.crop(6, d), d


def test_newton_follows_the_halving_ladder():
    for dmax in range(71):
        steps = []

        def spy(z, e):
            q = z.dmax + 1
            steps.append((q - e - 1, q))
            return _simple_step(z, e)

        _newton(spy, 0, dmax, BiSeries.one(0, 0))     # n4(x, 0) = 1
        chain = [1] + [q for _, q in steps]
        assert steps == list(zip(chain, chain[1:])), dmax
        assert len(steps) == dmax.bit_length(), dmax
        assert chain[-1] == dmax + 1, dmax
        assert all(q <= 2 * p for p, q in steps), (dmax, steps)
        # each step starts from the fewest exact rows that can reach q
        # (ceil(q/2)), so the steps before the last are as small as they
        # can be; doubling from 1 fails this, e.g. 32 -> 33 at dmax = 32
        assert all(p == (q + 1) // 2 for p, q in steps), (dmax, steps)


@pytest.mark.parametrize("conv", RULES, ids=[r.name for r in RULES])
def test_each_newton_step_takes_one_full_box_quotient(conv, monkeypatch):
    # R = N / Q on the step's box; R' and _newton's update divide on the
    # box (cmax, e), below it.  Cold, seeded, and seeded through a restart
    # for weight(k) = k^2 (its failed step counts too)
    divide, system_step = BiSeries.divide, solver._system_step
    steps, inside = [], []

    def spy(num, den):
        steps[-1][1 if inside else 2].append(num.box())
        return divide(num, den)

    def counted_step(split):
        step = system_step(split)

        def counted(t, e):
            steps.append((t.box(), [], []))
            inside.append(True)
            try:
                return step(t, e)
            finally:
                inside.pop()

        return counted

    monkeypatch.setattr(solver, "_system_step", counted_step)
    for cached, box in ((None, (10, 12)), ((10, 5), (10, 12)),
                        ((7, 4), (9, 5))):
        clear_cache()
        if cached:
            cached_solution(conv, *cached)
        steps.clear()
        monkeypatch.setattr(BiSeries, "divide", spy)
        solve_system(conv, *box)
        monkeypatch.setattr(BiSeries, "divide", divide)
        assert steps, (cached, box)
        for full, within, after in steps:
            assert within.count(full) == 1, (cached, box, full, within)
            within.remove(full)
            assert all(b[1] < full[1] for b in within + after), \
                (cached, box, full, within, after)
    clear_cache()


@pytest.mark.parametrize("conv", RULES, ids=[r.name for r in RULES])
def test_t_satisfies_the_cleared_identities(conv):
    # t = n2 - n3, Newton's unknown: with N = 1 - x^s t and
    # Q = (1 - P(t)) N - x^w0 t^k0, built here by products alone,
    # n3 Q = N and t = y n2^4 n3 hold exactly, cold and seeded
    for cmax, dmax in ((8, 8), (0, 8), (12, 6), (3, 10)):
        split = _tail_split(conv.table(dmax), cmax, dmax)
        one = BiSeries.one(cmax, dmax)
        for cached in (None, (cmax, dmax // 2)):
            sol = solved(conv, cmax, dmax, cached)
            t = sol.n2 - sol.n3
            n = one - t.shift(split.s, 0)
            p, tk = BiSeries.zero(cmax, dmax), one
            for w in split.prefix:
                tk = tk * t
                p = p + tk.shift(w, 0)
            q = (one - p) * n - (tk * t).shift(split.w0, 0)
            assert sol.n3 * q == n, (cmax, dmax, cached)
            assert t == (sol.n2 ** 4 * sol.n3).shift(0, 1), \
                (cmax, dmax, cached)


def cleared_form(n1, n2, v, split):
    """The meeting-point equation as first cleared for the gate,
    (n2 - n1 - n2 P(v)) (1 - x^s v) = x^w0 v^k0 n2."""
    one = BiSeries.one(n2.cmax, n2.dmax)
    prefix, vk = BiSeries.zero(n2.cmax, n2.dmax), one
    for w in split.prefix:
        vk = vk * v
        prefix = prefix + vk.shift(w, 0)
    lhs = (n2 - n1 - n2 * prefix) * (one - v.shift(split.s, 0))
    return lhs == (vk * v * n2).shift(split.w0, 0)


@pytest.mark.parametrize("conv", RULES, ids=[r.name for r in RULES])
def test_weighted_tail_matches_the_cleared_form(conv):
    # on the (0,8) box no weight fits, so the split is the empty run
    for cmax in (8, 0):
        sol = solve_system(conv, cmax, 8)
        one = BiSeries.one(cmax, 8)
        split = _tail_split(conv.table(8), cmax, 8)
        bumps = [(c, d) for c, d in ((8, 8), (0, 8), (0, 1),
                                     (conv.weight(1), 1), (3, 4))
                 if c <= cmax]
        for bump in [None, *bumps]:
            n2 = (sol.n2 + BiSeries.monomial(cmax, 8, *bump) if bump
                  else sol.n2)
            n1 = one + (n2 ** 4).shift(0, 1)
            v = ((n2 ** 4) * n2.divide(n1)).shift(0, 1)
            # with n1 and v rebuilt from n2, and with the solution's own
            for args in ((n1, n2, v, split),
                         (sol.n1, n2, sol.n2 - sol.n3, split)):
                verdict = _weighted_tail(*args)
                assert verdict == cleared_form(*args), (cmax, bump)
                assert verdict == (bump is None), (cmax, bump)


@pytest.mark.parametrize("conv", RULES, ids=[r.name for r in RULES])
def test_meeting_point_gate_rejects_every_bump(conv):
    # n1 and n3 are rebuilt from the bumped n2, so the first two equations
    # hold and only the meeting-point equation can fail
    for cmax in (8, 0):
        sol = solve_system(conv, cmax, 8)
        one = BiSeries.one(cmax, 8)
        for c, d in ((8, 8), (0, 8), (0, 1), (conv.weight(1), 1)):
            if c > cmax:
                continue
            n2 = sol.n2 + BiSeries.monomial(cmax, 8, c, d)
            n1 = one + (n2 ** 4).shift(0, 1)
            bad = sol._replace(n1=n1, n2=n2, n3=n2.divide(n1))
            with pytest.raises(SolverError, match="meeting-point"):
                bad.verify()


def spy_newton(monkeypatch, events):
    """Append ("newton", seed) to events each time a _newton call returns,
    seed being the rows it started from (None for a cold start)."""
    newton = solver._newton

    def spy(step, cmax, dmax, seed=None):
        z = newton(step, cmax, dmax, seed)
        events.append(("newton", seed))
        return z

    monkeypatch.setattr(solver, "_newton", spy)


@pytest.mark.parametrize("conv", [ODD, LINEAR], ids=["odd", "linear"])
def test_solve_path_rejects_a_wrong_n3(conv, monkeypatch):
    # n3 is read off the last Newton step, with no quotient once Newton
    # has returned, so the product n1 n3 is what checks it, on the cold
    # path (an empty cache) and on the seeded one (a miss above a cached
    # box, seeded with the rows of its t = n2 - n3)
    divide, read_off, events = BiSeries.divide, solver._read_off, []

    def spy(num, den):
        events.append(("divide", None))
        return divide(num, den)

    def bumped(t, last):
        n1, n2, n3 = read_off(t, last)
        return n1, n2, n3 + bump

    monkeypatch.setattr(BiSeries, "divide", spy)
    spy_newton(monkeypatch, events)
    clear_cache()
    solve_system(conv, 6, 6)
    assert events[-1] == ("newton", None)
    low = cached_solution(conv, 6, 4)
    low = low.n2 - low.n3
    events.clear()
    solve_system(conv, 6, 6)
    assert events[-1] == ("newton", low)
    for c, d in ((0, 0), (2, 3), (0, 6), (6, 6)):
        bump = BiSeries.monomial(6, 6, c, d)
        for seeded in (False, True):
            clear_cache()
            monkeypatch.setattr(solver, "_read_off", read_off)
            if seeded:
                cached_solution(conv, 6, 4)
            monkeypatch.setattr(solver, "_read_off", bumped)
            events.clear()
            with pytest.raises(SolverError, match="n2 = n1 n3"):
                solve_system(conv, 6, 6)
            assert events[-1] == ("newton", low if seeded else None)
    clear_cache()


@pytest.mark.parametrize("conv", RULES, ids=[r.name for r in RULES])
def test_solve_path_rejects_a_wrong_tail(conv, monkeypatch):
    # n1, n2 and n3 are read off a bumped t on the solve path itself, on
    # the cold path (an empty cache) and on the seeded one (a miss above
    # a cached box).  A bump in the top row, which the last Newton step
    # adds, gives n1 n3 - n2 = G(t) - t, nonzero there; one in a row that
    # step starts from (rows 0, 1 and 4, below p = 5 cold and p = 6
    # seeded) moves only n2 = n3 + t.  Either way n2 = n1 n3 fails.  The
    # same bump in the top rows of n2 and n3 leaves n1 = 1 + y n2^4 and
    # n2 = n1 n3, and only the meeting-point equation fails
    newton, read_off, seeds = solver._newton, solver._read_off, []

    def spy(step, cmax, dmax, seed=None):
        seeds.append(seed)
        return newton(step, cmax, dmax, seed)

    def wrong_t(step, cmax, dmax, seed=None):
        t, kept = spy(step, cmax, dmax, seed)
        return t + bump, kept

    def wrong_top(t, last):
        n1, n2, n3 = read_off(t, last)
        return n1, n2 + bump, n3 + bump

    for c, d in ((8, 8), (0, 8), (0, 1), (conv.weight(1), 1), (0, 0),
                 (0, 4)):
        bump = BiSeries.monomial(8, 8, c, d)
        cases = [(wrong_t, read_off, "n2 = n1 n3")]
        if d == 8:
            cases.append((spy, wrong_top, "meeting-point"))
        for newton_as, read_off_as, message in cases:
            for seeded in (False, True):
                clear_cache()
                monkeypatch.setattr(solver, "_newton", spy)
                monkeypatch.setattr(solver, "_read_off", read_off)
                if seeded:
                    low = cached_solution(conv, 8, 5)
                monkeypatch.setattr(solver, "_newton", newton_as)
                monkeypatch.setattr(solver, "_read_off", read_off_as)
                seeds.clear()
                with pytest.raises(SolverError, match=message):
                    cached_solution(conv, 8, 8)
                assert seeds == [low.n2 - low.n3 if seeded else None], \
                    (c, d, message, seeded)
    clear_cache()


def test_solve_path_rejects_another_conventions_root(monkeypatch):
    # Newton solves under the next rule, the gate checks under this one:
    # each neighbouring pair parts ways on the box, and n3 = n2 / n1 holds
    # for either root, so only the meeting-point gate can fail, cold and
    # seeded (where the seed's rows fail the next rule's first step and
    # Newton restarts from the rows that step proves)
    step = solver._system_step
    for conv, other in zip(RULES, RULES[1:] + RULES[:1]):
        split = _tail_split(other.table(8), 8, 8)
        for seeded in (False, True):
            clear_cache()
            if seeded:
                cached_solution(conv, 8, 5)
            monkeypatch.setattr(solver, "_system_step",
                                lambda _, split=split: step(split))
            events = []
            spy_newton(monkeypatch, events)
            with pytest.raises(SolverError, match="meeting-point"):
                solve_system(conv, 8, 8)
            assert (events[-1][1] is not None) == seeded, conv.name
            monkeypatch.undo()
    clear_cache()


SQUARE = RULES[2]


def solved_cases(test):
    """Run test(conv, cmax, dmax, cached) on boxes of every rule in RULES
    that solve_system solves cold from an empty cache, or seeded from a
    cached box, through a restart when the seed's rows fail the first
    step (weight(k) = k^2 from (7,4) to (9,5))."""
    for case in ((ODD, 0, 0, None), (LINEAR, 3, 1, None),
                 (SQUARE, 0, 2, (0, 1)), (SQUARE, 5, 2, (5, 1)),
                 (SQUARE, 9, 5, (7, 4))):   # a seed of 5 rows restarts
        test = example(*case)(test)
    cached = st.one_of(st.none(), st.tuples(st.integers(0, 10),
                                            st.integers(1, 9)))
    test = given(st.sampled_from(RULES), st.integers(0, 10),
                 st.integers(0, 10), cached)(test)
    return settings(max_examples=150, deadline=None)(test)


def solved(conv, cmax, dmax, cached):
    clear_cache()
    if cached:
        cached_solution(conv, *cached)
    sol = solve_system(conv, cmax, dmax)
    clear_cache()
    return sol


@solved_cases
def test_n3_is_the_quotient_n2_over_n1(conv, cmax, dmax, cached):
    sol = solved(conv, cmax, dmax, cached)
    assert sol.n3 == sol.n2.divide(sol.n1), (conv.name, cmax, dmax, cached)


@solved_cases
def test_n1_is_one_plus_y_n2_to_the_fourth(conv, cmax, dmax, cached):
    # n1 comes from the last Newton step; _n1_of builds it from n2 alone
    sol = solved(conv, cmax, dmax, cached)
    assert sol.n1 == solver._n1_of(sol.n2), (conv.name, cmax, dmax, cached)


@pytest.mark.parametrize("conv", RULES, ids=[r.name for r in RULES])
def test_n1_of_runs_only_after_a_wrong_step(conv, monkeypatch):
    # cold, seeded and restarted solves take n1 from the last Newton step,
    # and so does a t with a wrong row, which fails n2 = n1 n3 (see
    # test_solve_path_rejects_a_wrong_tail) with no n1 rebuilt from n2
    n1_of, newton, calls = solver._n1_of, solver._newton, []

    def spy(n2):
        calls.append(n2.box())
        return n1_of(n2)

    monkeypatch.setattr(solver, "_n1_of", spy)
    for cached, box in ((None, (0, 0)), (None, (3, 1)), (None, (8, 8)),
                        ((8, 5), (8, 8)), ((7, 4), (9, 5)),
                        ((0, 1), (0, 2)), ((5, 1), (5, 2))):
        solved(conv, *box, cached)
    clear_cache()
    for dmax in range(1, 13):               # a count session's frontier
        cached_solution(conv, 2 * dmax - 1, dmax)
    assert calls == []

    def bumped(step, cmax, dmax, seed=None):
        t, kept = newton(step, cmax, dmax, seed)
        return t + bump, kept

    for c, d in ((8, 8), (0, 8), (0, 1), (conv.weight(1), 1)):
        bump = BiSeries.monomial(8, 8, c, d)
        for cached in (None, (8, 5)):
            monkeypatch.setattr(solver, "_newton", newton)
            clear_cache()
            if cached:
                cached_solution(conv, *cached)
            monkeypatch.setattr(solver, "_newton", bumped)
            calls.clear()
            with pytest.raises(SolverError, match="n2 = n1 n3"):
                solve_system(conv, 8, 8)
            assert calls == [], (c, d, cached)
    clear_cache()


def test_a_square_rule_seed_restarts(newton_calls):
    # the restart that test_n3_is_the_quotient_n2_over_n1 takes: n2's term
    # x^9 y^3 (weight(3) = 9) lies off the box (7,4), and through
    # t = y n2^4 n3 it puts x^9 in t's row 4, the seed's last
    clear_cache()
    cached_solution(SQUARE, 7, 4)
    newton_calls.clear()
    solve_system(SQUARE, 9, 5)
    assert newton_calls == [5, 5]
    clear_cache()


# ----------------------------------------------------------------------
# the tail split: T(t) = prefix + one arithmetic run, on a box
# ----------------------------------------------------------------------

@st.composite
def weight_tables(draw):
    """weight(0..10), nondecreasing from weight(1) >= 1 (index 0 unused);
    the increments settle into a constant one, so runs are common."""
    head = draw(st.lists(st.integers(0, 4), max_size=9))
    incs = head + [draw(st.integers(0, 4))] * (9 - len(head))
    weights = [0, draw(st.integers(1, 6))]
    for inc in incs:
        weights.append(weights[-1] + inc)
    return weights


@settings(max_examples=300, deadline=None)
@given(weight_tables(), st.integers(0, 12), st.integers(0, 10))
def test_tail_split_expands_to_the_weight_table(weights, cmax, dmax):
    weights = weights[:dmax + 1]
    split = _tail_split(weights, cmax, dmax)
    table = {(w, k) for k, w in enumerate(weights) if k and w <= cmax}
    prefix, k0, w0, s = split
    expanded = {(w, k) for k, w in enumerate(prefix, 1)}
    expanded |= {(w0 + s * (k - k0), k) for k in range(k0, dmax + 1)
                 if w0 + s * (k - k0) <= cmax}
    assert expanded == table
    # the Newton steps use the split on every shorter box too
    for b in range(dmax + 1):
        _check_split(split, weights[:b + 1], cmax, b)


def test_tampered_tail_split_is_rejected():
    weights = LINEAR.table(10)
    split = _tail_split(weights, 12, 10)
    assert split == TailSplit((1,), 2, 3, 1)
    for bad in (split._replace(s=2), split._replace(w0=4),
                split._replace(prefix=()), TailSplit((), 1, 13, 13)):
        with pytest.raises(SolverError, match="tail split"):
            _check_split(bad, weights, 12, 10)
    odd = ODD.table(10)
    assert _tail_split(odd, 12, 10) == TailSplit((), 1, 1, 2)
    with pytest.raises(SolverError, match="tail split"):
        _check_split(TailSplit((), 1, 1, 3), odd, 12, 10)
    # no weight fits the box: the empty run, whose one term x^8 t lies outside
    assert _tail_split(ODD.table(0), 7, 0) == TailSplit((), 1, 8, 8)
    assert _tail_split(odd, 0, 10) == TailSplit((), 1, 1, 1)


# a run that starts late, and a first weight far below the rest
EDGE_RULES = [CodimWeight("late", lambda k: 1 if k < 3 else 2 * k - 5),
              CodimWeight("steep", lambda k: 1 if k == 1 else 5 * k)]


def test_edge_rule_splits():
    late, steep = EDGE_RULES
    assert _tail_split(late.table(8), 8, 8) == TailSplit((1, 1), 3, 1, 2)
    assert _tail_split(steep.table(8), 8, 8) == TailSplit((), 1, 1, 9)


@pytest.mark.parametrize("conv", EDGE_RULES, ids=[r.name for r in EDGE_RULES])
def test_edge_rules_match_naive_sweep(conv):
    test_solver_matches_naive_sweep(conv)


def test_trivial_boxes():
    sol = solve_system("odd", 0, 0)
    assert sol.n1 == BiSeries.one(0, 0)
    sol = solve_system("odd", 3, 0)
    assert sol.n1.coeff(0, 0) == 1
    assert all(sol.n1.coeff(c, 0) == 0 for c in range(1, 4))


# ----------------------------------------------------------------------
# simple configurations
# ----------------------------------------------------------------------

def test_solve_simple_flat_row_matches_n1():
    n4 = solve_simple(0, 10)
    sol = solve_system("odd", 0, 10)
    assert all(n4.coeff(0, d) == sol.n1.coeff(0, d) for d in range(11))


def test_solve_simple_examples():
    n4 = solve_simple(4, 6)
    assert n4.coeff(1, 2) == 4
    assert n4.coeff(2, 3) == 0


def test_solve_simple_matches_closed_form():
    n4 = solve_simple(5, 12)
    for c in range(6):
        for d in range(13):
            assert n4.coeff(c, d) == simple_count(c, d)


def test_solve_simple_matches_naive_fixed_point():
    for cmax in range(7):
        for dmax in range(12):
            one = BiSeries.one(cmax, dmax)
            n4 = one
            while True:
                nxt = one + (n4 ** 4).shift(0, 1) + (n4 ** 8).scale(4).shift(1, 2)
                if nxt == n4:
                    break
                n4 = nxt
            assert solve_simple(cmax, dmax) == n4, (cmax, dmax)


def test_solve_simple_clipped_steps_match_a_deeper_solve():
    deep = solve_simple(4, 24)
    for d in range(25):
        assert solve_simple(4, d) == deep.crop(4, d), d


def test_n1_dominates_n4():
    sol = solve_system("odd", 8, 8)
    n4 = solve_simple(8, 8)
    for c in range(9):
        for d in range(9):
            assert sol.n1.coeff(c, d) >= n4.coeff(c, d)


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------

def test_cache_serves_subboxes():
    clear_cache()
    big = cached_solution("odd", 6, 6)
    again = cached_solution("odd", 3, 3)
    assert again is big


def test_cache_keys_by_weight_table_not_name():
    # same name, different weight rule: the cached odd box must not serve it
    clear_cache()
    assert count_configurations(4, 4, "odd") == ROW_D4["odd"][4]
    renamed = CodimWeight("odd", LINEAR.weight)
    assert count_configurations(4, 4, renamed) == ROW_D4["linear"][4]
    assert count_configurations(4, 4, "odd") == ROW_D4["odd"][4]


def test_cache_serves_rule_agreeing_through_query_degree():
    # a rule that leaves odd only above the query's degree may reuse the box
    clear_cache()
    big = cached_solution("odd", 6, 6)
    late = CodimWeight("odd", lambda k: 2 * k - 1 if k <= 3 else 2 * k)
    assert cached_solution(late, 3, 3) is big
    assert cached_solution(late, 4, 4) is not big


def test_cache_concurrent_readers():
    clear_cache()
    results = []

    def reader():
        results.append(cached_solution("odd", 5, 5).n1.coeff(0, 5))

    threads = [threading.Thread(target=reader) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == [flat_count(5)] * 8


def test_negative_query_rejected():
    with pytest.raises(ValueError):
        count_configurations(-1, 2)


def test_warm_cache_rejects_negative_boxes():
    # a negative dmax makes the weight-table prefix empty, which every
    # cached table starts with: the box is checked before the lookup
    clear_cache()
    cached_solution("odd", 4, 4)
    for cmax, dmax in ((-1, 3), (2, -1)):
        with pytest.raises(ValueError):
            cached_solution("odd", cmax, dmax)


# ----------------------------------------------------------------------
# warm start: a cache miss seeds Newton from a cached n2
# ----------------------------------------------------------------------

@pytest.fixture
def newton_calls(monkeypatch):
    """The seed rows of each _newton call, None for a cold start; a seed
    that fails its first step shows as its row count, then as the rows
    it restarts from."""
    newton, calls = solver._newton, []

    def spy(step, cmax, dmax, seed=None):
        calls.append(None if seed is None else seed.dmax + 1)
        return newton(step, cmax, dmax, seed)

    monkeypatch.setattr(solver, "_newton", spy)
    return calls


SEEDED_RULES = [ODD, LINEAR, RULES[2], RULES[4], EDGE_RULES[0]]


@pytest.mark.parametrize("conv", SEEDED_RULES,
                         ids=[r.name for r in SEEDED_RULES])
def test_seeded_solves_match_cold_solves(conv, newton_calls):
    # a frontier sweep as in a count session, then tall, narrow boxes
    # followed by wide ones, which may seed only from their low rows;
    # solve_system reads the cache but does not fill it, so it solves
    # cold from an empty one
    sweeps = ([(2 * f - 1, f) for f in range(2, 11)],
              [(0, 12), (1, 12), (3, 4), (10, 6), (12, 8), (16, 10)])
    for sweep in sweeps:
        clear_cache()
        colds = [solve_system(conv, *box) for box in sweep]
        assert newton_calls == [None] * len(sweep)
        newton_calls.clear()
        for box, cold in zip(sweep, colds):
            sol = cached_solution(conv, *box)
            assert (sol.n1, sol.n2, sol.n3) == (cold.n1, cold.n2, cold.n3), box
        assert any(p is not None for p in newton_calls)
        newton_calls.clear()
    clear_cache()


@pytest.mark.parametrize("conv", [ODD, LINEAR], ids=["odd", "linear"])
def test_a_bumped_seed_restarts_from_its_exact_rows(conv, newton_calls):
    # a bump in row m leaves the seed's rows < m exact, so the failed
    # step's rows <= m are: the ladder restarts from those m + 1 rows
    # (rungs 2, 3, 5 and 9 on the box (8,8)), after the failed step
    system_step, steps = solver._system_step(
        _tail_split(conv.table(8), 8, 8)), []

    def step(z, e):
        steps.append(e)
        return system_step(z, e)

    clear_cache()
    cold = solve_system(conv, 8, 8)
    cold = cold.n2 - cold.n3                # the root t
    for bump, calls, taken in ((None, [5], 1), ((0, 0), [5, 1], 5),
                               ((0, 1), [5, 2], 4), ((3, 1), [5, 2], 4),
                               ((3, 2), [5, 3], 3), ((8, 4), [5, 5], 2)):
        seed = cold.crop(8, 4)
        if bump:
            seed = seed + BiSeries.monomial(8, 4, *bump)
        newton_calls.clear()
        steps.clear()
        assert solver._newton(step, 8, 8, seed)[0] == cold, bump
        assert newton_calls == calls, bump
        assert len(steps) == taken, bump


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([ODD, LINEAR, SQUARE]), st.integers(0, 10),
       st.integers(1, 9), st.integers(0, 12), st.integers(0, 12))
@example(ODD, 10, 9, 4, 12)                 # a wider cached box
@example(ODD, 3, 9, 10, 12)                 # a narrower one
def test_seed_widens_the_cached_rows_as_a_term_map_does(conv, cm, dm, cmax,
                                                        dmax):
    # the construction that _seed's widening by zero columns replaces:
    # the cropped rows' terms of t = n2 - n3 rebuilt on the query's box
    clear_cache()
    sol = cached_solution(conv, cm, dm)
    weights = tuple(conv.table(dmax))
    seed = solver._seed(conv.name, weights, cmax, dmax)
    clear_cache()
    if seed is None:
        return
    rows = seed.dmax + 1
    assert 2 <= rows <= min(dm + 1, dmax)
    low = (sol.n2 - sol.n3).crop(min(cm, cmax), rows - 1)
    assert seed == BiSeries.from_terms(cmax, rows - 1,
                                       {(c, d): v for c, d, v in low.terms()})


def test_seeded_ladder_climbs_the_rungs_above_the_seed():
    deep = solve_simple(0, 40)
    for dmax in range(2, 41):
        steps = []

        def spy(z, e):
            q = z.dmax + 1
            steps.append((q - e - 1, q))
            return _simple_step(z, e)

        _newton(spy, 0, dmax, BiSeries.one(0, 0))     # n4(x, 0) = 1
        rungs = [q for _, q in steps]
        for p in range(2, dmax + 1):
            steps.clear()
            assert _newton(spy, 0, dmax, deep.crop(0, p - 1)) == \
                (deep.crop(0, dmax), None), (dmax, p)
            chain = [p] + [q for _, q in steps]
            assert steps == list(zip(chain, chain[1:])), (dmax, p)
            assert chain[1:] == [q for q in rungs if q > p], (dmax, p)
            assert all(q <= 2 * p for p, q in steps), (dmax, steps)


def test_cache_never_seeds_from_another_weight_table(newton_calls):
    # the same name with weight(1) = 2: no row past 0 is shared
    other = CodimWeight("odd", lambda k: 2 * k)
    late = CodimWeight("odd", lambda k: 2 * k - 1 if k <= 3 else 2 * k)
    clear_cache()
    cold_other, cold_late = (solve_system(conv, 6, 8) for conv in (other, late))
    cached_solution("odd", 6, 4)
    newton_calls.clear()
    assert cached_solution(other, 6, 8).n2 == cold_other.n2
    assert newton_calls == [None]
    # a rule that leaves odd at k = 4 may take rows d <= 3 of an odd box,
    # not the 7 rows of odd (6,6)
    for dm, seeds in ((6, [None]), (3, [4])):
        clear_cache()
        cached_solution("odd", 6, dm)
        newton_calls.clear()
        sol = cached_solution(late, 6, 8)
        assert (sol.n1, sol.n2, sol.n3) == \
            (cold_late.n1, cold_late.n2, cold_late.n3)
        assert newton_calls == seeds, dm
    clear_cache()
