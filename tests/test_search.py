"""The two searches. The branch-and-bound maximiser: its calls against the
recursive search it replaced, its bounds, its first-descent rule, its
candidate sets against a grow that rules nothing out, and the budgets its
callers charge. The colorful-face search: its calls against the recursive
search of find_colorful_face it replaced, and its budget."""

from math import comb

import pytest

from genpos import BudgetExceeded, Point, matroids
from genpos._kernels import gp_extends
from genpos.complexes import bits_of
from genpos.geometry import gp_number
from genpos.matroids import PartitionMatroid, max_uniform_size
from genpos.search import colorful_face, max_extension
from conftest import oracle_gp_number, random_degenerate_points, rng_for


def recorded(log):
    def extends(chosen, h):
        log.append((tuple(chosen), h))
        return gp_extends(chosen, h)

    return extends


def maximise(homs, log, *args, **kwargs):
    """max_extension over homs, item i the bit 1 << i, with a grow that rules
    nothing out: its chosen mask is read back as the list of homs that
    recorded(log) checks, so the log reads as the recursive search's."""
    extends = recorded(log)

    def grow(chosen, item):
        if extends([homs[i] for i in bits_of(chosen)], homs[item.bit_length() - 1]):
            return 0
        return None

    return max_extension((1 << len(homs)) - 1, grow, *args, **kwargs)


def recursive_calls(homs):
    """Calls of the recursive include-first branch-and-bound, one frame per
    point, that gp_number ran before the explicit stack."""
    log = []
    extends = recorded(log)
    n = len(homs)
    best = 0
    chosen = []

    def rec(i):
        nonlocal best
        if i == n or len(chosen) + (n - i) <= best:
            return
        if extends(chosen, homs[i]):
            chosen.append(homs[i])
            best = max(best, len(chosen))
            rec(i + 1)
            chosen.pop()
        rec(i + 1)

    rec(0)
    return best, log


def distinct_homs(rng, d, n):
    pts = random_degenerate_points(rng, d, n, spread=4)
    return [p.hom for p in dict.fromkeys(pts)]


def test_same_calls_in_the_same_order_as_the_recursion():
    rng = rng_for("search-order")
    for trial in range(60):
        d = 1 + trial % 3
        homs = distinct_homs(rng, d, rng.randint(0, 9))
        best, want = recursive_calls(homs)
        # rank 0 switches the first-descent rule off: every call is made
        log = []
        assert maximise(homs, log, 0) == best
        assert log == want
        # the rule only ever ends the search early
        log = []
        assert maximise(homs, log, d + 1) == best
        assert log == want[: len(log)]


def test_bounds_that_hold_keep_the_answer():
    rng = rng_for("search-bounds")
    for trial in range(40):
        d = 1 + trial % 3
        homs = distinct_homs(rng, d, rng.randint(1, 8))
        best, full = recursive_calls(homs)
        for cap in range(best, len(homs) + 2):
            log = []
            got = maximise(homs, log, d + 1, cap=cap)
            assert got == best
            assert len(log) <= len(full)


def test_cap_returns_at_the_first_set_of_its_size():
    homs = [Point(c).hom for c in ([0, 0], [1, 0], [0, 1], [1, 1], [2, 3])]
    log = []
    assert maximise(homs, log, 3, cap=3) == 3
    assert len(log) == 3


def test_first_descent_settles_flat_inputs():
    # 1,200 points on a line in the plane, 500 on a plane in space: one call
    # per point, then the kept points' hull holds everything
    line = [Point([x, 2 * x + 1]).hom for x in range(1200)]
    log = []
    assert maximise(line, log, 3) == 2
    assert len(log) == 1200
    rng = rng_for("search-plane")
    plane = [Point([a, b, a - b]).hom for a, b in
             {(rng.randint(-50, 50), rng.randint(-50, 50)) for _ in range(600)}]
    log = []
    assert maximise(plane, log, 4) == 3
    assert len(log) == len(plane)
    # no items: nothing to descend into
    assert maximise([], [], 3) == 0


def test_rule_agrees_with_brute_force_on_low_rank_inputs():
    rng = rng_for("search-low-rank")
    for trial in range(30):
        d = 2 + trial % 2
        # points on a random line (d = 2) or plane (d = 3) through the origin
        basis = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d - 1)]
        pts = [Point([sum(rng.randint(-3, 3) * b[t] for b in basis) for t in range(d)])
               for _ in range(rng.randint(1, 8))]
        homs = [p.hom for p in dict.fromkeys(pts)]
        assert maximise(homs, [], d + 1) == oracle_gp_number(pts)


def test_cap_above_the_item_count_is_clamped():
    # every item is accepted, so the first descent takes all six, the most
    # any search can hold; a larger cap changes nothing and the bound is
    # never asked
    log, asked = [], []
    got = max_extension(0b111111, lambda chosen, w: log.append(w) or 0, 0,
                        cap=9, bound=lambda: asked.append(1) or 6)
    assert got == 6 and len(log) == 6 and asked == []


def test_bound_is_asked_once_when_the_first_descent_falls_short():
    # the first descent keeps 4 of the 3 x 3 grid; the bound 6 is the
    # answer, so the search ends at the first 6-set instead of proving it
    # optimal
    grid = [Point([x, y]).hom for x in range(3) for y in range(3)]
    best, full = recursive_calls(grid)
    log, asked = [], []
    assert maximise(grid, log, 3,
                         bound=lambda: asked.append(1) or best) == best == 6
    assert asked == [1]
    assert log == full[: len(log)] and len(log) < len(full)
    # a first descent that reaches the cap never asks
    asked = []
    assert maximise(grid, [], 3, cap=4,
                         bound=lambda: asked.append(1) or 6) == 4
    assert asked == []


def hereditary(rng, n):
    """A random hereditary rule on n items: a set is accepted unless it
    holds one of a few random forbidden sets of 2 to 4 items."""
    forbidden = []
    for _ in range(rng.randint(0, 2 * n)):
        size = min(n, rng.randint(2, 4))
        forbidden.append(sum(1 << i for i in rng.sample(range(n), size)))

    def accepts(s):
        return not any(f & s == f for f in forbidden)

    return accepts


def test_ruling_out_keeps_the_size_and_saves_calls():
    # an eager grow rules out every candidate that chosen | w rejects; the
    # search then gets the lazy grow's size, and never asks more often
    rng = rng_for("search-candidates")
    for trial in range(200):
        n = rng.randint(0, 12)
        accepts = hereditary(rng, n)
        items = (1 << n) - 1
        lazy_log, eager_log = [], []

        def lazy(chosen, w):
            lazy_log.append(w)
            return 0 if accepts(chosen | w) else None

        def eager(chosen, w):
            eager_log.append(w)
            chosen |= w
            if not accepts(chosen):
                return None
            return sum(1 << i for i in range(n) if not accepts(chosen | 1 << i))

        want = max(s.bit_count() for s in range(1 << n) if accepts(s))
        # rank 0 switches the first-descent rule off, as for any rule that
        # is not a matroid's independence test
        for cap in (None, rng.randint(0, n + 1)):
            lazy_log.clear()
            eager_log.clear()
            got = max_extension(items, lazy, 0, cap=cap)
            assert got == max_extension(items, eager, 0, cap=cap)
            assert got == (want if cap is None else min(want, cap))
            assert len(eager_log) <= len(lazy_log)


def test_gp_number_checks_its_budget_at_every_grow():
    # the 3 x 3 grid's first point lies on 3 lines (its row, its column and
    # a diagonal): with 2 nodes left after the index's C(9, 2), the first
    # grow is refused, before any backtracking
    grid = [Point([x, y]) for x in range(3) for y in range(3)]
    assert gp_number(grid) == 6
    with pytest.raises(BudgetExceeded, match="^search exceeds 38 nodes$"):
        gp_number(grid, node_budget=comb(9, 2) + 2)


def test_max_uniform_size_charges_every_query_it_asks(monkeypatch):
    # four blocks of three: the search backtracks, and each grow charges
    # one query below rank 4, C(k, 3) once k = 4 elements are chosen
    oracle = PartitionMatroid([range(i, i + 3) for i in range(0, 12, 3)])
    charges = []
    real = matroids.max_extension

    def spy(items, grow, r, *args, **kw):
        def counted(chosen, w):
            k = chosen.bit_count()
            charges.append(1 if k < r else comb(k, r - 1))
            return grow(chosen, w)

        return real(items, counted, r, *args, **kw)

    monkeypatch.setattr(matroids, "max_extension", spy)
    assert max_uniform_size(oracle) == 4
    need = sum(charges)
    assert need > 12  # more grows than elements: it backtracked
    monkeypatch.setattr(matroids, "DEFAULT_NODE_BUDGET", need)
    assert max_uniform_size(oracle) == 4
    monkeypatch.setattr(matroids, "DEFAULT_NODE_BUDGET", need - 1)
    with pytest.raises(BudgetExceeded, match="^search exceeds %d nodes$" % (need - 1)):
        max_uniform_size(oracle)


def recursive_colorful_calls(blocks):
    """Calls, and the answer, of the recursive depth-first search, one frame
    per block, that find_colorful_face ran before the explicit stack."""
    log = []
    extends = recorded(log)
    chosen, picked = [], []

    def rec(i):
        if i == len(blocks):
            return True
        for j, h in enumerate(blocks[i]):
            if extends(chosen, h):
                chosen.append(h)
                picked.append(j)
                if rec(i + 1):
                    return True
                chosen.pop()
                picked.pop()
        return False

    return (picked if rec(0) else None), log


def test_colorful_calls_in_the_same_order_as_the_recursion():
    rng = rng_for("colorful-order")
    for trial in range(80):
        d = 1 + trial % 3
        blocks = [distinct_homs(rng, d, rng.randint(1, 4)) for _ in range(rng.randint(1, 5))]
        want, want_log = recursive_colorful_calls(blocks)
        log = []
        assert colorful_face(blocks, recorded(log)) == want
        assert log == want_log


def test_colorful_edge_cases():
    log = []
    assert colorful_face([], recorded(log)) == []
    # an empty block answers at once, whatever the other blocks hold
    line = [Point([x, 0]).hom for x in range(100)]
    assert colorful_face([line, line, line, []], recorded(log), node_budget=0) is None
    assert log == []


def test_colorful_budget_is_checked_on_backtracking():
    # four copies of ten collinear points: no colorful face
    line = [Point([x, 2 * x + 1]).hom for x in range(10)]
    log = []
    assert colorful_face([line] * 4, recorded(log)) is None
    assert len(log) > 100
    with pytest.raises(BudgetExceeded, match="^colorful-face search exceeds 100 nodes$"):
        colorful_face([line] * 4, recorded([]), node_budget=100)
    # the budget counts predicate calls: exactly enough of them suffices
    assert colorful_face([line] * 4, recorded([]), node_budget=len(log)) is None
    with pytest.raises(BudgetExceeded):
        colorful_face([line] * 4, recorded([]), node_budget=len(log) - 1)
    # a search that never backtracks is never refused
    parabola = [Point([t, t * t]).hom for t in range(64)]
    blocks = [parabola[i:i + 8] for i in range(0, 64, 8)]
    log = []
    assert colorful_face(blocks, recorded(log), node_budget=0) == [0] * 8
    assert len(log) == 8
