"""The two searches. The branch-and-bound maximiser: its calls against the
recursive search it replaced, its bounds, its budget and its first-descent
rule. The colorful-face search: its calls against the recursive search of
find_colorful_face it replaced, and its budget."""

import pytest

from genpos import BudgetExceeded, Point
from genpos._kernels import gp_extends
from genpos.complexes import bits_of
from genpos.search import colorful_face, max_extension
from conftest import oracle_gp_number, random_degenerate_points, rng_for


def recorded(log):
    def extends(chosen, h):
        log.append((tuple(chosen), h))
        return gp_extends(chosen, h)

    return extends


def maximise(homs, log, *args, **kwargs):
    """max_extension over homs, item i the one-bit mask 1 << i: its chosen
    mask is read back as the list of homs that recorded(log) checks, so
    the log reads as the recursive search's."""
    extends = recorded(log)

    def on_masks(chosen, item):
        return extends([homs[i] for i in bits_of(chosen)], homs[item.bit_length() - 1])

    return max_extension([1 << i for i in range(len(homs))], on_masks, *args, **kwargs)


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
        for lower in range(best + 1):
            for cap in range(best, len(homs) + 2):
                log = []
                got = maximise(homs, log, d + 1, lower=lower, cap=cap)
                assert got == best
                assert len(log) <= len(full)


def test_cap_returns_at_the_first_set_of_its_size():
    homs = [Point(c).hom for c in ([0, 0], [1, 0], [0, 1], [1, 1], [2, 3])]
    log = []
    assert maximise(homs, log, 3, cap=3) == 3
    assert len(log) == 3


def test_an_optimal_incumbent_is_handed_back():
    homs = [Point([x, 0]).hom for x in range(5)]
    log = []
    # with the rule off, the search proves that no 3 of the 5 collinear
    # points qualify and returns the incumbent
    assert maximise(homs, log, 0, lower=2) == 2
    assert 0 < len(log) <= len(recursive_calls(homs)[1])
    assert maximise([], log, 3) == 0


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


def test_rule_holds_after_a_pruned_first_descent():
    # with the incumbent 3, the first descent keeps a and b, rejects two
    # more points of their line and stops before c: the points it tested lie
    # on that line, and c alone cannot beat the incumbent
    a, b, c = [0, 0, 0], [1, 0, 0], [0, 1, 0]
    homs = [Point(p).hom for p in (a, b, [2, 0, 0], [3, 0, 0], c)]
    for lower in range(4):
        assert maximise(homs, [], 4, lower=lower) == 3
    log = []
    assert maximise(homs, log, 4, lower=3) == 3
    assert len(log) == 4


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
    got = max_extension([1 << i for i in range(6)], lambda chosen, h: log.append(h) or True, 0,
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
    # a bound at the incumbent ends the search right after the first descent
    log, asked = [], []
    assert maximise(grid, log, 3, lower=6,
                         bound=lambda: asked.append(1) or 6) == 6
    assert asked == [1]
    assert all(b[0][: len(a[0])] == a[0] for a, b in zip(log, log[1:]))
    # a first descent that reaches the cap never asks
    asked = []
    assert maximise(grid, [], 3, cap=4,
                         bound=lambda: asked.append(1) or 6) == 4
    assert asked == []


def test_budget_is_checked_on_backtracking():
    grid = [Point([x, y]).hom for x in range(6) for y in range(6)]
    with pytest.raises(BudgetExceeded, match="1000 nodes"):
        maximise(grid, [], 3, node_budget=1000)
    # the budget counts predicate calls: exactly enough of them suffices
    homs = grid[:15]
    log = []
    best = maximise(homs, log, 3)
    assert maximise(homs, [], 3, node_budget=len(log)) == best
    with pytest.raises(BudgetExceeded):
        maximise(homs, [], 3, node_budget=len(log) // 2)
    # a search that never backtracks is never refused
    line = [Point([x]).hom for x in range(50)]
    assert maximise(line, [], 2, node_budget=1) == 50


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
