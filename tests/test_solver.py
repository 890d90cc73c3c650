"""Bounds, the subfamily size condition, the three solvers, the insufficiency
construction, and the complexes attached to a configuration."""

import hashlib
import io
import json
import os
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction as F
from itertools import combinations
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genpos import (
    BudgetExceeded,
    ConstructionError,
    DimensionMismatch,
    Point,
    PointFamily,
    PointMultiset,
    bound_table,
    check_condition,
    completion,
    connectivity_bound,
    counterexample_family,
    extension_bound,
    find_colorful_face,
    general_position_complex,
    gp_number,
    greedy_bound,
    in_general_position,
    independence_complex,
    representative_bound,
    skeleton,
    solve_exhaustive,
    solve_greedy,
    solve_matroid_intersection,
    uniform_connectivity_bound,
)
from genpos import cli, geometry, solver
from genpos.complexes import bits_of
from genpos.geometry import FlatIndex
from genpos.jsonio import family_from_doc, family_to_doc, result_to_doc
from genpos.solver import SgprResult
from conftest import (
    oracle_gp,
    oracle_gp_number,
    oracle_sgpr,
    planted_points,
    random_degenerate_points,
    random_gp_points,
    rng_for,
)


def family_of(d, *coord_sets):
    return PointFamily(d=d, sets=[PointMultiset([Point(c) for c in cs], d=d) for cs in coord_sets])


def random_family(rng, d, m, min_size=1, max_size=4, degenerate=True):
    sets = []
    for _ in range(m):
        size = rng.randrange(min_size, max_size + 1)
        if degenerate and rng.random() < 0.5:
            pts = random_degenerate_points(rng, d, size)
        else:
            pts = random_gp_points(rng, d, size)
        sets.append(PointMultiset(pts, d=d))
    return PointFamily(d=d, sets=sets)


def collinear_family():
    """Four sets, each the same ten collinear points in the plane: no system
    exists, and proving it takes the search about a thousand predicate
    calls."""
    line = [[t, 2 * t + 1] for t in range(10)]
    return family_of(2, line, line, line, line)


def hall_family():
    """Four copies of {0..4} and two of {100} in d = 1: the two {100} sets
    rule out any system, but the union of all six holds six points, so it
    meets Hall's condition; the search proves that no system exists in
    about 670 predicate calls."""
    five = [[t] for t in range(5)]
    return family_of(1, five, five, five, five, [[100]], [[100]])


def parabola_family(sets, size):
    """``sets`` sets of ``size`` consecutive points of a parabola, all in
    general position together: the first pick of each set works."""
    pts = [[t, t * t] for t in range(sets * size)]
    return family_of(2, *[pts[i * size:(i + 1) * size] for i in range(sets)])


@st.composite
def planted_families(draw, max_sets=4):
    """planted_points dealt into 1..max_sets sets, in order; a set may be
    empty."""
    d, pts = draw(planted_points())
    m = draw(st.integers(1, max_sets))
    owner = draw(st.lists(st.integers(0, m - 1), min_size=len(pts), max_size=len(pts)))
    sets = [[p for p, o in zip(pts, owner) if o == i] for i in range(m)]
    return PointFamily(d=d, sets=[PointMultiset(X, d=d) for X in sets])


class TestBounds:
    def test_extension_bound_small_k_is_identity(self):
        for d in (1, 2, 3):
            for k in range(1, d + 2):
                assert extension_bound(d, k) == k

    def test_extension_bound_formula(self):
        assert extension_bound(2, 4) == 7
        assert extension_bound(1, 3) == 3
        assert extension_bound(2, 5) == 13
        assert extension_bound(3, 10) == 3 * comb(9, 3) + 1

    def test_greedy_bound(self):
        assert greedy_bound(2, 4) == 25
        assert greedy_bound(1, 3) == 7
        assert greedy_bound(1, 1) == 1

    def test_connectivity_bound(self):
        assert connectivity_bound(2, 1) == 3
        assert connectivity_bound(2, 2) == 31
        assert connectivity_bound(2, 3) == 57
        assert connectivity_bound(2, 4) == 91
        for k in range(-1, 8):
            assert connectivity_bound(1, k) == k + 2

    def test_representative_bound(self):
        assert representative_bound(2, 4) == 31
        for k in range(1, 9):
            assert representative_bound(1, k) == k

    def test_uniform_connectivity_bound(self):
        for k in range(-1, 6):
            assert uniform_connectivity_bound(2, k) == 2 * k + 3
        assert uniform_connectivity_bound(3, 1) == 13

    def test_validation(self):
        with pytest.raises(ValueError):
            extension_bound(0, 1)
        with pytest.raises(ValueError):
            extension_bound(2, 0)
        with pytest.raises(ValueError):
            connectivity_bound(2, -2)
        with pytest.raises(ValueError):
            representative_bound(2, 0)
        with pytest.raises(ValueError):
            uniform_connectivity_bound(1, 0)

    def test_bound_table(self):
        table = bound_table([1, 2], range(1, 5))
        assert len(table.rows) == 8
        row = next(r for r in table.rows if r["d"] == 2 and r["k"] == 4)
        assert row["A"] == 7 and row["B"] == 25
        assert row["g_upper"] == 91 and row["f_upper"] == 31
        assert row["r"] == 3 and row["h_upper"] == uniform_connectivity_bound(3, 4)


class TestPointFamily:
    def test_coerces_and_validates(self):
        fam = PointFamily(d=1, sets=[[[1]], [[2], [3]]])
        assert fam.m == 2
        assert fam.sets[1][0] == Point([2])
        with pytest.raises(ValueError):
            PointFamily(d=2, sets=[[[1]]])
        with pytest.raises(ValueError):
            PointFamily(d=1, sets=[])

    def test_union_and_cache(self):
        fam = family_of(1, [[0], [1]], [[1], [2]])
        assert len(fam.union_points()) == 4
        assert fam.gp_number_of_union((0, 1)) == 3
        assert frozenset((0, 1)) in fam._gp_cache
        # cached value is reused for any ordering of the same indices
        assert fam.gp_number_of_union((1, 0)) == 3


class TestCheckCondition:
    def test_holds(self):
        fam = family_of(1, [[0], [1]], [[2], [3]])
        report = check_condition(fam, bound=lambda k: k)
        assert report.holds
        assert report.first_violation is None
        assert len(report.checks) == 3
        assert all(c.ok for c in report.checks)

    def test_violation_identified(self):
        fam = family_of(1, [[0]], [[0]])
        report = check_condition(fam, bound=lambda k: k)
        assert not report.holds
        v = report.first_violation
        assert v.indices == (0, 1)
        assert v.gp_number == 1 and v.required == 2

    def test_stop_early_truncates(self):
        fam = family_of(1, [[0]], [[0]], [[5]])
        full = check_condition(fam, bound=lambda k: 3 * k)
        early = check_condition(fam, bound=lambda k: 3 * k, stop_early=True)
        assert not full.holds and not early.holds
        assert len(early.checks) < len(full.checks)
        assert early.first_violation == full.first_violation

    def test_sampled_mode(self):
        fam = family_of(1, [[0], [4]], [[1], [5]], [[2], [6]], [[3], [7]])
        a = check_condition(fam, bound=lambda k: k, mode="sampled", samples=9, rng=rng_for("cc"))
        b = check_condition(fam, bound=lambda k: k, mode="sampled", samples=9, rng=rng_for("cc"))
        assert a.holds and b.holds
        assert [c.indices for c in a.checks] == [c.indices for c in b.checks]
        assert len(a.checks) == 9

    def test_sampled_needs_rng(self):
        fam = family_of(1, [[0]])
        with pytest.raises(ValueError):
            check_condition(fam, bound=lambda k: k, mode="sampled")

    @pytest.mark.parametrize("samples", [0, -1])
    def test_sampled_needs_a_sample(self, samples):
        # no check at all must not read as "holds": this family violates Hall
        fam = family_of(1, [[0]], [[0]], [[1]])
        assert not check_condition(fam, bound=lambda k: k).holds
        with pytest.raises(ValueError, match="at least 1 sample"):
            check_condition(fam, bound=lambda k: k, mode="sampled", samples=samples,
                            rng=rng_for("no-samples"))

    def test_unknown_mode(self):
        fam = family_of(1, [[0]])
        with pytest.raises(ValueError):
            check_condition(fam, bound=lambda k: k, mode="everything")

    def test_all_subsets_budget(self):
        fam = family_of(1, *[[[i]] for i in range(12)])
        with pytest.raises(BudgetExceeded):
            check_condition(fam, bound=lambda k: k, subset_budget=100)

    def test_sampled_budget(self):
        # the subfamilies drawn count against the budget as in all-subsets
        # mode, refused before any is checked
        fam = family_of(1, *[[[i]] for i in range(12)])
        with pytest.raises(BudgetExceeded, match="^sampled mode would check 500 subfamilies"):
            check_condition(fam, bound=lambda k: k, mode="sampled", samples=500,
                            rng=rng_for("sampled-budget"), subset_budget=10)
        assert fam._gp_cache == {}
        report = check_condition(fam, bound=lambda k: k, mode="sampled", samples=10,
                                 rng=rng_for("sampled-budget"), subset_budget=10)
        assert len(report.checks) == 10


def planted_family(rng, d, m):
    """Small family (unions of at most 10 points) drawn from one pool with
    repeated points, points on lines through two pool points and, in d = 3,
    points on planes through three; sets share points."""
    pool = random_degenerate_points(rng, d, 6, spread=4)
    if d == 3:
        for _ in range(2):
            a, b, c = rng.sample(pool, 3)
            s, t = F(rng.randint(-2, 2), 2), F(rng.randint(-2, 2), 3)
            pool.append(Point([x + s * (y - x) + t * (z - x)
                               for x, y, z in zip(a.coords, b.coords, c.coords)]))
    most = 10 // m
    sets = [rng.sample(pool, rng.randint(1, min(most, len(pool)))) for _ in range(m)]
    return PointFamily(d=d, sets=[PointMultiset(X, d=d) for X in sets])


class TestWarmStart:
    def test_every_check_matches_brute_force(self, monkeypatch):
        # all-subsets mode warm-starts each union from its sub-unions;
        # sampled mode mostly finds no cached sub-union and runs cold
        calls = self.spy(monkeypatch)
        rng = rng_for("warm-start")
        oracle = {}
        for trial in range(36):
            d = 1 + trial % 3
            m = rng.randint(2, 4)
            fam = planted_family(rng, d, m)
            bound = lambda k: k + 1
            reports = [check_condition(fam, bound)]
            fresh = PointFamily(d=d, sets=fam.sets)
            reports.append(check_condition(fresh, bound, mode="sampled", samples=5,
                                           rng=rng_for("warm-sampled", trial)))
            for report in reports:
                for c in report.checks:
                    pts = fam.union_points(c.indices)
                    key = tuple(p.hom for p in pts)
                    if key not in oracle:
                        oracle[key] = oracle_gp_number(pts)
                    assert c.gp_number == oracle[key], (trial, c.indices)
                    assert c.ok == (c.gp_number >= bound(len(c.indices)))
        assert any(lower for lower, _ in calls) and any(cap for _, cap in calls)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_grid_row_unions_have_closed_form(self, n):
        # every union of r rows of the n x n grid holds 2r points in general
        # position: two per row, and no more
        fam = PointFamily(d=2, sets=[[[x, y] for x in range(n)] for y in range(n)])
        report = check_condition(fam, bound=lambda k: 2 * k)
        assert report.holds and len(report.checks) == 2**n - 1
        assert all(c.gp_number == 2 * len(c.indices) for c in report.checks)

    def spy(self, monkeypatch):
        calls = []
        real = solver.gp_number

        def gp_number(X, node_budget=None, *, lower=0, cap=None, index=None):
            calls.append((lower, cap))
            return real(X, node_budget, lower=lower, cap=cap, index=index)

        monkeypatch.setattr(solver, "gp_number", gp_number)
        return calls

    def test_cap_closes_the_search_at_once(self, monkeypatch):
        # two general-position sets whose union is in general position: the
        # cap gp(X_0) + gp(X_1) is met by the free points alone, with no
        # search and no gp_extends call
        pts = random_gp_points(rng_for("cap-closes"), 2, 7)
        fam = PointFamily(d=2, sets=[pts[:3], pts[3:]])
        calls = self.spy(monkeypatch)
        extends = []
        monkeypatch.setattr(
            "genpos.geometry.gp_extends",
            lambda rows, new, real=solver.gp_extends: extends.append(1) or real(rows, new),
        )
        searched = spy_search(monkeypatch)
        assert fam.gp_number_of_union((0,)) == 3
        assert fam.gp_number_of_union((1,)) == 4
        assert fam.gp_number_of_union((0, 1)) == 7
        assert calls[-1] == (4, 7)
        assert extends == [] and searched == []

    def test_cap_counts_the_free_points(self, monkeypatch):
        # a row of four and a point off it: the union's search covers only
        # the row, and the cap gp(X_0) + gp(X_1) = 3, less the free point,
        # ends its first descent at two points
        fam = family_of(2, [[0, 0], [1, 0], [2, 0], [3, 0]], [[1, 5]])
        assert fam.gp_number_of_union((0,)) == 2
        assert fam.gp_number_of_union((1,)) == 1
        searched = spy_search(monkeypatch)
        assert fam.gp_number_of_union((0, 1)) == 3
        assert searched == [[], [1]]

    def test_one_index_per_family(self, monkeypatch):
        builds = []
        real = FlatIndex.build
        monkeypatch.setattr(FlatIndex, "build",
                            lambda index, budget=None: builds.append(real(index, budget)) or builds[-1])
        fam = PointFamily(d=2, sets=[[[x, y] for x in range(4)] for y in range(4)])
        assert check_condition(fam, lambda k: 2 * k).holds
        assert [cost for cost in builds if cost] == [comb(16, 2)]

    def test_lower_alone_when_no_singleton_is_cached(self, monkeypatch):
        # only X_{0,1} is cached: it bounds X_{0,1,2} from below, and no cap
        # can be formed without a cached singleton
        fam = family_of(2, [[0, 0], [1, 0]], [[2, 0], [0, 1]], [[3, 0], [1, 1], [2, 2]])
        calls = self.spy(monkeypatch)
        assert fam.gp_number_of_union((0, 1)) == 3
        assert fam.gp_number_of_union((0, 1, 2)) == 5
        assert calls == [(0, None), (3, None)]
        assert oracle_gp_number(fam.union_points()) == 5

    def test_lower_is_the_answer(self, monkeypatch):
        # a third set adding only points on the line of the first two: the
        # incumbent from X_{0,1} is optimal, and the search returns it
        fam = family_of(2, [[0, 0], [1, 0]], [[2, 0], [3, 0]], [[4, 0], [5, 0]])
        calls = self.spy(monkeypatch)
        report = check_condition(fam, bound=lambda k: 2)
        assert [c.gp_number for c in report.checks] == [2] * 7
        assert calls[-1] == (2, 4)

    def test_node_budget_reaches_each_union(self):
        grid = [[x, y] for x in range(6) for y in range(6)]
        with pytest.raises(BudgetExceeded):
            check_condition(PointFamily(d=2, sets=[grid]), bound=lambda k: k,
                            subset_budget=1000)
        # greedy searches each set only up to extension_bound(2, m): with
        # m = 5 that is 13, past the grid's 12, so its search is a full one
        with pytest.raises(BudgetExceeded):
            solve_greedy(PointFamily(d=2, sets=[grid] + [grid[:3]] * 4), node_budget=1000)
        fam = PointFamily(d=2, sets=[grid[:6], grid[6:12]])
        assert check_condition(fam, bound=lambda k: 2 * k, subset_budget=1000).holds
        assert fam.node_budget == 1000

    def test_unions_indexed_alone_when_the_family_index_is_over_budget(self):
        # 19 distinct points: the family's index needs C(19, 2) = 171 nodes,
        # over the budget, while each union of two sets fits in it
        rng = rng_for("family-index-over-budget")
        fam = PointFamily(d=2, sets=[random_degenerate_points(rng, 2, 6) for _ in range(4)],
                          node_budget=100)
        assert FlatIndex(list({p.hom for p in fam.union_points()}), 2).tuples() > 100
        for size in (1, 2):
            for combo in combinations(range(4), size):
                assert fam.gp_number_of_union(combo) == oracle_gp_number(fam.union_points(combo))
        with pytest.raises(BudgetExceeded):
            fam.gp_number_of_union(range(4))


def lines2(a, layers):
    # layer z: a points on the row y = z and a on the slope-1 line y = x + z
    return [[(x, z) for x in range(a)] + [(x, x + z) for x in range(a)] for z in range(layers)]


def spy_search(monkeypatch):
    """Log the chosen set of every predicate call that gp_number's search
    makes, as the list of its one-bit masks."""
    calls = []
    real = geometry.max_extension

    def max_extension(items, extends, *args, **kwargs):
        def logged(chosen, w):
            calls.append([1 << i for i in bits_of(chosen)])
            return extends(chosen, w)

        return real(items, logged, *args, **kwargs)

    monkeypatch.setattr(geometry, "max_extension", max_extension)
    return calls


def union_cover(fam, combo):
    """Line cover of a union, from a flat index over the family's points,
    with the union's free points (as the search sees them) split off."""
    index = FlatIndex(list(dict.fromkeys(p.hom for p in fam.union_points())), fam.d)
    index.build()
    mask = 0
    for p in fam.union_points(combo):
        mask |= 1 << index.pos[p.hom]
    crowded = index.crowded(mask)
    return index.cover(mask), (mask & ~crowded).bit_count() + index.cover(crowded)


class TestLineCover:
    def test_cover_bounds_every_union(self):
        rng = rng_for("line-cover")
        oracle = {}
        for trial in range(30):
            d = 2 + trial % 2
            fam = planted_family(rng, d, rng.randint(2, 4))
            for size in range(1, fam.m + 1):
                for combo in combinations(range(fam.m), size):
                    pts = fam.union_points(combo)
                    key = tuple(p.hom for p in pts)
                    if key not in oracle:
                        oracle[key] = oracle_gp_number(pts)
                    for cover in union_cover(fam, combo):
                        assert oracle[key] <= cover <= len(set(pts)), (trial, combo)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_grid_row_unions_are_covered_tightly(self, n):
        # a row holds the most points left while one remains, so r rows
        # get 2 each
        fam = PointFamily(d=2, sets=[[[x, y] for x in range(n)] for y in range(n)])
        for size in range(1, n + 1):
            for combo in combinations(range(n), size):
                assert union_cover(fam, combo) == (2 * size, 2 * size)

    def test_one_set_is_capped_by_its_cover(self):
        # no sub-union warm-starts a single set; the cover 12 of the 6 x 6
        # grid ends the search at the first 12-set, well within the budget
        grid = [[x, y] for x in range(6) for y in range(6)]
        fam = PointFamily(d=2, sets=[grid], node_budget=10**5)
        assert union_cover(fam, (0,)) == (12, 12)
        assert fam.gp_number_of_union((0,)) == 12

    def test_an_optimal_incumbent_closes_after_the_first_descent(self, monkeypatch):
        # on the lines2 3 x 3 family, X_{0,1} already holds 6 points in
        # general position and so does the whole union; without the cover,
        # proving that takes 478 gp_extends calls
        fam = PointFamily(d=2, sets=lines2(3, 3))
        for combo in ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2)):
            fam.gp_number_of_union(combo)
        calls = spy_search(monkeypatch)
        # gp(X_{0,1}) = 6 is the incumbent, and the union's 12 distinct
        # points lie on the three columns x = 0, 1, 2, so the cover is 6
        assert fam._gp_cache[frozenset((0, 1))] == 6
        assert union_cover(fam, (0, 1, 2)) == (6, 6)
        assert fam.gp_number_of_union((0, 1, 2)) == 6
        # one descent: each call's chosen set extends the one before
        assert calls and all(b[: len(a)] == a for a, b in zip(calls, calls[1:]))


@settings(max_examples=40, deadline=None)
@given(planted_points(), st.data())
def test_union_gp_numbers_match_oracle(case, data):
    # the points dealt into up to four sets; every union's gp_number, from
    # the family's one index, against brute force
    d, pts = case
    m = data.draw(st.integers(1, 4))
    owner = data.draw(st.lists(st.integers(0, m - 1), min_size=len(pts), max_size=len(pts)))
    sets = [X for X in ([p for p, o in zip(pts, owner) if o == i] for i in range(m)) if X]
    fam = PointFamily(d=d, sets=[PointMultiset(X, d=d) for X in sets])
    oracle = {}
    for c in check_condition(fam, lambda k: k).checks:
        key = frozenset(fam.union_points(c.indices))
        if key not in oracle:
            oracle[key] = oracle_gp_number(list(key))
        assert c.gp_number == oracle[key], c.indices


@st.composite
def shared_point_families(draw, dims=(2, 3), max_distinct=8, picks=(1, 5)):
    """Families in d = 2 or 3 (or dims) over one planted pool: each set
    draws 1 to 5 (or picks) points of the pool in its own order, repeats
    allowed, and one set is empty."""
    d, pool = draw(planted_points(dims=dims, max_distinct=max_distinct))
    pick = st.lists(st.sampled_from(pool), min_size=picks[0], max_size=picks[1])
    sets = draw(st.lists(pick, min_size=1, max_size=3))
    sets.insert(draw(st.integers(0, len(sets))), [])
    return PointFamily(d=d, sets=[PointMultiset(X, d=d) for X in sets])


@settings(max_examples=60, deadline=None)
@given(shared_point_families(), st.randoms(use_true_random=False))
def test_unions_of_shared_points_match_oracle(fam, rnd):
    # every union, asked in a random order so warm starts vary, from the
    # OR of its sets' masks over the family's index, against brute force
    combos = [c for k in range(1, fam.m + 1) for c in combinations(range(fam.m), k)]
    rnd.shuffle(combos)
    for combo in combos:
        distinct = list(dict.fromkeys(fam.union_points(combo)))
        assert fam.gp_number_of_union(combo) == oracle_gp_number(distinct), combo


@settings(max_examples=60, deadline=None)
@given(shared_point_families(), st.sampled_from(sorted(cli._BOUND_FORMS)), st.booleans())
def test_threshold_checks_agree_with_exact_ones(fam, name, stop_early):
    # each union searched only up to its requirement, under check's hall,
    # greedy and g bounds: the same verdict, the same checks and the same
    # (exact) first violation; a passing check holds a value between its
    # requirement and the union's gp_number
    bound = cli._BOUND_FORMS[name](fam.d)
    exact = check_condition(PointFamily(d=fam.d, sets=fam.sets), bound, stop_early=stop_early)
    capped = check_condition(PointFamily(d=fam.d, sets=fam.sets), bound, stop_early=stop_early,
                             exact=False)
    assert capped.holds == exact.holds
    assert len(capped.checks) == len(exact.checks)
    assert capped.first_violation == exact.first_violation
    for c, e in zip(capped.checks, exact.checks):
        assert (c.indices, c.required, c.ok) == (e.indices, e.required, e.ok)
        if c.ok:
            assert c.required <= c.gp_number <= e.gp_number
        else:
            assert c.gp_number == e.gp_number


@settings(max_examples=60, deadline=None)
@given(shared_point_families(), st.randoms(use_true_random=False))
def test_lower_bounds_never_leak_into_exact_answers(fam, rnd):
    # threshold queries at random requirements first, in a random order,
    # then exact ones in another: every answer below its requirement, every
    # cached value and every exact answer is the union's gp_number
    combos = [c for k in range(1, fam.m + 1) for c in combinations(range(fam.m), k)]
    oracle = {c: oracle_gp_number(list(dict.fromkeys(fam.union_points(c)))) for c in combos}
    rnd.shuffle(combos)
    for combo in combos:
        req = rnd.randint(0, oracle[combo] + 1)
        got = fam.capped_gp_number_of_union(combo, req)
        assert got == oracle[combo] if got < req else req <= got <= oracle[combo], combo
    assert all(got == oracle[tuple(sorted(key))] for key, got in fam._gp_cache.items())
    rnd.shuffle(combos)
    for combo in combos:
        assert fam.gp_number_of_union(combo) == oracle[combo], combo


def test_a_lower_bound_is_no_cap():
    # two 3 x 3 grids, each holding 6 points in general position, asked
    # only for 2: were those bounds taken as exact, they would cap the
    # union's 10 at 2 + 2
    fam = PointFamily(d=2, sets=[[[x, y] for x in range(3) for y in range(3)],
                                 [[x, y] for x in range(3, 6) for y in range(3, 6)]])
    assert fam.capped_gp_number_of_union((0,), 2) == 2
    assert fam.capped_gp_number_of_union((1,), 2) == 2
    assert fam._gp_cache == {}
    assert fam.gp_number_of_union((0, 1)) == oracle_gp_number(fam.union_points()) == 10
    # once exact, a singleton answers every threshold from the cache
    assert fam.gp_number_of_union((0,)) == 6
    assert fam.capped_gp_number_of_union((0,), 2) == 6


@settings(max_examples=80, deadline=None)
@given(shared_point_families(dims=(1, 3), max_distinct=10, picks=(2, 8)),
       st.randoms(use_true_random=False))
def test_witnesses_settle_thresholds_soundly(fam, rnd):
    # threshold queries, at requirements up to two past the answer or one
    # below the union's distinct points, each on a fresh family, where a
    # greedy witness may settle it before any index is built, and on one
    # family in turn: one met is met by the union, one missed gives the
    # union's gp_number; exact queries after them stay exact
    combos = [c for k in range(1, fam.m + 1) for c in combinations(range(fam.m), k)]
    union = {c: list(dict.fromkeys(fam.union_points(c))) for c in combos}
    oracle = {c: oracle_gp_number(union[c]) for c in combos}
    rnd.shuffle(combos)
    for combo in combos:
        req = rnd.randint(1, max(oracle[combo] + 2, len(union[combo]) - 1))
        for family in (PointFamily(d=fam.d, sets=fam.sets), fam):
            got = family.capped_gp_number_of_union(combo, req)
            assert req <= got <= oracle[combo] if got >= req else got == oracle[combo], combo
    rnd.shuffle(combos)
    for combo in combos:
        assert fam.gp_number_of_union(combo) == oracle[combo], combo


class TestWitness:
    def spy_rows(self, monkeypatch):
        """Log the prefix rows of every gp_extends call the solver makes."""
        rows = []
        real = solver.gp_extends
        monkeypatch.setattr(solver, "gp_extends",
                            lambda chosen, new: rows.append(len(chosen)) or real(chosen, new))
        return rows

    def test_greedy_solve_builds_no_index(self):
        # five sets sharing greedy_bound(2, 5) + 2 parabola points, one more
        # point each: a witness of extension_bound(2, 5) = 13 points settles
        # each set's size
        ts = rng_for("witness-greedy").sample(range(-70, 70), greedy_bound(2, 5) + 2)
        pool = [[t, t * t] for t in ts]
        fam = family_of(2, *[pool + [[t, t * t]] for t in range(70, 75)])
        assert solve_greedy(fam).status == "found"
        assert fam._index.flats is None

    def test_a_witness_at_an_exact_cap_is_exact(self):
        # two rows of the 4 x 4 grid: each row's 2 is exact (its affine
        # rank), so their union is capped at 4 below the requirement 5, and a
        # witness of 4 points is the union's gp_number
        fam = PointFamily(d=2, sets=[[[x, y] for x in range(4)] for y in range(2)])
        assert fam.capped_gp_number_of_union((0,), 3) == 2
        assert fam.capped_gp_number_of_union((1,), 3) == 2
        assert fam.capped_gp_number_of_union((0, 1), 5) == 4
        assert fam._gp_cache[frozenset((0, 1))] == 4
        assert fam._index.flats is None

    def test_a_witness_stops_once_it_cannot_reach_its_cap(self, monkeypatch):
        # six points on a line, asked for 5: after two kept and two
        # rejected, the two points left cannot make 5
        rows = self.spy_rows(monkeypatch)
        fam = family_of(2, [[t, 2 * t + 1] for t in range(6)])
        assert fam.capped_gp_number_of_union((0,), 5) == 2
        assert rows == [0, 1, 2, 2]

    @pytest.mark.parametrize("node_budget, limit", [(None, 276), (100, 100)])
    def test_witnesses_stop_at_the_spending_limit(self, monkeypatch, node_budget, limit):
        # four sets of 6 parabola points: the family's index holds
        # C(24, 2) = 276 tuples, and witnesses may examine as many prefix
        # rows as the smaller of that and the node budget. Each pair asks
        # for 11 of its 12 points, 55 rows, so the pairs pass the limit;
        # past it every union is still answered, by gp_number.
        rows = self.spy_rows(monkeypatch)
        fam = family_of(2, *[[[t, t * t] for t in range(6 * i, 6 * i + 6)] for i in range(4)])
        fam.node_budget = node_budget
        spent, calls = [], []
        for size in (1, 2):
            for combo in combinations(range(4), size):
                n = 6 * size
                assert n - 1 <= fam.capped_gp_number_of_union(combo, n - 1) <= n
                spent.append(sum(rows))
                calls.append(len(rows))
        assert fam._index.tuples() == 276
        assert fam._witness_rows == sum(rows) <= limit
        # the limit was reached, and then no witness ran
        assert spent[-1] > limit - 12 and calls[-1] == calls[-2]
        # built once the witnesses stopped, unless over the node budget
        assert (fam._index.flats is None) == (node_budget is not None)
        for size in (1, 2):
            for combo in combinations(range(4), size):
                assert fam.gp_number_of_union(combo) == 6 * size


def test_general_position_unions_are_counted_without_search(monkeypatch):
    # every union of sets in general position together: all points are
    # free, so no union searches
    searched = spy_search(monkeypatch)
    rng = rng_for("free-unions")
    for d in (1, 2, 3, 4):
        pts = random_gp_points(rng, d, 10, spread=12)
        fam = PointFamily(d=d, sets=[pts[:3], pts[3:5], pts[5:], pts[2:6]])
        report = check_condition(fam, lambda k: k)
        assert all(c.gp_number == len(set(fam.union_points(c.indices))) for c in report.checks)
        # the greedy solver's per-set sizes take the same path
        solve_greedy(PointFamily(d=d, sets=fam.sets))
    assert searched == []


class TestSolveGreedy:
    def test_simple_success(self):
        fam = family_of(1, [[5]], [[5], [7]])
        res = solve_greedy(fam)
        assert res.status == "found"
        assert res.representatives == ((0, Point([5])), (1, Point([7])))
        assert in_general_position(res.points())

    def test_condition_violated_certificate(self):
        fam = family_of(1, [[0]], [[0]])
        res = solve_greedy(fam)
        assert res.status == "condition_violated"
        v = res.violation
        assert v.indices == (0, 1)
        assert v.gp_number == 1
        assert v.required == greedy_bound(1, 2)
        assert not v.ok

    def test_certificate_is_genuine(self):
        # whenever the greedy route reports a violation, the named subfamily
        # really does fall below the greedy threshold
        rng = rng_for("greedy-cert")
        seen = 0
        for _ in range(60):
            fam = random_family(rng, rng.randrange(1, 3), rng.randrange(1, 4))
            res = solve_greedy(fam)
            if res.status != "condition_violated":
                continue
            seen += 1
            v = res.violation
            assert fam.gp_number_of_union(v.indices) == v.gp_number
            assert v.gp_number < greedy_bound(fam.d, len(v.indices))
        assert seen > 0

    def test_found_answers_are_valid(self):
        rng = rng_for("greedy-valid")
        for _ in range(40):
            fam = random_family(rng, rng.randrange(1, 4), rng.randrange(1, 4))
            res = solve_greedy(fam)
            if res.status == "found":
                idx = [i for i, _ in res.representatives]
                assert idx == list(range(fam.m))
                for i, p in res.representatives:
                    assert p in fam.sets[i].points
                assert in_general_position(res.points())

    def test_greedy_threshold_guarantees_success(self):
        # meeting greedy_bound on every subfamily union forces "found"
        rng = rng_for("greedy-guarantee")
        d = 2
        for trial in range(10):
            m = rng.randrange(2, 4)
            need = greedy_bound(d, m)
            pool = random_gp_points(rng, d, need)
            fam = PointFamily(d=d, sets=[PointMultiset(pool, d=d) for _ in range(m)])
            assert check_condition(fam, bound=lambda k: greedy_bound(d, k)).holds
            res = solve_greedy(fam)
            assert res.status == "found"
            assert in_general_position(res.points())


def solve_auto(fam, node_budget=None):
    """Exit code and JSON output of `genpos solve` (auto) on fam, run in
    process under GENPOS_BUDGET_NODES=node_budget (None: unset)."""
    out = io.StringIO()
    with mock.patch.dict(os.environ), \
            mock.patch.object(sys, "stdin", io.StringIO(json.dumps(family_to_doc(fam)))), \
            redirect_stdout(out):
        os.environ.pop("GENPOS_BUDGET_NODES", None)
        if node_budget is not None:
            os.environ["GENPOS_BUDGET_NODES"] = str(node_budget)
        code = cli.main(["solve", "-"])
    return code, json.loads(out.getvalue())


def found_doc(fam, picks):
    """The output representatives of the pick of position picks[i] in set i."""
    reps = tuple((i, fam.sets[i][j]) for i, j in enumerate(picks))
    return result_to_doc(SgprResult(status="found", representatives=reps))["representatives"]


class TestSolveAuto:
    """`genpos solve` (auto) answers no when greedy's certificate breaks
    Hall's condition, and hands greedy's other failures to the exhaustive
    search, within the node budget."""

    def test_rescues_small_sets(self):
        # three single points: at a budget of 2 auto runs greedy, whose
        # hypothesis fails although a system plainly exists (the size
        # condition is sufficient rather than necessary); the search finds it
        # on its first descent
        fam = family_of(1, [[0]], [[1]], [[2]])
        assert solve_greedy(fam).status == "condition_violated"
        code, doc = solve_auto(fam, node_budget=2)
        assert code == 0 and doc["method"] == "exhaustive"
        assert doc["representatives"] == found_doc(fam, [0, 0, 0])

    def test_budget(self):
        # the worst case, 2,030 predicate calls, is past both budgets, so
        # auto runs greedy first, whose certificate meets Hall's condition;
        # the search needs about 670 calls to prove no system exists, so at
        # 100 greedy's certificate stands
        cert = result_to_doc(solve_greedy(hall_family()))
        assert cert["status"] == "condition_violated"
        assert cert["violation"]["gp_number"] == len(cert["violation"]["indices"])
        assert solve_auto(hall_family(), node_budget=100) == (2, {**cert, "method": "greedy"})
        assert solve_auto(hall_family(), node_budget=1000) == (
            1, {"status": "not_found", "method": "exhaustive"})

    def test_stops_on_a_hall_violation(self):
        # past the worst case of 11,110 calls auto runs greedy, whose
        # certificate names the four sets, a union with two points in
        # general position: no system, and no search
        cert = result_to_doc(solve_greedy(collinear_family()))
        assert cert["violation"]["gp_number"] == 2 < len(cert["violation"]["indices"])
        assert solve_auto(collinear_family(), node_budget=100) == (
            1, {"status": "not_found", "method": "greedy"})

    def test_answers_the_first_system(self):
        # the greedy hypothesis fails on 64 points in 8 sets of 8; the
        # search takes the first point of each set
        fam = parabola_family(8, 8)
        assert solve_greedy(fam).status == "condition_violated"
        code, doc = solve_auto(fam)
        assert code == 0 and doc["method"] == "exhaustive"
        assert doc["representatives"] == found_doc(fam, [0] * 8)


class TestSolveExhaustive:
    def test_matches_brute_force(self):
        rng = rng_for("exh-brute")
        for _ in range(50):
            fam = random_family(rng, rng.randrange(1, 4), rng.randrange(1, 4))
            res = solve_exhaustive(fam)
            brute = oracle_sgpr(fam)
            if brute is None:
                assert res.status == "not_found"
            else:
                assert res.status == "found"
                picks = tuple(
                    fam.sets[i].points.index(p) for i, p in res.representatives
                )
                assert picks == brute  # lexicographically first system
                assert in_general_position(res.points())

    def test_duplicates_block(self):
        fam = family_of(2, [[0, 0]], [[0, 0]])
        assert solve_exhaustive(fam).status == "not_found"

    def test_empty_set_in_family(self):
        fam = PointFamily(d=1, sets=[PointMultiset([], d=1)])
        assert solve_exhaustive(fam).status == "not_found"

    def test_budget(self):
        # the budget caps predicate calls, not the 10^4 picks
        with pytest.raises(BudgetExceeded, match="^colorful-face search exceeds 100 nodes$"):
            solve_exhaustive(collinear_family(), node_budget=100)
        assert solve_exhaustive(collinear_family()).status == "not_found"

    def test_search_space_past_the_budget(self, monkeypatch):
        # 8^8 picks, far past the default budget; the first descent answers
        # in one predicate call per set, so even a zero budget is enough
        calls = []
        real = solver.gp_extends

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, "gp_extends", counted)
        fam = parabola_family(8, 8)
        res = solve_exhaustive(fam, node_budget=0)
        assert res.status == "found" and len(calls) == 8
        assert res.representatives == tuple((i, X[0]) for i, X in enumerate(fam.sets))


class TestAgainstOracle:
    """The solvers, and the colorful faces of the general-position complex,
    against the lexicographically first system by product enumeration."""

    @settings(max_examples=60, deadline=None)
    @given(planted_families())
    def test_exhaustive(self, fam):
        want = oracle_sgpr(fam)
        res = solve_exhaustive(fam)
        if want is None:
            assert res.status == "not_found"
        else:
            assert res.status == "found"
            assert res.representatives == tuple(
                (i, fam.sets[i][j]) for i, j in enumerate(want))

    @settings(max_examples=60, deadline=None)
    @given(planted_families(max_sets=6).filter(lambda fam: fam.m > fam.d + 1))
    def test_auto(self, fam):
        # a budget one call short of the search's worst case sends auto to
        # greedy, with the search behind it
        worst, picks = 0, 1
        for X in fam.sets:
            picks *= len(X)
            worst += picks
        budget = max(worst - 1, 1)
        want = oracle_sgpr(fam)
        try:
            code, doc = solve_auto(fam, budget)
        except BudgetExceeded:
            return  # a gp_number or its index past the budget
        if doc["status"] == "found":
            assert code == 0 and want is not None
            reps = doc["representatives"]
            assert [r["set"] for r in reps] == list(range(fam.m))
            pts = family_from_doc({"d": fam.d, "sets": [[r["point"]] for r in reps]})
            pts = [X[0] for X in pts.sets]
            assert all(p in fam.sets[i].points for i, p in enumerate(pts))
            assert oracle_gp(pts)
            if doc["method"] == "exhaustive":
                assert reps == found_doc(fam, want)
        elif doc["status"] == "not_found":
            assert code == 1 and want is None
        else:
            # greedy's certificate stands only when the search stops at the budget
            assert code == 2 and doc["method"] == "greedy"
            v = doc["violation"]
            assert fam.gp_number_of_union(v["indices"]) == v["gp_number"] < v["required"]
            with pytest.raises(BudgetExceeded):
                solve_exhaustive(fam, node_budget=budget)

    @settings(max_examples=60, deadline=None)
    @given(planted_families())
    def test_matroid_intersection(self, fam):
        fam = PointFamily(d=fam.d, sets=fam.sets[:fam.d + 1])
        res = solve_matroid_intersection(fam)
        assert res.status == ("not_found" if oracle_sgpr(fam) is None else "found")

    @settings(max_examples=60, deadline=None)
    @given(planted_families())
    def test_colorful_face_of_the_gp_complex(self, fam):
        blocks = []
        at = 0
        for X in fam.sets:
            blocks.append(tuple(range(at, at + len(X))))
            at += len(X)
        K = general_position_complex(fam.union_points(), max_card=fam.m)
        want = oracle_sgpr(fam)
        face = find_colorful_face(K, blocks)
        assert face == (None if want is None else tuple(b[j] for b, j in zip(blocks, want)))


class TestSolveMatroid:
    def test_requires_small_family(self):
        fam = family_of(1, [[0]], [[1]], [[2]])
        with pytest.raises(ValueError):
            solve_matroid_intersection(fam)

    def test_agrees_with_exhaustive(self):
        rng = rng_for("mi-exh")
        for _ in range(60):
            d = rng.randrange(1, 4)
            m = rng.randrange(1, d + 2)
            fam = random_family(rng, d, m)
            a = solve_matroid_intersection(fam)
            b = solve_exhaustive(fam)
            assert a.status == b.status
            if a.status == "found":
                for i, p in a.representatives:
                    assert p in fam.sets[i].points
                assert in_general_position(a.points())

    def test_simple_example(self):
        fam = family_of(2, [[0, 0], [9, 9]], [[0, 0]], [[1, 1], [0, 1]])
        res = solve_matroid_intersection(fam)
        assert res.status == "found"
        assert in_general_position(res.points())


class TestCounterexample:
    def test_refuses_before_building(self, monkeypatch):
        # the verification would enumerate 2^21 - 1 subfamilies; the last
        # set's C(20, 3) points are never built
        monkeypatch.setattr(solver, "in_general_position", None)
        with pytest.raises(BudgetExceeded,
                           match=r"^all-subsets mode would enumerate 2\^21 - 1 subfamilies$"):
            counterexample_family(3, 21)

    def test_shape_and_verification(self):
        fam = counterexample_family(2, 4)
        assert fam.m == 4
        assert [len(X) for X in fam.sets] == [1, 1, 1, 3]
        assert check_condition(fam, bound=lambda k: k).holds
        assert solve_exhaustive(fam).status == "not_found"

    def test_three_dimensional(self):
        fam = counterexample_family(3, 5)
        assert fam.m == 5
        assert [len(X) for X in fam.sets] == [1, 1, 1, 1, 4]
        assert check_condition(fam, bound=lambda k: k).holds
        assert solve_exhaustive(fam).status == "not_found"

    def test_twelve_sets_in_the_plane(self):
        # the re-check tests each union against its size only: m = 12 ran
        # its exact gp_numbers past the default node budget
        t0 = time.perf_counter()
        fam = counterexample_family(2, 12)
        assert time.perf_counter() - t0 < 5
        assert fam.m == 12 and len(fam.sets[-1]) == comb(11, 2)
        assert check_condition(fam, bound=lambda k: k, exact=False).holds
        assert solve_exhaustive(fam).status == "not_found"

    def test_last_set_in_general_position(self):
        fam = counterexample_family(2, 5)
        assert in_general_position(fam.sets[-1].points)

    def test_deterministic(self):
        a = counterexample_family(2, 4, seed_param=3)
        b = counterexample_family(2, 4, seed_param=3)
        assert [X.points for X in a.sets] == [X.points for X in b.sets]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            counterexample_family(1, 4)
        with pytest.raises(ValueError):
            counterexample_family(2, 3)

    @pytest.mark.parametrize("d, m, seed, digest", [
        (2, 6, 7, "3a78151d331da2247aa8a2f00c8684e101bc5378b08d60490978f5252d40d290"),
        (3, 5, 3, "169d4c98d8db781a0d216bc8b38098ed1a8209839f7acdbc33a7da24485492dd"),
        (4, 7, 2, "7b55041da67ddd44bc20c56ad41eb2654696e767633a5edd1c67f29c06041bcc"),
        (2, 9, 50, "081d80bb7fb6299bc00d215fa809f03c7a87cddcb703eb247301dd5e50092aed"),
    ])
    def test_printed_families_are_pinned(self, d, m, seed, digest):
        # the last set's points, c = 1/q on the hyperplane of d curve
        # points, built from integer weights over q^(d-1)
        doc = json.dumps(family_to_doc(counterexample_family(d, m, seed)))
        assert hashlib.sha256(doc.encode()).hexdigest() == digest

    def test_lower_bounds_kept_one_size_deep(self):
        # the re-check's threshold queries leave a lower bound on most
        # unions; each size reads only the one below, so at m = 14 no more
        # than the 14 unions of 13 sets and the whole family keep one
        fam = counterexample_family(2, 14)
        assert len(fam._gp_floors) <= 15
        assert all(len(key) >= 13 for key in fam._gp_floors)

    def test_impossible_retry_budget(self):
        with pytest.raises(ConstructionError):
            counterexample_family(2, 4, retries=0)


class TestConfigurationComplexes:
    def test_gp_complex_faces(self):
        pts = [Point([0, 0]), Point([1, 0]), Point([2, 0]), Point([0, 1])]
        K = general_position_complex(pts)
        assert K.n_vertices == 4
        assert not K.has_face((0, 1, 2))  # collinear
        assert K.has_face((0, 1, 3))
        assert K.dim == 2

    def test_multiplicity_kept(self):
        pts = [Point([1, 1]), Point([1, 1])]
        K = general_position_complex(pts)
        assert K.vertices() == [0, 1]
        assert not K.has_face((0, 1))

    def test_empty_input(self):
        K = general_position_complex(PointMultiset([], d=2))
        assert K.n_vertices == 0 and K.faces == frozenset({0})

    def test_mixed_dimensions_refused(self):
        with pytest.raises(DimensionMismatch):
            general_position_complex([Point((0, 0)), Point((1, 2, 3)), Point((5, 1))])

    def test_faces_match_predicate(self):
        rng = rng_for("gpc-pred")
        for _ in range(20):
            d = rng.randrange(1, 3)
            pts = random_degenerate_points(rng, d, rng.randrange(1, 7))
            K = general_position_complex(pts)
            from genpos.complexes import bits_of

            for mask in range(1 << len(pts)):
                sub = [pts[i] for i in bits_of(mask)]
                assert (mask in K.faces) == oracle_gp(sub, d=d)

    def test_truncation_matches_filter(self):
        rng = rng_for("gpc-trunc")
        pts = random_degenerate_points(rng, 2, 7)
        full = general_position_complex(pts)
        for cap in range(0, 8):
            capped = general_position_complex(pts, max_card=cap)
            assert capped.faces == {f for f in full.faces if f.bit_count() <= cap}

    def test_budget(self):
        rng = rng_for("gpc-budget")
        pts = random_gp_points(rng, 2, 12)
        with pytest.raises(BudgetExceeded):
            general_position_complex(pts, max_faces=50)

    def test_gp_complex_is_completion_of_independence(self):
        rng = rng_for("gpc-completion")
        for _ in range(20):
            d = rng.randrange(1, 4)
            pts = PointMultiset(random_degenerate_points(rng, d, rng.randrange(1, 7)), d=d)
            G = general_position_complex(pts)
            M = independence_complex(pts)
            assert G == completion(M, d)
            assert M == skeleton(G, min(gp_number(pts), d + 1) - 1)

    def test_colorful_face_equates_to_representative_system(self):
        rng = rng_for("gpc-colorful")
        for _ in range(25):
            d = rng.randrange(1, 3)
            fam = random_family(rng, d, rng.randrange(1, 4))
            pts = fam.union_points()
            blocks = []
            at = 0
            for X in fam.sets:
                blocks.append(tuple(range(at, at + len(X))))
                at += len(X)
            K = general_position_complex(pts, max_card=fam.m)
            face = find_colorful_face(K, blocks)
            res = solve_exhaustive(fam)
            assert (face is not None) == (res.status == "found")
            if face is not None:
                assert in_general_position([pts[i] for i in face])
