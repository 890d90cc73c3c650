"""Exact rational point geometry: canonical homogeneous coordinates, affine
independence, general position predicates, gp_number and the one-point
extension step."""

import json
import sys
from fractions import Fraction as F
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genpos import (
    BudgetExceeded,
    DimensionMismatch,
    Point,
    PointMultiset,
    affinely_independent,
    extend_gp,
    gp_number,
    in_general_position,
)
from genpos import geometry
from genpos.geometry import FlatIndex
from conftest import (
    oracle_affinely_independent,
    oracle_gp,
    oracle_gp_number,
    oracle_rank,
    planted_points,
    random_degenerate_points,
    random_gp_points,
    random_planted_points,
    random_point,
    rng_for,
)
from test_cli import BOUNDED, run_python


class TestPoint:
    def test_homogeneous_is_primitive(self):
        assert Point([F(1, 2), F(1, 3)]).hom == (3, 2, 6)
        assert Point([2, 4]).hom == (2, 4, 1)
        assert Point([F(2, 6), F(4, 6)]).hom == (1, 2, 3)
        assert Point([0, 0]).hom == (0, 0, 1)
        assert Point([F(-2, 4)]).hom == (-1, 2)

    def test_equality_and_hash(self):
        assert Point([F(1, 2), 1]) == Point([F(2, 4), F(3, 3)])
        assert hash(Point([F(1, 2)])) == hash(Point([F(2, 4)]))
        assert Point([1]) != Point([2])
        assert Point([1, 0]) != Point([1])

    def test_coords_are_fractions(self):
        p = Point([1, F(2, 3)])
        assert p.coords == (F(1), F(2, 3))
        assert p.d == 2

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Point([])

    def test_floats_coerce_to_exact_binary_rationals(self):
        # Fraction(0.5) is exact, so this is allowed rather than rejected
        assert Point([0.5, 1]) == Point([F(1, 2), 1])


class TestPointMultiset:
    def test_keeps_duplicates_and_order(self):
        p, q = Point([1]), Point([2])
        X = PointMultiset([p, q, p])
        assert len(X) == 3
        assert list(X) == [p, q, p]
        assert X[2] == p

    def test_empty_needs_dimension(self):
        with pytest.raises(ValueError):
            PointMultiset([])
        assert PointMultiset([], d=3).d == 3

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            PointMultiset([Point([1]), Point([1, 2])])

    def test_coordinate_input(self):
        X = PointMultiset([[1, 2], [F(1, 2), 0]])
        assert X[0] == Point([1, 2])


class TestPredicates:
    def test_affine_independence_examples(self):
        assert affinely_independent([Point([0, 0]), Point([1, 0]), Point([0, 1])])
        assert not affinely_independent([Point([0, 0]), Point([1, 1]), Point([2, 2])])
        assert affinely_independent([Point([5, 7])])
        assert affinely_independent([])
        assert not affinely_independent([Point([1, 1]), Point([1, 1])])

    def test_affine_independence_random(self):
        rng = rng_for("aff-ind")
        for _ in range(150):
            d = rng.randint(1, 4)
            pts = [random_point(rng, d, 8) for _ in range(rng.randint(0, d + 2))]
            assert affinely_independent(pts) == oracle_affinely_independent(pts)

    def test_general_position_examples(self):
        square = [Point([0, 0]), Point([1, 0]), Point([0, 1]), Point([1, 1])]
        assert in_general_position(square)
        line3 = [Point([0, 0]), Point([1, 0]), Point([2, 0])]
        assert not in_general_position(line3)
        assert in_general_position([])
        assert not in_general_position([Point([3]), Point([3])])

    def test_general_position_random(self):
        rng = rng_for("gp-random")
        for _ in range(120):
            d = rng.randint(1, 3)
            pts = random_degenerate_points(rng, d, rng.randint(0, 7))
            assert in_general_position(pts) == oracle_gp(pts)

    def test_incremental_predicate_agrees(self):
        rng = rng_for("gp-incr")
        for _ in range(100):
            d = rng.randint(1, 3)
            prefix = random_gp_points(rng, d, rng.randint(0, d + 3), spread=10)
            cand = random_point(rng, d, 10)
            assert (extend_gp(prefix, [cand]) is not None) == oracle_gp(prefix + [cand])

class TestGpNumber:
    def test_three_collinear_plus_one(self):
        pts = [Point([0, 0]), Point([1, 0]), Point([2, 0]), Point([0, 1])]
        assert gp_number(pts) == 3

    def test_small_cases(self):
        assert gp_number([]) == 0
        assert gp_number([Point([4])]) == 1
        assert gp_number([Point([4]), Point([4])]) == 1
        assert gp_number([Point([4]), Point([4]), Point([5])]) == 2

    def test_duplicates_collapse(self):
        p = Point([2, 3])
        assert gp_number([p] * 5) == 1

    def test_against_oracle(self):
        rng = rng_for("phi-oracle")
        for _ in range(60):
            d = rng.randint(1, 3)
            pts = random_degenerate_points(rng, d, rng.randint(0, 8))
            assert gp_number(pts) == oracle_gp_number(pts)

    def test_mask_over_an_index_matches_the_point_list(self):
        # random masks over one index of the distinct points: the shared
        # index after its first build, a fresh unbuilt one every third mask
        # (the affine-rank shortcut runs on the mask's points)
        rng = rng_for("phi-mask")
        for _ in range(12):
            d = rng.randint(1, 3)
            distinct = list(dict.fromkeys(random_degenerate_points(rng, d, rng.randint(1, 9))))
            homs = [p.hom for p in distinct]
            shared = FlatIndex(homs, d)
            for t in range(8):
                mask = rng.getrandbits(len(homs))
                index = FlatIndex(homs, d) if t % 3 == 0 else shared
                pts = [p for i, p in enumerate(distinct) if mask >> i & 1]
                assert gp_number(mask, index=index) == gp_number(pts), (homs, mask)

    def test_a_bare_mask_needs_an_index(self):
        with pytest.raises(ValueError, match="needs index="):
            gp_number(5)

    def test_bits_and_points_outside_the_index_are_named(self, monkeypatch):
        # both forms are checked before the index is built or searched
        monkeypatch.setattr(FlatIndex, "build", None)
        row = [Point([x, 0]) for x in range(3)]
        index = FlatIndex([p.hom for p in row], 2)
        with pytest.raises(ValueError, match=r"^bitmask bit 3 outside 0\.\.2$"):
            gp_number(0b1001, index=index)
        with pytest.raises(ValueError, match=r"^bitmask bit 3, 5 outside 0\.\.2$"):
            gp_number(0b101111, index=index)
        with pytest.raises(ValueError, match=r"^point Point\(1, 1\) is not in the index$"):
            gp_number(row[:2] + [Point([1, 1])], index=index)

    def test_a_negative_mask_is_refused_at_once(self):
        # run in a child under a wall-clock limit: a mask whose bits never
        # run out would otherwise hang the suite
        code = ("from genpos.geometry import FlatIndex, gp_number\n"
                "try:\n"
                "    gp_number(-1, index=FlatIndex([(0, 0, 1), (1, 0, 1), (2, 0, 1)], 2))\n"
                "except ValueError as e:\n"
                "    print(e)\n")
        code, out, err, took, _ = json.loads(
            run_python(["-c", BOUNDED, sys.executable, "-c", code]).stdout)
        assert (code, out, err) == (0, "gp_number of a negative bitmask -1\n", ""), took

    def test_twelve_points_plane(self):
        # grid points force many collinear triples; independent oracle below
        rng = rng_for("phi-12")
        pts = [Point([rng.randint(0, 3), rng.randint(0, 3)]) for _ in range(12)]

        def det3(a, b, c):
            return (b.coords[0] - a.coords[0]) * (c.coords[1] - a.coords[1]) - (
                b.coords[1] - a.coords[1]
            ) * (c.coords[0] - a.coords[0])

        from itertools import combinations

        n = len(pts)
        bad = []
        for i, j in combinations(range(n), 2):
            if pts[i] == pts[j]:
                bad.append((1 << i) | (1 << j))
        for i, j, k in combinations(range(n), 3):
            if det3(pts[i], pts[j], pts[k]) == 0:
                bad.append((1 << i) | (1 << j) | (1 << k))
        best = 0
        for mask in range(1 << n):
            if mask.bit_count() > best and not any(
                mask & b == b for b in bad
            ):
                best = mask.bit_count()
        assert gp_number(pts) == best

    def test_gp_set_has_full_gp_number(self):
        rng = rng_for("phi-full")
        for d in (1, 2, 3):
            pts = random_gp_points(rng, d, 7)
            assert gp_number(pts) == 7


    def test_first_pass_of_full_rank_is_not_the_answer(self):
        # the first pass keeps the triangle a, b, c and rejects the midpoint
        # of each side; the unit square a, x, y, z is larger
        pts = [Point(p) for p in ([0, 0], [2, 0], [0, 2], [1, 0], [1, 1], [0, 1])]
        assert gp_number(pts) == oracle_gp_number(pts) == 4

    def test_thousands_of_points_on_a_flat(self):
        # the greedy first pass keeps d or fewer points, whose hull holds
        # every point; no recursion limit or budget comes into play
        assert gp_number([Point([i, 0]) for i in range(1200)]) == 2
        rng = rng_for("phi-coplanar")
        plane = []
        while len(plane) < 500:
            a, b = rng.randint(-40, 40), rng.randint(-40, 40)
            plane.append(Point([a, b, F(3 * a - 2 * b + 5, 7)]))
        assert gp_number(plane, node_budget=1) == 3

    def test_node_budget(self):
        grid = [Point([x, y]) for x in range(6) for y in range(6)]
        with pytest.raises(BudgetExceeded):
            gp_number(grid, node_budget=1000)
        assert gp_number(grid[:12], node_budget=10**5) == 4

    def test_index_build_is_charged_to_the_budget(self):
        # the 3 x 3 x 3 cube: its index hashes C(27, 2) + C(27, 3) tuples
        cube = [Point([x, y, z]) for x in range(3) for y in range(3) for z in range(3)]
        tuples = comb(27, 2) + comb(27, 3)
        with pytest.raises(BudgetExceeded, match="needs %d nodes" % tuples):
            gp_number(cube, node_budget=tuples - 1)
        assert gp_number(cube) == 8

    def test_search_gets_what_the_build_leaves(self, monkeypatch):
        # the 6 x 6 grid's index costs C(36, 2) = 630 nodes before its
        # search, whose grows charge one node per flat they read
        grid = [Point([x, y]) for x in range(6) for y in range(6)]
        index = FlatIndex([p.hom for p in grid], 2)
        index.build()
        nodes = count_grow_calls(monkeypatch)
        assert gp_number(grid) == 12
        search = sum(len(index.through[w.bit_length() - 1]) for w in nodes)
        assert gp_number(grid, node_budget=search + 630) == 12
        with pytest.raises(BudgetExceeded, match="^search exceeds %d nodes$" % (search + 629)):
            gp_number(grid, node_budget=search + 629)

    @pytest.mark.parametrize("pts, answer, calls", [
        ([(x, y) for x in range(6) for y in range(6)], 12, 2_886),
        ([(x, y) for x in range(7) for y in range(7)], 14, 89_248),
        ([(x, y, z) for x in range(3) for y in range(3) for z in range(3)], 8, 14_895),
    ], ids=["6x6 grid", "7x7 grid", "3x3x3 cube"])
    def test_predicate_calls_are_pinned(self, monkeypatch, pts, answer, calls):
        # the grow calls of the search, for a change to its order or bounds
        # to measure itself against
        nodes = count_grow_calls(monkeypatch)
        assert gp_number([Point(p) for p in pts]) == answer
        assert len(nodes) == calls

    def test_bounds_that_hold_keep_the_answer(self):
        rng = rng_for("phi-bounds")
        for _ in range(20):
            d = rng.randint(1, 3)
            pts = random_degenerate_points(rng, d, rng.randint(1, 8))
            want = oracle_gp_number(pts)
            for cap in range(want, len(pts) + 2):
                assert gp_number(pts, cap=cap) == want


def count_grow_calls(monkeypatch):
    """A list that gains the candidate w at each call of the grow that
    gp_number hands to max_extension."""
    nodes = []
    real = geometry.max_extension
    monkeypatch.setattr(geometry, "max_extension", lambda items, grow, *args, **kw: real(
        items, lambda chosen, w: nodes.append(w) or grow(chosen, w), *args, **kw))
    return nodes


def brute_flats(pts, top):
    """Every j-flat (1 <= j <= top) through at least j+2 of the distinct
    points, as (frozenset of positions, j): the flat of each independent
    (j+1)-tuple, with every point whose addition keeps the rank j+1."""
    n = len(pts)
    out = set()
    for j in range(1, top + 1):
        spanned = []
        for combo in combinations(range(n), j + 1):
            if any(on.issuperset(combo) for on in spanned):
                continue  # its flat is known
            rows = [pts[i].hom for i in combo]
            if oracle_rank(rows) < j + 1:
                continue
            on = frozenset(k for k in range(n) if k in combo
                           or oracle_rank(rows + [pts[k].hom]) == j + 1)
            spanned.append(on)
            if len(on) >= j + 2:
                out.add((on, j))
    return out


def flats_of(index):
    return [(frozenset(k for k in range(len(index.homs)) if mask >> k & 1), j)
            for mask, j in index.flats]


class TestFlatIndex:
    @pytest.mark.parametrize("d, trials, size, top", [
        (d, trials, size, top)
        for d, trials, size in [(2, 20, 12), (3, 8, 10), (4, 4, 9)] for top in range(d)
    ])
    def test_flats_against_brute_force(self, d, trials, size, top):
        # collinear triples, coplanar quadruples and, in d = 4, 3-flats
        # through five points, each flat once and with all its points, in
        # an index capped at top as gp_grow and max_uniform_size build it
        rng = rng_for("flat-index", d)
        dims = set()
        for trial in range(trials):
            pts = list(dict.fromkeys(random_planted_points(rng, d, size)))
            index = FlatIndex([p.hom for p in pts], d, top)
            assert index.build() == index.tuples()
            got = flats_of(index)
            want = brute_flats(pts, top)
            assert len(got) == len(set(got)) and set(got) == want, trial
            # in order of lowest point, j, and first affinely independent
            # (j+1)-tuple, which the greedy cover's tie-break depends on
            order = [(min(on), j, next(t for t in combinations(sorted(on), j + 1)
                                       if oracle_rank([pts[i].hom for i in t]) == j + 1))
                     for on, j in got]
            assert order == sorted(order), trial
            for i in range(len(pts)):
                assert index.through[i] == tuple(f for f in index.flats if f[0] >> i & 1)
            assert index.lines == [mask for mask, j in index.flats if j == 1]
            dims |= {j for _, j in want}
        assert dims == set(range(1, top + 1))

    def test_cover_takes_two_per_line_still_holding_three(self):
        # a row of four, a column of three through its corner, a point apart
        pts = [Point(p) for p in ([0, 0], [1, 0], [2, 0], [3, 0], [0, 1], [0, 2], [5, 7])]
        index = FlatIndex([p.hom for p in pts], 2)
        index.build()
        # the row gives 2; the column then holds only 2 of the points left,
        # which count one each, as does the point apart
        assert index.cover(0b1111111) == 2 + 3 == oracle_gp_number(pts)
        # without the row, the column holds three: 2 for it, 1 for the point
        assert index.cover(0b1110001) == 2 + 1
        assert index.cover(0) == 0
        # the point apart is the only free one
        assert index.crowded(0b1111111) == 0b0111111
        assert index.crowded(0b1000011) == 0

    def test_small_and_one_dimensional_indexes_are_empty(self):
        pts = [Point([i * i, i]) for i in range(5)]
        for homs, d in (([], 2), ([pts[0].hom], 2), ([pts[0].hom, pts[1].hom], 3),
                        ([(i, 1) for i in range(9)], 1)):
            index = FlatIndex(homs, d)
            index.build()
            assert index.flats == []

    def test_build_is_charged_once_to_the_budget(self):
        cube = [Point([x, y, z]) for x in range(3) for y in range(3) for z in range(3)]
        index = FlatIndex([p.hom for p in cube], 3)
        assert index.tuples() == comb(27, 2) + comb(27, 3)
        with pytest.raises(BudgetExceeded, match="over the budget of 3275 nodes"):
            index.build(node_budget=index.tuples() - 1)
        assert index.flats is None
        assert index.build(node_budget=index.tuples()) == index.tuples()
        assert index.build(node_budget=1) == 0
        # 49 lines of three, and every plane through four or more points
        assert sum(j == 1 for _, j in index.flats) == 49
        assert all(j == 2 and mask.bit_count() >= 4 or j == 1 and mask.bit_count() == 3
                   for mask, j in index.flats)


class TestFreePoints:
    def test_general_position_is_counted_without_search(self, monkeypatch):
        # every point is free: the answer is the count, and the search is
        # never entered
        calls = []
        real = geometry.max_extension
        monkeypatch.setattr(geometry, "max_extension",
                            lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
        rng = rng_for("free-points")
        for d in (1, 2, 3, 4):
            for size in (d + 2, d + 5):
                pts = random_gp_points(rng, d, size, spread=12)
                assert gp_number(pts + pts[:2]) == size
        assert calls == []

    def test_free_points_join_any_general_position_set(self):
        # a row of four, with a point off it: the row keeps two, the free
        # point adds one without any search
        pts = [Point([x, 0]) for x in range(4)] + [Point([1, 5])]
        index = FlatIndex([p.hom for p in pts], 2)
        index.build()
        assert index.crowded(0b11111) == 0b01111
        assert gp_number(pts) == 1 + 2 == oracle_gp_number(pts)


@settings(max_examples=60, deadline=None)
@given(planted_points())
def test_gp_number_matches_oracle_on_planted_points(case):
    # repeats, collinear and coplanar subsets in d = 1 to 4, and the
    # free-point identity gp(X) = #free + gp(X minus the free points)
    d, pts = case
    want = oracle_gp_number(pts)
    assert gp_number(pts) == want
    distinct = list(dict.fromkeys(pts))
    index = FlatIndex([p.hom for p in distinct], d)
    index.build()
    crowded = index.crowded((1 << len(distinct)) - 1)
    rest = [p for i, p in enumerate(distinct) if crowded >> i & 1]
    assert want == len(distinct) - len(rest) + oracle_gp_number(rest)


class TestExtendGp:
    def test_picks_first_extending_point(self):
        S = [Point([0, 0]), Point([1, 0])]
        T = [Point([2, 0]), Point([3, 3]), Point([1, 1])]
        assert extend_gp(S, T) == Point([3, 3])

    def test_none_when_blocked(self):
        S = [Point([0, 0]), Point([1, 0])]
        T = [Point([2, 0]), Point([0, 0])]
        assert extend_gp(S, T) is None

    def test_from_empty_prefix(self):
        assert extend_gp([], [Point([9, 9])]) == Point([9, 9])
        assert extend_gp([], []) is None


coord = st.fractions(
    min_value=-30, max_value=30, max_denominator=6
)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda d: st.lists(
            st.lists(coord, min_size=d, max_size=d), min_size=0, max_size=6
        )
    ),
    st.fractions(min_value=F(1, 3), max_value=4, max_denominator=3),
    st.fractions(min_value=-5, max_value=5, max_denominator=3),
)
def test_gp_number_affine_invariant(rows, scale, shift):
    pts = [Point(r) for r in rows]
    moved = [Point([scale * c + shift for c in p.coords]) for p in pts]
    assert gp_number(moved) == gp_number(pts)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda d: st.lists(
            st.lists(coord, min_size=d, max_size=d), min_size=0, max_size=5
        )
    )
)
def test_gp_matches_oracle_hypothesis(rows):
    pts = [Point(r) for r in rows]
    assert in_general_position(pts) == oracle_gp(pts)
