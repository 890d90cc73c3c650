"""Simplicial complex layer: construction, closure, star, neighborhood,
completion, skeleton, induced subcomplex, join, nerve, the q-star test,
colorful face search, and the levelwise enumerator behind the
general-position and independence complexes, the nerve and completions,
the uniformity complex among them."""

import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genpos import (
    BudgetExceeded,
    QStarResult,
    SimplicialComplex,
    closure,
    completion,
    find_colorful_face,
    induced,
    is_q_star,
    join,
    neighborhood,
    nerve,
    skeleton,
    star,
)
from genpos.complexes import bits_of, levelwise_complex, mask_of
from genpos.geometry import FlatIndex, Point
from genpos.jsonio import complex_to_doc
from genpos.matroids import (
    AffineMatroid,
    ExplicitMatroid,
    PartitionMatroid,
    UniformMatroid,
    max_uniform_size,
    uniformity_complex,
)
from genpos.matroids import independence_complex as matroid_independence_complex
from genpos.solver import general_position_complex
from conftest import (
    low_rank_points,
    oracle_affinely_independent,
    oracle_completion_faces,
    oracle_closure_faces,
    oracle_facets,
    oracle_gp,
    oracle_is_q_star,
    oracle_is_uniform,
    oracle_neighborhood_faces,
    oracle_rank,
    oracle_star_faces,
    planted_points,
    random_complex,
    rng_for,
)


# (n, facets as masks) on up to 7 vertices, repeats and nested facets
# included
_facet_lists = st.integers(0, 7).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=6)))


def triangle_boundary():
    return closure([(0, 1), (1, 2), (0, 2)], 3)


def full_triangle():
    return closure([(0, 1, 2)], 3)


class TestMasks:
    def test_round_trip(self):
        for vs in [(), (0,), (2, 5), (0, 1, 2, 3)]:
            assert tuple(bits_of(mask_of(vs))) == vs

    def test_mask_values(self):
        assert mask_of([0, 2]) == 5
        assert list(bits_of(11)) == [0, 1, 3]


class TestConstruction:
    def test_rejects_non_closed(self):
        with pytest.raises(ValueError):
            SimplicialComplex(3, {0b011})
        with pytest.raises(ValueError):
            SimplicialComplex.from_faces(2, [(0, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SimplicialComplex(1, {0, 0b10})
        with pytest.raises(ValueError):
            SimplicialComplex(-1, [])

    def test_from_faces(self):
        K = SimplicialComplex.from_faces(3, [(), (0,), (1,), (0, 1)])
        assert len(K) == 4
        assert K.dim == 1
        assert (0, 1) in K
        assert 0b011 in K

    def test_void_and_empty_face_complex(self):
        void = SimplicialComplex(3, [])
        assert void.dim == -1 and len(void) == 0
        empt = SimplicialComplex(3, [0])
        assert empt.dim == -1 and len(empt) == 1
        assert void != empt

    def test_invariants_on_triangle_boundary(self):
        K = triangle_boundary()
        assert K.dim == 1
        assert K.f_vector() == (3, 3)
        assert K.vertices() == [0, 1, 2]
        assert K.facets() == [0b011, 0b101, 0b110]
        assert K.ext == {0: 0b111, 1: 0b110, 2: 0b101, 4: 0b011, 0b011: 0, 0b101: 0, 0b110: 0}
        assert K.has_face((0, 2)) and not K.has_face((0, 1, 2))

    def test_equality_includes_universe(self):
        a = closure([(0,)], 2)
        b = closure([(0,)], 3)
        assert a != b
        assert a == closure([(0,)], 2)
        assert hash(a) == hash(closure([(0,)], 2))


class TestClosure:
    def test_matches_oracle(self):
        rng = rng_for("closure-oracle")
        for _ in range(30):
            n = rng.randrange(1, 8)
            facets = [
                tuple(sorted(rng.sample(range(n), rng.randrange(0, n + 1))))
                for _ in range(rng.randrange(1, 5))
            ]
            K = closure(facets, n)
            assert K.faces == oracle_closure_faces(facets, n)

    def test_accepts_masks_and_tuples(self):
        assert closure([0b101], 3) == closure([(0, 2)], 3)

    def test_degenerate_inputs(self):
        assert len(closure([], 4)) == 0
        assert closure([()], 4).faces == {0}

    def test_out_of_range_facet(self):
        with pytest.raises(ValueError):
            closure([(0, 5)], 3)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            closure([tuple(range(12))], 12, max_faces=100)

    def test_huge_facet_refused_up_front(self):
        with pytest.raises(BudgetExceeded, match="^closure exceeds %d faces$" % (1 << 20)):
            closure([tuple(range(40))], 40)

    @given(_facet_lists)
    def test_matches_oracle_at_the_budget_boundary(self, case):
        n, facets = case
        K = closure(facets, n)
        assert K.faces == oracle_closure_faces(facets, n)
        # exactly len(K) faces answer, one fewer raises
        assert closure(facets, n, max_faces=len(K)) == K
        if K.faces:
            with pytest.raises(BudgetExceeded,
                               match="^closure exceeds %d faces$" % (len(K) - 1)):
                closure(facets, n, max_faces=len(K) - 1)


class TestFacets:
    # complexes built from faces, not by the levelwise enumerator, read
    # their facets and extenders off the extender table

    @given(_facet_lists, st.data())
    def test_maximal_faces_by_brute_force(self, case, data):
        n, facets = case
        K = closure(facets, n)
        k = data.draw(st.integers(0, 3))
        L = closure(data.draw(st.lists(st.integers(0, (1 << k) - 1), max_size=3)), k)
        v = data.draw(st.integers(0, max(n - 1, 0)))
        W = data.draw(st.integers(0, (1 << n) - 1))
        s = data.draw(st.integers(-1, n))
        built = [K, join(K, L), induced(K, W), skeleton(K, s)]
        if n:
            built.append(star(K, v))
        for M in built:
            assert M._facets is None
            want = oracle_facets(M)
            assert M.facets() == sorted(want, key=lambda m: tuple(bits_of(m)))
            assert complex_to_doc(M)["facets"] == sorted(map(bits_of, want),
                                                         key=lambda t: (len(t), t))

    @given(_facet_lists)
    def test_extender_table_by_brute_force(self, case):
        n, facets = case
        K = closure(facets, n)
        assert K.ext == {f: sum(1 << v for v in range(n) if not f >> v & 1
                                and f | 1 << v in K.faces) for f in K.faces}
        assert K.ext is K.ext

    def test_void_and_empty_face(self):
        assert closure([], 3).facets() == []
        assert closure([()], 3).facets() == [0]


class TestStar:
    def test_known_value(self):
        K = closure([(0, 1, 2), (2, 3)], 4)
        S = star(K, 2)
        want = {(), (0,), (1,), (2,), (3,), (0, 1), (0, 2), (1, 2), (2, 3), (0, 1, 2)}
        assert S.faces == {mask_of(f) for f in want}

    def test_missing_vertex_gives_void(self):
        K = closure([(0,)], 2)
        assert len(star(K, 1)) == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            star(triangle_boundary(), 3)

    def test_matches_oracle(self):
        rng = rng_for("star-oracle")
        for _ in range(40):
            K = random_complex(rng, rng.randrange(2, 8), rng.randrange(0, 4))
            v = rng.randrange(K.n_vertices)
            assert star(K, v).faces == oracle_star_faces(K, v)

    def test_star_is_subcomplex(self):
        rng = rng_for("star-sub")
        for _ in range(20):
            K = random_complex(rng, 6, 2)
            S = star(K, rng.randrange(6))
            assert S.faces <= K.faces


class TestNeighborhood:
    def test_dimension_guard(self):
        K = triangle_boundary()
        with pytest.raises(ValueError):
            neighborhood(K, 0, 2)

    def test_zero_dim_recovers_whole_complex(self):
        # at dimension zero the subset condition is vacuous
        K = closure([(0,), (1,), (2,)], 3)
        assert neighborhood(K, 1, 0) == K

    def test_isolated_vertex_positive_dim(self):
        K = closure([(0, 1), (2,)], 3)
        N = neighborhood(K, 2, 1)
        assert N.faces == {0, 0b100}

    def test_full_simplex(self):
        K = full_triangle()
        assert neighborhood(K, 0, 2) == K

    def test_contains_star(self):
        rng = rng_for("nbhd-star")
        for _ in range(20):
            K = random_complex(rng, 7, 2)
            v = rng.randrange(7)
            assert star(K, v).faces <= neighborhood(K, v, K.dim).faces

    def test_out_of_range(self):
        for K in (triangle_boundary(), closure([(0,), (1,)], 2)):
            with pytest.raises(ValueError, match="^vertex 3 out of range$"):
                neighborhood(K, 3, K.dim)

    @given(_facet_lists)
    def test_every_vertex_matches_oracle(self, case):
        n, facets = case
        K = closure(facets, n)
        for v in range(n):
            assert neighborhood(K, v, K.dim).faces == oracle_neighborhood_faces(K, v)

    def test_matches_oracle(self):
        rng = rng_for("nbhd-oracle")
        for _ in range(60):
            K = random_complex(rng, rng.randrange(2, 8), rng.randrange(0, 4))
            v = rng.randrange(K.n_vertices)
            assert neighborhood(K, v, K.dim).faces == oracle_neighborhood_faces(K, v)


class TestCompletion:
    def test_low_index_rejected(self):
        with pytest.raises(ValueError):
            completion(full_triangle(), 1)

    def test_above_dimension_is_identity(self):
        K = triangle_boundary()
        assert completion(K, 5) == K

    def test_isolated_points_complete_to_simplex(self):
        K = closure([(0,), (1,), (2,)], 3)
        got = completion(K, 0)
        assert len(got) == 8
        assert got == closure([(0, 1, 2)], 3)

    def test_empty_face_complex_completes_to_full_simplex(self):
        K = SimplicialComplex(3, [0])
        assert completion(K, -1) == closure([(0, 1, 2)], 3)

    def test_void_complex_stays_void(self):
        K = SimplicialComplex(3, [])
        assert len(completion(K, -1)) == 0

    def test_matches_oracle(self):
        rng = rng_for("completion-oracle")
        for _ in range(50):
            n = rng.randrange(2, 8)
            K = random_complex(rng, n, rng.randrange(0, 3))
            for j in range(K.dim, min(n, K.dim + 3) + 1):
                assert completion(K, j).faces == oracle_completion_faces(K, j)

    def test_cardinality_cap_matches_filtered(self):
        rng = rng_for("completion-cap")
        for _ in range(20):
            K = random_complex(rng, 7, rng.randrange(0, 3))
            full = completion(K, K.dim)
            for cap in range(K.dim + 1, 7):
                capped = completion(K, K.dim, max_card=cap)
                assert capped.faces == {
                    f for f in full.faces if f.bit_count() <= cap
                }

    def test_budget(self):
        K = closure([(v,) for v in range(12)], 12)
        with pytest.raises(BudgetExceeded):
            completion(K, 0, max_faces=50)

    def test_isolated_vertices_are_counted_at_the_boundary(self):
        # the 0-completion of 10 isolated vertices is all 2^10 sets of them
        K = closure([(v,) for v in range(10)], 10)
        assert len(completion(K, 0, max_faces=1024)) == 1024
        with pytest.raises(BudgetExceeded, match="^completion exceeds 1023 faces$"):
            completion(K, 0, max_faces=1023)

    def test_isolated_vertices_over_budget_are_refused_before_they_grow(self):
        K = closure([(v,) for v in range(2000)], 2000)
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="^completion exceeds 1048576 faces$"):
            completion(K, 0)
        assert time.perf_counter() - t0 < 1

    @settings(max_examples=60, deadline=None)
    @given(_facet_lists, st.booleans())
    def test_matches_oracle_with_caps(self, case, above):
        n, facets = case
        K = closure(facets, n)
        j = K.dim + above
        full = oracle_completion_faces(K, j)
        for max_card in (None, *range(n + 1)):
            got = completion(K, j, max_card=max_card)
            assert got.faces == {f for f in full if max_card is None or f.bit_count() <= max_card}
            if got.faces:
                _check_budget_boundary(
                    lambda max_faces: completion(K, j, max_card, max_faces), got, "completion")

    @pytest.mark.parametrize("facets, j", [
        ([(0, 1), (1, 2), (0, 2)], 5),  # j above dim K returns K
        ([(0, 1), (2, 3)], 1),          # no set of 3 has all its edges
        ([(0, 1, 2)], 2),
    ])
    def test_budget_counts_the_faces_of_K(self, facets, j):
        # the budget bounds the result, so a completion that adds no face
        # still refuses a K over the budget
        K = closure(facets, 4)
        assert completion(K, j) == K
        _check_budget_boundary(lambda max_faces: completion(K, j, max_faces=max_faces),
                               K, "completion")

    def test_idempotent(self):
        rng = rng_for("completion-idem")
        for _ in range(15):
            K = random_complex(rng, 6, 2)
            done = completion(K, K.dim)
            assert completion(done, done.dim) == done


class TestInducedAndSkeleton:
    def test_induced_known(self):
        K = full_triangle()
        assert induced(K, (0, 1)) == closure([(0, 1)], 3)
        assert induced(K, 0b011) == closure([(0, 1)], 3)

    def test_induced_empty_vertex_set(self):
        K = full_triangle()
        assert induced(K, ()).faces == {0}

    @pytest.mark.parametrize("W, message", [
        ((0, 7), "vertex 7 out of range"),
        ((-1,), "vertex -1 out of range"),
        ((0, 3), "vertex 3 out of range"),
        (0b1001, "vertex 3 out of range"),
        (-1, "vertex mask -1 is negative"),
    ])
    def test_induced_refuses_vertices_outside_the_complex(self, W, message):
        with pytest.raises(ValueError, match="^%s$" % message):
            induced(full_triangle(), W)

    def test_absent_vertices_are_range_checked_but_leave_the_mask(self):
        K = closure([(0, 1)], 4)  # vertices 2 and 3 are absent
        assert induced(K, (3, 2, 0)) == closure([(0,)], 4)
        with pytest.raises(ValueError, match="^vertex 4 out of range$"):
            induced(K, (3, 4, 0))

    def test_skeleton_known(self):
        K = full_triangle()
        assert skeleton(K, 1) == triangle_boundary()
        assert skeleton(K, 2) == K
        assert skeleton(K, 0).f_vector() == (3,)
        assert skeleton(K, -1).faces == {0}

    def test_skeleton_rejects_below_minus_one(self):
        with pytest.raises(ValueError):
            skeleton(full_triangle(), -2)

    def test_induced_then_skeleton_commute(self):
        rng = rng_for("ind-skel")
        for _ in range(20):
            K = random_complex(rng, 7, 3)
            W = mask_of(rng.sample(range(7), 4))
            s = rng.randrange(-1, 3)
            assert skeleton(induced(K, W), s) == induced(skeleton(K, s), W)


class TestJoin:
    def test_matches_brute_force(self):
        rng = rng_for("join-brute")
        for _ in range(20):
            K = random_complex(rng, rng.randrange(1, 5), rng.randrange(0, 2))
            L = random_complex(rng, rng.randrange(1, 5), rng.randrange(0, 2))
            J = join(K, L)
            want = {a | (b << K.n_vertices) for a in K.faces for b in L.faces}
            assert J.n_vertices == K.n_vertices + L.n_vertices
            assert J.faces == want

    def test_two_point_sets_give_four_cycle(self):
        D = closure([(0,), (1,)], 2)
        C = join(D, D)
        assert C.f_vector() == (4, 4)
        assert C.dim == 1
        # every vertex of the cycle has exactly two neighbors
        assert all(len(star(C, v).vertices()) == 3 for v in range(4))

    def test_join_with_void_is_void(self):
        K = full_triangle()
        void = SimplicialComplex(2, [])
        assert len(join(K, void)) == 0

    def test_join_with_empty_face_complex_relabels_only(self):
        K = full_triangle()
        E = SimplicialComplex(2, [0])
        J = join(K, E)
        assert J.n_vertices == 5
        assert J.faces == K.faces

    def test_dimension_adds(self):
        rng = rng_for("join-dim")
        for _ in range(10):
            K = random_complex(rng, 4, 1)
            L = random_complex(rng, 4, 2)
            assert join(K, L).dim == K.dim + L.dim + 1

    def test_budget(self):
        K = closure([tuple(range(5))], 5)
        with pytest.raises(BudgetExceeded):
            join(K, K, max_faces=100)


class TestNerve:
    def test_three_arcs_of_a_hexagon(self):
        A = closure([(0, 1), (1, 2)], 6)
        B = closure([(2, 3), (3, 4)], 6)
        C = closure([(4, 5), (5, 0)], 6)
        N = nerve([A, B, C])
        assert N.n_vertices == 3
        # pairwise overlaps but no triple point: boundary of a triangle
        assert N.faces == {0, 1, 2, 4, 0b011, 0b101, 0b110}

    def test_common_vertex_gives_full_simplex(self):
        members = [closure([(0, v)], 5) for v in range(1, 5)]
        N = nerve(members)
        assert len(N) == 2 ** len(members)

    def test_face_budget(self):
        # twelve members through one vertex: 4,096 faces
        members = [closure([(0, v)], 13) for v in range(1, 13)]
        assert len(nerve(members, max_faces=4096)) == 4096
        with pytest.raises(BudgetExceeded, match="nerve exceeds 4095 faces"):
            nerve(members, max_faces=4095)

    def test_member_without_vertex_rejected(self):
        with pytest.raises(ValueError):
            nerve([closure([(0,)], 3), SimplicialComplex(3, [0])])

    def test_universe_mismatch_rejected(self):
        with pytest.raises(ValueError):
            nerve([closure([(0,)], 3), closure([(0,)], 4)])

    def test_empty_family(self):
        N = nerve([])
        assert N.n_vertices == 0 and len(N) == 0

    def test_faces_are_exactly_overlapping_subfamilies(self):
        rng = rng_for("nerve-overlap")
        for _ in range(15):
            n = 6
            members = [random_complex(rng, n, 1, force_dim=False) for _ in range(4)]
            members = [K for K in members if K.vertices()]
            if not members:
                continue
            N = nerve(members)
            for mask in range(1 << len(members)):
                chosen = [members[i] for i in bits_of(mask)]
                common = set(range(n))
                for K in chosen:
                    common &= set(K.vertices())
                assert (mask in N.faces) == bool(common or mask == 0)


class TestQStar:
    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            is_q_star(full_triangle(), 0)

    def test_too_few_vertices(self):
        res = is_q_star(full_triangle(), 3)
        assert not res
        assert res.holds is False and res.violating is None and res.q == 3

    def test_complete_graph_holds(self):
        K = skeleton(closure([tuple(range(5))], 5), 1)
        res = is_q_star(K, 2)
        assert res
        assert res.violating is None

    def test_disjoint_edges_fail_at_q_two(self):
        K = closure([(0, 1), (2, 3)], 4)
        assert is_q_star(K, 1)
        res = is_q_star(K, 2)
        assert not res
        # the pair {0, 1} already fails: no third vertex is joined to both
        assert res.violating == (0, 1)

    def test_matches_oracle(self):
        rng = rng_for("qstar-oracle")
        for _ in range(60):
            K = random_complex(rng, rng.randrange(2, 8), rng.randrange(0, 4))
            q = rng.randrange(1, 4)
            assert is_q_star(K, q).violating == oracle_is_q_star(K, q)

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 3), st.sampled_from((None, 2, 3)))
    def test_violating_and_holds_match_the_oracle(self, rng, q, cap):
        K = random_complex(rng, rng.randrange(1, 8), rng.randrange(0, 4))
        if cap is not None:
            K = skeleton(K, cap - 1)
        res = is_q_star(K, q)
        violating = oracle_is_q_star(K, q)
        assert res.violating == violating
        assert res.holds == (len(K.vertices()) > q and violating is None)

    def test_node_budget(self):
        # 30 isolated vertices: C(30, 8) q-sets, refused before any is tested
        K = closure([(v,) for v in range(30)], 30)
        with pytest.raises(BudgetExceeded, match=r"^q-star check would test C\(30, 8\)"):
            is_q_star(K, 8, node_budget=100)
        assert is_q_star(K, 2, node_budget=435)
        with pytest.raises(BudgetExceeded):
            is_q_star(K, 2, node_budget=434)

    def test_result_is_frozen_dataclass(self):
        res = QStarResult(holds=True, q=1)
        with pytest.raises(Exception):
            res.holds = False


class TestColorfulFace:
    def test_picks_lexicographic_first(self):
        K = closure([(0, 2), (0, 3), (1, 2)], 4)
        assert find_colorful_face(K, [(0, 1), (2, 3)]) == (0, 2)

    def test_none_when_blocked(self):
        K = closure([(0, 1)], 4)
        assert find_colorful_face(K, [(0,), (2,)]) is None

    def test_void_complex(self):
        # not even the empty face: no blocks still answers None
        assert find_colorful_face(SimplicialComplex(3, []), [(0,), (1,)]) is None
        assert find_colorful_face(SimplicialComplex(3, []), []) is None

    def test_no_blocks(self):
        assert find_colorful_face(full_triangle(), []) == ()

    def test_blocks_must_be_disjoint(self):
        with pytest.raises(ValueError):
            find_colorful_face(full_triangle(), [(0, 1), (1, 2)])

    def test_respects_partition(self):
        # blocks interleave and skip vertices, so the first pick in block
        # order is not the first face in vertex order
        rng = rng_for("colorful")
        for _ in range(30):
            K = random_complex(rng, 8, 3)
            owner = [rng.randrange(4) for _ in range(8)]  # block 3 is left out
            blocks = [tuple(v for v in range(8) if owner[v] == i) for i in range(3)]
            got = find_colorful_face(K, blocks)
            brute = next((tuple(sorted(pick)) for pick in product(*blocks)
                          if K.has_face(pick)), None)
            assert got == brute


@given(st.integers(0, 255))
def test_closure_is_downward_closed(seed):
    rng = rng_for("closure-prop", seed)
    n = rng.randrange(1, 7)
    facets = [rng.randrange(1 << n) for _ in range(rng.randrange(1, 4))]
    K = closure(facets, n)
    for f in K.faces:
        for v in bits_of(f):
            assert (f ^ (1 << v)) in K.faces


@given(st.integers(0, 255))
@settings(deadline=None)
def test_completion_only_grows(seed):
    rng = rng_for("completion-prop", seed)
    K = random_complex(rng, rng.randrange(2, 7), rng.randrange(0, 3))
    got = completion(K, K.dim)
    assert K.faces <= got.faces


# ---------------------------------------------------------------------------
# the one levelwise enumerator and its four builders, against brute force


def _brute_faces(n, is_face, max_card=None):
    """Every vertex subset of size at most max_card that is_face accepts."""
    cap = n if max_card is None else max_card
    return {m for m in range(1 << n) if m.bit_count() <= cap and is_face(bits_of(m))}


def _check_recorded_facets(K):
    """K's recorded facets are its faces with no extender by size and then
    lexicographically, and its document is the extender table's."""
    assert K._facets == sorted((f for f, e in K.ext.items() if not e),
                               key=lambda f: (f.bit_count(), bits_of(f)))
    unrecorded = SimplicialComplex(K.n_vertices, K.faces, _validated=True)
    assert unrecorded._facets is None
    assert complex_to_doc(K) == complex_to_doc(unrecorded)


def _affine_and_explicit(pts):
    """AffineMatroid(pts), an ExplicitMatroid with the same independent
    sets found by brute force, and those sets as masks."""
    independent = _brute_faces(
        len(pts), lambda vs: oracle_affinely_independent([pts[i] for i in vs]))
    return (AffineMatroid(pts), ExplicitMatroid(len(pts), map(bits_of, independent)),
            independent)


def _explicit_truncation(pts, top):
    """An ExplicitMatroid listing the independent sets of the affine matroid
    of pts truncated to rank top, found by brute force."""
    return ExplicitMatroid(len(pts), [
        bits_of(f) for f in range(1 << len(pts)) if f.bit_count() <= top
        and oracle_affinely_independent([pts[i] for i in bits_of(f)])])


@st.composite
def _matroids(draw):
    """A loopless matroid on at most 8 elements: an AffineMatroid of
    planted or low-rank points (d = 1..4), the same truncated to rank
    R >= 1 (what complex uniformity --rank R builds), a PartitionMatroid, a
    UniformMatroid of rank r >= 1, or an ExplicitMatroid listing the
    independent sets of a truncated affine matroid."""
    kind = draw(st.sampled_from(("affine", "truncated", "partition", "uniform", "explicit")))
    if kind in ("affine", "truncated", "explicit"):
        pts = draw(st.one_of(planted_points(max_distinct=7), low_rank_points()))[1][:8]
        if kind == "affine":
            return AffineMatroid(pts)
        top = draw(st.integers(1, 4))
        if kind == "truncated":
            return AffineMatroid(pts, rank=top)
        return _explicit_truncation(pts, top)
    n = draw(st.integers(0, 7))
    if kind == "uniform":
        return UniformMatroid(n, draw(st.integers(1, 8)))
    labels = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return PartitionMatroid([[e for e in range(n) if labels[e] == b] for b in range(4)])


def _check_budget_boundary(build, K, what):
    # exactly len(K) faces answer; one fewer raises with the builder's
    # message (the budget is checked as faces are added to the empty one)
    assert build(max_faces=len(K)) == K
    if len(K) == 1:
        return
    with pytest.raises(BudgetExceeded, match="^%s exceeds %d faces$" % (what, len(K) - 1)):
        build(max_faces=len(K) - 1)


class TestLevelwiseEnumerator:
    def test_grows_each_face_once(self):
        # a hereditary predicate: sets with no two consecutive vertices,
        # whose extenders are the vertices neither in a face nor beside it
        def extenders(face):
            return 0b1111111 & ~(face | face << 1 | face >> 1)

        seen = []

        def grow(face, prev, cur):
            seen.append((face, dict(prev), dict(cur)))
            return extenders(face)

        K = levelwise_complex(7, grow, max_card=3)
        want = _brute_faces(7, lambda vs: all(b - a > 1 for a, b in zip(vs, vs[1:])), 3)
        assert K.faces == want
        # every face below the cap is grown, once, as the mask the complex
        # stores, level by level and lexicographically within a level
        grown = [face for face, _, _ in seen]
        assert all(type(f) is int for f in grown)
        assert grown == sorted((f for f in want if f.bit_count() < 3),
                               key=lambda f: (f.bit_count(), bits_of(f)))
        # the enumerator keeps the extender table: each grow sees every face
        # of the level below with its extenders, and the faces of its own
        # level grown before it with theirs
        for i, (face, prev, cur) in enumerate(seen):
            size = face.bit_count()
            assert prev == {f: extenders(f) for f in grown if f.bit_count() == size - 1}
            assert cur == {f: extenders(f) for f in grown[:i] if f.bit_count() == size}
        _check_recorded_facets(K)

    def test_empty_vertex_set(self):
        for K in (levelwise_complex(0, lambda t, prev, cur: 0),
                  levelwise_complex(3, lambda t, prev, cur: 0b111 & ~t, max_card=0)):
            assert K.faces == {0}
            assert K._facets == [0]

    def test_negative_cap_is_refused_by_every_builder(self):
        pts = [Point((0, 0)), Point((1, 0)), Point((0, 1))]
        for build in (
            lambda cap: levelwise_complex(3, lambda t, prev, cur: 0b111 & ~t, max_card=cap),
            lambda cap: levelwise_complex(0, lambda t, prev, cur: 0, max_card=cap),
            lambda cap: general_position_complex(pts, max_card=cap),
            lambda cap: general_position_complex([], max_card=cap),
            lambda cap: matroid_independence_complex(AffineMatroid(pts), max_card=cap),
            lambda cap: matroid_independence_complex(UniformMatroid(3, 2), max_card=cap),
            lambda cap: uniformity_complex(AffineMatroid(pts), max_card=cap),
            lambda cap: completion(closure([(0, 1)], 3), 1, max_card=cap),
        ):
            assert build(0).faces == {0}
            for cap in (-1, -2):
                with pytest.raises(ValueError, match="^max_card must be nonnegative, got %d$"
                                   % cap):
                    build(cap)

    def test_a_generic_oracle_is_asked_only_of_parent_extenders_above_a_face(self):
        asked = []

        class Spy(PartitionMatroid):
            def _independent(self, s):
                asked.append(s)
                return super()._independent(s)

        blocks = [[0, 3, 6], [1, 4], [2, 5, 7]]
        K = matroid_independence_complex(Spy(blocks))
        block = {e: i for i, b in enumerate(blocks) for e in b}
        assert K.faces == _brute_faces(8, lambda vs: len({block[v] for v in vs}) == len(vs))
        # each set is asked once, as a face plus a vertex above it that
        # extends the face's parent, so never more often than a predicate
        # asked of every vertex above every face
        assert len(asked) == len(set(asked))
        for s in asked:
            *face, w = sorted(s)
            assert mask_of(face) in K.faces
            assert not face or mask_of(face[:-1]) | 1 << w in K.faces
        assert len(asked) < sum(8 - f.bit_length() for f in K.faces)

    # every complex the enumerator grows records its facets as it finds
    # them: they must be the maximal faces in the order complex_to_doc
    # prints, so its document matches the extender table's

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(planted_points(max_distinct=7), low_rank_points()), st.integers(1, 4),
           _matroids(), _facet_lists, st.data())
    def test_recorded_facets_are_the_maximal_faces_in_print_order(
            self, case, top, oracle, facet_list, data):
        pts = case[1][:7]
        affine, explicit, _ = _affine_and_explicit(pts)
        oracles = (affine, explicit, AffineMatroid(pts, rank=top),
                   _explicit_truncation(pts, top), oracle)
        n, facets = facet_list
        K = closure(facets, n)
        for max_card in (None, *range(max(len(pts), n, oracle.ground_size) + 1)):
            _check_recorded_facets(general_position_complex(pts, max_card))
            for o in oracles:
                _check_recorded_facets(matroid_independence_complex(o, max_card))
                _check_recorded_facets(uniformity_complex(o, max_card))
            if K.faces:  # the empty complex is its own completion
                for j in range(K.dim, K.dim + 3):
                    _check_recorded_facets(completion(K, j, max_card))
        members = data.draw(st.lists(st.lists(st.integers(1, (1 << n) - 1), min_size=1,
                                              max_size=3), max_size=6)) if n else []
        if members:
            _check_recorded_facets(nerve(closure(m, n) for m in members))

    # the gp complex grows by popcounts on the flat index of its distinct
    # points in R^d, so points of low rank (collinear points in d = 3, say)
    # are indexed in R^d, as an affine matroid's are; d = 4 runs the deepest
    # flat key

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(planted_points(max_distinct=7), planted_points(dims=(4, 4), max_distinct=7),
                     low_rank_points()), st.data())
    def test_general_position_complex(self, case, data):
        pts = case[1][:7]
        max_card = data.draw(st.one_of(st.none(), st.integers(0, len(pts))))
        K = general_position_complex(pts, max_card=max_card)
        want = _brute_faces(len(pts), lambda vs: oracle_gp([pts[i] for i in vs]), max_card)
        assert K.n_vertices == len(pts) and K.faces == want
        _check_budget_boundary(
            lambda max_faces: general_position_complex(pts, max_card, max_faces),
            K, "general-position complex")

    @pytest.mark.parametrize("coords, max_card", [
        # three points on a line in d = 3, with a fourth off it: the pair
        # level needs the lines
        ([(0, 0, 0), (1, 2, 3), (2, 4, 6), (0, 1, 0)], 3),
        # four coplanar points in d = 3, no three on a line: the triple
        # level needs the planes
        ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)], 3),
        ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)], 4),
        # five points on a hyperplane of d = 4, in general position in it:
        # the level of four points needs the 3-flats
        ([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 0),
          (0, 0, 0, 1)], 4),
        ([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 0),
          (0, 0, 0, 1)], 5),
    ])
    def test_flats_are_indexed_as_deep_as_each_level_needs(self, coords, max_card):
        pts = [Point(c) for c in coords]
        n = len(pts)
        want = _brute_faces(n, lambda vs: oracle_gp([pts[i] for i in vs]), max_card)
        # every point but the last lies on one flat, which holds one point
        # more than general position allows: under a cap that reaches it,
        # its set is no face while all its subsets are; under a lower cap
        # every capped subset of it is a face
        flat = (1 << n - 1) - 1
        if flat.bit_count() <= max_card:
            assert flat not in want
            assert all(flat ^ 1 << v in want for v in bits_of(flat))
        else:
            assert all(f in want for f in range(flat + 1)
                       if f & flat == f and f.bit_count() <= max_card)
        assert general_position_complex(pts, max_card).faces == want
        assert matroid_independence_complex(AffineMatroid(pts), max_card).faces == {
            f for f in want if oracle_affinely_independent([pts[i] for i in bits_of(f)])}

    def test_the_index_is_built_only_for_the_levels_asked(self, monkeypatch):
        built = []
        build = FlatIndex.build

        def spy(index, node_budget=None):
            built.append(index.top)
            return build(index, node_budget)

        monkeypatch.setattr(FlatIndex, "build", spy)
        pts = [Point((t, t * t, t ** 3)) for t in range(8)] + [Point((0, 0, 0))]
        assert general_position_complex(pts, max_card=2).f_vector() == (9, 35)
        assert matroid_independence_complex(AffineMatroid(pts), 2).f_vector() == (9, 35)
        assert built == []
        general_position_complex(pts, max_card=3)
        assert built == [1]
        built.clear()
        general_position_complex(pts)
        assert built == [1, 2]

    def test_the_face_budget_bounds_the_index(self, monkeypatch):
        # the j-flats are indexed only once every face of j+1 vertices is
        # admitted: a budget that refuses the first triple of 9 points in
        # general position stops the enumeration before the planes
        built = []
        build = FlatIndex.build

        def spy(index, node_budget=None):
            built.append(index.top)
            return build(index, node_budget)

        monkeypatch.setattr(FlatIndex, "build", spy)
        pts = [Point((t, t * t, t ** 3)) for t in range(9)]
        with pytest.raises(BudgetExceeded, match="^general-position complex exceeds 46 faces$"):
            general_position_complex(pts, max_faces=1 + 9 + 36)
        assert built == [1]

    # affine matroids build the independence complex on their own points,
    # by popcounts; an ExplicitMatroid listing the same independent sets
    # takes the generic oracle path, so each is checked against the other
    # and brute force, on planted points and on points of low affine rank,
    # and so is the uniformity complex completed from each

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(planted_points(max_distinct=7), low_rank_points()))
    def test_independence_complex(self, case):
        pts = case[1][:8]
        n = len(pts)
        affine, explicit, independent = _affine_and_explicit(pts)
        assert affine.full_rank == oracle_rank([p.hom for p in pts]) == explicit.full_rank
        for max_card in (None, *range(n + 1)):
            K = matroid_independence_complex(affine, max_card=max_card)
            assert K == matroid_independence_complex(explicit, max_card=max_card)
            assert K.faces == {f for f in independent
                               if max_card is None or f.bit_count() <= max_card}
        K = matroid_independence_complex(affine)
        for oracle in (AffineMatroid(pts), explicit):
            _check_budget_boundary(
                lambda max_faces: matroid_independence_complex(oracle, None, max_faces),
                K, "independence complex")

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(planted_points(max_distinct=7), low_rank_points()))
    def test_uniformity_complex(self, case):
        pts = case[1][:8]
        n = len(pts)
        affine, explicit, _ = _affine_and_explicit(pts)
        r = oracle_rank([p.hom for p in pts])
        uniform = _brute_faces(n, lambda vs: oracle_is_uniform(explicit, vs, r))
        for max_card in (None, *range(n + 1)):
            K = uniformity_complex(affine, max_card=max_card)
            assert K == uniformity_complex(explicit, max_card=max_card)
            cap = min(n, r + 3) if max_card is None else max_card
            assert K.faces == {f for f in uniform if f.bit_count() <= cap}
        K = uniformity_complex(affine)
        for oracle in (AffineMatroid(pts), explicit):
            _check_budget_boundary(
                lambda max_faces: uniformity_complex(oracle, max_faces=max_faces),
                K, "uniformity complex")

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(planted_points(max_distinct=7), low_rank_points()), st.integers(1, 4))
    def test_truncated_affine_matroid(self, case, top):
        # AffineMatroid(pts, rank=top) on its own points, against the
        # ExplicitMatroid listing its independent sets on the oracle path
        pts = case[1][:8]
        truncated, explicit = AffineMatroid(pts, rank=top), _explicit_truncation(pts, top)
        assert truncated.full_rank == explicit.full_rank
        for max_card in (None, *range(len(pts) + 1)):
            assert matroid_independence_complex(truncated, max_card) == \
                matroid_independence_complex(explicit, max_card)
            assert uniformity_complex(truncated, max_card) == \
                uniformity_complex(explicit, max_card)
        assert max_uniform_size(truncated) == max_uniform_size(explicit)

    @settings(max_examples=80, deadline=None)
    @given(_matroids())
    def test_uniformity_complex_of_every_oracle(self, oracle):
        n = oracle.ground_size
        r = max(f.bit_count() for f in range(1 << n) if oracle.is_independent(bits_of(f)))
        assert oracle.full_rank == r
        uniform = _brute_faces(n, lambda vs: oracle_is_uniform(oracle, vs, r))
        for max_card in (None, *range(n + 1)):
            K = uniformity_complex(oracle, max_card=max_card)
            cap = min(n, r + 3) if max_card is None else max_card
            assert K.n_vertices == n
            assert K.faces == {f for f in uniform if f.bit_count() <= cap}
            _check_budget_boundary(
                lambda max_faces: uniformity_complex(oracle, max_card, max_faces),
                K, "uniformity complex")

    @pytest.mark.parametrize("oracle, max_card", [
        # at most r points: the uniform sets are the independent ones
        (AffineMatroid([(0, 0), (4, 1), (1, 3), (3, 3), (2, 5), (5, 4)]), 3),
        (UniformMatroid(6, 3), 3),
        # two elements of one block lie in a dependent r-set when r >= 2
        (PartitionMatroid([[0, 1], [2, 3], [4]]), None),
    ])
    def test_uniformity_budget_where_it_is_the_independence_complex(self, oracle, max_card):
        K = uniformity_complex(oracle, max_card=max_card)
        assert K == matroid_independence_complex(oracle, max_card=max_card)
        _check_budget_boundary(
            lambda max_faces: uniformity_complex(oracle, max_card, max_faces),
            K, "uniformity complex")

    def test_uniformity_of_rank_zero_has_loops(self):
        for oracle in (UniformMatroid(3, 0), ExplicitMatroid(2, [()])):
            with pytest.raises(ValueError, match="loops"):
                uniformity_complex(oracle)
        assert uniformity_complex(UniformMatroid(0, 0)).faces == {0}

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=3),
                          min_size=1, max_size=3),
                 max_size=8))))
    def test_nerve(self, case):
        n, facet_lists = case
        family = [closure(facets, n) for facets in facet_lists]
        K = nerve(family)
        if not family:
            assert K.faces == frozenset()
            return

        def share_a_face(members):
            if not members:
                return True
            common = set(family[members[0]].faces)
            for i in members[1:]:
                common &= family[i].faces
            return any(common)

        assert K.faces == _brute_faces(len(family), share_a_face)
        _check_budget_boundary(lambda max_faces: nerve(family, max_faces), K, "nerve")
