"""Reduced rational homology: known spaces, oracle agreement, truncation,
the sparse exact rank, and the homological connectivity predicate."""

import pytest

from genpos import (
    BettiProfile,
    BudgetExceeded,
    SimplicialComplex,
    betti_up_to,
    closure,
    is_homologically_k_connected,
    join,
    skeleton,
)
from genpos.homology import sparse_rank
from conftest import oracle_betti, oracle_rank, random_complex, rng_for


def points(n):
    return closure([(v,) for v in range(n)], n)


def rp2_six_vertices():
    # minimal projective plane triangulation, edge links are 5-cycles
    facets = [
        (0, 1, 2), (0, 2, 3), (0, 1, 5), (0, 3, 4), (0, 4, 5),
        (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5),
    ]
    return closure(facets, 6)


class TestKnownSpaces:
    def test_single_point(self):
        prof = betti_up_to(points(1), 0)
        assert prof.betti == (0,)
        assert prof.euler_partial == 1
        assert prof.f_vector == (1, 0)

    def test_two_points(self):
        assert betti_up_to(points(2), 1).betti == (1, 0)

    def test_triangle_boundary_is_a_circle(self):
        K = skeleton(closure([(0, 1, 2)], 3), 1)
        prof = betti_up_to(K, 1)
        assert prof.betti == (0, 1)
        assert prof.f_vector == (3, 3, 0)
        assert prof.euler_partial == 0

    def test_filled_triangle_is_contractible(self):
        assert betti_up_to(closure([(0, 1, 2)], 3), 1).betti == (0, 0)

    def test_tetrahedron_boundary_is_a_sphere(self):
        K = skeleton(closure([(0, 1, 2, 3)], 4), 2)
        assert betti_up_to(K, 2).betti == (0, 0, 1)

    def test_join_of_three_point_pairs_is_a_two_sphere(self):
        S0 = points(2)
        S2 = join(join(S0, S0), S0)
        assert betti_up_to(S2, 2).betti == (0, 0, 1)

    def test_join_of_two_point_pairs_is_a_circle(self):
        S0 = points(2)
        assert betti_up_to(join(S0, S0), 1).betti == (0, 1)

    def test_projective_plane_rationally_trivial(self):
        K = rp2_six_vertices()
        assert K.f_vector() == (6, 15, 10)
        prof = betti_up_to(K, 2)
        assert prof.betti == (0, 0, 0)
        assert prof.euler_partial == 1

    def test_wedge_of_circles(self):
        # two triangles sharing the vertex 0
        K = closure([(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)], 5)
        assert betti_up_to(K, 1).betti == (0, 2)


class TestOracleAgreement:
    def test_random_complexes(self):
        rng = rng_for("betti-oracle")
        for _ in range(40):
            n = rng.randrange(1, 8)
            K = random_complex(rng, n, rng.randrange(0, 4))
            k = max(K.dim, 0)
            assert betti_up_to(K, k).betti == oracle_betti(K, up_to=k)

    def test_truncated_degrees(self):
        rng = rng_for("betti-trunc")
        for _ in range(25):
            K = random_complex(rng, 7, 3)
            full = oracle_betti(K, up_to=3)
            for k in range(0, 3):
                assert betti_up_to(K, k).betti == full[: k + 1]

    def test_skeleton_suffices(self):
        # degrees <= k only read the (k+1)-skeleton
        rng = rng_for("betti-skel")
        for _ in range(20):
            K = random_complex(rng, 7, 3)
            for k in range(0, 3):
                a = betti_up_to(K, k).betti
                b = betti_up_to(skeleton(K, k + 1), k).betti
                assert a == b

    def test_reduced_euler_identity(self):
        rng = rng_for("betti-euler")
        for _ in range(25):
            K = random_complex(rng, 7, rng.randrange(0, 4))
            k = max(K.dim, 0)
            prof = betti_up_to(K, k)
            alt = sum(b if i % 2 == 0 else -b for i, b in enumerate(prof.betti))
            assert prof.euler_partial - 1 == alt

    def test_seven_vertex_complexes(self):
        rng = rng_for("betti-mod")
        for _ in range(25):
            K = random_complex(rng, 7, rng.randrange(0, 4))
            k = max(K.dim, 0)
            assert betti_up_to(K, k).betti == oracle_betti(K, up_to=k)

    def test_cones_are_contractible(self):
        rng = rng_for("betti-cone")
        for _ in range(15):
            K = random_complex(rng, 5, rng.randrange(0, 3))
            cone = join(K, points(1))
            prof = betti_up_to(cone, cone.dim if cone.dim >= 0 else 0)
            assert all(b == 0 for b in prof.betti)


class TestSparseRank:
    def test_matches_oracle_on_random_sparse_columns(self):
        # entries in -3..3 reach the fraction-free branch for non-unit pivots
        rng = rng_for("sparse-rank")
        for _ in range(300):
            n = rng.randint(0, 8)
            m = rng.randint(0, 8)
            density = rng.choice([0.2, 0.4, 0.7])
            rows = [
                [rng.randint(-3, 3) if rng.random() < density else 0 for _ in range(m)]
                for _ in range(n)
            ]
            if n >= 2 and rng.random() < 0.3:
                i, j = rng.sample(range(n), 2)
                c = rng.randint(-2, 2)
                rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
            columns = [{r: rows[r][c] for r in range(n) if rows[r][c]} for c in range(m)]
            assert sparse_rank(columns) == oracle_rank(rows)

    def test_non_unit_pivots(self):
        assert sparse_rank([{0: 2}, {0: 3}]) == 1
        # rows (1, 1) and (2, 3): independent, pivot 2 on the lowest row
        assert sparse_rank([{0: 1, 1: 2}, {0: 1, 1: 3}]) == 2
        assert sparse_rank([{0: 1, 1: 2}, {0: 2, 1: 4}]) == 1
        assert sparse_rank([{1: 3, 2: -2}, {1: 2, 2: 2}, {1: 5}]) == 2

    def test_empty(self):
        assert sparse_rank([]) == 0
        assert sparse_rank([{}, {}]) == 0


class TestValidationAndBudget:
    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            betti_up_to(points(1), -1)

    def test_profile_rejects_negative_betti(self):
        with pytest.raises(ValueError):
            BettiProfile(up_to=0, betti=(-1,), euler_partial=0, f_vector=(0, 0))

    def test_budget(self):
        K = closure([tuple(range(10))], 10)
        with pytest.raises(BudgetExceeded):
            betti_up_to(K, 3, max_faces=20)

    def test_budget_counts_only_needed_sizes(self):
        # 10 vertices but k=0 reads faces of size <= 2 only
        K = closure([tuple(range(10))], 10)
        prof = betti_up_to(K, 0, max_faces=60)
        assert prof.betti == (0,)


class TestConnectivityPredicate:
    def test_empty_like_complexes(self):
        assert not is_homologically_k_connected(SimplicialComplex(3, []), -1)
        assert not is_homologically_k_connected(SimplicialComplex(3, [0]), -1)

    def test_minus_one_means_nonempty(self):
        assert is_homologically_k_connected(points(3), -1)

    def test_degree_zero_means_connected(self):
        assert not is_homologically_k_connected(points(2), 0)
        assert is_homologically_k_connected(closure([(0, 1)], 2), 0)

    def test_circle_connectivity(self):
        K = skeleton(closure([(0, 1, 2)], 3), 1)
        assert is_homologically_k_connected(K, 0)
        assert not is_homologically_k_connected(K, 1)

    def test_filled_triangle(self):
        assert is_homologically_k_connected(closure([(0, 1, 2)], 3), 1)

    def test_rejects_low_degree(self):
        with pytest.raises(ValueError):
            is_homologically_k_connected(points(1), -2)
