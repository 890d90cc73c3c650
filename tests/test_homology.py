"""Reduced rational homology: known spaces, oracle agreement, truncation,
the sparse exact rank and its pivot map, clearing, and the homological
connectivity predicate."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genpos import (
    BettiProfile,
    BudgetExceeded,
    Point,
    SimplicialComplex,
    betti_up_to,
    closure,
    general_position_complex,
    is_homologically_k_connected,
    join,
    skeleton,
)
from genpos import homology
from genpos.homology import sparse_rank
from conftest import oracle_betti, oracle_rank, random_complex, rng_for


def points(n):
    return closure([(v,) for v in range(n)], n)


# minimal projective plane triangulation, edge links are 5-cycles
RP2_FACETS = [
    (0, 1, 2), (0, 2, 3), (0, 1, 5), (0, 3, 4), (0, 4, 5),
    (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5),
]


def rp2_six_vertices():
    return closure(RP2_FACETS, 6)


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


class TestEveryDegree:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 4), st.sampled_from([0.3, 0.5, 0.8]),
           st.integers(0, 2**32 - 1))
    def test_random_complexes_against_the_oracle(self, n, dim, density, seed):
        K = random_complex(random.Random(seed), n, dim, density)
        full = oracle_betti(K, up_to=K.dim + 1)
        # k = dim K + 1 reads no face beyond the top dimension
        for k in range(K.dim + 2):
            assert betti_up_to(K, k).betti == full[: k + 1]


def spy_on_ranks(monkeypatch):
    """Check every rank betti_up_to asks for against the Fraction oracle and
    record (number of columns, pivot map) per call. The columns sparse_rank
    leaves unbuilt are built here too, so the oracle sees every column and
    the pivot map holds every pivot."""
    calls = []

    def checked(columns, pivots, unbuilt, build):
        seen = []

        def copied(columns):
            for col in columns:
                seen.append(dict(col))
                yield col

        def built(f):
            seen.append(build(f))
            return build(f)

        rank = sparse_rank(copied(columns), pivots, unbuilt, built)
        every = dict(pivots)
        for low, f in unbuilt.items():
            every[low] = build(f)
            seen.append(build(f))
        rows = 1 + max((r for c in seen for r in c), default=-1)
        dense = [[c.get(r, 0) for c in seen] for r in range(rows)]
        assert rank == len(every) == oracle_rank(dense)
        calls.append((len(seen), every))
        return rank

    monkeypatch.setattr(homology, "sparse_rank", checked)
    return calls


class TestClearing:
    @pytest.mark.parametrize("K", [
        join(rp2_six_vertices(), points(1)),
        closure([(0,) + tuple(v + 1 for v in f) for f in RP2_FACETS], 7),
    ], ids=["joined-with-a-point", "apex-first-cone"])
    def test_cones_over_the_projective_plane(self, K, monkeypatch):
        calls = spy_on_ranks(monkeypatch)
        assert betti_up_to(K, 3).betti == (0, 0, 0, 0) == oracle_betti(K, up_to=3)
        # delta_0 .. delta_2; each skips the rows its predecessor pivoted on
        # (delta_0 the last vertex, the augmentation's pivot)
        f = K.f_vector()
        assert [n for n, _ in calls] == [f[0] - 1, f[1] - len(calls[0][1]),
                                         f[2] - len(calls[1][1])]

    def test_a_torsion_pivot_clears_a_column(self, monkeypatch):
        # H^2(RP^2; Z) = Z/2 shows as a pivot 2 in delta_1; a tetrahedron on
        # the triangle 012 gives delta_2 a column there to clear
        K = closure(RP2_FACETS + [(0, 1, 2, 6)], 7)
        calls = spy_on_ranks(monkeypatch)
        assert betti_up_to(K, 3).betti == (0, 0, 0, 0) == oracle_betti(K, up_to=3)
        pivots = calls[1][1]
        assert sorted(abs(col[low]) for low, col in pivots.items())[-1] == 2
        assert calls[2][0] == K.f_vector()[2] - len(pivots)

    def test_a_fraction_free_step_on_the_coboundary(self, monkeypatch):
        # in mask order delta_1 reduces a column against a non-unit pivot
        K = closure(RP2_FACETS + [(1, 3, 6), (0, 4, 5, 6)], 7)
        calls = spy_on_ranks(monkeypatch)
        assert betti_up_to(K, 3).betti == (0, 1, 0, 0) == oracle_betti(K, up_to=3)
        assert any(abs(col[low]) > 1 for low, col in calls[1][1].items())


def count_columns_built(monkeypatch):
    """The faces, one per call, whose coboundary column betti_up_to builds."""
    built = []
    real = homology._coboundary

    def counted(f, vertex_bits, index_above):
        built.append(f)
        return real(f, vertex_bits, index_above)

    monkeypatch.setattr(homology, "_coboundary", counted)
    return built


class TestApparentPivots:
    # sparse complexes have holes, so lowest rows collide and columns are built
    @settings(max_examples=80, deadline=None)
    @given(st.integers(3, 9), st.integers(1, 3), st.sampled_from([0.2, 0.3, 0.4]),
           st.integers(0, 2**32 - 1))
    def test_complexes_with_holes_against_the_oracle(self, n, dim, density, seed):
        K = random_complex(random.Random(seed), n, dim, density)
        k = max(K.dim, 0)
        assert betti_up_to(K, k).betti == oracle_betti(K, up_to=k)

    def test_collisions_build_columns(self, monkeypatch):
        built = count_columns_built(monkeypatch)
        rng = rng_for("betti-collisions")
        holes = 0
        for _ in range(40):
            K = random_complex(rng, rng.randrange(4, 10), rng.randrange(1, 4), 0.3)
            betti = betti_up_to(K, K.dim).betti
            assert betti == oracle_betti(K, up_to=K.dim)
            holes += any(betti)
        assert holes and built

    def test_free_lowest_rows_build_no_column(self, monkeypatch):
        built = count_columns_built(monkeypatch)
        assert betti_up_to(closure([tuple(range(7))], 7), 5).betti == (0,) * 6
        # as the bench row betti_up_to gp d=1 k=2: 7 points on a line, one repeated
        line = [Point((t,)) for t in (13, -8, 21, 0, -34, 5, 3, -8)]
        assert betti_up_to(general_position_complex(line, max_card=4), 2).betti == (0, 0, 0)
        assert built == []


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

    def test_pivot_map(self):
        pivots = {}
        # the second column meets the pivot 2 and reduces to {0: -1}
        assert sparse_rank([{0: 1, 1: 2}, {0: 1, 1: 3}, {0: 5, 1: 5}], pivots) == 2
        assert pivots == {1: {0: 1, 1: 2}, 0: {0: -1}}

    def test_pivot_map_keys_each_column_by_its_lowest_row(self):
        rng = rng_for("sparse-pivots")
        for _ in range(100):
            columns = [{r: rng.choice([-2, -1, 1, 3]) for r in range(6) if rng.random() < 0.4}
                       for _ in range(rng.randint(0, 8))]
            pivots = {}
            assert sparse_rank(columns, pivots) == len(pivots)
            assert all(col and max(col) == low for low, col in pivots.items())


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

    def test_huge_degree_refused_up_front(self):
        with pytest.raises(BudgetExceeded, match="^homology through degree 100000000 "):
            betti_up_to(points(1), 10**8)
        # k + 2 face sizes against a budget of 3 faces
        with pytest.raises(BudgetExceeded):
            betti_up_to(points(1), 2, max_faces=3)
        assert betti_up_to(points(1), 1, max_faces=3).betti == (0, 0)

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
