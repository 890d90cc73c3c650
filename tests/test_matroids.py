"""Matroid oracles, rank, intersection, and the uniformity layer."""

import pytest

from genpos import (
    AffineMatroid,
    BudgetExceeded,
    ExplicitMatroid,
    OracleError,
    PartitionMatroid,
    Point,
    UniformMatroid,
    completion,
    matroid_intersection,
    max_uniform_size,
    rank,
    uniformity_complex,
)
from genpos.matroids import independence_complex, is_uniform
from genpos.complexes import bits_of
from conftest import (
    oracle_is_uniform,
    oracle_max_common_independent,
    oracle_max_uniform_size,
    random_degenerate_points,
    random_gp_points,
    rng_for,
)


def brute_rank(oracle, subset):
    subset = sorted(set(subset))
    best = 0
    for mask in range(1 << len(subset)):
        S = frozenset(subset[i] for i in bits_of(mask))
        if len(S) > best and oracle.is_independent(S):
            best = len(S)
    return best


def collinear_plus_one():
    pts = [Point([0, 0]), Point([1, 0]), Point([2, 0]), Point([0, 1])]
    return AffineMatroid(pts)


def random_affine_matroid(rng, n=None):
    d = rng.randrange(1, 4)
    n = n if n is not None else rng.randrange(1, 8)
    if rng.random() < 0.5:
        pts = random_degenerate_points(rng, d, n)
    else:
        pts = random_gp_points(rng, d, n)
    return AffineMatroid(pts)


def random_partition_matroid(rng, n):
    elems = list(range(n))
    rng.shuffle(elems)
    blocks = []
    while elems:
        take = rng.randrange(1, len(elems) + 1)
        blocks.append(elems[:take])
        elems = elems[take:]
    return PartitionMatroid(blocks)


class TestOracles:
    def test_affine_independence(self):
        m = collinear_plus_one()
        assert m.is_independent({0, 1})
        assert m.is_independent({0, 1, 3})
        assert not m.is_independent({0, 1, 2})
        assert not m.is_independent({0, 1, 2, 3})

    def test_affine_parallel_elements(self):
        m = AffineMatroid([Point([1, 1]), Point([1, 1]), Point([0, 0])])
        assert m.is_independent({0})
        assert m.is_independent({1})
        assert not m.is_independent({0, 1})
        assert m.is_independent({0, 2})

    def test_partition(self):
        m = PartitionMatroid([(0, 1), (2,), (3, 4)])
        assert m.is_independent({0, 2, 4})
        assert not m.is_independent({0, 1})
        assert m.full_rank == 3

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            PartitionMatroid([(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            PartitionMatroid([(0,), (2,)])

    def test_uniform(self):
        m = UniformMatroid(5, 2)
        assert m.is_independent({0, 4})
        assert not m.is_independent({0, 1, 2})
        assert m.full_rank == 2
        with pytest.raises(ValueError):
            UniformMatroid(3, -1)

    def test_explicit(self):
        m = ExplicitMatroid(3, [(), (0,), (1,)])
        assert m.is_independent(())
        assert m.is_independent({1})
        assert not m.is_independent({2})

    def test_element_range_checked(self):
        m = UniformMatroid(3, 2)
        with pytest.raises(ValueError):
            m.is_independent({5})

    def test_negative_ground_size(self):
        with pytest.raises(ValueError):
            UniformMatroid(-1, 0)

    def test_memoization(self):
        calls = []

        class Counting(UniformMatroid):
            def _independent(self, s):
                calls.append(s)
                return super()._independent(s)

        m = Counting(4, 2)
        m.is_independent({0, 1})
        m.is_independent({0, 1})
        m.is_independent([1, 0])
        assert len(calls) == 1


class TestRank:
    def test_against_brute_force(self):
        rng = rng_for("rank-brute")
        for _ in range(30):
            m = random_affine_matroid(rng, n=rng.randrange(1, 7))
            sub = [e for e in range(m.ground_size) if rng.random() < 0.7]
            assert rank(m, sub) == brute_rank(m, sub)

    def test_partition_rank(self):
        rng = rng_for("rank-part")
        for _ in range(20):
            m = random_partition_matroid(rng, rng.randrange(1, 8))
            sub = [e for e in range(m.ground_size) if rng.random() < 0.7]
            assert rank(m, sub) == brute_rank(m, sub)

    def test_duplicates_ignored(self):
        m = collinear_plus_one()
        assert rank(m, [0, 0, 1, 1]) == 2

    def test_full_rank_lazy_and_hinted(self):
        m = collinear_plus_one()
        assert m.full_rank == 3
        hinted = UniformMatroid(6, 4)
        assert hinted.full_rank == 4


class TestIntersection:
    def test_small_known(self):
        points = [Point([0, 0]), Point([1, 0]), Point([2, 0]), Point([0, 1])]
        m1 = AffineMatroid(points)
        m2 = PartitionMatroid([(0,), (1, 2), (3,)])
        got = matroid_intersection(m1, m2)
        assert m1.is_independent(got) and m2.is_independent(got)
        assert len(got) == 3

    def test_matches_brute_force(self):
        rng = rng_for("mi-brute")
        for _ in range(30):
            n = rng.randrange(1, 7)
            m1 = random_affine_matroid(rng, n=n)
            m2 = random_partition_matroid(rng, n)
            got = matroid_intersection(m1, m2)
            assert m1.is_independent(got) and m2.is_independent(got)
            assert len(got) == oracle_max_common_independent(m1, m2)

    def test_uniform_pairs(self):
        rng = rng_for("mi-uniform")
        for _ in range(15):
            n = rng.randrange(1, 7)
            m1 = UniformMatroid(n, rng.randrange(0, n + 1))
            m2 = random_partition_matroid(rng, n)
            got = matroid_intersection(m1, m2)
            assert len(got) == oracle_max_common_independent(m1, m2)

    def test_min_max_bound(self):
        # common independent set size never beats rank(A) + rank(E - A)
        rng = rng_for("mi-minmax")
        for _ in range(10):
            n = 5
            m1 = random_affine_matroid(rng, n=n)
            m2 = random_partition_matroid(rng, n)
            size = len(matroid_intersection(m1, m2))
            for mask in range(1 << n):
                A = [e for e in range(n) if mask >> e & 1]
                B = [e for e in range(n) if not mask >> e & 1]
                assert size <= rank(m1, A) + rank(m2, B)

    def test_deterministic(self):
        m1 = collinear_plus_one()
        m2 = PartitionMatroid([(0, 1, 2, 3)])
        assert matroid_intersection(m1, m2) == matroid_intersection(m1, m2)

    def test_mismatched_ground_sets(self):
        with pytest.raises(ValueError):
            matroid_intersection(UniformMatroid(3, 1), UniformMatroid(4, 1))

    def test_non_matroid_detected(self):
        # both families are downward closed but fail the exchange axiom;
        # augmentation walks into a dependent set and the defect is reported
        f1 = [(), (0,), (0, 1), (0, 1, 3), (0, 2), (0, 2, 3), (0, 3),
              (1,), (1, 2), (1, 3), (2,), (2, 3), (3,)]
        f2 = [(), (0,), (0, 1), (0, 1, 2), (0, 2), (0, 3),
              (1,), (1, 2), (1, 2, 3), (1, 3), (2,), (2, 3), (3,)]
        with pytest.raises(OracleError):
            matroid_intersection(ExplicitMatroid(4, f1), ExplicitMatroid(4, f2))


class TestUniformity:
    def test_uniform_matroid_everything_uniform(self):
        m = UniformMatroid(6, 3)
        assert is_uniform(m, range(6))
        assert max_uniform_size(m) == 6

    def test_collinear_triple_blocks_uniformity(self):
        m = collinear_plus_one()
        assert not is_uniform(m, {0, 1, 2})
        assert not is_uniform(m, {0, 1, 2, 3})
        assert is_uniform(m, {0, 1, 3})
        assert max_uniform_size(m) == 3

    def test_distinct_collinear_points_are_uniform(self):
        # rank 2; every pair independent, so every set is uniform
        pts = [Point([i]) for i in range(4)]
        m = AffineMatroid(pts)
        assert is_uniform(m, range(4))
        assert max_uniform_size(m) == 4

    def test_single_block_partition(self):
        # rank 1: all rank-size subsets are singletons, always independent
        m = PartitionMatroid([range(5)])
        assert max_uniform_size(m) == 5

    def test_multi_block_partition(self):
        rng = rng_for("unif-part")
        for _ in range(15):
            m = random_partition_matroid(rng, rng.randrange(1, 8))
            assert max_uniform_size(m) == oracle_max_uniform_size(m)

    def test_matches_oracle_affine(self):
        rng = rng_for("unif-affine")
        for _ in range(25):
            m = random_affine_matroid(rng, n=rng.randrange(1, 7))
            r = m.full_rank
            assert max_uniform_size(m) == oracle_max_uniform_size(m)
            for mask in range(1 << m.ground_size):
                S = frozenset(bits_of(mask))
                assert is_uniform(m, S) == oracle_is_uniform(m, S, r)


    def test_matches_oracle_explicit_and_uniform(self):
        # the generic oracles, whose search reads each chosen mask back as
        # elements: an ExplicitMatroid listing the independent sets of a
        # random affine or partition matroid truncated to a random rank (a
        # matroid again), and a UniformMatroid of random rank
        rng = rng_for("unif-explicit")
        for trial in range(40):
            n = rng.randrange(1, 8)
            base = (random_affine_matroid(rng, n) if trial % 2
                    else random_partition_matroid(rng, n))
            top = rng.randint(1, base.full_rank)
            m = ExplicitMatroid(n, [
                bits_of(f) for f in range(1 << n)
                if f.bit_count() <= top and base.is_independent(bits_of(f))])
            assert max_uniform_size(m) == oracle_max_uniform_size(m)
            u = UniformMatroid(n, rng.randint(1, n + 1))
            assert max_uniform_size(u) == oracle_max_uniform_size(u) == n

    def test_greedy_basis_that_does_not_extend(self):
        # the first basis a, b, c blocks each later point (each lies on a
        # side of the triangle), yet the unit square a, x, y, z is uniform
        pts = [Point(p) for p in ([0, 0], [2, 0], [0, 2], [1, 0], [1, 1], [0, 1])]
        assert max_uniform_size(AffineMatroid(pts)) == 4
        assert oracle_max_uniform_size(AffineMatroid(pts)) == 4

    def test_matches_brute_force_on_planted_points(self):
        # repeated points and points on lines through two others: parallel
        # elements and low-rank flats, d = 1, 2, 3
        rng = rng_for("unif-planted")
        for trial in range(30):
            d = 1 + trial % 3
            m = AffineMatroid(random_degenerate_points(rng, d, rng.randrange(1, 9), spread=3))
            assert max_uniform_size(m) == oracle_max_uniform_size(m)


class TestComplexes:
    @pytest.mark.parametrize("build", [independence_complex, uniformity_complex])
    def test_face_budget(self, build):
        # 14 points on the moment curve in the plane: every set of at most
        # three is independent, 470 faces, and more are uniform
        m = AffineMatroid([Point([t, t * t]) for t in range(14)])
        faces = len(build(m))
        assert faces >= 470
        assert len(build(m, max_faces=faces)) == faces
        with pytest.raises(BudgetExceeded, match="exceeds %d faces" % (faces - 1)):
            build(m, max_faces=faces - 1)

    def test_independence_complex_faces(self):
        rng = rng_for("ic-faces")
        for _ in range(20):
            m = random_affine_matroid(rng, n=rng.randrange(1, 7))
            K = independence_complex(m)
            for mask in range(1 << m.ground_size):
                S = frozenset(bits_of(mask))
                assert (mask in K.faces) == m.is_independent(S)

    def test_uniformity_complex_faces(self):
        rng = rng_for("uc-faces")
        for _ in range(15):
            m = random_affine_matroid(rng, n=rng.randrange(1, 7))
            n = m.ground_size
            K = uniformity_complex(m, max_card=n)
            r = m.full_rank
            for mask in range(1 << n):
                S = frozenset(bits_of(mask))
                assert (mask in K.faces) == oracle_is_uniform(m, S, r)

    def test_uniformity_is_completion_of_independence(self):
        rng = rng_for("uc-identity")
        for _ in range(20):
            if rng.random() < 0.5:
                m = random_affine_matroid(rng, n=rng.randrange(1, 8))
            else:
                m = random_partition_matroid(rng, rng.randrange(1, 8))
            n = m.ground_size
            ic = independence_complex(m)
            assert uniformity_complex(m, max_card=n) == completion(
                ic, m.full_rank - 1
            )

    def test_default_cap(self):
        m = UniformMatroid(9, 2)
        K = uniformity_complex(m)
        assert K.dim == 4  # min(n, r + 3) = 5 vertices per face at most

    def test_empty_ground_set(self):
        m = UniformMatroid(0, 0)
        assert uniformity_complex(m).faces == frozenset({0})
        assert independence_complex(m).faces == frozenset({0})

    def test_truncation_matches_filter(self):
        m = collinear_plus_one()
        full = uniformity_complex(m, max_card=4)
        for cap in range(0, 5):
            capped = uniformity_complex(m, max_card=cap)
            assert capped.faces == {f for f in full.faces if f.bit_count() <= cap}
