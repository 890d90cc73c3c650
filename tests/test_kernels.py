"""Integer kernel tests: determinant, rank, and the incremental
general-position predicate of genpos._kernels.pure, checked against
independent oracles."""

import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genpos
from genpos._kernels import pure
from genpos.geometry import Point
from conftest import (
    oracle_det,
    oracle_keeps_gp,
    oracle_rank,
    random_gp_points,
    random_point,
    rng_for,
)


def _rand_mat(rng, n, m, lo, hi):
    return [[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)]


def _on_late_flat(rng, prefix, d):
    """A point on the flat spanned by the last j <= d prefix points: an
    affine combination with rational weights (j = 1 repeats the last one)."""
    j = rng.randint(1, min(d, len(prefix)))
    weights = [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(j - 1)]
    weights.append(1 - sum(weights))
    base = prefix[-j:]
    return Point([sum(w * p.coords[t] for w, p in zip(weights, base)) for t in range(d)])


# one backend; the id keeps the test names as they were
@pytest.mark.parametrize("kernels", [pure], ids=["pure"])
class TestAgainstOracles:
    def test_det_small_entries(self, kernels):
        rng = rng_for("det-small")
        for _ in range(120):
            n = rng.randint(1, 5)
            M = _rand_mat(rng, n, n, -30, 30)
            assert kernels.int_det(M) == oracle_det(M)

    def test_det_entries_straddling_machine_limit(self, kernels):
        # entries on both sides of 2**28, where a fixed-width path would stop
        rng = rng_for("det-straddle")
        for _ in range(60):
            n = rng.randint(2, 4)
            scale = rng.choice([2**27, 2**28 - 1, 2**28, 2**28 + 1, 2**30])
            M = _rand_mat(rng, n, n, -scale, scale)
            assert kernels.int_det(M) == oracle_det(M)

    def test_det_huge_entries(self, kernels):
        rng = rng_for("det-huge")
        for _ in range(20):
            n = rng.randint(2, 4)
            M = _rand_mat(rng, n, n, -(10**40), 10**40)
            assert kernels.int_det(M) == oracle_det(M)

    def test_det_known_values(self, kernels):
        assert kernels.int_det([]) == 1
        assert kernels.int_det([[7]]) == 7
        assert kernels.int_det([[1, 2], [3, 4]]) == -2
        assert kernels.int_det([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == 24
        assert kernels.int_det([[1, 2], [2, 4]]) == 0

    def test_rank(self, kernels):
        rng = rng_for("rank")
        for _ in range(150):
            n = rng.randint(0, 6)
            m = rng.randint(0, 6)
            M = _rand_mat(rng, n, m, -12, 12)
            if rng.random() < 0.4 and n >= 2:
                # plant a dependent row
                i, j = rng.sample(range(n), 2)
                c = rng.randint(-3, 3)
                M[i] = [c * x for x in M[j]]
            assert kernels.int_rank(M) == oracle_rank(M)

    def test_rank_huge_entries(self, kernels):
        rng = rng_for("rank-huge")
        for _ in range(15):
            M = _rand_mat(rng, 5, 5, -(10**25), 10**25)
            assert kernels.int_rank(M) == oracle_rank(M)

    def test_gp_extends_matches_brute_force(self, kernels):
        # prefixes of up to 12 points reach the quotient recursion (d >= 3)
        # and long accepting scans; planted candidates are rejected late in
        # the scan. The oracle costs C(k, d) eliminations, so d = 4 stops at 9.
        rng = rng_for("gp-extends")
        outcomes = Counter()
        for d in [1] * 16 + [2] * 16 + [3] * 12 + [4] * 8:
            k = rng.randint(0, 12 if d < 4 else 9)
            prefix = random_gp_points(rng, d, k, spread=12, keeps=oracle_keeps_gp)
            rows = [p.hom for p in prefix]
            cands = [random_point(rng, d, 12)]
            if k:
                cands += [rng.choice(prefix), _on_late_flat(rng, prefix, d)]
            for cand in cands:
                want = oracle_keeps_gp(prefix, cand)
                assert kernels.gp_extends(rows, cand.hom) == want
                outcomes[d, k > d, want] += 1
        # both answers, past the rank stage, in every dimension
        assert all(outcomes[d, True, want] for d in (1, 2, 3, 4) for want in (True, False))

    def test_gp_extends_short_prefixes(self, kernels):
        # k = 0 always extends; k = 1 extends iff the points differ
        rng = rng_for("gp-extends-short")
        for d in (1, 2, 3, 4):
            for _ in range(10):
                p = random_point(rng, d, 3)
                q = random_point(rng, d, 3)
                assert kernels.gp_extends([], p.hom) and oracle_keeps_gp([], p)
                for cand in (p, q):
                    want = oracle_keeps_gp([p], cand)
                    assert kernels.gp_extends([p.hom], cand.hom) == want
                    assert want == (cand != p)

    def test_gp_extends_rejects_duplicates_and_flats(self, kernels):
        rows = [Point([0, 0]).hom, Point([1, 0]).hom, Point([0, 1]).hom]
        assert not kernels.gp_extends(rows, Point([0, 0]).hom)
        assert not kernels.gp_extends(rows, Point([2, 0]).hom)
        assert kernels.gp_extends(rows, Point([1, 1]).hom)
        # low-rank stage: third collinear point fails the rank test
        two = [Point([0, 0]).hom, Point([1, 0]).hom]
        assert not kernels.gp_extends(two, Point([5, 0]).hom)
        # the origin repeated on the line
        line = [Point([0]).hom, Point([1]).hom]
        assert not kernels.gp_extends(line, Point([0]).hom)
        assert kernels.gp_extends(line, Point([-1]).hom)
        # directions with leading zeros: the tetrahedron's vertices, then a
        # point on the plane x = y through two of them and the fifth point
        tet = [Point(v).hom for v in ([0, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0])]
        assert kernels.gp_extends(tet, Point([1, 1, 1]).hom)
        five = tet + [Point([1, 1, 1]).hom]
        assert not kernels.gp_extends(five, Point([2, 2, 5]).hom)
        assert kernels.gp_extends(five, Point([2, 3, 5]).hom)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-80, 80), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    ),
    st.data(),
)
def test_det_row_swap_flips_sign(M, data):
    n = len(M)
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1))
    swapped = [row[:] for row in M]
    swapped[i], swapped[j] = swapped[j], swapped[i]
    d0 = pure.int_det(M)
    d1 = pure.int_det(swapped)
    assert d1 == (d0 if i == j else -d0)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.lists(st.integers(-50, 50), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            ),
            st.integers(0, n - 1),
            st.integers(-6, 6),
        )
    )
)
def test_det_row_scaling(case):
    M, row, c = case
    scaled = [r[:] for r in M]
    scaled[row] = [c * x for x in scaled[row]]
    assert pure.int_det(scaled) == c * pure.int_det(M)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-30, 30), min_size=4, max_size=4), min_size=1, max_size=6
    ),
    st.integers(-4, 4),
    st.data(),
)
def test_rank_invariant_under_row_addition(M, c, data):
    i = data.draw(st.integers(0, len(M) - 1))
    j = data.draw(st.integers(0, len(M) - 1))
    if i == j:
        return
    changed = [r[:] for r in M]
    changed[i] = [a + c * b for a, b in zip(changed[i], M[j])]
    assert pure.int_rank(changed) == pure.int_rank(M)


def test_backend_selection_env():
    # the kernels are pure Python whatever the environment says; the old
    # switch that chose between backends is set and ignored
    assert genpos.kernel_backend() == "pure"
    src = os.path.dirname(os.path.dirname(os.path.abspath(genpos.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for switch in ("0", "1"):
        env["GENPOS_PURE_KERNELS"] = switch
        proc = subprocess.run(
            [sys.executable, "-c", "import genpos; print(genpos.kernel_backend())"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0 and proc.stdout == "pure\n"
