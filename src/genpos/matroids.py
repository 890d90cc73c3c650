"""Matroids as independence oracles on ground set {0, ..., n-1}.

Provides the affine matroid of a point multiset, partition and uniform
matroids, greedy rank, maximum common independent sets by shortest augmenting
paths in the exchange graph, and the uniformity layer: a set is uniform when
it is independent or all its rank-size subsets are, so the uniform sets form
a complex, the (rank-1)-completion of the independence complex, and that is
how it is built for every oracle.

The independence complex of an affine matroid of rank r skips the oracle:
in a coordinate frame of the points' affine hull (AffineMatroid.frame), a
set is independent iff it is in general position and has at most r points,
so it grows as the general-position complex does, by popcounts on the flat
index of the frame vectors in dimension r-1 (genpos.geometry.gp_grow).
Every other oracle is asked set by set.

All matroids here are assumed loopless (every singleton independent); the
affine matroid of a point multiset always is.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd

from genpos._kernels import int_rank
from genpos.complexes import _completion, bits_of, levelwise_complex
from genpos.errors import OracleError
from genpos.geometry import PointMultiset, affinely_independent, gp_grow
from genpos.search import max_extension

__all__ = [
    "IndependenceOracle",
    "AffineMatroid",
    "PartitionMatroid",
    "UniformMatroid",
    "ExplicitMatroid",
    "rank",
    "matroid_intersection",
    "is_uniform",
    "max_uniform_size",
    "uniformity_complex",
    "independence_complex",
]


class IndependenceOracle:
    """Matroid given by ground-set size and a memoized independence predicate.

    Subclasses implement _independent(frozenset). rank_hint, when provided,
    is trusted as the rank of the full ground set.
    """

    def __init__(self, ground_size, rank_hint=None):
        if ground_size < 0:
            raise ValueError("ground_size must be nonnegative")
        self.ground_size = ground_size
        self.rank_hint = rank_hint
        self._memo = {frozenset(): True}
        self._full_rank = None

    def is_independent(self, subset):
        s = frozenset(subset)
        cached = self._memo.get(s)
        if cached is None:
            for e in s:
                if not 0 <= e < self.ground_size:
                    raise ValueError("element %r out of ground range" % (e,))
            cached = self._independent(s)
            self._memo[s] = cached
        return cached

    def _independent(self, s):
        raise NotImplementedError

    @property
    def full_rank(self):
        if self._full_rank is None:
            if self.rank_hint is not None:
                self._full_rank = self.rank_hint
            else:
                self._full_rank = rank(self, range(self.ground_size))
        return self._full_rank


class AffineMatroid(IndependenceOracle):
    """Element i is the i-th point; independence is affine independence.
    Coordinate-equal points are parallel elements, never loops.

    The rank r is the affine rank of the points (one int_rank), and the
    independence complex grows on the flat index of the points' vectors in
    the (r-1)-dimensional frame of their affine hull, without oracle
    queries."""

    def __init__(self, points, d=None):
        pts = points if isinstance(points, PointMultiset) else PointMultiset(points, d=d)
        super().__init__(len(pts))
        self.points = pts
        self._frame = None

    def _independent(self, s):
        return affinely_independent([self.points[i] for i in sorted(s)])

    @property
    def full_rank(self):
        return self.frame()[0]

    def frame(self):
        """(r, vectors): the affine rank r of the points and each point's
        primitive homogeneous vector in a coordinate frame of their affine
        hull, r-1 coordinates chosen greedily plus the homogeneous one.

        The chosen columns have rank r, as the rows do, so projecting onto
        them is injective on the row space: every linear dependency among
        the points' homogeneous vectors, hence every affine dependency, is
        kept exactly."""
        if self._frame is None:
            homs = [p.hom for p in self.points]
            d = self.points.d
            r = int_rank(homs)
            vecs = homs
            if r < d + 1:
                cols = []
                for c in range(d):
                    if len(cols) == r - 1:
                        break
                    if int_rank([[h[j] for j in (*cols, c, d)] for h in homs]) == len(cols) + 2:
                        cols.append(c)
                cols.append(d)
                vecs = [_primitive([h[j] for j in cols]) for h in homs]
            self._frame = (r, vecs)
        return self._frame


def _primitive(v):
    g = gcd(*v)
    return tuple(x // g for x in v)


class PartitionMatroid(IndependenceOracle):
    """At most one element per block; blocks must partition the ground set."""

    def __init__(self, blocks):
        blocks = [tuple(sorted(b)) for b in blocks]
        elems = [e for b in blocks for e in b]
        n = len(elems)
        if sorted(elems) != list(range(n)):
            raise ValueError("blocks must partition 0..n-1 without overlap")
        super().__init__(n, rank_hint=sum(1 for b in blocks if b))
        self.blocks = tuple(blocks)
        self._block_of = {}
        for bi, b in enumerate(blocks):
            for e in b:
                self._block_of[e] = bi

    def _independent(self, s):
        seen = set()
        for e in s:
            b = self._block_of[e]
            if b in seen:
                return False
            seen.add(b)
        return True


class UniformMatroid(IndependenceOracle):
    """Independent iff size at most r."""

    def __init__(self, ground_size, r):
        if r < 0:
            raise ValueError("rank must be nonnegative")
        super().__init__(ground_size, rank_hint=min(ground_size, r))
        self.r = r

    def _independent(self, s):
        return len(s) <= self.r


class ExplicitMatroid(IndependenceOracle):
    """Independence given by an explicit family of sets (for tests and
    experiments; the family is trusted to be matroidal)."""

    def __init__(self, ground_size, independent_sets):
        super().__init__(ground_size)
        self._sets = frozenset(frozenset(s) for s in independent_sets)

    def _independent(self, s):
        return s in self._sets


def rank(oracle, subset):
    """Matroid rank of a subset by greedy augmentation (exact by the exchange
    property)."""
    cur = set()
    for e in sorted(set(subset)):
        cur.add(e)
        if not oracle.is_independent(cur):
            cur.discard(e)
    return len(cur)


def _augmenting_path(m1, m2, current, n):
    outside = [e for e in range(n) if e not in current]
    sources = [y for y in outside if m1.is_independent(current | {y})]
    sinks = {y for y in outside if m2.is_independent(current | {y})}
    for y in sources:
        if y in sinks:
            return [y]
    if not sources or not sinks:
        return None
    parent = {y: None for y in sources}
    queue = list(sources)
    qi = 0
    while qi < len(queue):
        u = queue[qi]
        qi += 1
        if u in current:
            base = current - {u}
            for y in outside:
                if y not in parent and m1.is_independent(base | {y}):
                    parent[y] = u
                    if y in sinks:
                        path = [y]
                        while parent[path[-1]] is not None:
                            path.append(parent[path[-1]])
                        path.reverse()
                        return path
                    queue.append(y)
        else:
            for x in sorted(current):
                if x not in parent and m2.is_independent((current - {x}) | {u}):
                    parent[x] = u
                    queue.append(x)
    return None


def matroid_intersection(m1, m2):
    """Maximum common independent set, deterministic.

    Shortest augmenting paths in the exchange graph, breadth-first with
    ascending-element tie-breaking. Augmenting along a shortest path always
    yields a common independent set one larger; if that fails the oracles do
    not describe matroids and OracleError is raised.
    """
    if m1.ground_size != m2.ground_size:
        raise ValueError("matroids must share a ground set")
    n = m1.ground_size
    current = set()
    while True:
        path = _augmenting_path(m1, m2, current, n)
        if path is None:
            return frozenset(current)
        current ^= set(path)
        if not (m1.is_independent(current) and m2.is_independent(current)):
            raise OracleError(
                "augmentation produced a dependent set; an oracle is not a matroid"
            )


def is_uniform(oracle, subset):
    """Uniform: independent, or larger than the rank r with every r-subset
    independent."""
    s = frozenset(subset)
    if oracle.is_independent(s):
        return True
    r = oracle.full_rank
    if len(s) <= r:
        return False
    return all(oracle.is_independent(frozenset(c)) for c in combinations(sorted(s), r))


def _extends_uniform(oracle, current, e, r):
    # current (a mask) is uniform; test current + {e}. New rank-size
    # subsets are exactly those through e.
    if current.bit_count() < r:
        return oracle.is_independent(frozenset(bits_of(current)) | {e})
    return all(
        oracle.is_independent(frozenset(t) | {e})
        for t in combinations(bits_of(current), r - 1)
    )


def max_uniform_size(oracle):
    """Largest size of a uniform set, by the shared branch-and-bound over
    elements in ascending order (genpos.search.max_extension, within its
    default node budget)."""
    r = oracle.full_rank
    return max_extension(
        [1 << e for e in range(oracle.ground_size)],
        lambda cur, e: _extends_uniform(oracle, cur, e.bit_length() - 1, r),
        r,
    )


def uniformity_complex(oracle, max_card=None, max_faces=None):
    """Complex of uniform sets, truncated to |S| <= max_card (default r+3),
    with at most max_faces faces (None: DEFAULT_FACE_BUDGET; past it
    BudgetExceeded is raised).

    For every oracle this is the (r-1)-completion of the independence
    complex under the same cap: a set of at most r elements is uniform iff
    it is independent, and a larger one iff all its r-subsets are. A
    matroid of rank 0 on a nonempty ground set has loops, which this module
    excludes, and raises ValueError.
    """
    n = oracle.ground_size
    r = oracle.full_rank
    if r == 0 and n:
        raise ValueError("a matroid of rank 0 on a nonempty ground set has loops")
    cap = min(n, r + 3) if max_card is None else max_card
    what = "uniformity complex"
    independent = _independence_complex(oracle, min(cap, r), max_faces, what)
    return _completion(independent, r - 1, cap, max_faces, what)


def independence_complex(oracle, max_card=None, max_faces=None):
    """Complex of independent sets (dimension rank-1; no cap needed unless
    given), with at most max_faces faces (None: DEFAULT_FACE_BUDGET; past
    it BudgetExceeded is raised). For an AffineMatroid of rank r these are
    the sets of at most r points in general position in the affine hull,
    grown by popcounts on the flat index of the distinct frame vectors
    (genpos.geometry.gp_grow), indexed only as deep as the faces asked
    about need."""
    return _independence_complex(oracle, max_card, max_faces, "independence complex")


def _independence_complex(oracle, max_card, max_faces, what):
    if isinstance(oracle, AffineMatroid):
        r, vecs = oracle.frame()
        max_card = r if max_card is None else min(max_card, r)
        grow = gp_grow(vecs, r - 1)
    else:
        def grow(face):
            base = frozenset(bits_of(face))
            return lambda w: oracle.is_independent(base | {w})

    return levelwise_complex(oracle.ground_size, grow, max_card, max_faces, what)
