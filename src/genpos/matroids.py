"""Matroids as independence oracles on ground set {0, ..., n-1}.

Provides the affine matroid of a point multiset, partition and uniform
matroids, greedy rank, maximum common independent sets by shortest augmenting
paths in the exchange graph, and the uniformity layer: a set is uniform when
it is independent or all its rank-size subsets are, so the uniform sets form
a complex, the (rank-1)-completion of the independence complex, and that is
how it is built for every oracle but the affine one.

An affine matroid of rank r skips the oracle, and r is all it needs beside
its points: its affine rank, or a smaller rank it is truncated to. A set of
points is uniform iff no j-flat with j <= r-2 holds j+2 of them (general
position at rank r), and independent iff it is uniform and has at most r
points. So its independence and uniformity complexes grow as the
general-position complex does, by popcounts on a flat index of the
points' homogeneous vectors capped at dimension r-2 (genpos.geometry.gp_grow);
its largest uniform set is gp_number over such an index; and each exchange
question of matroid intersection (IndependenceOracle.exchanges) asks of at
most r <= d+1 points, which are independent iff in general position, so
the general-position kernel answers it (genpos._kernels.gp_extends). The
partition matroid answers them from its blocks. Every other oracle is
asked set by set, each query charged to the node budget of the search for
its largest uniform set.

All matroids here are assumed loopless (every singleton independent); the
affine matroid of a point multiset always is.
"""

from __future__ import annotations

from itertools import combinations
from math import comb, inf

from genpos._kernels import gp_extends, int_rank
from genpos.complexes import _completion, bits_of, hereditary_grow, levelwise_complex
from genpos.errors import BudgetExceeded, OracleError
from genpos.geometry import (
    FlatIndex,
    PointMultiset,
    affinely_independent,
    gp_grow,
    gp_number,
)
from genpos.search import DEFAULT_NODE_BUDGET, max_extension

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

_DEPENDENT = "augmentation produced a dependent set; an oracle is not a matroid"


class IndependenceOracle:
    """Matroid given by ground-set size and an independence predicate.

    Subclasses implement _independent(frozenset), and may answer the
    exchange questions of matroid_intersection from their own structure
    (exchanges). rank_hint, when provided, is trusted as the rank of the
    full ground set.
    """

    def __init__(self, ground_size, rank_hint=None):
        if ground_size < 0:
            raise ValueError("ground_size must be nonnegative")
        self.ground_size = ground_size
        self.rank_hint = rank_hint
        self._full_rank = None

    def is_independent(self, subset):
        s = frozenset(subset)
        for e in s:
            if not 0 <= e < self.ground_size:
                raise ValueError("element %r out of ground range" % (e,))
        return self._independent(s)

    def _independent(self, s):
        raise NotImplementedError

    def exchanges(self, current):
        """can(u, y): whether current - {u} + {y} is independent, for u in
        current, or None for current + {y}, and y outside current. The
        exchange questions of matroid_intersection; OracleError is raised
        when current itself is dependent. This default asks is_independent
        set by set."""
        current = frozenset(current)
        if not self.is_independent(current):
            raise OracleError(_DEPENDENT)
        return lambda u, y: self.is_independent((current - {u}) | {y})

    @property
    def full_rank(self):
        if self._full_rank is None:
            if self.rank_hint is not None:
                self._full_rank = self.rank_hint
            else:
                self._full_rank = rank(self, range(self.ground_size))
        return self._full_rank


class AffineMatroid(IndependenceOracle):
    """Element i is the i-th point; independence is affine independence,
    truncated to sets of at most ``rank`` points when rank is given.
    Coordinate-equal points are parallel elements, never loops.

    The rank r is the affine rank of the points (one int_rank), or rank if
    that is smaller. A set is independent iff it has at most r points and
    they are in general position, and uniform iff they are in general
    position at rank r: no j-flat with j <= r-2 holds j+2 of them. So the
    independence and uniformity complexes, max_uniform_size and the
    exchange questions are answered from the points' own homogeneous
    vectors (homs), without oracle queries; only rank and is_uniform ask
    set by set."""

    def __init__(self, points, d=None, rank=None):
        if rank is not None and rank < 0:
            raise ValueError("rank must be nonnegative")
        pts = points if isinstance(points, PointMultiset) else PointMultiset(points, d=d)
        super().__init__(len(pts))
        self.points = pts
        self.homs = [p.hom for p in pts]
        self._cap = inf if rank is None else rank

    def _independent(self, s):
        return len(s) <= self._cap and affinely_independent([self.points[i] for i in sorted(s)])

    @property
    def full_rank(self):
        if self._full_rank is None:
            self._full_rank = min(int_rank(self.homs), self._cap)
        return self._full_rank

    def exchanges(self, current):
        """can(u, y) from the general-position kernel: a set of at most
        r <= d+1 points is independent iff it is in general position, so
        C - u + y is independent iff gp_extends(C - u, y), where C =
        current has at most r points and is independent (one int_rank).
        This is the fundamental-circuit test of Cunningham, "Improved
        bounds for matroid partition and intersection algorithms" (1986):
        y enters C - u iff it is outside span(C), or u is on y's circuit
        in C."""
        vecs, c = self.homs, sorted(current)
        rows = [vecs[e] for e in c]
        if len(c) > self.full_rank or int_rank(rows) != len(c):
            raise OracleError(_DEPENDENT)
        # u -> the vectors of C - u, in general position
        rest = {u: rows[:i] + rows[i + 1:] for i, u in enumerate(c)}
        if len(c) < self.full_rank:  # a basis has no room
            rest[None] = rows
        return lambda u, y: u in rest and gp_extends(rest[u], vecs[y])


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

    def exchanges(self, current):
        """can(u, y) from the blocks: y's block holds no element of current,
        or only u."""
        block_of = self._block_of
        held = {}
        for e in current:
            if held.setdefault(block_of[e], e) != e:
                raise OracleError(_DEPENDENT)
        return lambda u, y: held.get(block_of[y], u) == u


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
    can1 = m1.exchanges(current)
    can2 = m2.exchanges(current)
    outside = [e for e in range(n) if e not in current]
    sinks = {y for y in outside if can2(None, y)}
    for y in outside:  # the first sink that is a source: a path of one
        if y in sinks and can1(None, y):
            return [y]
    if not sinks:
        return None
    sources = [y for y in outside if y not in sinks and can1(None, y)]
    if not sources:
        return None
    parent = {y: None for y in sources}
    queue = list(sources)
    qi = 0
    while qi < len(queue):
        u = queue[qi]
        qi += 1
        if u in current:
            for y in outside:
                if y not in parent and can1(u, y):
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
                if x not in parent and can2(x, u):
                    parent[x] = u
                    queue.append(x)
    return None


def matroid_intersection(m1, m2):
    """Maximum common independent set, deterministic.

    Shortest augmenting paths in the exchange graph, breadth-first with
    ascending-element tie-breaking, each edge one exchange question
    (IndependenceOracle.exchanges). The sinks are asked first, so a path of
    one asks m1 of no element past it. Augmenting along a shortest path
    always yields a common independent set one larger; each set is
    checked, by m1 then m2, as the next exchange questions are set up, and
    if one is dependent the oracles do not describe matroids and
    OracleError is raised.
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


def _loopless_rank(oracle):
    r = oracle.full_rank
    if r == 0 and oracle.ground_size:
        raise ValueError("a matroid of rank 0 on a nonempty ground set has loops")
    return r


def max_uniform_size(oracle):
    """Largest size of a uniform set. For an AffineMatroid of rank r >= 2
    this is gp_number of its distinct points over a flat index capped at
    dimension r-2, within gp_number's node budget, and at r <= 1 every set
    is uniform. Other oracles go through the shared branch-and-bound over
    elements in ascending order (genpos.search.max_extension), whose grow
    rules nothing out: a set of k >= r elements extends by e when each
    (r-1)-subset joined by e is independent, and below r when the whole set
    joined by e is: each of those queries is one node of
    DEFAULT_NODE_BUDGET, charged before it is asked, and BudgetExceeded is
    raised past it. A matroid of rank 0 on a nonempty ground set has loops,
    which this module excludes, and raises ValueError."""
    r = _loopless_rank(oracle)
    if isinstance(oracle, AffineMatroid):
        if r <= 1:
            return oracle.ground_size
        index = FlatIndex(oracle.homs, oracle.points.d, r - 2)
        return gp_number((1 << len(index.homs)) - 1, index=index)
    budget = DEFAULT_NODE_BUDGET
    asked = 0

    def grow(chosen, item):
        nonlocal asked
        k = chosen.bit_count()
        asked += 1 if k < r else comb(k, r - 1)
        if asked > budget:
            raise BudgetExceeded("search exceeds %d nodes" % budget)
        e = item.bit_length() - 1
        if k < r:
            ok = oracle.is_independent(frozenset(bits_of(chosen)) | {e})
        else:
            # chosen is uniform: the new rank-size subsets are those through e
            ok = all(oracle.is_independent(frozenset(t) | {e})
                     for t in combinations(bits_of(chosen), r - 1))
        return 0 if ok else None

    return max_extension((1 << oracle.ground_size) - 1, grow, r)


def uniformity_complex(oracle, max_card=None, max_faces=None):
    """Complex of uniform sets, truncated to |S| <= max_card (default r+3),
    with at most max_faces faces (None: DEFAULT_FACE_BUDGET; past it
    BudgetExceeded is raised).

    For an AffineMatroid of rank r this is the general-position complex of
    its points at rank r (genpos.geometry.gp_grow): the full simplex at
    r <= 1. For every other oracle it is the (r-1)-completion of the
    independence complex under the same cap: a set of at most r elements
    is uniform iff it is independent, and a larger one iff all its
    r-subsets are. A matroid of rank 0 on a nonempty ground set has loops,
    which this module excludes, and raises ValueError.
    """
    n = oracle.ground_size
    r = _loopless_rank(oracle)
    cap = min(n, r + 3) if max_card is None else max_card
    what = "uniformity complex"
    if isinstance(oracle, AffineMatroid):
        return levelwise_complex(n, gp_grow(oracle.homs, r), cap, max_faces, what)
    independent = _independence_complex(oracle, min(cap, r), max_faces, what)
    return _completion(independent, r - 1, cap, max_faces, what)


def independence_complex(oracle, max_card=None, max_faces=None):
    """Complex of independent sets (dimension rank-1; no cap needed unless
    given), with at most max_faces faces (None: DEFAULT_FACE_BUDGET; past
    it BudgetExceeded is raised). For an AffineMatroid of rank r these are
    the sets of at most r points in general position at rank r, grown by
    popcounts on the flat index of its distinct points
    (genpos.geometry.gp_grow), indexed only as deep as the faces asked
    about need."""
    return _independence_complex(oracle, max_card, max_faces, "independence complex")


def _independence_complex(oracle, max_card, max_faces, what):
    if isinstance(oracle, AffineMatroid):
        r = oracle.full_rank
        max_card = r if max_card is None else min(max_card, r)
        grow = gp_grow(oracle.homs, r)
    else:
        def ask(face):
            base = frozenset(bits_of(face))
            return lambda w: oracle.is_independent(base | {w})

        grow = hereditary_grow(oracle.ground_size, ask)
    return levelwise_complex(oracle.ground_size, grow, max_card, max_faces, what)
