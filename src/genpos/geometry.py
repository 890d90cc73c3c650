"""Exact rational affine geometry.

Points live in d-dimensional rational space and carry a primitive integer
homogeneous vector (numerators scaled to a common positive denominator,
divided by the content), so every affine predicate runs on integers in the
kernels (genpos._kernels): affine independence through an exact rank,
and the incremental general-position test (gp_extends) by radial projection
from the new point, with the directions to the prefix hashed as lines (see
genpos._kernels.pure). gp_number does not call gp_extends: it works on a
FlatIndex, the flats through too many of the points as bitmasks, where
general position is popcount arithmetic. The general-position complex and
the affine matroid's independence complex grow on the same index (gp_grow),
capped at the flat dimension each level of faces needs. No floating point is
used anywhere.

A point list is *in general position* when every subset of size at most d+1
is affinely independent; coordinate-equal entries therefore always break
general position (a repeated point is a dependent pair).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb, gcd, inf, lcm

from genpos._kernels import gp_extends, int_rank
from genpos.complexes import bits_of
from genpos.errors import BudgetExceeded, DimensionMismatch
from genpos.search import DEFAULT_NODE_BUDGET, max_extension

__all__ = [
    "Point",
    "PointMultiset",
    "affinely_independent",
    "in_general_position",
    "gp_number",
    "FlatIndex",
    "extend_gp",
]


class Point:
    """Immutable point with exact rational coordinates.

    ``hom`` is the point itself: the primitive homogeneous integer vector
    (num_0, ..., num_{d-1}, den) with den > 0 and content 1, built straight
    from the coordinates. Two points are equal iff their homogeneous vectors
    are equal, and every predicate runs on ``hom``. ``coords``, the
    coordinates as Fractions, is computed from ``hom`` when first asked for.

    Coordinates may be ints (kept as they are: an all-integer point is
    (*coords, 1)), Fractions (their numerators and denominators, over one
    lcm), or anything else Fraction() accepts.
    """

    __slots__ = ("hom", "_coords")

    def __init__(self, coords):
        nums, dens = [], []
        for c in coords:
            if type(c) is int:
                nums.append(c)
                dens.append(1)
                continue
            if type(c) is not Fraction:
                c = Fraction(c)
            nums.append(c.numerator)
            dens.append(c.denominator)
        self.hom = _primitive(nums, dens)

    @classmethod
    def from_ratios(cls, nums, dens):
        """The point with coordinates nums[i]/dens[i]: integers, each
        denominator positive, not necessarily in lowest terms."""
        if min(dens, default=1) < 1:
            raise ValueError("denominators must be positive: %r" % (list(dens),))
        p = cls.__new__(cls)
        p.hom = _primitive(nums, dens)
        return p

    @property
    def coords(self):
        try:
            return self._coords
        except AttributeError:
            *nums, den = self.hom
            self._coords = cs = tuple(Fraction(v, den) for v in nums)
            return cs

    @property
    def d(self):
        return len(self.hom) - 1

    def __eq__(self, other):
        return isinstance(other, Point) and self.hom == other.hom

    def __hash__(self):
        return hash(self.hom)

    def __iter__(self):
        return iter(self.coords)

    def __repr__(self):
        return "Point(%s)" % ", ".join(str(c) for c in self.coords)


def _primitive(nums, dens):
    """The primitive homogeneous vector of the rationals nums[i]/dens[i]
    (dens positive): one lcm of the denominators, then one gcd, which the
    ratios need when they are not in lowest terms."""
    if not nums:
        raise ValueError("a point needs at least one coordinate")
    den = lcm(*dens)
    if den == 1:
        return (*nums, 1)
    vec = [n * (den // q) for n, q in zip(nums, dens)]
    vec.append(den)
    g = gcd(*vec)
    return tuple(v // g for v in vec)


class PointMultiset:
    """Ordered finite multiset of points of one common dimension.

    Duplicates are kept: multiplicity matters to the complex builders even
    though it never helps general position. An empty multiset must be given
    its dimension explicitly. _validated=True takes points as given: a
    tuple of Points, each of dimension d.
    """

    __slots__ = ("points", "d")

    def __init__(self, points, d=None, _validated=False):
        if _validated:
            self.points = points
            self.d = d
            return
        pts = tuple(p if isinstance(p, Point) else Point(p) for p in points)
        if pts:
            dims = {len(p.hom) - 1 for p in pts}
            if len(dims) > 1:
                raise DimensionMismatch("mixed point dimensions: %s" % sorted(dims))
            inferred = dims.pop()
            if d is not None and d != inferred:
                raise DimensionMismatch("declared d=%d but points have d=%d" % (d, inferred))
            d = inferred
        elif d is None:
            raise ValueError("an empty multiset needs an explicit dimension")
        self.points = pts
        self.d = d

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i):
        return self.points[i]

    def __eq__(self, other):
        return (
            isinstance(other, PointMultiset)
            and self.d == other.d
            and self.points == other.points
        )

    def __repr__(self):
        return "PointMultiset(d=%d, %r)" % (self.d, list(self.points))


def _as_points(X):
    if isinstance(X, PointMultiset):
        return list(X.points)
    return [p if isinstance(p, Point) else Point(p) for p in X]


def _common_dim(pts, fallback=None):
    dims = {len(p.hom) - 1 for p in pts}
    if len(dims) > 1:
        raise DimensionMismatch("mixed point dimensions: %s" % sorted(dims))
    if dims:
        return dims.pop()
    return fallback


def affinely_independent(points):
    """True iff the points are affinely independent (exact rank test)."""
    pts = _as_points(points)
    if len(pts) <= 1:
        return True
    d = _common_dim(pts)
    if len(pts) > d + 1:
        return False
    return int_rank([p.hom for p in pts]) == len(pts)


def in_general_position(points):
    """True iff every subset of size at most d+1 is affinely independent."""
    pts = _as_points(points)
    if len(pts) <= 1:
        return True
    _common_dim(pts)  # mixed dimensions raise
    homs = []
    for p in pts:
        if not gp_extends(homs, p.hom):
            return False
        homs.append(p.hom)
    return True


def gp_number(X, node_budget=None, *, lower=0, cap=None, index=None):
    """Maximum size of a sub-multiset in general position.

    Repeated coordinates never help (a duplicate pair is affinely
    dependent), so only the distinct points U of X count.

    - X is a point list, or, when an index is given, an int whose bits
      pick points of index.homs (bit i for index.homs[i]). A point list
      becomes such a mask over the given index, or over a new index of its
      distinct points, and both forms run the same code from there.
    - lower and cap are bounds on the answer that the caller already holds
      (PointFamily takes them from sub-unions). When lower reaches cap or
      the number of points, it is the answer.
    - Unless the index is built already, the affine rank r of U comes
      next (one elimination, int_rank). When r <= d, U lies in an
      (r-1)-flat and the answer is r: any r+1 of its points are dependent,
      and r independent points are in general position.
    - Otherwise the FlatIndex over U, or the given index over a superset
      of U, is built if it is not yet; each tuple it hashes is one node of
      node_budget (None: DEFAULT_NODE_BUDGET). A point of U is *free* when
      no indexed j-flat through it holds j+2 points of U. It extends every
      general-position subset of U, so gp(U) = #free + gp(U minus the free
      points), as in the kernelisation of Froese, Kanj, Nichterlein and
      Niedermeier, "Finding points in general position" (2017).
    - The points left go through genpos.search.max_extension with the rest
      of the budget, as one-bit masks in ascending order: w extends the OR
      C of those chosen unless an indexed j-flat through w holds j+1 points
      of C, a popcount. The line cover of those points (FlatIndex.cover) is
      the bound the search asks for when it must prove its incumbent optimal.

    Past the budget, in the build or the search, BudgetExceeded is raised.
    Bounds that hold leave the answer unchanged.
    """
    if isinstance(X, int):
        if index is None:
            raise ValueError("gp_number of a bitmask needs index=")
        union = X
    else:
        pts = _as_points(X)
        if index is None:
            index = FlatIndex(list(dict.fromkeys(p.hom for p in pts)), _common_dim(pts, 0))
        pos = index.pos
        union = 0
        for p in pts:
            union |= 1 << pos[p.hom]
    n = union.bit_count()
    cap = n if cap is None else min(cap, n)
    if lower >= cap:
        return lower
    d = index.d
    if index.flats is None:
        homs = index.homs
        rank = int_rank([homs[i] for i in bits_of(union)])
        if rank <= d:
            return rank
    budget = DEFAULT_NODE_BUDGET if node_budget is None else node_budget
    spent = index.build(budget)
    crowded = index.crowded(union)
    free = (union & ~crowded).bit_count()
    items = [1 << i for i in bits_of(crowded)]
    if not items:
        return free
    through = index.through

    def extends(chosen, w):
        for mask, j in through[w.bit_length() - 1]:
            if (mask & chosen).bit_count() > j:
                return False
        return True

    return free + max_extension(
        items,
        extends,
        d + 1,
        lower=max(lower - free, 0),
        cap=cap - free,
        node_budget=budget,
        bound=lambda: index.cover(crowded),
        nodes=spent,
    )


class FlatIndex:
    """The flats spanned by a list of distinct points that hold too many of
    them for general position, as bitmasks over the list: every j-flat,
    1 <= j <= top, through at least j+2 of the points, with its dimension j.

    A general-position set has at most j+1 points on a j-flat. A point w
    extends a general-position set C unless some indexed j-flat through w
    holds j+1 points of C: a smallest dependent subset of C + {w} is j+1
    independent points of C and w on their j-flat, which then holds j+2 of
    the points. So with ``through[i]``, the (mask, j) of the flats through
    point i, general position is popcount arithmetic.

    top caps the dimension (None: d-1, every dimension, which gp_number
    uses). gp_grow, which grows the general-position and affine
    independence complexes, needs the j-flats only once its faces have j+1
    vertices, and builds a new index one dimension deeper at each level.

    The index is built lazily (build), once, at a cost of one node per
    (j+1)-tuple of points, the sum over j <= top of C(n, j+1). Each tuple
    is taken from its lowest point a: the directions from a to the other j
    points span the j-flat's direction space, and their Plücker vector (the
    j-minors, grown one direction at a time by Laplace expansion),
    gcd-reduced with its first nonzero entry positive, names that flat
    among the flats through a, or is zero when the tuple is dependent. So
    every flat is found with all its points at its lowest point, and
    recorded there; at a higher point it lies inside a recorded flat of its
    dimension through that point. d = 1 has no flats.
    """

    __slots__ = ("d", "top", "homs", "pos", "flats", "through")

    def __init__(self, homs, d, top=None):
        # homs: distinct primitive homogeneous vectors, last entry positive
        self.d = d
        self.top = d - 1 if top is None else top
        self.homs = homs
        self.pos = {h: i for i, h in enumerate(homs)}
        self.flats = None  # [(mask, j)], once built
        self.through = None

    def tuples(self):
        """Nodes a build costs: the number of (j+1)-tuples, 1 <= j <= top."""
        n = len(self.homs)
        return sum(comb(n, j + 1) for j in range(1, self.top + 1))

    def build(self, node_budget=None):
        """Build the index if it is not built, and return the nodes that
        cost (0 if it was built). BudgetExceeded is raised, before any
        work, when the tuples outnumber node_budget (None:
        DEFAULT_NODE_BUDGET)."""
        if self.flats is not None:
            return 0
        cost = self.tuples()
        budget = DEFAULT_NODE_BUDGET if node_budget is None else node_budget
        if cost > budget:
            raise BudgetExceeded(
                "flat index over %d points in d=%d needs %d nodes, over the budget of %d nodes"
                % (len(self.homs), self.d, cost, budget)
            )
        homs, d, top = self.homs, self.d, self.top
        n = len(homs)
        line_key = _line_key(d)
        flat_keys = [None, None] + [_flat_key(d, j - 1) for j in range(2, top + 1)]
        flats = []
        through = [[] for _ in range(n)]
        for a in range(n - 2 if top > 0 else 0):
            # the flats through a: each reduced direction from a names a
            # line, and the Plücker vector of j directions a j-flat
            p = homs[a]
            groups = [{} for _ in range(top + 1)]  # by dimension: key -> points
            dirs = {}
            level = []
            group = groups[1]
            for b in range(a + 1, n):
                key = dirs[b] = line_key(p, homs[b])
                grown = 1 << a | 1 << b
                group[key] = group.get(key, 0) | grown
                if top > 1:
                    level.append((grown, key, b + 1))
            for j in range(2, top + 1):
                flat_key = flat_keys[j]
                group = groups[j]
                deeper = []
                for mask, vec, start in level:
                    for b in range(start, n):
                        key = flat_key(vec, dirs[b])
                        if key is None:
                            continue  # a dependent tuple
                        grown = mask | 1 << b
                        group[key] = group.get(key, 0) | grown
                        if j < top:
                            deeper.append((grown, key, b + 1))
                level = deeper
            for j in range(1, top + 1):
                for mask in groups[j].values():
                    if mask.bit_count() < j + 2 or any(
                        k == j and not mask & ~other for other, k in through[a]
                    ):
                        continue  # too few points, or recorded at a lower point
                    flat = (mask, j)
                    flats.append(flat)
                    while mask:
                        low = mask & -mask
                        through[low.bit_length() - 1].append(flat)
                        mask ^= low
        self.through = [tuple(t) for t in through]
        self.flats = flats
        return cost

    def crowded(self, mask):
        """The points of mask on an indexed j-flat holding j+2 of them: the
        points of mask that are not free."""
        out = 0
        for flat, j in self.flats:
            flat &= mask
            if flat.bit_count() > j + 1:
                out |= flat
        return out

    def cover(self, mask):
        """Upper bound on gp_number (d >= 2) of the points in mask: for
        lines chosen greedily, each time the one holding the most points of
        mask not yet covered while one holds 3 or more, 2 per line plus 1
        per point on none of them (a general-position set has at most 2
        points on a line)."""
        total = 0
        live = [line for line, j in self.flats if j == 1]
        while True:
            live = [line & mask for line in live if (line & mask).bit_count() >= 3]
            if not live:
                return total + mask.bit_count()
            total += 2
            mask &= ~max(live, key=int.bit_count)


def gp_grow(vecs, d):
    """grow for genpos.complexes.levelwise_complex: the faces are the index
    sets of vecs in general position, where vecs are primitive homogeneous
    vectors in dimension d, last entry positive, repeats allowed.

    Each distinct vector has one bit, and grow(face) ORs together the bits
    of the vectors its mask picks. Then w extends the face unless its bit is
    set already (a repeated point) or an indexed j-flat through w holds j+1
    of those bits (FlatIndex). A j-flat can hold j+1 of a face's k points
    only when j+1 <= k, so the index over the distinct vectors goes to
    top = min(k, d) - 1: it is built when the first face of a level asks,
    and rebuilt one dimension deeper at the next level. Building the j-flats
    costs about as many keys as the predicate calls already made on faces
    of j vertices, so the face budget that bounds the enumeration bounds the
    index too, and no node budget is charged."""
    distinct = list(dict.fromkeys(vecs))
    slot = {v: i for i, v in enumerate(distinct)}
    slots = [slot[v] for v in vecs]
    index = FlatIndex(distinct, d, 0)  # nothing to build below lines

    def grow(face):
        nonlocal index
        chosen = 0
        for i in bits_of(face):
            chosen |= 1 << slots[i]
        top = min(face.bit_count(), d) - 1
        if top < 1:
            return lambda w: not chosen >> slots[w] & 1
        if top > index.top:
            index = FlatIndex(distinct, d, top)
            index.build(inf)
        through = index.through

        def extends(w):
            s = slots[w]
            if chosen >> s & 1:
                return False
            for mask, j in through[s]:
                if (mask & chosen).bit_count() > j:
                    return False
            return True

        return extends

    return grow


def _reducer(args, entries):
    """Compile a function of args that returns the integer vector of the
    expressions in entries divided by their gcd, first nonzero entry
    positive, as a tuple, or None when it is zero. The index computes such
    a key for every tuple of points, so each shape is compiled once into
    straight-line code."""
    names = ["a%d" % i for i in range(len(entries))]
    lines = ["def key(%s):" % args]
    lines += ["    %s = %s" % (a, e) for a, e in zip(names, entries)]
    lines += [
        "    g = gcd(%s)" % ", ".join(names),
        "    if not g:",
        "        return None",
        "    if (%s) < 0:" % " or ".join(names),  # the first nonzero entry
        "        g = -g",
        "    return (%s,)" % ", ".join("%s // g" % a for a in names),
    ]
    namespace = {"gcd": gcd}
    exec("\n".join(lines), namespace)
    return namespace["key"]


@cache
def _line_key(d):
    """key(p, q): the direction pw*q - qw*p from p to q, homogeneous
    vectors in dimension d, reduced. Two points lie on one line through p
    iff their directions have the same key (pw, qw > 0)."""
    return _reducer("p, q", ["p[%d] * q[%d] - q[%d] * p[%d]" % (d, i, d, i) for i in range(d)])


@cache
def _flat_key(n, k):
    """key(v, p): the Plücker vector of k vectors and one more, from their
    Plücker vector v (the k-minors, column sets in lexicographic order) and
    the new vector p, all in length n: the (k+1)-minors, by Laplace
    expansion along the new row, reduced; None when the k+1 vectors are
    dependent."""
    position = {cols: i for i, cols in enumerate(combinations(range(n), k))}
    entries = []
    for cols in combinations(range(n), k + 1):
        entries.append(" ".join(
            "%s p[%d] * v[%d]" % ("+-"[(k + t) % 2], s, position[cols[:t] + cols[t + 1:]])
            for t, s in enumerate(cols)
        ))
    return _reducer("v, p", entries)


def extend_gp(S, T):
    """First point of T (input order) whose addition keeps S in general
    position, or None.

    S must be in general position. Such a point always exists when T is in
    general position with |T| >= extension_bound(d, |S|+1): at most d points
    of T lie on each of the C(|S|, d) hyperplanes spanned by S.
    """
    s_pts = _as_points(S)
    t_pts = _as_points(T)
    d = _common_dim(s_pts + t_pts, fallback=getattr(T, "d", None))
    if d is None:
        return None
    homs = [p.hom for p in s_pts]
    for p in t_pts:
        if gp_extends(homs, p.hom):
            return p
    return None
