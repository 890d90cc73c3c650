"""Exact rational affine geometry.

Points live in d-dimensional rational space and carry a primitive integer
homogeneous vector (numerators scaled to a common positive denominator,
divided by the content), so every affine predicate runs on integers in the
kernels (genpos._kernels): affine independence through an exact rank,
and the incremental general-position test (gp_extends) by radial projection
from the new point, with the directions to the prefix hashed as lines (see
genpos._kernels.pure). gp_number does not call gp_extends: it works on a
FlatIndex, the flats through too many of the points as bitmasks, where
general position is popcount arithmetic. The index is built in loops
compiled once for each shape (d, j), with no key for a point on a line
recorded at a lower point; its node charge still counts every tuple. The
general-position complex and the affine matroid's independence and
uniformity complexes grow on the same index (gp_grow), capped at the flat
dimension each level of faces needs and at the matroid's rank, its flats
spread to vertex masks and repeated points counted as 0-flats, so a face's
extenders are its parent's less the flats through its last vertex that it
crowds. No floating point is used anywhere.

A point list is a PointMultiset, a list of Points or a list of coordinate
sequences, read alike everywhere. It is *in general position* when every
subset of size at most d+1 is affinely independent; coordinate-equal entries
therefore always break general position (a repeated point is a dependent pair).
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
    if g == 1:
        return tuple(vec)
    return tuple(v // g for v in vec)


class PointMultiset:
    """Ordered finite multiset of points of one common dimension.

    points is a point list of any form. Duplicates are kept: multiplicity
    matters to the complex builders even though it never helps general
    position. An empty multiset must be given its dimension explicitly.
    _validated=True takes points as given: a tuple of Points, each of
    dimension d.
    """

    __slots__ = ("points", "d")

    def __init__(self, points, d=None, _validated=False):
        if _validated:
            self.points = points
            self.d = d
            return
        pts, inferred = _point_list(points)
        if not pts:
            if d is None:
                raise ValueError("an empty multiset needs an explicit dimension")
        elif d is None:
            d = inferred
        elif d != inferred:
            raise DimensionMismatch("declared d=%d but points have d=%d" % (d, inferred))
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


def _point_list(X):
    """(points, d) of a point list: a PointMultiset's own tuple and d, else
    a tuple of Points and their d (None if there are none). Mixed dimensions
    raise DimensionMismatch."""
    if isinstance(X, PointMultiset):
        return X.points, X.d
    pts = tuple(p if isinstance(p, Point) else Point(p) for p in X)
    dims = {len(p.hom) - 1 for p in pts}
    if len(dims) > 1:
        raise DimensionMismatch("mixed point dimensions: %s" % sorted(dims))
    return pts, dims.pop() if dims else None


def affinely_independent(points):
    """True iff the points are affinely independent (exact rank test)."""
    pts, d = _point_list(points)
    if len(pts) > (d or 0) + 1:  # no points: d is None, and the rank is 0
        return False
    return int_rank([p.hom for p in pts]) == len(pts)


def in_general_position(points):
    """True iff every subset of size at most d+1 is affinely independent."""
    pts, _ = _point_list(points)  # mixed dimensions raise
    homs = []
    for p in pts:
        if not gp_extends(homs, p.hom):
            return False
        homs.append(p.hom)
    return True


def gp_number(X, node_budget=None, *, cap=None, index=None):
    """Maximum size of a sub-multiset in general position.

    Repeated coordinates never help (a duplicate pair is affinely
    dependent), so only the distinct points U of X count.

    - X is a point list, or, when an index is given, an int whose bits
      pick points of index.homs (bit i for index.homs[i]). A point list
      becomes such a mask over the given index, or over a new index of its
      distinct points, and both forms run the same code from there. A
      negative mask, a bit past index.homs or a point the given index lacks
      raises ValueError before any work.
    - cap is a bound on the answer that the caller already holds
      (PointFamily takes it from sub-unions): the search returns as soon as
      it finds a subset in general position of that size.
    - An index capped at top = r-2 below d-1 asks instead for the largest
      subset in general position at rank r (no j-flat, j <= r-2, through
      j+2 of its points): the largest uniform set of the points' affine
      matroid truncated to rank r (genpos.matroids.max_uniform_size). With
      every dimension indexed, r is d+1.
    - Unless the index is built already, the affine rank s of U comes
      next (one elimination, int_rank). When s < r, U lies in an
      (s-1)-flat and the answer is s: any s+1 of its points are dependent,
      and s independent points are in general position.
    - Otherwise the FlatIndex over U, or the given index over a superset
      of U, is built if it is not yet; each tuple it hashes is one node of
      node_budget (None: DEFAULT_NODE_BUDGET). A point of U is *free* when
      no indexed j-flat through it holds j+2 points of U. It extends every
      general-position subset of U, so gp(U) = #free + gp(U minus the free
      points), as in the kernelisation of Froese, Kanj, Nichterlein and
      Niedermeier, "Finding points in general position" (2017).
    - The points left are genpos.search.max_extension's candidates, taken
      in ascending order: when w joins the chosen set C, each flat through
      w holding j+1 points of C + {w} rules out its other points, so no
      blocked point is asked about again. Each grow charges one node per
      flat through w, after the build's tuples. The line cover of those
      points (FlatIndex.cover) is the bound the search asks for when it
      must prove its best size optimal.

    Past the budget, in the build or at any grow, BudgetExceeded is raised.
    A cap that holds leaves the answer unchanged.
    """
    if isinstance(X, int):
        if index is None:
            raise ValueError("gp_number of a bitmask needs index=")
        n = len(index.homs)
        if X < 0:
            raise ValueError("gp_number of a negative bitmask %d" % X)
        if X >> n:
            raise ValueError("bitmask bit %s outside 0..%d"
                             % (", ".join(map(str, bits_of(X >> n << n))), n - 1))
        union = X
    else:
        pts, d = _point_list(X)
        if index is None:
            index = FlatIndex([p.hom for p in pts], d or 0)
        pos = index.pos
        union = 0
        for p in pts:
            i = pos.get(p.hom)
            if i is None:
                raise ValueError("point %r is not in the index" % (p,))
            union |= 1 << i
    full = index.top + 2  # the rank sought: d+1 unless the index is capped lower
    budget = DEFAULT_NODE_BUDGET if node_budget is None else node_budget
    spent = 0
    if index.flats is None:
        homs = index.homs
        rank = int_rank([homs[i] for i in bits_of(union)])
        if rank < full:
            return rank
        spent = index.build(budget)
    crowded = index.crowded(union)
    free = (union & ~crowded).bit_count()
    if not crowded:
        return free
    through = index.through

    def grow(chosen, w):
        # every crowded point lies on a flat, so each grow charges a node
        nonlocal spent
        flats = through[w.bit_length() - 1]
        spent += len(flats)
        if spent > budget:
            raise BudgetExceeded("search exceeds %d nodes" % budget)
        chosen |= w
        out = 0
        for mask, j in flats:
            if (mask & chosen).bit_count() > j:
                out |= mask
        return out

    return free + max_extension(
        crowded,
        grow,
        full,
        cap=None if cap is None else cap - free,
        bound=lambda: index.cover(crowded),
    )


class FlatIndex:
    """The flats holding too many of a list's distinct points (homs, in order
    first seen) for general position, as bitmasks over homs: every j-flat,
    1 <= j <= top, through at least j+2 of the points, with its dimension j.

    A general-position set has at most j+1 points on a j-flat. A point w
    extends a general-position set C unless some indexed j-flat through w
    holds j+1 points of C: a smallest dependent subset of C + {w} is j+1
    independent points of C and w on their j-flat, which then holds j+2 of
    the points. So with ``through[i]``, the (mask, j) of the flats through
    point i, general position is popcount arithmetic: once w joins C, each
    flat through w holding j+1 points of C + {w} rules out its other points.

    top caps the dimension (None: d-1, every dimension, which general
    position asks for). An affine matroid of rank r asks for j <= r-2
    (genpos.matroids.max_uniform_size). gp_grow, which grows the
    general-position complex and the affine matroid's complexes, needs the
    j-flats only once its faces have j+1 vertices, and builds a new index
    one dimension deeper at each level.

    The index is built lazily (build), once, at a cost of one node per
    (j+1)-tuple of points, the sum over j <= top of C(n, j+1). Each tuple
    is taken from its lowest point a: the directions from a to the other j
    points span the j-flat's direction space, and their Plücker vector (the
    j-minors, grown one direction at a time by Laplace expansion),
    gcd-reduced with its first nonzero entry positive, names that flat
    among the flats through a, or is zero when the tuple is dependent. So
    every flat is found with all its points at its lowest point, and
    recorded there; at a higher point it lies inside a recorded flat of its
    dimension through that point, whose key is the same, since the key
    depends on the direction space only. d = 1 has no flats.

    Each level at a (the lines through a, then the j-flats for each j) is
    one loop, compiled once for each shape (d, j) with the key arithmetic
    written out inline, so no tuple costs a Python call. Each point keeps
    the mask of the points it shares a recorded line with, and a point on
    a line recorded at a lower point gets no line key: its line is known,
    and its direction from a is that line's key. The charge still counts
    every tuple, keyed or skipped.
    """

    __slots__ = ("d", "top", "homs", "pos", "flats", "through", "lines")

    def __init__(self, homs, d, top=None):
        # homs: primitive homogeneous vectors, last entry positive
        self.d = d
        self.top = d - 1 if top is None else top
        self.homs = homs = list(dict.fromkeys(homs))
        self.pos = {h: i for i, h in enumerate(homs)}
        self.flats = None  # [(mask, j)], once built
        self.through = None
        self.lines = None  # the masks of the indexed lines, in flat order

    def tuples(self):
        """Nodes a build costs: the number of (j+1)-tuples, 1 <= j <= top."""
        n = len(self.homs)
        return sum(comb(n, j + 1) for j in range(1, self.top + 1))

    def build(self, node_budget=None):
        """Build the index if it is not built, and return the nodes that
        cost (0 if it was built). BudgetExceeded is raised, before any
        work, when the tuples outnumber node_budget (None:
        DEFAULT_NODE_BUDGET). Every tuple is charged, also one whose key
        is never computed. A group holds the points above its lowest
        point a, which joins it only if it is kept. Flats, and each
        through[i], come out in order of lowest point, j, and first
        affinely independent (j+1)-tuple, which cover's greedy tie-break
        depends on."""
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
        flats, lines = [], []
        through = [[] for _ in range(n)]
        if top > 0 and n > 2:
            deep = top > 1
            lines_from = _lines_from(d, deep)
            levels = [(j, _level(d, j, j < top)) for j in range(2, top + 1)]
            shared = [0] * n  # by point: the points it shares a recorded line with
            dirs = [None] * n  # from a, the direction of a recorded line through a point
            known = {}  # the key of each recorded line, which is its direction
            spans = [{} for _ in range(top + 1)]  # by dimension: key -> its recorded j-flats
            for a in range(n - 2):
                skip = shared[a]
                if deep and skip:
                    for mask, j in through[a]:
                        if j == 1:
                            key = known[mask]
                            for b in bits_of(mask):
                                dirs[b] = key
                # a key found for two tuples holds j+1 points above a: a
                # flat through j+2 points, new unless recorded lower
                rows, group, repeats = [], {}, []  # key -> points above a, and repeated keys
                lines_from(homs, a, skip, dirs, rows, group, repeats)
                repeats.sort()  # no line recorded lower was keyed
                for _, key in repeats:
                    mask = group[key] | 1 << a
                    flat = (mask, 1)
                    flats.append(flat)
                    lines.append(mask)
                    known[mask] = key
                    for i in bits_of(mask):
                        through[i].append(flat)
                        shared[i] |= mask
                level = rows
                for j, run in levels:
                    if a + j + 2 > n:
                        break  # a new j-flat holds j+1 points above a
                    group, repeats = {}, []
                    level = run(level, rows, group, repeats)
                    if not repeats:
                        continue
                    # a flat's key is the Plücker vector of its direction
                    # space, which parallel flats share and no two flats
                    # through a do
                    spanned = spans[j]
                    repeats = [(first, key) for first, key in repeats
                               if not spanned.get(key, 0) >> a & 1]  # recorded lower
                    if len(repeats) > 1:  # in the order of their first tuples
                        repeats.sort(key=lambda repeat: bits_of(repeat[0]))
                    for _, key in repeats:
                        mask = group[key] | 1 << a
                        flat = (mask, j)
                        flats.append(flat)
                        spanned[key] = spanned.get(key, 0) | mask
                        for i in bits_of(mask):
                            through[i].append(flat)
        self.through = [tuple(t) for t in through]
        self.flats = flats
        self.lines = lines
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
        live = self.lines
        while True:
            live = [line & mask for line in live if (line & mask).bit_count() >= 3]
            if not live:
                return total + mask.bit_count()
            total += 2
            mask &= ~max(live, key=int.bit_count)


def gp_grow(vecs, rank):
    """grow for genpos.complexes.levelwise_complex: the faces are the index
    sets of vecs in general position at rank ``rank``, where vecs are
    primitive homogeneous vectors in dimension d, last entry positive,
    repeats allowed: no j-flat with j <= rank-2 holds j+2 of their points.
    At rank d+1 that is general position in R^d; at the rank r of the
    points' affine matroid, or below it, these are the uniform sets of that
    matroid truncated to rank r, and capped at r points a face the
    independent ones. At rank 1 or less every set is a face.

    Each indexed flat (FlatIndex over the distinct vectors) is spread to the
    vertex mask of every vector on it, and the copies of a repeated vector
    make a 0-flat. A face's extenders are then every vertex outside the face
    and outside each flat L of dimension j that holds more than j of the
    face's vertices, popcount(L & face) > j. Those flats are the parent's
    (the face less its last vertex v), missing from its extenders in prev,
    and those through v, struck with v. A j-flat can hold j+1 of a face's
    k vertices only when j+1 <= k, so the index goes to top = min(k,
    rank-1) - 1: the first face of each level with 1 < k < rank (cur is
    still empty) builds it one dimension deeper than the level before.
    Building the j-flats costs about as many keys as the faces of j
    vertices grown already, so the face budget that bounds the enumeration
    bounds the index too, and no node budget is charged."""
    every = (1 << len(vecs)) - 1
    if rank <= 1:
        return lambda face, prev, cur: every & ~face
    index = FlatIndex(vecs, len(vecs[0]) - 1, 0)  # no flats yet: the distinct vectors
    slots = [index.pos[v] for v in vecs]
    spread = [0] * len(index.homs)  # the vertices of each distinct vector
    for i, s in enumerate(slots):
        spread[s] |= 1 << i
    repeats = [((m, 0),) if m & m - 1 else () for m in spread]
    through = [repeats[s] for s in slots]  # by vertex: (vertex mask, j) of the flats through it

    def grow(face, prev, cur):
        nonlocal index, through
        if not face:
            return every
        if not cur and 1 < face.bit_count() < rank:  # a level that needs deeper flats
            index = FlatIndex(index.homs, index.d, face.bit_count() - 1)
            index.build(inf)
            wide = {}
            for flat, j in index.flats:
                m = 0
                for s in bits_of(flat):
                    m |= spread[s]
                wide[flat, j] = m, j
            through = [repeats[s] + tuple(map(wide.__getitem__, index.through[s]))
                       for s in slots]
        v = face.bit_length() - 1
        ext = prev[face ^ 1 << v] & ~(1 << v)
        for mask, j in through[v]:
            if (mask & face).bit_count() > j:
                ext &= ~mask
        return ext

    return grow


def _keyed(entries, dependent, bit, j, indent):
    """Source lines that set r0, r1, ... to the integer vector of the
    expressions in entries divided by their gcd, first nonzero entry
    positive, and key to it as a tuple (with dependent, a zero vector goes
    on to the next loop pass), then OR bit, the mask of a j-tuple, into
    group[key], and append (first mask, key) to repeats when key repeats
    for the first time."""
    ks = ["k%d" % i for i in range(len(entries))]
    rs = ["r%d" % i for i in range(len(entries))]
    lines = ["%s = %s" % (k, e) for k, e in zip(ks, entries)]
    lines.append("g = gcd(%s)" % ", ".join(ks))
    if dependent:
        lines += ["if not g:", "    continue"]
    lines += [
        "if (%s) < 0:" % " or ".join(ks),  # the first nonzero entry
        "    g = -g",
        *("%s = %s // g" % (r, k) for r, k in zip(rs, ks)),
        "key = (%s,)" % ", ".join(rs),
        "old = group.setdefault(key, %s)" % bit,
        "if old != %s:" % bit,
        "    group[key] = old | %s" % bit,
        "    if old.bit_count() == %d:" % j,
        "        repeats.append((old, key))",
    ]
    return [indent + line for line in lines]


def _unpacked(prefix, count, value):
    return "%s, = %s" % (", ".join("%s%d" % (prefix, i) for i in range(count)), value)


def _compiled(lines):
    namespace = {"gcd": gcd}
    exec("\n".join(lines), namespace)
    return namespace["run"]


@cache
def _lines_from(d, deep):
    """run(homs, a, skip, dirs, rows, group, repeats): each point b > a
    of homs outside the mask skip keyed by its line through a (see
    _keyed): the direction pw*q - qw*p from p = homs[a] to q = homs[b],
    reduced, so two points lie on one line through p iff their keys are
    equal (pw, qw > 0). With deep, the row (1 << b, b - a, *direction) is
    appended to rows for each b > a, b - a being the index of the row
    after it, and the direction the key, or dirs[b] for a point in
    skip."""
    return _compiled([
        "def run(homs, a, skip, dirs, rows, group, repeats):",
        "    " + _unpacked("p", d + 1, "homs[a]"),
        "    for b in range(a + 1, len(homs)):",
        "        if skip >> b & 1:",
        *(["            rows.append((1 << b, b - a, *dirs[b]))"] if deep else []),
        "            continue",
        "        " + _unpacked("q", d + 1, "homs[b]"),
        "        bit = 1 << b",
        *_keyed(["p%d * q%d - q%d * p%d" % (d, i, d, i) for i in range(d)],
                False, "bit", 1, " " * 8),
        *(["        rows.append((bit, b - a, %s))" % ", ".join("r%d" % i for i in range(d))]
          if deep else []),
    ])


@cache
def _level(d, j, deeper):
    """run(level, rows, group, repeats): for each (mask, v, start) of
    level, where v is the Plücker vector of j-1 directions in R^d (their
    (j-1)-minors, column sets in lexicographic order), and each row (bit,
    next, *p) of rows from index start on, the j-tuple mask | bit keyed by
    the Plücker vector of those directions and p (see _keyed): their
    j-minors, by Laplace expansion along the new row, reduced. A dependent
    tuple, whose minors are all zero, is passed over. At j = 2 level is
    rows itself, each row (mask, start, *v). With deeper, run returns the
    next level: (mask | bit, key, next) of each tuple keyed."""
    k = j - 1
    position = {cols: i for i, cols in enumerate(combinations(range(d), k))}
    entries = []
    for cols in combinations(range(d), j):
        terms = [("+-"[(k + t) % 2], "p%d * v%d" % (s, position[cols[:t] + cols[t + 1:]]))
                 for t, s in enumerate(cols)]
        terms.sort()  # a term added first, so no entry opens with a unary sign
        entries.append(terms[0][1] + "".join(" %s %s" % term for term in terms[1:]))
    p = ", ".join("p%d" % i for i in range(d))
    if j == 2:
        outer = ["    for mask, start, %s in level:" % ", ".join("v%d" % i for i in range(d))]
    else:
        outer = ["    for mask, vec, start in level:",
                 "        " + _unpacked("v", len(position), "vec")]
    return _compiled([
        "def run(level, rows, group, repeats):",
        "    up = []",
        *outer,
        "        for bit, i, %s in rows[start:]:" % p,
        "            grown = mask | bit",
        *_keyed(entries, True, "grown", j, " " * 12),
        *(["            up.append((grown, key, i))"] if deeper else []),
        "    return up",
    ])


def extend_gp(S, T):
    """First point of T (input order) whose addition keeps S in general
    position, or None.

    S must be in general position. Such a point always exists when T is in
    general position with |T| >= extension_bound(d, |S|+1): at most d points
    of T lie on each of the C(|S|, d) hyperplanes spanned by S.
    """
    s_pts = list(S)
    pts, _ = _point_list(s_pts + list(T))  # mixed dimensions raise
    homs = [p.hom for p in pts[:len(s_pts)]]
    for p in pts[len(s_pts):]:
        if gp_extends(homs, p.hom):
            return p
    return None
