"""Exact rational affine geometry.

Points live in d-dimensional rational space and carry a primitive integer
homogeneous vector (numerators scaled to a common positive denominator,
divided by the content), so every affine predicate runs on integers in the
kernel backend: independence and hyperplanes through ranks and determinants,
and the incremental general-position test (gp_extends) by radial projection
from the new point, with the directions to the prefix hashed as lines (see
genpos._kernels.pure). No floating point is used anywhere.

A point list is *in general position* when every subset of size at most d+1
is affinely independent; coordinate-equal entries therefore always break
general position (a repeated point is a dependent pair).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from genpos._kernels import gp_extends, int_det, int_rank
from genpos.errors import DimensionMismatch, NotInGeneralPosition
from genpos.search import max_extension

__all__ = [
    "Point",
    "PointMultiset",
    "Hyperplane",
    "affinely_independent",
    "in_general_position",
    "keeps_general_position",
    "gp_number",
    "LineIndex",
    "spanned_hyperplanes",
    "extend_gp",
]


class Point:
    """Immutable point with exact rational coordinates.

    ``hom`` is the primitive homogeneous integer vector
    (num_0, ..., num_{d-1}, den) with den > 0 and content 1; two points are
    equal iff their homogeneous vectors are equal.
    """

    __slots__ = ("coords", "hom")

    def __init__(self, coords):
        cs = tuple(Fraction(c) for c in coords)
        if not cs:
            raise ValueError("a point needs at least one coordinate")
        den = lcm(*(c.denominator for c in cs))
        vec = [c.numerator * (den // c.denominator) for c in cs]
        vec.append(den)
        g = gcd(*vec)
        self.coords = cs
        self.hom = tuple(v // g for v in vec)

    @property
    def d(self):
        return len(self.coords)

    def __eq__(self, other):
        return isinstance(other, Point) and self.hom == other.hom

    def __hash__(self):
        return hash(self.hom)

    def __iter__(self):
        return iter(self.coords)

    def __repr__(self):
        return "Point(%s)" % ", ".join(str(c) for c in self.coords)


class PointMultiset:
    """Ordered finite multiset of points of one common dimension.

    Duplicates are kept: multiplicity matters to the complex builders even
    though it never helps general position. An empty multiset must be given
    its dimension explicitly.
    """

    __slots__ = ("points", "d")

    def __init__(self, points, d=None):
        pts = tuple(p if isinstance(p, Point) else Point(p) for p in points)
        if pts:
            dims = {p.d for p in pts}
            if len(dims) > 1:
                raise DimensionMismatch("mixed point dimensions: %s" % sorted(dims))
            inferred = pts[0].d
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
    dims = {p.d for p in pts}
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


def keeps_general_position(prefix, p):
    """True iff appending ``p`` to ``prefix`` keeps general position.

    ``prefix`` must already be in general position; this is the incremental
    form of in_general_position and the hot predicate of every solver.
    """
    pts = _as_points(prefix)
    if not isinstance(p, Point):
        p = Point(p)
    d = _common_dim(pts, fallback=p.d)
    if p.d != d:
        raise DimensionMismatch("point has d=%d, prefix has d=%d" % (p.d, d))
    return gp_extends([q.hom for q in pts], p.hom, d)


def in_general_position(points):
    """True iff every subset of size at most d+1 is affinely independent."""
    pts = _as_points(points)
    if len(pts) <= 1:
        return True
    d = _common_dim(pts)
    homs = []
    for p in pts:
        if not gp_extends(homs, p.hom, d):
            return False
        homs.append(p.hom)
    return True


def gp_number(X, node_budget=None, *, lower=0, cap=None, bound=None):
    """Maximum size of a sub-multiset in general position.

    Repeated coordinates never help (a duplicate pair is affinely dependent),
    so the search runs on distinct points in input order, by the budgeted
    branch-and-bound of genpos.search.max_extension: each gp_extends call is
    one node against node_budget (None: DEFAULT_NODE_BUDGET), and past it
    BudgetExceeded is raised. If the greedy first pass keeps at most d
    points, every point it rejected lies on their affine hull, a flat of
    dimension below d, where no general-position set is larger; that pass
    is the answer, so points on one line or plane cost one scan.

    lower, cap and bound are bounds on the answer that the caller already
    holds or can compute (PointFamily takes the first two from sub-unions
    and passes a LineIndex cover as bound): the search seeks only sets
    larger than lower, stops at the first set of size cap, and calls bound()
    at most once, when it has to prove its incumbent optimal. Bounds that
    hold leave the answer unchanged.
    """
    pts = _as_points(X)
    distinct = list(dict.fromkeys(pts))
    if not distinct:
        return 0
    d = _common_dim(distinct)
    return max_extension(
        [p.hom for p in distinct],
        lambda chosen, h: gp_extends(chosen, h, d),
        d + 1,
        lower=lower,
        cap=cap,
        node_budget=node_budget,
        bound=bound,
    )


class LineIndex:
    """The lines through three or more of a list of distinct points, as
    bitmasks over the list, for an upper bound on gp_number of any sublist.

    In dimension d >= 2 a general-position set has at most 2 points on a
    line, so for lines L_1, L_2, ... chosen greedily (each time the one
    holding the most points of the sublist X not yet covered, while it holds
    3 or more) gp_number(X) is at most 2 per chosen line plus the points of
    X on none of them; see Froese, Kanj, Nichterlein and Niedermeier,
    "Finding points in general position" (2017). Building the index hashes
    the direction from each point to every later one, O(n^2) in all; a
    cover then works on bitmasks alone.
    """

    __slots__ = ("lines",)

    def __init__(self, homs):
        # homs: distinct primitive homogeneous vectors, last entry positive
        n = len(homs)
        lines = []
        partners = [0] * n  # points sharing a recorded line with each point
        for i in range(n - 1):
            first = {}
            more = {}
            for j, key in enumerate(_directions(homs[i], homs[i + 1:]), i + 1):
                k = first.setdefault(key, j)
                if k != j:
                    more.setdefault(key, [k]).append(j)
            for members in more.values():
                rest = 0
                for j in members:
                    rest |= 1 << j
                if rest & partners[i]:
                    continue  # recorded from an earlier point of the line
                mask = rest | 1 << i
                lines.append(mask)
                for j in members:
                    partners[j] |= mask
                partners[i] |= mask
        self.lines = lines

    def cover(self, mask):
        """Upper bound on gp_number (d >= 2) of the points in mask."""
        total = 0
        live = self.lines
        while True:
            live = [line & mask for line in live if (line & mask).bit_count() >= 3]
            if not live:
                return total + mask.bit_count()
            total += 2
            mask &= ~max(live, key=int.bit_count)


def _directions(p, qs):
    """The directions pw*q - qw*p from p to each q, gcd-reduced with the
    first nonzero entry positive (as in genpos._kernels.pure._through), so
    that two of them are equal iff p and the two points are collinear."""
    keys = []
    if len(p) == 3:
        px, py, pw = p
        for qx, qy, qw in qs:
            s = pw * qx - qw * px
            t = pw * qy - qw * py
            g = gcd(s, t)
            if s < 0 or (not s and t < 0):
                g = -g
            keys.append((s // g, t // g))
        return keys
    pw = p[-1]
    ps = p[:-1]
    for q in qs:
        qw = q[-1]
        v = [pw * x - qw * y for x, y in zip(q, ps)]
        g = gcd(*v)
        for x in v:
            if x:
                break
        if x < 0:
            g = -g
        keys.append(tuple([x // g for x in v]))
    return keys


@dataclass(frozen=True)
class Hyperplane:
    """Affine hyperplane {x : normal . x = offset} with a canonical exact
    representation: integer coefficients of content 1, first nonzero normal
    entry positive."""

    normal: tuple
    offset: int

    def contains(self, point):
        p = point if isinstance(point, Point) else Point(point)
        if p.d != len(self.normal):
            raise DimensionMismatch("point has d=%d, hyperplane has d=%d" % (p.d, len(self.normal)))
        s = sum(n * x for n, x in zip(self.normal, p.hom[:-1]))
        return s == self.offset * p.hom[-1]

    @classmethod
    def through(cls, points):
        """The hyperplane spanned by d affinely independent points in
        dimension d."""
        pts = _as_points(points)
        if not pts:
            raise ValueError("need points to span a hyperplane")
        d = _common_dim(pts)
        if len(pts) != d:
            raise ValueError("a hyperplane in dimension %d is spanned by %d points" % (d, d))
        if not affinely_independent(pts):
            raise NotInGeneralPosition("spanning points are affinely dependent")
        return _hyperplane_through([p.hom for p in pts], d)

    def __repr__(self):
        return "Hyperplane(normal=%r, offset=%r)" % (self.normal, self.offset)


def _hyperplane_through(homs, d):
    # Null vector of the d x (d+1) homogeneous matrix via signed cofactors.
    coefs = []
    for j in range(d + 1):
        sub = [[row[t] for t in range(d + 1) if t != j] for row in homs]
        c = int_det(sub)
        coefs.append(-c if j % 2 else c)
    g = gcd(*coefs)
    coefs = [c // g for c in coefs]
    for c in coefs[:d]:
        if c != 0:
            if c < 0:
                coefs = [-x for x in coefs]
            break
    return Hyperplane(normal=tuple(coefs[:d]), offset=-coefs[d])


def spanned_hyperplanes(S):
    """All hyperplanes spanned by d-subsets of S (S must be in general
    position). For |S| >= d the result has exactly C(|S|, d) members: distinct
    d-subsets of a general-position set span distinct hyperplanes."""
    pts = _as_points(S)
    if not in_general_position(pts):
        raise NotInGeneralPosition("spanned_hyperplanes needs a general-position input")
    if not pts:
        return frozenset()
    d = _common_dim(pts)
    out = set()
    for combo in combinations(pts, d):
        out.add(_hyperplane_through([p.hom for p in combo], d))
    return frozenset(out)


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
        if gp_extends(homs, p.hom, d):
            return p
    return None
