"""Answer-key oracle, written without any genpos code.

Affine questions are reduced to linear algebra on homogeneous vectors
(coords..., 1) and answered by Gaussian elimination over Fraction. A set of
points is in general position when no point lies in the affine hull of at
most d others; the searches below grow sets one point at a time and keep a
bitmask of the points that the hulls of the chosen ones already forbid.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import comb, lcm, prod


def parse_point(coords):
    return tuple(Fraction(c) for c in coords)


def null_space(rows, width):
    """Integer basis of {x : r . x = 0 for every row r}, by Fraction
    elimination to reduced row echelon form."""
    mat = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    rank = 0
    for col in range(width):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        pivots.append(col)
        rank += 1
    basis = []
    for free in (c for c in range(width) if c not in pivots):
        vec = [Fraction(0)] * width
        vec[free] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -mat[i][free]
        scale = lcm(*(v.denominator for v in vec))
        basis.append(tuple(int(v * scale) for v in vec))
    return rank, basis


def rank(rows):
    if not rows:
        return 0
    return null_space(rows, len(rows[0]))[0]


class Configuration:
    """Distinct points of one dimension, with memoized affine hulls."""

    def __init__(self, points, d):
        self.d = d
        self.points = list(dict.fromkeys(parse_point(p) for p in points))
        self.index = {p: i for i, p in enumerate(self.points)}
        self._homs = []
        for p in self.points:
            scale = lcm(*(c.denominator for c in p))
            self._homs.append(tuple(int(c * scale) for c in p) + (scale,))
        self._hulls = {}

    def hull(self, subset):
        """Mask of the points on the affine hull of the points ``subset``
        (sorted index tuple, affinely independent)."""
        got = self._hulls.get(subset)
        if got is None:
            _, normals = null_space([self._homs[i] for i in subset], self.d + 1)
            got = 0
            for j, h in enumerate(self._homs):
                if all(sum(a * b for a, b in zip(nv, h)) == 0 for nv in normals):
                    got |= 1 << j
            self._hulls[subset] = got
        return got

    def _forbidden_by(self, chosen, v):
        # points that cannot join chosen + {v}: those on a hull of v with at
        # most d-1 chosen points (v itself included)
        out = 0
        for t in range(min(len(chosen), self.d - 1) + 1):
            for sub in combinations(chosen, t):
                out |= self.hull(tuple(sorted(sub + (v,))))
        return out

    def in_general_position(self, indices):
        chosen = ()
        forbidden = 0
        for v in indices:
            if forbidden >> v & 1:
                return False
            forbidden |= self._forbidden_by(chosen, v)
            chosen += (v,)
        return True

    def gp_number(self, cand):
        """Largest general-position subset of the points in mask ``cand``."""
        best = 0

        def rec(chosen, forbidden, cand):
            nonlocal best
            free = cand & ~forbidden
            if len(chosen) + free.bit_count() <= best:
                return
            if not free:
                best = len(chosen)
                return
            v = (free & -free).bit_length() - 1
            rec(chosen + (v,), forbidden | self._forbidden_by(chosen, v), cand & ~(1 << v))
            rec(chosen, forbidden, cand & ~(1 << v))

        rec((), 0, cand)
        return best

    def has_system(self, sets):
        """True iff one point per set (sets: lists of point indices) can be
        chosen with the picks jointly in general position."""

        def rec(i, chosen, forbidden):
            if i == len(sets):
                return True
            for v in dict.fromkeys(sets[i]):
                if not forbidden >> v & 1:
                    if rec(i + 1, chosen + (v,), forbidden | self._forbidden_by(chosen, v)):
                        return True
            return False

        return rec(0, (), 0)


def family_config(doc):
    pts = [p for X in doc["sets"] for p in X]
    conf = Configuration(pts, doc["d"])
    sets = [[conf.index[parse_point(p)] for p in X] for X in doc["sets"]]
    return conf, sets


def union_gp_numbers(doc):
    """gp_number of every nonempty subfamily union, keyed by index tuple, in
    the order of growing size then lexicographic."""
    conf, sets = family_config(doc)
    masks = [sum(1 << v for v in set(X)) for X in sets]
    out = {}
    for size in range(1, len(sets) + 1):
        for combo in combinations(range(len(sets)), size):
            cand = 0
            for i in combo:
                cand |= masks[i]
            out[combo] = conf.gp_number(cand)
    return out


# ---------------------------------------------------------------------------
# bound formulas, restated from their definitions


def extension_bound(d, k):
    return k if k <= d + 1 else d * comb(k - 1, d) + 1


def greedy_bound(d, k):
    return k * (extension_bound(d, k) - 1) + 1


def representative_bound(d, k):
    c = k - 2
    if d == 1 or c <= d - 1:
        return c + 2
    return d * comb(2 * c + 2, d) + 1


# ---------------------------------------------------------------------------
# complexes on vertices 0..n-1 as sets of bitmasks (empty face included)


def gp_faces(points, d, max_card):
    """Index sets of a point list (multiplicity kept) in general position."""
    conf = Configuration(points, d)
    label = [conf.index[parse_point(p)] for p in points]
    faces = {0}
    for size in range(1, max_card + 1):
        for combo in combinations(range(len(points)), size):
            picked = [label[i] for i in combo]
            if len(set(picked)) == size and conf.in_general_position(picked):
                faces.add(sum(1 << i for i in combo))
    return faces


def independent_faces(points, d):
    """Affinely independent index sets (a repeated point is dependent)."""
    homs = [parse_point(p) + (Fraction(1),) for p in points]
    faces = {0}
    for size in range(1, min(len(points), d + 1) + 1):
        for combo in combinations(range(len(points)), size):
            if rank([homs[i] for i in combo]) == size:
                faces.add(sum(1 << i for i in combo))
    return faces


def uniform_faces(points, d):
    """Uniform index sets: independent, or larger than the rank r with all
    r-subsets independent; up to size r+3, the CLI's default cap."""
    n = len(points)
    homs = [parse_point(p) + (Fraction(1),) for p in points]
    independent = independent_faces(points, d)
    r = rank(homs)
    faces = set()
    for size in range(0, min(n, r + 3) + 1):
        for combo in combinations(range(n), size):
            mask = sum(1 << i for i in combo)
            if mask in independent or (
                size > r
                and all(sum(1 << i for i in s) in independent for s in combinations(combo, r))
            ):
                faces.add(mask)
    return faces


def bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def facets(faces):
    out = [f for f in faces if not any(g != f and g & f == f for g in faces)]
    return sorted((bits(f) for f in out), key=lambda t: (len(t), t))


def complex_doc(n, faces):
    """The document `complex <op>` prints for a complex."""
    return {
        "n_vertices": n,
        "dim": max(f.bit_count() for f in faces) - 1 if faces else -1,
        "n_faces": len(faces),
        "facets": facets(faces),
    }


def f_vector(faces, top):
    return [sum(1 for f in faces if f.bit_count() == s) for s in range(1, top + 1)]


def q_star(faces, q):
    """(holds, first violating q-set) straight from the definition."""
    verts = [v for v in range(max(faces).bit_length()) if 1 << v in faces] if faces else []
    if len(verts) <= q:
        return False, None
    dim = max(f.bit_count() for f in faces) - 1
    small = [f for f in faces if f.bit_count() <= dim]
    for combo in combinations(verts, q):
        ym = sum(1 << v for v in combo)
        local = [f for f in small if f & ~ym == 0]
        if not any(
            not ym >> v & 1 and all(f | 1 << v in faces for f in local) for v in verts
        ):
            return False, list(combo)
    return True, None


def join_betti(sizes):
    """Reduced Betti numbers of the join of discrete sets of these sizes: a
    wedge of prod(m_i - 1) spheres of dimension len(sizes) - 1."""
    return [0] * (len(sizes) - 1) + [prod(m - 1 for m in sizes)]


def join_f_vector(sizes):
    # faces of size s pick s of the sets and one vertex from each
    return [
        sum(prod(c) for c in combinations(sizes, s)) for s in range(1, len(sizes) + 1)
    ]


def join_facets(sizes):
    offsets = [sum(sizes[:i]) for i in range(len(sizes))]
    return [[o + v for o, v in zip(offsets, pick)] for pick in product(*map(range, sizes))]
