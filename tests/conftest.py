"""Shared test-side oracles and generators.

Oracles here are written independently of the package internals: rank and
determinant via Fraction Gaussian elimination and permutation expansion (the
package uses fraction-free Bareiss), general position via brute-force subset
enumeration, completion and friends straight from their set definitions.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations, product

from hypothesis import strategies as st

from genpos.complexes import SimplicialComplex, bits_of, mask_of
from genpos.geometry import Point, PointMultiset


# ---------------------------------------------------------------------------
# linear algebra oracles (Fraction Gaussian / permutation expansion)


def oracle_det(M):
    """Determinant by permutation expansion. Independent of elimination."""
    n = len(M)
    total = 0
    for perm in permutations(range(n)):
        inv = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = -1 if inv % 2 else 1
        for i in range(n):
            term *= M[i][perm[i]]
        total += term
    return total


def oracle_rank(rows):
    """Rank by plain Gaussian elimination over Fraction."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return 0
    n, m = len(mat), len(mat[0])
    rank = 0
    col = 0
    for col in range(m):
        pivot = next((r for r in range(rank, n) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        for r in range(n):
            if r != rank and mat[r][col] != 0:
                factor = mat[r][col] / pv
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == n:
            break
    return rank


# ---------------------------------------------------------------------------
# geometry oracles


def as_points(pts, d=None):
    return [p if isinstance(p, Point) else Point(p) for p in pts]


def oracle_affinely_independent(pts):
    pts = as_points(pts)
    return oracle_rank([p.hom for p in pts]) == len(pts)


def oracle_gp(pts, d=None):
    """General position by checking every subset of size <= d+1."""
    pts = as_points(pts)
    if not pts:
        return True
    d = pts[0].d
    for size in range(2, min(len(pts), d + 1) + 1):
        for combo in combinations(pts, size):
            if not oracle_affinely_independent(combo):
                return False
    return True


def oracle_keeps_gp(prefix, cand):
    """True iff cand keeps the general-position list prefix in general
    position: every min(|prefix|, d) prefix points, together with cand, are
    affinely independent (each smaller subset lies in one of these, and a
    subset of an independent set is independent)."""
    prefix = as_points(prefix)
    (cand,) = as_points([cand])
    size = min(len(prefix), cand.d)
    return all(
        oracle_affinely_independent(list(combo) + [cand])
        for combo in combinations(prefix, size)
    )


def oracle_sgpr(family):
    """Positions of the lexicographically first system of general-position
    representatives of a PointFamily (one point per set, sets in order), by
    enumerating every pick in product order, or None."""
    for picks in product(*[range(len(X)) for X in family.sets]):
        pts = [family.sets[i][j] for i, j in enumerate(picks)]
        if oracle_gp(pts, d=family.d):
            return picks
    return None


def oracle_gp_number(pts):
    """Largest general-position subset by brute force (use on small inputs):
    subsets from the largest down, each checked as oracle_gp does, with the
    independence of each small subset decided once."""
    pts = as_points(pts)
    n = len(pts)
    independent = {}

    def in_gp(combo):
        for size in range(2, min(len(combo), pts[0].d + 1) + 1):
            for sub in combinations(combo, size):
                got = independent.get(sub)
                if got is None:
                    got = oracle_affinely_independent([pts[i] for i in sub])
                    independent[sub] = got
                if not got:
                    return False
        return True

    for size in range(n, 0, -1):
        for combo in combinations(range(n), size):
            if in_gp(combo):
                return size
    return 0


def random_rational(rng, spread=20, denoms=(1, 1, 1, 2, 3)):
    return Fraction(rng.randint(-spread, spread), rng.choice(denoms))


def random_point(rng, d, spread=20):
    return Point([random_rational(rng, spread) for _ in range(d)])


def random_gp_points(rng, d, size, spread=60, max_tries=4000, keeps=None):
    """Incrementally built general-position set. ``keeps(prefix, cand)``
    accepts a candidate; the package kernel gp_extends on the homogeneous
    vectors is the default, for speed, and tests of that kernel pass
    oracle_keeps_gp."""
    if keeps is None:
        from genpos._kernels import gp_extends

        def keeps(prefix, cand):
            return gp_extends([p.hom for p in prefix], cand.hom)

    pts = []
    tries = 0
    while len(pts) < size:
        tries += 1
        if tries > max_tries:
            raise RuntimeError("rejection sampling stalled")
        cand = random_point(rng, d, spread)
        if keeps(pts, cand):
            pts.append(cand)
    return pts


def random_degenerate_points(rng, d, size, spread=6):
    """Point multiset with planted duplicates and flat subsets."""
    pts = [random_point(rng, d, spread) for _ in range(max(2, size // 2))]
    while len(pts) < size:
        roll = rng.random()
        if roll < 0.3:
            pts.append(pts[rng.randrange(len(pts))])
        elif roll < 0.6 and len(pts) >= 2:
            a, b = rng.sample(pts, 2)
            t = Fraction(rng.randint(-2, 3), rng.choice((1, 2)))
            pts.append(Point([x + t * (y - x) for x, y in zip(a.coords, b.coords)]))
        else:
            pts.append(random_point(rng, d, spread))
    rng.shuffle(pts)
    return pts[:size]


def on_flat(picks, weights):
    """The point picks[0] + sum of w_i (picks[i] - picks[0]): on the affine
    hull of picks, which is a flat of dimension at most len(picks) - 1."""
    base = picks[0].coords
    coords = list(base)
    for q, w in zip(picks[1:], weights):
        coords = [c + w * (y - x) for c, x, y in zip(coords, base, q.coords)]
    return Point(coords)


def random_planted_points(rng, d, size, spread=3):
    """Point multiset with planted duplicates and points on the j-flats
    (1 <= j <= d-1) through j+1 earlier points: collinear triples,
    coplanar quadruples and so on."""
    pts = [random_point(rng, d, spread) for _ in range(max(2, size // 2))]
    while len(pts) < size:
        roll = rng.random()
        if roll < 0.2:
            pts.append(pts[rng.randrange(len(pts))])
        elif roll < 0.8:
            k = rng.randint(1, max(1, min(d - 1, len(pts) - 1)))
            weights = [random_rational(rng, 2, (1, 2, 3)) for _ in range(k)]
            pts.append(on_flat(rng.sample(pts, k + 1), weights))
        else:
            pts.append(random_point(rng, d, spread))
    rng.shuffle(pts)
    return pts


@st.composite
def planted_points(draw, dims=(1, 4), max_distinct=10):
    """Hypothesis strategy for (d, points): a few small integer points, then
    repeats, points on the j-flats through j+1 earlier points, and further
    points, with at most max_distinct distinct points in all (the
    brute-force oracles are exponential)."""
    d = draw(st.integers(*dims))
    coords = st.lists(st.integers(-4, 4), min_size=d, max_size=d)
    pts = [Point(c) for c in draw(st.lists(coords, min_size=1, max_size=4))]
    for kind in draw(st.lists(st.sampled_from(("repeat", "flat", "point")), max_size=9)):
        if len(set(pts)) >= max_distinct:
            break
        if kind == "repeat":
            pts.append(draw(st.sampled_from(pts)))
        elif kind == "flat" and len(pts) >= 2:
            k = draw(st.integers(1, max(1, min(d - 1, len(pts) - 1))))
            picks = draw(st.lists(st.sampled_from(pts), min_size=k + 1, max_size=k + 1))
            weights = draw(st.lists(st.fractions(-2, 2, max_denominator=3),
                                    min_size=k, max_size=k))
            pts.append(on_flat(picks, weights))
        else:
            pts.append(Point(draw(coords)))
    return d, pts


@st.composite
def low_rank_points(draw, max_size=8):
    """Hypothesis strategy for (d, points), d = 1..3: points on a random
    j-flat with 0 <= j < d, so of affine rank at most j+1 <= d, with
    repeats. j = 0 gives identical points. planted_points rarely has rank
    below d+1; this is the cover for the affine-hull frame."""
    d = draw(st.integers(1, 3))
    j = draw(st.integers(0, d - 1))
    vector = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    base = draw(vector)
    dirs = draw(st.lists(vector, min_size=j, max_size=j))
    weights = st.lists(st.fractions(-2, 2, max_denominator=3), min_size=j, max_size=j)
    pts = []
    for ws in draw(st.lists(weights, min_size=1, max_size=max_size)):
        pts.append(Point([b + sum(w * v[c] for w, v in zip(ws, dirs))
                          for c, b in enumerate(base)]))
    for i in draw(st.lists(st.integers(0, len(pts) - 1), max_size=3)):
        pts.append(pts[i])
    return d, pts[:max_size]


# ---------------------------------------------------------------------------
# complex oracles (straight from the definitions)


def oracle_closure_faces(facets, n):
    faces = set()
    for f in facets:
        fm = mask_of(f) if not isinstance(f, int) else f
        members = list(bits_of(fm))
        for size in range(len(members) + 1):
            for combo in combinations(members, size):
                faces.add(mask_of(combo))
    return faces


def subsets_of_size_at_most(mask, k):
    members = list(bits_of(mask))
    for size in range(min(k, len(members)) + 1):
        for combo in combinations(members, size):
            yield mask_of(combo)


def oracle_completion_faces(K, j):
    """Faces of the j-completion by direct definition."""
    faces = set(K.faces)
    if not K.faces:
        return faces
    n = K.n_vertices
    for mask in range(1 << n):
        if mask.bit_count() >= j + 2 and all(
            sub in K.faces for sub in subsets_of_size_at_most(mask, j + 1)
        ):
            faces.add(mask)
    return faces


def oracle_star_faces(K, v):
    vb = 1 << v
    return {f for f in K.faces if (f | vb) in K.faces}


def oracle_neighborhood_faces(K, v):
    d = K.dim
    st = oracle_star_faces(K, v)
    out = set(st)
    vb = 1 << v
    for f in K.faces:
        if f.bit_count() == d + 1 and not f & vb:
            # the size-capped subset collection is empty by convention at d=0
            if d == 0 or all(sub in st for sub in subsets_of_size_at_most(f, d)):
                out.add(f)
    if out:
        out.add(0)  # result is a complex, so close downward
    return out


def oracle_is_q_star(K, q):
    verts = [v for v in range(K.n_vertices) if (1 << v) in K.faces]
    if len(verts) <= q:
        return False
    d = K.dim
    for Y in combinations(verts, q):
        ym = mask_of(Y)
        small = [f for f in K.faces if f & ~ym == 0 and f.bit_count() <= d]
        if not any(
            all((f | (1 << v)) in K.faces for f in small)
            for v in verts
            if not (1 << v) & ym
        ):
            return False
    return True


def oracle_betti(K, up_to=None):
    """Reduced rational Betti numbers via Fraction Gaussian ranks of the full
    boundary matrices. Suitable for small complexes only."""
    dim = K.dim
    if dim < 0:
        top = -1 if up_to is None else up_to
        return tuple(0 for _ in range(top + 1))
    top = dim if up_to is None else up_to
    by_size = {s: sorted(K.by_size(s)) for s in range(1, dim + 2)}
    index = {
        s: {f: i for i, f in enumerate(by_size[s])} for s in range(1, dim + 2)
    }

    def boundary_rank(i):
        # rank of the boundary map from i-faces to (i-1)-faces
        if i == 0:
            return 1 if by_size.get(1) else 0
        cols = by_size.get(i + 1, [])
        rows = by_size.get(i, [])
        if not cols or not rows:
            return 0
        mat = [[0] * len(cols) for _ in rows]
        for c, f in enumerate(cols):
            members = list(bits_of(f))
            for pos, v in enumerate(members):
                sub = f ^ (1 << v)
                mat[index[i][sub]][c] = -1 if pos % 2 else 1
        return oracle_rank(mat)

    betti = []
    for i in range(top + 1):
        fi = len(by_size.get(i + 1, []))
        betti.append(fi - boundary_rank(i) - boundary_rank(i + 1))
    return tuple(betti)


def random_complex(rng, n, dim, density=0.5, force_dim=True):
    """Random complex on n vertices with dimension at most dim; with
    force_dim at least one facet of full size dim+1 is planted."""
    facets = []
    if force_dim and n >= dim + 1:
        facets.append(tuple(sorted(rng.sample(range(n), dim + 1))))
    for size in range(1, dim + 2):
        count = max(1, int(density * n))
        for _ in range(count):
            if n >= size and rng.random() < density:
                facets.append(tuple(sorted(rng.sample(range(n), size))))
    from genpos.complexes import closure

    return closure(facets, n)


def random_subcomplex(rng, K, keep=0.6):
    kept = [f for f in K.facets() if rng.random() < keep]
    from genpos.complexes import closure

    return closure(kept, K.n_vertices)


# ---------------------------------------------------------------------------
# matroid oracles


def oracle_max_common_independent(m1, m2):
    n = m1.ground_size
    best = 0
    for mask in range(1 << n):
        S = frozenset(bits_of(mask))
        if len(S) > best and m1.is_independent(S) and m2.is_independent(S):
            best = len(S)
    return best


def oracle_is_uniform(oracle, S, r):
    S = frozenset(S)
    if oracle.is_independent(S):
        return True
    if len(S) <= r:
        return False
    return all(oracle.is_independent(frozenset(c)) for c in combinations(S, r))


def oracle_max_uniform_size(oracle):
    r = oracle.full_rank
    best = 0
    for mask in range(1 << oracle.ground_size):
        S = frozenset(bits_of(mask))
        if len(S) > best and oracle_is_uniform(oracle, S, r):
            best = len(S)
    return best


def rng_for(name, salt=0):
    # string seeding is stable across processes, unlike hash()
    return random.Random("%s:%d" % (name, salt))
