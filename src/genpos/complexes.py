"""Finite simplicial complexes on vertex set {0, ..., n-1}.

Faces are stored explicitly as an immutable set of integer bitmasks, closed
downward, containing the empty face whenever the complex has any face at all.
dim is (largest face size - 1), or -1 for the complex with no faces. The
completion operator fills in every set all of whose small subsets are already
faces; it is the bridge between local independence data and global topology.

Enumerating operators accept face budgets and cardinality caps so that large
completions can be built only up to the sizes a truncated homology computation
needs. Complexes given by a hereditary predicate (general-position and
independence complexes, nerves) and completions, among them the uniformity
complex of every matroid, are all grown by one enumerator, levelwise_complex,
on face masks alone: each grow reads the mask its level stores.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from genpos.errors import BudgetExceeded
from genpos.search import DEFAULT_NODE_BUDGET, colorful_face

__all__ = [
    "SimplicialComplex",
    "DEFAULT_FACE_BUDGET",
    "closure",
    "star",
    "neighborhood",
    "completion",
    "induced",
    "skeleton",
    "join",
    "nerve",
    "levelwise_complex",
    "is_q_star",
    "QStarResult",
    "find_colorful_face",
]

DEFAULT_FACE_BUDGET = 1 << 20


def mask_of(vertices):
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits_of(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class SimplicialComplex:
    """Immutable simplicial complex; equality is face-set equality."""

    __slots__ = ("n_vertices", "faces", "_by_size")

    def __init__(self, n_vertices, faces, _validated=False):
        if n_vertices < 0:
            raise ValueError("n_vertices must be nonnegative")
        fs = frozenset(faces)
        if not _validated:
            for f in fs:
                if f < 0 or f >> n_vertices:
                    raise ValueError("face %r out of vertex range" % (bits_of(f),))
                for v in bits_of(f):
                    if f ^ (1 << v) not in fs:
                        raise ValueError(
                            "faces are not closed downward: %r lacks subset"
                            % (bits_of(f),)
                        )
        self.n_vertices = n_vertices
        self.faces = fs
        self._by_size = None

    @classmethod
    def from_faces(cls, n_vertices, faces):
        """Build from faces given as vertex iterables, validating closure."""
        return cls(n_vertices, {mask_of(f) for f in faces})

    @property
    def dim(self):
        if not self.faces:
            return -1
        return max(f.bit_count() for f in self.faces) - 1

    def by_size(self, s):
        """Faces of size s, sorted lexicographically as vertex tuples."""
        if self._by_size is None:
            table = {}
            for f in self.faces:
                table.setdefault(f.bit_count(), []).append(f)
            for fs in table.values():
                fs.sort(key=lambda m: tuple(bits_of(m)))
            self._by_size = table
        return self._by_size.get(s, [])

    def has_face(self, vertices):
        return mask_of(vertices) in self.faces

    def vertices(self):
        """Vertices actually present, i.e. v with {v} a face: probed one by
        one when there are no more of them than faces, else read from the
        faces, so a few faces on a huge vertex range answer at once."""
        faces = self.faces
        if self.n_vertices <= len(faces):
            return [v for v in range(self.n_vertices) if (1 << v) in faces]
        return sorted(f.bit_length() - 1 for f in faces if f.bit_count() == 1)

    def facets(self):
        """Maximal faces as masks, sorted lexicographically as vertex
        tuples."""
        out = self._maximal()
        out.sort(key=lambda m: tuple(bits_of(m)))
        return out

    def _maximal(self):
        """Maximal faces as masks, unsorted. Faces are closed downward, so a
        face lies in a larger one iff it lies in one a vertex larger: mark
        each face's one-smaller subfaces and keep the unmarked."""
        covered = set()
        for f in self.faces:
            m = f
            while m:
                low = m & -m
                covered.add(f ^ low)
                m ^= low
        return [f for f in self.faces if f not in covered]

    def f_vector(self):
        """Face counts by dimension: entry i counts faces of size i+1."""
        counts = [0] * (self.dim + 1 if self.faces else 0)
        for f in self.faces:
            if f:
                counts[f.bit_count() - 1] += 1
        return tuple(counts)

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialComplex)
            and self.n_vertices == other.n_vertices
            and self.faces == other.faces
        )

    def __hash__(self):
        return hash((self.n_vertices, self.faces))

    def __contains__(self, vertices):
        if isinstance(vertices, int):
            return vertices in self.faces
        return self.has_face(vertices)

    def __len__(self):
        return len(self.faces)

    def __repr__(self):
        return "SimplicialComplex(n=%d, dim=%d, %d faces)" % (
            self.n_vertices,
            self.dim,
            len(self.faces),
        )


def closure(facets, n_vertices, max_faces=None):
    """Downward closure of the given facets (vertex iterables or masks),
    with at most max_faces faces (None: DEFAULT_FACE_BUDGET; past it
    BudgetExceeded is raised).

    A facet that is already a face adds nothing, and a facet with more
    submasks than the budget is refused before any is added. Faces only
    grow, so checking the budget once per facet raises on the same facet as
    checking it per face.
    """
    budget = DEFAULT_FACE_BUDGET if max_faces is None else max_faces
    faces = set()
    add = faces.add
    for facet in facets:
        f = facet if isinstance(facet, int) else mask_of(facet)
        if f < 0 or f >> n_vertices:
            raise ValueError("facet %r out of vertex range" % (facet,))
        if f in faces:
            continue
        if 1 << f.bit_count() > budget:
            raise BudgetExceeded("closure exceeds %d faces" % budget)
        sub = f
        while True:
            add(sub)
            if not sub:
                break
            sub = (sub - 1) & f
        if len(faces) > budget:
            raise BudgetExceeded("closure exceeds %d faces" % budget)
    return SimplicialComplex(n_vertices, faces, _validated=True)


def star(K, v):
    """Star of v: all S with S + {v} a face. Nonempty iff {v} is a face;
    contains every face through v as well as the links."""
    if not 0 <= v < K.n_vertices:
        raise ValueError("vertex %d out of range" % v)
    vb = 1 << v
    faces = {f for f in K.faces if (f | vb) in K.faces}
    return SimplicialComplex(K.n_vertices, faces, _validated=True)


def neighborhood(K, v, d):
    """Neighborhood complex of v in a d-dimensional K: the star of v plus
    every d-dimensional face S avoiding v whose proper subsets all lie in the
    star. d must equal dim K (passed explicitly as a guard)."""
    if d != K.dim:
        raise ValueError("neighborhood needs d == dim K (%d != %d)" % (d, K.dim))
    if not 0 <= v < K.n_vertices:
        raise ValueError("vertex %d out of range" % v)
    vb = 1 << v
    st = {f for f in K.faces if (f | vb) in K.faces}
    result = set(st)
    for f in K.by_size(d + 1):
        if f & vb:
            continue
        if d == 0 or all((f ^ (1 << u)) in st for u in bits_of(f)):
            result.add(f)
    if result:
        result.add(0)
    return SimplicialComplex(K.n_vertices, result, _validated=True)


def completion(K, j, max_card=None, max_faces=None):
    """j-th completion: K plus every set S with |S| >= j+2 all of whose
    subsets of size <= j+1 are faces of K, truncated to |S| <= max_card
    (default: no truncation beyond n_vertices), with at most max_faces faces
    (None: DEFAULT_FACE_BUDGET; past it BudgetExceeded is raised). Requires
    j >= dim K; the completion of the empty complex is empty, and j > dim K
    returns K.

    For j >= 0 every vertex of a face is a vertex of K, so K is relabelled
    onto its own vertices in order, completed there and mapped back: a few
    faces on a huge vertex range answer at once, with the same faces grown
    in the same order. When K has every vertex the relabel is the identity
    and is skipped: it would double the time of such a completion
    (benchmarks/bench_kernels.py, the two completion rows)."""
    if j < 0 or len(verts := K.vertices()) == K.n_vertices:
        return _completion(K, j, max_card, max_faces, "completion")
    label = {v: i for i, v in enumerate(verts)}
    own = SimplicialComplex(
        len(verts), {mask_of(label[v] for v in bits_of(f)) for f in K.faces}, _validated=True)
    done = _completion(own, j, max_card, max_faces, "completion")
    return SimplicialComplex(
        K.n_vertices, {mask_of(verts[i] for i in bits_of(f)) for f in done.faces},
        _validated=True)


def _completion(K, j, max_card, max_faces, what):
    """completion, grown by levelwise_complex with BudgetExceeded naming
    what. Sets of size at most j+1 are faces iff they are faces of K; a
    larger set is a face iff all its one-smaller subsets are, and those were
    grown at the level before."""
    if j < K.dim:
        raise ValueError("completion needs j >= dim K (%d < %d)" % (j, K.dim))
    if not K.faces:
        return K
    small = K.faces
    large = set()

    def grow(face):
        size = face.bit_count()
        if size <= j:
            return lambda w: face | 1 << w in small
        seen = small if size == j + 1 else large
        subs = [face ^ 1 << u for u in bits_of(face)]

        def extends(w):
            bit = 1 << w
            for sub in subs:
                if sub | bit not in seen:
                    return False
            large.add(face | bit)
            return True

        return extends

    return levelwise_complex(K.n_vertices, grow, max_card, max_faces, what)


def induced(K, W):
    """Subcomplex induced on a vertex subset W (iterable or mask) of the
    vertices 0..n-1; a vertex outside them raises ValueError.

    Every vertex of an iterable W is range-checked in order, but only the
    vertices of K go into the mask, since faces use no other bits: a long
    list of vertices absent from K builds no long ints."""
    n = K.n_vertices
    if isinstance(W, int):
        if W < 0:
            raise ValueError("vertex mask %d is negative" % W)
        if W >> n:
            raise ValueError("vertex %d out of range" % (W.bit_length() - 1))
        wm = W
    else:
        present = set(K.vertices())
        wm = 0
        for v in W:
            if not 0 <= v < n:
                raise ValueError("vertex %d out of range" % v)
            if v in present:
                wm |= 1 << v
    faces = {f for f in K.faces if f & ~wm == 0}
    return SimplicialComplex(K.n_vertices, faces, _validated=True)


def skeleton(K, s):
    """s-skeleton: faces of dimension at most s (s >= -1)."""
    if s < -1:
        raise ValueError("skeleton needs s >= -1")
    faces = {f for f in K.faces if f.bit_count() <= s + 1}
    return SimplicialComplex(K.n_vertices, faces, _validated=True)


def join(K, L, max_faces=None):
    """Simplicial join; L's vertices are relabeled after K's."""
    budget = DEFAULT_FACE_BUDGET if max_faces is None else max_faces
    if len(K.faces) * len(L.faces) > budget:
        raise BudgetExceeded("join exceeds %d faces" % budget)
    shift = K.n_vertices
    faces = {a | (b << shift) for a in K.faces for b in L.faces}
    return SimplicialComplex(K.n_vertices + L.n_vertices, faces, _validated=True)


def levelwise_complex(n, grow, max_card=None, max_faces=None, what="complex"):
    """Complex on n vertices whose faces are closed downward, grown level by
    level in ascending vertex order, each level a list of face masks. grow,
    given a stored mask, returns a predicate extends(w) telling whether
    face | 1 << w is a face, asked only for w >= face.bit_length(); so grow
    is called once per face below the cap not ending at vertex n-1, in
    level order. Faces have at most max_card vertices (None: no cap; below
    0 ValueError is raised); at most max_faces faces (None:
    DEFAULT_FACE_BUDGET), past which BudgetExceeded names what."""
    if max_card is not None and max_card < 0:
        raise ValueError("max_card must be nonnegative, got %d" % max_card)
    budget = DEFAULT_FACE_BUDGET if max_faces is None else max_faces
    cap = n if max_card is None else max_card
    faces = {0}
    level = [0]
    size = 1
    while level and size <= cap:
        nxt = []
        for face in level:
            low = face.bit_length()
            if low == n:
                continue  # no vertex lies above the last
            for w in filter(grow(face), range(low, n)):
                grown = face | 1 << w
                nxt.append(grown)
                faces.add(grown)
                if len(faces) > budget:
                    raise BudgetExceeded("%s exceeds %d faces" % (what, budget))
        level = nxt
        size += 1
    return SimplicialComplex(n, faces, _validated=True)


def nerve(family, max_faces=None):
    """Nerve of a family of complexes on one vertex universe: a subset of
    members is a face iff their face sets share a nonempty face, which by
    downward closure means a shared vertex. Every member must have a vertex.
    At most max_faces faces (None: DEFAULT_FACE_BUDGET; past it
    BudgetExceeded is raised)."""
    members = list(family)
    if not members:
        return SimplicialComplex(0, [], _validated=True)
    n = members[0].n_vertices
    for K in members:
        if K.n_vertices != n:
            raise ValueError("nerve members must share one vertex universe")
    vsets = []
    for K in members:
        vs = mask_of(K.vertices())
        if vs == 0:
            raise ValueError("nerve members must each contain a vertex")
        vsets.append(vs)

    def grow(face):
        common = -1
        for i in bits_of(face):
            common &= vsets[i]
        return lambda i: common & vsets[i]

    return levelwise_complex(len(members), grow, max_faces=max_faces, what="nerve")


@dataclass(frozen=True)
class QStarResult:
    """Outcome of the q-star test. ``violating`` is a q-set with no common
    extender (None when the failure is having too few vertices);
    ``extenders`` maps each q-set to the chosen witness vertex on success."""

    holds: bool
    q: int
    violating: tuple | None = None
    extenders: dict | None = None

    def __bool__(self):
        return self.holds


def is_q_star(K, q, node_budget=None):
    """q-star property of K (dimension taken from K): more than q vertices,
    and every q-set Y of vertices has a vertex v outside Y such that S + {v}
    is a face for every face S of K[Y] with |S| <= dim K (the empty face
    included, so v itself must be a vertex). BudgetExceeded is raised up
    front when the q-sets outnumber node_budget (None: DEFAULT_NODE_BUDGET)."""
    if q < 1:
        raise ValueError("q must be at least 1")
    verts = K.vertices()
    if len(verts) <= q:
        return QStarResult(holds=False, q=q)
    budget = DEFAULT_NODE_BUDGET if node_budget is None else node_budget
    count = comb(len(verts), q)
    if count > budget:
        raise BudgetExceeded(
            "q-star check would test C(%d, %d) = %d vertex sets, over the budget of %d nodes"
            % (len(verts), q, count, budget)
        )
    d = K.dim
    small = [f for f in K.faces if f.bit_count() <= d]
    extenders = {}
    for combo in combinations(verts, q):
        ym = mask_of(combo)
        local = [f for f in small if f & ~ym == 0]
        found = None
        for v in verts:
            vb = 1 << v
            if vb & ym:
                continue
            if all((f | vb) in K.faces for f in local):
                found = v
                break
        if found is None:
            return QStarResult(holds=False, q=q, violating=combo)
        extenders[combo] = found
    return QStarResult(holds=True, q=q, extenders=extenders)


def find_colorful_face(K, blocks):
    """First face (lexicographic) meeting each block of a vertex partition
    exactly once, returned as a vertex tuple, or None: search.colorful_face
    over each block's vertices in ascending order, within the default node
    budget. Blocks must be disjoint; vertices outside every block are simply
    never used."""
    masks = [mask_of(b) for b in blocks]
    seen = 0
    for bm in masks:
        if bm & seen:
            raise ValueError("blocks must be disjoint")
        seen |= bm
    if 0 not in K.faces:
        return None
    faces = K.faces
    verts = [bits_of(bm) for bm in masks]
    picks = colorful_face(verts, lambda chosen, v: mask_of(chosen) | 1 << v in faces)
    if picks is None:
        return None
    return tuple(sorted(vs[j] for vs, j in zip(verts, picks)))
