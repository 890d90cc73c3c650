"""Finite simplicial complexes on vertex set {0, ..., n-1}.

Faces are stored explicitly as an immutable set of integer bitmasks, closed
downward, containing the empty face whenever the complex has any face at all.
dim is (largest face size - 1), or -1 for the complex with no faces. The
completion operator fills in every set all of whose small subsets are already
faces; it is the bridge between local independence data and global topology.

Operations run on all of 0..n-1, so their cost can follow n where the faces
use a few vertices; jsonio.complex_from_doc relabels such a complex once.

Enumerating operators accept face budgets and cardinality caps so that large
completions can be built only up to the sizes a truncated homology computation
needs. Complexes given by a hereditary predicate (general-position and
independence complexes, nerves) and completions, among them the uniformity
complex of every matroid, are all grown by one enumerator, levelwise_complex,
on face masks alone: each grow maps a face to the mask of its extenders, the
vertices that add to it to make a face, as the candidate sets of Eclat (Zaki,
"Scalable Algorithms for Association Mining", 2000). A face with none, or one
at the cap, is maximal, so the enumerator records the facets as it goes, in
the (size, lexicographic) order complex_to_doc prints; any other complex
reads them off the same map as a table, ext.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
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

    __slots__ = ("n_vertices", "faces", "_ext", "_facets")

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
        self._ext = None
        self._facets = None  # in (size, lex) order, when levelwise_complex recorded them

    @classmethod
    def from_faces(cls, n_vertices, faces):
        """Build from faces given as vertex iterables, validating closure."""
        return cls(n_vertices, {mask_of(f) for f in faces})

    @property
    def dim(self):
        if self._facets:  # the last recorded facet is a largest face
            return self._facets[-1].bit_count() - 1
        return max(map(int.bit_count, self.faces), default=0) - 1

    @property
    def ext(self):
        """Each face S to the mask of the v outside S with S + v a face:
        on first use, each face g ORs each v of g into g - v's."""
        if self._ext is None:
            ext = dict.fromkeys(self.faces, 0)
            for g in self.faces:
                m = g
                while m:
                    low = m & -m
                    ext[g ^ low] |= low
                    m ^= low
            self._ext = ext
        return self._ext

    def has_face(self, vertices):
        return mask_of(vertices) in self.faces

    def vertices(self):
        """Vertices actually present, i.e. v with {v} a face, in ascending
        order: each of 0..n-1 is probed, so the cost follows n."""
        faces = self.faces
        return [v for v in range(self.n_vertices) if 1 << v in faces]

    def facets(self):
        """Maximal faces as masks, sorted lexicographically as vertex
        tuples."""
        out = self._facets or [f for f, e in self.ext.items() if not e]
        return sorted(out, key=lambda m: tuple(bits_of(m)))

    def f_vector(self):
        """Face counts by dimension: entry i counts faces of size i+1."""
        counts = [0] * (self.dim + 1)
        for f in self.faces:
            if f:
                counts[f.bit_count() - 1] += 1
        return tuple(counts)

    def __eq__(self, other):
        return (isinstance(other, SimplicialComplex) and self.n_vertices == other.n_vertices
                and self.faces == other.faces)

    def __hash__(self):
        return hash((self.n_vertices, self.faces))

    def __contains__(self, vertices):
        if isinstance(vertices, int):
            return vertices in self.faces
        return self.has_face(vertices)

    def __len__(self):
        return len(self.faces)

    def __repr__(self):
        return "SimplicialComplex(n=%d, dim=%d, %d faces)" % (self.n_vertices, self.dim,
                                                               len(self.faces))


def closure(facets, n_vertices, max_faces=None):
    """Downward closure of the given facets (vertex iterables or masks),
    with at most max_faces faces (None: DEFAULT_FACE_BUDGET; past it
    BudgetExceeded is raised)."""
    facets = list(facets)
    masks = [f if isinstance(f, int) else mask_of(f) for f in facets]
    if masks and (min(masks) < 0 or max(masks) >> n_vertices):
        bad = next(f for f, m in zip(facets, masks) if m < 0 or m >> n_vertices)
        raise ValueError("facet %r out of vertex range" % (bad,))
    return _close(masks, n_vertices, max_faces)


def _close(masks, n_vertices, max_faces):
    """closure of facet masks in range. Faces only grow, so checking the
    budget once per facet, and before one with more submasks than it,
    raises on the facet a check per face would."""
    budget = DEFAULT_FACE_BUDGET if max_faces is None else max_faces
    faces = set()
    add = faces.add
    for f in masks:
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
    star. d must equal dim K (passed explicitly as a guard). By K.ext, S is
    in the star iff v is in S or extends it."""
    if d != K.dim:
        raise ValueError("neighborhood needs d == dim K (%d != %d)" % (d, K.dim))
    if not 0 <= v < K.n_vertices:
        raise ValueError("vertex %d out of range" % v)
    if d == 0:  # the condition on subsets is vacuous
        return K
    ext, vb = K.ext, 1 << v
    return SimplicialComplex(K.n_vertices, {
        f for f, e in ext.items() if (f | e) & vb
        or f.bit_count() == d + 1 and all(ext[f ^ 1 << u] & vb for u in bits_of(f))},
        _validated=True)


def completion(K, j, max_card=None, max_faces=None):
    """j-th completion: K plus every set S with |S| >= j+2 all of whose
    subsets of size <= j+1 are faces of K, truncated to |S| <= max_card
    (default: no truncation beyond n_vertices), with at most max_faces faces
    (None: DEFAULT_FACE_BUDGET; past it BudgetExceeded is raised). Requires
    j >= dim K; the completion of the empty complex is empty, and j > dim K
    returns K. It grows on all of 0..n-1, used by K or not."""
    return _completion(K, j, max_card, max_faces, "completion")


def _completion(K, j, max_card, max_faces, what):
    """completion, grown by levelwise_complex with BudgetExceeded naming
    what. Sets of size at most j+1 are faces iff they are faces of K, so a
    face of at most j vertices is extended by those of its parent's
    extenders that make a face of K. A larger set is a face iff all its
    one-smaller subsets are (the Apriori rule), so a face of j+1 or more
    vertices is extended by the vertices that extend each of its
    one-smaller subfaces: the AND of their masks, kept for two levels."""
    if j < K.dim:
        raise ValueError("completion needs j >= dim K (%d < %d)" % (j, K.dim))
    if not K.faces:
        return K
    if j <= 0:
        # K is {∅}, completed to every set of at most max_card vertices, or
        # its own v = len(K.faces) - 1 isolated vertices, completed to every
        # set of them: counted before it grows, the empty face never refused
        n = K.n_vertices if j < 0 else len(K.faces) - 1
        budget = DEFAULT_FACE_BUDGET if max_faces is None else max_faces
        total = 1
        for size in range(1, min(n, n if max_card is None else max_card) + 1):
            total += comb(n, size)
            if total > budget:
                raise BudgetExceeded("%s exceeds %d faces" % (what, budget))
    small = K.faces
    every = (1 << K.n_vertices) - 1
    prev, cur, level = {}, {}, -1  # extenders of the faces one level down, and of this level's

    def grow(face):
        nonlocal prev, cur, level
        size = face.bit_count()
        if size != level:
            prev, cur, level = cur, {}, size
        if size <= j:
            top = face.bit_length() - 1
            cand = prev[face ^ 1 << top] & ~(1 << top) if face else every
            ext = 0
            while cand:
                bit = cand & -cand
                if face | bit in small:
                    ext |= bit
                cand ^= bit
        else:
            ext = every & ~face
            rest = face
            while rest:
                low = rest & -rest
                ext &= prev[face ^ low]
                rest ^= low
        cur[face] = ext
        return ext

    return levelwise_complex(K.n_vertices, grow, max_card, max_faces, what)


def induced(K, W):
    """Subcomplex induced on a vertex subset W (iterable, walked vertex by
    vertex, or mask) of the vertices 0..n-1; the first vertex outside them
    raises ValueError."""
    n = K.n_vertices
    if isinstance(W, int):
        if W < 0:
            raise ValueError("vertex mask %d is negative" % W)
        if W >> n:
            raise ValueError("vertex %d out of range" % (W.bit_length() - 1))
        wm = W
    else:
        wm = 0
        for v in W:
            if not 0 <= v < n:
                raise ValueError("vertex %d out of range" % v)
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
    level in ascending vertex order, each level a list of face masks in
    lexicographic order. grow, given a stored mask, returns the mask of its
    extenders: every vertex w outside the face with face | 1 << w a face.
    grow is called once per face below the cap, in level order, and the
    extenders above the face's last vertex are its children. A face with
    no extender, or one at the cap, is maximal: the complex keeps these
    facets in the order found, by size and then lexicographically, which
    complex_to_doc prints. Faces have at most max_card vertices (None: no
    cap; below 0 ValueError is raised); at most max_faces faces (None:
    DEFAULT_FACE_BUDGET), past which BudgetExceeded names what."""
    if max_card is not None and max_card < 0:
        raise ValueError("max_card must be nonnegative, got %d" % max_card)
    budget = DEFAULT_FACE_BUDGET if max_faces is None else max_faces
    cap = n if max_card is None else max_card
    level = [0]
    levels = [level]
    facets = []
    count = 1
    while level:
        if level[0].bit_count() == cap:
            facets += level
            break
        nxt = []
        room = budget - count
        for face in level:
            ext = grow(face)
            if not ext:
                facets.append(face)
                continue
            low = face.bit_length()
            ext = ext >> low << low
            while ext:
                bit = ext & -ext
                nxt.append(face | bit)
                ext ^= bit
            if len(nxt) > room:
                raise BudgetExceeded("%s exceeds %d faces" % (what, budget))
        count += len(nxt)
        levels.append(nxt)
        level = nxt
    K = SimplicialComplex(n, chain.from_iterable(levels), _validated=True)
    K._facets = facets
    return K


def hereditary_grow(n, ask):
    """grow for levelwise_complex on n vertices from ask(face), a predicate
    on the vertices above the face's last vertex v. By heredity only the
    extenders of its parent (the face less v) can extend a face, so ask is
    asked of those above v alone. Below v, w extends the face iff v extends
    the parent plus w: a face of the same level, grown before it in
    lexicographic order, whose extenders are kept for two levels."""
    every = (1 << n) - 1
    prev, cur, level = {}, {}, -1

    def grow(face):
        nonlocal prev, cur, level
        size = face.bit_count()
        if size != level:
            prev, cur, level = cur, {}, size
        low = face.bit_length()
        ext = 0
        if face:
            top = 1 << low - 1
            parent = face ^ top
            cand = prev[parent] & ~top
            below = cand & (top - 1)
            while below:
                bit = below & -below
                if cur[parent | bit] & top:
                    ext |= bit
                below ^= bit
        else:
            cand = every
        above = cand >> low << low
        if above:
            extends = ask(face)
            while above:
                bit = above & -above
                if extends(bit.bit_length() - 1):
                    ext |= bit
                above ^= bit
        cur[face] = ext
        return ext

    return grow


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

    def ask(face):
        common = -1
        for i in bits_of(face):
            common &= vsets[i]
        return lambda i: common & vsets[i]

    return levelwise_complex(len(members), hereditary_grow(len(members), ask),
                             max_faces=max_faces, what="nerve")


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
    included, so v itself must be a vertex): the lowest outside Y in the AND
    of K.ext over the submasks S of Y, at most 2^q mask steps. BudgetExceeded
    is raised up front when the q-sets outnumber node_budget (None:
    DEFAULT_NODE_BUDGET)."""
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
    ext = K.ext
    extenders = {}
    for combo in combinations(verts, q):
        ym = mask_of(combo)
        common, sub = ~ym, ym
        while True:
            if sub.bit_count() <= d:
                common &= ext.get(sub, -1)
            if not sub:
                break
            sub = (sub - 1) & ym
        if not common:
            return QStarResult(holds=False, q=q, violating=combo)
        extenders[combo] = (common & -common).bit_length() - 1
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
