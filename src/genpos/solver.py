"""Deciding and constructing systems of general-position representatives.

A family X_1, ..., X_m of finite point multisets in dimension d admits a
*system of general-position representatives* when one point can be picked
from each set so that the m picks are in general position. This module
provides:

- the bound formulas: extension_bound(d, k) points in general position always
  contain one extending a given general-position (k-1)-set; greedy_bound(d, k)
  on every union's gp_number makes the two-phase greedy succeed;
  connectivity_bound(d, k) on gp_number(X) forces homological k-connectivity
  of the general-position complex; representative_bound feeds the family size
  back through the connectivity route; uniform_connectivity_bound is the
  matroid analogue driven by max_uniform_size;
- check_condition, evaluating a bound on every (or a sampled set of) nonempty
  subfamily union: with exact=True (the default) each union's gp_number,
  with exact=False only whether it reaches the bound, by a greedy witness
  where one settles it and otherwise by a search stopping there
  (PointFamily.capped_gp_number_of_union), so that only a violated union's
  gp_number is exact;
- solve_greedy (reorder by the extension bound, then extend step by step),
  solve_exhaustive (the colorful-face search of genpos.search over all picks,
  the completeness oracle), and solve_matroid_intersection (complete for
  m <= d+1);
- counterexample_family, the construction showing the size condition alone is
  not sufficient once m > d+1 >= 3;
- general_position_complex and independence_complex of a point multiset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from typing import NamedTuple

from genpos.complexes import bits_of, levelwise_complex
from genpos.errors import BudgetExceeded, ConstructionError
from genpos.geometry import (
    FlatIndex,
    Point,
    PointMultiset,
    _common_dim,
    extend_gp,
    gp_grow,
    gp_number,
    in_general_position,
)
from genpos._kernels import gp_extends
from genpos.search import DEFAULT_NODE_BUDGET, colorful_face
from genpos import matroids

__all__ = [
    "DEFAULT_NODE_BUDGET",
    "PointFamily",
    "SubsetCheck",
    "ConditionReport",
    "SgprResult",
    "BoundTable",
    "extension_bound",
    "greedy_bound",
    "connectivity_bound",
    "representative_bound",
    "uniform_connectivity_bound",
    "bound_table",
    "check_condition",
    "solve_greedy",
    "solve_exhaustive",
    "solve_matroid_intersection",
    "counterexample_family",
    "general_position_complex",
    "independence_complex",
]

# ---------------------------------------------------------------------------
# bounds


def extension_bound(d, k):
    """Points in general position guaranteeing a one-point extension of any
    general-position (k-1)-set: k for k <= d+1, else d*C(k-1, d) + 1 (at most
    d points can sit on each of the C(k-1, d) spanned hyperplanes)."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if k < 1:
        raise ValueError("k must be at least 1")
    if k <= d + 1:
        return k
    return d * comb(k - 1, d) + 1


def greedy_bound(d, k):
    """Threshold on gp_number of every k-subfamily union that guarantees the
    greedy solver succeeds: k * (extension_bound(d, k) - 1) + 1."""
    return k * (extension_bound(d, k) - 1) + 1


def connectivity_bound(d, k):
    """gp_number(X) above which the general-position complex of X is
    homologically k-connected: d*C(2k+2, d) + 1 in general; k+2 when d = 1 or
    k <= d-1, where the complex is a join of discrete sets or a matroid
    independence complex and the bound is exact."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if k < -1:
        raise ValueError("connectivity degree must be >= -1")
    if d == 1 or k <= d - 1:
        return k + 2
    return d * comb(2 * k + 2, d) + 1


def representative_bound(d, k):
    """Threshold on gp_number of every k-subfamily union that guarantees a
    representative system via the connectivity route: connectivity_bound(d, k-2).
    For d = 1 this is exactly k, recovering the sharp matching condition."""
    if k < 1:
        raise ValueError("family size must be at least 1")
    return connectivity_bound(d, k - 2)


def uniform_connectivity_bound(r, k):
    """max_uniform_size above which the uniformity complex of a rank-r matroid
    is homologically k-connected: (r-1)*C(2k+2, r-1) + 1."""
    if r < 2:
        raise ValueError("rank must be at least 2")
    if k < -1:
        raise ValueError("connectivity degree must be >= -1")
    return (r - 1) * comb(2 * k + 2, r - 1) + 1


@dataclass(frozen=True)
class BoundTable:
    ds: tuple
    ks: tuple
    rows: tuple


def bound_table(ds, ks):
    """All bounds tabulated over dimension and size ranges; the matroid column
    uses rank r = d+1, the rank of the affine matroid in dimension d."""
    rows = []
    for d in ds:
        for k in ks:
            rows.append(
                {
                    "d": d,
                    "k": k,
                    "A": extension_bound(d, k),
                    "B": greedy_bound(d, k),
                    "g_upper": connectivity_bound(d, k),
                    "f_upper": representative_bound(d, k),
                    "r": d + 1,
                    "h_upper": uniform_connectivity_bound(d + 1, k),
                }
            )
    return BoundTable(ds=tuple(ds), ks=tuple(ks), rows=tuple(rows))


# ---------------------------------------------------------------------------
# families and the condition checker


@dataclass(eq=False)
class PointFamily:
    """A family of point multisets in one common dimension, with a memoized
    gp_number on subfamily unions (condition checks revisit the same unions).

    A subfamily is keyed by an int whose bit i stands for set i, so the
    orderings and repeats of one index tuple share one memo entry. node_budget
    caps the nodes of each union's gp_number (None: DEFAULT_NODE_BUDGET);
    check_condition sets it from its subset_budget and solve_greedy from its
    node_budget, when given. Every union's gp_number shares one FlatIndex
    over the family's distinct points, built by the first union that needs
    it and charged to that union's nodes. The family keeps one bitmask per
    set over the index's points, and a union's points are the memoised mask
    of the union without its lowest set, ORed with that set's mask;
    gp_number runs on that mask. When the index alone would cost more than
    node_budget, each union goes to gp_number as its point list and is
    indexed on its own instead, within the same budget. Beside the memo of
    exact gp_numbers the family keeps one of lower bounds, left by
    capped_gp_number_of_union's threshold queries; a union reads only those
    of unions one set smaller, so the first union of k sets asked drops
    those, and the memoised point masks, of fewer than k - 1 sets.

    A threshold query tries a witness before the index is built: any two
    distinct points are in general position, and past that the union's
    points are kept greedily, in index order, while gp_extends accepts
    them. A witness that reaches the query's cap settles it, so the index
    is built only when a witness cannot settle a union. The witnesses of a
    family stop once the prefix rows they examine add up to the smaller of
    the index's tuples and node_budget, so a family that needs the index
    pays at most about twice its cost."""

    d: int
    sets: tuple
    node_budget: int | None = field(default=None, repr=False)
    _gp_cache: dict = field(default_factory=dict, repr=False)  # set mask -> gp_number
    _gp_floors: dict = field(default_factory=dict, repr=False)  # set mask -> lower bound
    _floors_size: int = field(default=0, repr=False)
    _index: FlatIndex | None = field(default=None, repr=False)
    _tuples: int = field(default=0, repr=False)  # the index's tuples()
    _masks: list | None = field(default=None, repr=False)  # point mask of each set
    _union_masks: dict = field(default_factory=dict, repr=False)  # set mask -> point mask
    _witness_rows: int = field(default=0, repr=False)

    def __post_init__(self):
        sets = tuple(
            X if isinstance(X, PointMultiset) else PointMultiset(X, d=self.d)
            for X in self.sets
        )
        if not sets:
            raise ValueError("a family needs at least one set")
        for X in sets:
            if X.d != self.d:
                raise ValueError("set dimension %d != family dimension %d" % (X.d, self.d))
        object.__setattr__(self, "sets", sets)

    @property
    def m(self):
        return len(self.sets)

    def union_points(self, indices=None):
        idx = range(self.m) if indices is None else sorted(indices)
        out = []
        for i in idx:
            out.extend(self.sets[i].points)
        return out

    def gp_number_of_union(self, indices):
        """gp_number of the union of the sets in indices, its search capped
        by the smallest gp(X_{I-i}) + gp(X_i) over exact cached values: a
        general-position subset of X_I splits into general-position parts in
        X_{I-i} and X_i. A cap that holds leaves the answer unchanged. An
        index outside 0..m-1 raises ValueError."""
        return self._union_gp(self._key(indices), None)

    def capped_gp_number_of_union(self, indices, req):
        """gp_number of the union of the sets in indices when it is below
        req; otherwise some value of at least req, not necessarily the
        gp_number. Any bound on a union one set smaller, or min(n, 2) for n
        distinct points, bounds the union from below and answers once it
        reaches req; otherwise a witness or the search, capped at req too,
        stops there (see the class docstring). An answer below req is exact
        and cached as gp_number_of_union's are; one of at least req is kept
        as a lower bound, never as a cap, which needs exact values. An index
        outside 0..m-1 raises ValueError."""
        return self._union_gp(self._key(indices), req)

    def _key(self, indices):
        """The memo key of a subfamily: bit i set for each set i in it."""
        m, key, bad = self.m, 0, []
        for i in indices:
            if 0 <= i < m:
                key |= 1 << i
            else:
                bad.append(i)
        if bad:
            raise ValueError("set index %s outside 0..%d"
                             % (", ".join(map(str, bad)), m - 1))
        return key

    def _union_gp(self, key, req):
        cache, floors = self._gp_cache, self._gp_floors
        got = cache.get(key)
        if got is not None:
            return got
        size = key.bit_count()
        if size > self._floors_size:
            # a union reads the bounds and point masks of unions one set
            # smaller only
            self._floors_size = size
            for memo in (floors, self._union_masks):
                for rest in [rest for rest in memo if rest.bit_count() < size - 1]:
                    del memo[rest]
        lower = 0  # settles threshold queries only
        cap = None
        left = key
        while left:
            low = left & -left
            left ^= low
            rest = key ^ low
            sub = cache.get(rest)  # exact, or else a lower bound
            if sub is None:
                sub = floors.get(rest, 0)
            else:
                alone = cache.get(low)
                if alone is not None and (cap is None or sub + alone < cap):
                    cap = sub + alone
            if sub > lower:
                lower = sub
        index = self._index
        if index is None:
            homs = dict.fromkeys(p.hom for X in self.sets for p in X.points)
            index = self._index = FlatIndex(list(homs), self.d)
            self._tuples = index.tuples()
            pos = index.pos
            self._masks = [sum({1 << pos[p.hom] for p in X.points}) for X in self.sets]
        union = self._points(key)
        budget = DEFAULT_NODE_BUDGET if self.node_budget is None else self.node_budget
        if req is not None:
            n = union.bit_count()
            lower = max(lower, min(n, 2))  # two distinct points are in general position
            if lower >= req:
                return lower
            if cap is None or req < cap:
                cap = req
            if index.flats is None and lower < cap < n:
                lower = max(lower, self._witness(union, cap, min(self._tuples, budget)))
            if lower >= cap:
                (floors if lower >= req else cache)[key] = lower
                return lower
        if index.flats is None and self._tuples > budget:
            union, index = self.union_points(bits_of(key)), None  # indexed alone
        got = gp_number(union, self.node_budget, cap=cap, index=index)
        if req is not None and got >= req:
            floors[key] = got
        else:
            cache[key] = got
        return got

    def _points(self, key):
        """Point mask of the union of the sets in key, memoised: the mask of
        the union without its lowest set (memoised by a sweep in order of
        size, else ORed anew) ORed with that set's mask."""
        masks = self._masks
        low = key & -key
        got = self._union_masks.get(key ^ low)
        if got is None:
            got = 0
            for i in bits_of(key ^ low):
                got |= masks[i]
        got = self._union_masks[key] = got | masks[low.bit_length() - 1]
        return got

    def _witness(self, union, cap, limit):
        """Size of a general-position subset of the union's points, grown
        greedily in index order by gp_extends until it holds cap points or
        can no longer reach cap. Each gp_extends call examines the rows
        chosen so far; the family adds them up in _witness_rows, and no
        witness takes it past limit."""
        spent = self._witness_rows
        if spent >= limit:
            return 0
        homs = self._index.homs
        chosen = []
        left = union.bit_count()
        for i in bits_of(union):
            k = len(chosen)
            if k + left < cap or spent + k > limit:
                break
            left -= 1
            spent += k
            if gp_extends(chosen, homs[i]):
                chosen.append(homs[i])
                if k + 1 == cap:
                    break
        self._witness_rows = spent
        return len(chosen)


class SubsetCheck(NamedTuple):
    """One subfamily's check: indices, the gp_number found (see
    check_condition for when it is exact), the bound required, and whether
    it was met."""

    indices: tuple
    gp_number: int
    required: int
    ok: bool


@dataclass(frozen=True)
class ConditionReport:
    holds: bool
    mode: str
    checks: tuple
    first_violation: SubsetCheck | None


def _all_subsets_gate(m, budget):
    if m > 20 or 2**m - 1 > budget:
        raise BudgetExceeded("all-subsets mode would enumerate 2^%d - 1 subfamilies" % m)


def check_condition(family, bound, mode="all-subsets", samples=200, rng=None,
                    subset_budget=None, stop_early=False, exact=True):
    """Evaluate gp_number(union of X_i, i in I) >= bound(|I|) over nonempty
    subfamilies I.

    mode "all-subsets" enumerates all 2^m - 1 of them (m <= 20); mode
    "sampled" draws min(samples, 2^m - 1) distinct nonempty subsets (samples
    at least 1) with the given random generator. Either count must fit
    subset_budget (None: DEFAULT_NODE_BUDGET), which when given also becomes
    the family's node_budget, the cap on each union's search nodes.
    bound is a callable k -> int. With stop_early the scan ends at the first
    violation, so a negative report carries only the checks made up to that
    point. Unions are checked in order of size, so each one's search is
    capped from its cached sub-unions (PointFamily.gp_number_of_union).

    With exact=False each union is only tested against its requirement
    (PointFamily.capped_gp_number_of_union): a greedy witness tries to meet
    bound(|I|) before the family's index is built, which then happens only
    when a witness cannot settle a union, and a search stops once it
    reaches bound(|I|). holds, the checks made and first_violation are the
    same as with exact=True, and a failing check's gp_number is exact, but a
    passing check's gp_number is then some value of at least required, not
    necessarily the union's gp_number.
    """
    m = family.m
    if subset_budget is not None:
        family.node_budget = subset_budget
    budget = DEFAULT_NODE_BUDGET if subset_budget is None else subset_budget
    if mode == "all-subsets":
        _all_subsets_gate(m, budget)
        subsets = [
            combo for size in range(1, m + 1) for combo in combinations(range(m), size)
        ]
    elif mode == "sampled":
        if rng is None:
            raise ValueError("sampled mode needs an rng")
        if samples < 1:
            # no check at all would make any family "hold"
            raise ValueError("sampled mode needs at least 1 sample, got %d" % samples)
        want = min(samples, 2**m - 1)
        if want > budget:
            raise BudgetExceeded(
                "sampled mode would check %d subfamilies, over the budget of %d"
                % (want, budget)
            )
        seen = set()
        while len(seen) < want:
            combo = tuple(i for i in range(m) if rng.random() < 0.5)
            if combo:
                seen.add(combo)
        subsets = sorted(seen, key=lambda c: (len(c), c))
    else:
        raise ValueError("unknown mode %r" % (mode,))
    checks = []
    first_violation = None
    size = 0
    for combo in subsets:
        if len(combo) != size:
            size = len(combo)
            req = bound(size)
        if exact:
            # the public method: verdictbench's tracer counts unions there
            got = family.gp_number_of_union(combo)
        else:
            key = 0
            for i in combo:
                key |= 1 << i
            got = family._union_gp(key, req)
        check = SubsetCheck(combo, got, req, got >= req)
        checks.append(check)
        if got < req and first_violation is None:
            first_violation = check
            if stop_early:
                break
    return ConditionReport(
        holds=first_violation is None,
        mode=mode,
        checks=tuple(checks),
        first_violation=first_violation,
    )


# ---------------------------------------------------------------------------
# solvers


@dataclass(frozen=True)
class SgprResult:
    """status is "found" (representatives: one (set index, point) per set,
    in general position), "not_found", or "condition_violated" (violation
    carries the witnessing subfamily)."""

    status: str
    representatives: tuple | None = None
    violation: SubsetCheck | None = None

    def points(self):
        return [p for _, p in self.representatives] if self.representatives else []


def solve_greedy(family, node_budget=None):
    """Two-phase greedy.

    Phase 1 assigns positions m down to 1, each time taking the lowest-index
    unassigned set whose own gp_number reaches extension_bound(d, position).
    No position asks for more than extension_bound(d, m), so each set's
    gp_number is sought only up to that (family.capped_gp_number_of_union,
    so it is cached): a greedy witness of that many points settles a set
    with no index, and only a set where it falls short builds the family's
    index;
    if none qualifies the greedy hypothesis fails and the unassigned
    subfamily is reported as a condition violation (its union's gp_number is
    then provably below greedy_bound). Phase 2 walks positions upward and
    extends by the first fitting point of each set; under a successful phase 1
    the extension guarantee covers every step. node_budget caps each
    gp_number.
    """
    m, d = family.m, family.d
    if node_budget is not None:
        family.node_budget = node_budget
    top = extension_bound(d, m)
    sizes = [family.capped_gp_number_of_union((i,), top) for i in range(m)]
    position_of = [None] * m
    unassigned = list(range(m))
    for j in range(m, 0, -1):
        need = extension_bound(d, j)
        pick = next((i for i in unassigned if sizes[i] >= need), None)
        if pick is None:
            indices = tuple(unassigned)
            violation = SubsetCheck(
                indices=indices,
                gp_number=family.gp_number_of_union(indices),
                required=greedy_bound(d, len(indices)),
                ok=False,
            )
            return SgprResult(status="condition_violated", violation=violation)
        position_of[j - 1] = pick
        unassigned.remove(pick)
    chosen = []
    for i in position_of:
        p = extend_gp(chosen, family.sets[i])
        if p is None:
            return SgprResult(status="not_found")
        chosen.append(p)
    reps = tuple(sorted(zip(position_of, chosen)))
    return SgprResult(status="found", representatives=reps)


def solve_exhaustive(family, node_budget=None):
    """The lexicographically first system (set order, candidates in input
    order), or "not_found" when none exists: search.colorful_face over the
    sets' points under general position, within node_budget predicate calls
    (None: DEFAULT_NODE_BUDGET)."""
    sets = [X.points for X in family.sets]
    homs = [[p.hom for p in X] for X in sets]
    picks = colorful_face(homs, gp_extends, node_budget)
    if picks is None:
        return SgprResult(status="not_found")
    reps = tuple((i, X[j]) for i, (X, j) in enumerate(zip(sets, picks)))
    return SgprResult(status="found", representatives=reps)


def solve_matroid_intersection(family):
    """Complete decision for m <= d+1 via the intersection of the affine
    matroid on the disjoint union with the partition matroid of the family:
    a common independent set of size m is exactly a representative system
    (m <= d+1 points are in general position iff affinely independent).
    Neither matroid is asked set by set: the affine side answers each
    exchange question with the general-position kernel on the current set
    less one point, and the partition side from its blocks
    (matroids.IndependenceOracle.exchanges)."""
    m, d = family.m, family.d
    if m > d + 1:
        raise ValueError("matroid route needs m <= d+1 (got m=%d, d=%d)" % (m, d))
    points = []
    owner = []
    blocks = [[] for _ in range(m)]
    for i, X in enumerate(family.sets):
        for p in X:
            blocks[i].append(len(points))
            owner.append(i)
            points.append(p)
    affine = matroids.AffineMatroid(PointMultiset(points, d=d))
    partition = matroids.PartitionMatroid(blocks)
    common = matroids.matroid_intersection(affine, partition)
    if len(common) == m:
        reps = tuple(sorted((owner[e], points[e]) for e in common))
        return SgprResult(status="found", representatives=reps)
    return SgprResult(status="not_found")


# ---------------------------------------------------------------------------
# the insufficiency construction


def counterexample_family(d, m, seed_param=0, retries=16):
    """Family meeting the size condition (every union of |I| sets holds |I|
    points in general position) yet admitting no representative system.

    Needs m > d+1 and d >= 2: sets 1..m-1 are singletons on the moment curve,
    and the last set places one point on each hyperplane spanned by d of the
    singletons, so any full pick contains d+1 points on one hyperplane. The
    on-hyperplane points are deterministic rational combinations steered by
    seed_param; the construction re-verifies general position of the last set
    and the size condition, shifting the parameter on failure; that check
    enumerates every subfamily, so m over 20 raises BudgetExceeded before
    anything is built, as check_condition would after. Below that it tests
    each union only against its size (check_condition with exact=False), so
    in d = 2 m = 12 takes well under a second and m = 16 about one. d = 1 is
    rejected: there a hyperplane is a single point, the last set could only
    repeat existing points, and no counterexample exists (the size condition
    is exactly the matching condition)."""
    if d < 2:
        raise ValueError("the construction needs d >= 2; at d = 1 the size condition is sharp")
    if m <= d + 1:
        raise ValueError("the size condition is sufficient for m <= d+1; need m > d+1")
    _all_subsets_gate(m, DEFAULT_NODE_BUDGET)
    curve = [[t**i for i in range(1, d + 1)] for t in range(1, m)]
    base = [Point(c) for c in curve]
    subsets = list(combinations(range(m - 1), d))
    for attempt in range(retries):
        shift = abs(seed_param) + attempt * (len(subsets) + 2)
        extra = []
        for idx, combo in enumerate(subsets):
            # affine combination of the d spanning points with weights
            # (1 - c - ... - c^(d-1), c, c^2, ...), c = 1/q: the integer
            # weights q^(d-1-j) over q^(d-1); it lands on their hull
            q = idx + 2 + shift
            weights = [q ** (d - 1 - j) for j in range(1, d)]
            den = q ** (d - 1)
            weights.insert(0, den - sum(weights))
            nums = [sum(w * curve[i][k] for w, i in zip(weights, combo)) for k in range(d)]
            extra.append(Point.from_ratios(nums, [den] * d))
        family = PointFamily(
            d=d,
            sets=[PointMultiset([p]) for p in base] + [PointMultiset(extra, d=d)],
        )
        if not in_general_position(extra):
            continue
        report = check_condition(family, bound=lambda k: k, exact=False)
        if report.holds:
            return family
    raise ConstructionError(
        "no parameter in %d retries passed verification; rerun with a different seed_param"
        % retries
    )


# ---------------------------------------------------------------------------
# complexes of a configuration


def general_position_complex(X, max_card=None, max_faces=None):
    """Complex on one vertex per entry of X (multiplicity kept) whose faces
    are the index sets in general position, up to size max_card. Equals the
    d-th completion of the independence complex of X: general position is
    exactly 'every at-most-(d+1)-subset affinely independent'.

    The levels grow by popcounts on the flat index of the distinct points
    in R^d (geometry.gp_grow), indexed only as deep as the faces asked
    about need. At most max_faces faces (None: DEFAULT_FACE_BUDGET; past
    it BudgetExceeded is raised). Points of mixed dimensions raise
    DimensionMismatch."""
    d = _common_dim(X, 0)  # mixed dimensions raise; no points: no level asks for flats
    homs = [p.hom for p in X]
    return levelwise_complex(len(homs), gp_grow(homs, d + 1), max_card, max_faces,
                             "general-position complex")


def independence_complex(X, max_card=None, max_faces=None):
    """Complex of affinely independent index sets of X: the (r-1)-skeleton of
    the general-position complex, where r = min(gp_number(X), d+1). Also
    accepts any independence oracle in place of a point multiset. At most
    max_faces faces (None: DEFAULT_FACE_BUDGET)."""
    oracle = X
    if not isinstance(X, matroids.IndependenceOracle):
        pts = X if isinstance(X, PointMultiset) else PointMultiset(X)
        oracle = matroids.AffineMatroid(pts)
    return matroids.independence_complex(oracle, max_card=max_card, max_faces=max_faces)
