"""Seeded instance lists for the three workloads, each with its answer key.

A workload is a fixed list of slots. The seed picks coordinates, parameters
and transforms inside each slot but never the number or kind of slots, so a
new seed changes the instances and keeps the workload's composition. Random
point sets take their shape (which points coincide, which are collinear or
coplanar) from a generator that does not depend on the seed, and the seed
moves them by an invertible affine map: the work a verdict needs depends on
that shape, so each slot costs about the same under every seed. Every
instance is one verdict: a chain of `genpos` command lines, each reading the
given document or an earlier command's output.

Keys are built lazily by ``Instance.verify`` from oracle.py and closed forms,
never from genpos, and only after the timed loop.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb

import oracle

EXIT_FOR_STATUS = {"found": 0, "not_found": 1, "condition_violated": 2}


@dataclass
class Instance:
    """One verdict. ``steps`` lists (argv, stdin) pairs, where stdin is a
    document or the index of an earlier step whose output it reads.
    ``verify(codes, outputs)`` returns None, or a message naming the
    mismatch."""

    kind: str
    steps: list
    verify: object


def dump(q):
    q = Fraction(q)
    return int(q) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


def _load(text):
    try:
        return json.loads(text)
    except ValueError:
        return None


def _expect_codes(codes, want):
    if list(codes) != list(want):
        return "exit codes %s, expected %s" % (codes, want)
    return None


# ---------------------------------------------------------------------------
# point generators


def curve(d, ts):
    """Moment-curve points (t, t^2, ..., t^d): distinct t are in general
    position."""
    return [[dump(Fraction(t) ** (e + 1)) for e in range(d)] for t in ts]


def random_point(rng, d, spread):
    return [Fraction(rng.randint(-spread, spread), rng.choice((1, 1, 2))) for _ in range(d)]


def degenerate_points(rng, d, size, spread=4):
    """Points with planted repeats and collinear or coplanar subsets."""
    pts = [random_point(rng, d, spread) for _ in range(max(2, size // 2))]
    while len(pts) < size:
        roll = rng.random()
        if roll < 0.25:
            pts.append(list(rng.choice(pts)))
        elif roll < 0.7:
            a, b = rng.sample(pts, 2)
            t = Fraction(rng.randint(-2, 3), rng.choice((1, 2)))
            pts.append([x + t * (y - x) for x, y in zip(a, b)])
        else:
            pts.append(random_point(rng, d, spread))
    rng.shuffle(pts)
    return [[dump(c) for c in p] for p in pts]


def affine_map(rng, d):
    """A random invertible rational affine map; it keeps every collinearity
    and coplanarity, so keys and search trees do not depend on it."""
    while True:
        mat = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
        if oracle.rank(mat) == d:
            break
    shift = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(d)]
    scale = Fraction(1, rng.choice((1, 2, 3)))

    def apply(p):
        return [
            dump(scale * sum(m * Fraction(x) for m, x in zip(row, p)) + s)
            for row, s in zip(mat, shift)
        ]

    return apply


def mapped(rng, d, pts):
    f = affine_map(rng, d)
    return [f(p) for p in pts]


# ---------------------------------------------------------------------------
# verdict checks


def verify_solve(doc, status, method):
    """Check a `solve` output against the expected status and method; a found
    system must take one member of each set, jointly in general position."""

    def check(codes, outs):
        bad = _expect_codes(codes[-1:], [EXIT_FOR_STATUS[status]])
        if bad:
            return bad
        got = _load(outs[-1])
        if not got or got.get("status") != status or got.get("method") != method:
            return "solve said %r, expected status %s via %s" % (outs[-1][:200], status, method)
        if status != "found":
            return None
        reps = got.get("representatives") or []
        if [r["set"] for r in reps] != list(range(len(doc["sets"]))):
            return "representatives do not take one point per set"
        conf, _ = oracle.family_config(doc)
        picks = []
        for r in reps:
            p = oracle.parse_point(r["point"])
            if p not in {oracle.parse_point(q) for q in doc["sets"][r["set"]]}:
                return "representative %s is not a member of set %d" % (r["point"], r["set"])
            picks.append(conf.index[p])
        if len(set(picks)) != len(picks) or not conf.in_general_position(picks):
            return "representatives are not in general position"
        return None

    return check


def verify_check(doc, bound, gp_numbers=None, all_checks=False):
    """Check a `check` output: every union's gp_number against the bound.
    gp_numbers maps index tuples to values; when None the oracle computes
    them."""
    d, m = doc["d"], len(doc["sets"])

    def check(codes, outs):
        gps = gp_numbers if gp_numbers is not None else oracle.union_gp_numbers(doc)
        rows = []
        for combo, gp in gps.items():
            req = bound(d, len(combo))
            rows.append({"indices": list(combo), "gp_number": gp, "required": req, "ok": gp >= req})
        bad_rows = [r for r in rows if not r["ok"]]
        want = {"holds": not bad_rows, "mode": "all-subsets", "n_checks": 2**m - 1}
        if bad_rows:
            want["first_violation"] = bad_rows[0]
        if all_checks:
            want["checks"] = rows
        bad = _expect_codes(codes[-1:], [0 if not bad_rows else 1])
        if bad:
            return bad
        got = _load(outs[-1])
        if got is None:
            return "check printed no JSON"
        got.pop("bound", None)
        if got != want:
            return "check said %s, expected %s" % (json.dumps(got)[:300], json.dumps(want)[:300])
        return None

    return check


# ---------------------------------------------------------------------------
# decide: solve, check and counterexample on small and greedy-conditioned
# families


def _random_family(shape, rng, d, m, sizes):
    sets = []
    for size in sizes:
        if shape.random() < 0.5:
            pts = degenerate_points(shape, d, size, spread=3)
        else:
            pts = [random_point(shape, d, 3) for _ in range(size)]
        sets.append(pts)
    f = affine_map(rng, d)
    return {"d": d, "sets": [[f(p) for p in X] for X in sets]}


def _greedy_family(rng, m, extras):
    # d = 2; every set holds a shared moment-curve pool of greedy_bound + 2
    # points plus a few more curve points, so every union meets the greedy
    # condition and all points are in general position together
    ts = rng.sample(range(-70, 70), oracle.greedy_bound(2, m) + 2)
    pool = curve(2, ts)
    spare = [t for t in range(70, 120)]
    rng.shuffle(spare)
    sets = []
    for i in range(m):
        sets.append(pool + curve(2, spare[i * 3:i * 3 + extras]))
    return {"d": 2, "sets": sets}


def _exists(doc):
    conf, sets = oracle.family_config(doc)
    return "found" if conf.has_system(sets) else "not_found"


def _solve_instance(kind, doc, argv_tail, method, status=None):
    def check(codes, outs):
        st = status if status is not None else _exists(doc)
        return verify_solve(doc, st, method)(codes, outs)

    return Instance(kind, [(["solve", "-"] + argv_tail, json.dumps(doc))], check)


def _distinct_gp(doc):
    # moment-curve unions are in general position: gp_number is the number
    # of distinct points
    out = {}
    m = len(doc["sets"])
    for size in range(1, m + 1):
        for combo in combinations(range(m), size):
            out[combo] = len({tuple(p) for i in combo for p in doc["sets"][i]})
    return out


def _counterexample_instance(d, m, seed_param):
    steps = [
        (["counterexample", "-d", str(d), "-m", str(m), "--seed-param", str(seed_param)], ""),
        (["solve", "-"], 0),
        (["check", "-", "--bound", "hall"], 0),
    ]

    def check(codes, outs):
        bad = _expect_codes(codes, [0, 1, 0])
        if bad:
            return bad
        fam = _load(outs[0])
        if not fam or fam.get("d") != d or len(fam.get("sets", ())) != m:
            return "counterexample printed %r" % outs[0][:200]
        gps = oracle.union_gp_numbers(fam)
        if any(gp < len(combo) for combo, gp in gps.items()):
            return "counterexample family violates the Hall condition"
        conf, sets = oracle.family_config(fam)
        if conf.has_system(sets):
            return "counterexample family has a representative system"
        bad = verify_solve(fam, "not_found", "exhaustive")(codes[:2], outs[:2])
        return bad or verify_check(fam, lambda d_, k: k, gps)(codes, outs)

    return Instance("counterexample-d%d-m%d" % (d, m), steps, check)


def decide(seed):
    rng = random.Random("decide:%d" % seed)
    shape = random.Random("decide")
    out = []
    for i in range(84):
        d = 2 + i % 2
        m = d + 2 + (i // 2) % 2
        doc = _random_family(shape, rng, d, m, [2 + (i + j) % 3 for j in range(m)])
        out.append(_solve_instance("auto-exhaustive-d%d" % d, doc, [], "exhaustive"))
    for i in range(36):
        d = 2 + i % 2
        m = 2 + (i // 2) % d
        doc = _random_family(shape, rng, d, m, [3 + (i + j) % 3 for j in range(m)])
        out.append(_solve_instance("auto-matroid-d%d" % d, doc, [], "matroid"))
    for i in range(36):
        d = 2 + i % 2
        m = 3 + i % (5 - d)
        doc = _random_family(shape, rng, d, m, [2 + (i + j) % 3 for j in range(m)])
        out.append(Instance(
            "check-g-d%d" % d,
            [(["check", "-", "--bound", "g"], json.dumps(doc))],
            verify_check(doc, oracle.representative_bound),
        ))
    for i, (d, m) in enumerate([(2, 5), (2, 6), (3, 5)] * 6):
        out.append(_counterexample_instance(d, m, rng.randint(0, 50)))
    # the heaviest verdicts: three greedy solves at m = 5 lie beyond the
    # p95, which falls inside the cluster of greedy checks at m = 4. Few
    # heavy verdicts keep a pass short, so each instance is timed often.
    for i in range(36):
        m = (2, 3, 4, 4)[i % 4]
        doc = _greedy_family(rng, m, 1)
        out.append(Instance(
            "greedy-check-m%d" % m,
            [(["check", "-", "--bound", "greedy"], json.dumps(doc))],
            verify_check(doc, oracle.greedy_bound, _distinct_gp(doc)),
        ))
    for i in range(16):
        m = (3, 4, 4, 5, 3, 4, 4, 4)[i % 8]
        doc = _greedy_family(rng, m, i % 3)
        out.append(_solve_instance("greedy-solve-m%d" % m, doc, ["--method", "greedy"],
                                   "greedy", status="found"))
    for i in range(8):
        # auto takes the exhaustive route at m = 4 and the greedy one at m = 5
        m = 5 if i == 7 else 4
        doc = _greedy_family(rng, m, i % 3)
        out.append(_solve_instance("greedy-auto-m%d" % m, doc, [],
                                   "exhaustive" if m == 4 else "greedy", status="found"))
    return out


# ---------------------------------------------------------------------------
# topology: general-position complexes through homology, matroid complexes,
# joins


def _verify_outputs(want_codes, wants):
    """wants: per step, a thunk giving the expected output document."""

    def check(codes, outs):
        bad = _expect_codes(codes, want_codes)
        if bad:
            return bad
        for i, want in enumerate(wants):
            got = _load(outs[i])
            exp = want()
            if got != exp:
                return "step %d said %s, expected %s" % (i, outs[i][:300], json.dumps(exp)[:300])
        return None

    return check


def _betti_doc(k, betti, f_vec):
    euler = sum(c if i % 2 == 0 else -c for i, c in enumerate(f_vec))
    return {"up_to": k, "betti": betti, "euler_partial": euler, "f_vector": f_vec}


def _bound_path(rng, d, k, dups, midpoint):
    # acceptance c08: gp_number > d * C(2k+2, d), so the general-position
    # complex has zero reduced Betti numbers through degree k
    core = curve(d, rng.sample(range(-40, 40), d * comb(2 * k + 2, d) + 1))
    pts = core + [rng.choice(core) for _ in range(dups)]
    if midpoint:
        a, b = rng.sample(core, 2)
        pts.append([dump((Fraction(x) + Fraction(y)) / 2) for x, y in zip(a, b)])
    rng.shuffle(pts)
    doc = {"d": d, "points": pts}
    n = len(pts)

    @cache
    def faces():
        return oracle.gp_faces(pts, d, k + 2)

    def gp():
        return oracle.complex_doc(n, faces())

    def betti():
        return _betti_doc(k, [0] * (k + 1), oracle.f_vector(faces(), k + 2))

    return Instance(
        "bound-path-d%d-k%d" % (d, k),
        [(["complex", "gp", "-", "--max-card", str(k + 2)], json.dumps(doc)),
         (["complex", "betti", "-", "-k", str(k)], 0)],
        _verify_outputs([0, 0], [gp, betti]),
    )


def _independence_qstar(shape, rng, d, n, q):
    pts = mapped(rng, d, degenerate_points(shape, d, n))
    doc = {"d": d, "points": pts}

    @cache
    def faces():
        return oracle.independent_faces(pts, d)

    def ind():
        return oracle.complex_doc(n, faces())

    def check(codes, outs):
        holds, violating = oracle.q_star(faces(), q)
        return _verify_outputs(
            [0, 0 if holds else 1],
            [ind, lambda: {"holds": holds, "q": q, "violating": violating}],
        )(codes, outs)

    return Instance(
        "independence-qstar-d%d" % d,
        [(["complex", "independence", "-"], json.dumps(doc)),
         (["complex", "qstar", "-", "-q", str(q)], 0)],
        check,
    )


def _uniformity(shape, rng, d, n):
    pts = mapped(rng, d, degenerate_points(shape, d, n))
    return Instance(
        "uniformity-d%d" % d,
        [(["complex", "uniformity", "-"], json.dumps({"d": d, "points": pts}))],
        _verify_outputs([0], [lambda: oracle.complex_doc(n, oracle.uniform_faces(pts, d))]),
    )


def _join(rng, sizes):
    sizes = list(sizes)
    rng.shuffle(sizes)
    k = len(sizes) - 1
    doc = {"n_vertices": sum(sizes), "facets": oracle.join_facets(sizes)}
    return Instance(
        "join-%s" % "x".join(map(str, sorted(sizes))),
        [(["complex", "betti", "-", "-k", str(k)], json.dumps(doc))],
        _verify_outputs([0], [lambda: _betti_doc(
            k, oracle.join_betti(sizes), oracle.join_f_vector(sizes) + [0])]),
    )


def topology(seed):
    rng = random.Random("topology:%d" % seed)
    shape = random.Random("topology")
    out = []
    for i in range(60):
        d, k = ((1, 0), (1, 1), (2, 0))[i % 3]
        out.append(_bound_path(rng, d, k, 1 + i % 3, d == 2 and i % 2 == 0))
    for i in range(24):
        out.append(_bound_path(rng, 1, 2, 1 + i % 2, False))
    # the four heaviest verdicts lie beyond the p95, which falls in the
    # middle of the twelve 3 x 3 x 3 x 3 joins
    for i in range(2):
        out.append(_bound_path(rng, 1, 3, 1, False))
        out.append(_bound_path(rng, 2, 1, 1 + i, i == 0))
    for i in range(40):
        d = 2 + i % 2
        out.append(_independence_qstar(shape, rng, d, 6 + i % 4, 1 + i % 3))
    for i in range(44):
        out.append(_uniformity(shape, rng, 2 + i % 2, 6 + i % 4))
    for i in range(30):
        out.append(_join(rng, ((3, 3, 3), (2, 3, 4), (4, 4, 4), (3, 3, 3, 3), (3, 3, 3, 3))[i % 5]))
    return out


# ---------------------------------------------------------------------------
# degenerate: Hall checks with every union's gp_number on grids and lattices


def _grid_rows(rng, n):
    f = affine_map(rng, 2)
    doc = {"d": 2, "sets": [[f((x, y)) for x in range(n)] for y in range(n)]}
    # no three in line on the n x n grid has 2n points for these n, two on
    # each row, so any union of r rows has gp_number 2r
    gps = {c: 2 * len(c) for s in range(1, n + 1) for c in combinations(range(n), s)}
    return Instance(
        "grid-rows-%d" % n,
        [(["check", "-", "--bound", "hall", "--all-checks"], json.dumps(doc))],
        verify_check(doc, lambda d, k: k, gps, all_checks=True),
    )


def _lattice(rng, kind, sets):
    d = len(sets[0][0])
    f = affine_map(rng, d)
    doc = {"d": d, "sets": [[f(p) for p in X] for X in sets]}
    return Instance(
        kind,
        [(["check", "-", "--bound", "hall", "--all-checks"], json.dumps(doc))],
        verify_check(doc, lambda d_, k: k, all_checks=True),
    )


def _lines2(a, layers):
    # layer z: a points on the row y = z and a on the slope-1 line y = x + z
    return [[(x, z) for x in range(a)] + [(x, x + z) for x in range(a)] for z in range(layers)]


def _layers3(a, b, layers):
    return [[(x, y, z) for x in range(a) for y in range(b)] for z in range(layers)]


def degenerate(seed):
    rng = random.Random("degenerate:%d" % seed)
    out = []
    # the p95 falls inside the cluster of 4 x 4 grids; three heavier
    # instances lie beyond it. All of them are planar: their cost does not
    # depend on the seed's affine map, while that of 4 x 4 determinants in
    # space does, so the spatial lattices are kept small.
    for i in range(60):
        out.append(_grid_rows(rng, 2 + i % 2))
    for i in range(60):
        out.append(_grid_rows(rng, 4))
    out.append(_grid_rows(rng, 5))
    for i in range(80):
        a, layers = ((3, 3), (2, 4))[i % 2]
        out.append(_lattice(rng, "lines2-%dx%d" % (a, layers), _lines2(a, layers)))
    for i in range(2):
        out.append(_lattice(rng, "lines2-4x3", _lines2(4, 3)))
    for i in range(40):
        out.append(_lattice(rng, "layers3-2x2x2", _layers3(2, 2, 2)))
    return out


WORKLOADS = {"decide": decide, "topology": topology, "degenerate": degenerate}
