"""Time the integer kernels, the flat index and the JSON codec.

Times int_det, int_rank, and gp_extends on mixed workloads: small
matrices with machine-size entries, larger matrices, and entries far past
machine words. The gp_extends rows span prefix sizes from a few points to
80 in the plane, plus an early reject. The FlatIndex rows time the build of
gp_number's flat index, whose levels run in loops compiled once per shape
(d, j), with no line key for a point on a line recorded at a lower point
(the node charge still counts every tuple): the 6x6 grid (d=2), the 3x3x3
cube and 40 points on the moment curve (d=3); the rows of the 4x4 grid
under an affine map (degenerate's grid-rows-4), the 8 distinct points of
counterexample_family(3, 5) (decide's counterexample -d 3 -m 5), the same
40 moment points capped at top=1 (the first index gp_grow builds), and
16 planted points in d=4, the second half each on a flat through earlier
ones. The jsonio rows parse and print a decide-sized pair
of family documents (d=2 and d=3, about 3,200 integer and 800 "p/q"
coordinates): family_from_doc builds each point's homogeneous vector, and
family_to_doc prints the coordinates back from it. One more row parses the
same pair with every coordinate a "p/q" string, as in the affine-mapped
grids of verdictbench's degenerate workload. The cli row parses the
six command-line shapes that verdictbench sends (solve, check twice,
complex betti, complex gp, counterexample) through cli.parse_args, the
parse cli.main uses, so that after the first round it times memo hits; in
a tree without it, through build_parser().parse_args. The fallback row
parses the same six spelled --opt=value with the memo bypassed
(cli._parse.__wrapped__, else cli.parse_args), so argparse's own path
stays timed. The next row imports genpos and genpos.cli afresh from the
row's own tree, every genpos module dropped first, as verdictbench/run.py
does between passes; it times compiling the sources only where no .pyc can
be read. The cold parse row then clears every functools cache of cli, the
built parsers included, and parses the six argv again, as the first
parses of a fresh process do.

The complex rows build the independence and uniformity complexes of an
affine matroid, from a fresh AffineMatroid each time: 9 points in general
position in d=3, and 9 coplanar points in d=3, whose complexes grow on
their own vectors in R^3 under a flat index capped at the matroid's rank 3.
The next row runs `complex uniformity --rank 3 --max-card 4` on 24 points
of the moment curve in d=3 (12,951 faces) through cli.main, stdout
captured, so that against an older tree it times that tree's path for the
truncated matroid. Two rows build general-position
complexes: of 16 points in the plane (13 on a parabola, two repeats and a
midpoint) capped at 3 points a face, and of the 9 points in d=3 with no
cap. The completion rows take the clique
complex (j=1) of a 14-vertex graph with edge density 0.8, and the
3-completion of the independence complex of 10 points in general position
in d=3 (every set of the 10). Then rows parse, print and take the Betti
numbers through degree 3 of the join of four 3-point sets (81 facets, 256
faces): complex_from_doc, complex_to_doc, then complex_from_doc of the same
join spread over a document of 10^9 vertices, which jsonio relabels onto
its 12 vertices, then betti_up_to. Each complex_to_doc, neighborhood and
is_q_star row takes a fresh copy of its complex each call, so that it
times the extender table's building (a tree without the table finds the
facets by marking subfaces). One more Betti
row takes degrees through 2 of the general-position complex, capped at 4
points a face, of 7 distinct points and one repeat on a line (d=1), and
the next prints that complex's document, reading the facets the levelwise
enumerator recorded (a tree without that record finds them by marking
subfaces). One more Betti row takes degrees through 2 of the closure of
30 random triangles on 12 vertices, which has holes: its reduction builds
the columns whose lowest rows collide. The next row takes the
neighborhood of vertex 0 in that complex, and the one after prints the
document of the closure of the facets that the 16-point general-position
complex prints, as the topology workload's complex betti and complex qstar
read it back. Three
rows run check_condition over every union of a fresh family: the rows of
a 4x4 grid under the Hall bound, and 4 sets sharing a 27-point parabola
pool under the greedy bound, once printing every union's gp_number
(--all-checks) and once testing each union against its bound only. The
next tests each union of counterexample_family(3, 5)'s sets against the
Hall bound only, a fresh family each call, as check --bound hall does in
decide's slowest verdicts. One
row runs solve_greedy on a fresh family of 5 sets sharing a 63-point
parabola pool, and one runs solve_matroid_intersection on a fresh family
of 4 sets in d=3, 18 points in all: 17 on one plane, repeats among them,
and one point off it. One row builds counterexample_family(2, 10),
a fresh family each call, whose re-check tests each of its 1,023 unions
against its size. The last rows run solve_exhaustive on
counterexample_family(3, 5), which has no system, and on 64 points of a
parabola in 8 sets of 8, where the first pick of each set works. Two rows
close the table: the general-position complex of 300 random points in d=3
capped at 2 points a face (45,151 faces, no flat index), which times the
levelwise enumerator on a wide, shallow complex, and gp_number of the 6x6
grid, the 7x7 grid (89,248 grow calls) and the 3x3x3 cube (14,895), which
time the branch-and-bound maximiser. The next row runs
solve_matroid_intersection on a fresh family of 8 singletons on the
moment curve in d=12, whose exchange questions ask of up to 8 points in
a space of 12 dimensions. The last row but two runs the Hall check of the 4x4
row on the rows of the 6x6 grid, a fresh family each call: its 63 unions
make about 3,600 calls of gp_number's grow, so the caps that each union
takes from its sub-unions are timed at a real size. The next row
runs is_q_star at q=3 on the general-position complex of 24 random points
in d=3 capped at 4 points a face (12,951 faces): 2,024 vertex triples. The
last row runs the sampled Hall check on 12 singletons in d=1, a fresh
family each call, with samples = 2^12 - 1: every subfamily, which a tree
that draws them until it has them all collects one coupon at a time.

Each row is the best of --repeat runs of three calls, in ms per call.

With --against PATH every row is also built from the genpos sources under
PATH/src and timed in the same process, alternating with the rows of this
checkout's src, run by run; a third column gives the ratio. Each tree is
imported afresh by dropping every genpos module from sys.modules, as
verdictbench/run.py does between passes, and the rows of each tree keep the
functions of their own import. Timings of one tree taken in separate runs
drift too far apart on a busy host to compare; alternating runs share the
drift.

Run:  python benchmarks/bench_kernels.py [--repeat N] [--against PATH]
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import random
import sys
import timeit
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __name__ == "__main__":  # run from a checkout: import its own sources
    sys.path.insert(0, os.path.join(ROOT, "src"))

from genpos import cli
from genpos._kernels import gp_extends, int_det, int_rank
from genpos.complexes import SimplicialComplex, closure, completion, is_q_star, neighborhood
from genpos.geometry import FlatIndex, Point, gp_number
from genpos.homology import betti_up_to
from genpos.jsonio import complex_from_doc, complex_to_doc, family_from_doc, family_to_doc
from genpos.matroids import AffineMatroid, independence_complex, uniformity_complex
from genpos.solver import (
    PointFamily,
    check_condition,
    counterexample_family,
    general_position_complex,
    greedy_bound,
    solve_exhaustive,
    solve_greedy,
    solve_matroid_intersection,
)

SEED = 20240815


def _rand_matrix(rng, n, m, lo, hi):
    return [[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)]


def _gp_points(rng, d, n, spread):
    pts = []
    while len(pts) < n:
        cand = Point([Fraction(rng.randint(-spread, spread), rng.randint(1, 7))
                      for _ in range(d)])
        if gp_extends([p.hom for p in pts], cand.hom):
            pts.append(cand)
    return pts


def _gp_case(rng, d, k, spread):
    """A general-position prefix of k homogeneous rows plus one candidate
    that extends it (a full accepting scan)."""
    pts = _gp_points(rng, d, k + 1, spread)
    return [p.hom for p in pts[:-1]], pts[-1].hom


def _early_reject_case(rng, d, k, spread):
    """A general-position prefix of k rows plus a candidate on the line
    through its first two points, so the scan can stop at once."""
    pts = _gp_points(rng, d, k, spread)
    cand = Point([2 * a - b for a, b in zip(pts[0].coords, pts[1].coords)])
    return [p.hom for p in pts], cand.hom


def build_cases(rng):
    cases = []
    for n, lo, hi, label in [
        (3, -50, 50, "det 3x3 small"),
        (4, -10**6, 10**6, "det 4x4 medium"),
        (4, -10**12, 10**12, "det 4x4 big entries"),
        (6, -100, 100, "det 6x6 small"),
    ]:
        mats = [_rand_matrix(rng, n, n, lo, hi) for _ in range(60)]
        cases.append((label, lambda ms=mats: [int_det(M) for M in ms]))
    mats = [_rand_matrix(rng, 6, 9, -40, 40) for _ in range(40)]
    cases.append(("rank 6x9", lambda ms=mats: [int_rank(M) for M in ms]))
    for d, kk, make, tag in [
        (2, 8, _gp_case, ""),
        (2, 30, _gp_case, ""),
        (2, 80, _gp_case, ""),
        (3, 7, _gp_case, ""),
        (3, 12, _gp_case, ""),
        (2, 30, _early_reject_case, " reject"),
    ]:
        probes = [make(rng, d, kk, 30) for _ in range(25)]
        cases.append(("gp_extends d=%d k=%d%s" % (d, kk, tag),
                      lambda ps=probes: [gp_extends(r, nr) for r, nr in ps]))
    moment = [(t, t * t, t ** 3) for t in range(40)]
    for label, d, pts, top in [
        ("FlatIndex 6x6 grid d=2", 2, [(x, y) for x in range(6) for y in range(6)], None),
        ("FlatIndex 3x3x3 cube d=3", 3,
         [(x, y, z) for x in range(3) for y in range(3) for z in range(3)], None),
        ("FlatIndex 40 moment d=3", 3, moment, None),
        ("FlatIndex grid rows 4x4 d=2", 2, [p for row in _grid_rows(4) for p in row], None),
        ("FlatIndex cex d=3 m=5", 3, [p for X in counterexample_family(3, 5).sets for p in X],
         None),
        ("FlatIndex 40 moment top=1", 3, moment, 1),
        # a Random of its own, so that the rows after it draw what they drew before it
        ("FlatIndex planted d=4", 4, _planted_points(random.Random(SEED + 3), 4, 16), None),
    ]:
        homs = list(dict.fromkeys(Point(p).hom for p in pts))
        cases.append((label, lambda hs=homs, dd=d, tt=top: FlatIndex(hs, dd, tt).build()))
    docs = [_family_doc(rng, 2, 20, 50), _family_doc(rng, 3, 20, 33)]
    cases.append(("family_from_doc 4k coords",
                  lambda: [family_from_doc(doc) for doc in docs]))
    ratio_docs = [_all_ratios(doc) for doc in docs]
    cases.append(("family_from_doc 4k ratio coords",
                  lambda: [family_from_doc(doc) for doc in ratio_docs]))
    families = [family_from_doc(doc) for doc in docs]
    cases.append(("family_to_doc 4k coords",
                  lambda: [family_to_doc(fam) for fam in families]))
    # the argv shapes verdictbench sends, through the parse cli.main uses
    # (build_parser().parse_args in a tree without cli.parse_args)
    parse = getattr(cli, "parse_args", None) or cli.build_parser().parse_args
    argvs = [["solve", "-", "--method", "auto"],
             ["check", "-", "--bound", "hall", "--all-checks"],
             ["check", "-", "--bound", "g"],
             ["complex", "betti", "-", "-k", "2"],
             ["complex", "gp", "-", "--max-card", "3"],
             ["counterexample", "-d", "2", "-m", "5"]]
    cases.append(("cli parse 6 argv", lambda: [parse(argv) for argv in argvs]))
    # the same six spelled --opt=value through argparse itself: the
    # uncached parse (parse_args in a tree without the memo)
    fresh = getattr(getattr(cli, "_parse", None), "__wrapped__", parse)
    spelled = [["solve", "-", "--method=auto"],
               ["check", "-", "--bound=hall", "--all-checks"],
               ["check", "-", "--bound=g"],
               ["complex", "betti", "-", "--up-to=2"],
               ["complex", "gp", "-", "--max-card=3"],
               ["counterexample", "-d=2", "-m=5"]]
    cases.append(("cli parse 6 argv fallback", lambda: [fresh(argv) for argv in spelled]))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    cases.append(("import genpos fresh", lambda: _import_fresh(src)))
    # the first parses of a fresh process: every functools cache of cli
    # cleared, the parsers' too
    caches = [f for f in vars(cli).values()
              if hasattr(f, "cache_clear") and f.__module__ == cli.__name__]
    cases.append(("cli cold parse 6 argv",
                  lambda: [f.cache_clear() for f in caches] + [parse(a) for a in argvs]))
    spatial = _gp_points(rng, 3, 9, 30)
    coplanar = [Point((x, y, x - 2 * y + 1)) for x, y in
                (p.coords for p in _gp_points(rng, 2, 9, 30))]
    for tag, pts in (("9 pts", spatial), ("9 coplanar", coplanar)):
        for name, build in (("independence", independence_complex),
                            ("uniformity", uniformity_complex)):
            cases.append(("%s %s d=3" % (name, tag),
                          lambda ps=pts, b=build: b(AffineMatroid(ps))))
    moment = json.dumps({"d": 3, "points": [[t, t * t, t ** 3] for t in range(24)]})
    truncated = ["complex", "uniformity", "-", "--rank", "3", "--max-card", "4"]
    cases.append(("cli uniformity --rank 3 n=24", lambda: _cli_main(truncated, moment)))
    # shaped like the bound-path-d2-k1 verdicts of verdictbench's topology
    # workload: 13 = 2 C(4, 2) + 1 points on the parabola, two of them
    # repeated, and the midpoint of two others, capped at 3 points a face
    parabola = [Point((t, t * t)) for t in rng.sample(range(-40, 40), 13)]
    a, b = rng.sample(parabola, 2)
    bent = parabola + rng.sample(parabola, 2) + [
        Point([(x + y) / 2 for x, y in zip(a.coords, b.coords)])]
    rng.shuffle(bent)
    cases.append(("gp complex 16 pts d=2 c=3",
                  lambda: general_position_complex(bent, max_card=3)))
    cases.append(("gp complex 9 pts d=3", lambda: general_position_complex(spatial)))
    edges = [(a, b) for a in range(14) for b in range(a + 1, 14) if rng.random() < 0.8]
    graph = closure(edges, 14)
    cases.append(("completion j=1 graph n=14", lambda: completion(graph, 1)))
    independent = independence_complex(AffineMatroid(_gp_points(rng, 3, 10, 30)))
    cases.append(("completion j=3 10 pts d=3", lambda: completion(independent, 3)))
    doc = {"n_vertices": 12,
           "facets": [[a, b, c, d] for a in range(3) for b in range(3, 6)
                      for c in range(6, 9) for d in range(9, 12)]}
    join = _complex(complex_from_doc(doc))
    cases.append(("complex_from_doc 3x3x3x3", lambda: complex_from_doc(doc)))
    cases.append(("complex_to_doc 3x3x3x3", lambda: complex_to_doc(_fresh(join))))
    # the same join with its vertices spread by v -> 1000 v + 999 over a
    # document claiming 10^9 vertices: relabelled where jsonio relabels; the
    # spread stays below 12,000 so that a tree without the relabel builds
    # it too
    sparse = {"n_vertices": 10 ** 9,
              "facets": [[1000 * v + 999 for v in facet] for facet in doc["facets"]]}
    cases.append(("complex_from_doc 3x3x3x3 sparse", lambda: complex_from_doc(sparse)))
    cases.append(("betti_up_to 3x3x3x3", lambda: betti_up_to(join, 3)))
    # shaped like the bound-path-d1-k2 verdicts of verdictbench's topology
    # workload: 7 = C(6, 1) + 1 points on a line, one of them repeated
    line = [Point((t,)) for t in rng.sample(range(-40, 40), 7)]
    line.append(rng.choice(line))
    gp_line = general_position_complex(line, max_card=4)
    cases.append(("betti_up_to gp d=1 k=2", lambda: betti_up_to(gp_line, 2)))
    cases.append(("complex_to_doc gp d=1 k=2", lambda: complex_to_doc(gp_line)))
    # a Random of its own, so that the rows after it draw what they drew before it
    triangles = random.Random(SEED + 1)
    holed = closure([triangles.sample(range(12), 3) for _ in range(30)], 12)
    cases.append(("betti_up_to 30 triangles k=2", lambda: betti_up_to(holed, 2)))
    cases.append(("neighborhood 30 triangles", lambda: neighborhood(_fresh(holed), 0, 2)))
    # the document complex gp prints for the 16 points, read back as
    # complex betti and complex qstar read it, and printed again
    reread = _complex(complex_from_doc(complex_to_doc(general_position_complex(bent, 3))))
    cases.append(("complex_to_doc closure 16 pts", lambda: complex_to_doc(_fresh(reread))))
    # a fresh family per call, so that its union cache cannot answer;
    # shaped like verdictbench's grid-rows-4 (degenerate) and
    # greedy-check-m4 (decide)
    rows = _grid_rows(4)
    cases.append(("check hall grid rows 4x4",
                  lambda: check_condition(PointFamily(d=2, sets=rows), lambda k: k)))
    ts = rng.sample(range(-70, 70), greedy_bound(2, 4) + 2)
    pool = [Point((t, t * t)) for t in ts]
    greedy_sets = [pool + [Point((t, t * t))] for t in range(70, 74)]
    cases.append(("check greedy pool m=4",
                  lambda: check_condition(PointFamily(d=2, sets=greedy_sets),
                                          lambda k: greedy_bound(2, k))))
    cases.append(("check greedy m=4",
                  lambda: check_condition(PointFamily(d=2, sets=greedy_sets),
                                          lambda k: greedy_bound(2, k), exact=False)))
    # the check step of decide's slowest verdicts, counterexample -d 3 -m 5
    # piped into check --bound hall
    cex_sets = counterexample_family(3, 5).sets
    cases.append(("check hall counterexample d=3 m=5",
                  lambda: check_condition(PointFamily(d=3, sets=cex_sets), lambda k: k,
                                          exact=False)))
    # shaped like greedy-solve-m5 (decide)
    ts = rng.sample(range(-70, 70), greedy_bound(2, 5) + 2)
    pool = [Point((t, t * t)) for t in ts]
    solve_sets = [pool + [Point((t, t * t))] for t in range(70, 75)]
    cases.append(("greedy solve d=2 m=5",
                  lambda: solve_greedy(PointFamily(d=2, sets=solve_sets))))
    # shaped like auto-matroid-d3 (decide): m <= d+1 sets of a few points,
    # mostly coplanar, with repeats; the last set's last point leaves the plane
    plane = [Point((x, y, x - 2 * y + 1)) for x, y in
             ((0, 0), (1, 0), (2, 0), (0, 1), (1, 2), (3, 1), (2, 3), (4, 4))]
    matroid_sets = [plane[0:4] + [plane[0]], plane[2:6], plane[4:8] + [plane[4]],
                    plane[0:2] + plane[6:7] + [Point((1, 1, 5))]]
    cases.append(("solve matroid d=3 m=4",
                  lambda: solve_matroid_intersection(PointFamily(d=3, sets=matroid_sets))))
    cases.append(("counterexample d=2 m=10", lambda: counterexample_family(2, 10)))
    blocked = counterexample_family(3, 5)
    cases.append(("solve_exhaustive cex d=3 m=5", lambda: solve_exhaustive(blocked)))
    parabola = [Point((t, t * t)) for t in range(64)]
    spread = PointFamily(d=2, sets=[parabola[i:i + 8] for i in range(0, 64, 8)])
    cases.append(("solve_exhaustive 64 parabola", lambda: solve_exhaustive(spread)))
    wide = [Point([rng.randint(-1000, 1000) for _ in range(3)]) for _ in range(300)]
    cases.append(("gp complex 300 pts d=3 c=2",
                  lambda: general_position_complex(wide, max_card=2)))
    grid = [Point((x, y)) for x in range(6) for y in range(6)]
    cases.append(("gp_number 6x6 grid", lambda: gp_number(grid)))
    grid7 = [Point((x, y)) for x in range(7) for y in range(7)]
    cases.append(("gp_number 7x7 grid", lambda: gp_number(grid7)))
    cube = [Point((x, y, z)) for x in range(3) for y in range(3) for z in range(3)]
    cases.append(("gp_number 3x3x3 cube", lambda: gp_number(cube)))
    curve = [[Point([t ** i for i in range(1, 13)])] for t in range(8)]
    cases.append(("solve matroid d=12 m=8",
                  lambda: solve_matroid_intersection(PointFamily(d=12, sets=curve))))
    big_rows = _grid_rows(6)
    cases.append(("check hall grid rows 6x6",
                  lambda: check_condition(PointFamily(d=2, sets=big_rows), lambda k: k)))
    # a Random of its own, so that its points do not follow the rows before it
    spots = random.Random(SEED + 2)
    gp24 = general_position_complex(
        [Point([spots.randint(-30, 30) for _ in range(3)]) for _ in range(24)], max_card=4)
    cases.append(("is_q_star gp d=3 24 pts q=3", lambda: is_q_star(_fresh(gp24), 3)))
    singles = [[Point((i,))] for i in range(12)]
    cases.append(("check sampled every subfamily m=12",
                  lambda: check_condition(PointFamily(d=1, sets=singles), lambda k: k,
                                          mode="sampled", samples=2**12 - 1,
                                          rng=random.Random(SEED))))
    return cases


def _grid_rows(n):
    """The rows of the n x n grid under a rational affine map, as
    verdictbench's degenerate workload sends them."""
    return [[Point((Fraction(3 * x + y, 2), Fraction(x - 2 * y, 3))) for x in range(n)]
            for y in range(n)]


def _planted_points(rng, d, size):
    """size points in R^d, half of them small integer points and each of
    the rest on the j-flat through j+1 earlier points (1 <= j <= d-1), at
    rational weights: collinear triples, coplanar quadruples and so on."""
    pts = [[Fraction(rng.randint(-3, 3)) for _ in range(d)] for _ in range(size // 2)]
    while len(pts) < size:
        base, *span = rng.sample(pts, rng.randint(2, d))
        weights = [Fraction(rng.randint(-2, 3), rng.randint(1, 3)) for _ in span]
        pts.append([x + sum(w * (q[i] - x) for w, q in zip(weights, span))
                    for i, x in enumerate(base)])
    return pts


def _complex(parsed):
    """The complex of complex_from_doc's return: (K, labels), or K alone in
    a tree that returns no labels."""
    return parsed[0] if isinstance(parsed, tuple) else parsed


def _fresh(K):
    """A copy of K without the tables it built on use, so that a row times
    their building each call."""
    return SimplicialComplex(K.n_vertices, K.faces, _validated=True)


def _cli_main(argv, stdin):
    """cli.main(argv) reading stdin from a string, its stdout discarded."""
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    finally:
        sys.stdin = saved


def _import_fresh(src):
    """Import genpos and genpos.cli from the sources under src with every
    genpos module dropped first, as verdictbench/run.py does between passes;
    the modules dropped are put back after."""
    def genpos_modules():
        return {n: m for n, m in sys.modules.items() if n == "genpos" or n.startswith("genpos.")}

    saved = genpos_modules()
    for name in saved:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        importlib.import_module("genpos")
        importlib.import_module("genpos.cli")
    finally:
        sys.path.remove(src)
        for name in genpos_modules():
            del sys.modules[name]
        sys.modules.update(saved)


def _family_doc(rng, d, m, size):
    """A family document of m sets of size points, one coordinate in five a
    "p/q" string."""
    def coord():
        if rng.random() < 0.2:
            return "%d/%d" % (rng.randint(-60, 60), rng.randint(2, 7))
        return rng.randint(-60, 60)

    return {"d": d, "sets": [[[coord() for _ in range(d)] for _ in range(size)]
                             for _ in range(m)]}


def _all_ratios(doc):
    """doc with every coordinate x written as the "p/q" string of x/2 + 1/3,
    in lowest terms, as the affine-mapped grids of verdictbench's degenerate
    workload are written."""
    def ratio(c):
        q = Fraction(c) / 2 + Fraction(1, 3)
        return "%d/%d" % (q.numerator, q.denominator)

    return {"d": doc["d"], "sets": [[[ratio(c) for c in p] for p in X] for X in doc["sets"]]}


def cases_from(root):
    """The rows built against the genpos sources under root/src: genpos is
    imported afresh from there and this script is loaded again, so the
    copy's module-level imports bind that tree's functions."""
    src = os.path.join(os.path.abspath(root), "src")
    if not os.path.isfile(os.path.join(src, "genpos", "__init__.py")):
        raise SystemExit("bench_kernels: no genpos sources under %s" % src)
    for name in [n for n in sys.modules if n == "genpos" or n.startswith("genpos.")]:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        spec = importlib.util.spec_from_file_location("bench_kernels_rows", __file__)
        rows = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(rows)
    finally:
        sys.path.remove(src)
    where = os.path.dirname(os.path.abspath(sys.modules["genpos"].__file__))
    if where != os.path.join(src, "genpos"):
        raise SystemExit("bench_kernels: imported genpos from %s, not %s" % (where, src))
    return rows.build_cases(random.Random(SEED))


def best_ms(run, repeat):
    return min(timeit.repeat(run, number=3, repeat=repeat)) * 1e3 / 3


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--against", metavar="PATH",
                    help="also time the rows from the genpos sources under PATH/src")
    args = ap.parse_args()
    if args.against is None:
        print("%-28s %12s" % ("case", "time (ms)"))
        for label, run in build_cases(random.Random(SEED)):
            print("%-28s %12.3f" % (label, best_ms(run, args.repeat)))
        return
    here = cases_from(ROOT)
    there = cases_from(args.against)
    print("%-28s %12s %12s %8s" % ("case", "this (ms)", "against (ms)", "ratio"))
    for (label, mine), (_, theirs) in zip(here, there):
        best = {mine: float("inf"), theirs: float("inf")}
        for r in range(args.repeat):
            # alternate which tree goes first, so neither always runs warm
            for run in (mine, theirs) if r % 2 == 0 else (theirs, mine):
                best[run] = min(best[run], best_ms(run, 1))
        print("%-28s %12.3f %12.3f %8.3f"
              % (label, best[mine], best[theirs], best[mine] / best[theirs]))


if __name__ == "__main__":
    main()
