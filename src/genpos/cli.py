"""Command-line interface.

Subcommands: solve, check, complex, counterexample, witness-search, bounds.
Input documents are JSON (see jsonio); "-" or omission reads stdin. Output is
machine JSON unless --human is given.

Exit codes: 0 positive answer (system found, condition holds, property holds,
or plain report produced); 1 negative answer (no system, condition violated,
property fails, no witness found); 2 solver stopped because the size
condition itself is violated; 3 bad input, bad arguments, exceeded budget, or
any other failure (recursion depth, memory, an unexpected fault).

Run as the installed `genpos` script, `python3 -m genpos` or
`python3 -m genpos.cli`.

Environment: GENPOS_BUDGET_FACES caps faces in any constructed complex,
GENPOS_BUDGET_NODES caps search nodes (each gp_number included, its flat
index build too), the subfamilies check evaluates in either mode and the
vertex sets complex qstar tests.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import random
import sys

from genpos import homology, jsonio, matroids, solver
from genpos import __version__
from genpos.complexes import (
    bits_of,
    completion,
    induced,
    is_q_star,
    join,
    neighborhood,
    nerve,
    skeleton,
    star,
)
from genpos.errors import BudgetExceeded, DocumentError, GenposError
from genpos.geometry import gp_number

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_CONDITION = 2
EXIT_ERROR = 3


class _Parser(argparse.ArgumentParser):
    # argparse uses exit code 2 for usage errors, which this CLI reserves
    # for a violated size condition; remap usage errors to 3
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, "%s: error: %s\n" % (self.prog, message))


def _env_budget(name):
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return None
    try:
        value = int(raw)
    except ValueError:
        raise DocumentError("%s must be an integer, got %r" % (name, raw)) from None
    if value <= 0:
        raise DocumentError("%s must be positive" % name)
    return value


def _read_doc(path):
    if path is None or path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise DocumentError("cannot read %s: %s" % (path, exc)) from None
    return jsonio.load_doc(text)


def _emit(doc, human, render):
    if human:
        print(render(doc))
    else:
        print(json.dumps(doc))


def _int_list(text):
    """A list like 1,3,5-9 as its ranges in input order, unexpanded, so that
    a long range costs nothing to parse."""
    out = []
    for part in text.split(","):
        part = part.strip()
        if "-" in part[1:]:
            lo, hi = part.split("-", 1) if not part.startswith("-") else (part, "")
            if hi == "":
                raise argparse.ArgumentTypeError("bad range %r" % part)
            out.append(range(int(lo), int(hi) + 1))
        else:
            out.append(range(int(part), int(part) + 1))
    if not any(out):
        raise argparse.ArgumentTypeError("empty list")
    return out


@functools.cache
def build_parser():
    """The argument parser, built on first use and shared by later calls:
    building it costs far more than a parse."""
    top = _Parser(prog="genpos", description=__doc__.splitlines()[0])
    top.add_argument("--version", action="version", version="genpos %s" % __version__)
    sub = top.add_subparsers(dest="command", required=True, metavar="COMMAND")
    top.commands = sub.choices  # each subcommand's own parser, by name

    p = sub.add_parser("solve", help="find a general-position representative system")
    p.add_argument("input", nargs="?", default="-", help="family JSON file or - for stdin")
    p.add_argument(
        "--method",
        choices=("auto", "greedy", "exhaustive", "matroid"),
        default="auto",
        help="auto = matroid when m <= d+1, else exhaustive when its most predicate "
        "calls (the sum over i of the product of the first i set sizes) fit the "
        "node budget, else greedy, whose failures go to the exhaustive search "
        "within the node budget unless its certificate already breaks Hall's "
        "condition",
    )
    p.add_argument("--human", action="store_true")

    p = sub.add_parser("check", help="check a size condition on all subfamily unions")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument(
        "--bound",
        choices=("hall", "greedy", "g"),
        default="g",
        help="hall: |I|; greedy: the two-phase threshold; "
        "g: the connectivity-route threshold (default)",
    )
    p.add_argument("--mode", choices=("all-subsets", "sampled"), default="all-subsets")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--all-checks", action="store_true",
                   help="include every check, with each union's exact gp_number, in the output")
    p.add_argument("--human", action="store_true")

    p = sub.add_parser("complex", help="build complexes and apply operations")
    p.add_argument(
        "op",
        choices=(
            "gp", "independence", "uniformity", "closure", "star", "neighborhood",
            "completion", "skeleton", "induced", "join", "nerve", "betti", "qstar",
        ),
    )
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("-v", "--vertex", type=int, help="vertex for star/neighborhood")
    p.add_argument("-j", "--level", type=int, help="completion level")
    p.add_argument("-s", "--skeleton-dim", type=int, help="skeleton dimension")
    p.add_argument("-k", "--up-to", type=int, help="betti: top degree")
    p.add_argument("-q", "--q", type=int, help="qstar: the q to test")
    p.add_argument("--vertices", type=_int_list, help="induced: vertex list like 0,2,5")
    p.add_argument("--with", dest="second", metavar="FILE", help="join: the other complex")
    p.add_argument("--max-card", type=int, help="cap face size during construction")
    p.add_argument("--rank", type=int, help="uniformity: matroid rank override")
    p.add_argument("--human", action="store_true")

    p = sub.add_parser(
        "counterexample",
        help="family meeting the size condition with no representative system",
    )
    p.add_argument("-d", type=int, required=True, help="dimension, at least 2")
    p.add_argument("-m", type=int, required=True, help="number of sets, at least d+2")
    p.add_argument("--seed-param", type=int, default=0)
    p.add_argument("--human", action="store_true")

    p = sub.add_parser(
        "witness-search",
        help="random search for a condition-satisfying family with no system",
    )
    p.add_argument("-d", type=int, default=2)
    p.add_argument("-m", type=int, default=4)
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--coord-range", type=int, default=3, help="coordinates drawn from [-R, R]")
    p.add_argument("--max-set-size", type=int, default=3)
    p.add_argument("--human", action="store_true")

    p = sub.add_parser("bounds", help="tabulate all bounds over d and k ranges")
    p.add_argument("--d", type=_int_list, default=[range(1, 4)], help="list like 1,2,3 or 1-3")
    p.add_argument("--k", type=_int_list, default=[range(1, 6)], help="list or range")
    p.add_argument("--human", action="store_true")

    return top


def parse_args(argv=None):
    """The namespace of build_parser().parse_args(argv), in one pass when
    argv[0] names a subcommand: that subcommand's parser reads the rest of
    argv alone. Anything else (--version, -h, no arguments, an unknown
    command) goes to the top parser as it is.

    A positional after an option (complex star -v 1 FILE) is left over by
    that pass, because the optional input positional was filled with its
    default together with the first one. Only then is argv parsed again,
    intermixed, which is several times slower; what that leaves over is
    refused by the top parser, as parse_args refuses it."""
    top = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    sub = top.commands.get(argv[0]) if argv else None
    if sub is None:
        return top.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:])
    if extras:
        args, extras = sub.parse_known_intermixed_args(argv[1:])
    if extras:
        top.error("unrecognized arguments: %s" % " ".join(extras))
    args.command = argv[0]
    return args


# ---------------------------------------------------------------------------
# subcommand bodies


def _render_solve(doc):
    lines = ["status: %s" % doc["status"]]
    for rep in doc.get("representatives", []):
        lines.append("  set %d -> (%s)" % (rep["set"], ", ".join(map(str, rep["point"]))))
    if "violation" in doc:
        v = doc["violation"]
        lines.append(
            "  violated on sets %s: gp_number %d < required %d"
            % (v["indices"], v["gp_number"], v["required"])
        )
    return "\n".join(lines)


def _cmd_solve(args, node_budget):
    family = jsonio.family_from_doc(_read_doc(args.input))
    method = args.method
    if method == "auto":
        if family.m <= family.d + 1:
            method = "matroid"
        else:
            # the search's most predicate calls: one per pick of the first i
            # sets, for each i (none when a set is empty)
            calls, total = 0, 1
            for X in family.sets:
                total *= len(X)
                calls += total
            budget = solver.DEFAULT_NODE_BUDGET if node_budget is None else node_budget
            method = "exhaustive" if calls <= budget or not total else "greedy"
    if method == "matroid":
        result = solver.solve_matroid_intersection(family)
    elif method == "exhaustive":
        result = solver.solve_exhaustive(family, node_budget=node_budget)
    else:
        result = solver.solve_greedy(family, node_budget=node_budget)
        if args.method == "auto" and result.status != "found":
            v = result.violation
            if v is not None and v.gp_number < len(v.indices):
                # Hall's condition fails on greedy's union: no system exists
                result = solver.SgprResult(status="not_found")
            else:
                # the search settles what greedy cannot; past the node
                # budget, greedy's answer stands
                try:
                    result = solver.solve_exhaustive(family, node_budget=node_budget)
                    method = "exhaustive"
                except BudgetExceeded:
                    pass
    doc = jsonio.result_to_doc(result)
    doc["method"] = method
    _emit(doc, args.human, _render_solve)
    if result.status == "found":
        return EXIT_OK
    if result.status == "condition_violated":
        return EXIT_CONDITION
    return EXIT_NEGATIVE


_BOUND_FORMS = {
    "hall": lambda d: (lambda k: k),
    "greedy": lambda d: (lambda k: solver.greedy_bound(d, k)),
    "g": lambda d: (lambda k: solver.representative_bound(d, k)),
}


def _render_check(doc):
    lines = ["holds" if doc["holds"] else "violated"]
    if "first_violation" in doc:
        v = doc["first_violation"]
        lines.append(
            "  sets %s: gp_number %d < required %d"
            % (v["indices"], v["gp_number"], v["required"])
        )
    lines.append("  checked %d subfamilies (%s)" % (doc["n_checks"], doc["mode"]))
    return "\n".join(lines)


def _cmd_check(args, node_budget):
    family = jsonio.family_from_doc(_read_doc(args.input))
    bound = _BOUND_FORMS[args.bound](family.d)
    rng = random.Random(args.seed) if args.mode == "sampled" else None
    report = solver.check_condition(
        family,
        bound,
        mode=args.mode,
        samples=args.samples,
        rng=rng,
        subset_budget=node_budget,
        exact=args.all_checks,
    )
    doc = jsonio.report_to_doc(report, include_checks=args.all_checks)
    doc["bound"] = args.bound
    _emit(doc, args.human, _render_check)
    return EXIT_OK if report.holds else EXIT_NEGATIVE


def _render_complex(doc):
    if "betti" in doc:
        return "betti (reduced, through degree %d): %s\neuler (partial): %d" % (
            doc["up_to"],
            doc["betti"],
            doc["euler_partial"],
        )
    if "holds" in doc:
        lines = ["q-star: %s (q = %d)" % ("holds" if doc["holds"] else "fails", doc["q"])]
        if doc.get("violating") is not None:
            lines.append("  violating vertex set: %s" % (doc["violating"],))
        return "\n".join(lines)
    return "n_vertices %d, dim %d, %d faces, facets: %s" % (
        doc["n_vertices"],
        doc["dim"],
        doc["n_faces"],
        doc["facets"],
    )


def _cmd_complex(args, face_budget, node_budget):
    op = args.op

    def need(flag, name):
        if flag is None:
            raise DocumentError("complex %s needs %s" % (op, name))
        return flag

    if op in ("gp", "independence", "uniformity"):
        if op == "uniformity" and args.rank is not None and args.rank < 1:
            # rank 0 would make every element a loop
            raise DocumentError("--rank must be at least 1, got %d" % args.rank)
        pts = jsonio.points_from_doc(_read_doc(args.input))
        if op == "gp":
            K = solver.general_position_complex(
                pts, max_card=args.max_card, max_faces=face_budget
            )
        elif op == "independence":
            K = solver.independence_complex(
                pts, max_card=args.max_card, max_faces=face_budget
            )
        else:
            oracle = matroids.AffineMatroid(pts)
            if args.rank is not None:
                # the matroid truncated to rank --rank: its independent sets
                # are those of size at most --rank
                small = matroids.independence_complex(
                    oracle, max_card=args.rank, max_faces=face_budget
                )
                oracle = matroids.ExplicitMatroid(
                    len(pts), [bits_of(f) for f in small.faces]
                )
            K = matroids.uniformity_complex(
                oracle, max_card=args.max_card, max_faces=face_budget
            )
    elif op == "nerve":
        members = jsonio.subcomplexes_from_doc(_read_doc(args.input), max_faces=face_budget)
        K = nerve(members, max_faces=face_budget)
    else:
        K = jsonio.complex_from_doc(_read_doc(args.input), max_faces=face_budget)
        if op == "closure":
            pass
        elif op == "star":
            K = star(K, need(args.vertex, "-v"))
        elif op == "neighborhood":
            K = neighborhood(K, need(args.vertex, "-v"), K.dim)
        elif op == "completion":
            K = completion(K, need(args.level, "-j"), max_card=args.max_card,
                           max_faces=face_budget)
        elif op == "skeleton":
            K = skeleton(K, need(args.skeleton_dim, "-s"))
        elif op == "induced":
            K = induced(K, itertools.chain.from_iterable(need(args.vertices, "--vertices")))
        elif op == "join":
            other = jsonio.complex_from_doc(
                _read_doc(need(args.second, "--with")), max_faces=face_budget
            )
            K = join(K, other, max_faces=face_budget)
        elif op == "betti":
            profile = homology.betti_up_to(
                K, need(args.up_to, "-k"), max_faces=face_budget
            )
            doc = {
                "up_to": profile.up_to,
                "betti": list(profile.betti),
                "euler_partial": profile.euler_partial,
                "f_vector": list(profile.f_vector),
            }
            _emit(doc, args.human, _render_complex)
            return EXIT_OK
        elif op == "qstar":
            res = is_q_star(K, need(args.q, "-q"), node_budget)
            doc = {
                "holds": res.holds,
                "q": res.q,
                "violating": None if res.violating is None else sorted(res.violating),
            }
            _emit(doc, args.human, _render_complex)
            return EXIT_OK if res.holds else EXIT_NEGATIVE
    _emit(jsonio.complex_to_doc(K), args.human, _render_complex)
    return EXIT_OK


def _render_family(doc):
    lines = ["d = %d, %d sets" % (doc["d"], len(doc["sets"]))]
    for i, X in enumerate(doc["sets"]):
        lines.append("  X_%d: %s" % (i + 1, " ".join("(%s)" % ", ".join(map(str, p)) for p in X)))
    return "\n".join(lines)


def _cmd_counterexample(args):
    family = solver.counterexample_family(args.d, args.m, seed_param=args.seed_param)
    _emit(jsonio.family_to_doc(family), args.human, _render_family)
    return EXIT_OK


def _render_no_witness(doc):
    return "no witness in %d trials" % doc["trials"]


def _cmd_witness_search(args, node_budget):
    if args.d < 1 or args.m < 1:
        raise DocumentError("witness-search needs d >= 1 and m >= 1")
    for value, name, least in ((args.trials, "--trials", 1),
                               (args.coord_range, "--coord-range", 0),
                               (args.max_set_size, "--max-set-size", 1)):
        if value < least:
            raise DocumentError("witness-search needs %s >= %d" % (name, least))
    rng = random.Random(args.seed)
    R = args.coord_range
    for _ in range(args.trials):
        sets = []
        for _ in range(args.m):
            size = rng.randint(1, args.max_set_size)
            sets.append(
                [[rng.randint(-R, R) for _ in range(args.d)] for _ in range(size)]
            )
        family = jsonio.family_from_doc({"d": args.d, "sets": sets})
        report = solver.check_condition(
            family, lambda k: k, subset_budget=node_budget, stop_early=True, exact=False
        )
        if not report.holds:
            continue
        result = solver.solve_exhaustive(family, node_budget=node_budget)
        if result.status == "not_found":
            doc = jsonio.family_to_doc(family)
            doc["gp_numbers"] = [gp_number(X, node_budget) for X in family.sets]
            _emit(doc, args.human, _render_family)
            return EXIT_OK
    _emit({"found": False, "trials": args.trials}, args.human, _render_no_witness)
    return EXIT_NEGATIVE


def _render_bounds(doc):
    header = "%4s %4s %10s %12s %12s %12s %4s %12s" % (
        "d", "k", "A", "B", "g_upper", "f_upper", "r", "h_upper"
    )
    lines = [header]
    for row in doc["rows"]:
        lines.append(
            "%4d %4d %10d %12d %12d %12d %4d %12d"
            % (
                row["d"], row["k"], row["A"], row["B"], row["g_upper"],
                row["f_upper"], row["r"], row["h_upper"],
            )
        )
    return "\n".join(lines)


def _cmd_bounds(args):
    table = solver.bound_table(list(itertools.chain.from_iterable(args.d)),
                              list(itertools.chain.from_iterable(args.k)))
    _emit({"rows": list(table.rows)}, args.human, _render_bounds)
    return EXIT_OK


def main(argv=None):
    """Run the subcommand argv names (None: sys.argv[1:]) and return its
    exit code. argv is read by parse_args, in one pass through the
    subcommand's own parser; usage errors exit 3 from there."""
    args = parse_args(argv)
    face_budget = _env_budget("GENPOS_BUDGET_FACES")
    node_budget = _env_budget("GENPOS_BUDGET_NODES")
    if args.command == "solve":
        return _cmd_solve(args, node_budget)
    if args.command == "check":
        return _cmd_check(args, node_budget)
    if args.command == "complex":
        return _cmd_complex(args, face_budget, node_budget)
    if args.command == "counterexample":
        return _cmd_counterexample(args)
    if args.command == "witness-search":
        return _cmd_witness_search(args, node_budget)
    return _cmd_bounds(args)


def entry(argv=None):
    """Run main and exit with its code. Every failure that is not an answer
    (bad input, exceeded budget, recursion depth, memory, an unexpected
    fault) exits 3 with one "error:" line on stderr."""
    try:
        code = main(argv)
    except (GenposError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        code = EXIT_ERROR
    except Exception as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        code = EXIT_ERROR
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
