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
index build too), the subfamilies check evaluates in either mode, the
vertex sets complex qstar tests and the rows of the bounds table.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import random
import sys
from bisect import bisect_left

from genpos import homology, jsonio, matroids, solver
from genpos import __version__
from genpos.complexes import (
    closure,
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
    a long range costs nothing to parse. A range whose end is below its
    start is refused."""
    out = []
    for part in text.split(","):
        part = part.strip()
        if "-" in part[1:]:
            lo, hi = part.split("-", 1) if not part.startswith("-") else (part, "")
            if hi == "" or int(hi) < int(lo):
                raise argparse.ArgumentTypeError("bad range %r" % part)
            out.append(range(int(lo), int(hi) + 1))
        else:
            out.append(range(int(part), int(part) + 1))
    return out


_COMMANDS = {  # each subcommand's help line, in the order -h lists them
    "solve": "find a general-position representative system",
    "check": "check a size condition on all subfamily unions",
    "complex": "build complexes and apply operations",
    "counterexample": "family meeting the size condition with no representative system",
    "witness-search": "random search for a condition-satisfying family with no system",
    "bounds": "tabulate all bounds over d and k ranges",
}


def _arguments(name, p):
    """Add the arguments of subcommand name to its parser p; return p."""
    if name == "solve":
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
    elif name == "check":
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
                       help="include every check, with each union's exact gp_number, "
                       "in the output")
    elif name == "complex":
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
        p.add_argument("--rank", type=int, metavar="R",
                       help="uniformity: truncate the matroid to rank R")
    elif name == "counterexample":
        p.add_argument("-d", type=int, required=True, help="dimension, at least 2")
        p.add_argument("-m", type=int, required=True, help="number of sets, at least d+2")
        p.add_argument("--seed-param", type=int, default=0)
    elif name == "witness-search":
        p.add_argument("-d", type=int, default=2)
        p.add_argument("-m", type=int, default=4)
        p.add_argument("--trials", type=int, default=500)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--coord-range", type=int, default=3,
                       help="coordinates drawn from [-R, R]")
        p.add_argument("--max-set-size", type=int, default=3)
    else:
        p.add_argument("--d", type=_int_list, default=[range(1, 4)],
                       help="list like 1,2,3 or 1-3")
        p.add_argument("--k", type=_int_list, default=[range(1, 6)], help="list or range")
    p.add_argument("--human", action="store_true")
    return p


@functools.cache
def _command_parser(name):
    """The parser of subcommand name alone, built on first use: the same
    parser as build_parser().commands[name], without building the others."""
    return _arguments(name, _Parser(prog="genpos %s" % name))


@functools.cache
def build_parser():
    """The whole argument parser, every subcommand's included, built on
    first use and shared by later calls. A parse of argv that names a
    subcommand needs only that one's parser (_command_parser)."""
    top = _Parser(prog="genpos", description=__doc__.splitlines()[0])
    top.add_argument("--version", action="version", version="genpos %s" % __version__)
    sub = top.add_subparsers(dest="command", required=True, metavar="COMMAND")
    top.commands = sub.choices  # each subcommand's own parser, by name
    for name, line in _COMMANDS.items():
        _arguments(name, sub.add_parser(name, help=line))
    return top


def parse_args(argv=None):
    """A fresh copy of the namespace build_parser().parse_args(argv) gives
    (None: sys.argv[1:]), parsed once per distinct argv (_parse). The copy
    shares its values, such as --vertices' list, with the memo."""
    argv = sys.argv[1:] if argv is None else argv
    return argparse.Namespace(**vars(_parse(tuple(argv))))


@functools.cache
def _parse(argv):
    """The namespace for the argv tuple: the rest goes to the parser of the
    subcommand argv[0] names, anything else (--version, -h, no arguments,
    an unknown command) to the top parser. A usage error, -h or --version
    exits here, so it is not memoised and prints its message every time.

    The parser leaves over a positional after an option (complex betti --up
    1 FILE); only then is argv parsed again, intermixed. A single
    intermixed pass would report a bad option value before a bad positional
    (complex nope -k x). What is left over is refused by the top parser.
    Only the parsers a parse reaches are built."""
    if not argv or argv[0] not in _COMMANDS:
        return build_parser().parse_args(argv)
    sub = _command_parser(argv[0])
    args, extras = sub.parse_known_args(argv[1:])
    if extras:
        args, extras = sub.parse_known_intermixed_args(argv[1:])
    if extras:
        build_parser().error("unrecognized arguments: %s" % " ".join(extras))
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

    labels = None
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
            K = matroids.uniformity_complex(
                matroids.AffineMatroid(pts, rank=args.rank),
                max_card=args.max_card, max_faces=face_budget,
            )
    elif op == "nerve":
        members = jsonio.subcomplexes_from_doc(_read_doc(args.input), max_faces=face_budget)
        K = nerve(members, max_faces=face_budget)
    else:
        # an absent vertex v keeps a label, as a vertex of no face
        v = args.vertex if op in ("star", "neighborhood") else None
        K, labels = jsonio.complex_from_doc(_read_doc(args.input), max_faces=face_budget,
                                            keep=() if v is None else (v,))
        n, used = labels
        if op == "star":
            K = star(K, bisect_left(used, need(v, "-v")))
        elif op == "neighborhood":
            K = neighborhood(K, bisect_left(used, need(v, "-v")), K.dim)
        elif op == "completion":
            if need(args.level, "-j") < 0 and K.dim < 0:  # it fills every vertex
                K, labels = closure(K.faces, n), (n, range(n))
            K = completion(K, args.level, max_card=args.max_card, max_faces=face_budget)
        elif op == "skeleton":
            K = skeleton(K, need(args.skeleton_dim, "-s"))
        elif op == "induced":
            # each range is read by its ends: refused at its first vertex
            # outside 0..n-1, else ORing in the labels inside it
            wm = 0
            for r in need(args.vertices, "--vertices"):
                if r.start < 0 or r.stop > n:
                    raise ValueError("vertex %d out of range"
                                     % (r.start if r.start < 0 else max(r.start, n)))
                wm |= (1 << bisect_left(used, r.stop)) - (1 << bisect_left(used, r.start))
            K = induced(K, wm)
        elif op == "join":
            other, (n2, used2) = jsonio.complex_from_doc(_read_doc(need(args.second, "--with")),
                                                         max_faces=face_budget)
            K = join(K, other, max_faces=face_budget)
            labels = n + n2, [*used, *(n + w for w in used2)]
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
                "violating": None if res.violating is None else [used[i] for i in res.violating],
            }
            _emit(doc, args.human, _render_complex)
            return EXIT_OK if res.holds else EXIT_NEGATIVE
    _emit(jsonio.complex_to_doc(K, labels), args.human, _render_complex)
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


def _cmd_bounds(args, node_budget):
    # one row per (d, k): counted off the ranges before any is expanded
    rows = sum(r.stop - r.start for r in args.d) * sum(r.stop - r.start for r in args.k)
    budget = solver.DEFAULT_NODE_BUDGET if node_budget is None else node_budget
    if rows > budget:
        raise BudgetExceeded("bounds table would have %d rows, over the budget of %d nodes"
                             % (rows, budget))
    ds, ks = [d for r in args.d for d in r], [k for r in args.k for k in r]
    limit = sys.get_int_max_str_digits()  # 0: no limit
    if limit and min(ds + ks) > 0:
        for d, k in itertools.product(ds, ks):
            if _log10_h_upper(d, k) > limit + 1:  # refused before it is computed
                raise BudgetExceeded(_TOO_LONG % (d, k, limit))
    table = solver.bound_table(ds, ks)
    least = 10 ** limit  # the least integer of more than limit digits
    for row in table.rows:
        if limit and max(row.values()) >= least:
            raise BudgetExceeded(_TOO_LONG % (row["d"], row["k"], limit))
    _emit({"rows": list(table.rows)}, args.human, _render_bounds)
    return EXIT_OK


_TOO_LONG = "bounds entry for d=%d, k=%d has over %d digits"


def _log10_h_upper(d, k):
    """A lower bound on log10 of h_upper = d C(2k+2, d) + 1: no entry of the
    bounds row (d, k) exceeds d + 1 or k max(h_upper, k). C(n, r) >= (n - r
    + 1)^r / r! with r the smaller side, r! from math.lgamma, and >= 2^r."""
    r = min(d, 2 * k + 2 - d)
    if r < 0 or r >> 60:
        return -math.inf if r < 0 else math.inf
    return math.log10(d) + r * math.log10(2 * k + 3 - r) - math.lgamma(r + 1) / math.log(10)


def main(argv=None):
    """Run the subcommand argv names (None: sys.argv[1:]) and return its
    exit code. argv is read by parse_args, by the subcommand's own parser
    and memoised per distinct argv; usage errors exit 3 there."""
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
    return _cmd_bounds(args, node_budget)


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
