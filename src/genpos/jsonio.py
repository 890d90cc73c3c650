"""JSON documents for point families, complexes, and solver results.

Rational coordinates travel as JSON integers or as strings such as "3/4" or
"-0.25" (decimal strings are exact). JSON floats are rejected outright:
0.1 as a binary double is not the rational 1/10, and silently accepting it
would poison every exact computation downstream. A decimal string whose
exponent is larger in magnitude than the interpreter's limit on integer
digits (sys.get_int_max_str_digits(), which already caps JSON integer
literals) is refused too: "1e100000000" is 36 bytes of input but a
hundred-million-digit integer. So is one whose numerator or denominator has
more digits than that limit ("1e4300"), since it could not be printed.

Points go straight to their primitive homogeneous integer vectors
(geometry.Point.hom): JSON integers as they are, "p/q" strings as two
integers, every other string through Fraction. A string is "p/q" when it is
ASCII, p is digits after at most one "-" and q is digits; a zero q, or a
part past the limit on digits, is refused with Fraction's message. Each
point list is read in one pass, which checks every point's length and
builds its vector; the name of a point ("sets[i][j]", "points[j]") is
formatted only when it is refused. Output coordinates are printed from that
vector, as an integer or a lowest-terms "p/q" string.

Family document:     {"d": 2, "sets": [[["1/2", 0], [3, 4]], ...]}
Complex document:    {"n_vertices": 5, "facets": [[0, 1, 2], [3], ...]}
Subcomplex family:   {"n_vertices": 5, "members": [[[0, 1], [2]], ...]}
                     (one facet list per member, all on one vertex universe)

A complex document with more vertices than its facets hold entries is
relabelled here, once: onto the vertices its facets use, in order, with
labels that complex_to_doc maps back, so its answers print as they would
unrelabelled.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from itertools import chain
from math import gcd

# the walk alone, bound as closure: the name verdictbench's tracer wraps
from genpos.complexes import _close as closure, bits_of, mask_of
from genpos.errors import DocumentError
from genpos.geometry import Point, PointMultiset, _primitive
from genpos.solver import PointFamily

__all__ = [
    "parse_rational",
    "dump_rational",
    "load_doc",
    "family_from_doc",
    "family_to_doc",
    "points_from_doc",
    "complex_from_doc",
    "complex_to_doc",
    "subcomplexes_from_doc",
    "result_to_doc",
    "report_to_doc",
]


_EXPONENT = re.compile(r"\s*[-+]?[\d_.]+[eE][-+]?(\d[\d_]*)\s*")
_INT = {int}
_LIST = {list}


def _ratio(obj):
    """(numerator, denominator) of one JSON coordinate, the denominator
    positive and the pair not necessarily in lowest terms: the parse path of
    every coordinate. DocumentError names what is wrong with obj."""
    if type(obj) is int:
        return obj, 1
    if not isinstance(obj, str):
        if isinstance(obj, bool):
            raise DocumentError("booleans are not coordinates: %r" % (obj,))
        if isinstance(obj, int):
            return int(obj), 1
        if isinstance(obj, float):
            raise DocumentError(
                "JSON floats are inexact; write %r as a string like \"1/10\"" % (obj,)
            )
        raise DocumentError("expected a rational, got %r" % (obj,))
    num, slash, den = obj.partition("/")
    ratio = slash and obj.isascii() and den.isdigit() and num.removeprefix("-").isdigit()
    if not ratio:
        _refuse_huge_exponent(obj)
    try:
        if ratio:
            num, den = int(num), int(den)  # ValueError past the limit on digits
            if den:
                return num, den
        q = Fraction(obj)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError("cannot parse rational %r: %s" % (obj, exc)) from None
    _refuse_long(obj, q)
    return q.numerator, q.denominator


def _refuse_huge_exponent(text):
    """Raise DocumentError when the decimal string text has an exponent
    larger in magnitude than sys.get_int_max_str_digits() (0: no limit),
    before Fraction builds 10 to that power."""
    exponent = _EXPONENT.fullmatch(text)
    limit = sys.get_int_max_str_digits()
    if exponent is None or not limit:
        return
    try:
        small = int(exponent[1].replace("_", "")) <= limit
    except ValueError:  # more digits than the limit
        small = False
    if not small:
        raise DocumentError(
            "refusing rational %r: its exponent is over %d, the limit on integer digits"
            % (text, limit)
        )


def _refuse_long(text, q):
    """Raise DocumentError when q, parsed from the decimal string text, has a
    numerator or denominator of more than sys.get_int_max_str_digits()
    digits (0: no limit): it could not be printed."""
    limit = sys.get_int_max_str_digits()
    for part in (abs(q.numerator), q.denominator):
        # below 2**(3 * limit) a number has at most limit digits
        if limit and part.bit_length() > 3 * limit and part >= 10**limit:
            raise DocumentError(
                "refusing rational %r: its numerator or denominator has over %d"
                " digits, the limit on integer digits" % (text, limit)
            )


def parse_rational(obj):
    return Fraction(*_ratio(obj))


def dump_rational(q):
    q = Fraction(q)
    return int(q) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


def _dump_point(p):
    """The coordinates of a Point as dump_rational prints them, from p.hom."""
    *nums, den = p.hom
    if den == 1:
        return nums
    out = []
    for v in nums:
        g = gcd(v, den)
        out.append(v // g if g == den else "%d/%d" % (v // g, den // g))
    return out


def load_doc(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError("invalid JSON: %s" % exc) from None
    except ValueError:
        # json raises a plain ValueError for an integer literal longer than
        # the interpreter's limit on integer digits
        raise DocumentError(
            "invalid JSON: integer literal over %d digits" % sys.get_int_max_str_digits()
        ) from None
    if not isinstance(doc, dict):
        raise DocumentError("top-level document must be a JSON object")
    return doc


def _require(doc, key, kind, what):
    if key not in doc:
        raise DocumentError("%s document is missing %r" % (what, key))
    val = doc[key]
    if kind is int and isinstance(val, bool) or not isinstance(val, kind):
        raise DocumentError("%s %r must be a %s" % (what, key, kind.__name__))
    return val


def _points(raw, d, where, *at):
    """The PointMultiset of the point list raw, in one pass: each point a
    list of d coordinates, its homogeneous vector (*coords, 1) when every
    coordinate is a plain int and _primitive of the parsed ratios otherwise.
    An error names the point as where % (*at, j), formatted only then."""
    pts = []
    new = Point.__new__
    for j, coords in enumerate(raw):
        try:
            if not isinstance(coords, list):
                raise DocumentError("point must be a list of coordinates")
            if len(coords) != d:
                raise DocumentError(
                    "point has %d coordinates, dimension is %d" % (len(coords), d)
                )
            if _INT.issuperset(map(type, coords)):
                hom = (*coords, 1)
            else:
                nums, dens = [], []
                for c in coords:
                    num, den = _ratio(c)
                    nums.append(num)
                    dens.append(den)
                hom = _primitive(nums, dens)
        except DocumentError as exc:
            raise DocumentError("%s: %s" % (where % (*at, j), exc)) from None
        p = new(Point)
        p.hom = hom
        pts.append(p)
    return PointMultiset(tuple(pts), d, _validated=True)


def points_from_doc(doc):
    """Parse {"d": ..., "points": [[...], ...]} into a PointMultiset."""
    d = _require(doc, "d", int, "points")
    if d < 1:
        raise DocumentError("dimension must be at least 1")
    return _points(_require(doc, "points", list, "points"), d, "points[%d]")


def family_from_doc(doc):
    d = _require(doc, "d", int, "family")
    if d < 1:
        raise DocumentError("dimension must be at least 1")
    raw = _require(doc, "sets", list, "family")
    if not raw:
        raise DocumentError("family has no sets")
    sets = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, list):
            raise DocumentError("sets[%d] must be a list of points" % i)
        sets.append(_points(entry, d, "sets[%d][%d]", i))
    return PointFamily(d=d, sets=sets)


def family_to_doc(family):
    return {
        "d": family.d,
        "sets": [
            [_dump_point(p) for p in X] for X in family.sets
        ],
    }


def complex_from_doc(doc, max_faces=None, keep=()):
    """(K, (n_vertices, used)): the closure K of the facets (at most max_faces
    faces; None: DEFAULT_FACE_BUDGET) has the document's vertex used[i] as
    its vertex i. used is range(n_vertices) unless that exceeds the facets'
    entries, else their sorted vertices and keep's, checked after them."""
    n = _require(doc, "n_vertices", int, "complex")
    if n < 0:
        raise DocumentError("n_vertices must be nonnegative")
    raw = _require(doc, "facets", list, "complex")
    used = _used(n, [raw], keep)
    K = _closure(raw, n, used, max_faces)
    for v in keep:
        if not 0 <= v < n:
            raise ValueError("vertex %d out of range" % v)
    return K, (n, used)


def _used(n, facet_lists, keep=()):
    """complex_from_doc's used, read before the facets are checked; the
    entries are counted only until they reach n."""
    entries = 0
    for entry in chain.from_iterable(facet_lists):
        if entries >= n:
            break
        if isinstance(entry, list):
            entries += len(entry)
    if entries >= n:
        return range(n)
    used = {v for raw in facet_lists for entry in raw if isinstance(entry, list)
            for v in entry if isinstance(v, int)}
    return sorted(used.union(v for v in keep if 0 <= v < n))


def _closure(raw, n, used, max_faces):
    """The closure of the facets raw on the vertices used, checked at once, else in turn."""
    pos = {v: i for i, v in enumerate(used)} if len(used) < n else None
    mask = mask_of if pos is None else lambda entry: mask_of(map(pos.__getitem__, entry))
    if _LIST.issuperset(map(type, raw)):
        flat = list(chain.from_iterable(raw))
        if _INT.issuperset(map(type, flat)) and (not flat or min(flat) >= 0 and max(flat) < n):
            masks = list(map(mask, raw))
            if sum(map(int.bit_count, masks)) == len(flat):
                return closure(masks, len(used), max_faces)
    for i, entry in enumerate(raw):
        if not isinstance(entry, list) or not all(
                issubclass(k, int) and not issubclass(k, bool) for k in set(map(type, entry))):
            raise DocumentError("facets[%d] must be a list of vertex indices" % i)
        if entry and (min(entry) < 0 or max(entry) >= n):
            raise DocumentError("facets[%d] has a vertex outside 0..%d" % (i, n - 1))
        if mask(entry).bit_count() != len(entry):
            raise DocumentError("facets[%d] repeats a vertex" % i)
    return closure(list(map(mask, raw)), len(used), max_faces)


def complex_to_doc(K, labels=None):
    """K's document, on complex_from_doc's labels (None: K's own), its
    facets by size and then lexicographically: as levelwise_complex
    recorded them, else sorted from K.ext."""
    n, used = labels or (K.n_vertices, range(K.n_vertices))
    if K._facets is None:
        facets = sorted([bits_of(f) for f, e in K.ext.items() if not e])
        facets.sort(key=len)
    else:
        facets = list(map(bits_of, K._facets))
    if len(used) < n:
        facets = [[used[i] for i in f] for f in facets]
    return {"n_vertices": n, "dim": K.dim, "n_faces": len(K.faces), "facets": facets}


def subcomplexes_from_doc(doc, max_faces=None):
    """Parse {"n_vertices": ..., "members": [facet-list, ...]} into a list of
    complexes on one shared vertex universe (the nerve input shape), used
    as complex_from_doc's for all the members' facets."""
    n = _require(doc, "n_vertices", int, "subcomplex family")
    if n < 0:
        raise DocumentError("n_vertices must be nonnegative")
    raw = _require(doc, "members", list, "subcomplex family")
    if not raw:
        raise DocumentError("subcomplex family has no members")
    used = _used(n, [m for m in raw if isinstance(m, list)])
    members = []
    for i, facet_list in enumerate(raw):
        if not isinstance(facet_list, list):
            raise DocumentError("members[%d] must be a list of facets" % i)
        members.append(_closure(facet_list, n, used, max_faces))
    return members


def result_to_doc(result):
    doc = {"status": result.status}
    if result.representatives is not None:
        doc["representatives"] = [
            {"set": i, "point": _dump_point(p)}
            for i, p in result.representatives
        ]
    if result.violation is not None:
        doc["violation"] = _check_to_doc(result.violation)
    return doc


def _check_to_doc(check):
    return {
        "indices": list(check.indices),
        "gp_number": check.gp_number,
        "required": check.required,
        "ok": check.ok,
    }


def report_to_doc(report, include_checks=False):
    doc = {
        "holds": report.holds,
        "mode": report.mode,
        "n_checks": len(report.checks),
    }
    if report.first_violation is not None:
        doc["first_violation"] = _check_to_doc(report.first_violation)
    if include_checks:
        doc["checks"] = [_check_to_doc(c) for c in report.checks]
    return doc
