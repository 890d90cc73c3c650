"""JSON document parsing and serialization."""

import json
import sys
import time
from decimal import Decimal
from enum import IntEnum
from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genpos import (
    BudgetExceeded,
    DimensionMismatch,
    DocumentError,
    Point,
    PointFamily,
    PointMultiset,
    SgprResult,
    SubsetCheck,
    check_condition,
    closure,
    solve_greedy,
)
from genpos import jsonio
from genpos.jsonio import (
    complex_from_doc,
    complex_to_doc,
    dump_rational,
    family_from_doc,
    family_to_doc,
    load_doc,
    parse_rational,
    points_from_doc,
    report_to_doc,
    result_to_doc,
    subcomplexes_from_doc,
)


class TestRationalCodec:
    def test_integers(self):
        assert parse_rational(7) == F(7)
        assert parse_rational(-3) == F(-3)
        assert parse_rational(0) == F(0)

    def test_strings(self):
        assert parse_rational("3/4") == F(3, 4)
        assert parse_rational("-0.25") == F(-1, 4)
        assert parse_rational("12") == F(12)
        assert parse_rational("1e3") == F(1000)
        assert parse_rational("2.5E-1") == F(1, 4)
        assert parse_rational("6/8") == F(3, 4)
        # a negative zero, then signs, spaces, underscores and non-ASCII
        # digits, which only Fraction reads
        for text, want in (("-0/7", 0), ("+1/2", F(1, 2)), (" 1/2", F(1, 2)),
                           ("1_0/3", F(10, 3)), ("\u0663/2", F(3, 2)), ("\uff11/2", F(1, 2))):
            assert parse_rational(text) == want, text

    def test_refuses_exponents_over_the_digit_limit(self):
        t0 = time.perf_counter()
        for bomb in ("1e100000000", "1e-100000000", " -2.5E+1_000_000_000 "):
            with pytest.raises(DocumentError, match="exponent is over"):
                parse_rational(bomb)
        assert time.perf_counter() - t0 < 1
        saved = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(640)
            assert parse_rational("1e639") == 10**639
            assert parse_rational("1e-0_639") == F(1, 10**639)
            for bomb in ("1e641", "1E-641", "0.5e000641"):
                with pytest.raises(DocumentError, match="over 640"):
                    parse_rational(bomb)
            sys.set_int_max_str_digits(0)  # no limit
            assert parse_rational("1e5000") == 10**5000
        finally:
            sys.set_int_max_str_digits(saved)

    def test_refuses_numbers_too_long_to_print(self):
        # at the exponent limit the number itself has one digit too many
        saved = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(640)
            for long in ("1e640", "1e-640", "-1e+640", "12e639", "0.3e-639", "1e-0_640"):
                with pytest.raises(DocumentError, match="denominator has over 640 digits"):
                    parse_rational(long)
            for fits in ("1e639", "-9.9e638", "25e-638", "0.25e-639", "3e-639"):
                q = parse_rational(fits)
                assert len(str(abs(q.numerator))) <= 640 >= len(str(q.denominator))
                assert dump_rational(q) is not None
            sys.set_int_max_str_digits(0)  # no limit
            assert parse_rational("1e-5000") == F(1, 10**5000)
        finally:
            sys.set_int_max_str_digits(saved)

    def test_rejects_floats(self):
        with pytest.raises(DocumentError):
            parse_rational(0.1)

    def test_rejects_booleans(self):
        with pytest.raises(DocumentError):
            parse_rational(True)

    def test_rejects_garbage(self):
        for bad in ("abc", "1/0", None, [1], {}):
            with pytest.raises(DocumentError):
                parse_rational(bad)

    def test_dump(self):
        assert dump_rational(F(3)) == 3
        assert dump_rational(F(3, 4)) == "3/4"
        assert dump_rational(F(-1, 2)) == "-1/2"
        assert dump_rational(5) == 5

    def test_round_trip(self):
        for q in (F(0), F(22, 7), F(-9, 4), F(1000000)):
            assert parse_rational(dump_rational(q)) == q


class TestLoadDoc:
    def test_valid(self):
        assert load_doc('{"d": 1}') == {"d": 1}

    def test_invalid_json(self):
        with pytest.raises(DocumentError):
            load_doc("{nope")

    def test_non_object(self):
        with pytest.raises(DocumentError):
            load_doc("[1, 2]")


class TestPointsDoc:
    def test_parse(self):
        pts = points_from_doc({"d": 2, "points": [[0, 1], ["1/2", "-3"]]})
        assert isinstance(pts, PointMultiset)
        assert pts[1] == Point([F(1, 2), -3])

    def test_errors(self):
        with pytest.raises(DocumentError):
            points_from_doc({"points": [[0]]})
        with pytest.raises(DocumentError):
            points_from_doc({"d": 0, "points": []})
        with pytest.raises(DocumentError):
            points_from_doc({"d": 1, "points": [[1, 2]]})
        with pytest.raises(DocumentError):
            points_from_doc({"d": 1, "points": ["zap"]})
        with pytest.raises(DocumentError):
            points_from_doc({"d": True, "points": []})


class TestFamilyDoc:
    def test_parse(self):
        fam = family_from_doc({"d": 1, "sets": [[[1]], [[2], ["5/2"]]]})
        assert isinstance(fam, PointFamily)
        assert fam.m == 2
        assert fam.sets[1][1] == Point([F(5, 2)])

    def test_round_trip(self):
        doc = {"d": 2, "sets": [[["1/2", 0]], [[3, 4], ["-2/3", "7"]]]}
        fam = family_from_doc(doc)
        out = family_to_doc(fam)
        assert family_from_doc(out).sets == fam.sets
        assert out["sets"][0][0] == ["1/2", 0]

    def test_errors(self):
        with pytest.raises(DocumentError):
            family_from_doc({"d": 1})
        with pytest.raises(DocumentError):
            family_from_doc({"sets": [[[1]]]})
        with pytest.raises(DocumentError):
            family_from_doc({"d": 1, "sets": []})
        with pytest.raises(DocumentError):
            family_from_doc({"d": 1, "sets": ["oops"]})
        with pytest.raises(DocumentError):
            family_from_doc({"d": 1, "sets": [[[0.5]]]})


class TestComplexDoc:
    def test_parse_takes_closure(self):
        K, labels = complex_from_doc({"n_vertices": 3, "facets": [[0, 1], [2]]})
        assert K == closure([(0, 1), (2,)], 3)
        assert labels == (3, range(3))

    def test_serialize(self):
        K = closure([(0, 1), (1, 2), (0, 2)], 3)
        doc = complex_to_doc(K)
        assert doc == {
            "n_vertices": 3,
            "dim": 1,
            "n_faces": 7,
            "facets": [[0, 1], [0, 2], [1, 2]],
        }

    def test_round_trip(self):
        K = closure([(0, 2, 4), (1, 3)], 5)
        assert complex_from_doc(complex_to_doc(K)) == (K, (5, range(5)))

    def test_errors(self):
        with pytest.raises(DocumentError):
            complex_from_doc({"facets": []})
        with pytest.raises(DocumentError):
            complex_from_doc({"n_vertices": -1, "facets": []})
        with pytest.raises(DocumentError):
            complex_from_doc({"n_vertices": 2, "facets": [[0, 5]]})
        with pytest.raises(DocumentError):
            complex_from_doc({"n_vertices": 2, "facets": [[0, 0]]})
        with pytest.raises(DocumentError):
            complex_from_doc({"n_vertices": 2, "facets": [[True]]})
        with pytest.raises(DocumentError):
            complex_from_doc({"n_vertices": 2, "facets": ["x"]})

    @pytest.mark.parametrize("facet, message", [
        # the types are checked before the range, the range before repeats
        ([5, "a"], "must be a list of vertex indices"),
        ([1, 1, True], "must be a list of vertex indices"),
        ([0, 2.0], "must be a list of vertex indices"),
        ([5, 1, 1], "has a vertex outside 0..2"),
        ([0, 3], "has a vertex outside 0..2"),
        ([-1, -1], "has a vertex outside 0..2"),
        ([10 ** 40], "has a vertex outside 0..2"),
        ([2, 0, 2], "repeats a vertex"),
    ])
    def test_error_order(self, facet, message):
        doc = {"n_vertices": 3, "facets": [[0], facet]}
        with pytest.raises(DocumentError, match=r"^facets\[1\] %s$" % message):
            complex_from_doc(doc)

    @pytest.mark.parametrize("n", [3, 10 ** 6])
    def test_the_first_bad_facet_is_named(self, n):
        # the facets are checked all at once; an irregular document is
        # checked facet by facet, so the first bad facet is the one named
        for facets, message in [
            ([[0], [2, 0, 2], "x"], r"facets\[1\] repeats a vertex"),
            ([[0], [1, 1], [5, 10 ** 40]], r"facets\[1\] repeats a vertex"),
            ([[0, 1], [-1], [0, 0]], r"facets\[1\] has a vertex outside"),
            ([[0], [False], [-1]], r"facets\[1\] must be a list of vertex indices"),
            ([[0], 7, [0, 0]], r"facets\[1\] must be a list of vertex indices"),
        ]:
            with pytest.raises(DocumentError, match="^%s" % message):
                complex_from_doc({"n_vertices": n, "facets": facets})

    def test_int_subclass_vertices(self):
        V = IntEnum("V", "a b", start=0)
        K, labels = complex_from_doc({"n_vertices": 2, "facets": [[V.a, 1], []]})
        assert K == closure([(0, 1)], 2)
        assert labels == (2, range(2))

    def test_budget_forwarded(self):
        doc = {"n_vertices": 12, "facets": [list(range(12))]}
        with pytest.raises(BudgetExceeded):
            complex_from_doc(doc, max_faces=100)

    def test_few_entries_on_many_vertices_are_relabelled(self):
        # four entries on 10^9 vertices: K is built on the three in use, in
        # order, and printed on the document's numbering
        top = 10 ** 9 - 1
        doc = {"n_vertices": 10 ** 9, "facets": [[top, 5], [7], [5]]}
        K, labels = complex_from_doc(doc)
        assert K == closure([(0, 2), (1,)], 3)
        assert labels == (10 ** 9, [5, 7, top])
        assert complex_to_doc(K, labels) == {
            "n_vertices": 10 ** 9, "dim": 1, "n_faces": 5, "facets": [[7], [5, top]]}
        # as many entries as vertices: read as it is
        K, labels = complex_from_doc({"n_vertices": 4, "facets": [[0, 3], [3, 0]]})
        assert K == closure([(0, 3)], 4) and labels == (4, range(4))

    def test_kept_vertices_join_the_labels(self):
        doc = {"n_vertices": 10 ** 9, "facets": [[10, 20]]}
        K, labels = complex_from_doc(doc, keep=(15,))
        assert labels == (10 ** 9, [10, 15, 20])
        assert K == closure([(0, 2)], 3)
        # a kept vertex already in use, and one of a document read as it is
        assert complex_from_doc(doc, keep=(10,))[1] == (10 ** 9, [10, 20])
        assert complex_from_doc({"n_vertices": 2, "facets": [[0, 1]]}, keep=(1,))[1] == (
            2, range(2))

    @pytest.mark.parametrize("n", [3, 10 ** 9])
    def test_kept_vertices_are_range_checked_after_the_facets(self, n):
        with pytest.raises(ValueError, match="^vertex %d out of range$" % n):
            complex_from_doc({"n_vertices": n, "facets": [[0, 1]]}, keep=(n,))
        with pytest.raises(ValueError, match="^vertex -1 out of range$"):
            complex_from_doc({"n_vertices": n, "facets": [[0, 1]]}, keep=(-1,))
        with pytest.raises(DocumentError, match=r"^facets\[0\] repeats a vertex$"):
            complex_from_doc({"n_vertices": n, "facets": [[1, 1]]}, keep=(n,))
        with pytest.raises(BudgetExceeded):
            complex_from_doc({"n_vertices": n, "facets": [[0, 1]]}, max_faces=3, keep=(n,))

    @pytest.mark.parametrize("facet, message", [
        ([5, "a"], "must be a list of vertex indices"),
        ([1, 1, True], "must be a list of vertex indices"),
        ([10 ** 6, 1, 1], "has a vertex outside 0..999999"),
        ([-1, -1], "has a vertex outside 0..999999"),
        ([10 ** 40], "has a vertex outside 0..999999"),
        ([2, 0, 2], "repeats a vertex"),
    ])
    def test_error_order_when_relabelled(self, facet, message):
        doc = {"n_vertices": 10 ** 6, "facets": [[0], facet]}
        with pytest.raises(DocumentError, match=r"^facets\[1\] %s$" % message):
            complex_from_doc(doc)


class TestSubcomplexesDoc:
    def test_parse(self):
        doc = {"n_vertices": 4, "members": [[[0, 1]], [[1, 2], [3]]]}
        members = subcomplexes_from_doc(doc)
        assert len(members) == 2
        assert members[0] == closure([(0, 1)], 4)
        assert members[1] == closure([(1, 2), (3,)], 4)

    def test_members_share_one_label_list(self):
        doc = {"n_vertices": 10 ** 9, "members": [[[10, 20]], [[20, 10 ** 9 - 1]], [[10]]]}
        assert subcomplexes_from_doc(doc) == [
            closure([(0, 1)], 3), closure([(1, 2)], 3), closure([(0,)], 3)]

    def test_errors(self):
        with pytest.raises(DocumentError):
            subcomplexes_from_doc({"n_vertices": 3, "members": []})
        with pytest.raises(DocumentError):
            subcomplexes_from_doc({"n_vertices": 3, "members": ["bad"]})


class TestResultAndReportDocs:
    def test_found(self):
        res = SgprResult(
            status="found",
            representatives=((0, Point([F(1, 2)])), (1, Point([3]))),
        )
        doc = result_to_doc(res)
        assert doc["status"] == "found"
        assert doc["representatives"] == [
            {"set": 0, "point": ["1/2"]},
            {"set": 1, "point": [3]},
        ]

    def test_not_found(self):
        assert result_to_doc(SgprResult(status="not_found")) == {"status": "not_found"}

    def test_violation(self):
        fam = PointFamily(d=1, sets=[[[0]], [[0]]])
        res = solve_greedy(fam)
        doc = result_to_doc(res)
        assert doc["status"] == "condition_violated"
        assert doc["violation"]["indices"] == [0, 1]
        assert doc["violation"]["ok"] is False

    def test_report(self):
        fam = PointFamily(d=1, sets=[[[0]], [[1]]])
        report = check_condition(fam, bound=lambda k: k)
        doc = report_to_doc(report)
        assert doc == {"holds": True, "mode": "all-subsets", "n_checks": 3}
        full = report_to_doc(report, include_checks=True)
        assert len(full["checks"]) == 3
        assert full["checks"][0] == {
            "indices": [0],
            "gp_number": 1,
            "required": 1,
            "ok": True,
        }

    def test_report_with_violation(self):
        fam = PointFamily(d=1, sets=[[[0]], [[0]]])
        report = check_condition(fam, bound=lambda k: k)
        doc = report_to_doc(report)
        assert doc["holds"] is False
        assert doc["first_violation"]["indices"] == [0, 1]


# -- integer-first points against the Fraction reference ---------------------


def reference_parse(obj):
    """A coordinate as parse_rational once read it: one Fraction each."""
    if isinstance(obj, bool):
        raise DocumentError("booleans are not coordinates: %r" % (obj,))
    if isinstance(obj, int):
        return F(obj)
    if isinstance(obj, float):
        raise DocumentError(
            "JSON floats are inexact; write %r as a string like \"1/10\"" % (obj,)
        )
    if isinstance(obj, str):
        try:
            return F(obj)
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError("cannot parse rational %r: %s" % (obj, exc)) from None
    raise DocumentError("expected a rational, got %r" % (obj,))


def reference_hom(coords):
    """The primitive homogeneous vector of Fraction coordinates."""
    den = lcm(*(c.denominator for c in coords))
    vec = [c.numerator * (den // c.denominator) for c in coords] + [den]
    g = gcd(*vec)
    return tuple(v // g for v in vec)


def assert_matches_reference(p, coords):
    """p against the point with the Fraction coordinates coords: hom, coords,
    d, repr, iteration, equality, hash, and the printed coordinates."""
    coords = tuple(coords)
    hom = reference_hom(coords)
    assert p.hom == hom and all(type(v) is int for v in p.hom)
    assert p.coords == coords and all(type(c) is F for c in p.coords)
    assert p.d == len(coords)
    assert repr(p) == "Point(%s)" % ", ".join(str(c) for c in coords)
    assert list(p) == list(coords)
    assert p == Point(coords) and hash(p) == hash(hom)
    assert p != Point(coords + (F(0),))
    printed = json.dumps([[[dump_rational(c) for c in coords]]])
    assert json.dumps(family_to_doc(PointFamily(d=p.d, sets=[[p]]))["sets"]) == printed
    found = result_to_doc(SgprResult(status="found", representatives=((0, p),)))
    assert json.dumps([[found["representatives"][0]["point"]]]) == printed


# "p/q" strings the fast path splits into two integers: not in lowest terms,
# negative, zero numerators, and numerators near the digit limit
FAST = st.one_of(
    st.builds("{}/{}".format, st.integers(-10**15, 10**15), st.integers(1, 10**15)),
    st.builds("{}/{}".format, st.sampled_from([0, -0]), st.integers(1, 99)),
    st.builds("{}/{}".format, st.integers(1, 9).map(lambda k: int("7" * 4000) * k),
              st.integers(1, 10**6)),
)
# everything else a document may hold, through Fraction or refused
FALLBACK = st.one_of(
    st.builds("+{}/{}".format, st.integers(0, 10**6), st.integers(1, 10**6)),
    st.builds("{}{}{}".format, st.sampled_from([" ", "\t", "\n "]), FAST,
              st.sampled_from(["", " "])),
    st.builds(lambda n, q: "{:_}/{:_}".format(n, q), st.integers(-10**9, 10**9),
              st.integers(1, 10**9)),
    st.builds("{}/-{}".format, st.integers(-99, 99), st.integers(1, 99)),
    st.builds("{}/0".format, st.integers(-99, 99)),
    st.decimals(min_value=-10**6, max_value=10**6, allow_nan=False,
                allow_infinity=False).map(str),
    st.builds("{}{}{}".format, st.integers(-99, 99), st.sampled_from("eE"),
              st.integers(-40, 40)),
    st.text(max_size=6),
    st.booleans(),
    st.floats(allow_nan=False),
    st.none(),
)
COORD = st.one_of(st.integers(), st.integers(-9, 9), FAST, FALLBACK)


class TestIntegerFirstPoints:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(COORD, min_size=1, max_size=4))
    def test_documents_match_the_fraction_reference(self, raw):
        try:
            coords = [reference_parse(c) for c in raw]
        except DocumentError as exc:
            with pytest.raises(DocumentError) as got:
                points_from_doc({"d": len(raw), "points": [raw]})
            assert str(got.value) == "points[0]: %s" % exc
            return
        (p,) = points_from_doc({"d": len(raw), "points": [raw]})
        assert_matches_reference(p, coords)
        assert [parse_rational(c) for c in raw] == coords

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(
        st.integers(), st.fractions(), st.booleans(),
        st.decimals(allow_nan=False, allow_infinity=False, places=6),
        st.floats(allow_nan=False, allow_infinity=False),
        FAST,
    ), min_size=1, max_size=4))
    def test_constructor_matches_the_fraction_reference(self, coords):
        assert_matches_reference(Point(coords), [F(c) for c in coords])

    @given(st.lists(st.tuples(st.integers(), st.integers(1, 10**9)), min_size=1, max_size=4))
    def test_from_ratios_matches_the_fraction_reference(self, ratios):
        p = Point.from_ratios([n for n, _ in ratios], [q for _, q in ratios])
        assert_matches_reference(p, [F(n, q) for n, q in ratios])

    def test_from_ratios_refuses_bad_denominators(self):
        for dens in ([0], [-2], [3, 0]):
            with pytest.raises(ValueError):
                Point.from_ratios([1] * len(dens), dens)
        with pytest.raises(ValueError, match="at least one coordinate"):
            Point.from_ratios([], [])

    def test_integers_and_ratios_skip_fraction(self, monkeypatch):
        calls = []
        real = jsonio.Fraction
        monkeypatch.setattr(jsonio, "Fraction", lambda *a: calls.append(a) or real(*a))
        doc = {"d": 2, "sets": [[[3, "-4/6"], ["0/5", -7]], [["10/4", "9/3"]]]}
        fam = family_from_doc(doc)
        assert family_to_doc(fam)["sets"] == [[[3, "-2/3"], [0, -7]], [["5/2", 3]]]
        assert calls == []
        family_from_doc({"d": 1, "sets": [[["0.5"]]]})
        assert calls == [("0.5",)]

    @pytest.mark.parametrize("bad", [
        "1" * 5000 + "/3", "3/" + "1" * 5000, "-" + "2" * 5000 + "/7", "1" * 5000,
        "1" * 5000 + ".5", "1/0", "0/0", "3/-4", "abc", "", " ", "1/2/3", "1_/2",
        "\u0661/\u0662", True, False, 0.5, float("inf"), None, [1], {"a": 1},
        "+1/2", " 1/2", "1_0/3", "\u0663/2", "\uff11/2", "\u00b2/3", "-0/7", "1/00",
        "1" * 4301 + "/3", "3/" + "1" * 4301,
    ])
    def test_rejections_match_the_fraction_reference(self, bad):
        try:
            want = reference_parse(bad)
        except DocumentError as exc:
            with pytest.raises(DocumentError) as got:
                family_from_doc({"d": 1, "sets": [[[bad]]]})
            assert str(got.value) == "sets[0][0]: %s" % exc
        else:
            assert parse_rational(bad) == want


# -- whole documents in one pass against the per-coordinate reference ---------


def reference_accepts(obj):
    try:
        reference_parse(obj)
    except DocumentError:
        return False
    return True


GOOD = COORD.filter(reference_accepts)
# a list of d coordinates with one the reference refuses, at any position
BAD_COORD = st.one_of(
    st.booleans(), st.floats(allow_nan=False), st.none(), st.just([1]),
    st.builds("{}/0".format, st.integers(-99, 99)), st.sampled_from(["abc", "", "1/2/3"]),
)


@st.composite
def point_lists(draw, d, n):
    """n points of d coordinates, all plain ints or mixed kinds."""
    ints = st.lists(st.integers(-9, 9), min_size=d, max_size=d)
    mixed = st.lists(GOOD, min_size=d, max_size=d)
    return draw(st.lists(st.one_of(ints, mixed), min_size=n, max_size=n))


@st.composite
def bad_points(draw, d):
    """A point the parse refuses, and the message that names why."""
    kind = draw(st.sampled_from(["coordinate", "length", "type"]))
    if kind == "length":
        coords = draw(st.lists(st.integers(-9, 9), max_size=4).filter(lambda c: len(c) != d))
        return coords, "point has %d coordinates, dimension is %d" % (len(coords), d)
    if kind == "type":
        return draw(st.sampled_from([7, "1/2", None, {"x": 1}])), \
            "point must be a list of coordinates"
    coords = draw(st.lists(COORD, min_size=d - 1, max_size=d - 1))
    coords.insert(draw(st.integers(0, d - 1)), draw(BAD_COORD))
    for c in coords:  # the first coordinate the reference refuses names it
        try:
            reference_parse(c)
        except DocumentError as exc:
            return coords, str(exc)


@st.composite
def families(draw):
    d = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(0, 4), min_size=1, max_size=4))
    return d, [draw(point_lists(d, n)) for n in sizes]


def assert_reference_points(X, d, raw):
    assert isinstance(X, PointMultiset) and X.d == d and type(X.points) is tuple
    assert [p.hom for p in X] == [reference_hom([reference_parse(c) for c in coords])
                                  for coords in raw]
    assert all(type(p) is Point and all(type(v) is int for v in p.hom) for p in X)


class TestWholeDocuments:
    @settings(max_examples=150, deadline=None)
    @given(families(), st.data())
    def test_families_match_the_reference(self, family, data):
        d, sets = family
        fam = family_from_doc({"d": d, "sets": sets})
        assert fam.d == d and fam.m == len(sets)
        for X, raw in zip(fam.sets, sets):
            assert_reference_points(X, d, raw)
        # one bad point at (i, j), with good points on either side of it
        i = data.draw(st.integers(0, len(sets) - 1))
        j = data.draw(st.integers(0, len(sets[i])))
        bad, message = data.draw(bad_points(d))
        sets[i].insert(j, bad)
        with pytest.raises(DocumentError) as got:
            family_from_doc({"d": d, "sets": sets})
        assert str(got.value) == "sets[%d][%d]: %s" % (i, j, message)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda d: st.tuples(
        st.just(d), point_lists(d, 6), bad_points(d), st.integers(0, 6))))
    def test_point_lists_match_the_reference(self, drawn):
        d, raw, (bad, message), j = drawn
        assert_reference_points(points_from_doc({"d": d, "points": raw}), d, raw)
        raw.insert(j, bad)
        with pytest.raises(DocumentError) as got:
            points_from_doc({"d": d, "points": raw})
        assert str(got.value) == "points[%d]: %s" % (j, message)

    def test_the_public_constructor_still_checks_dimensions(self):
        with pytest.raises(DimensionMismatch, match="mixed point dimensions"):
            PointMultiset([Point([1]), Point([1, 2])])
        with pytest.raises(DimensionMismatch, match="mixed point dimensions"):
            PointMultiset([[1, 2], [3]], d=2)
        with pytest.raises(DimensionMismatch, match="declared d=3"):
            PointMultiset([Point([1, 2])], d=3)
        with pytest.raises(ValueError, match="explicit dimension"):
            PointMultiset([])
        X = PointMultiset([[1, 2], Point(["1/2", 0])])
        assert type(X.points) is tuple and X.d == 2 and X[1] == Point([F(1, 2), 0])
