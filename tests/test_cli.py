"""Command-line interface, exercised in process through cli.main and
cli.entry, and as a process through python -m."""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time

import pytest

import genpos
from genpos import (
    Point,
    cli,
    general_position_complex,
    greedy_bound,
    independence_complex,
    solve_exhaustive,
    uniform_connectivity_bound,
)
from genpos.geometry import FlatIndex
from genpos.jsonio import complex_to_doc, family_from_doc


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    return code, json.loads(out)


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


TRIANGLE_BOUNDARY = {"n_vertices": 3, "facets": [[0, 1], [1, 2], [0, 2]]}
FIVE_POINTS = {
    "d": 2,
    "points": [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1]],
}


class TestBounds:
    def test_values(self, capsys):
        code, doc = run_json(capsys, ["bounds", "--d", "2", "--k", "4"])
        assert code == 0
        (row,) = doc["rows"]
        assert row == {
            "d": 2, "k": 4, "A": 7, "B": 25, "g_upper": 91, "f_upper": 31,
            "r": 3, "h_upper": uniform_connectivity_bound(3, 4),
        }

    def test_ranges(self, capsys):
        code, doc = run_json(capsys, ["bounds", "--d", "1-2", "--k", "1,3"])
        assert code == 0
        assert [(r["d"], r["k"]) for r in doc["rows"]] == [(1, 1), (1, 3), (2, 1), (2, 3)]

    def test_human_table(self, capsys):
        code, out = run(capsys, ["bounds", "--d", "2", "--k", "4", "--human"])
        assert code == 0
        assert "g_upper" in out and " 25 " in out

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("genpos ")

    def test_missing_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 3


class TestSolve:
    def test_auto_small_family_uses_matroid(self, capsys, tmp_path):
        path = write_doc(tmp_path, "fam.json", {"d": 1, "sets": [[[5]], [[5], [7]]]})
        code, doc = run_json(capsys, ["solve", path])
        assert code == 0
        assert doc["status"] == "found"
        assert doc["method"] == "matroid"
        assert doc["representatives"] == [
            {"set": 0, "point": [5]},
            {"set": 1, "point": [7]},
        ]

    def test_explicit_exhaustive(self, capsys, tmp_path):
        path = write_doc(tmp_path, "fam.json", {"d": 1, "sets": [[[5]], [[5], [7]]]})
        code, doc = run_json(capsys, ["solve", path, "--method", "exhaustive"])
        assert code == 0 and doc["method"] == "exhaustive"

    def test_greedy_condition_violated_exits_two(self, capsys, tmp_path):
        path = write_doc(tmp_path, "fam.json", {"d": 1, "sets": [[[0]], [[0]]]})
        code, doc = run_json(capsys, ["solve", path, "--method", "greedy"])
        assert code == 2
        assert doc["status"] == "condition_violated"
        assert doc["violation"]["indices"] == [0, 1]
        assert doc["violation"]["required"] == greedy_bound(1, 2)

    def test_auto_rescues_what_greedy_cannot(self, capsys, tmp_path, monkeypatch):
        # three single points: at a budget of 2 auto runs greedy, whose
        # hypothesis fails; the search behind it finds the system, while
        # --method greedy stays greedy
        monkeypatch.setenv("GENPOS_BUDGET_NODES", "2")
        path = write_doc(tmp_path, "fam.json", {"d": 1, "sets": [[[0]], [[1]], [[2]]]})
        code, doc = run_json(capsys, ["solve", path])
        assert code == 0 and doc["status"] == "found" and doc["method"] == "exhaustive"
        assert [r["point"] for r in doc["representatives"]] == [[0], [1], [2]]
        code, doc = run_json(capsys, ["solve", path, "--method", "greedy"])
        assert code == 2 and doc["status"] == "condition_violated"

    def test_reorder_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "-", "--exhaustive-reorder"])
        assert exc.value.code == 3
        assert "unrecognized arguments: --exhaustive-reorder" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--method", "exhaustive"], ["--method", "auto"]])
    def test_search_past_the_product_of_set_sizes(self, capsys, tmp_path, argv):
        # 64 points of a parabola in 8 sets of 8: 8^8 picks, past the
        # default node budget, and one predicate call per set finds a system;
        # auto gets there after greedy's hypothesis fails
        pts = [[t, t * t] for t in range(64)]
        sets = [pts[i:i + 8] for i in range(0, 64, 8)]
        path = write_doc(tmp_path, "fam.json", {"d": 2, "sets": sets})
        code, doc = run_json(capsys, ["solve", path, *argv])
        assert code == 0 and doc["status"] == "found" and doc["method"] == "exhaustive"
        assert [r["point"] for r in doc["representatives"]] == [X[0] for X in sets]

    def test_auto_answers_no_through_the_search(self, capsys, tmp_path):
        # {0}, {0} and eight copies of {1..9} in d = 1: past 10^7 picks, so
        # auto runs greedy, whose hypothesis fails on all ten sets, a union
        # of ten points that meets Hall's condition; the search proves in
        # two predicate calls that no system exists
        big = [[t] for t in range(1, 10)]
        path = write_doc(tmp_path, "fam.json", {"d": 1, "sets": [[[0]], [[0]]] + [big] * 8})
        code, out = run(capsys, ["solve", path])
        assert code == 1
        assert out == '{"status": "not_found", "method": "exhaustive"}\n'

    @pytest.mark.parametrize("doc", [
        # greedy's certificate: {0}, {0}, a union of one point
        {"d": 1, "sets": [[[0]], [[0]]] + [[[t] for t in range(10)]] * 8},
        # ten copies of {1..9}: nine points for ten sets
        {"d": 1, "sets": [[[t] for t in range(1, 10)]] * 10},
    ], ids=["two-singletons", "ten-copies"])
    def test_auto_stops_on_a_hall_violation(self, capsys, tmp_path, doc):
        # greedy's union holds fewer points in general position than it has
        # sets, so no system exists and the search never runs
        path = write_doc(tmp_path, "fam.json", doc)
        code, out = run(capsys, ["solve", path])
        assert code == 1
        assert out == '{"status": "not_found", "method": "greedy"}\n'
        # --method greedy still prints the certificate
        code, doc = run_json(capsys, ["solve", path, "--method", "greedy"])
        assert code == 2 and doc["status"] == "condition_violated"
        assert doc["violation"]["gp_number"] < len(doc["violation"]["indices"])

    def test_not_found_exits_one(self, capsys, tmp_path):
        path = write_doc(tmp_path, "fam.json", {"d": 2, "sets": [[[0, 0]], [[0, 0]]]})
        code, doc = run_json(capsys, ["solve", path, "--method", "exhaustive"])
        assert code == 1 and doc["status"] == "not_found"

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(
            sys, "stdin", io.StringIO(json.dumps({"d": 1, "sets": [[[1]], [[2]]]}))
        )
        code, doc = run_json(capsys, ["solve", "-"])
        assert code == 0 and doc["status"] == "found"

    def test_human_output(self, capsys, tmp_path):
        path = write_doc(tmp_path, "fam.json", {"d": 1, "sets": [[[1]], [[2]]]})
        code, out = run(capsys, ["solve", path, "--human"])
        assert code == 0 and out.startswith("status: found")

    def test_matroid_rejects_large_family(self, capsys, tmp_path):
        path = write_doc(
            tmp_path, "fam.json", {"d": 1, "sets": [[[0]], [[1]], [[2]]]}
        )
        with pytest.raises(SystemExit) as exc:
            cli.entry(["solve", path, "--method", "matroid"])
        assert exc.value.code == 3
        assert "error:" in capsys.readouterr().err

    def test_bad_document(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(SystemExit) as exc:
            cli.entry(["solve", str(path)])
        assert exc.value.code == 3

    def test_missing_file(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.entry(["solve", "/no/such/file.json"])
        assert exc.value.code == 3


class TestCheck:
    def test_holds(self, capsys, tmp_path):
        path = write_doc(tmp_path, "fam.json", {"d": 1, "sets": [[[0]], [[1]]]})
        code, doc = run_json(capsys, ["check", path, "--bound", "hall"])
        assert code == 0
        assert doc["holds"] is True and doc["bound"] == "hall"
        assert doc["n_checks"] == 3

    def test_default_bound_is_connectivity_route(self, capsys, tmp_path):
        path = write_doc(tmp_path, "fam.json", {"d": 1, "sets": [[[0]], [[1]]]})
        code, doc = run_json(capsys, ["check", path])
        assert code == 0 and doc["bound"] == "g"

    def test_violated(self, capsys, tmp_path):
        path = write_doc(tmp_path, "fam.json", {"d": 1, "sets": [[[0]], [[0]]]})
        code, doc = run_json(capsys, ["check", path, "--bound", "hall"])
        assert code == 1
        assert doc["first_violation"]["indices"] == [0, 1]

    def test_greedy_bound_required_values(self, capsys, tmp_path):
        path = write_doc(tmp_path, "fam.json", {"d": 2, "sets": [[[0, 0]], [[1, 1]]]})
        code, doc = run_json(
            capsys, ["check", path, "--bound", "greedy", "--all-checks"]
        )
        assert code == 1
        by_len = {len(c["indices"]): c["required"] for c in doc["checks"]}
        assert by_len == {1: greedy_bound(2, 1), 2: greedy_bound(2, 2)}

    def test_sampled_deterministic(self, capsys, tmp_path):
        fam = {"d": 1, "sets": [[[i]] for i in range(6)]}
        path = write_doc(tmp_path, "fam.json", fam)
        argv = ["check", path, "--bound", "hall", "--mode", "sampled",
                "--samples", "10", "--seed", "7", "--all-checks"]
        code_a, doc_a = run_json(capsys, argv)
        code_b, doc_b = run_json(capsys, argv)
        assert code_a == code_b == 0
        assert doc_a == doc_b
        assert doc_a["n_checks"] == 10

    @pytest.mark.parametrize("samples", ["0", "-2"])
    def test_sampled_without_samples_exits_three(self, capsys, tmp_path, samples):
        path = write_doc(tmp_path, "fam.json", {"d": 1, "sets": [[[0]], [[0]], [[1]]]})
        with pytest.raises(SystemExit) as exc:
            cli.entry(["check", path, "--bound", "hall", "--mode", "sampled",
                       "--samples", samples])
        assert exc.value.code == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestComplexOps:
    def test_closure(self, capsys, tmp_path):
        path = write_doc(tmp_path, "k.json", {"n_vertices": 3, "facets": [[0, 1], [2]]})
        code, doc = run_json(capsys, ["complex", "closure", path])
        assert code == 0
        assert doc == {"n_vertices": 3, "dim": 1, "n_faces": 5, "facets": [[2], [0, 1]]}

    def test_star(self, capsys, tmp_path):
        path = write_doc(tmp_path, "k.json", TRIANGLE_BOUNDARY)
        code, doc = run_json(capsys, ["complex", "star", path, "-v", "1"])
        assert code == 0
        assert doc["facets"] == [[0, 1], [1, 2]]

    def test_star_needs_vertex(self, capsys, tmp_path):
        path = write_doc(tmp_path, "k.json", TRIANGLE_BOUNDARY)
        with pytest.raises(SystemExit) as exc:
            cli.entry(["complex", "star", path])
        assert exc.value.code == 3

    def test_neighborhood(self, capsys, tmp_path):
        path = write_doc(tmp_path, "k.json", {"n_vertices": 3, "facets": [[0, 1], [2]]})
        code, doc = run_json(capsys, ["complex", "neighborhood", path, "-v", "0"])
        assert code == 0
        assert doc["facets"] == [[0, 1]]

    def test_completion(self, capsys, tmp_path):
        path = write_doc(
            tmp_path, "k.json", {"n_vertices": 3, "facets": [[0], [1], [2]]}
        )
        code, doc = run_json(capsys, ["complex", "completion", path, "-j", "0"])
        assert code == 0
        assert doc["n_faces"] == 8 and doc["facets"] == [[0, 1, 2]]

    def test_skeleton(self, capsys, tmp_path):
        path = write_doc(tmp_path, "k.json", {"n_vertices": 3, "facets": [[0, 1, 2]]})
        code, doc = run_json(capsys, ["complex", "skeleton", path, "-s", "1"])
        assert code == 0
        assert doc["facets"] == [[0, 1], [0, 2], [1, 2]]

    def test_induced(self, capsys, tmp_path):
        path = write_doc(tmp_path, "k.json", {"n_vertices": 3, "facets": [[0, 1, 2]]})
        code, doc = run_json(
            capsys, ["complex", "induced", path, "--vertices", "0,1"]
        )
        assert code == 0 and doc["facets"] == [[0, 1]]

    @pytest.mark.parametrize("ranges, listed", [
        ("1-3,5", "1,2,3,5"),
        ("4-6,0-1", "4,5,6,0,1"),
        ("3-3,6-2,0", "3,0"),
        ("2-5,3-4", "2,3,4,5"),
        ("0-6", "0,1,2,3,4,5,6"),
    ])
    def test_induced_ranges_match_their_expanded_list(self, capsys, tmp_path, ranges, listed):
        path = write_doc(tmp_path, "k.json",
                         {"n_vertices": 7, "facets": [[0, 1, 2, 3], [3, 4, 5], [5, 6]]})
        got = run_json(capsys, ["complex", "induced", path, "--vertices", ranges])
        assert got == run_json(capsys, ["complex", "induced", path, "--vertices", listed])
        assert got[0] == 0

    @pytest.mark.parametrize("vertices, message", [
        (["--vertices=-1"], "vertex -1 out of range"),
        (["--vertices", "0,7"], "vertex 7 out of range"),
    ])
    def test_induced_refuses_vertices_outside_the_complex(self, capsys, tmp_path,
                                                          vertices, message):
        path = write_doc(tmp_path, "k.json", {"n_vertices": 3, "facets": [[0, 1, 2]]})
        with pytest.raises(SystemExit) as exc:
            cli.entry(["complex", "induced", path, *vertices])
        assert exc.value.code == 3
        assert capsys.readouterr() == ("", "error: %s\n" % message)

    @pytest.mark.parametrize("argv", [
        ["gp", "--max-card", "-1"],
        ["independence", "--max-card", "-1"],
        ["uniformity", "--max-card", "-1"],
        ["completion", "-j", "1", "--max-card", "-2"],
    ])
    def test_negative_max_card_is_refused(self, capsys, tmp_path, argv):
        doc = FIVE_POINTS if argv[0] != "completion" else TRIANGLE_BOUNDARY
        path = write_doc(tmp_path, "in.json", doc)
        op, *rest = argv
        with pytest.raises(SystemExit) as exc:
            cli.entry(["complex", op, path, *rest])
        assert exc.value.code == 3
        assert capsys.readouterr() == (
            "", "error: max_card must be nonnegative, got %s\n" % rest[-1])
        # a cap of 0 keeps the empty face
        code, out = run_json(capsys, ["complex", op, path, *rest[:-1], "0"])
        assert code == 0 and out["facets"] == [[]]

    def test_join(self, capsys, tmp_path):
        a = write_doc(tmp_path, "a.json", {"n_vertices": 2, "facets": [[0], [1]]})
        b = write_doc(tmp_path, "b.json", {"n_vertices": 2, "facets": [[0], [1]]})
        code, doc = run_json(capsys, ["complex", "join", a, "--with", b])
        assert code == 0
        assert doc["n_vertices"] == 4 and doc["dim"] == 1 and doc["n_faces"] == 9

    def test_nerve(self, capsys, tmp_path):
        members = {
            "n_vertices": 6,
            "members": [
                [[0, 1], [1, 2]],
                [[2, 3], [3, 4]],
                [[4, 5], [5, 0]],
            ],
        }
        path = write_doc(tmp_path, "members.json", members)
        code, doc = run_json(capsys, ["complex", "nerve", path])
        assert code == 0
        assert doc["facets"] == [[0, 1], [0, 2], [1, 2]]

    def test_betti(self, capsys, tmp_path):
        path = write_doc(tmp_path, "k.json", TRIANGLE_BOUNDARY)
        code, doc = run_json(capsys, ["complex", "betti", path, "-k", "1"])
        assert code == 0
        assert doc["betti"] == [0, 1] and doc["up_to"] == 1

    def test_qstar_holds(self, capsys, tmp_path):
        pairs = [[i, j] for i in range(5) for j in range(i + 1, 5)]
        path = write_doc(tmp_path, "k.json", {"n_vertices": 5, "facets": pairs})
        code, doc = run_json(capsys, ["complex", "qstar", path, "-q", "2"])
        assert code == 0
        assert doc == {"holds": True, "q": 2, "violating": None}

    def test_qstar_fails(self, capsys, tmp_path):
        path = write_doc(
            tmp_path, "k.json", {"n_vertices": 4, "facets": [[0, 1], [2, 3]]}
        )
        code, doc = run_json(capsys, ["complex", "qstar", path, "-q", "2"])
        assert code == 1
        assert doc["holds"] is False and doc["violating"] == [0, 1]

    def test_gp_complex_matches_library(self, capsys, tmp_path):
        path = write_doc(tmp_path, "pts.json", FIVE_POINTS)
        code, doc = run_json(capsys, ["complex", "gp", path])
        assert code == 0
        pts = [Point(c) for c in FIVE_POINTS["points"]]
        assert doc == complex_to_doc(general_position_complex(pts))
        assert doc["n_faces"] == 28

    def test_independence_matches_library(self, capsys, tmp_path):
        path = write_doc(tmp_path, "pts.json", FIVE_POINTS)
        code, doc = run_json(capsys, ["complex", "independence", path])
        assert code == 0
        pts = [Point(c) for c in FIVE_POINTS["points"]]
        assert doc == complex_to_doc(independence_complex(pts))

    def test_uniformity_rank_override(self, capsys, tmp_path):
        pts = {"d": 1, "points": [[0], [1], [2], [3]]}
        path = write_doc(tmp_path, "pts.json", pts)
        code, doc = run_json(
            capsys, ["complex", "uniformity", path, "--rank", "1"]
        )
        assert code == 0
        # truncated to rank 1 every set is uniform: the full simplex
        assert doc["n_faces"] == 16 and doc["facets"] == [[0, 1, 2, 3]]

    def test_max_card_cap(self, capsys, tmp_path):
        path = write_doc(tmp_path, "pts.json", FIVE_POINTS)
        code, doc = run_json(capsys, ["complex", "gp", path, "--max-card", "2"])
        assert code == 0
        pts = [Point(c) for c in FIVE_POINTS["points"]]
        assert doc == complex_to_doc(general_position_complex(pts, max_card=2))

    def test_unknown_op(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["complex", "frobnicate", "-"])
        assert exc.value.code == 3


class TestCounterexample:
    def test_generate_then_refute(self, capsys, tmp_path):
        code, doc = run_json(capsys, ["counterexample", "-d", "2", "-m", "4"])
        assert code == 0
        assert doc["d"] == 2 and len(doc["sets"]) == 4
        assert [len(s) for s in doc["sets"]] == [1, 1, 1, 3]

        path = write_doc(tmp_path, "cx.json", doc)
        code, solved = run_json(capsys, ["solve", path, "--method", "exhaustive"])
        assert code == 1 and solved["status"] == "not_found"

        code, checked = run_json(capsys, ["check", path, "--bound", "hall"])
        assert code == 0 and checked["holds"] is True

    def test_rejects_low_dimension(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.entry(["counterexample", "-d", "1", "-m", "4"])
        assert exc.value.code == 3

    def test_requires_arguments(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["counterexample", "-d", "2"])
        assert exc.value.code == 3


class TestWitnessSearch:
    def test_finds_witness(self, capsys):
        code, doc = run_json(
            capsys, ["witness-search", "--seed", "5", "--trials", "400"]
        )
        assert code == 0
        assert doc["gp_numbers"] == [1, 2, 1, 2]
        family = family_from_doc(doc)
        assert solve_exhaustive(family).status == "not_found"

    def test_no_witness(self, capsys):
        code, doc = run_json(capsys, ["witness-search", "--seed", "0", "--trials", "3"])
        assert code == 1
        assert doc == {"found": False, "trials": 3}

    def test_no_witness_human(self, capsys):
        code, out = run(capsys, ["witness-search", "--seed", "0", "--trials", "3", "--human"])
        assert code == 1
        assert out == "no witness in 3 trials\n"

    def test_validates_parameters(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.entry(["witness-search", "-d", "0"])
        assert exc.value.code == 3


class TestEnvironmentBudgets:
    def test_face_budget(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("GENPOS_BUDGET_FACES", "10")
        path = write_doc(tmp_path, "pts.json", FIVE_POINTS)
        with pytest.raises(SystemExit) as exc:
            cli.entry(["complex", "gp", path])
        assert exc.value.code == 3
        assert "error:" in capsys.readouterr().err

    def test_node_budget_demotes_auto_to_greedy(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("GENPOS_BUDGET_NODES", "1")
        fam = {"d": 1, "sets": [[[0], [5], [9]], [[1], [6], [8]], [[2], [7], [4]]]}
        path = write_doc(tmp_path, "fam.json", fam)
        code, doc = run_json(capsys, ["solve", path])
        assert code == 0
        assert doc["method"] == "greedy" and doc["status"] == "found"

    @pytest.mark.parametrize("budget, code, method", [("766", 2, "greedy"),
                                                      ("767", 1, "exhaustive")])
    def test_auto_search_never_overruns_the_node_budget(self, capsys, tmp_path, monkeypatch,
                                                        budget, code, method):
        # d = 1: 2^8 picks, and every pick of the first nine sets extends
        # until the last set repeats the first, so the search proving that
        # no system exists makes 1 + 2 + ... + 256 + 256 = 767 calls
        monkeypatch.setenv("GENPOS_BUDGET_NODES", budget)
        sets = [[[0]]] + [[[t], [t + 1]] for t in range(2, 18, 2)] + [[[0]]]
        path = write_doc(tmp_path, "fam.json", {"d": 1, "sets": sets})
        got, doc = run_json(capsys, ["solve", path])
        assert got == code and doc["method"] == method

    def test_node_budget_stops_gp_number(self, capsys, monkeypatch):
        # the 6 x 6 grid in one set: its exact search, which --all-checks
        # prints, runs to millions of nodes
        monkeypatch.setenv("GENPOS_BUDGET_NODES", "1000")
        doc = {"d": 2, "sets": [[[x, y] for x in range(6) for y in range(6)]]}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        t0 = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            cli.entry(["check", "-", "--bound", "hall", "--all-checks"])
        assert time.perf_counter() - t0 < 2
        assert exc.value.code == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "1000 nodes" in err and err.count("\n") == 1
        # without --all-checks the grid need only reach 1 point, which any
        # two of its points settle with no index
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        code, out = run_json(capsys, ["check", "-", "--bound", "hall"])
        assert code == 0 and out["holds"] and out["n_checks"] == 1

    def test_coplanar_points_need_no_index(self, capsys, monkeypatch):
        # 500 points on one plane in space: their affine rank is 3, which
        # is the answer, with no index built
        monkeypatch.setattr(FlatIndex, "build", None)
        plane = [[a, b, "%d/7" % (3 * a - 2 * b + 5)] for a in range(-11, 14) for b in range(20)]
        doc = {"d": 3, "sets": [plane]}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        t0 = time.perf_counter()
        code, out = run_json(capsys, ["check", "-", "--bound", "hall", "--all-checks"])
        assert time.perf_counter() - t0 < 1
        assert code == 0 and out["checks"][0]["gp_number"] == 3

    def test_invalid_budget_value(self, capsys, monkeypatch):
        monkeypatch.setenv("GENPOS_BUDGET_NODES", "lots")
        with pytest.raises(SystemExit) as exc:
            cli.entry(["bounds"])
        assert exc.value.code == 3

    def test_empty_budget_ignored(self, capsys, monkeypatch):
        monkeypatch.setenv("GENPOS_BUDGET_NODES", "")
        code, doc = run_json(capsys, ["bounds", "--d", "1", "--k", "1"])
        assert code == 0


def test_entry_success_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.entry(["bounds", "--d", "1", "--k", "1"])
    assert exc.value.code == 0


class TestExitContract:
    def test_thousands_of_collinear_points_answer(self, capsys, monkeypatch):
        # far beyond any recursion limit; the greedy first pass keeps two
        # points and settles the search
        doc = {"d": 2, "sets": [[[i, 0] for i in range(1200)]]}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        with pytest.raises(SystemExit) as exc:
            cli.entry(["check", "-", "--bound", "hall", "--all-checks"])
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        doc = json.loads(out)
        assert doc["holds"] is True and doc["checks"][0]["gp_number"] == 2
        assert err == ""

    @pytest.mark.parametrize("fault", [RecursionError, MemoryError, KeyError, ZeroDivisionError])
    def test_any_fault_exits_three(self, capsys, monkeypatch, fault):
        def boom(argv=None):
            raise fault("boom")

        monkeypatch.setattr(cli, "main", boom)
        with pytest.raises(SystemExit) as exc:
            cli.entry(["bounds"])
        assert exc.value.code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: %s" % fault.__name__) and err.count("\n") == 1


def run_module(module, args, stdin="", **environ):
    return run_python(["-m", module, *args], stdin, **environ)


def run_python(args, stdin="", **environ):
    src = os.path.dirname(os.path.dirname(os.path.abspath(genpos.__file__)))
    env = dict(os.environ, **environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        input=stdin, capture_output=True, text=True, env=env, timeout=60,
    )


# runs the command line after it in a child and prints that child's exit
# code, stdout, stderr, wall-clock seconds and peak RSS in KB as JSON
WITH_PEAK_RSS = (
    "import json, resource, subprocess, sys, time; "
    "t0 = time.perf_counter(); "
    "p = subprocess.run(sys.argv[1:], capture_output=True, text=True); "
    "took = time.perf_counter() - t0; "
    "print(json.dumps([p.returncode, p.stdout, p.stderr, took, "
    "resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss]))"
)


@pytest.mark.parametrize("bomb", ["1e100000000", "1e-100000000"])
def test_exponent_bombs_exit_three_at_once(bomb):
    t0 = time.perf_counter()
    proc = run_module("genpos", ["check", "-", "--bound", "hall"],
                      stdin=json.dumps({"d": 1, "sets": [[[bomb]]]}))
    assert time.perf_counter() - t0 < 1
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("error: sets[0][0]: refusing rational")
    assert proc.stderr.count("\n") == 1


def test_integer_literal_over_the_digit_limit_exits_three():
    # json raises a plain ValueError past the limit, not JSONDecodeError
    limit = sys.get_int_max_str_digits()
    proc = run_module("genpos", ["solve", "-"],
                      stdin='{"d":1,"sets":[[[1%s]]]}' % ("0" * limit))
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == "error: invalid JSON: integer literal over %d digits\n" % limit
    assert "set_int_max_str_digits" not in proc.stderr
    # a literal at the limit still parses and prints
    proc = run_module("genpos", ["solve", "-"],
                      stdin='{"d":1,"sets":[[[1%s]]]}' % ("0" * (limit - 1)))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["representatives"][0]["point"] == [10 ** (limit - 1)]


@pytest.mark.parametrize("argv", [["solve", "-"], ["check", "-", "--bound", "hall"]])
def test_coordinates_too_long_to_print_exit_three(capsys, monkeypatch, argv):
    # at the exponent limit the number has one digit more than can be printed
    limit = sys.get_int_max_str_digits()

    def entry(coord):
        doc = {"d": 1, "sets": [[[coord]]]}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        with pytest.raises(SystemExit) as exc:
            cli.entry(argv)
        out, err = capsys.readouterr()
        return exc.value.code, out, err

    for coord in ("1e%d" % limit, "1e-%d" % limit, "12e%d" % (limit - 1)):
        code, out, err = entry(coord)
        assert code == 3 and out == ""
        assert err.startswith("error: sets[0][0]: refusing rational %r" % coord)
        assert err.count("\n") == 1
    code, out, err = entry("1e%d" % (limit - 1))
    assert code == 0 and err == ""
    doc = json.loads(out)
    if argv[0] == "solve":
        assert doc["representatives"][0]["point"] == [10 ** (limit - 1)]
    else:
        assert doc["holds"] is True


@pytest.mark.parametrize("module", ["genpos", "genpos.cli"])
class TestAsProcess:
    def test_version(self, module):
        proc = run_module(module, ["--version"])
        assert proc.returncode == 0
        assert proc.stdout.strip() == "genpos %s" % genpos.__version__

    @pytest.mark.parametrize("argv, doc, code", [
        (["check", "-", "--bound", "hall"], {"d": 1, "sets": [[[0]], [[1]]]}, 0),
        (["check", "-", "--bound", "hall"], {"d": 1, "sets": [[[0]], [[0]]]}, 1),
        (["solve", "-", "--method", "exhaustive"], {"d": 2, "sets": [[[0, 0]], [[0, 0]]]}, 1),
        (["solve", "-", "--method", "greedy"], {"d": 1, "sets": [[[0]], [[0]]]}, 2),
    ])
    def test_answers_exit_with_their_codes(self, module, argv, doc, code):
        proc = run_module(module, argv, stdin=json.dumps(doc))
        assert proc.returncode == code
        assert proc.stderr == ""
        out = json.loads(proc.stdout)
        assert ("holds" in out) if argv[0] == "check" else ("status" in out)

    def test_bad_json_exits_three(self, module):
        proc = run_module(module, ["solve", "-"], stdin="{nope")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


ISOLATED_12 = {"n_vertices": 12, "facets": [[v] for v in range(12)]}


class TestLimitsAsProcess:
    def test_a_long_vertex_range_is_refused_unexpanded(self, tmp_path):
        # ten million vertices asked of a 4-vertex complex: the first one
        # outside it is refused before the range is expanded
        path = write_doc(tmp_path, "k.json", {"n_vertices": 4, "facets": [[0, 1, 2], [2, 3]]})
        proc = run_python(["-c", WITH_PEAK_RSS, sys.executable, "-m", "genpos", "complex",
                           "induced", path, "--vertices", "0-10000000"])
        code, out, err, took, peak_kb = json.loads(proc.stdout)
        assert (code, out, err) == (3, "", "error: vertex 4 out of range\n")
        assert took < 1 and peak_kb < 30 * 1024

    def test_exhaustive_on_thousands_of_singletons(self):
        # one level per set, far beyond any recursion limit
        doc = {"d": 2, "sets": [[[t, t * t]] for t in range(1200)]}
        proc = run_module("genpos", ["solve", "-", "--method", "exhaustive"],
                          stdin=json.dumps(doc))
        assert proc.returncode == 0 and proc.stderr == ""
        out = json.loads(proc.stdout)
        assert out["status"] == "found" and out["method"] == "exhaustive"
        assert [r["point"] for r in out["representatives"]] == [X[0] for X in doc["sets"]]

    def test_empty_set_answers_within_the_node_budget(self):
        parabola = [[t, t * t] for t in range(100)]
        doc = {"d": 2, "sets": [parabola, parabola, parabola, []]}
        proc = run_module("genpos", ["solve", "-", "--method", "exhaustive"],
                          stdin=json.dumps(doc), GENPOS_BUDGET_NODES="1000")
        assert proc.returncode == 1 and proc.stderr == ""
        assert json.loads(proc.stdout) == {"status": "not_found", "method": "exhaustive"}

    @pytest.mark.parametrize("method, code, out, err", [
        ("exhaustive", 3, "", "error: colorful-face search exceeds 100 nodes\n"),
        # auto runs greedy, whose certificate meets Hall's condition (six
        # points for six sets), so it stands when the search behind it stops
        # at the budget
        ("auto", 2, '{"status": "condition_violated", "violation": {"indices": '
         '[0, 1, 2, 3, 4, 5], "gp_number": 6, "required": 31, "ok": false}, '
         '"method": "greedy"}\n', ""),
    ], ids=["exhaustive", "auto"])
    def test_search_past_the_node_budget(self, method, code, out, err):
        # four copies of {0..4} and two of {100} in d = 1: the search tries
        # the 120 distinct picks from the first four sets before it proves
        # that no system exists
        five = [[t] for t in range(5)]
        proc = run_module("genpos", ["solve", "-", "--method", method], stdin=json.dumps(
            {"d": 1, "sets": [five] * 4 + [[[100]]] * 2}), GENPOS_BUDGET_NODES="100")
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)

    def test_huge_betti_degree_refused_up_front(self):
        proc = run_module("genpos", ["complex", "betti", "-", "-k", "100000000"],
                          stdin=json.dumps(TRIANGLE_BOUNDARY))
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr.startswith("error: homology through degree 100000000 ")
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")

    @pytest.mark.parametrize("op, doc", [
        ("gp", {"d": 2, "points": [[t, t * t] for t in range(14)]}),
        ("independence", {"d": 2, "points": [[t, t * t] for t in range(14)]}),
        ("uniformity", {"d": 2, "points": [[t, t * t] for t in range(14)]}),
        ("nerve", {"n_vertices": 1, "members": [[[0]]] * 12}),
        # closure and betti refuse while reading the 256-face simplex
        ("closure", {"n_vertices": 8, "facets": [list(range(8))]}),
        # twelve vertices: 13 faces, whose 0-completion is the full simplex
        ("completion", ISOLATED_12),
        # joined with itself: 13 * 13 faces
        ("join", ISOLATED_12),
        ("betti", {"n_vertices": 8, "facets": [list(range(8))]}),
    ])
    def test_face_budget_reaches_every_complex(self, op, doc, tmp_path):
        extra = {
            "completion": ["-j", "0"],
            "join": ["--with", write_doc(tmp_path, "other.json", doc)],
            "betti": ["-k", "1"],
        }.get(op, [])
        proc = run_module("genpos", ["complex", op, "-", *extra], stdin=json.dumps(doc),
                          GENPOS_BUDGET_FACES="100")
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and "100 faces" in proc.stderr
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("op", ["gp", "independence"])
    def test_face_budget_stops_thousands_of_points_at_once(self, op):
        # 1,500 points in d = 3 pass 5,000 faces among the pairs, before
        # any level needs the flat index
        rng = random.Random(1500)
        doc = {"d": 3, "points": [[rng.randint(-10 ** 6, 10 ** 6) for _ in range(3)]
                                  for _ in range(1500)]}
        t0 = time.perf_counter()
        proc = run_module("genpos", ["complex", op, "-"], stdin=json.dumps(doc),
                          GENPOS_BUDGET_FACES="5000")
        assert time.perf_counter() - t0 < 2
        assert (proc.returncode, proc.stdout) == (3, "")
        what = "general-position" if op == "gp" else "independence"
        assert proc.stderr == "error: %s complex exceeds 5000 faces\n" % what

    @pytest.mark.parametrize("argv, code, out", [
        (["counterexample", "-d", "2", "-m", "4"], 0, '{"d": 2, "sets": '),
        (["counterexample", "-d", "1", "-m", "4"], 3, "error: the construction needs d >= 2"),
        (["counterexample", "-d", "2", "-m", "3"], 3, "error: the size condition is sufficient"),
        # refused before the last set's 1,140 points are built and checked
        (["counterexample", "-d", "3", "-m", "21"], 3,
         "error: all-subsets mode would enumerate 2^21 - 1 subfamilies"),
        (["witness-search", "-d", "2", "-m", "5", "--trials", "200", "--seed", "1"], 0,
         '{"d": 2, "sets": '),
        (["witness-search", "--trials", "3"], 1, '{"found": false, "trials": 3}'),
        (["witness-search", "-d", "0"], 3, "error: witness-search needs d >= 1"),
        (["bounds", "--d", "2", "--k", "4"], 0, '{"rows": [{"d": 2, "k": 4, '),
        (["bounds", "--k", "0"], 3, "error: k must be at least 1"),
        (["bounds", "--d", "x"], 3, "usage: genpos bounds"),
        # refused up front: no vacuous negative answer, no randrange text
        (["witness-search", "--trials", "-5"], 3, "error: witness-search needs --trials >= 1\n"),
        (["witness-search", "--trials", "0"], 3, "error: witness-search needs --trials >= 1\n"),
        (["witness-search", "--coord-range", "-1"], 3,
         "error: witness-search needs --coord-range >= 0\n"),
        (["witness-search", "--max-set-size", "0"], 3,
         "error: witness-search needs --max-set-size >= 1\n"),
        # d and m are checked first
        (["witness-search", "-m", "0", "--trials", "0"], 3,
         "error: witness-search needs d >= 1 and m >= 1\n"),
        (["witness-search", "--coord-range", "0", "--max-set-size", "1", "--trials", "1"], 1,
         '{"found": false, "trials": 1}\n'),
    ])
    def test_family_and_table_commands_exit_with_their_codes(self, argv, code, out):
        proc = run_module("genpos", argv)
        assert proc.returncode == code
        said, silent = (proc.stdout, proc.stderr) if code < 3 else (proc.stderr, proc.stdout)
        assert said.startswith(out) and silent == ""

    def test_sampled_check_within_the_node_budget(self):
        # twelve singletons at a budget of 10: both modes refuse up front
        doc = json.dumps({"d": 1, "sets": [[[t]] for t in range(12)]})
        for argv, err in [
            ([], "error: all-subsets mode would enumerate 2^12 - 1 subfamilies\n"),
            (["--mode", "sampled", "--samples", "500"],
             "error: sampled mode would check 500 subfamilies, over the budget of 10\n"),
        ]:
            proc = run_module("genpos", ["check", "-", "--bound", "hall", *argv], stdin=doc,
                              GENPOS_BUDGET_NODES="10")
            assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", err)
        proc = run_module("genpos", ["check", "-", "--mode", "sampled", "--samples", "10"],
                          stdin=doc, GENPOS_BUDGET_NODES="10")
        assert proc.returncode == 0 and json.loads(proc.stdout)["n_checks"] == 10

    def test_qstar_within_the_node_budget(self):
        # 30 isolated vertices: C(30, 8) = 5,852,925 vertex sets at q = 8
        doc = json.dumps({"n_vertices": 30, "facets": [[v] for v in range(30)]})
        proc = run_module("genpos", ["complex", "qstar", "-", "-q", "8"], stdin=doc,
                          GENPOS_BUDGET_NODES="100")
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == ("error: q-star check would test C(30, 8) = 5852925 "
                               "vertex sets, over the budget of 100 nodes\n")
        proc = run_module("genpos", ["complex", "qstar", "-", "-q", "1"], stdin=doc,
                          GENPOS_BUDGET_NODES="100")
        assert proc.returncode == 0 and json.loads(proc.stdout)["holds"]

    def test_index_past_the_node_budget_exits_three(self):
        # the 3 x 3 x 3 cube as one set: its index needs 3,276 nodes, which
        # the exact gp_number that --all-checks prints cannot do without
        doc = {"d": 3, "sets": [[[x, y, z] for x in range(3) for y in range(3)
                                 for z in range(3)]]}
        proc = run_module("genpos", ["check", "-", "--bound", "hall", "--all-checks"],
                          stdin=json.dumps(doc), GENPOS_BUDGET_NODES="3000")
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "needs 3276 nodes, over the budget of 3000 nodes" in proc.stderr
        # the threshold run needs only 1 point, which any two points settle
        # with no index
        proc = run_module("genpos", ["check", "-", "--bound", "hall"], stdin=json.dumps(doc),
                          GENPOS_BUDGET_NODES="3000")
        assert proc.returncode == 0 and proc.stderr == ""
        assert json.loads(proc.stdout)["holds"]


# seven points in the plane: three collinear triples, and the origin twice;
# the affine matroid has rank 3
RANK_POINTS = {"d": 2, "points": [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [0, 2], [0, 0]]}


@pytest.mark.parametrize("rank", ["0", "-1"])
def test_uniformity_rank_below_one_exits_three(rank):
    proc = run_module("genpos", ["complex", "uniformity", "-", "--rank", rank],
                      stdin=json.dumps(RANK_POINTS))
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == "error: --rank must be at least 1, got %s\n" % rank


@pytest.mark.parametrize("rank, dim, n_faces, digest", [
    # the truncation to rank 1 makes every set of at most 1+3 points uniform
    ("1", 3, 99, "93c229b70c292fdfbd18808fc85410c80ec01707744b43050dcbddb266c3afb3"),
    ("2", 4, 94, "91e514cd7e52e8e09639c487b0bea83390c615d3573f9cd51725cccd679ceebf"),
    # rank 3 and beyond leave the matroid as it is
    ("3", 3, 62, "61855379c8547b6b9133d0d31fd6bc59c45f37980fbd16753a9b1a0037f1332f"),
    ("4", 3, 62, "61855379c8547b6b9133d0d31fd6bc59c45f37980fbd16753a9b1a0037f1332f"),
])
def test_uniformity_rank_output_is_pinned(rank, dim, n_faces, digest):
    # the digests are of the bytes printed before the uniformity complex
    # became the completion of the independence complex
    proc = run_module("genpos", ["complex", "uniformity", "-", "--rank", rank],
                      stdin=json.dumps(RANK_POINTS))
    assert proc.returncode == 0 and proc.stderr == ""
    doc = json.loads(proc.stdout)
    assert (doc["dim"], doc["n_faces"]) == (dim, n_faces)
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


def test_repeated_main_calls_match_fresh_processes(capsys, monkeypatch):
    # one process, one shared parser, several subcommands in a row
    family = json.dumps({"d": 2, "sets": [[[0, 0], [1, 0]], [[0, 1], [2, 2]], [[3, 1]]]})
    calls = [
        (["bounds", "--d", "1-2", "--k", "2"], ""),
        (["solve", "-"], family),
        (["check", "-", "--bound", "hall", "--all-checks"], family),
        (["complex", "gp", "-", "--human"], json.dumps(FIVE_POINTS)),
        (["counterexample", "-d", "2", "-m", "4"], ""),
        (["witness-search", "--seed", "0", "--trials", "3"], ""),
        (["bounds", "--d", "3", "--k", "1", "--human"], ""),
    ]
    for argv, stdin in calls:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        code, out = run(capsys, argv)
        proc = run_module("genpos", argv, stdin)
        assert (code, out) == (proc.returncode, proc.stdout), argv
    with pytest.raises(SystemExit) as exc:
        cli.entry(["solve", "--method", "nope"])
    assert exc.value.code == 3
    assert "invalid choice" in capsys.readouterr().err


# a family, a point list and a complex, enough for each subcommand to answer
FAMILY = json.dumps({"d": 2, "sets": [[[0, 0], [1, 0]], [[0, 1], [2, 2]], [[3, 1]]]})
POINTS = json.dumps(FIVE_POINTS)
COMPLEX = json.dumps(TRIANGLE_BOUNDARY)

# every subcommand, answering
ANSWERING = [
    (["solve", "-"], FAMILY),
    (["solve", "-", "--method", "greedy", "--human"], FAMILY),
    (["check", "-", "--bound", "hall", "--all-checks"], FAMILY),
    (["check", "-", "--mode", "sampled", "--samples", "3", "--seed", "1"], FAMILY),
    (["complex", "gp", "-", "--max-card", "3"], POINTS),
    (["complex", "betti", "-", "-k", "1"], COMPLEX),
    (["complex", "induced", "-", "--vertices", "0-1"], COMPLEX),
    (["counterexample", "-d", "2", "-m", "4"], ""),
    (["witness-search", "--trials", "2"], ""),
    (["bounds", "--d", "1-2", "--k", "1,3", "--human"], ""),
]
USAGE_TABLE = ANSWERING + [
    # usage errors and the top parser's own answers
    (["solve", "--bogus"], FAMILY),
    (["solve", "a", "b"], ""),
    (["complex"], ""),
    (["complex", "nope"], ""),
    (["counterexample", "-d", "2"], ""),
    (["solve", "--method", "x"], ""),
    (["check", "-h"], ""),
    (["solve", "--version"], ""),
    (["bogus"], ""),
    ([], ""),
    (["--version"], ""),
    (["-h"], ""),
    (["complex", "betti", "-", "-k"], COMPLEX),
    (["bounds", "--d", "1-0"], ""),
    (["bounds", "--d", "x"], ""),
    (["solve", "--", "-"], FAMILY),
    (["check", "-", "--", "--all-checks"], FAMILY),
    (["witness-search", "-d", "2", "extra", "--seed", "1"], ""),
    # -h after each subcommand
    *[([command, "-h"], "") for command in
      ("solve", "complex", "counterexample", "witness-search", "bounds")],
    (["complex", "gp", "-", "--help"], POINTS),
    # an option given twice: the last one counts
    (["solve", "-", "--method", "matroid", "--method", "exhaustive"], FAMILY),
    (["bounds", "--d", "1", "--d", "3", "--k", "2"], ""),
    (["complex", "betti", "-", "-k", "0", "-k", "1"], COMPLEX),
]


@pytest.mark.parametrize("argv, stdin", USAGE_TABLE, ids=lambda x: " ".join(x)
                         if isinstance(x, list) else None)
def test_direct_parse_matches_the_top_parser(capsys, monkeypatch, argv, stdin):
    # cli.entry against build_parser().parse_args and the same dispatch:
    # stdout, stderr and the exit code byte for byte
    def outcome():
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        with pytest.raises(SystemExit) as exc:
            cli.entry(list(argv))
        return (exc.value.code, *capsys.readouterr())

    direct = outcome()
    with monkeypatch.context() as m:
        m.setattr(cli, "parse_args", lambda argv=None: cli.build_parser().parse_args(argv))
        reference = outcome()
    assert direct == reference
    assert direct[0] in (0, 1, 2, 3)


def test_direct_parse_sets_the_command_and_each_default():
    top = cli.build_parser()
    for argv, _ in ANSWERING:
        assert cli.parse_args(argv) == top.parse_args(argv)
    assert cli.parse_args(["bounds"]).command == "bounds"


@pytest.mark.parametrize("argv, doc", [
    (["qstar", "-", "-q", "1"], {"facets": [[0, 1], [1, 2]]}),
    (["closure", "-"], {"facets": [[0, 1], [1, 2]]}),
    (["betti", "-", "-k", "1"], {"facets": [[0, 1], [1, 2]]}),
    (["nerve", "-"], {"members": [[[0, 1]], [[1, 2]], [[2]]]}),
    (["completion", "-", "-j", "1"], {"facets": [[0, 1], [1, 2], [0, 2], [2, 3]]}),
])
def test_a_huge_vertex_range_answers_at_once(capsys, monkeypatch, argv, doc):
    # a few faces on a million vertices read the vertices from the faces
    def answer(n):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"n_vertices": n, **doc})))
        t0 = time.perf_counter()
        code = cli.main(["complex", *argv])
        took = time.perf_counter() - t0
        out = json.loads(capsys.readouterr().out)
        if out.get("n_vertices") == n:
            out["n_vertices"] = "n"
        return took, code, out

    took, code, out = answer(10 ** 6)
    assert took < 1
    assert (code, out) == answer(5)[1:]


def test_a_long_in_range_vertex_list_induces_at_once(capsys, monkeypatch):
    # the million vertices are range-checked, but only the complex's own
    # go into the mask
    def answer(vertices):
        doc = {"n_vertices": 10 ** 6, "facets": [[0, 1], [1, 2], [2, 999999]]}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        t0 = time.perf_counter()
        code = cli.main(["complex", "induced", "-", "--vertices", vertices])
        return time.perf_counter() - t0, code, capsys.readouterr().out

    took, code, out = answer("0-999998")
    assert took < 1
    assert (code, out) == answer("0-2")[1:]
    assert json.loads(out)["facets"] == [[0, 1], [1, 2]]


@pytest.mark.parametrize("argv", [
    ["completion", "-j", "1"],
    ["star", "-v", "1"],
    ["induced", "--vertices", "0-2"],
    ["betti", "-k", "1", "--human"],
])
def test_options_before_the_input_file_read_it(capsys, tmp_path, argv):
    # the file after an option is the input, as it is before the options
    path = write_doc(tmp_path, "k.json",
                     {"n_vertices": 4, "facets": [[0, 1], [1, 2], [0, 2], [2, 3]]})
    op, *options = argv
    late = run(capsys, ["complex", op, *options, path])
    assert late == run(capsys, ["complex", op, path, *options])
    assert late[0] == 0
