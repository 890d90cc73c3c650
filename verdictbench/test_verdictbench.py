"""Tests of the benchmark itself: oracle, keys, deadline, tracing, contract.

Run from the root of the repository:  python3 -m pytest verdictbench -q
"""

import json
import os
import subprocess
import sys
import time

import pytest

import compare
import oracle
import refclock
import run
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


@pytest.fixture(scope="module")
def cli():
    return run.load_genpos(ROOT)[1]


def bench(workload, trace, seconds="0.01", seed="3"):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", seed, "--seconds", seconds, "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(ROOT, run.OUT_DIR, "%s-seed%s-trace%s.json" % (workload, seed, trace))
    with open(path, encoding="utf-8") as fh:
        return result, json.load(fh)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# oracle against known values


def grid(n):
    return [(x, y) for y in range(n) for x in range(n)]


@pytest.mark.parametrize("n, want", [(2, 4), (3, 6), (4, 8)])
def test_oracle_no_three_in_line(n, want):
    conf = oracle.Configuration(grid(n), 2)
    assert conf.gp_number((1 << len(conf.points)) - 1) == want


def test_oracle_general_position_and_rank():
    conf = oracle.Configuration(workloads.curve(3, range(-3, 5)), 3)
    assert conf.gp_number((1 << 8) - 1) == 8
    # four points of the unit square are coplanar in 3-space
    square = oracle.Configuration([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)], 3)
    assert not square.in_general_position([0, 1, 2, 3])
    assert square.in_general_position([0, 1, 2, 4])
    assert oracle.rank([[1, 2, 3], [2, 4, 6], [0, 1, 1]]) == 2


def test_oracle_layers_and_systems():
    # at most 3 points of a plane can be in general position in 3-space
    conf = oracle.Configuration([p for X in workloads._layers3(3, 3, 2) for p in X], 3)
    assert conf.gp_number((1 << 9) - 1) == 3
    # three sets on one line: two picks are fine, a third is collinear
    line = {"d": 2, "sets": [[[0, 0]], [[1, 1]], [[2, 2], [3, 3]]]}
    conf, sets = oracle.family_config(line)
    assert conf.has_system(sets[:2]) and not conf.has_system(sets)
    assert oracle.union_gp_numbers(line)[(0, 1, 2)] == 2


def test_oracle_complexes():
    assert oracle.join_betti([3, 3, 3]) == [0, 0, 8]
    assert oracle.join_f_vector([2, 3]) == [5, 6]
    # the path 0 - 1 - 2: every vertex has a neighbour, but no vertex is
    # joined to both 0 and 1; three vertices are too few to be 3-star
    path = {0, 0b001, 0b010, 0b100, 0b011, 0b110}
    assert oracle.q_star(path, 1) == (True, None)
    assert oracle.q_star(path, 2) == (False, [0, 1])
    assert oracle.q_star(path, 3) == (False, None)
    # four points, three on a line: the collinear triple is dependent
    pts = [(0, 0), (1, 1), (2, 2), (0, 1)]
    faces = oracle.independent_faces(pts, 2)
    assert 0b0111 not in faces and 0b1011 in faces
    assert oracle.complex_doc(4, faces)["n_faces"] == 1 + 4 + 6 + 3
    # on a line in the plane (rank 2) every set of distinct points is uniform
    assert len(oracle.uniform_faces([(0, 0), (1, 1), (2, 2)], 2)) == 8


# ---------------------------------------------------------------------------
# workloads and keys


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_new_seed_keeps_composition(name):
    a, b = workloads.WORKLOADS[name](1), workloads.WORKLOADS[name](2)
    assert len(a) >= 200
    assert [i.kind for i in a] == [i.kind for i in b]
    assert [[argv[:2] for argv, _ in i.steps] for i in a] == \
        [[argv[:2] for argv, _ in i.steps] for i in b]
    assert [i.steps for i in a] != [i.steps for i in b]
    assert [i.steps for i in a] == [i.steps for i in workloads.WORKLOADS[name](1)]


def _corrupt(text):
    doc = json.loads(text)
    if "status" in doc:
        doc["representatives"] = doc.get("representatives", [])[::-1]
        doc["status"] = "not_found" if doc["status"] == "found" else "found"
    elif "holds" in doc:
        doc["holds"] = not doc["holds"]
    elif "betti" in doc:
        doc["betti"][-1] += 1
    else:
        doc["n_faces"] += 1
    return json.dumps(doc)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_keys_accept_genpos_and_catch_corruption(cli, name):
    seen = set()
    for inst in workloads.WORKLOADS[name](5):
        if inst.kind in seen or inst.kind in ("grid-rows-5", "layers3-3x3x2"):
            continue
        seen.add(inst.kind)
        _, codes, outs = run.run_verdict(cli, inst)
        assert inst.verify(codes, outs) is None, inst.kind
        assert inst.verify(codes, outs[:-1] + [_corrupt(outs[-1])]), inst.kind
        assert inst.verify(codes[:-1] + [3], outs), inst.kind


def test_loop_counts_a_wrong_verdict(cli):
    instances = workloads.decide(1)[:3]
    loop = run.Loop(cli, instances)
    samples = loop.measure(0, time.perf_counter() + 60, refclock.RefClock())
    assert loop.verify() == (set(), 0, 0, [])
    codes, outs = loop.first[1]
    loop.first[1] = (codes, [_corrupt(outs[0])])
    bad, wrong, failed, messages = loop.verify()
    assert (bad, wrong, failed, len(messages)) == ({1}, 1, 1, 1)
    # a failed verdict counts at the deadline
    assert run.typical(samples, None, bad)[1] == run.DEADLINE_S
    # output too malformed for the key check is a wrong verdict, not a crash
    loop.first[1] = (codes, ["[1]"])
    bad, wrong, failed, messages = loop.verify()
    assert bad == {1} and "raised" in messages[0]


def test_deadline_stops_a_verdict_beyond_reach(cli, monkeypatch):
    # the 6 x 6 grid takes seconds on any backend; the timer's exception is
    # a BaseException, so the CLI's error handling cannot swallow it
    monkeypatch.setattr(run, "DEADLINE_S", 0.2)
    run.signal.signal(run.signal.SIGALRM, run._on_alarm)
    slow = workloads._grid_rows(workloads.random.Random(0), 6)
    t0 = time.perf_counter()
    assert run.run_verdict(cli, slow) == (0.2, None, None)
    assert time.perf_counter() - t0 < 2


def test_reference_speed_divides_out_the_host():
    clock = refclock.RefClock()
    # the host runs at half speed for the first five reference times, then
    # at full speed: a verdict's time scales with the speed around it
    clock.samples = [2 * refclock.REF_S] * 5 + [refclock.REF_S] * 5
    assert clock.scale(1) == 0.5 and clock.scale(8) == 1.0
    samples = [[(0.02, 1), (0.01, 8), (0.011, 9)]]
    assert run.typical(samples, clock) == [0.01]
    assert run.typical(samples) == [0.011]
    # a real reference time is taken at most every EVERY_S seconds
    live = refclock.RefClock()
    assert live.tick() == 0 and live.tick() == 0 and live.tick(force=True) == 1
    assert refclock.reference_work() == (6, 22)
    assert oracle.rank(refclock._MATRIX) == 22


def test_refuses_without_sources():
    with pytest.raises(SystemExit):
        run.load_genpos(HERE)


# ---------------------------------------------------------------------------
# whole runs


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run(name):
    result, dump = bench(name, "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 200
    want = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert dump["run"]["kernel_backend"] in ("pure", "cython")


def test_traced_counts_repeat():
    first, dump1 = bench("topology", "1")
    second, dump2 = bench("topology", "1")
    want = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == want
    assert first["correct"] and second["correct"]
    counts1 = list(dump1["work_counts"].values())
    assert counts1 == list(dump2["work_counts"].values())
    assert counts1[0]["homology.rank_calls"] > 0
    counts = ("homology.rank_cells", "complexes.faces_built", "kernels.int_rank_calls")
    assert [first["metrics"][c] for c in counts] == [second["metrics"][c] for c in counts]
    assert all(s[2] is not None for s in dump1["spans"])


def test_benchmark_json_lists_the_layer_metrics():
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec()["per_layer"]}
    assert per_layer == {k: v[:2] for k, v in tracing.METRICS.items()}


def test_compare_refuses_mixed_backends():
    base = os.path.join(ROOT, run.OUT_DIR, "compare-test")
    for sub, backend in (("a", "pure"), ("b", "cython")):
        os.makedirs(os.path.join(base, sub), exist_ok=True)
        doc = {"run": {"kernel_backend": backend, "workload": "decide"},
               "result": {"metrics": {}}}
        with open(os.path.join(base, sub, "decide-seed1-trace0.json"), "w") as fh:
            json.dump(doc, fh)
    assert compare.main([os.path.join(base, "a"), os.path.join(base, "b")]) == 2
