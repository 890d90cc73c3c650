"""Smoke tests of the scripts under benchmarks/, run as from a checkout with
no PYTHONPATH: bench_kernels.py runs and prints a row for every case it
builds, alone and against a second source tree; verdict_digest.py prints
one well-formed digest line per workload and seed, the same each run, and
writes nothing under verdictbench/."""

import importlib.util
import os
import random
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "benchmarks", "bench_kernels.py")
DIGEST = os.path.join(ROOT, "benchmarks", "verdict_digest.py")


def test_bench_kernels_prints_every_row():
    spec = importlib.util.spec_from_file_location("bench_kernels", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    labels = [label for label, _ in bench.build_cases(random.Random(0))]
    assert len(labels) == 57
    assert labels[11:18] == [
        "FlatIndex 6x6 grid d=2", "FlatIndex 3x3x3 cube d=3", "FlatIndex 40 moment d=3",
        "FlatIndex grid rows 4x4 d=2", "FlatIndex cex d=3 m=5", "FlatIndex 40 moment top=1",
        "FlatIndex planted d=4",
    ]
    assert labels[18:21] == ["family_from_doc 4k coords", "family_from_doc 4k ratio coords",
                             "family_to_doc 4k coords"]
    assert labels[21:] == [
        "cli parse 6 argv", "cli parse 6 argv fallback",
        "independence 9 pts d=3", "uniformity 9 pts d=3",
        "independence 9 coplanar d=3", "uniformity 9 coplanar d=3",
        "cli uniformity --rank 3 n=24",
        "gp complex 16 pts d=2 c=3", "gp complex 9 pts d=3",
        "completion j=1 graph n=14", "completion j=3 10 pts d=3",
        "complex_from_doc 3x3x3x3", "complex_to_doc 3x3x3x3",
        "complex_from_doc 3x3x3x3 sparse", "betti_up_to 3x3x3x3",
        "betti_up_to gp d=1 k=2", "complex_to_doc gp d=1 k=2", "betti_up_to 30 triangles k=2",
        "neighborhood 30 triangles", "complex_to_doc closure 16 pts",
        "check hall grid rows 4x4", "check greedy pool m=4", "check greedy m=4",
        "check hall counterexample d=3 m=5",
        "greedy solve d=2 m=5", "solve matroid d=3 m=4", "counterexample d=2 m=10",
        "solve_exhaustive cex d=3 m=5", "solve_exhaustive 64 parabola",
        "gp complex 300 pts d=3 c=2", "gp_number 6x6 grid", "gp_number 7x7 grid",
        "gp_number 3x3x3 cube", "solve matroid d=12 m=8",
        "check hall grid rows 6x6", "is_q_star gp d=3 24 pts q=3",
    ]

    proc = run_script("--repeat", "1")
    rows = [row.rsplit(None, 1) for row in proc.stdout.splitlines()[1:]]
    assert [label for label, _ in rows] == labels
    assert all(float(ms) > 0 for _, ms in rows)

    # against this same checkout: one row per case, two timings and a ratio
    proc = run_script("--repeat", "1", "--against", ROOT)
    rows = [row.rsplit(None, 3) for row in proc.stdout.splitlines()[1:]]
    assert [row[0] for row in rows] == labels
    assert all(float(x) > 0 for row in rows for x in row[1:])


def test_against_a_tree_without_sources_exits_with_a_message(tmp_path):
    proc = run_script("--against", str(tmp_path), check=False)
    assert proc.returncode != 0 and proc.stdout == ""
    assert proc.stderr == "bench_kernels: no genpos sources under %s\n" % (tmp_path / "src")


def test_verdict_digest_repeats_itself_and_writes_nothing():
    bench = os.path.join(ROOT, "verdictbench")
    before = sorted(os.listdir(bench))
    runs = [run_script(ROOT, "--seeds", "7", script=DIGEST).stdout for _ in range(2)]
    assert re.fullmatch("".join(
        r"%s seed=7 steps=[1-9][0-9]* sha256=[0-9a-f]{64}\n" % name
        for name in ("decide", "topology", "degenerate")), runs[0])
    assert runs[1] == runs[0]
    assert sorted(os.listdir(bench)) == before


def run_script(*args, check=True, script=SCRIPT):
    # as from a checkout, with no PYTHONPATH: each script finds the sources
    # it runs on by itself
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, script, *args],
                          capture_output=True, text=True, env=env, timeout=120)
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc
