"""Smoke tests of the scripts under benchmarks/: bench_kernels.py runs and
prints a row for every case it builds, alone and against a second source
tree; verdict_digest.py prints one well-formed digest line per workload and
seed, the same each run, and writes nothing under verdictbench/."""

import importlib.util
import os
import random
import re
import subprocess
import sys

import genpos

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "benchmarks", "bench_kernels.py")
DIGEST = os.path.join(ROOT, "benchmarks", "verdict_digest.py")


def test_bench_kernels_prints_every_row():
    spec = importlib.util.spec_from_file_location("bench_kernels", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    labels = [label for label, _ in bench.build_cases(random.Random(0))]
    assert len(labels) == 38
    assert labels[16:] == [
        "cli parse 6 argv",
        "independence 9 pts d=3", "uniformity 9 pts d=3",
        "independence 9 coplanar d=3", "uniformity 9 coplanar d=3",
        "gp complex 16 pts d=2 c=3", "gp complex 9 pts d=3",
        "completion j=1 graph n=14", "completion j=3 10 pts d=3",
        "complex_from_doc 3x3x3x3", "complex_to_doc 3x3x3x3", "betti_up_to 3x3x3x3",
        "betti_up_to gp d=1 k=2",
        "check hall grid rows 4x4", "check greedy pool m=4", "check greedy m=4",
        "greedy solve d=2 m=5", "counterexample d=2 m=10",
        "solve_exhaustive cex d=3 m=5", "solve_exhaustive 64 parabola",
        "gp complex 300 pts d=3 c=2", "gp_number 6x6 grid",
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
    src = os.path.dirname(os.path.dirname(os.path.abspath(genpos.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, script, *args],
                          capture_output=True, text=True, env=env, timeout=120)
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc
