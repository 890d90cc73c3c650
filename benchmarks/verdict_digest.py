"""Digest of every verdict step's output, to tell whether two source trees
answer alike.

For each workload of verdictbench (decide, topology, degenerate) and each
seed, runs every step of every verdict once, in process, with genpos
imported from ROOT/src, and prints one line:

    WORKLOAD seed=N steps=S sha256=HEX

where HEX is the sha256 of each step's argv, exit code and stdout, in
order. Two trees that print the same lines gave the same answers, byte for
byte, on those verdicts. Verdicts are timed by nothing and stopped by no
deadline, and no run record is written; the budget variables that
verdictbench clears are cleared here too.

The workloads, the import of genpos and the in-process call are
verdictbench/run.py's own (load_genpos, call, workloads.WORKLOADS), read
without writing bytecode under verdictbench/ or ROOT/src.

Run:  python benchmarks/verdict_digest.py ROOT [--seeds 7,4242]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "verdictbench"))

import run  # noqa: E402  (verdictbench/run.py)
import workloads  # noqa: E402


def digest(cli, instances):
    """(steps, sha256 hex) of every step of instances, run in order."""
    h = hashlib.sha256()
    steps = 0
    for instance in instances:
        outs = []
        for argv, source in instance.steps:
            code, out = run.call(cli, argv, source if isinstance(source, str) else outs[source])
            outs.append(out)
            h.update(json.dumps([argv, code, out]).encode())
            steps += 1
    return steps, h.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("root", help="a checkout whose src/ holds genpos")
    ap.add_argument("--seeds", default="7,4242", help="comma-separated seeds")
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    for name in run.CLEARED_ENV:
        os.environ.pop(name, None)
    _, cli, _ = run.load_genpos(os.path.abspath(args.root))
    for name in workloads.WORKLOADS:
        for seed in seeds:
            steps, hexdigest = digest(cli, workloads.WORKLOADS[name](seed))
            print("%s seed=%d steps=%d sha256=%s" % (name, seed, steps, hexdigest))
    return 0


if __name__ == "__main__":
    sys.exit(main())
