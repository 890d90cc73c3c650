"""Seeded verdict benchmark for genpos.

Usage, from the root of a source checkout:

    python3 verdictbench/run.py --workload decide|topology|degenerate \
        --seed N --seconds S --trace 0|1

One process, one client, closed loop: each verdict is a chain of `genpos`
command lines fed in-process to ``genpos.cli.entry`` (stdin and stdout are
swapped for strings, the exit code is read from ``SystemExit``), and the next
verdict starts when the last one ends. Whole passes over the workload's fixed
instance list repeat until ``--seconds`` have passed, and each instance's
time is the median of its passes. Every time reported, set-up included, is
given at reference speed (refclock.py): the host's speed, measured by a fixed
computation timed between verdicts, is divided out, and the raw wall-time
figures go to the run record. Outputs are checked against answer keys built
without genpos after the loop.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics are
the end-to-end ones; with ``--trace 1`` half the time runs untraced and half
traced, and the metrics are the per-layer ones. The run record, the result
and, when traced, the spans and per-verdict counters are also written to
verdictbench-out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time

import refclock
import tracing
import workloads

# A verdict that runs past this is stopped and counts as failed, at this
# time, in the percentiles; the slowest instance of any workload takes well
# under a quarter of it.
DEADLINE_S = 8.0
SETUP_REPEATS = 6
# Budgets and the backend switch change what is measured, so runs clear them.
CLEARED_ENV = ("GENPOS_BUDGET_FACES", "GENPOS_BUDGET_NODES", "GENPOS_PURE_KERNELS")
OUT_DIR = "verdictbench-out"


class VerdictDeadline(BaseException):
    """Raised by the timer signal. A BaseException, so the CLI's own
    ``except`` clauses cannot swallow it."""


def _on_alarm(signum, frame):
    raise VerdictDeadline()


def load_genpos(root):
    """Put root/src first on the import path and import genpos from there;
    return (genpos, genpos.cli, import seconds)."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "genpos", "cli.py")):
        raise SystemExit("verdictbench: no genpos sources under %s" % src)
    sys.path.insert(0, src)
    # the standard modules genpos needs are loaded first, so set-up time
    # covers genpos's own modules
    for name in ("argparse", "dataclasses", "fractions", "itertools", "json", "math", "random"):
        importlib.import_module(name)
    loaded = reimport()
    where = os.path.dirname(os.path.abspath(loaded[0].__file__))
    if where != os.path.join(os.path.abspath(src), "genpos"):
        raise SystemExit("verdictbench: imported genpos from %s, not %s" % (where, src))
    return loaded


def reimport():
    """Import genpos and genpos.cli from scratch: (genpos, cli, wall
    seconds)."""
    for name in [n for n in sys.modules if n == "genpos" or n.startswith("genpos.")]:
        del sys.modules[name]
    gc.collect()  # the previous copy is garbage; collecting it is not set-up
    t0 = time.perf_counter()
    genpos = importlib.import_module("genpos")
    cli = importlib.import_module("genpos.cli")
    return genpos, cli, time.perf_counter() - t0


def call(cli, argv, text):
    """One in-process command line: (exit code, stdout)."""
    saved = sys.stdin, sys.stdout, sys.stderr
    out = io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), out, io.StringIO()
    try:
        cli.entry(argv)
        code = "returned"
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an escaped exception is a wrong verdict, not a crash
        code = "raised %s" % type(exc).__name__
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue()


def run_verdict(cli, instance):
    """(seconds, exit codes, outputs); codes and outputs are None when the
    deadline stopped it."""
    codes, outs = [], []
    t0 = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
            for argv, source in instance.steps:
                code, out = call(cli, argv, source if isinstance(source, str) else outs[source])
                codes.append(code)
                outs.append(out)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except VerdictDeadline:
        return DEADLINE_S, None, None
    return time.perf_counter() - t0, codes, outs


class Loop:
    """Closed-loop passes over one instance list. Keeps the first outputs of
    each instance, and counts attempts and deadline misses."""

    def __init__(self, cli, instances):
        self.cli = cli
        self.instances = instances
        self.first = [None] * len(instances)
        self.changed = set()  # instances whose output differed between passes
        self.attempted = [0] * len(instances)
        self.missed = [0] * len(instances)
        self.pass_seconds = []

    def measure(self, seconds, hard_stop, clock, tracer=None, between=None):
        """Run whole passes for about ``seconds``, starting no pass that
        would end after them unless none has run yet; return each
        instance's verdicts as (wall seconds, index of the reference time
        taken just before). ``between()`` runs after every pass but the
        last and returns the CLI module to use next."""
        samples = [[] for _ in self.instances]
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            for i, inst in enumerate(self.instances):
                if time.perf_counter() > hard_stop:
                    break
                tick = clock.tick()
                if tracer is not None:
                    tracer.begin(len(self.pass_seconds), i, inst.kind)
                dt, codes, outs = run_verdict(self.cli, inst)
                if tracer is not None:
                    tracer.end()
                samples[i].append((dt, tick))
                self.attempted[i] += 1
                if codes is None:
                    self.missed[i] += 1
                elif self.first[i] is None:
                    self.first[i] = (codes, outs)
                elif self.first[i] != (codes, outs):
                    self.changed.add(i)
            now = time.perf_counter()
            self.pass_seconds.append(now - pass_start)
            if now - start + self.pass_seconds[-1] > seconds or now > hard_stop:
                clock.tick(force=True)  # the speed after the last verdicts
                return samples
            if between is not None:
                self.cli = between()

    def verify(self):
        """Check each instance's outputs against its key. Returns the set of
        instances that failed (wrong, or past the deadline), the number of
        wrong and failed attempts, and the first few messages."""
        bad, messages = set(), []
        for i, inst in enumerate(self.instances):
            msg = None
            if i in self.changed:
                msg = "output changed between passes"
            elif self.first[i] is not None:
                try:
                    msg = inst.verify(*self.first[i])
                except Exception as exc:  # output too malformed to compare
                    msg = "checking the output raised %r" % exc
            if msg:
                bad.add(i)
                if len(messages) < 5:
                    messages.append("%s #%d: %s" % (inst.kind, i, msg))
        wrong = sum(self.attempted[i] - self.missed[i] for i in bad)
        bad.update(i for i, n in enumerate(self.missed) if n)
        return bad, wrong, wrong + sum(self.missed), messages


def typical(samples, clock=None, failed=()):
    """Each attempted instance's median verdict time over its passes, at
    reference speed (in wall seconds without a clock), or the deadline for a
    failed one."""
    def at_speed(dt, tick):
        return dt * clock.scale(tick) if clock else dt

    return [DEADLINE_S if i in failed else statistics.median(at_speed(*s) for s in ss)
            for i, ss in enumerate(samples) if ss]


def run_record(args, genpos, env):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "kernel_backend": genpos.kernel_backend(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "genpos_env": env,
        "deadline_s": DEADLINE_S,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(times, setup_times, failed, attempted, rss_mb):
    ms = [t * 1e3 for t in times]
    values = {
        "setup_s": (statistics.median(setup_times), "s"),
        "verdicts_per_s": (len(times) / sum(times), "1/s"),
        "verdict_ms_p50": (statistics.median(ms), "ms"),
        "verdict_ms_p95": (statistics.quantiles(ms, n=20)[18], "ms"),
        "ok_frac": (1 - failed / attempted, "frac"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = {k: v for k, v in os.environ.items() if k.startswith("GENPOS_")}
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    started = time.perf_counter()
    clock = refclock.RefClock()
    setups = []  # (wall seconds, reference tick) of each fresh import

    def timed_import(how):
        tick = clock.tick(force=True)
        genpos, cli, seconds = how()
        setups.append((seconds, tick))
        return genpos, cli

    genpos, cli = timed_import(lambda: load_genpos(os.getcwd()))
    for _ in range(SETUP_REPEATS):
        genpos, cli = timed_import(reimport)
    instances = workloads.WORKLOADS[args.workload](args.seed)
    signal.signal(signal.SIGALRM, _on_alarm)
    # stop starting verdicts early enough for the checks and the report to
    # end within three minutes
    hard_stop = started + max(120, args.seconds * 2)

    def between_passes():
        # set-up is timed again between passes, so one slow stretch of the
        # machine does not decide it
        for _ in range(2):
            fresh = timed_import(reimport)
        clock.tick(force=True)
        return fresh[1]

    loop = Loop(cli, instances)
    tracer = None
    if args.trace:
        plain = loop.measure(args.seconds / 2, hard_stop, clock)
        tracer = tracing.Tracer()
        tracer.install(genpos)
        traced = loop.measure(args.seconds / 2, hard_stop, clock, tracer)
        overhead = sum(typical(traced, clock)) / sum(typical(plain, clock)) - 1
        bad, wrong, failed, messages = loop.verify()
        metrics = tracer.metrics(overhead)
    else:
        samples = loop.measure(args.seconds, hard_stop, clock, between=between_passes)
        rss_mb = peak_rss_mb()  # before the answer keys are built
        bad, wrong, failed, messages = loop.verify()
        setup_times = [dt * clock.scale(tick) for dt, tick in setups]
        metrics = end_to_end(typical(samples, clock, bad), setup_times, failed,
                             sum(loop.attempted), rss_mb)
        wall = end_to_end(typical(samples, None, bad), [dt for dt, _ in setups], failed,
                          sum(loop.attempted), rss_mb)

    record = run_record(args, genpos, env)
    record.update(pass_seconds=loop.pass_seconds, instances=len(instances), wrong=wrong,
                  messages=messages, reference_s=statistics.median(clock.samples),
                  reference_times=len(clock.samples))
    if not args.trace:
        record["wall_metrics"] = {k: v["value"] for k, v in wall.items()}
    result = {"correct": wrong == 0, "attempted": sum(loop.attempted), "failed": failed,
              "metrics": metrics}
    os.makedirs(OUT_DIR, exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        dump = {"run": record, "result": result}
        if tracer is not None:
            dump["work_counts"] = {p: tracing.work_counts(acc)
                                   for p, acc in tracer.per_pass().items()}
            dump["spans"] = tracer.spans
            dump["verdicts"] = tracer.verdicts
        json.dump(dump, fh)
    for msg in messages:
        print("wrong verdict: " + msg, file=sys.stderr)
    print(json.dumps({"run": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
