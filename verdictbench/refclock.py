"""Verdict times at a fixed reference speed.

The benchmark runs on a few cores of a shared host whose speed changes, for
tens of milliseconds to minutes at a time, by up to a factor of about 1.8,
and pure-Python code of one kind slows about alike while it does. A fixed
computation of the same kinds as genpos's own work, timed every ``EVERY_S``
seconds between verdicts, measures that speed. It has two halves, because a
slow stretch slows small searches more than dense integer elimination: the
answer-key oracle's exact general-position search on the 3 x 3 grid, like
the solver and geometry layers, and the fraction-free rank of a fixed +-1
matrix, like homology.

A wall time divided by the median of the reference times taken around it,
and multiplied by ``REF_S``, is the time it would take on a machine on which
the reference takes exactly ``REF_S``: a change to genpos moves it, a change
in the host's speed does not. ``REF_S`` is about what the reference takes on
one core of the 2-vCPU x86-64 VM the benchmark was written on, so these
times read close to that machine's wall times in a quiet stretch.

The reference (``reference_work`` and the oracle code it runs) and ``REF_S``
define the unit of every reported time; they must not change, or figures
taken before and after cannot be compared.
"""

from __future__ import annotations

import statistics
import time

import oracle

REF_S = 0.003
EVERY_S = 0.04
# a verdict's speed is the median of this many reference times on each side
# of the one taken just before it, and that one
WINDOW = 2

_GRID = [(x, y) for y in range(3) for x in range(3)]


def _sign_matrix(rows, cols):
    """A fixed matrix of -1, 0 and 1 entries from a linear congruential
    sequence."""
    x, out = 1, []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            x = (x * 1103515245 + 12345) % 2**31
            row.append((-1, 0, 0, 1)[(x >> 16) % 4])
        out.append(row)
    return out


_MATRIX = _sign_matrix(22, 44)


def fraction_free_rank(rows):
    """Rank by Bareiss elimination, every division exact."""
    rows = [list(r) for r in rows]
    rank, prev = 0, 1
    for col in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank][col]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            rows[i] = [(p * a - f * b) // prev for a, b in zip(rows[i], rows[rank])]
        prev = p
        rank += 1
    return rank


def reference_work():
    """The largest general-position subset of the 3 x 3 grid (6 points),
    found from scratch, and the rank of the fixed sign matrix (22)."""
    return (oracle.Configuration(_GRID, 2).gp_number((1 << len(_GRID)) - 1),
            fraction_free_rank(_MATRIX))


class RefClock:
    """Reference times taken at most every ``EVERY_S`` seconds."""

    def __init__(self):
        self.samples = []
        self.due = 0.0

    def tick(self, force=False):
        """Time the reference if it is due (or ``force``); return the index
        of the latest reference time, which stands for the speed now."""
        if force or not self.samples or time.perf_counter() >= self.due:
            t0 = time.perf_counter()
            reference_work()
            t1 = time.perf_counter()
            self.samples.append(t1 - t0)
            self.due = t1 + EVERY_S
        return len(self.samples) - 1

    def scale(self, index):
        """Factor that turns a wall time measured after tick ``index`` into
        a time at reference speed."""
        window = self.samples[max(0, index - WINDOW):index + WINDOW + 1]
        return REF_S / statistics.median(window)
