"""The two searches of genpos, each depth-first on an explicit stack, so
never limited by Python's recursion limit, with every predicate call one node
charged against a budget.

max_extension, the branch-and-bound maximiser, grows the largest subset of a
list of one-bit masks that a hereditary predicate, handed the OR of those
chosen, accepts in input order: gp_number for the points its flat index
leaves unsettled, under a popcount test on the flats through each, and
max_uniform_size for matroid elements under oracle queries. colorful_face
picks one item per block, together accepted by a predicate of the chosen
list: solve_exhaustive (and so the fallback of `genpos solve`'s auto method)
for a representative system, and find_colorful_face for a colorful face.
"""

from __future__ import annotations

from genpos.errors import BudgetExceeded

__all__ = ["DEFAULT_NODE_BUDGET", "colorful_face", "max_extension"]

DEFAULT_NODE_BUDGET = 10**7


def max_extension(items, extends, rank, lower=0, cap=None, node_budget=None,
                  bound=None, nodes=0):
    """Size of the largest sublist of ``items``, distinct one-bit masks,
    whose every prefix is accepted by ``extends(chosen, item)``, chosen the
    int OR of the prefix, found by include-first depth-first search.

    ``extends`` must be hereditary and, below ``rank`` chosen items, a plain
    independence test of a matroid on ``items``. A branch is cut when the
    items left cannot beat the best size so far.

    - lower: a size the answer is known to reach. Only larger sets are
      sought; lower is returned when none exists.
    - cap: a size the answer is known not to exceed, clamped to
      len(items). The search returns as soon as it finds a set of that size.
    - bound: a zero-argument callable returning another such size, for
      bounds too costly to compute up front. It is called at most once, when
      the first descent ends below cap and the first-descent rule below
      does not settle the search, and cap becomes the smaller of the two;
      a first descent that reaches cap never calls it.
    - node_budget: predicate calls allowed (None: DEFAULT_NODE_BUDGET),
      of which ``nodes`` were already spent before the search (on building
      the index behind the predicate, say). It is checked whenever the
      search backtracks, and BudgetExceeded is raised past it; a search
      therefore overruns it by less than one descent, and a search that
      never backtracks is never refused.

    The first descent takes every item the predicate accepts. If it keeps
    s < ``rank`` items, each item it rejected was dependent on the kept
    prefix, so the items it tested span a flat of rank s, where no accepted
    set has more than s items; with the items it left untested (none, or
    too few to beat the best size) nothing beats the best size, and the
    search ends there.
    """
    n = len(items)
    best = lower
    cap = n if cap is None else min(cap, n)
    if best >= cap:
        return best
    budget = DEFAULT_NODE_BUDGET if node_budget is None else node_budget
    chosen = 0
    picked = []  # input positions of chosen, the stack of pending exclusions
    first = True
    i = 0
    while True:
        while i < n and len(picked) + n - i > best:
            nodes += 1
            item = items[i]
            if extends(chosen, item):
                chosen |= item
                picked.append(i)
                if len(picked) > best:
                    best = len(picked)
                    if best >= cap:
                        return best
            i += 1
        if first:
            first = False
            if len(picked) < rank:
                return best
            if bound is not None:
                cap = min(cap, bound())
                if best >= cap:
                    return best
        if not picked:
            return best
        if nodes > budget:
            raise BudgetExceeded("search exceeds %d nodes" % budget)
        i = picked.pop() + 1
        chosen ^= items[i - 1]


def colorful_face(blocks, extends, node_budget=None):
    """Position of the chosen item in each block, for the lexicographically
    first choice of one item per block whose every prefix is accepted by
    ``extends(chosen, item)``, or None when there is no such choice.

    The search is depth-first, one level per block, trying each block's
    items in input order. node_budget caps the predicate calls (None:
    DEFAULT_NODE_BUDGET) as in max_extension: it is checked whenever the
    search backtracks, and BudgetExceeded is raised past it. An empty block
    answers None at once.
    """
    if not all(blocks):
        return None
    budget = DEFAULT_NODE_BUDGET if node_budget is None else node_budget
    nodes = 0
    chosen = []
    picked = []  # position in its block of each chosen item
    i = 0
    while len(picked) < len(blocks):
        block = blocks[len(picked)]
        for j in range(i, len(block)):
            nodes += 1
            if extends(chosen, block[j]):
                chosen.append(block[j])
                picked.append(j)
                i = 0
                break
        else:
            if not picked:
                return None
            if nodes > budget:
                raise BudgetExceeded("colorful-face search exceeds %d nodes" % budget)
            i = picked.pop() + 1
            chosen.pop()
    return picked
