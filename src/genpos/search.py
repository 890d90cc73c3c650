"""The two searches of genpos, each depth-first on an explicit stack, so
never limited by Python's recursion limit.

max_extension, the branch-and-bound maximiser, grows the largest subset of
a mask of candidates, keeping at each depth the candidates still open (as
in Carraghan and Pardalos, "An exact algorithm for the maximum clique
problem", 1990). Each caller's grow charges its own budget: gp_number's one
node per flat it reads, for the points its flat index leaves unsettled, and
max_uniform_size's one per oracle query, for the elements of a matroid
(every matroid but the affine one, which goes through gp_number).
colorful_face picks one item per block, together accepted by a predicate of
the chosen list, one node per predicate call: solve_exhaustive (and so the
fallback of `genpos solve`'s auto method) for a representative system, and
find_colorful_face for a colorful face.
"""

from __future__ import annotations

from genpos.errors import BudgetExceeded

__all__ = ["DEFAULT_NODE_BUDGET", "colorful_face", "max_extension"]

DEFAULT_NODE_BUDGET = 10**7


def max_extension(items, grow, rank, cap=None, bound=None):
    """Size of the largest subset of ``items``, an int whose bits are the
    candidates, grown by include-first depth-first search from the lowest
    candidate w left: ``grow(chosen, w)``, chosen the OR of those taken,
    returns None when w cannot join chosen, and otherwise the mask of
    candidates that chosen | w rules out, which leave that branch. What grow
    accepts must be hereditary and, below ``rank`` chosen items, a plain
    independence test of a matroid on the items, and it may rule out only
    candidates that cannot join. A branch is cut when its depth plus its
    candidates left cannot beat the best size so far. The search counts no
    nodes: grow charges its caller's budget and raises BudgetExceeded past it.

    - cap: a size the answer is known not to exceed, clamped to the number
      of items. The search returns as soon as it finds a set of that size.
    - bound: a zero-argument callable returning another such size, for
      bounds too costly to compute up front. It is called at most once, when
      the first descent ends below cap and the first-descent rule below
      does not settle the search, and cap becomes the smaller of the two;
      a first descent that reaches cap never calls it.

    The first descent takes every candidate grow accepts. If it keeps
    s < ``rank`` items, each item it refused or ruled out was dependent on
    the kept prefix, so the items span a flat of rank s, where no accepted
    set has more than s items, and the search ends there.
    """
    cap = items.bit_count() if cap is None else min(cap, items.bit_count())
    if cap <= 0:
        return 0
    best = depth = chosen = 0
    cand = items
    stack = []  # (chosen, cand) of each pending exclusion, cand without its item
    first = True
    while True:
        while depth + cand.bit_count() > best:
            w = cand & -cand
            cand ^= w
            out = grow(chosen, w)
            if out is not None:
                stack.append((chosen, cand))
                chosen |= w
                cand &= ~out
                depth += 1
                if depth > best:
                    best = depth
                    if best >= cap:
                        return best
        if first:
            first = False
            if depth < rank:
                return best
            if bound is not None:
                cap = min(cap, bound())
                if best >= cap:
                    return best
        if not depth:
            return best
        chosen, cand = stack.pop()
        depth -= 1


def colorful_face(blocks, extends, node_budget=None):
    """Position of the chosen item in each block, for the lexicographically
    first choice of one item per block whose every prefix is accepted by
    ``extends(chosen, item)``, or None when there is no such choice.

    The search is depth-first, one level per block, trying each block's
    items in input order. node_budget caps the predicate calls (None:
    DEFAULT_NODE_BUDGET): it is checked whenever the search backtracks, and
    BudgetExceeded is raised past it, so a search that never backtracks is
    never refused. An empty block answers None at once.
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
