"""Pure-Python reference implementations of the exact linear-algebra kernels.

The compiled extension genpos._kernels._fastrank exports the same three
functions with identical semantics; this module is the fallback selected at
import time when the extension is unavailable. All arithmetic is on Python
ints, so results are exact for arbitrary magnitudes.
"""

from itertools import combinations

__all__ = ["int_det", "int_rank", "gp_extends"]


def int_det(rows):
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    if n == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = -1
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    piv = r
                    break
            if piv < 0:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pk = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            row_k = m[k]
            mik = row_i[k]
            for j in range(k + 1, n):
                # Bareiss step: the division by the previous pivot is exact
                row_i[j] = (pk * row_i[j] - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pk
    return sign * m[n - 1][n - 1]


def int_rank(rows):
    """Exact rank over the rationals of an integer matrix.

    Fraction-free elimination; row/column skipping keeps every intermediate
    entry a minor of the original matrix, so the pivot division stays exact.
    """
    m = [list(r) for r in rows]
    nr = len(m)
    if nr == 0:
        return 0
    nc = len(m[0])
    rank = 0
    prev = 1
    for col in range(nc):
        if rank == nr:
            break
        piv = -1
        for r in range(rank, nr):
            if m[r][col] != 0:
                piv = r
                break
        if piv < 0:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
        pk = m[rank][col]
        for i in range(rank + 1, nr):
            row_i = m[i]
            row_k = m[rank]
            mik = row_i[col]
            for j in range(col + 1, nc):
                row_i[j] = (pk * row_i[j] - mik * row_k[j]) // prev
            row_i[col] = 0
        prev = pk
        rank += 1
    return rank


def gp_extends(rows, new_row, d):
    """General-position extension predicate on homogeneous integer vectors.

    rows: primitive homogeneous vectors (length d+1) of a point list already
    in general position. True iff appending new_row keeps the list in general
    position, i.e. every subset of size <= d+1 containing the new point stays
    affinely independent.
    """
    k = len(rows)
    if k < d:
        mat = list(rows)
        mat.append(new_row)
        return int_rank(mat) == k + 1
    for combo in combinations(rows, d):
        mat = list(combo)
        mat.append(new_row)
        if int_det(mat) == 0:
            return False
    return True
