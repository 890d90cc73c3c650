"""The exact linear-algebra kernels, in pure Python.

All arithmetic is on Python ints, so results are exact for arbitrary
magnitudes.

int_det and int_rank are fraction-free Bareiss elimination. No package code
calls int_det: it stays for verdictbench's tracer, which counts its calls,
and for benchmarks/bench_kernels.py, which times it. It goes with ROADMAP
item 7, once item 1's benchmark change has landed. gp_extends does
not take determinants: it projects the prefix radially from the candidate
point and requires every d of the directions to be independent, hashing
lines in the plane and recursing on the dimension above it, in the manner
of Gajentaan and Overmars, "On a class of O(n^2) problems in computational
geometry" (1995).
"""

from math import gcd

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


def gp_extends(rows, new_row):
    """General-position extension predicate on homogeneous integer vectors.

    rows: primitive homogeneous vectors (length d+1, last entry positive,
    with d read from new_row) of a point list already in general position.
    True iff appending new_row keeps the list in general position, i.e.
    every subset of size <= d+1 containing the new point stays affinely
    independent.

    With k = len(rows) >= d only the (d+1)-subsets through the new point p
    need checking, and the radial projection from p decides them: every d of
    the directions q - p must be linearly independent. Cost O(k^(d-1)) set
    operations instead of C(k, d) determinants. A point on its own is in
    general position, and so is any pair of distinct points, or in d = 1 any
    set of them; the vectors are canonical, so distinct points are unequal
    vectors.
    """
    k = len(rows)
    d = len(new_row) - 1
    if k <= 1 or d == 1:
        return new_row not in rows
    if k < d:
        mat = list(rows)
        mat.append(new_row)
        return int_rank(mat) == k + 1
    return _through(new_row, d, rows)


def _through(p, a, rows):
    """True iff every n of the integer n-vectors {p} + rows that include p
    are linearly independent, where n = len(p) >= 3, p[a] != 0 and
    len(rows) >= n - 1.

    The fraction-free quotient q -> p[a]*q - q[a]*p, with coordinate a
    dropped, maps Z^n into Z^(n-1) with kernel the line of p; the condition
    holds iff every n - 1 of the images are independent. Taking p as the new
    point and a as the homogeneous coordinate, the images are the directions
    pw*q - qw*p, which point the same way as q - p because pw, qw > 0.
    """
    n = len(p)
    pa = p[a]
    if n == 3:
        # images in the plane: each must be nonzero and on its own line
        b, c = (1, 2) if a == 0 else (0, 2) if a == 1 else (0, 1)
        pb = p[b]
        pc = p[c]
        seen = set()
        for q in rows:
            qa = q[a]
            s = pa * q[b] - qa * pb
            t = pa * q[c] - qa * pc
            g = gcd(s, t)
            if not g:
                return False
            if s < 0 or (not s and t < 0):
                g = -g
            key = (s // g, t // g)
            if key in seen:
                return False
            seen.add(key)
        return True
    keep = [t for t in range(n) if t != a]
    images = [[pa * q[t] - q[a] * p[t] for t in keep] for q in rows]
    # every n - 1 of the images, by its first member v: v and n - 2 later ones
    for i in range(len(images) - n + 2):
        v = images[i]
        for b, x in enumerate(v):
            if x:
                break
        else:
            return False
        if not _through(v, b, images[i + 1:]):
            return False
    return True
