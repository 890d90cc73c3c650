# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled exact linear-algebra kernels.

Same contracts as genpos._kernels.pure. Determinants of matrices up to 4x4
whose entries fit in 28 bits run entirely on 128-bit machine integers (the
Hadamard-style bound 4! * (2^28)^4 < 2^127 keeps that exact); larger or wider
inputs fall back to fraction-free elimination on Python ints, still with
compiled loops.
"""

from itertools import combinations

from libc.stdlib cimport free, malloc

cdef extern from *:
    ctypedef long long i128 "__int128"

DEF SMALL_LIMIT = 268435456  # 2**28


cdef object _i128_to_int(i128 v):
    cdef bint neg = v < 0
    cdef unsigned long long hi, lo
    if -9223372036854775807 <= v <= 9223372036854775807:
        return <long long> v
    if neg:
        v = -v
    hi = <unsigned long long> (v >> 64)
    lo = <unsigned long long> (v & <i128> 0xFFFFFFFFFFFFFFFF)
    if neg:
        return -((int(hi) << 64) | int(lo))
    return (int(hi) << 64) | int(lo)


cdef inline i128 _det2(long long* m) noexcept:
    return (<i128> m[0]) * m[3] - (<i128> m[1]) * m[2]


cdef inline i128 _det3(long long* m) noexcept:
    return (
        (<i128> m[0]) * ((<i128> m[4]) * m[8] - (<i128> m[5]) * m[7])
        - (<i128> m[1]) * ((<i128> m[3]) * m[8] - (<i128> m[5]) * m[6])
        + (<i128> m[2]) * ((<i128> m[3]) * m[7] - (<i128> m[4]) * m[6])
    )


cdef i128 _det4(long long* m) noexcept:
    cdef long long sub[9]
    cdef i128 total = 0
    cdef i128 cof
    cdef Py_ssize_t col, j, r, w
    for col in range(4):
        w = 0
        for r in range(1, 4):
            for j in range(4):
                if j != col:
                    sub[w] = m[4 * r + j]
                    w += 1
        cof = _det3(sub)
        if col % 2 == 0:
            total += (<i128> m[col]) * cof
        else:
            total -= (<i128> m[col]) * cof
    return total


cdef inline i128 _det_n(long long* m, Py_ssize_t n) noexcept:
    if n == 2:
        return _det2(m)
    if n == 3:
        return _det3(m)
    return _det4(m)


cdef int _fill_small(object rows, long long* out, Py_ssize_t nr, Py_ssize_t nc) except -1:
    # Returns 1 when every entry fits under the machine-path magnitude bound.
    cdef Py_ssize_t i, j
    cdef object row, e
    for i in range(nr):
        row = rows[i]
        for j in range(nc):
            e = row[j]
            if e < -SMALL_LIMIT or e > SMALL_LIMIT:
                return 0
            out[i * nc + j] = e
    return 1


cdef object _det_object(object rows, Py_ssize_t n):
    cdef list m = [list(r) for r in rows]
    cdef Py_ssize_t i, j, k, piv
    cdef int sign = 1
    cdef object prev = 1
    cdef object pk, mik
    cdef list row_i, row_k
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = -1
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    piv = i
                    break
            if piv < 0:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        row_k = m[k]
        pk = row_k[k]
        for i in range(k + 1, n):
            row_i = m[i]
            mik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (pk * row_i[j] - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pk
    if sign > 0:
        return m[n - 1][n - 1]
    return -m[n - 1][n - 1]


def int_det(rows):
    """Exact determinant of a square integer matrix."""
    cdef Py_ssize_t n = len(rows)
    cdef long long buf[16]
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    if n <= 4 and _fill_small(rows, buf, n, n):
        return _i128_to_int(_det_n(buf, n))
    return _det_object(rows, n)


def int_rank(rows):
    """Exact rank over the rationals of an integer matrix."""
    cdef list m = [list(r) for r in rows]
    cdef Py_ssize_t nr = len(m)
    if nr == 0:
        return 0
    cdef Py_ssize_t nc = len(<list> m[0])
    cdef Py_ssize_t rank = 0, col, i, j, piv
    cdef object prev = 1
    cdef object pk, mik
    cdef list row_i, row_k
    for col in range(nc):
        if rank == nr:
            break
        piv = -1
        for i in range(rank, nr):
            if m[i][col] != 0:
                piv = i
                break
        if piv < 0:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
        row_k = m[rank]
        pk = row_k[col]
        for i in range(rank + 1, nr):
            row_i = m[i]
            mik = row_i[col]
            for j in range(col + 1, nc):
                row_i[j] = (pk * row_i[j] - mik * row_k[j]) // prev
            row_i[col] = 0
        prev = pk
        rank += 1
    return rank


def gp_extends(rows, new_row, d):
    """General-position extension predicate on homogeneous integer vectors.

    See genpos._kernels.pure.gp_extends for the contract. The machine path
    pre-converts everything to 64-bit once and runs the d-subset determinant
    loop without touching Python objects.
    """
    cdef Py_ssize_t k = len(rows)
    cdef Py_ssize_t dd = d
    cdef Py_ssize_t w = dd + 1
    if k < dd:
        mat = list(rows)
        mat.append(new_row)
        return int_rank(mat) == k + 1
    if dd <= 3:
        return _gp_extends_fast(rows, new_row, k, dd, w)
    return _gp_extends_object(rows, new_row, dd)


cdef object _gp_extends_object(rows, new_row, Py_ssize_t d):
    for combo in combinations(rows, d):
        mat = list(combo)
        mat.append(new_row)
        if int_det(mat) == 0:
            return False
    return True


cdef object _gp_extends_fast(rows, new_row, Py_ssize_t k, Py_ssize_t d, Py_ssize_t w):
    cdef long long* R = <long long*> malloc((k + 1) * w * sizeof(long long))
    if R == NULL:
        raise MemoryError()
    cdef long long buf[16]
    cdef Py_ssize_t idx[4]
    cdef Py_ssize_t i, j, t
    cdef bint done
    try:
        if not _fill_small(rows, R, k, w) or not _fill_small([new_row], R + k * w, 1, w):
            return _gp_extends_object(rows, new_row, d)
        for j in range(w):
            buf[d * w + j] = R[k * w + j]
        for i in range(d):
            idx[i] = i
        while True:
            for i in range(d):
                t = idx[i]
                for j in range(w):
                    buf[i * w + j] = R[t * w + j]
            if _det_n(buf, w) == 0:
                return False
            # advance to the next d-combination of range(k), lexicographic
            done = True
            for i in range(d - 1, -1, -1):
                if idx[i] != i + k - d:
                    idx[i] += 1
                    for j in range(i + 1, d):
                        idx[j] = idx[j - 1] + 1
                    done = False
                    break
            if done:
                return True
    finally:
        free(R)
