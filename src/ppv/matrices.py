"""Small exact matrices as nested tuples; entries are any ring elements here."""

from __future__ import annotations


def mat(rows) -> tuple:
    return tuple(tuple(r) for r in rows)


def mat_map(a, fn) -> tuple:
    return tuple(tuple(fn(x) for x in row) for row in a)


def mat_add(a, b) -> tuple:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a, b) -> tuple:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_mul(a, b) -> tuple:
    n, k, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = None
            for s in range(k):
                term = a[i][s] * b[s][j]
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_identity(n: int, one) -> tuple:
    zero = one.zero_like()
    return tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n)
    )


def mat_is_zero(a) -> bool:
    return all(x.is_zero() for row in a for x in row)


def mat_pow(a, k: int, one) -> tuple:
    out = mat_identity(len(a), one)
    for _ in range(k):
        out = mat_mul(out, a)
    return out


def is_unipotent(g, one) -> bool:
    """(g - 1)^n = 0 for an n x n matrix over an exact field."""
    n = len(g)
    nil = mat_sub(g, mat_identity(n, one))
    return mat_is_zero(mat_pow(nil, n, one))


def exp_nilpotent(e, c, one) -> tuple:
    """exp(c*e) for nilpotent e: the sum terminates at the matrix size."""
    n = len(e)
    out = mat_identity(n, one)
    term = mat_identity(n, one)
    fact = 1
    for k in range(1, n + 1):
        term = mat_mul(term, e)
        fact *= k
        scaled = mat_map(term, lambda x: x * c**k * _inv_int(one, fact))
        out = mat_add(out, scaled)
    return out


def _inv_int(one, n: int):
    return one / (one * n)
