"""Exact linear algebra over any field element type used here.

Every function reads its result from one Gauss-Jordan pass.  Over a
field of constants (Scalar entries) the pass scales each pivot to one.
Over K = Q(zeta_N)(t), or K(x), it is fraction-free (E. H. Bareiss,
Math. Comp. 22, 1968): each row is first multiplied by the lcm of its
denominators, which keeps the row space, the reduced row echelon form,
the rank and the nullspace, and the pass then works on the numerators
with products and exact polynomial divisions only, so no entry is
reduced by a gcd until the result is read.
"""

from __future__ import annotations

import operator
from functools import reduce

from .rationals import RatFunc, _cleared, _exact
from .scalars import Scalar


def _gauss_jordan(rows: list[list]):
    """(reduced rows, pivot columns, signed pivot value, the row lcms or None).

    Row r of the reduced form is 1 at pivot column r, 0 at the other
    pivot columns, and eliminated entries elsewhere; the rows past the
    rank are zero.  Over the constants, each pivot row is scaled to its
    pivot one, every other row i has a_ij -= a_ic * a_rj, and the
    determinant is the signed pivot product.  Over K, with p the pivot
    and p_prev the one before (1 at first), every row i != r has
    a_ij <- (p*a_ij - a_ic*a_rj) / p_prev, zero a_ic included, so every
    entry stays a minor of the numerator rows and every division is
    exact; the reduced entries are a_ij / p for the last pivot p, and the
    determinant is the signed last pivot over the product of the row
    lcms.  Only the columns that are not yet pivots are updated, since
    nothing reads a pivot column again.  The determinant is None without
    pivots and meaningful only at full rank.
    """
    if not rows or not rows[0]:
        return [list(r) for r in rows], [], None, None
    zero = rows[0][0].zero_like()
    one = zero.one_like()
    fraction_free = all(isinstance(x, RatFunc) for row in rows for x in row)
    if fraction_free:
        cleared = [_cleared(row) for row in rows]
        rows, scales = [r for r, _ in cleared], [lcm for _, lcm in cleared]
    else:
        rows, scales = [list(r) for r in rows], None
    ncols = len(rows[0])
    pivots, acc, sign, prev = [], None, 1, None
    free = list(range(ncols))  # the columns that are not pivots yet
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if not rows[i][c].is_zero()), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot], sign = rows[pivot], rows[r], -sign
        pivots.append(c)
        free.remove(c)
        prow, p = rows[r], rows[r][c]
        if fraction_free:
            acc = p
        else:
            acc = p if acc is None else acc * p
            inv = p.one_like() / p
            scalar = isinstance(inv, Scalar)
            for j in free:
                x = prow[j]
                # a zero Scalar times inv is itself when inv's order divides its own
                if not (scalar and type(x) is Scalar and x.is_zero() and x.order % inv.order == 0):
                    prow[j] = x * inv
        for i, row in enumerate(rows):
            if i == r:
                continue
            f = row[c]
            if fraction_free:
                for j in free:
                    x = p * row[j] - f * prow[j]
                    row[j] = x if prev is None else _exact(x, prev)
            elif not f.is_zero():
                for j in free:
                    row[j] = row[j] - f * prow[j]
        prev = p
    if fraction_free:
        # the eliminated entries, each over the last pivot
        for row in rows:
            for j in free:
                row[j] = zero if row[j].is_zero() else RatFunc(row[j], acc)
    for r, c in enumerate(pivots):
        for i, row in enumerate(rows):
            row[c] = one if i == r else zero
    return rows, pivots, acc if sign > 0 or acc is None else -acc, scales


def rref(rows: list[list]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    return _gauss_jordan(rows)[:2]


def rank(rows: list[list]) -> int:
    """The number of pivots: the dimension of the row space."""
    return len(_gauss_jordan(rows)[1])


def nullspace(rows: list[list], zero, one) -> list[list]:
    """Basis of the right nullspace, one vector per free column."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots, _, _ = _gauss_jordan(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [zero] * ncols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


def det(matrix: list[list]):
    """Determinant of a square matrix: the signed pivot product, or zero."""
    if not matrix:
        raise ValueError("determinant of empty matrix")
    _, pivots, signed, scales = _gauss_jordan(matrix)
    if len(pivots) < len(matrix):
        return matrix[0][0].zero_like()
    return signed if scales is None else RatFunc(signed, reduce(operator.mul, scales))
