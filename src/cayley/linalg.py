"""Exact linear algebra over the rationals.

Internal substrate for the symmetry solver (nullspaces, ranks) and the
geometric invariants (matrix inversion, inertia of symmetric forms).  All
routines take lists of lists of Fraction-compatible values and never touch
floating point.  Nullspace, rank and inversion read one sparse reduced row
echelon form; inertia is a symmetric congruence reduction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Matrix = list[list[Fraction]]


def _reduced_echelon(rows: Sequence[Sequence]) -> tuple[list[dict[int, Fraction]], list[int]]:
    """Reduced row echelon form of dense rows, computed on sparse rows.

    A sparse row maps column -> nonzero Fraction.  The pivot is the smallest
    column present in any remaining row, taken from the first row that holds
    it; only rows holding the pivot column are updated.  Returns the nonzero
    rows of the reduced form, each without its pivot entry (which is 1), and
    their pivot columns, both in ascending pivot order.  The reduced form is
    unique, so the result does not depend on the pivot rule.
    """
    # `v and` skips the many zeros without building a Fraction; a value
    # such as the string "0" is converted first and then dropped.
    pending = [{j: f for j, v in enumerate(row) if v and (f := Fraction(v))} for row in rows]
    pending = [row for row in pending if row]
    reduced: list[dict[int, Fraction]] = []
    pivots: list[int] = []
    while pending:
        col = min(min(row) for row in pending)
        pivot_row = pending.pop(next(i for i, row in enumerate(pending) if col in row))
        scale = pivot_row.pop(col)
        pivot_row = {j: v / scale for j, v in pivot_row.items()}
        for row in pending + reduced:
            factor = row.pop(col, None)
            if factor is None:
                continue
            for j, v in pivot_row.items():
                updated = row.get(j, 0) - factor * v
                if updated:
                    row[j] = updated
                else:
                    del row[j]
        pending = [row for row in pending if row]
        reduced.append(pivot_row)
        pivots.append(col)
    return reduced, pivots


def rank(rows: Sequence[Sequence]) -> int:
    """Exact rank over the rationals: the pivot count of the reduced form."""
    return len(_reduced_echelon(rows)[1])


def nullspace(rows: Sequence[Sequence], ncols: int | None = None) -> list[list[Fraction]]:
    """Deterministic rational basis of the right nullspace.

    Read off the sparse reduced row echelon form: one basis vector per free
    column, in ascending column order, each normalized so its first nonzero
    entry is 1.
    """
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for an empty system")
        ncols = len(rows[0])
    reduced, pivots = _reduced_echelon(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for row, col in zip(reduced, pivots):
            v[col] = -row.get(free, Fraction(0))
        first = next(x for x in v if x)
        basis.append([x / first for x in v])
    return basis


def identity(size: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0])
    return [
        [sum((Fraction(a[i][k]) * Fraction(b[k][j]) for k in range(inner)), Fraction(0)) for j in range(cols)]
        for i in range(rows)
    ]


def vec_mat(v: Sequence, a: Sequence[Sequence]) -> list[Fraction]:
    cols = len(a[0])
    return [sum((Fraction(v[i]) * Fraction(a[i][j]) for i in range(len(v))), Fraction(0)) for j in range(cols)]


def invert(matrix: Sequence[Sequence]) -> Matrix:
    """Exact inverse by reducing [A | I]; ValueError if singular."""
    size = len(matrix)
    if any(len(row) != size for row in matrix):
        raise ValueError("matrix is not square")
    reduced, pivots = _reduced_echelon(
        [list(row) + [int(i == j) for j in range(size)] for i, row in enumerate(matrix)]
    )
    if pivots != list(range(size)):
        raise ValueError("singular matrix")
    return [[row.get(size + j, Fraction(0)) for j in range(size)] for row in reduced]


def inertia(matrix: Sequence[Sequence]) -> tuple[int, int, int]:
    """Exact inertia (positive, negative, zero) of a symmetric matrix.

    Symmetric congruence reduction with rational pivots.  When the diagonal
    of the remaining block vanishes, a 2x2 hyperbolic block [[0,a],[a,0]] is
    split off, contributing one positive and one negative direction.
    """
    size = len(matrix)
    m = [[Fraction(v) for v in row] for row in matrix]
    for i in range(size):
        for j in range(size):
            if m[i][j] != m[j][i]:
                raise ValueError("matrix is not symmetric")
    live = list(range(size))
    pos = neg = zero = 0
    while live:
        k = next((i for i in live if m[i][i]), None)
        if k is not None:
            d = m[k][k]
            if d > 0:
                pos += 1
            else:
                neg += 1
            live.remove(k)
            for i in live:
                for j in live:
                    m[i][j] -= m[i][k] * m[k][j] / d
            continue
        pair = next(
            ((i, j) for ii, i in enumerate(live) for j in live[ii + 1:] if m[i][j]),
            None,
        )
        if pair is None:
            zero += len(live)
            break
        i0, j0 = pair
        a = m[i0][j0]
        pos += 1
        neg += 1
        live.remove(i0)
        live.remove(j0)
        for i in live:
            for j in live:
                m[i][j] -= (m[i][i0] * m[j0][j] + m[i][j0] * m[i0][j]) / a
    return pos, neg, zero
