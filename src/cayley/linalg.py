"""Exact linear algebra over the rationals.

Internal substrate for the symmetry solver (nullspaces, ranks) and the
geometric invariants (matrix inversion, inertia of symmetric forms).  All
routines take lists of lists of Fraction-compatible values and never touch
floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

Matrix = list[list[Fraction]]


def _as_fraction_rows(rows: Sequence[Sequence]) -> Matrix:
    return [[Fraction(v) for v in row] for row in rows]


def _integer_rows(rows: Sequence[Sequence]) -> list[list[int]]:
    """Scale each row to coprime integers (row scaling preserves the nullspace)."""
    out = []
    for row in rows:
        fracs = [Fraction(v) for v in row]
        lcm = 1
        for f in fracs:
            lcm = lcm * f.denominator // gcd(lcm, f.denominator)
        ints = [int(f * lcm) for f in fracs]
        g = 0
        for v in ints:
            g = gcd(g, v)
        if g > 1:
            ints = [v // g for v in ints]
        out.append(ints)
    return out


def _fraction_free_echelon(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Bareiss row echelon form on an integer matrix.

    Pivots are the first nonzero entry in column order (rows swapped into
    place), so the result is deterministic.  Returns the echelon matrix and
    the list of pivot columns.
    """
    m = [row[:] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                m[i][j] = (m[i][j] * m[r][c] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        pivots.append(c)
        r += 1
    return m, pivots


def rank(rows: Sequence[Sequence]) -> int:
    """Exact rank over the rationals."""
    if not rows:
        return 0
    _, pivots = _fraction_free_echelon(_integer_rows(rows))
    return len(pivots)


def nullspace(rows: Sequence[Sequence], ncols: int | None = None) -> list[list[Fraction]]:
    """Deterministic rational basis of the right nullspace.

    Elimination is fraction-free; back-substitution is exact rational.  One
    basis vector per free column, in ascending column order, each normalized
    so its first nonzero entry is 1.
    """
    if not rows:
        if ncols is None:
            raise ValueError("ncols required for an empty system")
        basis = []
        for j in range(ncols):
            v = [Fraction(0)] * ncols
            v[j] = Fraction(1)
            basis.append(v)
        return basis
    width = ncols if ncols is not None else len(rows[0])
    echelon, pivots = _fraction_free_echelon(_integer_rows(rows))
    pivot_set = set(pivots)
    free_cols = [c for c in range(width) if c not in pivot_set]
    basis = []
    for f in free_cols:
        v = [Fraction(0)] * width
        v[f] = Fraction(1)
        # Solve pivot coordinates bottom-up.
        for k in range(len(pivots) - 1, -1, -1):
            pc = pivots[k]
            s = sum((Fraction(echelon[k][j]) * v[j] for j in range(pc + 1, width)), Fraction(0))
            v[pc] = -s / echelon[k][pc]
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
    """Exact inverse by Gauss-Jordan elimination; ValueError if singular."""
    size = len(matrix)
    if any(len(row) != size for row in matrix):
        raise ValueError("matrix is not square")
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(size)]
           for i, row in enumerate(matrix)]
    for col in range(size):
        pivot_row = next((i for i in range(col, size) if aug[i][col]), None)
        if pivot_row is None:
            raise ValueError("singular matrix")
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        aug[col] = [v / pivot for v in aug[col]]
        for i in range(size):
            if i != col and aug[i][col]:
                factor = aug[i][col]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[col])]
    return [row[size:] for row in aug]


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
