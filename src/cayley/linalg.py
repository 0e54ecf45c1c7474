"""Exact linear algebra over the rationals.

Internal substrate for the symmetry solver (nullspaces, ranks) and the
geometric invariants (matrix inversion, inertia of symmetric forms).  All
routines take lists of lists of Fraction-compatible values and never touch
floating point; nullspace and rank also take rows as maps column -> value.
Nullspace, rank and inversion read one sparse reduced row echelon form,
built one row at a time; inertia is a symmetric congruence reduction.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction

Matrix = list[list[Fraction]]
Rows = Sequence[Sequence | Mapping[int, object]]


def _subtract(row: dict[int, Fraction], factor: Fraction, other: dict[int, Fraction]) -> None:
    """row -= factor * other, in place, on sparse rows."""
    for j, v in other.items():
        if updated := row.get(j, 0) - factor * v:
            row[j] = updated
        else:
            del row[j]


def _reduced_echelon(rows: Rows) -> tuple[list[dict[int, Fraction]], list[int]]:
    """Reduced row echelon form on sparse rows, built one row at a time.

    Each row, dense or a map column -> value, is read as column -> nonzero
    Fraction and reduced by the reduced rows at the pivot columns it holds;
    a remainder pivots on its smallest column, which is then cleared from
    the earlier rows.  Returns the nonzero rows, each without its pivot
    entry (which is 1), and their pivot columns, in ascending pivot order.
    The reduced form is unique, so the row order does not change it.
    """
    reduced: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        # `v and` skips the many zeros without building a Fraction; a value
        # such as the string "0" is converted first and then dropped.
        items = row.items() if isinstance(row, Mapping) else enumerate(row)
        row = {j: f for j, v in items if v and (f := Fraction(v))}
        for col in [j for j in row if j in reduced]:
            _subtract(row, row.pop(col), reduced[col])
        if not row:
            continue
        col = min(row)
        scale = row.pop(col)
        row = {j: v / scale for j, v in row.items()}
        for earlier in reduced.values():
            factor = earlier.pop(col, None)
            if factor is not None:
                _subtract(earlier, factor, row)
        reduced[col] = row
    pivots = sorted(reduced)
    return [reduced[col] for col in pivots], pivots


def rank(rows: Rows) -> int:
    """Exact rank over the rationals: the pivot count of the reduced form."""
    return len(_reduced_echelon(rows)[1])


def nullspace(rows: Rows, ncols: int | None = None) -> list[list[Fraction]]:
    """Deterministic rational basis of the right nullspace.

    Rows are dense or maps column -> value (then ncols is required), reduced
    one at a time.  One basis vector per free column of the reduced form, in
    ascending order, each normalized so its first nonzero entry is 1.
    """
    if ncols is None:
        if not rows or isinstance(rows[0], Mapping):
            raise ValueError("ncols required for an empty system or map rows")
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
