"""Exact linear algebra over the rationals.

Internal substrate for the symmetry solver (nullspaces, ranks) and the
geometric invariants (matrix inversion, inertia of symmetric forms).  A
matrix has one form: a list of sparse rows, each a map column -> value,
read as exact Fractions (an int or a string entry too), never as floats.
Nullspace, rank and inversion read one sparse reduced row echelon form,
built one row at a time; inertia eliminates symmetrically on the same
sparse rows.  Only mat_mul and vec_mat take dense rows: no command calls
them, and the benchmark tracer binds them by name.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction

Matrix = list[list[Fraction]]
Rows = Sequence[Mapping[int, object]]

_ZERO, _ONE = Fraction(0), Fraction(1)


def _subtract(row: dict[int, Fraction], factor: Fraction, other: dict[int, Fraction]) -> None:
    """row -= factor * other, in place, on sparse rows."""
    for j, v in other.items():
        if updated := row.get(j, 0) - factor * v:
            row[j] = updated
        else:
            del row[j]


def _reduced_echelon(rows: Rows) -> tuple[list[dict[int, Fraction]], list[int]]:
    """Reduced row echelon form on sparse rows, built one row at a time.

    Each row is reduced by the reduced rows at the pivot columns it holds;
    a remainder pivots on its smallest column, which is then cleared from
    the earlier rows.  Returns the nonzero rows, each without its pivot
    entry (which is 1), and their pivot columns, in ascending pivot order.
    The reduced form is unique, so the row order does not change it.
    """
    reduced: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        # `v and` skips the many zeros without building a Fraction, and a
        # Fraction is kept as it is; any other value, such as the string "0",
        # is converted first and then dropped if it is zero.
        row = {j: f for j, v in row.items() if v and (f := v if type(v) is Fraction else Fraction(v))}
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


def nullspace(rows: Rows, ncols: int) -> list[list[Fraction]]:
    """Deterministic rational basis of the right nullspace of rows in columns 0..ncols-1.

    An entry outside those columns is a ValueError.  One basis vector per
    free column of the reduced form, in ascending order, each normalized so
    its first nonzero entry is 1.
    """
    reduced, pivots = _reduced_echelon(rows)
    # The reduced rows span the input rows, so they show every column used.
    if not all(0 <= j < ncols for row in (pivots, *reduced) for j in row):
        raise ValueError(f"a row has an entry outside columns 0..{ncols - 1}")
    # Column -> (pivot, -entry) for each reduced row that holds it, pivots ascending.
    held: dict[int, list[tuple[int, Fraction]]] = {}
    for row, col in zip(reduced, pivots):
        for j, x in row.items():
            held.setdefault(j, []).append((col, -x))
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [_ZERO] * ncols
        v[free] = _ONE
        entries = held.get(free, [])
        for col, x in entries:
            v[col] = x
        # A reduced row holds only columns above its pivot: the first nonzero entry is the
        # first holder's, or the 1 at free.
        first = entries[0][1] if entries else _ONE
        basis.append(v if first == 1 else [x / first for x in v])
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


def invert(matrix: Rows) -> list[dict[int, Fraction]]:
    """Exact inverse, as sparse rows, by reducing [A | I]; ValueError if singular or not square."""
    size = len(matrix)
    if any(not 0 <= j < size for row in matrix for j in row):
        raise ValueError("matrix is not square")
    reduced, pivots = _reduced_echelon([{**row, size + i: 1} for i, row in enumerate(matrix)])
    if pivots != list(range(size)):
        raise ValueError("singular matrix")
    # Every column of A is a pivot, so each reduced row holds only columns of I.
    return [{j - size: v for j, v in row.items()} for row in reduced]


def inertia(matrix: Rows) -> tuple[int, int, int]:
    """Exact inertia (positive, negative, zero) of a symmetric matrix.

    Symmetric elimination on sparse rows: each step pivots on a nonzero
    diagonal entry d = m[k][k], counts its sign, and subtracts m[i][k] / d
    times row k from every row i that holds column k.  When every remaining
    diagonal entry is zero but some m[k][j] is not, adding row and column j
    to row and column k first makes m[k][k] = 2 m[k][j].  The rows left
    empty are the zero directions.
    """
    size = len(matrix)
    if any(not 0 <= j < size for row in matrix for j in row):
        raise ValueError("matrix is not square")
    rows = {i: {j: f for j, v in r.items() if v and (f := Fraction(v))} for i, r in enumerate(matrix)}
    if any(rows[j].get(i) != v for i, row in rows.items() for j, v in row.items()):
        raise ValueError("matrix is not symmetric")
    pos = neg = 0
    while any(rows.values()):
        k = next((i for i, row in rows.items() if i in row), None)
        if k is None:
            k, row = next((i, row) for i, row in rows.items() if row)
            _subtract(row, Fraction(-1), rows[next(iter(row))])
            row[k] *= 2
        # Row k is also column k, by symmetry: the other rows drop their
        # column k entries (stale after the step above) and are reduced by it.
        pivot = rows.pop(k)
        d = pivot.pop(k)
        pos += d > 0
        neg += d < 0
        for row in rows.values():
            row.pop(k, None)
        for i, c in pivot.items():
            _subtract(rows[i], c / d, pivot)
    return pos, neg, len(rows)
