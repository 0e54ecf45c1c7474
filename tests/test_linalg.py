import copy
import random
from fractions import Fraction

import pytest

from cayley.linalg import inertia, invert, mat_mul, nullspace, rank

from oracles import literal_inertia, rref_nullity, sparse_rows


def rand_matrix(rng, nrows, ncols, density):
    """Small rational entries; some rows forced to zero, some copied or combined."""
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.1:
            rows.append([Fraction(0)] * ncols)
        elif kind < 0.3 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = Fraction(rng.randint(-3, 3), rng.randint(1, 3)), Fraction(rng.randint(-3, 3))
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append(
                [
                    Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < density else Fraction(0)
                    for _ in range(ncols)
                ]
            )
    return rows


SHAPES = [(1, 1), (1, 5), (3, 7), (5, 5), (7, 3), (12, 4), (4, 12), (9, 9), (15, 10)]


def random_systems(seed):
    rng = random.Random(seed)
    for nrows, ncols in SHAPES:
        for density in (0.2, 0.5, 1.0):
            yield rand_matrix(rng, nrows, ncols, density), ncols
    for nrows, ncols in ((1, 1), (3, 4), (4, 3)):
        yield [[Fraction(0)] * ncols for _ in range(nrows)], ncols


def check_basis(rows, ncols, basis):
    free = []
    for v in basis:
        assert len(v) == ncols
        assert all(isinstance(x, Fraction) for x in v)
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)
        assert next(x for x in v if x) == 1
        free.append(max(j for j, x in enumerate(v) if x))
    # One vector per free column, ascending: its last nonzero entry, since the
    # reduced form puts every pivot column of a free column f before f.
    assert free == sorted(set(free))
    for v, f in zip(basis, free):
        assert all(v[g] == 0 for g in free if g != f)


@pytest.mark.parametrize("seed", range(6))
def test_nullspace_and_rank_on_random_systems(seed):
    rng = random.Random(1000 + seed)
    for rows, ncols in random_systems(seed):
        basis = nullspace(sparse_rows(rows), ncols)
        check_basis(rows, ncols, basis)
        nullity = rref_nullity(rows, ncols)
        assert len(basis) == nullity
        assert rank(sparse_rows(rows)) == ncols - nullity
        # The same system without its zeros, and with its rows shuffled: the
        # reduced form, hence basis and rank, is unchanged.
        maps = [{j: v for j, v in enumerate(row) if v} for row in rows]
        shuffled = sparse_rows(rng.sample(rows, len(rows)))
        for same in (maps, shuffled):
            assert nullspace(same, ncols) == basis
            assert rank(same) == ncols - nullity


def test_nullspace_basis_convention():
    # x0 + x1 = 0, x2 = 2 x3: free columns 1 and 3.
    rows = sparse_rows([[1, 1, 0, 0], [0, 0, 1, -2], [2, 2, 0, 0]])
    assert nullspace(rows, ncols=4) == [[1, -1, 0, 0], [0, 0, 1, Fraction(1, 2)]]
    assert rank(rows) == 2


def test_string_entries_are_read_as_fractions():
    # "0" is a zero entry, not a truthy string that could become a pivot.
    rows = sparse_rows([["0", "1/2"], ["0", "0"]])
    assert nullspace(rows, ncols=2) == [[1, 0]]
    assert rank(rows) == 1
    assert invert(sparse_rows([["0", "2"], ["1/3", "0"]])) == [{1: 3}, {0: Fraction(1, 2)}]
    with pytest.raises(ValueError, match="singular"):
        invert(sparse_rows([["0", "0"], ["0", "1"]]))


def test_empty_system():
    assert nullspace([], ncols=3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert nullspace([], ncols=0) == []
    assert rank([]) == 0
    assert nullspace([{0: 1}], ncols=2) == [[0, 1]]


def test_nullspace_refuses_entries_outside_the_columns():
    for rows, ncols in (([{0: 1, 1: 2, 2: 3}], 2), ([{5: 1}], 3), ([{-1: 1}], 3), ([{0: 1, 1: 1}, {2: 4}], 2)):
        with pytest.raises(ValueError, match="outside columns"):
            nullspace(rows, ncols)


@pytest.mark.parametrize("seed", range(4))
def test_invert_random_matrices(seed):
    rng = random.Random(100 + seed)
    for size in range(1, 9):
        for density in (0.3, 1.0):
            m = rand_matrix(rng, size, size, density)
            if rref_nullity(m, size):
                with pytest.raises(ValueError, match="singular"):
                    invert(sparse_rows(m))
                continue
            inv = [[row.get(j, 0) for j in range(size)] for row in invert(sparse_rows(m))]
            identity = [[int(i == j) for j in range(size)] for i in range(size)]
            assert mat_mul(m, inv) == identity
            assert mat_mul(inv, m) == identity


def test_invert_singular_and_non_square():
    assert invert([]) == []
    for singular in ([[1, 2], [2, 4]], [[0, 0], [0, 0]], [[0, 1], [0, 1]]):
        with pytest.raises(ValueError, match="singular"):
            invert(sparse_rows(singular))
    with pytest.raises(ValueError, match="not square"):
        invert(sparse_rows([[1, 2]]))


def rand_symmetric(rng, size):
    """A random symmetric matrix, its diagonal cleared, a row and column
    duplicated or everything replaced by a scaled v v^T, each now and then."""
    m = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            if rng.random() < 0.6:
                m[i][j] = m[j][i] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    kind = rng.random()
    if kind < 0.4:
        for i in range(size):
            m[i][i] = Fraction(0)
    elif kind < 0.6 and size >= 2:
        a, b = rng.sample(range(size), 2)
        m[b] = list(m[a])
        for row in m:
            row[b] = row[a]
    elif kind < 0.7:
        v = [Fraction(rng.randint(-2, 2)) for _ in range(size)]
        s = Fraction(rng.choice((-1, 1)), rng.randint(1, 3))
        m = [[s * x * y for y in v] for x in v]
    return m


@pytest.mark.parametrize("seed", range(4))
def test_inertia_matches_the_characteristic_polynomial(seed):
    rng = random.Random(200 + seed)
    for size in range(10):
        for _ in range(8):
            m = rand_symmetric(rng, size)
            assert inertia(sparse_rows(m)) == literal_inertia(m)


def test_inertia_refuses_non_square_and_asymmetric_input():
    for m in ([[1, 2, 3], [2, 1, 0]], [[1, 2]]):
        with pytest.raises(ValueError, match="not square"):
            inertia(sparse_rows(m))
    with pytest.raises(ValueError, match="not symmetric"):
        inertia(sparse_rows([[0, 1], [2, 0]]))
    assert inertia([]) == (0, 0, 0)


def test_invert_and_inertia_refuse_columns_outside_the_rows():
    # Sparse rows say nothing of a row length: a square matrix of size m is
    # m rows with every column in 0..m-1, so any other column is "not square".
    for rows in ([{0: 1, 2: 1}, {1: 1}], [{0: 1}, {1: 1, 5: 2}], [{-1: 1}], [{0: 1}, {-1: 0, 1: 1}], [{1: 1}]):
        for routine in (invert, inertia):
            with pytest.raises(ValueError, match="not square"):
                routine(rows)
    # Inside the columns, an asymmetric matrix is still refused by inertia, and
    # a missing row entry is a zero, not a short row.
    with pytest.raises(ValueError, match="not symmetric"):
        inertia([{0: 1}, {0: 1, 1: 2}])
    assert inertia([{}]) == (0, 0, 1)
    assert invert([{1: 2}, {0: 3}]) == [{1: Fraction(1, 3)}, {0: Fraction(1, 2)}]


@pytest.mark.parametrize("seed", range(2))
def test_routines_leave_their_input_rows_unchanged(seed):
    rng = random.Random(300 + seed)
    for size in range(1, 7):
        square = sparse_rows(rand_matrix(rng, size, size, 0.6))
        symmetric = sparse_rows(rand_symmetric(rng, size))
        for rows in (square, symmetric, [{j: v for j, v in row.items() if v} for row in square]):
            before = copy.deepcopy(rows)
            nullspace(rows, ncols=size)
            rank(rows)
            try:
                invert(rows)
            except ValueError:  # singular
                pass
            assert rows == before
        before = copy.deepcopy(symmetric)
        inertia(symmetric)
        assert symmetric == before
