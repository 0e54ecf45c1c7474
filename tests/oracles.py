"""Independent oracles used by the tests.

Everything here deliberately avoids the library's own algorithms: dense
exponent-tuple polynomials instead of sparse monomial maps, plain rational
Gauss-Jordan instead of fraction-free elimination, cofactor expansion and
plain Gaussian elimination at rational points instead of polynomial
Bareiss, eigenvalue signs read off the characteristic polynomial instead
of symmetric elimination, the pentagonal-number recurrence for partition
counts, the literal composition sum for the defining polynomials and the closed-form
coefficient of each partition, and matrix power sums for the flow of an
affine field.  The literal kernels at the end
compute by their definitions what the library computes by shortcuts:
evaluation with a Fraction per product, the series exponential as the
sum of the powers A^m/m! and the series logarithm as the sum of the powers
(-1)^(m+1) A^m/m, a field applied as a sum of polynomial products, the
bracket as two such applications per coefficient, the partitions by
recursion on the largest part, the Pick invariant as a double sum over
ordered index triples, and each Taylor tensor entry as a partial derivative
at the origin.  One
more, substitution term by term from a table of powers of the images,
pulls a polynomial back by a flow, which the library does not compute.
The orbit check is kept here as the sample it was before it became a proof:
the surface evaluated literally at seeded orbit points, and round trips
through the inverse map.  The linear-only symmetry solve is kept as the
isotropy's reference basis: the library's sparse rows and nullspace on the
system in (c, linear) alone, which the library now reads off an algebra.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from math import factorial
from typing import Callable, Iterable, Iterator


def partition_counts(limit: int) -> list[int]:
    """p(0..limit) by the pentagonal-number recurrence."""
    p = [1] + [0] * limit
    for n in range(1, limit + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = 1 if k % 2 else -1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def cofactor_det(m: list[list[Fraction]]) -> Fraction:
    """Determinant by first-row cofactor expansion."""
    size = len(m)
    if size == 1:
        return m[0][0]
    total = Fraction(0)
    for j in range(size):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = m[0][j] * cofactor_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def scalar_det(m: list[list[Fraction]]) -> Fraction:
    """Determinant by plain rational Gaussian elimination with row swaps."""
    m = [[Fraction(v) for v in row] for row in m]
    det = Fraction(1)
    for k in range(len(m)):
        pivot = next((i for i in range(k, len(m)) if m[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return det


def sparse_rows(matrix: list[list]) -> list[dict[int, object]]:
    """Dense rows as the maps column -> value that cayley.linalg takes, zeros kept."""
    return [dict(enumerate(row)) for row in matrix]


def literal_inertia(matrix: list[list[Fraction]]) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of a symmetric matrix.

    For the m x m matrix A, p(t) = det(A - tI) is evaluated by scalar_det
    at t = 0..m and its coefficients are interpolated exactly, one Lagrange
    basis polynomial per point.  A symmetric matrix has only real
    eigenvalues, so Descartes' rule of signs is exact: the sign changes of
    p(t) count the positive roots and those of p(-t) the negative ones.  The
    zero eigenvalues are the multiplicity of the root t = 0, the number of
    vanishing low coefficients.
    """
    size = len(matrix)
    coeffs = [Fraction(0)] * (size + 1)
    for k in range(size + 1):
        shifted = [[Fraction(v) - k * (i == j) for j, v in enumerate(row)] for i, row in enumerate(matrix)]
        basis = [Fraction(1)]  # prod over j != k of (t - j) / (k - j), lowest degree first
        for j in range(size + 1):
            if j != k:
                basis = [(t_part - j * b) / (k - j) for t_part, b in zip([Fraction(0)] + basis, basis + [Fraction(0)])]
        value = scalar_det(shifted)
        coeffs = [c + value * b for c, b in zip(coeffs, basis)]

    def sign_changes(values):
        signs = [v > 0 for v in values if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    zero = next(i for i, c in enumerate(coeffs) if c)
    return sign_changes(coeffs), sign_changes([c * (-1) ** i for i, c in enumerate(coeffs)]), zero


def rref_nullity(rows: list[list[Fraction]], ncols: int) -> int:
    """Nullspace dimension by plain rational Gauss-Jordan."""
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        piv = m[rank][col]
        m[rank] = [v / piv for v in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return ncols - rank


# -- dense polynomial mini-implementation (exponent tuples, one slot per var) --


def dense_from_sparse(p) -> dict[tuple[int, ...], Fraction]:
    """Convert a cayley.Polynomial to a dense exponent-tuple dictionary."""
    out = {}
    for mono, coeff in p.terms.items():
        exps = [0] * p.n
        for var, e in mono:
            exps[var - 1] = e
        out[tuple(exps)] = Fraction(coeff)
    return out


def dense_diff(terms: dict, j: int) -> dict:
    """d/dx_j on a dense dictionary (j is 1-based)."""
    out: dict[tuple[int, ...], Fraction] = {}
    for exps, coeff in terms.items():
        e = exps[j - 1]
        if not e:
            continue
        reduced = exps[: j - 1] + (e - 1,) + exps[j:]
        out[reduced] = out.get(reduced, Fraction(0)) + coeff * e
    return {k: v for k, v in out.items() if v}


def dense_mul_var(terms: dict, i: int) -> dict:
    """Multiply a dense dictionary by x_i (i is 1-based)."""
    return {exps[: i - 1] + (exps[i - 1] + 1,) + exps[i:]: coeff for exps, coeff in terms.items()}


def dense_scale(terms: dict, factor: Fraction) -> dict:
    return {k: v * factor for k, v in terms.items() if v * factor}


def dense_add(a: dict, b: dict) -> dict:
    """The sum of two dense dictionaries, coefficient by coefficient, without zeros."""
    out = {k: a.get(k, Fraction(0)) + b.get(k, Fraction(0)) for k in a.keys() | b.keys()}
    return {k: v for k, v in out.items() if v}


def all_exponents(n_vars: int, max_degree: int) -> list[tuple[int, ...]]:
    """Every exponent tuple with total degree <= max_degree, densely."""
    out: list[tuple[int, ...]] = [()]
    for _ in range(n_vars):
        out = [e + (k,) for e in out for k in range(max_degree + 1 - sum(e))]
    return out


def dense_eigen_dimension(p, include_constant: bool = True) -> int:
    """Dimension of {(c, X) : X p = c p, X affine} by a dense brute-force route.

    Assembles the coefficient matrix over every monomial of degree <= deg p
    and counts free columns with plain Gauss-Jordan.  With include_constant
    False the constant-part columns are dropped, so X is purely linear (the
    isotropy at the origin).
    """
    n = p.n
    phi = dense_from_sparse(p)
    diffs = [dense_diff(phi, j) for j in range(1, n + 1)]
    columns = [dense_scale(phi, Fraction(-1))]
    if include_constant:
        columns += diffs
    for i in range(1, n + 1):
        for j in range(n):
            columns.append(dense_mul_var(diffs[j], i))
    degree = max((sum(e) for e in phi), default=0)
    rows = []
    for exps in all_exponents(n, degree):
        rows.append([col.get(exps, Fraction(0)) for col in columns])
    return rref_nullity(rows, len(columns))


def linear_isotropy(p):
    """The purely linear fields X with X p = c p, as the nullspace basis of their own system.

    The unknowns are c and the linear part only, in the order c, then the linear part
    row-major; the system has one sparse row per monomial.  SymmetryAlgebra.isotropy() and
    isotropy_at_origin must give this basis, field for field and eigenvalue for eigenvalue.
    """
    # Imported here: bench/workloads.py loads this module without the package on its path.
    from cayley import linalg
    from cayley.poly import Polynomial, mono_times_var
    from cayley.symmetry import AffineVectorField, SymmetryAlgebra

    if not p:
        raise ValueError("polynomial must be nonzero")
    n = p.n
    diffs = [p.diff(j) for j in range(1, n + 1)]
    # Each column is (variable factor, 0 for none; term map): x_i and dp/dx_j for unknown (i, j).
    columns = [(0, (-p).terms)] + [(i, d.terms) for i in range(1, n + 1) for d in diffs]
    rows = {}
    for k, (var, terms) in enumerate(columns):
        for mono, coeff in terms.items():
            rows.setdefault(mono_times_var(mono, var) if var else mono, {})[k] = coeff
    basis_vectors = linalg.nullspace(list(rows.values()), ncols=len(columns))
    # After c, the coefficient of d/dx_(j+1) is the stride slice vec[1 + j :: n] on x_1, ..., x_n.
    keys = [((i, 1),) for i in range(1, n + 1)]
    fields = [AffineVectorField([Polynomial._raw(n, {key: v for key, v in zip(keys, vec[1 + j :: n]) if v})
                                 for j in range(n)]) for vec in basis_vectors]
    if any(field.apply(p) != p * vec[0] for field, vec in zip(fields, basis_vectors)):
        raise RuntimeError("solver produced a field violating its eigen-relation")
    return SymmetryAlgebra(tuple(fields), tuple(vec[0] for vec in basis_vectors))


# -- the defining sum over ordered compositions --------------------------------


def compositions(n: int, d: int) -> Iterator[tuple[int, ...]]:
    """All ordered d-tuples of positive integers summing to n, lexicographic.

    There are C(n-1, d-1) of them.
    """
    if d < 1 or d > n:
        raise ValueError(f"need 1 <= d <= n, got d={d}, n={n}")
    if d == 1:
        yield (n,)
        return
    for first in range(1, n - d + 2):
        for rest in compositions(n - first, d - 1):
            yield (first,) + rest


def composition_sum_poly(n: int, prefactor: Callable[[int], Fraction]) -> dict:
    """sum_d prefactor(d) sum_{compositions c of n into d parts} x_{c_1}...x_{c_d}, densely.

    With prefactor(d) = (-1)^d / d this is Phi_n term by term as defined;
    the result is a dense exponent-tuple dictionary without zero entries.
    """
    out: dict[tuple[int, ...], Fraction] = {}
    for d in range(1, n + 1):
        coeff = Fraction(prefactor(d))
        for comp in compositions(n, d):
            exps = [0] * n
            for part in comp:
                exps[part - 1] += 1
            key = tuple(exps)
            out[key] = out.get(key, Fraction(0)) + coeff
    return {k: v for k, v in out.items() if v}


def coefficient_closed_form(n: int, partition: Iterable[int]) -> Fraction:
    """Coefficient in Phi_n of the monomial prod x_v over the given multiset.

    For a partition with d parts and part multiplicities m_v the coefficient
    is (-1)^d (d-1)! / prod(m_v!): each of the d!/prod(m_v!) orderings of the
    parts contributes (-1)^d / d.
    """
    parts = list(partition)
    if not parts or any(p < 1 for p in parts):
        raise ValueError("partition parts must be positive integers")
    if sum(parts) != n:
        raise ValueError(f"partition sums to {sum(parts)}, expected {n}")
    d = len(parts)
    denom = 1
    for mult in Counter(parts).values():
        denom *= factorial(mult)
    return Fraction((-1) ** d * factorial(d - 1), denom)


# -- the flow of an affine field as matrix power sums ---------------------------


def nilpotent_flow(
    constant: list[Fraction], linear: list[list[Fraction]], t: Fraction
) -> tuple[list[list[Fraction]], list[Fraction]]:
    """(matrix, translation) of the time-t flow of the field with parts (c, A).

    The matrix is sum_k t^k A^k / k! and the translation is
    c . sum_k t^(k+1) A^k / (k+1)!, summed to k = n, as A^n = 0 for a
    nilpotent n x n matrix A.
    """
    n = len(constant)
    matrix = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    shift = [[t * int(i == j) for j in range(n)] for i in range(n)]
    power = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    factorial = 1
    for k in range(1, n + 1):
        power = [
            [sum(power[i][m] * linear[m][j] for m in range(n)) for j in range(n)] for i in range(n)
        ]
        factorial *= k
        for i in range(n):
            for j in range(n):
                matrix[i][j] += t**k / factorial * power[i][j]
                shift[i][j] += t ** (k + 1) / (factorial * (k + 1)) * power[i][j]
    if any(any(row) for row in power):
        raise ValueError("linear part is not nilpotent")
    translation = [sum(constant[i] * shift[i][j] for i in range(n)) for j in range(n)]
    return matrix, translation


# -- literal kernels ---------------------------------------------------------------


def literal_evaluate(p, point) -> Fraction:
    """p at a rational point, multiplying and adding one Fraction at a time."""
    values = [Fraction(v) for v in point]
    total = Fraction(0)
    for mono, coeff in p.terms.items():
        term = Fraction(coeff)
        for var, exp in mono:
            term *= values[var - 1] ** exp
        total += term
    return total


def literal_substitute(p, images):
    """p with x_i replaced by images[i-1]: each term multiplied out separately,
    from a table of the powers images[i-1]^e that the terms use, each formed
    by repeated products."""
    if not images:
        return p
    one = type(images[0]).constant(images[0].n, 1)
    powers = {}
    result = one * 0
    for mono, coeff in p.terms.items():
        term = one * coeff
        for var, exp in mono:
            if (var, exp) not in powers:
                power = images[var - 1]
                for _ in range(exp - 1):
                    power = power * images[var - 1]
                powers[var, exp] = power
            term = term * powers[var, exp]
        result = result + term
    return result


def literal_series_exp(a) -> tuple[Fraction, ...]:
    """Coefficients 1..N of sum_m A(s)^m / m! for A(s) = a_1 s + ... + a_N s^N, truncated at s^N.

    A has no constant term, so A^m starts at s^m and m <= N suffices.
    """
    size = len(a) + 1
    series = [Fraction(0)] + [Fraction(x) for x in a]
    total = [Fraction(1)] + [Fraction(0)] * len(a)
    power = total
    for m in range(1, size):
        power = [sum(power[i] * series[k - i] for i in range(k + 1)) / m for k in range(size)]
        total = [x + y for x, y in zip(total, power)]
    return tuple(total[1:])


def sampled_orbit_check(phi, orbit_point, parameters_for_point, samples=100, round_trips=10) -> bool:
    """Whether phi, by literal_evaluate, vanishes at orbit_point(n, t) for
    `samples` seeded t, and parameters_for_point gives back `round_trips`
    more seeded t from the first n - 1 coordinates of orbit_point(n, t).

    The parameters t_p are p/q with p in -9..9 and q in 1..9, drawn from one
    generator seeded 20000 + n: first every sample, then the round trips.
    """
    n = phi.n
    rng = random.Random(20_000 + n)
    draws = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n - 1)]
             for _ in range(samples + round_trips)]
    on_surface = [literal_evaluate(phi, orbit_point(n, t)) == 0 for t in draws[:samples]]
    returned = [parameters_for_point(n, orbit_point(n, t)[: n - 1]) == tuple(t) for t in draws[samples:]]
    return all(on_surface) and all(returned)


def literal_apply(field, p):
    """X p = sum_j X_j * dp/dx_j, term by term through polynomial products."""
    result = p * 0
    for j, coefficient in enumerate(field.coefficients, 1):
        result = result + coefficient * p.diff(j)
    return result


def literal_commutator(x, y):
    """[X, Y] with coefficients X(Y_j) - Y(X_j), each through literal_apply."""
    return type(x)([literal_apply(x, yj) - literal_apply(y, xj) for xj, yj in zip(x.coefficients, y.coefficients)])


def literal_series_log(a) -> tuple[Fraction, ...]:
    """Coefficients 1..N of sum_m (-1)^(m+1) A(s)^m / m for A(s) = a_1 s + ... + a_N s^N, truncated at s^N.

    This is log(1 + A(s)); A has no constant term, so A^m starts at s^m and m <= N suffices.
    """
    size = len(a) + 1
    series = [Fraction(0)] + [Fraction(x) for x in a]
    total = [Fraction(0)] * size
    power = [Fraction(1)] + [Fraction(0)] * len(a)
    for m in range(1, size):
        power = [sum(power[i] * series[k - i] for i in range(k + 1)) for k in range(size)]
        total = [x + (-1) ** (m + 1) * y / m for x, y in zip(total, power)]
    return tuple(total[1:])


def literal_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """The partitions of n, largest part first, by recursion on the first part:
    each part from min(remaining, cap) down to 1, then the partitions of the
    rest with parts no larger."""

    def gen(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - part, part):
                yield (part,) + rest

    return gen(n, n)


def inverse_matrix(m: list[list[Fraction]]) -> list[list[Fraction]]:
    """Inverse of a nonsingular matrix by plain Gauss-Jordan on [m | I]."""
    size = len(m)
    rows = [
        [Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(size)]
        for i, row in enumerate(m)
    ]
    for col in range(size):
        pivot = next(i for i in range(col, size) if rows[i][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for i in range(size):
            if i != col and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
    return [row[size:] for row in rows]


def literal_pick(g, a) -> Fraction:
    """sum g_il g_jm g_kn a^{ijk} a^{lmn} over every pair of ordered index triples.

    g and a are an order-2 and an order-3 symmetric tensor; g_.. is the
    inverse of g, taken by Gauss-Jordan.
    """
    indices = range(1, g.dim + 1)
    g_low = inverse_matrix([[g.get(i, j) for j in indices] for i in indices])
    ordered = [(t, value) for key, value in a.entries.items() for t in set(permutations(key))]
    total = Fraction(0)
    for (i, j, k), left in ordered:
        for (l, m, n), right in ordered:
            total += left * right * g_low[i - 1][l - 1] * g_low[j - 1][m - 1] * g_low[k - 1][n - 1]
    return total


def literal_taylor(f, m: int) -> dict[tuple[int, ...], Fraction]:
    """The nonzero entries of f's order-m Taylor tensor, T[i_1..i_m] =
    (d^m f / dx_(i_1) ... dx_(i_m))(0) / m!, over every sorted index tuple."""
    dense = dense_from_sparse(f)
    out = {}
    for key in combinations_with_replacement(range(1, f.n + 1), m):
        terms = dense
        for i in key:
            terms = dense_diff(terms, i)
        value = terms.get((0,) * f.n, Fraction(0)) / factorial(m)
        if value:
            out[key] = value
    return out
