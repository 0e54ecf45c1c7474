"""Affine vector fields, the orbit map of the Cayley family, and affine symmetry algebras.

An affine vector field on N-space is a derivation

    X = sum_j X_j d/dx_j,    X_j = constant[j] + sum_i linear[i][j] * x_i,

built from and stored as its N coefficient polynomials X_j, each of
degree <= 1; the constant vector and the matrix ``linear`` are views read
off them.  [X, Y] has coefficients X(Y_j) - Y(X_j), and as each Y_j has
degree <= 1, X(Y_j) is a combination of the X_i: the bracket is read off the
coefficient polynomials, with no derivation applied.

For the commuting shift fields X_p of the Cayley family no matrix is
needed: reading a point as the series 1 + x_1 s + ... + x_n s^n, the orbit
map from parameters t to points is the truncated series exp(sum_p t_p s^p)
and its inverse is the series log, both O(n^2) recurrences.  The same map
as polynomials in t, scaled by n! to integer term maps keyed by partitions,
is what ``verify``'s orbit check proves to be the joint flow of the fields
from the origin (``orbit_map_terms``, ``is_joint_flow``).

The solver at the bottom computes, for a polynomial p, the space of all
affine fields X with X p = c p for a scalar c.  Since the unknowns
(c, constant, linear) enter the coefficients of X p - c p linearly, this is
an exact rational nullspace computation.  The solver returns values; the
JSON form of a field is written by ``cli``.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence
from fractions import Fraction
from math import factorial, lcm

from . import linalg
from .poly import Mono, Polynomial, Scalar, _Frozen, mono_degree, mono_times_var, variables

__all__ = [
    "AffineVectorField", "SymmetryAlgebra", "cayley_fields", "commutator", "euler_field", "is_joint_flow",
    "isotropy_at_origin", "orbit_map_terms", "orbit_point", "parameters_for_point", "span_contains",
    "symmetry_algebra",
]


def _freeze_vector(v: Sequence[Scalar], n: int, what: str) -> tuple[Fraction, ...]:
    if len(v) != n:
        raise ValueError(f"{what} has length {len(v)}, expected {n}")
    return tuple(Fraction(x) for x in v)


class AffineVectorField(_Frozen):
    """A degree-<=1 vector field sum_j coefficients[j-1] d/dx_j, built from its
    coefficients: n polynomials of degree <= 1 in the same n variables."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Sequence[Polynomial]):
        coefficients = tuple(coefficients)
        if any(q.n != len(coefficients) for q in coefficients):
            raise ValueError(f"{type(self).__name__} needs n polynomials in the same n variables")
        # A monomial of degree <= 1 is () or ((i, 1),).
        if any(len(m) > 1 or m and m[0][1] > 1 for q in coefficients for m in q.terms):
            raise ValueError(f"{type(self).__name__} needs polynomials of degree <= 1")
        self._set(coefficients)

    def _integer_terms(self) -> tuple[int, list[list[tuple[int, int]]]]:
        """(F, terms): F the lcm of the denominators, and each coefficient as a list
        of (i, F a), one per term a x_i (i = 0 for a constant)."""
        scale = lcm(*(c.denominator for q in self.coefficients for c in q.terms.values()))
        return scale, [[(m[0][0] if m else 0, c.numerator * (scale // c.denominator)) for m, c in q.terms.items()]
                       for q in self.coefficients]

    @property
    def n(self) -> int:
        return len(self.coefficients)

    @property
    def constant(self) -> tuple[Fraction, ...]:
        """constant[j] is the constant term of coefficients[j]."""
        return tuple(p.terms.get((), Fraction(0)) for p in self.coefficients)

    @property
    def linear(self) -> tuple[tuple[Fraction, ...], ...]:
        """linear[i][j] is the coefficient of x_(i+1) in coefficients[j]."""
        return tuple(
            tuple(p.terms.get(((i, 1),), Fraction(0)) for p in self.coefficients)
            for i in range(1, self.n + 1)
        )

    def apply(self, p: Polynomial) -> Polynomial:
        """Apply the derivation: X p = sum_j X_j dp/dx_j.

        With P and F the lcms of the denominators of p and of the field, one
        pass over the terms of p sums the products of terms of P dp/dx_j and
        F X_j as integers; each nonzero sum is divided by P F once, at the end.
        """
        if p.n != self.n:
            raise ValueError(f"dimension mismatch: field in {self.n}, polynomial in {p.n}")
        scale, factors = self._integer_terms()
        p_scale = lcm(*(c.denominator for c in p.terms.values()))
        out: dict[Mono, int] = {}
        for mono, coeff in p.terms.items():
            num = 0  # P times coeff, once a variable of mono meets a nonzero X_j
            for pair in mono:
                if row := factors[pair[0] - 1]:
                    var, exp = pair
                    k = mono.index(pair)
                    num = num or coeff.numerator * (p_scale // coeff.denominator)
                    rest = ((var, exp - 1),) if exp > 1 else ()
                    lowered = mono[:k] + rest + mono[k + 1 :]
                    scaled = num * exp
                    for i, value in row:
                        # x_var d/dx_var keeps the monomial.
                        key = mono if i == var else mono_times_var(lowered, i) if i else lowered
                        out[key] = out.get(key, 0) + scaled * value
        return Polynomial._raw(p.n, {m: Fraction(c, p_scale * scale) for m, c in out.items() if c})

    def flatten(self) -> list[Fraction]:
        """Coordinates (constant, then linear row-major) for rank computations."""
        return [*self.constant, *(v for row in self.linear for v in row)]

    def is_zero(self) -> bool:
        return not any(self.coefficients)


def cayley_fields(n: int) -> list[AffineVectorField]:
    """The n-1 commuting fields X_p = d/dx_p + sum_{h>p} x_{h-p} d/dx_h.

    Each annihilates the degree-n hypersurface polynomial; together they
    generate a transitive abelian group of affine motions of its zero set.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    zero, one, xs = Polynomial.zero(n), Polynomial.constant(n, 1), variables(n)
    # Every coefficient is 0, 1 or some x_i, so of degree <= 1 by construction.
    return [AffineVectorField._raw((zero,) * (p - 1) + (one, *xs[: n - p])) for p in range(1, n)]


def euler_field(n: int) -> AffineVectorField:
    """The weighted scaling field sum_h h x_h d/dx_h (weight h on x_h)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return AffineVectorField._raw(tuple(x * h for h, x in enumerate(variables(n), 1)))


def commutator(x: AffineVectorField, y: AffineVectorField) -> AffineVectorField:
    """The Lie bracket [X, Y] with the convention [X,Y]f = X(Yf) - Y(Xf).

    Its coefficient of d/dx_j is X(Y_j) - Y(X_j).  Each Y_j has degree <= 1,
    so X(Y_j) = sum_i (coefficient of x_i in Y_j) X_i: the bracket is a sum
    of scaled coefficient polynomials, and no derivation is applied.  With F
    and G the lcms of the denominators of X and Y, the sums run on F X and
    G Y as integers and are divided by F G once; the result has degree <= 1.
    """
    if x.n != y.n:
        raise ValueError("dimension mismatch")
    (x_scale, xs), (y_scale, ys) = x._integer_terms(), y._integer_terms()
    zero = Polynomial.zero(x.n)
    coefficients = []
    for xj, yj in zip(xs, ys):
        # h -> coefficient of x_h (h = 0 for the constant): a term a x_i of Y_j adds
        # a X_i, and a term a x_i of X_j subtracts a Y_i.
        out: dict[int, int] = {}
        for i, a in yj:
            if i:
                for h, c in xs[i - 1]:
                    out[h] = out.get(h, 0) + a * c
        for i, a in xj:
            if i:
                for h, c in ys[i - 1]:
                    out[h] = out.get(h, 0) - a * c
        coefficients.append(zero if not any(out.values()) else Polynomial._raw(
            x.n, {((h, 1),) if h else (): Fraction(c, x_scale * y_scale) for h, c in out.items() if c}))
    return AffineVectorField._raw(tuple(coefficients))


# With X(s) = x_1 s + ... + x_n s^n, the flow of X_p multiplies 1 + X(s) by
# exp(t s^p) modulo s^(n+1).  The flows commute, and the origin is 1 + X = 1,
# so the orbit map is a truncated series exp and its inverse a series log.


def orbit_point(n: int, params: Sequence[Scalar]) -> tuple[Fraction, ...]:
    """Image of the origin under exp(sum_p t_p X_p) for the commuting fields.

    Its coordinates are the coefficients e_1..e_n of exp(t_1 s + ... + t_{n-1} s^{n-1}),
    by k e_k = sum_j j t_j e_(k-j) with t_n = 0; it lies on the hypersurface exactly.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    t = _freeze_vector(params, n - 1, "parameter vector") + (Fraction(0),)
    e = [Fraction(1)]
    for k in range(1, n + 1):
        e.append(sum(j * t[j - 1] * e[k - j] for j in range(1, k + 1)) / k)
    return tuple(e[1:])


def parameters_for_point(n: int, x: Sequence[Scalar]) -> tuple[Fraction, ...]:
    """Invert the orbit map on the first n-1 coordinates.

    The parameters are the coefficients t_1..t_{n-1} of log(1 + x_1 s + ... + x_{n-1} s^{n-1}),
    by k t_k = k x_k - sum_{j<k} j t_j x_(k-j), from (1 + X) T' = X'.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    x = _freeze_vector(x, n - 1, "coordinate vector")
    t: list[Fraction] = []
    for k in range(1, n):
        t.append((k * x[k - 1] - sum(j * t[j - 1] * x[k - j - 1] for j in range(1, k))) / k)
    return tuple(t)


def orbit_map_terms(n: int) -> list[dict[tuple[int, ...], int]]:
    """[C_0, ..., C_n] with C_h = n! O_h, O_h(t) the coefficient of s^h in
    exp(t_1 s + ... + t_{n-1} s^{n-1}) as a polynomial in t; C_0 = {(): n!}.

    The term t_(mu_1) t_(mu_2) ... of C_h is keyed by the partition mu of h,
    parts < n, largest first.  As exp(t_i s^i) = sum_m t_i^m s^(i m) / m!, its
    coefficient is the integer n!/prod m_i!, m_i the number of parts equal to i.

    Built one factor at a time, not from generate.partitions: each coefficient
    is its predecessor's divided by one integer, no multiplicity is counted,
    and keys come largest part first, as is_joint_flow reads them.  From the
    enumerator the build took several times as long at n = 30.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    terms: list[dict[tuple[int, ...], int]] = [{} for _ in range(n + 1)]
    terms[0][()] = factorial(n)
    # One factor exp(t_i s^i) at a time, largest i first, so keys stay sorted.  Each
    # weight is read before any term of part i is written into it (only higher
    # weights are written), so no term takes part i twice over.
    for part in range(n - 1, 0, -1):
        for weight in range(n - part, -1, -1):
            for key, coeff in terms[weight].items():
                for m in range(1, (n - weight) // part + 1):
                    coeff //= m
                    terms[weight + m * part][key + (part,) * m] = coeff
    return terms


def is_joint_flow(fields: Sequence[AffineVectorField], terms: Sequence[dict[tuple[int, ...], int]]) -> bool:
    """Whether C = orbit_map_terms(n), with fields[p-1] = X_p, satisfies
    (a) C_h has no constant term for h = 1..n, and
    (b) dC_h/dt_p = X_(p,h)(C) for p = 1..n-1, h = 1..n,
    where X_(p,h)(C) is the coefficient of d/dx_h in X_p with C_i for x_i and
    C_0 = n! for 1.  Then O = C/n! is the joint flow of the fields from the
    origin, and every polynomial they annihilate is constant along it.
    Both sides are compared as integer term maps; keys are read as
    orbit_map_terms writes them, partitions with the largest part first.
    """
    n = len(terms) - 1
    if len(fields) != n - 1 or any(f.n != n for f in fields):
        raise ValueError(f"need {n - 1} fields on {n}-space")
    if any(() in c for c in terms[1:]):
        return False
    # d/dt_p t^mu = m_p t^(mu - p): one pass over the terms gives every (p, h).
    derivatives: defaultdict[tuple[int, int], dict[tuple[int, ...], int]] = defaultdict(dict)
    for h, c in enumerate(terms[1:], 1):
        for key, coeff in c.items():
            for part in set(key):
                i = key.index(part)
                derivatives[part, h][key[:i] + key[i + 1 :]] = coeff * key.count(part)
    for p, field in enumerate(fields, 1):
        for h, q in enumerate(field.coefficients, 1):
            # A term c x_i adds c C_i (C_0 for 1); an integer c as an int keeps integer fields on ints.
            image: dict[tuple[int, ...], Scalar] = {}
            for mono, c in q.terms.items():
                a = c.numerator if c.denominator == 1 else c
                source = terms[mono[0][0] if mono else 0]
                if image:
                    for key, v in source.items():
                        image[key] = image.get(key, 0) + a * v
                else:
                    image = {key: a * v for key, v in source.items()}
            if len(q.terms) > 1:  # only a sum of terms can cancel
                image = {key: v for key, v in image.items() if v}
            if derivatives.get((p, h), {}) != image:
                return False
    # A part outside 1..n-1 would be a parameter that no field moves.
    return all(0 < p < n for p, _ in derivatives)


class SymmetryAlgebra(_Frozen):
    """A basis of affine fields X with X p = c p, and the scalar c for each."""

    __slots__ = ("basis", "eigenvalues")

    def __init__(self, basis: tuple[AffineVectorField, ...], eigenvalues: tuple[Fraction, ...]):
        self._set(basis, eigenvalues)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def isotropy(self) -> SymmetryAlgebra:
        """The fields with no constant part, in the nullspace basis of p's system in (c, linear) alone.

        tests/oracles.py's linear_isotropy solves that system as the reference.  The basis has one
        vector per free column f: 1 at f and 0 at the other free columns, so its last nonzero entry
        is at f.  With the constant part first and (c, linear) reversed, these are the reduced rows
        that pivot past the constant part, here scaled to a leading 1 and ordered by f.  Each
        combines fields whose eigen-relations the solver checked, so none is checked again.
        """
        n = self.basis[0].n if self.basis else 0
        top = n + n * n  # the column of c
        rows = [dict(enumerate([*f.constant, *reversed([c, *f.flatten()[n:]])]))
                for f, c in zip(self.basis, self.eigenvalues)]
        reduced, pivots = linalg._reduced_echelon(rows)
        vectors = []
        for row, pivot in reversed([*zip(reduced, pivots)]):
            if pivot >= n:
                entries = {top - col: v for col, v in {**row, pivot: Fraction(1)}.items()}
                first = entries[min(entries)]
                vec = [entries.get(k, Fraction(0)) / first for k in range(1 + n * n)]
                vectors.append([vec[0], *[Fraction(0)] * n, *vec[1:]])  # a zero constant part
        return SymmetryAlgebra(tuple(_solution_fields(n, vectors)), tuple(vec[0] for vec in vectors))


def _solution_fields(n: int, vectors: Sequence[Sequence[Fraction]]) -> list[AffineVectorField]:
    """The field of each solution vector: after c, the coefficient of d/dx_(j+1) is the stride
    slice vec[1 + j :: n], read on the monomials 1, x_1, ..., x_n."""
    keys = [(), *(((i, 1),) for i in range(1, n + 1))]
    return [AffineVectorField([Polynomial._raw(n, {key: v for key, v in zip(keys, vec[1 + j :: n]) if v})
                               for j in range(n)]) for vec in vectors]


def symmetry_algebra(p: Polynomial) -> SymmetryAlgebra:
    """All affine fields X (constant + linear part) with X p = c p, c scalar."""
    if not p:
        raise ValueError("polynomial must be nonzero")
    n = p.n
    diffs = [p.diff(j) for j in range(1, n + 1)]
    # Unknown order: c, then constant part by index, then linear part row-major.
    # Each column is (variable factor, 0 for none; term map): x_i and dp/dx_j for unknown (i, j).
    columns = [(0, q.terms) for q in (-p, *diffs)] + [(i, d.terms) for i in range(1, n + 1) for d in diffs]
    # One sparse row per monomial, column -> coefficient; the reduced form does not depend on the row order.
    rows: dict[Mono, dict[int, Fraction]] = {}
    for k, (var, terms) in enumerate(columns):
        for mono, coeff in terms.items():
            rows.setdefault(mono_times_var(mono, var) if var else mono, {})[k] = coeff
    basis_vectors = linalg.nullspace(list(rows.values()), ncols=len(columns))
    fields = _solution_fields(n, basis_vectors)
    if any(field.apply(p) != p * vec[0] for field, vec in zip(fields, basis_vectors)):
        raise RuntimeError("solver produced a field violating its eigen-relation")
    return SymmetryAlgebra(tuple(fields), tuple(vec[0] for vec in basis_vectors))


def isotropy_at_origin(p: Polynomial) -> SymmetryAlgebra:
    """Purely linear fields X with X p = c p; requires p(0) = 0, that is, no constant term.

    A linear field keeps each term's degree, so p's isotropy lies in that of q, its terms of degree <= 3
    (p if none).  If q's isotropy basis passes X p = c p, the two spaces and canonical bases are equal.
    """
    if () in p.terms:
        raise ValueError("origin is not on the hypersurface p = 0")
    q = Polynomial._raw(p.n, {m: c for m, c in p.terms.items() if mono_degree(m) <= 3}) or p
    iso = symmetry_algebra(q).isotropy()
    if all(field.apply(p) == p * c for field, c in zip(iso.basis, iso.eigenvalues)):
        return iso
    return symmetry_algebra(p).isotropy()


def span_contains(algebra: SymmetryAlgebra, fields: Sequence[AffineVectorField]) -> bool:
    """True iff every given field lies in the rational span of the basis; ValueError if their n differ."""
    vectors = (*algebra.basis, *fields)
    if len({f.n for f in vectors}) > 1:
        raise ValueError("dimension mismatch")
    rows = [dict(enumerate(f.flatten())) for f in vectors]
    return linalg.rank(rows) == linalg.rank(rows[: algebra.dimension])
