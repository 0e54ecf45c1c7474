"""Affine vector fields, exact flows, and affine symmetry algebras.

An affine vector field on N-space is a derivation

    X = sum_j X_j d/dx_j,    X_j = constant[j] + sum_i linear[i][j] * x_i,

built from and stored as its N coefficient polynomials X_j, each of
degree <= 1; the constant vector and the matrix ``linear`` are views read
off them.  The bracket and the flow are computed with the derivation
itself: [X, Y] has coefficients X(Y_j) - Y(X_j), and when the linear part
is nilpotent the time-t flow is the finite Lie series
x_j -> sum_k t^k/k! X^k(x_j), an affine map.  An affine map is built and
stored the same way, from the n images x_j -> T_j(x) of the coordinates:
it acts on a point by evaluation, on a polynomial p by
p.substitute(T.images), and composes by substitution.  Both classes share
one constructor check and the views, in the private base _Affine.

For the commuting shift fields X_p of the Cayley family no matrix is
needed: reading a point as the series 1 + x_1 s + ... + x_n s^n, the orbit
map from parameters t to points is the truncated series exp(sum_p t_p s^p)
and its inverse is the series log, both O(n^2) recurrences.

The solver at the bottom computes, for a polynomial p, the space of all
affine fields X with X p = c p for a scalar c.  Since the unknowns
(c, constant, linear) enter the coefficients of X p - c p linearly, this is
an exact rational nullspace computation.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import lcm

from . import linalg
from .poly import Mono, Polynomial, Scalar, _Frozen, mono_mul, variables

__all__ = [
    "AffineTransformation", "AffineVectorField", "InexactExponentialError", "SymmetryAlgebra",
    "cayley_fields", "commutator", "coordinate_field", "euler_field", "exp_field",
    "field_to_json_dict", "isotropy_at_origin", "orbit_point", "parameters_for_point",
    "span_contains", "symmetry_algebra", "weight_scaling",
]


class InexactExponentialError(ValueError):
    """Raised when a field's linear part is not nilpotent, so its flow is not polynomial."""


def _freeze_vector(v: Sequence[Scalar], n: int, what: str) -> tuple[Fraction, ...]:
    if len(v) != n:
        raise ValueError(f"{what} has length {len(v)}, expected {n}")
    return tuple(Fraction(x) for x in v)


class _Affine(_Frozen):
    """n polynomials of degree <= 1 in the same n variables, kept in the one slot of a subclass."""

    __slots__ = ()

    def __init__(self, polys: Sequence[Polynomial]):
        polys = tuple(polys)
        if any(q.n != len(polys) for q in polys):
            raise ValueError(f"{type(self).__name__} needs n polynomials in the same n variables")
        # A monomial of degree <= 1 is () or ((i, 1),).
        if any(len(m) > 1 or m and m[0][1] > 1 for q in polys for m in q.terms):
            raise ValueError(f"{type(self).__name__} needs polynomials of degree <= 1")
        self._set(polys)

    @property
    def n(self) -> int:
        return len(getattr(self, self.__slots__[0]))

    @property
    def constant(self) -> tuple[Fraction, ...]:
        """constant[j] is the constant term of polynomial j."""
        return tuple(p.terms.get((), Fraction(0)) for p in getattr(self, self.__slots__[0]))

    @property
    def linear(self) -> tuple[tuple[Fraction, ...], ...]:
        """linear[i][j] is the coefficient of x_(i+1) in polynomial j."""
        polys = getattr(self, self.__slots__[0])
        return tuple(
            tuple(p.terms.get(((i, 1),), Fraction(0)) for p in polys) for i in range(1, len(polys) + 1)
        )


class AffineVectorField(_Affine):
    """A degree-<=1 vector field sum_j coefficients[j-1] d/dx_j, built from its coefficients."""

    __slots__ = ("coefficients",)

    @classmethod
    def zero(cls, n: int) -> "AffineVectorField":
        return cls([Polynomial.zero(n)] * n)

    def apply(self, p: Polynomial) -> Polynomial:
        """Apply the derivation: X p = sum_j X_j dp/dx_j.

        One pass over the terms of p accumulates every product of a term of
        dp/dx_j with a term of X_j into a single term map.
        """
        if p.n != self.n:
            raise ValueError(f"dimension mismatch: field in {self.n}, polynomial in {p.n}")
        out: dict[Mono, Fraction] = {}
        for mono, coeff in p.terms.items():
            for k, (var, exp) in enumerate(mono):
                factors = self.coefficients[var - 1].terms
                if not factors:
                    continue
                rest = ((var, exp - 1),) if exp > 1 else ()
                lowered = mono[:k] + rest + mono[k + 1 :]
                for factor, value in factors.items():
                    key = mono_mul(lowered, factor) if factor else lowered
                    out[key] = out.get(key, 0) + coeff * exp * value
        return Polynomial._raw(p.n, {m: c for m, c in out.items() if c})

    def flatten(self) -> list[Fraction]:
        """Coordinates (constant, then linear row-major) for rank computations."""
        flat = list(self.constant)
        for row in self.linear:
            flat.extend(row)
        return flat

    def __add__(self, other: "AffineVectorField") -> "AffineVectorField":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return AffineVectorField([a + b for a, b in zip(self.coefficients, other.coefficients)])

    def scale(self, factor: Scalar) -> "AffineVectorField":
        f = Fraction(factor)
        return AffineVectorField([a * f for a in self.coefficients])

    def is_zero(self) -> bool:
        return not any(self.coefficients)


def coordinate_field(n: int, j: int) -> AffineVectorField:
    """The translation field d/dx_j."""
    if not 1 <= j <= n:
        raise ValueError(f"index {j} out of range 1..{n}")
    coefficients = [Polynomial.zero(n)] * n
    coefficients[j - 1] = Polynomial.constant(n, 1)
    return AffineVectorField(coefficients)


def cayley_fields(n: int) -> list[AffineVectorField]:
    """The n-1 commuting fields X_p = d/dx_p + sum_{h>p} x_{h-p} d/dx_h.

    Each annihilates the degree-n hypersurface polynomial; together they
    generate a transitive abelian group of affine motions of its zero set.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    zero, one, xs = Polynomial.zero(n), Polynomial.constant(n, 1), variables(n)
    return [
        AffineVectorField([zero] * (p - 1) + [one] + xs[: n - p])
        for p in range(1, n)
    ]


def euler_field(n: int) -> AffineVectorField:
    """The weighted scaling field sum_h h x_h d/dx_h (weight h on x_h)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return AffineVectorField([x * h for h, x in enumerate(variables(n), 1)])


def commutator(x: AffineVectorField, y: AffineVectorField) -> AffineVectorField:
    """The Lie bracket [X, Y] with the convention [X,Y]f = X(Yf) - Y(Xf).

    Its coefficient of d/dx_j is X(Y_j) - Y(X_j).
    """
    if x.n != y.n:
        raise ValueError("dimension mismatch")
    return AffineVectorField([x.apply(yj) - y.apply(xj) for xj, yj in zip(x.coefficients, y.coefficients)])


class AffineTransformation(_Affine):
    """An affine map x_j -> images[j-1], built from its n images."""

    __slots__ = ("images",)

    @classmethod
    def identity(cls, n: int) -> "AffineTransformation":
        return cls(variables(n))

    def apply(self, point: Sequence[Scalar]) -> tuple[Fraction, ...]:
        return tuple(q.evaluate(point) for q in self.images)

    def then(self, other: "AffineTransformation") -> "AffineTransformation":
        """The composite map: apply self first, then other."""
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return AffineTransformation([q.substitute(self.images) for q in other.images])

    def inverse(self) -> "AffineTransformation":
        """y -> (y - c) L^-1, undoing x -> x L + c on row vectors (L = linear); ValueError if singular."""
        n, c = self.n, self.constant
        images = []
        for column in zip(*linalg.invert(self.linear)):
            shift = -sum(v * ci for v, ci in zip(column, c))
            images.append(Polynomial(n, [({}, shift)] + [({i: 1}, v) for i, v in enumerate(column, 1)]))
        return AffineTransformation(images)


def exp_field(field: AffineVectorField, t: Scalar) -> AffineTransformation:
    """The exact time-t flow of a field whose linear part is nilpotent.

    Coordinate j of the flow is the Lie series sum_k t^k/k! X^k(x_j).  With
    A the linear part, X^k(x_j) has linear part A^k, so the series is finite
    exactly when A is nilpotent, that is when X^(n+1)(x_j) = 0 for every j;
    this is decided before t enters, so it holds for every t, including 0.
    """
    t = Fraction(t)
    n = field.n
    images = []
    for x in variables(n):
        series = [x]
        while series[-1] and len(series) <= n + 1:
            series.append(field.apply(series[-1]))
        if series[-1]:
            raise InexactExponentialError("inexact exponential: linear part is not nilpotent")
        image, weight = Polynomial.zero(n), Fraction(1)
        for k, term in enumerate(series):
            if k:
                weight = weight * t / k
            image = image + term * weight
        images.append(image)
    return AffineTransformation(images)


def weight_scaling(n: int, lam: Scalar) -> AffineTransformation:
    """The exact diagonal map x_h -> lam^h x_h (lam nonzero)."""
    lam = Fraction(lam)
    if not lam:
        raise ValueError("scaling parameter must be nonzero")
    return AffineTransformation([x * lam**h for h, x in enumerate(variables(n), 1)])


def _series_exp(a: Sequence[Scalar]) -> tuple[Fraction, ...]:
    """Coefficients 1..len(a) of exp(a_1 s + a_2 s^2 + ...), by k e_k = sum_j j a_j e_{k-j}.

    The recurrence runs over the integers.  With L the lcm of the
    denominators of the a_j, b_j = L a_j and e_k = E_k / (k! L^k), it reads
    E_k = sum_j j b_j L^(j-1) (k-1)!/(k-j)! E_(k-j), and each e_k is reduced
    once, at the end.
    """
    scale = lcm(*(x.denominator for x in a))
    # weights[j - 1] = j b_j L^(j-1) does not depend on k.
    weights = [j * x.numerator * (scale // x.denominator) * scale ** (j - 1)
               for j, x in enumerate(a, 1)]
    big, out, denominator = [1], [], 1
    for k in range(1, len(a) + 1):
        total, falling = 0, 1  # falling = (k-1)!/(k-j)!
        for j in range(1, k + 1):
            if weights[j - 1]:
                total += weights[j - 1] * falling * big[k - j]
            falling *= k - j
        big.append(total)
        denominator *= k * scale
        out.append(Fraction(total, denominator))
    return tuple(out)


def _series_log1p(x: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Coefficients 1..len(x) of log(1 + x_1 s + x_2 s^2 + ...).

    Uses k l_k = k x_k - sum_{j<k} j l_j x_{k-j}, from (1 + X) L' = X'.
    """
    l: list[Fraction] = []
    for k in range(1, len(x) + 1):
        l.append((k * x[k - 1] - sum(j * l[j - 1] * x[k - j - 1] for j in range(1, k))) / k)
    return tuple(l)


# With X(s) = x_1 s + ... + x_n s^n, the flow of X_p multiplies 1 + X(s) by
# exp(t s^p) modulo s^(n+1).  The flows commute, and the origin is 1 + X = 1,
# so the orbit map is a truncated series exp and its inverse a series log.


def orbit_point(n: int, params: Sequence[Scalar]) -> tuple[Fraction, ...]:
    """Image of the origin under exp(sum_p t_p X_p) for the commuting fields.

    This is the point whose coordinates are the coefficients of s^1..s^n in
    exp(t_1 s + ... + t_{n-1} s^{n-1}); it lies on the hypersurface exactly.
    """
    t = _freeze_vector(params, n - 1, "parameter vector")
    return _series_exp(t + (Fraction(0),))


def parameters_for_point(n: int, x: Sequence[Scalar]) -> tuple[Fraction, ...]:
    """Invert the orbit map on the first n-1 coordinates.

    The parameters are the coefficients of s^1..s^{n-1} in
    log(1 + x_1 s + ... + x_{n-1} s^{n-1}).
    """
    return _series_log1p(_freeze_vector(x, n - 1, "coordinate vector"))


class SymmetryAlgebra(_Frozen):
    """A basis of affine fields X with X p = c p, and the scalar c for each."""

    __slots__ = ("basis", "eigenvalues")

    def __init__(self, basis: tuple[AffineVectorField, ...], eigenvalues: tuple[Fraction, ...]):
        self._set(basis, eigenvalues)

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _eigen_system(p: Polynomial, include_constant: bool) -> SymmetryAlgebra:
    if not p:
        raise ValueError("polynomial must be nonzero")
    n = p.n
    diffs = [p.diff(j) for j in range(1, n + 1)]
    # Unknown order: c, then constant part by index, then linear part row-major.
    # Each column is (monomial factor, term map): x_i and dp/dx_j for unknown (i, j).
    columns = [((), (-p).terms)] + [((), d.terms) for d in diffs if include_constant]
    columns += [(((i, 1),), d.terms) for i in range(1, n + 1) for d in diffs]
    # One sparse row per monomial, column -> coefficient; the reduced form
    # does not depend on the row order.
    rows: dict[Mono, dict[int, Fraction]] = {}
    for k, (shift, terms) in enumerate(columns):
        for mono, coeff in terms.items():
            rows.setdefault(mono_mul(mono, shift), {})[k] = coeff
    basis_vectors = linalg.nullspace(list(rows.values()), ncols=len(columns))
    # After c, the coefficient of d/dx_(j+1) is the stride slice vec[1 + j :: n],
    # read on the monomials 1 (if constants are unknowns), x_1, ..., x_n.
    keys = ([()] if include_constant else []) + [((i, 1),) for i in range(1, n + 1)]
    fields = []
    for vec in basis_vectors:
        coefficients = [
            Polynomial._raw(n, {key: v for key, v in zip(keys, vec[1 + j :: n]) if v}) for j in range(n)
        ]
        field = AffineVectorField(coefficients)
        if field.apply(p) != p * vec[0]:
            raise RuntimeError("solver produced a field violating its eigen-relation")
        fields.append(field)
    return SymmetryAlgebra(tuple(fields), tuple(vec[0] for vec in basis_vectors))


def symmetry_algebra(p: Polynomial) -> SymmetryAlgebra:
    """All affine fields X (constant + linear part) with X p = c p, c scalar."""
    return _eigen_system(p, include_constant=True)


def isotropy_at_origin(p: Polynomial) -> SymmetryAlgebra:
    """Purely linear fields X with X p = c p; requires p(0) = 0."""
    if not p:
        raise ValueError("polynomial must be nonzero")
    if p.evaluate([0] * p.n) != 0:
        raise ValueError("origin is not on the hypersurface p = 0")
    return _eigen_system(p, include_constant=False)


def span_contains(algebra: SymmetryAlgebra, fields: Sequence[AffineVectorField]) -> bool:
    """True iff every given field lies in the rational span of the basis; ValueError if their n differ."""
    rows = [f.flatten() for f in (*algebra.basis, *fields)]
    if len({len(row) for row in rows}) > 1:  # a field on n-space has n + n^2 coordinates
        raise ValueError("dimension mismatch")
    return linalg.rank(rows) == linalg.rank(rows[: algebra.dimension])


def field_to_json_dict(field: AffineVectorField, eigenvalue: Fraction | None = None) -> dict:
    """Pinned JSON form with rationals as num/den strings."""
    data = {
        "n": field.n,
        "constant": [str(v) for v in field.constant],
        "linear": [[str(v) for v in row] for row in field.linear],
    }
    if eigenvalue is not None:
        data["eigenvalue"] = str(eigenvalue)
    return data

