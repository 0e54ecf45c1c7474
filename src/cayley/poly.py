"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial lives in an ambient space of ``n`` variables ``x1 .. xn``
(1-based indices) and is stored as a dictionary mapping monomials to nonzero
``Fraction`` coefficients.  A monomial is a tuple of ``(variable, exponent)``
pairs, sorted by variable index, with no zero exponents:

    x1^2 * x3  ->  ((1, 2), (3, 1))
    1          ->  ()

This representation is canonical: two polynomials are mathematically equal
exactly when their term dictionaries are equal.  All arithmetic is exact;
there is no floating point anywhere.

Terms are ordered for printing and serialization by ascending total degree,
ties broken by lexicographically descending exponent vector (x1-major).  That
is the order in which the generated hypersurface equations are conventionally
written, so rendered output is byte-stable.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Callable, Hashable, Iterable, Mapping, Sequence
from fractions import Fraction
from math import lcm

__all__ = [
    "PolyMatrix", "Polynomial", "determinant", "divide_exact", "format_latex", "format_plain",
    "poly_from_json_dict", "poly_to_json_dict", "variables", "weighted_degree_check",
]

Mono = tuple[tuple[int, int], ...]
Scalar = int | Fraction
ExpsLike = Mapping[int, int] | Iterable[tuple[int, int]]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _normalize_exps(exps: ExpsLike, n: int) -> Mono:
    """Validate and canonicalize an exponent mapping into a Mono key."""
    items = exps.items() if isinstance(exps, Mapping) else exps
    merged: dict[int, int] = {}
    for var, exp in items:
        if not 1 <= var <= n:
            raise ValueError(f"variable index {var} out of range 1..{n}")
        if exp < 0:
            raise ValueError(f"negative exponent {exp} for x{var}")
        if exp:
            merged[var] = merged.get(var, 0) + exp
    return tuple(sorted(merged.items()))


def _collect(pairs: Iterable[tuple[Hashable, Fraction]]) -> dict:
    """Sum the coefficients of equal keys and drop the keys that sum to zero."""
    out: dict = {}
    for key, coeff in pairs:
        if key in out:
            out[key] += coeff
        else:
            out[key] = coeff  # stored as given: no Fraction addition for a new key
    return {key: c for key, c in out.items() if c}


def mono_mul(a: Mono, b: Mono) -> Mono:
    out = dict(a)
    for var, exp in b:
        out[var] = out.get(var, 0) + exp
    return tuple(sorted(out.items()))


def mono_degree(m: Mono) -> int:
    return sum(exp for _, exp in m)


def mono_div(a: Mono, b: Mono) -> Mono | None:
    """Return a/b as a monomial, or None if b does not divide a."""
    out = dict(a)
    for var, exp in b:
        have = out.get(var, 0)
        if have < exp:
            return None
        if have == exp:
            del out[var]
        else:
            out[var] = have - exp
    return tuple(sorted(out.items()))


def _mono_key(m: Mono, n: int) -> tuple[int, tuple[int, ...]]:
    """Canonical sort key: (total degree, negated dense exponent vector)."""
    vec = [0] * n
    for var, exp in m:
        vec[var - 1] = -exp
    return (mono_degree(m), tuple(vec))


class _Frozen:
    """An immutable value: a constructor sets the attributes named in __slots__
    once, by _set.  Values of one class with equal attributes are equal and
    hash alike; a value holding a dict is unhashable."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _set(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)
        return self

    def __setstate__(self, state):  # copy and pickle pass (None, {slot: value})
        self._set(*state[1].values())

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields()))
        return f"{type(self).__name__}({fields})"


class Polynomial(_Frozen):
    """An immutable sparse polynomial with exact rational coefficients.

    Instances should be treated as frozen: every operation returns a new
    polynomial, and the internal term map must not be mutated.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Iterable[tuple[ExpsLike, Scalar]] = ()):
        if n < 0:
            raise ValueError("ambient dimension must be nonnegative")
        pairs = ((_normalize_exps(exps, n), Fraction(coeff)) for exps, coeff in terms)
        self._set(n, _collect(pairs))

    # -- constructors ------------------------------------------------------

    @classmethod
    def _raw(cls, n: int, terms: dict[Mono, Fraction]) -> "Polynomial":
        """Internal constructor; terms must already be canonical."""
        p = cls.__new__(cls)  # not _set: this runs once per arithmetic result
        object.__setattr__(p, "n", n)
        object.__setattr__(p, "terms", terms)
        return p

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls._raw(n, {})

    @classmethod
    def constant(cls, n: int, value: Scalar) -> "Polynomial":
        c = Fraction(value)
        return cls._raw(n, {(): c} if c else {})

    @classmethod
    def variable(cls, n: int, index: int) -> "Polynomial":
        if not 1 <= index <= n:
            raise ValueError(f"variable index {index} out of range 1..{n}")
        return cls._raw(n, {((index, 1),): _ONE})

    @classmethod
    def monomial(cls, n: int, exps: ExpsLike, coeff: Scalar = 1) -> "Polynomial":
        return cls(n, [(exps, coeff)])

    # -- basic queries -----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __hash__(self):  # equality is _Frozen's, over (n, terms)
        return hash((self.n, frozenset(self.terms.items())))

    def coefficient(self, exps: ExpsLike) -> Fraction:
        """Coefficient of the given monomial (zero if absent)."""
        return self.terms.get(_normalize_exps(exps, self.n), _ZERO)

    def total_degree(self) -> int:
        """Total degree; the zero polynomial has degree -1 by convention."""
        return max((mono_degree(m) for m in self.terms), default=-1)

    def degree_in(self, variables: Iterable[int]) -> int:
        """Maximum joint degree of the given variables over all terms."""
        block = set(variables)
        best = 0
        for mono in self.terms:
            best = max(best, sum(e for v, e in mono if v in block))
        return best

    def variables_used(self) -> set[int]:
        return {v for mono in self.terms for v, _ in mono}

    def is_constant(self) -> bool:
        return all(m == () for m in self.terms)

    def sorted_terms(self) -> list[tuple[Mono, Fraction]]:
        """Terms in canonical order: degree ascending, then x1-major."""
        return sorted(self.terms.items(), key=lambda kv: _mono_key(kv[0], self.n))

    # -- ring operations ---------------------------------------------------

    def _require_same_space(self, other: "Polynomial") -> None:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    def _merge(self, other, op: Callable[[Fraction, Fraction], Fraction]) -> "Polynomial":
        """Fold other's terms into a copy of self's with op (add or sub)."""
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_space(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            c = op(out.pop(mono, _ZERO), coeff)
            if c:
                out[mono] = c
        return Polynomial._raw(self.n, out)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._merge(other, operator.add)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._merge(other, operator.sub)

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(self.n, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return Polynomial.zero(self.n)
            return Polynomial._raw(self.n, {m: k * c for m, k in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_space(other)
        products = (
            (mono_mul(ma, mb), ca * cb)
            for ma, ca in self.terms.items()
            for mb, cb in other.terms.items()
        )
        return Polynomial._raw(self.n, _collect(products))

    __rmul__ = __mul__

    def __truediv__(self, scalar: Scalar) -> "Polynomial":
        c = Fraction(scalar)
        return Polynomial._raw(self.n, {m: k / c for m, k in self.terms.items()})

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.constant(self.n, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    # -- calculus and substitution -----------------------------------------

    def diff(self, index: int) -> "Polynomial":
        """Exact partial derivative with respect to x_index.

        Lowering one exponent maps distinct monomials to distinct monomials,
        so every term gives its own term and nothing is summed.
        """
        if not 1 <= index <= self.n:
            raise ValueError(f"variable index {index} out of range 1..{self.n}")
        out: dict[Mono, Fraction] = {}
        for mono, coeff in self.terms.items():
            for k, (var, exp) in enumerate(mono):
                if var == index:
                    rest = ((var, exp - 1),) if exp > 1 else ()
                    out[mono[:k] + rest + mono[k + 1 :]] = coeff * exp
                    break
        return Polynomial._raw(self.n, out)

    def evaluate(self, point: Sequence[Scalar]) -> Fraction:
        """Exact value at a rational point (one coordinate per variable).

        Each term is formed as an unreduced integer numerator and
        denominator; the terms are brought to the lcm of their denominators
        and the sum is reduced once, by a single Fraction at the end.
        """
        if len(point) != self.n:
            raise ValueError(f"point has length {len(point)}, expected {self.n}")
        values = [Fraction(v) for v in point]
        powers: dict[tuple[int, int], tuple[int, int]] = {}
        nums, dens = [], []
        for mono, coeff in self.terms.items():
            num, den = coeff.numerator, coeff.denominator
            for key in mono:
                if key not in powers:
                    value = values[key[0] - 1]
                    powers[key] = (value.numerator ** key[1], value.denominator ** key[1])
                pnum, pden = powers[key]
                num *= pnum
                den *= pden
            nums.append(num)
            dens.append(den)
        common = lcm(*dens)
        return Fraction(sum(num * (common // den) for num, den in zip(nums, dens)), common)

    def substitute(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Compose: replace x_i by images[i-1].  All images must share a space.

        Horner's rule, one variable at a time, innermost (highest index)
        first: the terms that agree below x_v form a polynomial in x_v whose
        coefficients already have x_{v+1}, ... substituted, and it is folded
        as (c_d q + c_{d-1}) q + ... with q the image of x_v.  Every product
        is by one image, never by a power of one.
        """
        if len(images) != self.n:
            raise ValueError(f"need {self.n} images, got {len(images)}")
        if not images:
            return self
        m = images[0].n
        for q in images:
            if q.n != m:
                raise ValueError("images live in different spaces")
        level = {mono: Polynomial.constant(m, coeff) for mono, coeff in self.terms.items()}
        for var in sorted(self.variables_used(), reverse=True):
            q = images[var - 1]
            by_rest: dict[Mono, dict[int, Polynomial]] = {}
            for mono, coeff in level.items():
                exp = mono[-1][1] if mono and mono[-1][0] == var else 0
                by_rest.setdefault(mono[:-1] if exp else mono, {})[exp] = coeff
            level = {}
            for rest, by_exp in by_rest.items():
                top = max(by_exp)
                acc = by_exp[top]
                for exp in range(top - 1, -1, -1):
                    acc = acc * q
                    if exp in by_exp:
                        acc = acc + by_exp[exp]
                level[rest] = acc
        return level.get((), Polynomial.zero(m))

    def extend(self, n_new: int) -> "Polynomial":
        """Reinterpret in a larger ambient space (same terms)."""
        if n_new < self.n:
            raise ValueError("extend cannot shrink the ambient space")
        return Polynomial._raw(n_new, dict(self.terms))

    def restrict(self, n_new: int) -> "Polynomial":
        """Reinterpret in a smaller space; fails if dropped variables occur."""
        if n_new < 0:
            raise ValueError("ambient dimension must be nonnegative")
        used = self.variables_used()
        if any(v > n_new for v in used):
            raise ValueError(f"polynomial uses variables above x{n_new}")
        return Polynomial._raw(n_new, dict(self.terms))

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        return format_plain(self)

    def __repr__(self) -> str:
        return f"Polynomial({self.n}, {format_plain(self)!r})"


def weighted_degree_check(p: Polynomial, weights: Sequence[int], w: int) -> bool:
    """True iff every term of p has weighted degree exactly w.

    The zero polynomial passes vacuously.
    """
    if len(weights) != p.n:
        raise ValueError(f"weights have length {len(weights)}, expected {p.n}")
    for mono in p.terms:
        if sum(weights[var - 1] * exp for var, exp in mono) != w:
            return False
    return True


# -- term rendering ---------------------------------------------------------


def _render(p: Polynomial, var: str, index: Callable[[int], str], coeff_text: Callable[[Fraction], str],
            times: str, plus: str, minus: str) -> str:
    """The terms of p in canonical order, the one loop behind both formats.

    A monomial is its factors var+index(v), with ^index(e) when e > 1, joined
    by times, which also joins a coefficient to its monomial; a coefficient of
    magnitude 1 is left out there.  Terms are joined by plus or minus, the
    first carries only a bare "-" when negative, and the zero polynomial is "0".
    """
    pieces = []
    for mono, coeff in p.sorted_terms():
        factors = [var + index(v) + (f"^{index(e)}" if e > 1 else "") for v, e in mono]
        mag = abs(coeff)
        if mag != 1 or not mono:
            factors.insert(0, coeff_text(mag))
        sign = (plus if coeff > 0 else minus) if pieces else ("" if coeff > 0 else "-")
        pieces.append(sign + times.join(factors))
    return "".join(pieces) or "0"


def format_plain(p: Polynomial) -> str:
    """Deterministic plain-text form, e.g. ``x1*x2 - 1/3*x1^3``."""
    return _render(p, "x", str, str, "*", " + ", " - ")


def _latex_index(k: int) -> str:
    return str(k) if k < 10 else "{" + str(k) + "}"


def _latex_coeff(mag: Fraction) -> str:
    if mag.denominator == 1:
        return str(mag.numerator)
    return rf"\frac{{{mag.numerator}}}{{{mag.denominator}}}"


def format_latex(p: Polynomial) -> str:
    """Deterministic LaTeX form, e.g. ``x_1x_2-\\frac{1}{3}x_1^3``."""
    return _render(p, "x_", _latex_index, _latex_coeff, "", "+", "-")


# -- JSON serialization -----------------------------------------------------


def poly_to_json_dict(p: Polynomial) -> dict:
    """Serialize to the pinned schema with integers as decimal strings."""
    return {
        "n": p.n,
        "terms": [
            {
                "exps": [[v, e] for v, e in mono],
                "num": str(coeff.numerator),
                "den": str(coeff.denominator),
            }
            for mono, coeff in p.sorted_terms()
        ],
    }


def _json_int(value) -> int:
    """A JSON integer or decimal-integer string of at most 4300 digits; floats and booleans are rejected."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and re.fullmatch(r"-?[0-9]{1,4300}", value):
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


def poly_from_json_dict(data: Mapping) -> Polynomial:
    """Parse the schema produced by poly_to_json_dict."""
    try:
        n = _json_int(data["n"])
        terms = [
            (
                [(_json_int(v), _json_int(e)) for v, e in entry["exps"]],
                Fraction(_json_int(entry["num"]), _json_int(entry["den"])),
            )
            for entry in data["terms"]
        ]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed polynomial JSON: {exc}") from exc
    return Polynomial(n, terms)


# -- polynomial matrices and determinants ------------------------------------


class PolyMatrix(_Frozen):
    """A rectangular matrix of polynomials sharing one ambient space."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[Polynomial]]):
        rows = len(entries)
        if rows == 0:
            raise ValueError("matrix needs at least one row")
        cols = len(entries[0])
        if cols == 0:
            raise ValueError("matrix needs at least one column")
        n = entries[0][0].n
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged matrix")
            for p in row:
                if p.n != n:
                    raise ValueError("entries live in different spaces")
        self._set(rows, cols, tuple(tuple(row) for row in entries))


def _leading_term(p: Polynomial) -> tuple[Mono, Fraction]:
    mono = max(p.terms, key=lambda m: _mono_key(m, p.n))
    return mono, p.terms[mono]


def divide_exact(p: Polynomial, q: Polynomial) -> Polynomial:
    """Exact polynomial division p/q; raises ValueError if q does not divide p."""
    if not q:
        raise ZeroDivisionError("division by the zero polynomial")
    p._require_same_space(q)
    q_mono, q_coeff = _leading_term(q)
    quotient: dict[Mono, Fraction] = {}
    rem = p
    while rem:
        r_mono, r_coeff = _leading_term(rem)
        t_mono = mono_div(r_mono, q_mono)
        if t_mono is None:
            raise ValueError("inexact polynomial division")
        # Leading monomials strictly decrease, so each quotient term is new.
        quotient[t_mono] = r_coeff / q_coeff
        rem = rem - Polynomial._raw(p.n, {t_mono: quotient[t_mono]}) * q
    return Polynomial._raw(p.n, quotient)


def determinant(matrix: PolyMatrix) -> Polynomial:
    """Exact determinant of a square polynomial matrix.

    Fraction-free Bareiss elimination with full pivoting: step k swaps into
    place the row and column of the nonzero trailing-block entry with the
    lowest (total degree, term count, row, column), one sign flip per swap.
    Entries stay minors of the permuted matrix, so each update divides exactly
    by the previous pivot: as a scalar if it is constant, else by divide_exact.
    """
    if matrix.rows != matrix.cols:
        raise ValueError(f"non-square matrix: {matrix.rows}x{matrix.cols}")
    size = matrix.rows
    a = [list(row) for row in matrix.entries]
    prev = Polynomial.constant(matrix.entries[0][0].n, 1)
    sign = 1
    for k in range(size):
        block = [(a[i][j].total_degree(), len(a[i][j].terms), i, j)
                 for i in range(k, size) for j in range(k, size) if a[i][j]]
        if not block:
            return Polynomial.zero(prev.n)
        _, _, pi, pj = min(block)
        a[k], a[pi] = a[pi], a[k]
        for row in a[k:]:
            row[k], row[pj] = row[pj], row[k]
        sign *= (-1) ** ((pi != k) + (pj != k))
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                update = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = update / prev.terms[()] if prev.is_constant() else divide_exact(update, prev)
        prev = a[k][k]
    return prev if sign == 1 else -prev


def variables(n: int) -> list[Polynomial]:
    """Convenience: the coordinate polynomials [x1, ..., xn]."""
    return [Polynomial.variable(n, i) for i in range(1, n + 1)]
