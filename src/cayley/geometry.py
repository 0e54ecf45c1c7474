"""Geometric invariants of polynomial graphs at the origin.

A graph x_N = f(x_1, ..., x_{N-1}) is studied through the symmetric tensors
of its Taylor expansion.  Two normalizations of the quadratic/cubic data are
exposed:

* the indicator tensors, with entry 1 on every index multiset from
  {1, ..., N-1} summing to N (the pattern that makes every contraction
  vanish by an index count), and
* the exact Taylor tensors of a given graph function, where the degree-m
  coefficient of a monomial is spread evenly over the orderings of its
  indices.

Both carry the same sparsity pattern for the Cayley graphs, and ``verify``'s
traces and pick checks contract both families for Phi_N.  The functions return
values (tensors, rationals, polynomials, tuples); the ``invariants`` report is
written by ``cli``.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from itertools import permutations
from math import factorial, lcm

from . import linalg
from .generate import partitions
from .poly import _ONE, _ZERO, Polynomial, PolyMatrix, Scalar, _collect, _Frozen, determinant

__all__ = [
    "SymmetricTensor", "graph_of", "hessian_determinant", "indicator_tensor", "metric_inverse",
    "pick_invariant", "ruling_check", "signature", "taylor_tensor", "taylor_tensors", "trace",
]

IndexKey = tuple[int, ...]


def _canonical_key(indices: Iterable[int], order: int, dim: int) -> IndexKey:
    key = tuple(sorted(indices))
    if len(key) != order:
        raise ValueError(f"expected {order} indices, got {len(key)}")
    if any(not 1 <= i <= dim for i in key):
        raise ValueError(f"index out of range 1..{dim} in {key}")
    return key


class SymmetricTensor(_Frozen):
    """A fully symmetric order-m tensor stored by sorted index multiset; unhashable.
    ``linalg`` reads an order-2 tensor as sparse rows made from its entries."""

    __slots__ = ("order", "dim", "entries")

    def __init__(self, order: int, dim: int, entries: Mapping[IndexKey, Scalar] | None = None):
        if order < 0 or dim < 0:
            raise ValueError("order and dimension must be nonnegative")
        entries = entries or {}
        canon = {_canonical_key(key, order, dim): Fraction(value) for key, value in entries.items()}
        if len(canon) < len(entries):
            raise ValueError("two keys name the same index multiset")
        self._set(order, dim, {key: v for key, v in canon.items() if v})

    def get(self, *indices: int) -> Fraction:
        """Component for any ordering of the indices (zero if absent)."""
        return self.entries.get(_canonical_key(indices, self.order, self.dim), _ZERO)

    def is_zero(self) -> bool:
        return not self.entries


def _matrix_rows(g: SymmetricTensor) -> list[dict[int, Fraction]]:
    """An order-2 tensor as the sparse rows of its matrix, columns 0..dim-1."""
    if g.order != 2:
        raise ValueError("only an order-2 tensor is a matrix")
    rows: list[dict[int, Fraction]] = [{} for _ in range(g.dim)]
    for (i, j), value in g.entries.items():
        rows[i - 1][j - 1] = rows[j - 1][i - 1] = value
    return rows


def indicator_tensor(n: int, m: int) -> SymmetricTensor:
    """Order-m tensor on {1..n-1} with entry 1 whenever the indices sum to n.

    Its keys are generate.partitions(n, m), the partitions of n into m parts,
    so the tensors of orders 2..n together hold every term of Phi_n but -x_n.
    """
    if m < 2:
        raise ValueError("order must be at least 2")
    if n < 3:
        raise ValueError("need n >= 3")
    # With m >= 2 parts every part is below n, so every key is in range.
    return SymmetricTensor._raw(m, n - 1, {key: _ONE for key in partitions(n, m)})


def taylor_tensors(f: Polynomial) -> dict[int, SymmetricTensor]:
    """taylor_tensor(f, m) for every degree m of f's terms, from one pass over them."""
    groups: dict[int, dict[IndexKey, Fraction]] = {}
    for mono, coeff in f.terms.items():
        key: tuple[int, ...] = ()
        weight = 1
        for var, exp in mono:
            key += (var,) * exp
            weight *= factorial(exp)
        m = len(key)
        groups.setdefault(m, {})[key] = Fraction(coeff.numerator * weight, coeff.denominator * factorial(m))
    return {m: SymmetricTensor._raw(m, f.n, entries) for m, entries in groups.items()}


def taylor_tensor(f: Polynomial, m: int) -> SymmetricTensor:
    """The symmetric tensor of f's degree-m part.

    The degree-m part of f equals the sum of T[i_1..i_m] x_{i_1}...x_{i_m}
    over all ordered index tuples, so each monomial coefficient is divided
    evenly over the distinct orderings of its index multiset.
    """
    if m < 0:
        raise ValueError("order must be nonnegative")
    return taylor_tensors(f).get(m) or SymmetricTensor._raw(m, f.n, {})


def metric_inverse(g: SymmetricTensor) -> SymmetricTensor:
    """Exact inverse of an order-2 tensor, viewed as a matrix."""
    inv = linalg.invert(_matrix_rows(g))
    return SymmetricTensor(2, g.dim, {(i + 1, j + 1): v for i, row in enumerate(inv) for j, v in row.items() if i <= j})


def trace(tensor: SymmetricTensor, g_inv: SymmetricTensor) -> SymmetricTensor:
    """Contract the first two slots of a symmetric tensor with a metric.

    By full symmetry the choice of slots is immaterial.  The result has
    order m - 2 (order 0 means a scalar stored under the empty key).
    Removing one copy each of i and j from a sorted key leaves it sorted.
    """
    if tensor.order < 2:
        raise ValueError("tensor order must be at least 2")
    if g_inv.order != 2:
        raise ValueError("metric must have order 2")
    if tensor.dim != g_inv.dim:
        raise ValueError("dimension mismatch")
    products = []
    for (i, j), g_val in g_inv.entries.items():
        for key, t_val in tensor.entries.items():
            if i in key and j in key:
                rest = list(key)
                rest.remove(i)
                if j in rest:
                    rest.remove(j)
                    products.append((tuple(rest), (g_val if i == j else 2 * g_val) * t_val))
    return SymmetricTensor._raw(tensor.order - 2, tensor.dim, _collect(products))


def pick_invariant(g_inv: SymmetricTensor, a: SymmetricTensor) -> Fraction:
    """Full contraction of the cubic tensor with itself through the inverse metric.

    Takes the inverse metric g_.., as ``trace`` does, so a caller that also
    takes traces inverts its metric once.  Computes sum g_il g_jm g_kn
    a^{ijk} a^{lmn} over all ordered index tuples.  The sparse inverse metric
    is applied to one slot of the ordered tensor at a time, rotating the slots
    after each pass, so three passes give b^{lmn} = sum g_il g_jm g_kn a^{ijk},
    and the invariant is the single dot product sum b^{lmn} a^{lmn}.  The
    passes run on integers: with G and A the lcms of the denominators of the
    inverse metric and of a, on G g_.. and A a, divided by G^3 A^2 at the end.
    """
    if g_inv.order != 2 or a.order != 3:
        raise ValueError("need an order-2 inverse metric and an order-3 tensor")
    if g_inv.dim != a.dim:
        raise ValueError("dimension mismatch")
    g_scale = lcm(*(v.denominator for v in g_inv.entries.values()))
    a_scale = lcm(*(v.denominator for v in a.entries.values()))
    rows: dict[int, list[tuple[int, int]]] = {}
    for (i, j), value in g_inv.entries.items():
        value = value.numerator * (g_scale // value.denominator)
        rows.setdefault(i, []).append((j, value))
        if i != j:
            rows.setdefault(j, []).append((i, value))
    ordered = {
        triple: value.numerator * (a_scale // value.denominator)
        for key, value in a.entries.items() for triple in permutations(key)
    }
    contracted = ordered
    for _ in range(3):
        rotated: dict[IndexKey, int] = {}
        for (i, j, k), value in contracted.items():
            for l, metric in rows.get(i, ()):
                rotated[j, k, l] = rotated.get((j, k, l), 0) + metric * value
        contracted = rotated
    total = sum(v * ordered[key] for key, v in contracted.items() if key in ordered)
    return Fraction(total, g_scale**3 * a_scale**2)


def signature(g: SymmetricTensor) -> tuple[int, int, int]:
    """Exact inertia (positive, negative, zero) of an order-2 tensor via rational congruence reduction."""
    return linalg.inertia(_matrix_rows(g))


def hessian_determinant(f: Polynomial) -> Polynomial:
    """Exact determinant of the matrix of second partials of f."""
    n = f.n
    if n == 0:
        return Polynomial.constant(0, 1)
    partials = [f.diff(i) for i in range(1, n + 1)]
    upper = {(i, j): partials[i].diff(j + 1) for i in range(n) for j in range(i, n)}
    rows = [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    return determinant(PolyMatrix(rows))


def graph_of(phi: Polynomial) -> Polynomial:
    """Recover f with phi = -x_n + f from a graph-form polynomial, n = phi.n."""
    n = phi.n
    return (phi + Polynomial.variable(n, n)).restrict(n - 1)


def ruling_check(phi: Polynomial) -> tuple[int, bool]:
    """Linearity of the defining polynomial in the upper variable block.

    Fixing x_1 .. x_{floor(n/2)} must leave the polynomial of joint degree
    at most one in the remaining variables; the surface is then fibered by
    affine planes of dimension (n-1)/2 for odd n and (n-2)/2 for even n
    (both equal (n-1)//2).
    """
    n = phi.n
    if n < 3:
        raise ValueError("need n >= 3")
    block = range(n // 2 + 1, n + 1)
    is_linear = phi.degree_in(block) <= 1
    return (n - 1) // 2, is_linear
