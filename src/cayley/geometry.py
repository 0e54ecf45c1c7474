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

Both carry the same sparsity pattern for the Cayley graphs, so the trace and
Pick computations are run over both in the test suite.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import factorial
from typing import Iterable, Mapping, Sequence, Union

from . import linalg
from .generate import partitions
from .poly import Polynomial, PolyMatrix, _collect, _Frozen, determinant

Scalar = Union[int, Fraction]
IndexKey = tuple[int, ...]


def _canonical_key(indices: Iterable[int], order: int, dim: int) -> IndexKey:
    key = tuple(sorted(indices))
    if len(key) != order:
        raise ValueError(f"expected {order} indices, got {len(key)}")
    if any(not 1 <= i <= dim for i in key):
        raise ValueError(f"index out of range 1..{dim} in {key}")
    return key


class SymmetricTensor(_Frozen):
    """A fully symmetric order-m tensor stored by sorted index multiset; unhashable."""

    __slots__ = ("order", "dim", "entries")

    def __init__(self, order: int, dim: int, entries: Mapping[IndexKey, Scalar] | None = None):
        if order < 0 or dim < 0:
            raise ValueError("order and dimension must be nonnegative")
        canon: dict[IndexKey, Fraction] = {}
        for key, value in (entries or {}).items():
            v = Fraction(value)
            if v:
                canon[_canonical_key(key, order, dim)] = v
        self._set(order, dim, canon)

    def get(self, *indices: int) -> Fraction:
        """Component for any ordering of the indices (zero if absent)."""
        return self.entries.get(_canonical_key(indices, self.order, self.dim), Fraction(0))

    def is_zero(self) -> bool:
        return not self.entries

    def as_matrix(self) -> list[list[Fraction]]:
        if self.order != 2:
            raise ValueError("only an order-2 tensor is a matrix")
        return [
            [self.entries.get((min(i, j), max(i, j)), Fraction(0)) for j in range(1, self.dim + 1)]
            for i in range(1, self.dim + 1)
        ]


class Signature(_Frozen):
    """Inertia counts of a symmetric bilinear form."""

    __slots__ = ("positive", "negative", "zero")

    def __init__(self, positive: int, negative: int, zero: int):
        self._set(positive, negative, zero)


def indicator_tensor(n: int, m: int) -> SymmetricTensor:
    """Order-m tensor on {1..n-1} with entry 1 whenever the indices sum to n."""
    if m < 2:
        raise ValueError("order must be at least 2")
    if n < 3:
        raise ValueError("need n >= 3")
    # With m >= 2 parts every part of a partition of n is below n.
    entries = {lam: 1 for lam in partitions(n) if len(lam) == m}
    return SymmetricTensor(m, n - 1, entries)


def taylor_tensor(f: Polynomial, m: int) -> SymmetricTensor:
    """The symmetric tensor of f's degree-m part.

    The degree-m part of f equals the sum of T[i_1..i_m] x_{i_1}...x_{i_m}
    over all ordered index tuples, so each monomial coefficient is divided
    evenly over the distinct orderings of its index multiset.
    """
    if m < 0:
        raise ValueError("order must be nonnegative")
    entries: dict[IndexKey, Fraction] = {}
    for mono, coeff in f.terms.items():
        degree = sum(e for _, e in mono)
        if degree != m:
            continue
        key: tuple[int, ...] = ()
        weight = 1
        for var, exp in mono:
            key += (var,) * exp
            weight *= factorial(exp)
        entries[key] = coeff * Fraction(weight, factorial(m))
    return SymmetricTensor(m, f.n, entries)


def metric_inverse(g: SymmetricTensor) -> SymmetricTensor:
    """Exact inverse of an order-2 tensor, viewed as a matrix."""
    inv = linalg.invert(g.as_matrix())
    entries = {
        (i + 1, j + 1): inv[i][j] for i in range(g.dim) for j in range(i, g.dim) if inv[i][j]
    }
    return SymmetricTensor(2, g.dim, entries)


def trace(tensor: SymmetricTensor, g_inv: SymmetricTensor) -> SymmetricTensor:
    """Contract the first two slots of a symmetric tensor with a metric.

    By full symmetry the choice of slots is immaterial.  The result has
    order m - 2 (order 0 means a scalar stored under the empty key).
    """
    if tensor.order < 2:
        raise ValueError("tensor order must be at least 2")
    if g_inv.order != 2:
        raise ValueError("metric must have order 2")
    if tensor.dim != g_inv.dim:
        raise ValueError("dimension mismatch")
    products = []
    for (i, j), g_val in g_inv.entries.items():
        weight = g_val if i == j else 2 * g_val
        for key, t_val in tensor.entries.items():
            remainder = _remove_pair(key, i, j)
            if remainder is not None:
                products.append((remainder, weight * t_val))
    return SymmetricTensor(tensor.order - 2, tensor.dim, _collect(products))


def _remove_pair(key: IndexKey, i: int, j: int) -> IndexKey | None:
    """Remove one copy each of i and j from a sorted multiset key."""
    rest = list(key)
    try:
        rest.remove(i)
        rest.remove(j)
    except ValueError:
        return None
    return tuple(rest)


def pick_invariant(g: SymmetricTensor, a: SymmetricTensor) -> Fraction:
    """Full contraction of the cubic tensor with itself through the metric.

    Computes sum g_il g_jm g_kn a^{ijk} a^{lmn} over all ordered index
    tuples, with g_.. the inverse metric.  The sparse inverse metric is
    applied to one slot of the ordered tensor at a time, rotating the slots
    after each pass, so three passes give b^{lmn} = sum g_il g_jm g_kn a^{ijk},
    and the invariant is the single dot product sum b^{lmn} a^{lmn}.
    """
    if g.order != 2 or a.order != 3:
        raise ValueError("need an order-2 metric and an order-3 tensor")
    if g.dim != a.dim:
        raise ValueError("dimension mismatch")
    rows: dict[int, list[tuple[int, Fraction]]] = {}
    for (i, j), value in metric_inverse(g).entries.items():
        rows.setdefault(i, []).append((j, value))
        if i != j:
            rows.setdefault(j, []).append((i, value))
    ordered = {triple: value for key, value in a.entries.items() for triple in permutations(key)}
    contracted = ordered
    for _ in range(3):
        rotated: dict[IndexKey, Fraction] = {}
        for (i, j, k), value in contracted.items():
            for l, metric in rows.get(i, ()):
                rotated[j, k, l] = rotated.get((j, k, l), 0) + metric * value
        contracted = rotated
    return sum((v * ordered[key] for key, v in contracted.items() if key in ordered), Fraction(0))


def signature(g: SymmetricTensor) -> Signature:
    """Exact inertia of an order-2 tensor via rational congruence reduction."""
    pos, neg, zero = linalg.inertia(g.as_matrix())
    return Signature(pos, neg, zero)


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


def invariants_bundle(phi: Polynomial) -> dict:
    """The invariants report for a graph-form polynomial.

    Uses the exact Taylor tensors of the graph function.  The Hessian value
    is reported as a rational string when constant, otherwise null.
    """
    f = graph_of(phi)
    g = taylor_tensor(f, 2)
    a = taylor_tensor(f, 3)
    sig = signature(g)
    pick = pick_invariant(g, a)
    hess = hessian_determinant(f)
    hess_constant = hess.is_constant()
    plane_dim, linear = ruling_check(phi)
    return {
        "n": phi.n,
        "signature": {"pos": sig.positive, "neg": sig.negative, "zero": sig.zero},
        "pick": str(pick),
        "hessian_det_constant": hess_constant,
        "hessian_det_value": str(hess.coefficient({})) if hess_constant else None,
        "ruling": {"dim": plane_dim, "linear": linear},
    }
