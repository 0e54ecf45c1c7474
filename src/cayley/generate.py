"""Construction of the Cayley hypersurface polynomials and their relatives.

The degree-N hypersurface in affine N-space is the zero set of

    Phi_N = -[s^N] log(1 + x_1 s + x_2 s^2 + ... + x_N s^N)
          = sum_{d=1}^{N} (-1)^d (1/d) sum_{i+j+...+m = N} x_i x_j ... x_m

where the inner sum runs over ordered d-tuples of positive integers summing
to N.  The d = 1 term is -x_N, the only occurrence of x_N, so the surface
is the graph x_N = f(x_1, ..., x_{N-1}).

Tuples that reorder the same parts give the same monomial, so Phi_N is
built from partitions(N, d) for d = 1..N, the partitions of N into d parts
(also the keys of geometry's indicator tensors): the monomial of one with
multiplicities m_v collects its d!/prod m_v! orderings and carries
coefficient (-1)^d (d-1)! / prod m_v!.  The literal sum over ordered tuples
is kept in the test suite as the reference.

A one-parameter deformation replaces the 1/d prefactor by
(1/d!) prod_{k=0}^{d-3} [(1-b)k + 2]; at b = 0 this is Phi_N again, and
Phi_N is built as that member of the family.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from math import factorial

from .poly import Polynomial, Scalar

__all__ = ["cayley_poly", "family_poly", "family_prefactor", "partitions", "variant_surface_4"]


def partitions(n: int, m: int) -> Iterator[tuple[int, ...]]:
    """The partitions of n into exactly m parts as ascending tuples, in
    lexicographic order: () alone for n = m = 0, none if there is no such one."""

    def ascending(prefix: tuple[int, ...], total: int, count: int, low: int) -> Iterator[tuple[int, ...]]:
        # prefix + each partition of total into count >= 2 parts, all at least low.
        if count == 2:
            for first in range(low, total // 2 + 1):
                yield prefix + (first, total - first)
            return
        for first in range(low, total // count + 1):
            yield from ascending(prefix + (first,), total - first, count - 1, first)

    if m == 1 and n > 0:
        yield (n,)
    elif 1 < m <= n:
        yield from ascending((), n, m, 1)
    elif m == n == 0:
        yield ()


def family_prefactor(d: int, b: Scalar) -> Fraction:
    """The deformed composition prefactor (-1)^d (1/d!) prod_{k=0}^{d-3}[(1-b)k+2].

    The product is empty (equal to 1) for d = 1 and d = 2.  With b = p/q each
    factor is ((q-p)k + 2q)/q, so the product is taken on integers.
    """
    if d < 1:
        raise ValueError("d must be positive")
    b = Fraction(b)
    p, q = b.numerator, b.denominator
    prod = 1
    for k in range(d - 2):
        prod *= (q - p) * k + 2 * q
    return Fraction((-1) ** d * prod, factorial(d) * q ** max(d - 2, 0))


def family_poly(n: int, b: Scalar) -> Polynomial:
    """The interpolating family member with parameter b (b = 0 gives Phi_n).

    The monomial of a partition with d parts and multiplicities m_v gets
    family_prefactor(d, b) once for each of its d!/prod(m_v!) orderings.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    terms = {}
    for d in range(1, n + 1):
        prefactor = family_prefactor(d, b)
        for lam in partitions(n, d):
            # Distinct partitions give distinct monomials, each built in canonical order.
            mono = tuple((part, lam.count(part)) for part in sorted(set(lam)))
            orderings = factorial(d)
            for _, mult in mono:
                orderings //= factorial(mult)
            if coeff := prefactor * orderings:
                terms[mono] = coeff
    return Polynomial._raw(n, terms)


def cayley_poly(n: int) -> Polynomial:
    """The defining polynomial Phi_n, in canonical form.

    Phi_n has one term per integer partition of n; x_n occurs only in the
    single term -x_n.
    """
    return family_poly(n, 0)


def variant_surface_4() -> Polynomial:
    """A second homogeneous graph in dimension 4: -x4 + x1*x3 + x2^2/2 - x1^3/3.

    Unlike Phi_4 it has two-dimensional linear isotropy at the origin, and it
    is not weight-homogeneous in the grading that assigns weight h to x_h.
    """
    return Polynomial(
        4,
        [
            ({4: 1}, -1),
            ({1: 1, 3: 1}, 1),
            ({2: 2}, Fraction(1, 2)),
            ({1: 3}, Fraction(-1, 3)),
        ],
    )

