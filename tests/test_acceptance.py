"""Acceptance gate: one test per criterion, every assertion exact.

Each criterion prints a single PASS/FAIL line (run pytest with -s to see
them) and enforces its runtime budget.
"""

import random
import time
from fractions import Fraction
from math import factorial

from cayley.generate import (
    cayley_poly,
    family_poly,
    partitions,
    variant_surface_4,
)
from cayley.geometry import (
    graph_of,
    hessian_determinant,
    indicator_tensor,
    metric_inverse,
    pick_invariant,
    ruling_check,
    signature,
    taylor_tensor,
    trace,
)
from cayley.poly import Polynomial
from cayley.symmetry import (
    AffineVectorField,
    cayley_fields,
    commutator,
    euler_field,
    isotropy_at_origin,
    orbit_point,
    parameters_for_point,
    span_contains,
    symmetry_algebra,
)

from oracles import coefficient_closed_form, dense_eigen_dimension, partition_counts, scalar_det
from test_generate import GOLDEN


def _criterion(number, name, budget_seconds, body):
    start = time.time()
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL  {name}")
        raise
    elapsed = time.time() - start
    print(f"ACCEPTANCE {number:02d} PASS  {name} ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s"


def test_criterion_01_golden_formulas():
    def body():
        for n, terms in GOLDEN.items():
            assert cayley_poly(n) == Polynomial(n, terms)
        assert cayley_poly(6).coefficient({1: 2, 2: 2}) == Fraction(3, 2)
        assert cayley_poly(6).coefficient({1: 1, 2: 1, 3: 1}) == -2

    _criterion(1, "golden formulas for n = 3..6 match exactly", 1, body)


def test_criterion_02_annihilating_fields():
    def body():
        for n in range(3, 13):
            phi = cayley_poly(n)
            fields = cayley_fields(n)
            assert len(fields) == n - 1
            for field in fields:
                assert field.apply(phi) == Polynomial.zero(n)

    _criterion(2, "shift fields annihilate the polynomial, n = 3..12", 10, body)


def test_criterion_03_abelian_transitive_orbits():
    def body():
        rng = random.Random(303)
        for n in range(3, 17):
            fields = cayley_fields(n)
            for i, x in enumerate(fields):
                for y in fields[i:]:
                    assert commutator(x, y).is_zero()
            phi = cayley_poly(n)
            for _ in range(100):
                t = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n - 1)]
                assert phi.evaluate(orbit_point(n, t)) == 0
            for _ in range(10):
                t = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n - 1))
                point = orbit_point(n, t)
                assert parameters_for_point(n, point[: n - 1]) == t

    _criterion(3, "abelian fields; 100 orbit points per n lie on the surface, n = 3..16", 30, body)


def test_criterion_04_one_dimensional_isotropy():
    def body():
        for n in range(3, 15):
            iso = isotropy_at_origin(cayley_poly(n))
            assert iso.dimension == 1
            assert span_contains(iso, [euler_field(n)])
        assert isotropy_at_origin(variant_surface_4()).dimension == 2

    _criterion(4, "linear isotropy rank 1, n = 3..14 (variant: rank 2)", 60, body)


def test_criterion_05_tracefree_tensors_and_parallel_normals():
    def body():
        for n in range(3, 13):
            g_ind_inv = metric_inverse(indicator_tensor(n, 2))
            f = graph_of(cayley_poly(n))
            g_tay_inv = metric_inverse(taylor_tensor(f, 2))
            for m in range(3, n + 1):
                assert trace(indicator_tensor(n, m), g_ind_inv).is_zero()
                assert trace(taylor_tensor(f, m), g_tay_inv).is_zero()
        rng = random.Random(5)
        for n in range(3, 21):
            f = graph_of(cayley_poly(n))
            hess = hessian_determinant(f)
            assert hess.is_constant()
            pt = [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(f.n)]
            rows = [[f.diff(i).diff(j).evaluate(pt) for j in range(1, n)] for i in range(1, n)]
            assert hess.coefficient({}) == scalar_det(rows)
        for n in range(3, 13):
            zeros = [Polynomial.zero(n)] * (n - 1)
            d_n = AffineVectorField(zeros + [Polynomial.constant(n, 1)])
            for field in cayley_fields(n):
                assert commutator(field, d_n).is_zero()
            assert commutator(d_n, euler_field(n)) == AffineVectorField(zeros + [Polynomial.constant(n, n)])

    _criterion(5, "trace-free tensors; constant Hessian, n = 3..20; grading brackets", 60, body)


def test_criterion_06_ruling_and_split_signature():
    def body():
        for n in range(3, 16):
            dim, linear = ruling_check(cayley_poly(n))
            assert linear
            assert dim == ((n - 1) // 2 if n % 2 else (n - 2) // 2)
            sig = signature(taylor_tensor(graph_of(cayley_poly(n)), 2))
            assert sig == (n // 2, (n - 1) - n // 2, 0)

    _criterion(6, "ruled by (n-1)/2- or (n-2)/2-planes; split signature", 10, body)


def test_criterion_07_vanishing_pick_invariant():
    def body():
        for n in range(3, 21):
            assert pick_invariant(metric_inverse(indicator_tensor(n, 2)), indicator_tensor(n, 3)) == 0
            f = graph_of(cayley_poly(n))
            assert pick_invariant(metric_inverse(taylor_tensor(f, 2)), taylor_tensor(f, 3)) == 0

    _criterion(7, "Pick invariant vanishes, n = 3..20", 5, body)


def test_criterion_08_interpolating_family():
    def body():
        for n in range(1, 11):
            assert family_poly(n, 0) == cayley_poly(n)
        for b in (0, 1, -2, Fraction(1, 2), Fraction(-7, 3), Fraction(22, 5)):
            assert family_poly(6, b).coefficient({1: 1, 2: 1, 3: 1}) == Fraction(-1, 3) * 6
        # b = 1: prefactor (-1)^d 2^(d-2)/d! against a literal product loop.
        for n in range(1, 9):
            p = family_poly(n, 1)
            for d in range(n + 1):
                for lam in partitions(n, d):
                    product = 1
                    for k in range(d - 2):
                        product *= (1 - 1) * k + 2
                    exps: dict[int, int] = {}
                    orderings = factorial(d)
                    for part in lam:
                        exps[part] = exps.get(part, 0) + 1
                    for mult in exps.values():
                        orderings //= factorial(mult)
                    expected = Fraction((-1) ** d * product, factorial(d)) * orderings
                    if d >= 2:
                        assert expected == Fraction((-1) ** d * 2 ** (d - 2), factorial(d)) * orderings
                    assert p.coefficient(exps) == expected

    _criterion(8, "family: b=0 is the base surface; b=1 coefficients exact", 10, body)


def test_criterion_09_term_count_is_partition_count():
    def body():
        counts = partition_counts(20)
        assert counts[20] == 627
        for n in range(1, 21):
            assert len(cayley_poly(n).terms) == counts[n]

    _criterion(9, "term count equals the partition number, n <= 20", 5, body)


def test_criterion_10_symmetry_solver():
    def body():
        for n in range(3, 13):
            phi = cayley_poly(n)
            algebra = symmetry_algebra(phi)
            known = cayley_fields(n) + [euler_field(n)]
            assert span_contains(algebra, known)
            for field, c in zip(algebra.basis, algebra.eigenvalues):
                assert field.apply(phi) == phi * c
        for n in range(2, 5):
            phi = cayley_poly(n)
            assert symmetry_algebra(phi).dimension == dense_eigen_dimension(phi)

    _criterion(10, "solver spans the known fields, n = 3..12; matches dense nullspace", 120, body)


def test_closed_form_coefficients_cross_check():
    # Supporting check reused by several criteria: the closed-form
    # coefficient agrees with the generated polynomial everywhere.
    for n in range(1, 13):
        phi = cayley_poly(n)
        for d in range(n + 1):
            for lam in partitions(n, d):
                exps: dict[int, int] = {}
                for part in lam:
                    exps[part] = exps.get(part, 0) + 1
                assert phi.coefficient(exps) == coefficient_closed_form(n, lam)
