import random
from fractions import Fraction
from itertools import product
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayley.generate import (
    cayley_poly,
    family_poly,
    family_prefactor,
    partitions,
    variant_surface_4,
)
from cayley.geometry import graph_of
from cayley.poly import Polynomial, weighted_degree_check

from oracles import (
    coefficient_closed_form,
    composition_sum_poly,
    compositions,
    dense_from_sparse,
    literal_partitions,
    partition_counts,
)


# The four displayed equations, transcribed coefficient by coefficient.
GOLDEN = {
    3: [({3: 1}, -1), ({1: 1, 2: 1}, 1), ({1: 3}, Fraction(-1, 3))],
    4: [
        ({4: 1}, -1),
        ({1: 1, 3: 1}, 1),
        ({2: 2}, Fraction(1, 2)),
        ({1: 2, 2: 1}, -1),
        ({1: 4}, Fraction(1, 4)),
    ],
    5: [
        ({5: 1}, -1),
        ({1: 1, 4: 1}, 1),
        ({2: 1, 3: 1}, 1),
        ({1: 2, 3: 1}, -1),
        ({1: 1, 2: 2}, -1),
        ({1: 3, 2: 1}, 1),
        ({1: 5}, Fraction(-1, 5)),
    ],
    6: [
        ({6: 1}, -1),
        ({1: 1, 5: 1}, 1),
        ({2: 1, 4: 1}, 1),
        ({3: 2}, Fraction(1, 2)),
        ({1: 2, 4: 1}, -1),
        ({1: 1, 2: 1, 3: 1}, -2),
        ({2: 3}, Fraction(-1, 3)),
        ({1: 3, 3: 1}, 1),
        ({1: 2, 2: 2}, Fraction(3, 2)),
        ({1: 4, 2: 1}, -1),
        ({1: 6}, Fraction(1, 6)),
    ],
}


def brute_compositions(n, d):
    return [c for c in product(range(1, n + 1), repeat=d) if sum(c) == n]


def test_compositions_small_cases():
    assert list(compositions(3, 2)) == [(1, 2), (2, 1)]
    assert list(compositions(4, 3)) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]


def test_compositions_against_brute_force():
    for n in range(1, 8):
        for d in range(1, n + 1):
            got = list(compositions(n, d))
            assert got == sorted(brute_compositions(n, d))
            assert len(got) == len(set(got)) == comb(n - 1, d - 1)


def test_compositions_count_binomial():
    assert sum(1 for _ in compositions(10, 4)) == comb(9, 3) == 84


def test_compositions_bad_arguments():
    with pytest.raises(ValueError):
        list(compositions(3, 0))
    with pytest.raises(ValueError):
        list(compositions(3, 4))


def test_golden_equations():
    for n, terms in GOLDEN.items():
        assert cayley_poly(n) == Polynomial(n, terms)


def test_cayley_poly_rejects_zero():
    with pytest.raises(ValueError):
        cayley_poly(0)


def phi_prefactor(d):
    return Fraction((-1) ** d, d)


def test_construction_routes_agree():
    # The partition generator against the literal composition sum.
    for n in range(1, 16):
        assert dense_from_sparse(cayley_poly(n)) == composition_sum_poly(n, phi_prefactor)


def test_graph_function_examples():
    assert graph_of(cayley_poly(3)) == Polynomial(
        2, [({1: 1, 2: 1}, 1), ({1: 3}, Fraction(-1, 3))]
    )
    assert graph_of(cayley_poly(5)) == Polynomial(
        4,
        [
            ({1: 1, 4: 1}, 1),
            ({2: 1, 3: 1}, 1),
            ({1: 2, 3: 1}, -1),
            ({1: 1, 2: 2}, -1),
            ({1: 3, 2: 1}, 1),
            ({1: 5}, Fraction(-1, 5)),
        ],
    )


def test_graph_function_definitional_identity():
    for n in range(2, 11):
        f = Polynomial(n, graph_of(cayley_poly(n)).terms.items())
        assert cayley_poly(n) + Polynomial.variable(n, n) == f


def test_coefficient_closed_form_examples():
    assert coefficient_closed_form(6, [1, 1, 2, 2]) == Fraction(3, 2)
    assert coefficient_closed_form(5, [1, 1, 1, 2]) == 1
    for n in (1, 4, 9):
        assert coefficient_closed_form(n, [n]) == -1


def test_coefficient_closed_form_exhaustive():
    for n in range(1, 13):
        phi = cayley_poly(n)
        count = 0
        for d in range(n + 1):
            for lam in partitions(n, d):
                exps = {}
                for part in lam:
                    exps[part] = exps.get(part, 0) + 1
                assert phi.coefficient(exps) == coefficient_closed_form(n, lam)
                count += 1
        assert count == len(phi.terms)


def test_coefficient_closed_form_bad_partition():
    with pytest.raises(ValueError):
        coefficient_closed_form(5, [1, 2])
    with pytest.raises(ValueError):
        coefficient_closed_form(3, [])


def test_family_reduces_to_cayley_at_zero():
    for n in range(1, 11):
        assert family_poly(n, 0) == cayley_poly(n)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.integers(1, 16), st.sampled_from([0, Fraction(0), Fraction(0, 7)]))
def test_family_at_zero_is_cayley_property(n, b):
    assert family_poly(n, b) == cayley_poly(n)


def test_family_routes_agree():
    rng = random.Random(12)
    for n in range(1, 13):
        b = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        literal = composition_sum_poly(n, lambda d: family_prefactor(d, b))
        assert dense_from_sparse(family_poly(n, b)) == literal


def test_family_b1_coefficients():
    # At b = 1 each d-part composition carries (-1)^d 2^(d-2) / d!; on the
    # collapsed monomials that picks up the number of orderings.
    for n in range(1, 9):
        p = family_poly(n, 1)
        for d in range(n + 1):
            for lam in partitions(n, d):
                exps = {}
                orderings = factorial(d)
                for part in lam:
                    exps[part] = exps.get(part, 0) + 1
                for mult in exps.values():
                    orderings //= factorial(mult)
                if d == 1:
                    expected = Fraction(-1)
                else:
                    expected = Fraction((-1) ** d * 2 ** (d - 2), factorial(d)) * orderings
                assert p.coefficient(exps) == expected


def test_family_d3_coefficient_independent_of_b():
    for b in (0, 1, 2, -1, Fraction(1, 2), Fraction(-7, 3)):
        assert family_prefactor(3, b) == Fraction(-1, 3)
        # x1 x2 x3 in degree 6 comes only from d = 3 and has 3! orderings.
        assert family_poly(6, b).coefficient({1: 1, 2: 1, 3: 1}) == Fraction(-1, 3) * 6


def test_family_prefactor_empty_products():
    for b in (0, 5, Fraction(2, 7)):
        assert family_prefactor(1, b) == -1
        assert family_prefactor(2, b) == Fraction(1, 2)


def test_family_weight_homogeneous():
    rng = random.Random(13)
    for n in range(1, 10):
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        assert weighted_degree_check(family_poly(n, b), list(range(1, n + 1)), n)


def test_variant_surface():
    var = variant_surface_4()
    assert var == Polynomial(
        4,
        [({4: 1}, -1), ({1: 1, 3: 1}, 1), ({2: 2}, Fraction(1, 2)), ({1: 3}, Fraction(-1, 3))],
    )
    assert len(var.terms) == 4
    assert var.evaluate([0, 0, 0, 0]) == 0
    # The x1^3 term has weight 3, so the weight grading is broken.
    assert not weighted_degree_check(var, [1, 2, 3, 4], 4)


def test_monomial_count_examples():
    assert len(cayley_poly(4).terms) == 5
    assert len(cayley_poly(6).terms) == 11
    assert len(cayley_poly(20).terms) == 627


def test_monomial_count_matches_partition_numbers():
    counts = partition_counts(20)
    for n in range(1, 21):
        assert len(cayley_poly(n).terms) == counts[n]


def test_partitions_match_literal_oracle():
    # For each part count m: the oracle's partitions of length m, each reversed to
    # ascending order, sorted; over all m, every partition of n once.
    counts = partition_counts(25)
    for n in range(26):
        literal = list(literal_partitions(n))
        union = []
        for m in range(n + 2):
            by_count = list(partitions(n, m))
            assert by_count == sorted(lam[::-1] for lam in literal if len(lam) == m)
            union += by_count
        assert len(set(union)) == len(union) == counts[n]


def test_partitions_at_the_edges():
    # 0 has one partition, the empty one with no parts. A positive number has none
    # with no parts or with more parts than itself, and a negative number or part
    # count has none, not (n,).
    assert list(partitions(0, 0)) == [()]
    for n in range(1, 8):
        assert list(partitions(n, 0)) == []
        assert list(partitions(n, 1)) == [(n,)]
        assert list(partitions(n, n)) == [(1,) * n]
        for m in (n + 1, n + 5, -1, -n):
            assert list(partitions(n, m)) == []
    for n, m in ((0, 1), (0, 2), (0, -1), (-1, 0), (-1, 1), (-2, 2), (-7, -7), (-7, 3)):
        assert list(partitions(n, m)) == []


def test_graph_variable_occurs_once_with_coefficient_minus_one():
    for n in range(1, 21):
        phi = cayley_poly(n)
        assert phi.coefficient({n: 1}) == -1
        with_xn = [mono for mono in phi.terms if any(v == n for v, _ in mono)]
        assert with_xn == [((n, 1),)]


def test_weight_homogeneity_through_twenty():
    for n in range(1, 21):
        assert weighted_degree_check(cayley_poly(n), list(range(1, n + 1)), n)


def test_composition_sum_reproduces_polynomial():
    # The literal defining sum gives the four displayed equations.
    for n, terms in GOLDEN.items():
        assert composition_sum_poly(n, phi_prefactor) == dense_from_sparse(Polynomial(n, terms))
