import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from cayley.generate import cayley_poly, family_poly, variant_surface_4
from cayley.geometry import (
    SymmetricTensor,
    graph_of,
    hessian_determinant,
    indicator_tensor,
    metric_inverse,
    pick_invariant,
    ruling_check,
    signature,
    taylor_tensor,
    taylor_tensors,
    trace,
)
from cayley.linalg import inertia
from cayley.poly import Polynomial

from oracles import literal_inertia, literal_pick, literal_taylor, sparse_rows

# Frozen from an independent symbolic computation of det Hess of the graph
# functions (cross-checked again by cofactor evaluation in test_poly).
HESSIAN_CONSTANTS = {3: -1, 4: -1, 5: 1, 6: 1, 7: -1, 8: -1}


def test_indicator_tensor_examples():
    assert dict(indicator_tensor(4, 2).entries) == {(1, 3): 1, (2, 2): 1}
    assert dict(indicator_tensor(3, 3).entries) == {(1, 1, 1): 1}
    assert dict(indicator_tensor(6, 3).entries) == {
        (1, 1, 4): 1,
        (1, 2, 3): 1,
        (2, 2, 2): 1,
    }


def test_indicator_tensor_matches_multiset_filter():
    # Every index multiset from {1..n-1} of size m, kept when it sums to n.  A
    # multiset of m parts >= 1 that sums to n has no part above n - m + 1, so
    # the filter runs over those parts only: C(n, m) multisets, not C(n + m - 2, m).
    for n in range(3, 17):
        for m in range(2, n + 1):
            expected = {
                key: 1 for key in combinations_with_replacement(range(1, n - m + 2), m) if sum(key) == n
            }
            assert dict(indicator_tensor(n, m).entries) == expected


def test_indicator_tensor_validation():
    with pytest.raises(ValueError):
        indicator_tensor(2, 2)
    with pytest.raises(ValueError):
        indicator_tensor(5, 1)


@pytest.mark.parametrize("second", [3, 0])
def test_symmetric_tensor_refuses_two_orderings_of_one_multiset(second):
    # Either value would win silently, and a zero would be dropped before the merge.
    with pytest.raises(ValueError, match="same index multiset"):
        SymmetricTensor(2, 2, {(1, 2): 1, (2, 1): second})
    assert SymmetricTensor(2, 2, {(2, 1): second}).entries == ({(1, 2): second} if second else {})


def test_taylor_tensor_quadratic_part():
    g = taylor_tensor(graph_of(cayley_poly(4)), 2)
    assert g.get(1, 3) == Fraction(1, 2)
    assert g.get(3, 1) == Fraction(1, 2)
    assert g.get(2, 2) == Fraction(1, 2)
    assert g.get(1, 1) == 0


def test_taylor_tensor_above_degree_is_zero():
    f = graph_of(cayley_poly(4))
    assert taylor_tensor(f, 5).is_zero()


def test_taylor_tensor_cubic_part():
    t = taylor_tensor(graph_of(cayley_poly(3)), 3)
    assert dict(t.entries) == {(1, 1, 1): Fraction(-1, 3)}


def test_taylor_tensors_by_degree_match_the_literal_derivatives():
    rng = random.Random(53)
    graphs = [graph_of(cayley_poly(n)) for n in range(3, 7)] + [graph_of(variant_surface_4())]
    for _ in range(40):
        n = rng.randint(1, 4)
        terms = [({v: rng.randint(0, 3) for v in rng.sample(range(1, n + 1), rng.randint(0, n))},
                  Fraction(rng.randint(-5, 5), rng.randint(1, 6))) for _ in range(rng.randint(0, 6))]
        graphs.append(Polynomial(n, terms))
    for f in graphs:
        grouped = taylor_tensors(f)
        degrees = {sum(e for _, e in mono) for mono in f.terms}
        assert set(grouped) == degrees
        for m in range(max(degrees, default=0) + 2):
            assert taylor_tensor(f, m) == grouped.get(m, SymmetricTensor(m, f.n))
            assert dict(taylor_tensor(f, m).entries) == literal_taylor(f, m)


def test_taylor_tensors_reconstruct_graph_function():
    from math import factorial

    for n in range(3, 9):
        f = graph_of(cayley_poly(n))
        rebuilt = Polynomial.zero(f.n)
        for m in range(2, f.total_degree() + 1):
            tensor = taylor_tensor(f, m)
            for key, value in tensor.entries.items():
                exps: dict[int, int] = {}
                for idx in key:
                    exps[idx] = exps.get(idx, 0) + 1
                orderings = factorial(m)
                for mult in exps.values():
                    orderings //= factorial(mult)
                rebuilt = rebuilt + Polynomial(f.n, [(exps, value * orderings)])
        assert rebuilt == f


def test_metric_inverse_indicator_is_self_inverse():
    for n in range(3, 9):
        g = indicator_tensor(n, 2)
        assert metric_inverse(g) == g


def test_metric_inverse_identity():
    ident = SymmetricTensor(2, 3, {(1, 1): 1, (2, 2): 1, (3, 3): 1})
    assert metric_inverse(ident) == ident


def test_metric_inverse_taylor_metric():
    g = taylor_tensor(graph_of(cayley_poly(4)), 2)
    inv = metric_inverse(g)
    assert dict(inv.entries) == {(1, 3): 2, (2, 2): 2}


def test_metric_inverse_singular():
    g = SymmetricTensor(2, 2, {(1, 1): 1})
    with pytest.raises(ValueError):
        metric_inverse(g)


def test_cubic_trace_vanishes():
    for n in range(3, 13):
        g = indicator_tensor(n, 2)
        assert trace(indicator_tensor(n, 3), metric_inverse(g)).is_zero()


def test_higher_order_traces_vanish():
    for n in range(3, 11):
        g_inv = metric_inverse(indicator_tensor(n, 2))
        for m in range(3, n + 1):
            assert trace(indicator_tensor(n, m), g_inv).is_zero()


def test_taylor_traces_vanish_too():
    for n in range(3, 11):
        f = graph_of(cayley_poly(n))
        g_inv = metric_inverse(taylor_tensor(f, 2))
        for m in range(3, f.total_degree() + 1):
            assert trace(taylor_tensor(f, m), g_inv).is_zero()


def test_full_metric_contraction_gives_dimension():
    for n in range(3, 9):
        g = taylor_tensor(graph_of(cayley_poly(n)), 2)
        scalar = trace(g, metric_inverse(g))
        assert scalar.order == 0
        assert scalar.get() == n - 1


def test_trace_validation():
    g = indicator_tensor(4, 2)
    with pytest.raises(ValueError):
        trace(indicator_tensor(4, 3), indicator_tensor(4, 3))
    with pytest.raises(ValueError):
        trace(indicator_tensor(5, 3), g)


def test_pick_invariant_vanishes_for_both_conventions():
    for n in range(3, 13):
        assert pick_invariant(metric_inverse(indicator_tensor(n, 2)), indicator_tensor(n, 3)) == 0
        f = graph_of(cayley_poly(n))
        assert pick_invariant(metric_inverse(taylor_tensor(f, 2)), taylor_tensor(f, 3)) == 0


def test_pick_invariant_zero_cubic():
    g = indicator_tensor(5, 2)
    assert pick_invariant(metric_inverse(g), SymmetricTensor(3, 4)) == 0


def test_pick_invariant_single_entry():
    g = SymmetricTensor(2, 2, {(1, 1): 1, (2, 2): 1})
    a = SymmetricTensor(3, 2, {(1, 1, 1): 1})
    assert pick_invariant(metric_inverse(g), a) == 1


def test_pick_invariant_refuses_bad_input():
    # Matched by message: a wrong order left unchecked would also raise ValueError, from unpacking a key.
    g_inv, a = metric_inverse(indicator_tensor(5, 2)), indicator_tensor(5, 3)
    with pytest.raises(ValueError, match="order-2 inverse metric"):
        pick_invariant(a, a)  # an inverse metric of order 3
    with pytest.raises(ValueError, match="order-3 tensor"):
        pick_invariant(g_inv, g_inv)  # a cubic of order 2
    with pytest.raises(ValueError, match="dimension mismatch"):
        pick_invariant(metric_inverse(indicator_tensor(4, 2)), a)  # dimension 3 against 4


def rand_metric(rng, dim):
    """A random nondegenerate symmetric metric with a nonzero off-diagonal entry."""
    while True:
        g = SymmetricTensor(
            2,
            dim,
            {
                (i, j): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for i in range(1, dim + 1)
                for j in range(i, dim + 1)
            },
        )
        if any(i != j for i, j in g.entries) and signature(g)[2] == 0:
            return g


def rand_cubic(rng, dim, density=0.4):
    keys = combinations_with_replacement(range(1, dim + 1), 3)
    entries = {key: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for key in keys}
    return SymmetricTensor(3, dim, {key: v for key, v in entries.items() if rng.random() < density})


def test_pick_invariant_matches_literal_oracle_on_random_tensors():
    rng = random.Random(32)
    values = []
    for _ in range(30):
        dim = rng.randint(2, 6)
        g, a = rand_metric(rng, dim), rand_cubic(rng, dim)
        values.append(pick_invariant(metric_inverse(g), a))
        assert values[-1] == literal_pick(g, a)
    assert sum(1 for v in values if v) > 20


def test_pick_invariant_matches_literal_oracle_on_the_family():
    rng = random.Random(33)
    for n in range(3, 9):
        assert pick_invariant(metric_inverse(indicator_tensor(n, 2)), indicator_tensor(n, 3)) == literal_pick(
            indicator_tensor(n, 2), indicator_tensor(n, 3)
        )
        for b in (0, 1, Fraction(1, 2), Fraction(-7, 3)):
            f = graph_of(family_poly(n, b))
            g, a = taylor_tensor(f, 2), taylor_tensor(f, 3)
            assert pick_invariant(metric_inverse(g), a) == literal_pick(g, a)
            # The family's anti-diagonal metric against a random cubic, which need not give 0.
            cubic = rand_cubic(rng, n - 1)
            assert pick_invariant(metric_inverse(g), cubic) == literal_pick(g, cubic)


def test_signature_split_by_parity():
    for n in range(3, 16):
        sig = signature(taylor_tensor(graph_of(cayley_poly(n)), 2))
        if n % 2:
            assert sig == ((n - 1) // 2, (n - 1) // 2, 0)
        else:
            assert sig == (n // 2, (n - 2) // 2, 0)


def test_inertia_of_taylor_metrics_matches_the_characteristic_polynomial():
    surfaces = [cayley_poly(n) for n in range(3, 21)]
    surfaces += [family_poly(9, Fraction(-7, 3)), family_poly(6, 2), variant_surface_4()]
    for phi in surfaces:
        g = taylor_tensor(graph_of(phi), 2)
        metric = [[g.get(i, j) for j in range(1, g.dim + 1)] for i in range(1, g.dim + 1)]
        assert inertia(sparse_rows(metric)) == signature(g) == literal_inertia(metric)


def test_signature_zero_matrix():
    assert signature(SymmetricTensor(2, 3)) == (0, 0, 3)


def test_signature_hyperbolic_block():
    g = SymmetricTensor(2, 2, {(1, 2): 1})
    assert signature(g) == (1, 1, 0)


def test_inertia_invariant_under_congruence():
    # Signature is a congruence invariant; conjugate by random invertible
    # rational matrices and compare.
    rng = random.Random(30)
    from cayley.linalg import invert, mat_mul

    for _ in range(10):
        size = rng.randint(2, 4)
        sym = [[Fraction(0)] * size for _ in range(size)]
        for i in range(size):
            for j in range(i, size):
                sym[i][j] = sym[j][i] = Fraction(rng.randint(-3, 3))
        while True:
            s = [[Fraction(rng.randint(-3, 3)) for _ in range(size)] for _ in range(size)]
            try:
                invert(sparse_rows(s))
                break
            except ValueError:
                continue
        st = [[s[j][i] for j in range(size)] for i in range(size)]
        conjugated = mat_mul(st, mat_mul(sym, s))
        assert inertia(sparse_rows(sym)) == inertia(sparse_rows(conjugated))


def test_hessian_determinant_constants():
    for n, expected in HESSIAN_CONSTANTS.items():
        hess = hessian_determinant(graph_of(cayley_poly(n)))
        assert hess == Polynomial.constant(n - 1, expected)
        assert hess.total_degree() <= 0


def test_hessian_determinant_paraboloid():
    f = Polynomial(2, [({1: 2}, 1), ({2: 2}, 1)])
    assert hessian_determinant(f) == Polynomial.constant(2, 4)


def test_hessian_determinant_variant_surface():
    f = graph_of(variant_surface_4())
    assert hessian_determinant(f) == Polynomial.constant(3, -1)


def test_ruling_check_examples():
    assert ruling_check(cayley_poly(3)) == (1, True)
    assert ruling_check(cayley_poly(6)) == (2, True)


def test_ruling_check_linearity_through_fifteen():
    for n in range(3, 16):
        dim, linear = ruling_check(cayley_poly(n))
        assert linear
        assert dim == ((n - 1) // 2 if n % 2 else (n - 2) // 2)


def test_ruling_check_detects_nonlinearity():
    # x3^2 breaks linearity in the upper block {x2, x3}.
    phi = Polynomial(3, [({3: 2}, 1), ({1: 1}, 1)])
    _, linear = ruling_check(phi)
    assert not linear


def _invariants(phi):
    # The values the `invariants` report is written from, taken from the graph's Taylor tensors.
    f = graph_of(phi)
    g, a = taylor_tensor(f, 2), taylor_tensor(f, 3)
    return signature(g), pick_invariant(metric_inverse(g), a), hessian_determinant(f), ruling_check(phi)


def test_invariants_bundle_pinned():
    sig, pick, hess, ruling = _invariants(cayley_poly(4))
    assert sig == (2, 1, 0)
    assert pick == 0
    assert hess.is_constant() and hess.coefficient({}) == -1
    assert ruling == (1, True)


def test_invariants_bundle_variant():
    sig, pick, hess, ruling = _invariants(variant_surface_4())
    assert sig[2] == 0
    assert pick == 0
    assert hess.is_constant()
    assert ruling == (1, True)
