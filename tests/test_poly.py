import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayley.poly import (
    PolyMatrix,
    Polynomial,
    determinant,
    divide_exact,
    format_latex,
    format_plain,
    mono_div,
    poly_from_json_dict,
    poly_to_json_dict,
    variables,
    weighted_degree_check,
)
from cayley.generate import cayley_poly, family_poly
from cayley.geometry import graph_of
from cayley.symmetry import cayley_fields

from oracles import (
    cofactor_det,
    dense_add,
    dense_diff,
    dense_from_sparse,
    dense_scale,
    literal_evaluate,
    literal_substitute,
    nilpotent_flow,
    scalar_det,
)


def rand_poly(rng, n=3, max_degree=3, max_terms=4):
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        exps = {}
        budget = max_degree
        for v in range(1, n + 1):
            e = rng.randint(0, budget)
            budget -= e
            if e:
                exps[v] = e
        terms.append((exps, Fraction(rng.randint(-5, 5), rng.randint(1, 4))))
    return Polynomial(n, terms)


def rand_point(rng, n):
    return [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(n)]


def test_monomial_product():
    x1 = Polynomial.variable(3, 1)
    x2 = Polynomial.variable(3, 2)
    assert (x1 * x2) * x1 == Polynomial(3, [({1: 2, 2: 1}, 1)])


def test_term_cancellation():
    phi3 = cayley_poly(3)
    x1x2 = Polynomial(3, [({1: 1, 2: 1}, 1)])
    expected = Polynomial(3, [({3: 1}, -1), ({1: 3}, Fraction(-1, 3))])
    assert phi3 - x1x2 == expected


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        Polynomial.variable(2, 1) + Polynomial.variable(3, 1)
    with pytest.raises(ValueError):
        Polynomial.variable(2, 1) * Polynomial.variable(3, 1)


def test_canonical_form_cross_check():
    # Structural equality must coincide with equality of values; check both
    # directions on algebraically equal constructions.
    rng = random.Random(3)
    for _ in range(25):
        a, b, c = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        left = (a + b) * c
        right = a * c + b * c
        assert left == right
        for _ in range(3):
            pt = rand_point(rng, 3)
            assert left.evaluate(pt) == right.evaluate(pt)


def test_power_rule():
    p = Polynomial(1, [({1: 3}, Fraction(1, 3))])
    assert p.diff(1) == Polynomial(1, [({1: 2}, 1)])


def test_derivative_of_phi3_in_graph_direction():
    assert cayley_poly(3).diff(3) == Polynomial.constant(3, -1)


def test_derivative_of_phi4_second_variable():
    # Differentiating the printed degree-4 equation by hand:
    # d/dx2 (-x4 + x1 x3 + x2^2/2 - x1^2 x2 + x1^4/4) = x2 - x1^2.
    expected = Polynomial(4, [({2: 1}, 1), ({1: 2}, -1)])
    assert cayley_poly(4).diff(2) == expected


def test_derivative_index_out_of_range():
    with pytest.raises(ValueError):
        cayley_poly(3).diff(4)
    with pytest.raises(ValueError):
        cayley_poly(3).diff(0)


def test_substitute_flow_invariance():
    # The first shift field annihilates the cubic surface polynomial, so its
    # time-1 flow, read off the matrix-power oracle as image polynomials,
    # leaves the polynomial itself unchanged.
    phi3 = cayley_poly(3)
    field = cayley_fields(3)[0]
    matrix, translation = nilpotent_flow(field.constant, field.linear, Fraction(1))
    images = [
        Polynomial(3, [({}, translation[j])] + [({i + 1: 1}, matrix[i][j]) for i in range(3)]) for j in range(3)
    ]
    assert literal_substitute(phi3, images) == phi3


def test_evaluate_orbit_flow_point():
    assert cayley_poly(3).evaluate([1, Fraction(1, 2), Fraction(1, 6)]) == 0


def test_evaluate_origin():
    assert cayley_poly(3).evaluate([0, 0, 0]) == 0


def test_evaluate_graph_point():
    # x4 = x1 x3 + x2^2/2 - x1^2 x2 + x1^4/4 gives x4 = 1/4 at (1, 0, 0).
    assert cayley_poly(4).evaluate([1, 0, 0, Fraction(1, 4)]) == 0


def rand_mixed_point(rng, n):
    """Coordinates mixing zeros, integers and negative and positive fractions."""
    draws = (
        lambda: 0,
        lambda: rng.randint(-7, 7),
        lambda: Fraction(-rng.randint(1, 9), rng.randint(2, 9)),
        lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
    )
    return [rng.choice(draws)() for _ in range(n)]


def test_evaluate_matches_literal_oracle():
    rng = random.Random(44)
    for _ in range(300):
        n = rng.randint(1, 6)
        p = rand_poly(rng, n, max_degree=rng.randint(0, 6), max_terms=8)
        point = rand_mixed_point(rng, n)
        assert p.evaluate(point) == literal_evaluate(p, point)
    for n in range(2, 13):
        phi = family_poly(n, Fraction(-7, 3))
        for _ in range(5):
            point = rand_mixed_point(rng, n)
            assert phi.evaluate(point) == literal_evaluate(phi, point)


def test_evaluate_zero_polynomial_and_constants():
    assert Polynomial.zero(3).evaluate([Fraction(-1, 2), 0, 5]) == 0
    assert Polynomial.zero(0).evaluate([]) == 0
    assert Polynomial.constant(0, Fraction(-3, 7)).evaluate([]) == Fraction(-3, 7)
    assert Polynomial.constant(2, 4).evaluate([Fraction(1, 3), -1]) == 4
    half_sum = Polynomial(2, [({1: 1}, Fraction(1, 2)), ({2: 1}, Fraction(1, 2))])
    value = half_sum.evaluate([Fraction(1, 3), Fraction(2, 3)])
    assert value == Fraction(1, 2) and isinstance(value, Fraction)


def test_evaluate_length_mismatch():
    with pytest.raises(ValueError):
        cayley_poly(3).evaluate([1, 2])


def test_weighted_degree_check():
    assert weighted_degree_check(cayley_poly(6), [1, 2, 3, 4, 5, 6], 6)
    mixed = Polynomial(2, [({1: 1}, 1), ({2: 1}, 1)])
    assert not weighted_degree_check(mixed, [1, 2], 2)
    assert weighted_degree_check(Polynomial.zero(2), [1, 2], 7)


def test_determinant_2x2():
    x1 = Polynomial.variable(2, 1)
    one = Polynomial.constant(2, 1)
    zero = Polynomial.zero(2)
    m = PolyMatrix([[x1 * -2, one], [one, zero]])
    assert determinant(m) == Polynomial.constant(2, -1)


def test_determinant_identity_all_sizes():
    for size in range(1, 6):
        one, zero = Polynomial.constant(2, 1), Polynomial.zero(2)
        identity = PolyMatrix([[one if i == j else zero for j in range(size)] for i in range(size)])
        assert determinant(identity) == one


def test_determinant_non_square():
    zero = Polynomial.zero(1)
    with pytest.raises(ValueError):
        determinant(PolyMatrix([[zero, zero]]))


def test_determinant_multiplicative_on_constant_matrices():
    def det(m):
        return determinant(PolyMatrix([[Polynomial.constant(0, v) for v in row] for row in m])).coefficient({})

    rng = random.Random(7)
    for _ in range(10):
        a = [[Fraction(rng.randint(-4, 4)) for _ in range(4)] for _ in range(4)]
        b = [[Fraction(rng.randint(-4, 4)) for _ in range(4)] for _ in range(4)]
        ab = [[sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4)] for i in range(4)]
        assert det(ab) == det(a) * det(b)


def test_determinant_alternating_row_swap():
    rng = random.Random(8)
    for _ in range(6):
        rows = [[rand_poly(rng, n=2, max_degree=2, max_terms=2) for _ in range(4)] for _ in range(4)]
        d = determinant(PolyMatrix(rows))
        swapped = [rows[1], rows[0]] + rows[2:]
        assert determinant(PolyMatrix(swapped)) == -d


def test_determinant_matches_cofactor_oracle():
    # Sizes 1..3 once had their own cofactor route; every size now goes through Bareiss.
    rng = random.Random(12)
    for size in range(1, 5):
        for _ in range(4):
            rows = [[rand_poly(rng, n=2, max_degree=2) for _ in range(size)] for _ in range(size)]
            det = determinant(PolyMatrix(rows))
            for _ in range(3):
                pt = rand_point(rng, 2)
                assert det.evaluate(pt) == cofactor_det([[e.evaluate(pt) for e in row] for row in rows])


def test_determinant_hessian_of_degree5_graph():
    # Oracle: cofactor expansion of the Hessian evaluated at two random
    # rational points gives the same value, and the symbolic determinant is
    # that constant.
    f = graph_of(cayley_poly(5))
    hess = [[f.diff(i).diff(j) for j in range(1, 5)] for i in range(1, 5)]
    rng = random.Random(9)
    values = []
    for _ in range(2):
        pt = rand_point(rng, 4)
        values.append(cofactor_det([[e.evaluate(pt) for e in row] for row in hess]))
    assert values[0] == values[1]
    symbolic = determinant(PolyMatrix(hess))
    assert symbolic == Polynomial.constant(4, values[0])


def _det_checked_at_points(rows, rng, count=3):
    """determinant(rows), after checking it against scalar_det at seeded points."""
    det = determinant(PolyMatrix(rows))
    for _ in range(count):
        pt = rand_point(rng, rows[0][0].n)
        assert det.evaluate(pt) == scalar_det([[e.evaluate(pt) for e in row] for row in rows])
    return det


def _rand_matrix(rng, size, shape):
    rows = [[rand_poly(rng, n=2, max_degree=2, max_terms=2) for _ in range(size)] for _ in range(size)]
    zero = Polynomial.zero(2)
    if shape == "zero row":
        rows[rng.randrange(size)] = [zero] * size
    elif shape == "zero column":
        j = rng.randrange(size)
        for row in rows:
            row[j] = zero
    elif shape == "non-constant first column":
        # Only a column swap can bring the constant pivot into place.
        for row in rows:
            while row[0].is_constant():
                row[0] = row[0] + Polynomial.variable(2, 1)
        rows[rng.randrange(size)][rng.randrange(1, size)] = Polynomial.constant(2, 3)
    return rows


@pytest.mark.parametrize("shape", ["random", "zero row", "zero column", "non-constant first column"])
def test_determinant_matches_scalar_oracle_on_random_matrices(shape):
    rng = random.Random(13)
    for size in range(5, 9):
        det = _det_checked_at_points(_rand_matrix(rng, size, shape), rng)
        if shape.startswith("zero"):
            assert not det


@pytest.mark.parametrize("b", [Fraction(0), Fraction(1, 2), Fraction(-7, 3), Fraction(3)])
def test_determinant_matches_scalar_oracle_on_family_hessians(b):
    rng = random.Random(14)
    for n in range(3, 13):
        f = graph_of(family_poly(n, b))
        hess = [[f.diff(i).diff(j) for j in range(1, n)] for i in range(1, n)]
        _det_checked_at_points(hess, rng)


def _poly_matrices(min_size=1, max_size=4):
    """Square matrices of sparse polynomials in x1, x2 of degree <= 4."""
    exps = st.dictionaries(st.integers(1, 2), st.integers(0, 2), max_size=2)
    coeffs = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    entries = st.lists(st.tuples(exps, coeffs), max_size=3).map(lambda terms: Polynomial(2, terms))
    return st.integers(min_size, max_size).flatmap(
        lambda size: st.lists(st.lists(entries, min_size=size, max_size=size), min_size=size, max_size=size)
    )


property_settings = settings(derandomize=True, deadline=None)


@property_settings
@given(_poly_matrices())
def test_determinant_of_transpose(rows):
    assert determinant(PolyMatrix([list(col) for col in zip(*rows)])) == determinant(PolyMatrix(rows))


@property_settings
@given(_poly_matrices(min_size=2), st.data())
def test_determinant_changes_sign_under_row_and_column_swaps(rows, data):
    i, j = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=2, max_size=2, unique=True))
    det = determinant(PolyMatrix(rows))
    swapped_rows = list(rows)
    swapped_rows[i], swapped_rows[j] = rows[j], rows[i]
    assert determinant(PolyMatrix(swapped_rows)) == -det
    swapped_cols = [list(row) for row in rows]
    for row in swapped_cols:
        row[i], row[j] = row[j], row[i]
    assert determinant(PolyMatrix(swapped_cols)) == -det


@property_settings
@given(
    _poly_matrices(),
    st.lists(st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)), min_size=2, max_size=2),
)
def test_determinant_matches_cofactor_oracle_at_a_point(rows, pt):
    det = determinant(PolyMatrix(rows))
    assert det.evaluate(pt) == cofactor_det([[e.evaluate(pt) for e in row] for row in rows])


def test_divide_exact_round_trip():
    rng = random.Random(10)
    for _ in range(20):
        p = rand_poly(rng)
        q = rand_poly(rng)
        if not q:
            continue
        assert divide_exact(p * q, q) == p


def test_divide_exact_rejects_inexact():
    x1 = Polynomial.variable(2, 1)
    x2 = Polynomial.variable(2, 2)
    with pytest.raises(ValueError):
        divide_exact(x1 * x1 + x2, x1)


def test_json_schema_shape():
    p = Polynomial(3, [({1: 1, 2: 1}, 1), ({1: 3}, Fraction(-1, 3))])
    data = poly_to_json_dict(p)
    assert data == {
        "n": 3,
        "terms": [
            {"exps": [[1, 1], [2, 1]], "num": "1", "den": "1"},
            {"exps": [[1, 3]], "num": "-1", "den": "3"},
        ],
    }


def test_json_malformed():
    with pytest.raises(ValueError):
        poly_from_json_dict({"n": 2})


@pytest.mark.parametrize(
    "data",
    [
        {"n": 2, "terms": [{"exps": [[1, 2.7]], "num": "1", "den": "1"}]},
        {"n": 2, "terms": [{"exps": [[1.0, 1]], "num": "1", "den": "1"}]},
        {"n": 2, "terms": [{"exps": [[1, 1]], "num": 1.5, "den": "1"}]},
        {"n": 2, "terms": [{"exps": [[1, 1]], "num": "1", "den": "2.0"}]},
        {"n": 2.9, "terms": [{"exps": [[1, 1]], "num": "1", "den": "1"}]},
        {"n": 2, "terms": [{"exps": [[1, True]], "num": "1", "den": "1"}]},
        {"n": 2, "terms": [{"exps": [[1, 1]], "num": " 1", "den": "1"}]},
    ],
)
def test_json_rejects_non_integers(data):
    with pytest.raises(ValueError, match="malformed polynomial JSON"):
        poly_from_json_dict(data)


# Each was once read by iterating a string or an object where the schema has
# an array: the first as the constant 1, the second as x1^2, the third as 0.
NON_ARRAY_JSON = {
    "exps-object": {"n": 2, "terms": [{"exps": {}, "num": "1", "den": "1"}]},
    "pair-string": {"n": 2, "terms": [{"exps": ["12"], "num": "1", "den": "1"}]},
    "terms-object": {"n": 2, "terms": {}},
}


@pytest.mark.parametrize("form", NON_ARRAY_JSON)
def test_json_requires_arrays(form):
    with pytest.raises(ValueError, match="malformed polynomial JSON"):
        poly_from_json_dict(NON_ARRAY_JSON[form])


def test_json_empty_exps_is_the_constant_monomial():
    data = {"n": 2, "terms": [{"exps": [], "num": "3", "den": "1"}]}
    assert poly_from_json_dict(data) == Polynomial.constant(2, 3)


def test_json_accepts_integers_and_integer_strings():
    data = {"n": "2", "terms": [{"exps": [["2", 3]], "num": -4, "den": "6"}]}
    assert poly_from_json_dict(data) == Polynomial(2, [({2: 3}, Fraction(-2, 3))])


@pytest.mark.parametrize(
    "p, plain, latex",
    [
        (Polynomial.zero(3), "0", "0"),
        (Polynomial.constant(2, Fraction(-3, 4)), "-3/4", r"-\frac{3}{4}"),
        (Polynomial.constant(2, 1), "1", "1"),
        (Polynomial.constant(2, -1), "-1", "-1"),
        (Polynomial(2, [({1: 1}, -2), ({2: 2}, 1)]), "-2*x1 + x2^2", "-2x_1+x_2^2"),
        (Polynomial(2, [({1: 1}, 1), ({1: 1, 2: 1}, -1)]), "x1 - x1*x2", "x_1-x_1x_2"),
        (Polynomial(2, [({1: 1}, -1), ({}, Fraction(1, 2))]), "1/2 - x1", r"\frac{1}{2}-x_1"),
        (
            Polynomial(10, [({10: 1}, 1), ({10: 2, 3: 1}, Fraction(-5, 7))]),
            "x10 - 5/7*x3*x10^2",
            r"x_{10}-\frac{5}{7}x_3x_{10}^2",
        ),
        (Polynomial(12, [({10: 10}, -1)]), "-x10^10", "-x_{10}^{10}"),
    ],
    ids=["zero", "negative constant", "one", "minus one", "negative leading term",
         "coefficient -1", "constant first", "x10", "x10 power"],
)
def test_rendering_edge_cases(p, plain, latex):
    assert format_plain(p) == plain
    assert format_latex(p) == latex


def test_plain_and_latex_rendering():
    f3 = graph_of(cayley_poly(3))
    assert format_plain(f3) == "x1*x2 - 1/3*x1^3"
    assert format_latex(f3) == r"x_1x_2-\frac{1}{3}x_1^3"
    assert format_plain(Polynomial.zero(2)) == "0"


def test_rendering_large_indices():
    p = Polynomial(12, [({12: 11}, Fraction(1, 12))])
    assert format_plain(p) == "1/12*x12^11"
    assert format_latex(p) == r"\frac{1}{12}x_{12}^{11}"


def test_extend_and_restrict():
    f4 = graph_of(cayley_poly(4))
    assert f4.n == 3
    embedded = Polynomial(4, f4.terms.items())
    assert embedded + Polynomial(4, [({4: 1}, -1)]) == cayley_poly(4)
    with pytest.raises(ValueError):
        cayley_poly(4).restrict(3)


def test_restrict_refuses_a_negative_dimension():
    # No variable occurs, so only the dimension itself can be refused, as the constructor does.
    for p in (Polynomial.zero(2), Polynomial.constant(2, 5)):
        assert p.restrict(0) == Polynomial.constant(0, p.coefficient({}))
        with pytest.raises(ValueError, match="nonnegative"):
            p.restrict(-1)


# -- kernels against oracles on seeded random sparse inputs -------------------


def sparse_poly(rng, n, absent):
    """Random terms in x1..xn without x_absent, exponents 1..3 on a few variables."""
    present = [v for v in range(1, n + 1) if v != absent]
    terms = []
    for _ in range(rng.randint(1, 5)):
        chosen = rng.sample(present, rng.randint(0, min(3, len(present))))
        coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        terms.append(({v: rng.randint(1, 3) for v in chosen}, coeff))
    return Polynomial(n, terms)


def sparse_cases(seed, count=30):
    """The zero polynomial, then random sparse polynomials in 2..5 variables."""
    rng = random.Random(seed)
    cases = [Polynomial.zero(3)]
    for _ in range(count):
        n = rng.randint(2, 5)
        cases.append(sparse_poly(rng, n, absent=rng.randint(1, n)))
    exponents = {e for p in cases for mono in p.terms for _, e in mono}
    assert 1 in exponents and max(exponents) > 1
    return rng, cases


def test_diff_matches_dense_oracle():
    _, cases = sparse_cases(20)
    for p in cases:
        for j in range(1, p.n + 1):
            assert dense_from_sparse(p.diff(j)) == dense_diff(dense_from_sparse(p), j)


def test_mul_matches_literal_evaluation():
    rng, cases = sparse_cases(21)
    for p in cases:
        q = sparse_poly(rng, p.n, absent=rng.randint(1, p.n))
        for _ in range(3):
            x = rand_point(rng, p.n)
            assert literal_evaluate(p * q, x) == literal_evaluate(p, x) * literal_evaluate(q, x)


def test_constructor_sums_repeated_and_drops_cancelled_monomials():
    # x1 cancels, x2*x2 (given as two factors) adds to x2^2, and 0 is dropped.
    terms = [({1: 1}, 1), ({1: 1}, -1), ([(2, 1), (2, 1)], 3), ({2: 2}, -1), ({}, 0)]
    p = Polynomial(2, terms + [({1: 1, 2: 1}, Fraction(1, 2))])
    assert p.terms == {((2, 2),): Fraction(2), ((1, 1), (2, 1)): Fraction(1, 2)}
    rng = random.Random(23)
    for _ in range(30):
        monos = [{v: rng.randint(0, 2) for v in (1, 2)} for _ in range(3)]
        terms = [(rng.choice(monos), Fraction(rng.randint(-2, 2), rng.randint(1, 2))) for _ in range(8)]
        expected = {}
        for exps, coeff in terms:
            key = tuple((v, e) for v, e in sorted(exps.items()) if e)
            expected[key] = expected.get(key, Fraction(0)) + coeff
        assert Polynomial(2, terms).terms == {k: c for k, c in expected.items() if c}


def test_sum_difference_negation_and_division_match_dense_oracle():
    rng, cases = sparse_cases(24)
    minus_one = Fraction(-1)
    for p in cases:
        n = p.n
        q = sparse_poly(rng, n, absent=rng.randint(1, n))
        # r cancels about half of p's terms; its input carries zero coefficients on
        # a new monomial and on the constant, which must not be stored.
        cancel = [(dict(m), -c) for m, c in p.terms.items() if rng.random() < 0.5]
        r = Polynomial(n, cancel + [({1: 4}, 0), ({}, 0)]) + q
        for a, b in ((p, q), (p, r), (r, p), (q, q)):
            da, db = dense_from_sparse(a), dense_from_sparse(b)
            assert dense_from_sparse(a + b) == dense_add(da, db)
            assert dense_from_sparse(a - b) == dense_add(da, dense_scale(db, minus_one))
        dp = dense_from_sparse(p)
        assert dense_from_sparse(-p) == dense_scale(dp, minus_one)
        for c in (1, -3, Fraction(2, 7), Fraction(-5, 3)):
            assert dense_from_sparse(p / c) == dense_scale(dp, 1 / Fraction(c))
        for zero in (0, Fraction(0)):  # the zero polynomial (cases[0]) included
            with pytest.raises(ZeroDivisionError):
                p / zero
        # Sums that cancel to the zero polynomial, against a copy built term by term.
        copy = Polynomial(n, [(dict(m), c) for m, c in p.terms.items()] + [({n: 2}, 0)])
        for zero in (p - copy, p + -copy, -p + copy, (p + q) - (q + copy)):
            assert zero.terms == {} and zero == Polynomial.zero(n)


def test_mono_div_matches_exponent_subtraction():
    rng = random.Random(25)

    def mono(vec):
        return tuple((v + 1, e) for v, e in enumerate(vec) if e)

    for _ in range(200):
        n = rng.randint(1, 5)
        b = [rng.randint(0, 3) for _ in range(n)]
        a = [e + rng.randint(0, 3) for e in b]
        assert mono_div(mono(a), mono(b)) == mono([x - y for x, y in zip(a, b)])
        assert mono_div(mono(a), mono(a)) == ()
        assert mono_div(mono(a), ()) == mono(a)
        # b with a larger exponent on a variable of a, or with a variable a lacks.
        j = rng.randrange(n)
        larger = a[:j] + [a[j] + rng.randint(1, 2)] + a[j + 1 :]
        assert mono_div(mono(a), mono(larger)) is None
        assert mono_div(mono(a), mono(a + [1])) is None
        lacking = a[:j] + [0] + a[j + 1 :]
        assert mono_div(mono(lacking), mono(b[:j] + [1] + b[j + 1 :])) is None


# -- ring axioms, Leibniz and JSON as properties ------------------------------


def polynomials(n):
    """Sparse polynomials in n variables: up to 4 terms, exponents 0..3, maybe zero."""
    exps = st.dictionaries(st.integers(1, n), st.integers(0, 3), max_size=n)
    coeffs = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
    return st.lists(st.tuples(exps, coeffs), max_size=4).map(lambda terms: Polynomial(n, terms))


def same_space(count):
    return st.integers(1, 3).flatmap(lambda n: st.tuples(*[polynomials(n)] * count))


@property_settings
@given(same_space(3))
def test_ring_axioms(case):
    a, b, c = case
    zero = Polynomial.zero(a.n)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - b) * c == a * c - b * c
    assert a - a == zero
    assert a + zero == a == a - zero
    assert a - b == -(b - a)


@property_settings
@given(same_space(2), st.data())
def test_diff_obeys_leibniz(case, data):
    p, q = case
    j = data.draw(st.integers(1, p.n))
    assert (p * q).diff(j) == p.diff(j) * q + p * q.diff(j)
    assert (p - q).diff(j) == p.diff(j) - q.diff(j)


@property_settings
@given(st.integers(1, 3).flatmap(polynomials))
def test_json_round_trip_property(p):
    assert poly_from_json_dict(json.loads(json.dumps(poly_to_json_dict(p)))) == p
