import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cayley.generate import cayley_poly, family_poly, variant_surface_4
from cayley.linalg import rank
from cayley.poly import Polynomial, variables
from cayley.symmetry import (
    AffineTransformation,
    AffineVectorField,
    InexactExponentialError,
    SymmetryAlgebra,
    cayley_fields,
    commutator,
    coordinate_field,
    euler_field,
    exp_field,
    field_to_json_dict,
    isotropy_at_origin,
    orbit_point,
    parameters_for_point,
    span_contains,
    symmetry_algebra,
    weight_scaling,
)
from cayley.symmetry import _series_exp, _series_log1p

from oracles import (
    all_exponents,
    dense_eigen_dimension,
    literal_apply,
    literal_series_exp,
    nilpotent_flow,
    rref_nullity,
)


def affine_polys(constant, linear):
    """The n polynomials constant[j] + sum_i linear[i][j] x_(i+1), j = 0..n-1."""
    n = len(constant)
    return [
        Polynomial(n, [({}, constant[j])] + [({i + 1: 1}, linear[i][j]) for i in range(n)]) for j in range(n)
    ]


def rand_field(rng, n):
    return AffineVectorField(affine_polys(
        [Fraction(rng.randint(-3, 3)) for _ in range(n)],
        [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)],
    ))


def map_from_matrix(matrix, translation):
    """The map x -> x M + v on row vectors, as its image polynomials."""
    return AffineTransformation(affine_polys(translation, matrix))


def rand_params(rng, n):
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n - 1)]


def test_cayley_fields_structure_n3():
    x1_field, x2_field = cayley_fields(3)
    # d/dx1 + x1 d/dx2 + x2 d/dx3
    assert x1_field.constant == (1, 0, 0)
    assert x1_field.linear == ((0, 1, 0), (0, 0, 1), (0, 0, 0))
    # d/dx2 + x1 d/dx3
    assert x2_field.constant == (0, 1, 0)
    assert x2_field.linear == ((0, 0, 1), (0, 0, 0), (0, 0, 0))


def test_fields_annihilate_polynomial():
    for n in range(2, 9):
        phi = cayley_poly(n)
        for field in cayley_fields(n):
            assert not field.apply(phi)


def test_euler_field_scales_polynomial():
    for n in range(3, 9):
        phi = cayley_poly(n)
        assert euler_field(n).apply(phi) == phi * n


def test_euler_field_on_first_variable():
    x1 = Polynomial.variable(1, 1)
    assert euler_field(1).apply(x1) == x1


def test_graph_direction_derivative():
    for n in range(3, 8):
        result = coordinate_field(n, n).apply(cayley_poly(n))
        assert result == Polynomial.constant(n, -1)


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        euler_field(3).apply(cayley_poly(4))


def rand_affine_field(rng, n):
    """A field with rational entries, about a third of them zero, and a nonzero constant part."""

    def entry():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < 0.67 else 0

    constant = [entry() for _ in range(n)]
    constant[rng.randrange(n)] = Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))
    return AffineVectorField(affine_polys(constant, [[entry() for _ in range(n)] for _ in range(n)]))


def rand_sparse_poly(rng, n, max_degree=4, max_terms=6):
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        used = rng.sample(range(1, n + 1), rng.randint(0, n))
        exps = {v: rng.randint(0, max_degree) for v in used}
        terms.append((exps, Fraction(rng.randint(-5, 5), rng.randint(1, 4))))
    return Polynomial(n, terms)


def test_apply_matches_literal_oracle():
    rng = random.Random(45)
    for _ in range(200):
        n = rng.randint(1, 5)
        field, p = rand_affine_field(rng, n), rand_sparse_poly(rng, n)
        assert field.apply(p) == literal_apply(field, p)
    for n in range(3, 9):
        phi = family_poly(n, Fraction(1, 2))
        for field in cayley_fields(n) + [euler_field(n), rand_affine_field(rng, n)]:
            assert field.apply(phi) == literal_apply(field, phi)


def test_commutators_vanish_pairwise():
    for n in range(2, 9):
        fields = cayley_fields(n)
        for x in fields:
            for y in fields:
                assert commutator(x, y).is_zero()


def test_commutator_antisymmetry_diagonal():
    rng = random.Random(20)
    for _ in range(10):
        x = rand_field(rng, 3)
        assert commutator(x, x).is_zero()


def test_commutator_with_graph_direction():
    for n in range(2, 9):
        d_n = coordinate_field(n, n)
        bracket = commutator(d_n, euler_field(n))
        assert bracket == d_n.scale(n)
        for field in cayley_fields(n):
            assert commutator(field, d_n).is_zero()


def test_commutator_sign_convention_against_double_application():
    # [X,Y] f = X(Y f) - Y(X f), checked on all coordinate functions.
    rng = random.Random(21)
    for _ in range(10):
        x, y = rand_field(rng, 3), rand_field(rng, 3)
        bracket = commutator(x, y)
        for j in range(1, 4):
            coord = Polynomial.variable(3, j)
            direct = x.apply(y.apply(coord)) - y.apply(x.apply(coord))
            assert bracket.apply(coord) == direct


def test_exp_field_time_one_flow():
    flow = exp_field(cayley_fields(3)[0], 1)
    assert flow.apply([0, 0, 0]) == (1, Fraction(1, 2), Fraction(1, 6))


def test_exp_field_zero_time_is_identity():
    field = cayley_fields(5)[2]
    assert exp_field(field, 0) == AffineTransformation.identity(5)


def test_exp_field_one_parameter_group_law():
    rng = random.Random(22)
    for n in (3, 5):
        for field in cayley_fields(n):
            s = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            t = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            assert exp_field(field, s).then(exp_field(field, t)) == exp_field(field, s + t)


def test_exp_field_rejects_non_nilpotent():
    # Nilpotency is decided before t enters, so t = 0 raises as well.
    for t in (1, 0):
        with pytest.raises(InexactExponentialError):
            exp_field(euler_field(3), t)


def test_exp_field_matches_matrix_power_oracle():
    rng = random.Random(29)
    for n in range(2, 9):
        for _ in range(4):
            entry = lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            constant = [entry() for _ in range(n)]
            linear = [[entry() if j > i else Fraction(0) for j in range(n)] for i in range(n)]
            t = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            matrix, translation = nilpotent_flow(constant, linear, t)
            flow = exp_field(AffineVectorField(affine_polys(constant, linear)), t)
            assert flow == map_from_matrix(matrix, translation)


def test_flow_invariance_of_polynomial():
    rng = random.Random(23)
    for n in range(3, 7):
        phi = cayley_poly(n)
        for field in cayley_fields(n):
            t = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            assert phi.substitute(exp_field(field, t).images) == phi


def test_weight_scaling_rescales_polynomial():
    rng = random.Random(24)
    for n in range(2, 9):
        phi = cayley_poly(n)
        lam = Fraction(rng.randint(1, 7), rng.randint(1, 7))
        assert phi.substitute(weight_scaling(n, lam).images) == phi * lam**n


def test_affine_transformation_rejects_malformed_images():
    # Maps and fields share one constructor check.
    x1, x2, x3 = variables(3)
    for cls in (AffineTransformation, AffineVectorField):
        for polys in ([x1 * x2, x2, x3], [x1, x2, x3 * x3]):
            with pytest.raises(ValueError, match="degree"):
                cls(polys)
        # One polynomial in another space; two polynomials in 3-space.
        for polys in ([x1, x2, Polynomial.variable(2, 1)], [x1, x2]):
            with pytest.raises(ValueError, match="variables"):
                cls(polys)
    with pytest.raises(ValueError, match="dimension"):
        AffineTransformation.identity(2).then(AffineTransformation.identity(3))


def test_orbit_point_examples():
    assert orbit_point(3, [1, 0]) == (1, Fraction(1, 2), Fraction(1, 6))
    assert orbit_point(5, [0, 0, 0, 0]) == (0, 0, 0, 0, 0)


def test_orbit_points_lie_on_surface():
    rng = random.Random(25)
    for n in range(2, 9):
        phi = cayley_poly(n)
        for _ in range(25):
            assert phi.evaluate(orbit_point(n, rand_params(rng, n))) == 0


def test_orbit_point_matches_exponential():
    # The orbit map must agree with exponentiating the combined field.
    rng = random.Random(26)
    for n in range(2, 10):
        t = rand_params(rng, n)
        fields = cayley_fields(n)
        combined = AffineVectorField.zero(n)
        for tp, field in zip(t, fields):
            combined = combined + field.scale(tp)
        assert exp_field(combined, 1).apply([0] * n) == orbit_point(n, t)


def test_series_exp_matches_literal_oracle():
    rng = random.Random(46)
    for size in range(0, 13):
        for _ in range(5):
            a = [rng.choice((0, rng.randint(-4, 4), Fraction(rng.randint(-9, 9), rng.randint(1, 9))))
                 for _ in range(size)]
            assert _series_exp(a) == literal_series_exp(a)


def test_parameters_for_point_examples():
    assert parameters_for_point(3, [1, Fraction(1, 2)]) == (1, 0)
    assert parameters_for_point(6, [0] * 5) == (0, 0, 0, 0, 0)


def test_parameters_round_trip():
    rng = random.Random(27)
    for n in range(2, 21):
        for _ in range(10):
            t = tuple(rand_params(rng, n))
            point = orbit_point(n, t)
            assert parameters_for_point(n, point[: n - 1]) == t


def test_phi_is_minus_top_log_coefficient():
    # Phi_n(x) = -[s^n] log(1 + x_1 s + ... + x_n s^n), the last parameter one dimension up.
    rng = random.Random(28)
    for n in range(2, 21):
        phi = cayley_poly(n)
        for _ in range(3):
            x = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
            assert phi.evaluate(x) == -parameters_for_point(n + 1, x)[-1]


def test_symmetry_algebra_dimension_three():
    algebra = symmetry_algebra(cayley_poly(3))
    assert algebra.dimension == 3
    known = cayley_fields(3) + [euler_field(3)]
    assert span_contains(algebra, known)


def test_symmetry_algebra_contains_known_fields():
    for n in range(3, 8):
        algebra = symmetry_algebra(cayley_poly(n))
        assert algebra.dimension >= n
        assert span_contains(algebra, cayley_fields(n) + [euler_field(n)])


def test_symmetry_algebra_eigenrelations_hold():
    for n in (3, 4, 5):
        phi = cayley_poly(n)
        algebra = symmetry_algebra(phi)
        for field, c in zip(algebra.basis, algebra.eigenvalues):
            assert field.apply(phi) == phi * c
            # The solver's coefficient polynomials are in canonical form.
            assert AffineVectorField(affine_polys(field.constant, field.linear)) == field


def seeded_polys(seed):
    """Two random polynomials in 5 variables, of degree <= 3, without constant term.

    The first is homogeneous of weight 4 for the weights (1, 2, 3, 1, 2); the
    second is redrawn until its exponent differences have full rank, so no
    nonzero weight vector grades it.
    """
    rng = random.Random(seed)
    monomials = [e for e in all_exponents(5, 3) if sum(e)]
    graded = [e for e in monomials if sum(w * x for w, x in zip((1, 2, 3, 1, 2), e)) == 4]
    while True:
        ungraded = rng.sample(monomials, 6)
        if not rref_nullity([[a - b for a, b in zip(e, ungraded[0])] for e in ungraded[1:]], 5):
            break

    def poly(exponents):
        coefficients = [Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5)) for _ in exponents]
        return Polynomial(5, [(enumerate(e, 1), c) for e, c in zip(exponents, coefficients)])

    return poly(rng.sample(graded, 6)), poly(ungraded)


def test_symmetry_algebra_dimension_matches_dense_oracle():
    polys = [cayley_poly(n) for n in range(2, 5)] + [variant_surface_4()]
    polys += [family_poly(5, Fraction(1, 2)), family_poly(5, Fraction(-7, 3))]
    for seed in range(3):
        polys += seeded_polys(seed)
    for p in polys:
        assert symmetry_algebra(p).dimension == dense_eigen_dimension(p)
        assert isotropy_at_origin(p).dimension == dense_eigen_dimension(p, include_constant=False)


def test_symmetry_algebra_of_round_paraboloid():
    p = Polynomial(3, [({1: 2}, 1), ({2: 2}, 1), ({3: 1}, -1)])
    algebra = symmetry_algebra(p)
    rotation = AffineVectorField(affine_polys([0, 0, 0], [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]))
    assert rotation.apply(p) == Polynomial.zero(3)
    assert span_contains(algebra, [rotation])


def test_symmetry_algebra_rejects_zero_polynomial():
    with pytest.raises(ValueError):
        symmetry_algebra(Polynomial.zero(3))


def test_isotropy_one_dimensional_spanned_by_euler():
    for n in range(3, 7):
        iso = isotropy_at_origin(cayley_poly(n))
        assert iso.dimension == 1
        assert span_contains(iso, [euler_field(n)])
        assert iso.eigenvalues[0] != 0


def test_isotropy_of_variant_surface_is_two_dimensional():
    iso = isotropy_at_origin(variant_surface_4())
    assert iso.dimension == 2
    for field in iso.basis:
        assert not any(field.constant)


def test_isotropy_of_hyperbolic_quadric():
    # x1 x2 - x3: independent scalings of x1 and x2 compensated on x3.
    p = Polynomial(3, [({1: 1, 2: 1}, 1), ({3: 1}, -1)])
    iso = isotropy_at_origin(p)
    assert iso.dimension == 2
    scale_x1 = AffineVectorField(affine_polys([0, 0, 0], [[1, 0, 0], [0, 0, 0], [0, 0, 1]]))
    scale_x2 = AffineVectorField(affine_polys([0, 0, 0], [[0, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert span_contains(iso, [scale_x1, scale_x2])


def test_isotropy_requires_origin_on_surface():
    p = Polynomial.constant(2, 1) + Polynomial.variable(2, 1)
    with pytest.raises(ValueError):
        isotropy_at_origin(p)


def test_solver_output_is_deterministic():
    phi = cayley_poly(4)
    first = symmetry_algebra(phi)
    second = symmetry_algebra(phi)
    assert first == second
    for field, c in zip(first.basis, first.eigenvalues):
        flat = [c] + field.flatten()
        leading = next(v for v in flat if v)
        assert leading == 1


def test_span_contains_rejects_outside_fields():
    algebra = SymmetryAlgebra((euler_field(3),), (Fraction(3),))
    assert not span_contains(algebra, [coordinate_field(3, 1)])


def test_span_contains_refuses_fields_of_another_dimension():
    # Flattened, this 2-dimensional field reads as coordinates of a 3-dimensional one.
    field = AffineVectorField(affine_polys([0, 1], [[0, 0], [0, 1]]))
    for algebra, fields in (
        (symmetry_algebra(cayley_poly(3)), [field]),
        (SymmetryAlgebra((), ()), [field, euler_field(3)]),
    ):
        with pytest.raises(ValueError, match="dimension"):
            span_contains(algebra, fields)


def test_field_json_shape():
    data = field_to_json_dict(cayley_fields(3)[1], Fraction(0))
    assert data == {
        "n": 3,
        "constant": ["0", "1", "0"],
        "linear": [["0", "0", "1"], ["0", "0", "0"], ["0", "0", "0"]],
        "eigenvalue": "0",
    }


# -- property tests ---------------------------------------------------------------

small_rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def fields(draw, n):
    constant = draw(st.lists(small_rationals, min_size=n, max_size=n))
    row = st.lists(small_rationals, min_size=n, max_size=n)
    return AffineVectorField(affine_polys(constant, draw(st.lists(row, min_size=n, max_size=n))))


@st.composite
def polynomials(draw, n):
    exponents = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    terms = draw(st.lists(st.tuples(exponents, small_rationals), max_size=4))
    return Polynomial(n, [({i + 1: e for i, e in enumerate(exps)}, c) for exps, c in terms])


@st.composite
def invertible_maps(draw, n):
    row = st.lists(small_rationals, min_size=n, max_size=n)
    matrix = draw(st.lists(row, min_size=n, max_size=n))
    assume(rank(matrix) == n)
    return map_from_matrix(matrix, draw(row))


@st.composite
def same_space(draw, count, of=fields):
    """count objects drawn by of(n), fields by default, and one random polynomial, for one n <= 4."""
    n = draw(st.integers(1, 4))
    return [draw(of(n)) for _ in range(count)], draw(polynomials(n))


property_settings = settings(derandomize=True, deadline=None, max_examples=60)


@property_settings
@given(same_space(2))
def test_bracket_is_antisymmetric(case):
    (x, y), _ = case
    assert commutator(x, y) == commutator(y, x).scale(-1)


@property_settings
@given(same_space(3))
def test_bracket_satisfies_jacobi(case):
    (x, y, z), _ = case
    cyclic = [commutator(a, commutator(b, c)) for a, b, c in ((x, y, z), (y, z, x), (z, x, y))]
    assert (cyclic[0] + cyclic[1] + cyclic[2]).is_zero()


@property_settings
@given(same_space(2))
def test_bracket_acts_as_commutator_of_derivations(case):
    (x, y), p = case
    assert commutator(x, y).apply(p) == x.apply(y.apply(p)) - y.apply(x.apply(p))


@property_settings
@given(same_space(2))
def test_field_round_trips_through_constant_and_linear(case):
    (x, y), _ = case
    for f in (x, commutator(x, y), x + y.scale(Fraction(-1, 2))):
        assert AffineVectorField(affine_polys(f.constant, f.linear)) == f


@property_settings
@given(same_space(1, invertible_maps))
def test_map_inverse_undoes_map(case):
    (t,), p = case
    assert t.then(t.inverse()) == AffineTransformation.identity(t.n) == t.inverse().then(t)
    assert p.substitute(t.images).substitute(t.inverse().images) == p


@property_settings
@given(same_space(2, invertible_maps), st.data())
def test_then_applies_first_map_first(case, data):
    (t, u), _ = case
    x = data.draw(st.lists(small_rationals, min_size=t.n, max_size=t.n))
    assert t.then(u).apply(x) == u.apply(t.apply(x))


@property_settings
@given(same_space(2, invertible_maps))
def test_pull_back_by_composite(case):
    (t, u), p = case
    assert p.substitute(t.then(u).images) == p.substitute(u.images).substitute(t.images)


series_entries = st.one_of(small_rationals, st.integers(-5, 5))


@property_settings
@given(st.lists(series_entries, max_size=12))
@example([])
@example([0, 0, 0, 0, 0])
@example([3, -2, 0, 7])
def test_series_log1p_inverts_series_exp(a):
    assert _series_log1p(_series_exp(a)) == tuple(a)


@property_settings
@given(st.integers(1, 11).flatmap(lambda k: st.lists(series_entries, min_size=k, max_size=k)))
def test_orbit_parameter_round_trip(t):
    n = len(t) + 1
    point = orbit_point(n, t)
    assert cayley_poly(n).evaluate(point) == 0
    assert parameters_for_point(n, point[: n - 1]) == tuple(t)
