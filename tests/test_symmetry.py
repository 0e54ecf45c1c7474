import random
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cayley import cli, symmetry
from cayley.generate import cayley_poly, family_poly, variant_surface_4
from cayley.poly import Polynomial, variables
from cayley.symmetry import (
    AffineVectorField,
    SymmetryAlgebra,
    cayley_fields,
    commutator,
    euler_field,
    is_joint_flow,
    isotropy_at_origin,
    orbit_map_terms,
    orbit_point,
    parameters_for_point,
    span_contains,
    symmetry_algebra,
)

from oracles import (
    all_exponents,
    dense_eigen_dimension,
    linear_isotropy,
    literal_apply,
    literal_commutator,
    literal_series_exp,
    literal_series_log,
    literal_substitute,
    nilpotent_flow,
    rref_nullity,
    sampled_orbit_check,
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


def translation_field(n, j, c=1):
    """The constant field c d/dx_j."""
    return AffineVectorField(affine_polys([c if i == j else 0 for i in range(1, n + 1)], [[0] * n] * n))


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
        result = translation_field(n, n).apply(cayley_poly(n))
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


def test_apply_cancels_to_zero_with_both_scales_above_one():
    # X = 1/2 (x2 d/dx1 - x1 d/dx2) is a rotation and kills x1^2 + x2^2.  The
    # field's denominators have lcm F = 2 and the polynomial's P = 3, then 15.
    x1, x2 = variables(2)
    field = AffineVectorField([x2 / 2, x1 * Fraction(-1, 2)])
    round_part = (x1 * x1 + x2 * x2) / 3
    assert field.apply(round_part).terms == {}
    p = round_part + x1 / 5
    result = field.apply(p)
    assert result == literal_apply(field, p) == Polynomial(2, [({2: 1}, Fraction(1, 10))])


def test_commutator_matches_literal_oracle():
    rng = random.Random(47)
    for n in range(1, 6):
        for _ in range(20):
            x, y = rand_affine_field(rng, n), rand_affine_field(rng, n)
            assert commutator(x, y) == literal_commutator(x, y)
    empty = AffineVectorField([])
    assert commutator(empty, empty) == literal_commutator(empty, empty) == empty
    # Denominators 4 and 6: their lcm, 12, exceeds either one.
    x = AffineVectorField(affine_polys([Fraction(1, 4), 0], [[Fraction(3, 4), 1], [0, Fraction(-1, 4)]]))
    y = AffineVectorField(affine_polys([0, Fraction(5, 6)], [[Fraction(1, 6), 0], [Fraction(-7, 6), 2]]))
    assert not commutator(x, y).is_zero()
    assert commutator(x, y) == literal_commutator(x, y)
    assert commutator(y, x) == literal_commutator(y, x)
    for n in range(2, 9):
        fields = cayley_fields(n) + [euler_field(n), rand_affine_field(rng, n)]
        for x in fields:
            for y in fields:
                assert commutator(x, y) == literal_commutator(x, y)


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
        d_n = translation_field(n, n)
        bracket = commutator(d_n, euler_field(n))
        assert bracket == translation_field(n, n, n)
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


def test_flow_invariance_of_polynomial():
    # Phi_n o exp(t X_p) = Phi_n: the flow of each shift field, read off the
    # matrix-power oracle as image polynomials, leaves Phi_n unchanged.
    rng = random.Random(23)
    for n in range(3, 8):
        phi = cayley_poly(n)
        for field in cayley_fields(n):
            t = Fraction(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]), rng.randint(1, 3))
            matrix, translation = nilpotent_flow(field.constant, field.linear, t)
            assert literal_substitute(phi, affine_polys(translation, matrix)) == phi


def test_affine_field_rejects_malformed_coefficients():
    x1, x2, x3 = variables(3)
    for polys in ([x1 * x2, x2, x3], [x1, x2, x3 * x3]):
        with pytest.raises(ValueError, match="AffineVectorField needs polynomials of degree <= 1"):
            AffineVectorField(polys)
    # One polynomial in another space; two polynomials in 3-space.
    for polys in ([x1, x2, Polynomial.variable(2, 1)], [x1, x2]):
        with pytest.raises(ValueError, match="AffineVectorField needs n polynomials in the same n variables"):
            AffineVectorField(polys)


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
    # The orbit map must agree with the time-1 flow of sum_p t_p X_p, applied to the origin.
    rng = random.Random(26)
    for n in range(2, 10):
        t = rand_params(rng, n)
        fields = cayley_fields(n)
        constant = [sum(tp * f.constant[j] for tp, f in zip(t, fields)) for j in range(n)]
        linear = [[sum(tp * f.linear[i][j] for tp, f in zip(t, fields)) for j in range(n)] for i in range(n)]
        _, translation = nilpotent_flow(constant, linear, Fraction(1))
        assert tuple(translation) == orbit_point(n, t)


def test_series_exp_matches_literal_oracle():
    rng = random.Random(46)
    for size in range(0, 13):
        for _ in range(5):
            a = [rng.choice((0, rng.randint(-4, 4), Fraction(rng.randint(-9, 9), rng.randint(1, 9))))
                 for _ in range(size)]
            assert orbit_point(len(a) + 1, a) == literal_series_exp(a + [0])


def test_series_log_matches_literal_oracle():
    rng = random.Random(48)
    assert parameters_for_point(1, []) == literal_series_log([]) == ()
    x = [Fraction(1, 2), Fraction(0), Fraction(-2, 3)]
    assert parameters_for_point(len(x) + 1, x) == literal_series_log(x)
    for size in range(1, 13):
        for _ in range(5):
            x = [rng.choice((0, rng.randint(-4, 4), Fraction(rng.randint(-9, 9), rng.randint(1, 9))))
                 for _ in range(size)]
            assert parameters_for_point(len(x) + 1, x) == literal_series_log(x)


def test_orbit_map_needs_n_at_least_1():
    for f in (orbit_point, parameters_for_point):
        with pytest.raises(ValueError, match=r"^need n >= 1$"):
            f(0, [])
        with pytest.raises(ValueError, match=r"^need n >= 1$"):
            f(-2, [])
    # n = 1 has no parameters; the origin of the line is its one orbit point.
    assert orbit_point(1, []) == (0,)
    assert parameters_for_point(1, []) == ()


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


def test_orbit_point_is_the_proved_orbit_map():
    # orbit_point(n, t) = C(t)/n! for the term maps C that the orbit check proves
    # to be the joint flow, and parameters_for_point undoes it.
    rng = random.Random(29)
    for n in range(3, 13):
        terms = orbit_map_terms(n)
        assert terms[0] == {(): factorial(n)}
        for _ in range(5):
            t = rand_params(rng, n)
            values = tuple(sum(c * prod(t[part - 1] for part in key) for key, c in terms[h].items()) / factorial(n)
                           for h in range(1, n + 1))
            assert orbit_point(n, t) == values == literal_series_exp(t + [0])
            assert parameters_for_point(n, values[: n - 1]) == tuple(t)


def test_orbit_map_terms_examples():
    # exp(t1 s + t2 s^2) = 1 + t1 s + (t2 + t1^2/2) s^2 + (t1 t2 + t1^3/6) s^3 + ..., times 3! = 6.
    assert orbit_map_terms(3) == [{(): 6}, {(1,): 6}, {(2,): 6, (1, 1): 3}, {(2, 1): 6, (1, 1, 1): 1}]
    with pytest.raises(ValueError, match="need n >= 2"):
        orbit_map_terms(1)


def test_joint_flow_fails_on_a_wrong_orbit_map():
    n = 6
    fields = cayley_fields(n)
    assert is_joint_flow(fields, orbit_map_terms(n))
    # C_n enters no X_(p,h)(C), so only (a) sees a constant term there.
    for h in (1, n):
        terms = orbit_map_terms(n)
        terms[h][()] = 1
        assert not is_joint_flow(fields, terms)
    for h in range(1, n + 1):
        terms = orbit_map_terms(n)
        key = next(iter(terms[h]))
        terms[h][key] += 1
        assert not is_joint_flow(fields, terms)
    # t_n is no parameter: C_n with a term in it is no flow of the n - 1 fields.
    terms = orbit_map_terms(n)
    terms[n][(n,)] = 1
    assert not is_joint_flow(fields, terms)
    with pytest.raises(ValueError, match="need 5 fields on 6-space"):
        is_joint_flow(fields[:-1], orbit_map_terms(n))
    with pytest.raises(ValueError, match="need 5 fields on 6-space"):
        is_joint_flow(cayley_fields(n + 1)[:-1], orbit_map_terms(n))


def test_orbit_check_agrees_with_the_sampled_oracle():
    for n in range(3, 17):
        phi = cayley_poly(n)
        assert cli._check_orbit(cli._Target(phi, "cayley"))[0]
        assert sampled_orbit_check(phi, orbit_point, parameters_for_point)


def test_orbit_check_fails_on_a_changed_surface():
    rng = random.Random(31)
    for n in range(3, 11):
        phi = cayley_poly(n)
        assert not cli._check_orbit(cli._Target(phi + Polynomial.constant(n, 1), "cayley"))[0]
        monos = sorted(phi.terms)
        for mono in monos if n <= 6 else rng.sample(monos, 3):
            changed = phi + Polynomial(n, [(dict(mono), rng.choice([-2, -1, Fraction(1, 2), 1]))])
            assert not cli._check_orbit(cli._Target(changed, "cayley"))[0]


def test_orbit_check_fails_on_doubled_fields(monkeypatch):
    # 2 X_p still annihilate Phi, so only the flow identity (b) rules them out.
    def doubled(n):
        return [AffineVectorField([q * 2 for q in f.coefficients]) for f in cayley_fields(n)]

    monkeypatch.setattr("cayley.symmetry.cayley_fields", doubled)
    for n in range(3, 11):
        phi = cayley_poly(n)
        assert all(not f.apply(phi) for f in doubled(n))
        assert not cli._check_orbit(cli._Target(phi, "cayley"))[0]


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


def test_solver_output_does_not_depend_on_the_term_order():
    # The term order sets the order of the solver's rows; only the uniqueness of the
    # reduced echelon form keeps the basis the same.
    for p in [cayley_poly(9), family_poly(7, Fraction(-7, 3)), seeded_polys(0)[1]]:
        reversed_p = Polynomial(p.n, reversed(list(p.terms.items())))
        assert list(reversed_p.terms) == list(p.terms)[::-1]
        assert symmetry_algebra(reversed_p) == symmetry_algebra(p)
        assert isotropy_at_origin(reversed_p) == isotropy_at_origin(p)


def test_symmetry_algebra_of_round_paraboloid():
    p = Polynomial(3, [({1: 2}, 1), ({2: 2}, 1), ({3: 1}, -1)])
    algebra = symmetry_algebra(p)
    rotation = AffineVectorField(affine_polys([0, 0, 0], [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]))
    assert rotation.apply(p) == Polynomial.zero(3)
    assert span_contains(algebra, [rotation])


def test_symmetry_algebra_rejects_zero_polynomial():
    for solve in (symmetry_algebra, isotropy_at_origin):
        with pytest.raises(ValueError, match="polynomial must be nonzero"):
            solve(Polynomial.zero(3))


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


# Quadrics whose isotropy at the origin has dimension above 10: 11 for the round cone in
# 5 variables, 17 for x1 x2 + x3 x4 + x5^2 in 6 and for x1^2 + x2^2 in 5.
BIG_ISOTROPY_QUADRICS = [
    Polynomial(5, [({i: 2}, 1) for i in range(1, 6)]),
    Polynomial(6, [({1: 1, 2: 1}, 1), ({3: 1, 4: 1}, 1), ({5: 2}, 1)]),
    Polynomial(5, [({1: 2}, 1), ({2: 2}, 1)]),
]


def test_isotropy_read_off_the_algebra_is_isotropy_at_origin():
    # Basis for basis, eigenvalue for eigenvalue, against the solver run on the isotropy's own
    # system.  At b = 1 + 2/k the family's prefactor drops terms; the ungraded seeded
    # polynomials of seeds 1 and 5 have an algebra of dimension 0.
    polys = [cayley_poly(n) for n in range(3, 15)] + [variant_surface_4()] + BIG_ISOTROPY_QUADRICS
    polys += [family_poly(n, Fraction(b)) for n in range(4, 11) for b in ("0", "1/2", "-7/3", "1", "3", "5/3")]
    for seed in range(6):
        polys += seeded_polys(seed)
    dimensions = set()
    for p in polys:
        algebra = symmetry_algebra(p)
        iso = algebra.isotropy()
        assert iso == isotropy_at_origin(p)
        dimensions.add((algebra.dimension, iso.dimension))
    assert (0, 0) in dimensions and max(iso for _, iso in dimensions) == 17


def deep_polys(seed):
    """Three random polynomials in 4 variables, without constant term, with terms of degree <= 6.

    The first is graded for random weights in 1..4, at a weight that has terms of degree <= 3
    and above; the second is up to three of its terms of degree <= 3 plus one term of degree
    4..6 of another weight, which the terms of degree <= 3 do not see; the third is free.
    """
    rng = random.Random(seed)
    monomials = [e for e in all_exponents(4, 6) if sum(e)]
    while True:
        weights = [rng.randint(1, 4) for _ in range(4)]
        by_weight = {}
        for e in monomials:
            by_weight.setdefault(sum(w * x for w, x in zip(weights, e)), []).append(e)
        mixed = sorted(w for w, es in by_weight.items() if min(map(sum, es)) <= 3 < max(map(sum, es)))
        if mixed:
            break
    graded = by_weight[rng.choice(mixed)]
    low = [e for e in graded if sum(e) <= 3]
    high = [e for e in monomials if sum(e) > 3 and e not in graded]

    def poly(exponents):
        coefficients = [Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5)) for _ in exponents]
        return Polynomial(4, [(enumerate(e, 1), c) for e, c in zip(exponents, coefficients)])

    return (poly(rng.sample(graded, min(5, len(graded)))),
            poly(rng.sample(low, min(3, len(low))) + rng.sample(high, 1)),
            poly(rng.sample(monomials, 5)))


# x1^4 - x2: the terms of degree <= 3 are -x2 alone, whose isotropy (dimension 3) is larger than
# the surface's (dimension 1).  x1^4 - x2^5 has no term of degree <= 3.
QUARTIC_MINUS_X2 = Polynomial(2, [({1: 4}, 1), ({2: 1}, -1)])
QUARTIC_MINUS_X2_5 = Polynomial(2, [({1: 4}, 1), ({2: 5}, -1)])
DEEP_POLYS = [p for seed in range(20) for p in deep_polys(seed)] + [QUARTIC_MINUS_X2, QUARTIC_MINUS_X2_5]
FAMILY_MEMBERS = [family_poly(n, Fraction(b)) for n in (5, 8, 11) for b in ("1/2", "-7/3", "3", "5/3")]


def test_both_isotropy_routes_give_the_linear_only_basis():
    # Basis for basis, eigenvalue for eigenvalue, against the solve of the isotropy's own system.
    polys = [cayley_poly(n) for n in range(2, 17)] + FAMILY_MEMBERS + [variant_surface_4()] + DEEP_POLYS
    for p in polys:
        reference = linear_isotropy(p)
        assert isotropy_at_origin(p) == reference
        assert symmetry_algebra(p).isotropy() == reference


def test_isotropy_dimension_matches_dense_oracle_on_terms_up_to_degree_6():
    dimensions = set()
    for p in [variant_surface_4(), family_poly(5, Fraction(1, 2))] + DEEP_POLYS:
        dimension = isotropy_at_origin(p).dimension
        assert dimension == dense_eigen_dimension(p, include_constant=False)
        dimensions.add(dimension)
    assert {0, 1, 2} <= dimensions and max(dimensions) >= 5


def test_isotropy_at_origin_solves_the_terms_of_degree_3_alone_on_every_built_surface(monkeypatch):
    solved = []
    original = symmetry.symmetry_algebra

    def counted(p):
        solved.append(p)
        return original(p)

    monkeypatch.setattr(symmetry, "symmetry_algebra", counted)
    surfaces = [cayley_poly(n) for n in range(3, 21)] + [variant_surface_4()]
    surfaces += [family_poly(n, Fraction(b)) for n in range(4, 13) for b in ("1/2", "-7/3", "3", "5/3")]
    for p in surfaces:
        isotropy_at_origin(p)
        assert len(solved) == 1 and solved[0].total_degree() <= 3
        solved.clear()
    # The certificate fails on x1^4 - x2, so the surface's own algebra is solved too.
    assert isotropy_at_origin(QUARTIC_MINUS_X2).dimension == 1
    assert solved == [-Polynomial.variable(2, 2), QUARTIC_MINUS_X2]
    solved.clear()
    assert isotropy_at_origin(QUARTIC_MINUS_X2_5).dimension == 1
    assert solved == [QUARTIC_MINUS_X2_5]
    # Some seeded polynomials take each route.
    routes = set()
    for p in DEEP_POLYS:
        solved.clear()
        isotropy_at_origin(p)
        routes.add(len(solved))
    assert routes == {1, 2}


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
    assert not span_contains(algebra, [translation_field(3, 1)])


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
    algebra = SymmetryAlgebra((cayley_fields(3)[1],), (Fraction(0),))
    assert cli._algebra_json(algebra) == [{
        "n": 3,
        "constant": ["0", "1", "0"],
        "linear": [["0", "0", "1"], ["0", "0", "0"], ["0", "0", "0"]],
        "eigenvalue": "0",
    }]


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
def same_space(draw, count):
    """count random fields and one random polynomial, for one n <= 4."""
    n = draw(st.integers(1, 4))
    return [draw(fields(n)) for _ in range(count)], draw(polynomials(n))


property_settings = settings(derandomize=True, deadline=None, max_examples=60)


@property_settings
@given(same_space(2))
def test_bracket_is_antisymmetric(case):
    (x, y), _ = case
    assert commutator(x, y) == AffineVectorField([-c for c in commutator(y, x).coefficients])


@property_settings
@given(same_space(3))
def test_bracket_satisfies_jacobi(case):
    (x, y, z), _ = case
    cyclic = [commutator(a, commutator(b, c)) for a, b, c in ((x, y, z), (y, z, x), (z, x, y))]
    assert not any(a + b + c for a, b, c in zip(*(f.coefficients for f in cyclic)))


@property_settings
@given(same_space(2))
def test_bracket_acts_as_commutator_of_derivations(case):
    (x, y), p = case
    assert commutator(x, y).apply(p) == x.apply(y.apply(p)) - y.apply(x.apply(p))


@property_settings
@given(same_space(2))
def test_field_round_trips_through_constant_and_linear(case):
    (x, y), _ = case
    combined = AffineVectorField([a - b / 2 for a, b in zip(x.coefficients, y.coefficients)])
    for f in (x, commutator(x, y), combined):
        assert AffineVectorField(affine_polys(f.constant, f.linear)) == f


series_entries = st.one_of(small_rationals, st.integers(-5, 5))


@property_settings
@given(st.lists(series_entries, max_size=12))
@example([])
@example([0, 0, 0, 0, 0])
@example([3, -2, 0, 7])
def test_series_log1p_inverts_series_exp(a):
    # The first n - 1 coordinates of the series exp are those of exp(a_1 s + ... + a_{n-1} s^{n-1}),
    # so this is log(exp(a)) = a on every length, the empty series included.
    n = len(a) + 1
    assert parameters_for_point(n, orbit_point(n, a)[: n - 1]) == tuple(a)


@property_settings
@given(st.integers(1, 11).flatmap(lambda k: st.lists(series_entries, min_size=k, max_size=k)))
def test_orbit_parameter_round_trip(t):
    n = len(t) + 1
    point = orbit_point(n, t)
    assert cayley_poly(n).evaluate(point) == 0
    assert parameters_for_point(n, point[: n - 1]) == tuple(t)
