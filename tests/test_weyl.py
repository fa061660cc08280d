"""Weyl-algebra arithmetic, named operators, and exact factorizations.

Displayed operators frozen below are the classical closed forms for the
trinomial equations (quadratic, both cubics, the quartic and sextic with
middle exponent 2); the composition oracle is exact canonical-form
equality, never numeric.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mellinsys.profiles import make_profile
from mellinsys.series import (TruncatedSeries, convenient_basis_series,
                              exponents_up_to, principal_series)
from mellinsys import weyl
from mellinsys.weyl import (DiffOperator, derivative_factorization,
                            discriminant_poly,
                            horn_mellin_multiplier, horn_system,
                            lattice_matrices, leading_coefficient,
                            mellin_operator_1d, mellin_system,
                            mellin_system_theta_form, poly_scale_ratio,
                            theta_factorization)
from mellinsys.weyl import _int_product, _stirling_row, _theta_terms
from basis_oracle import basis_by_recurrence
from weyl_oracle import (apply, compose_by_fractions,
                         equals_up_to_rational_scale,
                         euler_product_identity, factorization_check,
                         from_univariate, horn_w_by_own_factors,
                         horn_x_by_own_factors, least_theta_multiplier, linear,
                         mellin_by_composition, operator_to_json,
                         right_divide_theta_minus_one,
                         theta_mul_by_fractions, theta_poly_by_composition,
                         theta_product_by_composition)

X = lambda n=1, j=0, k=1: DiffOperator.x_power(n, j, k)
D = lambda n=1, j=0, k=1: DiffOperator.partial(n, j, k)
THETA = lambda n=1, j=0: DiffOperator.theta(n, j)

# the five named univariate operators, ascending coefficient lists per D-power
NAMED_OPERATORS = {
    (2, 1): [[-1], [0, 1], [4, 0, 1]],
    (3, 2): [[-4], [0, 4], [0, 0, 18], [-27, 0, 0, 4]],
    (3, 1): [[-2], [0, 10], [0, 0, 18], [27, 0, 0, 4]],
    (4, 2): [[-15], [0, 120], [0, 0, 360], [0, 0, 0, 160], [-256, 0, 0, 0, 16]],
    (6, 2): [[-6545], [0, 236180], [0, 0, 955780], [0, 0, 0, 818944],
             [0, 0, 0, 0, 242816], [0, 0, 0, 0, 0, 27648],
             [-46656, 0, 0, 0, 0, 0, 1024]],
}


def test_weyl_relation():
    n = 1
    assert D(n) * X(n) == X(n) * D(n) + DiffOperator.identity(n)
    assert D(n) * X(n) == DiffOperator(1, {((1,), (1,)): 1, ((0,), (0,)): 1})


def test_theta_squared():
    got = THETA() * THETA()
    assert got == DiffOperator(1, {((2,), (2,)): 1, ((1,), (1,)): 1})


def test_theta_plus_one_is_d_compose_x():
    assert THETA() + DiffOperator.identity(1) == D() * X()


def test_cross_variable_generators_commute():
    assert D(2, 0) * X(2, 1) == X(2, 1) * D(2, 0)
    assert D(2, 0) * D(2, 1) == D(2, 1) * D(2, 0)


def _random_operator(rng, n, size=4, deg=2):
    terms = {}
    for _ in range(size):
        a = tuple(rng.randint(0, deg) for _ in range(n))
        b = tuple(rng.randint(0, deg) for _ in range(n))
        terms[(a, b)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return DiffOperator(n, terms)


def test_composition_associative():
    rng = random.Random(11)
    for _ in range(8):
        p = _random_operator(rng, 2)
        q = _random_operator(rng, 2)
        r = _random_operator(rng, 2)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


def test_stirling_rows_match_repeated_theta_composition():
    power = DiffOperator.identity(1)
    for e in range(9):
        want = DiffOperator(1, {((i,), (i,)): s
                                for i, s in enumerate(_stirling_row(e))})
        assert power == want
        power = power * THETA()
    assert _stirling_row(4) == (0, 1, 7, 6, 1)
    assert _stirling_row(8)[3] == 966


@st.composite
def theta_polys(draw):
    """An integer theta map in n <= 3 Euler operators, total degree <= 7."""
    n = draw(st.integers(1, 3))
    coeffs = {}
    for _ in range(draw(st.integers(0, 6))):
        left, k = 7, []
        for _ in range(n):
            k.append(draw(st.integers(0, left)))
            left -= k[-1]
        coeffs[tuple(k)] = draw(st.integers(-50, 50))
    return n, coeffs


def _integer_terms(terms):
    return all(type(c) is int for c in terms.values())


@settings(deadline=None)
@given(theta_polys())
def test_theta_expansion_matches_composition_oracle(poly):
    n, coeffs = poly
    terms = _theta_terms(n, [coeffs])
    assert _integer_terms(terms)
    assert DiffOperator(n, terms) == theta_poly_by_composition(n, coeffs)


@st.composite
def kernel_coeffs(draw, keys):
    """Coefficient maps for the composition kernel: integers only, or rationals
    over several distinct denominators; negative and zero values; a small
    value set, so that products of overlapping terms cancel to 0."""
    if draw(st.booleans()):
        values = st.integers(-3, 3).map(Fraction)
    else:
        values = st.builds(Fraction, st.integers(-6, 6),
                           st.sampled_from([1, 2, 3, 4, 6, 7, 9, 10]))
    return draw(st.dictionaries(keys, values, max_size=5))


def _exponents(n, top):
    return st.tuples(*[st.integers(0, top)] * n)


@st.composite
def theta_poly_pairs(draw):
    """Two integer theta maps in the same n <= 3 Euler operators, degree <= 3
    each, over a small value set so that products cancel to 0."""
    n = draw(st.integers(1, 3))
    return (n, *(draw(st.dictionaries(_exponents(n, 3), st.integers(-3, 3),
                                      max_size=5))
                 for _ in range(2)))


@st.composite
def operator_pairs(draw):
    """Two operators sum c x^a D^b in the same n <= 3 variables."""
    n = draw(st.integers(1, 3))
    keys = st.tuples(_exponents(n, 2), _exponents(n, 2))
    return tuple(DiffOperator(n, draw(kernel_coeffs(keys))) for _ in range(2))


def _normalized_fractions(values):
    return all(type(c) is Fraction and c for c in values)


@settings(deadline=None)
@given(theta_poly_pairs())
@example((1, {(0,): 1, (1,): 1}, {(0,): -1, (1,): 1}))  # theta^2 - 1
def test_theta_product_kernel_matches_fraction_oracle(pair):
    n, p, q = pair
    got = _int_product(n, [p, q])
    assert got == theta_mul_by_fractions(p, q)
    assert all(type(c) is int and c for c in got.values())


@settings(deadline=None)
@given(theta_poly_pairs())
def test_theta_expansion_kernel_matches_composition_oracle(pair):
    n, p, q = pair
    for factors in ([p], [q], [p, q]):
        terms = _theta_terms(n, factors)
        assert _integer_terms(terms)
        assert DiffOperator(n, terms) == theta_product_by_composition(n, factors)


@settings(deadline=None)
@given(operator_pairs())
@example((D(), X()))  # D o x = x D + 1
@example((X() + D(), D() - X()))  # the x D terms cancel: D^2 - x^2 - 1
def test_composition_kernel_matches_fraction_oracle(pair):
    p, q = pair
    got = p * q
    assert got == compose_by_fractions(p, q)
    assert _normalized_fractions(got.terms.values())


def _profiles_up_to(top_m, top_n):
    return [(m, list(ms)) for m in range(2, top_m + 1)
            for n in range(1, top_n + 1)
            for ms in combinations(range(m - 1, 0, -1), n)]


@pytest.mark.parametrize("m,ms", _profiles_up_to(6, 3))
def test_horn_x_form_equals_one_built_from_its_own_factors(m, ms):
    """Both Horn forms, the w-form and the x-form, against the ones
    multiplied out Fraction by Fraction from their own factors."""
    p = make_profile(m, ms)
    horn_w, horn_x = horn_system(p)
    assert horn_w == horn_w_by_own_factors(p)
    assert horn_x == horn_x_by_own_factors(p)


@pytest.mark.parametrize("m,ms", _profiles_up_to(6, 3))
def test_mellin_system_equals_the_composed_indicial_product(m, ms):
    p = make_profile(m, ms)
    assert list(mellin_system(p)) == mellin_by_composition(p)


def test_systems_are_assembled_without_operator_arithmetic(monkeypatch):
    """horn_system and mellin_system build integer maps by key shifts: no
    operator composition, sum, difference or negation runs inside them."""
    def forbidden(*args):
        raise AssertionError("operator arithmetic in a system construction")

    for name in ("__mul__", "__add__", "__sub__", "__neg__"):
        monkeypatch.setattr(DiffOperator, name, forbidden)
    mellin_system.cache_clear()
    for m, ms in [(2, [1]), (3, [2, 1]), (6, [4, 2]), (5, [3, 2, 1])]:
        p = make_profile(m, ms)
        horn_system(p)
        mellin_system(p)


def test_references_are_built_without_the_theta_kernels(monkeypatch):
    """The Horn, Mellin and basis references expand by composition and
    evaluate in integers: with the library's theta product and Stirling
    expansion patched to raise, they still build, and equal the library."""
    def forbidden(*args):
        raise AssertionError("a reference ran a library theta kernel")

    cases = [(2, [1]), (3, [2, 1]), (4, [3]), (6, [4, 2]), (5, [3, 2, 1])]
    refs = []
    with monkeypatch.context() as patch:
        patch.setattr(weyl, "_expand_theta", forbidden)
        patch.setattr(weyl, "_int_product", forbidden)
        for m, ms in cases:
            p = make_profile(m, ms)
            refs.append((p, horn_w_by_own_factors(p), horn_x_by_own_factors(p),
                         mellin_by_composition(p),
                         basis_by_recurrence(p, [1] * p.n, 3 * m)))
    for p, horn_w, horn_x, mellin, basis in refs:
        assert list(horn_system(p)) == [horn_w, horn_x]
        assert list(mellin_system(p)) == mellin
        assert basis.terms == convenient_basis_series(
            p, [1] * p.n, 3 * p.m).terms


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_euler_product_identity(m):
    for n, j in [(1, 0), (2, 1)]:
        lhs, rhs = euler_product_identity(n, j, m)
        assert lhs == rhs


@pytest.mark.parametrize("m,m1", sorted(NAMED_OPERATORS))
def test_named_operators_exact(m, m1):
    got = mellin_operator_1d(m, m1)
    want = from_univariate(NAMED_OPERATORS[(m, m1)])
    ratio = equals_up_to_rational_scale(got, want)
    assert ratio is not None
    assert ratio == 1  # the construction reproduces the classical scaling


def test_general_cubic_system_displayed_form():
    # cleared operators of y^3 + x1 y^2 + x2 y - 1 = 0:
    #   x1^3 (2t1+t2+1)(2t1+t2+4)(t1+2t2-1) - 27 t1(t1-1)(t1-2)
    #   x2^3 (2t1+t2+1)(t1+2t2-1)(t1+2t2+2) + 27 t2(t2-1)(t2-2)
    p = make_profile(3, [2, 1])
    cleared = mellin_system_theta_form(p)
    lin, expand = linear, theta_product_by_composition
    p1 = expand(2, [lin([2, 1], 1), lin([2, 1], 4), lin([1, 2], -1)])
    p2 = expand(2, [lin([2, 1], 1), lin([1, 2], -1), lin([1, 2], 2)])
    t1 = expand(2, [lin([1, 0], 0), lin([1, 0], -1), lin([1, 0], -2)])
    t2 = expand(2, [lin([0, 1], 0), lin([0, 1], -1), lin([0, 1], -2)])
    want1 = X(2, 0, 3) * p1 - t1.scale(27)
    want2 = X(2, 1, 3) * p2 + t2.scale(27)
    assert cleared[0] == want1
    assert cleared[1] == want2


@pytest.mark.parametrize("m,ms", [(2, [1]), (3, [1]), (3, [2]), (4, [2]),
                                  (6, [2]), (3, [2, 1]), (6, [4, 2])])
def test_cleared_system_and_left_division(m, ms):
    p = make_profile(m, ms)
    mellin = mellin_system(p)
    cleared = mellin_system_theta_form(p)
    for j in range(p.n):
        assert cleared[j] == X(p.n, j, m) * mellin[j]
        assert cleared[j].left_divide_x_power(j, m) == mellin[j]


@pytest.mark.parametrize("m,ms", [(2, [1]), (3, [1]), (3, [2]), (4, [2]),
                                  (6, [2]), (3, [2, 1]), (6, [4, 2])])
def test_horn_to_mellin_identity(m, ms):
    p = make_profile(m, ms)
    cleared = mellin_system_theta_form(p)
    horn_w, horn_x = horn_system(p)
    for j in range(p.n):
        mult = horn_mellin_multiplier(p, j)
        assert abs(mult) == m**m
        assert horn_x[j].scale(mult) == cleared[j]
        # leading block of H_j is prod_k (m*theta_j - k): the remainder
        # after removing it is left-divisible by the j-th variable
        lead = theta_product_by_composition(
            p.n, [linear([m if i == j else 0 for i in range(p.n)], -k)
                  for k in range(m)])
        rest = lead - horn_w[j]
        assert rest.left_divide_x_power(j, 1) is not None


@pytest.mark.parametrize("m,ms", [(2, [1]), (3, [2]), (4, [2]), (3, [2, 1])])
def test_horn_w_operators_annihilate_translated_solution(m, ms):
    # the basis solution with support in m*N^n is a function of the torus
    # variables w_j = (-1)^{m-m_j} x_j^m; rewritten in w it must satisfy
    # the w-side system exactly
    p = make_profile(m, ms)
    f0 = convenient_basis_series(p, (0,) * p.n, 4 * m)
    psi_terms = {}
    for s, c in f0.terms.items():
        q = tuple(v // m for v in s)
        sign = (-1) ** sum(mp * qi for mp, qi in zip(p.mprime_list, q))
        psi_terms[q] = c * sign
    psi = TruncatedSeries(p.n, 4, psi_terms)
    horn_w, _ = horn_system(p)
    for op in horn_w:
        assert op.apply(psi).is_zero()


def test_kernel_matrix_minor_gcd():
    # gcd of the maximal minors of B is m^(n-1) * d
    from itertools import combinations
    from math import gcd

    def det(mat):
        if len(mat) == 1:
            return mat[0][0]
        return sum((-1) ** j * mat[0][j]
                   * det([row[:j] + row[j + 1:] for row in mat[1:]])
                   for j in range(len(mat)))

    for (m, ms) in [(2, [1]), (3, [2, 1]), (6, [4, 2]), (6, [2]),
                    (5, [3, 2, 1])]:
        p = make_profile(m, ms)
        lat = lattice_matrices(p)
        g = 0
        for rows in combinations(range(p.n + 2), p.n):
            sub = [[lat.B[r][c] for c in range(p.n)] for r in rows]
            g = gcd(g, abs(det(sub)))
        assert g == p.m ** (p.n - 1) * p.d


def test_horn_multiplier_sign_depends_on_mj():
    # sign is (-1)^(m_j + 1); the naive (-1)^(m+1) guess fails at (2,[1])
    p = make_profile(2, [1])
    assert horn_mellin_multiplier(p, 0) == 4
    p = make_profile(3, [2])
    assert horn_mellin_multiplier(p, 0) == -27
    p = make_profile(3, [2, 1])
    assert horn_mellin_multiplier(p, 0) == -27
    assert horn_mellin_multiplier(p, 1) == 27


def test_lattice_matrices():
    p = make_profile(3, [2, 1])
    lat = lattice_matrices(p)
    assert lat.A == ((1, 1, 1, 1), (3, 2, 1, 0))
    assert lat.B == ((-2, -1), (3, 0), (0, 3), (-1, -2))
    assert lat.toric_pairs == (((0, 3, 0, 0), (2, 0, 0, 1)),
                               ((0, 0, 3, 0), (1, 0, 0, 2)))
    assert lat.c == (Fraction(-1, 3), Fraction(0), Fraction(0), Fraction(1, 3))
    assert lat.beta == (0, -1)
    assert lat.horn_rank == 9
    p = make_profile(6, [4, 2])
    lat = lattice_matrices(p)
    assert lat.A_prime[1] == (Fraction(3), Fraction(2), Fraction(1), Fraction(0))
    assert lat.beta_prime == (Fraction(0), Fraction(-1, 2))
    assert lat.horn_rank == 36


def test_kernel_columns_annihilated():
    for (m, ms) in [(2, [1]), (3, [2, 1]), (6, [4, 2]), (5, [3, 2, 1])]:
        lat = lattice_matrices(make_profile(m, ms))
        n = len(ms)
        for col in range(n):
            column = [lat.B[r][col] for r in range(n + 2)]
            for row in lat.A:
                assert sum(a * u for a, u in zip(row, column)) == 0


def test_discriminant_examples():
    assert discriminant_poly(3, 2) == [-27, 0, 0, 4]
    assert discriminant_poly(3, 1) == [27, 0, 0, 4]
    assert discriminant_poly(2, 1) == [4, 0, 1]


def test_leading_coefficient_matches_discriminant_when_coprime():
    for m in range(2, 8):
        for m1 in range(1, m):
            lead = leading_coefficient(mellin_operator_1d(m, m1))
            disc = discriminant_poly(m, m1)
            ratio = poly_scale_ratio(lead, disc)
            from math import gcd
            if gcd(m, m1) == 1:
                assert ratio is not None
            else:
                assert ratio is None


def test_leading_coefficient_rejects_zero():
    with pytest.raises(ValueError):
        leading_coefficient(DiffOperator.zero(1))


# ---------------------------------------------------------------------------
# factorizations
# ---------------------------------------------------------------------------

def test_displayed_factorization_cubic_top():
    # x^2 ( M(3,2) ) = ((4x^4-27x) D^2 + (14x^3+27) D + 4x^2) (x D - 1)
    left = from_univariate([[0, 0, 4], [27, 0, 0, 14],
                            [0, -27, 0, 0, 4]])
    right = THETA() - DiffOperator.identity(1)
    target = mellin_operator_1d(3, 2)
    assert factorization_check(left, right, target, multiplier=X(1, 0, 2))


def test_displayed_factorization_cubic_bottom():
    # M(3,1) = D ((4x^3+27) D^2 + 6x^2 D - 2x)
    left = D()
    right = from_univariate([[0, -2], [0, 0, 6], [27, 0, 0, 4]])
    assert factorization_check(left, right, mellin_operator_1d(3, 1))


def test_displayed_factorization_quartic():
    # M(4,2) = ((4x^2-16) D^2 + 20x D + 15) ((4x^2+16) D^2 + 4x D - 1)
    left = from_univariate([[15], [0, 20], [-16, 0, 4]])
    right = from_univariate([[-1], [0, 4], [16, 0, 4]])
    assert factorization_check(left, right, mellin_operator_1d(4, 2))


def test_displayed_factorization_sextic():
    # M(6,2) = ((32x^3-216) D^3 + 432 x^2 D^2 + 1526 x D + 1309)
    #          ((32x^3+216) D^3 + 144 x^2 D^2 + 86 x D - 5)
    left = from_univariate([[1309], [0, 1526], [0, 0, 432],
                            [-216, 0, 0, 32]])
    right = from_univariate([[-5], [0, 86], [0, 0, 144],
                             [216, 0, 0, 32]])
    assert factorization_check(left, right, mellin_operator_1d(6, 2))


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_theta_factorization_resolves_minimal_exponent(m):
    fac = theta_factorization(m)
    assert fac.exponent == m - 1
    assert fac.right == THETA() - DiffOperator.identity(1)
    assert (X(1, 0, fac.exponent) * mellin_operator_1d(m, m - 1)
            == fac.left * fac.right)
    # the closed form carries multiplier x^m and one extra x on the left
    assert fac.displayed_left == X(1, 0, 1) * fac.left


@pytest.mark.parametrize("m", range(2, 13))
def test_theta_factorization_matches_the_right_division_search(m):
    """The exponent read off the x-valuation of the displayed factor is the
    least one that exact right division by theta - 1 finds."""
    fac = theta_factorization(m)
    assert least_theta_multiplier(m) == (fac.exponent, fac.left)
    assert fac.exponent == m - 1


def test_theta_factorization_cubic_left_factor_is_displayed_one():
    fac = theta_factorization(3)
    want = from_univariate([[0, 0, 4], [27, 0, 0, 14],
                            [0, -27, 0, 0, 4]])
    assert fac.left == want


def test_right_factor_annihilates_x():
    x_series = TruncatedSeries(1, 6, {(1,): Fraction(1)})
    right = THETA() - DiffOperator.identity(1)
    assert right.apply(x_series).is_zero()


def test_right_division_negative_case():
    # M(3,1) does not annihilate x, so theta - 1 is not a right factor
    assert right_divide_theta_minus_one(mellin_operator_1d(3, 1)) is None


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_derivative_factorization(m):
    left, right = derivative_factorization(m)
    assert left == D()
    assert left * right == mellin_operator_1d(m, 1)


def test_derivative_factorization_cubic_right_factor():
    _, right = derivative_factorization(3)
    assert right == from_univariate([[0, -2], [0, 0, 6],
                                     [27, 0, 0, 4]])


# ---------------------------------------------------------------------------
# application to series, rendering
# ---------------------------------------------------------------------------

def test_apply_derivative_to_constant():
    one = TruncatedSeries(1, 5, {(0,): Fraction(1)})
    assert D().apply(one).is_zero()


def test_apply_quadratic_operator_kills_both_solutions():
    op = mellin_operator_1d(2, 1)
    x_series = TruncatedSeries(1, 9, {(1,): Fraction(1)})
    assert op.apply(x_series).is_zero()
    ypr = principal_series(make_profile(2, [1]), 9)
    out = op.apply(ypr)
    assert out.is_zero()
    assert out.order == 7  # pure D^2 term costs two orders


@pytest.mark.parametrize("m,ms", [(2, [1]), (3, [2, 1]), (5, [3]),
                                  (4, [3, 2, 1])])
def test_apply_matches_the_pair_by_pair_oracle(m, ms):
    """On y_pr, the convenient basis and a seeded random rational series,
    every Mellin and cleared operator acts as the ring-generic oracle."""
    p, order = make_profile(m, ms), 2 * m + 2
    rng = random.Random(m)
    noise = TruncatedSeries(p.n, order, {
        s: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        for s in exponents_up_to(p.n, order)})
    inputs = [principal_series(p, order), noise] + [
        convenient_basis_series(p, idx, order)
        for idx in [(0,) * p.n, (m - 1,) + (0,) * (p.n - 1)]]
    for op in mellin_system(p) + tuple(mellin_system_theta_form(p)):
        for f in inputs:
            got, want = op.apply(f), apply(op, f)
            assert (got.order, got.terms) == (want.order, want.terms)


def test_apply_variable_count_mismatch():
    op = mellin_operator_1d(2, 1)
    s = TruncatedSeries(2, 5, {(0, 0): Fraction(1)})
    with pytest.raises(ValueError):
        op.apply(s)


def test_equals_up_to_scale():
    a = mellin_operator_1d(3, 2)
    assert equals_up_to_rational_scale(a, a.scale(Fraction(-7, 3))) \
        == Fraction(-3, 7)
    assert equals_up_to_rational_scale(a, mellin_operator_1d(3, 1)) is None


def test_render_stability():
    op = mellin_operator_1d(2, 1)
    assert op.render_ode() == "(x^2 + 4) D^2 + x D - 1"
    assert op.render_ode() == mellin_operator_1d(2, 1).render_ode()
    js = operator_to_json(op)
    assert js == operator_to_json(mellin_operator_1d(2, 1))
    # highest derivative order first; ties broken by ascending x-exponent
    assert js[0] == {"x": [0], "d": [2], "coeff": "4"}
    assert js[1] == {"x": [2], "d": [2], "coeff": "1"}


def test_scalar_multiplication_operators():
    op = mellin_operator_1d(2, 1)
    assert 2 * op == op + op
    assert op * Fraction(1, 2) + op * Fraction(1, 2) == op
