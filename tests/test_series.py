"""Truncated series arithmetic and the solution-basis constructions.

The quadratic-equation oracle used throughout: for y^2 + x*y - 1 = 0 the
two roots are (-x +/- sqrt(x^2 + 4))/2, and sqrt(x^2 + 4) expands by the
binomial series with exact rational coefficients.  Expected values below
are frozen from that expansion.
"""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mellinsys import series
from mellinsys.profiles import (algebraic_index_set, dims, index_box,
                                make_profile, principal_coefficient_vanishes)
from basis_oracle import basis_by_recurrence
from field_oracle import cyclotomic_field
from profile_oracle import profile_suite
from ring_oracle import (COMPLEX, RATIONAL, RingSeries, get_cyclotomic_ring,
                         ring_series, rotate, scaled_root_series)
from series_oracle import (inverse, log, monomial, naive_product,
                           series_text, series_to_json, subseries)
from mellinsys.series import (TruncatedSeries, convenient_basis_series,
                              exponents_up_to, independence_rank,
                              is_generating, monomial_text, monomial_texts,
                              principal_coefficient, principal_series,
                              rank_complex, twist_rank)
from mellinsys.weyl import mellin_system
from weyl_oracle import apply


def binomial_half(k: int) -> Fraction:
    """C(1/2, k) with exact rationals."""
    num = Fraction(1)
    for i in range(k):
        num *= Fraction(1, 2) - i
    for i in range(2, k + 1):
        num /= i
    return num


def sqrt_x2_plus_4(order: int) -> RingSeries:
    """sqrt(x^2 + 4) = 2 * sum_k C(1/2,k) (x^2/4)^k, exact."""
    terms = {}
    for k in range(order // 2 + 1):
        c = 2 * binomial_half(k) * Fraction(1, 4) ** k
        if c:
            terms[(2 * k,)] = c
    return RingSeries(RATIONAL, 1, order, terms)


def quadratic_principal_root(order: int) -> RingSeries:
    minus_x = RingSeries(RATIONAL, 1, order, {(1,): Fraction(-1)})
    return (minus_x + sqrt_x2_plus_4(order)).scale_rational(Fraction(1, 2))


# ---------------------------------------------------------------------------
# principal series
# ---------------------------------------------------------------------------

def test_principal_series_quadratic_against_oracle():
    got = principal_series(make_profile(2, [1]), 10)
    want = quadratic_principal_root(10)
    assert got.terms == want.terms
    # frozen leading values from the oracle
    assert got.coefficient((0,)) == 1
    assert got.coefficient((1,)) == Fraction(-1, 2)
    assert got.coefficient((2,)) == Fraction(1, 8)
    assert got.coefficient((3,)) == 0
    assert got.coefficient((4,)) == Fraction(-1, 128)


@pytest.mark.parametrize("p", profile_suite(7, 3, d_one_only=False),
                         ids=lambda p: "-".join(map(str, (p.m, *p.m_list))))
def test_principal_series_is_the_coefficient_formula_term_by_term(p):
    """The running Pochhammer walk gives principal_coefficient at every
    nonzero exponent, in the lexicographic order of exponents_up_to."""
    for order in (0, 1, max(12, p.n * (p.m - 1))):
        want = {}
        for nu in exponents_up_to(p.n, order):
            c = principal_coefficient(p, nu)
            if c:
                want[nu] = c
        got = principal_series(p, order).terms
        assert list(got.items()) == list(want.items())


def test_principal_constant_term_always_one():
    for (m, ms) in [(2, [1]), (3, [2, 1]), (6, [4, 2]), (5, [3])]:
        p = make_profile(m, ms)
        assert principal_coefficient(p, (0,) * p.n) == 1


def test_principal_linear_coefficients_general_cubic():
    p = make_profile(3, [2, 1])
    assert principal_coefficient(p, (1, 0)) == Fraction(-1, 3)
    assert principal_coefficient(p, (0, 1)) == Fraction(-1, 3)


# ---------------------------------------------------------------------------
# the convenient basis
# ---------------------------------------------------------------------------

def test_basis_series_quadratic():
    p = make_profile(2, [1])
    f1 = convenient_basis_series(p, (1,), 8)
    assert f1.terms == {(1,): Fraction(1)}  # the rational solution x
    f0 = convenient_basis_series(p, (0,), 8)
    # proportional to sqrt(x^2+4): normalized constant term is 1
    want = sqrt_x2_plus_4(8).scale_rational(Fraction(1, 2))
    assert f0.terms == want.terms


def _binomial_frac(alpha: Fraction, k: int) -> Fraction:
    num = Fraction(1)
    for i in range(k):
        num *= alpha - i
    for i in range(2, k + 1):
        num /= i
    return num


def _rational_power(series: RingSeries, alpha: Fraction) -> RingSeries:
    """(c0 + u)^alpha for exact series with c0 a perfect power base of 1.

    Requires constant term exactly 1; expands by the binomial series."""
    assert series.coefficient((0,) * series.n_vars) == 1
    u = series + RingSeries.constant(RATIONAL, series.n_vars,
                                     series.order, Fraction(-1))
    out = RingSeries.constant(RATIONAL, series.n_vars, series.order,
                              Fraction(1))
    power = RingSeries.constant(RATIONAL, series.n_vars, series.order,
                                Fraction(1))
    for k in range(1, series.order + 1):
        power = naive_product(power, u)
        if power.is_zero():
            break
        out = out + power.scale_rational(_binomial_frac(alpha, k))
    return out


def test_basis_series_depressed_cubic_against_radical_oracle():
    """For y^3 + x y - 1 = 0 the two algebraic directions have the closed
    forms z1 = (108 + 12*sqrt(12x^3 + 81))^(1/3) and z2 = x / z1; the
    closed-form series must match their exact binomial expansions
    after normalizing the leading coefficient to 1.
    """
    order = 12
    x3 = RingSeries(RATIONAL, 1, order, {(3,): Fraction(12, 81),
                                         (0,): Fraction(1)})
    sqrt_part = _rational_power(x3, Fraction(1, 2)).scale_rational(9)
    inner = (RingSeries.constant(RATIONAL, 1, order, Fraction(108))
             + sqrt_part.scale_rational(12)).scale_rational(Fraction(1, 216))
    z1_over_6 = _rational_power(inner, Fraction(1, 3))
    p = make_profile(3, [1])
    f0 = convenient_basis_series(p, (0,), order)
    assert f0.terms == z1_over_6.terms
    assert f0.coefficient((3,)) == Fraction(1, 81)
    assert f0.coefficient((6,)) == Fraction(-4, 6561)
    # z2 = x / z1, normalized so the x-coefficient is 1
    x_series = RingSeries(RATIONAL, 1, order, {(1,): Fraction(1)})
    z2_norm = naive_product(x_series, inverse(z1_over_6))
    f1 = convenient_basis_series(p, (1,), order)
    assert f1.terms == z2_norm.terms
    assert f1.coefficient((4,)) == Fraction(-1, 81)


def test_basis_series_initial_monomial_only_at_low_order():
    p = make_profile(3, [2, 1])
    for idx in [(2, 2), (1, 0), (0, 0)]:
        f = convenient_basis_series(p, idx, sum(idx))
        assert f.terms == {idx: Fraction(1)}


def test_basis_series_support_lattice():
    p = make_profile(3, [2, 1])
    for idx in index_box(p):
        f = convenient_basis_series(p, idx, 12)
        assert f.coefficient(idx) == 1
        for s in f.terms:
            assert all((si - ii) % 3 == 0 and si >= ii
                       for si, ii in zip(s, idx))


def test_basis_series_rejects_outside_box():
    p = make_profile(3, [2, 1])
    with pytest.raises(Exception):
        convenient_basis_series(p, (3, 0), 8)


@pytest.mark.parametrize("m,ms", [(2, [1]), (3, [1]), (3, [2]), (4, [2]),
                                  (3, [2, 1])])
def test_basis_series_annihilated_exactly(m, ms):
    p = make_profile(m, ms)
    ops = mellin_system(p)
    for idx in index_box(p):
        f = convenient_basis_series(p, idx, 10)
        for op in ops:
            assert op.apply(f).is_zero()


def test_rotations_annihilated_exactly_in_group_ring():
    # rotated principal roots are solutions; over Q[Z/m] the operators
    # kill them identically, with no numerics anywhere
    p = make_profile(3, [2, 1])
    ops = mellin_system(p)
    y = principal_series(p, 9)
    for idx in [(1, 0), (2, 2), (1, 2)]:
        r = rotate(y, idx, 3)
        for op in ops:
            assert apply(op, r).is_zero()


def test_basis_recurrence_path_independent():
    """The recurrence filled along first-nonzero and along last-nonzero
    predecessors gives the closed form at every coefficient."""
    for m, ms, order in [(3, [2, 1], 12), (4, [3, 1], 14), (6, [4, 2], 20),
                         (4, [3, 2, 1], 10)]:
        p = make_profile(m, ms)
        for idx in index_box(p):
            if sum(idx) > order:
                continue
            closed = convenient_basis_series(p, idx, order)
            for last in (False, True):
                walk = basis_by_recurrence(p, idx, order, last=last)
                assert walk.terms == closed.terms


@st.composite
def basis_cases(draw):
    """A random valid profile with m <= 7, n <= 3, an index I in B and an
    order from max(|I|, m), which the operators need, up to 12."""
    m = draw(st.integers(2, 7))
    n = draw(st.integers(1, min(3, m - 1)))
    ms = sorted(draw(st.sets(st.integers(1, m - 1), min_size=n, max_size=n)),
                reverse=True)
    idx = tuple(draw(st.lists(st.integers(0, m - 1), min_size=n,
                              max_size=n)))
    assume(sum(idx) <= 12)
    return make_profile(m, ms), idx, draw(st.integers(max(sum(idx), m), 12))


@settings(deadline=None, max_examples=150)
@given(basis_cases())
def test_closed_form_basis_over_the_profile_space(case):
    p, idx, order = case
    f = convenient_basis_series(p, idx, order)
    assert f.coefficient(idx) == 1
    for last in (False, True):
        assert basis_by_recurrence(p, idx, order, last=last).terms == f.terms
    assert all(op.apply(f).is_zero() for op in mellin_system(p))
    ypr = principal_series(p, order)
    if ypr.coefficient(idx):
        c0 = ypr.coefficient(idx)
        assert f.terms == {s: c / c0
                           for s, c in subseries(ypr, idx, p.m).terms.items()}


@settings(deadline=None, max_examples=150)
@given(basis_cases())
def test_closed_vanishing_test_matches_the_coefficient(case):
    p = case[0]
    for nu in index_box(p):
        assert (principal_coefficient_vanishes(p, nu)
                == (principal_coefficient(p, nu) == 0))


# ---------------------------------------------------------------------------
# rotations and scaled roots
# ---------------------------------------------------------------------------

def test_rotate_by_zero_is_identity():
    p = make_profile(3, [2, 1])
    y = principal_series(p, 6)
    r = rotate(y, (0, 0), 3)
    ring = get_cyclotomic_ring(3)
    assert r.terms == {s: ring.scale_rational(ring.one, c)
                       for s, c in y.terms.items()}


def test_rotate_sign_flip():
    # m = 2: rotating 1 - x/2 by (1) flips odd-degree signs
    y = principal_series(make_profile(2, [1]), 1)
    r = rotate(y, (1,), 2)
    ring = get_cyclotomic_ring(2)
    assert r.coefficient((0,)) == ring.one
    # -1/2 * e^1
    assert r.coefficient((1,)) == ring.scale_rational(ring.root(1), Fraction(-1, 2))


def test_rotate_pure_subseries_scales():
    p = make_profile(3, [2, 1])
    y = principal_series(p, 9)
    ring = get_cyclotomic_ring(3)
    for big_i in [(1, 0), (2, 2), (1, 2)]:
        for j_idx in [(0, 1), (1, 1), (2, 0)]:
            f = rotate(subseries(y, j_idx, 3), (0, 0), 3)
            lhs = rotate(f, big_i)
            phase = sum(a * b for a, b in zip(big_i, j_idx))
            rhs = f.scale(ring.root(phase))
            assert lhs.terms == rhs.terms


def test_scaled_root_series_branch_zero_is_principal():
    p = make_profile(3, [2, 1])
    y = scaled_root_series(p, 0, 6)
    ring = y.ring
    want = principal_series(p, 6)
    assert y.terms == {s: ring.scale_rational(ring.one, c)
                       for s, c in want.terms.items()}


def test_scaled_root_series_quadratic_second_branch():
    # (-x - sqrt(x^2+4))/2 = -1 - x/2 - x^2/8 + ...
    y = scaled_root_series(make_profile(2, [1]), 1, 8)
    oracle = (quadratic_principal_root(8)
              - sqrt_x2_plus_4(8)).to_complex()
    diff = y.to_complex() - oracle
    assert diff.max_abs() < 1e-14


@pytest.mark.parametrize("m,ms", [(2, [1]), (3, [2]), (3, [2, 1]), (4, [2]),
                                  (6, [4, 2])])
def test_scaled_roots_satisfy_equation_exactly(m, ms):
    # group-ring arithmetic: substitution vanishes identically
    p = make_profile(m, ms)
    order = 8
    ring = get_cyclotomic_ring(m)
    xs = [rotate(RingSeries.variable(RATIONAL, p.n, order, j),
                 (0,) * p.n, m)
          for j in range(p.n)]
    one = RingSeries.constant(ring, p.n, order, ring.one)
    for j in range(m):
        y = scaled_root_series(p, j, order)
        powers = [one]
        for _ in range(m):
            powers.append(naive_product(powers[-1], y))
        total = powers[m] - one
        for xj, mj in zip(xs, p.m_list):
            total = total + naive_product(xj, powers[mj])
        assert total.is_zero()


def rotate_by_group_ring_product(series, index, m, shift=0):
    """Oracle for `rotate`: embed each coefficient as a plain m-tuple (a
    rational q as (q, 0, ..., 0)) and multiply it by e^{shift + <I, s>}
    through the ring product."""
    ring = get_cyclotomic_ring(m)
    terms = {}
    for s, c in series.terms.items():
        if not isinstance(c, tuple):
            c = (c,) + (Fraction(0),) * (m - 1)
        phase = shift + sum(i * e for i, e in zip(index, s))
        terms[s] = ring.mul(c, ring.root(phase))
    return RingSeries(ring, series.n_vars, series.order, terms)


def scaled_root_by_rotate_then_scale(profile, j, order, twist, series):
    """Oracle: rotate by index_k = j m_k + i_k, then multiply every
    coefficient by e^j in the group ring."""
    index = tuple(j * mk + ik for mk, ik in zip(profile.m_list, twist))
    rot = rotate_by_group_ring_product(ring_series(series).truncate(order),
                                       index, profile.m)
    return rot.scale(rot.ring.root(j))


@st.composite
def rotate_cases(draw):
    """A series over Q or Q[Z/m] with n <= 3, and any index and shift,
    negative ones included."""
    m = draw(st.integers(1, 7))
    n = draw(st.integers(1, 3))
    order = draw(st.integers(0, 6))
    exps = st.tuples(*[st.integers(0, order)] * n).filter(
        lambda e: sum(e) <= order)
    value = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    if draw(st.booleans()):
        ring, coeff = RATIONAL, value
    else:
        ring = get_cyclotomic_ring(m)
        coeff = st.lists(value, min_size=m, max_size=m).map(tuple)
    terms = draw(st.dictionaries(exps, coeff, max_size=8))
    index = draw(st.tuples(*[st.integers(-20, 20)] * n))
    shift = draw(st.integers(-20, 20))
    return RingSeries(ring, n, order, terms), index, m, shift


def test_rotate_refuses_a_complex_series():
    y = ring_series(principal_series(make_profile(3, [2, 1]), 4)).to_complex()
    with pytest.raises(ValueError, match="exact series"):
        rotate(y, (1, 0), 3)
    with pytest.raises(ValueError, match="exact series"):
        scaled_root_series(make_profile(3, [2, 1]), 1, 4, series=y)


@settings(deadline=None)
@given(rotate_cases())
def test_rotate_matches_group_ring_product(case):
    series, index, m, shift = case
    got = rotate(series, index, m, shift=shift)
    want = rotate_by_group_ring_product(series, index, m, shift)
    assert (got.ring, got.order) == (want.ring, want.order)
    assert got.terms == want.terms


@st.composite
def branch_cases(draw):
    """A valid profile with m <= 7 and n <= 3, a twist in B, a truncation
    order and an input series over Q (the principal root, or a random
    series) or over Q[Z/m]."""
    m = draw(st.integers(2, 7))
    n = draw(st.integers(1, min(3, m - 1)))
    ms = sorted(draw(st.sets(st.integers(1, m - 1), min_size=n, max_size=n)),
                reverse=True)
    profile = make_profile(m, ms)
    twist = draw(st.tuples(*[st.integers(0, m - 1)] * n))
    series_order = draw(st.integers(0, 6))
    order = draw(st.integers(0, series_order))
    kind = draw(st.sampled_from(["principal", "rational", "group-ring"]))
    if kind == "principal":
        return profile, twist, order, principal_series(profile, series_order)
    exps = st.tuples(*[st.integers(0, series_order)] * n).filter(
        lambda e: sum(e) <= series_order)
    value = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    if kind == "rational":
        ring, coeff = RATIONAL, value
    else:
        ring = get_cyclotomic_ring(m)
        coeff = st.lists(value, min_size=m, max_size=m).map(tuple)
    terms = draw(st.dictionaries(exps, coeff, max_size=8))
    return profile, twist, order, RingSeries(ring, n, series_order, terms)


@settings(deadline=None)
@given(branch_cases())
def test_scaled_root_series_matches_rotate_then_scale(case):
    profile, twist, order, series = case
    for j in range(profile.m):
        got = scaled_root_series(profile, j, order, twist=twist, series=series)
        want = scaled_root_by_rotate_then_scale(profile, j, order, twist,
                                                series)
        assert (got.ring, got.order) == (want.ring, want.order)
        assert got.terms == want.terms


# ---------------------------------------------------------------------------
# subseries / generating
# ---------------------------------------------------------------------------

def test_subseries_missing_class_is_zero():
    p = make_profile(3, [2, 1])
    y = principal_series(p, 12)
    assert subseries(y, (2, 1), 3).is_zero()
    assert subseries(y, (0, 2), 3).is_zero()


def test_subseries_of_monomial():
    s = TruncatedSeries(2, 6, {(1, 2): Fraction(5)})
    assert subseries(s, (1, 2), 3).terms == s.terms


def test_subseries_partition():
    rng = random.Random(7)
    terms = {e: Fraction(rng.randint(-5, 5)) for e in exponents_up_to(2, 7)}
    y = TruncatedSeries(2, 7, terms)
    parts = [subseries(y, idx, 3).terms
             for idx in index_box(make_profile(3, [2, 1]))]
    assert sum(map(len, parts)) == len(y.terms)
    assert {s: c for part in parts for s, c in part.items()} == y.terms


def test_rational_solution_class_collapses_to_monomial():
    # for m_1 = m - 1 the e_1 congruence class of the principal root
    # carries the single term of the rational solution x_1
    p = make_profile(3, [2, 1])
    y = principal_series(p, 12)
    f = subseries(y, (1, 0), 3)
    assert list(f.terms) == [(1, 0)]


def test_is_generating():
    assert is_generating(principal_series(make_profile(6, [4, 2]), 10),
                         make_profile(6, [4, 2]))
    assert not is_generating(principal_series(make_profile(3, [2, 1]), 6),
                             make_profile(3, [2, 1]))


def test_sum_of_basis_is_generating():
    p = make_profile(3, [2, 1])
    terms = {}
    for idx in index_box(p):
        for s, c in convenient_basis_series(p, idx, 6).terms.items():
            terms[s] = terms.get(s, 0) + c
    assert is_generating(TruncatedSeries(2, 6, terms), p)


def test_is_generating_rejects_low_order():
    p = make_profile(3, [2, 1])
    with pytest.raises(ValueError):
        is_generating(principal_series(p, 3), p)


# ---------------------------------------------------------------------------
# independence ranks
# ---------------------------------------------------------------------------

def _order_floor(p):
    """The smallest order `verify` accepts: max(m + 2, n(m - 1))."""
    return max(p.m + 2, p.n * (p.m - 1))


def test_rank_of_quadratic_basis():
    p = make_profile(2, [1])
    f0, f1 = ({s: complex(c) for s, c in
               convenient_basis_series(p, idx, 8).terms.items()}
              for idx in [(0,), (1,)])
    assert independence_rank([f0, f1]) == 2
    assert independence_rank([f0, f0]) == 1
    assert independence_rank([f0, {s: 3 * c for s, c in f0.items()}]) == 1


def test_rank_of_rotations_matches_survivor_count():
    p = make_profile(4, [2])
    y = principal_series(p, 12)
    assert twist_rank(y, [(j,) for j in range(4)], 4) == 4
    p = make_profile(3, [2, 1])
    y = principal_series(p, 12)
    assert twist_rank(y, index_box(p), 3) == 7


def test_vandermonde_rotation_rank():
    # rotations of the all-ones box polynomial have full rank m^n: the
    # coefficient matrix is exactly (e^{<I,J>})_{I,J}
    from itertools import product
    for (m, n) in [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (4, 2)]:
        box = list(product(range(m), repeat=n))
        order = n * (m - 1)
        g = TruncatedSeries(n, order, {idx: Fraction(1) for idx in box})
        assert twist_rank(g, box, m) == m**n


def test_rank_cyclotomic_scalar_multiple_collapses():
    # e * s is a complex multiple of s: complex rank 1, even though the
    # group-ring coordinate vectors are linearly independent over Q
    ring = get_cyclotomic_ring(4)
    s = RingSeries(ring, 1, 3, {(0,): ring.root(0), (1,): ring.root(2)})
    t = s.scale(ring.root(1))
    assert independence_rank([s.to_complex().terms,
                              t.to_complex().terms]) == 1


def test_rank_of_four_variable_rotations():
    p = make_profile(4, [3, 2, 1])
    y = principal_series(p, 12)
    assert len(index_box(p)) == 64
    assert twist_rank(y, index_box(p), 4) == dims(p).card_Bprime == 49


def field_rank_oracle(rows, m):
    """Gauss-Jordan elimination in Q[t]/Phi_m(t) with Fraction arithmetic."""
    fld = cyclotomic_field(m)
    rows = [[fld.from_group_ring(c) for c in r] for r in rows]
    if not rows or not rows[0]:
        return 0
    rank, col, ncols = 0, 0, len(rows[0])
    while rank < len(rows) and col < ncols:
        pivot = next((r for r in range(rank, len(rows))
                      if not fld.is_zero(rows[r][col])), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = fld.inv(rows[rank][col])
        rows[rank] = [fld.mul(v, inv) for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and not fld.is_zero(rows[r][col]):
                f = rows[r][col]
                rows[r] = [fld.sub(a, fld.mul(f, b))
                           for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def coset_twist_sets(p):
    """The full box; for n = 1 every coset t0 + dZ/m of every subgroup; for
    n >= 2 one coset of the cyclic subgroup generated by (1, 2, ..., n)."""
    m, n = p.m, p.n
    yield index_box(p)
    if n == 1:
        for d in (d for d in range(1, m + 1) if m % d == 0):
            for t0 in range(d):
                yield [(t0 + j * d,) for j in range(m // d)]
        return
    g = tuple(range(1, n + 1))
    size = next(k for k in range(1, m + 1)
                if all(k * v % m == 0 for v in g))
    yield [tuple(k * v + (1 if i == 0 else 0) for i, v in enumerate(g))
           for k in range(size)]


def test_twist_rank_matches_field_elimination():
    """On every profile with m <= 7, n <= 3 and m^n <= 16 (25 of them), at
    the order floor, the class count equals Gauss-Jordan elimination in
    Q(zeta_m) on the rotated principal series."""
    profiles = [p for p in profile_suite(7, 3, d_one_only=False)
                if p.m**p.n <= 16]
    assert len(profiles) == 25
    for p in profiles:
        y = principal_series(p, _order_floor(p))
        cols = sorted(y.terms)
        for twists in coset_twist_sets(p):
            rows = [[r.coefficient(s) for s in cols]
                    for r in (rotate(y, t, p.m) for t in twists)]
            assert twist_rank(y, twists, p.m) == field_rank_oracle(rows, p.m)
        if p.m > 2:
            e1 = (1,) + (0,) * (p.n - 1)
            with pytest.raises(ValueError, match="not a coset"):
                twist_rank(y, [(0,) * p.n, e1], p.m)


def _closed_by_pairs(group, m):
    """The pairwise-closure subgroup test: nonempty and closed under +."""
    return bool(group) and all(
        tuple((a + b) % m for a, b in zip(g, h)) in group
        for g in group for h in group)


def _span_by_pairs(gens, m, n):
    """The subgroup of (Z/m)^n generated by ``gens``, by pairwise closure."""
    span = {(0,) * n, *gens}
    while not _closed_by_pairs(span, m):
        span |= {tuple((a + b) % m for a, b in zip(g, h))
                 for g in span for h in span}
    return span


@st.composite
def twist_lists(draw):
    """(m, n, twists) in (Z/m)^n, m <= 6, n <= 3: a shuffled coset of the
    subgroup that up to three random vectors span, or a random list; both
    with up to three repeated entries."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(0, m - 1)] * n)
    if draw(st.booleans()):
        t0, span = draw(vec), _span_by_pairs(draw(st.lists(vec, max_size=3)),
                                             m, n)
        twists = draw(st.permutations(
            [tuple((a + b) % m for a, b in zip(t0, h)) for h in sorted(span)]))
    else:
        twists = draw(st.lists(vec, min_size=1, max_size=12))
    return m, n, twists + draw(st.lists(st.sampled_from(twists), max_size=3))


@settings(derandomize=True, deadline=None)
@given(twist_lists())
def test_subgroup_test_matches_pairwise_closure(case):
    """The span growth of ``twist_rank`` accepts exactly the twist lists
    whose translates pairwise closure accepts.  A coset gets the number of
    distinct characters of H on the classes of the series as its rank; any
    other list raises the ValueError that names (Z/m)^n."""
    m, n, twists = case
    group = {tuple((a - b) % m for a, b in zip(t, twists[0])) for t in twists}
    closed = _closed_by_pairs(group, m)
    assert series._is_subgroup(group, m) == closed
    f = TruncatedSeries(n, m, {s: Fraction(1, 1 + sum(s))
                               for s in exponents_up_to(n, m)})
    if closed:
        characters = {tuple(sum(a * b for a, b in zip(h, s)) % m
                            for h in sorted(group)) for s in f.terms}
        assert twist_rank(f, twists, m) == len(characters)
    else:
        message = f"the twists are not a coset of a subgroup of (Z/{m})^{n}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            twist_rank(f, twists, m)


def test_principal_support_is_the_algebraic_index_set():
    """Over all 91 profiles with m <= 7, n <= 3, at the order floor, the
    nonzero residue classes of y_pr are exactly B'."""
    profiles = profile_suite(7, 3, d_one_only=False)
    assert len(profiles) == 91
    for p in profiles:
        y = principal_series(p, _order_floor(p))
        classes = {tuple(v % p.m for v in s) for s in y.terms}
        assert classes == set(algebraic_index_set(p))


def test_dropping_one_class_lowers_the_twist_rank_by_one():
    p = make_profile(5, [4, 3, 2])
    y = principal_series(p, 12)
    box = index_box(p)
    assert twist_rank(y, box, 5) == dims(p).card_Bprime == 101
    dropped = TruncatedSeries(3, 12, {
        s: c for s, c in y.terms.items() if any(v % 5 for v in s)})
    assert twist_rank(dropped, box, 5) == 100


def test_rank_of_empty_and_zero_matrices():
    assert rank_complex([]) == 0
    assert rank_complex([[]]) == 0
    assert rank_complex([[0, 0], [0, 0]]) == 0
    assert independence_rank([]) == 0
    zero = TruncatedSeries(2, 4, {})
    assert twist_rank(zero, [(0, 0), (1, 1)], 2) == 0
    with pytest.raises(ValueError, match="not a coset"):
        twist_rank(zero, [], 2)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def test_log_mercator():
    one_plus_x = RingSeries(RATIONAL, 1, 3,
                            {(0,): Fraction(1), (1,): Fraction(1)})
    got = log(one_plus_x)
    assert got.terms == {(1,): Fraction(1), (2,): Fraction(-1, 2),
                         (3,): Fraction(1, 3)}


def test_log_requires_unit_constant():
    s = RingSeries(RATIONAL, 1, 3, {(1,): Fraction(1)})
    with pytest.raises(ZeroDivisionError):
        log(s)
    two = RingSeries(RATIONAL, 1, 3, {(0,): Fraction(2)})
    with pytest.raises(ValueError):
        log(two)


def log_oracle(f):
    """log(1 + h) = sum_k (-1)^(k+1) h^k / k, one product per power of h."""
    one = RingSeries.constant(f.ring, f.n_vars, f.order, f.ring.one)
    h = f - one
    acc = RingSeries.zero(f.ring, f.n_vars, f.order)
    power = one
    for k in range(1, f.order + 1):
        power = naive_product(power, h)
        if power.is_zero():
            break
        acc = acc + power.scale_rational(Fraction((-1) ** (k + 1), k))
    return acc


@st.composite
def unit_constant_series(draw):
    """Rational series with constant term 1, n <= 3 and order <= 8."""
    n, order = draw(st.integers(1, 3)), draw(st.integers(0, 8))
    exps = st.tuples(*[st.integers(0, order)] * n).filter(
        lambda e: 0 < sum(e) <= order)
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=5)
    terms = draw(st.dictionaries(exps, coeffs, max_size=5))
    terms[(0,) * n] = Fraction(1)
    return RingSeries(RATIONAL, n, order, terms)


@settings(deadline=None)
@given(unit_constant_series())
def test_log_matches_power_series_oracle(f):
    got, want = log(f), log_oracle(f)
    assert got.order == want.order
    assert got.terms == want.terms


def test_group_ring_log_and_inverse_commute_with_rotation():
    # rotation is a ring homomorphism, so it carries log and inverse along
    p = make_profile(3, [2, 1])
    y = principal_series(p, 6)
    for idx in [(1, 0), (2, 1)]:
        rot = rotate(y, idx, 3)
        assert log(rot).terms == rotate(log(y), idx, 3).terms
        assert inverse(rot).terms == rotate(inverse(y), idx, 3).terms
    branch = scaled_root_series(p, 2, 6)  # constant term e^2
    one = RingSeries.constant(branch.ring, 2, 6, branch.ring.one)
    assert naive_product(branch, inverse(branch)).terms == one.terms
    with pytest.raises(ValueError):
        log(branch)


def test_mul_truncates_to_min_order():
    a = RingSeries(RATIONAL, 1, 2, {(0,): Fraction(1), (1,): Fraction(-1, 2)})
    b = RingSeries(RATIONAL, 1, 2, {(0,): Fraction(1), (1,): Fraction(1, 2)})
    prod = naive_product(a, b)
    assert prod.order == 2
    assert prod.terms == {(0,): Fraction(1), (2,): Fraction(-1, 4)}


def test_inverse_geometric():
    s = RingSeries(RATIONAL, 1, 5, {(0,): Fraction(1), (1,): Fraction(-1)})
    inv = inverse(s)
    assert inv.terms == {(k,): Fraction(1) for k in range(6)}
    assert naive_product(s, inv).terms == {(0,): Fraction(1)}


def test_complex_series_keeps_small_terms():
    s = RingSeries(COMPLEX, 1, 3, {(0,): 1.0, (1,): 1e-14, (2,): 0j})
    assert s.terms == {(0,): 1.0, (1,): 1e-14}
    assert (s - RingSeries.constant(COMPLEX, 1, 3, 1.0)).max_abs() == 1e-14


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_series_json_and_text_are_deterministic():
    p = make_profile(3, [2, 1])
    y = principal_series(p, 4)
    j1, j2 = series_to_json(y), series_to_json(y)
    assert j1 == j2
    assert j1["ring"] == "rational"
    assert j1["terms"][0] == {"exp": [0, 0], "coeff": "1"}
    assert series_text(y) == series_text(principal_series(p, 4))
    cy = series_to_json(rotate(y, (0, 0), 3))
    assert cy["m"] == 3
    assert cy["terms"][0]["coeff"] == ["1", "0", "0"]


_SORT_PROFILES = {1: make_profile(3, [1]), 2: make_profile(3, [2, 1]),
                  3: make_profile(4, [3, 2, 1])}


@st.composite
def shuffled_series(draw):
    """A rational series over 1-3 variables whose terms are inserted in a
    drawn order, and optionally the image of a Mellin operator's ``apply``
    on it, whose terms come out grouped by shift."""
    n, order = draw(st.integers(1, 3)), draw(st.integers(4, 14))
    exps = draw(st.lists(st.lists(st.integers(0, order), min_size=n,
                                  max_size=n).map(tuple),
                         unique=True, max_size=40))
    coeffs = draw(st.lists(st.fractions(max_denominator=9).filter(bool),
                           min_size=len(exps), max_size=len(exps)))
    f = TruncatedSeries(n, order, dict(zip(exps, coeffs)))
    if draw(st.booleans()):
        f = mellin_system(_SORT_PROFILES[n])[0].apply(f)
    return f


@settings(deadline=None, max_examples=150)
@given(shuffled_series())
def test_sorted_items_is_the_degree_then_lex_sort(f):
    assert f.sorted_items() == sorted(f.terms.items(),
                                      key=lambda kv: (sum(kv[0]), kv[0]))


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, 14), min_size=n, max_size=n).map(tuple),
    max_size=8)))
def test_monomial_texts_match_the_oracle_writer(exps):
    names = ["x1", "x2", "x3"]
    assert monomial_texts(exps, names) == [monomial(s, names) for s in exps]
    assert [monomial_text(s, names) for s in exps] == monomial_texts(exps,
                                                                     names)
