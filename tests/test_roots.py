"""Numeric branches, logarithmic solutions, and rank witnesses."""

import cmath
import contextlib
import dataclasses
import io
import json
import math
import random
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mellinsys import cli, roots, series
from mellinsys.profiles import (coset_representatives, index_box,
                                make_profile, relation_basis)
from mellinsys.cli import main
from mellinsys.roots import (EquationInstance, RootFindingError,
                             coset_equation_jets, invariant_subspace_witness,
                             log_residual, log_solution,
                             origin_instance, relation_check, root_sum,
                             roots_at_point)
from mellinsys.weyl import DiffOperator
from mellinsys.series import (TruncatedSeries, exponents_up_to,
                              independence_rank, principal_series, twist_rank)
from mellinsys.profiles import ProfileError
import branch_oracle
from branch_oracle import (SUBSTITUTION_TOL, elementary_symmetric,
                           equation_record_by_branches, lift_jets,
                           lift_jets_by_series, lift_jets_full_order,
                           log_parts_by_branches, log_parts_from_weights,
                           mellin_residual, nonvanishing,
                           poly_and_derivative, root_sum_by_branches,
                           scaled_root_deviation_by_series,
                           scaled_root_max_deviation,
                           substitution_residual_by_products)
from profile_oracle import profile_suite
from ring_oracle import (COMPLEX, RingSeries, get_cyclotomic_ring,
                         scaled_root_series)
from series_oracle import log, naive_product

F = Fraction

# relative residual allowed for double-precision series under the operators
ANNIHILATION_TOL = 1e-8


def _complex_series(p, order, terms):
    """A complex map of the library as a series for the oracles."""
    return RingSeries(COMPLEX, p.n, order, terms)


def _bumped(y, nu):
    """The rational series y with 1/7 added at the exponent nu."""
    terms = dict(y.terms)
    terms[nu] = terms.get(nu, 0) + F(1, 7)
    return TruncatedSeries(y.n_vars, y.order, terms)


# ---------------------------------------------------------------------------
# scalar roots
# ---------------------------------------------------------------------------

def test_roots_at_origin_quadratic():
    vals = roots_at_point(origin_instance(make_profile(2, [1])))
    assert sorted(round(v.real, 9) for v in vals) == [-1.0, 1.0]
    assert all(abs(v.imag) < 1e-12 for v in vals)


def test_roots_at_origin_cube_roots_of_unity():
    vals = roots_at_point(origin_instance(make_profile(3, [2, 1])))
    expect = [cmath.exp(2j * cmath.pi * k / 3) for k in range(3)]
    for w in expect:
        assert min(abs(v - w) for v in vals) < 1e-12


def test_roots_depressed_cubic_at_one():
    inst = EquationInstance(make_profile(3, [1]), (0,), (1.0,))
    vals = roots_at_point(inst)
    assert abs(sum(vals)) < 1e-12  # no y^2 term
    for v in vals:
        assert abs(v**3 + v - 1) < 1e-12


def test_roots_detect_discriminant_collision():
    # y^2 + x y - 1 has discriminant x^2 + 4 = 0 at x = 2i
    inst = EquationInstance(make_profile(2, [1]), (0,), (2j,))
    with pytest.raises(RootFindingError):
        roots_at_point(inst)


def test_roots_deterministic_for_fixed_seed():
    inst = EquationInstance(make_profile(4, [2]), (0,), (0.3 + 0.1j,))
    assert roots_at_point(inst, seed=5) == roots_at_point(inst, seed=5)


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------

def test_jet_branch_zero_quadratic():
    jets = lift_jets(origin_instance(make_profile(2, [1])), 8)
    s = jets[0]
    for exp, want in [((0,), 1), ((1,), -0.5), ((2,), 0.125),
                      ((4,), -1 / 128), ((6,), 1 / 1024)]:
        assert abs(s.coefficient(exp) - want) < 1e-13
    assert abs(jets[1].coefficient((0,)) + 1) < 1e-13


def test_jet_constants_are_roots_of_unity():
    p = make_profile(6, [4, 2])
    jets = lift_jets(origin_instance(p), 4)
    for b, jet in enumerate(jets):
        assert abs(jet.coefficient((0, 0)) - cmath.exp(2j * cmath.pi * b / 6)) < 1e-12


def test_jets_require_origin():
    inst = EquationInstance(make_profile(2, [1]), (0,), (0.1,))
    with pytest.raises(ProfileError):
        lift_jets(inst, 4)


@pytest.mark.parametrize("m,ms", [(2, [1]), (3, [1]), (3, [2, 1]), (6, [4, 2])])
def test_jet_sum_is_minus_subleading_coefficient(m, ms):
    p = make_profile(m, ms)
    for rep in [(0,) * p.n, (1,) + (0,) * (p.n - 1)]:
        jets = lift_jets(origin_instance(p, rep), 8)
        total = sum(jets[1:], jets[0])
        if p.m_list[0] == m - 1:
            eps = cmath.exp(2j * cmath.pi / m)
            x1 = RingSeries.variable(COMPLEX, p.n, 8, 0)
            gap = (total + x1.scale(eps ** rep[0])).max_abs()
        else:
            gap = total.max_abs()
        assert gap < SUBSTITUTION_TOL


@pytest.mark.parametrize("m,ms", [(2, [1]), (3, [2]), (4, [2]), (3, [2, 1])])
def test_full_vieta_at_series_level(m, ms):
    p = make_profile(m, ms)
    jets = lift_jets(origin_instance(p), 6)
    elems = elementary_symmetric(jets, 6)
    coeffs = {mj: RingSeries.variable(COMPLEX, p.n, 6, j)
              for j, mj in enumerate(p.m_list)}
    for k in range(1, m + 1):
        want = coeffs.get(m - k, RingSeries.zero(COMPLEX, p.n, 6))
        if k == m:
            want = want - RingSeries.constant(COMPLEX, p.n, 6, 1.0)
        gap = (elems[k - 1] - want.scale_rational((-1) ** k)).max_abs()
        assert gap < SUBSTITUTION_TOL


def test_general_cubic_root_combinations_match_closed_forms():
    """Combinations of the three origin jets reproduce the classical
    Cardano-component expansions of y^3 + x1 y^2 + x2 y - 1 = 0:

        u2 = 6 + 2/3 x1 x2 - 4/27 x1^3 + 2/27 x2^3 - 4/27 x1^2 x2^2 + ...
        u3 = 1/2 x2 - 1/6 x1^2 - 1/18 x1 x2^2 + ...

    The combination coefficients are fixed by the constant and linear
    terms; the higher displayed coefficients are then forced.
    """
    p = make_profile(3, [2, 1])
    jets = lift_jets(origin_instance(p), 6)
    cols = [(0, 0), (1, 0), (0, 1)]
    mat = np.array([[jet.coefficient(e) for jet in jets] for e in cols])

    def combine(target_low):
        c = np.linalg.solve(mat, np.array(target_low, dtype=complex))
        total = RingSeries.zero(COMPLEX, 2, 6)
        for ck, jet in zip(c, jets):
            total = total + jet.scale(complex(ck))
        return total

    u3 = combine([0.0, 0.0, 0.5])
    assert abs(u3.coefficient((2, 0)) - (-1 / 6)) < 1e-9
    assert abs(u3.coefficient((1, 2)) - (-1 / 18)) < 1e-9

    u2 = combine([6.0, 0.0, 0.0])
    assert abs(u2.coefficient((1, 1)) - 2 / 3) < 1e-9
    assert abs(u2.coefficient((3, 0)) - (-4 / 27)) < 1e-9
    assert abs(u2.coefficient((0, 3)) - 2 / 27) < 1e-9
    assert abs(u2.coefficient((2, 2)) - (-4 / 27)) < 1e-9


@pytest.mark.parametrize("m,ms", [(2, [1]), (3, [1]), (3, [2]), (4, [2]),
                                  (6, [2]), (6, [3]), (3, [2, 1]),
                                  (6, [4, 2])])
def test_scaled_root_identity(m, ms):
    p = make_profile(m, ms)
    assert scaled_root_max_deviation(p, 8) < SUBSTITUTION_TOL


@pytest.mark.parametrize("m,ms", [(4, [2]), (6, [4]), (3, [2, 1])])
def test_lift_reaches_the_order_in_ceil_log2_updates(monkeypatch, m, ms):
    """From the exact root each Newton update doubles the correct degrees:
    ceil(log2(order + 1)) updates, update k at order min(2^{k+1} - 1,
    order), and one final residual at the full order, each one evaluation
    for all m branches, reach the closed-form branches at every order."""
    orders = {1: [1, 1], 2: [1, 2, 2], 3: [1, 3, 3], 4: [1, 3, 4, 4],
              7: [1, 3, 7, 7], 8: [1, 3, 7, 8, 8], 12: [1, 3, 7, 12, 12]}
    real = branch_oracle._dense_p_and_dp
    seen, rows = [], set()

    def spy(y, order, *rest):
        seen.append(order)
        rows.add(y.shape[0])
        return real(y, order, *rest)
    monkeypatch.setattr(branch_oracle, "_dense_p_and_dp", spy)
    p = make_profile(m, ms)
    for order, updates in orders.items():
        seen.clear()
        assert scaled_root_max_deviation(p, order) < SUBSTITUTION_TOL
        assert seen == updates
    assert rows == {m}


def test_lift_refuses_a_table_above_the_bound():
    """n = 4 at order 64 needs about 1.2e10 pairs: refused before the pair
    table is built, while the largest lift of the tests (m = 9, n = 3,
    order 12) is admitted."""
    built = branch_oracle._lift_table.cache_info()
    with pytest.raises(ValueError, match="MAX_LIFT_VALUES"):
        lift_jets(origin_instance(make_profile(5, [4, 3, 2, 1])), 64)
    assert branch_oracle._lift_table.cache_info() == built
    assert len(lift_jets(origin_instance(make_profile(9, [8, 7, 6])), 12)) == 9


LIFT_PROFILES = profile_suite(7, 2, d_one_only=False)


@settings(deadline=None, max_examples=15, derandomize=True)
@given(st.sampled_from(LIFT_PROFILES), st.integers(1, 12), st.integers(0, 99))
def test_precision_doubling_lift_matches_the_full_order_lift(p, order, pick):
    """Every jet of the doubling lift is within 1e-13 of the lift that runs
    each update at the full order, untwisted or on a coset equation."""
    reps = coset_representatives(p)
    inst = origin_instance(p, reps[pick % len(reps)])
    for jet, want in zip(lift_jets(inst, order),
                         lift_jets_full_order(inst, order), strict=True):
        assert jet.order == want.order == order
        assert (jet - want).max_abs() < 1e-13


DENSE_LIFT_PROFILES = profile_suite(7, 3, d_one_only=False)


@settings(deadline=None, max_examples=15, derandomize=True)
@given(st.sampled_from(DENSE_LIFT_PROFILES), st.integers(1, 12),
       st.integers(0, 99))
def test_dense_lift_matches_the_lift_by_series(p, order, pick):
    """Every term of every branch of the batched dense lift is within
    1e-13 of the per-branch sparse-series lift, on a coset equation."""
    reps = coset_representatives(p)
    inst = origin_instance(p, reps[pick % len(reps)])
    for jet, want in zip(lift_jets(inst, order),
                         lift_jets_by_series(inst, order), strict=True):
        assert jet.order == want.order == order
        assert (jet - want).max_abs() < 1e-13


@settings(deadline=None, max_examples=20, derandomize=True)
@given(st.sampled_from(DENSE_LIFT_PROFILES), st.integers(1, 12))
def test_scaled_root_gap_equals_the_sparse_series_route(p, order):
    """The gap read off the columns of the dense lift is the gap of the
    jet series minus the rotated complex y_pr, to the last bit."""
    assert (scaled_root_max_deviation(p, order)
            == scaled_root_deviation_by_series(p, order))


@pytest.mark.parametrize("p", profile_suite(9, 1, d_one_only=False),
                         ids=lambda p: f"{p.m}-{p.m_list[0]}")
def test_scaled_root_gap_of_the_univariate_sweep(p):
    """The 36 univariate profiles at order 8, as ``verify`` runs them."""
    gap = scaled_root_max_deviation(p, 8)
    assert gap == scaled_root_deviation_by_series(p, 8) < SUBSTITUTION_TOL


# ---------------------------------------------------------------------------
# the branches at a point
# ---------------------------------------------------------------------------

def _base(p):
    """The base point of ``verify``'s point-roots and point-branches."""
    return tuple(0.2 * cmath.exp(0.7j * (j + 1)) for j in range(p.n))


POINT_CASES = ([(p, 12) for p in profile_suite(9, 1, d_one_only=False)]
               + [(make_profile(3, [2, 1]), 12), (make_profile(4, [2, 1]), 6),
                  (make_profile(6, [4, 2]), 12),
                  (make_profile(4, [3, 2, 1]), 12),
                  (make_profile(5, [4, 3, 2]), 12),
                  (make_profile(6, [5, 3, 1]), 15),
                  (make_profile(7, [5, 3, 1]), 18),
                  (make_profile(6, [5, 3, 2, 1]), 20)]
               + [(make_profile(m, [k]), m + 2)
                  for m, k in ((31, 1), (31, 16), (62, 61), (62, 31))])


@pytest.mark.parametrize(
    "p,order", POINT_CASES,
    ids=[f"{p.m}-{'-'.join(map(str, p.m_list))}-order-{o}"
         for p, o in POINT_CASES])
def test_point_branches_match_the_aberth_roots(p, order):
    """Every rotation of y_pr at the base point is within tol of its own
    Aberth root, for seeds 0 and 12345: within 0.2 tol, where tol is 1e-12
    plus the size of the terms of the highest degree that y_pr has."""
    ypr, x = principal_series(p, order), _base(p)
    top = max(map(sum, ypr.terms))
    want = roots.POINT_TOL + sum(
        abs(complex(c) * math.prod(v**k for v, k in zip(x, s)))
        for s, c in ypr.terms.items() if sum(s) == top)
    for seed in (0, 12345):
        vals = roots_at_point(EquationInstance(p, (0,) * p.n, x), seed=seed)
        gap, tol = roots.point_branch_gap(p, order, x, vals)
        assert gap <= 0.2 * tol
        assert tol == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("m,ms,order,top", [(3, [1], 5, 4), (3, [1], 8, 7),
                                            (6, [1], 5, 4), (3, [2, 1], 4, 4)])
def test_point_tolerance_reads_the_top_degree_that_y_pr_has(m, ms, order,
                                                            top):
    """(3;1) has no term of degree 2, 5, 8, ... and (6;1) none of degree
    5: at such an order the tol reads the degree below, and the branches
    still match the roots."""
    p = make_profile(m, ms)
    x = _base(p)
    assert max(map(sum, principal_series(p, order).terms)) == top
    vals = roots_at_point(EquationInstance(p, (0,) * p.n, x))
    gap, tol = roots.point_branch_gap(p, order, x, vals)
    assert gap <= tol
    assert tol > roots.POINT_TOL + 1e-9


@pytest.mark.parametrize("m,ms,order", [(3, [2, 1], 8), (5, [2], 12),
                                        (6, [4, 2], 10), (4, [3, 2, 1], 6)])
def test_branches_at_point_are_the_embedded_rotations(m, ms, order):
    """Branch b at the point is the sum of the embedded Q[Z/m] branch b of
    the ring oracle, monomial by monomial, up to rounding."""
    p = make_profile(m, ms)
    x = _base(p)
    branches, _ = roots.branches_at_point(p, order, x)
    for b, value in enumerate(branches):
        jet = scaled_root_series(p, b, order).to_complex()
        want = sum(c * math.prod(v**k for v, k in zip(x, s))
                   for s, c in jet.terms.items())
        assert abs(value - want) < 1e-14


def test_point_branch_gap_needs_a_one_to_one_match():
    """Two branches nearest one root make the gap inf; a root moved by
    1e-6 makes a finite gap above tol."""
    p = make_profile(3, [2, 1])
    vals = roots_at_point(EquationInstance(p, (0, 0), _base(p)))
    gap, tol = roots.point_branch_gap(p, 12, _base(p), vals)
    assert gap <= tol
    assert roots.point_branch_gap(p, 12, _base(p),
                                  [vals[0], vals[0], vals[2]])[0] == math.inf
    moved = roots.point_branch_gap(p, 12, _base(p),
                                   [vals[0] + 1e-6, *vals[1:]])[0]
    assert tol < moved < math.inf


def test_substitution_pair_table_layout():
    """Column s lists the a <= s in lexicographic order, so its run
    reversed lists s - a, 2 bytes a pair."""
    exps, index, counts, left = roots._pair_table(2, 4)
    assert exps == tuple(exponents_up_to(2, 4))
    assert index == {s: k for k, s in enumerate(exps)}
    at = 0
    for s, count in zip(exps, counts):
        run = [exps[k] for k in left[at:at + count]]
        at += count
        assert run == sorted((a0, a1) for a0 in range(s[0] + 1)
                             for a1 in range(s[1] + 1))
        assert run[::-1] == [(s[0] - a0, s[1] - a1) for a0, a1 in run]
    assert at == len(left) and left.itemsize == 2


def test_substitution_residual_measures_a_small_perturbation():
    p = make_profile(3, [2, 1])
    inst = origin_instance(p)
    xs = [RingSeries.variable(COMPLEX, 2, 6, j) for j in range(2)]
    jet = scaled_root_series(p, 1, 6).to_complex()
    bumped = jet + RingSeries(COMPLEX, 2, 6, {(2, 1): 1e-13})
    exact = poly_and_derivative(inst, jet, xs)[0].max_abs()
    residual = poly_and_derivative(inst, bumped, xs)[0].max_abs()
    assert exact < residual
    assert residual >= 1e-14


# ---------------------------------------------------------------------------
# relations and logarithmic solutions
# ---------------------------------------------------------------------------

def test_relation_check_general_cubic():
    p = make_profile(3, [2, 1])
    assert relation_check(p, [F(1), F(-1), F(0)], 10) < 1e-10
    assert relation_check(p, [F(1), F(0), F(-1)], 10) < 1e-10
    # root sums equal -x1, so a lone coset is NOT a relation
    assert relation_check(p, [F(1), F(0), F(0)], 10) > 1e-3


@pytest.mark.parametrize("m,ms", [(3, [2, 1]), (9, [2])])
def test_relation_check_exact_zero_on_basis(m, ms):
    p = make_profile(m, ms)
    for vec in relation_basis(p):
        assert relation_check(p, vec, 12) == 0.0


@pytest.mark.parametrize("m,ms", [(3, [2, 1]), (9, [2])])
def test_log_solution_parts_annihilated_exactly(m, ms):
    p = make_profile(m, ms)
    for vec in relation_basis(p):
        sol = log_solution(p, vec, 12)
        assert all(mellin_residual(p, part) == 0
                   for part in log_parts_from_weights(p, sol.weights, 12))


ORACLE_CASES = [(3, [2, 1], 10), (5, [3, 1], 7), (4, [1], 10), (5, [4, 1], 8),
                (4, [3, 2, 1], 6)]


def _relation_vectors(p):
    """The relation basis and one combination of its first and last vector."""
    basis = relation_basis(p)
    return basis + [[2 * u - v / 3 for u, v in zip(basis[0], basis[-1])]]


@pytest.mark.parametrize("m,ms,order", ORACLE_CASES)
def test_log_solution_matches_branch_by_branch_assembly(m, ms, order):
    """The parts the weight tables build hold exactly the branch sums'
    coefficients that do not vanish in Q(zeta_m), and chi is theirs bit
    for bit."""
    p = make_profile(m, ms)
    for c in _relation_vectors(p):
        sol = log_solution(p, c, order)
        a, b = map(nonvanishing, log_parts_by_branches(p, c, order))
        parts = log_parts_from_weights(p, sol.weights, order)
        assert [(s.order, s.terms) for s in parts] == [
            (a.order, a.terms), (b.order, b.terms)]
        chi = a.to_complex() + b.to_complex().scale(2j * cmath.pi / m)
        assert (sol.order, sol.chi) == (order, chi.terms)
        assert sol.constant_offsets == tuple(
            (k, j, F(ck) * F(j, m)) for k, ck in enumerate(c) if ck
            for j in range(1, m))


def test_weights_are_decided_in_the_field_not_the_group_ring():
    """At (4;3,1) the coset equations take the phases 0, 1, 2, 3 at the
    class J = (0, 1), so c = (1, 0, 1, 0) has chi_J = e^0 + e^2 and the
    relation c = (1, -1, 1, -1) has chi_J = e^0 - e^1 + e^2 - e^3: nonzero
    in Q[Z/4], zero in Q(i).  Both weight tables drop J, as the branch sums
    lose its coefficients, and chi is the oracle's bit for bit.  A root
    sum alone cannot show this: on the classes of y_pr that it keeps, the
    phases of all coset equations agree."""
    p, order, ring = make_profile(4, [3, 1]), 8, get_cyclotomic_ring(4)
    assert [roots.dot(rep, (0, 1)) % 4
            for rep in coset_representatives(p)] == [0, 1, 2, 3]
    for c in ([1, 0, 1, 0], [1, -1, 1, -1]):
        chi = tuple(F(v) for v in c)
        assert any(chi) and ring.is_zero_complex(chi) and roots.vanishes(chi)
        weights = tuple(roots._class_weights(p, c, power) for power in (0, 1))
        assert (0, 1) not in weights[1]
        a, b = map(nonvanishing, log_parts_by_branches(p, c, order))
        parts = log_parts_from_weights(p, weights, order)
        assert [s.terms for s in parts] == [a.terms, b.terms]
        want = root_sum_by_branches(p, c, order)
        assert root_sum(p, c, order) == nonvanishing(want).terms
        assert relation_check(p, c, order) == want.max_abs()
    sol = log_solution(p, [1, -1, 1, -1], order)
    assert sol.chi == (
        a.to_complex() + b.to_complex().scale(2j * cmath.pi / 4)).terms


@pytest.mark.parametrize("m,ms,order", ORACLE_CASES)
def test_root_sums_match_branch_by_branch_oracle(m, ms, order):
    p = make_profile(m, ms)
    e0 = [1] + [0] * (len(coset_representatives(p)) - 1)
    for c in _relation_vectors(p) + [e0]:
        want = root_sum_by_branches(p, c, order)
        assert root_sum(p, c, order) == nonvanishing(want).terms
        assert relation_check(p, c, order) == want.max_abs()


@pytest.mark.parametrize("m,ms", [(3, [2, 1]), (5, [4, 1])])
def test_perturbed_relation_vector_is_caught(m, ms):
    """With m_1 = m - 1 the root sums do not vanish (they equal -x_1 up to
    a unit), so one perturbed entry leaves a nonzero residual; with
    m_1 != m - 1 every root sum is zero and no perturbation could show."""
    p = make_profile(m, ms)
    for vec in relation_basis(p):
        bad = list(vec)
        bad[-1] += F(1, 7)
        assert relation_check(p, bad, 8) > 0
        assert root_sum_by_branches(p, bad, 8).max_abs() > 0
        with pytest.raises(ValueError, match="not zero"):
            log_solution(p, bad, 8)


# d = 1 profiles with m <= 7, n <= 3 and a relation, bounded by m^n <= 64
# so that the branch oracles stay cheap: every n <= 2 profile and (4;3,2,1)
SWEEP_PROFILES = [p for p in profile_suite(7, 3)
                  if p.m**p.n <= 64 and relation_basis(p)]


@settings(deadline=None, max_examples=15, derandomize=True)
@given(st.sampled_from(SWEEP_PROFILES), st.integers(0, 99))
def test_coset_sums_equal_the_branch_oracles_at_the_order_floor(p, pick):
    """At the order floor max(m + 2, n(m - 1)), relation_check and
    log_residual equal the branch-by-branch values exactly, for a basis
    vector and, for relation_check, that vector with one entry moved."""
    order = max(p.m + 2, p.n * (p.m - 1))
    basis = relation_basis(p)
    vec = basis[pick % len(basis)]
    bad = list(vec)
    bad[-1] += F(1, 7)
    for c in (vec, bad):
        assert relation_check(p, c, order) == root_sum_by_branches(
            p, c, order).max_abs()
    assert log_residual(p, log_solution(p, vec, order)) == max(
        mellin_residual(p, part)
        for part in log_parts_by_branches(p, vec, order))


@pytest.mark.parametrize("as_json", [False, True])
def test_verify_fails_on_a_nonzero_relation_residual(monkeypatch, capsys,
                                                     as_json):
    """A relation vector with a nonzero root sum is a verification failure
    (exit 2) that names both checks, not a usage error (exit 1)."""
    def shifted(profile):
        basis = [list(vec) for vec in relation_basis(profile)]
        basis[0][0] += F(1, 7)
        return basis
    monkeypatch.setattr(cli, "relation_basis", shifted)
    argv = ["verify", "3", "2", "1"] + (["--json"] if as_json else [])
    assert main(argv) == 2
    out = capsys.readouterr().out
    if as_json:
        failed = {c["name"] for c in json.loads(out)["checks"] if not c["ok"]}
        assert {"relation-residuals", "log-solutions"} <= failed
    else:
        lines = out.splitlines()
        for check in ("relation-residuals", "log-solutions"):
            assert any(ln.startswith(f"FAIL {check} ") for ln in lines)
        assert "not zero" in next(ln for ln in lines if "log-solutions" in ln)


def _root_sum_gap(out):
    """ok and the gap of the ``jet-root-sum`` line of ``verify`` text."""
    line = next(ln for ln in out.splitlines() if " jet-root-sum " in ln)
    return line.startswith("ok"), float(re.search(r"\(([^)]*)\)$",
                                                  line).group(1))


@pytest.mark.parametrize("argv", [["3", "2", "1"], ["5", "2"]])
def test_verify_fails_on_a_wrong_root_sum(monkeypatch, capsys, argv):
    """1/7 added to one coordinate of one term of the root sum (at x_1
    when the sum is empty, as for (5;2)) fails ``jet-root-sum`` with a
    nonzero gap and exit 2."""
    real = roots.root_sum

    def bumped(profile, c, order):
        total = real(profile, c, order)
        s = min(total, default=(1,) + (0,) * (profile.n - 1))
        q = list(total.get(s, (0,) * profile.m))
        q[1] += F(1, 7)
        return {**total, s: tuple(q)}
    assert main(["verify", *argv]) == 0
    assert _root_sum_gap(capsys.readouterr().out) == (True, 0.0)
    monkeypatch.setattr(roots, "root_sum", bumped)
    assert main(["verify", *argv]) == 2
    ok, gap = _root_sum_gap(capsys.readouterr().out)
    assert not ok and gap > 0


def test_verify_fails_on_an_empty_root_sum(monkeypatch, capsys):
    """The root sum of y^3 + x y^2 - 1 is -x_1: with the sum emptied, the
    target x_1 alone is left, a gap of 1."""
    monkeypatch.setattr(roots, "root_sum", lambda *args: {})
    assert main(["verify", "3", "2"]) == 2
    assert _root_sum_gap(capsys.readouterr().out) == (False, 1.0)


def _stack_names():
    """The function names on the calling stack."""
    frame, names = sys._getframe(1), set()
    while frame is not None:
        names.add(frame.f_code.co_name)
        frame = frame.f_back
    return names


RELATION_PATHS = {"relation_check", "log_solution", "log_residual"}


@pytest.mark.parametrize("m,ms", [(3, [2, 1]), (5, [3, 1]), (7, [3])])
def test_relations_leave_empty_coset_sums(monkeypatch, m, ms):
    """A relation basis vector's weight tables keep no class of y_pr (for
    its root sum) and no class of any image; each table makes at most one
    Phi_m test per distinct character sum, and nothing else makes one."""
    p = make_profile(m, ms)
    real, tested = roots.vanishes, []
    monkeypatch.setattr(roots, "vanishes", lambda a: (
        tested.append((sys._getframe(1).f_code.co_name, tuple(a)))
        or real(a)))

    def classes(f):
        return {tuple(v % m for v in s) for s in f.terms}
    for vec in relation_basis(p):
        tables = []
        for power in (0, 1):
            tested.clear()
            tables.append(roots._class_weights(p, vec, power))
            assert len(tested) == len(set(tested))
        assert not classes(roots._source(p, 12, 1)) & tables[0].keys()
        for power, table in enumerate(tables):
            for image in roots._images(p, 12, power):
                assert not classes(image) & table.keys()
        tested.clear()
        assert root_sum(p, vec, 12) == {}
        assert relation_check(p, vec, 12) == 0.0
        assert log_residual(p, log_solution(p, vec, 12)) == 0.0
        assert {name for name, _ in tested} <= {"_class_weights"}


def test_class_weights_match_the_fraction_oracle(monkeypatch):
    """On every d = 1 profile with m <= 7, n <= 3, for each relation basis
    vector, e_0 and a combination with the entries 1/2 and -3/4, at powers
    0 and 1, the integer tables equal the Fraction oracle's in values,
    type and key order, with as many Phi_m tests, one per distinct chi."""
    real, tested = roots.vanishes, []
    monkeypatch.setattr(roots, "vanishes",
                        lambda a: tested.append(tuple(a)) or real(a))
    profiles = profile_suite(7, 3)
    assert len(profiles) == 86
    for p in profiles:
        e0 = [F(1)] + [F(0)] * (len(coset_representatives(p)) - 1)
        mixed = [F(0)] * len(e0)
        mixed[0] += F(1, 2)
        mixed[-1] -= F(3, 4)
        oracle = get_cyclotomic_ring(p.m).is_zero_complex
        for c in [*relation_basis(p), e0, mixed]:
            for power in (0, 1):
                chis = []
                want = branch_oracle.class_weights_by_fractions(
                    p, c, power, lambda a: chis.append(a) or oracle(a))
                tested.clear()
                got = roots._class_weights(p, c, power)
                assert got == want and list(got) == list(want)
                assert all(type(x) is F for w in got.values() for x in w)
                assert len(tested) == len(set(tested)) == len(chis)


def test_verify_tests_each_character_sum_once(monkeypatch, capsys):
    """On ``verify 5 4 3 2`` (24 relation vectors) each weight table makes
    one Phi_m test per distinct character sum, and no other test runs on
    the relation and log paths."""
    tables, outside = [], []
    real_weights = roots._class_weights
    real_test = roots.vanishes

    def weights(*args):
        tables.append([])
        return real_weights(*args)

    def test(a):
        if sys._getframe(1).f_code.co_name == "_class_weights":
            tables[-1].append(tuple(a))
        else:
            outside.append(_stack_names())
        return real_test(a)
    monkeypatch.setattr(roots, "_class_weights", weights)
    for module in (roots, cli):
        monkeypatch.setattr(module, "vanishes", test)
    assert main(["verify", "5", "4", "3", "2"]) == 0
    capsys.readouterr()
    assert len(tables) == 1 + 24 * 3
    assert all(len(t) == len(set(t)) for t in tables)
    assert not any(RELATION_PATHS & names for names in outside)


@pytest.mark.parametrize("argv", [["3", "2", "1", "--json"], ["5", "3", "1"],
                                  ["4", "3", "2", "1", "--order", "9"]])
def test_relation_and_log_paths_build_no_group_ring_series(monkeypatch,
                                                            capsys, argv):
    """relation_check, log_solution and log_residual read rational terms
    against weight tables: every series that ``verify`` builds, under them
    or anywhere, holds Fractions only."""
    real, seen = TruncatedSeries.__init__, []

    def spy(series, *args):
        real(series, *args)
        seen.append((_stack_names(), set(map(type, series.terms.values()))))
    monkeypatch.setattr(TruncatedSeries, "__init__", spy)
    roots._source.cache_clear()
    roots._images.cache_clear()
    assert main(["verify", *argv]) == 0
    capsys.readouterr()
    assert any(RELATION_PATHS & names for names, _ in seen)
    assert set().union(*(kinds for _, kinds in seen)) == {Fraction}


@pytest.mark.parametrize("m,ms,order", [(3, [2, 1], 8), (9, [2], 12),
                                        (4, [3, 2, 1], 6)])
def test_log_residual_equals_mellin_residual_of_the_parts(m, ms, order):
    p = make_profile(m, ms)
    for c in _relation_vectors(p):
        sol = log_solution(p, c, order)
        assert log_residual(p, sol) == max(
            mellin_residual(p, part)
            for part in log_parts_from_weights(p, sol.weights, order))


@pytest.fixture
def extra_term(monkeypatch):
    """extra_term(a, b) adds x^a D^b to the first Mellin operator that
    ``roots`` and the ``mellin_residual`` oracle see; memoized images are
    dropped before and after."""
    roots._images.cache_clear()
    roots._branch_residual.cache_clear()
    real = roots.mellin_system

    def add(a, b):
        def mutated(profile):
            ops = real(profile)
            return (ops[0] + DiffOperator(profile.n, {(a, b): F(1)}),) + ops[1:]
        for module in (roots, branch_oracle):
            monkeypatch.setattr(module, "mellin_system", mutated)
    yield add
    roots._images.cache_clear()
    roots._branch_residual.cache_clear()


def test_congruence_guard_raises_on_a_non_congruent_term(extra_term):
    p = make_profile(3, [2, 1])
    sol = log_solution(p, relation_basis(p)[0], 8)
    extra_term((1, 0), (0, 0))
    for run in (lambda: roots._images(p, 8, 1), lambda: log_residual(p, sol),
                lambda: invariant_subspace_witness(4, 2, 8)):
        with pytest.raises(ArithmeticError, match="breaks a = b"):
            run()


def test_congruence_guard_accepts_a_congruent_term(extra_term):
    """x_1^3 keeps the classes mod 3: the guard passes, and the nonzero
    residuals still equal those of the operators run on the parts and on
    every branch."""
    p = make_profile(3, [2, 1])
    sol = log_solution(p, relation_basis(p)[0], 8)
    extra_term((3, 0), (0, 0))
    parts = log_parts_from_weights(p, sol.weights, 8)
    assert log_residual(p, sol) == max(mellin_residual(p, part)
                                       for part in parts) > 0
    only_b = dataclasses.replace(sol, weights=({}, sol.weights[1]))
    assert log_residual(p, only_b) == mellin_residual(p, parts[1]) > 0
    for rep in coset_representatives(p):
        report = roots.equation_report(p, rep, 8)
        assert 0 < report["annihilation_residual"] == pytest.approx(max(
            mellin_residual(p, scaled_root_series(p, j, 8, rep))
            for j in range(3)), rel=1e-12)


@pytest.mark.parametrize("profile,check", [
    (["3", "2", "1"], "log-solutions"), (["4", "2"], "invariant-subspaces")])
def test_verify_fails_when_an_operator_breaks_the_congruence(
        extra_term, capsys, profile, check):
    n = len(profile) - 1
    extra_term((1,) + (0,) * (n - 1), (0,) * n)
    argv = ["verify", *profile, "--order", "8"]
    assert main(argv) == 2
    out = capsys.readouterr().out
    line = next(ln for ln in out.splitlines() if check in ln)
    assert line.startswith("FAIL") and "breaks a = b (mod" in line
    assert main(argv + ["--json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert not next(c for c in payload["checks"] if c["name"] == check)["ok"]
    assert all(math.isinf(e["annihilation_residual"])
               for e in payload["equations"])


def test_verify_applies_operators_to_rational_series_only(monkeypatch, capsys):
    """Root sums, log parts and branch residuals come from y_pr: every
    Mellin operator runs on Fraction coefficients."""
    roots._images.cache_clear()
    kinds = set()
    real = DiffOperator.apply
    monkeypatch.setattr(DiffOperator, "apply", lambda op, f: kinds.update(
        map(type, f.terms.values())) or real(op, f))
    for argv in (["verify", "3", "2", "1", "--json"], ["verify", "4", "2"],
                 ["verify", "5", "4", "1", "--order", "8"]):
        assert main(argv) == 0
    capsys.readouterr()
    assert kinds == {Fraction}


def test_relation_check_depressed_cubic():
    assert relation_check(make_profile(3, [1]), [F(1)], 10) < 1e-10


def test_relation_check_errors():
    p = make_profile(3, [2, 1])
    with pytest.raises(ValueError):
        relation_check(p, [F(1)], 8)
    with pytest.raises(ProfileError):
        relation_check(make_profile(4, [2]), [F(1), F(0)], 8)


def test_log_solution_zero_vector():
    p = make_profile(3, [1])
    sol = log_solution(p, [F(0)], 8)
    assert sol.chi == {}
    assert sol.constant_offsets == ()


def test_log_solution_rejects_non_relation():
    p = make_profile(3, [2, 1])
    with pytest.raises(ValueError):
        log_solution(p, [F(1), F(0), F(0)], 10)


def test_log_solution_matches_pointwise_evaluation():
    # chi = sum_i y_i log y_i evaluated via the series must agree with the
    # same expression computed from scalar roots at a nearby point
    p = make_profile(3, [1])
    order = 14
    sol = log_solution(p, [F(1)], order)
    x0 = 0.05
    vals = roots_at_point(EquationInstance(p, (0,), (x0,)))
    direct = 0j
    for y in vals:
        b = min(range(3), key=lambda k: abs(y - cmath.exp(2j * cmath.pi * k / 3)))
        logy = cmath.log(y * cmath.exp(-2j * cmath.pi * b / 3)) \
            + 2j * cmath.pi * b / 3
        direct += y * logy
    chi = sum(complex(c) * x0 ** s[0] for s, c in sol.chi.items())
    assert abs(chi - direct) < 1e-10


def test_log_solution_offsets_are_exact():
    p = make_profile(3, [1])
    sol = log_solution(p, [F(1)], 8)
    assert sol.constant_offsets == ((0, 1, F(1, 3)), (0, 2, F(2, 3)))


def test_chi_annihilated_depressed_cubic():
    p = make_profile(3, [1])
    sol = log_solution(p, [F(1)], 12)
    assert mellin_residual(p, _complex_series(p, 12, sol.chi)) \
        < ANNIHILATION_TOL


def test_chi_annihilated_general_cubic_and_direct_sum():
    p = make_profile(3, [2, 1])
    yjets = [j for block in coset_equation_jets(p, 12) for j in block]
    assert independence_rank(yjets) == 7
    chis = []
    for c in ([F(1), F(-1), F(0)], [F(1), F(0), F(-1)]):
        sol = log_solution(p, c, 12)
        assert mellin_residual(p, _complex_series(p, 12, sol.chi)) \
            < ANNIHILATION_TOL
        chis.append(sol.chi)
    assert independence_rank(yjets + chis) == 9


@pytest.mark.parametrize("m,ms,order", ORACLE_CASES)
def test_complex_jets_are_the_embedded_exact_branches(m, ms, order):
    """Rotating the complex y_pr gives the complex embedding of every exact
    branch (a signed zero compares equal to its opposite)."""
    p = make_profile(m, ms)
    want = [[scaled_root_series(p, j, order, rep).to_complex().terms
             for j in range(m)] for rep in coset_representatives(p)]
    assert coset_equation_jets(p, order) == want


def test_rank_tolerance_is_one_constant():
    from mellinsys.roots import RANK_TOL
    assert RANK_TOL is series.RANK_TOL == 1e-10


def test_root_jets_are_annihilated():
    p = make_profile(3, [2, 1])
    for block in coset_equation_jets(p, 12):
        for jet in block:
            assert mellin_residual(p, _complex_series(p, 12, jet)) \
                < ANNIHILATION_TOL


def test_random_series_not_annihilated():
    rng = random.Random(0)
    p = make_profile(3, [2, 1])
    terms = {e: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
             for e in exponents_up_to(2, 12)}
    junk = RingSeries(COMPLEX, 2, 12, terms)
    assert mellin_residual(p, junk) > 1e-3


def test_mellin_residual_requires_headroom():
    p = make_profile(3, [1])
    tiny = RingSeries(COMPLEX, 1, 4, {(0,): 1.0})
    with pytest.raises(ValueError):
        mellin_residual(p, tiny)


# ---------------------------------------------------------------------------
# invariant subspaces
# ---------------------------------------------------------------------------

def test_invariant_subspaces_quartic():
    w = invariant_subspace_witness(4, 2, 10)
    assert w.d == 2
    assert w.block_ranks == (2, 2)
    assert w.joint_rank == 4
    assert w.max_residual < ANNIHILATION_TOL
    assert w.original_root_rank == 2


def test_invariant_subspaces_sextic():
    w = invariant_subspace_witness(6, 2, 10)
    assert w.block_ranks == (3, 3)
    assert w.joint_rank == 6
    assert w.max_residual < ANNIHILATION_TOL


def test_invariant_subspaces_exact_residual():
    w = invariant_subspace_witness(6, 3, 12)
    assert w.block_ranks == (2, 2, 2)
    assert w.max_residual == 0


def test_polyquadratic_roots_span_dimension_two():
    for k in (2, 3):
        w = invariant_subspace_witness(2 * k, k, 10)
        assert w.original_root_rank == 2
        assert w.joint_rank == 2 * k
        assert all(r == 2 for r in w.block_ranks)


# ---------------------------------------------------------------------------
# per-equation reports
# ---------------------------------------------------------------------------

def test_equation_report_shape_and_values():
    from mellinsys.roots import equation_report
    p = make_profile(3, [2, 1])
    rep = equation_report(p, (0, 1), 10)
    assert rep["twist"] == [0, 1]
    assert rep["profile"]["m_list"] == [2, 1]
    assert rep["rank"] == 3
    assert rep["substitution_residual"] == 0.0
    assert rep["annihilation_residual"] == 0.0
    import json
    assert json.loads(json.dumps(rep)) == rep


@pytest.mark.parametrize("m,ms,order", ORACLE_CASES + [(6, [4, 2], 12)])
def test_equation_records_match_the_branch_embeddings(m, ms, order):
    """Each record's rank is the SVD rank of its m closed-form branches;
    their embedded substitution residual is rounding noise where the
    record's, taken from y_pr over Q, is exactly 0.0."""
    p = make_profile(m, ms)
    for rep in coset_representatives(p):
        record = roots.equation_report(p, rep, order)
        residual, rank = equation_record_by_branches(p, rep, order)
        assert record["rank"] == rank
        assert record["substitution_residual"] == 0.0
        assert residual < SUBSTITUTION_TOL


@pytest.mark.parametrize("m,ms,order", ORACLE_CASES)
def test_twist_rank_witness_matrix_is_the_per_term_matrix(monkeypatch,
                                                          m, ms, order):
    """The SVD witness of ``twist_rank`` takes one phase per (twist, class)
    and equals, bit for bit, the matrix of entries f_s zeta^{<t, s>}."""
    p = make_profile(m, ms)
    y = principal_series(p, order)
    real, dots = series.rank_complex, series.dot
    seen, counted = [], []
    monkeypatch.setattr(series, "rank_complex",
                        lambda rows: seen.append(rows) or real(rows))
    monkeypatch.setattr(series, "dot",
                        lambda a, b: counted.append(1) or dots(a, b))
    classes = {tuple(v % m for v in s) for s in y.terms}
    zeta = [cmath.exp(2j * cmath.pi * k / m) for k in range(m)]
    twist_sets = [index_box(p)] + [
        [tuple((b * mk + ik) % m for mk, ik in zip(p.m_list, rep))
         for b in range(m)] for rep in coset_representatives(p)]
    for twists in twist_sets:
        seen.clear()
        counted.clear()
        twist_rank(y, twists, m)
        assert seen == [[[float(c) * zeta[dots(t, s) % m]
                          for s, c in y.terms.items()] for t in twists]]
        assert len(counted) == len(twists) * len(classes)


@pytest.mark.parametrize("m,ms", [(3, [2, 1]), (4, [2])])
def test_equation_records_see_a_changed_principal_coefficient(monkeypatch,
                                                               m, ms):
    p = make_profile(m, ms)
    real = roots.principal_series

    def bumped(profile, order):
        y = real(profile, order)
        return _bumped(y, max(y.terms, key=lambda s: (sum(s), s)))
    caches = (roots._source, roots._images, roots._substitution_residual,
              roots._branch_residual)
    for cache in caches:
        cache.cache_clear()
    monkeypatch.setattr(roots, "principal_series", bumped)
    try:
        for rep in coset_representatives(p):
            assert roots.equation_report(p, rep, 8)["substitution_residual"] > 0
    finally:
        for cache in caches:
            cache.cache_clear()


SOURCE_PROFILES = profile_suite(7, 3, d_one_only=False)
SOURCE_ORDERS = random.Random(7).choices(range(1, 9), k=len(SOURCE_PROFILES))


@pytest.mark.parametrize(
    "p,order", zip(SOURCE_PROFILES, SOURCE_ORDERS),
    ids=[f"{p.m}-{'-'.join(map(str, p.m_list))}-order-{o}"
         for p, o in zip(SOURCE_PROFILES, SOURCE_ORDERS)])
def test_exact_sources_equal_the_series_product_oracles(monkeypatch, p, order):
    """Over the 91 profiles with m <= 7, n <= 3: the closed-form y_pr log
    y_pr is y_pr * log(y_pr) term for term, and the integer residual is
    the Fraction-product residual, on y_pr (0.0) and on y_pr with one
    seeded coefficient raised by 1/7 (nonzero)."""
    ypr = principal_series(p, order)
    assert (roots._source(p, order, 0).terms
            == naive_product(ypr, log(ypr)).terms)
    nu = random.Random(order).choice(sorted(exponents_up_to(p.n, order)))
    bumped = _bumped(ypr, nu)
    try:
        for y in (ypr, bumped):
            roots._substitution_residual.cache_clear()
            monkeypatch.setattr(roots, "_source", lambda *args, y=y: y)
            assert (roots._substitution_residual(p, order)
                    == substitution_residual_by_products(p, y))
        assert roots._substitution_residual(p, order) > 0
    finally:
        roots._substitution_residual.cache_clear()


def test_exact_sources_take_no_series_product():
    """The library has no series arithmetic: the substitution residual is
    an integer convolution, y_pr log y_pr a closed form, and sums,
    scalings, the series product, logarithm and inverse have left the
    library."""
    for name in ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
                 "scale", "log", "inverse"):
        assert not hasattr(TruncatedSeries, name)


VERIFY_PROFILES = [p for p in profile_suite(7, 3, d_one_only=False)
                   if p.m**p.n <= 64]


@settings(deadline=None, max_examples=15, derandomize=True)
@given(st.sampled_from(VERIFY_PROFILES))
def test_verify_passes_at_the_order_floor(p):
    """``verify --json`` at the order floor max(m + 2, n(m - 1)) exits 0
    on profiles with m <= 7, n <= 3, m^n <= 64, with an exact zero
    substitution residual in every record."""
    floor = max(p.m + 2, p.n * (p.m - 1))
    argv = ["verify", str(p.m), *map(str, p.m_list), "--order", str(floor),
            "--json"]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(argv) == 0
    doc = json.loads(out.getvalue())
    assert [e["substitution_residual"] for e in doc["equations"]] == [
        0.0] * len(coset_representatives(p))
    assert all(c["ok"] for c in doc["checks"] if c["name"] == "log-solutions")


def test_verify_json_builds_branches_for_the_numeric_witnesses_only(
        monkeypatch, capsys):
    """The only complex values that reach a numeric rank are the jets of
    ``coset_equation_jets`` (``algebraic-span``) and, with them, the chi
    of every ``log_solution`` (``direct-sum``), for d = 1 only; the
    ``point-branches`` witness sums y_pr at one point, with no branch
    built, and no Newton lift is left in the library."""
    ranked, real = [], cli.independence_rank
    monkeypatch.setattr(cli, "independence_rank",
                        lambda maps: ranked.append(maps) or real(maps))
    assert not hasattr(roots, "lift_jets")
    for argv in (["verify", "3", "2", "1", "--json"],
                 ["verify", "6", "4", "2", "--json"]):
        ranked.clear()
        assert main(argv) == 0
        capsys.readouterr()
        p = make_profile(int(argv[1]), list(map(int, argv[2:-1])))
        if p.d > 1:
            assert ranked == []
            continue
        jets = [jet for block in coset_equation_jets(p, 12) for jet in block]
        chis = [log_solution(p, vec, 12).chi for vec in relation_basis(p)]
        assert ranked == [jets, jets + chis]


def test_aberth_rejects_degenerate_polynomial():
    from mellinsys.roots import aberth_roots
    with pytest.raises(RootFindingError):
        aberth_roots([1.0])  # constant
    with pytest.raises(RootFindingError):
        aberth_roots([0.0, 0.0])  # zero after trimming
