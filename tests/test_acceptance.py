"""Acceptance battery: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else: exact rational zero
for annihilation of the closed-form bases, 1e-10 for jet coefficient
matches and rank pivots, 1e-8 relative for numeric annihilation residuals.
"""

import random
from fractions import Fraction

from mellinsys.profiles import (algebraic_index_set, dims, index_box,
                                make_profile, missing_index_set,
                                modular_counts)
from mellinsys.roots import (coset_equation_jets, invariant_subspace_witness,
                             log_solution, relation_check,
                             scaled_root_max_deviation)
from mellinsys.series import (convenient_basis_series, exponents_up_to,
                              independence_rank, principal_series, twist_rank)
from mellinsys.weyl import (DiffOperator, derivative_factorization,
                            discriminant_poly, horn_mellin_multiplier,
                            horn_system, mellin_operator_1d, mellin_system,
                            mellin_system_theta_form, poly_scale_ratio,
                            theta_factorization)
from branch_oracle import mellin_residual
from profile_oracle import beukers_heckman_reducible, profile_suite
from ring_oracle import COMPLEX, RingSeries
from weyl_oracle import (equals_up_to_rational_scale, factorization_check,
                         from_univariate)

F = Fraction

# the desk-scale suite: every univariate shape plus the two bivariate ones
SUITE = [(2, [1]), (3, [1]), (3, [2]), (4, [2]), (6, [2]), (6, [3]),
         (3, [2, 1]), (6, [4, 2])]

ORDER = 12


def _report(num, name, detail):
    print(f"PASS {num:>2}  {name}: {detail}")


def test_criterion_01_rank_realization():
    for m, ms in SUITE:
        p = make_profile(m, ms)
        ops = mellin_system(p)
        initials = set()
        for idx in index_box(p):
            f = convenient_basis_series(p, idx, ORDER)
            assert f.coefficient(idx) == 1
            initials.add(min(f.terms, key=lambda e: (sum(e), e)))
            for op in ops:
                assert op.apply(f).is_zero()  # exact rational zero
        assert len(initials) == m ** p.n
    _report(1, "rank realization",
            f"{len(SUITE)} profiles, m^n exactly annihilated basis series "
            f"with m^n distinct initial monomials at order {ORDER}")


def test_criterion_02_dimension_table():
    p = make_profile(3, [2, 1])
    r = dims(p)
    assert (r.rank, r.dim_Y, r.dim_R, r.dim_S) == (9, 7, 2, 2)
    assert missing_index_set(p) == [(0, 2), (2, 1)]
    r = dims(make_profile(3, [1]))
    assert (r.rank, r.dim_Y, r.dim_R, r.dim_S) == (3, 2, 1, 1)
    checked = 0
    for q in profile_suite(6, 3):
        card = len(algebraic_index_set(q))
        expect = q.m ** q.n - q.m ** (q.n - 1)
        if q.m_list[0] == q.m - 1:
            expect += 1
        assert card == expect
        checked += 1
    _report(2, "dimension table",
            f"(3,[2,1]) -> (9,7,2,2) with missing {{(0,2),(2,1)}}; "
            f"(3,[1]) -> (3,2,1,1); survivor-count formula on {checked} "
            "coprime profiles with m <= 6, n <= 3")


def test_criterion_03_modular_counting():
    checked = 0
    for p in profile_suite(7, 3):
        expect = p.m ** (p.n - 1)
        for r in range(p.m):
            assert modular_counts(p)[r] == expect
        checked += 1
    _report(3, "modular counting",
            f"every residue hit m^(n-1) times on {checked} coprime profiles "
            "with m <= 7, n <= 3")


NAMED = {
    (2, 1): [[-1], [0, 1], [4, 0, 1]],
    (3, 2): [[-4], [0, 4], [0, 0, 18], [-27, 0, 0, 4]],
    (3, 1): [[-2], [0, 10], [0, 0, 18], [27, 0, 0, 4]],
    (4, 2): [[-15], [0, 120], [0, 0, 360], [0, 0, 0, 160],
             [-256, 0, 0, 0, 16]],
    (6, 2): [[-6545], [0, 236180], [0, 0, 955780], [0, 0, 0, 818944],
             [0, 0, 0, 0, 242816], [0, 0, 0, 0, 0, 27648],
             [-46656, 0, 0, 0, 0, 0, 1024]],
}


def test_criterion_04_named_operators():
    scales = {}
    for (m, m1), polys in sorted(NAMED.items()):
        got = mellin_operator_1d(m, m1)
        want = from_univariate(polys)
        ratio = equals_up_to_rational_scale(got, want)
        assert ratio is not None
        scales[(m, m1)] = ratio
    assert set(scales.values()) == {F(1)}
    _report(4, "named operators",
            "all five displayed forms reproduced with scale factor 1")


def test_criterion_05_discriminant_coincidence():
    from math import gcd
    pairs = 0
    for m in range(2, 8):
        for m1 in range(1, m):
            if gcd(m, m1) != 1:
                continue
            lead = [F(c) for c in
                    mellin_operator_1d(m, m1).univariate_coeff_polys()[-1]]
            assert poly_scale_ratio(lead, discriminant_poly(m, m1)) is not None
            pairs += 1
    _report(5, "discriminant coincidence",
            f"leading coefficient proportional to the trinomial discriminant "
            f"for all {pairs} coprime pairs with m <= 7")


def test_criterion_06_factorizations():
    theta = DiffOperator.theta(1, 0)
    one = DiffOperator.identity(1)
    d = DiffOperator.partial(1, 0, 1)
    x2 = DiffOperator.x_power(1, 0, 2)
    # four displayed factorizations, exact canonical-form identities
    assert factorization_check(
        from_univariate([[0, 0, 4], [27, 0, 0, 14],
                         [0, -27, 0, 0, 4]]),
        theta - one, mellin_operator_1d(3, 2), multiplier=x2)
    assert factorization_check(
        d, from_univariate([[0, -2], [0, 0, 6], [27, 0, 0, 4]]),
        mellin_operator_1d(3, 1))
    assert factorization_check(
        from_univariate([[15], [0, 20], [-16, 0, 4]]),
        from_univariate([[-1], [0, 4], [16, 0, 4]]),
        mellin_operator_1d(4, 2))
    assert factorization_check(
        from_univariate([[1309], [0, 1526], [0, 0, 432],
                         [-216, 0, 0, 32]]),
        from_univariate([[-5], [0, 86], [0, 0, 144],
                         [216, 0, 0, 32]]),
        mellin_operator_1d(6, 2))
    for m in range(2, 7):
        left, right = derivative_factorization(m)
        assert left * right == mellin_operator_1d(m, 1)
    exponents = {}
    for m in range(2, 6):
        fac = theta_factorization(m)
        assert (DiffOperator.x_power(1, 0, fac.exponent)
                * mellin_operator_1d(m, m - 1) == fac.left * fac.right)
        exponents[m] = fac.exponent
    assert exponents == {m: m - 1 for m in range(2, 6)}
    _report(6, "factorizations",
            "four displayed splits exact; d/dx factor for m=2..6; theta-1 "
            f"factor for m=2..5 with resolved multiplier exponents "
            f"{exponents} (closed form displays x^m)")


def test_criterion_07_horn_mellin_identity():
    lines = []
    for m, ms in SUITE:
        p = make_profile(m, ms)
        cleared = mellin_system_theta_form(p)
        _, horn_x = horn_system(p)
        for j in range(p.n):
            mult = horn_mellin_multiplier(p, j)
            assert abs(mult) == m**m
            assert horn_x[j].scale(mult) == cleared[j]
            naive = (-1) ** (m + 1) * m**m
            agrees = mult == naive
            assert agrees == ((m - p.m_list[j]) % 2 == 0)
            lines.append(f"({m},{ms})j{j + 1}:{mult:+d}")
    _report(7, "horn-mellin identity",
            "exact multipliers " + " ".join(lines)
            + " (sign is (-1)^(m_j+1), matching the parity-naive "
              "(-1)^(m+1) exactly when m = m_j mod 2)")


def test_criterion_08_rotation_basis():
    expected = {(6, (4, 2)): 36, (4, (2,)): 4, (3, (2, 1)): 7}
    got = {}
    for (m, ms), want in expected.items():
        p = make_profile(m, list(ms))
        rank = twist_rank(principal_series(p, ORDER), index_box(p), m)
        assert rank == want
        got[(m, ms)] = rank
    _report(8, "rotation basis",
            "exact twist ranks " + ", ".join(
                f"({m},{list(ms)})->{r}" for (m, ms), r in got.items()))


def test_criterion_09_scaled_root_identity():
    worst = 0.0
    for m, ms in SUITE:
        dev = scaled_root_max_deviation(make_profile(m, ms), 8)
        assert dev < 1e-10
        worst = max(worst, dev)
    _report(9, "scaled-root identity",
            f"jets match rotated principal roots at order 8, "
            f"worst gap {worst:.3e} (tolerance 1e-10)")


def test_criterion_10_logarithmic_solutions():
    p31 = make_profile(3, [1])
    sol = log_solution(p31, [F(1)], ORDER)
    res31 = mellin_residual(p31, RingSeries(COMPLEX, 1, ORDER, sol.chi))
    assert res31 < 1e-8
    yjets31 = [j for b in coset_equation_jets(p31, ORDER) for j in b]
    assert independence_rank(yjets31 + [sol.chi]) == 3

    p321 = make_profile(3, [2, 1])
    yjets = [j for b in coset_equation_jets(p321, ORDER) for j in b]
    chis, worst = [], res31
    for c in ([F(1), F(-1), F(0)], [F(1), F(0), F(-1)]):
        s = log_solution(p321, c, ORDER)
        r = mellin_residual(p321, RingSeries(COMPLEX, 2, ORDER, s.chi))
        assert r < 1e-8
        worst = max(worst, r)
        chis.append(s.chi)
    assert independence_rank(yjets + chis) == 9
    _report(10, "logarithmic solutions",
            f"residuals < 1e-8 (worst {worst:.3e}); algebraic + logarithmic "
            "jets span rank 3 for (3,[1]) and 9 for (3,[2,1])")


def test_criterion_11_invariant_subspaces():
    w42 = invariant_subspace_witness(4, 2, ORDER)
    assert w42.block_ranks == (2, 2) and w42.joint_rank == 4
    assert w42.max_residual < 1e-8
    w62 = invariant_subspace_witness(6, 2, ORDER)
    assert w62.block_ranks == (3, 3) and w62.joint_rank == 6
    assert w62.max_residual < 1e-8
    for k in (2, 3):
        w = invariant_subspace_witness(2 * k, k, ORDER)
        assert w.original_root_rank == 2
    _report(11, "invariant subspaces",
            "(4,[2]) splits 2+2, (6,[2]) splits 3+3, residuals < 1e-8; "
            "(2k,[k]) original roots span rank 2 for k=2,3")


def test_criterion_12_irreducibility_condition():
    for m in range(2, 51):
        assert beukers_heckman_reducible(m) is False
    _report(12, "irreducibility condition",
            "integrality test false for all 2 <= m <= 50 "
            "(exact rational arithmetic)")


def test_criterion_13_negative_controls():
    p = make_profile(3, [2, 1])
    rng = random.Random(0)
    junk = RingSeries(COMPLEX, 2, ORDER,
                      {e: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                       for e in exponents_up_to(2, ORDER)})
    res = mellin_residual(p, junk)
    assert res > 1e-3
    rel = relation_check(p, [F(1), F(0), F(0)], 10)
    assert rel > 1e-3
    _report(13, "negative controls",
            f"random degree-12 series residual {res:.3e}; lone-coset "
            f"relation residual {rel:.3e} (both far from zero)")
