"""Exact combinatorics: box, index sets, dimensions, cosets, residues."""

from fractions import Fraction

import pytest

from mellinsys.profiles import (MAX_BOX, ProfileError, algebraic_index_set,
                                coset_representatives, dims, index_box,
                                make_profile, missing_index_set,
                                modular_counts, relation_basis)
from profile_oracle import (beukers_heckman_reducible,
                            missing_indices_by_congruence,
                            modular_count_by_walk, profile_suite)


def test_make_profile_basic():
    p = make_profile(3, [2, 1])
    assert (p.m, p.n, p.d) == (3, 2, 1)
    assert p.mprime_list == (1, 2)


def test_make_profile_gcd():
    p = make_profile(6, [4, 2])
    assert p.d == 2
    assert p.mprime_list == (2, 4)


@pytest.mark.parametrize("m,ms", [
    (3, [3, 1]),      # m_1 not < m
    (3, [1, 2]),      # not decreasing
    (3, [2, 2]),      # not strictly decreasing
    (3, []),          # empty
    (3, [2, 0]),      # m_n <= 0
    (2, [-1]),
])
def test_make_profile_rejects(m, ms):
    with pytest.raises(ProfileError):
        make_profile(m, ms)


@pytest.mark.parametrize("m,ms", [
    (20, [19, 18, 17, 16]),   # 160000
    (65, [64, 1]),            # 4225, the first square past the cap
    (17, [16, 15, 14]),       # 4913
    (4097, [1]),
])
def test_make_profile_rejects_boxes_over_the_cap(m, ms):
    assert m ** len(ms) > MAX_BOX
    with pytest.raises(ProfileError, match="size cap MAX_BOX"):
        make_profile(m, ms)


def test_make_profile_rejects_non_integers():
    with pytest.raises(ProfileError):
        make_profile(3.0, [2, 1])
    with pytest.raises(ProfileError):
        make_profile(3, [2.0, 1])


def test_index_box():
    assert index_box(make_profile(2, [1])) == [(0,), (1,)]
    box = index_box(make_profile(3, [2, 1]))
    assert len(box) == 9
    assert box == sorted(box)
    assert box[0] == (0, 0) and box[-1] == (2, 2)
    assert len(index_box(make_profile(6, [4, 2]))) == 36


def test_algebraic_index_set_general_cubic():
    p = make_profile(3, [2, 1])
    assert missing_index_set(p) == [(0, 2), (2, 1)]
    assert len(algebraic_index_set(p)) == 7


def test_algebraic_index_set_quadratic():
    p = make_profile(2, [1])
    assert algebraic_index_set(p) == [(0,), (1,)]


def test_algebraic_index_set_depressed_cubic():
    # index (2) drops: 1*2 - 3*1 + 1 = 0
    p = make_profile(3, [1])
    assert algebraic_index_set(p) == [(0,), (1,)]
    assert missing_index_set(p) == [(2,)]


def test_missing_set_congruence_cross_check():
    # direct zero-product criterion vs modular characterization, exactly
    for p in profile_suite(6, 3, d_one_only=False):
        assert missing_index_set(p) == missing_indices_by_congruence(p)


def test_dims_table():
    r = dims(make_profile(3, [2, 1]))
    assert (r.rank, r.dim_Y, r.dim_R, r.dim_S) == (9, 7, 2, 2)
    r = dims(make_profile(3, [1]))
    assert (r.rank, r.dim_Y, r.dim_R, r.dim_S) == (3, 2, 1, 1)
    r = dims(make_profile(6, [4, 2]))
    assert (r.rank, r.dim_Y, r.dim_R, r.dim_S) == (36, 36, 0, 0)
    r = dims(make_profile(2, [1]))
    assert (r.rank, r.dim_Y, r.dim_R, r.dim_S) == (2, 2, 0, 0)


def test_dims_consistency_suite():
    for p in profile_suite(6, 3, d_one_only=False):
        r = dims(p)
        assert r.dim_Y + r.dim_S == r.rank
        assert r.dim_S == r.dim_R
        assert r.card_Bprime == r.dim_Y


def test_relation_basis():
    p = make_profile(3, [2, 1])
    e = lambda i, k: tuple(Fraction(1 if j == 0 else 0) - Fraction(1 if j == i else 0)
                           for j in range(k))
    assert relation_basis(p) == [e(1, 3), e(2, 3)]
    assert relation_basis(make_profile(3, [1])) == [(Fraction(1),)]
    assert relation_basis(make_profile(2, [1])) == []


def test_relation_basis_rejects_gcd():
    with pytest.raises(ProfileError):
        relation_basis(make_profile(6, [4, 2]))


def test_relation_basis_length_and_independence():
    for p in profile_suite(5, 2):
        basis = relation_basis(p)
        r = dims(p).dim_R
        assert len(basis) == r
        # vectors are triangular by construction, hence independent
        assert all(len(v) == len(coset_representatives(p)) for v in basis)


def test_coset_representatives():
    assert coset_representatives(make_profile(3, [2, 1])) == [(0, 0), (0, 1), (0, 2)]
    assert coset_representatives(make_profile(6, [2])) == [(0,), (1,)]
    assert coset_representatives(make_profile(2, [1])) == [(0,)]


def test_cosets_partition_the_box():
    for p in profile_suite(6, 2, d_one_only=False):
        reps = coset_representatives(p)
        assert len(reps) == p.d * p.m ** (p.n - 1)
        step = tuple(v % p.m for v in p.m_list)
        seen = set()
        for rep in reps:
            cur = rep
            for _ in range(p.m // p.d):
                assert cur not in seen
                seen.add(cur)
                cur = tuple((a + b) % p.m for a, b in zip(cur, step))
        assert len(seen) == p.m ** p.n


def test_modular_count_examples():
    assert modular_counts(make_profile(3, [2, 1]))[2] == 3
    assert modular_counts(make_profile(3, [1]))[0] == 1
    assert modular_counts(make_profile(2, [1]))[1] == 1


def test_modular_count_uniform():
    for p in profile_suite(7, 3):
        expect = p.m ** (p.n - 1)
        for r in range(p.m):
            assert modular_counts(p)[r] == expect


def test_modular_counts_match_one_walk_per_residue():
    suite = profile_suite(7, 3, d_one_only=False)
    assert len(suite) == 91
    for p in suite:
        assert modular_counts(p) == [modular_count_by_walk(p, r)
                                     for r in range(p.m)]


def test_cardinality_formula_brute_force():
    for p in profile_suite(6, 3):
        card = len(algebraic_index_set(p))
        expect = p.m ** p.n - p.m ** (p.n - 1)
        if p.m_list[0] == p.m - 1:
            expect += 1
        assert card == expect


@pytest.mark.parametrize("m", [2, 3, 7])
def test_beukers_heckman_named_cases(m):
    assert beukers_heckman_reducible(m) is False


def test_beukers_heckman_exhaustive():
    for m in range(2, 51):
        assert beukers_heckman_reducible(m) is False
