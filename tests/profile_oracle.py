"""Profile enumeration and an independent characterization of B''.

``missing_indices_by_congruence`` computes the vanishing initial exponents
from a congruence, where the library tests the principal coefficient's
product range; ``modular_count_by_walk`` counts one residue of <M, nu> mod
m in its own walk of the box, where the library counts every residue in
one; ``profile_suite`` enumerates the profiles the tests sweep.
``beukers_heckman_reducible`` is the integrality condition certifying that
the depressed trinomial factor is irreducible.
"""

from fractions import Fraction
from itertools import combinations

from mellinsys.profiles import ExponentProfile, dot, index_box, make_profile


def missing_indices_by_congruence(profile: ExponentProfile) -> list[tuple[int, ...]]:
    """B'' computed from the congruence <M, nu> = -1 (mod m).

    Valid for any d: when d > 1 no index satisfies the congruence.  The one
    correction is nu = e_1 when m_1 = m - 1, whose only candidate mu equals
    |nu| and therefore lies outside the coefficient's product range.
    """
    m = profile.m
    out = []
    e1 = tuple(1 if j == 0 else 0 for j in range(profile.n))
    for nu in index_box(profile):
        if dot(profile.m_list, nu) % m == m - 1:
            if profile.m_list[0] == m - 1 and nu == e1:
                continue
            out.append(nu)
    return out


def modular_count_by_walk(profile: ExponentProfile, r: int) -> int:
    """#{nu in B : <M, nu> = r (mod m)} from one walk of B for r alone."""
    m = profile.m
    return sum(1 for nu in index_box(profile)
               if dot(profile.m_list, nu) % m == r % m)


def profile_suite(max_m: int, max_n: int, d_one_only: bool = True):
    """Enumerate all valid profiles with m <= max_m and n <= max_n."""
    out = []
    for m in range(2, max_m + 1):
        for n in range(1, max_n + 1):
            for combo in combinations(range(1, m), n):
                ms = tuple(sorted(combo, reverse=True))
                p = make_profile(m, ms)
                if d_one_only and p.d != 1:
                    continue
                out.append(p)
    return out


def beukers_heckman_reducible(m: int) -> bool:
    """Integrality test for reducibility of the depressed trinomial factor.

    Checks whether (m*i - 1)/(m*(m-1)) + j/m is an integer for some
    i, j in {0, ..., m-2}.  Exact rational arithmetic; provably always
    False, which the test suite asserts exhaustively.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    for i in range(m - 1):
        for j in range(m - 1):
            val = Fraction(m * i - 1, m * (m - 1)) + Fraction(j, m)
            if val.denominator == 1:
                return True
    return False
