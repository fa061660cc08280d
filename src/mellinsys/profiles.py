"""Exponent bookkeeping for sparse algebraic equations.

An equation ``y^m + x_1 y^{m_1} + ... + x_n y^{m_n} - 1 = 0`` with
``m > m_1 > ... > m_n > 0`` is described by its exponent profile.  This
module owns the exact integer combinatorics attached to such a profile:
the box ``B = {0..m-1}^n`` of initial exponents, its split into surviving
and vanishing indices, dimension counts for the solution space of the
attached Mellin system, coset representatives of the twisted equations,
and residue counting.

No floating point is used anywhere in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product


class ProfileError(ValueError):
    """Exponent data that does not define a valid equation."""


@dataclass(frozen=True)
class ExponentProfile:
    """The integers (m; m_1, ..., m_n) with their gcd and complements."""

    m: int
    m_list: tuple[int, ...]
    n: int
    d: int
    mprime_list: tuple[int, ...]

    def equation_str(self) -> str:
        vars_ = var_names(self.n)
        left = [f"y^{self.m}"]
        for x, mj in zip(vars_, self.m_list):
            left.append(f"{x} y^{mj}" if mj > 1 else f"{x} y")
        return " + ".join(left) + " - 1 = 0"

    def to_json(self) -> dict:
        return {"m": self.m, "m_list": list(self.m_list), "n": self.n,
                "d": self.d}


def var_names(n: int, letter: str = "x") -> list[str]:
    if n == 1:
        return [letter]
    return [f"{letter}{j + 1}" for j in range(n)]


# Largest box m^n a profile may have: the index sets, the basis and the
# ranks all enumerate the box.  The largest box of any test, golden case or
# benchmark workload is 7^3 = 343.
MAX_BOX = 4096


def make_profile(m: int, m_list) -> ExponentProfile:
    """Validate (m; m_1 > ... > m_n > 0), m_1 < m, and fill in d and m'.

    Profiles whose box m^n exceeds MAX_BOX are rejected before any work.
    """
    if not isinstance(m, int) or any(not isinstance(v, int) for v in m_list):
        raise ProfileError("exponents must be integers")
    ms = tuple(m_list)
    if not ms:
        raise ProfileError("at least one inner exponent m_1 is required")
    if ms[-1] <= 0:
        raise ProfileError(f"inner exponents must be positive, got {ms[-1]}")
    if any(a <= b for a, b in zip(ms, ms[1:])):
        raise ProfileError(f"inner exponents must be strictly decreasing: {ms}")
    if m <= ms[0]:
        raise ProfileError(f"leading exponent m={m} must exceed m_1={ms[0]}")
    if m ** len(ms) > MAX_BOX:
        raise ProfileError(f"box m^n = {m}^{len(ms)} = {m ** len(ms)} exceeds "
                           f"the size cap MAX_BOX = {MAX_BOX}")
    d = math.gcd(m, *ms)
    return ExponentProfile(m=m, m_list=ms, n=len(ms), d=d,
                           mprime_list=tuple(m - mj for mj in ms))


def index_box(profile: ExponentProfile) -> list[tuple[int, ...]]:
    """All m^n initial exponents, lexicographically ordered."""
    return list(product(range(profile.m), repeat=profile.n))


def dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def principal_coefficient_vanishes(profile: ExponentProfile, nu) -> bool:
    """Whether the principal-solution coefficient at x^nu is zero.

    The numerator product runs over mu = 1 .. |nu|-1 and vanishes exactly
    when <M, nu> + 1 = m*mu for some mu in that range.
    """
    mu, rem = divmod(dot(profile.m_list, nu) + 1, profile.m)
    return rem == 0 and 1 <= mu <= sum(nu) - 1


def algebraic_index_set(profile: ExponentProfile) -> list[tuple[int, ...]]:
    """The indices of B that occur in the principal root's expansion (B')."""
    return list(dims(profile).Bprime)


def missing_index_set(profile: ExponentProfile) -> list[tuple[int, ...]]:
    """The complement B'' = B \\ B' of vanishing initial exponents."""
    return list(dims(profile).missing)


@dataclass(frozen=True)
class DimensionReport:
    rank: int
    dim_Y: int
    dim_R: int
    dim_S: int
    card_Bprime: int
    Bprime: tuple[tuple[int, ...], ...]
    missing: tuple[tuple[int, ...], ...]


def dims(profile: ExponentProfile) -> DimensionReport:
    """Rank and algebraic/logarithmic split of the Mellin solution space.

    For d > 1 every solution is algebraic, so dim Y = m^n and R = S = 0.
    For d = 1, dim Y = #B' follows the closed form m^n - m^{n-1} (+1 when
    m_1 = m - 1); the brute-force count of B', from the same walk of the
    box that splits off B'', must agree, and a mismatch is a hard error
    rather than a tolerance issue.
    """
    m, n = profile.m, profile.n
    rank = m**n
    split = ([], [])  # B' and B'', in one walk of the box
    for nu in index_box(profile):
        split[principal_coefficient_vanishes(profile, nu)].append(nu)
    bprime, missing = map(tuple, split)
    card = len(bprime)
    if profile.d > 1:
        dim_y, dim_r = rank, 0
    else:
        dim_y = rank - m ** (n - 1) + (1 if profile.m_list[0] == m - 1 else 0)
        dim_r = rank - dim_y
    if card != dim_y:
        raise RuntimeError(
            f"index-set count {card} disagrees with dimension formula {dim_y} "
            f"for profile ({m}, {list(profile.m_list)})")
    return DimensionReport(rank=rank, dim_Y=dim_y, dim_R=dim_r, dim_S=dim_r,
                           card_Bprime=card, Bprime=bprime, missing=missing)


def coset_representatives(profile: ExponentProfile) -> list[tuple[int, ...]]:
    """Lexicographically smallest representatives of B modulo j*(m_1..m_n).

    The cyclic subgroup generated by (m_1, ..., m_n) in (Z/m)^n has order
    m/d, so there are d * m^{n-1} cosets.  The zero coset comes first.
    """
    m = profile.m
    step = tuple(mj % m for mj in profile.m_list)
    seen: set[tuple[int, ...]] = set()
    reps = []
    for idx in index_box(profile):
        if idx in seen:
            continue
        reps.append(idx)
        cur = idx
        while True:
            seen.add(cur)
            cur = tuple((a + b) % m for a, b in zip(cur, step))
            if cur == idx:
                break
    return reps


def relation_basis(profile: ExponentProfile) -> list[tuple[Fraction, ...]]:
    """Basis of the root-sum relation space R in coordinates indexed by Gamma.

    For m_1 = m - 1 every representative equation has root sum -x_1 (all
    representatives share first coordinate 0), giving the differences
    e_1 - e_k; otherwise every root sum vanishes and the standard basis
    spans.  Defined only for d = 1.
    """
    if profile.d > 1:
        raise ProfileError("the relation space is defined only for d = 1")
    reps = coset_representatives(profile)
    k = len(reps)
    if profile.m_list[0] == profile.m - 1:
        # lex-smallest representatives necessarily have first coordinate 0
        assert all(rep[0] == 0 for rep in reps)
        basis = []
        for i in range(1, k):
            vec = [Fraction(0)] * k
            vec[0] = Fraction(1)
            vec[i] = Fraction(-1)
            basis.append(tuple(vec))
        return basis
    return [tuple(Fraction(1 if i == j else 0) for i in range(k))
            for j in range(k)]


def modular_counts(profile: ExponentProfile) -> list[int]:
    """#{nu in B : <M, nu> = r (mod m)} for r = 0..m-1, in one walk of B;
    each equals m^{n-1} if d = 1."""
    m, counts = profile.m, [0] * profile.m
    for nu in index_box(profile):
        counts[dot(profile.m_list, nu) % m] += 1
    return counts

