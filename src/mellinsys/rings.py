"""The group ring Q[Z/m] of the class-weight tables.

An element is a length-m tuple of rationals (q_0, ..., q_{m-1}) standing
for q_0 + q_1 e + ... + q_{m-1} e^{m-1} with e^m = 1 and no further
reduction: the weights of ``mellinsys.roots._class_weights`` only need
exponents mod m.  This module holds the three pieces those tables use:
the product (:func:`mul`), the exact test of whether an element's complex
embedding vanishes (:func:`vanishes`) and the embedding table of e
(:func:`roots_of_unity`).

The group ring embeds into C via e -> exp(2*pi*i/m).  Because Q[Z/m] has
zero divisors, a nonzero element can embed to 0.  The embedding factors
through Q[t]/Phi_m(t) (Phi_m the m-th cyclotomic polynomial), so it
vanishes exactly when sum_k a_k t^k is divisible by Phi_m.  Phi_m is monic
with integer coefficients, so once an element's denominators are cleared
that remainder is taken in ints, with no Fraction built.  Exact ranks
over that field need no field arithmetic: they are counted from residue
classes (:func:`mellinsys.series.twist_rank`).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache


def mul(a, b) -> tuple:
    """The product in Q[Z/m] of two length-m tuples; integer tuples give an
    integer tuple."""
    m = len(a)
    out = [0] * m
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[(i + j) % m] += x * y
    return tuple(out)


def vanishes(a) -> bool:
    """Whether the complex embedding of ``a`` in Q[Z/m], m = len(a), is
    exactly 0: the remainder of sum_k a_k t^k by Phi_m.  The rationals are
    cleared over their common denominator first, so the remainder by the
    monic integer Phi_m is taken in ints."""
    den = math.lcm(*(x.denominator for x in a))
    cleared = [x.numerator * (den // x.denominator) for x in a]
    return not any(_monic_divmod(cleared, _phi(len(a)))[1])


@lru_cache(maxsize=None)
def roots_of_unity(m: int) -> tuple:
    """exp(2*pi*i*k/m) for k = 0..m-1: the embedding of e^k."""
    return tuple(cmath.exp(2j * cmath.pi * k / m) for k in range(m))


# ---------------------------------------------------------------------------
# The cyclotomic polynomials, in integers
# ---------------------------------------------------------------------------

def _monic_divmod(num, den):
    """Quotient and remainder of integer coefficient lists (ascending) by
    a monic ``den``; the remainder has len(den) - 1 entries or fewer."""
    r, deg = list(num), len(den) - 1
    q = [0] * max(0, len(r) - deg)
    for i in range(len(r) - 1, deg - 1, -1):
        c = q[i - deg] = r[i]
        if c:
            for j, dc in enumerate(den):
                r[i - deg + j] -= c * dc
    return q, r[:deg]


@lru_cache(maxsize=None)
def _phi(m: int) -> tuple:
    """Integer coefficients (ascending) of Phi_m: t^m - 1 divided by every
    Phi_d, d | m, d < m, each monic."""
    q = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            q, r = _monic_divmod(q, _phi(d))
            assert not any(r), "cyclotomic division must be exact"
    return tuple(q)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple:
    """Coefficients (ascending) of the m-th cyclotomic polynomial."""
    return tuple(map(Fraction, _phi(m)))
