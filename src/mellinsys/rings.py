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
vanishes exactly when sum_k a_k t^k is divisible by Phi_m.  Exact ranks
over that field need no field arithmetic: they are counted from residue
classes (:func:`mellinsys.series.twist_rank`).
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache


def mul(a, b) -> tuple:
    """The product in Q[Z/m] of two length-m tuples."""
    m = len(a)
    out = [Fraction(0)] * m
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[(i + j) % m] += x * y
    return tuple(out)


def vanishes(a) -> bool:
    """Whether the complex embedding of ``a`` in Q[Z/m], m = len(a), is
    exactly 0: the remainder of sum_k a_k t^k by Phi_m."""
    return not _poly_divmod(a, cyclotomic_polynomial(len(a)))[1]


@lru_cache(maxsize=None)
def roots_of_unity(m: int) -> tuple:
    """exp(2*pi*i*k/m) for k = 0..m-1: the embedding of e^k."""
    return tuple(cmath.exp(2j * cmath.pi * k / m) for k in range(m))


# ---------------------------------------------------------------------------
# Rational polynomial arithmetic and the cyclotomic polynomials
# ---------------------------------------------------------------------------

def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod(num, den):
    """Exact division with remainder of rational coefficient lists."""
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    _poly_trim(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    r = num[:]
    _poly_trim(r)
    dlead = den[-1]
    while len(r) >= len(den):
        shift = len(r) - len(den)
        c = r[-1] / dlead
        q[shift] = c
        for i, dc in enumerate(den):
            r[shift + i] -= c * dc
        _poly_trim(r)
    return q, r


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _poly_trim(out)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple:
    """Coefficients (ascending) of the m-th cyclotomic polynomial."""
    if m == 1:
        return (Fraction(-1), Fraction(1))
    num = [Fraction(-1)] + [Fraction(0)] * (m - 1) + [Fraction(1)]  # t^m - 1
    den = [Fraction(1)]
    for d in range(1, m):
        if m % d == 0:
            den = _poly_mul(den, list(cyclotomic_polynomial(d)))
    q, r = _poly_divmod(num, den)
    assert not r, "cyclotomic division must be exact"
    return tuple(q)
