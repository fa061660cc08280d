"""Coefficient rings for truncated series.

Three interchangeable rings:

* ``RATIONAL`` -- arbitrary-precision fractions,
* ``CyclotomicRing(m)`` -- the group ring Q[Z/m], vectors of m rationals
  representing sums q_0 + q_1 e + ... + q_{m-1} e^{m-1} with e^m = 1 and
  no further reduction (rotation arithmetic only needs exponents mod m),
* ``COMPLEX`` -- double-precision complex numbers.

Every per-ring decision of the series code is a method here, so that code
never asks which ring it holds: arithmetic, the exact test for a vanishing
complex embedding, rendering a coefficient as text, and the map
(c, k) -> c e^k of an exact coefficient into the ring of rotations Q[Z/m].

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


class RationalRing:
    """Exact rational coefficients (fractions.Fraction)."""

    name = "rational"
    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def scale_rational(a, q):
        return a * q

    @staticmethod
    def is_zero(a) -> bool:
        return a == 0

    is_zero_complex = is_zero

    @staticmethod
    def to_complex(a) -> complex:
        return complex(a)

    @staticmethod
    def coeff_text(a) -> str:
        return str(a)

    @staticmethod
    def group_ring(m=None):
        """The ring Q[Z/m] and the map (c, k) -> c e^k into it: a monomial
        with the rational c in slot k mod m."""
        if m is None:
            raise ValueError("rational coefficients need the modulus m")
        ring = get_cyclotomic_ring(m)
        return ring, ring.monomial

    def __eq__(self, other):
        return type(other) is RationalRing

    def __hash__(self):
        return hash(RationalRing)

    def __repr__(self):
        return "RationalRing()"


class ComplexRing:
    """Double-precision complex coefficients."""

    name = "complex"
    zero = 0j
    one = 1 + 0j

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def scale_rational(a, q):
        return a * float(q)

    @staticmethod
    def is_zero(a) -> bool:
        return a == 0

    is_zero_complex = is_zero

    @staticmethod
    def to_complex(a) -> complex:
        return complex(a)

    @staticmethod
    def coeff_text(a) -> str:
        return f"[{a.real:.12e}, {a.imag:.12e}]"

    def __eq__(self, other):
        return type(other) is ComplexRing

    def __hash__(self):
        return hash(ComplexRing)

    def __repr__(self):
        return "ComplexRing()"


RATIONAL = RationalRing()
COMPLEX = ComplexRing()

_ZERO = Fraction(0)


class CyclotomicRing:
    """The group ring Q[Z/m].  Elements are length-m tuples of Fractions."""

    name = "cyclotomic"

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("m must be positive")
        self.m = m
        self.zero = tuple([_ZERO] * m)
        self.one = self.root(0)
        self._embedding = tuple(cmath.exp(2j * cmath.pi * k / m)
                                for k in range(m))
        self._phi = cyclotomic_polynomial(m)

    def root(self, k: int):
        """The basis element e^k."""
        v = [_ZERO] * self.m
        v[k % self.m] = Fraction(1)
        return tuple(v)

    def monomial(self, q, k: int):
        """q e^k for a rational q, which is stored as given."""
        v = [_ZERO] * self.m
        v[k % self.m] = q
        return tuple(v)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        m = self.m
        out = [_ZERO] * m
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                if y:
                    out[(i + j) % m] += x * y
        return tuple(out)

    def mul_root(self, a, k: int):
        """Multiply by e^k: a cyclic shift of the coordinates."""
        k %= self.m
        if k == 0:
            return a
        return tuple(a[(i - k) % self.m] for i in range(self.m))

    def scale_rational(self, a, q):
        q = Fraction(q)
        return tuple(x * q for x in a)

    def is_zero(self, a) -> bool:
        return not any(a)

    def is_zero_complex(self, a) -> bool:
        """Exact test of whether the complex embedding of ``a`` vanishes:
        the remainder of sum_k a_k t^k by Phi_m."""
        return not _poly_divmod(a, self._phi)[1]

    def to_complex(self, a) -> complex:
        return sum(float(x) * self._embedding[k]
                   for k, x in enumerate(a) if x)

    @staticmethod
    def coeff_text(a) -> str:
        """``[q_0, ..., q_{m-1}]``; a zero coordinate prints as the constant
        "0", with no str() call."""
        return "[" + ", ".join([str(q) if q else "0" for q in a]) + "]"

    def group_ring(self, m=None):
        """This ring and the map (a, k) -> a e^k, a cyclic shift."""
        if m is not None and m != self.m:
            raise ValueError("ring mismatch")
        return self, self.mul_root

    def __eq__(self, other):
        return type(other) is CyclotomicRing and other.m == self.m

    def __hash__(self):
        return hash((CyclotomicRing, self.m))

    def __repr__(self):
        return f"CyclotomicRing({self.m})"


@lru_cache(maxsize=None)
def get_cyclotomic_ring(m: int) -> CyclotomicRing:
    return CyclotomicRing(m)


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
