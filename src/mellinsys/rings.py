"""Coefficient rings for truncated series.

Three interchangeable rings:

* ``RATIONAL`` -- arbitrary-precision fractions,
* ``CyclotomicRing(m)`` -- the group ring Q[Z/m], vectors of m rationals
  representing sums q_0 + q_1 e + ... + q_{m-1} e^{m-1} with e^m = 1 and
  no further reduction (rotation arithmetic only needs exponents mod m),
* ``COMPLEX`` -- double-precision complex numbers.

The group ring embeds into C via e -> exp(2*pi*i/m).  Because Q[Z/m] has
zero divisors, exact *complex* zero tests go through the field
Q[t]/Phi_m(t) (Phi_m the m-th cyclotomic polynomial), which the embedding
factors through.  Exact ranks over that field are proved without field
arithmetic, from ranks mod primes
(:func:`mellinsys.series.rank_cyclotomic_exact`).
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
    def from_rational(q):
        return Fraction(q)

    @staticmethod
    def is_zero(a) -> bool:
        return a == 0

    @staticmethod
    def to_complex(a) -> complex:
        return complex(a)

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
    def from_rational(q):
        return complex(q)

    @staticmethod
    def is_zero(a) -> bool:
        return a == 0

    @staticmethod
    def to_complex(a) -> complex:
        return complex(a)

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

    def root(self, k: int):
        """The basis element e^k."""
        v = [_ZERO] * self.m
        v[k % self.m] = Fraction(1)
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

    def from_rational(self, q):
        v = [_ZERO] * self.m
        v[0] = Fraction(q)
        return tuple(v)

    def is_zero(self, a) -> bool:
        return all(x == 0 for x in a)

    def to_complex(self, a) -> complex:
        return sum(float(x) * self._embedding[k]
                   for k, x in enumerate(a) if x)

    def to_field(self, a):
        """Image of a group-ring element in Q[t]/Phi_m(t)."""
        return cyclotomic_field(self.m).from_group_ring(a)

    def is_zero_complex(self, a) -> bool:
        """Exact test of whether the complex embedding of ``a`` vanishes."""
        fld = cyclotomic_field(self.m)
        return fld.is_zero(fld.from_group_ring(a))

    def __repr__(self):
        return f"CyclotomicRing({self.m})"


@lru_cache(maxsize=None)
def get_cyclotomic_ring(m: int) -> CyclotomicRing:
    return CyclotomicRing(m)


# ---------------------------------------------------------------------------
# Exact arithmetic in the cyclotomic field Q[t]/Phi_m(t)
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


def _poly_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] -= x
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


class CyclotomicField:
    """Q[t]/Phi_m(t), elements as degree < phi(m) rational coefficient tuples."""

    def __init__(self, m: int):
        self.m = m
        self.modulus = list(cyclotomic_polynomial(m))
        self.degree = len(self.modulus) - 1
        self.zero = tuple([_ZERO] * self.degree)
        one = [_ZERO] * self.degree
        one[0] = Fraction(1)
        self.one = tuple(one)
        # reduction table for t^k, k = 0 .. m-1
        self._powers = []
        for k in range(m):
            p = [Fraction(0)] * k + [Fraction(1)]
            _, r = _poly_divmod(p, self.modulus)
            r = r + [Fraction(0)] * (self.degree - len(r))
            self._powers.append(tuple(r))

    def from_group_ring(self, a):
        out = [_ZERO] * self.degree
        for k, c in enumerate(a):
            if c:
                pk = self._powers[k % self.m]
                for i in range(self.degree):
                    out[i] += c * pk[i]
        return tuple(out)

    def is_zero(self, a) -> bool:
        return all(c == 0 for c in a)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        prod = _poly_mul(list(a), list(b))
        _, r = _poly_divmod(prod, self.modulus)
        r = r + [Fraction(0)] * (self.degree - len(r))
        return tuple(r[:self.degree])

    def inv(self, a):
        """Inverse via the extended Euclidean algorithm in Q[t].

        Maintains r_i = u_i * Phi_m + s_i * a; since Phi_m is irreducible
        over Q the gcd with any nonzero residue is a nonzero constant.
        """
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero field element")
        r0, r1 = self.modulus[:], _poly_trim(list(a))
        s0, s1 = [], [Fraction(1)]
        while r1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        assert len(r0) == 1, "cyclotomic modulus must be irreducible"
        c = r0[0]
        res = [x / c for x in s0]
        _, res = _poly_divmod(res, self.modulus)
        res = res + [Fraction(0)] * (self.degree - len(res))
        return tuple(res[:self.degree])

    def to_complex(self, a) -> complex:
        z = cmath.exp(2j * cmath.pi / self.m)
        return sum(float(c) * z**k for k, c in enumerate(a))

    def __repr__(self):
        return f"CyclotomicField({self.m})"


@lru_cache(maxsize=None)
def cyclotomic_field(m: int) -> CyclotomicField:
    return CyclotomicField(m)
