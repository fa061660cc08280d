"""Test oracle: exact arithmetic in the cyclotomic field Q[t]/Phi_m(t).

The library decides exact vanishing in Q(zeta_m) by one integer polynomial
remainder and counts exact ranks from residue classes; this is the direct
field arithmetic, on rational polynomials, that both are checked against.
"""

import cmath
from fractions import Fraction
from functools import lru_cache

from mellinsys.rings import cyclotomic_polynomial


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
    """a - b for ascending rational coefficient lists, trimmed."""
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] -= x
    return _poly_trim(out)


class CyclotomicField:
    """Q[t]/Phi_m(t), elements as degree < phi(m) rational coefficient tuples."""

    def __init__(self, m: int):
        self.m = m
        self.modulus = list(cyclotomic_polynomial(m))
        self.degree = len(self.modulus) - 1
        self.zero = tuple([Fraction(0)] * self.degree)
        self.one = tuple([Fraction(1)] + [Fraction(0)] * (self.degree - 1))
        # t^0 .. t^{m-1} reduced one multiplication by t at a time, using
        # t^deg = -(Phi_m - t^deg) since Phi_m is monic
        self._powers = [self.one]
        for _ in range(m - 1):
            prev = self._powers[-1]
            lead = prev[-1]
            shifted = (Fraction(0),) + prev[:-1]
            self._powers.append(tuple(c - lead * p for c, p
                                      in zip(shifted, self.modulus)))

    def from_group_ring(self, a):
        out = [Fraction(0)] * self.degree
        for k, c in enumerate(a):
            if c:
                pk = self._powers[k % self.m]
                for i in range(self.degree):
                    out[i] += c * pk[i]
        return tuple(out)

    def is_zero(self, a) -> bool:
        return all(c == 0 for c in a)

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def mul(self, a, b):
        _, r = _poly_divmod(_poly_mul(list(a), list(b)), self.modulus)
        return tuple(r + [Fraction(0)] * (self.degree - len(r)))

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
        _, res = _poly_divmod([x / r0[0] for x in s0], self.modulus)
        return tuple(res + [Fraction(0)] * (self.degree - len(res)))

    def to_complex(self, a) -> complex:
        z = cmath.exp(2j * cmath.pi / self.m)
        return sum(float(c) * z**k for k, c in enumerate(a))


@lru_cache(maxsize=None)
def cyclotomic_field(m: int) -> CyclotomicField:
    return CyclotomicField(m)
