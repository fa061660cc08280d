"""Generic truncated series over three coefficient rings, for the oracles.

The library's series are rational, and it reads every sum over root
branches class by class from them.  The oracles build those branches one
by one, so they carry the generic series the library gave up:

* ``RATIONAL`` -- arbitrary-precision fractions,
* ``CyclotomicRing(m)`` -- the group ring Q[Z/m], vectors of m rationals
  representing sums q_0 + q_1 e + ... + q_{m-1} e^{m-1} with e^m = 1 and
  no further reduction,
* ``COMPLEX`` -- double-precision complex numbers,

and :class:`RingSeries`, a sparse series over one of them with sums,
scalings, truncation and the complex embedding e -> exp(2*pi*i/m).  On
top: ``rotate`` and ``scaled_root_series``, the substitutions x_j ->
e^{i_j} x_j of exact series over Q[Z/m] that give every root branch in
closed form.  ``ring_series`` reads a library series (rational) as a
RingSeries, so every oracle takes either.

Q[Z/m] has zero divisors, so a nonzero element can embed to 0.
``is_zero_complex`` decides that in the field oracle, by reducing the
element into Q[t]/Phi_m(t), where the library takes a remainder by Phi_m.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache

from field_oracle import cyclotomic_field
from mellinsys.profiles import dot
from mellinsys.series import principal_series


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
        its image in Q[t]/Phi_m(t) is 0."""
        field = cyclotomic_field(self.m)
        return field.is_zero(field.from_group_ring(a))

    def to_complex(self, a) -> complex:
        return sum(float(x) * self._embedding[k]
                   for k, x in enumerate(a) if x)

    @staticmethod
    def coeff_text(a) -> str:
        """``[q_0, ..., q_{m-1}]``; a zero coordinate prints as "0"."""
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


class RingSeries:
    """Sparse series sum_s c_s x^s over ``ring``, reliable for |s| <= order.

    Sums and scalings never report terms beyond the common reliable order.
    """

    __slots__ = ("ring", "n_vars", "order", "terms")

    def __init__(self, ring, n_vars, order, terms):
        if order < 0:
            raise ValueError("truncation order must be non-negative")
        self.ring = ring
        self.n_vars = n_vars
        self.order = order
        self.terms = {s: c for s, c in terms.items()
                      if sum(s) <= order and not ring.is_zero(c)}

    @classmethod
    def zero(cls, ring, n_vars, order):
        return cls(ring, n_vars, order, {})

    @classmethod
    def constant(cls, ring, n_vars, order, value):
        return cls(ring, n_vars, order, {(0,) * n_vars: value})

    @classmethod
    def variable(cls, ring, n_vars, order, j):
        exp = tuple(1 if i == j else 0 for i in range(n_vars))
        return cls(ring, n_vars, order, {exp: ring.one})

    def coefficient(self, exp):
        return self.terms.get(tuple(exp), self.ring.zero)

    def is_zero(self) -> bool:
        return not self.terms

    def max_abs(self) -> float:
        """Largest coefficient magnitude under the complex embedding; a
        coefficient whose embedding vanishes exactly counts as 0."""
        ring = self.ring
        worst = 0.0
        for c in self.terms.values():
            v = abs(ring.to_complex(c))
            if v > worst and not ring.is_zero_complex(c):
                worst = v
        return worst

    def sorted_items(self):
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def _check_compatible(self, other):
        if self.n_vars != other.n_vars:
            raise ValueError("variable-count mismatch")
        if self.ring != other.ring:
            raise ValueError("ring mismatch")

    def __add__(self, other):
        if not isinstance(other, RingSeries):
            return NotImplemented
        self._check_compatible(other)
        order = min(self.order, other.order)
        terms = dict(self.terms)
        for s, c in other.terms.items():
            terms[s] = self.ring.add(terms.get(s, self.ring.zero), c)
        return RingSeries(self.ring, self.n_vars, order, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RingSeries(self.ring, self.n_vars, self.order,
                          {s: self.ring.neg(c) for s, c in self.terms.items()})

    def scale_rational(self, q):
        return RingSeries(
            self.ring, self.n_vars, self.order,
            {s: self.ring.scale_rational(c, q) for s, c in self.terms.items()})

    def scale(self, coeff):
        """Multiply by a ring element."""
        return RingSeries(
            self.ring, self.n_vars, self.order,
            {s: self.ring.mul(c, coeff) for s, c in self.terms.items()})

    def truncate(self, order: int):
        if order >= self.order:
            return self
        return RingSeries(self.ring, self.n_vars, order, self.terms)

    def to_complex(self):
        """Embed into the complex-float ring (e -> exp(2*pi*i/m))."""
        return RingSeries(
            COMPLEX, self.n_vars, self.order,
            {s: self.ring.to_complex(c) for s, c in self.terms.items()})

    def __repr__(self):
        return (f"RingSeries(n={self.n_vars}, order={self.order}, "
                f"ring={self.ring.name}, terms={len(self.terms)})")


def ring_series(f) -> RingSeries:
    """f itself, or a library series (rational) as a RingSeries."""
    if isinstance(f, RingSeries):
        return f
    return RingSeries(RATIONAL, f.n_vars, f.order, f.terms)


def rotate(series, index, m: int | None = None,
           shift: int = 0) -> RingSeries:
    """Substitute x_j -> e^{i_j} x_j in an exact series, over Q[Z/m].

    The coefficient at exponent s picks up the factor e^{<I, s> mod m},
    times e^shift when a shift is given, from the ring's map (c, k) ->
    c e^k: a monomial for a rational c, a cyclic shift in Q[Z/m].  A
    complex series raises ValueError.
    """
    series = ring_series(series)
    if series.ring == COMPLEX:
        raise ValueError("rotate takes an exact series, not a complex one")
    index = tuple(index)
    ring, embed = series.ring.group_ring(m)
    terms = {s: embed(c, shift + dot(index, s))
             for s, c in series.terms.items()}
    return RingSeries(ring, series.n_vars, series.order, terms)


def scaled_root_series(profile, j: int, order: int, twist=None,
                       series=None) -> RingSeries:
    """Branch j of the equation twisted by I: e^j * f(e^{j m_k + i_k} x_k).

    f is the principal root y_pr unless ``series`` is given.  With the
    default twist I = 0 the result is the j-th root branch of the
    untwisted equation, the one taking the value e^j at the origin.  f
    must be exact.  The coefficient at s is f_s e^{j + <index, s>},
    index_k = j m_k + i_k.
    """
    m = profile.m
    if not 0 <= j < m:
        raise ValueError(f"branch index {j} out of range 0..{m - 1}")
    twist = (0,) * profile.n if twist is None else tuple(twist)
    if series is None:
        series = principal_series(profile, order)
    index = tuple(j * mk + ik for mk, ik in zip(profile.m_list, twist))
    return rotate(ring_series(series).truncate(order), index, m, shift=j)
