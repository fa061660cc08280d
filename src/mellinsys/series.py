"""Truncated multivariate power series and the solution bases built on them.

A :class:`TruncatedSeries` stores a sparse map from exponent tuples to
coefficients in one of the rings of :mod:`mellinsys.rings`, together with
an inclusive total-degree bound ``order`` below which every coefficient is
reliable.  Sums and scalings never report terms beyond the common
reliable order; there is no series product.

On top of the arithmetic live the solution-space constructions for the
Mellin system of ``y^m + x_1 y^{m_1} + ... + x_n y^{m_n} - 1 = 0``:

* the principal root's expansion (explicit coefficient formula),
* one series per initial exponent I in B = {0..m-1}^n, supported on
  I + m*N^n, each coefficient a closed-form Pochhammer (Gamma) ratio,
* rotations x_j -> e^{i_j} x_j of exact series over the group ring Q[Z/m],
* congruence subseries and the generating test,
* exact ranks of twists of a rational series over a coset of (Z/m)^n,
  counted from its residue classes (:func:`twist_rank`), and numeric
  ranks of complex series.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import factorial, prod

import numpy as np

from .profiles import ExponentProfile, ProfileError, dot, index_box, var_names
from .rings import COMPLEX, RATIONAL

RANK_TOL = 1e-10  # relative pivot tolerance of every numeric rank


class TruncatedSeries:
    """Sparse series sum_s c_s x^s, reliable for |s| <= order."""

    __slots__ = ("ring", "n_vars", "order", "terms")

    def __init__(self, ring, n_vars, order, terms):
        if order < 0:
            raise ValueError("truncation order must be non-negative")
        self.ring = ring
        self.n_vars = n_vars
        self.order = order
        self.terms = {s: c for s, c in terms.items()
                      if sum(s) <= order and not ring.is_zero(c)}

    # -- constructors -------------------------------------------------------

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

    # -- bookkeeping ---------------------------------------------------------

    def coefficient(self, exp):
        return self.terms.get(tuple(exp), self.ring.zero)

    def is_zero(self) -> bool:
        return not self.terms

    def max_abs(self) -> float:
        """Largest coefficient magnitude under the complex embedding.

        A group-ring coefficient whose embedding vanishes exactly in
        Q(zeta_m) counts as 0, so an exact identity measures exactly 0.0.
        The exact test runs only for a magnitude that would raise the
        maximum.
        """
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

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        order = min(self.order, other.order)
        terms = dict(self.terms)
        for s, c in other.terms.items():
            terms[s] = self.ring.add(terms.get(s, self.ring.zero), c)
        return TruncatedSeries(self.ring, self.n_vars, order, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return TruncatedSeries(self.ring, self.n_vars, self.order,
                               {s: self.ring.neg(c) for s, c in self.terms.items()})

    def scale_rational(self, q):
        return TruncatedSeries(
            self.ring, self.n_vars, self.order,
            {s: self.ring.scale_rational(c, q) for s, c in self.terms.items()})

    def scale(self, coeff):
        """Multiply by a ring element."""
        return TruncatedSeries(
            self.ring, self.n_vars, self.order,
            {s: self.ring.mul(c, coeff) for s, c in self.terms.items()})

    def truncate(self, order: int):
        if order >= self.order:
            return self
        return TruncatedSeries(self.ring, self.n_vars, order, self.terms)

    def to_complex(self):
        """Embed into the complex-float ring (e -> exp(2*pi*i/m))."""
        return TruncatedSeries(
            COMPLEX, self.n_vars, self.order,
            {s: self.ring.to_complex(c) for s, c in self.terms.items()})

    def __repr__(self):
        return (f"TruncatedSeries(n={self.n_vars}, order={self.order}, "
                f"ring={self.ring.name}, terms={len(self.terms)})")

    def __str__(self):
        return format_series(self)


def exponents_up_to(n_vars: int, order: int):
    """All exponent tuples of total degree <= order, lexicographic."""
    if n_vars == 0:
        yield ()
        return

    def rec(prefix, remaining, slots):
        if slots == 1:
            for v in range(remaining + 1):
                yield prefix + (v,)
            return
        for v in range(remaining + 1):
            yield from rec(prefix + (v,), remaining - v, slots - 1)

    yield from rec((), order, n_vars)


# ---------------------------------------------------------------------------
# Solution-space constructions
# ---------------------------------------------------------------------------

def _step_product(x: int, step: int, k: int) -> int:
    """prod_{i<k} (x + i*step), a Pochhammer product; 1 for k <= 0."""
    return prod(range(x, x + k * step, step))


def principal_coefficient(profile: ExponentProfile, nu) -> Fraction:
    """Coefficient of x^nu in the principal root's expansion.

    ((-1)^|nu| / m^|nu|) * prod_{mu=1}^{|nu|-1} (<M,nu> - m*mu + 1) / nu!
    with the empty product equal to 1.
    """
    total, m = sum(nu), profile.m
    num = _step_product(dot(profile.m_list, nu) + 1 - m, -m, total - 1)
    denom = m**total * prod(map(factorial, nu))
    return Fraction((-1) ** total * num, denom)


def principal_series(profile: ExponentProfile, order: int) -> TruncatedSeries:
    """Expansion of the root taking the value 1 at the origin."""
    if order < 0:
        raise ValueError("order must be non-negative")
    terms = {}
    for nu in exponents_up_to(profile.n, order):
        c = principal_coefficient(profile, nu)
        if c:
            terms[nu] = c
    return TruncatedSeries(RATIONAL, profile.n, order, terms)


def convenient_basis_series(profile: ExponentProfile, index,
                            order: int) -> TruncatedSeries:
    """The basis solution with initial monomial x^I, I in B.

    Support lies in I + m*N^n and the coefficient at I is 1.  With
    R(x, step, k) = prod_{i<k} (x + i*step), M' = m - M and k = <M,p>,
    the coefficient at v = I + m*p is the Gamma-ratio

        (-1)^k R(<M,I> + 1, m, k) R(<M',I> - 1, m, m|p| - k) * I!
        / (m^{m|p|} * v!)

    into which the coefficient recurrence of the x^m-cleared operators
    telescopes along any path from I to v, since <M,p> + <M',p> = m|p|.
    Path independence therefore holds by construction.
    """
    index = tuple(index)
    m, n = profile.m, profile.n
    if len(index) != n or any(not (0 <= v < m) for v in index):
        raise ProfileError(f"index {index} lies outside the box B")
    if order < sum(index):
        raise ValueError("order must be at least |I|")
    a = dot(profile.m_list, index) + 1
    b = dot(profile.mprime_list, index) - 1
    scale = prod(map(factorial, index))
    terms = {}
    for p in exponents_up_to(n, (order - sum(index)) // m):
        k, steps = dot(profile.m_list, p), m * sum(p)
        num = _step_product(a, m, k) * _step_product(b, m, steps - k)
        if num:
            v = tuple(i + m * pi for i, pi in zip(index, p))
            terms[v] = Fraction((-1) ** k * num * scale,
                                m**steps * prod(map(factorial, v)))
    return TruncatedSeries(RATIONAL, n, order, terms)


def rotate(series: TruncatedSeries, index, m: int | None = None,
           shift: int = 0) -> TruncatedSeries:
    """Substitute x_j -> e^{i_j} x_j in an exact series, over Q[Z/m].

    The coefficient at exponent s picks up the factor e^{<I, s> mod m},
    times e^shift when a shift is given, from the ring's map (c, k) ->
    c e^k: a monomial for a rational c, a cyclic shift in Q[Z/m].  A
    complex series raises ValueError.
    """
    if series.ring == COMPLEX:
        raise ValueError("rotate takes an exact series, not a complex one")
    index = tuple(index)
    ring, embed = series.ring.group_ring(m)
    terms = {s: embed(c, shift + dot(index, s))
             for s, c in series.terms.items()}
    return TruncatedSeries(ring, series.n_vars, series.order, terms)


def scaled_root_series(profile: ExponentProfile, j: int, order: int,
                       twist=None, series=None) -> TruncatedSeries:
    """Branch j of the equation twisted by I: e^j * f(e^{j m_k + i_k} x_k).

    f is the principal root y_pr unless ``series`` is given; callers that
    need many branches pass a precomputed y_pr.  With the default twist
    I = 0 the result is the j-th root branch of the untwisted equation,
    the one taking the value e^j at the origin.  f must be exact.

    The coefficient at s is f_s e^{j + <index, s>}, index_k = j m_k + i_k:
    one cyclic shift of its coordinates, in a single pass over f.
    """
    m = profile.m
    if not 0 <= j < m:
        raise ValueError(f"branch index {j} out of range 0..{m - 1}")
    twist = (0,) * profile.n if twist is None else tuple(twist)
    if series is None:
        series = principal_series(profile, order)
    index = tuple(j * mk + ik for mk, ik in zip(profile.m_list, twist))
    return rotate(series.truncate(order), index, m, shift=j)


def subseries(series: TruncatedSeries, index, m: int) -> TruncatedSeries:
    """Terms with exponent congruent to the index mod m, componentwise."""
    index = tuple(v % m for v in index)
    terms = {s: c for s, c in series.terms.items()
             if all(v % m == i for v, i in zip(s, index))}
    return TruncatedSeries(series.ring, series.n_vars, series.order, terms)


def is_generating(series: TruncatedSeries, profile: ExponentProfile) -> bool:
    """Whether every initial exponent I in B carries a nonzero coefficient.

    A coefficient counts as zero when its complex embedding vanishes
    exactly, as a group-ring coefficient can.
    """
    need = profile.n * (profile.m - 1)
    if series.order < need:
        raise ValueError(f"order {series.order} < n(m-1) = {need}: "
                         "the box is not fully visible")
    for idx in index_box(profile):
        c = series.terms.get(idx)
        if c is None or series.ring.is_zero_complex(c):
            return False
    return True


# ---------------------------------------------------------------------------
# Linear independence
# ---------------------------------------------------------------------------

def rank_complex(rows) -> int:
    """Numeric rank via singular values, relative pivot tolerance RANK_TOL."""
    if not rows or not rows[0]:
        return 0
    a = np.array(rows, dtype=complex)
    sv = np.linalg.svd(a, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > RANK_TOL * sv[0]))


def independence_rank(series_list) -> int:
    """Numeric rank of the coefficients of complex series at RANK_TOL;
    exact series raise ValueError (see ``twist_rank``)."""
    if not series_list:
        return 0
    first = series_list[0]
    if first.ring != COMPLEX:
        raise ValueError(f"independence_rank is numeric: got {first.ring.name}"
                         " series")
    for s in series_list[1:]:
        first._check_compatible(s)
        if s.order != first.order:
            raise ValueError("order mismatch")
    cols = sorted({e for s in series_list for e in s.terms},
                  key=lambda e: (sum(e), e))
    return rank_complex([[s.terms.get(e, 0j) for e in cols]
                         for s in series_list])


def twist_rank(f: TruncatedSeries, twists, m: int) -> int:
    """Exact rank over Q(zeta_m) of the twists f(zeta^{t_1} x_1, ...,
    zeta^{t_n} x_n) of a rational f over a coset t0 + H of (Z/m)^n.

    Dividing column s of the rows f_s zeta^{<t, s>} by f_s zeta^{<t0, s>}
    leaves the character h -> zeta^{<h, s>} of H, fixed by s mod m.
    Distinct characters are linearly independent, so the rank is their
    number on the residue classes of supp f.  Twists that are not a coset
    raise ValueError.  The SVD rank of the complex twists is an
    independent witness; a mismatch raises ArithmeticError.
    """
    if f.ring != RATIONAL:
        raise ValueError("twist_rank needs a rational series, got "
                         f"{f.ring.name}")
    twists = [tuple(t) for t in twists]
    group = {tuple((a - b) % m for a, b in zip(t, twists[0])) for t in twists}
    if not group or any(tuple((a + b) % m for a, b in zip(g, h)) not in group
                        for g in group for h in group):
        raise ValueError("the twists are not a coset of a subgroup of "
                         f"(Z/{m})^{f.n_vars}")
    classes = {s: tuple(v % m for v in s) for s in f.terms}
    # <t, s> = <t, s mod m> (mod m): one phase per twist and class, and the
    # character of H on a class is its phases relative to twists[0]
    phases = {cls: [dot(t, cls) % m for t in twists]
              for cls in set(classes.values())}
    exact = len({tuple((k - ks[0]) % m for k in ks)
                 for ks in phases.values()})
    zeta = [cmath.exp(2j * cmath.pi * k / m) for k in range(m)]
    terms = [(phases[classes[s]], float(c)) for s, c in f.terms.items()]
    numeric = rank_complex([[c * zeta[ks[i]] for ks, c in terms]
                            for i in range(len(twists))])
    if exact != numeric:
        raise ArithmeticError(
            f"exact twist rank {exact} != numeric embedded rank {numeric}; "
            "numeric tolerance is unsound here")
    return exact


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def monomial_text(exp, names) -> str:
    """``x1^2 x3`` for the exponent (2, 0, 1); "1" for the zero exponent."""
    return " ".join(f"{nm}^{e}" if e > 1 else nm
                    for nm, e in zip(names, exp) if e) or "1"


def format_series(series: TruncatedSeries, letter: str = "x") -> str:
    """Canonical one-term-per-line rendering, sorted by degree then lex."""
    names = var_names(series.n_vars, letter)
    if series.is_zero():
        return "0"
    coeff_text = series.ring.coeff_text
    return "\n".join(f"{coeff_text(c)} * {monomial_text(exp, names)}"
                     for exp, c in series.sorted_items())
