"""Truncated multivariate power series and the solution bases built on them.

A :class:`TruncatedSeries` stores a sparse map from exponent tuples to
rational coefficients, together with an inclusive total-degree bound
``order`` below which every coefficient is reliable.  Every exact object
of the paper is such a series: the principal root y_pr, the convenient
basis and y_pr log y_pr.  The sums over root branches are Q(zeta_m)-
weightings of them, which :mod:`mellinsys.roots` reads class by class
with no series of their own; its complex witnesses are plain
{exponent: complex} maps.  There is no series arithmetic.

The solution-space constructions for the Mellin system of
``y^m + x_1 y^{m_1} + ... + x_n y^{m_n} - 1 = 0``:

* the principal root's expansion (explicit coefficient formula),
* one series per initial exponent I in B = {0..m-1}^n, supported on
  I + m*N^n, each coefficient a closed-form Pochhammer (Gamma) ratio,
* the generating test,
* exact ranks of twists of a rational series over a coset of (Z/m)^n,
  counted from its residue classes (:func:`twist_rank`), and numeric
  ranks of complex maps.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

import numpy as np

from .profiles import ExponentProfile, ProfileError, dot, index_box
from .rings import roots_of_unity

RANK_TOL = 1e-10  # relative pivot tolerance of every numeric rank


class TruncatedSeries:
    """Sparse series sum_s c_s x^s with rational c_s, reliable for
    |s| <= order."""

    __slots__ = ("n_vars", "order", "terms")

    def __init__(self, n_vars, order, terms):
        if order < 0:
            raise ValueError("truncation order must be non-negative")
        self.n_vars = n_vars
        self.order = order
        self.terms = {s: c for s, c in terms.items() if sum(s) <= order and c}

    def coefficient(self, exp):
        return self.terms.get(tuple(exp), Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def max_abs(self) -> float:
        """Largest coefficient magnitude, as a float."""
        return max((abs(float(c)) for c in self.terms.values()), default=0.0)

    def sorted_items(self):
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __repr__(self):
        return (f"TruncatedSeries(n={self.n_vars}, order={self.order}, "
                f"terms={len(self.terms)})")


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
    """Expansion of the root taking the value 1 at the origin.

    The walk keeps |nu|, <M,nu> and nu! running, in the order of
    ``exponents_up_to``, and the numerator of ``principal_coefficient``
    by (<M,nu>, |nu|), on which alone it depends: one Fraction per term.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    m, n, weights = profile.m, profile.n, profile.m_list
    facts = [factorial(v) for v in range(order + 1)]
    scale = [(-m) ** total for total in range(order + 1)]
    numerators: dict = {}
    terms = {}
    # (prefix, |prefix|, <M,prefix>, prefix!) over the first n - 1
    # coordinates; expanding each level in order keeps the walk lexicographic
    heads = [((), 0, 0, 1)]
    for w in weights[:-1]:
        heads = [(prefix + (v,), total + v, u + w * v, fact * facts[v])
                 for prefix, total, u, fact in heads
                 for v in range(order - total + 1)]
    w = weights[-1]
    for prefix, total, u, fact in heads:
        for v in range(order - total + 1):
            key = (u + w * v, total + v)
            num = numerators.get(key)
            if num is None:
                num = numerators[key] = _step_product(
                    key[0] + 1 - m, -m, key[1] - 1)
            if num:
                terms[prefix + (v,)] = Fraction(
                    num, scale[key[1]] * fact * facts[v])
    return TruncatedSeries(n, order, terms)


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
    return TruncatedSeries(n, order, terms)


def is_generating(series: TruncatedSeries, profile: ExponentProfile) -> bool:
    """Whether every initial exponent I in B carries a nonzero coefficient."""
    need = profile.n * (profile.m - 1)
    if series.order < need:
        raise ValueError(f"order {series.order} < n(m-1) = {need}: "
                         "the box is not fully visible")
    return all(idx in series.terms for idx in index_box(profile))


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


def independence_rank(maps) -> int:
    """Numeric rank at RANK_TOL of {exponent: complex} maps, one row each
    over the exponents of them all sorted by degree (an exact rank is a
    ``twist_rank``)."""
    cols = sorted({e for f in maps for e in f}, key=lambda e: (sum(e), e))
    return rank_complex([[f.get(e, 0j) for e in cols] for f in maps])


def _is_subgroup(group: set, m: int) -> bool:
    """Whether a set of vectors mod m is a subgroup of (Z/m)^n.

    The span of its elements grows one generator g at a time, as the union
    of the cosets span + k g up to the first k g in the span.  A generator
    outside the span at least doubles it, and the growth stops as soon as
    the span outgrows the set, so the work is O(|group| log |group|).  The
    set is a subgroup iff it holds its whole span.
    """
    if not group:
        return False
    span = {(0,) * len(next(iter(group)))}
    for g in group:
        if g in span:
            continue
        grown, shift = set(span), g
        while shift not in span:
            grown.update(tuple((a + b) % m for a, b in zip(h, shift))
                         for h in span)
            if len(grown) > len(group):
                return False
            shift = tuple((a + b) % m for a, b in zip(shift, g))
        span = grown
    return True


def twist_rank(f: TruncatedSeries, twists, m: int) -> int:
    """Exact rank over Q(zeta_m) of the twists f(zeta^{t_1} x_1, ...,
    zeta^{t_n} x_n) of a rational f over a coset t0 + H of (Z/m)^n.

    Dividing column s of the rows f_s zeta^{<t, s>} by f_s zeta^{<t0, s>}
    leaves the character h -> zeta^{<h, s>} of H, fixed by s mod m.
    Distinct characters are linearly independent, so the rank is their
    number on the residue classes of supp f.  Twists whose translates are
    not a subgroup (``_is_subgroup``) raise ValueError.  The SVD rank of
    the complex twists is an independent witness; a mismatch raises
    ArithmeticError.
    """
    twists = [tuple(t) for t in twists]
    group = {tuple((a - b) % m for a, b in zip(t, twists[0])) for t in twists}
    if not _is_subgroup(group, m):
        raise ValueError("the twists are not a coset of a subgroup of "
                         f"(Z/{m})^{f.n_vars}")
    classes = {s: tuple(v % m for v in s) for s in f.terms}
    # <t, s> = <t, s mod m> (mod m): one phase per twist and class, and the
    # character of H on a class is its phases relative to twists[0]
    phases = {cls: [dot(t, cls) % m for t in twists]
              for cls in set(classes.values())}
    exact = len({tuple((k - ks[0]) % m for k in ks)
                 for ks in phases.values()})
    zeta = roots_of_unity(m)
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
