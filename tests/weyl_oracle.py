"""Test oracles for the Weyl-algebra kernels.

A theta-polynomial here is a plain map {theta-monomial: Fraction}; the
oracles build every one from its affine factors (``linear``) and import no
theta kernel of the library, so they stay independent of what they check.

The library turns a theta-polynomial into the terms x^i D^i by forward
differences of its values on a grid; ``theta_poly_by_composition`` is the
direct expansion it is checked against, composing theta_j = x_j D_j with
itself in the canonical-form Weyl algebra.

The library composes operators over a common denominator, in integers;
``compose_by_fractions`` accumulates the same sums one Fraction at a time,
``theta_mul_by_fractions`` multiplies theta maps that way, and
``theta_product_by_composition`` expands a Fraction product of factors by
composition.  ``horn_w_by_own_factors`` and ``horn_x_by_own_factors``
build the two Horn forms from their own factors that way, with a composed
left factor x_j^e, where the library evaluates L_j and m^m T_j on a grid
and assembles both forms by key shifts; ``mellin_by_composition`` does
the same for the indicial factors.

``equals_up_to_rational_scale`` and ``factorization_check`` compare
operators for the factorization and Horn/Mellin tests;
``euler_product_identity`` gives both sides of x^m D^m = theta (theta - 1)
... (theta - m + 1), the left by composition and the right by the
library's forward-difference kernel.

The library reads the least multiplier x^e with x^e M(m, m-1) = L o
(theta - 1) off the x-valuation of the displayed left factor;
``least_theta_multiplier`` finds it by exact right division by theta - 1
(``right_divide_theta_minus_one``) for e = 0, 1, ..., m.

``from_univariate`` writes a univariate operator sum_i p_i(x) D^i from
ascending coefficient lists, the form the displayed factorizations take.

``operator_to_json`` is the documented JSON form of an operator as a list
of term dicts; ``mellinsys operators --json`` writes the same text from
term rows without building it.  ``render`` and ``render_ode`` are the
text forms of ``mellinsys operators``, written term by term with their
own sort, factor lists and coefficient polynomials, which the library's
``DiffOperator.render`` and ``render_ode`` are checked against.

The library applies operators to rational series only; ``apply`` is the
pair-by-pair action on a series over any ring of ``ring_oracle``, one
(operator term, series term) pair at a time, which the branch oracles
run on branches over Q[Z/m] and on complex jets.
"""

from fractions import Fraction
from functools import reduce
from itertools import product
from math import comb, perm, prod

from field_oracle import _poly_sub
from mellinsys import weyl
from mellinsys.profiles import var_names
from mellinsys.weyl import DiffOperator, mellin_operator_1d
from ring_oracle import RingSeries, ring_series


def from_univariate(coeff_polys) -> DiffOperator:
    """Build sum_i p_i(x) D^i from ascending coefficient lists."""
    terms = {}
    for i, poly in enumerate(coeff_polys):
        for deg, c in enumerate(poly):
            if c:
                terms[((deg,), (i,))] = (
                    terms.get(((deg,), (i,)), Fraction(0)) + Fraction(c))
    return DiffOperator(1, terms)


def operator_power(op: DiffOperator, k: int) -> DiffOperator:
    """op composed with itself k times, by repeated squaring."""
    result = DiffOperator.identity(op.n_vars)
    base = op
    while k:
        if k & 1:
            result = result * base
        k >>= 1
        if k:
            base = base * base
    return result


def linear(weights, const) -> dict:
    """{theta-monomial: Fraction} of sum w_j theta_j + const, zeros dropped."""
    n = len(weights)
    terms = {(0,) * n: Fraction(const)}
    for j, w in enumerate(weights):
        terms[tuple(1 if i == j else 0 for i in range(n))] = Fraction(w)
    return {k: c for k, c in terms.items() if c}


def theta_poly_by_composition(n_vars, coeffs) -> DiffOperator:
    """Canonical form of sum c theta^k, one composed monomial at a time."""
    powers = {}
    total = DiffOperator.zero(n_vars)
    for k, c in sorted(coeffs.items()):
        term = DiffOperator.identity(n_vars).scale(c)
        for j, e in enumerate(k):
            if e:
                if (j, e) not in powers:
                    powers[j, e] = operator_power(
                        DiffOperator.theta(n_vars, j), e)
                term = term * powers[j, e]
        total = total + term
    return total


def theta_mul_by_fractions(p, q) -> dict:
    """p * q, accumulated term by term in Fractions, zeros dropped."""
    out = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            key = tuple(a + b for a, b in zip(k1, k2))
            out[key] = out.get(key, Fraction(0)) + Fraction(c1) * c2
    return {k: c for k, c in out.items() if c}


def theta_product_by_composition(n_vars, factors) -> DiffOperator:
    """The Fraction product of the theta maps, expanded by composition."""
    return theta_poly_by_composition(
        n_vars, reduce(theta_mul_by_fractions, factors,
                       {(0,) * n_vars: Fraction(1)}))


def compose_by_fractions(p, q) -> DiffOperator:
    """p o q, accumulated term by term in Fractions.

    Per variable, D^b x^a = sum_k C(b, k) a!/(a-k)! x^{a-k} D^{b-k}.
    """
    out = {}
    for (a1, b1), c1 in p.terms.items():
        for (a2, b2), c2 in q.terms.items():
            for ks in product(*(range(min(b, a) + 1) for b, a in zip(b1, a2))):
                f = prod(comb(b, k) * perm(a, k) for b, a, k in zip(b1, a2, ks))
                key = (tuple(x + y - k for x, y, k in zip(a1, a2, ks)),
                       tuple(x + y - k for x, y, k in zip(b1, b2, ks)))
                out[key] = out.get(key, Fraction(0)) + c1 * c2 * f
    return DiffOperator(p.n_vars, out)


def _horn_by_own_factors(profile, s, x_power) -> list[DiffOperator]:
    """lead_j - x_power(j) o tail_j, with every product multiplied out from
    the factors
        lead_j = prod_{k<m}(s m theta_j - k),
        tail_j = prod_{k<m_j}(-s <M,theta> - 1/m - k)
                 prod_{k<m'_j}(-s <M',theta> + 1/m - k)."""
    m, n = profile.m, profile.n
    out = []
    for j in range(n):
        lead = theta_product_by_composition(
            n, [linear([s * m if i == j else 0 for i in range(n)], -k)
                for k in range(m)])
        tail = theta_product_by_composition(
            n, [linear([-s * v for v in profile.m_list], Fraction(-1, m) - k)
                for k in range(profile.m_list[j])]
            + [linear([-s * v for v in profile.mprime_list],
                      Fraction(1, m) - k)
               for k in range(profile.mprime_list[j])])
        out.append(lead - compose_by_fractions(x_power(j), tail))
    return out


def horn_w_by_own_factors(profile) -> list[DiffOperator]:
    """H_j = prod_{k<m}(m theta_j - k) - w_j tail_w(theta),
    tail_w = prod_{k<m_j}(-<M,theta> - 1/m - k)
             prod_{k<m'_j}(-<M',theta> + 1/m - k), in the variables w."""
    return _horn_by_own_factors(
        profile, 1, lambda j: DiffOperator.x_power(profile.n, j))


def horn_x_by_own_factors(profile) -> list[DiffOperator]:
    """H'_j = prod_{k<m}(theta_j - k) - (-1)^{m'_j} x_j^m tail_x(theta),
    tail_x = prod_{k<m_j}(-<M,theta>/m - 1/m - k)
             prod_{k<m'_j}(-<M',theta>/m + 1/m - k)."""
    m = profile.m
    return _horn_by_own_factors(
        profile, Fraction(1, m),
        lambda j: DiffOperator.x_power(profile.n, j, m,
                                       coeff=(-1) ** profile.mprime_list[j]))


def mellin_by_composition(profile) -> list[DiffOperator]:
    """P_j(theta) - (-1)^{m_j} m^m D_j^m, with P_j the Fraction product of
    its indicial factors expanded by composition."""
    m, n = profile.m, profile.n
    out = []
    for j in range(n):
        indicial = theta_product_by_composition(
            n, [linear(profile.m_list, m * k + 1)
                for k in range(profile.m_list[j])]
            + [linear(profile.mprime_list, m * k - 1)
               for k in range(profile.mprime_list[j])])
        out.append(indicial - DiffOperator.partial(
            n, j, m, coeff=(-1) ** profile.m_list[j] * m**m))
    return out


def equals_up_to_rational_scale(opa: DiffOperator, opb: DiffOperator):
    """The constant c with opa = c * opb, or None if not proportional."""
    if opa.is_zero() or opb.is_zero():
        return Fraction(0) if opa.is_zero() and opb.is_zero() else None
    if set(opa.terms) != set(opb.terms):
        return None
    ratio = None
    for key, ca in opa.terms.items():
        r = ca / opb.terms[key]
        if ratio is None:
            ratio = r
        elif r != ratio:
            return None
    return ratio


def factorization_check(left: DiffOperator, right: DiffOperator,
                        target: DiffOperator,
                        multiplier: DiffOperator | None = None) -> bool:
    """Whether multiplier o target = left o right in canonical form."""
    lhs = target if multiplier is None else multiplier * target
    return lhs == left * right


def euler_product_identity(n_vars: int, j: int, m: int) -> tuple[DiffOperator, DiffOperator]:
    """Both sides of x_j^m D_j^m = prod_{k=0}^{m-1} (theta_j - k)."""
    lhs = DiffOperator.x_power(n_vars, j, m) * DiffOperator.partial(n_vars, j, m)
    falling = weyl._falling_form(n_vars, m, [
        prod(l[j] - k for k in range(m)) for l in weyl._grid(n_vars, m)[0]])
    rhs = DiffOperator(n_vars, {(i, i): c for i, c in falling.items()})
    return lhs, rhs


def right_divide_theta_minus_one(op: DiffOperator):
    """Exact quotient L with op = L o (theta - 1), or None.

    Writing op = sum t_i(x) D^i and L = sum l_i(x) D^i, composing with
    x D - 1 gives l_{i-1} x = t_i - (i-1) l_i, solved top-down; each step
    must divide exactly by x and the constant terms must close up.
    """
    if op.n_vars != 1:
        raise ValueError("univariate operators only")
    if op.is_zero():
        return DiffOperator.zero(1)
    t = op.univariate_coeff_polys()
    r = len(t) - 1
    l: list = [None] * r
    carry = [Fraction(0)]
    for i in range(r, 0, -1):
        ti = t[i] if i < len(t) else []
        num = _poly_sub(ti, [c * (i - 1) for c in carry])
        if num and num[0] != 0:
            return None
        quotient = num[1:] if num else []
        l[i - 1] = quotient
        carry = quotient
    check = _poly_sub(t[0], [-c for c in l[0]])
    if any(check):
        return None
    out = {}
    for i, poly in enumerate(l):
        for deg, c in enumerate(poly):
            if c:
                out[((deg,), (i,))] = c
    return DiffOperator(1, out)


def least_theta_multiplier(m: int):
    """(e, L) with x^e M(m, m-1) = L o (theta - 1) for the least e in 0..m,
    or None."""
    mel = mellin_operator_1d(m, m - 1)
    for e in range(m + 1):
        quotient = right_divide_theta_minus_one(
            DiffOperator.x_power(1, 0, e) * mel)
        if quotient is not None:
            return e, quotient
    return None


def apply(op: DiffOperator, series) -> RingSeries:
    """op applied to a series over any ring.

    A coefficient of the result at degree D collects input terms of
    degree D - |a| + |b|, so the reliable output order is
    min over terms of (series.order + |a| - |b|).
    """
    series = ring_series(series)
    if op.n_vars != series.n_vars:
        raise ValueError("variable-count mismatch")
    ring = series.ring
    if not op.terms:
        return RingSeries.zero(ring, series.n_vars, series.order)
    out_order = min(series.order + sum(a) - sum(b) for (a, b) in op.terms)
    if out_order < 0:
        raise ValueError("series order too low for this operator")
    out: dict = {}
    for (a, b), c in op.terms.items():
        for s, coeff in series.terms.items():
            if any(si < bi for si, bi in zip(s, b)):
                continue
            fall = prod(perm(si, bi) for si, bi in zip(s, b))
            exp = tuple(si - bi + ai for si, bi, ai in zip(s, b, a))
            if sum(exp) > out_order:
                continue
            val = ring.scale_rational(coeff, c * fall)
            out[exp] = ring.add(out.get(exp, ring.zero), val)
    return RingSeries(ring, series.n_vars, out_order, out)


def operator_to_json(op):
    """The docs/schema.md operator: one {"x", "d", "coeff"} dict per term."""
    return [{"x": list(a), "d": list(b), "coeff": str(c)}
            for (a, b), c in op.sorted_terms()]


def render(op: DiffOperator, letter: str = "x") -> str:
    """``c x^a D^b`` terms by descending |b|, then b, then a, joined by
    " + " with "+ -" written "- "; "0" for no terms."""
    if not op.terms:
        return "0"
    names = var_names(op.n_vars, letter)
    dnames = var_names(op.n_vars, "D")
    parts = []
    for (a, b), c in sorted(op.terms.items(),
                            key=lambda kv: (-sum(kv[0][1]), kv[0][1],
                                            kv[0][0])):
        factors = [f"{nm}^{e}" if e > 1 else nm
                   for nm, e in zip(names, a) if e]
        factors += [f"{nm}^{e}" if e > 1 else nm
                    for nm, e in zip(dnames, b) if e]
        mono = " ".join(factors)
        if not mono:
            parts.append(str(c))
        elif c == 1:
            parts.append(mono)
        elif c == -1:
            parts.append(f"-{mono}")
        else:
            parts.append(f"{c} {mono}")
    return " + ".join(parts).replace("+ -", "- ")


def _poly_text(poly: dict, letter: str) -> str:
    """A polynomial {degree: coefficient} by descending degree."""
    parts = []
    for deg in sorted(poly, reverse=True):
        c = poly[deg]
        xs = letter if deg == 1 else f"{letter}^{deg}"
        if deg == 0:
            parts.append(str(c))
        elif c == 1:
            parts.append(xs)
        elif c == -1:
            parts.append(f"-{xs}")
        else:
            parts.append(f"{c} {xs}")
    return " + ".join(parts)


def render_ode(op: DiffOperator, letter: str = "x") -> str:
    """A univariate operator as sum_i p_i(x) D^i, highest i first, with
    p_i in parentheses when it has more than one term."""
    polys: dict = {}
    for ((a,), (b,)), c in op.terms.items():
        if c:
            polys.setdefault(b, {})[a] = c
    parts = []
    for i in sorted(polys, reverse=True):
        ptxt = _poly_text(polys[i], letter)
        if i == 0:
            parts.append(ptxt)
        else:
            dpart = "D" if i == 1 else f"D^{i}"
            parts.append(f"({ptxt}) {dpart}" if len(polys[i]) > 1
                         else f"{ptxt} {dpart}")
    return " + ".join(parts).replace("+ -", "- ")
