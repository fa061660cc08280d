"""Exact arithmetic in the Weyl algebra of differential operators.

Operators are kept in the canonical form sum c_{a,b} x^a D^b (all
polynomial factors to the left of all derivatives) with rational
coefficients, so equality of operators is equality of term maps.
Composition uses the per-variable expansion

    D^p x^q = sum_k C(p,k) * q!/(q-k)! * x^{q-k} D^{p-k}

which reduces to the defining relation D x = x D + 1.  Composition puts
each operand over the lcm of its denominators, accumulates integer
numerators, and builds one Fraction per output term.

An operator acts on a series shift by shift: the terms x^a D^b that share
delta = a - b send x^s to w(s) x^{s + delta} with one integer weight w(s),
so an application costs one Fraction per shift and series term.  A Mellin
operator has two shifts, 0 for P_j(theta) and -m e_j for its D_j^m term.

Polynomials in the Euler operators theta_j = x_j D_j are built from
their values, not multiplied out: P(theta) sends x^s to P(s) x^s and
x^i D^i sends it to s!/(s - i)! x^s, so the canonical form of P is
sum_i c_i x^i D^i with c_i = Delta^i P(0) / i!, the Newton forward
differences of P's integer values on the grid |l| <= deg P (the classical
basis change between theta^k and x^i D^i).  One kernel takes these
differences, one pass per variable.  Left multiplication by x_j^e only
raises the x_j exponent of each term, so the Mellin operators, their
x_j^m-cleared forms and both Horn forms are assembled as integer maps by
key shifts, over one denominator, with no operator composition, sum or
negation.  The Horn forms are evaluated from Horn's own factors, not
from the Mellin values, so the Horn/Mellin identity still compares two
independent transcriptions.  Composition remains only in the two
univariate factorization checks.

Built on top of the arithmetic:

* the Mellin system of y^m + x_1 y^{m_1} + ... + x_n y^{m_n} - 1 = 0 and
  its x_j^m-cleared form expressible in Euler operators,
* the Horn companions in the torus variables w_j = (-1)^{m'_j} x_j^m,
  evaluated from Horn's own factors, and their translation back to x by
  theta -> theta / m, with the exact multiplier that recovers the cleared
  Mellin operators,
* the univariate trinomial operator, its discriminant/leading-coefficient
  coincidence, and the two closed-form factorizations (right factor
  theta - 1 for m_1 = m - 1, left factor d/dx for m_1 = 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm, perm, prod
from operator import add, getitem, sub

from .profiles import ExponentProfile, dot, make_profile, var_names
from .series import TruncatedSeries, exponents_up_to, monomial_texts


def _zeros(n):
    return (0,) * n


def _over_common_denominator(coeffs):
    """(den, {key: int}) with coeffs[key] == ints[key] / den.

    den is the lcm of the denominators, so products of two operands can be
    accumulated in integers and divided once per output term.
    """
    den = lcm(*(c.denominator for c in coeffs.values()))
    return den, {k: c.numerator * (den // c.denominator)
                 for k, c in coeffs.items()}


def _fractions(ints, den):
    """{key: ints[key] / den} over the nonzero numerators."""
    return {k: Fraction(v, den) for k, v in ints.items() if v}


class DiffOperator:
    """Canonical-form element sum c_{a,b} x^a D^b of the Weyl algebra.

    An operator is never mutated in place: every operation builds a new
    one.  ``apply`` relies on that, since it keeps the shift table it
    builds from ``terms`` on the operator.
    """

    __slots__ = ("n_vars", "terms", "_shifts")

    def __init__(self, n_vars: int, terms=None):
        self.n_vars = n_vars
        clean = {}
        for (a, b), c in (terms or {}).items():
            if not isinstance(c, Fraction):
                c = Fraction(c)
            if c:
                clean[(tuple(a), tuple(b))] = c
        self.terms = clean
        self._shifts = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, n_vars):
        return cls(n_vars, {})

    @classmethod
    def identity(cls, n_vars):
        z = _zeros(n_vars)
        return cls(n_vars, {(z, z): Fraction(1)})

    @classmethod
    def x_power(cls, n_vars, j, k=1, coeff=1):
        a = tuple(k if i == j else 0 for i in range(n_vars))
        return cls(n_vars, {(a, _zeros(n_vars)): Fraction(coeff)})

    @classmethod
    def partial(cls, n_vars, j, k=1, coeff=1):
        b = tuple(k if i == j else 0 for i in range(n_vars))
        return cls(n_vars, {(_zeros(n_vars), b): Fraction(coeff)})

    @classmethod
    def theta(cls, n_vars, j):
        """The Euler operator x_j D_j."""
        a = tuple(1 if i == j else 0 for i in range(n_vars))
        return cls(n_vars, {(a, a): Fraction(1)})

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def deriv_order(self) -> int:
        """Maximal total derivative order among the terms."""
        return max((sum(b) for (_, b) in self.terms), default=0)

    def __eq__(self, other):
        return (isinstance(other, DiffOperator)
                and self.n_vars == other.n_vars and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n_vars, frozenset(self.terms.items())))

    # -- arithmetic ----------------------------------------------------------

    def _require_same(self, other):
        if self.n_vars != other.n_vars:
            raise ValueError("variable-count mismatch")

    def __add__(self, other):
        if not isinstance(other, DiffOperator):
            return NotImplemented
        self._require_same(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, Fraction(0)) + c
        return DiffOperator(self.n_vars, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return DiffOperator(self.n_vars,
                            {k: -c for k, c in self.terms.items()})

    def scale(self, q):
        q = Fraction(q)
        return DiffOperator(self.n_vars,
                            {k: c * q for k, c in self.terms.items()})

    def __mul__(self, other):
        """Composition self o other."""
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, DiffOperator):
            return NotImplemented
        self._require_same(other)
        den1, ints1 = _over_common_denominator(self.terms)
        den2, ints2 = _over_common_denominator(other.terms)
        out: dict = {}
        for (a1, b1), c1 in ints1.items():
            for (a2, b2), c2 in ints2.items():
                base = c1 * c2
                for k, f in _pass_through(b1, a2):
                    key = (tuple(x + y - z for x, y, z in zip(a1, a2, k)),
                           tuple(x + y - z for x, y, z in zip(b1, b2, k)))
                    out[key] = out.get(key, 0) + base * f
        return DiffOperator(self.n_vars, _fractions(out, den1 * den2))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    # -- action on series ----------------------------------------------------

    def apply(self, series: TruncatedSeries) -> TruncatedSeries:
        """Apply to a rational truncated series.

        A coefficient of the result at degree D collects input terms of
        degree D - |a| + |b|, so the reliable output order is
        min over terms of (series.order + |a| - |b|).

        x^a D^b sends x^s to s!/(s - b)! x^{s + a - b}, so the terms that
        share a shift delta = a - b send f_s x^s to f_s w(s) / den
        x^{s + delta}: den is the operator's common denominator and w(s) =
        sum c prod_i s_i!/(s_i - b_i)! sums their integer numerators c.
        Each (shift, term) pair costs one Fraction.  The table (den, the
        largest b_i, and per shift in order of first appearance delta,
        |delta| and the (b, c) pairs) is built on the first call and kept.
        """
        if self.n_vars != series.n_vars:
            raise ValueError("variable-count mismatch")
        if not self.terms:
            return TruncatedSeries(series.n_vars, series.order, {})
        if self._shifts is None:
            den, ints = _over_common_denominator(self.terms)
            groups: dict = {}
            for (a, b), c in ints.items():
                groups.setdefault(tuple(map(sub, a, b)), []).append((b, c))
            self._shifts = (den, max(max(b) for _, b in self.terms), tuple(
                (delta, sum(delta), tuple(weights))
                for delta, weights in groups.items()))
        den, top, shifts = self._shifts
        out_order = series.order + min(size for _, size, _ in shifts)
        if out_order < 0:
            raise ValueError("series order too low for this operator")
        # falling[v][k] = v!/(v - k)!, which is 0 for k > v
        falling = [tuple(perm(v, k) for k in range(top + 1))
                   for v in range(series.order + 1)]
        out: dict = {}
        for delta, size, weights in shifts:
            reach = out_order - size
            for s, f in series.terms.items():
                if sum(s) > reach:
                    continue
                rows = [falling[v] for v in s]
                w = 0
                for b, c in weights:
                    w += c * prod(map(getitem, rows, b))
                if w:
                    exp = tuple(map(add, s, delta))
                    val = Fraction(f.numerator * w, f.denominator * den)
                    prev = out.get(exp)
                    out[exp] = val if prev is None else prev + val
        return TruncatedSeries(series.n_vars, out_order, out)

    # -- division helpers ----------------------------------------------------

    def left_divide_x_power(self, j: int, e: int) -> "DiffOperator":
        """Exact quotient with x_j^e on the left; fails if any term lacks it."""
        out = {}
        for (a, b), c in self.terms.items():
            if a[j] < e:
                raise ArithmeticError(
                    f"term x^{a} D^{b} is not left-divisible by x_{j + 1}^{e}")
            out[(tuple(v - e if i == j else v for i, v in enumerate(a)), b)] = c
        return DiffOperator(self.n_vars, out)

    def univariate_coeff_polys(self):
        """Ascending coefficient lists p_i(x) of a univariate operator."""
        if self.n_vars != 1:
            raise ValueError("univariate operators only")
        order = self.deriv_order()
        polys = [[] for _ in range(order + 1)]
        for (a, b), c in self.terms.items():
            poly = polys[b[0]]
            while len(poly) <= a[0]:
                poly.append(Fraction(0))
            poly[a[0]] = c
        return polys

    # -- rendering -----------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(),
                      key=lambda kv: (-sum(kv[0][1]), kv[0][1], kv[0][0]))

    def render(self, letter: str = "x") -> str:
        """``c x^a D^b`` terms in :meth:`sorted_terms` order, with each
        monomial from :func:`~mellinsys.series.monomial_texts` over the x
        and D names and a coefficient 1 or -1 read off its text."""
        if not self.terms:
            return "0"
        items = self.sorted_terms()
        names = var_names(self.n_vars, letter) + var_names(self.n_vars, "D")
        monos = monomial_texts([a + b for (a, b), _ in items], names)
        parts = []
        for (_, c), mono in zip(items, monos):
            text = str(c)
            if mono == "1":
                parts.append(text)
            elif text == "1":
                parts.append(mono)
            elif text == "-1":
                parts.append(f"-{mono}")
            else:
                parts.append(f"{text} {mono}")
        return " + ".join(parts).replace("+ -", "- ")

    def render_ode(self, letter: str = "x") -> str:
        """Univariate display grouped by derivative order, highest first."""
        polys = self.univariate_coeff_polys()
        parts = []
        for i in range(len(polys) - 1, -1, -1):
            poly = polys[i]
            if not any(poly):
                continue
            ptxt = _poly_str(poly, letter)
            nterms = sum(1 for c in poly if c)
            if i == 0:
                parts.append(ptxt)
            else:
                dpart = "D" if i == 1 else f"D^{i}"
                parts.append(f"({ptxt}) {dpart}" if nterms > 1
                             else f"{ptxt} {dpart}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"DiffOperator(n={self.n_vars}, terms={len(self.terms)})"

    def __str__(self):
        return self.render()


def _poly_str(poly, letter):
    parts = []
    for deg in range(len(poly) - 1, -1, -1):
        c = poly[deg]
        if not c:
            continue
        if deg == 0:
            parts.append(str(c))
        else:
            xs = letter if deg == 1 else f"{letter}^{deg}"
            if c == 1:
                parts.append(xs)
            elif c == -1:
                parts.append(f"-{xs}")
            else:
                parts.append(f"{c} {xs}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


@lru_cache(maxsize=32)
def _grid(n_vars: int, degree: int):
    """The points l of N^n with |l| <= degree, lexicographic; per variable j
    and k = 1 .. degree, the step (indices of the l with l_j >= k, indices
    of l - e_j); and l! per point."""
    points = list(exponents_up_to(n_vars, degree))
    index = {l: t for t, l in enumerate(points)}
    steps = [tuple(zip(*[(t, index[l[:j] + (l[j] - 1,) + l[j + 1:]])
                         for t, l in enumerate(points) if l[j] >= k]))
             for j in range(n_vars) for k in range(1, degree + 1)]
    return points, steps, [prod(map(factorial, l)) for l in points]


def _falling_form(n_vars: int, degree: int, values) -> dict:
    """{i: c_i}, the nonzero c_i with P(theta) = sum_i c_i x^i D^i, from
    values[t] = P(l) at the points l of ``_grid(n_vars, degree)``.

    P has integer coefficients and total degree at most ``degree``.
    P(theta) x^s = P(s) x^s and x^i D^i x^s = i! C(s, i) x^s, so Newton's
    formula P(s) = sum_i Delta^i P(0) C(s, i) gives c_i = Delta^i P(0) / i!,
    an exact division.  Step (j, k) takes the k-th difference in l_j in
    place: each entry at l with l_j >= k less the one at l - e_j.
    """
    points, steps, facts = _grid(n_vars, degree)
    diff = list(values)
    for targets, sources in steps:
        new = [diff[t] - diff[s] for t, s in zip(targets, sources)]
        for t, v in zip(targets, new):
            diff[t] = v
    return {i: v // f for i, v, f in zip(points, diff, facts) if v}


def _raise_x(a, j, e):
    """a + e e_j: x_j^e o x^a D^b = x^{a + e e_j} D^b."""
    return a[:j] + (a[j] + e,) + a[j + 1:]


def _theta_poly(degree, value) -> DiffOperator:
    """The integer theta-polynomial of the given degree with values
    value(l) at l = 0, ..., degree."""
    falling = _falling_form(1, degree, [value(l) for l in range(degree + 1)])
    return DiffOperator(1, {(i, i): c for i, c in falling.items()})


def _pass_through(b, a):
    """Expansion of D^b o x^a as sum_k f_k x^{a-k} D^{b-k}, per variable."""
    options = []
    for bi, ai in zip(b, a):
        var = [(k, comb(bi, k) * perm(ai, k)) for k in range(min(bi, ai) + 1)]
        options.append(var)
    def rec(i, key, f):
        if i == len(options):
            yield tuple(key), f
            return
        for k, fk in options[i]:
            key.append(k)
            yield from rec(i + 1, key, f * fk)
            key.pop()
    yield from rec(0, [], 1)


# ---------------------------------------------------------------------------
# The Mellin system and its companions
# ---------------------------------------------------------------------------

def _grid_weights(profile: ExponentProfile):
    """The points l of ``_grid(n, m)``, (<M,l>, <M',l> = m|l| - <M,l>) per
    point, and the sets of first and second entries."""
    m = profile.m
    points = _grid(profile.n, m)[0]
    uv = [(u, m * sum(l) - u) for l in points
          for u in (dot(profile.m_list, l),)]
    return points, uv, {u for u, _ in uv}, {v for _, v in uv}


@lru_cache(maxsize=32)
def mellin_system(profile: ExponentProfile) -> tuple[DiffOperator, ...]:
    """The n operators P_j(theta) - (-1)^{m_j} m^m D_j^m in canonical form,

        P_j = prod_{k<m_j}(<M,theta> + mk + 1)
              prod_{k<m'_j}(<M',theta> + mk - 1).

    P_j(l) depends on l only through <M,l> and <M',l>: a product of two
    table lookups, which ``_falling_form`` turns into the terms x^i D^i.
    Built once per recently used profile; callers share the returned tuple.
    """
    m, n = profile.m, profile.n
    _, uv, us, vs = _grid_weights(profile)
    ops = []
    for j in range(n):
        lead = {u: prod(range(u + 1, u + 1 + m * profile.m_list[j], m))
                for u in us}
        tail = {v: prod(range(v - 1, v - 1 + m * profile.mprime_list[j], m))
                for v in vs}
        falling = _falling_form(n, m, [lead[u] * tail[v] for u, v in uv])
        terms = {(i, i): c for i, c in falling.items()}
        d_j = tuple(m if i == j else 0 for i in range(n))
        terms[(_zeros(n), d_j)] = -((-1) ** profile.m_list[j]) * m**m
        ops.append(DiffOperator(n, terms))
    return tuple(ops)


def mellin_system_theta_form(profile: ExponentProfile) -> list[DiffOperator]:
    """The x_j^m-cleared operators x_j^m o M_j.

    x_j^m commutes past nothing on the left: every key of M_j gains
    a_j += m.  The D_j^m term becomes the Euler product x_j^m D_j^m =
    theta_j (theta_j - 1) ... (theta_j - m + 1), so the whole operator is
    polynomial in theta.
    """
    m = profile.m
    return [DiffOperator(profile.n, {(_raise_x(a, j, m), b): c
                                     for (a, b), c in op.terms.items()})
            for j, op in enumerate(mellin_system(profile))]


def horn_system(profile: ExponentProfile):
    """The Horn companions (H_j in the w variables, H'_j in the x variables).

    H_j  = L_j(theta) - w_j T_j(theta),  L_j = prod_{k<m}(m theta_j - k),
    T_j  = prod_{k<m_j}(-<M,theta> - 1/m - k) prod_{k<m'_j}(-<M',theta> + 1/m - k)
    and H'_j is the same after w_j = (-1)^{m'_j} x_j^m, under which the
    Euler operator in w_j becomes theta_j / m.

    L_j and m^m T_j have integer coefficients; ``_falling_form`` takes
    them from their values at theta = l for the w-form and at theta = l/m
    for the x-form, never from the Mellin operators.  Both forms lie over
    m^m; x_j^e on the left gives tail terms a = b + e e_j, with e = 1 and
    weight -1 in w, e = m and weight -(-1)^{m'_j} in x.
    """
    m, n = profile.m, profile.n
    points, uv, us, vs = _grid_weights(profile)

    def form(j, scale, shift, weight):
        # L_j and m^m T_j at theta = scale l / m: scale l_j, scale <M,l>
        # and scale <M',l> stand for m theta_j, m <M,theta> and m <M',theta>
        lead = [prod(range(scale * t, scale * t - m, -1))
                for t in range(m + 1)]
        first = {u: prod(range(-scale * u - 1, -scale * u - 1
                               - m * profile.m_list[j], -m)) for u in us}
        second = {v: prod(range(1 - scale * v, 1 - scale * v
                                - m * profile.mprime_list[j], -m))
                  for v in vs}
        terms = {(i, i): m**m * c for i, c in _falling_form(
            n, m, [lead[l[j]] for l in points]).items()}
        terms.update(((_raise_x(i, j, shift), i), -weight * c)
                     for i, c in _falling_form(
                         n, m, [first[u] * second[v] for u, v in uv]).items())
        return DiffOperator(n, _fractions(terms, m**m))

    horn_w = [form(j, m, 1, 1) for j in range(n)]
    horn_x = [form(j, 1, m, (-1) ** profile.mprime_list[j]) for j in range(n)]
    return horn_w, horn_x


def horn_mellin_multiplier(profile: ExponentProfile, j: int) -> int:
    """The exact constant c_j with c_j * H'_j = x_j^m o M_j.

    Comparing the D_j^m terms forces c_j = (-1)^{m_j + 1} m^m; the sign
    depends on the parity of m_j, not of m.
    """
    return (-1) ** (profile.m_list[j] + 1) * profile.m ** profile.m


@dataclass(frozen=True)
class LatticeData:
    """The homogeneous companion matrices of the system.

    toric_pairs holds, per column of B, the exponent pair (u, v) of the
    binomial annihilator D^u - D^v in the homogeneous coordinates
    (a_0, ..., a_{n+1}); the pairs are carried as data only.
    """

    A: tuple
    A_prime: tuple
    B: tuple
    c: tuple
    beta: tuple
    beta_prime: tuple
    horn_rank: int
    toric_pairs: tuple


def lattice_matrices(profile: ExponentProfile) -> LatticeData:
    """A, A', the kernel matrix B, and the Horn parameter vector c.

    Columns of B are exponent vectors on (a_0, a_1, ..., a_{n+1}) and lie
    in ker A; this compatibility is asserted.  The rank bookkeeping
    g * vol = (m^{n-1} d) * (m/d) = m^n is recorded as horn_rank.
    """
    m, n, d = profile.m, profile.n, profile.d
    a = (tuple([1] * (n + 2)), tuple([m, *profile.m_list, 0]))
    a_prime = (tuple(Fraction(1) for _ in range(n + 2)),
               tuple(Fraction(v, d) for v in (m, *profile.m_list, 0)))
    rows = [tuple(-mj for mj in profile.m_list)]
    for i in range(n):
        rows.append(tuple(m if k == i else 0 for k in range(n)))
    rows.append(tuple(-mp for mp in profile.mprime_list))
    b = tuple(rows)
    pairs = []
    for col in range(n):
        column = [rows[r][col] for r in range(n + 2)]
        for arow in a:
            if sum(x * y for x, y in zip(arow, column)) != 0:
                raise ArithmeticError("kernel matrix column fails A * u = 0")
        u = tuple(max(v, 0) for v in column)
        v = tuple(max(-v, 0) for v in column)
        pairs.append((u, v))
    c = tuple([Fraction(-1, m)] + [Fraction(0)] * n + [Fraction(1, m)])
    return LatticeData(A=a, A_prime=a_prime, B=b, c=c, beta=(0, -1),
                       beta_prime=(Fraction(0), Fraction(-1, d)),
                       horn_rank=m**n, toric_pairs=tuple(pairs))


# ---------------------------------------------------------------------------
# Univariate trinomial operator
# ---------------------------------------------------------------------------

def mellin_operator_1d(m: int, m1: int) -> DiffOperator:
    """The order-m operator of y^m + x y^{m1} - 1 = 0."""
    return mellin_system(make_profile(m, [m1]))[0]


def discriminant_poly(m: int, m1: int) -> list:
    """x^a b^b (a-b)^{a-b} - (-1)^b a^a with a = m/d, b = m1/d (ascending)."""
    from math import gcd
    d = gcd(m, m1)
    a, b = m // d, m1 // d
    poly = [Fraction(0)] * (a + 1)
    poly[a] = Fraction(b**b * (a - b) ** (a - b))
    poly[0] = Fraction(-((-1) ** b) * a**a)
    return poly


def leading_coefficient(op: DiffOperator) -> list:
    """Polynomial coefficient (ascending) of the highest derivative power."""
    if op.is_zero():
        raise ValueError("zero operator has no leading coefficient")
    polys = op.univariate_coeff_polys()
    return polys[-1]


def poly_scale_ratio(p, q):
    """The constant c with p = c*q, or None."""
    p, q = list(p), list(q)
    while p and not p[-1]:
        p.pop()
    while q and not q[-1]:
        q.pop()
    if len(p) != len(q):
        return None
    ratio = None
    for a, b in zip(p, q):
        if (a == 0) != (b == 0):
            return None
        if b != 0:
            r = Fraction(a) / Fraction(b)
            if ratio is None:
                ratio = r
            elif ratio != r:
                return None
    return ratio


@dataclass(frozen=True)
class ThetaFactorization:
    """x^exponent o M(m, m-1) = left o (theta - 1), with minimal exponent."""

    left: DiffOperator
    right: DiffOperator
    exponent: int
    displayed_left: DiffOperator


def theta_factorization(m: int) -> ThetaFactorization:
    """Split theta - 1 (the annihilator of x) off M(m, m-1).

    The closed form

       x^m M(m, m-1) = ( x^m prod_{k=0}^{m-2}((m-1) theta + mk + 1)
                         + (-m)^m theta prod_{k=2}^{m-1}(theta - k) ) (theta-1)

    is verified exactly.  The Weyl algebra has no zero divisors, so
    x^e M(m, m-1) = L (theta - 1) forces x^{m-e} L = displayed: the least
    exponent is m - v, v the least power of x in a term of the displayed
    factor, and its left factor is the displayed one divided by x^v.  That
    split is checked by composition too; v is expected to be 1.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    mel = mellin_operator_1d(m, m - 1)
    first = _theta_poly(m - 1, lambda l: prod(
        (m - 1) * l + m * k + 1 for k in range(m - 1)))
    second = _theta_poly(m - 1, lambda l: prod(
        l - k for k in (0, *range(2, m))))
    displayed = (DiffOperator.x_power(1, 0, m) * first
                 + second.scale((-m) ** m))
    right = DiffOperator.theta(1, 0) - DiffOperator.identity(1)
    if displayed * right != DiffOperator.x_power(1, 0, m) * mel:
        raise ArithmeticError(
            f"closed-form split of M({m},{m - 1}) fails at the x^{m} level")
    v = min(a[0] for a, _ in displayed.terms)
    left = displayed.left_divide_x_power(0, v)
    if left * right != DiffOperator.x_power(1, 0, m - v) * mel:
        raise ArithmeticError(
            f"minimal split of M({m},{m - 1}) fails at the x^{m - v} level")
    return ThetaFactorization(left=left, right=right, exponent=m - v,
                              displayed_left=displayed)


def derivative_factorization(m: int) -> tuple[DiffOperator, DiffOperator]:
    """M(m, 1) = D o ( x prod_{k=0}^{m-2}((m-1) theta + mk - 1) + m^m D^{m-1} ).

    Exact composition is the oracle: a mismatch is a hard failure.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    mel = mellin_operator_1d(m, 1)
    inner = _theta_poly(m - 1, lambda l: prod(
        (m - 1) * l + m * k - 1 for k in range(m - 1)))
    right = (DiffOperator.x_power(1, 0, 1) * inner
             + DiffOperator.partial(1, 0, m - 1, coeff=m**m))
    left = DiffOperator.partial(1, 0, 1)
    if left * right != mel:
        raise ArithmeticError(
            f"derivative split of M({m},1) fails; transcription problem")
    return left, right
