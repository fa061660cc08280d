"""Root branches of the twisted equations and what they span.

Branch b of the equation twisted by I, e^b y_pr(e^{b m_k + i_k} x_k) over
Q[Z/m] (:func:`mellinsys.series.scaled_root_series`), is y_pr with its
coefficient at s times a unit fixed by s mod m.  Every operator term
x^a D^b has a = b (mod m), so the Mellin operators commute with such
weightings.  So every exact check here reads the rational y_pr, y_pr
log y_pr or their images against one exact table {J: w_J} in Q[Z/m] of
the nonzero class weights of a coset sum (``_class_weights``), with no
branch series built: root sums and relation residuals, empty for a true
relation; the logarithmic combinations sum_k c_k sum_b y_b log y_b and
their annihilation residuals; the annihilation and substitution
residuals of every branch.  y_pr log y_pr is a closed form, the
alpha-derivative of Mellin's y_pr^alpha, and the substitution residual
an integer convolution: neither takes a series product, inverse or
logarithm.  The ranks of the branches of one equation and of the
invariant-subspace splitting (univariate, d > 1) are twist ranks of
y_pr, counted from its classes.

Two numeric witnesses stay independent of the closed form: an Aberth-style
simultaneous root finder (no companion matrix) for scalar roots at a base
point, and Newton lifting of all m Taylor branches at the origin, where the
roots are the distinct m-th roots of unity and the Jacobian never
degenerates.  The lift starts from zeta^b and never reads y_pr.  It
carries the m branches as the rows of one dense complex array over the
exponents sorted by degree, multiplies through a cached table of exponent
pairs with elementwise products and fixed-order segment sums (no BLAS, so
the digits do not depend on the build or the thread count), and runs
Newton update k at order min(2^{k+1} - 1, order), the degree through
which it is correct.  Their tolerances (also surfaced by the CLI) are
1e-10 for the substitution residual of the lifted jets and 1e-10 relative
for rank pivots.  Complex series keep every term, so a reported gap is
the measured rounding error, about 1e-15 on order-12 jets.  The
scaled-root gap compares the dense rows of the lift with the rotations of
y_pr column by column; complex branch series, y_pr times embedded
phases, are built only by ``coset_equation_jets``.
"""

from __future__ import annotations

import cmath
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import NamedTuple

import numpy as np

from .profiles import (ExponentProfile, ProfileError, coset_representatives,
                       dot, index_box, make_profile)
from .rings import COMPLEX, RATIONAL, get_cyclotomic_ring
from .series import (RANK_TOL, TruncatedSeries, exponents_up_to,
                     principal_series, twist_rank)
from .weyl import mellin_system

SUBSTITUTION_TOL = 1e-10
ROOT_RESIDUAL_TOL = 1e-12
ROOT_SEPARATION_TOL = 1e-8


class RootFindingError(ArithmeticError):
    """Non-convergence or a (near-)degenerate root configuration."""


@dataclass(frozen=True)
class EquationInstance:
    """One twisted equation y^m + sum_j e^{i_j} x_j y^{m_j} - 1 = 0."""

    profile: ExponentProfile
    twist: tuple
    base_point: tuple

    def __post_init__(self):
        if len(self.twist) != self.profile.n:
            raise ProfileError("twist length must match the variable count")
        if len(self.base_point) != self.profile.n:
            raise ProfileError("base point length must match the variable count")

    def poly_coefficients(self) -> list[complex]:
        """Dense coefficients of the defining polynomial in y (ascending)."""
        m = self.profile.m
        eps = cmath.exp(2j * cmath.pi / m)
        coeffs = [0j] * (m + 1)
        coeffs[0] = -1.0
        coeffs[m] = 1.0
        for ij, mj, xj in zip(self.twist, self.profile.m_list, self.base_point):
            coeffs[mj] += eps**ij * complex(xj)
        return coeffs


def origin_instance(profile: ExponentProfile, twist=None) -> EquationInstance:
    twist = tuple(twist) if twist is not None else (0,) * profile.n
    return EquationInstance(profile, twist, (0j,) * profile.n)


def _poly_eval(coeffs, z):
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def aberth_roots(coeffs, seed: int = 0, max_iter: int = 200,
                 tol: float = 1e-14) -> list[complex]:
    """All roots of a dense complex polynomial by simultaneous iteration.

    Initial guesses sit at 1.1 times seeded-perturbed roots of unity;
    dense degrees here are at most ~10, so robustness beats cleverness.
    """
    coeffs = list(coeffs)
    while coeffs and abs(coeffs[-1]) == 0.0:
        coeffs.pop()
    deg = len(coeffs) - 1
    if deg < 1:
        raise RootFindingError("polynomial must have positive degree")
    deriv = [coeffs[k] * k for k in range(1, deg + 1)]
    rng = random.Random(seed)
    z = []
    for k in range(deg):
        angle = 2 * math.pi * k / deg + 0.4
        jitter = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * 1e-3
        z.append(1.1 * cmath.exp(1j * angle) + jitter)
    for _ in range(max_iter):
        biggest = 0.0
        for i in range(deg):
            p = _poly_eval(coeffs, z[i])
            dp = _poly_eval(deriv, z[i])
            if dp == 0:
                z[i] += 1e-6 * (1 + 1j)
                biggest = math.inf
                continue
            w = p / dp
            s = sum(1.0 / (z[i] - z[j]) for j in range(deg) if j != i)
            denom = 1.0 - w * s
            step = w if denom == 0 else w / denom
            z[i] -= step
            biggest = max(biggest, abs(step))
        if biggest < tol:
            return z
    raise RootFindingError(f"Aberth iteration did not converge in {max_iter} steps")


def roots_at_point(instance: EquationInstance, seed: int = 0) -> list[complex]:
    """The m root values at the base point, residual-checked and distinct."""
    coeffs = instance.poly_coefficients()
    m = instance.profile.m
    roots = aberth_roots(coeffs, seed=seed)
    for y in roots:
        if abs(_poly_eval(coeffs, y)) >= ROOT_RESIDUAL_TOL * (1 + abs(y) ** m):
            raise RootFindingError(f"root residual too large at {y}")
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if abs(roots[i] - roots[j]) < ROOT_SEPARATION_TOL:
                raise RootFindingError(
                    "roots collide: the base point sits on the discriminant")
    return sorted(roots, key=lambda y: (round(cmath.phase(y), 9),
                                        round(abs(y), 9)))


MAX_LIFT_VALUES = 2**21  # complex values in one gathered product of the lift


class _LiftTable(NamedTuple):
    """Dense layout of the jets of n variables through one order.

    Column k holds exps[k]; the exponents are sorted by total degree, so
    the truncation to degree d is the first cols[d] columns.  Pair p says
    exps[left[p]] + exps[right[p]] is the exponent of its column; pairs are
    sorted by column and those of column k start at starts[k], so the
    columns of degree <= d own the first starts[cols[d]] pairs (starts has
    one entry past the last column).  shifts[j][k] is the column of
    exps[k] + e_j, for the columns below the top degree.
    """

    exps: tuple
    cols: tuple
    left: np.ndarray
    right: np.ndarray
    starts: np.ndarray
    shifts: tuple


@lru_cache(maxsize=16)
def _lift_table(n: int, order: int) -> _LiftTable:
    """The layout of the jets of n variables through ``order``, built on
    the first lift that needs it and cached, as ``mellin_system`` is."""
    exps = sorted(exponents_up_to(n, order), key=sum)
    index = {e: k for k, e in enumerate(exps)}
    left, right, starts = [], [], []
    for e in exps:
        starts.append(len(left))
        for u in product(*(range(v + 1) for v in e)):
            left.append(index[u])
            right.append(index[tuple(map(operator.sub, e, u))])
    starts.append(len(left))
    cols = tuple(math.comb(d + n, n) for d in range(order + 1))
    below = exps[:cols[order - 1]]
    shifts = tuple(_read_only([index[e[:j] + (e[j] + 1,) + e[j + 1:]]
                               for e in below]) for j in range(n))
    return _LiftTable(exps=tuple(exps), cols=cols, left=_read_only(left),
                      right=_read_only(right), starts=_read_only(starts),
                      shifts=shifts)


def _read_only(values) -> np.ndarray:
    """An index array that every caller of the cached table shares."""
    out = np.array(values)
    out.flags.writeable = False
    return out


def _mul(table: _LiftTable, a, b, order: int):
    """Row-wise product of a and b through degree ``order``."""
    top = table.cols[order]
    end = table.starts[top]
    return np.add.reduceat(a[:, table.left[:end]] * b[:, table.right[:end]],
                           table.starts[:top], axis=1)


def _inverse(table: _LiftTable, f, order: int):
    """Row-wise reciprocal of f through degree ``order``, filled degree by
    degree: f_0 g_e = -sum_{u + v = e, v != e} f_u g_v.  The pair (0, e)
    meets g_e while it is still 0."""
    cols, starts = table.cols, table.starts
    g = np.zeros_like(f[:, :cols[order]])
    g[:, 0] = 1 / f[:, 0]
    for d in range(1, order + 1):
        lo, hi = starts[cols[d - 1]], starts[cols[d]]
        acc = np.add.reduceat(
            f[:, table.left[lo:hi]] * g[:, table.right[lo:hi]],
            starts[cols[d - 1]:cols[d]] - lo, axis=1)
        g[:, cols[d - 1]:cols[d]] = -acc * g[:, :1]
    return g


def _dense_p_and_dp(y, order: int, table: _LiftTable,
                    profile: ExponentProfile, units):
    """p(y) and p'(y) through degree ``order`` for every row of y, from one
    table of powers y^0..y^m (m - 1 products); x_j shifts columns, and
    units[j] is the twist unit of x_j."""
    m, top, low = profile.m, table.cols[order], table.cols[order - 1]
    one = np.zeros_like(y[:, :top])
    one[:, 0] = 1
    powers = [one, y[:, :top]]
    for _ in range(m - 1):
        powers.append(_mul(table, powers[-1], y, order))
    p = powers[m] - one
    dp = m * powers[m - 1]
    for shift, unit, mj in zip(table.shifts, units, profile.m_list):
        at = shift[:low]
        p[:, at] += unit * powers[mj][:, :low]
        dp[:, at] += (unit * mj) * powers[mj - 1][:, :low]
    return p, dp


def lift_jets(instance: EquationInstance, order: int) -> list[TruncatedSeries]:
    """Newton-lift all m branches at the origin; entry b is branch b.

    Branch b starts from the exact simple root zeta^b of y^m = 1, where
    the y-derivative m zeta^{b(m-1)} cannot vanish.  Each Newton update
    doubles the number of correct degrees (Brent-Kung, J. ACM 25, 1978),
    so exactly ceil(log2(order + 1)) updates reach the order, and update
    k = 0, 1, ... runs at order min(2^{k+1} - 1, order): y is correct
    through degree 2^k - 1 and its terms above are zero.  The m branches
    are the rows of one complex array whose columns are the exponents
    sorted by degree (``_LiftTable``): a product is a gather over the
    cached pair table and one fixed-order segment sum, so no library
    summation order enters the digits.  The final substitution residual
    of each branch, taken at the full order, must stay below
    SUBSTITUTION_TOL.  A lift whose products would hold more than
    MAX_LIFT_VALUES complex values is refused before any table is built.
    """
    table, y = _dense_lift(instance, order)
    return [TruncatedSeries(COMPLEX, instance.profile.n, order,
                            dict(zip(table.exps, row)))
            for row in y.tolist()]


def _dense_lift(instance: EquationInstance, order: int):
    """The lift of ``lift_jets`` as its table and its (m, K) array: row b
    is branch b over the K columns ``table.exps``."""
    if any(abs(v) != 0 for v in instance.base_point):
        raise ProfileError("jets are lifted at the origin only")
    if order < 1:
        raise ValueError("jet order must be at least 1")
    profile = instance.profile
    m, n = profile.m, profile.n
    values = m * math.comb(order + 2 * n, 2 * n)
    if values > MAX_LIFT_VALUES:
        raise ValueError(
            f"lifting {m} branches in {n} variables at order {order} "
            f"multiplies {values} complex values, above MAX_LIFT_VALUES = "
            f"{MAX_LIFT_VALUES}")
    table = _lift_table(n, order)
    zeta = cmath.exp(2j * cmath.pi / m)
    units = [zeta**ij if ij else 1 for ij in instance.twist]
    y = np.zeros((m, table.cols[order]), dtype=complex)
    y[:, 0] = [zeta**b for b in range(m)]
    for k in range(math.ceil(math.log2(order + 1))):
        d = min(2 ** (k + 1) - 1, order)
        p, dp = _dense_p_and_dp(y, d, table, profile, units)
        y[:, :table.cols[d]] -= _mul(table, p, _inverse(table, dp, d), d)
    p = _dense_p_and_dp(y, order, table, profile, units)[0]
    for b, residual in enumerate(np.abs(p).max(axis=1)):
        if residual >= SUBSTITUTION_TOL:
            raise RootFindingError(
                f"branch {b} substitution residual {residual:.3e}")
    return table, y


def scaled_root_max_deviation(profile: ExponentProfile, order: int) -> float:
    """Max coefficient gap between origin jets and the rotated principal root.

    Branch b of the untwisted equation must match
    e^b * y_pr(e^{b m_1} x_1, ..., e^{b m_n} x_n), whose coefficient at s
    is y_s zeta^{b(1 + <M, s>)}: each column of the dense lift is compared
    with complex(y_s) times these units from the Q[Z/m] embedding table.
    """
    table, y = _dense_lift(origin_instance(profile), order)
    m, ypr = profile.m, principal_series(profile, order)
    zeta = get_cyclotomic_ring(m)._embedding
    targets = []
    for s in table.exps:
        c, r = complex(ypr.coefficient(s)), 1 + dot(profile.m_list, s)
        targets.append([c * zeta[b * r % m] for b in range(m)])
    # Python's complex abs: numpy's can differ from it in the last bit
    return max(map(abs, (y - np.array(targets).T).ravel().tolist()))


def coset_equation_jets(profile: ExponentProfile, order: int):
    """Complex jets of every branch of every coset-representative equation:
    branch b of I has complex(y_s) zeta^{b(1 + <M,s>) + <I,s>} at s."""
    m, ypr = profile.m, principal_series(profile, order)
    zeta = get_cyclotomic_ring(m)._embedding
    terms = [(s, complex(c), 1 + dot(profile.m_list, s))
             for s, c in ypr.terms.items()]
    return [[TruncatedSeries(COMPLEX, profile.n, order, {
        s: c * zeta[(b * r + dot(rep, s)) % m] for s, c, r in terms})
        for b in range(m)] for rep in coset_representatives(profile)]


def _class_weights(profile: ExponentProfile, c, power: int) -> dict:
    """{J: w_J}, exact in Q[Z/m], over the classes J whose weight w_J in
    sum_k c_k sum_b b^power (branch b of coset equation k) is nonzero in
    Q(zeta_m): built on a rational f, that sum has f_s w_J at s.

    Branch b of the equation twisted by I_k has f_s e^{b r + <I_k, J>} at
    s, J = s mod m, r = 1 + <M, J> (``scaled_root_series``), so w_J =
    chi_J(c) S_power(r) with chi_J(c) = sum_k c_k e^{<I_k, J>} and S_p(r) =
    sum_b b^p e^{b r}.  S_0(r) embeds to m if r = 0 (mod m), else to 0;
    S_1(r) to m(m-1)/2 or m / (zeta^r - 1), never 0.  So J is kept iff
    (power = 1 or r = 0) and chi_J(c) is nonzero mod Phi_m: one test per
    distinct chi and one product per distinct (chi, r)."""
    m, ring = profile.m, get_cyclotomic_ring(profile.m)
    reps = coset_representatives(profile)
    if len(c) != len(reps):
        raise ValueError(f"relation vector length {len(c)} != {len(reps)}")
    pairs = [(Fraction(ck), rep) for ck, rep in zip(c, reps) if ck]
    kept, formed, weights = {}, {}, {}
    for cls in index_box(profile):
        r = (1 + dot(profile.m_list, cls)) % m
        if power == 0 and r:
            continue
        chi = list(ring.zero)
        for ck, rep in pairs:
            chi[dot(rep, cls) % m] += ck
        chi = tuple(chi)
        if chi not in kept:
            kept[chi] = not ring.is_zero_complex(chi)
        if kept[chi]:
            if (chi, r) not in formed:
                s_power = [sum(b**power for b in range(m) if b * r % m == k)
                           for k in range(m)]
                formed[chi, r] = ring.mul(chi, s_power)
            weights[cls] = formed[chi, r]
    return weights


def _embedded(f: TruncatedSeries, weights: dict, m: int) -> dict:
    """{s: complex(w_J f_s)} over the terms of a rational f whose class
    J = s mod m the table keeps: float(x f_s) is one correctly rounded int
    division per coordinate x of w_J, with no Fraction built."""
    zeta, out = get_cyclotomic_ring(m)._embedding, {}
    for s, q in f.terms.items() if weights else ():
        w = weights.get(tuple(v % m for v in s))
        if w is not None:
            n, d = q.numerator, q.denominator
            out[s] = sum((x.numerator * n) / (x.denominator * d) * zeta[k]
                         for k, x in enumerate(w) if x)
    return out


def _weighted_max(f: TruncatedSeries, weights: dict, m: int) -> float:
    """max_abs of the coset sum that the weights build on a rational f."""
    return max(map(abs, _embedded(f, weights, m).values()), default=0.0)


@lru_cache(maxsize=64)
def _source(profile: ExponentProfile, order: int, power: int):
    """y_pr log y_pr (power 0) or y_pr (power 1): the parts A and B of
    every logarithmic solution are their coset sums with that power.

    y_pr log y_pr is d/dalpha y_pr^alpha at alpha = 1, and by Mellin's
    formula y_pr^alpha has the coefficient (-1)^|nu| alpha prod_{mu=1}^{
    |nu|-1} (<M,nu> - m mu + alpha) / (m^|nu| nu!) at nu != 0.  With f_mu
    = <M,nu> - m mu + 1 and P = prod f_mu, its derivative at 1 is
    (-1)^|nu| (P + sum_mu P / f_mu) / (m^|nu| nu!).  The f_mu step by m,
    so at most one is 0, and then only its own term is left: the product
    of the others.  The constant term is 0.  No series product is taken.
    """
    if power:
        return principal_series(profile, order)
    m, terms = profile.m, {}
    for nu in exponents_up_to(profile.n, order):
        k = sum(nu)
        top = dot(profile.m_list, nu) + 1 - m
        f = [v for v in range(top, top - m * (k - 1), -m) if v]
        p = math.prod(f)
        num = p if len(f) < k - 1 else p + sum(p // v for v in f)
        if k and num:
            terms[nu] = Fraction((-1) ** k * num,
                                 m**k * math.prod(map(math.factorial, nu)))
    return TruncatedSeries(RATIONAL, profile.n, order, terms)


@lru_cache(maxsize=64)
def _images(profile: ExponentProfile, order: int, power: int) -> tuple:
    """op_j(_source(power)) for every Mellin operator.

    A term x^a D^b with a = b (mod m) keeps each class of s mod m, so the
    image of a branch or a coset sum is the same weighting of this image.
    Any other term raises: nothing is decided branch by branch.
    """
    m, ops = profile.m, mellin_system(profile)
    if any((ai - bi) % m for op in ops for a, b in op.terms
           for ai, bi in zip(a, b)):
        raise ArithmeticError("a Mellin operator term x^a D^b breaks "
                              f"a = b (mod {m})")
    return tuple(op.apply(_source(profile, order, power)) for op in ops)


def _branch_residual(profile: ExponentProfile, order: int) -> float:
    """Relative annihilation residual of every root branch of every twisted
    equation, which weights y_pr by units e^k with k fixed by s mod m."""
    worst = max(im.max_abs() for im in _images(profile, order, 1))
    return worst / _source(profile, order, 1).max_abs()


@lru_cache(maxsize=64)
def _substitution_residual(profile: ExponentProfile, order: int) -> float:
    """max_abs of y_pr^m + sum_j x_j y_pr^{m_j} - 1, exact over Q, as an
    integer convolution.

    Scaled as f~_s = m^|s| s! f_s, y_pr is integral by its closed form (a
    coefficient that is not stays an exact Fraction), a product is the
    binomial convolution (fg)~_s = sum_{a <= s} C(s, a) f~_a g~_{s-a}, and
    x_j f is m s_j f~_{s-e_j}.  One table of powers y^0..y^m takes m - 1
    products; each residual coefficient is unscaled once, for its float.
    """
    m, y = profile.m, _source(profile, order, 1).terms
    exps = list(exponents_up_to(profile.n, order))
    index = {s: k for k, s in enumerate(exps)}
    scales = [m**sum(s) * math.prod(map(math.factorial, s)) for s in exps]
    u = [y.get(s, 0) * w for s, w in zip(exps, scales)]
    u = [q.numerator if q.denominator == 1 else q for q in u]
    # the pairs (a, s - a) of column s, each weighted by C(s, a) u_{s-a}
    rows = [[(index[a], math.prod(map(math.comb, s, a))
              * u[index[tuple(map(operator.sub, s, a))]])
             for a in product(*(range(v + 1) for v in s))] for s in exps]
    one = [1] + [0] * (len(exps) - 1)
    powers = [one, u]
    for _ in range(m - 1):
        f = powers[-1]
        powers.append([sum(f[k] * w for k, w in row) for row in rows])
    r = list(map(operator.sub, powers[m], one))
    for j, mj in enumerate(profile.m_list):
        f = powers[mj]
        for k, s in enumerate(exps):
            if s[j]:
                r[k] += m * s[j] * f[index[s[:j] + (s[j] - 1,) + s[j + 1:]]]
    return max((abs(float(Fraction(v, w))) for v, w in zip(r, scales) if v),
               default=0.0)


def root_sum(profile: ExponentProfile, c, order: int) -> TruncatedSeries:
    """sum_k c_k (root sum of coset equation k), exact in Q(zeta_m): empty
    for a true relation, the untwisted equation's root sum for c = e_0."""
    m, weights = profile.m, _class_weights(profile, c, 0)
    ypr = _source(profile, order, 1)
    classes = {s: tuple(v % m for v in s) for s in ypr.terms}
    return TruncatedSeries(get_cyclotomic_ring(m), profile.n, order, {
        s: tuple(x * q for x in weights[classes[s]])
        for s, q in ypr.terms.items() if classes[s] in weights})


def _relation_residual(profile: ExponentProfile, weights: dict,
                       order: int) -> float:
    """max_abs of the root sum that power-0 weights build on y_pr."""
    if profile.d > 1:
        raise ProfileError("root-sum relations are defined only for d = 1")
    return _weighted_max(_source(profile, order, 1), weights, profile.m)


def relation_check(profile: ExponentProfile, c, order: int) -> float:
    """Max coefficient magnitude of sum_k c_k (root sum of equation k):
    exactly 0.0 for a true relation, whose table keeps no class of y_pr."""
    return _relation_residual(profile, _class_weights(profile, c, 0), order)


@dataclass(frozen=True)
class LogSolution:
    """chi_c = sum_k c_k sum_b y_b^(k) log y_b^(k) as a truncated series.

    constant_offsets records exactly which branch constants enter: entries
    (k, b, q) stand for q * 2*pi*i * zeta^b with q = c_k * b/m, the branch
    logarithm at the origin being fixed as log zeta^b = 2*pi*i*b/m.

    weights = (W_A, W_B) are the exact class-weight tables of the coset
    sums A = sum_k c_k sum_b e^b R_b(y_pr log y_pr) and B = sum_k c_k sum_b
    b y_b (R_b carries y_pr to e^{-b} y_b), chi = A + (2*pi*i/m) B: A_s =
    W_A[s mod m] (y_pr log y_pr)_s and B_s = W_B[s mod m] (y_pr)_s.
    """

    c: tuple
    chi: TruncatedSeries
    constant_offsets: tuple
    weights: tuple


def log_solution(profile: ExponentProfile, c, order: int) -> LogSolution:
    """Assemble the logarithmic solution attached to a relation vector.

    Rotation is a ring homomorphism, so log(e^{-b} y_b) = R_b(log y_pr)
    and y_b log y_b = e^b R_b(y_pr log y_pr) + (2*pi*i*b/m) y_b: no
    group-ring logarithm or inverse is needed, and no Q[Z/m] series.
    """
    weights = tuple(_class_weights(profile, c, power) for power in (0, 1))
    residual = _relation_residual(profile, weights[0], order)
    if residual != 0:
        raise ValueError(
            f"relation residual {residual:.3e} is not zero: the logarithmic "
            "combination would break the homogeneity of the system")
    m = profile.m
    part_a, part_b = (TruncatedSeries(COMPLEX, profile.n, order, _embedded(
        _source(profile, order, power), table, m))
        for power, table in enumerate(weights))
    chi = part_a + part_b.scale(2j * cmath.pi / m)
    offsets = tuple((k, b, Fraction(ck) * Fraction(b, m))
                    for k, ck in enumerate(c) if ck for b in range(1, m))
    return LogSolution(c=tuple(Fraction(v) for v in c), chi=chi,
                       constant_offsets=offsets, weights=weights)


def log_residual(profile: ExponentProfile, sol: LogSolution) -> float:
    """The larger relative annihilation residual of the two exact parts,
    read from op_j(y_pr log y_pr) and op_j(y_pr) against the weight tables;
    a part's scale is read only when an image term is kept."""
    m, order, worst = profile.m, sol.chi.order, 0.0
    for power, weights in enumerate(sol.weights):
        top = max((_weighted_max(im, weights, m)
                   for im in _images(profile, order, power)), default=0.0)
        if top:
            scale = _weighted_max(_source(profile, order, power), weights, m)
            worst = max(worst, top / scale)
    return worst


@dataclass(frozen=True)
class SubspaceWitness:
    """Rank/residual evidence for the d-block splitting (univariate)."""

    m: int
    m1: int
    d: int
    block_ranks: tuple
    joint_rank: int
    max_residual: float
    original_root_rank: int


def invariant_subspace_witness(m: int, m1: int, order: int) -> SubspaceWitness:
    """Certify the ranks of the d twisted-equation blocks.

    For each k < d the m/d branches j = 0..m/d-1 of
    y^m + e^k x y^{m1} - 1 = 0 are e^j y_pr(e^{j m1 + k} x); they must
    each be annihilated exactly by the single Mellin operator and the d
    blocks must have rank m/d apiece and rank m jointly.  The m branches
    of the untwisted equation alone span only m/d-fold-collapsed
    directions; their rank is reported for the polyquadratic-style checks.
    As e^j only scales a row, each rank is the ``twist_rank`` of y_pr over
    the twists j m1 + k: k + dZ/m, Z/m jointly, dZ/m untwisted.
    """
    profile = make_profile(m, [m1])
    d = profile.d
    ypr = _source(profile, order, 1)
    blocks = [[(j * m1 + k,) for j in range(m // d)] for k in range(d)]
    worst = _branch_residual(profile, order)
    block_ranks = tuple(twist_rank(ypr, block, m) for block in blocks)
    joint = twist_rank(ypr, [t for block in blocks for t in block], m)
    original_rank = twist_rank(ypr, [(j * m1,) for j in range(m)], m)
    return SubspaceWitness(m=m, m1=m1, d=d, block_ranks=block_ranks,
                           joint_rank=joint, max_residual=worst,
                           original_root_rank=original_rank)


def equation_report(profile: ExponentProfile, twist, order: int,
                    seed: int = 0) -> dict:
    """JSON-able verification record for one twisted equation.

    Branch b of the equation twisted by I is e^b y_pr(u) with u_j =
    e^{b m_j + i_j} x_j, and P_I(e^b y_pr(u))(x) = P_0(y_pr)(u), so every
    branch has the exact substitution residual of y_pr.  The annihilation
    residual is exact too (inf if an operator breaks a = b mod m), and the
    rank is the ``twist_rank`` of y_pr over the twists b M + I (None if its
    SVD witness disagrees).  The seed keeps reports self-describing beside
    seeded root finds.
    """
    try:
        annihilation = _branch_residual(profile, order)
    except ArithmeticError:  # an operator breaks the congruence
        annihilation = math.inf
    inst, m = origin_instance(profile, twist), profile.m
    twists = [[(b * mk + ik) % m for mk, ik in zip(profile.m_list, inst.twist)]
              for b in range(m)]
    try:
        rank = twist_rank(_source(profile, order, 1), twists, m)
    except ArithmeticError:  # the SVD witness disagrees with the class count
        rank = None
    return {
        "profile": profile.to_json(),
        "twist": list(inst.twist),
        "order": order,
        "seed": seed,
        "substitution_residual": _substitution_residual(profile, order),
        "annihilation_residual": annihilation,
        "rank": rank,
    }
