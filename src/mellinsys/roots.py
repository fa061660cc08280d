"""Root branches of the twisted equations and what they span.

Branch b of the equation twisted by I, e^b y_pr(e^{b m_k + i_k} x_k)
over Q[Z/m], is y_pr with its coefficient at s times a unit fixed by
s mod m.  Every operator term x^a D^b has a = b (mod m), so the Mellin
operators commute with such weightings.  So every exact check here reads
the rational y_pr, y_pr log y_pr or their images against one exact table
{J: w_J} in Q[Z/m] of the nonzero class weights of a coset sum
(``_class_weights``), with no branch series built: root sums
(:func:`root_sum`, {exponent: Q[Z/m] tuple}) and relation residuals,
empty for a true relation; the logarithmic combinations sum_k c_k sum_b
y_b log y_b and their annihilation residuals; the annihilation and
substitution residuals of every branch.  y_pr log y_pr is a closed form,
the alpha-derivative of Mellin's y_pr^alpha, and the substitution
residual an integer convolution: neither takes a series product, inverse
or logarithm.  The ranks of the branches of one equation and of the
invariant-subspace splitting (univariate, d > 1) are twist ranks of
y_pr, counted from its classes.

Branch b of coset equation k carries the phase e^{b r_J + E_J[k]} at
every exponent of class J, with r_J = 1 + <M, J> and E_J[k] = <I_k, J>
mod m.  These integers come from one cached table per profile
(``_phase_table``), which the class weights, the complex branch jets and
the branches at a point all read.  The class weights are built in
integers: the denominators of the relation vector are cleared once, each
distinct character sum is tested against Phi_m in ints, and a kept
product is divided by the common denominator only at the end.

The root identities are exact (:func:`root_identities`): y_pr solves the
equation through the order, and every branch is annihilated.  The m
rotations of y_pr have the distinct constant terms zeta^b, where the
y-derivative m zeta^{b(m-1)} does not vanish, so by Hensel's lemma each
is the unique branch with its constant term; no Newton lift is needed.
One numeric witness stays independent of the closed form: an Aberth-style
simultaneous root finder (no companion matrix) for the scalar roots at a
base point.  :func:`point_branch_gap` matches them one to one with the m
rotations of y_pr summed at that point, within POINT_TOL plus the size
sum_{|s| = t} |y_s x^s| of the top-degree terms (t the highest degree
through the order with a term): an estimate of the truncation error, not
a bound.  Numeric ranks keep a relative pivot tolerance of 1e-10.  The
complex witnesses are plain {exponent: complex} maps: the branch jets of
``coset_equation_jets``, y_pr times embedded phases, and the ``chi`` of
each :class:`LogSolution`.
"""

from __future__ import annotations

import cmath
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice, product

from .profiles import (ExponentProfile, ProfileError, coset_representatives,
                       dot, index_box, make_profile)
from .rings import mul, roots_of_unity, vanishes
from .series import (RANK_TOL, TruncatedSeries, exponents_up_to,
                     principal_series, twist_rank)
from .weyl import mellin_system

ROOT_RESIDUAL_TOL = 1e-12
ROOT_SEPARATION_TOL = 1e-8
POINT_TOL = 1e-12  # floor of the point-branches tolerance


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


def branches_at_point(profile: ExponentProfile, order: int, point):
    """The m branches e^b y_pr(e^{b m_1} x_1, ..., e^{b m_n} x_n) of the
    untwisted equation, summed through ``order`` at ``point``, and the size
    sum_{|s| = t} |y_s x^s| of their top-degree terms, t the highest degree
    through ``order`` at which y_pr has a term.

    Branch b has y_s zeta^{b r_J} at s, J = s mod m (``_phase_table``), so
    the terms y_s x^s are summed once per value of r_J and each branch
    weights the m sums by zeta^{b r}.  Mellin's coefficients vanish on
    whole degrees for some profiles ((3;1) has none of degree 2, 5, 8,
    ...), so t can fall below ``order``."""
    m, table, zeta = profile.m, _phase_table(profile), roots_of_unity(profile.m)
    powers = [[x**k for k in range(order + 1)] for x in point]
    sums, sizes = [0j] * m, [0.0] * (order + 1)
    for s, c in _source(profile, order, 1).terms.items():
        v = complex(c) * math.prod(map(operator.getitem, powers, s))
        sums[table[tuple(k % m for k in s)][0]] += v
        sizes[sum(s)] += abs(v)
    return [sum(a * zeta[b * r % m] for r, a in enumerate(sums))
            for b in range(m)], next((v for v in reversed(sizes) if v), 0.0)


def point_branch_gap(profile: ExponentProfile, order: int, point,
                     values) -> tuple[float, float]:
    """(gap, tol) between the branches at ``point`` and the m root
    ``values`` there: each branch is matched to its nearest value, the gap
    is the largest distance (inf unless the matching is one to one), and
    tol = POINT_TOL + the size of the top-degree terms of the branches
    (``branches_at_point``), an estimate of the truncation error, not a
    bound."""
    branches, tail = branches_at_point(profile, order, point)
    nearest = [min(range(len(values)), key=lambda i: abs(values[i] - y))
               for y in branches]
    gap = math.inf
    if sorted(nearest) == list(range(len(values))):
        gap = max(abs(values[i] - y) for i, y in zip(nearest, branches))
    return gap, POINT_TOL + tail


@lru_cache(maxsize=16)
def _phase_table(profile: ExponentProfile) -> dict:
    """{J: (r_J, E_J)} over the box classes J in ``index_box`` order, with
    r_J = 1 + <M, J> mod m and E_J = (<I_k, J> mod m)_k over the coset
    representatives I_k: branch b of coset equation k carries the phase
    e^{b r_J + E_J[k]} at every exponent s = J mod m."""
    m, reps = profile.m, coset_representatives(profile)
    return {cls: ((1 + dot(profile.m_list, cls)) % m,
                  tuple(dot(rep, cls) % m for rep in reps))
            for cls in index_box(profile)}


def coset_equation_jets(profile: ExponentProfile, order: int):
    """Complex jets of every branch of every coset-representative equation,
    one {exponent: complex} map per branch b of each I_k: complex(y_s)
    zeta^{b r_J + E_J[k]} at s, J = s mod m (``_phase_table``)."""
    m, table = profile.m, _phase_table(profile)
    zeta = roots_of_unity(m)
    terms = [(s, complex(c), *table[tuple(v % m for v in s)])
             for s, c in principal_series(profile, order).terms.items()]
    return [[{s: c * zeta[(b * r + row[k]) % m] for s, c, r, row in terms}
             for b in range(m)] for k in range(_width(table, profile))]


def _width(table: dict, profile: ExponentProfile) -> int:
    """The number of coset representatives: the length of a row."""
    return len(table[(0,) * profile.n][1])


def _class_weights(profile: ExponentProfile, c, power: int) -> dict:
    """{J: w_J}, exact in Q[Z/m], over the classes J whose weight w_J in
    sum_k c_k sum_b b^power (branch b of coset equation k) is nonzero in
    Q(zeta_m): built on a rational f, that sum has f_s w_J at s.

    Branch b of the equation twisted by I_k has f_s e^{b r_J + E_J[k]} at
    s, J = s mod m (``_phase_table``), so w_J = chi_J(c) S_power(r_J) with
    chi_J(c) = sum_k c_k e^{E_J[k]} and S_p(r) = sum_b b^p e^{b r}.  S_0(r)
    embeds to m if r = 0 (mod m), else to 0; S_1(r) to m(m-1)/2 or
    m / (zeta^r - 1), never 0.  So J is kept iff (power = 1 or r_J = 0)
    and chi_J(c) is nonzero mod Phi_m: one test per distinct chi and one
    product per distinct (chi, r).  The denominators of c are cleared
    once, so chi and chi S_p are integer tuples; each kept product is
    divided by the common denominator at the end."""
    m, table = profile.m, _phase_table(profile)
    if len(c) != _width(table, profile):
        raise ValueError(f"relation vector length {len(c)} != "
                         f"{_width(table, profile)}")
    c = [Fraction(ck) for ck in c]
    den = math.lcm(*(ck.denominator for ck in c))
    pairs = [(k, ck.numerator * (den // ck.denominator))
             for k, ck in enumerate(c) if ck]
    kept, formed, weights = {}, {}, {}
    for cls, (r, row) in table.items():
        if power == 0 and r:
            continue
        chi = [0] * m
        for k, ck in pairs:
            chi[row[k]] += ck
        chi = tuple(chi)
        if chi not in kept:
            kept[chi] = not vanishes(chi)
        if kept[chi]:
            if (chi, r) not in formed:
                s_power = [sum(b**power for b in range(m) if b * r % m == k)
                           for k in range(m)]
                formed[chi, r] = tuple(Fraction(x, den)
                                       for x in mul(chi, s_power))
            weights[cls] = formed[chi, r]
    return weights


def _embedded(f: TruncatedSeries, weights: dict, m: int) -> dict:
    """{s: complex(w_J f_s)} over the terms of a rational f whose class
    J = s mod m the table keeps: float(x f_s) is one correctly rounded int
    division per coordinate x of w_J, with no Fraction built."""
    zeta, out = roots_of_unity(m), {}
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
    return TruncatedSeries(profile.n, order, terms)


def keeps_classes(ops, m: int) -> bool:
    """Whether every term x^a D^b of every operator has a = b (mod m), so
    that each operator maps a series on one class of s mod m into that
    class."""
    return not any((ai - bi) % m for op in ops for a, b in op.terms
                   for ai, bi in zip(a, b))


@lru_cache(maxsize=64)
def _images(profile: ExponentProfile, order: int, power: int) -> tuple:
    """op_j(_source(power)) for every Mellin operator.

    A term x^a D^b with a = b (mod m) keeps each class of s mod m, so the
    image of a branch or a coset sum is the same weighting of this image.
    Any other term raises: nothing is decided branch by branch.
    """
    m, ops = profile.m, mellin_system(profile)
    if not keeps_classes(ops, m):
        raise ArithmeticError("a Mellin operator term x^a D^b breaks "
                              f"a = b (mod {m})")
    return tuple(op.apply(_source(profile, order, power)) for op in ops)


@lru_cache(maxsize=64)
def _branch_residual(profile: ExponentProfile, order: int) -> float:
    """Relative annihilation residual of every root branch of every twisted
    equation, which weights y_pr by units e^k with k fixed by s mod m."""
    worst = max(im.max_abs() for im in _images(profile, order, 1))
    return worst / _source(profile, order, 1).max_abs()


def _pair_table(n: int, order: int) -> tuple:
    """(exps, index, counts, left): the exponents of n variables through
    ``order`` in the order of ``exponents_up_to``, their positions, and
    the C(order + 2n, 2n) pairs (a, s - a) of the product columns s.

    Column k owns the next counts[k] entries of ``left``, the positions of
    the a <= s in lexicographic order.  s - a runs through the same box in
    reverse order, so the positions of s - a are that run reversed, and
    C(s, a) = prod_i C(s_i, a_i) comes from rows of binomials in the same
    order.  ``left`` takes 2 bytes a pair while the positions fit.
    """
    from array import array  # here, so that no other subcommand loads it
    exps = tuple(exponents_up_to(n, order))
    index = {s: k for k, s in enumerate(exps)}
    counts = [math.prod(v + 1 for v in s) for s in exps]
    left = array("H" if len(exps) <= 1 << 16 else "i")
    for s in exps:
        left.extend(map(index.__getitem__,
                        product(*(range(v + 1) for v in s))))
    return exps, index, counts, left


@lru_cache(maxsize=64)
def _substitution_residual(profile: ExponentProfile, order: int) -> float:
    """max_abs of y_pr^m + sum_j x_j y_pr^{m_j} - 1, exact over Q, as an
    integer convolution.

    Scaled as f~_s = m^|s| s! f_s, y_pr is integral by its closed form (a
    coefficient that is not stays an exact Fraction), a product is the
    binomial convolution (fg)~_s = sum_{a <= s} C(s, a) f~_a g~_{s-a} over
    the pairs of ``_pair_table``, and x_j f is m s_j f~_{s-e_j}.  One table
    of powers y^0..y^m takes m - 1 products; each residual coefficient is
    unscaled once, for its float.
    """
    m, y = profile.m, _source(profile, order, 1).terms
    exps, index, counts, left = _pair_table(profile.n, order)
    scales = [m**sum(s) * math.prod(map(math.factorial, s)) for s in exps]
    u = [y.get(s, 0) * w for s, w in zip(exps, scales)]
    u = [q.numerator if q.denominator == 1 else q for q in u]
    # pair p of a product with f weighs f~_{left[p]} by C(s, a) u~_{s-a}
    rows = [[math.comb(v, k) for k in range(v + 1)] for v in range(order + 1)]
    weights, at = [], 0
    for s, count in zip(exps, counts):
        weights += map(operator.mul,
                       map(math.prod, product(*(rows[v] for v in s))),
                       map(u.__getitem__, reversed(left[at:at + count])))
        at += count
    one = [1] + [0] * (len(exps) - 1)
    powers = [one, u]
    for _ in range(m - 1):
        terms = map(operator.mul, map(powers[-1].__getitem__, left), weights)
        powers.append([sum(islice(terms, k)) for k in counts])
    r = list(map(operator.sub, powers[m], one))
    for j, mj in enumerate(profile.m_list):
        f = powers[mj]
        for k, s in enumerate(exps):
            if s[j]:
                r[k] += m * s[j] * f[index[s[:j] + (s[j] - 1,) + s[j + 1:]]]
    return max((abs(float(Fraction(v, w))) for v, w in zip(r, scales) if v),
               default=0.0)


def root_identities(profile: ExponentProfile, order: int) -> tuple:
    """(substitution, annihilation): the exact residual of y_pr in its
    equation and the relative annihilation residual of every branch, both
    0.0 iff the identities hold through ``order`` (the annihilation is inf
    if an operator term breaks a = b mod m)."""
    try:
        annihilation = _branch_residual(profile, order)
    except ArithmeticError:  # an operator breaks the congruence
        annihilation = math.inf
    return _substitution_residual(profile, order), annihilation


def root_sum(profile: ExponentProfile, c, order: int) -> dict:
    """sum_k c_k (root sum of coset equation k) as {exponent: Q[Z/m]
    tuple}, with the coefficients that vanish in Q(zeta_m) left out: empty
    for a true relation, the untwisted equation's root sum for c = e_0."""
    m, weights, out = profile.m, _class_weights(profile, c, 0), {}
    for s, q in _source(profile, order, 1).terms.items() if weights else ():
        w = weights.get(tuple(v % m for v in s))
        if w is not None:
            out[s] = tuple(x * q for x in w)
    return out


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
    """chi_c = sum_k c_k sum_b y_b^(k) log y_b^(k) through ``order``, as an
{exponent: complex} map.

    constant_offsets records exactly which branch constants enter: entries
    (k, b, q) stand for q * 2*pi*i * zeta^b with q = c_k * b/m, the branch
    logarithm at the origin being fixed as log zeta^b = 2*pi*i*b/m.

    weights = (W_A, W_B) are the exact class-weight tables of the coset
    sums A = sum_k c_k sum_b e^b R_b(y_pr log y_pr) and B = sum_k c_k sum_b
    b y_b (R_b carries y_pr to e^{-b} y_b), chi = A + (2*pi*i/m) B: A_s =
    W_A[s mod m] (y_pr log y_pr)_s and B_s = W_B[s mod m] (y_pr)_s.
    """

    c: tuple
    chi: dict
    order: int
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
    m, unit = profile.m, 2j * cmath.pi / profile.m
    part_a, part_b = (_embedded(_source(profile, order, power), table, m)
                      for power, table in enumerate(weights))
    chi = {s: v for s, v in part_a.items() if v}
    for s, v in part_b.items():
        w = v * unit
        if w:
            chi[s] = chi.get(s, 0j) + w
    offsets = tuple((k, b, Fraction(ck) * Fraction(b, m))
                    for k, ck in enumerate(c) if ck for b in range(1, m))
    return LogSolution(c=tuple(Fraction(v) for v in c),
                       chi={s: v for s, v in chi.items() if v}, order=order,
                       constant_offsets=offsets, weights=weights)


def log_residual(profile: ExponentProfile, sol: LogSolution) -> float:
    """The larger relative annihilation residual of the two exact parts,
    read from op_j(y_pr log y_pr) and op_j(y_pr) against the weight tables;
    a part's scale is read only when an image term is kept."""
    m, order, worst = profile.m, sol.order, 0.0
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
    residual is exact too (inf if an operator breaks a = b mod m); both are
    the cached :func:`root_identities` that ``verify`` gates.  The rank is
    the ``twist_rank`` of y_pr over the twists b M + I (None if its SVD
    witness disagrees).  The seed keeps reports self-describing beside
    seeded root finds.
    """
    substitution, annihilation = root_identities(profile, order)
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
        "substitution_residual": substitution,
        "annihilation_residual": annihilation,
        "rank": rank,
    }
