"""Root branches of the twisted equations and what they span.

Every branch of every twisted equation has a closed form over the group
ring Q[Z/m] (:func:`mellinsys.series.scaled_root_series`), and everything
here that sums, logs or spans branches is built from it exactly:

* root-sum relation residuals over the coset representatives, decided by
  an exact zero test in Q(zeta_m),
* the logarithmic combinations sum_k c_k sum_b y_b log y_b, assembled from
  two exact group-ring series,
* annihilation residuals under the Mellin operators, and rank witnesses
  for the invariant-subspace splitting in the univariate d > 1 case.

Two numeric witnesses stay independent of the closed form: an Aberth-style
simultaneous root finder (no companion matrix) for scalar roots at a base
point, and Newton lifting of all m Taylor branches at the origin, where the
roots are the distinct m-th roots of unity and the Jacobian never
degenerates.  Their tolerances (also surfaced by the CLI) are 1e-10 for
the substitution residual and 1e-10 relative for rank pivots.  Complex
series keep every term, so a reported residual is the measured rounding
error, about 1e-15 on order-12 jets.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .profiles import (ExponentProfile, ProfileError, coset_representatives,
                       make_profile)
from .rings import COMPLEX, get_cyclotomic_ring
from .series import (TruncatedSeries, independence_rank, principal_series,
                     scaled_root_series)
from .weyl import mellin_system

SUBSTITUTION_TOL = 1e-10
RANK_TOL = 1e-10
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


def _poly_and_derivative(instance: EquationInstance, y: TruncatedSeries,
                         xs) -> tuple[TruncatedSeries, TruncatedSeries]:
    """p(y) and p'(y) for the defining polynomial of the instance, from one
    table of powers y^0..y^m (m - 1 products)."""
    profile = instance.profile
    m = profile.m
    eps = cmath.exp(2j * cmath.pi / m)
    powers = [TruncatedSeries.constant(COMPLEX, y.n_vars, y.order, 1.0), y]
    for _ in range(m - 1):
        powers.append(powers[-1] * y)
    p = powers[m] - powers[0]
    dp = powers[m - 1].scale_rational(m)
    for x, ij, mj in zip(xs, instance.twist, profile.m_list):
        p = p + (x * powers[mj]).scale(eps**ij)
        dp = dp + (x * powers[mj - 1]).scale(eps**ij * mj)
    return p, dp


def lift_jets(instance: EquationInstance, order: int) -> list[TruncatedSeries]:
    """Newton-lift all m branches at the origin; entry b is branch b.

    Branch b starts from the exact simple root zeta^b of y^m = 1, where
    the y-derivative m zeta^{b(m-1)} cannot vanish.  Each Newton update
    doubles the number of correct degrees, so exactly
    ceil(log2(order + 1)) updates reach the order.  The final substitution
    residual must stay below SUBSTITUTION_TOL.
    """
    if any(abs(v) != 0 for v in instance.base_point):
        raise ProfileError("jets are lifted at the origin only")
    if order < 1:
        raise ValueError("jet order must be at least 1")
    profile = instance.profile
    m, n = profile.m, profile.n
    zeta = cmath.exp(2j * cmath.pi / m)
    xs = [TruncatedSeries.variable(COMPLEX, n, order, j) for j in range(n)]
    steps = math.ceil(math.log2(order + 1))
    jets = []
    for b in range(m):
        y = TruncatedSeries.constant(COMPLEX, n, order, zeta**b)
        for _ in range(steps):
            p, dp = _poly_and_derivative(instance, y, xs)
            y = y - p * dp.inverse()
        residual = _poly_and_derivative(instance, y, xs)[0].max_abs()
        if residual >= SUBSTITUTION_TOL:
            raise RootFindingError(
                f"branch {b} substitution residual {residual:.3e}")
        jets.append(y)
    return jets


def _branches(profile: ExponentProfile, twist,
              ypr: TruncatedSeries) -> list[TruncatedSeries]:
    """The m exact branches of the equation twisted by ``twist``."""
    return [scaled_root_series(profile, j, ypr.order, twist, ypr)
            for j in range(profile.m)]


def scaled_root_max_deviation(profile: ExponentProfile, order: int) -> float:
    """Max coefficient gap between origin jets and the rotated principal root.

    Branch j of the untwisted equation must match
    e^j * y_pr(e^{j m_1} x_1, ..., e^{j m_n} x_n) coefficientwise.
    """
    jets = lift_jets(origin_instance(profile), order)
    targets = _branches(profile, None, principal_series(profile, order))
    return max((jet - target.to_complex()).max_abs()
               for jet, target in zip(jets, targets))


def coset_equation_jets(profile: ExponentProfile, order: int):
    """Complex jets of every branch of every coset-representative equation."""
    ypr = principal_series(profile, order)
    return [[s.to_complex() for s in _branches(profile, rep, ypr)]
            for rep in coset_representatives(profile)]


@lru_cache(maxsize=32)
def _root_sums(profile: ExponentProfile, order: int) -> tuple:
    """Exact sum over the m branches of each coset-representative equation."""
    ypr = principal_series(profile, order)
    sums = []
    for rep in coset_representatives(profile):
        branches = _branches(profile, rep, ypr)
        sums.append(sum(branches[1:], branches[0]))
    return tuple(sums)


def relation_check(profile: ExponentProfile, c, order: int) -> float:
    """Max coefficient magnitude of sum_k c_k (root sum of equation k).

    The sum is exact over Q[Z/m], so a true relation gives exactly 0.0.
    """
    if profile.d > 1:
        raise ProfileError("root-sum relations are defined only for d = 1")
    sums = _root_sums(profile, order)
    if len(c) != len(sums):
        raise ValueError(f"relation vector length {len(c)} != {len(sums)}")
    terms = [s.scale_rational(Fraction(ck)) for ck, s in zip(c, sums) if ck]
    return sum(terms[1:], terms[0]).max_abs() if terms else 0.0


@lru_cache(maxsize=32)
def _log_sums(profile: ExponentProfile, order: int) -> tuple:
    """Per coset equation, sum_b e^b R_b(y_pr log y_pr) and sum_b b y_b.

    Both are exact group-ring series shared by every relation vector.
    """
    ypr = principal_series(profile, order)
    ylog = ypr * ypr.log()
    out = []
    for rep in coset_representatives(profile):
        rotated = [scaled_root_series(profile, b, order, rep, ylog)
                   for b in range(profile.m)]
        weighted = [yb.scale_rational(b)
                    for b, yb in enumerate(_branches(profile, rep, ypr)) if b]
        out.append((sum(rotated[1:], rotated[0]),
                    sum(weighted[1:], weighted[0])))
    return tuple(out)


@dataclass(frozen=True)
class LogSolution:
    """chi_c = sum_k c_k sum_b y_b^(k) log y_b^(k) as a truncated series.

    constant_offsets records exactly which branch constants enter: entries
    (k, b, q) stand for c_k * q * 2*pi*i * zeta^b with q = b/m, the branch
    logarithm at the origin being fixed as log zeta^b = 2*pi*i*b/m.

    parts = (A, B) are exact group-ring series with chi = A + (2*pi*i/m) B:
    A = sum_k c_k sum_b e^b R_b(y_pr log y_pr) and B = sum_k c_k sum_b b y_b,
    R_b being the rotation that carries y_pr to e^{-b} y_b.
    """

    c: tuple
    chi: TruncatedSeries
    constant_offsets: tuple
    parts: tuple


def log_solution(profile: ExponentProfile, c, order: int) -> LogSolution:
    """Assemble the logarithmic solution attached to a relation vector.

    Rotation is a ring homomorphism, so log(e^{-b} y_b) = R_b(log y_pr)
    and y_b log y_b = e^b R_b(y_pr log y_pr) + (2*pi*i*b/m) y_b: no
    group-ring logarithm or inverse is needed.
    """
    residual = relation_check(profile, c, order)
    if residual != 0:
        raise ValueError(
            f"relation residual {residual:.3e} is not zero: the logarithmic "
            "combination would break the homogeneity of the system")
    m = profile.m
    zero = TruncatedSeries.zero(get_cyclotomic_ring(m), profile.n, order)
    part_a, part_b, offsets = zero, zero, []
    for k, (ck, (sum_a, sum_b)) in enumerate(
            zip(c, _log_sums(profile, order))):
        ckq = Fraction(ck)
        if ckq == 0:
            continue
        part_a = part_a + sum_a.scale_rational(ckq)
        part_b = part_b + sum_b.scale_rational(ckq)
        offsets += [(k, b, ckq * Fraction(b, m)) for b in range(1, m)]
    chi = part_a.to_complex() + part_b.to_complex().scale(2j * cmath.pi / m)
    return LogSolution(c=tuple(Fraction(v) for v in c), chi=chi,
                       constant_offsets=tuple(offsets),
                       parts=(part_a, part_b))


def mellin_residual(profile: ExponentProfile, series: TruncatedSeries) -> float:
    """Relative annihilation residual under the full Mellin system.

    Applies each operator and returns the largest output coefficient
    magnitude at reliable order, divided by the largest input magnitude.
    Over Q and Q[Z/m] the operators act exactly, so a solution gives 0.0.
    """
    if series.order < profile.m + 2:
        raise ValueError("series order must be at least m + 2")
    scale = series.max_abs()
    if scale == 0.0:
        return 0.0
    worst = 0.0
    for op in mellin_system(profile):
        image = op.apply(series)
        worst = max(worst, image.max_abs())
    return worst / scale


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
    """Build the d twisted-equation blocks and certify their ranks.

    For each k < d the m/d branches j = 0..m/d-1 of
    y^m + e^k x y^{m1} - 1 = 0 are e^j y_pr(e^{j m1 + k} x); they must
    each be annihilated exactly by the single Mellin operator and the d
    blocks must have rank m/d apiece and rank m jointly.  The m branches
    of the untwisted equation alone span only m/d-fold-collapsed
    directions; their rank is reported for the polyquadratic-style checks.
    """
    profile = make_profile(m, [m1])
    d = profile.d
    ypr = principal_series(profile, order)
    blocks = [_branches(profile, (k,), ypr)[: m // d] for k in range(d)]
    worst = max(mellin_residual(profile, s) for block in blocks for s in block)
    block_ranks = tuple(independence_rank(block, RANK_TOL) for block in blocks)
    joint = independence_rank([s for block in blocks for s in block], RANK_TOL)
    original_rank = independence_rank(_branches(profile, (0,), ypr), RANK_TOL)
    return SubspaceWitness(m=m, m1=m1, d=d, block_ranks=block_ranks,
                           joint_rank=joint, max_residual=worst,
                           original_root_rank=original_rank)


def equation_report(profile: ExponentProfile, twist, order: int,
                    seed: int = 0) -> dict:
    """JSON-able verification record for one twisted equation.

    Takes the m closed-form branches and reports the substitution residual
    of their complex embeddings, their exact annihilation residual and the
    rank they span.  The seed is recorded so reports stay self-describing
    next to seeded scalar root computations.
    """
    inst = origin_instance(profile, twist)
    branches = _branches(profile, inst.twist, principal_series(profile, order))
    jets = [s.to_complex() for s in branches]
    xs = [TruncatedSeries.variable(COMPLEX, profile.n, order, j)
          for j in range(profile.n)]
    return {
        "profile": profile.to_json(),
        "twist": list(inst.twist),
        "order": order,
        "seed": seed,
        "substitution_residual": max(
            _poly_and_derivative(inst, y, xs)[0].max_abs() for y in jets),
        "annihilation_residual": max(mellin_residual(profile, s)
                                     for s in branches),
        "rank": independence_rank(jets, RANK_TOL),
    }


def elementary_symmetric(series_list, order: int):
    """e_1, ..., e_k of the given series, via the product expansion."""
    n = series_list[0].n_vars
    ring = series_list[0].ring
    elems = [TruncatedSeries.constant(ring, n, order, ring.one)]
    for s in series_list:
        new = []
        for deg in range(len(elems) + 1):
            term = None
            if deg < len(elems):
                term = elems[deg]
            prev = elems[deg - 1] * s if deg >= 1 else None
            if term is None:
                new.append(prev)
            elif prev is None:
                new.append(term)
            else:
                new.append(term + prev)
        elems = new
    return elems[1:]
