"""Branch-by-branch oracles for the coset sums of ``mellinsys.roots``.

The library takes every sum over coset equations and root branches from
the rational y_pr in one pass, weighting each coefficient by a group-ring
element fixed by its exponent mod m, and keeps only the coefficients
that do not vanish in Q(zeta_m).  These build each of the m |Gamma|
branches over Q[Z/m] with ``scaled_root_series`` and add them up;
``nonvanishing`` drops from such a sum the coefficients whose embedding
vanishes, each tested on its own.  ``log_parts_from_weights`` writes the
two exact parts of a logarithmic solution from its class-weight tables,
for comparison with these sums.

``mellin_residual`` runs every Mellin operator on the series it is given,
the reference for the annihilation residuals that the library reads off
op_j(y_pr) and op_j(y_pr log y_pr).  ``equation_record_by_branches`` is the
per-equation record measured on the m complex branches, where the library
takes its residual and rank from y_pr.  ``poly_and_derivative`` evaluates
p and p' of a twisted equation on one series.  ``lift_jets_by_series`` is
the precision-doubling Newton lift run branch by branch on sparse series,
and ``lift_jets_full_order`` the lift with every update at the full jet
order: the references for the dense batched lift of ``roots.lift_jets``.

``substitution_residual_by_products`` is the residual of y_pr in its
equation from Fraction series products, where the library convolves
integers; ``scaled_root_deviation_by_series`` compares the lifted jets
with the rotated y_pr as sparse series, where the library compares
columns of the dense lift.
"""

import cmath
import math

from mellinsys.profiles import coset_representatives
from mellinsys.rings import COMPLEX, RATIONAL, get_cyclotomic_ring
from mellinsys.roots import (SUBSTITUTION_TOL, RootFindingError, lift_jets,
                             origin_instance)
from mellinsys.series import (TruncatedSeries, independence_rank,
                              principal_series, scaled_root_series)
from mellinsys.weyl import mellin_system
from series_oracle import inverse, log, naive_product


def mellin_residual(profile, series) -> float:
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
    return max(op.apply(series).max_abs()
               for op in mellin_system(profile)) / scale


def equation_record_by_branches(p, twist, order):
    """(substitution residual, SVD rank) of the m complex embeddings of the
    closed-form branches of the equation twisted by ``twist``."""
    inst = origin_instance(p, twist)
    ypr = principal_series(p, order)
    jets = [scaled_root_series(p, j, order, inst.twist, ypr).to_complex()
            for j in range(p.m)]
    xs = [TruncatedSeries.variable(COMPLEX, p.n, order, j) for j in range(p.n)]
    residual = max(poly_and_derivative(inst, y, xs)[0].max_abs()
                   for y in jets)
    return residual, independence_rank(jets)


def poly_and_derivative(instance, y, xs):
    """p(y) and p'(y) for the defining polynomial of the instance, from one
    table of powers y^0..y^m (m - 1 products), over the ring of y (complex
    if the twist is nonzero)."""
    profile = instance.profile
    m, ring = profile.m, y.ring
    eps = cmath.exp(2j * cmath.pi / m)
    powers = [TruncatedSeries.constant(ring, y.n_vars, y.order, ring.one), y]
    for _ in range(m - 1):
        powers.append(naive_product(powers[-1], y))
    p = powers[m] - powers[0]
    dp = powers[m - 1].scale_rational(m)
    for x, ij, mj in zip(xs, instance.twist, profile.m_list):
        unit = eps**ij if ij else 1
        p = p + naive_product(x, powers[mj]).scale(unit)
        dp = dp + naive_product(x, powers[mj - 1]).scale(unit * mj)
    return p, dp


def lift_jets_by_series(instance, order):
    """The m branches at the origin, each lifted on its own sparse series:
    ceil(log2(order + 1)) Newton updates from zeta^b, update k at order
    min(2^{k+1} - 1, order), and a full-order substitution residual."""
    n, m = instance.profile.n, instance.profile.m
    zeta = cmath.exp(2j * cmath.pi / m)
    xs = [TruncatedSeries.variable(COMPLEX, n, order, j) for j in range(n)]
    jets = []
    for b in range(m):
        y = TruncatedSeries.constant(COMPLEX, n, 0, zeta**b)
        for k in range(math.ceil(math.log2(order + 1))):
            y = TruncatedSeries(COMPLEX, n, min(2 ** (k + 1) - 1, order),
                                y.terms)
            p, dp = poly_and_derivative(instance, y, xs)
            y = y - naive_product(p, inverse(dp))
        residual = poly_and_derivative(instance, y, xs)[0].max_abs()
        if residual >= SUBSTITUTION_TOL:
            raise RootFindingError(
                f"branch {b} substitution residual {residual:.3e}")
        jets.append(y)
    return jets


def lift_jets_full_order(instance, order):
    """The m branches at the origin, ceil(log2(order + 1)) Newton updates
    from zeta^b, each at the full order."""
    n, m = instance.profile.n, instance.profile.m
    zeta = cmath.exp(2j * cmath.pi / m)
    xs = [TruncatedSeries.variable(COMPLEX, n, order, j) for j in range(n)]
    jets = []
    for b in range(m):
        y = TruncatedSeries.constant(COMPLEX, n, order, zeta**b)
        for _ in range(math.ceil(math.log2(order + 1))):
            p, dp = poly_and_derivative(instance, y, xs)
            y = y - naive_product(p, inverse(dp))
        jets.append(y)
    return jets


def nonvanishing(series):
    """The series without the coefficients whose embedding vanishes."""
    ring = series.ring
    return TruncatedSeries(ring, series.n_vars, series.order, {
        s: c for s, c in series.terms.items() if not ring.is_zero_complex(c)})


def root_sum_by_branches(p, c, order):
    """sum_k c_k (sum of the m branches of coset equation k)."""
    ypr = principal_series(p, order)
    total = TruncatedSeries.zero(get_cyclotomic_ring(p.m), p.n, order)
    for ck, rep in zip(c, coset_representatives(p)):
        for j in range(p.m):
            total = total + scaled_root_series(
                p, j, order, rep, ypr).scale_rational(ck)
    return total


def log_parts_by_branches(p, c, order):
    """A and B of ``log_solution`` summed branch by branch for one vector."""
    ypr = principal_series(p, order)
    ylog = naive_product(ypr, log(ypr))
    a = b = TruncatedSeries.zero(get_cyclotomic_ring(p.m), p.n, order)
    for ck, rep in zip(c, coset_representatives(p)):
        for j in range(p.m):
            a = a + scaled_root_series(p, j, order, rep, ylog).scale_rational(ck)
            b = b + scaled_root_series(p, j, order, rep, ypr).scale_rational(
                ck * j)
    return a, b


def log_parts_from_weights(p, weights, order):
    """The exact parts A and B of a logarithmic solution, rebuilt from its
    class-weight tables (W_A, W_B): the coefficient of y_pr log y_pr (of
    y_pr) at s times the weight of A (of B) at s mod m, where the table
    has one."""
    ring, ypr = get_cyclotomic_ring(p.m), principal_series(p, order)
    parts = []
    for f, table in zip((naive_product(ypr, log(ypr)), ypr), weights):
        classes = {s: tuple(v % p.m for v in s) for s in f.terms}
        parts.append(TruncatedSeries(ring, p.n, order, {
            s: tuple(x * q for x in table[classes[s]])
            for s, q in f.terms.items() if classes[s] in table}))
    return parts


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
            prev = naive_product(elems[deg - 1], s) if deg >= 1 else None
            if term is None:
                new.append(prev)
            elif prev is None:
                new.append(term)
            else:
                new.append(term + prev)
        elems = new
    return elems[1:]


def substitution_residual_by_products(p, y):
    """max_abs of y^m + sum_j x_j y^{m_j} - 1 for a rational series y,
    from one table of powers y^0..y^m (m - 1 Fraction series products)."""
    n, order = p.n, y.order
    powers = [TruncatedSeries.constant(RATIONAL, n, order, RATIONAL.one), y]
    for _ in range(p.m - 1):
        powers.append(naive_product(powers[-1], y))
    res = powers[-1] - powers[0]
    for j, mj in enumerate(p.m_list):
        res = res + naive_product(
            TruncatedSeries.variable(RATIONAL, n, order, j), powers[mj])
    return res.max_abs()


def scaled_root_deviation_by_series(p, order):
    """Max coefficient gap between the lifted jets of the untwisted
    equation and the embedded exact branches e^j y_pr(e^{j m_k} x_k)."""
    return max((jet - scaled_root_series(p, j, order).to_complex()).max_abs()
               for j, jet in enumerate(lift_jets(origin_instance(p), order)))
