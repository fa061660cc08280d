"""Branch-by-branch oracles for the coset sums of ``mellinsys.roots``.

The library takes every sum over coset equations and root branches from
the rational y_pr in one pass, weighting each coefficient by a group-ring
element fixed by its exponent mod m, and keeps only the coefficients
that do not vanish in Q(zeta_m).  These build each of the m |Gamma|
branches over Q[Z/m] with ``scaled_root_series`` and add them up;
``nonvanishing`` drops from such a sum the coefficients whose embedding
vanishes, each tested on its own.  ``log_parts_from_weights`` writes the
two exact parts of a logarithmic solution from its class-weight tables,
for comparison with these sums.  ``class_weights_by_fractions`` builds
those tables in Fractions, one ``dot`` per class and representative,
where the library reads integer phases off one table per profile.

``mellin_residual`` runs every Mellin operator on the series it is given,
the reference for the annihilation residuals that the library reads off
op_j(y_pr) and op_j(y_pr log y_pr).  ``equation_record_by_branches`` is the
per-equation record measured on the m complex branches, where the library
takes its residual and rank from y_pr.  ``poly_and_derivative`` evaluates
p and p' of a twisted equation on one series.

The Newton lift of all m branches at the origin is an oracle too: the
library proves the branches exactly (``roots.root_identities``) and
witnesses them at a point, and these check the same claim by numerics
that never read y_pr.  ``_dense_lift`` runs it on one dense complex array
and ``lift_jets`` reads that array as m complex series;
``lift_jets_by_series`` is the precision-doubling Newton lift run branch
by branch on sparse series, and ``lift_jets_full_order`` the lift with
every update at the full jet order: the references for the dense lift.
``scaled_root_max_deviation`` compares the dense rows with the rotated
y_pr column by column, and ``scaled_root_deviation_by_series`` does the
same on sparse series.

``substitution_residual_by_products`` is the residual of y_pr in its
equation from Fraction series products, where the library convolves
integers.
"""

import cmath
import math
import operator
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import NamedTuple

import numpy as np

from mellinsys import roots
from mellinsys.profiles import (ExponentProfile, ProfileError,
                                coset_representatives, dot, index_box)
from mellinsys.rings import roots_of_unity
from mellinsys.roots import EquationInstance, RootFindingError, origin_instance
from mellinsys.series import (exponents_up_to, independence_rank,
                              principal_series)
from mellinsys.weyl import mellin_system
from ring_oracle import (COMPLEX, RATIONAL, RingSeries, get_cyclotomic_ring,
                         ring_series, scaled_root_series)
from series_oracle import inverse, log, naive_product
from weyl_oracle import apply


def mellin_residual(profile, series) -> float:
    """Relative annihilation residual under the full Mellin system.

    Applies each operator and returns the largest output coefficient
    magnitude at reliable order, divided by the largest input magnitude.
    Over Q and Q[Z/m] the operators act exactly, so a solution gives 0.0.
    """
    series = ring_series(series)
    if series.order < profile.m + 2:
        raise ValueError("series order must be at least m + 2")
    scale = series.max_abs()
    if scale == 0.0:
        return 0.0
    return max(apply(op, series).max_abs()
               for op in mellin_system(profile)) / scale


def equation_record_by_branches(p, twist, order):
    """(substitution residual, SVD rank) of the m complex embeddings of the
    closed-form branches of the equation twisted by ``twist``."""
    inst = origin_instance(p, twist)
    ypr = principal_series(p, order)
    jets = [scaled_root_series(p, j, order, inst.twist, ypr).to_complex()
            for j in range(p.m)]
    xs = [RingSeries.variable(COMPLEX, p.n, order, j) for j in range(p.n)]
    residual = max(poly_and_derivative(inst, y, xs)[0].max_abs()
                   for y in jets)
    return residual, independence_rank([y.terms for y in jets])


def poly_and_derivative(instance, y, xs):
    """p(y) and p'(y) for the defining polynomial of the instance, from one
    table of powers y^0..y^m (m - 1 products), over the ring of y (complex
    if the twist is nonzero)."""
    profile = instance.profile
    m, ring = profile.m, y.ring
    eps = cmath.exp(2j * cmath.pi / m)
    powers = [RingSeries.constant(ring, y.n_vars, y.order, ring.one), y]
    for _ in range(m - 1):
        powers.append(naive_product(powers[-1], y))
    p = powers[m] - powers[0]
    dp = powers[m - 1].scale_rational(m)
    for x, ij, mj in zip(xs, instance.twist, profile.m_list):
        unit = eps**ij if ij else 1
        p = p + naive_product(x, powers[mj]).scale(unit)
        dp = dp + naive_product(x, powers[mj - 1]).scale(unit * mj)
    return p, dp


SUBSTITUTION_TOL = 1e-10  # substitution residual of the lifted jets


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


def _dense_lift(instance: EquationInstance, order: int):
    """Newton-lift all m branches at the origin: the lift's table and its
    (m, K) complex array, whose row b is branch b over the K columns
    ``table.exps``.

    Branch b starts from the exact simple root zeta^b of y^m = 1, where
    the y-derivative m zeta^{b(m-1)} cannot vanish.  Each Newton update
    doubles the number of correct degrees (Brent-Kung, J. ACM 25, 1978),
    so exactly ceil(log2(order + 1)) updates reach the order, and update
    k = 0, 1, ... runs at order min(2^{k+1} - 1, order): y is correct
    through degree 2^k - 1 and its terms above are zero.  The columns are
    the exponents sorted by degree (``_LiftTable``): a product is a gather
    over the cached pair table and one fixed-order segment sum, so no
    library summation order enters the digits.  The final substitution
    residual of each branch, taken at the full order, must stay below
    SUBSTITUTION_TOL.  A lift whose products would hold more than
    MAX_LIFT_VALUES complex values is refused before any table is built.
    """
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
    is y_s zeta^{b r_J}, J = s mod m (``_phase_table``): each column of the
    dense lift is compared with complex(y_s) times these units from the
    Q[Z/m] embedding table.
    """
    table, y = _dense_lift(origin_instance(profile), order)
    m, ypr = profile.m, principal_series(profile, order)
    zeta, phases = roots_of_unity(m), roots._phase_table(profile)
    targets = []
    for s in table.exps:
        c, r = complex(ypr.coefficient(s)), phases[tuple(v % m for v in s)][0]
        targets.append([c * zeta[b * r % m] for b in range(m)])
    # Python's complex abs: numpy's can differ from it in the last bit
    return max(map(abs, (y - np.array(targets).T).ravel().tolist()))


def lift_jets(instance, order):
    """The dense lift of ``_dense_lift`` as m complex series; entry b is
    branch b."""
    table, y = _dense_lift(instance, order)
    return [RingSeries(COMPLEX, instance.profile.n, order,
                       dict(zip(table.exps, row)))
            for row in y.tolist()]


def lift_jets_by_series(instance, order):
    """The m branches at the origin, each lifted on its own sparse series:
    ceil(log2(order + 1)) Newton updates from zeta^b, update k at order
    min(2^{k+1} - 1, order), and a full-order substitution residual."""
    n, m = instance.profile.n, instance.profile.m
    zeta = cmath.exp(2j * cmath.pi / m)
    xs = [RingSeries.variable(COMPLEX, n, order, j) for j in range(n)]
    jets = []
    for b in range(m):
        y = RingSeries.constant(COMPLEX, n, 0, zeta**b)
        for k in range(math.ceil(math.log2(order + 1))):
            y = RingSeries(COMPLEX, n, min(2 ** (k + 1) - 1, order), y.terms)
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
    xs = [RingSeries.variable(COMPLEX, n, order, j) for j in range(n)]
    jets = []
    for b in range(m):
        y = RingSeries.constant(COMPLEX, n, order, zeta**b)
        for _ in range(math.ceil(math.log2(order + 1))):
            p, dp = poly_and_derivative(instance, y, xs)
            y = y - naive_product(p, inverse(dp))
        jets.append(y)
    return jets


def nonvanishing(series):
    """The series without the coefficients whose embedding vanishes."""
    ring = series.ring
    return RingSeries(ring, series.n_vars, series.order, {
        s: c for s, c in series.terms.items() if not ring.is_zero_complex(c)})


def root_sum_by_branches(p, c, order):
    """sum_k c_k (sum of the m branches of coset equation k)."""
    ypr = principal_series(p, order)
    total = RingSeries.zero(get_cyclotomic_ring(p.m), p.n, order)
    for ck, rep in zip(c, coset_representatives(p)):
        for j in range(p.m):
            total = total + scaled_root_series(
                p, j, order, rep, ypr).scale_rational(ck)
    return total


def log_parts_by_branches(p, c, order):
    """A and B of ``log_solution`` summed branch by branch for one vector."""
    ypr = principal_series(p, order)
    ylog = naive_product(ypr, log(ypr))
    a = b = RingSeries.zero(get_cyclotomic_ring(p.m), p.n, order)
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
        parts.append(RingSeries(ring, p.n, order, {
            s: tuple(x * q for x in table[classes[s]])
            for s, q in f.terms.items() if classes[s] in table}))
    return parts


def class_weights_by_fractions(p, c, power, vanishes):
    """{J: w_J} of ``roots._class_weights`` in Fractions: chi_J(c) = sum_k
    c_k e^{<I_k, J>} from one ``dot`` per class and representative, kept
    iff (power = 1 or r_J = 0) and ``vanishes(chi_J)`` is false, tested
    once per distinct chi, and w_J = chi_J S_power(r_J) by the ring
    oracle's Q[Z/m] product.  chi_J is summed once per distinct tuple of
    phases <I_k, J> mod m, which fixes it."""
    m, ring = p.m, get_cyclotomic_ring(p.m)
    pairs = [(Fraction(ck), rep)
             for ck, rep in zip(c, _representatives(p)) if ck]
    kept, chis, formed, weights = {}, {}, {}, {}
    for cls in index_box(p):
        r = (1 + dot(p.m_list, cls)) % m
        if power == 0 and r:
            continue
        phases = tuple(dot(rep, cls) % m for _, rep in pairs)
        if phases not in chis:
            chi = [Fraction(0)] * m
            for (ck, _), phase in zip(pairs, phases):
                chi[phase] += ck
            chi = tuple(chi)
            if chi not in kept:
                kept[chi] = not vanishes(chi)
            chis[phases] = chi, kept[chi]
        chi, keep = chis[phases]
        if keep:
            if (phases, r) not in formed:
                s_power = [sum(b**power for b in range(m) if b * r % m == k)
                           for k in range(m)]
                formed[phases, r] = ring.mul(chi, s_power)
            weights[cls] = formed[phases, r]
    return weights


@lru_cache(maxsize=None)
def _representatives(p):
    return tuple(coset_representatives(p))


def elementary_symmetric(series_list, order: int):
    """e_1, ..., e_k of the given series, via the product expansion."""
    n = series_list[0].n_vars
    ring = series_list[0].ring
    elems = [RingSeries.constant(ring, n, order, ring.one)]
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
    y = ring_series(y)
    n, order = p.n, y.order
    powers = [RingSeries.constant(RATIONAL, n, order, RATIONAL.one), y]
    for _ in range(p.m - 1):
        powers.append(naive_product(powers[-1], y))
    res = powers[-1] - powers[0]
    for j, mj in enumerate(p.m_list):
        res = res + naive_product(
            RingSeries.variable(RATIONAL, n, order, j), powers[mj])
    return res.max_abs()


def scaled_root_deviation_by_series(p, order):
    """Max coefficient gap between the lifted jets of the untwisted
    equation and the embedded exact branches e^j y_pr(e^{j m_k} x_k)."""
    return max((jet - scaled_root_series(p, j, order).to_complex()).max_abs()
               for j, jet in enumerate(lift_jets(origin_instance(p), order)))
