"""Branch-by-branch oracles for the coset sums of ``mellinsys.roots``.

The library takes every sum over coset equations and root branches from
the rational y_pr in one pass, weighting each coefficient by a group-ring
element fixed by its exponent mod m.  These build each of the m |Gamma|
branches over Q[Z/m] with ``scaled_root_series`` and add them up.
"""

from mellinsys.profiles import coset_representatives
from mellinsys.rings import get_cyclotomic_ring
from mellinsys.series import (TruncatedSeries, principal_series,
                              scaled_root_series)


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
    ylog = ypr * ypr.log()
    a = b = TruncatedSeries.zero(get_cyclotomic_ring(p.m), p.n, order)
    for ck, rep in zip(c, coset_representatives(p)):
        for j in range(p.m):
            a = a + scaled_root_series(p, j, order, rep, ylog).scale_rational(ck)
            b = b + scaled_root_series(p, j, order, rep, ypr).scale_rational(
                ck * j)
    return a, b


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
