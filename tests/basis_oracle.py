"""Test oracle for the convenient basis: the coefficient recurrence.

The library writes each coefficient of ``convenient_basis_series`` as a
closed Pochhammer ratio.  ``basis_by_recurrence`` fills the same
coefficients the way the x^m-cleared operators dictate, one step at a
time: writing psi(p) for the coefficient at I + m*p and s = m*p,

    psi(p + e_j) = psi(p) * P_j(s + I)
                   / ((-1)^{m_j} m^m * prod_{k=0}^{m-1}(s_j + m + i_j - k)),

where P_j(v) = prod_{k<m_j}(<M,v> + mk + 1) prod_{k<m'_j}(<M',v> + mk - 1)
is the indicial polynomial, evaluated here in integers with no help from
``weyl``.  The predecessor of p is p - e_j for the first or the last
nonzero coordinate j, so two different paths can be compared.
"""

from fractions import Fraction
from math import prod

from mellinsys.series import exponents_up_to
from ring_oracle import RATIONAL, RingSeries


def indicial_value(profile, j, v) -> int:
    """P_j at the integer point v."""
    m = profile.m
    mv = sum(a * b for a, b in zip(profile.m_list, v))
    mpv = sum(a * b for a, b in zip(profile.mprime_list, v))
    return (prod(mv + m * k + 1 for k in range(profile.m_list[j]))
            * prod(mpv + m * k - 1 for k in range(profile.mprime_list[j])))


def basis_by_recurrence(profile, index, order, last=False) -> RingSeries:
    """The basis series with initial monomial x^index, filled along
    first-nonzero (or, with ``last``, last-nonzero) predecessors."""
    m, n = profile.m, profile.n
    index = tuple(index)
    psi = {(0,) * n: Fraction(1)}
    for p in exponents_up_to(n, (order - sum(index)) // m):
        if not any(p):
            continue
        nonzero = [i for i, v in enumerate(p) if v > 0]
        j = nonzero[-1] if last else nonzero[0]
        q = tuple(v - 1 if i == j else v for i, v in enumerate(p))
        s = tuple(m * v for v in q)
        num = indicial_value(profile, j, [a + b for a, b in zip(s, index)])
        den = (-1) ** profile.m_list[j] * m**m
        for k in range(m):
            den *= s[j] + m + index[j] - k
        psi[p] = psi[q] * num / den
    terms = {tuple(i + m * v for i, v in zip(index, p)): c
             for p, c in psi.items() if c}
    return RingSeries(RATIONAL, n, order, terms)
