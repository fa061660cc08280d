"""Test oracle: Euler-operator polynomials expanded by Weyl composition.

The library expands theta^k in closed form through Stirling numbers of the
second kind; this is the direct expansion it is checked against, composing
theta_j = x_j D_j with itself in the canonical-form Weyl algebra.
"""

from mellinsys.weyl import DiffOperator


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


def theta_poly_by_composition(poly) -> DiffOperator:
    """Canonical form of a ThetaPoly, one composed monomial at a time."""
    total = DiffOperator.zero(poly.n_vars)
    for k, c in sorted(poly.coeffs.items()):
        term = DiffOperator.identity(poly.n_vars).scale(c)
        for j, e in enumerate(k):
            if e:
                theta = DiffOperator.theta(poly.n_vars, j)
                term = term * operator_power(theta, e)
        total = total + term
    return total
