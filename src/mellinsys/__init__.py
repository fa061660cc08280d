"""Mellin hypergeometric systems of sparse algebraic equations.

Exact construction of the system of PDEs satisfied by the roots of
``y^m + x_1 y^{m_1} + ... + x_n y^{m_n} - 1 = 0``, its full m^n-dimensional
solution basis in closed form, the algebraic/logarithmic split of the
solution space, and Weyl-algebra verification of the univariate operator
factorizations.
"""

from .profiles import (DimensionReport, ExponentProfile, ProfileError,
                       algebraic_index_set, coset_representatives, dims,
                       index_box, make_profile, missing_index_set,
                       modular_counts, relation_basis)
from .rings import cyclotomic_polynomial
from .roots import (EquationInstance, LogSolution, RootFindingError,
                    SubspaceWitness, aberth_roots, coset_equation_jets,
                    equation_report, invariant_subspace_witness, log_solution,
                    origin_instance, relation_check, roots_at_point)
from .series import (TruncatedSeries, convenient_basis_series,
                     independence_rank, is_generating, principal_coefficient,
                     principal_series, subseries, twist_rank)
from .weyl import (DiffOperator, LatticeData, ThetaFactorization,
                   derivative_factorization, discriminant_poly,
                   horn_mellin_multiplier, horn_system, lattice_matrices,
                   leading_coefficient, mellin_operator_1d, mellin_system,
                   mellin_system_theta_form, theta_factorization)

__version__ = "0.1.0"

__all__ = [
    "DiffOperator", "DimensionReport", "EquationInstance", "ExponentProfile",
    "LatticeData", "LogSolution", "ProfileError",
    "RootFindingError", "SubspaceWitness", "ThetaFactorization",
    "TruncatedSeries", "aberth_roots", "algebraic_index_set",
    "convenient_basis_series",
    "coset_equation_jets", "coset_representatives",
    "cyclotomic_polynomial", "derivative_factorization", "dims",
    "discriminant_poly", "equation_report",
    "horn_mellin_multiplier", "horn_system", "independence_rank", "index_box",
    "invariant_subspace_witness",
    "is_generating", "lattice_matrices", "leading_coefficient",
    "log_solution", "make_profile", "mellin_operator_1d", "mellin_system",
    "mellin_system_theta_form", "missing_index_set",
    "modular_counts", "origin_instance", "principal_coefficient",
    "principal_series", "relation_basis", "relation_check", "roots_at_point",
    "subseries", "twist_rank",
]
