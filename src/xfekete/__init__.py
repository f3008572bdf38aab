"""Exceptional orthogonal polynomials and their electrostatics.

Construction of the Laguerre-type and Jacobi-type exceptional families
as closed-form products of classical polynomials, checked against their
differential equations, zero computation with residual certificates,
weighted log-energy analysis (gradients, Hessians and stationary-point
classification), Fekete-set optimization, Gruenwald v-stability scans,
and the transfinite-diameter sequence.
"""

from .asymptotics import (DiameterSeries, ZeroSumReport, d_sequence,
                          transfinite_d, zero_sum_check)
from .classical_poly import (jacobi_coeffs, jacobi_pass, jacobi_seeds,
                             jacobi_zeros, laguerre_coeffs, laguerre_pass,
                             laguerre_seeds, laguerre_zeros)
from .energy import (EnergyReport, WeightSpec, energy_hessian,
                     energy_terms, fejer_constants, gradient_and_hessian,
                     log_energy, phi, phi_closed, v_weight, weight_logs)
from .errors import (CoincidentNodes, CountMismatch, DegreeCollapse,
                     DomainEscape, InvalidFamily, NonConvergence,
                     NullspaceDefect, NumericalError, PoleEvaluation,
                     RepresentationOverflow, SingularEvaluation,
                     ValidationError, XFeketeError)
from .exceptional import (BuiltPolynomial, FamilySpec, RationalODE,
                          build_S, build_exceptional, exceptional_eval,
                          exceptional_eval_pair, leading_coefficient,
                          ode_coeffs)
from .fekete_opt import (default_domain, maximize_log_T,
                         search_positive_h11, uniqueness_probe)
from .interp import (grunwald, hermite_form, inv_weight_brackets,
                     lagrange_basis, stability_scan)
from .roots import ZeroSet, check_interlacing, find_zeros

__version__ = "0.1.0"

__all__ = [
    "BuiltPolynomial", "CoincidentNodes", "CountMismatch",
    "DegreeCollapse", "DiameterSeries",
    "DomainEscape", "EnergyReport", "FamilySpec", "InvalidFamily",
    "NonConvergence", "NullspaceDefect", "NumericalError",
    "PoleEvaluation", "RationalODE", "RepresentationOverflow",
    "SingularEvaluation", "ValidationError",
    "WeightSpec", "XFeketeError", "ZeroSet", "ZeroSumReport",
    "build_S", "build_exceptional",
    "check_interlacing", "d_sequence", "default_domain", "energy_hessian",
    "energy_terms", "exceptional_eval", "exceptional_eval_pair",
    "fejer_constants", "find_zeros",
    "gradient_and_hessian", "grunwald", "hermite_form",
    "inv_weight_brackets", "jacobi_coeffs", "jacobi_pass",
    "jacobi_seeds", "jacobi_zeros", "lagrange_basis", "laguerre_coeffs",
    "laguerre_pass", "laguerre_seeds", "laguerre_zeros",
    "log_energy", "maximize_log_T", "ode_coeffs", "phi", "phi_closed",
    "search_positive_h11", "stability_scan", "transfinite_d",
    "uniqueness_probe", "v_weight", "weight_logs", "zero_sum_check",
]
