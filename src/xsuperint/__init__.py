"""Exact-arithmetic toolkit for a family of planar wedge Hamiltonians built
on a pole-deformed Jacobi family, with ladder-operator integrals of motion,
a numerical spectral layer, and the classical limit.

Everything algebraic is done over exact rationals; floats appear only in the
numerical cross-checks (grids, quadrature, orbit integration).  Transcribed
formulas are never trusted: `verify.verification_report` scores each one
against an independent derivation and reports MATCH / NORMALIZATION /
MISMATCH / NO-SOLUTION / UNRESOLVABLE.
"""

from .angular import (
    angular_operator,
    angular_potential,
    angular_schrodinger_x,
    exceptional_jacobi,
    solve_eigenpolynomial,
)
from .classical import (
    ClassicalModel,
    OrbitState,
    closure_report,
    conservation_drift,
    convergence_order,
    integrate,
)
from .errors import (
    NoSolutionError,
    NonUniqueSolutionError,
    NumericalOverflowError,
    OutOfFamilyError,
    ParameterDomainError,
    QuadratureError,
    StepSizeError,
    VerificationError,
    WedgeExitError,
    XSuperintError,
)
from .ladders import (
    composite_lowering,
    composite_raising,
    deformed_lowering,
    deformed_raising,
    lowering_intertwiner,
    parity_report,
    radial_lowering,
    radial_raising,
    raising_intertwiner,
)
from .operators import DiffOp, RatFunc
from .params import ModelParams, QuantumState, angular_eigenroot, energy, energy_ratio
from .polynomials import (
    Poly,
    exceptional_jacobi_closed_form,
    jacobi_polynomial,
    laguerre_polynomial,
)
from .spectral import (
    angular_gram,
    degeneracy_table,
    hamiltonian_residual,
    ladder_numeric_check,
    wavefunction_on_grid,
)
from .verify import VerificationReport, verification_report

__version__ = "0.1.0"

__all__ = [
    "ClassicalModel",
    "DiffOp",
    "ModelParams",
    "NoSolutionError",
    "NonUniqueSolutionError",
    "NumericalOverflowError",
    "OrbitState",
    "OutOfFamilyError",
    "ParameterDomainError",
    "Poly",
    "QuadratureError",
    "QuantumState",
    "RatFunc",
    "StepSizeError",
    "VerificationError",
    "VerificationReport",
    "WedgeExitError",
    "XSuperintError",
    "angular_eigenroot",
    "angular_gram",
    "angular_operator",
    "angular_potential",
    "angular_schrodinger_x",
    "closure_report",
    "composite_lowering",
    "composite_raising",
    "conservation_drift",
    "convergence_order",
    "deformed_lowering",
    "deformed_raising",
    "degeneracy_table",
    "energy",
    "energy_ratio",
    "exceptional_jacobi",
    "exceptional_jacobi_closed_form",
    "hamiltonian_residual",
    "integrate",
    "jacobi_polynomial",
    "ladder_numeric_check",
    "laguerre_polynomial",
    "lowering_intertwiner",
    "parity_report",
    "radial_lowering",
    "radial_raising",
    "raising_intertwiner",
    "solve_eigenpolynomial",
    "verification_report",
    "wavefunction_on_grid",
]
