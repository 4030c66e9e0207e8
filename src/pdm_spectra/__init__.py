"""Exactly solvable PT-symmetric Schroedinger problems with position-dependent
mass, built by point canonical transformation and validated against an
independent finite-difference eigensolver."""

from .conventions import SpectrumConvention
from .errors import (
    ConvergenceError,
    DomainError,
    GridAsymmetryError,
    NaNGuard,
    OutOfBoundStateRange,
    PdmSpectraError,
    PoleError,
    SingularityError,
)
from .mass_models import (
    GridSpec,
    MassDistribution,
    SampledFunction,
    coordinate_map_x,
    coordinate_map_y,
    mass_eval,
    mass_log_derivs,
    pt_defect,
    sample,
)
from .numeric_oracle import (
    DiscreteOperator,
    EigenResult,
    SpectrumReport,
    collapse_conjugate_pairs,
    discretize_const,
    discretize_pdm,
    eigen_solve,
    pt_commutation_defect,
    residual,
    spectrum_compare,
)
from .pct_engine import (
    CaseA,
    CaseB,
    TargetProblem,
    assemble_psi,
    build_target_problem,
    forward_omega,
    inverse_potential,
    matching_check,
)
from .reference_potentials import (
    BranchSelection,
    EnergyLevel,
    GenOscillator,
    ScarfII,
    SCARF_FORMULA_CORRECTED,
    SCARF_FORMULA_PUBLISHED,
    branch_params,
    omega_oscillator,
    omega_scarf,
    oscillator_energy,
    oscillator_wavefunction,
    scarf_bound_count,
    scarf_branch_sum,
    scarf_energy,
    scarf_wavefunction,
)
from .specfun import complex_pow, gamma_c, jacobi_poly, laguerre_poly

__version__ = "0.1.0"
