"""Lattice experiments on nonlocal drum shapes: eigenvalues, torsion,
rearrangement, annealing over cell sets, a signed-charge toy model, and
the weighted half-plane extension with its radius-scaled energy quantity."""

__version__ = "0.1.0"

from .anneal import (AnnealResult, AnnealSchedule, apply_move, diagnostics,
                     enumerate_moves, minimize, translation_gradient)
from .charges import (ChargeConfig, DescentResult, Stationarity,
                      StationarityReport, SweepSummary, classify,
                      conjecture_sweep, descend, energy as charge_energy,
                      gradient as charge_gradient, hessian as charge_hessian,
                      translation_complement_eigs)
from .extension import (ExtensionGrid, ExtensionSolution, WeissCurve,
                        equivalence_constant, harmonic_extension,
                        homogeneous_profile, monotonicity_report,
                        trace_support_intervals, weiss_functional)
from .form import (EnergyDecomposition, FormMatrix, FormOperator,
                   assemble_form, bilinear, energy_decomposition,
                   form_operator, interaction_energy, rayleigh)
from .grid import (ComponentDecomposition, GridSpec, KernelParams,
                   LatticeField, MultiIndicator, component_signs,
                   connected_components)
from .rearrange import (BallEnergyReport, ball_energy_check, ball_indicator,
                        center_outward_order, rearrange)
from .spectra import (SpectralResult, TorsionResult, dirichlet_eigs,
                      gamma_distance, kernel_operator_constant, objective,
                      torsion_solve)

__all__ = [name for name in dir() if not name.startswith("_")]
