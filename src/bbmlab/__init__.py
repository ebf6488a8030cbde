"""Numerical laboratory for branching Brownian motion with drift and absorption."""

__version__ = "0.1.0"

from .drift import CBAR_CRITICAL, DriftExpansion, front_position, front_speed, selfsimilar_forcing
from .pde import (Field, NumericalFailure, ObservableSeries, SolverConfig, SpatialGrid,
                  boundary_slope, evolve, flux_identity_residual, initial_condition, mass)
from .oscillator import (Decomposition, LossOfSupport, SelfSimilarField, SpectralBasis,
                         WTrajectory, apply_M, decompose, default_y_grid, eigenfunction,
                         eigenvalue, evolve_W, from_selfsimilar, observables_from_trajectory,
                         quadratic_form_Q, slope_correspondence, to_selfsimilar)
from .specfun import (F2, GProfile, H, SeriesAccuracy, G_explicit, g1_coefficient, g_profile,
                      g_slope0, solve_g_spectral)
from .mc import McConfig, PopulationCapExceeded, estimate, survival_probability
from .rates import Alpha0Estimate, RateFit, estimate_alpha0, fit_rate, fit_remainder_decay, prefactor_check
from .pipeline import (ConfigError, parse_config, rate_report, resolved_run, run_experiment,
                       selfsimilar_run)
