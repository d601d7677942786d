"""Optimal-trading no-trade bands under linear plus small nonlinear costs.

The package computes the exact linear-cost band via a Green's-function
construction, the boundary-layer correction from small quadratic or
power-law costs via matched asymptotics, and validates both against a
finite-difference solve of the full control problem.
"""

from .errors import (BandLayerError, ConfigError, ConvergenceError,
                     DomainError, RegimeError)
from .model import (CostKind, CostParams, Grid2D, ModelParams, ScalarField,
                    default_x_domain, drift, markowitz_position,
                    stationary_std)
from .band_zero import (Band, GreensDecomposition, HomogeneousPair,
                        check_displacement_identity, find_band_zero,
                        flat_band_level, greens_particular,
                        second_derivative_at_band, solve_homogeneous,
                        third_derivative_at_band, value_nt_zero,
                        value_rb_zero)
from .asymptotics import (LayerConstants, LayerKind, LayerProfile,
                          VelocityProfile, abel_layer_solve,
                          composite_velocity, layer_constants,
                          layer_ode_residual, layer_profile_airy,
                          shifted_boundary, sqrt_linear_crossover)
from .hjb import (ContinuityReport, ExtractedBand, SolverConfig, ValueGrid,
                  VelocitySlice, c2_continuity_check, extract_band,
                  solve_hjb, velocity_slice)
from .experiments import (LogLogFit, RegimeReport, SweepResult,
                          ValidityParams, ValidityReport, eta_shift_sweep,
                          gamma_width_sweep, layer_width_ratio, loglog_fit,
                          regime_map, validity_report)
from .config import RunConfig, load_config, parse_config

__version__ = "0.1.0"
