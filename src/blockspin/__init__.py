"""Numerical algebra of one block-spin renormalization step.

Finite-dimensional spaces with symmetric bilinear forms, averaging
operators on torus lattices, the derived kernel recursions of one step,
background and critical field equations (as truncated formal series and
as Newton solvers), and Gaussian integral identities checked both in
determinant form and by direct quadrature.  The harness module drives
scenario files and emits deterministic verification reports.
"""

__version__ = "0.1.0"

from .errors import (BlockspinError, ConfigError, ConvergenceError,
                     NearSingularError, QuadratureError, SpaceMismatchError)
from .linalg import (FieldVector, Operator, SpaceSpec, adjoint, components,
                     cond, form_asymmetry, gated_inverse, gated_solve,
                     pairing, rel_opnorm, woodbury_left, woodbury_right)
from .lattice import (BlockScheme, TorusLattice, TowerLevel,
                      averaging_operator, build_tower, sublattice)
from .kernels import (KernelSet, RGData, build_kernels, identity_suite,
                      next_scale_delta, qcheck_alt, qcheck_recursion,
                      starred_kernels)
from .poly import PolynomialP, dump_polynomial, load_polynomial
from .series import FormalSeries, SeriesPair, compose_pair
from .action import (ActionSpec, base_action, effective_action,
                     full_action, grad_base_action, grad_effective_action,
                     grad_full_action, grad_next_action, make_action_spec,
                     next_action, preparation_check, psi_tilde)
from .solvers import (background_residual, background_series_residuals,
                      compose_cp, critical_residual,
                      critical_series_residuals, delta_a_direct,
                      delta_a_formula, delta_phi_plus_series,
                      delta_phi_variants, fps_background, fps_critical,
                      fps_nextscale, newton_background, newton_critical,
                      nextscale_series_residuals, verify_composition,
                      verify_crit_representation)
from .gaussian import (fluctuation_integral, gaussian_exact,
                       gaussian_source_exact, insertion_constant,
                       prop_d_gaussian_check, prop_d_quadrature_check)
from .reference import scalar_reference_data, scalar_reference_spec
from .ensembles import (random_field, random_polynomial, random_rg_data,
                        random_spd, random_spec, stream, unit_field)
from .harness import (Check, Report, ScenarioConfig, SUITE_NAMES,
                      SuiteResult, emit_report, run_scenario, scenario_data,
                      scenario_spec)
