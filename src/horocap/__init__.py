"""Numerical laboratory for capillary hypersurfaces on a horospherical support."""

from .quadrature import QuadratureSpec, gauss_legendre, unit_sphere_area
from .surfaces import (EvaluationError, GeometryError, GridSurface,
                       ImmersionError, ProfileSurface, SupportError,
                       check_immersion, integrate_M, integrate_dM)
from .families import (AmplitudeError, CapKind, CapSpec, ConstructionError,
                       InfeasibleError, PerturbationSpec, build, perturb,
                       solve_for_angle)
from .identities import IDENTITY_IDS, IdentityReport, suite
from .stability import (ScalarField, SpectrumResult, VariationCheck,
                        boundary_cancellation, constrained_spectrum,
                        energy_second_difference, fd_variation_check,
                        quadratic_form, robin_q, umbilicity_deficit)
from .config import ConfigError, RunConfig, load_config, parse_config

__version__ = "0.1.0"
