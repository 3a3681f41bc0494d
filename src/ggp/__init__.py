"""Generalized gamma polytopes: sampling, hulls, rescaling, festoons,
and the desk-scale experiment harness around their limit behavior."""

from .errors import GgpError
from .festoon import (
    Festoon,
    extreme_points,
    lift,
    phi_boundary_batch,
    psi_envelope,
    psi_lambda_envelope,
    rescaled_hull_boundary,
)
from .hull import (
    Polytope,
    convex_hull,
    is_vertex_lp,
    radial_function_batch,
)
from .params import (
    ModelParams,
    NormalizationConstants,
    critical_radius,
    normalization,
    unit_ball_volume,
    validate_params,
)
from .rescale import (
    exp_inverse,
    exp_map,
    inverse_transform,
    rescaled_intensity,
    transform_batch,
)
from .sampling import (
    RngStream,
    ScaledWindow,
    sample_direction,
    sample_polytope_input,
    sample_radius,
    sample_standardized_max,
)

__version__ = "0.1.0"
