"""Median oscillation, BMO, and John-Nirenberg norms on finite metric
measure spaces, with Calderon-Zygmund decompositions and weak-type
inequality verifiers built from maximal s-medians."""

from . import errors
from .boman import (
    BomanCertificate,
    BomanDecomposition,
    chain_ratio,
    decomposition_from_json,
    global_jn_verify,
    grid_boman_decomposition,
    jn_equivalence_check,
    verify_boman,
)
from .covering import FiveCover, five_cover
from .czd import (
    CZDecomposition,
    CZParams,
    alpha_of,
    cz_decompose,
    cz_family,
    cz_nested,
    cz_params,
    good_lambda_sides,
    local_jn_verify,
    median_maximal,
    sharp_maximal,
    local_jn_constant,
)
from .generators import canonical_function, cluster_space, grid_space
from .median import (
    SampleFunction,
    is_s_median,
    maximal_median,
    median_oscillation,
    weighted_maximal_median,
)
from .norms import (
    BallPacking,
    JNResult,
    bmo_median_norm,
    integral_oscillation,
    jn_centered_sup,
    jn_integral_norm,
    jn_median_norm,
    lp_norm,
    weak_lp_norm,
)
from .space import (
    Ball,
    DoublingProfile,
    Space,
    ball_at,
    build_space,
    canonical_balls,
    dilate,
    doubling_profile,
    space_from_json,
    space_to_json,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
