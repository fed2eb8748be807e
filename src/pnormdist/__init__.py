"""p-norm distance matrices for radial basis function interpolation.

Builds phi(||x^i - x^j||_p) matrices, certifies their invertibility for
p in (1, 2] through almost-negative-definite (AND) spectral tests and
determinant signs, embeds AND matrices as squared Euclidean
distances, and constructs provably singular point configurations for every
p > 2 from orthogonal cube pairs and Bernstein-polynomial root-finding.
"""

from .andmatrix import (
    AndReport,
    Embedding,
    check_and,
    restrict_to_zero_sum,
    schoenberg_embed,
)
from .errors import (
    CertificationError,
    EmbeddingError,
    InputError,
    NotAndError,
    SingularSystemError,
    VerdictMismatchError,
)
from .geometry import (
    DistanceMatrix,
    PointSet,
    build_distance_matrix,
    read_matrix_csv,
    read_points_csv,
    write_matrix_csv,
    write_points_csv,
)
from .interpolation import Interpolant, evaluate_interpolant, fit
from .profiles import (
    RadialProfile,
    compose,
    exponential,
    identity,
    matrix_from_profile,
    multiquadric,
    power,
)
from .singular import (
    CertificationRecord,
    CubeConfig,
    RootResult,
    bernstein_half,
    certify_singular,
    cube_config,
    find_pmn,
    find_pn,
    find_theta,
    phi,
    psi,
    psi_limit,
    rate_table,
    reduced_system,
)

__version__ = "0.1.0"

__all__ = [
    "AndReport",
    "CertificationError",
    "CertificationRecord",
    "CubeConfig",
    "DistanceMatrix",
    "Embedding",
    "EmbeddingError",
    "InputError",
    "Interpolant",
    "NotAndError",
    "PointSet",
    "RadialProfile",
    "RootResult",
    "SingularSystemError",
    "VerdictMismatchError",
    "bernstein_half",
    "build_distance_matrix",
    "certify_singular",
    "check_and",
    "compose",
    "cube_config",
    "evaluate_interpolant",
    "exponential",
    "find_pmn",
    "find_pn",
    "find_theta",
    "fit",
    "identity",
    "matrix_from_profile",
    "multiquadric",
    "phi",
    "power",
    "psi",
    "psi_limit",
    "rate_table",
    "read_matrix_csv",
    "read_points_csv",
    "reduced_system",
    "restrict_to_zero_sum",
    "schoenberg_embed",
    "write_matrix_csv",
    "write_points_csv",
]
