"""Exact spectral and dynamical analysis over non-archimedean fields."""

from .errors import (
    DivisionByZero,
    JacobianSingular,
    NotAFixedPoint,
    PrecisionExhausted,
    PreconditionViolated,
    RadiusNotFound,
    RankUncertified,
    ResonanceDetected,
    SchemaError,
    UltradynError,
)
from .field import (
    DEFAULT_PRECISION,
    PadicContext,
    PadicNumber,
    RationalContext,
    compare_threshold,
    valuation_of_rational,
)
from .polyalg import (
    NewtonPolygon,
    Polynomial,
    charpoly,
    kernel_basis,
    newton_polygon,
    slope_factorization,
)
from .spectral import (
    AdaptedNorm,
    LinearAnalysis,
    SpectralData,
    Splitting,
    Witness,
    adapted_norm,
    is_hyperbolic,
    nonhyperbolicity_witness,
    operator_norm,
    spectral_data,
    spectrum_abs,
    splitting_at,
)
from .dynamics import (
    BallCertificate,
    FixedPointReport,
    MembershipVerdict,
    PolyMap,
    classify_fixed_point,
    invariant_ball,
    jacobian,
    linearization_radius,
    orbit,
    remainder_lipschitz,
    shift_to_fixed_point,
    stable_membership,
)
from .manifolds import (
    GraphSeries,
    InverseSeries,
    formal_inverse,
    graph_series,
    residual,
)

__version__ = "0.1.0"
