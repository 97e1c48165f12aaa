"""Exact spectral and dynamical analysis over non-archimedean fields.

Each public name loads its module on first use (PEP 562), so that
``import ultradyn`` reads no analysis module."""

from importlib import import_module

_NAMES = {
    "errors": """DivisionByZero JacobianSingular NotAFixedPoint PrecisionExhausted
        PreconditionViolated RankUncertified ResonanceDetected SchemaError UltradynError""",
    "field": "DEFAULT_PRECISION PadicNumber compare_threshold valuation_of_rational",
    "polyalg": "NewtonPolygon Polynomial charpoly newton_polygon slope_factorization",
    "spectral": """AdaptedNorm LinearAnalysis SpectralData Splitting Witness
        adapted_norm is_hyperbolic nonhyperbolicity_witness operator_norm
        spectral_data spectrum_abs splitting_at""",
    "dynamics": """BallCertificate FixedPointReport MembershipVerdict PolyMap
        classify_fixed_point invariant_ball jacobian linearization_radius orbit
        remainder_lipschitz shift_to_fixed_point stable_membership""",
    "manifolds": "GraphSeries formal_inverse graph_series residual",
}
_MODULE = {name: module for module, names in _NAMES.items() for name in names.split()}
__all__ = list(_MODULE)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_MODULE[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
