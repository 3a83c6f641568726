"""Exact heat kernel coefficients on homogeneous bundles over symmetric spaces."""

from .bundles import FiberRep, build_rep, catalog_rep, validate_rep
from .engine import (
    HeatCoefficients,
    HeatRequest,
    HeatTraceResult,
    coefficient_report,
    heat_coefficients,
    heat_trace,
)
from .exact import GaussianRational, Matrix, commutator, rational
from .oracles import SpectralModel, extract_coefficients, gilkey_a1, gilkey_a2, sphere_trace
from .spaces import (
    CurvatureData,
    SymmetricSpaceModel,
    build_model,
    catalog_space,
    flat,
    hyperbolic,
    product,
    sphere,
    validate_model,
)
from .wick import GaussianWeight, average_monomial, average_poly, symmetrized_moment

__version__ = "0.1.0"

__all__ = [
    "CurvatureData",
    "FiberRep",
    "GaussianRational",
    "GaussianWeight",
    "HeatCoefficients",
    "HeatRequest",
    "HeatTraceResult",
    "Matrix",
    "SpectralModel",
    "SymmetricSpaceModel",
    "average_monomial",
    "average_poly",
    "build_model",
    "build_rep",
    "catalog_rep",
    "catalog_space",
    "coefficient_report",
    "commutator",
    "extract_coefficients",
    "flat",
    "gilkey_a1",
    "gilkey_a2",
    "heat_coefficients",
    "heat_trace",
    "hyperbolic",
    "product",
    "rational",
    "sphere",
    "sphere_trace",
    "symmetrized_moment",
    "validate_model",
    "validate_rep",
]
