"""Exact-arithmetic toolkit for cyclic-group character calculus, polygon
checks, Hodge-polynomial algebra, and certificate-emitting constructions of
products with asymmetric Hodge numbers."""

from .cyclochar import CharRep, PrimeContext
from .polygons import PolygonData
from .hodgecalc import DeltaExpr, DPoly, HodgePolynomial, HodgeSeries
from .cmbuild import CMData
from .pipeline import ConstructionCertificate

__version__ = "1.0.0"

__all__ = [
    "CharRep",
    "PrimeContext",
    "PolygonData",
    "HodgePolynomial",
    "HodgeSeries",
    "DPoly",
    "DeltaExpr",
    "CMData",
    "ConstructionCertificate",
    "__version__",
]
