"""Exact-arithmetic toolkit for cyclic-group character calculus, polygon
checks, Hodge-polynomial algebra, and certificate-emitting constructions of
products with asymmetric Hodge numbers."""

from .cyclochar import CharRep, PrimeContext
from .polygons import PolygonData
from .hodgecalc import DeltaExpr, DPoly, HodgePolynomial
from .cmbuild import CMData
from .pipeline import TOOL_VERSION as __version__, ConstructionCertificate

__all__ = [
    "CharRep",
    "PrimeContext",
    "PolygonData",
    "HodgePolynomial",
    "DPoly",
    "DeltaExpr",
    "CMData",
    "ConstructionCertificate",
    "__version__",
]
