"""Exact positroid geometry of Wilson loop diagrams.

Admissible diagram enumeration, transversal-matroid cells with
Grassmann necklaces, the square-free pole polynomial R built three
independent ways, codimension classification of its factors, and
certified cancellation of every codimension-one pole across the
diagram sum at fixed (k, n).  All arithmetic is exact: Fractions,
bitmask matroids and a small hand-rolled polynomial ring.

The names below are the documented entry points; everything else
imports from its submodule (``wlpoles.exact``, ``wlpoles.matroids``, ...).
"""

from .cancel import amplitude_report, classify, partners, verify_group
from .diagrams import Propagator, WilsonLoopDiagram, enumerate_diagrams
from .errors import InconsistencyError, StructuralError, UnstructuredResidualError
from .poles import PoleFactor, check_r_equalities, factor_codim, r_poly_edge
from .positroids import diagram_cell, diagram_matroid, necklace

__version__ = "0.1.0"

__all__ = [
    "InconsistencyError",
    "PoleFactor",
    "Propagator",
    "StructuralError",
    "UnstructuredResidualError",
    "WilsonLoopDiagram",
    "amplitude_report",
    "check_r_equalities",
    "classify",
    "diagram_cell",
    "diagram_matroid",
    "enumerate_diagrams",
    "factor_codim",
    "necklace",
    "partners",
    "r_poly_edge",
    "verify_group",
]
