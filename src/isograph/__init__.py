"""Supersingular isogeny graphs with level structure.

Builds the graphs G_p^(l)(N) whose vertices are supersingular elliptic
curves over F_{p^2} enhanced with a cyclic subgroup of squarefree order N,
and whose edges are degree-l isogenies, then verifies their structural,
spectral, and zeta-function properties.
"""

__version__ = "0.1.0"

from .enhanced import (
    AdmissibilityError,
    EnhancedGraph,
    GraphBuilder,
    check_admissible,
    sigma1,
    vertex_count,
)
from .fields import Embedding, Field, FieldElement, make_extension_field
from .graph import covering_map, euler_characteristic, verify_covering
from .spectral import cheeger_constant, ramanujan_report, spectrum
from .supersingular import build_class_table
from .zeta import ihara_zeta, reciprocity_check

__all__ = [
    "AdmissibilityError",
    "Embedding",
    "EnhancedGraph",
    "Field",
    "FieldElement",
    "GraphBuilder",
    "__version__",
    "build_class_table",
    "check_admissible",
    "cheeger_constant",
    "covering_map",
    "euler_characteristic",
    "ihara_zeta",
    "make_extension_field",
    "ramanujan_report",
    "reciprocity_check",
    "sigma1",
    "spectrum",
    "vertex_count",
    "verify_covering",
]
