"""Farey paths, cutting sequences and octahedral volumes of modular links.

From a rational slope this package computes the shortest Farey triangle
path, the rotation orbits of slopes it generates, the AB cutting
sequences and LR words of the corresponding geodesics on the modular
surface, their traces, lengths and quadratic fields (factored by
``modlink.arith``), and the octahedral decomposition counts and volumes
of the associated link complements.  Every symbolic algorithm has an
independent geometric oracle; the oracles live in ``modlink.cutting``.
"""

from .cutting import (
    ABWord,
    UnsupportedSlopeError,
    ab_sequence,
    continued_fraction,
    slope_to_word,
)
from .farey import (
    INFINITY,
    ONE,
    ZERO,
    FareyPath,
    FareyTriangle,
    NegativeSlopeError,
    NotAChainError,
    NotNeighboursError,
    Slope,
    base_triangle,
    farey_path,
    is_farey_neighbour,
    mediant,
    nonnegative_representative,
    order_as_farey_chain,
    v_orbit,
    v_rotate,
)
from .links import (
    LinkFamily,
    OctahedronCounts,
    OrbitRecord,
    VolumeRow,
    build_family,
    census,
    v_oct,
    volume_length_table,
)
from .psl2z import (
    EllipticError,
    GeodesicWord,
    MatrixPSL2Z,
    NotHyperbolicError,
    ParabolicError,
    field_discriminant,
    geodesic_length,
    least_rotation,
    word_to_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "ABWord",
    "EllipticError",
    "FareyPath",
    "FareyTriangle",
    "GeodesicWord",
    "INFINITY",
    "LinkFamily",
    "MatrixPSL2Z",
    "NegativeSlopeError",
    "NotAChainError",
    "NotHyperbolicError",
    "NotNeighboursError",
    "OctahedronCounts",
    "ONE",
    "OrbitRecord",
    "ParabolicError",
    "Slope",
    "UnsupportedSlopeError",
    "VolumeRow",
    "ZERO",
    "ab_sequence",
    "base_triangle",
    "build_family",
    "census",
    "continued_fraction",
    "farey_path",
    "field_discriminant",
    "geodesic_length",
    "is_farey_neighbour",
    "least_rotation",
    "mediant",
    "nonnegative_representative",
    "order_as_farey_chain",
    "slope_to_word",
    "v_oct",
    "v_orbit",
    "v_rotate",
    "volume_length_table",
    "word_to_matrix",
]
