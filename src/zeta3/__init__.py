"""Exact zeta identities and spectra of finite typed 2-complexes."""

__version__ = "0.1.0"

from .complexes import ComplexDescription, DirectedChamber, ValidationReport
from .construct import (
    IncidenceStructure,
    TrianglePresentation,
    VoltageAssignment,
    abelian_cover,
    base_quotient,
    connected_covers,
    find_triangle_presentation,
    iter_triangle_presentations,
    projective_plane,
    solve_voltages,
)
from .operators import SparseIntegerMatrix, build_a1, build_a2, build_le, build_lb
from .polynomials import IntPoly
from .exactdet import char_rev, det_integer
from .zeta import (
    IdentityVerdict,
    ZetaParts,
    geodesic_counts,
    verify_identity,
    walk_count_oracle,
    zeta_parts,
)
from .spectra import (
    RepCensus,
    ZeroBucket,
    build_spectral_report,
    classify,
    ramanujan_verdicts,
    rep_census,
    steinberg_divisibility,
    zero_moduli,
)

__all__ = [
    "ComplexDescription",
    "DirectedChamber",
    "ValidationReport",
    "IncidenceStructure",
    "TrianglePresentation",
    "VoltageAssignment",
    "IntPoly",
    "SparseIntegerMatrix",
    "ZetaParts",
    "IdentityVerdict",
    "RepCensus",
    "ZeroBucket",
    "projective_plane",
    "find_triangle_presentation",
    "iter_triangle_presentations",
    "base_quotient",
    "abelian_cover",
    "connected_covers",
    "solve_voltages",
    "build_a1",
    "build_a2",
    "build_le",
    "build_lb",
    "det_integer",
    "char_rev",
    "zeta_parts",
    "verify_identity",
    "geodesic_counts",
    "walk_count_oracle",
    "classify",
    "zero_moduli",
    "ramanujan_verdicts",
    "steinberg_divisibility",
    "rep_census",
    "build_spectral_report",
]
