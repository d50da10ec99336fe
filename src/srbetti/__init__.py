"""Exact subdivisions of simplicial complexes and graded Betti numbers of
their Stanley-Reisner rings."""

from .complexes import (
    GateError,
    SimplicialComplex,
    cycle,
    from_facets,
    is_isomorphic,
    path,
    rp2_six,
    simplex,
    simplex_boundary,
    stacked_attach,
    stacked_sphere,
    standard_complex,
)
from .homology import QQ, GF2, FieldSpec, reduced_betti
from .hochster import (
    BettiTable,
    betti_witness,
    graded_betti_table,
    gorenstein_symmetry_check,
    ring_invariants,
    strand_profile,
)
from .subdivision import (
    barycentric,
    barycentric_iter,
    edgewise,
    interior_face_check,
    interior_face_witness,
    subdivide,
)

__all__ = [
    "GateError", "SimplicialComplex", "cycle", "from_facets", "is_isomorphic",
    "path", "rp2_six", "simplex", "simplex_boundary", "stacked_attach",
    "stacked_sphere", "standard_complex",
    "QQ", "GF2", "FieldSpec", "reduced_betti",
    "BettiTable", "betti_witness", "graded_betti_table",
    "gorenstein_symmetry_check", "ring_invariants", "strand_profile",
    "barycentric", "barycentric_iter", "edgewise", "interior_face_check",
    "interior_face_witness", "subdivide",
]

__version__ = "0.1.0"
