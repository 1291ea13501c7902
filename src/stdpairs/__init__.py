"""Standard pairs of monomial ideals over pointed affine semigroups.

Exact-arithmetic computation of standard covers, overlap classes,
associated primes, multiplicities, and irredundant irreducible
decompositions, with a text archive format and a CLI (``stdpairs``).
"""

from .archive import ArchiveError, dedup, export_macaulay2, load, save, verify
from .covers import (
    Cover,
    PolyMonomialIdeal,
    PolyStdPair,
    pair_difference,
    poly_standard_pairs,
    principal_cover,
    standard_cover,
)
from .decomp import (
    OverlapClass,
    associated_primes,
    irreducible_component,
    irreducible_decomposition,
    maximal_overlap_classes,
    multiplicity,
    overlap_classes,
)
from .diophantine import (
    IntMatrix,
    SolutionSet,
    min_nonneg_solutions,
    rational_rank,
)
from .ideal import MonomialIdeal
from .monoid import AffineMonoid, NotPointedError
from .pairs import ProperPair, divides, intersect_pairs, is_proper
from .polyhedral import (
    BOTTOM,
    face_lattice,
    facet_normals,
    is_pointed,
    support_vectors_of_face,
)

__version__ = "0.1.0"

__all__ = [
    "AffineMonoid",
    "ArchiveError",
    "BOTTOM",
    "Cover",
    "IntMatrix",
    "MonomialIdeal",
    "NotPointedError",
    "OverlapClass",
    "PolyMonomialIdeal",
    "PolyStdPair",
    "ProperPair",
    "SolutionSet",
    "associated_primes",
    "dedup",
    "divides",
    "export_macaulay2",
    "face_lattice",
    "facet_normals",
    "intersect_pairs",
    "irreducible_component",
    "irreducible_decomposition",
    "is_pointed",
    "is_proper",
    "load",
    "maximal_overlap_classes",
    "min_nonneg_solutions",
    "multiplicity",
    "overlap_classes",
    "pair_difference",
    "poly_standard_pairs",
    "principal_cover",
    "rational_rank",
    "save",
    "standard_cover",
    "support_vectors_of_face",
    "verify",
]
