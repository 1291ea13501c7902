"""Pairs (monomial, face) and their divisibility.

A proper pair ``(a, F)`` of an ideal ``I`` represents the translated
submonoid ``a + NF`` inside the standard monomials of ``I``.  Pairs carry
their ambient ideal; the checked constructor verifies membership of the
base and disjointness of ``a + NF`` from ``I`` (``is_proper``: one
question per generator), while ``skip_check=True`` trusts the caller for
both, as the cover pipeline does.  Every pair lies on a face: its face
field is the index tuple of a face of the ambient monoid other than
BOTTOM, which every constructor checks, ``skip_check=True`` included.

Each question here asks whether two translated face monoids meet, through
the ambient monoid's ``meet`` and ``meets``.  The yes/no ones have the top
face on one side (``is_proper``, ``is_divisor``), which ``meets`` answers
in the quotient by the other face's lattice, with no ``[A_F | -A]``
system; ``divides`` and ``intersect_pairs`` solve ``[A_F | -A_G]``.
"""

from __future__ import annotations

from functools import cached_property

from .diophantine import IntMatrix, IntVector, SolutionSet, vec
from .ideal import MonomialIdeal
from .monoid import AffineMonoid
from .polyhedral import Face


class ProperPair:
    def __init__(self, base: IntVector, face: Face, ideal: MonomialIdeal, skip_check: bool = False):
        self.base = vec(base)
        self.face = vec(face)
        self.ideal = ideal
        monoid = ideal.ambient
        if len(self.base) != monoid.dim:
            raise ValueError(f"base has dim {len(self.base)}, expected {monoid.dim}")
        if self.face not in monoid._face_set:
            raise ValueError(f"{self.face} is not a face of the ambient monoid")
        if not skip_check:
            if not monoid.contains(self.base):
                raise ValueError(f"base {self.base} is not an element of the ambient monoid")
            if not is_proper(self):
                raise ValueError(f"({self.base}, {self.face}) is not a proper pair of the ideal")

    @cached_property
    def hash_string(self) -> str:
        """The text equality and hashing compare, built on first use: the
        cover pipeline makes many pairs that are never compared."""
        return f"pair {self.base} {self.face} | {self.ideal.hash_string}"

    @property
    def monomial(self) -> IntVector:
        return self.base

    @property
    def ambient_ideal(self) -> MonomialIdeal:
        return self.ideal

    def face_matrix(self) -> IntMatrix:
        return self.ideal.ambient.submatrix(self.face)

    def is_element(self, b: IntVector) -> SolutionSet:
        """Minimal solutions of ``base + F x = b``; empty iff b lies outside the pair."""
        return self.ideal.ambient.meet(self.base, self.face, vec(b), ())

    def is_maximal(self) -> bool:
        """True iff the pair mutually divides (or equals) a standard pair of its ideal."""
        for std in self.ideal.standard_cover().pairs():
            if self == std:
                return True
            if is_divisor(self, std) and is_divisor(std, self):
                return True
        return False

    def __eq__(self, other) -> bool:
        return isinstance(other, ProperPair) and self.hash_string == other.hash_string

    def __hash__(self) -> int:
        return hash(self.hash_string)

    def _col_text(self, v) -> str:
        return "[" + ", ".join(f"[{x}]" for x in v) + "]"

    def __repr__(self) -> str:
        face_mat = self.face_matrix()
        face_rows = "[" + ", ".join("[" + ", ".join(str(x) for x in r) + "]" for r in face_mat.data) + "]"
        return f"({self._col_text(self.base)}^T,{face_rows})"


def is_proper(pair: ProperPair) -> bool:
    """Whether ``base + NF`` misses the ideal entirely.

    ``base + F u = g + A w`` solvable for some generator g is exactly an
    intersection with the ideal, so one question per generator suffices:
    whether ``base - g`` lies in ``NA + ZF`` (``AffineMonoid.meets``).  On
    the top face that is the lattice ZA, so no solve is made there.  An
    empty ideal makes every pair proper, for any base (also a
    ``skip_check`` one).
    """
    monoid = pair.ideal.ambient
    return not any(monoid.meets(pair.base, pair.face, g, monoid.top) for g in pair.ideal.gens.columns())


def divides(pair: ProperPair, other: ProperPair) -> IntMatrix:
    """Witness matrix for "``pair`` divides ``other``": rows are joined ``[u; w]``.

    A row satisfies ``a + A u = b + G w``, exhibiting a translate
    ``a + A u + NF`` inside ``b + NG``.  The result is empty when no
    translate fits; divisibility forces face containment F <= G, which is
    prechecked so the system stays finite-dimensional.
    """
    monoid = pair.ideal.ambient
    sols = monoid.meet(pair.base, monoid.top, other.base, other.face) if _nested(pair, other) else ()
    return IntMatrix.from_rows(list(sols), cols=monoid.gens.cols + len(other.face))


def is_divisor(pair: ProperPair, other: ProperPair) -> bool:
    """Whether ``pair`` divides ``other``: ``divides`` as a yes/no question."""
    monoid = pair.ideal.ambient
    return _nested(pair, other) and monoid.meets(pair.base, monoid.top, other.base, other.face)


def _nested(pair: ProperPair, other: ProperPair) -> bool:
    """Whether F is inside G, for pairs over one ambient monoid."""
    if pair.ideal.ambient != other.ideal.ambient:
        raise ValueError("pairs live over different ambient monoids")
    return set(pair.face) <= set(other.face)


def intersect_pairs(monoid: AffineMonoid, a: IntVector, face_a: Face, b: IntVector, face_b: Face) -> SolutionSet:
    """Minimal ``[u; v]`` with ``a + F u = b + G v``; nonempty iff the pairs meet."""
    return monoid.meet(vec(a), face_a, vec(b), face_b)
