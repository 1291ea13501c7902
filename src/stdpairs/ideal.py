"""Monomial ideals of a pointed affine monoid.

An ideal is stored by its minimal monomial generators (columns, in
lexicographic order) together with a lazily populated cache of derived
data: standard cover, overlap classes, associated primes, irreducible
decomposition.  Results are memoized once computed; first computation
should be confined to a single thread, afterwards concurrent reads are
safe.
"""

from __future__ import annotations

from functools import wraps

from .diophantine import IntMatrix, IntVector, vec, vec_is_zero
from .monoid import AffineMonoid
from .polyhedral import BOTTOM


def memoized(fn):
    """Memoise ``fn(I)`` in ``I._cache`` under ``fn.__name__``, the key by
    which ``archive`` saves, restores and verifies it."""
    name = fn.__name__

    @wraps(fn)
    def cached(I):
        if name not in I._cache:
            I._cache[name] = fn(I)
        return I._cache[name]

    return cached


class MonomialIdeal:
    """A proper monomial ideal given by minimal generators inside an ambient monoid."""

    def __init__(self, ambient: AffineMonoid, gens: IntMatrix, *, _trusted: bool = False):
        if not isinstance(gens, IntMatrix):
            gens = IntMatrix.from_rows(gens)
        if gens.rows != ambient.dim and gens.cols > 0:
            raise ValueError(f"generators have dim {gens.rows}, ambient has {ambient.dim}")
        cols = list(dict.fromkeys(gens.columns()))
        if any(map(vec_is_zero, cols)):
            raise ValueError("zero generator: the unit ideal is not a proper monomial ideal")
        if not _trusted:
            for c in cols:
                if not ambient.contains(c):
                    raise ValueError(f"generator {c} is not an element of the ambient monoid")
        self._ambient = ambient
        self._gens = IntMatrix.from_cols(ambient.minimal(cols), rows=ambient.dim)
        self._hash_string = ambient.hash_string + " ideal " + self._gens.to_token()
        self._cache: dict = {}

    @property
    def ambient(self) -> AffineMonoid:
        return self._ambient

    @property
    def gens(self) -> IntMatrix:
        return self._gens

    @property
    def hash_string(self) -> str:
        return self._hash_string

    def generators(self) -> list:
        return self._gens.columns()

    # membership ---------------------------------------------------------

    def is_element(self, b: IntVector):
        """A witness ``(x, g)`` with ``g + A x = b`` if b lies in the ideal, else None.

        The witness is deterministic: first generator in canonical order,
        lexicographically least x.
        """
        b = self._ambient._vector(b)
        for g in self._gens.columns():
            sols = self._ambient.meet(g, self._ambient.top, b, ())
            if sols:
                return (sols.vectors[0], g)
        return None

    def __contains__(self, b) -> bool:
        return self.is_element(b) is not None

    def is_std_monomial(self, b: IntVector) -> bool:
        """True iff b lies in the monoid but not in the ideal."""
        b = vec(b)
        if len(b) != self._ambient.dim:
            return False
        if not self._ambient.contains(b):
            return False
        return self.is_element(b) is None

    # arithmetic ---------------------------------------------------------

    def _require_same_ambient(self, other: "MonomialIdeal"):
        if self._ambient != other._ambient:
            raise ValueError("ideals live in different ambient monoids")

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """Intersection, via minimal common elements of pairs of principal ideals."""
        self._require_same_ambient(other)
        A, top = self._ambient.gens, self._ambient.top
        cols = []
        for g in self._gens.columns():
            for h in other._gens.columns():
                for uv in self._ambient.meet(g, top, h, top):
                    u = uv[: A.cols]
                    common = tuple(gi + wi for gi, wi in zip(g, A.mul(u)))
                    if common not in cols:
                        cols.append(common)
        return MonomialIdeal(self._ambient, IntMatrix.from_cols(cols, rows=A.rows), _trusted=True)

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._require_same_ambient(other)
        cols = self._gens.columns() + other._gens.columns()
        return MonomialIdeal(self._ambient, IntMatrix.from_cols(cols, rows=self._ambient.dim), _trusted=True)

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._require_same_ambient(other)
        cols = [
            tuple(a + b for a, b in zip(g, h))
            for g in self._gens.columns()
            for h in other._gens.columns()
        ]
        return MonomialIdeal(self._ambient, IntMatrix.from_cols(cols, rows=self._ambient.dim), _trusted=True)

    def __eq__(self, other) -> bool:
        return isinstance(other, MonomialIdeal) and self._hash_string == other._hash_string

    def __hash__(self) -> int:
        return hash(self._hash_string)

    # derived algebra ------------------------------------------------------

    def standard_cover(self):
        from .covers import standard_cover

        return standard_cover(self)

    def overlap_classes(self):
        from .decomp import overlap_classes

        return overlap_classes(self)

    def maximal_overlap_classes(self):
        from .decomp import maximal_overlap_classes

        return maximal_overlap_classes(self)

    def associated_primes(self):
        from .decomp import associated_primes

        return associated_primes(self)

    def multiplicity(self, face_or_prime):
        from .decomp import multiplicity

        return multiplicity(self, face_or_prime)

    def irreducible_component(self, face, ov_class):
        from .decomp import irreducible_component

        return irreducible_component(self, face, ov_class)

    def irreducible_decomposition(self):
        from .decomp import irreducible_decomposition

        return irreducible_decomposition(self)

    @memoized
    def radical(self) -> "MonomialIdeal":
        """Intersection of the primes of the maximal cover faces F_1..F_k.

        NA meets cone(F) in NF, so an element lies in F's prime iff its
        factorizations use a column off F.  The intersection is generated by
        the column sums over the minimal sets meeting every A \\ F_i, grown
        one complement at a time (Berge); the constructor minimalizes them.
        """
        A = self._ambient.gens
        faces = [set(f) for f in self.standard_cover().as_dict()]
        transversals = {frozenset()}
        for edge in (set(range(A.cols)) - f for f in faces if not any(f < g for g in faces)):
            grown = {t if t & edge else t | {j} for t in transversals for j in edge}
            transversals = {t for t in grown if not any(s < t for s in grown)}
        sums = [A.mul(tuple(int(j in t) for j in range(A.cols))) for t in transversals]
        return MonomialIdeal(self._ambient, IntMatrix.from_cols(sums, rows=A.rows), _trusted=True)

    # predicates -----------------------------------------------------------

    def is_principal(self) -> bool:
        return self._gens.cols == 1

    def is_empty(self) -> bool:
        return self._gens.cols == 0

    def is_prime(self) -> bool:
        return any(
            f != BOTTOM and self == self._ambient.prime_ideal(f) for f in self._ambient.faces
        )

    def is_radical(self) -> bool:
        return self == self.radical()

    def is_primary(self) -> bool:
        return len(self.associated_primes()) == 1

    def is_irreducible(self) -> bool:
        return len(self.irreducible_decomposition()) == 1

    def save(self, path: str) -> bool:
        from .archive import save

        return save(self, path)

    def __repr__(self) -> str:
        return f"An ideal whose generating set is \n{self._gens}"
