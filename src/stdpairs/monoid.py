"""Pointed affine monoids: generators, faces, membership, prime ideals."""

from __future__ import annotations

from .diophantine import _MATRIX_CACHE_CAP, IntMatrix, IntVector, SolutionSet, _bounded_put, _matrix_data
from .diophantine import has_nonneg_solution, min_nonneg_solutions, vec, vec_sub
from .polyhedral import BOTTOM, Face, _closure, _lattice, _pointed, _support_rows, facet_data


class NotPointedError(ValueError):
    """Raised when a generating matrix spans a cone containing a line."""


class AffineMonoid:
    """The monoid of all nonnegative integer combinations of the columns of A.

    The facets of the cone are enumerated once, here.  Pointedness, which
    every algorithm built on top assumes, is read from them (non-pointed
    input is rejected), and so are the faces, their support vectors and
    every later face closure.  They are also stored with the solver's data
    for A, whose infeasibility certificates test them.  The minimal
    generators come from solves over A itself, the matrix that membership
    queries use later.  All of this is computed eagerly, except the systems
    ``[A_F | -A_G]`` of the pair questions (``meet``): each is built on
    first use into a memo bounded by ``_MATRIX_CACHE_CAP``, so first use
    belongs on one thread; the object is otherwise immutable and safe to
    share between threads.
    """

    def __init__(self, gens: IntMatrix):
        if not isinstance(gens, IntMatrix):
            gens = IntMatrix.from_rows(gens)
        self._gens = gens
        self._facets, self._equations = facet_data(gens)
        if not _pointed(gens, self._facets):
            raise NotPointedError("generating matrix spans a cone containing a line")
        self._faces = _lattice(self._facets, gens.cols)
        self._systems = {(self.top, ()): gens}  # A itself: the key of the solver's data for A
        self._supports = {
            f: _support_rows(self._facets, self._equations, gens.rows, f)
            for f in self._faces
            if f != BOTTOM
        }
        _matrix_data(gens).store_cone(self._facets, self._equations)
        # c = A e_j is a minimal generator iff each of its minimal
        # factorizations is a unit vector: no minimal one uses a zero
        # column, so any other writes c as a sum of other generators (and
        # a zero column's only one is 0)
        keep = [c for c in set(gens.columns()) if all(sum(x) == 1 for x in self.is_element(c))]
        self._mingens = IntMatrix.from_cols(sorted(keep), rows=gens.rows)
        self._hash_string = "monoid " + self._mingens.to_token()

    @property
    def gens(self) -> IntMatrix:
        return self._gens

    @property
    def mingens(self) -> IntMatrix:
        return self._mingens

    @property
    def dim(self) -> int:
        return self._gens.rows

    @property
    def faces(self) -> tuple:
        """All faces as column index tuples, BOTTOM included."""
        return self._faces

    @property
    def top(self) -> Face:
        """The face of all columns, A itself."""
        return self._faces[-1]

    @property
    def supports(self) -> dict:
        """Face -> matrix of facet normals containing that face."""
        return dict(self._supports)

    @property
    def hash_string(self) -> str:
        return self._hash_string

    def is_empty(self) -> bool:
        return self._gens.cols == 0

    def is_pointed(self) -> bool:
        return True

    def is_element(self, b: IntVector) -> SolutionSet:
        """Minimal factorizations of b over the generators; empty iff b is not in the monoid."""
        return min_nonneg_solutions(self._gens, self._vector(b))

    def contains(self, b: IntVector) -> bool:
        """Whether b is in the monoid, without its factorizations."""
        return has_nonneg_solution(self._gens, self._vector(b))

    def _vector(self, b: IntVector) -> IntVector:
        b = vec(b)
        if len(b) != self.dim:
            raise ValueError(f"vector has dim {len(b)}, expected {self.dim}")
        return b

    def minimal(self, points) -> list:
        """The sorted distinct points that no other of them divides (``q - p`` in the monoid)."""
        points = sorted(set(points))
        return [
            q for q in points
            if not any(p != q and self.contains(vec_sub(q, p)) for p in points)
        ]

    def face(self, index: Face) -> IntMatrix:
        """The face as a submatrix of the generators."""
        if index not in self._faces or index == BOTTOM:
            if index != BOTTOM:
                raise ValueError(f"{index} is not a face")
            raise ValueError("the bottom face has no submatrix")
        return self._system(index, ())

    def submatrix(self, indices) -> IntMatrix:
        """The columns at ``indices``, unchecked (``face`` checks for a face)."""
        return self._system(indices, ())

    def _system(self, left, right) -> IntMatrix:
        """``[A_left | -A_right]``, built once per pair of index tuples."""
        key = (tuple(left), tuple(right))
        system = self._systems.get(key)
        if system is None:
            system = self._gens.take_cols(key[0]).hstack(self._gens.take_cols(key[1]).neg())
            _bounded_put(self._systems, key, system, _MATRIX_CACHE_CAP)
        return system

    def meet(self, a: IntVector, left, b: IntVector, right) -> SolutionSet:
        """Minimal ``(u, v)`` with ``a + A_left u = b + A_right v``: empty iff
        ``a + N left`` and ``b + N right`` are disjoint."""
        return min_nonneg_solutions(self._system(left, right), self._difference(a, b))

    def meets(self, a: IntVector, left, b: IntVector, right) -> bool:
        """Whether ``a + N left`` and ``b + N right`` meet: ``meet`` as a yes/no question."""
        return has_nonneg_solution(self._system(left, right), self._difference(a, b))

    def _difference(self, a: IntVector, b: IntVector) -> IntVector:
        """``b - a``, for points of length ``dim`` only (``vec_sub`` would zip)."""
        if len(a) != self.dim or len(b) != self.dim:
            raise ValueError(f"vectors have dims {len(a)} and {len(b)}, expected {self.dim}")
        return vec_sub(b, a)

    def index_of_face(self, sub: IntMatrix) -> Face:
        """Inverse of :meth:`face`: the index tuple whose columns equal ``sub``'s."""
        gcols = self._gens.columns()
        wanted = set(map(tuple, sub.columns()))
        for c in wanted:
            if c not in gcols:
                raise ValueError("matrix columns are not generator columns")
        index = tuple(sorted(j for j, c in enumerate(gcols) if c in wanted))
        if index not in self._faces:
            raise ValueError("columns do not form a face")
        return index

    def face_closure(self, indices) -> Face:
        return _closure(self._facets, self._gens.cols, indices)

    def support_of(self, indices) -> IntMatrix:
        """Support vectors of the smallest face containing ``indices``."""
        indices = tuple(indices)
        if indices in self._supports:
            return self._supports[indices]
        if indices == BOTTOM:
            # the least face lies on every facet, so it has BOTTOM's support
            return self._supports[self._faces[1]]
        return self._supports[self.face_closure(indices)]

    def prime_ideal(self, face: Face):
        """The prime ideal of monomials outside the given face."""
        from .ideal import MonomialIdeal

        if face == BOTTOM:
            raise ValueError("no prime ideal is attached to the bottom face")
        if face not in self._faces:
            raise ValueError(f"{face} is not a face")
        cols = [self._gens.col(j) for j in range(self._gens.cols) if j not in face]
        mat = IntMatrix.from_cols(cols, rows=self.dim)
        return MonomialIdeal(self, mat, _trusted=True)

    def save(self, path: str) -> bool:
        from .archive import save

        return save(self, path)

    def __eq__(self, other) -> bool:
        return isinstance(other, AffineMonoid) and self._hash_string == other._hash_string

    def __hash__(self) -> int:
        return hash(self._hash_string)

    def __repr__(self) -> str:
        return f"An affine semigroup whose generating set is \n{self._gens}"
