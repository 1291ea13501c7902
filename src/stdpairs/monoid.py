"""Pointed affine monoids: generators, faces, membership, prime ideals."""

from __future__ import annotations

from functools import cached_property, partial
from operator import le

from .diophantine import _MATRIX_CACHE, _MATRIX_CACHE_CAP, IntMatrix, IntVector, SolutionSet, _bounded_put, _matrix_data
from .diophantine import _MatrixData, _particular_solution
from .diophantine import has_nonneg_solution, min_nonneg_solutions, vec, vec_sub
from .polyhedral import BOTTOM, Face, _closure, _lattice, _pointed, _support_rows, facet_data


class NotPointedError(ValueError):
    """Raised when a generating matrix spans a cone containing a line."""


class AffineMonoid:
    """The monoid of all nonnegative integer combinations of the columns of A.

    The facets of the cone are enumerated once per generating matrix,
    here: the first construction keeps what it derives below (facets, span
    equations, faces, BOTTOM's support, kept columns, minimal generators,
    hash text, the kept-column matrix ``A_kept``) in the matrix's entry of
    the solver cache
    (``_MatrixData.monoid``), and every monoid of an equal matrix reads
    it there while that entry is cached.  Pointedness, which
    every algorithm built on top assumes, is read from them (non-pointed
    input is rejected), and so are the faces and every later face closure.
    They also give the solver's cone data, which its infeasibility
    certificates test, for A, for ``A_kept``, whose solver entry
    ``contains`` makes on first use (``_kept_system``), and, when first
    built, for every system ``[A_left | -A_right]`` with all kept columns
    (below) on one side (``_system``), the top face's ``[A_K | -A_K]`` of
    a pair difference among them, so no such system runs a double
    description.  The
    minimal generators are read with them too (``_minimal``): a column c is
    dropped when ``c - d`` lies in NA for another nonzero column d, which
    one existence question over A decides, asked only where no facet is
    smaller on c than on d; only BOTTOM's support, the rows of every facet,
    is computed for that.  Every face label but BOTTOM's is in one set,
    which every face check reads.

    Two memos are filled on first use, so first use belongs on one thread;
    the object is otherwise immutable and safe to share between threads.
    One holds the systems ``[A_F | -A_G]`` of ``meet`` and of the other
    questions of ``meets``, bounded by ``_MATRIX_CACHE_CAP``; the other
    one record per face (``_record``), the only holder of a face's data:
    its support vectors (``support_of``, ``supports``), its kept columns
    (as ``kept_of`` reads them from the kept set, with no record), the
    solver data of the lattice ``Z F``, the one copy that prunes and
    overlap classes read (``lattice_of``), and the off-face system that,
    with a lattice test, answers the yes/no questions with the top face
    on one side in the quotient by ``Z F`` (``meets``) and
    gives the solutions in that quotient that irreducible components are
    read from and pair differences cut their pieces in
    (``_quotient_solutions``).

    The caller index of one copy of each minimal generator is kept, in
    increasing order.  Yes/no questions (``contains``, ``meets``) solve over
    a face's kept columns only (``kept_of``), which gives the same answers:
    a redundant column on a face is a sum of minimal generators on that
    face, so ``N F = N (F & kept)`` for every face F.  Whatever returns
    coordinates (``is_element``, ``meet``) keeps the caller's columns.
    """

    def __init__(self, gens: IntMatrix):
        if not isinstance(gens, IntMatrix):
            gens = IntMatrix.from_rows(gens)
        self._gens = gens
        data = _MATRIX_CACHE.get(gens)
        if data is None or data.monoid is None:
            facets, equations = facet_data(gens)
            if not _pointed(gens, facets):
                raise NotPointedError("generating matrix spans a cone containing a line")
            faces = _lattice(facets, gens.cols)
            bottom = _support_rows(facets, equations, gens.rows, BOTTOM)
            data = _matrix_data(gens)
            data.store_cone([phi for phi, _ in facets], equations)
            # a nonzero column c is a minimal generator iff c - d lies in NA for
            # no other nonzero column d: in a pointed monoid c = d + y with
            # y != 0 is a factorization, and any factorization has such a part d
            cols = gens.columns()
            mingens = _minimal(set(cols) - {(0,) * gens.rows}, bottom, partial(has_nonneg_solution, gens))
            kept = tuple(sorted(map(cols.index, mingens)))
            mingens = IntMatrix.from_cols(mingens, rows=gens.rows)
            hash_string = "monoid " + mingens.to_token()
            kept_gens = gens if len(kept) == gens.cols else gens.take_cols(kept)
            data.monoid = (facets, equations, faces, frozenset(faces) - {BOTTOM}, bottom, kept, mingens, hash_string, kept_gens)
        (self._facets, self._equations, self._faces, self._face_set,  # the face set: what every face check reads
         self._bottom_support, self._kept, self._mingens, self._hash_string, self._kept_gens) = data.monoid
        self._systems = {(self.top, ()): gens}  # A itself: the key of the solver's data for A
        self._records: dict = {}  # face -> (S_F, kept, A_off, B_F, lattice data of F): ``_record``

    @property
    def gens(self) -> IntMatrix:
        return self._gens

    @property
    def mingens(self) -> IntMatrix:
        return self._mingens

    def kept_of(self, indices: tuple) -> tuple:
        """The kept columns of a face F, with ``N F = N kept_of(F)``: F's
        columns in the monoid's kept set, read without building F's record;
        any other index tuple, BOTTOM's included, comes back as it is."""
        indices = tuple(indices)
        return tuple(j for j in indices if j in self._kept) if indices in self._face_set else indices

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
        """Face -> matrix of facet normals containing that face, for every
        face but BOTTOM in lattice order; this fills every face's record."""
        return {f: self._record(f)[0] for f in self._faces if f in self._face_set}

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
        """Whether b is in the monoid, without its factorizations (over the
        kept columns).  The solver checks b's length; a wrong one is
        reported in the monoid's words (``_vector``)."""
        try:
            return has_nonneg_solution(self._kept_system, b)
        except ValueError:
            self._vector(b)
            raise

    @cached_property
    def _kept_system(self) -> IntMatrix:
        """``A_kept``, the matrix ``contains`` solves over: the one the
        construction data keeps, so a monoid of an equal matrix builds
        none.  Its solver entry takes A's cone data when it is new, as
        ``A_kept`` spans ``cone(A)``; the entry is made on first use, not
        at construction, which solves over A alone."""
        kept = self._kept_gens
        if kept not in _MATRIX_CACHE:
            _matrix_data(kept).store_cone([phi for phi, _ in self._facets], self._equations)
        return kept

    def _vector(self, b: IntVector) -> IntVector:
        b = vec(b)
        if len(b) != self.dim:
            raise ValueError(f"vector has dim {len(b)}, expected {self.dim}")
        return b

    def minimal(self, points) -> list:
        """The sorted distinct points that no other of them divides (``q - p``
        in the monoid), by ``_minimal``: ``contains`` is asked only where
        the facet values rule nothing out."""
        return _minimal(points, self.support_of(BOTTOM), self.contains)

    def face(self, index: Face) -> IntMatrix:
        """The face as a submatrix of the generators."""
        index = tuple(index)
        if index == BOTTOM:
            raise ValueError("the bottom face has no submatrix")
        if index not in self._face_set:
            raise ValueError(f"{index} is not a face")
        return self._system(index, ())

    def submatrix(self, indices) -> IntMatrix:
        """The columns at ``indices``, which need not form a face (``face``
        checks for one)."""
        return self._system(indices, ())

    def _system(self, left, right) -> IntMatrix:
        """``[A_left | -A_right]``, built once per pair of index tuples.  An
        index outside ``range(gens.cols)``, BOTTOM's ``-1`` included, is a
        ``ValueError``.

        When ``right`` holds every kept column, the system's cone is
        ``lin(left) - cone(A)``, as every column of A lies in ``cone(A)``.
        Its dual is minus the face of A's dual cone that vanishes on
        ``left``, so its facet normals are ``-phi`` for A's facets phi
        containing ``left``, and its span is A's (Bruns and Gubeladze,
        *Polytopes, Rings, and K-Theory*, ch. 1); the solver data takes
        them, with no double description.  When ``left`` holds every kept
        column the normals are ``+phi`` for the facets containing
        ``right``; ``A_kept`` itself takes all of A's facets."""
        key = (tuple(left), tuple(right))
        system = self._systems.get(key)
        if system is None:
            for j in key[0] + key[1]:
                if not 0 <= j < self._gens.cols:
                    raise ValueError(f"column index {j} is not in range({self._gens.cols})")
            system = self._gens.take_cols(key[0]).hstack(self._gens.take_cols(key[1]).neg())
            for sign, whole, other in ((-1, key[1], key[0]), (1, key[0], key[1])):
                if set(self._kept) <= set(whole):
                    normals = sorted(tuple(sign * a for a in phi) for phi, zs in self._facets if zs.issuperset(other))
                    _matrix_data(system).store_cone(normals, self._equations)
                    break
            _bounded_put(self._systems, key, system, _MATRIX_CACHE_CAP)
        return system

    def meet(self, a: IntVector, left, b: IntVector, right) -> SolutionSet:
        """Minimal ``(u, v)`` with ``a + A_left u = b + A_right v``: empty iff
        ``a + N left`` and ``b + N right`` are disjoint.  A column index
        outside ``range(gens.cols)`` is a ``ValueError``.

        A column on both sides makes the system ``[A_left | -A_right]``
        hold a column and its negation; the solver answers it on one
        sign-free coordinate per such pair (``diophantine._signed_solutions``),
        since no minimal ``(u, v)`` uses the column on both sides."""
        return min_nonneg_solutions(self._system(left, right), self._difference(a, b))

    def meets(self, a: IntVector, left, b: IntVector, right) -> bool:
        """Whether ``a + N left`` and ``b + N right`` meet: ``meet`` as a yes/no
        question, over the kept columns of faces (``kept_of``).

        With the top face on one side and a face F on the other, they meet
        iff the difference of the points (``a - b`` for F on the left)
        lies in ``NA + ZF``, which holds iff ``_quotient_solutions`` over
        F's record finds a solution; every other question solves
        ``[A_left | -A_right]``."""
        left, right = tuple(left), tuple(right)
        if right == self.top and left in self._face_set:
            return bool(self._quotient_solutions(self._difference(b, a), left))
        if left == self.top and right in self._face_set:
            return bool(self._quotient_solutions(self._difference(a, b), right))
        return has_nonneg_solution(self._system(self.kept_of(left), self.kept_of(right)), self._difference(a, b))

    def _record(self, face: Face) -> tuple:
        """``(S_F, kept, A_off, B_F, lattice)`` for a face F other than
        BOTTOM, built on first use; anything else is a ``ValueError``.

        ``S_F`` is F's support rows, the normals of the facets containing F
        plus ``+e/-e`` per span equation, whose rational kernel is span F
        (``support_of``); ``kept`` the kept columns on F (``kept_of``),
        ``A_off`` those off F and ``B_F = S_F A_off``.  The rows of ``S_F``
        that are facet normals sum to a functional that is at least 1 on
        every column of ``A_off``, so ``B_F`` is pointed: every nonnegative
        solution of ``B_F u = y`` is minimal, and there are finitely many.
        ``lattice`` is the solver data of the columns ``kept``, which span
        ``Z F`` (``lattice_of``)."""
        record = self._records.get(face)
        if record is None:
            if face not in self._face_set:
                raise ValueError(f"{face} is not a face")
            support = _support_rows(self._facets, self._equations, self.dim, face)
            kept = self.kept_of(face)
            off = self._gens.take_cols([j for j in self._kept if j not in face])
            lattice = _matrix_data(self._gens.take_cols(kept))
            record = self._records[face] = (support, kept, off, support.matmul(off), lattice)
        return record

    def lattice_of(self, face: Face) -> _MatrixData:
        """The solver data of a face F's kept columns, which span ``Z F``,
        from F's record: ``diophantine._lattice_reduce`` reads coordinates
        and residues modulo ``Z F`` from it."""
        return self._record(face)[4]

    def _quotient_solutions(self, x: IntVector, face: Face) -> list:
        """``(u, lam)`` for every ``u >= 0`` with ``B_F u = S_F x`` and
        ``x - A_off u`` in ``Z F``, with ``x - A_off u = A_K lam`` over F's
        kept columns A_K: the ways of writing x as ``A_off u`` plus a point
        of ``Z F``, so x lies in ``NA + ZF = N A_off + ZF`` iff there is
        one.  One solve over the pointed ``B_F`` finds every candidate (each
        is minimal) and puts ``x - A_off u`` in span F; each is then tested
        against the lattice, whose reduction gives lam
        (``_particular_solution``), unique when A_K's columns are linearly
        independent.  The top face, with no off-face columns, is the
        lattice test alone, whose only candidate is ``()``."""
        support, _, off, system, lattice = self._record(face)
        sols = min_nonneg_solutions(system, support.mul(x)) if off.cols else [()]
        found = [(u, _particular_solution(lattice, vec_sub(x, off.mul(u)))) for u in sols]
        return [(u, lam) for u, lam in found if lam is not None]

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
        if index not in self._face_set:
            raise ValueError("columns do not form a face")
        return index

    def face_closure(self, indices) -> Face:
        """The smallest face containing the columns at ``indices``; an index
        outside ``range(gens.cols)`` is a ``ValueError``."""
        return _closure(self._facets, self._gens.cols, indices)

    def support_of(self, indices) -> IntMatrix:
        """Support vectors of the smallest face containing ``indices``, from
        that face's record; BOTTOM's, the rows of every facet (the least
        face's too), come from construction.  Any other index outside
        ``range(gens.cols)`` is a ``ValueError`` (``face_closure``)."""
        indices = tuple(indices)
        if indices == BOTTOM:
            return self._bottom_support
        return self._record(self.face_closure(indices))[0]

    def prime_ideal(self, face: Face):
        """The prime ideal of monomials outside the given face."""
        from .ideal import MonomialIdeal

        face = tuple(face)
        if face == BOTTOM:
            raise ValueError("no prime ideal is attached to the bottom face")
        if face not in self._face_set:
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


def _minimal(points, support: IntMatrix, contains) -> list:
    """The sorted distinct points q with ``contains(q - p)`` false for every
    other point p.  ``q - p`` lies in the cone, let alone in the monoid,
    only if no support row (facet normal, or span equation with its
    negative) is smaller on q than on p; ``contains`` decides the pairs
    whose values pass that test.  Fewer than two distinct points are all
    minimal and come back with no support value computed."""
    points = sorted(set(points))
    if len(points) < 2:
        return points
    values = [support.mul(p) for p in points]
    return [
        q for q, vq in zip(points, values)
        if not any(p != q and all(map(le, vp, vq)) and contains(vec_sub(q, p)) for p, vp in zip(points, values))
    ]

