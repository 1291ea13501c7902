"""Rational cone geometry over a generating matrix.

Faces are identified with the set of generator-column indices lying on
them, so the whole face lattice is a family of index tuples ordered by
containment.  ``BOTTOM`` is a sentinel below everything, printed as
``(-1,)``; the empty tuple is the zero face of a pointed cone.

The facet normals of ``cone(A)`` are the extreme rays of its dual cone
inside the linear span of A, found exactly by the integer double
description of ``diophantine._extreme_rays_dd``; a facet's zero set is the
set of columns its normal vanishes on.  For cones of less than full
dimension the normal list additionally carries a pair of rows
``+phi/-phi`` for each generator of the orthogonal complement of the
span, so the uniform test "``q`` lies on the face iff every listed normal
vanishes on it" keeps working.

Everything else is derived from the facets: a face is an intersection of
facet zero sets, its support vectors are the normals of the facets
containing it, the closure of a column set is the intersection of the
facets containing it, and the cone is pointed iff every column on all of
its facets is zero.  The private helpers below take an already enumerated
``(facets, equations)`` pair, so an ``AffineMonoid`` derives its
pointedness, faces, supports and closures from one enumeration, made by
the first monoid of its generating matrix and kept in the matrix's solver
cache entry (``diophantine._MatrixData.monoid``) for every equal one;
each public function here enumerates the facets of its argument once.
"""

from __future__ import annotations

from .diophantine import IntMatrix, _facets_of_cone, vec_is_zero

Face = tuple  # tuple[int, ...] of column indices, strictly increasing

BOTTOM: Face = (-1,)


def face_sort_key(face: Face):
    """Canonical ordering: BOTTOM first, then by (cardinality, lex)."""
    if face == BOTTOM:
        return (0, 0, ())
    return (1, len(face), face)


def facet_data(A: IntMatrix) -> tuple:
    """Return ``(facets, equations)`` for ``cone(A)``.

    ``facets`` is a list of ``(normal, zero_set)`` pairs, one per facet, with
    primitive inner normals and ``zero_set`` the frozenset of columns on the
    facet.  ``equations`` is a list of primitive vectors spanning the
    orthogonal complement of the linear span of A.
    """
    return _facets_of_cone(A.columns(), A.rows)


def facet_normals(A: IntMatrix) -> IntMatrix:
    """Primitive inner normals of the facets of ``cone(A)``, one per row.

    For a cone of less than full dimension the rows also include the
    ``+phi/-phi`` pairs spanning the complement of the span.  Rows are
    sorted lexicographically.  An empty matrix yields no rows.
    """
    facets, equations = facet_data(A)
    return _support_rows(facets, equations, A.rows, BOTTOM)


def face_lattice(A: IntMatrix) -> tuple:
    """All faces of ``cone(A)`` as column index tuples, plus BOTTOM.

    Every face is an intersection of facets, and its index tuple is the
    intersection of their zero sets; the family is closed by construction.
    """
    facets, _ = facet_data(A)
    return _lattice(facets, A.cols)


def face_closure(A: IntMatrix, indices) -> Face:
    """The smallest face of ``cone(A)`` whose column set contains ``indices``;
    an index outside ``range(A.cols)`` is a ``ValueError``."""
    facets, _ = facet_data(A)
    return _closure(facets, A.cols, indices)


def support_vectors_of_face(A: IntMatrix, face: Face) -> IntMatrix:
    """Normals of all facets containing ``face`` (plus span equations), by row.

    The full column set of a full-dimensional cone has no such facet and
    yields an empty matrix.  BOTTOM behaves like the zero face: every facet
    contains it.
    """
    facets, equations = facet_data(A)
    if face != BOTTOM and face not in _lattice(facets, A.cols):
        raise ValueError(f"{face} is not a face of the cone")
    return _support_rows(facets, equations, A.rows, face)


def _lattice(facets: list, n: int) -> tuple:
    """The face lattice of a cone on ``n`` columns with the given facets."""
    family = {frozenset(range(n))}
    for _, zs in facets:  # after facet i the family is closed under facets 1..i
        family |= {s & zs for s in family}
    faces = [tuple(sorted(s)) for s in family]
    faces.append(BOTTOM)
    return tuple(sorted(faces, key=face_sort_key))


def _closure(facets: list, n: int, indices) -> Face:
    """The intersection of the facets containing ``indices`` (all ``n`` columns
    if none).  An index outside ``range(n)``, BOTTOM's ``-1`` included, is a
    ``ValueError``: no facet holds it, so it would read as the top face."""
    current = frozenset(range(n))
    target = frozenset(indices)
    for j in target:
        if not 0 <= j < n:
            raise ValueError(f"column index {j} is not in range({n})")
    for _, zs in facets:
        if target <= zs:
            current &= zs
    return tuple(sorted(current))


def _pointed(A: IntMatrix, facets: list) -> bool:
    """True iff every column on the least face (all the facets) is zero."""
    return all(vec_is_zero(A.col(j)) for j in _closure(facets, A.cols, ()))


def _support_rows(facets: list, equations: list, dim: int, face: Face) -> IntMatrix:
    """Sorted normals of the facets containing ``face``, plus ``+e/-e`` per equation."""
    wanted = frozenset() if face == BOTTOM else frozenset(face)
    rows = [phi for phi, zs in facets if wanted <= zs]
    for e in equations:
        rows.append(e)
        rows.append(tuple(-x for x in e))
    rows.sort()
    return IntMatrix.from_rows(rows, cols=dim)


def is_pointed(A: IntMatrix) -> bool:
    """True iff ``cone(A)`` contains no line.

    The least face of a cone is its lineality space, and it is generated by
    the columns lying on it; so A is pointed iff every column on all facets
    is zero.  Without facets the cone is a linear space and every column is
    on its least face.
    """
    facets, _ = facet_data(A)
    return _pointed(A, facets)
