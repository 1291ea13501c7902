"""Overlap classes, associated primes, multiplicities, irreducible decomposition.

Everything here is read off the standard cover.  Standard pairs over one
face F are grouped into overlap classes, the cosets of the lattice ZF
among their bases (two translates ``a + NF`` meet iff their bases differ
by ZF), by their residues modulo ZF, whose data the monoid keeps in F's
record (``AffineMonoid.lattice_of``); classes are ordered by lifting pair
divisibility existentially, which the first pair of each class decides,
and the maximal classes carry the associated primes and one irreducible
component each.

The component of a maximal class C over a face F is the ideal of monoid
elements outside the downward closure of the class: its standard
monomials are the q with ``a - q`` in NA + ZF, for a base a of C (all
bases give the same set, since they differ by ZF).  In the polynomial case
these are the familiar corner ideals.  Off normal monoids the closure is
not cut out by support-value thresholds: a point can stay below every
support value of a and still lie outside the closure.

The class order (``is_divisor``) has the top face on one side, so the
monoid answers it in the quotient by the lattice of the face
(``AffineMonoid.meets``): membership in NA + ZF asks whether one solve
over the face's pointed off-face system ``B_F = S_F A_off`` has a solution
u with ``a - b - A_off u`` in ZF, never a solve over ``[A_F | -A]``.  The
component is the same solve: the finitely many ways of writing a as
``A_off s`` plus a point of ZF (``AffineMonoid._quotient_solutions``) are
the corners of the closure, and its generators come from those corners
without a further question.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diophantine import IntMatrix, _lattice_reduce, minimal_elements, vec_dot
from .ideal import MonomialIdeal, memoized
from .pairs import is_divisor
from .polyhedral import Face, face_sort_key


@dataclass(frozen=True)
class OverlapClass:
    """A connected block of standard pairs over one face."""

    face: Face
    pairs: tuple

    def bases(self) -> list:
        return [p.base for p in self.pairs]


@memoized
def overlap_classes(I: MonomialIdeal) -> dict:
    """Partition each face's standard pairs into overlap classes, keyed by
    their bases' residues mod ZF: (a, F) and (b, F) meet iff ``b - a = F w``
    for an integer w (take ``u = w+``, ``v = w-`` in ``a + F u = b + F v``)."""
    monoid = I.ambient
    result: dict = {}
    for face, ps in I.standard_cover().entries:
        lattice = monoid.lattice_of(face)
        blocks: dict = {}
        for p in ps:
            blocks.setdefault(_lattice_reduce(lattice, p.base)[1], []).append(p)
        classes = [
            OverlapClass(face, tuple(sorted(b, key=lambda p: p.base))) for b in blocks.values()
        ]
        result[face] = sorted(classes, key=lambda c: c.pairs[0].base)
    return result


def _class_below(c: OverlapClass, d: OverlapClass) -> bool:
    """Existential divisibility lift: some pair of c divides some pair of d.
    For c over F and d over G that is F <= G and ``b - a`` in NA + ZG, a set
    closed under adding ZG, which holds ZF: the first pairs decide it."""
    return is_divisor(c.pairs[0], d.pairs[0])


@memoized
def maximal_overlap_classes(I: MonomialIdeal) -> dict:
    """Classes not strictly below any other class in the lifted order.  No two
    classes are below each other: that forces F = G and ``b - a`` a unit of
    NA + ZF, and the units are ZF (NA meets cone(F) in NF).

    The classes run by (-|F|, -w_F . a), with w_F the sum of the normals of
    the facets containing F, so a class comes after every class above it:
    by a smaller face or, over the same face, because ``b - a`` in NA + ZF
    and off ZF has ``w_F . (b - a) > 0`` (for the same reason).  The order
    is transitive, so a class is maximal iff it is below no maximal class
    found before it."""
    monoid = I.ambient
    weights = {f: tuple(map(sum, zip(*monoid.support_of(f).data))) for f in overlap_classes(I)}
    classes = sorted(
        (c for cs in overlap_classes(I).values() for c in cs),
        key=lambda c: (-len(c.face), -vec_dot(weights[c.face], c.pairs[0].base)),
    )
    found: list = []
    result: dict = {}
    for c in classes:
        if any(_class_below(c, d) for d in found):
            continue
        found.append(c)
        result.setdefault(c.face, []).append(c)
    return {
        f: sorted(result[f], key=lambda c: c.pairs[0].base)
        for f in sorted(result, key=face_sort_key)
    }


@memoized
def associated_primes(I: MonomialIdeal) -> dict:
    """Face -> prime ideal, for every face carrying a maximal overlap class."""
    return {face: I.ambient.prime_ideal(face) for face in maximal_overlap_classes(I)}


def _face_of_prime(I: MonomialIdeal, prime: MonomialIdeal) -> Face:
    for face, p in associated_primes(I).items():
        if p == prime:
            return face
    raise ValueError("ideal is not an associated prime")


def multiplicity(I: MonomialIdeal, face_or_prime) -> int:
    """The number of standard pairs over an associated face.

    Accepts the face itself or the corresponding prime ideal.
    """
    if isinstance(face_or_prime, MonomialIdeal):
        face = _face_of_prime(I, face_or_prime)
    else:
        face = tuple(face_or_prime)
        if face not in associated_primes(I):
            raise ValueError(f"{face} is not an associated face of the ideal")
    return sum(len(ps) for f, ps in I.standard_cover().entries if f == face)


def irreducible_component(I: MonomialIdeal, face: Face, ov_class: OverlapClass) -> MonomialIdeal:
    """The irreducible component attached to a maximal overlap class.

    Its standard monomials are the monoid elements dividing into the union
    of the class's translated submonoids (the downward closure of
    ``a + NF`` over the class bases); the component is the complement.

    A minimal generator cannot step down along a face column (the result
    would still avoid the closure, which is closed under adding ZF), so it
    is ``A_off v`` for the kept off-face columns ``A_off``
    (``AffineMonoid._record``).  Such a point lies in the closure iff
    ``a - A_off v - A_off u`` is in ZF for some ``u >= 0``, that is iff
    ``v <= s`` for one of the finitely many s that
    ``AffineMonoid._quotient_solutions`` gives for the first base a
    (``s = u + v``); this holds however the point is written.  So the
    component's generators are among the images of the minimal v outside
    every box ``[0, s]``, the generators of the Artinian monomial ideal
    that intersects the ideals ``((s_k + 1) e_k : k)``, one corner per box.
    """
    face = tuple(face)
    maximal = maximal_overlap_classes(I)
    if face not in maximal or ov_class not in maximal[face]:
        raise ValueError("not a maximal overlap class of the ideal")
    monoid = I.ambient
    off = monoid._record(face)[2]
    # the intersection of no box ideals is the unit ideal, generated by 0;
    # each box replaces a generator g by its lcm with each (s_k + 1) e_k
    corners = [(0,) * off.cols]
    for s in monoid._quotient_solutions(ov_class.pairs[0].base, face):
        corners = minimal_elements(
            g[:k] + (max(g[k], s[k] + 1),) + g[k + 1:] for g in corners for k in range(len(s))
        )
    # the ideal keeps only the minimal images (AffineMonoid.minimal)
    points = sorted({off.mul(v) for v in corners})
    return MonomialIdeal(monoid, IntMatrix.from_cols(points, rows=monoid.dim), _trusted=True)


@memoized
def irreducible_decomposition(I: MonomialIdeal) -> list:
    """One irreducible component per maximal overlap class; intersection is I."""
    result = [
        irreducible_component(I, face, c)
        for face, classes in maximal_overlap_classes(I).items()
        for c in classes
    ]
    result.sort(key=lambda W: W.gens.to_token())
    return result
