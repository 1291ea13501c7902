"""Standard covers of monomial ideals.

The pipeline:

1. ``pair_difference(P, P')``: decompose ``(b + NG) \\ (b' + NG')`` into
   finitely many pairs over faces of G.  The points of ``b + NG`` landing
   in ``b' + NG'`` pull back to a monomial ideal J in |G| variables (its
   generators are the u-parts of the minimal solutions of
   ``[G -G'] [u; v] = b' - b``); the standard pairs of J push forward to
   the desired pairs.  ``poly_standard_pairs`` finds them by slicing J on
   the variable with the largest exponent among its generators and
   recursing on the slices, so their cost follows the number of pairs, not
   the volume of J's exponent box; that pivot keeps the recursion small.
2. ``principal_cover``: for a principal ideal, the pair difference of
   (0, A) and (b, A), less its nested pairs, is already the standard
   cover.  (0, A) alone is the standard cover of the ideal with no
   generators.
3. ``standard_cover``: start from {(0, A)} and cut the generators in
   one at a time: difference each standing piece against (g, A) for the
   new generator g and prune the nested pieces (``_prune_nested``).  By
   induction on the generators the pruned pieces are the standard cover
   of the generators cut so far, so the pieces left after the last
   generator are the standard cover of I.  A principal ideal's one cut is
   the principal cover of step 2.
4. ``cover_to_standard``: refine any cover of std(I) by pairs over faces
   to the standard cover by alternating two steps until a fixpoint: move
   each base down to the minimal monoid elements of its real-span slice
   (``czero_to_cone``), then re-expand each pair to every containing face
   that keeps it proper (``cone_to_ctwo``).  The rounds can nest pairs
   again, so nested pairs are pruned at the fixpoint too.
   ``standard_cover`` does not call it: it is an independent route to the
   same answer.  No pipeline runs this route and the package does not
   export its names (``cover_to_standard``, ``czero_to_cone``,
   ``cone_to_ctwo``, ``minimal_holes`` and the ``LoopCapExceeded`` that
   ``cover_to_standard`` raises); they stay here because the benchmark's
   layer tracer (``perfbench/layers.py``) wraps the four functions.

Every solve runs over the monoid's kept minimal generators
(``AffineMonoid.kept_of``), so no cover depends on how the monoid's
generators are written down.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from operator import itemgetter, le

from .diophantine import (
    IntVector,
    _lattice_reduce,
    min_nonneg_solutions,
    minimal_elements,
    vec,
    vec_add,
    vec_dot,
    vec_leq,
)
from .ideal import MonomialIdeal, memoized
from .monoid import AffineMonoid
from .pairs import ProperPair, is_proper
from .polyhedral import BOTTOM, Face, face_sort_key

log = logging.getLogger("stdpairs")


class LoopCapExceeded(RuntimeError):
    """The cover refinement loop did not reach a fixpoint within the cap."""


# ---------------------------------------------------------------------------
# covers

@dataclass(frozen=True)
class Cover:
    """Pairs classified by their face, in canonical order."""

    entries: tuple  # tuple[(Face, tuple[ProperPair, ...]), ...]

    @classmethod
    def from_pairs(cls, pairs) -> "Cover":
        buckets: dict = {}
        for p in pairs:
            buckets.setdefault(p.face, {})[p.base] = p
        entries = tuple(
            (face, tuple(buckets[face][b] for b in sorted(buckets[face])))
            for face in sorted(buckets, key=face_sort_key)
        )
        return cls(entries)

    def as_dict(self) -> dict:
        return {face: list(ps) for face, ps in self.entries}

    def pairs(self) -> list:
        return [p for _, ps in self.entries for p in ps]

    def is_empty(self) -> bool:
        return not self.entries

    def skeleton(self):
        """Faces and bases only; the shape compared by the fixpoint test."""
        return tuple((face, tuple(p.base for p in ps)) for face, ps in self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cover):
            return NotImplemented
        return self.skeleton() == other.skeleton()

    def __hash__(self) -> int:
        return hash(self.skeleton())

    def __repr__(self) -> str:
        if not self.entries:
            return "{}"
        lines = []
        for face, ps in self.entries:
            lines.append(f"{face}: [" + ", ".join(repr(p) for p in ps) + "]")
        return "{" + ",\n ".join(lines) + "}"


# ---------------------------------------------------------------------------
# standard pairs in a polynomial ring

@dataclass(frozen=True)
class PolyStdPair:
    """A pair (x^u, V) in N^m: base exponent u (zero on V) plus free variables V."""

    base: tuple
    free: tuple  # strictly increasing variable indices

    def contains(self, other: "PolyStdPair") -> bool:
        """Set containment other + N^free(other) <= self + N^free(self)."""
        if not set(other.free) <= set(self.free):
            return False
        for i, (a, b) in enumerate(zip(other.base, self.base)):
            if i in self.free:
                continue
            if a != b:
                return False
        return vec_leq(self.base, other.base)


class PolyMonomialIdeal:
    """A monomial ideal of N^m given by exponent vectors, kept minimal."""

    def __init__(self, nvars: int, exponents):
        self.nvars = nvars
        exps = [vec(e) for e in exponents]
        for e in exps:
            if len(e) != nvars:
                raise ValueError("exponent dimension mismatch")
            if any(x < 0 for x in e):
                raise ValueError("exponents must be nonnegative")
        self.exponents = tuple(minimal_elements(exps))

    def is_empty(self) -> bool:
        return not self.exponents

    def is_unit(self) -> bool:
        return any(all(x == 0 for x in e) for e in self.exponents)

    def __contains__(self, u) -> bool:
        u = vec(u)
        return any(vec_leq(e, u) for e in self.exponents)


def poly_standard_pairs(J: PolyMonomialIdeal) -> tuple:
    """All standard pairs of a polynomial-ring monomial ideal, sorted.

    The pairs come from a recursion on one variable x_m, so the cost
    follows the number of pairs rather than the exponent box.  Let D be the
    largest exponent of x_m among the generators, and for each k let the
    slice J_k = (J : x_m^k) with x_m = 1, an ideal in m - 1 variables.  The
    slices grow with k and stop changing at k = D.  A pair (u, V) is proper
    for J with x_m fixed at u_m = k exactly when (u without u_m, V) is
    proper for J_k, and with x_m free exactly when it is proper for J_D.
    Hence the standard pairs of J are

    * ((u, 0), V + {m}) for each standard pair (u, V) of J_D, and
    * ((u, k), V) for k < D and each standard pair (u, V) of J_k such
      that x^u N^V meets J_D, i.e. some generator g of J_D has g_i <= u_i
      for every i not in V.

    A pair with x_m fixed can only be contained in pairs with x_m fixed at
    the same value, which the slice's own pairs settle, or in pairs with
    x_m free, which are the proper pairs of J_D.  It lies inside one of the
    latter exactly when it is itself proper for J_D, i.e. when it misses
    J_D; so the J_D test decides maximality.  Slices recur within one call
    and are computed once (``_slice_pairs``), and so is each pair's J_D
    test, as slices share pairs.

    The variables are ordered once per call by their largest exponent among
    the generators, ties by index, and the recursion slices on them from
    the largest down: the split variable decides the size of a slice
    recursion (Roune, J. Symb. Comput. 44, 2009; Bigatti, J. Pure Appl.
    Algebra 119, 1997), and slicing first where the exponents reach
    furthest leaves fewer distinct slices below.  The pairs are mapped
    back to J's own variables.
    """
    if J.is_unit():
        raise ValueError("the unit ideal has no standard pairs")
    m, gens = J.nvars, J.exponents
    top = [*map(max, zip(*gens))] or [0] * m
    # slot p holds variable order[p]; the sort is stable, so ties keep index order
    order = sorted(range(m), key=top.__getitem__)
    if order == list(range(m)):
        pairs = _slice_pairs(m, gens, {})
    else:  # m >= 2, so each itemgetter returns a tuple
        place = sorted(range(m), key=order.__getitem__)  # variable i sits in slot place[i]
        to_slots, to_vars = itemgetter(*order), itemgetter(*place)
        sliced = _slice_pairs(m, tuple(sorted(map(to_slots, gens))), {})
        pairs = [(to_vars(u), tuple(sorted(map(order.__getitem__, free)))) for u, free in sliced]
    return tuple(PolyStdPair(u, free) for u, free in sorted(pairs))


def _slice_pairs(m: int, gens: tuple, memo: dict) -> list:
    """The standard pairs (u, free) of the ideal of N^m with the sorted
    minimal generators ``gens``, by the recursion of ``poly_standard_pairs``
    on the last variable.

    Memoized in ``memo`` on (m, gens): m belongs to the key because the
    empty ideal recurs in several dimensions.
    """
    key = (m, gens)
    out = memo.get(key)
    if out is not None:
        return out
    if not gens:
        out = [((0,) * m, tuple(range(m)))]
    elif not any(gens[0]):
        out = []  # the unit ideal (its only minimal generator is 0)
    else:
        slices = []  # (k, generators of J_k) at each distinct exponent k of x_m
        current: list = []
        for k in sorted({g[-1] for g in gens}):
            current = minimal_elements(current + [g[:-1] for g in gens if g[-1] == k])
            slices.append((k, tuple(current)))
        top = slices[-1][1]
        out = [(u + (0,), free + (m - 1,)) for u, free in _slice_pairs(m - 1, top, memo)]
        start, below = 0, ()  # J_j is the slice `below` for start <= j < k
        meets: dict = {}  # (u, free) -> whether x^u N^free meets J_D
        fixed: dict = {}  # free -> J_D's generators, zero on free (where u is zero too)
        for k, gens_k in slices:
            kept = []
            for pair in _slice_pairs(m - 1, below, memo):
                hit = meets.get(pair)
                if hit is None:
                    u, free = pair
                    if free not in fixed:
                        fixed[free] = [tuple(0 if i in free else x for i, x in enumerate(g)) for g in top]
                    hit = meets[pair] = any(all(map(le, g, u)) for g in fixed[free])
                if hit:
                    kept.append(pair)
            for j in range(start, k):
                out.extend([(u + (j,), free) for u, free in kept])
            start, below = k, gens_k
    memo[key] = out
    return out


# ---------------------------------------------------------------------------
# pair difference

def pair_difference(pair: ProperPair, other: ProperPair) -> Cover:
    """Pairs over faces of G covering ``(b + NG) \\ (b' + NG')``, anchored
    to ``pair``'s ambient ideal (``_difference``).

    Requires G <= G' (as column sets) and a common ambient monoid."""
    monoid = pair.ideal.ambient
    if monoid != other.ideal.ambient:
        raise ValueError("pairs live over different ambient monoids")
    if not set(pair.face) <= set(other.face):
        raise ValueError("pair difference requires the first face inside the second")
    return _anchored(_difference(monoid, pair.base, pair.face, other.base, other.face), pair.ideal)


def _anchored(pairs, I: MonomialIdeal) -> Cover:
    """The cover of the ``(base, face)`` tuples ``pairs``, anchored to I."""
    return Cover.from_pairs(ProperPair(base, face, I, skip_check=True) for base, face in pairs)


def _difference(monoid: AffineMonoid, base: IntVector, face: Face, other_base: IntVector, other_face: Face) -> list:
    """``(base, face)`` tuples over faces of G covering ``(b + NG) \\ (b' + NG')``,
    for ``(b, G) = (base, face)`` and ``(b', G') = (other_base, other_face)``
    over ``monoid``.

    The caller ensures G <= G' (as column sets) and decides what
    properness means for the output pairs.

    The solve runs over the kept columns of both faces: ``b + NG`` is
    ``b + N K`` for K the kept columns of G, and likewise for G'.  Each
    output pair is ``(b + A_K u, F)`` for a standard pair ``(u, V)`` of the
    ideal ``J = {w : b + A_K w in b' + NG'}`` of N^|K|, with F the smallest
    face containing V's columns, and V is F's kept columns, so the pair
    is ``b + A_K u + NF``.  Proof: F <= G, as G is a face; suppose F has a
    kept column k outside V.  Then V is not empty, as the least face holds
    only zero columns, none of them kept.  So ``p = sum_{j in V} a_j`` lies
    in the relative interior of cone F, and NF has a conductor c with
    ``c + (ZF & cone F) <= NF`` (Bruns and Gubeladze, *Polytopes, Rings,
    and K-Theory*, ch. 2).  So for every integer s, ``m p - s a_k`` is in
    NF once m is large.  If ``u - u_k e_k + w + t e_k`` were in J for some
    w on V, then with ``s = t - u_k`` so would be ``u + w + m 1_V``, which
    adds ``m p - s a_k`` (in NF <= NG') to that point's image.  This would
    contradict the properness of ``(u, V)``; so ``(u - u_k e_k, V + {k})``
    is proper, and it strictly contains ``(u, V)``, against its maximality.
    So V is F's kept columns, and every output pair lies on a face.
    """
    kept = monoid.kept_of(face)
    sols = monoid.meet(base, kept, other_base, monoid.kept_of(other_face))
    m = len(kept)
    u_parts = [s[:m] for s in sols]
    if any(all(x == 0 for x in u) for u in u_parts):
        return []  # base already swallowed: empty difference
    gsub = monoid.submatrix(kept)
    stds = poly_standard_pairs(PolyMonomialIdeal(m, u_parts))
    faces = {free: monoid.face_closure(kept[i] for i in free) for free in {std.free for std in stds}}
    return [(vec_add(base, gsub.mul(std.base)), faces[std.free]) for std in stds]


def principal_cover(I: MonomialIdeal) -> Cover:
    """The standard cover of a principal ideal: one pair difference, pruned
    (the first and only cut of ``standard_cover``)."""
    if not I.is_principal():
        raise ValueError("principal_cover requires a principal ideal")
    return standard_cover(I)


# ---------------------------------------------------------------------------
# cover refinement

def minimal_holes(a: IntVector, face: Face, monoid: AffineMonoid) -> tuple:
    """Minimal monoid elements in the real-span slice of ``a`` along a face.

    These are the candidates for standard-pair bases absorbing ``(a, F)``:
    the elements q of the monoid with ``q - a`` in the linear span of the
    face, minimal under ``q <= q'  iff  q' - q in the monoid``.  Membership
    in the slice is linear (the face's support rows S_F vanish exactly on
    span F), and a minimal q uses no column on F, so the candidates are
    ``A_off u`` for the solutions u of ``B_F u = S_F a`` over the kept
    off-face columns: the system of F's record (``AffineMonoid._record``)
    that also answers F's membership questions.
    """
    support, _, off, system, _ = monoid._record(face)
    sols = min_nonneg_solutions(system, support.mul(vec(a)))
    return tuple(monoid.minimal(off.mul(u) for u in sols))


def czero_to_cone(cover: Cover, I: MonomialIdeal) -> Cover:
    """Replace each pair's base with the minimal holes of its slice.

    Properness is not required at this stage.
    """
    monoid = I.ambient
    out = []
    for face, ps in cover.entries:
        for p in ps:
            for b in minimal_holes(p.base, face, monoid):
                out.append(ProperPair(b, face, I, skip_check=True))
    return Cover.from_pairs(out)


def cone_to_ctwo(cover: Cover, I: MonomialIdeal) -> Cover:
    """Expand every pair to all containing faces, keeping the proper ones.

    ``b + NF <= b + NG`` for faces F <= G, so faces are tried from small
    to large (the lattice is in ``face_sort_key`` order) and every superset
    of one where the pair fails is skipped."""
    monoid = I.ambient
    faces = [f for f in monoid.faces if f != BOTTOM]
    out = []
    for face, ps in cover.entries:
        fset = set(face)
        targets = [g for g in faces if fset <= set(g)]
        for p in ps:
            failed = []
            for g in targets:
                if not any(f <= set(g) for f in failed):
                    candidate = ProperPair(p.base, g, I, skip_check=True)
                    if is_proper(candidate):
                        out.append(candidate)
                    else:
                        failed.append(set(g))
    return Cover.from_pairs(out)


def _prune_nested(monoid: AffineMonoid, pairs: list) -> list:
    """The ``(base, face)`` tuples of ``pairs`` contained in no other one,
    asking only the pairs kept.

    ``(a, F)`` lies in ``(b, G)`` iff F <= G and ``a - b`` is in NG.  With
    w the sum of the facet normals, positive on every nonzero monoid
    element, the pairs run by (-|F|, w . base): a pair containing another
    comes first, by a larger face or, over the same face, by
    ``w . (a - b) > 0``.  Containment is transitive, so a pair inside any
    pair is inside an earlier kept one.

    The kept pairs over G are grouped by their bases' lattice coordinates
    over G's kept columns A_K, whose data G's record keeps
    (``AffineMonoid.lattice_of``; ``_lattice_reduce``: ``b = A_K x + r``).  A
    pair can only lie in a kept pair with the same residue r, and then
    ``a - b = A_K (x_a - x_b)``: ``x_b <= x_a`` proves it, and when A_K's
    columns are linearly independent that is the only way to write
    ``a - b``, so no solve is made.  Otherwise ``meets`` decides."""
    w = tuple(map(sum, zip(*monoid.support_of(BOTTOM).data)))  # () without facets: w = 0
    lattices: dict = {}  # face -> (data of A_K, independent columns, residue -> [(kept base, x)])
    for face in {face for _, face in pairs}:
        data = monoid.lattice_of(face)
        lattices[face] = (data, data.reduction()[2] == data.M.cols, {})
    above = {f: [f] + [g for g in lattices if g != f and set(f) <= set(g)] for f in lattices}
    keep: list = []
    for base, face in sorted(pairs, key=lambda p: (-len(p[1]), vec_dot(w, p[0]))):
        coords = [(g, *_lattice_reduce(lattices[g][0], base)) for g in above[face]]
        if not any(
            vec_leq(y, x) or not lattices[g][1] and monoid.meets(b, g, base, ())
            for g, x, residue in coords
            for b, y in lattices[g][2].get(residue, ())
        ):
            keep.append((base, face))
            _, x, residue = coords[0]
            lattices[face][2].setdefault(residue, []).append((base, x))
    return keep


def cover_to_standard(cover: Cover, I: MonomialIdeal, loop_cap: int = 1000) -> Cover:
    """Refine a cover of std(I) by pairs over faces to the standard cover
    (fixpoint of the two steps, then pruned), within ``loop_cap >= 1``
    refinement iterations.  The input may hold nested pairs, and its pairs may be
    anchored to any ideal over I's monoid; ``czero_to_cone`` anchors every
    pair it emits to I."""
    if loop_cap < 1:
        raise ValueError(f"loop cap must be at least 1, got {loop_cap}")
    current = cover
    for _ in range(loop_cap):
        refined = cone_to_ctwo(czero_to_cone(current, I), I)
        if refined == current:
            return _anchored(_prune_nested(I.ambient, [(p.base, p.face) for p in refined.pairs()]), I)
        current = refined
    raise LoopCapExceeded(f"cover refinement did not stabilize within {loop_cap} iterations")


@memoized
def standard_cover(I: MonomialIdeal) -> Cover:
    """The standard cover of a proper monomial ideal (memoized): each
    generator g cuts every standing piece against ``(g, top)`` and the
    pieces are pruned.  The ideal with no generators gets {(0, top)}.

    This is exact, by induction on the generators.  The pieces start as
    the standard cover {(0, top)} of the ideal with no generators.  Let
    them be the standard cover of the ideal I' of the earlier generators,
    and let g cut them: a piece (b, G) gives the standard pairs of
    ``J = {u : b + A_K u in g + NA}``, K the kept columns of G, pushed
    forward (``_difference``).
    * Every cut pair is proper for I: it lies in a piece, which misses I',
      and it misses ``g + NA`` by the definition of J.
    * Every standard pair (a, F) of I is a cut pair.  It is proper for I',
      so it lies in some piece (b, G).  Its pull-back ``u0 + N^V``, with V
      the kept columns of F, misses J, so it lies in one standard pair of
      J.  Pushed forward, that pair is a cut pair that contains (a, F) and
      is proper for I, so it equals (a, F).
    * Every other cut pair lies strictly inside one of those standard
      pairs, so ``_prune_nested`` drops it.
    So the pruned cut is the standard cover of I' + (g)."""
    monoid = I.ambient
    gens = I.gens.columns()
    pieces = [((0,) * monoid.dim, monoid.top)]
    for i, g in enumerate(gens, 1):
        cuts = [q for base, face in pieces for q in _difference(monoid, base, face, g, monoid.top)]
        pieces = _prune_nested(monoid, cuts)
        log.info(
            "Cover for %d generator%s was calculated. %d generators are left.",
            i,
            "s" if i > 1 else "",
            len(gens) - i,
        )
    return _anchored(pieces, I)
