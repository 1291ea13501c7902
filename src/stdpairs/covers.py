"""Standard covers of monomial ideals.

The pipeline:

1. ``pair_difference(P, P')``: decompose ``(b + NG) \\ (b' + NG')`` into
   finitely many pairs over faces of G.  The points of ``b + NG`` landing
   in ``b' + NG'`` pull back to a monomial ideal J in |G| variables (its
   generators are the u-parts of the minimal solutions of
   ``[G -G'] [u; v] = b' - b``); the standard pairs of J push forward to
   the desired pairs.  ``poly_standard_pairs`` finds them by slicing J on
   its last variable and recursing on the slices, so their cost follows
   the number of pairs, not the volume of J's exponent box.
2. ``principal_cover``: for a principal ideal, the pair difference of
   (0, A) and (b, A) is already the standard cover.
3. ``cover_to_standard``: refine a cover of std(I) by pairs over faces to
   the standard cover by alternating two steps until a fixpoint: move each
   base down to the minimal monoid elements of its real-span slice
   (``czero_to_cone``), then re-expand each pair to every containing face
   that keeps it proper (``cone_to_ctwo``).  Nested pairs are pruned at
   the fixpoint.
4. ``standard_cover``: fold the ideal's generators one at a time,
   differencing each standing pair against the new generator and
   re-standardizing.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .diophantine import (
    IntMatrix,
    IntVector,
    min_nonneg_solutions,
    minimal_elements,
    vec,
    vec_add,
    vec_dot,
    vec_leq,
)
from .ideal import MonomialIdeal
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

    The pairs come from a recursion on the last variable x_m, so the cost
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
    and are computed once (``_slice_pairs``).
    """
    if J.is_unit():
        raise ValueError("the unit ideal has no standard pairs")
    pairs = _slice_pairs(J.nvars, J.exponents, {})
    return tuple(PolyStdPair(u, free) for u, free in sorted(pairs))


def _slice_pairs(m: int, gens: tuple, memo: dict) -> list:
    """The standard pairs (u, free) of the ideal of N^m with the sorted
    minimal generators ``gens``, by the recursion of ``poly_standard_pairs``.

    Memoized in ``memo`` on (m, gens): m belongs to the key because the
    empty ideal recurs in several dimensions.
    """
    key = (m, gens)
    if key in memo:
        return memo[key]
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
        for k, gens_k in slices:
            kept = [
                (u, free) for u, free in _slice_pairs(m - 1, below, memo)
                if any(all(g[i] <= u[i] for i in range(m - 1) if i not in free) for g in top)
            ]
            out.extend((u + (j,), free) for j in range(start, k) for u, free in kept)
            start, below = k, gens_k
    memo[key] = out
    return out


# ---------------------------------------------------------------------------
# pair difference

def pair_difference(pair: ProperPair, other: ProperPair) -> Cover:
    """Pairs over faces of G covering ``(b + NG) \\ (b' + NG')``.

    Requires G <= G' (as column sets) and a common ambient monoid.  Output
    pairs are anchored to ``pair``'s ambient ideal with checks skipped; the
    caller decides what properness means for them.

    Each output pair is ``(b + A_G u, V)`` for a standard pair ``(u, V)`` of
    the ideal ``J = {w : b + A_G w in b' + NG'}`` of N^|G|, and when G is a
    face, V's columns form a face too.  Proof: let F be the smallest face
    containing them (F <= G, as G is a face), and suppose F has a column k
    outside V.

    * V empty: F holds only zero columns, so freeing u_k moves no point, and
      ``(u - u_k e_k, {k})`` is proper for J.
    * V nonempty: ``p = sum_{j in V} a_j`` lies in the relative interior of
      cone F, and NF has a conductor c with ``c + (ZF & cone F) <= NF``
      (Bruns and Gubeladze, *Polytopes, Rings, and K-Theory*, ch. 2).  So
      for every integer s, ``m p - s a_k`` is in NF once m is large.  If
      ``u - u_k e_k + w + t e_k`` were in J for some w on V, then with
      ``s = t - u_k`` so would be ``u + w + m 1_V``, which adds
      ``m p - s a_k`` (in NF <= NG') to that point's image.  This would
      contradict the properness of ``(u, V)``; so ``(u - u_k e_k, V + {k})``
      is proper.

    Either way a proper pair strictly contains ``(u, V)``, against its
    maximality.  So V = F, and every output pair lies on a face.
    """
    monoid = pair.ideal.ambient
    if monoid != other.ideal.ambient:
        raise ValueError("pairs live over different ambient monoids")
    g_idx, go_idx = pair.face, other.face
    if not set(g_idx) <= set(go_idx):
        raise ValueError("pair difference requires the first face inside the second")
    sols = monoid.meet(pair.base, g_idx, other.base, go_idx)
    m = len(g_idx)
    u_parts = [s[:m] for s in sols]
    if any(all(x == 0 for x in u) for u in u_parts):
        return Cover.from_pairs([])  # base already swallowed: empty difference
    J = PolyMonomialIdeal(m, u_parts)
    out = []
    gsub = monoid.submatrix(g_idx)
    for std in poly_standard_pairs(J):
        base = vec_add(pair.base, gsub.mul(std.base))
        out.append(ProperPair(base, tuple(g_idx[i] for i in std.free), pair.ideal, skip_check=True))
    return Cover.from_pairs(out)


def principal_cover(I: MonomialIdeal) -> Cover:
    """The standard cover of a principal ideal, via one pair difference."""
    if not I.is_principal():
        raise ValueError("principal_cover requires a principal ideal")
    monoid = I.ambient
    whole = ProperPair((0,) * monoid.dim, monoid.top, I, skip_check=True)
    shifted = ProperPair(I.gens.col(0), monoid.top, I, skip_check=True)
    return pair_difference(whole, shifted)


# ---------------------------------------------------------------------------
# cover refinement

def minimal_holes(a: IntVector, face: Face, monoid: AffineMonoid) -> tuple:
    """Minimal monoid elements in the real-span slice of ``a`` along a face.

    These are the candidates for standard-pair bases absorbing ``(a, F)``:
    the elements q of the monoid with ``q - a`` in the linear span of the
    face, minimal under ``q <= q'  iff  q' - q in the monoid``.  Membership
    in the slice is linear (the face's support vectors vanish on it), so
    candidates come from one Diophantine solve.
    """
    a = vec(a)
    support = monoid.support_of(face)
    system = support.matmul(monoid.gens)
    rhs = support.mul(a)
    sols = min_nonneg_solutions(system, rhs)
    return tuple(monoid.minimal(monoid.gens.mul(x) for x in sols))


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


def _pair_set_contains(big: ProperPair, small: ProperPair) -> bool:
    """Set containment small.base + NF <= big.base + NG."""
    if not set(small.face) <= set(big.face):
        return False
    return big.ideal.ambient.meets(big.base, big.face, small.base, ())


def _prune_nested(cover: Cover) -> Cover:
    """Drop the pairs contained in another one, asking only the pairs kept.

    ``(a, F)`` lies in ``(b, G)`` iff F <= G and ``a - b`` is in NG.  With
    w the sum of the facet normals, positive on every nonzero monoid
    element, the pairs run by (-|F|, w . base): a pair containing another
    comes first, by a larger face or, over the same face, by
    ``w . (a - b) > 0``.  Containment is transitive, so a pair inside any
    pair is inside an earlier kept one."""
    pairs = cover.pairs()
    if not pairs:
        return cover
    monoid = pairs[0].ideal.ambient
    w = tuple(map(sum, zip(*monoid.support_of(BOTTOM).data)))  # () without facets: w = 0
    keep: list = []
    for p in sorted(pairs, key=lambda p: (-len(p.face), vec_dot(w, p.base))):
        if not any(_pair_set_contains(q, p) for q in keep):
            keep.append(p)
    return Cover.from_pairs(keep)


def _check_loop_cap(loop_cap: int) -> None:
    if loop_cap < 1:
        raise ValueError(f"loop cap must be at least 1, got {loop_cap}")


def cover_to_standard(cover: Cover, I: MonomialIdeal, loop_cap: int = 1000) -> Cover:
    """Refine a cover of std(I) to the standard cover (fixpoint of the two
    steps), within ``loop_cap >= 1`` refinement iterations."""
    _check_loop_cap(loop_cap)
    current = Cover.from_pairs(
        ProperPair(p.base, p.face, I, skip_check=True) for p in cover.pairs()
    )
    for _ in range(loop_cap):
        refined = cone_to_ctwo(czero_to_cone(current, I), I)
        if refined == current:
            return _prune_nested(current)
        current = refined
    raise LoopCapExceeded(f"cover refinement did not stabilize within {loop_cap} iterations")


def standard_cover(I: MonomialIdeal, loop_cap: int = 1000) -> Cover:
    """The standard cover of a proper nonempty monomial ideal (memoized),
    refining each generator fold within ``loop_cap >= 1`` iterations."""
    _check_loop_cap(loop_cap)
    if I.is_empty():
        raise ValueError("the empty ideal has no standard cover")
    if "standard_cover" in I._cache:
        return I._cache["standard_cover"]
    monoid = I.ambient
    gens = I.gens.columns()
    sub = MonomialIdeal(monoid, IntMatrix.from_cols(gens[:1], rows=monoid.dim), _trusted=True)
    cover = principal_cover(sub)
    log.info("Cover for 1 generator was calculated. %d generators are left.", len(gens) - 1)
    for i in range(1, len(gens)):
        sub = MonomialIdeal(monoid, IntMatrix.from_cols(gens[: i + 1], rows=monoid.dim), _trusted=True)
        cutter = ProperPair(gens[i], monoid.top, sub, skip_check=True)
        pieces = []
        for p in cover.pairs():
            anchored = ProperPair(p.base, p.face, sub, skip_check=True)
            pieces.extend(pair_difference(anchored, cutter).pairs())
        cover = cover_to_standard(Cover.from_pairs(pieces), sub, loop_cap=loop_cap)
        log.info(
            "Cover for %d generators was calculated. %d generators are left.",
            i + 1,
            len(gens) - i - 1,
        )
    result = Cover.from_pairs(
        ProperPair(p.base, p.face, I, skip_check=True) for p in cover.pairs()
    )
    I._cache["standard_cover"] = result
    return result
