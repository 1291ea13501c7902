import math
import random
from itertools import product

import pytest

from stdpairs.covers import (
    Cover,
    LoopCapExceeded,
    PolyMonomialIdeal,
    PolyStdPair,
    _pair_set_contains,
    _prune_nested,
    cone_to_ctwo,
    cover_to_standard,
    czero_to_cone,
    minimal_holes,
    pair_difference,
    poly_standard_pairs,
    principal_cover,
    standard_cover,
)
from stdpairs.diophantine import IntMatrix, minimal_elements, vec_leq
from stdpairs.ideal import MonomialIdeal
from stdpairs.monoid import AffineMonoid
from stdpairs.pairs import ProperPair, is_proper
from stdpairs.polyhedral import BOTTOM

from oracles import brute_poly_standard_pairs, ideal_members, monoid_box, reachable_set, seeded_instances
from test_acceptance import random_instances


def cover_shape(cover):
    return {face: [p.base for p in ps] for face, ps in cover.entries}


# ---------------------------------------------------------------------------
# polynomial standard pairs

def test_poly_standard_pairs_macaulay_example():
    J = PolyMonomialIdeal(3, [(1, 3, 1), (1, 2, 2), (0, 3, 2), (0, 2, 3)])
    got = {(p.base, p.free) for p in poly_standard_pairs(J)}
    assert got == {
        ((0, 0, 0), (0, 2)),
        ((0, 1, 0), (0, 2)),
        ((0, 0, 0), (0, 1)),
        ((0, 0, 1), (1,)),
        ((0, 2, 1), (0,)),
        ((0, 2, 2), ()),
    }


def test_poly_standard_pairs_zero_ideal():
    J = PolyMonomialIdeal(2, [])
    assert poly_standard_pairs(J) == (PolyStdPair((0, 0), (0, 1)),)


def test_poly_standard_pairs_univariate():
    J = PolyMonomialIdeal(1, [(2,)])
    assert {(p.base, p.free) for p in poly_standard_pairs(J)} == {((0,), ()), ((1,), ())}


def test_poly_standard_pairs_unit_ideal_rejected():
    with pytest.raises(ValueError):
        poly_standard_pairs(PolyMonomialIdeal(2, [(0, 0)]))


def test_poly_standard_pairs_against_brute_force():
    rng = random.Random(424242)
    for _ in range(25):
        m = rng.randint(1, 3)
        k = rng.randint(1, 3)
        gens = [tuple(rng.randint(0, 4) for _ in range(m)) for _ in range(k)]
        if any(all(v == 0 for v in g) for g in gens):
            continue
        J = PolyMonomialIdeal(m, gens)
        got = sorted((p.base, p.free) for p in poly_standard_pairs(J))
        expected = brute_poly_standard_pairs(J.exponents, m, 4)
        assert got == expected


def test_poly_monomial_ideal_rejects_negative_exponents():
    with pytest.raises(ValueError):
        PolyMonomialIdeal(2, [(1, 2), (0, -3)])
    with pytest.raises(ValueError):
        PolyMonomialIdeal(2, [(-1, 2)])


def literal_maximal_pairs(exponents, m):
    """Proper pairs over the exponent box no other proper pair contains().

    Each pair is compared with every pair whose free set includes its own
    (contains() is false for all others).
    """
    bound = [max((e[i] for e in exponents), default=1) for i in range(m)]
    proper = {}  # free set -> proper pairs on it
    for mask in product((False, True), repeat=m):
        ranges = [range(1) if mask[i] else range(bound[i]) for i in range(m)]
        V = tuple(i for i in range(m) if mask[i])
        for u in product(*ranges):
            if all(any(e[i] > u[i] for i in range(m) if not mask[i]) for e in exponents):
                proper.setdefault(V, []).append(PolyStdPair(u, V))
    return sorted(
        (p.base, p.free)
        for V, ps in proper.items() for p in ps
        if not any(
            q != p and q.contains(p)
            for W, qs in proper.items() if set(V) <= set(W) for q in qs
        )
    )


def test_poly_standard_pairs_equal_literal_maximal_pairs():
    rng = random.Random(20260418)
    ideals = [(m, []) for m in range(1, 6)] + [(1, [(k,)]) for k in range(1, 5)]
    while len(ideals) < 50:
        m = rng.randint(2, 5)
        gens = [tuple(rng.randint(0, 4) for _ in range(m)) for _ in range(rng.randint(1, 4))]
        if all(any(g) for g in gens):
            ideals.append((m, gens))
    for m, gens in ideals:
        J = PolyMonomialIdeal(m, gens)
        got = [(p.base, p.free) for p in poly_standard_pairs(J)]
        assert got == literal_maximal_pairs(J.exponents, m), gens


# The box enumeration that computed poly_standard_pairs before the slice
# recursion, kept verbatim as the reference the recursion must agree with.
def _reference_poly_standard_pairs(J: PolyMonomialIdeal) -> tuple:
    """All standard pairs of a polynomial-ring monomial ideal.

    Exhaustive at desk scale: for every admissible variable set V the
    candidate bases live in the box bounded by the generator exponents
    (a base reaching the bound off V is absorbed by a larger pair), and
    properness reduces to comparison with the V-saturated generators.

    A candidate (u, V) is maximal iff no one-variable extension
    (u with u_i = 0, V + {i}), i not in V, is a candidate.  If a candidate
    (u', V') strictly contains (u, V), then V' is strictly larger than V;
    for any i in V' \\ V the extension lies inside (u', V') (so it is
    proper), its free set lies inside V' (so it is admissible), its base
    stays in the box, and it contains (u, V).  So m set lookups per
    candidate replace a comparison with every other candidate.
    """
    m = J.nvars
    if J.is_unit():
        raise ValueError("the unit ideal has no standard pairs")
    if J.is_empty():
        return (PolyStdPair((0,) * m, tuple(range(m))),)
    bound = [max(e[i] for e in J.exponents) for i in range(m)]
    candidates: set = set()
    for mask in product((False, True), repeat=m):
        free = tuple(i for i in range(m) if mask[i])
        fset = set(free)
        if any(all(e[i] == 0 for i in range(m) if i not in fset) for e in J.exponents):
            continue  # a generator is supported inside V: no proper pair survives
        saturated = minimal_elements(
            tuple(0 if i in fset else e[i] for i in range(m)) for e in J.exponents
        )
        ranges = [range(1) if i in fset else range(bound[i]) for i in range(m)]
        for u in product(*ranges):
            if not any(vec_leq(s, u) for s in saturated):
                candidates.add((u, free))
    maximal = [
        (u, free) for u, free in candidates
        if not any(
            (u[:i] + (0,) + u[i + 1:], tuple(sorted(free + (i,)))) in candidates
            for i in range(m) if i not in free
        )
    ]
    return tuple(PolyStdPair(u, free) for u, free in sorted(maximal))


def _seeded_poly_ideals(count, seed):
    """(nvars, generator list) for ``count`` seeded ideals, m = 0..6 and
    exponents up to 9, cycling through five kinds: the empty ideal, an
    unused variable, a pure power, duplicate and non-minimal generators,
    and plain random generators.  The exponent box of each ideal is capped
    so that the reference enumeration stays cheap."""
    rng = random.Random(seed)
    out = []
    for n in range(count):
        kind = n % 5
        m = rng.randint(0, 6) if kind == 0 else rng.randint(1 + (kind == 1), 6)
        caps = [rng.randint(1, 9) for _ in range(m)]
        while math.prod(c + 1 for c in caps) > 4000:
            caps[caps.index(max(caps))] -= 1
        if kind == 0:
            out.append((m, []))
            continue
        if kind == 1:
            caps[rng.randrange(m)] = 0
        gens, size = [], rng.randint(1, 6)
        while len(gens) < size:
            g = tuple(rng.randint(0, c) for c in caps)
            if any(g):
                gens.append(g)
        if kind == 2:
            j = rng.randrange(m)
            gens.append(tuple(rng.randint(1, caps[j]) if i == j else 0 for i in range(m)))
        elif kind == 3:
            g = rng.choice(gens)
            gens += [g, tuple(min(c, x + rng.randint(0, 2)) for x, c in zip(g, caps))]
            rng.shuffle(gens)
        out.append((m, gens))
    return out


def test_poly_standard_pairs_equal_reference():
    kinds = {"empty": 0, "unused variable": 0, "pure power": 0, "redundant": 0}
    ideals = _seeded_poly_ideals(420, 20261018)
    for m, gens in ideals:
        J = PolyMonomialIdeal(m, gens)
        assert poly_standard_pairs(J) == _reference_poly_standard_pairs(J), (m, gens)
        exps = J.exponents
        kinds["empty"] += not exps
        kinds["unused variable"] += bool(exps) and any(
            all(e[i] == 0 for e in exps) for i in range(m)
        )
        kinds["pure power"] += any(sum(x > 0 for x in e) == 1 for e in exps)
        kinds["redundant"] += len(exps) < len(gens)
    assert len(ideals) >= 400
    assert {m for m, _ in ideals} == set(range(7))
    assert max(x for _, gens in ideals for g in gens for x in g) == 9
    assert all(n >= 20 for n in kinds.values()), kinds


# The ideal that principal_cover pulls back for Q = [(1,4,4), (1,2,4), (3,4,0),
# (4,0,3), (2,4,1)] (as columns) and I = ((31,38,35)).  Its exponent box
# holds 24 x 23 x 36 x 9 x 34 bases per variable set, for 2,937 pairs.
LARGE_BOX_IDEAL = [
    (0, 0, 0, 7, 34), (0, 1, 0, 6, 29), (0, 3, 0, 5, 24), (0, 5, 0, 4, 19),
    (0, 7, 0, 3, 14), (0, 9, 0, 2, 9), (0, 11, 4, 1, 4), (0, 13, 8, 0, 0),
    (0, 15, 0, 1, 16), (0, 17, 1, 0, 11), (0, 19, 5, 0, 6), (0, 21, 0, 0, 23),
    (0, 23, 0, 0, 18), (3, 0, 0, 5, 12), (3, 1, 0, 4, 7), (3, 3, 3, 3, 2),
    (3, 5, 7, 2, 0), (3, 7, 11, 1, 0), (3, 9, 15, 0, 0), (10, 0, 0, 6, 5),
    (10, 0, 2, 5, 0), (10, 0, 6, 4, 0), (10, 0, 10, 3, 0), (10, 1, 14, 2, 0),
    (10, 3, 18, 1, 0), (10, 5, 22, 0, 0), (17, 0, 0, 8, 3), (17, 0, 1, 7, 0),
    (17, 0, 21, 2, 0), (17, 0, 25, 1, 0), (17, 1, 29, 0, 0), (24, 0, 0, 9, 0),
    (24, 0, 36, 0, 0),
]


def test_poly_standard_pairs_large_box():
    J = PolyMonomialIdeal(5, LARGE_BOX_IDEAL)
    assert len(J.exponents) == 33
    pairs = [(p.base, p.free) for p in poly_standard_pairs(J)]
    assert len(pairs) == 2937
    assert pairs == sorted(set(pairs))

    def proper(u, free):
        return not any(
            all(g[i] <= u[i] for i in range(5) if i not in free) for g in J.exponents
        )

    for u, free in pairs:
        assert all(u[i] == 0 for i in free)
        assert proper(u, free)
        for i in range(5):  # maximal: no one-variable extension is proper
            if i not in free:
                assert not proper(u[:i] + (0,) + u[i + 1:], tuple(sorted(free + (i,))))
    bases = {}  # free set -> bases of its pairs
    for u, free in pairs:
        bases.setdefault(free, set()).add(u)
    bound = [max(e[i] for e in J.exponents) for i in range(5)]
    rng = random.Random(31)
    for _ in range(2000):
        v = tuple(rng.randint(0, b) for b in bound)
        assert v in J or any(
            tuple(0 if i in free else v[i] for i in range(5)) in us
            for free, us in bases.items()
        ), v


def test_poly_standard_pairs_runs_once_per_call(monkeypatch):
    import stdpairs.covers as covers

    calls = []
    original = covers.poly_standard_pairs

    def counting(J):
        calls.append(J.nvars)
        return original(J)

    monkeypatch.setattr(covers, "poly_standard_pairs", counting)
    J = PolyMonomialIdeal(4, [(1, 3, 1, 2), (1, 2, 2, 0), (0, 3, 2, 1), (2, 0, 3, 3)])
    assert covers.poly_standard_pairs(J) == original(J)
    assert calls == [4]
    calls.clear()
    Q = AffineMonoid(IntMatrix.from_cols([(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)]))
    principal_cover(MonomialIdeal(Q, IntMatrix.from_cols([(3, 2, 5)])))
    assert calls == [4]


# ---------------------------------------------------------------------------
# pair difference

@pytest.fixture
def interior_monoid():
    return AffineMonoid(IntMatrix.from_rows([[2, 0, 1], [0, 1, 1]]))


def test_pair_difference_printed_example(interior_monoid):
    B = interior_monoid
    empty = MonomialIdeal(B, IntMatrix.zero(2, 0))
    C = ProperPair((0, 0), (0, 1, 2), empty)
    D = ProperPair((0, 2), (0, 1, 2), empty, skip_check=True)
    diff = pair_difference(C, D)
    assert cover_shape(diff) == {(0,): [(0, 0), (0, 1), (1, 1), (1, 2)]}


def test_pair_difference_with_itself_is_empty(interior_monoid):
    empty = MonomialIdeal(interior_monoid, IntMatrix.zero(2, 0))
    P = ProperPair((0, 0), (0, 1, 2), empty)
    assert pair_difference(P, P).is_empty()


def test_pair_difference_disjoint_returns_first_pair():
    Q = AffineMonoid(IntMatrix.identity(2))
    empty = MonomialIdeal(Q, IntMatrix.zero(2, 0))
    P = ProperPair((0, 0), (0,), empty)
    other = ProperPair((0, 1), (0, 1), empty)
    diff = pair_difference(P, other)
    assert cover_shape(diff) == {(0,): [(0, 0)]}


def test_pair_difference_requires_face_containment(interior_monoid):
    empty = MonomialIdeal(interior_monoid, IntMatrix.zero(2, 0))
    P = ProperPair((0, 0), (0, 1, 2), empty)
    small = ProperPair((0, 0), (0,), empty)
    with pytest.raises(ValueError):
        pair_difference(P, small)


def test_pair_difference_box_partition(interior_monoid):
    B = interior_monoid
    empty = MonomialIdeal(B, IntMatrix.zero(2, 0))
    P = ProperPair((0, 0), (0, 1, 2), empty)
    D = ProperPair((0, 2), (0, 1, 2), empty, skip_check=True)
    diff = pair_difference(P, D)
    cols = B.gens.columns()
    box = monoid_box(cols, 6)
    caps = [max(b[r] for b in box) for r in range(2)]
    removed = ideal_members([(0, 2)], cols, caps)
    for b in box:
        in_diff = any(not p.is_element(b).is_empty() for p in diff.pairs())
        assert in_diff == (b not in removed)


def _face_pair_monoids():
    """Column lists: seeded ones (zero and repeated columns among them),
    numerical semigroups, a plane monoid whose facet y = 0 is the
    non-normal <2, 3>, and the three-dimensional T3 with non-normal faces."""
    cols = [cols for _, cols, _ in seeded_instances(16, 20261019)]
    cols += [[(2,), (3,)], [(3,), (0,), (5,), (7,)], [(2, 0), (3, 0), (0, 1), (1, 1)]]
    cols.append([(1, 0, 2), (3, 3, 0), (0, 4, 4), (0, 3, 4), (2, 4, 2)])
    return cols


def test_pair_difference_over_faces_covers_box_exactly_on_faces():
    """For all faces G <= G' and small bases, every pair of
    ``(b + NG) \\ (b' + NG')`` lies on a face, and the pairs cover exactly
    that difference in the box b + [0, 3]^d (brute-force membership by
    capped reachability: every column here is nonnegative)."""
    differences = 0
    for cols in _face_pair_monoids():
        d = len(cols[0])
        Q = AffineMonoid(IntMatrix.from_cols(cols, rows=d))
        empty = MonomialIdeal(Q, IntMatrix.zero(d, 0))
        faces = [f for f in Q.faces if f != BOTTOM]
        bases = sorted(monoid_box(cols, 1), key=lambda b: (sum(b), b))[:3]
        caps = tuple(max(b[i] for b in bases) + 3 for i in range(d))
        reach = {f: reachable_set([cols[j] for j in f], caps) for f in faces}

        def member(x, base, face):
            y = tuple(p - q for p, q in zip(x, base))
            return min(y) >= 0 and y in reach[face]

        for G in faces:
            for Gp in (f for f in faces if set(G) <= set(f)):
                for b in bases:
                    box = [tuple(map(sum, zip(b, t))) for t in product(range(4), repeat=d)]
                    for bp in bases:
                        diff = pair_difference(
                            ProperPair(b, G, empty, skip_check=True), ProperPair(bp, Gp, empty, skip_check=True)
                        ).pairs()
                        differences += 1
                        assert all(p.face in faces for p in diff)
                        for x in box:
                            covered = any(member(x, p.base, p.face) for p in diff)
                            assert covered == (member(x, b, G) and not member(x, bp, Gp)), (cols, G, Gp, b, bp, x)
    assert differences > 1000


# ---------------------------------------------------------------------------
# principal covers

def test_principal_cover_golden(interior_monoid):
    I = MonomialIdeal(interior_monoid, IntMatrix.from_cols([(0, 2)]))
    assert cover_shape(principal_cover(I)) == {(0,): [(0, 0), (0, 1), (1, 1), (1, 2)]}
    assert standard_cover(I) == principal_cover(I)


def test_principal_cover_polynomial_case():
    Q = AffineMonoid(IntMatrix.identity(1))
    I = MonomialIdeal(Q, IntMatrix.from_cols([(2,)]))
    assert cover_shape(principal_cover(I)) == {(): [(0,), (1,)]}


def test_principal_cover_nonprincipal_rejected(interior_monoid):
    I = MonomialIdeal(interior_monoid, IntMatrix.from_cols([(0, 2), (4, 0)]))
    with pytest.raises(ValueError):
        principal_cover(I)


def test_principal_cover_faces_drop_absorbed_ray():
    Q = AffineMonoid(IntMatrix.from_rows([[1, 2], [0, 2]]))
    I = MonomialIdeal(Q, IntMatrix.from_cols([(4, 4)]))
    cover = principal_cover(I)
    assert set(cover_shape(cover)) <= {(), (0,)}
    for p in cover.pairs():
        assert is_proper(p)


# ---------------------------------------------------------------------------
# minimal holes and the refinement steps

@pytest.fixture
def paper_monoid():
    return AffineMonoid(IntMatrix.from_rows([[1, 2], [0, 2]]))


def test_minimal_holes_examples(paper_monoid):
    Q = paper_monoid
    assert minimal_holes((0, 0), (1,), Q) == ((0, 0),)
    assert minimal_holes((3, 2), (0, 1), Q) == ((0, 0),)
    # the slice of (1,1) along face (1,) is {(0,0),(2,2),...}: its least
    # monoid element is the origin
    assert minimal_holes((1, 1), (1,), Q) == ((0, 0),)


def test_minimal_holes_are_slice_minimal(paper_monoid):
    Q = paper_monoid
    for a in [(2, 0), (2, 2), (3, 2), (5, 4)]:
        for face in [(), (0,), (1,)]:
            holes = minimal_holes(a, face, Q)
            assert a in monoid_box(Q.gens.columns(), 8)
            for h in holes:
                assert not Q.is_element(h).is_empty()
            for h in holes:
                for g in holes:
                    if h != g:
                        assert Q.is_element(tuple(x - y for x, y in zip(g, h))).is_empty()


def test_minimal_holes_infeasible_slice(paper_monoid):
    # nothing in the monoid shares an odd-second-coordinate slice
    assert minimal_holes((0, 1), (0,), paper_monoid) == ()


def test_czero_single_pair(paper_monoid):
    Q = paper_monoid
    I = MonomialIdeal(Q, IntMatrix.from_cols([(4, 4)]))
    C = Cover.from_pairs([ProperPair((0, 0), (1,), I, skip_check=True)])
    assert cover_shape(czero_to_cone(C, I)) == {(1,): [(0, 0)]}
    assert czero_to_cone(Cover.from_pairs([]), I).is_empty()


def test_cone_to_ctwo_filters_properness(paper_monoid):
    Q = paper_monoid
    I = MonomialIdeal(Q, IntMatrix.from_cols([(4, 4)]))
    C = Cover.from_pairs([ProperPair((0, 0), (), I)])
    out = cover_shape(cone_to_ctwo(C, I))
    assert (0, 0) in out.get((0,), [])
    assert (1,) not in out
    assert (0, 1) not in out


def _reference_cone_to_ctwo(cover: Cover, I: MonomialIdeal) -> Cover:
    """``cone_to_ctwo`` before monotonicity: every pair tested on every
    containing face."""
    monoid = I.ambient
    faces = [f for f in monoid.faces if f != BOTTOM]
    out = []
    for face, ps in cover.entries:
        fset = set(face)
        targets = [g for g in faces if fset <= set(g)]
        for p in ps:
            for g in targets:
                candidate = ProperPair(p.base, g, I, skip_check=True)
                if is_proper(candidate):
                    out.append(candidate)
    return Cover.from_pairs(out)


def test_cone_to_ctwo_equals_unpruned_reference_with_fewer_tests(monkeypatch):
    import stdpairs.covers as covers
    import stdpairs.pairs as pairs

    inputs = []
    original = covers.cone_to_ctwo

    def recording(cover, I):
        inputs.append((cover, I))
        return original(cover, I)

    monkeypatch.setattr(covers, "cone_to_ctwo", recording)
    ideals = list(random_instances())
    for d, cols, gens in seeded_instances(200, 20261022):
        Q = AffineMonoid(IntMatrix.from_cols(cols, rows=d))
        ideals.append(MonomialIdeal(Q, IntMatrix.from_cols(gens, rows=d)))
    for I in ideals:
        standard_cover(I)
    monkeypatch.undo()
    # index sets that are not faces, inside the facet y = 0 (columns 0, 1
    # and 4), cannot even be made into pairs
    Q = AffineMonoid(IntMatrix.from_cols([(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1), (1, 0, 2)]))
    J = MonomialIdeal(Q, IntMatrix.from_cols([(1, 1, 1), (0, 1, 2)]))
    non_faces = [(4,), (0, 1), (0, 4), (1, 4)]
    assert not set(non_faces) & set(Q.faces)
    for f in non_faces:
        with pytest.raises(ValueError, match="not a face"):
            ProperPair((0, 0, 0), f, J, skip_check=True)

    calls = []

    def counting(pair):
        calls.append(pair.face)
        return pairs.is_proper(pair)

    monkeypatch.setattr(covers, "is_proper", counting)
    monkeypatch.setitem(globals(), "is_proper", counting)  # the reference's
    pruned = unpruned = 0
    for cover, I in inputs:
        start = len(calls)
        out = cone_to_ctwo(cover, I)
        middle = len(calls)
        expected = _reference_cone_to_ctwo(cover, I)
        assert out == expected, (I, cover)
        assert middle - start <= len(calls) - middle
        pruned += middle - start
        unpruned += len(calls) - middle
    assert len(inputs) >= 40
    assert pruned < unpruned


def _strict_prune_nested(cover: Cover) -> Cover:
    """``_prune_nested`` with the reverse containment test: drop a pair only
    when it is strictly contained in another."""
    pairs = cover.pairs()
    keep = [
        p for p in pairs
        if not any(q is not p and _pair_set_contains(q, p) and not _pair_set_contains(p, q) for q in pairs)
    ]
    return Cover.from_pairs(keep)


def test_prune_nested_equals_reference_with_strict_containment(monkeypatch):
    """Distinct pairs never contain each other both ways, so dropping every
    contained pair prunes the fixpoint covers of the pipeline exactly as
    dropping the strictly contained ones does."""
    import stdpairs.covers as covers

    inputs = []
    original = covers._prune_nested

    def recording(cover):
        inputs.append(cover)
        return original(cover)

    monkeypatch.setattr(covers, "_prune_nested", recording)
    ideals = [I for i, I in enumerate(random_instances()) if i not in (10, 19)]
    for d, cols, gens in seeded_instances(200, 20261022):
        Q = AffineMonoid(IntMatrix.from_cols(cols, rows=d))
        ideals.append(MonomialIdeal(Q, IntMatrix.from_cols(gens, rows=d)))
    for I in ideals:
        standard_cover(I)
    monkeypatch.undo()
    dropped = 0
    for cover in inputs:
        out = _prune_nested(cover)
        assert out == _strict_prune_nested(cover), cover
        dropped += out != cover
    assert len(inputs) >= 30 and dropped >= 15


def _reference_prune_nested(cover: Cover) -> Cover:
    """Drop the pairs contained in another one.  Distinct pairs never contain
    each other both ways: that forces F = G and ``a - b`` in NF and -NF,
    which meet only in 0 in a pointed monoid."""
    pairs = cover.pairs()
    keep = [p for p in pairs if not any(q is not p and _pair_set_contains(q, p) for q in pairs)]
    return Cover.from_pairs(keep)


def _fixpoint_covers(monkeypatch, ideals) -> list:
    """The covers ``cover_to_standard`` prunes while covering ``ideals``."""
    import stdpairs.covers as covers

    inputs = []
    original = covers._prune_nested

    def recording(cover):
        inputs.append(cover)
        return original(cover)

    monkeypatch.setattr(covers, "_prune_nested", recording)
    for I in ideals:
        standard_cover(I)
    monkeypatch.undo()
    return inputs


def test_prune_nested_equals_all_pairs_reference(monkeypatch):
    """Asking only the kept pairs, in the (-|F|, w . base) order, prunes every
    fixpoint cover of the seeded instances (zero and duplicate columns
    included) and of the acceptance instances as asking all pairs does."""
    ideals = list(random_instances())
    for d, cols, gens in seeded_instances(240, 17):
        Q = AffineMonoid(IntMatrix.from_cols(cols, rows=d))
        ideals.append(MonomialIdeal(Q, IntMatrix.from_cols(gens, rows=d)))
    inputs = _fixpoint_covers(monkeypatch, ideals)
    dropped = 0
    for cover in inputs:
        out = _prune_nested(cover)
        assert out == _reference_prune_nested(cover), cover
        dropped += out != cover
    assert len(inputs) >= 30 and dropped >= 10


def test_prune_nested_asks_only_the_kept_pairs(monkeypatch):
    """On acceptance instance 17 each prune asks at most N * (kept)
    containment questions, for N pairs; asking all pairs needs more."""
    import stdpairs.covers as covers

    I = random_instances()[17]
    inputs = _fixpoint_covers(monkeypatch, [I])
    calls = []

    def counting(big, small):
        calls.append((big, small))
        return _pair_set_contains(big, small)

    monkeypatch.setattr(covers, "_pair_set_contains", counting)
    asked = bound = 0
    for cover in inputs:
        del calls[:]
        kept = len(_prune_nested(cover).pairs())
        asked += len(calls)
        bound += len(cover.pairs()) * kept
        assert len(calls) <= len(cover.pairs()) * kept, (len(calls), len(cover.pairs()), kept)
    assert 0 < asked <= bound


def test_cover_to_standard_is_fixpoint_on_standard(interior_monoid):
    I = MonomialIdeal(interior_monoid, IntMatrix.from_cols([(0, 2)]))
    cover = standard_cover(I)
    assert cover_to_standard(cover, I) == cover


def test_cover_to_standard_prunes_redundant_pair(interior_monoid):
    I = MonomialIdeal(interior_monoid, IntMatrix.from_cols([(0, 2)]))
    pairs = list(standard_cover(I).pairs())
    pairs.append(ProperPair((0, 0), (), I, skip_check=True))
    refined = cover_to_standard(Cover.from_pairs(pairs), I)
    assert refined == standard_cover(I)


def test_cover_to_standard_loop_cap(interior_monoid):
    I = MonomialIdeal(interior_monoid, IntMatrix.from_cols([(0, 2)]))
    bad = Cover.from_pairs([ProperPair((0, 0), (), I)])
    with pytest.raises(LoopCapExceeded):
        cover_to_standard(bad, I, loop_cap=1)


@pytest.mark.parametrize("loop_cap", [0, -3])
def test_loop_cap_below_one_is_rejected_before_any_work(interior_monoid, monkeypatch, loop_cap):
    """A cap below 1 is a ValueError, for principal ideals too (their cover
    needs no refinement loop), and no cover work starts."""
    import stdpairs.covers as covers

    def no_work(*args, **kwargs):
        raise AssertionError("cover work started")

    monkeypatch.setattr(covers, "principal_cover", no_work)
    monkeypatch.setattr(covers, "czero_to_cone", no_work)
    for gens in ([(0, 2)], [(0, 2), (2, 1)]):
        I = MonomialIdeal(interior_monoid, IntMatrix.from_cols(gens))
        with pytest.raises(ValueError, match="loop cap"):
            standard_cover(I, loop_cap=loop_cap)
        assert "standard_cover" not in I._cache
    I = MonomialIdeal(interior_monoid, IntMatrix.from_cols([(0, 2)]))
    bad = Cover.from_pairs([ProperPair((0, 0), (), I)])
    with pytest.raises(ValueError, match="loop cap"):
        cover_to_standard(bad, I, loop_cap=loop_cap)


# ---------------------------------------------------------------------------
# full standard covers

def test_standard_cover_identity_monoid_golden():
    Q = AffineMonoid(IntMatrix.identity(3))
    I = MonomialIdeal(Q, IntMatrix.from_rows([[1, 1, 0, 0], [3, 2, 3, 2], [1, 2, 2, 3]]))
    assert cover_shape(standard_cover(I)) == {
        (): [(0, 2, 2)],
        (0,): [(0, 2, 1)],
        (1,): [(0, 0, 1)],
        (0, 1): [(0, 0, 0)],
        (0, 2): [(0, 0, 0), (0, 1, 0)],
    }


def test_standard_cover_square_cone_golden():
    Q = AffineMonoid(IntMatrix.from_rows([[0, 1, 1, 0], [0, 0, 1, 1], [1, 1, 1, 1]]))
    I = MonomialIdeal(Q, IntMatrix.from_rows([[2, 2, 2], [0, 1, 2], [2, 2, 2]]))
    assert cover_shape(standard_cover(I)) == {
        (0, 3): [(0, 0, 0), (1, 0, 1), (1, 1, 1)]
    }


def test_standard_cover_memoized(interior_monoid):
    I = MonomialIdeal(interior_monoid, IntMatrix.from_cols([(0, 2)]))
    assert standard_cover(I) is standard_cover(I)


def test_standard_cover_empty_ideal_rejected(paper_monoid):
    E = MonomialIdeal(paper_monoid, IntMatrix.zero(2, 0))
    with pytest.raises(ValueError):
        standard_cover(E)


def test_standard_cover_box_soundness_and_completeness(paper_monoid):
    Q = paper_monoid
    I = MonomialIdeal(Q, IntMatrix.from_cols([(4, 4), (5, 0)]))
    cover = standard_cover(I)
    cols = Q.gens.columns()
    box = monoid_box(cols, 6)
    caps = [max(b[r] for b in box) for r in range(2)]
    members = ideal_members(I.gens.columns(), cols, caps)
    for p in cover.pairs():
        assert is_proper(p)
    for b in box:
        if b in members:
            continue
        assert any(not p.is_element(b).is_empty() for p in cover.pairs())


def test_standard_cover_quadratic_filter_regression():
    # instance 21 of random_instances(60, seed=1): a quadratic maximality
    # filter in poly_standard_pairs made this cover take minutes
    Q = AffineMonoid(IntMatrix.from_rows([[1, 0, 2, 4], [4, 3, 0, 3], [4, 1, 1, 4]]))
    I = MonomialIdeal(Q, IntMatrix.from_cols([(10, 17, 17)]))
    cover = standard_cover(I)
    assert len(cover.pairs()) == 113
    cols = Q.gens.columns()
    box = monoid_box(cols, 3)
    caps = [max(b[r] for b in box) for r in range(3)]
    members = ideal_members(I.gens.columns(), cols, caps)
    for p in cover.pairs():
        assert is_proper(p)
    for b in box:
        if b in members:
            continue
        assert any(not p.is_element(b).is_empty() for p in cover.pairs())
