import random
from itertools import product

import pytest

from stdpairs.covers import (
    Cover,
    LoopCapExceeded,
    PolyMonomialIdeal,
    PolyStdPair,
    cone_to_ctwo,
    cover_to_standard,
    czero_to_cone,
    minimal_holes,
    pair_difference,
    poly_standard_pairs,
    principal_cover,
    standard_cover,
)
from stdpairs.diophantine import IntMatrix
from stdpairs.ideal import MonomialIdeal
from stdpairs.monoid import AffineMonoid
from stdpairs.pairs import ProperPair, is_proper

from oracles import brute_poly_standard_pairs, ideal_members, monoid_box


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
        cover_to_standard(bad, I, loop_cap=0)


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
