import math
import random
from itertools import product

import pytest

from stdpairs.covers import (
    Cover,
    LoopCapExceeded,
    PolyMonomialIdeal,
    PolyStdPair,
    _anchored,
    _cut,
    _difference,
    _prune_nested,
    _slice_pairs,
    cone_to_ctwo,
    cover_to_standard,
    czero_to_cone,
    minimal_holes,
    pair_difference,
    poly_standard_pairs,
    principal_cover,
    standard_cover,
)
from stdpairs.decomp import irreducible_decomposition
from stdpairs.diophantine import IntMatrix, minimal_elements, rational_rank, vec_leq
from stdpairs.ideal import MonomialIdeal
from stdpairs.monoid import AffineMonoid
from stdpairs.pairs import ProperPair, is_proper
from stdpairs.polyhedral import BOTTOM

from oracles import (
    brute_poly_standard_pairs,
    cut_generators,
    difference_points,
    ideal_members,
    monoid_box,
    nested_pairs,
    reachable_set,
    seeded_instances,
    translate_points,
)
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


def test_poly_standard_pairs_permute_with_the_variables():
    """Metamorphic: renaming J's variables by a permutation renames its
    standard pairs by the same permutation, whichever variable the
    recursion slices first.  Over the seeded ideals of
    ``_seeded_poly_ideals`` with at least two variables, each under two
    random permutations."""
    rng = random.Random(4103)
    checked = 0
    for m, gens in _seeded_poly_ideals(300, 4104):
        J = PolyMonomialIdeal(m, gens)
        if m < 2 or J.is_unit():
            continue
        pairs = [(p.base, p.free) for p in poly_standard_pairs(J)]
        for _ in range(2):
            sigma = rng.sample(range(m), m)  # variable i of J is variable sigma[i] of the image

            def rename(u):
                out = [0] * m
                for i, x in enumerate(u):
                    out[sigma[i]] = x
                return tuple(out)

            image = PolyMonomialIdeal(m, [rename(g) for g in gens])
            expected = sorted((rename(u), tuple(sorted(sigma[i] for i in free))) for u, free in pairs)
            assert [(p.base, p.free) for p in poly_standard_pairs(image)] == expected, (m, gens, sigma)
            checked += 1
    assert checked >= 400, checked


def test_poly_standard_pairs_equal_reference_off_the_last_variable():
    """Seeded ideals in 2-5 variables whose largest exponent is not on the
    last variable, many with two or more variables tied at the largest
    exponent, agree with the box enumeration
    (``_reference_poly_standard_pairs``)."""
    rng = random.Random(4105)
    tied = checked = 0
    sizes = set()
    while checked < 240:
        m = rng.randint(2, 5)
        caps = [rng.randint(1, 6) for _ in range(m)]
        while math.prod(c + 1 for c in caps) > 3000:
            caps[caps.index(max(caps))] -= 1
        gens = [tuple(rng.randint(0, c) for c in caps) for _ in range(rng.randint(1, 6))]
        if checked % 2 and m > 2:  # two more generators, tying two variables but the last at the largest cap
            for i in rng.sample(range(m - 1), 2):
                caps[i] = max(caps)
                gens.append(tuple(caps[i] if k == i else rng.randint(0, c // 2) for k, c in enumerate(caps)))
        J = PolyMonomialIdeal(m, [g for g in gens if any(g)])
        if J.is_empty():
            continue
        top = [max(e[i] for e in J.exponents) for i in range(m)]
        if top[-1] == max(top):
            continue
        assert poly_standard_pairs(J) == _reference_poly_standard_pairs(J), (m, J.exponents)
        tied += top.count(max(top)) >= 2
        sizes.add(m)
        checked += 1
    assert tied >= 60 and sizes == {2, 3, 4, 5}, (tied, sizes)


def test_poly_standard_pairs_of_principal_ideals_equal_the_recursion(monkeypatch):
    """A principal ideal ``(x^w)`` is answered in closed form, with no
    slice recursion; its pairs ``(j e_i, [m] - {i})``, ``j < w_i``, equal
    the recursion's on the variables in index order (``_slice_pairs``) on
    seeded w in 1-6 variables with zero, small and large exponents, and
    the box enumeration (``_reference_poly_standard_pairs``) where the box
    is small."""
    import stdpairs.covers as covers

    rng = random.Random(5313)
    cases = [tuple(rng.choice((0, 0, 1, 2, rng.randint(3, 12))) for _ in range(rng.randint(1, 6))) for _ in range(700)]
    cases = [w for w in cases if any(w)]
    recursion = {w: tuple(sorted(PolyStdPair(u, free) for u, free in _slice_pairs(len(w), (w,), {}))) for w in cases}

    def no_recursion(*args):
        raise AssertionError("a principal ideal went through the slice recursion")

    monkeypatch.setattr(covers, "_slice_pairs", no_recursion)
    boxed = 0
    for w in cases:
        J = PolyMonomialIdeal(len(w), [w])
        pairs = poly_standard_pairs(J)
        assert pairs == recursion[w], w
        if math.prod(x + 1 for x in w) <= 2000:
            assert pairs == _reference_poly_standard_pairs(J), w
            boxed += 1
    assert len(cases) >= 600 and boxed >= 300, (len(cases), boxed)
    assert {len(w) for w in cases} == set(range(1, 7))


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


def test_poly_std_pairs_keep_contains_and_sorted_output():
    """``PolyStdPair`` keeps its fields and ``contains``, which agrees with
    the definition (``b' + N^V'`` lies in ``b + N^V`` iff ``b'`` and each
    ``b' + e_i``, i in V', do), and ``poly_standard_pairs`` returns its
    pairs sorted by ``(base, free)`` on seeded ideals."""

    def inside(point, pair):
        return all(x == b or i in pair.free and x >= b for i, (x, b) in enumerate(zip(point, pair.base)))

    def contained(small, big):
        points = [small.base] + [tuple(x + (i == j) for i, x in enumerate(small.base)) for j in small.free]
        return all(inside(p, big) for p in points)

    p = PolyStdPair((1, 0, 0), (1, 2))
    assert (p.base, p.free) == ((1, 0, 0), (1, 2)) and p == PolyStdPair(base=(1, 0, 0), free=(1, 2))
    rng = random.Random(4805)
    compared = held = 0
    for _ in range(150):
        m = rng.randint(1, 4)
        J = PolyMonomialIdeal(m, [tuple(rng.randint(0, 3) for _ in range(m)) for _ in range(rng.randint(1, 4))])
        if J.is_unit():
            continue
        out = poly_standard_pairs(J)
        assert list(out) == sorted(out, key=lambda q: (q.base, q.free)), out
        assert all(type(q) is PolyStdPair for q in out)
        frees = [tuple(i for i in range(m) if rng.random() < 0.5) for _ in range(6)]
        drawn = [PolyStdPair(tuple(0 if i in V else rng.randint(0, 2) for i in range(m)), V) for V in frees]
        for a, b in product(list(out) + drawn, repeat=2):
            assert a.contains(b) == contained(b, a), (a, b)
            compared += 1
            held += a != b and a.contains(b)
    assert compared >= 2000 and held >= 100, (compared, held)


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


def _difference_monoids(count, seed):
    """Seeded nonnegative column lists with 1-3 rows: some in the plane
    z = x + y or on the ray of (1, 2), so their cones are not full
    dimensional, and some with a zero column, a column given twice or a
    column that is the sum of two others added."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d, n = rng.randint(1, 3), rng.randint(1, 4)
        cols = [tuple(rng.randint(0, 3) for _ in range(d)) for _ in range(n)]
        if d == 3 and len(out) % 5 == 0:
            cols = [(x, y, x + y) for x, y, _ in cols]
        elif d == 2 and len(out) % 5 == 1:
            cols = [(k, 2 * k) for k, _ in cols]
        if not any(map(any, cols)):
            continue
        if rng.random() < 0.3:
            cols.insert(rng.randint(0, len(cols)), (0,) * d)
        if rng.random() < 0.3:
            cols.insert(rng.randint(0, len(cols)), rng.choice(cols))
        if rng.random() < 0.3:
            cols.append(tuple(map(sum, zip(rng.choice(cols), rng.choice(cols)))))
        out.append(cols)
    return out


# Faces whose kept columns are linearly dependent: the ray of <2, 3> in the
# plane, the facet z = 0 of the first cone, the ray of <2, 3> in space, T3.
_DEPENDENT_FACE_MONOIDS = [
    [(2, 0), (3, 0), (0, 1), (1, 1)],
    [(2, 0, 0), (0, 2, 0), (1, 1, 0), (0, 0, 1)],
    [(2, 0, 0), (3, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
    [(1, 0, 2), (3, 3, 0), (0, 4, 4), (0, 3, 4), (2, 4, 2)],
]


def test_difference_equals_reference_over_nested_faces():
    """Seeded ``_difference`` calls ``(b, G) \\ (b', G')`` over faces
    G <= G' of monoids with zero, duplicate and redundant columns, some of
    less than full dimension, and of monoids with faces below the top
    whose kept columns are linearly dependent, against exhaustive search
    (``oracles.difference_points``): the returned pairs lie over faces
    inside G, and their points in a box are exactly the difference's.
    The generators of the cut ideal ``J = {w : b - b' + A_K w in NA}``
    that ``covers._cut`` reads from G's quotient are the minimal members
    of J found by search (``oracles.cut_generators``) whenever they lie in
    its box."""
    counts = dict.fromkeys(("pairs", "G' below top", "outside span G'", "empty", "independent", "dependent", "cuts"), 0)
    counts["dependent below top"] = 0
    kinds = dict.fromkeys(("zero", "duplicate", "redundant", "not full"), 0)
    rng = random.Random(5312)
    for cols in _DEPENDENT_FACE_MONOIDS + _difference_monoids(70, 5311):
        d = len(cols[0])
        Q = AffineMonoid(IntMatrix.from_cols(cols, rows=d))
        kinds["zero"] += (0,) * d in cols
        kinds["duplicate"] += len(set(cols)) < len(cols)
        kinds["redundant"] += len(Q.kept_of(Q.top)) < len({c for c in cols if any(c)})
        kinds["not full"] += rational_rank(Q.gens) < d
        faces = [f for f in Q.faces if f != BOTTOM]
        bases = sorted(monoid_box(cols, 1))
        box = 2
        caps = [max(b[i] for b in bases) + box * sum(c[i] for c in cols) for i in range(d)]
        members = reachable_set(cols, caps)
        if cols in _DEPENDENT_FACE_MONOIDS:  # each such face against each face above it, four times
            below = [G for G in faces if G != Q.top and Q.lattice_of(G).reduction[2] < len(Q.kept_of(G))]
            draws = [(G, Gp) for G in below for Gp in faces if set(G) <= set(Gp) for _ in range(4)]
        else:
            draws = []
            for Gp in (rng.choice(faces) for _ in range(6)):  # G = G' half the time
                draws.append((Gp if rng.random() < 0.5 else rng.choice([f for f in faces if set(f) <= set(Gp)]), Gp))
        for G, Gp in draws:
            b, bp = rng.choice(bases), rng.choice(bases)
            out = _difference(Q, b, G, bp, Gp)
            assert all(F in faces and set(F) <= set(G) for _, F in out)
            near = [x + 3 for x in map(max, b, bp)]
            covered = set().union(*(translate_points(cols, a, F, near) for a, F in out))
            assert covered == difference_points(cols, b, G, bp, Gp, near), (cols, b, G, bp, Gp)
            counts["pairs"] += 1
            counts["G' below top"] += Gp != Q.top
            y = tuple(x - z for x, z in zip(b, bp))
            counts["outside span G'"] += any(Q.support_of(Gp).mul(y))
            counts["empty"] += not out
            kept = Q.kept_of(G)
            independent = Q.lattice_of(G).reduction[2] == len(kept)
            counts["independent" if independent else "dependent"] += 1
            counts["dependent below top"] += not independent and G != Q.top
            found = minimal_elements(_cut(Q, y, G, kept))
            if all(x <= box for w in found for x in w):
                assert found == cut_generators(cols, kept, y, box, members), (cols, y, G)
                counts["cuts"] += 1
    assert counts["pairs"] == 476 and min(counts.values()) >= 20, counts
    assert min(kinds.values()) >= 10, kinds


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
    # the unpruned fold refines every later fold's pieces; refining the
    # two-round family's standard covers again adds rounds of its own
    for I in ideals:
        _reference_standard_cover(I)
    for I in _two_round_instances():
        cover_to_standard(standard_cover(I), I)
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


def _pair_set_contains(monoid: AffineMonoid, big, small) -> bool:
    """Set containment a + NF <= b + NG for ``small = (a, F)`` and
    ``big = (b, G)``, by one full solve over the caller's columns of G."""
    (b, G), (a, F) = big, small
    return set(F) <= set(G) and bool(monoid.meet(b, G, a, ()))


def _strict_prune_nested(monoid: AffineMonoid, pairs) -> set:
    """``_prune_nested`` with the reverse containment test: drop a pair only
    when it is strictly contained in another."""
    pairs = set(pairs)
    return {
        p for p in pairs
        if not any(q != p and _pair_set_contains(monoid, q, p) and not _pair_set_contains(monoid, p, q) for q in pairs)
    }


def _pruned_inputs(monkeypatch, ideals) -> list:
    """The ``(monoid, pairs)`` that the pipeline prunes while covering
    ``ideals``: each fold's cut."""
    import stdpairs.covers as covers

    inputs = []
    original = covers._prune_nested

    def recording(monoid, pairs):
        inputs.append((monoid, list(pairs)))
        return original(monoid, pairs)

    monkeypatch.setattr(covers, "_prune_nested", recording)
    for I in ideals:
        standard_cover(I)
    monkeypatch.undo()
    return inputs


def test_prune_nested_equals_reference_with_strict_containment(monkeypatch):
    """Distinct pairs never contain each other both ways, so dropping every
    contained pair prunes the covers of the pipeline exactly as dropping the
    strictly contained ones does."""
    ideals = [I for i, I in enumerate(random_instances()) if i not in (10, 19)]
    for d, cols, gens in seeded_instances(200, 20261022):
        Q = AffineMonoid(IntMatrix.from_cols(cols, rows=d))
        ideals.append(MonomialIdeal(Q, IntMatrix.from_cols(gens, rows=d)))
    inputs = _pruned_inputs(monkeypatch, ideals)
    dropped = 0
    for monoid, pairs in inputs:
        out = set(_prune_nested(monoid, pairs))
        assert out == _strict_prune_nested(monoid, pairs), pairs
        dropped += out != set(pairs)
    assert len(inputs) >= 30 and dropped >= 15


def _reference_prune_nested(monoid: AffineMonoid, pairs) -> set:
    """Drop the pairs contained in another one.  Distinct pairs never contain
    each other both ways: that forces F = G and ``a - b`` in NF and -NF,
    which meet only in 0 in a pointed monoid."""
    pairs = set(pairs)
    return {p for p in pairs if not any(q != p and _pair_set_contains(monoid, q, p) for q in pairs)}


def test_prune_nested_equals_all_pairs_reference(monkeypatch):
    """Reading lattice coordinates and asking only the kept pairs, in the
    (-|F|, w . base) order, prunes every cover the pipeline prunes on the
    seeded instances (zero and duplicate columns included) and the
    acceptance instances as asking all pairs does."""
    ideals = list(random_instances())
    for d, cols, gens in seeded_instances(240, 17):
        Q = AffineMonoid(IntMatrix.from_cols(cols, rows=d))
        ideals.append(MonomialIdeal(Q, IntMatrix.from_cols(gens, rows=d)))
    inputs = _pruned_inputs(monkeypatch, ideals)
    dropped = 0
    for monoid, pairs in inputs:
        out = set(_prune_nested(monoid, pairs))
        assert out == _reference_prune_nested(monoid, pairs), pairs
        dropped += out != set(pairs)
    assert len(inputs) >= 30 and dropped >= 10


def test_prune_nested_asks_only_the_kept_pairs(monkeypatch):
    """Each prune reads lattice coordinates: it reduces a base once per face
    of the input that holds the pair's face, and it solves only against a
    kept pair of the same residue, over a face whose kept columns are
    linearly dependent, that the coordinates do not already show to hold
    it: at most N * (kept) solves for N pairs.  No prune of acceptance
    instance 17 solves; T1, over a non-simplicial cone, needs a solve."""
    import stdpairs.covers as covers

    T1 = MonomialIdeal(
        AffineMonoid(IntMatrix.from_cols([(2, 4, 4), (4, 0, 1), (4, 2, 2), (0, 0, 3), (3, 0, 2)], rows=3)),
        IntMatrix.from_cols([(18, 6, 10)], rows=3),
    )
    inputs = {"17": _pruned_inputs(monkeypatch, [random_instances()[17]]), "T1": _pruned_inputs(monkeypatch, [T1])}
    reductions, solves = [], []
    reduce, meets = covers._lattice_reduce, AffineMonoid.meets
    monkeypatch.setattr(covers, "_lattice_reduce", lambda data, b: reductions.append(b) or reduce(data, b))
    monkeypatch.setattr(AffineMonoid, "meets", lambda self, *args: solves.append(args) or meets(self, *args))
    asked = dict.fromkeys(inputs, 0)
    for name, prunes in inputs.items():
        for monoid, pairs in prunes:
            del reductions[:], solves[:]
            kept = len(_prune_nested(monoid, pairs))
            assert len(reductions) <= len(pairs) * len({face for _, face in pairs})
            assert len(solves) <= len(pairs) * kept, (len(solves), len(pairs), kept)
            asked[name] += len(solves)
    assert asked == {"17": 0, "T1": asked["T1"]} and asked["T1"] > 0


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
    """A cap below 1 is a ValueError, and no refinement work starts."""
    import stdpairs.covers as covers

    I = MonomialIdeal(interior_monoid, IntMatrix.from_cols([(0, 2)]))
    bad = Cover.from_pairs([ProperPair((0, 0), (), I)])

    def no_work(*args, **kwargs):
        raise AssertionError("cover work started")

    for name in ("pair_difference", "_difference", "_prune_nested", "czero_to_cone"):
        monkeypatch.setattr(covers, name, no_work)
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


def test_standard_cover_empty_ideal_is_the_top_pair(paper_monoid):
    """With no generators every monomial is standard: the cover is {(0, top)}."""
    E = MonomialIdeal(paper_monoid, IntMatrix.zero(2, 0))
    cover = standard_cover(E)
    assert cover_shape(cover) == {paper_monoid.top: [(0, 0)]}
    assert all(p.ideal is E for p in cover.pairs())


def test_cover_to_standard_anchors_its_output_to_the_ideal():
    """Pairs anchored to another ideal come back anchored to I, whether the
    first round already reaches the fixpoint (I's own standard cover) or
    not (the principal cover of the first generator cut by the second).
    The generator fold anchors its pruned pieces to I itself."""
    Q = AffineMonoid(IntMatrix.from_rows([[1, 1, 1], [0, 1, 2]]))
    I = MonomialIdeal(Q, IntMatrix.from_cols([(2, 1), (3, 5)]))
    J = MonomialIdeal(Q, IntMatrix.from_cols([(2, 1)]))
    assert all(p.ideal is I for p in standard_cover(I).pairs())
    settled = Cover.from_pairs(ProperPair(p.base, p.face, J, skip_check=True) for p in standard_cover(I).pairs())
    cutter = ProperPair((3, 5), Q.top, J, skip_check=True)
    cut = Cover.from_pairs(q for p in principal_cover(J).pairs() for q in pair_difference(p, cutter).pairs())
    assert cut != standard_cover(I)
    for cover in (settled, cut):
        refined = cover_to_standard(cover, I)
        assert refined == standard_cover(I)
        assert all(p.ideal is I for p in refined.pairs())


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
    # (113 pairs before the principal cover was pruned: 6 lay inside others)
    Q = AffineMonoid(IntMatrix.from_rows([[1, 0, 2, 4], [4, 3, 0, 3], [4, 1, 1, 4]]))
    I = MonomialIdeal(Q, IntMatrix.from_cols([(10, 17, 17)]))
    cover = standard_cover(I)
    assert len(cover.pairs()) == 107
    cols = Q.gens.columns()
    assert not nested_pairs(cols, [(p.base, p.face) for p in cover.pairs()])
    box = monoid_box(cols, 3)
    caps = [max(b[r] for b in box) for r in range(3)]
    members = ideal_members(I.gens.columns(), cols, caps)
    for p in cover.pairs():
        assert is_proper(p)
    for b in box:
        if b in members:
            continue
        assert any(not p.is_element(b).is_empty() for p in cover.pairs())


_SQUARE_CONE = [(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)]
_VERONESE = [(1, 0), (1, 1), (1, 2)]
_PRINCIPAL_LADDER = [(_SQUARE_CONE, b) for b in [(4, 2, 5), (1, 3, 6), (4, 2, 6), (3, 1, 7), (5, 3, 7), (2, 2, 8)]]
_PRINCIPAL_LADDER += [(_VERONESE, b) for b in [(9, 11), (10, 13), (12, 15), (13, 9)]]


def test_every_cover_is_maximal():
    """No pair of a standard cover lies inside another (the box oracle
    ``nested_pairs``), on the seeded instances, the acceptance instances and
    the principal ladder over the square and Veronese cones."""
    ideals = list(random_instances())
    for d, cols, gens in seeded_instances(240, 17):
        ideals.append(MonomialIdeal(AffineMonoid(IntMatrix.from_cols(cols, rows=d)), IntMatrix.from_cols(gens, rows=d)))
    for cols, b in _PRINCIPAL_LADDER:
        ideals.append(MonomialIdeal(AffineMonoid(IntMatrix.from_cols(cols)), IntMatrix.from_cols([b])))
    for I in ideals:
        pairs = [(p.base, p.face) for p in standard_cover(I).pairs()]
        assert not nested_pairs(I.ambient.gens.columns(), pairs), I


def test_principal_difference_holds_nested_pairs_the_prune_drops():
    """The oracle sees nesting: over the Veronese cone the pair difference
    of x^(9,11) has pairs inside others, as (1,0) + (1,2) = 2 (1,1), and
    the principal cover is the difference less exactly those."""
    import stdpairs.covers as covers

    I = MonomialIdeal(AffineMonoid(IntMatrix.from_cols(_VERONESE)), IntMatrix.from_cols([(9, 11)]))
    top = I.ambient.top
    raw = covers._difference(I.ambient, (0, 0), top, (9, 11), top)
    nested = {small for small, _ in nested_pairs(_VERONESE, raw)}
    assert len(nested) == len(raw) - 18 > 0
    assert {(p.base, p.face) for p in principal_cover(I).pairs()} == set(raw) - nested


# ---------------------------------------------------------------------------
# the generator fold against the unpruned one

def _reference_standard_cover(I: MonomialIdeal, loop_cap: int = 1000) -> Cover:
    """``standard_cover`` before every fold pruned its pieces: the first cut,
    pruned, is the cover, and each later cut goes to ``cover_to_standard``
    unpruned, over the ideal of the generators cut so far.  Not memoized."""
    monoid = I.ambient
    gens = I.gens.columns()
    cover = _anchored([((0,) * monoid.dim, monoid.top)], I)
    for i, g in enumerate(gens, 1):
        cutter = ProperPair(g, monoid.top, I, skip_check=True)
        pieces = [q for p in cover.pairs() for q in pair_difference(p, cutter).pairs()]
        if i == 1:
            cover = _anchored(_prune_nested(monoid, [(q.base, q.face) for q in pieces]), I)
        else:
            prefix = IntMatrix.from_cols(gens[:i], rows=monoid.dim)
            sub = I if i == len(gens) else MonomialIdeal(monoid, prefix, _trusted=True)
            cover = cover_to_standard(Cover.from_pairs(pieces), sub, loop_cap=loop_cap)
    return cover


# The draws of ``_two_round_instances`` kept: those among the first 400
# whose standard cover takes ``cover_to_standard`` two rounds and whose
# ``_reference_standard_cover`` took under 0.2 s (31 of the 400 need two
# rounds and none needs more; 6 of the 31 took longer).
_TWO_ROUND_DRAWS = (
    6, 32, 36, 94, 114, 119, 142, 202, 205, 210, 217, 224, 225,
    242, 273, 284, 306, 309, 328, 338, 342, 345, 347, 353, 360,
)


def _two_round_instances() -> list:
    """Ideals over 3-row, 4-column monoids with entries 0..4, each with 2-4
    generators drawn from the monoid's box of height 2 or 3 by
    ``random.Random(1)``: the draws listed in ``_TWO_ROUND_DRAWS``."""
    rng = random.Random(1)
    out = []
    for k in range(max(_TWO_ROUND_DRAWS) + 1):
        cols = [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(4)]
        box = sorted(b for b in monoid_box(cols, rng.randint(2, 3)) if any(b))
        gens = [rng.choice(box) for _ in range(rng.randint(2, 4))]
        if k in _TWO_ROUND_DRAWS:
            Q = AffineMonoid(IntMatrix.from_cols(cols, rows=3))
            out.append(MonomialIdeal(Q, IntMatrix.from_cols(gens, rows=3)))
    return out


def _many_generator_instances() -> list:
    """The first 40 ideals with 4 or more minimal generators over 2-3 row,
    3-5 column monoids with entries 0..3, drawn by ``random.Random(11)``:
    each ideal samples 4-8 points of the monoid's box of height 3 whose
    coordinates sum to t or t + 1, for t in 6..10."""
    rng = random.Random(11)
    out = []
    while len(out) < 40:
        d, n = rng.randint(2, 3), rng.randint(3, 5)
        cols = [tuple(rng.randint(0, 3) for _ in range(d)) for _ in range(n)]
        t = rng.randint(6, 10)
        layer = sorted(b for b in monoid_box(cols, 3) if t <= sum(b) <= t + 1)
        gens = rng.sample(layer, min(len(layer), rng.randint(4, 8)))
        I = MonomialIdeal(AffineMonoid(IntMatrix.from_cols(cols, rows=d)), IntMatrix.from_cols(gens, rows=d))
        if I.gens.cols >= 4:
            out.append(I)
    return out


def _fold_check_ideals() -> list:
    """The acceptance and seeded instances, T1, T3 and the two-round family."""
    ideals = list(random_instances())
    for d, cols, gens in seeded_instances(240, 17):
        ideals.append(MonomialIdeal(AffineMonoid(IntMatrix.from_cols(cols, rows=d)), IntMatrix.from_cols(gens, rows=d)))
    for cols, gens in [
        ([(2, 4, 4), (4, 0, 1), (4, 2, 2), (0, 0, 3), (3, 0, 2)], [(18, 6, 10)]),
        ([(1, 0, 2), (3, 3, 0), (0, 4, 4), (0, 3, 4), (2, 4, 2)], [(6, 15, 12), (2, 7, 6), (7, 17, 14)]),
    ]:
        ideals.append(MonomialIdeal(AffineMonoid(IntMatrix.from_cols(cols, rows=3)), IntMatrix.from_cols(gens, rows=3)))
    return ideals + _two_round_instances()


def test_two_round_family_needs_two_rounds():
    """Refining the standard cover of every ideal of the family overflows a
    loop cap of 1 and fits in 2, so it keeps the fixpoint loop of
    ``cover_to_standard`` at work."""
    for I in _two_round_instances():
        with pytest.raises(LoopCapExceeded):
            cover_to_standard(standard_cover(I), I, loop_cap=1)
        assert cover_to_standard(standard_cover(I), I, loop_cap=2) == standard_cover(I)


def test_standard_cover_equals_unpruned_fold_reference():
    """Cutting and pruning every generator and refining once changes no
    cover and no decomposition against refining every fold: each cut
    removes exactly its generator's translate and the prune drops only
    pairs inside kept ones, so the one refinement gets a cover of std(I),
    and the standard cover is unique."""
    for I in _fold_check_ideals() + _many_generator_instances():
        J = MonomialIdeal(I.ambient, I.gens)  # a fresh copy: nothing memoized
        J._cache["standard_cover"] = _reference_standard_cover(J)
        assert repr(standard_cover(I)) == repr(J.standard_cover()), I
        assert repr(irreducible_decomposition(I)) == repr(irreducible_decomposition(J)), I


def test_cover_cuts_pieces_below_the_top_without_a_pair_system(monkeypatch):
    """Acceptance instance 17 (three kept columns in the plane) has
    linearly independent kept columns on every face but the top, so its
    cover cuts the pieces over those faces from their quotients alone: the
    only ``_system`` with a non-empty right side that the cover builds is
    the top face's ``[A_K | -A_K]``, which the first generator's cut of
    ``(0, top)`` solves."""
    I = random_instances()[17]
    Q = I.ambient
    assert Q.gens.columns() == [(3, 2), (0, 1), (1, 4)] and I.gens.cols == 2
    top = Q.kept_of(Q.top)
    assert rational_rank(Q.gens) < len(top)
    assert all(Q.lattice_of(F).reduction[2] == len(Q.kept_of(F)) for F in Q.faces if F not in (BOTTOM, Q.top))
    built = []
    original = AffineMonoid._system

    def recording(self, left, right):
        built.append((tuple(left), tuple(right)))
        return original(self, left, right)

    monkeypatch.setattr(AffineMonoid, "_system", recording)
    cover = standard_cover(I)
    assert {key for key in built if key[1]} == {(top, top)}
    assert cover.entries and all(face != Q.top for face, _ in cover.entries)


def test_standard_cover_never_refines_and_builds_no_prefix_ideal(monkeypatch):
    """The cut and pruned pieces are the cover: no refinement step
    (``cover_to_standard``, ``czero_to_cone``, ``minimal_holes``,
    ``cone_to_ctwo``) runs, for an ideal with any number of generators, and
    no ``MonomialIdeal`` is built while the cover is."""
    import stdpairs.covers as covers

    built = []
    init = MonomialIdeal.__init__

    def refining(*args, **kwargs):
        raise AssertionError("refinement step called")

    def building(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    ideals = _many_generator_instances()[:10] + _two_round_instances()
    for cols, gens in [(_VERONESE, []), (_VERONESE, [(9, 11)]), (_SQUARE_CONE, [(4, 2, 5)])]:
        ideals.append(MonomialIdeal(AffineMonoid(IntMatrix.from_cols(cols)), IntMatrix.from_cols(gens, rows=len(cols[0]))))
    assert {I.gens.cols for I in ideals} >= {0, 1, 2, 3, 4}
    for name in ("cover_to_standard", "czero_to_cone", "minimal_holes", "cone_to_ctwo"):
        monkeypatch.setattr(covers, name, refining)
    monkeypatch.setattr(MonomialIdeal, "__init__", building)
    for I in ideals:
        standard_cover(I)
        assert built == [], I


def test_standard_cover_has_no_nested_pair():
    """No pair of the fold's cover lies inside another (``nested_pairs``)."""
    ideals = _fold_check_ideals()
    for I in ideals:
        pairs = [(p.base, p.face) for p in standard_cover(I).pairs()]
        assert not nested_pairs(I.ambient.gens.columns(), pairs), I
    assert len(ideals) >= 50


def _is_standard_pair(p: ProperPair) -> bool:
    """Whether ``p`` is proper with no proper one-step enlargement: (a, G)
    for a face G above F, or (a - c, F) for a kept column c of F with
    a - c in the monoid.  That decides maximality, as properness is closed
    under shrinking a pair: if (a, F) lies strictly inside a proper (b, G),
    then either G is above F and (a, G) lies in (b, G), or G = F and
    a - b is a nonzero sum of kept columns of F, one of them c, and
    (a - c, F) lies in (b, F)."""
    Q, I, a, F = p.ideal.ambient, p.ideal, p.base, p.face
    if not (Q.contains(a) and is_proper(ProperPair(a, F, I, skip_check=True))):
        return False
    for G in Q.faces:
        if G != BOTTOM and set(F) < set(G) and is_proper(ProperPair(a, G, I, skip_check=True)):
            return False
    cols = Q.gens.columns()
    for c in Q.kept_of(F):
        below = tuple(x - y for x, y in zip(a, cols[c]))
        if Q.contains(below) and is_proper(ProperPair(below, F, I, skip_check=True)):
            return False
    return True


def test_standard_cover_pairs_are_maximal_proper_pairs():
    """Every pair of ``standard_cover`` is a standard pair by the
    definition, checked pair by pair with no call to ``cover_to_standard``."""
    checked = 0
    for I in _fold_check_ideals() + _many_generator_instances():
        for p in standard_cover(I).pairs():
            assert _is_standard_pair(p), (I, p.base, p.face)
            checked += 1
    assert checked > 1000
