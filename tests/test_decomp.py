import pytest

from stdpairs.decomp import (
    OverlapClass,
    associated_primes,
    irreducible_component,
    irreducible_decomposition,
    maximal_overlap_classes,
    multiplicity,
    overlap_classes,
)
from stdpairs.diophantine import (
    IntMatrix,
    _matrix_data,
    _particular_solution,
    _saturated_span_basis,
    min_nonneg_solutions,
    minimal_elements,
    vec_add,
    vec_dot,
    vec_sub,
)
from stdpairs.ideal import MonomialIdeal
from stdpairs.monoid import AffineMonoid
from stdpairs.pairs import divides, intersect_pairs, is_divisor
from stdpairs.polyhedral import face_sort_key, facet_normals

from oracles import seeded_instances
from test_acceptance import random_instances


@pytest.fixture
def poly3_ideal():
    Q = AffineMonoid(IntMatrix.identity(3))
    return MonomialIdeal(Q, IntMatrix.from_rows([[1, 1, 0, 0], [3, 2, 3, 2], [1, 2, 2, 3]]))


@pytest.fixture
def golden_ideal():
    Q = AffineMonoid(IntMatrix.from_rows([[1, 1, 2, 3], [1, 2, 0, 0]]))
    return MonomialIdeal(Q, IntMatrix.from_rows([[3, 5, 6], [2, 1, 1]]))


def class_shape(classes):
    return {
        face: [[p.base for p in c.pairs] for c in cs] for face, cs in classes.items()
    }


def intersect_all(components):
    meet = components[0]
    for W in components[1:]:
        meet = meet.intersect(W)
    return meet


def test_overlap_classes_polynomial_all_singletons(poly3_ideal):
    classes = overlap_classes(poly3_ideal)
    total = [c for cs in classes.values() for c in cs]
    assert len(total) == 6
    assert all(len(c.pairs) == 1 for c in total)


def test_overlap_classes_partition_the_cover(golden_ideal):
    classes = overlap_classes(golden_ideal)
    cover = golden_ideal.standard_cover().as_dict()
    for face, cs in classes.items():
        listed = sorted(p.base for c in cs for p in c.pairs)
        assert listed == sorted(p.base for p in cover[face])


def test_single_pair_ideal_single_class():
    Q = AffineMonoid(IntMatrix.identity(2))
    P = Q.prime_ideal((1,))
    classes = overlap_classes(P)
    assert class_shape(classes) == {(1,): [[(0, 0)]]}


def test_golden_maximal_classes(golden_ideal):
    got = class_shape(maximal_overlap_classes(golden_ideal))
    assert got == {(): [[(5, 3)]], (1,): [[(3, 3)]], (2, 3): [[(0, 0)]]}


def test_polynomial_x2_xy_both_classes_maximal():
    Q = AffineMonoid(IntMatrix.identity(2))
    I = MonomialIdeal(Q, IntMatrix.from_cols([(2, 0), (1, 1)]))
    got = class_shape(maximal_overlap_classes(I))
    assert got == {(): [[(1, 0)]], (1,): [[(0, 0)]]}


def test_associated_primes_polynomial_example(poly3_ideal):
    assoc = associated_primes(poly3_ideal)
    assert sorted(assoc.keys()) == [(), (0,), (0, 1), (0, 2), (1,)]
    for face, prime in assoc.items():
        assert prime.is_prime()
        assert prime == poly3_ideal.ambient.prime_ideal(face)


def test_associated_primes_of_prime():
    Q = AffineMonoid(IntMatrix.from_rows([[1, 2], [0, 2]]))
    P = Q.prime_ideal((1,))
    assert associated_primes(P) == {(1,): P}


def test_associated_primes_golden(golden_ideal):
    assoc = associated_primes(golden_ideal)
    components = irreducible_decomposition(golden_ideal)
    assert sorted(assoc.keys()) == [(), (1,), (2, 3)]
    radicals = {W.radical() for W in components}
    assert radicals == set(assoc.values())


def test_multiplicity_examples(poly3_ideal):
    assert multiplicity(poly3_ideal, (0, 2)) == 2
    assert multiplicity(poly3_ideal, ()) == 1
    prime = associated_primes(poly3_ideal)[(0, 2)]
    assert multiplicity(poly3_ideal, prime) == 2
    with pytest.raises(ValueError):
        multiplicity(poly3_ideal, (2,))


def test_multiplicity_of_prime_is_one():
    Q = AffineMonoid(IntMatrix.from_rows([[1, 2], [0, 2]]))
    P = Q.prime_ideal((1,))
    assert multiplicity(P, (1,)) == 1


def test_component_of_prime_is_itself():
    Q = AffineMonoid(IntMatrix.from_rows([[1, 2], [0, 2]]))
    P = Q.prime_ideal((1,))
    classes = maximal_overlap_classes(P)
    [(face, [cls])] = classes.items()
    assert irreducible_component(P, face, cls) == P


def test_component_polynomial_corner():
    Q = AffineMonoid(IntMatrix.identity(2))
    I = MonomialIdeal(Q, IntMatrix.from_cols([(2, 0), (1, 1)]))
    classes = maximal_overlap_classes(I)
    [cls] = classes[(1,)]
    W = irreducible_component(I, (1,), cls)
    assert W.gens.columns() == [(1, 0)]


def test_component_rejects_non_maximal_class(golden_ideal):
    fake = OverlapClass((), (golden_ideal.standard_cover().as_dict()[()][0],))
    with pytest.raises(ValueError):
        irreducible_component(golden_ideal, (), fake)


def test_golden_decomposition(golden_ideal):
    components = irreducible_decomposition(golden_ideal)
    got = sorted(W.gens.columns() for W in components)
    assert got == sorted(
        [
            sorted([(3, 2), (4, 0), (2, 4), (3, 4), (5, 0)]),
            sorted([(2, 0), (3, 0)]),
            sorted([(1, 1), (1, 2)]),
        ]
    )
    assert intersect_all(components) == golden_ideal


def test_golden_decomposition_irredundant(golden_ideal):
    components = irreducible_decomposition(golden_ideal)
    for k in range(len(components)):
        rest = components[:k] + components[k + 1:]
        assert intersect_all(rest) != golden_ideal


def test_decomposition_components_are_irreducible(golden_ideal):
    for W in irreducible_decomposition(golden_ideal):
        assert W.is_irreducible()
        assert len(W.irreducible_decomposition()) == 1


def test_decomposition_contains_ideal(golden_ideal):
    for W in irreducible_decomposition(golden_ideal):
        for g in golden_ideal.gens.columns():
            assert W.is_element(g) is not None


def test_decomposition_of_irreducible_is_itself():
    Q = AffineMonoid(IntMatrix.from_rows([[1, 2], [0, 2]]))
    I = MonomialIdeal(Q, IntMatrix.from_cols([(4, 4)]))
    assert irreducible_decomposition(I) == [I]
    assert I.is_irreducible()


def test_decomposition_x2_xy():
    Q = AffineMonoid(IntMatrix.identity(2))
    I = MonomialIdeal(Q, IntMatrix.from_cols([(2, 0), (1, 1)]))
    got = sorted(W.gens.columns() for W in irreducible_decomposition(I))
    assert got == [[(0, 1), (2, 0)], [(1, 0)]]
    assert intersect_all(irreducible_decomposition(I)) == I


def test_empty_ideal_decomposition():
    Q = AffineMonoid(IntMatrix.from_rows([[1, 2], [0, 2]]))
    E = MonomialIdeal(Q, IntMatrix.zero(2, 0))
    assert irreducible_decomposition(E) == [E]
    assert E.is_irreducible()
    assert E.is_primary()
    assert associated_primes(E) == {(0, 1): E}


def test_empty_ideal_goes_through_the_general_pipeline(tmp_path):
    """The ideal with no generators has one standard pair, (0, top), and
    every answer read off the cover follows from it; its cached results
    survive an archive round trip that is verified."""
    from stdpairs.archive import load, save, verify

    Q = AffineMonoid(IntMatrix.from_rows([[1, 1, 2], [0, 2, 2]]))
    E = MonomialIdeal(Q, IntMatrix.zero(2, 0))
    (pair,) = E.standard_cover().pairs()
    assert (pair.base, pair.face, pair.ideal) == ((0, 0), Q.top, E)
    assert overlap_classes(E) == {Q.top: [OverlapClass(Q.top, (pair,))]}
    assert associated_primes(E) == {Q.top: E}
    assert multiplicity(E, Q.top) == multiplicity(E, E) == 1
    assert irreducible_decomposition(E) == [E]
    assert E.radical() == E
    I = MonomialIdeal(Q, IntMatrix.from_cols([(4, 4)]))
    assert I.intersect(E) == E.intersect(I) == E.intersect(E) == E
    path = str(tmp_path / "empty.txt")
    save(E, path)
    loaded = load(path)
    assert loaded._cache["standard_cover"] == E.standard_cover()
    verify(loaded)
    assert irreducible_decomposition(loaded) == [E]


def test_component_walk_does_not_recurse():
    """The component of (x^1100) over N, whose generator lies 1,100 steps
    from 0, is built under a recursion limit of 1,000 frames."""
    import sys

    Q = AffineMonoid(IntMatrix.from_rows([[1]]))
    I = MonomialIdeal(Q, IntMatrix.from_rows([[1100]]))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert irreducible_decomposition(I) == [I]
    finally:
        sys.setrecursionlimit(limit)


def test_colon_witness_for_associated_faces(golden_ideal):
    """Each associated face admits a monomial whose colon ideal is the prime.

    Witness candidates are the standard-pair bases over the face pushed a
    bounded distance along the face, which is where such monomials live.
    """
    from itertools import product

    from stdpairs.pairs import ProperPair

    I = golden_ideal
    Q = I.ambient
    cols = Q.gens.columns()
    cover = I.standard_cover().as_dict()
    for face in associated_primes(I):
        face_cols = [cols[j] for j in face]
        off_face = [cols[j] for j in range(len(cols)) if j not in face]
        found = False
        for p in cover[face]:
            for y in product(range(5), repeat=len(face_cols)):
                a = list(p.base)
                for c, k in zip(face_cols, y):
                    for i in range(Q.dim):
                        a[i] += c[i] * k
                a = tuple(a)
                try:
                    ProperPair(a, face, I)
                except ValueError:
                    continue
                if all(
                    I.is_element(tuple(u + v for u, v in zip(a, g))) is not None
                    for g in off_face
                ):
                    found = True
                    break
            if found:
                break
        assert found, f"no colon witness for face {face}"


# ---------------------------------------------------------------------------
# the pairwise decomposition machinery, kept as references for the lattice
# coset one (verbatim but for the memo in ``I._cache``)


def _reference_overlap_classes(I: MonomialIdeal) -> dict:
    """Union-find over one ``intersect_pairs`` solve per pair of pairs."""
    monoid = I.ambient
    result: dict = {}
    for face, ps in I.standard_cover().entries:
        parent = list(range(len(ps)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i in range(len(ps)):
            for j in range(i + 1, len(ps)):
                if intersect_pairs(monoid, ps[i].base, face, ps[j].base, face):
                    ri, rj = find(i), find(j)
                    if ri != rj:
                        parent[rj] = ri
        blocks: dict = {}
        for i in range(len(ps)):
            blocks.setdefault(find(i), []).append(ps[i])
        classes = [
            OverlapClass(face, tuple(sorted(b, key=lambda p: p.base))) for b in blocks.values()
        ]
        result[face] = sorted(classes, key=lambda c: c.pairs[0].base)
    return result


def _reference_class_below(c: OverlapClass, d: OverlapClass) -> bool:
    """Existential divisibility lift: some pair of c divides some pair of d."""
    return any(divides(p, q).rows > 0 for p in c.pairs for q in d.pairs)


def _reference_maximal_overlap_classes(I: MonomialIdeal) -> dict:
    """Classes not strictly below any other class, tested on all pairs both ways."""
    classes = [c for cs in _reference_overlap_classes(I).values() for c in cs]
    result: dict = {}
    for c in classes:
        if any(
            d is not c and _reference_class_below(c, d) and not _reference_class_below(d, c)
            for d in classes
        ):
            continue
        result.setdefault(c.face, []).append(c)
    return {
        f: sorted(result[f], key=lambda c: c.pairs[0].base)
        for f in sorted(result, key=face_sort_key)
    }


def _reference_in_closure(monoid, fsub: IntMatrix, bases, q) -> bool:
    """Whether q divides into some translate a + NF of the class, one
    Diophantine system per class base."""
    system = fsub.hstack(monoid.gens.neg())
    return any(bool(min_nonneg_solutions(system, vec_sub(q, a))) for a in bases)


def _reference_irreducible_component(I: MonomialIdeal, face, ov_class: OverlapClass) -> MonomialIdeal:
    """The component of a maximal class, with the closure tested on every base."""
    face = tuple(face)
    maximal = maximal_overlap_classes(I)
    if face not in maximal or ov_class not in maximal[face]:
        raise ValueError("not a maximal overlap class of the ideal")
    monoid = I.ambient
    fsub = monoid.submatrix(face)
    bases = ov_class.bases()
    support = monoid.support_of(face)
    normals = [phi for phi in support.data]
    budgets = []
    for phi in normals:
        top = max(vec_dot(phi, b) for b in bases)
        step = max((vec_dot(phi, c) for c in monoid.gens.columns()), default=0)
        budgets.append(top + step)
    off_face = [j for j in range(monoid.gens.cols) if j not in face]
    off_cols = [monoid.gens.col(j) for j in off_face]
    off_values = [[vec_dot(phi, c) for c in off_cols] for phi in normals]
    extendable = [
        k for k in range(len(off_cols)) if any(off_values[i][k] > 0 for i in range(len(normals)))
    ]

    closure_known: dict = {}

    def dividing(q) -> bool:
        if q not in closure_known:
            closure_known[q] = _reference_in_closure(monoid, fsub, bases, q)
        return closure_known[q]

    outside: set = set()

    def walk(idx: int, point, values):
        if not dividing(point):
            outside.add(point)
            return
        for pos in range(idx, len(extendable)):
            k = extendable[pos]
            nxt = [v + off_values[i][k] for i, v in enumerate(values)]
            if all(v <= b for v, b in zip(nxt, budgets)):
                walk(pos, vec_add(point, off_cols[k]), nxt)

    walk(0, (0,) * monoid.dim, [0] * len(normals))
    return MonomialIdeal(monoid, IntMatrix.from_cols(sorted(outside), rows=monoid.dim), _trusted=True)


_NUMERICAL_SEMIGROUPS = [
    ([(2,), (3,)], [(5,), (7,)]),
    ([(3,), (5,), (7,)], [(9,), (10,)]),
    ([(3,), (4,)], [(6,), (11,)]),
    ([(4,), (6,), (9,)], [(12,), (13,)]),
    ([(3,), (4,), (3,), (2,)], [(8,), (12,), (8,)]),
]

_NON_NORMAL_PLANE = [
    ([(2, 0), (0, 2), (1, 1)], [(5, 3)]),
    ([(2, 0), (0, 2), (1, 1)], [(3, 1), (2, 2)]),
    ([(2, 0), (0, 0), (0, 2), (1, 1), (0, 2)], [(3, 1), (2, 4)]),
    ([(3, 0), (0, 2), (1, 1)], [(4, 1), (3, 4)]),
]

# Monoids with a non-normal ray, such as N{(2,0),(3,0)} on the x-axis next
# to (1,2): pairs over that ray whose bases differ by a hole of the ray,
# like (0,2) and (1,2), lie in one overlap class and not inside each other.
_NON_NORMAL_RAY = [([(2, 0), (3, 0), (0, 1), (1, 2)], [(7, 5)])]
_NON_NORMAL_FACES = _NON_NORMAL_RAY + [
    ([(2, 0), (3, 0), (0, 1), (1, 2)], [(2, 11)]),
    ([(2, 0), (5, 0), (0, 1), (1, 3)], [(2, 11)]),
    ([(2, 0), (3, 0), (1, 1), (0, 2), (0, 3)], [(6, 5)]),
]


def _reference_inputs() -> list:
    """Ideals for the reference comparison: seeded instances (with zero and
    duplicate columns), numerical semigroups, non-normal plane monoids and
    faces, and the light acceptance instances (all but the slow 10 and 19)."""
    triples = list(seeded_instances(240, 17))
    triples += [(len(cols[0]), cols, gens) for cols, gens in _NUMERICAL_SEMIGROUPS + _NON_NORMAL_PLANE + _NON_NORMAL_FACES]
    ideals = []
    for d, cols, gens in triples:
        Q = AffineMonoid(IntMatrix.from_cols(cols, rows=d))
        ideals.append(MonomialIdeal(Q, IntMatrix.from_cols(gens, rows=d)))
    ideals += [I for i, I in enumerate(random_instances()) if i not in (10, 19)]
    return ideals


def _lattice_saturated(fsub: IntMatrix) -> bool:
    """Whether ZF is all of its span's integer points."""
    data = _matrix_data(fsub)
    return all(_particular_solution(data, v) is not None for v in _saturated_span_basis(fsub.columns(), fsub.rows))


def test_decomposition_equals_pairwise_reference():
    """Cosets of ZF, first-pair class order and first-base closure give the
    pairwise machinery's classes, maximal classes and components."""
    non_saturated = multi_pair = 0
    for I in _reference_inputs():
        classes = overlap_classes(I)
        assert classes == _reference_overlap_classes(I), I
        maximal = maximal_overlap_classes(I)
        assert maximal == _reference_maximal_overlap_classes(I), I
        for face, cs in maximal.items():
            for c in cs:
                assert irreducible_component(I, face, c) == _reference_irreducible_component(I, face, c), (I, face, c)
        non_saturated += sum(not _lattice_saturated(I.ambient.submatrix(face)) for face in classes)
        multi_pair += sum(len(c.pairs) > 1 for cs in classes.values() for c in cs)
    assert non_saturated >= 20 and multi_pair >= 20


def test_overlap_classes_make_no_solve(monkeypatch):
    """Classes are keyed by lattice residues: no Diophantine solve, also for
    classes of several pairs over a non-normal ray."""
    import stdpairs.diophantine as diophantine
    import stdpairs.monoid as monoid

    (cols, gens), = _NON_NORMAL_RAY
    I = MonomialIdeal(AffineMonoid(IntMatrix.from_cols(cols)), IntMatrix.from_cols(gens))
    I.standard_cover()
    calls = []

    def counted(original):
        def counting(M, b):
            calls.append((M, b))
            return original(M, b)

        return counting

    # every pair question solves through the monoid's meet and meets
    for name in ("min_nonneg_solutions", "has_nonneg_solution"):
        monkeypatch.setattr(monoid, name, counted(getattr(diophantine, name)))
    classes = overlap_classes(I)
    assert any(len(c.pairs) > 1 for cs in classes.values() for c in cs)
    assert calls == []


def test_maximal_classes_test_each_class_pair_once(monkeypatch):
    """At most one ``is_divisor`` per ordered pair of classes, however many
    pairs the classes hold (over a non-normal ray)."""
    import stdpairs.decomp as decomp

    (cols, gens), = _NON_NORMAL_RAY
    I = MonomialIdeal(AffineMonoid(IntMatrix.from_cols(cols)), IntMatrix.from_cols(gens))
    classes = [c for cs in overlap_classes(I).values() for c in cs]
    k = len(classes)
    assert sum(len(c.pairs) > 1 for c in classes) >= 3
    calls = []

    def counting(p, q):
        calls.append((p, q))
        return is_divisor(p, q)

    monkeypatch.setattr(decomp, "is_divisor", counting)
    maximal_overlap_classes(I)
    assert 0 < len(calls) <= k * (k - 1)


# The walls: a cold pipeline takes up to seconds on each, most of it in
# the covers of T3 and P31, and G8, an ideal with 8 minimal generators;
# L3, a principal ideal over a 2-row monoid, spends about ten seconds in
# one triangulation (scripts/walls.py times every stage).
@pytest.mark.parametrize(
    "cols, gens, cover_sha, decomposition_sha",
    [
        pytest.param(
            [(2, 4, 4), (4, 0, 1), (4, 2, 2), (0, 0, 3), (3, 0, 2)], [(18, 6, 10)],
            "bab6651896db", "c325b4130093", id="T1",
        ),
        pytest.param(
            [(1, 0, 2), (3, 3, 0), (0, 4, 4), (0, 3, 4), (2, 4, 2)], [(6, 15, 12), (2, 7, 6), (7, 17, 14)],
            "5a94ff0d9a46", "19d0342e47f9", id="T3",
        ),
        pytest.param(
            [(1, 4, 4), (1, 2, 4), (3, 4, 0), (4, 0, 3), (2, 4, 1)], [(31, 38, 35)],
            "abf840e2e808", "ea27308cf9d6", id="P31",
        ),
        pytest.param(
            [(0, 3, 0), (1, 0, 3), (3, 2, 0), (2, 2, 1), (1, 1, 2)],
            [(0, 9, 0), (1, 6, 3), (1, 7, 2), (3, 2, 4), (4, 2, 3), (4, 3, 2), (5, 4, 1), (6, 4, 0)],
            "78cf361ea4c2", "c8b7bb5c85b0", id="G8",
        ),
        pytest.param(
            [(2, 1), (2, 9), (6, 7), (7, 8), (8, 7)], [(42, 47)],
            "9373a2425c61", "96826435c5f3", id="L3",
        ),
    ],
)
def test_walls_golden(cols, gens, cover_sha, decomposition_sha):
    """The covers and decomposition lists of the walls, pinned by
    ``sha1(repr(x))[:12]``."""
    import hashlib

    rows = len(cols[0])
    I = MonomialIdeal(AffineMonoid(IntMatrix.from_cols(cols, rows=rows)), IntMatrix.from_cols(gens, rows=rows))
    digest = lambda x: hashlib.sha1(repr(x).encode()).hexdigest()[:12]
    assert digest(I.standard_cover()) == cover_sha
    assert digest(irreducible_decomposition(I)) == decomposition_sha


def test_repeated_column_does_not_grow_the_component_walk(monkeypatch):
    """A repeated off-face column adds no corner candidate: (8),(12),(8) over
    (3),(4),(3),(2) builds no more candidates than over (3),(4),(2), and the
    components agree.  Each box hands its candidates to one
    ``minimal_elements``."""
    import stdpairs.decomp as decomp

    calls = []

    def counting(vectors):
        vectors = list(vectors)
        calls.append(len(vectors))
        return minimal_elements(vectors)

    monkeypatch.setattr(decomp, "minimal_elements", counting)

    def candidates(cols):
        I = MonomialIdeal(AffineMonoid(IntMatrix.from_cols(cols, rows=1)), IntMatrix.from_cols([(8,), (12,), (8,)], rows=1))
        calls.clear()
        components = [
            sorted(irreducible_component(I, f, c).gens.columns())
            for f, cs in maximal_overlap_classes(I).items()
            for c in cs
        ]
        return sum(calls), components

    repeated, repeated_components = candidates([(3,), (4,), (3,), (2,)])
    distinct, distinct_components = candidates([(3,), (4,), (2,)])
    assert repeated_components == distinct_components
    assert 0 < repeated <= distinct


@pytest.mark.parametrize(
    "cols, gens",
    [
        pytest.param([(2, 4, 4), (4, 0, 1), (4, 2, 2), (0, 0, 3), (3, 0, 2)], [(18, 6, 10)], id="T1"),
        pytest.param(*_NON_NORMAL_FACES[3], id="non-normal-rays"),
        pytest.param(*_NON_NORMAL_PLANE[0], id="non-saturated-rays"),
    ],
)
def test_component_is_one_solve_per_class(monkeypatch, cols, gens):
    """Each maximal class makes one ``min_nonneg_solutions`` call on its face's
    ``B_F`` (none when the face has no off-face column) and no existence
    question on any ``B_F``.  On the rays of N{(2,0),(0,2),(1,1)}, whose
    lattices are not saturated, each solution is tested without a solve."""
    import stdpairs.diophantine as diophantine
    import stdpairs.monoid as monoid

    I = MonomialIdeal(AffineMonoid(IntMatrix.from_cols(cols, rows=len(cols[0]))), IntMatrix.from_cols(gens, rows=len(cols[0])))
    Q = I.ambient
    maximal = maximal_overlap_classes(I)
    records = {face: Q._record(face) for face in maximal}
    calls = []

    def counted(name):
        original = getattr(diophantine, name)

        def counting(M, b):
            calls.append((name, M))
            return original(M, b)

        return counting

    for name in ("min_nonneg_solutions", "has_nonneg_solution"):
        monkeypatch.setattr(monoid, name, counted(name))
    for face, cs in maximal.items():
        _, _, off, system, _ = records[face]
        for c in cs:
            calls.clear()
            irreducible_component(I, face, c)
            assert sum(M is system for name, M in calls if name == "min_nonneg_solutions") == (1 if off.cols else 0)
            assert not any(M is r[3] for name, M in calls if name == "has_nonneg_solution" for r in records.values())
    if cols == _NON_NORMAL_PLANE[0][0]:
        assert all(r[2].cols and r[4] is not None for r in records.values())


def test_component_minimal_asks_contains_only_on_dominated_pairs(monkeypatch):
    """On T1's components the antichain filter asks ``contains`` only on
    differences q - p of two of its points with no negative facet value,
    8 of the 364 ordered pairs."""
    import stdpairs.monoid as monoid

    cols, gens = [(2, 4, 4), (4, 0, 1), (4, 2, 2), (0, 0, 3), (3, 0, 2)], [(18, 6, 10)]
    I = MonomialIdeal(AffineMonoid(IntMatrix.from_cols(cols, rows=3)), IntMatrix.from_cols(gens, rows=3))
    maximal = maximal_overlap_classes(I)
    normals = facet_normals(I.ambient.gens)
    asked, pairs = [], []
    minimal = monoid._minimal

    def recording(points, support, contains):
        points = set(points)
        pairs.extend((q, p) for q in points for p in points if p != q)
        return minimal(points, support, lambda b: asked.append(b) or contains(b))

    monkeypatch.setattr(monoid, "_minimal", recording)
    for face, cs in maximal.items():
        for c in cs:
            irreducible_component(I, face, c)
    differences = {vec_sub(q, p) for q, p in pairs}
    assert all(b in differences and min(normals.mul(b)) >= 0 for b in asked)
    assert (len(asked), len(pairs)) == (8, 364)
