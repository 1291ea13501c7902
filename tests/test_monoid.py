import random
from itertools import combinations, product
from operator import eq

import pytest

import stdpairs.polyhedral as polyhedral
from stdpairs import diophantine
from stdpairs.diophantine import (
    IntMatrix,
    hilbert_kernel,
    min_nonneg_solutions,
    rational_rank,
    vec_add,
    vec_is_zero,
    vec_sub,
)
from stdpairs.monoid import AffineMonoid, NotPointedError
from stdpairs.polyhedral import BOTTOM, face_closure, face_lattice, facet_normals, is_pointed, support_vectors_of_face

from oracles import monoid_box, seeded_instances


def paper_monoid():
    return AffineMonoid(IntMatrix.from_rows([[1, 2], [0, 2]]))


def test_constructor_rejects_lines():
    with pytest.raises(NotPointedError):
        AffineMonoid(IntMatrix.from_rows([[1, -1]]))


def test_constructor_derives_face_lattice():
    Q = paper_monoid()
    assert Q.faces == (BOTTOM, (), (0,), (1,), (0, 1))
    assert set(Q.supports.keys()) == {(), (0,), (1,), (0, 1)}


def test_support_of_bottom_is_zero_face_support():
    for Q in (paper_monoid(), AffineMonoid(IntMatrix.zero(2, 0))):
        assert Q.support_of(BOTTOM) == Q.supports[()]
    # with a zero column the least face is (0,), not ()
    A = IntMatrix.from_rows([[0, 1, 2], [0, 1, 1]])
    Q = AffineMonoid(A)
    assert Q.faces[1] == (0,)
    assert Q.support_of(BOTTOM) == support_vectors_of_face(A, BOTTOM)


def test_closures_reject_column_indices_out_of_range():
    """No facet holds a column index outside ``range(gens.cols)``, so its
    closure would read as the top face: ``face_closure``, ``support_of``
    and the module's ``face_closure`` raise instead, naming the index, and
    ``support_of(BOTTOM)`` still gives the rows of every facet."""
    A = IntMatrix.from_rows([[1, 2], [0, 2]])
    Q = AffineMonoid(A)
    for indices, bad in [((0, 99), 99), ((5,), 5), ((7,), 7), ((0, -1), -1), ((1, -3), -3)]:
        message = rf"column index {bad} is not in range\(2\)"
        with pytest.raises(ValueError, match=message):
            Q.support_of(indices)
        with pytest.raises(ValueError, match=message):
            Q.face_closure(indices)
        with pytest.raises(ValueError, match=message):
            face_closure(A, indices)
    with pytest.raises(ValueError, match=r"column index -1 is not in range\(2\)"):
        Q.face_closure(BOTTOM)
    assert Q.support_of(BOTTOM) == support_vectors_of_face(A, BOTTOM) == facet_normals(A)
    assert Q.support_of((0,)) == support_vectors_of_face(A, (0,))
    assert Q.face_closure(()) == () and Q.face_closure((0, 1)) == (0, 1)


def test_facets_enumerated_once_per_monoid(monkeypatch):
    calls = []
    original = polyhedral._facets_of_cone

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(polyhedral, "_facets_of_cone", counting)
    diophantine._MATRIX_CACHE.clear()  # a cold construction: no earlier monoid of the matrix left its data
    Q = AffineMonoid(IntMatrix.from_rows([[0, 1, 1, 0], [0, 0, 1, 1], [1, 1, 1, 1]]))
    assert len(calls) == 1
    Q.faces
    Q.supports
    for face in Q.faces:
        Q.support_of(face)
    Q.support_of((0, 2))
    for r in range(5):
        for s in combinations(range(4), r):
            Q.face_closure(s)
    assert len(calls) == 1


def test_one_double_description_per_matrix(monkeypatch):
    """A cold monoid hands its facets to the solver's data for A, so solves
    over A (inside, outside the span and outside the cone) enumerate
    nothing more; an unseen solver matrix enumerates its cone once."""
    calls = []
    original = diophantine._facets_of_cone

    def counting(*args):
        calls.append(args)
        return original(*args)

    # polyhedral enumerates through its own name for the function
    monkeypatch.setattr(diophantine, "_facets_of_cone", counting)
    monkeypatch.setattr(polyhedral, "_facets_of_cone", counting)
    rng = random.Random(1203)
    monoids = 0
    while monoids < 20:
        A = _random_matrix(rng)
        if A.rows == 0 or not is_pointed(A):
            continue
        monoids += 1
        diophantine._MATRIX_CACHE.clear()
        calls.clear()
        Q = AffineMonoid(A)
        for b in product(range(-1, 3), repeat=A.rows):
            Q.contains(b)
        assert len(calls) == 1, A
    diophantine._MATRIX_CACHE.clear()
    calls.clear()
    M = IntMatrix.from_rows([[2, 0, -2], [0, 3, 3], [0, 0, 0]])
    for b in product(range(-1, 4), repeat=3):
        min_nonneg_solutions(M, b)
    assert len(calls) == 1
    assert calls[0] == (M.columns(), M.rows)
    diophantine._MATRIX_CACHE.clear()


def test_stored_face_data_matches_module_functions():
    rng = random.Random(2024)
    checked = 0
    while checked < 8:
        d, n = rng.randint(1, 4), rng.randint(1, 6)
        A = IntMatrix.from_cols(
            [tuple(rng.randint(0, 3) for _ in range(d)) for _ in range(n)], rows=d
        )
        if not is_pointed(A):
            continue
        checked += 1
        Q = AffineMonoid(A)
        assert Q.faces == face_lattice(A)
        for f in Q.faces:
            if f != BOTTOM:
                assert Q.supports[f] == support_vectors_of_face(A, f)
        for r in range(n + 1):
            for s in combinations(range(n), r):
                assert Q.face_closure(s) == face_closure(A, s)


def test_empty_monoid():
    Q = AffineMonoid(IntMatrix.zero(2, 0))
    assert Q.is_empty()
    assert Q.mingens.cols == 0
    assert list(Q.is_element((0, 0))) == [()]
    assert Q.is_element((1, 0)).is_empty()


def test_mingens_examples():
    assert AffineMonoid(IntMatrix.from_rows([[1, 2, 3]])).mingens.columns() == [(1,)]
    assert AffineMonoid(IntMatrix.identity(2)).mingens.cols == 2
    Q = AffineMonoid(IntMatrix.from_rows([[1, 1, 2, 3], [1, 2, 0, 0]]))
    assert Q.mingens.cols == 4


def test_mingens_drops_duplicates_and_zero_columns():
    Q = AffineMonoid(IntMatrix.from_rows([[0, 1, 1], [0, 2, 2]]))
    assert Q.mingens.columns() == [(1, 2)]


def test_membership_examples():
    Q = paper_monoid()
    assert list(Q.is_element((3, 2))) == [(1, 1)]
    assert list(Q.is_element((0, 0))) == [(0, 0)]
    assert Q.is_element((1, 1)).is_empty()


def test_membership_against_box():
    rng = random.Random(99)
    for _ in range(6):
        d, n = rng.randint(1, 3), rng.randint(1, 4)
        cols = [tuple(rng.randint(0, 3) for _ in range(d)) for _ in range(n)]
        if all(all(v == 0 for v in c) for c in cols):
            continue
        Q = AffineMonoid(IntMatrix.from_cols(cols, rows=d))
        box = monoid_box(cols, 4)
        for b in sorted(box)[:40]:
            sols = Q.is_element(b)
            assert not sols.is_empty()
            for x in sols:
                assert Q.gens.mul(x) == b
        # every small vector missing from the exact capped reachability set
        # is a non-member
        from itertools import product as iproduct

        from oracles import reachable_set

        representable = reachable_set(cols, (4,) * d)
        for b in iproduct(range(5), repeat=d):
            if b not in representable:
                assert Q.is_element(b).is_empty()


def test_face_and_index_roundtrip():
    Q = paper_monoid()
    assert Q.face((1,)).data == ((2,), (2,))
    assert Q.face(()).cols == 0
    assert Q.face((0, 1)) == Q.gens
    for face in Q.faces:
        if face == BOTTOM:
            continue
        assert Q.index_of_face(Q.face(face)) == face
    assert Q.index_of_face(IntMatrix.from_rows([[1], [0]])) == (0,)


def test_index_of_face_rejects_non_faces():
    Q = paper_monoid()
    with pytest.raises(ValueError):
        Q.index_of_face(IntMatrix.from_rows([[5], [5]]))


def test_prime_ideal_examples():
    Q = paper_monoid()
    assert Q.prime_ideal((1,)).gens.columns() == [(1, 0)]
    assert Q.prime_ideal((0, 1)).is_empty()
    assert Q.prime_ideal(()).gens.columns() == [(1, 0), (2, 2)]
    with pytest.raises(ValueError):
        Q.prime_ideal(BOTTOM)


def test_prime_ideals_are_prime():
    Q = paper_monoid()
    for face in Q.faces:
        if face == BOTTOM:
            continue
        assert Q.prime_ideal(face).is_prime()


def test_hash_examples():
    a = AffineMonoid(IntMatrix.from_rows([[1, 2], [0, 2]]))
    b = AffineMonoid(IntMatrix.from_rows([[2, 1], [2, 0]]))
    assert a.hash_string == b.hash_string and a == b
    c = AffineMonoid(IntMatrix.from_rows([[1, 2, 3]]))
    d = AffineMonoid(IntMatrix.from_rows([[1]]))
    assert c.hash_string == d.hash_string
    assert AffineMonoid(IntMatrix.identity(2)) != a


# ---------------------------------------------------------------------------
# The monoid's order questions against the rules they replaced, kept verbatim:
# pointedness from the kernel Hilbert basis, minimal generators from one
# solve per column over the other columns, and the three antichain filters
# that MonomialIdeal, minimal_holes and irreducible_component used to carry.


def _reference_is_pointed(A: IntMatrix) -> bool:
    zero_cols = {j for j in range(A.cols) if vec_is_zero(A.col(j))}
    for h in hilbert_kernel(A):
        if any(x > 0 and j not in zero_cols for j, x in enumerate(h)):
            return False
    return True


def _reference_compute_mingens(gens: IntMatrix) -> IntMatrix:
    cols = []
    for c in gens.columns():
        if not vec_is_zero(c) and c not in cols:
            cols.append(c)
    keep = []
    for i, c in enumerate(cols):
        others = IntMatrix.from_cols(cols[:i] + cols[i + 1:], rows=gens.rows)
        if min_nonneg_solutions(others, c).is_empty():
            keep.append(c)
    return IntMatrix.from_cols(sorted(keep), rows=gens.rows)


def _reference_minimalize(ambient, cols: list) -> list:
    keep = []
    for i, c in enumerate(cols):
        others = cols[:i] + cols[i + 1:]
        if not any(ambient.contains(vec_sub(c, h)) for h in others):
            keep.append(c)
    return sorted(keep)


def _reference_minimal_holes_tail(monoid, candidates: list) -> tuple:
    out: list = []
    for q in candidates:
        if not any(monoid.contains(vec_sub(q, p)) for p in candidates if p != q):
            out.append(q)
    return tuple(sorted(out))


def _reference_component_keep(monoid, outside: list) -> list:
    outside = sorted(outside)
    keep = [
        q for q in outside
        if not any(p != q and monoid.contains(vec_sub(q, p)) for p in outside)
    ]
    return keep


def _random_matrix(rng: random.Random) -> IntMatrix:
    """Small matrices with the presentations that test the order questions:
    d = 0, n = 0, lines, ``[A | -A]``, and zero, duplicate, 2c and c1 + c2
    columns, in shuffled order."""
    d = rng.choice([0, 1, 2, 2, 3, 3, 4])
    n = rng.randint(0, 5)
    low = rng.choice([0, 0, 0, -1, -2])
    cols = [tuple(rng.randint(low, 3) for _ in range(d)) for _ in range(n)]
    if cols and rng.random() < 0.1:
        cols += [tuple(-x for x in c) for c in cols]
    for _ in range(rng.randint(0, 3)):
        extra = rng.randrange(4)
        if extra == 0:
            cols.append((0,) * d)
        elif cols and extra == 1:
            cols.append(rng.choice(cols))
        elif cols and extra == 2:
            cols.append(tuple(2 * x for x in rng.choice(cols)))
        elif cols:
            c1, c2 = rng.choice(cols), rng.choice(cols)
            cols.append(tuple(x + y for x, y in zip(c1, c2)))
    rng.shuffle(cols)
    return IntMatrix.from_cols(cols, rows=d)


def test_order_questions_match_reference_rules():
    rng = random.Random(1511)
    pointed = 0
    for _ in range(1500):
        A = _random_matrix(rng)
        assert is_pointed(A) == _reference_is_pointed(A)
        if not _reference_is_pointed(A):
            with pytest.raises(NotPointedError):
                AffineMonoid(A)
            continue
        pointed += 1
        Q = AffineMonoid(A)
        assert Q.faces == face_lattice(A)
        for f in Q.faces:
            if f != BOTTOM:
                assert Q.supports[f] == support_vectors_of_face(A, f)
        mingens = _reference_compute_mingens(A)
        assert Q.mingens == mingens
        assert Q.hash_string == "monoid " + mingens.to_token()
    assert pointed > 1000


def _random_points(rng: random.Random, Q: AffineMonoid) -> list:
    """Monoid elements (sums of up to three columns), with repeats and some
    vectors that are no elements at all."""
    cols = Q.gens.columns()
    points = []
    for _ in range(rng.randint(0, 8)):
        if cols and rng.random() < 0.8:
            p = (0,) * Q.dim
            for _ in range(rng.randint(1, 3)):
                p = tuple(x + y for x, y in zip(p, rng.choice(cols)))
        else:
            p = tuple(rng.randint(-1, 4) for _ in range(Q.dim))
        points.append(p)
    if points and rng.random() < 0.3:
        points.append(rng.choice(points))
    return points


def test_minimal_matches_the_three_antichain_filters():
    rng = random.Random(1512)
    checked = 0
    while checked < 200:
        A = _random_matrix(rng)
        if not is_pointed(A) or A.rows == 0:
            continue
        Q = AffineMonoid(A)
        checked += 1
        for _ in range(3):
            points = _random_points(rng, Q)
            expected = sorted(set(points))
            got = Q.minimal(points)
            # MonomialIdeal: distinct nonzero generators in input order
            cols = list(dict.fromkeys(p for p in points if not vec_is_zero(p)))
            assert Q.minimal(cols) == _reference_minimalize(Q, cols)
            # minimal_holes: sorted distinct candidates
            assert tuple(got) == _reference_minimal_holes_tail(Q, expected)
            # irreducible_component: the keep list, then the ideal's filter
            keep = _reference_component_keep(Q, set(points))
            assert got == keep == _reference_minimalize(Q, keep)


def test_minimal_matches_reference_where_facet_values_tie():
    """Points that share a base and differ by columns of one face tie on
    every facet through that face, so the facet values order only some of
    them; the filter still keeps exactly the reference's points, on
    lower-dimensional monoids too."""
    rng = random.Random(1516)
    checked = lower = ties = 0
    while checked < 300:
        A = _random_matrix(rng)
        if not is_pointed(A) or A.rows == 0 or A.cols == 0:
            continue
        Q = AffineMonoid(A)
        checked += 1
        lower += rational_rank(A) < A.rows
        normals = facet_normals(A)
        face = rng.choice([f for f in Q.faces if f not in (BOTTOM, ())])
        base = _random_points(rng, Q) or [(0,) * Q.dim]
        points = []
        for _ in range(rng.randint(1, 8)):
            p = rng.choice(base)
            for _ in range(rng.randint(0, 3)):
                p = vec_add(p, A.col(rng.choice(face)))
            points.append(p)
        values = [normals.mul(p) for p in set(points)]
        ties += any(u != v and any(map(eq, u, v)) for u in values for v in values)
        assert Q.minimal(points) == _reference_component_keep(Q, set(points))
    assert lower >= 30 and ties >= 100


def _presentations(rng: random.Random, A: IntMatrix) -> list:
    """Presentations of the same monoid: permuted, a column duplicated, a
    zero column added, a redundant generator (2c or c1 + c2) added."""
    cols = A.columns()
    out = []
    perm = cols[:]
    rng.shuffle(perm)
    out.append(perm)
    out.append(cols + [rng.choice(cols)])
    out.append(cols + [(0,) * A.rows])
    out.append(cols + [tuple(2 * x for x in rng.choice(cols))])
    c1, c2 = rng.choice(cols), rng.choice(cols)
    out.append(cols + [tuple(x + y for x, y in zip(c1, c2))])
    return [IntMatrix.from_cols(c, rows=A.rows) for c in out]


def test_order_answers_do_not_depend_on_presentation():
    rng = random.Random(1513)
    for _ in range(150):
        A = _random_matrix(rng)
        if A.cols == 0:
            continue
        pointed = is_pointed(A)
        Q = AffineMonoid(A) if pointed else None
        for B in _presentations(rng, A):
            assert is_pointed(B) == pointed
            if not pointed:
                with pytest.raises(NotPointedError):
                    AffineMonoid(B)
                continue
            R = AffineMonoid(B)
            assert R.mingens == Q.mingens
            assert R.hash_string == Q.hash_string
            assert R == Q


def test_cold_construction_solves_over_its_own_matrix_only():
    rng = random.Random(1514)
    for _ in range(60):
        A = _random_matrix(rng)
        if not is_pointed(A):
            continue
        diophantine._MATRIX_CACHE.clear()
        AffineMonoid(A)
        assert len(diophantine._MATRIX_CACHE) <= 1
        assert all(key == A for key in diophantine._MATRIX_CACHE)
    # pointedness is read from the facets, not from the kernel Hilbert basis
    assert not hasattr(polyhedral, "hilbert_kernel")


def test_construction_asks_existence_only_on_facet_dominated_differences(monkeypatch):
    """Construction finds the minimal generators without a full solve: it
    asks ``has_nonneg_solution`` only on differences c - d of two distinct
    nonzero columns of A on which every facet value is nonnegative, and the
    generators do not change, with zero and duplicate columns too."""
    from oracles import seeded_instances

    import stdpairs.monoid as monoid

    solves, asked, questions = [], [], 0
    for module in (diophantine, monoid):
        original = module.min_nonneg_solutions
        monkeypatch.setattr(module, "min_nonneg_solutions", lambda M, b, f=original: solves.append(b) or f(M, b))
    existence = monoid.has_nonneg_solution
    monkeypatch.setattr(monoid, "has_nonneg_solution", lambda M, b: asked.append((M, b)) or existence(M, b))
    kinds = set()
    for d, cols, _ in seeded_instances(40, 8):  # cycles through zero and duplicate columns
        A = IntMatrix.from_cols(cols, rows=d)
        diophantine._MATRIX_CACHE.clear()
        Q = AffineMonoid(A)
        assert solves == [], cols
        normals = facet_normals(A)
        nonzero = [c for c in cols if not vec_is_zero(c)]
        differences = {vec_sub(c, e) for c in nonzero for e in nonzero if c != e}
        for M, b in asked:
            assert M == A and b in differences and min(normals.mul(b), default=0) >= 0, (cols, b)
        questions += len(asked)
        asked.clear()
        assert Q.mingens == _reference_compute_mingens(A), cols
        solves.clear()  # the reference's own solves
        kinds.add((len(set(cols)) < len(cols), (0,) * d in cols))
    assert len(kinds) == 4 and questions > 0
    checked = []
    original = diophantine._start
    monkeypatch.setattr(diophantine, "_start", lambda data, b: checked.append(b) or original(data, b))
    diophantine._MATRIX_CACHE.clear()
    Q = AffineMonoid(IntMatrix.from_cols([(2,), (3,)]))
    assert checked == [(1,)]  # construction's one existence question, on 3 - 2
    assert Q.is_element((5,))
    assert checked == [(1,), (5,)]  # the wrapper sees the certificate checks of other solves


def test_prime_ideal_skips_the_membership_solves(monkeypatch):
    Q = paper_monoid()
    calls = []

    def counted(original):
        def counting(self, b):
            calls.append(b)
            return original(self, b)

        return counting

    for name in ("is_element", "contains"):
        monkeypatch.setattr(AffineMonoid, name, counted(getattr(AffineMonoid, name)))
    P = Q.prime_ideal(())
    assert P.gens.columns() == [(1, 0), (2, 2)]
    # only the antichain filter runs, and the facet values of (1, 0) and
    # (2, 2) are incomparable, so it settles both ordered pairs unsolved
    assert calls == []


def _index_sets(n: int) -> list:
    """Every subset of range(n) as a sorted tuple, the empty one included."""
    return [c for k in range(n + 1) for c in combinations(range(n), k)]


def _seeded_monoids():
    from oracles import seeded_instances

    # a zero and a repeated column, then seeded monoids that cycle through
    # the plain, zero-column and repeated-column kinds
    yield AffineMonoid(IntMatrix.from_cols([(2, 0), (0, 2), (1, 1), (0, 0), (1, 1)]))
    for d, cols, _ in seeded_instances(12, 5):
        yield AffineMonoid(IntMatrix.from_cols(cols, rows=d))


def test_system_matches_stacked_reference():
    """``_system(F, G)`` is ``A_F`` beside ``-A_G`` for faces and non-faces
    alike, ``right = ()`` is the plain submatrix, and a repeat is the memo."""
    for Q in _seeded_monoids():
        A = Q.gens
        sets = _index_sets(A.cols)
        assert all(f in sets for f in Q.faces if f != BOTTOM)
        for F in sets:
            assert Q.submatrix(F) == Q._system(F, ()) == A.take_cols(F)
            for G in sets:
                system = Q._system(F, G)
                assert system == A.take_cols(F).hstack(A.take_cols(G).neg())
                assert Q._system(list(F), G) is system
        assert Q.submatrix(Q.top) is A


def test_meet_solves_the_stacked_system():
    Q = AffineMonoid(IntMatrix.from_cols([(2, 0), (0, 2), (1, 1), (0, 0)]))
    A = Q.gens
    for F, G in [((0,), (1,)), ((0, 2), Q.top), (Q.top, ()), ((), (2,))]:
        system = A.take_cols(F).hstack(A.take_cols(G).neg())
        for a, b in [((1, 1), (3, 1)), ((0, 0), (2, 2)), ((4, 0), (0, 0)), ((1, 0), (0, 1))]:
            expected = min_nonneg_solutions(system, vec_sub(b, a))
            assert Q.meet(a, F, b, G) == expected
            assert Q.meets(a, F, b, G) == bool(expected)


def test_meet_rejects_column_indices_out_of_range():
    """BOTTOM's label ``(-1,)`` does not read as the last column, and an index
    past the last column is a ``ValueError`` too, naming the index."""
    from stdpairs.pairs import intersect_pairs

    Q = AffineMonoid(IntMatrix.from_cols([(1, 0), (1, 1), (1, 2)]))
    for index in (-1, 5):
        for left, right in [((index,), ()), ((0,), (1, index)), (Q.top, (index,))]:
            with pytest.raises(ValueError, match=f"column index {index} "):
                Q.meet((0, 0), left, (1, 2), right)
            with pytest.raises(ValueError, match=f"column index {index} "):
                Q.meets((0, 0), left, (1, 2), right)
        with pytest.raises(ValueError, match=f"column index {index} "):
            intersect_pairs(Q, (0, 0), (index,), (2, 4), ())
    assert list(Q.meet((0, 0), (2,), (1, 2), ())) == [(1,)]


def test_meet_rejects_points_of_another_length():
    Q = AffineMonoid(IntMatrix.from_cols([(2, 0), (0, 2), (1, 1), (0, 0)]))
    for a, b in [((1, 1), (3, 1, 0)), ((1, 1, 5), (3, 1)), ((1,), (3,)), ((), ())]:
        with pytest.raises(ValueError, match="expected 2"):
            Q.meet(a, (0,), b, Q.top)
        with pytest.raises(ValueError, match="expected 2"):
            Q.meets(a, (0,), b, Q.top)


def test_cover_and_decomposition_build_each_system_once(monkeypatch):
    """One standard cover and one irreducible decomposition, cold, build
    every ``(F, G)`` system at most once."""
    import stdpairs.monoid as monoid
    from oracles import seeded_instances
    from stdpairs.ideal import MonomialIdeal

    instances = [(2, [(1, 1), (1, 2), (2, 0), (3, 0)], [(3, 2), (5, 1), (6, 1)])]
    asked = 0
    for d, cols, gens in instances + seeded_instances(12, 5):
        built = []
        original = monoid._bounded_put

        def recording(cache, key, value, cap):
            built.append(key)
            original(cache, key, value, cap)

        monkeypatch.setattr(monoid, "_bounded_put", recording)
        Q = AffineMonoid(IntMatrix.from_cols(cols, rows=d))
        I = MonomialIdeal(Q, IntMatrix.from_cols(gens, rows=d))
        I.standard_cover()
        I.irreducible_decomposition()
        monkeypatch.undo()
        assert len(built) < monoid._MATRIX_CACHE_CAP  # nothing was evicted and rebuilt
        assert len(built) == len(set(built)), (cols, gens)
        asked += any(G for _, G in built)  # pair questions, not only submatrices
    assert asked >= 10


def test_system_memo_respects_the_matrix_cache_cap(monkeypatch):
    import stdpairs.monoid as monoid

    monkeypatch.setattr(monoid, "_MATRIX_CACHE_CAP", 3)
    Q = AffineMonoid(IntMatrix.from_cols([(2, 0), (0, 2), (1, 1)]))
    A = Q.gens
    for F in _index_sets(3):
        for G in _index_sets(3):
            assert Q._system(F, G) == A.take_cols(F).hstack(A.take_cols(G).neg())
            assert len(Q._systems) <= 3


def test_vector_of_wrong_length_and_record_of_a_non_face_are_rejected():
    Q = AffineMonoid(IntMatrix.from_rows([[1, 1, 1], [0, 1, 2]]))  # faces (), (0,), (2,), (0, 1, 2)
    with pytest.raises(ValueError, match="vector has dim 3, expected 2"):
        Q.contains((1, 1, 1))
    with pytest.raises(ValueError, match=r"^\(1,\) is not a face$"):
        Q._record((1,))
    with pytest.raises(ValueError, match=r"^\(0, 1\) is not a face$"):
        Q.lattice_of((0, 1))


def test_pair_systems_with_the_top_on_one_side_take_the_monoids_facets():
    """For every face F of seeded monoids with zero, duplicate and
    redundant columns, the systems ``(F, top)``, ``(kept_of(F), kept)``,
    ``(top, F)`` and ``(kept, kept_of(F))`` have their cone data stored
    when ``_system`` returns, and it equals the double description's
    normals and span equations."""
    rng = random.Random(4801)
    counts = {"systems": 0, "with_normals": 0, "with_equations": 0, "zero": 0, "duplicate": 0, "redundant": 0}
    for n, (d, cols, _) in enumerate(seeded_instances(160, 4802)):
        nonzero = sorted({c for c in cols if any(c)})
        if n % 2 and len(nonzero) >= 2:
            cols.insert(rng.randint(0, len(cols)), vec_add(*rng.sample(nonzero, 2)))
        diophantine._MATRIX_CACHE.clear()  # A's own data is stored by the constructor
        Q = AffineMonoid(IntMatrix.from_cols(cols, rows=d))
        kept = Q.kept_of(Q.top)
        for F in Q.faces:
            if F == BOTTOM:
                continue
            for left, right in ((F, Q.top), (Q.kept_of(F), kept), (Q.top, F), (kept, Q.kept_of(F))):
                M = Q._system(left, right)
                data = diophantine._MATRIX_CACHE.get(M)
                assert data is not None and data._cone is not None, (cols, left, right)
                facets, equations = diophantine._facets_of_cone(M.columns(), M.rows)
                assert sorted(data._cone[0]) == sorted(phi for phi, _ in facets), (cols, left, right)
                assert sorted(data._cone[1]) == sorted(equations), (cols, left, right)
                counts["systems"] += 1
                counts["with_normals"] += bool(facets)
                counts["with_equations"] += bool(equations)
        counts["zero"] += (0,) * d in cols
        counts["duplicate"] += len(set(cols)) < len(cols)
        counts["redundant"] += len(kept) < len(set(cols) - {(0,) * d})
    diophantine._MATRIX_CACHE.clear()
    assert counts["systems"] >= 1000 and min(counts.values()) >= 40, counts
