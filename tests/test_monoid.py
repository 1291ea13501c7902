import random
from itertools import combinations

import pytest

import stdpairs.polyhedral as polyhedral
from stdpairs.diophantine import IntMatrix
from stdpairs.monoid import AffineMonoid, NotPointedError
from stdpairs.polyhedral import BOTTOM, face_closure, face_lattice, is_pointed, support_vectors_of_face

from oracles import monoid_box


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


def test_facets_enumerated_once_per_monoid(monkeypatch):
    calls = []
    original = polyhedral._facets_of_cone

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(polyhedral, "_facets_of_cone", counting)
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
