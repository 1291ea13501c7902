import pytest

from stdpairs.diophantine import IntMatrix
from stdpairs.ideal import MonomialIdeal
from stdpairs.monoid import AffineMonoid

from oracles import ideal_members, monoid_box, seeded_instances
from test_acceptance import random_instances


@pytest.fixture
def Q():
    return AffineMonoid(IntMatrix.from_rows([[1, 2], [0, 2]]))


def test_generators_are_minimalized(Q):
    I = MonomialIdeal(Q, IntMatrix.from_rows([[4, 6], [4, 6]]))
    assert I.gens.columns() == [(4, 4)]


def test_rejects_outside_generators(Q):
    with pytest.raises(ValueError):
        MonomialIdeal(Q, IntMatrix.from_cols([(1, 1)]))


def test_rejects_unit_ideal(Q):
    with pytest.raises(ValueError):
        MonomialIdeal(Q, IntMatrix.from_cols([(0, 0)]))


def test_empty_ideal(Q):
    I = MonomialIdeal(Q, IntMatrix.zero(2, 0))
    assert I.is_empty()
    assert I.is_element((4, 4)) is None


def test_membership_witness(Q):
    I = MonomialIdeal(Q, IntMatrix.from_cols([(4, 4)]))
    assert I.is_element((5, 4)) == ((1, 0), (4, 4))
    assert I.is_element((4, 4)) == ((0, 0), (4, 4))
    assert I.is_element((3, 2)) is None


def test_std_monomial(Q):
    I = MonomialIdeal(Q, IntMatrix.from_cols([(4, 4)]))
    assert I.is_std_monomial((2, 2))
    assert not I.is_std_monomial((4, 4))
    assert not I.is_std_monomial((1, 1))  # outside the monoid


def test_intersection_paper_value(Q):
    I = MonomialIdeal(Q, IntMatrix.from_cols([(4, 4)]))
    J = MonomialIdeal(Q, IntMatrix.from_cols([(5, 0)]))
    assert I.intersect(J).gens.columns() == [(9, 4)]
    assert I.intersect(I) == I
    E = MonomialIdeal(Q, IntMatrix.zero(2, 0))
    assert I.intersect(E).is_empty()


def test_sum_and_product(Q):
    I = MonomialIdeal(Q, IntMatrix.from_cols([(4, 4)]))
    J = MonomialIdeal(Q, IntMatrix.from_cols([(5, 0)]))
    assert (I + J).gens.columns() == [(4, 4), (5, 0)]
    assert (I * J).gens.columns() == [(9, 4)]
    E = MonomialIdeal(Q, IntMatrix.zero(2, 0))
    assert (I + E) == I


def test_ambient_mismatch_raises(Q):
    I = MonomialIdeal(Q, IntMatrix.from_cols([(4, 4)]))
    other = MonomialIdeal(AffineMonoid(IntMatrix.identity(2)), IntMatrix.from_cols([(1, 1)]))
    with pytest.raises(ValueError):
        I.intersect(other)


def test_radical_paper_value(Q):
    I = MonomialIdeal(Q, IntMatrix.from_cols([(4, 4)]))
    rad = I.radical()
    assert rad.gens.columns() == [(2, 2)]
    assert rad.radical() == rad
    # the radical witness: a small multiple of each radical generator lies in I
    assert I.is_element((4, 4)) is not None
    P = Q.prime_ideal((1,))
    assert P.radical() == P


def test_predicates(Q):
    I = MonomialIdeal(Q, IntMatrix.from_cols([(4, 4)]))
    assert I.is_principal() and not I.is_empty()
    assert not I.is_radical()
    assert Q.prime_ideal((1,)).is_prime()
    assert not I.is_prime()
    E = MonomialIdeal(Q, IntMatrix.zero(2, 0))
    assert E.is_empty()
    assert E.is_prime()  # the zero ideal of a domain


def test_membership_box_oracle():
    cols = [(1, 0), (2, 2)]
    Q = AffineMonoid(IntMatrix.from_cols(cols))
    I = MonomialIdeal(Q, IntMatrix.from_cols([(4, 4), (5, 0)]))
    box = monoid_box(cols, 6)
    caps = [max(b[r] for b in box) for r in range(2)]
    members = ideal_members(I.gens.columns(), cols, caps)
    for b in sorted(box):
        witness = I.is_element(b)
        assert (witness is not None) == (b in members)
        if witness is not None:
            x, g = witness
            assert tuple(gi + v for gi, v in zip(g, Q.gens.mul(x))) == b


def test_arithmetic_box_oracle():
    cols = [(1, 0), (2, 2)]
    Q = AffineMonoid(IntMatrix.from_cols(cols))
    I = MonomialIdeal(Q, IntMatrix.from_cols([(4, 4)]))
    J = MonomialIdeal(Q, IntMatrix.from_cols([(5, 0)]))
    box = monoid_box(cols, 6)
    caps = [max(b[r] for b in box) for r in range(2)]
    mi = ideal_members(I.gens.columns(), cols, caps)
    mj = ideal_members(J.gens.columns(), cols, caps)
    both = ideal_members(I.intersect(J).gens.columns(), cols, caps)
    either = ideal_members((I + J).gens.columns(), cols, caps)
    for b in box:
        assert (b in both) == (b in mi and b in mj)
        assert (b in either) == (b in mi or b in mj)


def test_equality_and_hash(Q):
    I = MonomialIdeal(Q, IntMatrix.from_rows([[4, 6], [4, 6]]))
    J = MonomialIdeal(Q, IntMatrix.from_cols([(4, 4)]))
    assert I == J and hash(I) == hash(J)
    assert I.hash_string == J.hash_string


# ---------------------------------------------------------------------------
# radical from minimal transversals

def _reference_radical(I: MonomialIdeal) -> MonomialIdeal:
    """``radical`` before the minimal transversals: the primes of the
    maximal cover faces intersected one ``intersect`` at a time."""
    faces = list(I.standard_cover().as_dict().keys())
    maximal = [
        f for f in faces
        if not any(g != f and set(f) <= set(g) for g in faces)
    ]
    result = None
    for f in maximal:
        p = I.ambient.prime_ideal(tuple(f))
        result = p if result is None else result.intersect(p)
    if result is None:
        result = I
    return result


def _maximal_face_count(I):
    faces = [set(f) for f in I.standard_cover().as_dict()]
    return sum(not any(f < g for g in faces) for f in faces)


def test_radical_equals_reference_on_seeded_instances():
    several = 0
    for d, cols, gens in seeded_instances(60, 20261020):
        Q = AffineMonoid(IntMatrix.from_cols(cols, rows=d))
        I = MonomialIdeal(Q, IntMatrix.from_cols(gens, rows=d))
        rad = I.radical()
        assert rad == _reference_radical(I), (cols, gens)
        assert rad.gens == _reference_radical(I).gens
        several += _maximal_face_count(I) > 1
    assert several >= 10


def test_radical_equals_reference_on_acceptance_instances():
    for I in random_instances():
        assert I.radical() == _reference_radical(I), I


def test_radical_zero_and_duplicate_columns():
    Q = AffineMonoid(IntMatrix.from_cols([(1, 0, 0), (0, 0, 0), (0, 1, 0), (1, 1, 1), (0, 1, 0)], rows=3))
    for gens in ([(2, 2, 1)], [(1, 1, 0), (0, 3, 0)], [(3, 0, 0), (0, 2, 0), (2, 2, 1)]):
        I = MonomialIdeal(Q, IntMatrix.from_cols(gens, rows=3))
        assert I.radical() == _reference_radical(I), gens


def test_radical_of_a_cover_with_one_face():
    N = AffineMonoid(IntMatrix.from_rows([[1]]))
    I = MonomialIdeal(N, IntMatrix.from_rows([[3]]))
    assert list(I.standard_cover().as_dict()) == [()]
    assert I.radical().gens.columns() == [(1,)] == _reference_radical(I).gens.columns()
    N2 = AffineMonoid(IntMatrix.identity(2))
    J = MonomialIdeal(N2, IntMatrix.from_cols([(2, 0)]))
    assert list(J.standard_cover().as_dict()) == [(1,)]
    assert J.radical() == N2.prime_ideal((1,)) == _reference_radical(J)


def test_radical_never_intersects(monkeypatch):
    def refuse(self, other):
        raise AssertionError("radical() called intersect")

    instances = []
    for d, cols, gens in seeded_instances(12, 20261021):
        Q = AffineMonoid(IntMatrix.from_cols(cols, rows=d))
        I = MonomialIdeal(Q, IntMatrix.from_cols(gens, rows=d))
        I.standard_cover()
        instances.append(I)
    assert any(_maximal_face_count(I) > 1 for I in instances)
    monkeypatch.setattr(MonomialIdeal, "intersect", refuse)
    for I in instances:
        I.radical()


def test_generators_and_vectors_of_wrong_dimension_are_rejected():
    Q = AffineMonoid(IntMatrix.from_rows([[1, 2], [0, 2]]))
    with pytest.raises(ValueError, match="generators have dim 3, ambient has 2"):
        MonomialIdeal(Q, IntMatrix.from_cols([(1, 1, 1)]))
    I = MonomialIdeal(Q, IntMatrix.from_cols([(4, 4)]))
    with pytest.raises(ValueError, match="vector has dim 1, expected 2"):
        I.is_element((4,))
