import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stdpairs.diophantine import IntMatrix, vec_dot
from stdpairs.polyhedral import (
    BOTTOM,
    face_closure,
    face_lattice,
    facet_data,
    facet_normals,
    is_pointed,
    support_vectors_of_face,
)

Q_MAT = IntMatrix.from_rows([[1, 2], [0, 2]])


def test_facet_normals_paper_monoid():
    assert set(facet_normals(Q_MAT).data) == {(0, 1), (1, -1)}


def test_facet_normals_identity():
    assert set(facet_normals(IntMatrix.identity(2)).data) == {(1, 0), (0, 1)}


def test_facet_normals_interior_column():
    A = IntMatrix.from_rows([[2, 0, 1], [0, 1, 1]])
    assert set(facet_normals(A).data) == {(1, 0), (0, 1)}


def test_face_lattice_paper_monoid():
    assert face_lattice(Q_MAT) == (BOTTOM, (), (0,), (1,), (0, 1))


def test_face_lattice_identity():
    assert face_lattice(IntMatrix.identity(2)) == (BOTTOM, (), (0,), (1,), (0, 1))


def test_face_lattice_square_cone():
    A = IntMatrix.from_rows([[0, 1, 1, 0], [0, 0, 1, 1], [1, 1, 1, 1]])
    lattice = face_lattice(A)
    assert (0, 3) in lattice
    assert (0, 2) not in lattice  # diagonal is not a face
    assert lattice[-1] == (0, 1, 2, 3)


def test_support_vectors_paper_monoid():
    assert support_vectors_of_face(Q_MAT, ()).data == ((0, 1), (1, -1))
    assert support_vectors_of_face(Q_MAT, (0,)).data == ((0, 1),)
    assert support_vectors_of_face(Q_MAT, (1,)).data == ((1, -1),)
    assert support_vectors_of_face(Q_MAT, (0, 1)).data == ()


def test_support_vectors_rejects_non_face():
    with pytest.raises(ValueError):
        support_vectors_of_face(Q_MAT, (0, 5))


def test_is_pointed_examples():
    assert is_pointed(Q_MAT)
    assert not is_pointed(IntMatrix.from_rows([[1, -1]]))
    assert is_pointed(IntMatrix.identity(3))
    assert is_pointed(IntMatrix.from_rows([[0, 1]]))  # zero column is harmless


def test_lower_dimensional_cone_gets_equation_pairs():
    ray = IntMatrix.from_rows([[1, 1], [1, 1]])
    rows = set(facet_normals(ray).data)
    assert (1, -1) in rows and (-1, 1) in rows
    assert any(vec_dot(phi, (1, 1)) > 0 for phi in rows)
    lattice = face_lattice(ray)
    assert lattice == (BOTTOM, (), (0, 1))
    top_support = support_vectors_of_face(ray, (0, 1)).data
    assert set(top_support) == {(1, -1), (-1, 1)}


def test_face_column_characterization():
    for A in (Q_MAT, IntMatrix.from_rows([[2, 0, 1], [0, 1, 1]])):
        for face in face_lattice(A):
            if face == BOTTOM:
                continue
            support = support_vectors_of_face(A, face)
            for j in range(A.cols):
                on_face = all(vec_dot(phi, A.col(j)) == 0 for phi in support.data)
                assert on_face == (j in face)


def test_lattice_closed_under_intersection():
    A = IntMatrix.from_rows([[0, 1, 1, 0], [0, 0, 1, 1], [1, 1, 1, 1]])
    faces = [set(f) for f in face_lattice(A) if f != BOTTOM]
    for s in faces:
        for t in faces:
            assert (s & t) in faces


def test_primitivity_of_normals():
    from math import gcd

    for A in (Q_MAT, IntMatrix.from_rows([[0, 1, 1, 0], [0, 0, 1, 1], [1, 1, 1, 1]])):
        for phi in facet_normals(A).data:
            g = 0
            for x in phi:
                g = gcd(g, x)
            assert g == 1


def test_pointed_zero_face_supports_match_all_normals():
    assert support_vectors_of_face(Q_MAT, ()).data == facet_normals(Q_MAT).data


def test_face_closure():
    A = IntMatrix.from_rows([[0, 1, 1, 0], [0, 0, 1, 1], [1, 1, 1, 1]])
    assert face_closure(A, (0,)) == (0,)
    assert face_closure(A, (0, 2)) == (0, 1, 2, 3)
    assert face_closure(A, (0, 1)) == (0, 1)


def test_empty_matrix():
    E = IntMatrix.zero(2, 0)
    assert facet_normals(E).rows == 4  # two equation pairs spanning R^2
    assert face_lattice(E) == (BOTTOM, ())


column_lists = st.integers(1, 4).flatmap(
    lambda d: st.lists(st.tuples(*[st.integers(-1, 4)] * d), min_size=1, max_size=6)
)


@given(column_lists, st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_facet_data_permutes_with_columns(cols, rnd):
    """Column j of the permuted matrix is column perm[j] of the original:
    every zero set is carried along and the normals stay as they are."""
    perm = list(range(len(cols)))
    rnd.shuffle(perm)
    facets, equations = facet_data(IntMatrix.from_cols(cols))
    moved, moved_equations = facet_data(IntMatrix.from_cols([cols[p] for p in perm]))
    assert moved_equations == equations
    assert [phi for phi, _ in moved] == [phi for phi, _ in facets]
    for (_, zs), (_, moved_zs) in zip(facets, moved):
        assert moved_zs == frozenset(j for j, p in enumerate(perm) if p in zs)


@given(column_lists, st.data())
@settings(max_examples=80, deadline=None)
def test_duplicate_column_lies_on_the_facets_of_its_twin(cols, data):
    twin = data.draw(st.integers(0, len(cols) - 1))
    facets, equations = facet_data(IntMatrix.from_cols(cols))
    grown, grown_equations = facet_data(IntMatrix.from_cols(cols + [cols[twin]]))
    assert grown_equations == equations
    assert grown == [(phi, zs | {len(cols)} if twin in zs else zs) for phi, zs in facets]
