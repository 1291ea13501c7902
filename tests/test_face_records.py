"""Questions with the top face on one side, answered in the quotient by ZF
from one record per face (``AffineMonoid._record``), against the
``[A_F | -A]`` systems and the ``S_F A_kept`` holes they replaced."""

import random
import re
from itertools import combinations
from math import gcd

import pytest

from stdpairs.covers import minimal_holes
from stdpairs.diophantine import IntMatrix, has_nonneg_solution, min_nonneg_solutions, vec_sub
from stdpairs.ideal import MonomialIdeal
from stdpairs.monoid import AffineMonoid
from stdpairs.pairs import ProperPair, is_divisor, is_proper
from stdpairs.polyhedral import BOTTOM, support_vectors_of_face

from oracles import monoid_box, seeded_instances
from test_pairs import _reference_is_proper


def _reference_meets(Q: AffineMonoid, a, left, b, right) -> bool:
    """``meets`` before the face records: one ``[A_left | -A_right]``
    system over the kept columns."""
    A = Q.gens
    system = A.take_cols(Q.kept_of(left)).hstack(A.take_cols(Q.kept_of(right)).neg())
    return has_nonneg_solution(system, vec_sub(b, a))


def _reference_minimal_holes(a, face, Q: AffineMonoid) -> tuple:
    """``minimal_holes`` before the face records: one solve over
    ``S_F A_kept``, whose columns on F are zero."""
    support = Q.support_of(face)
    solver = Q.gens.take_cols(Q.kept_of(Q.top))
    sols = min_nonneg_solutions(support.matmul(solver), support.mul(a))
    return tuple(Q.minimal(solver.mul(x) for x in sols))


# Numerical semigroups, faces whose ZF is not saturated (the ray of (2,0)
# in the plane ones, the top face of N{(2,0),(0,2),(1,1)}), the ray of
# (3,2), saturated although its echelon pivot is 3, and zero and duplicate
# columns; with the generators of a nonempty ideal for each.
_MONOIDS = [
    ([(2,), (3,)], [(5,), (7,)]),
    ([(3,), (5,), (7,)], [(9,)]),
    ([(3,), (4,), (3,), (2,)], [(8,), (12,)]),
    ([(2, 0), (0, 2), (1, 1)], [(3, 1)]),
    ([(2, 0), (0, 0), (0, 2), (1, 1), (0, 2)], [(3, 1), (2, 4)]),
    ([(2, 0), (3, 0), (0, 1), (1, 2)], [(2, 3)]),
    ([(2, 0), (5, 0), (0, 1), (1, 3)], [(4, 2)]),
    ([(3, 2), (0, 1), (1, 4)], [(5, 10), (6, 6)]),
    ([(2, 1, 1), (0, 4, 2), (3, 4, 2)], [(4, 6, 4)]),
    ([(1, 0, 0), (0, 2, 0), (0, 0, 2), (0, 1, 1)], [(1, 2, 2)]),
]


def _instances():
    """(monoid, ideal generators, points): the monoids above and seeded
    ones with at most four columns (the reference's ``[A | -A]`` reaches
    tier 3 beyond), with monoid points and their shifts off the monoid."""
    triples = [(len(cols[0]), cols, gens) for cols, gens in _MONOIDS]
    triples += [t for t in seeded_instances(48, 27) if len(t[1]) <= 4]
    rng = random.Random(27)
    for d, cols, gens in triples:
        Q = AffineMonoid(IntMatrix.from_cols(cols, rows=d))
        inside = sorted(monoid_box(cols, 1))
        points = rng.sample(inside, min(len(inside), 6))
        points += [tuple(x + (i == j) for i, x in enumerate(p)) for j, p in enumerate(points[:3])]
        points += [tuple(x - 1 for x in p) for p in points[:2]]
        yield Q, gens, sorted(set(points))


def test_top_sided_meets_and_holes_equal_reference():
    """Top-sided ``meets`` and ``minimal_holes`` equal their references on
    every face, among them at least 10 non-top faces whose ``Z F`` is all
    of ``span F intersect Z^d`` and 10 whose is not, as the gcd-of-minors
    ``_reference_saturated`` tells them apart."""
    assert not _reference_saturated([(2, 0), (0, 1)], 2) and not _reference_saturated([(2, 0)], 2)
    assert _reference_saturated([(3, 2)], 2) and _reference_saturated([], 2)
    saturated = non_saturated = top = least = answers = 0
    for Q, gens, points in _instances():
        for F in Q.faces:
            if F == BOTTOM:
                continue
            if F != Q.top:
                is_saturated = _reference_saturated(Q.submatrix(Q.kept_of(F)).columns(), Q.dim)
                saturated += is_saturated
                non_saturated += not is_saturated
            top += F == Q.top
            least += F == Q.faces[1]
            for a in points:
                assert minimal_holes(a, F, Q) == _reference_minimal_holes(a, F, Q), (Q.gens, a, F)
                for b in points:
                    got = Q.meets(a, F, b, Q.top)
                    assert got == _reference_meets(Q, a, F, b, Q.top), (Q.gens, a, F, b)
                    assert Q.meets(b, Q.top, a, F) == _reference_meets(Q, b, Q.top, a, F), (Q.gens, a, F, b)
                    answers += got
    assert saturated >= 10 and non_saturated >= 10 and top >= 30 and least >= 30
    assert 0 < answers


def test_is_proper_and_divisor_equal_reference_with_empty_ideals():
    proper = 0
    for Q, gens, points in _instances():
        d = Q.dim
        for g in (IntMatrix.from_cols(gens, rows=d), IntMatrix.zero(d, 0)):
            I = MonomialIdeal(Q, g)
            pairs = [ProperPair(b, F, I, skip_check=True) for F in Q.faces if F != BOTTOM for b in points]
            for p in pairs:
                assert is_proper(p) == _reference_is_proper(p), (Q.gens, g, p.base, p.face)
                proper += is_proper(p)
            for p in pairs[::3]:
                for q in pairs[::5]:
                    expected = set(p.face) <= set(q.face) and _reference_meets(Q, p.base, Q.top, q.base, q.face)
                    assert is_divisor(p, q) == expected
    assert proper > 100


def test_top_sided_questions_build_no_system(monkeypatch):
    """``meets`` with the top face on one side builds no ``_system`` key;
    ``minimal_holes`` builds only the membership matrix ``A_kept`` that its
    antichain filter (``AffineMonoid.minimal``) asks."""
    built = []
    original = AffineMonoid._system

    def recording(self, left, right):
        built.append((tuple(left), tuple(right)))
        return original(self, left, right)

    monkeypatch.setattr(AffineMonoid, "_system", recording)
    for Q, _, points in _instances():
        faces = [F for F in Q.faces if F != BOTTOM]
        for F in faces:
            for a in points:
                for b in points:
                    Q.meets(a, F, b, Q.top)
                    Q.meets(a, Q.top, b, F)
        assert built == []
        for F in faces:
            for a in points:
                minimal_holes(a, F, Q)
        assert set(built) <= {(Q.kept_of(Q.top), ())}
        built.clear()


def _determinant(rows: list) -> int:
    if not rows:
        return 1
    return sum(
        (-1) ** j * x * _determinant([r[:j] + r[j + 1:] for r in rows[1:]])
        for j, x in enumerate(rows[0]) if x
    )


def _reference_saturated(cols: list, dim: int) -> bool:
    """``Z M`` is ``span M intersect Z^d`` iff the gcd of M's maximal
    minors, those of size rank M, is 1 (the product of the Smith
    invariants)."""
    minors = {0: [1]}
    for k in range(1, min(dim, len(cols)) + 1):
        minors[k] = [
            _determinant([[cols[c][r] for c in cs] for r in rs])
            for rs in combinations(range(dim), k)
            for cs in combinations(range(len(cols)), k)
        ]
    rank = max(k for k, ms in minors.items() if any(ms))
    g = 0
    for m in minors[rank]:
        g = gcd(g, m)
    return g == 1


# Redundant columns ((1, 1, 2) and (2, 1, 1) are sums of others) and cones
# of less than full dimension (in the plane x + y = z, on one ray of Z^3).
_RECORD_MONOIDS = [
    [(1, 0, 0), (0, 1, 0), (1, 1, 1), (0, 0, 1), (1, 1, 2), (2, 1, 1)],
    [(1, 0, 1), (0, 1, 1), (1, 1, 2), (2, 1, 3), (0, 0, 0)],
    [(2, 2, 0), (1, 1, 0), (3, 3, 0), (1, 1, 0)],
]


def _record_monoids():
    """The monoids above and seeded ones, with zero and duplicate columns."""
    for cols in _RECORD_MONOIDS:
        yield AffineMonoid(IntMatrix.from_cols(cols, rows=3))
    for d, cols, _ in seeded_instances(60, 43):
        yield AffineMonoid(IntMatrix.from_cols(cols, rows=d))


def test_cold_construction_builds_one_support_and_no_record(monkeypatch):
    """Construction computes BOTTOM's support rows and nothing per face; the
    first ``supports`` fills one record per face but BOTTOM."""
    import stdpairs.monoid as monoid

    calls = []
    original = monoid._support_rows

    def counting(facets, equations, dim, face):
        calls.append(face)
        return original(facets, equations, dim, face)

    monkeypatch.setattr(monoid, "_support_rows", counting)
    for Q in _record_monoids():
        assert calls == [BOTTOM] and Q._records == {}
        calls.clear()
        Q.supports
        assert sorted(calls) == sorted(Q._records) == sorted(F for F in Q.faces if F != BOTTOM)
        calls.clear()


def test_kept_of_builds_no_record():
    """``kept_of`` reads a face's kept columns from the monoid's kept set:
    on a fresh monoid, asking it for every face fills no record, and the
    records filled later hold the same kept columns."""
    for Q in _record_monoids():
        kept = {F: Q.kept_of(F) for F in Q.faces}
        assert Q._records == {}, Q.gens
        for F in Q.faces:
            if F != BOTTOM:
                assert Q._record(F)[1] == kept[F], (Q.gens, F)


def test_face_records_match_their_definitions():
    """Every record holds the support vectors of its face and the kept
    columns on it, the first caller index of each minimal generator; BOTTOM
    and index tuples that are not faces come back from ``kept_of`` as they
    are, and ``support_of`` reads a non-face's closure."""
    lower_dimensional = 0
    for Q in _record_monoids():
        A, cols = Q.gens, Q.gens.columns()
        lower_dimensional += Q.support_of(Q.top).rows > 0  # span equations
        kept = {cols.index(c) for c in Q.mingens.columns()}
        faces = [F for F in Q.faces if F != BOTTOM]
        supports = Q.supports
        assert list(supports) == faces
        for F in faces:
            assert supports[F] == support_vectors_of_face(A, F) == Q.support_of(F)
            assert Q.kept_of(F) == tuple(j for j in F if j in kept)
        assert Q.support_of(BOTTOM) == support_vectors_of_face(A, BOTTOM)
        assert Q.kept_of(BOTTOM) == BOTTOM
        for r in range(A.cols + 1):
            for s in combinations(range(A.cols), r):
                if s not in supports:
                    assert Q.kept_of(s) == s
                    assert Q.support_of(s) == supports[Q.face_closure(s)]
    assert lower_dimensional >= 2


def test_face_checks_reject_bottom_and_non_faces(tmp_path):
    """``ProperPair``, ``face()``, ``prime_ideal`` and ``archive.load`` reject
    BOTTOM and index tuples that are not faces, with their messages, and
    ``load`` builds no face record."""
    from stdpairs.archive import ArchiveError, load

    Q = AffineMonoid(IntMatrix.from_cols([(2, 0), (0, 2), (1, 1), (1, 0)]))
    I = MonomialIdeal(Q, IntMatrix.from_cols([(2, 2)]))
    assert (0, 1) not in Q.faces and (2,) not in Q.faces
    for F in [BOTTOM, (0, 1), (2,), (0, 4)]:
        with pytest.raises(ValueError, match=r"is not a face of the ambient monoid"):
            ProperPair((0, 0), F, I, skip_check=True)
        if F == BOTTOM:
            with pytest.raises(ValueError, match="the bottom face has no submatrix"):
                Q.face(F)
            with pytest.raises(ValueError, match="no prime ideal is attached to the bottom face"):
                Q.prime_ideal(F)
        else:
            with pytest.raises(ValueError, match=r"is not a face"):
                Q.face(F)
            with pytest.raises(ValueError, match=r"is not a face"):
                Q.prime_ideal(F)
    for F in [F for F in Q.faces if F != BOTTOM]:
        assert ProperPair((0, 0), F, I, skip_check=True).face == F
        assert Q.face(F) == Q.submatrix(F)
    monoid_text = "STDPAIRS v1\nMONOID\n2 4\n2 0 1 1\n0 2 1 0\n"
    for F in [BOTTOM, (0, 1), (2,), (0, 4)]:
        path = str(tmp_path / "bad.txt")
        with open(path, "w") as fh:
            fh.write(monoid_text + f"COVER\n1\n{','.join(map(str, F))};0 0\n")
        with pytest.raises(ArchiveError, match="^line 8: " + re.escape(f"{F} is not a face of the monoid")):
            load(path)
    path = str(tmp_path / "good.txt")
    with open(path, "w") as fh:
        fh.write(monoid_text + "COVER\n2\n0,3;0 0\n;1 1\n")
    cover = load(path)
    assert sorted(p.face for p in cover.pairs()) == [(), (0, 3)]
    assert cover.pairs()[0].ideal.ambient._records == {}
