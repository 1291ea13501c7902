"""Questions with the top face on one side, answered in the quotient by ZF
from one record per face (``AffineMonoid._record``), against the
``[A_F | -A]`` systems and the ``S_F A_kept`` holes they replaced."""

import random
from itertools import combinations
from math import gcd

from stdpairs.covers import minimal_holes
from stdpairs.diophantine import IntMatrix, has_nonneg_solution, min_nonneg_solutions, vec_sub
from stdpairs.ideal import MonomialIdeal
from stdpairs.monoid import AffineMonoid
from stdpairs.pairs import ProperPair, is_divisor, is_proper
from stdpairs.polyhedral import BOTTOM

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
