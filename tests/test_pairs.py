from itertools import product

import pytest

import stdpairs.covers as covers
import stdpairs.diophantine as diophantine
import stdpairs.monoid as monoid
from stdpairs.diophantine import IntMatrix, min_nonneg_solutions, vec_sub
from stdpairs.ideal import MonomialIdeal
from stdpairs.monoid import AffineMonoid
from stdpairs.pairs import ProperPair, divides, intersect_pairs, is_proper
from stdpairs.polyhedral import BOTTOM

from oracles import seeded_instances
from test_acceptance import random_instances
from test_covers import _reference_standard_cover, _two_round_instances


@pytest.fixture
def Q():
    return AffineMonoid(IntMatrix.from_rows([[1, 2], [0, 2]]))


@pytest.fixture
def I(Q):
    return MonomialIdeal(Q, IntMatrix.from_cols([(4, 4)]))


def test_construction_and_repr(I):
    P = ProperPair((2, 0), (0,), I)
    assert P.base == (2, 0) and P.face == (0,)
    assert repr(P) == "([[2], [0]]^T,[[1], [0]])"


def test_hash_string_text(I):
    """The text that equality and hashing compare, for a checked pair and a
    trusted one, built on first use and kept."""
    P = ProperPair((2, 0), (0,), I)
    T = ProperPair([1, 0], [0, 1], I, skip_check=True)
    assert P.hash_string == "pair (2, 0) (0,) | monoid 2 2 1 2 0 2 ideal 2 1 4 4"
    assert T.hash_string == "pair (1, 0) (0, 1) | monoid 2 2 1 2 0 2 ideal 2 1 4 4"
    assert P.hash_string is P.hash_string and hash(P) == hash(P.hash_string)
    assert P == ProperPair((2, 0), (0,), I, skip_check=True) and P != T


def test_zero_base_empty_face_is_proper(I):
    P = ProperPair((0, 0), (), I)
    assert is_proper(P)


def test_improper_pair_rejected(I):
    with pytest.raises(ValueError):
        ProperPair((4, 4), (), I)
    with pytest.raises(ValueError):
        ProperPair((0, 0), (1,), I)  # (0,0)+2*(2,2) = (4,4) lands in I


def test_skip_check_trusts_caller(I):
    P = ProperPair((4, 4), (), I, skip_check=True)
    assert not is_proper(P)


def test_every_pair_names_a_face_unchecked_too():
    """``skip_check=True`` skips membership and properness, never the face:
    a non-face or BOTTOM raises."""
    Q = AffineMonoid(IntMatrix.from_cols([(2, 0), (0, 2), (1, 1), (0, 0)]))
    I = MonomialIdeal(Q, IntMatrix.from_cols([(2, 2)]))
    assert ProperPair((4, 4), (0, 3), I, skip_check=True).face == (0, 3)
    for face in [(0,), (0, 1, 2), (4,), BOTTOM]:
        assert face not in Q.faces or face == BOTTOM
        for skip_check in (False, True):
            with pytest.raises(ValueError, match="not a face"):
                ProperPair((0, 0), face, I, skip_check=skip_check)


def test_wrong_length_points_are_rejected(Q, I):
    """A point of another length is an error, not a zip of its first
    coordinates: ``(3, 0, 99)`` used to answer like ``(3, 0)``."""
    P = ProperPair((2, 0), (0,), I)
    assert list(P.is_element((3, 0))) == [(1,)]
    with pytest.raises(ValueError, match="expected 2"):
        P.is_element((3, 0, 99))
    with pytest.raises(ValueError, match="expected 2"):
        intersect_pairs(Q, (2, 0), (0,), (3, 0, 99), ())


def test_base_outside_monoid_rejected(I):
    with pytest.raises(ValueError):
        ProperPair((1, 1), (0,), I)


def test_pair_membership(I):
    P = ProperPair((2, 0), (0,), I)
    assert list(P.is_element((5, 0))) == [(3,)]
    assert list(P.is_element((2, 0))) == [(0,)]
    assert P.is_element((2, 1)).is_empty()


def test_divides_identity_row(I):
    P = ProperPair((2, 0), (0,), I)
    Pp = ProperPair((2, 0), (0,), I, skip_check=True)
    assert divides(P, Pp).data == ((0, 0, 0),)


def test_divides_respects_face_containment(I):
    narrow = ProperPair((0, 0), (), I)
    wide = ProperPair((0, 0), (0,), I)
    assert divides(narrow, wide).rows > 0  # zero translate embeds {0} into the ray
    assert divides(wide, narrow).rows == 0  # infinite set cannot embed in a point


def test_divides_over_non_nested_faces_builds_no_system(I, monkeypatch):
    """Face containment is checked first: non-nested faces give an empty
    witness of width ``A.cols + |G|`` without a face matrix or a solve."""
    ray = ProperPair((2, 0), (0,), I)
    other = ProperPair((0, 2), (1,), I, skip_check=True)
    built = []
    monkeypatch.setattr(ProperPair, "face_matrix", lambda self: built.append(self))
    monkeypatch.setattr(AffineMonoid, "_system", lambda self, left, right: built.append((left, right)))
    monkeypatch.setattr(monoid, "min_nonneg_solutions", lambda M, b: built.append(b))
    for p, q in ((ray, other), (other, ray)):
        witness = divides(p, q)
        assert (witness.rows, witness.cols) == (0, I.ambient.gens.cols + len(q.face))
    assert built == []


def test_divides_reflexive_on_cover(I):
    for p in I.standard_cover().pairs():
        assert divides(p, p).rows > 0


def test_divides_transitive_on_samples(I):
    cover = I.standard_cover().pairs()
    extra = [ProperPair((2, 0), (0,), I), ProperPair((0, 0), (), I)]
    pool = cover + extra
    for a in pool:
        for b in pool:
            for c in pool:
                if divides(a, b).rows and divides(b, c).rows:
                    assert divides(a, c).rows > 0


def test_intersect_pairs_examples(Q):
    assert list(intersect_pairs(Q, (2, 0), (0,), (2, 0), (0,))) == [(0, 0)]
    assert list(intersect_pairs(Q, (2, 0), (0,), (3, 0), (0,))) == [(1, 0)]
    assert intersect_pairs(Q, (2, 0), (0,), (2, 1), (0,)).is_empty()


def test_intersect_pairs_symmetric_nonemptiness(Q):
    samples = [((0, 0), ()), ((2, 0), (0,)), ((2, 2), (1,)), ((0, 0), (0, 1))]
    for (a, f), (b, g) in product(samples, samples):
        ab = intersect_pairs(Q, a, f, b, g).is_empty()
        ba = intersect_pairs(Q, b, g, a, f).is_empty()
        assert ab == ba


def test_is_maximal(I):
    for p in I.standard_cover().pairs():
        assert p.is_maximal()
    assert ProperPair((2, 0), (0,), I).is_maximal()  # mutually divides a standard pair
    assert not ProperPair((2, 0), (), I).is_maximal()


def test_properness_box_soundness(I):
    P = ProperPair((2, 0), (0,), I)
    F = P.face_matrix()
    for x in range(7):
        assert I.is_std_monomial(tuple(b + v for b, v in zip(P.base, F.mul((x,)))))


def test_pair_equality_ignores_skip_flag(I):
    a = ProperPair((2, 0), (0,), I)
    b = ProperPair((2, 0), (0,), I, skip_check=True)
    assert a == b and hash(a) == hash(b)


# ---------------------------------------------------------------------------
# properness on the top face from the lattice

def _reference_is_proper(pair: ProperPair) -> bool:
    """``is_proper`` before the top face was answered from the lattice: one
    ``[F | -A]`` solve per generator on every face."""
    monoid = pair.ideal.ambient
    system = pair.face_matrix().hstack(monoid.gens.neg())
    for g in pair.ideal.gens.columns():
        if min_nonneg_solutions(system, vec_sub(g, pair.base)):
            return False
    return True


def _every_face_and_base(I, bases):
    """Every non-bottom face of I's monoid with every base, checks skipped."""
    for face in I.ambient.faces:
        if face != BOTTOM:
            for b in bases:
                yield ProperPair(b, face, I, skip_check=True)


def test_is_proper_equals_reference_on_seeded_covers():
    tested = top = 0
    for d, cols, gens in seeded_instances(120, 20261019):
        if len(cols) > 4:
            continue  # the reference's top-face systems [A | -A] reach tier 3
        Q = AffineMonoid(IntMatrix.from_cols(cols, rows=d))
        I = MonomialIdeal(Q, IntMatrix.from_cols(gens, rows=d))
        # cover bases and shifted copies, some of them off the monoid or off ZA
        bases = {p.base for p in I.standard_cover().pairs()}
        bases |= {tuple(x + (i == 0) for i, x in enumerate(b)) for b in list(bases)}
        bases |= {tuple(x - 1 for x in b) for b in list(bases)}
        for pair in _every_face_and_base(I, sorted(bases)):
            assert is_proper(pair) == _reference_is_proper(pair), (cols, gens, pair.base, pair.face)
            tested += 1
            top += len(pair.face) == len(cols)
    assert tested > 2000 and top > 500


def test_is_proper_equals_reference_where_cone_to_ctwo_asks(monkeypatch):
    """Every (base, face) that the unpruned expansion loop would test while
    the acceptance instances build their covers by the unpruned fold
    (``_reference_standard_cover``), and while the two-round family's
    standard covers are refined again (``cover_to_standard``)."""
    inputs = []
    original = covers.cone_to_ctwo

    def recording(cover, I):
        inputs.append((cover, I))
        return original(cover, I)

    monkeypatch.setattr(covers, "cone_to_ctwo", recording)
    for I in random_instances():
        _reference_standard_cover(I)
    for I in _two_round_instances():
        covers.cover_to_standard(covers.standard_cover(I), I)
    tested = set()
    for cover, I in inputs:
        faces = [f for f in I.ambient.faces if f != BOTTOM]
        for face, ps in cover.entries:
            targets = [g for g in faces if set(face) <= set(g)]
            if face not in I.ambient.faces:
                targets.append(face)
            for p in ps:
                for g in targets:
                    if (p.base, g, I.hash_string) not in tested:
                        tested.add((p.base, g, I.hash_string))
                        pair = ProperPair(p.base, g, I, skip_check=True)
                        assert is_proper(pair) == _reference_is_proper(pair), (I, p.base, g)
    assert len(tested) > 250


def test_is_proper_non_saturated_lattice():
    # ZA = {(x, y) : x + y even} is not saturated in Z^2
    Q = AffineMonoid(IntMatrix.from_cols([(2, 0), (0, 2), (1, 1)]))
    I = MonomialIdeal(Q, IntMatrix.from_cols([(2, 2)]))
    top = (0, 1, 2)
    assert top in Q.faces
    off_lattice = ProperPair((1, 0), top, I, skip_check=True)
    on_lattice = ProperPair((3, 1), top, I, skip_check=True)
    assert is_proper(off_lattice) and _reference_is_proper(off_lattice)
    assert not is_proper(on_lattice) and not _reference_is_proper(on_lattice)
    box = [(x, y) for x in range(-1, 5) for y in range(-1, 5)]
    for pair in _every_face_and_base(I, box):
        assert is_proper(pair) == _reference_is_proper(pair), (pair.base, pair.face)


def test_is_proper_zero_and_duplicate_columns():
    Q = AffineMonoid(IntMatrix.from_cols([(1, 0), (0, 0), (1, 2), (1, 2), (0, 1)]))
    I = MonomialIdeal(Q, IntMatrix.from_cols([(2, 3), (3, 1)]))
    assert (0, 1, 2, 3, 4) in Q.faces
    box = [(x, y) for x in range(-1, 5) for y in range(-1, 5)]
    for pair in _every_face_and_base(I, box):
        assert is_proper(pair) == _reference_is_proper(pair), (pair.base, pair.face)


def test_is_proper_empty_ideal_is_always_proper():
    Q = AffineMonoid(IntMatrix.from_cols([(2, 0), (0, 2), (1, 1)]))
    E = MonomialIdeal(Q, IntMatrix.zero(2, 0))
    box = [(x, y) for x in range(-1, 4) for y in range(-1, 4)]
    for pair in _every_face_and_base(E, box):
        assert is_proper(pair) and _reference_is_proper(pair)


def test_top_face_is_proper_makes_no_solve(monkeypatch):
    Q = AffineMonoid(IntMatrix.from_cols([(2, 0), (0, 2), (1, 1), (0, 0)]))
    I = MonomialIdeal(Q, IntMatrix.from_cols([(2, 2), (4, 0)]))
    calls = []

    def counted(original):
        def counting(M, b):
            calls.append(M)
            return original(M, b)

        return counting

    for name in ("min_nonneg_solutions", "has_nonneg_solution"):
        counting = counted(getattr(diophantine, name))
        monkeypatch.setattr(monoid, name, counting)
        monkeypatch.setattr(diophantine, name, counting)
    top = (0, 1, 2, 3)
    for base in [(0, 0), (1, 1), (5, 3), (1, 0), (-3, 4)]:
        assert is_proper(ProperPair(base, top, I, skip_check=True)) == (sum(base) % 2 == 1)
    assert calls == []
    assert is_proper(ProperPair((0, 0), (0, 3), I, skip_check=True)) is False  # (4, 0) is in I
    assert calls  # the counter sees the solves of the other faces


def test_divides_and_is_divisor_reject_pairs_over_two_monoids():
    from stdpairs.pairs import is_divisor

    P = AffineMonoid(IntMatrix.from_rows([[1, 2], [0, 2]]))
    Q = AffineMonoid(IntMatrix.from_rows([[1, 1, 1], [0, 1, 2]]))
    p = ProperPair((0, 0), P.top, MonomialIdeal(P, IntMatrix.zero(2, 0)))
    q = ProperPair((0, 0), Q.top, MonomialIdeal(Q, IntMatrix.zero(2, 0)))
    for ask in (divides, is_divisor):
        with pytest.raises(ValueError, match="pairs live over different ambient monoids"):
            ask(p, q)
