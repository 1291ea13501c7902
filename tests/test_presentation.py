"""The answers depend on the monoid and the ideal only, not on how the
monoid's generators are written down: duplicating a column, adding the sum
of two columns or permuting the columns leaves the standard cover (faces
named by their minimal generators), the multiplicities, the irreducible
decomposition and the radical as they were."""

import random
from functools import lru_cache

import pytest

from stdpairs import (
    AffineMonoid,
    IntMatrix,
    MonomialIdeal,
    associated_primes,
    irreducible_decomposition,
    multiplicity,
    standard_cover,
)

from oracles import seeded_instances
from test_acceptance import random_instances


@lru_cache(maxsize=None)
def _answers(cols: tuple, gens: tuple) -> tuple:
    """Cover, multiplicities, decomposition and radical, with each face named
    by the set of its minimal generators."""
    d = len(cols[0])
    Q = AffineMonoid(IntMatrix.from_cols(cols, rows=d))
    I = MonomialIdeal(Q, IntMatrix.from_cols(gens, rows=d))

    def name(face):
        return tuple(sorted({Q.gens.col(j) for j in Q.kept_of(face)}))

    return (
        sorted((p.base, name(p.face)) for p in standard_cover(I).pairs()),
        {name(face): multiplicity(I, face) for face in associated_primes(I)},
        sorted(sorted(W.gens.columns()) for W in irreducible_decomposition(I)),
        sorted(I.radical().gens.columns()),
    )


def _duplicate(rng, cols):
    out = list(cols)
    out.insert(rng.randint(0, len(out)), rng.choice(cols))
    return out


def _add_sum(rng, cols):
    a, b = rng.choice(cols), rng.choice(cols)
    out = list(cols)
    out.insert(rng.randint(0, len(out)), tuple(x + y for x, y in zip(a, b)))
    return out


def _permute(rng, cols):
    out = list(cols)
    rng.shuffle(out)
    return out


_SQUARE_CONE = [(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)]
_VERONESE = [(1, 0), (1, 1), (1, 2)]


def _instances() -> list:
    """Seeded instances (zero and duplicate columns included), the acceptance
    instances, and principal ideals over the square and Veronese cones."""
    out = [(cols, gens) for _, cols, gens in seeded_instances(120, 2611)]
    out += [(I.ambient.gens.columns(), I.gens.columns()) for I in random_instances()]
    out += [(_SQUARE_CONE, [(3, 1, 7)]), (_VERONESE, [(13, 9)]), (_VERONESE, [(9, 11)])]
    return out


@pytest.mark.parametrize("change", [_duplicate, _add_sum, _permute])
def test_answers_do_not_depend_on_the_presentation(change):
    rng = random.Random(change.__name__)
    for cols, gens in _instances():
        other = change(rng, cols)
        assert _answers(tuple(other), tuple(gens)) == _answers(tuple(cols), tuple(gens)), (cols, other, gens)


def test_redundant_generator_moves_no_multiplicity():
    """x^(9,9) over ``[(2,3),(4,3),(1,0)]``, where (4,3) = (2,3) + 2 (1,0),
    has the cover and the multiplicities 3 and 3 that it has over the
    minimal generators alone."""
    answers = _answers(((2, 3), (4, 3), (1, 0)), ((9, 9),))
    assert answers == _answers(((1, 0), (2, 3)), ((9, 9),))
    cover, multiplicities, _, _ = answers
    assert len(cover) == 6
    assert sorted(multiplicities.values()) == [3, 3]
