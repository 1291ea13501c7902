#!/usr/bin/env python3
"""Walk through the library on a few showcase monoids.

Prints face data, standard covers, associated primes, multiplicities, an
irredundant irreducible decomposition, and a Macaulay2 export, end to end.
Run as ``python scripts/worked_examples.py``.  Its standard output is
committed as ``scripts/worked_examples.out``, and CI compares the two, so
a change of any answer shown here fails until that file is regenerated:
``python scripts/worked_examples.py > scripts/worked_examples.out``.
"""

import logging
import sys

sys.path.insert(0, "src")

import stdpairs as sp
from stdpairs import IntMatrix

logging.basicConfig(level=logging.INFO, format="%(message)s")


def header(title):
    print()
    print("=" * 66)
    print(title)
    print("=" * 66)


def show_cover(cover):
    for face, ps in cover.entries:
        print(f"  {face}: {[p.base for p in ps]}")


def main():
    header("A non-normal plane monoid and a principal ideal")
    Q = sp.AffineMonoid(IntMatrix.from_rows([[1, 2], [0, 2]]))
    print(Q)
    print("face lattice:", list(Q.faces))
    for face, mat in Q.supports.items():
        print(f"  supports{face}: {list(map(list, mat.data))}")
    I = sp.MonomialIdeal(Q, IntMatrix.from_rows([[4, 6], [4, 6]]))
    print(I)
    J = sp.MonomialIdeal(Q, IntMatrix.from_cols([(5, 0)]))
    print("intersection:", I.intersect(J).gens.columns())
    print("sum:", (I + J).gens.columns())
    print("radical:", I.radical().gens.columns())
    print("standard cover:")
    show_cover(sp.standard_cover(I))

    header("The polynomial ring in three variables")
    Q3 = sp.AffineMonoid(IntMatrix.identity(3))
    I3 = sp.MonomialIdeal(Q3, IntMatrix.from_rows([[1, 1, 0, 0], [3, 2, 3, 2], [1, 2, 2, 3]]))
    print("standard cover:")
    show_cover(sp.standard_cover(I3))
    print("associated primes:")
    for face, prime in sp.associated_primes(I3).items():
        print(f"  {face}: gens {prime.gens.columns()}, multiplicity {sp.multiplicity(I3, face)}")

    header("A cone over a square (non-simplicial)")
    Qs = sp.AffineMonoid(IntMatrix.from_rows([[0, 1, 1, 0], [0, 0, 1, 1], [1, 1, 1, 1]]))
    Is = sp.MonomialIdeal(Qs, IntMatrix.from_rows([[2, 2, 2], [0, 1, 2], [2, 2, 2]]))
    cover = sp.standard_cover(Is)
    print("standard cover:")
    show_cover(cover)
    print()
    print("Macaulay2 export:")
    print(sp.export_macaulay2(Is, cover))

    header("A principal ideal over the Veronese cone")
    Qv = sp.AffineMonoid(IntMatrix.from_cols([(1, 0), (1, 1), (1, 2)]))
    Iv = sp.MonomialIdeal(Qv, IntMatrix.from_cols([(13, 9)]))
    cover = sp.standard_cover(Iv)
    show_cover(cover)
    multiplicities = {face: sp.multiplicity(Iv, face) for face in sp.associated_primes(Iv)}
    print("multiplicities:", multiplicities)
    # (1,0) + (1,2) = 2 (1,1): no pair of the cover may lie inside another
    assert len(cover.pairs()) == 26, len(cover.pairs())
    assert multiplicities == {(0,): 9, (2,): 17}, multiplicities

    header("An irredundant irreducible decomposition")
    Qd = sp.AffineMonoid(IntMatrix.from_rows([[1, 1, 2, 3], [1, 2, 0, 0]]))
    Id = sp.MonomialIdeal(Qd, IntMatrix.from_rows([[3, 5, 6], [2, 1, 1]]))
    components = sp.irreducible_decomposition(Id)
    for W in components:
        print("component:", W.gens.columns())
    meet = components[0]
    for W in components[1:]:
        meet = meet.intersect(W)
    print("intersection equals the ideal:", meet == Id)


if __name__ == "__main__":
    main()
