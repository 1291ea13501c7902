"""Time the walls: the instances where a cold pipeline spends seconds,
and G8, a many-generator case whose cover takes a fraction of a second.

T1, T3, P31 and G8 are 3-row monoids.  L1, L2 and L3 are principal ideals
over 2-row monoids whose covers spend seconds to minutes in one
triangulation (solver tier 3); their cover / decomposition SHA-1s are
L3 ``9373a2425c61`` / ``96826435c5f3``, L2 ``25f9d5e316f9`` /
``d70afd089f7f`` and L1 ``9ef9731e2045`` / ``6686e0fdcc9d``.  L3 (about
15 s) runs by default; L2 and L1 (about two and three minutes) run only
when named.

For each wall a fresh process builds the standard cover,
the maximal overlap classes and the irreducible components, in that
order, and reports per stage the seconds, the ``AffineMonoid.contains``
calls, the triangulations (calls to
``diophantine._hilbert_basis_geometric``, the solver route that answers
L1-L3), the solver-side double descriptions (calls to
``diophantine._facets_of_cone``: the cones of solver matrices that no
monoid's facets give, and the facets a triangulation enumerates; the
monoid's own enumeration, made while it is built, goes through
``polyhedral.facet_data`` and is not counted), and the cover and
decomposition SHA-1s
(``sha1(repr(x))[:12]``, as ``tests/test_decomp.py::test_walls_golden``
pins them).  It checks nothing: compare the SHA-1s with the test.  Run
from anywhere:

    python scripts/walls.py          # T1, T3, P31, G8 and L3
    python scripts/walls.py P31 L1   # the named walls only
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# name -> (monoid columns, ideal generators)
WALLS = {
    "T1": ([(2, 4, 4), (4, 0, 1), (4, 2, 2), (0, 0, 3), (3, 0, 2)], [(18, 6, 10)]),
    "T3": ([(1, 0, 2), (3, 3, 0), (0, 4, 4), (0, 3, 4), (2, 4, 2)], [(6, 15, 12), (2, 7, 6), (7, 17, 14)]),
    "P31": ([(1, 4, 4), (1, 2, 4), (3, 4, 0), (4, 0, 3), (2, 4, 1)], [(31, 38, 35)]),
    "G8": (
        [(0, 3, 0), (1, 0, 3), (3, 2, 0), (2, 2, 1), (1, 1, 2)],
        [(0, 9, 0), (1, 6, 3), (1, 7, 2), (3, 2, 4), (4, 2, 3), (4, 3, 2), (5, 4, 1), (6, 4, 0)],
    ),
    "L3": ([(2, 1), (2, 9), (6, 7), (7, 8), (8, 7)], [(42, 47)]),
    "L2": ([(1, 9), (2, 7), (3, 9), (5, 2), (5, 4)], [(17, 30)]),
    "L1": ([(1, 3), (1, 9), (5, 5), (5, 8), (9, 0)], [(37, 39)]),
}
BY_NAME_ONLY = ("L2", "L1")  # minutes each


def measure(name: str) -> dict:
    """One wall, in this process: stage seconds, contains calls,
    triangulations, SHA-1s."""
    import stdpairs.diophantine as diophantine
    from stdpairs import AffineMonoid, IntMatrix, MonomialIdeal
    from stdpairs.decomp import irreducible_decomposition, maximal_overlap_classes

    triangulations = []  # one entry per triangulation: the stage that ran it
    triangulation = diophantine._hilbert_basis_geometric

    def counted(*args, **kwargs):
        triangulations.append(stage)
        return triangulation(*args, **kwargs)

    enumerations = []  # one entry per solver-side double description: the stage that ran it
    facets_of_cone = diophantine._facets_of_cone

    def enumerated(*args, **kwargs):
        enumerations.append(stage)
        return facets_of_cone(*args, **kwargs)

    asked = []  # one entry per contains call: the stage that asked it (the ideal's own are not reported)
    contains = AffineMonoid.contains
    AffineMonoid.contains = lambda self, b: asked.append(stage) or contains(self, b)
    stage = "ideal"
    diophantine._hilbert_basis_geometric = counted
    diophantine._facets_of_cone = enumerated
    cols, gens = WALLS[name]
    rows = len(cols[0])
    I = MonomialIdeal(AffineMonoid(IntMatrix.from_cols(cols, rows=rows)), IntMatrix.from_cols(gens, rows=rows))
    digest = lambda x: hashlib.sha1(repr(x).encode()).hexdigest()[:12]
    start = time.perf_counter()
    stage = "cover"
    cover = I.standard_cover()
    covered = time.perf_counter()
    stage = "classes"
    maximal_overlap_classes(I)
    classified = time.perf_counter()
    stage = "components"
    decomposition = irreducible_decomposition(I)
    done = time.perf_counter()
    diophantine._hilbert_basis_geometric = triangulation
    diophantine._facets_of_cone = facets_of_cone
    AffineMonoid.contains = contains
    stages = ("cover", "classes", "components")
    return {
        "name": name,
        "cover_s": round(covered - start, 3),
        "classes_s": round(classified - covered, 3),
        "components_s": round(done - classified, 3),
        "contains": [asked.count(s) for s in stages],
        "triangulations": [triangulations.count(s) for s in stages],
        "double_descriptions": [enumerations.count(s) for s in stages],
        "cover_sha": digest(cover),
        "decomposition_sha": digest(decomposition),
    }


def main(argv: list) -> int:
    if argv[:1] == ["--one"]:
        print(json.dumps(measure(argv[1])))
        return 0
    names = argv or [n for n in WALLS if n not in BY_NAME_ONLY]
    unknown = [n for n in names if n not in WALLS]
    if unknown:
        print(f"unknown walls {unknown}; known: {list(WALLS)}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    print(
        "name  cover_s  classes_s  components_s  contains per stage  triangulations per stage"
        "  double descriptions per stage  cover / decomposition SHA-1"
    )
    for name in names:
        out = subprocess.run(
            [sys.executable, __file__, "--one", name], env=env, check=True, capture_output=True, text=True
        ).stdout
        r = json.loads(out.splitlines()[-1])
        print(
            f"{name:<5} {r['cover_s']:>7.2f}  {r['classes_s']:>9.2f}  {r['components_s']:>12.2f}"
            f"  {'/'.join(map(str, r['contains'])):>18}"
            f"  {'/'.join(map(str, r['triangulations'])):>24}"
            f"  {'/'.join(map(str, r['double_descriptions'])):>29}"
            f"  {r['cover_sha']} / {r['decomposition_sha']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
