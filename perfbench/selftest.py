#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Each check must accept the library's answer on a small input and reject a
deliberately corrupted copy of it.  Prints one line per case and exits
with status 1 if any check fails to tell the two apart.
"""

from __future__ import annotations

import os
import sys

import inputs
import layers
import oracles
import run


def cover_pairs(cover):
    return [(p.base, p.face) for p in cover.pairs()]


def cases(sp):
    # criterion 3 of the acceptance suite: B = <(2,0), (0,1), (1,1)>, I = (y^2)
    cols = [(2, 0), (0, 1), (1, 1)]
    gens = [(0, 2)]
    Q = sp.AffineMonoid(run.matrix(sp, cols))
    I = sp.MonomialIdeal(Q, run.matrix(sp, gens))
    pairs = cover_pairs(sp.standard_cover(I))
    box = inputs.monoid_box(cols, 3)
    yield "cover", oracles.check_cover(cols, gens, pairs, box), [
        ("a pair dropped", oracles.check_cover(cols, gens, pairs[1:], box)),
        ("an improper pair added", oracles.check_cover(cols, gens, pairs + [(gens[0], pairs[0][1])], box)),
    ]

    # criterion 6: three components
    cols = [(1, 1), (1, 2), (2, 0), (3, 0)]
    gens = [(3, 2), (5, 1), (6, 1)]
    Q = sp.AffineMonoid(run.matrix(sp, cols))
    I = sp.MonomialIdeal(Q, run.matrix(sp, gens))
    components = [W.gens.columns() for W in sp.irreducible_decomposition(I)]
    rad = I.radical().gens.columns()
    box = inputs.monoid_box(cols, 3)
    region = oracles.Region(cols, oracles.caps_of(box))
    standard = min(b for b in box if any(b) and not region.in_ideal(gens, b))
    yield "decomposition", oracles.check_decomposition(cols, gens, components, box), [
        ("a component dropped", oracles.check_decomposition(cols, gens, components[1:], box)),
        ("a standard monomial added to every component",
         oracles.check_decomposition(cols, gens, [W + [standard] for W in components], box)),
    ]
    yield "radical", oracles.check_radical(cols, gens, rad, box), [
        ("the ideal given as its own radical", oracles.check_radical(cols, gens, gens, box)),
        ("the maximal ideal given as the radical", oracles.check_radical(cols, gens, cols, box)),
    ]

    # a monoid with two redundant generators, (1, 1, 2) and (2, 1, 1)
    cols = [(1, 0, 0), (0, 1, 0), (1, 1, 1), (0, 0, 1), (1, 1, 2), (2, 1, 1)]
    Q = sp.AffineMonoid(run.matrix(sp, cols))
    faces = [f for f in Q.faces if f != sp.BOTTOM]
    supports = {f: list(Q.supports[f].data) for f in faces}
    mingens = Q.mingens.columns()
    dropped = sorted({c for c in cols} - set(mingens))
    facet = max(faces, key=lambda f: (len(supports[f]) == 1, len(f)))
    bad_supports = dict(supports)
    bad_supports[facet] = [tuple(-x for x in supports[facet][0])]
    yield "monoid", oracles.check_monoid(cols, faces, supports, mingens), [
        ("a support normal negated", oracles.check_monoid(cols, faces, bad_supports, mingens)),
        ("a face dropped", oracles.check_monoid(cols, faces[:-2] + faces[-1:], supports, mingens)),
        ("a dropped generator kept", oracles.check_monoid(cols, faces, supports, mingens + dropped[:1])),
        ("a minimal generator dropped", oracles.check_monoid(cols, faces, supports, mingens[1:])),
    ]

    # session answers on one saved ideal
    os.makedirs(run.OUT, exist_ok=True)
    s = run.SessionIdeal(sp, "selftest", [(1, 1), (1, 2), (2, 0), (3, 0)], [(3, 2), (5, 1), (6, 1)],
                         os.path.join(run.OUT, "selftest.txt"))
    inside, outside = (4, 3), (1, 1)
    p = s.pairs[0]
    moved = sp.ProperPair(oracles.add(p.base, s.cols[0]), p.face, s.I, skip_check=True)
    rows = sp.divides(p, moved).data
    good = [
        ("load", s, None, run.load_matches(s, sp.load(s.path))),
        ("is_element", s, inside, s.I.is_element(inside)),
        ("is_element", s, outside, s.I.is_element(outside)),
        ("contains", s, (1, 0), s.Q.contains((1, 0))),
        ("proper_pair", s, (p.base, p.face), True),
        ("proper_pair", s, (s.gens[0], p.face), False),
        ("divides", s, (p, moved), rows),
        ("intersect_pairs", s, (p, p), tuple(sp.intersect_pairs(s.Q, p.base, p.face, p.base, p.face))),
    ]
    x, g = good[1][3]

    def corrupt(k, answer):
        return [good[k][:3] + (answer,)]

    yield "session", run.check_session([s], good), [
        ("a load that differs", run.check_session([s], corrupt(0, False))),
        ("a member answered as outside", run.check_session([s], corrupt(1, None))),
        ("a wrong membership witness", run.check_session([s], corrupt(1, (tuple(v + 1 for v in x), g)))),
        ("a non-member answered as inside", run.check_session([s], corrupt(2, ((0,) * 4, s.gens[0])))),
        ("a monoid membership flipped", run.check_session([s], corrupt(3, True))),
        ("a proper pair rejected", run.check_session([s], corrupt(4, False))),
        ("an improper pair accepted", run.check_session([s], corrupt(5, True))),
        ("a divides row changed", run.check_session([s], corrupt(6, [tuple(v + 1 for v in rows[0])]))),
        ("an intersect_pairs row changed", run.check_session([s], corrupt(7, ((1,) + (0,) * (2 * len(p.face) - 1),)))),
    ]


def tracer_case(sp):
    """A layer function the library no longer has is reported absent, not fatal."""
    missing = ("diophantine.gone", "diophantine", "_no_such_function", None)
    tracer = layers.Tracer(layers=layers.LAYERS + [missing])
    tracer.install()
    try:
        Q = sp.AffineMonoid(run.matrix(sp, [(1, 0), (1, 1), (1, 3)]))
    finally:
        tracer.uninstall()
    values = tracer.metrics(*run.solver_cache_size(sp))
    problems = []
    if tracer.absent != ["diophantine.gone"]:
        problems.append(f"absent functions reported as {tracer.absent}")
    if values["monoid.AffineMonoid.calls"] != 1 or not Q.faces:
        problems.append("the traced construction was not counted once")
    if hasattr(sp.AffineMonoid.__init__, "__wrapped__"):
        problems.append("a wrapper was left installed")
    return problems


def main():
    sp = run.import_library()
    bad = 0
    for name, correct, corruptions in cases(sp):
        ok = not correct
        bad += not ok
        print(f"{'ok ' if ok else 'BAD'} {name}: library answer accepted" + ("" if ok else f": {correct}"))
        for what, problems in corruptions:
            ok = bool(problems)
            bad += not ok
            print(f"{'ok ' if ok else 'BAD'} {name}: {what} rejected" + (f" ({problems[0]})" if ok else ""))
    problems = tracer_case(sp)
    bad += bool(problems)
    print(f"{'BAD' if problems else 'ok '} tracer: a missing function is reported absent" + (f": {problems}" if problems else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
