"""Seeded inputs of the four workloads, built without calling the library.

Every generator returns plain tuples of integers.  Each workload runs a
fixed suite of instances as given; the workload seed picks the order of the
operations (and of the session's query stream), so every seed does the
same work.  Two cheaper ways to vary inputs by seed were measured and
rejected because they move one operation's cost by more than a run's
bounds allow: fresh random instances (monoid constructions at one grid
size differ by 2.5x; the acceptance generator's heavier draws take
minutes) and permuted coordinates (acceptance instance 17 runs 4x faster
with its two rows swapped; a 5x7 monoid construction 30% slower with its
rows reversed).
"""

from __future__ import annotations

import math
import random
from itertools import product

DEFAULT_SEED = 20250808


def monoid_box(cols, box):
    """All sums ``A x`` with ``x`` in ``[0, box]^n``, as a set of tuples."""
    d = len(cols[0])
    out = set()
    for x in product(range(box + 1), repeat=len(cols)):
        out.add(tuple(sum(c[i] * k for c, k in zip(cols, x)) for i in range(d)))
    return out


def acceptance_instances(count=20, seed=DEFAULT_SEED):
    """``(cols, gens)`` of ``random_instances()`` in ``tests/test_acceptance.py``.

    The same draws from the same generator, without building library
    objects: every drawn generator is a nonzero monoid element, so the
    library never rejects one and the draw sequence is unchanged.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d, n = rng.randint(1, 3), rng.randint(1, 4)
        cols = [tuple(rng.randint(0, 4) for _ in range(d)) for _ in range(n)]
        cols = [c for c in cols if any(c)]
        if not cols:
            continue
        candidates = [b for b in sorted(monoid_box(cols, 2)) if any(b)]
        gens = [rng.choice(candidates) for _ in range(rng.randint(1, 3))]
        out.append((cols, gens))
    return out


def shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


def repeats(nominal_s, budget_s, low, high):
    """Cold repeats of one operation: about ``budget_s`` of them, within [low, high].

    An operation's time is the median of its repeats.  Short operations
    vary most from sample to sample, and their repeats are cheap, so each
    operation gets about the same time; the counts come from fixed nominal
    costs, never from the clock, so the work is the same in every run.
    """
    return max(low, min(high, math.ceil(budget_s / nominal_s)))


# Nominal seconds of each acceptance instance's cold pipeline, by index:
# instances 10 and 19 take about 14 s and 10 s, the others under 1 s.
IDEALS_NOMINAL_S = [
    0.006, 0.026, 0.33, 0.73, 0.001, 0.039, 0.002, 0.004, 0.001, 0.048,
    14.0, 0.004, 0.24, 0.017, 0.006, 0.038, 0.25, 0.37, 0.002, 10.0,
]

# Instances 10 and 19 are left out: a run could time them once each, and
# one sample of a 10 s operation is no median.  Instance 10's monoid costs
# about 7 s whatever the ideal; instance 19's, the numerical semigroup
# <2, 3, 4>, is kept with its generators (20), (24), (20) lowered by 12 and
# by 6, which keeps its solver tier 3 and parallelepiped work (about 65% of
# 0.4-0.6 s) in the workload.
IDEALS_LEFT_OUT = (10, 19)
IDEALS_LOWERED = [  # (label, cols, gens, nominal seconds)
    ("acceptance-19-lowered-12", [(3,), (4,), (3,), (2,)], [(8,), (12,), (8,)], 0.38),
    ("acceptance-19-lowered-6", [(3,), (4,), (3,), (2,)], [(14,), (18,), (14,)], 0.59),
]


def ideals_inputs(seed):
    """``(label, cols, gens, repeats)`` of the 18 light acceptance instances and
    the two lowered copies of instance 19, in seeded order."""
    suite = [
        (f"acceptance-{i}", cols, gens, IDEALS_NOMINAL_S[i])
        for i, (cols, gens) in enumerate(acceptance_instances())
        if i not in IDEALS_LEFT_OUT
    ] + IDEALS_LOWERED
    suite = [(label, cols, gens, repeats(cost, 1.2, 7, 17)) for label, cols, gens, cost in suite]
    return shuffled(random.Random(seed), suite)


SQUARE_CONE = [(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)]

# The Veronese cone: points (x, y) with 0 <= y <= 2x.
VERONESE = [(1, 0), (1, 1), (1, 2)]

# Exponents of the principal generators, growing in degree along a few
# directions so that each cover takes between about 0.1 s and 0.6 s, most of
# it in ``poly_standard_pairs``.  Covers of about 1 s, (5, 6, 8) over the
# square cone and (15, 20) over the Veronese cone, are left out: with so
# few repeats in a run their times were the least steady figures.  (Over the non-normal monoid of
# (1, t, t^3, t^4), covers of this size spend most of their time in solver
# tier 3 instead, which ``ideals`` already measures.)
PRINCIPAL_LADDER = [  # (monoid, b, nominal seconds of the cold cover)
    ("square", (4, 2, 5), 0.10),
    ("square", (1, 3, 6), 0.23),
    ("square", (4, 2, 6), 0.13),
    ("square", (3, 1, 7), 0.50),
    ("square", (5, 3, 7), 0.34),
    ("square", (2, 2, 8), 0.49),
    ("veronese", (9, 11), 0.12),
    ("veronese", (10, 13), 0.14),
    ("veronese", (12, 15), 0.28),
    ("veronese", (13, 9), 0.45),
]


def principal_inputs(seed):
    """Principal ideals ``(label, cols, [b], repeats)``, in seeded order."""
    suite = [
        (f"{name}-{b}", SQUARE_CONE if name == "square" else VERONESE, [b], repeats(cost, 1.5, 9, 15))
        for name, b, cost in PRINCIPAL_LADDER
    ]
    return shuffled(random.Random(seed), suite)


# (rows, columns, nominal seconds of each construction): drawn in this order.
# No construction takes much over 0.7 s: 4x8 and 5x7 draws here take 1.1 s
# and 2.5 s, and an operation that long spans several of the host's speed
# phases, which the kernel samples around it cannot see (see calibrate.py).
MONOID_GRID = [
    (3, 8, 0.20), (3, 8, 0.19),
    (4, 6, 0.40), (4, 6, 0.33),
    (4, 7, 0.66), (4, 7, 0.66),
    (5, 5, 0.30),
]


def monoid_suite():
    """Generator matrices (as columns) drawn once from ``random.Random(1)``."""
    rng = random.Random(1)
    out = []
    for k, (d, n, cost) in enumerate(MONOID_GRID):
        rows = [[rng.randint(0, 5) for _ in range(n)] for _ in range(d)]
        out.append((f"{d}x{n}-{k}", [tuple(r[j] for r in rows) for j in range(n)], cost))
    return out


def monoids_inputs(seed):
    """``(label, cols, repeats)``: the suite in seeded order."""
    suite = [(label, cols, repeats(cost, 2.0, 7, 15)) for label, cols, cost in monoid_suite()]
    return shuffled(random.Random(seed), suite)


# Session ideals: acceptance instances whose covers take 0.2-0.8 s cold,
# plus the golden decomposition example of the acceptance suite.
SESSION_INSTANCES = [2, 3, 12, 17]
SESSION_EXTRA = [([(1, 1), (1, 2), (2, 0), (3, 0)], [(3, 2), (5, 1), (6, 1)])]

# The query multiset is drawn from this fixed seed; the workload seed
# shuffles the stream.  Every seed therefore solves the same systems, and
# the share of repeated queries is the same for all seeds.
SESSION_STREAM_SEED = 2020
# Operation kind -> count in the stream.  Loads are the slowest kind; at
# 1 in 30 the p99 falls in the middle of the second-slowest archive's loads
# (the slowest one holds the top 20% of them), not on a boundary between
# two archives.
SESSION_OPS = {
    "load": 120,
    "is_element": 1020,
    "contains": 840,
    "proper_pair": 600,
    "divides": 510,
    "intersect_pairs": 510,
}


def session_ideals():
    """``(label, cols, gens)`` of the session's ideals."""
    suite = acceptance_instances()
    chosen = [(f"acceptance-{i}", *suite[i]) for i in SESSION_INSTANCES]
    return chosen + [(f"golden-{k}", cols, gens) for k, (cols, gens) in enumerate(SESSION_EXTRA)]


def near(rng, point, cols, jitter=True):
    """A point near ``point``: plus up to three generators, then a small jitter."""
    v = list(point)
    for _ in range(rng.randint(0, 3)):
        c = rng.choice(cols)
        v = [a + b for a, b in zip(v, c)]
    if jitter and rng.random() < 0.5:
        i = rng.randrange(len(v))
        v[i] = max(0, v[i] + rng.choice((-1, 1)))
    return tuple(v)


def session_kinds():
    """Operation kinds of the stream and the generator that draws their arguments."""
    rng = random.Random(SESSION_STREAM_SEED)
    kinds = [k for k, n in SESSION_OPS.items() for _ in range(n)]
    rng.shuffle(kinds)
    return kinds, rng
