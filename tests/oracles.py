"""Brute-force reference computations, independent of the library's solver paths."""

from itertools import combinations, product

import numpy as np


def box_solutions(rows, b, box):
    """All x in [0, box]^c with M x = b, by exhaustive numpy enumeration."""
    M = np.array(rows, dtype=np.int64).reshape(len(rows), -1)
    r, c = M.shape
    if c == 0:
        return [()] if all(v == 0 for v in b) else []
    grid = np.indices((box + 1,) * c).reshape(c, -1).T
    hits = grid[(grid @ M.T == np.array(b, dtype=np.int64)).all(axis=1)]
    return [tuple(int(v) for v in x) for x in hits]


def minimal_of(vectors):
    """Componentwise-minimal members of a finite vector collection."""
    vs = sorted(set(vectors), key=lambda v: (sum(v), v))
    out = []
    for v in vs:
        if not any(all(m[i] <= v[i] for i in range(len(v))) for m in out):
            out.append(v)
    return sorted(out)


def brute_min_solutions(rows, b, box):
    """Minimal elements of the box-restricted solution set of M x = b."""
    return minimal_of(box_solutions(rows, b, box))


def brute_hilbert(rows, box):
    """Minimal nonzero solutions of M x = 0 within the box."""
    zero = (0,) * (len(rows[0]) if rows else 0)
    sols = [x for x in box_solutions(rows, (0,) * len(rows), box) if x != zero]
    return minimal_of(sols)


def monoid_box(A_cols, box):
    """All monoid elements A x with x in [0, box]^n, as a set of tuples."""
    n = len(A_cols)
    d = len(A_cols[0]) if n else 0
    out = set()
    if n == 0:
        return {(0,) * d}
    for x in product(range(box + 1), repeat=n):
        out.add(tuple(sum(c[i] * k for c, k in zip(A_cols, x)) for i in range(d)))
    return out


def reachable_set(cols, caps):
    """All monoid elements componentwise below ``caps``: exact BFS from zero.

    Requires nonnegative generator columns, which the random test monoids
    use; membership within the capped region is then decided exactly.
    """
    d = len(caps)
    start = (0,) * d
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for c in cols:
                w = tuple(a + b for a, b in zip(v, c))
                if w in seen or any(x > m for x, m in zip(w, caps)):
                    continue
                seen.add(w)
                nxt.append(w)
        frontier = nxt
    return seen


def nested_pairs(cols, pairs):
    """The ``(small, big)`` among the cover pairs ``(base, face)`` with the
    pair ``small = (a, F)`` inside ``big = (b, G)``: F <= G and ``a - b`` in
    NG, with faces as column indices.  Empty iff no pair of the cover lies
    inside another.  Requires nonnegative columns: NG is then searched
    exactly in the box below the largest bases (``reachable_set``)."""
    pairs = sorted(set(pairs))
    caps = tuple(map(max, zip(*(base for base, _ in pairs))))
    reach = {}
    out = []
    for small in pairs:
        for big in pairs:
            (a, F), (b, G) = small, big
            d = tuple(x - y for x, y in zip(a, b))
            if small == big or not set(F) <= set(G) or min(d) < 0:
                continue
            if G not in reach:
                reach[G] = reachable_set([cols[j] for j in G], caps)
            if d in reach[G]:
                out.append((small, big))
    return out


def ideal_members(gens, cols, caps):
    """Capped-region members of the ideal generated by ``gens`` in the monoid."""
    reach = reachable_set(cols, caps)
    out = set()
    for g in gens:
        for m in reach:
            v = tuple(a + b for a, b in zip(g, m))
            if all(x <= c for x, c in zip(v, caps)):
                out.add(v)
    return out


def brute_poly_standard_pairs(exponents, nvars, box):
    """Maximal proper pairs of a polynomial monomial ideal, by definition.

    Candidates (u, V) are enumerated over the full exponent box; properness
    is the literal universal statement over the generators, and maximality
    is the literal pair-containment test.
    """
    gens = [tuple(e) for e in exponents]
    proper = []
    for k in range(nvars + 1):
        for free in combinations(range(nvars), k):
            fset = set(free)
            ranges = [range(1) if i in fset else range(box + 1) for i in range(nvars)]
            for u in product(*ranges):
                ok = all(any(g[i] > u[i] for i in range(nvars) if i not in fset) for g in gens)
                if ok:
                    proper.append((u, free))

    def contains(p, q):
        (u, v), (w, x) = p, q
        if not set(x) <= set(v):
            return False
        if any(w[i] != u[i] for i in range(nvars) if i not in v):
            return False
        return all(w[i] >= u[i] for i in range(nvars))

    return sorted(
        (u, v) for u, v in proper
        if not any((u, v) != q and contains(q, (u, v)) for q in proper)
    )


def seeded_instances(count, seed):
    """``count`` seeded (dim, monoid columns, ideal generators) triples with
    1-3 rows, 1-4 columns of entries up to 3 and 1-3 generators from the
    monoid's box of height 1, cycling through four kinds: plain, with an
    added zero column, with a column added twice, and with both."""
    import random

    rng = random.Random(seed)
    out = []
    while len(out) < count:
        kind = len(out) % 4
        d, n = rng.randint(1, 3), rng.randint(1, 4)
        cols = [tuple(rng.randint(0, 3) for _ in range(d)) for _ in range(n)]
        if not any(map(any, cols)):
            continue
        if kind & 1:
            cols.insert(rng.randint(0, len(cols)), (0,) * d)
        if kind & 2:
            cols.insert(rng.randint(0, len(cols)), rng.choice(cols))
        candidates = sorted(b for b in monoid_box(cols, 1) if any(b))
        gens = [rng.choice(candidates) for _ in range(rng.randint(1, 3))]
        out.append((d, cols, gens))
    return out


def translate_points(cols, base, face, caps):
    """The points of ``base + N{cols[j] : j in face}`` with every entry at
    most ``caps``: capped reachability from zero, shifted.  Requires
    nonnegative columns."""
    if any(x > c for x, c in zip(base, caps)):
        return set()
    room = [c - x for x, c in zip(base, caps)]
    return {tuple(x + y for x, y in zip(base, p)) for p in reachable_set([cols[j] for j in face], room)}


def difference_points(cols, b, face, other_b, other_face, caps):
    """The points of ``(b + NG) \\ (b' + NG')`` with every entry at most
    ``caps``, for faces given as column index tuples, by exhaustive search.
    Requires nonnegative columns."""
    return translate_points(cols, b, face, caps) - translate_points(cols, other_b, other_face, caps)


def cut_generators(cols, kept, y, box, members):
    """The minimal w in ``[0, box]^|kept|`` with ``y + sum_j w_j cols[kept[j]]``
    in ``members``, a capped set of monoid elements that holds every such
    point: the generators of the cut ideal ``{w : y + A_K w in NA}`` that
    lie in the box."""
    found = []
    for w in product(range(box + 1), repeat=len(kept)):
        p = tuple(y[i] + sum(x * cols[j][i] for x, j in zip(w, kept)) for i in range(len(y)))
        if p in members:
            found.append(w)
    return minimal_of(found)
