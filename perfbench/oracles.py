"""Brute-force correctness checks, independent of the library's solver.

All workload monoids have nonnegative generator columns, so the monoid
elements below a cap form a finite set reached from zero by adding columns;
membership inside that region is decided exactly.  Each ``check_*``
function returns a list of problems (empty when the answer is right).
"""

from __future__ import annotations

from fractions import Fraction


def add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def below(u, caps):
    return all(0 <= a <= c for a, c in zip(u, caps))


def reachable(cols, caps, start=None):
    """``start + (monoid of cols)``, restricted to the box ``[0, caps]``."""
    start = tuple(start) if start is not None else (0,) * len(caps)
    if not below(start, caps):
        return set()
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for c in cols:
                w = add(v, c)
                if w not in seen and below(w, caps):
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


class Region:
    """Exact monoid and ideal membership for points below ``caps``."""

    def __init__(self, cols, caps):
        self.cols = [tuple(c) for c in cols]
        self.caps = tuple(caps)
        self.monoid = reachable(self.cols, self.caps)

    def in_monoid(self, v):
        return tuple(v) in self.monoid

    def in_ideal(self, gens, v):
        return any(self.in_monoid(sub(v, g)) for g in gens)

    def ideal_points(self, gens):
        out = set()
        for g in gens:
            for m in self.monoid:
                v = add(g, m)
                if below(v, self.caps):
                    out.add(v)
        return out


def caps_of(points):
    points = list(points)
    return tuple(max(p[i] for p in points) for i in range(len(points[0])))


def check_cover(cols, gens, cover_pairs, box_points):
    """Cover pairs are proper, and together cover every standard box point.

    ``cover_pairs`` is a list of ``(base, face)``, faces as column indices.
    Soundness is tested on every translate below the box caps.
    """
    caps = caps_of(box_points)
    region = Region(cols, caps)
    members = region.ideal_points(gens)
    problems = []
    covered = set()
    for base, face in cover_pairs:
        translates = reachable([cols[j] for j in face], caps, start=base)
        hit = translates & members
        if hit:
            problems.append(f"pair {base} {face} meets the ideal at {min(hit)}")
        covered |= translates
    missing = sorted(b for b in box_points if b not in members and b not in covered)
    if missing:
        problems.append(f"standard monomial {missing[0]} is not covered ({len(missing)} in all)")
    return problems


def check_decomposition(cols, gens, components, box_points):
    """A box point lies in the ideal exactly when it lies in every component."""
    region = Region(cols, caps_of(box_points))
    problems = []
    for b in sorted(box_points):
        in_ideal = region.in_ideal(gens, b)
        in_all = all(region.in_ideal(W, b) for W in components)
        if in_ideal != in_all:
            problems.append(f"{b}: in ideal {in_ideal}, in every component {in_all}")
            break
    return problems


def _multiple_in_ideal(cols, gens, b, max_multiple):
    """The least m <= max_multiple with m*b in the ideal, else None."""
    region = Region(cols, tuple(max_multiple * x for x in b))
    for m in range(1, max_multiple + 1):
        if region.in_ideal(gens, tuple(m * x for x in b)):
            return m
    return None


def check_radical(cols, gens, radical_gens, box_points, max_multiple=4, gen_multiple=12):
    """``radical_gens`` generate the radical: the points with a multiple in the ideal.

    * every ideal generator lies in the radical;
    * every radical generator has a multiple (at most ``gen_multiple``) in
      the ideal, so every element of the radical has one;
    * every box point with a multiple (at most ``max_multiple``) in the
      ideal lies in the radical.
    """
    problems = []
    region = Region(cols, caps_of(list(box_points) + list(gens)))
    for g in gens:
        if not region.in_ideal(radical_gens, g):
            problems.append(f"ideal generator {g} is not in the radical")
    for h in radical_gens:
        if _multiple_in_ideal(cols, gens, h, gen_multiple) is None:
            problems.append(f"no multiple of radical generator {h} up to {gen_multiple} is in the ideal")
    big = Region(cols, caps_of([tuple(max_multiple * x for x in b) for b in box_points]))
    for b in sorted(box_points):
        if region.in_ideal(radical_gens, b):
            continue
        m = next((m for m in range(1, max_multiple + 1) if big.in_ideal(gens, tuple(m * x for x in b))), None)
        if m is not None:
            problems.append(f"{b} is outside the radical, but {m} * {b} is in the ideal")
            break
    return problems


# ---------------------------------------------------------------------------
# monoids

def rank(vectors):
    """Rank over the rationals, by exact elimination."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col] / rows[r][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def check_monoid(cols, faces, supports, mingens):
    """Support normals, the Euler relation, and the minimal generators.

    ``faces`` are column-index tuples without the bottom element;
    ``supports`` maps each face to its list of normal rows; ``mingens`` is
    the list of minimal generator columns.
    """
    problems = []
    n = len(cols)
    for face in faces:
        rows = supports[face]
        for phi in rows:
            if any(dot(phi, c) < 0 for c in cols):
                problems.append(f"normal {phi} of face {face} is negative on a generator")
        zero = tuple(j for j in range(n) if all(dot(phi, cols[j]) == 0 for phi in rows))
        if zero != tuple(face):
            problems.append(f"normals of face {face} vanish on columns {zero}")
    euler = sum((-1) ** rank([cols[j] for j in face]) for face in faces)
    if euler != 0:
        problems.append(f"face numbers give Euler sum {euler}, expected 0")
    kept = [tuple(c) for c in mingens]
    distinct = {tuple(c) for c in cols if any(c)}
    for c in sorted(distinct - set(kept)):
        if c not in reachable(kept, c):
            problems.append(f"dropped generator {c} is not reachable from the minimal generators")
    for c in kept:
        if c not in distinct:
            problems.append(f"minimal generator {c} is not a generator")
        elif c in reachable([k for k in kept if k != c], c):
            problems.append(f"kept generator {c} is reachable from the others")
    return problems


# ---------------------------------------------------------------------------
# session witnesses

def check_rows(lhs_base, lhs_cols, rhs_base, rhs_cols, rows):
    """Every row ``[u; w]`` satisfies ``a + L u = b + R w``, with u, w >= 0."""
    k = len(lhs_cols)
    for row in rows:
        u, w = row[:k], row[k:]
        if len(w) != len(rhs_cols) or any(x < 0 for x in row):
            return [f"witness row {row} has the wrong shape or a negative entry"]
        left = list(lhs_base)
        for x, c in zip(u, lhs_cols):
            left = [a + x * b for a, b in zip(left, c)]
        right = list(rhs_base)
        for x, c in zip(w, rhs_cols):
            right = [a + x * b for a, b in zip(right, c)]
        if left != right:
            return [f"witness row {row} gives {tuple(left)} != {tuple(right)}"]
    return []
