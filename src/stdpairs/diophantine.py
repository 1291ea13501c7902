"""Exact integer linear algebra.

This module is the computational kernel of the package: everything else
reduces its questions (membership in a monoid, properness of a pair,
intersection of translated submonoids, ...) to finding the componentwise
minimal nonnegative integer solutions of a linear system ``M x = b``.

The solver works lattice-geometrically, entirely over Python integers, so
nothing overflows and nothing is rounded.  Two exact reductions carry it:
one fraction-free (Bareiss) elimination, ``_fraction_free_reduce``, gives
every rank, rational kernel and inverse, and one unimodular column
echelon, ``_column_echelon``, every lattice step:

* one echelon pass over ``[M; I]`` per matrix gives particular solutions
  of ``M x = b`` by forward substitution (``_lattice_reduce``, the one
  source of lattice coordinates), the lattice test, and a saturated basis
  of the integer kernel lattice, already in the echelon form the box walk
  needs;
* the extreme rays of a nonnegative solution cone come from a
  fraction-free double description in kernel coordinates, the same engine
  that finds the facets of a cone as the extreme rays of its dual;
* a pulling triangulation of the rays reduces a Hilbert basis to the
  lattice points of finitely many half-open parallelepipeds, enumerated
  exactly via the residue classes of an echelon basis of each simplex's
  lattice (a minimal lattice point has all simplex coefficients below one).

Most systems the library asks about have no solution.  Before any route
runs, three exact certificates settle most of them (``_start``): b is
outside the span of M (a span equation is nonzero on it), outside
``cone(M)`` (a facet normal is negative on it, Farkas' lemma), or
outside the lattice ``Z M`` (forward substitution on the echelon leaves
a remainder).  The first two are a few dot products over cached cone
data; the last one's quotients, a particular solution, are where the
walks start.  The facets come from the double description below, once
per matrix, or from an ``AffineMonoid``, which has already enumerated
its own: they give the cones of its generator matrices and of its pair
systems ``[A_L | -A_R]`` with every generator on one side.  A matrix
with negation pairs takes the lattice test and its solution from its
merged matrix M' (below), which generates the same lattice; for
``[A | -A]`` M' is A, whose echelon the membership questions have
already built.  One map, ``_unmerge``, takes a point w of M' back to M,
``(x_j, x_k) = (w_j+, w_j-)`` over each negation pair: the start point
x0 and every point of the signed walk go through it.

Past the certificates, three exact routes answer a full solve:

* the graded walk.  Most systems the library solves are pointed: the sum
  w of the facet normals, a grading, is positive on every nonzero column,
  so ``w . b`` bounds every solution and every solution in that box is
  minimal.  One box walk answers them (``_MatrixData.graded_box``);
* the signed walk.  Every other system, and a pointed one whose walk
  overflows, is walked once in the box of the vertices plus sub-unit
  multiples of the circuits, and a minimality filter keeps the answer
  (``_signed_solutions``).  A column and its negation, as a pair system
  ``[A_L | -A_R]`` holds for each column on both sides, merge into one
  coordinate free in sign; a matrix without such pairs is walked as it
  is;
* the triangulation.  A signed walk that outgrows its budget hands the
  system to the triangulation of the homogenized cone
  ``{(x, t) >= 0 : M x = t b}``, whose height-one Hilbert basis elements
  are the minimal solutions (``_geometric_solutions``), so the worst
  case stays predictable.

The kernel Hilbert basis, ``hilbert_kernel``, takes one route, the same
triangulation over the kernel cone.  No solve calls it and the package
does not export it; it and the Contejean-Devie completion
(``_completion``), which nothing in the package calls, stay only because
the benchmark's layer tracer (``perfbench/layers.py``) wraps them.  Cone
data, kernel data and the answers for up to ``_SOLUTIONS_CAP`` right-hand
sides are cached per matrix, for up to ``_MATRIX_CACHE_CAP`` matrices.

Most callers only ask whether a solution exists.  They call
``has_nonneg_solution``, which runs the same certificates and the same
two walks on every system (``_walks``), each stopping at the first
solution it finds; only when both walks overflow does it answer in
full, by the triangulation from the same start point.  Both entries open
the same way (``_memoised``): the right-hand side is checked, ``b = 0``
answered, and a memoised full answer read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, product
from math import gcd
from operator import add, index, le, mul, sub
from typing import Iterable, Iterator, Sequence

IntVector = tuple  # tuple[int, ...]; kept loose so plain tuples interoperate


def vec(entries: Iterable[int]) -> IntVector:
    """The entries as a tuple of ints; an entry that is not an integer (a
    float, a ``Fraction``, a string) is a ``TypeError``, never truncated."""
    return tuple(map(index, entries))


def vec_add(u: IntVector, v: IntVector) -> IntVector:
    return tuple(map(add, u, v))


def vec_sub(u: IntVector, v: IntVector) -> IntVector:
    return tuple(map(sub, u, v))


def vec_dot(u: IntVector, v: IntVector) -> int:
    return sum(map(mul, u, v))


def vec_leq(u: IntVector, v: IntVector) -> bool:
    """Componentwise u <= v."""
    return all(map(le, u, v))


def vec_is_zero(u: IntVector) -> bool:
    return not any(u)


def primitive(v: IntVector) -> IntVector:
    """Divide out the content (gcd of the entries); the zero vector is fixed."""
    g = 0
    for a in v:
        g = gcd(g, a)
    if g <= 1:
        return tuple(v)
    return tuple(a // g for a in v)


@dataclass(frozen=True)
class IntMatrix:
    """An immutable integer matrix stored as a tuple of row tuples.

    ``rows`` and ``cols`` are carried explicitly so that degenerate shapes
    (0 x c and r x 0) stay distinguishable; both are legal and denote empty
    matrices.
    """

    rows: int
    cols: int
    data: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimension")
        if len(self.data) != self.rows:
            raise ValueError("row count mismatch")
        for r in self.data:
            if len(r) != self.cols:
                raise ValueError("ragged matrix row")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        data = tuple(vec(r) for r in rows)
        if cols is None:
            cols = len(data[0]) if data else 0
        return cls(len(data), cols, data)

    @classmethod
    def from_cols(cls, cols: Sequence[Sequence[int]], rows: int | None = None) -> "IntMatrix":
        cols = [vec(c) for c in cols]
        if rows is None:
            rows = len(cols[0]) if cols else 0
        if any(len(c) != rows for c in cols):
            raise ValueError("ragged matrix column")
        data = tuple(tuple(c[i] for c in cols) for i in range(rows))
        return cls(rows, len(cols), data)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, tuple((0,) * cols for _ in range(rows)))

    def row(self, i: int) -> IntVector:
        return self.data[i]

    def col(self, j: int) -> IntVector:
        return tuple(r[j] for r in self.data)

    def columns(self) -> list:
        return list(zip(*self.data)) if self.rows else [()] * self.cols

    def mul(self, x: IntVector) -> IntVector:
        """Matrix times column vector."""
        if len(x) != self.cols:
            raise ValueError("dimension mismatch in matrix-vector product")
        return tuple([sum(map(mul, r, x)) for r in self.data])

    def matmul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        cols = other.columns()
        data = tuple(tuple(sum(map(mul, r, c)) for c in cols) for r in self.data)
        return IntMatrix(self.rows, other.cols, data)

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        data = tuple(self.data[i] + other.data[i] for i in range(self.rows))
        return IntMatrix(self.rows, self.cols + other.cols, data)

    def neg(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(tuple(-a for a in r) for r in self.data))

    def take_cols(self, indices: Sequence[int]) -> "IntMatrix":
        data = tuple(tuple(r[j] for j in indices) for r in self.data)
        return IntMatrix(self.rows, len(indices), data)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows, tuple(tuple(self.data[i][j] for i in range(self.rows)) for j in range(self.cols)))

    def is_empty(self) -> bool:
        return self.rows == 0 or self.cols == 0

    def to_token(self) -> str:
        """Canonical one-line text form, usable as a dictionary key."""
        body = " ".join([str(a) for r in self.data for a in r])
        return f"{self.rows} {self.cols} {body}".rstrip()

    def __str__(self) -> str:
        if self.rows == 0:
            return "[]"
        widths = [max((len(str(r[j])) for r in self.data), default=0) for j in range(self.cols)]
        lines = []
        for i, r in enumerate(self.data):
            body = " ".join(str(a).rjust(w) for a, w in zip(r, widths))
            lines.append(("[[" if i == 0 else " [") + body + ("]]" if i == self.rows - 1 else "]"))
        return "\n".join(lines)


@dataclass(frozen=True)
class SolutionSet:
    """A finite antichain of componentwise-minimal nonnegative solutions.

    Vectors all share one dimension and are kept lexicographically sorted so
    that serialized output is canonical.
    """

    dim: int
    vectors: tuple

    @classmethod
    def of(cls, dim: int, vectors: Iterable[IntVector]) -> "SolutionSet":
        return cls(dim, tuple(sorted(set(map(tuple, vectors)))))

    def is_empty(self) -> bool:
        return not self.vectors

    def __bool__(self) -> bool:
        return bool(self.vectors)

    def __iter__(self) -> Iterator[IntVector]:
        return iter(self.vectors)

    def __len__(self) -> int:
        return len(self.vectors)

    def __contains__(self, v) -> bool:
        return tuple(v) in self.vectors


def minimal_elements(vectors: Iterable[IntVector]) -> list:
    """The componentwise-minimal members of a finite set of vectors."""
    vs = sorted(set(map(tuple, vectors)), key=lambda v: (sum(v), v))
    out: list = []
    for v in vs:
        if not any(vec_leq(m, v) for m in out):
            out.append(v)
    return sorted(out)


def integer_kernel_basis(M: IntMatrix) -> list:
    """A saturated lattice basis of ``{x in Z^c : M x = 0}``, in column
    echelon form (``_MatrixData.reduction``)."""
    return _MatrixData(M).kernel_basis()


def _combination(basis: list, y) -> IntVector:
    """``sum_i y_i basis_i``: a vector from its coordinates in a basis."""
    return tuple(sum(a * b for a, b in zip(y, col)) for col in zip(*basis))


@dataclass
class _MatrixData:
    """Per-matrix cache.  Five fields: ``M``; the kernel Hilbert basis
    (``hilbert``, filled by ``hilbert_kernel`` only); the full answers per
    right-hand side (``solutions``); the right-hand sides
    ``has_nonneg_solution`` found solvable (``feasible``); and, for the
    generating matrix of a pointed ``AffineMonoid``, the monoid's
    construction data (``monoid``: its facets with their zero sets, span
    equations, faces, the face set, BOTTOM's support rows, kept columns,
    minimal generators, hash text and the kept-column matrix), which every
    monoid of an equal matrix reads.

    Everything else is a cached property, computed on first read: the data
    the infeasibility certificates read (``cone``: the facet normals and
    span equations of ``cone(M)``), the grading the normals give and
    whether the system is pointed in it (``_grading``, read by
    ``graded_box``), one column echelon reduction (``reduction``:
    particular solutions, the lattice test and residues modulo ``Z M``, the
    kernel lattice) and its forward substitution (``steps``), the box
    walk's plan (``walk_plan``), the merged matrix M' (``merged``) and the
    signed walk's data (``signed``).  ``cone`` comes from one double
    description (``_facets_of_cone``), or from ``store_cone`` for a caller
    that knows it from facets it has already enumerated (``AffineMonoid``,
    for its generator matrices and its pair systems with every generator
    on one side), so each matrix's cone is enumerated at most once while
    its entry stays in ``_MATRIX_CACHE``.  A matrix with negation pairs
    reads its lattice test and x0 from the data of M', and builds its own
    echelon only for the triangulation's kernel basis."""

    M: IntMatrix
    hilbert: tuple | None = None
    solutions: dict = field(default_factory=dict)
    feasible: dict = field(default_factory=dict)
    monoid: tuple | None = None

    @cached_property
    def cone(self):
        """``(normals, equations)``: the primitive inner facet normals and
        the span equations of ``cone(M)``, as tuples of row tuples, by one
        double description (``_facets_of_cone``) unless a caller stored
        them.  The pair systems of an ``AffineMonoid`` with every generator
        on one side, the ``[A | -A]`` of a principal cover among them, have
        theirs stored when the monoid builds them; when the negation of
        every column is a column too, ``cone(M)`` is its linear span and
        has no facet."""
        facets, equations = _facets_of_cone(self.M.columns(), self.M.rows)
        return tuple(phi for phi, _ in facets), tuple(equations)

    def store_cone(self, normals, equations) -> None:
        """Keep the normals and equations of ``cone(M)`` that a caller
        already knows, as ``_facets_of_cone(M.columns(), M.rows)`` gives
        them: sorted normals, the canonical span equations."""
        self.cone = (tuple(normals), tuple(equations))

    @cached_property
    def _grading(self):
        """``(w, w . M_j per column)`` for the sum w of the facet normals
        when the system is pointed in it, else ``()``."""
        w = tuple(map(sum, zip(*self.cone[0])))
        cols = self.M.columns()
        values = tuple(vec_dot(w, c) for c in cols)
        return (w, values) if all(v > 0 or not any(c) for v, c in zip(values, cols)) else ()

    def graded_box(self, b):
        """The box ``x_j <= floor(w . b / w . M_j)``, 0 on a zero column, of
        a pointed system, or None when the system is not pointed.

        The grading w is the sum of the facet normals of ``cone(M)``, and
        the system is pointed when ``w . M_j > 0`` on every nonzero column.
        Each normal is nonnegative on every column, so w is too.  So
        ``w . b`` is the sum of the nonnegative ``x_j w . M_j`` for any
        solution x, which puts every solution with its zero columns at 0 in
        the box, and a nonnegative kernel vector is zero off the zero
        columns.  A matrix holding a column and its negation, or a
        nonnegative kernel vector off its zero columns, is not pointed.
        The grading is computed once (``_grading``)."""
        if not self._grading:
            return None
        wb = vec_dot(self._grading[0], b)
        return tuple(wb // v if v else 0 for v in self._grading[1])

    @cached_property
    def reduction(self):
        """``(columns, pivot rows, r)`` of one unimodular column echelon pass
        over ``[M; I]``, whose column j is ``M[:, j]`` over ``e_j``.

        The pass visits the rows in index order, M's rows first.  The first
        r columns have their pivots among M's rows.  The others are zero on
        M, so their tails (the rows of I) are a saturated basis of
        ``ker_Z M``; the pass reduces them on those rows too, so the tails
        are in column echelon form on the x-coordinates.  Pivot rows are
        indices of ``[M; I]``, like everything the walk reads.
        """
        m, n = self.M.rows, self.M.cols
        stacked = [c + tuple(int(i == j) for i in range(n)) for j, c in enumerate(self.M.columns())]
        cols, pivots = _column_echelon(stacked, m + n)
        return cols, pivots, sum(p < m for p in pivots)

    @cached_property
    def steps(self):
        """The forward substitution of ``_lattice_reduce``: per column of
        ``reduction`` with its pivot among M's rows, the pivot row, the
        pivot, and the column's nonzero entries on M's rows and on I's
        rows as ``(index, entry)`` pairs."""
        cols, pivots, r = self.reduction
        m, entries = self.M.rows, lambda v: [(i, a) for i, a in enumerate(v) if a]
        return tuple((p, c[p], entries(c[:m]), entries(c[m:])) for c, p in zip(cols[:r], pivots))

    def kernel_basis(self):
        """The tails of ``reduction``'s last columns: an echelon basis of
        ``ker_Z M``."""
        full, _, r = self.reduction
        return [c[self.M.rows:] for c in full[r:]]

    @cached_property
    def walk_plan(self):
        """``(fixed, levels)`` for the box walk.  A row is determined at the
        level of the last kernel column nonzero on it; ``fixed`` are the
        rows no column touches, which the start point alone settles.  Per
        level i: the pivot row of kernel column i and its entry, the other
        rows the level determines split by the sign of their entry
        (negative ones negated), and the column's nonzero entries."""
        m, n = self.M.rows, self.M.cols
        cols = self.kernel_basis()
        _, pivots, r = self.reduction
        level = [max((j + 1 for j, c in enumerate(cols) if c[row]), default=0) for row in range(n)]
        levels = []
        for i, (col, p) in enumerate(zip(cols, pivots[r:]), 1):
            p -= m  # a row of x, not of [M; I]
            rows = [(row, col[row]) for row in range(n) if level[row] == i and row != p]
            levels.append((
                p,
                col[p],
                [(row, c) for row, c in rows if c > 0],
                [(row, -c) for row, c in rows if c < 0],
                [(row, c) for row, c in enumerate(col) if c],
            ))
        return [row for row in range(n) if not level[row]], levels

    @cached_property
    def merged(self):
        """``(merged, pairs)``: the solver data of M', M without the second
        column of each negation pair (``_negation_pairs``), and per column
        of M' its index in M and its partner's, or None for an unpaired
        column, whose coordinate stays nonnegative.

        A matrix without pairs is its own M', and ``merged`` is this data.
        Otherwise ``merged`` is M''s entry in ``_MATRIX_CACHE`` when it has
        one (for ``[A | -A]`` that is A's, whose echelon the membership
        questions have already built), else private data that is never
        inserted.  ``Z M = Z M'``, so ``_start`` reads the lattice test and
        x0 from M'."""
        cols = self.M.columns()
        partner = _negation_pairs(cols)
        taken = set(partner.values())
        pairs = tuple((j, partner.get(j)) for j in range(len(cols)) if j not in taken)
        merged = IntMatrix.from_cols([cols[j] for j, _ in pairs], rows=self.M.rows) if partner else None
        return ((_MATRIX_CACHE.get(merged) or _MatrixData(merged)) if partner else self), pairs

    @cached_property
    def signed(self):
        """``(merged, pairs, rows, bases, slack)``, the data of the signed
        walk (``_signed_solutions``): ``merged`` and ``pairs`` as
        ``merged`` gives them.  ``rows`` are r independent rows of M', r
        its rank, and ``bases`` the ``(B, d B^-1, d)`` of every nonsingular
        block of M' on those rows and r columns B (``_integer_inverse``).
        ``slack`` is, per column, the sum of ``|c_j|`` over the primitive
        circuits c of M' (one per support, up to sign) whose unpaired
        entries share a sign: the circuits that lie in some orthant the sign
        constraints allow.  Without pairs these are the nonnegative
        circuits, the extreme rays of ``ker M intersect N^n``.  Every
        circuit is the kernel vector on a basis plus one more column."""
        data, pairs = self.merged
        merged = data.M.columns()
        rows = _fraction_free_reduce([list(c) for c in merged], self.M.rows)[0]
        sub = [tuple(c[i] for i in rows) for c in merged]
        n, bases, circuits = len(merged), [], set()
        for B in combinations(range(n), len(rows)):
            found = _integer_inverse(list(zip(*(sub[j] for j in B))))
            if found is None:
                continue
            inv, d = found
            bases.append((B, inv, d))
            for k in set(range(n)) - set(B):
                c = [0] * n
                c[k] = d
                for j, row in zip(B, inv):
                    c[j] = -vec_dot(row, sub[k])
                c = primitive(c)
                if len({v > 0 for v, (_, q) in zip(c, pairs) if v and q is None}) < 2:
                    circuits.add(max(c, tuple(-v for v in c)))
        slack = tuple(sum(abs(c[j]) for c in circuits) for j in range(n))
        return data, pairs, rows, bases, slack


def _negation_pairs(columns: list) -> dict:
    """``partner[j] = k`` for each nonzero column j followed by a column k
    equal to its negation: the first later one that no earlier column took.
    A column is in at most one pair."""
    waiting, partner = {}, {}  # waiting[v]: unpaired earlier columns equal to -v
    for k, c in enumerate(columns):
        if waiting.get(c):
            partner[waiting[c].pop(0)] = k
        elif any(c):
            waiting.setdefault(tuple(-a for a in c), []).append(k)
    return partner


def _column_echelon(cols: list, dim: int) -> tuple:
    """Unimodular column operations to echelon form with positive pivots;
    returns (cols, pivot rows).

    The pass visits the ``dim`` rows in index order and changes only the
    columns from its current lead on.  In each row it reduces them by the
    one of least absolute value there, rounding quotients to the nearest
    integer, until one column is left nonzero in that row: least-remainder
    Euclid steps keep the entries small.  So the pivots increase, and each column is zero on every row
    before its pivot.
    """
    cols = [list(c) for c in cols]
    k = len(cols)
    pivots = []
    lead = 0
    for row in range(dim):
        if lead == k:
            break
        while True:
            nonzero = [j for j in range(lead, k) if cols[j][row]]
            if len(nonzero) <= 1:
                break
            i = min(nonzero, key=lambda j: abs(cols[j][row]))
            p = cols[i]
            for j in nonzero:
                if j != i:
                    q = (2 * cols[j][row] + p[row]) // (2 * p[row])
                    cols[j] = [a - q * b for a, b in zip(cols[j], p)]
        if not nonzero:
            continue
        j = nonzero[0]
        cols[lead], cols[j] = cols[j], cols[lead]
        if cols[lead][row] < 0:
            cols[lead] = [-a for a in cols[lead]]
        pivots.append(row)
        lead += 1
    return [tuple(c) for c in cols], pivots


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _box_solutions(data: _MatrixData, x0, bound, budget: int | None = None, first: bool = False):
    """Solutions ``x = x0 + (kernel lattice)`` with ``0 <= x <= bound``;
    with ``first``, only the first one the walk reaches (a yes to "is
    there one?").

    The walk fixes one echelon coefficient per level.  Each level takes the
    coefficient range that keeps every row it determines in ``[0, bound]``.
    The walk is exact for any echelon basis of ``ker_Z M``: later columns
    vanish on the pivot row of column i, so that row is final once level i
    fixes column i's coefficient, and each level's range is finite.

    Budget: each visited node counts the span of its pivot row's range.
    Returns None when the count passes ``budget`` (with ``first``: before
    a solution is reached).
    """
    fixed, plan = data.walk_plan
    for r in fixed:
        if not 0 <= x0[r] <= bound[r]:
            return []
    k = len(plan)
    out = []
    visited = 0

    def rec(i: int, x: list) -> bool:
        """Walk below x at level i; False once the walk stops: the budget
        is spent, or ``first`` has its solution."""
        nonlocal visited
        p, coeff, pos, neg, col = plan[i]
        lo = -(x[p] // coeff)
        hi = (bound[p] - x[p]) // coeff
        if hi < lo:
            return True
        visited += hi - lo + 1
        if budget is not None and visited > budget:
            return False
        for r, c in pos:
            a = -(x[r] // c)
            b = (bound[r] - x[r]) // c
            if a > lo:
                lo = a
            if b < hi:
                hi = b
        for r, c in neg:
            a = -((bound[r] - x[r]) // c)
            b = x[r] // c
            if a > lo:
                lo = a
            if b < hi:
                hi = b
        if hi < lo:
            return True
        for z in range(lo, hi + 1):
            nxt = x[:]
            for r, c in col:
                nxt[r] += z * c
            if i + 1 == k:
                out.append(tuple(nxt))
                if first:
                    return False
            elif not rec(i + 1, nxt):
                return False
        return True

    if k == 0:
        return [tuple(x0)]
    if not rec(0, list(x0)) and not (first and out):
        return None
    return out


def _lattice_reduce(data: _MatrixData, b) -> tuple:
    """``(x, residue)`` with ``b = M x + residue``, by forward substitution
    with floor quotients on the columns of ``data.reduction`` with a pivot
    among M's rows.  Later columns vanish on each pivot row, which keeps its
    remainder modulo the positive pivot, so the residue is canonical modulo
    ``Z M``: zero iff ``b`` lies in ``Z M``, equal for congruent vectors.
    The columns are read as ``data.steps``, and a zero quotient is
    skipped."""
    residue = list(b)
    x = [0] * data.M.cols
    for p, pivot, on_m, on_x in data.steps:
        q = residue[p] // pivot
        if q:
            for i, a in on_m:
                residue[i] -= q * a
            for i, a in on_x:
                x[i] += q * a
    return tuple(x), tuple(residue)


def _particular_solution(data: _MatrixData, b):
    """Some integer solution of ``M x = b`` (sign unrestricted), or None:
    the quotients of ``_lattice_reduce`` when its residue is zero."""
    x, residue = _lattice_reduce(data, b)
    return None if any(residue) else x


_MATRIX_CACHE: dict = {}
_MATRIX_CACHE_CAP = 1024
_SOLUTIONS_CAP = 4096  # memoised right-hand sides per cached matrix


def _bounded_put(cache: dict, key, value, cap: int) -> None:
    """Insert into ``cache``, evicting the oldest insertion past ``cap``
    entries; hits do not reorder, so they cost one lookup."""
    cache[key] = value
    if len(cache) > cap:
        del cache[next(iter(cache))]


def _matrix_data(M: IntMatrix) -> _MatrixData:
    """The cached data of M, among at most ``_MATRIX_CACHE_CAP`` matrices."""
    data = _MATRIX_CACHE.get(M)
    if data is None:
        data = _MatrixData(M)
        _bounded_put(_MATRIX_CACHE, M, data, _MATRIX_CACHE_CAP)
    return data


def _facets_of_cone(cols: list, dim: int) -> tuple:
    """Facets and span equations of the cone generated by ``cols`` in R^dim.

    Returns ``(facets, equations)``: one ``(primitive inner normal,
    frozenset of generator positions on the facet)`` per facet, sorted by
    normal, plus a primitive basis of the orthogonal complement of the
    linear span.  The normals are the extreme rays of the dual cone inside
    the span, ``{phi : phi . c >= 0 for every column, phi . e = 0 for every
    equation}``, found by double description with the columns, the
    equations and the negated equations as constraints.  These have full
    column rank, and the dual cone is pointed because the cone spans the
    span.  A ray lies in the span, so it is nonzero on some column; when
    the span is {0} the equations cut the dual cone down to {0}, which has
    no rays and so no facets.
    """
    equations = rational_kernel_basis(IntMatrix.from_rows(cols, cols=dim))
    constraints = list(cols) + equations + [tuple(-x for x in e) for e in equations]
    facets = []
    for phi in _extreme_rays_dd(constraints, dim):
        facets.append((phi, frozenset(j for j, c in enumerate(cols) if vec_dot(phi, c) == 0)))
    return facets, equations


def _fraction_free_reduce(a: list, ncols: int) -> tuple:
    """Integer Gauss-Jordan elimination (Bareiss) of the rows of ``a``, in place.

    Pivots are searched column by column among the first ``ncols``
    columns, on the first remaining row with a nonzero entry.  Returns
    ``(pivot columns, d)`` where d is the last pivot (1 if there is none):
    then every row of ``a`` is d times the row that elimination over Q,
    with pivots scaled to 1, leaves in its place.  So the first
    ``len(pivots)`` rows are d times the reduced row echelon form, the
    other rows are zero in the first ``ncols`` columns, and d is, up to
    sign, the determinant of the pivot block.  Every division below is
    exact, so all entries stay integers.
    """
    pivots: list = []
    prev = 1
    for col in range(ncols):
        r = len(pivots)
        if r == len(a):
            break
        p = next((i for i in range(r, len(a)) if a[i][col]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        pr = a[r]
        pv = pr[col]
        for i, row in enumerate(a):
            if i != r:
                f = row[col]
                a[i] = [(pv * x - f * y) // prev for x, y in zip(row, pr)]
        prev = pv
        pivots.append(col)
    return pivots, prev


def _integer_inverse(rows: Sequence[Sequence[int]]):
    """``(d A^-1, d)`` with ``d = |det A| > 0`` for a nonsingular square
    integer matrix A given by its rows, or None when A is singular.

    One fraction-free pass over ``[A | I]`` leaves ``e [I | A^-1]`` with
    ``e = +-det A``; the sign is then made positive.
    """
    k = len(rows)
    work = [list(row) + [int(i == j) for j in range(k)] for i, row in enumerate(rows)]
    pivots, d = _fraction_free_reduce(work, k)
    if len(pivots) < k:
        return None
    sign = 1 if d > 0 else -1
    return [[sign * x for x in row[k:]] for row in work], sign * d


def _extreme_rays_dd(constraints: list, dim: int) -> list:
    """Sorted primitive extreme rays of the cone ``{y : c . y >= 0}`` by double description.

    The constraints must have full column rank (else ``ValueError``), which
    makes the cone pointed.  Everything is integer arithmetic:

    * Start: fraction-free Gauss-Jordan elimination of ``[C^T | I]`` picks
      the first ``dim`` independent constraints B and leaves
      ``det(B) B^-1`` in the right block; its columns, signed by the
      determinant, are the rays of the simplicial cone ``{B y >= 0}``.
    * Cut: each remaining constraint keeps the rays on its nonnegative side
      and replaces every adjacent pair of rays on opposite strict sides by
      the primitive ray where their edge meets its hyperplane.
    * Adjacency: each ray carries its zero set over the processed
      constraints as a bitmask.  Two extreme rays are adjacent iff their
      common zero set has at least ``dim - 2`` members and lies in no other
      ray's zero set (the combinatorial test of Fukuda and Prodon, 1996).

    The result is empty when the cone is {0}.
    """
    m = len(constraints)
    work = [[c[j] for c in constraints] + [int(i == j) for i in range(dim)] for j in range(dim)]
    pivots, det = _fraction_free_reduce(work, m)
    if len(pivots) < dim:
        raise ValueError("constraint matrix does not have full column rank")
    sign = 1 if det > 0 else -1
    start = sum(1 << i for i in pivots)
    rays = [
        (primitive(tuple(sign * x for x in row[m:])), start & ~(1 << i))
        for row, i in zip(work, pivots)
    ]
    chosen = set(pivots)
    for i, c in enumerate(constraints):
        if i in chosen:
            continue
        bit = 1 << i
        kept, pos, neg = [], [], []
        for r, z in rays:
            v = vec_dot(c, r)
            if v > 0:
                kept.append((r, z))
                pos.append((r, z, v))
            elif v < 0:
                neg.append((r, z, v))
            else:
                kept.append((r, z | bit))
        for rp, zp, vp in pos:
            for rn, zn, vn in neg:
                common = zp & zn
                if common.bit_count() < dim - 2:
                    continue
                if any(common & z == common and z != zp and z != zn for _, z in rays):
                    continue
                combo = tuple(vp * b - vn * a for a, b in zip(rp, rn))
                kept.append((primitive(combo), common | bit))
        rays = kept
    return sorted(r for r, _ in rays)


def _facet_zero_sets(gens: list) -> list:
    """Generator index sets of the facets of the cone over ``gens``."""
    facets, _ = _facets_of_cone(gens, len(gens[0]))
    return sorted({zs for _, zs in facets}, key=sorted)


def _pulling_triangulation(cols: list, dim: int) -> list:
    """Triangulate a pointed cone over its generators (index tuples).

    The first generator is pulled: the cone is the union of simplices over
    that apex and the recursively triangulated facets missing it.
    """

    def recurse(indices):
        sub = [cols[i] for i in indices]
        if rational_rank(IntMatrix.from_rows(sub, cols=dim)) == len(indices):
            return {tuple(indices)}
        out = set()
        for zero_set in _facet_zero_sets(sub):
            if 0 in zero_set:
                continue
            below = [indices[p] for p in sorted(zero_set)]
            for simplex in recurse(below):
                out.add(tuple(sorted((indices[0],) + simplex)))
        return out

    return sorted(recurse(list(range(len(cols)))))


def _saturated_span_basis(cols: list, dim: int) -> list:
    """A lattice basis of ``span_Q(cols) intersect Z^dim``: the integer
    kernel of the span's equations."""
    equations = rational_kernel_basis(IntMatrix.from_rows(cols, cols=dim))
    return integer_kernel_basis(IntMatrix.from_rows(equations, cols=dim))


def _parallelepiped_points(generators: list) -> list:
    """Lattice points in the half-open parallelepiped of a nonsingular basis.

    A column echelon form of the generators is a lower-triangular basis H
    of their lattice with a positive diagonal, so the vectors w with
    ``0 <= w_i < H[i][i]`` are one point per residue class.  Each is folded
    into the parallelepiped by subtracting the integer parts of its
    generator coordinates.
    """
    k = len(generators)
    H, _ = _column_echelon(generators, k)
    r_inv, r_det = _integer_inverse([[g[r] for g in generators] for r in range(k)])
    points = set()
    for w in product(*(range(H[i][i]) for i in range(k))):
        floors = [vec_dot(row, w) // r_det for row in r_inv]
        p = tuple(
            w[r] - sum(generators[i][r] * floors[i] for i in range(k)) for r in range(k)
        )
        points.add(p)
    return sorted(points)


def _kernel_cone_rays(basis: list) -> list:
    """Extreme rays of ``{y : sum_i y_i basis_i >= 0}``, the nonnegative
    kernel cone in the coordinates of a kernel basis.  Its constraints (one
    per column of the basis vectors) have full column rank because the
    basis is independent."""
    if not basis:
        return []
    return _extreme_rays_dd(list(zip(*basis)), len(basis))


def _hilbert_basis_geometric(basis: list, rays: list) -> list:
    """Hilbert basis of ``L intersect N^n`` by triangulation, for a saturated
    lattice L with basis ``basis``, given the extreme rays of
    ``{y : sum_i y_i basis_i >= 0}`` in its coordinates.

    In the saturated lattice of the rays' span: triangulate the rays,
    pulled by the 1-norm of their vectors (so the triangulation depends on
    the cone, not on the basis, and short rays keep the parallelepipeds
    small), and collect the lattice points of each maximal simplex's
    half-open parallelepiped.  Every minimal element appears among those
    candidates and the rays.  The rays' coordinates in the span's basis
    are the quotients of ``_lattice_reduce``; a nonzero residue, a ray off
    that lattice, is an ``ArithmeticError``.
    """
    if not rays:
        return []
    vectors = {y: _combination(basis, y) for y in rays}
    rays = sorted(rays, key=lambda y: (sum(vectors[y]), vectors[y]))
    k = len(basis)
    span = _saturated_span_basis(rays, k)
    data = _MatrixData(IntMatrix.from_cols(span, rows=k))
    rays_z = []
    for y in rays:
        z, residue = _lattice_reduce(data, y)
        if any(residue):
            raise ArithmeticError(f"{y} does not lie in the lattice of the span basis")
        rays_z.append(z)
    candidates = set(rays_z)
    for simplex in _pulling_triangulation(rays_z, len(span)):
        candidates.update(_parallelepiped_points([rays_z[i] for i in simplex]))
    candidates.discard((0,) * len(span))
    return minimal_elements(_combination(basis, _combination(span, z)) for z in candidates)


def _completion(gram: list, budget: int):
    """Contejean-Devie completion: the minimal nonzero nonnegative solutions
    of a homogeneous system, its Hilbert basis.

    The system ``sum_l x_l c_l = 0`` is given by the Gram matrix
    ``gram[l][j] = c_l . c_j`` of its columns.  The search runs breadth-first
    by 1-norm from the unit vectors.  A vector x whose defect
    ``v = sum_l x_l c_l`` is zero is a minimal solution and is not extended;
    otherwise x extends to ``x + e_j`` only when ``v . c_j < 0``, and a new
    vector that dominates a known minimal solution is pruned.

    Each node carries ``d = (v . c_l)_l`` and ``|v|^2`` instead of v: moving to
    ``x + e_j`` adds ``gram[j]`` to d and ``2 d_j + gram[j][j]`` to ``|v|^2``,
    so the extension test is ``d_j < 0`` and the zero test ``|v|^2 == 0``.

    Dominance is tested in one bucket of an index by (coordinate, value),
    which rests on two invariants:

    * no frontier vector is dominated by a known solution: it was tested
      against every solution of smaller 1-norm when it was generated, and a
      unit vector in the frontier has a nonzero column, so no solution lies
      below it; and
    * a vector of the same 1-norm is ``<=`` it only when equal to it;

    so a solution ``b <= y = x + e_j`` is not ``<= x``, which forces
    ``b[j] == y[j]``.  Solutions are recorded as soon as they are generated.

    Budget: the unit vectors and every new vector that survives pruning
    count as generated nodes.  The result is None as soon as more than
    ``budget`` nodes are generated; the count only grows, so this is the
    same decision as counting to the end.  Otherwise the result is the
    sorted list of the solutions found.
    """
    ncols = len(gram)
    if ncols > budget:
        return None
    found: list = []
    index: list = [{} for _ in range(ncols)]  # index[j][v]: the solutions found with x_j = v > 0
    frontier: dict = {}
    for j in range(ncols):
        e = (0,) * j + (1,) + (0,) * (ncols - j - 1)
        if gram[j][j]:
            frontier[e] = (gram[j], gram[j][j])
        else:  # a zero column: e is a solution, and no vector extends along it
            found.append(e)
    visited = ncols
    while frontier:
        nxt: dict = {}
        for x, (d, sq) in frontier.items():
            for j, dj in enumerate(d):
                if dj >= 0:
                    continue
                yj = x[j] + 1
                y = x[:j] + (yj,) + x[j + 1:]
                if y in nxt:
                    continue
                for b in index[j].get(yj, ()):
                    if all(map(le, b, y)):
                        break  # y dominates a known solution
                else:
                    visited += 1
                    if visited > budget:
                        return None
                    g = gram[j]
                    ysq = sq + 2 * dj + g[j]
                    if ysq:
                        nxt[y] = (tuple(map(add, d, g)), ysq)
                    else:
                        found.append(y)
                        for i, v in enumerate(y):
                            if v:
                                index[i][v] = index[i].get(v, ()) + (y,)
        frontier = nxt
    return sorted(found)


_BOX_BUDGET = 20000


def hilbert_kernel(M: IntMatrix) -> SolutionSet:
    """Minimal nonzero elements (Hilbert basis) of ``{x in N^c : M x = 0}``.

    One exact route, the pulling triangulation
    (``_hilbert_basis_geometric``) of the nonnegative kernel cone over M's
    saturated kernel basis, the two calls ``_geometric_solutions`` makes;
    a cone without rays is {0}, whose basis is empty.  Cached per matrix.

    No solve calls it, and the package does not export it; it stays in
    this module because the benchmark's layer tracer
    (``perfbench/layers.py``) wraps it.
    """
    data = _matrix_data(M)
    if data.hilbert is None:
        basis = data.kernel_basis()
        data.hilbert = tuple(_hilbert_basis_geometric(basis, _kernel_cone_rays(basis)))
    return SolutionSet.of(M.cols, data.hilbert)


def min_nonneg_solutions(M: IntMatrix, b: IntVector) -> SolutionSet:
    """Componentwise-minimal elements of ``{x in N^c : M x = b}``.

    Empty exactly when the system has no nonnegative integer solution; for
    ``b = 0`` the unique minimal solution is the zero vector.

    A system that a certificate shows infeasible is answered empty before
    any route runs (``_start``): b outside the span of M, outside
    ``cone(M)``, or outside the lattice ``Z M``.  Past the certificates
    the polyhedron ``{x >= 0 : M x = b}`` is not empty, and the lattice
    test has left a particular integer solution x0, where every route
    starts.

    Past them, three exact routes answer; the first two are ``_walks``:

    1. a pointed system (the grading w is positive on every nonzero
       column) is answered by one box walk in the graded box
       ``x_j <= floor(w . b / w . M_j)``, 0 on a zero column
       (``_MatrixData.graded_box``).  Every minimal solution lies in that
       box, since ``w . b`` is the sum of the nonnegative ``x_j w . M_j``,
       and every solution in it is minimal: two of them differ by a kernel
       vector that is zero on the zero columns, and a nonnegative one is
       zero elsewhere too;
    2. a system that is not pointed, or whose graded walk overflows
       ``_BOX_BUDGET``, takes the signed walk (``_signed_solutions``): one
       box walk over ``ker M'`` in the box of the vertices plus the
       circuits, and a minimality filter.  M' merges each negation pair
       (``_negation_pairs``) into one coordinate free in sign; a matrix
       without pairs is its own M';
    3. a signed walk that overflows ``_BOX_BUDGET`` hands the system to
       the triangulation of the homogenized cone with exact
       parallelepiped enumeration (``_geometric_solutions``), whose
       candidate count is the sum of simplex determinants.

    No route calls the kernel Hilbert basis (``hilbert_kernel``).

    A caller that needs only whether a solution exists should call
    ``has_nonneg_solution``, which takes the same walks and stops at the
    first solution.
    """
    b, data, answer = _memoised(M, b)
    if answer is None:
        answer = _min_nonneg_uncached(M, data, b)
        _bounded_put(data.solutions, b, answer, _SOLUTIONS_CAP)
    return answer


def has_nonneg_solution(M: IntMatrix, b: IntVector) -> bool:
    """Whether ``M x = b`` has a nonnegative integer solution: the truth
    value of ``min_nonneg_solutions(M, b)``, without enumerating every
    minimal solution when one suffices.

    A memoised full answer decides; then the infeasibility certificates;
    then, on every system, the walks of the full solve (``_walks``), each
    stopping at the first solution it reaches.  A walk that ends without
    one is a full answer, no solution, and is memoised like the
    certificates' "no".  A "yes" is not a full answer: it goes to a
    separate per-matrix memo, ``feasible``, bounded by ``_SOLUTIONS_CAP``
    too, and never to ``solutions``.  Only when both walks overflow
    ``_BOX_BUDGET`` is the question answered in full, by the triangulation
    from the same x0 (``_geometric_solutions``), and memoised.
    """
    b, data, answer = _memoised(M, b)
    if answer is not None:
        return bool(answer)
    if b in data.feasible:
        return True
    x0 = _start(data, b)
    found = [] if x0 is None else _walks(data, b, x0, first=True)
    if found is None:
        found = _geometric_solutions(M, data, x0)
    elif found:
        _bounded_put(data.feasible, b, True, _SOLUTIONS_CAP)
        return True
    _bounded_put(data.solutions, b, SolutionSet.of(M.cols, found), _SOLUTIONS_CAP)
    return bool(found)


def _memoised(M: IntMatrix, b: IntVector) -> tuple:
    """``(b, data, answer)``, the opening both solver entries share: b as
    a vector with one entry per row of M, M's cached data, and the memoised full
    answer for b, or None.  ``b = 0`` is answered by the zero vector,
    without looking M up."""
    b = vec(b)
    if len(b) != M.rows:
        raise ValueError(f"right-hand side has dim {len(b)}, expected {M.rows}")
    if vec_is_zero(b):
        return b, None, SolutionSet(M.cols, ((0,) * M.cols,))
    data = _matrix_data(M)
    return b, data, data.solutions.get(b)


def _start(data: _MatrixData, b: IntVector):
    """An integer solution x0 of ``M x = b`` (sign unrestricted), where the
    walks start, or None when a certificate shows that ``M x = b`` has no
    nonnegative integer solution.  All three are exact: b is outside the
    span when some span equation e has ``e . b != 0``, outside ``cone(M)``
    when some facet normal phi has ``phi . b < 0`` (Farkas' lemma), and
    outside ``Z M`` when it has no particular solution
    (``_particular_solution``).

    ``Z M = Z M'`` for the merged matrix M' of ``_MatrixData.merged``, so
    the lattice test and its solution w are taken on M', and the one
    M'-to-M map, ``_unmerge``, expands w to x0: M's own echelon is built
    only if the triangulation needs its kernel basis."""
    normals, equations = data.cone
    for e in equations:
        if sum(map(mul, e, b)):
            return None
    for phi in normals:
        if sum(map(mul, phi, b)) < 0:
            return None
    merged, pairs = data.merged
    w = _particular_solution(merged, b)
    return w if w is None or merged is data else _unmerge(pairs, w, data.M.cols)


def _unmerge(pairs, w, n: int) -> IntVector:
    """The map from a point w of the merged matrix M' back to M, for the
    ``pairs`` of ``_MatrixData.merged``: ``(x_j, x_k) = (w_j+, w_j-)``
    over each negation pair, ``x_j = w_j`` on an unpaired column."""
    x = [0] * n
    for (j, k), v in zip(pairs, w):
        x[j if k is None or v >= 0 else k] = v if k is None else abs(v)
    return tuple(x)


def _min_nonneg_uncached(M: IntMatrix, data: _MatrixData, b: IntVector) -> SolutionSet:
    x0 = _start(data, b)
    points = [] if x0 is None else _walks(data, b, x0)
    return _geometric_solutions(M, data, x0) if points is None else SolutionSet.of(M.cols, points)


def _walks(data: _MatrixData, b: IntVector, x0, first: bool = False):
    """The minimal solutions of ``M x = b`` from ``M x0 = b``: the graded
    walk on a pointed system, then, when the system is not pointed or that
    walk overflows ``_BOX_BUDGET``, the signed walk.  None when the signed
    walk overflows too.  With ``first``, each walk stops at its first
    solution, so the list holds at most one solution, not always minimal,
    and is empty exactly when there is none."""
    bound = data.graded_box(b)
    points = None if bound is None else _box_solutions(data, x0, bound, budget=_BOX_BUDGET, first=first)
    return _signed_solutions(data, b, x0, first) if points is None else points


def _signed_solutions(data: _MatrixData, b: IntVector, x0, first: bool = False):
    """The minimal solutions of ``M x = b``, for a b past the certificates,
    by one walk on the merged matrix M' of ``_MatrixData.signed``; None
    when the walk overflows ``_BOX_BUDGET``.  With ``first``, the walk's
    first point alone, unfiltered: every point of the box maps to a
    solution, and the box holds every minimal one, so it is empty exactly
    when there is no solution.

    A pair's coordinate w_j of M' is free in sign, and stands for
    ``(x_j, x_k) = (w_j+, w_j-)``.  No minimal x has both positive, since
    ``e_j + e_k`` is a nonnegative kernel vector, and between such x,
    ``x <= x'`` holds iff ``w`` is conformally below ``w'`` (same signs,
    ``|w| <= |w'|``).  So the minimal elements of the walk's images are
    the answer once the box holds every conformally minimal w.  It does:
    in its orthant, w is a vertex of ``{w : M' w = b}`` there plus a sum
    of conformal circuits with coefficients below 1 (a coefficient of 1 or
    more would leave ``w - c``, conformally smaller), so ``|w_j|`` is at
    most the largest ``ceil(|(B^-1 b)_j|)`` over the bases whose solution
    keeps unpaired coordinates nonnegative, plus ``slack_j``.  The box is
    closed under going conformally down, so the filter inside it is exact.
    The walk starts from ``x0`` mapped to M' (``w_j = x_j - x_k`` over
    each pair), shifted by the box on the free coordinates, and each of
    its points maps back to M by ``_unmerge``, the map ``_start`` uses for
    x0.
    Without pairs, M' is M, the circuits are the extreme rays of
    ``ker M intersect N^n``, the box is the vertices plus sub-unit
    multiples of those rays, and the filter is plain minimality."""
    merged, pairs, rows, bases, slack = data.signed
    rhs = [b[i] for i in rows]
    ceilings = [0] * len(pairs)
    for B, inv, d in bases:
        y = [vec_dot(row, rhs) for row in inv]
        if all(v >= 0 or pairs[j][1] is not None for j, v in zip(B, y)):
            for j, v in zip(B, y):
                ceilings[j] = max(ceilings[j], _ceil_div(abs(v), d))
    box = vec_add(ceilings, slack)
    low = tuple(k if partner is not None else 0 for k, (_, partner) in zip(box, pairs))
    w0 = tuple(x0[j] - (0 if k is None else x0[k]) + s for (j, k), s in zip(pairs, low))
    points = _box_solutions(merged, w0, vec_add(box, low), budget=_BOX_BUDGET, first=first)
    if points is None:
        return None
    out = [_unmerge(pairs, vec_sub(p, low), data.M.cols) for p in points]
    return out if first else minimal_elements(out)


def _geometric_solutions(M: IntMatrix, data: _MatrixData, x0) -> SolutionSet:
    """The triangulation route of ``min_nonneg_solutions`` for ``b = M x0``
    past the certificates: the height-one Hilbert basis elements of the
    homogenized cone ``{(x, t) >= 0 : M x = t b}``.

    ``(x, t) - t (x0, 1)`` lies in ``ker_Z M x {0}``: the kernel basis
    padded with ``t = 0`` plus ``(x0, 1)`` is a basis of the saturated
    integer kernel of ``[M | -b]``, in whose coordinates
    ``_kernel_cone_rays`` finds the cone's rays.
    """
    basis = [h + (0,) for h in data.kernel_basis()] + [tuple(x0) + (1,)]
    hilbert = _hilbert_basis_geometric(basis, _kernel_cone_rays(basis))
    return SolutionSet.of(M.cols, [x[:-1] for x in hilbert if x[-1] == 1])


def rational_rank(M: IntMatrix) -> int:
    """Rank of the matrix over the rationals: the pivot count of one
    fraction-free elimination."""
    return len(_fraction_free_reduce([list(row) for row in M.data], M.cols)[0])


def rational_kernel_basis(M: IntMatrix) -> list:
    """A canonical primitive integer basis of ``{x in Q^c : M x = 0}``.

    Computed from d times the reduced row echelon form: one basis vector
    per free column, content reduced, first nonzero entry made positive,
    rows sorted.  This spans the kernel over Q (which is all the
    face-membership tests need); it is not required to be a lattice basis.
    """
    n = M.cols
    a = [list(row) for row in M.data]
    pivots, d = _fraction_free_reduce(a, n)
    basis = []
    for j in range(n):
        if j in pivots:
            continue
        v = [0] * n
        v[j] = d
        for row, pc in zip(a, pivots):
            v[pc] = -row[j]
        v = primitive(v)
        if next(x for x in v if x) < 0:
            v = tuple(-x for x in v)
        basis.append(v)
    return sorted(basis)
