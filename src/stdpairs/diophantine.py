"""Exact integer linear algebra.

This module is the computational kernel of the package: everything else
reduces its questions (membership in a monoid, properness of a pair,
intersection of translated submonoids, ...) to finding the componentwise
minimal nonnegative integer solutions of a linear system ``M x = b``.

The solver works lattice-geometrically, entirely over Python integers, so
nothing overflows and nothing is rounded.  Two exact reductions carry it:
one fraction-free (Bareiss) elimination, ``_fraction_free_reduce``, gives
every rank, rational kernel, inverse and lattice coordinate, and one
unimodular column echelon, ``_column_echelon``, every lattice step:

* one echelon pass over ``[M; I]`` per matrix gives particular solutions
  of ``M x = b`` by forward substitution and a saturated basis of the
  integer kernel lattice, already in the echelon form the box walk needs
  (its x-rows visited with each column next to its negation);
* the extreme rays of the nonnegative solution cone come from a
  fraction-free double description in kernel coordinates, the same engine
  that finds the facets of a cone as the extreme rays of its dual;
* a pulling triangulation of the rays reduces the Hilbert basis to the
  lattice points of finitely many half-open parallelepipeds, enumerated
  exactly via the residue classes of an echelon basis of each simplex's
  lattice (a minimal lattice point has all simplex coefficients below one);
* inhomogeneous systems are homogenized with one slack coordinate t: the
  minimal solutions of ``M x = b`` are the height-one Hilbert basis
  elements of the cone ``{(x, t) >= 0 : M x = t b}``, whose extreme rays
  give both the box of the lattice walk and the triangulation;
* the lattice walk yields the minimal solutions directly: a solution is
  minimal iff it lies above no element of the Hilbert basis H of
  ``ker M intersect N^n`` (another solution below it differs from it by a
  nonzero element of that monoid), so the walk skips each coefficient
  whose partial solution already lies above some h in H on h's support.

Most systems the library asks about have no solution.  Before any tier
runs, three exact certificates settle most of them with a few dot
products over cached cone data: b is outside the span of M (a span
equation is nonzero on it), outside ``cone(M)`` (a facet normal is
negative on it, Farkas' lemma), or outside the lattice ``Z M`` (forward
substitution on the echelon leaves a remainder; needed only when some
echelon pivot exceeds 1).  The facets come from the double description
below, once per matrix, or from the ``AffineMonoid`` over M, which has
already enumerated them.

Most systems the library solves are pointed: the sum w of the facet
normals, a grading, is positive on every nonzero column, so ``w . b``
bounds every solution and ``ker M`` holds no nonzero nonnegative vector
off the zero columns.  One box walk in that graded box answers them, with
no kernel Hilbert basis (``_MatrixData.graded_box``).  Every other system
takes one route: the kernel Hilbert basis, then the box walk in the
homogenized cone's box, pruned by that basis, and the triangulation only
when the walk outgrows its budget, so the worst case stays predictable.
The kernel Hilbert basis itself has three tiers: the two cheap ones first,
a short box walk and then a budgeted Contejean-Devie completion, because
they fail on opposite inputs; only then the triangulation
(``hilbert_kernel``).  Cone data, kernel data and the answers for up to
``_SOLUTIONS_CAP`` right-hand sides are cached per matrix, for up to
``_MATRIX_CACHE_CAP`` matrices.

Most callers only ask whether a solution exists.  They call
``has_nonneg_solution``, which runs the same certificates and, on a
pointed system, the same walk, stopping at the first solution it finds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import gcd
from operator import add, le, mul, sub
from typing import Iterable, Iterator, Sequence

IntVector = tuple  # tuple[int, ...]; kept loose so plain tuples interoperate


def vec(entries: Iterable[int]) -> IntVector:
    return tuple(map(int, entries))


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
        return [self.col(j) for j in range(self.cols)]

    def mul(self, x: IntVector) -> IntVector:
        """Matrix times column vector."""
        if len(x) != self.cols:
            raise ValueError("dimension mismatch in matrix-vector product")
        return tuple(sum(map(mul, r, x)) for r in self.data)

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
        body = " ".join(str(a) for r in self.data for a in r)
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
    echelon form in the walk order (``_MatrixData.reduction``)."""
    return _MatrixData(M).kernel_basis()


def _combination(basis: list, y) -> IntVector:
    """``sum_i y_i basis_i``: a vector from its coordinates in a basis."""
    return tuple(sum(a * b for a, b in zip(y, col)) for col in zip(*basis))


@dataclass
class _MatrixData:
    """Per-matrix cache: the data the infeasibility certificates read (the
    facet normals and span equations of ``cone(M)``, and whether ``Z M`` is
    saturated), the grading the normals give and whether the system is
    pointed in it (``graded_box``), one column echelon reduction
    (particular solutions, kernel lattice, echelon walk data), the box
    walk's per-level tests, the kernel Hilbert basis (``hilbert``, which
    prunes the walk of a system that is not pointed), the full answers per
    right-hand side (``solutions``) and the right-hand sides
    ``has_nonneg_solution`` found solvable (``feasible``).  The cone data
    is filled lazily by ``_facets_of_cone``, or by ``store_cone`` from
    facets a caller (``AffineMonoid``) has already enumerated, so each
    matrix's cone is enumerated once while its entry stays in
    ``_MATRIX_CACHE``."""

    M: IntMatrix
    hilbert: tuple | None = None
    solutions: dict = field(default_factory=dict)
    feasible: dict = field(default_factory=dict)
    _cone: tuple | None = None
    _grading: tuple | None = None
    _saturated: bool | None = None
    _reduction: tuple | None = None
    _echelon: tuple | None = None
    _walk: list | None = None
    _prune: tuple | None = None

    def cone(self):
        """``(normals, equations)``: the primitive inner facet normals and
        the span equations of ``cone(M)``, as tuples of row tuples.

        When the negation of every column is a column too, as in the
        ``[A | -A]`` of a principal cover, ``cone(M)`` is its linear span and
        has no facets: the double description would find none, so only the
        equations are computed."""
        if self._cone is None:
            cols = self.M.columns()
            present = set(cols)
            if all(tuple(-a for a in c) in present for c in cols):
                self.store_cone([], rational_kernel_basis(self.M.transpose()))
            else:
                self.store_cone(*_facets_of_cone(cols, self.M.rows))
        return self._cone

    def store_cone(self, facets, equations) -> None:
        """Keep the ``_facets_of_cone(M.columns(), M.rows)`` result a caller
        has already computed."""
        self._cone = (tuple(phi for phi, _ in facets), tuple(equations))

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
        The grading is computed once."""
        if self._grading is None:
            w = tuple(map(sum, zip(*self.cone()[0])))
            cols = self.M.columns()
            values = tuple(vec_dot(w, c) for c in cols)
            self._grading = (w, values) if all(v > 0 or not any(c) for v, c in zip(values, cols)) else ()
        if not self._grading:
            return None
        wb = vec_dot(self._grading[0], b)
        return tuple(wb // v if v else 0 for v in self._grading[1])

    def saturated(self) -> bool:
        """True when every pivot of the first r columns of ``reduction()``,
        an echelon basis of ``Z M``, is 1.  Then each coordinate of a span
        vector in that basis is read off at a pivot row without a division,
        so ``Z M`` is ``span intersect Z^m`` and the span test decides
        lattice membership.  The test is sufficient, not exact: ``Z (3, 2)``
        is saturated, yet its echelon pivot is 3."""
        if self._saturated is None:
            cols, pivots, r = self.reduction()
            self._saturated = all(c[p] == 1 for c, p in zip(cols[:r], pivots))
        return self._saturated

    def reduction(self):
        """``(columns, pivot rows, r)`` of one unimodular column echelon pass
        over ``[M; I]``, whose column j is ``M[:, j]`` over ``e_j``.

        The pass visits M's rows first, then the rows of I in the walk order
        of M's columns (``_walk_order``).  The first r columns have their
        pivots among M's rows, so they do not depend on that order.  The
        others are zero on M, so their tails (the rows of I) are a saturated
        basis of ``ker_Z M``; the pass reduces them on those rows too, so the
        tails are in column echelon form on the x-coordinates, in the walk
        order.  Pivot rows are indices of ``[M; I]``, like everything the
        walk reads.
        """
        if self._reduction is None:
            m, n = self.M.rows, self.M.cols
            columns = self.M.columns()
            stacked = [c + tuple(int(i == j) for i in range(n)) for j, c in enumerate(columns)]
            order = list(range(m)) + [m + j for j in _walk_order(columns)]
            cols, pivots = _column_echelon(stacked, m + n, order)
            self._reduction = (cols, pivots, sum(p < m for p in pivots))
        return self._reduction

    def kernel_basis(self):
        return self.echelon()[0]

    def echelon(self):
        """Echelon kernel columns, pivot rows, and per-level determined rows."""
        if self._echelon is None:
            m, n = self.M.rows, self.M.cols
            full, full_pivots, r = self.reduction()
            cols = [c[m:] for c in full[r:]]
            pivots = [p - m for p in full_pivots[r:]]
            level = [max((j + 1 for j, c in enumerate(cols) if c[row]), default=0) for row in range(n)]
            determined = [[row for row in range(n) if level[row] == i] for i in range(len(cols) + 1)]
            self._echelon = (cols, pivots, determined)
        return self._echelon

    def walk_plan(self):
        """Per level i of the box walk: the pivot row of kernel column i and
        its entry, the other rows the level determines split by the sign of
        their entry (negative ones negated), and the column's nonzero
        entries."""
        if self._walk is None:
            cols, pivots, determined = self.echelon()
            plan = []
            for i, (col, p) in enumerate(zip(cols, pivots)):
                rows = [(r, col[r]) for r in determined[i + 1] if r != p]
                plan.append((
                    p,
                    col[p],
                    [(r, c) for r, c in rows if c > 0],
                    [(r, -c) for r, c in rows if c < 0],
                    [(r, c) for r, c in enumerate(col) if c],
                ))
            self._walk = plan
        return self._walk

    def prune_plan(self, above):
        """The vectors h of ``above`` (nonzero kernel vectors) grouped by the
        walk level that determines the last row of their support: per level i,
        ``(fixed, rows)`` with ``fixed`` the ``(row, h_row)`` fixed before it
        and ``rows`` the ``(row, h_row, column i's entry)`` it determines.
        Cached for the last ``above`` asked for."""
        if self._prune is None or self._prune[0] is not above:
            cols, _, determined = self.echelon()
            level = {r: i for i, rows in enumerate(determined) for r in rows}
            plan = [[] for _ in cols]
            for h in above:
                support = [r for r, v in enumerate(h) if v]
                top = max(level[r] for r in support)
                plan[top - 1].append((
                    [(r, h[r]) for r in support if level[r] < top],
                    [(r, h[r], cols[top - 1][r]) for r in support if level[r] == top],
                ))
            self._prune = (above, plan)
        return self._prune[1]


def _walk_order(columns: list) -> list:
    """The order in which ``reduction`` visits the x-rows: each nonzero
    column is followed by the first unused later column equal to its
    negation, and every other column keeps its place.

    A pair difference ``[G | -G']`` has the kernel vector ``(e_j, e_k)``
    for every column j of G equal to column k of G'.  An echelon column
    vanishes on the rows visited before its pivot, so a row is fixed once
    the walk has fixed the columns whose pivots come no later than it.
    With the two rows next to each other, the box walk settles such a
    vector (prunes it, or cuts the range of its rows) early, instead of at
    the last level.
    """
    waiting, partner = {}, {}  # waiting[v]: unpaired earlier columns equal to -v
    for k, c in enumerate(columns):
        if waiting.get(c):
            partner[waiting[c].pop(0)] = k
        elif any(c):
            waiting.setdefault(tuple(-a for a in c), []).append(k)
    paired = set(partner.values())
    order = []
    for j in range(len(columns)):
        if j not in paired:
            order.append(j)
            if j in partner:
                order.append(partner[j])
    return order


def _column_echelon(cols: list, dim: int, order: Sequence[int] | None = None) -> tuple:
    """Unimodular column operations to echelon form with positive pivots;
    returns (cols, pivot rows).

    The pass visits the rows in ``order`` (all ``dim`` rows in index order
    by default) and changes only the columns from its current lead on.  In
    each row it reduces them by the one of least absolute value there,
    rounding quotients to the nearest integer, until one column is left
    nonzero in that row: least-remainder Euclid steps keep the entries
    small.  So the pivots come in visiting order, and each column is zero
    on every row visited before its pivot.
    """
    cols = [list(c) for c in cols]
    k = len(cols)
    pivots = []
    lead = 0
    for row in range(dim) if order is None else order:
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


def _box_solutions(data: _MatrixData, x0, bound, budget: int | None = None, above=(), first: bool = False):
    """Solutions ``x = x0 + (kernel lattice)`` with ``0 <= x <= bound`` that
    lie above no vector of ``above``; with ``first``, only the first one the
    walk reaches (a yes to "is there one?").

    The walk fixes one echelon coefficient per level.  Each level takes the
    coefficient range that keeps every row it determines in ``[0, bound]``
    and skips the coefficients whose child lies above some h in ``above``
    on h's support, tested at the level that determines the last row of
    that support; deeper levels never change those rows.  With ``above``
    the Hilbert basis of ``ker M intersect N^n``, the walk yields exactly
    the minimal solutions in the box: a solution x is not minimal iff
    ``x >= h`` for some such h, since then ``x - h`` is a smaller solution
    (in the box too), and ``x - y`` is a nonzero element of that monoid,
    so above some h, for any other solution ``y <= x``.

    The walk is exact for any echelon basis of ``ker_Z M`` in any row
    order: later columns vanish on the pivot row of column i, so that row
    is final once level i fixes column i's coefficient, and each level's
    range is finite.  The row order (``_walk_order``) only decides how
    early the range cuts and the prune act.

    Budget: each visited node counts the span of its pivot row's range.
    Returns None when the count passes ``budget`` (with ``first``: before
    a solution is reached).  Pruning only drops nodes, so a pruned walk
    overflows only where the unpruned one does.
    """
    plan = data.walk_plan()
    prune = data.prune_plan(above)
    for r in data.echelon()[2][0]:
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
        skips = []
        for fixed, rows in prune[i]:
            for r, v in fixed:
                if x[r] < v:
                    break
            else:
                a, b = lo, hi
                for r, v, c in rows:
                    if c > 0:
                        a = max(a, -((x[r] - v) // c))
                    else:
                        b = min(b, (x[r] - v) // -c)
                if a <= b:
                    skips.append((a, b))
        skips.sort()
        skips.append((hi + 1, hi))
        y = lo
        for a, b in skips:
            for z in range(y, a):
                nxt = x[:]
                for r, c in col:
                    nxt[r] += z * c
                if i + 1 == k:
                    out.append(tuple(nxt))
                    if first:
                        return False
                elif not rec(i + 1, nxt):
                    return False
            y = max(y, b + 1)
        return True

    if k == 0:
        return [tuple(x0)]
    if not rec(0, list(x0)) and not (first and out):
        return None
    return out


def _lattice_reduce(data: _MatrixData, b) -> tuple:
    """``(x, residue)`` with ``b = M x + residue``, by forward substitution
    with floor quotients on the columns of ``data.reduction()`` with a pivot
    among M's rows.  Later columns vanish on each pivot row, which keeps its
    remainder modulo the positive pivot, so the residue is canonical modulo
    ``Z M``: zero iff ``b`` lies in ``Z M``, equal for congruent vectors."""
    cols, pivots, r = data.reduction()
    m = data.M.rows
    residue = list(b)
    x = [0] * data.M.cols
    for col, p in zip(cols[:r], pivots):
        q = residue[p] // col[p]
        residue = [a - q * c for a, c in zip(residue, col)]
        x = [a + q * c for a, c in zip(x, col[m:])]
    return tuple(x), tuple(residue)


def lattice_residue(M: IntMatrix, b: IntVector) -> IntVector:
    """The canonical representative of ``b`` modulo the lattice ``Z M``."""
    return _lattice_reduce(_matrix_data(M), b)[1]


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


def _coords_in_basis(basis: list, targets: list, dim: int) -> list:
    """Exact integer coordinates of targets in a basis of independent vectors.

    One fraction-free pass over the rows of ``[basis | targets]`` leaves
    ``d [I | Z]`` above ``[0 | W]``: a target lies in the span iff its
    column of W is zero, and its coordinates are then its column of Z.
    """
    k = len(basis)
    work = [[v[r] for v in basis] + [t[r] for t in targets] for r in range(dim)]
    _, d = _fraction_free_reduce(work, k)
    top, rest = work[:k], work[k:]
    out = []
    for j, t in enumerate(targets, k):
        if any(row[j] for row in rest):
            raise ArithmeticError(f"{t} does not lie in the span of the basis")
        z = [divmod(row[j], d) for row in top]
        if any(rem for _, rem in z):
            raise ArithmeticError(f"{t} has no integer coordinates in the basis")
        out.append(tuple(q for q, _ in z))
    return out


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


def _kernel_cone_rays(basis: list, ncols: int) -> list:
    """Extreme rays of ``{y : sum_i y_i basis_i >= 0}``, the nonnegative
    kernel cone in the coordinates of a kernel basis of a matrix with
    ``ncols`` columns.  Its constraints (one per column) have full column
    rank because the basis is independent."""
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
    candidates and the rays.
    """
    if not rays:
        return []
    vectors = {y: _combination(basis, y) for y in rays}
    rays = sorted(rays, key=lambda y: (sum(vectors[y]), vectors[y]))
    k = len(basis)
    span = _saturated_span_basis(rays, k)
    rays_z = _coords_in_basis(span, rays, k)
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
    same decision as counting to the end.  The caller then switches to the
    triangulation, which has predictable cost.  Otherwise the result is the
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


_CD_BUDGET = 500


_BOX_BUDGET = 20000


def hilbert_kernel(M: IntMatrix) -> SolutionSet:
    """Minimal nonzero elements (Hilbert basis) of ``{x in N^c : M x = 0}``.

    Every minimal element lies in a half-open parallelepiped of a
    triangulated simplicial subcone, hence below the componentwise sum of
    all extreme rays.  Three exact tiers follow; the first that finishes
    answers:

    1. the box walk below that sum, unpruned (the basis is what it looks
       for), keeping its minimal nonzero points, for ``_CD_BUDGET`` units;
    2. completion (``_completion``) on the Gram matrix of M's columns, for
       ``_CD_BUDGET`` nodes: it yields exactly the minimal nonzero
       solutions;
    3. the triangulation, enumerating the parallelepipeds directly.

    The two cheap tiers fail on opposite inputs.  The box of ``[A | -A]``
    with one or two rows and six or more columns is huge, while completion
    finds its basis in a few hundred nodes; completion explodes on systems
    with three or more rows, whose box walk is short.  So the short walk
    goes first, and a matrix that overflows it costs one completion before
    the triangulation.  Cached per matrix.
    """
    data = _matrix_data(M)
    if data.hilbert is None:
        basis = data.kernel_basis()
        rays = _kernel_cone_rays(basis, M.cols)
        data.hilbert = tuple(_kernel_hilbert_basis(data, basis, rays) if rays else ())
    return SolutionSet.of(M.cols, data.hilbert)


def _kernel_hilbert_basis(data: _MatrixData, basis: list, rays: list) -> list:
    """The sorted Hilbert basis of ``ker M intersect N^n`` by the tiers of
    ``hilbert_kernel``, given a nonempty list of its kernel cone rays."""
    bound = tuple(map(sum, zip(*(_combination(basis, y) for y in rays))))
    zero = (0,) * data.M.cols
    points = _box_solutions(data, zero, bound, budget=_CD_BUDGET)
    if points is not None:
        return minimal_elements(x for x in points if x != zero)
    cols = data.M.columns()
    found = _completion([tuple(vec_dot(a, c) for c in cols) for a in cols], _CD_BUDGET)
    return found if found is not None else _hilbert_basis_geometric(basis, rays)


def min_nonneg_solutions(M: IntMatrix, b: IntVector) -> SolutionSet:
    """Componentwise-minimal elements of ``{x in N^c : M x = b}``.

    Empty exactly when the system has no nonnegative integer solution; for
    ``b = 0`` the unique minimal solution is the zero vector.

    A system that a certificate shows infeasible is answered empty before
    any tier runs (``_infeasible``): b outside the span of M, outside
    ``cone(M)``, or outside the lattice ``Z M``.  Past the certificates a
    particular integer solution exists and the polyhedron
    ``{x >= 0 : M x = b}`` is not empty.

    A pointed system (the grading w is positive on every nonzero column)
    is answered by one box walk, unpruned, in the graded box
    ``x_j <= floor(w . b / w . M_j)``, 0 on a zero column
    (``_MatrixData.graded_box``).  Every minimal solution lies in that
    box, since ``w . b`` is the sum of the nonnegative ``x_j w . M_j``,
    and every solution in it is minimal: two of them differ by a kernel
    vector that is zero on the zero columns, and a nonnegative one is zero
    elsewhere too.  Only a walk that overflows ``_BOX_BUDGET`` goes on to the
    route below.  Every other system takes the kernel Hilbert basis
    (``hilbert_kernel``) and then two exact tiers, routed by a work budget:

    1. lattice walk of the box below (sum of kernel rays) + (componentwise
       vertex ceiling), which bounds every minimal solution because a
       height-one point of the homogenized cone is a sub-one combination
       of kernel rays plus a convex combination of vertices, all of them
       rays of that cone (``_homogenized_cone``).  The walk is pruned by
       the cached kernel Hilbert basis H and yields exactly the minimal
       solutions: a solution x is not minimal iff ``x >= h`` for some h
       in H, because ``x - y`` is a nonzero element of ``ker M intersect
       N^n`` for any other solution ``y <= x``; it gives up after
       ``_BOX_BUDGET`` units of pivot-row range;
    2. triangulation of the same rays with exact parallelepiped
       enumeration, whose candidate count is the sum of simplex
       determinants.

    A caller that needs only whether a solution exists should call
    ``has_nonneg_solution``, which stops at the first one.
    """
    b = vec(b)
    if len(b) != M.rows:
        raise ValueError(f"right-hand side has dim {len(b)}, expected {M.rows}")
    if vec_is_zero(b):
        return SolutionSet.of(M.cols, [(0,) * M.cols])
    data = _matrix_data(M)
    cached = data.solutions.get(b)
    if cached is not None:
        return cached
    result = _min_nonneg_uncached(M, data, b)
    _bounded_put(data.solutions, b, result, _SOLUTIONS_CAP)
    return result


def has_nonneg_solution(M: IntMatrix, b: IntVector) -> bool:
    """Whether ``M x = b`` has a nonnegative integer solution: the truth
    value of ``min_nonneg_solutions(M, b)``, without enumerating every
    minimal solution when one suffices.

    A memoised full answer decides; then the infeasibility certificates.
    On a pointed system the graded box walk then stops at its first
    solution.  A walk that ends without one is a full answer, no solution,
    and is memoised like the certificates' "no".  A "yes" is not a full
    answer: it goes to a separate per-matrix memo, ``feasible``, bounded by
    ``_SOLUTIONS_CAP`` too, and never to ``solutions``.  A system that is
    not pointed, or whose walk overflows ``_BOX_BUDGET``, is answered by
    the full solve, which memoises its answer.
    """
    b = vec(b)
    if len(b) != M.rows:
        raise ValueError(f"right-hand side has dim {len(b)}, expected {M.rows}")
    if vec_is_zero(b):
        return True
    data = _matrix_data(M)
    cached = data.solutions.get(b)
    if cached is not None:
        return bool(cached)
    if b in data.feasible:
        return True
    if not _infeasible(data, b):
        bound = data.graded_box(b)
        if bound is None:
            return bool(min_nonneg_solutions(M, b))
        found = _box_solutions(data, _particular_solution(data, b), bound, budget=_BOX_BUDGET, first=True)
        if found is None:
            return bool(min_nonneg_solutions(M, b))
        if found:
            _bounded_put(data.feasible, b, True, _SOLUTIONS_CAP)
            return True
    _bounded_put(data.solutions, b, SolutionSet.of(M.cols, []), _SOLUTIONS_CAP)
    return False


def _infeasible(data: _MatrixData, b: IntVector) -> bool:
    """True when a certificate shows that ``M x = b`` has no nonnegative
    integer solution.  All three are exact: b is outside the span when some
    span equation e has ``e . b != 0``, outside ``cone(M)`` when some facet
    normal phi has ``phi . b < 0`` (Farkas' lemma), and outside ``Z M`` when
    it has no particular solution, which can happen only when ``Z M`` is
    not saturated."""
    normals, equations = data.cone()
    for e in equations:
        if sum(map(mul, e, b)):
            return True
    for phi in normals:
        if sum(map(mul, phi, b)) < 0:
            return True
    return not data.saturated() and _particular_solution(data, b) is None


def _min_nonneg_uncached(M: IntMatrix, data: _MatrixData, b: IntVector) -> SolutionSet:
    if _infeasible(data, b):
        return SolutionSet.of(M.cols, [])
    bound = data.graded_box(b)
    if bound is not None:
        points = _box_solutions(data, _particular_solution(data, b), bound, budget=_BOX_BUDGET)
        if points is not None:
            return SolutionSet.of(M.cols, points)
    if data.hilbert is None:
        hilbert_kernel(M)
    return _geometric_solutions(M, data, b)


def _geometric_solutions(M: IntMatrix, data: _MatrixData, b: IntVector) -> SolutionSet:
    """The walk and the triangulation of ``min_nonneg_solutions`` for a b
    that passed the certificates, once ``hilbert_kernel(M)`` is cached."""
    # b passed the lattice test, so x0 exists, and the cone test, so the
    # polyhedron is not empty and some ray has t > 0: bound is not None
    x0 = _particular_solution(data, b)
    basis, rays, bound = _homogenized_cone(data, x0)
    points = _box_solutions(data, x0, bound, budget=_BOX_BUDGET, above=data.hilbert)
    if points is not None:
        return SolutionSet.of(M.cols, points)

    hilbert = _hilbert_basis_geometric(basis, rays)
    return SolutionSet.of(M.cols, [x[:-1] for x in hilbert if x[-1] == 1])


def _homogenized_cone(data: _MatrixData, x0) -> tuple:
    """The rays of ``{(x, t) >= 0 : M x = t b}``, where ``M x0 = b``, and the
    box of the lattice walk.

    ``(x, t) - t (x0, 1)`` lies in ``ker_Z M x {0}``, so the kernel basis
    padded with ``t = 0`` plus ``(x0, 1)`` is a basis of the saturated
    integer kernel of ``[M | -b]``.  Returns it, the rays in its
    coordinates, and the box, which is None when no ray has ``t > 0`` (the
    polyhedron is empty).  The rays with ``t = 0`` are the kernel rays and
    those with ``t > 0`` are ``(d v, d)`` for the vertices v, so coordinate
    j is bounded by the sum of the kernel rays plus the largest
    ``ceil(r_j / t)``.
    """
    basis = [h + (0,) for h in data.kernel_basis()] + [tuple(x0) + (1,)]
    rays = _kernel_cone_rays(basis, len(basis[0]))
    xt = [_combination(basis, y) for y in rays]
    vertices = [r for r in xt if r[-1]]
    if not vertices:
        return basis, rays, None
    bound = tuple(
        sum(r[j] for r in xt if not r[-1]) + max(_ceil_div(r[j], r[-1]) for r in vertices)
        for j in range(len(x0))
    )
    return basis, rays, bound


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
