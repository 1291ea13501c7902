import ast
import random
import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import ceil, gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stdpairs.diophantine import (
    IntMatrix,
    SolutionSet,
    _completion,
    _coords_in_basis,
    _extreme_rays_dd,
    _facets_of_cone,
    _hilbert_basis_geometric,
    _homogenized_cone,
    _integer_inverse,
    _kernel_cone_rays,
    _matrix_data,
    _MatrixData,
    _box_solutions,
    _BOX_BUDGET,
    _ceil_div,
    _column_echelon,
    _combination,
    _parallelepiped_points,
    _particular_solution,
    _saturated_span_basis,
    _walk_order,
    has_nonneg_solution,
    hilbert_kernel,
    integer_kernel_basis,
    lattice_residue,
    min_nonneg_solutions,
    minimal_elements,
    primitive,
    rational_kernel_basis,
    rational_rank,
    vec_add,
    vec_dot,
    vec_leq,
    vec_sub,
)

from stdpairs import AffineMonoid, MonomialIdeal, irreducible_decomposition

from oracles import brute_hilbert, brute_min_solutions, seeded_instances
from test_acceptance import random_instances


def test_min_solutions_examples():
    M = IntMatrix.from_rows([[1, 2], [0, 2]])
    assert list(min_nonneg_solutions(M, (3, 2))) == [(1, 1)]
    assert list(min_nonneg_solutions(M, (0, 0))) == [(0, 0)]
    assert list(min_nonneg_solutions(M, (1, 1))) == []


def test_coords_in_basis_rejects_non_integer_coordinates():
    with pytest.raises(ArithmeticError, match=r"\(1,\)"):
        _coords_in_basis([(2,)], [(1,)], 1)


def test_min_solutions_dimension_mismatch():
    M = IntMatrix.from_rows([[1, 2], [0, 2]])
    with pytest.raises(ValueError):
        min_nonneg_solutions(M, (1, 2, 3))


def test_hilbert_kernel_examples():
    assert list(hilbert_kernel(IntMatrix.from_rows([[1, -1]]))) == [(1, 1)]
    assert list(hilbert_kernel(IntMatrix.from_rows([[2, -3]]))) == [(3, 2)]
    assert list(hilbert_kernel(IntMatrix.from_rows([[1, 2], [0, 2]]))) == []


def test_rank_examples():
    assert rational_rank(IntMatrix.from_rows([[1, 2], [0, 2]])) == 2
    assert rational_rank(IntMatrix.from_rows([[1, 1], [1, 1]])) == 1
    assert rational_rank(IntMatrix.zero(0, 0)) == 0


def test_zero_rhs_always_zero_solution():
    M = IntMatrix.from_rows([[3, -1, 2], [1, 1, 1]])
    assert list(min_nonneg_solutions(M, (0, 0))) == [(0, 0, 0)]


def test_zero_columns_system():
    M = IntMatrix.zero(2, 0)
    assert list(min_nonneg_solutions(M, (0, 0))) == [()]
    assert list(min_nonneg_solutions(M, (1, 0))) == []


def test_zero_rows_system():
    M = IntMatrix.zero(0, 3)
    assert list(min_nonneg_solutions(M, ())) == [(0, 0, 0)]


def test_kernel_basis_spans_orthogonal_complement():
    M = IntMatrix.from_rows([[1, 1], [1, 1]])
    basis = rational_kernel_basis(M)
    assert basis == [(1, -1)]


matrices = st.integers(1, 3).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-3, 3), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@given(matrices)
@settings(max_examples=60, deadline=None)
def test_kernel_basis_is_antichain_of_solutions(rows):
    M = IntMatrix.from_rows(rows)
    basis = list(hilbert_kernel(M))
    zero = (0,) * M.rows
    for h in basis:
        assert M.mul(h) == zero
        assert any(x > 0 for x in h)
    for a in basis:
        for b in basis:
            if a != b:
                assert not all(x <= y for x, y in zip(a, b))


@given(matrices, st.lists(st.integers(0, 5), min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_solutions_solve_and_form_antichain(rows, b):
    M = IntMatrix.from_rows(rows)
    b = tuple(b[: M.rows]) + (0,) * max(0, M.rows - len(b))
    sols = list(min_nonneg_solutions(M, b))
    for x in sols:
        assert M.mul(x) == b
        assert all(v >= 0 for v in x)
    for a in sols:
        for c in sols:
            if a != c:
                assert not all(x <= y for x, y in zip(a, c))


def test_against_brute_force_oracle():
    rng = random.Random(20240811)
    box = 25
    for _ in range(60):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        rows = [[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)]
        b = tuple(rng.randint(0, 6) for _ in range(r))
        got = list(min_nonneg_solutions(IntMatrix.from_rows(rows), b))
        expected = brute_min_solutions(rows, b, box)
        within = [x for x in got if max(x, default=0) <= box]
        assert sorted(within) == expected


def test_hilbert_against_brute_force():
    rng = random.Random(7)
    for _ in range(30):
        r = rng.randint(1, 3)
        c = rng.randint(1, 3)
        rows = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)]
        got = list(hilbert_kernel(IntMatrix.from_rows(rows)))
        expected = brute_hilbert(rows, 12)
        within = [x for x in got if max(x, default=0) <= 12]
        assert sorted(within) == expected


def test_solver_tiers_agree(monkeypatch):
    """Forcing the fallback tiers must not change any answer."""
    import stdpairs.diophantine as dio

    rng = random.Random(31337)
    cases = []
    for _ in range(25):
        r, c = rng.randint(1, 3), rng.randint(2, 4)
        rows = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)]
        b = tuple(rng.randint(0, 5) for _ in range(r))
        cases.append((rows, b))
    cases.append(([[3, 1, 1, 2, -3, -1, -1, -2], [2, 1, 3, 3, -2, -1, -3, -3]], (5, 8)))
    cases.append(([[1, 1]], (-1,)))  # lattice points, but no ray with t > 0
    cases.append(([[2, 3]], (1,)))  # a vertex, but no nonnegative integer point
    cases.append(([[1, -1, 0], [0, 1, -1]], (2, 1)))  # unbounded: rays with t = 0

    def run():
        dio._MATRIX_CACHE.clear()
        out = []
        for rows, b in cases:
            out.append(list(min_nonneg_solutions(IntMatrix.from_rows(rows), b)))
        return out

    baseline = run()
    monkeypatch.setattr(dio, "_CD_BUDGET", 0)
    box_tier = run()
    monkeypatch.setattr(dio, "_BOX_BUDGET", 0)
    triangulation_tier = run()
    assert box_tier == baseline
    assert triangulation_tier == baseline


def test_solution_set_container_protocol():
    s = SolutionSet.of(2, [(1, 0), (0, 1)])
    assert len(s) == 2 and (1, 0) in s and not s.is_empty()
    assert list(s) == [(0, 1), (1, 0)]


def test_matrix_shapes_and_ops():
    M = IntMatrix.from_cols([(1, 0), (2, 2)])
    assert M.data == ((1, 2), (0, 2))
    assert M.col(1) == (2, 2)
    assert M.mul((1, 1)) == (3, 2)
    assert M.hstack(M.neg()).cols == 4
    assert M.take_cols([1]).data == ((2,), (2,))
    with pytest.raises(ValueError):
        IntMatrix(1, 2, ((1,),))


def _reference_mul(A: IntMatrix, x) -> tuple:
    """``IntMatrix.mul`` as an index loop over the columns."""
    return tuple(sum(r[j] * x[j] for j in range(A.cols)) for r in A.data)


def _reference_matmul(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    """``IntMatrix.matmul`` as an index loop over the inner dimension."""
    data = tuple(tuple(sum(r[k] * B.data[k][j] for k in range(A.cols)) for j in range(B.cols)) for r in A.data)
    return IntMatrix(A.rows, B.cols, data)


def test_products_equal_index_loop_reference():
    """Products over ``map(mul, ...)`` agree with the index loops on seeded
    shapes, empty ones (0 x n, n x 0, 0 x 0) included, and reject
    mismatched shapes."""
    rng = random.Random(20261028)
    entries = lambda r, c: IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)], cols=c)
    shapes = [(0, 3), (3, 0), (0, 0)] + [(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(60)]
    for r, c in shapes:
        A = entries(r, c)
        x = tuple(rng.randint(-9, 9) for _ in range(c))
        assert A.mul(x) == _reference_mul(A, x)
        assert A.mul(list(x)) == _reference_mul(A, x)
        for k in (0, 1, rng.randint(2, 5)):
            B = entries(c, k)
            assert A.matmul(B) == _reference_matmul(A, B)
    assert IntMatrix.zero(2, 0).matmul(IntMatrix.zero(0, 3)) == IntMatrix.zero(2, 3)
    with pytest.raises(ValueError, match="matrix-vector"):
        entries(2, 3).mul((1, 2))
    with pytest.raises(ValueError, match="matrix product"):
        entries(2, 3).matmul(entries(2, 2))


def test_matrix_text_form():
    """Columns are right-aligned to their widest entry; one row and empty
    shapes print in the same bracket style."""
    assert str(IntMatrix.from_rows([[1, -20, 3]])) == "[[1 -20 3]]"
    assert str(IntMatrix.from_rows([[1, -20, 3], [10, 2, -3]])) == "[[ 1 -20  3]\n [10   2 -3]]"
    assert str(IntMatrix.zero(0, 3)) == "[]"
    assert str(IntMatrix.zero(1, 0)) == "[[]]"
    assert str(IntMatrix.zero(2, 0)) == "[[]\n []]"


def _reference_completion(columns: list, nrows: int, cap_index: int | None = None, seed: list | None = None, budget: int | None = None):
    """The tier-1 completion as it was before indexed pruning, Gram-tracked
    defects and the early budget exit: a literal copy kept as the reference."""
    ncols = len(columns)
    if ncols == 0:
        return []
    zero_val = (0,) * nrows
    basis: list = list(seed) if seed else []
    found: list = []
    frontier: dict = {}
    for j in range(ncols):
        e = tuple(1 if i == j else 0 for i in range(ncols))
        if not any(vec_leq(b, e) and b != e for b in basis):
            frontier[e] = columns[j]
    visited = len(frontier)
    while frontier:
        for x in sorted(k for k, v in frontier.items() if v == zero_val):
            if not any(vec_leq(b, x) for b in basis):
                basis.append(x)
                found.append(x)
        nxt: dict = {}
        for x, v in frontier.items():
            if v == zero_val:
                continue
            for j in range(ncols):
                if cap_index is not None and j == cap_index and x[j] >= 1:
                    continue
                if vec_dot(v, columns[j]) < 0:
                    y = x[:j] + (x[j] + 1,) + x[j + 1:]
                    if y in nxt:
                        continue
                    if any(vec_leq(b, y) for b in basis):
                        continue
                    nxt[y] = vec_add(v, columns[j])
        visited += len(nxt)
        if budget is not None and visited > budget:
            return None
        frontier = nxt
    return sorted(found) if seed else sorted(basis)


def _homogenized_systems(rng, count):
    """Seeded ``(M, b)`` pairs: signed matrices, and nonnegative ones with a
    negated copy of some columns, as pair differences build them."""
    systems = []
    for k in range(count):
        r = rng.randint(1, 3)
        if k % 2:
            c = rng.randint(2, 5)
            rows = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)]
        else:
            pos = [[rng.randint(0, 4) for _ in range(r)] for _ in range(rng.randint(2, 4))]
            cols = pos + [tuple(-e for e in col) for col in rng.sample(pos, rng.randint(1, len(pos)))]
            rows = [[col[i] for col in cols] for i in range(r)]
        systems.append((IntMatrix.from_rows(rows), tuple(rng.randint(0, 6) for _ in range(r))))
    return systems


def test_completion_matches_reference():
    """Same list, or None on the same inputs, as the reference completion,
    on the columns of M and of ``[M | -b]``, each as a homogeneous system:
    the least budget that suffices (the number of nodes generated), one
    below it, and budgets 0..500 that overflow at the start, in the middle
    or at the end of a level.  An answer is the Hilbert basis of the
    system's kernel monoid."""
    rng = random.Random(5)
    overflowed = finished = 0
    for M, b in _homogenized_systems(rng, 40):
        for columns in (M.columns(), M.columns() + [tuple(-e for e in b)]):
            ncols = len(columns)
            gram = [tuple(vec_dot(p, q) for q in columns) for p in columns]

            def both(budget):
                expected = _reference_completion(columns, M.rows, budget=budget)
                assert _completion(gram, budget) == expected, (columns, budget)
                return expected

            # the least budget that suffices is the number of nodes generated
            answer = both(500)
            if answer is None:
                overflowed += 1
                nodes = 501
            else:
                finished += 1
                assert answer == list(hilbert_kernel(IntMatrix.from_cols(columns, rows=M.rows))), columns
                low, high = 0, 500
                while low < high:
                    mid = (low + high) // 2
                    if both(mid) is None:
                        low = mid + 1
                    else:
                        high = mid
                nodes = low
                assert both(nodes - 1) is None
            for budget in {0, ncols - 1, ncols, nodes - 2, nodes, *rng.sample(range(501), 5)}:
                if 0 <= budget <= 500:
                    both(budget)
    assert overflowed and finished


def test_matrix_cache_is_bounded():
    import stdpairs.diophantine as dio

    dio._MATRIX_CACHE.clear()
    first = IntMatrix.from_rows([[2, 3, -4], [1, 0, 1]])
    second = IntMatrix.from_rows([[1, -1]])
    answer = list(min_nonneg_solutions(first, (5, 2)))
    min_nonneg_solutions(second, (1,))
    min_nonneg_solutions(first, (5, 2))  # a hit does not make it younger
    for k in range(dio._MATRIX_CACHE_CAP - 1):
        min_nonneg_solutions(IntMatrix.from_rows([[k + 2, -1]]), (1,))
        assert len(dio._MATRIX_CACHE) <= dio._MATRIX_CACHE_CAP
    assert len(dio._MATRIX_CACHE) == dio._MATRIX_CACHE_CAP
    assert first not in dio._MATRIX_CACHE and second in dio._MATRIX_CACHE
    assert list(min_nonneg_solutions(first, (5, 2))) == answer
    assert first in dio._MATRIX_CACHE and second not in dio._MATRIX_CACHE
    assert len(dio._MATRIX_CACHE) == dio._MATRIX_CACHE_CAP
    dio._MATRIX_CACHE.clear()


def test_solution_memo_is_bounded(monkeypatch):
    import stdpairs.diophantine as dio

    monkeypatch.setattr(dio, "_SOLUTIONS_CAP", 4)
    dio._MATRIX_CACHE.clear()
    M = IntMatrix.from_rows([[2, 3, -4], [1, 0, 1]])
    rhs = [(5, 2), (3, 1), (7, 3), (4, 4), (6, 1), (9, 2)]
    answers = [list(min_nonneg_solutions(M, b)) for b in rhs[:2]]
    memo = dio._matrix_data(M).solutions
    min_nonneg_solutions(M, rhs[0])  # a hit does not make it younger
    for b in rhs[2:]:
        min_nonneg_solutions(M, b)
        assert len(memo) <= 4
    assert list(memo) == rhs[2:]
    assert [list(min_nonneg_solutions(M, b)) for b in rhs[:2]] == answers
    assert list(memo) == rhs[4:] + rhs[:2]
    dio._MATRIX_CACHE.clear()


def _reference_cone_rays(rows: list, dim: int) -> list:
    """Primitive extreme rays of the pointed cone ``{y : row . y >= 0}``.

    Every extreme ray has an active constraint set of rank dim-1, so all
    candidate directions arise as one-dimensional kernels of row subsets.
    """
    if dim == 0:
        return []
    rays = set()
    for subset in combinations(range(len(rows)), dim - 1):
        sub = IntMatrix.from_rows([rows[j] for j in subset], cols=dim)
        kernel = rational_kernel_basis(sub)
        if len(kernel) != 1:
            continue
        y = kernel[0]
        values = [vec_dot(r, y) for r in rows]
        if all(v >= 0 for v in values):
            pass
        elif all(v <= 0 for v in values):
            y = tuple(-a for a in y)
        else:
            continue
        if any(values):
            rays.add(primitive(y))
    return sorted(rays)


def _reference_kernel_rays(M: IntMatrix) -> list:
    """The kernel rays as ``_MatrixData.kernel_rays`` gave them over
    ``_reference_cone_rays``."""
    basis = _MatrixData(M).kernel_basis()
    k = len(basis)
    c = M.cols
    rows = [tuple(basis[i][j] for i in range(k)) for j in range(c)]
    rays = []
    for y in _reference_cone_rays(rows, k):
        x = tuple(sum(basis[i][j] * y[i] for i in range(k)) for j in range(c))
        rays.append(primitive(x))
    return sorted(set(rays))


def _reference_facets_of_cone(cols: list, dim: int) -> tuple:
    """Facets and span equations of the cone generated by ``cols`` in R^dim.

    Returns ``(facets, equations)``: one ``(primitive inner normal,
    frozenset of generator positions on the facet)`` per facet, plus a
    primitive basis of the orthogonal complement of the linear span.  Every
    facet contains rank-1 many independent generators, so candidate normals
    arise from generator subsets.
    """
    if not cols:
        return [], rational_kernel_basis(IntMatrix.zero(0, dim))
    matrix = IntMatrix.from_cols(cols, rows=dim)
    equations = rational_kernel_basis(matrix.transpose())
    r = rational_rank(matrix)
    facets: dict = {}
    if r >= 1:
        for subset in combinations(range(len(cols)), r - 1):
            constraint_rows = [cols[j] for j in subset] + list(equations)
            kernel = rational_kernel_basis(IntMatrix.from_rows(constraint_rows, cols=dim))
            if len(kernel) != 1:
                continue
            phi = primitive(kernel[0])
            values = [vec_dot(phi, c) for c in cols]
            if all(v >= 0 for v in values):
                pass
            elif all(v <= 0 for v in values):
                phi = tuple(-x for x in phi)
                values = [-v for v in values]
            else:
                continue
            if not any(values):
                continue
            facets[phi] = frozenset(j for j, v in enumerate(values) if v == 0)
    return sorted(facets.items()), equations


def _assert_rays_and_facets_match_reference(cols: list, dim: int) -> tuple:
    facets = _facets_of_cone(cols, dim)
    assert facets == _reference_facets_of_cone(cols, dim), (cols, dim)
    M = IntMatrix.from_cols(cols, rows=dim)
    basis = _MatrixData(M).kernel_basis()
    rays = sorted(_combination(basis, y) for y in _kernel_cone_rays(basis, M.cols))
    assert rays == _reference_kernel_rays(M), (cols, dim)
    return facets, rays


def test_rays_and_facets_match_reference():
    """Double description gives the same facets and kernel rays as the
    subset enumerators on seeded random matrices, including non-pointed
    and lower-dimensional cones and zero and duplicate columns."""
    rng = random.Random(6)
    non_pointed = lower_dimensional = zero_cols = duplicates = 0
    for _ in range(240):
        d, n = rng.randint(1, 4), rng.randint(1, 7)
        cols = [tuple(rng.randint(-1, 4) for _ in range(d)) for _ in range(n)]
        if rng.random() < 0.3:
            cols.insert(rng.randint(0, len(cols)), (0,) * d)
        if rng.random() < 0.3:
            cols.insert(rng.randint(0, len(cols)), rng.choice(cols))
        (_, equations), rays = _assert_rays_and_facets_match_reference(cols, d)
        nonzero = [j for j, c in enumerate(cols) if any(c)]
        non_pointed += any(r[j] for r in rays for j in nonzero)
        lower_dimensional += bool(equations)
        zero_cols += len(nonzero) < len(cols)
        duplicates += len(set(cols)) < len(cols)
    assert min(non_pointed, lower_dimensional, zero_cols, duplicates) >= 20


@pytest.mark.parametrize(
    "cols, dim",
    [
        ([(1, 0), (0, 1)], 2),  # trivial kernel (k = 0)
        ([(1,), (1,)], 1),  # kernel cone cut down to {0}
        ([(1, 2), (2, 4)], 2),  # rank-1 cones
        ([(1, 2), (-1, -2)], 2),
        ([(0, 0, 1), (0, 0, 2), (0, 0, 0)], 3),
        ([(0, 0), (0, 0)], 2),  # all-zero columns
        ([(0, 0), (1, 0), (0, 1), (0, 0)], 2),
        ([], 3),
        ([(1, 0), (0, 1), (-1, -1)], 2),  # the kernel cone is a ray
        ([(1, 0), (0, 1), (-1, -1), (1, 1)], 2),
    ],
)
def test_rays_and_facets_edge_cases(cols, dim):
    _assert_rays_and_facets_match_reference(cols, dim)


def test_double_description_examples():
    assert _extreme_rays_dd([(1, 0), (0, 1)], 2) == [(0, 1), (1, 0)]
    assert _extreme_rays_dd([(2,), (3,), (0,)], 1) == [(1,)]
    assert _extreme_rays_dd([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)], 3) == [
        (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1)
    ]
    # cones that the cuts reduce to {0}
    assert _extreme_rays_dd([(1,), (-1,)], 1) == []
    assert _extreme_rays_dd([(1, 0), (0, 1), (-1, -1)], 2) == []


@pytest.mark.parametrize(
    "constraints, dim",
    [
        ([(1, 1), (2, 2)], 2),
        ([(1, 0, 0), (0, 1, 0), (1, 1, 0), (-1, 0, 0)], 3),
        ([(0, 0)], 2),
        ([], 1),
    ],
)
def test_double_description_needs_full_column_rank(constraints, dim):
    with pytest.raises(ValueError, match="full column rank"):
        _extreme_rays_dd(constraints, dim)


# The exact linear algebra as it was done with Fraction elimination: literal
# copies of the deleted routines, kept as references for the integer core.


def _reference_fraction_rank(rows: list) -> int:
    a = [r[:] for r in rows]
    rank = 0
    ncols = len(a[0]) if a else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(a)) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        pr = a[rank]
        for i in range(len(a)):
            if i != rank and a[i][col] != 0:
                f = a[i][col] / pr[col]
                a[i] = [x - f * y for x, y in zip(a[i], pr)]
        rank += 1
    return rank


def _reference_independent_rows(M: IntMatrix, rank: int) -> list:
    rows = []
    a: list = []
    for i in range(M.rows):
        trial = a + [[Fraction(x) for x in M.data[i]]]
        if _reference_fraction_rank(trial) > len(a):
            a = trial
            rows.append(i)
        if len(rows) == rank:
            break
    return rows


def _reference_fraction_inverse(a: list):
    n = len(a)
    work = [row[:] + [Fraction(1 if i == j else 0) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if work[i][col] != 0), None)
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        pv = work[col][col]
        work[col] = [x / pv for x in work[col]]
        for i in range(n):
            if i != col and work[i][col] != 0:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[col])]
    return [row[n:] for row in work]


def _reference_rational_rank(M: IntMatrix) -> int:
    """Rank of the matrix over the rationals (exact Gaussian elimination)."""
    a = [[Fraction(x) for x in row] for row in M.data]
    rank = 0
    for col in range(M.cols):
        pivot = next((i for i in range(rank, M.rows) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        pr = a[rank]
        for i in range(M.rows):
            if i != rank and a[i][col] != 0:
                f = a[i][col] / pr[col]
                a[i] = [x - f * y for x, y in zip(a[i], pr)]
        rank += 1
        if rank == M.rows:
            break
    return rank


def _reference_rational_kernel_basis(M: IntMatrix) -> list:
    """A canonical primitive integer basis of ``{x in Q^c : M x = 0}``."""
    m, n = M.rows, M.cols
    a = [[Fraction(x) for x in row] for row in M.data]
    pivots: list = []
    rank = 0
    for col in range(n):
        pivot = next((i for i in range(rank, m) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        pv = a[rank][col]
        a[rank] = [x / pv for x in a[rank]]
        for i in range(m):
            if i != rank and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        pivots.append(col)
        rank += 1
    free = [j for j in range(n) if j not in pivots]
    basis = []
    for j in free:
        v = [Fraction(0)] * n
        v[j] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -a[r][j]
        denom = 1
        for x in v:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        iv = [int(x * denom) for x in v]
        iv = list(primitive(iv))
        lead = next((x for x in iv if x != 0), 0)
        if lead < 0:
            iv = [-x for x in iv]
        basis.append(tuple(iv))
    return sorted(basis)


def _reference_vertices(M: IntMatrix, b) -> tuple:
    """The row basis and the vertices of ``{x >= 0 : M x = b}`` as the tier-2
    set-up (``feasible_subsets``) and vertex test found them."""
    rank = _reference_rational_rank(M)
    row_basis = _reference_independent_rows(M, rank)
    reduced = [tuple(M.data[i]) for i in row_basis]
    subsets = []
    for S in combinations(range(M.cols), rank):
        square = [[Fraction(reduced[i][j]) for j in S] for i in range(rank)]
        inv = _reference_fraction_inverse(square)
        if inv is not None:
            subsets.append((S, inv))
    rb = [b[i] for i in row_basis]
    vertices = []
    for S, inv in subsets:
        xs = [sum(row[i] * rb[i] for i in range(len(rb))) for row in inv]
        if any(v < 0 for v in xs):
            continue
        x = [Fraction(0)] * M.cols
        for j, v in zip(S, xs):
            x[j] = v
        if [sum(r[j] * x[j] for j in range(M.cols)) for r in M.data] != list(b):
            continue
        vertices.append(x)
    return row_basis, vertices


def _reference_smith_normal_form(M: IntMatrix) -> tuple:
    """Unimodular U, V and diagonal D with ``U M V = D``.

    The diagonal entries are not forced into divisibility order; only the
    diagonal shape matters for kernels and particular solutions.
    """
    m, n = M.rows, M.cols
    D = [list(r) for r in M.data]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_op(i, k, q):  # row_i -= q * row_k
        D[i] = [a - q * b for a, b in zip(D[i], D[k])]
        U[i] = [a - q * b for a, b in zip(U[i], U[k])]

    def col_op(j, k, q):  # col_j -= q * col_k
        for r in range(m):
            D[r][j] -= q * D[r][k]
        for r in range(n):
            V[r][j] -= q * V[r][k]

    t = 0
    while t < min(m, n):
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if D[i][j] != 0 and (pivot is None or abs(D[i][j]) < abs(D[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        if i != t:
            D[i], D[t] = D[t], D[i]
            U[i], U[t] = U[t], U[i]
        if j != t:
            for r in range(m):
                D[r][j], D[r][t] = D[r][t], D[r][j]
            for r in range(n):
                V[r][j], V[r][t] = V[r][t], V[r][j]
        while True:
            moved = False
            for i in range(m):
                if i != t and D[i][t] != 0:
                    q = D[i][t] // D[t][t]
                    row_op(i, t, q)
                    if D[i][t] != 0:  # remainder is a smaller pivot
                        D[i], D[t] = D[t], D[i]
                        U[i], U[t] = U[t], U[i]
                        moved = True
            for j in range(n):
                if j != t and D[t][j] != 0:
                    q = D[t][j] // D[t][t]
                    col_op(j, t, q)
                    if D[t][j] != 0:
                        for r in range(m):
                            D[r][j], D[r][t] = D[r][t], D[r][j]
                        for r in range(n):
                            V[r][j], V[r][t] = V[r][t], V[r][j]
                        moved = True
            if not moved and all(D[i][t] == 0 for i in range(m) if i != t) and all(
                D[t][j] == 0 for j in range(n) if j != t
            ):
                break
        t += 1
    return (
        IntMatrix(m, m, tuple(tuple(r) for r in U)),
        IntMatrix(m, n, tuple(tuple(r) for r in D)),
        IntMatrix(n, n, tuple(tuple(r) for r in V)),
    )


def _reference_saturated_span_basis(cols: list, dim: int) -> list:
    """A lattice basis of ``span_Q(cols) intersect Z^dim``."""
    matrix = IntMatrix.from_cols(cols, rows=dim)
    U, D, _ = _reference_smith_normal_form(matrix)
    u_inv = _reference_fraction_inverse([[Fraction(x) for x in row] for row in U.data])
    basis = []
    for i in range(min(dim, matrix.cols)):
        if D.data[i][i] != 0:
            col = tuple(int(u_inv[r][i]) for r in range(dim))
            basis.append(col)
    return basis


def _reference_coords_in_basis(basis: list, targets: list, dim: int) -> list:
    """Exact integer coordinates of targets in a saturated basis."""
    k = len(basis)
    rows = []
    row_idx = []
    for r in range(dim):
        trial = rows + [[Fraction(basis[i][r]) for i in range(k)]]
        if _reference_fraction_rank(trial) > len(rows):
            rows = trial
            row_idx.append(r)
        if len(rows) == k:
            break
    inv = _reference_fraction_inverse(rows)
    out = []
    for t in targets:
        rhs = [t[r] for r in row_idx]
        z = [sum(inv[i][j] * rhs[j] for j in range(k)) for i in range(k)]
        if any(v.denominator != 1 for v in z):
            raise ArithmeticError(f"{t} has no integer coordinates in the basis")
        z = tuple(int(v) for v in z)
        if any(sum(basis[i][r] * z[i] for i in range(k)) != t[r] for r in range(dim)):
            raise ArithmeticError(f"{t} does not lie in the span of the basis")
        out.append(z)
    return out


def _reference_parallelepiped_points(generators: list) -> list:
    """Lattice points in the half-open parallelepiped of a nonsingular basis."""
    k = len(generators)
    R = IntMatrix.from_cols(generators, rows=k)
    U, D, _ = _reference_smith_normal_form(R)
    u_inv = _reference_fraction_inverse([[Fraction(x) for x in row] for row in U.data])
    r_inv = _reference_fraction_inverse([[Fraction(x) for x in row] for row in R.data])
    points = set()
    for t in product(*(range(abs(D.data[i][i])) for i in range(k))):
        w = [int(sum(u_inv[r][i] * t[i] for i in range(k))) for r in range(k)]
        coeffs = [sum(r_inv[i][j] * w[j] for j in range(k)) for i in range(k)]
        floors = [c.numerator // c.denominator for c in coeffs]
        p = tuple(
            w[r] - sum(generators[i][r] * floors[i] for i in range(k)) for r in range(k)
        )
        points.add(p)
    return sorted(points)


def _random_int_matrices(rng, count: int, max_rows: int = 5, max_cols: int = 6) -> list:
    """Seeded matrices: every other one has entries -3..3, the rest are
    products of r x k and k x c factors with entries -2..2, so of rank at
    most k (often below min(r, c)); some get a zero row or column appended."""
    matrices = []
    for n in range(count):
        r, c = rng.randint(1, max_rows), rng.randint(1, max_cols)
        if n % 2:
            k = rng.randint(1, 3)
            left = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(r)]
            right = [[rng.randint(-2, 2) for _ in range(c)] for _ in range(k)]
            rows = [[vec_dot(a, col) for col in zip(*right)] for a in left]
        else:
            rows = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)]
        if rng.random() < 0.15:
            rows.append([0] * c)
        if rng.random() < 0.15:
            rows = [row + [0] for row in rows]
        matrices.append(IntMatrix.from_rows(rows))
    return matrices


_EDGE_MATRICES = [
    IntMatrix.zero(0, 0),
    IntMatrix.zero(0, 3),
    IntMatrix.zero(3, 0),
    IntMatrix.zero(1, 1),
    IntMatrix.zero(2, 3),
    IntMatrix.zero(4, 2),
    IntMatrix.from_rows([[1, 2, 3], [2, 4, 6], [-1, -2, -3]]),
    IntMatrix.from_rows([[0, 0, 5], [0, 0, 7]]),
    IntMatrix.from_rows([[2, -3]]),
]


def test_rank_and_rational_kernel_match_reference():
    """The integer elimination gives exactly the rank and the canonical
    rational kernel basis that Fraction elimination gave."""
    matrices = _EDGE_MATRICES + _random_int_matrices(random.Random(71), 400)
    deficient = 0
    for M in matrices:
        rank = rational_rank(M)
        assert rank == _reference_rational_rank(M), M
        assert rational_kernel_basis(M) == _reference_rational_kernel_basis(M), M
        deficient += rank < min(M.rows, M.cols)
    assert deficient >= 100


def _reference_smith_solvable(M: IntMatrix, b) -> bool:
    """Whether ``M x = b`` has an integer solution, read off the Smith form
    ``U M V = D``: each entry of ``U b`` must be divisible by its diagonal
    entry of D, and zero where that entry is zero or missing."""
    U, D, _ = _reference_smith_normal_form(M)
    for i, z in enumerate(U.mul(tuple(b))):
        d = D.data[i][i] if i < M.cols else 0
        if (z % d if d else z) != 0:
            return False
    return True


def test_column_echelon_matches_smith_reference():
    """The one column echelon pass over [M; I] gives particular solutions
    exactly when the Smith form says the system is solvable over Z, a
    kernel basis spanning the Smith kernel lattice, and kernel columns in
    column echelon form with positive pivots in the walk order of M's
    columns (as the box walk needs)."""
    rng = random.Random(77)
    solvable = unsolvable = with_kernel = 0
    for M in _EDGE_MATRICES + _random_int_matrices(rng, 300):
        data = _MatrixData(M)
        rhs = [tuple(rng.randint(-4, 4) for _ in range(M.rows)) for _ in range(3)]
        rhs += [M.mul(tuple(rng.randint(-3, 3) for _ in range(M.cols))) for _ in range(2)]
        for b in rhs:
            x = _particular_solution(data, b)
            if _reference_smith_solvable(M, b):
                solvable += 1
                assert x is not None and M.mul(x) == b, (M, b, x)
            else:
                unsolvable += 1
                assert x is None, (M, b, x)

        basis = data.kernel_basis()
        _, D, V = _reference_smith_normal_form(M)
        reference = [V.col(j) for j in range(D.cols) if j >= D.rows or D.data[j][j] == 0]
        assert len(basis) == len(reference) == M.cols - rational_rank(M), M
        assert all(M.mul(h) == (0,) * M.rows for h in basis), M
        if basis:
            with_kernel += 1
            # each basis has integer coordinates in the other: the same lattice
            _coords_in_basis(basis, reference, M.cols)
            _coords_in_basis(reference, basis, M.cols)

        cols, pivots, _ = data.echelon()
        assert cols == basis
        order = _walk_order(M.columns())
        assert sorted(order) == list(range(M.cols)), M
        place = {row: i for i, row in enumerate(order)}
        assert all(place[p] < place[q] for p, q in zip(pivots, pivots[1:])), M
        for col, p in zip(cols, pivots):
            assert col[p] > 0 and not any(col[row] for row in order[: place[p]]), M
    assert solvable >= 600 and unsolvable >= 500 and with_kernel >= 150


def test_lattice_residue_is_canonical_mod_lattice():
    """The residue of b modulo Z M is the same for b and b + M z, is zero
    exactly when ``_particular_solution`` finds an integer solution, and
    differs from b by a lattice vector; on r x 0 matrices, zero columns and
    lattices not saturated in their span too."""
    rng = random.Random(79)
    matrices = _EDGE_MATRICES + [
        IntMatrix.from_rows([[2, 0], [0, 2]]),
        IntMatrix.from_rows([[2, 0, 1], [0, 0, 1]]),
        IntMatrix.from_rows([[1, 1], [1, -1]]),
        IntMatrix.from_cols([(2, 0)]),
    ] + _random_int_matrices(rng, 300)
    zero_cols = non_saturated = members = non_members = 0
    for M in matrices:
        data = _matrix_data(M)
        cols = M.columns()
        zero_cols += any(not any(c) for c in cols)
        span = _saturated_span_basis(cols, M.rows)
        non_saturated += any(_particular_solution(data, v) is None for v in span)
        for _ in range(4):
            b = tuple(rng.randint(-6, 6) for _ in range(M.rows))
            residue = lattice_residue(M, b)
            z = tuple(rng.randint(-3, 3) for _ in range(M.cols))
            assert lattice_residue(M, vec_add(b, M.mul(z))) == residue, (M, b, z)
            inside = _particular_solution(data, b) is not None
            assert inside == (not any(residue)), (M, b, residue)
            members += inside
            non_members += not inside
            x = _particular_solution(data, tuple(u - v for u, v in zip(b, residue)))
            assert x is not None and M.mul(x) == tuple(u - v for u, v in zip(b, residue)), (M, b)
    assert any(M.rows and not M.cols for M in matrices)
    assert zero_cols >= 20 and non_saturated >= 20
    assert members >= 100 and non_members >= 100


def test_kernel_basis_entries_stay_small():
    """The column echelon pass keeps the kernel basis of wide matrices
    small (always-first-column Euclid steps gave entries of over 1,000
    digits on 3 x 10 matrices like these)."""
    rng = random.Random(78)
    for cols in (10, 12, 16):
        for _ in range(5):
            M = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(cols)] for _ in range(3)])
            basis = integer_kernel_basis(M)
            assert len(basis) == cols - rational_rank(M)
            assert max(abs(a) for h in basis for a in h) < 10**4, M


def test_integer_inverse_matches_reference():
    """``(d A^-1, d)`` with d > 0 is the Fraction inverse scaled by d, and
    singular matrices have no inverse."""
    rng = random.Random(72)
    squares = [[], [[0]], [[3]], [[-2]], [[1, 2], [2, 4]], [[0, 1], [1, 0]]]
    for M in _random_int_matrices(rng, 600, max_rows=5, max_cols=5):
        k = min(M.rows, M.cols)
        squares.append([list(row[:k]) for row in M.data[:k]])
    singular = 0
    for a in squares:
        expected = _reference_fraction_inverse([[Fraction(x) for x in row] for row in a])
        got = _integer_inverse(a)
        if expected is None:
            assert got is None, a
            singular += 1
            continue
        scaled, d = got
        assert d > 0
        assert [[Fraction(x, d) for x in row] for row in scaled] == expected, a
    assert singular >= 50 and len(squares) - singular >= 200


def test_vertices_match_reference():
    """The rays with t > 0 of the homogenized cone give the same distinct
    vertices as the Fraction subset inverses, its rays with t = 0 are the
    kernel rays, and the tier-2 box is the sum of the kernel rays plus the
    componentwise vertex ceiling (None without a vertex)."""
    rng = random.Random(73)
    with_vertices = without = 0
    for M in _EDGE_MATRICES + _random_int_matrices(rng, 300, max_rows=4, max_cols=6):
        data = _MatrixData(M)
        for _ in range(3):
            b = tuple(rng.randint(-2, 6) for _ in range(M.rows))
            _, expected = _reference_vertices(M, b)
            expected = sorted(set(map(tuple, expected)))
            x0 = _particular_solution(data, b)
            if x0 is None:  # tier 2 stops before the cone; build it from another basis
                basis = integer_kernel_basis(M.hstack(IntMatrix.from_cols([[-x for x in b]], rows=M.rows)))
                rays_y = _kernel_cone_rays(basis, M.cols + 1)
            else:
                basis, rays_y, bound = _homogenized_cone(data, x0)
            rays = [tuple(sum(y * v[j] for y, v in zip(ray, basis)) for j in range(M.cols + 1)) for ray in rays_y]
            got = sorted({tuple(Fraction(x, r[-1]) for x in r[:-1]) for r in rays if r[-1]})
            assert got == expected, (M, b)
            if not expected:
                without += 1
                assert x0 is None or bound is None, (M, b)
                continue
            with_vertices += 1
            kernel_rays = _reference_kernel_rays(M)
            assert sorted(r[:-1] for r in rays if not r[-1]) == kernel_rays, (M, b)
            if x0 is not None:
                expected_bound = tuple(
                    sum(r[j] for r in kernel_rays) + max(ceil(v[j]) for v in expected)
                    for j in range(M.cols)
                )
                assert bound == expected_bound, (M, b)
    assert with_vertices >= 100 and without >= 100


def test_coords_in_basis_matches_reference():
    """Same coordinates for targets in the lattice, and an ArithmeticError
    for targets off it, as the Fraction version; the saturated span basis
    spans the same lattice as the Smith-form one."""
    rng = random.Random(74)
    errors = 0
    for M in _random_int_matrices(rng, 300, max_rows=5, max_cols=5):
        cols, dim = M.columns(), M.rows
        span = _saturated_span_basis(cols, dim)
        reference_span = _reference_saturated_span_basis(cols, dim)
        assert len(span) == len(reference_span) == rational_rank(M)
        if not span:
            continue
        # each basis has integer coordinates in the other: the same lattice
        _reference_coords_in_basis(span, reference_span, dim)
        _reference_coords_in_basis(reference_span, span, dim)
        targets = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(3)] + cols
        for t in targets:
            try:
                expected = _reference_coords_in_basis(reference_span, [t], dim)
            except ArithmeticError:
                errors += 1
                with pytest.raises(ArithmeticError, match=re.escape(str(t))):
                    _coords_in_basis(reference_span, [t], dim)
            else:
                assert _coords_in_basis(reference_span, [t], dim) == expected
        assert _coords_in_basis(span, cols, dim) == _reference_coords_in_basis(span, cols, dim)
    assert errors >= 100


def test_coords_in_basis_rejects_targets_outside_the_span():
    with pytest.raises(ArithmeticError, match=r"\(0, 1\) does not lie in the span"):
        _coords_in_basis([(1, 0)], [(3, 0), (0, 1)], 2)
    with pytest.raises(ArithmeticError, match=r"\(1, 1, 0\) does not lie in the span"):
        _coords_in_basis([(1, 0, 0), (0, 0, 2)], [(1, 1, 0)], 3)


def test_parallelepiped_points_match_reference():
    rng = random.Random(75)
    checked = 0
    while checked < 150:
        k = rng.randint(1, 4)
        gens = [tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(k)]
        inverse = _integer_inverse([list(g) for g in gens])
        if inverse is None or inverse[1] > 300:
            continue
        assert _parallelepiped_points(gens) == _reference_parallelepiped_points(gens), gens
        checked += 1


def test_hilbert_basis_geometric_against_brute_force():
    """Tier 3 on its own equals the brute-force Hilbert basis within the box."""
    box = 10
    matrices = _random_int_matrices(random.Random(76), 60, max_rows=3, max_cols=4)
    nonempty = 0
    for M in matrices + [IntMatrix.from_rows([[2, -3]]), IntMatrix.from_rows([[1, 1, -2]])]:
        basis = _MatrixData(M).kernel_basis()
        got = _hilbert_basis_geometric(basis, _kernel_cone_rays(basis, M.cols))
        rows = [list(row) for row in M.data]
        assert sorted(x for x in got if max(x) <= box) == brute_hilbert(rows, box), M
        nonempty += bool(got)
    assert nonempty >= 15


def test_library_does_not_import_fractions():
    """Every exact step is integer arithmetic: no module of the package
    imports ``fractions``."""
    import stdpairs

    modules = sorted(Path(stdpairs.__file__).parent.glob("*.py"))
    assert len(modules) >= 10
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert all(name.split(".")[0] != "fractions" for name in names), path.name


def _reference_box_solutions(data: _MatrixData, x0, bound, budget: int | None = None):
    """The box walk without the prune and the interval bounds: every
    solution ``x = x0 + (kernel lattice)`` with ``0 <= x <= bound``, or None
    when more than ``budget`` recursion nodes are visited."""
    cols, pivots, determined = data.echelon()
    k = len(cols)

    for r in determined[0]:
        if not 0 <= x0[r] <= bound[r]:
            return []
    out = []
    visited = [0]

    def rec(i: int, x: list):
        if visited[0] is None:
            return
        if i == k:
            out.append(tuple(x))
            return
        p = pivots[i]
        coeff = cols[i][p]
        lo = _ceil_div(-x[p], coeff)
        hi = (bound[p] - x[p]) // coeff
        col = cols[i]
        span = hi - lo + 1
        if span > 0:
            visited[0] += span
            if budget is not None and visited[0] > budget:
                visited[0] = None
                return
        for y in range(lo, hi + 1):
            nxt = [a + y * b for a, b in zip(x, col)]
            if all(0 <= nxt[r] <= bound[r] for r in determined[i + 1]):
                rec(i + 1, nxt)

    rec(0, list(x0))
    if visited[0] is None:
        return None
    return out


def _pair_difference_system(rng):
    """``[A | -A]`` with A nonnegative, as pair differences build it, and a
    right-hand side ``A u``."""
    r = rng.randint(1, 3)
    a_cols = [tuple(rng.randint(0, 3) for _ in range(r)) for _ in range(rng.randint(1, 3))]
    M = IntMatrix.from_cols(a_cols + [tuple(-e for e in c) for c in a_cols], rows=r)
    u = [rng.randint(0, 2) for _ in a_cols]
    return M, tuple(sum(k * c[i] for k, c in zip(u, a_cols)) for i in range(r))


def _box_walk_systems(rng, count):
    """Seeded walks ``(M, b, x0, bound)``, ``M x0 = b``, cycling through
    ``[A | -A]`` systems; signed matrices with a zero column and a duplicate
    column; independent columns (a trivial kernel); and signed matrices
    whose particular solution is shifted by a kernel vector, mostly out of
    the box.  The box is tier 2's box when there is one, else (and for every
    fourth system) a random one."""
    walks = []
    while len(walks) < count:
        kind = len(walks) % 4
        if kind == 0:
            M, b = _pair_difference_system(rng)
        else:
            r = rng.randint(1, 3)
            c = rng.randint(1, r) if kind == 2 else rng.randint(2, 4)
            cols = [tuple(rng.randint(-3, 3) for _ in range(r)) for _ in range(c)]
            if kind == 1:
                cols.insert(rng.randint(0, c), (0,) * r)
                cols.insert(rng.randint(0, c + 1), rng.choice(cols))
            M = IntMatrix.from_cols(cols, rows=r)
            b = M.mul(tuple(rng.randint(0, 2) for _ in range(M.cols)))
        data = _MatrixData(M)
        x0 = _particular_solution(data, b)
        if kind == 3 and data.kernel_basis():
            shift = rng.choice((-4, 4))
            x0 = vec_add(x0, tuple(shift * e for e in data.kernel_basis()[0]))
        bound = _homogenized_cone(data, x0)[2]
        if bound is None or len(walks) % 4 == 3:
            bound = tuple(rng.randint(0, 5) for _ in range(M.cols))
        walks.append((M, b, x0, bound))
    return walks


def _node_count(walk, data, x0, bound, high: int) -> int:
    """The least budget at which ``walk`` does not overflow (at most ``high``):
    the number of nodes it visits."""
    low = 0
    while low < high:
        mid = (low + high) // 2
        if walk(data, x0, bound, mid) is None:
            low = mid + 1
        else:
            high = mid
    return low


def test_box_walk_yields_the_minimal_box_solutions():
    """The pruned walk is the minimal elements of the reference walk, for
    any box; with nothing to prune it is the reference walk itself."""
    kinds = {"pair_difference": 0, "zero_column": 0, "trivial_kernel": 0, "x0_outside": 0}
    for n, (M, b, x0, bound) in enumerate(_box_walk_systems(random.Random(61), 240)):
        data = _MatrixData(M)
        hilbert = hilbert_kernel(M).vectors
        every = _reference_box_solutions(data, x0, bound)
        assert _box_solutions(data, x0, bound, above=()) == every, (M, x0, bound)
        pruned = _box_solutions(data, x0, bound, above=hilbert)
        assert sorted(pruned) == minimal_elements(every), (M, x0, bound)
        assert all(M.mul(x) == b for x in pruned)
        kinds["pair_difference"] += n % 4 == 0 and len(pruned) < len(every)
        kinds["zero_column"] += n % 4 == 1 and any(x for x in every)
        kinds["trivial_kernel"] += not data.kernel_basis()
        kinds["x0_outside"] += not all(0 <= a <= c for a, c in zip(x0, bound))
    assert all(kinds.values()), kinds


def test_box_walk_budget():
    """Budgets from 0 up to the reference walk's node count: the unpruned
    walk overflows exactly where the reference does, and the pruned walk
    only where the reference does, else it yields the minimal solutions."""
    saved = 0
    for M, b, x0, bound in _box_walk_systems(random.Random(62), 80):
        data = _MatrixData(M)
        hilbert = hilbert_kernel(M).vectors
        expected = minimal_elements(_reference_box_solutions(data, x0, bound))
        nodes = _node_count(_reference_box_solutions, data, x0, bound, 10**6)
        pruned_nodes = _node_count(
            lambda *args: _box_solutions(*args, above=hilbert), data, x0, bound, nodes
        )
        assert pruned_nodes <= nodes
        saved += pruned_nodes < nodes
        budgets = range(nodes + 1) if nodes <= 120 else {0, 1, nodes // 2, nodes - 1, nodes}
        for budget in budgets:
            reference = _reference_box_solutions(data, x0, bound, budget)
            assert _box_solutions(data, x0, bound, budget) == reference, (M, x0, bound, budget)
            pruned = _box_solutions(data, x0, bound, budget, above=hilbert)
            assert (pruned is None) == (budget < pruned_nodes)
            if pruned is None:
                assert reference is None, (M, x0, bound, budget)
            else:
                assert sorted(pruned) == expected, (M, x0, bound, budget)
    assert saved


def test_fallback_tiers_on_pair_difference_systems(monkeypatch):
    """With tier 1 off and the box budget at 0 or 30, tier 3 takes over
    from the pruned walk and the answers stay the reference ones."""
    import stdpairs.diophantine as dio

    rng = random.Random(63)
    cases = []
    while len(cases) < 60:
        M, b = _pair_difference_system(rng)
        if any(b):
            data = _MatrixData(M)
            x0 = _particular_solution(data, b)
            bound = _homogenized_cone(data, x0)[2]
            cases.append((M, b, minimal_elements(_reference_box_solutions(data, x0, bound))))
    tiers = {"tier2": 0, "tier3": 0}
    box_walk, triangulation = dio._box_solutions, dio._hilbert_basis_geometric

    def count_box_walk(*args, **kwargs):
        points = box_walk(*args, **kwargs)
        tiers["tier2"] += points is not None and any(args[1])  # x0 != 0: not hilbert_kernel's walk
        return points

    def count_triangulation(*args):
        tiers["tier3"] += 1
        return triangulation(*args)

    monkeypatch.setattr(dio, "_box_solutions", count_box_walk)
    monkeypatch.setattr(dio, "_hilbert_basis_geometric", count_triangulation)
    monkeypatch.setattr(dio, "_CD_BUDGET", 0)
    for box_budget in (30, 0):
        monkeypatch.setattr(dio, "_BOX_BUDGET", box_budget)
        tiers.update(tier2=0, tier3=0)
        dio._MATRIX_CACHE.clear()
        for M, b, expected in cases:
            assert list(min_nonneg_solutions(M, b)) == expected, (M, b, box_budget)
        assert tiers["tier3"] and (tiers["tier2"] or not box_budget), (box_budget, tiers)
    dio._MATRIX_CACHE.clear()


def _reference_min_nonneg_uncached(M: IntMatrix, data: _MatrixData, b) -> SolutionSet:
    """The uncached solve without the infeasibility certificates or the
    graded walk: every system first goes to the completion of the
    homogenized system ``[M | -b]``, seeded with the kernel Hilbert basis
    and capped at 1 in the slack coordinate, then to the walk, which stops
    at a missing particular solution or at a homogenized cone with no ray
    of height t > 0, then to the triangulation."""
    import stdpairs.diophantine as dio

    slack = M.cols
    columns = M.columns() + [tuple(-e for e in b)]
    seed = [h + (0,) for h in hilbert_kernel(M)]
    quick = _reference_completion(columns, M.rows, cap_index=slack, seed=seed, budget=dio._CD_BUDGET)
    if quick is not None:
        return SolutionSet.of(M.cols, [x[:slack] for x in quick if x[slack] == 1])

    x0 = _particular_solution(data, b)
    if x0 is None:
        return SolutionSet.of(M.cols, [])
    basis, rays, bound = _homogenized_cone(data, x0)
    if bound is None:
        return SolutionSet.of(M.cols, [])  # no ray with t > 0: the polyhedron is empty
    points = _box_solutions(data, x0, bound, budget=dio._BOX_BUDGET, above=data.hilbert)
    if points is not None:
        return SolutionSet.of(M.cols, points)

    hilbert = _hilbert_basis_geometric(basis, rays)
    return SolutionSet.of(M.cols, [x[:slack] for x in hilbert if x[slack] == 1])


def _recording(log: list, name: str, fn):
    """``fn``, appending ``name`` to ``log`` on every call."""

    def wrapper(*args, **kwargs):
        log.append(name)
        return fn(*args, **kwargs)

    return wrapper


def _certificate_systems(rng, count):
    """Seeded ``(M, b)`` with b != 0, cycling through ``[A | -A]``; signed
    matrices with a zero and a duplicate column; ``r x 0`` matrices; matrices
    of rank below their row count (so b is often outside the span); ``D N``,
    with N nonnegative over the unit vectors and D = diag(k, 1, ...) (rows
    shuffled), whose cone is the orthant but whose lattice is not saturated;
    and matrices with entries 3..7, whose small positive right-hand sides
    are often in the cone and the lattice but not in the monoid."""
    systems = []
    while len(systems) < count:
        kind = len(systems) % 6
        r = rng.randint(1, 3)
        if kind == 0:
            a_cols = [tuple(rng.randint(0, 3) for _ in range(r)) for _ in range(rng.randint(1, 3))]
            M = IntMatrix.from_cols(a_cols + [tuple(-e for e in c) for c in a_cols], rows=r)
        elif kind == 1:
            cols = [tuple(rng.randint(-3, 3) for _ in range(r)) for _ in range(rng.randint(1, 3))]
            cols.insert(rng.randint(0, len(cols)), (0,) * r)
            cols.insert(rng.randint(0, len(cols)), rng.choice(cols))
            M = IntMatrix.from_cols(cols, rows=r)
        elif kind == 2:
            M = IntMatrix.zero(r, 0)
        elif kind == 3:
            r = rng.randint(2, 3)
            k, c = rng.randint(1, r - 1), rng.randint(1, 4)
            left = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(r)]
            right = [[rng.randint(0, 3) for _ in range(c)] for _ in range(k)]
            M = IntMatrix.from_rows([[vec_dot(a, col) for col in zip(*right)] for a in left])
        elif kind == 4:
            cols = [tuple(int(i == j) for i in range(r)) for j in range(r)]
            cols += [tuple(rng.randint(0, 3) for _ in range(r)) for _ in range(rng.randint(0, 2))]
            rng.shuffle(cols)
            scale = rng.randint(2, 3)
            rows = [[scale * x for x in row] if i == 0 else list(row) for i, row in enumerate(zip(*cols))]
            rng.shuffle(rows)
            M = IntMatrix.from_rows(rows)
        else:
            r = rng.randint(1, 2)
            cols = [tuple(rng.randint(3, 7) for _ in range(r)) for _ in range(rng.randint(2, 4))]
            M = IntMatrix.from_cols(cols, rows=r)
        if kind == 5:
            b = tuple(rng.randint(1, 12) for _ in range(r))
        elif kind != 2 and rng.random() < 0.5:
            b = M.mul(tuple(rng.randint(0, 2) for _ in range(M.cols)))
            b = vec_add(b, tuple(rng.randint(-1, 1) for _ in range(r)))
        else:
            b = tuple(rng.randint(-2, 5) for _ in range(r))
        if any(b):
            systems.append((M, b))
    return systems


def _wide_pair_systems(rng, count):
    """Seeded one-row ``[A | -A]`` with four columns in A of entries 2..5,
    like the ``wide`` matrix below, and ``b = A (u - v)`` with u, v in 0..2:
    not pointed, and with a kernel box that outgrows ``hilbert_kernel``'s
    short walk."""
    systems = []
    while len(systems) < count:
        a = [rng.randint(2, 5) for _ in range(4)]
        M = IntMatrix.from_rows([a + [-e for e in a]])
        b = (vec_dot(a, [rng.randint(0, 2) - rng.randint(0, 2) for _ in a]),)
        if any(b):
            systems.append((M, b))
    return systems


def test_infeasibility_certificates_are_exact(monkeypatch):
    """The certificates settle only systems without a solution: every answer
    equals the solver's without them, which always runs completion first,
    under the default budgets, with completion off, and with completion and
    the walk's budget off.  Under the default budgets each of the two
    routes of the full solve runs at least 20 times: the graded box walk
    alone on a pointed system, and ``_geometric_solutions`` first, with no
    completion once the kernel Hilbert basis is cached, on every other
    system; seeded wide ``[A | -A]`` join the systems there, since their
    kernel Hilbert basis comes from completion.  Where a particular
    solution exists, the span-and-cone test holds exactly when the
    homogenized cone has no ray with t > 0."""
    import stdpairs.diophantine as dio

    systems = _certificate_systems(random.Random(1212), 600)
    kinds = dict.fromkeys(
        ["pair_difference", "zero_and_duplicate_columns", "no_columns", "lower_dimensional_span",
         "outside_span", "outside_cone", "outside_lattice_inside_cone", "unsettled_empty",
         "cone_test_without_vertex", "cone_test_with_vertex"],
        0,
    )
    for M, b in systems:
        cols = M.columns()
        data = _MatrixData(M)
        normals, equations = data.cone()
        rank = rational_rank(M)
        in_span = rank == rational_rank(M.hstack(IntMatrix.from_cols([b], rows=M.rows)))
        assert in_span == (not any(vec_dot(e, b) for e in equations)), (M, b)
        in_cone = in_span and all(vec_dot(phi, b) >= 0 for phi in normals)
        assert in_cone == bool(_reference_vertices(M, b)[1]), (M, b)
        x0 = _particular_solution(data, b)
        if x0 is not None:
            bound = _homogenized_cone(data, x0)[2]
            assert (not in_cone) == (bound is None), (M, b)
            kinds["cone_test_without_vertex" if bound is None else "cone_test_with_vertex"] += 1
        half = M.cols // 2
        kinds["pair_difference"] += 0 < M.cols == 2 * half and cols[half:] == [tuple(-e for e in c) for c in cols[:half]]
        kinds["zero_and_duplicate_columns"] += (0,) * M.rows in cols and len(set(cols)) < len(cols)
        kinds["no_columns"] += M.cols == 0
        kinds["lower_dimensional_span"] += 0 < rank < M.rows
        kinds["outside_span"] += not in_span
        kinds["outside_cone"] += in_span and not in_cone
        kinds["outside_lattice_inside_cone"] += in_cone and x0 is None
        settled = dio._infeasible(data, b)
        assert settled == (not in_cone or x0 is None), (M, b)
        kinds["unsettled_empty"] += not settled and not min_nonneg_solutions(M, b)
    assert min(kinds.values()) >= 20, kinds

    tiers = []
    for name in ("_box_solutions", "_completion", "_geometric_solutions", "hilbert_kernel", "_homogenized_cone"):
        monkeypatch.setattr(dio, name, _recording(tiers, name, getattr(dio, name)))
    routes = {"pointed": 0, "geometric": 0}
    wide = _wide_pair_systems(random.Random(1213), 30)
    for budgets in ({}, {"_CD_BUDGET": 0}, {"_CD_BUDGET": 0, "_BOX_BUDGET": 0}):
        for name, value in budgets.items():
            monkeypatch.setattr(dio, name, value)
        dio._MATRIX_CACHE.clear()
        for M, b in systems if budgets else systems + wide:
            data = dio._matrix_data(M)
            expected = _reference_min_nonneg_uncached(M, data, b)
            pointed = not dio._infeasible(data, b) and data.graded_box(b) is not None
            if pointed:
                dio._MATRIX_CACHE.clear()  # the reference filled the kernel data
            tiers.clear()
            assert min_nonneg_solutions(M, b) == expected, (M, b, budgets)
            if pointed and not budgets:
                assert tiers == ["_box_solutions"], (M, b, tiers)
                routes["pointed"] += 1
            elif tiers and not budgets:
                assert tiers[0] == "_geometric_solutions" and "_completion" not in tiers, (M, b, tiers)
                routes["geometric"] += 1
    dio._MATRIX_CACHE.clear()
    assert min(routes.values()) >= 20, routes


def _existence_systems(rng, count):
    """Seeded ``(M, b)`` for ``has_nonneg_solution``: the certificate
    systems and b = 0 over some of their matrices."""
    systems = _certificate_systems(rng, count)
    return systems + [(M, (0,) * M.rows) for M, _ in systems[:30]]


def _overflow_systems(rng, count):
    """Seeded feasible ``(M, M u)``, u > 0, with M of 3 x 5 and 2 x 5 and
    entries 3..9, all pointed, on which a completion seeded with the kernel
    basis overflows its default budget before its first solution."""
    systems = []
    for k in range(count):
        r, high = (3, 7) if k % 2 else (2, 9)
        M = IntMatrix.from_cols([tuple(rng.randint(3, high) for _ in range(r)) for _ in range(5)], rows=r)
        systems.append((M, M.mul(tuple(rng.randint(1, 3) for _ in range(5)))))
    return systems


def test_has_nonneg_solution_is_the_truth_value_of_the_solve(monkeypatch):
    """``has_nonneg_solution`` equals ``bool(min_nonneg_solutions)`` under
    the default budgets, with tier 1 off, and with tiers 1 and 2 off.  The
    "yes" of a graded box walk that did not overflow never enters the
    solution memo (at least 20 such), whatever is stored there is the full
    answer, and the pointed overflow systems are answered with no
    completion under the default budgets.  They are left out with tiers 1
    and 2 off, where each takes the triangulation seconds."""
    import stdpairs.diophantine as dio

    systems = _existence_systems(random.Random(1212), 600)  # the certificate test's systems
    heavy = _overflow_systems(random.Random(1819), 30)
    walks, completions = [], []
    monkeypatch.setattr(dio, "_completion", _recording(completions, "completion", dio._completion))
    box_walk = dio._box_solutions

    def walk(*args, first=False, **kwargs):
        found = box_walk(*args, first=first, **kwargs)
        if first:
            walks.append(found)
        return found

    monkeypatch.setattr(dio, "_box_solutions", walk)
    for budgets in ({}, {"_CD_BUDGET": 0}, {"_CD_BUDGET": 0, "_BOX_BUDGET": 0}):
        for name, value in budgets.items():
            monkeypatch.setattr(dio, name, value)
        cases = systems if dio._BOX_BUDGET == 0 else systems + heavy
        dio._MATRIX_CACHE.clear()
        answers = []
        kept_out = 0
        for M, b in cases:
            memo = dio._matrix_data(M).solutions
            before = b in memo
            walks.clear()
            completions.clear()
            answer = dio.has_nonneg_solution(M, b)
            if (M, b) in heavy and not budgets:
                assert dio._matrix_data(M).graded_box(b) is not None and not completions, (M, b)
            if answer and not before and walks and walks[0] is not None:
                assert b not in memo, (M, b, budgets)
                kept_out += 1
            assert len(memo) <= dio._SOLUTIONS_CAP
            answers.append((answer, memo.get(b)))
        dio._MATRIX_CACHE.clear()
        kinds = {"yes": 0, "no": 0, "zero_rhs": 0}
        for (M, b), (answer, stored) in zip(cases, answers):
            full = min_nonneg_solutions(M, b)
            assert answer == bool(full), (M, b, budgets)
            assert stored is None or stored == full, (M, b, budgets)
            kinds["yes" if answer else "no"] += 1
            kinds["zero_rhs"] += not any(b)
        assert min(kinds.values()) >= 20 and (kept_out >= 20 or dio._BOX_BUDGET == 0), (kinds, kept_out, budgets)
    dio._MATRIX_CACHE.clear()


def test_existence_memo_is_bounded(monkeypatch):
    """The "no" answers ``has_nonneg_solution`` memoises stay within
    ``_SOLUTIONS_CAP`` per matrix."""
    import stdpairs.diophantine as dio

    monkeypatch.setattr(dio, "_SOLUTIONS_CAP", 4)
    dio._MATRIX_CACHE.clear()
    M = IntMatrix.from_rows([[3, 5]])
    memo = dio._matrix_data(M).solutions
    for b in (1, 2, 4, 7, -1, -2):  # outside the monoid or the cone
        assert not dio.has_nonneg_solution(M, (b,))
        assert len(memo) <= 4
    assert list(memo) == [(4,), (7,), (-1,), (-2,)]
    assert dio.has_nonneg_solution(M, (8,)) and (8,) not in memo
    dio._MATRIX_CACHE.clear()


def _reference_graded_box(M: IntMatrix, b) -> tuple:
    """The graded box by its definition: w the sum of the reference facet
    normals, ``floor(w . b / w . M_j)`` per nonzero column, 0 per zero one."""
    facets, _ = _reference_facets_of_cone(M.columns(), M.rows)
    w = [sum(col) for col in zip(*(phi for phi, _ in facets))]
    return tuple(vec_dot(w, b) // vec_dot(w, c) if any(c) else 0 for c in M.columns())


def _box_points(M: IntMatrix, b, box) -> list:
    """Every x with ``0 <= x <= box`` and ``M x = b``, by numpy enumeration."""
    import numpy as np

    grid = np.indices(tuple(max(k + 1, 0) for k in box)).reshape(len(box), -1).T
    rows = np.array(M.data, dtype=np.int64).reshape(M.rows, M.cols)
    hits = grid[(grid @ rows.T == np.array(b, dtype=np.int64)).all(axis=1)]
    return sorted(tuple(int(v) for v in x) for x in hits)


@lru_cache(maxsize=None)
def _pointed_matrices() -> dict:
    """Seeded pointed matrices by kind: the generator matrices of
    ``seeded_instances(240, 17)`` (plain, with a zero column, with a
    duplicate column, with both) and of the 20 acceptance instances; their
    kept columns ``A_kept``; every face's ``B_F`` with off-face columns; and
    ``L N`` with N nonnegative of 2-4 rows, some columns zero or repeated,
    and L of rank ``rows(N)`` with one to two rows more, so that the cone
    spans a proper subspace."""
    monoids = [AffineMonoid(IntMatrix.from_cols(cols, rows=d)) for d, cols, _ in seeded_instances(240, 17)]
    monoids += [I.ambient for I in random_instances()]
    kinds = {"generators": {}, "kept": {}, "faces": {}, "lower_dimensional": {}}
    for Q in monoids:
        kinds["generators"][Q.gens] = None
        kinds["kept"][Q._system(Q._kept, ())] = None
        for face in Q.supports:
            _, off, B, _ = Q._record(face)
            if off.cols:
                kinds["faces"][B] = None
    rng = random.Random(2034)
    while len(kinds["lower_dimensional"]) < 120:
        k = rng.randint(1, 3)
        r = k + rng.randint(1, 2)
        L = IntMatrix.from_rows([[rng.randint(-2, 2) for _ in range(k)] for _ in range(r)])
        cols = [tuple(rng.randint(0, 3) for _ in range(k)) for _ in range(rng.randint(1, 4))]
        cols.insert(rng.randint(0, len(cols)), rng.choice([(0,) * k, rng.choice(cols)]))
        if rational_rank(L) == k and any(map(any, cols)):
            kinds["lower_dimensional"][L.matmul(IntMatrix.from_cols(cols, rows=k))] = None
    return {kind: list(matrices) for kind, matrices in kinds.items()}


def test_pointed_systems_are_answered_by_the_graded_walk_alone(monkeypatch):
    """On seeded pointed systems, each matrix with a few right-hand sides
    ``M u`` and ``M u + e``: the graded box is the one of its definition;
    ``min_nonneg_solutions`` equals the completion-first reference and every
    solution lies in the box; where the box has at most 20,000 points, the
    answer is every solution in it (each one is minimal) by brute force;
    ``has_nonneg_solution`` on a cold cache is its truth value; and no
    kernel Hilbert basis, completion or homogenized cone is asked for
    unless a walk overflowed."""
    import stdpairs.diophantine as dio

    asked, overflows = [], []
    for name in ("hilbert_kernel", "_completion", "_homogenized_cone"):
        monkeypatch.setattr(dio, name, _recording(asked, name, getattr(dio, name)))
    box_walk = dio._box_solutions

    def walk(*args, **kwargs):
        found = box_walk(*args, **kwargs)
        if found is None:
            overflows.append(args)
        return found

    monkeypatch.setattr(dio, "_box_solutions", walk)
    rng = random.Random(2035)
    counts = {}
    brute = feasible = 0
    for kind, matrices in _pointed_matrices().items():
        counts[kind] = 0
        for M in matrices:
            for _ in range(2):
                u = tuple(rng.randint(0, 2) for _ in range(M.cols))
                b = M.mul(u)
                if rng.random() < 0.5:
                    b = vec_add(b, tuple(int(i == rng.randrange(M.rows)) for i in range(M.rows)))
                if not any(b):
                    continue
                dio._MATRIX_CACHE.clear()
                asked.clear()
                overflows.clear()
                data = dio._matrix_data(M)
                box = data.graded_box(b)
                assert box == _reference_graded_box(M, b), (kind, M, b)
                got = min_nonneg_solutions(M, b)
                assert all(vec_leq(x, box) for x in got), (kind, M, b)
                assert not asked or overflows, (kind, M, b, asked)
                dio._MATRIX_CACHE.clear()
                answer = has_nonneg_solution(M, b)
                assert answer == bool(got), (kind, M, b)
                assert not asked or overflows, (kind, M, b, asked)
                assert got == _reference_min_nonneg_uncached(M, dio._matrix_data(M), b), (kind, M, b)
                volume = 1
                for k in box:
                    volume *= max(k + 1, 0)
                if volume <= 20000:
                    assert list(got) == _box_points(M, b, box), (kind, M, b)
                    brute += 1
                counts[kind] += 1
                feasible += answer
    dio._MATRIX_CACHE.clear()
    assert min(counts.values()) >= 100 and brute >= 1000 and feasible >= 500, (counts, brute, feasible)


def test_pointed_classification():
    """A matrix is pointed (``graded_box`` is not None) exactly when the
    reference Hilbert basis of ``ker M intersect N^n`` holds only the unit
    vectors of its zero columns, over the seeded kernel matrices and the
    certificate systems' matrices.  Every seeded pointed matrix is pointed,
    and with a column's negation, or the negation of a sum of two nonzero
    columns (a nonnegative kernel vector), it is not."""
    import stdpairs.diophantine as dio

    matrices = _kernel_matrices(random.Random(15), 240)
    matrices += [M for M, _ in _certificate_systems(random.Random(1212), 600)]
    kinds = {"pointed": 0, "not_pointed": 0, "zero_column": 0}
    for M in matrices:
        dio._MATRIX_CACHE.clear()
        units = {tuple(int(i == j) for i in range(M.cols)) for j, c in enumerate(M.columns()) if not any(c)}
        pointed = set(_reference_hilbert_kernel(M)) <= units
        assert (dio._matrix_data(M).graded_box((0,) * M.rows) is not None) == pointed, M
        kinds["pointed" if pointed else "not_pointed"] += 1
        kinds["zero_column"] += pointed and bool(units)
    rng = random.Random(2036)
    for kind, pointed_matrices in _pointed_matrices().items():
        for M in pointed_matrices:
            zero = (0,) * M.rows
            assert _MatrixData(M).graded_box(zero) is not None, (kind, M)
            nonzero = [c for c in M.columns() if any(c)]
            c, d = rng.choice(nonzero), rng.choice(nonzero)
            for extra in (tuple(-a for a in c), tuple(-a - e for a, e in zip(c, d))):
                assert _MatrixData(M.hstack(IntMatrix.from_cols([extra], rows=M.rows))).graded_box(zero) is None, (kind, M, extra)
    dio._MATRIX_CACHE.clear()
    assert min(kinds.values()) >= 20, kinds


def _reference_hilbert_kernel(M: IntMatrix) -> SolutionSet:
    """Minimal nonzero elements (Hilbert basis) of ``{x in N^c : M x = 0}``.

    Every minimal element lies in a half-open parallelepiped of a
    triangulated simplicial subcone, hence below the componentwise sum of
    all extreme rays.  The box below that sum is walked first, unpruned
    (the basis is what it looks for), and its minimal nonzero points kept;
    if it is too large, the parallelepipeds are enumerated directly.
    Cached per matrix.
    """
    data = _matrix_data(M)
    if data.hilbert is None:
        basis = data.kernel_basis()
        rays = _kernel_cone_rays(basis, M.cols)
        if not rays:
            data.hilbert = ()
        else:
            bound = tuple(map(sum, zip(*(_combination(basis, y) for y in rays))))
            zero = (0,) * M.cols
            points = _box_solutions(data, zero, bound, budget=_BOX_BUDGET)
            if points is not None:
                data.hilbert = tuple(minimal_elements(x for x in points if x != zero))
            else:
                data.hilbert = tuple(_hilbert_basis_geometric(basis, rays))
    return SolutionSet.of(M.cols, data.hilbert)


def _kernel_matrices(rng, count):
    """Seeded matrices with 1..3 rows and at most 8 columns, cycling through
    ``[A | -A]`` (three in eight), ``[A | -B]`` (two in eight), signed
    matrices with a zero and a duplicate column, ``r x 0`` and ``0 x c``
    matrices, and matrices with a trivial kernel monoid (independent
    columns, or an all-positive row)."""
    matrices = []
    while len(matrices) < count:
        kind = len(matrices) % 8
        r = rng.randint(1, 3)
        if kind < 3:
            a = [tuple(rng.randint(0, 4) for _ in range(r)) for _ in range(rng.randint(1, 4))]
            M = IntMatrix.from_cols(a + [tuple(-e for e in c) for c in a], rows=r)
        elif kind < 5:
            k = rng.randint(1, 4)
            a = [tuple(rng.randint(0, 4) for _ in range(r)) for _ in range(k)]
            b = [tuple(-rng.randint(0, 4) for _ in range(r)) for _ in range(rng.randint(1, 9 - r - k))]
            M = IntMatrix.from_cols(a + b, rows=r)
        elif kind == 5:
            cols = [tuple(rng.randint(-3, 3) for _ in range(r)) for _ in range(rng.randint(1, 5))]
            cols.insert(rng.randint(0, len(cols)), (0,) * r)
            cols.insert(rng.randint(0, len(cols)), rng.choice(cols))
            M = IntMatrix.from_cols(cols, rows=r)
        elif kind == 6:
            M = rng.choice([IntMatrix.zero(r, 0), IntMatrix.zero(0, rng.randint(0, 4))])
        else:
            cols = [tuple(rng.randint(-3, 3) for _ in range(r)) for _ in range(rng.randint(1, r))]
            cols += [tuple(rng.randint(1, 3) for _ in range(r)) for _ in range(rng.randint(0, 3))]
            M = IntMatrix.from_cols(cols, rows=r)
        matrices.append(M)
    return matrices


def test_hilbert_kernel_routes_agree_with_reference(monkeypatch):
    """The three tiers of ``hilbert_kernel`` (walk, completion,
    triangulation) give the reference's basis, in order, under the default
    budgets and with both cheap tiers off; each tier answers at least 20
    times, and the triangulation alone agrees too.  Seeded wide one-row
    ``[A | -A]``, whose short walk overflows, join the seeded kernel
    matrices so that completion answers well above that floor.  The
    answering tier is the number of tier calls made, since each runs only
    when the one before it overflows."""
    import stdpairs.diophantine as dio

    matrices = _kernel_matrices(random.Random(15), 240)
    matrices += [M for M, _ in _wide_pair_systems(random.Random(1783), 20)]
    expected = []
    for M in matrices:
        dio._MATRIX_CACHE.clear()
        expected.append(list(_reference_hilbert_kernel(M)))
    tiers = []
    monkeypatch.setattr(dio, "_box_solutions", _recording(tiers, "walk", dio._box_solutions))
    monkeypatch.setattr(dio, "_completion", _recording(tiers, "completion", dio._completion))
    monkeypatch.setattr(dio, "_hilbert_basis_geometric", _recording(tiers, "triangulation", _hilbert_basis_geometric))
    order = ["walk", "completion", "triangulation"]
    answered = [0] * 4
    for budgets in ({}, {"_CD_BUDGET": 0}):
        for name, value in budgets.items():
            monkeypatch.setattr(dio, name, value)
        for M, basis in zip(matrices, expected):
            dio._MATRIX_CACHE.clear()
            tiers.clear()
            assert list(hilbert_kernel(M)) == basis, (M, budgets)
            assert tiers == order[: len(tiers)], (M, budgets, tiers)
            assert bool(tiers) == bool(basis), (M, budgets, tiers)
            answered[len(tiers)] += 1
    dio._MATRIX_CACHE.clear()
    assert min(answered[1:]) >= 20, answered
    for M, basis in zip(matrices, expected):
        kernel = integer_kernel_basis(M)
        assert _hilbert_basis_geometric(kernel, _kernel_cone_rays(kernel, M.cols)) == basis, M


def test_hilbert_kernel_answers_pair_differences_without_the_triangulation(monkeypatch):
    """The ``[A | -A]`` matrices whose box walk overflowed into the
    triangulation are answered by the cheap tiers, and a 3-row one whose
    completion explodes is answered before completion runs."""
    import stdpairs.diophantine as dio

    def fail(*args, **kwargs):
        raise AssertionError("tier should not run")

    wide = [
        ([[3, 4, 3, 2, -3, -4, -3, -2]], 36),
        ([[1, 1, 4, 2, -1, -1, -4, -2], [4, 4, 1, 3, -4, -4, -1, -3]], 12),
        ([[2, 4, 4, 4, -2, -4, -4, -4]], 16),
    ]
    tall = IntMatrix.from_rows([[4, 1, 1, 3, -4, -1, -1, -3], [3, 1, 1, 2, -3, -1, -1, -2], [4, 2, 1, 4, -4, -2, -1, -4]])
    expected = {}
    for M in [IntMatrix.from_rows(rows) for rows, _ in wide] + [tall]:
        dio._MATRIX_CACHE.clear()
        expected[M] = _reference_hilbert_kernel(M)
    for rows, size in wide:
        assert len(expected[IntMatrix.from_rows(rows)]) == size
    dio._MATRIX_CACHE.clear()
    monkeypatch.setattr(dio, "_hilbert_basis_geometric", fail)
    for rows, _ in wide:
        M = IntMatrix.from_rows(rows)
        assert hilbert_kernel(M) == expected[M], rows
    monkeypatch.setattr(dio, "_completion", fail)
    assert hilbert_kernel(tall) == expected[tall]
    dio._MATRIX_CACHE.clear()


def _reference_walk_order(columns: list) -> list:
    """The walk order by its definition: each nonzero column, unless an
    earlier one took it, is followed by the first unused later column
    equal to its negation."""
    order = []
    for j, c in enumerate(columns):
        if j in order:
            continue
        order.append(j)
        if any(c):
            neg = tuple(-a for a in c)
            order += [k for k in range(j + 1, len(columns)) if k not in order and columns[k] == neg][:1]
    return order


def test_walk_order_matches_its_definition():
    """Examples (zero and unpaired columns keep their place, a matrix
    without negated columns keeps index order), then seeded column lists
    drawn from three random vectors with entries -1..1, so that repeats,
    negations, zero columns and chains like a, -a, a, -a are common."""
    a, b, z = (1, 2), (0, 3), (0, 0)
    neg = lambda c: tuple(-x for x in c)
    assert _walk_order([a, b, neg(a), neg(b)]) == [0, 2, 1, 3]
    assert _walk_order([a, a, neg(a), neg(a)]) == [0, 2, 1, 3]
    assert _walk_order([z, a, z, neg(b), neg(a), b]) == [0, 1, 4, 2, 3, 5]
    assert _walk_order([neg(a), b, a, a]) == [0, 2, 1, 3]
    assert _walk_order([a, b, (3, 1)]) == [0, 1, 2]
    assert _walk_order([]) == []
    rng = random.Random(191)
    for _ in range(3000):
        r = rng.randint(1, 2)
        pool = [tuple(rng.randint(-1, 1) for _ in range(r)) for _ in range(3)]
        cols = [rng.choice(pool) for _ in range(rng.randint(0, 9))]
        assert _walk_order(cols) == _reference_walk_order(cols), cols


def _reference_reduction(M: IntMatrix) -> tuple:
    """``_MatrixData.reduction`` as it was before the walk order: the one
    echelon pass over ``[M; I]`` visits every row in index order."""
    m, n = M.rows, M.cols
    stacked = [M.col(j) + tuple(int(i == j) for i in range(n)) for j in range(n)]
    cols, pivots = _column_echelon(stacked, m + n)
    return cols, pivots, sum(p < m for p in pivots)


def _index_order_data(M: IntMatrix) -> _MatrixData:
    """Fresh solver data for M whose walk runs on the index-order echelon."""
    data = _MatrixData(M)
    data._reduction = _reference_reduction(M)
    return data


@lru_cache(maxsize=None)
def _pipeline_systems() -> tuple:
    """Every system ``(M, b)`` past the infeasibility certificates that the
    covers and decompositions of ``seeded_instances(240, 17)`` and the 20
    acceptance instances solve: the ``[G | -G']``, ``[F | -A]`` and
    ``[A | -G]`` shapes over the monoids' kept columns.  Then the
    ``[A_F | -A]`` systems of each standard pair ``(a, F)``, built directly
    over the caller's columns, so that the zero and duplicate columns of the
    seeded monoids are in them: with ``g - a`` for each generator g (its
    properness) and ``b - a`` for each base b of the cover."""
    import stdpairs.diophantine as dio

    ideals = []
    for d, cols, gens in seeded_instances(240, 17):
        Q = AffineMonoid(IntMatrix.from_cols(cols, rows=d))
        ideals.append(MonomialIdeal(Q, IntMatrix.from_cols(gens, rows=d)))
    ideals += random_instances()
    seen = {}
    certificates = dio._infeasible

    def record(data, b):
        infeasible = certificates(data, b)
        if not infeasible:
            seen.setdefault((data.M, b), None)
        return infeasible

    dio._MATRIX_CACHE.clear()
    dio._infeasible = record
    try:
        for I in ideals:
            irreducible_decomposition(I)
    finally:
        dio._infeasible = certificates
    for I in ideals:
        A = I.ambient.gens
        pairs = I.standard_cover().pairs()
        for p in pairs:
            M = A.take_cols(p.face).hstack(A.neg())
            for g in I.gens.columns() + [q.base for q in pairs]:
                b = vec_sub(g, p.base)
                if not certificates(dio._matrix_data(M), b):
                    seen.setdefault((M, b), None)
    dio._MATRIX_CACHE.clear()
    return tuple(seen)


def test_box_walk_does_not_depend_on_the_row_order():
    """The pruned walk over the walk-order echelon gives the same minimal
    solutions as over the index-order one, on every solvable system of the
    seeded and acceptance pipelines and on seeded walks with zero and
    duplicate columns.  An index-order walk that overflows ``_BOX_BUDGET``
    is not compared here (tier 3 answers it; see the next test)."""
    walks = []
    for M, b in _pipeline_systems():
        data = _MatrixData(M)
        x0 = _particular_solution(data, b)
        walks.append((M, x0, _homogenized_cone(data, x0)[2]))
    walks += [(M, x0, bound) for M, _, x0, bound in _box_walk_systems(random.Random(64), 120)]
    compared = reordered = zero_column = duplicate_column = 0
    for M, x0, bound in walks:
        hilbert = hilbert_kernel(M).vectors
        expected = _box_solutions(_index_order_data(M), x0, bound, _BOX_BUDGET, above=hilbert)
        if expected is None:
            continue
        assert sorted(_box_solutions(_MatrixData(M), x0, bound, above=hilbert)) == sorted(expected), (M, x0, bound)
        cols = M.columns()
        compared += 1
        reordered += _walk_order(cols) != list(range(M.cols))
        zero_column += any(not any(c) for c in cols)
        duplicate_column += len(set(cols)) < len(cols)
    assert compared >= 2000 and reordered >= 800, (compared, reordered)
    assert zero_column >= 100 and duplicate_column >= 100, (zero_column, duplicate_column)


def test_min_nonneg_solutions_do_not_depend_on_the_row_order(monkeypatch):
    """With tier 1 off, ``min_nonneg_solutions`` gives the same answers
    when every matrix's echelon is taken in index order, on the pipeline
    systems of at most 9 columns (the wider ones spend seconds in the
    triangulation without tier 1) and on the seeded walk systems."""
    import stdpairs.diophantine as dio

    systems = [(M, b) for M, b in _pipeline_systems() if M.cols <= 9]
    systems += [(M, b) for M, b, _, _ in _box_walk_systems(random.Random(65), 120)]
    walk_order = dio._MatrixData.reduction

    def index_order(self):
        if self._reduction is None:
            self._reduction = _reference_reduction(self.M)
        return self._reduction

    monkeypatch.setattr(dio, "_CD_BUDGET", 0)
    answers = []
    for reduction in (walk_order, index_order):
        monkeypatch.setattr(dio._MatrixData, "reduction", reduction)
        dio._MATRIX_CACHE.clear()
        answers.append([min_nonneg_solutions(M, b) for M, b in systems])
    dio._MATRIX_CACHE.clear()
    assert len(systems) >= 2000
    for (M, b), new, old in zip(systems, *answers):
        assert new == old, (M, b)


# The principal covers of the benchmark's ladder: the square cone and the
# Veronese cone, each cover making one [A | -A] solve with b on the right.
_SQUARE_CONE = [(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)]
_VERONESE = [(1, 0), (1, 1), (1, 2)]
_PRINCIPAL_LADDER = [(_SQUARE_CONE, b) for b in [(4, 2, 5), (1, 3, 6), (4, 2, 6), (3, 1, 7), (5, 3, 7), (2, 2, 8)]]
_PRINCIPAL_LADDER += [(_VERONESE, b) for b in [(9, 11), (10, 13), (12, 15), (13, 9)]]


def test_principal_ladder_walks_a_tenth_of_the_index_order_units():
    """On each ladder solve the walk-order echelon lets every level prune
    its ``(e_j, e_j)`` kernel vector, so the pruned walk visits at most a
    tenth of the units it visits in index order, with the same answer."""
    for cols, b in _PRINCIPAL_LADDER:
        A = IntMatrix.from_cols(cols)
        M = A.hstack(A.neg())
        data, old = _MatrixData(M), _index_order_data(M)
        x0 = _particular_solution(data, b)
        bound = _homogenized_cone(data, x0)[2]
        hilbert = hilbert_kernel(M).vectors

        def pruned(*args):
            return _box_solutions(*args, above=hilbert)

        units = _node_count(pruned, data, x0, bound, 10**6)
        index_units = _node_count(pruned, old, x0, bound, 10**6)
        assert 10 * units <= index_units, (b, units, index_units)
        assert sorted(pruned(data, x0, bound)) == sorted(pruned(old, x0, bound)), b


def test_principal_ladder_full_solves_skip_completion(monkeypatch):
    """``hilbert_kernel``'s short walk answers each ladder matrix, and its
    full solve goes straight to the walk, with the completion-first
    answer: no completion runs."""
    import stdpairs.diophantine as dio

    systems = []
    for cols, b in _PRINCIPAL_LADDER:
        A = IntMatrix.from_cols(cols)
        M = A.hstack(A.neg())
        dio._MATRIX_CACHE.clear()
        systems.append((M, b, _reference_min_nonneg_uncached(M, dio._matrix_data(M), b)))

    def fail(*args, **kwargs):
        raise AssertionError("tier 1 should not run")

    for M, b, expected in systems:
        dio._MATRIX_CACHE.clear()
        with monkeypatch.context() as patch:
            patch.setattr(dio, "_completion", fail)
            hilbert_kernel(M)
            assert min_nonneg_solutions(M, b) == expected, b
    dio._MATRIX_CACHE.clear()


def test_full_solves_run_no_completion_outside_the_kernel_basis(monkeypatch):
    """A one-row ``[A | -A]`` whose short kernel walk overflows takes its
    kernel Hilbert basis from completion, and its full solve then runs no
    completion: the walk comes first.  A pointed A without zero columns
    (the square cone, the Veronese cone), whose kernel has no nonnegative
    ray and so no short walk, is answered by the graded box walk alone: no
    completion, no kernel Hilbert basis."""
    import stdpairs.diophantine as dio

    def fail(*args, **kwargs):
        raise AssertionError("should not run")

    wide = IntMatrix.from_rows([[3, 4, 3, 2, -3, -4, -3, -2]])
    pointed = [(IntMatrix.from_cols(_SQUARE_CONE), (2, 2, 5)), (IntMatrix.from_cols(_VERONESE), (9, 11))]
    systems = [(wide, (5,)), (wide, (1,))] + pointed
    tiers = []
    monkeypatch.setattr(dio, "_completion", _recording(tiers, "completion", dio._completion))
    monkeypatch.setattr(dio, "_box_solutions", _recording(tiers, "walk", dio._box_solutions))
    for M, b in systems:
        dio._MATRIX_CACHE.clear()
        expected = _reference_min_nonneg_uncached(M, dio._matrix_data(M), b)
        assert expected, (M, b)
        dio._MATRIX_CACHE.clear()  # the reference filled the kernel data
        tiers.clear()
        with monkeypatch.context() as patch:
            if M == wide:
                hilbert_kernel(M)
                assert tiers == ["walk", "completion"], (M, tiers)
                tiers.clear()
                patch.setattr(dio, "_completion", fail)
            else:
                for name in ("_completion", "hilbert_kernel", "_homogenized_cone"):
                    patch.setattr(dio, name, fail)
            assert min_nonneg_solutions(M, b) == expected, (M, b)
        assert tiers[0] == "walk", (M, b, tiers)
    dio._MATRIX_CACHE.clear()


def _paired_matrices(rng, count):
    """Seeded ``(M, paired)``: ``paired`` matrices hold the negation of each
    of their columns, in shuffled order, cycling through plain pairs, pairs
    with a zero column, pairs with a duplicate column, and pairs scaled by
    2 (``Z M`` not saturated); every fifth matrix drops one column of a
    pair, so that its cone has facets or lies in a smaller span."""
    out = []
    while len(out) < count:
        kind = len(out) % 5
        r = rng.randint(1, 3)
        cols = [tuple(rng.randint(-3, 3) for _ in range(r)) for _ in range(rng.randint(1, 3))]
        if kind == 3:
            cols = [tuple(2 * a for a in c) for c in cols]
        cols += [tuple(-a for a in c) for c in cols]
        if kind == 1:
            cols.append((0,) * r)
        if kind == 2:
            cols.append(rng.choice(cols))
        rng.shuffle(cols)
        if kind == 4:
            cols.pop(rng.randrange(len(cols)))
        present = set(cols)
        out.append((IntMatrix.from_cols(cols, rows=r), all(tuple(-a for a in c) in present for c in cols)))
    return out


def test_cone_of_negation_pairs_skips_the_double_description(monkeypatch):
    """When every column's negation is a column, ``_MatrixData.cone`` gives
    exactly what the double description gives (no facets, the same span
    equations) without running it; otherwise it runs it once."""
    import stdpairs.diophantine as dio

    calls = []

    def counting(cols, dim):
        calls.append(cols)
        return _facets_of_cone(cols, dim)

    monkeypatch.setattr(dio, "_facets_of_cone", counting)
    kinds = {"paired": 0, "zero_column": 0, "non_saturated": 0, "with_facets": 0}
    for M, paired in _paired_matrices(random.Random(19), 300):
        facets, equations = _facets_of_cone(M.columns(), M.rows)
        data = _MatrixData(M)
        calls.clear()
        assert data.cone() == (tuple(phi for phi, _ in facets), tuple(equations)), M
        assert len(calls) == (not paired), M
        assert not paired or not facets, M
        kinds["paired"] += paired
        kinds["zero_column"] += paired and (0,) * M.rows in M.columns()
        kinds["non_saturated"] += paired and not data.saturated()
        kinds["with_facets"] += bool(facets)
    assert min(kinds.values()) >= 20, kinds
