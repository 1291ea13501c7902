import ast
import random
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
    _extreme_rays_dd,
    _facets_of_cone,
    _hilbert_basis_geometric,
    _integer_inverse,
    _kernel_cone_rays,
    _lattice_reduce,
    _matrix_data,
    _MatrixData,
    _negation_pairs,
    _box_solutions,
    _BOX_BUDGET,
    _ceil_div,
    _column_echelon,
    _combination,
    _parallelepiped_points,
    _particular_solution,
    _saturated_span_basis,
    has_nonneg_solution,
    hilbert_kernel,
    integer_kernel_basis,
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

from stdpairs import AffineMonoid, MonomialIdeal, ProperPair, irreducible_decomposition

from oracles import brute_hilbert, brute_min_solutions, seeded_instances
from test_acceptance import random_instances


def test_min_solutions_examples():
    M = IntMatrix.from_rows([[1, 2], [0, 2]])
    assert list(min_nonneg_solutions(M, (3, 2))) == [(1, 1)]
    assert list(min_nonneg_solutions(M, (0, 0))) == [(0, 0)]
    assert list(min_nonneg_solutions(M, (1, 1))) == []


def _lattice_coords(basis: list, target, dim: int) -> tuple:
    """``_lattice_reduce`` over the basis vectors as columns: the target's
    coordinates and its residue, zero iff it lies in their lattice."""
    return _lattice_reduce(_MatrixData(IntMatrix.from_cols(basis, rows=dim)), target)


def _triangulate_over_span(monkeypatch, span: list, rays: list):
    """``_hilbert_basis_geometric`` over the unit basis, reading the rays'
    coordinates in ``span`` in place of their saturated span basis."""
    import stdpairs.diophantine as dio

    monkeypatch.setattr(dio, "_saturated_span_basis", lambda cols, dim: span)
    return _hilbert_basis_geometric([tuple(int(i == j) for i in range(len(rays[0]))) for j in range(len(rays[0]))], rays)


def test_coords_in_basis_rejects_non_integer_coordinates(monkeypatch):
    assert _lattice_coords([(2,)], (1,), 1)[1] != (0,)
    with pytest.raises(ArithmeticError, match=r"\(1,\)"):
        _triangulate_over_span(monkeypatch, [(2,)], [(1,)])


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
    monkeypatch.setattr(dio, "_BOX_BUDGET", 0)
    triangulation_tier = run()
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


def test_ragged_columns_are_rejected():
    """A column of another length is a ``ValueError``, as a ragged row is
    for ``from_rows``: not dropped entries, not an ``IndexError``."""
    with pytest.raises(ValueError, match="ragged matrix column"):
        IntMatrix.from_cols([[1, 2], [3, 4, 5]])
    with pytest.raises(ValueError, match="ragged matrix column"):
        IntMatrix.from_cols([[1, 2]], rows=3)
    assert IntMatrix.from_cols([], rows=2) == IntMatrix(2, 0, ((), ()))


@pytest.mark.parametrize(
    "make",
    [
        lambda: IntMatrix.from_rows([[1.7, 2]]),
        lambda: IntMatrix.from_cols([(1, 2.0)]),
        lambda: AffineMonoid([[1, 1], [0, 1]]).contains((2.9, 1.2)),
        lambda: AffineMonoid([[1, 1], [0, 1]]).is_element((Fraction(5, 2), 1)),
        lambda: MonomialIdeal(AffineMonoid([[1, 1], [0, 1]]), [[2.5], [1.9]]),
        lambda: MonomialIdeal(AffineMonoid([[1, 1], [0, 1]]), [[2], [1]]).is_element(("2", "1")),
        lambda: min_nonneg_solutions(IntMatrix.from_rows([[1, 2]]), (Fraction(4, 1),)),
        lambda: has_nonneg_solution(IntMatrix.from_rows([[1, 2]]), (3.0,)),
        lambda: ProperPair((2, 1), (0.9,), MonomialIdeal(AffineMonoid([[1, 1], [0, 1]]), [[2], [1]]), skip_check=True),
    ],
    ids=["from_rows", "from_cols", "contains", "monoid_is_element", "ideal", "ideal_is_element", "solve", "exists", "pair_face"],
)
def test_non_integer_entries_are_rejected(make):
    """A float, ``Fraction`` or string entry is a ``TypeError``, never
    truncated: ``(2.9, 1.2)`` is not read as the monoid's ``(2, 1)``, nor
    is a generator ``(2.5, 1.9)`` read as ``(2, 1)``, nor a pair's face
    ``(0.9,)`` as ``(0,)``; an integral ``Fraction(4, 1)`` or ``3.0`` is
    not an ``int`` either."""
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        make()


def test_integer_like_entries_are_read_as_ints():
    """Bools and numpy integers are integers, and read as plain ``int``s."""
    np = pytest.importorskip("numpy")
    M = IntMatrix.from_rows(np.array([[1, 1], [0, 1]]))
    assert M == IntMatrix.from_rows([[1, 1], [0, 1]])
    assert all(type(a) is int for r in M.data for a in r)
    assert min_nonneg_solutions(M, (np.int64(2), True)) == min_nonneg_solutions(M, (2, 1))
    assert AffineMonoid([[True, 1], [False, 1]]).contains((np.int32(2), 1))


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
    rays = sorted(_combination(basis, y) for y in _kernel_cone_rays(basis))
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
    column echelon form with positive pivots (as the box walk needs)."""
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
            _reference_coords_in_basis(basis, reference, M.cols)
            _reference_coords_in_basis(reference, basis, M.cols)

        levels = data.walk_plan[1]
        pivots = [p for p, _, _, _, _ in levels]
        assert len(levels) == len(basis), M
        assert all(p < q for p, q in zip(pivots, pivots[1:])), M
        for col, (p, coeff, _, _, entries) in zip(basis, levels):
            assert col[p] == coeff > 0 and not any(col[:p]), M
            assert entries == [(r, c) for r, c in enumerate(col) if c], M
    assert solvable >= 600 and unsolvable >= 500 and with_kernel >= 150


def _lattice_saturated(data: _MatrixData) -> bool:
    """Whether ``Z M`` is all of ``span M intersect Z^d``: each vector of a
    basis of the latter lies in ``Z M``."""
    return all(_particular_solution(data, v) is not None for v in _saturated_span_basis(data.M.columns(), data.M.rows))


def test_lattice_residue_is_canonical_mod_lattice():
    """The residue of b modulo Z M (``_lattice_reduce(...)[1]``) is the same
    for b and b + M z, is zero exactly when ``_particular_solution`` finds
    an integer solution, and differs from b by a lattice vector; on r x 0
    matrices, zero columns and lattices not saturated in their span too."""
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
        non_saturated += not _lattice_saturated(data)
        for _ in range(4):
            b = tuple(rng.randint(-6, 6) for _ in range(M.rows))
            residue = _lattice_reduce(data, b)[1]
            z = tuple(rng.randint(-3, 3) for _ in range(M.cols))
            assert _lattice_reduce(data, vec_add(b, M.mul(z)))[1] == residue, (M, b, z)
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


def _homogenized_box(data: _MatrixData, x0) -> tuple:
    """The rays of ``{(x, t) >= 0 : M x = t b}``, where ``M x0 = b``, and the
    box of the homogenized walk that the references below take.

    ``(x, t) - t (x0, 1)`` lies in ``ker_Z M x {0}``, so the kernel basis
    padded with ``t = 0`` plus ``(x0, 1)`` is a basis of the saturated
    integer kernel of ``[M | -b]``.  Returns it, the rays in its
    coordinates, and the box, which is None when no ray has ``t > 0`` (the
    polyhedron is empty).  The rays with ``t = 0`` are the kernel rays and
    those with ``t > 0`` are ``(d v, d)`` for the vertices v, so coordinate
    j of a minimal solution is bounded by the sum of the kernel rays plus
    the largest ``ceil(r_j / t)``."""
    basis = [h + (0,) for h in data.kernel_basis()] + [tuple(x0) + (1,)]
    rays = _kernel_cone_rays(basis)
    xt = [_combination(basis, y) for y in rays]
    vertices = [r for r in xt if r[-1]]
    if not vertices:
        return basis, rays, None
    bound = tuple(
        sum(r[j] for r in xt if not r[-1]) + max(_ceil_div(r[j], r[-1]) for r in vertices)
        for j in range(len(x0))
    )
    return basis, rays, bound


def test_vertices_match_reference():
    """The rays with t > 0 of the homogenized cone give the same distinct
    vertices as the Fraction subset inverses, its rays with t = 0 are the
    kernel rays, and the homogenized box is the sum of the kernel rays plus
    the componentwise vertex ceiling (None without a vertex)."""
    rng = random.Random(73)
    with_vertices = without = 0
    for M in _EDGE_MATRICES + _random_int_matrices(rng, 300, max_rows=4, max_cols=6):
        data = _MatrixData(M)
        for _ in range(3):
            b = tuple(rng.randint(-2, 6) for _ in range(M.rows))
            _, expected = _reference_vertices(M, b)
            expected = sorted(set(map(tuple, expected)))
            x0 = _particular_solution(data, b)
            if x0 is None:  # no (x0, 1) to pad with; build the cone from another basis
                basis = integer_kernel_basis(M.hstack(IntMatrix.from_cols([[-x for x in b]], rows=M.rows)))
                rays_y = _kernel_cone_rays(basis)
            else:
                basis, rays_y, bound = _homogenized_box(data, x0)
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
    """Same coordinates (``_lattice_reduce``'s quotients, with a zero
    residue) for targets in the lattice, and a nonzero residue for targets
    off it, where the Fraction version raises; the saturated span basis
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
        zero = (0,) * dim
        for t in targets:
            try:
                expected = _reference_coords_in_basis(reference_span, [t], dim)
            except ArithmeticError:
                errors += 1
                assert _lattice_coords(reference_span, t, dim)[1] != zero, (reference_span, t)
            else:
                assert _lattice_coords(reference_span, t, dim) == (expected[0], zero)
        expected = [(z, zero) for z in _reference_coords_in_basis(span, cols, dim)]
        assert [_lattice_coords(span, c, dim) for c in cols] == expected
    assert errors >= 100


def test_coords_in_basis_rejects_targets_outside_the_span(monkeypatch):
    assert _lattice_coords([(1, 0)], (3, 0), 2) == ((3,), (0, 0))
    assert _lattice_coords([(1, 0)], (0, 1), 2)[1] != (0, 0)
    assert _lattice_coords([(1, 0, 0), (0, 0, 2)], (1, 1, 0), 3)[1] != (0, 0, 0)
    with pytest.raises(ArithmeticError, match=r"\(0, 1\) does not lie in the lattice"):
        _triangulate_over_span(monkeypatch, [(1, 0)], [(3, 0), (0, 1)])
    with pytest.raises(ArithmeticError, match=r"\(1, 1, 0\) does not lie in the lattice"):
        _triangulate_over_span(monkeypatch, [(1, 0, 0), (0, 0, 2)], [(1, 1, 0)])


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
        got = _hilbert_basis_geometric(basis, _kernel_cone_rays(basis))
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
    cols = data.kernel_basis()
    k = len(cols)
    pivots = [next(r for r, c in enumerate(col) if c) for col in cols]
    level = [max((j + 1 for j, c in enumerate(cols) if c[row]), default=0) for row in range(data.M.cols)]
    determined = [[row for row in range(data.M.cols) if level[row] == i] for i in range(k + 1)]

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
    the box.  The box is the homogenized box when there is one, else (and
    for every fourth system) a random one."""
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
        bound = _homogenized_box(data, x0)[2]
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


def test_box_walk_yields_every_box_solution():
    """The walk yields exactly the reference walk's solutions, for any box:
    every solution in it, minimal or not."""
    kinds = {"pair_difference": 0, "zero_column": 0, "trivial_kernel": 0, "x0_outside": 0}
    for n, (M, b, x0, bound) in enumerate(_box_walk_systems(random.Random(61), 240)):
        data = _MatrixData(M)
        every = _reference_box_solutions(data, x0, bound)
        assert _box_solutions(data, x0, bound) == every, (M, x0, bound)
        assert all(M.mul(x) == b for x in every)
        kinds["pair_difference"] += n % 4 == 0 and len(minimal_elements(every)) < len(every)
        kinds["zero_column"] += n % 4 == 1 and any(x for x in every)
        kinds["trivial_kernel"] += not data.kernel_basis()
        kinds["x0_outside"] += not all(0 <= a <= c for a, c in zip(x0, bound))
    assert all(kinds.values()), kinds


def test_box_walk_budget():
    """Budgets from 0 up to the reference walk's node count: the walk
    overflows exactly where the reference does, and otherwise yields the
    reference's solutions."""
    overflowed = answered = 0
    for M, b, x0, bound in _box_walk_systems(random.Random(62), 80):
        data = _MatrixData(M)
        nodes = _node_count(_reference_box_solutions, data, x0, bound, 10**6)
        budgets = range(nodes + 1) if nodes <= 120 else {0, 1, nodes // 2, nodes - 1, nodes}
        for budget in budgets:
            reference = _reference_box_solutions(data, x0, bound, budget)
            assert _box_solutions(data, x0, bound, budget) == reference, (M, x0, bound, budget)
            overflowed += reference is None
            answered += reference is not None
    assert overflowed >= 20 and answered >= 20, (overflowed, answered)


def test_fallback_tiers_on_pair_difference_systems(monkeypatch):
    """With the box budget at 0 or 30, the triangulation takes over from
    the signed walk and the answers stay the reference ones."""
    import stdpairs.diophantine as dio

    rng = random.Random(63)
    cases = []
    while len(cases) < 60:
        M, b = _pair_difference_system(rng)
        if any(b):
            data = _MatrixData(M)
            x0 = _particular_solution(data, b)
            bound = _homogenized_box(data, x0)[2]
            cases.append((M, b, minimal_elements(_reference_box_solutions(data, x0, bound))))
    tiers = {"tier2": 0, "tier3": 0}
    box_walk, triangulation = dio._box_solutions, dio._hilbert_basis_geometric

    def count_box_walk(*args, **kwargs):
        points = box_walk(*args, **kwargs)
        tiers["tier2"] += points is not None
        return points

    def count_triangulation(*args):
        tiers["tier3"] += 1
        return triangulation(*args)

    monkeypatch.setattr(dio, "_box_solutions", count_box_walk)
    monkeypatch.setattr(dio, "_hilbert_basis_geometric", count_triangulation)
    for box_budget in (30, 0):
        monkeypatch.setattr(dio, "_BOX_BUDGET", box_budget)
        tiers.update(tier2=0, tier3=0)
        dio._MATRIX_CACHE.clear()
        for M, b, expected in cases:
            assert list(min_nonneg_solutions(M, b)) == expected, (M, b, box_budget)
        assert tiers["tier3"] and (tiers["tier2"] or not box_budget), (box_budget, tiers)
    dio._MATRIX_CACHE.clear()


_REFERENCE_CD_BUDGET = 500


def _reference_min_nonneg_uncached(M: IntMatrix, data: _MatrixData, b, budget: int = _REFERENCE_CD_BUDGET) -> SolutionSet:
    """The uncached solve without the infeasibility certificates or the
    graded walk: every system first goes to the completion of the
    homogenized system ``[M | -b]``, seeded with the kernel Hilbert basis
    and capped at 1 in the slack coordinate, for ``budget`` nodes, then,
    unless it has no particular solution, to
    ``_reference_homogenized_walk``."""
    slack = M.cols
    columns = M.columns() + [tuple(-e for e in b)]
    seed = [h + (0,) for h in hilbert_kernel(M)]
    quick = _reference_completion(columns, M.rows, cap_index=slack, seed=seed, budget=budget)
    if quick is not None:
        return SolutionSet.of(M.cols, [x[:slack] for x in quick if x[slack] == 1])

    x0 = _particular_solution(data, b)
    if x0 is None:
        return SolutionSet.of(M.cols, [])
    return _reference_homogenized_walk(M, data, x0)


def _reference_homogenized_walk(M: IntMatrix, data: _MatrixData, x0) -> SolutionSet:
    """The minimal solutions of ``M x = M x0`` through the kernel Hilbert
    basis H: the walk of the homogenized box (``_homogenized_box``) keeps
    the solutions that lie above no h in H, since a solution x is not
    minimal iff ``x >= h`` for some h in H (``x - y`` is a nonzero element
    of ``ker M intersect N^n`` for any other solution ``y <= x``).  A cone
    with no ray of height t > 0 has no solution, and a walk past the
    default ``_BOX_BUDGET`` gives way to the triangulation of the
    homogenized cone."""
    basis, rays, bound = _homogenized_box(data, x0)
    if bound is None:
        return SolutionSet.of(M.cols, [])
    points = _box_solutions(data, x0, bound, budget=_BOX_BUDGET)
    if points is None:
        hilbert = _hilbert_basis_geometric(basis, rays)
        return SolutionSet.of(M.cols, [x[:-1] for x in hilbert if x[-1] == 1])
    H = hilbert_kernel(M).vectors
    return SolutionSet.of(M.cols, [x for x in points if not any(vec_leq(h, x) for h in H)])


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


def _unpaired_systems(rng, count):
    """Seeded ``(kind, M, b)``, b != 0, over matrices that are not pointed
    and have no negation pair, cycling through the square cone's
    ``[A_F | -A_G]`` (F, G disjoint, with a kernel vector such as
    ``(1, 1, 1, 1)`` on ``[A_{0,2} | -A_{1,3}]``), mixed-sign matrices of
    1-3 rows and 3-5 columns, and mixed-sign matrices of 2-4 columns with a
    zero and a duplicate column inserted; b is ``M u``, or ``M u`` plus a
    unit vector."""
    kinds = ["square_cone_faces", "mixed_sign", "zero_and_duplicate_columns"]
    systems = []
    while len(systems) < count:
        kind = len(systems) % 3
        if kind:
            r = rng.randint(1, 3)
            cols = [tuple(rng.randint(-3, 3) for _ in range(r)) for _ in range(rng.randint(3, 5) - kind + 1)]
            if kind == 2:
                cols.insert(rng.randint(0, len(cols)), (0,) * r)
                cols.insert(rng.randint(0, len(cols)), rng.choice(cols))
        else:
            order = rng.sample(range(4), 4)
            cut = rng.randint(1, 3)
            cols = [_SQUARE_CONE[j] for j in order[:cut]] + [tuple(-a for a in _SQUARE_CONE[j]) for j in order[cut:]]
        M = IntMatrix.from_cols(cols, rows=len(cols[0]))
        if _negation_pairs(cols) or _MatrixData(M).graded_box((0,) * M.rows) is not None:
            continue
        b = M.mul(tuple(rng.randint(0, 2) for _ in cols))
        if rng.random() < 0.5:
            b = vec_add(b, tuple(int(i == rng.randrange(M.rows)) for i in range(M.rows)))
        if any(b):
            systems.append((kinds[kind], M, b))
    return systems


def test_infeasibility_certificates_are_exact(monkeypatch):
    """The certificates settle only systems without a solution: every answer
    equals the reference solver's without them, which always runs
    completion first, with the reference's completion budget at its
    default and at 0, and with both that and the walk's budget at 0.  Each
    of the three routes of the full solve runs at least 20 times: the
    graded walk alone on a pointed system; the signed walk, on a system
    that is not pointed or after a graded walk that overflowed; and the
    triangulation, after a signed walk that overflowed.  No full solve calls ``hilbert_kernel`` or
    ``_completion``.  Seeded wide ``[A | -A]`` and seeded non-pointed
    matrices without a negation pair join the systems under the default
    budgets.  Where a particular solution exists, the span-and-cone test
    holds exactly when the homogenized cone has no ray with t > 0."""
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
        normals, equations = data.cone
        rank = rational_rank(M)
        in_span = rank == rational_rank(M.hstack(IntMatrix.from_cols([b], rows=M.rows)))
        assert in_span == (not any(vec_dot(e, b) for e in equations)), (M, b)
        in_cone = in_span and all(vec_dot(phi, b) >= 0 for phi in normals)
        assert in_cone == bool(_reference_vertices(M, b)[1]), (M, b)
        x0 = _particular_solution(data, b)
        if x0 is not None:
            bound = _homogenized_box(data, x0)[2]
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
        start = dio._start(data, b)
        settled = start is None
        assert settled == (not in_cone or x0 is None), (M, b)
        assert settled or M.mul(start) == b, (M, b, start)
        kinds["unsettled_empty"] += not settled and not min_nonneg_solutions(M, b)
    assert min(kinds.values()) >= 20, kinds

    tiers = []
    for name in ("_box_solutions", "_signed_solutions", "_geometric_solutions", "_completion", "hilbert_kernel"):
        monkeypatch.setattr(dio, name, _recording(tiers, name, getattr(dio, name)))
    routes = {"graded": 0, "signed": 0, "triangulation": 0}
    signed = ["_signed_solutions", "_box_solutions"]
    extra = _wide_pair_systems(random.Random(1213), 30) + [(M, b) for _, M, b in _unpaired_systems(random.Random(1214), 40)]
    for budgets in ((_REFERENCE_CD_BUDGET, _BOX_BUDGET), (0, _BOX_BUDGET), (0, 0)):
        reference_budget, box_budget = budgets
        monkeypatch.setattr(dio, "_BOX_BUDGET", box_budget)
        dio._MATRIX_CACHE.clear()
        for M, b in systems if reference_budget == 0 else systems + extra:
            data = dio._matrix_data(M)
            expected = _reference_min_nonneg_uncached(M, data, b, reference_budget)
            settled = dio._start(data, b) is None
            graded = [] if settled or data.graded_box(b) is None else ["_box_solutions"]
            dio._MATRIX_CACHE.clear()  # the reference filled the kernel data
            tiers.clear()
            assert min_nonneg_solutions(M, b) == expected, (M, b, budgets)
            if settled:
                assert not tiers, (M, b, tiers)
            elif graded and tiers == graded:
                routes["graded"] += 1
            elif tiers == graded + signed:
                routes["signed"] += 1
            else:
                assert tiers == graded + signed + ["_geometric_solutions"], (M, b, budgets, tiers)
                routes["triangulation"] += 1
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
    the default walk budget and with the walk's budget at 0.  The
    "yes" of a graded box walk that did not overflow never enters the
    solution memo (at least 20 such), whatever is stored there is the full
    answer, and the pointed overflow systems are answered with no
    completion under the default budget.  They are left out with the
    walk's budget at 0, where each takes the triangulation seconds."""
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
    for budgets in ({}, {"_BOX_BUDGET": 0}):
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
            _, _, off, B, _ = Q._record(face)
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
    kernel Hilbert basis, completion, signed walk or triangulation is asked
    for unless a walk overflowed."""
    import stdpairs.diophantine as dio

    asked, overflows = [], []
    for name in ("hilbert_kernel", "_completion", "_signed_solutions", "_geometric_solutions"):
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
        rays = _kernel_cone_rays(basis)
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
    """``hilbert_kernel`` takes one route, the triangulation, once per
    matrix, and calls neither the box walk nor completion; its basis is
    the reference's (a box walk, then the triangulation) on the seeded
    kernel matrices and on seeded wide one-row ``[A | -A]``, whose kernel
    boxes are large.  The triangulation over ``integer_kernel_basis``
    agrees too."""
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
    for M, basis in zip(matrices, expected):
        dio._MATRIX_CACHE.clear()
        tiers.clear()
        assert list(hilbert_kernel(M)) == basis, M
        assert list(hilbert_kernel(M)) == basis, M  # from the memo
        assert tiers == ["triangulation"], (M, tiers)
    dio._MATRIX_CACHE.clear()
    for M, basis in zip(matrices, expected):
        kernel = integer_kernel_basis(M)
        assert _hilbert_basis_geometric(kernel, _kernel_cone_rays(kernel)) == basis, M


def test_hilbert_kernel_answers_pair_differences_by_the_triangulation_alone(monkeypatch):
    """The ``[A | -A]`` matrices whose box walk overflows, and a 3-row one
    whose completion explodes, are answered by the triangulation with the
    reference's bases, with neither the box walk nor completion run."""
    import stdpairs.diophantine as dio

    def fail(*args, **kwargs):
        raise AssertionError("should not run")

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
    monkeypatch.setattr(dio, "_box_solutions", fail)
    monkeypatch.setattr(dio, "_completion", fail)
    for M in expected:
        assert hilbert_kernel(M) == expected[M], M
    dio._MATRIX_CACHE.clear()


def _reference_negation_pairs(columns: list) -> dict:
    """The negation pairs by their definition: each nonzero column, unless
    an earlier one took it, takes the first later column not yet taken
    that equals its negation."""
    partner = {}
    for j, c in enumerate(columns):
        if j in partner.values() or not any(c):
            continue
        neg = tuple(-a for a in c)
        taken = [k for k in range(j + 1, len(columns)) if k not in partner.values() and columns[k] == neg][:1]
        partner.update((j, k) for k in taken)
    return partner


def test_negation_pairs_match_their_definition():
    """Examples (zero and unpaired columns stay unpaired, a matrix without
    negated columns has no pair), then seeded column lists drawn from three
    random vectors with entries -1..1, so that repeats, negations, zero
    columns and chains like a, -a, a, -a are common."""
    a, b, z = (1, 2), (0, 3), (0, 0)
    neg = lambda c: tuple(-x for x in c)
    assert _negation_pairs([a, b, neg(a), neg(b)]) == {0: 2, 1: 3}
    assert _negation_pairs([a, a, neg(a), neg(a)]) == {0: 2, 1: 3}
    assert _negation_pairs([z, a, z, neg(b), neg(a), b]) == {1: 4, 3: 5}
    assert _negation_pairs([neg(a), b, a, a]) == {0: 2}
    assert _negation_pairs([a, b, (3, 1)]) == {}
    assert _negation_pairs([]) == {}
    rng = random.Random(191)
    for _ in range(3000):
        r = rng.randint(1, 2)
        pool = [tuple(rng.randint(-1, 1) for _ in range(r)) for _ in range(3)]
        cols = [rng.choice(pool) for _ in range(rng.randint(0, 9))]
        assert _negation_pairs(cols) == _reference_negation_pairs(cols), cols


def _reversed_reduction(M: IntMatrix) -> tuple:
    """``_MatrixData.reduction`` with the rows of I visited in reverse
    order: the echelon pass runs over ``[M; I]`` with I's rows reversed,
    and the tails and pivot rows are read back in index order.  So each
    kernel column vanishes on the x-rows after its pivot, not before it."""
    m, n = M.rows, M.cols
    stacked = [M.col(j) + tuple(int(n - 1 - i == j) for i in range(n)) for j in range(n)]
    cols, pivots = _column_echelon(stacked, m + n)
    cols = [c[:m] + c[m:][::-1] for c in cols]
    pivots = [p if p < m else 2 * m + n - 1 - p for p in pivots]
    return cols, pivots, sum(p < m for p in pivots)


def _reversed_order_data(M: IntMatrix) -> _MatrixData:
    """Fresh solver data for M whose walk runs on the reversed-order echelon."""
    data = _MatrixData(M)
    data.reduction = _reversed_reduction(M)
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
    certificates = dio._start

    def record(data, b):
        start = certificates(data, b)
        if start is not None:
            seen.setdefault((data.M, b), None)
        return start

    dio._MATRIX_CACHE.clear()
    dio._start = record
    try:
        for I in ideals:
            irreducible_decomposition(I)
    finally:
        dio._start = certificates
    for I in ideals:
        A = I.ambient.gens
        pairs = I.standard_cover().pairs()
        for p in pairs:
            M = A.take_cols(p.face).hstack(A.neg())
            for g in I.gens.columns() + [q.base for q in pairs]:
                b = vec_sub(g, p.base)
                if certificates(dio._matrix_data(M), b) is not None:
                    seen.setdefault((M, b), None)
    dio._MATRIX_CACHE.clear()
    return tuple(seen)


def test_box_walk_does_not_depend_on_the_row_order():
    """The walk over the reversed-order echelon gives the same solutions
    as over the index-order one, on every solvable system of the seeded and
    acceptance pipelines (in the homogenized box) and on seeded walks with
    zero and duplicate columns.  A walk that overflows ``_BOX_BUDGET`` is
    not compared."""
    walks = []
    for M, b in _pipeline_systems():
        data = _MatrixData(M)
        x0 = _particular_solution(data, b)
        walks.append((M, x0, _homogenized_box(data, x0)[2]))
    walks += [(M, x0, bound) for M, _, x0, bound in _box_walk_systems(random.Random(64), 120)]
    compared = reordered = zero_column = duplicate_column = 0
    for M, x0, bound in walks:
        data, reversed_data = _MatrixData(M), _reversed_order_data(M)
        expected = _box_solutions(data, x0, bound, _BOX_BUDGET)
        got = _box_solutions(reversed_data, x0, bound, _BOX_BUDGET)
        if expected is None or got is None:
            continue
        assert sorted(got) == sorted(expected), (M, x0, bound)
        cols = M.columns()
        compared += 1
        reordered += reversed_data.kernel_basis() != data.kernel_basis()
        zero_column += any(not any(c) for c in cols)
        duplicate_column += len(set(cols)) < len(cols)
    assert compared >= 2000 and reordered >= 800, (compared, reordered)
    assert zero_column >= 100 and duplicate_column >= 100, (zero_column, duplicate_column)


def test_min_nonneg_solutions_do_not_depend_on_the_row_order(monkeypatch):
    """``min_nonneg_solutions`` gives the same answers when every matrix's
    echelon is taken in reversed order, on the pipeline systems of at most
    9 columns and on the seeded walk systems."""
    import stdpairs.diophantine as dio

    systems = [(M, b) for M, b in _pipeline_systems() if M.cols <= 9]
    systems += [(M, b) for M, b, _, _ in _box_walk_systems(random.Random(65), 120)]
    index_order = property(dio._MatrixData.reduction.func)
    reversed_order = property(lambda self: _reversed_reduction(self.M))
    answers = []
    for reduction in (index_order, reversed_order):
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


def test_principal_ladder_full_solves_skip_completion(monkeypatch):
    """Each ladder system's full solve calls neither ``hilbert_kernel`` nor
    ``_completion``, and gives the completion-first answer."""
    import stdpairs.diophantine as dio

    systems = []
    for cols, b in _PRINCIPAL_LADDER:
        A = IntMatrix.from_cols(cols)
        M = A.hstack(A.neg())
        dio._MATRIX_CACHE.clear()
        systems.append((M, b, _reference_min_nonneg_uncached(M, dio._matrix_data(M), b)))

    def fail(*args, **kwargs):
        raise AssertionError("should not run")

    for M, b, expected in systems:
        dio._MATRIX_CACHE.clear()
        with monkeypatch.context() as patch:
            for name in ("_completion", "hilbert_kernel"):
                patch.setattr(dio, name, fail)
            assert min_nonneg_solutions(M, b) == expected, b
    dio._MATRIX_CACHE.clear()


def test_full_solves_run_no_completion_outside_the_kernel_basis(monkeypatch):
    """A one-row ``[A | -A]`` whose box walk would overflow takes its
    kernel Hilbert basis from the triangulation, with no walk and no
    completion, while its full solve runs no completion and asks for no
    kernel Hilbert basis: the signed walk answers it.  A pointed A without zero columns (the square cone, the
    Veronese cone), whose kernel has no nonnegative ray and so no short
    walk, is answered by the graded box walk alone: no completion, no
    kernel Hilbert basis."""
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
                assert tiers == [], (M, tiers)
                for name in ("_completion", "hilbert_kernel", "_geometric_solutions"):
                    patch.setattr(dio, name, fail)
            else:
                for name in ("_completion", "hilbert_kernel", "_signed_solutions", "_geometric_solutions"):
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


def test_cone_of_negation_pairs_has_no_facets(monkeypatch):
    """``_MatrixData.cone`` runs the double description once and gives
    exactly its result; when every column's negation is a column, that is
    no facet and the span equations."""
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
        assert data.cone == (tuple(phi for phi, _ in facets), tuple(equations)), M
        assert len(calls) == 1, M
        assert not paired or not facets, M
        kinds["paired"] += paired
        kinds["zero_column"] += paired and (0,) * M.rows in M.columns()
        kinds["non_saturated"] += paired and not _lattice_saturated(data)
        kinds["with_facets"] += bool(facets)
    assert min(kinds.values()) >= 20, kinds


def _reference_kernel_basis_route(M: IntMatrix, b) -> SolutionSet:
    """The full solve through the kernel Hilbert basis: the certificates,
    then ``_reference_homogenized_walk``."""
    import stdpairs.diophantine as dio

    data = _MatrixData(M)
    x0 = dio._start(data, b)
    if x0 is None:
        return SolutionSet.of(M.cols, [])
    return _reference_homogenized_walk(M, data, x0)


def _signed_systems(rng, count):
    """Seeded ``(kind, M, b)``, b != 0, over matrices with a negation pair,
    cycling through all-paired ``[A | -A]``, partly paired ``[A_K | -A]``
    and ``[A_F | -A_G]`` (F and G overlapping), with A of entries 0..3;
    then ``[A | -A]`` and ``[A_F | -A_G]`` with entries -3..3, at most
    three columns in A, and a zero and a duplicate column inserted;
    ``L N`` with ``N = [A_F | -A_G]`` and L of rank ``rows(N)`` with one
    more row (a lower-dimensional span);
    ``[A_F | -A_G]`` with the first row of A doubled (``Z M`` not
    saturated); and ``[a, c, d | -a]`` with ``a = (1, 0)``, ``c = (*, g)``
    and ``d = (*, h)`` for coprime g, h in 2..7, in shuffled order, whose
    monoid is ``Z a + N c + N d``: it misses the points of lattice and cone
    whose second entry is a gap of ``<g, h>``.  b is ``M u``, a vector near
    it, or a small random one, so that some b lie outside the lattice and
    some outside the cone, and for the last kind a random point with
    second entry 0..12."""
    systems = []
    while len(systems) < count:
        kind = len(systems) % 7
        r = rng.randint(1, 3)
        low = -3 if kind == 3 else 0
        a = [tuple(rng.randint(low, 3) for _ in range(r)) for _ in range(rng.randint(1, 3 if kind == 3 else 4))]
        if kind == 5:
            a = [(2 * c[0],) + c[1:] for c in a]
        some = lambda: [c for c in a if rng.random() < 0.6] or [rng.choice(a)]
        left, right = (a, a) if kind == 0 or (kind == 3 and rng.random() < 0.5) else (some(), a if kind == 1 else some())
        if kind == 6:
            g, h = rng.choice([(g, h) for g in range(2, 8) for h in range(g + 1, 8) if gcd(g, h) == 1])
            left, right = [(1, 0), (rng.randint(-3, 3), g), (rng.randint(-3, 3), h)], [(1, 0)]
            rng.shuffle(left)
            r = 2
        cols = left + [tuple(-e for e in c) for c in right]
        if kind == 3:
            cols.insert(rng.randint(0, len(cols)), (0,) * r)
            cols.insert(rng.randint(0, len(cols)), rng.choice(cols))
        M = IntMatrix.from_cols(cols, rows=r)
        if kind == 4:
            L = IntMatrix.from_rows([[rng.randint(-2, 2) for _ in range(r)] for _ in range(r + 1)])
            if rational_rank(L) < r:
                continue
            M = L.matmul(M)
        if not _negation_pairs(M.columns()):
            continue
        b = M.mul(tuple(rng.randint(0, 2) for _ in range(M.cols)))
        if kind == 6:
            b = (rng.randint(-3, 3), rng.randint(0, 12))
        elif rng.random() < 0.3:
            b = vec_add(b, tuple(rng.randint(-1, 1) for _ in b))
        elif rng.random() < 0.2:
            b = tuple(rng.randint(-3, 5) for _ in b)
        if any(b):
            kinds = ["all_paired", "paired_with_all", "overlapping_faces", "zero_and_duplicate_columns",
                     "lower_dimensional_span", "non_saturated", "gaps"]
            systems.append((kinds[kind], M, b))
    return systems


def test_signed_walk_matches_the_kernel_basis_route(monkeypatch):
    """On seeded matrices with negation pairs, ``min_nonneg_solutions`` and
    ``has_nonneg_solution`` (each on a cold cache) agree with the route
    through the kernel Hilbert basis (``_reference_kernel_basis_route``).
    Under the default budget the signed walk answers every system past the
    certificates; with ``_BOX_BUDGET`` at 10, on the first 280 systems, at
    least 20 of its walks overflow into the triangulation.  Every kind of
    matrix and of right-hand side (solvable, and outside the cone, outside
    the lattice, or past the certificates with no solution) occurs at least
    20 times."""
    import stdpairs.diophantine as dio

    signed, walks = dio._signed_solutions, []

    def recording(data, b, x0, first=False):
        found = signed(data, b, x0, first)
        walks.append("walked" if found is not None else "overflowed")
        return found

    monkeypatch.setattr(dio, "_signed_solutions", recording)
    systems = _signed_systems(random.Random(37), 840)
    counts = dict.fromkeys(["solvable", "outside_cone", "outside_lattice", "unsolvable_past_certificates"], 0)
    routes = {}
    for budget, cases in ((dio._BOX_BUDGET, systems), (10, systems[:280])):
        monkeypatch.setattr(dio, "_BOX_BUDGET", budget)
        routes[budget] = {"walked": 0, "overflowed": 0}
        for kind, M, b in cases:
            dio._MATRIX_CACHE.clear()
            expected = _reference_kernel_basis_route(M, b)
            dio._MATRIX_CACHE.clear()
            walks.clear()
            assert min_nonneg_solutions(M, b) == expected, (kind, M, b, budget)
            for route in walks:
                routes[budget][route] += 1
            dio._MATRIX_CACHE.clear()
            assert has_nonneg_solution(M, b) == bool(expected), (kind, M, b, budget)
            if budget != 10:
                data = _MatrixData(M)
                normals, equations = data.cone
                if any(vec_dot(e, b) for e in equations) or any(vec_dot(phi, b) < 0 for phi in normals):
                    outcome = "outside_cone"
                elif _particular_solution(data, b) is None:
                    outcome = "outside_lattice"
                else:
                    outcome = "solvable" if expected else "unsolvable_past_certificates"
                counts[outcome] += 1
                counts[kind] = counts.get(kind, 0) + 1
    dio._MATRIX_CACHE.clear()
    assert len(counts) == 11 and min(counts.values()) >= 20, counts
    default, low = routes.values()
    assert default["overflowed"] == 0 and default["walked"] >= 500, routes
    assert low["overflowed"] >= 20 and low["walked"] >= 20, routes


def test_unpaired_systems_that_are_not_pointed_take_the_signed_walk(monkeypatch):
    """On seeded systems that are not pointed and have no negation pair,
    with zero and duplicate columns among them, ``min_nonneg_solutions``
    and ``has_nonneg_solution`` (each on a cold cache) agree with the
    triangulation alone (``_BOX_BUDGET`` at 0): at the default budget,
    where the signed walk answers at least 200 of them, and at a budget of
    10, where at least 20 signed walks overflow into the triangulation.  No
    solve calls ``hilbert_kernel`` or ``_completion``.  Each kind of
    matrix occurs at least 20 times, with at least 20 solvable systems."""
    import stdpairs.diophantine as dio

    def fail(*args, **kwargs):
        raise AssertionError("should not run")

    for name in ("hilbert_kernel", "_completion"):
        monkeypatch.setattr(dio, name, fail)
    systems = _unpaired_systems(random.Random(1215), 240)
    monkeypatch.setattr(dio, "_BOX_BUDGET", 0)
    expected = []
    for _, M, b in systems:
        dio._MATRIX_CACHE.clear()
        expected.append(min_nonneg_solutions(M, b))
    signed, walks = dio._signed_solutions, []

    def recording(data, b, x0, first=False):
        found = signed(data, b, x0, first)
        walks.append("walked" if found is not None else "overflowed")
        return found

    monkeypatch.setattr(dio, "_signed_solutions", recording)
    counts, routes = {"solvable": 0}, {}
    for budget in (_BOX_BUDGET, 10):
        monkeypatch.setattr(dio, "_BOX_BUDGET", budget)
        routes[budget] = {"walked": 0, "overflowed": 0}
        for (kind, M, b), answer in zip(systems, expected):
            dio._MATRIX_CACHE.clear()
            walks.clear()
            assert min_nonneg_solutions(M, b) == answer, (kind, M, b, budget)
            for route in walks:
                routes[budget][route] += 1
            dio._MATRIX_CACHE.clear()
            assert has_nonneg_solution(M, b) == bool(answer), (kind, M, b, budget)
            if budget == 10:
                counts[kind] = counts.get(kind, 0) + 1
                counts["solvable"] += bool(answer)
    dio._MATRIX_CACHE.clear()
    assert len(counts) == 4 and min(counts.values()) >= 20, counts
    default, low = routes.values()
    assert default["walked"] >= 200, routes
    assert low["overflowed"] >= 20 and low["walked"] >= 20, routes


def _existence_route_systems() -> list:
    """Seeded ``(kind, M, b)``, b != 0: pointed systems, 30 matrices of
    each kind of ``_pointed_matrices`` with ``M u`` or ``M u + e``; and
    systems that are not pointed, with negation pairs (``_signed_systems``)
    and without (``_unpaired_systems``)."""
    rng = random.Random(2040)
    systems = []
    for matrices in _pointed_matrices().values():
        for M in matrices[:30]:
            b = M.mul(tuple(rng.randint(0, 2) for _ in range(M.cols)))
            if rng.random() < 0.5:
                b = vec_add(b, tuple(int(i == rng.randrange(M.rows)) for i in range(M.rows)))
            if any(b):
                systems.append(("pointed", M, b))
    systems += [("paired", M, b) for _, M, b in _signed_systems(random.Random(2041), 280)]
    systems += [("unpaired", M, b) for _, M, b in _unpaired_systems(random.Random(2042), 90)]
    return systems


def test_existence_takes_the_walks_of_the_full_solve(monkeypatch):
    """On pointed systems and on systems that are not pointed, with and
    without negation pairs: ``_start`` returns None exactly when b lies
    outside the span, the cone or the lattice of M (by the reference
    vertices and the Smith form), and otherwise an integer solution of
    ``M x = b``.  ``has_nonneg_solution`` on a cold cache equals
    ``bool(min_nonneg_solutions)`` at the default ``_BOX_BUDGET``, at 10
    and at 0.  It walks the signed walk at most once, and answers in full
    by the triangulation (``_geometric_solutions``) once when that walk
    overflows, which means both walks did, and never otherwise: at the
    default budget no system that is not pointed does.  That full answer
    is memoised and equals ``min_nonneg_solutions``; the full solve
    (``_min_nonneg_uncached``) never runs."""
    import stdpairs.diophantine as dio

    systems = _existence_route_systems()
    settled = []
    for kind, M, b in systems:
        start = dio._start(_MatrixData(M), b)
        fires = not _reference_vertices(M, b)[1] or not _reference_smith_solvable(M, b)
        assert (start is None) == fires, (kind, M, b, start)
        assert start is None or M.mul(start) == b, (kind, M, b, start)
        settled.append(fires)

    expected = []
    for _, M, b in systems:
        dio._MATRIX_CACHE.clear()
        expected.append(min_nonneg_solutions(M, b))
    full, signed, overflows = [], dio._signed_solutions, []
    monkeypatch.setattr(dio, "_min_nonneg_uncached", _recording(full, "uncached", dio._min_nonneg_uncached))
    monkeypatch.setattr(dio, "_geometric_solutions", _recording(full, "full", dio._geometric_solutions))

    def recording(data, b, x0, first=False):
        found = signed(data, b, x0, first)
        overflows.append(found is None)
        return found

    monkeypatch.setattr(dio, "_signed_solutions", recording)
    counts = {}
    for budget in (_BOX_BUDGET, 10, 0):
        monkeypatch.setattr(dio, "_BOX_BUDGET", budget)
        for (kind, M, b), answer, fires in zip(systems, expected, settled):
            dio._MATRIX_CACHE.clear()
            full.clear()
            overflows.clear()
            assert has_nonneg_solution(M, b) == bool(answer), (kind, M, b, budget)
            assert len(overflows) <= 1, (kind, M, b, budget, overflows)
            both = overflows == [True]
            assert full == (["full"] if both else []), (kind, M, b, budget, full)
            assert not both or dio._matrix_data(M).solutions[b] == answer, (kind, M, b, budget)
            assert budget != _BOX_BUDGET or kind == "pointed" or not full, (kind, M, b)
            route = "certificate" if fires else "full solve" if both else "walks"
            key = (kind, budget, route, bool(answer))
            counts[key] = counts.get(key, 0) + 1
    dio._MATRIX_CACHE.clear()

    def total(kinds, budget, route, answer):
        return sum(counts.get((kind, budget, route, answer), 0) for kind in kinds)

    for kind in ("pointed", "paired", "unpaired"):
        assert total([kind], _BOX_BUDGET, "walks", True) >= 20, counts
        assert total([kind], 10, "walks", True) >= 20, counts
        assert total([kind], 0, "full solve", True) >= 20, counts
    kinds = ("pointed", "paired", "unpaired")
    assert total(kinds, _BOX_BUDGET, "certificate", False) >= 50, counts
    assert total(kinds, _BOX_BUDGET, "walks", False) >= 10, counts
    assert total(["paired", "unpaired"], 10, "full solve", True) >= 20, counts


def test_signed_walk_starts_from_the_certificates_solution(monkeypatch):
    """On seeded systems that are not pointed, paired and unpaired, with
    zero and duplicate columns among them, the signed walk starts from
    ``_start``'s x0: ``min_nonneg_solutions`` and ``has_nonneg_solution``
    (each on a cold cache) equal the triangulation alone (``_BOX_BUDGET``
    at 0), and each runs the forward substitution (``_lattice_reduce``)
    once when b lies in the cone, else never.  At least 100 signed walks
    answer, at least 20 of them on a matrix with a zero and a duplicate
    column."""
    import stdpairs.diophantine as dio

    systems = [(M, b) for _, M, b in _signed_systems(random.Random(4101), 140)]
    systems += [(M, b) for _, M, b in _unpaired_systems(random.Random(4102), 60)]
    monkeypatch.setattr(dio, "_BOX_BUDGET", 0)
    expected = []
    for M, b in systems:
        dio._MATRIX_CACHE.clear()
        expected.append(min_nonneg_solutions(M, b))
    monkeypatch.setattr(dio, "_BOX_BUDGET", _BOX_BUDGET)
    reductions, walks = [], []
    monkeypatch.setattr(dio, "_lattice_reduce", _recording(reductions, "reduce", dio._lattice_reduce))
    monkeypatch.setattr(dio, "_signed_solutions", _recording(walks, "signed", dio._signed_solutions))
    walked = with_zero_and_duplicate = 0
    for (M, b), answer in zip(systems, expected):
        in_cone = bool(_reference_vertices(M, b)[1])
        for solve in (min_nonneg_solutions, has_nonneg_solution):
            dio._MATRIX_CACHE.clear()
            reductions.clear()
            walks.clear()
            assert solve(M, b) == (answer if solve is min_nonneg_solutions else bool(answer)), (M, b)
            assert len(reductions) == int(in_cone), (M, b, solve.__name__, reductions)
        cols = M.columns()
        walked += bool(walks)
        with_zero_and_duplicate += bool(walks) and (0,) * M.rows in cols and len(set(cols)) < len(cols)
    dio._MATRIX_CACHE.clear()
    assert walked >= 100 and with_zero_and_duplicate >= 20, (walked, with_zero_and_duplicate)


def test_existence_overflow_walks_once(monkeypatch):
    """When both walks overflow, ``has_nonneg_solution`` answers from the
    triangulation at once: with ``_BOX_BUDGET`` at 10 on ``[3, 4, 3, 2,
    -3, -4, -3, -2] x = 5`` it walks one signed walk, which overflows, and
    no full solve; its memoised full answer equals the unbudgeted
    ``min_nonneg_solutions``, which then answers from the memo."""
    import stdpairs.diophantine as dio

    M, b = IntMatrix.from_rows([[3, 4, 3, 2, -3, -4, -3, -2]]), (5,)
    dio._MATRIX_CACHE.clear()
    expected = min_nonneg_solutions(M, b)
    assert expected
    dio._MATRIX_CACHE.clear()
    signed, walks, full = dio._signed_solutions, [], []

    def recording(data, b, x0, first=False):
        found = signed(data, b, x0, first)
        walks.append(found is None)
        return found

    monkeypatch.setattr(dio, "_signed_solutions", recording)
    monkeypatch.setattr(dio, "_min_nonneg_uncached", _recording(full, "full", dio._min_nonneg_uncached))
    monkeypatch.setattr(dio, "_BOX_BUDGET", 10)
    assert has_nonneg_solution(M, b) is True
    assert walks == [True] and full == [], (walks, full)
    assert dio._matrix_data(M).solutions[b] == expected
    walks.clear()
    assert min_nonneg_solutions(M, b) == expected
    assert walks == [] and full == [], (walks, full)
    dio._MATRIX_CACHE.clear()


def test_pipelines_compute_no_kernel_hilbert_basis(monkeypatch):
    """The principal ladder's covers and the acceptance instances' covers,
    decompositions and radicals ask for no kernel Hilbert basis, no
    completion and no triangulation: no graded or signed walk overflows."""
    import stdpairs.diophantine as dio

    calls = []
    for name in ("hilbert_kernel", "_completion", "_geometric_solutions"):
        monkeypatch.setattr(dio, name, _recording(calls, name, getattr(dio, name)))
    signed = []
    monkeypatch.setattr(dio, "_signed_solutions", _recording(signed, "signed", dio._signed_solutions))
    for cols, b in _PRINCIPAL_LADDER:
        dio._MATRIX_CACHE.clear()
        I = MonomialIdeal(AffineMonoid(IntMatrix.from_cols(cols)), IntMatrix.from_cols([b]))
        assert I.standard_cover().pairs()
    assert not calls and len(signed) >= 10, (calls, len(signed))
    for I in random_instances():
        dio._MATRIX_CACHE.clear()
        I.standard_cover()
        irreducible_decomposition(I)
        I.radical()
    dio._MATRIX_CACHE.clear()
    assert not calls, calls
    dio.hilbert_kernel(IntMatrix.from_rows([[1, -1]]))  # the recording itself works
    assert calls == ["hilbert_kernel"]


def test_has_nonneg_solution_rejects_a_right_hand_side_of_wrong_length():
    M = IntMatrix.from_rows([[1, 2], [0, 2]])
    with pytest.raises(ValueError, match="right-hand side has dim 3, expected 2"):
        has_nonneg_solution(M, (1, 2, 3))


def _reference_lattice_reduce(data: _MatrixData, b) -> tuple:
    """``_lattice_reduce`` as list arithmetic over the whole columns of
    ``data.reduction``, with no precomputed steps."""
    cols, pivots, r = data.reduction
    m = data.M.rows
    residue = list(b)
    x = [0] * data.M.cols
    for col, p in zip(cols[:r], pivots):
        q = residue[p] // col[p]
        residue = [a - q * c for a, c in zip(residue, col)]
        x = [a + q * c for a, c in zip(x, col[m:])]
    return tuple(x), tuple(residue)


def test_lattice_reduce_matches_the_list_reference():
    """The stepwise forward substitution gives the reference's ``(x,
    residue)`` on the edge matrices and seeded ones with negative entries,
    zero rows and columns, rank 0 and full rank, for right-hand sides in
    ``Z M`` and outside it."""
    rng = random.Random(4803)
    matrices = _EDGE_MATRICES + _random_int_matrices(rng, 300)
    kinds = {"zero_row": 0, "zero_column": 0, "rank_0": 0, "full_rank": 0, "negative": 0}
    for M in matrices:
        data = _MatrixData(M)
        r = data.reduction[2]
        kinds["zero_row"] += any(not any(row) for row in M.data)
        kinds["zero_column"] += any(not any(c) for c in M.columns())
        kinds["rank_0"] += r == 0
        kinds["full_rank"] += r == min(M.rows, M.cols) > 0
        kinds["negative"] += any(a < 0 for row in M.data for a in row)
        for _ in range(6):
            b = tuple(rng.randint(-9, 9) for _ in range(M.rows))
            inside = M.mul(tuple(rng.randint(-3, 3) for _ in range(M.cols)))
            for rhs in (b, inside):
                assert _lattice_reduce(data, rhs) == _reference_lattice_reduce(data, rhs), (M, rhs)
    assert min(kinds.values()) >= 10, kinds


def test_principal_cover_reads_cone_and_lattice_from_the_monoid(monkeypatch):
    """On a cleared solver cache, the principal cover of ``(3, 2, 5)`` over
    the square cone runs one double description, the monoid's own, and
    builds no echelon of a matrix with a negation pair: its ``[A | -A]``
    cut takes its cone from the monoid's facets and its lattice test and
    x0 from ``A_kept``'s cached data.  Solving a paired system adds one
    entry to the solver cache, M's: M' is read from the cache when it is
    there and is never inserted."""
    import stdpairs.diophantine as dio
    import stdpairs.polyhedral as polyhedral

    enumerated, reduced = [], []

    def counting(cols, dim):
        enumerated.append(cols)
        return _facets_of_cone(cols, dim)

    reduction = dio._MatrixData.reduction.func

    @property
    def recording(self):
        reduced.append(self.M)
        return reduction(self)

    monkeypatch.setattr(dio, "_facets_of_cone", counting)
    monkeypatch.setattr(polyhedral, "_facets_of_cone", counting)
    monkeypatch.setattr(dio._MatrixData, "reduction", recording)
    dio._MATRIX_CACHE.clear()
    Q = AffineMonoid(IntMatrix.from_cols(_SQUARE_CONE))
    assert MonomialIdeal(Q, IntMatrix.from_cols([(3, 2, 5)])).standard_cover().pairs()
    assert enumerated == [Q.gens.columns()], enumerated
    assert reduced and not any(_negation_pairs(M.columns()) for M in reduced), reduced
    A = IntMatrix.from_rows([[1, 2, 0], [0, 1, 3]])
    M = A.hstack(A.neg())
    for cached in (False, True):
        dio._MATRIX_CACHE.clear()
        if cached:
            _matrix_data(A)
        before = len(dio._MATRIX_CACHE)
        assert min_nonneg_solutions(M, (3, -2)), cached
        assert len(dio._MATRIX_CACHE) == before + 1 and M in dio._MATRIX_CACHE, cached
        assert (dio._MATRIX_CACHE[M].merged[0] is dio._MATRIX_CACHE.get(A)) == cached
    dio._MATRIX_CACHE.clear()


def test_a_second_solve_of_a_matrix_rebuilds_none_of_its_data(monkeypatch):
    """Once one right-hand side of a matrix is solved, solving others (a
    full solve or an existence question) builds no echelon, runs no double
    description and inverts no basis: every datum of the matrix is read
    from its solver data.  Checked on a paired ``[A | -A]`` and on an
    unpaired matrix that is not pointed, both answered by the signed walk.
    A matrix given its cone by ``store_cone`` never runs the double
    description.  The answers are those of a cold cache."""
    import stdpairs.diophantine as dio

    A = IntMatrix.from_rows([[1, 2, 0], [0, 1, 3]])
    paired = A.hstack(A.neg())
    unpaired = IntMatrix.from_rows([[1, -2, 0, 1], [0, 1, 1, -1]])  # (0, 1, 1, 2) is in its kernel
    square = IntMatrix.from_cols(_SQUARE_CONE)
    plane = [(3, -2), (1, 1), (0, 5), (-2, 3), (4, 0)]
    rhs = {paired: plane, unpaired: plane, square: [(4, 2, 5), (1, 3, 6), (2, 0, 1), (1, 1, 0)]}
    cold = {}
    for M, bs in rhs.items():
        for b in bs:
            dio._MATRIX_CACHE.clear()
            cold[M, b] = min_nonneg_solutions(M, b)
    assert not _negation_pairs(unpaired.columns())
    calls = dict.fromkeys(("_column_echelon", "_facets_of_cone", "_integer_inverse"), 0)
    for name in calls:

        def counting(*args, _name=name, _original=getattr(dio, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(dio, name, counting)
    for M in (paired, unpaired):
        dio._MATRIX_CACHE.clear()
        first, *others = rhs[M]
        assert min_nonneg_solutions(M, first) == cold[M, first], M
        data = dio._MATRIX_CACHE[M]
        assert data.graded_box(first) is None, M
        assert min(calls.values()) > 0, (M, calls)
        built = dict(calls)
        for b in others:
            assert min_nonneg_solutions(M, b) == cold[M, b], (M, b)
        for b in [(2, 7), (-5, -1)]:
            assert has_nonneg_solution(M, b), (M, b)
        assert len(data.solutions) == 5 and calls == built, (M, calls, built)
    facets, equations = _facets_of_cone(square.columns(), square.rows)
    dio._MATRIX_CACHE.clear()
    dio._matrix_data(square).store_cone([phi for phi, _ in facets], equations)
    calls["_facets_of_cone"] = 0
    for b in rhs[square]:
        assert min_nonneg_solutions(square, b) == cold[square, b], b
        assert has_nonneg_solution(square, vec_add(b, (0, 0, 1))), b
    assert calls["_facets_of_cone"] == 0 and calls["_column_echelon"] > 0, calls
    dio._MATRIX_CACHE.clear()


def test_the_matrix_data_has_five_fields_and_caches_the_rest():
    """``_MatrixData``'s dataclass fields are the five values it is given
    or fills per right-hand side; every lazy datum is a cached property."""
    from dataclasses import fields
    from functools import cached_property

    assert [f.name for f in fields(_MatrixData)] == ["M", "hilbert", "solutions", "feasible", "monoid"]
    for name in ("cone", "_grading", "reduction", "steps", "walk_plan", "merged", "signed"):
        assert isinstance(vars(_MatrixData)[name], cached_property), name
