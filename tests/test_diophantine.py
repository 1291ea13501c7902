import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stdpairs.diophantine import (
    IntMatrix,
    SolutionSet,
    _coords_in_basis,
    hilbert_kernel,
    min_nonneg_solutions,
    rational_kernel_basis,
    rational_rank,
)

from oracles import brute_hilbert, brute_min_solutions


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
