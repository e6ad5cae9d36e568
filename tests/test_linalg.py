"""Property tests for the dense exact elimination, checked against the
independent sparse rank path."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tangleweb.linalg import invert_matrix, nullspace, solve_exact, sparse_rank

# zeros are drawn often so that singular and inconsistent systems show up
SCALARS = st.one_of(st.just(Fraction(0)),
                    st.fractions(min_value=-3, max_value=3, max_denominator=4))
SEEDED = settings(max_examples=150, deadline=None, derandomize=True)


def matrices(rows, cols):
    return st.lists(st.lists(SCALARS, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def sized_matrix(max_rows=5, max_cols=5):
    return st.tuples(st.integers(0, max_rows), st.integers(1, max_cols)).flatmap(
        lambda rc: st.tuples(st.just(rc[1]), matrices(*rc)))


def rank(rows):
    return sparse_rank([{j: v for j, v in enumerate(r) if v} for r in rows])


def mat_vec(rows, v):
    return [sum((a * b for a, b in zip(r, v)), Fraction(0)) for r in rows]


def mat_mul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


@SEEDED
@given(sized_matrix(), st.data())
def test_solve_exact_solves_or_reports_inconsistency(shape, data):
    ncols, rows = shape
    if data.draw(st.booleans()):
        rhs = mat_vec(rows, data.draw(st.lists(SCALARS, min_size=ncols, max_size=ncols)))
    else:
        rhs = data.draw(st.lists(SCALARS, min_size=len(rows), max_size=len(rows)))
    columns = [{i: r[j] for i, r in enumerate(rows) if r[j]} for j in range(ncols)]
    target = {i: b for i, b in enumerate(rhs) if b}
    consistent = rank(rows) == rank([r + [b] for r, b in zip(rows, rhs)])
    if not consistent:
        with pytest.raises(ValueError):
            solve_exact(columns, target)
        return
    x = solve_exact(columns, target)
    assert len(x) == ncols
    assert mat_vec(rows, x) == rhs


@SEEDED
@given(st.integers(0, 4).flatmap(lambda n: matrices(n, n)))
def test_invert_matrix_inverts_or_reports_singular(mat):
    n = len(mat)
    if rank(mat) < n:
        with pytest.raises(ValueError):
            invert_matrix(mat)
        return
    inv = invert_matrix(mat)
    identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    assert mat_mul(inv, mat) == identity
    assert mat_mul(mat, inv) == identity


@SEEDED
@given(sized_matrix())
def test_nullspace_is_killed_and_complements_rank(shape):
    ncols, rows = shape
    basis = nullspace(rows, ncols)
    for v in basis:
        assert len(v) == ncols
        assert not any(mat_vec(rows, v))
    assert rank(basis) == len(basis)
    assert rank(rows) + len(basis) == ncols
