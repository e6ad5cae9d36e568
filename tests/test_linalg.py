"""Property tests for the dense exact elimination, checked against the
independent sparse rank path, and for the sparse rank, checked against the
dense reference rref and against its fill budget."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tangleweb import linalg
from tangleweb.linalg import (BudgetError, invert_matrix, nullspace, rref, solve_exact,
                              sparse_rank)

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


@st.composite
def tall_systems(draw):
    """(ncols, dense rows, rhs): up to 30 rows over up to 6 columns, some
    columns combinations of earlier ones, the rhs half the time in their span."""
    nrows = draw(st.integers(0, 30))
    cols = []
    for _ in range(draw(st.integers(1, 6))):
        if cols and draw(st.integers(0, 2)) == 0:
            coeffs = draw(st.lists(SCALARS, min_size=len(cols), max_size=len(cols)))
            cols.append([sum((c * col[i] for c, col in zip(coeffs, cols)), Fraction(0))
                         for i in range(nrows)])
        else:
            cols.append(draw(st.lists(SCALARS, min_size=nrows, max_size=nrows)))
    rows = [[col[i] for col in cols] for i in range(nrows)]
    if draw(st.booleans()):
        rhs = mat_vec(rows, draw(st.lists(SCALARS, min_size=len(cols), max_size=len(cols))))
    else:
        rhs = draw(st.lists(SCALARS, min_size=nrows, max_size=nrows))
    return len(cols), rows, rhs


@SEEDED
@given(tall_systems())
def test_solve_exact_matches_full_rref(system):
    # the reference: rref of the whole augmented matrix, free variables at 0
    ncols, rows, rhs = system
    mat, pivots = rref([r + [b] for r, b in zip(rows, rhs)], ncols)
    columns = [{i: r[j] for i, r in enumerate(rows) if r[j]} for j in range(ncols)]
    target = {i: b for i, b in enumerate(rhs) if b}
    if any(row[ncols] for row in mat[len(pivots):]):
        with pytest.raises(ValueError, match="inconsistent"):
            solve_exact(columns, target)
        return
    want = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        want[c] = mat[r][ncols]
    assert solve_exact(columns, target) == want


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


# base-row entries: mostly zeros, small integers, and Fractions
ENTRIES = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3, 6, Fraction(1, 2), Fraction(-5, 4)])
COEFFS = st.sampled_from([0, 0, 1, -1, 2, 3, Fraction(-2, 5)])


@st.composite
def dependent_rows(draw):
    """(ncols, dense rows): many rows that are integer or rational
    combinations of a few sparse base rows, shuffled among a few free ones."""
    ncols = draw(st.integers(1, 10))
    row = st.lists(ENTRIES, min_size=ncols, max_size=ncols)
    base = draw(st.lists(row, min_size=1, max_size=4))
    rows = draw(st.lists(row, max_size=2))
    for _ in range(draw(st.integers(0, 14))):
        coeffs = draw(st.lists(COEFFS, min_size=len(base), max_size=len(base)))
        rows.append([sum((c * b[j] for c, b in zip(coeffs, base)), Fraction(0))
                     for j in range(ncols)])
    return ncols, draw(st.permutations(rows))


@st.composite
def full_rank_rows(draw):
    """(n, dense rows): an invertible n x n matrix, unit lower triangular
    times unit upper triangular, so nearly every entry is nonzero."""
    n = draw(st.integers(1, 7))
    nums = st.integers(-4, 4)
    low = [[1 if i == j else draw(nums) if j < i else 0 for j in range(n)] for i in range(n)]
    up = [[1 if i == j else draw(nums) if j > i else 0 for j in range(n)] for i in range(n)]
    return n, [[Fraction(sum(low[i][k] * up[k][j] for k in range(n))) for j in range(n)]
               for i in range(n)]


def sparse_rows(rows):
    """The rows as a one-shot generator of sparse dicts."""
    return ({j: v for j, v in enumerate(r) if v} for r in rows)


@SEEDED
@given(st.one_of(dependent_rows(), full_rank_rows()))
def test_sparse_rank_matches_dense_references(shape):
    ncols, rows = shape
    assert sparse_rank(sparse_rows(rows)) == len(rref(rows, ncols)[1])


def test_sparse_rank_fill_budget(monkeypatch):
    # four independent rows on disjoint columns: the pivot rows end up
    # holding all 12 entries, one over a budget of 11
    rows = [{3 * i + k: k + 1 for k in range(3)} for i in range(4)]
    monkeypatch.setattr(linalg, "MAX_FILL", 12)
    assert sparse_rank(rows) == 4
    # dependent rows reduce to zero and add nothing to the fill
    assert sparse_rank(rows + [{0: 2, 1: 4, 2: 6}] * 5) == 4
    # back-elimination shrinks the first pivot row from 3 entries to 2, and
    # the fill follows: 2 + 2 entries
    monkeypatch.setattr(linalg, "MAX_FILL", 4)
    assert sparse_rank([{0: 1, 1: 1, 2: 1}, {0: 1, 1: 2, 2: 3}]) == 2
    monkeypatch.setattr(linalg, "MAX_FILL", 11)
    with pytest.raises(BudgetError, match="holds 12 entries, over the budget of 11"):
        sparse_rank(rows)
