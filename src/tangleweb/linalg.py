"""Exact sparse linear algebra over the rationals.

Sparse rows are dicts mapping column index -> nonzero scalar; the small
dense systems (solves, inverses, nullspaces) share one reduced row echelon
routine, rref.  Everything here is elimination-based; no floating point
anywhere.

A tall solve (thousands of keys, a few columns) is reduced to its normal
equations A^T A x = A^T b, an m x (m + 1) system, before rref sees it.
Over Q, A^T A x = 0 gives |Ax|^2 = 0, so A^T A has the null space of A:
rref pivots on the same columns and returns the same solution.  The
normal equations are always consistent; the residual check b - A x = 0
over the original columns is what keeps the answer exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class BudgetError(ValueError):
    """A request larger than the budget set for it."""


# most entries the pivot rows of one sparse_rank may hold at once: dim7's
# invariant ranks at n = 6 peak near 90,000, while dim3's graded action
# rows at n = 10 pass a million within seconds and take minutes to finish
MAX_FILL = 1_000_000


def clear_denominators(row):
    """Scale a row of ints and Fractions to a primitive integer row (gcd 1),
    dropping zero entries.  A row that already is one is returned as it is."""
    vals = row.values()
    if all(type(v) is int for v in vals):
        den = 1
        g = gcd(*vals)
        if g == 1 and all(vals):
            return row
    else:
        den = lcm(*[v.denominator for v in vals])
        g = gcd(*[v.numerator * (den // v.denominator) for v in vals])
    if g == 0:
        return {}
    return {j: v.numerator * (den // v.denominator) // g for j, v in row.items() if v}


def sparse_rank(rows):
    """Exact rank over Q of a sparse matrix given as an iterable of rows,
    consumed once.

    Each row is scaled to a primitive integer row and elimination stays
    fraction-free, with a gcd step after each combination.  One incremental
    Gauss-Jordan loop, with the invariant that every pivot row is zero in
    every other pivot column.  An incoming row is reduced in one pass,
    subtracting each pivot row it hits once: a pivot row is zero in every
    other pivot column, so a subtraction creates no new hit, and a
    dependent row reaches zero without walking a chain of pivots.  A row
    left nonzero pivots on the column held by the fewest pivot rows, ties
    broken by the smallest |entry|, and that column is then eliminated from
    the pivot rows that hold it, found through a column -> pivot rows index.

    The cost follows the fill, the entries the pivot rows hold, rather than
    the matrix's size; raises BudgetError once the fill exceeds MAX_FILL.
    """
    pending = [r for r in map(clear_denominators, rows) if r]
    # sparsest first keeps fill down
    pending.sort(key=len)

    pivots = {}     # pivot column -> pivot row, owned here and updated in place
    holders = {}    # non-pivot column -> pivot columns whose row holds it
    fill = 0        # entries held by the pivot rows
    for row in pending:
        row = _reduce(row, row.keys() & pivots.keys(), pivots)
        if not row:
            continue
        col = min(row, key=lambda j: (len(holders.get(j, ())), abs(row[j]), j))
        for pc in holders.pop(col, ()):
            target = pivots[pc]
            fill -= len(target)
            _eliminate(target, pc, row, col, holders)
            fill += len(target)
        pivots[col] = row
        fill += len(row)
        if fill > MAX_FILL:
            raise BudgetError(f"rank elimination holds {fill} entries, over the "
                              f"budget of {MAX_FILL}")
        for j in row:
            if j != col:
                holders.setdefault(j, set()).add(col)
    return len(pivots)


def _reduce(row, hits, pivots):
    """A new row: row with each hit pivot column cleared by one subtraction
    of that pivot row.  The row is first scaled by the lcm of the hit
    pivots' leading entries and the result made primitive."""
    scale = lcm(*[pivots[c][c] for c in hits])
    new = {j: scale * v for j, v in row.items() if j not in hits}
    for c in hits:
        piv = pivots[c]
        f = scale * row[c] // piv[c]
        for j, v in piv.items():
            if j != c:
                new[j] = new.get(j, 0) - f * v
    g = gcd(*new.values())
    return {j: v // g for j, v in new.items() if v} if g else {}


def _eliminate(target, tc, row, col, holders):
    """Clear column col from pivot row target (pivot column tc) with the new
    pivot row, in place, keeping holders in step; target is scaled by
    row[col] / gcd first and made primitive after."""
    a = target.pop(col)
    b = row[col]
    g = gcd(a, b)
    a //= g
    b //= g
    if b != 1:
        for j in target:
            target[j] *= b
    for j, v in row.items():
        if j == col:
            continue
        w = target.get(j, 0) - a * v
        if w:
            if j not in target:
                holders.setdefault(j, set()).add(tc)
            target[j] = w
        elif j in target:
            del target[j]
            holders[j].discard(tc)
    g = gcd(*target.values())
    if g > 1:
        for j in target:
            target[j] //= g


def rref(rows, ncols):
    """Dense rational reduced row echelon form over the first ncols columns.

    Returns (mat, pivots): mat holds every row, Fractions throughout, the
    first len(pivots) of them reduced with a leading 1 in the listed pivot
    column; the rows after them are zero in the first ncols columns (any
    further columns, such as an augmented right-hand side, are carried along).
    """
    mat = [list(map(Fraction, r)) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = mat[r][c]
        mat[r] = [v / inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat, pivots


def nullspace(rows, ncols):
    """Basis of the rational nullspace of a dense system, one vector per
    non-pivot column."""
    mat, pivots = rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -mat[r][fc]
        basis.append(v)
    return basis


def solve_exact(columns, target):
    """Solve sum_i x_i * columns[i] = target exactly over Q.

    columns and target are sparse dicts key -> Fraction over an arbitrary
    (hashable) key space.  rref runs on the normal equations G y = h, with
    G[i][j] = a_i . a_j and h[i] = a_i . b taken over primitive integer
    columns a_i = s_i * columns[i] and target b = t * target (one positive
    scale each, clear_denominators), and x_i = s_i * y_i / t.  G has the
    null space of the columns (G y = 0 gives |sum_i y_i a_i|^2 = 0), so rref
    pivots on the same columns as it would on the full system: the columns
    in the order given, of any dependent ones the later being the free
    variables, set to 0.  The normal equations always have a solution; the
    residual check target - sum_i x_i * columns[i] = 0 is the exactness
    gate and raises ValueError if the system is inconsistent.
    """
    m = len(columns)
    prim = [clear_denominators(c) for c in columns]
    scales = [_scale(c, a) for c, a in zip(columns, prim)]
    b = clear_denominators(target)
    t = _scale(target, b)
    mat, pivots = rref([[_dot(a, c) for c in prim] + [_dot(a, b)] for a in prim], m)

    x = [Fraction(0)] * m
    for r, col in enumerate(pivots):
        x[col] = mat[r][m] * scales[col] / t
    residual = dict(target)
    for xi, c in zip(x, columns):
        if xi:
            for k, v in c.items():
                residual[k] = residual.get(k, 0) - xi * v
    if any(residual.values()):
        raise ValueError("inconsistent linear system")
    return x


def _scale(row, prim):
    """The positive s with prim = s * row, for prim = clear_denominators(row)."""
    k = next(iter(prim), None)
    return Fraction(prim[k]) / row[k] if k is not None else Fraction(1)


def _dot(a, b):
    """Dot product of two sparse rows."""
    if len(b) < len(a):
        a, b = b, a
    return sum(v * b[k] for k, v in a.items() if k in b)


def invert_matrix(mat):
    """Exact inverse of a small dense rational matrix (list of lists)."""
    n = len(mat)
    aug, pivots = rref([list(mat[i]) + [int(i == j) for j in range(n)]
                        for i in range(n)], n)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    return [row[n:] for row in aug]
