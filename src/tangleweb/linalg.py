"""Exact sparse linear algebra over the rationals and over prime fields.

Sparse rows are dicts mapping column index -> nonzero scalar; the small
dense systems (solves, inverses, nullspaces) share one reduced row echelon
routine, rref.  Everything here is elimination-based; no floating point
anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def clear_denominators(row):
    """Scale a Fraction row to a primitive integer row (gcd 1)."""
    if not row:
        return {}
    lcm = 1
    for v in row.values():
        d = Fraction(v).denominator
        lcm = lcm * d // gcd(lcm, d)
    ints = {j: int(v * lcm) for j, v in row.items()}
    g = 0
    for v in ints.values():
        g = gcd(g, v)
    if g > 1:
        ints = {j: v // g for j, v in ints.items()}
    return ints


def sparse_rank(rows, mod=None):
    """Rank of a sparse matrix given as an iterable of rows.

    With mod=None the computation is exact over Q on integer rows with gcd
    normalization.  Entries are not bounded: the oracle's sparse action rows
    stay small, but dense rows blow up.  On the 120 x 120 dim7 k = 7 Gram
    matrix of the webs (entries up to 371952) 90 rows had not finished after
    140 s, while all 120 rows mod p took 0.36 s, so use a prime for dense
    input.  With a prime mod, arithmetic is in GF(mod); the result is then a
    lower bound on the rational rank, exact for all but finitely many primes.
    """
    if mod is None:
        pending = [clear_denominators(r) for r in rows]
    else:
        pending = [_row_mod(r, mod) for r in rows]
    pending = [r for r in pending if r]

    # pivots: column -> reduced row with leading entry normalized to 1 (mod p)
    pivots = {}
    usage = {}
    # sparsest-first keeps fill down
    pending.sort(key=len)
    for row in pending:
        row = _reduce_row(row, pivots, mod)
        if not row:
            continue
        col = _pick_pivot_col(row, usage, mod)
        if mod is not None:
            inv = pow(row[col], mod - 2, mod)
            if inv != 1:
                row = {j: v * inv % mod for j, v in row.items()}
        pivots[col] = row
        for j in row:
            usage[j] = usage.get(j, 0) + 1
    return len(pivots)


def _row_mod(r, mod):
    rr = {}
    for j, v in r.items():
        if isinstance(v, int):
            x = v % mod
        else:
            f = Fraction(v)
            den = f.denominator % mod
            if den == 0:
                raise ZeroDivisionError("denominator divisible by modulus")
            x = f.numerator % mod * pow(den, mod - 2, mod) % mod
        if x:
            rr[j] = x
    return rr


def _pick_pivot_col(row, usage, mod):
    # approximate Markowitz: pivot on the least-used column; for exact rows
    # prefer small entries to slow coefficient growth
    best = None
    if mod is None:
        for j, v in row.items():
            key = (usage.get(j, 0), abs(v), j)
            if best is None or key < best:
                best = key
    else:
        for j in row:
            key = (usage.get(j, 0), 0, j)
            if best is None or key < best:
                best = key
    return best[2]


def _reduce_row(row, pivots, mod):
    row = dict(row)
    if mod is not None:
        while True:
            hits = row.keys() & pivots.keys()
            if not hits:
                return row
            for col in hits:
                piv = pivots.get(col)
                a = row.pop(col, 0)
                if piv is None or not a:
                    if a:
                        row[col] = a
                    continue
                # pivot rows are normalized: piv[col] == 1
                for j, v in piv.items():
                    if j == col:
                        continue
                    w = (row.get(j, 0) - a * v) % mod
                    if w:
                        row[j] = w
                    elif j in row:
                        del row[j]
    while True:
        hits = row.keys() & pivots.keys()
        if not hits:
            return row
        col = min(hits)
        piv = pivots[col]
        a = row[col]
        b = piv[col]
        new = {j: b * v for j, v in row.items()}
        for j, v in piv.items():
            w = new.get(j, 0) - a * v
            if w:
                new[j] = w
            elif j in new:
                del new[j]
        g = 0
        for v in new.values():
            g = gcd(g, v)
        if g > 1:
            new = {j: v // g for j, v in new.items()}
        row = new


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
    (hashable) key space.  Built on rref, which pivots the columns in the
    order given, so of any dependent columns the later ones are the free
    variables.  Raises ValueError if the system is inconsistent; if the
    solution is not unique, returns one solution (free vars at 0).
    """
    keys = set(target)
    for c in columns:
        keys.update(c)
    keys = sorted(keys)
    m = len(columns)
    # dense augmented rows over the occupied key set; these systems are tiny
    mat, pivots = rref([[c.get(k, 0) for c in columns] + [target.get(k, 0)]
                        for k in keys], m)
    for row in mat[len(pivots):]:
        if row[m] != 0:
            raise ValueError("inconsistent linear system")

    x = [Fraction(0)] * m
    for r, col in enumerate(pivots):
        x[col] = mat[r][m]
    # verify: inconsistency can hide when free columns interact
    for k in keys:
        acc = Fraction(0)
        for i, c in enumerate(columns):
            if x[i]:
                acc += x[i] * c.get(k, 0)
        if acc != target.get(k, 0):
            raise ValueError("inconsistent linear system")
    return x


def invert_matrix(mat):
    """Exact inverse of a small dense rational matrix (list of lists)."""
    n = len(mat)
    aug, pivots = rref([list(mat[i]) + [int(i == j) for j in range(n)]
                        for i in range(n)], n)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    return [row[n:] for row in aug]
