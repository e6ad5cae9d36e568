"""Brute-force certification against the (super) Lie algebra of derivations.

Everything diagrammatic in this package is cross-checked here: derivation
algebras are found by solving the Leibniz linear system from scratch, the
invariant dimensions are joint-kernel ranks of the derivation action on
tensor powers, and equivariance of tensor maps is checked entry-exactly.

invariant_dim is the diagram-free exact reference, a rank over Q of only
the action rows that meet the zero-grade columns, the grading read off the
derivation basis itself (_all_action_rows proves it exact).  certified_dim
checks a dimension from both ends: invariant_dim from above, the exact rank
of the caller's invariant vectors from below.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .algebra import CaseTag, CrossAlgebra
from .linalg import BudgetError, clear_denominators, nullspace, sparse_rank
from .tensor import TensorMap, compose

# largest dim^n whose invariant dimension invariant_dim computes; dim7 at
# n = 6 (117,649) is in reach, the size of each elimination is budgeted by
# linalg.MAX_FILL
EXACT_LIMIT = 120000


class CertificateError(ArithmeticError):
    """The two ends of a dimension certificate differ: the invariant
    dimension and the rank of the vectors offered as a basis for it."""

    def __init__(self, n, lower, upper):
        super().__init__(f"invariant dimension at n = {n} not certified: "
                         f"lower end {lower}, upper end {upper}")
        self.lower = lower
        self.upper = upper


class DerivationAlgebra:
    """Basis of (super)derivations as columns-of-images matrices."""

    __slots__ = ("alg", "mats", "parities")

    def __init__(self, alg, mats, parities):
        self.alg = alg
        self.mats = mats          # list of dim x dim Fraction matrices
        self.parities = parities  # parity per basis element

    @property
    def dim(self):
        return len(self.mats)

    def even_dim(self):
        return sum(1 for p in self.parities if p == 0)

    def odd_dim(self):
        return sum(1 for p in self.parities if p == 1)


def derivations(alg: CrossAlgebra) -> DerivationAlgebra:
    """Solve the (super) Leibniz rule for a basis of derivations."""
    d = alg.dim
    par = alg.parity
    mats = []
    parities = []
    dpars = (0,) if alg.case is not CaseTag.KAP else (0, 1)
    for dpar in dpars:
        slots = [(a, b) for a in range(d) for b in range(d)
                 if (par[a] + par[b]) % 2 == dpar]
        idx = {ab: t for t, ab in enumerate(slots)}
        rows = []
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    row = [Fraction(0)] * len(slots)
                    # D(e_i x e_j) term
                    for b, c in enumerate(alg.cross[i][j]):
                        if c and (k, b) in idx:
                            row[idx[(k, b)]] += c
                    # - D(e_i) x e_j
                    for a in range(d):
                        if (a, i) in idx:
                            c = alg.cross[a][j][k]
                            if c:
                                row[idx[(a, i)]] -= c
                    # - (-1)^{|D||e_i|} e_i x D(e_j)
                    sgn = -1 if (dpar and par[i]) else 1
                    for a in range(d):
                        if (a, j) in idx:
                            c = alg.cross[i][a][k]
                            if c:
                                row[idx[(a, j)]] -= sgn * c
                    if any(row):
                        rows.append(row)
        for v in nullspace(rows, len(slots)):
            mat = [[Fraction(0)] * d for _ in range(d)]
            for t, (a, b) in enumerate(slots):
                mat[a][b] = v[t]
            mats.append(mat)
            parities.append(dpar)
    return DerivationAlgebra(alg, mats, parities)


def _entries(mat):
    """Nonzero entries of a square matrix as {(row, col): value}."""
    return {(a, b): v for a, row in enumerate(mat) for b, v in enumerate(row) if v}


def _sparse_mul(A, B):
    """Product of two matrices held as {(row, col): value}."""
    cols = {}
    for (k, j), v in B.items():
        cols.setdefault(k, []).append((j, v))
    out = {}
    for (i, k), u in A.items():
        for j, v in cols.get(k, ()):
            out[i, j] = out.get((i, j), 0) + u * v
    return {ij: v for ij, v in out.items() if v}


def bracket(A, B, pA=0, pB=0):
    """(Super)commutator [A, B] of matrices held as {(row, col): value}."""
    sign = -1 if (pA and pB) else 1
    out = _sparse_mul(A, B)
    for ij, v in _sparse_mul(B, A).items():
        out[ij] = out.get(ij, 0) - sign * v
    return {ij: v for ij, v in out.items() if v}


def check_closed_under_bracket(der: DerivationAlgebra) -> bool:
    rows = [_entries(m) for m in der.mats]
    base_rank = sparse_rank(rows)
    for i in range(der.dim):
        for j in range(i + 1, der.dim):
            br = bracket(rows[i], rows[j], der.parities[i], der.parities[j])
            if sparse_rank(rows + [br]) != base_rank:
                return False
    return True


def check_kills_form(der: DerivationAlgebra) -> bool:
    """b(Dx, y) + (-1)^{|D||x|} b(x, Dy) = 0 on all basis pairs."""
    alg = der.alg
    d = alg.dim
    par = alg.parity
    for D, dp in zip(der.mats, der.parities):
        for x in range(d):
            for y in range(d):
                left = sum((D[a][x] * alg.b(a, y) for a in range(d)), Fraction(0))
                sgn = -1 if (dp and par[x]) else 1
                right = sum((D[a][y] * alg.b(x, a) for a in range(d)), Fraction(0))
                if left + sgn * right != 0:
                    return False
    return True


def _index_grades(der):
    """Grade of each basis index of V, read off the derivation basis alone.

    Each diagonal even basis element contributes its diagonal as integer
    weights (scaled to a primitive integer vector).  Each even basis element
    X with X^3 = -X and X^2 diagonal (a rotation) contributes one parity bit,
    set on the indices a with X^2[a][a] = -1: the diagonal entries of X^2
    are 0 or -1, and the sign automorphism I + 2X^2 = exp(pi X) is -1
    exactly there.  A grade is the tuple of weights followed by the bits
    packed into one int; a basis with no such element grades every index
    zero."""
    d = der.alg.dim
    weights = []
    bits = [0] * d
    bit = 1
    for mat, p in zip(der.mats, der.parities):
        if p:
            continue
        X = _entries(mat)
        if all(a == b for a, b in X):
            w = clear_denominators({a: v for (a, _), v in X.items()})
            weights.append([w.get(a, 0) for a in range(d)])
            continue
        X2 = _sparse_mul(X, X)
        if (all(a == b for a, b in X2)
                and _sparse_mul(X2, X) == {ab: -v for ab, v in X.items()}):
            for a, _ in X2:
                bits[a] |= bit
            bit <<= 1
    return [tuple(w[a] for w in weights) + (bits[a],) for a in range(d)]


def _add_grade(g, h, sign=1):
    """g + sign * h: weights add, parity bits xor."""
    return tuple(x + sign * y for x, y in zip(g[:-1], h[:-1])) + (g[-1] ^ h[-1],)


def _grade_classes(index, n):
    """The input indices of V^(x)n grouped by grade, {grade: [(flat, alpha),
    ...]} with each list in lexicographic order, and the zero grade.

    `index` holds the grade of each basis index (_index_grades); a tuple's
    grade is the sum of its slots' grades.  Grades are interned as small
    ints, so each flat index costs one table lookup from its prefix's."""
    zero = (0,) * len(index[0])
    grades = [zero]
    ids = {zero: 0}
    level = [0]     # grade id of each flat index of V^(x)k, k = 0 .. n
    for _ in range(n):
        step = {}
        for g in set(level):
            step[g] = row = []
            for h in index:
                s = _add_grade(grades[g], h)
                if s not in ids:
                    ids[s] = len(grades)
                    grades.append(s)
                row.append(ids[s])
        level = [s for g in level for s in step[g]]
    members = [[] for _ in grades]
    for flat, alpha in enumerate(product(range(len(index)), repeat=n)):
        members[level[flat]].append((flat, alpha))
    return {grades[g]: m for g, m in enumerate(members) if m}, zero


def zero_grade(der: DerivationAlgebra, n: int):
    """Flat indices of the zero-grade part G0 of V^(x)n, in lexicographic
    order; every invariant lies in G0 (see _all_action_rows)."""
    classes, zero = _grade_classes(_index_grades(der), n)
    return [flat for flat, _ in classes.get(zero, ())]


def _action_rows(alg, entries, dp, n, alphas):
    """Koszul-signed action on V^(x)n of a derivation of parity dp with the
    nonzero entries {(a, b): coeff}: yields (alpha, {flat beta: coeff}) for
    each (flat alpha, alpha) of `alphas`, flat beta being beta's position in
    lexicographic order.

    The flat index of alpha with slot k changed from alpha[k] to a is
    base + powers[k] * (a - alpha[k]), base being alpha's own position, so
    each entry costs one addition; the per-slot offsets are tabled once."""
    par = alg.parity
    d = alg.dim
    powers = [d ** i for i in range(n)][::-1]
    cols = [[] for _ in range(d)]
    for (a, b), c in entries.items():
        cols[b].append((a, c))
    # shift[k][b]: (offset, coeff) for each entry in column b, acting in slot k
    shift = [[[(p * (a - b), c) for a, c in col] for b, col in enumerate(cols)]
             for p in powers]
    # the same with the coefficient negated, for an odd D past an odd prefix
    neg = [[[(off, -c) for off, c in col] for col in slot] for slot in shift]
    for base, alpha in alphas:
        row = {}
        odd = 0
        for k, b in enumerate(alpha):
            for off, c in (neg if odd else shift)[k][b]:
                flat = base + off
                v = row.get(flat, 0) + c
                if v:
                    row[flat] = v
                elif flat in row:
                    del row[flat]
            if dp and par[b]:
                odd ^= 1
        yield alpha, row


def action_matrix(der: DerivationAlgebra, which: int, n: int):
    """Sparse action of derivation basis element `which` on V^(x)n, as a
    TensorMap (Koszul-signed for the supercase)."""
    idx = list(product(range(der.alg.dim), repeat=n))
    rows = _action_rows(der.alg, _entries(der.mats[which]), der.parities[which],
                        n, enumerate(idx))
    entries = {(idx[flat], alpha): c for alpha, row in rows
               for flat, c in row.items()}
    return TensorMap(der.alg, n, n, entries)


def _all_action_rows(der, n):
    """(|G0|, rows): the zero-grade column count of V^(x)n and the action
    rows whose rank r makes |G0| - r the invariant dimension.

    Why it is exact.  The rank of the images D_i e_alpha, over every basis
    element D_i and input index alpha, measures K, the intersection of the
    kernels of the transposed actions A_i^T on V^(x)n: dim K is dim^n minus
    that rank.  Every grading element of _index_grades is one of the D_i and
    is even, so K lies in the kernel of its transposed action.  For a
    diagonal H that kernel is spanned by the e_beta whose weights sum to 0.
    For a rotation X (X^3 = -X, X^2 diagonal) the kernel of A_X^T is fixed,
    over R, by exp(pi A_X^T) = exp(pi X^T)^(x)n; and (X^T)^2 = X^2 is
    diagonal, so exp(pi X^T) = I + 2X^2 is the diagonal sign of X's parity
    bit, and the kernel lies in the span of the e_beta whose bits sum to 0.
    Hence K lies in the zero-grade span G0.  A vector of G0 pairs with a row
    only through the row's zero-grade part pi_0, so
    dim K = |G0| - rank{pi_0(D_i e_alpha)} exactly over Q.

    The rows.  Each D_i is split by the grade delta = grade(b) - grade(a) of
    its entries (a, b); the part of grade delta moves a tuple's grade by
    -delta, so pi_0(D_i e_alpha) is that part applied to e_alpha, alpha of
    grade delta, and no other alpha gives a row.  A homogeneous D_i has one
    part.  A non-homogeneous one, or a basis with no grading element (every
    grade zero, G0 everything), goes through the same loop and yields every
    row D_i e_alpha.

    The rows are integer rows: each D_i acts scaled once by
    clear_denominators.  A nonzero multiple of D_i has the same kernel and
    the same row span, so the rank over Q is unchanged."""
    index = _index_grades(der)
    classes, zero = _grade_classes(index, n)

    def rows():
        for mat, dp in zip(der.mats, der.parities):
            parts = {}
            for (a, b), c in clear_denominators(_entries(mat)).items():
                parts.setdefault(_add_grade(index[b], index[a], -1), {})[a, b] = c
            for delta, part in parts.items():
                alphas = classes.get(delta, ())
                for _, row in _action_rows(der.alg, part, dp, n, alphas):
                    if row:
                        yield row
    return len(classes.get(zero, ())), rows()


def invariant_dim(alg: CrossAlgebra, n: int,
                  der: DerivationAlgebra | None = None) -> int:
    """Dimension of the invariants of V^(x)n under the derivation algebra:
    the zero-grade column count |G0| minus the exact rank over Q of the
    action rows that meet G0 (_all_action_rows proves this exact).  Needs
    no diagrams; refused when dim^n exceeds EXACT_LIMIT or the elimination
    holds more than linalg.MAX_FILL entries."""
    if alg.dim ** n > EXACT_LIMIT:
        raise BudgetError(f"dim^n = {alg.dim ** n} exceeds the exact limit "
                          f"of {EXACT_LIMIT}")
    if der is None:
        der = derivations(alg)
    columns, rows = _all_action_rows(der, n)
    return columns - sparse_rank(rows)


def certified_dim(alg: CrossAlgebra, n: int, vectors,
                  der: DerivationAlgebra | None = None) -> int:
    """Dimension of the invariants of V^(x)n, certified from both ends.

    `vectors` are invariant tensors of V^(x)n as {index: coeff} dicts, such
    as evaluated basis diagrams (`rewrite._eval_vector`), in an iterable
    consumed once and only after the upper end is found, so a generator
    makes a size refused there evaluate nothing.  invariant_dim is
    the dimension, so it bounds from above the exact rank of the vectors,
    their span's dimension.  Returns the dimension when the two meet, that
    is when the vectors span the invariants, and raises CertificateError
    naming both when they do not.  Refused when invariant_dim is, or when
    the vectors' elimination holds more than linalg.MAX_FILL entries.
    """
    upper = invariant_dim(alg, n, der=der)
    lower = sparse_rank(vectors)
    if lower != upper:
        raise CertificateError(n, lower, upper)
    return upper


def equivariance_check(f: TensorMap, der: DerivationAlgebra | None = None) -> bool:
    """True iff f commutes with every derivation (super-signed action)."""
    alg = f.algebra
    if der is None:
        der = derivations(alg)
    for which in range(der.dim):
        a_in = action_matrix(der, which, f.n_in)
        a_out = action_matrix(der, which, f.n_out)
        if compose(f, a_in) != compose(a_out, f):
            return False
    return True
