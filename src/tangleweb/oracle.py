"""Brute-force certification against the (super) Lie algebra of derivations.

Everything diagrammatic in this package is cross-checked here: derivation
algebras are found by solving the Leibniz linear system from scratch, the
invariant dimensions are joint-kernel ranks of the derivation action on
tensor powers, and equivariance of tensor maps is checked entry-exactly.

invariant_dim is the diagram-free exact reference, a rank over Q;
certified_dim certifies a dimension with the one prime PRIME, bounding it
from above by the action and from below by the caller's invariant vectors.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .algebra import CaseTag, CrossAlgebra
from .basis import BudgetError
from .linalg import nullspace, sparse_rank
from .tensor import TensorMap, compose

# largest dim^n whose invariant dimension invariant_dim computes over Q
EXACT_LIMIT = 20000
# largest dim^n whose invariant dimension certified_dim certifies mod PRIME
MODP_LIMIT = 120000
# one fixed prime below 2^31; odd, because kap's denominators are powers of 2
PRIME = 2147483629


class CertificateError(ArithmeticError):
    """The two ends of a one-prime certificate differ."""

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


def _mat_mul(A, B):
    d = len(A)
    return [[sum((A[i][k] * B[k][j] for k in range(d)), Fraction(0))
             for j in range(d)] for i in range(d)]


def _mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def _flatten(mat):
    return {i: v for i, v in enumerate(x for row in mat for x in row) if v}


def bracket(A, B, pA=0, pB=0):
    """(Super)commutator [A, B] of square matrices."""
    sign = -1 if (pA and pB) else 1
    return _mat_sub(_mat_mul(A, B),
                    [[sign * x for x in row] for row in _mat_mul(B, A)])


def check_closed_under_bracket(der: DerivationAlgebra) -> bool:
    rows = [_flatten(m) for m in der.mats]
    base_rank = sparse_rank(rows, mod=None)
    for i in range(der.dim):
        for j in range(i + 1, der.dim):
            br = bracket(der.mats[i], der.mats[j],
                         der.parities[i], der.parities[j])
            if sparse_rank(rows + [_flatten(br)], mod=None) != base_rank:
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


def _action_rows(der, which, n):
    """Koszul-signed action of derivation basis element `which` on V^(x)n:
    yields (alpha, {flat beta: coeff}) for each input index alpha in
    lexicographic order, flat beta being beta's position in that order.

    The flat index of alpha with slot k changed from alpha[k] to a is
    base + powers[k] * (a - alpha[k]), base being alpha's own position, so
    each entry costs one addition; the per-slot offsets are tabled once."""
    alg = der.alg
    D = der.mats[which]
    dp = der.parities[which]
    par = alg.parity
    d = alg.dim
    powers = [d ** i for i in range(n)][::-1]
    # shift[k][b]: (offset, coeff) for each nonzero D[a][b], acting in slot k
    shift = [[[(p * (a - b), D[a][b]) for a in range(d) if D[a][b]]
              for b in range(d)] for p in powers]
    # the same with the coefficient negated, for an odd D past an odd prefix
    neg = [[[(off, -c) for off, c in col] for col in slot] for slot in shift]
    for base, alpha in enumerate(product(range(d), repeat=n)):
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
    entries = {(idx[flat], alpha): c
               for alpha, row in _action_rows(der, which, n)
               for flat, c in row.items()}
    return TensorMap(der.alg, n, n, entries)


def _all_action_rows(der, n):
    for which in range(der.dim):
        for _, row in _action_rows(der, which, n):
            if row:
                yield row


def invariant_dim(alg: CrossAlgebra, n: int,
                  der: DerivationAlgebra | None = None) -> int:
    """Dimension of the invariants of V^(x)n under the derivation algebra:
    dim^n minus the exact rank over Q of the action of every derivation
    basis element.  Needs no diagrams; refused past EXACT_LIMIT."""
    if alg.dim ** n > EXACT_LIMIT:
        raise BudgetError(f"dim^n = {alg.dim ** n} exceeds the exact limit "
                          f"of {EXACT_LIMIT}")
    if der is None:
        der = derivations(alg)
    return alg.dim ** n - sparse_rank(_all_action_rows(der, n), mod=None)


def certified_dim(alg: CrossAlgebra, n: int, vectors,
                  der: DerivationAlgebra | None = None) -> int:
    """Dimension of the invariants of V^(x)n, certified with the prime PRIME.

    `vectors` are invariant tensors of V^(x)n as {flat index: coeff} dicts,
    such as evaluated basis diagrams (`rewrite._eval_vector`).  For
    p-integral rows the rank mod p is at most the rank over Q, so
    dim^n - rank_p(action) bounds the dimension from above and
    rank_p(vectors) from below.  Returns the dimension when the two ends
    meet and raises CertificateError naming both when they do not.
    Refused past MODP_LIMIT.
    """
    if alg.dim ** n > MODP_LIMIT:
        raise BudgetError(f"dim^n = {alg.dim ** n} exceeds the mod-p limit "
                          f"of {MODP_LIMIT}")
    if der is None:
        der = derivations(alg)
    lower = sparse_rank(vectors, mod=PRIME)
    upper = alg.dim ** n - sparse_rank(_all_action_rows(der, n), mod=PRIME)
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
