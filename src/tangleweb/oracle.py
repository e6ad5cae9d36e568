"""Brute-force certification against the (super) Lie algebra of derivations.

Everything diagrammatic in this package is cross-checked here: derivation
algebras are found by solving the Leibniz linear system from scratch, the
invariant dimensions are joint-kernel ranks of the derivation action on
tensor powers, and equivariance of tensor maps is checked entry-exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from .algebra import CaseTag, CrossAlgebra
from .basis import BudgetError
from .linalg import nullspace, sparse_rank
from .tensor import TensorMap, compose

# largest dim^n whose invariant dimension each rank mode computes
DIM_LIMITS = {"exact": 20000, "modp": 120000}


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


def _lie_generators(der: DerivationAlgebra):
    """A small subset generating the algebra under brackets (used to cut the
    row count of the tensor-power action; the joint kernel is unchanged)."""
    n = der.dim
    if n <= 3:
        return list(range(n))
    rows = [_flatten(m) for m in der.mats]
    full = sparse_rank(rows, mod=None)

    def closure_rank(idxs):
        span = [der.mats[i] for i in idxs]
        pars = [der.parities[i] for i in idxs]
        vecs = [_flatten(m) for m in span]
        rank = sparse_rank(vecs, mod=None)
        frontier = list(range(len(span)))
        while True:
            new = []
            for i in frontier:
                for j in range(len(span)):
                    br = bracket(span[i], span[j], pars[i], pars[j])
                    fv = _flatten(br)
                    if not fv:
                        continue
                    r2 = sparse_rank(vecs + [fv], mod=None)
                    if r2 > rank:
                        rank = r2
                        span.append(br)
                        pars.append((pars[i] + pars[j]) % 2)
                        vecs.append(fv)
                        new.append(len(span) - 1)
                        if rank == full:
                            return rank
            if not new:
                return rank
            frontier = new

    for i in range(n):
        for j in range(i + 1, n):
            if closure_rank([i, j]) == full:
                return [i, j]
    return list(range(n))


_GEN_CACHE = {}


def _action_rows(der, which, n):
    """Koszul-signed action of derivation basis element `which` on V^(x)n:
    yields (alpha, {flat beta: coeff}) for each input index alpha in
    lexicographic order, flat beta being beta's position in that order."""
    alg = der.alg
    D = der.mats[which]
    dp = der.parities[which]
    par = alg.parity
    d = alg.dim
    cols = {b: [(a, D[a][b]) for a in range(d) if D[a][b]] for b in range(d)}
    powers = [d ** i for i in range(n)][::-1]
    for alpha in product(range(d), repeat=n):
        row = {}
        for k in range(n):
            for a, c in cols[alpha[k]]:
                s = c
                if dp:
                    pre = sum(par[alpha[t]] for t in range(k)) & 1
                    if pre:
                        s = -s
                flat = sum(powers[t] * (alpha[t] if t != k else a) for t in range(n))
                v = row.get(flat, 0) + s
                if v:
                    row[flat] = v
                elif flat in row:
                    del row[flat]
        yield alpha, row


def action_matrix(der: DerivationAlgebra, which: int, n: int):
    """Sparse action of derivation basis element `which` on V^(x)n, as a
    TensorMap (Koszul-signed for the supercase)."""
    idx = list(product(range(der.alg.dim), repeat=n))
    entries = {(idx[flat], alpha): c
               for alpha, row in _action_rows(der, which, n)
               for flat, c in row.items()}
    return TensorMap(der.alg, n, n, entries)


def invariant_dim(alg: CrossAlgebra, n: int, mode="exact", seed=0,
                  der: DerivationAlgebra | None = None) -> int:
    """Dimension of the invariants of V^(x)n under the derivation algebra."""
    d = alg.dim
    if mode not in DIM_LIMITS:
        raise ValueError(f"unknown mode {mode!r}")
    if d ** n > DIM_LIMITS[mode]:
        raise BudgetError(f"dim^n = {d**n} too large for {mode} mode")
    if der is None:
        der = derivations(alg)
    key = alg.case
    gens = _GEN_CACHE.get(key)
    if gens is None:
        gens = _lie_generators(der)
        _GEN_CACHE[key] = gens

    def all_rows():
        for which in gens:
            for _, row in _action_rows(der, which, n):
                if row:
                    yield row

    if mode == "exact":
        rank = sparse_rank(all_rows(), mod=None)
        return d ** n - rank
    rng = random.Random(seed)
    for _attempt in range(3):
        primes = _fresh_primes(rng, 3)
        ranks = [sparse_rank(all_rows(), mod=p) for p in primes]
        if len(set(ranks)) == 1:
            return d ** n - ranks[0]
    raise RuntimeError("mod-p ranks disagree after retries")


def _fresh_primes(rng, count):
    out = []
    while len(out) < count:
        c = rng.randrange(2 ** 30, 2 ** 31)
        if _is_prime(c) and c not in out:
            out.append(c)
    return out


def _is_prime(n):
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    dd = n - 1
    r = 0
    while dd % 2 == 0:
        dd //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, dd, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


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
