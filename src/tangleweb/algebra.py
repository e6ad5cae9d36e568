"""The three cross-product (super)algebras and their defining identities.

Each case is a triple (V, b, x): a based vector space with a nondegenerate
(super)symmetric bilinear form b and a bilinear product x.  Scalars are
exact rationals throughout; every identity below is checked exhaustively
on basis tuples, which suffices for the multilinear ones.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import chain, permutations, product

from .linalg import invert_matrix, sparse_sum

EVEN = 0
ODD = 1


class CaseTag(str, Enum):
    DIM3 = "dim3"
    DIM7 = "dim7"
    KAP = "kap"


# Oriented Fano triples: e_i x e_j = e_k cyclically on each triple (1-based).
FANO_TRIPLES = ((1, 2, 3), (1, 4, 5), (1, 7, 6), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 6, 5))


@dataclass(frozen=True)
class CrossAlgebra:
    case: CaseTag
    dim: int
    parity: tuple          # parity per basis index
    gram: tuple            # dim x dim matrix of b
    cross: tuple           # dim x dim x dim structure constants of x
    gram_inv: tuple        # inverse of gram

    def b(self, i, j):
        return self.gram[i][j]

    def times(self, i, j):
        """Structure-constant row for e_i x e_j as a dict k -> coeff."""
        return {k: c for k, c in enumerate(self.cross[i][j]) if c}

    def b_vec(self, x, y):
        """b on coordinate vectors (dicts index -> Fraction)."""
        acc = Fraction(0)
        for i, xi in x.items():
            row = self.gram[i]
            for j, yj in y.items():
                acc += xi * yj * row[j]
        return acc

    def times_vec(self, x, y):
        return sparse_sum((k, xi * yj * c) for i, xi in x.items() for j, yj in y.items()
                          for k, c in enumerate(self.cross[i][j]) if c)

    def to_json(self):
        return json.dumps({
            "case": self.case.value,
            "dim": self.dim,
            "parity": list(self.parity),
            "gram": [[format_fraction(v) for v in row] for row in self.gram],
            "cross": [[[format_fraction(v) for v in col] for col in row]
                      for row in self.cross],
        }, indent=None)


def format_fraction(x):
    """Exact text of a rational: "n/d", or "n" when it is an integer."""
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def _freeze(mat):
    return tuple(tuple(row) for row in mat)


def build(case: CaseTag) -> CrossAlgebra:
    """Construct the fixed rational model of a case."""
    case = CaseTag(case)
    if case is CaseTag.DIM3:
        dim = 3
        parity = (EVEN,) * 3
        gram = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
        cross = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            cross[i][j][k] = Fraction(1)
            cross[j][i][k] = Fraction(-1)
    elif case is CaseTag.DIM7:
        dim = 7
        parity = (EVEN,) * 7
        gram = [[Fraction(int(i == j)) for j in range(7)] for i in range(7)]
        cross = [[[Fraction(0)] * 7 for _ in range(7)] for _ in range(7)]
        for a, b, c in FANO_TRIPLES:
            for i, j, k in ((a, b, c), (b, c, a), (c, a, b)):
                cross[i - 1][j - 1][k - 1] = Fraction(1)
                cross[j - 1][i - 1][k - 1] = Fraction(-1)
    elif case is CaseTag.KAP:
        # basis (e, p, q): one even and two odd elements
        dim = 3
        parity = (EVEN, ODD, ODD)
        gram = [[Fraction(0)] * 3 for _ in range(3)]
        gram[0][0] = Fraction(1, 2)
        gram[1][2] = Fraction(1)
        gram[2][1] = Fraction(-1)
        cross = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
        cross[0][0][0] = Fraction(1)                    # e x e = e
        cross[0][1][1] = cross[1][0][1] = Fraction(1, 2)  # e x p = p x e = p/2
        cross[0][2][2] = cross[2][0][2] = Fraction(1, 2)  # e x q = q x e = q/2
        cross[1][2][0] = Fraction(1)                    # p x q = e
        cross[2][1][0] = Fraction(-1)                   # q x p = -e
    else:
        raise ValueError(f"unknown case {case!r}")

    return CrossAlgebra(case=case, dim=dim, parity=parity, gram=_freeze(gram),
                        cross=_freeze(tuple(map(_freeze, cross))),
                        gram_inv=_freeze(invert_matrix(gram)))


def per_case(cache, alg, make):
    """make(alg), kept in `cache` under alg.case with the algebra it was
    made for, one entry per case.

    The entry serves only that algebra or an equal one, so a hand-built
    algebra and build(case) never get each other's tables; any other
    algebra remakes the entry in place.  Identity is tested first, and an
    equal algebra takes the entry over, so it pays the field-by-field
    comparison once."""
    entry = cache.get(alg.case)
    if entry is None or entry[0] is not alg:
        value = entry[1] if entry is not None and entry[0] == alg else make(alg)
        cache[alg.case] = entry = (alg, value)
    return entry[1]


@dataclass(frozen=True)
class DualBases:
    u: tuple  # u_i = standard basis vectors, as coordinate dicts
    v: tuple  # v_j with b(u_i, v_j) = delta_ij


def dual_bases(alg: CrossAlgebra) -> DualBases:
    """Dual bases (u, v) with b(u_i, v_j) = delta_ij; u is the standard basis."""
    d = alg.dim
    u = tuple({i: Fraction(1)} for i in range(d))
    # b(e_i, v_j) = sum_a gram[i][a] v_j[a] = delta_ij  =>  columns of gram^-1
    v = tuple({a: alg.gram_inv[a][j] for a in range(d) if alg.gram_inv[a][j]}
              for j in range(d))
    for i in range(d):
        for j in range(d):
            assert alg.b_vec(u[i], v[j]) == int(i == j)
    return DualBases(u=u, v=v)


class AxiomReport:
    """Outcome of an axiom suite: named checks with pass/fail and a witness."""

    def __init__(self):
        self.results = []

    def record(self, name, ok, witness=None):
        self.results.append((name, bool(ok), witness))

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.results)

    def failures(self):
        return [(n, w) for n, ok, w in self.results if not ok]

    def __str__(self):
        lines = []
        for name, ok, witness in self.results:
            tail = "" if ok else f"  FAILED at {witness}"
            lines.append(f"{'pass' if ok else 'FAIL'}  {name}{tail}")
        return "\n".join(lines)


def _first_failure(pred, tuples):
    for t in tuples:
        if not pred(*t):
            return t
    return None


def _b_products(alg, i, j, k, l):
    """b(e_i x e_j, e_k x e_l)."""
    return alg.b_vec(alg.times(i, j), alg.times(k, l))


def check_axioms(alg: CrossAlgebra) -> AxiomReport:
    """Verify the case's defining identities on all basis tuples."""
    rep = AxiomReport()
    d = alg.dim
    rng = range(d)
    b = alg.b
    x = alg.times
    e = [{i: Fraction(1)} for i in rng]

    w = _first_failure(lambda i, j, k: alg.b_vec(x(i, j), e[k]) == alg.b_vec(e[i], x(j, k)),
                       product(rng, repeat=3))
    rep.record("b associative: b(x*y,z) = b(x,y*z)", w is None, w)

    if alg.case in (CaseTag.DIM3, CaseTag.DIM7):
        w = _first_failure(lambda i, j: x(i, j) == {k: -c for k, c in x(j, i).items()},
                           product(rng, repeat=2))
        rep.record("anticommutativity: x*y = -y*x", w is None, w)

        w = _first_failure(
            lambda i, j, k, l: _b_products(alg, i, j, k, l) + _b_products(alg, j, k, l, i)
            == 2 * b(i, k) * b(j, l) - b(i, j) * b(k, l) - b(j, k) * b(i, l),
            product(rng, repeat=4))
        rep.record("polarized norm compatibility (4-linear)", w is None, w)

        w = _first_failure(lambda i, j: alg.b_vec(x(i, j), e[i]) == 0,
                           product(rng, repeat=2))
        rep.record("b(x*y,x) = 0 on basis pairs", w is None, w)

        w = _first_failure(lambda i: not x(i, i), ((i,) for i in rng))
        rep.record("x*x = 0 on basis", w is None, w)

        w = _first_failure(
            lambda i, j: _b_products(alg, i, j, i, j) == b(i, i) * b(j, j) - b(i, j) * b(j, i),
            product(rng, repeat=2))
        rep.record("norm compatibility on basis pairs", w is None, w)

    if alg.case is CaseTag.DIM3:
        # triple product expansion (x*y)*z = b(x,z)y - b(y,z)x
        def triple_ok(i, j, k):
            return alg.times_vec(x(i, j), e[k]) == sparse_sum(((j, b(i, k)), (i, -b(j, k))))

        w = _first_failure(triple_ok, product(rng, repeat=3))
        rep.record("triple product: (x*y)*z = b(x,z)y - b(y,z)x", w is None, w)

    if alg.case is CaseTag.KAP:
        p = alg.parity
        w = _first_failure(
            lambda i, j: x(i, j) == {k: Fraction((-1) ** (p[i] * p[j])) * c
                                     for k, c in x(j, i).items()},
            product(rng, repeat=2))
        rep.record("supercommutativity: x*y = (-1)^{xy} y*x", w is None, w)

        db = dual_bases(alg)
        trace = sum((alg.b_vec(db.v[i], db.u[i]) for i in range(d)), Fraction(0))
        rep.record("dual-basis supertrace: sum b(y_i, x_i) = -1", trace == -1, trace)

        mix = sparse_sum(kc for i in range(d) for kc in alg.times_vec(db.v[i], db.u[i]).items())
        rep.record("dual-basis products cancel: sum y_i x x_i = 0", not mix, mix or None)

        def product_pairing_expansion(z1, z2, z3, z4):
            sign = Fraction((-1) ** (p[z2] * p[z3]))
            rhs = (b(z1, z2) * b(z3, z4)
                   + sign * Fraction(1, 2) * b(z1, z3) * b(z2, z4)
                   + Fraction(1, 2) * b(z1, z4) * b(z2, z3))
            return _b_products(alg, z1, z2, z3, z4) == rhs

        w = _first_failure(product_pairing_expansion, product(rng, repeat=4))
        rep.record("b(z1*z2, z3*z4) expansion against b-products", w is None, w)

    # invariants common to the type
    w = _first_failure(
        lambda i, j: b(i, j) == Fraction((-1) ** (alg.parity[i] * alg.parity[j])) * b(j, i),
        product(rng, repeat=2))
    rep.record("gram supersymmetry", w is None, w)

    w = _first_failure(lambda i, j: not (alg.parity[i] != alg.parity[j] and b(i, j) != 0),
                       product(rng, repeat=2))
    rep.record("gram parity blocks", w is None, w)
    return rep


def skew_symmetrization_check(alg: CrossAlgebra) -> AxiomReport:
    """Full S4 skew symmetrization identity for the 7-dimensional case."""
    if alg.case is not CaseTag.DIM7:
        raise ValueError("skew symmetrization check applies to the 7-dim case only")
    rep = AxiomReport()
    d = alg.dim

    def bxyz_t(i, j, k, l):
        acc = Fraction(0)
        for a, ca in alg.times(i, j).items():
            for c2, cc in alg.times(a, k).items():
                acc += ca * cc * alg.b(c2, l)
        return acc

    perms = list(_signed_perms4())
    w = None
    for t in product(range(d), repeat=4):
        lhs = sum((Fraction(sign) * _b_products(alg, *(t[a] for a in p))
                   for p, sign in perms), Fraction(0))
        rhs = 24 * (bxyz_t(*t) - alg.b(t[0], t[2]) * alg.b(t[1], t[3])
                    + alg.b(t[0], t[3]) * alg.b(t[1], t[2]))
        if lhs != rhs:
            w = t
            break
    rep.record("S4 skew symmetrization of b(x*y, z*t) = 24 * (...)", w is None, w)
    return rep


def _signed_perms4():
    for p in permutations(range(4)):
        inv = sum(1 for a in range(4) for b in range(a + 1, 4) if p[a] > p[b])
        yield p, (-1) ** inv


def cayley_hamilton_check(alg: CrossAlgebra) -> AxiomReport:
    """x^2 - tr(x) x + n(x) 1 = 0 in the unital algebra F1 + V (7-dim case)."""
    if alg.case is not CaseTag.DIM7:
        raise ValueError("Cayley-Hamilton check applies to the 7-dim case only")
    rep = AxiomReport()
    d = alg.dim

    # elements of F1 + V as (scalar, coordinate dict)
    def mul(x, y):
        (a, v), (b2, w) = x, y
        scal = a * b2 - alg.b_vec(v, w)
        return scal, sparse_sum(chain(((k, b2 * c) for k, c in v.items()),
                                      ((k, a * c) for k, c in w.items()),
                                      alg.times_vec(v, w).items()))

    def check(x):
        a, v = x
        tr = 2 * a
        norm = a * a + alg.b_vec(v, v)
        sq = mul(x, x)
        scal = sq[0] - tr * a + norm
        return scal == 0 and not sparse_sum(chain(sq[1].items(),
                                                  ((k, -tr * c) for k, c in v.items())))

    elems = [(Fraction(1), {})]
    elems += [(Fraction(0), {i: Fraction(1)}) for i in range(d)]
    span = list(elems)
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            a, v = elems[i]
            b2, w = elems[j]
            span.append((a + b2, sparse_sum(chain(v.items(), w.items()))))

    w = next((x for x in span if not check(x)), None)
    rep.record("Cayley-Hamilton on basis elements and pairwise sums", w is None, w)
    return rep
