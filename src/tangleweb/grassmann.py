"""Polynomial ring Q[a] tensored with the exterior algebra on two odd
generators, just large enough to exhibit the odd cubic invariant of the
3-dimensional supercase.

Elements are dicts (a_degree, has_beta, has_gamma) -> Fraction with the
relations beta^2 = gamma^2 = 0 and beta*gamma = -gamma*beta.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import AxiomReport, CaseTag, build
from .linalg import sparse_sum

ONE = (0, 0, 0)


def g_mul(x, y):
    # odd generators square to zero; reordering to a^(da+db) beta^(ba+bb)
    # gamma^(ga+gb) moves a beta from y past a gamma from x, a sign -1
    return sparse_sum(((da + db, ba + bb, ga + gb), -cx * cy if bb and ga else cx * cy)
                      for (da, ba, ga), cx in x.items() for (db, bb, gb), cy in y.items()
                      if not ((ba and bb) or (ga and gb)))


def g_pow(x, n):
    acc = {ONE: Fraction(1)}
    for _ in range(n):
        acc = g_mul(acc, x)
    return acc


def super_pfaffian_check() -> AxiomReport:
    """Symbolic check that b(u x u, u)^2 = 2 b(u,u)^3 for u = a e + beta p + gamma q.

    Scalars extend the supercase coefficient-wise (no extra signs); this is
    the convention under which the displayed expansions
    (1/2)(a^3 + 6 a beta gamma) and (1/8)(a^6 + 12 a^4 beta gamma) come out.
    """
    alg = build(CaseTag.KAP)
    rep = AxiomReport()

    a = {(1, 0, 0): Fraction(1)}
    beta = {(0, 1, 0): Fraction(1)}
    gamma = {(0, 0, 1): Fraction(1)}
    # u as a vector over the ring: coordinates in the (e, p, q) basis
    u = {0: a, 1: beta, 2: gamma}

    def b_ring(x, y):
        return sparse_sum((mono, v * alg.b(i, j)) for i, xi in x.items()
                          for j, yj in y.items() if alg.b(i, j)
                          for mono, v in g_mul(xi, yj).items())

    def times_ring(x, y):
        # one sum keyed (coordinate, monomial), then split by coordinate
        flat = sparse_sum(((k, mono), v * c) for i, xi in x.items() for j, yj in y.items()
                          for k, c in alg.times(i, j).items()
                          for mono, v in g_mul(xi, yj).items())
        out = {}
        for (k, mono), v in flat.items():
            out.setdefault(k, {})[mono] = v
        return out

    buu = b_ring(u, u)
    rep.record("b(u,u) = (1/2)a^2 + 2 beta gamma",
               buu == {(2, 0, 0): Fraction(1, 2), (0, 1, 1): Fraction(2)}, buu)

    buu3 = g_pow(buu, 3)
    expected3 = {(6, 0, 0): Fraction(1, 8), (4, 1, 1): Fraction(12, 8)}
    rep.record("b(u,u)^3 = (1/8)(a^6 + 12 a^4 beta gamma)", buu3 == expected3, buu3)

    uxu = times_ring(u, u)
    buxu_u = b_ring(uxu, u)
    expected1 = {(3, 0, 0): Fraction(1, 2), (1, 1, 1): Fraction(3)}
    rep.record("b(u x u, u) = (1/2)(a^3 + 6 a beta gamma)", buxu_u == expected1, buxu_u)

    sq = g_mul(buxu_u, buxu_u)
    expected2 = {(6, 0, 0): Fraction(1, 4), (4, 1, 1): Fraction(3)}
    rep.record("b(u x u, u)^2 = (1/4)(a^6 + 12 a^4 beta gamma)", sq == expected2, sq)

    doubled = {k: 2 * v for k, v in buu3.items()}
    rep.record("b(u x u, u)^2 = 2 b(u,u)^3", sq == doubled, (sq, doubled))

    # no odd generator survives squared anywhere
    stray = [k for k in sq if k[1] > 1 or k[2] > 1]
    rep.record("no beta^2 / gamma^2 terms", not stray, stray or None)
    return rep
