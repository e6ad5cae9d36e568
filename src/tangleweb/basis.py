"""Basis diagrams for each case and the counting that certifies them.

For the 3-dimensional cases the basis is indexed by noncrossing partitions
of the boundary circle into blocks of size >= 2 (Catalan partitions), each
block realized as a left-comb tree.  For the 7-dimensional case the basis
consists of the crossing-free diagrams whose internal faces all have at
least six sides.
"""

from __future__ import annotations

from .algebra import CaseTag
from .planar import (VERT, PlanarDiagram, PlanarError, circle_refs, find_self_loop,
                     open_boundary)


class BudgetError(ValueError):
    pass


def riordan(n: int) -> int:
    """a(0)=1, a(1)=0, a(n) = (n-1)(2a(n-1) + 3a(n-2)) / (n+1), exactly."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 1
    prev2, prev = 1, 0
    for k in range(2, n + 1):
        num = (k - 1) * (2 * prev + 3 * prev2)
        q, r = divmod(num, k + 1)
        assert r == 0, f"Riordan recursion not integral at n={k}"
        prev2, prev = prev, q
    return prev


def noncrossing_partitions_min2(k: int):
    """Noncrossing partitions of circle positions 0..k-1, all blocks >= 2."""
    def rec(points):
        if not points:
            yield []
            return
        first, rest = points[0], points[1:]
        n = len(rest)
        for mask in range(1, 1 << n):
            mates = [i for i in range(n) if mask >> i & 1]
            block = [first] + [rest[i] for i in mates]
            gaps = []
            prev = -1
            for i in mates:
                gaps.append(rest[prev + 1:i])
                prev = i
            gaps.append(rest[prev + 1:])

            def go(idx, acc):
                if idx == len(gaps):
                    yield [block] + acc
                    return
                for sub in rec(gaps[idx]):
                    yield from go(idx + 1, acc + sub)

            yield from go(0, [])

    yield from rec(list(range(k)))


class NormalizedTangle:
    """A Catalan partition together with its left-comb planar realization."""

    __slots__ = ("n_in", "n_out", "blocks", "diagram")

    def __init__(self, n_in, n_out, blocks, diagram):
        self.n_in = n_in
        self.n_out = n_out
        self.blocks = blocks          # tuple of tuples of circle positions
        self.diagram = diagram

    def __repr__(self):
        return f"NormalizedTangle({self.n_in}->{self.n_out}, blocks={self.blocks})"


def build_normalized(n, m, blocks) -> PlanarDiagram:
    """Realize a noncrossing partition as left-comb trees in the disk.

    Blocks are tuples of circle positions; position p maps to a boundary
    point through circle_refs(n, m).  Each block is chained in the order
    given: its first point meets the first vertex, its last point the last
    vertex's outgoing leg.  Raises PlanarError if the partition crosses.
    """
    d, bnd = open_boundary(n, m)

    for pts in blocks:
        if len(pts) < 2:
            raise ValueError("blocks must have at least two points")
        if len(pts) == 2:
            d.pair(bnd[pts[0]], bnd[pts[1]])
            continue
        prev_out = None
        for i in range(len(pts) - 2):
            a = d.new_halfedge()
            o = d.new_halfedge()
            b = d.new_halfedge()
            d.add_vertex((a, o, b))
            if i == 0:
                d.pair(a, bnd[pts[0]])
            else:
                d.pair(prev_out, a)
            d.pair(b, bnd[pts[i + 1]])
            prev_out = o
        d.pair(prev_out, bnd[pts[-1]])
    d.check_valid()
    return d


def enumerate_catalan(n: int, m: int):
    """All normalized tangles [n] -> [m]; count equals riordan(n+m)."""
    _check_arities(n, m)
    k = n + m
    out = []
    for blocks in noncrossing_partitions_min2(k):
        blocks_t = tuple(sorted(tuple(sorted(b)) for b in blocks))
        diag = build_normalized(n, m, blocks_t)
        out.append(NormalizedTangle(n, m, blocks_t, diag))
    out.sort(key=lambda t: t.diagram.canonical_encoding())
    assert len(out) == riordan(k), (len(out), riordan(k))
    return out


def _check_arities(n, m):
    if n < 0 or m < 0:
        raise ValueError(f"arities must be non-negative, got [{n}] -> [{m}]")


def basis_diagrams(case: CaseTag, n: int, m: int):
    """The case's basis diagrams [n] -> [m], ordered by canonical encoding:
    non-elliptic webs for dim7 (boundary budget at least 7), otherwise the
    left-comb Catalan partitions."""
    if CaseTag(case) is CaseTag.DIM7:
        return enumerate_webs(n, m, budget=max(7, n + m))
    return [t.diagram for t in enumerate_catalan(n, m)]


# ------------------------------------------------------------------ webs

def _closed_face(d, start):
    """Face walk from a paired half-edge; None if it exits the boundary or
    meets an open stub (face unfinished)."""
    walk = [start]
    cur = start
    while True:
        p = d.pairing[cur]
        if d.loc[p][0] != VERT:
            return None
        nxt = d.sigma(p)
        if nxt == start:
            return walk
        if nxt not in d.pairing:
            return None
        walk.append(nxt)
        cur = nxt


def enumerate_webs(n: int, m: int, budget: int = 7, max_vertices=None):
    """All non-elliptic webs [n] -> [m] by exhaustive planar search.

    Grows diagrams boundary-first: the first open stub of the active region
    either connects to another stub of that region (splitting it) or meets a
    fresh trivalent vertex.  Any face completed with fewer than six sides
    prunes the branch, which is also what bounds the vertex count in
    practice; max_vertices is a hard stop on top of that.
    """
    _check_arities(n, m)
    k = n + m
    if k > budget:
        raise BudgetError(f"boundary size {k} exceeds budget {budget}")
    if max_vertices is None:
        # an Euler count over faces of size >= 6 keeps non-elliptic webs at
        # k or fewer vertices for the boundary sizes in budget; +4 is slack
        max_vertices = k + 4

    base, stubs = open_boundary(n, m)

    results = {}

    def faces_ok(h):
        for side in (h, base.pairing[h]):
            w = _closed_face(base, side)
            if w is not None and len(w) < 6:
                return False
        return True

    def record():
        out = base.copy()
        try:
            out.check_valid()
        except PlanarError:
            return
        results[out.canonical_encoding()] = out

    def rec(region, others, vleft):
        if not region:
            if not others:
                record()
            else:
                rec(others[-1], others[:-1], vleft)
            return
        s = region[0]
        for j in range(1, len(region)):
            t = region[j]
            base.pair(s, t)
            if faces_ok(s):
                inner = region[1:j]
                outer = region[j + 1:]
                if not inner:
                    rec(outer, others, vleft)
                elif len(inner) % 2 == 0 or vleft > 0:
                    rec(inner, others + (outer,), vleft)
            del base.pairing[s], base.pairing[t]
        if vleft > 0:
            a, x, y = base.new_halfedge(), base.new_halfedge(), base.new_halfedge()
            vid = base.add_vertex((a, x, y))
            base.pair(s, a)
            rec((x, y) + tuple(region[1:]), others, vleft - 1)
            del base.pairing[s], base.pairing[a]
            base.drop_vertex(vid)

    rec(tuple(stubs), (), max_vertices)
    webs = [w for w in results.values() if is_basis_diagram(w, CaseTag.DIM7)]
    webs.sort(key=lambda w: w.canonical_encoding())
    return webs


# ------------------------------------------------------------- recognition

def is_basis_diagram(d: PlanarDiagram, case: CaseTag) -> bool:
    """Case predicate for normal-form diagrams (crossing-free input assumed)."""
    case = CaseTag(case)
    if d.loops:
        return False
    if case is CaseTag.DIM7:
        if find_self_loop(d) is not None:
            return False
        return all(len(f) >= 6 for f in d.internal_faces())
    # 3-dimensional cases: disjoint union of canonical left-comb trees
    refs = circle_refs(d.n_in, d.n_out)
    pos_of = {ref: p for p, ref in enumerate(refs)}
    blocks = []
    for comp_v, comp_b in d.components():
        if not comp_b:
            return False            # closed component
        blocks.append(tuple(sorted(pos_of[r] for r in comp_b)))
    if any(len(b) < 2 for b in blocks):
        return False
    try:
        want = build_normalized(d.n_in, d.n_out, tuple(sorted(blocks)))
    except (ValueError, PlanarError):
        return False
    return want.canonical_encoding() == d.canonical_encoding()

