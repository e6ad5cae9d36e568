"""Basis diagrams for each case and the counting that certifies them.

For the 3-dimensional cases the basis is indexed by noncrossing partitions
of the boundary circle into blocks of size >= 2 (Catalan partitions), each
block realized as a left-comb tree.  For the 7-dimensional case the basis
consists of the crossing-free diagrams whose internal faces all have at
least six sides.
"""

from __future__ import annotations

from .algebra import CaseTag
from .linalg import BudgetError
from .planar import PlanarDiagram, circle_refs, open_boundary


# Catalan diagrams one request may build or count: riordan(15) = 83,097 is
# within it, riordan(16) = 227,475 is not.  The library's own largest
# enumeration is riordan(10) = 603.
MAX_DIAGRAMS = 100_000
# boundary points one web search may have: k = 8 (455 webs) takes seconds,
# k = 9 (1,792 webs) minutes.  The library's own largest search is k = 6.
MAX_WEB_POINTS = 8


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
    check_catalan_budget(k)
    out = []
    for blocks in noncrossing_partitions_min2(k):
        blocks_t = tuple(sorted(tuple(sorted(b)) for b in blocks))
        diag = build_normalized(n, m, blocks_t)
        out.append(NormalizedTangle(n, m, blocks_t, diag))
    out.sort(key=lambda t: t.diagram.canonical_encoding())
    assert len(out) == riordan(k), (len(out), riordan(k))
    return out


def check_web_budget(k: int):
    """Refuse a web search over more than MAX_WEB_POINTS boundary points."""
    if k > MAX_WEB_POINTS:
        raise BudgetError(f"boundary size {k} exceeds budget {MAX_WEB_POINTS}")


def check_catalan_budget(k: int):
    """Refuse a request whose Catalan diagrams on k points number more than
    MAX_DIAGRAMS.  Riordan numbers never decrease after riordan(1), so the
    scan stops at the first one over the budget instead of reaching k."""
    for j in range(2, k + 1):
        count = riordan(j)
        if count > MAX_DIAGRAMS:
            raise BudgetError(f"{k} boundary points have at least {count} Catalan "
                              f"diagrams, over the budget of {MAX_DIAGRAMS}")


def _check_arities(n, m):
    if n < 0 or m < 0:
        raise ValueError(f"arities must be non-negative, got [{n}] -> [{m}]")


def basis_diagrams(case: CaseTag, n: int, m: int):
    """The case's basis diagrams [n] -> [m], ordered by canonical encoding:
    non-elliptic webs for dim7, otherwise the left-comb Catalan partitions."""
    if CaseTag(case) is CaseTag.DIM7:
        return enumerate_webs(n, m)
    return [t.diagram for t in enumerate_catalan(n, m)]


def basis_count(case: CaseTag, n: int, m: int):
    """len(basis_diagrams(case, n, m)) where it is known before a diagram is
    built: riordan(n + m) for the Catalan partitions.  None for dim7, whose
    webs are counted only by enumerating them."""
    _check_arities(n, m)
    if CaseTag(case) is CaseTag.DIM7:
        return None
    return riordan(n + m)


# ------------------------------------------------------------------ webs

def web_vertex_bound(k: int) -> int:
    """The most trivalent vertices a non-elliptic web with k boundary points
    can have: k - 2 + 2 * faces(k - 3), proved in enumerate_webs."""
    if k < 3:
        return 0
    # faces[x]: most internal faces of a patch with phi <= x, split into
    # connected parts; one(y): a connected patch with phi = y (steps 4-5)
    faces = [0] * (k - 2)

    def one(y):
        return max(1, y - 3) + (faces[y - 6] if y >= 6 else 0)

    for x in range(3, k - 2):
        faces[x] = max(one(y) + faces[x - y] for y in range(3, x + 1))
    return k - 2 + 2 * faces[k - 3]


def enumerate_webs(n: int, m: int):
    """All non-elliptic webs [n] -> [m] by exhaustive planar search.

    Grows diagrams boundary-first: the first open stub of the active region
    either connects to another stub of that region (splitting it) or meets a
    fresh trivalent vertex.  Any face completed with fewer than six sides
    prunes the branch.  So every diagram recorded is a valid non-elliptic
    web, and is recorded once: only a pairing closes a face, and faces_ok
    walks both sides of it with PlanarDiagram.face_walk, which stops open
    at a stub not yet paired; no stub is paired with itself; every vertex
    hangs off a region stub; and two branches differ in what some stub
    meets.  Each open region carries a cap, the most vertices its area may
    still receive, starting from web_vertex_bound(n + m) at the root:
      - a vertex met by a region with r stubs leaves a region of r + 1
        stubs with cap min(cap - 1, web_vertex_bound(r + 1));
      - a pairing that splits a region gives the inner part
        min(cap, web_vertex_bound(inner stubs)), and the outer part, once
        the inner one is closed, min(cap - vertices used inside,
        web_vertex_bound(outer stubs)).
    A region never receives more than its cap, so the root cap is the one
    vertex budget of the whole search.  No web is left out, by the bound
    below (steps 1-5) applied to every region (step 6):

    Let W be a non-elliptic web with k boundary points (trivalent, no loops,
    every internal face with >= 6 sides), and X the sum of (sides - 6) over
    its internal faces.

    1. Every component meets the boundary.  A closed component with no
       closed component inside it is a plane trivalent graph, so by Euler
       its faces have sum(6 - sides) = 12; its outer face gives < 6, so one
       of its inner faces, an internal face of W, has < 6 sides.
    2. A component C with k_C legs, V_C vertices and F_C internal faces,
       closed up by the boundary circle, has V_C = k_C - 2 + 2 F_C by
       Euler.  Its k_C gap faces (between consecutive legs) then hold
       3 V_C + k_C - (6 F_C + X_C) = 4 k_C - 6 - X_C edge sides.  If
       V_C > 0 every leg has a gap face on both sides, so
       P_C + 2 T_C = 2 k_C - 6 - X_C, where P_C counts the edges between an
       internal face and a gap face and T_C >= 0 the other edges with gap
       faces on both sides.
    3. A patch is a union of closed internal faces whose outside is
       connected, as C's internal faces are.  Its vertices have degree 2
       (the third edge is outside) or 3, and each lies at most once on the
       perimeter, since two outside corners would put an edge outside on
       both sides.  With c components, F faces, X excess, b degree-3
       vertices on the perimeter and P perimeter edges, Euler
       (v - e + F = c, 2e = 6F + X + P, P = #degree-2 + b) gives
       P = 6c + X + 2b.  Write phi = b + 3c + X.  For C's internal faces,
       step 2 gives phi = k_C - 3 - T_C <= k_C - 3.
    4. In a connected patch the b degree-3 perimeter vertices cut the
       perimeter into runs that each follow one face, so at most max(b, 1)
       faces touch it.  The rest form a patch Q (each removed face touches
       the outside) with c', b', X' and 6c' + X' + b' degree-2 vertices,
       each sending its third edge into the removed faces.  The edges with
       removed faces on both sides form a forest, because a cycle would
       shut a removed face away from the outside.  Its leaves are those
       degree-2 vertices and the b perimeter vertices, and its other
       vertices have degree 3.  With Q's components contracted to points
       the trees meeting Q still form a forest (a cycle would again shut a
       face in), so at most c' - 1 trees meet Q more than once, and at most
       2(c' - 1) of the degree-2 vertices lie on them.  Every other tree
       meets Q once and so ends at a perimeter vertex as well:
       b >= b' + 4c' + X' + 2, so phi(Q) <= b - c' - 2 <= phi - 6.
    5. So a connected patch with phi = y has at most
       max(1, y - 3) + faces(y - 6) faces, where faces(x) is the most a
       patch with phi <= x can have, taking the best split of x into
       connected parts (0 for x < 3).  The internal faces of W's c
       components have phi <= k - 3 in all by step 3, so F <= faces(k - 3)
       and V = k - 2c + 2F <= k - 2 + 2 faces(k - 3).
    6. The part of W inside an open region of the search is itself a web
       whose boundary points are the region's r stubs: its internal faces
       are internal faces of W, and by step 1 it has no closed component.
       So steps 1-5 bound it by web_vertex_bound(r).  It is also part of
       the region it was split or grown from, so by induction from the
       root (where it is all of W) it fits within that region's cap less
       what the region has used elsewhere; no cap on the branch that
       builds W is exceeded, and W is found.

    The bound is k - 2 for 2 <= k <= 5 and k for k = 6, 7 (the largest
    webs found), and it is met by the carbon skeletons of naphthalene
    (k = 8, 10 vertices), pyrene (k = 10, 16) and coronene (k = 12, 24).
    """
    _check_arities(n, m)
    k = n + m
    check_web_budget(k)

    base, stubs = open_boundary(n, m)

    webs = []

    def faces_ok(h):
        for side in (h, base.pairing[h]):
            walk, closed = base.face_walk(side)
            if closed and len(walk) < 6:
                return False
        return True

    root = web_vertex_bound(k)
    # regions grow by one stub per vertex, so none holds more than k + root
    bound = [web_vertex_bound(r) for r in range(k + root + 1)]

    def rec(region, cap, others):
        """Close `region` (its open stubs in order) with at most `cap` more
        vertices, then the regions on `others`: (stubs, the cap of the
        region they were split from, the vertex count at the split)."""
        if not region:
            if not others:
                webs.append(base.copy())
            else:
                outer, parent_cap, count = others[-1]
                cap = parent_cap - (len(base.rot) - count)
                rec(outer, min(cap, bound[len(outer)]), others[:-1])
            return
        s = region[0]
        for j in range(1, len(region)):
            t = region[j]
            base.pair(s, t)
            if faces_ok(s):
                inner = region[1:j]
                outer = region[j + 1:]
                if not inner:
                    rec(outer, min(cap, bound[len(outer)]), others)
                else:
                    inner_cap = min(cap, bound[len(inner)])
                    if len(inner) % 2 == 0 or inner_cap > 0:
                        rec(inner, inner_cap,
                            others + ((outer, cap, len(base.rot)),))
            del base.pairing[s], base.pairing[t]
        if cap > 0:
            a, x, y = base.new_halfedge(), base.new_halfedge(), base.new_halfedge()
            vid = base.add_vertex((a, x, y))
            base.pair(s, a)
            rec((x, y) + tuple(region[1:]), min(cap - 1, bound[len(region) + 1]), others)
            del base.pairing[s], base.pairing[a]
            base.drop_vertex(vid)

    rec(tuple(stubs), root, ())
    webs.sort(key=lambda w: w.canonical_encoding())
    return webs


# ------------------------------------------------------------- recognition

def is_basis_diagram(d: PlanarDiagram, case: CaseTag) -> bool:
    """Case predicate for normal-form diagrams (crossing-free input assumed).

    dim7: no loop and every internal face with at least six sides; an edge
    from a vertex to itself bounds a one-sided face, so the face test
    rejects it too.

    3-dimensional cases: no loop, and d is the left comb of its partition
    (`comb_defect` is None).
    """
    case = CaseTag(case)
    if d.loops:
        return False
    if case is CaseTag.DIM7:
        return all(len(f) >= 6 for f in d.internal_faces())
    return comb_defect(d) is None


def comb_defect(d: PlanarDiagram):
    """None when d, loops aside, is the left comb of its partition, the
    diagram build_normalized makes from its blocks; else an edge to rotate,
    or False.

    One walk checks this.  From each circle position p not yet assigned, in
    ascending order, the chain starts: the boundary point meets either
    another boundary point (a block of two) or a vertex, entered at
    half-edge a.  From a, sigma gives o and sigma again gives b; b must
    reach a boundary point, and the chain goes on out of o, to the next
    vertex (entered there) or to the boundary point that ends it.  Along a
    chain the positions must rise, so the walk meets each block's points in
    order from its smallest.  The diagram is rejected unless every vertex is
    visited exactly once, and unless the blocks nest without crossing: over
    the positions in order, a block's first point opens it on one bracket
    stack, and each later point must belong to the block on top, its last
    point closing it.

    The first vertex, in walk order, whose b leads into another vertex
    gives the edge (b, pairing[b]); any other rejection gives False.  In a
    forest each chain climbs the left spine of a tree rooted at its block's
    last point, so that vertex is the lowest right-heavy one on a spine.
    Rotating v(A, w(B, C)) to u(x(A, B), C) there takes the right weight
    (rewrite._parse_component) of the two vertices from |B| + 2|C| - 2 to
    |B| + |C| - 2, so the tree stage's measure falls at every move.
    """
    pairing, loc, rot = d.pairing, d.loc, d.rot
    ends = [d.boundary_halfedge(ref) for ref in circle_refs(d.n_in, d.n_out)]
    pos_of = {h: p for p, h in enumerate(ends)}
    block_of = [None] * len(ends)
    blocks = []
    visited = set()
    for p in range(len(ends)):
        if block_of[p] is not None:
            continue
        block = [p]
        h = pairing[ends[p]]
        while h not in pos_of:
            _, vid, slot = loc[h]
            if vid in visited:
                return False
            visited.add(vid)
            triple = rot[vid]
            b = triple[(slot + 2) % 3]
            q = pos_of.get(pairing[b])
            if q is None:
                return (b, pairing[b]) if loc[pairing[b]][1] != vid else False
            block.append(q)
            h = pairing[triple[(slot + 1) % 3]]
        block.append(pos_of[h])
        if any(a >= b for a, b in zip(block, block[1:])):
            return False
        for q in block:
            block_of[q] = len(blocks)
        blocks.append(block)
    if len(visited) != len(rot):
        return False
    open_blocks = []
    for p in range(len(ends)):
        b = block_of[p]
        block = blocks[b]
        if p == block[0]:
            open_blocks.append(b)
        elif open_blocks[-1] != b:
            return False
        elif p == block[-1]:
            open_blocks.pop()
    return None
