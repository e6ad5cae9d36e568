"""Planar diagrams as rotation systems on the disk.

A diagram has boundary points 1..n on the top line and 1'..m' on the bottom,
trivalent internal vertices each carrying a cyclic (counterclockwise) triple
of half-edges, an edge pairing on half-edges, and a counter of free circles.
The circle order of boundary points is 1,...,n,m',...,1'.

Crossings are not representable here; words lose their crossings (via the
derived switch rules) before arriving.
"""

from __future__ import annotations

from .tangle import Generator, TangleWord


class PlanarError(ValueError):
    pass


TOP = "t"
BOT = "b"
VERT = "v"


def circle_refs(n, m):
    """Boundary references in circle order 1..n, m'..1'."""
    return [(TOP, i) for i in range(n)] + [(BOT, j) for j in range(m - 1, -1, -1)]


def find_self_loop(d):
    """A vertex with an edge from itself to itself, or None."""
    for h, p in d.pairing.items():
        lh, lp = d.loc[h], d.loc[p]
        if lh[0] == VERT and lp[0] == VERT and lh[1] == lp[1]:
            return lh[1]
    return None


class PlanarDiagram:
    """Mutable while being built or rewritten; treated as immutable once it
    participates in a LinComb (hash and equality go through the canonical
    encoding, which is cached)."""

    __slots__ = ("n_in", "n_out", "rot", "pairing", "top", "bot", "loops",
                 "loc", "_next_h", "_next_v", "_enc")

    def __init__(self, n_in, n_out):
        self.n_in = n_in
        self.n_out = n_out
        self.rot = {}        # vertex id -> (h, h, h) counterclockwise
        self.pairing = {}    # half-edge -> half-edge
        self.top = [None] * n_in
        self.bot = [None] * n_out
        self.loops = 0
        self.loc = {}        # half-edge -> (VERT, vid, slot) | (TOP, i) | (BOT, j)
        self._next_h = 0
        self._next_v = 0
        self._enc = None

    # -------------------------------------------------- construction

    def new_halfedge(self):
        h = self._next_h
        self._next_h += 1
        return h

    def add_vertex(self, triple):
        vid = self._next_v
        self._next_v += 1
        self.rot[vid] = tuple(triple)
        for slot, h in enumerate(triple):
            self.loc[h] = (VERT, vid, slot)
        self._enc = None
        return vid

    def drop_vertex(self, vid):
        for h in self.rot[vid]:
            self.loc.pop(h, None)
            self.pairing.pop(h, None)
        del self.rot[vid]
        self._enc = None

    def set_top(self, i, h):
        self.top[i] = h
        self.loc[h] = (TOP, i)

    def set_bot(self, j, h):
        self.bot[j] = h
        self.loc[h] = (BOT, j)

    def pair(self, h1, h2):
        self.pairing[h1] = h2
        self.pairing[h2] = h1
        self._enc = None

    def copy(self):
        d = PlanarDiagram(self.n_in, self.n_out)
        d.rot = dict(self.rot)
        d.pairing = dict(self.pairing)
        d.top = list(self.top)
        d.bot = list(self.bot)
        d.loops = self.loops
        d.loc = dict(self.loc)
        d._next_h = self._next_h
        d._next_v = self._next_v
        return d

    # -------------------------------------------------- basic queries

    def vertex_count(self):
        return len(self.rot)

    def edge_count(self):
        return len(self.pairing) // 2

    def sigma(self, h):
        """Next half-edge counterclockwise around the vertex of h."""
        _, vid, slot = self.loc[h]
        triple = self.rot[vid]
        return triple[(slot + 1) % 3]

    def boundary_halfedge(self, ref):
        kind, idx = ref
        return self.top[idx] if kind == TOP else self.bot[idx]

    def face_walk(self, h):
        """(half-edges, closed): the walk from h that leaves each half-edge
        by its pair and turns (sigma) at the vertex it reaches.  It is
        closed when it returns to h, and stops open at the boundary or at an
        unpaired half-edge, a stub of a diagram still being built; an open
        walk's list ends with the half-edge it stopped at."""
        pairing, loc, rot = self.pairing, self.loc, self.rot
        walk = [h]
        cur = h
        while True:
            p = pairing.get(cur)
            if p is None:
                return walk, False
            where = loc[p]
            if where[0] != VERT:
                return walk, False
            cur = rot[where[1]][(where[2] + 1) % 3]
            if cur == h:
                return walk, True
            walk.append(cur)

    def internal_faces(self):
        """Internal faces as tuples of half-edges (closed face walks)."""
        faces = []
        seen = set()
        loc = self.loc
        for h0 in self.pairing:
            if h0 in seen or loc[h0][0] != VERT:
                continue
            walk, closed = self.face_walk(h0)
            seen.update(walk)
            if closed:
                faces.append(tuple(walk))
        return faces

    def components(self):
        """Connected components as (frozen vertex set, frozen boundary ref set)."""
        comps = []
        seen_h = set()
        for ref in circle_refs(self.n_in, self.n_out):
            h0 = self.boundary_halfedge(ref)
            if h0 in seen_h:
                continue
            comp_v, comp_b = set(), set()
            stack = [h0]
            while stack:
                h = stack.pop()
                if h in seen_h:
                    continue
                seen_h.add(h)
                where = self.loc[h]
                if where[0] == VERT:
                    vid = where[1]
                    if vid not in comp_v:
                        comp_v.add(vid)
                        stack.extend(self.rot[vid])
                else:
                    comp_b.add(where[:2])
                stack.append(self.pairing[h])
            comps.append((frozenset(comp_v), frozenset(comp_b)))
        reached = set().union(*(cv for cv, _ in comps))
        comps.extend((frozenset(cv), frozenset())
                     for cv in self._closed_components(reached))
        return comps

    def _closed_components(self, reached):
        """Vertex sets of the closed components, which hold the vertices
        outside `reached` (those of the boundary components); each is
        searched from its smallest vertex, in increasing order of it."""
        left = set(self.rot) - reached
        while left:
            comp_v = set()
            stack = [min(left)]
            while stack:
                v = stack.pop()
                if v in comp_v:
                    continue
                comp_v.add(v)
                for h in self.rot[v]:
                    w = self.loc[self.pairing[h]]
                    if w[0] == VERT:
                        stack.append(w[1])
            yield comp_v
            left -= comp_v

    # -------------------------------------------------- validity

    def check_valid(self):
        """Structural and planarity invariants; raises PlanarError."""
        for h, p in self.pairing.items():
            if self.pairing.get(p) != h or p == h:
                raise PlanarError("pairing is not a fixed-point-free involution")
            if h not in self.loc:
                raise PlanarError(f"half-edge {h} has no location")
        for i, h in enumerate(self.top):
            if h is None or self.loc.get(h) != (TOP, i):
                raise PlanarError(f"top boundary {i} inconsistent")
            if h not in self.pairing:
                raise PlanarError(f"top boundary {i} is unpaired")
        for j, h in enumerate(self.bot):
            if h is None or self.loc.get(h) != (BOT, j):
                raise PlanarError(f"bottom boundary {j} inconsistent")
            if h not in self.pairing:
                raise PlanarError(f"bottom boundary {j} is unpaired")
        for vid, triple in self.rot.items():
            if len(triple) != 3 or len(set(triple)) != 3:
                raise PlanarError(f"vertex {vid} is not trivalent")
            for slot, h in enumerate(triple):
                if self.loc.get(h) != (VERT, vid, slot):
                    raise PlanarError(f"vertex {vid} slot {slot} inconsistent")
                if h not in self.pairing:
                    raise PlanarError(f"vertex {vid} slot {slot} is unpaired")
        self._check_genus()
        return True

    def _check_genus(self):
        """Euler count of the boundary closure: the map must embed in the disk
        with the declared circle order.

        A hub vertex with one arc to each boundary point, in circle order,
        closes the diagram up.  Each component of the closed-up map is a
        closed orientable surface, with V - E + F = 2 - 2g <= 2, so the
        count over the whole map reaches 2c, for its c components, exactly
        when every component is a sphere."""
        sigma = {}
        for a, b, c in self.rot.values():
            sigma[a], sigma[b], sigma[c] = b, c, a
        pairing = dict(self.pairing)
        refs = circle_refs(self.n_in, self.n_out)
        k = len(refs)
        hub = []
        nxt = self._next_h
        for ref in refs:
            b = self.boundary_halfedge(ref)
            arc_b, arc_hub = nxt, nxt + 1
            nxt += 2
            pairing[arc_b] = arc_hub
            pairing[arc_hub] = arc_b
            sigma[b] = arc_b
            sigma[arc_b] = b
            hub.append(arc_hub)
        for idx in range(k):
            sigma[hub[idx]] = hub[(idx + 1) % k]

        # V - E, V the trivalent vertices, the hub and one per boundary point
        euler = len(self.rot) + (k + 1 if k else 0) - len(pairing) // 2
        comps = 0
        seen = set()
        for h0 in pairing:
            if h0 in seen:
                continue
            comps += 1
            stack = [h0]
            while stack:       # each vertex whole: its half-edges' sigma orbit
                cur = stack.pop()
                while cur not in seen:
                    seen.add(cur)
                    stack.append(pairing[cur])
                    cur = sigma[cur]
        seen = set()
        for h0 in pairing:
            if h0 in seen:
                continue
            euler += 1       # one face
            cur = h0
            while True:
                seen.add(cur)
                cur = sigma[pairing[cur]]
                if cur == h0:
                    break
        if euler != 2 * comps:
            raise PlanarError(f"not a disk embedding (Euler characteristic {euler} "
                              f"over {comps} components)")

    # -------------------------------------------------- canonical encoding

    def canonical_encoding(self):
        """Deterministic serialization; equal iff the diagrams are equivalent.

        Components attached to the boundary are walked breadth-first from
        their smallest circle position; closed components minimize over all
        starting half-edges.  Re-entry into a known vertex records the slot
        relative to the first entry, so the stored rotation phase is
        irrelevant.
        """
        if self._enc is not None:
            return self._enc

        pairing, loc, rot = self.pairing, self.loc, self.rot

        def encode_from(h0):
            """Encode the component of h0 breadth first; also returns its
            vertices and the boundary points the walk reached."""
            out = []
            entry_slot = {}
            names = {}
            refs = {loc[h0][:2]}
            queue = [h0]
            for h in queue:          # the walk appends to the list it reads
                where = loc[pairing[h]]
                if where[0] != VERT:
                    refs.add(where[:2])
                    out.append(f"{where[0]}{where[1]}")
                    continue
                _, vid, slot = where
                if vid in names:
                    rel = (slot - entry_slot[vid]) % 3
                    out.append(f"V{names[vid]}.{rel}")
                    continue
                names[vid] = len(names)
                entry_slot[vid] = slot
                out.append(f"N{names[vid]}")
                triple = rot[vid]
                queue.append(triple[(slot + 1) % 3])
                queue.append(triple[(slot + 2) % 3])
            return ",".join(out), names, refs

        chunks = []
        covered_refs = set()
        covered_verts = set()
        for ref in circle_refs(self.n_in, self.n_out):
            if ref in covered_refs:
                continue
            enc, verts, refs = encode_from(self.boundary_halfedge(ref))
            covered_verts.update(verts)
            covered_refs |= refs
            chunks.append(f"{ref[0]}{ref[1]}:{enc}")

        closed_chunks = [f"c:{min(encode_from(h)[0] for v in comp_v for h in rot[v])}"
                         for comp_v in self._closed_components(covered_verts)]
        chunks.extend(sorted(closed_chunks))
        enc = (f"{self.n_in}>{self.n_out}|o{self.loops}|" + ";".join(chunks)).encode()
        self._enc = enc
        return enc

    def __eq__(self, other):
        return (isinstance(other, PlanarDiagram)
                and self.canonical_encoding() == other.canonical_encoding())

    def __hash__(self):
        return hash(self.canonical_encoding())

    def __repr__(self):
        return (f"PlanarDiagram({self.n_in}->{self.n_out}, V={self.vertex_count()}, "
                f"E={self.edge_count()}, loops={self.loops})")

    def to_json_obj(self):
        hnames = {}

        def name(h):
            if h not in hnames:
                hnames[h] = len(hnames)
            return hnames[h]

        return {
            "boundary_top": self.n_in,
            "boundary_bottom": self.n_out,
            "top": [name(h) for h in self.top],
            "bot": [name(h) for h in self.bot],
            "vertices": [{"rot": [name(h) for h in self.rot[v]]} for v in sorted(self.rot)],
            "edges": sorted(sorted((name(h), name(p))) for h, p in self.pairing.items() if h < p),
            "loops": self.loops,
        }


def open_boundary(n, m):
    """A PlanarDiagram(n, m) with one unpaired half-edge at each boundary
    point; returns the diagram and those half-edges in circle order."""
    d = PlanarDiagram(n, m)
    stubs = []
    for kind, i in circle_refs(n, m):
        h = d.new_halfedge()
        if kind == TOP:
            d.set_top(i, h)
        else:
            d.set_bot(i, h)
        stubs.append(h)
    return d, stubs


def join_ports(outward, inward):
    """Join strands through ports: returns (pairs, cycles), the two ends of
    each path and the number of cycles.

    Port i has two links, outward[i] and inward[i], each (port, None) for a
    link to another port or (None, end) for an end outside the ports.  A
    walk leaves a port by one link and enters the next port, which it
    leaves by the other kind of link.  With two links on every port, the
    walks form paths between two ends and cycles of ports.
    """
    done = set()
    pairs = []
    cycles = 0
    for start in range(len(outward)):
        if start in done:
            continue
        ends = []
        for first in (outward, inward):
            i, links = start, first
            while True:
                done.add(i)
                i, h = links[i]
                if i is None:
                    ends.append(h)
                    break
                if i == start:
                    break
                links = inward if links is outward else outward
        if ends:
            pairs.append(tuple(ends))
        else:
            cycles += 1
    return pairs, cycles


def compose_planar(d1: PlanarDiagram, d2: PlanarDiagram) -> PlanarDiagram:
    """d1 after d2: d2 on top, its bottom glued to d1's top (the order of
    tangle.compose_tangles).

    Both rotation systems are copied, d2's half-edges and vertices
    renumbered past d1's.  Seam point j is a port (join_ports) linked up to
    what d2 pairs its bottom point j with and down to what d1 pairs its
    top point j with; a link that reaches another seam point is a cup of
    d2 or a cap of d1.  Each path pairs two half-edges and each cycle is a
    free circle.  The result needs no check_valid: two disks glued
    along one boundary arc make a disk, with the circle order 1..n of d2's
    top and m'..1' of d1's bottom, and the walk pairs every half-edge left
    at the seam exactly once.
    """
    if d2.n_out != d1.n_in:
        raise PlanarError(f"cannot compose: {d2.n_out} outputs into {d1.n_in} inputs")
    dh, dv = d1._next_h, d1._next_v
    d = PlanarDiagram(d2.n_in, d1.n_out)
    d.rot = dict(d1.rot)
    d.rot.update((v + dv, tuple(h + dh for h in t)) for v, t in d2.rot.items())
    d.loc = {h: w for h, w in d1.loc.items() if w[0] != TOP}
    for h, w in d2.loc.items():
        if w[0] == VERT:
            d.loc[h + dh] = (VERT, w[1] + dv, w[2])
        elif w[0] == TOP:
            d.loc[h + dh] = w
    d.pairing = {h: p for h, p in d1.pairing.items()
                 if d1.loc[h][0] != TOP and d1.loc[p][0] != TOP}
    d.pairing.update((h + dh, p + dh) for h, p in d2.pairing.items()
                     if d2.loc[h][0] != BOT and d2.loc[p][0] != BOT)
    d.top = [h + dh for h in d2.top]
    d.bot = list(d1.bot)
    d._next_h = dh + d2._next_h
    d._next_v = dv + d2._next_v
    up, down = [], []
    for j in range(d1.n_in):
        s = d2.pairing[d2.bot[j]]
        w = d2.loc[s]
        up.append((w[1], None) if w[0] == BOT else (None, s + dh))
        q = d1.pairing[d1.top[j]]
        w = d1.loc[q]
        down.append((w[1], None) if w[0] == TOP else (None, q))
    pairs, cycles = join_ports(up, down)
    for h, p in pairs:
        d.pair(h, p)
    d.loops = d1.loops + d2.loops + cycles
    return d


# ------------------------------------------------------------------ words

def word_to_planar(word: TangleWord) -> PlanarDiagram:
    """Trace a crossing-free word into a planar diagram."""
    d = PlanarDiagram(word.n_in, word.n_out)
    open_ends = []
    for i in range(word.n_in):
        t = d.new_halfedge()
        e = d.new_halfedge()
        d.set_top(i, t)
        d.pair(t, e)
        open_ends.append(e)

    for slice_ in word.slices:
        pos = 0
        new_open = []
        for gen in slice_:
            if gen is Generator.ID:
                new_open.append(open_ends[pos])
                pos += 1
            elif gen is Generator.CAP:
                a, b = open_ends[pos], open_ends[pos + 1]
                pa, pb = d.pairing[a], d.pairing[b]
                del d.pairing[a], d.pairing[b]
                if pa == b:
                    d.loops += 1
                else:
                    d.pair(pa, pb)
                pos += 2
            elif gen is Generator.CUP:
                a = d.new_halfedge()
                b = d.new_halfedge()
                d.pair(a, b)
                new_open.extend([a, b])
            elif gen is Generator.MULT:
                a, b = open_ends[pos], open_ends[pos + 1]
                out0, out1 = d.new_halfedge(), d.new_halfedge()
                d.add_vertex((a, out0, b))   # ccw (in_left, out, in_right)
                d.pair(out0, out1)
                new_open.append(out1)
                pos += 2
            elif gen is Generator.COMULT:
                a = open_ends[pos]
                l0, l1 = d.new_halfedge(), d.new_halfedge()
                r0, r1 = d.new_halfedge(), d.new_halfedge()
                d.add_vertex((a, l0, r0))    # ccw (in, out_left, out_right)
                d.pair(l0, l1)
                d.pair(r0, r1)
                new_open.extend([l1, r1])
                pos += 1
            else:     # Generator.CROSS
                raise PlanarError("crossings cannot be drawn; eliminate them first")
        open_ends = new_open

    for j, e in enumerate(open_ends):
        d.set_bot(j, e)
    d.check_valid()
    return d


def planar_to_word(diag: PlanarDiagram) -> TangleWord:
    """Extract a slice word evaluating to the same morphism.

    Greedy frontier sweep: cap adjacent returning strands, merge adjacent
    strands meeting at a vertex, otherwise expand through a vertex; when
    none applies, open the next component that meets no top point with a
    cup.  Such a component can only be entered through its own cup, so
    they are listed once, in `components()` order, and each is opened at
    most once.  The sweep ends on any input: each step uses up a pending
    vertex (merge, expand), two strands (cap) or one listed component
    (cup), and only expansions (+1 strand) and cups (+2) add strands.  The
    result is verified by re-tracing, so a convention slip fails loudly
    instead of silently changing values.
    """
    d = diag
    n, m = d.n_in, d.n_out
    frontier = [d.top[i] for i in range(n)]   # consumed-side half-edges
    slices = []
    for _ in range(d.loops):
        # free circles become literal cup/cap pairs
        slices.append([Generator.CUP] + [Generator.ID] * n)
        slices.append([Generator.CAP] + [Generator.ID] * n)
    pending = set(d.rot)
    unreached = (comp for comp in d.components()
                 if not any(r[0] == TOP for r in comp[1]))

    def far(h):
        return d.pairing[h]

    def vertex_at(h):
        w = d.loc[h]
        return w[1] if w[0] == VERT else None

    def above(h):
        w = d.loc[h]
        return w[0] == TOP or (w[0] == VERT and w[1] not in pending)

    def cap():
        """Cap two adjacent strands, the sides of one edge bending back up."""
        for i in range(len(frontier) - 1):
            if (far(frontier[i]) == frontier[i + 1]
                    and above(frontier[i]) and above(frontier[i + 1])):
                slices.append([Generator.ID] * i + [Generator.CAP]
                              + [Generator.ID] * (len(frontier) - i - 2))
                del frontier[i:i + 2]
                return True
        return False

    def merge():
        """Merge two adjacent strands at a shared vertex (rotation-compatible)."""
        for i in range(len(frontier) - 1):
            a, b = far(frontier[i]), far(frontier[i + 1])
            va, vb = vertex_at(a), vertex_at(b)
            if va is not None and va == vb and va in pending and d.sigma(d.sigma(a)) == b:
                slices.append([Generator.ID] * i + [Generator.MULT]
                              + [Generator.ID] * (len(frontier) - i - 2))
                pending.discard(va)
                frontier[i:i + 2] = [d.sigma(a)]
                return True
        return False

    def expand():
        """Expand the leftmost strand ending at a pending vertex; merging is
        only an optimization, a comult plus a later cap is always sound."""
        for i, h in enumerate(frontier):
            v = vertex_at(far(h))
            if v is not None and v in pending:
                a = far(h)
                slices.append([Generator.ID] * i + [Generator.COMULT]
                              + [Generator.ID] * (len(frontier) - i - 1))
                pending.discard(v)
                frontier[i:i + 1] = [d.sigma(a), d.sigma(d.sigma(a))]
                return True
        return False

    while True:
        if cap() or merge() or expand():
            continue
        if (not pending and len(frontier) == m
                and all(d.loc[far(h)][0] == BOT for h in frontier)):
            break
        comp = next(unreached, None)     # stuck: open the next component
        if comp is None:
            raise PlanarError("slicing is stuck; invalid diagram?")
        _open_component(d, frontier, comp, slices)

    order = [d.loc[far(h)] for h in frontier]
    if order != [(BOT, j) for j in range(m)]:
        raise PlanarError(f"bottom strands out of order: {order}")
    word = TangleWord(n, m, slices)
    redone = word_to_planar(word)
    if redone.canonical_encoding() != diag.canonical_encoding():
        raise PlanarError("slicing round-trip mismatch")
    return word


def _open_component(d, frontier, comp, slices):
    """Insert a cup opening `comp`, a component that meets no top point.

    Called when the sweep is stuck, i.e. every current strand runs to the
    bottom boundary; the cup enters at the component's leftmost bottom
    point, or at its smallest vertex if it is closed, and is inserted so
    that bottom indices keep increasing.
    """
    comp_v, comp_b = comp
    insert_at = len(frontier)
    if comp_b:
        jmin = min(r[1] for r in comp_b)
        seed_b = d.bot[jmin]
        a, b = d.pairing[seed_b], seed_b
        for i, h in enumerate(frontier):
            w = d.loc[d.pairing[h]]
            if w[0] == BOT and w[1] > jmin:
                insert_at = i
                break
    else:
        h = d.rot[min(comp_v)][0]
        a, b = h, d.pairing[h]
    slices.append([Generator.ID] * insert_at + [Generator.CUP]
                  + [Generator.ID] * (len(frontier) - insert_at))
    frontier[insert_at:insert_at] = [a, b]
