"""The normalization engine: reduce linear combinations of planar diagrams
(normalize_diagrams) or of tangle words (normalize) to exact combinations
of the case's basis diagrams.

No rule coefficient is transcribed from a picture.  Every local rule is
derived at startup by solving an exact linear system against functor
evaluations, then verified as an identity of tensor maps (solve_exact
re-checks the solution).  Rewriting then applies the rules as half-edge
surgery on planar diagrams, with a strictly decreasing measure asserted
per step.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import CaseTag, CrossAlgebra, per_case
from .basis import BudgetError, basis_diagrams, build_normalized, comb_defect
from .linalg import solve_exact
from .planar import (VERT, PlanarDiagram, PlanarError, circle_refs, find_self_loop,
                     join_ports, open_boundary, planar_to_word, word_to_planar)
from .tangle import Generator, LinComb, TangleWord, parse_word
from .tensor import evaluate


class RewriteError(RuntimeError):
    pass


# crossing-free words one input word may expand into before any rewriting:
# each crossing multiplies them by len(crossing_terms), up to 4.  The
# library's own largest is 3^7 (a kap Brauer word at n = 4).
MAX_CROSSING_TERMS = 1 << 14
# strands one input word may have at any slice boundary (TangleWord.width):
# normalizing costs time linear in them even for an identity (200,000
# strands took ~10 s).  The widest word the test suite normalizes has 60.
MAX_STRANDS = 1 << 10
# rewrite steps one normalize_diagrams call may take: some short words
# re-reduce repeated sub-diagrams for minutes without a memo.  The library's
# largest counts are 2,544 (a dim7 word of the soundness tests) and 2,355
# (brauer_map for kap at n = 4).
MAX_REWRITE_STEPS = 1 << 14


def eval_diagram(d: PlanarDiagram, alg: CrossAlgebra):
    return evaluate(planar_to_word(d), alg)


# ------------------------------------------------------------------ patterns

def _gon_pattern(k):
    """The k-gon with k outward legs as a [k]->[0] diagram (k >= 2).

    The vertex orientation is not guessed: both cyclic orders are tried and
    the one embedding in the disk wins.
    """
    for flip in (False, True):
        d, bnd = open_boundary(k, 0)
        legs = [d.new_halfedge() for _ in range(k)]
        fwd = [d.new_halfedge() for _ in range(k)]   # toward next vertex
        back = [d.new_halfedge() for _ in range(k)]  # toward previous vertex
        for i in range(k):
            triple = (legs[i], fwd[i], back[i]) if not flip else (legs[i], back[i], fwd[i])
            d.add_vertex(triple)
            d.pair(legs[i], bnd[i])
        for i in range(k):
            d.pair(fwd[i], back[(i + 1) % k])
        try:
            d.check_valid()
            return d
        except PlanarError:
            continue
    raise RewriteError(f"could not embed the {k}-gon pattern")


def _stub_positions(pattern, legs):
    """Boundary position of the stub each leg reaches, in leg order.

    `legs` come from the extractor that applies the rule (_face_parts or
    _h_pattern_legs), so derivation and application share one leg order.
    """
    return [pattern.loc[pattern.pairing[leg]][1] for leg in legs]


# ------------------------------------------------------------------ rules

class RuleSet:
    """Derived-and-verified local rewrite rules for one case."""

    def __init__(self, alg: CrossAlgebra):
        self.alg = alg
        self.case = alg.case
        self.circle_value = evaluate(
            parse_word("tangle 0 -> 0 / cup / cap"), alg).scalar_value()
        lolly = evaluate(parse_word("tangle 0 -> 1 / cup / m"), alg)
        if not lolly.is_zero():
            raise RewriteError("lollipop does not vanish; broken algebra tables")
        # the switch over the [2] -> [2] basis, kept as words: the crossing
        # expansion splices their slices into the input word
        switch = evaluate(parse_word("tangle 2 -> 2 / x"), alg)
        self.crossing_terms = [(planar_to_word(p), c) for p, c in _solve_terms(
            alg, basis_diagrams(self.case, 2, 2), switch)]
        self.face_rules = {}
        for k in range(2, 6):     # bigon through pentagon
            self.face_rules[k] = self._derive_face_rule(k)
        self.rotation_terms = self._derive_rotation()

    def _derive_face_rule(self, k):
        """face of size k with k legs -> combination of basis patches."""
        alg = self.alg
        pattern = _gon_pattern(k)
        _, legs = _face_parts(pattern, pattern.internal_faces()[0])
        terms = _solve_terms(alg, basis_diagrams(self.case, k, 0),
                             eval_diagram(pattern, alg))
        return {"order": _stub_positions(pattern, legs), "terms": terms}

    def _derive_rotation(self):
        """Tree rotation: comb (01|23) -> comb (12|30) plus pairing terms,
        or None when the rotated comb t_b is itself a basis diagram (every
        tree is, in dim7), so trees are terminal and there is no tree stage.

        Otherwise the tree t_a and the pairings (01|23) and (03|12) are the
        case's basis [4] -> [0], in that order; only t_b is built.  The leg
        order is read off t_a by the same extraction that applies the rule.
        """
        alg = self.alg
        basis = basis_diagrams(self.case, 4, 0)
        t_b = build_normalized(4, 0, ((1, 2, 3, 0),))
        if t_b.canonical_encoding() in {p.canonical_encoding() for p in basis}:
            return None
        t_a, p1, p2 = basis
        terms = _solve_terms(alg, [t_b, p1, p2], eval_diagram(t_a, alg))
        # sanity: the rotated tree must participate, else cycles cannot shrink
        if not any(p is t_b for p, _ in terms):
            raise RewriteError("rotation rule degenerate")
        a, b = next((h, p) for h, p in t_a.pairing.items()
                    if t_a.loc[h][0] == VERT and t_a.loc[p][0] == VERT)
        return {"order": _stub_positions(t_a, _h_pattern_legs(t_a, a, b)),
                "terms": terms}


def _solve_terms(alg, patches, target):
    """The nonzero terms (patch, coeff) of the exact solution of
    sum coeff * eval_diagram(patch) = target, a TensorMap; solve_exact's
    residual check is the rule's verification."""
    cols = [eval_diagram(p, alg).entries for p in patches]
    return [(p, c) for p, c in zip(patches, solve_exact(cols, target.entries)) if c]


_RULESETS = {}


def rules_for(alg: CrossAlgebra) -> RuleSet:
    return per_case(_RULESETS, alg, RuleSet)


# ------------------------------------------------------------------ surgery

def _substitute(host: PlanarDiagram, verts, legs, patch, order):
    """Replace the pattern (vertices `verts`) by `patch`, a new diagram.

    Leg i of the pattern, legs[i] its pattern-side half-edge, becomes port
    i with two links.  Outward: the host half-edge its edge leads to, or
    the port whose leg that edge reaches.  Inward: the patch half-edge at
    boundary position order[i], or the port the patch wires that position
    to.  The two ends of each join_ports path are paired, and each cycle
    is a free circle.
    """
    d = host.copy()
    for vid in verts:
        d.drop_vertex(vid)
    hmap = {}
    for triple in patch.rot.values():
        new = tuple(d.new_halfedge() for _ in triple)
        hmap.update(zip(triple, new))
        d.add_vertex(new)
    for h, p in patch.pairing.items():
        if h in hmap and p in hmap:
            d.pair(hmap[h], hmap[p])
    # a link is (port, None) or (None, half-edge)
    port_of = {leg: i for i, leg in enumerate(legs)}
    port_at = {pos: i for i, pos in enumerate(order)}
    outward = []
    inward = []
    for leg, pos in zip(legs, order):
        s = host.pairing[leg]
        outward.append((port_of[s], None) if s in port_of else (None, s))
        q = patch.pairing[patch.top[pos]]
        inward.append((None, hmap[q]) if q in hmap else (port_at[patch.loc[q][1]], None))
    pairs, cycles = join_ports(outward, inward)
    for h, p in pairs:
        d.pair(h, p)
    d.loops += cycles
    return d


# all half-edges of a face walk, its vertices, and pattern-side leg halves
def _face_parts(d, face):
    verts = []
    legs = []
    edge_ids = set()
    for h in face:
        p = d.pairing[h]
        where = d.loc[p]
        if where[0] != VERT:
            raise RewriteError("face walk exits the boundary")
        vid = where[1]
        nxt = d.sigma(p)
        leg = d.sigma(nxt)
        verts.append(vid)
        legs.append(leg)
        edge_ids.add(frozenset((h, p)))
    if len(set(verts)) != len(verts) or len(edge_ids) != len(face):
        raise RewriteError("degenerate small face; rule priority violated")
    return verts, legs


# ------------------------------------------------------------------ measure

def measure(d: PlanarDiagram, case):
    faces = d.internal_faces()
    minf = min((len(f) for f in faces), default=0)
    pot = 0
    if not faces and case is not CaseTag.DIM7:
        pot = _tree_potential(d)
    return (d.vertex_count(), minf, pot, d.loops)


def _tree_potential(d):
    total = 0
    for comp_v, comp_b in d.components():
        if not comp_v or not comp_b:
            continue
        parsed = _parse_component(d, comp_v, comp_b)
        if parsed is not None:
            total += parsed[1]
    return total


def _parse_component(d, comp_v, comp_b):
    """Parse a tree component into (block positions, right weight).

    The tree is rooted at the block's last circle position.  Its right
    weight counts, at every vertex, the leaves under the right child beyond
    the first, so it is 0 exactly for left combs.  Returns None if the
    component is not a tree (has a cycle)."""
    refs = circle_refs(d.n_in, d.n_out)
    pos_of = {ref: p for p, ref in enumerate(refs)}
    block = sorted(pos_of[r] for r in comp_b)
    if len(comp_v) != len(block) - 2:
        return None
    # post-order without recursion: a half-edge leads into a subtree, None
    # closes a vertex whose two subtree leaf counts are on `leaves`
    weight = 0
    leaves = []
    seen = set()
    todo = [d.boundary_halfedge(refs[block[-1]])]
    while todo:
        h = todo.pop()
        if h is None:
            right = leaves.pop()
            leaves.append(leaves.pop() + right)
            weight += right - 1
            continue
        p = d.pairing[h]
        where = d.loc[p]
        if where[0] != VERT:
            leaves.append(1)
            continue
        if where[1] in seen:
            return None
        seen.add(where[1])
        right = d.sigma(p)
        todo += (None, right, d.sigma(right))
    return block, weight


# ------------------------------------------------------------------ trace

class RewriteTrace:
    """Step log; asserts the termination measure drops at every step."""

    def __init__(self, case):
        self.case = case
        self.steps = []

    def record(self, rule, location, befmeasure, outcomes):
        for d2, _ in outcomes:
            m2 = measure(d2, self.case)
            if not m2 < befmeasure:
                raise RewriteError(
                    f"measure did not decrease under {rule}: {befmeasure} -> {m2}")
        self.steps.append((rule, location, befmeasure, len(outcomes)))

    def as_rows(self):
        return [{"rule": r, "at": list(loc), "measure": list(m), "terms": n}
                for r, loc, m, n in self.steps]


# ------------------------------------------------------------------ engine

def _word_terms_without_crossings(word: TangleWord, rules: RuleSet):
    """Expand every crossing via the derived switch rule, once the word is
    within MAX_STRANDS and MAX_CROSSING_TERMS.

    One pass over the slices.  A slice keeps id,id where each of its
    crossings was; after it come the fragment slices of its crossings, left
    to right, each padded with identities.  The partial words multiply out,
    one copy per crossing term, as the pass goes, and each crossing-free
    word is built once.  The list comes back reversed: the leftmost
    crossing's term changes slowest, and each crossing's terms run last to
    first."""
    if word.width > MAX_STRANDS:
        raise BudgetError(f"the word has {word.width} strands, over the budget "
                          f"of {MAX_STRANDS}")
    crossings = sum(slice_.count(Generator.CROSS) for slice_ in word.slices)
    terms = len(rules.crossing_terms) ** crossings
    if terms > MAX_CROSSING_TERMS:
        raise BudgetError(f"{crossings} crossings expand into {terms} words, "
                          f"over the budget of {MAX_CROSSING_TERMS}")
    ident = (Generator.ID,)
    partial = [((), Fraction(1))]
    for slice_ in word.slices:
        kept = tuple(h for g in slice_ for h in (ident * 2 if g is Generator.CROSS else (g,)))
        partial = [(w + (kept,), c) for w, c in partial]
        before, width = 0, sum(g.n_out for g in slice_)
        for g in slice_:
            if g is Generator.CROSS:
                left, right = ident * before, ident * (width - before - 2)
                partial = [(w + tuple(left + s + right for s in frag.slices), c * fc)
                           for w, c in partial for frag, fc in rules.crossing_terms]
            before += g.n_out
    return [(TangleWord(word.n_in, word.n_out, w), c) for w, c in reversed(partial)]


def _h_pattern_legs(d, a, b):
    """Leg half-edges of the two-vertex pattern around center edge (a, b)."""
    return [d.sigma(a), d.sigma(d.sigma(a)), d.sigma(b), d.sigma(d.sigma(b))]


def _apply(d, verts, legs, rule):
    return [(_substitute(d, verts, legs, patch, rule["order"]), coeff)
            for patch, coeff in rule["terms"]]


def normalize(words, alg: CrossAlgebra, *, trace: RewriteTrace | None = None,
              memo: dict | None = None):
    """Normalize a word or linear combination of words to basis diagrams.

    Expands every crossing, traces each crossing-free word into a planar
    diagram and hands the diagrams to normalize_diagrams, whose arguments
    and result this call shares.
    """
    rules = rules_for(alg)
    if isinstance(words, TangleWord):
        words = [(words, Fraction(1))]
    inputs = []
    for w, c in words:
        for w2, c2 in _word_terms_without_crossings(w, rules):
            inputs.append((word_to_planar(w2), c * c2))
    return normalize_diagrams(inputs, alg, trace=trace, memo=memo)


def normalize_diagrams(terms, alg: CrossAlgebra, *, trace: RewriteTrace | None = None,
                       memo: dict | None = None):
    """Normalize (PlanarDiagram, coeff) pairs to basis diagrams.

    Returns a LinComb keyed by PlanarDiagram.  Evaluation is preserved
    exactly: the sum of coeff * evaluate(input) equals the sum of
    coeff * evaluate(diagram) over the result.  The input diagrams are not
    changed.

    The engine walks the rewrite tree depth first with an explicit stack, so
    a long chain of steps never recurses.  Without `memo` every diagram
    reached is reduced.  `memo` is a dict owned by the caller and passed by
    keyword: each distinct diagram, keyed by its canonical encoding, is then
    reduced once and its normal form ((basis diagram, coeff), ...) stored,
    and later occurrences, in this call or a later one given the same dict,
    reuse it.  This is exact because a normal form is the diagram's unique
    basis expansion, whatever the rewrite path.  A memo may only be shared
    by calls with the same `alg`, and a `trace` then lists only the
    reductions actually performed.

    Raises BudgetError once the call has taken more than MAX_REWRITE_STEPS
    rewrite steps; a memo's reuses are not steps.
    """
    rules = rules_for(alg)
    budget = MAX_REWRITE_STEPS
    out = LinComb()
    # frame: (memo key, weight, pending outcomes, accumulator), outcomes popped
    # last first.  An unkeyed frame's outcomes carry their coefficient from
    # the root and go into its parent's accumulator.  A keyed frame's carry
    # their coefficient relative to it: it accumulates its own normal form
    # and, once done, stores it and adds it times its weight into its
    # parent's accumulator.
    stack = [(None, None, list(terms), out)]
    while stack:
        key, weight, pending, acc = stack[-1]
        if not pending:
            stack.pop()
            if key is not None:
                memo[key] = form = tuple(acc)
                _add_terms(stack[-1][3], form, weight)
            continue
        d, coeff = pending.pop()
        d_key = None
        if memo is not None:
            d_key = d.canonical_encoding()
            form = memo.get(d_key)
            if form is not None:
                _add_terms(acc, form, coeff)
                continue
        step = _find_step(d, rules)
        if step is None:
            factor = 1
            if d.loops:
                factor = rules.circle_value ** d.loops
                coeff *= factor
                d = d.copy()
                d.loops = 0
            acc.add_term(d, coeff)
            if d_key is not None:
                memo[d_key] = ((d, factor),)
            continue
        budget -= 1
        if budget < 0:
            raise BudgetError(f"normalizing takes more than the budget of "
                              f"{MAX_REWRITE_STEPS} rewrite steps")
        rule_name, location, outcomes = step
        if trace is not None:
            trace.record(rule_name, location, measure(d, alg.case), outcomes)
        if d_key is None:
            stack.append((None, None, [(d2, coeff * c2) for d2, c2 in outcomes], acc))
        else:
            stack.append((d_key, coeff, outcomes, LinComb()))
    return out


def _add_terms(acc, form, coeff):
    for d, c in form:
        acc.add_term(d, coeff * c)


def _find_step(d, rules):
    """(rule name, location, outcomes) of d's next rewrite, or None: a
    lollipop, else the smallest face by (sides, least half-edge), else the
    tree move comb_defect reads off the left-comb walk.

    None means d, loops aside, is a basis diagram (basis.is_basis_diagram),
    so the engine does not test its leaves again.  A case without a tree
    stage (rules.rotation_terms is None: its trees are basis diagrams, as in
    dim7) stops once d has no lollipop and no internal face of five sides or
    fewer; the others once d has no internal face and comb_defect(d) is
    None, which ignores loops."""
    # lollipops kill the whole term
    v = find_self_loop(d)
    if v is not None:
        return ("lollipop", (v,), [])
    f = min(d.internal_faces(), key=lambda g: (len(g), min(g)), default=None)
    if f is not None and len(f) <= 5:
        verts, legs = _face_parts(d, f)
        return (f"face{len(f)}", tuple(f),
                _apply(d, verts, legs, rules.face_rules[len(f)]))
    if rules.rotation_terms is None:
        return None   # faces of six or more sides are terminal, and so are trees
    if f is not None:
        # rotate an edge of the smallest face to shrink it
        a, b = d.pairing[f[0]], f[0]
        if d.loc[a][1] == d.loc[b][1]:
            raise RewriteError("face edge is a self-loop; priority violated")
        rule_name = f"rotate-face{len(f)}"
    else:
        move = comb_defect(d)
        if move is None:
            return None
        if move is False:
            raise RewriteError("a forest that is neither left combs nor rotatable")
        a, b = move
        rule_name = "rotate-tree"
    return (rule_name, (a, b), _apply(d, [d.loc[a][1], d.loc[b][1]],
                                      _h_pattern_legs(d, a, b), rules.rotation_terms))
