import hashlib
import sys
from fractions import Fraction

import pytest

from tangleweb import rewrite
from tangleweb.algebra import CaseTag
from tangleweb.basis import (BudgetError, basis_diagrams, build_normalized, comb_defect,
                             is_basis_diagram)
from tangleweb.linalg import solve_exact
from tangleweb.planar import VERT, circle_refs, compose_planar, planar_to_word, word_to_planar
from tangleweb.rewrite import (RewriteTrace, eval_diagram, measure, normalize,
                               normalize_diagrams, rules_for)
from tangleweb.tangle import TangleWord, parse_word
from tangleweb.tensor import evaluate, switch_map, zero_map

from conftest import random_word, seeded


def recombine(out, alg, n_in, n_out):
    acc = zero_map(alg, n_in, n_out)
    for d, c in out:
        acc = acc.add(eval_diagram(d, alg).scale(c))
    return acc


def test_circle_values(dim3, dim7, kap):
    for alg, want in ((dim3, 3), (dim7, 7), (kap, -1)):
        assert rules_for(alg).circle_value == want
        out = normalize(parse_word("tangle 0 -> 0 / cup / cap"), alg)
        (d, c), = list(out)
        assert c == want and d.vertex_count() == 0 and d.loops == 0


def test_lollipop_dies(all_algebras):
    for alg in all_algebras:
        out = normalize(parse_word("tangle 0 -> 1 / cup / m"), alg)
        assert len(out) == 0


def test_bubble_values(dim3, dim7, kap):
    # the bubble on a strand leaves a bare strand; in the closed theta the
    # bigon's two legs meet outside, so its one face2 step closes a circle
    for text, wants in (("tangle 1 -> 1 / w / m", (-2, -6, 1)),
                        ("tangle 0 -> 0 / cup / w,id / m,id / cap", (-6, -42, -1))):
        for alg, want in zip((dim3, dim7, kap), wants):
            trace = RewriteTrace(alg.case)
            out = normalize(parse_word(text), alg, trace=trace)
            (d, c), = list(out)
            assert c == want
            assert d.vertex_count() == 0 and d.loops == 0
            assert [r["rule"] for r in trace.as_rows()] == ["face2"]


def test_triangle_values(dim3, dim7):
    tri = parse_word("tangle 3 -> 0 / id,w,id / m,m / cap")
    for alg, want in ((dim3, -1), (dim7, 3)):
        out = normalize(tri, alg)
        (d, c), = list(out)
        assert c == want
        assert d.vertex_count() == 1       # the tripod


def test_crossing_rule_solves_switch(all_algebras):
    for alg in all_algebras:
        terms = rules_for(alg).crossing_terms
        acc = zero_map(alg, 2, 2)
        for w, c in terms:
            acc = acc.add(evaluate(w, alg).scale(c))
        assert acc == switch_map(alg)


def test_crossing_rule_known_forms(dim3, dim7, kap):
    def coeffs(alg):
        return {w.format(): c for w, c in rules_for(alg).crossing_terms}

    c3 = coeffs(dim3)
    assert c3 == {"tangle 2 -> 2": 1, "tangle 2 -> 2 / m / w": 1}
    c7 = coeffs(dim7)
    assert set(c7.values()) == {Fraction(1, 2)} and len(c7) == 4
    ck = coeffs(kap)
    assert ck["tangle 2 -> 2 / m / w"] == 2
    assert ck["tangle 2 -> 2 / cap / cup"] == -2
    assert ck["tangle 2 -> 2"] == -1


def test_crossing_terms_match_four_word_solve(all_algebras):
    # the switch solved against the [2] -> [2] basis gives the same diagrams
    # with the same coefficients as solved against these four words, which
    # are dependent in the 3-dimensional cases (solve_exact then sets the
    # free column to 0)
    texts = ["tangle 2 -> 2", "tangle 2 -> 2 / cap / cup",
             "tangle 2 -> 2 / m / w", "tangle 2 -> 2 / id,w / m,id"]
    words = [parse_word(t) for t in texts]
    for alg in all_algebras:
        switch = evaluate(parse_word("tangle 2 -> 2 / x"), alg)
        coeffs = solve_exact([evaluate(w, alg).entries for w in words], switch.entries)
        want = {word_to_planar(w).canonical_encoding(): c
                for w, c in zip(words, coeffs) if c}
        got = {word_to_planar(w).canonical_encoding(): c
               for w, c in rules_for(alg).crossing_terms}
        assert got == want, alg.case


def test_tree_stage_read_off_the_basis(all_algebras):
    # no tree stage exactly when the rotated comb is a basis diagram, as
    # every tree is in dim7 and in no 3-dimensional case
    rotated = build_normalized(4, 0, ((1, 2, 3, 0),)).canonical_encoding()
    for alg in all_algebras:
        basis = {d.canonical_encoding() for d in basis_diagrams(alg.case, 4, 0)}
        no_stage = rules_for(alg).rotation_terms is None
        assert no_stage == (rotated in basis), alg.case
        assert no_stage == (alg.case is CaseTag.DIM7), alg.case


def _rule_text(rules):
    """Every derived rule of a case as text: each term's word or canonical
    encoding with its coefficient, and each rule's leg order."""
    lines = [f"circle {rules.circle_value}"]
    lines += [f"crossing {w.format()} {c}" for w, c in rules.crossing_terms]
    for k, rule in sorted(rules.face_rules.items()):
        lines.append(f"face {k} {rule['order']}")
        lines += [f"  {p.canonical_encoding().decode()} {c}" for p, c in rule["terms"]]
    if rules.rotation_terms is not None:
        lines.append(f"rotation {rules.rotation_terms['order']}")
        lines += [f"  {p.canonical_encoding().decode()} {c}"
                  for p, c in rules.rotation_terms["terms"]]
    return "\n".join(lines)


@pytest.mark.parametrize("case,digest", [
    ("dim3", "e63a520602c7a09dd0a293aef99125825db4c6c73e5723a5bd651820e697815b"),
    ("dim7", "d02a6897304d45dad992cada947b4e33427b12e5281164c4c10621262f4505de"),
    ("kap", "d8be42659dd6a19309b5fc415bc4de49427d9e631f1f224df1987adb0a9a532f"),
])
def test_derived_rules_pinned(all_algebras, case, digest):
    # crossing terms, face rules k = 2..5 and the rotation of each case,
    # pinned to the solutions read off rref of the full augmented systems
    alg = next(a for a in all_algebras if a.case.value == case)
    text = _rule_text(rules_for(alg))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_square_rule_shape(dim7):
    rule = rules_for(dim7).face_rules[4]
    by_shape = {}
    for patch, c in rule["terms"]:
        by_shape.setdefault(patch.vertex_count(), []).append(c)
    assert sorted(by_shape[0]) == [3, 3]       # the two pairings
    assert sorted(by_shape[2]) == [-2, -2]     # the two trees


def test_pentagon_rule_shape(dim7):
    rule = rules_for(dim7).face_rules[5]
    by_shape = {}
    for patch, c in rule["terms"]:
        by_shape.setdefault(patch.vertex_count(), []).append(c)
    # the five 5-leg trees enter positively, the five tripod-plus-cap
    # patches negatively
    assert sorted(by_shape[3]) == [1] * 5
    assert sorted(by_shape[1]) == [-1] * 5


def test_square_pentagon_identities_as_maps(dim7):
    from tangleweb.rewrite import _gon_pattern
    for k in (4, 5):
        rule = rules_for(dim7).face_rules[k]
        pattern = _gon_pattern(k)
        lhs = eval_diagram(pattern, dim7).entries
        rhs = {}
        for patch, c in rule["terms"]:
            for key, v in eval_diagram(patch, dim7).entries.items():
                w = rhs.get(key, Fraction(0)) + c * v
                if w:
                    rhs[key] = w
                elif key in rhs:
                    del rhs[key]
        assert lhs == rhs


def test_normalize_soundness_examples(all_algebras):
    texts = [
        "tangle 2 -> 2 / x",
        "tangle 2 -> 2 / x / x",
        "tangle 3 -> 3 / x,id / id,x / x,id",
        "tangle 2 -> 2 / id,w / m,id",
        "tangle 0 -> 0 / cup / w,w / id,x,id / m,m / cap",
        "tangle 4 -> 4 / x,x / id,x,id / w,id,id,w / m,x,m / id,x,id",
    ]
    for alg in all_algebras:
        for txt in texts:
            w = parse_word(txt)
            out = normalize(w, alg)
            assert recombine(out, alg, w.n_in, w.n_out) == evaluate(w, alg), (alg.case, txt)
            for d, _ in out:
                assert is_basis_diagram(d, alg.case)


def test_normalize_random_soundness(all_algebras):
    rng = seeded(41)
    for alg in all_algebras:
        n_words = 25
        for _ in range(n_words):
            w = random_word(rng, max_slices=6, max_strands=4, p_cross=0.25)
            out = normalize(w, alg)
            assert recombine(out, alg, w.n_in, w.n_out) == evaluate(w, alg)


def test_confluence_across_a_split(all_algebras):
    # a word's normal form is also the normal form of the products of its
    # two halves' normal forms, split at a random slice boundary: another
    # rewrite order reaches the same unique basis expansion
    rng = seeded(42)
    reordered = 0
    for alg in all_algebras:
        for _ in range(100):
            w = random_word(rng, max_slices=5, max_strands=4, p_cross=0.3)
            cut = rng.randint(0, len(w.slices))
            upper = TangleWord(w.n_in, _width_after(w, cut), w.slices[:cut])
            lower = TangleWord(upper.n_out, w.n_out, w.slices[cut:])
            whole_trace, split_trace = RewriteTrace(alg.case), RewriteTrace(alg.case)
            want = normalize(w, alg, trace=whole_trace)
            products = [(compose_planar(dl, du), cu * cl)
                        for du, cu in normalize(upper, alg, trace=split_trace)
                        for dl, cl in normalize(lower, alg, trace=split_trace)]
            got = normalize_diagrams(products, alg, trace=split_trace)
            assert got == want, (alg.case, w.format(), cut)
            reordered += len(whole_trace.steps) != len(split_trace.steps)
    assert reordered > 0


def _width_after(w, cut):
    """Strands at the slice boundary below the first `cut` slices of w."""
    return sum(g.n_out for g in w.slices[cut - 1]) if cut else w.n_in


def test_idempotence_on_basis(dim3, dim7, kap):
    from tangleweb.basis import enumerate_catalan, enumerate_webs
    for alg in (dim3, kap):
        for t in enumerate_catalan(2, 2):
            out = normalize(planar_to_word(t.diagram), alg)
            assert out.terms == {t.diagram: 1}
    for web in enumerate_webs(2, 2):
        out = normalize(planar_to_word(web), dim7)
        assert out.terms == {web: 1}


def test_trace_measures_decrease(dim7):
    w = parse_word("tangle 3 -> 3 / x,id / id,x / x,id")
    tr = RewriteTrace(CaseTag.DIM7)
    normalize(w, dim7, trace=tr)
    assert tr.steps
    rows = tr.as_rows()
    assert all(set(r) == {"rule", "at", "measure", "terms"} for r in rows)


def test_normalize_accepts_lincomb(dim3):
    from tangleweb.tangle import LinComb
    w1 = parse_word("tangle 2 -> 2 / x")
    w2 = parse_word("tangle 2 -> 2")
    lc = LinComb({w1: Fraction(1), w2: Fraction(-1)})
    out = normalize(lc, dim3)
    want = evaluate(w1, dim3).sub(evaluate(w2, dim3))
    assert recombine(out, dim3, 2, 2) == want


def test_tripod_pair_determinant_identity(dim3):
    # b(x1 x x2, x3) b(y1 x y2, y3) equals det(b(x_i, y_j)): evaluate the
    # disjoint union of two tripods against the determinant map built by hand
    from itertools import permutations, product
    from tangleweb.tangle import disjoint_union
    from tangleweb.tensor import TensorMap
    tripod = parse_word("tangle 3 -> 0 / m,id / cap")
    got = evaluate(disjoint_union(tripod, tripod), dim3)
    entries = {}
    for idx in product(range(3), repeat=6):
        x, y = idx[:3], idx[3:]
        det = Fraction(0)
        for perm in permutations(range(3)):
            sign = (-1) ** sum(1 for a in range(3) for b in range(a + 1, 3)
                               if perm[a] > perm[b])
            term = Fraction(sign)
            for a in range(3):
                term *= dim3.b(x[a], y[perm[a]])
            det += term
        if det:
            entries[((), idx)] = det
    assert got == TensorMap(dim3, 6, 0, entries)


def test_hexagon_web_is_basis(dim7):
    # the 6-cycle with six legs survives as a basis web: it appears in the
    # k = 6 enumeration and normalizing it returns it unchanged
    from tangleweb.basis import enumerate_webs
    from tangleweb.rewrite import _gon_pattern
    hexagon = _gon_pattern(6)
    webs = {w.canonical_encoding() for w in enumerate_webs(6, 0)}
    assert hexagon.canonical_encoding() in webs
    out = normalize(planar_to_word(hexagon), dim7)
    assert out.terms == {hexagon: 1}


@pytest.mark.parametrize("start", ["first", "last"])
def test_shared_memo_matches_fresh_normalize(all_algebras, start):
    # one memo across 100 seeded words per case gives what a fresh
    # normalize of each word gives, in fewer rewrite steps, whether the
    # memo is filled from the first seeded word or from the last
    rng = seeded(43)
    for alg in all_algebras:
        memo = {}
        fresh_trace, memo_trace = RewriteTrace(alg.case), RewriteTrace(alg.case)
        words = [random_word(rng, max_slices=6, max_strands=4, p_cross=0.3)
                 for _ in range(100)]
        if start == "last":
            words.reverse()
        for w in words:
            want = normalize(w, alg, trace=fresh_trace)
            got = normalize(w, alg, trace=memo_trace, memo=memo)
            assert got == want, (alg.case, w.format())
        assert 0 < len(memo_trace.steps) < len(fresh_trace.steps)


@pytest.mark.parametrize("memo", [False, True], ids=["fresh", "memo"])
def test_normalize_is_tracing_then_normalize_diagrams(all_algebras, memo):
    # normalize adds only crossing expansion and word_to_planar in front of
    # the one engine: same normal forms and the same trace rows
    rng = seeded(47)
    for alg in all_algebras:
        word_memo, diagram_memo = ({}, {}) if memo else (None, None)
        word_trace, diagram_trace = RewriteTrace(alg.case), RewriteTrace(alg.case)
        for _ in range(150):
            w = random_word(rng, max_slices=8, max_strands=5)
            want = normalize(w, alg, trace=word_trace, memo=word_memo)
            got = normalize_diagrams([(word_to_planar(w), 1)], alg, trace=diagram_trace,
                                     memo=diagram_memo)
            assert got == want, (alg.case, w.format())
        assert word_trace.steps and diagram_trace.as_rows() == word_trace.as_rows()


def test_memo_trace_lists_only_reductions_performed(dim7):
    w = parse_word("tangle 3 -> 3 / x,id / id,x / x,id")
    memo = {}
    first, again = RewriteTrace(dim7.case), RewriteTrace(dim7.case)
    a = normalize(w, dim7, trace=first, memo=memo)
    b = normalize(w, dim7, trace=again, memo=memo)
    assert a == b and first.steps and not again.steps


def _frame_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.parametrize("memo", [None, {}], ids=["fresh", "memo"])
def test_deep_diagrams_need_no_recursion(dim3, memo):
    # 100 bigons in a row are 100 nested rewrite steps, each worth -2; a
    # 60-leaf left comb is a basis diagram whose tree is 58 vertices deep
    chain = parse_word("tangle 1 -> 1" + " / w / m" * 100)
    comb = build_normalized(60, 0, (tuple(range(60)),))
    comb_word = planar_to_word(comb)
    rules_for(dim3)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 50)
    try:
        chain_out = normalize(chain, dim3, memo=memo)
        comb_out = normalize(comb_word, dim3, memo=memo)
    finally:
        sys.setrecursionlimit(limit)
    (d, c), = list(chain_out)
    assert c == 2 ** 100 and d.vertex_count() == 0
    assert comb_out.terms == {comb: 1}


@pytest.mark.parametrize("case,text", [
    ("dim3", "tangle 4 -> 4 / x,x / id,x,id"),
    ("kap", "tangle 4 -> 4 / x,x / id,x,id"),
    ("dim7", "tangle 3 -> 3 / x,id / id,x"),
])
def test_crossings_expand_in_one_pass(all_algebras, case, text):
    # c crossings and k crossing terms give k^c crossing-free words, and
    # their combination evaluates to the word
    alg = next(a for a in all_algebras if a.case.value == case)
    word = parse_word(text)
    rules = rules_for(alg)
    terms = rewrite._word_terms_without_crossings(word, rules)
    assert len(terms) == len(rules.crossing_terms) ** text.count("x")
    assert not any(w.has_crossing() for w, _ in terms)
    acc = zero_map(alg, word.n_in, word.n_out)
    for w, c in terms:
        acc = acc.add(evaluate(w, alg).scale(c))
    assert acc == evaluate(word, alg)


def test_crossing_words_order(dim3):
    # the first crossing's term changes slowest, each crossing's terms run
    # last to first, and a crossing's fragment follows its slice
    terms = rewrite._word_terms_without_crossings(
        parse_word("tangle 3 -> 3 / x,id / id,x"), rules_for(dim3))
    assert [w.format() for w, _ in terms] == [
        "tangle 3 -> 3 / id,id,id / id,id,id",
        "tangle 3 -> 3 / id,id,id / id,id,id / id,m / id,w",
        "tangle 3 -> 3 / id,id,id / m,id / w,id / id,id,id",
        "tangle 3 -> 3 / id,id,id / m,id / w,id / id,id,id / id,m / id,w",
    ]


def test_crossing_expansion_budget(dim3, monkeypatch):
    # dim3 rewrites a crossing into two words: 2^2 fits a budget of 4, 2^3 does not
    monkeypatch.setattr(rewrite, "MAX_CROSSING_TERMS", 4)
    normalize(parse_word("tangle 2 -> 2 / x / x"), dim3)
    with pytest.raises(BudgetError):
        normalize(parse_word("tangle 2 -> 2 / x / x / x"), dim3)


def test_strand_budget(dim3, monkeypatch):
    # the widest slice boundary counts, not only the two ends
    monkeypatch.setattr(rewrite, "MAX_STRANDS", 4)
    normalize(parse_word("tangle 2 -> 2 / cup, id, id / cap, id, id"), dim3)
    with pytest.raises(BudgetError):
        normalize(parse_word("tangle 2 -> 2 / cup, cup, id, id / cap, cap, id, id"), dim3)


@pytest.mark.parametrize("k", [6, 7])
def test_rotate_face_step_is_sound(dim3, kap, k):
    # a smallest face of six or more sides is shrunk by the tree rotation
    # in the 3-dimensional cases
    pattern = rewrite._gon_pattern(k)
    for alg in (dim3, kap):
        trace = RewriteTrace(alg.case)
        out = normalize_diagrams([(pattern, Fraction(1))], alg, trace=trace)
        assert f"rotate-face{k}" in [r["rule"] for r in trace.as_rows()]
        assert recombine(out, alg, k, 0) == eval_diagram(pattern, alg)


class _ValidatingTrace(RewriteTrace):
    """A trace that holds every surgery outcome to check_valid."""

    def __init__(self, case):
        super().__init__(case)
        self.outcomes = 0

    def record(self, rule, location, befmeasure, outcomes):
        for d2, _ in outcomes:
            assert d2.check_valid()
        self.outcomes += len(outcomes)
        super().record(rule, location, befmeasure, outcomes)


def test_every_surgery_outcome_is_valid(all_algebras):
    rng = seeded(43)
    for alg in all_algebras:
        trace = _ValidatingTrace(alg.case)
        strands = 4 if alg.case is CaseTag.DIM7 else 6
        for _ in range(100):
            normalize(random_word(rng, max_strands=strands, p_cross=0.3), alg, trace=trace)
        assert trace.outcomes > 100, alg.case


def _find_tree_move(d):
    """Reference for the tree stage's move, as found before it was read off
    comb_defect: parse each component's right weight, then walk down from
    the root of the first right-heavy one."""
    refs = circle_refs(d.n_in, d.n_out)
    for comp_v, comp_b in d.components():
        if not comp_v:
            continue
        parsed = rewrite._parse_component(d, comp_v, comp_b)
        assert comp_b and parsed is not None
        block, weight = parsed
        if weight:
            hit = _locate_right_heavy(d, d.boundary_halfedge(refs[block[-1]]))
            if hit is not None:
                return hit
    return None


def _locate_right_heavy(d, h):
    """First edge (parent-side half, child-side half) whose child is the
    parent's right operand and itself internal, down the left spine."""
    while True:
        p = d.pairing[h]
        if d.loc[p][0] != VERT:
            return None
        right = d.sigma(p)
        rp = d.pairing[right]
        if d.loc[rp][0] == VERT:
            return (right, rp)
        h = d.sigma(right)


def test_tree_move_matches_the_component_parse(dim3, kap, monkeypatch):
    # every diagram the tree stage meets: comb_defect finds a move exactly
    # when the reference does, and each outcome of the step lowers measure
    met = []
    monkeypatch.setattr(rewrite, "comb_defect", lambda d: met.append(d) or comb_defect(d))
    rng = seeded(73)
    for alg in (dim3, kap):
        met.clear()
        for _ in range(200):
            normalize(random_word(rng, max_slices=8, max_strands=6, p_cross=0.4), alg)
        rules = rules_for(alg)
        moves = same_edge = 0
        for d in list(met):     # _find_step below records more
            want, got = _find_tree_move(d), comb_defect(d)
            assert got is not False and (got is None) == (want is None)
            if got is None:
                continue
            moves += 1
            same_edge += got == want
            rule, at, outcomes = rewrite._find_step(d, rules)
            assert rule == "rotate-tree" and at == got
            before = measure(d, alg.case)
            assert all(measure(d2, alg.case) < before for d2, _ in outcomes)
        assert moves > 100 and 0 < same_edge < moves, alg.case


@pytest.mark.parametrize("memo", [False, True], ids=["fresh", "memo"])
def test_step_budget(dim7, monkeypatch, memo):
    # a call past rewrite.MAX_REWRITE_STEPS steps is refused and one within
    # it is not; a memo's reuses are not steps
    w = parse_word("tangle 2 -> 2" + " / w,id / id,m" * 4)
    trace = RewriteTrace(dim7.case)
    want = normalize(w, dim7, trace=trace, memo={} if memo else None)
    monkeypatch.setattr(rewrite, "MAX_REWRITE_STEPS", len(trace.steps) - 1)
    with pytest.raises(BudgetError, match="rewrite steps"):
        normalize(w, dim7, memo={} if memo else None)
    monkeypatch.setattr(rewrite, "MAX_REWRITE_STEPS", len(trace.steps))
    assert normalize(w, dim7, memo={} if memo else None) == want
