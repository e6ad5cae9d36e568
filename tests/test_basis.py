import hashlib
from cmath import exp, phase, pi
from itertools import combinations

import pytest

from tangleweb import basis, rewrite
from tangleweb.algebra import CaseTag
from tangleweb.basis import (MAX_DIAGRAMS, MAX_WEB_POINTS, BudgetError, basis_count,
                             basis_diagrams, build_normalized, enumerate_catalan,
                             enumerate_webs, is_basis_diagram, noncrossing_partitions_min2,
                             riordan, web_vertex_bound)
from tangleweb.planar import PlanarError, circle_refs, open_boundary, word_to_planar
from tangleweb.tangle import parse_word
from tangleweb.tensor import evaluate

from conftest import random_word, seeded


def brute_catalan_count(k):
    """Independent oracle: filter all set partitions of 0..k-1."""
    def set_partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for sub in set_partitions(rest):
            for i in range(len(sub)):
                yield sub[:i] + [sub[i] + [first]] + sub[i + 1:]
            yield [[first]] + sub

    def crossing(p):
        for a, b in combinations(range(len(p)), 2):
            for x, y in combinations(sorted(p[a]), 2):
                for u, v in combinations(sorted(p[b]), 2):
                    if x < u < y < v or u < x < v < y:
                        return True
        return False

    count = 0
    for part in set_partitions(list(range(k))):
        if all(len(b) >= 2 for b in part) and not crossing(part):
            count += 1
    return count


def test_riordan_values():
    assert [riordan(n) for n in range(9)] == [1, 0, 1, 1, 3, 6, 15, 36, 91]


def test_riordan_against_brute_force():
    for k in range(9):
        assert riordan(k) == brute_catalan_count(k), k


def test_riordan_rejects_negative():
    with pytest.raises(ValueError):
        riordan(-1)


@pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (3, 3), (2, 0), (0, 4), (3, 1),
                                 (4, 2), (5, 5)])
def test_catalan_count_matches_riordan(n, m):
    assert len(enumerate_catalan(n, m)) == riordan(n + m)
    # basis_count knows the Catalan count up front, and none for dim7's webs
    assert basis_count(CaseTag.DIM3, n, m) == basis_count(CaseTag.KAP, n, m) == riordan(n + m)
    assert basis_count(CaseTag.DIM7, n, m) is None


def test_catalan_diagrams_valid_and_recognized(dim3, kap):
    for t in enumerate_catalan(3, 3):
        t.diagram.check_valid()
        assert is_basis_diagram(t.diagram, CaseTag.DIM3)
        assert is_basis_diagram(t.diagram, CaseTag.KAP)


def test_catalan_families_at_3_3():
    tangles = enumerate_catalan(3, 3)
    assert len(tangles) == 15
    families = {"pairings": 0, "two_triples": 0, "tree_plus_pair": 0, "one_block": 0}
    for t in tangles:
        sizes = sorted(len(b) for b in t.blocks)
        if sizes == [2, 2, 2]:
            families["pairings"] += 1
        elif sizes == [3, 3]:
            families["two_triples"] += 1
        elif sizes == [2, 4]:
            families["tree_plus_pair"] += 1
        elif sizes == [6]:
            families["one_block"] += 1
    # the four families of the 15-diagram example
    assert families == {"pairings": 5, "two_triples": 3,
                        "tree_plus_pair": 6, "one_block": 1}


def test_web_counts():
    # OEIS A059710: the invariant dimensions of the 7-dimensional G2 module
    webs = [enumerate_webs(k, 0) for k in range(8)]
    assert [len(w) for w in webs] == [1, 0, 1, 1, 4, 10, 35, 120]
    assert len(enumerate_webs(4, 3)) == 120
    # the largest webs meet the vertex bound at k = 6 and 7
    assert [max(w.vertex_count() for w in webs[k]) for k in (6, 7)] == [6, 7]


@pytest.mark.parametrize("n,m,budget,count,digest", [
    (0, 0, 7, 1, "c57c3c838af3d6c6abf76283494fac8be8aafd457e12a0b741df29fa3a71be2c"),
    (1, 0, 7, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (2, 0, 7, 1, "84ec0b9c6a94d3151868f8a6cfcf8c4a7a6c226d64acb797134291508ceaa715"),
    (3, 0, 7, 1, "3b2cdb1e6567fea16d6960268e74446f80504489615e463097272eb1acb24480"),
    (4, 0, 7, 4, "78d1b1754e5d39f5c694a009f8d7268cdb7b592250c2eb5056d87e24ad71f2ab"),
    (5, 0, 7, 10, "f70e95a94b0d1f1b1d44597d8d3c315a88ad8df4d0537c48691b5656de585f1a"),
    (6, 0, 7, 35, "e714d771fc6eee9161091bb76d731451e8fc2b3493c0a25c456d089a87228769"),
    (7, 0, 7, 120, "c870d64b957af98fbfd7748ba2d042a6ed2a4288f8916f66419921a40ed86e5b"),
    (8, 0, 8, 455, "51641f53c43b5fa66c5c4674f7869417eba8f53f01de622d49a24726a498f336"),
    (4, 4, 8, 455, "37bc31f89f7e4a1d33931284a3c2acc6752a2e462e252b55de6b8c2ae8dab0a2"),
])
def test_web_lists_pinned(n, m, budget, count, digest, monkeypatch):
    # the webs in order, pinned to the search that capped only the whole
    # diagram's vertex count; each row runs with MAX_WEB_POINTS at its
    # budget column, at or above n + m, since the budget only refuses and
    # never cuts a search short
    monkeypatch.setattr(basis, "MAX_WEB_POINTS", budget)
    webs = enumerate_webs(n, m)
    text = b"\n".join(w.canonical_encoding() for w in webs)
    assert (len(webs), hashlib.sha256(text).hexdigest()) == (count, digest)


def test_web_vertex_bound_small_k():
    assert [web_vertex_bound(k) for k in range(8)] == [0, 0, 0, 1, 2, 3, 6, 7]


def hexagon_patch(centers):
    """The carbon skeleton of the benzenoid whose hexagons have the given
    centers (axial lattice coordinates), one leg on each vertex of degree 2,
    as a [k]->[0] diagram."""
    corners = [exp(1j * pi * (2 * i + 1) / 6) for i in range(6)]
    points, nbrs = {}, {}
    for q, r in centers:
        mid = 3 ** 0.5 * (q + r / 2) + 1.5j * r
        ring = [points.setdefault((round(z.real, 6), round(z.imag, 6)), z)
                for z in (mid + c for c in corners)]
        for a, b in zip(ring, ring[1:] + ring[:1]):
            nbrs.setdefault(a, set()).add(b)
            nbrs.setdefault(b, set()).add(a)
    legs = {z: 3 * z - sum(ns) for z, ns in nbrs.items() if len(ns) == 2}
    middle = sum(nbrs) / len(nbrs)
    order = sorted(legs, key=lambda z: phase(z - middle))
    # the orientation is not guessed: the one embedding in the disk wins
    for turn in (1, -1):
        d, bnd = open_boundary(len(order), 0)
        half = {}
        for z, ns in nbrs.items():
            ends = sorted(list(ns) + ([legs[z]] if z in legs else []),
                          key=lambda w: turn * phase(w - z))
            hs = [d.new_halfedge() for _ in ends]
            d.add_vertex(hs)
            half.update(((z, w), h) for w, h in zip(ends, hs))
        for (z, w), h in half.items():
            d.pair(h, half[(w, z)] if w in nbrs else bnd[order.index(z)])
        try:
            d.check_valid()
            return d
        except PlanarError:
            continue
    raise AssertionError("no planar embedding")


@pytest.mark.parametrize("centers,k,vertices", [
    # naphthalene: two hexagons, the largest web at k = 8
    ([(0, 0), (1, 0)], 8, 10),
    # pyrene: four hexagons, more than k + 4 vertices
    ([(0, 0), (1, 0), (0, 1), (1, -1)], 10, 16),
    # coronene: a hexagon ringed by six
    ([(0, 0), (1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)], 12, 24),
])
def test_web_vertex_bound_admits_benzenoids(centers, k, vertices):
    web = hexagon_patch(centers)
    assert (web.n_in, web.n_out, web.vertex_count()) == (k, 0, vertices)
    assert is_basis_diagram(web, CaseTag.DIM7)
    assert web_vertex_bound(k) == vertices


def test_webs_split_boundary_matches_bent():
    # the bending bijection preserves the counts
    assert len(enumerate_webs(2, 2)) == len(enumerate_webs(4, 0))
    assert len(enumerate_webs(3, 1)) == len(enumerate_webs(4, 0))
    assert len(enumerate_webs(1, 3)) == len(enumerate_webs(4, 0))


def test_webs_budget():
    assert MAX_WEB_POINTS == 8
    for n, m in ((9, 0), (5, 4), (10 ** 9, 0)):
        with pytest.raises(BudgetError, match=f"boundary size {n + m} exceeds budget 8"):
            enumerate_webs(n, m)
    # every library caller has the one budget
    with pytest.raises(BudgetError, match="boundary size 9 exceeds budget 8"):
        basis_diagrams(CaseTag.DIM7, 5, 4)


def test_web_search_records_each_web_once():
    # the search records only valid non-elliptic webs, each once, so it
    # returns them unfiltered
    for k in range(8):
        for n in range(k + 1):
            webs = enumerate_webs(n, k - n)
            for w in webs:
                w.check_valid()
                assert is_basis_diagram(w, CaseTag.DIM7)
            assert len({w.canonical_encoding() for w in webs}) == len(webs)


def test_catalan_budget():
    assert riordan(15) <= MAX_DIAGRAMS < riordan(16)
    for n, m in ((16, 0), (9, 7), (10 ** 9, 0)):
        with pytest.raises(BudgetError):
            enumerate_catalan(n, m)


def test_is_basis_examples(dim3, dim7):
    bubble = word_to_planar(parse_word("tangle 1 -> 1 / w / m"))
    assert not is_basis_diagram(bubble, CaseTag.DIM7)
    tripod = word_to_planar(parse_word("tangle 3 -> 0 / m,id / cap"))
    assert is_basis_diagram(tripod, CaseTag.DIM7)
    # a self-loop bounds a one-sided face, which the face test rejects
    lollipop = word_to_planar(parse_word("tangle 0 -> 1 / cup / m"))
    assert not is_basis_diagram(lollipop, CaseTag.DIM7)
    # only left combs represent the 3-dimensional basis
    left = word_to_planar(parse_word("tangle 3 -> 1 / m,id / m"))
    right = word_to_planar(parse_word("tangle 3 -> 1 / id,m / m"))
    assert is_basis_diagram(left, CaseTag.DIM3)
    assert not is_basis_diagram(right, CaseTag.DIM3)
    circle = word_to_planar(parse_word("tangle 0 -> 0 / cup / cap"))
    assert not is_basis_diagram(circle, CaseTag.DIM3)
    assert not is_basis_diagram(circle, CaseTag.DIM7)


def test_normalized_blocks_evaluate_to_left_combs(dim3):
    # the [3]->[0] basis tree evaluates to b((x1 x x2), x3)
    tangles = enumerate_catalan(3, 0)
    assert len(tangles) == 1
    t = evaluate(parse_word("tangle 3 -> 0 / m,id / cap"), dim3)
    from tangleweb.planar import planar_to_word
    assert evaluate(planar_to_word(tangles[0].diagram), dim3) == t


@pytest.mark.parametrize("enumerate_", [enumerate_catalan, enumerate_webs])
def test_enumerators_reject_negative_arities(enumerate_):
    with pytest.raises(ValueError):
        enumerate_(-1, 2)
    with pytest.raises(ValueError):
        enumerate_(2, -1)


def test_build_normalized_rejects_singletons():
    with pytest.raises(ValueError):
        build_normalized(2, 0, ((0,), (1,)))


def test_noncrossing_partition_enumeration_small():
    assert sorted(map(sorted, noncrossing_partitions_min2(3))) == [[[0, 1, 2]]]
    four = list(noncrossing_partitions_min2(4))
    assert len(four) == 3


def test_phi_bending_bijection_on_webs(dim7):
    # bending [n] -> [m] webs to [n+m] -> [0] webs is injective into the
    # enumerated set, hence bijective by the count equality
    from tangleweb.planar import planar_to_word
    from tangleweb.rewrite import normalize
    from tangleweb.tangle import phi_tangle
    for n, m in ((2, 2), (3, 1), (1, 2)):
        webs = enumerate_webs(n, m)
        flat = {w.canonical_encoding() for w in enumerate_webs(n + m, 0)}
        bent = set()
        for w in webs:
            word = phi_tangle(planar_to_word(w))
            out = normalize(word, dim7)
            # bending a basis web stays a single basis web with coefficient 1
            (d, c), = list(out)
            assert c == 1
            assert d.canonical_encoding() in flat
            bent.add(d.canonical_encoding())
        assert len(bent) == len(webs)


def test_dim7_total_antisymmetry(dim7):
    # b(x*y, z) is totally antisymmetric on basis triples
    from fractions import Fraction
    from itertools import product

    def bxy_z(i, j, k):
        return sum((c * dim7.b(a, k) for a, c in dim7.times(i, j).items()),
                   Fraction(0))

    for i, j, k in product(range(7), repeat=3):
        base = bxy_z(i, j, k)
        for perm, sign in (((j, i, k), -1), ((i, k, j), -1), ((k, j, i), -1),
                           ((j, k, i), 1), ((k, i, j), 1)):
            assert bxy_z(*perm) == sign * base


# ------------------------------------------------- left-comb recognition

def _is_left_comb_by_rebuild(d):
    """Reference for the 3-dimensional is_basis_diagram: rebuild the left
    comb of d's partition with build_normalized and compare canonical
    encodings."""
    if d.loops:
        return False
    pos_of = {ref: p for p, ref in enumerate(circle_refs(d.n_in, d.n_out))}
    blocks = []
    for _, comp_b in d.components():
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


def _assert_recognizers_agree(d):
    want = _is_left_comb_by_rebuild(d)
    for case in (CaseTag.DIM3, CaseTag.KAP):
        assert is_basis_diagram(d, case) == want, (d.to_json_obj(), want)
    return want


def _reverse_rotation(d, v):
    out = d.copy()
    out.rot[v] = out.rot[v][::-1]
    for slot, h in enumerate(out.rot[v]):
        out.loc[h] = ("v", v, slot)
    return out


def _swap_pairings(d, h1, h2):
    out = d.copy()
    p1, p2 = out.pairing[h1], out.pairing[h2]
    out.pair(h1, p2)
    out.pair(h2, p1)
    return out


def _perturbations(d, rng, count):
    """Copies of d with one vertex rotation reversed, and with the far ends
    of two edges swapped."""
    for v in sorted(d.rot):
        yield _reverse_rotation(d, v)
    edges = sorted(h for h, p in d.pairing.items() if h < p)
    for _ in range(count if len(edges) >= 2 else 0):
        h1, h2 = rng.sample(edges, 2)
        yield _swap_pairings(d, h1, h2)


def test_left_comb_walk_matches_rebuild_on_catalan_diagrams():
    rng = seeded(71)
    agreed, perturbed = 0, []
    for k in range(9):
        for n in range(k + 1):
            for t in enumerate_catalan(n, k - n):
                assert _assert_recognizers_agree(t.diagram)
                agreed += 1
                if k <= 7:
                    perturbed += [_assert_recognizers_agree(p)
                                  for p in _perturbations(t.diagram, rng, 2)]
    assert agreed == sum((k + 1) * riordan(k) for k in range(9))
    # a few swaps wire another partition's left comb; the rest are rejected
    assert len(perturbed) > 1500 and 0 < sum(perturbed) < len(perturbed) / 10


def test_left_comb_walk_matches_rebuild_while_normalizing(dim3, kap, monkeypatch):
    # every diagram the rewrite engine meets, before and after each step
    met = []
    real = rewrite._find_step

    def recording(d, rules):
        met.append(d)
        return real(d, rules)

    monkeypatch.setattr(rewrite, "_find_step", recording)
    rng = seeded(72)
    for alg in (dim3, kap):
        for _ in range(100):
            w = random_word(rng, max_slices=8, max_strands=6, p_cross=0.25)
            rewrite.normalize(w, alg)
    monkeypatch.undo()
    verdicts = [_assert_recognizers_agree(d) for d in met]
    assert len(verdicts) > 1500 and 0 < sum(verdicts) < len(verdicts)
    perturbed = [_assert_recognizers_agree(p)
                 for d in met[::5] for p in _perturbations(d, rng, 2)]
    assert len(perturbed) > 2000 and 0 < sum(perturbed) < len(perturbed)


def _wire_combs(n, m, blocks):
    """Left combs chained as in build_normalized, with no planarity check."""
    d, bnd = open_boundary(n, m)
    for pts in blocks:
        prev = bnd[pts[0]]
        for p in pts[1:-1]:
            a, o, b = d.new_halfedge(), d.new_halfedge(), d.new_halfedge()
            d.add_vertex((a, o, b))
            d.pair(prev, a)
            d.pair(b, bnd[p])
            prev = o
        d.pair(prev, bnd[pts[-1]])
    return d


@pytest.mark.parametrize("blocks", [((0, 2), (1, 3)), ((0, 2, 4), (1, 3, 5)),
                                    ((0, 3), (1, 2, 4))])
def test_crossing_partition_is_not_a_basis_diagram(blocks):
    k = max(max(b) for b in blocks) + 1
    d = _wire_combs(k, 0, blocks)
    with pytest.raises(PlanarError):
        d.check_valid()
    assert not _assert_recognizers_agree(d)
    # the same wiring without the crossing is the basis diagram
    assert _wire_combs(4, 0, ((0, 3), (1, 2))).canonical_encoding() == \
        build_normalized(4, 0, ((0, 3), (1, 2))).canonical_encoding()
