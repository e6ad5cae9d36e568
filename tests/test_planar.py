import pytest

from tangleweb.algebra import CaseTag
from tangleweb.basis import basis_diagrams
from tangleweb.planar import (VERT, PlanarDiagram, PlanarError, compose_planar,
                              open_boundary, planar_to_word, word_to_planar)
from tangleweb.tangle import compose_tangles, parse_word
from tangleweb.tensor import evaluate

from conftest import random_word, seeded


def test_circle_counts_as_loop():
    p = word_to_planar(parse_word("tangle 0 -> 0 / cup / cap"))
    assert p.loops == 1
    assert p.vertex_count() == 0


def test_bubble_two_vertices_and_bigon_face():
    p = word_to_planar(parse_word("tangle 1 -> 1 / w / m"))
    assert p.vertex_count() == 2
    assert sorted(len(f) for f in p.internal_faces()) == [2]


def test_face_walk_closes_on_the_bubble_bigon():
    p = word_to_planar(parse_word("tangle 1 -> 1 / w / m"))
    face, = p.internal_faces()
    for h in face:
        walk, closed = p.face_walk(h)
        assert closed and len(walk) == 2 and set(walk) == set(face)
    assert p.face_walk(face[0]) == (list(face), True)


def test_face_walk_stops_open_at_the_boundary():
    p = word_to_planar(parse_word("tangle 2 -> 2 / m / w"))
    for h in p.pairing:
        walk, closed = p.face_walk(h)
        assert not closed and walk[0] == h
        assert p.loc[p.pairing[walk[-1]]][0] != VERT


def test_face_walk_stops_open_at_an_unpaired_stub():
    # one vertex hung off the first stub of a diagram still being built
    d, (s0, s1) = open_boundary(2, 0)
    a, x, y = d.new_halfedge(), d.new_halfedge(), d.new_halfedge()
    d.add_vertex((a, x, y))
    d.pair(s0, a)
    assert d.face_walk(s0) == ([s0, x], False)
    assert d.face_walk(a) == ([a], False)
    assert d.face_walk(y) == ([y], False)


def test_h_word_no_internal_face():
    p = word_to_planar(parse_word("tangle 2 -> 2 / m / w"))
    assert p.vertex_count() == 2
    assert p.internal_faces() == []


def test_lollipop_face():
    p = word_to_planar(parse_word("tangle 0 -> 1 / cup / m"))
    assert [len(f) for f in p.internal_faces()] == [1]


def test_crossing_rejected():
    for text in ("tangle 2 -> 2 / x", "tangle 2 -> 3 / w,id / id,x"):
        with pytest.raises(PlanarError, match="crossings cannot be drawn"):
            word_to_planar(parse_word(text))


def test_slice_order_irrelevant():
    w1 = parse_word("tangle 4 -> 0 / cap,id,id / cap")
    w2 = parse_word("tangle 4 -> 0 / id,id,cap / cap")
    assert word_to_planar(w1) == word_to_planar(w2)


def test_mirror_encodes_differently():
    # a 3-vertex tree [3] -> [3] and its mirror image
    w = parse_word("tangle 3 -> 3 / m,id / w,id / id,m / id,w")
    mirror = parse_word("tangle 3 -> 3 / id,m / id,w / m,id / w,id")
    a, b = word_to_planar(w), word_to_planar(mirror)
    assert a.canonical_encoding() != b.canonical_encoding()


# a closed 4-vertex component, then a closed theta
TWO_CLOSED = ("tangle 0 -> 0 / cup / w,id / w,id,id / id,m,id / id,m / cap"
              " / cup / w,id / id,m / cap")


def test_encoding_golden():
    # determinism contract: these strings are load-bearing for golden files
    p = word_to_planar(parse_word("tangle 2 -> 2 / m / w"))
    assert p.canonical_encoding() == b"2>2|o0|t0:N0,N1,t1,b0,b1"
    c = word_to_planar(parse_word("tangle 0 -> 0 / cup / cap"))
    assert c.canonical_encoding() == b"0>0|o1|"
    # closed components: each encoded from its least starting half-edge, and
    # sorted after the boundary components
    t = word_to_planar(parse_word("tangle 1 -> 1 / id,cup / id,w,id / id,id,m / id,cap"))
    assert t.canonical_encoding() == b"1>1|o0|t0:b0;c:N0,N1,V1.2,V0.0,V0.2"
    two = word_to_planar(parse_word(TWO_CLOSED))
    assert two.canonical_encoding() == (b"0>0|o0|c:N0,N1,N2,N3,V2.1,V1.2,V3.2,V0.0,V2.2;"
                                        b"c:N0,N1,V1.2,V0.0,V0.2")
    # six vertices with no symmetry: the starting half-edges encode differently
    six = word_to_planar(parse_word("tangle 0 -> 0 / cup / w,id / w,id,id / id,m,id"
                                    " / w,id,id / id,m,id / id,m / cap"))
    assert six.canonical_encoding() == (b"0>0|o0|c:N0,N1,N2,N3,N4,V4.2,N5,V0.0,"
                                        b"V5.2,V5.1,V2.1,V4.1,V3.2")


def test_nonplanar_rotation_rejected():
    # the crossing pairing {1,3},{2,4} cannot embed in the disk
    d = PlanarDiagram(4, 0)
    hs = []
    for i in range(4):
        h = d.new_halfedge()
        d.set_top(i, h)
        hs.append(h)
    d.pair(hs[0], hs[2])
    d.pair(hs[1], hs[3])
    with pytest.raises(PlanarError):
        d.check_valid()
    # word extraction caps no strand of it and has no component to open
    with pytest.raises(PlanarError, match="slicing is stuck"):
        planar_to_word(d)


def test_crossing_chords_have_no_word():
    # chords t0 - b1 and t1 - b0 reach the bottom out of order
    d, (t0, t1, b1, b0) = open_boundary(2, 2)
    d.pair(t0, b1)
    d.pair(t1, b0)
    with pytest.raises(PlanarError, match="bottom strands out of order"):
        planar_to_word(d)


# diagrams whose words need cups, each with the word extracted from it: a
# bottom cup pair, a bottom-only tree, two closed components, and a bottom
# cup pair beside a closed theta
CUP_WORDS = [
    ("tangle 1 -> 3 / cup,id", "tangle 1 -> 3 / cup,id"),
    ("tangle 1 -> 4 / cup,id / w,id,id", "tangle 1 -> 4 / cup,id / id,w,id"),
    (TWO_CLOSED, "tangle 0 -> 0 / cup / w,id / w,id,id / id,m,id / m,id / cap"
                 " / cup / w,id / m,id / cap"),
    ("tangle 2 -> 2 / cap / cup / id,id,cup / id,id,w,id / id,id,id,m / id,id,cap",
     "tangle 2 -> 2 / cap / cup / id,id,cup / id,id,w,id / id,id,m,id / id,id,cap"),
]


@pytest.mark.parametrize("text, extracted", CUP_WORDS)
def test_words_opened_with_cups_pinned(monkeypatch, text, extracted):
    d = word_to_planar(parse_word(text))
    calls = []
    components = PlanarDiagram.components

    def counted(self):
        calls.append(self)
        return components(self)

    monkeypatch.setattr(PlanarDiagram, "components", counted)
    assert planar_to_word(d).format() == extracted
    assert len(calls) == 1 and calls[0] is d   # one listing per call


def test_roundtrip_examples(all_algebras):
    texts = [
        "tangle 2 -> 2 / m / w",
        "tangle 0 -> 0 / cup / cap",
        "tangle 3 -> 0 / id,w,id / m,m / cap",
        "tangle 2 -> 2 / cap / cup",
        "tangle 0 -> 4 / cup / id,cup,id",
        "tangle 5 -> 1 / id,cap,id,id / m,id / m",
        "tangle 0 -> 0 / cup / w,w / id,cap,id / cap / cup / cap",
    ]
    for txt in texts:
        w = parse_word(txt)
        p = word_to_planar(w)
        w2 = planar_to_word(p)
        for alg in all_algebras:
            assert evaluate(w, alg) == evaluate(w2, alg), (txt, alg.case)


def test_roundtrip_random(all_algebras):
    rng = seeded(31)
    for _ in range(60):
        w = random_word(rng, max_slices=6, max_strands=5)
        p = word_to_planar(w)
        w2 = planar_to_word(p)      # self-checks re-trace equality
        for alg in all_algebras[:2]:
            assert evaluate(w, alg) == evaluate(w2, alg)
        assert evaluate(w, all_algebras[2]) == evaluate(w2, all_algebras[2])


def test_components_and_json():
    p = word_to_planar(parse_word("tangle 2 -> 2 / cap / cup"))
    comps = p.components()
    assert len(comps) == 2
    obj = p.to_json_obj()
    assert obj["boundary_top"] == 2 and obj["boundary_bottom"] == 2
    assert len(obj["edges"]) == 2
    two = word_to_planar(parse_word(TWO_CLOSED))
    assert two.components() == [(frozenset({0, 1, 2, 3}), frozenset()),
                                (frozenset({4, 5}), frozenset())]


def _glued_like_words(a, b):
    # the word path compose_planar replaces: slice, stack, trace back
    want = word_to_planar(compose_tangles(planar_to_word(a), planar_to_word(b)))
    got = compose_planar(a, b)
    assert got.check_valid()
    assert got.canonical_encoding() == want.canonical_encoding()
    assert got.loops == want.loops
    return got


@pytest.mark.parametrize("case, n", [(CaseTag.DIM3, 4), (CaseTag.KAP, 4),
                                     (CaseTag.DIM7, 3)])
def test_compose_planar_matches_word_path_on_basis(case, n):
    # every ordered pair of the largest centralizer table's basis
    basis = basis_diagrams(case, n, n)
    for a in basis:
        for b in basis:
            _glued_like_words(a, b)


def _glue_texts(lower, upper):
    return _glued_like_words(word_to_planar(parse_word(lower)),
                             word_to_planar(parse_word(upper)))


def test_compose_planar_hand_made_seams():
    # a cup over a cap closes a free circle
    d = _glue_texts("tangle 2 -> 0 / cap", "tangle 0 -> 2 / cup")
    assert d.loops == 1 and d.vertex_count() == 0
    # one strand crosses the seam three times: down, up through a cap of the
    # lower diagram, down again through a cup of the upper one
    d = _glue_texts("tangle 3 -> 1 / cap,id", "tangle 1 -> 3 / id,cup")
    assert d == word_to_planar(parse_word("tangle 1 -> 1"))
    # two nested circles, with a vertex pair on the inner one
    d = _glue_texts("tangle 4 -> 0 / id,cap,id / cap",
                    "tangle 0 -> 4 / cup / id,cup,id / id,m,id / id,w,id")
    assert d.loops == 1 and d.vertex_count() == 2
    d = _glue_texts("tangle 4 -> 0 / id,cap,id / cap", "tangle 0 -> 4 / cup / id,cup,id")
    assert d.loops == 2 and d.edge_count() == 0
    # a zero-width seam: [3]->[0] over [0]->[3]
    d = _glue_texts("tangle 0 -> 3 / cup / w,id", "tangle 3 -> 0 / m,id / cap")
    assert (d.n_in, d.n_out, d.vertex_count()) == (3, 3, 2)
    # loops already in either diagram carry over
    d = _glue_texts("tangle 1 -> 1 / cup,id / cap,id", "tangle 1 -> 1 / id,cup / id,cap")
    assert d.loops == 2


def test_compose_planar_width_mismatch():
    a = word_to_planar(parse_word("tangle 2 -> 2"))
    b = word_to_planar(parse_word("tangle 3 -> 3"))
    with pytest.raises(PlanarError):
        compose_planar(a, b)


def test_euler_count_sees_one_torus_beside_a_disk():
    # the H word beside a closed theta is planar; reversing the rotation at
    # one theta vertex makes that component a torus (Euler characteristic 0),
    # which the count over the whole closed-up map must still reject
    d = word_to_planar(parse_word("tangle 2 -> 2 / m / w / cup,id,id / w,id,id,id"
                                  " / id,m,id,id / cap,id,id"))
    (theta, _), = [c for c in d.components() if not c[1]]
    v = min(theta)
    a, b, c = d.rot[v]
    d.rot[v] = (a, c, b)
    for slot, h in enumerate(d.rot[v]):
        d.loc[h] = ("v", v, slot)
    with pytest.raises(PlanarError):
        d.check_valid()
    assert word_to_planar(parse_word(TWO_CLOSED)).check_valid()


@pytest.mark.parametrize("n,m", [(1, 0), (0, 1)], ids=["top", "bottom"])
def test_unpaired_boundary_point_rejected(n, m):
    # a boundary stub paired with nothing is a PlanarError, not a KeyError
    # from the Euler count
    d = PlanarDiagram(n, m)
    h = d.new_halfedge()
    if n:
        d.set_top(0, h)
    else:
        d.set_bot(0, h)
    with pytest.raises(PlanarError, match="unpaired"):
        d.check_valid()
