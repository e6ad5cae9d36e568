from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tangleweb.tangle import (Generator, LinComb, TangleWord, WordError, cap_word,
                              compose_tangles, cup_word, disjoint_union, identity_word,
                              parse_word, phi_tangle, psi_tangle, transpose_tangle)
from tangleweb.tensor import compose, evaluate, phi, psi, transpose

from conftest import random_word, seeded


def test_parse_and_format_roundtrip():
    w = parse_word("tangle 2 -> 2\nm\nw")
    assert w.format() == "tangle 2 -> 2 / m / w"
    assert parse_word(w.format()) == w


def test_parse_errors():
    with pytest.raises(WordError):
        parse_word("")
    with pytest.raises(WordError):
        parse_word("tangle two -> 2 / x")
    with pytest.raises(WordError):
        parse_word("tangle 2 -> 2 / frob")
    with pytest.raises(WordError):
        parse_word("tangle 2 -> 2 / m")        # ends at 1 strand
    with pytest.raises(WordError):
        parse_word("tangle 1 -> 1 / m")        # consumes too many


def test_comments_may_contain_slashes():
    # a comment runs to the end of its physical line, '/' included
    merge = TangleWord(2, 1, [[Generator.MULT]])
    assert parse_word("tangle 2 -> 1  # merge two strands / one product\nm") == merge
    assert parse_word("# see a/b\ntangle 2 -> 1\nm") == merge
    assert parse_word("tangle 2 -> 2 / w,id / id,m  # a rung / of a ladder") == \
        TangleWord(2, 2, [[Generator.COMULT, Generator.ID], [Generator.ID, Generator.MULT]])


def test_compose_arity_mismatch():
    with pytest.raises(WordError):
        compose_tangles(parse_word("tangle 2 -> 1 / m"),
                        parse_word("tangle 2 -> 1 / m"))


def test_compose_with_identity(dim3):
    w = parse_word("tangle 2 -> 1 / m")
    out = compose_tangles(w, identity_word(2))
    assert evaluate(out, dim3) == evaluate(w, dim3)


def test_disjoint_union_examples(dim3):
    w = parse_word("tangle 2 -> 1 / m")
    empty = parse_word("tangle 0 -> 0")
    assert evaluate(disjoint_union(w, empty), dim3) == evaluate(w, dim3)
    i2 = disjoint_union(identity_word(1), identity_word(1))
    assert evaluate(i2, dim3) == evaluate(identity_word(2), dim3)
    # cap (x) cup as a [2]->[2] word equals the rank-one map b^t(1) . b
    capcup = disjoint_union(cap_word(1), cup_word(1))
    got = evaluate(capcup, dim3)
    from tangleweb.tensor import bn, bnt
    want = compose(bnt(dim3, 1), bn(dim3, 1))
    assert got == want


def test_transpose_tangle_cases(all_algebras):
    for alg in all_algebras:
        cap = cap_word(1)
        assert evaluate(transpose_tangle(cap), alg) == evaluate(cup_word(1), alg)
    w = parse_word("tangle 2 -> 1 / m")
    for alg in all_algebras[:2]:     # symmetric cases: transpose is involutive
        assert (evaluate(transpose_tangle(transpose_tangle(w)), alg)
                == evaluate(w, alg))


def test_phi_psi_tangle_commute_with_evaluation(all_algebras):
    rng = seeded(21)
    for alg in all_algebras:
        cap = 4 if alg.dim == 7 else 6       # bending doubles the boundary
        done = 0
        while done < 8:
            w = random_word(rng, max_slices=4, max_strands=4)
            if w.n_in + w.n_out > cap:
                continue
            done += 1
            lhs = evaluate(phi_tangle(w), alg)
            rhs = phi(evaluate(w, alg))
            assert lhs == rhs
            back = psi_tangle(phi_tangle(w), w.n_in, w.n_out)
            assert evaluate(back, alg) == evaluate(w, alg)


def test_interchange_law(dim3, kap):
    # (a o b) union (c o d) == (a union c) o (b union d), up to evaluation
    rng = seeded(22)
    for alg in (dim3, kap):
        for _ in range(6):
            b = random_word(rng, max_slices=3, max_strands=3)
            d = random_word(rng, max_slices=3, max_strands=3)
            a = random_word(rng, max_slices=3, max_strands=3)
            # force composable arities by bending: reuse b, d outputs
            a = identity_word(b.n_out)
            c = identity_word(d.n_out)
            lhs = disjoint_union(compose_tangles(a, b), compose_tangles(c, d))
            rhs = compose_tangles(disjoint_union(a, c), disjoint_union(b, d))
            assert evaluate(lhs, alg) == evaluate(rhs, alg)


@given(st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=20, deadline=None)
def test_identity_words_arities(n, m):
    w = disjoint_union(identity_word(n), identity_word(m))
    assert w.n_in == w.n_out == n + m


def test_lincomb_basics():
    lc = LinComb()
    lc.add_term("a", Fraction(1, 2))
    lc.add_term("a", Fraction(1, 2))
    lc.add_term("b", 1)
    lc.add_term("b", -1)
    assert lc.terms == {"a": Fraction(1)}
    lc2 = lc.scale(2).add(LinComb({"c": Fraction(3)}))
    assert lc2.terms == {"a": Fraction(2), "c": Fraction(3)}
    assert lc2.scale(0) == LinComb()


def test_word_hashable_and_ascii():
    w = parse_word("tangle 2 -> 2 / x")
    assert hash(w) == hash(parse_word("tangle 2 -> 2 / x"))
    art = w.ascii_art()
    assert "X" in art
