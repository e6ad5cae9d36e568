import random
from fractions import Fraction

import pytest

from tangleweb import tensor
from tangleweb.basis import BudgetError
from tangleweb.planar import planar_to_word
from tangleweb.rewrite import _gon_pattern
from tangleweb.tangle import Generator, generator_word, parse_word, transpose_tangle
from tangleweb.tensor import (TensorMap, bn, bnt, cap_map, compose, cup_map,
                              evaluate, generator_map, identity_map, mult_map, phi,
                              psi, scalar_map, switch_map, tensor_product, transpose)

from conftest import OVER_BUDGET, random_word, seeded


def tp(*maps):
    acc = maps[0]
    for m in maps[1:]:
        acc = tensor_product(acc, m)
    return acc


def test_bn_values(dim3, kap):
    b1 = bn(dim3, 1)
    assert b1.entries[((), (0, 0))] == 1
    assert ((), (0, 1)) not in b1.entries
    bk = bn(kap, 1)
    assert bk.entries[((), (1, 2))] == 1      # b(p, q) = 1
    assert bk.entries[((), (2, 1))] == -1     # supersymmetry
    # nested pairing: b_2(e1 (x) e2 (x) e2 (x) e1) = 1
    b2 = bn(dim3, 2)
    assert b2.entries[((), (0, 1, 1, 0))] == 1
    assert ((), (0, 1, 0, 1)) not in b2.entries


def test_loop_values(dim3, dim7, kap):
    assert compose(bn(dim3, 1), bnt(dim3, 1)).scalar_value() == 3
    assert compose(bn(dim7, 1), bnt(dim7, 1)).scalar_value() == 7
    assert compose(bn(kap, 1), bnt(kap, 1)).scalar_value() == -1


def test_bnt_element(dim3, kap):
    t = bnt(dim3, 1)
    assert t.entries == {((i, i), ()): Fraction(1) for i in range(3)}
    tk = bnt(kap, 1)
    # 2 e(x)e - p(x)q + q(x)p, fixed by b o b^t = -1
    assert tk.entries == {((0, 0), ()): Fraction(2),
                          ((1, 2), ()): Fraction(-1),
                          ((2, 1), ()): Fraction(1)}


def test_compose_identity_and_arity(dim3):
    mu = mult_map(dim3)
    assert compose(identity_map(dim3, 1), mu) == mu
    assert compose(mu, identity_map(dim3, 2)) == mu
    with pytest.raises(ValueError):
        compose(mu, mu)


def test_tensor_product_basics(dim3, kap):
    assert tp(identity_map(dim3, 1), identity_map(dim3, 1)) == identity_map(dim3, 2)
    # (b (x) id): e1 (x) e1 (x) e2 -> e2
    m = tp(cap_map(dim3), identity_map(dim3, 1))
    assert m.entries[((1,), (0, 0, 1))] == 1
    # super switch: p (x) q -> -q (x) p
    tau = switch_map(kap)
    assert tau.entries[((2, 1), (1, 2))] == -1
    assert tau.entries[((0, 1), (1, 0))] == 1
    # every entry pair gives its own key, so tensor_product sums nothing:
    # an odd kap map (e -> p, q -> e/2) after the switch's odd entries,
    # and a dim3 map
    odd = TensorMap(kap, 1, 1, {((1,), (0,)): 1, ((0,), (2,)): Fraction(1, 2)})
    for f, g in ((tau, odd), (mult_map(dim3), cup_map(dim3))):
        assert len(tp(f, g).entries) == len(f.entries) * len(g.entries)


def _random_map(alg, rng, n, m, nnz=4):
    entries = {}
    d = alg.dim
    for _ in range(nnz):
        out = tuple(rng.randrange(d) for _ in range(m))
        inn = tuple(rng.randrange(d) for _ in range(n))
        entries[(out, inn)] = Fraction(rng.randint(-3, 3))
    return TensorMap(alg, n, m, entries)


def test_transpose_contract(all_algebras):
    # b_m(f(x), y) = b_n(x, f^t(y)) on all basis vectors, arities up to 3
    rng = seeded(11)
    for alg in all_algebras:
        for n, m in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)):
            f = _random_map(alg, rng, n, m)
            ft = transpose(f)
            bm, bn_ = bn(alg, m), bn(alg, n)
            lhs = compose(bm, tp(f, identity_map(alg, m)))
            rhs = compose(bn_, tp(identity_map(alg, n), ft))
            assert lhs == rhs, (alg.case, n, m)


def test_transpose_properties(dim3, dim7):
    rng = seeded(12)
    for alg in (dim3, dim7):
        f = _random_map(alg, rng, 2, 1)
        g = _random_map(alg, rng, 1, 2)
        assert transpose(compose(f, g)) == compose(transpose(g), transpose(f))
        assert transpose(tp(f, g)) == tp(transpose(g), transpose(f))
        assert transpose(transpose(f)) == f


def test_transpose_of_cap_is_cup(dim3, dim7, kap):
    for alg in (dim3, dim7, kap):
        assert transpose(cap_map(alg)) == cup_map(alg)


def test_phi_psi_inverse(all_algebras):
    rng = seeded(13)
    for alg in all_algebras:
        for n, m in ((2, 1), (1, 2), (0, 2), (2, 0)):
            f = _random_map(alg, rng, n, m)
            assert psi(phi(f), n, m) == f
        h = _random_map(alg, rng, 3, 0)
        assert phi(psi(h, 1, 2)) == h
    # degenerate cases
    alg = all_algebras[0]
    assert phi(scalar_map(alg, 5)).scalar_value() == 5
    assert phi(identity_map(alg, 1)) == bn(alg, 1)


def test_evaluate_examples(dim3, dim7, kap):
    empty = parse_word("tangle 0 -> 0")
    assert evaluate(empty, dim3).scalar_value() == 1
    circ = parse_word("tangle 0 -> 0 / cup / cap")
    assert evaluate(circ, dim7).scalar_value() == 7
    assert evaluate(circ, kap).scalar_value() == -1
    # c1 = mu + mu o tau vanishes on the plain cases
    for alg in (dim3, dim7):
        c1 = mult_map(alg).add(compose(mult_map(alg), switch_map(alg)))
        assert c1.is_zero()


def test_evaluate_respects_operations(all_algebras):
    from tangleweb.tangle import compose_tangles, disjoint_union
    w1 = parse_word("tangle 2 -> 1 / m")
    w2 = parse_word("tangle 1 -> 2 / w")
    for alg in all_algebras:
        both = evaluate(compose_tangles(w2, w1), alg)
        assert both == compose(evaluate(w2, alg), evaluate(w1, alg))
        un = evaluate(disjoint_union(w1, w2), alg)
        assert un == tp(evaluate(w1, alg), evaluate(w2, alg))


def test_evaluate_transpose_tangle(all_algebras):
    w = generator_word(Generator.MULT)
    for alg in all_algebras:
        assert evaluate(transpose_tangle(w), alg) == transpose(evaluate(w, alg))


def _functor(alg, gens, w):
    # reference: each slice is the graded tensor product of its generator
    # maps, composed onto the identity on the input strands
    want = identity_map(alg, w.n_in)
    for slice_ in w.slices:
        step = scalar_map(alg, 1)
        for g in slice_:
            step = tensor_product(step, gens[g])
        want = compose(step, want)
    return want


def test_evaluate_matches_slice_by_slice_functor(all_algebras):
    # evaluate pulls words with n_out < n_in and pushes the rest; the seeded
    # words cover both directions and the ties in every case
    rng = seeded(14)
    for alg in all_algebras:
        gens = {g: generator_map(alg, g) for g in Generator}
        strands = 4 if alg.dim == 7 else 6
        shapes = set()
        for _ in range(40):
            w = random_word(rng, max_strands=strands, p_cross=0.3)
            shapes.add((w.n_out > w.n_in) - (w.n_out < w.n_in))
            assert evaluate(w, alg) == _functor(alg, gens, w), (alg.case, w)
        assert shapes == {-1, 0, 1}, alg.case


def test_evaluate_face_patterns_dim7(dim7):
    # the [k]->[0] words of the face rules, pulled from their output side
    gens = {g: generator_map(dim7, g) for g in Generator}
    for k in (2, 3, 4):
        w = planar_to_word(_gon_pattern(k))
        assert (w.n_in, w.n_out) == (k, 0)
        assert evaluate(w, dim7) == _functor(dim7, gens, w), k


def test_evaluate_entry_budget(dim3, monkeypatch):
    monkeypatch.setattr(tensor, "MAX_ENTRIES", 8)
    words = ("tangle 2 -> 2",                       # 3^2 starting entries
             "tangle 0 -> 4 / cup / id,cup,id",     # pushed: 9 after slice 2
             "tangle 4 -> 0 / id,cap,id / cap")     # pulled: 9 after slice 1
    for text in words:
        with pytest.raises(BudgetError):
            evaluate(parse_word(text), dim3)
    monkeypatch.setattr(tensor, "MAX_ENTRIES", 9)
    for text in words:
        assert len(evaluate(parse_word(text), dim3).entries) == 9


def test_evaluate_refuses_before_doing_the_work(all_algebras, monkeypatch):
    algs = {alg.case.value: alg for alg in all_algebras}

    def untouched(*args):
        raise AssertionError("the work began before the budget check")

    monkeypatch.setattr(tensor, "identity_map", untouched)
    with pytest.raises(BudgetError, match="starts from 7\\^20000000 entries"):
        evaluate(parse_word(OVER_BUDGET[0][1]), algs["dim7"])
    monkeypatch.undo()
    monkeypatch.setattr(tensor, "_apply_slice", untouched)
    with pytest.raises(BudgetError, match="slice could hold more than"):
        evaluate(parse_word(OVER_BUDGET[1][1]), algs["dim3"])


def test_evaluate_slice_bound_takes_the_key_space(dim3, monkeypatch):
    # the last slice's result has at most 3^2 = 9 keys, while its 6 entries
    # in times the fan of cap,w (1 x 2) bound it only by 12
    word = parse_word("tangle 0 -> 2 / cup / w,id / cap,w")
    expected = evaluate(word, dim3)
    monkeypatch.setattr(tensor, "MAX_ENTRIES", 9)
    assert evaluate(word, dim3) == expected
    monkeypatch.setattr(tensor, "MAX_ENTRIES", 8)
    with pytest.raises(BudgetError):
        evaluate(word, dim3)


def test_relation_tensors_vanish(dim3, dim7, kap):
    def c2hat(alg):
        id1, mu, b, tau = (identity_map(alg, 1), mult_map(alg), cap_map(alg),
                           switch_map(alg))
        t1 = compose(mu, tp(mu, id1))
        t2 = compose(tp(b, id1), tp(id1, tau))
        t3 = tp(id1, b)
        return t1.sub(t2).add(t3)

    assert c2hat(dim3).is_zero()

    alg = dim7
    id1, id2 = identity_map(alg, 1), identity_map(alg, 2)
    mu, b, tau = mult_map(alg), cap_map(alg), switch_map(alg)
    T1 = compose(b, tp(mu, mu))
    shift = compose(tp(id2, tau), compose(tp(id1, tau, id1), tp(tau, id2)))
    T2 = compose(T1, shift)
    T3 = compose(tp(b, b), tp(id1, tau, id1))
    c2 = T1.add(T2).sub(T3.scale(2)).add(tp(b, b)).add(bn(alg, 2))
    assert c2.is_zero()

    alg = kap
    id1 = identity_map(alg, 1)
    mu, b, tau = mult_map(alg), cap_map(alg), switch_map(alg)
    t1 = compose(mu, tp(mu, id1))
    t2 = tp(b, id1)
    t3 = compose(tp(b, id1), tp(id1, tau))
    t4 = tp(id1, b)
    cs2 = t1.sub(t2).sub(t3.scale(Fraction(1, 2))).sub(t4.scale(Fraction(1, 2)))
    assert cs2.is_zero()
    assert compose(mu, cup_map(alg)).is_zero()        # lollipop
    assert compose(b, bnt(alg, 1)).add(scalar_map(alg, 1)).is_zero()   # circle + 1


def test_tensor_map_json(dim3):
    obj = mult_map(dim3).to_json_obj()
    assert obj["n_in"] == 2 and obj["n_out"] == 1
    assert {"out": [2], "in": [0, 1], "coeff": "1"} in obj["entries"]


def test_relation_word_sum_evaluates_to_zero(dim3, dim7):
    # m + m o x vanishes in the plain cases
    for alg in (dim3, dim7):
        total = evaluate(parse_word("tangle 2 -> 1 / m"), alg).add(
            evaluate(parse_word("tangle 2 -> 1 / x / m"), alg))
        assert total.is_zero()
