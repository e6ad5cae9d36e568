"""Acceptance suite: every criterion exact, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; each
test also asserts, so a red criterion fails the suite.
"""

import time
from fractions import Fraction

import pytest

from tangleweb.algebra import CaseTag, build, check_axioms
from tangleweb.basis import enumerate_catalan, enumerate_webs, riordan
from tangleweb.centralizer import brauer_map, matrix_model
from tangleweb.grassmann import super_pfaffian_check
from tangleweb.oracle import certified_dim, derivations, invariant_dim
from tangleweb.rewrite import (_eval_vector, _gon_pattern, eval_diagram,
                               normalize, rules_for)
from tangleweb.tangle import parse_word
from tangleweb.tensor import (bn, cap_map, compose, cup_map, evaluate,
                              identity_map, mult_map, scalar_map, switch_map,
                              tensor_product, zero_map)

from conftest import random_word, seeded


def announce(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status}  {name}{(': ' + detail) if detail else ''}")
    assert ok, f"criterion {num} failed: {name} {detail}"


@pytest.fixture(scope="module")
def algebras():
    algs = {c: build(c) for c in CaseTag}
    for alg in algs.values():
        rules_for(alg)       # rule derivation is startup work, not criterion time
    return algs


def tp(*maps):
    acc = maps[0]
    for m in maps[1:]:
        acc = tensor_product(acc, m)
    return acc


def test_criterion_1_axiom_suite(algebras):
    t0 = time.time()
    ok = True
    for case, alg in algebras.items():
        rep = check_axioms(alg)
        ok &= rep.ok
    announce(1, "axiom suite exhaustive on basis tuples", ok,
             f"{time.time()-t0:.1f}s")


def test_criterion_2_relation_tensors_vanish(algebras):
    t0 = time.time()
    ok = True
    for case, alg in algebras.items():
        id1 = identity_map(alg, 1)
        id2 = identity_map(alg, 2)
        mu, b, bt, tau = (mult_map(alg), cap_map(alg), cup_map(alg),
                          switch_map(alg))
        dimval = -1 if case is CaseTag.KAP else alg.dim
        c0 = compose(b, bt).sub(scalar_map(alg, dimval))
        ok &= c0.is_zero()
        if case is CaseTag.KAP:
            c1 = mu.sub(compose(mu, tau))
        else:
            c1 = mu.add(compose(mu, tau))
        ok &= c1.is_zero()
        if case is CaseTag.DIM3:
            c2 = (compose(mu, tp(mu, id1))
                  .sub(compose(tp(b, id1), tp(id1, tau)))
                  .add(tp(id1, b)))
            ok &= c2.is_zero()
        elif case is CaseTag.DIM7:
            T1 = compose(b, tp(mu, mu))
            shift = compose(tp(id2, tau),
                            compose(tp(id1, tau, id1), tp(tau, id2)))
            c2 = (T1.add(compose(T1, shift))
                  .sub(compose(tp(b, b), tp(id1, tau, id1)).scale(2))
                  .add(tp(b, b)).add(bn(alg, 2)))
            ok &= c2.is_zero()
        else:
            c2 = (compose(mu, tp(mu, id1))
                  .sub(tp(b, id1))
                  .sub(compose(tp(b, id1), tp(id1, tau)).scale(Fraction(1, 2)))
                  .sub(tp(id1, b).scale(Fraction(1, 2))))
            ok &= c2.is_zero()
            c3 = compose(mu, bt)
            ok &= c3.is_zero()
    announce(2, "defining relation tensors evaluate to exact zero", ok,
             f"{time.time()-t0:.1f}s")


def test_criterion_3_reduction_constants(algebras):
    t0 = time.time()
    circle = parse_word("tangle 0 -> 0 / cup / cap")
    lolly = parse_word("tangle 0 -> 1 / cup / m")
    bubble = parse_word("tangle 1 -> 1 / w / m")
    tri = parse_word("tangle 3 -> 0 / id,w,id / m,m / cap")
    ok = True
    for case, want_circle, want_bubble in (
            (CaseTag.DIM7, 7, -6), (CaseTag.DIM3, 3, -2), (CaseTag.KAP, -1, 1)):
        alg = algebras[case]
        out = normalize(circle, alg)
        ok &= list(out) == [(next(iter(out.terms)), Fraction(want_circle))]
        ok &= rules_for(alg).circle_value == want_circle
        ok &= len(normalize(lolly, alg)) == 0
        (d, c), = list(normalize(bubble, alg))
        ok &= c == want_bubble and d.vertex_count() == 0
    (d, c), = list(normalize(tri, algebras[CaseTag.DIM7]))
    ok &= c == 3 and d.vertex_count() == 1
    announce(3, "circle/lollipop/bubble/triangle constants", ok,
             f"{time.time()-t0:.1f}s")


def test_criterion_4_square_pentagon(algebras):
    t0 = time.time()
    alg = algebras[CaseTag.DIM7]
    rules = rules_for(alg)
    ok = True
    for k in (4, 5):
        pattern = _gon_pattern(k)
        lhs = _eval_vector(pattern, alg)
        rhs = {}
        for patch, c in rules.face_rules[k]["terms"]:
            for key, v in _eval_vector(patch, alg).items():
                w = rhs.get(key, Fraction(0)) + c * v
                if w:
                    rhs[key] = w
                elif key in rhs:
                    del rhs[key]
        ok &= lhs == rhs
    # the displayed coefficient patterns
    sq = sorted(c for _, c in rules.face_rules[4]["terms"])
    ok &= sq == [-2, -2, 3, 3]
    pent = sorted(c for _, c in rules.face_rules[5]["terms"])
    ok &= pent == [-1] * 5 + [1] * 5
    announce(4, "square and pentagon identities on V^4, V^5", ok,
             f"{time.time()-t0:.1f}s")


def test_criterion_5_normalization_soundness(algebras):
    t0 = time.time()
    rng = seeded(20240808)
    ok = True
    per_case = 300
    for case, alg in algebras.items():
        for i in range(per_case):
            w = random_word(rng, max_slices=8,
                            max_strands=6 if case is not CaseTag.DIM7 else 5,
                            p_cross=0.2)
            out = normalize(w, alg)
            lhs = evaluate(w, alg)
            rhs = zero_map(alg, w.n_in, w.n_out)
            for d, c in out:
                rhs = rhs.add(eval_diagram(d, alg).scale(c))
            if lhs != rhs:
                ok = False
                print(f"  unsound: {case} {w.format()}")
                break
    announce(5, f"normalization soundness on {per_case} random words per case",
             ok, f"{time.time()-t0:.1f}s")


def test_criterion_6_counting(algebras):
    t0 = time.time()
    ok = [riordan(n) for n in range(9)] == [1, 0, 1, 1, 3, 6, 15, 36, 91]
    for k in range(0, 11):
        splits = [(n, k - n) for n in range(k + 1)] if k <= 8 else [(k, 0), (k // 2, k - k // 2)]
        for n, m in splits:
            got = len(enumerate_catalan(n, m))
            if got != riordan(k):
                ok = False
    der3 = derivations(algebras[CaseTag.DIM3])
    for n in range(8):
        if invariant_dim(algebras[CaseTag.DIM3], n, der=der3) != riordan(n):
            ok = False
    derk = derivations(algebras[CaseTag.KAP])
    for n in range(7):
        if invariant_dim(algebras[CaseTag.KAP], n, der=derk) != riordan(n):
            ok = False
    announce(6, "Riordan counting and oracle agreement (3-dim cases)", ok,
             f"{time.time()-t0:.1f}s")


def test_criterion_7_g2_dimensions(algebras):
    # each dimension certified from two exact ends: invariant_dim, and the
    # rank of the webs' evaluations, which must meet it
    t0 = time.time()
    alg = algebras[CaseTag.DIM7]
    der = derivations(alg)
    ok = True
    expected = [1, 0, 1, 1, 4, 10, 35]
    for k in range(7):
        webs = enumerate_webs(k, 0)
        inv = certified_dim(alg, k, [_eval_vector(w, alg) for w in webs], der=der)
        if len(webs) != expected[k] or inv != expected[k]:
            ok = False
            print(f"  mismatch at k={k}: webs={len(webs)} inv={inv}")
    announce(7, "web counts equal certified invariant dimensions through k=6", ok,
             f"{time.time()-t0:.1f}s")


def test_criterion_8_centralizer_tables(algebras):
    t0 = time.time()
    ok = True
    for case in (CaseTag.DIM3, CaseTag.KAP):
        alg = algebras[case]
        rep = matrix_model(alg, 3)
        ok &= rep["basis_size"] == 15
        ok &= rep["independent"] and rep["equivariant"]
        ok &= rep["identity"] and rep["associative"] and rep["structure_match"]
    _, _, delta3, rep3 = brauer_map(algebras[CaseTag.DIM3], 3)
    ok &= delta3 == 3 and rep3["homomorphism"]
    _, _, deltak, repk = brauer_map(algebras[CaseTag.KAP], 3)
    ok &= deltak == -1 and repk["bijective"] and repk["image_rank"] == 15
    announce(8, "centralizer tables at n=3 and the Brauer comparison", ok,
             f"{time.time()-t0:.1f}s")


def test_criterion_9_super_pfaffian():
    t0 = time.time()
    rep = super_pfaffian_check()
    announce(9, "super Pfaffian identity with the displayed expansions",
             rep.ok, f"{time.time()-t0:.1f}s")
