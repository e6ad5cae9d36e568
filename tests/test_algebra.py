import json
from dataclasses import replace
from fractions import Fraction

import pytest

from tangleweb import tensor
from tangleweb.algebra import (EVEN, ODD, CaseTag, build, cayley_hamilton_check,
                               check_axioms, dual_bases, skew_symmetrization_check)
from tangleweb.grassmann import super_pfaffian_check
from tangleweb.rewrite import rules_for
from tangleweb.tangle import parse_word
from tangleweb.tensor import evaluate

from conftest import flipped_fano


def test_dim3_normalization(dim3):
    # e1 x e2 = e3, cyclically, antisymmetric
    assert dim3.times(0, 1) == {2: Fraction(1)}
    assert dim3.times(1, 0) == {2: Fraction(-1)}
    assert dim3.times(1, 2) == {0: Fraction(1)}
    assert dim3.times(0, 0) == {}


def test_kap_products(kap):
    # p x q = e = -(q x p); e absorbs at weight 1/2 on the odd part
    e, p, q = 0, 1, 2
    assert kap.times(p, q) == {e: Fraction(1)}
    assert kap.times(q, p) == {e: Fraction(-1)}
    assert kap.times(e, e) == {e: Fraction(1)}
    assert kap.times(e, p) == {p: Fraction(1, 2)}
    assert kap.parity == (EVEN, ODD, ODD)


def test_dim7_orthogonality_of_products(dim7):
    # b(e1 x e2, e1) = 0 and friends
    for i in range(7):
        for j in range(7):
            prod = dim7.times(i, j)
            assert prod.get(i) is None
            assert prod.get(j) is None


@pytest.mark.parametrize("case", list(CaseTag))
def test_axioms_pass(case):
    rep = check_axioms(build(case))
    assert rep.ok, str(rep)


def test_flipped_fano_triple_fails_axioms(dim7):
    # deliberately corrupt one oriented triple: the 4-linear identity breaks
    rep = check_axioms(flipped_fano(dim7))
    assert not rep.ok
    failing = [name for name, _ in rep.failures()]
    assert any("norm compatibility" in name or "4-linear" in name for name in failing)


@pytest.mark.parametrize("hand_built_first", [True, False])
def test_per_case_caches_serve_only_their_algebra(hand_built_first):
    # the slice tables and the rule sets are cached per case; an entry serves
    # only the algebra it was made from or an equal one, in either order
    good = build(CaseTag.DIM7)
    bad = flipped_fano(good)
    m = parse_word("tangle 2 -> 1 / m")
    order = [bad, good] if hand_built_first else [good, bad, good]
    for alg in order:
        want = 1 if alg is good else -1
        assert evaluate(m, alg).entries[((2,), (0, 1))] == want
    # dim3 with x doubled: a bigon has two vertices, so its rule's
    # coefficient is 4 times build(dim3)'s
    plain = build(CaseTag.DIM3)
    doubled = replace(plain, cross=tuple(tuple(tuple(2 * v for v in col) for col in row)
                                         for row in plain.cross))
    order = [doubled, plain] if hand_built_first else [plain, doubled, plain]
    for alg in order:
        (_, c), = rules_for(alg).face_rules[2]["terms"]
        assert c == (-8 if alg is doubled else -2)
    # an equal algebra is served the same entries
    again = build(CaseTag.DIM3)
    tables = tensor._TABLES[CaseTag.DIM3][1]
    assert again is not plain and rules_for(again) is rules_for(plain)
    evaluate(m, again)
    assert tensor._TABLES[CaseTag.DIM3][1] is tables


def test_dual_bases(dim3, dim7, kap):
    for alg in (dim3, dim7):
        db = dual_bases(alg)
        assert db.v == db.u                      # orthonormal
    db = dual_bases(kap)
    # v = (2e, q, -p) in the (e, p, q) coordinates
    assert db.v[0] == {0: Fraction(2)}
    assert db.v[1] == {2: Fraction(1)}
    assert db.v[2] == {1: Fraction(-1)}


def test_skew_symmetrization(dim7):
    assert skew_symmetrization_check(dim7).ok


def test_skew_symmetrization_wrong_case(dim3):
    with pytest.raises(ValueError):
        skew_symmetrization_check(dim3)


def test_cayley_hamilton(dim7):
    assert cayley_hamilton_check(dim7).ok


def test_super_pfaffian_coefficients():
    rep = super_pfaffian_check()
    assert rep.ok, str(rep)


def test_algebra_json_roundtrip(kap):
    obj = json.loads(kap.to_json())
    assert obj["case"] == "kap"
    assert obj["dim"] == 3
    assert obj["gram"][0][0] == "1/2"
    assert obj["cross"][1][2][0] == "1"
