import hashlib
import inspect
import json
from fractions import Fraction
from math import lcm

import pytest

from tangleweb import basis, centralizer
from tangleweb.basis import basis_diagrams, riordan
from tangleweb.centralizer import (BudgetError, StructureTable, _closure,
                                   _local_rows, _numerators, brauer_compose,
                                   brauer_diagrams, brauer_e, brauer_identity,
                                   brauer_map, brauer_sigma, matching_word,
                                   matrix_model, structure_constants)
from tangleweb.oracle import invariant_dim
from tangleweb.planar import planar_to_word
from tangleweb.rewrite import eval_diagram, normalize
from tangleweb.tangle import compose_tangles
from tangleweb.tensor import TensorMap, evaluate

from conftest import seeded


def find_basis_index(table, pred):
    hits = [k for k, d in enumerate(table.basis) if pred(d)]
    assert len(hits) == 1, hits
    return hits[0]


def test_dim3_n2_table(dim3):
    table = structure_constants(dim3, 2)
    assert len(table.basis) == riordan(4) == 3
    assert table.check_identity()
    assert table.check_associative()
    cupcap = find_basis_index(
        table, lambda d: d.vertex_count() == 0
        and sorted(sorted(cb) for _, cb in d.components())
        == [[("b", 0), ("b", 1)], [("t", 0), ("t", 1)]])
    assert table.table[(cupcap, cupcap)] == {cupcap: Fraction(3)}


def test_dim7_n2_table(dim7):
    table = structure_constants(dim7, 2)
    assert len(table.basis) == 4
    assert table.check_identity()
    assert table.check_associative()
    hvert = find_basis_index(
        table, lambda d: d.vertex_count() == 2 and all(
            any(r[0] == "t" for r in cb) and any(r[0] == "b" for r in cb)
            for cv, cb in d.components() if cv) and len(d.components()) == 1
        and _separates_tops(d))
    assert table.table[(hvert, hvert)] == {hvert: Fraction(-6)}


def _separates_tops(d):
    # the vertical tree: one vertex holds both top legs
    for vid, triple in d.rot.items():
        kinds = {d.loc[d.pairing[h]][0] for h in triple}
        if kinds == {"t", "v"}:
            return True
    return False


def test_kap_n2_table(kap):
    table = structure_constants(kap, 2)
    hvert = find_basis_index(table, lambda d: d.vertex_count() == 2)
    assert table.table[(hvert, hvert)] == {hvert: Fraction(1)}


def test_basis_sizes_n3(dim3, kap):
    for alg in (dim3, kap):
        assert len(basis_diagrams(alg.case, 3, 3)) == riordan(6) == 15


def _counting_normalize(monkeypatch):
    calls = []
    real = centralizer.normalize_diagrams

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(centralizer, "normalize_diagrams", counted)
    return calls


def test_shared_memo_table_matches_fresh_products(dim3, kap, dim7, monkeypatch):
    # the table's one memo and its derived rows change no product: each
    # equals a fresh normalize of the stacked words
    calls = _counting_normalize(monkeypatch)
    for alg, n in ((dim3, 3), (kap, 3), (dim7, 2)):
        calls.clear()
        table = structure_constants(alg, n)
        nb = len(table.basis)
        if n == 3:
            assert len(calls) < nb * nb       # some rows were derived
        words = [planar_to_word(d) for d in table.basis]
        for (i, j), row in table.table.items():
            fresh = normalize(compose_tangles(words[i], words[j]), alg)
            assert row == {table.index[d.canonical_encoding()]: c for d, c in fresh}
            assert all(type(c) is Fraction and c for c in row.values())


@pytest.mark.parametrize("case, n, direct_rows, digest", [
    ("dim3", 4, 5, "24c84c79cce1977b7cbfa7ea23efb46f95a0c607ae5fb29318d73ae6d9259ff8"),
    ("kap", 4, 5, "ce59e118e3ccdd0d0c29a09d9f2be6cb36e29d833c4ed4e32de22ccf119f90fa"),
    ("dim7", 3, 4, "0488c9c7fed513a9d701ac413a6262f31a13c90fa6076e0ac26eae890fd93ba0"),
], ids=["dim3-4", "kap-4", "dim7-3"])
def test_largest_tables_pinned(all_algebras, case, n, direct_rows, digest, monkeypatch):
    # the tables past the golden files, pinned to the word-path tables that
    # sliced each basis diagram, stacked the words and traced them back;
    # only the direct rows are normalized, one product per column
    calls = _counting_normalize(monkeypatch)
    alg = next(a for a in all_algebras if a.case.value == case)
    table = structure_constants(alg, n)
    assert len(calls) == direct_rows * len(table.basis)
    text = json.dumps(table.to_json_obj(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_numerators_one_positive_reduced_denominator():
    # cells / den as integer cells over one positive denominator, with the
    # common factor and the sign moved out of it
    assert _numerators({0: {0: 4, 1: -6}, 1: {}}, -8) == (4, {0: {0: -2, 1: 3}, 1: {}})
    assert _numerators({0: {0: Fraction(1, 6)}, 1: {2: Fraction(-3, 4)}}) == (
        12, {0: {0: 2}, 1: {2: -9}})


def _derived_cell_by_fractions(t, a, s, c, rest, k):
    # the reference formula, in Fractions:
    # t[i][k] = c^-1 (sum_m t[s][k][m] t[a][m] - sum_(m in rest) rest[m] t[m][k])
    out = {}
    for m, x in t[(s, k)].items():
        for p, y in t[(a, m)].items():
            out[p] = out.get(p, Fraction(0)) + x * y / c
    for m, r in rest.items():
        for p, y in t[(m, k)].items():
            out[p] = out.get(p, Fraction(0)) - r * y / c
    return {p: v for p, v in out.items() if v}


@pytest.mark.parametrize("case, n, factors, max_den, with_rest", [
    ("dim3", 4, {-6, -2, 1, 3}, 1, 14),
    ("kap", 4, {-1, Fraction(-3, 4), Fraction(1, 2), 1}, 16, 14),
    ("dim7", 3, {-6, -2, 1, 3, 36}, 1, 9),
], ids=["dim3-4", "kap-4", "dim7-3"])
def test_integer_rows_match_fraction_formula(all_algebras, case, n, factors, max_den,
                                             with_rest):
    # every derived row, summed over integer numerators, equals the Fraction
    # formula read off the finished table; these tables hold the factors c
    # other than +-1, kap's denominators up to 16 and rows derived through
    # cells of several terms
    alg = next(a for a in all_algebras if a.case.value == case)
    table = structure_constants(alg, n)
    t = table.table
    assert all(type(v) is Fraction for cell in t.values() for v in cell.values())
    assert max(v.denominator for cell in t.values() for v in cell.values()) == max_den
    derived = {i: h for i, h in _closure(table, t) if h is not None}
    assert {c for _, _, c, _ in derived.values()} == factors
    assert sum(1 for *_, rest in derived.values() if rest) == with_rest
    for i, (a, s, c, rest) in derived.items():
        for k in range(len(table.basis)):
            assert t[(i, k)] == _derived_cell_by_fractions(t, a, s, c, rest, k), (i, k)


def _is_local(d, n):
    # id_j (x) x (x) id_(n-2-j) for some j: every strand outside j, j+1 is
    # a straight vertex-free t_k -- b_k
    straight = {frozenset(cb) for cv, cb in d.components() if not cv}
    return any(all(frozenset({("t", k), ("b", k)}) in straight
                   for k in range(n) if k not in (j, j + 1))
               for j in range(n - 1))


TABLES = [("dim3", n) for n in range(5)] + [("kap", n) for n in range(5)] + \
         [("dim7", n) for n in range(4)]


@pytest.mark.parametrize("case, n", TABLES, ids=[f"{c}-{n}" for c, n in TABLES])
def test_closure_reaches_every_row_once(all_algebras, case, n):
    # the closure yields every row once; the local rows come first, and
    # every derived row's cell holds only rows yielded before it
    alg = next(a for a in all_algebras if a.case.value == case)
    table = structure_constants(alg, n)
    t, nb = table.table, len(table.basis)
    order = list(_closure(table, t))
    assert sorted(i for i, _ in order) == list(range(nb))
    local = {i for i, d in enumerate(table.basis) if n >= 2 and _is_local(d, n)}
    assert len(local) == (1 + (n - 1) * (len(basis_diagrams(alg.case, 2, 2)) - 1)
                          if n >= 2 else 0)
    seen = set()
    for i, how in order:
        if how is None:
            if i not in local:
                assert local <= seen, (i, local - seen)
        else:
            a, s, c, rest = how
            assert {a, s, *rest} <= seen, i
            assert c and t[(a, s)] == {i: c, **rest}, i
        seen.add(i)


DIRECT_ROWS = {"dim3": [1, 1, 3, 5, 5], "kap": [1, 1, 3, 5, 5], "dim7": [1, 1, 3, 4]}


def _local_slot(d, n):
    # the j of a local row id_j (x) x (x) id_(n-2-j) other than the
    # identity: the first strand that is not a straight t_k -- b_k
    straight = {frozenset(cb) for cv, cb in d.components() if not cv}
    return next((k for k in range(n) if frozenset({("t", k), ("b", k)}) not in straight),
                None)


@pytest.mark.parametrize("case, n", TABLES, ids=[f"{c}-{n}" for c, n in TABLES])
def test_direct_rows_with_rightmost_local_rows_first(all_algebras, case, n):
    # _local_rows lists each x's rows from j = n-2 down to 0, so the
    # rightmost rows come first, and the closure then multiplies this many
    # rows directly
    alg = next(a for a in all_algebras if a.case.value == case)
    table = structure_constants(alg, n)
    assert len(table.generator_rows()) == DIRECT_ROWS[case][n]
    slots = [_local_slot(table.basis[i], n) for i in _local_rows(table)]
    moves = len(basis_diagrams(alg.case, 2, 2)) - 1     # the x other than id
    assert [j for j in slots if j is not None] == list(range(n - 2, -1, -1)) * moves
    assert slots.count(None) == (n >= 2)


def _associative_by_all_triples(table):
    # the reference: (e_i e_j) e_k == e_i (e_j e_k) on every basis triple
    nb = len(table.basis)
    for i in range(nb):
        for j in range(nb):
            for k in range(nb):
                left = {}
                for l, c in table.table[(i, j)].items():
                    for m, c2 in table.table[(l, k)].items():
                        left[m] = left.get(m, Fraction(0)) + c * c2
                right = {}
                for l, c in table.table[(j, k)].items():
                    for m, c2 in table.table[(i, l)].items():
                        right[m] = right.get(m, Fraction(0)) + c * c2
                if ({a: b for a, b in left.items() if b}
                        != {a: b for a, b in right.items() if b}):
                    return False
    return True


def _rescaled(table, scale):
    # the same algebra in the basis scale[i] e_i: still associative
    return StructureTable(table.case, table.n, table.basis, {
        (i, j): {k: c * scale[i] * scale[j] / scale[k] for k, c in row.items()}
        for (i, j), row in table.table.items()})


def _perturbed(table, i, j, k, delta):
    out = StructureTable(table.case, table.n, table.basis, dict(table.table))
    row = {**out.table[(i, j)]}
    row[k] = row.get(k, Fraction(0)) + delta
    out.table[(i, j)] = {m: c for m, c in row.items() if c}
    return out


def test_associativity_check_matches_all_triples(dim3, kap):
    # the generator-only check against the walk over all triples, on the
    # tables, on rescaled tables and on seeded one-coefficient perturbations,
    # one inside a generator row and one inside a derived row
    rng = seeded(1531)
    for alg in (dim3, kap):
        table = structure_constants(alg, 3)
        nb = len(table.basis)
        how = dict(_closure(table, table.table))
        generators = [i for i, h in how.items() if h is None]
        derived = [i for i, h in how.items() if h is not None]
        assert generators and derived
        scaled = _rescaled(table, [Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4))
                                   for _ in range(nb)])
        for t in (table, scaled):
            assert t.check_associative() and _associative_by_all_triples(t)
        cases = [(generators[-1], rng.randrange(nb)), (derived[-1], rng.randrange(nb))]
        cases += [(rng.randrange(nb), rng.randrange(nb)) for _ in range(30)]
        verdicts = []
        for n, (i, j) in enumerate(cases):
            delta = Fraction(rng.choice([-2, -1, 1, 3]), rng.choice([1, 2]))
            bad = _perturbed(scaled if n % 2 else table, i, j, rng.randrange(nb), delta)
            verdicts.append(bad.check_associative())
            assert verdicts[-1] == _associative_by_all_triples(bad), (i, j)
        assert not verdicts[0] and not verdicts[1]


def test_associativity_check_on_odd_denominators(dim3, kap, dim7):
    # the integer walk scales a whole table by one factor; tables rescaled
    # with denominators 3, 5, 7 and 9, and perturbations by deltas whose
    # denominators (11, 13) divide none of the table's, get the verdict of
    # the walk over all triples
    rng = seeded(1601)
    for alg, n in ((dim3, 3), (kap, 3), (dim7, 2)):
        table = structure_constants(alg, n)
        nb = len(table.basis)
        scaled = _rescaled(table, [Fraction(rng.choice([-4, -2, -1, 1, 2]),
                                            rng.choice([3, 5, 7, 9]))
                                   for _ in range(nb)])
        dens = lcm(*(v.denominator for cell in scaled.table.values()
                     for v in cell.values()))
        assert dens % (3 * 5 * 7) == 0
        assert scaled.check_associative() and _associative_by_all_triples(scaled)
        how = dict(_closure(scaled, scaled.table))
        rows = [max(i for i, h in how.items() if h is None)]
        rows += [i for i, h in how.items() if h is not None][-1:]
        cases = [(i, rng.randrange(nb)) for i in rows]
        cases += [(rng.randrange(nb), rng.randrange(nb)) for _ in range(14)]
        verdicts = []
        for i, j in cases:
            delta = Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([11, 13]))
            assert dens % delta.denominator
            bad = _perturbed(scaled, i, j, rng.randrange(nb), delta)
            verdicts.append(bad.check_associative())
            assert verdicts[-1] == _associative_by_all_triples(bad), (i, j)
        assert not any(verdicts[:len(rows)])


def test_brauer_images_match_fresh_normalize(dim3, kap):
    for alg in (dim3, kap):
        diagrams, images, _, _ = brauer_map(alg, 3)
        for d in diagrams:
            assert images[d] == normalize(matching_word(3, d), alg)


def test_budget_guard(dim7, dim3):
    with pytest.raises(BudgetError):
        structure_constants(dim7, 4)
    with pytest.raises(BudgetError):
        structure_constants(dim3, 5)


def test_table_cell_budget_boundary(dim3, monkeypatch):
    # one cell budget for every case, checked against len(basis) ** 2: dim3
    # n = 4 has 91^2 = 8,281 cells
    monkeypatch.setattr(centralizer, "MAX_TABLE_CELLS", 8280)
    with pytest.raises(BudgetError, match="8281 cells"):
        structure_constants(dim3, 4)
    monkeypatch.setattr(centralizer, "MAX_TABLE_CELLS", 8281)
    assert len(structure_constants(dim3, 4).basis) == 91
    assert "CaseTag" not in inspect.getsource(structure_constants)


@pytest.mark.parametrize("case,n", [("dim3", 5), ("kap", 5), ("dim3", 7)])
def test_catalan_tables_refused_before_enumeration(request, case, n, monkeypatch):
    # riordan(2n) ** 2 cells is known up front, so an over-budget Catalan
    # table is refused before a single diagram is built
    def refuse(*args):
        raise AssertionError("an over-budget table's basis was enumerated")

    monkeypatch.setattr(basis, "enumerate_catalan", refuse)
    with pytest.raises(BudgetError, match=f"the table has {riordan(2 * n) ** 2} cells"):
        structure_constants(request.getfixturevalue(case), n)


def test_brauer_abstract_algebra():
    n = 3
    diags = brauer_diagrams(n)
    assert len(diags) == 15
    e = brauer_identity(n)
    for d in diags:
        assert brauer_compose(d, e, n) == (d, 0)
        assert brauer_compose(e, d, n) == (d, 0)
    ei = brauer_e(n, 0)
    prod, loops = brauer_compose(ei, ei, n)
    assert prod == ei and loops == 1
    s0, s1 = brauer_sigma(n, 0), brauer_sigma(n, 1)
    lhs = brauer_compose(brauer_compose(s0, s1, n)[0], s0, n)
    rhs = brauer_compose(brauer_compose(s1, s0, n)[0], s1, n)
    assert lhs == rhs     # braid relation


def _render_brauer(d):
    return " ".join(f"{a[0]}{a[1]}-{b[0]}{b[1]}" for a, b in sorted(sorted(p) for p in d))


def test_brauer_products_pinned():
    # every ordered product for n <= 4 (11,025 at n = 4) with its loop
    # count, pinned to the adjacency search that walked the glued matchings
    digest = hashlib.sha256()
    for n in range(5):
        diags = sorted(brauer_diagrams(n), key=_render_brauer)
        for d1 in diags:
            for d2 in diags:
                prod, loops = brauer_compose(d1, d2, n)
                digest.update(f"{_render_brauer(d1)}|{_render_brauer(d2)}|"
                              f"{_render_brauer(prod)}|{loops}\n".encode())
    assert digest.hexdigest() == ("c28f03b789826c5357414165d6cf7542"
                                  "df43def5608ad6fac4432126a41e1bc8")


def test_matching_word_realizes_diagrams(dim3):
    n = 3
    for d in brauer_diagrams(n):
        w = matching_word(n, d)
        assert w.n_in == w.n_out == n
        evaluate(w, dim3)     # arity-consistent and evaluable


def test_brauer_map_parameters(dim3, kap):
    _, _, delta3, rep3 = brauer_map(dim3, 3)
    assert delta3 == 3
    assert rep3["homomorphism"] and rep3["e_squared"]
    assert rep3["bijective"] and rep3["image_rank"] == 15
    _, _, deltak, repk = brauer_map(kap, 3)
    assert deltak == -1
    assert repk["homomorphism"] and repk["bijective"] and repk["image_rank"] == 15


def test_brauer_identity_maps_to_identity(dim3):
    n = 2
    out = normalize(matching_word(n, brauer_identity(n)), dim3)
    (d, c), = list(out)
    assert c == 1 and d.vertex_count() == 0
    comps = sorted(sorted(cb) for _, cb in d.components())
    assert comps == [[("b", 0), ("t", 0)], [("b", 1), ("t", 1)]]


def test_matrix_model_dim7_n2(dim7):
    rep = matrix_model(dim7, 2)
    assert rep["basis_size"] == 4
    assert rep["independent"] and rep["structure_match"] and rep["equivariant"]
    # rank 4 equals the oracle's invariant dimension for V^(x)4
    assert rep["basis_size"] == invariant_dim(dim7, 4)


def test_matrix_model_3dim_n3(dim3, kap):
    for alg in (dim3, kap):
        rep = matrix_model(alg, 3)
        assert rep["basis_size"] == 15
        assert rep["independent"] and rep["structure_match"]
        assert rep["equivariant"] and rep["identity"] and rep["associative"]


def test_matrix_model_catches_a_wrong_coefficient(dim3, monkeypatch):
    # one perturbed table coefficient no longer matches the composed maps
    def perturbed(alg, n):
        table = structure_constants(alg, n)
        (i, j), row = min(table.table.items())
        k = min(row)
        table.table[(i, j)] = {**row, k: row[k] + 1}
        return table

    monkeypatch.setattr(centralizer, "structure_constants", perturbed)
    rep = matrix_model(dim3, 2)
    assert rep["independent"] and not rep["structure_match"]


def test_matrix_model_catches_a_wrong_derived_row(dim3, kap, monkeypatch):
    # only the generator rows' cells are composed; a wrong cell in a row
    # that _closure derives, from a single-term cell or through a cell of
    # several terms, is caught through associativity
    real = structure_constants

    def perturbed(alg, n):
        table = real(alg, n)
        derived = {i: how for i, how in centralizer._closure(table, table.table)
                   if how is not None}
        rows = [i for i, how in derived.items() if bool(how[3]) is with_rest]
        (i, j), row = min((ij, row) for ij, row in table.table.items()
                          if ij[0] in rows and row)
        k = min(row)
        table.table[(i, j)] = {**row, k: row[k] + 1}
        return table

    monkeypatch.setattr(centralizer, "structure_constants", perturbed)
    for with_rest in (False, True):
        for alg in (dim3, kap):
            rep = matrix_model(alg, 3)
            assert rep["independent"] and not rep["structure_match"], (alg.case, with_rest)


def test_kap_example_map(kap):
    # the centralizer element sending u (x) v (x) w to
    # sum_i u (x) ((v x w) x y_i) (x) x_i, built directly from dual bases,
    # equals the evaluation of the basis diagram with blocks {1,1'} and
    # {2,3,3',2'}
    from tangleweb.algebra import dual_bases
    from tangleweb.basis import build_normalized
    db = dual_bases(kap)
    d = kap.dim
    entries = {}
    for u in range(d):
        for v in range(d):
            for w in range(d):
                for i in range(d):
                    vw = kap.times_vec({v: Fraction(1)}, {w: Fraction(1)})
                    out_vec = kap.times_vec(vw, db.v[i])
                    for a, c in out_vec.items():
                        for b, cx in db.u[i].items():
                            key = ((u, a, b), (u, v, w))
                            val = entries.get(key, Fraction(0)) + c * cx
                            if val:
                                entries[key] = val
                            elif key in entries:
                                del entries[key]
    direct = TensorMap(kap, 3, 3, entries)
    diagram = build_normalized(3, 3, ((0, 5), (1, 2, 3, 4)))
    assert eval_diagram(diagram, kap) == direct
