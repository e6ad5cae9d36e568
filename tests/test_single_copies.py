"""Guards against duplicate machinery growing back in the library."""

import dataclasses
import inspect
import pathlib
import re

import tangleweb
from tangleweb import (algebra, basis, centralizer, cli, grassmann, linalg, oracle, planar,
                       rewrite, tangle, tensor)

SRC = pathlib.Path(tangleweb.__file__).parent


def test_one_budget_error():
    assert linalg.BudgetError is basis.BudgetError
    assert oracle.BudgetError is basis.BudgetError
    assert centralizer.BudgetError is basis.BudgetError


def test_one_fraction_formatter():
    pattern = 'f"{f.numerator}/{f.denominator}"'
    hits = [p.name for p in sorted(SRC.glob("*.py"))
            for line in p.read_text().splitlines() if pattern in line]
    assert hits == ["algebra.py"]


def test_one_rank_path():
    # ranks are exact over Q: no prime field mode and one dim^n limit
    for name in ("_is_prime", "_fresh_primes", "_lie_generators", "_GEN_CACHE",
                 "random", "DIM_LIMITS", "PRIME", "MODP_LIMIT"):
        assert not hasattr(oracle, name), name
    assert list(inspect.signature(linalg.sparse_rank).parameters) == ["rows"]
    assert not hasattr(linalg, "_row_mod")


def test_one_span_test(dim3, monkeypatch):
    # sparse_rank, the bracket-closure check and the search for a generating
    # subset all eliminate through one linalg.RowSpan; no rank is recomputed
    # from scratch per bracket
    made = []

    class Counted(linalg.RowSpan):
        __slots__ = ()

        def __init__(self):
            made.append(1)
            super().__init__()

    monkeypatch.setattr(linalg, "RowSpan", Counted)
    monkeypatch.setattr(oracle, "RowSpan", Counted)
    der = oracle.derivations(dim3)
    assert oracle.check_closed_under_bracket(der) and len(made) == 1
    assert oracle.generating_subset(der) == [0, 1] and len(made) == 2
    assert oracle.generating_subset(der) == [0, 1] and len(made) == 2
    assert linalg.sparse_rank([{0: 1}, {0: 2}]) == 1 and len(made) == 3
    assert "sparse_rank" not in inspect.getsource(oracle.check_closed_under_bracket)


def test_grading_reads_no_case_table():
    # the grading comes from the derivation basis alone, so the oracle stays
    # independent of the per-case tables it certifies
    for fn in (oracle._index_grades, oracle._add_grade, oracle._grade_classes,
               oracle.zero_grade, oracle._all_action_rows, linalg.sparse_mul,
               oracle.derivations):
        src = inspect.getsource(fn)
        assert ".case" not in src and "CaseTag" not in src, fn.__name__


def test_one_surgery_and_no_pass_through_layers():
    # every rewrite rule is applied by rewrite._apply and its leg order read
    # by rewrite._stub_positions; the case wrappers and one-line aliases
    # are gone
    for name in ("_apply_face_rule", "_apply_rotation", "_pattern_leg_order",
                 "normalize_so3", "normalize_g2", "normalize_super",
                 "derive_crossing_rule"):
        assert not hasattr(rewrite, name), name
        assert not hasattr(tangleweb, name), name
    assert not hasattr(centralizer, "centralizer_basis")
    assert not hasattr(tensor.TensorMap, "copy")


def test_products_glue_planar_diagrams_in_one_engine():
    # structure tables stack diagrams with planar.compose_planar, not by a
    # round trip through words; normalize only feeds normalize_diagrams
    src = inspect.getsource(centralizer.structure_constants)
    for name in ("compose_tangles", "planar_to_word", "word_to_planar"):
        assert name not in src, name
    module = inspect.getsource(rewrite)
    assert module.count("while stack:") == 1
    assert module.count("= _find_step(") == 1
    assert "while" not in inspect.getsource(rewrite.normalize)


def test_one_crossing_pass():
    # crossings expand in one pass over the input's slices: no work stack,
    # and each crossing-free word is built once
    src = inspect.getsource(rewrite._word_terms_without_crossings)
    assert "while" not in src
    assert src.count("TangleWord(") == 1


def test_one_dense_elimination(monkeypatch):
    # solves, nullspaces and inverses all eliminate through linalg.rref
    calls = []
    real = linalg.rref

    def counted(rows, ncols):
        calls.append(ncols)
        return real(rows, ncols)

    monkeypatch.setattr(linalg, "rref", counted)
    for name, run in (("solve_exact", lambda: linalg.solve_exact([{0: 1}, {1: 2}], {0: 3})),
                      ("nullspace", lambda: linalg.nullspace([[1, 2]], 2)),
                      ("invert_matrix", lambda: linalg.invert_matrix([[2]]))):
        calls.clear()
        run()
        assert calls, name


def test_one_row_closure(dim3, monkeypatch):
    # the table builder and the associativity check reach rows through the
    # same centralizer._closure, so they cannot disagree on what a derived
    # row is
    calls = []
    real = centralizer._closure

    def counted(st, table):
        calls.append(len(st.basis))
        return real(st, table)

    monkeypatch.setattr(centralizer, "_closure", counted)
    table = centralizer.structure_constants(dim3, 2)
    assert calls == [3]
    assert table.check_associative()
    assert calls == [3, 3]


def test_tables_sum_integers_in_one_expand(kap, monkeypatch):
    # the table builder and the associativity check both form their sums in
    # centralizer._expand, over integer numerators only, and the builder in
    # exactly one call per derived row; every scaling to integers goes
    # through linalg.clear_denominators, so centralizer has no lcm or gcd of
    # its own
    calls, terms = [], []
    real = centralizer._expand

    def counted(items):
        def checked():
            for k, c, cell in items:
                terms.append(type(c) is int and all(type(v) is int for v in cell.values()))
                yield k, c, cell

        calls.append(1)
        return real(checked())

    monkeypatch.setattr(centralizer, "_expand", counted)
    table = centralizer.structure_constants(kap, 3)
    assert terms and all(terms)
    derived = len(table.basis) - len(table.generator_rows())
    assert derived and len(calls) == derived
    terms.clear()
    assert table.check_associative()
    assert terms and all(terms)
    assert centralizer.clear_denominators is linalg.clear_denominators
    src = inspect.getsource(centralizer)
    for name in ("gcd", "lcm"):
        assert not hasattr(centralizer, name), name
        assert f"{name}(" not in src, name


def test_case_facts_read_off_the_algebra():
    # the crossing rule solves against the same four words in every case,
    # the rotation rule reads its tree and pairings off the case's basis,
    # and the Brauer loop value is the derived circle value, not a literal
    assert "CaseTag" not in inspect.getsource(rewrite.RuleSet._derive_crossing)
    src = inspect.getsource(rewrite.RuleSet._derive_rotation)
    assert src.count("build_normalized(") == 1 and "basis_diagrams(" in src
    src = inspect.getsource(centralizer.brauer_map)
    assert "Fraction(" not in src and "rules_for(alg).circle_value" in src


def test_one_euler_count():
    # planarity is one V - E + F = 2c over the closed-up map, with no
    # counters kept per component
    src = inspect.getsource(planar.PlanarDiagram._check_genus)
    for name in ("defaultdict", "import", "comp["):
        assert name not in src, name


def test_one_web_vertex_budget():
    # each open region of the web search carries its own vertex cap, and the
    # root cap is the whole search's budget: no global count beside it
    src = inspect.getsource(basis.enumerate_webs)
    assert "vleft" not in src
    assert src.count("def rec(region, cap, others)") == 1


def test_one_web_budget():
    # the web search's boundary budget is the constant basis.MAX_WEB_POINTS:
    # the library reads no environment and takes no budget argument
    for p in sorted(SRC.glob("*.py")):
        text = p.read_text()
        assert "environ" not in text and "getenv" not in text, p.name
    for fn in (basis.enumerate_webs, basis.basis_diagrams):
        assert "budget" not in inspect.signature(fn).parameters, fn.__name__
    assert not hasattr(cli, "_budget")


def test_left_combs_recognized_without_rebuilding(monkeypatch):
    # build_normalized is the one left-comb builder; the 3-dimensional
    # recognizer walks the diagram instead of building a reference copy
    diagrams = [t.diagram for t in basis.enumerate_catalan(3, 3)]

    def refuse(*args):
        raise AssertionError("is_basis_diagram built a left comb")

    monkeypatch.setattr(basis, "build_normalized", refuse)
    assert all(basis.is_basis_diagram(d, basis.CaseTag.DIM3) for d in diagrams)
    for fn in (basis.is_basis_diagram, basis.comb_defect):
        assert "build_normalized(" not in inspect.getsource(fn), fn.__name__


def test_one_left_comb_walk(dim3, monkeypatch):
    # the tree stage reads its rotation off the walk that recognizes left
    # combs, and the engine has one rewrite order, with no strategy knob
    for name in ("_find_tree_move", "_locate_right_heavy", "_pick"):
        assert not hasattr(rewrite, name), name
    for fn in (rewrite.normalize, rewrite.normalize_diagrams, rewrite._find_step):
        assert "strategy" not in inspect.signature(fn).parameters, fn.__name__
    for fn in (rewrite.normalize, rewrite.normalize_diagrams):
        params = inspect.signature(fn).parameters
        for name in ("trace", "memo"):
            assert params[name].kind is inspect.Parameter.KEYWORD_ONLY, (fn.__name__, name)
    assert rewrite.comb_defect is basis.comb_defect
    calls = []
    real = basis.comb_defect

    def counted(d):
        calls.append(d)
        return real(d)

    monkeypatch.setattr(basis, "comb_defect", counted)
    monkeypatch.setattr(rewrite, "comb_defect", counted)
    right = tangleweb.word_to_planar(tangleweb.parse_word("tangle 3 -> 1 / id,m / m"))
    assert not basis.is_basis_diagram(right, basis.CaseTag.DIM3) and calls == [right]
    rule, _, _ = rewrite._find_step(right, rewrite.rules_for(dim3))
    assert rule == "rotate-tree" and calls == [right, right]


def test_one_face_walk():
    # internal faces and the web search's face test both walk faces with
    # PlanarDiagram.face_walk
    for name in ("face_next", "is_boundary_h"):
        assert not hasattr(planar.PlanarDiagram, name), name
    assert not hasattr(basis, "_closed_face")
    assert "face_walk(" in inspect.getsource(planar.PlanarDiagram.internal_faces)
    assert "face_walk(" in inspect.getsource(basis.enumerate_webs)


def test_one_sparse_matrix_product():
    # tensor maps and the oracle's matrices multiply in linalg.sparse_mul
    assert not hasattr(oracle, "_sparse_mul")
    assert tensor.sparse_mul is linalg.sparse_mul
    assert oracle.sparse_mul is linalg.sparse_mul
    src = inspect.getsource(tensor.compose)
    assert "sparse_mul(" in src
    for word in ("for ", "while "):
        assert word not in src, word


def test_one_sparse_sum():
    # the matrix model checks its cells with the sum the table builder uses
    for name in ("_cell_matches", "_flat_key"):
        assert not hasattr(centralizer, name), name
    assert "_expand(" in inspect.getsource(centralizer.matrix_model)
    # every sparse linear combination is summed by linalg.sparse_sum; the
    # only loops of their own are the three that say why they stay
    for module in (tensor, oracle, centralizer, algebra, grassmann):
        assert module.sparse_sum is linalg.sparse_sum, module.__name__
    for fn in (linalg.sparse_mul, centralizer._expand):
        assert "sparse_sum(" in inspect.getsource(fn), fn.__name__
    assert ".get(" not in inspect.getsource(tensor.tensor_product)
    kept = [inspect.getsource(fn) for fn in (tangle.LinComb.add_term, linalg._reduce,
                                             linalg._eliminate)]
    for src in kept:
        assert "not by sparse_sum" in src or "not linalg.sparse_sum" in src
    accumulate = re.compile(r"\.get\(.*,\s*(Fraction\(0\)|0)\)\s*[-+]")
    hits = [(p.name, line.strip()) for p in sorted(SRC.glob("*.py"))
            for line in p.read_text().splitlines() if accumulate.search(line)]
    assert len(hits) == 3, hits
    for name, line in hits:
        assert any(line in src for src in kept), (name, line)
    # nor does any loop sum whole sparse values into a dict, as
    # out[k] = add(out.get(k, {}), term) would
    nested = re.compile(r"\.get\(.*,\s*\{\}\)")
    hits = [(p.name, line.strip()) for p in sorted(SRC.glob("*.py"))
            for line in p.read_text().splitlines() if nested.search(line)]
    assert not hits, hits


def test_one_nested_pairing_loop_and_one_action_table():
    # bn and bnt are one loop; the action rows are written directly from one
    # table per column, with no negated copy and no per-row sum
    assert not hasattr(tensor, "_middle")
    assert "_nested(" in inspect.getsource(tensor.bn)
    assert "_nested(" in inspect.getsource(tensor.bnt)
    src = inspect.getsource(oracle._action_rows)
    assert "sparse_sum(" not in src and "neg" not in src


def test_algebra_built_in_one_call():
    # gram_inv is a constructor argument, not set on a frozen instance
    fields = [f.name for f in dataclasses.fields(algebra.CrossAlgebra)]
    assert "names" not in fields and "gram_inv" in fields
    assert "__setattr__" not in inspect.getsource(algebra.build)
