"""Guards against duplicate machinery growing back in the library."""

import inspect
import pathlib

import tangleweb
from tangleweb import basis, centralizer, linalg, oracle, rewrite, tensor

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


def test_grading_reads_no_case_table():
    # the grading comes from the derivation basis alone, so the oracle stays
    # independent of the per-case tables it certifies
    for fn in (oracle._index_grades, oracle._add_grade, oracle._grade_classes,
               oracle.zero_grade, oracle._all_action_rows, oracle._sparse_mul):
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
