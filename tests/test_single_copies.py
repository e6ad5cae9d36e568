"""Guards against duplicate machinery growing back in the library."""

import inspect
import pathlib

import tangleweb
from tangleweb import basis, centralizer, oracle

SRC = pathlib.Path(tangleweb.__file__).parent


def test_one_budget_error():
    assert oracle.BudgetError is basis.BudgetError
    assert centralizer.BudgetError is basis.BudgetError


def test_one_fraction_formatter():
    pattern = 'f"{f.numerator}/{f.denominator}"'
    hits = [p.name for p in sorted(SRC.glob("*.py"))
            for line in p.read_text().splitlines() if pattern in line]
    assert hits == ["algebra.py"]


def test_one_rank_path():
    for name in ("_is_prime", "_fresh_primes", "_lie_generators", "_GEN_CACHE",
                 "random", "DIM_LIMITS"):
        assert not hasattr(oracle, name), name


def test_grading_reads_no_case_table():
    # the grading comes from the derivation basis alone, so the oracle stays
    # independent of the per-case tables it certifies
    for fn in (oracle._index_grades, oracle._add_grade, oracle._grade_classes,
               oracle.zero_grade, oracle._all_action_rows, oracle._sparse_mul):
        src = inspect.getsource(fn)
        assert ".case" not in src and "CaseTag" not in src, fn.__name__
