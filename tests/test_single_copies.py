"""Guards against duplicate machinery growing back in the library."""

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
