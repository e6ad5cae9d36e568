"""Golden-file stability: regenerated tables and basis listings must match
the checked-in JSON byte for byte (up to JSON re-serialization)."""

import json
import pathlib

import pytest

from tangleweb.algebra import CaseTag, build
from tangleweb.basis import enumerate_catalan, enumerate_webs
from tangleweb.centralizer import structure_constants

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize("case,n", [
    (CaseTag.DIM3, 1), (CaseTag.DIM3, 2), (CaseTag.DIM3, 3),
    (CaseTag.KAP, 1), (CaseTag.KAP, 2), (CaseTag.KAP, 3),
    (CaseTag.DIM7, 1), (CaseTag.DIM7, 2),
])
def test_centralizer_tables_stable(case, n):
    want = json.loads((GOLDEN / f"centralizer_{case.value}_n{n}.json").read_text())
    got = structure_constants(build(case), n).to_json_obj()
    assert json.loads(json.dumps(got)) == want


@pytest.mark.parametrize("case", [CaseTag.DIM3, CaseTag.DIM7])
def test_basis_listings_stable(case):
    want = json.loads((GOLDEN / f"basis_{case.value}.json").read_text())
    for key, encs in want.items():
        n, m = map(int, key.split(","))
        if case is CaseTag.DIM7:
            got = [w.canonical_encoding().decode() for w in enumerate_webs(n, m)]
        else:
            got = [t.diagram.canonical_encoding().decode()
                   for t in enumerate_catalan(n, m)]
        assert got == encs, (case, n, m)
