"""Golden digests of large unified designs.

``test_services.py`` pins the 2-requirement design against the files in
``examples/design/``.  The designs here are too large to commit as
text, so their sha256 digests are pinned instead:

* the xMD and xLM text of the unified design for the 12- and
  48-requirement benchmark corpora,
* every fold step's ETL consolidation figures
  ``(cost_unified, cost_separate, reused, added, widened)``,
* the unified design after ``rename_concept("Customer", "Client123")``.

Any change to the integrator, the cost model, the flow graph or the
writers that alters one byte of output, one reused node or one bit of
a cost estimate fails here.
"""

import hashlib
import json

import pytest

from repro import Quarry
from repro.sources import tpch
from repro.xformats import xlm, xmd

from benchmarks._workloads import ROW_COUNTS, requirement_corpus

#: size -> (xMD, xLM, fold figures, xMD after rename, xLM after rename)
GOLDEN = {
    12: (
        "efacc00a62b589053c81eeac8ca5958be31d15237386e7e0fa292eac6e8eb23d",
        "2ea93e66421642f1ed5a939367e062800d37acf78c15f73f47d30cf592a16e81",
        "7cec8f1bb3cd494952cff51a16148799f8c0849167cd6605ddec348aed4961cb",
        "3f7d83b70f74ef2b07af7cfe0534706856f00980514e44041a605d405352e1e8",
        "f1a4a956dd2535d944fc5704af2c45cdba4cd26a21f1f6f6ad759df81af2bc9f",
    ),
    48: (
        "02b7ec3805bb33a6165837c282bb43e2a90dda11dc0996664b6fce668b060f1d",
        "4ab1e7ab105825ca88f8e88db79833e860f9d8d0a59424322bcf4f34820a28d3",
        "49c47a32057dab97575e80feac7393bd2be9f5068af93b0170db62a687f162d7",
        "10a0b25ca591c03980cc28d2c835c5dd2987fccc176057a2b441e1901bdc477a",
        "f6bd923a6b80845be4562f8e309a194ee9d126d19f21aebe485336bdfd278545",
    ),
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def design_digests(quarry):
    md_schema, etl_flow = quarry.unified_design()
    return digest(xmd.dumps(md_schema)), digest(xlm.dumps(etl_flow))


@pytest.fixture(scope="module", params=sorted(GOLDEN))
def built(request):
    """Per corpus size: the design's digests, each fold's figures and
    the digests after the rename, all taken before any test runs."""
    quarry = Quarry(
        tpch.ontology(), tpch.schema(), tpch.mappings(), row_counts=ROW_COUNTS
    )
    folds = []
    for requirement in requirement_corpus(request.param):
        etl = quarry.add_requirement(requirement).etl_consolidation
        folds.append(
            [etl.cost_unified, etl.cost_separate, etl.reused, etl.added, etl.widened]
        )
    before = design_digests(quarry)
    quarry.rename_concept("Customer", "Client123")
    return request.param, before, folds, design_digests(quarry)


def test_unified_design_text(built):
    size, before, __, __ = built
    assert before == GOLDEN[size][:2]


def test_fold_figures(built):
    size, __, folds, __ = built
    assert digest(json.dumps(folds)) == GOLDEN[size][2]


def test_design_after_rename(built):
    size, __, __, after = built
    assert after == GOLDEN[size][3:]
