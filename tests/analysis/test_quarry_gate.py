"""The lint gate in front of ``Quarry.deploy``."""

import pytest

from repro import Quarry
from repro.errors import LintError
from repro.etlmodel import Selection
from repro.sources import tpch

from tests.core.conftest import (
    build_netprofit_requirement,
    build_revenue_requirement,
)


@pytest.fixture()
def quarry():
    instance = Quarry(tpch.ontology(), tpch.schema(), tpch.mappings())
    instance.add_requirement(build_revenue_requirement())
    instance.add_requirement(build_netprofit_requirement())
    return instance


def test_unified_design_lints_clean(quarry):
    report = quarry.lint()
    assert report.errors == []
    assert report.warnings == []
    # The AVERAGE revenue measure is non-distributive: one INFO, by design.
    assert [d.code for d in report.infos] == ["QRY412"]


def test_deploy_attaches_the_lint_artifact(quarry):
    result = quarry.deploy("postgres")
    assert "lint" in result.artifacts
    assert "QRY412" in result.artifacts["lint"]


def test_errors_block_deployment(quarry):
    _md, flow = quarry.unified_design()
    flow.add(Selection("stray", predicate="1 = 1"))  # dead-end node
    with pytest.raises(LintError) as excinfo:
        quarry.deploy("postgres")
    codes = {d.code for d in excinfo.value.diagnostics}
    assert "QRY004" in codes  # non-loader sink
    assert all(d.severity.value == "error" for d in excinfo.value.diagnostics)


def test_gate_can_be_bypassed(quarry):
    _md, flow = quarry.unified_design()
    flow.add(Selection("stray", predicate="1 = 1"))
    result = quarry.deploy("postgres", lint_gate=False)
    assert "lint" not in result.artifacts


def test_disable_via_quarry_lint(quarry):
    report = quarry.lint(disable=["QRY412"])
    assert report.diagnostics == []
