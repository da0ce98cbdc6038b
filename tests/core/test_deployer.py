"""Tests for the Design Deployer (Figure 3's deployment side)."""

from pathlib import Path

import pytest

from repro import Quarry
from repro.core.deployer import Deployer
from repro.core.deployer import ddl, pdi, sqlscript
from repro.core.interpreter import Interpreter
from repro.errors import DeploymentError
from repro.etlmodel.equivalence import prune_columns
from repro.sources import tpch

from benchmarks._workloads import ROW_COUNTS, requirement_corpus

from .conftest import build_netprofit_requirement, build_revenue_requirement

OUTPUT = Path(__file__).resolve().parents[2] / "examples" / "deployment_output"


@pytest.fixture(scope="module")
def design():
    interpreter = Interpreter(tpch.ontology(), tpch.schema(), tpch.mappings())
    return interpreter.interpret(build_revenue_requirement())


@pytest.fixture(scope="module")
def deployer():
    return Deployer(source_schema=tpch.schema())


@pytest.fixture(scope="module")
def example_design():
    """The two-requirement design ``examples/deployment.py`` builds."""
    quarry = Quarry(tpch.ontology(), tpch.schema(), tpch.mappings())
    quarry.add_requirement(build_revenue_requirement())
    quarry.add_requirement(build_netprofit_requirement())
    return quarry


class TestDDL:
    def test_figure3_shape(self, design):
        script = ddl.generate(design.md_schema, database_name="demo")
        assert "CREATE DATABASE demo;" in script
        assert "CREATE TABLE fact_table_revenue (" in script
        assert "revenue double precision" in script
        assert "PRIMARY KEY( p_name, s_name )" in script
        assert 'CREATE TABLE "dim_Part" (' in script

    def test_dimension_tables_carry_all_levels(self, design):
        script = ddl.generate(design.md_schema)
        # Supplier dimension is complemented to Nation and Region.
        assert "n_name" in script and "r_name" in script

    def test_sqlite_dialect(self, design):
        script = ddl.generate(design.md_schema, dialect="sqlite")
        assert "REAL" in script
        assert "double precision" not in script

    def test_unknown_dialect_rejected(self, design):
        with pytest.raises(DeploymentError):
            ddl.generate(design.md_schema, dialect="oracle")

    def test_grain_column_must_come_from_linked_dimension(self, design):
        broken = design.md_schema.copy()
        broken.fact("fact_table_revenue").grain.append("ghost_column")
        with pytest.raises(DeploymentError):
            ddl.generate(broken)


class TestPDI:
    def test_figure3_shape(self, design):
        ktr = pdi.generate(design.etl_flow, database="demo")
        assert "<transformation>" in ktr
        assert "<database>demo</database>" in ktr
        assert "<hop>" in ktr
        assert "<from>DATASTORE_lineitem</from>" in ktr
        assert "<type>TableInput</type>" in ktr
        assert "<type>TableOutput</type>" in ktr

    def test_steps_cover_all_operations(self, design):
        ktr = pdi.generate(design.etl_flow)
        for name in design.etl_flow.node_names():
            assert f"<name>{name}</name>" in ktr

    def test_join_step_parameters(self, design):
        ktr = pdi.generate(design.etl_flow)
        assert "<join_type>INNER</join_type>" in ktr
        assert "<key>l_orderkey</key>" in ktr

    def test_aggregate_types_translated(self, design):
        ktr = pdi.generate(design.etl_flow)
        assert "<type>AVERAGE</type>" in ktr

    def test_is_well_formed_xml(self, design):
        import xml.etree.ElementTree as ET

        ET.fromstring(pdi.generate(design.etl_flow))


class TestSqlScript:
    def test_blocks_per_loader(self, design):
        script = sqlscript.generate(design.etl_flow)
        assert script.count("INSERT INTO") == 3  # fact + 2 dims
        assert "TRUNCATE TABLE fact_table_revenue;" in script
        assert "WITH " in script

    def test_selection_rendered_as_where(self, design):
        script = sqlscript.generate(design.etl_flow)
        assert "WHERE (n_name = 'SPAIN')" in script

    def test_aggregation_rendered_with_group_by(self, design):
        script = sqlscript.generate(design.etl_flow)
        assert "AVG(revenue) AS revenue" in script
        assert "GROUP BY p_name, s_name" in script

    def test_join_rendered_with_on(self, design):
        script = sqlscript.generate(design.etl_flow)
        assert " JOIN " in script and " ON " in script

    def test_distinct_rendered(self, design):
        script = sqlscript.generate(design.etl_flow)
        assert "SELECT DISTINCT *" in script


class TestNativeDeployment:
    def test_native_deploy_creates_and_fills_star(self, design, deployer):
        from repro.engine import Database, OlapQuery, query_star

        database = Database()
        database.load_source(tpch.schema(), tpch.generate(0.2, seed=21))
        result = deployer.deploy(
            design.md_schema, design.etl_flow, "native",
            source_database=database,
        )
        assert result.stats is not None
        assert database.has_table("fact_table_revenue")
        assert database.has_table("dim_Supplier")
        # Fact table was pre-created with the declared PK: loading a
        # second time in replace mode must still work.
        deployer.deploy(
            design.md_schema, design.etl_flow, "native",
            source_database=database,
        )
        # The deployed star answers OLAP queries.
        answer = query_star(
            database,
            OlapQuery(
                fact_table="fact_table_revenue",
                group_by=["s_name"],
                aggregates=[("AVERAGE", "revenue", "avg_rev")],
            ),
        )
        assert len(answer) >= 0

    def test_native_deploy_of_a_pruned_flow_loads_the_same_rows(self):
        """Deploying prunes again: a second ``prune_columns`` pass must
        pick fresh ``PRUNE_`` names and change no loaded row."""
        from repro.engine import Database

        quarry = Quarry(
            tpch.ontology(), tpch.schema(), tpch.mappings(),
            row_counts=ROW_COUNTS,
        )
        for requirement in requirement_corpus(4):
            quarry.add_requirement(requirement)
        md_schema, etl = quarry.unified_design()
        data = tpch.generate(0.1)
        loaded = []
        for flow in (etl, prune_columns(etl)):
            database = Database()
            database.load_source(tpch.schema(), data)
            Deployer().deploy(
                md_schema, flow, "native", source_database=database
            )
            loaded.append(
                {
                    table: database.scan(table).rows
                    for table in sorted(database.row_counts())
                }
            )
        assert loaded[1] == loaded[0]

    def test_native_requires_source_database(self, design, deployer):
        with pytest.raises(DeploymentError):
            deployer.deploy(design.md_schema, design.etl_flow, "native")

    def test_unknown_platform_rejected(self, design):
        with pytest.raises(DeploymentError) as raised:
            Deployer().deploy(design.md_schema, design.etl_flow, "cobol")
        assert str(raised.value) == (
            "unknown platform 'cobol'; supported: "
            "('postgres', 'sqlite', 'pdi', 'sql', 'pig', 'native')"
        )

    def test_generation_platforms_return_artifacts(self, design, deployer):
        for platform, key in [
            ("postgres", "ddl"), ("sqlite", "ddl"),
            ("pdi", "ktr"), ("sql", "script"),
        ]:
            result = deployer.deploy(design.md_schema, design.etl_flow, platform)
            assert key in result.artifacts
            assert result.artifacts[key]

    def test_exporters_registered_in_metadata_registry(self, deployer):
        notations = deployer.registry.notations("etl_flow", "export")
        assert "pdi" in notations and "sql" in notations and "xlm" in notations
        assert "ddl-postgres" in deployer.registry.notations(
            "md_schema", "export"
        )


class TestPlatformTable:
    @pytest.mark.parametrize(
        "platform, artifact, filename",
        [
            ("postgres", "ddl", "star_schema.sql"),
            ("sqlite", "ddl", "star_schema.sqlite.sql"),
            ("pdi", "ktr", "etl_process.ktr"),
            ("sql", "script", "etl_process.sql"),
        ],
    )
    def test_artifacts_match_committed_example_output(
        self, example_design, platform, artifact, filename
    ):
        text = example_design.deploy(platform).artifacts[artifact]
        assert text == (OUTPUT / filename).read_text(encoding="utf-8")
