"""Tests for executing generated SQL against the embedded database."""

import pytest

from repro.engine import Database, OlapQuery, TableDef, query_star
from repro.engine.sqlexec import execute_ddl, execute_select
from repro.errors import EngineError
from repro.expressions import ScalarType

INT = ScalarType.INTEGER
STR = ScalarType.STRING
DEC = ScalarType.DECIMAL


@pytest.fixture
def star_db():
    database = Database()
    database.create_table(
        TableDef(
            "fact_sales",
            {"p_name": STR, "region": STR, "revenue": DEC},
        )
    )
    database.insert_many(
        "fact_sales",
        [
            {"p_name": "bolt", "region": "EU", "revenue": 10.0},
            {"p_name": "bolt", "region": "EU", "revenue": 30.0},
            {"p_name": "bolt", "region": "US", "revenue": 7.0},
            {"p_name": "nut", "region": "EU", "revenue": 5.0},
            {"p_name": "nut", "region": "US", "revenue": None},
        ],
    )
    return database


class TestExecuteDdl:
    def test_generated_ddl_creates_tables(self):
        from repro.core.deployer import ddl
        from repro.core.interpreter import Interpreter
        from repro.sources import tpch
        from tests.core.conftest import build_revenue_requirement

        design = Interpreter(
            tpch.ontology(), tpch.schema(), tpch.mappings()
        ).interpret(build_revenue_requirement())
        script = ddl.generate(design.md_schema, database_name="demo")
        database = Database()
        created = execute_ddl(database, script)
        assert set(created) == {
            "dim_Part", "dim_Supplier", "fact_table_revenue",
        }
        fact = database.table_def("fact_table_revenue")
        assert fact.primary_key == ("p_name", "s_name")
        assert fact.columns["revenue"] is DEC

    def test_created_tables_enforce_keys(self):
        database = Database()
        execute_ddl(
            database,
            "CREATE TABLE t (\n  a BIGINT,\n  b VARCHAR(255),\n"
            "  PRIMARY KEY( a )\n);",
        )
        database.insert("t", {"a": 1, "b": "x"})
        from repro.errors import IntegrityError

        with pytest.raises(IntegrityError):
            database.insert("t", {"a": 1, "b": "y"})

    def test_create_database_is_ignored(self):
        database = Database()
        created = execute_ddl(database, "CREATE DATABASE demo;")
        assert created == []

    def test_unsupported_statement_rejected(self):
        with pytest.raises(EngineError):
            execute_ddl(Database(), "DROP TABLE x;")


class TestExecuteSelect:
    def test_plain_select(self, star_db):
        result = execute_select(star_db, "SELECT p_name, region FROM fact_sales;")
        assert len(result) == 5
        assert result.attribute_names() == ["p_name", "region"]

    def test_where_filters(self, star_db):
        result = execute_select(
            star_db,
            "SELECT p_name FROM fact_sales WHERE (region = 'EU');",
        )
        assert len(result) == 3

    def test_group_by_with_aggregates(self, star_db):
        result = execute_select(
            star_db,
            "SELECT p_name, SUM(revenue) AS total, COUNT(revenue) AS n\n"
            "FROM fact_sales\nGROUP BY p_name\nORDER BY p_name;",
        )
        rows = result.rows
        assert rows[0] == {"p_name": "bolt", "total": 47.0, "n": 3}
        assert rows[1] == {"p_name": "nut", "total": 5.0, "n": 1}

    def test_avg_translated(self, star_db):
        result = execute_select(
            star_db,
            "SELECT region, AVG(revenue) AS a FROM fact_sales GROUP BY region "
            "ORDER BY region;",
        )
        by_region = {row["region"]: row["a"] for row in result.rows}
        assert by_region["EU"] == pytest.approx(15.0)
        assert by_region["US"] == pytest.approx(7.0)

    def test_global_aggregate(self, star_db):
        result = execute_select(
            star_db, "SELECT COUNT(revenue) AS n FROM fact_sales;"
        )
        assert result.rows == [{"n": 4}]

    def test_sql_not_equal_spelling(self, star_db):
        result = execute_select(
            star_db,
            "SELECT p_name FROM fact_sales WHERE (region <> 'EU');",
        )
        assert len(result) == 2

    def test_unsupported_shape_rejected(self, star_db):
        with pytest.raises(EngineError):
            execute_select(star_db, "SELECT * FROM a JOIN b ON x = y;")

    def test_group_mismatch_rejected(self, star_db):
        with pytest.raises(EngineError):
            execute_select(
                star_db,
                "SELECT p_name, SUM(revenue) AS t FROM fact_sales "
                "GROUP BY region;",
            )


@pytest.fixture
def mixed_keys_db():
    """Group keys that order differently as text: 10 and 2, 10.25 and
    9.5, and NULLs."""
    database = Database()
    database.create_table(
        TableDef("f", {"k": INT, "s": STR, "d": DEC, "v": DEC})
    )
    database.insert_many(
        "f",
        [
            {"k": 2, "s": "A", "d": 9.5, "v": 1.0},
            {"k": 10, "s": None, "d": 10.25, "v": 2.0},
            {"k": 2, "s": "Z", "d": None, "v": 3.0},
        ],
    )
    return database


class TestOlapSqlAgreesWithQueryStar:
    def test_rendered_sql_computes_same_answer(self, star_db):
        query = OlapQuery(
            fact_table="fact_sales",
            group_by=["p_name"],
            aggregates=[("SUM", "revenue", "total")],
            slicer="region = 'EU'",
        )
        via_engine = query_star(star_db, query)
        via_sql = execute_select(star_db, query.to_sql())
        assert via_engine.rows == via_sql.rows

    @pytest.mark.parametrize(
        "group_by", [["k"], ["s"], ["d"], ["k", "s"]], ids="-".join
    )
    def test_groups_come_back_in_the_rendered_order(
        self, mixed_keys_db, group_by
    ):
        query = OlapQuery(
            fact_table="f",
            group_by=group_by,
            aggregates=[("SUM", "v", "total")],
        )
        via_engine = query_star(mixed_keys_db, query)
        via_sql = execute_select(mixed_keys_db, query.to_sql())
        assert via_engine.rows == via_sql.rows

    def test_against_deployed_warehouse(self):
        from repro import Quarry
        from repro.sources import tpch
        from tests.core.conftest import build_netprofit_requirement

        quarry = Quarry(tpch.ontology(), tpch.schema(), tpch.mappings())
        quarry.add_requirement(build_netprofit_requirement())
        database = Database()
        database.load_source(tpch.schema(), tpch.generate(0.2, seed=6))
        quarry.deploy("native", source_database=database)
        query = OlapQuery(
            fact_table="fact_table_netprofit",
            group_by=["p_brand"],
            aggregates=[("SUM", "netprofit", "total")],
        )
        assert (
            execute_select(database, query.to_sql()).rows
            == query_star(database, query).rows
        )
