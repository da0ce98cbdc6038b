"""The Design Deployer.

"Quarry supports the deployment of the unified design solutions over the
supported storage repositories and execution platforms [...] Quarry is
extensible in that it can link to a variety of execution platforms"
(§2.4).  Platforms here:

* ``postgres`` / ``sqlite`` — generate the DDL script (Figure 3),
* ``pdi`` — generate the Pentaho PDI ``.ktr`` transformation,
* ``sql`` — generate the pure-SQL INSERT-SELECT rendering of the flow,
* ``pig`` — generate the Apache Pig Latin script,
* ``native`` — actually deploy: create the star's tables in the
  embedded engine, execute the ETL flow, and return a queryable
  database.

Every generating platform is one entry of :data:`GENERATORS`, a pure
``(md_schema, etl_flow) -> {artefact: text}`` function; adding a
platform is one entry there.  The generators are also registered into
a :class:`repro.xformats.registry.FormatRegistry`, exercising the
plug-in parser capability of the metadata layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.deployer import ddl, ddl_import, pdi, pig, sqlscript
from repro.engine.database import Database, TableDef
from repro.engine.executor import ExecutionStats, Executor
from repro.errors import DeploymentError
from repro.etlmodel.flow import EtlFlow
from repro.mdmodel.model import MDSchema
from repro.sources.schema import SourceSchema
from repro.xformats.registry import FormatRegistry

#: Each generating platform's artefact generator, in listing order.
#: ``native`` executes the flow instead, so it is the deployer's own case.
GENERATORS: Dict[str, Callable[[MDSchema, EtlFlow], Dict[str, str]]] = {
    "postgres": lambda md, etl: {
        "ddl": ddl.generate(md, dialect="postgres", database_name="demo")
    },
    "sqlite": lambda md, etl: {
        "ddl": ddl.generate(md, dialect="sqlite", database_name="demo")
    },
    "pdi": lambda md, etl: {"ktr": pdi.generate(etl)},
    "sql": lambda md, etl: {"script": sqlscript.generate(etl)},
    "pig": lambda md, etl: {"pig": pig.generate(etl)},
}


@dataclass
class DeploymentResult:
    """Artefacts and outcomes of one deployment."""

    design: str
    platform: str
    artifacts: Dict[str, str] = field(default_factory=dict)
    database: Optional[Database] = None
    stats: Optional[ExecutionStats] = None


class Deployer:
    """Deploys unified design solutions."""

    def __init__(self, source_schema: Optional[SourceSchema] = None) -> None:
        self._source_schema = source_schema
        self._registry = FormatRegistry()
        self._register_exporters()

    @property
    def registry(self) -> FormatRegistry:
        return self._registry

    def platforms(self) -> List[str]:
        return list(GENERATORS) + ["native"]

    def deploy(
        self,
        md_schema: MDSchema,
        etl_flow: EtlFlow,
        platform: str,
        source_database: Optional[Database] = None,
    ) -> DeploymentResult:
        """Generate artefacts for (or natively execute on) a platform."""
        if platform != "native" and platform not in GENERATORS:
            raise DeploymentError(
                f"unknown platform {platform!r}; "
                f"supported: {tuple(self.platforms())}"
            )
        # Deployment-time optimisation: narrow every branch to the
        # columns it uses (integration keeps flows wide for matching).
        from repro.etlmodel.equivalence import prune_columns

        etl_flow = prune_columns(etl_flow)
        if platform == "native":
            return self._deploy_native(md_schema, etl_flow, source_database)
        return DeploymentResult(
            design=md_schema.name,
            platform=platform,
            artifacts=GENERATORS[platform](md_schema, etl_flow),
        )

    def _deploy_native(
        self,
        md_schema: MDSchema,
        etl_flow: EtlFlow,
        source_database: Optional[Database],
    ) -> DeploymentResult:
        """Create the star tables and run the ETL on the embedded engine."""
        if source_database is None:
            raise DeploymentError(
                "native deployment needs a source database to extract from"
            )
        self._create_star_tables(md_schema, source_database)
        stats = Executor(source_database).execute(etl_flow)
        return DeploymentResult(
            design=md_schema.name,
            platform="native",
            artifacts={"ddl": ddl.generate(md_schema)},
            database=source_database,
            stats=stats,
        )

    def _create_star_tables(self, md_schema: MDSchema, database: Database) -> None:
        """Pre-create dimension and fact tables with their keys.

        The ETL's loaders would auto-create untyped tables; creating
        them from the MD schema first enforces the declared types and
        the fact's primary key during loading.

        A *versioned* dimension (any SCD2 level) keeps its stored rows
        across deployments: its SCD merge folds the history forward, so
        truncating here would erase exactly what the policy preserves.
        The table is only rebuilt when its shape no longer matches the
        schema (design evolution changed the columns — fresh history).
        """
        for dimension in md_schema.dimensions.values():
            table = ddl.dimension_table_name(dimension)
            columns = ddl.dimension_columns(dimension)
            if database.has_table(table):
                if ddl.dimension_is_versioned(dimension):
                    stored = database.table_def(table)
                    if set(stored.columns) == set(columns):
                        continue  # keep history for the SCD merge
                    database.drop_table(table)
                else:
                    database.truncate(table)
                    continue
            database.create_table(TableDef(name=table, columns=columns))
        for fact in md_schema.facts.values():
            if not database.has_table(fact.name):
                database.create_table(
                    TableDef(
                        name=fact.name,
                        columns=ddl.fact_columns(md_schema, fact),
                        primary_key=tuple(dict.fromkeys(fact.grain)),
                    )
                )
            else:
                database.truncate(fact.name)

    def _register_exporters(self) -> None:
        """Plug the platform generators into the metadata-layer registry."""
        for dialect in ("postgres", "sqlite"):
            self._registry.register(
                "md_schema",
                f"ddl-{dialect}",
                "export",
                lambda schema, d=dialect: ddl.generate(schema, dialect=d),
                description=f"{dialect} CREATE TABLE script",
                replace=True,
            )
        self._registry.register(
            "etl_flow",
            "pdi",
            "export",
            pdi.generate,
            description="Pentaho PDI transformation (.ktr)",
            replace=True,
        )
        self._registry.register(
            "etl_flow",
            "sql",
            "export",
            sqlscript.generate,
            description="SQL INSERT-SELECT script",
            replace=True,
        )
        self._registry.register(
            "etl_flow",
            "piglatin",
            "export",
            pig.generate,
            description="Apache Pig Latin script",
            replace=True,
        )
        self._registry.register(
            "md_schema",
            "ddl",
            "import",
            ddl_import.loads,
            description="CREATE TABLE star-schema script",
            replace=True,
        )
