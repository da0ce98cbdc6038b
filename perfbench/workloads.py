"""The benchmark's workloads: Quarry's design path, end to end.

Each workload is a closed loop: a client sends its next op only after
the previous one returned.  ``evolve`` and ``warehouse`` run one
client; ``serve`` runs two client threads (one per core of the
reference host) against the HTTP front door booted in the same process.

* ``evolve`` -- the integrator and repository layers in bulk, and the
  only workload through ``core/services/evolution.py``.  One op renames
  the ``Customer`` concept (the next op renames it back): the affected
  requirements are re-interpreted and the design is re-folded from the
  first affected checkpoint.
* ``warehouse`` -- the paper's ETL quality factor, overall execution
  time, as a nightly refresh.  One op reloads ``lineitem`` with one of
  two same-size, FK-valid batches (alternating) and deploys a unified
  12-requirement design natively.  The engine does nearly all the work,
  and every reload invalidates the scan caches.
* ``serve`` -- the HTTP front door, the only concurrent workload, and
  the per-change design path (interpret, integrate, lint, deploy) one
  requirement at a time.  Each client keeps one keep-alive connection
  and cycles over its own sessions, each holding one requirement.  One
  op elicits a second requirement, reads status and design, deploys to
  ``sql`` and removes the requirement again.

The seed varies inputs of equal cost only (the second ``lineitem``
batch, the renamed concept's new name, session names), so runs with
different seeds measure the same amount of work.

Every op passes a correctness gate.  ``evolve`` compares the unified
xMD/xLM with from-scratch builds of the corpus over the base and over
the evolved domain; ``warehouse`` compares the loaded star tables with
the legacy row interpreter's result for the same batch, as exact row
multisets, which also catches a stale scan cache; ``serve`` checks
every status code and that every deploy returns the ``sql`` script.
"""

from __future__ import annotations

import http.client
import json
import random
from collections import Counter
from typing import Dict, List, Optional

from repro import Quarry, RequirementBuilder
from repro.core.deployer import ddl
from repro.engine import Database, Executor
from repro.etlmodel.equivalence import prune_columns
from repro.serve.server import QuarryServer, tpch_manager
from repro.sources import tpch
from repro.sources.datagen import DataGenerator
from repro.xformats import xlm, xmd, xrq

#: Row counts handed to the ETL cost model (integration only).
ROW_COUNTS = {
    "lineitem": 60000, "orders": 15000, "customer": 1500,
    "nation": 25, "region": 5, "part": 2000, "partsupp": 4000,
    "supplier": 100,
}

REVENUE = "Lineitem_l_extendedprice * (1 - Lineitem_l_discount)"
NET_PROFIT = f"{REVENUE} - Partsupp_ps_supplycost * Lineitem_l_quantity"

#: The paper's demo requirements: (id, description, measure,
#: expression, aggregation, dimensions, slicer nation).
_DEMO = (
    ("IR1", "avg revenue per part/supplier", "revenue", REVENUE, "AVERAGE",
     ("Part_p_name", "Supplier_s_name"), "SPAIN"),
    ("IR2", "net profit per part brand", "netprofit", NET_PROFIT, "SUM",
     ("Part_p_brand",), None),
    ("IR3", "quantity per ship mode/nation", "quantity",
     "Lineitem_l_quantity", "SUM", ("Lineitem_l_shipmode", "Nation_n_name"),
     None),
)

#: The measure/granularity variants later corpus entries cycle through.
_VARIANTS = (
    ("revenue", REVENUE, "SUM", ("Part_p_brand", "Nation_n_name")),
    ("quantity", "Lineitem_l_quantity", "AVERAGE", ("Part_p_type",)),
    ("revenue", REVENUE, "SUM",
     ("Customer_c_mktsegment", "Orders_o_orderpriority")),
    ("supplycost", "Partsupp_ps_supplycost * Lineitem_l_quantity", "SUM",
     ("Supplier_s_name",)),
    ("revenue", REVENUE, "MAX", ("Lineitem_l_returnflag",)),
    ("quantity", "Lineitem_l_quantity", "SUM",
     ("Region_r_name", "Part_p_brand")),
)

#: Slicer nations, by family: none, Spain, France.
_SLICERS = (None, "SPAIN", "FRANCE")


def corpus_requirement(index: int):
    """Entry ``index`` (0-based) of the TPC-H requirement corpus.

    Entries 0-2 are the demo requirements; later entries cycle the
    variants above and the slicer families, so every requirement is
    distinct but overlaps the others in sources and operations, the
    regime the ETL integrator is built for.
    """
    if index < len(_DEMO):
        ident, description, name, expression, function, dimensions, nation = (
            _DEMO[index]
        )
    else:
        name, expression, function, dimensions = _VARIANTS[
            (index - len(_DEMO)) % len(_VARIANTS)
        ]
        ident = f"IR{index + 1}"
        description = f"corpus requirement {index + 1}"
        nation = _SLICERS[index % 3]
    builder = (
        RequirementBuilder(ident, description)
        .measure(name, expression, function)
        .per(*dimensions)
    )
    if nation is not None:
        builder.where(f"Nation_n_name = '{nation}'")
    return builder.build()


def build_design(count: int, ontology=None, mappings=None) -> Quarry:
    """A session holding the first ``count`` corpus requirements."""
    quarry = Quarry(
        ontology if ontology is not None else tpch.ontology(),
        tpch.schema(),
        mappings if mappings is not None else tpch.mappings(),
        row_counts=ROW_COUNTS,
    )
    for index in range(count):
        quarry.add_requirement(corpus_requirement(index))
    return quarry


def fingerprint(quarry: Quarry) -> tuple:
    """The unified design as xMD and xLM text, plus the fold order."""
    md_schema, etl_flow = quarry.unified_design()
    return (
        xmd.dumps(md_schema),
        xlm.dumps(etl_flow),
        [requirement.id for requirement in quarry.requirements()],
    )


class Workload:
    """One workload: a timed set-up, an op, and a correctness gate.

    The runner calls ``setup`` several times (each builds a fresh
    state), passes the first and the last state to ``prepare`` (the
    first is the gate's from-scratch reference, the last is measured),
    then calls ``op`` per client and ``verify`` after each op.  ``op``
    and ``verify`` return a mismatch message or ``None``.
    """

    name = ""
    clients = 1
    #: Ops per run: at least 100, so at least ten samples lie beyond
    #: the 90th percentile.
    OPS = 120

    def __init__(self, seed: int, tiny: bool = False, tracer=None) -> None:
        self.seed = seed
        self.ops = 12 if tiny else self.OPS

    def setup(self):
        raise NotImplementedError

    def discard(self, state) -> None:
        """Release a set-up state that is neither reference nor measured."""

    def prepare(self, reference, live) -> None:
        raise NotImplementedError

    def op(self, client: int) -> Optional[str]:
        raise NotImplementedError

    def verify(self, client: int) -> Optional[str]:
        return None

    def close(self) -> None:
        """Stop whatever the workload started."""


class EvolveWorkload(Workload):
    name = "evolve"

    #: The concept each op renames (and the next op renames back).
    CONCEPT = "Customer"

    def __init__(self, seed: int, tiny: bool = False, tracer=None) -> None:
        super().__init__(seed, tiny, tracer)
        # At 12 requirements a rename re-interprets two of them and
        # re-folds seven steps: about 150 ms an op on 2 cores with
        # Python 3.11, so 120 ops fit a run.
        self.count = 6 if tiny else 12
        # The new name sorts where "Client" does, so the evolved design
        # orders its dimensions the same way whatever the seed.
        self.renamed = f"Client{random.Random(seed).randrange(1000):03d}"
        self._evolved = False

    def setup(self):
        return build_design(self.count)

    def prepare(self, reference, live) -> None:
        self.reference = fingerprint(reference)
        ontology, mappings = tpch.ontology(), tpch.mappings()
        ontology.rename_concept(self.CONCEPT, self.renamed)
        mappings.rename_concept(self.CONCEPT, self.renamed)
        self.evolved_reference = fingerprint(
            build_design(self.count, ontology, mappings)
        )
        self.quarry = live

    def op(self, client: int) -> Optional[str]:
        if self._evolved:
            report = self.quarry.rename_concept(self.renamed, self.CONCEPT)
        else:
            report = self.quarry.rename_concept(self.CONCEPT, self.renamed)
        self._evolved = not self._evolved
        if not report.affected:
            return "evolve: the rename affected no requirement"
        return None

    def verify(self, client: int) -> Optional[str]:
        expected = self.evolved_reference if self._evolved else self.reference
        if fingerprint(self.quarry) != expected:
            return (
                "evolve: evolved design differs from a from-scratch build"
                if self._evolved
                else "evolve: design renamed back differs from the base build"
            )
        return None


def second_batch(seed: int, data: Dict[str, list]) -> List[dict]:
    """A ``lineitem`` batch of the same keys and size, values redrawn.

    Each row keeps its order key and line number and takes a random
    (part, supplier) pair of ``partsupp``, so the batch is FK-valid.
    """
    generator = DataGenerator(seed + 1)
    partsupp = data["partsupp"]
    batch = []
    for row in data["lineitem"]:
        supply = generator.choice(partsupp)
        quantity = generator.integer(1, 50)
        batch.append(
            {
                "l_orderkey": row["l_orderkey"],
                "l_linenumber": row["l_linenumber"],
                "l_partkey": supply["ps_partkey"],
                "l_suppkey": supply["ps_suppkey"],
                "l_quantity": quantity,
                "l_extendedprice": round(
                    quantity * generator.decimal(900.0, 1100.0), 2
                ),
                "l_discount": generator.decimal(0.0, 0.10),
                "l_tax": generator.decimal(0.0, 0.08),
                "l_returnflag": generator.choice(["R", "A", "N"]),
                "l_linestatus": generator.choice(["O", "F"]),
                "l_shipdate": generator.date(),
                "l_shipmode": row["l_shipmode"],
            }
        )
    return batch


def reload_lineitem(database: Database, rows: List[dict]) -> int:
    """Truncate ``lineitem`` and insert ``rows``; returns the row count."""
    database.truncate("lineitem")
    return database.insert_many("lineitem", rows)


def star_tables(md_schema) -> List[str]:
    return sorted(
        [ddl.dimension_table_name(dim) for dim in md_schema.dimensions.values()]
        + list(md_schema.facts)
    )


def star_multisets(database: Database, tables: List[str]) -> dict:
    """{table: multiset of rows}, rows as tuples in sorted column order."""
    snapshot = {}
    for table in tables:
        columns = sorted(database.table_def(table).columns)
        snapshot[table] = Counter(
            tuple(row[column] for column in columns)
            for row in database.scan(table).rows
        )
    return snapshot


def _rows_loaded(counts, args, result) -> None:
    counts["engine.rows_loaded"] += result


class WarehouseWorkload(Workload):
    name = "warehouse"

    def __init__(self, seed: int, tiny: bool = False, tracer=None) -> None:
        super().__init__(seed, tiny, tracer)
        self.scale_factor = 0.5 if tiny else 8.0
        self.count = 3 if tiny else 12
        self._reload = (
            tracer.wrap("engine.load", reload_lineitem, _rows_loaded)
            if tracer is not None
            else reload_lineitem
        )
        self._next = 0

    def setup(self):
        # The sources are the same for every seed (12,167 lineitem rows
        # at SF 8); the seed draws the second batch's values.  Same-size
        # inputs allocate alike, so full garbage collections land on the
        # same ops whatever the seed.
        data = tpch.generate(self.scale_factor)
        database = Database()
        database.load_source(tpch.schema(), data)
        return build_design(self.count), database, data

    def prepare(self, reference, live) -> None:
        quarry, database, data = reference
        self.batches = [data["lineitem"], second_batch(self.seed, data)]
        md_schema, etl_flow = quarry.unified_design()
        self.tables = star_tables(md_schema)
        # A native deploy creates the typed star tables; the legacy row
        # interpreter then reloads them from each batch.
        quarry.deploy("native", source_database=database)
        flow = prune_columns(etl_flow)
        self.references = []
        for batch in self.batches:
            reload_lineitem(database, batch)
            for table in self.tables:
                database.truncate(table)
            Executor(database, mode="legacy").execute(flow)
            self.references.append(star_multisets(database, self.tables))
        self.quarry, self.database, __ = live

    def op(self, client: int) -> Optional[str]:
        self._loaded = self._next % len(self.batches)
        self._next += 1
        self._reload(self.database, self.batches[self._loaded])
        result = self.quarry.deploy("native", source_database=self.database)
        if result.stats is None or not result.stats.loaded:
            return "warehouse: native deploy loaded no table"
        return None

    def verify(self, client: int) -> Optional[str]:
        loaded = star_multisets(self.database, self.tables)
        expected = self.references[self._loaded]
        for table in self.tables:
            if loaded[table] != expected[table]:
                return (
                    f"warehouse: {table} differs from the legacy "
                    f"interpreter's rows for batch {self._loaded}"
                )
        return None


class ServeWorkload(Workload):
    name = "serve"
    clients = 2

    def __init__(self, seed: int, tiny: bool = False, tracer=None) -> None:
        super().__init__(seed, tiny, tracer)
        rng = random.Random(seed)
        per_client = 1 if tiny else 8
        tag = rng.randrange(16**6)
        names = [
            f"s{tag:06x}-{index:02d}"
            for index in range(self.clients * per_client)
        ]
        rng.shuffle(names)
        self._names = names
        self._held = xrq.dumps(corpus_requirement(0))
        self._elicited = corpus_requirement(1)
        self._elicited_xrq = xrq.dumps(self._elicited)
        #: The status code each request of an op must answer.
        self.expected = {
            "elicit": 201,
            "status": 200,
            "design": 200,
            "deploy": 200,
            "remove": 200,
        }

    def setup(self):
        manager = tpch_manager()
        server = QuarryServer(manager).start()
        for name in self._names:
            manager.create(name)
            with manager.locked(name) as session:
                session.add_requirement_xrq(self._held)
        return server

    def discard(self, state) -> None:
        state.shutdown()

    def prepare(self, reference, live) -> None:
        if reference is not live:
            reference.shutdown()
        self.server = live
        self._connections = [
            http.client.HTTPConnection(live.host, live.port, timeout=60)
            for __ in range(self.clients)
        ]
        self._sessions = [
            self._names[client::self.clients] for client in range(self.clients)
        ]
        self._turns = [0] * self.clients

    def op(self, client: int) -> Optional[str]:
        sessions = self._sessions[client]
        name = sessions[self._turns[client] % len(sessions)]
        self._turns[client] += 1
        base = f"/sessions/{name}"
        requests = (
            ("elicit", "POST", f"{base}/requirements",
             {"xrq": self._elicited_xrq}),
            ("status", "GET", f"{base}/status", None),
            ("design", "GET", f"{base}/design", None),
            ("deploy", "POST", f"{base}/deploy", {"platform": "sql"}),
            ("remove", "DELETE",
             f"{base}/requirements/{self._elicited.id}", None),
        )
        connection = self._connections[client]
        for label, method, path, body in requests:
            status, payload = _request(connection, method, path, body)
            if status != self.expected[label]:
                return (
                    f"serve: {label} {path} answered {status}, "
                    f"expected {self.expected[label]}"
                )
            if label == "deploy" and not (
                payload.get("platform") == "sql"
                and "INSERT INTO" in payload.get("artifacts", {}).get(
                    "script", ""
                )
            ):
                return f"serve: deploy {path} returned no sql script"
        return None

    def close(self) -> None:
        for connection in getattr(self, "_connections", ()):
            connection.close()
        server = getattr(self, "server", None)
        if server is not None:
            server.shutdown()


def _request(connection, method: str, path: str, body) -> tuple:
    """One JSON request on a keep-alive connection: (status, payload)."""
    data = json.dumps(body).encode("utf-8") if body is not None else None
    headers = {"Content-Type": "application/json"} if data else {}
    connection.request(method, path, body=data, headers=headers)
    response = connection.getresponse()
    return response.status, json.loads(response.read() or b"{}")


WORKLOADS = {
    workload.name: workload
    for workload in (EvolveWorkload, WarehouseWorkload, ServeWorkload)
}
