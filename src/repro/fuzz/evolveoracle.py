"""The evolution oracle: incremental evolution versus full rebuild.

Each seed builds a random *design script* over the TPC-H domain — a
mix of requirement additions/removals and the four design-evolution
operators (rename / split / merge / retype), under randomly assigned
SCD policies — and runs it through one :class:`repro.core.Quarry`
session.  Four things must then hold:

* **Rebuild equivalence.**  Evolution re-folds only the affected
  suffix of the requirement order; re-integrating everything from
  scratch (``rebuild``) must produce a byte-identical unified design
  (xMD and xLM serialisations compared as text).
* **Replay equivalence.**  Folding the artifact-bus event log
  (``replay_unified_design``) must reproduce the evolved design — the
  typed ``partial.replaced`` envelopes carry enough to reconstruct it,
  also after the log has been compacted.
* **Resume equivalence.**  The session saved to a file and loaded back
  (``save_to``/``Quarry.load_from``) must hold the same design, in the
  same order, with zero integration calls, over the same ontology and
  mappings, and its replay must reproduce it too.
* **Mode parity.**  The final design's ETL executes on a generated
  TPC-H micro-database in both engine modes
  (:func:`repro.fuzz.oracle.run_mode`); every loaded table, dimension
  history included, must hold the same rows in the same order with the
  same types, and a failing run must fail with the same error text.

Scripts may contain ops that fail (merging concepts on different
tables, retypes that break a requirement's expression typing): the
evolution service promises transactional rollback, so a failed op must
leave all four intact — the oracle skips it and keeps
going.
"""

from __future__ import annotations

import functools
import os
import random
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro import Quarry
from repro.core.requirements import RequirementBuilder
from repro.errors import QuarryError
from repro.etlmodel.equivalence import prune_columns
from repro.fuzz.oracle import MODES, run_mode
from repro.ontology import io as ontology_io
from repro.sources import tpch

#: Effective date stamped on SCD validity windows — fixed, never wall
#: clock, so trials are reproducible.
_EFFECTIVE_DATE = "2024-06-01"

#: Scale factor for the mode-parity micro-database.
_SCALE = 0.1

#: Retype targets the generator draws from.
_RETYPE_TYPES = ("integer", "decimal", "string", "boolean")


def _revenue(requirement_id: str):
    return (
        RequirementBuilder(
            requirement_id,
            "Analyze the average revenue per part and supplier name, "
            "for orders from Spain",
        )
        .measure(
            "revenue",
            "Lineitem_l_extendedprice * (1 - Lineitem_l_discount)",
            "AVERAGE",
        )
        .per("Part_p_name", "Supplier_s_name")
        .where("Nation_n_name = 'SPAIN'")
        .build()
    )


def _netprofit(requirement_id: str):
    return (
        RequirementBuilder(
            requirement_id, "Analyze total net profit per part brand"
        )
        .measure(
            "netprofit",
            "Lineitem_l_extendedprice * (1 - Lineitem_l_discount) "
            "- Partsupp_ps_supplycost * Lineitem_l_quantity",
            "SUM",
        )
        .per("Part_p_brand")
        .build()
    )


def _quantity(requirement_id: str):
    return (
        RequirementBuilder(
            requirement_id, "Analyze shipped quantity per ship mode and nation"
        )
        .measure("quantity", "Lineitem_l_quantity", "SUM")
        .per("Lineitem_l_shipmode", "Nation_n_name")
        .build()
    )


def _priority(requirement_id: str):
    return (
        RequirementBuilder(
            requirement_id, "Analyze total order price per order priority"
        )
        .measure("totalprice", "Orders_o_totalprice", "SUM")
        .per("Orders_o_orderpriority")
        .build()
    )


#: Requirement catalogue: names are stable across evolution because
#: requirements reference datatype-property ids, which every operator
#: preserves (rename re-points them, split/merge move them).
_CATALOGUE = {
    "revenue": _revenue,
    "netprofit": _netprofit,
    "quantity": _quantity,
    "priority": _priority,
}


@dataclass
class EvolveTrial:
    """One evolution script plus the session's SCD policy assignment."""

    policies: Dict[str, str]
    script: List[dict]
    seed: Optional[int] = None


# -- generation --------------------------------------------------------------


class _ShadowDomain:
    """A lightweight model of the evolving ontology.

    Tracks just enough — which concepts exist, which table each is
    bound to, which datatype properties each owns — for the generator
    to emit mostly-valid operator calls without running a session.
    """

    def __init__(self) -> None:
        ontology = tpch.ontology()
        mappings = tpch.mappings()
        self.tables: Dict[str, str] = {
            concept: mappings.table_of(concept)
            for concept in mappings.mapped_concepts()
        }
        self.properties: Dict[str, Set[str]] = {
            concept: set() for concept in self.tables
        }
        for prop in ontology.datatype_properties():
            self.properties[prop.concept].add(prop.id)

    def concepts(self) -> List[str]:
        return sorted(self.tables)

    def all_properties(self) -> List[str]:
        return sorted(
            prop for owned in self.properties.values() for prop in owned
        )

    def rename(self, old: str, new: str) -> None:
        self.tables[new] = self.tables.pop(old)
        self.properties[new] = self.properties.pop(old)

    def split(self, concept: str, new_concept: str, moved: List[str]) -> None:
        self.tables[new_concept] = self.tables[concept]
        self.properties[new_concept] = set(moved)
        self.properties[concept] -= set(moved)

    def merge(self, source: str, target: str) -> None:
        self.properties[target] |= self.properties.pop(source)
        del self.tables[source]

    def mergeable_pairs(self) -> List[Tuple[str, str]]:
        by_table: Dict[str, List[str]] = {}
        for concept in self.concepts():
            by_table.setdefault(self.tables[concept], []).append(concept)
        return [
            (source, target)
            for group in by_table.values()
            for source in group
            for target in group
            if source != target
        ]


def build_evolve_trial(seed: int) -> EvolveTrial:
    """The deterministic evolution trial for a seed."""
    rng = random.Random(f"evolve:{seed}")
    domain = _ShadowDomain()

    policies = {
        concept: rng.choice(("type1", "type2"))
        for concept in domain.concepts()
        if rng.random() < 0.5
    }

    script: List[dict] = []
    requirement_counter = 0
    live_requirements: List[str] = []
    split_counter = 0
    rename_counter = 0

    def add_requirement() -> None:
        nonlocal requirement_counter
        requirement_counter += 1
        requirement_id = f"IR{requirement_counter}"
        live_requirements.append(requirement_id)
        script.append(
            {
                "op": "add",
                "id": requirement_id,
                "requirement": rng.choice(sorted(_CATALOGUE)),
            }
        )

    # Always start with at least one requirement so the unified design
    # is non-trivial before the first evolution op.
    for _ in range(rng.randint(1, 3)):
        add_requirement()

    for _ in range(rng.randint(2, 8)):
        choice = rng.random()
        if choice < 0.15:
            add_requirement()
        elif choice < 0.25 and len(live_requirements) > 1:
            victim = rng.choice(live_requirements)
            live_requirements.remove(victim)
            script.append({"op": "remove", "id": victim})
        elif choice < 0.45:
            rename_counter += 1
            old = rng.choice(domain.concepts())
            new = f"{old}R{rename_counter}"
            script.append({"op": "rename", "old": old, "new": new})
            domain.rename(old, new)
        elif choice < 0.65:
            splittable = [
                concept
                for concept in domain.concepts()
                if len(domain.properties[concept]) >= 2
            ]
            if not splittable:
                continue
            split_counter += 1
            concept = rng.choice(splittable)
            owned = sorted(domain.properties[concept])
            count = rng.randint(1, len(owned) - 1)
            moved = rng.sample(owned, count)
            new_concept = f"{concept}S{split_counter}"
            script.append(
                {
                    "op": "split",
                    "concept": concept,
                    "new_concept": new_concept,
                    "properties": sorted(moved),
                }
            )
            domain.split(concept, new_concept, moved)
        elif choice < 0.80:
            pairs = domain.mergeable_pairs()
            if pairs and rng.random() < 0.9:
                source, target = rng.choice(pairs)
                script.append(
                    {"op": "merge", "source": source, "target": target}
                )
                domain.merge(source, target)
            else:
                # Deliberately invalid (different tables, or no pair at
                # all): must fail cleanly and roll back.
                concepts = domain.concepts()
                source = rng.choice(concepts)
                target = rng.choice(concepts)
                script.append(
                    {"op": "merge", "source": source, "target": target}
                )
        else:
            prop = rng.choice(domain.all_properties())
            script.append(
                {
                    "op": "retype",
                    "property": prop,
                    "type": rng.choice(_RETYPE_TYPES),
                }
            )

    return EvolveTrial(policies=policies, script=script, seed=seed)


# -- checking ----------------------------------------------------------------


def _fingerprint(design) -> Tuple[str, str]:
    from repro.xformats import xlm, xmd

    md_schema, etl_flow = design
    return xmd.dumps(md_schema), xlm.dumps(etl_flow)


def _apply(quarry: Quarry, op: dict) -> None:
    kind = op["op"]
    if kind == "add":
        quarry.add_requirement(_CATALOGUE[op["requirement"]](op["id"]))
    elif kind == "remove":
        quarry.remove_requirement(op["id"])
    elif kind == "rename":
        quarry.rename_concept(op["old"], op["new"])
    elif kind == "split":
        quarry.split_concept(
            op["concept"], op["new_concept"], list(op["properties"])
        )
    elif kind == "merge":
        quarry.merge_concepts(op["source"], op["target"])
    elif kind == "retype":
        quarry.retype_property(op["property"], op["type"])
    else:
        raise ValueError(f"unknown evolve op {kind!r}")


@functools.lru_cache(maxsize=1)
def _source_data() -> Dict[str, list]:
    """The micro-database's TPC-H rows, generated once per process.

    ``Database.load_source`` copies the rows into column snapshots, so
    no trial can change the cached source.
    """
    return tpch.generate(_SCALE, seed=7)


def _micro_database(md_schema):
    """A fresh TPC-H micro-database with the design's star tables."""
    from repro.core.deployer import Deployer
    from repro.engine.database import Database

    database = Database()
    database.load_source(tpch.schema(), _source_data())
    Deployer()._create_star_tables(md_schema, database)
    return database


def _resumed(quarry: Quarry) -> Quarry:
    """The session saved to a temporary file and loaded back."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "session.json")
        quarry.save_to(path)
        return Quarry.load_from(
            path,
            tpch.schema(),
            tpch.mappings(),
            scd_policies=dict(quarry.interpretation.interpreter.scd_policies),
            scd_effective_date=_EFFECTIVE_DATE,
        )


def _domain(quarry: Quarry) -> Tuple[str, dict]:
    """The session's ontology text and mappings snapshot."""
    interpreter = quarry.interpretation.interpreter
    return ontology_io.dumps(interpreter.ontology), interpreter.mappings.snapshot()


def check_evolve_trial(trial: EvolveTrial) -> Optional[str]:
    """``None`` when all equivalences hold, else a description.

    Categories (text before the first colon): ``evolve-crash``,
    ``evolve-replay-divergence``, ``evolve-resume-divergence``,
    ``evolve-rebuild-divergence`` and ``evolve-mode-divergence`` — the
    shrinker preserves the category while minimising.
    """
    quarry = Quarry(
        tpch.ontology(),
        tpch.schema(),
        tpch.mappings(),
        scd_policies=dict(trial.policies),
        scd_effective_date=_EFFECTIVE_DATE,
    )
    for index, op in enumerate(trial.script):
        try:
            _apply(quarry, op)
        except QuarryError:
            continue  # expected failure mode: the op must have rolled back
        except Exception as exc:
            return (
                f"evolve-crash: op {index} {op!r} raised "
                f"{type(exc).__name__}: {exc}"
            )

    if not quarry.requirements():
        return None  # every add failed: nothing to compare

    incremental = _fingerprint(quarry.unified_design())

    replayed = _fingerprint(quarry.replay_unified_design())
    if replayed != incremental:
        return (
            "evolve-replay-divergence: bus-log replay does not "
            "reproduce the evolved design"
        )

    resumed = _resumed(quarry)
    if (
        _fingerprint(resumed.unified_design()) != incremental
        or resumed.integration.order() != quarry.integration.order()
        or resumed.integration_counts != {"md": 0, "etl": 0}
        or _fingerprint(resumed.replay_unified_design()) != incremental
        or _domain(resumed) != _domain(quarry)
    ):
        return (
            "evolve-resume-divergence: the saved and reloaded session "
            "differs from the live one"
        )

    md_schema, etl_flow = quarry.unified_design()
    flow = prune_columns(etl_flow)
    legacy, columnar = (
        run_mode(mode, _micro_database(md_schema), flow) for mode in MODES
    )
    if legacy != columnar:
        return (
            "evolve-mode-divergence: legacy and columnar disagree on the "
            "final design"
        )

    quarry.rebuild()
    rebuilt = _fingerprint(quarry.unified_design())
    if rebuilt != incremental:
        return (
            "evolve-rebuild-divergence: full re-integration differs "
            "from the incrementally evolved design"
        )
    return None
