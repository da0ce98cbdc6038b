"""Each design artefact is encoded to its XML→JSON tree exactly once.

Elicitation encodes the requirement, interpretation the partial design
and integration each unified fold snapshot.  The bus payload, the
repository documents, the checkpoints and the ``current`` unified
design then all hold those same trees.  The invariants pinned here,
after every step of one scripted session:

* every stored tree equals ``xml_to_json(dumps(obj))`` of the matching
  in-memory object: the requirement ``xrq`` trees, the partial-design
  trees, ``current``, each checkpoint and the bus payloads,
* stored trees are shared with the bus payload and the in-memory
  partial, not re-encoded copies,
* each step encodes exactly what it produced, and a remove that
  restores a checkpoint encodes nothing,
* ``save_to`` → ``load_from`` → ``restore`` resumes with zero
  integration calls and the same invariants.
"""

from collections import Counter

import pytest

from repro import Quarry, RequirementBuilder
from repro.core.services import evolution as evolution_module
from repro.core.services import elicitation as elicitation_module
from repro.core.services import interpretation as interpretation_module
from repro.errors import QuarryError
from repro.repository.metadata import UNIFIED_DESIGNS, namespaced
from repro.sources import tpch
from repro.xformats import xlm, xmd, xrq
from repro.xformats.xmljson import xml_to_json

from tests.core.conftest import (
    build_netprofit_requirement,
    build_quantity_requirement,
    build_revenue_requirement,
)


def tree(codec, obj) -> dict:
    return xml_to_json(codec.dumps(obj))


def changed_netprofit_requirement():
    """IR2, changed to also group by supplier."""
    return (
        RequirementBuilder(
            "IR2", "Analyze total net profit per part brand and supplier"
        )
        .measure(
            "netprofit",
            "Lineitem_l_extendedprice * (1 - Lineitem_l_discount) "
            "- Partsupp_ps_supplycost * Lineitem_l_quantity",
            "SUM",
        )
        .per("Part_p_brand", "Supplier_s_name")
        .build()
    )


def latest_payloads(quarry, topic, kinds):
    """The newest logged payload per requirement on ``topic``."""
    latest = {}
    for envelope in quarry.session.bus.events(topic):
        if envelope.kind in kinds:
            latest[envelope.payload["requirement"]] = envelope.payload
    return latest


def assert_stored_trees_match(quarry, shared=True):
    """Every stored tree encodes its in-memory object.

    ``shared`` additionally demands that the repository and the bus log
    hold the very tree objects the in-memory partial carries (true in
    the session that encoded them, not after a reload from a file).
    """
    session = quarry.session
    repository = session.repository
    integration = session.integration
    order = integration.order()
    requirement_payloads = latest_payloads(
        quarry,
        elicitation_module.TOPIC_REQUIREMENTS,
        (elicitation_module.KIND_ADDED,),
    )
    partial_payloads = latest_payloads(
        quarry,
        interpretation_module.TOPIC_PARTIALS,
        (interpretation_module.KIND_CREATED, interpretation_module.KIND_REPLACED),
    )
    assert sorted(repository.requirement_ids()) == sorted(order)
    for requirement_id in order:
        partial = integration.partial_design(requirement_id)
        xmd_tree, xlm_tree = repository.partial_design_trees(requirement_id)
        stored = {
            "xrq": repository.requirement_tree(requirement_id),
            "xmd": xmd_tree,
            "xlm": xlm_tree,
        }
        assert stored == {
            "xrq": tree(xrq, partial.requirement),
            "xmd": tree(xmd, partial.md_schema),
            "xlm": tree(xlm, partial.etl_flow),
        }
        assert stored == partial.trees
        assert requirement_payloads[requirement_id]["xrq"] == stored["xrq"]
        payload = partial_payloads[requirement_id]
        assert {key: payload[key] for key in stored} == stored
        if shared:
            for key, value in stored.items():
                assert value is partial.trees[key]
                assert payload[key] is value
    checkpoints = integration._checkpoints
    assert repository.checkpoint_count() == len(order) == len(checkpoints)
    for position, checkpoint in enumerate(checkpoints):
        assert repository.checkpoint_trees(position) == (
            tree(xmd, checkpoint.md_schema),
            tree(xlm, checkpoint.etl_flow),
        )
    md_schema, etl_flow = quarry.unified_design()
    current = repository.store.collection(
        namespaced(UNIFIED_DESIGNS, repository.namespace)
    ).get("current")
    assert (current["xmd"], current["xlm"]) == (
        tree(xmd, md_schema),
        tree(xlm, etl_flow),
    )
    assert current["requirements"] == sorted(order)
    if shared and checkpoints:
        assert current["xmd"] is checkpoints[-1].xmd_tree
        assert current["xlm"] is checkpoints[-1].xlm_tree


@pytest.fixture
def encodes(monkeypatch):
    """Counts ``to_tree`` calls (encodes) per codec."""
    counts = Counter()
    for codec in (xrq, xmd, xlm):
        name = codec.__name__.rsplit(".", 1)[-1]

        def counting(obj, _to_tree=codec.to_tree, _name=name):
            counts[_name] += 1
            return _to_tree(obj)

        monkeypatch.setattr(codec, "to_tree", counting)
    return counts


def refuse_merges(envelope):
    if envelope.payload["operator"] == "merge_concepts":
        raise QuarryError("merge refused by a downstream consumer")


def test_scripted_session_encodes_each_artefact_once(encodes, tmp_path):
    quarry = Quarry(tpch.ontology(), tpch.schema(), tpch.mappings())
    # A downstream consumer that rejects merges: the merge below fails
    # only after re-interpreting and re-folding, so its rollback has
    # stored trees to put back.
    quarry.session.bus.subscribe(
        evolution_module.TOPIC_EVOLUTION, refuse_merges
    )

    def step(action, expected):
        encodes.clear()
        action()
        assert dict(encodes) == expected
        assert_stored_trees_match(quarry)

    # Each add encodes its requirement, its partial and one snapshot.
    for build in (
        build_revenue_requirement,
        build_netprofit_requirement,
        build_quantity_requirement,
    ):
        step(
            lambda build=build: quarry.add_requirement(build()),
            {"xrq": 1, "xmd": 2, "xlm": 2},
        )
    # Change = remove (re-folds IR3) + add (requirement, partial,
    # snapshot).
    step(
        lambda: quarry.change_requirement(changed_netprofit_requirement()),
        {"xrq": 1, "xmd": 3, "xlm": 3},
    )
    assert quarry.session.integration.order() == ["IR1", "IR3", "IR2"]
    # Removing the middle requirement re-folds only IR2.
    step(lambda: quarry.remove_requirement("IR3"), {"xmd": 1, "xlm": 1})

    # An evolution operator re-encodes the affected partials and the
    # re-folded snapshots; the requirements themselves are unchanged.
    def evolve(operator, *args):
        encodes.clear()
        report = operator(*args)
        refolded = len(quarry.requirements()) - report.refolded_from
        produced = len(report.affected) + refolded
        assert dict(encodes) == {"xmd": produced, "xlm": produced}
        assert_stored_trees_match(quarry)
        return report

    report = evolve(quarry.rename_concept, "Part", "Product")
    assert (report.affected, report.refolded_from) == (["IR1", "IR2"], 0)
    evolve(quarry.split_concept, "Product", "Brand", ["Part_p_brand"])

    with pytest.raises(QuarryError, match="merge refused"):
        quarry.merge_concepts("Brand", "Product")
    evolved = quarry.session.bus.events(evolution_module.TOPIC_EVOLUTION)
    assert [envelope.payload["operator"] for envelope in evolved] == [
        "rename_concept",
        "split_concept",
    ]
    assert_stored_trees_match(quarry)

    # Removing the newest requirement restores a checkpoint: nothing
    # is encoded.
    step(lambda: quarry.remove_requirement("IR2"), {})

    path = tmp_path / "store.json"
    quarry.save_to(path)
    resumed = Quarry.load_from(path, tpch.schema(), tpch.mappings())
    assert resumed.integration_counts == {"md": 0, "etl": 0}
    assert resumed.session.integration.order() == ["IR1"]
    assert_stored_trees_match(resumed, shared=False)
    resumed.add_requirement(build_quantity_requirement())
    resumed.remove_requirement("IR3")
    assert resumed.integration_counts == {"md": 1, "etl": 1}
    assert_stored_trees_match(resumed, shared=False)
