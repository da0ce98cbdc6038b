"""Concurrency stress: many sessions, many threads, one shared store.

Sessions are the unit of isolation — the per-collection locks in the
document store only promise that *independent sessions* can hammer one
shared store concurrently without corrupting each other.  Each thread
drives its own sessions through the full lifecycle (add, add, change,
remove) and every session must end up byte-identical to a
single-threaded reference run.

Deliberately bounded (a few threads, a few sessions, <10s) so it can
ride in the tier-1 suite.
"""

import threading

from repro.core.services import DesignSession
from repro.repository import MetadataRepository
from repro.xformats import xlm, xmd

from .conftest import (
    build_netprofit_requirement,
    build_quantity_requirement,
    build_revenue_requirement,
)

THREADS = 4
SESSIONS_PER_THREAD = 2


def drive(session: DesignSession) -> None:
    """The lifecycle each session runs, identical everywhere."""
    session.add_requirement(build_revenue_requirement())
    session.add_requirement(build_netprofit_requirement())
    session.change_requirement(build_netprofit_requirement())
    session.add_requirement(build_quantity_requirement())
    session.remove_requirement("IR3")


def test_concurrent_sessions_match_single_threaded_reference(tpch_domain):
    ontology, schema, mappings = tpch_domain

    reference = DesignSession(ontology, schema, mappings)
    drive(reference)
    reference_md, reference_etl = reference.unified_design()
    expected_xmd = xmd.dumps(reference_md)
    expected_xlm = xlm.dumps(reference_etl)

    shared = MetadataRepository()
    sessions = {}
    errors = []
    barrier = threading.Barrier(THREADS)

    def worker(thread_index: int) -> None:
        try:
            barrier.wait(timeout=30)
            for slot in range(SESSIONS_PER_THREAD):
                name = f"t{thread_index}s{slot}"
                session = DesignSession(
                    ontology, schema, mappings,
                    repository=shared, session=name,
                )
                sessions[name] = session  # distinct key per thread: safe
                drive(session)
        except Exception as exc:  # surface failures in the main thread
            errors.append((thread_index, exc))

    threads = [
        threading.Thread(target=worker, args=(index,))
        for index in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not errors, errors
    assert len(sessions) == THREADS * SESSIONS_PER_THREAD

    for name, session in sessions.items():
        md, etl = session.unified_design()
        assert xmd.dumps(md) == expected_xmd, f"session {name} diverged"
        assert xlm.dumps(etl) == expected_xlm, f"session {name} diverged"
        assert [r.id for r in session.requirements()] == ["IR1", "IR2"]
        # Per-session repository state never bled across namespaces.
        assert sorted(session.repository.requirement_ids()) == ["IR1", "IR2"]
        assert session.repository.checkpoint_count() == 2
        assert (
            session.repository.bus_event_count()
            == reference.repository.bus_event_count()
        )

    assert sorted(shared.session_names()) == sorted(sessions)
    # The default (unprefixed) namespace stayed empty throughout.
    assert shared.requirement_ids() == []
