"""HTTP front end over the design-session services.

Routes (all request/response bodies are JSON):

========  =====================================  ==============================
GET       /healthz                               liveness + session count
GET       /sessions                              session names
POST      /sessions                              ``{"name": ...}`` -> create
GET       /sessions/<name>/status                DesignStatus
GET       /sessions/<name>/design                unified design summary
GET       /sessions/<name>/requirements          elicited requirement ids
POST      /sessions/<name>/requirements          ``{"xrq": "<xml>"}`` -> add
DELETE    /sessions/<name>/requirements/<id>     remove one requirement
POST      /sessions/<name>/deploy                ``{"platform": ...}``;
                                                 add ``"background": true``
                                                 -> ``202`` + job id
GET       /sessions/<name>/jobs                  background job summaries
GET       /sessions/<name>/jobs/<id>             job status/result/error
========  =====================================  ==============================

Errors come back as ``{"error": message}`` with 400 (bad input), 404
(unknown session/requirement), 409 (conflict), 411 (a
``Transfer-Encoding`` body), 413 (body above :data:`MAX_BODY_BYTES`)
or 500.  The declared body is read before routing, so every answer — a
404 included — leaves a keep-alive connection at the next request.  A
``Content-Length`` that is not a non-negative integer (400) or that
exceeds the cap (413), and a chunked body (411), leave no way to find
the next request, so those answers close the connection.  The
stdlib's own errors answer the same JSON and close the connection: 400
for a request line it cannot parse, 414 for an overlong URI, 501 for
an unsupported method (``PUT``, ``HEAD``, ...) and 505 for an
unsupported HTTP version.  ``Expect: 100-continue`` on a body the
front door would refuse gets the refusal, not ``100 Continue``.

Transport: accepted connections run with Nagle's algorithm off, so a
reply's header and body writes leave at once instead of waiting for
the client's delayed ACK, and the listen backlog is
:data:`LISTEN_BACKLOG`, not the stdlib's 5, so bursts of new
connections queue instead of overflowing into SYN retransmits.

Concurrency model: the HTTP server is threaded (one handler thread per
connection); the :class:`SessionManager` serialises all work *within* a
session behind a per-session reentrant lock while different sessions
proceed in parallel — exactly the isolation the session-scoped
repository namespaces promise.  This front end is what exposed the
check-then-set races fixed in the engine caches, the store snapshot and
the artifact bus: hundreds of handler threads hammer those paths at
once (see ``benchmarks/run_serving.py``).

Deploys are two-phase so the session lock never covers the slow part:
the design is snapshotted *under* the lock (cheap — integration
replaces its unified objects, it never mutates them), the platform
backend builds *outside* it, and only the repository/bus bookkeeping
re-acquires it.  ``{"background": true}`` additionally moves the whole
deploy onto the session's FIFO job runner — one daemon worker thread
per session, jobs answered ``202`` immediately and polled via the
``jobs`` routes — so the front door overlaps slow deploys with
elicitation traffic.
"""

from __future__ import annotations

import json
import queue
import re
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple

from repro.core.deployer import DeploymentResult

from repro.core.services.session import DesignSession
from repro.errors import (
    DuplicateRequirementError,
    QuarryError,
    RepositoryError,
    UnknownRequirementError,
)
from repro.locks import new_lock, new_rlock
from repro.repository.metadata import MetadataRepository

#: Session names are path segments and repository namespace parts.
_NAME_PATTERN = re.compile(r"^[A-Za-z0-9_.-]{1,64}$")

#: A well-formed ``Content-Length`` value.
_CONTENT_LENGTH = re.compile(r"[0-9]+")

#: Largest request body the front door reads; larger ones answer 413.
#: An xRQ document is a few kilobytes.
MAX_BODY_BYTES = 1 << 20

#: Listen backlog of the server socket.
LISTEN_BACKLOG = 128


class ServeError(Exception):
    """An error with an HTTP status attached."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _DeployJob:
    """One background deploy: submitted state, then result or error."""

    __slots__ = ("id", "platform", "lint_gate", "state", "result", "error")

    def __init__(self, job_id: str, platform: str, lint_gate: bool) -> None:
        self.id = job_id
        self.platform = platform
        self.lint_gate = lint_gate
        self.state = "queued"  # queued -> running -> done | error
        self.result: Optional[dict] = None
        self.error: Optional[str] = None

    def to_dict(self) -> dict:
        payload = {
            "job": self.id,
            "platform": self.platform,
            "state": self.state,
        }
        if self.result is not None:
            payload["result"] = self.result
        if self.error is not None:
            payload["error"] = self.error
        return payload


class _JobRunner:
    """A per-session FIFO of background deploys.

    One lazily-started daemon worker thread drains the queue, so jobs
    of one session run strictly in submission order (deploy N+1 sees
    the repository/bus state deploy N recorded) while the submitting
    handler thread answers ``202`` immediately.
    """

    def __init__(self, run, name: str) -> None:
        self._run = run  # callable(_DeployJob) -> result payload dict
        self._name = name
        self._queue: "queue.Queue[_DeployJob]" = queue.Queue()
        self._jobs: Dict[str, _DeployJob] = {}  # guarded-by: _JobRunner._lock
        self._order: List[str] = []  # guarded-by: _JobRunner._lock
        self._lock = new_lock("_JobRunner._lock")
        self._counter = 0  # guarded-by: _JobRunner._lock
        self._thread: Optional[threading.Thread] = None  # guarded-by: _JobRunner._lock

    def submit(self, platform: str, lint_gate: bool) -> str:
        with self._lock:
            self._counter += 1
            job = _DeployJob(f"job-{self._counter}", platform, lint_gate)
            self._jobs[job.id] = job
            self._order.append(job.id)
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._drain,
                    name=f"repro-deploy-{self._name}",
                    daemon=True,
                )
                self._thread.start()
            # The enqueue must stay under the lock: two concurrent
            # submitters otherwise race between id allocation and the
            # put, and the worker drains jobs out of submission order.
            self._queue.put(job)
        return job.id

    def get(self, job_id: str) -> Optional[_DeployJob]:
        with self._lock:
            return self._jobs.get(job_id)

    def summaries(self) -> List[dict]:
        with self._lock:
            return [
                {
                    "job": job_id,
                    "state": self._jobs[job_id].state,
                    "platform": self._jobs[job_id].platform,
                }
                for job_id in self._order
            ]

    def _drain(self) -> None:
        while True:
            job = self._queue.get()
            job.state = "running"
            try:
                job.result = self._run(job)
            except (QuarryError, RepositoryError) as exc:
                job.error = str(exc)
                job.state = "error"
            except Exception as exc:  # the runner thread must survive
                job.error = f"{type(exc).__name__}: {exc}"
                job.state = "error"
            else:
                job.state = "done"


class SessionManager:
    """Named design sessions over one shared metadata repository.

    ``create``/``get`` are guarded by the manager lock; every operation
    *on* a session must run inside ``with manager.locked(name):`` so a
    session's fold state only ever sees one mutator at a time.  Deploys
    go through :meth:`deploy` (two-phase: snapshot under the lock,
    build outside it, record under it) or :meth:`submit_deploy` (same
    phases on the session's background job runner).
    """

    def __init__(
        self,
        ontology,
        schema,
        mappings,
        repository: Optional[MetadataRepository] = None,
        source_database=None,
    ) -> None:
        self._ontology = ontology
        self._schema = schema
        self._mappings = mappings
        self._repository = (
            repository if repository is not None else MetadataRepository()
        )
        #: Optional database handed to ``deploy`` for platforms that
        #: extract (``native``); ``None`` serves design-only platforms.
        self.source_database = source_database
        self._sessions: Dict[str, DesignSession] = {}  # guarded-by: SessionManager._lock
        self._locks: Dict[str, threading.RLock] = {}  # guarded-by: SessionManager._lock
        self._jobs: Dict[str, _JobRunner] = {}  # guarded-by: SessionManager._lock
        self._lock = new_lock("SessionManager._lock")

    def create(self, name: str) -> DesignSession:
        if not _NAME_PATTERN.match(name or ""):
            raise ServeError(
                400,
                "session name must be 1-64 characters of "
                "[A-Za-z0-9_.-]",
            )
        with self._lock:
            if name in self._sessions:
                raise ServeError(409, f"session {name!r} already exists")
            session = DesignSession(
                self._ontology,
                self._schema,
                self._mappings,
                repository=self._repository,
                session=name,
            )
            self._sessions[name] = session
            self._locks[name] = new_rlock("SessionManager.session")
            self._jobs[name] = _JobRunner(
                lambda job, session_name=name: _deploy_payload(
                    self.deploy(
                        session_name, job.platform, lint_gate=job.lint_gate
                    )
                ),
                name,
            )
            return session

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._sessions)

    def count(self) -> int:
        with self._lock:
            return len(self._sessions)

    @contextmanager
    def locked(self, name: str):
        """The named session, held under its per-session lock."""
        with self._lock:
            session = self._sessions.get(name)
            lock = self._locks.get(name)
        if session is None or lock is None:
            raise ServeError(404, f"unknown session {name!r}")
        with lock:
            yield session

    # -- deploys ------------------------------------------------------------

    def deploy(
        self, name: str, platform: str, lint_gate: bool = True
    ) -> DeploymentResult:
        """Two-phase deploy of one session's design.

        Snapshot under the session lock, build outside it, record
        under it again.  The snapshot is consistent without copying:
        the integration service *replaces* its unified MD/ETL objects
        on every fold, so the references taken here are immutable from
        the session's point of view and a concurrent elicitation can
        proceed — ``status``/``design`` reads no longer queue behind a
        slow platform backend.
        """
        with self.locked(name) as session:
            unified_md, unified_etl = session.unified_design()
            deployment = session.deployment
        result = deployment.build(
            unified_md,
            unified_etl,
            platform,
            source_database=self.source_database,
            lint_gate=lint_gate,
        )
        with self.locked(name):
            deployment.record(result, platform, lint_gate=lint_gate)
        return result

    def submit_deploy(
        self, name: str, platform: str, lint_gate: bool = True
    ) -> str:
        """Enqueue a background deploy; returns its job id."""
        with self._lock:
            runner = self._jobs.get(name)
        if runner is None:
            raise ServeError(404, f"unknown session {name!r}")
        return runner.submit(platform, lint_gate)

    def job(self, name: str, job_id: str) -> dict:
        with self._lock:
            runner = self._jobs.get(name)
        if runner is None:
            raise ServeError(404, f"unknown session {name!r}")
        job = runner.get(job_id)
        if job is None:
            raise ServeError(
                404, f"unknown job {job_id!r} in session {name!r}"
            )
        return job.to_dict()

    def jobs(self, name: str) -> List[dict]:
        with self._lock:
            runner = self._jobs.get(name)
        if runner is None:
            raise ServeError(404, f"unknown session {name!r}")
        return runner.summaries()


def tpch_manager(**kwargs) -> SessionManager:
    """A manager over the TPC-H demo domain (the CLI's domain)."""
    from repro.sources import tpch

    return SessionManager(
        tpch.ontology(), tpch.schema(), tpch.mappings(), **kwargs
    )


# -- request handling ---------------------------------------------------------


def _deploy_payload(result: DeploymentResult) -> dict:
    return {
        "design": result.design,
        "platform": result.platform,
        "artifacts": dict(result.artifacts),
        "loaded": dict(result.stats.loaded) if result.stats else None,
    }


def _design_summary(session: DesignSession) -> dict:
    unified_md, unified_etl = session.unified_design()
    return {
        "facts": sorted(unified_md.facts),
        "dimensions": sorted(unified_md.dimensions),
        "etl_operations": len(unified_etl),
        "operators": [
            {"name": node.name, "kind": node.kind}
            for node in unified_etl.nodes()
        ],
    }


class _Handler(BaseHTTPRequestHandler):
    """Routes requests onto the session manager (set by the server)."""

    manager: SessionManager  # injected by QuarryServer
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    # -- plumbing -----------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # request logging is the load generator's job, not ours

    def _reply(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)

    def send_error(self, code, message=None, explain=None):
        """Answer the stdlib's own errors (an unparsable request line, an
        unsupported method, a URI too long, ...) in JSON like any route.

        A request line too broken to name its version leaves the stdlib
        at HTTP/0.9, which sends neither status line nor headers; those
        answers are HTTP/1.1 too.  The connection closes: the request's
        body, if any, is unread.
        """
        if self.request_version == "HTTP/0.9":
            self.request_version = self.protocol_version
        self.close_connection = True
        if message is None:
            message = self.responses.get(code, ("error",))[0]
        self._reply(code, {"error": message})

    def handle_expect_100(self) -> bool:
        """Refuse a body :meth:`_read_body` would refuse before inviting
        the client to send it."""
        try:
            self._body_length()
        except ServeError as exc:
            self._reply(exc.status, {"error": str(exc)})
            return False
        return super().handle_expect_100()

    def _read_body(self) -> bytes:
        """Consume the declared request body, whatever the route."""
        return self.rfile.read(self._body_length())

    def _body_length(self) -> int:
        """The declared body's length.

        A body that cannot be framed or is too large stays unread, so
        the connection closes after the answer.
        """
        if "Transfer-Encoding" in self.headers:
            self.close_connection = True
            raise ServeError(
                411, "request bodies need a Content-Length; "
                "Transfer-Encoding is not supported",
            )
        declared = self.headers.get("Content-Length")
        if declared is None:
            return 0
        if not _CONTENT_LENGTH.fullmatch(declared.strip()):
            self.close_connection = True
            raise ServeError(
                400,
                f"Content-Length must be a non-negative integer, "
                f"not {declared!r}",
            )
        length = int(declared)
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            raise ServeError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
            )
        return length

    def _body(self) -> dict:
        raw = self._raw_body
        if not raw:
            return {}
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServeError(400, f"request body is not JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ServeError(400, "request body must be a JSON object")
        return payload

    def _route(self, method: str) -> Tuple[int, dict]:
        parts = [part for part in self.path.split("?")[0].split("/") if part]
        if method == "GET" and parts == ["healthz"]:
            return 200, {
                "status": "ok",
                "sessions": self.manager.count(),
            }
        if parts and parts[0] == "sessions":
            return self._route_sessions(method, parts[1:])
        raise ServeError(404, f"no such route: {method} {self.path}")

    def _route_sessions(
        self, method: str, parts: List[str]
    ) -> Tuple[int, dict]:
        manager: SessionManager = self.manager
        if not parts:
            if method == "GET":
                return 200, {"sessions": manager.names()}
            if method == "POST":
                name = self._body().get("name")
                if not isinstance(name, str):
                    raise ServeError(400, "body needs a 'name' string")
                manager.create(name)
                return 201, {"session": name}
            raise ServeError(404, f"no such route: {method} /sessions")
        name, rest = parts[0], parts[1:]
        if method == "GET" and rest == ["status"]:
            with manager.locked(name) as session:
                return 200, session.status().to_dict()
        if method == "GET" and rest == ["design"]:
            with manager.locked(name) as session:
                return 200, _design_summary(session)
        if method == "GET" and rest == ["requirements"]:
            with manager.locked(name) as session:
                return 200, {
                    "requirements": [
                        requirement.id
                        for requirement in session.requirements()
                    ]
                }
        if method == "POST" and rest == ["requirements"]:
            xrq_text = self._body().get("xrq")
            if not isinstance(xrq_text, str):
                raise ServeError(400, "body needs an 'xrq' string")
            with manager.locked(name) as session:
                report = session.add_requirement_xrq(xrq_text)
                return 201, report.to_dict()
        if (
            method == "DELETE"
            and len(rest) == 2
            and rest[0] == "requirements"
        ):
            with manager.locked(name) as session:
                report = session.remove_requirement(rest[1])
                return 200, report.to_dict()
        if method == "POST" and rest == ["deploy"]:
            body = self._body()
            platform = body.get("platform")
            if not isinstance(platform, str):
                raise ServeError(400, "body needs a 'platform' string")
            lint_gate = bool(body.get("lint_gate", True))
            if body.get("background"):
                job_id = manager.submit_deploy(
                    name, platform, lint_gate=lint_gate
                )
                return 202, {
                    "job": job_id,
                    "state": "queued",
                    "status_url": f"/sessions/{name}/jobs/{job_id}",
                }
            result = manager.deploy(name, platform, lint_gate=lint_gate)
            return 200, _deploy_payload(result)
        if method == "GET" and rest == ["jobs"]:
            return 200, {"jobs": manager.jobs(name)}
        if method == "GET" and len(rest) == 2 and rest[0] == "jobs":
            return 200, manager.job(name, rest[1])
        raise ServeError(
            404, f"no such route: {method} /sessions/{name}/{'/'.join(rest)}"
        )

    def _handle(self, method: str) -> None:
        try:
            self._raw_body = self._read_body()
            status, payload = self._route(method)
        except ServeError as exc:
            self._reply(exc.status, {"error": str(exc)})
        except UnknownRequirementError as exc:
            self._reply(404, {"error": str(exc)})
        except DuplicateRequirementError as exc:
            self._reply(409, {"error": str(exc)})
        except (QuarryError, RepositoryError) as exc:
            self._reply(400, {"error": str(exc)})
        except Exception as exc:  # the server must survive any request
            self._reply(
                500, {"error": f"{type(exc).__name__}: {exc}"}
            )
        else:
            self._reply(status, payload)

    def do_GET(self) -> None:
        self._handle("GET")

    def do_POST(self) -> None:
        self._handle("POST")

    def do_DELETE(self) -> None:
        self._handle("DELETE")


class _HTTPServer(ThreadingHTTPServer):
    request_queue_size = LISTEN_BACKLOG


class QuarryServer:
    """A threaded HTTP server bound to one session manager.

    ``port=0`` picks a free port (``server.port`` reports it).  Use as
    a context manager, or call :meth:`start`/:meth:`shutdown`.
    """

    def __init__(
        self,
        manager: SessionManager,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        handler = type("BoundHandler", (_Handler,), {"manager": manager})
        self._httpd = _HTTPServer((host, port), handler)
        self._thread: Optional[threading.Thread] = None
        self.manager = manager

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "QuarryServer":
        """Serve on a background thread; returns once the socket listens."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._httpd.serve_forever()

    def shutdown(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None

    def __enter__(self) -> "QuarryServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
