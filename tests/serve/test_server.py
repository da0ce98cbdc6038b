"""The HTTP front door: routing, lifecycle, isolation, concurrency."""

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.services.session import DesignSession
from repro.serve.server import (
    MAX_BODY_BYTES,
    QuarryServer,
    _Handler,
    tpch_manager,
)
from repro.serve.smoke import demo_xrq


@pytest.fixture(scope="module")
def server():
    with QuarryServer(tpch_manager()) as running:
        yield running


def call(server, method, path, body=None):
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(
        server.url + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read() or b"{}")
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read() or b"{}")


class TestRouting:
    def test_healthz(self, server):
        status, payload = call(server, "GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"

    def test_unknown_route_is_404(self, server):
        status, payload = call(server, "GET", "/nope")
        assert status == 404
        assert "error" in payload

    def test_unknown_session_is_404(self, server):
        status, __ = call(server, "GET", "/sessions/ghost/status")
        assert status == 404

    def test_a_stray_key_error_is_a_500(self, server, monkeypatch):
        # A 404 comes from a typed error; a bare KeyError is a bug.
        status, __ = call(server, "POST", "/sessions", {"name": "stray"})
        assert status == 201

        def broken_status(session):
            raise KeyError("x")

        monkeypatch.setattr(DesignSession, "status", broken_status)
        status, payload = call(server, "GET", "/sessions/stray/status")
        assert (status, payload) == (500, {"error": "KeyError: 'x'"})

    def test_invalid_session_name_is_400(self, server):
        status, payload = call(
            server, "POST", "/sessions", {"name": "no/slashes"}
        )
        assert status == 400
        assert "session name" in payload["error"]

    def test_malformed_body_is_400(self, server):
        request = urllib.request.Request(
            server.url + "/sessions",
            data=b"not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=60)
        assert excinfo.value.code == 400


def raw_request(connection, method, path, headers=(), body=None):
    """One request with exactly the given headers: (status, payload,
    response headers).  Fails unless the answer is a JSON object."""
    connection.putrequest(method, path)
    for name, value in headers:
        connection.putheader(name, value)
    connection.endheaders(body)
    response = connection.getresponse()
    assert response.getheader("Content-Type") == "application/json"
    payload = json.loads(response.read())
    assert isinstance(payload, dict)
    return response.status, payload, response


def framed(data):
    """(headers, body) for a request carrying ``data`` bytes."""
    return [("Content-Length", str(len(data)))], data


def json_request(connection, method, path, body=None):
    headers, data = (
        framed(json.dumps(body).encode()) if body is not None else ([], None)
    )
    return raw_request(connection, method, path, headers, data)[:2]


@pytest.fixture
def connection(server):
    """A keep-alive client connection; a hung handler fails, not hangs."""
    client = http.client.HTTPConnection(server.host, server.port, timeout=10)
    yield client
    client.close()


def assert_still_serves(connection):
    status, payload = json_request(connection, "GET", "/healthz")
    assert (status, payload["status"]) == (200, "ok")


class TestBodyHandling:
    """The declared body is consumed before routing; unframeable or
    oversized bodies answer 4xx and close the connection."""

    def test_404_reads_the_body_and_keeps_the_connection(self, connection):
        status, payload = json_request(
            connection, "POST", "/nope", {"name": "left-on-the-wire"}
        )
        assert status == 404 and "no such route" in payload["error"]
        kept = connection.sock
        assert_still_serves(connection)
        assert connection.sock is kept  # same TCP connection, no reconnect

    def test_non_integer_content_length_is_400(self, connection):
        status, payload, response = raw_request(
            connection, "POST", "/sessions", [("Content-Length", "abc")]
        )
        assert status == 400 and "Content-Length" in payload["error"]
        assert response.getheader("Connection") == "close"
        assert_still_serves(connection)

    def test_negative_content_length_is_400(self, connection):
        status, payload, response = raw_request(
            connection, "POST", "/sessions", [("Content-Length", "-1")]
        )
        assert status == 400 and "Content-Length" in payload["error"]
        assert response.getheader("Connection") == "close"
        assert_still_serves(connection)

    def test_body_above_the_cap_is_413(self, connection):
        status, payload, response = raw_request(
            connection,
            "POST",
            "/sessions",
            [("Content-Length", str(MAX_BODY_BYTES + 1))],
        )
        assert status == 413 and "limit" in payload["error"]
        assert response.getheader("Connection") == "close"
        assert_still_serves(connection)

    def test_chunked_body_is_411(self, connection):
        status, payload, response = raw_request(
            connection,
            "POST",
            "/sessions",
            [("Transfer-Encoding", "chunked")],
            b'e\r\n{"name": "ch"}\r\n0\r\n\r\n',
        )
        assert status == 411 and "Content-Length" in payload["error"]
        assert response.getheader("Connection") == "close"
        assert_still_serves(connection)
        __, listed = json_request(connection, "GET", "/sessions")
        assert "ch" not in listed["sessions"]


def raw_exchange(server, data):
    """Send raw bytes and read until the server closes: (status lines,
    headers of the last answer, its body)."""
    with socket.create_connection((server.host, server.port), timeout=10) as sock:
        sock.sendall(data)
        received = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            received += chunk
    statuses = []
    while True:
        head, __, received = received.partition(b"\r\n\r\n")
        status, *lines = head.decode("latin-1").split("\r\n")
        statuses.append(status)
        if not status.startswith("HTTP/1.1 100 "):
            break
    headers = dict(line.split(": ", 1) for line in lines)
    return statuses, headers, received


def assert_json_error(server, data, status):
    """The answer to ``data`` is one JSON error with ``status`` and the
    connection closes; returns the error message."""
    statuses, headers, body = raw_exchange(server, data)
    assert [line.split(" ")[1] for line in statuses] == [str(status)]
    assert headers["Content-Type"] == "application/json"
    assert headers["Connection"] == "close"
    assert int(headers["Content-Length"]) == len(body)
    return json.loads(body)["error"]


class TestStdlibErrors:
    """Errors the stdlib raises before any route runs answer JSON too."""

    @pytest.mark.parametrize("method", ["PUT", "PATCH", "OPTIONS"])
    def test_unsupported_method_is_501(self, server, method):
        data = f"{method} /healthz HTTP/1.1\r\nHost: x\r\n\r\n".encode()
        assert method in assert_json_error(server, data, 501)

    def test_head_is_501_without_a_body(self, server):
        statuses, headers, body = raw_exchange(
            server, b"HEAD /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        assert statuses == ["HTTP/1.1 501 Not Implemented"]
        assert headers["Content-Type"] == "application/json"
        assert body == b""

    def test_garbage_request_line_is_400(self, server):
        assert "garbage" in assert_json_error(server, b"garbage\r\n\r\n", 400)

    def test_unsupported_http_version_is_505(self, server):
        error = assert_json_error(server, b"GET /healthz HTTP/9.9\r\n\r\n", 505)
        assert "9.9" in error

    def test_overlong_uri_is_414(self, server):
        data = b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\nHost: x\r\n\r\n"
        assert assert_json_error(server, data, 414)


class TestExpectContinue:
    """A body the front door would refuse is refused before the client
    is invited to send it."""

    @pytest.mark.parametrize(
        "framing, status",
        [
            (f"Content-Length: {MAX_BODY_BYTES + 1}", 413),
            ("Content-Length: abc", 400),
            ("Transfer-Encoding: chunked", 411),
        ],
    )
    def test_refused_body_gets_no_100_continue(self, server, framing, status):
        data = (
            "POST /sessions HTTP/1.1\r\nHost: x\r\n"
            f"Expect: 100-continue\r\n{framing}\r\n\r\n"
        ).encode()
        assert assert_json_error(server, data, status)

    def test_acceptable_body_gets_100_continue(self, server):
        body = json.dumps({"name": "expects"}).encode()
        data = (
            "POST /sessions HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
            f"Expect: 100-continue\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode() + body
        statuses, __, answer = raw_exchange(server, data)
        assert statuses == ["HTTP/1.1 100 Continue", "HTTP/1.1 201 Created"]
        assert json.loads(answer) == {"session": "expects"}


class TestTransport:
    def test_accepted_connections_disable_nagle(self, server, monkeypatch):
        nodelay = []
        setup = _Handler.setup

        def recording_setup(handler):
            setup(handler)
            nodelay.append(
                handler.connection.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                )
            )

        monkeypatch.setattr(_Handler, "setup", recording_setup)
        client = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            assert_still_serves(client)
        finally:
            client.close()
        assert nodelay and all(nodelay)

    def test_mixed_requests_on_one_connection(self, connection):
        def body(payload):
            return framed(json.dumps(payload).encode())

        def declared(length):
            return [("Content-Length", length)], None

        none = ([], None)
        base = "/sessions/mixed"
        requests = [
            ("POST", "/sessions", body({"name": "mixed"}), 201),
            ("POST", "/sessions", body({"name": "mixed"}), 409),
            ("GET", "/nope", none, 404),
            ("POST", "/nope", body({"xrq": "<cube/>"}), 404),
            ("POST", f"{base}/requirements", body({"xrq": demo_xrq("IR1")}), 201),
            ("GET", f"{base}/status", none, 200),
            ("POST", "/sessions", framed(b"not json"), 400),
            ("GET", f"{base}/design", none, 200),
            ("POST", "/sessions", declared("abc"), 400),
            ("GET", f"{base}/requirements", none, 200),
            ("POST", f"{base}/deploy", body({"platform": "sql"}), 200),
            ("POST", f"{base}/deploy", body({"platform": "warp"}), 400),
            ("POST", "/sessions", declared(str(MAX_BODY_BYTES + 1)), 413),
            ("GET", "/sessions/ghost/status", none, 404),
            ("DELETE", f"{base}/requirements/IR1", none, 200),
            ("POST", "/sessions", body({"name": "no/slashes"}), 400),
            ("GET", f"{base}/jobs", none, 200),
            ("GET", f"{base}/jobs/job-9", none, 404),
            ("POST", "/sessions", declared("-1"), 400),
            ("GET", "/healthz", none, 200),
        ]
        assert len(requests) == 20
        answered = [
            raw_request(connection, method, path, *request)[0]
            for method, path, request, __ in requests
        ]
        assert answered == [expected for *__, expected in requests]


class TestLifecycle:
    def test_full_design_round_trip(self, server):
        status, __ = call(server, "POST", "/sessions", {"name": "life"})
        assert status == 201
        status, __ = call(server, "POST", "/sessions", {"name": "life"})
        assert status == 409

        status, report = call(
            server,
            "POST",
            "/sessions/life/requirements",
            {"xrq": demo_xrq("IR1")},
        )
        assert status == 201
        assert report["requirement_id"] == "IR1"
        assert report["action"] == "added"

        status, listed = call(
            server, "GET", "/sessions/life/requirements"
        )
        assert (status, listed) == (200, {"requirements": ["IR1"]})

        status, summary = call(server, "GET", "/sessions/life/status")
        assert status == 200
        assert summary["requirements"] == ["IR1"]
        assert summary["facts"] and summary["dimensions"]

        status, design = call(server, "GET", "/sessions/life/design")
        assert status == 200
        assert design["etl_operations"] == len(design["operators"])

        status, deployed = call(
            server, "POST", "/sessions/life/deploy", {"platform": "sql"}
        )
        assert status == 200
        assert deployed["platform"] == "sql"
        assert deployed["artifacts"]

        status, removal = call(
            server, "DELETE", "/sessions/life/requirements/IR1"
        )
        assert status == 200
        assert removal["action"] == "removed"
        __, listed = call(server, "GET", "/sessions/life/requirements")
        assert listed["requirements"] == []

    def test_duplicate_requirement_is_409(self, server):
        call(server, "POST", "/sessions", {"name": "dup"})
        call(
            server,
            "POST",
            "/sessions/dup/requirements",
            {"xrq": demo_xrq("IR2")},
        )
        status, payload = call(
            server,
            "POST",
            "/sessions/dup/requirements",
            {"xrq": demo_xrq("IR2")},
        )
        assert status == 409
        assert "already exists" in payload["error"]

    def test_removing_an_unknown_requirement_is_404(self, server):
        call(server, "POST", "/sessions", {"name": "ghosts"})
        status, payload = call(
            server, "DELETE", "/sessions/ghosts/requirements/ghost"
        )
        assert (status, payload) == (
            404, {"error": "unknown requirement 'ghost'"}
        )

    def test_unknown_platform_is_400(self, server):
        call(server, "POST", "/sessions", {"name": "plat"})
        call(
            server,
            "POST",
            "/sessions/plat/requirements",
            {"xrq": demo_xrq("IR2")},
        )
        status, payload = call(
            server, "POST", "/sessions/plat/deploy", {"platform": "warp"}
        )
        assert status == 400
        assert "unknown platform" in payload["error"]


class TestConcurrency:
    def test_concurrent_sessions_stay_isolated(self, server):
        names = [f"conc{index}" for index in range(8)]
        barrier = threading.Barrier(len(names))

        def lifecycle(name):
            barrier.wait(timeout=30)
            status, __ = call(
                server, "POST", "/sessions", {"name": name}
            )
            assert status == 201
            status, report = call(
                server,
                "POST",
                f"/sessions/{name}/requirements",
                {"xrq": demo_xrq("IR1")},
            )
            assert status == 201, report
            status, summary = call(
                server, "GET", f"/sessions/{name}/status"
            )
            assert status == 200
            return summary["requirements"]

        with ThreadPoolExecutor(max_workers=len(names)) as pool:
            results = list(pool.map(lifecycle, names))
        assert results == [["IR1"]] * len(names)

    def test_concurrent_writes_to_one_session_serialise(self, server):
        call(server, "POST", "/sessions", {"name": "hammer"})
        barrier = threading.Barrier(6)

        def add(index):
            barrier.wait(timeout=30)
            return call(
                server,
                "POST",
                "/sessions/hammer/requirements",
                {"xrq": demo_xrq(f"IR{index + 10}")},
            )[0]

        with ThreadPoolExecutor(max_workers=6) as pool:
            statuses = list(pool.map(add, range(6)))
        assert statuses == [201] * 6
        __, listed = call(
            server, "GET", "/sessions/hammer/requirements"
        )
        assert sorted(listed["requirements"]) == [
            f"IR{index + 10}" for index in range(6)
        ]


def poll_job(server, name, job_id, timeout=30.0):
    """Poll a background job until it leaves queued/running."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, payload = call(
            server, "GET", f"/sessions/{name}/jobs/{job_id}"
        )
        assert status == 200
        if payload["state"] not in ("queued", "running"):
            return payload
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} still {payload['state']}")


class TestBackgroundDeploy:
    def test_background_deploy_round_trip(self, server):
        call(server, "POST", "/sessions", {"name": "bg"})
        call(
            server,
            "POST",
            "/sessions/bg/requirements",
            {"xrq": demo_xrq("IR1")},
        )
        status, accepted = call(
            server,
            "POST",
            "/sessions/bg/deploy",
            {"platform": "sql", "background": True},
        )
        assert status == 202
        assert accepted["state"] == "queued"
        job_id = accepted["job"]
        assert accepted["status_url"] == f"/sessions/bg/jobs/{job_id}"

        finished = poll_job(server, "bg", job_id)
        assert finished["state"] == "done"
        # The job result is the same payload a synchronous deploy
        # returns.
        assert finished["result"]["platform"] == "sql"
        assert finished["result"]["artifacts"]

        status, listed = call(server, "GET", "/sessions/bg/jobs")
        assert status == 200
        assert {"job": job_id, "state": "done", "platform": "sql"} in (
            listed["jobs"]
        )

    def test_background_deploys_run_in_submission_order(self, server):
        call(server, "POST", "/sessions", {"name": "bgorder"})
        call(
            server,
            "POST",
            "/sessions/bgorder/requirements",
            {"xrq": demo_xrq("IR1")},
        )
        ids = []
        for __ in range(3):
            status, accepted = call(
                server,
                "POST",
                "/sessions/bgorder/deploy",
                {"platform": "sql", "background": True},
            )
            assert status == 202
            ids.append(accepted["job"])
        for job_id in ids:
            assert poll_job(server, "bgorder", job_id)["state"] == "done"
        __, listed = call(server, "GET", "/sessions/bgorder/jobs")
        assert [job["job"] for job in listed["jobs"]] == ids

    def test_failed_background_deploy_reports_error(self, server):
        call(server, "POST", "/sessions", {"name": "bgfail"})
        status, accepted = call(
            server,
            "POST",
            "/sessions/bgfail/deploy",
            {"platform": "warp", "background": True},
        )
        assert status == 202  # accepted; the failure surfaces on the job
        finished = poll_job(server, "bgfail", accepted["job"])
        assert finished["state"] == "error"
        assert "unknown platform" in finished["error"]
        assert "result" not in finished

    def test_unknown_job_is_404(self, server):
        call(server, "POST", "/sessions", {"name": "bg404"})
        status, payload = call(
            server, "GET", "/sessions/bg404/jobs/job-99"
        )
        assert status == 404
        assert "unknown job" in payload["error"]

    def test_jobs_of_unknown_session_are_404(self, server):
        status, __ = call(server, "GET", "/sessions/ghost/jobs")
        assert status == 404
        status, __ = call(server, "GET", "/sessions/ghost/jobs/job-1")
        assert status == 404


class TestDeployLockRelease:
    def test_foreground_deploy_does_not_block_reads(self):
        # A deploy that stalls in the (slow) build phase must not hold
        # the session lock: status reads land while it is in flight.
        manager = tpch_manager()
        manager.create("slow")
        with manager.locked("slow") as session:
            session.add_requirement_xrq(demo_xrq("IR1"))
            deployment = session.deployment
        build_started = threading.Event()
        release_build = threading.Event()
        original_build = deployment.build

        def stalled_build(*args, **kwargs):
            build_started.set()
            assert release_build.wait(timeout=30)
            return original_build(*args, **kwargs)

        deployment.build = stalled_build
        try:
            outcome = {}

            def run_deploy():
                outcome["result"] = manager.deploy("slow", "sql")

            deployer = threading.Thread(target=run_deploy)
            deployer.start()
            assert build_started.wait(timeout=30)
            # Deploy is mid-build.  A status read must not queue
            # behind it.
            read_done = threading.Event()

            def read_status():
                with manager.locked("slow") as session:
                    session.status()
                read_done.set()

            reader = threading.Thread(target=read_status)
            reader.start()
            assert read_done.wait(timeout=5), (
                "status read blocked behind a running deploy"
            )
            release_build.set()
            deployer.join(timeout=30)
            reader.join(timeout=5)
            assert outcome["result"].artifacts
        finally:
            release_build.set()
            deployment.build = original_build

    def test_deploy_still_records_and_announces(self):
        # The two-phase split must not lose the bookkeeping phase.
        from repro.core.services.deployment import (
            KIND_DEPLOYED,
            TOPIC_DEPLOYMENTS,
        )

        manager = tpch_manager()
        manager.create("book")
        with manager.locked("book") as session:
            session.add_requirement_xrq(demo_xrq("IR1"))
        result = manager.deploy("book", "sql")
        assert result.artifacts
        with manager.locked("book") as session:
            envelopes = session.bus.events(TOPIC_DEPLOYMENTS)
            assert any(
                envelope.kind == KIND_DEPLOYED for envelope in envelopes
            )
