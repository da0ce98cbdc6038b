"""CLI tests for ``python -m repro.codelint``: exit codes and payloads."""

import json
import textwrap

import pytest

from repro.codelint import main

BAD = """
    from repro.locks import new_lock

    class Box:
        def __init__(self):
            self._lock = new_lock("Box._lock")

        def outer(self):
            with self._lock:
                with self._lock:
                    pass
"""

CLEAN = """
    from repro.locks import new_lock

    class Box:
        def __init__(self):
            self._lock = new_lock("Box._lock")

        def poke(self):
            with self._lock:
                return 1
"""


def _write(tmp_path, source, name="snippet.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return str(path)


def test_violation_exits_one(tmp_path, capsys):
    assert main([_write(tmp_path, BAD), "--no-waivers"]) == 1
    out = capsys.readouterr().out
    assert "QRY902" in out and "Box._lock" in out


def test_clean_exits_zero(tmp_path, capsys):
    assert main([_write(tmp_path, CLEAN), "--no-waivers"]) == 0
    assert "clean" in capsys.readouterr().out


def test_package_lints_clean_with_committed_waivers(capsys):
    """The acceptance gate itself: the shipped package + shipped
    waiver file exit 0, and no committed waiver is stale."""
    assert main([]) == 0
    out = capsys.readouterr().out
    assert "stale waiver" not in out


def test_disable_suppresses_rule(tmp_path):
    assert main([_write(tmp_path, BAD), "--no-waivers", "--disable", "QRY902"]) == 0


def test_only_restricts_rules(tmp_path, capsys):
    assert main([_write(tmp_path, BAD), "--no-waivers", "--only", "QRY901"]) == 0
    assert main([_write(tmp_path, BAD), "--no-waivers", "--only", "QRY902"]) == 1


def test_unknown_code_exits_two(tmp_path, capsys):
    assert main([_write(tmp_path, BAD), "--only", "QRY999"]) == 2
    assert "QRY999" in capsys.readouterr().err


def test_syntax_error_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.py"
    path.write_text("def broken(:\n")
    assert main([str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_json_payload_shape(tmp_path, capsys):
    assert main([_write(tmp_path, BAD), "--no-waivers", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["waived"] == []
    assert payload["unused_waivers"] == []
    codes = [d["code"] for d in payload["diagnostics"]]
    assert codes == ["QRY902"]
    assert all("fingerprint" in d for d in payload["diagnostics"])


def test_waiver_file_roundtrip(tmp_path, capsys):
    source = _write(tmp_path, BAD)
    assert main([source, "--no-waivers", "--json"]) == 1
    fingerprint = json.loads(capsys.readouterr().out)["diagnostics"][0][
        "fingerprint"
    ]
    waiver_file = tmp_path / "waivers.json"
    waiver_file.write_text(
        json.dumps(
            {
                "waivers": [
                    {"fingerprint": fingerprint, "reason": "test fixture"},
                    {
                        "fingerprint": "QRY902:stale:gone",
                        "reason": "obsolete",
                    },
                ]
            }
        )
    )
    assert main([source, "--waivers", str(waiver_file)]) == 0
    out = capsys.readouterr().out
    assert "1 finding(s) waived" in out
    assert "stale waiver (matches nothing): QRY902:stale:gone" in out


def test_waiver_without_reason_exits_two(tmp_path, capsys):
    waiver_file = tmp_path / "waivers.json"
    waiver_file.write_text(
        json.dumps({"waivers": [{"fingerprint": "QRY902:x"}]})
    )
    assert main([_write(tmp_path, BAD), "--waivers", str(waiver_file)]) == 2
    assert "reason" in capsys.readouterr().err


def test_graph_emits_static_lock_graph(capsys):
    assert main(["--graph"]) == 0
    graph = json.loads(capsys.readouterr().out)
    assert "_JobRunner._lock" in graph["locks"]
    edges = {tuple(edge) for edge in graph["edges"]}
    assert ("DocumentStore._lock", "Collection._lock") in edges
    # The discipline this PR enforces: the static graph is acyclic.
    assert ("Collection._lock", "DocumentStore._lock") not in edges


def test_list_rules_spans_both_registries(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("QRY901", "QRY907"):
        assert code in out
    assert "QRY001" in out  # design rules share the catalog


@pytest.mark.parametrize(
    "code,source",
    [
        (
            "QRY901",
            """
            from repro.locks import new_lock

            class Left:
                def __init__(self, right):
                    self._lock = new_lock("Left._lock")
                    self.right = right

                def poke(self):
                    with self._lock:
                        self.right.prod()  # calls: Right.prod

            class Right:
                def __init__(self, left):
                    self._lock = new_lock("Right._lock")
                    self.left = left

                def prod(self):
                    with self._lock:
                        pass

                def reverse(self):
                    with self._lock:
                        self.left.poke()  # calls: Left.poke
            """,
        ),
        ("QRY902", BAD),
        (
            "QRY903",
            """
            import time
            from repro.locks import new_lock

            class Box:
                def __init__(self):
                    self._lock = new_lock("Box._lock")

                def nap(self):
                    with self._lock:
                        time.sleep(1)
            """,
        ),
        (
            "QRY904",
            """
            from repro.locks import new_lock

            class Box:
                def __init__(self):
                    self._lock = new_lock("Box._lock")
                    self._n = 0  # guarded-by: Box._lock

                def bump(self):
                    self._n += 1
            """,
        ),
    ],
)
def test_every_error_rule_gates_the_cli(tmp_path, capsys, code, source):
    """Acceptance: the CLI exits 1 on a seeded violation of each rule."""
    assert main([_write(tmp_path, source), "--no-waivers"]) == 1
    assert code in capsys.readouterr().out


def test_manual_acquire_warns_without_gating(tmp_path, capsys):
    source = """
        from repro.locks import new_lock

        class Box:
            def __init__(self):
                self._lock = new_lock("Box._lock")

            def risky(self):
                self._lock.acquire()
                work()
                self._lock.release()
    """
    assert main([_write(tmp_path, source), "--no-waivers"]) == 0
    out = capsys.readouterr().out
    assert "QRY906" in out and "warning" in out
