"""The published contracts, through the registry's one checker.

Every valid input comes from the real writer.  Each broken input breaks
exactly one rule, and every error it yields names that rule.
"""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.export import JsonlStreamWriter
from repro.serve.service import FleetService, ServeConfig
from repro.telemetry import AccessLog, append_entry, build_entry
from repro.telemetry.schemas import check_contract, get_schema, schema_id

DROP = object()
STREAMS = ("serve-access", "run-ledger", "trace-stream")


def at(path, value, line=None):
    """Set (or ``DROP``) one dotted field of the document or of one line."""

    def mutate(items):
        items = copy.deepcopy(items)
        *parents, last = path.split(".")
        target = items if line is None else items[line]
        for key in parents:
            target = target[key]
        if value is DROP:
            del target[last]
        else:
            target[last] = value
        return items

    return mutate


def without(kind):
    return lambda items: [item for item in items if item.get("kind") != kind]


CASES = [
    # Every line is JSON, and an object; a document is one object.
    ("serve-access", lambda items: items[:1] + ["not json"] + items[1:], "not valid JSON"),
    ("serve-access", lambda items: items[:1] + ["[1]"] + items[1:], "not a JSON object"),
    ("run-ledger", lambda items: items + ["5"], "not a JSON object"),
    ("serve-status", lambda doc: "{", "not valid JSON"),
    ("serve-status", lambda doc: "[]", "document is not an object"),
    # Header first, with the right schema.
    ("serve-access", lambda items: [items[1], items[0], *items[2:]], "start with a header"),
    ("serve-access", at("schema", "iotls-other/1", 0), "schema 'iotls-other/1'"),
    ("trace-stream", lambda items: items[1:], "no stream header"),
    ("trace-stream", at("schema", "iotls-other/1", 0), "unexpected stream schema"),
    # Event fields, strictly increasing seq.
    ("serve-access", at("event", DROP, 1), "'event' field required"),
    ("serve-access", at("seq", 2, 1), "seq 2 not strictly after 2"),
    # Access: exactly one header; at most one final summary with counts;
    # unknown kinds rejected.
    ("serve-access", lambda items: items[:2] + items[:1] + items[2:], "2 header lines"),
    ("serve-access", lambda items: items[:-2] + items[:-3:-1], "summary is not the final"),
    ("serve-access", lambda items: items + items[-1:], "summary"),
    ("serve-access", at("counts", [], -1), "'counts' object required, got list"),
    ("serve-access", at("kind", "bogus", 1), "unknown kind 'bogus'"),
    # Ledger: keys, schema tag, kind/status values, per-kind fields, errors.
    ("run-ledger", at("schema", "wrong/1", 0), "schema 'wrong/1'"),
    ("run-ledger", at("kind", "nope", 0), "unknown kind 'nope'"),
    ("run-ledger", at("status", "meh", 0), "'status' one of ('ok', 'error') required"),
    ("run-ledger", at("command", 5, 0), "'command' str required, got int"),
    ("run-ledger", at("seconds", "1", 1), "'seconds' number required, got str"),
    ("run-ledger", at("error.type", DROP, 2), "'error.type' field required"),
    # Status: queue.*/cache.* ints, resident/access objects.
    ("serve-status", at("queue", []), "'queue' object required, got list"),
    ("serve-status", at("queue.depth", "0"), "'queue.depth' int required, got str"),
    ("serve-status", at("cache.hits", None), "'cache.hits' int required, got NoneType"),
    ("serve-status", at("resident", []), "'resident' object required, got list"),
    ("serve-status", at("access", DROP), "'access' object required"),
    # Trace: a header metadata object; one final summary whose counts match.
    ("trace-stream", at("metadata", 7, 0), "header needs a 'metadata' object"),
    ("trace-stream", lambda items: items[:-1], "no summary trailer"),
    ("trace-stream", lambda items: items + items[-1:], "follows the summary"),
    ("trace-stream", at("summary.connections", 0, -1), "disagrees"),
]


@pytest.fixture(scope="module")
def valid(tmp_path_factory, passive_capture):
    """Contract name -> the text of a valid file, from the real writer."""
    root = tmp_path_factory.mktemp("contracts")
    with AccessLog(root / "serve-access") as log:
        for event in ("accepted", "started", "finished"):
            log.record(event, request_id=1)
    entries = [
        build_entry("trace", params={"scale": 1}),
        build_entry("bench", kind="bench", seconds=1.0, extra={"benchmark": "b"}),
        build_entry("check", kind="check", status="error", error={"type": "Drift"}),
    ]
    for entry in entries:
        append_entry(entry, root / "run-ledger")
    with JsonlStreamWriter(root / "trace-stream", metadata={"seed": "s"}) as writer:
        for record in passive_capture.records[:6]:
            writer.add(record)
        for event in passive_capture.revocation_events[:2]:
            writer.add_revocation_event(event)
    texts = {name: (root / name).read_text() for name in STREAMS}
    status = FleetService(ServeConfig()).status_document()
    return texts | {"serve-status": json.dumps(status)}


def _check(tmp_path, name, text):
    path = tmp_path / f"{name}.txt"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    return check_contract(path, schema_id(name))


def test_real_writers_meet_their_contracts(tmp_path, valid):
    assert {name: _check(tmp_path, name, text) for name, text in valid.items()} == {
        name: [] for name in valid
    }


@pytest.mark.parametrize("name, mutate, needle", CASES, ids=[f"{c[0]}:{c[2]}" for c in CASES])
def test_each_rule_is_enforced(tmp_path, valid, name, mutate, needle):
    if get_schema(schema_id(name)).kind == "document":
        text = mutate(json.loads(valid[name]))
        text = text if isinstance(text, str) else json.dumps(text)
    else:
        items = mutate([json.loads(line) for line in valid[name].splitlines()])
        text = "".join(
            (item if isinstance(item, str) else json.dumps(item)) + "\n" for item in items
        )
    errors = _check(tmp_path, name, text)
    assert errors and all(needle in error for error in errors), errors


def test_optional_parts_may_be_absent(tmp_path, valid):
    lines = valid["serve-access"].splitlines(keepends=True)
    assert _check(tmp_path, "serve-access", "".join(lines[:-1])) == []


#: Streams whose final summary the contract requires.
SUMMARY_REQUIRED = ("trace-stream",)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_damaged_streams_yield_errors_never_exceptions(tmp_path, valid, data):
    name = data.draw(st.sampled_from(STREAMS))
    raw = valid[name].encode()
    lines = raw.splitlines(keepends=True)
    damaged = data.draw(
        st.one_of(
            st.integers(0, len(raw)).map(lambda n: raw[:n]),
            st.integers(0, len(lines)).map(lambda n: b"".join(lines[:n])),
            st.integers(0, len(lines) - 1).map(
                lambda n: b"".join(lines[:n] + lines[n + 1 :])
            ),
        )
    )
    errors = _check(tmp_path, name, damaged)
    assert isinstance(errors, list) and all(isinstance(e, str) for e in errors)
    if name in SUMMARY_REQUIRED and not damaged.rstrip().endswith(lines[-1].rstrip()):
        assert errors
