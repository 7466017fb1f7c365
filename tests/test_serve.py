"""The resident fleet service: HTTP contract, cache, queue, coalescing.

Each test boots a real :class:`~repro.serve.FleetService` on an
ephemeral port inside its own event loop and speaks actual HTTP/1.1 at
it (trace bodies framed by ``Content-Length`` and sent with sendfile),
so the wire contract the README's curl example relies on is what gets
pinned -- not an internal shortcut around it.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import signal
import threading
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from repro import api, telemetry
from repro.serve import FleetService, ServeConfig, http
from repro.serve.http import HttpError, HttpRequest, read_request
from repro.telemetry import ACCESS_LOG_SCHEMA, AccessLog, ledger
from repro.telemetry.provenance import config_digest
from repro.telemetry.schemas import check_contract

from .equality import first_difference


def serve_config(tmp_path, **overrides) -> ServeConfig:
    defaults = dict(
        port=0,
        ledger=tmp_path / "ledger.jsonl",
        artifact_dir=tmp_path / "artifacts",
        access_log=tmp_path / "access.jsonl",
        heartbeat_interval=0.05,
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


async def request(
    port: int, method: str, path: str, body: dict | None = None
) -> tuple[int, dict[str, str], bytes]:
    """A real HTTP/1.1 exchange; the body is read to its Content-Length."""
    reader, writer = await open_request(port, method, path, body)
    status, headers = await read_head(reader)
    content = await reader.readexactly(int(headers["content-length"]))
    writer.close()
    await writer.wait_closed()
    return status, headers, content


async def open_request(
    port: int, method: str, path: str, body: dict | None = None
) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Connect and send one request; the response is left unread."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = json.dumps(body).encode() if body is not None else b""
    head = f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
    if payload:
        head += f"Content-Length: {len(payload)}\r\n"
    writer.write(head.encode() + b"\r\n" + payload)
    await writer.drain()
    return reader, writer


async def read_head(reader: asyncio.StreamReader) -> tuple[int, dict[str, str]]:
    """The status code and lower-cased headers of one response."""
    status = int((await reader.readline()).split()[1])
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b""):
            return status, headers
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()


async def with_service(config: ServeConfig, scenario):
    service = FleetService(config)
    await service.start()
    try:
        return await scenario(service)
    finally:
        await service.stop()


TRACE_BODY = {"command": "trace", "scale": 1, "seed": "serve-test"}

#: Seconds one run request may take before a test calls it hung.
DEADLINE = 60.0


def parse(raw: bytes):
    """``read_request`` over ``raw`` followed by EOF."""

    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(run())


class TestServeConfig:
    """Values that would hang or silently disable the service are
    refused at construction; no test here starts a server."""

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("executors", 0, "executors must be >= 1"),
            ("executors", -1, "executors must be >= 1"),
            ("workers", 0, "workers must be >= 1"),
            ("queue_size", 0, "queue_size must be >= 1"),
            ("retry_after", -1, "retry_after must be >= 0"),
            ("heartbeat_interval", 0, "heartbeat_interval must be finite and > 0"),
            ("heartbeat_interval", -0.5, "heartbeat_interval must be finite and > 0"),
            ("heartbeat_interval", float("nan"), "heartbeat_interval must be finite"),
            ("heartbeat_interval", float("inf"), "heartbeat_interval must be finite"),
        ],
    )
    def test_bad_values_raise(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            ServeConfig(**{field: value})

    def test_smallest_valid_values_construct(self):
        config = ServeConfig(executors=1, queue_size=1, retry_after=0, heartbeat_interval=0.01)
        assert (config.executors, config.queue_size, config.retry_after) == (1, 1, 0)


class TestHttpFraming:
    @pytest.mark.parametrize("value", ["-5", "+3", "1_0", " 7 7", "\xb2", "0x10"])
    def test_content_length_must_be_digits(self, value):
        raw = f"POST /runs HTTP/1.1\r\nContent-Length: {value}\r\n\r\n0123456789"
        with pytest.raises(HttpError) as excinfo:
            parse(raw.encode("latin-1"))
        assert excinfo.value.status == 400

    def test_content_length_leading_zeros_and_huge_values(self):
        request = parse(b"POST /runs HTTP/1.1\r\nContent-Length: 0003\r\n\r\nabc")
        assert request.body == b"abc"
        with pytest.raises(HttpError) as excinfo:
            parse(b"POST /runs HTTP/1.1\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\n")
        assert excinfo.value.status == 413

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.binary(max_size=300),
            st.builds(
                lambda head, length, body: b"POST /runs HTTP/1.1\r\n" + head
                + b"Content-Length: " + length + b"\r\n\r\n" + body,
                st.just(b"") | st.binary(max_size=40),
                st.from_regex(rb"[-+]?[0-9_ ]{0,8}", fullmatch=True) | st.binary(max_size=12),
                st.binary(max_size=40),
            ),
        )
    )
    @example(b"POST /runs HTTP/1.1\r\nContent-Length: -5\r\n\r\nbody")
    @example(b"POST /runs HTTP/1.1\r\nContent-Length: +3\r\n\r\nbody")
    @example(b"POST /runs HTTP/1.1\r\nContent-Length: 1_0\r\n\r\nbody")
    def test_any_bytes_parse_or_raise_http_error(self, raw):
        try:
            result = parse(raw)
        except HttpError as exc:
            assert exc.status in (400, 413)
        else:
            assert result is None or isinstance(result, HttpRequest)

    def test_negative_content_length_answers_400(self, tmp_path):
        async def scenario(service):
            reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
            writer.write(b"POST /runs HTTP/1.1\r\nContent-Length: -5\r\n\r\n")
            await writer.drain()
            response = await reader.read()
            writer.close()
            await writer.wait_closed()
            return response

        response = asyncio.run(with_service(serve_config(tmp_path), scenario))
        assert response.startswith(b"HTTP/1.1 400 ")
        assert b"malformed Content-Length" in response

    def test_request_json_rejects_garbage(self):
        bad = HttpRequest(method="POST", path="/runs", body=b"{nope")
        with pytest.raises(HttpError) as excinfo:
            bad.json()
        assert excinfo.value.status == 400

    def test_endpoints_and_methods(self, tmp_path):
        async def scenario(service):
            port = service.port
            status, _, body = await request(port, "GET", "/healthz")
            assert (status, json.loads(body)) == (200, {"status": "ok"})
            status, _, _ = await request(port, "POST", "/healthz", {})
            assert status == 405
            status, _, _ = await request(port, "GET", "/runs")
            assert status == 405
            status, _, _ = await request(port, "GET", "/nowhere")
            assert status == 404
            status, _, body = await request(port, "GET", "/status")
            document = json.loads(body)
            assert document["schema"] == "iotls-serve-status/1"
            assert document["resident"]["devices"] == 40
            assert document["queue"]["capacity"] == service.config.queue_size
            return True

        assert asyncio.run(with_service(serve_config(tmp_path), scenario))

    def test_run_request_validation(self, tmp_path):
        async def scenario(service):
            port = service.port
            cases = [
                ({"scale": 1}, 400),  # no command
                ({"command": "frobnicate"}, 400),
                ({"command": "trace", "workers": 4}, 400),  # host-local field
                ({"command": "trace", "scale": "big"}, 400),
                ({"command": "probe"}, 400),  # no device
                ({"command": "probe", "device": "No Such Device"}, 404),
                ({"command": "pcap", "scale": 1, "limit": -1}, 400),
                ({"command": "trace", "scale": 0}, 400),
            ]
            for body, expected in cases:
                status, _, content = await request(port, "POST", "/runs", body)
                assert status == expected, (body, content)
                assert "error" in json.loads(content)
            return True

        assert asyncio.run(with_service(serve_config(tmp_path), scenario))

    def test_tenant_cannot_choose_the_ledger(self, tmp_path):
        elsewhere = tmp_path / "elsewhere.jsonl"

        async def scenario(service):
            body = {"command": "trace", "scale": 1, "ledger": str(elsewhere)}
            status, _, content = await request(service.port, "POST", "/runs", body)
            return status, json.loads(content)

        status, document = asyncio.run(with_service(serve_config(tmp_path), scenario))
        assert status == 400
        assert "ledger" in document["error"]
        assert not elsewhere.exists()


class TestPooledService:
    """A served miss runs on the resident warm pool and still answers the
    exact bytes a one-shot serial run writes."""

    def test_pooled_misses_match_one_shot_runs(self, tmp_path):
        bodies = [
            {"command": "trace", "scale": 1, "seed": "pooled"},
            # A second seed: a worker that kept the first miss's counts shows.
            {"command": "trace", "scale": 1, "seed": "pooled-b", "flow_cap": 5},
            {"command": "audit", "include_passthrough": False},
        ]

        async def scenario(service):
            responses = [await request(service.port, "POST", "/runs", b) for b in bodies]
            _, _, status = await request(service.port, "GET", "/status")
            return responses, json.loads(status)["pool"]

        telemetry.configure(enabled=False)
        responses, pool = asyncio.run(
            with_service(serve_config(tmp_path, workers=2), scenario)
        )
        assert pool["workers"] == 2
        # 40 device replays on the pool's first trace miss, none on the
        # second, and one shard per worker for the audit.
        assert pool["dispatches"] == 40 + 0 + 2
        for body, (status, headers, content) in zip(bodies, responses):
            assert (status, headers["x-iotls-cache"]) == (200, "miss"), body
            config = replace(
                api.RunConfig.from_document(
                    {key: value for key, value in body.items() if key != "command"}
                ),
                ledger=None,
            )
            digest = api.request_digest(body["command"], config)
            if body["command"] == "trace":
                stream_path = tmp_path / "direct" / f"{digest}.records.jsonl"
                stream_path.parent.mkdir(exist_ok=True)
                direct = api.run_trace(config, stream_path=stream_path)
                difference = first_difference(content, stream_path.read_bytes())
                assert difference is None, f"{body}: {difference}"
            else:
                direct = api.run_audit(config)
            assert headers["x-iotls-manifest-digest"] == direct.manifest_digest, body

    def test_served_bodies_match_one_shot_runs_over_generated_requests(self, tmp_path):
        """One resident service, generated trace requests: after the first
        miss it answers from kept device replays and their line pieces,
        and every body still equals the stream a one-shot serial run
        writes."""
        telemetry.configure(enabled=False)
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()

        def on_loop(coroutine):
            return asyncio.run_coroutine_threadsafe(coroutine, loop).result(timeout=300)

        service = FleetService(serve_config(tmp_path, workers=2))
        direct = tmp_path / "direct"
        direct.mkdir()
        seen: set[str] = set()

        # No shrink phase, as in test_parallel.py: shrinking full runs
        # would spend minutes before the failure is reported.
        @settings(max_examples=5, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
        @given(
            seed=st.text(min_size=1, max_size=12),
            scale=st.integers(min_value=1, max_value=4),
            flow_cap=st.none() | st.integers(min_value=1, max_value=20),
        )
        def served_equals_one_shot(seed, scale, flow_cap):
            body = {"command": "trace", "scale": scale, "seed": seed}
            if flow_cap is not None:
                body["flow_cap"] = flow_cap
            status, headers, content = on_loop(request(service.port, "POST", "/runs", body))
            digest = headers["x-iotls-config-digest"]
            # Hypothesis may draw a request twice: the repeat is a hit.
            expected = "hit" if digest in seen else "miss"
            assert (status, headers["x-iotls-cache"]) == (200, expected), body
            seen.add(digest)
            stream_path = direct / f"{digest}.records.jsonl"
            config = api.RunConfig(scale=scale, seed=seed, flow_cap=flow_cap, ledger=None)
            api.run_trace(config, stream_path=stream_path)
            difference = first_difference(content, stream_path.read_bytes())
            assert difference is None, f"served body differs from one-shot: {body}: {difference}"

        on_loop(service.start())
        try:
            served_equals_one_shot()
            _, _, status = on_loop(request(service.port, "GET", "/status"))
        finally:
            on_loop(service.stop())
            loop.call_soon_threadsafe(loop.stop)
            thread.join()
            loop.close()
        # 40 device replays on the pool's first trace miss, 0 on every later one.
        assert seen
        assert json.loads(status)["pool"]["dispatches"] == 40

    def test_killed_worker_answers_503_and_the_retry_recomputes(self, tmp_path):
        body = {"command": "trace", "scale": 1, "seed": "worker-killed"}
        before = set(multiprocessing.active_children())

        async def scenario(service):
            # start() started the resident pool's two processes.
            workers = set(multiprocessing.active_children()) - before
            assert len(workers) == 2
            os.kill(workers.pop().pid, signal.SIGKILL)
            async def send():
                # A hang fails here instead of stalling the suite.
                return await asyncio.wait_for(request(service.port, "POST", "/runs", body), 60)

            return await send(), await send()

        telemetry.configure(enabled=False)
        (status, headers, _), (status2, headers2, content2) = asyncio.run(
            with_service(serve_config(tmp_path, workers=2), scenario)
        )
        assert status == 503
        assert headers["retry-after"] == str(ServeConfig.retry_after)
        entries = ledger.load_ledger(tmp_path / "ledger.jsonl")
        assert [(e["status"], (e.get("error") or {}).get("type")) for e in entries] == [
            ("error", "WorkerCrashed"),
            ("ok", None),
        ]
        assert (status2, headers2["x-iotls-cache"]) == (200, "miss")
        # The manifest names the stream artifact, which serve names by digest.
        digest = headers2["x-iotls-config-digest"]
        stream_path = tmp_path / "direct" / f"{digest}.records.jsonl"
        stream_path.parent.mkdir()
        config = api.RunConfig(scale=1, seed="worker-killed", ledger=None)
        direct = api.run_trace(config, stream_path=stream_path)
        assert content2 == stream_path.read_bytes()
        assert headers2["x-iotls-manifest-digest"] == direct.manifest_digest


    def test_killed_worker_on_a_warm_pool_fails_the_next_dispatch(self, tmp_path):
        """A warm trace miss dispatches nothing, so a worker killed after
        warm-up first shows on the next run that dispatches: a pooled
        audit ends in ``WorkerCrashed`` (503), not a hang."""
        before = set(multiprocessing.active_children())
        warm = {"command": "trace", "scale": 1, "seed": "warm-before-kill"}
        after = {"command": "trace", "scale": 1, "seed": "warm-after-kill"}
        audit = {"command": "audit", "include_passthrough": False}

        async def scenario(service):
            async def send(body):
                # A hang fails here instead of stalling the suite.
                return await asyncio.wait_for(
                    request(service.port, "POST", "/runs", body), DEADLINE
                )

            first = await send(warm)
            workers = set(multiprocessing.active_children()) - before
            assert len(workers) == 2
            os.kill(workers.pop().pid, signal.SIGKILL)
            second = await send(after)
            _, _, status = await request(service.port, "GET", "/status")
            return first, second, await send(audit), json.loads(status)["pool"]

        telemetry.configure(enabled=False)
        first, second, crashed, pool = asyncio.run(
            with_service(serve_config(tmp_path, workers=2), scenario)
        )
        assert (first[0], first[1]["x-iotls-cache"]) == (200, "miss")
        assert (second[0], second[1]["x-iotls-cache"]) == (200, "miss")
        assert pool["dispatches"] == 40  # the warm miss dispatched nothing
        assert crashed[0] == 503
        assert crashed[1]["retry-after"] == str(ServeConfig.retry_after)
        entries = ledger.load_ledger(tmp_path / "ledger.jsonl")
        assert [(e["status"], (e.get("error") or {}).get("type")) for e in entries] == [
            ("ok", None),
            ("ok", None),
            ("error", "WorkerCrashed"),
        ]
        stream_path = tmp_path / "direct" / f"{second[1]['x-iotls-config-digest']}.records.jsonl"
        stream_path.parent.mkdir()
        config = api.RunConfig(scale=1, seed="warm-after-kill", ledger=None)
        api.run_trace(config, stream_path=stream_path)
        assert second[2] == stream_path.read_bytes()


class TestCacheContract:
    def test_miss_then_hit_identical_bytes_one_ledger_entry(self, tmp_path):
        async def scenario(service):
            port = service.port
            status1, headers1, body1 = await request(port, "POST", "/runs", TRACE_BODY)
            status2, headers2, body2 = await request(port, "POST", "/runs", TRACE_BODY)
            assert (status1, status2) == (200, 200)
            assert headers1["x-iotls-cache"] == "miss"
            assert headers2["x-iotls-cache"] == "hit"
            assert (
                headers1["x-iotls-manifest-digest"]
                == headers2["x-iotls-manifest-digest"]
            )
            assert body1 == body2
            return (headers1, body1), (headers2, body2)

        responses = asyncio.run(with_service(serve_config(tmp_path), scenario))
        entries = telemetry.load_ledger(tmp_path / "ledger.jsonl")
        # The hit computed nothing: one run, one entry.
        assert [entry["command"] for entry in entries] == ["trace"]
        assert entries[0]["manifest_digest"] == responses[0][0]["x-iotls-manifest-digest"]
        # Both bodies are the artifact file, framed by its exact size.
        artifact = Path(entries[0]["artifacts"]["records_jsonl"]["path"]).read_bytes()
        for headers, body in responses:
            assert "transfer-encoding" not in headers
            assert int(headers["content-length"]) == len(artifact)
            assert body == artifact

    def test_served_stream_matches_direct_single_worker_run(self, tmp_path):
        async def scenario(service):
            _, headers, body = await request(service.port, "POST", "/runs", TRACE_BODY)
            return headers, body

        headers, body = asyncio.run(with_service(serve_config(tmp_path), scenario))
        # Manifests fold in the artifact *basename* (path-free
        # provenance), so the byte-identical direct equivalent uses the
        # service's content-addressed name -- in a different directory.
        config = api.RunConfig(scale=1, seed="serve-test", ledger=None)
        digest = api.request_digest("trace", config)
        stream_path = tmp_path / "direct" / f"{digest}.records.jsonl"
        stream_path.parent.mkdir()
        direct = api.run_trace(config, stream_path=stream_path)
        assert headers["x-iotls-config-digest"] == digest
        assert headers["x-iotls-manifest-digest"] == direct.manifest_digest
        assert body == stream_path.read_bytes()

    def test_concurrent_distinct_requests_match_direct_runs(self, tmp_path):
        seeds = ["fleet-a", "fleet-b", "fleet-c", "fleet-d"]

        async def scenario(service):
            responses = await asyncio.gather(
                *(
                    request(
                        service.port,
                        "POST",
                        "/runs",
                        {"command": "trace", "scale": 1, "seed": seed},
                    )
                    for seed in seeds
                )
            )
            return responses

        responses = asyncio.run(
            with_service(serve_config(tmp_path, executors=4), scenario)
        )
        for seed, (status, headers, body) in zip(seeds, responses):
            assert status == 200
            config = api.RunConfig(scale=1, seed=seed, ledger=None)
            digest = api.request_digest("trace", config)
            stream_path = tmp_path / "direct" / f"{digest}.records.jsonl"
            stream_path.parent.mkdir(exist_ok=True)
            direct = api.run_trace(config, stream_path=stream_path)
            assert headers["x-iotls-manifest-digest"] == direct.manifest_digest, seed
            assert body == stream_path.read_bytes(), seed

    def test_dangling_artifact_recomputes_instead_of_serving_it(self, tmp_path):
        async def scenario(service):
            port = service.port
            _, first, _ = await request(port, "POST", "/runs", TRACE_BODY)
            assert first["x-iotls-cache"] == "miss"
            # Simulate `iotls runs gc`-eligible state: bytes deleted,
            # ledger entry still present.
            entries = telemetry.load_ledger(service.config.ledger)
            for info in entries[0]["artifacts"].values():
                (tmp_path / info["path"]).unlink()
            _, again, body = await request(port, "POST", "/runs", TRACE_BODY)
            assert again["x-iotls-cache"] == "miss"  # not a dangling hit
            return body

        body = asyncio.run(with_service(serve_config(tmp_path), scenario))
        assert body.splitlines()[-1].startswith(b'{"summary"')

    def test_an_older_release_result_is_not_served(self, tmp_path):
        """Release 1.0.0 drew trace flow counts differently; its cached
        results carry its version in their config digest and must miss."""

        async def scenario(service):
            port = service.port
            _, first, _ = await request(port, "POST", "/runs", TRACE_BODY)
            assert first["x-iotls-cache"] == "miss"
            # Re-record the live entry as release 1.0.0 would have.
            ledger_path = service.config.ledger
            (entry,) = telemetry.load_ledger(ledger_path)
            entry["config_digest"] = config_digest("trace", entry["params"], "1.0.0")
            ledger_path.write_text(json.dumps(entry, sort_keys=True) + "\n")
            _, again, _ = await request(port, "POST", "/runs", TRACE_BODY)
            return again

        again = asyncio.run(with_service(serve_config(tmp_path), scenario))
        assert again["x-iotls-cache"] == "miss"
        assert len(telemetry.load_ledger(tmp_path / "ledger.jsonl")) == 2

    def test_probe_envelope_is_not_cached(self, tmp_path):
        body = {"command": "probe", "device": "Google Home Mini"}

        async def scenario(service):
            port = service.port
            _, headers1, content1 = await request(port, "POST", "/runs", body)
            _, headers2, _ = await request(port, "POST", "/runs", body)
            return headers1, headers2, json.loads(content1)

        headers1, headers2, envelope = asyncio.run(
            with_service(serve_config(tmp_path), scenario)
        )
        assert headers1["x-iotls-cache"] == "miss"
        assert headers2["x-iotls-cache"] == "miss"  # probes always execute
        assert envelope["command"] == "probe"
        assert envelope["amenable"] is True
        assert not {"health", "heartbeats", "resources"} & envelope.keys()


class TestFailuresAreAttributed:
    """A vanished artifact, a client that leaves mid-body and a stop
    during a body each end in a typed access-log record, never a hang."""

    BIG_BODY_BYTES = 16 << 20  # well past the loopback socket buffers

    def _big_artifact(self, tmp_path, monkeypatch) -> Path:
        """Serve every trace miss from one large artifact, without a run."""
        stream_file = tmp_path / "big.jsonl"
        stream_file.write_bytes(b"x" * self.BIG_BODY_BYTES)
        result = SimpleNamespace(
            manifest_digest="feedfeedfeedfeed",
            artifacts={"records_jsonl": stream_file},
        )
        monkeypatch.setattr(api, "execute", lambda command, config, **extras: result)
        return stream_file

    @staticmethod
    def _events(tmp_path) -> list[dict]:
        lines = (tmp_path / "access.jsonl").read_text().splitlines()
        return [line for line in map(json.loads, lines) if line["kind"] == "event"]

    def test_artifact_vanishing_after_lookup_answers_503(self, tmp_path, monkeypatch):
        real_lookup = telemetry.lookup_config

        def lookup_then_delete(entries, digest):
            hit = real_lookup(entries, digest)
            for info in (hit or {}).get("artifacts", {}).values():
                Path(info["path"]).unlink()
            return hit

        async def scenario(service):
            port = service.port
            _, first, _ = await request(port, "POST", "/runs", TRACE_BODY)
            monkeypatch.setattr(telemetry, "lookup_config", lookup_then_delete)
            vanished = await request(port, "POST", "/runs", TRACE_BODY)
            again = await request(port, "POST", "/runs", TRACE_BODY)
            return first, vanished, again

        first, (status, headers, content), (status3, headers3, body3) = asyncio.run(
            with_service(serve_config(tmp_path), scenario)
        )
        assert first["x-iotls-cache"] == "miss"
        # Nothing went out before the open failed: a clean JSON 503.
        assert status == 503
        assert headers["content-type"] == "application/json"
        assert headers["retry-after"] == str(ServeConfig.retry_after)
        assert "vanished" in json.loads(content)["error"]
        errors = [e for e in self._events(tmp_path) if e["event"] == "request.error"]
        assert [e["status"] for e in errors] == [503]
        # The retry recomputes: lookup_config skips the dangling entry.
        assert (status3, headers3["x-iotls-cache"]) == (200, "miss")
        assert body3.splitlines()[-1].startswith(b'{"summary"')

    #: The read deadline these tests set, and how late past it a 408 may come.
    READ_DEADLINE = 0.2
    LATE_BY = 1.0

    @pytest.mark.parametrize(
        "sent, part",
        [
            (b"POST /runs HTTP/1.1\r\nContent-Le", "head"),
            (b'POST /runs HTTP/1.1\r\nContent-Length: 40\r\n\r\n{"command": ', "body"),
        ],
        ids=["half-a-head", "half-a-body"],
    )
    def test_a_stalled_client_gets_408_at_the_deadline(
        self, tmp_path, monkeypatch, sent, part
    ):
        monkeypatch.setattr(http, "READ_DEADLINE_SECONDS", self.READ_DEADLINE)

        async def scenario(service):
            loop = asyncio.get_running_loop()
            started = loop.time()
            reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
            writer.write(sent)
            await writer.drain()
            response = await reader.read()  # the server answers, then closes
            elapsed = loop.time() - started
            writer.close()
            await writer.wait_closed()
            return response, elapsed

        response, elapsed = asyncio.run(with_service(serve_config(tmp_path), scenario))
        assert response.startswith(b"HTTP/1.1 408 Request Timeout\r\n")
        assert f"request {part} not received within 0.2 s".encode() in response
        assert self.READ_DEADLINE <= elapsed < self.READ_DEADLINE + self.LATE_BY
        errors = [e for e in self._events(tmp_path) if e["event"] == "request.error"]
        assert [(e["status"], e["error"]) for e in errors] == [
            (408, f"request {part} not received within 0.2 s")
        ]

    def test_client_leaving_mid_body_is_not_a_server_error(self, tmp_path, monkeypatch):
        stream_file = self._big_artifact(tmp_path, monkeypatch)
        opened = []
        real_open = Path.open

        def spy_open(path, *args, **kwargs):
            handle = real_open(path, *args, **kwargs)
            if path == stream_file:
                opened.append(handle)
            return handle

        monkeypatch.setattr(Path, "open", spy_open)

        async def scenario(service):
            reader, writer = await open_request(service.port, "POST", "/runs", TRACE_BODY)
            try:
                status, headers = await read_head(reader)
                await reader.readexactly(16)
            finally:
                writer.close()  # unread bytes left behind: the kernel resets
                await writer.wait_closed()
            return status, headers, await request(service.port, "POST", "/runs", TRACE_BODY)

        status, headers, (status2, _, body) = asyncio.run(
            with_service(serve_config(tmp_path), scenario)
        )
        assert (status, headers.get("content-length")) == (200, str(self.BIG_BODY_BYTES))
        assert status2 == 200 and len(body) == self.BIG_BODY_BYTES
        assert len(opened) == 2 and all(handle.closed for handle in opened)
        events = self._events(tmp_path)
        assert not [e for e in events if e.get("status") == 500]
        disconnects = [e for e in events if e["event"] == "request.disconnect"]
        assert [e["path"] for e in disconnects] == ["/runs"]
        assert [e["status"] for e in events if e["event"] == "request"] == [200]

    def test_stop_waits_for_a_body_in_flight_to_be_logged(self, tmp_path, monkeypatch):
        self._big_artifact(tmp_path, monkeypatch)

        async def scenario():
            service = FleetService(serve_config(tmp_path))
            await service.start()
            reader, writer = await open_request(service.port, "POST", "/runs", TRACE_BODY)
            try:
                status, headers = await read_head(reader)
                stopping = asyncio.create_task(service.stop())
                await asyncio.sleep(0.2)
                sending = not stopping.done()
                received = 0
                while chunk := await reader.read(1 << 20):
                    received += len(chunk)
            finally:
                writer.close()
                await writer.wait_closed()
            await stopping
            return sending, status, headers.get("content-length"), received

        sending, status, length, received = asyncio.run(asyncio.wait_for(scenario(), 120))
        assert sending  # stop() waited while the handler was still sending
        assert (status, length) == (200, str(self.BIG_BODY_BYTES))
        assert received == self.BIG_BODY_BYTES
        requests = [e for e in self._events(tmp_path) if e["event"] == "request"]
        assert [(e["cache"], e["status"]) for e in requests] == [("miss", 200)]


class TestQueueAndCoalescing:
    """Backpressure and in-flight dedup, pinned deterministically by
    blocking the executor on an event instead of racing real runs."""

    def _blocking_execute(self, release: threading.Event, stream_file):
        calls: list[str] = []

        def fake_execute(command, config=api.RunConfig(), **extras):
            calls.append(command)
            assert release.wait(timeout=30), "test never released the executor"
            return SimpleNamespace(
                manifest_digest="feedfeedfeedfeed",
                artifacts={"records_jsonl": stream_file},
            )

        return fake_execute, calls

    def test_full_queue_gets_429_with_retry_after(self, tmp_path, monkeypatch):
        release = threading.Event()
        stream_file = tmp_path / "fake.jsonl"
        stream_file.write_text('{"summary": {}}\n')
        fake, calls = self._blocking_execute(release, stream_file)
        monkeypatch.setattr(api, "execute", fake)

        async def scenario(service):
            port = service.port

            def check_body(index):
                return {"command": "check", "scale": 1, "seed": f"q{index}"}

            # One request occupies the single executor, one fills the
            # queue (checks are uncacheable, so no coalescing applies).
            first = asyncio.create_task(request(port, "POST", "/runs", check_body(0)))
            await asyncio.sleep(0.3)
            second = asyncio.create_task(request(port, "POST", "/runs", check_body(1)))
            await asyncio.sleep(0.3)
            status, headers, content = await request(
                port, "POST", "/runs", check_body(2)
            )
            assert status == 429
            assert headers["retry-after"] == str(service.config.retry_after)
            assert "queue" in json.loads(content)["error"]
            release.set()
            results = await asyncio.gather(first, second)
            assert [status for status, _, _ in results] == [200, 200]
            return True

        assert asyncio.run(
            with_service(
                serve_config(tmp_path, queue_size=1, executors=1), scenario
            )
        )
        assert len(calls) == 2  # the 429'd request never executed

    def test_identical_inflight_requests_coalesce(self, tmp_path, monkeypatch):
        release = threading.Event()
        stream_file = tmp_path / "fake.jsonl"
        stream_file.write_text('{"summary": {}}\n')
        fake, calls = self._blocking_execute(release, stream_file)
        monkeypatch.setattr(api, "execute", fake)

        async def scenario(service):
            port = service.port
            first = asyncio.create_task(request(port, "POST", "/runs", TRACE_BODY))
            await asyncio.sleep(0.3)
            second = asyncio.create_task(request(port, "POST", "/runs", TRACE_BODY))
            await asyncio.sleep(0.3)
            release.set()
            (s1, h1, b1), (s2, h2, b2) = await asyncio.gather(first, second)
            assert (s1, s2) == (200, 200)
            assert h1["x-iotls-cache"] == "miss"
            assert h2["x-iotls-cache"] == "coalesced"
            assert b1 == b2 == stream_file.read_bytes()
            document = json.loads(
                (await request(port, "GET", "/status"))[2]
            )
            assert document["cache"]["coalesced"] == 1
            return True

        assert asyncio.run(with_service(serve_config(tmp_path), scenario))
        assert len(calls) == 1  # one computation served both tenants

    def test_serial_runs_reuse_one_run_thread(self, tmp_path, monkeypatch):
        """Each thread has its own malloc arena, so runs that hopped
        between the default executor's file-I/O threads made the peak
        RSS of one serial load differ from server to server."""
        stream_file = tmp_path / "fake.jsonl"
        stream_file.write_text('{"summary": {}}\n')
        threads: list[threading.Thread] = []

        def fake_execute(command, config=api.RunConfig(), **extras):
            threads.append(threading.current_thread())
            return SimpleNamespace(
                manifest_digest="feedfeedfeedfeed",
                artifacts={"records_jsonl": stream_file},
            )

        monkeypatch.setattr(api, "execute", fake_execute)

        async def scenario(service):
            for index in range(4):
                body = dict(TRACE_BODY, seed=f"thread-{index}")
                status, headers, _ = await request(service.port, "POST", "/runs", body)
                assert (status, headers["x-iotls-cache"]) == (200, "miss")
            return True

        assert asyncio.run(with_service(serve_config(tmp_path), scenario))
        assert len(threads) == 4
        assert len(set(threads)) == 1
        assert threads[0].name.startswith("iotls-serve-run")


class TestAccessLog:
    def test_thread_safe_sequencing(self, tmp_path):
        log = AccessLog(tmp_path / "log.jsonl", metadata={"service": "test"})
        threads = [
            threading.Thread(
                target=lambda wid=wid: [
                    log.record("request", worker=wid, index=i) for i in range(50)
                ]
            )
            for wid in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        log.close()
        path = tmp_path / "log.jsonl"
        assert check_contract(path, ACCESS_LOG_SCHEMA) == []
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        events = [line for line in lines if line["kind"] == "event"]
        assert len(events) == 400
        assert [event["seq"] for event in events] == list(range(1, 401))
        assert lines[-1]["counts"] == {"request": 400}
        assert log.record("late") == {}  # closed logs drop silently

    def test_service_writes_heartbeats_and_lifecycle(self, tmp_path):
        async def scenario(service):
            await request(service.port, "POST", "/runs", TRACE_BODY)
            return True

        assert asyncio.run(with_service(serve_config(tmp_path), scenario))
        lines = [
            json.loads(line)
            for line in (tmp_path / "access.jsonl").read_text().splitlines()
        ]
        events = {line.get("event") for line in lines if line["kind"] == "event"}
        assert {"server.start", "run.start", "run.ok", "request"} <= events
        # heartbeat_interval=0.05 against a ~second-long run: the
        # per-request liveness signal must actually fire.
        assert "request.heartbeat" in events


class TestLedgerIsTheCacheIndex:
    def test_serve_entries_satisfy_cli_lookup(self, tmp_path):
        """`iotls runs lookup` and the service read the same index."""

        async def scenario(service):
            await request(service.port, "POST", "/runs", TRACE_BODY)
            return True

        assert asyncio.run(with_service(serve_config(tmp_path), scenario))
        entries = telemetry.load_ledger(tmp_path / "ledger.jsonl")
        config = api.RunConfig.from_document(
            {k: v for k, v in TRACE_BODY.items() if k != "command"}
        )
        hit = ledger.lookup_config(entries, api.request_digest("trace", config))
        assert hit is not None
        assert hit["manifest_digest"] == entries[0]["manifest_digest"]
