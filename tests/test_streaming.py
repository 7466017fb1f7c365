"""Streaming execution core: sinks, accumulators, and stream/materialised
equivalence.

The contract under test is the one the run facade relies on: feeding the
record stream through the incremental accumulators yields *exactly* the
analyses, exports, and run manifests the materialised path produces --
for any worker count, with or without a flow cap -- while peak memory
stays independent of ``scale``.
"""

from __future__ import annotations

import json
import pickle
import random
import tempfile
import tracemalloc
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import telemetry
from repro.analysis import analyze_capture, measure_analysis, measure_capture
from repro.analysis import export
from repro.analysis.export import (
    JsonlStreamWriter,
    capture_from_stream,
    fold_stream,
    record_from_dict,
    record_to_dict,
    revocation_event_from_dict,
)
from repro.analysis.streaming import TraceAnalysisPipeline
from repro.cli import main
from repro.devices.catalog import passive_devices
from repro.devices.profile import STUDY_MONTHS, Party
from repro.longitudinal import (
    PassiveTraceGenerator,
    VersionHeatmapAccumulator,
    detect_adoption_events_from_heatmaps,
    insecure_advertised_accumulator,
    strong_established_accumulator,
)
from repro.telemetry.provenance import canonical_json
from repro.testbed import (
    CaptureSink,
    CaptureTee,
    DiscardSink,
    FlowRecordChunker,
    GatewayCapture,
    RecordChunk,
    RevocationEvent,
)
from repro.tls.ciphersuites import REGISTRY
from repro.tls.versions import ProtocolVersion, VersionBand


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.configure(enabled=False)
    yield
    telemetry.configure(enabled=False)


def _chunk_of(*records, events=()) -> RecordChunk:
    """One device's records (and revocation events) as a columnar chunk."""
    (device,) = {record.device for record in records}
    return RecordChunk(
        device,
        **{
            name: [getattr(record, field) for record in records]
            for name, field in (
                ("hostnames", "hostname"),
                ("parties", "party"),
                ("months", "month"),
                ("whens", "when"),
                ("client_hellos", "client_hello"),
                ("establisheds", "established"),
                ("established_versions", "established_version"),
                ("established_cipher_codes", "established_cipher_code"),
                ("client_alerts", "client_alert"),
                ("downgradeds", "downgraded"),
                ("counts", "count"),
            )
        },
        revocation_events=events,
    )


class TestSinks:
    def test_capture_satisfies_sink_protocol(self):
        assert isinstance(GatewayCapture(), CaptureSink)
        assert isinstance(DiscardSink(), CaptureSink)
        assert isinstance(CaptureTee(), CaptureSink)
        assert isinstance(FlowRecordChunker(DiscardSink(), 10), CaptureSink)
        assert isinstance(TraceAnalysisPipeline(), CaptureSink)

    def test_chunker_splits_batched_records(self, passive_capture):
        record = replace(passive_capture.records[0], count=7)
        capture = GatewayCapture()
        chunker = FlowRecordChunker(capture, 3)
        chunker.add_batch(_chunk_of(record))
        assert chunker.records_seen == 3
        assert [r.count for r in capture.records] == [3, 3, 1]
        assert sum(r.count for r in capture.records) == 7
        assert all(replace(r, count=7) == record for r in capture.records)

    def test_chunker_passes_small_records_through(self, passive_capture):
        record = replace(passive_capture.records[0], count=3)
        sink = DiscardSink()
        chunker = FlowRecordChunker(sink, 3)
        chunker.add_batch(_chunk_of(record))
        assert sink.records_seen == 1
        assert sink.connections_seen == 3

    def test_chunker_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            FlowRecordChunker(DiscardSink(), 0)

    def test_tee_fans_out_and_counts_once(self, passive_capture):
        telemetry.configure(enabled=True)
        staging = GatewayCapture(counted=False)
        discard = DiscardSink()
        tee = CaptureTee(staging, discard)
        records = passive_capture.records[:3]
        tee.add_batch(_chunk_of(*records, events=passive_capture.revocation_events[:1]))
        assert staging.records == list(records)
        assert discard.records_seen == 3
        assert tee.records_seen == 3
        registry = telemetry.get_registry()
        assert registry.counter("iotls_capture_records_total").total() == 3
        assert registry.counter("iotls_capture_connections_total").total() == sum(
            r.count for r in records
        )
        assert registry.counter("iotls_capture_revocation_events_total").total() == 1

    def test_staging_capture_does_not_count(self, passive_capture):
        telemetry.configure(enabled=True)
        staging = GatewayCapture(counted=False)
        staging.add(passive_capture.records[0])
        staging.add_revocation_event(passive_capture.revocation_events[0])
        registry = telemetry.get_registry()
        assert registry.counter("iotls_capture_records_total").total() == 0
        assert registry.counter("iotls_capture_revocation_events_total").total() == 0


def _cells(table):
    """``{device: monthly values}`` of one heatmap table (None = gray cell)."""
    return {device: series.values for device, series in table.items()}


def _version_cells(versions):
    """Figure 1's cells, per band and advertised/established table."""
    return {
        (band, established): _cells(
            (versions.established if established else versions.advertised)[band]
        )
        for band in VersionBand
        for established in (False, True)
    }


class TestAccumulators:
    """Accumulators are order-independent count-weighted tallies."""

    def test_version_accumulator_order_invariant(self, passive_capture):
        records = list(passive_capture.records[:500])
        shuffled = list(records)
        random.Random("stream-order").shuffle(shuffled)

        forward, backward = VersionHeatmapAccumulator(), VersionHeatmapAccumulator()
        for record in records:
            forward.add(record)
        for record in shuffled:
            backward.add(record)
        left, right = forward.finalize(), backward.finalize()
        assert left.devices == right.devices
        assert _version_cells(left) == _version_cells(right)

    def test_fraction_accumulators_order_invariant(self, passive_capture):
        records = list(passive_capture.records[:500])
        shuffled = list(records)
        random.Random("stream-order-2").shuffle(shuffled)
        for factory in (insecure_advertised_accumulator, strong_established_accumulator):
            forward, backward = factory(), factory()
            for record in records:
                forward.add(record)
            for record in shuffled:
                backward.add(record)
            left, right = forward.finalize(), backward.finalize()
            assert left.devices == right.devices
            assert left.shown_devices() == right.shown_devices()
            assert _cells(left.series) == _cells(right.series)


class TestPipelineEquivalence:
    """The incremental pipeline reproduces every batch analysis exactly."""

    def test_pipeline_matches_batch_builders(self, passive_capture):
        """The chunk fold equals the per-record reference fold, and each
        figure equals its own accumulator fed the capture record by record."""
        analysis = analyze_capture(passive_capture)
        chunked = TraceAnalysisPipeline()
        for device in dict.fromkeys(r.device for r in passive_capture.records):
            chunked.add_batch(
                _chunk_of(
                    *(r for r in passive_capture.records if r.device == device),
                    events=[
                        e for e in passive_capture.revocation_events if e.device == device
                    ],
                )
            )
        chunk_analysis = chunked.finalize()

        version_acc = VersionHeatmapAccumulator()
        insecure_acc = insecure_advertised_accumulator()
        strong_acc = strong_established_accumulator()
        for record in passive_capture.records:
            for accumulator in (version_acc, insecure_acc, strong_acc):
                accumulator.add(record)
        versions = version_acc.finalize()
        insecure = insecure_acc.finalize()
        strong = strong_acc.finalize()
        for candidate in (analysis, chunk_analysis):
            assert candidate.versions.devices == versions.devices
            assert _version_cells(candidate.versions) == _version_cells(versions)
            assert _cells(candidate.insecure.series) == _cells(insecure.series)
            assert candidate.insecure.shown_devices() == insecure.shown_devices()
            assert _cells(candidate.strong.series) == _cells(strong.series)
            assert candidate.strong.shown_devices() == strong.shown_devices()
            assert candidate.adoption_events == detect_adoption_events_from_heatmaps(
                versions, insecure, strong
            )
            assert candidate.flow_records == len(passive_capture)
            assert candidate.connections == sum(r.count for r in passive_capture.records)
        assert measure_analysis(chunk_analysis) == measure_analysis(analysis)

    def test_measured_cells_identical(self, passive_capture):
        assert measure_capture(passive_capture) == measure_analysis(
            analyze_capture(passive_capture)
        )


class TestStreamEqualsMaterialised:
    def test_stream_into_matches_generate(self, testbed):
        generator = PassiveTraceGenerator(testbed, scale=2, seed="stream-eq")
        materialised = generator.generate()
        streamed = GatewayCapture()
        generator.stream_into(streamed)
        assert streamed.records == materialised.records
        assert streamed.revocation_events == materialised.revocation_events

    def test_flow_cap_preserves_analysis(self, testbed):
        plain = PassiveTraceGenerator(testbed, scale=2, seed="stream-eq").generate()
        capped = PassiveTraceGenerator(
            testbed, scale=2, seed="stream-eq", flow_cap=5
        ).generate()
        assert len(capped) > len(plain)
        assert max(r.count for r in capped.records) <= 5
        assert sum(r.count for r in capped.records) == sum(
            r.count for r in plain.records
        )
        assert measure_capture(capped) == measure_capture(plain)


class TestManifestParity:
    """Streaming and materialised runs write byte-identical manifests."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_stream_manifest_matches_materialised(self, workers, worker_pool):
        from repro.api import RunConfig, run_trace

        # Serial runs carry telemetry, so their manifests hold the
        # tee-counted metrics; pooled runs carry none.
        config = RunConfig(
            scale=1, seed="stream-manifest", telemetry=workers == 1, ledger=None
        )
        materialised = run_trace(config)
        streamed = run_trace(replace(config, stream=True, pool=worker_pool(workers)))
        assert canonical_json(streamed.manifest) == canonical_json(materialised.manifest)


class TestJsonlStream:
    def test_stream_out_roundtrips_and_passes_check(self, tmp_path, capsys, testbed):
        path = tmp_path / "trace.jsonl"
        assert main(["trace", "--scale", "1", "--stream-out", str(path)]) == 0

        header = json.loads(path.read_text().splitlines()[0])
        assert header["schema"] == "iotls-trace-stream/1"
        assert header["metadata"]["scale"] == 1

        restored = capture_from_stream(path)
        expected = PassiveTraceGenerator(testbed, scale=1).generate()
        assert restored.records == expected.records
        assert restored.revocation_events == expected.revocation_events

        assert main(["check", "--artifact", str(path)]) == 0
        out = capsys.readouterr().out
        assert "no drift detected" in out

    def test_writer_header_and_summary(self, tmp_path, passive_capture):
        path = tmp_path / "stream.jsonl"
        record = passive_capture.records[0]
        with JsonlStreamWriter(path, metadata={"origin": "test"}) as writer:
            writer.add(record)
            writer.add_revocation_event(passive_capture.revocation_events[0])
        writer.close()  # idempotent
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["metadata"] == {"origin": "test"}
        assert lines[-1]["summary"] == {
            "connections": record.count,
            "flow_records": 1,
            "revocation_events": 1,
        }

    def test_fold_stream_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bogus.jsonl"
        path.write_text(json.dumps({"schema": "bogus/9", "metadata": {}}) + "\n")
        with pytest.raises(ValueError, match="schema"):
            fold_stream(path, DiscardSink())


def _write_stream(path: Path, items) -> None:
    """Write records and revocation events as a JSONL artifact, in order."""
    with JsonlStreamWriter(path) as writer:
        for item in items:
            if isinstance(item, RevocationEvent):
                writer.add_revocation_event(item)
            else:
                writer.add(item)


class TestDamagedArtifacts:
    """A damaged artifact raises; it is never audited as paper drift."""

    @pytest.fixture()
    def lines(self, tmp_path, passive_capture):
        path = tmp_path / "whole.jsonl"
        _write_stream(
            path,
            list(passive_capture.records[:5]) + passive_capture.revocation_events[:2],
        )
        return path.read_text().splitlines(keepends=True)

    def _fold(self, tmp_path, lines):
        path = tmp_path / "damaged.jsonl"
        path.write_text("".join(lines))
        return fold_stream(path, DiscardSink())

    def test_whole_artifact_folds(self, tmp_path, lines):
        assert self._fold(tmp_path, lines) == {}

    def test_empty_artifact(self, tmp_path):
        with pytest.raises(ValueError, match="header"):
            self._fold(tmp_path, [])

    def test_missing_header(self, tmp_path, lines):
        with pytest.raises(ValueError, match="header"):
            self._fold(tmp_path, lines[1:])

    def test_missing_summary(self, tmp_path, lines):
        with pytest.raises(ValueError, match="summary trailer"):
            self._fold(tmp_path, lines[:-1])

    def test_summary_not_last(self, tmp_path, lines):
        with pytest.raises(ValueError, match="follows the summary"):
            self._fold(tmp_path, lines[:2] + lines[-1:] + lines[2:-1])

    @pytest.mark.parametrize("key", ["flow_records", "connections", "revocation_events"])
    def test_trailer_counts_must_match(self, tmp_path, lines, key):
        trailer = json.loads(lines[-1])
        trailer["summary"][key] += 1
        with pytest.raises(ValueError, match=f"disagrees.*{key}"):
            self._fold(tmp_path, lines[:-1] + [json.dumps(trailer) + "\n"])

    @pytest.mark.parametrize(
        "key, value",
        [
            ("flow_records", True),
            ("revocation_events", True),
            ("flow_records", 1.0),
            ("connections", "float"),
            ("revocation_events", 1.0),
        ],
        ids=["records-bool", "events-bool", "records-float", "connections-float", "events-float"],
    )
    def test_trailer_counts_must_be_exact_ints(self, tmp_path, lines, key, value):
        # One record and one event, so the record and event counts are 1.
        count = json.loads(lines[1])["record"]["count"]
        summary = {"flow_records": 1, "connections": count, "revocation_events": 1}
        body = [lines[0], lines[1], lines[6]]
        self._fold(tmp_path, body + [json.dumps({"summary": summary}) + "\n"])
        summary[key] = float(count) if value == "float" else value
        with pytest.raises(ValueError, match=f"disagrees.*{key}"):
            self._fold(tmp_path, body + [json.dumps({"summary": summary}) + "\n"])

    @pytest.mark.parametrize(
        "index, kind, key, value, message",
        [
            (1, "record", "month", -1, "'month' is -1, outside 0..26"),
            (1, "record", "month", STUDY_MONTHS, "'month' is 27, outside 0..26"),
            (1, "record", "count", 0, "'count' is 0, below 1"),
            (1, "record", "count", -50, "'count' is -50, below 1"),
            (6, "revocation_event", "month", -1, "'month' is -1, outside 0..26"),
            (6, "revocation_event", "month", STUDY_MONTHS, "'month' is 27, outside 0..26"),
        ],
        ids=[
            "record-month-negative",
            "record-month-past-study",
            "record-count-zero",
            "record-count-negative",
            "event-month-negative",
            "event-month-past-study",
        ],
    )
    def test_out_of_range_field_names_its_line(
        self, tmp_path, lines, index, kind, key, value, message
    ):
        payload = json.loads(lines[index])
        payload[kind][key] = value
        damaged = [*lines[:index], json.dumps(payload) + "\n", *lines[index + 1 :]]
        with pytest.raises(ValueError, match=f"line {index + 1}: {kind} field {message}"):
            self._fold(tmp_path, damaged)

    @pytest.mark.parametrize("month", [-1, STUDY_MONTHS])
    def test_check_exits_2_on_out_of_range_month(self, tmp_path, capsys, lines, month):
        payload = json.loads(lines[1])
        payload["record"]["month"] = month
        path = tmp_path / "months.jsonl"
        path.write_text("".join([lines[0], json.dumps(payload) + "\n", *lines[2:]]))
        assert main(["check", "--artifact", str(path), "--no-ledger"]) == 2
        assert "outside 0..26" in capsys.readouterr().err

    def test_check_exits_2_on_truncated_artifact(self, tmp_path, capsys, lines):
        path = tmp_path / "trunc.jsonl"
        path.write_text("".join(lines[:-1]))
        assert main(["check", "--artifact", str(path), "--no-ledger"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda payload: 5, "not a JSON object"),
            (lambda payload: {"record": 5}, "record is not an object"),
            (lambda payload: {"record": {}}, "missing field 'device'"),
            (lambda payload: {"record": dict(payload["record"], count="3")}, "record field 'count'"),
            (lambda payload: {"record": dict(payload["record"], client_hello_hex="zz")}, "non-hex"),
            (
                lambda payload: {"record": dict(payload["record"], established_version="TLS 9.9")},
                "record field 'established_version' is 'TLS 9.9'",
            ),
            (
                lambda payload: {"record": dict(payload["record"], established_cipher="beef")},
                "record field 'established_cipher' is 'beef'",
            ),
        ],
        ids=[
            "non-object",
            "record-5",
            "missing-device",
            "mistyped-count",
            "bad-hex",
            "unknown-version",
            "unknown-cipher",
        ],
    )
    def test_malformed_line_names_its_number(self, tmp_path, lines, damage, message):
        damaged = json.dumps(damage(json.loads(lines[1]))) + "\n"
        with pytest.raises(ValueError, match=f"line 2: {message}"):
            self._fold(tmp_path, [lines[0], damaged, *lines[2:]])

    @pytest.mark.parametrize(
        "index, kind, key",
        [(1, "record", "month"), (1, "record", "count"), (6, "revocation_event", "month")],
        ids=["record-month", "record-count", "event-month"],
    )
    def test_boolean_is_not_an_int(self, tmp_path, lines, index, kind, key):
        payload = json.loads(lines[index])
        payload[kind][key] = True
        damaged = [*lines[:index], json.dumps(payload) + "\n", *lines[index + 1 :]]
        with pytest.raises(
            ValueError, match=f"line {index + 1}: {kind} field '{key}' has type bool"
        ):
            self._fold(tmp_path, damaged)

    def test_record_from_dict_rejects_boolean_count(self, lines):
        entry = json.loads(lines[1])["record"]
        record_from_dict(entry)
        with pytest.raises(ValueError, match="record field 'count' has type bool"):
            record_from_dict({**entry, "count": True})

    def test_header_metadata_must_be_an_object(self, tmp_path, lines):
        header = json.loads(lines[0])
        header["metadata"] = 7
        with pytest.raises(ValueError, match="line 1: header needs a 'metadata' object"):
            self._fold(tmp_path, [json.dumps(header) + "\n", *lines[1:]])

    def test_check_exits_2_on_malformed_record(self, tmp_path, capsys, lines):
        path = tmp_path / "malformed.jsonl"
        path.write_text("".join([lines[0], '{"record": 5}\n', *lines[2:]]))
        assert main(["check", "--artifact", str(path), "--no-ledger"]) == 2
        assert "error:" in capsys.readouterr().err


def _fold_per_record(path: Path, sink) -> None:
    """The reference fold: every line through ``add`` or
    ``add_revocation_event``, one at a time."""
    for line in path.read_text().splitlines()[1:]:
        payload = json.loads(line)
        if "record" in payload:
            sink.add(record_from_dict(payload["record"]))
        elif "revocation_event" in payload:
            sink.add_revocation_event(
                revocation_event_from_dict(payload["revocation_event"])
            )


#: A passive device with revocation events; its stream keeps the events
#: and drops every record.
EVENTS_ONLY_DEVICE = "Samsung TV"


@st.composite
def generated_streams(draw, testbed):
    """(items, run bound): a generated trace's records and revocation
    events for a device subset, in catalog, interleaved or shuffled order."""
    seed = draw(st.text("abcxyz0123", min_size=1, max_size=6))
    flow_cap = draw(st.sampled_from([None, 1, 5]))
    profiles = draw(
        st.lists(
            st.sampled_from(
                [p for p in passive_devices() if p.name != EVENTS_ONLY_DEVICE]
            ),
            min_size=1,
            max_size=3,
            unique_by=lambda profile: profile.name,
        )
    )
    generator = PassiveTraceGenerator(testbed, scale=1, seed=seed)
    per_device = []
    for profile in profiles:
        chunk = generator.generate_device_chunk(profile)
        if flow_cap is not None:
            chunk = chunk.with_split_cap(flow_cap)
        per_device.append(list(chunk.iter_records()) + list(chunk.revocation_events))
    (events_only,) = [p for p in passive_devices() if p.name == EVENTS_ONLY_DEVICE]
    events = list(generator.generate_device_chunk(events_only).revocation_events)
    assert events
    per_device.insert(draw(st.integers(0, len(per_device))), events)

    order = draw(st.sampled_from(["catalog", "interleaved", "shuffled"]))
    rng = draw(st.randoms(use_true_random=False))
    if order == "catalog":
        items = [item for device in per_device for item in device]
    elif order == "interleaved":
        blocks = []
        for device in per_device:
            at = 0
            while at < len(device):
                size = rng.randint(1, 20)
                blocks.append(device[at : at + size])
                at += size
        rng.shuffle(blocks)
        items = [item for block in blocks for item in block]
    else:
        items = [item for device in per_device for item in device]
        rng.shuffle(items)
    bound = draw(st.sampled_from([export._FOLD_RUN, 1, 3, 17]))
    return items, bound


class _ChunkLoggingPipeline(TraceAnalysisPipeline):
    """The analysis pipeline, noting each chunk's shape and any ``add``."""

    def __init__(self) -> None:
        super().__init__()
        self.chunks: list[tuple[int, set[str]]] = []
        self.adds = 0

    def add(self, record) -> None:
        self.adds += 1
        super().add(record)

    def add_batch(self, chunk) -> None:
        devices = {chunk.device}
        devices.update(record.device for record in chunk.iter_records())
        devices.update(event.device for event in chunk.revocation_events)
        self.chunks.append((len(chunk) + len(chunk.revocation_events), devices))
        super().add_batch(chunk)


class _ItemLog:
    """A sink that logs each chunk's logical records, then its events."""

    def __init__(self) -> None:
        self.items: list = []

    def add_batch(self, chunk) -> None:
        self.items.extend(chunk.iter_records())
        self.items.extend(chunk.revocation_events)


_FOLD_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestBatchedFoldEquivalence:
    """fold_stream's device-run chunks fold exactly like a per-record fold."""

    @given(data=st.data())
    @_FOLD_SETTINGS
    def test_pipeline_cells_match_per_record_fold(self, testbed, data):
        items, bound = data.draw(generated_streams(testbed))
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "trace.jsonl"
            _write_stream(path, items)
            batched = _ChunkLoggingPipeline()
            with mock.patch.object(export, "_FOLD_RUN", bound):
                fold_stream(path, batched)
            reference = TraceAnalysisPipeline()
            _fold_per_record(path, reference)

        assert batched.adds == 0
        assert batched.chunks
        for size, devices in batched.chunks:
            assert 0 < size <= bound
            assert len(devices) == 1
        left, right = batched.finalize(), reference.finalize()
        assert measure_analysis(left) == measure_analysis(right)
        assert (left.flow_records, left.connections, left.revocation_event_count) == (
            right.flow_records,
            right.connections,
            right.revocation_event_count,
        )
        assert _cells(left.insecure.series) == _cells(right.insecure.series)
        assert _cells(left.strong.series) == _cells(right.strong.series)

    @given(data=st.data())
    @_FOLD_SETTINGS
    def test_capture_and_plain_sink_match_per_record_fold(self, testbed, data):
        items, bound = data.draw(generated_streams(testbed))
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "trace.jsonl"
            _write_stream(path, items)
            batched, plain = GatewayCapture(), _ItemLog()
            with mock.patch.object(export, "_FOLD_RUN", bound):
                fold_stream(path, batched)
                fold_stream(path, plain)
            reference = GatewayCapture()
            _fold_per_record(path, reference)

        assert batched.records == reference.records
        assert batched.revocation_events == reference.revocation_events
        # Chunks keep the artifact's exact line order.
        assert plain.items == items


#: Strings a JSON encoder must escape: quotes, backslashes, control and
#: non-ASCII characters (outside the BMP too).
_AWKWARD_TEXT = st.text(
    st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7fé☃\U0001f512'), st.characters()),
    max_size=8,
)


@st.composite
def generated_chunks(draw, hellos):
    """1-3 one-device chunks of arbitrary field values, each viewed
    through the same generated flow cap (or none)."""
    split_cap = draw(st.none() | st.integers(1, 6))
    chunks = []
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, 5))

        def column(strategy):
            return draw(st.lists(strategy, min_size=size, max_size=size))

        chunk = RecordChunk(
            draw(_AWKWARD_TEXT),
            hostnames=column(_AWKWARD_TEXT),
            parties=column(st.sampled_from(Party)),
            months=column(st.integers(0, STUDY_MONTHS - 1)),
            whens=column(
                st.datetimes(
                    min_value=datetime(2000, 1, 1),
                    max_value=datetime(2040, 1, 1),
                    timezones=st.sampled_from(
                        [None, timezone.utc, timezone(timedelta(hours=-3, minutes=-30))]
                    ),
                )
            ),
            client_hellos=column(st.sampled_from(hellos)),
            establisheds=column(st.booleans()),
            established_versions=column(st.none() | st.sampled_from(ProtocolVersion)),
            established_cipher_codes=column(st.none() | st.sampled_from(sorted(REGISTRY))),
            client_alerts=column(st.none() | _AWKWARD_TEXT),
            downgradeds=column(st.booleans()),
            counts=column(st.integers(1, 20)),
        )
        chunks.append(chunk if split_cap is None else chunk.with_split_cap(split_cap))
    return chunks


class TestWriterEncoding:
    """The templated writer writes the reference encoding, byte for byte."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_lines_equal_reference_encoding(self, passive_capture, data):
        hellos = list(
            {id(r.client_hello): r.client_hello for r in passive_capture.records[:400]}.values()
        )
        chunks = data.draw(generated_chunks(hellos))
        records = [record for chunk in chunks for record in chunk.iter_records()]
        with tempfile.TemporaryDirectory() as scratch:
            batched, looped = Path(scratch) / "batched.jsonl", Path(scratch) / "looped.jsonl"
            with JsonlStreamWriter(batched) as writer:
                for chunk in chunks:
                    writer.add_batch(chunk)
            with JsonlStreamWriter(looped) as writer:
                for record in records:
                    writer.add(record)
            text = batched.read_text()
            assert looped.read_text() == text
            assert text.splitlines(keepends=True)[1:-1] == [
                json.dumps({"record": record_to_dict(record)}, sort_keys=True) + "\n"
                for record in records
            ]
            assert capture_from_stream(batched).records == records


def _writer_hellos(capture) -> list:
    """The distinct hello objects of a capture's first 400 records."""
    return list({id(r.client_hello): r.client_hello for r in capture.records[:400]}.values())


def _fold_outcome(path: Path) -> tuple:
    """``("ok", items)`` of a fold into :class:`_ItemLog`, or
    ``("error", message)`` of the ``ValueError`` it raises."""
    log = _ItemLog()
    try:
        fold_stream(path, log)
    except ValueError as exc:
        return "error", str(exc)
    return "ok", log.items


def _one_parse_outcome(path: Path) -> tuple[tuple, list[str]]:
    """:func:`_fold_outcome`, and the lines the one-parse path kept."""
    accepted: list[str] = []
    one_parse = export._canonical_row

    def spy(line, *state):
        row = one_parse(line, *state)
        if row is not None:
            accepted.append(line)
        return row

    with mock.patch.object(export, "_canonical_row", spy):
        return _fold_outcome(path), accepted


def _full_parse_outcome(path: Path) -> tuple:
    """:func:`_fold_outcome` with every line on the full ``json.loads`` path."""
    with mock.patch.object(export, "_canonical_row", lambda *args: None):
        return _fold_outcome(path)


def _damage(draw, line: str, hellos) -> str:
    """One record line (no newline), changed in one drawn way."""
    payload = json.loads(line)
    record = payload["record"]
    cut = line.index(export._ALERT_KEY)
    kind = draw(
        st.sampled_from(
            [
                "compact", "spaces", "trailing-space", "reordered", "ciphers",
                "nested", "duplicate-in-head", "duplicate-in-tail", "extra-outer-key",
                "extra-outer-key-first", "other-outer-key", "head-byte-dropped",
                "truncated",
            ]
        )
    )
    text = draw(_AWKWARD_TEXT)
    if kind == "compact":
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
    if kind == "spaces":
        return json.dumps(payload, sort_keys=True, separators=(",  ", ":  "))
    if kind == "trailing-space":
        return line[:-1] + " }"
    if kind == "reordered":
        keys = draw(st.permutations(sorted(record)))
        return json.dumps({"record": {key: record[key] for key in keys}})
    if kind == "ciphers":
        other = draw(st.sampled_from(hellos))
        record["advertised_ciphers"] = [suite.name for suite in other.cipher_suites()][::-1]
        return json.dumps(payload, sort_keys=True)
    if kind == "nested":
        # An object holding "client_alert" before the real one.
        where = draw(st.sampled_from(["before", "in-head"]))
        if where == "before":
            return line.replace('{"record": {', '{"record": {"a": {"client_alert": null}, ', 1)
        record["advertised_max_version"] = {"client_alert": text}
        return json.dumps(payload, sort_keys=True)
    if kind == "duplicate-in-head":
        key = draw(st.sampled_from(sorted(record)))
        return f"{line[:cut]}{json.dumps(key)}: {json.dumps(text)}, {line[cut:]}"
    if kind == "duplicate-in-tail":
        key = draw(st.sampled_from(sorted(record)))
        return f"{line[:-2]}, {json.dumps(key)}: {json.dumps(text)}}}}}"
    if kind == "extra-outer-key":
        return f"{line[:-1]}, {json.dumps(text)}: 1}}"
    if kind == "extra-outer-key-first":
        return f"{{{json.dumps(text)}: 1, {line[1:]}"
    if kind == "other-outer-key":
        key = draw(st.sampled_from(["revocation_event", "summary", "records"]))
        return line.replace('"record"', json.dumps(key), 1)
    if kind == "head-byte-dropped":
        at = draw(st.integers(0, cut - 1))
        return line[:at] + line[at + 1 :]
    return line[: draw(st.integers(0, len(line) - 1))]


class TestOneParseReader:
    """A record line the writer wrote is parsed after its fixed head
    only; every other line takes the full ``json.loads`` path, so
    results and error messages are the same either way."""

    @given(data=st.data())
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_damaged_lines_fold_as_the_full_parse_does(self, passive_capture, data):
        hellos = _writer_hellos(passive_capture)
        chunks = data.draw(generated_chunks(hellos))
        events = passive_capture.revocation_events[: data.draw(st.integers(0, 2))]
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "trace.jsonl"
            with JsonlStreamWriter(path) as writer:
                for chunk in chunks:
                    writer.add_batch(chunk)
                for event in events:
                    writer.add_revocation_event(event)
            lines = path.read_text().splitlines()
            records = range(1, len(lines) - 1 - len(events))
            damaged = data.draw(st.sets(st.sampled_from(records), min_size=1, max_size=3))
            for index in damaged:
                lines[index] = _damage(data.draw, lines[index], hellos)
            text = "\n".join(lines) + "\n"
            if data.draw(st.booleans()):
                text = text[: data.draw(st.integers(0, len(text)))]
            path.write_text(text)

            outcome, accepted = _one_parse_outcome(path)
            assert outcome == _full_parse_outcome(path)
            if outcome[0] == "ok":
                reference = GatewayCapture()
                _fold_per_record(path, reference)
                assert outcome[1] == reference.records + reference.revocation_events
                kept = {lines[index] for index in records if index not in damaged}
                assert kept <= set(accepted)

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda line: line.replace('"record"', '"records"', 1), "unrecognised stream line"),
            (lambda line: line.replace('"record"', '"summary"', 1), "follows the summary"),
            (lambda line: line.replace("[", "", 1), "line 2: Expecting"),
            (lambda line: line.replace(', "client_alert"', ' "client_alert"', 1), "line 2: Expecting"),
        ],
        ids=["other-outer-key", "summary-outer-key", "no-list-bracket", "no-comma"],
    )
    def test_a_head_the_full_parse_rejects_is_never_skipped(
        self, tmp_path, passive_capture, damage, message
    ):
        path = tmp_path / "damaged.jsonl"
        _write_stream(path, passive_capture.records[:5])
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = damage(lines[1])
        path.write_text("".join(lines))
        outcome, accepted = _one_parse_outcome(path)
        assert outcome == _full_parse_outcome(path)
        assert outcome[0] == "error" and message in outcome[1]
        assert lines[1].strip() not in accepted

    def test_compact_artifact_takes_the_full_parse_path(self, tmp_path, passive_capture):
        canonical, compact = tmp_path / "canonical.jsonl", tmp_path / "compact.jsonl"
        items = passive_capture.records[:50] + passive_capture.revocation_events[:3]
        _write_stream(canonical, items)
        compact.write_text(
            "".join(
                json.dumps(json.loads(line), sort_keys=True, separators=(",", ":")) + "\n"
                for line in canonical.read_text().splitlines()
            )
        )
        outcome, accepted = _one_parse_outcome(canonical)
        assert outcome == ("ok", items)
        assert len(accepted) == 50
        outcome, accepted = _one_parse_outcome(compact)
        assert outcome == ("ok", items)
        assert accepted == []


class TestHelloFeatureCache:
    """The pipeline's per-hello features are keyed by identity."""

    def test_equal_hellos_from_a_pickle_fold_alike(self, testbed):
        generator = PassiveTraceGenerator(testbed, scale=1, seed="hello-identity")
        chunks = [generator.generate_device_chunk(p) for p in passive_devices()]
        # A pickle round trip (the spawn-worker hop) gives equal hellos
        # that are different objects.
        copies = pickle.loads(pickle.dumps(chunks))
        assert copies[0].client_hellos[0] == chunks[0].client_hellos[0]
        assert copies[0].client_hellos[0] is not chunks[0].client_hellos[0]

        half = len(chunks) // 2
        pipelines = []
        for fed in (chunks, copies, chunks[:half] + copies[half:]):
            pipeline = TraceAnalysisPipeline()
            for chunk in fed:
                pipeline.add_batch(chunk)
            for key, (hello, _) in pipeline._hello_cache.items():
                assert key == id(hello)
            pipelines.append(pipeline)
        original, pickled, mixed = (measure_analysis(p.finalize()) for p in pipelines)
        assert pickled == original
        assert mixed == original


class TestBoundedMemory:
    def test_stream_peak_memory_scale_independent(self, testbed):
        """A 10x-scale streaming run peaks within ~2x of the 1x run.

        ``flow_cap=1`` makes the sink ingest one record per connection,
        so the 10x run pushes ~10x the record volume through the chain;
        staging buffers (the stream's high-water mark) hold pre-split
        records and must not grow with scale.
        """

        def peak_for(scale: int) -> int:
            generator = PassiveTraceGenerator(
                testbed, scale=scale, seed="stream-mem", flow_cap=1
            )
            tracemalloc.start()
            try:
                generator.stream_into(DiscardSink())
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak

        peak_for(1)  # warm caches so the measured runs allocate alike
        small = peak_for(1)
        large = peak_for(10)
        assert large < 2 * small, f"peak grew with scale: {small} -> {large}"
