"""Gateway traffic capture: the passive measurement vantage point.

The study captures traffic "at a gateway that provides network access
only to our IoT testbed".  :class:`TrafficRecord` is the per-connection
unit every analysis consumes -- it carries exactly the fields a passive
observer can extract from a TLS handshake on the wire (ClientHello
contents, ServerHello outcome, SNI, alerts) plus capture metadata
(device attribution by MAC, timestamp).  :class:`RevocationEvent`
records the side-channel HTTP(S) traffic revocation checking produces
(CRL fetches, OCSP queries), which Table 8's analysis scans for.

The capture side of the streaming execution core also lives here:

* :class:`CaptureSink` -- the chunk-stream consumer protocol.  Anything
  with ``records_seen``/``add_batch`` can sit at the end of the
  generator's stream: a :class:`GatewayCapture` (materialise
  everything), an analysis pipeline (fold incrementally), a JSONL
  writer, or a :class:`DiscardSink` (benchmarks).
* :class:`RecordChunk` -- the columnar batch encoding of one device's
  flow records.  The generator's hot path builds column tuples instead
  of per-flow :class:`TrafficRecord` objects, and sinks fold whole
  chunks; only a sink that keeps records (a :class:`GatewayCapture`)
  expands them.
* :class:`CaptureTee` -- fans one stream out to several sinks while
  counting gateway ingest exactly once.
* :class:`FlowRecordChunker` -- splits count-batched flow records into
  bounded-``count`` records before they reach a sink, so downstream
  memory/IO is proportional to *connections*, not batching luck.  The
  split is *virtual*: the chunker stamps the cap onto the chunk and
  downstream sinks account for split multiplicities arithmetically.

Exactly one stage of a sink chain counts gateway-ingest telemetry
(``iotls_capture_records_total`` / ``..._connections_total``): a
:class:`GatewayCapture` counts unless constructed with
``counted=False``; a tee counts on behalf of its fan-out; pool workers
ship uncounted chunks home because the terminal sink in the parent
counts them.  That single-counter rule is what keeps run manifests
byte-identical across serial/parallel and streaming/materialised modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from datetime import datetime
from typing import Iterator, Protocol, Sequence, runtime_checkable

from .. import telemetry as _telemetry
from ..devices.profile import Party
from ..pki.revocation import RevocationMethod
from ..tls.messages import ClientHello
from ..tls.versions import ProtocolVersion

__all__ = [
    "TrafficRecord",
    "RevocationEvent",
    "CaptureSink",
    "RecordChunk",
    "sink_add_batch",
    "GatewayCapture",
    "CaptureTee",
    "FlowRecordChunker",
    "DiscardSink",
]

_TELEMETRY = _telemetry.get()


@dataclass(frozen=True)
class TrafficRecord:
    """One observed TLS connection attempt."""

    device: str
    hostname: str
    party: Party
    month: int
    when: datetime
    client_hello: ClientHello
    established: bool
    established_version: ProtocolVersion | None
    established_cipher_code: int | None
    client_alert: str | None  # e.g. "unknown_ca"; None when silent/absent
    downgraded: bool = False  # a fallback retry produced this connection
    #: How many identical wire connections this record stands for.  The
    #: longitudinal generator batches a (device, destination, month)
    #: flow's repeats into one record; analyses weight by this.
    count: int = 1

    @property
    def advertised_max_version(self) -> ProtocolVersion:
        return self.client_hello.max_version

    @property
    def requests_ocsp_staple(self) -> bool:
        return self.client_hello.requests_ocsp_staple


@dataclass(frozen=True)
class RevocationEvent:
    """An observed revocation-infrastructure interaction."""

    device: str
    method: RevocationMethod
    url: str
    month: int


def _count_record_ingest(record: TrafficRecord) -> None:
    """Gateway-ingest telemetry for one flow record (post any splitting)."""
    if _TELEMETRY.enabled:
        registry = _TELEMETRY.registry
        registry.counter(
            "iotls_capture_records_total", "Flow records ingested at the gateway."
        ).inc()
        registry.counter(
            "iotls_capture_connections_total",
            "Wire connections ingested (flow records weighted by count).",
        ).inc(record.count)


def _count_revocation_ingest(event: RevocationEvent) -> None:
    if _TELEMETRY.enabled:
        _TELEMETRY.registry.counter(
            "iotls_capture_revocation_events_total",
            "Revocation-infrastructure interactions observed, by method.",
        ).inc(method=event.method.value)


def _count_chunk_ingest(chunk: "RecordChunk") -> None:
    """Bulk gateway-ingest telemetry for one columnar chunk.

    Counter totals end up exactly where the per-record path would leave
    them -- ``record_total()`` is the post-split logical record count and
    ``connection_total()`` the count-weighted sum -- so manifests stay
    byte-identical whichever encoding a run streamed through.
    """
    if not _TELEMETRY.enabled:
        return
    registry = _TELEMETRY.registry
    registry.counter(
        "iotls_capture_records_total", "Flow records ingested at the gateway."
    ).inc(chunk.record_total())
    registry.counter(
        "iotls_capture_connections_total",
        "Wire connections ingested (flow records weighted by count).",
    ).inc(chunk.connection_total())
    if chunk.revocation_events:
        counter = registry.counter(
            "iotls_capture_revocation_events_total",
            "Revocation-infrastructure interactions observed, by method.",
        )
        for event in chunk.revocation_events:
            counter.inc(method=event.method.value)


class RecordChunk:
    """One device's flow records in columnar (struct-of-arrays) form.

    The longitudinal generator's hot path appends plain column values --
    one slot per *base* record, i.e. per handshake attempt -- instead of
    constructing a :class:`TrafficRecord` per record, and batch-aware
    sinks fold the whole chunk at once.  A ``split_cap`` makes flow-cap
    splitting *virtual*: logical (post-split) record multiplicities are
    derived arithmetically (``record_total``), and only a sink that keeps
    record objects (a materialising capture) expands them via
    :meth:`iter_records`, which shares one frozen capped record per
    base record.

    Chunks also carry the device's revocation events so a whole device
    batch crosses a process boundary as one picklable value; sinks
    ingest records first, then events (the documented stream order).

    ``line_pieces`` is ``None``, or the list in which a kept replay
    keeps one stream line's pieces per base record for every chunk
    built from it; the JSONL writer fills it on its first write
    (:meth:`repro.analysis.export.JsonlStreamWriter.add_batch`).
    """

    __slots__ = (
        "device",
        "hostnames",
        "parties",
        "months",
        "whens",
        "client_hellos",
        "establisheds",
        "established_versions",
        "established_cipher_codes",
        "client_alerts",
        "downgradeds",
        "counts",
        "revocation_events",
        "split_cap",
        "line_pieces",
    )

    def __init__(
        self,
        device: str,
        *,
        hostnames: Sequence[str] = (),
        parties: Sequence[Party] = (),
        months: Sequence[int] = (),
        whens: Sequence[datetime] = (),
        client_hellos: Sequence[ClientHello] = (),
        establisheds: Sequence[bool] = (),
        established_versions: Sequence[ProtocolVersion | None] = (),
        established_cipher_codes: Sequence[int | None] = (),
        client_alerts: Sequence[str | None] = (),
        downgradeds: Sequence[bool] = (),
        counts: Sequence[int] = (),
        revocation_events: Sequence[RevocationEvent] = (),
        split_cap: int | None = None,
        line_pieces: list | None = None,
    ) -> None:
        if split_cap is not None and split_cap < 1:
            raise ValueError(f"split_cap must be >= 1 or None, got {split_cap}")
        self.device = device
        self.hostnames = tuple(hostnames)
        self.parties = tuple(parties)
        self.months = tuple(months)
        self.whens = tuple(whens)
        self.client_hellos = tuple(client_hellos)
        self.establisheds = tuple(establisheds)
        self.established_versions = tuple(established_versions)
        self.established_cipher_codes = tuple(established_cipher_codes)
        self.client_alerts = tuple(client_alerts)
        self.downgradeds = tuple(downgradeds)
        self.counts = tuple(counts)
        self.revocation_events = tuple(revocation_events)
        self.split_cap = split_cap
        self.line_pieces = line_pieces

    # -- size arithmetic ------------------------------------------------
    def __len__(self) -> int:
        """Base (pre-split) record count."""
        return len(self.counts)

    def connection_total(self) -> int:
        """Count-weighted wire connections in this chunk."""
        return sum(self.counts)

    def record_total(self) -> int:
        """Logical (post-split) record count this chunk stands for.

        Without a ``split_cap`` every base record is one logical record;
        with one, a base record of count ``c`` expands to
        ``c // cap + (1 if c % cap else 0)`` bounded records -- the exact
        multiplicity :meth:`iter_records` yields.
        """
        cap = self.split_cap
        if cap is None:
            return len(self.counts)
        return sum(count // cap + (count % cap != 0) for count in self.counts)

    def with_split_cap(self, cap: int) -> "RecordChunk":
        """The same columns viewed through a flow cap (columns shared)."""
        clone = RecordChunk.__new__(RecordChunk)
        for name in (
            "device",
            "hostnames",
            "parties",
            "months",
            "whens",
            "client_hellos",
            "establisheds",
            "established_versions",
            "established_cipher_codes",
            "client_alerts",
            "downgradeds",
            "counts",
            "revocation_events",
            "line_pieces",
        ):
            setattr(clone, name, getattr(self, name))
        if cap < 1:
            raise ValueError(f"flow cap must be >= 1, got {cap}")
        clone.split_cap = cap
        return clone

    # -- materialisation ------------------------------------------------
    def iter_base_records(self) -> Iterator[TrafficRecord]:
        """One record per base slot, ignoring any ``split_cap``."""
        device = self.device
        # The columns in TrafficRecord field order, after ``device``.
        for row in zip(
            self.hostnames,
            self.parties,
            self.months,
            self.whens,
            self.client_hellos,
            self.establisheds,
            self.established_versions,
            self.established_cipher_codes,
            self.client_alerts,
            self.downgradeds,
            self.counts,
        ):
            yield TrafficRecord(device, *row)

    def iter_records(self) -> Iterator[TrafficRecord]:
        """The logical record stream (split-expanded, arrival order)."""
        cap = self.split_cap
        for record in self.iter_base_records():
            if cap is None or record.count <= cap:
                yield record
                continue
            full, remainder = divmod(record.count, cap)
            capped = replace(record, count=cap)
            for _ in range(full):
                yield capped
            if remainder:
                yield replace(record, count=remainder)


def sink_add_batch(sink: "CaptureSink", chunk: RecordChunk) -> None:
    """Feed one columnar chunk to a sink (records, then events)."""
    sink.add_batch(chunk)


@runtime_checkable
class CaptureSink(Protocol):
    """A consumer of the gateway's chunk stream.

    ``records_seen`` is the number of logical (post-split) flow records
    the sink has ingested so far -- the generator reads its growth to
    advance progress and annotate the run's root span.
    """

    @property
    def records_seen(self) -> int: ...

    def add_batch(self, chunk: RecordChunk) -> None: ...


@dataclass
class GatewayCapture:
    """An append-only capture of testbed traffic.

    ``counted=False`` makes this a *staging* capture: records still
    accumulate, but gateway-ingest telemetry is left to a downstream
    sink (a capture behind a :class:`CaptureTee` stages this way, so
    counters never double when the stream reaches its terminal sink).
    """

    records: list[TrafficRecord] = field(default_factory=list)
    revocation_events: list[RevocationEvent] = field(default_factory=list)
    counted: bool = True

    @property
    def records_seen(self) -> int:
        return len(self.records)

    def add(self, record: TrafficRecord) -> None:
        self.records.append(record)
        if self.counted:
            _count_record_ingest(record)

    def add_revocation_event(self, event: RevocationEvent) -> None:
        self.revocation_events.append(event)
        if self.counted:
            _count_revocation_ingest(event)

    def add_batch(self, chunk: RecordChunk) -> None:
        """Materialise one columnar chunk (records, then events)."""
        self.records.extend(chunk.iter_records())
        self.revocation_events.extend(chunk.revocation_events)
        if self.counted:
            _count_chunk_ingest(chunk)

    def iter_records(self) -> Iterator[TrafficRecord]:
        """The record-stream view of the capture (arrival order)."""
        yield from self.records

    def iter_revocation_events(self) -> Iterator[RevocationEvent]:
        yield from self.revocation_events

    def __len__(self) -> int:
        return len(self.records)


class CaptureTee:
    """Fan one chunk stream out to several sinks, counting ingest once.

    The tee performs the gateway-ingest counting for the whole fan-out,
    so attached sinks must not count themselves -- use
    ``GatewayCapture(counted=False)`` downstream of a tee.
    """

    def __init__(self, *sinks: CaptureSink) -> None:
        self.sinks = tuple(sinks)
        self.records_seen = 0

    def add_batch(self, chunk: RecordChunk) -> None:
        """Fan one chunk out, counting its ingest exactly once."""
        self.records_seen += chunk.record_total()
        _count_chunk_ingest(chunk)
        for sink in self.sinks:
            sink.add_batch(chunk)


class FlowRecordChunker:
    """Split count-batched flow records into ``<= cap``-connection records.

    The generator batches a (device, destination, month) flow's repeats
    into one record, so record volume is independent of scale; a chunker
    in front of a sink re-linearises that batching into bounded records,
    which makes record volume proportional to connections -- the knob
    that lets streaming runs exercise paper-scale record counts in
    bounded memory.  Every count-weighted aggregate is preserved
    exactly.  No records are materialised here: the chunker stamps the
    cap on each chunk (:meth:`RecordChunk.with_split_cap`) and the
    downstream sink accounts for split multiplicities arithmetically,
    or expands them via :meth:`RecordChunk.iter_records` if it keeps
    records.

    ``records_seen`` counts records *emitted* downstream (post-split).
    Counting is the downstream sink's job, as always.
    """

    def __init__(self, sink: CaptureSink, cap: int) -> None:
        if cap < 1:
            raise ValueError(f"flow cap must be >= 1, got {cap}")
        self.sink = sink
        self.cap = cap
        self.records_seen = 0

    def add_batch(self, chunk: RecordChunk) -> None:
        capped = chunk.with_split_cap(self.cap)
        self.records_seen += capped.record_total()
        self.sink.add_batch(capped)


@dataclass
class DiscardSink:
    """Count-only sink for benchmarks and memory experiments."""

    records_seen: int = 0
    connections_seen: int = 0
    revocation_events_seen: int = 0

    def add_batch(self, chunk: RecordChunk) -> None:
        # Pure arithmetic: O(base records), no materialisation at all.
        self.records_seen += chunk.record_total()
        self.connections_seen += chunk.connection_total()
        self.revocation_events_seen += len(chunk.revocation_events)
