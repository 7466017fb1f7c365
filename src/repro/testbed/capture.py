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

* :class:`CaptureSink` -- the record-stream consumer protocol.  Anything
  with ``add``/``add_revocation_event``/``records_seen`` can sit at the
  end of the generator's stream: a :class:`GatewayCapture` (materialise
  everything), an analysis pipeline (fold incrementally), a JSONL
  writer, or a :class:`DiscardSink` (benchmarks).
* :class:`RecordChunk` -- the columnar batch encoding of one device's
  flow records.  The generator's hot path builds column tuples instead
  of per-flow :class:`TrafficRecord` objects, and batch-aware sinks
  (``add_batch``) fold whole chunks without materialising a record per
  wire connection; :func:`sink_add_batch` dispatches a chunk to any
  sink, expanding record-by-record only for sinks that lack
  ``add_batch``.
* :class:`CaptureTee` -- fans one stream out to several sinks while
  counting gateway ingest exactly once.
* :class:`FlowRecordChunker` -- splits count-batched flow records into
  bounded-``count`` chunks before they reach a sink, so downstream
  memory/IO is proportional to *connections*, not batching luck.  On
  the columnar path the split is *virtual*: the chunker stamps the cap
  onto the chunk and downstream sinks account for split multiplicities
  arithmetically.

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
    "ProgressSink",
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
    derived arithmetically (``record_total``), and only sinks that truly
    need record objects (a materialising capture, the JSONL writer)
    expand them via :meth:`iter_records` -- which shares one frozen
    capped record per base record, exactly like
    :class:`FlowRecordChunker` does.

    Chunks also carry the device's revocation events so a whole device
    batch crosses a process boundary as one picklable value; sinks
    ingest records first, then events (the documented stream order).
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
        "_count_array",
        "_month_array",
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
        self._count_array = None
        self._month_array = None

    @classmethod
    def from_records(
        cls,
        device: str,
        records: Sequence[TrafficRecord],
        revocation_events: Sequence[RevocationEvent] = (),
        *,
        split_cap: int | None = None,
    ) -> "RecordChunk":
        """Columnarise already-materialised records (tests, adapters)."""
        return cls(
            device,
            hostnames=[r.hostname for r in records],
            parties=[r.party for r in records],
            months=[r.month for r in records],
            whens=[r.when for r in records],
            client_hellos=[r.client_hello for r in records],
            establisheds=[r.established for r in records],
            established_versions=[r.established_version for r in records],
            established_cipher_codes=[r.established_cipher_code for r in records],
            client_alerts=[r.client_alert for r in records],
            downgradeds=[r.downgraded for r in records],
            counts=[r.count for r in records],
            revocation_events=revocation_events,
            split_cap=split_cap,
        )

    # -- size arithmetic ------------------------------------------------
    def __len__(self) -> int:
        """Base (pre-split) record count."""
        return len(self.counts)

    def count_array(self):
        """Per-base-record connection counts as an int64 numpy array."""
        import numpy as np

        if self._count_array is None:
            self._count_array = np.asarray(self.counts, dtype=np.int64)
        return self._count_array

    def month_array(self):
        """Per-base-record months as an int64 numpy array."""
        import numpy as np

        if self._month_array is None:
            self._month_array = np.asarray(self.months, dtype=np.int64)
        return self._month_array

    def connection_total(self) -> int:
        """Count-weighted wire connections in this chunk."""
        return int(self.count_array().sum()) if self.counts else 0

    def record_total(self) -> int:
        """Logical (post-split) record count this chunk stands for.

        Without a ``split_cap`` every base record is one logical record;
        with one, a base record of count ``c`` expands to
        ``c // cap + (1 if c % cap else 0)`` bounded records -- the exact
        multiplicity :class:`FlowRecordChunker` would emit.
        """
        if not self.counts:
            return 0
        if self.split_cap is None:
            return len(self.counts)
        counts = self.count_array()
        return int((counts // self.split_cap).sum() + (counts % self.split_cap != 0).sum())

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
            "_count_array",
            "_month_array",
        ):
            setattr(clone, name, getattr(self, name))
        if cap < 1:
            raise ValueError(f"flow cap must be >= 1, got {cap}")
        clone.split_cap = cap
        return clone

    # -- materialisation ------------------------------------------------
    def base_record(self, index: int) -> TrafficRecord:
        """Materialise one base (pre-split) record."""
        return TrafficRecord(
            device=self.device,
            hostname=self.hostnames[index],
            party=self.parties[index],
            month=self.months[index],
            when=self.whens[index],
            client_hello=self.client_hellos[index],
            established=self.establisheds[index],
            established_version=self.established_versions[index],
            established_cipher_code=self.established_cipher_codes[index],
            client_alert=self.client_alerts[index],
            downgraded=self.downgradeds[index],
            count=self.counts[index],
        )

    def iter_base_records(self) -> Iterator[TrafficRecord]:
        """One record per base slot, ignoring any ``split_cap``."""
        for index in range(len(self.counts)):
            yield self.base_record(index)

    def iter_records(self) -> Iterator[TrafficRecord]:
        """The logical record stream (split-expanded, arrival order)."""
        cap = self.split_cap
        for index in range(len(self.counts)):
            record = self.base_record(index)
            if cap is None or record.count <= cap:
                yield record
                continue
            full, remainder = divmod(record.count, cap)
            capped = replace(record, count=cap)
            for _ in range(full):
                yield capped
            if remainder:
                yield replace(record, count=remainder)

    def __getstate__(self):
        # Cached numpy arrays are derived state; keep pickles lean for
        # the worker -> coordinator hop.
        return {
            name: getattr(self, name)
            for name in self.__slots__
            if name not in ("_count_array", "_month_array")
        }

    def __setstate__(self, state) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._count_array = None
        self._month_array = None


def sink_add_batch(sink: "CaptureSink", chunk: RecordChunk) -> None:
    """Feed one columnar chunk to any sink.

    Batch-aware sinks (those exposing ``add_batch``) fold the chunk
    wholesale; every other sink receives the identical logical stream
    record by record -- records first, then the chunk's revocation
    events, matching the documented per-device flush order.
    """
    add_batch = getattr(sink, "add_batch", None)
    if add_batch is not None:
        add_batch(chunk)
        return
    for record in chunk.iter_records():
        sink.add(record)
    for event in chunk.revocation_events:
        sink.add_revocation_event(event)


@runtime_checkable
class CaptureSink(Protocol):
    """A consumer of the gateway record stream.

    ``records_seen`` is the number of flow records the sink has ingested
    so far -- the generator reads it to annotate per-device spans and to
    compute stream throughput without materialising anything.
    """

    @property
    def records_seen(self) -> int: ...

    def add(self, record: TrafficRecord) -> None: ...

    def add_revocation_event(self, event: RevocationEvent) -> None: ...


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

    def by_device(self, device: str) -> list[TrafficRecord]:
        return [record for record in self.records if record.device == device]

    def devices(self) -> list[str]:
        return sorted({record.device for record in self.records})

    def months(self) -> list[int]:
        return sorted({record.month for record in self.records})

    def __len__(self) -> int:
        return len(self.records)

    def extend(self, other: "GatewayCapture") -> None:
        self.records.extend(other.records)
        self.revocation_events.extend(other.revocation_events)


class CaptureTee:
    """Fan one record stream out to several sinks, counting ingest once.

    The tee performs the gateway-ingest counting for the whole fan-out
    (unless ``counted=False``), so attached sinks must not count
    themselves -- use ``GatewayCapture(counted=False)`` downstream of a
    tee.
    """

    def __init__(self, *sinks: CaptureSink, counted: bool = True) -> None:
        self.sinks = tuple(sinks)
        self.counted = counted
        self.records_seen = 0
        self.connections_seen = 0
        self.revocation_events_seen = 0

    def add(self, record: TrafficRecord) -> None:
        self.records_seen += 1
        self.connections_seen += record.count
        if self.counted:
            _count_record_ingest(record)
        for sink in self.sinks:
            sink.add(record)

    def add_revocation_event(self, event: RevocationEvent) -> None:
        self.revocation_events_seen += 1
        if self.counted:
            _count_revocation_ingest(event)
        for sink in self.sinks:
            sink.add_revocation_event(event)

    def add_batch(self, chunk: RecordChunk) -> None:
        """Fan one chunk out, counting its ingest exactly once."""
        self.records_seen += chunk.record_total()
        self.connections_seen += chunk.connection_total()
        self.revocation_events_seen += len(chunk.revocation_events)
        if self.counted:
            _count_chunk_ingest(chunk)
        for sink in self.sinks:
            sink_add_batch(sink, chunk)


class FlowRecordChunker:
    """Split count-batched flow records into ``<= cap``-connection chunks.

    The generator batches a (device, destination, month) flow's repeats
    into one record, so record volume is independent of scale; a chunker
    in front of a sink re-linearises that batching into bounded chunks
    (``dataclasses.replace`` on the frozen record), which makes record
    volume proportional to connections -- the knob that lets streaming
    runs exercise paper-scale record counts in bounded memory.  Every
    count-weighted aggregate is preserved exactly.

    ``records_seen`` counts records *emitted* downstream (post-split).
    Counting is the downstream sink's job, as always.
    """

    def __init__(self, sink: CaptureSink, cap: int) -> None:
        if cap < 1:
            raise ValueError(f"flow cap must be >= 1, got {cap}")
        self.sink = sink
        self.cap = cap
        self.records_seen = 0

    def add(self, record: TrafficRecord) -> None:
        if record.count <= self.cap:
            self.records_seen += 1
            self.sink.add(record)
            return
        full, remainder = divmod(record.count, self.cap)
        capped = replace(record, count=self.cap)
        for _ in range(full):
            self.records_seen += 1
            self.sink.add(capped)
        if remainder:
            self.records_seen += 1
            self.sink.add(replace(record, count=remainder))

    def add_revocation_event(self, event: RevocationEvent) -> None:
        self.sink.add_revocation_event(event)

    def add_batch(self, chunk: RecordChunk) -> None:
        """Virtually split one chunk: stamp the cap, forward downstream.

        No records are materialised here -- the downstream sink accounts
        for split multiplicities arithmetically (or expands them lazily
        via :meth:`RecordChunk.iter_records` if it must materialise).
        """
        capped = chunk.with_split_cap(self.cap)
        self.records_seen += capped.record_total()
        sink_add_batch(self.sink, capped)


class ProgressSink:
    """Feed record arrivals into a ProgressReporter, batched.

    Sits inside a :class:`CaptureTee` fan-out on streaming paths.  The
    per-record cost is two integer bumps; every ``batch`` records the
    pending total flows into the reporter's rate-limited
    ``advance`` (which does the clock read).  Never counts
    gateway-ingest telemetry and never touches the record itself, so
    its presence cannot perturb manifests.  Call :meth:`flush` at end
    of stream so the tail batch is not lost.
    """

    def __init__(self, reporter, *, batch: int = 512) -> None:
        self.reporter = reporter
        self.batch = batch
        self.records_seen = 0
        self._pending = 0

    def add(self, record: TrafficRecord) -> None:
        self.records_seen += 1
        self._pending += 1
        if self._pending >= self.batch:
            self.flush()

    def add_revocation_event(self, event: RevocationEvent) -> None:
        return None

    def add_batch(self, chunk: RecordChunk) -> None:
        total = chunk.record_total()
        self.records_seen += total
        self._pending += total
        if self._pending >= self.batch:
            self.flush()

    def flush(self) -> None:
        if self._pending:
            self.reporter.advance(self._pending)
            self._pending = 0


@dataclass
class DiscardSink:
    """Count-only sink for benchmarks and memory experiments."""

    records_seen: int = 0
    connections_seen: int = 0
    revocation_events_seen: int = 0

    def add(self, record: TrafficRecord) -> None:
        self.records_seen += 1
        self.connections_seen += record.count

    def add_revocation_event(self, event: RevocationEvent) -> None:
        self.revocation_events_seen += 1

    def add_batch(self, chunk: RecordChunk) -> None:
        # Pure arithmetic: O(base records), no materialisation at all.
        self.records_seen += chunk.record_total()
        self.connections_seen += chunk.connection_total()
        self.revocation_events_seen += len(chunk.revocation_events)
