"""JSON export of experiment artifacts.

Mirrors the paper's data release: the authors published their
longitudinal handshake data and controlled-experiment results; these
exporters produce the equivalent machine-readable artifacts from a
simulation run (capture summaries, audit results, probe reports), ready
for downstream analysis outside this library.

Two trace shapes are supported:

* the **document** (``capture_to_document`` / ``capture_from_records``):
  one JSON object holding every record -- simple, but materialises the
  whole capture on both ends,
* the **stream** (:class:`JsonlStreamWriter` / :func:`fold_stream`):
  JSON Lines with one record per line, written incrementally by a
  capture sink and replayed line-by-line into any other sink, so a
  paper-scale artifact is produced and audited in bounded memory.
"""

from __future__ import annotations

import json
from datetime import datetime
from itertools import product, repeat
from operator import itemgetter
from pathlib import Path
from typing import Any

from ..core.audit import CampaignResults
from ..core.prober import DeviceProbeReport, ProbeOutcome
from ..devices.profile import STUDY_MONTHS, Party
from ..mitm.proxy import AttackMode
from ..testbed.capture import (
    GatewayCapture,
    RecordChunk,
    RevocationEvent,
    TrafficRecord,
)
from ..tls.ciphersuites import REGISTRY
from ..tls.codec import HelloWireCache
from ..tls.messages import ClientHello
from ..tls.versions import ProtocolVersion

__all__ = [
    "STREAM_SCHEMA",
    "JsonlStreamWriter",
    "capture_from_records",
    "capture_from_stream",
    "capture_to_document",
    "capture_to_records",
    "campaign_to_document",
    "fold_stream",
    "probe_report_to_document",
    "record_from_dict",
    "record_to_dict",
    "revocation_event_from_dict",
    "revocation_event_to_dict",
    "write_json",
]

#: Schema tag on the header line of a streamed trace artifact
#: (registered centrally in repro.telemetry.schemas).
from ..telemetry.schemas import TRACE_STREAM_SCHEMA as STREAM_SCHEMA  # noqa: E402


#: Exported version label -> version, for :func:`record_from_dict`.
_VERSION_BY_LABEL = {version.label: version for version in ProtocolVersion}

#: The exact Python types (those ``json.loads`` returns) every record
#: field :func:`record_from_dict` reads may have, so a mistyped field is
#: an error rather than a silently wrong record.  Exact types keep a JSON
#: boolean (a ``bool``, so an ``int`` subclass) out of the int fields.
#: :func:`_record_row` unpacks the fields in this order.
_RECORD_TYPES = {
    **dict.fromkeys(("device", "hostname", "party", "timestamp", "client_hello_hex"), (str,)),
    **dict.fromkeys(
        ("established_version", "established_cipher", "client_alert"), (str, type(None))
    ),
    **dict.fromkeys(("established", "downgraded"), (bool,)),
    **dict.fromkeys(("month", "count"), (int,)),
}

#: The record fields in ``_RECORD_TYPES`` order, as one ``itemgetter``.
_RECORD_FIELDS = itemgetter(*_RECORD_TYPES)

#: Every row of exact field types that ``_RECORD_TYPES`` accepts.
_RECORD_TYPE_ROWS = frozenset(product(*_RECORD_TYPES.values()))

#: The same for :func:`revocation_event_from_dict`.
_EVENT_TYPES = {"device": (str,), "method": (str,), "url": (str,), "month": (int,)}

#: Exported party value -> party, for :func:`_record_row`.
_PARTY_BY_VALUE = {party.value: party for party in Party}

#: ``hex(code)`` -> code for every registered suite, for :func:`_record_row`.
_CIPHER_BY_HEX = {hex(code): code for code in REGISTRY}

#: The key that ends a canonical record line's fixed head: in
#: ``sort_keys`` order only the two advertised fields precede it.
_ALERT_KEY = '"client_alert": '

#: ``raw_decode`` of a plain decoder, which ``json.loads`` wraps.
_RAW_DECODE = json.JSONDecoder().raw_decode

#: ``json.dumps`` of a bool.
_JSON_BOOL = {False: "false", True: "true"}

#: The :class:`~repro.testbed.capture.RecordChunk` column of each record
#: field after ``device``, in the order :func:`_record_row` returns them.
_CHUNK_COLUMNS = (
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
)

#: Most items (records plus revocation events) one chunk holds when
#: :func:`fold_stream` reads an artifact back, so the fold's memory stays
#: bounded however long one device's run of records is.
_FOLD_RUN = 1024


def _advertised_labels(hello: ClientHello) -> tuple[str, tuple[str, ...]]:
    """The hello's ``advertised_max_version`` and ``advertised_ciphers``."""
    return hello.max_version.label, tuple(suite.name for suite in hello.cipher_suites())


def _record_head(max_version: str, cipher_names: tuple[str, ...]) -> str:
    """A record line up to its ``client_alert`` value: the part that
    only the hello's advertised labels fix, in ``sort_keys`` order."""
    return (
        f'{{"record": {{"advertised_ciphers": {json.dumps(list(cipher_names))}, '
        f'"advertised_max_version": {json.dumps(max_version)}, {_ALERT_KEY}'
    )


class _JsonStrings(dict):
    """``json.dumps`` of each ``str`` it is indexed with, each computed once."""

    __slots__ = ()

    def __missing__(self, text: str) -> str:
        value = self[text] = json.dumps(text)
        return value


class _ArtifactCodec(HelloWireCache):
    """The hello memo of one artifact: the wire cache, plus what each
    hello fixes in its exported record.

    Per distinct hello (keyed by identity, holding a reference, like the
    wire cache): the ``advertised_max_version`` label and cipher names,
    and two fixed pieces of its record lines in ``sort_keys`` order --
    the line up to the ``client_alert`` value, and the
    ``requests_ocsp_staple`` field up to the ``timestamp`` value.  Per
    distinct (hello, alert): the alert value up to the random in the
    wire hex.  Per distinct string (device, hostname, party value,
    version label, cipher hex): its JSON form.
    """

    __slots__ = ("_hellos", "_alerts", "_timestamps", "_strings")

    def __init__(self) -> None:
        super().__init__()
        self._hellos: dict[int, tuple[ClientHello, str, tuple[str, ...], str, str]] = {}
        #: (id(hello), client_alert) -> the alert value up to the random.
        self._alerts: dict[tuple[int, str | None], str] = {}
        #: id(when) -> (when, its JSON ``timestamp`` value).  Keyed by
        #: identity like the hellos: equal aware datetimes in different
        #: zones would share a key but not an ``isoformat``.
        self._timestamps: dict[int, tuple[datetime, str]] = {}
        #: str -> its ``json.dumps``.  Only ``str`` values index it: as
        #: dict keys, ``True``, ``1`` and ``1.0`` are one key with three
        #: JSON forms.
        self._strings = _JsonStrings()

    def _exported(self, hello: ClientHello) -> tuple[ClientHello, str, tuple[str, ...], str, str]:
        entry = self._hellos.get(id(hello))
        if entry is None:
            max_version, cipher_names = _advertised_labels(hello)
            entry = self._hellos[id(hello)] = (
                hello,
                max_version,
                cipher_names,
                _record_head(max_version, cipher_names),
                f', "requests_ocsp_staple": {json.dumps(hello.requests_ocsp_staple)}, '
                '"timestamp": ',
            )
        return entry

    def labels(self, hello: ClientHello) -> tuple[str, tuple[str, ...]]:
        entry = self._exported(hello)
        return entry[1], entry[2]

    def line(
        self,
        device: str,
        hostname: str,
        party: Party,
        month: int,
        when: datetime,
        hello: ClientHello,
        established: bool,
        established_version: ProtocolVersion | None,
        established_cipher_code: int | None,
        client_alert: str | None,
        downgraded: bool,
    ) -> tuple[str, str, str, str, str]:
        """One record's stream line as ``(head, alert, random, wire, tail)``.

        ``f'{head}{alert}{random}{wire}", "count": {count}{tail}'`` is
        exactly ``json.dumps({"record": record_to_dict(record, self)},
        sort_keys=True)`` and a newline.  ``head`` (the line up to the
        ``client_alert`` value) and ``wire`` (the hello's wire hex after
        its random) are shared by every line of one hello, and
        ``alert`` by every line of one hello and alert; ``random`` is
        the 64-char hex of the record's hello random and ``tail`` the
        fields after ``count``.  Every string still goes through
        ``json.dumps``, once per distinct string of this codec, and only
        the fields that vary are formatted per line.
        """
        wire_head, random, wire = self.hex_pieces(
            hello, seed=f"{device}:{hostname}:{month}"
        )
        quoted = self._strings
        entry = self._exported(hello)
        alert = self._alerts.get((id(hello), client_alert))
        if alert is None:
            value = "null" if client_alert is None else json.dumps(client_alert)
            alert = self._alerts[id(hello), client_alert] = (
                f'{value}, "client_hello_hex": "{wire_head}'
            )
        timestamp = self._timestamps.get(id(when))
        if timestamp is None:
            timestamp = self._timestamps[id(when)] = (when, json.dumps(when.isoformat()))
        version = (
            "null" if established_version is None else quoted[established_version.label]
        )
        cipher = (
            "null"
            if established_cipher_code is None
            else quoted[hex(established_cipher_code)]
        )
        tail = (
            f', "device": {quoted[device]}, "downgraded": {_JSON_BOOL[downgraded]}, '
            f'"established": {_JSON_BOOL[established]}, "established_cipher": {cipher}, '
            f'"established_version": {version}, "hostname": {quoted[hostname]}, '
            f'"month": {month!r}, "party": {quoted[party.value]}'
            f"{entry[4]}{timestamp[1]}}}}}\n"
        )
        return entry[3], alert, random, wire, tail


# ----------------------------------------------------------------------
# Per-record serialisation (shared by the document and stream shapes)
# ----------------------------------------------------------------------
def record_to_dict(
    record: TrafficRecord, codec: _ArtifactCodec | None = None
) -> dict[str, Any]:
    """One flow record as a JSON-ready dictionary.

    ``client_hello_hex`` embeds the RFC-format encoding of the hello
    (via :mod:`repro.tls.codec`), so :func:`record_from_dict` can
    rebuild a byte-faithful record -- the reproduction's equivalent of
    the paper's published longitudinal handshake data.  ``codec`` is
    the artifact's hello memo; without one, a fresh memo is used.
    """
    if codec is None:
        codec = _ArtifactCodec()
    hello = record.client_hello
    max_version, cipher_names = codec.labels(hello)
    return {
        "device": record.device,
        "hostname": record.hostname,
        "client_hello_hex": codec.encode_hex(
            hello, seed=f"{record.device}:{record.hostname}:{record.month}"
        ),
        "party": record.party.value,
        "month": record.month,
        "timestamp": record.when.isoformat(),
        "advertised_max_version": max_version,
        "advertised_ciphers": list(cipher_names),
        "requests_ocsp_staple": record.requests_ocsp_staple,
        "established": record.established,
        "established_version": (
            record.established_version.label if record.established_version else None
        ),
        "established_cipher": (
            hex(record.established_cipher_code)
            if record.established_cipher_code is not None
            else None
        ),
        "client_alert": record.client_alert,
        "downgraded": record.downgraded,
        "count": record.count,
    }


def record_from_dict(
    entry: dict[str, Any], codec: HelloWireCache | None = None
) -> TrafficRecord:
    """Rebuild one flow record (the inverse of :func:`record_to_dict`).

    ``codec`` is the artifact's hello memo; without one, a fresh memo
    is used.  A missing field raises ``KeyError``; a mistyped field, bad
    hex, an undecodable hello, or a version label or cipher codepoint
    the registries do not know raises ``ValueError``.
    """
    if codec is None:
        codec = HelloWireCache()
    return TrafficRecord(*_record_row(entry, codec, {}))


def _record_row(
    entry: dict[str, Any], codec: HelloWireCache, whens: dict[str, datetime]
) -> tuple:
    """One record object's fields, checked and decoded, in
    :class:`~repro.testbed.capture.TrafficRecord` field order.

    The one record parser, behind :func:`record_from_dict` and
    :func:`fold_stream`.  ``whens`` memoises ``datetime.fromisoformat``
    per timestamp string for one artifact.
    """
    (
        device, hostname, party, timestamp, wire_hex, label, cipher,
        client_alert, established, downgraded, month, count,
    ) = _record_fields(entry)
    _check_month(entry, "record")
    if count < 1:
        raise ValueError(f"record field 'count' is {count}, below 1")
    when = whens.get(timestamp)
    if when is None:
        when = whens[timestamp] = datetime.fromisoformat(timestamp)
    version = _VERSION_BY_LABEL.get(label) if label else None
    if label and version is None:
        raise ValueError(
            f"record field 'established_version' is {label!r}, not a protocol version"
        )
    code = _CIPHER_BY_HEX.get(cipher) if cipher else None
    if cipher and code is None:
        # A hex form other than hex(code)'s, or no registered suite.
        code = int(cipher, 16)
        if code not in REGISTRY:
            raise ValueError(
                f"record field 'established_cipher' is {cipher!r}, not a registered suite"
            )
    return (
        device,
        hostname,
        _PARTY_BY_VALUE.get(party) or Party(party),
        month,
        when,
        codec.decode(bytes.fromhex(wire_hex)),
        established,
        version,
        code,
        client_alert,
        downgraded,
        count,
    )


def _record_fields(entry: dict[str, Any]) -> tuple:
    """``entry``'s ``_RECORD_TYPES`` fields in order, checked as
    :func:`_check_types` checks them, in one ``itemgetter`` call and one
    set lookup; any entry that fails those goes through
    :func:`_check_types` itself for its exact error."""
    if type(entry) is dict:
        try:
            values = _RECORD_FIELDS(entry)
        except KeyError:
            pass
        else:
            if tuple(map(type, values)) in _RECORD_TYPE_ROWS:
                return values
    _check_types(entry, _RECORD_TYPES, "record")
    return _RECORD_FIELDS(entry)


def _canonical_row(
    line: str,
    codec: HelloWireCache,
    whens: dict[str, datetime],
    heads: dict[int, tuple[ClientHello, str]],
) -> tuple | None:
    """A record line's row, parsed from its fields after the hello's
    fixed head; ``None`` unless the line is exactly as the writer
    wrote it there.

    The line is cut at its first ``"client_alert": `` and only
    ``"{" + line[cut:-1]`` is parsed, as one whole JSON object.  That
    row is kept when the line ends in ``}`` and everything before the
    cut, the key included, is the canonical head of the decoded hello
    (:func:`_record_head`, as the writer writes it).  Then the head is
    valid JSON that leaves the parser inside the one ``record`` object,
    expecting a key, so ``json.loads(line)`` reads the same fields, and
    :func:`_record_row` reads none of the head's.  Any other line, or
    one this attempt fails on, returns ``None`` for the full parse,
    which alone reports errors.  ``heads`` caches the canonical head
    per decoded hello (keyed by identity, holding a reference).
    """
    cut = line.find(_ALERT_KEY)
    if cut <= 0 or line[-1] != "}":
        return None
    fields = "{" + line[cut:-1]
    try:
        entry, end = _RAW_DECODE(fields)
        if end != len(fields):
            return None
        row = _record_row(entry, codec, whens)
        hello = row[5]
        known = heads.get(id(hello))
        if known is None:
            known = heads[id(hello)] = (hello, _record_head(*_advertised_labels(hello)))
    except Exception:
        return None
    return row if line[: cut + len(_ALERT_KEY)] == known[1] else None


def _check_types(
    entry: dict[str, Any], types: dict[str, tuple[type, ...]], what: str
) -> None:
    """Raise ``ValueError`` unless ``entry`` is an object whose every
    field in ``types`` has one of its exact types.  A missing field
    raises ``KeyError``."""
    if not isinstance(entry, dict):
        raise ValueError(f"{what} is not an object")
    for key, kinds in types.items():
        kind = type(entry[key])
        if kind not in kinds:
            raise ValueError(f"{what} field {key!r} has type {kind.__name__}")


def _check_month(entry: dict[str, Any], what: str) -> None:
    """Raise ``ValueError`` unless ``entry["month"]`` is a study month."""
    month = entry["month"]
    if not 0 <= month < STUDY_MONTHS:
        raise ValueError(
            f"{what} field 'month' is {month}, outside 0..{STUDY_MONTHS - 1}"
        )


def revocation_event_to_dict(event: RevocationEvent) -> dict[str, Any]:
    return {
        "device": event.device,
        "method": event.method.value,
        "url": event.url,
        "month": event.month,
    }


def revocation_event_from_dict(entry: dict[str, Any]) -> RevocationEvent:
    from ..pki.revocation import RevocationMethod

    _check_types(entry, _EVENT_TYPES, "revocation_event")
    _check_month(entry, "revocation_event")
    return RevocationEvent(
        device=entry["device"],
        method=RevocationMethod(entry["method"]),
        url=entry["url"],
        month=entry["month"],
    )


# ----------------------------------------------------------------------
# Document shape
# ----------------------------------------------------------------------
def capture_to_records(capture: GatewayCapture) -> list[dict[str, Any]]:
    """Flatten a capture into per-connection dictionaries (one per flow
    record; ``count`` carries the batched connection multiplicity)."""
    codec = _ArtifactCodec()
    return [record_to_dict(record, codec) for record in capture.iter_records()]


def capture_to_document(
    capture: GatewayCapture, *, metadata: dict[str, Any] | None = None
) -> dict[str, Any]:
    """A capture export with provenance: ``{"metadata": ..., "records": ...}``.

    ``metadata`` carries run parameters (generator seed, scale, ...) so a
    published artifact records how it was produced.  ``revocation_events``
    carries the side-channel CRL/OCSP traffic Table 8's analysis scans,
    which lives outside the flow-record list.  Consumed by
    :func:`capture_from_records`, which accepts both this shape and the
    bare record list.
    """
    return {
        "metadata": dict(metadata or {}),
        "records": capture_to_records(capture),
        "revocation_events": [
            revocation_event_to_dict(event)
            for event in capture.iter_revocation_events()
        ],
    }


def capture_from_records(
    records: list[dict[str, Any]] | dict[str, Any],
) -> GatewayCapture:
    """Rebuild a capture from exported per-connection dictionaries.

    The inverse of :func:`capture_to_records`: hellos are decoded from
    their embedded wire bytes, so every analysis (heatmaps, adoption
    events, fingerprints, Table 8 stapling signals) runs identically on
    a loaded capture.  Accepts either the bare record list or the
    metadata-bearing document from :func:`capture_to_document`.
    """
    revocation_events: list[dict[str, Any]] = []
    if isinstance(records, dict):
        revocation_events = records.get("revocation_events", [])
        records = records["records"]

    capture = GatewayCapture()
    codec = HelloWireCache()
    for entry in records:
        capture.add(record_from_dict(entry, codec))
    for entry in revocation_events:
        capture.add_revocation_event(revocation_event_from_dict(entry))
    return capture


# ----------------------------------------------------------------------
# Stream shape (JSON Lines)
# ----------------------------------------------------------------------
class JsonlStreamWriter:
    """A capture sink that writes each record straight to a JSONL file.

    Layout: a header line ``{"schema": ..., "metadata": ...}``, then one
    ``{"record": ...}`` or ``{"revocation_event": ...}`` line per item
    in arrival order, then a ``{"summary": ...}`` trailer on close.
    Every line is ``json.dumps(payload, sort_keys=True)``; a record line
    is assembled from its hello's fixed pieces and its varying fields
    (:meth:`_ArtifactCodec.line`).  Nothing is buffered beyond the open
    file handle and the writer's one codec, which caches the fixed
    pieces per distinct hello and alert, one JSON timestamp per
    distinct record time and one JSON string per distinct device,
    hostname, party, version label and cipher hex, so the writer's
    memory footprint grows with the trace's distinct values, not its
    size, and is dropped with the writer.  A kept replay's line pieces
    (:meth:`add_batch`) are the replay's keeper's, not the writer's.
    """

    def __init__(self, path: str | Path, *, metadata: dict[str, Any] | None = None) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("w")
        self._codec = _ArtifactCodec()
        self._records_seen = 0
        self._connections_seen = 0
        self._revocation_events_seen = 0
        self._write({"schema": STREAM_SCHEMA, "metadata": dict(metadata or {})})

    def _write(self, payload: dict[str, Any]) -> None:
        self._handle.write(json.dumps(payload, sort_keys=True) + "\n")

    # -- CaptureSink protocol ------------------------------------------
    @property
    def records_seen(self) -> int:
        return self._records_seen

    def add(self, record: TrafficRecord) -> None:
        self._records_seen += 1
        self._connections_seen += record.count
        head, alert, random, wire, tail = self._codec.line(
            record.device,
            record.hostname,
            record.party,
            record.month,
            record.when,
            record.client_hello,
            record.established,
            record.established_version,
            record.established_cipher_code,
            record.client_alert,
            record.downgraded,
        )
        self._handle.write(f'{head}{alert}{random}{wire}", "count": {record.count}{tail}')

    def add_batch(self, chunk: RecordChunk) -> None:
        """Write one columnar chunk, with no record built.

        The bytes equal an :meth:`add` loop over ``chunk.iter_records()``
        followed by the chunk's revocation events.  Every line is written
        from its base record's pieces (:meth:`_ArtifactCodec.line`).  A
        chunk whose ``line_pieces`` is ``None`` has them formatted as
        they are written and kept nowhere.  Otherwise the list is shared
        by every chunk of one kept replay: the first write fills it, and
        later writes, for any seed or flow cap, only join the pieces
        around their counts.  A base record that ``chunk.split_cap``
        splits repeats one line for its full copies, and its remainder
        gets its own count.
        """
        pieces = chunk.line_pieces
        if not pieces:
            lines = map(
                self._codec.line,
                repeat(chunk.device),
                chunk.hostnames,
                chunk.parties,
                chunk.months,
                chunk.whens,
                chunk.client_hellos,
                chunk.establisheds,
                chunk.established_versions,
                chunk.established_cipher_codes,
                chunk.client_alerts,
                chunk.downgradeds,
            )
            if pieces is None:
                pieces = lines
            else:
                # One assignment: a concurrent first write of the same
                # replay replaces the list whole, never extends it.
                pieces[:] = lines
        cap = chunk.split_cap
        write = self._handle.write
        for count, (head, alert, random, wire, tail) in zip(chunk.counts, pieces):
            if cap is None or count <= cap:
                write(f'{head}{alert}{random}{wire}", "count": {count}{tail}')
                continue
            full, remainder = divmod(count, cap)
            capped = f'{head}{alert}{random}{wire}", "count": {cap}{tail}'
            for _ in range(full):
                write(capped)
            if remainder:
                write(f'{head}{alert}{random}{wire}", "count": {remainder}{tail}')
        self._records_seen += chunk.record_total()
        self._connections_seen += chunk.connection_total()
        for event in chunk.revocation_events:
            self.add_revocation_event(event)

    def add_revocation_event(self, event: RevocationEvent) -> None:
        self._revocation_events_seen += 1
        self._write({"revocation_event": revocation_event_to_dict(event)})

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._handle.closed:
            return
        self._write(
            {
                "summary": {
                    "flow_records": self._records_seen,
                    "connections": self._connections_seen,
                    "revocation_events": self._revocation_events_seen,
                }
            }
        )
        self._handle.close()

    def __enter__(self) -> "JsonlStreamWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def fold_stream(path: str | Path, sink) -> dict[str, Any]:
    """Replay a streamed artifact into a capture sink, one device run at a time.

    Returns the header's metadata.  Consecutive records of one device,
    followed by that device's revocation events, are folded as one
    :class:`~repro.testbed.capture.RecordChunk` through the sink's
    ``add_batch``.  A run ends when the device changes, when a record
    follows an event, and after ``_FOLD_RUN`` items, so the fold holds
    at most one bounded run and auditing a paper-scale stream is O(1)
    in the artifact size (plus whatever state the sink itself
    accumulates).  Each record line is
    parsed into a row of fields, and a run's rows become the chunk's
    columns at flush, so no record object is built.  The fold caches,
    for its own run only: each distinct hello decoded once
    (:class:`~repro.tls.codec.HelloWireCache`), each timestamp string
    parsed once, and each decoded hello's canonical record head.

    A record line exactly as :class:`JsonlStreamWriter` wrote it takes
    the one-parse path (:func:`_canonical_row`): only the fields after
    the hello's fixed head are parsed, and the head is compared with
    the decoded hello's canonical one instead.  Any other line --
    re-serialised, reordered, damaged, or one that path fails on --
    goes through ``json.loads`` whole, which alone raises errors, so
    both paths give the same chunks and the same error messages.

    A damaged artifact raises ``ValueError`` rather than being audited
    as paper drift: a missing header line or header ``metadata`` object,
    a malformed line (not a JSON object, a missing or mistyped record
    field, a month outside the study or a count below 1, bad hex), a
    missing or non-final ``summary`` trailer, or trailer counts that
    are not exact ints equal to what was folded.  A malformed line's
    error names its line number.
    """
    path = Path(path)
    codec = HelloWireCache()
    whens: dict[str, datetime] = {}
    heads: dict[int, tuple[ClientHello, str]] = {}
    rows: list[tuple] = []
    events: list[RevocationEvent] = []
    run_device: str | None = None
    folded = {"flow_records": 0, "connections": 0, "revocation_events": 0}
    summary: dict[str, Any] | None = None

    def flush() -> None:
        if run_device is not None:
            # The run's rows transposed into columns; the first is the device.
            columns = dict(zip(_CHUNK_COLUMNS, list(zip(*rows))[1:]))
            sink.add_batch(
                RecordChunk(run_device, **columns, revocation_events=events)
            )
            rows.clear()
            events.clear()

    with path.open() as handle:
        header = json.loads(handle.readline() or "null")
        if not isinstance(header, dict) or "schema" not in header:
            raise ValueError(f"{path}: no stream header on the first line")
        if header["schema"] != STREAM_SCHEMA:
            raise ValueError(
                f"unexpected stream schema {header['schema']!r}; "
                f"wanted {STREAM_SCHEMA}"
            )
        metadata = header.get("metadata")
        if not isinstance(metadata, dict):
            raise ValueError(f"{path}: line 1: header needs a 'metadata' object")
        for number, line in enumerate(handle, start=2):
            line = line.strip()
            if not line:
                continue
            if summary is not None:
                raise ValueError(
                    f"{path}: line {number}: a line follows the summary trailer"
                )
            event = None
            row = _canonical_row(line, codec, whens, heads)
            if row is None:
                try:
                    payload = json.loads(line)
                    if not isinstance(payload, dict):
                        raise ValueError("not a JSON object")
                    if "record" in payload:
                        row = _record_row(payload["record"], codec, whens)
                    elif "revocation_event" in payload:
                        event = revocation_event_from_dict(payload["revocation_event"])
                    elif "summary" in payload:
                        summary = payload["summary"]
                        if not isinstance(summary, dict):
                            raise ValueError("malformed summary trailer")
                    else:
                        raise ValueError(f"unrecognised stream line: {line[:80]}")
                except (KeyError, TypeError, ValueError) as exc:
                    detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
                    raise ValueError(f"{path}: line {number}: {detail}") from exc
            if row is not None:
                if row[0] != run_device or events or len(rows) >= _FOLD_RUN:
                    flush()
                    run_device = row[0]
                rows.append(row)
                folded["flow_records"] += 1
                folded["connections"] += row[-1]
            elif event is not None:
                if (
                    event.device != run_device
                    or len(rows) + len(events) >= _FOLD_RUN
                ):
                    flush()
                    run_device = event.device
                events.append(event)
                folded["revocation_events"] += 1
    flush()
    if summary is None:
        raise ValueError(f"{path}: no summary trailer; the artifact is truncated")
    # An exact int: a JSON boolean or float must not pass for a count.
    mismatched = {
        key: (summary.get(key), count)
        for key, count in folded.items()
        if type(summary.get(key)) is not int or summary[key] != count
    }
    if mismatched:
        raise ValueError(
            f"{path}: summary trailer disagrees with the folded stream "
            "(trailer, folded): "
            + ", ".join(f"{key} {pair}" for key, pair in mismatched.items())
        )
    return metadata


def capture_from_stream(path: str | Path) -> GatewayCapture:
    """Materialise a streamed artifact back into a capture."""
    capture = GatewayCapture()
    fold_stream(path, capture)
    return capture


# ----------------------------------------------------------------------
# Campaign / probe documents
# ----------------------------------------------------------------------
def probe_report_to_document(report: DeviceProbeReport) -> dict[str, Any]:
    def results(items):
        return [
            {
                "certificate": result.certificate_name,
                "outcome": result.outcome.value,
                "observed_alert": result.observed_alert,
            }
            for result in items
        ]

    calibration = report.calibration
    payload: dict[str, Any] = {
        "device": report.device,
        "amenable": calibration.amenable,
    }
    if calibration.amenable:
        cp, cc = report.common_tally
        dp, dc = report.deprecated_tally
        payload.update(
            {
                "unknown_ca_alert": calibration.unknown_ca_alert,
                "bad_signature_alert": calibration.known_ca_alert,
                "common": {"present": cp, "conclusive": cc, "results": results(report.common_results)},
                "deprecated": {
                    "present": dp,
                    "conclusive": dc,
                    "results": results(report.deprecated_results),
                },
            }
        )
    else:
        payload["reason"] = calibration.reason
    return payload


def campaign_to_document(results: CampaignResults) -> dict[str, Any]:
    """The full active-experiment campaign as one JSON document."""
    return {
        "summary": {
            "vulnerable_devices": results.vulnerable_device_count,
            "sensitive_leaks": results.sensitive_leak_count,
            "downgrading_devices": results.downgrading_device_count,
            "old_version_devices": results.old_version_device_count,
            "probe_eligible": results.probe_eligible,
            "amenable_devices": [r.device for r in results.amenable_probe_reports],
        },
        "interception": [
            {
                "device": report.device,
                "vulnerable": report.vulnerable,
                "leaks_sensitive_data": report.leaks_sensitive_data,
                "vulnerable_destinations": report.vulnerable_destinations,
                "total_destinations": report.total_destinations,
                "attacks": {
                    mode.value: report.vulnerable_to(mode)
                    for mode in (
                        AttackMode.NO_VALIDATION,
                        AttackMode.INVALID_BASIC_CONSTRAINTS,
                        AttackMode.WRONG_HOSTNAME,
                    )
                },
            }
            for report in results.interception
        ],
        "downgrade": [
            {
                "device": report.device,
                "downgrades": report.downgrades,
                "on_failed_handshake": report.downgrades_on_failed,
                "on_incomplete_handshake": report.downgrades_on_incomplete,
                "behavior": report.behavior,
                "downgraded_destinations": report.downgraded_destinations,
                "tested_destinations": report.tested_destinations,
            }
            for report in results.downgrade
        ],
        "old_versions": [
            {"device": support.device, "tls10": support.tls10, "tls11": support.tls11}
            for support in results.old_versions
        ],
        "probes": [probe_report_to_document(report) for report in results.probes],
        "passthrough": [
            {
                "device": outcome.device,
                "extra_fraction": outcome.extra_fraction,
                "new_hostnames": sorted(outcome.new_hostnames),
                "new_validation_failures": outcome.new_validation_failures,
            }
            for outcome in results.passthrough
        ],
    }


def write_json(payload: Any, path: str | Path) -> Path:
    """Serialise a payload to pretty-printed JSON at ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
