"""Passive-trace generation: the two-year uncontrolled dataset (§4.1).

The study recorded testbed traffic from January 2018 through March 2020
(≈17M TLS connections; every device active for at least 6 months).  The
generator replays that period: for every (device, destination, month)
triple inside the device's activity window it performs a *real*
handshake against the genuine cloud server -- with the instance and
server configurations in effect that month -- and records the outcome
with a connection count drawn from the destination's weight.

Everything is seeded, so two runs yield identical captures.  ``scale``
sets connections-per-weight-unit-per-month; the default keeps analyses
fast, while benchmarks raise it toward the study's full volume.
"""

from __future__ import annotations

import random
from contextlib import closing
from time import perf_counter
from typing import Iterator

from .. import telemetry as _telemetry
from ..devices.catalog import passive_devices
from ..devices.device import Device
from ..devices.profile import STUDY_MONTHS, DestinationSpec, DeviceProfile, month_to_date
from ..pki.revocation import RevocationMethod
from ..roothistory.universe import RootStoreUniverse
from ..testbed.capture import (
    CaptureSink,
    FlowRecordChunker,
    GatewayCapture,
    RecordChunk,
    RevocationEvent,
    sink_add_batch,
)
from ..testbed.infrastructure import Testbed

__all__ = ["PassiveTraceGenerator", "DEFAULT_SCALE"]

#: Connections per unit of destination weight per month.
DEFAULT_SCALE = 40

_TELEMETRY = _telemetry.get()


class PassiveTraceGenerator:
    """Seeded generator of the longitudinal passive capture."""

    def __init__(
        self,
        testbed: Testbed | None = None,
        *,
        scale: int = DEFAULT_SCALE,
        seed: str = "iotls-passive",
        flow_cap: int | None = None,
    ) -> None:
        if flow_cap is not None and flow_cap < 1:
            raise ValueError(f"flow_cap must be >= 1 or None, got {flow_cap}")
        self.testbed = testbed or Testbed()
        self.scale = scale
        self.seed = seed
        #: Maximum connections per emitted flow record.  ``None`` keeps
        #: the classic batching (one record per device/destination/month
        #: handshake attempt); a cap splits batched flows via
        #: :class:`~repro.testbed.capture.FlowRecordChunker` so record
        #: volume tracks connection volume -- the paper-scale axis the
        #: streaming path is built for.
        self.flow_cap = flow_cap

    # ------------------------------------------------------------------
    def _flow_count(self, device: str, hostname: str, month: int, weight: float) -> int:
        rng = random.Random(f"{self.seed}:{device}:{hostname}:{month}")
        jitter = 0.7 + 0.6 * rng.random()
        return max(1, round(weight * self.scale * jitter))

    def _destination_active(self, destination: DestinationSpec, month: int) -> bool:
        if destination.active_months is None:
            return True
        first, last = destination.active_months
        return first <= month <= last

    # ------------------------------------------------------------------
    def generate_device_chunk(self, profile: DeviceProfile) -> RecordChunk:
        """Replay one device and return its columnar record chunk.

        This is the single copy of the month loop: handshakes happen
        here, base-record fields land in column lists (no per-flow
        :class:`~repro.testbed.capture.TrafficRecord` construction), and
        revocation side effects (CRL regeneration, OCSP responses) fire
        at the same month boundaries as always.  Every record-consuming
        path -- materialise, stream, parallel workers -- folds or
        expands the returned chunk.
        """
        device = self.testbed.device(profile)
        window = profile.longitudinal
        telemetry_on = _TELEMETRY.enabled
        hostnames: list[str] = []
        parties: list = []
        months: list[int] = []
        whens: list = []
        client_hellos: list = []
        establisheds: list[bool] = []
        established_versions: list = []
        established_cipher_codes: list = []
        client_alerts: list = []
        downgradeds: list[bool] = []
        counts: list[int] = []
        events: list[RevocationEvent] = []
        for month in range(STUDY_MONTHS):
            if not window.active_in(month):
                continue
            if telemetry_on:
                _TELEMETRY.registry.counter(
                    "iotls_trace_device_months_total",
                    "Active (device, month) cells replayed by the trace generator.",
                ).inc()
            when = month_to_date(month)
            for destination in profile.destinations:
                if not self._destination_active(destination, month):
                    continue
                server = self.testbed.server_for(destination)
                connection = device.connect_destination(
                    destination, server, month=month, when=when
                )
                count = self._flow_count(
                    profile.name, destination.hostname, month, destination.monthly_weight
                )
                hostname = destination.hostname
                party = destination.party
                for index, result in enumerate(connection.attempt.attempts):
                    alert = result.client_alert
                    hostnames.append(hostname)
                    parties.append(party)
                    months.append(month)
                    whens.append(when)
                    client_hellos.append(result.client_hello)
                    establisheds.append(result.established)
                    established_versions.append(result.established_version)
                    established_cipher_codes.append(result.established_cipher_code)
                    client_alerts.append(
                        alert.description.name.lower() if alert else None
                    )
                    downgradeds.append(index > 0)
                    counts.append(count)
            self._collect_revocation_events(profile, month, events)
        return RecordChunk(
            profile.name,
            hostnames=hostnames,
            parties=parties,
            months=months,
            whens=whens,
            client_hellos=client_hellos,
            establisheds=establisheds,
            established_versions=established_versions,
            established_cipher_codes=established_cipher_codes,
            client_alerts=client_alerts,
            downgradeds=downgradeds,
            counts=counts,
            revocation_events=events,
        )

    def generate_device(self, profile: DeviceProfile, capture: CaptureSink) -> None:
        """Replay one device into ``capture`` (records, then events)."""
        sink_add_batch(capture, self.generate_device_chunk(profile))

    def _collect_revocation_events(
        self, profile: DeviceProfile, month: int, events: list[RevocationEvent]
    ) -> None:
        """CRL fetches / OCSP queries the device's checking produces."""
        behavior = profile.revocation
        if behavior.uses_crl:
            registry = self.testbed.registry(0)
            registry.current_crl(when=month_to_date(month))
            events.append(
                RevocationEvent(
                    device=profile.name,
                    method=RevocationMethod.CRL,
                    url=registry.crl_url,
                    month=month,
                )
            )
        if behavior.uses_ocsp:
            registry = self.testbed.registry(0)
            registry.ocsp.respond(serial=1, when=month_to_date(month))
            events.append(
                RevocationEvent(
                    device=profile.name,
                    method=RevocationMethod.OCSP,
                    url=registry.ocsp_url,
                    month=month,
                )
            )

    def _device_chunk_instrumented(self, profile: DeviceProfile) -> RecordChunk:
        """:meth:`generate_device_chunk` in the per-device telemetry envelope.

        Every path -- materialise, stream, and the pool's chunk tasks --
        replays a device through this method, so the span, counter, and
        event a device produces are identical whichever process replays
        it: the property that makes merged parallel counter totals equal
        the serial ones.  ``flow_records`` is the chunk's base-record
        count, before any flow-cap splitting.
        """
        if not _TELEMETRY.enabled:
            return self.generate_device_chunk(profile)
        with _TELEMETRY.tracer.span("trace.device", device=profile.name) as span:
            chunk = self.generate_device_chunk(profile)
            span.annotate(flow_records=len(chunk))
        _TELEMETRY.registry.counter(
            "iotls_trace_devices_total", "Devices replayed by the trace generator."
        ).inc()
        _TELEMETRY.events.debug(
            "trace.device_complete",
            device=profile.name,
            flow_records=len(chunk),
        )
        return chunk

    # ------------------------------------------------------------------
    def generate(self, *, workers: int = 1) -> GatewayCapture:
        """The full 27-month capture for all 40 devices.

        ``workers=1`` (the default) replays every device in-process.
        ``workers>1`` replays one device per task on the session pool
        (:meth:`_chunks`) and folds the chunks in catalog order;
        because every flow's RNG is keyed by ``(seed, device, hostname,
        month)``, the capture is byte-identical to the serial one.  Pool
        workers rebuild the *default* testbed, so a generator
        constructed over a custom universe must run serially.
        """
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if not _TELEMETRY.enabled:
            return self._generate(workers)

        tracer, registry, events = (
            _TELEMETRY.tracer,
            _TELEMETRY.registry,
            _TELEMETRY.events,
        )
        started = perf_counter()
        with tracer.span(
            "trace.generate", scale=self.scale, seed=self.seed, workers=workers
        ) as root:
            capture = self._generate(workers)
            root.annotate(flow_records=len(capture.records))
        elapsed = perf_counter() - started
        connections = sum(record.count for record in capture.records)
        registry.gauge(
            "iotls_trace_last_run_seconds", "Wall time of the last full trace generation."
        ).set(elapsed)
        throughput = len(capture.records) / elapsed if elapsed > 0 else 0.0
        registry.gauge(
            "iotls_trace_records_per_second",
            "Flow-record throughput of the last full trace generation.",
        ).set(throughput)
        events.info(
            "trace.complete",
            flow_records=len(capture.records),
            connections=connections,
            devices=len(capture.devices()),
            seconds=round(elapsed, 6),
            records_per_second=round(throughput, 1),
        )
        return capture

    def _generate(self, workers: int) -> GatewayCapture:
        capture = GatewayCapture()
        target: CaptureSink = (
            capture if self.flow_cap is None else FlowRecordChunker(capture, self.flow_cap)
        )
        progress = _TELEMETRY.progress
        with closing(self._chunks(workers, "trace.generate")) as chunks:
            for chunk in chunks:
                before = target.records_seen
                sink_add_batch(target, chunk)
                if progress is not None:
                    progress.advance(target.records_seen - before, stage="trace.device")
        return capture

    # ------------------------------------------------------------------
    def stream_into(self, sink: CaptureSink, *, workers: int = 1) -> None:
        """Stream the full capture into ``sink`` record by record.

        The streaming counterpart of :meth:`generate`: nothing is
        materialised here -- each device is replayed into one columnar
        :class:`~repro.testbed.capture.RecordChunk` (so the per-device
        span/event telemetry stays identical to the materialised path),
        folded into ``sink`` in records-then-events order via
        :func:`~repro.testbed.capture.sink_add_batch`, and dropped.
        Peak memory is one device's chunk, O(devices x months) cells,
        independent of ``scale`` and ``flow_cap``.

        ``workers>1`` runs one task per device on the session pool
        (:meth:`_chunks`) and folds chunks home in catalog order, so
        the sink observes exactly the serial arrival order -- streaming
        output and run manifests are invariant under ``workers``, and
        match the materialised path's byte for byte.

        A ``flow_cap`` splits batched records just before ``sink`` --
        *virtually* on the columnar path: the chunker stamps the cap on
        each chunk and batch-aware sinks account for split
        multiplicities arithmetically, while record-by-record sinks see
        bounded-``count`` records expanded lazily.  Chunks hold
        pre-split base records and stay scale-independent either way.
        """
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        target: CaptureSink = (
            sink if self.flow_cap is None else FlowRecordChunker(sink, self.flow_cap)
        )
        if not _TELEMETRY.enabled:
            self._stream(target, workers)
            return

        tracer, registry, events = (
            _TELEMETRY.tracer,
            _TELEMETRY.registry,
            _TELEMETRY.events,
        )
        before = sink.records_seen
        started = perf_counter()
        with tracer.span(
            "trace.stream", scale=self.scale, seed=self.seed, workers=workers
        ) as root:
            peak_staged = self._stream(target, workers)
            root.annotate(flow_records=sink.records_seen - before)
        elapsed = perf_counter() - started
        streamed = sink.records_seen - before
        throughput = streamed / elapsed if elapsed > 0 else 0.0
        # Streaming instrumentation is gauges only: gauges are excluded
        # from the manifest's deterministic-metrics slice, which is what
        # keeps streaming and materialised manifests byte-identical.
        registry.gauge(
            "iotls_trace_last_run_seconds", "Wall time of the last full trace generation."
        ).set(elapsed)
        registry.gauge(
            "iotls_stream_records_per_second",
            "Flow-record throughput of the last streaming trace run.",
        ).set(throughput)
        registry.gauge(
            "iotls_stream_peak_staged_records",
            "Largest per-device staging buffer of the last streaming run "
            "(the stream's memory high-water mark, in records).",
        ).set(float(peak_staged))
        events.info(
            "trace.stream_complete",
            flow_records=streamed,
            seconds=round(elapsed, 6),
            records_per_second=round(throughput, 1),
            peak_staged_records=peak_staged,
        )

    def _stream(self, target: CaptureSink, workers: int) -> int:
        """Feed ``target`` device by device; returns the peak staging depth."""
        peak = 0
        progress = _TELEMETRY.progress
        with closing(self._chunks(workers, "trace.stream")) as chunks:
            for chunk in chunks:
                peak = max(peak, len(chunk))
                sink_add_batch(target, chunk)
                # Record counts flow through the stream's ProgressSink;
                # here only the per-device staging stage is tallied.
                if progress is not None:
                    progress.advance(0, stage="trace.device")
        return peak

    # ------------------------------------------------------------------
    def _chunks(self, workers: int, root: str) -> Iterator[RecordChunk]:
        """Every device's chunk, in catalog order.

        ``workers=1`` replays devices in-process.  Otherwise each device
        is one task on the session pool and chunks come home through
        ``Pool.imap`` in task order.  ``root`` names the run's root span
        (``trace.generate`` or ``trace.stream``).  The dispatch span
        wraps task fan-out *and* the caller's fold (chunks stream home
        as they finish); the context it anchors re-parents every worker
        ``chunk.run`` under ``root;parallel.dispatch`` once the workers'
        telemetry merges, after the last chunk.  Callers consume it
        under ``contextlib.closing`` so a failing fold exits the span
        and the pool session at once, not when the generator is
        collected.
        """
        if workers == 1:
            for profile in passive_devices():
                yield self._device_chunk_instrumented(profile)
            return
        from ..parallel import TraceChunkTask, pool_session, run_trace_chunk

        order = [profile.name for profile in passive_devices()]
        states = []
        with _TELEMETRY.tracer.span(
            "parallel.dispatch", workers=workers, devices=len(order)
        ), pool_session(workers) as pool:
            context = _TELEMETRY.tracer.propagation_context(
                root, self.seed, self.scale, workers
            )
            tasks = [
                TraceChunkTask(
                    index=index,
                    device_name=name,
                    seed=self.seed,
                    scale=self.scale,
                    telemetry=_TELEMETRY.enabled,
                    event_level=_TELEMETRY.events.level,
                    trace_context=context.to_dict() if context is not None else None,
                )
                for index, name in enumerate(order)
            ]
            for result in pool.imap(run_trace_chunk, tasks):
                if result.telemetry is not None:
                    states.append(result.telemetry)
                yield result.chunk
        if states:
            _TELEMETRY.merge_worker_states(states)
