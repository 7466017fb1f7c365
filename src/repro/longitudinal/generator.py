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

from contextlib import closing
from hashlib import blake2s
from typing import TYPE_CHECKING, Iterator

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
)
from ..testbed.infrastructure import Testbed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..parallel import WarmWorkerPool

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
        if scale < 1:
            raise ValueError(f"scale must be >= 1, got {scale}")
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
        # The volume jitter, in [0.7, 1.3), is a pure function of the
        # flow's key: the top 53 bits of a keyed blake2s digest scaled to
        # [0, 1), so any process computes it in any order without seeding
        # a PRNG per flow.
        key = f"{self.seed}:{device}:{hostname}:{month}".encode()
        digest = blake2s(key, digest_size=8).digest()
        jitter = 0.7 + 0.6 * ((int.from_bytes(digest, "big") >> 11) * 2.0**-53)
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
        at the same month boundaries as always.  Every sink -- serial
        or fed by pool workers -- folds or expands the returned
        chunk.
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
        """:meth:`generate_device_chunk`, counted when telemetry is on."""
        chunk = self.generate_device_chunk(profile)
        if _TELEMETRY.enabled:
            _TELEMETRY.registry.counter(
                "iotls_trace_devices_total", "Devices replayed by the trace generator."
            ).inc()
        return chunk

    # ------------------------------------------------------------------
    def generate(self, *, pool: WarmWorkerPool | None = None) -> GatewayCapture:
        """The full 27-month capture for all 40 devices.

        :meth:`stream_into` a fresh :class:`GatewayCapture`, returned.
        Pool workers rebuild the *default* testbed, so a generator
        constructed over a custom universe must run serially.
        """
        capture = GatewayCapture()
        self.stream_into(capture, pool=pool)
        return capture

    def stream_into(
        self, sink: CaptureSink, *, pool: WarmWorkerPool | None = None
    ) -> None:
        """Stream the full capture into ``sink``, one device chunk at a time.

        The one generator loop: each device is replayed into one
        columnar :class:`~repro.testbed.capture.RecordChunk`, handed to
        ``sink.add_batch`` (records, then events) and dropped.  Peak
        memory is one device's chunk, O(devices x months) cells,
        independent of ``scale`` and ``flow_cap`` -- unless the sink
        itself keeps records, as a :class:`GatewayCapture` does.

        With a ``pool``, each device is one task on it (:meth:`_chunks`)
        and chunks fold home in catalog order, so the sink observes
        exactly the serial arrival order: because every flow's jitter is
        a keyed hash of ``(seed, device, hostname, month)``
        (:meth:`_flow_count`), outputs and run manifests are the same
        with or without the pool.

        A ``flow_cap`` splits batched records just before ``sink``
        (:class:`~repro.testbed.capture.FlowRecordChunker`): the cap is
        stamped on each chunk and sinks account for split
        multiplicities arithmetically.  Chunks hold pre-split base
        records and stay scale-independent either way.
        """
        target: CaptureSink = (
            sink if self.flow_cap is None else FlowRecordChunker(sink, self.flow_cap)
        )
        with closing(self._chunks(pool)) as chunks:
            for chunk in chunks:
                target.add_batch(chunk)

    # ------------------------------------------------------------------
    def _chunks(self, pool: WarmWorkerPool | None) -> Iterator[RecordChunk]:
        """Every device's chunk, in catalog order.

        Without a pool, devices replay in-process.  Otherwise each
        device is one task on the pool and chunks come home through
        ``pool.imap`` in task order.  Callers consume it under
        ``contextlib.closing`` so a failing fold cancels the tasks not
        yet started at once, not when the generator is collected.
        """
        if pool is None:
            for profile in passive_devices():
                yield self._device_chunk_instrumented(profile)
            return
        from ..parallel import TraceChunkTask, run_trace_chunk

        tasks = [
            TraceChunkTask(device_name=profile.name, seed=self.seed, scale=self.scale)
            for profile in passive_devices()
        ]
        yield from pool.imap(run_trace_chunk, tasks)
