"""Full active-experiment pipeline: one call reproducing §5.2's campaign.

:class:`ActiveExperimentCampaign` sequences the audits the way the study
did:

1. interception attacks against every active device (Table 7),
2. downgrade and old-version probes (Tables 5 and 6),
3. eligibility filtering for root-store probing -- devices unsuited to
   repeated reboots and devices that never validated any connection are
   excluded (§5.2) -- then the probe campaign itself (Table 9),
4. the TrafficPassthrough verification pass (§4.2).

Results are bundled in :class:`CampaignResults`, which the analysis and
benchmark layers consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from .. import telemetry as _telemetry
from ..devices.catalog import active_devices
from ..testbed.infrastructure import Testbed
from ..mitm.proxy import AttackMode
from .downgrade import DeviceDowngradeReport, DowngradeAuditor, OldVersionSupport
from .interception import DeviceInterceptionReport, InterceptionAuditor
from .passthrough import PassthroughExperiment, PassthroughOutcome
from .prober import DeviceProbeReport, RootStoreProber

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..parallel import WarmWorkerPool

__all__ = ["CampaignResults", "ActiveExperimentCampaign"]

_TELEMETRY = _telemetry.get()


@dataclass
class CampaignResults:
    """Everything the active experiments produced."""

    interception: list[DeviceInterceptionReport] = field(default_factory=list)
    downgrade: list[DeviceDowngradeReport] = field(default_factory=list)
    old_versions: list[OldVersionSupport] = field(default_factory=list)
    probes: list[DeviceProbeReport] = field(default_factory=list)
    passthrough: list[PassthroughOutcome] = field(default_factory=list)
    probe_eligible: list[str] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Headline numbers (§1 research findings)
    # ------------------------------------------------------------------
    @property
    def vulnerable_device_count(self) -> int:
        return sum(1 for report in self.interception if report.vulnerable)

    @property
    def sensitive_leak_count(self) -> int:
        return sum(
            1 for report in self.interception if report.vulnerable and report.leaks_sensitive_data
        )

    @property
    def downgrading_device_count(self) -> int:
        return sum(1 for report in self.downgrade if report.downgrades)

    @property
    def old_version_device_count(self) -> int:
        return sum(1 for support in self.old_versions if support.any_old)

    @property
    def amenable_probe_reports(self) -> list[DeviceProbeReport]:
        return [report for report in self.probes if report.calibration.amenable]

    def interception_report(self, device: str) -> DeviceInterceptionReport:
        for report in self.interception:
            if report.device == device:
                return report
        raise KeyError(device)


class ActiveExperimentCampaign:
    """Sequencer for the full active-experiment suite."""

    def __init__(self, testbed: Testbed | None = None) -> None:
        self.testbed = testbed or Testbed()

    def run(
        self, *, include_passthrough: bool = True, pool: WarmWorkerPool | None = None
    ) -> CampaignResults:
        """Run every phase, optionally sharded across a worker pool.

        Without a ``pool`` (the default) the serial phase-major loop runs
        in-process.  With one, the active roster is sharded across its
        processes, each running all phases device-major, and the
        phase-major result lists are reassembled in catalog order.  The
        two orders are equivalent because every phase's state is
        per-device.  Workers rebuild the default testbed, so a campaign
        over a custom testbed must run serially.
        """
        if pool is None:
            return self._run_serial(include_passthrough)
        return self._run_parallel(include_passthrough, pool)

    def _run_serial(self, include_passthrough: bool) -> CampaignResults:
        results = CampaignResults()
        interception_auditor = InterceptionAuditor(self.testbed)
        downgrade_auditor = DowngradeAuditor(self.testbed)
        prober = RootStoreProber(self.testbed)

        for profile in active_devices():
            device = self.testbed.device(profile)
            results.interception.append(interception_auditor.audit_device(device))
            results.downgrade.append(downgrade_auditor.audit_device_downgrade(device))
            results.old_versions.append(downgrade_auditor.audit_device_old_versions(device))
            if _TELEMETRY.enabled:
                _TELEMETRY.registry.counter(
                    "iotls_campaign_devices_total",
                    "Devices processed by the active campaign's audit phase.",
                ).inc()

        # Probe eligibility per §5.2: rebootable devices that validated
        # at least one connection during the interception audit.
        for profile in active_devices():
            if not profile.rebootable:
                continue
            report = results.interception_report(profile.name)
            # A device "did not validate certificates in any of its TLS
            # connections" when every destination fell to NoValidation.
            all_novalidation = all(
                d.intercepted_by(AttackMode.NO_VALIDATION) for d in report.destinations
            )
            if all_novalidation:
                continue
            results.probe_eligible.append(profile.name)

        for name in results.probe_eligible:
            device = self.testbed.device(name)
            results.probes.append(prober.probe_device(device))

        if include_passthrough:
            experiment = PassthroughExperiment(self.testbed)
            for profile in active_devices():
                device = self.testbed.device(profile)
                baseline = results.interception_report(profile.name)
                results.passthrough.append(experiment.run_device(device, baseline))

        return results

    def _run_parallel(
        self, include_passthrough: bool, pool: WarmWorkerPool
    ) -> CampaignResults:
        """Shard the roster onto the pool, merge in catalog order."""
        from ..parallel import CampaignShardTask, run_campaign_shard

        order = [profile.name for profile in active_devices()]
        tasks = [
            CampaignShardTask(
                device_names=tuple(shard), include_passthrough=include_passthrough
            )
            for shard in round_robin_shards(order, pool.workers)
        ]
        shards = pool.map(run_campaign_shard, tasks)
        outcomes = {outcome.device: outcome for shard in shards for outcome in shard}
        results = CampaignResults()
        for name in order:
            outcome = outcomes[name]
            results.interception.append(outcome.interception)
            results.downgrade.append(outcome.downgrade)
            results.old_versions.append(outcome.old_versions)
            if outcome.probe_eligible:
                results.probe_eligible.append(name)
                results.probes.append(outcome.probe)
            if include_passthrough:
                results.passthrough.append(outcome.passthrough)
        return results


def round_robin_shards(items: Sequence, workers: int) -> list[list]:
    """Partition ``items`` round-robin into at most ``workers`` shards.

    Shard ``i`` holds ``items[i::n]``, so long-running devices spread
    evenly instead of clustering in one contiguous chunk; within a shard
    the original order is kept.  Empty shards are never produced.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    count = max(1, min(workers, len(items)))
    return [list(items[index::count]) for index in range(count)]
