"""Device profiles: the declarative description of one IoT device.

A profile bundles everything the experiments need to know about a
device:

* identity (name, category, manufacturer) -- Table 1,
* whether it took part in *active* experiments and whether it tolerates
  repeated reboots (the paper excluded Washer/Dryer/Thermostat/Fridge
  from probing),
* its TLS instances (:mod:`repro.devices.instance`),
* the destinations it contacts, each wired to one instance and carrying
  a server-side TLS spec -- the client/server split is what lets the
  paper's "devices support better security than their servers" findings
  emerge from negotiation,
* a root-store profile (:mod:`repro.devices.rootstores`) -- Table 9,
* revocation behaviour -- Table 8,
* a longitudinal activity window -- the passive study's month grid.

The study's passive window is January 2018 (month 0) through March 2020
(month 26); active experiments ran in March 2021 (month 38).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from functools import lru_cache

from ..tls.versions import ProtocolVersion
from .instance import TLSInstanceSpec, epoch_position
from .policies import RevocationBehavior

__all__ = [
    "STUDY_MONTHS",
    "ACTIVE_EXPERIMENT_MONTH",
    "month_to_date",
    "DeviceCategory",
    "Party",
    "ServerEpoch",
    "ServerSpec",
    "DestinationSpec",
    "StoreProfile",
    "LongitudinalSpec",
    "DeviceProfile",
]

#: Number of months in the passive study (Jan 2018 .. Mar 2020 inclusive).
STUDY_MONTHS = 27

#: Month index of the bulk of the active experiments (March 2021).
ACTIVE_EXPERIMENT_MONTH = 38


@lru_cache(maxsize=256)
def month_to_date(month: int, day: int = 15) -> datetime:
    """Convert a study-month index to a mid-month UTC datetime.

    Cached: a campaign asks for the same few months per connection, and
    datetimes are immutable.
    """
    year = 2018 + month // 12
    return datetime(year, month % 12 + 1, day, tzinfo=timezone.utc)


class UpdatePolicy(Enum):
    """How a device receives software updates (§4.1's update discipline).

    The study updated automatic devices at the manufacturer's cadence
    and accepted manual updates ad hoc when companion apps asked.
    """

    AUTOMATIC = "automatic"
    MANUAL = "manual"
    NONE = "none"


class DeviceCategory(Enum):
    """The six Table 1 categories."""

    CAMERA = "Cameras"
    SMART_HUB = "Smart Hubs"
    HOME_AUTOMATION = "Home Automation"
    TV = "TV"
    AUDIO = "Audio"
    APPLIANCE = "Appliances"


class Party(Enum):
    """Destination ownership, labelled as in Ren et al. [52]."""

    FIRST = "first"
    THIRD = "third"


@dataclass(frozen=True)
class ServerEpoch:
    """One period of a destination server's TLS configuration."""

    versions: tuple[ProtocolVersion, ...]
    cipher_codes: tuple[int, ...]  # server preference order


@dataclass(frozen=True)
class ServerSpec:
    """A destination server's configuration over the study timeline.

    ``anchor_index`` selects which of the testbed's designated anchor CAs
    (a fixed subset of the *common* roots present in every device store)
    signs the server's certificate.
    """

    timeline: tuple[tuple[int, ServerEpoch], ...]
    anchor_index: int = 0
    supports_stapling: bool = False
    must_staple: bool = False
    #: RFC 7507: refuse fallback retries carrying TLS_FALLBACK_SCSV.
    honor_fallback_scsv: bool = False

    def epoch_at(self, month: int) -> ServerEpoch:
        return self.timeline[epoch_position(self.timeline, month)][1]

    @staticmethod
    def static(
        epoch: ServerEpoch, *, anchor_index: int = 0, supports_stapling: bool = False
    ) -> "ServerSpec":
        return ServerSpec(
            timeline=((0, epoch),),
            anchor_index=anchor_index,
            supports_stapling=supports_stapling,
        )


@dataclass(frozen=True)
class DestinationSpec:
    """One destination a device contacts."""

    hostname: str
    instance: str  # name of the TLS instance used for this destination
    server: ServerSpec
    party: Party = Party.FIRST
    sensitive_payload: str | None = None  # plaintext an interceptor would see
    tested_for_downgrade: bool = True  # included in the Table 5 experiment
    #: Whether the device's application code retries this destination with
    #: downgraded security on failure.  Different code paths on a device can
    #: share one TLS instance (same fingerprint) yet differ in retry logic,
    #: which is how e.g. the HomePod downgrades on 7 of its 9 destinations.
    fallback_enabled: bool = True
    monthly_weight: float = 1.0  # relative passive connection volume
    active_months: tuple[int, int] | None = None  # (first, last) inclusive override


@dataclass(frozen=True)
class StoreProfile:
    """Ground truth for a device's root store (drives Table 9 / Figure 4).

    ``common_count`` / ``deprecated_count`` are how many of the universe's
    122 common and 87 deprecated roots the device ships.
    ``force_deprecated`` pins specific CAs into the store (e.g. LG TV's
    TurkTrust, removed in 2013).  ``recency_bias`` shapes which deprecated
    roots a device retains: high bias keeps mostly recently-removed roots
    (a recently-built or partially-maintained store), low bias keeps old
    ones too.  ``probe_conclusive_rate`` is the per-certificate chance an
    active probe yields a conclusive answer (Table 9 denominators).
    """

    common_count: int = 122
    deprecated_count: int = 0
    force_deprecated: tuple[str, ...] = ()
    recency_bias: float = 2.0
    #: Per-certificate probability that an active probe yields a conclusive
    #: answer (the device produced classifiable traffic) -- Table 9's
    #: denominators.  Split by probe set because campaign conditions
    #: differed between the common and deprecated sweeps.
    conclusive_rate_common: float = 0.97
    conclusive_rate_deprecated: float = 0.85


@dataclass(frozen=True)
class LongitudinalSpec:
    """Passive-study activity window for one device."""

    first_month: int = 0
    last_month: int = STUDY_MONTHS - 1
    gap_months: frozenset[int] = frozenset()

    def active_in(self, month: int) -> bool:
        return self.first_month <= month <= self.last_month and month not in self.gap_months

    @property
    def months_active(self) -> int:
        return sum(1 for m in range(self.first_month, self.last_month + 1) if m not in self.gap_months)


@dataclass(frozen=True)
class DeviceProfile:
    """The full declarative description of one device."""

    name: str
    category: DeviceCategory
    manufacturer: str
    active: bool  # takes part in active (interception) experiments
    rebootable: bool = True  # suitable for repeated smart-plug reboots
    instances: tuple[TLSInstanceSpec, ...] = ()
    destinations: tuple[DestinationSpec, ...] = ()
    revocation: RevocationBehavior = field(default_factory=RevocationBehavior.none)
    store: StoreProfile = field(default_factory=StoreProfile)
    longitudinal: LongitudinalSpec = field(default_factory=LongitudinalSpec)
    units_sold_millions: float = 1.0  # for the headline "200M units" figure
    update_policy: UpdatePolicy = UpdatePolicy.AUTOMATIC
    #: Month index of the last software update before the active
    #: experiments (None = updates continued through the probe date).
    #: §5.2: "LG TV was last updated in July 2019 and Roku TV in
    #: September 2020, while the bulk of our experiments were performed
    #: in 2021."
    last_update_month: int | None = None

    def __post_init__(self) -> None:
        instance_names = {spec.name for spec in self.instances}
        if len(instance_names) != len(self.instances):
            raise ValueError(f"{self.name}: duplicate instance names")
        for destination in self.destinations:
            if destination.instance not in instance_names:
                raise ValueError(
                    f"{self.name}: destination {destination.hostname!r} references "
                    f"unknown instance {destination.instance!r}"
                )

    def instance_spec(self, name: str) -> TLSInstanceSpec:
        for spec in self.instances:
            if spec.name == name:
                return spec
        raise KeyError(f"{self.name}: no instance named {name!r}")

    def destinations_via(self, instance_name: str) -> list[DestinationSpec]:
        return [d for d in self.destinations if d.instance == instance_name]
