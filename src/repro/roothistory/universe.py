"""The default root-CA universe: every CA record plus platform histories.

Calibrated so the paper's derivation yields the paper's set sizes at the
March-2021 probe date:

* 122 *common* certificates (latest version of all four platforms,
  unexpired),
* 87 *deprecated* certificates (earliest-version members later removed,
  unexpired, never re-added), with a removal-year distribution matching
  Figure 4's population (mass in 2018/2019, tail back to 2013),
* the four explicitly distrusted CAs the paper names -- TurkTrust (2013,
  Mozilla), CNNIC (2015, Google blocklist), WoSign (2016, Google
  blocklist), Certinomis (2019, Mozilla) -- plus the administratively
  rotated Visa eCommerce Root,
* distractor populations that exercise the derivation's filters:
  expired-after-removal roots, removed-then-re-added roots, and roots
  added after the earliest snapshot then removed (invisible to the
  paper's method, as §4.2 notes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter

from .derive import derive_common_names, derive_deprecated_names
from .platforms import PLATFORM_SPECS, PlatformHistory, build_history
from .records import DistrustEvent, RemovalReason, RootCARecord

__all__ = ["RootStoreUniverse", "build_default_universe", "PROBE_YEAR"]

#: The bulk of the paper's active experiments ran in March 2021.
PROBE_YEAR = 2021.2

ALL_PLATFORMS = frozenset(spec[0] for spec in PLATFORM_SPECS)

# Removal-year distribution for the 87 deprecated roots (Figure 4 shape).
_REMOVAL_YEAR_COUNTS: tuple[tuple[int, int], ...] = (
    (2013, 4),
    (2014, 5),
    (2015, 6),
    (2016, 8),
    (2017, 10),
    (2018, 22),
    (2019, 24),
    (2020, 8),
)

# Named CAs the paper discusses, with their (real) distrust events.
_NAMED_DISTRUSTED: tuple[tuple[str, str, str, int, str, str], ...] = (
    # (common name, organization, country, removal year, acting platform, reason)
    (
        "TURKTRUST Elektronik Sertifika Hizmet Saglayicisi",
        "TurkTrust",
        "TR",
        2013,
        "Mozilla",
        "unauthorized google.com certificate",
    ),
    (
        "CNNIC ROOT",
        "CNNIC",
        "CN",
        2015,
        "Google blocklist",
        "unauthorized MCS Holdings intermediate",
    ),
    (
        "Certification Authority of WoSign",
        "WoSign CA Limited",
        "CN",
        2016,
        "Google blocklist",
        "backdated SHA-1 certificates, undisclosed control of StartCom",
    ),
    (
        "Certinomis - Root CA",
        "Certinomis",
        "FR",
        2019,
        "Mozilla",
        "failure to comply with CA guidelines",
    ),
)

# Administrative removals the paper cites as benign ("key rotations").
_NAMED_ADMINISTRATIVE: tuple[tuple[str, str, str, int], ...] = (
    ("Visa eCommerce Root", "VISA", "US", 2018),
)

# A sample of realistic common-root names; the remainder are synthetic.
_REAL_COMMON_NAMES: tuple[tuple[str, str, str], ...] = (
    ("DigiCert Global Root CA", "DigiCert Inc", "US"),
    ("DigiCert High Assurance EV Root CA", "DigiCert Inc", "US"),
    ("GlobalSign Root CA", "GlobalSign nv-sa", "BE"),
    ("Baltimore CyberTrust Root", "Baltimore", "IE"),
    ("ISRG Root X1", "Internet Security Research Group", "US"),
    ("Amazon Root CA 1", "Amazon", "US"),
    ("GTS Root R1", "Google Trust Services LLC", "US"),
    ("USERTrust RSA Certification Authority", "The USERTRUST Network", "US"),
    ("COMODO RSA Certification Authority", "COMODO CA Limited", "GB"),
    ("Entrust Root Certification Authority - G2", "Entrust, Inc.", "US"),
    ("VeriSign Class 3 Public Primary CA - G5", "VeriSign, Inc.", "US"),
    ("AddTrust External CA Root", "AddTrust AB", "SE"),
    ("QuoVadis Root CA 2", "QuoVadis Limited", "BM"),
    ("SecureTrust CA", "SecureTrust Corporation", "US"),
    ("Starfield Root Certificate Authority - G2", "Starfield Technologies", "US"),
    ("Go Daddy Root Certificate Authority - G2", "GoDaddy.com, Inc.", "US"),
    ("T-TeleSec GlobalRoot Class 2", "T-Systems Enterprise Services", "DE"),
    ("SwissSign Gold CA - G2", "SwissSign AG", "CH"),
    ("Actalis Authentication Root CA", "Actalis S.p.A.", "IT"),
    ("Hellenic Academic and Research Institutions RootCA 2015", "HARICA", "GR"),
)

_SYNTH_ORG_STEMS = (
    "TrustBridge", "SecureAnchor", "CertPath", "RootWorks", "KeySpire",
    "AssureNet", "PrimeTrust", "CipherGate", "VeriPath", "SignumLabs",
    "TrustFabric", "AnchorPoint", "CertiCore", "SafeRoute", "KeyHaven",
)
_SYNTH_COUNTRIES = ("US", "GB", "DE", "FR", "JP", "NL", "ES", "CA", "CH", "SE")


_by_name = attrgetter("name")


def _synthetic_name(kind: str, index: int) -> tuple[str, str, str]:
    stem = _SYNTH_ORG_STEMS[index % len(_SYNTH_ORG_STEMS)]
    country = _SYNTH_COUNTRIES[index % len(_SYNTH_COUNTRIES)]
    generation = index // len(_SYNTH_ORG_STEMS) + 1
    return (f"{stem} {kind} Root CA G{generation}", f"{stem} Inc", country)


@dataclass(frozen=True, eq=False)
class RootStoreUniverse:
    """All root-CA records, platform histories, and the derived sets.

    The derived sets are computed once, at construction.  The default
    universe is a process-wide singleton shared by every testbed and
    thread, so it is frozen and callers get immutable tuples.
    """

    records: dict[str, RootCARecord]
    histories: dict[str, PlatformHistory]
    probe_year: float
    common_names: frozenset[str] = field(init=False, repr=False)
    deprecated_names: frozenset[str] = field(init=False, repr=False)
    _common: tuple[RootCARecord, ...] = field(init=False, repr=False)
    _deprecated: tuple[RootCARecord, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        common = frozenset(
            derive_common_names(self.histories, self.records, probe_year=self.probe_year)
        )
        deprecated = frozenset(
            derive_deprecated_names(self.histories, self.records, probe_year=self.probe_year)
        )
        object.__setattr__(self, "common_names", common)
        object.__setattr__(self, "deprecated_names", deprecated)
        object.__setattr__(self, "_common", self._sorted_records(common))
        object.__setattr__(self, "_deprecated", self._sorted_records(deprecated))

    def _sorted_records(self, names: frozenset[str]) -> tuple[RootCARecord, ...]:
        return tuple(sorted((self.records[name] for name in names), key=_by_name))

    def record(self, name: str) -> RootCARecord:
        return self.records[name]

    def common_records(self) -> tuple[RootCARecord, ...]:
        return self._common

    def deprecated_records(self) -> tuple[RootCARecord, ...]:
        return self._deprecated

    def distrusted_records(self) -> list[RootCARecord]:
        return sorted(
            (record for record in self.records.values() if record.is_distrusted),
            key=_by_name,
        )

    def history(self, platform: str) -> PlatformHistory:
        return self.histories[platform]


def _build_records() -> list[RootCARecord]:
    records: list[RootCARecord] = []

    # ------------------------------------------------------------------
    # 122 common roots: carried everywhere, never removed, long-lived.
    # ------------------------------------------------------------------
    common_identities = list(_REAL_COMMON_NAMES)
    index = 0
    while len(common_identities) < 122:
        common_identities.append(_synthetic_name("Global", index))
        index += 1
    for i, (name, org, country) in enumerate(common_identities):
        records.append(
            RootCARecord(
                name=name,
                organization=org,
                country=country,
                added_year=2008,
                expiry_year=2028 + (i % 10),
                carriers=ALL_PLATFORMS,
            )
        )

    # ------------------------------------------------------------------
    # 87 deprecated roots with the Figure 4 removal-year distribution.
    # ------------------------------------------------------------------
    named_distrusted = {
        removal_year: (name, org, country, platform, reason)
        for (name, org, country, removal_year, platform, reason) in _NAMED_DISTRUSTED
    }
    named_admin = {year: (name, org, country) for (name, org, country, year) in _NAMED_ADMINISTRATIVE}

    synth_index = 0
    for removal_year, count in _REMOVAL_YEAR_COUNTS:
        for slot in range(count):
            distrust: DistrustEvent | None = None
            reason = RemovalReason.ADMINISTRATIVE
            if slot == 0 and removal_year in named_distrusted:
                name, org, country, platform, why = named_distrusted[removal_year]
                distrust = DistrustEvent(year=removal_year, platform=platform, reason=why)
                reason = RemovalReason.DISTRUSTED
            elif slot == 1 and removal_year in named_admin:
                name, org, country = named_admin[removal_year]
            else:
                name, org, country = _synthetic_name("Legacy", synth_index)
                synth_index += 1
            carriers = {"Android", "Ubuntu", "Mozilla"}
            if removal_year >= 2018:
                carriers.add("Microsoft")
            records.append(
                RootCARecord(
                    name=name,
                    organization=org,
                    country=country,
                    added_year=2008,
                    expiry_year=2022 + ((removal_year + slot) % 8),
                    carriers=frozenset(carriers),
                    removal_year=removal_year,
                    removal_reason=reason,
                    distrust=distrust,
                )
            )

    # ------------------------------------------------------------------
    # Distractors exercising the derivation's filters.
    # ------------------------------------------------------------------
    # (a) Removed *and* already expired at probe time -> filtered out.
    for i in range(12):
        name, org, country = _synthetic_name("Expired", i)
        records.append(
            RootCARecord(
                name=name,
                organization=org,
                country=country,
                added_year=2008,
                expiry_year=2019 + (i % 2),  # expires before the 2021 probe
                carriers=frozenset({"Android", "Ubuntu", "Mozilla"}),
                removal_year=2015 + (i % 4),
                removal_reason=RemovalReason.ADMINISTRATIVE,
            )
        )
    # (b) Removed but re-added by the latest version -> excluded from the
    #     deprecated set; not a Microsoft carrier so it cannot slip into
    #     the common (all-platform) intersection either.
    for i in range(4):
        name, org, country = _synthetic_name("Restored", i)
        records.append(
            RootCARecord(
                name=name,
                organization=org,
                country=country,
                added_year=2008,
                expiry_year=2030,
                carriers=frozenset({"Android", "Ubuntu", "Mozilla"}),
                removal_year=2016,
                removal_reason=RemovalReason.ADMINISTRATIVE,
                readded_year=2018,
            )
        )
    # (c) Added after the earliest snapshot (Mozilla's is 2013), then
    #     removed: the paper's earliest-version baseline cannot see these.
    for i in range(6):
        name, org, country = _synthetic_name("LateCycle", i)
        records.append(
            RootCARecord(
                name=name,
                organization=org,
                country=country,
                added_year=2015,
                expiry_year=2030,
                carriers=frozenset({"Mozilla"}),
                removal_year=2019,
                removal_reason=RemovalReason.ADMINISTRATIVE,
            )
        )
    return records


@lru_cache(maxsize=1)
def build_default_universe(probe_year: float = PROBE_YEAR) -> RootStoreUniverse:
    """Build (once) the default universe used across the library."""
    records = _build_records()
    by_name = {record.name: record for record in records}
    if len(by_name) != len(records):
        raise RuntimeError("duplicate root-CA names in universe construction")
    histories = {
        platform: build_history(
            platform,
            records,
            version_count=version_count,
            earliest_year=earliest,
            latest_year=latest,
        )
        for platform, version_count, earliest, latest in PLATFORM_SPECS
    }
    return RootStoreUniverse(records=by_name, histories=histories, probe_year=probe_year)
