"""Construction of per-device root stores from the CA universe.

Each device's ground-truth store is built deterministically from its
:class:`~repro.devices.profile.StoreProfile`:

* a fixed set of *anchor* CAs -- common roots that every device carries
  because the testbed's cloud servers chain to them (otherwise devices
  could not establish any legitimate connection),
* a seeded sample of the remaining common roots up to ``common_count``,
* pinned deprecated roots (``force_deprecated``, e.g. the distrusted CAs
  the paper names) plus a seeded, recency-weighted sample of further
  deprecated roots up to ``deprecated_count``.

The recency weighting models the paper's Figure 4 observation: most
retained stale roots were removed in 2018/2019 (near the devices'
manufacture date), with poorly-maintained devices (LG TV) reaching back
to 2013.
"""

from __future__ import annotations

import random

from ..pki.store import RootStore
from ..roothistory.records import RootCARecord
from ..roothistory.universe import RootStoreUniverse
from .profile import StoreProfile

__all__ = ["ANCHOR_COUNT", "anchor_records", "build_device_store"]

#: The first N common roots (sorted by name) anchor all testbed servers.
ANCHOR_COUNT = 8


def anchor_records(universe: RootStoreUniverse) -> tuple[RootCARecord, ...]:
    """The designated anchor CAs every device store must contain."""
    return universe.common_records()[:ANCHOR_COUNT]


def build_device_store(
    device_name: str, profile: StoreProfile, universe: RootStoreUniverse
) -> RootStore:
    """Materialise the ground-truth root store for one device."""
    rng = random.Random(f"store:{device_name}")
    store = RootStore(label=f"{device_name} root store")

    commons = universe.common_records()
    anchors = commons[:ANCHOR_COUNT]
    others = commons[ANCHOR_COUNT:]
    common_count = min(max(profile.common_count, ANCHOR_COUNT), len(commons))
    chosen_common = [*anchors, *rng.sample(others, common_count - len(anchors))]
    for record in chosen_common:
        store.add(record.certificate)

    deprecated = universe.deprecated_records()
    by_name = {record.name: record for record in deprecated}
    forced: list[RootCARecord] = []
    for name in profile.force_deprecated:
        if name not in by_name:
            raise KeyError(f"{device_name}: forced deprecated root {name!r} not in universe")
        forced.append(by_name[name])

    forced_names = set(profile.force_deprecated)
    remaining = [record for record in deprecated if record.name not in forced_names]
    target = min(profile.deprecated_count, len(deprecated))
    fill_count = max(0, target - len(forced))
    chosen_deprecated = forced + _weighted_sample(rng, remaining, fill_count, profile.recency_bias)
    for record in chosen_deprecated:
        store.add(record.certificate)

    return store


def _weighted_sample(
    rng: random.Random,
    records: list[RootCARecord],
    count: int,
    recency_bias: float,
) -> list[RootCARecord]:
    """Sample ``count`` records without replacement, weighting recent
    removal years by ``(year - 2012) ** recency_bias``."""
    if count >= len(records):
        return list(records)
    pool = list(records)
    weights = [max((record.removal_year or 2020) - 2012, 1) ** recency_bias for record in pool]
    chosen: list[RootCARecord] = []
    for _ in range(count):
        pick = rng.random() * sum(weights)
        cumulative = 0.0
        for index, weight in enumerate(weights):
            cumulative += weight
            if pick <= cumulative:
                chosen.append(pool.pop(index))
                weights.pop(index)
                break
    return chosen
