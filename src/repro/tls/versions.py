"""TLS/SSL protocol versions.

Versions carry their on-the-wire ``(major, minor)`` codes and a security
classification matching the paper's framing: everything below TLS 1.2 is
*deprecated* (major browsers removed support by 2020), and Figure 1 bins
connections into exactly three bands -- TLS 1.3, TLS 1.2, and "older".
"""

from __future__ import annotations

from enum import Enum

__all__ = [
    "ProtocolVersion",
    "VersionBand",
    "DEPRECATED_VERSIONS",
    "MODERN_VERSIONS",
    "versions_between",
]


class ProtocolVersion(Enum):
    """SSL/TLS protocol versions with wire codes and release years."""

    SSL_2_0 = ("SSL 2.0", (2, 0), 1995)
    SSL_3_0 = ("SSL 3.0", (3, 0), 1996)
    TLS_1_0 = ("TLS 1.0", (3, 1), 1999)
    TLS_1_1 = ("TLS 1.1", (3, 2), 2006)
    TLS_1_2 = ("TLS 1.2", (3, 3), 2008)
    TLS_1_3 = ("TLS 1.3", (3, 4), 2018)

    def __init__(self, label: str, wire: tuple[int, int], year: int) -> None:
        self.label = label
        self.wire = wire
        self.release_year = year

    @property
    def is_deprecated(self) -> bool:
        """Versions below TLS 1.2 are deprecated (POODLE, BEAST, ...)."""
        return self.wire < ProtocolVersion.TLS_1_2.wire

    @property
    def band(self) -> "VersionBand":
        """The Figure 1 row band this version falls into."""
        if self is ProtocolVersion.TLS_1_3:
            return VersionBand.TLS_1_3
        if self is ProtocolVersion.TLS_1_2:
            return VersionBand.TLS_1_2
        return VersionBand.OLDER

    # Explicit rich comparisons (not ``functools.total_ordering``): the
    # handshake hot path compares versions millions of times per run,
    # and the derived operators add a wrapper call per comparison.
    def __lt__(self, other: object) -> bool:
        if not isinstance(other, ProtocolVersion):
            return NotImplemented
        return self.wire < other.wire

    def __le__(self, other: object) -> bool:
        if not isinstance(other, ProtocolVersion):
            return NotImplemented
        return self.wire <= other.wire

    def __gt__(self, other: object) -> bool:
        if not isinstance(other, ProtocolVersion):
            return NotImplemented
        return self.wire > other.wire

    def __ge__(self, other: object) -> bool:
        if not isinstance(other, ProtocolVersion):
            return NotImplemented
        return self.wire >= other.wire

    @classmethod
    def from_wire(cls, wire: tuple[int, int]) -> "ProtocolVersion":
        for version in cls:
            if version.wire == wire:
                return version
        raise ValueError(f"unknown protocol version wire code {wire!r}")

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.label


class VersionBand(Enum):
    """The three per-device rows of Figure 1."""

    TLS_1_3 = "1.3"
    TLS_1_2 = "1.2"
    OLDER = "older"


DEPRECATED_VERSIONS = frozenset(v for v in ProtocolVersion if v.is_deprecated)
MODERN_VERSIONS = frozenset(v for v in ProtocolVersion if not v.is_deprecated)


#: Every version, lowest first.
_ASCENDING = tuple(sorted(ProtocolVersion, key=lambda version: version.wire))
_RANK = {version: rank for rank, version in enumerate(_ASCENDING)}
#: ``_SPANS[low][high]``: the versions from ``low`` to ``high`` inclusive.
_SPANS = tuple(
    tuple(frozenset(_ASCENDING[low : high + 1]) for high in range(len(_ASCENDING)))
    for low in range(len(_ASCENDING))
)


def versions_between(low: ProtocolVersion, high: ProtocolVersion) -> frozenset[ProtocolVersion]:
    """Every version from ``low`` to ``high`` inclusive (empty when ``low > high``).

    A table lookup, because negotiation and the client's version check
    ask it on every handshake.
    """
    return _SPANS[_RANK[low]][_RANK[high]]
