"""X.509 distinguished names for the simulated PKI.

Only the attributes the paper's experiments depend on are modelled:
Common Name, Organization, Organizational Unit and Country.  Equality and
hashing follow RFC 5280 name-matching semantics closely enough for chain
building (case-insensitive, whitespace-normalised comparison of attribute
values), which is what matters for the root-store probing side channel:
a spoofed CA certificate matches a legitimate root by *name* while failing
signature validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

__all__ = ["DistinguishedName"]


@lru_cache(maxsize=4096)
def _norm(value: str) -> str:
    """RFC 5280 (simplified) caseIgnoreMatch: collapse whitespace, casefold.

    Cached: chain building normalises the same few hundred CA/server
    attribute strings tens of thousands of times per run.
    """
    return " ".join(value.split()).casefold()


@dataclass(frozen=True)
class DistinguishedName:
    """A simplified X.500 distinguished name.

    Instances are immutable and hashable so they can key root-store sets.
    Each caches its RFC 4514 rendering and normalised key on first use:
    chain building asks for them tens of thousands of times per run.
    Equality and hashing read the fields only, never the caches.
    """

    common_name: str
    organization: str = ""
    organizational_unit: str = ""
    country: str = ""

    def __post_init__(self) -> None:
        if not self.common_name:
            raise ValueError("DistinguishedName requires a non-empty common_name")

    def rfc4514(self) -> str:
        """Render in RFC 4514 string form, most-specific attribute first."""
        cached = self.__dict__.get("_rfc4514")
        if cached is None:
            parts = [f"CN={self.common_name}"]
            if self.organizational_unit:
                parts.append(f"OU={self.organizational_unit}")
            if self.organization:
                parts.append(f"O={self.organization}")
            if self.country:
                parts.append(f"C={self.country}")
            cached = ",".join(parts)
            object.__setattr__(self, "_rfc4514", cached)
        return cached

    def matches(self, other: "DistinguishedName") -> bool:
        """RFC 5280-style name comparison (case/whitespace-insensitive)."""
        return self.normalized_key() == other.normalized_key()

    def normalized_key(self) -> tuple[str, str, str, str]:
        """Hashable normalised form, used to index issuer lookup tables."""
        cached = self.__dict__.get("_normalized_key")
        if cached is None:
            cached = (
                _norm(self.common_name),
                _norm(self.organization),
                _norm(self.organizational_unit),
                _norm(self.country),
            )
            object.__setattr__(self, "_normalized_key", cached)
        return cached

    def __str__(self) -> str:  # pragma: no cover - convenience only
        return self.rfc4514()
