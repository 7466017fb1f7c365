"""Trusted root stores.

A root store is the set of CA certificates a TLS client trusts.  The
paper's central observation is that IoT root stores are poorly maintained:
they keep *deprecated-yet-unexpired* roots, including explicitly
distrusted CAs (TurkTrust, CNNIC, WoSign, Certinomis).  This module
provides the store container used by both device models and the platform
history substrate (:mod:`repro.roothistory`).

Lookups are by *subject name* first -- that ordering is what creates the
alert side channel: a client that finds a name match but a signature
mismatch reports a different error (``decrypt_error`` / ``bad_certificate``)
than one that finds no name at all (``unknown_ca``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from datetime import datetime
from typing import Iterable, Iterator

from .certificate import Certificate
from .name import DistinguishedName

__all__ = ["RootStore"]

_STORE_SERIALS = itertools.count(1)


@dataclass
class RootStore:
    """A mutable set of trusted root certificates.

    ``label`` names the owning platform or device (for reports).
    ``serial`` is unique to this store within the process and
    ``revision`` counts the changes made to it, so ``(serial,
    revision)`` names the store's current contents without hashing
    them (the handshake memo keys on it).
    """

    label: str = "unnamed"
    _by_subject: dict[tuple[str, str, str, str], list[Certificate]] = field(default_factory=dict)
    serial: int = field(
        default_factory=lambda: next(_STORE_SERIALS), init=False, repr=False, compare=False
    )
    revision: int = field(default=0, init=False, repr=False, compare=False)

    def __setstate__(self, state: dict) -> None:
        # An unpickled store is a new store in this process.
        self.__dict__.update(state)
        self.serial = next(_STORE_SERIALS)

    @classmethod
    def from_certificates(cls, label: str, certificates: Iterable[Certificate]) -> "RootStore":
        store = cls(label=label)
        for certificate in certificates:
            store.add(certificate)
        return store

    def add(self, certificate: Certificate) -> None:
        """Add a trusted root.  Idempotent for identical certificates."""
        key = certificate.subject.normalized_key()
        bucket = self._by_subject.setdefault(key, [])
        if certificate not in bucket:
            bucket.append(certificate)
            self.revision += 1

    def remove(self, certificate: Certificate) -> bool:
        """Remove a root; returns True when it was present."""
        key = certificate.subject.normalized_key()
        bucket = self._by_subject.get(key, [])
        if certificate in bucket:
            bucket.remove(certificate)
            if not bucket:
                del self._by_subject[key]
            self.revision += 1
            return True
        return False

    def remove_by_name(self, name: DistinguishedName) -> int:
        """Remove all roots with the given subject; returns count removed."""
        bucket = self._by_subject.pop(name.normalized_key(), [])
        if bucket:
            self.revision += 1
        return len(bucket)

    def find_by_subject(self, name: DistinguishedName) -> list[Certificate]:
        """All trusted roots whose subject matches ``name``."""
        return list(self._by_subject.get(name.normalized_key(), []))

    def contains_name(self, name: DistinguishedName) -> bool:
        """Whether any trusted root carries this subject name."""
        return name.normalized_key() in self._by_subject

    def contains(self, certificate: Certificate) -> bool:
        """Exact-certificate membership (same name *and* same key/signature)."""
        return certificate in self._by_subject.get(certificate.subject.normalized_key(), [])

    def certificates(self) -> list[Certificate]:
        """All roots, in insertion order per subject bucket."""
        return [cert for bucket in self._by_subject.values() for cert in bucket]

    def unexpired_at(self, when: datetime) -> list[Certificate]:
        """Roots whose validity window covers ``when``."""
        return [cert for cert in self.certificates() if cert.is_valid_at(when)]

    def copy(self, label: str | None = None) -> "RootStore":
        """Shallow copy (certificates are immutable, so this is safe)."""
        return RootStore.from_certificates(label or self.label, self.certificates())

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._by_subject.values())

    def __iter__(self) -> Iterator[Certificate]:
        return iter(self.certificates())

    def __contains__(self, certificate: object) -> bool:
        return isinstance(certificate, Certificate) and self.contains(certificate)
