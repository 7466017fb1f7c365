"""Unit tests for certificates, builders, and certificate authorities."""

from __future__ import annotations

from dataclasses import fields, replace

import pytest

from repro.pki import (
    BasicConstraints,
    Certificate,
    CertificateAuthority,
    CertificateBuilder,
    DistinguishedName,
    generate_keypair,
    utc,
)
from repro.pki.simcrypto import Signature


class TestCertificateAuthority:
    def test_root_is_self_signed_ca(self, simple_ca):
        root = simple_ca.certificate
        assert root.is_self_signed
        assert root.basic_constraints.ca
        assert root.verify_signature(simple_ca.keypair.public)

    def test_issue_leaf_carries_hostname_san(self, simple_ca):
        leaf, keypair = simple_ca.issue_leaf("api.example.com")
        assert "api.example.com" in leaf.subject_alt_names
        assert leaf.issuer.matches(simple_ca.name)
        assert not leaf.basic_constraints.ca
        assert leaf.verify_signature(simple_ca.keypair.public)
        assert leaf.public_key == keypair.public

    def test_issue_leaf_extra_names(self, simple_ca):
        leaf, _ = simple_ca.issue_leaf("a.example.com", extra_names=("b.example.com",))
        assert set(leaf.subject_alt_names) == {"a.example.com", "b.example.com"}

    def test_intermediate_chains_to_parent(self, simple_ca):
        intermediate = simple_ca.issue_intermediate(
            DistinguishedName(common_name="Intermediate CA")
        )
        assert intermediate.certificate.basic_constraints.ca
        assert intermediate.certificate.verify_signature(simple_ca.keypair.public)
        assert not intermediate.certificate.is_self_signed

    def test_self_signed_leaf_is_not_ca(self):
        cert, keypair = CertificateAuthority.self_signed_leaf("victim.example.com")
        assert cert.is_self_signed
        assert not cert.basic_constraints.ca
        assert cert.verify_signature(keypair.public)


class TestCertificateBuilder:
    def test_requires_subject_and_key(self):
        key = generate_keypair(seed=b"builder")
        with pytest.raises(ValueError):
            CertificateBuilder(public_key=key.public).sign(key.private)
        with pytest.raises(ValueError):
            CertificateBuilder(subject=DistinguishedName(common_name="X")).sign(key.private)

    def test_serials_are_unique(self):
        key = generate_keypair(seed=b"serial")
        certs = [
            CertificateBuilder(
                subject=DistinguishedName(common_name=f"c{i}"), public_key=key.public
            ).sign(key.private)
            for i in range(5)
        ]
        assert len({c.serial for c in certs}) == 5

    def test_spoof_copies_identity_not_key(self, simple_ca):
        attacker = generate_keypair(seed=b"spoofer")
        spoofed = CertificateBuilder.spoof_from(simple_ca.certificate, attacker.public).sign(
            attacker.private
        )
        original = simple_ca.certificate
        assert spoofed.subject.matches(original.subject)
        assert spoofed.serial == original.serial
        assert spoofed.not_after == original.not_after
        # Key differs, so the trusted root's key does NOT verify it...
        assert not spoofed.verify_signature(simple_ca.keypair.public)
        # ...but the attacker's key does (it is internally consistent).
        assert spoofed.verify_signature(attacker.public)

    def test_tampering_invalidates_signature(self, simple_ca):
        from dataclasses import replace

        leaf, _ = simple_ca.issue_leaf("api.example.com")
        tampered = replace(leaf, subject_alt_names=("evil.example.com",))
        assert not tampered.verify_signature(simple_ca.keypair.public)


class TestSignCaches:
    """``sign`` builds one certificate and keeps its TBS encoding."""

    def test_sign_equals_the_two_step_path(self, simple_ca):
        builder = CertificateBuilder(
            subject=DistinguishedName(common_name="two-step.example.com"),
            issuer=simple_ca.name,
            serial=4242,
            public_key=generate_keypair(seed=b"two-step").public,
            subject_alt_names=("two-step.example.com",),
            ocsp_responder_url="http://ocsp.example",
        )
        signed = builder.sign(simple_ca.keypair.private)
        # The path ``sign`` replaces: an unsigned certificate, then a copy
        # of it carrying the signature over the unsigned one's TBS bytes.
        unsigned = Certificate(
            **{field.name: getattr(signed, field.name) for field in fields(Certificate)}
            | {"signature": Signature(key_id="", tag="")}
        )
        signature = simple_ca.keypair.private.sign(unsigned.tbs_bytes())
        two_step = replace(unsigned, signature=signature)
        assert signed.tbs_bytes() == two_step.tbs_bytes() == replace(signed).tbs_bytes()
        assert signed.signature == two_step.signature
        assert signed == two_step and hash(signed) == hash(two_step)
        assert signed.verify_signature(simple_ca.keypair.public)

    def test_replace_recomputes_the_tbs_bytes(self, simple_ca):
        leaf, _ = simple_ca.issue_leaf("stale.example.com")
        cached = leaf.tbs_bytes()
        moved = replace(leaf, serial=leaf.serial + 1)
        assert moved.tbs_bytes() != cached
        assert str(leaf.serial + 1).encode() in moved.tbs_bytes().split(b"\x1f")
        assert not moved.verify_signature(simple_ca.keypair.public)
        assert leaf.verify_signature(simple_ca.keypair.public)

    def test_builder_defaults_are_shared_constants(self):
        key = generate_keypair(seed=b"defaults")
        first, second = (
            CertificateBuilder(subject=DistinguishedName(common_name=name), public_key=key.public)
            for name in ("a", "b")
        )
        assert first.not_before == utc(2018) and first.not_after == utc(2030)
        assert first.basic_constraints == BasicConstraints(ca=False)
        assert first.key_usage is second.key_usage


class TestValidityWindow:
    def test_window_is_inclusive(self, simple_ca):
        leaf, _ = simple_ca.issue_leaf(
            "x.example.com", not_before=utc(2020), not_after=utc(2022)
        )
        assert leaf.is_valid_at(utc(2020))
        assert leaf.is_valid_at(utc(2022))
        assert leaf.is_valid_at(utc(2021, 6))
        assert not leaf.is_valid_at(utc(2019, 12, 31))
        assert not leaf.is_valid_at(utc(2022, 1, 2))

    def test_summary_mentions_kind(self, simple_ca):
        assert "CA cert" in simple_ca.certificate.summary()
        leaf, _ = simple_ca.issue_leaf("y.example.com")
        assert "leaf cert" in leaf.summary()


def test_basic_constraints_defaults():
    assert BasicConstraints(ca=True).path_len is None
