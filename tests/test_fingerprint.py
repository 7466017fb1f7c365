"""Tests for JA3 fingerprinting, the labelled database, and Fig 5."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.devices.configs import FS_MODERN, RSA_PLAIN
from repro.fingerprint import (
    DATABASE_SIZE,
    build_reference_database,
    build_shared_graph,
    collect_device_fingerprints,
    fingerprint,
    ja3_string,
)
from repro.tls import (
    ClientHello,
    NamedGroup,
    ProtocolVersion,
    ec_point_formats_ext,
    sni,
    supported_groups_ext,
)


def _hello(ciphers=FS_MODERN, extensions=()):
    return ClientHello(
        legacy_version=ProtocolVersion.TLS_1_2, cipher_codes=ciphers, extensions=extensions
    )


class TestJA3:
    def test_string_fields(self):
        hello = _hello(
            extensions=(
                sni("h.example.com"),
                supported_groups_ext((NamedGroup.X25519,)),
                ec_point_formats_ext(),
            )
        )
        version, ciphers, extensions, groups, formats = ja3_string(hello).split(",")
        assert version == "771"  # TLS 1.2 = 0x0303
        assert ciphers == "-".join(str(c) for c in FS_MODERN)
        assert extensions == "0-10-11"
        assert groups == str(NamedGroup.X25519.value)
        assert formats == "0"

    def test_sni_value_does_not_affect_fingerprint(self):
        a = _hello(extensions=(sni("a.example.com"),))
        b = _hello(extensions=(sni("b.example.com"),))
        assert fingerprint(a) == fingerprint(b)

    def test_grease_ignored(self):
        with_grease = _hello(ciphers=(0x1A1A,) + FS_MODERN)
        without = _hello()
        assert fingerprint(with_grease) == fingerprint(without)

    def test_grease_extension_types_ignored(self):
        """Regression: a GREASE-injecting client (RFC 8701) must produce
        the canonical fingerprint -- GREASE was stripped from the cipher
        and group lists but not from the extension-type list."""
        from repro.tls import Extension

        clean = _hello(
            extensions=(
                sni("h.example.com"),
                supported_groups_ext((NamedGroup.X25519,)),
                ec_point_formats_ext(),
            )
        )
        greased = _hello(
            ciphers=(0x2A2A,) + FS_MODERN,
            extensions=(
                Extension(0x0A0A),
                sni("h.example.com"),
                Extension(0x1A1A, (0x3A3A,)),
                supported_groups_ext((NamedGroup.X25519,)),
                ec_point_formats_ext(),
            ),
        )
        assert fingerprint(greased) == fingerprint(clean)
        assert ja3_string(greased) == ja3_string(clean)

    def test_cipher_order_matters(self):
        forward = _hello(ciphers=FS_MODERN)
        reversed_ = _hello(ciphers=tuple(reversed(FS_MODERN)))
        assert fingerprint(forward) != fingerprint(reversed_)

    def test_extension_presence_matters(self):
        from repro.tls import status_request

        assert fingerprint(_hello(extensions=(status_request(),))) != fingerprint(_hello())

    @given(st.permutations(list(RSA_PLAIN)))
    def test_property_fingerprint_deterministic(self, perm):
        a = _hello(ciphers=tuple(perm))
        b = _hello(ciphers=tuple(perm))
        assert fingerprint(a) == fingerprint(b)


class TestDatabase:
    def test_published_size(self):
        assert len(build_reference_database()) == DATABASE_SIZE

    def test_reference_labels_present(self):
        labels = build_reference_database().labels()
        for expected in ("openssl", "curl", "android-sdk", "apple-securetransport"):
            assert expected in labels

    def test_openssl_label_covers_multiple_shapes(self):
        db = build_reference_database()
        openssl_fps = [fp for fp, labels in db.entries.items() if "openssl" in labels]
        assert len(openssl_fps) >= 4

    def test_labels_for_unknown_digest_empty(self):
        assert build_reference_database().labels_for("0" * 32) == set()


@pytest.fixture(scope="module")
def collected(testbed):
    return collect_device_fingerprints(testbed)


@pytest.fixture(scope="module")
def graph(collected):
    return build_shared_graph(collected, build_reference_database())


class TestCollection:
    def test_covers_all_active_devices(self, collected):
        assert len(collected) == 32

    def test_fourteen_multi_instance_devices(self, collected):
        assert sum(1 for c in collected if c.multiple_instances) == 14

    def test_eighteen_single_instance_devices(self, collected):
        assert sum(1 for c in collected if not c.multiple_instances) == 18

    def test_collection_is_stable_across_reboots(self, testbed, collected):
        again = collect_device_fingerprints(testbed)
        assert {c.device: c.distinct for c in again} == {
            c.device: c.distinct for c in collected
        }


class TestFig5Graph:
    def test_nineteen_sharing_devices(self, graph):
        assert len(graph.sharing_devices()) == 19

    def test_openssl_matching_devices(self, graph):
        assert graph.devices_sharing_with_application("openssl") == {
            "Zmodo Doorbell",
            "Amcrest Camera",
            "Wink Hub 2",
            "LG TV",
            "Harman Invoke",
            "Nest Thermostat",
        }

    def test_firetv_dominant_is_android_sdk(self, graph):
        assert graph.dominant_fingerprint_label("Fire TV") == {"android-sdk"}

    def test_amazon_cluster(self, graph):
        clusters = graph.device_clusters()
        amazon = next(c for c in clusters if "Fire TV" in c)
        assert amazon == {
            "Fire TV",
            "Amazon Echo Dot",
            "Amazon Echo Plus",
            "Amazon Echo Spot",
            "Amazon Echo Dot 3",
        }

    def test_manufacturer_pairs(self, graph):
        clusters = graph.device_clusters()
        assert {"Samsung Dryer", "Samsung Fridge"} in clusters
        assert {"Smartlife Bulb", "Smartlife Remote"} in clusters
        assert {"D-Link Camera", "GE Microwave"} in clusters

    def test_cluster_order_is_pinned(self, graph):
        """``report`` and ``iotls fingerprint`` print the clusters sorted
        by size, and ``sorted`` is stable, so the three 2-device clusters
        print in the order ``device_clusters`` returns them."""
        clusters = [sorted(cluster) for cluster in graph.device_clusters()]
        assert clusters == [
            [
                "Amcrest Camera",
                "Apple HomePod",
                "Apple TV",
                "Harman Invoke",
                "LG TV",
                "Nest Thermostat",
                "Wink Hub 2",
                "Zmodo Doorbell",
            ],
            ["D-Link Camera", "GE Microwave"],
            ["Smartlife Bulb", "Smartlife Remote"],
            [
                "Amazon Echo Dot",
                "Amazon Echo Dot 3",
                "Amazon Echo Plus",
                "Amazon Echo Spot",
                "Fire TV",
            ],
            ["Samsung Dryer", "Samsung Fridge"],
        ]

    def test_apple_devices_cluster_via_db_label(self, graph):
        apple = graph.devices_sharing_with_application("apple-securetransport")
        assert apple == {"Apple TV", "Apple HomePod"}

    def test_non_shared_fingerprints_removed(self, graph):
        for (kind, _), neighbors in graph.adjacency.items():
            if kind == "fingerprint":
                assert len(neighbors) >= 2
