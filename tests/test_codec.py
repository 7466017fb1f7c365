"""Tests for the binary TLS wire codec and pcap export."""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.export import record_from_dict
from repro.devices.configs import FS_MODERN, RSA_PLAIN, TLS13, WEAK_LEGACY
from repro.fingerprint import fingerprint
from repro.tls import (
    Alert,
    AlertDescription,
    ClientHello,
    NamedGroup,
    ProtocolVersion,
    ServerHello,
    SignatureScheme,
    alpn_ext,
    ec_point_formats_ext,
    signature_algorithms_ext,
    sni,
    status_request,
    supported_groups_ext,
    supported_versions_ext,
)
from repro.tls.codec import (
    CodecError,
    HelloWireCache,
    decode_alert,
    decode_client_hello,
    decode_server_hello,
    encode_alert,
    encode_client_hello,
    encode_server_hello,
)

FULL_EXTENSIONS = (
    sni("device.example.com"),
    status_request(),
    supported_groups_ext((NamedGroup.X25519, NamedGroup.SECP256R1)),
    ec_point_formats_ext(),
    signature_algorithms_ext((SignatureScheme.RSA_PKCS1_SHA256,)),
    alpn_ext(("h2", "http/1.1")),
)

CIPHER_LISTS = st.lists(
    st.sampled_from(sorted(FS_MODERN + RSA_PLAIN + WEAK_LEGACY)),
    min_size=1,
    max_size=20,
    unique=True,
)
LEGACY_VERSIONS = st.sampled_from(
    [ProtocolVersion.TLS_1_0, ProtocolVersion.TLS_1_1, ProtocolVersion.TLS_1_2]
)
HOSTNAMES = st.from_regex(r"[a-z]{1,10}\.[a-z]{2,8}\.com", fullmatch=True)


@st.composite
def hellos(draw) -> ClientHello:
    """A ClientHello over the codec's real extension encodings."""
    extensions = [sni(draw(HOSTNAMES))]
    extensions += draw(st.lists(st.sampled_from(FULL_EXTENSIONS[1:]), unique=True))
    if draw(st.booleans()):
        extensions.append(
            supported_versions_ext(
                (ProtocolVersion.TLS_1_3.wire, ProtocolVersion.TLS_1_2.wire)
            )
        )
    return ClientHello(
        legacy_version=draw(LEGACY_VERSIONS),
        cipher_codes=tuple(draw(CIPHER_LISTS)) + (TLS13 if draw(st.booleans()) else ()),
        extensions=tuple(extensions),
    )


SEEDS = st.text(max_size=40)


class TestClientHelloRoundtrip:
    def test_full_roundtrip(self):
        hello = ClientHello(
            legacy_version=ProtocolVersion.TLS_1_2,
            cipher_codes=FS_MODERN + RSA_PLAIN + WEAK_LEGACY,
            extensions=FULL_EXTENSIONS,
        )
        decoded = decode_client_hello(encode_client_hello(hello))
        assert decoded == hello

    def test_supported_versions_roundtrip(self):
        hello = ClientHello(
            legacy_version=ProtocolVersion.TLS_1_2,
            cipher_codes=TLS13 + FS_MODERN,
            extensions=(
                supported_versions_ext(
                    (ProtocolVersion.TLS_1_3.wire, ProtocolVersion.TLS_1_2.wire)
                ),
            ),
        )
        decoded = decode_client_hello(encode_client_hello(hello))
        assert decoded.max_version is ProtocolVersion.TLS_1_3

    def test_fingerprint_survives_the_wire(self):
        """JA3 from decoded bytes == JA3 from the in-memory hello."""
        hello = ClientHello(
            legacy_version=ProtocolVersion.TLS_1_2,
            cipher_codes=FS_MODERN + RSA_PLAIN,
            extensions=FULL_EXTENSIONS,
        )
        decoded = decode_client_hello(encode_client_hello(hello))
        assert fingerprint(decoded) == fingerprint(hello)

    def test_encoding_is_deterministic_per_seed(self):
        hello = ClientHello(legacy_version=ProtocolVersion.TLS_1_2, cipher_codes=RSA_PLAIN)
        assert encode_client_hello(hello, seed="a") == encode_client_hello(hello, seed="a")
        assert encode_client_hello(hello, seed="a") != encode_client_hello(hello, seed="b")

    @given(ciphers=CIPHER_LISTS, version=LEGACY_VERSIONS, hostname=HOSTNAMES)
    @settings(max_examples=60)
    def test_property_roundtrip(self, ciphers, version, hostname):
        hello = ClientHello(
            legacy_version=version,
            cipher_codes=tuple(ciphers),
            extensions=(sni(hostname), ec_point_formats_ext()),
        )
        assert decode_client_hello(encode_client_hello(hello)) == hello

    def test_device_hellos_roundtrip(self, testbed):
        """Every catalog device's real boot hello survives the wire."""
        from repro.devices import active_devices

        for profile in active_devices()[:8]:
            device = testbed.device(profile)
            for connection in device.boot(lambda d: testbed.server_for(d)):
                hello = connection.attempt.attempts[0].client_hello
                assert decode_client_hello(encode_client_hello(hello)) == hello
            break  # one full device is plenty per run


class TestHelloWireCache:
    """The per-artifact memo is the codec, byte for byte and hello for hello."""

    @given(hello=hellos(), seeds=st.lists(SEEDS, min_size=1, max_size=6))
    @settings(max_examples=60)
    def test_template_splice_matches_encoder(self, hello, seeds):
        cache = HelloWireCache()
        for seed in seeds:
            wire = encode_client_hello(hello, seed=seed)
            assert cache.encode(hello, seed=seed) == wire
            assert cache.encode_hex(hello, seed=seed) == wire.hex()

    @given(hello=hellos(), seeds=st.lists(SEEDS, min_size=1, max_size=6))
    @settings(max_examples=60)
    def test_cached_decode_matches_decoder(self, hello, seeds):
        cache = HelloWireCache()
        for seed in seeds:
            wire = encode_client_hello(hello, seed=seed)
            assert cache.decode(wire) == decode_client_hello(wire) == hello

    @given(hello=hellos(), first=SEEDS, second=SEEDS)
    @settings(max_examples=40)
    def test_wires_differing_only_in_random_share_one_entry(self, hello, first, second):
        one = encode_client_hello(hello, seed=first)
        other = encode_client_hello(hello, seed=second)
        assert one[:11] == other[:11] and one[43:] == other[43:]
        cache = HelloWireCache()
        assert cache.decode(one) is cache.decode(other)

    @given(hello=hellos(), seed=SEEDS, data=st.data())
    @settings(max_examples=40)
    def test_bad_hex_still_raises_on_a_warm_cache(self, hello, seed, data):
        wire_hex = encode_client_hello(hello, seed=seed).hex()
        cache = HelloWireCache()
        valid = {**_RECORD_FIELDS, "client_hello_hex": wire_hex}
        assert record_from_dict(valid, cache).client_hello == hello
        # Inside the random (hex chars [22, 86)) or anywhere else.
        at = data.draw(
            st.one_of(st.integers(22, 85), st.integers(0, len(wire_hex) - 1))
        )
        broken = data.draw(
            st.sampled_from(
                [
                    wire_hex[:at] + "zz" + wire_hex[at + 2 :],  # non-hex digits
                    wire_hex[:at] + wire_hex[at + 1 :],  # odd length
                ]
            )
        )
        with pytest.raises(ValueError):
            record_from_dict({**valid, "client_hello_hex": broken}, cache)

    @given(hello=hellos(), seed=SEEDS, length=st.integers(0, 42))
    @settings(max_examples=40)
    def test_short_wire_raises_codec_error_on_a_warm_cache(self, hello, seed, length):
        wire = encode_client_hello(hello, seed=seed)
        cache = HelloWireCache()
        cache.decode(wire)
        with pytest.raises(CodecError):
            cache.decode(wire[:length])


#: Every non-hello field of an exported record, for decode tests.
_RECORD_FIELDS = {
    "device": "Wink Hub 2",
    "hostname": "hub.example.com",
    "party": "first",
    "month": 3,
    "timestamp": "2018-04-01T00:00:00",
    "established": True,
    "established_version": "TLS 1.2",
    "established_cipher": "0x2f",
    "client_alert": None,
    "downgraded": False,
    "count": 1,
}


class TestServerHelloAndAlert:
    def test_server_hello_roundtrip(self):
        hello = ServerHello(version=ProtocolVersion.TLS_1_2, cipher_code=FS_MODERN[0])
        assert decode_server_hello(encode_server_hello(hello)) == hello

    def test_alert_roundtrip(self):
        alert = Alert.fatal(AlertDescription.UNKNOWN_CA)
        assert decode_alert(encode_alert(alert)) == alert

    def test_alert_for_every_description(self):
        for description in AlertDescription:
            alert = Alert.fatal(description)
            assert decode_alert(encode_alert(alert)) == alert


class TestMalformedInput:
    def test_truncated_record(self):
        hello = ClientHello(legacy_version=ProtocolVersion.TLS_1_2, cipher_codes=RSA_PLAIN)
        wire = encode_client_hello(hello)
        with pytest.raises(CodecError):
            decode_client_hello(wire[: len(wire) // 2])

    def test_wrong_content_type(self):
        alert_wire = encode_alert(Alert.fatal(AlertDescription.CLOSE_NOTIFY))
        with pytest.raises(CodecError):
            decode_client_hello(alert_wire)

    def test_server_hello_is_not_client_hello(self):
        wire = encode_server_hello(
            ServerHello(version=ProtocolVersion.TLS_1_2, cipher_code=RSA_PLAIN[0])
        )
        with pytest.raises(CodecError):
            decode_client_hello(wire)

    def test_odd_cipher_vector_rejected(self):
        hello = ClientHello(legacy_version=ProtocolVersion.TLS_1_2, cipher_codes=RSA_PLAIN)
        wire = bytearray(encode_client_hello(hello))
        # Corrupt the cipher-suite vector length to an odd value: the
        # length field sits after record(5)+hs(4)+version(2)+random(32)+sid(1).
        offset = 5 + 4 + 2 + 32 + 1
        length = struct.unpack("!H", wire[offset : offset + 2])[0]
        wire[offset : offset + 2] = struct.pack("!H", length - 1)
        with pytest.raises(CodecError):
            decode_client_hello(bytes(wire))

    def test_unknown_alert_code(self):
        wire = bytearray(encode_alert(Alert.fatal(AlertDescription.CLOSE_NOTIFY)))
        wire[-1] = 213  # unassigned description
        with pytest.raises(CodecError):
            decode_alert(bytes(wire))

    def test_empty_input(self):
        with pytest.raises(CodecError):
            decode_client_hello(b"")


class TestPcapExport:
    def test_pcap_structure(self, passive_capture, tmp_path):
        from repro.testbed.pcap import PCAP_MAGIC, write_pcap

        path = write_pcap(passive_capture, tmp_path / "trace.pcap", limit=25)
        data = path.read_bytes()
        magic, vmaj, vmin = struct.unpack("!IHH", data[:8])
        assert magic == PCAP_MAGIC and (vmaj, vmin) == (2, 4)

        # Walk the packet records; every payload must decode as TLS.
        offset = 24
        packets = 0
        while offset < len(data):
            _ts, _us, caplen, origlen = struct.unpack("!IIII", data[offset : offset + 16])
            assert caplen == origlen
            packet = data[offset + 16 : offset + 16 + caplen]
            assert packet[12:14] == b"\x08\x00"  # IPv4 ethertype
            tls_payload = packet[14 + 20 + 20 :]
            decoded = decode_client_hello(tls_payload)
            assert decoded.cipher_codes
            offset += 16 + caplen
            packets += 1
        assert packets == 25

    def test_pcap_full_capture(self, tmp_path, testbed):
        from repro.longitudinal import PassiveTraceGenerator
        from repro.testbed.pcap import write_pcap

        capture = PassiveTraceGenerator(testbed, scale=1).generate()
        path = write_pcap(capture, tmp_path / "full.pcap")
        assert path.stat().st_size > 24 + len(capture) * 16
