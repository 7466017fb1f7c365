"""Binary wire codec for the handshake messages the simulation models.

Encodes/decodes the on-the-wire formats of RFC 5246 / RFC 8446 for the
message subset the paper's tooling observes:

* TLS record layer (`content type | version | length | fragment`),
* ClientHello and ServerHello handshake messages, with real extension
  encodings for server_name (RFC 6066), supported_versions (RFC 8446),
  supported_groups, ec_point_formats, signature_algorithms and ALPN;
  other extension types carry empty opaque bodies,
* Alert records.

Uses:

* exporting captures as genuine packet bytes (:mod:`repro.testbed.pcap`),
* cross-validating the fingerprinting pipeline: a JA3 computed from the
  *decoded* bytes must equal one computed from the in-memory hello,
* exercising a parser against adversarial inputs in tests.

Randoms and session ids are deterministic functions of a caller-supplied
seed so encoded traffic is reproducible.
"""

from __future__ import annotations

import hashlib
import struct

from .alerts import Alert, AlertDescription, AlertLevel
from .extensions import Extension, ExtensionType
from .messages import ClientHello, ServerHello
from .versions import ProtocolVersion

__all__ = [
    "CodecError",
    "HelloWireCache",
    "encode_client_hello",
    "decode_client_hello",
    "encode_server_hello",
    "decode_server_hello",
    "encode_alert",
    "decode_alert",
]

_CONTENT_HANDSHAKE = 22
_CONTENT_ALERT = 21
_HANDSHAKE_CLIENT_HELLO = 1
_HANDSHAKE_SERVER_HELLO = 2
#: Where a ClientHello record carries its 32-byte random: after the
#: record header (5 bytes), the handshake header (4) and the legacy
#: version (2).  Its length is fixed, so no length field depends on it.
_RANDOM_START = 5 + 4 + 2
_RANDOM_END = _RANDOM_START + 32


class CodecError(ValueError):
    """Raised on malformed wire input."""


# ---------------------------------------------------------------------------
# Primitive helpers
# ---------------------------------------------------------------------------

def _u8(value: int) -> bytes:
    return struct.pack("!B", value)


def _u16(value: int) -> bytes:
    return struct.pack("!H", value)


def _vec(data: bytes, length_bytes: int) -> bytes:
    """``data`` behind its ``length_bytes``-byte big-endian length."""
    return len(data).to_bytes(length_bytes, "big") + data


class _Reader:
    """Bounds-checked cursor over wire bytes."""

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.offset = 0

    def take(self, count: int) -> bytes:
        if self.offset + count > len(self.data):
            raise CodecError(
                f"truncated input: wanted {count} bytes at offset {self.offset}, "
                f"have {len(self.data) - self.offset}"
            )
        chunk = self.data[self.offset : self.offset + count]
        self.offset += count
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack("!H", self.take(2))[0]

    def vector(self, length_bytes: int) -> bytes:
        """A vector behind its ``length_bytes``-byte big-endian length."""
        return self.take(int.from_bytes(self.take(length_bytes), "big"))

    def u16s(self) -> tuple[int, ...]:
        """The rest of the input as uint16s, in one ``struct`` call.  An
        odd last byte raises the truncation error a ``u16`` loop would."""
        count, odd = divmod(len(self.data) - self.offset, 2)
        items = struct.unpack_from(f"!{count}H", self.data, self.offset)
        self.offset += 2 * count
        if odd:
            self.take(2)
        return items

    @property
    def exhausted(self) -> bool:
        return self.offset >= len(self.data)


def _deterministic_random(seed: str) -> bytes:
    # surrogatepass: a lone surrogate in a device or host name (JSON can
    # carry one) must seed a random, not crash the writer.
    return hashlib.sha256(f"tls-random:{seed}".encode("utf-8", "surrogatepass")).digest()


# ---------------------------------------------------------------------------
# Extension bodies
# ---------------------------------------------------------------------------

def _u16s(values) -> bytes:
    """``b"".join(_u16(v) for v in values)`` in one ``struct`` call."""
    values = tuple(values)
    return struct.pack(f"!{len(values)}H", *values)


def _encode_extension(extension: Extension) -> bytes:
    ext_type = extension.extension_type
    if ext_type is ExtensionType.SERVER_NAME and extension.data:
        hostname = str(extension.data[0]).encode("ascii")
        entry = _u8(0) + _vec(hostname, 2)  # name_type=host_name
        body = _vec(entry, 2)
    elif ext_type is ExtensionType.SUPPORTED_VERSIONS:
        versions = b"".join(
            _u8(major) + _u8(minor) for major, minor in extension.data
        )
        body = _vec(versions, 1)
    elif ext_type in (ExtensionType.SUPPORTED_GROUPS, ExtensionType.SIGNATURE_ALGORITHMS):
        body = _vec(_u16s(map(int, extension.data)), 2)
    elif ext_type is ExtensionType.EC_POINT_FORMATS:
        body = _vec(b"".join(_u8(int(v)) for v in extension.data), 1)
    elif ext_type is ExtensionType.ALPN:
        protocols = b"".join(_vec(str(p).encode(), 1) for p in extension.data)
        body = _vec(protocols, 2)
    elif ext_type is ExtensionType.STATUS_REQUEST:
        # status_type=ocsp, empty responder list, empty request extensions
        body = _u8(1) + _u16(0) + _u16(0)
    else:
        body = b""
    return _u16(ext_type.value) + _vec(body, 2)


#: Wire code -> extension type, for :func:`_decode_extension`.
_EXTENSION_TYPES = {ext_type.value: ext_type for ext_type in ExtensionType}


def _decode_extension(ext_type_code: int, body: bytes) -> Extension:
    reader = _Reader(body)
    ext_type = _EXTENSION_TYPES.get(ext_type_code)
    if ext_type is None:
        raise CodecError(f"unknown extension type {ext_type_code}")

    if ext_type is ExtensionType.SERVER_NAME and body:
        entries = _Reader(reader.vector(2))
        entries.u8()  # name_type
        hostname = entries.vector(2).decode("ascii")
        return Extension(ext_type, (hostname,))
    if ext_type is ExtensionType.SUPPORTED_VERSIONS and body:
        versions_bytes = reader.vector(1)
        pairs = tuple(
            (versions_bytes[index], versions_bytes[index + 1])
            for index in range(0, len(versions_bytes), 2)
        )
        return Extension(ext_type, pairs)
    if ext_type in (ExtensionType.SUPPORTED_GROUPS, ExtensionType.SIGNATURE_ALGORITHMS) and body:
        return Extension(ext_type, _Reader(reader.vector(2)).u16s())
    if ext_type is ExtensionType.EC_POINT_FORMATS and body:
        return Extension(ext_type, tuple(reader.vector(1)))
    if ext_type is ExtensionType.ALPN and body:
        protocols_reader = _Reader(reader.vector(2))
        protocols = []
        while not protocols_reader.exhausted:
            protocols.append(protocols_reader.vector(1).decode("ascii"))
        return Extension(ext_type, tuple(protocols))
    if ext_type is ExtensionType.STATUS_REQUEST:
        return Extension(ext_type, ("ocsp",))
    return Extension(ext_type)


# ---------------------------------------------------------------------------
# ClientHello
# ---------------------------------------------------------------------------

def encode_client_hello(hello: ClientHello, *, seed: str = "client") -> bytes:
    """Serialise a ClientHello into a full TLS record."""
    major, minor = hello.legacy_version.wire
    body = bytes((major, minor))
    body += _deterministic_random(seed)
    body += _vec(b"", 1)  # empty session id
    body += _vec(_u16s(hello.cipher_codes), 2)
    body += _vec(bytes(hello.compression_methods), 1)
    extensions = b"".join(_encode_extension(ext) for ext in hello.extensions)
    body += _vec(extensions, 2)

    handshake = _u8(_HANDSHAKE_CLIENT_HELLO) + _vec(body, 3)
    return _u8(_CONTENT_HANDSHAKE) + bytes((major, minor)) + _vec(handshake, 2)


def decode_client_hello(wire: bytes) -> ClientHello:
    """Parse a TLS record containing a ClientHello."""
    record = _Reader(wire)
    content_type = record.u8()
    if content_type != _CONTENT_HANDSHAKE:
        raise CodecError(f"not a handshake record (content type {content_type})")
    record.take(2)  # record-layer version (may lag the hello's)
    fragment = _Reader(record.vector(2))

    if fragment.u8() != _HANDSHAKE_CLIENT_HELLO:
        raise CodecError("not a ClientHello")
    body = _Reader(fragment.vector(3))

    version = ProtocolVersion.from_wire((body.u8(), body.u8()))
    body.take(32)  # random
    body.vector(1)  # session id
    ciphers_bytes = body.vector(2)
    if len(ciphers_bytes) % 2:
        raise CodecError("odd cipher-suite vector length")
    cipher_codes = _Reader(ciphers_bytes).u16s()
    compression = tuple(body.vector(1))

    extensions = []
    ext_reader = _Reader(body.vector(2))
    while not ext_reader.exhausted:
        ext_type_code = ext_reader.u16()
        ext_body = ext_reader.vector(2)
        extensions.append(_decode_extension(ext_type_code, ext_body))

    return ClientHello(
        legacy_version=version,
        cipher_codes=cipher_codes,
        extensions=tuple(extensions),
        compression_methods=compression or (0,),
    )


class HelloWireCache:
    """Run the ClientHello codec once per distinct hello of one artifact.

    A trace repeats a few hundred hellos across thousands of records,
    and only the 32-byte random differs between their wires.

    * :meth:`encode` builds each hello's wire once, with the random cut
      out, and splices in the per-record random.  It keys on identity
      and holds a reference to the hello, so the id is never reused;
      an equal hello that is a different object just misses.
      :meth:`encode_hex` does the same on the wire's hex form, and
      :meth:`hex_pieces` returns that form cut around the random.
    * :meth:`decode` keys on the wire with the random cut out.  The
      parser reads the random as opaque bytes, so the decoded hello
      depends on the key alone; records share the frozen result.  Only
      successful decodes are cached, and a wire too short to hold a
      random goes straight to :func:`decode_client_hello`.

    One cache belongs to one artifact (a writer, a fold, an export
    call); nothing is global.
    """

    __slots__ = ("_templates", "_decoded")

    def __init__(self) -> None:
        self._templates: dict[int, tuple[ClientHello, bytes, bytes, str, str]] = {}
        self._decoded: dict[bytes, ClientHello] = {}

    def _template(self, hello: ClientHello) -> tuple[ClientHello, bytes, bytes, str, str]:
        """(hello, head, tail, head hex, tail hex): the wire around the random."""
        template = self._templates.get(id(hello))
        if template is None:
            wire = encode_client_hello(hello)
            head, tail = wire[:_RANDOM_START], wire[_RANDOM_END:]
            template = (hello, head, tail, head.hex(), tail.hex())
            self._templates[id(hello)] = template
        return template

    def encode(self, hello: ClientHello, *, seed: str) -> bytes:
        """``encode_client_hello(hello, seed=seed)``, byte for byte."""
        template = self._template(hello)
        return template[1] + _deterministic_random(seed) + template[2]

    def encode_hex(self, hello: ClientHello, *, seed: str) -> str:
        """``encode(hello, seed=seed).hex()``, character for character."""
        return "".join(self.hex_pieces(hello, seed=seed))

    def hex_pieces(self, hello: ClientHello, *, seed: str) -> tuple[str, str, str]:
        """:meth:`encode_hex` cut around the random: the hello's fixed
        head and tail hex, and the 64-char hex of this seed's random."""
        template = self._template(hello)
        return template[3], _deterministic_random(seed).hex(), template[4]

    def decode(self, wire: bytes) -> ClientHello:
        """``decode_client_hello(wire)``, shared across equal hellos."""
        if len(wire) < _RANDOM_END:
            return decode_client_hello(wire)
        key = wire[:_RANDOM_START] + wire[_RANDOM_END:]
        hello = self._decoded.get(key)
        if hello is None:
            hello = self._decoded[key] = decode_client_hello(wire)
        return hello


# ---------------------------------------------------------------------------
# ServerHello
# ---------------------------------------------------------------------------

def encode_server_hello(hello: ServerHello, *, seed: str = "server") -> bytes:
    major, minor = hello.version.wire
    body = bytes((major, minor))
    body += _deterministic_random(seed)
    body += _vec(b"", 1)  # session id
    body += _u16(hello.cipher_code)
    body += _u8(0)  # null compression
    handshake = _u8(_HANDSHAKE_SERVER_HELLO) + _vec(body, 3)
    return _u8(_CONTENT_HANDSHAKE) + bytes((major, minor)) + _vec(handshake, 2)


def decode_server_hello(wire: bytes) -> ServerHello:
    record = _Reader(wire)
    if record.u8() != _CONTENT_HANDSHAKE:
        raise CodecError("not a handshake record")
    record.take(2)
    fragment = _Reader(record.vector(2))
    if fragment.u8() != _HANDSHAKE_SERVER_HELLO:
        raise CodecError("not a ServerHello")
    body = _Reader(fragment.vector(3))
    version = ProtocolVersion.from_wire((body.u8(), body.u8()))
    body.take(32)
    body.vector(1)
    cipher_code = body.u16()
    return ServerHello(version=version, cipher_code=cipher_code)


# ---------------------------------------------------------------------------
# Alerts
# ---------------------------------------------------------------------------

def encode_alert(alert: Alert, *, version: ProtocolVersion = ProtocolVersion.TLS_1_2) -> bytes:
    major, minor = version.wire
    payload = _u8(alert.level.value) + _u8(alert.description.value)
    return _u8(_CONTENT_ALERT) + bytes((major, minor)) + _vec(payload, 2)


def decode_alert(wire: bytes) -> Alert:
    record = _Reader(wire)
    if record.u8() != _CONTENT_ALERT:
        raise CodecError("not an alert record")
    record.take(2)
    payload = _Reader(record.vector(2))
    level = payload.u8()
    description = payload.u8()
    try:
        return Alert(level=AlertLevel(level), description=AlertDescription(description))
    except ValueError as error:
        raise CodecError(f"unknown alert ({level}, {description})") from error
