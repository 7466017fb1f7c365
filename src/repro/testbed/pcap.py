"""Export captures as classic libpcap files.

Each :class:`~repro.testbed.capture.TrafficRecord` becomes one synthetic
TCP/IPv4/Ethernet packet carrying the connection's encoded ClientHello
(via :mod:`repro.tls.codec`), so the file opens in standard tooling
(tcpdump, Wireshark, scapy) and the hellos dissect as genuine TLS.

Addressing follows the testbed's plan: devices get deterministic LAN
addresses, destinations resolve through
:func:`repro.testbed.dns.DnsResolver.address_of`.  Timestamps are the
records' study timestamps.  One packet per flow record (the batched
``count`` is carried in repeated emission when ``expand_counts`` is on,
capped to keep files tractable).
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path

from ..tls.codec import HelloWireCache
from .capture import GatewayCapture, TrafficRecord
from .dns import DnsResolver

__all__ = ["write_pcap", "PCAP_MAGIC"]

PCAP_MAGIC = 0xA1B2C3D4
_LINKTYPE_ETHERNET = 1


def _global_header() -> bytes:
    return struct.pack(
        "!IHHiIII",
        PCAP_MAGIC,
        2,  # version major
        4,  # version minor
        0,  # thiszone
        0,  # sigfigs
        65535,  # snaplen
        _LINKTYPE_ETHERNET,
    )


def _digest(seed: str, size: int) -> bytes:
    """Deterministic per-name bytes.  A real digest, not ``sum(...)``:
    byte-sum folding collides for any two names with equal byte sums
    (anagrams, and five pairs of the Table 1 catalog), which would merge
    distinct devices into one flow in exported pcaps."""
    return hashlib.blake2s(seed.encode(), digest_size=size).digest()


def _device_ip(device: str) -> bytes:
    first, second = _digest(f"ip:{device}", 2)
    return bytes((192, 168, 8 + first % 32, second % 250 + 2))


def _host_ip(hostname: str) -> bytes:
    text = DnsResolver.address_of(hostname)
    return bytes(int(part) for part in text.split("."))


def _mac(seed: str) -> bytes:
    return bytes((0x02, 0, 0)) + _digest(f"mac:{seed}", 3)


def _tcp_packet(record: TrafficRecord, payload: bytes) -> bytes:
    src_ip = _device_ip(record.device)
    dst_ip = _host_ip(record.hostname)
    ethernet = _mac("gateway") + _mac(record.device) + struct.pack("!H", 0x0800)

    tcp_header = struct.pack(
        "!HHIIBBHHH",
        49152 + int.from_bytes(_digest(f"port:{record.device}", 2), "big") % 16000,
        443,
        1,  # seq
        0,  # ack
        5 << 4,  # data offset
        0x18,  # PSH|ACK
        65535,  # window
        0,  # checksum (not computed; valid enough for dissection)
        0,  # urgent
    )
    total_length = 20 + len(tcp_header) + len(payload)
    ip_header = struct.pack(
        "!BBHHHBBH4s4s",
        0x45,  # version + IHL
        0,
        total_length,
        0,  # identification
        0,  # flags/fragment
        64,  # TTL
        6,  # TCP
        0,  # checksum (left zero)
        src_ip,
        dst_ip,
    )
    return ethernet + ip_header + tcp_header + payload


def write_pcap(
    capture: GatewayCapture,
    path: str | Path,
    *,
    limit: int | None = None,
) -> Path:
    """Write the capture's ClientHellos as a pcap file.

    ``limit`` caps the number of packets (None = all flow records; the
    per-record ``count`` is NOT expanded -- one packet per flow record,
    mirroring how the analyses weight by count instead of duplicating).
    Each distinct hello is encoded once per file
    (:class:`~repro.tls.codec.HelloWireCache`).
    """
    path = Path(path)
    codec = HelloWireCache()
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as handle:
        handle.write(_global_header())
        for index, record in enumerate(capture.records):
            if limit is not None and index >= limit:
                break
            payload = codec.encode(
                record.client_hello, seed=f"{record.device}:{record.hostname}:{record.month}"
            )
            packet = _tcp_packet(record, payload)
            timestamp = int(record.when.timestamp())
            handle.write(struct.pack("!IIII", timestamp, 0, len(packet), len(packet)))
            handle.write(packet)
    return path
