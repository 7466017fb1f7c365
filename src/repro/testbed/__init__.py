"""Simulated smart-home testbed: servers, gateway capture, smart plugs."""

from .capture import (
    CaptureSink,
    CaptureTee,
    DiscardSink,
    FlowRecordChunker,
    GatewayCapture,
    RecordChunk,
    RevocationEvent,
    TrafficRecord,
    sink_add_batch,
)
from .cloud import CloudServer, month_of
from .dns import DnsQuery, DnsResolver, identify_destinations
from .infrastructure import Testbed
from .network import GatewayAttacker, HomeNetwork, LanDeviceAttacker
from .smartplug import NotRebootableError, SmartPlug

__all__ = [
    "CaptureSink",
    "CaptureTee",
    "CloudServer",
    "DiscardSink",
    "DnsQuery",
    "DnsResolver",
    "FlowRecordChunker",
    "GatewayAttacker",
    "GatewayCapture",
    "HomeNetwork",
    "LanDeviceAttacker",
    "NotRebootableError",
    "RecordChunk",
    "RevocationEvent",
    "SmartPlug",
    "Testbed",
    "TrafficRecord",
    "identify_destinations",
    "month_of",
    "sink_add_batch",
]
