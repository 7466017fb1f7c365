"""Smart plugs: the study's programmable reboot trigger.

The paper automates device reboots with TP-Link power plugs to induce
boot-time TLS traffic for active experiments.  :class:`SmartPlug` plays
that role: it power-cycles a device and drives its boot sequence against
a responder chooser, returning the connections the boot produced -- or,
for an experiment that observes only the first boot-time connection (the
root-store prober), makes just that one.

It also enforces the paper's experimental-design constraint: appliances
unsuited to repeated power cycling (washer, dryer, thermostat, fridge)
refuse to be plugged in.
"""

from __future__ import annotations

from datetime import datetime

from ..devices.device import Device, DeviceConnection, ResponderFor
from ..devices.profile import ACTIVE_EXPERIMENT_MONTH
from ..tls.engine import Responder

__all__ = ["SmartPlug", "NotRebootableError"]


class NotRebootableError(RuntimeError):
    """Raised when a device unsuitable for power cycling is plugged in."""


class SmartPlug:
    """A programmable power plug driving one device's reboots."""

    def __init__(self, device: Device) -> None:
        if not device.profile.rebootable:
            raise NotRebootableError(
                f"{device.name} is not suitable for repeated reboots "
                "(excluded from reboot-driven experiments, §5.2)"
            )
        self.device = device
        self.reboot_count = 0

    def reboot(
        self,
        responder_for: ResponderFor,
        *,
        month: int = ACTIVE_EXPERIMENT_MONTH,
        when: datetime | None = None,
    ) -> list[DeviceConnection]:
        """Power the device off and on; return its boot-time connections."""
        self.reboot_count += 1
        return self.device.boot(responder_for, month=month, when=when)

    def reboot_first_connection(self, responder: Responder) -> DeviceConnection:
        """Power-cycle the device; connect only its first boot destination,
        in the active-experiment month.

        A power cycle resets every instance's failure state, so the first
        connection's outcome does not depend on the ones after it: an
        experiment that observes only that connection need not run them.
        """
        self.reboot_count += 1
        device = self.device
        device.power_cycle()
        return device.connect_destination(
            device.first_destination(), responder, month=ACTIVE_EXPERIMENT_MONTH
        )
