"""The shared-fingerprint graph (Figure 5) and its analyses.

Three node kinds, as in the paper's figure:

* **devices** (from the active experiments),
* **applications** (labelled entries of the reference database), and
* **fingerprints** shared between them.

An edge connects a device/application to a fingerprint it produced.
Only fingerprints shared by at least two distinct devices/applications
are kept (non-shared fingerprints are removed for readability, exactly
as the paper does).  Device->fingerprint edges carry a ``dominant`` flag
(the paper's thick edges); application edges are the "dashed" ones.

networkx is imported where a graph is built or traversed, not at module
import, so a process that never draws Figure 5 does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .collect import DeviceFingerprints
from .database import FingerprintDatabase

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["SharedFingerprintGraph", "build_shared_graph"]


@dataclass
class SharedFingerprintGraph:
    """The Figure 5 graph plus the §5.3 summary statistics."""

    graph: nx.Graph
    device_names: set[str]
    application_labels: set[str]

    # ------------------------------------------------------------------
    # §5.3 statistics
    # ------------------------------------------------------------------
    def sharing_devices(self) -> set[str]:
        """Devices that share >=1 fingerprint with another device/app."""
        return {
            name
            for name in self.device_names
            if self.graph.has_node(("device", name)) and self.graph.degree(("device", name)) > 0
        }

    def devices_sharing_with_application(self, label: str) -> set[str]:
        """Devices sharing a fingerprint with a labelled application."""
        app_node = ("application", label)
        if not self.graph.has_node(app_node):
            return set()
        devices = set()
        for fp_node in self.graph.neighbors(app_node):
            for neighbor in self.graph.neighbors(fp_node):
                kind, name = neighbor
                if kind == "device":
                    devices.add(name)
        return devices

    def device_clusters(self) -> list[set[str]]:
        """Connected groups of devices (manufacturer clusters in Fig 5)."""
        import networkx as nx

        clusters = []
        for component in nx.connected_components(self.graph):
            devices = {name for kind, name in component if kind == "device"}
            if len(devices) >= 2:
                clusters.append(devices)
        return clusters

    def dominant_fingerprint_label(self, device: str) -> set[str]:
        """Application labels matching a device's dominant fingerprint."""
        device_node = ("device", device)
        if not self.graph.has_node(device_node):
            return set()
        labels = set()
        for fp_node in self.graph.neighbors(device_node):
            if not self.graph.edges[device_node, fp_node].get("dominant"):
                continue
            for neighbor in self.graph.neighbors(fp_node):
                kind, name = neighbor
                if kind == "application":
                    labels.add(name)
        return labels


def build_shared_graph(
    collected: list[DeviceFingerprints], database: FingerprintDatabase
) -> SharedFingerprintGraph:
    """Assemble the Figure 5 graph from collected device fingerprints."""
    import networkx as nx

    # Who produced each fingerprint?
    producers: dict[str, set[tuple[str, str]]] = {}
    for device in collected:
        for digest in device.distinct:
            producers.setdefault(digest, set()).add(("device", device.device))
    for digest, labels in database.entries.items():
        for label in labels:
            producers.setdefault(digest, set()).add(("application", label))

    graph = nx.Graph()
    used_labels: set[str] = set()
    for digest, nodes in producers.items():
        if len(nodes) < 2:
            continue  # non-shared fingerprints are dropped, as in Fig 5
        # A fingerprint shared only among synthetic DB applications is
        # noise for this analysis; require at least one device producer.
        if not any(kind == "device" for kind, _ in nodes):
            continue
        fp_node = ("fingerprint", digest)
        graph.add_node(fp_node)
        for node in nodes:
            graph.add_node(node)
            kind, name = node
            if kind == "application":
                used_labels.add(name)
            graph.add_edge(node, fp_node)

    # Flag dominant edges (the paper's thick edges).
    for device in collected:
        dominant = device.dominant
        if dominant is None:
            continue
        device_node = ("device", device.device)
        fp_node = ("fingerprint", dominant)
        if graph.has_edge(device_node, fp_node):
            graph.edges[device_node, fp_node]["dominant"] = True

    return SharedFingerprintGraph(
        graph=graph,
        device_names={device.device for device in collected},
        application_labels=used_labels,
    )
