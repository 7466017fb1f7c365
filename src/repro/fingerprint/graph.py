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

The graph is a plain adjacency dict: nodes in insertion order, each
mapped to the set of its neighbours.  Node order fixes the order of
:meth:`SharedFingerprintGraph.device_clusters`, which ``iotls report``
and ``iotls fingerprint`` print sorted by size with ties left in it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .collect import DeviceFingerprints
from .database import FingerprintDatabase

__all__ = ["SharedFingerprintGraph", "build_shared_graph"]

#: A graph node: ``(kind, name)`` with kind ``device``, ``application``
#: or ``fingerprint``.
Node = tuple[str, str]


@dataclass
class SharedFingerprintGraph:
    """The Figure 5 graph plus the §5.3 summary statistics."""

    #: node -> neighbours, in node insertion order.
    adjacency: dict[Node, set[Node]]
    #: (device node, fingerprint node) pairs of the paper's thick edges.
    dominant_edges: set[tuple[Node, Node]]
    device_names: set[str]
    application_labels: set[str]

    # ------------------------------------------------------------------
    # §5.3 statistics
    # ------------------------------------------------------------------
    def sharing_devices(self) -> set[str]:
        """Devices that share >=1 fingerprint with another device/app."""
        return {
            name for name in self.device_names if self.adjacency.get(("device", name))
        }

    def devices_sharing_with_application(self, label: str) -> set[str]:
        """Devices sharing a fingerprint with a labelled application."""
        devices = set()
        for fp_node in self.adjacency.get(("application", label), ()):
            for kind, name in self.adjacency[fp_node]:
                if kind == "device":
                    devices.add(name)
        return devices

    def device_clusters(self) -> list[set[str]]:
        """Connected groups of devices (manufacturer clusters in Fig 5).

        Components come out in the order of their first node, so the
        list is deterministic for a given graph.
        """
        seen: set[Node] = set()
        clusters = []
        for start in self.adjacency:
            if start in seen:
                continue
            seen.add(start)
            component = [start]
            for node in component:  # breadth-first: appends extend the walk
                for neighbor in self.adjacency[node]:
                    if neighbor not in seen:
                        seen.add(neighbor)
                        component.append(neighbor)
            devices = {name for kind, name in component if kind == "device"}
            if len(devices) >= 2:
                clusters.append(devices)
        return clusters

    def dominant_fingerprint_label(self, device: str) -> set[str]:
        """Application labels matching a device's dominant fingerprint."""
        device_node = ("device", device)
        labels = set()
        for fp_node in self.adjacency.get(device_node, ()):
            if (device_node, fp_node) not in self.dominant_edges:
                continue
            for kind, name in self.adjacency[fp_node]:
                if kind == "application":
                    labels.add(name)
        return labels


def build_shared_graph(
    collected: list[DeviceFingerprints], database: FingerprintDatabase
) -> SharedFingerprintGraph:
    """Assemble the Figure 5 graph from collected device fingerprints."""
    # Who produced each fingerprint?
    producers: dict[str, set[Node]] = {}
    for device in collected:
        for digest in device.distinct:
            producers.setdefault(digest, set()).add(("device", device.device))
    for digest, labels in database.entries.items():
        for label in labels:
            producers.setdefault(digest, set()).add(("application", label))

    adjacency: dict[Node, set[Node]] = {}
    used_labels: set[str] = set()
    for digest, nodes in producers.items():
        if len(nodes) < 2:
            continue  # non-shared fingerprints are dropped, as in Fig 5
        # A fingerprint shared only among synthetic DB applications is
        # noise for this analysis; require at least one device producer.
        if not any(kind == "device" for kind, _ in nodes):
            continue
        fp_node = ("fingerprint", digest)
        fp_neighbors = adjacency.setdefault(fp_node, set())
        for node in nodes:
            kind, name = node
            if kind == "application":
                used_labels.add(name)
            adjacency.setdefault(node, set()).add(fp_node)
            fp_neighbors.add(node)

    # Flag dominant edges (the paper's thick edges).
    dominant_edges = set()
    for device in collected:
        dominant = device.dominant
        if dominant is None:
            continue
        device_node = ("device", device.device)
        fp_node = ("fingerprint", dominant)
        if fp_node in adjacency.get(device_node, ()):
            dominant_edges.add((device_node, fp_node))

    return SharedFingerprintGraph(
        adjacency=adjacency,
        dominant_edges=dominant_edges,
        device_names={device.device for device in collected},
        application_labels=used_labels,
    )
