"""Carpool in a mixed network: Carpool STAs + legacy STAs on one AP (§4.3).

The AP speaks Carpool only to stations that negotiated it at association
time, and plain 802.11 to everyone else. The oldest pending frame decides
the mode of the next access: if it belongs to a legacy station the AP
sends a single legacy frame; otherwise it builds a Carpool aggregate over
the Carpool-capable backlog (legacy frames stay queued — their turn comes
when one of them becomes the oldest).
"""

from __future__ import annotations

from repro.mac.node import Node
from repro.mac.protocols.base import Transmission
from repro.mac.protocols.carpool import CarpoolProtocol

__all__ = ["CarpoolMixedProtocol"]


class CarpoolMixedProtocol(CarpoolProtocol):
    """Carpool for capable stations, 802.11 unicast for legacy ones."""

    name = "Carpool-mixed"

    def __init__(self, params, limits=None, carpool_stations=()):
        super().__init__(params, limits)
        self.carpool_stations = set(carpool_stations)

    def is_carpool(self, destination: str) -> bool:
        """Does ``destination`` currently speak Carpool?

        The single capability gate: subclasses (e.g. the fault-hardened
        fallback protocol) override this to demote degraded receivers.
        """
        return destination in self.carpool_stations

    def _oldest_is_legacy(self, node: Node) -> bool:
        return not self.is_carpool(node.priority_head().destination)

    def ready_time(self, node: Node, now: float):
        """Legacy-headed queues contend immediately; Carpool backlogs may wait."""
        if not node.backlogged:
            return None
        if not node.is_ap:
            return now
        if self._oldest_is_legacy(node):
            return now  # legacy frames never wait for aggregation
        return super().ready_time(node, now)

    def build(self, node: Node, now: float) -> Transmission:
        """Serve the oldest frame's population: legacy unicast or Carpool batch."""
        if not node.is_ap:
            return self.build_uplink(node, now)
        if self._oldest_is_legacy(node):
            # Pop the oldest legacy frame specifically, then ship it alone.
            oldest = node.priority_head()
            node.queue.remove(oldest)
            node.queue.appendleft(oldest)
            return self.build_single(node)
        # Aggregate only the Carpool-capable backlog: stash legacy frames
        # aside so the selector never sees them.
        legacy = [f for f in node.queue if not self.is_carpool(f.destination)]
        capable = [f for f in node.queue if self.is_carpool(f.destination)]
        node.queue.clear()
        node.queue.extend(capable)
        try:
            transmission = super().build(node, now)
        finally:
            node.queue.extend(legacy)
        return transmission
