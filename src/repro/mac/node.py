"""MAC nodes: queue + DCF backoff state.

Every node — the AP and each STA — contends for the medium with the
standard binary-exponential-backoff DCF. WiFox's downlink prioritisation is
modelled with a per-node contention-window scale the scheduler adjusts from
the AP's backlog (§7.2.1's WiFox baseline).

The queue keeps the statistics the aggregation protocols poll on every
engine event (pending bytes, distinct destinations, oldest arrival): a
read scans the queue once, and later enqueues update the result in O(1).
Handing out the mutable :attr:`Node.queue` — which is what a protocol's
``build`` does during the node's own channel access — marks them stale,
so the next read scans again.
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter

from repro.mac.frames import MacFrame
from repro.mac.parameters import PhyMacParameters
from repro.util.rng import RngStream

__all__ = ["Node"]


_SIZE = attrgetter("size_bytes")
_DESTINATION = attrgetter("destination")
_ARRIVAL = attrgetter("arrival_time")


def _priority_key(frame: MacFrame) -> tuple:
    return (not frame.delay_sensitive, frame.arrival_time)


class Node:
    """One contending station (or the AP).

    Attributes:
        name: Unique node name ("ap", "sta3", ...).
        is_ap: Access points run the downlink aggregation protocol.
        backoff_slots: Backoff drawn for the next access (None = not drawn
            yet). The engine counts it down in virtual time and writes the
            residual back here only when the countdown pauses.
        cw: Current contention window.
        cw_scale: Multiplier on CW bounds (<1 prioritises this node).
    """

    def __init__(self, name: str, params: PhyMacParameters, rng: RngStream,
                 is_ap: bool = False):
        self.name = name
        self.is_ap = is_ap
        self.params = params
        self._queue: deque = deque()
        self._stats_valid = False
        self._bytes = 0
        self._destinations: set = set()
        self._oldest: float | None = None
        self.backoff_slots: int | None = None
        self.cw = self._scaled(params.cw_min)
        self.cw_scale = 1.0
        self._rng = rng

    def _scaled(self, cw: int) -> int:
        return max(1, int(cw * getattr(self, "cw_scale", 1.0)))

    # Queue management -------------------------------------------------------

    @property
    def queue(self) -> deque:
        """FIFO of pending :class:`MacFrame` (mutable: marks stats stale)."""
        self._stats_valid = False
        return self._queue

    def enqueue(self, frame: MacFrame) -> None:
        """Append a frame to the transmit queue."""
        self._queue.append(frame)
        if self._stats_valid:
            self._bytes += frame.size_bytes
            self._destinations.add(frame.destination)
            if self._oldest is None or frame.arrival_time < self._oldest:
                self._oldest = frame.arrival_time

    def requeue_front(self, frames: list) -> None:
        """Put failed frames back at the head (retransmission priority)."""
        for frame in reversed(frames):
            self._queue.appendleft(frame)
        self._stats_valid = False

    def _refresh_stats(self) -> None:
        queue = self._queue
        self._bytes = sum(map(_SIZE, queue))
        self._destinations = set(map(_DESTINATION, queue))
        self._oldest = min(map(_ARRIVAL, queue), default=None)
        self._stats_valid = True

    @property
    def backlogged(self) -> bool:
        """Does this node have anything to send?"""
        return bool(self._queue)

    @property
    def pending_bytes(self) -> int:
        """Total bytes queued."""
        if not self._stats_valid:
            self._refresh_stats()
        return self._bytes

    @property
    def destination_count(self) -> int:
        """Distinct destinations among the queued frames."""
        if not self._stats_valid:
            self._refresh_stats()
        return len(self._destinations)

    def oldest_arrival(self) -> float | None:
        """Arrival time of the oldest queued frame (None if empty)."""
        if not self._stats_valid:
            self._refresh_stats()
        return self._oldest

    def priority_head(self) -> MacFrame | None:
        """The first queued frame under the delay-sensitive-then-oldest rule
        (ties keep queue order); None if empty."""
        return min(self._queue, key=_priority_key, default=None)

    # DCF backoff -------------------------------------------------------------

    def ensure_backoff(self) -> int:
        """Draw a backoff if none is pending; return the current counter."""
        if self.backoff_slots is None:
            self.backoff_slots = int(self._rng.integers(0, self.cw + 1))
        return self.backoff_slots

    def consume_slots(self, slots: int) -> None:
        """Count down ``slots`` idle backoff slots (a countdown pausing)."""
        if self.backoff_slots is None:
            raise RuntimeError(f"{self.name}: no backoff drawn")
        if slots > self.backoff_slots:
            raise ValueError("consuming more slots than remain")
        self.backoff_slots -= slots

    def on_success(self) -> None:
        """Reset contention state after a successful exchange."""
        self.cw = max(1, int(self.params.cw_min * self.cw_scale))
        self.backoff_slots = None

    def on_collision(self) -> None:
        """Binary exponential backoff after a collision."""
        self.cw = min(2 * self.cw + 1, max(1, int(self.params.cw_max * self.cw_scale)))
        self.backoff_slots = None

    def set_priority_scale(self, scale: float) -> None:
        """Adjust CW scaling (WiFox-style AP prioritisation)."""
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.cw_scale = scale
        self.cw = max(1, int(self.params.cw_min * scale))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Node({self.name}, queue={len(self._queue)}, cw={self.cw})"
