"""Protocol interface for the MAC simulator.

A protocol decides what a node transmits when it wins the channel: how
many queued frames ride in the PHY frame, for how many receivers, what the
header/ACK overheads are, and whether the receiver decodes with RTE. The
engine handles contention, collisions and error draws.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.mac.airtime import ack_airtime
from repro.mac.frames import MacFrame
from repro.mac.node import Node
from repro.mac.parameters import PhyMacParameters

__all__ = ["SubframeTx", "Transmission", "Protocol", "AggregationLimits"]


@dataclass(frozen=True)
class AggregationLimits:
    """Aggregation stop conditions (mirrors §7.2's policy knobs).

    ``max_subframe_bytes`` reflects Carpool's 12-bit SIG LENGTH field: one
    subframe carries at most 4095 bytes (§4.1's frame structure).
    ``max_mpdus`` is 802.11n's BlockAck window: an A-MPDU carries at most
    64 MPDUs regardless of byte budget.
    """

    max_frame_bytes: int = 65535
    max_latency: float = 0.010
    max_receivers: int = 8
    max_subframe_bytes: int = 4095
    max_mpdus: int = 64


@dataclass
class SubframeTx:
    """One per-receiver slice of a PHY transmission."""

    destination: str
    frames: list
    start_symbol: int
    n_symbols: int
    rte: bool

    @property
    def payload_bytes(self) -> int:
        """Payload bytes this subframe carries."""
        return sum(f.size_bytes for f in self.frames)


@dataclass
class Transmission:
    """A fully-specified channel occupation: data frame + ACK sequence."""

    node_name: str
    airtime: float
    ack_time: float
    subframes: list = field(default_factory=list)

    @property
    def total_duration(self) -> float:
        """Data airtime plus the ACK tail."""
        return self.airtime + self.ack_time

    @property
    def total_payload_bytes(self) -> int:
        """Payload bytes across all subframes."""
        return sum(sf.payload_bytes for sf in self.subframes)


class Protocol(ABC):
    """Downlink transmission policy of one evaluated scheme."""

    name: str = "base"
    uses_rte: bool = False
    #: OFDM symbols a non-addressed station must receive beyond the PLCP
    #: header before it can drop the frame (Carpool: the 2-symbol A-HDR).
    overhear_symbols: int = 0
    #: Probability that a non-addressed station decodes one irrelevant
    #: subframe anyway (Carpool: the A-HDR false-positive ratio, §8).
    overhear_false_positive: float = 0.0

    def __init__(self, params: PhyMacParameters, limits: AggregationLimits | None = None,
                 rate_table=None):
        self.params = params
        self.limits = limits or AggregationLimits()
        #: Optional per-station rate adaptation (repro.mac.rate_control.
        #: RateTable); stations without an SNR report use the default rate.
        self.rate_table = rate_table

    # --- engine hooks -------------------------------------------------------

    def ready_time(self, node: Node, now: float) -> float | None:
        """Earliest time this node should contend; None if nothing queued.

        Default: contend as soon as anything is queued. Aggregating
        protocols may override to wait for the aggregation deadline.

        The engine polls this for access points only, once per event. A
        non-AP node contends exactly while it is backlogged, so an override
        must keep returning ``now`` for a backlogged STA and None for an
        empty one (``tests/mac/test_node_protocols.py`` checks every protocol).
        """
        return now if node.backlogged else None

    @abstractmethod
    def build(self, node: Node, now: float) -> Transmission:
        """Pop frames from ``node`` and shape one transmission."""

    def on_subframe_result(self, destination: str, ok: bool, now: float) -> None:
        """Feedback hook: the engine reports each AP subframe's ACK outcome.

        Default: ignore. Adaptive protocols (e.g. the fault-hardened
        fallback Carpool) track per-receiver failure rates here.
        """

    # --- shared helpers ------------------------------------------------------

    def rate_for(self, destination: str | None) -> float:
        """Data rate (bit/s) toward ``destination``.

        With a rate table, the station's MCS scales the configured PHY
        rate (the table's top rate, QAM64-3/4, maps to ``phy_rate_bps``);
        without one — or for unreported stations — the default applies.
        """
        if self.rate_table is None or destination is None:
            return self.params.phy_rate_bps
        if self.rate_table.snr_of(destination) is None:
            return self.params.phy_rate_bps
        mcs = self.rate_table.mcs_for(destination)
        return self.params.phy_rate_bps * mcs.rate_mbps / 54.0

    def payload_symbols(self, nbytes: int, destination: str | None = None) -> int:
        """OFDM symbols needed for ``nbytes`` at the destination's rate."""
        bits_per_symbol = self.rate_for(destination) * self.params.symbol_duration
        return max(1, math.ceil(8 * nbytes / bits_per_symbol))

    def build_single(self, node: Node, rte: bool = False) -> Transmission:
        """A plain 802.11 single-frame exchange (uplink default)."""
        frame: MacFrame = node.queue.popleft()
        n_symbols = self.payload_symbols(frame.size_bytes, frame.destination)
        airtime = self.params.plcp_header_time + n_symbols * self.params.symbol_duration
        return Transmission(
            node_name=node.name,
            airtime=airtime,
            ack_time=self.params.sifs + ack_airtime(self.params),
            subframes=[
                SubframeTx(
                    destination=frame.destination,
                    frames=[frame],
                    start_symbol=0,
                    n_symbols=n_symbols,
                    rte=rte,
                )
            ],
        )

    def build_uplink(self, node: Node, now: float) -> Transmission:
        """STAs always send single legacy frames in every scheme."""
        return self.build_single(node)
