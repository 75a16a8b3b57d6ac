import pytest

from repro.mac.frames import MacFrame
from repro.mac.node import Node
from repro.mac.parameters import DEFAULT_PARAMETERS
from repro.mac.protocols import (
    AggregationLimits,
    AmpduProtocol,
    CarpoolProtocol,
    Dot11Protocol,
    MuAggregationProtocol,
    PROTOCOLS,
    WifoxProtocol,
)
from repro.mac.protocols.carpool_mixed import CarpoolMixedProtocol
from repro.util.rng import RngStream


def _node(name="ap", is_ap=True, seed=0):
    return Node(name, DEFAULT_PARAMETERS, RngStream(seed).child(name), is_ap=is_ap)


def _frame(dest, size=300, t=0.0, sensitive=False):
    return MacFrame(destination=dest, size_bytes=size, arrival_time=t,
                    delay_sensitive=sensitive)


class TestNode:
    def test_backoff_within_cw(self):
        node = _node()
        for _ in range(50):
            node.backoff_slots = None
            assert 0 <= node.ensure_backoff() <= node.cw

    def test_backoff_persists_until_reset(self):
        node = _node()
        b = node.ensure_backoff()
        assert node.ensure_backoff() == b

    def test_collision_doubles_cw(self):
        node = _node()
        cw0 = node.cw
        node.on_collision()
        assert node.cw == 2 * cw0 + 1

    def test_cw_capped_at_max(self):
        node = _node()
        for _ in range(20):
            node.on_collision()
        assert node.cw == DEFAULT_PARAMETERS.cw_max

    def test_success_resets_cw(self):
        node = _node()
        node.on_collision()
        node.on_success()
        assert node.cw == DEFAULT_PARAMETERS.cw_min

    def test_consume_slots(self):
        node = _node()
        node.backoff_slots = 5
        node.consume_slots(3)
        assert node.backoff_slots == 2
        with pytest.raises(ValueError):
            node.consume_slots(10)

    def test_consume_without_draw_raises(self):
        with pytest.raises(RuntimeError):
            _node().consume_slots(1)

    def test_priority_scale(self):
        node = _node()
        node.set_priority_scale(0.25)
        assert node.cw == max(1, int(DEFAULT_PARAMETERS.cw_min * 0.25))
        with pytest.raises(ValueError):
            node.set_priority_scale(0.0)

    def test_requeue_front_preserves_order(self):
        node = _node()
        node.enqueue(_frame("a"))
        f1, f2 = _frame("b"), _frame("c")
        node.requeue_front([f1, f2])
        assert [f.destination for f in node.queue] == ["b", "c", "a"]


class TestDot11:
    def test_one_frame_per_access(self):
        proto = Dot11Protocol(DEFAULT_PARAMETERS)
        node = _node()
        node.enqueue(_frame("sta0"))
        node.enqueue(_frame("sta1"))
        tx = proto.build(node, 0.0)
        assert len(tx.subframes) == 1
        assert len(node.queue) == 1
        assert not tx.subframes[0].rte


class TestAmpdu:
    def test_aggregates_only_head_destination(self):
        proto = AmpduProtocol(DEFAULT_PARAMETERS)
        node = _node()
        node.enqueue(_frame("sta0", t=0.0))
        node.enqueue(_frame("sta1", t=0.1))
        node.enqueue(_frame("sta0", t=0.2))
        tx = proto.build(node, 1.0)
        assert all(sf.destination == "sta0" for sf in tx.subframes)
        assert len(tx.subframes) == 2  # two MPDUs for sta0
        assert [f.destination for f in node.queue] == ["sta1"]

    def test_blockack_window_cap(self):
        proto = AmpduProtocol(DEFAULT_PARAMETERS)
        node = _node()
        for _ in range(80):
            node.enqueue(_frame("sta0", size=120))
        tx = proto.build(node, 0.0)
        assert len(tx.subframes) == 64
        assert len(node.queue) == 16

    def test_mpdu_positions_monotone(self):
        proto = AmpduProtocol(DEFAULT_PARAMETERS)
        node = _node()
        for _ in range(5):
            node.enqueue(_frame("sta0"))
        tx = proto.build(node, 0.0)
        starts = [sf.start_symbol for sf in tx.subframes]
        assert starts == sorted(starts)
        assert starts[0] == 0

    def test_sta_sends_single_frames(self):
        proto = AmpduProtocol(DEFAULT_PARAMETERS)
        sta = _node("sta0", is_ap=False)
        sta.enqueue(_frame("ap"))
        sta.enqueue(_frame("ap"))
        tx = proto.build(sta, 0.0)
        assert len(tx.subframes) == 1


class TestCarpool:
    def test_multi_receiver_aggregation(self):
        proto = CarpoolProtocol(DEFAULT_PARAMETERS)
        node = _node()
        for i in range(12):
            node.enqueue(_frame(f"sta{i % 4}", t=i * 0.001))
        tx = proto.build(node, 1.0)
        assert len(tx.subframes) == 4
        assert all(sf.rte for sf in tx.subframes)
        assert len(node.queue) == 0

    def test_receiver_cap_eight(self):
        proto = CarpoolProtocol(DEFAULT_PARAMETERS)
        node = _node()
        for i in range(12):
            node.enqueue(_frame(f"sta{i}", t=i * 0.001))
        tx = proto.build(node, 1.0)
        assert len(tx.subframes) == 8
        assert len(node.queue) == 4

    def test_subframe_byte_cap(self):
        limits = AggregationLimits(max_subframe_bytes=500)
        proto = CarpoolProtocol(DEFAULT_PARAMETERS, limits)
        node = _node()
        for _ in range(4):
            node.enqueue(_frame("sta0", size=300))
        tx = proto.build(node, 0.0)
        assert tx.subframes[0].payload_bytes == 300
        assert len(node.queue) == 3

    def test_header_and_sig_symbols_accounted(self):
        proto = CarpoolProtocol(DEFAULT_PARAMETERS)
        node = _node()
        node.enqueue(_frame("sta0"))
        node.enqueue(_frame("sta1", t=0.001))
        tx = proto.build(node, 1.0)
        # First subframe starts after A-HDR (2) + its SIG (1).
        assert tx.subframes[0].start_symbol == 3
        gap = tx.subframes[1].start_symbol - (
            tx.subframes[0].start_symbol + tx.subframes[0].n_symbols
        )
        assert gap == 1  # the second subframe's SIG

    def test_sequential_ack_time_scales(self):
        proto = CarpoolProtocol(DEFAULT_PARAMETERS)
        node = _node()
        for i in range(4):
            node.enqueue(_frame(f"sta{i}", t=i * 0.001))
        tx = proto.build(node, 1.0)
        single = Dot11Protocol(DEFAULT_PARAMETERS)
        node2 = _node()
        node2.enqueue(_frame("sta0"))
        tx_single = single.build(node2, 0.0)
        assert tx.ack_time == pytest.approx(4 * tx_single.ack_time)

    def test_delay_sensitive_first(self):
        proto = CarpoolProtocol(DEFAULT_PARAMETERS, AggregationLimits(max_receivers=1))
        node = _node()
        node.enqueue(_frame("sta0", t=0.0))
        node.enqueue(_frame("sta1", t=0.5, sensitive=True))
        tx = proto.build(node, 1.0)
        assert tx.subframes[0].destination == "sta1"

    def test_ready_waits_for_aggregation(self):
        proto = CarpoolProtocol(
            DEFAULT_PARAMETERS, AggregationLimits(max_latency=0.010)
        )
        node = _node()
        node.enqueue(_frame("sta0", t=1.0))
        assert proto.ready_time(node, 1.001) == pytest.approx(1.010)

    def test_ready_immediately_when_full(self):
        proto = CarpoolProtocol(DEFAULT_PARAMETERS)
        node = _node()
        for i in range(8):
            node.enqueue(_frame(f"sta{i}", t=1.0))
        assert proto.ready_time(node, 1.0) == 1.0

    def test_empty_queue_not_ready(self):
        proto = CarpoolProtocol(DEFAULT_PARAMETERS)
        assert proto.ready_time(_node(), 0.0) is None


class TestMuAggregation:
    def test_no_rte(self):
        proto = MuAggregationProtocol(DEFAULT_PARAMETERS)
        node = _node()
        node.enqueue(_frame("sta0"))
        tx = proto.build(node, 1.0)
        assert not tx.subframes[0].rte

    def test_shared_blockack_window(self):
        proto = MuAggregationProtocol(DEFAULT_PARAMETERS)
        node = _node()
        for i in range(100):
            node.enqueue(_frame(f"sta{i % 4}", size=120, t=i * 1e-4))
        tx = proto.build(node, 1.0)
        assert sum(len(sf.frames) for sf in tx.subframes) == 64

    def test_per_subframe_header_bytes_counted(self):
        proto = MuAggregationProtocol(DEFAULT_PARAMETERS)
        carpool = CarpoolProtocol(DEFAULT_PARAMETERS)
        n1, n2 = _node(), _node()
        n1.enqueue(_frame("sta0", size=100))
        n2.enqueue(_frame("sta0", size=100))
        tx_mu = proto.build(n1, 0.0)
        tx_cp = carpool.build(n2, 0.0)
        assert tx_mu.subframes[0].n_symbols >= tx_cp.subframes[0].n_symbols


class TestWifox:
    def test_is_non_aggregating(self):
        proto = WifoxProtocol(DEFAULT_PARAMETERS)
        node = _node()
        node.enqueue(_frame("sta0"))
        node.enqueue(_frame("sta1"))
        tx = proto.build(node, 0.0)
        assert len(tx.subframes) == 1

    def test_priority_kicks_in_with_backlog(self):
        proto = WifoxProtocol(DEFAULT_PARAMETERS)
        node = _node()
        for i in range(50):
            node.enqueue(_frame(f"sta{i % 5}"))
        proto.ready_time(node, 0.0)
        assert node.cw_scale < 1.0

    def test_priority_released_when_drained(self):
        proto = WifoxProtocol(DEFAULT_PARAMETERS)
        node = _node()
        for i in range(50):
            node.enqueue(_frame("sta0"))
        proto.ready_time(node, 0.0)
        node.queue.clear()
        node.enqueue(_frame("sta0"))
        proto.ready_time(node, 0.0)
        assert node.cw_scale == 1.0

    def test_stas_get_no_priority(self):
        proto = WifoxProtocol(DEFAULT_PARAMETERS)
        sta = _node("sta0", is_ap=False)
        for _ in range(50):
            sta.enqueue(_frame("ap"))
        proto.ready_time(sta, 0.0)
        assert sta.cw_scale == 1.0


class TestRegistry:
    def test_all_schemes_registered(self):
        assert set(PROTOCOLS) == {
            "802.11", "A-MPDU", "A-MSDU", "MU-Aggregation", "WiFox", "Carpool",
            "Carpool-fallback",
        }


class TestStaReadiness:
    """The engine never polls STAs: a STA contends exactly while backlogged,
    so every protocol's ready_time must say the same."""

    @pytest.mark.parametrize("protocol_cls", [
        *PROTOCOLS.values(), CarpoolMixedProtocol,
    ], ids=lambda cls: cls.name if cls is not CarpoolMixedProtocol else "Carpool-mixed")
    def test_sta_ready_exactly_while_backlogged(self, protocol_cls):
        proto = protocol_cls(DEFAULT_PARAMETERS)
        sta = _node("sta0", is_ap=False)
        assert proto.ready_time(sta, 0.0) is None
        for i, now in enumerate((0.0, 1e-4, 0.5)):
            sta.enqueue(_frame("ap", t=now / 2, sensitive=bool(i % 2)))
            assert proto.ready_time(sta, now) == now
        sta.queue.clear()
        assert proto.ready_time(sta, 1.0) is None
