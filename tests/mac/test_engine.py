import pytest

from repro.mac import (
    AmpduProtocol,
    Arrival,
    CarpoolProtocol,
    DEFAULT_PARAMETERS,
    Dot11Protocol,
    FixedFerModel,
    WlanSimulator,
)
from repro.mac.engine import AP_NAME
from repro.mac.frames import Direction
from repro.mac.protocols.base import AggregationLimits
from repro.util.rng import RngStream

PERFECT = FixedFerModel(0.0)


def _downlink(t, sta, size=300):
    return Arrival(time=t, source=AP_NAME, destination=sta, size_bytes=size,
                   direction=Direction.DOWNLINK)


def _uplink(t, sta, size=300):
    return Arrival(time=t, source=sta, destination=AP_NAME, size_bytes=size,
                   direction=Direction.UPLINK)


def _sim(protocol_cls, arrivals, n=4, error_model=PERFECT, seed=3, **kwargs):
    proto = protocol_cls(DEFAULT_PARAMETERS, AggregationLimits(max_latency=0.005))
    return WlanSimulator(proto, n, arrivals, error_model=error_model,
                         rng=RngStream(seed), **kwargs)


class TestBasicDelivery:
    def test_single_downlink_frame_delivered(self):
        sim = _sim(Dot11Protocol, [_downlink(0.001, "sta0")])
        summary = sim.run(1.0)
        assert summary.delivered_downlink_frames == 1
        assert summary.downlink_goodput_bps == pytest.approx(8 * 300 / 1.0)

    def test_uplink_frame_delivered(self):
        sim = _sim(Dot11Protocol, [_uplink(0.001, "sta0")])
        summary = sim.run(1.0)
        assert summary.delivered_uplink_frames == 1

    def test_all_frames_delivered_under_light_load(self):
        arrivals = [_downlink(0.01 * i, f"sta{i % 4}") for i in range(50)]
        summary = _sim(Dot11Protocol, arrivals).run(2.0)
        assert summary.delivered_downlink_frames == 50
        assert summary.dropped_frames == 0

    def test_delay_includes_queueing(self):
        sim = _sim(Dot11Protocol, [_downlink(0.001, "sta0")])
        summary = sim.run(1.0)
        # Delay ≥ DIFS + frame airtime; well under a millisecond when idle.
        assert 30e-6 < summary.downlink_mean_delay < 2e-3

    def test_empty_workload(self):
        summary = _sim(Dot11Protocol, []).run(0.5)
        assert summary.delivered_downlink_frames == 0
        assert summary.transmissions == 0


class TestErrorsAndRetries:
    def test_certain_failure_drops_after_retry_limit(self):
        sim = _sim(Dot11Protocol, [_downlink(0.001, "sta0")],
                   error_model=FixedFerModel(1.0))
        summary = sim.run(1.0)
        assert summary.delivered_downlink_frames == 0
        assert summary.dropped_frames == 1
        assert summary.retransmitted_subframes == DEFAULT_PARAMETERS.retry_limit + 1

    def test_partial_fer_eventually_delivers(self):
        arrivals = [_downlink(0.002 * i, "sta0") for i in range(30)]
        sim = _sim(Dot11Protocol, arrivals, error_model=FixedFerModel(0.3))
        summary = sim.run(2.0)
        assert summary.delivered_downlink_frames >= 28
        assert summary.retransmitted_subframes > 0

    def test_failed_subframes_requeued_with_priority(self):
        """After a Carpool subframe fails, its frames ship in the very next
        AP transmission."""
        arrivals = [
            _downlink(0.0005, "sta0"),
            _downlink(0.0006, "sta1"),
        ]

        class FailFirstModel:
            def __init__(self):
                self.calls = 0

            def subframe_success_probability(self, start, n, rte):
                self.calls += 1
                # Only the very first subframe fails: no uniform is < 0.
                return 0.0 if self.calls == 1 else 1.0

        sim = _sim(CarpoolProtocol, arrivals, error_model=FailFirstModel())
        summary = sim.run(1.0)
        assert summary.delivered_downlink_frames == 2
        assert summary.retransmitted_subframes == 1


class TestContention:
    def test_collisions_happen_under_pressure(self):
        arrivals = []
        for i in range(8):
            arrivals.extend(_uplink(0.0001 + 0.01 * k, f"sta{i}") for k in range(60))
        arrivals.sort(key=lambda a: a.time)
        summary = _sim(Dot11Protocol, arrivals, n=8).run(1.0)
        assert summary.collisions > 0

    def test_channel_never_overbooked(self):
        arrivals = [_downlink(0.001 * i, f"sta{i % 4}", size=1500) for i in range(500)]
        summary = _sim(AmpduProtocol, arrivals).run(1.0)
        assert summary.channel_busy_fraction <= 1.0

    def test_backoff_is_deterministic_given_seed(self):
        arrivals = [_downlink(0.001 * i, f"sta{i % 3}") for i in range(60)]
        s1 = _sim(Dot11Protocol, list(arrivals), seed=9).run(1.0)
        s2 = _sim(Dot11Protocol, list(arrivals), seed=9).run(1.0)
        assert s1.downlink_goodput_bps == s2.downlink_goodput_bps
        assert s1.collisions == s2.collisions

    def test_different_seeds_differ(self):
        arrivals = []
        for k in range(100):
            arrivals.extend(_uplink(0.005 * k, f"sta{i}") for i in range(4))
        s1 = _sim(Dot11Protocol, list(arrivals), seed=1).run(1.0)
        s2 = _sim(Dot11Protocol, list(arrivals), seed=2).run(1.0)
        assert s1.collisions != s2.collisions


class TestAggregationBehaviour:
    def test_carpool_fewer_transmissions_than_dot11(self):
        arrivals = []
        for k in range(100):
            for i in range(6):
                arrivals.append(_downlink(0.002 * k + 1e-5 * i, f"sta{i}", size=200))
        arrivals.sort(key=lambda a: a.time)
        dot11 = _sim(Dot11Protocol, list(arrivals), n=6).run(1.0)
        carpool = _sim(CarpoolProtocol, list(arrivals), n=6).run(1.0)
        assert carpool.transmissions < 0.5 * dot11.transmissions
        assert carpool.delivered_downlink_frames == dot11.delivered_downlink_frames

    def test_rts_cts_adds_overhead(self):
        arrivals = [_downlink(0.001 * i, f"sta{i % 4}") for i in range(50)]
        plain = _sim(CarpoolProtocol, list(arrivals)).run(1.0)
        with_rts = _sim(CarpoolProtocol, list(arrivals), use_rts_cts=True).run(1.0)
        assert with_rts.busy_time if hasattr(with_rts, "busy_time") else True
        assert with_rts.channel_busy_fraction > plain.channel_busy_fraction


class TestMultiAp:
    def test_two_aps_both_deliver(self):
        arrivals = [
            _downlink(0.001, "sta0"),
            Arrival(time=0.002, source="ap1", destination="b1_sta0",
                    size_bytes=300, direction=Direction.DOWNLINK),
        ]
        proto = Dot11Protocol(DEFAULT_PARAMETERS)
        sim = WlanSimulator(proto, 2, arrivals, error_model=PERFECT,
                            rng=RngStream(5), num_aps=2,
                            station_names=["sta0", "b1_sta0"])
        summary = sim.run(1.0)
        assert summary.delivered_downlink_frames == 2
        assert sim.metrics.goodput_of_source(AP_NAME, 1.0) == pytest.approx(2400.0)
        assert sim.metrics.goodput_of_source("ap1", 1.0) == pytest.approx(2400.0)

    def test_unknown_arrival_source_raises(self):
        sim = _sim(Dot11Protocol, [Arrival(time=0.001, source="ghost",
                                           destination="sta0", size_bytes=100)])
        with pytest.raises(KeyError):
            sim.run(0.1)


class TestValidation:
    def test_zero_stations_rejected(self):
        with pytest.raises(ValueError):
            WlanSimulator(Dot11Protocol(DEFAULT_PARAMETERS), 0, [])

    def test_zero_aps_rejected(self):
        with pytest.raises(ValueError):
            WlanSimulator(Dot11Protocol(DEFAULT_PARAMETERS), 1, [], num_aps=0)

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError):
            _sim(Dot11Protocol, []).run(0.0)
