import numpy as np
import pytest

from repro.mac.frames import Direction
from repro.traffic import (
    LIBRARY,
    SIGCOMM04,
    SIGCOMM08,
    BradyModel,
    TraceModel,
    active_sta_timeseries,
    background_uplink_arrivals,
    cbr_downlink_arrivals,
    merge_arrivals,
    offered_load_bps,
    sample_frame_sizes,
    trace_mixed_arrivals,
    voip_downlink_arrivals,
    voip_uplink_arrivals,
)
from repro.util.rng import RngStream

STAS = [f"sta{i}" for i in range(5)]


class TestBradyModel:
    def test_frame_interval_10ms(self):
        """96 kbit/s peak at 120 B frames ⇒ one frame every 10 ms (§7.2.2)."""
        assert BradyModel().frame_interval == pytest.approx(0.010)

    def test_activity_factor(self):
        model = BradyModel()
        assert model.activity_factor == pytest.approx(1.0 / 2.35)

    def test_mean_load(self):
        model = BradyModel()
        assert model.mean_offered_load_bps() == pytest.approx(96000 / 2.35)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BradyModel(peak_rate_bps=0)
        with pytest.raises(ValueError):
            BradyModel(mean_on=0)


class TestVoipArrivals:
    def test_sorted_and_flagged(self):
        arrivals = voip_downlink_arrivals(STAS, 10.0, RngStream(0))
        times = [a.time for a in arrivals]
        assert times == sorted(times)
        assert all(a.delay_sensitive for a in arrivals)
        assert all(a.direction == Direction.DOWNLINK for a in arrivals)
        assert all(a.source == "ap" for a in arrivals)

    def test_offered_load_near_model_mean(self):
        model = BradyModel()
        arrivals = voip_downlink_arrivals(STAS, 200.0, RngStream(1), model)
        load = offered_load_bps(arrivals, 200.0)
        expected = len(STAS) * model.mean_offered_load_bps()
        assert load == pytest.approx(expected, rel=0.2)

    def test_uplink_direction(self):
        arrivals = voip_uplink_arrivals(STAS, 5.0, RngStream(2))
        assert all(a.direction == Direction.UPLINK for a in arrivals)
        assert all(a.destination == "ap" for a in arrivals)

    def test_on_off_structure(self):
        """Gaps between a single flow's frames are either ≈10 ms (ON) or
        long silences."""
        arrivals = voip_downlink_arrivals(["sta0"], 60.0, RngStream(3))
        gaps = np.diff([a.time for a in arrivals])
        on_gaps = gaps[gaps < 0.02]
        assert on_gaps.size > 0
        assert np.allclose(on_gaps, 0.010, atol=1e-9)
        assert (gaps > 0.1).any()  # silences exist

    def test_deterministic(self):
        a1 = voip_downlink_arrivals(STAS, 5.0, RngStream(4))
        a2 = voip_downlink_arrivals(STAS, 5.0, RngStream(4))
        assert [a.time for a in a1] == [a.time for a in a2]


class TestTraceModels:
    def test_downlink_ratios_match_fig1c(self):
        assert SIGCOMM04.downlink_ratio == 0.80
        assert SIGCOMM08.downlink_ratio == 0.834
        assert LIBRARY.downlink_ratio == 0.892

    def test_library_mostly_small_frames(self):
        """Fig. 1(b): >90 % of library frames below 300 B."""
        sizes = sample_frame_sizes(LIBRARY, 20000, RngStream(5))
        assert (sizes <= 300).mean() > 0.88

    def test_sigcomm_half_small_frames(self):
        """Fig. 1(b): >50 % of SIGCOMM frames below ≈300 B."""
        sizes = sample_frame_sizes(SIGCOMM08, 20000, RngStream(6))
        assert 0.45 < (sizes <= 300).mean() < 0.65

    def test_sizes_within_mtu(self):
        sizes = sample_frame_sizes(SIGCOMM08, 5000, RngStream(7))
        assert sizes.min() >= 1
        assert sizes.max() <= 1500

    def test_quantile_cdf_inverse(self):
        for u in (0.1, 0.5, 0.9):
            size = SIGCOMM08.quantile(u)
            assert SIGCOMM08.cdf(size) == pytest.approx(u, abs=1e-9)

    def test_invalid_model_rejected(self):
        with pytest.raises(ValueError):
            TraceModel("bad", 1.5, ((100, 0.5), (1500, 1.0)))
        with pytest.raises(ValueError):
            TraceModel("bad", 0.8, ((100, 0.5), (1500, 0.9)))

    def test_active_sta_mean_matches_paper(self):
        """Fig. 1(a): mean ≈ 7.63 concurrently active STAs per AP."""
        counts = active_sta_timeseries(3000, RngStream(8))
        assert counts.mean() == pytest.approx(7.63, abs=0.8)
        assert counts.min() >= 0
        assert counts.std() > 0.5  # visible churn

    def test_mixed_trace_downlink_ratio(self):
        arrivals = trace_mixed_arrivals(STAS, 100.0, RngStream(9), LIBRARY)
        down = sum(a.size_bytes for a in arrivals if a.direction == Direction.DOWNLINK)
        total = sum(a.size_bytes for a in arrivals)
        assert down / total == pytest.approx(LIBRARY.downlink_ratio, abs=0.03)


class TestBackground:
    def test_rates_match_sigcomm(self):
        """§7.2.2: TCP every 47 ms, UDP every 88 ms per client."""
        arrivals = background_uplink_arrivals(["sta0"], 300.0, RngStream(10))
        rate = len(arrivals) / 300.0
        expected = 1 / 0.047 + 1 / 0.088
        assert rate == pytest.approx(expected, rel=0.15)

    def test_intensity_scales_rate(self):
        base = background_uplink_arrivals(["sta0"], 100.0, RngStream(11))
        heavy = background_uplink_arrivals(["sta0"], 100.0, RngStream(11), intensity=3.0)
        assert len(heavy) == pytest.approx(3 * len(base), rel=0.25)

    def test_invalid_intensity(self):
        with pytest.raises(ValueError):
            background_uplink_arrivals(["sta0"], 1.0, RngStream(0), intensity=0.0)

    @pytest.mark.parametrize("model", [SIGCOMM04, SIGCOMM08, LIBRARY])
    def test_flow_matches_per_frame_sampling(self, model):
        """Mapping a flow's sizes in one vectorised pass draws and rounds
        exactly as sampling each frame on its own did."""
        from repro.traffic.background import _poisson_flow

        for seed in range(20):
            rng = RngStream(seed).child("flow")
            expected = []
            t = float(rng.exponential(0.004))
            while t < 2.0:
                size = int(sample_frame_sizes(model, 1, rng)[0])
                expected.append((t, size))
                t += float(rng.exponential(0.004))
            flow = _poisson_flow("sta0", "ap", Direction.UPLINK, 2.0, 0.004,
                                 model, RngStream(seed).child("flow"))
            assert [(a.time, a.size_bytes) for a in flow] == expected
            assert all(type(a.size_bytes) is int for a in flow)
        assert _poisson_flow("sta0", "ap", Direction.UPLINK, 1e-9, 10.0,
                             model, RngStream(0)) == []


class TestFlows:
    def test_cbr_rate(self):
        arrivals = cbr_downlink_arrivals(STAS, 10.0, 120, 100.0, RngStream(12))
        assert len(arrivals) == pytest.approx(5 * 10 * 100, rel=0.05)

    def test_cbr_invalid(self):
        with pytest.raises(ValueError):
            cbr_downlink_arrivals(STAS, 1.0, 0, 100.0, RngStream(0))

    def test_cbr_jitter_boundary(self):
        """Regression: jitter >= 1 lets the gap hit zero or go negative,
        stalling or reversing the arrival clock — the boundary is open."""
        for bad in (1.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                cbr_downlink_arrivals(STAS, 1.0, 120, 100.0, RngStream(0),
                                      jitter=bad)
        # Just inside the boundary the clock always advances: gaps stay
        # strictly positive and the stream stays time-sorted per STA.
        arrivals = cbr_downlink_arrivals(["sta0"], 5.0, 120, 200.0,
                                         RngStream(16), jitter=0.999)
        times = [a.time for a in arrivals]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_cbr_zero_jitter_is_exact_cbr(self):
        arrivals = cbr_downlink_arrivals(["sta0"], 2.0, 120, 100.0,
                                         RngStream(17), jitter=0.0)
        gaps = [b.time - a.time for a, b in zip(arrivals, arrivals[1:])]
        assert all(g == pytest.approx(0.01, abs=1e-12) for g in gaps)

    def test_merge_sorted(self):
        a = cbr_downlink_arrivals(["sta0"], 2.0, 100, 50.0, RngStream(13))
        b = background_uplink_arrivals(["sta1"], 2.0, RngStream(14))
        merged = merge_arrivals(a, b)
        times = [x.time for x in merged]
        assert times == sorted(times)
        assert len(merged) == len(a) + len(b)

    def test_offered_load_by_direction(self):
        a = cbr_downlink_arrivals(["sta0"], 10.0, 125, 100.0, RngStream(15))
        load = offered_load_bps(a, 10.0, Direction.DOWNLINK)
        assert load == pytest.approx(100 * 125 * 8, rel=0.05)
        assert offered_load_bps(a, 10.0, Direction.UPLINK) == 0.0
