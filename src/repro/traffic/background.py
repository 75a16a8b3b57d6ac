"""SIGCOMM-trace-driven UDP/TCP background traffic (§7.2.2, Fig. 16).

The paper injects uplink TCP/UDP according to the SIGCOMM'08 trace:
mean inter-packet arrivals of 47 ms (TCP) and 88 ms (UDP) per client, with
frame sizes drawn from the trace's size distribution. Arrival processes
are Poisson (exponential gaps), the standard reduction for trace-driven
background load.
"""

from __future__ import annotations

from repro.mac.frames import Arrival, Direction
from repro.traffic.trace_models import SIGCOMM08, TraceModel, sample_frame_sizes
from repro.util.rng import RngStream

__all__ = ["background_uplink_arrivals", "trace_mixed_arrivals"]


def _poisson_flow(source: str, destination: str, direction: str, duration: float,
                  mean_interarrival: float, model: TraceModel, rng: RngStream) -> list:
    # Scalar draws in stream order (gap, size probability, gap, ...), as
    # sampling one frame size at a time would take them; the sizes are
    # then mapped in one vectorised pass.
    gen = rng.generator
    times, quantiles = [], []
    t = float(gen.exponential(mean_interarrival))
    while t < duration:
        times.append(t)
        quantiles.append(gen.uniform(0.0, 1.0))
        t += float(gen.exponential(mean_interarrival))
    sizes = model.frame_sizes(quantiles).tolist()
    return [
        Arrival(time=t, source=source, destination=destination,
                size_bytes=size, delay_sensitive=False, direction=direction)
        for t, size in zip(times, sizes)
    ]


def background_uplink_arrivals(station_names: list, duration: float, rng: RngStream,
                               model: TraceModel = SIGCOMM08, ap_name: str = "ap",
                               intensity: float = 1.0) -> list:
    """Per-STA uplink TCP + UDP background load, SIGCOMM'08 statistics.

    ``intensity`` scales the arrival rates: 1.0 is the per-client mean of
    the trace; the Fig. 17 benchmarks use a higher value to reach the
    saturated busy-network regime the paper evaluates there.
    """
    if intensity <= 0:
        raise ValueError("intensity must be positive")
    arrivals = []
    for sta in station_names:
        arrivals.extend(
            _poisson_flow(sta, ap_name, Direction.UPLINK, duration,
                          model.tcp_interarrival / intensity, model,
                          rng.child(f"tcp-{sta}"))
        )
        arrivals.extend(
            _poisson_flow(sta, ap_name, Direction.UPLINK, duration,
                          model.udp_interarrival / intensity, model,
                          rng.child(f"udp-{sta}"))
        )
    arrivals.sort(key=lambda a: a.time)
    return arrivals


def trace_mixed_arrivals(station_names: list, duration: float, rng: RngStream,
                         model: TraceModel, packets_per_second: float = 200.0,
                         ap_name: str = "ap") -> list:
    """A full synthetic trace with the model's downlink/uplink volume split.

    Used by the Fig. 1 reproduction to verify the synthesizers match the
    published downlink ratios; the MAC benchmarks use the more specific
    generators above.
    """
    arrivals = []
    gen = rng.child("mixed")
    t = 0.0
    mean_gap = 1.0 / packets_per_second
    sta_count = len(station_names)
    if sta_count == 0:
        raise ValueError("need at least one station")
    while t < duration:
        t += float(gen.exponential(mean_gap))
        if t >= duration:
            break
        size = int(sample_frame_sizes(model, 1, gen)[0])
        sta = station_names[int(gen.integers(0, sta_count))]
        # Volume split: route bytes downlink with probability = ratio.
        if gen.uniform() < model.downlink_ratio:
            arrivals.append(Arrival(time=t, source=ap_name, destination=sta,
                                    size_bytes=size, direction=Direction.DOWNLINK))
        else:
            arrivals.append(Arrival(time=t, source=sta, destination=ap_name,
                                    size_bytes=size, direction=Direction.UPLINK))
    return arrivals
