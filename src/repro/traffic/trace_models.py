"""Statistical models of the public-WLAN traces the paper characterises.

We have no access to the raw SIGCOMM'04/'08 pcaps or the authors' campus
library captures, so — per the reproduction's substitution rules — each
trace is replaced by a synthesizer matched to the *published statistics*
(Fig. 1): frame-size CDF, downlink traffic ratio and, for the library
trace, the active-STA process (mean 7.63 concurrently active STAs per AP).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.rng import RngStream

__all__ = [
    "TraceModel",
    "SIGCOMM04",
    "SIGCOMM08",
    "LIBRARY",
    "TRACE_MODELS",
    "sample_frame_sizes",
    "active_sta_timeseries",
]


@dataclass(frozen=True)
class TraceModel:
    """A public-WLAN trace reduced to its reproducible statistics.

    Attributes:
        name: Trace label.
        downlink_ratio: Fraction of traffic volume on the downlink
            (Fig. 1(c): 80 % / 83.4 % / 89.2 %).
        size_points: Piecewise-linear frame-size CDF as (bytes, F(bytes))
            knots; sizes are sampled by inverse transform.
        tcp_interarrival: Mean TCP inter-packet time per client (s).
        udp_interarrival: Mean UDP inter-packet time per client (s).
    """

    name: str
    downlink_ratio: float
    size_points: tuple
    tcp_interarrival: float = 0.047
    udp_interarrival: float = 0.088

    def __post_init__(self):
        if not 0 < self.downlink_ratio < 1:
            raise ValueError("downlink ratio must be in (0, 1)")
        cdf = [p for _, p in self.size_points]
        if cdf != sorted(cdf) or cdf[-1] != 1.0:
            raise ValueError("size CDF knots must be increasing and end at 1")

    def quantile(self, u):
        """Inverse CDF: frame size at probability ``u`` (vectorised)."""
        sizes = np.array([s for s, _ in self.size_points], dtype=float)
        probs = np.array([p for _, p in self.size_points], dtype=float)
        return np.interp(u, probs, sizes)

    def frame_sizes(self, u) -> np.ndarray:
        """Whole-byte frame sizes (at least 1) at probabilities ``u``."""
        return np.maximum(np.round(self.quantile(u)), 1).astype(int)

    def cdf(self, size):
        """Fraction of frames not larger than ``size`` (vectorised)."""
        sizes = np.array([s for s, _ in self.size_points], dtype=float)
        probs = np.array([p for _, p in self.size_points], dtype=float)
        return np.interp(size, sizes, probs)


# Knots chosen to match Fig. 1(b): the SIGCOMM CDF crosses 50 % just above
# 300 B with a heavy MTU-sized tail; the library CDF has >90 % below 300 B.
SIGCOMM04 = TraceModel(
    name="SIGCOMM'04",
    downlink_ratio=0.80,
    size_points=((40, 0.0), (90, 0.28), (200, 0.44), (300, 0.52), (576, 0.62),
                 (1000, 0.72), (1400, 0.85), (1500, 1.0)),
)

SIGCOMM08 = TraceModel(
    name="SIGCOMM'08",
    downlink_ratio=0.834,
    size_points=((40, 0.0), (90, 0.30), (200, 0.46), (300, 0.54), (576, 0.64),
                 (1000, 0.74), (1400, 0.86), (1500, 1.0)),
)

LIBRARY = TraceModel(
    name="Library",
    downlink_ratio=0.892,
    size_points=((40, 0.0), (80, 0.35), (150, 0.66), (250, 0.86), (300, 0.91),
                 (600, 0.95), (1200, 0.97), (1500, 1.0)),
)

TRACE_MODELS = {m.name: m for m in (SIGCOMM04, SIGCOMM08, LIBRARY)}


def sample_frame_sizes(model: TraceModel, count: int, rng: RngStream) -> np.ndarray:
    """Draw ``count`` frame sizes (bytes) from the model's CDF."""
    if count < 0:
        raise ValueError("count must be non-negative")
    return model.frame_sizes(rng.uniform(0.0, 1.0, size=count))


def active_sta_timeseries(duration_s: int, rng: RngStream, num_stations: int = 20,
                          target_mean_active: float = 7.63) -> np.ndarray:
    """Per-second count of active STAs at one AP (Fig. 1(a)).

    Each of ``num_stations`` associated STAs flips between active and idle
    as a two-state Markov chain whose stationary active probability hits
    ``target_mean_active / num_stations``; dwell times are a few seconds,
    giving the second-scale churn visible in the paper's plot.
    """
    if num_stations < 1:
        raise ValueError("need at least one station")
    p_active = target_mean_active / num_stations
    if not 0 < p_active < 1:
        raise ValueError("target mean must be between 0 and num_stations")
    mean_dwell_active = 5.0
    mean_dwell_idle = mean_dwell_active * (1 - p_active) / p_active
    p_leave_active = 1.0 / mean_dwell_active
    p_leave_idle = 1.0 / mean_dwell_idle

    gen = rng.child("active-stas").generator
    state = gen.random(num_stations) < p_active
    counts = np.empty(duration_s, dtype=int)
    for t in range(duration_s):
        counts[t] = int(state.sum())
        flips = gen.random(num_stations)
        leave = np.where(state, flips < p_leave_active, flips < p_leave_idle)
        state = np.where(leave, ~state, state)
    return counts
