"""The calibration cache is a pure optimisation of the MAC sweep."""

import dataclasses

import pytest

from repro.analysis.calibration import clear_calibration_cache
from repro.mac.sweep import SweepConfig, goodput_airtime_sweep


@pytest.mark.slow
def test_sweep_cached_uncached_parity():
    """The full sweep path: cached == uncached, cell by cell."""
    cached = SweepConfig(
        receiver_counts=(2, 4), payload_bytes=(256, 1024), trials=2,
        duration=0.3, calibration_payload=400, calibration_trials=2,
        cache=True,
    )
    uncached = dataclasses.replace(cached, cache=False)
    clear_calibration_cache()
    uncached_cells = goodput_airtime_sweep(uncached)
    cached_cells = goodput_airtime_sweep(cached)
    assert [c.per_trial_goodput for c in uncached_cells] == \
        [c.per_trial_goodput for c in cached_cells]
    assert [c.goodput_bps for c in uncached_cells] == \
        [c.goodput_bps for c in cached_cells]
    clear_calibration_cache()
