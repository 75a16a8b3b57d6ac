"""Fast system-level MAC sweeps: goodput/airtime vs receivers × payload.

The paper's headline results (Figs. 10–14) are sweeps over exactly these
axes — receiver count, payload size, loss regime — each point a
Monte-Carlo average of full CSMA/CA simulations driven by a trace-driven
error model. This module is the fast path those sweeps run on, combining
two layers the rest of this package provides:

* **calibration caching** — every point calls
  :func:`~repro.analysis.calibration.calibrate_error_model`, exactly as a
  real sweep whose points may differ in SNR/MCS must; points sharing a
  configuration hit the :mod:`repro.runtime.cache` instead of re-running
  the PHY chain (``cache=False`` reproduces the old cost).
* **persistent parallel trials** — the whole receivers×payload grid
  flattens into *one* :func:`repro.runtime.run_trials` call with
  ``granularity=config.trials``: each chunk carries whole cells (tiles)
  of trials, the per-cell error models ship once per worker as a
  ``shared=`` payload, and the worker pool is reused across sweeps. The
  per-cell seeds are derived exactly as the old cell-at-a-time fan-out
  derived them, so flattening changes wall time only, never results.

``repro.runtime.bench.run_mac_bench`` times this sweep cached vs
uncached and asserts the results agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.runtime.trials import run_trials, shared_payload
from repro.util.rng import derive_seed

__all__ = ["SweepConfig", "SweepCell", "goodput_airtime_sweep"]


@dataclass(frozen=True)
class SweepConfig:
    """One receivers×payload sweep specification.

    ``receiver_counts`` and ``payload_bytes`` span the grid; every cell
    runs ``trials`` independent simulations of ``duration`` seconds and
    averages the per-run metrics. ``calibration_*`` size the per-point
    PHY calibration (small defaults keep the uncached leg affordable).
    """

    receiver_counts: tuple = (2, 4, 8)
    payload_bytes: tuple = (256, 1024, 4095)
    protocol: str = "Carpool"
    duration: float = 2.0
    trials: int = 3
    seed: int = 0
    mcs_name: str = "QAM64-3/4"
    calibration_payload: int = 1000
    calibration_trials: int = 4
    cache: bool = True


@dataclass
class SweepCell:
    """Averaged metrics of one (receivers, payload) grid point."""

    num_receivers: int
    payload_bytes: int
    goodput_bps: float
    useful_goodput_bps: float
    airtime_fraction: float
    mean_delay: float
    retransmitted_subframes: float
    trials: int
    per_trial_goodput: list = field(default_factory=list)


def _sweep_trial(trial_index, rng, num_receivers, payload_bytes, config, error_model):
    """One cell trial: a full CBR downlink run at a derived seed.

    Module-level (pickles into pool workers). The seed comes from the
    trial's own RNG, so results are identical for any worker count or
    chunking, and paired across cached/uncached legs.
    """
    from repro.mac import PROTOCOLS
    from repro.mac.scenarios import CbrScenario

    scenario = CbrScenario(
        num_stations=num_receivers,
        num_aps=1,
        duration=config.duration,
        seed=int(rng.integers(0, 2**31 - 1)),
        frame_bytes=payload_bytes,
        with_background=False,
        error_model=error_model,
    )
    result = scenario.run(PROTOCOLS[config.protocol])
    return (
        result.measured_ap_goodput_bps,
        result.measured_ap_useful_goodput_bps,
        result.channel_busy_fraction,
        result.downlink_mean_delay,
        result.retransmitted_subframes,
    )


def _cell_seed(config: SweepConfig, num_receivers: int, payload: int) -> int:
    """The root seed of one grid cell — same derivation the old
    cell-at-a-time fan-out used, so flattened sweeps reproduce it."""
    return derive_seed(config.seed, "mac-sweep",
                       f"r{num_receivers}", f"p{payload}")


def _sweep_flat_trial(trial_index, rng, config):
    """One trial of the flattened receivers×payload grid.

    ``trial_index`` addresses (cell, repeat) in row-major order; the cell
    specs (receivers, payload, error model, cell seed) come from the
    run's shared payload. The per-trial RNG is re-derived from the *cell*
    seed — ``SeedSequence(cell_seed).spawn(trials)[repeat]`` — exactly as
    a standalone per-cell ``run_trials`` would hand it out, so the
    flattened sweep is bit-identical to the historical one. The flat
    run's own ``rng`` goes unused for the same reason.
    """
    cells = shared_payload()["cells"]
    cell_index, repeat = divmod(trial_index, config.trials)
    num_receivers, payload, model, cell_seed = cells[cell_index]
    cell_rng = np.random.default_rng(
        np.random.SeedSequence(cell_seed).spawn(config.trials)[repeat])
    return _sweep_trial(repeat, cell_rng, num_receivers, payload, config, model)


def goodput_airtime_sweep(
    config: SweepConfig = SweepConfig(),
    n_workers: int | None = 1,
    chunk_size: int | str | None = None,
) -> list:
    """Run the receivers×payload grid; one :class:`SweepCell` per point.

    Every point re-derives its error model through the calibration cache
    (the uncached leg of the bench re-runs the PHY chain per point — the
    cost this subsystem removes), then the whole grid runs as one
    flattened :func:`run_trials` call with ``granularity=config.trials``:
    chunks carry whole cells, never fragments of one. Cell results are
    deterministic in ``config.seed`` for any ``n_workers`` /
    ``chunk_size`` (pass ``"auto"`` to size chunks from measured IPC
    cost).
    """
    from repro.analysis.calibration import calibrate_error_model

    specs = []
    for num_receivers in config.receiver_counts:
        for payload in config.payload_bytes:
            # Per-point calibration, like a sweep whose points vary in
            # SNR/MCS; identical points are cache hits when enabled.
            model = calibrate_error_model(
                mcs_name=config.mcs_name,
                payload_bytes=config.calibration_payload,
                trials=config.calibration_trials,
                cache=config.cache,
            )
            specs.append((num_receivers, payload, model,
                          _cell_seed(config, num_receivers, payload)))
    outcomes = run_trials(
        _sweep_flat_trial,
        len(specs) * config.trials,
        seed=config.seed,
        n_workers=n_workers,
        chunk_size=chunk_size,
        args=(config,),
        shared={"cells": specs},
        granularity=config.trials,
    )
    cells = []
    for index, (num_receivers, payload, _model, _seed) in enumerate(specs):
        tile = outcomes[index * config.trials:(index + 1) * config.trials]
        goodputs = [o[0] for o in tile]
        cells.append(SweepCell(
            num_receivers=num_receivers,
            payload_bytes=payload,
            goodput_bps=sum(goodputs) / len(goodputs),
            useful_goodput_bps=sum(o[1] for o in tile) / len(tile),
            airtime_fraction=sum(o[2] for o in tile) / len(tile),
            mean_delay=sum(o[3] for o in tile) / len(tile),
            retransmitted_subframes=sum(o[4] for o in tile) / len(tile),
            trials=config.trials,
            per_trial_goodput=goodputs,
        ))
    return cells
