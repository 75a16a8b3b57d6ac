"""The benchmark's three workloads, built from a seed and run through public entry points.

Each workload is one closed loop with a single caller: a *unit* is one
pass over the workload's schemes, every simulation starting when the
previous one returns. A unit returns one :class:`Outcome` per simulation
(an "operation"), carrying the simulated statistics that the output check
digests, plus the work counts the throughput metrics divide by.

* ``voip-dense`` -- the Fig. 15 cell: 2 co-channel APs x 30 STAs, Brady
  VoIP with uplink, 802.11 / A-MPDU / Carpool through ``VoipScenario.run``
  (in-process; never enters ``repro.runtime``).
* ``deploy-roaming`` -- the E-NET saturated floor: 9 co-channel APs x 25
  random-waypoint STAs, CBR 200 f/s x 300 B plus SIGCOMM'08 background,
  coupling on, the same three schemes through ``simulate_deployment``'s
  streaming ``shards=`` path on a 2-worker pool.
* ``phy-ber`` -- the Fig. 3/13 link: QAM64-3/4 4090-B frames at power 0.2
  over the office channel, standard estimator then RTE, through
  ``ber_by_symbol_index`` on a 2-worker pool.

``size="tiny"`` shrinks every workload for the benchmark's own smoke tests;
the paper's direction still holds at that size.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np

#: Pool width of the pooled workloads (the reference box has 2 cores).
POOL_WORKERS = 2


@dataclasses.dataclass
class Outcome:
    """One simulation call: its name, statistics and work counts."""

    name: str
    stats: dict
    #: Simulated channel accesses (MAC transmissions + collisions, or
    #: frames sent through the PHY channel model).
    accesses: int
    #: Frames that reached a receiver's decoder: MAC transmissions that did
    #: not collide, or 4090-B PHY frames decoded.
    frames: int
    #: The scalar the paper's direction is judged on (higher is better).
    score: float

    @property
    def digest(self) -> str:
        return stats_digest(self.stats)


def stats_digest(stats) -> str:
    """sha256 of the canonical JSON of ``stats`` (floats at full precision)."""
    text = json.dumps(stats, sort_keys=True, separators=(",", ":"),
                      default=_jsonable)
    return hashlib.sha256(text.encode()).hexdigest()


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"cannot digest {type(value).__name__}")


def _noop_trial(index, rng):
    return index


class VoipDense:
    """Fig. 15 cell: 62 contenders in one collision domain."""

    name = "voip-dense"
    pooled = False
    schemes = ("802.11", "A-MPDU", "Carpool")

    def __init__(self, seed: int, size: str = "full"):
        from repro.mac.scenarios import VoipScenario

        self.scenario = VoipScenario(
            num_stations=30, num_aps=2,
            duration=1.0 if size == "full" else 0.5, seed=seed,
        )

    def warm(self) -> None:
        """Nothing to start: the cell runs in-process."""

    def run_unit(self, n_workers: int = POOL_WORKERS) -> list:
        from repro.mac.protocols import PROTOCOLS

        out = []
        for scheme in self.schemes:
            result = self.scenario.run(PROTOCOLS[scheme])
            out.append(Outcome(
                name=result.protocol, stats=dataclasses.asdict(result),
                accesses=result.transmissions + result.collisions,
                frames=result.transmissions,
                score=result.measured_ap_useful_goodput_bps,
            ))
        return out

    @staticmethod
    def layer_totals(outcomes: list) -> dict:
        """Simulated MAC outcomes of a unit (must not move under a speed-up)."""
        return _mac_totals([o.stats for o in outcomes])


class DeployRoaming:
    """E-NET saturated 9-AP co-channel floor, streamed over 2 pool workers."""

    name = "deploy-roaming"
    pooled = True
    schemes = ("802.11", "A-MPDU", "Carpool")
    #: One cell per shard: nine chunks keep both workers busy whatever the
    #: seed's cell sizes, where three chunks on two workers leave one idle.
    shards = 9

    def __init__(self, seed: int, size: str = "full"):
        from repro.net.deployment import DeploymentConfig

        if size == "full":
            shape = dict(n_aps=9, stas_per_ap=25, duration=0.5)
        else:
            shape = dict(n_aps=4, stas_per_ap=12, duration=0.2)
        self.base = DeploymentConfig(
            seed=seed, channels=1, frames_per_second=200.0, frame_bytes=300,
            mobility=True, hysteresis_db=2.0, coupling=True,
            with_background=True, **shape,
        )

    def warm(self) -> None:
        """Start the persistent 2-worker pool the sharded runs reuse."""
        from repro.runtime.trials import run_trials

        run_trials(_noop_trial, POOL_WORKERS, seed=0,
                   n_workers=POOL_WORKERS, chunk_size=1)

    def run_unit(self, n_workers: int = POOL_WORKERS) -> list:
        from repro.net.deployment import simulate_deployment

        out = []
        for scheme in self.schemes:
            config = dataclasses.replace(self.base, protocol=scheme)
            result, agg = simulate_deployment(
                config, n_workers=n_workers, use_cache=False,
                shards=self.shards, return_aggregate=True,
            )
            stats = result.to_dict()
            stats["aggregate"] = {
                "transmissions": agg.transmissions,
                "collisions": agg.collisions,
                "retransmitted_subframes": agg.retransmitted_subframes,
                "dropped_frames": agg.dropped_frames,
                "delivered_by_sta": dict(agg.delivered_by_sta),
            }
            out.append(Outcome(
                name=scheme, stats=stats,
                accesses=agg.transmissions + agg.collisions,
                frames=agg.transmissions,
                score=result.total_useful_goodput_bps,
            ))
        return out

    @staticmethod
    def layer_totals(outcomes: list) -> dict:
        totals = _mac_totals([o.stats["aggregate"] for o in outcomes])
        totals["net.roams"] = sum(o.stats["n_roams"] for o in outcomes)
        totals["net.coupled_cells"] = sum(
            o.stats["n_coupled_cells"] for o in outcomes)
        return totals


class PhyBer:
    """Fig. 3/13 RTE link: standard estimator, then RTE, on 2 pool workers."""

    name = "phy-ber"
    pooled = True
    schemes = ("Standard", "RTE")
    mcs = "QAM64-3/4"
    payload_bytes = 4090

    def __init__(self, seed: int, size: str = "full"):
        from repro.analysis import LinkConfig

        self.link = LinkConfig(seed=seed, power_magnitude=0.2)
        self.trials = 40 if size == "full" else 6

    def _ber(self, trials: int, use_rte: bool, n_workers: int):
        from repro.analysis import ber_by_symbol_index

        return ber_by_symbol_index(
            self.mcs, self.payload_bytes, trials, use_rte=use_rte,
            link=self.link, n_workers=n_workers,
        )

    def warm(self) -> None:
        """Build the frame, start the pool it is shared with, and run both
        estimators once so the first timed unit pays no first-call costs.

        Two trials with the measured frame give the pool the same
        shared-memory payload the measured calls hash to, so they reuse it.
        """
        for use_rte in (False, True):
            self._ber(POOL_WORKERS, use_rte, POOL_WORKERS)

    def run_unit(self, n_workers: int = POOL_WORKERS) -> list:
        out = []
        for use_rte in (False, True):
            result = self._ber(self.trials, use_rte, n_workers)
            stats = dataclasses.asdict(result)
            tail = result.ber_per_symbol[-(result.ber_per_symbol.size // 4):]
            out.append(Outcome(
                name=result.scheme, stats=stats,
                accesses=result.trials, frames=result.trials,
                score=-float(tail.mean()),  # lower tail BER is better
            ))
        return out

    @staticmethod
    def layer_totals(outcomes: list) -> dict:
        """Data pilots accepted (symbols in CRC-passing groups) / symbols."""
        symbols = sum(o.stats["trials"] * len(o.stats["ber_per_symbol"])
                      for o in outcomes)
        passed = sum(o.stats["crc_pass_rate"] * o.stats["trials"]
                     * len(o.stats["ber_per_symbol"]) for o in outcomes)
        return {"core.crc_pass_frac": passed / symbols}


WORKLOADS = {w.name: w for w in (VoipDense, DeployRoaming, PhyBer)}


def direction_holds(outcomes: list) -> bool:
    """The paper's direction: each scheme beats the one listed before it.

    Carpool > A-MPDU > 802.11 on useful goodput; RTE below the standard
    estimator's tail BER.
    """
    scores = [o.score for o in outcomes]
    return all(a < b for a, b in zip(scores, scores[1:]))


def _mac_totals(stats: list) -> dict:
    tx = sum(s["transmissions"] for s in stats)
    coll = sum(s["collisions"] for s in stats)
    return {
        "mac.transmissions": tx,
        "mac.collisions": coll,
        "mac.collision_frac": coll / (tx + coll) if tx + coll else 0.0,
        "mac.retx_subframes": sum(s["retransmitted_subframes"] for s in stats),
        "mac.dropped_frames": sum(s["dropped_frames"] for s in stats),
    }
