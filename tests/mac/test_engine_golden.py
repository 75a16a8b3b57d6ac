"""Golden trajectories: the MAC engine's output, pinned digest for digest.

Every case runs one :class:`WlanSimulator` with its event timeline on and
hashes what the run produced: the :class:`MetricsSummary`, the full
``(time, event, node, detail)`` timeline, per-node airtime and the hidden
collision count. ``engine_golden.json`` holds the sha256 of each case as
the slot-by-slot engine produced it, so any rewrite of the contention
loop must reproduce that engine's trajectories exactly, not just its
averages.

This file is also the oracle for the subframe error draws: the engine
has one draw path (:class:`~repro.mac.error_model.SubframeDraws`), and a
change in how it consumes the ``errors`` stream moves these digests.

Cases: every protocol x seeds {1, 7, 42} over six families (a 2-AP VoIP
cell and a CBR cell with background load, each with and without a mixed
fault plan; hidden pairs with and without RTS/CTS), plus a
``Carpool-fallback`` family under A-HDR corruption whose re-promotions
turn a legacy-headed AP queue back into an aggregation wait mid-countdown.

Re-record (only after a deliberate change of simulated behaviour):
``PYTHONPATH=src python tests/mac/test_engine_golden.py --record``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import sys

import pytest

from repro.faults import FaultPlan, FaultSpec
from repro.mac import PROTOCOLS
from repro.mac.engine import AP_NAME, WlanSimulator
from repro.mac.frames import Arrival, Direction
from repro.mac.parameters import DEFAULT_PARAMETERS
from repro.mac.protocols.base import AggregationLimits
from repro.mac.scenarios import CbrScenario, VoipScenario
from repro.util.rng import RngStream

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "engine_golden.json")

SEEDS = (1, 7, 42)

MIXED_FAULTS = FaultPlan.of(
    FaultSpec.make("ahdr_corruption", probability=0.3, miss_probability=0.5,
                   false_match_probability=0.2),
    FaultSpec.make("ack_loss", probability=0.05),
    FaultSpec.make("mac_burst", probability=0.5, mean_good=0.05, mean_bad=0.005),
    FaultSpec.make("hidden_window", probability=0.05, start=0.1, stop=0.3),
)

AHDR_OUTAGES = FaultPlan.of(
    FaultSpec.make("ahdr_corruption", probability=0.7, miss_probability=1.0),
)


def _scenario_sim(scenario, protocol_cls, limits) -> WlanSimulator:
    """A simulator wired exactly as ``scenario.run`` wires its own."""
    arrivals, stations = scenario.build_arrivals()
    return WlanSimulator(
        protocol_cls(scenario.params, limits),
        num_stations=len(stations),
        arrivals=arrivals,
        params=scenario.params,
        error_model=scenario.error_model,
        rng=RngStream(scenario.seed).child("sim"),
        num_aps=scenario.num_aps,
        station_names=stations,
        faults=scenario.fault_plan,
    )


def _voip(protocol_cls, seed, faults=None):
    scenario = VoipScenario(num_stations=4, num_aps=2, duration=0.4,
                            seed=seed, fault_plan=faults)
    return _scenario_sim(scenario, protocol_cls, scenario.limits), 0.4


def _cbr(protocol_cls, seed, faults=None, stations=5, duration=0.4,
         latency=0.010):
    scenario = CbrScenario(num_stations=stations, num_aps=1, duration=duration,
                           seed=seed, frame_bytes=300, frames_per_second=200.0,
                           latency_requirement=latency, with_background=True,
                           fault_plan=faults)
    limits = AggregationLimits(max_frame_bytes=scenario.max_frame_bytes,
                               max_latency=scenario.latency_requirement)
    return _scenario_sim(scenario, protocol_cls, limits), duration


def _hidden(protocol_cls, seed, rts_cts):
    """Saturating up- and downlink with two STAs hidden from the AP."""
    arrivals = []
    for k in range(300):
        arrivals.append(Arrival(time=0.0002 + 0.001 * k, source=AP_NAME,
                                destination=f"sta{k % 4}", size_bytes=600,
                                direction=Direction.DOWNLINK))
        for i in range(4):
            arrivals.append(Arrival(time=0.0004 + 0.001 * k + 1e-5 * i,
                                    source=f"sta{i}", destination=AP_NAME,
                                    size_bytes=400, direction=Direction.UPLINK))
    arrivals.sort(key=lambda a: a.time)
    protocol = protocol_cls(DEFAULT_PARAMETERS, AggregationLimits(max_latency=0.005))
    sim = WlanSimulator(protocol, 4, arrivals, rng=RngStream(seed),
                        hidden_pairs={(AP_NAME, "sta2"), (AP_NAME, "sta3")},
                        use_rts_cts=rts_cts)
    return sim, 0.3


FAMILIES = {
    "voip": lambda cls, seed: _voip(cls, seed),
    "voip-faults": lambda cls, seed: _voip(cls, seed, MIXED_FAULTS),
    "cbr": lambda cls, seed: _cbr(cls, seed),
    "cbr-faults": lambda cls, seed: _cbr(cls, seed, MIXED_FAULTS),
    "hidden": lambda cls, seed: _hidden(cls, seed, rts_cts=False),
    "hidden-rts": lambda cls, seed: _hidden(cls, seed, rts_cts=True),
}


def _fallback_case(stations):
    """A 10-ms cooldown and a 30-ms aggregation deadline make re-promotion
    land while the AP counts down for a legacy head (46 times in 31 of the
    120 cases), which parks the AP's backoff until its aggregate is due."""
    def build(cls, seed):
        fast_cycle = functools.partial(cls, cooldown=0.01)
        return _cbr(fast_cycle, seed, AHDR_OUTAGES, stations=stations,
                    duration=0.6, latency=0.03)
    return build


def cases() -> list:
    """(case id, protocol name, seed, builder) for every golden case."""
    out = []
    for family, build in FAMILIES.items():
        for name in sorted(PROTOCOLS):
            for seed in SEEDS:
                out.append((f"{family}/{name}/{seed}", name, seed, build))
    for stations in (1, 3, 5):
        build = _fallback_case(stations)
        for seed in range(40):
            out.append((f"fallback-ahdr/{stations}sta/{seed}",
                        "Carpool-fallback", seed, build))
    return out


def trajectory_digest(protocol_name, seed, build) -> str:
    """sha256 of one run's summary, timeline, airtime and hidden collisions."""
    sim, duration = build(PROTOCOLS[protocol_name], seed)
    sim.enable_timeline()
    summary = sim.run(duration)
    record = {
        "summary": dataclasses.asdict(summary),
        "timeline": sim.timeline,
        "airtime_by_node": sim.airtime_by_node,
        "hidden_collisions": sim.hidden_collisions,
        "offered_frames": sim.metrics.offered_frames,
        "demotions": getattr(sim.protocol, "demotions", 0),
        "repromotions": getattr(sim.protocol, "repromotions", 0),
    }
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


CASES = cases()


def test_golden_file_covers_every_case():
    assert set(_golden()) == {case_id for case_id, *_ in CASES}


@pytest.mark.parametrize(("case_id", "protocol", "seed", "build"), CASES,
                         ids=[case[0] for case in CASES])
def test_engine_trajectory_is_unchanged(case_id, protocol, seed, build):
    assert trajectory_digest(protocol, seed, build) == _golden()[case_id]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_engine_golden.py --record")
    table = {case_id: trajectory_digest(protocol, seed, build)
             for case_id, protocol, seed, build in CASES}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(table)} cases")
