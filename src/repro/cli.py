"""Command-line interface: run the reproduction's experiments directly.

    python -m repro list
    python -m repro phy --mcs QAM64-3/4 --trials 30
    python -m repro mac --stations 30 --background --duration 8
    python -m repro testbed
    python -m repro energy

Each subcommand drives the same library code the benchmarks use, with
knobs exposed for quick exploration.

Observability: the experiment subcommands accept ``--trace PATH`` (write
a structured JSONL event trace plus a ``.manifest.json`` provenance
record) and ``--metrics`` (print the merged counter/timer table after
the run); ``repro report PATH`` renders a trace into per-layer summary
tables, and the global ``--log-level`` flag turns on the library's
otherwise-silent ``repro`` logger.
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_obs_flags(sub) -> None:
    """Observability flags shared by the experiment subcommands."""
    sub.add_argument("--trace", metavar="PATH", default=None,
                     help="write a structured JSONL event trace to PATH "
                          "(plus PATH.manifest.json provenance); render it "
                          "with `repro report PATH`")
    sub.add_argument("--trace-sample", type=_positive_int, default=None,
                     metavar="N",
                     help="with --trace: also record every N-th per-symbol "
                          "PHY snapshot (EVM, estimate, CRC); default: none")
    sub.add_argument("--metrics", action="store_true",
                     help="collect counters/timers across the run and print "
                          "the merged table afterwards")


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Carpool (ICDCS 2015) reproduction — experiment runner",
    )
    parser.add_argument(
        "--log-level", default=None, metavar="LEVEL",
        choices=("DEBUG", "INFO", "WARNING", "ERROR", "debug", "info",
                 "warning", "error"),
        help="attach a stderr handler to the `repro` logger at LEVEL "
             "(default: library stays silent)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    phy = sub.add_parser("phy", help="BER-vs-symbol-index (Fig. 3/13) experiment")
    phy.add_argument("--mcs", default="QAM64-3/4")
    phy.add_argument("--trials", type=int, default=30)
    phy.add_argument("--payload", type=int, default=4090)
    phy.add_argument("--power", type=float, default=0.2)
    phy.add_argument("--seed", type=int, default=0)
    phy.add_argument("--workers", type=_positive_int, default=None,
                     help="process count for the trial runner (default: auto)")
    phy.add_argument("--profile", action="store_true",
                     help="run under cProfile, print top-20 by cumulative time")
    _add_obs_flags(phy)

    mac = sub.add_parser("mac", help="MAC goodput/latency comparison (Fig. 15/16)")
    mac.add_argument("--stations", type=int, default=30)
    mac.add_argument("--duration", type=float, default=8.0)
    mac.add_argument("--background", action="store_true")
    mac.add_argument("--seed", type=int, default=42)
    mac.add_argument("--protocols", nargs="*", default=None,
                     help="subset of: 802.11 A-MPDU MU-Aggregation WiFox Carpool")
    _add_obs_flags(mac)

    sub.add_parser("testbed", help="Fig. 10 office layout, SNRs and rates")
    sub.add_parser("energy", help="§8 energy-overhead estimate")

    faults = sub.add_parser(
        "faults", help="robustness sweeps: graceful degradation + RTE hardening")
    faults.add_argument("--mode", choices=["degradation", "rte"],
                        default="degradation",
                        help="degradation: MAC sweep under ACK loss / bursty "
                             "fades; rte: naive-vs-hardened estimator BER")
    faults.add_argument("--ack-loss", nargs="*", type=float,
                        default=[0.0, 0.1, 0.2, 0.3],
                        help="injected ACK-loss rates (degradation mode)")
    faults.add_argument("--bursty", action="store_true",
                        help="add Gilbert–Elliott fades + A-HDR outage windows")
    faults.add_argument("--stations", type=int, default=25)
    faults.add_argument("--duration", type=float, default=3.0)
    faults.add_argument("--trials", type=int, default=3)
    faults.add_argument("--mcs", default="QAM64-3/4",
                        help="modulation for rte mode")
    faults.add_argument("--seed", type=int, default=7)
    faults.add_argument("--workers", type=_positive_int, default=None,
                        help="process count for the trial runner (default: auto)")
    _add_obs_flags(faults)

    net = sub.add_parser(
        "net", help="multi-BSS deployment: protocol comparison at scale")
    net.add_argument("--aps", type=_positive_int, default=9)
    net.add_argument("--stas-per-ap", type=int, default=6)
    net.add_argument("--duration", type=float, default=3.0)
    net.add_argument("--seed", type=int, default=42)
    net.add_argument("--channels", type=_positive_int, default=1,
                     help="non-overlapping channels (1 = worst-case coupling)")
    net.add_argument("--sta-placement", choices=("uniform", "clustered", "hotspot"),
                     default="uniform")
    net.add_argument("--ap-placement", choices=("grid", "poisson"), default="grid")
    net.add_argument("--mobility", action="store_true",
                     help="random-waypoint pedestrian mobility with roaming")
    net.add_argument("--legacy-fraction", type=float, default=0.0,
                     help="fraction of STAs without Carpool capability")
    net.add_argument("--no-coupling", action="store_true",
                     help="disable inter-cell interference coupling")
    net.add_argument("--protocols", nargs="*", default=None,
                     help="subset of: 802.11 A-MPDU A-MSDU MU-Aggregation "
                          "WiFox Carpool (default: 802.11 A-MPDU Carpool)")
    net.add_argument("--no-cache", action="store_true",
                     help="bypass the deployment result cache")
    net.add_argument("--shards", type=_positive_int, default=None,
                     help="stream the deployment in K shards: workers "
                          "reduce cells before IPC, parent memory stays "
                          "constant (per-cell breakdown is skipped; "
                          "totals are bit-identical)")
    net.add_argument("--workers", type=_positive_int, default=None,
                     help="process count for the cell fan-out (default: auto)")
    _add_obs_flags(net)

    soak = sub.add_parser(
        "soak", help="long-running resumable soak service: epoch workloads "
                     "replayed through sharded deployments with rolling faults")
    soak.add_argument("--checkpoint", default="soak-checkpoint", metavar="DIR",
                      help="checkpoint directory (state.json / metrics.jsonl / "
                           "manifest.json); default: ./soak-checkpoint")
    soak.add_argument("--resume", action="store_true",
                      help="continue from the checkpoint (bit-identical to an "
                           "uninterrupted run of the same budgets)")
    soak.add_argument("--epochs", type=int, default=None,
                      help="stop once this many epochs have completed "
                           "(absolute count; default: no cap)")
    soak.add_argument("--duration", type=float, default=None, metavar="SECONDS",
                      help="wall-clock budget for this invocation; the epoch "
                           "in flight finishes and the run stays resumable")
    soak.add_argument("--users", type=int, default=None,
                      help="stop once this many cumulative users "
                           "(station-epochs) have been served")
    soak.add_argument("--fault-profile", default="none",
                      choices=("none", "bursty-loss", "hidden-terminal",
                               "deep-fade", "mixed"),
                      help="rolling impairment schedule sliding across epochs")
    soak.add_argument("--traffic", choices=("cbr", "voip", "trace-mixed"),
                      default="cbr", help="epoch traffic shape")
    soak.add_argument("--trace-model", default="SIGCOMM'08",
                      help="trace CDF for --traffic trace-mixed "
                           "(SIGCOMM'04 / SIGCOMM'08 / Library)")
    soak.add_argument("--seed", type=int, default=42)
    soak.add_argument("--aps", type=_positive_int, default=9)
    soak.add_argument("--max-stas-per-ap", type=_positive_int, default=16)
    soak.add_argument("--target-active-stas", type=float, default=6.0,
                      help="mean active STAs per AP the churn model targets")
    soak.add_argument("--epoch-duration", type=float, default=2.0,
                      help="simulated seconds per epoch")
    soak.add_argument("--channels", type=_positive_int, default=1)
    soak.add_argument("--protocol", default="Carpool")
    soak.add_argument("--background", action="store_true",
                      help="inject background uplink traffic in every cell")
    soak.add_argument("--shards", type=_positive_int, default=None,
                      help="stream each epoch's deployment in K shards "
                           "(constant parent memory)")
    soak.add_argument("--workers", type=_positive_int, default=None,
                      help="process count per epoch (default: auto)")
    soak.add_argument("--checkpoint-every", type=_positive_int, default=1,
                      metavar="N", help="rewrite state.json every N epochs")
    soak.add_argument("--telemetry", action="store_true",
                      help="write per-epoch telemetry.jsonl + health.json "
                           "beside the checkpoint (watch with `repro status`)")
    soak.add_argument("--slo", action="append", default=[], metavar="SPEC",
                      dest="slos",
                      help="SLO rule evaluated each epoch (implies "
                           "--telemetry); e.g. 'goodput_bps<2e6', "
                           "'mean:goodput_bps<2e6@5', "
                           "'trend:goodput_bps<-1e5@5!drain'; policies: "
                           "log (default) / checkpoint / drain; repeatable")
    soak.add_argument("--profile", action="store_true",
                      help="capture cross-worker profiles; aggregated into "
                           "the manifest's profile section")
    _add_obs_flags(soak)

    status = sub.add_parser(
        "status", help="render a soak checkpoint's live health, telemetry "
                       "tail, and cross-worker profile")
    status.add_argument("dir", help="soak checkpoint directory")
    status.add_argument("--follow", action="store_true",
                        help="re-render every --interval seconds until "
                             "interrupted")
    status.add_argument("--interval", type=float, default=2.0,
                        metavar="SECONDS",
                        help="polling period for --follow (default: 2)")
    status.add_argument("--tail", type=_positive_int, default=8,
                        help="telemetry epochs to show (default: 8)")
    status.add_argument("--top", type=_positive_int, default=10,
                        help="profile function rows (default: 10)")

    bench = sub.add_parser(
        "bench", help="timing harness → BENCH_phy.json / BENCH_mac.json / BENCH_net.json")
    bench.add_argument("--suite", choices=("phy", "mac", "net", "soak", "all"),
                       default="phy",
                       help="which benchmark suite to run (default: phy)")
    bench.add_argument("--smoke", action="store_true",
                       help="tiny workloads; validates the schema in seconds "
                            "(output goes to a temp dir unless --out/--out-dir)")
    bench.add_argument("--out", default=None,
                       help="output JSON path (single suite only; default: "
                            "BENCH_<suite>.json, temp dir in smoke mode)")
    bench.add_argument("--out-dir", default=None,
                       help="directory for BENCH_<suite>.json outputs")
    bench.add_argument("--compare", metavar="BASELINE", default=None,
                       help="baseline JSON file, or directory holding committed "
                            "BENCH_<suite>.json files; exit 1 on regression")
    bench.add_argument("--threshold", type=float, default=0.2,
                       help="relative regression tolerance for --compare "
                            "(default: 0.2 = 20%%)")
    bench.add_argument("--workers", type=_positive_int, default=None,
                       help="process count for the parallel legs (default: auto)")
    bench.add_argument("--scaling-out", metavar="PATH", default=None,
                       help="also write the speedup-vs-workers curves of every "
                            "pool section to PATH as one JSON artifact")

    report = sub.add_parser(
        "report", help="render a JSONL trace into per-layer summary tables "
                       "(or, given a soak checkpoint directory, its status)")
    report.add_argument("path", help="trace file written by --trace, or a "
                                     "soak checkpoint directory")
    report.add_argument("--top", type=_positive_int, default=15,
                        help="timer-table rows (default: 15)")
    report.add_argument("--timeline", type=_positive_int, default=60,
                        help="fault-timeline rows (default: 60)")
    return parser


def _cmd_list() -> int:
    print("experiments:")
    print("  phy      — BER vs symbol index, standard vs RTE (Figs. 3/13)")
    print("  mac      — five-scheme goodput/latency comparison (Figs. 15/16)")
    print("  testbed  — office geometry, per-location SNR and selected MCS")
    print("  energy   — Bloom-filter false positives → energy overhead (§8)")
    print("  faults   — robustness: degradation sweep / RTE burst hardening")
    print("  net      — multi-BSS deployment: protocols at hotspot scale")
    print("\nfull reproduction tables: pytest benchmarks/ --benchmark-only")
    return 0


def _cmd_phy(args) -> int:
    from repro.analysis import LinkConfig, ber_by_symbol_index

    link = LinkConfig(seed=args.seed).with_power(args.power)
    print(f"{args.mcs}, {args.payload} B frames, power {args.power}, "
          f"{args.trials} trials per scheme")
    std = ber_by_symbol_index(args.mcs, args.payload, args.trials,
                              use_rte=False, link=link, n_workers=args.workers)
    rte = ber_by_symbol_index(args.mcs, args.payload, args.trials,
                              use_rte=True, link=link, n_workers=args.workers)
    print(f"{'symbols':>10s}  {'standard':>10s}  {'RTE':>10s}")
    for start in range(0, std.ber_per_symbol.size, 10):
        end = min(start + 10, std.ber_per_symbol.size)
        print(f"{start + 1:>4d}–{end:<5d}  "
              f"{std.ber_per_symbol[start:end].mean():10.2e}  "
              f"{rte.ber_per_symbol[start:end].mean():10.2e}")
    print(f"\nmean: standard {std.mean_ber:.2e}, RTE {rte.mean_ber:.2e}")
    return 0


def _cmd_mac(args) -> int:
    from repro.mac import PROTOCOLS
    from repro.mac.scenarios import VoipScenario

    names = args.protocols or list(PROTOCOLS)
    unknown = [n for n in names if n not in PROTOCOLS]
    if unknown:
        print(f"unknown protocols: {unknown}; have {sorted(PROTOCOLS)}",
              file=sys.stderr)
        return 2
    scenario = VoipScenario(num_stations=args.stations, duration=args.duration,
                            with_background=args.background, seed=args.seed)
    print(f"{args.stations} STAs/AP × 2 APs, {args.duration:.0f} s, "
          f"background={'on' if args.background else 'off'}\n")
    print(f"{'scheme':<16s} {'goodput':>10s} {'delay':>10s} {'retx':>6s}")
    for name in names:
        result = scenario.run(PROTOCOLS[name])
        print(f"{result.protocol:<16s} "
              f"{result.measured_ap_useful_goodput_bps / 1e6:8.3f} M "
              f"{result.downlink_mean_delay * 1e3:8.1f} ms "
              f"{result.retransmitted_subframes:>6d}")
    return 0


def _cmd_testbed() -> int:
    from repro.analysis.testbed import OfficeTestbed
    from repro.mac.rate_control import select_mcs

    testbed = OfficeTestbed()
    print("Fig. 10 office (10 m × 10 m, transmitter at centre):\n")
    print(f"{'loc':>4s} {'x':>6s} {'y':>6s} {'dist':>6s} {'SNR':>7s}  MCS")
    for loc in testbed.locations:
        snr = testbed.snr_db(loc)
        mcs = select_mcs(snr)
        print(f"{loc.index:>4d} {loc.x:6.2f} {loc.y:6.2f} "
              f"{testbed.distance(loc):6.2f} {snr:6.1f}dB  {mcs.name}")
    return 0


def _cmd_energy() -> int:
    from repro.core.energy import carpool_energy_overhead

    print(f"{'receivers':>10s} {'extra RX power':>15s} {'total overhead':>15s}")
    for n in range(2, 9):
        overhead = carpool_energy_overhead(num_receivers=n)
        print(f"{n:>10d} {overhead['extra_rx_power_fraction']:>14.4%} "
              f"{overhead['total_energy_overhead']:>14.4%}")
    return 0


def _cmd_faults(args) -> int:
    if args.mode == "rte":
        from repro.analysis.degradation import rte_burst_resilience

        print(f"RTE under impulse-noise bursts, {args.mcs}, "
              f"{args.trials} trials per scheme")
        results = rte_burst_resilience(mcs_name=args.mcs, trials=args.trials,
                                       seed=args.seed, n_workers=args.workers)
        print(f"{'estimator':<10s} {'head BER':>10s} {'tail BER':>10s} "
              f"{'tail/head':>10s}")
        for label, r in results.items():
            print(f"{label:<10s} {r.head_ber:>10.3e} {r.tail_ber:>10.3e} "
                  f"{r.tail_head_ratio:>10.2f}")
        return 0

    from repro.analysis.degradation import SWEEP_PROTOCOLS, degradation_sweep

    print(f"{args.stations} STAs, {args.duration:.1f} s, "
          f"bursty={'on' if args.bursty else 'off'}, "
          f"{args.trials} trials per cell\n")
    sweep = degradation_sweep(
        ack_loss_rates=args.ack_loss, bursty=args.bursty,
        num_stations=args.stations, duration=args.duration,
        trials=args.trials, seed=args.seed, n_workers=args.workers,
    )
    print(f"{'scheme':<18s} {'ack loss':>8s} {'goodput':>10s} "
          f"{'retx':>8s} {'drops':>7s}")
    for name in SWEEP_PROTOCOLS:
        for point in sweep[name]:
            print(f"{name:<18s} {point.ack_loss:>8.2f} "
                  f"{point.goodput_bps / 1e6:>8.3f} M "
                  f"{point.retransmitted_subframes:>8.0f} "
                  f"{point.dropped_frames:>7.0f}")
    return 0


def _cmd_net(args) -> int:
    from repro.analysis.deployment_sweep import (
        DEPLOYMENT_PROTOCOLS,
        deployment_protocol_sweep,
        format_deployment_table,
    )
    from repro.mac import PROTOCOLS
    from repro.net import DeploymentConfig

    names = tuple(args.protocols) if args.protocols else DEPLOYMENT_PROTOCOLS
    unknown = [n for n in names if n not in PROTOCOLS]
    if unknown:
        print(f"unknown protocols: {unknown}; have {sorted(PROTOCOLS)}",
              file=sys.stderr)
        return 2
    config = DeploymentConfig(
        n_aps=args.aps, stas_per_ap=args.stas_per_ap,
        duration=args.duration, seed=args.seed, channels=args.channels,
        ap_placement=args.ap_placement, sta_placement=args.sta_placement,
        mobility=args.mobility, legacy_fraction=args.legacy_fraction,
        coupling=not args.no_coupling,
    )
    print(f"{args.aps} APs × {args.stas_per_ap} STAs, "
          f"{args.duration:.1f} s, {args.channels} channel(s), "
          f"placement {args.ap_placement}/{args.sta_placement}, "
          f"mobility={'on' if args.mobility else 'off'}, "
          f"coupling={'off' if args.no_coupling else 'on'}"
          + (f", {args.shards} shards (streaming)" if args.shards else "")
          + "\n")
    results = deployment_protocol_sweep(
        config, protocols=names, n_workers=args.workers,
        use_cache=not args.no_cache, shards=args.shards,
    )
    baseline = "802.11" if "802.11" in results else names[0]
    print(format_deployment_table(results, baseline=baseline))
    first = next(iter(results.values()))
    if first.n_roams:
        print(f"\nroams: {first.n_roams}, handoff interruption "
              f"{first.interruption_time_s:.2f} s (identical across schemes)")
    if first.n_coupled_cells:
        print(f"coupled cells: {first.n_coupled_cells}/{args.aps}")
    return 0


def _print_scaling(label: str, section: dict) -> None:
    """One-line speedup curve of a pool section's ``scaling`` subsection."""
    scaling = section.get("scaling")
    if not scaling:
        return
    points = ", ".join(
        f"{w}w x{body['speedup_vs_serial']:.2f}"
        for w, body in sorted(scaling["workers"].items(), key=lambda kv: int(kv[0]))
    )
    print(f"{label}: {points} vs serial "
          f"({scaling['serial_seconds']:.3f}s / {section.get('trials', section.get('aps'))} "
          f"{scaling['unit']})")


def _print_phy_bench(payload) -> None:
    enc, vit = payload["encode"], payload["viterbi"]
    rx, mc = payload["rx_chain"], payload["monte_carlo"]
    print(f"encode     : {enc['mbit_per_s']:8.1f} Mbit/s "
          f"({enc['seconds_per_frame'] * 1e3:.2f} ms / {enc['n_bits']}-bit frame)")
    print(f"viterbi    : {vit['mbit_per_s']:8.1f} Mbit/s "
          f"({vit['seconds_per_frame'] * 1e3:.2f} ms; "
          f"{vit['speedup_vs_reference']:.1f}x reference; "
          f"bit-exact={vit['bit_exact_vs_reference']})")
    print(f"rx chain   : {rx['frames_per_s']:8.1f} frames/s "
          f"({rx['payload_bytes']} B {rx['mcs']})")
    print(f"monte carlo: {mc['serial_trials_per_s']:8.2f} trials/s serial, "
          f"{mc['parallel_trials_per_s']:.2f} trials/s x{mc['parallel_workers']} "
          f"workers (crossover={mc['crossover_workers']}, "
          f"identical={mc['identical_serial_parallel']})")
    _print_scaling("  scaling  ", mc)


def _print_mac_bench(payload) -> None:
    sweep, pool = payload["sweep"], payload["trials_pool"]
    print(f"sweep      : cached x{sweep['speedup']:.1f} vs uncached "
          f"({sweep['points']} points, {sweep['cached_seconds']:.2f}s vs "
          f"{sweep['uncached_seconds']:.2f}s; "
          f"identical={sweep['identical_results']})")
    print(f"trials pool: {pool['serial_trials_per_s']:8.2f} trials/s serial, "
          f"{pool['parallel_trials_per_s']:.2f} trials/s "
          f"x{pool['parallel_workers']} workers "
          f"(crossover={pool['crossover_workers']}, "
          f"identical={pool['identical_serial_parallel']})")
    _print_scaling("  scaling  ", pool)


def _print_net_bench(payload) -> None:
    dep, rep = payload["deployment"], payload["replay"]
    print(f"deployment : {dep['serial_cells_per_s']:8.2f} cells/s serial, "
          f"{dep['parallel_cells_per_s']:.2f} cells/s "
          f"x{dep['parallel_workers']} workers "
          f"({dep['aps']} APs x {dep['stas_per_ap']} STAs, "
          f"crossover={dep['crossover_workers']}, "
          f"identical={dep['identical_serial_parallel']})")
    _print_scaling("  scaling  ", dep)
    print(f"replay     : cold {rep['cold_seconds']:.2f}s, "
          f"warm cache hit {rep['warm_seconds'] * 1e3:.1f} ms "
          f"(identical={rep['identical_cold_warm']})")
    stream = payload.get("streaming")
    if stream:
        print(f"streaming  : IPC {stream['unsharded_ipc_bytes'] / 1e3:.1f} kB"
              f" -> {stream['sharded_ipc_bytes'] / 1e3:.1f} kB "
              f"(x{stream['ipc_reduction_factor']:.1f} reduced, "
              f"{stream['shards']} shards); peak RSS "
              f"{stream['small_peak_rss_mb']:.0f} -> "
              f"{stream['large_peak_rss_mb']:.0f} MB over "
              f"{stream['small_aps']} -> {stream['large_aps']} APs "
              f"(identical={stream['identical_sharded_unsharded']})")


def _print_soak_bench(payload) -> None:
    sus, res = payload["sustained"], payload["resume"]
    print(f"sustained  : {sus['frames_per_s']:8.1f} frames/s over "
          f"{sus['epochs']} epochs x{sus['shards']} shards "
          f"({sus['cumulative_users']} users; RSS "
          f"{sus['warm_peak_rss_mb']:.0f} -> {sus['end_peak_rss_mb']:.0f} MB, "
          f"x{sus['rss_growth_factor']:.2f} <= "
          f"x{sus['rss_growth_threshold']:.2f}: {sus['rss_flat_ok']})")
    tel = payload.get("telemetry")
    if tel:
        print(f"telemetry  : x{tel['overhead_factor']:.3f} overhead "
              f"(<= x{tel['overhead_threshold']:.2f}: {tel['overhead_ok']}; "
              f"{tel['telemetry_records']} records, "
              f"health {tel['health_status']})")
    print(f"resume     : kill at epoch {res['resume_epoch']}/{res['epochs']}, "
          f"bit-identical={res['identical_resume']}"
          + (f", telemetry={res['identical_telemetry']}"
             if "identical_telemetry" in res else ""))


def _cmd_soak(args) -> int:
    from repro.serve import SoakConfig, SoakWorkload, run_soak

    workload = SoakWorkload(
        seed=args.seed,
        n_aps=args.aps,
        max_stas_per_ap=args.max_stas_per_ap,
        target_active_stas=args.target_active_stas,
        epoch_duration=args.epoch_duration,
        traffic=args.traffic,
        trace_model=args.trace_model,
        protocol=args.protocol,
        channels=args.channels,
        with_background=args.background,
    )
    config = SoakConfig(
        workload=workload,
        fault_profile=args.fault_profile,
        checkpoint_dir=args.checkpoint,
        resume=args.resume,
        epochs=args.epochs,
        max_users=args.users,
        max_wall_seconds=args.duration,
        n_workers=args.workers,
        shards=args.shards,
        checkpoint_every=args.checkpoint_every,
        telemetry=args.telemetry,
        slos=tuple(args.slos),
        profile=args.profile,
    )
    try:
        summary = run_soak(config)
    except (FileNotFoundError, ValueError) as exc:
        print(f"soak: {exc}", file=sys.stderr)
        return 2
    print(f"soak {summary.config_hash}: "
          f"{summary.epochs_this_run} epoch(s) this run, "
          f"{summary.epochs_completed} total")
    print(f"  users      : {summary.cumulative_users} cumulative")
    print(f"  frames     : {summary.cumulative_frames} transmissions")
    print(f"  goodput    : {summary.total_goodput_bps / 1e6:.2f} Mbit/s "
          f"(useful {summary.total_useful_goodput_bps / 1e6:.2f})")
    print(f"  fairness   : {summary.jain_fairness:.4f} (Jain)")
    if args.telemetry or args.slos:
        print(f"  slo        : {summary.slo_status} "
              f"({len(args.slos)} rule(s); status: repro status "
              f"{summary.checkpoint_dir})")
    print(f"  wall       : {summary.wall_seconds:.2f}s; checkpoint "
          f"{summary.checkpoint_dir}"
          f"{' [interrupted: resumable]' if summary.interrupted else ''}")
    return 0


def _cmd_bench(args) -> int:
    import json
    import os
    import tempfile

    from repro.runtime.bench import (
        compare_bench,
        run_mac_bench,
        run_net_bench,
        run_phy_bench,
        run_soak_bench,
    )

    suites = (("phy", "mac", "net", "soak") if args.suite == "all"
              else (args.suite,))
    if args.out and len(suites) > 1:
        print("--out takes a single suite; use --out-dir with --suite all",
              file=sys.stderr)
        return 2

    out_dir = args.out_dir
    if out_dir is None and args.out is None:
        # Smoke runs exercise the code paths, not the machine: never let
        # them overwrite the committed full-run baselines in-place.
        out_dir = tempfile.mkdtemp(prefix="repro-bench-") if args.smoke else os.getcwd()

    runners = {"phy": run_phy_bench, "mac": run_mac_bench,
               "net": run_net_bench, "soak": run_soak_bench}
    printers = {"phy": _print_phy_bench, "mac": _print_mac_bench,
                "net": _print_net_bench, "soak": _print_soak_bench}
    status = 0
    scaling_curves = {}
    for suite in suites:
        out_path = args.out or os.path.join(out_dir, f"BENCH_{suite}.json")
        if not os.path.isdir(os.path.dirname(os.path.abspath(out_path))):
            print(f"output directory does not exist: {out_path}", file=sys.stderr)
            return 2
        payload = runners[suite](smoke=args.smoke, n_workers=args.workers,
                                 out_path=out_path)
        print(f"--- {suite} suite ---")
        printers[suite](payload)
        for section, body in payload.items():
            if isinstance(body, dict) and "scaling" in body:
                scaling_curves[f"{suite}.{section}"] = {
                    "crossover_workers": body.get("crossover_workers"),
                    **body["scaling"],
                }
        obs = payload.get("observability")
        if obs:
            print(f"obs        : pools {obs['pool_spawned']} spawned / "
                  f"{obs['pool_reused']} reused, cache {obs['cache_hits']} "
                  f"hits / {obs['cache_misses']} misses, "
                  f"{obs['chunk_retries']} chunk retries")
        print(f"wrote {out_path}")
        if not args.compare:
            continue
        baseline_path = args.compare
        if os.path.isdir(baseline_path):
            baseline_path = os.path.join(baseline_path, f"BENCH_{suite}.json")
        if not os.path.isfile(baseline_path):
            print(f"no {suite} baseline at {baseline_path}; skipping compare")
            continue
        with open(baseline_path) as handle:
            baseline = json.load(handle)
        regressions = compare_bench(payload, baseline, threshold=args.threshold)
        if regressions:
            status = 1
            for line in regressions:
                print(f"REGRESSION [{suite}] {line}", file=sys.stderr)
        else:
            print(f"no regression vs {baseline_path} "
                  f"(threshold {args.threshold:.0%})")
    if args.scaling_out:
        with open(args.scaling_out, "w") as handle:
            json.dump({"smoke": args.smoke, "curves": scaling_curves},
                      handle, indent=2)
            handle.write("\n")
        print(f"wrote scaling curves to {args.scaling_out}")
    return status


def _cmd_report(args) -> int:
    import os

    from repro.obs.report import format_report, format_status

    if os.path.isdir(args.path):
        # A soak checkpoint directory: render its live status instead.
        try:
            print(format_status(args.path, top=args.top), end="")
        except ValueError as exc:
            print(f"malformed telemetry: {exc}", file=sys.stderr)
            return 2
        return 0
    try:
        print(format_report(args.path, top=args.top,
                            timeline_limit=args.timeline), end="")
    except FileNotFoundError as exc:
        print(f"trace file not found: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"malformed trace: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_status(args) -> int:
    import os
    import time

    from repro.obs.report import format_status
    from repro.obs.slo import read_health
    from repro.obs.telemetry import telemetry_paths

    if not os.path.isdir(args.dir):
        print(f"no checkpoint directory at {args.dir}", file=sys.stderr)
        return 2
    paths = telemetry_paths(args.dir)
    has_artifacts = (os.path.exists(paths["telemetry"])
                     or os.path.exists(paths["health"])
                     or os.path.exists(os.path.join(args.dir, "state.json")))
    if not has_artifacts:
        print(f"no soak artifacts in {args.dir} "
              "(expected telemetry.jsonl / health.json / state.json)",
              file=sys.stderr)
        return 2
    try:
        while True:
            try:
                rendered = format_status(args.dir, tail=args.tail,
                                         top=args.top)
            except ValueError as exc:
                print(f"malformed telemetry: {exc}", file=sys.stderr)
                return 2
            if args.follow:
                # Clear-screen render, like `watch`: cursor home + erase.
                print("\033[H\033[J" + rendered, end="", flush=True)
                time.sleep(args.interval)
            else:
                print(rendered, end="")
                break
    except KeyboardInterrupt:
        pass
    health = read_health(args.dir)
    if health is not None and health.get("status") == "breached":
        return 1
    return 0


def _print_metrics_summary(snapshot: dict) -> None:
    """The ``--metrics`` table: counters, gauges, and timers after a run."""
    from repro.obs.report import timer_rows

    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    if counters or gauges:
        print("\n--- metrics: counters ---")
        names = sorted(counters) + sorted(gauges)
        width = max(len(n) for n in names)
        for name in sorted(counters):
            print(f"{name:<{width}}  {counters[name]:>12}")
        for name in sorted(gauges):
            print(f"{name:<{width}}  {gauges[name]['value']!r:>12}")
    rows = timer_rows(snapshot)
    if rows:
        print("\n--- metrics: timers (by total time) ---")
        width = max(len(name) for name, *_ in rows)
        print(f"{'timer':<{width}}  {'count':>8}  {'total':>10}  {'mean':>10}")
        for name, count, total, mean, _max_s in rows:
            print(f"{name:<{width}}  {count:>8}  {total:>9.4f}s  {mean:>9.6f}s")


def _profiled(fn, args) -> int:
    """Run ``fn(args)`` under cProfile; print the top 20 by cumulative time."""
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    status = profiler.runcall(fn, args)
    stats = pstats.Stats(profiler, stream=sys.stdout)
    print("\n--- cProfile: top 20 by cumulative time ---")
    stats.sort_stats("cumulative").print_stats(20)
    return status


def _dispatch(args) -> int:
    if args.command == "list":
        return _cmd_list()
    if args.command == "phy":
        if args.profile:
            return _profiled(_cmd_phy, args)
        return _cmd_phy(args)
    if args.command == "mac":
        return _cmd_mac(args)
    if args.command == "testbed":
        return _cmd_testbed()
    if args.command == "energy":
        return _cmd_energy()
    if args.command == "faults":
        return _cmd_faults(args)
    if args.command == "net":
        return _cmd_net(args)
    if args.command == "soak":
        return _cmd_soak(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "status":
        return _cmd_status(args)
    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.log_level:
        from repro.obs.log import configure_logging

        configure_logging(args.log_level)

    trace_path = getattr(args, "trace", None)
    metrics_on = getattr(args, "metrics", False)
    if trace_path is None and not metrics_on:
        return _dispatch(args)

    from repro.obs.trace import ObsSession

    config = {k: v for k, v in sorted(vars(args).items())
              if k not in ("trace", "trace_sample", "metrics", "log_level")}
    with ObsSession(
        trace_path=trace_path,
        metrics_on=metrics_on,
        sample_every=getattr(args, "trace_sample", None) or 0,
        manifest_kind=args.command,
        manifest_config=config,
        seed=getattr(args, "seed", None),
    ) as session:
        status = _dispatch(args)
    if metrics_on and session.registry is not None:
        _print_metrics_summary(session.registry.to_dict())
    if trace_path is not None:
        print(f"\ntrace: {trace_path} ({len(session.recorder)} events); "
              f"manifest: {session.manifest_path}\n"
              f"render with: python -m repro report {trace_path}")
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
