//! Cluster-scale walkthrough: one SFC sharded across a simulated rack.
//!
//! Two acts:
//!
//! 1. **Scale sweep** — the same chain deployed on 8, 16, 32 and 64
//!    Table-I servers, each rack absorbing a load scaled to its size.
//!    Every shard hand-off is charged on the inter-server links, and
//!    the live rebalancer keeps the hash-ring imbalance in check, so
//!    the aggregate throughput curve is what the rack fabric actually
//!    sustains, not an N-times-one-box fiction. Scaling is near-linear
//!    until the per-server shards become small enough (32 packets at
//!    64 servers) that fixed per-batch costs and the fabric bite.
//! 2. **Hostile-DPI flood** — an 8-server rack running a stateful
//!    NAT -> DPI chain on Zipf-skewed flows is hit by a payload flood
//!    where every packet matches the IDS signatures. The skew piles
//!    the hot flows onto few shards; the cluster controller sheds ring
//!    vnodes from the hottest server to the coldest live (state
//!    migrated over the links, flow caches invalidated, order
//!    preserved), while the static shard map just eats the imbalance.
//!
//! Run with: `cargo run --release -p nfc-cluster --example cluster_scale`
//!
//! `--hostile` skips the scale sweep and runs only the flood act — the
//! shape CI uses for the flow-forensics smoke: with `NFC_FLOW_TRACE`,
//! `NFC_SLO` and `NFC_FLIGHT` set, the hostile phase samples per-flow
//! timelines across shard migrations, logs session records from the
//! chain's `SessionLog` stage, and dumps a flight-recorder postmortem
//! when the flood burns through the SLO.

use nfc_cluster::{ClusterDeployment, ClusterSpec, RebalanceConfig};
use nfc_core::{Deployment, Policy, Sfc};
use nfc_nf::Nf;
use nfc_packet::traffic::{FlowSpec, PayloadPolicy, SizeDist, TrafficGenerator, TrafficSpec};

const BATCH_SIZE: usize = 2048;
const SWEEP_BATCHES: usize = 32;
const FLOOD_BATCH_SIZE: usize = 512;
const FLOOD_BATCHES_PER_PHASE: usize = 48;

fn sweep_sfc() -> Sfc {
    Sfc::new("dpi-ipsec", vec![Nf::dpi("dpi"), Nf::ipsec("ipsec")])
}

/// Offered load scaled to the rack: each server's shard sees roughly a
/// one-box share, so the sweep measures fabric scaling, not queueing
/// collapse.
fn sweep_traffic(n_servers: usize, seed: u64) -> TrafficGenerator {
    TrafficGenerator::new(
        TrafficSpec::udp(SizeDist::Fixed(512))
            .with_rate_gbps(5.0 * n_servers as f64)
            .with_flows(FlowSpec {
                count: 64 * n_servers,
                ..FlowSpec::default()
            })
            .with_payload(PayloadPolicy::MatchRatio {
                patterns: Nf::default_ids_signatures(),
                ratio: 0.3,
            }),
        seed,
    )
}

/// An eager controller: short epochs, low trip threshold, no cooldown.
/// The sweep uses it to absorb the hash-ring's natural imbalance.
fn eager_rebalance() -> RebalanceConfig {
    RebalanceConfig {
        epoch_batches: 2,
        imbalance_threshold: 1.05,
        hysteresis_epochs: 1,
        cooldown_epochs: 0,
        vnodes_per_move: 8,
    }
}

fn flood_phases(n_servers: usize) -> Vec<TrafficGenerator> {
    // Benign phase: nothing matches. Hostile phase: every payload
    // matches the IDS signatures (~4.5x per-packet DPI cost), and the
    // Zipf skew concentrates the flood onto few flow hashes.
    [0.0, 1.0]
        .iter()
        .enumerate()
        .map(|(i, &ratio)| {
            TrafficGenerator::new(
                TrafficSpec::udp(SizeDist::Fixed(256))
                    .with_rate_gbps(4.0 * n_servers as f64)
                    .with_flows(
                        FlowSpec {
                            count: 8 * n_servers,
                            ..FlowSpec::default()
                        }
                        .with_skew(1.3),
                    )
                    .with_payload(PayloadPolicy::MatchRatio {
                        patterns: Nf::default_ids_signatures(),
                        ratio,
                    }),
                71 + i as u64,
            )
        })
        .collect()
}

fn main() {
    let hostile_only = std::env::args().any(|a| a == "--hostile");
    if !hostile_only {
        scale_sweep();
    }
    hostile_flood();
}

fn scale_sweep() {
    println!("=== act 1: scale sweep (shard mode, 40 GbE rack links) ===");
    println!(
        "{:>7} {:>13} {:>12} {:>14} {:>7} {:>12}",
        "servers", "offered Gbps", "agg Gbps", "p99 lat (us)", "moves", "drops"
    );
    for n in [8usize, 16, 32, 64] {
        let spec = ClusterSpec::uniform(n).with_rebalance(eager_rebalance());
        let mut cluster = ClusterDeployment::build(spec, &sweep_sfc(), Policy::nfcompass(), |d| {
            d.with_batch_size(BATCH_SIZE)
        });
        let outcome = cluster.run(&mut sweep_traffic(n, 5), SWEEP_BATCHES);
        println!(
            "{:>7} {:>13.0} {:>12.2} {:>14.2} {:>7} {:>12}",
            n,
            5.0 * n as f64,
            outcome.report.throughput_gbps,
            outcome.report.p99_latency_ns / 1e3,
            outcome.rebalances,
            outcome.report.dropped_batches
        );
    }
    println!();
}

fn hostile_flood() {
    println!("=== act 2: hostile-DPI flood on 8 servers (benign -> hostile) ===");
    let n = 8usize;
    // The SessionLog tail turns the flood into structured session
    // records (built/teardown per flow) alongside the NAT and DPI work.
    let stateful = Sfc::new(
        "nat-dpi",
        vec![
            Nf::nat("nat", [192, 168, 0, 1]),
            Nf::dpi("dpi"),
            Nf::session_log("slog", 4096, vec![]),
        ],
    );
    let configure = |d: Deployment| d.with_batch_size(FLOOD_BATCH_SIZE);
    let run = |rebalance: RebalanceConfig| {
        let spec = ClusterSpec::uniform(n).with_rebalance(rebalance);
        let mut cluster = ClusterDeployment::build(spec, &stateful, Policy::nfcompass(), configure);
        cluster.run_phased(&mut flood_phases(n), FLOOD_BATCHES_PER_PHASE)
    };
    let adaptive = run(RebalanceConfig {
        epoch_batches: 4,
        imbalance_threshold: 1.10,
        hysteresis_epochs: 1,
        cooldown_epochs: 0,
        vnodes_per_move: 8,
    });
    let static_map = run(RebalanceConfig::disabled());

    println!(
        "{:<26} {:>10} {:>14} {:>11} {:>14}",
        "configuration", "agg Gbps", "p99 lat (us)", "rebalances", "migrated (KB)"
    );
    for (label, o) in [
        ("static shard map", &static_map),
        ("adaptive rebalancing", &adaptive),
    ] {
        println!(
            "{:<26} {:>10.2} {:>14.2} {:>11} {:>14.1}",
            label,
            o.report.throughput_gbps,
            o.report.p99_latency_ns / 1e3,
            o.rebalances,
            o.migrated_bytes as f64 / 1024.0
        );
    }
    // Both runs are deterministic on the simulated clock.
    assert!(
        adaptive.rebalances >= 1,
        "the flood must trip the cluster controller"
    );
    assert!(
        adaptive.report.throughput_gbps > static_map.report.throughput_gbps,
        "adaptive {:.2} Gbps must beat the static shard map's {:.2} Gbps",
        adaptive.report.throughput_gbps,
        static_map.report.throughput_gbps
    );
    println!(
        "\nfinal shard map (adaptive): {} arcs across {} servers",
        adaptive.shard_map.len(),
        n
    );
}
