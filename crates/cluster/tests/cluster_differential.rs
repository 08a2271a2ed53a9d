//! Differential proof obligations for the cluster runtime:
//!
//! 1. An N=1 cluster (shard or segment mode) is *byte-identical* to the
//!    plain single-box [`Deployment`] oracle — same egress bytes, same
//!    packet order, same per-element statistics, same egress counters.
//! 2. At any N, flow-space sharding preserves per-flow packet order and
//!    loses nothing — including under *arbitrary* forced rebalance
//!    schedules (proptested), where state migrates between servers
//!    mid-run.

use std::collections::HashMap;

use nfc_cluster::{ClusterDeployment, ClusterSpec, PlacementMode, RebalanceConfig};
use nfc_core::{Deployment, Policy, Sfc};
use nfc_nf::Nf;
use nfc_packet::traffic::{FlowSpec, PayloadPolicy, SizeDist, TrafficGenerator, TrafficSpec};
use nfc_packet::Batch;
use proptest::prelude::*;

const BATCH: usize = 128;

fn sfc() -> Sfc {
    Sfc::new("dpi-ipsec", vec![Nf::dpi("dpi"), Nf::ipsec("ipsec")])
}

fn traffic(seed: u64) -> TrafficGenerator {
    // Under-capacity (4 Gbps vs a 40 GbE box) so no run ever
    // tail-drops and the loss-free contracts are unconditional.
    TrafficGenerator::new(
        TrafficSpec::udp(SizeDist::Fixed(256))
            .with_rate_gbps(4.0)
            .with_payload(PayloadPolicy::MatchRatio {
                patterns: Nf::default_ids_signatures(),
                ratio: 0.2,
            }),
        seed,
    )
}

fn configure(d: Deployment) -> Deployment {
    d.with_batch_size(BATCH)
}

/// Asserts every per-flow subsequence of the concatenated egress is in
/// strictly increasing sequence order (flows sticky, batches merged).
fn assert_per_flow_order(egress: &[Batch], label: &str) {
    let mut last_seq: HashMap<u32, u64> = HashMap::new();
    for b in egress {
        for p in b.iter() {
            if let Some(&prev) = last_seq.get(&p.meta.flow_hash) {
                assert!(
                    p.meta.seq > prev,
                    "{label}: flow {:#x} reordered (seq {} after {})",
                    p.meta.flow_hash,
                    p.meta.seq,
                    prev
                );
            }
            last_seq.insert(p.meta.flow_hash, p.meta.seq);
        }
    }
}

/// Asserts two egress streams carry the same packets in the same order
/// (payload bytes and sequence numbers). Unlike full [`Batch`] equality
/// this ignores `arrival_ns`, which link hops legitimately shift.
fn assert_same_payloads(a: &[Batch], b: &[Batch], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: egress batch counts differ");
    for (i, (ba, bb)) in a.iter().zip(b).enumerate() {
        assert_eq!(ba.len(), bb.len(), "{label}: batch {i} sizes differ");
        for (pa, pb) in ba.iter().zip(bb.iter()) {
            assert_eq!(pa.meta.seq, pb.meta.seq, "{label}: batch {i} order");
            assert_eq!(pa.data(), pb.data(), "{label}: batch {i} payload");
        }
    }
}

fn assert_matches_oracle(mode: PlacementMode, label: &str) {
    let spec = ClusterSpec::uniform(1).with_mode(mode);
    let mut cluster = ClusterDeployment::build(spec, &sfc(), Policy::nfcompass(), configure);
    let (outcome, egress) = cluster.run_collect(&mut traffic(7), 60);

    let mut oracle = configure(Deployment::new(sfc(), Policy::nfcompass()));
    let (oracle_out, oracle_egress) = oracle.run_collect(&mut traffic(7), 60);

    assert_eq!(
        oracle_out.report.dropped_batches, 0,
        "{label}: oracle dropped"
    );
    assert_eq!(
        outcome.report.dropped_batches, 0,
        "{label}: cluster dropped"
    );
    assert_eq!(
        egress, oracle_egress,
        "{label}: egress must be byte-identical"
    );
    assert_eq!(
        outcome.per_server[0].stage_stats, oracle_out.stage_stats,
        "{label}: per-element statistics must match"
    );
    assert_eq!(outcome.egress_packets, oracle_out.egress_packets, "{label}");
    assert_eq!(outcome.egress_bytes, oracle_out.egress_bytes, "{label}");
    assert_eq!(
        outcome.per_server[0].merge_conflicts, oracle_out.merge_conflicts,
        "{label}"
    );
    assert_eq!(outcome.report.packets, oracle_out.report.packets, "{label}");
    assert_eq!(outcome.report.bytes, oracle_out.report.bytes, "{label}");
}

#[test]
fn n1_shard_cluster_is_byte_identical_to_the_single_box_oracle() {
    assert_matches_oracle(PlacementMode::Shard, "shard");
}

#[test]
fn n1_segment_cluster_is_byte_identical_to_the_single_box_oracle() {
    assert_matches_oracle(PlacementMode::Segment, "segment");
}

#[test]
fn sharded_cluster_preserves_per_flow_order_and_loses_nothing() {
    let n_batches = 40;
    let spec = ClusterSpec::uniform(4);
    let mut cluster = ClusterDeployment::build(spec, &sfc(), Policy::nfcompass(), configure);
    let (outcome, egress) = cluster.run_collect(&mut traffic(11), n_batches);
    assert_eq!(
        outcome.report.dropped_batches, 0,
        "under-capacity run dropped"
    );
    // The dpi+ipsec chain forwards every packet, so zero loss means the
    // cluster egresses exactly what was offered.
    assert_eq!(outcome.egress_packets, (n_batches * BATCH) as u64);
    assert_per_flow_order(&egress, "static 4-server shard");
    // Sanity: the work actually spread — more than one server saw traffic.
    let active = outcome
        .per_server
        .iter()
        .filter(|o| o.egress_packets > 0)
        .count();
    assert!(active > 1, "sharding should engage multiple servers");
}

#[test]
fn segment_cluster_is_byte_identical_at_n2() {
    // Segment mode routes EVERY packet through every segment in chain
    // order, so its functional path is the single box's regardless of N
    // (state included: each NF lives on exactly one server). Only the
    // warm-up draw differs per tenant, so compare two segment runs of
    // different rack shapes batch-for-batch instead of against the
    // single-box oracle: identical chains, identical measured traffic.
    let mk = |n: usize| {
        let spec = ClusterSpec::uniform(n).with_mode(PlacementMode::Segment);
        let mut c = ClusterDeployment::build(spec, &sfc(), Policy::nfcompass(), |d| {
            let mut d = configure(d);
            d.warmup_batches = 0;
            d
        });
        c.run_collect(&mut traffic(13), 40)
    };
    let (out1, egress1) = mk(1);
    let (out2, egress2) = mk(2);
    assert_eq!(out1.report.dropped_batches, 0);
    assert_eq!(out2.report.dropped_batches, 0);
    assert_same_payloads(&egress1, &egress2, "segment egress must not depend on N");
    assert_eq!(out1.egress_packets, out2.egress_packets);
    assert_eq!(out1.egress_bytes, out2.egress_bytes);
    assert_eq!(out2.placement.len(), sfc().len());
}

#[test]
fn live_rebalancing_engages_on_skewed_traffic_and_stays_loss_free() {
    // Zipf-skewed flows pile most packets onto few flow hashes, so some
    // servers run hot; an aggressive controller must actually move
    // shards, migrate state over the links, and still lose nothing.
    let spec = ClusterSpec::uniform(4).with_rebalance(RebalanceConfig {
        epoch_batches: 4,
        imbalance_threshold: 1.05,
        hysteresis_epochs: 1,
        cooldown_epochs: 0,
        vnodes_per_move: 4,
    });
    // NAT carries real per-flow state (its translation tables), so a
    // shard move must actually migrate bytes over the links.
    let stateful = Sfc::new(
        "nat-dpi",
        vec![Nf::nat("nat", [192, 168, 0, 1]), Nf::dpi("dpi")],
    );
    let mut cluster = ClusterDeployment::build(spec, &stateful, Policy::nfcompass(), configure);
    let mut gen = TrafficGenerator::new(
        TrafficSpec::udp(SizeDist::Fixed(256))
            .with_rate_gbps(4.0)
            .with_flows(
                FlowSpec {
                    count: 64,
                    ..FlowSpec::default()
                }
                .with_skew(1.2),
            ),
        3,
    );
    let n_batches = 64;
    let (outcome, egress) = cluster.run_collect(&mut gen, n_batches);
    assert_eq!(
        outcome.report.dropped_batches, 0,
        "rebalancing must be loss-free"
    );
    assert_eq!(outcome.egress_packets, (n_batches * BATCH) as u64);
    assert!(
        outcome.rebalances >= 1,
        "skewed load should trip the controller (got {})",
        outcome.rebalances
    );
    assert!(outcome.migrated_bytes > 0, "moves should migrate state");
    assert_per_flow_order(&egress, "adaptive 4-server shard");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For ANY schedule of forced shard moves — any batch index, any
    /// (from, to) pair, including no-ops and out-of-range servers — the
    /// cluster loses nothing and per-flow order is preserved. The
    /// forced path shares the apply code with the live controller.
    #[test]
    fn any_rebalance_schedule_preserves_order_and_loses_nothing(
        moves in proptest::collection::vec((0usize..30, 0u32..5, 0u32..5), 1..6),
        seed in 1u64..500,
    ) {
        let n_batches = 30;
        let spec = ClusterSpec::uniform(4);
        let mut cluster =
            ClusterDeployment::build(spec, &sfc(), Policy::nfcompass(), configure);
        let (outcome, egress) = cluster.run_with_moves(&mut traffic(seed), n_batches, &moves);
        prop_assert_eq!(outcome.report.dropped_batches, 0);
        prop_assert_eq!(outcome.egress_packets, (n_batches * BATCH) as u64);
        assert_per_flow_order(&egress, &format!("moves {moves:?} seed {seed}"));

        // The static twin of the same rack sees the same packets (same
        // warm-up draw): rebalancing must not change WHAT egresses,
        // only WHERE flows were processed.
        let spec = ClusterSpec::uniform(4);
        let mut static_cluster =
            ClusterDeployment::build(spec, &sfc(), Policy::nfcompass(), configure);
        let (static_out, _) = static_cluster.run_collect(&mut traffic(seed), n_batches);
        prop_assert_eq!(outcome.egress_packets, static_out.egress_packets);
    }
}

/// Cluster deployment with per-flow tracing armed at rate 1 (every
/// flow sampled — the most aggressive differential).
fn traced(d: Deployment) -> Deployment {
    configure(d)
        .with_telemetry(nfc_core::TelemetryMode::Memory)
        .with_flow_trace(1)
}

/// Same telemetry mode, tracing disarmed: the only delta vs [`traced`]
/// is the flow-forensics plane itself.
fn untraced(d: Deployment) -> Deployment {
    configure(d)
        .with_telemetry(nfc_core::TelemetryMode::Memory)
        .without_flow_trace()
}

#[test]
fn forced_migration_of_sampled_flows_stitches_one_contiguous_timeline() {
    // A forced vnode move mid-run migrates sampled flows between
    // servers; the flow plane must record the hand-over as a `migrate`
    // point answered by a same-instant `shard` on the destination's
    // track, with every later dispatch landing on the destination —
    // one contiguous timeline whose hop deltas telescope exactly to
    // the end-to-end latency. (In-flight batches dispatched before the
    // move may still drain on the old owner after the hand-over.)
    let spec = ClusterSpec::uniform(4).with_rebalance(RebalanceConfig {
        epoch_batches: 8,
        imbalance_threshold: f64::INFINITY, // forced moves only
        hysteresis_epochs: 1,
        cooldown_epochs: 0,
        vnodes_per_move: 16,
    });
    let mut cluster = ClusterDeployment::build(spec, &sfc(), Policy::nfcompass(), traced);
    let n_batches = 40;
    let (outcome, _) =
        cluster.run_with_moves(&mut traffic(17), n_batches, &[(12, 0, 1), (24, 2, 3)]);
    assert_eq!(outcome.report.dropped_batches, 0);
    let digest = outcome.telemetry.expect("memory telemetry digest");
    let mut flows: HashMap<u32, Vec<(f64, &'static str, u32)>> = HashMap::new();
    for ev in &digest.trace {
        if let nfc_telemetry::EventKind::FlowPoint {
            flow,
            point,
            server,
            ..
        } = ev.kind
        {
            let at = ev.sim.expect("flow points are sim instants").start_ns;
            flows.entry(flow).or_default().push((at, point, server));
        }
    }
    assert!(!flows.is_empty(), "rate-1 sampling saw no flows");
    let mut migrated_checked = 0;
    for (flow, mut points) in flows {
        points.sort_by(|a, b| a.0.total_cmp(&b.0));
        // Telescoping holds for every sampled flow, migrated or not.
        let e2e = points.last().unwrap().0 - points[0].0;
        let hop_sum: f64 = points.windows(2).map(|w| w[1].0 - w[0].0).sum();
        assert!(
            (hop_sum - e2e).abs() < 1e-9,
            "flow {flow:#010x}: hops {hop_sum} != e2e {e2e}"
        );
        let migrates: Vec<usize> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.1 == "migrate")
            .map(|(i, _)| i)
            .collect();
        let [mi] = migrates[..] else { continue };
        let dest = points[mi].2;
        assert!(
            mi > 0,
            "flow {flow:#010x}: a migrate implies an earlier sampled dispatch"
        );
        let (at, point, server) = points[mi + 1];
        assert!(
            point == "shard" && server == dest && (at - points[mi].0).abs() < 1e-9,
            "flow {flow:#010x}: migrate not answered by a same-instant shard on the \
             destination, got {point} on server {server}"
        );
        assert!(
            points[..mi].iter().any(|p| p.2 != dest),
            "flow {flow:#010x} 'migrated' without changing servers"
        );
        assert!(
            points[mi..]
                .iter()
                .filter(|p| p.1 == "shard")
                .all(|p| p.2 == dest),
            "flow {flow:#010x} dispatched off the destination after migrating"
        );
        migrated_checked += 1;
    }
    assert!(
        migrated_checked > 0,
        "forced moves must migrate at least one sampled flow with traffic on both sides"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Differential: for ANY forced-migration schedule and seed, the
    /// cluster's egress (payloads, counters, rebalance accounting) is
    /// bit-identical with flow tracing armed at rate 1 and disarmed —
    /// forensics is purely observational even across migrations.
    #[test]
    fn flow_tracing_on_off_is_bit_identical_under_any_migration_schedule(
        moves in proptest::collection::vec((0usize..30, 0u32..4, 0u32..4), 1..4),
        seed in 1u64..200,
    ) {
        let run = |armed: bool| {
            let cfg: fn(Deployment) -> Deployment = if armed { traced } else { untraced };
            let spec = ClusterSpec::uniform(3);
            let mut cluster = ClusterDeployment::build(spec, &sfc(), Policy::nfcompass(), cfg);
            cluster.run_with_moves(&mut traffic(seed), 30, &moves)
        };
        let (out_on, egress_on) = run(true);
        let (out_off, egress_off) = run(false);
        prop_assert_eq!(egress_on, egress_off, "tracing must not touch egress");
        prop_assert_eq!(out_on.egress_packets, out_off.egress_packets);
        prop_assert_eq!(out_on.egress_bytes, out_off.egress_bytes);
        prop_assert_eq!(out_on.rebalances, out_off.rebalances);
        prop_assert_eq!(out_on.migrated_bytes, out_off.migrated_bytes);
        prop_assert_eq!(out_on.shard_map, out_off.shard_map);
    }
}

#[test]
fn eight_server_rack_sustains_3x_one_saturated_box() {
    // Four deep read-only firewalls, re-organized into four parallel
    // branches, under a load that saturates one Table-I box; every
    // shard hand-off is charged on the 40 GbE rack links. Simulated
    // clock, so the ratio is exact: 42.41 vs 149.84 Gbit/s = 3.53x.
    let chain = Sfc::new(
        "fw-x4",
        (0..4)
            .map(|i| Nf::firewall(format!("fw{i}"), 2560, 1))
            .collect(),
    );
    let gbps = |n_servers: usize| {
        let spec = ClusterSpec::uniform(n_servers);
        let mut cluster = ClusterDeployment::build(spec, &chain, Policy::nfcompass(), |d| {
            d.with_batch_size(1024)
        });
        let mut traffic = TrafficGenerator::new(
            TrafficSpec::udp(SizeDist::Fixed(512))
                .with_rate_gbps(200.0)
                .with_flows(FlowSpec {
                    count: 1024,
                    ..FlowSpec::default()
                }),
            5,
        );
        cluster.run(&mut traffic, 12).report.throughput_gbps
    };
    let (one, eight) = (gbps(1), gbps(8));
    assert!(
        eight >= 3.0 * one,
        "8-server rack must sustain >= 3x one box, got {eight:.2} vs {one:.2} Gbit/s"
    );
}
