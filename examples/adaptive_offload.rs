//! Adaptive control plane walkthrough: a mid-run traffic shift being
//! absorbed by online re-partitioning.
//!
//! A DPI chain starts on benign traffic — nothing matches the IDS
//! signatures — and is then hit by a flood where every payload matches,
//! making pattern matching ~4.5x more expensive per packet. A static
//! plan built for the benign phase is wrong for the hostile one; the
//! controller detects the drift from the windowed workload signature,
//! re-partitions with the fast agglomerative pass, and swaps the plan
//! live (drain, state migration, kernel relaunch — all charged on the
//! simulated timeline).
//!
//! The run prints per-phase throughput with the controller enabled vs
//! disabled, and the adaptation timeline (trigger reason, old -> new
//! offload ratio, swap latency).
//!
//! Run with: `cargo run --release -p nfc-core --example adaptive_offload`

use nfc_core::{ControllerConfig, Deployment, Policy, Sfc};
use nfc_nf::Nf;
use nfc_packet::traffic::{PayloadPolicy, SizeDist, TrafficGenerator, TrafficSpec};

const BATCHES_PER_PHASE: usize = 48;
const BATCH_SIZE: usize = 256;

fn phases() -> Vec<TrafficGenerator> {
    [0.0, 1.0]
        .iter()
        .enumerate()
        .map(|(i, &ratio)| {
            TrafficGenerator::new(
                TrafficSpec::udp(SizeDist::Fixed(512))
                    .with_rate_gbps(40.0)
                    .with_payload(PayloadPolicy::MatchRatio {
                        patterns: Nf::default_ids_signatures(),
                        ratio,
                    }),
                41 + i as u64,
            )
        })
        .collect()
}

fn run(cfg: &ControllerConfig) -> (Vec<f64>, nfc_core::ControllerReport) {
    let sfc = Sfc::new("dpi", vec![Nf::dpi("dpi")]);
    let mut dep = Deployment::new(sfc, Policy::nfcompass()).with_batch_size(BATCH_SIZE);
    let (outcomes, report) = dep.run_adaptive(&mut phases(), BATCHES_PER_PHASE, cfg);
    let gbps = outcomes.iter().map(|o| o.report.throughput_gbps).collect();
    (gbps, report)
}

fn main() {
    let cfg = ControllerConfig {
        epoch_batches: 8,
        ..ControllerConfig::default()
    };
    let (adaptive, report) = run(&cfg);
    let (stale, _) = run(&ControllerConfig::disabled());

    println!("=== DPI under a match-ratio flood (benign -> hostile) ===");
    println!(
        "{:<26} {:>12} {:>12}",
        "configuration", "benign Gbps", "hostile Gbps"
    );
    println!(
        "{:<26} {:>12.2} {:>12.2}",
        "static (controller off)", stale[0], stale[1]
    );
    println!(
        "{:<26} {:>12.2} {:>12.2}",
        "adaptive (controller on)", adaptive[0], adaptive[1]
    );

    println!(
        "\n=== adaptation timeline ({} epochs, {} triggers, {} refines) ===",
        report.epochs, report.triggers, report.refines
    );
    println!(
        "{:>5}  {:<14} {:<12} {:>5} -> {:<5} {:>9}  reason",
        "epoch", "algo", "stage", "old", "new", "swap(us)"
    );
    for a in &report.adaptations {
        let old = format!("{:.0}%", a.old_ratio * 100.0);
        let new = format!("{:.0}%", a.new_ratio * 100.0);
        println!(
            "{:>5}  {:<14} {:<12} {:>5} -> {:<5} {:>9.2}  {}{}",
            a.epoch,
            a.algo,
            a.stage,
            old,
            new,
            a.swap_ns / 1e3,
            a.reason,
            if a.applied { "" } else { " (not adopted)" }
        );
    }
    // Both runs are deterministic on the simulated clock.
    assert!(
        report.applied() >= 1,
        "the flood must drive at least one adopted swap: {report:?}"
    );
    assert!(
        adaptive[1] > stale[1],
        "adaptive {:.2} Gbps must beat the stale plan's {:.2} Gbps on the hostile phase",
        adaptive[1],
        stale[1]
    );
}
