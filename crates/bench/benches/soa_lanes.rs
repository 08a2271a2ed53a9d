//! SoA/residency ablation (Figure-8 style): persistent kernels vs
//! launch-per-batch dispatch as SM slots saturate.
//!
//! A fixed 4-stage IPsec chain is swept in batch size. Every doubling of
//! the batch doubles each persistent kernel's SM-slot demand
//! (`batch / 128` slots), so the sweep walks the chain from a lightly
//! loaded SM array into full oversubscription of the HPCA'18 device
//! complex (2 × 24 slots): small batches leave every kernel resident at
//! low occupancy, mid-sized batches pack devices past the co-residency
//! pressure knee, and the largest batches cannot be placed at all — the
//! residency pass spills them to launch-per-batch dispatch. Each point
//! runs twice — `GpuMode::Persistent` (residency-aware) and
//! `GpuMode::LaunchPerBatch` — and the per-point advantage
//! `persistent / launch_per_batch` is the ablation curve.
//!
//! Asserted in-bench:
//!
//! * while the SM array is comfortably inside capacity (no spills,
//!   occupancy below the pressure knee), persistence clearly pays:
//!   frequent small-batch launches are exactly what the paper's
//!   persistent kernels amortize away;
//! * the sweep reaches saturation (spills exist), and a crossover point
//!   exists from which persistence never pays again (advantage stays
//!   below [`PAYOFF`] for the rest of the sweep — co-residency pressure
//!   may dent the curve earlier, but only saturation ends the payoff);
//! * the crossover never precedes the first spill, and at the terminal
//!   fully-spilled point the two modes converge to parity — a spilled
//!   plan *is* launch-per-batch, so persistence demonstrably degraded
//!   instead of oversubscribing the array.
//!
//! The curves and the crossover are recorded in `BENCH_soa.json` at the
//! repository root.

use nfc_core::{Deployment, Policy, RunOutcome, Sfc};
use nfc_hetero::GpuMode;
use nfc_nf::Nf;
use nfc_packet::traffic::{SizeDist, TrafficGenerator, TrafficSpec};
use serde_json::json;

/// Advantage threshold below which persistence "stops paying".
const PAYOFF: f64 = 1.05;
const CHAIN_LEN: usize = 4;
const PKT_BYTES: usize = 256;
/// Batch sizes swept: slot demand per kernel is `batch / 128`, so the
/// four kernels demand 8, 16, 32, 64 and 128 slots in total against the
/// 48-slot complex.
const BATCHES: [usize; 5] = [256, 512, 1024, 2048, 4096];

fn run_point(batch: usize, mode: GpuMode, n_batches: usize) -> RunOutcome {
    let sfc = Sfc::new(
        "ipsec-x4",
        (0..CHAIN_LEN)
            .map(|i| Nf::ipsec(format!("ipsec{i}")))
            .collect(),
    );
    let mut dep = Deployment::new(sfc, Policy::GpuOnly { mode }).with_batch_size(batch);
    let mut traffic = TrafficGenerator::new(TrafficSpec::udp(SizeDist::Fixed(PKT_BYTES)), 42);
    dep.run(&mut traffic, n_batches)
}

struct Point {
    batch: usize,
    resident: usize,
    spilled: usize,
    max_occupancy_pct: usize,
    persistent_gbps: f64,
    launch_gbps: f64,
    advantage: f64,
}

fn max_occupancy_pct(out: &RunOutcome) -> usize {
    (0..out.residency.devices)
        .map(|d| out.residency.device_slots_used(d) * 100 / out.residency.slots_per_device.max(1))
        .max()
        .unwrap_or(0)
}

fn main() {
    let full = std::env::args().any(|a| a == "--bench");
    let n_batches = if full { 24 } else { 10 };
    let mut points: Vec<Point> = Vec::new();
    println!("batch  resident spilled  occ%  persistent  launch/batch  advantage");
    for &batch in &BATCHES {
        let pers = run_point(batch, GpuMode::Persistent, n_batches);
        let lpb = run_point(batch, GpuMode::LaunchPerBatch, n_batches);
        assert!(
            pers.residency.within_capacity(),
            "batch {batch}: adopted plan exceeds SM capacity"
        );
        let max_occ = max_occupancy_pct(&pers);
        let advantage = pers.report.throughput_gbps / lpb.report.throughput_gbps;
        println!(
            "{batch:>5}  {:>8} {:>7}  {max_occ:>3}%  {:>8.2} G  {:>10.2} G  {advantage:>8.2}x",
            pers.residency.resident.len(),
            pers.residency.spilled.len(),
            pers.report.throughput_gbps,
            lpb.report.throughput_gbps,
        );
        points.push(Point {
            batch,
            resident: pers.residency.resident.len(),
            spilled: pers.residency.spilled.len(),
            max_occupancy_pct: max_occ,
            persistent_gbps: pers.report.throughput_gbps,
            launch_gbps: lpb.report.throughput_gbps,
            advantage,
        });
    }
    let first_spill = points.iter().find(|p| p.spilled > 0).map(|p| p.batch);
    // Crossover: the first point from which persistence never pays
    // again (advantage stays below PAYOFF for the rest of the sweep —
    // co-residency pressure can dent the curve earlier, but only
    // saturation ends the payoff for good).
    let crossover = (0..points.len())
        .find(|&i| points[i..].iter().all(|p| p.advantage < PAYOFF))
        .map(|i| points[i].batch);
    let last = points.last().expect("non-empty sweep");
    println!(
        "first spill at batch {first_spill:?}; persistence stops paying (<{PAYOFF}x) at batch \
         {crossover:?}"
    );
    // Comfortably inside capacity (resident, below the pressure knee)
    // the persistent kernels must clearly pay for themselves.
    for p in points
        .iter()
        .filter(|p| p.spilled == 0 && p.max_occupancy_pct <= 50)
    {
        assert!(
            p.advantage >= PAYOFF,
            "batch {}: unpressured resident advantage {:.2}x below {PAYOFF}x",
            p.batch,
            p.advantage
        );
    }
    // Saturation must exist in the sweep, and the terminal fully-spilled
    // point must have degraded to launch-per-batch parity.
    let first_spill = first_spill.expect("sweep never oversubscribed the SM array");
    assert_eq!(
        last.resident, 0,
        "terminal point should spill every kernel, {} still resident",
        last.resident
    );
    assert!(
        (last.advantage - 1.0).abs() < 0.02,
        "fully spilled plan should match launch-per-batch, got {:.3}x",
        last.advantage
    );
    let crossover =
        crossover.expect("sweep never reached the point where persistence stops paying");
    assert!(
        crossover >= first_spill,
        "persistence stopped paying at batch {crossover}, before the first spill at {first_spill}"
    );
    let report = json!({
        "benchmark": "soa_lanes_residency_ablation",
        "chain": format!("ipsec x{CHAIN_LEN}, GPU-only"),
        "pkt_bytes": PKT_BYTES,
        "n_batches": n_batches,
        "sm_capacity": { "devices": 2, "slots_per_device": 24 },
        "payoff_threshold": PAYOFF,
        "first_spill_batch": first_spill,
        "crossover_batch": crossover,
        "points": points.iter().map(|p| json!({
            "batch_size": p.batch,
            "slots_per_kernel": p.batch.div_ceil(128),
            "resident_kernels": p.resident,
            "spilled_kernels": p.spilled,
            "max_device_occupancy_pct": p.max_occupancy_pct,
            "persistent_gbps": p.persistent_gbps,
            "launch_per_batch_gbps": p.launch_gbps,
            "persistent_advantage": p.advantage,
        })).collect::<Vec<_>>(),
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_soa.json");
    std::fs::write(
        path,
        serde_json::to_string_pretty(&report).expect("serializes") + "\n",
    )
    .expect("write BENCH_soa.json");
    println!("wrote {path}");
}
