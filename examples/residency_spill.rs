//! SM-residency walkthrough: an oversubscribed persistent-kernel plan
//! degrading gracefully instead of oversubscribing the GPU.
//!
//! Four IPsec stages at batch 2048 each demand 16 SM slots for their
//! persistent kernels — 64 slots against the HPCA'18 device complex's
//! 2 × 24. The residency pass (pressure-aware spread packing, which at
//! this point agrees with first-fit) keeps two kernels resident (one
//! per device) and spills the other two to launch-per-batch dispatch;
//! the run completes with every packet accounted for and the
//! co-residency pressure charged on the simulated timeline.
//!
//! The run prints the residency placement and per-mode throughput, and —
//! like every deployment — exports a trace when `NFC_TELEMETRY` is set.
//! That trace's `nfc-trace attribution --json` is committed as
//! `ci/residency_baseline.json`: `ci/record.sh` re-records it and CI
//! fails on any `git diff`, pinning the residency-constrained plan's
//! simulated-time behaviour.
//!
//! Run with: `cargo run --release -p nfc-core --example residency_spill`

use nfc_core::{Deployment, Policy, Sfc};
use nfc_hetero::GpuMode;
use nfc_nf::Nf;
use nfc_packet::traffic::{SizeDist, TrafficGenerator, TrafficSpec};

const BATCH_SIZE: usize = 2048;
const N_BATCHES: usize = 24;

fn run(mode: GpuMode) -> nfc_core::RunOutcome {
    let sfc = Sfc::new(
        "ipsec-x4",
        (0..4).map(|i| Nf::ipsec(format!("ipsec{i}"))).collect(),
    );
    let mut dep = Deployment::new(sfc, Policy::GpuOnly { mode }).with_batch_size(BATCH_SIZE);
    let mut traffic = TrafficGenerator::new(TrafficSpec::udp(SizeDist::Fixed(256)), 42);
    dep.run(&mut traffic, N_BATCHES)
}

fn main() {
    let out = run(GpuMode::Persistent);
    println!("=== 4x IPsec, GPU-only, batch {BATCH_SIZE}: persistent kernels ===");
    println!(
        "SM complex: {} device(s) x {} slots",
        out.residency.devices, out.residency.slots_per_device
    );
    for (name, device, slots) in &out.residency.resident {
        println!("  resident  {name:<8} device {device}  ({slots} slots)");
    }
    for name in &out.residency.spilled {
        println!("  spilled   {name:<8} -> launch-per-batch");
    }
    assert!(out.residency.within_capacity(), "plan oversubscribes SMs");
    assert!(!out.residency.spilled.is_empty(), "expected spills");
    println!(
        "throughput {:.2} Gbit/s, {} packets egressed",
        out.report.throughput_gbps, out.egress_packets
    );
    let lpb = run(GpuMode::LaunchPerBatch);
    println!(
        "launch-per-batch reference: {:.2} Gbit/s",
        lpb.report.throughput_gbps
    );
}
