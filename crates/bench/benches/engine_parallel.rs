//! Engine benchmark: CoW branch duplication + worker-pool execution vs
//! the serial deep-copy baseline on a 4-branch re-organized SFC.
//!
//! Four configurations run the same chain on the same traffic:
//!
//! * `serial_deepcopy` — the pre-engine behavior: branches run one after
//!   another and each receives an eagerly copied batch.
//! * `serial_cow` — duplication is a refcount bump; the XOR merge skips
//!   branches whose buffers are still shared.
//! * `parallel_cow` — CoW plus the persistent worker pool, always on at
//!   least two threads (`NFC_THREADS` / available parallelism when that
//!   is more): a configuration labelled parallel never silently runs
//!   the serial engine.
//! * `parallel_cow_lanes_off` — `parallel_cow` on the per-packet
//!   reference path (`Deployment::with_lanes(false)`) instead of the SoA
//!   header-lane sweeps, showing what the shipped lane + SWAR path buys
//!   on top of the engine.
//!
//! Egress must be byte-identical across all four; the measured
//! throughputs and the speedups are recorded in `BENCH_engine.json` at
//! the repository root.

use criterion::{black_box, BenchmarkId, Criterion};
use nfc_core::{Deployment, Duplication, ExecMode, Policy, RunOutcome, Sfc, TelemetryMode};
use nfc_hetero::GpuMode;
use nfc_nf::Nf;
use nfc_packet::traffic::{SizeDist, TrafficGenerator, TrafficSpec};
use nfc_packet::Batch;
use nfc_telemetry::{
    DriftWatchdog, FlowSampler, HealthState, Recorder, SketchKey, SketchSet, SloSpec,
    DEFAULT_SKETCH_ALPHA,
};
use serde_json::json;
use std::time::Instant;

const BATCH_SIZE: usize = 256;
const PKT_BYTES: usize = 1024;

/// The engine mode of every configuration labelled parallel.
fn parallel_mode() -> ExecMode {
    ExecMode::Parallel {
        threads: ExecMode::auto().threads().max(2),
    }
}

fn configs() -> Vec<(&'static str, ExecMode, Duplication, bool)> {
    vec![
        (
            "serial_deepcopy",
            ExecMode::Serial,
            Duplication::DeepCopy,
            true,
        ),
        ("serial_cow", ExecMode::Serial, Duplication::Cow, true),
        ("parallel_cow", parallel_mode(), Duplication::Cow, true),
        (
            "parallel_cow_lanes_off",
            parallel_mode(),
            Duplication::Cow,
            false,
        ),
    ]
}

/// Four read-only firewalls: the analyzer re-organizes them into four
/// parallel singleton branches (the paper's Figure 13 b shape).
fn chain() -> Sfc {
    Sfc::new(
        "fw-x4",
        (0..4)
            .map(|i| Nf::firewall(format!("fw{i}"), 256, 1))
            .collect(),
    )
}

fn deployment(exec: ExecMode, dup: Duplication, lanes: bool) -> Deployment {
    let policy = Policy::ReorgOnly {
        max_branches: 4,
        synthesize: false,
        ratio: 0.0,
        mode: GpuMode::Persistent,
    };
    Deployment::new(chain(), policy)
        .with_batch_size(BATCH_SIZE)
        .with_exec_mode(exec)
        .with_duplication(dup)
        .with_lanes(lanes)
        .without_slo()
        .without_flow_trace()
}

/// Pre-generates the workload once so the timed region is the engine
/// (duplication, branch execution, merge), not the traffic synthesizer.
fn workload(n_batches: usize) -> Vec<Batch> {
    let mut traffic = TrafficGenerator::new(TrafficSpec::udp(SizeDist::Fixed(PKT_BYTES)), 7);
    (0..n_batches).map(|_| traffic.batch(BATCH_SIZE)).collect()
}

fn run_config(
    exec: ExecMode,
    dup: Duplication,
    lanes: bool,
    batches: &[Batch],
) -> (f64, RunOutcome, Vec<Batch>) {
    run_with_telemetry(exec, dup, lanes, TelemetryMode::Off, batches)
}

fn run_with_telemetry(
    exec: ExecMode,
    dup: Duplication,
    lanes: bool,
    telemetry: TelemetryMode,
    batches: &[Batch],
) -> (f64, RunOutcome, Vec<Batch>) {
    let mut dep = deployment(exec, dup, lanes).with_telemetry(telemetry);
    let mut traffic = TrafficGenerator::new(TrafficSpec::udp(SizeDist::Fixed(PKT_BYTES)), 7);
    let start = Instant::now();
    let (out, egress) = dep.run_replay(&mut traffic, batches);
    (start.elapsed().as_secs_f64(), out, egress)
}

/// Estimates what the disabled telemetry hooks cost on the hot path:
/// times a large batch of no-op recorder probes (the exact shape the
/// runtime uses — `start()` then an `is_enabled()` branch), scales by
/// the number of events an instrumented run actually records, and
/// expresses that as a percentage of the telemetry-off wall time.
fn disabled_hook_overhead_pct(events: u64, wall_s: f64) -> f64 {
    let rec = Recorder::disabled();
    const PROBES: u64 = 4_000_000;
    let start = Instant::now();
    for i in 0..PROBES {
        let t = rec.start();
        if black_box(rec.is_enabled()) {
            unreachable!("recorder is disabled");
        }
        black_box(t);
        black_box(i);
    }
    let ns_per_probe = start.elapsed().as_secs_f64() * 1e9 / PROBES as f64;
    events as f64 * ns_per_probe / (wall_s * 1e9) * 100.0
}

/// Estimates the armed health plane's per-batch cost: times the exact
/// accounting the runtime does for every completed batch (SLO window
/// bookkeeping, e2e + per-stage sketch records, the drift watchdog) plus
/// an amortized epoch close, scales by the batch count of the measured
/// run, and expresses it as a percentage of the telemetry-off wall time.
fn health_plane_overhead_pct(n_batches: u64, wall_s: f64) -> f64 {
    let spec = SloSpec {
        p99_latency_ns: 1.0,
        epoch_batches: 16,
        ..Default::default()
    };
    let mut state = HealthState::new(spec);
    let mut watchdog = DriftWatchdog::new(0.5, 2);
    let mut sketches = SketchSet::new(DEFAULT_SKETCH_ALPHA);
    const PROBES: u64 = 200_000;
    let start = Instant::now();
    for i in 0..PROBES {
        let t = (i % 97) as f64 + 1.0;
        state.observe_batch(t * 100.0, 1024, t, t + 100.0);
        sketches.record(SketchKey::chain("e2e_ns"), t * 100.0);
        for s in 0..4u32 {
            sketches.record(SketchKey::stage("stage_wall_ns", s, "cpu"), t);
        }
        watchdog.observe(t * 90.0, t * 100.0, &mut sketches);
        if i % 16 == 0 {
            black_box(state.epoch());
            black_box(watchdog.epoch());
        }
    }
    black_box(sketches.len());
    let ns_per_batch = start.elapsed().as_secs_f64() * 1e9 / PROBES as f64;
    n_batches as f64 * ns_per_batch / (wall_s * 1e9) * 100.0
}

/// Estimates the armed flow-forensics cost on the hot path: times the
/// per-packet sampling decision (a modulo against the flow hash — the
/// only work unsampled packets pay), scales by the packet count of the
/// measured run, and expresses it as a percentage of the trace-off wall
/// time. Sampled flows additionally pay one event append per touchpoint,
/// but at 1/256 that term is two orders of magnitude smaller.
fn flow_plane_overhead_pct(packets: u64, wall_s: f64) -> f64 {
    let sampler = FlowSampler::new(256);
    const PROBES: u64 = 4_000_000;
    let start = Instant::now();
    let mut hits = 0u64;
    for i in 0..PROBES {
        if sampler.sampled(black_box(i as u32).wrapping_mul(0x9e37_79b9)) {
            hits += 1;
        }
    }
    black_box(hits);
    let ns_per_probe = start.elapsed().as_secs_f64() * 1e9 / PROBES as f64;
    packets as f64 * ns_per_probe / (wall_s * 1e9) * 100.0
}

fn engine_benches(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    let batches = workload(10);
    for (label, exec, dup, lanes) in configs() {
        let batches = &batches;
        g.bench_function(BenchmarkId::new("4branch_x10batches", label), move |b| {
            b.iter(|| black_box(run_config(exec, dup, lanes, batches)))
        });
    }
    g.finish();
}

/// Measures all four configurations, checks functional equivalence, and
/// writes `BENCH_engine.json` at the repository root.
fn emit_report(full: bool) {
    let n_batches = if full { 64 } else { 16 };
    let reps = if full { 3 } else { 2 };
    let batches = workload(n_batches);
    let mut rows = Vec::new();
    let mut reference: Option<(RunOutcome, Vec<Batch>)> = None;
    for (label, exec, dup, lanes) in configs() {
        let mut best = f64::INFINITY;
        let mut kept = None;
        for _ in 0..reps {
            let (secs, out, egress) = run_config(exec, dup, lanes, &batches);
            best = best.min(secs);
            kept = Some((out, egress));
        }
        let (out, egress) = kept.expect("at least one rep");
        match &reference {
            None => reference = Some((out.clone(), egress.clone())),
            Some((ref_out, ref_egress)) => {
                assert_eq!(
                    ref_egress, &egress,
                    "{label}: egress differs from serial_deepcopy"
                );
                assert_eq!(
                    ref_out.stage_stats, out.stage_stats,
                    "{label}: per-element stats differ from serial_deepcopy"
                );
                assert_eq!(ref_out.merge_conflicts, out.merge_conflicts);
            }
        }
        let wire_bytes = (n_batches * BATCH_SIZE * PKT_BYTES) as f64;
        let gbps = wire_bytes * 8.0 / best / 1e9;
        println!(
            "{label:<18} {:>8.1} ms for {n_batches} batches  ({gbps:.2} Gbit/s offered)",
            best * 1e3
        );
        rows.push((label, best, gbps, out.width, lanes));
    }
    let baseline = rows[0].1;
    let cow = baseline / rows[1].1;
    let parallel = baseline / rows[2].1;
    println!("speedup vs serial_deepcopy: serial_cow {cow:.2}x, parallel_cow {parallel:.2}x");
    // Reported, not gated: on a two-core host four 1 KiB-packet branches
    // leave the pool little to win over the serial CoW engine.
    let pool = rows[1].1 / rows[2].1;
    println!("speedup parallel_cow vs serial_cow: {pool:.2}x");
    assert!(
        parallel >= 2.0,
        "engine must be >= 2x over the deep-copy serial baseline, got {parallel:.2}x"
    );
    // SoA header-lane rider: same parallel CoW engine on the per-packet
    // reference path vs the shipped lane + SWAR sweeps. The egress
    // equality above already proved the two paths byte-identical; here
    // the lanes must also pay for themselves.
    let lanes_gain = rows[3].1 / rows[2].1;
    println!("speedup lanes on vs off (parallel_cow): {lanes_gain:.2}x");
    assert!(
        lanes_gain >= 1.3,
        "SoA header lanes must be >= 1.3x over the per-packet path, got {lanes_gain:.2}x"
    );
    // Telemetry rider: an instrumented run must keep byte-identical
    // egress, and the disabled hooks left in the hot path must cost
    // under 1% of the telemetry-off parallel configuration.
    let (tel_secs, tel_out, tel_egress) = run_with_telemetry(
        parallel_mode(),
        Duplication::Cow,
        true,
        TelemetryMode::Memory,
        &batches,
    );
    let (ref_out, ref_egress) = reference.as_ref().expect("reference row");
    assert_eq!(
        ref_egress, &tel_egress,
        "telemetry-on egress differs from serial_deepcopy"
    );
    assert_eq!(
        ref_out.stage_stats, tel_out.stage_stats,
        "telemetry-on per-element stats differ from serial_deepcopy"
    );
    let digest = tel_out.telemetry.expect("telemetry digest");
    let overhead_pct = disabled_hook_overhead_pct(digest.events, rows[2].1);
    println!(
        "telemetry: {} events in {:.1} ms instrumented; disabled-hook overhead \
         {overhead_pct:.4}% of parallel_cow",
        digest.events,
        tel_secs * 1e3
    );
    assert!(
        overhead_pct < 1.0,
        "disabled telemetry must stay under 1% of the hot path, got {overhead_pct:.4}%"
    );
    // Health-plane rider: arming an SLO keeps egress byte-identical and
    // the armed accounting (burn windows, sketches, drift watchdog)
    // stays under 1% of the telemetry-off parallel wall time.
    let mut armed = deployment(parallel_mode(), Duplication::Cow, true)
        .with_telemetry(TelemetryMode::Memory)
        .with_slo(SloSpec {
            p99_latency_ns: 1.0,
            epoch_batches: 8,
            ..Default::default()
        });
    let mut armed_traffic = TrafficGenerator::new(TrafficSpec::udp(SizeDist::Fixed(PKT_BYTES)), 7);
    let (armed_out, armed_egress) = armed.run_replay(&mut armed_traffic, &batches);
    assert_eq!(
        ref_egress, &armed_egress,
        "SLO-armed egress differs from serial_deepcopy"
    );
    assert_eq!(
        ref_out.stage_stats, armed_out.stage_stats,
        "SLO-armed per-element stats differ from serial_deepcopy"
    );
    let health_pct = health_plane_overhead_pct(n_batches as u64, rows[2].1);
    println!("health plane: armed accounting costs {health_pct:.4}% of parallel_cow");
    assert!(
        health_pct < 1.0,
        "the armed health plane must stay under 1% of the hot path, got {health_pct:.4}%"
    );
    // Flow-forensics rider: arming 1/256 deterministic flow tracing
    // keeps egress byte-identical, and the per-packet sampling decision
    // costs under 1% of the telemetry-off parallel wall time.
    let mut traced = deployment(parallel_mode(), Duplication::Cow, true)
        .with_telemetry(TelemetryMode::Memory)
        .with_flow_trace(256);
    let mut traced_traffic = TrafficGenerator::new(TrafficSpec::udp(SizeDist::Fixed(PKT_BYTES)), 7);
    let (traced_out, traced_egress) = traced.run_replay(&mut traced_traffic, &batches);
    assert_eq!(
        ref_egress, &traced_egress,
        "flow-traced egress differs from serial_deepcopy"
    );
    assert_eq!(
        ref_out.stage_stats, traced_out.stage_stats,
        "flow-traced per-element stats differ from serial_deepcopy"
    );
    let flow_pct = flow_plane_overhead_pct((n_batches * BATCH_SIZE) as u64, rows[2].1);
    println!("flow plane: 1/256 sampling costs {flow_pct:.4}% of parallel_cow");
    assert!(
        flow_pct < 1.0,
        "the armed flow plane must stay under 1% of the hot path, got {flow_pct:.4}%"
    );
    let mut cfgs = serde_json::Value::Object(Default::default());
    for (label, secs, gbps, _, lanes) in &rows {
        cfgs[*label] = json!({
            "wall_s": secs,
            "offered_gbps": gbps,
            "speedup_vs_serial_deepcopy": baseline / secs,
            "soa_lanes": lanes,
        });
    }
    let report = json!({
        "benchmark": "engine_parallel",
        "chain": "fw-x4 (256-rule ACLs) re-organized into 4 parallel branches",
        "batch_size": BATCH_SIZE,
        "pkt_bytes": PKT_BYTES,
        "n_batches": n_batches,
        "clock": "wall",
        // What the parallel configurations actually ran on: the caller
        // plus pool workers, never more than there are branches.
        "threads": parallel_mode().threads().min(rows[2].3),
        "egress_byte_identical": true,
        "configs": cfgs,
        "speedup_parallel_cow_vs_serial_deepcopy": parallel,
        "speedup_parallel_cow_vs_serial_cow": pool,
        "speedup_soa_lanes_on_vs_off": lanes_gain,
        "telemetry": {
            "events": digest.events,
            "instrumented_wall_s": tel_secs,
            "disabled_hook_overhead_pct": overhead_pct,
        },
        "health_plane": {
            "egress_byte_identical": true,
            "armed_overhead_pct": health_pct,
        },
        "flow_plane": {
            "egress_byte_identical": true,
            "sampling_rate": 256,
            "armed_overhead_pct": flow_pct,
        },
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    std::fs::write(
        path,
        serde_json::to_string_pretty(&report).expect("serializes") + "\n",
    )
    .expect("write BENCH_engine.json");
    println!("wrote {path}");
}

fn main() {
    let full = std::env::args().any(|a| a == "--bench");
    let mut c = Criterion::default().configure_from_args();
    engine_benches(&mut c);
    emit_report(full);
}
