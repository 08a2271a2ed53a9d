//! The latency-attribution layer is an exact decomposition, and its
//! traces re-fit the cost model. That enabling it (telemetry) changes no
//! observable output is checked across the whole configuration space by
//! `tests/reference_differential.rs`.
//!
//! Two properties are pinned:
//!
//! 1. **Exact reconstruction** — for every attributed batch the five
//!    buckets (compute / transfer / queue / drain / merge-wait) sum to
//!    the batch's end-to-end simulated latency.
//! 2. **Trace-driven calibration** — `nfc_telemetry::calibrate` re-fits
//!    the cost-model constants from a calibration-shaped trace (varied
//!    batch and packet sizes decorrelating packets from bytes) to
//!    within 5% of the `calib.rs` anchors.

use nfc_core::flowcache::FlowCacheMode;
use nfc_core::{ControllerConfig, Deployment, ExecMode, Policy, RunOutcome, Sfc, TelemetryMode};
use nfc_hetero::{calib, GpuMode, PlatformConfig};
use nfc_nf::acl::synth;
use nfc_nf::Nf;
use nfc_packet::traffic::{FlowSpec, PayloadPolicy, SizeDist, TrafficGenerator, TrafficSpec};
use nfc_telemetry::{attribution, batch_rows, calibrate, CalibAnchors, Event, EventKind};

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/// Cacheable + offloadable chain (same shape as the telemetry
/// differential test) so one run exercises every event source.
fn mixed_chain() -> Sfc {
    Sfc::new(
        "fw-lb",
        vec![
            Nf::firewall_with("fw", synth::generate(128, 1), true),
            Nf::load_balancer("lb", 4),
        ],
    )
}

fn skewed_traffic(pkt: usize, seed: u64) -> TrafficGenerator {
    let spec = TrafficSpec::udp(SizeDist::Fixed(pkt)).with_flows(FlowSpec {
        count: 128,
        ..FlowSpec::default().with_skew(1.0)
    });
    TrafficGenerator::new(spec, seed)
}

fn run_fixed(exec: ExecMode, seed: u64) -> RunOutcome {
    let policy = Policy::FixedRatio {
        ratio: 0.5,
        mode: GpuMode::Persistent,
    };
    let mut dep = Deployment::new(mixed_chain(), policy)
        .with_batch_size(128)
        .with_exec_mode(exec)
        .with_flow_cache(FlowCacheMode::On { capacity: 2048 })
        .with_telemetry(TelemetryMode::Memory);
    dep.run(&mut skewed_traffic(256, seed), 12)
}

/// The adaptive DPI workload from `examples/adaptive_offload.rs`,
/// shrunk: a benign phase then a hostile (all-matching) phase, so the
/// controller triggers live re-partitions mid-run.
fn adaptive_phases() -> Vec<TrafficGenerator> {
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

fn run_adaptive() -> (Vec<RunOutcome>, nfc_core::ControllerReport) {
    let sfc = Sfc::new("dpi", vec![Nf::dpi("dpi")]);
    let mut dep = Deployment::new(sfc, Policy::nfcompass())
        .with_batch_size(128)
        .with_telemetry(TelemetryMode::Memory);
    let cfg = ControllerConfig {
        epoch_batches: 8,
        ..ControllerConfig::default()
    };
    dep.run_adaptive(&mut adaptive_phases(), 24, &cfg)
}

// ---------------------------------------------------------------------
// 1. Exact bucket reconstruction
// ---------------------------------------------------------------------

fn assert_rows_reconstruct(label: &str, events: &[Event], expect_batches: u64) {
    let rows = batch_rows(events);
    assert_eq!(
        rows.len() as u64,
        expect_batches,
        "{label}: one attribution row per batch"
    );
    for row in &rows {
        assert!(row.packets > 0, "{label}: egress packets joined");
        assert!(row.e2e_ns > 0.0, "{label}: positive end-to-end latency");
        let b = &row.buckets;
        for (name, v) in [
            ("compute", b.compute_ns),
            ("transfer", b.transfer_ns),
            ("queue", b.queue_ns),
            ("drain", b.drain_ns),
            ("merge_wait", b.merge_wait_ns),
        ] {
            assert!(
                v >= 0.0,
                "{label}: bucket {name} must be non-negative, got {v}"
            );
        }
        let total = b.total();
        let tol = 1e-9 * row.e2e_ns.max(1.0);
        assert!(
            (total - row.e2e_ns).abs() <= tol,
            "{label}: buckets must sum to e2e exactly: {} vs {} (batch {})",
            total,
            row.e2e_ns,
            row.seq
        );
    }
    let report = attribution(events);
    assert_eq!(report.batches, rows.len() as u64, "{label}");
    let sum_e2e: f64 = rows.iter().map(|r| r.e2e_ns).sum();
    assert!(
        (report.total.total() - sum_e2e).abs() <= 1e-6 * sum_e2e.max(1.0),
        "{label}: aggregate buckets must reconstruct total e2e"
    );
}

#[test]
fn buckets_sum_to_end_to_end_latency_exactly() {
    for (label, exec) in [
        ("serial", ExecMode::Serial),
        ("parallel4", ExecMode::Parallel { threads: 4 }),
    ] {
        let outcome = run_fixed(exec, 29);
        let summary = outcome.telemetry.expect("digest");
        assert_eq!(summary.dropped, 0, "{label}: no events dropped");
        assert_rows_reconstruct(label, &summary.trace, 12);
    }

    // The adaptive run adds live plan swaps, so drain windows and epoch
    // markers are present; reconstruction must still be exact.
    let (outcomes, report) = run_adaptive();
    let summary = outcomes[0].telemetry.as_ref().expect("digest");
    assert_eq!(summary.dropped, 0, "adaptive: no events dropped");
    assert_rows_reconstruct("adaptive", &summary.trace, 48);
    assert!(
        report.applied() > 0,
        "the hostile phase must trigger at least one applied swap"
    );
    let epochs = summary
        .trace
        .iter()
        .filter(|ev| matches!(ev.kind, EventKind::Epoch { .. }))
        .count() as u64;
    assert_eq!(epochs, report.epochs, "one epoch marker per epoch");
}

// ---------------------------------------------------------------------
// 2. Trace-driven calibration refresh
// ---------------------------------------------------------------------

/// Re-tags one run's batch lineage so traces from independent runs can
/// be concatenated without seq collisions (each run restarts its batch
/// counter from the same user base).
fn salt_batches(events: Vec<Event>, salt: u64) -> Vec<Event> {
    events
        .into_iter()
        .map(|mut ev| {
            if ev.batch != 0 {
                ev.batch += salt;
            }
            match &mut ev.kind {
                EventKind::BatchIngress { seq, .. }
                | EventKind::BatchEgress { seq, .. }
                | EventKind::BatchAttribution { seq, .. } => *seq += salt,
                _ => {}
            }
            ev
        })
        .collect()
}

/// One calibration-sweep point: a 3-stage IPsec chain (crypto kernels
/// are divergence-free, so kernel time is exactly affine in packets and
/// bytes) at a fixed offload ratio. Three persistent stages on two GPU
/// queues force stages 0 and 2 to share a queue, so every batch pays a
/// context switch — giving the teardown fit its samples.
fn calibration_run(batch: usize, pkt: usize, ratio: f64, seed: u64) -> Vec<Event> {
    let sfc = Sfc::new(
        "ipsec3",
        vec![Nf::ipsec("enc-a"), Nf::ipsec("enc-b"), Nf::ipsec("enc-c")],
    );
    let policy = Policy::FixedRatio {
        ratio,
        mode: GpuMode::Persistent,
    };
    let mut dep = Deployment::new(sfc, policy)
        .with_batch_size(batch)
        .with_exec_mode(ExecMode::Serial)
        .with_flow_cache(FlowCacheMode::Off)
        .with_telemetry(TelemetryMode::Memory);
    let outcome = dep.run(&mut skewed_traffic(pkt, seed), 8);
    let summary = outcome.telemetry.expect("digest");
    assert_eq!(summary.dropped, 0, "calibration run must not drop events");
    summary.trace
}

#[test]
fn calibrate_recovers_cost_constants_within_5_percent() {
    // Vary batch size and packet size independently so kernel packet
    // counts and byte counts decorrelate — the dispatch-intercept fit
    // needs a full-rank (packets, bytes) design matrix. Offloaded
    // packet counts stay well above the point where the kernel
    // throughput term dominates the latency floor.
    let sweep = [
        (128usize, 256usize, 0.5f64),
        (160, 512, 0.45),
        (224, 768, 0.6),
        (256, 1024, 0.4),
    ];
    let mut events: Vec<Event> = Vec::new();
    for (i, &(batch, pkt, ratio)) in sweep.iter().enumerate() {
        let trace = calibration_run(batch, pkt, ratio, 97 + i as u64);
        events.extend(salt_batches(trace, (i as u64 + 1) << 32));
    }

    let p = PlatformConfig::hpca18();
    let anchors = CalibAnchors {
        gpu_ctx_switch_ns: calib::GPU_CONTEXT_SWITCH_NS,
        gpu_dispatch_ns: calib::GPU_PERSISTENT_DISPATCH_NS,
        pcie_dma_latency_ns: p.pcie.dma_latency_ns,
        pcie_bw_gbs: p.pcie.bw_gbs,
        io_cycles_per_packet: calib::IO_CYCLES_PER_PACKET,
        ns_per_cycle: p.cpu.ns_per_cycle(),
        gpu_residency_pressure: calib::GPU_RESIDENCY_PRESSURE,
    };
    let estimates = calibrate(&events, &anchors);
    assert_eq!(estimates.len(), 6);
    for est in &estimates {
        // The ipsec3 sweep never pushes a device past half of its SM
        // slots, so the pressure fit legitimately has no pressured
        // samples here; it gets its own dedicated test below.
        if est.name == "gpu_residency_pressure" {
            continue;
        }
        assert!(
            est.samples > 0,
            "{}: the calibration sweep must produce samples",
            est.name
        );
        assert!(
            est.observed.is_finite(),
            "{}: fit must converge, got {}",
            est.name,
            est.observed
        );
        let drift = (est.observed - est.anchored).abs() / est.anchored;
        assert!(
            drift <= 0.05,
            "{}: observed {} vs anchored {} drifts {:.2}% (> 5%)",
            est.name,
            est.observed,
            est.anchored,
            drift * 100.0
        );
    }
}

/// One pressure-sweep point: an all-GPU persistent IPsec chain of
/// `stages` stages at batch 1024 (8 SM slots per kernel against 2 × 24
/// available). Two stages spread to one kernel per device (33 %
/// occupancy, unpressured baseline); four stages to two per device
/// (66 % occupancy, pressured). Same traffic seed both times, so each
/// batch's kernel work shape `(packets, bytes, kernels)` matches across
/// the runs and the pressure fit compares like with like.
fn pressure_run(stages: usize, seed: u64) -> Vec<Event> {
    let sfc = Sfc::new(
        "ipsec-pressure",
        (0..stages)
            .map(|i| Nf::ipsec(format!("enc-{i}")))
            .collect::<Vec<_>>(),
    );
    let policy = Policy::GpuOnly {
        mode: GpuMode::Persistent,
    };
    let mut dep = Deployment::new(sfc, policy)
        .with_batch_size(1024)
        .with_exec_mode(ExecMode::Serial)
        .with_flow_cache(FlowCacheMode::Off)
        .with_telemetry(TelemetryMode::Memory);
    let outcome = dep.run(&mut skewed_traffic(512, seed), 6);
    let summary = outcome.telemetry.expect("digest");
    assert_eq!(summary.dropped, 0, "pressure run must not drop events");
    summary.trace
}

#[test]
fn calibrate_refits_residency_pressure_from_observed_traces() {
    let mut events = salt_batches(pressure_run(2, 1234), 1 << 32);
    events.extend(salt_batches(pressure_run(4, 1234), 2 << 32));

    let p = PlatformConfig::hpca18();
    let anchors = CalibAnchors {
        gpu_ctx_switch_ns: calib::GPU_CONTEXT_SWITCH_NS,
        gpu_dispatch_ns: calib::GPU_PERSISTENT_DISPATCH_NS,
        pcie_dma_latency_ns: p.pcie.dma_latency_ns,
        pcie_bw_gbs: p.pcie.bw_gbs,
        io_cycles_per_packet: calib::IO_CYCLES_PER_PACKET,
        ns_per_cycle: p.cpu.ns_per_cycle(),
        gpu_residency_pressure: calib::GPU_RESIDENCY_PRESSURE,
    };
    let estimates = calibrate(&events, &anchors);
    let est = estimates
        .iter()
        .find(|e| e.name == "gpu_residency_pressure")
        .expect("pressure estimate present");
    assert!(
        est.samples > 0,
        "the 4-stage run must contribute pressured kernel samples"
    );
    // The simulator stretches pressured kernels by the exact knee model,
    // but the trace only reports occupancy to whole-percent resolution
    // (66 % for 16/24 slots), so the fitted slope lands slightly above
    // the anchor: 0.116667 / 0.32 ≈ 0.3646. A 10 % drift bound pins the
    // fit while leaving room for the quantization.
    let drift = (est.observed - est.anchored).abs() / est.anchored;
    assert!(
        drift <= 0.10,
        "gpu_residency_pressure: observed {} vs anchored {} drifts {:.2}% (> 10%)",
        est.observed,
        est.anchored,
        drift * 100.0
    );
}
