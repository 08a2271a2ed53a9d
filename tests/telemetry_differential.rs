//! Telemetry differential testing: recording is a pure observer. A run
//! with telemetry enabled must produce bit-identical egress bytes,
//! per-element statistics and simulated timings to the same run with
//! telemetry off — under both serial and parallel execution. What an
//! exported trace holds is checked by `nfc-trace validate`, in
//! `crates/bench/tests/trace_cli.rs`.

use nfc_core::flowcache::FlowCacheMode;
use nfc_core::{
    ControllerConfig, Deployment, Duplication, ExecMode, Policy, RunOutcome, Sfc, TelemetryMode,
};
use nfc_hetero::{CostModel, GpuMode, PlatformConfig};
use nfc_nf::acl::synth;
use nfc_nf::Nf;
use nfc_packet::traffic::{FlowSpec, SizeDist, TrafficGenerator, TrafficSpec};
use nfc_packet::Batch;
use nfc_telemetry::{EventKind, SloSpec};

/// A chain that is both flow-cacheable (ACL firewall + load balancer
/// are verdict-capable) and offloadable (the ACL matcher carries a
/// classification kernel), so one run can emit stage, element,
/// flow-cache, GPU and partition events simultaneously.
fn traced_chain(seed: u64) -> Sfc {
    Sfc::new(
        "fw-lb",
        vec![
            Nf::firewall_with("fw", synth::generate(128, seed), true),
            Nf::load_balancer("lb", 4),
        ],
    )
}

fn skewed_traffic(seed: u64) -> TrafficGenerator {
    let spec = TrafficSpec::udp(SizeDist::Fixed(256)).with_flows(FlowSpec {
        count: 128,
        ..FlowSpec::default().with_skew(1.0)
    });
    TrafficGenerator::new(spec, seed)
}

fn run_with(
    policy: Policy,
    exec: ExecMode,
    telemetry: TelemetryMode,
    seed: u64,
) -> (RunOutcome, Vec<Batch>) {
    let mut dep = Deployment::new(traced_chain(1), policy)
        .with_batch_size(128)
        .with_exec_mode(exec)
        .with_duplication(Duplication::Cow)
        .with_flow_cache(FlowCacheMode::On { capacity: 2048 })
        .with_telemetry(telemetry);
    dep.run_collect(&mut skewed_traffic(seed), 10)
}

fn assert_bit_identical(
    label: &str,
    off: &(RunOutcome, Vec<Batch>),
    on: &(RunOutcome, Vec<Batch>),
) {
    assert_eq!(
        off.1, on.1,
        "{label}: egress batches must be byte-identical"
    );
    assert_eq!(
        off.0.stage_stats, on.0.stage_stats,
        "{label}: per-element statistics must match"
    );
    assert_eq!(off.0.egress_packets, on.0.egress_packets, "{label}");
    assert_eq!(off.0.egress_bytes, on.0.egress_bytes, "{label}");
    assert_eq!(off.0.flow_cache, on.0.flow_cache, "{label}: cache counters");
    // Recording must not perturb the simulated timeline by a single bit.
    assert_eq!(
        off.0.report.throughput_gbps.to_bits(),
        on.0.report.throughput_gbps.to_bits(),
        "{label}: simulated throughput must be bit-identical"
    );
    assert_eq!(
        off.0.report.mean_latency_ns.to_bits(),
        on.0.report.mean_latency_ns.to_bits(),
        "{label}: simulated mean latency must be bit-identical"
    );
    assert_eq!(
        off.0.report.p99_latency_ns.to_bits(),
        on.0.report.p99_latency_ns.to_bits(),
        "{label}: simulated p99 latency must be bit-identical"
    );
}

#[test]
fn telemetry_never_perturbs_serial_or_parallel_runs() {
    let policy = Policy::nfcompass();
    for (label, exec) in [
        ("serial", ExecMode::Serial),
        ("parallel4", ExecMode::Parallel { threads: 4 }),
    ] {
        let off = run_with(policy, exec, TelemetryMode::Off, 17);
        let on = run_with(policy, exec, TelemetryMode::Memory, 17);
        assert_bit_identical(label, &off, &on);
        assert!(
            off.0.telemetry.is_none(),
            "{label}: telemetry-off outcomes carry no digest"
        );
        let summary = on.0.telemetry.as_ref().expect("telemetry-on digest");
        assert!(summary.events > 0, "{label}: events were recorded");
        assert!(summary.counter("stages_executed") > 0, "{label}");
        assert!(summary.counter("elements_executed") > 0, "{label}");
        assert!(summary.counter("worker_units") > 0, "{label}");
        assert!(
            summary.counter("flow_cache_hits") > 0,
            "{label}: skewed traffic over a cached chain must hit"
        );
        assert!(
            summary.counter("partition_decisions") > 0,
            "{label}: every stage records its planning decision"
        );
    }
}

#[test]
fn parallel_and_serial_digests_agree_on_deterministic_counters() {
    // The merged event stream is absorbed in input-index order, so
    // execution-derived counters (not wall-clock histograms) match
    // across execution modes exactly.
    let policy = Policy::nfcompass();
    let serial = run_with(policy, ExecMode::Serial, TelemetryMode::Memory, 29);
    let parallel = run_with(
        policy,
        ExecMode::Parallel { threads: 4 },
        TelemetryMode::Memory,
        29,
    );
    let s = serial.0.telemetry.expect("serial digest");
    let p = parallel.0.telemetry.expect("parallel digest");
    for name in [
        "stages_executed",
        "elements_executed",
        "element_packets_in",
        "worker_units",
        "flow_cache_hits",
        "flow_cache_misses",
        "batch_splits",
        "batch_merges",
        "partition_decisions",
        "gpu_kernel_launches",
    ] {
        assert_eq!(
            s.counter(name),
            p.counter(name),
            "counter {name} must not depend on execution mode"
        );
    }
}

// ---------------------------------------------------------------------
// Health plane: SLO burn-rate detection and the drift watchdog are pure
// observers too.
// ---------------------------------------------------------------------

/// An always-breaching latency SLO with a short epoch so a 10-batch run
/// closes two health epochs.
fn tight_slo() -> SloSpec {
    SloSpec {
        p99_latency_ns: 1.0,
        epoch_batches: 4,
        ..Default::default()
    }
}

fn run_with_slo(
    exec: ExecMode,
    telemetry: TelemetryMode,
    slo: Option<SloSpec>,
    seed: u64,
) -> (RunOutcome, Vec<Batch>) {
    let mut dep = Deployment::new(traced_chain(1), Policy::nfcompass())
        .with_batch_size(128)
        .with_exec_mode(exec)
        .with_duplication(Duplication::Cow)
        .with_flow_cache(FlowCacheMode::On { capacity: 2048 })
        .with_telemetry(telemetry)
        .without_slo();
    if let Some(spec) = slo {
        dep = dep.with_slo(spec);
    }
    dep.run_collect(&mut skewed_traffic(seed), 10)
}

#[test]
fn health_plane_never_perturbs_serial_or_parallel_runs() {
    for (label, exec) in [
        ("serial", ExecMode::Serial),
        ("parallel4", ExecMode::Parallel { threads: 4 }),
    ] {
        // With telemetry recording, arming the SLO changes nothing the
        // differential contract observes...
        let off = run_with_slo(exec, TelemetryMode::Memory, None, 31);
        let on = run_with_slo(exec, TelemetryMode::Memory, Some(tight_slo()), 31);
        assert_bit_identical(&format!("{label}/memory"), &off, &on);
        // ...and with telemetry off the armed health plane still
        // accounts silently without touching the run.
        let dark_off = run_with_slo(exec, TelemetryMode::Off, None, 31);
        let dark_on = run_with_slo(exec, TelemetryMode::Off, Some(tight_slo()), 31);
        assert_bit_identical(&format!("{label}/off"), &dark_off, &dark_on);

        // The armed, recording run did emit health instants and gauges.
        let summary = on.0.telemetry.as_ref().expect("digest");
        let breached = summary.trace.iter().any(|ev| {
            matches!(
                ev.kind,
                EventKind::SloBurn {
                    objective: "p99_latency",
                    breached: true,
                    ..
                }
            )
        });
        assert!(breached, "{label}: a 1 ns p99 ceiling must burn");
        assert!(
            summary
                .gauge("health_e2e_ns{quantile=\"0.99\"}")
                .is_some_and(|v| v > 0.0),
            "{label}: e2e quantile gauges are published at epoch close"
        );
        assert!(
            summary
                .gauge("health_slo_burn{objective=\"p99_latency\",window=\"fast\"}")
                .is_some_and(|v| v > 0.0),
            "{label}: burn-rate gauges are published at epoch close"
        );
    }
}

/// The drift watchdog feeds the adaptive controller (`model_drift`
/// signals), so it must see every batch whether or not anything is
/// recording: the same adaptive run under `Off` and `Memory` must reach
/// the same controller timeline, phase reports and egress.
#[test]
fn controller_decisions_do_not_depend_on_the_telemetry_mode() {
    let run = |telemetry: TelemetryMode| {
        let mut dep = Deployment::new(Sfc::new("dpi", vec![Nf::dpi("dpi")]), Policy::nfcompass())
            .with_batch_size(256)
            .with_telemetry(telemetry)
            .with_slo(SloSpec {
                epoch_batches: 8,
                drift_threshold: 0.05,
                drift_hysteresis_epochs: 1,
                ..Default::default()
            });
        let mut phases = [TrafficGenerator::new(
            TrafficSpec::udp(SizeDist::Fixed(512)).with_rate_gbps(20.0),
            7,
        )];
        let cfg = ControllerConfig {
            epoch_batches: 8,
            ..Default::default()
        };
        dep.run_adaptive_collect(&mut phases, 96, &cfg)
    };
    let (dark_out, dark_report, dark_egress) = run(TelemetryMode::Off);
    let (lit_out, lit_report, lit_egress) = run(TelemetryMode::Memory);
    assert!(
        lit_report.triggers > 0,
        "a 5 % drift ceiling must raise model_drift and trip the detector: {lit_report:?}"
    );
    assert_eq!(dark_report, lit_report, "controller timeline");
    assert_eq!(dark_egress, lit_egress, "egress must be byte-identical");
    assert_eq!(dark_out.len(), lit_out.len());
    for (dark, lit) in dark_out.iter().zip(&lit_out) {
        assert_eq!(dark.report, lit.report, "phase SimReport");
        assert_eq!(dark.stage_stats, lit.stage_stats);
        assert_eq!(dark.stage_offloads, lit.stage_offloads);
    }
}

#[test]
fn worker_shard_sketches_merge_deterministically_across_exec_modes() {
    // The health sketches are fed only on the sequential temporal
    // replay, from simulated timestamps, so the gauges computed from
    // them are bit-identical between serial and parallel execution
    // (no worker touches a sketch).
    let serial = run_with_slo(
        ExecMode::Serial,
        TelemetryMode::Memory,
        Some(tight_slo()),
        53,
    );
    let parallel = run_with_slo(
        ExecMode::Parallel { threads: 4 },
        TelemetryMode::Memory,
        Some(tight_slo()),
        53,
    );
    let s = serial.0.telemetry.expect("serial digest");
    let p = parallel.0.telemetry.expect("parallel digest");
    for gauge in [
        "health_e2e_ns{quantile=\"0.5\"}",
        "health_e2e_ns{quantile=\"0.95\"}",
        "health_e2e_ns{quantile=\"0.99\"}",
        "health_e2e_ns{quantile=\"0.999\"}",
        "health_slo_burn{objective=\"p99_latency\",window=\"fast\"}",
        "health_slo_burn{objective=\"p99_latency\",window=\"slow\"}",
    ] {
        let sv = s.gauge(gauge).unwrap_or_else(|| panic!("serial {gauge}"));
        let pv = p.gauge(gauge).unwrap_or_else(|| panic!("parallel {gauge}"));
        assert_eq!(
            sv.to_bits(),
            pv.to_bits(),
            "gauge {gauge} must not depend on execution mode"
        );
    }
}

/// Two offloadable stages under launch-per-batch dispatch share one GPU
/// queue with alternating kernel users, so every span pays the modeled
/// context-switch penalty — the knob the drift injection turns.
fn offload_chain() -> Sfc {
    Sfc::new(
        "fw-ids",
        vec![
            Nf::firewall_with("fw", synth::generate(128, 1), true),
            Nf::ids("ids"),
        ],
    )
}

/// Paced arrivals: at 2 Gbps a 64-packet batch leaves headroom between
/// batches, so the observed latency is compute + transfer + the modeled
/// context-switch gaps rather than an ever-growing backlog — the drift
/// ratio is then stable across epochs and cleanly separable.
fn paced_traffic(seed: u64) -> TrafficGenerator {
    let spec = TrafficSpec::udp(SizeDist::Fixed(256))
        .with_rate_gbps(2.0)
        .with_flows(FlowSpec {
            count: 128,
            ..FlowSpec::default().with_skew(1.0)
        });
    TrafficGenerator::new(spec, seed)
}

fn drift_run(ctx_switch_ns: f64, drift_threshold: f64, slo: bool) -> (RunOutcome, Vec<Batch>) {
    let model = CostModel::new(PlatformConfig::hpca18()).with_gpu_ctx_switch_ns(ctx_switch_ns);
    let policy = Policy::FixedRatio {
        ratio: 0.5,
        mode: GpuMode::LaunchPerBatch,
    };
    let mut dep = Deployment::with_model(offload_chain(), policy, model)
        .with_batch_size(64)
        .with_duplication(Duplication::Cow)
        .with_flow_cache(FlowCacheMode::Off)
        .with_telemetry(TelemetryMode::Memory)
        .without_slo();
    if slo {
        dep = dep.with_slo(SloSpec {
            epoch_batches: 4,
            drift_threshold,
            drift_hysteresis_epochs: 2,
            ..Default::default()
        });
    }
    dep.run_collect(&mut paced_traffic(9), 16)
}

/// Per-epoch `(epoch, drift, raised)` rows from the recorded trace.
fn drift_verdicts(out: &RunOutcome) -> Vec<(u64, f64, bool)> {
    out.telemetry
        .as_ref()
        .expect("digest")
        .trace
        .iter()
        .filter_map(|ev| match ev.kind {
            EventKind::ModelDrift {
                epoch,
                drift,
                raised,
                ..
            } => Some((epoch, drift, raised)),
            _ => None,
        })
        .collect()
}

#[test]
fn doubled_ctx_switch_constant_raises_model_drift_within_three_epochs() {
    let base_ctx = nfc_hetero::calib::GPU_CONTEXT_SWITCH_NS;
    // Calibrate the two drift levels with the watchdog effectively off.
    let base = drift_run(base_ctx, f64::INFINITY, true);
    let pert = drift_run(2.0 * base_ctx, f64::INFINITY, true);
    let base_drifts = drift_verdicts(&base.0);
    let pert_drifts = drift_verdicts(&pert.0);
    assert!(
        base_drifts.len() >= 3 && pert_drifts.len() >= 3,
        "16 batches at epoch=4 must close at least 3 drift epochs"
    );
    let base_max = base_drifts.iter().map(|d| d.1).fold(0.0, f64::max);
    let pert_min = pert_drifts
        .iter()
        .map(|d| d.1)
        .fold(f64::INFINITY, f64::min);
    assert!(
        pert_min > base_max,
        "doubling the context-switch constant must lift observed-over-\
         predicted drift in every epoch (base max {base_max:.4}, \
         perturbed min {pert_min:.4})"
    );

    // Armed with a ceiling between the two levels, the perturbed model
    // raises within 3 epochs (hysteresis is 2)...
    let ceiling = (base_max + pert_min) / 2.0;
    let raised_run = drift_run(2.0 * base_ctx, ceiling, true);
    let first_raised = drift_verdicts(&raised_run.0)
        .iter()
        .find(|d| d.2)
        .map(|d| d.0);
    assert_eq!(
        first_raised,
        Some(2),
        "sustained drift past the ceiling must raise ModelDrift within 3 epochs"
    );
    // ...while the unperturbed model never does.
    let quiet_run = drift_run(base_ctx, ceiling, true);
    assert!(
        drift_verdicts(&quiet_run.0).iter().all(|d| !d.2),
        "the calibrated model must stay below the ceiling"
    );

    // And the whole experiment is invisible to the data plane: the
    // perturbed run's egress is byte-identical with the health plane
    // disarmed.
    let oracle = drift_run(2.0 * base_ctx, ceiling, false);
    assert_bit_identical("drift-injection", &oracle, &raised_run);
    assert!(
        raised_run
            .0
            .telemetry
            .as_ref()
            .expect("digest")
            .gauge("health_model_drift_raised")
            .is_some_and(|v| v >= 1.0),
        "the raise count gauge must reflect the raised epochs"
    );
}
