//! The drift watchdog against an injected cost-model error: doubling the
//! GPU context-switch constant must raise `model_drift` within three
//! epochs, the calibrated model must not, and neither may touch the data
//! plane. That recording, the health plane and flow forensics never
//! perturb a run is checked across the whole configuration space by
//! `tests/reference_differential.rs`; what an exported trace holds is
//! checked by `nfc-trace validate`, in `crates/bench/tests/trace_cli.rs`.

use nfc_core::flowcache::FlowCacheMode;
use nfc_core::{Deployment, Policy, RunOutcome, Sfc, TelemetryMode};
use nfc_hetero::{CostModel, GpuMode, PlatformConfig};
use nfc_nf::acl::synth;
use nfc_nf::Nf;
use nfc_packet::traffic::{FlowSpec, SizeDist, TrafficGenerator, TrafficSpec};
use nfc_packet::Batch;
use nfc_telemetry::{EventKind, SloSpec};

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
