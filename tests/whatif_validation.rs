//! What-if causal-profiling validation: the coz-style virtual speedup
//! computed from a recorded trace must agree with an *actual* ablated
//! run.
//!
//! The chain is four single-element NFs with fixed per-packet cycle
//! costs, one of which ("hot") dominates. `whatif(trace, "hot", 2.0)`
//! predicts the chain latency if the hot element were 2x faster; the
//! ablated run *makes* it exactly 2x faster (half the cycles — the
//! temporal layer charges cycles deterministically, so the ablation is
//! exact) and re-measures. The acceptance bound from the issue: the
//! predicted mean end-to-end latency is within 15% of the measured one.

use nfc_click::element::RunCtx;
use nfc_click::{Element, ElementActions, ElementClass, ElementGraph, WorkProfile};
use nfc_core::{Deployment, Policy, Sfc, TelemetryMode};
use nfc_nf::{Nf, NfKind};
use nfc_packet::traffic::{FlowSpec, SizeDist, TrafficGenerator, TrafficSpec};
use nfc_packet::Batch;
use nfc_telemetry::{batch_rows, whatif};

/// A pass-through element whose only effect is a fixed per-packet cycle
/// charge on the temporal layer, so an ablation that halves `cycles` is
/// *exactly* a 2x speedup of this element.
#[derive(Debug, Clone)]
struct Spin {
    name: String,
    cycles: f64,
}

impl Element for Spin {
    fn name(&self) -> &str {
        &self.name
    }
    fn class(&self) -> ElementClass {
        ElementClass::Inspector
    }
    fn actions(&self) -> ElementActions {
        ElementActions::read_header()
    }
    fn process(&mut self, batch: Batch, _ctx: &mut RunCtx) -> Vec<Batch> {
        vec![batch]
    }
    fn work(&self) -> WorkProfile {
        WorkProfile::per_packet(self.cycles)
    }
}

fn spin_nf(name: &str, cycles: f64) -> Nf {
    let mut g = ElementGraph::new();
    g.add(Spin {
        name: name.to_string(),
        cycles,
    });
    Nf::from_graph(name, NfKind::Probe, g)
}

/// Four NFs forced onto four branches so each gets its own worker lane
/// (`cpu:<name>`); only the hot NF's lane name contains "hot".
fn chain(hot_cycles: f64) -> Sfc {
    Sfc::new(
        "whatif-chain",
        vec![
            spin_nf("hot", hot_cycles),
            spin_nf("cold-a", 400.0),
            spin_nf("cold-b", 400.0),
            spin_nf("cold-c", 400.0),
        ],
    )
}

fn traffic(seed: u64) -> TrafficGenerator {
    let spec = TrafficSpec::udp(SizeDist::Fixed(256))
        .with_rate_gbps(2.0)
        .with_flows(FlowSpec {
            count: 64,
            ..FlowSpec::default()
        });
    TrafficGenerator::new(spec, seed)
}

fn run_chain(hot_cycles: f64) -> nfc_telemetry::TelemetrySummary {
    let mut dep = Deployment::new(chain(hot_cycles), Policy::CpuOnly)
        .with_batch_size(64)
        .with_forced_branches(vec![vec![0], vec![1], vec![2], vec![3]])
        .with_telemetry(TelemetryMode::Memory)
        .without_slo();
    let (outcome, _) = dep.run_collect(&mut traffic(7), 12);
    outcome.telemetry.expect("memory telemetry digest")
}

fn mean_e2e(trace: &[nfc_telemetry::Event]) -> f64 {
    let rows = batch_rows(trace);
    assert!(!rows.is_empty(), "trace must carry attributed batches");
    rows.iter().map(|r| r.e2e_ns).sum::<f64>() / rows.len() as f64
}

#[test]
fn whatif_prediction_matches_actual_ablation_within_15_percent() {
    let baseline = run_chain(4_000.0);
    let report = whatif(&baseline.trace, "hot", 2.0);

    // The virtual speedup targeted exactly the hot NF's worker lane.
    assert_eq!(
        report.matched_resources,
        vec!["cpu:hot".to_string()],
        "only the hot lane may match"
    );
    assert!(report.batches > 0, "estimate must aggregate real batches");
    assert!(
        report.speedup > 1.2,
        "a dominant element at 2x must predict a real chain speedup, got {}",
        report.speedup
    );
    assert!(
        (report.baseline_mean_e2e_ns - mean_e2e(&baseline.trace)).abs()
            < 1e-6 * report.baseline_mean_e2e_ns,
        "whatif baseline must equal the trace's measured mean"
    );

    // Actually ablate: half the cycles is exactly "hot is 2x faster".
    let ablated = run_chain(2_000.0);
    let measured = mean_e2e(&ablated.trace);
    let rel_err = (report.predicted_mean_e2e_ns - measured).abs() / measured;
    assert!(
        rel_err < 0.15,
        "whatif predicted {:.0} ns, ablated run measured {:.0} ns ({:.1}% off)",
        report.predicted_mean_e2e_ns,
        measured,
        100.0 * rel_err
    );

    // Per-epoch drill-down is populated and self-consistent.
    for ep in &report.epochs {
        assert!(ep.predicted_ns <= ep.baseline_ns * (1.0 + 1e-9));
    }
}

#[test]
fn whatif_with_unit_factor_is_identity() {
    let baseline = run_chain(4_000.0);
    let report = whatif(&baseline.trace, "hot", 1.0);
    assert!(
        (report.speedup - 1.0).abs() < 1e-9,
        "factor 1.0 must predict no change, got {}",
        report.speedup
    );
    // An element no lane matches predicts no change either.
    let none = whatif(&baseline.trace, "no-such-element", 3.0);
    assert!(none.matched_resources.is_empty());
    assert!((none.speedup - 1.0).abs() < 1e-9);
}
