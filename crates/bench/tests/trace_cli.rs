//! `nfc-trace` on real exports: the traces a deployment writes must
//! pass the one validator CI runs, and each plane's command must see
//! exactly the events of its plane.

use nfc_core::flowcache::FlowCacheMode;
use nfc_core::{ControllerConfig, Deployment, ExecMode, PartitionAlgo, Policy, Sfc, TelemetryMode};
use nfc_hetero::GpuMode;
use nfc_nf::acl::synth;
use nfc_nf::Nf;
use nfc_packet::traffic::{FlowSpec, PayloadPolicy, SizeDist, TrafficGenerator, TrafficSpec};
use nfc_telemetry::{SloSpec, TelemetrySummary};
use serde_json::Value;
use std::process::{Command, Output};

fn nfc_trace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nfc-trace"))
        .args(args)
        .output()
        .expect("nfc-trace runs")
}

/// A path in the temp dir no other test process writes.
fn temp_trace(name: &str) -> String {
    let file = format!("nfc_trace_cli_{name}_{}.json", std::process::id());
    std::env::temp_dir()
        .join(file)
        .to_string_lossy()
        .into_owned()
}

/// The path and body of the export a run wrote.
fn read_export(summary: &TelemetrySummary) -> (String, String) {
    let path = summary.export_path.clone().expect("trace written");
    let body = std::fs::read_to_string(&path).expect("trace file readable");
    (path, body)
}

/// A flow-cacheable (ACL firewall and load balancer are
/// verdict-capable) and offloadable (the ACL matcher carries a
/// classification kernel) chain at a fixed 50 % offload with the flow
/// cache on, so one run emits stage, element, flow-cache, GPU and
/// partition events. Flow forensics stays disarmed.
#[test]
fn exported_trace_covers_every_category_with_consistent_timestamps() {
    let chain = Sfc::new(
        "fw-lb",
        vec![
            Nf::firewall_with("fw", synth::generate(128, 1), true),
            Nf::load_balancer("lb", 4),
        ],
    );
    let policy = Policy::FixedRatio {
        ratio: 0.5,
        mode: GpuMode::Persistent,
    };
    let spec = TrafficSpec::udp(SizeDist::Fixed(256)).with_flows(FlowSpec {
        count: 128,
        ..FlowSpec::default().with_skew(1.0)
    });
    let path = temp_trace("cache_on");
    let (out, _) = Deployment::new(chain, policy)
        .with_batch_size(128)
        .with_exec_mode(ExecMode::Serial)
        .with_flow_cache(FlowCacheMode::On { capacity: 2048 })
        .with_telemetry(TelemetryMode::Export { path })
        .run_collect(&mut TrafficGenerator::new(spec, 43), 10);
    let summary = out.telemetry.expect("export digest");
    let (written, _) = read_export(&summary);

    let valid = nfc_trace(&[
        "validate",
        &written,
        "--require",
        "stage,element,flow-cache,gpu,partition",
    ]);
    // Flow-cache batches are not sampled flows: with forensics
    // disarmed the flow plane is empty.
    let flow = nfc_trace(&["flow", &written]);
    std::fs::remove_file(&written).ok();
    assert!(
        valid.status.success(),
        "{}",
        String::from_utf8_lossy(&valid.stderr)
    );
    assert!(!flow.status.success(), "flow counted flow-cache events");
    assert!(String::from_utf8_lossy(&flow.stderr).contains("no flow-plane events"));
    assert!(
        summary.counter("gpu_kernel_launches") > 0,
        "fixed-ratio offload must launch kernels"
    );
}

/// Controller decisions are stamped where the `epoch` markers are: on
/// the simulated clock (pid 2) and the chain's I/O track, so the
/// validator's swap-window check sees every swap.
#[test]
fn adaptive_decisions_are_exported_on_the_simulated_clock() {
    let path = temp_trace("adaptive");
    let mut dep = Deployment::new(Sfc::new("dpi", vec![Nf::dpi("dpi")]), Policy::nfcompass())
        .with_batch_size(256)
        .with_telemetry(TelemetryMode::Export { path })
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
    let (outs, report, _) = dep.run_adaptive_collect(&mut phases, 96, &cfg);
    assert!(
        report.triggers > 0,
        "the drift ceiling must trip: {report:?}"
    );
    let summary = outs[0].telemetry.as_ref().expect("export digest");
    let (written, body) = read_export(summary);
    let valid = nfc_trace(&["validate", &written, "--require", "control"]);
    std::fs::remove_file(&written).ok();
    assert!(
        valid.status.success(),
        "{}",
        String::from_utf8_lossy(&valid.stderr)
    );

    let lines: Vec<Value> = body
        .lines()
        .filter(|l| l.contains("\"controller_decision\"") || l.contains("\"name\":\"epoch\""))
        .map(|l| serde_json::from_str(l.trim_end_matches(',')).expect("one JSON object"))
        .collect();
    let on = |v: &Value| (v["pid"].as_u64(), v["tid"].as_u64());
    let epoch_track = on(lines
        .iter()
        .find(|v| v["name"].as_str() == Some("epoch"))
        .expect("epoch markers"));
    let decisions: Vec<&Value> = lines
        .iter()
        .filter(|v| v["name"].as_str() == Some("controller_decision"))
        .collect();
    assert!(!decisions.is_empty(), "a trip records decisions");
    assert_eq!(epoch_track.0, Some(2), "epoch markers are simulated");
    for d in decisions {
        assert_eq!(on(d), epoch_track, "decision off the epoch track: {d:?}");
    }
}

/// Every stage of a chain is re-planned at the same epoch instant, so a
/// two-stage chain records two decisions at one `ts` on one track: the
/// parts of one chain swap, which the swap-window check must accept.
#[test]
fn multi_stage_chain_swaps_validate() {
    let path = temp_trace("adaptive_two_stage");
    let chain = Sfc::new("dpi-dpi", vec![Nf::dpi("dpi0"), Nf::dpi("dpi1")]);
    // Without synthesis the two NFs stay two stages.
    let policy = Policy::NfCompass {
        algo: PartitionAlgo::Kl,
        max_branches: 4,
        synthesize: false,
    };
    let mut dep = Deployment::new(chain, policy)
        .with_batch_size(256)
        .with_telemetry(TelemetryMode::Export { path });
    // A match-ratio flood (benign, then hostile) moves both plans.
    let mut phases = [0.0, 1.0].map(|ratio| {
        let spec = TrafficSpec::udp(SizeDist::Fixed(512))
            .with_rate_gbps(40.0)
            .with_payload(PayloadPolicy::MatchRatio {
                patterns: Nf::default_ids_signatures(),
                ratio,
            });
        TrafficGenerator::new(spec, 41 + ratio as u64)
    });
    let cfg = ControllerConfig {
        epoch_batches: 8,
        ..Default::default()
    };
    let (outs, report, _) = dep.run_adaptive_collect(&mut phases, 48, &cfg);
    // At least one epoch must charge a swap on both stages at once,
    // or the test does not exercise the grouping.
    let mut charged = std::collections::BTreeMap::<u64, usize>::new();
    for a in report.adaptations.iter().filter(|a| a.swap_ns > 0.0) {
        *charged.entry(a.epoch).or_default() += 1;
    }
    assert!(
        charged.values().any(|&n| n > 1),
        "no epoch swapped two stages: {:?}",
        report.adaptations
    );
    let summary = outs[0].telemetry.as_ref().expect("export digest");
    let (written, _) = read_export(summary);
    let valid = nfc_trace(&["validate", &written, "--require", "control"]);
    std::fs::remove_file(&written).ok();
    assert!(
        valid.status.success(),
        "{}",
        String::from_utf8_lossy(&valid.stderr)
    );
}
