//! Golden-file schema test for the Chrome-trace exporter: one event of
//! every kind (covering both timelines, spans, instants, and metadata)
//! must serialize byte-for-byte to `golden_trace.expected.json`.
//! `nfc-trace`'s tests decode that file and re-export it, so the
//! exporter and the decoder are pinned by one fixture.
//!
//! Regenerate after an intentional schema change with:
//! `UPDATE_GOLDEN=1 cargo test -p nfc-telemetry --test golden_trace`

use nfc_telemetry::export::chrome_trace;
use nfc_telemetry::{Event, EventKind, SimStamp};

/// A functional-layer event on the wall clock.
fn wall(wall_ns: u64, wall_dur_ns: u64, track: u32, batch: u64, kind: EventKind) -> Event {
    Event {
        wall_ns,
        wall_dur_ns,
        sim: None,
        track,
        batch,
        kind,
    }
}

/// A temporal-layer event spanning `[start_ns, end_ns]` of simulated time.
fn sim(wall_ns: u64, start_ns: f64, end_ns: f64, track: u32, batch: u64, kind: EventKind) -> Event {
    Event {
        wall_ns,
        wall_dur_ns: 0,
        sim: Some(SimStamp { start_ns, end_ns }),
        track,
        batch,
        kind,
    }
}

/// One event of every [`EventKind`], each on the clock the runtime
/// records it on.
fn fixture() -> Vec<Event> {
    vec![
        wall(
            1_000,
            5_000,
            0,
            0,
            EventKind::Stage {
                branch: 0,
                stage: 1,
                name: "fw".into(),
                packets: 256,
            },
        ),
        wall(
            1_500,
            250,
            0,
            3,
            EventKind::Element {
                node: 2,
                name: "Acl".into(),
                packets_in: 256,
                packets_out: 200,
            },
        ),
        wall(
            2_000,
            0,
            1,
            3,
            EventKind::FlowCacheBatch {
                hits: 200,
                misses: 56,
            },
        ),
        wall(
            0,
            0,
            0,
            0,
            EventKind::ResourceName {
                resource: 4,
                name: "gpu/ctx0".into(),
            },
        ),
        sim(
            3_000,
            10_000.0,
            12_500.0,
            4,
            3,
            EventKind::KernelLaunch {
                queue: 0,
                user: 7,
                bytes: 4_096,
                packets: 64,
                kernels: 1,
            },
        ),
        wall(
            4_000,
            0,
            0,
            0,
            EventKind::PartitionPass {
                algo: "kl",
                pass: 0,
                moved: 3,
                cost_before: 100.5,
                cost_after: 90.25,
            },
        ),
        sim(
            5_000,
            20_000.0,
            20_000.0,
            1,
            3,
            EventKind::BatchAttribution {
                seq: 3,
                e2e_ns: 12_000.0,
                compute_ns: 7_000.0,
                transfer_ns: 2_000.0,
                queue_ns: 2_500.0,
                drain_ns: 0.0,
                merge_wait_ns: 500.0,
            },
        ),
        sim(
            6_000,
            25_000.0,
            25_000.0,
            0,
            0,
            EventKind::Epoch { epoch: 2 },
        ),
        wall(6_500, 0, 0, 3, EventKind::BatchSplit { node: 1, parts: 2 }),
        wall(6_750, 0, 0, 3, EventKind::BatchMerge { node: 5, parts: 2 }),
        wall(
            7_000,
            0,
            0,
            0,
            EventKind::FlowCacheInvalidate { generation: 4 },
        ),
        sim(
            7_500,
            9_000.0,
            9_000.0,
            4,
            3,
            EventKind::KernelTeardown {
                resource: 4,
                from_user: 6,
                to_user: 7,
                penalty_ns: 1_500.5,
            },
        ),
        sim(
            8_000,
            8_000.0,
            9_500.0,
            2,
            3,
            EventKind::Dma {
                to_device: true,
                bytes: 4_096,
            },
        ),
        sim(
            8_500,
            10_000.0,
            10_000.0,
            4,
            3,
            EventKind::SmOccupancy {
                queue: 0,
                occupancy_pct: 50,
            },
        ),
        sim(
            9_000,
            10_000.0,
            12_500.0,
            4,
            3,
            EventKind::ResourceBusy {
                resource: 4,
                user: 7,
                queued_ns: 250.0,
            },
        ),
        wall(
            9_500,
            0,
            0,
            0,
            EventKind::PartitionDecision {
                algo: "fixed-ratio",
                stage: "fw".into(),
                predicted_cost_ns: 8_000.25,
                mean_ratio: 0.5,
            },
        ),
        sim(
            10_000,
            25_000.0,
            25_000.0,
            0,
            0,
            EventKind::ControllerDecision {
                epoch: 2,
                reason: "cpu_ns drift 1.85 @ stage 0".into(),
                stage: "fw".into(),
                old_ratio: 0.25,
                new_ratio: 0.75,
                swap_ns: 145_000.0,
            },
        ),
        wall(
            10_500,
            1_250,
            1,
            3,
            EventKind::Worker { worker: 1, unit: 0 },
        ),
        sim(
            11_000,
            7_000.0,
            7_000.0,
            0,
            3,
            EventKind::BatchIngress {
                seq: 3,
                packets: 64,
                wire_bytes: 16_384,
            },
        ),
        sim(
            11_500,
            20_000.0,
            20_000.0,
            1,
            3,
            EventKind::BatchEgress {
                seq: 3,
                packets: 60,
                bytes: 15_360,
            },
        ),
        sim(
            12_000,
            25_000.0,
            25_000.0,
            0,
            0,
            EventKind::SloBurn {
                epoch: 2,
                objective: "p99_latency",
                fast_burn: 2.5,
                slow_burn: 1.25,
                breached: true,
            },
        ),
        sim(
            12_500,
            25_000.0,
            25_000.0,
            0,
            0,
            EventKind::ModelDrift {
                epoch: 2,
                predicted_ns: 10_000.0,
                observed_ns: 12_000.0,
                drift: 0.2,
                raised: false,
            },
        ),
        sim(
            13_000,
            0.0,
            0.0,
            0,
            0,
            EventKind::ShardRange {
                epoch: 0,
                server: 0,
                start: 0,
                end: 1 << 32,
            },
        ),
        sim(
            13_500,
            30_000.0,
            31_000.0,
            9,
            3,
            EventKind::LinkTransfer {
                link: 9,
                packets: 32,
                bytes: 8_192,
            },
        ),
        sim(
            14_000,
            40_000.0,
            40_000.0,
            0,
            0,
            EventKind::ClusterRebalance {
                epoch: 1,
                from: 0,
                to: 1,
                vnodes: 2,
                migrated_bytes: 1_024,
                swap_ns: 5_000.0,
            },
        ),
        sim(
            14_500,
            7_000.0,
            7_000.0,
            0,
            3,
            EventKind::FlowPoint {
                flow: 0xdead_beef,
                point: "ingress",
                server: 0,
                packets: 3,
            },
        ),
        wall(
            15_000,
            0,
            0,
            3,
            EventKind::Session {
                state: "built",
                flow: 0xdead_beef,
                packets: 1,
                bytes: 256,
            },
        ),
        sim(
            15_500,
            25_000.0,
            25_000.0,
            0,
            0,
            EventKind::FlightDump {
                reason: "slo_burn",
                events: 42,
            },
        ),
    ]
}

#[test]
fn chrome_trace_matches_golden_schema() {
    let got = chrome_trace(&fixture(), 2);
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden_trace.expected.json"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &got).expect("update golden");
    }
    let want = std::fs::read_to_string(path).expect("golden file present");
    assert_eq!(
        got, want,
        "Chrome-trace schema drifted from the golden file; if the change \
         is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}
