//! Execution-engine determinism: the worker pool and CoW duplication are
//! pure wall-clock optimizations. Serial deep-copy, serial CoW and
//! parallel CoW runs of the same deployment must agree on every egress
//! byte, every per-element statistic, and every simulated timing.

use nfc_click::element::RunCtx;
use nfc_click::{Element, ElementActions, ElementClass, ElementGraph};
use nfc_core::{
    BatchResult, ControllerConfig, ControllerReport, Deployment, Duplication, ExecMode,
    FlowCacheMode, PlatformResources, Policy, RunOutcome, Sfc, TelemetryMode,
};
use nfc_hetero::{GpuMode, PipelineSim};
use nfc_nf::{Nf, NfKind};
use nfc_packet::traffic::{PayloadPolicy, SizeDist, TrafficGenerator, TrafficSpec};
use nfc_packet::{Batch, Packet};
use nfc_telemetry::{Event, EventKind, TelemetryHandle};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A mixed chain the analyzer re-organizes: read-only firewall and IDS
/// parallelize; IDS also drops, exercising drop-wins merging.
fn mixed_chain() -> Sfc {
    Sfc::new(
        "fw-ids-fw",
        vec![
            Nf::firewall("fw-a", 64, 1),
            Nf::ids("ids"),
            Nf::firewall("fw-b", 64, 2),
        ],
    )
}

fn traffic(seed: u64, pkt: usize, match_ratio: f64) -> TrafficGenerator {
    let spec = if match_ratio > 0.0 {
        TrafficSpec::udp(SizeDist::Fixed(pkt)).with_payload(PayloadPolicy::MatchRatio {
            patterns: Nf::default_ids_signatures(),
            ratio: match_ratio,
        })
    } else {
        TrafficSpec::udp(SizeDist::Fixed(pkt))
    };
    TrafficGenerator::new(spec, seed)
}

#[allow(clippy::too_many_arguments)]
fn run_mode(
    sfc: Sfc,
    policy: Policy,
    exec: ExecMode,
    dup: Duplication,
    seed: u64,
    pkt: usize,
    match_ratio: f64,
    n_batches: usize,
) -> (RunOutcome, Vec<Batch>) {
    let mut dep = Deployment::new(sfc, policy)
        .with_batch_size(128)
        .with_exec_mode(exec)
        .with_duplication(dup);
    dep.run_collect(&mut traffic(seed, pkt, match_ratio), n_batches)
}

fn assert_equivalent(label: &str, a: &(RunOutcome, Vec<Batch>), b: &(RunOutcome, Vec<Batch>)) {
    assert_eq!(a.1, b.1, "{label}: egress batches must be byte-identical");
    assert_eq!(
        a.0.stage_stats, b.0.stage_stats,
        "{label}: per-element statistics must match"
    );
    assert_eq!(a.0.egress_packets, b.0.egress_packets, "{label}");
    assert_eq!(a.0.egress_bytes, b.0.egress_bytes, "{label}");
    assert_eq!(a.0.merge_conflicts, b.0.merge_conflicts, "{label}");
    // The temporal replay preserves schedule order, so even the
    // simulated timeline is bit-identical.
    assert_eq!(
        a.0.report.throughput_gbps.to_bits(),
        b.0.report.throughput_gbps.to_bits(),
        "{label}: simulated throughput must be bit-identical"
    );
    assert_eq!(
        a.0.report.p99_latency_ns.to_bits(),
        b.0.report.p99_latency_ns.to_bits(),
        "{label}: simulated latency must be bit-identical"
    );
}

#[test]
fn parallel_equals_serial_across_seeds() {
    for seed in [3u64, 17, 99] {
        let baseline = run_mode(
            mixed_chain(),
            Policy::nfcompass(),
            ExecMode::Serial,
            Duplication::DeepCopy,
            seed,
            256,
            0.3,
            12,
        );
        for (label, exec, dup) in [
            ("serial/cow", ExecMode::Serial, Duplication::Cow),
            (
                "parallel2/cow",
                ExecMode::Parallel { threads: 2 },
                Duplication::Cow,
            ),
            (
                "parallel8/deepcopy",
                ExecMode::Parallel { threads: 8 },
                Duplication::DeepCopy,
            ),
        ] {
            let got = run_mode(
                mixed_chain(),
                Policy::nfcompass(),
                exec,
                dup,
                seed,
                256,
                0.3,
                12,
            );
            assert_equivalent(&format!("seed {seed}, {label}"), &baseline, &got);
        }
    }
}

#[test]
fn forced_four_branch_join_is_deterministic_under_repetition() {
    // Stress the branch join: four parallel branches of identical NFs,
    // repeated with an oversubscribed pool. Every repetition must
    // reproduce the first run exactly (no ordering or refcount races).
    let mk = || {
        Sfc::new(
            "ipsec4",
            (0..4).map(|i| Nf::ipsec(format!("ip{i}"))).collect(),
        )
    };
    let policy = Policy::ReorgOnly {
        max_branches: 4,
        synthesize: false,
        ratio: 0.0,
        mode: GpuMode::Persistent,
    };
    let branches = vec![vec![0], vec![1], vec![2], vec![3]];
    let run_once = |exec: ExecMode| {
        let mut dep = Deployment::new(mk(), policy)
            .with_batch_size(64)
            .with_forced_branches(branches.clone())
            .with_exec_mode(exec)
            .with_duplication(Duplication::Cow);
        dep.run_collect(&mut traffic(7, 512, 0.0), 6)
    };
    let reference = run_once(ExecMode::Serial);
    assert_eq!(reference.0.width, 4);
    assert_eq!(reference.0.merge_conflicts, 0, "identical NFs must merge");
    for rep in 0..8 {
        let got = run_once(ExecMode::Parallel { threads: 16 });
        assert_equivalent(&format!("stress rep {rep}"), &reference, &got);
    }
}

#[test]
fn dropped_packets_merge_identically_in_parallel() {
    // IDS drops matching packets inside one branch; drop-wins merging
    // must give the same survivor set in every mode.
    let baseline = run_mode(
        mixed_chain(),
        Policy::nfcompass(),
        ExecMode::Serial,
        Duplication::DeepCopy,
        5,
        512,
        1.0,
        8,
    );
    let par = run_mode(
        mixed_chain(),
        Policy::nfcompass(),
        ExecMode::Parallel { threads: 4 },
        Duplication::Cow,
        5,
        512,
        1.0,
        8,
    );
    assert!(
        baseline.0.egress_packets < 8 * 128,
        "full-match traffic must see IDS drops"
    );
    assert_equivalent("drop merge", &baseline, &par);
}

/// Four phases swinging between benign and all-hostile payloads: the
/// controller's detector trips at the boundaries and re-partitions.
fn swinging_phases() -> Vec<TrafficGenerator> {
    [0.0, 1.0, 0.0, 1.0]
        .iter()
        .enumerate()
        .map(|(i, &ratio)| {
            TrafficGenerator::new(
                TrafficSpec::udp(SizeDist::Fixed(128))
                    .with_rate_gbps(10.0)
                    .with_payload(PayloadPolicy::MatchRatio {
                        patterns: Nf::default_ids_signatures(),
                        ratio,
                    }),
                61 + i as u64,
            )
        })
        .collect()
}

fn long_lived_deployment(exec: ExecMode) -> Deployment {
    Deployment::new(mixed_chain(), Policy::nfcompass())
        .with_batch_size(32)
        .with_exec_mode(exec)
        .with_flow_cache(FlowCacheMode::On { capacity: 4096 })
}

/// Every branch's stages move out of the `PreparedSfc` into the pool's
/// units and back on each batch, while the controller (`repartition`)
/// rewrites those same stages between batches. One prepared SFC carried
/// through more than 2000 batches of that must not depend on the engine
/// mode in any observable.
#[test]
fn one_prepared_sfc_survives_plan_swaps_identically_in_every_mode() {
    const PHASE_BATCHES: usize = 520; // x 4 phases = 2080 batches
    let cfg = ControllerConfig {
        epoch_batches: 8,
        ..ControllerConfig::default()
    };
    let adaptive = |exec| -> (Vec<RunOutcome>, ControllerReport, Vec<Batch>) {
        long_lived_deployment(exec).run_adaptive_collect(
            &mut swinging_phases(),
            PHASE_BATCHES,
            &cfg,
        )
    };
    let assert_phases = |label: &str, want: &[RunOutcome], got: &[RunOutcome]| {
        assert_eq!(want.len(), got.len(), "{label}");
        for (i, (a, b)) in want.iter().zip(got).enumerate() {
            assert_eq!(a.report, b.report, "{label} phase {i}: SimReport");
            assert_eq!(a.stage_stats, b.stage_stats, "{label} phase {i}");
            assert_eq!(a.stage_offloads, b.stage_offloads, "{label} phase {i}");
            assert_eq!(a.flow_cache, b.flow_cache, "{label} phase {i}");
            assert_eq!(a.egress_packets, b.egress_packets, "{label} phase {i}");
            assert_eq!(a.egress_bytes, b.egress_bytes, "{label} phase {i}");
            assert_eq!(a.merge_conflicts, b.merge_conflicts, "{label} phase {i}");
        }
    };
    let serial = adaptive(ExecMode::Serial);
    assert!(
        serial.0[0].width > 1,
        "the chain must fan out to reach the pool"
    );
    assert!(
        serial.1.applied() > 0,
        "the controller must swap plans mid-run"
    );
    assert!(
        serial.0[0].flow_cache.hits > 0,
        "the firewall branches must run behind their flow caches"
    );
    for threads in [2, 4, 16] {
        let label = format!("parallel{threads}");
        let exec = ExecMode::Parallel { threads };
        let got = adaptive(exec);
        assert_eq!(serial.2, got.2, "{label}: egress must be byte-identical");
        assert_eq!(serial.1, got.1, "{label}: controller timeline");
        assert_phases(&label, &serial.0, &got.0);
    }
}

/// `run_collect`, `run_replay` (of the very batches `run_collect`'s
/// generator produced) and `run_adaptive_collect` with a disabled
/// controller are one loop: on one phase they must agree on every
/// `SimReport` field, every egress byte and every per-element counter,
/// with telemetry off and recording. The only trace difference allowed
/// is the controller's `Epoch` markers.
#[test]
fn single_box_entry_points_agree() {
    const BATCH: usize = 128;
    const N: usize = 40;
    let chain = || {
        Sfc::new(
            "fw-ipsec-dpi",
            vec![
                Nf::firewall("fw", 200, 1),
                Nf::ipsec("ipsec"),
                Nf::dpi("dpi"),
            ],
        )
    };
    let gen = || {
        TrafficGenerator::new(
            TrafficSpec::udp(SizeDist::Fixed(512)).with_rate_gbps(30.0),
            7,
        )
    };
    // Everything a trace holds that is not wall-clock: the simulated
    // timeline in recorded order, and the total event count.
    let timeline = |out: &RunOutcome| {
        let trace = &out.telemetry.as_ref().expect("digest").trace;
        let kept = |ev: &&Event| !matches!(ev.kind, EventKind::Epoch { .. });
        let sim: Vec<_> = trace
            .iter()
            .filter(kept)
            .filter(|ev| ev.sim.is_some())
            .map(|ev| (ev.sim, ev.track, ev.batch, ev.kind.clone()))
            .collect();
        (sim, trace.iter().filter(kept).count())
    };
    for mode in [TelemetryMode::Off, TelemetryMode::Memory] {
        let dep = || {
            Deployment::new(chain(), Policy::nfcompass())
                .with_batch_size(BATCH)
                .with_exec_mode(ExecMode::Serial)
                .with_telemetry(mode.clone())
                .without_slo()
                .with_flow_trace(0)
        };
        let collected = dep().run_collect(&mut gen(), N);
        // The batches `run_collect` processed: what the same generator
        // yields once warm-up has drawn its share.
        let mut source = gen();
        for _ in 0..dep().warmup_batches {
            source.batch(BATCH);
        }
        let recorded: Vec<Batch> = (0..N).map(|_| source.batch(BATCH)).collect();
        let replayed = dep().run_replay(&mut gen(), &recorded);
        let (mut phases, report, egress) =
            dep().run_adaptive_collect(&mut [gen()], N, &ControllerConfig::disabled());
        assert_eq!(report.applied(), 0, "{mode:?}: a disabled controller holds");
        let adaptive = (phases.pop().expect("one phase"), egress);
        assert!(phases.is_empty());
        for (label, got) in [("run_replay", &replayed), ("run_adaptive", &adaptive)] {
            let label = format!("{mode:?} {label}");
            assert_equivalent(&label, &collected, got);
            assert_eq!(collected.0.report, got.0.report, "{label}: SimReport");
            assert_eq!(collected.0.stage_offloads, got.0.stage_offloads, "{label}");
            assert_eq!(collected.0.flow_cache, got.0.flow_cache, "{label}");
            assert_eq!(
                collected.0.telemetry.is_some(),
                got.0.telemetry.is_some(),
                "{label}"
            );
            if mode.is_on() {
                assert_eq!(timeline(&collected.0), timeline(&got.0), "{label}: trace");
            }
        }
        if mode.is_on() {
            let epochs = |out: &RunOutcome| {
                let trace = &out.telemetry.as_ref().expect("digest").trace;
                trace
                    .iter()
                    .filter(|ev| matches!(ev.kind, EventKind::Epoch { .. }))
                    .count()
            };
            assert_eq!(epochs(&collected.0), 0, "no controller, no epoch cadence");
            assert_eq!(epochs(&adaptive.0) as u64, report.epochs);
            assert!(report.epochs > 0);
        }
    }
}

/// A probe that forwards everything but panics on a [`TRIPWIRE`]
/// payload — a stand-in for an element bug only some packet reaches.
#[derive(Debug, Clone)]
struct Tripwire;

const TRIPWIRE: &[u8] = b"tripwire";

impl Element for Tripwire {
    fn name(&self) -> &str {
        "tripwire"
    }

    fn class(&self) -> ElementClass {
        ElementClass::Inspector
    }

    fn actions(&self) -> ElementActions {
        ElementActions::read_all()
    }

    fn process(&mut self, batch: Batch, _ctx: &mut RunCtx) -> Vec<Batch> {
        assert!(
            batch.iter().all(|p| p.l4_payload().ok() != Some(TRIPWIRE)),
            "tripwire payload reached the probe"
        );
        vec![batch]
    }

    fn clone_box(&self) -> Box<dyn Element> {
        Box::new(self.clone())
    }
}

/// A unit that panics takes its branch's stages with it. If the embedding
/// caller catches the unwind and keeps calling `process_batch`, the chain
/// must refuse to run: with no stages left it would execute zero
/// branches, merge every packet through as untouched and report the
/// batch completed — a firewall failing open.
#[test]
fn a_prepared_sfc_poisoned_by_a_unit_panic_refuses_later_batches() {
    for exec in [ExecMode::Serial, ExecMode::Parallel { threads: 2 }] {
        let mut probe = ElementGraph::new();
        probe.add(Tripwire);
        let sfc = Sfc::new(
            "fw-probe",
            vec![
                Nf::firewall("fw", 64, 1),
                Nf::from_graph("probe", NfKind::Probe, probe),
            ],
        );
        let mut dep = Deployment::new(sfc, Policy::CpuOnly)
            .with_batch_size(32)
            .with_forced_branches(vec![vec![0], vec![1]])
            .with_exec_mode(exec);
        let mut sim = PipelineSim::new();
        let res = PlatformResources::register(&mut sim, dep.model());
        // Warm-up draws generated payloads, none of them the tripwire.
        let mut prep = dep.prepare(
            &mut sim,
            &res,
            &mut traffic(7, 128, 0.0),
            &[],
            &mut 1,
            &TelemetryHandle::disabled(),
        );
        let marked = || -> Batch {
            (0..32u8)
                .map(|i| Packet::ipv4_udp([10, 0, 0, i], [172, 16, 0, 1], 4000, 80, TRIPWIRE))
                .collect()
        };
        let first = catch_unwind(AssertUnwindSafe(|| {
            prep.process_batch(&mut sim, &res, marked());
        }));
        assert!(first.is_err(), "{exec:?}: the probe's panic must surface");
        let second = catch_unwind(AssertUnwindSafe(|| {
            match prep.process_batch(&mut sim, &res, marked()) {
                BatchResult::Completed { out, .. } => out.len(),
                BatchResult::Dropped { .. } => 0,
            }
        }));
        let payload = match second {
            Ok(forwarded) => panic!("{exec:?}: poisoned chain forwarded {forwarded} packets"),
            Err(payload) => payload,
        };
        let msg = payload.downcast_ref::<String>().map_or("", String::as_str);
        assert!(
            msg.contains("poisoned"),
            "{exec:?}: unexpected panic: {msg}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any (seed, packet size, thread count) combination: parallel CoW
    /// execution reproduces the serial deep-copy engine exactly.
    #[test]
    fn engine_equivalence_holds_for_arbitrary_traffic(
        seed in 1u64..10_000,
        pkt in 64usize..1200,
        threads in 2usize..9,
    ) {
        let a = run_mode(
            mixed_chain(),
            Policy::nfcompass(),
            ExecMode::Serial,
            Duplication::DeepCopy,
            seed,
            pkt,
            0.2,
            4,
        );
        let b = run_mode(
            mixed_chain(),
            Policy::nfcompass(),
            ExecMode::Parallel { threads },
            Duplication::Cow,
            seed,
            pkt,
            0.2,
            4,
        );
        prop_assert_eq!(&a.1, &b.1);
        prop_assert_eq!(&a.0.stage_stats, &b.0.stage_stats);
        prop_assert_eq!(
            a.0.report.throughput_gbps.to_bits(),
            b.0.report.throughput_gbps.to_bits()
        );
    }
}
