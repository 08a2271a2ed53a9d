//! Execution-engine cases outside the configuration-space differential
//! (`tests/reference_differential.rs`): a forced four-branch join under
//! an oversubscribed pool (forced structures are outside the contract,
//! DESIGN §6), the single-box entry points agreeing with one another,
//! and a chain that keeps processing after a panicking unit.

use nfc_click::element::RunCtx;
use nfc_click::{Element, ElementActions, ElementClass, ElementGraph};
use nfc_core::{
    BatchResult, ControllerConfig, Deployment, ExecMode, PlatformResources, Policy, RunOutcome,
    Sfc, TelemetryMode,
};
use nfc_hetero::{GpuMode, PipelineSim};
use nfc_nf::{Nf, NfKind};
use nfc_packet::traffic::{SizeDist, TrafficGenerator, TrafficSpec};
use nfc_packet::{Batch, Packet};
use nfc_telemetry::{Event, EventKind, Telemetry, TelemetryHandle};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn traffic(pkt: usize) -> TrafficGenerator {
    TrafficGenerator::new(TrafficSpec::udp(SizeDist::Fixed(pkt)), 7)
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
            .with_exec_mode(exec);
        dep.run_collect(&mut traffic(512), 6)
    };
    let reference = run_once(ExecMode::Serial);
    assert_eq!(reference.0.width, 4);
    assert_eq!(reference.0.merge_conflicts, 0, "identical NFs must merge");
    for rep in 0..8 {
        let got = run_once(ExecMode::Parallel { threads: 16 });
        assert_equivalent(&format!("stress rep {rep}"), &reference, &got);
    }
}

/// `run_collect` and `run_adaptive_collect` with a disabled controller
/// are one loop: on one phase they must agree on every `SimReport`
/// field, every egress byte and every per-element counter, with
/// telemetry off and recording. The only trace difference allowed is the
/// controller's `Epoch` markers.
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
        let (mut phases, report, egress) =
            dep().run_adaptive_collect(&mut [gen()], N, &ControllerConfig::disabled());
        assert_eq!(report.applied(), 0, "{mode:?}: a disabled controller holds");
        let adaptive = (phases.pop().expect("one phase"), egress);
        assert!(phases.is_empty());
        let label = format!("{mode:?} run_adaptive");
        assert_equivalent(&label, &collected, &adaptive);
        assert_eq!(collected.0.report, adaptive.0.report, "{label}: SimReport");
        assert_eq!(
            collected.0.stage_offloads, adaptive.0.stage_offloads,
            "{label}"
        );
        assert_eq!(collected.0.flow_cache, adaptive.0.flow_cache, "{label}");
        assert_eq!(
            collected.0.telemetry.is_some(),
            adaptive.0.telemetry.is_some(),
            "{label}"
        );
        if mode.is_on() {
            assert_eq!(
                timeline(&collected.0),
                timeline(&adaptive.0),
                "{label}: trace"
            );
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
}

/// A stage that panics hands its branch's stages back before the panic
/// reaches the caller. A caller that catches the unwind keeps a chain
/// that processes later batches exactly like a twin that never saw the
/// panicking batch, instead of one that runs zero branches and merges
/// every packet through untouched.
#[test]
fn a_unit_panic_surfaces_and_the_chain_keeps_processing() {
    for exec in [ExecMode::Serial, ExecMode::Parallel { threads: 2 }] {
        let prepare = || {
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
            let prep = dep.prepare(
                &mut sim,
                &res,
                &mut traffic(128),
                &[],
                &mut 1,
                &TelemetryHandle::disabled(),
            );
            (sim, res, prep)
        };
        let egress = |r: BatchResult| -> Vec<Vec<u8>> {
            match r {
                BatchResult::Completed { out, .. } => {
                    out.iter().map(|p| p.data().to_vec()).collect()
                }
                BatchResult::Dropped { .. } => Vec::new(),
            }
        };
        let (mut sim, res, mut prep) = prepare();
        let (mut twin_sim, twin_res, mut twin) = prepare();
        let marked: Batch = (0..32u8)
            .map(|i| Packet::ipv4_udp([10, 0, 0, i], [172, 16, 0, 1], 4000, 80, TRIPWIRE))
            .collect();
        let first = catch_unwind(AssertUnwindSafe(|| {
            prep.process_batch(&mut sim, &res, marked);
        }));
        assert!(first.is_err(), "{exec:?}: the probe's panic must surface");
        let mut gen = TrafficGenerator::new(TrafficSpec::udp(SizeDist::Fixed(128)), 11);
        for i in 0..4 {
            let batch = gen.batch(32);
            let out = egress(prep.process_batch(&mut sim, &res, batch.clone()));
            let twin_out = egress(twin.process_batch(&mut twin_sim, &twin_res, batch));
            assert!(!out.is_empty(), "{exec:?}: batch {i} forwarded nothing");
            assert_eq!(out, twin_out, "{exec:?}: batch {i} egress bytes");
        }
    }
}

/// The per-batch branch dispatch: an IDS ∥ DPI pair posts to the pool
/// only once the work off its critical path — the lighter scanner —
/// pays for a helper. Light batches of 64 B frames keep both scanners
/// below that line, 512-packet batches of 1 360 B frames far above it,
/// so the decision flips once, at the first heavy batches. The light
/// batches are as long as a debug build allows (it scans about ten
/// times slower): in the optimised build a helper posted for them would
/// often arrive while the caller is still on the first branch, so its
/// spans show. Whatever the rule decides, egress bytes and order,
/// per-element statistics and the simulated timeline equal a serial
/// run's.
#[test]
fn branch_dispatch_flips_with_the_work_and_matches_a_serial_run() {
    const LIGHT: usize = if cfg!(debug_assertions) { 8 } else { 96 };
    const HEAVY: usize = 512;
    const PHASE: usize = 24;
    let run = |exec: ExecMode| {
        let sfc = Sfc::new("ids-dpi", vec![Nf::ids("ids"), Nf::dpi("dpi")]);
        let mut dep = Deployment::new(sfc, Policy::CpuOnly)
            .with_batch_size(LIGHT)
            .with_forced_branches(vec![vec![0], vec![1]])
            .with_exec_mode(exec)
            .with_telemetry(TelemetryMode::Memory)
            .without_slo()
            .with_flow_trace(0);
        let gen = |size| {
            TrafficGenerator::new(
                TrafficSpec::udp(SizeDist::Fixed(size)).with_rate_gbps(1.0),
                7,
            )
        };
        let (mut light, mut heavy) = (gen(64), gen(1360));
        let tel = Telemetry::new(dep.telemetry.clone());
        let handle = tel.handle();
        let mut sim = PipelineSim::new();
        sim.set_recorder(handle.recorder());
        let res = PlatformResources::register(&mut sim, dep.model());
        // The warm-up seeds the estimates from light batches.
        let mut prep = dep.prepare(&mut sim, &res, &mut light, &[], &mut 1, &handle);
        let mut egress = Vec::new();
        for i in 0..2 * PHASE {
            let batch = if i < PHASE {
                light.batch(LIGHT)
            } else {
                heavy.batch(HEAVY)
            };
            match prep.process_batch(&mut sim, &res, batch) {
                BatchResult::Completed { out, .. } => egress.push(out),
                BatchResult::Dropped { .. } => panic!("{exec:?}: batch {i} dropped"),
            }
        }
        if let Some(rec) = sim.take_recorder() {
            handle.absorb(rec);
        }
        let mut outcome = prep.into_outcome(sim.report());
        outcome.telemetry = tel.finish();
        (outcome, egress)
    };
    // Batches (by lineage tag) that the pool's helpers ran a branch of,
    // split into light and heavy by their ingress size.
    let helped = |out: &RunOutcome| {
        let trace = &out.telemetry.as_ref().expect("memory telemetry").trace;
        let heavy: HashSet<u64> = trace
            .iter()
            .filter_map(|ev| match ev.kind {
                EventKind::BatchIngress { seq, packets, .. } if packets as usize == HEAVY => {
                    Some(seq)
                }
                _ => None,
            })
            .collect();
        assert_eq!(heavy.len(), PHASE);
        let mut by_phase = [0usize; 2];
        for ev in trace {
            if let EventKind::Worker { worker, .. } = ev.kind {
                if worker > 0 {
                    by_phase[usize::from(heavy.contains(&ev.batch))] += 1;
                }
            }
        }
        by_phase
    };
    let serial = run(ExecMode::Serial);
    assert_eq!(helped(&serial.0), [0, 0], "a configured Serial never posts");
    let parallel = run(ExecMode::Parallel { threads: 2 });
    assert_equivalent("dispatch flip", &serial, &parallel);
    assert_eq!(serial.0.report, parallel.0.report, "SimReport");
    let [light, heavy] = helped(&parallel.0);
    assert_eq!(light, 0, "a helper ran a light batch's branch");
    assert!(heavy > 0, "no helper ran a heavy batch's branch");
}

/// A lone branch takes the ingress batch itself, so a width-1 NAT
/// rewrites every packet in the buffer it arrived in. Its egress bytes
/// equal those of a chain fed a batch whose buffers the caller still
/// shares, which makes every rewrite copy.
#[test]
fn a_width_one_writer_rewrites_its_ingress_buffers_in_place() {
    let prepare = || {
        let sfc = Sfc::new("nat", vec![Nf::nat("nat", [192, 168, 0, 1])]);
        let mut dep = Deployment::new(sfc, Policy::CpuOnly).with_batch_size(32);
        let mut sim = PipelineSim::new();
        let res = PlatformResources::register(&mut sim, dep.model());
        let prep = dep.prepare(
            &mut sim,
            &res,
            &mut traffic(128),
            &[],
            &mut 1,
            &TelemetryHandle::disabled(),
        );
        (sim, res, prep)
    };
    let egress = |r: BatchResult| match r {
        BatchResult::Completed { out, .. } => out,
        BatchResult::Dropped { .. } => panic!("dropped"),
    };
    let (mut sim, res, mut prep) = prepare();
    let (mut twin_sim, twin_res, mut twin) = prepare();
    // Two generators with one seed: equal batches, separate buffers.
    let gen = || TrafficGenerator::new(TrafficSpec::udp(SizeDist::Fixed(128)), 11);
    let (mut gen, mut twin_gen) = (gen(), gen());
    for i in 0..4 {
        let batch = gen.batch(32);
        let kept = twin_gen.batch(32);
        let ingress: Vec<*const u8> = batch.iter().map(|p| p.data().as_ptr()).collect();
        let out = egress(prep.process_batch(&mut sim, &res, batch));
        let shared_out = egress(twin.process_batch(&mut twin_sim, &twin_res, kept.clone()));
        let egress_ptrs: Vec<*const u8> = out.iter().map(|p| p.data().as_ptr()).collect();
        assert_eq!(
            egress_ptrs, ingress,
            "batch {i}: a rewrite copied its packet"
        );
        assert_eq!(out, shared_out, "batch {i}: egress bytes");
        assert!(
            out.iter()
                .zip(kept.iter())
                .all(|(o, k)| o.data() != k.data()),
            "batch {i}: the NAT rewrote nothing"
        );
    }
}
