//! One oracle for the runtime. Re-organising, synthesising, caching or
//! offloading a chain must not change what leaves it (the contract of the
//! paper's Tables II/III). This suite checks that contract against a
//! sequential [`Reference`] over one generated configuration space
//! ([`ConfigSpace`]), with three relations per configuration:
//!
//! 1. *Functional*: every run's egress — bytes and `seq`, in order —
//!    equals what the reference lets out of the chain for the same
//!    warm-up and admitted batches.
//! 2. *Per structure*: for a fixed policy, element statistics, egress
//!    counts and merge conflicts do not depend on the flow cache, the SoA
//!    lanes, the worker count or the observers.
//! 3. *Temporal*: the simulated timeline (every batch's arrival and
//!    completion, hence `SimReport`) and the controller's report do not
//!    depend on the lanes, the worker count or the observers.
//!
//! One-phase configurations run through `prepare` + `process_batch`;
//! controller configurations run two phases through
//! `run_adaptive_collect` and meet the reference whenever no batch was
//! tail-dropped (its report does not say which were). Every path in
//! [`paths_reached`] must be reached by some case, so the generator
//! cannot quietly stop exercising one.
//!
//! The vendored proptest does not shrink: a failure prints the whole
//! configuration next to the case seed. Forced branch structures are
//! outside the contract (DESIGN §6) and keep named tests of their own.

use nfc_click::{CompiledGraph, NodeId};
use nfc_core::flowcache::FlowCacheMode;
use nfc_core::{
    BatchResult, ControllerConfig, Deployment, ExecMode, PartitionAlgo, PlatformResources, Policy,
    RunOutcome, Sfc, TelemetryMode, TelemetrySummary,
};
use nfc_hetero::{GpuMode, PipelineSim, SimReport};
use nfc_nf::acl::{synth, Action, Rule};
use nfc_nf::elements::IpsecSa;
use nfc_nf::Nf;
use nfc_packet::headers::{ip_proto, Ethernet, Ipv4};
use nfc_packet::traffic::{
    FlowSpec, IpVersion, PayloadPolicy, SizeDist, TrafficGenerator, TrafficSpec,
};
use nfc_packet::{checksum, Batch, Packet};
use nfc_telemetry::{EventKind, SloSpec, Telemetry};
use proptest::prelude::*;
use proptest::test_runner::run;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap, HashSet};

// ---------------------------------------------------------------------
// The reference
// ---------------------------------------------------------------------

/// The sequential reference: each NF's element graph compiled on the
/// per-packet path (no lanes), and each ingress packet pushed through
/// the whole chain on its own. No batching, flow cache,
/// re-organisation, synthesis, engine or simulator.
struct Reference {
    nfs: Vec<(NodeId, CompiledGraph)>,
}

impl Reference {
    fn new(sfc: &Sfc) -> Self {
        let nfs = sfc
            .nfs()
            .iter()
            .map(|nf| {
                let mut run = nf.graph().clone().compile().expect("catalog NFs compile");
                run.set_lanes(false);
                (nf.entry(), run)
            })
            .collect();
        Reference { nfs }
    }

    /// What leaves the chain for one ingress packet (empty: dropped).
    fn push(&mut self, pkt: Packet) -> Batch {
        let mut cur: Batch = std::iter::once(pkt).collect();
        for (entry, run) in &mut self.nfs {
            cur = run.push_merged(*entry, cur);
        }
        cur
    }

    /// Everything that leaves the chain for `batches`, in ingress order.
    fn egress(&mut self, batches: &[Batch]) -> Vec<Packet> {
        batches
            .iter()
            .flat_map(|b| b.iter().cloned())
            .flat_map(|p| self.push(p))
            .collect()
    }
}

// ---------------------------------------------------------------------
// The configuration space
// ---------------------------------------------------------------------

/// The NF catalog the chain axis draws from, stateful NFs included.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Kind {
    Probe,
    Firewall,
    DenyingFirewall,
    SessionLog,
    Ids,
    Dpi,
    StreamIds,
    Nat,
    Balancer,
    Wan,
    Proxy,
    Router,
    Router6,
    Ipsec,
}

impl Kind {
    const ALL: [Kind; 14] = [
        Kind::Probe,
        Kind::Firewall,
        Kind::DenyingFirewall,
        Kind::SessionLog,
        Kind::Ids,
        Kind::Dpi,
        Kind::StreamIds,
        Kind::Nat,
        Kind::Balancer,
        Kind::Wan,
        Kind::Proxy,
        Kind::Router,
        Kind::Router6,
        Kind::Ipsec,
    ];

    fn build(self, i: usize) -> Nf {
        let name = format!("{self:?}{i}");
        let seed = i as u64 + 1;
        match self {
            Kind::Probe => Nf::probe(name),
            Kind::Firewall => Nf::firewall(name, 64, seed),
            Kind::DenyingFirewall => Nf::firewall_with(name, denying_rules(seed), true),
            Kind::SessionLog => Nf::session_log(name, 256, denying_rules(seed)),
            Kind::Ids => Nf::ids(name),
            Kind::Dpi => Nf::dpi(name),
            Kind::StreamIds => Nf::stream_ids(name),
            Kind::Nat => Nf::nat(name, [203, 0, 113, 1]),
            Kind::Balancer => Nf::load_balancer(name, 4),
            Kind::Wan => Nf::wan_optimizer(name),
            Kind::Proxy => Nf::proxy(name),
            Kind::Router => Nf::ipv4_forwarder(name, 64, seed),
            Kind::Router6 => Nf::ipv6_forwarder(name, 64, seed),
            Kind::Ipsec => Nf::ipsec(name),
        }
    }
}

/// Every NF a chain has drawn so far, built once: building the payload
/// matchers dominates a debug-build case otherwise. Clones of a
/// never-run NF start from fresh state and share its read-only tables.
#[derive(Default)]
struct Catalog(HashMap<(Kind, usize), Nf>);

impl Catalog {
    fn sfc(&mut self, chain: &[Kind]) -> Sfc {
        let nfs = chain
            .iter()
            .enumerate()
            .map(|(i, &k)| self.0.entry((k, i)).or_insert_with(|| k.build(i)).clone());
        Sfc::new("generated", nfs.collect())
    }
}

/// Synthetic rules behind one deny rule that bites the generator's
/// default population (a quarter of the destinations, half the ports),
/// then pairs inside that population's 172.16.0.0/12: a /16–/24 rule and
/// a /12–/15 rule over it with the other action and other ports, in
/// either order. A packet in both takes whichever ranks first, so
/// egress depends on the ACL index ordering its bucket against its
/// wide rules.
fn denying_rules(seed: u64) -> Vec<Rule> {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let mut rules = vec![Rule {
        dst: (u32::from_be_bytes([172, 16, 0, 0]), 14),
        dport: (0, 32767),
        ..Rule::any(Action::Deny)
    }];
    let ports = [(0, 32767), (16384, u16::MAX), (0, u16::MAX), (1024, 49151)];
    for pair in 0..8 {
        let dst = u32::from_be_bytes([172, 16, 0, 0]) | rng.gen::<u32>() >> 12;
        let (narrow, wide) = if pair % 2 == 0 {
            (Action::Allow, Action::Deny)
        } else {
            (Action::Deny, Action::Allow)
        };
        let mut two = [
            Rule {
                dst: (dst, rng.gen_range(16..=24)),
                dport: ports[rng.gen_range(0..ports.len())],
                ..Rule::any(narrow)
            },
            Rule {
                dst: (dst, rng.gen_range(12..=15)),
                dport: ports[rng.gen_range(0..ports.len())],
                ..Rule::any(wide)
            },
        ];
        if rng.gen() {
            two.reverse();
        }
        rules.extend(two);
    }
    rules.extend(synth::generate(64, seed));
    rules
}

#[derive(Debug, Clone)]
struct Traffic {
    size: SizeDist,
    tcp: bool,
    ipv6: bool,
    flows: usize,
    skew: f64,
    /// Share of payloads carrying a signature or the proxy's host token;
    /// `None` sends all-zero payloads (what the WAN optimizer dedups).
    match_ratio: Option<f64>,
    rate_gbps: f64,
    seed: u64,
}

impl Traffic {
    /// Phase `phase`'s generator (0 or 1): phase 1 flips the match ratio,
    /// so a controller sees the workload swing.
    fn generator(&self, phase: usize) -> TrafficGenerator {
        let base = if self.tcp {
            TrafficSpec::tcp(self.size.clone())
        } else {
            TrafficSpec::udp(self.size.clone())
        };
        let ip = if self.ipv6 {
            IpVersion::V6
        } else {
            IpVersion::V4
        };
        let mut spec = base
            .with_ip_version(ip)
            .with_rate_gbps(self.rate_gbps)
            .with_flows(FlowSpec {
                count: self.flows,
                ..FlowSpec::default().with_skew(self.skew)
            });
        if let Some(ratio) = self.match_ratio {
            let mut patterns = Nf::default_ids_signatures();
            patterns.push(b"Host: origin.internal".to_vec());
            let ratio = if phase == 0 { ratio } else { 1.0 - ratio };
            spec = spec.with_payload(PayloadPolicy::MatchRatio { patterns, ratio });
        }
        TrafficGenerator::new(spec, self.seed + phase as u64)
    }
}

/// The settings that only cost wall-clock time or only observe; two
/// draws of them must agree on everything relation 3 compares.
#[derive(Debug, Clone, Copy)]
struct Knobs {
    lanes: bool,
    exec: ExecMode,
    telemetry: bool,
    slo: bool,
    flow_trace: u32,
}

const EXEC_MODES: [ExecMode; 3] = [
    ExecMode::Serial,
    ExecMode::Parallel { threads: 2 },
    ExecMode::Parallel { threads: 8 },
];

#[derive(Debug, Clone)]
struct Config {
    chain: Vec<Kind>,
    traffic: Traffic,
    policy: Policy,
    /// Warm-up (profiling) batches `prepare` pushes before the live ones.
    warmup: usize,
    batch: usize,
    /// Live batches (per phase under a controller).
    batches: usize,
    /// The simulator's ingress queue bound: small values tail-drop.
    max_queue_ns: f64,
    /// `Some`: two phases through `run_adaptive_collect`; `None`: one
    /// phase through `prepare` + `process_batch`.
    controller: Option<ControllerConfig>,
    cache: Option<usize>,
    /// Run A uses `knobs[0]`, run B `knobs[1]`, run C `knobs[0]` with the
    /// cache toggled.
    knobs: [Knobs; 2],
}

/// One generated configuration per case. Every axis is drawn
/// independently, except that run B shares run A's SLO under a
/// controller.
struct ConfigSpace;

impl ConfigSpace {
    /// `1..=2^max_exp`, small values as likely as large magnitudes.
    fn log_uniform(rng: &mut TestRng, max_exp: u32) -> usize {
        let ceiling = 1usize << rng.gen_range(0..=max_exp);
        rng.gen_range(1..=ceiling)
    }

    fn policy(rng: &mut TestRng) -> Policy {
        let mode = if rng.gen_bool(0.5) {
            GpuMode::Persistent
        } else {
            GpuMode::LaunchPerBatch
        };
        let ratio = rng.gen_range(0..=10u32) as f64 / 10.0;
        let max_branches = rng.gen_range(1..=5usize);
        let synthesize = rng.gen_bool(0.5);
        // Re-organising policies get two draws in three: they are where
        // branches, merges and synthesis happen.
        match rng.gen_range(0..15u32) {
            0 => Policy::CpuOnly,
            1 => Policy::GpuOnly { mode },
            2 => Policy::FixedRatio { ratio, mode },
            3 => Policy::NbaAdaptive,
            4 => Policy::Optimal,
            5..=9 => Policy::ReorgOnly {
                max_branches,
                synthesize,
                ratio,
                mode,
            },
            _ => Policy::NfCompass {
                algo: [
                    PartitionAlgo::Kl,
                    PartitionAlgo::Agglomerative,
                    PartitionAlgo::Mfmc,
                ][rng.gen_range(0..3usize)],
                max_branches,
                synthesize,
            },
        }
    }

    fn knobs(rng: &mut TestRng, lanes: bool, exec: ExecMode) -> Knobs {
        Knobs {
            lanes,
            exec,
            telemetry: rng.gen_bool(0.5),
            slo: rng.gen_bool(0.5),
            flow_trace: [0, 1, 3][rng.gen_range(0..3usize)],
        }
    }

    /// The one fixed configuration of the space: IDS ∥ IPsec on 1 360 B
    /// frames, two branches of hundreds of µs a batch each, so the work
    /// off the critical path clears the engine's 100 µs helper minimum
    /// and the branches are posted to the pool in the optimised build
    /// too, where the drawn chains are too light to be. Both runs record
    /// their worker units.
    fn two_heavy_branches() -> Config {
        let knobs = |lanes, exec| Knobs {
            lanes,
            exec,
            telemetry: true,
            slo: false,
            flow_trace: 0,
        };
        Config {
            chain: vec![Kind::Ids, Kind::Ipsec],
            traffic: Traffic {
                size: SizeDist::Fixed(1360),
                tcp: false,
                ipv6: false,
                flows: 1024,
                skew: 0.0,
                match_ratio: Some(0.1),
                rate_gbps: 5.0,
                seed: 7,
            },
            policy: Policy::nfcompass(),
            warmup: 2,
            batch: 256,
            batches: 4,
            max_queue_ns: 50e6,
            controller: None,
            cache: None,
            knobs: [
                knobs(true, ExecMode::Parallel { threads: 2 }),
                knobs(false, ExecMode::Parallel { threads: 8 }),
            ],
        }
    }
}

impl Strategy for ConfigSpace {
    type Value = Config;

    fn sample(&self, rng: &mut TestRng) -> Config {
        let chain = (0..rng.gen_range(1..=5usize))
            .map(|_| Kind::ALL[rng.gen_range(0..Kind::ALL.len())])
            .collect();
        let traffic = Traffic {
            size: if rng.gen_bool(0.3) {
                SizeDist::Imix
            } else {
                SizeDist::Fixed(rng.gen_range(64..=1500usize))
            },
            tcp: rng.gen_bool(0.3),
            ipv6: rng.gen_bool(0.2),
            flows: 1 << rng.gen_range(0..=11u32),
            skew: if rng.gen_bool(0.5) {
                0.0
            } else {
                rng.gen_range(0.5..1.5)
            },
            match_ratio: rng.gen_bool(0.8).then(|| rng.gen_range(0.0..1.0)),
            rate_gbps: [1.0, 10.0, 40.0, 400.0, 4000.0][rng.gen_range(0..5usize)],
            seed: rng.gen_range(0..1_000_000u64),
        };
        let policy = Self::policy(rng);
        let warmup = rng.gen_range(1..=4usize);
        let batch = Self::log_uniform(rng, 8);
        let batches = rng.gen_range(2..=6usize);
        let max_queue_ns = if rng.gen_bool(0.3) { 2_000.0 } else { 50e6 };
        let controller = rng.gen_bool(0.3).then(|| ControllerConfig {
            epoch_batches: rng.gen_range(1..=2usize),
            window_epochs: rng.gen_range(1..=4usize),
            hysteresis_epochs: rng.gen_range(1..=2usize),
            cooldown_epochs: rng.gen_range(0..=2usize),
            refine_latency_epochs: rng.gen_range(1..=2usize),
            ..ControllerConfig::default()
        });
        let cache = rng.gen_bool(0.6).then(|| Self::log_uniform(rng, 12));
        let lanes = rng.gen_bool(0.5);
        let exec = rng.gen_range(0..EXEC_MODES.len());
        let other = (exec + rng.gen_range(1..EXEC_MODES.len())) % EXEC_MODES.len();
        let a = Self::knobs(rng, lanes, EXEC_MODES[exec]);
        let mut b = Self::knobs(rng, !lanes, EXEC_MODES[other]);
        if controller.is_some() {
            // Under a controller the health plane's signals are controller
            // input, not observation: both runs share the SLO.
            b.slo = a.slo;
        }
        Config {
            chain,
            traffic,
            policy,
            warmup,
            batch,
            batches,
            max_queue_ns,
            controller,
            cache,
            knobs: [a, b],
        }
    }
}

// ---------------------------------------------------------------------
// Running one configuration
// ---------------------------------------------------------------------

impl Config {
    fn deployment(
        &self,
        sfc: &Sfc,
        knobs: Knobs,
        cache: Option<usize>,
        flight: &str,
    ) -> Deployment {
        let telemetry = if knobs.telemetry {
            TelemetryMode::Memory
        } else {
            TelemetryMode::Off
        };
        let mut dep = Deployment::new(sfc.clone(), self.policy)
            .with_batch_size(self.batch)
            .with_exec_mode(knobs.exec)
            .with_lanes(knobs.lanes)
            .with_flow_cache(
                cache.map_or(FlowCacheMode::Off, |capacity| FlowCacheMode::On {
                    capacity,
                }),
            )
            .with_telemetry(telemetry)
            .with_flow_trace(knobs.flow_trace)
            .with_flight_stem(flight)
            .without_slo();
        dep.warmup_batches = self.warmup;
        if !knobs.slo {
            return dep;
        }
        // An always-breaching latency objective and a drift ceiling
        // low enough to raise, on short epochs.
        dep.with_slo(SloSpec {
            p99_latency_ns: 1.0,
            epoch_batches: 2,
            drift_threshold: 0.05,
            drift_hysteresis_epochs: 1,
            ..SloSpec::default()
        })
    }

    /// What the reference lets out of the chain for `admitted`, after
    /// the warm-up batches `prepare` pushed through it.
    fn reference_egress(&self, sfc: &Sfc, admitted: &[Batch]) -> Vec<Packet> {
        let mut traffic = self.traffic.generator(0);
        let warmup: Vec<Batch> = (0..self.warmup)
            .map(|_| traffic.batch(self.batch))
            .collect();
        let mut reference = Reference::new(sfc);
        reference.egress(&warmup);
        reference.egress(admitted)
    }

    /// The live batches every phase offers, warm-up excluded. A phase's
    /// splice moves arrival times and continues the previous phase's
    /// sequence numbers; it never moves payload bytes.
    fn offered(&self) -> Vec<Batch> {
        let phases = if self.controller.is_some() { 2 } else { 1 };
        let mut next_seq = 0;
        let mut offered = Vec::new();
        for phase in 0..phases {
            let mut traffic = self.traffic.generator(phase);
            traffic.advance_seq_to(next_seq);
            let skip = if phase == 0 { self.warmup } else { 0 };
            offered.extend(
                (0..skip + self.batches)
                    .map(|_| traffic.batch(self.batch))
                    .skip(skip),
            );
            next_seq = traffic.next_seq();
        }
        offered
    }

    /// Runs the configuration on `sfc` once with `knobs` and `cache`.
    fn run(&self, sfc: &Sfc, knobs: Knobs, cache: Option<usize>, flight: &str) -> Run {
        let mut dep = self.deployment(sfc, knobs, cache, flight);
        let Some(cfg) = &self.controller else {
            return Run::prepared(self, &mut dep);
        };
        let mut phases = [self.traffic.generator(0), self.traffic.generator(1)];
        let (phase_outcomes, controller, egress) =
            dep.run_adaptive_collect(&mut phases, self.batches, cfg);
        let dropped: u64 = phase_outcomes
            .iter()
            .map(|o| o.report.dropped_batches)
            .sum();
        let mut outcome = phase_outcomes[0].clone();
        let digest = outcome.telemetry.take();
        Run {
            egress,
            admitted: (dropped == 0).then(|| self.offered()),
            timeline: Vec::new(),
            phases: phase_outcomes
                .into_iter()
                .map(|o| (o.report, o.stage_offloads))
                .collect(),
            controller: Some(controller),
            outcome,
            digest,
        }
    }
}

/// What one run of a configuration exposes to the three relations.
struct Run {
    egress: Vec<Batch>,
    /// The live batches the chain admitted; `None` when a controller run
    /// tail-dropped (it does not say which batches).
    admitted: Option<Vec<Batch>>,
    /// Per live batch: tail-dropped (`None`) or its arrival and
    /// completion bits.
    timeline: Vec<Option<(u64, u64)>>,
    /// Per controller phase: its `SimReport` and offload ratios.
    phases: Vec<(SimReport, Vec<(String, f64)>)>,
    controller: Option<nfc_core::ControllerReport>,
    /// Structure, statistics and counters (its `report` is unused).
    outcome: RunOutcome,
    digest: Option<TelemetrySummary>,
}

impl Run {
    /// `prepare` + `process_batch` over one phase, on a simulator whose
    /// ingress queue is bounded by `cfg.max_queue_ns`.
    fn prepared(cfg: &Config, dep: &mut Deployment) -> Run {
        let tel = Telemetry::new(dep.telemetry.clone());
        let handle = tel.handle();
        let mut sim = PipelineSim::new();
        sim.max_queue_ns = cfg.max_queue_ns;
        sim.set_recorder(handle.recorder());
        let res = PlatformResources::register(&mut sim, dep.model());
        let mut traffic = cfg.traffic.generator(0);
        let mut prep = dep.prepare(&mut sim, &res, &mut traffic, &[], &mut 1, &handle);
        let (mut egress, mut admitted, mut timeline) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..cfg.batches {
            let batch = traffic.batch(cfg.batch);
            match prep.process_batch(&mut sim, &res, batch.clone()) {
                BatchResult::Completed {
                    mean_arrival,
                    completed,
                    out,
                } => {
                    timeline.push(Some((mean_arrival.to_bits(), completed.to_bits())));
                    egress.push(out);
                    admitted.push(batch);
                }
                BatchResult::Dropped { .. } => timeline.push(None),
            }
        }
        if let Some(rec) = sim.take_recorder() {
            handle.absorb(rec);
        }
        Run {
            egress,
            admitted: Some(admitted),
            timeline,
            phases: Vec::new(),
            controller: None,
            outcome: prep.into_outcome(SimReport::default()),
            digest: tel.finish(),
        }
    }

    /// Which live batches were admitted; `None` when unknown.
    fn admitted_pattern(&self) -> Option<Vec<bool>> {
        self.admitted.as_ref()?;
        Some(self.timeline.iter().map(Option::is_some).collect())
    }

    /// Relation 1: the run let out exactly `want`, what the reference
    /// lets out of the same admitted batches.
    fn check_egress(&self, want: &[Packet]) -> Result<(), TestCaseError> {
        let got: Vec<&Packet> = self.egress.iter().flat_map(Batch::iter).collect();
        prop_assert_eq!(
            want.len(),
            got.len(),
            "egress count vs the reference (width {})",
            self.outcome.width
        );
        for (i, (w, g)) in want.iter().zip(got).enumerate() {
            prop_assert!(
                w.meta.seq == g.meta.seq && w.data() == g.data(),
                "egress packet {i} differs from the reference: seq {} vs {}, \
                 {} vs {} bytes (width {})",
                w.meta.seq,
                g.meta.seq,
                w.len(),
                g.len(),
                self.outcome.width
            );
        }
        Ok(())
    }

    /// Relation 2 between two runs of one policy that admitted the same
    /// batches.
    fn check_structure(&self, other: &Run) -> Result<(), TestCaseError> {
        let (a, b) = (&self.outcome, &other.outcome);
        prop_assert_eq!(a.width, b.width);
        prop_assert_eq!(&a.stage_stats, &b.stage_stats, "element statistics");
        prop_assert_eq!(a.egress_packets, b.egress_packets);
        prop_assert_eq!(a.egress_bytes, b.egress_bytes);
        prop_assert_eq!(a.merge_conflicts, b.merge_conflicts);
        Ok(())
    }

    /// Relation 3 between two runs that differ only in lanes, threads
    /// and observers. Relations 1 and 2 come with it: egress batches
    /// (lineage and annotations included), statistics and flow-cache
    /// counters are equal too.
    fn check_timeline(&self, other: &Run, knobs: &[Knobs; 2]) -> Result<(), TestCaseError> {
        self.check_structure(other)?;
        prop_assert!(self.egress == other.egress, "egress batches differ");
        prop_assert_eq!(&self.timeline, &other.timeline, "simulated timeline");
        prop_assert_eq!(&self.phases, &other.phases, "SimReport per phase");
        prop_assert_eq!(&self.controller, &other.controller, "controller report");
        prop_assert_eq!(self.outcome.flow_cache, other.outcome.flow_cache);
        prop_assert_eq!(&self.outcome.stage_offloads, &other.outcome.stage_offloads);
        let (Some(a), Some(b)) = (&self.digest, &other.digest) else {
            return Ok(());
        };
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
            prop_assert_eq!(a.counter(name), b.counter(name), "counter {}", name);
        }
        // Event counts per category, the observers' own aside.
        let categories = |d: &TelemetrySummary| {
            let mut n = BTreeMap::new();
            for ev in &d.trace {
                let c = ev.kind.category();
                if c != "flow" && c != "health" {
                    *n.entry(c).or_insert(0u64) += 1;
                }
            }
            n
        };
        prop_assert_eq!(categories(a), categories(b), "events per category");
        if knobs[0].slo && knobs[1].slo {
            for (name, value) in a.gauges.iter().filter(|(n, _)| n.starts_with("health_")) {
                let other = b.gauge(name).map(f64::to_bits);
                prop_assert_eq!(Some(value.to_bits()), other, "gauge {}", name);
            }
        }
        Ok(())
    }
}

/// The paths a case reached, by name. Every path must be reached by
/// some case, or the generator has stopped exercising it.
fn paths_reached(
    cfg: &Config,
    a: &Run,
    b: &Run,
    cache_compared: bool,
) -> [(&'static str, bool); 10] {
    let o = &a.outcome;
    let offered = cfg.batches * if cfg.controller.is_some() { 2 } else { 1 };
    let ingress: usize = a.admitted.iter().flatten().map(Batch::len).sum();
    let egress: usize = a.egress.iter().map(Batch::len).sum();
    let breached = a.digest.as_ref().is_some_and(|d| {
        d.trace
            .iter()
            .any(|ev| matches!(ev.kind, EventKind::SloBurn { breached: true, .. }))
    });
    let digests = a.digest.is_some() && b.digest.is_some();
    // A unit run by a helper (worker 1 and up) means the batch's
    // branches were posted to the pool.
    let pooled = [a, b].iter().filter_map(|r| r.digest.as_ref()).any(|d| {
        d.trace
            .iter()
            .any(|ev| matches!(ev.kind, EventKind::Worker { worker, .. } if worker > 0))
    });
    [
        ("branches", o.width > 1),
        ("synthesis", !o.synthesis.is_empty()),
        ("cache hits", o.flow_cache.hits > 0),
        ("cache toggled", cache_compared),
        (
            "tail drops",
            a.admitted.as_ref().map_or(0, Vec::len) < offered,
        ),
        ("functional drops", egress < ingress),
        ("SLO breaches", breached),
        ("digests compared", digests),
        (
            "health gauges compared",
            digests && cfg.knobs.iter().all(|k| k.slo),
        ),
        ("branches on the pool", pooled),
    ]
}

/// Runs `cfg` three times — A with `knobs[0]`, B with `knobs[1]`, C as A
/// with the cache toggled — and checks the three relations. Returns A,
/// B and whether C admitted the same batches as A.
fn check(cfg: &Config, sfc: &Sfc, flight: &str) -> Result<(Run, Run, bool), TestCaseError> {
    let [ka, kb] = cfg.knobs;
    let toggled = if cfg.cache.is_some() { None } else { Some(64) };
    let a = cfg.run(sfc, ka, cfg.cache, flight);
    let b = cfg.run(sfc, kb, cfg.cache, flight);
    let c = cfg.run(sfc, ka, toggled, flight);
    let want = a
        .admitted
        .as_ref()
        .map(|adm| cfg.reference_egress(sfc, adm));
    if let Some(want) = &want {
        a.check_egress(want)?;
    }
    a.check_timeline(&b, &cfg.knobs)?;
    // The cache moves the simulated charge, so it may move which batches
    // the queue admits.
    let same_batches = a
        .admitted_pattern()
        .is_some_and(|p| Some(p) == c.admitted_pattern());
    if same_batches {
        a.check_structure(&c)?;
        c.check_egress(want.as_deref().expect("A admitted"))?;
    } else if let Some(adm) = &c.admitted {
        c.check_egress(&cfg.reference_egress(sfc, adm))?;
    }
    Ok((a, b, same_batches))
}

/// Where the named cases' flight recorders would dump (they arm no SLO,
/// so nothing breaches and nothing is written).
fn quiet_flight() -> String {
    let stem = format!("nfc-reference-{}-flight", std::process::id());
    std::env::temp_dir()
        .join(stem)
        .to_string_lossy()
        .into_owned()
}

#[test]
fn every_configuration_matches_the_reference() {
    let dir = std::env::temp_dir().join(format!("nfc-reference-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let flight = dir.join("flight").to_string_lossy().into_owned();
    let mut reached = BTreeMap::<&str, u32>::new();
    let mut catalog = Catalog::default();
    let mut case = |cfg: Config| {
        let sfc = catalog.sfc(&cfg.chain);
        let (a, b, same_batches) = check(&cfg, &sfc, &flight).map_err(|e| match e {
            TestCaseError::Fail(msg) => TestCaseError::fail(format!("{msg}\n  in {cfg:#?}")),
            other => other,
        })?;
        for (path, hit) in paths_reached(&cfg, &a, &b, same_batches) {
            *reached.entry(path).or_default() += hit as u32;
        }
        Ok(())
    };
    run(
        &ProptestConfig::with_cases(96),
        "every_configuration_matches_the_reference",
        |rng| case(ConfigSpace.sample(rng)),
    );
    case(ConfigSpace::two_heavy_branches()).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        reached.values().all(|&n| n > 0),
        "some path was never reached: {reached:?}"
    );
}

// ---------------------------------------------------------------------
// Named cases
// ---------------------------------------------------------------------

/// A once-failing draw of the old re-organisation property (IDS then
/// NAT, up to two branches, seed 0): the NAT is stateful and sits past
/// a dropper, so it must see only what the IDS lets through.
#[test]
fn ids_then_nat_at_two_branches_matches_the_reference() {
    let cfg = Config {
        chain: vec![Kind::Ids, Kind::Nat],
        traffic: Traffic {
            size: SizeDist::Fixed(256),
            tcp: false,
            ipv6: false,
            flows: 1024,
            skew: 0.0,
            match_ratio: Some(0.3),
            rate_gbps: 40.0,
            seed: 0,
        },
        policy: Policy::ReorgOnly {
            max_branches: 2,
            synthesize: false,
            ratio: 0.0,
            mode: GpuMode::Persistent,
        },
        warmup: 4,
        batch: 48,
        batches: 4,
        max_queue_ns: 50e6,
        controller: None,
        cache: None,
        knobs: NAMED_KNOBS,
    };
    let sfc = Catalog::default().sfc(&cfg.chain);
    let (a, _, _) = check(&cfg, &sfc, &quiet_flight()).unwrap();
    assert_eq!(a.admitted.as_ref().map(Vec::len), Some(4));
}

/// The generator draws applied plan swaps only now and then. Here the
/// controller swaps for certain — benign, then all-matching payloads
/// through DPI ahead of a firewall — so every run checks that a swap
/// rewrites the stages alike under any worker count, and that what
/// leaves the chain is still what the reference lets out.
#[test]
fn a_controller_swapping_plans_matches_the_reference() {
    let cfg = Config {
        chain: vec![Kind::Dpi, Kind::Firewall],
        traffic: Traffic {
            size: SizeDist::Fixed(512),
            tcp: false,
            ipv6: false,
            flows: 1024,
            skew: 0.0,
            match_ratio: Some(0.0),
            rate_gbps: 40.0,
            seed: 41,
        },
        policy: Policy::nfcompass(),
        warmup: 4,
        batch: 64,
        batches: 6,
        max_queue_ns: 50e6,
        controller: Some(ControllerConfig {
            epoch_batches: 1,
            window_epochs: 2,
            hysteresis_epochs: 1,
            cooldown_epochs: 0,
            ..ControllerConfig::default()
        }),
        cache: Some(256),
        knobs: NAMED_KNOBS,
    };
    let sfc = Catalog::default().sfc(&cfg.chain);
    let (a, _, _) = check(&cfg, &sfc, &quiet_flight()).unwrap();
    let report = a.controller.expect("a controller run");
    assert!(report.applied() > 0, "no plan was swapped: {report:?}");
    assert!(a.admitted.is_some(), "a tail drop hid the reference");
}

/// IPsec carves a batch only when it carries at least two chunks' worth
/// of payload, which the generator rarely draws together with IPsec and
/// a worker pool. Here every live batch carries 128 frames of 1 360 B
/// (about 170 KB of payload), sealed on 2 workers in run A and 8 in run
/// B: alone, where nothing downstream restores the order the chunks
/// come back in; beside the IDS branch as on the benchmark's
/// `ids_ipsec_1360b`; and after a DPI under a controller, over two
/// phases whose second continues the first one's ESP numbers.
#[test]
fn carved_ipsec_batches_match_the_reference_on_two_and_eight_workers() {
    let traffic = Traffic {
        size: SizeDist::Fixed(1360),
        tcp: false,
        ipv6: false,
        flows: 1024,
        skew: 0.0,
        match_ratio: Some(0.1),
        rate_gbps: 40.0,
        seed: 7,
    };
    let knobs = [
        Knobs {
            exec: ExecMode::Parallel { threads: 2 },
            ..NAMED_KNOBS[0]
        },
        Knobs {
            exec: ExecMode::Parallel { threads: 8 },
            ..NAMED_KNOBS[1]
        },
    ];
    let beside_ids = Config {
        chain: vec![Kind::Ids, Kind::Ipsec],
        traffic: traffic.clone(),
        policy: Policy::nfcompass(),
        warmup: 2,
        batch: 128,
        batches: 3,
        max_queue_ns: 50e6,
        controller: None,
        cache: None,
        knobs,
    };
    let alone = Config {
        chain: vec![Kind::Ipsec],
        ..beside_ids.clone()
    };
    let after_dpi = Config {
        chain: vec![Kind::Dpi, Kind::Ipsec],
        traffic: Traffic {
            match_ratio: Some(0.0),
            ..traffic
        },
        controller: Some(ControllerConfig {
            epoch_batches: 1,
            window_epochs: 2,
            hysteresis_epochs: 1,
            cooldown_epochs: 0,
            ..ControllerConfig::default()
        }),
        ..beside_ids.clone()
    };
    for cfg in [alone, beside_ids, after_dpi] {
        let sfc = Catalog::default().sfc(&cfg.chain);
        let (a, _, _) = check(&cfg, &sfc, &quiet_flight()).unwrap();
        assert!(a.admitted.is_some(), "a tail drop hid the reference");
    }
}

/// IPsec's ESP number and AES-CTR IV are the packet's ingress sequence
/// number plus one, so one adaptive run must number its warm-up and
/// every phase from one counter. A swapping controller over two phases:
/// no two egress packets of the SA share a number or an IV, and none
/// reuses a number the warm-up sealed.
#[test]
fn esp_numbers_never_repeat_across_warm_up_phases_and_plan_swaps() {
    let cfg = Config {
        chain: vec![Kind::Dpi, Kind::Ipsec],
        traffic: Traffic {
            size: SizeDist::Fixed(512),
            tcp: false,
            ipv6: false,
            flows: 1024,
            skew: 0.0,
            match_ratio: Some(0.0),
            rate_gbps: 40.0,
            seed: 41,
        },
        policy: Policy::nfcompass(),
        warmup: 4,
        batch: 64,
        batches: 6,
        max_queue_ns: 50e6,
        controller: Some(ControllerConfig {
            epoch_batches: 1,
            window_epochs: 2,
            hysteresis_epochs: 1,
            cooldown_epochs: 0,
            ..ControllerConfig::default()
        }),
        cache: None,
        knobs: NAMED_KNOBS,
    };
    let sfc = Catalog::default().sfc(&cfg.chain);
    let (a, _, _) = check(&cfg, &sfc, &quiet_flight()).unwrap();
    let report = a.controller.expect("a controller run");
    assert!(report.applied() > 0, "no plan was swapped: {report:?}");
    let warmed_up = (cfg.warmup * cfg.batch) as u64;
    let (mut numbers, mut ivs) = (HashSet::new(), HashSet::new());
    for p in a.egress.iter().flat_map(Batch::iter) {
        let esp = p.l4_payload().expect("sealed frames keep their UDP header");
        assert_eq!(esp[..4], IpsecSa::example().spi.to_be_bytes());
        let number = u32::from_be_bytes(esp[4..8].try_into().unwrap());
        let iv = u64::from_be_bytes(esp[8..16].try_into().unwrap());
        assert!(
            u64::from(number) > warmed_up,
            "warm-up number {number} reused"
        );
        assert!(numbers.insert(number), "ESP number {number} reused");
        assert!(ivs.insert(iv), "IV {iv} reused");
    }
    assert_eq!(numbers.len(), 2 * cfg.batches * cfg.batch);
}

/// The two runs the named cases compare: lanes, workers and observers
/// all differ, and no SLO is armed.
const NAMED_KNOBS: [Knobs; 2] = [
    Knobs {
        lanes: true,
        exec: ExecMode::Parallel { threads: 2 },
        telemetry: false,
        slo: false,
        flow_trace: 0,
    },
    Knobs {
        lanes: false,
        exec: ExecMode::Serial,
        telemetry: true,
        slo: false,
        flow_trace: 1,
    },
];

/// One ingress packet per line of the reference self-tests.
fn one(p: Packet) -> Vec<Batch> {
    vec![std::iter::once(p).collect()]
}

fn reference(nfs: Vec<Nf>) -> Reference {
    Reference::new(&Sfc::new("self-test", nfs))
}

#[test]
fn reference_drops_exactly_the_denied_packet() {
    let deny = Rule {
        dst: (u32::from_be_bytes([172, 16, 0, 9]), 32),
        ..Rule::any(Action::Deny)
    };
    let mut r = reference(vec![Nf::firewall_with("fw", vec![deny], true)]);
    let pkts: Vec<Packet> = [8, 9, 10]
        .iter()
        .enumerate()
        .map(|(seq, &host)| {
            let mut p = Packet::ipv4_udp([10, 0, 0, 1], [172, 16, 0, host], 4000, 80, b"x");
            p.meta.seq = seq as u64;
            p
        })
        .collect();
    let out = r.egress(&[pkts.iter().cloned().collect()]);
    assert_eq!(out, vec![pkts[0].clone(), pkts[2].clone()]);
}

#[test]
fn reference_nat_rewrites_the_source_and_keeps_checksums_valid() {
    let mut r = reference(vec![Nf::nat("nat", [203, 0, 113, 1])]);
    for (sport, want_port) in [(4000, 10_000), (4001, 10_001), (4000, 10_000)] {
        let p = Packet::ipv4_udp([10, 0, 0, 1], [172, 16, 0, 9], sport, 80, b"payload");
        let out = r.egress(&one(p));
        assert_eq!(out.len(), 1);
        let q = &out[0];
        let ip = q.ipv4().unwrap();
        assert_eq!(ip.src, [203, 0, 113, 1]);
        assert_eq!(q.udp().unwrap().src_port, want_port);
        let hdr = &q.data()[Ethernet::LEN..Ethernet::LEN + Ipv4::LEN];
        assert_eq!(checksum::fold(checksum::sum(hdr, 0)), 0xFFFF);
        let l4 = q.l4_offset().unwrap();
        let ph = checksum::pseudo_header_v4(ip.src, ip.dst, ip_proto::UDP, (q.len() - l4) as u16);
        assert_eq!(checksum::fold(checksum::sum(&q.data()[l4..], ph)), 0xFFFF);
    }
}

#[test]
fn reference_ipsec_grows_each_packet_by_the_esp_overhead() {
    // ESP header (SPI 4 + sequence 4 + IV 8) plus the 12-byte
    // HMAC-SHA1-96 tag.
    const ESP_OVERHEAD: usize = 16 + 12;
    let mut r = reference(vec![Nf::ipsec("ipsec")]);
    for len in [0, 1, 100, 1000] {
        let p = Packet::ipv4_udp([10, 0, 0, 1], [172, 16, 0, 9], 4000, 80, &vec![7; len]);
        let out = r.egress(&one(p.clone()));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].len(), p.len() + ESP_OVERHEAD, "payload {len}");
    }
}

#[test]
fn reference_dpi_leaves_the_bytes_untouched() {
    let mut r = reference(vec![Nf::dpi("dpi")]);
    let mut payloads = Nf::default_ids_signatures();
    payloads.push(b"plain lowercase payload".to_vec());
    for payload in payloads {
        let p = Packet::ipv4_udp([10, 0, 0, 1], [172, 16, 0, 9], 4000, 80, &payload);
        assert_eq!(r.egress(&one(p.clone())), vec![p]);
    }
}
