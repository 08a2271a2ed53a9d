//! The one adapter between the harness and the system under test.
//!
//! Every call into the workspace crates lives in this file: building the
//! six workloads, driving `Deployment::prepare` / `PreparedSfc::
//! process_batch` / `ClusterDeployment::run_phased` under the load model,
//! and timing each layer's public functions for the ladder. An
//! API-moving refactor of the runtime is therefore a one-file change
//! here; nothing else in the harness names a workspace type.

use crate::stats::Fnv64;
use crate::sys;
use crate::trace::Tracer;
use nfc_click::element::config_hash;
use nfc_click::{CompiledGraph, ElementGraph, NodeId};
use nfc_cluster::{ClusterDeployment, ClusterOutcome, ClusterSpec, HashRing, RebalanceConfig};
use nfc_control::{Controller, ControllerConfig, WorkloadSignature};
use nfc_core::allocator::allocate;
use nfc_core::expansion::Expansion;
use nfc_core::flowcache::{FlowCacheMode, StageFlowCache};
use nfc_core::orchestrator::merge_branch_batches;
use nfc_core::profiler::Profiler;
use nfc_core::runtime::{BatchResult, PlatformResources};
use nfc_core::synthesizer::synthesize;
use nfc_core::{
    par_map, Deployment, ExecMode, PartitionAlgo, Policy, PreparedSfc, ReorgSfc, RunOutcome, Sfc,
    TelemetryMode,
};
use nfc_graphpart::{agglomerative, kl, Objective, Side};
use nfc_hetero::{CostModel, GpuMode, PipelineSim, PlatformConfig, SimReport};
use nfc_nf::ac::AhoCorasick;
use nfc_nf::acl::{synth, AclTable, Action};
use nfc_nf::catalog::synth_routes_v4;
use nfc_nf::crypto::{hmac_sha1, Aes128};
use nfc_nf::elements::{IpLookup, IpsecSa};
use nfc_nf::flowcache::ClockTable;
use nfc_nf::lpm::Dir24_8;
use nfc_nf::{Nf, NfKind};
use nfc_packet::traffic::{FlowSpec, PayloadPolicy, SizeDist, TrafficGenerator, TrafficSpec};
use nfc_packet::{Batch, FiveTuple, FlowKey, HeaderLanes};
use nfc_telemetry::{Recorder, Telemetry};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Batches drawn from the generator ahead of each timed chunk, and the
/// bytes they may add up to: enough to keep generation out of the timed
/// region, few enough that resident memory is the program's and not the
/// buffer's (16 batches of 64 B packets, 3 of 1360 B ones).
const CHUNK: usize = 16;
const CHUNK_BYTES: f64 = 1024.0 * 1024.0;
/// Flow-cache capacity of the two `acl_lpm_*` workloads.
const CACHE_CAPACITY: usize = 1 << 15;
/// Batches in the saturation pass, and its multiple of the nominal rate.
const SATURATION_BATCHES: usize = 256;
const SATURATION_FACTOR: f64 = 4.0;
/// Sampled rungs (kernels and off-path references) run on about this
/// many batches of the traced repetition; path rungs run on every batch.
const SAMPLED_BATCHES: usize = 48;
/// Fresh builds the set-up ladder is averaged over.
const SETUP_LADDER_BUILDS: usize = 5;
/// Rule and route seeds, fixed: `--seed` varies the traffic only.
const RULE_SEED: u64 = 1;
const ROUTE_SEED: u64 = 2;
/// Traffic seed of the rack workload's two phases (41 and 42).
const RACK_SEED: u64 = 41;

/// The NF kinds the six chains are built from; each has a
/// `click.push.<kind>` rung.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Fw,
    Router,
    Nat,
    Ids,
    Ipsec,
    Acl,
    Lpm,
    Lb,
    Dpi,
}

impl Kind {
    /// Every kind with the size its off-path reference instance uses.
    const ALL: [(Kind, usize); 9] = [
        (Kind::Fw, 256),
        (Kind::Router, 1000),
        (Kind::Nat, 0),
        (Kind::Ids, 0),
        (Kind::Ipsec, 0),
        (Kind::Acl, 1000),
        (Kind::Lpm, 4096),
        (Kind::Lb, 8),
        (Kind::Dpi, 0),
    ];

    fn push_span(self) -> &'static str {
        match self {
            Kind::Fw => "click.push.fw",
            Kind::Router => "click.push.router",
            Kind::Nat => "click.push.nat",
            Kind::Ids => "click.push.ids",
            Kind::Ipsec => "click.push.ipsec",
            Kind::Acl => "click.push.acl",
            Kind::Lpm => "click.push.lpm",
            Kind::Lb => "click.push.lb",
            Kind::Dpi => "click.push.dpi",
        }
    }

    /// Builds the NF; `size` is its rule, route or backend count.
    fn build(self, name: String, size: usize) -> Nf {
        match self {
            Kind::Fw => Nf::firewall(name, size, RULE_SEED),
            Kind::Router => Nf::ipv4_forwarder(name, size, ROUTE_SEED),
            Kind::Nat => Nf::nat(name, [192, 168, 0, 1]),
            Kind::Ids => Nf::ids(name),
            Kind::Ipsec => Nf::ipsec(name),
            Kind::Acl => Nf::firewall_with(name, synth::generate(size, RULE_SEED), true),
            Kind::Lpm => {
                // A bare `IpLookup`: the catalog forwarder also rewrites
                // TTL and MACs, which makes it ineligible for the flow
                // cache (same construction as `benches/flow_cache.rs`).
                let routes = synth_routes_v4(size, ROUTE_SEED);
                let mut cfg = Vec::new();
                for r in &routes {
                    cfg.extend_from_slice(&r.prefix.to_be_bytes());
                    cfg.push(r.len);
                    cfg.extend_from_slice(&r.next_hop.to_be_bytes());
                }
                let table = Arc::new(Dir24_8::from_routes(&routes, 20));
                let mut g = ElementGraph::new();
                g.add(IpLookup::new(table, config_hash(&cfg)));
                Nf::from_graph(name, NfKind::Ipv4Forwarder, g)
            }
            Kind::Lb => Nf::load_balancer(name, size),
            Kind::Dpi => Nf::dpi(name),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    Fw4,
    RealSfc,
    IdsIpsec,
    AclLpmZipf,
    AclLpmChurn,
    Rack8,
}

/// One benchmark workload: a chain, a policy and a traffic mix, with the
/// repetition length and nominal offered rate pinned at the commit that
/// defined the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line, in `BENCHMARK.json` and in results.
    pub name: &'static str,
    /// Packets per batch.
    pub batch: usize,
    /// Batches per repetition (never time-based, so the simulated side
    /// of a repetition is identical on every commit).
    pub batches: usize,
    /// Nominal offered rate on the simulated clock, Gbit/s.
    pub rate_gbps: f64,
    shape: Shape,
}

/// The six workloads, in the order they are run and reported.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "fw4_branch_64b",
        batch: 256,
        batches: 2800,
        rate_gbps: 10.0,
        shape: Shape::Fw4,
    },
    Workload {
        name: "real_sfc_imix",
        batch: 256,
        batches: 1400,
        rate_gbps: 38.0,
        shape: Shape::RealSfc,
    },
    Workload {
        name: "ids_ipsec_1360b",
        batch: 256,
        batches: 80,
        rate_gbps: 5.0,
        shape: Shape::IdsIpsec,
    },
    Workload {
        name: "acl_lpm_zipf_cached",
        batch: 256,
        batches: 4800,
        rate_gbps: 40.0,
        shape: Shape::AclLpmZipf,
    },
    Workload {
        name: "acl_lpm_churn_cached",
        batch: 256,
        batches: 900,
        rate_gbps: 8.5,
        shape: Shape::AclLpmChurn,
    },
    Workload {
        name: "rack8_flood_shift",
        batch: 512,
        batches: 2 * 350,
        rate_gbps: 32.0,
        shape: Shape::Rack8,
    },
];

/// How a repetition departs from the shipped defaults. The end-to-end
/// numbers come from `Variant::Default`; the others are the extra
/// baseline repetitions behind `core.engine.serial_mpps`,
/// `core.flowcache.bypass_mpps`, `telemetry.memory_overhead_ratio` and
/// `cluster.deploy.n1_mpps`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Variant {
    /// Every shipped default.
    #[default]
    Default,
    /// `ExecMode::Serial` instead of `ExecMode::auto()`.
    Serial,
    /// `FlowCacheMode::Off` on a cached workload.
    CacheOff,
    /// `TelemetryMode::Memory` instead of off.
    Telemetry,
    /// One server instead of eight (`rack8_flood_shift`), or the
    /// single-box chain behind `ClusterSpec::uniform(1)` elsewhere.
    ClusterN1,
}

/// Simulated-clock results of one repetition (all model outputs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimFacts {
    /// `SimReport::throughput_gbps`.
    pub gbps: f64,
    /// `SimReport::p50_latency_ns`, µs.
    pub p50_us: f64,
    /// `SimReport::p99_latency_ns`, µs.
    pub p99_us: f64,
    /// Batches the simulator tail-dropped.
    pub dropped: u64,
    /// Batches offered to the simulator.
    pub offered: u64,
    /// Simulated span from first arrival to last completion, s.
    pub span_s: f64,
}

impl SimFacts {
    fn of(r: &SimReport) -> Self {
        SimFacts {
            gbps: r.throughput_gbps,
            p50_us: r.p50_latency_ns / 1e3,
            p99_us: r.p99_latency_ns / 1e3,
            dropped: r.dropped_batches,
            offered: r.offered_batches,
            span_s: if r.pps > 0.0 {
                r.packets as f64 / r.pps
            } else {
                0.0
            },
        }
    }

    /// The values as bit patterns, for the bit-identity checks.
    pub fn bits(&self) -> [u64; 6] {
        [
            self.gbps.to_bits(),
            self.p50_us.to_bits(),
            self.p99_us.to_bits(),
            self.dropped,
            self.offered,
            self.span_s.to_bits(),
        ]
    }
}

/// Count-clock results of one repetition; must repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Counts {
    /// Packets handed to the program.
    pub ingress_packets: u64,
    /// Packets that left it.
    pub egress_packets: u64,
    /// Packets dropped by elements (`GraphStats::total_dropped`).
    pub element_drops: u64,
    /// Parallel width after re-organisation.
    pub width: u64,
    /// Flow-cache hits, misses, evictions (`RunOutcome.flow_cache`).
    pub cache_hits: u64,
    /// See `cache_hits`.
    pub cache_misses: u64,
    /// See `cache_hits`.
    pub cache_evictions: u64,
    /// Mean of `RunOutcome.stage_offloads`.
    pub offload_ratio_mean: f64,
    /// `RunOutcome.residency.spilled.len()`.
    pub spilled_kernels: u64,
    /// `ClusterOutcome.rebalances`.
    pub rebalances: u64,
    /// `ClusterOutcome.migrated_bytes`.
    pub migrated_bytes: u64,
}

/// One repetition of a workload from a freshly built deployment.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Timed region: Σ `process_batch`, or the one `run_phased` call, s.
    pub busy_s: f64,
    /// Process CPU time spent over the timed region, s.
    pub cpu_s: f64,
    /// Per-call `process_batch` times, ns (one mean per repetition for
    /// the rack, whose batches are not driven from outside).
    pub call_ns: Vec<f64>,
    /// Ingress packets of the batches that completed.
    pub completed_packets: u64,
    /// Batches attempted.
    pub attempted: u64,
    /// FNV-1a over every egress batch (bytes and order), or over the
    /// `ClusterOutcome` for the rack.
    pub digest: u64,
    /// Ingress = egress + element drops (exact at width 1, bounded by
    /// the summed branch drops above it).
    pub conserved: bool,
    /// Simulated-clock results.
    pub sim: SimFacts,
    /// Count-clock results.
    pub counts: Counts,
    /// Share of the host's CPU time the hypervisor stole while the
    /// repetition ran (see [`sys::StealClock`]).
    pub stolen: f64,
}

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// True for the two workloads that run with the flow cache on.
    pub fn cached(&self) -> bool {
        matches!(self.shape, Shape::AclLpmZipf | Shape::AclLpmChurn)
    }

    /// True for the workload driven through `nfc-cluster`.
    pub fn is_rack(&self) -> bool {
        self.shape == Shape::Rack8
    }

    fn chain_spec(&self) -> &'static [(Kind, usize)] {
        match self.shape {
            Shape::Fw4 => &[(Kind::Fw, 256); 4],
            Shape::RealSfc => &[(Kind::Fw, 1000), (Kind::Router, 1000), (Kind::Nat, 0)],
            Shape::IdsIpsec => &[(Kind::Ids, 0), (Kind::Ipsec, 0)],
            Shape::AclLpmZipf | Shape::AclLpmChurn => {
                &[(Kind::Acl, 1000), (Kind::Lpm, 4096), (Kind::Lb, 8)]
            }
            Shape::Rack8 => &[(Kind::Nat, 0), (Kind::Dpi, 0)],
        }
    }

    fn chain(&self) -> Sfc {
        let nfs = self
            .chain_spec()
            .iter()
            .enumerate()
            .map(|(i, &(kind, size))| kind.build(format!("{kind:?}{i}").to_lowercase(), size))
            .collect();
        Sfc::new(self.name, nfs)
    }

    fn policy(&self) -> Policy {
        if self.cached() {
            Policy::CpuOnly
        } else {
            Policy::nfcompass()
        }
    }

    /// Branch structure the runtime will execute: the analyzer's under
    /// `Policy::nfcompass()`, one sequential branch under `CpuOnly`.
    fn reorg(&self, sfc: &Sfc) -> ReorgSfc {
        match self.policy() {
            Policy::NfCompass { max_branches, .. } => ReorgSfc::analyze(sfc, max_branches),
            _ => ReorgSfc::sequential(sfc),
        }
    }

    /// The workload's traffic at `rate` Gbit/s: one generator, or the
    /// benign and hostile phases of the rack workload.
    fn traffic(&self, seed: u64, rate: f64) -> Vec<TrafficGenerator> {
        let flows = |count: usize, skew: f64| FlowSpec {
            count,
            ..FlowSpec::default().with_skew(skew)
        };
        let ids_payload = |ratio: f64| PayloadPolicy::MatchRatio {
            patterns: Nf::default_ids_signatures(),
            ratio,
        };
        let spec = match self.shape {
            Shape::Fw4 => TrafficSpec::udp(SizeDist::Fixed(64)).with_flows(flows(1024, 0.0)),
            Shape::RealSfc => TrafficSpec::udp(SizeDist::Imix),
            Shape::IdsIpsec => {
                TrafficSpec::udp(SizeDist::Fixed(1360)).with_payload(ids_payload(0.1))
            }
            Shape::AclLpmZipf => TrafficSpec::udp(SizeDist::Fixed(64)).with_flows(flows(2048, 1.0)),
            Shape::AclLpmChurn => {
                TrafficSpec::udp(SizeDist::Fixed(64)).with_flows(flows(8 * CACHE_CAPACITY, 0.0))
            }
            Shape::Rack8 => {
                // `seed` is not used here. With 64 Zipf-1.3 flows and live
                // rebalancing the simulated outcome is chaotic in the
                // input: another flow population, or the same stream
                // started a few batches later, moves `sim_p99_us` between
                // 3.1 and 4.9 ms. A second seed would be a different
                // experiment, not a repetition, so the traffic is the
                // fixed pair of `benches/cluster_scale.rs`.
                return [0.0, 1.0]
                    .iter()
                    .enumerate()
                    .map(|(i, &ratio)| {
                        TrafficGenerator::new(
                            TrafficSpec::udp(SizeDist::Fixed(256))
                                .with_rate_gbps(rate)
                                .with_flows(flows(64, 1.3))
                                .with_payload(ids_payload(ratio)),
                            RACK_SEED + i as u64,
                        )
                    })
                    .collect();
            }
        };
        vec![TrafficGenerator::new(spec.with_rate_gbps(rate), seed)]
    }

    /// Applies the workload's settings to a deployment that otherwise
    /// keeps every shipped default (engine workers included).
    fn configure(&self, dep: Deployment, v: Variant) -> Deployment {
        let mut dep = dep.with_batch_size(self.batch);
        if v == Variant::Serial {
            dep = dep.with_exec_mode(ExecMode::Serial);
        }
        if v == Variant::Telemetry {
            dep = dep.with_telemetry(TelemetryMode::Memory);
        }
        if self.cached() && v != Variant::CacheOff {
            dep = dep.with_flow_cache(FlowCacheMode::On {
                capacity: CACHE_CAPACITY,
            });
        }
        dep
    }

    /// Spans of the layer calls that do work on this workload — what the
    /// report prints; every other rung is an off-path reference.
    fn path_spans(&self, width: usize) -> Vec<&'static str> {
        let mut p = vec![
            "packet.batch.cow_clone",
            "hetero.sim.schedule",
            "telemetry.off_probe",
            "control.controller.observe",
        ];
        for &(kind, _) in self.chain_spec() {
            p.push(kind.push_span());
            p.extend_from_slice(match kind {
                Kind::Fw | Kind::Acl => &["nf.acl.classify", "packet.lanes.gather"],
                Kind::Router | Kind::Lpm => &[
                    "nf.lpm.lookup8",
                    "packet.lanes.gather",
                    "packet.lanes.writeback",
                ],
                Kind::Nat => &["packet.lanes.gather", "packet.lanes.writeback"],
                Kind::Lb => &["packet.lanes.gather"],
                Kind::Ids | Kind::Dpi => &["nf.ac.scan"],
                Kind::Ipsec => &["nf.aes.ctr", "nf.hmac.sha1"],
            });
        }
        if self.cached() {
            p.extend([
                "core.flowcache.process",
                "nf.clocktable.get",
                "nf.clocktable.insert",
                "click.trace_flow",
                "packet.flow.key",
                "nf.acl.classify_scalar",
            ]);
        } else {
            p.extend([
                "core.orchestrator.analyze",
                "core.synthesizer.synthesize",
                "core.profiler.measure",
                "core.allocator.allocate_kl",
                "graphpart.kl.partition",
            ]);
        }
        if width > 1 {
            p.extend(["core.orchestrator.merge", "core.engine.par_map"]);
        }
        if self.is_rack() {
            p.extend([
                "packet.traffic.gen",
                "cluster.ring.server_for",
                "packet.batch.split_merge",
            ]);
        }
        p.sort_unstable();
        p.dedup();
        p
    }

    /// Rebalancing as in `benches/cluster_scale.rs`.
    fn cluster_spec(&self, servers: usize) -> ClusterSpec {
        let spec = ClusterSpec::uniform(servers);
        if self.is_rack() {
            spec.with_rebalance(RebalanceConfig {
                epoch_batches: 4,
                imbalance_threshold: 1.10,
                hysteresis_epochs: 1,
                cooldown_epochs: 0,
                vnodes_per_move: 8,
            })
        } else {
            spec
        }
    }
}

/// Engine workers `ExecMode::auto()` resolves to on this host.
pub fn engine_workers() -> usize {
    ExecMode::auto().threads()
}

/// A single-box deployment prepared against its own simulator.
struct SingleBox {
    sim: PipelineSim,
    res: PlatformResources,
    prep: PreparedSfc,
    traffic: TrafficGenerator,
    tel: Telemetry,
    setup_s: f64,
    prepare_s: f64,
}

impl SingleBox {
    /// The body of `Deployment::run`, up to the batch loop. Building the
    /// traffic generator is the harness's own work and is not timed.
    fn build(w: &Workload, seed: u64, v: Variant, rate: f64) -> SingleBox {
        let mut traffic = w
            .traffic(seed, rate)
            .pop()
            .expect("single-box workloads have one phase");
        let t_setup = Instant::now();
        let mut dep = w.configure(Deployment::new(w.chain(), w.policy()), v);
        let tel = Telemetry::new(dep.telemetry.clone());
        let handle = tel.handle();
        let mut sim = PipelineSim::new();
        sim.set_recorder(handle.recorder());
        let res = PlatformResources::register(&mut sim, dep.model());
        let mut user_base = 1u64;
        let t_prepare = Instant::now();
        let prep = dep.prepare(&mut sim, &res, &mut traffic, &[], &mut user_base, &handle);
        SingleBox {
            prepare_s: t_prepare.elapsed().as_secs_f64(),
            setup_s: t_setup.elapsed().as_secs_f64(),
            sim,
            res,
            prep,
            traffic,
            tel,
        }
    }

    fn finish(mut self) -> RunOutcome {
        let handle = self.tel.handle();
        if let Some(rec) = self.sim.take_recorder() {
            handle.absorb(rec);
        }
        let mut outcome = self.prep.into_outcome(self.sim.report());
        outcome.telemetry = self.tel.finish();
        outcome
    }
}

fn digest_batch(d: &mut Fnv64, out: &Batch) {
    d.write_u64(out.len() as u64);
    for p in out.iter() {
        d.write_u64(p.len() as u64);
        d.write(p.data());
    }
}

fn single_counts(ingress_packets: u64, o: &RunOutcome) -> Counts {
    let n = o.stage_offloads.len().max(1) as f64;
    Counts {
        ingress_packets,
        egress_packets: o.egress_packets,
        element_drops: o.stage_stats.iter().map(|s| s.total_dropped()).sum(),
        width: o.width as u64,
        cache_hits: o.flow_cache.hits,
        cache_misses: o.flow_cache.misses,
        cache_evictions: o.flow_cache.evictions,
        offload_ratio_mean: o.stage_offloads.iter().map(|(_, r)| r).sum::<f64>() / n,
        spilled_kernels: o.residency.spilled.len() as u64,
        rebalances: 0,
        migrated_bytes: 0,
    }
}

/// Packet conservation: exact on a sequential chain; with parallel
/// branches a packet can be dropped in more than one branch, so the
/// summed drops only bound the loss from above.
fn conserved(c: &Counts, completed_packets: u64) -> bool {
    let lost = completed_packets.saturating_sub(c.egress_packets);
    c.egress_packets <= completed_packets
        && if c.width <= 1 {
            lost == c.element_drops
        } else {
            lost <= c.element_drops
        }
}

/// Runs one repetition of `w`: a fresh deployment, `batches` batches at
/// `rate` Gbit/s offered on the simulated clock, closed loop on the wall
/// clock. With a ladder, every batch is wrapped in a root span and then
/// replayed through the rungs (the traced repetition).
pub fn repetition(
    w: &Workload,
    seed: u64,
    v: Variant,
    batches: usize,
    rate: f64,
    ladder: Option<&mut Ladder>,
) -> Rep {
    let steal = sys::StealClock::start();
    let mut rep = if w.is_rack() || v == Variant::ClusterN1 {
        rack_repetition(w, seed, v, batches, rate, ladder)
    } else {
        single_repetition(w, seed, v, batches, rate, ladder)
    };
    rep.stolen = steal.stolen_share();
    rep
}

fn single_repetition(
    w: &Workload,
    seed: u64,
    v: Variant,
    batches: usize,
    rate: f64,
    mut ladder: Option<&mut Ladder>,
) -> Rep {
    let mut sb = SingleBox::build(w, seed, v, rate);
    let mut digest = Fnv64::default();
    let mut call_ns = Vec::with_capacity(batches);
    let (mut busy_s, mut cpu_s) = (0.0f64, 0.0f64);
    let (mut ingress_packets, mut completed_packets) = (0u64, 0u64);
    let batch_bytes = w.batch as f64 * sb.traffic.spec().size.mean();
    let chunk = ((CHUNK_BYTES / batch_bytes) as usize).clamp(1, CHUNK);
    let mut done = 0usize;
    while done < batches {
        let n = chunk.min(batches - done);
        // Untimed: draw the chunk (and, when tracing, the replay copies).
        let chunk: Vec<Batch> = match ladder.as_deref_mut() {
            Some(l) => l.generate(&mut sb.traffic, n, w.batch, None),
            None => (0..n).map(|_| sb.traffic.batch(w.batch)).collect(),
        };
        let replays: Vec<Batch> = if ladder.is_some() {
            chunk.to_vec()
        } else {
            Vec::new()
        };
        let mut results = Vec::with_capacity(n);
        let mut roots = Vec::with_capacity(replays.len());
        // Timed: nothing but `process_batch`, closed loop.
        let cpu0 = sys::cpu_time_s();
        for (i, batch) in chunk.into_iter().enumerate() {
            let packets = batch.len() as u64;
            let t = Instant::now();
            let r = match ladder.as_deref_mut() {
                Some(l) => {
                    let (r, root) = l.tracer.time(
                        "core.runtime.process_batch",
                        Some((done + i) as u32),
                        None,
                        || sb.prep.process_batch(&mut sb.sim, &sb.res, batch),
                    );
                    roots.push(root);
                    r
                }
                None => sb.prep.process_batch(&mut sb.sim, &sb.res, batch),
            };
            let ns = t.elapsed().as_nanos() as f64;
            busy_s += ns / 1e9;
            call_ns.push(ns);
            results.push((packets, r));
        }
        cpu_s += sys::cpu_time_s() - cpu0;
        // Untimed: account, digest, replay.
        for (packets, r) in results {
            ingress_packets += packets;
            match r {
                BatchResult::Completed {
                    mean_arrival,
                    completed,
                    out,
                } => {
                    completed_packets += packets;
                    sb.sim
                        .record_completion(mean_arrival, completed, out.len(), out.total_bytes());
                    digest_batch(&mut digest, &out);
                }
                BatchResult::Dropped { mean_arrival } => sb.sim.record_drop(mean_arrival),
            }
        }
        if let Some(l) = ladder.as_deref_mut() {
            for (i, (replay, root)) in replays.into_iter().zip(roots).enumerate() {
                l.replay((done + i) as u32, replay, root);
            }
        }
        done += n;
    }
    let outcome = sb.finish();
    let counts = single_counts(ingress_packets, &outcome);
    Rep {
        busy_s,
        cpu_s,
        call_ns,
        completed_packets,
        attempted: batches as u64,
        digest: digest.finish(),
        conserved: conserved(&counts, completed_packets),
        sim: SimFacts::of(&outcome.report),
        counts,
        stolen: 0.0,
    }
}

fn digest_cluster(o: &ClusterOutcome) -> u64 {
    let mut d = Fnv64::default();
    d.write_u64(o.egress_packets);
    d.write_u64(o.egress_bytes);
    for s in &o.per_server {
        d.write_u64(s.egress_packets);
        d.write_u64(s.egress_bytes);
        for g in &s.stage_stats {
            d.write(format!("{g:?}").as_bytes());
        }
    }
    for r in &o.shard_map {
        d.write_u64(r.start);
        d.write_u64(r.end);
        d.write_u64(u64::from(r.server));
    }
    d.finish()
}

/// The rack workload (or, with `cluster_n1`, any workload's chain behind
/// a one-server cluster). The harness cannot drive batches itself here:
/// the timed region is the one `run_phased` / `run` call — traffic
/// generation and the servers' `prepare` included — and the ladder runs
/// afterwards on the same seed's regenerated traffic.
fn rack_repetition(
    w: &Workload,
    seed: u64,
    v: Variant,
    batches: usize,
    rate: f64,
    ladder: Option<&mut Ladder>,
) -> Rep {
    let mut phases = w.traffic(seed, rate);
    let per_phase = batches / phases.len();
    let attempted = (per_phase * phases.len()) as u64;
    let mut cluster = build_cluster(w, v);
    let cpu0 = sys::cpu_time_s();
    let (outcome, busy_s, cpu_s) = match ladder {
        None => {
            let t = Instant::now();
            let o = run_cluster(&mut cluster, &mut phases, per_phase);
            (o, t.elapsed().as_secs_f64(), sys::cpu_time_s() - cpu0)
        }
        Some(l) => {
            let (o, root) = l.tracer.time("core.runtime.process_batch", None, None, || {
                run_cluster(&mut cluster, &mut phases, per_phase)
            });
            let cpu_s = sys::cpu_time_s() - cpu0;
            // The ladder: regenerate the same traffic and time the rungs.
            let mut idx = 0u32;
            for mut gen in w.traffic(seed, rate) {
                let mut left = per_phase;
                while left > 0 {
                    let n = CHUNK.min(left);
                    let inside = Some(root).filter(|_| w.is_rack());
                    for batch in l.generate(&mut gen, n, w.batch, inside) {
                        l.replay(idx, batch, root);
                        idx += 1;
                    }
                    left -= n;
                }
            }
            (o, l.tracer.dur_ns(root) as f64 / 1e9, cpu_s)
        }
    };
    let ingress_packets = attempted * w.batch as u64;
    let element_drops = outcome
        .per_server
        .iter()
        .flat_map(|s| s.stage_stats.iter())
        .map(|g| g.total_dropped())
        .sum();
    let sim = SimFacts::of(&outcome.report);
    let width = outcome.per_server.first().map_or(1, |s| s.width as u64);
    let counts = Counts {
        ingress_packets,
        egress_packets: outcome.egress_packets,
        element_drops,
        width,
        rebalances: outcome.rebalances,
        migrated_bytes: outcome.migrated_bytes,
        ..single_counts(ingress_packets, &outcome.per_server[0])
    };
    // Tail-dropped sub-batches never reach an element, so conservation
    // is asserted only when the simulator dropped nothing.
    let conserved = sim.dropped > 0 || conserved(&counts, ingress_packets);
    Rep {
        busy_s,
        cpu_s,
        call_ns: vec![busy_s * 1e9 / attempted.max(1) as f64],
        completed_packets: ingress_packets,
        attempted,
        digest: digest_cluster(&outcome),
        conserved,
        sim,
        counts,
        stolen: 0.0,
    }
}

fn build_cluster(w: &Workload, v: Variant) -> ClusterDeployment {
    let servers = if v == Variant::ClusterN1 { 1 } else { 8 };
    ClusterDeployment::build(w.cluster_spec(servers), &w.chain(), w.policy(), |d| {
        w.configure(d, v)
    })
}

fn run_cluster(
    cluster: &mut ClusterDeployment,
    phases: &mut [TrafficGenerator],
    per_phase: usize,
) -> ClusterOutcome {
    if phases.len() == 1 {
        cluster.run(&mut phases[0], per_phase)
    } else {
        cluster.run_phased(phases, per_phase)
    }
}

/// One fresh build with nothing run through it: `(setup_s, prepare_s)` —
/// chain construction (ACL synthesis, DIR-24-8 build, AC automaton) +
/// `Deployment::prepare`, and the `prepare` share of it. The harness
/// calls this once per fresh child process: the tables are megabytes, so
/// whether the allocator recycles them or faults in new pages decides
/// the time, and a user's set-up runs on new pages. For the rack,
/// `run_phased` over zero batches stands in for the eight servers'
/// `prepare`, which cannot be reached from outside.
pub fn setup_only(w: &Workload, seed: u64) -> (f64, f64) {
    if w.is_rack() {
        let mut phases = w.traffic(seed, w.rate_gbps);
        let t = Instant::now();
        let mut cluster = build_cluster(w, Variant::Default);
        let t_prepare = Instant::now();
        black_box(cluster.run_phased(&mut phases, 0));
        (t.elapsed().as_secs_f64(), t_prepare.elapsed().as_secs_f64())
    } else {
        let sb = SingleBox::build(w, seed, Variant::Default, w.rate_gbps);
        (sb.setup_s, sb.prepare_s)
    }
}

/// The saturation pass: `SATURATION_BATCHES` batches offered at
/// `SATURATION_FACTOR` × the nominal rate; what gets through is
/// `sim_capacity_gbps` (the paper's method).
pub fn saturation(w: &Workload, seed: u64) -> SimFacts {
    repetition(
        w,
        seed,
        Variant::Default,
        SATURATION_BATCHES,
        w.rate_gbps * SATURATION_FACTOR,
        None,
    )
    .sim
}

// ---------------------------------------------------------------------
// The per-layer ladder
// ---------------------------------------------------------------------

/// A standalone instance of one NF, outside any deployment.
struct Standalone {
    span: &'static str,
    entry: NodeId,
    run: CompiledGraph,
    /// Present on the cached workloads' path, where the runtime calls
    /// `StageFlowCache::process` instead of `push_merged`.
    cache: Option<StageFlowCache>,
}

impl Standalone {
    fn new(kind: Kind, size: usize, cached: bool) -> Standalone {
        let nf = kind.build(format!("{kind:?}").to_lowercase(), size);
        let run = nf
            .graph()
            .clone()
            .compile()
            .expect("catalog graphs compile");
        // As `prepare` does: a cache only where the graph can use one.
        let cache =
            (cached && run.flow_cacheable()).then(|| StageFlowCache::new(CACHE_CAPACITY, &run));
        Standalone {
            span: if cache.is_some() {
                "core.flowcache.process"
            } else {
                kind.push_span()
            },
            entry: nf.entry(),
            run,
            cache,
        }
    }

    fn push(&mut self, batch: Batch) -> Batch {
        match self.cache.as_mut() {
            Some(c) => c.process(&mut self.run, self.entry, batch).out,
            None => self.run.push_merged(self.entry, batch),
        }
    }
}

/// The ladder of one workload: standalone instances of everything its
/// `process_batch` runs (the *path* rungs, replayed for every batch as
/// children of the root span) plus the kernels and every NF kind not on
/// its path (the *sampled* rungs — reference costs on this workload's
/// traffic, on which the prediction is "moves nothing here").
pub struct Ladder {
    /// The spans.
    pub tracer: Tracer,
    /// Work units behind each span name (packets, bytes, calls, builds),
    /// so a metric is `total ns ÷ work`.
    pub work: BTreeMap<&'static str, f64>,
    /// Span names that are on this workload's path.
    pub on_path: Vec<&'static str>,
    /// `ClockTable` evictions over the workload's key stream.
    pub clock_evictions: u64,
    /// Σ `Objective::cost` of the KL partitions in the set-up ladder.
    pub kl_cost: f64,
    width: usize,
    rack: bool,
    branches: Vec<Vec<Standalone>>,
    references: Vec<Standalone>,
    stride: u32,
    acl: AclTable,
    lpm: Dir24_8,
    ac: AhoCorasick,
    aes: Aes128,
    sa: IpsecSa,
    clock: ClockTable<FlowKey, u32>,
    ring: HashRing,
    tracer_graph: Standalone,
}

impl Ladder {
    /// Builds the ladder for `w`, whose traced repetition will replay
    /// `batches` batches.
    pub fn new(w: &Workload, batches: usize) -> Ladder {
        let sfc = w.chain();
        let reorg = w.reorg(&sfc);
        let spec = w.chain_spec();
        let cached = w.cached();
        let branches: Vec<Vec<Standalone>> = reorg
            .branches()
            .iter()
            .map(|b| {
                b.iter()
                    .map(|&i| Standalone::new(spec[i].0, spec[i].1, cached))
                    .collect()
            })
            .collect();
        let width = branches.len();
        // Every push rung (and the cache rung) that is not replayed as a
        // path rung gets an off-path reference instance, fed the ingress
        // batch.
        let replayed: Vec<&'static str> = branches.iter().flatten().map(|s| s.span).collect();
        let mut references: Vec<Standalone> = Kind::ALL
            .iter()
            .filter(|(k, _)| !replayed.contains(&k.push_span()))
            .map(|&(k, size)| Standalone::new(k, size, false))
            .collect();
        if !replayed.contains(&"core.flowcache.process") {
            references.push(Standalone::new(Kind::Acl, 1000, true));
        }
        let acl_rules = spec
            .iter()
            .find(|(k, _)| matches!(k, Kind::Fw | Kind::Acl))
            .map_or(256, |&(_, size)| size);
        let lpm_routes = spec
            .iter()
            .find(|(k, _)| matches!(k, Kind::Router | Kind::Lpm))
            .map_or(4096, |&(_, size)| size);
        let sa = IpsecSa::example();
        Ladder {
            tracer: Tracer::default(),
            work: BTreeMap::new(),
            on_path: w.path_spans(width),
            clock_evictions: 0,
            kl_cost: 0.0,
            width,
            rack: w.is_rack(),
            branches,
            references,
            stride: (batches / SAMPLED_BATCHES).max(1) as u32,
            acl: AclTable::new(synth::generate(acl_rules, RULE_SEED), Action::Allow),
            lpm: Dir24_8::from_routes(&synth_routes_v4(lpm_routes, ROUTE_SEED), 20),
            ac: AhoCorasick::new(Nf::default_ids_signatures()),
            aes: Aes128::new(&sa.aes_key),
            sa,
            clock: ClockTable::with_capacity(CACHE_CAPACITY),
            ring: HashRing::new(8, 64),
            tracer_graph: Standalone::new(Kind::Acl, 1000, false),
        }
    }

    /// Times `f` as one span of `name` that did `work` units of work;
    /// returns its result and the span's index.
    fn rung<R>(
        &mut self,
        name: &'static str,
        batch: Option<u32>,
        parent: Option<usize>,
        work: f64,
        f: impl FnOnce(&mut Ladder) -> R,
    ) -> (R, usize) {
        // The closure needs the ladder's instances while the tracer
        // records, so the tracer is moved out for the duration.
        let mut tracer = std::mem::take(&mut self.tracer);
        let (r, idx) = tracer.time(name, batch, parent, || f(self));
        self.tracer = tracer;
        *self.work.entry(name).or_default() += work;
        (r, idx)
    }

    /// Draws `n` batches inside a `packet.traffic.gen` span. `parent` is
    /// the root span where generation is inside the timed call (the
    /// rack), `None` where the harness generates untimed.
    fn generate(
        &mut self,
        gen: &mut TrafficGenerator,
        n: usize,
        batch: usize,
        parent: Option<usize>,
    ) -> Vec<Batch> {
        let work = (n * batch) as f64;
        self.rung("packet.traffic.gen", None, parent, work, |_| {
            (0..n).map(|_| gen.batch(batch)).collect()
        })
        .0
    }

    /// Replays one ingress batch through the ladder. The path rungs —
    /// what `process_batch` itself runs, in its order — are children of
    /// `root`, so the root's self time is what the runtime costs beyond
    /// them; everything else hangs under the push it explains or under
    /// nothing.
    fn replay(&mut self, idx: u32, ingress: Batch, root: usize) {
        let b = Some(idx);
        let on = Some(root);
        let packets = ingress.len() as f64;
        let sampled = idx.is_multiple_of(self.stride);
        let mut ingress = ingress;

        if self.rack {
            let hashes: Vec<u32> = ingress.iter().map(|p| p.meta.flow_hash).collect();
            self.ring_rung(b, on, &hashes);
            self.split_merge_rung(b, on, ingress.clone());
        }
        // The runtime gathers the lanes once at ingress when CoW
        // branches will share them; a single branch gathers inside its
        // first header element, i.e. inside its push rung.
        let lanes = (sampled || self.width > 1).then(|| {
            let parent = on.filter(|_| self.width > 1);
            self.rung("packet.lanes.gather", b, parent, packets, |_| {
                HeaderLanes::gather(&ingress)
            })
            .0
        });
        if self.width > 1 {
            ingress.shared_lanes();
        }
        let width = self.width;
        let (copies, _) = self.rung(
            "packet.batch.cow_clone",
            b,
            on,
            packets * width as f64,
            |_| (0..width).map(|_| ingress.clone()).collect::<Vec<Batch>>(),
        );
        let mut pushes: Vec<(&'static str, usize)> = Vec::new();
        let mut outputs = Vec::with_capacity(width);
        for (bi, mut cur) in copies.into_iter().enumerate() {
            for si in 0..self.branches[bi].len() {
                let span = self.branches[bi][si].span;
                let n = cur.len() as f64;
                let (out, at) = self.rung(span, b, on, n, |l| l.branches[bi][si].push(cur));
                pushes.push((span, at));
                cur = out;
            }
            outputs.push(cur);
        }
        if width > 1 {
            self.rung("core.orchestrator.merge", b, on, packets, |_| {
                black_box(merge_branch_batches(&ingress, &outputs))
            });
        }

        // `nf.clocktable.*` sees the whole key stream (hit ratio and
        // evictions depend on it); two passes so that each timed loop
        // holds one kind of operation.
        let keys: Vec<FlowKey> = ingress.iter().filter_map(|p| FlowKey::of(p).ok()).collect();
        let (missed, _) = self.rung("nf.clocktable.get", b, None, keys.len() as f64, |l| {
            keys.iter()
                .filter(|k| l.clock.get(u64::from(k.hash()), k).is_none())
                .copied()
                .collect::<Vec<FlowKey>>()
        });
        if !missed.is_empty() {
            self.rung("nf.clocktable.insert", b, None, missed.len() as f64, |l| {
                for k in &missed {
                    l.clock.insert(u64::from(k.hash()), *k, 0);
                }
            });
        }
        self.clock_evictions = self.clock.counters().evictions;

        if let Some(lanes) = lanes.filter(|_| sampled) {
            self.sampled_rungs(b, &pushes, &ingress, &lanes);
        }
    }

    fn ring_rung(&mut self, b: Option<u32>, parent: Option<usize>, hashes: &[u32]) {
        self.rung(
            "cluster.ring.server_for",
            b,
            parent,
            hashes.len() as f64,
            |l| {
                for &h in hashes {
                    black_box(l.ring.server_for(h));
                }
            },
        );
    }

    fn split_merge_rung(&mut self, b: Option<u32>, parent: Option<usize>, copy: Batch) {
        let n = copy.len() as f64;
        self.rung("packet.batch.split_merge", b, parent, n, |_| {
            let parts = copy.split_by(8, |_, p| (p.meta.flow_hash % 8) as usize);
            black_box(Batch::merge_ordered(parts));
        });
    }

    /// Kernels on the batch's own columns and payloads (children of the
    /// push they run inside, so that the push's self time is the graph
    /// dispatch cost), the header micro-rungs, and a push through every
    /// off-path NF kind.
    fn sampled_rungs(
        &mut self,
        b: Option<u32>,
        pushes: &[(&'static str, usize)],
        ingress: &Batch,
        lanes: &HeaderLanes,
    ) {
        let inside = |spans: &[&str]| {
            pushes
                .iter()
                .find(|(s, _)| spans.contains(s))
                .map(|&(_, at)| at)
        };
        let packets = ingress.len() as f64;
        let acl_push = inside(&["click.push.fw", "click.push.acl"]);
        self.rung("nf.acl.classify", b, acl_push, packets, |l| {
            black_box(l.acl.classify_v4_batch(
                lanes.src_ip(),
                lanes.dst_ip(),
                lanes.src_port(),
                lanes.dst_port(),
                lanes.proto(),
                lanes.tuple_bits(),
            ));
        });
        let tuples: Vec<FiveTuple> = ingress
            .iter()
            .filter_map(|p| FiveTuple::of(p).ok())
            .collect();
        self.rung(
            "nf.acl.classify_scalar",
            b,
            None,
            tuples.len() as f64,
            |l| {
                for t in &tuples {
                    black_box(l.acl.classify(t));
                }
            },
        );
        let dst = lanes.dst_ip();
        let lpm_push = inside(&["click.push.router", "click.push.lpm"]);
        self.rung(
            "nf.lpm.lookup8",
            b,
            lpm_push,
            (dst.len() / 8 * 8) as f64,
            |l| {
                for c in dst.chunks_exact(8) {
                    let addrs: &[u32; 8] = c.try_into().expect("chunks of eight");
                    black_box(l.lpm.lookup8(addrs));
                }
            },
        );
        let mut payloads: Vec<Vec<u8>> = ingress
            .iter()
            .filter_map(|p| p.l4_payload().ok().map(<[u8]>::to_vec))
            .collect();
        let bytes = payloads.iter().map(Vec::len).sum::<usize>() as f64;
        let ac_push = inside(&["click.push.ids", "click.push.dpi"]);
        self.rung("nf.ac.scan", b, ac_push, bytes, |l| {
            for p in &payloads {
                black_box(l.ac.find_all(p));
            }
        });
        let ipsec_push = inside(&["click.push.ipsec"]);
        self.rung("nf.hmac.sha1", b, ipsec_push, bytes, |l| {
            for p in &payloads {
                black_box(hmac_sha1(&l.sa.hmac_key, p));
            }
        });
        self.rung("nf.aes.ctr", b, ipsec_push, bytes, |l| {
            for (i, p) in payloads.iter_mut().enumerate() {
                l.aes.ctr_apply(l.sa.nonce, i as u64, p);
            }
            black_box(&payloads);
        });

        let mut copy = ingress.clone();
        let mut owned = copy.header_lanes();
        self.rung("packet.lanes.writeback", b, None, packets, |_| {
            black_box(owned.dec_ttl_ipv4());
            owned.write_back(&mut copy);
        });
        // A clone taken before anything asked for a flow key: cold memo.
        let mut cold = ingress.clone();
        self.rung("packet.flow.key", b, None, packets, |_| {
            for p in cold.iter_mut() {
                black_box(p.flow_key().ok());
            }
        });
        self.rung("click.trace_flow", b, None, packets, |l| {
            for p in ingress.iter() {
                black_box(l.tracer_graph.run.trace_flow(l.tracer_graph.entry, p));
            }
        });
        if !self.rack {
            let hashes: Vec<u32> = ingress.iter().map(|p| p.meta.flow_hash).collect();
            self.ring_rung(b, None, &hashes);
            self.split_merge_rung(b, None, ingress.clone());
        }
        if self.width == 1 {
            let copies = [ingress.clone(), ingress.clone()];
            self.rung("core.orchestrator.merge", b, None, packets, |_| {
                black_box(merge_branch_batches(ingress, &copies));
            });
        }
        for i in 0..self.references.len() {
            let (span, copy) = (self.references[i].span, ingress.clone());
            self.rung(span, b, None, packets, |l| {
                black_box(l.references[i].push(copy));
            });
        }
    }

    /// The set-up ladder and the call-cost micro-loops; none of it has a
    /// batch, so the spans carry no batch index.
    pub fn setup_and_micro(&mut self, w: &Workload, seed: u64) {
        for _ in 0..SETUP_LADDER_BUILDS {
            self.setup_ladder(w, seed);
        }
        let mode = ExecMode::auto();
        const PAR_CALLS: usize = 300;
        self.rung("core.engine.par_map", None, None, PAR_CALLS as f64, |_| {
            for _ in 0..PAR_CALLS {
                black_box(par_map(mode, vec![0u8; 4], |i, x| i + usize::from(x)));
            }
        });
        // One resource scheduled `w.batches` times: the simulator keeps
        // every committed interval, so the cost per call depends on the
        // repetition length and is measured at it.
        let calls = w.batches.max(1);
        self.rung("hetero.sim.schedule", None, None, calls as f64, |_| {
            let mut sim = PipelineSim::new();
            let r = sim.add_resource("bench", 0.0);
            for i in 0..calls {
                black_box(sim.schedule_span(r, i as f64 * 1000.0, 500.0, 0));
            }
        });
        const PROBES: usize = 2_000_000;
        self.rung("telemetry.off_probe", None, None, PROBES as f64, |_| {
            let rec = Recorder::disabled();
            let mut fired = 0u64;
            for _ in 0..PROBES {
                let t = black_box(&rec).start();
                if black_box(&rec).is_enabled() {
                    fired += t;
                }
            }
            black_box(fired);
        });
        let signatures = record_signatures(w, seed);
        const OBSERVE_ROUNDS: usize = 2000;
        let calls = OBSERVE_ROUNDS * signatures.len();
        self.rung(
            "control.controller.observe",
            None,
            None,
            calls as f64,
            |_| {
                let mut controller = Controller::new(ControllerConfig::default());
                for _ in 0..OBSERVE_ROUNDS {
                    for s in &signatures {
                        black_box(controller.observe(s.clone()));
                    }
                }
            },
        );
    }

    /// `analyze` → `synthesize` → `measure` → `allocate` → `kl`/`agglo`
    /// on standalone copies of the chain's NFs, one span each.
    fn setup_ladder(&mut self, w: &Workload, seed: u64) {
        let sfc = w.chain();
        let (reorg, _) = self.rung("core.orchestrator.analyze", None, None, 1.0, |_| {
            ReorgSfc::analyze(&sfc, 4)
        });
        // Synthesis runs on branches of more than one NF; a chain without
        // one synthesizes the whole chain as the off-path reference.
        let multi: Vec<Vec<&Nf>> = reorg
            .branches()
            .iter()
            .filter(|b| b.len() > 1)
            .map(|b| b.iter().map(|&i| &sfc.nfs()[i]).collect())
            .collect();
        let groups = if multi.is_empty() {
            vec![sfc.nfs().iter().collect::<Vec<&Nf>>()]
        } else {
            multi
        };
        self.rung("core.synthesizer.synthesize", None, None, 1.0, |_| {
            for g in &groups {
                black_box(synthesize(g));
            }
        });
        // Warm-up traffic so the profiler has statistics, as `prepare`
        // does (4 batches), untimed here.
        let mut gen = w.traffic(seed, w.rate_gbps).remove(0);
        let warm: Vec<Batch> = (0..4).map(|_| gen.batch(w.batch)).collect();
        let model = CostModel::new(PlatformConfig::hpca18());
        let objective = Objective::default();
        // Each NF is its share of one build, so that a metric is the
        // cost of the whole chain per fresh build.
        let share = 1.0 / sfc.len().max(1) as f64;
        self.kl_cost = 0.0;
        for nf in sfc.nfs() {
            let mut run = nf
                .graph()
                .clone()
                .compile()
                .expect("catalog graphs compile");
            for b in &warm {
                run.push_merged(nf.entry(), b.clone());
            }
            let (weights, _) = self.rung("core.profiler.measure", None, None, share, |_| {
                Profiler::new(model, GpuMode::Persistent).measure(&run)
            });
            self.rung("core.allocator.allocate_kl", None, None, share, |_| {
                black_box(allocate(nf.graph(), &weights, PartitionAlgo::Kl, 0.1));
            });
            self.rung("core.allocator.allocate_agglo", None, None, share, |_| {
                black_box(allocate(
                    nf.graph(),
                    &weights,
                    PartitionAlgo::Agglomerative,
                    0.1,
                ));
            });
            let exp = Expansion::expand(nf.graph(), &weights, 0.1);
            let (part, _) = self.rung("graphpart.kl.partition", None, None, share, |_| {
                kl::partition(&exp.part, kl::KlOptions::default())
            });
            self.kl_cost += objective.cost(&exp.part, &part);
            // GPU-side seeds only, as `allocate` seeds the agglomerative
            // partitioner.
            let seeds: Vec<_> = agglomerative::default_seeds(&exp.part)
                .into_iter()
                .filter(|s| s.side == Side::Gpu)
                .collect();
            self.rung("graphpart.agglo.partition", None, None, share, |_| {
                black_box(agglomerative::partition(&exp.part, &seeds, objective));
            });
        }
    }
}

/// Epoch signatures recorded from a short single-box pass of the chain
/// (4 epochs of 8 batches), for the `Controller::observe` micro-loop.
fn record_signatures(w: &Workload, seed: u64) -> Vec<WorkloadSignature> {
    let mut sb = SingleBox::build(w, seed, Variant::Default, w.rate_gbps);
    let mut out = Vec::new();
    for _ in 0..4 {
        for _ in 0..8 {
            let batch = sb.traffic.batch(w.batch);
            black_box(sb.prep.process_batch(&mut sb.sim, &sb.res, batch));
        }
        out.push(sb.prep.epoch_signature(w.batch, 0.0));
        sb.prep.snapshot_window();
    }
    out
}
