//! The NFCompass execution engine and the baseline deployment policies.
//!
//! A [`Deployment`] runs a [`Sfc`] under a [`Policy`] with a *two-layer*
//! execution model:
//!
//! * **Functional layer** — every batch really flows through the NFs'
//!   element graphs (packets are encrypted, matched, rewritten, dropped;
//!   parallel branches are duplicated and XOR-merged), so outputs are
//!   real and per-element traffic statistics are measured, not assumed.
//! * **Temporal layer** — each batch's processing is scheduled on the
//!   simulated heterogeneous platform ([`PipelineSim`]): per-NF CPU core
//!   sets, GPU command queues with launch/persistent dispatch costs and
//!   context switches, PCIe DMA, batch split/merge re-organization
//!   overheads, and cache co-run interference.
//!
//! Policies reproduce the paper's comparison points: `CpuOnly` is the
//! FastClick-like batched CPU baseline, `NbaAdaptive` mimics NBA's
//! per-NF adaptive offloading (launch-per-batch kernels, local optima,
//! no SFC re-organization), `Optimal` stands in for the paper's manual
//! Optimal with an 11-point uniform-ratio search (one ratio for every
//! offloadable element) ranked by [`stage_cost`], and `NfCompass`
//! applies chain parallelization, NF synthesis, graph-partition
//! allocation and persistent kernels. Every plan is priced by the
//! [`Pricing::charge`] this module charges each batch.

use crate::allocator::{
    adapt_ratios, allocate_traced, allocate_warm_traced, stage_cost, AllocationPlan, Charge,
    PartitionAlgo, Pricing,
};
use crate::engine::{par_map_traced, ExecMode, UnitCosts};
use crate::flowcache::{FlowCacheMode, StageFlowCache};
use crate::observe::{BatchTimeline, Observer, StageSpan};
use crate::orchestrator::{merge_branch_batches, ReorgSfc};
use crate::profiler::GraphWeights;
use crate::sfc::Sfc;
use crate::synthesizer::{synthesize, SynthesisReport};
use nfc_click::{CompiledGraph, GraphStats, KernelClass, Offload};
use nfc_control::{
    Action, AdaptationRecord, Controller, ControllerConfig, ControllerReport, HealthSignal,
    StageSignature, WorkloadSignature,
};
use nfc_hetero::{
    calib, residency, CoRunContext, CostModel, GpuMode, PipelineSim, PlatformConfig, ResourceId,
    SimReport,
};
use nfc_nf::flowcache::CacheCounters;
use nfc_nf::Nf;
use nfc_packet::traffic::TrafficGenerator;
use nfc_packet::Batch;
use nfc_telemetry::{
    EventKind, FlowSampler, Recorder, SloSpec, Telemetry, TelemetryHandle, TelemetryMode,
    TelemetrySummary,
};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::Instant;

/// How a deployment schedules work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// All work on CPU cores, batched (FastClick-like baseline).
    CpuOnly,
    /// Every offloadable element fully offloaded.
    GpuOnly {
        /// Kernel dispatch mode.
        mode: GpuMode,
    },
    /// One uniform offload ratio for every offloadable element.
    FixedRatio {
        /// Fraction offloaded, 0–1.
        ratio: f64,
        /// Kernel dispatch mode.
        mode: GpuMode,
    },
    /// NBA-like per-NF adaptive offloading: the 11 uniform ratios of
    /// `Optimal` ranked by [`stage_cost`] per NF, launch-per-batch
    /// kernels, no SFC re-organization.
    NbaAdaptive,
    /// Stands in for the paper's "Optimal" (upper baseline of Figure
    /// 15): the best of 11 uniform offload ratios by [`stage_cost`], one
    /// ratio applied to every offloadable element, with persistent
    /// kernels.
    Optimal,
    /// SFC re-organization only, with a forced uniform offload ratio —
    /// the paper's §V-B setup ("We disable our graph-partition based
    /// task allocation in this part"): CPU-only platform = `ratio` 0,
    /// GPU-only platform = `ratio` 1.
    ReorgOnly {
        /// Maximum parallel branches.
        max_branches: usize,
        /// Whether branches are synthesized.
        synthesize: bool,
        /// Uniform offload ratio on offloadable elements.
        ratio: f64,
        /// Kernel dispatch mode.
        mode: GpuMode,
    },
    /// Full NFCompass: SFC parallelization, NF synthesis, graph-partition
    /// allocation, persistent kernels.
    NfCompass {
        /// Partitioning algorithm.
        algo: PartitionAlgo,
        /// Maximum parallel branches for the orchestrator.
        max_branches: usize,
        /// Whether the NF synthesizer merges sequential runs.
        synthesize: bool,
    },
}

impl Policy {
    /// The default NFCompass configuration (KL, up to 4 branches,
    /// synthesis on).
    pub fn nfcompass() -> Self {
        Policy::NfCompass {
            algo: PartitionAlgo::Kl,
            max_branches: 4,
            synthesize: true,
        }
    }

    fn gpu_mode(&self) -> GpuMode {
        match self {
            Policy::CpuOnly => GpuMode::Persistent, // unused
            Policy::GpuOnly { mode }
            | Policy::FixedRatio { mode, .. }
            | Policy::ReorgOnly { mode, .. } => *mode,
            Policy::NbaAdaptive => GpuMode::LaunchPerBatch,
            Policy::Optimal | Policy::NfCompass { .. } => GpuMode::Persistent,
        }
    }

    /// The `algo` label of the policy's `partition_decision` events, one
    /// of [`nfc_telemetry::PARTITION_ALGOS`].
    fn algo_label(&self) -> &'static str {
        match self {
            Policy::CpuOnly => "cpu-only",
            Policy::GpuOnly { .. } => "gpu-only",
            Policy::FixedRatio { .. } => "fixed-ratio",
            Policy::ReorgOnly { .. } => "reorg-fixed-ratio",
            Policy::NbaAdaptive => "nba-adaptive",
            Policy::Optimal => "grid-search",
            Policy::NfCompass { algo, .. } => algo.label(),
        }
    }

    /// Short label for experiment tables.
    pub fn label(&self) -> String {
        match self {
            Policy::CpuOnly => "CPU-only".into(),
            Policy::GpuOnly { .. } => "GPU-only".into(),
            Policy::FixedRatio { ratio, .. } => format!("{:.0}% offload", ratio * 100.0),
            Policy::ReorgOnly {
                max_branches,
                synthesize,
                ratio,
                ..
            } => format!(
                "Reorg(w{max_branches}{}{}%)",
                if *synthesize { "+synth," } else { "," },
                ratio * 100.0
            ),
            Policy::NbaAdaptive => "NBA".into(),
            Policy::Optimal => "Optimal".into(),
            Policy::NfCompass { algo, .. } => format!("NFCompass({algo:?})"),
        }
    }
}

/// Simulated platform resources shared by every SFC deployed on the
/// machine: RX/TX I/O cores, GPU command queues (with context-switch
/// penalties), and the PCIe DMA links.
#[derive(Debug, Clone)]
pub struct PlatformResources {
    /// Ingress I/O core.
    pub io_rx: ResourceId,
    /// Egress I/O core.
    pub io_tx: ResourceId,
    /// GPU command queues (one per device).
    pub gpu_queues: Vec<ResourceId>,
    /// Host-to-device DMA link.
    pub pcie_h2d: ResourceId,
    /// Device-to-host DMA link.
    pub pcie_d2h: ResourceId,
}

impl PlatformResources {
    /// Registers the platform's shared resources with `sim`.
    pub fn register(sim: &mut PipelineSim, model: &CostModel) -> Self {
        // Separate RX and TX I/O cores (the paper's Figure 3 runs packet
        // I/O threads on their own cores); sharing one resource would
        // falsely serialize ingress behind egress.
        let io_rx = sim.add_resource("io-rx", 0.0);
        let io_tx = sim.add_resource("io-tx", 0.0);
        let gpu_queues = (0..model.platform().gpu.count)
            .map(|i| sim.add_resource(format!("gpu{i}"), model.gpu_ctx_switch_ns))
            .collect();
        let pcie_h2d = sim.add_resource("pcie-h2d", 0.0);
        let pcie_d2h = sim.add_resource("pcie-d2h", 0.0);
        PlatformResources {
            io_rx,
            io_tx,
            gpu_queues,
            pcie_h2d,
            pcie_d2h,
        }
    }
}

/// One executable NF stage (a possibly-synthesized NF bound to resources).
pub(crate) struct StageExec {
    nf: Nf,
    pub(crate) run: CompiledGraph,
    weights: Option<GraphWeights>,
    plan: AllocationPlan,
    cpu_res: ResourceId,
    user: u64,
    /// The stage's model, co-runners and effective dispatch mode: the
    /// policy's mode, downgraded to launch-per-batch when the
    /// SM-residency pass spills this stage.
    pricing: Pricing,
    /// Flow-aware fast path, present iff the deployment enables it and
    /// this stage's graph is fully verdict-capable.
    pub(crate) flow_cache: Option<StageFlowCache>,
    /// SM-slot grant when this stage's persistent kernel is resident.
    residency: Option<ResidencySlot>,
    /// Observation window for the adaptive controller.
    window: StageWindow,
}

/// Per-stage outcome of the SM-residency bin-pack.
#[derive(Debug, Clone, Copy)]
struct ResidencySlot {
    /// Device hosting the persistent kernel.
    device: usize,
    /// Device slot occupancy (%) after packing — what the SM-occupancy
    /// telemetry reports for this kernel's device.
    occupancy_pct: u8,
    /// Kernel-time multiplier from co-residency pressure on the device.
    pressure: f64,
}

/// SM-residency outcome of the persistent-kernel placement pass.
#[derive(Debug, Clone, Default)]
pub struct ResidencyReport {
    /// Stages granted a resident persistent kernel, as
    /// `(stage name, device, SM slots held)`.
    pub resident: Vec<(String, usize, usize)>,
    /// Stages whose kernels did not fit and fell back to
    /// launch-per-batch dispatch.
    pub spilled: Vec<String>,
    /// SM slots per device.
    pub slots_per_device: usize,
    /// Devices available.
    pub devices: usize,
}

impl ResidencyReport {
    /// SM slots held on `device` by resident kernels.
    pub fn device_slots_used(&self, device: usize) -> usize {
        self.resident
            .iter()
            .filter(|(_, d, _)| *d == device)
            .map(|(_, _, s)| s)
            .sum()
    }

    /// True when no device holds more slots than it has — the invariant
    /// the allocator maintains by spilling instead of oversubscribing.
    pub fn within_capacity(&self) -> bool {
        (0..self.devices).all(|d| self.device_slots_used(d) <= self.slots_per_device)
    }
}

/// Outcome of a deployment run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Temporal results (throughput, latency, drops).
    pub report: SimReport,
    /// Packets that left the chain (after all functional drops).
    pub egress_packets: u64,
    /// Wire bytes that left the chain.
    pub egress_bytes: u64,
    /// Parallel width after re-organization.
    pub width: usize,
    /// Effective chain length after re-organization.
    pub effective_length: usize,
    /// Synthesis reports (one per merged branch, empty when synthesis is
    /// off).
    pub synthesis: Vec<SynthesisReport>,
    /// Mean offload ratio per stage, in branch-major order.
    pub stage_offloads: Vec<(String, f64)>,
    /// XOR merge conflicts observed (should be zero).
    pub merge_conflicts: u64,
    /// Per-element traffic statistics per stage, in branch-major order.
    /// Parallel and serial execution must produce identical entries.
    pub stage_stats: Vec<nfc_click::GraphStats>,
    /// Aggregate flow-cache counters over every cache-eligible stage
    /// (all zeros when the fast path is off or no stage qualifies).
    pub flow_cache: CacheCounters,
    /// End-of-run telemetry digest (`None` when telemetry is off). The
    /// digest is observational: every other field of the outcome is
    /// bit-identical with telemetry on or off.
    pub telemetry: Option<TelemetrySummary>,
    /// SM-residency placement in effect at the end of the run (empty
    /// lists under non-persistent dispatch or CPU-only policies).
    pub residency: ResidencyReport,
}

/// A prepared deployment of one SFC under one policy.
pub struct Deployment {
    sfc: Sfc,
    policy: Policy,
    model: CostModel,
    /// Batch size (paper uses 32–1024; default 256).
    pub batch_size: usize,
    /// Warm-up batches used for profiling before allocation.
    pub warmup_batches: usize,
    /// Offload-ratio granularity δ.
    pub delta: f64,
    /// Explicit branch structure overriding the analyzer (the paper's
    /// prescribed Figure 13 configurations). Indices into the chain.
    pub forced_branches: Option<Vec<Vec<usize>>>,
    /// How parallel branches are executed (worker pool vs. serial).
    pub exec_mode: ExecMode,
    /// Flow-aware fast path: cache-eligible stages memoize per-flow
    /// verdicts (egress stays bit-identical either way).
    pub flow_cache: FlowCacheMode,
    /// Telemetry mode for this deployment's runs (default from the
    /// `NFC_TELEMETRY` environment variable; off when unset). Recording
    /// never perturbs determinism: egress, statistics and the simulated
    /// timeline are bit-identical with telemetry on or off.
    pub telemetry: TelemetryMode,
    /// Whether header-only elements sweep SoA header lanes (wide-word
    /// kernels included) — `true` in every deployment. `false` is the
    /// per-packet reference path the differential tests compare against
    /// ([`Deployment::with_lanes`]), not a deployment setting; egress is
    /// bit-identical either way.
    pub lanes: bool,
    /// Service-level objective driving the live health plane (default
    /// from the `NFC_SLO` environment variable; off when unset). When
    /// set, the runtime streams per-batch latencies into mergeable
    /// quantile sketches, evaluates multi-window SLO burn rates and the
    /// cost-model drift watchdog at epoch boundaries, and feeds
    /// breach/drift signals to the adaptive controller. The health plane
    /// is purely observational: egress, statistics and the simulated
    /// timeline are bit-identical with it on or off.
    pub slo: Option<SloSpec>,
    /// Flow-forensics sampling rate (default from the `NFC_FLOW_TRACE`
    /// environment variable; `0` disarms). When armed, flows whose RSS
    /// hash satisfies `hash % rate == 0` are stamped with a
    /// `flow`-category instant at every pipeline touchpoint (ingress,
    /// lane gather, cache hit/miss, stage, kernel, merge, egress — plus
    /// shard/migrate points under the cluster layer), and a bounded
    /// flight recorder keeps copies of flow and health events for
    /// breach-triggered postmortem dumps. The plane arms at
    /// [`Deployment::prepare`], and only with a live telemetry session.
    /// Sampling is a pure function of the hash and the plane is purely
    /// observational: egress, statistics and the simulated timeline are
    /// bit-identical armed or disarmed.
    pub flow_trace: u32,
    /// Flight-recorder dump path stem override (`<stem>.<reason>.json`).
    /// `None` keeps the `NFC_FLIGHT` environment default.
    pub flight_stem: Option<String>,
}

impl Deployment {
    /// Creates a deployment with the paper's platform and defaults.
    pub fn new(sfc: Sfc, policy: Policy) -> Self {
        Self::with_model(sfc, policy, CostModel::new(PlatformConfig::hpca18()))
    }

    /// Creates a deployment with an explicit cost model.
    pub fn with_model(sfc: Sfc, policy: Policy, model: CostModel) -> Self {
        Deployment {
            sfc,
            policy,
            model,
            batch_size: 256,
            warmup_batches: 4,
            delta: 0.1,
            forced_branches: None,
            exec_mode: ExecMode::auto(),
            flow_cache: FlowCacheMode::Off,
            telemetry: TelemetryMode::auto(),
            lanes: true,
            slo: SloSpec::from_env(),
            flow_trace: FlowSampler::from_env().rate(),
            flight_stem: None,
        }
    }

    /// Sets the batch size.
    pub fn with_batch_size(mut self, batch: usize) -> Self {
        self.batch_size = batch.max(1);
        self
    }

    /// Forces an explicit branch structure (overrides dependency
    /// analysis). Use for prescribed configurations like the paper's
    /// Figure 13; the caller asserts merge legality.
    pub fn with_forced_branches(mut self, branches: Vec<Vec<usize>>) -> Self {
        self.forced_branches = Some(branches);
        self
    }

    /// Sets the branch execution mode (serial vs. worker pool). Parallel
    /// and serial execution are bit-identical in both functional output
    /// and simulated timeline; the mode only changes wall-clock cost.
    pub fn with_exec_mode(mut self, mode: ExecMode) -> Self {
        self.exec_mode = mode;
        self
    }

    /// Sets the flow-cache mode (default [`FlowCacheMode::Off`]; this is
    /// the only way to turn the cache on). Cache-off is the differential
    /// baseline: egress and per-element statistics are bit-identical
    /// either way.
    pub fn with_flow_cache(mut self, mode: FlowCacheMode) -> Self {
        self.flow_cache = mode;
        self
    }

    /// Sets the telemetry mode, overriding the `NFC_TELEMETRY`
    /// environment default. Telemetry is purely observational: outcomes
    /// are bit-identical whatever the mode.
    pub fn with_telemetry(mut self, mode: TelemetryMode) -> Self {
        self.telemetry = mode;
        self
    }

    /// `with_lanes(false)` runs every stage on the per-packet reference
    /// path instead of the shipped SoA lane sweeps. It exists for the
    /// configuration-space differential (`tests/reference_differential.rs`),
    /// which requires egress, statistics and the simulated timeline to be
    /// bit-identical either way; it is not a deployment setting.
    pub fn with_lanes(mut self, on: bool) -> Self {
        self.lanes = on;
        self
    }

    /// Arms the health plane with an explicit SLO, overriding the
    /// `NFC_SLO` environment default. Health accounting is purely
    /// observational: egress, statistics and the simulated timeline are
    /// bit-identical with the plane on or off.
    pub fn with_slo(mut self, spec: SloSpec) -> Self {
        self.slo = Some(spec);
        self
    }

    /// Disarms the health plane regardless of `NFC_SLO` (the
    /// differential baseline configuration).
    pub fn without_slo(mut self) -> Self {
        self.slo = None;
        self
    }

    /// Arms per-flow forensics at the given sampling rate (flows whose
    /// RSS hash satisfies `hash % rate == 0` are traced; `0` disarms),
    /// overriding the `NFC_FLOW_TRACE` environment default. Purely
    /// observational: egress, statistics and the simulated timeline are
    /// bit-identical armed or disarmed.
    pub fn with_flow_trace(mut self, rate: u32) -> Self {
        self.flow_trace = rate;
        self
    }

    /// Overrides the flight-recorder dump path stem (dumps land at
    /// `<stem>.<reason>.json`), bypassing the `NFC_FLIGHT` environment
    /// default — hermetic test and CI configuration.
    pub fn with_flight_stem(mut self, stem: impl Into<String>) -> Self {
        self.flight_stem = Some(stem.into());
        self
    }

    /// The policy in effect.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// The chain being deployed.
    pub fn sfc(&self) -> &Sfc {
        &self.sfc
    }

    /// The cost model in effect.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Runs `n_batches` batches from `traffic` through the deployment,
    /// returning functional and temporal results.
    pub fn run(&mut self, traffic: &mut TrafficGenerator, n_batches: usize) -> RunOutcome {
        self.run_collect_inner(traffic, n_batches, false).0
    }

    /// Like [`Deployment::run`], additionally returning every egress
    /// batch in completion order. Used by determinism tests and the
    /// engine benchmark to assert byte-identical output across execution
    /// modes; collection is a CoW refcount bump per packet.
    pub fn run_collect(
        &mut self,
        traffic: &mut TrafficGenerator,
        n_batches: usize,
    ) -> (RunOutcome, Vec<Batch>) {
        self.run_collect_inner(traffic, n_batches, true)
    }

    /// The one-phase, no-controller face of [`Deployment::run_loop`].
    fn run_collect_inner(
        &mut self,
        traffic: &mut TrafficGenerator,
        n_batches: usize,
        collect: bool,
    ) -> (RunOutcome, Vec<Batch>) {
        let phases = std::slice::from_mut(traffic);
        let (mut outcomes, _, egress) = self.run_loop(phases, n_batches, None, collect);
        (outcomes.pop().expect("one phase"), egress)
    }

    /// Runs a sequence of traffic phases on one continuous timeline with
    /// the epoch-based adaptive controller closing the
    /// profile → partition → deploy loop *online* — the paper's answer
    /// to "fast-switching network traffics" (§IV-C3) and the runtime's
    /// only adaptation mechanism: every
    /// [`ControllerConfig::epoch_batches`] batches the runtime condenses
    /// its observation window into a [`WorkloadSignature`]; when the
    /// change detector trips (threshold + hysteresis + cooldown), the
    /// agglomerative fast path re-partitions immediately and the heavier
    /// KL refinement hands off its plan
    /// [`ControllerConfig::refine_latency_epochs`] epochs later. Adopted
    /// plans are applied via the two-phase epoch swap (drain behind the
    /// queue backlog, kernel teardown/cold launch, state migration,
    /// flow-cache generation bump), all charged on the simulated
    /// timeline.
    ///
    /// The caller never tells the runtime where a phase boundary is, no
    /// traffic is ever consumed for re-profiling and no statistics are
    /// reset: adaptation is driven entirely by passive window deltas,
    /// which is what makes the controller *provably loss-free* — with
    /// [`ControllerConfig::disabled`] this method is the differential
    /// oracle (and the static-plan baseline), and as long as neither run
    /// tail-drops, egress and per-element statistics are bit-identical
    /// whatever plans the enabled controller swaps in (plans only move
    /// work between processors on the temporal layer).
    ///
    /// Phase boundaries advance each generator to the previous phase's
    /// traffic clock (not the simulation clock), so the arrival process
    /// is independent of scheduling decisions, and to its next sequence
    /// number, so no ESP number or IV repeats within the run.
    ///
    /// Re-planning requires a partitioned policy: under anything other
    /// than [`Policy::NfCompass`] the controller observes and reports
    /// but never swaps.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty.
    pub fn run_adaptive(
        &mut self,
        phases: &mut [TrafficGenerator],
        n_batches: usize,
        cfg: &ControllerConfig,
    ) -> (Vec<RunOutcome>, ControllerReport) {
        let (outcomes, report, _) = self.run_loop(phases, n_batches, Some(cfg), false);
        (outcomes, report)
    }

    /// Like [`Deployment::run_adaptive`], additionally returning every
    /// egress batch in completion order — the handle the differential
    /// proptest uses to assert byte-identical output against the
    /// disabled-controller oracle.
    pub fn run_adaptive_collect(
        &mut self,
        phases: &mut [TrafficGenerator],
        n_batches: usize,
        cfg: &ControllerConfig,
    ) -> (Vec<RunOutcome>, ControllerReport, Vec<Batch>) {
        self.run_loop(phases, n_batches, Some(cfg), true)
    }

    /// The single-box batch loop behind every `run*` entry point:
    /// `n_batches` per phase, drawn from the phase's generator. Without a
    /// controller there is no epoch cadence at all (no `Epoch` markers,
    /// no signature or snapshot work), so a plain run records exactly
    /// the per-batch events; with one, even a disabled one, the epoch
    /// boundary runs every [`ControllerConfig::epoch_batches`] batches.
    fn run_loop(
        &mut self,
        phases: &mut [TrafficGenerator],
        n_batches: usize,
        cfg: Option<&ControllerConfig>,
        collect: bool,
    ) -> (Vec<RunOutcome>, ControllerReport, Vec<Batch>) {
        assert!(!phases.is_empty(), "need at least one phase");
        let tel = Telemetry::new(self.telemetry.clone());
        let handle = tel.handle();
        let mut sim = PipelineSim::new();
        // Install the simulator's event lane before resources register so
        // every lane name is announced.
        sim.set_recorder(handle.recorder());
        let res = PlatformResources::register(&mut sim, &self.model);
        let mut user_base = 1u64;
        let mut prep = self.prepare(&mut sim, &res, &mut phases[0], &[], &mut user_base, &handle);
        let batch_size = self.batch_size;
        // The fast path is always the O(k log k) agglomerative
        // partitioner; the background refinement uses the policy's own
        // partitioner (KL when the policy already runs agglomerative, so
        // the hand-off genuinely refines).
        let (can_replan, refine_algo) = match self.policy {
            Policy::NfCompass {
                algo: PartitionAlgo::Agglomerative,
                ..
            } => (true, PartitionAlgo::Kl),
            Policy::NfCompass { algo, .. } => (true, algo),
            _ => (false, PartitionAlgo::Kl),
        };
        let mut controller = cfg.map(|c| Controller::new(c.clone()));
        let epoch_batches = cfg.map_or(1, |c| c.epoch_batches.max(1));
        let mut report = ControllerReport::default();
        let mut egress = Vec::new();
        let mut phase_results = Vec::with_capacity(phases.len());
        let mut since_epoch = 0usize;
        let mut now = 0f64;
        let mut traffic_clock = 0u64;
        if controller.is_some() {
            prep.snapshot_window();
        }
        // Each later phase continues the one before it, clock and
        // numbering: a sequence number is an ESP number and IV, and must
        // not repeat.
        let mut next_seq = 0u64;
        for (pi, traffic) in phases.iter_mut().enumerate() {
            if pi > 0 {
                traffic.advance_to(traffic_clock);
                traffic.advance_seq_to(next_seq);
            }
            let mut stats = nfc_hetero::sim::StatsAccumulator::new();
            for _ in 0..n_batches {
                let batch = traffic.batch(batch_size);
                // A generator's arrivals only move forward, and this batch
                // and the epoch boundary after it start every request at or
                // after its first arrival.
                if let Some(p) = batch.get(0) {
                    sim.retire_before(p.meta.arrival_ns as f64);
                }
                match prep.process_batch(&mut sim, &res, batch) {
                    BatchResult::Completed {
                        mean_arrival,
                        completed,
                        out,
                    } => {
                        handle.observe_ns("batch_latency_ns", completed - mean_arrival);
                        now = now.max(completed);
                        stats.record_completion(
                            mean_arrival,
                            completed,
                            out.len(),
                            out.total_bytes(),
                        );
                        if collect {
                            egress.push(out);
                        }
                    }
                    BatchResult::Dropped { mean_arrival } => stats.record_drop(mean_arrival),
                }
                let Some(controller) = controller.as_mut() else {
                    continue;
                };
                since_epoch += 1;
                if since_epoch < epoch_batches {
                    continue;
                }
                since_epoch = 0;
                let sig = prep.epoch_signature(batch_size, sim.backlog_ns(res.pcie_h2d, now));
                // Health signals queued since the last boundary (SLO
                // breaches, raised drift) weigh in beside the workload
                // drift, sharing its hysteresis and cooldown.
                let signals = prep.take_health_signals();
                let action = controller.observe_with_signals(sig, &signals);
                report.epochs = controller.epoch();
                // Epoch boundary marker: delimits per-epoch critical
                // paths in the attribution layer.
                let rec = sim.recorder_mut();
                if rec.is_enabled() {
                    rec.sim_instant(
                        res.io_rx.index() as u32,
                        now,
                        EventKind::Epoch {
                            epoch: controller.epoch(),
                        },
                    );
                }
                let replan = match action {
                    Action::Hold => None,
                    Action::FastRepartition(why) => {
                        report.triggers += 1;
                        Some((PartitionAlgo::Agglomerative, why.summary()))
                    }
                    Action::Refine => {
                        report.refines += 1;
                        Some((refine_algo, "refine".to_string()))
                    }
                };
                if let Some((algo, reason)) = replan {
                    if can_replan
                        && prep.repartition(&mut sim, &res, algo, &reason, now, &mut report)
                    {
                        controller.note_swap();
                    }
                }
                prep.snapshot_window();
            }
            traffic_clock = traffic_clock.max(traffic.now_ns());
            next_seq = next_seq.max(traffic.next_seq());
            phase_results.push((stats, prep.current_offloads()));
        }
        if let Some(rec) = sim.take_recorder() {
            handle.absorb(rec);
        }
        let mut template = prep.into_outcome(SimReport::default());
        // One telemetry session spans the whole multi-phase timeline, so
        // every phase outcome carries the same digest.
        template.telemetry = tel.finish();
        let outcomes = phase_results
            .into_iter()
            .map(|(stats, offloads)| RunOutcome {
                report: stats.report(),
                stage_offloads: offloads,
                ..template.clone()
            })
            .collect();
        (outcomes, report, egress)
    }

    /// Builds the execution structure (re-organization, synthesis,
    /// warm-up, profiling, allocation) against a — possibly shared —
    /// simulator. `extra_corun` adds co-located NFs from *other* tenants
    /// to every stage's interference context; `user_base` keeps workload
    /// tags unique across tenants (and across servers in a cluster).
    /// Public for the multi-tenant and cluster drivers (`nfc-cluster`);
    /// single-box callers should use the `run*` entry points.
    pub fn prepare(
        &mut self,
        sim: &mut PipelineSim,
        _res: &PlatformResources,
        traffic: &mut TrafficGenerator,
        extra_corun: &[Option<KernelClass>],
        user_base: &mut u64,
        tel: &TelemetryHandle,
    ) -> PreparedSfc {
        // ---- build the execution structure --------------------------
        let (reorg, synth_on) = match self.policy {
            Policy::NfCompass {
                max_branches,
                synthesize,
                ..
            }
            | Policy::ReorgOnly {
                max_branches,
                synthesize,
                ..
            } => (
                match &self.forced_branches {
                    Some(b) => ReorgSfc::from_branches(b.clone()),
                    None => ReorgSfc::analyze(&self.sfc, max_branches),
                },
                synthesize,
            ),
            _ => match &self.forced_branches {
                Some(b) => (ReorgSfc::from_branches(b.clone()), false),
                None => (ReorgSfc::sequential(&self.sfc), false),
            },
        };
        let mut synthesis = Vec::new();
        // branches -> list of (stage NF, merged-NF count)
        let mut branch_stages: Vec<Vec<(Nf, usize)>> = Vec::new();
        for branch in reorg.branches() {
            let members: Vec<&Nf> = branch.iter().map(|&i| &self.sfc.nfs()[i]).collect();
            if synth_on && members.len() > 1 {
                let k = members.len();
                let (merged, report) = synthesize(&members);
                synthesis.push(report);
                branch_stages.push(vec![(merged, k)]);
            } else {
                branch_stages.push(members.into_iter().cloned().map(|nf| (nf, 1)).collect());
            }
        }
        let width = branch_stages.len();
        let effective_length = branch_stages.iter().map(Vec::len).max().unwrap_or(0);

        // Co-run context per stage: the dominant kernels of all OTHER
        // stages plus any co-deployed tenants' NFs (single-socket L3
        // assumption, as in Figure 8e).
        let all_kernels: Vec<Option<KernelClass>> = branch_stages
            .iter()
            .flat_map(|b| b.iter())
            .map(|(nf, _)| dominant_kernel(nf))
            .collect();

        let mode = self.policy.gpu_mode();
        let mut stages: Vec<Vec<StageExec>> = Vec::new();
        let mut user = *user_base;
        // Batch lineage tags live in the high bits of the tenant's user
        // base so co-deployed SFCs never collide and tag 0 stays free.
        let seq_base = *user_base << 40;
        let mut flat_idx = 0usize;
        for branch in branch_stages {
            let mut execs = Vec::new();
            for (nf, merged_count) in branch {
                let cpu_res = sim.add_resource(format!("cpu:{}", nf.name()), 0.0);
                // A merged stage keeps the cores its member NFs had.
                let stage_model = self
                    .model
                    .with_cores_per_nf(self.model.cores_per_nf * merged_count);
                let mut run = nf
                    .graph()
                    .clone()
                    .compile()
                    .expect("catalog/synthesized graphs compile");
                run.set_lanes(self.lanes);
                run.set_exec_mode(self.exec_mode);
                let flow_cache = match self.flow_cache {
                    FlowCacheMode::On { capacity } if run.flow_cacheable() => {
                        Some(StageFlowCache::new(capacity, &run))
                    }
                    _ => None,
                };
                let corun = CoRunContext::new(
                    all_kernels
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| *i != flat_idx)
                        .map(|(_, k)| *k)
                        .chain(extra_corun.iter().copied()),
                );
                execs.push(StageExec {
                    nf,
                    run,
                    weights: None,
                    plan: AllocationPlan::fixed_ratio(&[], 0.0),
                    cpu_res,
                    user,
                    pricing: Pricing {
                        model: stage_model,
                        corun,
                        mode,
                    },
                    flow_cache,
                    residency: None,
                    window: StageWindow::default(),
                });
                user += 1;
                flat_idx += 1;
            }
            stages.push(execs);
        }

        // ---- warm-up + profiling + allocation ------------------------
        // The warm-up also seeds each branch's wall-time estimate, which
        // decides whether the first live batches post to the pool.
        let mut branch_costs = UnitCosts::new(width);
        for _ in 0..self.warmup_batches {
            let batch = traffic.batch(self.batch_size);
            for (bi, branch) in stages.iter_mut().enumerate() {
                let t = Instant::now();
                let mut cur = batch.clone();
                for stage in branch.iter_mut() {
                    cur = stage.run.push_merged(stage.nf.entry(), cur);
                }
                branch_costs.record(bi, t.elapsed());
            }
        }
        // Session records cut during warm-up belong to no recorded
        // batch; discard them so the first live batch drains clean.
        for branch in stages.iter_mut() {
            for stage in branch.iter_mut() {
                stage.run.take_session_records();
            }
        }
        let mut rec = tel.recorder();
        for branch in stages.iter_mut() {
            for stage in branch.iter_mut() {
                plan_stage(stage, self.policy, self.delta, &mut rec);
            }
        }
        tel.absorb(rec);
        // Persistent kernels are bin-packed into SM slots; plans whose
        // kernels do not fit are degraded per stage to launch-per-batch
        // instead of being adopted oversubscribed.
        let residency = apply_residency(&mut stages, &self.model, mode);

        *user_base = user;
        PreparedSfc {
            stages,
            width,
            effective_length,
            synthesis,
            mode,
            model: self.model,
            delta: self.delta,
            exec_mode: self.exec_mode,
            branch_costs,
            egress_packets: 0,
            egress_bytes: 0,
            merge_conflicts: 0,
            tel: tel.clone(),
            batch_seq: seq_base,
            residency,
            observer: Observer::new(self.slo, self.flow_trace, self.flight_stem.as_deref(), tel),
        }
    }

    /// Uniform-ratio search: prices each of the 11 ratios 0, 0.1, …, 1
    /// with that ratio on every offloadable element by [`stage_cost`],
    /// and applies the cheapest, the lowest ratio on a tie (stands in for
    /// NBA's adaptive balancing and the paper's manual Optimal; not a
    /// per-NF search).
    fn grid_search_plan(pricing: &Pricing, weights: &GraphWeights) -> AllocationPlan {
        (0..=10)
            .map(|i| uniform_plan(pricing, weights, i as f64 / 10.0))
            .reduce(|best, plan| {
                if plan.predicted_cost_ns < best.predicted_cost_ns {
                    plan
                } else {
                    best
                }
            })
            .expect("eleven candidate ratios")
    }
}

/// `ratio` on every offloadable element, priced by [`stage_cost`].
fn uniform_plan(pricing: &Pricing, weights: &GraphWeights, ratio: f64) -> AllocationPlan {
    let offloadable: Vec<bool> = weights.nodes.iter().map(|n| n.offloadable).collect();
    let mut plan = AllocationPlan::fixed_ratio(&offloadable, ratio);
    plan.predicted_cost_ns = stage_cost(pricing, weights, &plan.ratios);
    plan
}

/// The kernel class an NF brings to its neighbours' co-run context: its
/// last offloadable element's, `None` when every element is CPU-only.
pub(crate) fn dominant_kernel(nf: &Nf) -> Option<KernelClass> {
    nf.graph()
        .node_ids()
        .filter_map(|id| match nf.graph().element(id).offload() {
            Offload::Offloadable { kernel } => Some(kernel),
            Offload::CpuOnly => None,
        })
        .last()
}

/// Profiles one stage from its accumulated statistics and computes its
/// allocation plan under `policy` at preparation time (the controller's
/// live swaps go through [`PreparedSfc::repartition`] instead). Every
/// planning decision — whatever the policy — is recorded into `rec` as
/// an [`EventKind::PartitionDecision`] instant; the graph-partition
/// policies additionally stream their per-pass refinement events.
fn plan_stage(stage: &mut StageExec, policy: Policy, delta: f64, rec: &mut Recorder) {
    let pricing = &stage.pricing;
    let weights = pricing.profile(&stage.run, stage.run.stats());
    stage.plan = match policy {
        Policy::CpuOnly => uniform_plan(pricing, &weights, 0.0),
        Policy::GpuOnly { .. } => uniform_plan(pricing, &weights, 1.0),
        Policy::FixedRatio { ratio, .. } | Policy::ReorgOnly { ratio, .. } => {
            uniform_plan(pricing, &weights, ratio)
        }
        Policy::NbaAdaptive | Policy::Optimal => Deployment::grid_search_plan(pricing, &weights),
        Policy::NfCompass { algo, .. } => {
            let mut plan = allocate_traced(stage.nf.graph(), &weights, algo, delta, rec);
            // Dynamic task adaption (§IV-C3) against the stage charge.
            adapt_ratios(pricing, &weights, &mut plan, delta);
            plan
        }
    };
    if rec.is_enabled() {
        let offloadable: Vec<bool> = weights.nodes.iter().map(|n| n.offloadable).collect();
        rec.instant(EventKind::PartitionDecision {
            algo: policy.algo_label(),
            stage: stage.nf.name().to_string(),
            predicted_cost_ns: stage.plan.predicted_cost_ns,
            mean_ratio: stage.plan.mean_offload(&offloadable),
        });
    }
    stage.run.reset_stats();
    stage.weights = Some(weights);
}

/// SM-residency pass: packs every offloading stage's persistent
/// kernel into SM slots ([`residency::spread_pack`]), granting resident
/// placements and downgrading the spillover to launch-per-batch
/// dispatch. Run after every (re-)planning step so the constraint holds
/// for the plans actually in effect; a no-op (all stages keep `mode`)
/// under non-persistent dispatch.
fn apply_residency(
    stages: &mut [Vec<StageExec>],
    model: &CostModel,
    mode: GpuMode,
) -> ResidencyReport {
    let gpu = model.platform().gpu;
    let mut report = ResidencyReport {
        resident: Vec::new(),
        spilled: Vec::new(),
        slots_per_device: gpu.sm_count,
        devices: gpu.count,
    };
    let mut flat: Vec<&mut StageExec> = stages.iter_mut().flat_map(|b| b.iter_mut()).collect();
    for stage in flat.iter_mut() {
        stage.pricing.mode = mode;
        stage.residency = None;
    }
    if mode != GpuMode::Persistent {
        return report;
    }
    let mut idx = Vec::new();
    let mut demands = Vec::new();
    for (fi, stage) in flat.iter().enumerate() {
        // Packets shipped to the device per batch under the current plan.
        let packets = stage.weights.as_ref().map_or(0, |w| {
            stage
                .pricing
                .profiled_charge(w, &stage.plan.ratios)
                .gpu_packets
        });
        if packets > 0 {
            idx.push(fi);
            demands.push(residency::slot_demand(packets));
        }
    }
    let pack = residency::spread_pack(&demands, &gpu);
    for (k, &fi) in idx.iter().enumerate() {
        match pack.placements[k] {
            residency::Placement::Resident { device, slots } => {
                let used = pack.device_slots_used(device);
                let occupancy_pct = (used * 100 / gpu.sm_count.max(1)).min(100) as u8;
                let util = pack.device_utilization(device);
                flat[fi].residency = Some(ResidencySlot {
                    device,
                    occupancy_pct,
                    pressure: residency::pressure_multiplier(util),
                });
                report
                    .resident
                    .push((flat[fi].nf.name().to_string(), device, slots));
            }
            residency::Placement::Spill => {
                flat[fi].pricing.mode = GpuMode::LaunchPerBatch;
                report.spilled.push(flat[fi].nf.name().to_string());
            }
        }
    }
    report
}

/// Result of pushing one batch through a prepared SFC.
pub enum BatchResult {
    /// Batch completed; record `(mean_arrival, completed)` with the
    /// output batch.
    Completed {
        /// Mean packet arrival time, ns.
        mean_arrival: f64,
        /// Completion time, ns.
        completed: f64,
        /// Surviving packets.
        out: Batch,
    },
    /// Batch tail-dropped at ingress.
    Dropped {
        /// Mean packet arrival time, ns.
        mean_arrival: f64,
    },
}

/// An SFC prepared for execution: re-organized, synthesized, profiled and
/// allocated, with its stages bound to simulator resources. Produced by
/// [`Deployment::prepare`]; shared-platform multi-tenant runs and the
/// `nfc-cluster` rack driver drive several of these against one
/// simulator.
pub struct PreparedSfc {
    stages: Vec<Vec<StageExec>>,
    width: usize,
    effective_length: usize,
    synthesis: Vec<SynthesisReport>,
    mode: GpuMode,
    model: CostModel,
    /// Offload-ratio granularity δ of the controller's re-plans.
    delta: f64,
    exec_mode: ExecMode,
    /// Functional wall time per batch of each branch, which decides per
    /// batch whether the branches are worth the pool.
    branch_costs: UnitCosts,
    egress_packets: u64,
    egress_bytes: u64,
    merge_conflicts: u64,
    tel: TelemetryHandle,
    /// Monotonic batch lineage tag; seeded from the tenant's user base
    /// (shifted high) so tags stay unique across co-deployed SFCs and
    /// `0` stays reserved for "untagged".
    batch_seq: u64,
    /// SM-residency placement currently in effect; refreshed whenever
    /// plans change (initial preparation, live swaps).
    residency: ResidencyReport,
    /// Health plane, flow forensics and latency attribution: everything
    /// the chain holds only to observe its batches.
    observer: Observer,
}

/// Cumulative temporal-charge observation for one stage.
#[derive(Debug, Clone, Copy, Default)]
struct StageObs {
    batches: u64,
    packets: u64,
    bytes: u64,
    cpu_ns: f64,
    kernel_ns: f64,
    gpu_packets: u64,
}

impl StageObs {
    fn record(&mut self, charge: &StageCharge) {
        self.batches += 1;
        self.packets += charge.in_packets as u64;
        self.bytes += charge.in_wire_bytes;
        self.cpu_ns += charge.cost.cpu_ns;
        self.kernel_ns += charge.cost.kernel_ns;
        self.gpu_packets += charge.cost.gpu_packets as u64;
    }
}

/// One stage's observation window, which the adaptive controller reads
/// in deltas. Purely additive bookkeeping: it never feeds back into
/// execution unless a controller acts on it.
#[derive(Default)]
struct StageWindow {
    /// Cumulative charge observation, maintained by every run path.
    obs: StageObs,
    /// `obs` at the last epoch boundary.
    obs_base: StageObs,
    /// [`GraphStats`] at the last epoch boundary, so re-profiling
    /// measures one window via [`GraphStats::delta`] without ever
    /// resetting live counters.
    stats_base: GraphStats,
    /// Flow-cache counters at the last epoch boundary.
    cache_base: CacheCounters,
}

impl PreparedSfc {
    /// Pushes one batch through the prepared SFC, scheduling its costs on
    /// the shared simulator.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from a branch's stages once every branch has
    /// handed its stages back, so a caller that catches the unwind keeps
    /// a chain that processes later batches. The panicking batch is
    /// lost: it reaches neither the temporal replay nor egress, and the
    /// stages that ran before the panic keep what it did to their state
    /// and statistics.
    pub fn process_batch(
        &mut self,
        sim: &mut PipelineSim,
        res: &PlatformResources,
        batch: Batch,
    ) -> BatchResult {
        let first_arrival = batch.get(0).map(|p| p.meta.arrival_ns).unwrap_or(0) as f64;
        let arrival = batch.iter().last().map(|p| p.meta.arrival_ns).unwrap_or(0) as f64;
        let mean_arrival = (first_arrival + arrival) / 2.0;
        // Ingress tail-drop: bounded backlog at the first busy resource
        // of any branch (NIC ring semantics).
        let worst_backlog = self
            .stages
            .iter()
            .filter_map(|b| b.first())
            .map(|s| sim.backlog_ns(s.cpu_res, arrival))
            .fold(sim.backlog_ns(res.io_rx, arrival), f64::max);
        if worst_backlog > sim.max_queue_ns {
            self.observer.dropped(sim, res, arrival);
            return BatchResult::Dropped { mean_arrival };
        }
        // Lineage tag: every event recorded while this batch is being
        // processed carries `seq`, which is what lets the attribution
        // layer re-join spans, ingress/egress markers and the bucket
        // decomposition after the fact. Tag 0 stays reserved for
        // untagged (out-of-batch) events; the observer clears the tag
        // after the batch's last tagged event.
        self.batch_seq += 1;
        let seq = self.batch_seq;
        let recording = sim.recorder_mut().is_enabled();
        if recording {
            let rec = sim.recorder_mut();
            rec.set_batch(seq);
            rec.sim_instant(
                res.io_rx.index() as u32,
                mean_arrival,
                EventKind::BatchIngress {
                    seq,
                    packets: batch.len() as u32,
                    wire_bytes: batch.total_bytes() as u64,
                },
            );
        }
        let observed = self.observer.armed(recording);
        self.observer.probe(&batch, &self.stages, recording);
        // Ingress I/O.
        let io_span = sim.schedule_span(res.io_rx, arrival, self.model.io_batch_ns(batch.len()), 0);
        let t0 = io_span.1;
        // Duplication cost for parallel branches (packet copies).
        let (split_span, t0) = if self.width > 1 {
            let s = sim.schedule_span(
                res.io_rx,
                t0,
                self.model.split_ns(batch.len(), self.width),
                0,
            );
            (Some(s), s.1)
        } else {
            (None, t0)
        };
        // Branches: the functional phase touches only branch-local state
        // (each branch's element graphs and its CoW duplicate of the
        // batch), so the worker pool may run branches concurrently; it
        // does when the branches' estimated work off the critical path
        // pays for a helper (`UnitCosts::mode`). Charges are collected
        // per stage and replayed below.
        // With lanes enabled, gather the columnar header view once at
        // ingress: CoW duplicates share the memo by refcount, so every
        // read-only branch sweeps the same columns instead of each
        // paying its own gather.
        let mut batch = batch;
        if self.width > 1
            && self
                .stages
                .first()
                .and_then(|b| b.first())
                .is_some_and(|s| s.run.lanes())
        {
            batch.shared_lanes();
        }
        // Units are owned (the pool's threads outlive this call): each
        // branch's stages and its CoW duplicate of the batch move into
        // the unit, and the stages come back with its results — also
        // when a stage panics, which the unit catches and hands back.
        // A lone branch takes the batch itself: nothing reads the
        // ingress after it, and a shared copy would make every write
        // copy its packet.
        let branches = std::mem::take(&mut self.stages);
        let (units, ingress): (Vec<(Vec<StageExec>, Batch)>, _) = if self.width > 1 {
            let units = branches.into_iter().map(|b| (b, batch.clone())).collect();
            (units, Some(batch))
        } else {
            (branches.into_iter().zip([batch]).collect(), None)
        };
        let units = par_map_traced(
            self.branch_costs.mode(self.exec_mode),
            units,
            &self.tel,
            move |bi, (mut branch, mut cur), rec| {
                rec.set_batch(seq);
                let t = Instant::now();
                let result = catch_unwind(AssertUnwindSafe(|| {
                    let mut charges = Vec::with_capacity(branch.len());
                    for (si, stage) in branch.iter_mut().enumerate() {
                        let packets = cur.len();
                        let t = rec.start();
                        let (out, charge) = exec_stage_functional(stage, cur, rec);
                        if rec.is_enabled() {
                            rec.wall_span(
                                t,
                                EventKind::Stage {
                                    branch: bi as u32,
                                    stage: si as u32,
                                    name: stage.nf.name().to_string(),
                                    packets: packets as u32,
                                },
                            );
                        }
                        cur = out;
                        charges.push(charge);
                    }
                    (cur, charges)
                }));
                (branch, result, t.elapsed())
            },
        );
        let mut outputs = Vec::with_capacity(units.len());
        let mut panic = None;
        for (bi, (branch, result, wall)) in units.into_iter().enumerate() {
            self.branch_costs.record(bi, wall);
            self.stages.push(branch);
            match result {
                Ok(output) => outputs.push(output),
                Err(payload) => {
                    panic.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = panic {
            // The batch ends here: later events must not carry its tag.
            if recording {
                sim.recorder_mut().set_batch(0);
            }
            resume_unwind(payload);
        }
        // Temporal replay: sequential, in fixed branch-major stage order —
        // exactly the order the serial engine schedules in, so the
        // simulated timeline is bit-identical regardless of ExecMode.
        // The timeline records every stage only when it has a reader.
        let mut timeline = BatchTimeline {
            seq,
            mean_arrival,
            io: io_span,
            split: split_span,
            branch0: self.stages.first().map_or(0, Vec::len),
            ..BatchTimeline::default()
        };
        let mut branch_outputs: Vec<Batch> = Vec::with_capacity(self.width);
        let mut t_join = t0;
        for (branch, (out, charges)) in self.stages.iter_mut().zip(outputs) {
            let mut t = t0;
            for (stage, charge) in branch.iter_mut().zip(&charges) {
                stage.window.obs.record(charge);
                let span = replay_stage(sim, stage, charge, t, res);
                if observed {
                    timeline.stages.push(span);
                }
                t = span.release;
            }
            t_join = t_join.max(t);
            branch_outputs.push(out);
        }
        // Merge parallel branches (XOR) or take the single output.
        let (out, t_done, merge_span) = match ingress {
            Some(batch) => {
                let (merged, conflicts) = merge_branch_batches(&batch, &branch_outputs);
                self.merge_conflicts += conflicts;
                let m = sim.schedule_span(res.io_tx, t_join, self.model.merge_ns(batch.len()), 0);
                (merged, m.1, Some(m))
            }
            None => (branch_outputs.pop().expect("one branch"), t_join, None),
        };
        // Egress I/O.
        let egress_span =
            sim.schedule_span(res.io_tx, t_done, self.model.io_batch_ns(out.len()), 0);
        let completed = egress_span.1;
        self.egress_packets += out.len() as u64;
        self.egress_bytes += out.total_bytes() as u64;
        if observed {
            timeline.t_join = t_join;
            timeline.merge = merge_span;
            timeline.egress = egress_span;
            self.observer.completed(sim, res, &timeline, &out);
        }
        BatchResult::Completed {
            mean_arrival,
            completed,
            out,
        }
    }

    /// Drains the strongest breach/drift signal raised since the last
    /// call (at most one: the only one the controller's detector would
    /// act on). Empty when no SLO is armed.
    pub fn take_health_signals(&mut self) -> Vec<HealthSignal> {
        self.observer.take_signal().into_iter().collect()
    }

    /// Whether the forensics sampler traces the flow with this RSS hash
    /// (false when disarmed) — the cluster layer asks before stamping
    /// shard/migration points.
    pub fn flow_sampled(&self, hash: u32) -> bool {
        self.observer.sampled(hash)
    }

    /// Marks this chain as server `server` of a multi-server rack: its
    /// flow points carry the id, so cross-server timelines stitch, and
    /// its health gauges gain a `server` label, so the servers' series
    /// stay apart. Standalone chains and one-server racks stay unset
    /// (flow points say server 0, gauges carry no server label).
    pub fn set_server(&mut self, server: u32) {
        self.observer.set_server(server);
    }

    /// Emits one flow-forensics instant (and its flight-ring copy) from
    /// outside the batch pipeline — the cluster layer's hook for
    /// shard-routing and migration points.
    pub fn stamp_flow_point(
        &mut self,
        sim: &mut PipelineSim,
        track: u32,
        at: f64,
        flow: u32,
        point: &'static str,
        packets: u32,
    ) {
        self.observer.stamp(sim, track, at, flow, point, packets);
    }

    /// Total stateful-NF state held by this prepared chain, in bytes —
    /// what a shard migration must ship over the inter-server link when
    /// flow ownership moves off this server.
    pub fn state_bytes(&self) -> usize {
        self.stages
            .iter()
            .flat_map(|b| b.iter())
            .map(|s| s.run.state_bytes())
            .sum()
    }

    /// Bumps every stage flow-cache generation so no stale per-flow
    /// verdict survives a shard-ownership change (the cluster rebalance
    /// analogue of the invalidation [`PreparedSfc::repartition`] does
    /// for plan swaps). Invalidation events are recorded through the
    /// chain's telemetry handle; a no-op when no stage caches.
    pub fn invalidate_flow_caches(&mut self) {
        let mut rec = self.tel.recorder();
        for branch in self.stages.iter_mut() {
            for stage in branch.iter_mut() {
                if let Some(cache) = stage.flow_cache.as_mut() {
                    cache.invalidate(&stage.run, &mut rec);
                }
            }
        }
        self.tel.absorb(rec);
    }

    /// Mean offload ratio per stage (branch-major) under the plans
    /// currently in effect.
    pub fn current_offloads(&self) -> Vec<(String, f64)> {
        self.stages
            .iter()
            .flat_map(|b| b.iter())
            .map(|s| {
                let offloadable: Vec<bool> = s
                    .weights
                    .as_ref()
                    .map(|w| w.nodes.iter().map(|n| n.offloadable).collect())
                    .unwrap_or_default();
                (s.nf.name().to_string(), s.plan.mean_offload(&offloadable))
            })
            .collect()
    }

    /// Opens a fresh observation window: snapshots the cumulative charge
    /// observations, per-stage statistics and flow-cache counters so the
    /// next [`PreparedSfc::epoch_signature`] and re-profiling read
    /// windowed deltas, never cumulative state (and never reset live
    /// counters — resetting would perturb the differential oracle).
    pub fn snapshot_window(&mut self) {
        for stage in self.stages.iter_mut().flat_map(|b| b.iter_mut()) {
            let w = &mut stage.window;
            w.obs_base = w.obs;
            w.stats_base = stage.run.stats().clone();
            w.cache_base = stage
                .flow_cache
                .as_ref()
                .map(|c| c.counters())
                .unwrap_or_default();
        }
    }

    /// Condenses the observation window since the last
    /// [`PreparedSfc::snapshot_window`] into a per-stage
    /// [`WorkloadSignature`]: mean CPU/kernel charges per batch, batch
    /// fill and packet size from the traffic actually seen, live content
    /// factors read from the elements, the SM-occupancy proxy, the DMA
    /// backlog sampled at the boundary, and the flow-cache hit rate.
    pub fn epoch_signature(&self, batch_size: usize, dma_backlog_ns: f64) -> WorkloadSignature {
        let mut sigs = Vec::new();
        for stage in self.stages.iter().flat_map(|b| b.iter()) {
            let (o, b) = (stage.window.obs, stage.window.obs_base);
            let batches = (o.batches.saturating_sub(b.batches)).max(1) as f64;
            let packets = o.packets.saturating_sub(b.packets) as f64;
            let bytes = o.bytes.saturating_sub(b.bytes) as f64;
            let g = stage.run.graph();
            let n = g.node_count().max(1) as f64;
            let mut match_factor = 0.0;
            let mut divergence = 0.0;
            for id in g.node_ids() {
                let work = g.element(id).work();
                match_factor += work.match_factor;
                divergence += work.divergence;
            }
            let (hits, misses) = match stage.flow_cache.as_ref() {
                Some(c) => {
                    let cur = c.counters();
                    let base = stage.window.cache_base;
                    (
                        cur.hits.saturating_sub(base.hits) as f64,
                        cur.misses.saturating_sub(base.misses) as f64,
                    )
                }
                None => (0.0, 0.0),
            };
            let lookups = hits + misses;
            sigs.push(StageSignature {
                cpu_ns: (o.cpu_ns - b.cpu_ns) / batches,
                kernel_ns: (o.kernel_ns - b.kernel_ns) / batches,
                batch_fill: packets / (batches * batch_size.max(1) as f64),
                mean_pkt_bytes: bytes / packets.max(1.0),
                match_factor: match_factor / n,
                divergence: divergence / n,
                sm_occupancy: (o.gpu_packets.saturating_sub(b.gpu_packets) as f64 / batches)
                    / calib::GPU_PARALLEL_WIDTH as f64,
                dma_backlog_ns,
                cache_hit_rate: if lookups > 0.0 { hits / lookups } else { 0.0 },
            });
        }
        WorkloadSignature { stages: sigs }
    }

    /// Re-profiles every stage over the current observation window and
    /// re-runs the partitioner warm-started from the plan in effect,
    /// adopting a stage's new plan only when its [`stage_cost`] beats
    /// the carried plan. Adopted plans are applied via the
    /// two-phase epoch swap, charged on the simulated timeline at `now`:
    ///
    /// 1. **Drain** — swap work is scheduled *behind* the existing
    ///    backlog of the stage's GPU queue and the DMA link, so every
    ///    in-flight batch finishes under the old plan first (the
    ///    simulator's resource semantics are the drain barrier).
    /// 2. **Reconfigure** — persistent-kernel teardown, stateful-NF
    ///    state migration over PCIe, and the cold launch of the new
    ///    kernel are charged at calibrated costs; the stage's flow-cache
    ///    generation is bumped so no stale verdict survives the swap.
    ///
    /// Returns `true` when at least one stage adopted a new plan. Every
    /// evaluated stage is appended to `report` under its current epoch,
    /// `report.epochs` (with `applied: false` when the warm re-partition
    /// kept the carried plan), and recorded as an
    /// [`EventKind::ControllerDecision`] instant on the simulated clock.
    pub fn repartition(
        &mut self,
        sim: &mut PipelineSim,
        res: &PlatformResources,
        algo: PartitionAlgo,
        reason: &str,
        now: f64,
        report: &mut ControllerReport,
    ) -> bool {
        let epoch = report.epochs;
        let mut rec = self.tel.recorder();
        let mut any = false;
        let mut swap_end = now;
        for branch in self.stages.iter_mut() {
            for stage in branch.iter_mut() {
                // Evaluate against the stage's *effective* mode: a stage
                // the residency pass spilled is re-planned as
                // launch-per-batch until a re-pack re-grants its slots.
                let window = stage.run.stats().delta(&stage.window.stats_base);
                let weights = stage.pricing.profile(&stage.run, &window);
                let offloadable: Vec<bool> = weights.nodes.iter().map(|n| n.offloadable).collect();
                let old_ratio = stage.plan.mean_offload(&offloadable);
                let plan = allocate_warm_traced(
                    stage.nf.graph(),
                    &weights,
                    &stage.plan.ratios,
                    algo,
                    self.delta,
                    &stage.pricing,
                    &mut rec,
                );
                let new_ratio = plan.mean_offload(&offloadable);
                let applied = plan.ratios != stage.plan.ratios;
                let mut swap_ns = 0.0;
                if applied {
                    let was = stage.plan.ratios.iter().any(|&r| r > 0.0);
                    let will = plan.ratios.iter().any(|&r| r > 0.0);
                    let gpu = stage_gpu_queue(stage, &res.gpu_queues);
                    let mut t = now;
                    let model = stage.pricing.model;
                    if was {
                        t = sim.schedule(gpu, t, model.kernel_teardown_ns(), stage.user);
                    }
                    let state = stage.run.state_bytes();
                    if state > 0 && (was || will) {
                        t = sim.schedule(
                            res.pcie_h2d,
                            t,
                            model.state_migration_ns(state),
                            stage.user,
                        );
                    }
                    if will {
                        t = sim.schedule(
                            gpu,
                            t,
                            model.kernel_cold_launch_ns(stage.pricing.mode),
                            stage.user,
                        );
                    }
                    swap_ns = t - now;
                    swap_end = swap_end.max(t);
                    if let Some(cache) = stage.flow_cache.as_mut() {
                        cache.invalidate(&stage.run, &mut rec);
                    }
                    stage.plan = plan;
                    stage.weights = Some(weights);
                    any = true;
                }
                if rec.is_enabled() {
                    // On the track and clock of the `Epoch` markers, so
                    // swap windows `[now, now + swap_ns]` are comparable.
                    let kind = EventKind::ControllerDecision {
                        epoch,
                        reason: reason.to_string(),
                        stage: stage.nf.name().to_string(),
                        old_ratio,
                        new_ratio,
                        swap_ns,
                    };
                    rec.sim_instant(res.io_rx.index() as u32, now, kind);
                }
                report.adaptations.push(AdaptationRecord {
                    epoch,
                    reason: reason.to_string(),
                    algo: algo.label(),
                    stage: stage.nf.name().to_string(),
                    old_ratio,
                    new_ratio,
                    swap_ns,
                    applied,
                });
            }
        }
        // One merged drain window per reconfiguration (per-stage swap
        // charges overlap — they all start at `now` — so recording them
        // individually would double-count drain in the bucket walk).
        if rec.is_enabled() && any && swap_end > now {
            self.observer.note_swap(now, swap_end);
        }
        self.tel.absorb(rec);
        if any {
            // Adopted plans shift slot demands; re-pack against the
            // policy's requested mode so spilled stages can win their
            // residency back (and newly heavy ones spill).
            self.residency = apply_residency(&mut self.stages, &self.model, self.mode);
        }
        any
    }

    /// Finalizes the run into a [`RunOutcome`] with the given temporal
    /// report.
    pub fn into_outcome(self, report: SimReport) -> RunOutcome {
        RunOutcome {
            stage_offloads: self.current_offloads(),
            report,
            egress_packets: self.egress_packets,
            egress_bytes: self.egress_bytes,
            width: self.width,
            effective_length: self.effective_length,
            synthesis: self.synthesis,
            merge_conflicts: self.merge_conflicts,
            stage_stats: self
                .stages
                .iter()
                .flat_map(|b| b.iter())
                .map(|s| s.run.stats().clone())
                .collect(),
            flow_cache: self
                .stages
                .iter()
                .flat_map(|b| b.iter())
                .filter_map(|s| s.flow_cache.as_ref())
                .map(|c| c.counters())
                .fold(CacheCounters::default(), CacheCounters::merge),
            telemetry: None,
            residency: self.residency,
        }
    }
}

/// Temporal cost of one stage's processing of one batch, computed during
/// the functional phase and replayed onto the simulator afterwards. The
/// charge depends only on the batch and the stage's profile/plan — never
/// on simulator state — which is what lets branches run functionally in
/// parallel while the timeline stays bit-identical to serial execution.
struct StageCharge {
    /// The stage's [`Pricing::charge`] for this batch, its CPU side
    /// grown by the batch's re-organization.
    cost: Charge,
    /// Packets entering the stage this batch (controller observation).
    in_packets: usize,
    /// Wire bytes entering the stage this batch (controller observation).
    in_wire_bytes: u64,
}

/// Executes one NF stage functionally (packets through the element
/// graph) and computes its [`StageCharge`]. Touches only stage-local
/// state; safe to run concurrently across branches. Telemetry (element
/// spans, flow-cache instants) goes to `rec`, which is branch-local
/// during parallel execution.
fn exec_stage_functional(
    stage: &mut StageExec,
    batch: Batch,
    rec: &mut Recorder,
) -> (Batch, StageCharge) {
    let in_packets = batch.len();
    let in_wire_bytes = batch.total_bytes() as u64;
    let in_splits = batch.lineage.splits;
    let in_merges = batch.lineage.merges;
    // Functional execution: flow-aware fast path when this stage has a
    // cache, slow path otherwise. Egress is bit-identical either way;
    // only the temporal charge shrinks: the temporal model charges hits
    // nothing, though replaying a verdict costs host time of its own.
    let StageExec {
        nf,
        run,
        weights,
        plan,
        pricing,
        flow_cache,
        ..
    } = stage;
    let (out, charged_packets, charged_bytes, lineage_delta) = match flow_cache.as_mut() {
        Some(cache) => {
            let cr = cache.process_traced(run, nf.entry(), batch, rec);
            if cr.fell_back {
                (cr.out, in_packets, None, None)
            } else {
                (
                    cr.out,
                    cr.misses as usize,
                    Some(cr.miss_bytes as f64),
                    Some((cr.miss_new_splits, cr.miss_new_merges)),
                )
            }
        }
        None => (
            run.push_merged_traced(nf.entry(), batch, rec),
            in_packets,
            None,
            None,
        ),
    };
    // Drain structured session records cut by session-logging elements
    // into `session`-category events (wall instants: sessions are
    // observations about traffic, not scheduled work). Elements bound
    // their own buffers, so the disabled path pays nothing here beyond
    // the recording branch.
    if rec.is_enabled() {
        for r in run.take_session_records() {
            rec.instant(EventKind::Session {
                state: r.state.label(),
                flow: r.flow,
                packets: r.packets,
                bytes: r.bytes,
            });
        }
    }
    let (new_splits, new_merges) = lineage_delta.unwrap_or_else(|| {
        (
            out.lineage.splits.saturating_sub(in_splits),
            out.lineage.merges.saturating_sub(in_merges),
        )
    });
    let weights = weights.as_ref().expect("profiled before run");
    let in_bytes = charged_bytes.unwrap_or_else(|| {
        out.total_bytes() as f64
            + (charged_packets.saturating_sub(out.len())) as f64
                * (out.total_bytes() as f64 / out.len().max(1) as f64)
    });
    let pscale = if weights.entry_packets > 0.0 {
        (charged_packets as f64 / weights.entry_packets).min(4.0)
    } else {
        1.0
    };
    let bscale = if weights.entry_bytes > 0.0 {
        (in_bytes / weights.entry_bytes).min(64.0)
    } else {
        1.0
    };
    // CPU portion + GPU portion, to be overlapped at replay. Per-stage
    // dispatch mode: the residency pass may have downgraded this stage
    // to launch-per-batch while siblings stay persistent.
    let mut cost = pricing.charge(weights.nodes.iter().enumerate().map(|(i, w)| {
        // Scale the profiled per-batch load to this batch: packet
        // count and byte volume scale independently so packet-size
        // shifts are charged honestly.
        let mut load = w.load;
        load.packets = (load.packets as f64 * pscale).round() as usize;
        load.bytes = (load.bytes as f64 * bscale).round() as usize;
        // Traffic-content factors are read live from the element so
        // charged costs track the current traffic, not the profiling
        // window (the paper's fast-switching-traffic concern).
        let live = run.graph().element(nfc_click::NodeId(i)).work();
        load.work.match_factor = live.match_factor;
        load.work.divergence = live.divergence;
        (load, plan.ratios.get(i).copied().unwrap_or(0.0))
    }));
    // Batch re-organization from functional splits (Figure 5) plus
    // the CPU/GPU carve when partially offloaded. Under the fast path
    // only the missed packets' re-organization is charged.
    let model = pricing.model;
    if new_splits > 0 {
        cost.cpu_ns += new_splits as f64 * model.split_ns(charged_packets, 2);
    }
    if new_merges > 0 {
        cost.cpu_ns += new_merges as f64 * model.merge_ns(charged_packets);
    }
    if cost.partial {
        cost.cpu_ns += model.carve_ns(charged_packets) + model.offload_merge_ns(charged_packets);
    }
    (
        out,
        StageCharge {
            cost,
            in_packets,
            in_wire_bytes,
        },
    )
}

/// The GPU queue a stage's kernels run on. Persistent kernels run on the
/// device the residency pass placed them on (one queue per device);
/// launch-per-batch kernels run in the default stream and serialize the
/// whole device — the root of the paper's aggregated offloading
/// overhead (Figure 7).
fn stage_gpu_queue(stage: &StageExec, gpu_queues: &[ResourceId]) -> ResourceId {
    match stage.pricing.mode {
        GpuMode::Persistent => match stage.residency {
            Some(slot) => gpu_queues[slot.device % gpu_queues.len()],
            None => gpu_queues[(stage.user as usize) % gpu_queues.len()],
        },
        GpuMode::LaunchPerBatch => gpu_queues[0],
    }
}

/// Replays one stage's charge, ready at `t`, onto the shared simulator,
/// returning its placement.
fn replay_stage(
    sim: &mut PipelineSim,
    stage: &StageExec,
    charge: &StageCharge,
    t: f64,
    res: &PlatformResources,
) -> StageSpan {
    let charge = &charge.cost;
    let (pcie_h2d, pcie_d2h) = (res.pcie_h2d, res.pcie_d2h);
    let track = stage.cpu_res.index() as u32;
    let cpu = sim.schedule_span(stage.cpu_res, t, charge.cpu_ns, stage.user);
    if charge.gpu_kernels > 0 {
        let gpu = stage_gpu_queue(stage, &res.gpu_queues);
        // Co-residency pressure: kernel time stretches once the hosting
        // device's SM slots pass half utilization.
        let kernel_ns = charge.kernel_ns * stage.residency.map_or(1.0, |s| s.pressure);
        let dma = stage.pricing.dma_ns(charge.gpu_bytes);
        let h = sim.schedule_span(pcie_h2d, t, dma, stage.user);
        let k = sim.schedule_span(gpu, h.1, kernel_ns, stage.user);
        let d = sim.schedule_span(pcie_d2h, k.1, dma, stage.user);
        let rec = sim.recorder_mut();
        if rec.is_enabled() {
            // Semantic GPU events on the simulated timeline, alongside
            // the generic resource-busy spans `schedule` already emits.
            // These mirror the busy intervals (not request → release),
            // so their durations are pure transfer/execution time —
            // which is what lets `calibrate` re-fit the cost constants
            // from a trace regardless of congestion.
            let queue = gpu.index() as u32;
            let bytes = charge.gpu_bytes as u64;
            rec.sim_span(
                pcie_h2d.index() as u32,
                h.0,
                h.1,
                EventKind::Dma {
                    to_device: true,
                    bytes,
                },
            );
            rec.sim_span(
                queue,
                k.0,
                k.1,
                EventKind::KernelLaunch {
                    queue,
                    user: stage.user,
                    bytes,
                    packets: charge.gpu_packets as u32,
                    kernels: charge.gpu_kernels,
                },
            );
            rec.sim_span(
                pcie_d2h.index() as u32,
                d.0,
                d.1,
                EventKind::Dma {
                    to_device: false,
                    bytes,
                },
            );
            // Resident kernels report their device's slot occupancy from
            // the bin-pack; unplaced offloads keep the lane-width proxy.
            let occupancy_pct = match stage.residency {
                Some(slot) => slot.occupancy_pct,
                None => (charge.gpu_packets * 100 / calib::GPU_PARALLEL_WIDTH).min(100) as u8,
            };
            rec.sim_instant(
                queue,
                k.1,
                EventKind::SmOccupancy {
                    queue,
                    occupancy_pct,
                },
            );
        }
        // Ordered release (completion-queue) once both sides finish.
        StageSpan {
            track,
            start: t,
            cpu,
            gpu: Some([h, k, d]),
            release: cpu.1.max(d.1),
        }
    } else {
        StageSpan {
            track,
            start: t,
            cpu,
            gpu: None,
            release: cpu.1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfc_packet::traffic::{SizeDist, TrafficSpec};

    fn traffic(pkt: usize, seed: u64) -> TrafficGenerator {
        TrafficGenerator::new(TrafficSpec::udp(SizeDist::Fixed(pkt)), seed)
    }

    fn run(sfc: Sfc, policy: Policy, pkt: usize, batches: usize) -> RunOutcome {
        let mut dep = Deployment::new(sfc, policy).with_batch_size(256);
        dep.run(&mut traffic(pkt, 42), batches)
    }

    fn ipsec_chain(n: usize) -> Sfc {
        Sfc::new(
            "ipsec-chain",
            (0..n).map(|i| Nf::ipsec(format!("ipsec{i}"))).collect(),
        )
    }

    #[test]
    fn every_policy_label_is_in_the_trace_vocabulary() {
        let mode = GpuMode::Persistent;
        let mut policies = vec![
            Policy::CpuOnly,
            Policy::GpuOnly { mode },
            Policy::FixedRatio { ratio: 0.5, mode },
            Policy::NbaAdaptive,
            Policy::Optimal,
            Policy::ReorgOnly {
                max_branches: 4,
                synthesize: true,
                ratio: 0.5,
                mode,
            },
        ];
        for algo in [
            PartitionAlgo::Kl,
            PartitionAlgo::Agglomerative,
            PartitionAlgo::Mfmc,
        ] {
            policies.push(Policy::NfCompass {
                algo,
                max_branches: 4,
                synthesize: true,
            });
        }
        for p in policies {
            let label = p.algo_label();
            assert!(
                nfc_telemetry::PARTITION_ALGOS.contains(&label),
                "{p:?}: {label}"
            );
        }
    }

    #[test]
    fn cpu_only_single_nf_runs() {
        let out = run(ipsec_chain(1), Policy::CpuOnly, 256, 30);
        assert!(out.report.throughput_gbps > 0.0);
        assert!(out.egress_packets > 0);
        assert_eq!(out.width, 1);
        assert_eq!(out.effective_length, 1);
        assert!(out.stage_offloads.iter().all(|(_, r)| *r == 0.0));
    }

    #[test]
    fn optimal_ipsec_uses_partial_offload_and_beats_extremes() {
        let cpu = run(ipsec_chain(1), Policy::CpuOnly, 256, 30);
        let gpu = run(
            ipsec_chain(1),
            Policy::GpuOnly {
                mode: GpuMode::Persistent,
            },
            256,
            30,
        );
        let opt = run(ipsec_chain(1), Policy::Optimal, 256, 30);
        let r = opt.stage_offloads[0].1;
        assert!(r > 0.0 && r < 1.0, "optimal IPsec ratio interior, got {r}");
        assert!(opt.report.throughput_gbps >= cpu.report.throughput_gbps * 0.99);
        assert!(opt.report.throughput_gbps >= gpu.report.throughput_gbps * 0.99);
    }

    #[test]
    fn fig7_gpu_only_degrades_with_chain_length() {
        // GPU acceleration is offset by aggregated per-NF offload
        // overheads as the chain grows (launch-per-batch baseline).
        let t1 = run(
            ipsec_chain(1),
            Policy::GpuOnly {
                mode: GpuMode::LaunchPerBatch,
            },
            64,
            30,
        );
        let t3 = run(
            ipsec_chain(3),
            Policy::GpuOnly {
                mode: GpuMode::LaunchPerBatch,
            },
            64,
            30,
        );
        assert!(
            t3.report.throughput_gbps < t1.report.throughput_gbps,
            "len-3 {} should be slower than len-1 {}",
            t3.report.throughput_gbps,
            t1.report.throughput_gbps
        );
    }

    #[test]
    fn nfcompass_parallelizes_readonly_chain() {
        let sfc = Sfc::new(
            "fw4",
            (0..4)
                .map(|i| Nf::firewall(format!("fw{i}"), 100, 1))
                .collect(),
        );
        let out = run(sfc, Policy::nfcompass(), 64, 30);
        assert_eq!(out.effective_length, 1);
        assert_eq!(out.width, 4);
        assert_eq!(out.merge_conflicts, 0);
        assert!(out.egress_packets > 0);
    }

    #[test]
    fn nfcompass_synthesizes_width_limited_chain() {
        let sfc = Sfc::new("ids4", (0..4).map(|i| Nf::ids(format!("ids{i}"))).collect());
        let mut dep = Deployment::new(
            sfc,
            Policy::NfCompass {
                algo: PartitionAlgo::Kl,
                max_branches: 2,
                synthesize: true,
            },
        )
        .with_batch_size(128);
        let out = dep.run(&mut traffic(256, 9), 20);
        assert_eq!(out.width, 2);
        // Each branch of 2 identical IDS synthesized into one stage.
        assert_eq!(out.effective_length, 1);
        assert_eq!(out.synthesis.len(), 2);
        assert!(out.synthesis.iter().all(|s| s.removed >= 1));
    }

    #[test]
    fn nfcompass_beats_cpu_only_on_heavy_chain() {
        let sfc = || Sfc::new("heavy", vec![Nf::ipsec("ipsec"), Nf::dpi("dpi")]);
        let cpu = run(sfc(), Policy::CpuOnly, 512, 30);
        let nfc = run(sfc(), Policy::nfcompass(), 512, 30);
        assert!(
            nfc.report.throughput_gbps > 1.2 * cpu.report.throughput_gbps,
            "NFCompass {} vs CPU-only {}",
            nfc.report.throughput_gbps,
            cpu.report.throughput_gbps
        );
    }

    #[test]
    fn functional_outputs_are_identical_across_policies() {
        // Scheduling must never change packet contents: CPU-only and
        // NFCompass produce byte-identical egress for the same traffic.
        let sfc = || Sfc::new("fw-ids", vec![Nf::firewall("fw", 100, 1), Nf::ids("ids")]);
        let a = run(sfc(), Policy::CpuOnly, 256, 10);
        let b = run(sfc(), Policy::nfcompass(), 256, 10);
        assert_eq!(a.egress_packets, b.egress_packets);
        assert_eq!(a.egress_bytes, b.egress_bytes);
    }

    #[test]
    fn lanes_on_off_egress_is_byte_identical() {
        // The SoA header-lane sweep is a pure execution-path choice:
        // forcing lanes on and off must yield byte-identical egress and
        // identical statistics for a header-heavy chain.
        let sfc = || {
            Sfc::new(
                "fw-lb",
                vec![
                    Nf::firewall("fw", 100, 1),
                    Nf::ipv4_forwarder("rt", 64, 3),
                    Nf::nat("nat", [203, 0, 113, 1]),
                ],
            )
        };
        let collect = |lanes: bool| {
            let mut dep = Deployment::new(sfc(), Policy::nfcompass())
                .with_batch_size(128)
                .with_lanes(lanes);
            dep.run_collect(&mut traffic(256, 7), 12)
        };
        let (out_on, egress_on) = collect(true);
        let (out_off, egress_off) = collect(false);
        assert_eq!(egress_on, egress_off, "lane egress must be bit-identical");
        assert_eq!(out_on.egress_packets, out_off.egress_packets);
        assert_eq!(out_on.egress_bytes, out_off.egress_bytes);
    }

    #[test]
    fn residency_fits_small_persistent_plans_entirely() {
        // A modest chain at batch 256 needs ~2 SM slots per kernel — far
        // inside 2 × 24 — so every stage stays resident and occupancy is
        // reported within capacity.
        let mut dep = Deployment::new(
            ipsec_chain(2),
            Policy::GpuOnly {
                mode: GpuMode::Persistent,
            },
        )
        .with_batch_size(256);
        let out = dep.run(&mut traffic(256, 42), 20);
        assert_eq!(out.residency.spilled.len(), 0);
        assert_eq!(out.residency.resident.len(), 2);
        assert!(out.residency.within_capacity());
        // Unpressured, persistence pays (simulated clock): frequent
        // small-batch launches are what resident kernels amortize away.
        let lpb = run(
            ipsec_chain(2),
            Policy::GpuOnly {
                mode: GpuMode::LaunchPerBatch,
            },
            256,
            20,
        );
        assert!(
            out.report.throughput_gbps >= 1.05 * lpb.report.throughput_gbps,
            "resident {} vs launch-per-batch {}",
            out.report.throughput_gbps,
            lpb.report.throughput_gbps
        );
    }

    #[test]
    fn residency_spills_oversubscribed_kernels_to_launch_per_batch() {
        // Batch 2048 fully offloaded needs 16 slots per kernel; four
        // kernels demand 64 slots against 2 × 24 available. The packer
        // must grant two and spill two — never adopt an oversubscribed
        // plan — and the spilled stages demonstrably fall back (the run
        // still completes with every packet accounted for).
        let mut dep = Deployment::new(
            ipsec_chain(4),
            Policy::GpuOnly {
                mode: GpuMode::Persistent,
            },
        )
        .with_batch_size(2048);
        let (out, egress) = dep.run_collect(&mut traffic(256, 42), 10);
        assert_eq!(out.residency.resident.len(), 2);
        assert_eq!(out.residency.spilled.len(), 2);
        assert!(out.residency.within_capacity());
        for d in 0..out.residency.devices {
            assert!(out.residency.device_slots_used(d) <= out.residency.slots_per_device);
        }
        // Residency is a temporal constraint only: egress is
        // byte-identical to the same chain forced launch-per-batch.
        let mut lpb = Deployment::new(
            ipsec_chain(4),
            Policy::GpuOnly {
                mode: GpuMode::LaunchPerBatch,
            },
        )
        .with_batch_size(2048);
        let (lpb_out, lpb_egress) = lpb.run_collect(&mut traffic(256, 42), 10);
        assert_eq!(egress, lpb_egress);
        assert!(lpb_out.residency.resident.is_empty());
        // With two kernels still resident the partly spilled plan keeps
        // paying (simulated clock): persistence never stops paying
        // before the first spill.
        assert!(
            out.report.throughput_gbps >= 1.05 * lpb_out.report.throughput_gbps,
            "partly spilled {} vs launch-per-batch {}",
            out.report.throughput_gbps,
            lpb_out.report.throughput_gbps
        );
        // At batch 4096 no kernel fits (32 slots each): the plan spills
        // whole, and a fully spilled plan *is* launch-per-batch, so the
        // two modes meet at parity.
        let at_4096 = |mode: GpuMode| {
            Deployment::new(ipsec_chain(4), Policy::GpuOnly { mode })
                .with_batch_size(4096)
                .run(&mut traffic(64, 42), 2)
        };
        let spilled = at_4096(GpuMode::Persistent);
        let launch = at_4096(GpuMode::LaunchPerBatch).report.throughput_gbps;
        assert!(spilled.residency.resident.is_empty());
        assert!(
            (spilled.report.throughput_gbps / launch - 1.0).abs() < 0.02,
            "fully spilled {} vs launch-per-batch {launch}",
            spilled.report.throughput_gbps
        );
    }

    #[test]
    fn cpu_only_reports_empty_residency() {
        let out = run(ipsec_chain(1), Policy::CpuOnly, 256, 10);
        assert!(out.residency.resident.is_empty());
        assert!(out.residency.spilled.is_empty());
    }

    #[test]
    fn nba_uses_launch_per_batch_and_local_ratios() {
        let out = run(ipsec_chain(2), Policy::NbaAdaptive, 256, 20);
        assert!(out.stage_offloads.iter().all(|(_, r)| *r <= 1.0));
        assert!(out.report.throughput_gbps > 0.0);
    }

    #[test]
    fn overload_is_tail_dropped_with_bounded_latency() {
        // 1500 B at 40 Gbps through a CPU-only DPI chain overloads it.
        let sfc = Sfc::new("dpi", vec![Nf::dpi("dpi"), Nf::dpi("dpi2")]);
        let out = run(sfc, Policy::CpuOnly, 1500, 120);
        assert!(out.report.dropped_batches > 0, "expected overload drops");
        // Bounded by the 50 ms admission cap plus a few batch service
        // times of pipeline drain.
        assert!(
            out.report.max_latency_ns <= 55e6,
            "latency bounded by queue, got {} ms",
            out.report.max_latency_ns / 1e6
        );
    }

    #[test]
    fn policy_labels() {
        assert_eq!(Policy::CpuOnly.label(), "CPU-only");
        assert_eq!(
            Policy::FixedRatio {
                ratio: 0.7,
                mode: GpuMode::Persistent
            }
            .label(),
            "70% offload"
        );
        assert!(Policy::nfcompass().label().contains("NFCompass"));
    }

    /// The planner and the timeline price a stage alike: one uncontended
    /// batch of the profiled size through a one-NF chain without split
    /// or merge elements, and whose packets keep their size, is released
    /// exactly its `stage_cost` after it was ready: all on the CPU, all
    /// offloaded and split between them. The IPv4 forwarder is bound by
    /// headers, the stream IDS by payload.
    #[test]
    fn uncontended_stage_service_time_equals_its_stage_cost() {
        for nf in [Nf::ipv4_forwarder("r", 100, 1), Nf::stream_ids("ids")] {
            for ratio in [0.0, 0.4, 1.0] {
                let policy = Policy::FixedRatio {
                    ratio,
                    mode: GpuMode::Persistent,
                };
                let sfc = Sfc::new("one-nf", vec![nf.clone()]);
                let mut dep = Deployment::new(sfc, policy).with_batch_size(256);
                let tel = Telemetry::new(TelemetryMode::Off);
                let mut sim = PipelineSim::new();
                let res = PlatformResources::register(&mut sim, dep.model());
                let mut gen = traffic(512, 7);
                let mut prep = dep.prepare(&mut sim, &res, &mut gen, &[], &mut 1, &tel.handle());
                let stage = &mut prep.stages[0][0];
                assert_eq!(stage.residency.map_or(1.0, |s| s.pressure), 1.0);
                let batch = gen.batch(256);
                let ready = batch.iter().last().expect("a full batch").meta.arrival_ns as f64;
                let (_, charge) = exec_stage_functional(stage, batch, &mut Recorder::disabled());
                let span = replay_stage(&mut sim, stage, &charge, ready, &res);
                assert_eq!(span.gpu.is_some(), ratio > 0.0, "{} at {ratio}", nf.name());
                let weights = stage.weights.as_ref().expect("profiled");
                let planned = stage_cost(&stage.pricing, weights, &stage.plan.ratios);
                let served = span.release - ready;
                assert!(
                    (served - planned).abs() <= 1e-9 * planned,
                    "{} at {ratio}: simulated {served} ns, planned {planned} ns",
                    nf.name()
                );
            }
        }
    }
}

#[cfg(test)]
mod adaptive_tests {
    use super::*;
    use nfc_packet::traffic::{PayloadPolicy, SizeDist, TrafficSpec};

    fn dpi_phases(rate_gbps: f64) -> Vec<TrafficGenerator> {
        let spec = |ratio: f64, seed: u64| {
            TrafficGenerator::new(
                TrafficSpec::udp(SizeDist::Fixed(512))
                    .with_rate_gbps(rate_gbps)
                    .with_payload(PayloadPolicy::MatchRatio {
                        patterns: nfc_nf::Nf::default_ids_signatures(),
                        ratio,
                    }),
                seed,
            )
        };
        vec![spec(0.0, 5), spec(1.0, 6)]
    }

    fn cfg() -> ControllerConfig {
        ControllerConfig {
            epoch_batches: 8,
            window_epochs: 2,
            threshold: 0.3,
            hysteresis_epochs: 2,
            cooldown_epochs: 2,
            refine_latency_epochs: 2,
            enabled: true,
        }
    }

    #[test]
    fn controller_absorbs_match_ratio_flip() {
        let run = |policy: Policy, cfg: &ControllerConfig| {
            let sfc = Sfc::new("dpi", vec![Nf::dpi("dpi")]);
            let mut dep = Deployment::new(sfc, policy).with_batch_size(256);
            dep.run_adaptive(&mut dpi_phases(40.0), 48, cfg)
        };
        let (adapted, report) = run(Policy::nfcompass(), &cfg());
        let (stale, oracle_report) = run(Policy::nfcompass(), &ControllerConfig::disabled());
        assert!(report.epochs >= 8);
        assert!(report.triggers >= 1, "shift must trip the detector");
        assert!(report.applied() >= 1, "fast re-partition must adopt a plan");
        assert_eq!(oracle_report.triggers, 0);
        assert_eq!(oracle_report.applied(), 0);
        // The adapted phase-2 plan must not lose to the stale plan, and
        // the swap must be visible in the timeline records.
        assert!(
            adapted[1].report.throughput_gbps >= 0.95 * stale[1].report.throughput_gbps,
            "adapted {} vs stale {}",
            adapted[1].report.throughput_gbps,
            stale[1].report.throughput_gbps
        );
        let applied: Vec<_> = report.adaptations.iter().filter(|a| a.applied).collect();
        assert!(applied
            .iter()
            .all(|a| a.swap_ns > 0.0 || a.old_ratio == 0.0));
        // The one-processor statics lose on both sides of the flip
        // (simulated clock).
        let gpu_only = Policy::GpuOnly {
            mode: GpuMode::Persistent,
        };
        for policy in [Policy::CpuOnly, gpu_only] {
            let (fixed, _) = run(policy, &ControllerConfig::disabled());
            for (a, f) in adapted.iter().zip(&fixed) {
                assert!(
                    a.report.throughput_gbps > f.report.throughput_gbps,
                    "adaptive {} vs {policy:?} {}",
                    a.report.throughput_gbps,
                    f.report.throughput_gbps
                );
            }
        }
    }

    #[test]
    fn adaptive_controller_is_loss_free_and_functionally_identical() {
        // Under-capacity traffic: neither run tail-drops, so the enabled
        // controller must be bit-identical to the disabled oracle on
        // every functional observable, whatever plans it swaps.
        let run = |cfg: &ControllerConfig| {
            let sfc = Sfc::new("dpi", vec![Nf::dpi("dpi")]);
            let mut dep = Deployment::new(sfc, Policy::nfcompass()).with_batch_size(128);
            dep.run_adaptive_collect(&mut dpi_phases(4.0), 40, cfg)
        };
        let (on_out, on_rep, on_egress) = run(&cfg());
        let (off_out, _, off_egress) = run(&ControllerConfig::disabled());
        assert_eq!(
            (on_out.len(), off_out.len()),
            (2, 2),
            "one outcome per phase"
        );
        for o in on_out.iter().chain(off_out.iter()) {
            assert_eq!(o.report.dropped_batches, 0, "must stay under capacity");
            assert_eq!(o.report.offered_batches, 40, "phases are accounted apart");
            assert!(o.report.throughput_gbps > 0.0);
        }
        assert_eq!(on_egress, off_egress, "egress must be byte-identical");
        assert_eq!(on_out[0].stage_stats, off_out[0].stage_stats);
        assert_eq!(on_out[0].egress_packets, off_out[0].egress_packets);
        assert_eq!(on_out[0].egress_bytes, off_out[0].egress_bytes);
        assert!(on_rep.epochs > 0);
    }

    #[test]
    fn steady_traffic_never_swaps() {
        let sfc = Sfc::new("dpi", vec![Nf::dpi("dpi")]);
        let mut dep = Deployment::new(sfc, Policy::nfcompass()).with_batch_size(128);
        let mut phases = vec![TrafficGenerator::new(
            TrafficSpec::udp(SizeDist::Fixed(512)).with_rate_gbps(20.0),
            7,
        )];
        let (_, report) = dep.run_adaptive(&mut phases, 80, &cfg());
        assert!(report.epochs >= 10);
        assert_eq!(report.applied(), 0, "no drift, no swap: {report:?}");
    }

    #[test]
    fn non_partitioned_policy_observes_but_never_swaps() {
        let sfc = Sfc::new("dpi", vec![Nf::dpi("dpi")]);
        let mut dep = Deployment::new(sfc, Policy::CpuOnly).with_batch_size(128);
        let (_, report) = dep.run_adaptive(&mut dpi_phases(4.0), 40, &cfg());
        assert!(report.epochs > 0);
        assert_eq!(report.applied(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn adaptive_empty_phases_panic() {
        let sfc = Sfc::new("p", vec![Nf::probe("p")]);
        let mut dep = Deployment::new(sfc, Policy::CpuOnly);
        dep.run_adaptive(&mut [], 1, &ControllerConfig::default());
    }
}

#[cfg(test)]
mod forced_branch_tests {
    use super::*;
    use nfc_packet::traffic::{SizeDist, TrafficSpec};

    #[test]
    fn forced_branches_override_the_analyzer() {
        // Two identical IPsec NFs: the analyzer would keep them
        // sequential (WAW), but the forced structure runs them parallel
        // and the XOR merge accepts their identical outputs.
        let sfc = Sfc::new(
            "ipsec2",
            vec![nfc_nf::Nf::ipsec("a"), nfc_nf::Nf::ipsec("b")],
        );
        let mut dep = Deployment::new(
            sfc,
            Policy::ReorgOnly {
                max_branches: 2,
                synthesize: false,
                ratio: 0.0,
                mode: GpuMode::Persistent,
            },
        )
        .with_batch_size(64)
        .with_forced_branches(vec![vec![0], vec![1]]);
        let mut t = TrafficGenerator::new(TrafficSpec::udp(SizeDist::Fixed(128)), 3);
        let out = dep.run(&mut t, 8);
        assert_eq!(out.width, 2);
        assert_eq!(out.effective_length, 1);
        assert_eq!(out.merge_conflicts, 0, "identical outputs must merge");
        assert_eq!(out.egress_packets, 8 * 64);
    }

    #[test]
    fn forced_sequential_matches_default_sequential() {
        let mk = || Sfc::new("c", vec![nfc_nf::Nf::ipsec("a"), nfc_nf::Nf::dpi("b")]);
        let run = |forced: Option<Vec<Vec<usize>>>| {
            let mut dep = Deployment::new(mk(), Policy::CpuOnly).with_batch_size(64);
            if let Some(b) = forced {
                dep = dep.with_forced_branches(b);
            }
            let mut t = TrafficGenerator::new(TrafficSpec::udp(SizeDist::Fixed(256)), 9);
            let o = dep.run(&mut t, 8);
            (o.egress_packets, o.report.throughput_gbps.to_bits())
        };
        assert_eq!(run(None), run(Some(vec![vec![0, 1]])));
    }
}

#[cfg(test)]
mod flow_forensics_tests {
    use super::*;
    use nfc_packet::traffic::{SizeDist, TrafficSpec};

    fn traffic(seed: u64) -> TrafficGenerator {
        TrafficGenerator::new(TrafficSpec::udp(SizeDist::Fixed(512)), seed)
    }

    fn chain() -> Sfc {
        Sfc::new(
            "fw-nat",
            vec![Nf::firewall("fw", 100, 1), Nf::nat("nat", [203, 0, 113, 1])],
        )
    }

    /// Differential: arming per-flow tracing at the most aggressive
    /// rate (every flow sampled) must not change a single functional
    /// or temporal fact — egress bytes, per-element statistics, flow-
    /// cache counters — under serial, parallel and adaptive policies.
    #[test]
    fn flow_tracing_on_off_is_bit_identical() {
        for policy in [Policy::CpuOnly, Policy::nfcompass(), Policy::NbaAdaptive] {
            let run = |rate: u32| {
                let mut dep = Deployment::new(chain(), policy)
                    .with_batch_size(128)
                    .with_telemetry(TelemetryMode::Memory);
                dep = if rate != 0 {
                    dep.with_flow_trace(rate)
                } else {
                    dep.with_flow_trace(0)
                };
                dep.run_collect(&mut traffic(7), 12)
            };
            let (out_on, egress_on) = run(1);
            let (out_off, egress_off) = run(0);
            assert_eq!(egress_on, egress_off, "{policy:?}: traced egress differs");
            assert_eq!(out_on.egress_packets, out_off.egress_packets);
            assert_eq!(out_on.egress_bytes, out_off.egress_bytes);
            assert_eq!(out_on.stage_stats, out_off.stage_stats);
            assert_eq!(out_on.flow_cache, out_off.flow_cache);
            assert_eq!(
                out_on.report.throughput_gbps.to_bits(),
                out_off.report.throughput_gbps.to_bits(),
                "{policy:?}: tracing perturbed the simulated timeline"
            );
            // The armed run must actually have recorded flow points —
            // a silently dead plane would pass the differential.
            let traced = out_on.telemetry.expect("telemetry digest");
            assert!(
                traced
                    .trace
                    .iter()
                    .any(|ev| matches!(ev.kind, EventKind::FlowPoint { .. })),
                "{policy:?}: no FlowPoint events recorded at rate 1"
            );
        }
    }

    /// A sampled flow's stitched timeline must telescope: ingress is
    /// the earliest point, egress the latest, and the sum of the
    /// consecutive hop deltas IS the end-to-end latency, exactly.
    #[test]
    fn sampled_flow_timeline_telescopes_to_e2e() {
        let mut dep = Deployment::new(chain(), Policy::nfcompass())
            .with_batch_size(128)
            .with_telemetry(TelemetryMode::Memory)
            .with_flow_trace(1);
        let out = dep.run(&mut traffic(7), 8);
        let digest = out.telemetry.expect("telemetry digest");
        let mut flows: std::collections::BTreeMap<u32, Vec<(f64, &'static str)>> =
            Default::default();
        for ev in &digest.trace {
            if let EventKind::FlowPoint { flow, point, .. } = ev.kind {
                let at = ev.sim.expect("flow points are sim instants").start_ns;
                flows.entry(flow).or_default().push((at, point));
            }
        }
        assert!(!flows.is_empty(), "rate-1 sampling saw no flows");
        let mut checked = 0;
        for (flow, mut points) in flows {
            points.sort_by(|a, b| a.0.total_cmp(&b.0));
            let first = points.first().unwrap();
            let last = points.last().unwrap();
            if points.len() < 2 {
                continue;
            }
            assert_eq!(first.1, "ingress", "flow {flow:#010x} starts at ingress");
            assert_eq!(last.1, "egress", "flow {flow:#010x} ends at egress");
            let e2e = last.0 - first.0;
            let hop_sum: f64 = points.windows(2).map(|w| w[1].0 - w[0].0).sum();
            assert!(
                (hop_sum - e2e).abs() < 1e-9,
                "flow {flow:#010x}: hops {hop_sum} != e2e {e2e}"
            );
            checked += 1;
        }
        assert!(checked > 0, "no multi-point flow timelines to check");
    }

    /// An injected SLO breach must write a flight-recorder postmortem
    /// containing the flow events leading up to the offending epoch.
    #[test]
    fn slo_breach_dumps_flight_recorder_with_flow_events() {
        let dir = std::env::temp_dir().join(format!("nfc_flight_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let stem = dir.join("flight").to_string_lossy().into_owned();
        let sfc = Sfc::new("dpi", vec![Nf::dpi("dpi"), Nf::dpi("dpi2")]);
        let mut dep = Deployment::new(sfc, Policy::CpuOnly)
            .with_batch_size(256)
            .with_telemetry(TelemetryMode::Memory)
            .with_flow_trace(1)
            .with_flight_stem(stem.clone())
            .with_slo(SloSpec {
                p99_latency_ns: 1.0,
                epoch_batches: 8,
                ..Default::default()
            });
        let out = dep.run(
            &mut TrafficGenerator::new(TrafficSpec::udp(SizeDist::Fixed(1500)), 42),
            40,
        );
        let digest = out.telemetry.expect("telemetry digest");
        let dump_ev = digest
            .trace
            .iter()
            .find_map(|ev| match ev.kind {
                EventKind::FlightDump { reason, events } => Some((reason, events)),
                _ => None,
            })
            .expect("breach must emit a FlightDump event");
        assert_eq!(dump_ev.0, "slo_burn");
        assert!(dump_ev.1 > 0, "dump must carry ring events");
        let path = format!("{stem}.slo_burn.json");
        let body = std::fs::read_to_string(&path).expect("dump file written");
        assert!(
            body.contains("\"flow_"),
            "postmortem must contain flow events"
        );
        assert!(
            body.contains("slo_burn"),
            "postmortem must contain the breach verdict"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
