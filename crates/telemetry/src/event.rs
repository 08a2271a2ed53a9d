//! Typed telemetry events and the process-wide wall clock.
//!
//! Every [`Event`] carries a wall-clock stamp (nanoseconds since the
//! process telemetry epoch) and, for events generated during temporal
//! replay, a simulated-time stamp from the [`PipelineSim`] timeline.
//! The two timelines are exported as separate Chrome-trace processes so
//! they can be compared side by side.
//!
//! [`PipelineSim`]: https://chromium.googlesource.com/catapult/+/HEAD/tracing/README.md

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds elapsed since the first telemetry clock read in this
/// process. All wall-clock stamps share this epoch so events recorded by
/// different workers land on one consistent timeline.
#[inline]
pub fn wall_now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A simulated-time interval (nanoseconds on the [`PipelineSim`]
/// timeline; instants have `start_ns == end_ns`).
///
/// [`PipelineSim`]: https://chromium.googlesource.com/catapult
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimStamp {
    /// Interval start on the simulated timeline.
    pub start_ns: f64,
    /// Interval end on the simulated timeline (`>= start_ns`).
    pub end_ns: f64,
}

impl SimStamp {
    /// Interval duration in simulated nanoseconds.
    pub fn dur_ns(&self) -> f64 {
        (self.end_ns - self.start_ns).max(0.0)
    }
}

/// One recorded telemetry event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Wall-clock stamp: span begin (spans) or emission time (instants),
    /// nanoseconds since the process telemetry epoch.
    pub wall_ns: u64,
    /// Wall-clock span duration; `0` for instants and sim-timeline events.
    pub wall_dur_ns: u64,
    /// Simulated-time interval, when the event belongs to the temporal
    /// replay timeline (`None` for functional-layer wall events).
    pub sim: Option<SimStamp>,
    /// Display lane: branch index for functional events, worker id for
    /// worker spans, resource id for simulated-timeline events.
    pub track: u32,
    /// Batch lineage tag: the runtime-assigned batch sequence number the
    /// event belongs to, or `0` when the event is not attributable to a
    /// single packet batch (resource registration, planner passes,
    /// control-plane work). Carried through duplication, split/merge,
    /// flow-cache replay, DMA, and kernel execution so a trace can be
    /// re-joined per batch by the attribution layer (`attr`).
    pub batch: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The event taxonomy. Each variant maps to one Chrome-trace event name
/// and one of the categories listed under [`EventKind::category`].
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// One SFC stage executed over one branch batch (functional layer,
    /// wall-clock span).
    Stage {
        /// Branch index within the batch split.
        branch: u32,
        /// Stage index within the chain.
        stage: u32,
        /// NF name of the stage.
        name: String,
        /// Packets entering the stage.
        packets: u32,
    },
    /// One Click element processed one batch (wall-clock span).
    Element {
        /// Node id in the compiled element graph.
        node: u32,
        /// Element name.
        name: String,
        /// Packets entering the element.
        packets_in: u32,
        /// Packets leaving over all output ports.
        packets_out: u32,
    },
    /// A batch fanned out over more than one non-empty output port.
    BatchSplit {
        /// Splitting node id.
        node: u32,
        /// Number of non-empty output ports.
        parts: u32,
    },
    /// A multi-input node merged pending batches before processing.
    BatchMerge {
        /// Merging node id.
        node: u32,
        /// Number of merged input batches.
        parts: u32,
    },
    /// Flow-cache classification outcome for one batch.
    FlowCacheBatch {
        /// Packets replayed from cached verdicts.
        hits: u32,
        /// Packets sent down the slow path.
        misses: u32,
    },
    /// The flow cache invalidated all entries (configuration change).
    FlowCacheInvalidate {
        /// Cache generation after the bump.
        generation: u64,
    },
    /// A GPU kernel occupied a GPU queue (simulated-time span).
    KernelLaunch {
        /// GPU queue index within the platform's queue list.
        queue: u32,
        /// Logical user (tenant/stage) owning the kernel.
        user: u64,
        /// Payload bytes shipped to the device for this kernel.
        bytes: u64,
        /// Packets shipped to the device for this kernel.
        packets: u32,
        /// Per-element kernel dispatches aggregated into this span (the
        /// stage may offload more than one element; `calibrate` fits
        /// dispatch overhead only on single-dispatch samples).
        kernels: u32,
    },
    /// A resource switched users and paid a context-switch/teardown
    /// penalty (simulated-time instant).
    KernelTeardown {
        /// Resource id that switched users.
        resource: u32,
        /// Previous occupant.
        from_user: u64,
        /// New occupant.
        to_user: u64,
        /// Penalty charged on the simulated timeline.
        penalty_ns: f64,
    },
    /// A PCIe DMA transfer (simulated-time span).
    Dma {
        /// `true` for host-to-device, `false` for device-to-host.
        to_device: bool,
        /// Transfer size in bytes.
        bytes: u64,
    },
    /// SM-occupancy proxy for a kernel launch: the share of one GPU wave
    /// the batch fills (simulated-time instant).
    SmOccupancy {
        /// GPU queue index.
        queue: u32,
        /// `min(100, 100 * packets / GPU_PARALLEL_WIDTH)`.
        occupancy_pct: u8,
    },
    /// A resource was busy serving a scheduled charge (simulated-time
    /// span, emitted for every `PipelineSim::schedule`).
    ResourceBusy {
        /// Resource id.
        resource: u32,
        /// Occupying user.
        user: u64,
        /// Simulated time the charge waited between its request instant
        /// and the span start (queueing behind earlier work plus any
        /// context-switch penalty).
        queued_ns: f64,
    },
    /// Maps a resource id to its human-readable name (emitted once per
    /// resource registration; becomes Chrome `thread_name` metadata).
    ResourceName {
        /// Resource id.
        resource: u32,
        /// Resource name (e.g. `gpu/ctx0`).
        name: String,
    },
    /// One refinement pass of a graph-partitioning algorithm.
    PartitionPass {
        /// Algorithm label (`"kl"`, `"agglomerative"`).
        algo: &'static str,
        /// Pass index (0-based; agglomerative runs a single pass).
        pass: u32,
        /// Vertex moves (KL) or cluster merges (agglomerative) applied.
        moved: u32,
        /// Objective cost before the pass (for agglomerative: the
        /// all-CPU baseline cost).
        cost_before: f64,
        /// Objective cost after the pass.
        cost_after: f64,
    },
    /// The allocator fixed an offload plan for one stage (emitted for
    /// every policy, including fixed-ratio and CPU-only).
    PartitionDecision {
        /// Policy/algorithm label.
        algo: &'static str,
        /// Stage (NF) name.
        stage: String,
        /// Predicted per-batch cost of the chosen plan (`0` when the
        /// policy does not predict one).
        predicted_cost_ns: f64,
        /// Mean per-vertex GPU offload ratio of the plan.
        mean_ratio: f64,
    },
    /// The adaptive controller changed (or declined to change) a stage's
    /// offload plan at an epoch boundary (simulated-time instant).
    ControllerDecision {
        /// Observation epoch at which the decision fired.
        epoch: u64,
        /// Trigger summary (e.g. `cpu_ns drift 1.85 @ stage 0`) or
        /// `refine` for background hand-offs.
        reason: String,
        /// Stage (NF) name the decision applies to.
        stage: String,
        /// Mean offload ratio before the swap.
        old_ratio: f64,
        /// Mean offload ratio after the swap.
        new_ratio: f64,
        /// Reconfiguration time charged on the simulated timeline, ns.
        swap_ns: f64,
    },
    /// One work unit executed by a `par_map` worker (wall-clock span).
    Worker {
        /// Worker thread index within the pool.
        worker: u32,
        /// Input item index the worker processed.
        unit: u32,
    },
    /// A packet batch entered the pipeline (simulated-time instant at
    /// its mean arrival).
    BatchIngress {
        /// Batch sequence number (same value as [`Event::batch`]).
        seq: u64,
        /// Packets in the batch at ingress.
        packets: u32,
        /// Wire bytes in the batch at ingress.
        wire_bytes: u64,
    },
    /// A packet batch left the pipeline (simulated-time instant at its
    /// completion).
    BatchEgress {
        /// Batch sequence number (same value as [`Event::batch`]).
        seq: u64,
        /// Packets in the batch at egress (elements may drop packets).
        packets: u32,
        /// Payload bytes in the batch at egress.
        bytes: u64,
    },
    /// End-to-end latency decomposition for one batch, computed by the
    /// runtime during temporal replay (simulated-time instant at the
    /// batch completion). The five buckets sum to the batch's
    /// end-to-end simulated latency exactly.
    BatchAttribution {
        /// Batch sequence number (same value as [`Event::batch`]).
        seq: u64,
        /// End-to-end simulated latency: completion − mean arrival.
        e2e_ns: f64,
        /// Busy time on CPU-side resources along the batch's reference
        /// chain (I/O, split/merge, element work, kernel execution).
        compute_ns: f64,
        /// PCIe DMA transfer time along the reference chain.
        transfer_ns: f64,
        /// Waiting time not otherwise classified: batching fill plus
        /// queueing behind earlier batches and context switches.
        queue_ns: f64,
        /// Portion of the waiting time spent behind control-plane
        /// reconfiguration (epoch swap drain).
        drain_ns: f64,
        /// Merge-barrier skew: how long the reference branch's output
        /// waited for slower sibling branches at the join.
        merge_wait_ns: f64,
    },
    /// The adaptive controller closed one observation epoch
    /// (simulated-time instant; delimits per-epoch critical paths).
    Epoch {
        /// Epoch counter after the boundary.
        epoch: u64,
    },
    /// Multi-window SLO burn state for one objective at an epoch
    /// boundary (simulated-time instant, health plane).
    SloBurn {
        /// Health epoch the verdict closes.
        epoch: u64,
        /// Objective name (`p99_latency`, `throughput`, `drops`).
        objective: &'static str,
        /// Burn rate over the fast window.
        fast_burn: f64,
        /// Burn rate over the slow window.
        slow_burn: f64,
        /// True when both windows burn at or above the threshold.
        breached: bool,
    },
    /// Cost-model drift verdict at an epoch boundary: the per-epoch
    /// median of observed vs model-predicted batch latency
    /// (simulated-time instant, health plane).
    ModelDrift {
        /// Health epoch the verdict closes.
        epoch: u64,
        /// Median model-predicted busy latency this epoch, ns.
        predicted_ns: f64,
        /// Median observed end-to-end latency this epoch, ns.
        observed_ns: f64,
        /// Relative drift: `max(0, median(observed/predicted) - 1)`.
        drift: f64,
        /// True when the drift exceeded the ceiling for the configured
        /// number of consecutive epochs.
        raised: bool,
    },
    /// One contiguous range of the 32-bit flow-hash space owned by a
    /// cluster server under the shard map in effect (simulated-time
    /// instant, cluster plane). A full map emission covers `[0, 2^32)`
    /// exactly — `nfc-trace validate` rejects maps with holes or
    /// overlapping ranges per epoch.
    ShardRange {
        /// Rebalance epoch the map belongs to (0 = initial map).
        epoch: u64,
        /// Owning server index within the cluster.
        server: u32,
        /// Inclusive range start in the flow-hash space.
        start: u64,
        /// Exclusive range end (may be `2^32`, hence `u64`).
        end: u64,
    },
    /// An inter-server link carried a batch shard (simulated-time span
    /// on the link's resource track, cluster plane).
    LinkTransfer {
        /// Link resource id the transfer occupied.
        link: u32,
        /// Packets shipped over the link.
        packets: u32,
        /// Wire bytes shipped over the link.
        bytes: u64,
    },
    /// The cluster controller moved shard ownership between servers via
    /// the two-phase epoch swap (simulated-time instant, cluster plane).
    ClusterRebalance {
        /// Rebalance epoch after the move.
        epoch: u64,
        /// Server that gave up flow ownership.
        from: u32,
        /// Server that took it over.
        to: u32,
        /// Virtual ring nodes moved.
        vnodes: u32,
        /// Stateful-NF bytes migrated over the link model.
        migrated_bytes: u64,
        /// Reconfiguration time charged on the simulated timeline, ns.
        swap_ns: f64,
    },
    /// A sampled flow touched one pipeline touchpoint (simulated-time
    /// instant, flow forensics plane). Emitted only for flows selected
    /// by the deterministic [`FlowSampler`](crate::FlowSampler);
    /// `nfc-trace flow <key>` stitches the instants into one causal
    /// per-flow timeline, including across servers and migrations.
    FlowPoint {
        /// RSS hash of the sampled flow: the sampler's decision input
        /// and the stitch key (`FlowKey` displays it as `[{hash:08x}]`).
        flow: u32,
        /// Touchpoint name: `ingress`, `lanes`, `cache_hit`,
        /// `cache_miss`, `stage`, `kernel`, `shard`, `migrate`, `merge`
        /// or `egress`.
        point: &'static str,
        /// Server owning the flow at this touchpoint (0 on one box).
        server: u32,
        /// Packets of the sampled flow observed at the touchpoint.
        packets: u32,
    },
    /// A structured firewall-style connection record cut by a
    /// `SessionLog` NF element (wall-clock instant, session plane).
    Session {
        /// Record kind: `built`, `teardown` or `deny`.
        state: &'static str,
        /// RSS hash of the session's flow.
        flow: u32,
        /// Packets the session had carried when the record was cut.
        packets: u64,
        /// Wire bytes the session had carried when the record was cut.
        bytes: u64,
    },
    /// The flight recorder wrote its bounded ring to a postmortem dump
    /// file (simulated-time instant, flow plane).
    FlightDump {
        /// Dump trigger: `slo_burn`, `model_drift` or `manual`.
        reason: &'static str,
        /// Events written to the dump file.
        events: u32,
    },
}

/// Every `algo` label of [`EventKind::PartitionPass`] and
/// [`EventKind::PartitionDecision`]: the partitioning passes, then the
/// allocation policies.
pub const PARTITION_ALGOS: &[&str] = &[
    "kl",
    "agglomerative",
    "mfmc",
    "cpu-only",
    "gpu-only",
    "fixed-ratio",
    "reorg-fixed-ratio",
    "nba-adaptive",
    "grid-search",
];
/// Every [`EventKind::FlowPoint`] touchpoint, in pipeline order.
pub const FLOW_POINTS: &[&str] = &[
    "ingress",
    "lanes",
    "cache_hit",
    "cache_miss",
    "stage",
    "kernel",
    "shard",
    "migrate",
    "merge",
    "egress",
];
/// Every [`EventKind::Session`] record state.
pub const SESSION_STATES: &[&str] = &["built", "teardown", "deny"];
/// Every [`EventKind::SloBurn`] objective.
pub const SLO_OBJECTIVES: &[&str] = &["p99_latency", "throughput", "drops"];
/// Every [`EventKind::FlightDump`] trigger.
pub const DUMP_REASONS: &[&str] = &["slo_burn", "model_drift", "manual"];

impl EventKind {
    /// Coarse category, used as the Chrome-trace `cat` field and by
    /// `nfc-trace` for per-category summaries: one of `stage`,
    /// `element`, `batch`, `flow-cache`, `gpu`, `resource`,
    /// `partition`, `control`, `worker`, `attr`, `health`, `cluster`,
    /// `flow`, `session`.
    pub fn category(&self) -> &'static str {
        match self {
            EventKind::Stage { .. } => "stage",
            EventKind::Element { .. } => "element",
            EventKind::BatchSplit { .. } | EventKind::BatchMerge { .. } => "batch",
            EventKind::FlowCacheBatch { .. } | EventKind::FlowCacheInvalidate { .. } => {
                "flow-cache"
            }
            EventKind::KernelLaunch { .. }
            | EventKind::KernelTeardown { .. }
            | EventKind::Dma { .. }
            | EventKind::SmOccupancy { .. } => "gpu",
            EventKind::ResourceBusy { .. } | EventKind::ResourceName { .. } => "resource",
            EventKind::PartitionPass { .. } | EventKind::PartitionDecision { .. } => "partition",
            EventKind::ControllerDecision { .. } | EventKind::Epoch { .. } => "control",
            EventKind::Worker { .. } => "worker",
            EventKind::BatchIngress { .. }
            | EventKind::BatchEgress { .. }
            | EventKind::BatchAttribution { .. } => "attr",
            EventKind::SloBurn { .. } | EventKind::ModelDrift { .. } => "health",
            EventKind::ShardRange { .. }
            | EventKind::LinkTransfer { .. }
            | EventKind::ClusterRebalance { .. } => "cluster",
            EventKind::FlowPoint { .. } | EventKind::FlightDump { .. } => "flow",
            EventKind::Session { .. } => "session",
        }
    }

    /// Whether the kind's closed-vocabulary field (`algo`, `point`,
    /// `state`, `objective` or `reason`) holds a word of its vocabulary
    /// above; `true` for kinds without one. Recorders debug-assert it,
    /// because `nfc-trace` refuses a trace with any other word.
    pub fn in_vocabulary(&self) -> bool {
        let (word, known) = match self {
            EventKind::PartitionPass { algo, .. } | EventKind::PartitionDecision { algo, .. } => {
                (algo, PARTITION_ALGOS)
            }
            EventKind::FlowPoint { point, .. } => (point, FLOW_POINTS),
            EventKind::Session { state, .. } => (state, SESSION_STATES),
            EventKind::SloBurn { objective, .. } => (objective, SLO_OBJECTIVES),
            EventKind::FlightDump { reason, .. } => (reason, DUMP_REASONS),
            _ => return true,
        };
        known.contains(word)
    }

    /// Display name for the event (the Chrome-trace `name` field).
    pub fn label(&self) -> String {
        match self {
            EventKind::Stage { name, stage, .. } => format!("stage:{stage}:{name}"),
            EventKind::Element { name, .. } => format!("element:{name}"),
            EventKind::BatchSplit { .. } => "batch_split".to_string(),
            EventKind::BatchMerge { .. } => "batch_merge".to_string(),
            EventKind::FlowCacheBatch { .. } => "flow_cache_batch".to_string(),
            EventKind::FlowCacheInvalidate { .. } => "flow_cache_invalidate".to_string(),
            EventKind::KernelLaunch { .. } => "kernel_launch".to_string(),
            EventKind::KernelTeardown { .. } => "kernel_teardown".to_string(),
            EventKind::Dma {
                to_device: true, ..
            } => "dma_h2d".to_string(),
            EventKind::Dma {
                to_device: false, ..
            } => "dma_d2h".to_string(),
            EventKind::SmOccupancy { .. } => "sm_occupancy".to_string(),
            EventKind::ResourceBusy { .. } => "resource_busy".to_string(),
            EventKind::ResourceName { .. } => "resource_name".to_string(),
            EventKind::PartitionPass { algo, .. } => format!("partition_pass:{algo}"),
            EventKind::PartitionDecision { algo, .. } => format!("partition_decision:{algo}"),
            EventKind::ControllerDecision { .. } => "controller_decision".to_string(),
            EventKind::Worker { .. } => "worker_unit".to_string(),
            EventKind::BatchIngress { .. } => "batch_ingress".to_string(),
            EventKind::BatchEgress { .. } => "batch_egress".to_string(),
            EventKind::BatchAttribution { .. } => "batch_attribution".to_string(),
            EventKind::Epoch { .. } => "epoch".to_string(),
            EventKind::SloBurn { .. } => "slo_burn".to_string(),
            EventKind::ModelDrift { .. } => "model_drift".to_string(),
            EventKind::ShardRange { .. } => "shard_range".to_string(),
            EventKind::LinkTransfer { .. } => "link_transfer".to_string(),
            EventKind::ClusterRebalance { .. } => "cluster_rebalance".to_string(),
            EventKind::FlowPoint { point, .. } => format!("flow_{point}"),
            EventKind::Session { state, .. } => format!("session_{state}"),
            EventKind::FlightDump { .. } => "flight_dump".to_string(),
        }
    }

    /// True for kinds rendered as Chrome complete spans (`ph:"X"`);
    /// everything else becomes an instant (`ph:"i"`).
    pub fn is_span(&self) -> bool {
        matches!(
            self,
            EventKind::Stage { .. }
                | EventKind::Element { .. }
                | EventKind::Worker { .. }
                | EventKind::ResourceBusy { .. }
                | EventKind::KernelLaunch { .. }
                | EventKind::Dma { .. }
                | EventKind::LinkTransfer { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotone() {
        let a = wall_now_ns();
        let b = wall_now_ns();
        assert!(b >= a);
    }

    #[test]
    fn words_outside_a_vocabulary_are_flagged() {
        let point = |point| EventKind::FlowPoint {
            flow: 1,
            point,
            server: 0,
            packets: 1,
        };
        assert!(FLOW_POINTS.iter().all(|&p| point(p).in_vocabulary()));
        assert!(!point("cache_batch").in_vocabulary());
        assert!(!EventKind::FlightDump {
            reason: "oom",
            events: 1
        }
        .in_vocabulary());
        assert!(EventKind::Epoch { epoch: 1 }.in_vocabulary());
    }

    #[test]
    fn categories_cover_required_taxonomy() {
        let cats = [
            EventKind::Stage {
                branch: 0,
                stage: 0,
                name: "fw".into(),
                packets: 1,
            }
            .category(),
            EventKind::Element {
                node: 0,
                name: "acl".into(),
                packets_in: 1,
                packets_out: 1,
            }
            .category(),
            EventKind::FlowCacheBatch { hits: 1, misses: 0 }.category(),
            EventKind::KernelLaunch {
                queue: 0,
                user: 0,
                bytes: 64,
                packets: 1,
                kernels: 1,
            }
            .category(),
            EventKind::PartitionPass {
                algo: "kl",
                pass: 0,
                moved: 2,
                cost_before: 10.0,
                cost_after: 8.0,
            }
            .category(),
        ];
        assert_eq!(cats, ["stage", "element", "flow-cache", "gpu", "partition"]);
        let cluster = [
            EventKind::ShardRange {
                epoch: 0,
                server: 0,
                start: 0,
                end: 1 << 32,
            },
            EventKind::LinkTransfer {
                link: 3,
                packets: 64,
                bytes: 4096,
            },
            EventKind::ClusterRebalance {
                epoch: 1,
                from: 0,
                to: 1,
                vnodes: 2,
                migrated_bytes: 1024,
                swap_ns: 5_000.0,
            },
        ];
        assert!(cluster.iter().all(|k| k.category() == "cluster"));
        assert!(cluster[1].is_span());
        assert!(!cluster[0].is_span() && !cluster[2].is_span());
    }

    #[test]
    fn flow_and_session_events_are_instants() {
        let flow = EventKind::FlowPoint {
            flow: 0xdead_beef,
            point: "ingress",
            server: 0,
            packets: 3,
        };
        assert_eq!(flow.category(), "flow");
        assert_eq!(flow.label(), "flow_ingress");
        assert!(!flow.is_span());
        let sess = EventKind::Session {
            state: "built",
            flow: 1,
            packets: 0,
            bytes: 0,
        };
        assert_eq!(sess.category(), "session");
        assert_eq!(sess.label(), "session_built");
        assert!(!sess.is_span());
        let dump = EventKind::FlightDump {
            reason: "slo_burn",
            events: 42,
        };
        assert_eq!(dump.category(), "flow");
        assert_eq!(dump.label(), "flight_dump");
        assert!(!dump.is_span());
    }

    #[test]
    fn sim_stamp_duration_clamps_negative() {
        let s = SimStamp {
            start_ns: 5.0,
            end_ns: 3.0,
        };
        assert_eq!(s.dur_ns(), 0.0);
    }
}
