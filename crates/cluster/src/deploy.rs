//! The rack runtime: one SFC deployed across N simulated heterogeneous
//! servers, joined by an inter-server link model.
//!
//! Execution keeps the repo's two-layer discipline intact across the
//! rack. *Functionally*, every packet still traverses real element
//! graphs — on whichever server owns it — and cluster egress is
//! re-merged in packet-sequence order, so per-flow order is preserved
//! by construction. *Temporally*, every machine's CPU cores, GPU
//! queues and PCIe links register with ONE shared [`PipelineSim`], and
//! shard hand-offs and state migrations are charged on per-server link
//! resources exactly like DMA is charged on `pcie-h2d` inside a box.
//!
//! Two proof obligations anchor the design (tested in
//! `tests/cluster_differential.rs`):
//!
//! 1. **N=1 oracle identity** — a one-server cluster takes the
//!    single-`Deployment` code path exactly (no split, no merge, no
//!    link charges, no arrival shifts), so egress bytes, packet order
//!    and per-element statistics are byte-identical to
//!    [`Deployment::run_collect`].
//! 2. **Order preservation at any N** — flows are sticky to shards
//!    (one server per flow hash), each sub-batch preserves its packets'
//!    relative order, and [`Batch::merge_ordered`] restores the global
//!    sequence; rebalances happen strictly between batches, so no shift
//!    schedule can reorder or lose a flow's packets.

use nfc_core::{BatchResult, Deployment, PlatformResources, Policy, PreparedSfc, RunOutcome, Sfc};
use nfc_hetero::sim::StatsAccumulator;
use nfc_hetero::{CostModel, LinkSpec, PipelineSim, PlatformConfig, ResourceId, SimReport};
use nfc_packet::traffic::TrafficGenerator;
use nfc_packet::Batch;
use nfc_telemetry::{EventKind, Telemetry, TelemetrySummary};

use crate::balance::{ClusterController, RebalanceConfig};
use crate::ring::{HashRing, ShardRange, FLOW_SPACE};

/// MTU used to convert migrated state bytes into link packets.
const MIGRATION_MTU: usize = 1500;

/// A simulated rack: per-server platforms plus the link joining them.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// One platform description per server (heterogeneity welcome).
    pub servers: Vec<PlatformConfig>,
    /// Inter-server link model, charged on the simulated timeline.
    pub link: LinkSpec,
    /// Virtual ring nodes per server (shard granularity).
    pub vnodes_per_server: usize,
    /// Live shard rebalancing policy (disabled = static map).
    pub rebalance: RebalanceConfig,
}

impl ClusterSpec {
    /// `n` identical Table-I servers on a 40 GbE rack link, 64 vnodes
    /// each, static map.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn uniform(n: usize) -> Self {
        assert!(n > 0, "a cluster needs at least one server");
        ClusterSpec {
            servers: vec![PlatformConfig::hpca18(); n],
            link: LinkSpec::rack_40g(),
            vnodes_per_server: 64,
            rebalance: RebalanceConfig::disabled(),
        }
    }

    /// Arms (or re-tunes) live shard rebalancing.
    pub fn with_rebalance(mut self, cfg: RebalanceConfig) -> Self {
        self.rebalance = cfg;
        self
    }

    /// Servers in the rack.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// True when the rack has no servers (an unusable spec).
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }
}

/// Outcome of a cluster run.
#[derive(Debug, Clone)]
pub struct ClusterOutcome {
    /// Aggregate temporal report (cluster-level completions: a batch
    /// completes when its slowest shard clears the egress link).
    pub report: SimReport,
    /// Per-server outcomes, each with its own temporal report and
    /// per-element statistics.
    pub per_server: Vec<RunOutcome>,
    /// Packets that left the cluster.
    pub egress_packets: u64,
    /// Wire bytes that left the cluster.
    pub egress_bytes: u64,
    /// Shard moves the controller (or a forced schedule) applied.
    pub rebalances: u64,
    /// Stateful-NF bytes migrated over the links by those moves.
    pub migrated_bytes: u64,
    /// Final shard map.
    pub shard_map: Vec<ShardRange>,
    /// End-of-run telemetry digest (`None` when telemetry is off).
    pub telemetry: Option<TelemetrySummary>,
}

/// Per-server link endpoints registered with the shared simulator.
struct ServerLinks {
    rx: ResourceId,
    tx: ResourceId,
}

/// One SFC deployed across a [`ClusterSpec`] rack.
pub struct ClusterDeployment {
    spec: ClusterSpec,
    /// One full-chain deployment per server.
    tenants: Vec<Deployment>,
}

impl ClusterDeployment {
    /// Deploys `sfc` under `policy` on every server of the rack.
    /// `configure` is applied to every per-server [`Deployment`] (batch
    /// size, exec mode, telemetry, …) so the N=1 differential can build
    /// the cluster and its oracle from the same closure.
    ///
    /// # Panics
    ///
    /// Panics if the spec has no servers.
    pub fn build(
        spec: ClusterSpec,
        sfc: &Sfc,
        policy: Policy,
        configure: impl Fn(Deployment) -> Deployment,
    ) -> Self {
        assert!(!spec.is_empty(), "a cluster needs at least one server");
        let tenants = spec
            .servers
            .iter()
            .map(|p| {
                configure(Deployment::with_model(
                    sfc.clone(),
                    policy,
                    CostModel::new(*p),
                ))
            })
            .collect();
        ClusterDeployment { spec, tenants }
    }

    /// The rack description.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Runs `n_batches` batches from `traffic` across the rack.
    pub fn run(&mut self, traffic: &mut TrafficGenerator, n_batches: usize) -> ClusterOutcome {
        self.run_collect(traffic, n_batches).0
    }

    /// Like [`ClusterDeployment::run`], additionally returning every
    /// cluster egress batch in completion order (the differential
    /// tests' handle).
    pub fn run_collect(
        &mut self,
        traffic: &mut TrafficGenerator,
        n_batches: usize,
    ) -> (ClusterOutcome, Vec<Batch>) {
        self.run_sharded(std::slice::from_mut(traffic), n_batches, true, &[])
    }

    /// Runs a sequence of traffic *phases* on one continuous timeline
    /// (`batches_per_phase` cluster batches each) — the benign→hostile
    /// sweep shape. Phase boundaries advance each generator to the
    /// previous phase's traffic clock and sequence number, so arrivals
    /// stay monotone and no sequence number (an ESP number) repeats.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty.
    pub fn run_phased(
        &mut self,
        phases: &mut [TrafficGenerator],
        batches_per_phase: usize,
    ) -> ClusterOutcome {
        assert!(!phases.is_empty(), "need at least one phase");
        self.run_sharded(phases, batches_per_phase, false, &[]).0
    }

    /// Run with a *forced* rebalance schedule: before batch `i`, each
    /// `(i, from, to)` entry moves one ring vnode from `from` to `to`
    /// through the full two-phase swap (state migration charged over the
    /// links, flow caches invalidated on both ends). The
    /// order-preservation proptest drives arbitrary schedules through
    /// this; the live controller path shares the same apply code.
    pub fn run_with_moves(
        &mut self,
        traffic: &mut TrafficGenerator,
        n_batches: usize,
        moves: &[(usize, u32, u32)],
    ) -> (ClusterOutcome, Vec<Batch>) {
        self.run_sharded(std::slice::from_mut(traffic), n_batches, true, moves)
    }

    /// Registers one server's platform, prepares its chain, then
    /// registers its link endpoints (after `prepare` so the N=1 resource
    /// layout matches the single-box oracle exactly up to the links).
    #[allow(clippy::too_many_arguments)]
    fn prepare_server(
        dep: &mut Deployment,
        sim: &mut PipelineSim,
        traffic: &mut TrafficGenerator,
        user_base: &mut u64,
        handle: &nfc_telemetry::TelemetryHandle,
        server: usize,
    ) -> (PlatformResources, PreparedSfc, ServerLinks) {
        let res = PlatformResources::register(sim, dep.model());
        let prep = dep.prepare(sim, &res, traffic, &[], user_base, handle);
        let links = ServerLinks {
            rx: sim.add_resource(format!("link{server}-rx"), 0.0),
            tx: sim.add_resource(format!("link{server}-tx"), 0.0),
        };
        (res, prep, links)
    }

    /// Charges one link hop and records its span.
    fn charge_link(
        sim: &mut PipelineSim,
        link: &LinkSpec,
        res: ResourceId,
        earliest: f64,
        packets: usize,
        bytes: usize,
    ) -> (f64, f64) {
        let span = sim.schedule_span(res, earliest, link.transfer_ns(packets, bytes), 0);
        let rec = sim.recorder_mut();
        if rec.is_enabled() {
            rec.sim_span(
                res.index() as u32,
                span.0,
                span.1,
                EventKind::LinkTransfer {
                    link: res.index() as u32,
                    packets: packets as u32,
                    bytes: bytes as u64,
                },
            );
        }
        span
    }

    /// Emits the full shard map as `ShardRange` instants (each arc on
    /// its owner's rx-link track).
    fn emit_shard_map(
        sim: &mut PipelineSim,
        links: &[ServerLinks],
        ring: &HashRing,
        epoch: u64,
        at_ns: f64,
    ) {
        if !sim.recorder_mut().is_enabled() {
            return;
        }
        for r in ring.shard_map() {
            let track = links[r.server as usize].rx.index() as u32;
            sim.recorder_mut().sim_instant(
                track,
                at_ns,
                EventKind::ShardRange {
                    epoch,
                    server: r.server,
                    start: r.start,
                    end: r.end,
                },
            );
        }
    }

    /// Applies one shard move through the two-phase swap: ring
    /// ownership flips between batches, the migrated state share is
    /// charged over both ends' links, and both ends' flow caches are
    /// invalidated. Returns `(vnodes moved, migrated bytes)` —
    /// `(0, 0)` when the move was a no-op.
    #[allow(clippy::too_many_arguments)]
    fn apply_move(
        sim: &mut PipelineSim,
        spec: &ClusterSpec,
        ring: &mut HashRing,
        preps: &mut [PreparedSfc],
        links: &[ServerLinks],
        from: u32,
        to: u32,
        now: f64,
        epoch: u64,
        sampled_flows: &[u32],
        pending_migrates: &mut Vec<u32>,
        link_busy: &mut [f64],
    ) -> (usize, u64) {
        let n = preps.len() as u32;
        if from >= n || to >= n {
            return (0, 0);
        }
        let owners: Vec<u32> = sampled_flows.iter().map(|&h| ring.server_for(h)).collect();
        let (vnodes, span) = ring.move_vnodes(from, to, spec.rebalance.vnodes_per_move.max(1));
        if vnodes == 0 {
            return (0, 0);
        }
        // The moved flows' share of the source server's stateful-NF
        // footprint ships over the wire: out the hot server's tx link,
        // into the cold server's rx link, serialized like any transfer.
        let frac = span as f64 / FLOW_SPACE as f64;
        let state = (preps[from as usize].state_bytes() as f64 * frac).ceil() as usize;
        let mut swap_end = now;
        if state > 0 {
            let pkts = state.div_ceil(MIGRATION_MTU);
            let (s1, e1) =
                Self::charge_link(sim, &spec.link, links[from as usize].tx, now, pkts, state);
            let (s2, e2) =
                Self::charge_link(sim, &spec.link, links[to as usize].rx, e1, pkts, state);
            link_busy[from as usize * 2 + 1] += e1 - s1;
            link_busy[to as usize * 2] += e2 - s2;
            swap_end = e2;
        }
        preps[from as usize].invalidate_flow_caches();
        preps[to as usize].invalidate_flow_caches();
        let rec = sim.recorder_mut();
        if rec.is_enabled() {
            rec.sim_instant(
                links[from as usize].tx.index() as u32,
                now,
                EventKind::ClusterRebalance {
                    epoch,
                    from,
                    to,
                    vnodes: vnodes as u32,
                    migrated_bytes: state as u64,
                    swap_ns: swap_end - now,
                },
            );
        }
        Self::emit_shard_map(sim, links, ring, epoch, swap_end);
        // Sampled flows whose ring owner just changed get a `migrate`
        // point queued here and stamped on the *destination* server's
        // track when their next batch lands there. Deferring keeps each
        // per-track timeline exactly time-ordered: the rebalance
        // decision instant interleaves arbitrarily with per-server
        // delivery times, so stamping at decision (or transfer-end)
        // time would let the marker postdate the flow's next hand-off.
        // The transfer span itself lives in `cluster_rebalance::swap_ns`.
        for (&hash, owner) in sampled_flows.iter().zip(owners) {
            if ring.server_for(hash) != owner && !pending_migrates.contains(&hash) {
                pending_migrates.push(hash);
            }
        }
        (vnodes, state as u64)
    }

    fn run_sharded(
        &mut self,
        phases: &mut [TrafficGenerator],
        batches_per_phase: usize,
        collect: bool,
        forced_moves: &[(usize, u32, u32)],
    ) -> (ClusterOutcome, Vec<Batch>) {
        let n = self.tenants.len();
        let tel = Telemetry::new(self.tenants[0].telemetry.clone());
        let handle = tel.handle();
        let mut sim = PipelineSim::new();
        sim.set_recorder(handle.recorder());
        let recording = sim.recorder_mut().is_enabled();
        let mut user_base = 1u64;
        let mut res = Vec::with_capacity(n);
        let mut preps = Vec::with_capacity(n);
        let mut links = Vec::with_capacity(n);
        for (s, dep) in self.tenants.iter_mut().enumerate() {
            let (r, mut p, l) =
                Self::prepare_server(dep, &mut sim, &mut phases[0], &mut user_base, &handle, s);
            // One server is the single box: its flow points say server 0
            // and its health gauges keep the single-box names.
            if n > 1 {
                p.set_server(s as u32);
            }
            res.push(r);
            preps.push(p);
            links.push(l);
        }
        let mut ring = HashRing::new(n, self.spec.vnodes_per_server);
        Self::emit_shard_map(&mut sim, &links, &ring, 0, 0.0);
        let batch_size = self.tenants[0].batch_size;
        let mut cluster_stats = StatsAccumulator::new();
        let mut server_stats: Vec<StatsAccumulator> =
            (0..n).map(|_| StatsAccumulator::new()).collect();
        let mut controller = ClusterController::new(self.spec.rebalance);
        let epoch_batches = self.spec.rebalance.epoch_batches.max(1);
        let mut window_batches = vec![0u64; n];
        for p in preps.iter_mut() {
            p.snapshot_window();
        }
        let mut egress = Vec::new();
        let (mut egress_packets, mut egress_bytes) = (0u64, 0u64);
        let (mut rebalances, mut migrated_bytes) = (0u64, 0u64);
        let mut rebalance_epoch = 0u64;
        let mut now = 0f64;
        let mut traffic_clock = 0u64;
        let mut b = 0usize;
        // Forensics/observability bookkeeping: every sampled flow seen,
        // in first-seen order (a ring move stamps `migrate` on those it
        // re-owns), per-link busy time, and distinct flows landed per
        // server (for the cluster gauges). All recording-gated: the off
        // path never touches them.
        let mut sampled_flows: Vec<u32> = Vec::new();
        let mut pending_migrates: Vec<u32> = Vec::new();
        let mut link_busy: Vec<f64> = vec![0.0; 2 * n];
        let mut server_flows: Vec<std::collections::HashSet<u32>> =
            (0..n).map(|_| std::collections::HashSet::new()).collect();
        // Each later phase continues the one before it, clock and
        // numbering: a sequence number is an ESP number and IV, and must
        // not repeat.
        let mut next_seq = 0u64;
        for (pi, traffic) in phases.iter_mut().enumerate() {
            if pi > 0 {
                traffic.advance_to(traffic_clock);
                traffic.advance_seq_to(next_seq);
            }
            for _ in 0..batches_per_phase {
                for &(_, from, to) in forced_moves.iter().filter(|&&(at, _, _)| at == b) {
                    rebalance_epoch += 1;
                    let (vn, m) = Self::apply_move(
                        &mut sim,
                        &self.spec,
                        &mut ring,
                        &mut preps,
                        &links,
                        from,
                        to,
                        now,
                        rebalance_epoch,
                        &sampled_flows,
                        &mut pending_migrates,
                        &mut link_busy,
                    );
                    if vn > 0 {
                        rebalances += 1;
                        migrated_bytes += m;
                    }
                }
                let batch = traffic.batch(batch_size);
                let first = batch.get(0).map(|p| p.meta.arrival_ns).unwrap_or(0) as f64;
                // Every later link hop, shard, ring move and batch starts
                // at or after the global batch's first arrival.
                sim.retire_before(first);
                let last = batch.iter().last().map(|p| p.meta.arrival_ns).unwrap_or(0) as f64;
                let mean_arrival = (first + last) / 2.0;
                if n == 1 {
                    // Single server: the oracle path, bit for bit — no
                    // split, no merge, no link charges, no arrival shifts.
                    match preps[0].process_batch(&mut sim, &res[0], batch) {
                        BatchResult::Completed {
                            mean_arrival,
                            completed,
                            out,
                        } => {
                            handle.observe_ns("batch_latency_ns", completed - mean_arrival);
                            now = now.max(completed);
                            egress_packets += out.len() as u64;
                            egress_bytes += out.total_bytes() as u64;
                            cluster_stats.record_completion(
                                mean_arrival,
                                completed,
                                out.len(),
                                out.total_bytes(),
                            );
                            server_stats[0].record_completion(
                                mean_arrival,
                                completed,
                                out.len(),
                                out.total_bytes(),
                            );
                            if collect {
                                egress.push(out);
                            }
                        }
                        BatchResult::Dropped { mean_arrival } => {
                            cluster_stats.record_drop(mean_arrival);
                            server_stats[0].record_drop(mean_arrival);
                        }
                    }
                    window_batches[0] += 1;
                } else {
                    let parts =
                        batch.split_by(n, |_, p| ring.server_for(p.meta.flow_hash) as usize);
                    let mut outs: Vec<Batch> = Vec::with_capacity(n);
                    let mut cluster_done = mean_arrival;
                    let mut any_completion = false;
                    for (s, mut part) in parts.into_iter().enumerate() {
                        if part.is_empty() {
                            continue;
                        }
                        // Ingress hand-off: the shard ships over the
                        // server's rx link; its packets cannot be seen by
                        // the server before the wire delivers them.
                        let part_last =
                            part.iter().last().map(|p| p.meta.arrival_ns).unwrap_or(0) as f64;
                        let (rx_start, delivered) = Self::charge_link(
                            &mut sim,
                            &self.spec.link,
                            links[s].rx,
                            part_last,
                            part.len(),
                            part.total_bytes(),
                        );
                        link_busy[s * 2] += delivered - rx_start;
                        let delivered_ns = delivered.ceil() as u64;
                        for i in 0..part.len() {
                            if let Some(p) = part.get_mut(i) {
                                if p.meta.arrival_ns < delivered_ns {
                                    p.meta.arrival_ns = delivered_ns;
                                }
                            }
                        }
                        if recording {
                            // Stamp the shard hand-off for sampled flows at
                            // the instant the wire delivered them, and note
                            // each flow so a later ring move can stamp
                            // `migrate` on the destination track.
                            let mut sampled: Vec<(u32, u32)> = Vec::new();
                            for p in part.iter() {
                                server_flows[s].insert(p.meta.flow_hash);
                                if preps[s].flow_sampled(p.meta.flow_hash) {
                                    match sampled.iter_mut().find(|(h, _)| *h == p.meta.flow_hash) {
                                        Some((_, c)) => *c += 1,
                                        None => sampled.push((p.meta.flow_hash, 1)),
                                    }
                                }
                            }
                            let track = links[s].rx.index() as u32;
                            for (hash, count) in sampled {
                                // A queued ring move materializes as a
                                // `migrate` point the instant the flow's
                                // next batch lands on its new owner.
                                if let Some(i) = pending_migrates.iter().position(|&h| h == hash) {
                                    pending_migrates.swap_remove(i);
                                    preps[s].stamp_flow_point(
                                        &mut sim, track, delivered, hash, "migrate", 0,
                                    );
                                }
                                preps[s].stamp_flow_point(
                                    &mut sim, track, delivered, hash, "shard", count,
                                );
                                if !sampled_flows.contains(&hash) {
                                    sampled_flows.push(hash);
                                }
                            }
                        }
                        match preps[s].process_batch(&mut sim, &res[s], part) {
                            BatchResult::Completed {
                                mean_arrival: part_arrival,
                                completed,
                                out,
                            } => {
                                // Egress hand-off back to the rack fabric.
                                let (tx_start, e) = Self::charge_link(
                                    &mut sim,
                                    &self.spec.link,
                                    links[s].tx,
                                    completed,
                                    out.len(),
                                    out.total_bytes(),
                                );
                                link_busy[s * 2 + 1] += e - tx_start;
                                server_stats[s].record_completion(
                                    part_arrival,
                                    e,
                                    out.len(),
                                    out.total_bytes(),
                                );
                                cluster_done = cluster_done.max(e);
                                any_completion = true;
                                outs.push(out);
                            }
                            BatchResult::Dropped {
                                mean_arrival: part_arrival,
                            } => {
                                server_stats[s].record_drop(part_arrival);
                                cluster_stats.record_drop(part_arrival);
                            }
                        }
                        window_batches[s] += 1;
                    }
                    now = now.max(cluster_done);
                    if any_completion {
                        let merged = Batch::merge_ordered(outs);
                        handle.observe_ns("batch_latency_ns", cluster_done - mean_arrival);
                        egress_packets += merged.len() as u64;
                        egress_bytes += merged.total_bytes() as u64;
                        cluster_stats.record_completion(
                            mean_arrival,
                            cluster_done,
                            merged.len(),
                            merged.total_bytes(),
                        );
                        if collect {
                            egress.push(merged);
                        }
                    }
                }
                // Cluster epoch: per-server signatures roll up to one load
                // vector; the controller decides hottest → coldest.
                if (b + 1).is_multiple_of(epoch_batches) {
                    let loads: Vec<f64> = preps
                        .iter()
                        .enumerate()
                        .map(|(s, p)| {
                            let sig =
                                p.epoch_signature(batch_size, sim.backlog_ns(res[s].pcie_h2d, now));
                            let busy: f64 =
                                sig.stages.iter().map(|st| st.cpu_ns + st.kernel_ns).sum();
                            busy * window_batches[s] as f64
                        })
                        .collect();
                    if let Some(mv) = controller.observe(&loads) {
                        rebalance_epoch += 1;
                        let (vn, m) = Self::apply_move(
                            &mut sim,
                            &self.spec,
                            &mut ring,
                            &mut preps,
                            &links,
                            mv.from,
                            mv.to,
                            now,
                            rebalance_epoch,
                            &sampled_flows,
                            &mut pending_migrates,
                            &mut link_busy,
                        );
                        if vn > 0 {
                            rebalances += 1;
                            migrated_bytes += m;
                        }
                    }
                    for (s, p) in preps.iter_mut().enumerate() {
                        p.snapshot_window();
                        window_batches[s] = 0;
                    }
                }
                b += 1;
            }
            traffic_clock = traffic_clock.max(traffic.now_ns());
            next_seq = next_seq.max(traffic.next_seq());
        }
        if recording {
            // Cluster-plane gauges: how hot each NIC link ran over the
            // whole run, and how many distinct flows each shard owns.
            let span = now.max(1.0);
            for (s, link) in links.iter().enumerate() {
                for (slot, res_id) in [(s * 2, link.rx), (s * 2 + 1, link.tx)] {
                    handle.set_gauge(
                        &format!(
                            "cluster_link_busy_ratio{{link=\"{}\"}}",
                            sim.resource_name(res_id)
                        ),
                        link_busy[slot] / span,
                    );
                }
                handle.set_gauge(
                    &format!("cluster_shard_flows{{server=\"{s}\"}}"),
                    server_flows[s].len() as f64,
                );
            }
        }
        if let Some(rec) = sim.take_recorder() {
            handle.absorb(rec);
        }
        let per_server: Vec<RunOutcome> = preps
            .into_iter()
            .zip(server_stats)
            .map(|(p, s)| p.into_outcome(s.report()))
            .collect();
        let outcome = ClusterOutcome {
            report: cluster_stats.report(),
            per_server,
            egress_packets,
            egress_bytes,
            rebalances,
            migrated_bytes,
            shard_map: ring.shard_map(),
            telemetry: tel.finish(),
        };
        (outcome, egress)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfc_nf::Nf;
    use nfc_packet::traffic::{SizeDist, TrafficSpec};
    use nfc_telemetry::{SloSpec, TelemetryMode};

    /// The health gauges of `n` servers sharing one telemetry session.
    fn health_gauges(n: usize) -> Vec<String> {
        let sfc = Sfc::new("fw", vec![Nf::firewall("fw", 100, 1)]);
        let slo = SloSpec {
            p99_latency_ns: 1.0,
            epoch_batches: 2,
            ..Default::default()
        };
        let mut rack =
            ClusterDeployment::build(ClusterSpec::uniform(n), &sfc, Policy::CpuOnly, |d| {
                d.with_batch_size(128)
                    .with_telemetry(TelemetryMode::Memory)
                    .with_slo(slo)
            });
        let traffic = TrafficSpec::udp(SizeDist::Fixed(512));
        let out = rack.run(&mut TrafficGenerator::new(traffic, 5), 16);
        let digest = out.telemetry.expect("memory telemetry digest");
        digest
            .gauges
            .into_iter()
            .map(|(name, _)| name)
            .filter(|name| name.starts_with("health_e2e_ns{quantile=\"0.99\""))
            .collect()
    }

    /// Each server of a rack publishes its own health series; one
    /// server keeps the single-box names.
    #[test]
    fn rack_servers_publish_their_own_health_gauges() {
        assert_eq!(
            health_gauges(2),
            [
                "health_e2e_ns{quantile=\"0.99\",server=\"0\"}",
                "health_e2e_ns{quantile=\"0.99\",server=\"1\"}",
            ]
        );
        assert_eq!(health_gauges(1), ["health_e2e_ns{quantile=\"0.99\"}"]);
    }
}
