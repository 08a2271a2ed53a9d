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
//! Every rack size runs every batch through one path, on one rack
//! state. Two proof obligations anchor it (tested in
//! `tests/cluster_differential.rs`):
//!
//! 1. **N=1 oracle identity** — a one-server rack has no fabric: its
//!    one shard is the batch itself (no split, no link charge, no
//!    arrival shift, no shard stamp), so the one path is proven to give
//!    egress bytes, packet order, simulated reports and per-element
//!    statistics byte-identical to [`Deployment::run_collect`] — under
//!    capacity, under tail-drop overload, and on a branching chain
//!    with the flow cache on.
//! 2. **Order preservation at any N** — flows are sticky to shards
//!    (one server per flow hash), each sub-batch preserves its packets'
//!    relative order, and [`Batch::merge_ordered`] restores the global
//!    sequence; rebalances happen strictly between batches, so no shift
//!    schedule can reorder or lose a flow's packets.

use std::collections::HashSet;

use nfc_core::{BatchResult, Deployment, PlatformResources, Policy, PreparedSfc, RunOutcome, Sfc};
use nfc_hetero::sim::StatsAccumulator;
use nfc_hetero::{CostModel, LinkSpec, PipelineSim, PlatformConfig, ResourceId, SimReport};
use nfc_packet::traffic::TrafficGenerator;
use nfc_packet::Batch;
use nfc_telemetry::{EventKind, Telemetry, TelemetryHandle, TelemetrySummary};

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

    fn run_sharded(
        &mut self,
        phases: &mut [TrafficGenerator],
        batches_per_phase: usize,
        collect: bool,
        forced_moves: &[(usize, u32, u32)],
    ) -> (ClusterOutcome, Vec<Batch>) {
        let tel = Telemetry::new(self.tenants[0].telemetry.clone());
        let handle = tel.handle();
        let mut rack = Rack::new(&self.spec, &mut self.tenants, &mut phases[0], &handle);
        let epoch_batches = self.spec.rebalance.epoch_batches.max(1);
        let mut egress = Vec::new();
        let mut traffic_clock = 0u64;
        let mut b = 0usize;
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
                    rack.apply_move(from, to);
                }
                let out = rack.run_batch(traffic.batch(rack.batch_size), &handle);
                if collect {
                    egress.extend(out);
                }
                if (b + 1).is_multiple_of(epoch_batches) {
                    rack.close_epoch();
                }
                b += 1;
            }
            traffic_clock = traffic_clock.max(traffic.now_ns());
            next_seq = next_seq.max(traffic.next_seq());
        }
        (rack.finish(tel, &handle), egress)
    }
}

/// Index of a server's ingress link endpoint in [`Server::links`].
const RX: usize = 0;
/// Index of a server's egress link endpoint in [`Server::links`].
const TX: usize = 1;

/// One server of a running rack.
struct Server {
    res: PlatformResources,
    prep: PreparedSfc,
    /// Link endpoints registered with the shared simulator, by [`RX`]
    /// and [`TX`].
    links: [ResourceId; 2],
    /// Busy time charged on each link endpoint.
    link_busy: [f64; 2],
    stats: StatsAccumulator,
    /// Batches processed since the last epoch boundary.
    window_batches: u64,
    /// Distinct flows landed here (recording only).
    flows: HashSet<u32>,
}

/// Everything one rack run mutates: the shared simulator, the ring,
/// every server, the controller, the cluster-level statistics and the
/// flow-forensics bookkeeping.
struct Rack<'a> {
    spec: &'a ClusterSpec,
    sim: PipelineSim,
    ring: HashRing,
    servers: Vec<Server>,
    controller: ClusterController,
    batch_size: usize,
    /// Latest cluster completion on the simulated timeline.
    now: f64,
    /// Cluster-level completions: a batch completes when its slowest
    /// shard clears the egress link.
    stats: StatsAccumulator,
    /// Shard moves applied, and the state bytes they migrated.
    rebalances: u64,
    migrated_bytes: u64,
    /// Shard moves attempted (numbers the rebalance events).
    rebalance_epoch: u64,
    /// Every sampled flow seen, in first-seen order: a ring move stamps
    /// `migrate` on those it re-owns. This, the pending migrates, each
    /// server's flow set and the cluster gauges are recording-gated:
    /// the off path never touches them.
    sampled_flows: Vec<u32>,
    /// Sampled flows a move re-owned, awaiting their next landing.
    pending_migrates: Vec<u32>,
}

impl<'a> Rack<'a> {
    /// One rack on a fresh simulator: every tenant prepared on
    /// `traffic`'s warm-up draw, and the initial shard map emitted.
    fn new(
        spec: &'a ClusterSpec,
        tenants: &mut [Deployment],
        traffic: &mut TrafficGenerator,
        handle: &TelemetryHandle,
    ) -> Self {
        let mut sim = PipelineSim::new();
        sim.set_recorder(handle.recorder());
        let mut rack = Rack {
            spec,
            sim,
            ring: HashRing::new(tenants.len(), spec.vnodes_per_server),
            servers: Vec::with_capacity(tenants.len()),
            controller: ClusterController::new(spec.rebalance),
            batch_size: tenants[0].batch_size,
            now: 0.0,
            stats: StatsAccumulator::new(),
            rebalances: 0,
            migrated_bytes: 0,
            rebalance_epoch: 0,
            sampled_flows: Vec::new(),
            pending_migrates: Vec::new(),
        };
        let mut user_base = 1u64;
        for dep in tenants.iter_mut() {
            rack.prepare_server(dep, traffic, &mut user_base, handle);
        }
        rack.emit_shard_map(0, 0.0);
        rack
    }

    /// Registers one server's platform, prepares its chain, then
    /// registers its link endpoints (after `prepare`, so a one-server
    /// rack lays out the single box's resources before its links).
    fn prepare_server(
        &mut self,
        dep: &mut Deployment,
        traffic: &mut TrafficGenerator,
        user_base: &mut u64,
        handle: &TelemetryHandle,
    ) {
        let s = self.servers.len();
        let res = PlatformResources::register(&mut self.sim, dep.model());
        let mut prep = dep.prepare(&mut self.sim, &res, traffic, &[], user_base, handle);
        // One server is the single box: its flow points say server 0
        // and its health gauges keep the single-box names.
        if self.spec.len() > 1 {
            prep.set_server(s as u32);
        }
        prep.snapshot_window();
        let links = [
            self.sim.add_resource(format!("link{s}-rx"), 0.0),
            self.sim.add_resource(format!("link{s}-tx"), 0.0),
        ];
        self.servers.push(Server {
            res,
            prep,
            links,
            link_busy: [0.0; 2],
            stats: StatsAccumulator::new(),
            window_batches: 0,
            flows: HashSet::new(),
        });
    }

    /// Charges one hop on server `s`'s link endpoint `dir` ([`RX`] or
    /// [`TX`]) no earlier than `at`, records its span and busy time, and
    /// returns when the hop ends.
    fn charge_link(&mut self, s: usize, dir: usize, at: f64, packets: usize, bytes: usize) -> f64 {
        let res = self.servers[s].links[dir];
        let ns = self.spec.link.transfer_ns(packets, bytes);
        let (start, end) = self.sim.schedule_span(res, at, ns, 0);
        self.servers[s].link_busy[dir] += end - start;
        let rec = self.sim.recorder_mut();
        if rec.is_enabled() {
            rec.sim_span(
                res.index() as u32,
                start,
                end,
                EventKind::LinkTransfer {
                    link: res.index() as u32,
                    packets: packets as u32,
                    bytes: bytes as u64,
                },
            );
        }
        end
    }

    /// Emits the full shard map as `ShardRange` instants (each arc on
    /// its owner's rx-link track).
    fn emit_shard_map(&mut self, epoch: u64, at_ns: f64) {
        if !self.sim.recorder_mut().is_enabled() {
            return;
        }
        for r in self.ring.shard_map() {
            let track = self.servers[r.server as usize].links[RX].index() as u32;
            self.sim.recorder_mut().sim_instant(
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

    /// Applies one shard move at the current instant through the
    /// two-phase swap: ring ownership flips between batches, the
    /// migrated state share is charged over both ends' links, and both
    /// ends' flow caches are invalidated. Every call opens a rebalance
    /// epoch; a move naming a server outside the rack, or one the ring
    /// refuses, changes nothing else.
    fn apply_move(&mut self, from: u32, to: u32) {
        self.rebalance_epoch += 1;
        let epoch = self.rebalance_epoch;
        let n = self.servers.len() as u32;
        if from >= n || to >= n {
            return;
        }
        let owners: Vec<u32> = self
            .sampled_flows
            .iter()
            .map(|&h| self.ring.server_for(h))
            .collect();
        let per_move = self.spec.rebalance.vnodes_per_move.max(1);
        let (vnodes, span) = self.ring.move_vnodes(from, to, per_move);
        if vnodes == 0 {
            return;
        }
        // The moved flows' share of the source server's stateful-NF
        // footprint ships over the wire: out the hot server's tx link,
        // into the cold server's rx link, serialized like any transfer.
        let (src, dst) = (from as usize, to as usize);
        let now = self.now;
        let frac = span as f64 / FLOW_SPACE as f64;
        let state = (self.servers[src].prep.state_bytes() as f64 * frac).ceil() as usize;
        let mut swap_end = now;
        if state > 0 {
            let pkts = state.div_ceil(MIGRATION_MTU);
            let sent = self.charge_link(src, TX, now, pkts, state);
            swap_end = self.charge_link(dst, RX, sent, pkts, state);
        }
        self.servers[src].prep.invalidate_flow_caches();
        self.servers[dst].prep.invalidate_flow_caches();
        let track = self.servers[src].links[TX].index() as u32;
        let rec = self.sim.recorder_mut();
        if rec.is_enabled() {
            rec.sim_instant(
                track,
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
        self.emit_shard_map(epoch, swap_end);
        // Sampled flows whose ring owner just changed get a `migrate`
        // point queued here and stamped on the *destination* server's
        // track when their next batch lands there. Deferring keeps each
        // per-track timeline exactly time-ordered: the rebalance
        // decision instant interleaves arbitrarily with per-server
        // delivery times, so stamping at decision (or transfer-end)
        // time would let the marker postdate the flow's next hand-off.
        // The transfer span itself lives in `cluster_rebalance::swap_ns`.
        for (&hash, owner) in self.sampled_flows.iter().zip(owners) {
            if self.ring.server_for(hash) != owner && !self.pending_migrates.contains(&hash) {
                self.pending_migrates.push(hash);
            }
        }
        self.rebalances += 1;
        self.migrated_bytes += state as u64;
    }

    /// Runs one cluster batch and returns its merged egress when some
    /// shard completed. Each server's shard crosses its rx link, runs
    /// the chain and crosses its tx link back. A one-server rack has no
    /// fabric: its one shard is the batch itself, and no link is
    /// charged.
    fn run_batch(&mut self, batch: Batch, handle: &TelemetryHandle) -> Option<Batch> {
        let first = batch.get(0).map(|p| p.meta.arrival_ns).unwrap_or(0) as f64;
        // Every later link hop, shard, ring move and batch starts at or
        // after the global batch's first arrival.
        self.sim.retire_before(first);
        let last = batch.iter().last().map(|p| p.meta.arrival_ns).unwrap_or(0) as f64;
        let mean_arrival = (first + last) / 2.0;
        let n = self.servers.len();
        let fabric = n > 1;
        // `split_by` counts a split in each part's lineage, so the one
        // server takes the batch as it came.
        let parts = if fabric {
            batch.split_by(n, |_, p| self.ring.server_for(p.meta.flow_hash) as usize)
        } else {
            vec![batch]
        };
        let mut outs: Vec<Batch> = Vec::with_capacity(n);
        let mut done = mean_arrival;
        for (s, mut part) in parts.into_iter().enumerate() {
            if part.is_empty() {
                continue;
            }
            if fabric {
                self.deliver(s, &mut part);
            }
            let server = &mut self.servers[s];
            server.window_batches += 1;
            match server.prep.process_batch(&mut self.sim, &server.res, part) {
                BatchResult::Completed {
                    mean_arrival: part_arrival,
                    completed,
                    out,
                } => {
                    // Egress hand-off back to the rack fabric.
                    let (len, bytes) = (out.len(), out.total_bytes());
                    let end = if fabric {
                        self.charge_link(s, TX, completed, len, bytes)
                    } else {
                        completed
                    };
                    self.servers[s]
                        .stats
                        .record_completion(part_arrival, end, len, bytes);
                    done = done.max(end);
                    outs.push(out);
                }
                BatchResult::Dropped {
                    mean_arrival: part_arrival,
                } => {
                    self.servers[s].stats.record_drop(part_arrival);
                    self.stats.record_drop(part_arrival);
                }
            }
        }
        self.now = self.now.max(done);
        if outs.is_empty() {
            return None;
        }
        let merged = Batch::merge_ordered(outs);
        handle.observe_ns("batch_latency_ns", done - mean_arrival);
        self.stats
            .record_completion(mean_arrival, done, merged.len(), merged.total_bytes());
        Some(merged)
    }

    /// Ingress hand-off of server `s`'s shard: it ships over the
    /// server's rx link, and the server cannot see its packets before
    /// the wire delivers them. With recording on, each sampled flow gets
    /// its `shard` point at the delivery instant, preceded by the
    /// `migrate` point a ring move queued for it, if any.
    fn deliver(&mut self, s: usize, part: &mut Batch) {
        let part_last = part.iter().last().map(|p| p.meta.arrival_ns).unwrap_or(0) as f64;
        let delivered = self.charge_link(s, RX, part_last, part.len(), part.total_bytes());
        let delivered_ns = delivered.ceil() as u64;
        for p in part.iter_mut() {
            p.meta.arrival_ns = p.meta.arrival_ns.max(delivered_ns);
        }
        if !self.sim.recorder_mut().is_enabled() {
            return;
        }
        let server = &mut self.servers[s];
        let mut sampled: Vec<(u32, u32)> = Vec::new();
        for p in part.iter() {
            server.flows.insert(p.meta.flow_hash);
            if server.prep.flow_sampled(p.meta.flow_hash) {
                match sampled.iter_mut().find(|(h, _)| *h == p.meta.flow_hash) {
                    Some((_, c)) => *c += 1,
                    None => sampled.push((p.meta.flow_hash, 1)),
                }
            }
        }
        let track = server.links[RX].index() as u32;
        for (hash, count) in sampled {
            if let Some(i) = self.pending_migrates.iter().position(|&h| h == hash) {
                self.pending_migrates.swap_remove(i);
                server
                    .prep
                    .stamp_flow_point(&mut self.sim, track, delivered, hash, "migrate", 0);
            }
            server
                .prep
                .stamp_flow_point(&mut self.sim, track, delivered, hash, "shard", count);
            if !self.sampled_flows.contains(&hash) {
                self.sampled_flows.push(hash);
            }
        }
    }

    /// Closes one rebalance epoch: per-server signatures roll up to one
    /// load vector, the controller decides hottest → coldest, and every
    /// server's observation window restarts.
    fn close_epoch(&mut self) {
        let loads: Vec<f64> = self
            .servers
            .iter()
            .map(|server| {
                let backlog = self.sim.backlog_ns(server.res.pcie_h2d, self.now);
                let sig = server.prep.epoch_signature(self.batch_size, backlog);
                let busy: f64 = sig.stages.iter().map(|st| st.cpu_ns + st.kernel_ns).sum();
                busy * server.window_batches as f64
            })
            .collect();
        if let Some(mv) = self.controller.observe(&loads) {
            self.apply_move(mv.from, mv.to);
        }
        for server in &mut self.servers {
            server.prep.snapshot_window();
            server.window_batches = 0;
        }
    }

    /// Publishes the cluster gauges (recording only) and folds the run
    /// into its outcome.
    fn finish(mut self, tel: Telemetry, handle: &TelemetryHandle) -> ClusterOutcome {
        if self.sim.recorder_mut().is_enabled() {
            // Cluster-plane gauges: how hot each NIC link ran over the
            // whole run, and how many distinct flows each shard owns.
            let span = self.now.max(1.0);
            for (s, server) in self.servers.iter().enumerate() {
                for (res, busy) in server.links.into_iter().zip(server.link_busy) {
                    let link = self.sim.resource_name(res);
                    handle.set_gauge(
                        &format!("cluster_link_busy_ratio{{link=\"{link}\"}}"),
                        busy / span,
                    );
                }
                handle.set_gauge(
                    &format!("cluster_shard_flows{{server=\"{s}\"}}"),
                    server.flows.len() as f64,
                );
            }
        }
        if let Some(rec) = self.sim.take_recorder() {
            handle.absorb(rec);
        }
        let report = self.stats.report();
        ClusterOutcome {
            per_server: self
                .servers
                .into_iter()
                .map(|s| s.prep.into_outcome(s.stats.report()))
                .collect(),
            egress_packets: report.packets,
            egress_bytes: report.bytes,
            report,
            rebalances: self.rebalances,
            migrated_bytes: self.migrated_bytes,
            shard_map: self.ring.shard_map(),
            telemetry: tel.finish(),
        }
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
