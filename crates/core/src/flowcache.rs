//! The flow-aware fast path: batch-level flow caching over compiled
//! element graphs.
//!
//! For stages whose element graph is fully verdict-capable (see
//! `nfc_click::Element::verdict_capable`), a batch's cache misses are
//! traced together through the elements' verdict columns, and each
//! flow's whole-graph outcome — the exact node/edge walk, annotations
//! and drop decision — is a [`FlowPath`], interned once per stage, whose
//! id is memoized under the flow's [`FlowKey`]. Every packet, hit or
//! miss, then takes its path in place in the ingress batch: each
//! distinct path replays its stats once for all of its packets, the
//! annotations are applied, and the packet kept or dropped without
//! running any element's `process`; a batch whose flows are all cached
//! traces nothing. Egress
//! bytes and per-element [`GraphStats`] are bit-identical to the slow
//! path; only elements' private telemetry (e.g. the firewall's denied
//! counter) and the temporal simulation can diverge.
//!
//! Invalidation is generation-based and configuration-hashed: the cache
//! stamps itself with the graph's `flow_config_hash` (which covers every
//! element signature — ACL rule tables hash their rules — plus the
//! wiring) and bulk-invalidates in O(1) whenever the stamp mismatches,
//! so mid-stream rule-table swaps can never serve stale verdicts.
//!
//! [`GraphStats`]: nfc_click::GraphStats

use nfc_click::{CompiledGraph, FlowPath, FlowTraces, NodeId};
use nfc_nf::flowcache::{CacheCounters, ClockTable};
use nfc_packet::batch::BatchLineage;
use nfc_packet::{Batch, FlowKey};
use nfc_telemetry::{EventKind, Recorder};

/// Whether deployments run the flow-aware fast path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowCacheMode {
    /// Every batch takes the slow path (baseline).
    Off,
    /// Cache-eligible stages memoize per-flow verdicts.
    On {
        /// Flow-table capacity per stage (entries).
        capacity: usize,
    },
}

impl FlowCacheMode {
    /// True when the fast path is enabled.
    pub fn is_on(&self) -> bool {
        matches!(self, FlowCacheMode::On { .. })
    }
}

/// Outcome of [`StageFlowCache::process`].
#[derive(Debug)]
pub struct CachedRun {
    /// The stage's egress batch (bit-identical to the slow path).
    pub out: Batch,
    /// Packets served from the cache.
    pub hits: u64,
    /// Packets that traversed the slow path (and filled the cache).
    pub misses: u64,
    /// Wire bytes of the packets that missed.
    pub miss_bytes: u64,
    /// Batch splits the slow path would add pushing the missed packets
    /// alone.
    pub miss_new_splits: u32,
    /// Batch merges the slow path would add pushing the missed packets
    /// alone.
    pub miss_new_merges: u32,
    /// True when the whole batch took the slow path (non-cacheable
    /// graph, non-IP packets, or an element declined a verdict).
    pub fell_back: bool,
}

/// One stage's flow table: a bounded CLOCK cache from flow key to the
/// id of a whole-graph [`FlowPath`], stamped with the graph
/// configuration it was filled under.
///
/// The paths themselves live once each in the stage's [`FlowTraces`],
/// which interns every distinct walk the stage's misses take: flows that
/// walk the graph the same way share one id, across batches too. The
/// store holds the distinct walks of the live configuration (route
/// lookups' next hops times ports, not flows) and starts over with the
/// table on a configuration swap or [`StageFlowCache::invalidate`].
#[derive(Debug, Clone)]
pub struct StageFlowCache {
    table: ClockTable<FlowKey, u32>,
    config_hash: u64,
    /// The interned paths, and the scratch of each batch's trace.
    traces: FlowTraces,
    // Scratch reused across batches: the steady state allocates nothing
    // per batch but the paths of walks never seen before.
    /// Per ingress packet: its path id (a miss's once traced).
    ids: Vec<u32>,
    /// Per hit, in ingress order: its row and the table slot it hit.
    hits: Vec<(u32, u32)>,
    /// Ingress rows that missed, in order: the rows `trace_flows` walks.
    miss_rows: Vec<u32>,
    credit: Credit,
    traffic: Traffic,
    /// Per node: the lineage its output carries this batch.
    lineage_out: Vec<Option<BatchLineage>>,
}

/// Per path id, the packets and bytes that take it this batch.
#[derive(Debug, Clone, Default)]
struct Credit {
    per_id: Vec<(u64, u64)>,
    /// The ids credited, each once, in first-credit order.
    ids: Vec<u32>,
}

impl Credit {
    fn add(&mut self, id: u32, bytes: u64) {
        let c = &mut self.per_id[id as usize];
        if c.0 == 0 {
            self.ids.push(id);
        }
        c.0 += 1;
        c.1 += bytes;
    }
}

/// What a batch's paths reach: per node and per edge whether any packet
/// did, and the `(node, port)` egress exits some packet leaves through.
#[derive(Debug, Clone)]
struct Traffic {
    nodes: Vec<bool>,
    edges: Vec<bool>,
    egress: Vec<(usize, usize)>,
}

impl Traffic {
    fn clear(&mut self) {
        self.nodes.iter_mut().for_each(|t| *t = false);
        self.edges.iter_mut().for_each(|t| *t = false);
        self.egress.clear();
    }

    /// Marks the nodes, edges and egress exit `path` touches.
    fn mark(&mut self, path: &FlowPath) {
        for hop in &path.hops {
            self.nodes[hop.node.0] = true;
            match (hop.port, hop.edge) {
                (_, Some(e)) => self.edges[e] = true,
                (Some(port), None) => {
                    if !self.egress.contains(&(hop.node.0, port)) {
                        self.egress.push((hop.node.0, port));
                    }
                }
                (None, None) => {} // dropped here
            }
        }
    }
}

impl StageFlowCache {
    /// Creates a cache for `run` with room for `capacity` flows.
    pub fn new(capacity: usize, run: &CompiledGraph) -> Self {
        let nodes = run.graph().node_count();
        StageFlowCache {
            table: ClockTable::with_capacity(capacity),
            config_hash: run.flow_config_hash(),
            traces: FlowTraces::default(),
            ids: Vec::new(),
            hits: Vec::new(),
            miss_rows: Vec::new(),
            credit: Credit::default(),
            traffic: Traffic {
                nodes: vec![false; nodes],
                edges: vec![false; run.graph().edges().len()],
                egress: Vec::new(),
            },
            lineage_out: vec![None; nodes],
        }
    }

    /// Aggregate hit/miss/eviction counters.
    pub fn counters(&self) -> CacheCounters {
        self.table.counters()
    }

    /// Explicit O(1) bulk invalidation with a generation bump, restamped
    /// against `run`'s current configuration — the epoch-swap hook: a
    /// plan change relocates elements across processors, so memoized
    /// verdicts must not survive into the new plan even though the
    /// functional configuration hash is unchanged.
    pub fn invalidate(&mut self, run: &CompiledGraph, rec: &mut Recorder) {
        self.config_hash = run.flow_config_hash();
        self.flush(rec);
    }

    /// Empties the table and the path store together (the table's ids
    /// name the store's paths).
    fn flush(&mut self, rec: &mut Recorder) {
        self.table.invalidate_all();
        self.traces.reset();
        rec.instant(EventKind::FlowCacheInvalidate {
            generation: self.table.generation(),
        });
    }

    /// Pure membership probe: whether `key` currently has a cached
    /// verdict. Touches no counters and no CLOCK referenced bits, so
    /// probing is invisible to the cache's replacement behaviour and to
    /// [`CacheCounters`] — the flow-forensics plane uses it to stamp
    /// `cache_hit`/`cache_miss` points without perturbing the run.
    pub fn probe(&self, key: &FlowKey) -> bool {
        self.table.peek(u64::from(key.hash()), key).is_some()
    }

    /// Live cached flows.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True if no flows are cached.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Distinct walks the path store holds.
    #[cfg(test)]
    fn interned_paths(&self) -> usize {
        self.traces.distinct().len()
    }

    /// Pushes `batch` through `run` via the fast path: cache hits skip
    /// straight to their memoized verdict, misses are traced together
    /// as one batch and take the paths just traced. Egress packets,
    /// their order, and `run`'s [`nfc_click::GraphStats`] are
    /// bit-identical to pushing the whole batch through the slow path.
    pub fn process(&mut self, run: &mut CompiledGraph, entry: NodeId, batch: Batch) -> CachedRun {
        self.process_traced(run, entry, batch, &mut Recorder::disabled())
    }

    /// [`StageFlowCache::process`] recording telemetry into `rec`: a
    /// [`EventKind::FlowCacheBatch`] instant per cache-path batch, a
    /// [`EventKind::FlowCacheInvalidate`] instant per configuration-swap
    /// bulk invalidation, and one per-element span per verdict column
    /// the misses' trace computes (none when every packet hits).
    pub fn process_traced(
        &mut self,
        run: &mut CompiledGraph,
        entry: NodeId,
        batch: Batch,
        rec: &mut Recorder,
    ) -> CachedRun {
        if !run.flow_cacheable() {
            return Self::fall_back(run, entry, batch, rec);
        }
        // Configuration swap (rule-table reload, rewire): O(1) bulk
        // invalidation, then restamp.
        if self.config_hash != run.flow_config_hash() {
            self.config_hash = run.flow_config_hash();
            self.flush(rec);
        }
        let mut batch = batch;
        // ---- one lanes view per batch, flow keys from it --------------
        // The view is memoized on the batch, and this path writes only
        // metadata and key memos, so the next cached stage finds both.
        let lanes = batch.shared_lanes();
        if batch.memoize_flow_keys(&lanes).is_err() {
            // Non-IP traffic: the whole batch takes the slow path so
            // ordering against its flow-mates is trivially preserved.
            return Self::fall_back(run, entry, batch, rec);
        }
        // ---- lookups against the pre-batch table state ---------------
        // Peeks only: counters and referenced bits move once the batch is
        // known to take the fast path, so a fallback leaves no trace.
        self.ids.clear();
        self.hits.clear();
        self.miss_rows.clear();
        for (row, pkt) in batch.iter().enumerate() {
            let key = pkt.cached_flow_key().expect("memoized above");
            match self.table.peek_slot(u64::from(key.hash()), &key) {
                Some((slot, &id)) => {
                    self.hits.push((row as u32, slot as u32));
                    self.ids.push(id);
                }
                None => {
                    self.miss_rows.push(row as u32);
                    self.ids.push(u32::MAX);
                }
            }
        }
        let (hits, misses) = (self.hits.len(), self.miss_rows.len());
        // ---- resolve every miss once: column verdicts, path ids --------
        // An all-hit batch traces nothing.
        if misses > 0 {
            if !run.trace_flows(
                entry,
                &batch,
                &lanes,
                &self.miss_rows,
                &mut self.traces,
                rec,
            ) {
                // An element declined a verdict: the untouched ingress
                // batch takes the slow path.
                return Self::fall_back(run, entry, batch, rec);
            }
            for (k, &row) in self.miss_rows.iter().enumerate() {
                self.ids[row as usize] = self.traces.path_id(k);
            }
        }
        // ---- account the lookups, then insert the misses --------------
        // Inserts only after every hit is committed: an insert may evict
        // a same-set entry, and every hit was classified against the
        // pre-batch table state.
        self.table.commit_lookups(
            self.hits.iter().map(|&(_, slot)| slot as usize),
            misses as u64,
        );
        for &row in &self.miss_rows {
            let pkt = batch.get(row as usize).expect("row of the batch");
            let key = pkt.cached_flow_key().expect("memoized above");
            self.table
                .insert(u64::from(key.hash()), key, self.ids[row as usize]);
        }
        // ---- credit every path with its packets and bytes --------------
        // The traffic the misses' paths mark is what pushing just the
        // misses through the slow path would reach; the simulated
        // split/merge charge reads its lineage.
        let paths = self.traces.distinct();
        self.credit.per_id.resize(paths.len(), (0, 0));
        self.credit.ids.clear();
        self.traffic.clear();
        let mut miss_bytes = 0;
        for &row in &self.miss_rows {
            let bytes = batch.get(row as usize).expect("row of the batch").len() as u64;
            miss_bytes += bytes;
            self.credit.add(self.ids[row as usize], bytes);
        }
        for &id in &self.credit.ids {
            self.traffic.mark(&paths[id as usize]);
        }
        let lineage_in = batch.lineage;
        let miss_lineage = self.simulate_lineage(run, entry, lineage_in);
        let traced = self.credit.ids.len();
        for &(row, _) in &self.hits {
            let bytes = batch.get(row as usize).expect("row of the batch").len() as u64;
            self.credit.add(self.ids[row as usize], bytes);
        }
        // Each distinct path replays its statistics once, for all of its
        // packets.
        let paths = self.traces.distinct();
        let mut dropped = false;
        for &id in &self.credit.ids[traced..] {
            self.traffic.mark(&paths[id as usize]);
        }
        for &id in &self.credit.ids {
            let path = &paths[id as usize];
            let (packets, bytes) = std::mem::take(&mut self.credit.per_id[id as usize]);
            run.replay_flow_stats(path, packets, bytes);
            dropped |= path.dropped;
        }
        // Batch counters: the slow path counts one batch per node that
        // receives non-empty input.
        for (i, _) in self.traffic.nodes.iter().enumerate().filter(|(_, &t)| t) {
            run.note_batch(NodeId(i));
        }
        // ---- apply every packet's path in place, in ingress order ------
        // Ingress order is the slow path's egress order: batches are
        // seq-sorted throughout the engine, and verdict-capable elements
        // neither reorder nor duplicate packets.
        for (meta, &id) in batch.metas_mut().zip(&self.ids) {
            for &(slot, value) in &paths[id as usize].annos {
                meta.anno[slot] = value;
            }
        }
        if dropped {
            let mut ids = self.ids.iter();
            batch.retain(|_| !paths[*ids.next().expect("one id per packet") as usize].dropped);
        }
        rec.instant(EventKind::FlowCacheBatch {
            hits: hits as u32,
            misses: misses as u32,
        });
        batch.lineage = self.simulate_lineage(run, entry, lineage_in);
        CachedRun {
            out: batch,
            hits: hits as u64,
            misses: misses as u64,
            miss_bytes,
            miss_new_splits: miss_lineage.splits.saturating_sub(lineage_in.splits),
            miss_new_merges: miss_lineage.merges.saturating_sub(lineage_in.merges),
            fell_back: false,
        }
    }

    /// Slow-path fallback for a whole batch.
    fn fall_back(
        run: &mut CompiledGraph,
        entry: NodeId,
        batch: Batch,
        rec: &mut Recorder,
    ) -> CachedRun {
        let out = run.push_merged_traced(entry, batch, rec);
        CachedRun {
            out,
            hits: 0,
            misses: 0,
            miss_bytes: 0,
            miss_new_splits: 0,
            miss_new_merges: 0,
            fell_back: true,
        }
    }

    /// Computes the lineage the slow path would stamp on the egress of
    /// the traffic marked so far: split counts
    /// bump at multi-output nodes,
    /// merges at nodes fed by several live edges and at the final
    /// egress merge — exactly `CompiledGraph::push_merged`'s accounting.
    fn simulate_lineage(
        &mut self,
        run: &CompiledGraph,
        entry: NodeId,
        lineage_in: BatchLineage,
    ) -> BatchLineage {
        let edges = run.graph().edges();
        let l_out = &mut self.lineage_out;
        l_out.iter_mut().for_each(|l| *l = None);
        // Egress parts so far, and the largest counts among them.
        let (mut parts, mut splits, mut merges) = (0usize, 0, 0);
        for &nid in run.order() {
            if !self.traffic.nodes[nid.0] {
                continue;
            }
            // Inbound lineages: the entry batch plus every live in-edge.
            let mut l_in: Option<BatchLineage> = (nid == entry).then_some(lineage_in);
            let mut merged = false;
            for (e_idx, e) in edges.iter().enumerate() {
                if e.to != nid || !self.traffic.edges[e_idx] {
                    continue;
                }
                let up = l_out[e.from.0].expect("topological order");
                l_in = Some(match l_in {
                    None => up,
                    Some(cur) => {
                        merged = true;
                        BatchLineage {
                            splits: cur.splits.max(up.splits),
                            merges: cur.merges.max(up.merges),
                        }
                    }
                });
            }
            let mut l = l_in.expect("reached node has inbound traffic");
            if merged {
                l.merges += 1;
            }
            // Multi-output verdict-capable elements route via split_by,
            // which stamps every part with one more split.
            if run.graph().element(nid).n_outputs() > 1 {
                l.splits += 1;
            }
            l_out[nid.0] = Some(l);
            // Live unwired ports of this node are egress parts.
            for port in 0..run.graph().element(nid).n_outputs() {
                if run.port_target(nid, port).is_none()
                    && self.traffic.egress.contains(&(nid.0, port))
                {
                    parts += 1;
                    splits = splits.max(l.splits);
                    merges = merges.max(l.merges);
                }
            }
        }
        // A single part passes through; several pay the egress merge.
        BatchLineage {
            splits,
            merges: merges + u32::from(parts > 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfc_click::element::{ElementActions, ElementClass, FlowVerdict, RunCtx};
    use nfc_click::elements::ProtocolClassifier;
    use nfc_click::{Element, ElementGraph};
    use nfc_nf::acl::{AclTable, Action, Rule};
    use nfc_nf::elements::{FirewallFilter, IpLookup, LoadBalancer, ANNO_NEXT_HOP};
    use nfc_nf::lpm::{Dir24_8, RouteV4};
    use nfc_packet::headers::ip_proto;
    use nfc_packet::Packet;
    use proptest::prelude::*;
    use std::sync::Arc;

    /// Destination port that [`DeclineMarked`] has no verdict for.
    const MARK: u16 = 9;

    /// Verdict-capable pass-through that declines a verdict for packets
    /// to port [`MARK`].
    #[derive(Debug, Clone)]
    struct DeclineMarked;

    impl Element for DeclineMarked {
        fn name(&self) -> &str {
            "decline-marked"
        }
        fn class(&self) -> ElementClass {
            ElementClass::Inspector
        }
        fn actions(&self) -> ElementActions {
            ElementActions::read_header()
        }
        fn process(&mut self, batch: Batch, _ctx: &mut RunCtx) -> Vec<Batch> {
            vec![batch]
        }
        fn verdict_capable(&self) -> bool {
            true
        }
        fn flow_verdict(&self, pkt: &Packet) -> Option<FlowVerdict> {
            let marked = pkt.five_tuple().is_ok_and(|t| t.dst_port == MARK);
            (!marked).then_some(FlowVerdict::Forward { port: 0 })
        }
    }

    fn flow(id: u8, dst_port: u16, seq: u64) -> Packet {
        let mut p = Packet::ipv4_udp([10, 0, 0, id], [10, 0, 1, id], 1000, dst_port, b"flow");
        p.meta.seq = seq;
        p
    }

    fn key(id: u8) -> FlowKey {
        flow(id, 53, 0).flow_key().expect("UDP flow")
    }

    /// A batch one element declines mid-trace takes the slow path whole
    /// and leaves the cache exactly as if it had never been looked up:
    /// same counters, same referenced bits (so the same later victims).
    #[test]
    fn declined_batch_falls_back_without_a_trace() {
        let mut g = ElementGraph::new();
        let cl = g.add(ProtocolClassifier::new("cl", vec![ip_proto::UDP]));
        let dm = g.add(DeclineMarked);
        g.connect(cl, 0, dm).unwrap();
        let mut run = g.compile().unwrap();
        assert!(run.flow_cacheable());
        // One 4-way set: five flows fill it and evict flow 3, which
        // leaves flows 2, 1, 0 unreferenced, in the hand's order.
        let mut cache = StageFlowCache::new(4, &run);
        let warm: Batch = (0..5).map(|id| flow(id, 53, u64::from(id))).collect();
        assert!(!cache.process(&mut run, cl, warm).fell_back);
        let live = |c: &StageFlowCache| (0..32).filter(|&id| c.probe(&key(id))).collect::<Vec<_>>();
        assert_eq!(live(&cache), [0, 1, 2, 4]);

        // The twin never sees the declined batch in its cache.
        let (mut twin, mut twin_run) = (cache.clone(), run.clone());
        let before = cache.counters();

        // A hit (flow 2), a plain miss and the marked miss.
        let mut declined: Batch = [flow(2, 53, 10), flow(7, 53, 11), flow(8, MARK, 12)]
            .into_iter()
            .collect();
        declined.lineage = BatchLineage {
            splits: 1,
            merges: 2,
        };
        let fast = cache.process(&mut run, cl, declined.clone());
        assert!(fast.fell_back);
        assert_eq!((fast.hits, fast.misses), (0, 0));
        assert_eq!(fast.out, twin_run.push_merged(cl, declined), "egress");
        assert_eq!(run.stats(), twin_run.stats(), "GraphStats");
        assert_eq!(cache.counters(), before, "CacheCounters");

        // Two more inserts take the hand's first two unreferenced
        // entries, flows 2 and 1 — had the declined batch's hit marked
        // flow 2 referenced, flows 1 and 0 would go instead.
        let next: Batch = [flow(20, 53, 20), flow(21, 53, 21)].into_iter().collect();
        let a = cache.process(&mut run, cl, next.clone());
        let b = twin.process(&mut twin_run, cl, next);
        assert_eq!(a.out, b.out);
        assert_eq!(cache.counters(), twin.counters());
        assert_eq!(live(&cache), live(&twin));
        assert_eq!(live(&cache), [0, 4, 20, 21]);
    }

    /// A splitting, merging, dropping, annotating graph: an enforcing
    /// firewall feeds a route lookup (two next hops over 10.0.0.0/16,
    /// so every packet the firewall passes is annotated), then — with
    /// `decline` — a [`DeclineMarked`] stage, then a four-way load
    /// balancer whose ports 0 and 1 join again at a protocol classifier;
    /// ports 2 and 3 and both classifier ports are graph egress.
    fn oracle_graph(rules: Vec<Rule>, decline: bool) -> (CompiledGraph, NodeId) {
        let mut g = ElementGraph::new();
        let acl = Arc::new(AclTable::new(rules, Action::Allow));
        let fw = g.add(FirewallFilter::new(acl, true));
        let route = |prefix, len, next_hop| RouteV4 {
            prefix,
            len,
            next_hop,
        };
        let routes = [route(0x0a00_0000, 16, 1), route(0x0a00_0200, 24, 2)];
        let lpm = Arc::new(Dir24_8::from_routes(&routes, 16));
        let lpm = g.add(IpLookup::new(lpm, 1));
        let lb = g.add(LoadBalancer::new("lb", 4));
        let cl = g.add(ProtocolClassifier::new("cl", vec![ip_proto::UDP]));
        g.connect(fw, 0, lpm).unwrap();
        if decline {
            let dm = g.add(DeclineMarked);
            g.connect(lpm, 0, dm).unwrap();
            g.connect(dm, 0, lb).unwrap();
        } else {
            g.connect(lpm, 0, lb).unwrap();
        }
        g.connect(lb, 0, cl).unwrap();
        g.connect(lb, 1, cl).unwrap();
        let run = g.compile().unwrap();
        assert!(run.flow_cacheable());
        (run, fw)
    }

    /// Flow `id`'s packet number `seq`: UDP or TCP by `id`, to
    /// `10.0.(id % 4).id`, with an `id`-dependent length; a `marked`
    /// flow goes to port [`MARK`] instead.
    fn oracle_pkt(id: u8, marked: bool, seq: u64) -> Packet {
        let (src, dst) = ([10, 1, 0, id], [10, 0, id % 4, id]);
        let payload = vec![id; usize::from(id % 7)];
        let sport = 1000 + u16::from(id);
        let mut p = if id.is_multiple_of(3) {
            Packet::ipv4_tcp(src, dst, sport, if marked { MARK } else { 80 }, &payload, 0)
        } else {
            Packet::ipv4_udp(src, dst, sport, if marked { MARK } else { 53 }, &payload)
        };
        p.meta.seq = seq;
        p
    }

    /// One packet of each flow in `flows`, numbered on from `seq`, with
    /// ingress lineage `(splits, merges)`.
    fn flows_batch(flows: &[(u8, bool)], seq: &mut u64, splits: u32, merges: u32) -> Batch {
        let mut b: Batch = flows
            .iter()
            .map(|&(id, marked)| {
                *seq += 1;
                oracle_pkt(id, marked, *seq)
            })
            .collect();
        b.lineage = BatchLineage { splits, merges };
        b
    }

    /// [`flows_batch`] of unmarked flows.
    fn oracle_batch(ids: &[u8], seq: &mut u64, splits: u32, merges: u32) -> Batch {
        let flows: Vec<_> = ids.iter().map(|&id| (id, false)).collect();
        flows_batch(&flows, seq, splits, merges)
    }

    /// One ACL rule per generated `(net, host, len, deny)`: allow or
    /// deny the `/len` destination prefix that covers `10.0.net.host`.
    fn oracle_rules(rules: Vec<(u8, u8, u8, bool)>) -> Vec<Rule> {
        rules
            .into_iter()
            .map(|(net, host, len, deny)| {
                let ip = u32::from_be_bytes([10, 0, net, host]);
                Rule {
                    dst: (ip & (u32::MAX << (32 - u32::from(len))), len),
                    ..Rule::any(if deny { Action::Deny } else { Action::Allow })
                }
            })
            .collect()
    }

    /// Denies 10.0.3.0/24: every flow with `id % 4 == 3`.
    fn deny_net3() -> Rule {
        Rule {
            dst: (u32::from_be_bytes([10, 0, 3, 0]), 24),
            ..Rule::any(Action::Deny)
        }
    }

    /// Runs `batch` through `cache` on `run` and checks it against the
    /// slow path. `twin`, the same graph never cached, must produce the
    /// same egress (lineage included) and the same `GraphStats`
    /// (batch counters included). The charge inputs must be those of
    /// the miss partition — the packets whose flows the cache did not
    /// hold — pushed alone through a scratch copy of the graph.
    fn assert_matches_slow_path(
        cache: &mut StageFlowCache,
        run: &mut CompiledGraph,
        twin: &mut CompiledGraph,
        entry: NodeId,
        batch: Batch,
    ) -> CachedRun {
        let mut miss: Batch = batch
            .iter()
            .cloned()
            .filter_map(|mut p| (!cache.probe(&p.flow_key().unwrap())).then_some(p))
            .collect();
        miss.lineage = batch.lineage;
        let (misses, miss_bytes) = (miss.len() as u64, miss.total_bytes() as u64);
        let miss_out = run.clone().push_merged(entry, miss);
        let fast = cache.process(run, entry, batch.clone());
        let slow = twin.push_merged(entry, batch.clone());
        assert!(!fast.fell_back);
        assert_eq!(fast.out, slow, "egress and lineage");
        assert_eq!(run.stats(), twin.stats(), "GraphStats");
        assert_eq!(
            (fast.hits + fast.misses, fast.misses, fast.miss_bytes),
            (batch.len() as u64, misses, miss_bytes),
            "hit/miss partition"
        );
        assert_eq!(
            (fast.miss_new_splits, fast.miss_new_merges),
            (
                miss_out.lineage.splits.saturating_sub(batch.lineage.splits),
                miss_out.lineage.merges.saturating_sub(batch.lineage.merges),
            ),
            "miss lineage"
        );
        fast
    }

    /// Cold, warm, mixed, all-dropped-miss and empty batches each equal
    /// the slow path on egress, statistics and the miss partition's
    /// split/merge charge.
    #[test]
    fn misses_resolve_once_and_equal_the_slow_path() {
        let (mut run, entry) = oracle_graph(vec![deny_net3()], false);
        let mut twin = run.clone();
        let mut cache = StageFlowCache::new(64, &run);
        let mut seq = 0;
        let mut batch = |ids: &[u8], splits, merges| oracle_batch(ids, &mut seq, splits, merges);
        let cold: Vec<u8> = (0..16).collect();
        let mixed: Vec<u8> = (8..24).collect();
        let dropped_misses = [1, 2, 31, 35, 39, 5];
        let cases = [
            ("cold", batch(&cold, 0, 0), 16),
            ("warm", batch(&cold, 1, 2), 0),
            ("mixed", batch(&mixed, 2, 0), 8),
            ("dropped misses", batch(&dropped_misses, 1, 1), 3),
            ("empty", batch(&[], 3, 1), 0),
        ];
        for (label, b, misses) in cases {
            let fast = assert_matches_slow_path(&mut cache, &mut run, &mut twin, entry, b);
            assert_eq!(fast.misses, misses, "{label}");
            if label == "dropped misses" {
                assert_eq!((fast.miss_new_splits, fast.miss_new_merges), (0, 0));
            }
        }
        assert!(run.stats().total_dropped() > 0, "the deny rule bites");
    }

    /// A batch whose every flow is cached runs no trace: one
    /// `FlowCacheBatch` instant, no `element` span, and still the slow
    /// path's egress — dropped flows gone, annotations written.
    #[test]
    fn an_all_hit_batch_runs_no_trace() {
        let (mut run, entry) = oracle_graph(vec![deny_net3()], false);
        let mut twin = run.clone();
        let mut cache = StageFlowCache::new(64, &run);
        let mut seq = 0;
        let ids: Vec<u8> = (0..16).collect();
        let cold = oracle_batch(&ids, &mut seq, 0, 0);
        assert_matches_slow_path(&mut cache, &mut run, &mut twin, entry, cold);

        let warm = oracle_batch(&ids, &mut seq, 1, 2);
        let slow = twin.push_merged(entry, warm.clone());
        let mut rec = Recorder::with_capacity(1 << 10);
        let fast = cache.process_traced(&mut run, entry, warm, &mut rec);
        assert_eq!((fast.hits, fast.misses, fast.fell_back), (16, 0, false));
        assert_eq!(fast.out, slow, "egress and lineage");
        assert_eq!(run.stats(), twin.stats(), "GraphStats");
        assert_eq!(fast.out.len(), 12, "flows 3, 7, 11 and 15 dropped");
        let hops: Vec<u64> = fast
            .out
            .iter()
            .map(|p| p.meta.anno[ANNO_NEXT_HOP])
            .collect();
        assert!(
            hops.contains(&2) && hops.contains(&3),
            "both next hops annotated"
        );
        let kinds: Vec<&EventKind> = rec.events().map(|e| &e.kind).collect();
        let batches = kinds
            .iter()
            .filter(|k| matches!(k, EventKind::FlowCacheBatch { .. }));
        assert_eq!(batches.count(), 1);
        let spans = kinds
            .iter()
            .filter(|k| matches!(k, EventKind::Element { .. }));
        assert_eq!(spans.count(), 0, "no verdict column computed");
    }

    /// Distinct walks the packets of `batches` take through `run`, by
    /// the per-packet trace.
    fn walks(run: &CompiledGraph, entry: NodeId, batches: &[Batch]) -> usize {
        let mut seen: Vec<FlowPath> = Vec::new();
        for p in batches.iter().flatten() {
            let path = run.trace_flow(entry, p).expect("verdict-capable graph");
            if !seen.contains(&path) {
                seen.push(path);
            }
        }
        seen.len()
    }

    /// A stage holds one path per distinct walk, not one per batch that
    /// took it: 32 batches of 8 new flows leave as many interned paths
    /// as the flows take walks. A rule-table swap and an explicit
    /// invalidation each start the store over, so it holds the walks of
    /// the live configuration only.
    #[test]
    fn paths_are_interned_once_per_walk() {
        let (mut run, entry) = oracle_graph(vec![deny_net3()], false);
        let mut cache = StageFlowCache::new(1024, &run);
        let mut seq = 0;
        let batches: Vec<Batch> = (0..32u8)
            .map(|b| {
                let ids: Vec<u8> = (0..8).map(|i| b * 8 + i).collect();
                oracle_batch(&ids, &mut seq, 0, 0)
            })
            .collect();
        for b in &batches {
            assert_eq!(cache.process(&mut run, entry, b.clone()).misses, 8);
        }
        let taken = walks(&run, entry, &batches);
        assert_eq!(cache.interned_paths(), taken);
        assert!(taken < batches.len(), "{taken} walks");

        // Without the deny rule the configuration hash moves: the flows
        // all miss again, and only the new configuration's walks remain.
        let (mut swapped, entry) = oracle_graph(Vec::new(), false);
        assert_ne!(swapped.flow_config_hash(), run.flow_config_hash());
        let later = &batches[..4];
        for b in later {
            assert_eq!(cache.process(&mut swapped, entry, b.clone()).misses, 8);
        }
        assert_eq!(cache.interned_paths(), walks(&swapped, entry, later));

        cache.invalidate(&swapped, &mut Recorder::disabled());
        assert_eq!(cache.interned_paths(), 0);
        cache.process(&mut swapped, entry, batches[5].clone());
        let live = walks(&swapped, entry, &batches[5..6]);
        assert_eq!(cache.interned_paths(), live);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Over arbitrary traffic, capacity and ACL rules, the charge
        /// inputs (`misses`, `miss_bytes`, `miss_new_splits`,
        /// `miss_new_merges`) equal the slow-path oracle's, batch after
        /// batch, while egress and statistics stay exact.
        #[test]
        fn charge_inputs_equal_the_slow_path_oracle(
            batches in proptest::collection::vec(
                (proptest::collection::vec(0u8..48, 0..40), 0u32..3, 0u32..3),
                1..6,
            ),
            capacity in 1usize..64,
            rules in proptest::collection::vec((0u8..4, 0u8..48, 24u8..=32, any::<bool>()), 0..6),
        ) {
            let (mut run, entry) = oracle_graph(oracle_rules(rules), false);
            let mut twin = run.clone();
            let mut cache = StageFlowCache::new(capacity, &run);
            let mut seq = 0;
            for (ids, splits, merges) in batches {
                let b = oracle_batch(&ids, &mut seq, splits, merges);
                assert_matches_slow_path(&mut cache, &mut run, &mut twin, entry, b);
            }
        }

        /// With a [`DeclineMarked`] stage mid-graph, a batch holding a
        /// marked flow the firewall passes falls back whole after the
        /// trace has started. Batch after batch, egress and `GraphStats`
        /// equal the slow path, and the cache's counters and live flows
        /// equal those of a twin cache that only saw the batches that took
        /// the fast path — so a fallback leaves no referenced bit behind,
        /// and the inserts of later batches (a final burst of fresh flows
        /// included) pick the same victims.
        #[test]
        fn declined_batches_equal_the_slow_path_and_leave_no_trace(
            batches in proptest::collection::vec(
                (proptest::collection::vec((0u8..48, 0u8..16), 0..40), 0u32..3, 0u32..3),
                1..8,
            ),
            capacity in 1usize..64,
            rules in proptest::collection::vec((0u8..4, 0u8..48, 24u8..=32, any::<bool>()), 0..6),
        ) {
            let (mut run, entry) = oracle_graph(oracle_rules(rules), true);
            let mut twin = run.clone();
            let mut cache = StageFlowCache::new(capacity, &run);
            let (mut shadow, mut shadow_run) = (cache.clone(), run.clone());
            let live = |c: &StageFlowCache| -> Vec<(u8, bool)> {
                (0..=u8::MAX)
                    .flat_map(|id| [(id, false), (id, true)])
                    .filter(|&(id, marked)| c.probe(&oracle_pkt(id, marked, 0).flow_key().unwrap()))
                    .collect()
            };
            let mut seq = 0;
            // About one packet in sixteen is marked.
            let mut batches: Vec<_> = batches
                .into_iter()
                .map(|(flows, splits, merges)| {
                    let flows: Vec<_> = flows.into_iter().map(|(id, m)| (id, m == 0)).collect();
                    flows_batch(&flows, &mut seq, splits, merges)
                })
                .collect();
            let fresh: Vec<u8> = (100..164).collect();
            batches.push(oracle_batch(&fresh, &mut seq, 0, 0));
            for b in batches {
                let fast = cache.process(&mut run, entry, b.clone());
                prop_assert_eq!(&fast.out, &twin.push_merged(entry, b.clone()), "egress");
                prop_assert_eq!(run.stats(), twin.stats(), "GraphStats");
                if fast.fell_back {
                    prop_assert_eq!((fast.hits, fast.misses), (0, 0));
                } else {
                    shadow.process(&mut shadow_run, entry, b);
                }
                prop_assert_eq!(cache.counters(), shadow.counters(), "CacheCounters");
                prop_assert_eq!(live(&cache), live(&shadow), "live flows");
            }
        }
    }
}
