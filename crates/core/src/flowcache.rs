//! The flow-aware fast path: batch-level flow caching over compiled
//! element graphs.
//!
//! For stages whose element graph is fully verdict-capable (see
//! `nfc_click::Element::verdict_capable`), the first packet of each flow
//! walks the slow path while its whole-graph outcome — the exact
//! node/edge walk, annotations and drop decision — is memoized as a
//! [`FlowPath`] keyed by the packet's [`FlowKey`]. Subsequent packets of
//! the flow skip straight to the verdict: statistics are replayed, the
//! same annotations applied, and the packet forwarded or dropped without
//! touching any element. Egress bytes and per-element [`GraphStats`] are
//! bit-identical to the slow path; only elements' private telemetry
//! (e.g. the firewall's denied counter) and the temporal simulation can
//! diverge.
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
use nfc_packet::{Batch, FlowKey, Packet};
use nfc_telemetry::{EventKind, Recorder};
use std::sync::Arc;

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
    /// Wire bytes of the miss partition.
    pub miss_bytes: u64,
    /// Batch splits incurred by the miss partition's slow-path walk.
    pub miss_new_splits: u32,
    /// Batch merges incurred by the miss partition's slow-path walk.
    pub miss_new_merges: u32,
    /// True when the whole batch took the slow path (non-cacheable
    /// graph, non-IP packets, or an element declined a verdict).
    pub fell_back: bool,
}

/// One stage's flow table: a bounded CLOCK cache of whole-graph
/// [`FlowPath`]s stamped with the graph configuration it was filled
/// under. Flows that walk the graph the same way share one path.
#[derive(Debug, Clone)]
pub struct StageFlowCache {
    table: ClockTable<FlowKey, Arc<FlowPath>>,
    config_hash: u64,
    // Scratch reused across batches so the steady state allocates
    // nothing per batch beyond the two batches handed on (the miss
    // partition and the egress) and the distinct new paths.
    keys: Vec<FlowKey>,
    /// Per ingress packet: the table entry it hit, if any.
    lookups: Vec<Option<Hit>>,
    /// Hit packets in ingress order; doubles as the egress assembly
    /// buffer.
    hit_pkts: Vec<Packet>,
    /// `0..misses`: the rows handed to `trace_flows` (all of them).
    miss_rows: Vec<u32>,
    traces: FlowTraces,
    node_traffic: Vec<NodeTraffic>,
    edge_traffic: Vec<bool>,
    /// `(node, port)` egress exits with at least one packet this batch.
    egress_live: Vec<(usize, usize)>,
    /// Per node: the lineage its output carries this batch.
    lineage_out: Vec<Option<BatchLineage>>,
}

/// A cache hit: the slot to account once the batch is known to take the
/// fast path, and the memoized path.
#[derive(Debug, Clone)]
struct Hit {
    slot: usize,
    path: Arc<FlowPath>,
}

/// Which partition(s) reached a node in the current batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct NodeTraffic {
    by_hit: bool,
    by_miss: bool,
}

impl StageFlowCache {
    /// Creates a cache for `run` with room for `capacity` flows.
    pub fn new(capacity: usize, run: &CompiledGraph) -> Self {
        let nodes = run.graph().node_count();
        StageFlowCache {
            table: ClockTable::with_capacity(capacity),
            config_hash: run.flow_config_hash(),
            keys: Vec::new(),
            lookups: Vec::new(),
            hit_pkts: Vec::new(),
            miss_rows: Vec::new(),
            traces: FlowTraces::default(),
            node_traffic: vec![NodeTraffic::default(); nodes],
            edge_traffic: vec![false; run.graph().edges().len()],
            egress_live: Vec::new(),
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
        self.table.invalidate_all();
        self.config_hash = run.flow_config_hash();
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

    /// Pushes `batch` through `run` via the fast path: cache hits skip
    /// straight to their memoized verdict, misses traverse the slow path
    /// together as one batch. Egress packets, their order, and `run`'s
    /// [`nfc_click::GraphStats`] are bit-identical to pushing the whole
    /// batch through the slow path.
    pub fn process(&mut self, run: &mut CompiledGraph, entry: NodeId, batch: Batch) -> CachedRun {
        self.process_traced(run, entry, batch, &mut Recorder::disabled())
    }

    /// [`StageFlowCache::process`] recording telemetry into `rec`: a
    /// [`EventKind::FlowCacheBatch`] instant per cache-path batch, a
    /// [`EventKind::FlowCacheInvalidate`] instant per configuration-swap
    /// bulk invalidation, and the miss partition's per-element spans.
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
            self.table.invalidate_all();
            self.config_hash = run.flow_config_hash();
            rec.instant(EventKind::FlowCacheInvalidate {
                generation: self.table.generation(),
            });
        }
        let mut batch = batch;
        // ---- flow keys (memoized on the packet) ----------------------
        self.keys.clear();
        for p in batch.iter_mut() {
            match p.flow_key() {
                Ok(k) => self.keys.push(k),
                // Non-IP traffic: the whole batch takes the slow path so
                // ordering against its flow-mates is trivially preserved.
                Err(_) => return Self::fall_back(run, entry, batch, rec),
            }
        }
        // ---- lookups against the pre-batch table state ---------------
        // Peeks only: counters and referenced bits move once the batch is
        // known to take the fast path, so a fallback leaves no trace.
        self.lookups.clear();
        for key in &self.keys {
            let found = self.table.peek_slot(u64::from(key.hash()), key);
            self.lookups.push(found.map(|(slot, path)| Hit {
                slot,
                path: Arc::clone(path),
            }));
        }
        // ---- partition: hit packets / one miss batch -----------------
        let lineage_in = batch.lineage;
        let hits = self.lookups.iter().flatten().count();
        let misses = self.keys.len() - hits;
        self.hit_pkts.clear();
        let mut miss_batch = Batch::with_capacity(misses);
        for (pkt, lookup) in batch.into_iter().zip(&self.lookups) {
            match lookup {
                Some(_) => self.hit_pkts.push(pkt),
                None => miss_batch.push(pkt),
            }
        }
        miss_batch.lineage = lineage_in;
        // ---- resolve every miss once: gather, column verdicts, paths --
        // The gathered lanes stay memoized on the miss batch, so the slow
        // path's first lane element below does not gather again.
        let lanes = miss_batch.shared_lanes();
        self.miss_rows.clear();
        self.miss_rows.extend(0..misses as u32);
        if !run.trace_flows(
            entry,
            &miss_batch,
            &lanes,
            &self.miss_rows,
            &mut self.traces,
        ) {
            // An element declined a verdict: put the ingress batch back
            // together in its original order and take the slow path.
            let (mut hit, mut miss) = (self.hit_pkts.drain(..), miss_batch.into_iter());
            let mut whole: Batch = self
                .lookups
                .iter()
                .map(|l| if l.is_some() { hit.next() } else { miss.next() })
                .map(|p| p.expect("partitioned by the same flags"))
                .collect();
            whole.lineage = lineage_in;
            return Self::fall_back(run, entry, whole, rec);
        }
        self.table
            .commit_lookups(self.lookups.iter().flatten().map(|h| h.slot), misses as u64);
        // ---- apply hits -----------------------------------------------
        self.node_traffic
            .iter_mut()
            .for_each(|t| *t = NodeTraffic::default());
        self.edge_traffic.iter_mut().for_each(|t| *t = false);
        self.egress_live.clear();
        {
            let Self {
                lookups,
                hit_pkts,
                node_traffic,
                edge_traffic,
                egress_live,
                ..
            } = self;
            let mut hit = lookups.iter().flatten();
            hit_pkts.retain_mut(|pkt| {
                let path = &hit.next().expect("one lookup per hit packet").path;
                mark_traffic(path, true, node_traffic, edge_traffic, egress_live);
                run.replay_flow_stats(path, pkt.len() as u64);
                for &(slot, value) in &path.annos {
                    pkt.meta.anno[slot] = value;
                }
                !path.dropped
            });
        }
        for path in self.traces.distinct() {
            mark_traffic(
                path,
                false,
                &mut self.node_traffic,
                &mut self.edge_traffic,
                &mut self.egress_live,
            );
        }
        // ---- insert the new paths ---------------------------------------
        // Only now: an insert may evict a same-set entry, and every hit
        // above was classified against the pre-batch table state.
        let missed = self
            .keys
            .iter()
            .zip(&self.lookups)
            .filter(|(_, l)| l.is_none());
        for (k, (key, _)) in missed.enumerate() {
            let path = Arc::clone(self.traces.path(k));
            self.table.insert(u64::from(key.hash()), *key, path);
        }
        rec.instant(EventKind::FlowCacheBatch {
            hits: hits as u32,
            misses: misses as u32,
        });
        // ---- miss partition: one slow-path batch --------------------
        let miss_bytes = miss_batch.total_bytes() as u64;
        let (mut miss_new_splits, mut miss_new_merges) = (0, 0);
        if !miss_batch.is_empty() {
            let miss_out = run.push_merged_traced(entry, miss_batch, rec);
            miss_new_splits = miss_out.lineage.splits.saturating_sub(lineage_in.splits);
            miss_new_merges = miss_out.lineage.merges.saturating_sub(lineage_in.merges);
            self.hit_pkts.extend(miss_out);
        }
        // Batch counters: the slow path counts one batch per node that
        // receives non-empty input. The miss push covered miss-reached
        // nodes; hit-only nodes get their batch now.
        for (i, t) in self.node_traffic.iter().enumerate() {
            if t.by_hit && !t.by_miss {
                run.note_batch(NodeId(i));
            }
        }
        // Restore slow-path packet order (batches are seq-sorted
        // throughout the engine; verdict-capable graphs never duplicate
        // packets, so seq order is total).
        self.hit_pkts.sort_by_key(|p| p.meta.seq);
        let mut out: Batch = self.hit_pkts.drain(..).collect();
        out.lineage = self.simulate_lineage(run, entry, lineage_in);
        CachedRun {
            out,
            hits: hits as u64,
            misses: misses as u64,
            miss_bytes,
            miss_new_splits,
            miss_new_merges,
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

    /// Computes the lineage the slow path would stamp on this batch's
    /// egress, from the per-node/per-edge traffic of the whole batch
    /// (hits and misses alike): split counts bump at multi-output nodes,
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
            let t = self.node_traffic[nid.0];
            if !t.by_hit && !t.by_miss {
                continue;
            }
            // Inbound lineages: the entry batch plus every live in-edge.
            let mut l_in: Option<BatchLineage> = (nid == entry).then_some(lineage_in);
            let mut merged = false;
            for (e_idx, e) in edges.iter().enumerate() {
                if e.to != nid || !self.edge_traffic[e_idx] {
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
                if run.port_target(nid, port).is_none() && self.egress_live.contains(&(nid.0, port))
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

/// Marks the nodes, edges and egress exits one packet's path touches.
fn mark_traffic(
    path: &FlowPath,
    hit: bool,
    node_traffic: &mut [NodeTraffic],
    edge_traffic: &mut [bool],
    egress_live: &mut Vec<(usize, usize)>,
) {
    for hop in &path.hops {
        let t = &mut node_traffic[hop.node.0];
        if hit {
            t.by_hit = true;
        } else {
            t.by_miss = true;
        }
        match (hop.port, hop.edge) {
            (_, Some(e)) => edge_traffic[e] = true,
            (Some(port), None) => {
                let exit = (hop.node.0, port);
                if !egress_live.contains(&exit) {
                    egress_live.push(exit);
                }
            }
            (None, None) => {} // dropped here
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfc_click::element::{ElementActions, ElementClass, FlowVerdict, RunCtx};
    use nfc_click::elements::ProtocolClassifier;
    use nfc_click::{Element, ElementGraph};
    use nfc_packet::headers::ip_proto;

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
        fn clone_box(&self) -> Box<dyn Element> {
            Box::new(self.clone())
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
}
