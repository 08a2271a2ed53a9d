//! Element graphs: validated DAGs with a push-based batch engine.

use crate::element::{config_hash, Element, ElementClass, FlowVerdict, RunCtx};
use nfc_packet::{Batch, HeaderLanes, Packet};
use nfc_telemetry::{EventKind, Recorder};
use std::collections::HashMap;
use std::sync::Arc;

/// Identifier of a node (element instance) within one graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A directed connection from an output port of one element to another
/// element's input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Upstream node.
    pub from: NodeId,
    /// Output port on the upstream node.
    pub port: usize,
    /// Downstream node.
    pub to: NodeId,
}

/// Errors from graph construction and validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A referenced node does not exist.
    UnknownNode(NodeId),
    /// An output port index is out of range for the element.
    BadPort {
        /// Offending node.
        node: NodeId,
        /// Requested port.
        port: usize,
        /// Ports available.
        available: usize,
    },
    /// The same output port was wired twice.
    PortAlreadyWired {
        /// Offending node.
        node: NodeId,
        /// Port wired twice.
        port: usize,
    },
    /// The graph contains a cycle through the named node.
    Cycle(NodeId),
    /// The graph has no nodes.
    Empty,
    /// An element claims [`Element::verdict_capable`] although its class
    /// or action metadata forbids publishing flow verdicts (stateful,
    /// shaping, payload-reading or packet-modifying elements).
    VerdictIneligible(NodeId),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::UnknownNode(n) => write!(f, "unknown node {n}"),
            GraphError::BadPort {
                node,
                port,
                available,
            } => write!(
                f,
                "node {node} has {available} ports, port {port} requested"
            ),
            GraphError::PortAlreadyWired { node, port } => {
                write!(f, "output port {port} of {node} is already wired")
            }
            GraphError::Cycle(n) => write!(f, "graph has a cycle through {n}"),
            GraphError::Empty => write!(f, "graph has no nodes"),
            GraphError::VerdictIneligible(n) => write!(
                f,
                "node {n} claims flow-verdict capability but its class/actions forbid it"
            ),
        }
    }
}

impl std::error::Error for GraphError {}

/// A buildable element graph.
///
/// Unwired output ports are *graph egress*: batches emitted there are
/// returned to the caller of [`CompiledGraph::push`] (the convention a
/// `ToDevice` element would otherwise provide). Explicit drops use
/// [`crate::elements::Discard`].
#[derive(Debug, Default)]
pub struct ElementGraph {
    nodes: Vec<Box<dyn Element>>,
    edges: Vec<Edge>,
}

impl Clone for ElementGraph {
    fn clone(&self) -> Self {
        ElementGraph {
            nodes: self.nodes.clone(),
            edges: self.edges.clone(),
        }
    }
}

impl ElementGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        ElementGraph::default()
    }

    /// Adds an element, returning its node id.
    pub fn add<E: Element + 'static>(&mut self, element: E) -> NodeId {
        self.add_boxed(Box::new(element))
    }

    /// Adds an already-boxed element.
    pub fn add_boxed(&mut self, element: Box<dyn Element>) -> NodeId {
        self.nodes.push(element);
        NodeId(self.nodes.len() - 1)
    }

    /// Connects `from`'s output `port` to `to`'s input.
    ///
    /// # Errors
    ///
    /// Fails if either node is unknown, the port is out of range, or the
    /// port is already wired.
    pub fn connect(&mut self, from: NodeId, port: usize, to: NodeId) -> Result<(), GraphError> {
        let n_out = self
            .nodes
            .get(from.0)
            .ok_or(GraphError::UnknownNode(from))?
            .n_outputs();
        if to.0 >= self.nodes.len() {
            return Err(GraphError::UnknownNode(to));
        }
        if port >= n_out {
            return Err(GraphError::BadPort {
                node: from,
                port,
                available: n_out,
            });
        }
        if self.edges.iter().any(|e| e.from == from && e.port == port) {
            return Err(GraphError::PortAlreadyWired { node: from, port });
        }
        self.edges.push(Edge { from, port, to });
        Ok(())
    }

    /// Connects a simple chain: `node[i]` port 0 -> `node[i+1]`.
    ///
    /// # Errors
    ///
    /// Propagates [`ElementGraph::connect`] errors.
    pub fn connect_chain(&mut self, chain: &[NodeId]) -> Result<(), GraphError> {
        for pair in chain.windows(2) {
            self.connect(pair[0], 0, pair[1])?;
        }
        Ok(())
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId)
    }

    /// The element at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in this graph.
    pub fn element(&self, id: NodeId) -> &dyn Element {
        self.nodes[id.0].as_ref()
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Applies `f` to every element mutably (profiling-window control).
    pub fn for_each_element_mut<F: FnMut(&mut dyn Element)>(&mut self, mut f: F) {
        for n in &mut self.nodes {
            f(n.as_mut());
        }
    }

    /// Nodes with no incoming edges (graph entries).
    pub fn entries(&self) -> Vec<NodeId> {
        let mut has_in = vec![false; self.nodes.len()];
        for e in &self.edges {
            has_in[e.to.0] = true;
        }
        (0..self.nodes.len())
            .filter(|&i| !has_in[i])
            .map(NodeId)
            .collect()
    }

    /// Topological order of nodes.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Cycle`] if the graph is cyclic.
    pub fn topo_order(&self) -> Result<Vec<NodeId>, GraphError> {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        for e in &self.edges {
            indeg[e.to.0] += 1;
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            order.push(NodeId(u));
            for e in self.edges.iter().filter(|e| e.from.0 == u) {
                indeg[e.to.0] -= 1;
                if indeg[e.to.0] == 0 {
                    queue.push(e.to.0);
                }
            }
        }
        if order.len() != n {
            let stuck = (0..n).find(|&i| indeg[i] > 0).unwrap_or(0);
            return Err(GraphError::Cycle(NodeId(stuck)));
        }
        Ok(order)
    }

    /// Validates the graph and produces an executable [`CompiledGraph`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Empty`] for empty graphs and
    /// [`GraphError::Cycle`] for cyclic ones.
    pub fn compile(self) -> Result<CompiledGraph, GraphError> {
        if self.nodes.is_empty() {
            return Err(GraphError::Empty);
        }
        let order = self.topo_order()?;
        // Per-node, per-port wiring table.
        let mut wiring: Vec<Vec<Option<(NodeId, usize)>>> = self
            .nodes
            .iter()
            .map(|n| vec![None; n.n_outputs()])
            .collect();
        for (idx, e) in self.edges.iter().enumerate() {
            wiring[e.from.0][e.port] = Some((e.to, idx));
        }
        // Flow-cacheability: every node must publish verdicts, and an
        // element may only claim capability if its declared class and
        // action profile make the per-packet decision a pure function of
        // the flow (read-only, non-resizing, classifier/inspector-like).
        let mut flow_cacheable = true;
        let mut sig_bytes = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            if !node.verdict_capable() {
                flow_cacheable = false;
                continue;
            }
            let eligible = matches!(
                node.class(),
                ElementClass::Classifier | ElementClass::Inspector
            ) && {
                let a = node.actions();
                !a.writes_header && !a.writes_payload && !a.resizes && !a.reads_payload
            };
            if !eligible {
                return Err(GraphError::VerdictIneligible(NodeId(i)));
            }
            let sig = node.signature();
            sig_bytes.extend_from_slice(sig.kind.as_bytes());
            sig_bytes.extend_from_slice(&sig.config.to_be_bytes());
            sig_bytes.extend_from_slice(&(i as u64).to_be_bytes());
        }
        // Wiring participates in the hash: rewiring the same elements
        // changes cached paths and must invalidate external caches.
        for e in &self.edges {
            sig_bytes.extend_from_slice(&(e.from.0 as u64).to_be_bytes());
            sig_bytes.extend_from_slice(&(e.port as u64).to_be_bytes());
            sig_bytes.extend_from_slice(&(e.to.0 as u64).to_be_bytes());
        }
        let flow_config_hash = config_hash(&sig_bytes);
        let stats = GraphStats::new(self.nodes.len(), self.edges.len());
        let inbox = vec![Vec::new(); self.nodes.len()];
        Ok(CompiledGraph {
            graph: self,
            order,
            wiring,
            stats,
            inbox,
            flow_cacheable,
            flow_config_hash,
            lanes: true,
        })
    }
}

/// Per-node counters accumulated by the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Packets entering the element.
    pub packets_in: u64,
    /// Packets leaving on all output ports.
    pub packets_out: u64,
    /// Bytes entering the element.
    pub bytes_in: u64,
    /// Packets the element dropped (in minus out, for single-copy
    /// elements; duplicating elements can make this negative-free by
    /// reporting zero).
    pub dropped: u64,
    /// Batches processed.
    pub batches: u64,
}

/// Traffic statistics for one compiled graph — the measurement substrate of
/// the paper's runtime profiler (§IV-C2 samples next-element destinations
/// to obtain per-edge traffic intensities).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphStats {
    nodes: Vec<NodeStats>,
    edge_packets: Vec<u64>,
    edge_bytes: Vec<u64>,
    /// Packets dropped because they were emitted on an unwired port of a
    /// multi-output element that also has wired ports... never happens with
    /// egress semantics; kept for split accounting symmetry.
    pub egress_packets: u64,
}

impl GraphStats {
    fn new(n_nodes: usize, n_edges: usize) -> Self {
        GraphStats {
            nodes: vec![NodeStats::default(); n_nodes],
            edge_packets: vec![0; n_edges],
            edge_bytes: vec![0; n_edges],
            egress_packets: 0,
        }
    }

    /// Counters for one node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> NodeStats {
        self.nodes[id.0]
    }

    /// Packets that traversed edge `idx` (index into
    /// [`ElementGraph::edges`]).
    pub fn edge_packets(&self, idx: usize) -> u64 {
        self.edge_packets[idx]
    }

    /// Bytes that traversed edge `idx`.
    pub fn edge_bytes(&self, idx: usize) -> u64 {
        self.edge_bytes[idx]
    }

    /// Total packets dropped anywhere in the graph.
    pub fn total_dropped(&self) -> u64 {
        self.nodes.iter().map(|n| n.dropped).sum()
    }

    /// Counters accumulated since `base` was snapshotted: element-wise
    /// saturating difference. Lets an online profiler measure one
    /// observation window *without* resetting the live counters (a reset
    /// would perturb any consumer comparing cumulative stats).
    pub fn delta(&self, base: &GraphStats) -> GraphStats {
        let nodes = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let b = base.nodes.get(i).copied().unwrap_or_default();
                NodeStats {
                    packets_in: c.packets_in.saturating_sub(b.packets_in),
                    packets_out: c.packets_out.saturating_sub(b.packets_out),
                    bytes_in: c.bytes_in.saturating_sub(b.bytes_in),
                    dropped: c.dropped.saturating_sub(b.dropped),
                    batches: c.batches.saturating_sub(b.batches),
                }
            })
            .collect();
        let sub = |cur: &[u64], old: &[u64]| {
            cur.iter()
                .enumerate()
                .map(|(i, &c)| c.saturating_sub(old.get(i).copied().unwrap_or(0)))
                .collect()
        };
        GraphStats {
            nodes,
            edge_packets: sub(&self.edge_packets, &base.edge_packets),
            edge_bytes: sub(&self.edge_bytes, &base.edge_bytes),
            egress_packets: self.egress_packets.saturating_sub(base.egress_packets),
        }
    }

    /// Resets all counters (used between profiling windows).
    pub fn reset(&mut self) {
        for n in &mut self.nodes {
            *n = NodeStats::default();
        }
        self.edge_packets.iter_mut().for_each(|c| *c = 0);
        self.edge_bytes.iter_mut().for_each(|c| *c = 0);
        self.egress_packets = 0;
    }
}

/// One step of a cached flow's walk through the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowHop {
    /// Node the flow visited.
    pub node: NodeId,
    /// Output port taken, or `None` if the flow was dropped here.
    pub port: Option<usize>,
    /// Edge index traversed, or `None` if `port` is unwired (graph
    /// egress) or the flow was dropped.
    pub edge: Option<usize>,
}

/// The memoized outcome of pushing one packet of a flow through a
/// fully verdict-capable graph: the exact node/edge walk, whether the
/// flow is dropped, and every metadata annotation written along the way.
///
/// Replaying a `FlowPath` (stats via
/// [`CompiledGraph::replay_flow_stats`], annotations applied by the
/// caller) is bit-identical to running the slow path for that packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowPath {
    /// Nodes visited in order, ending at a drop or a graph egress.
    pub hops: Vec<FlowHop>,
    /// True if the flow's packets are dropped inside the graph.
    pub dropped: bool,
    /// `(slot, value)` metadata annotations to apply to each packet.
    pub annos: Vec<(usize, u64)>,
}

impl FlowPath {
    /// The egress `(node, port)` the flow leaves through, or `None` for
    /// dropped flows.
    pub fn egress(&self) -> Option<(NodeId, usize)> {
        let last = self.hops.last()?;
        match (last.port, last.edge) {
            (Some(p), None) => Some((last.node, p)),
            _ => None,
        }
    }
}

/// Marks the root of the prefix tree in [`FlowTraces`]: rows that have
/// not left the entry node yet.
const NO_PREFIX: u32 = u32::MAX;

/// One node of the prefix tree [`CompiledGraph::trace_flows`] grows per
/// batch: the walk of its parent extended by one hop. Rows that share a
/// prefix and receive the same verdict at the next node share the child.
#[derive(Debug, Clone, Copy)]
struct Prefix {
    parent: u32,
    hop: FlowHop,
    anno: Option<(usize, u64)>,
    end: PrefixEnd,
}

/// Where a [`Prefix`]'s last hop leads.
#[derive(Debug, Clone, Copy)]
enum PrefixEnd {
    /// The rows move on to this node.
    Next(NodeId),
    /// The walk ended (drop or graph egress); index of the finished path
    /// in [`FlowTraces::distinct`].
    Path(u32),
}

/// Reusable scratch and result of [`CompiledGraph::trace_flows`]: one
/// shared [`FlowPath`] per *distinct* walk the traced rows took, plus
/// which of them each row took. Keep one per caller and hand it back
/// for every batch, so the steady state allocates only the distinct
/// paths themselves.
#[derive(Debug, Clone, Default)]
pub struct FlowTraces {
    /// Rows waiting at each node (node-indexed, drained as the walk
    /// passes the node).
    at_node: Vec<Vec<u32>>,
    /// Per batch row: the prefix the row has walked so far.
    prefix_of: Vec<u32>,
    /// One element's verdict column.
    verdicts: Vec<FlowVerdict>,
    prefixes: Vec<Prefix>,
    /// `(prefix, verdict at the next node)` → child prefix.
    children: HashMap<(u32, FlowVerdict), u32>,
    distinct: Vec<Arc<FlowPath>>,
    /// Per traced row `k`: index into `distinct`.
    row_path: Vec<u32>,
}

impl FlowTraces {
    /// Number of rows the last successful trace resolved.
    pub fn len(&self) -> usize {
        self.row_path.len()
    }

    /// True if the last trace resolved no rows.
    pub fn is_empty(&self) -> bool {
        self.row_path.is_empty()
    }

    /// The path of `rows[k]` — what [`CompiledGraph::trace_flow`] returns
    /// for that packet.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn path(&self, k: usize) -> &Arc<FlowPath> {
        &self.distinct[self.row_path[k] as usize]
    }

    /// Every distinct path of the last trace, each exactly once.
    pub fn distinct(&self) -> &[Arc<FlowPath>] {
        &self.distinct
    }

    /// The child of `parent` for `verdict` taken at `node`, created (and,
    /// if the walk ends there, materialised as a path) on first sight.
    fn child(
        &mut self,
        wiring: &[Vec<Option<(NodeId, usize)>>],
        parent: u32,
        node: NodeId,
        verdict: FlowVerdict,
    ) -> u32 {
        if let Some(&id) = self.children.get(&(parent, verdict)) {
            return id;
        }
        let (port, anno) = match verdict {
            FlowVerdict::Drop => (None, None),
            FlowVerdict::Forward { port } => (Some(port), None),
            FlowVerdict::Annotate { port, slot, value } => (Some(port), Some((slot, value))),
        };
        let target = port.and_then(|p| wiring[node.0].get(p).copied().flatten());
        let hop = FlowHop {
            node,
            port,
            edge: target.map(|(_, edge)| edge),
        };
        let end = match target {
            Some((to, _)) => PrefixEnd::Next(to),
            None => {
                let (mut hops, mut annos) = (vec![hop], Vec::from_iter(anno));
                let mut up = parent;
                while up != NO_PREFIX {
                    let p = &self.prefixes[up as usize];
                    hops.push(p.hop);
                    annos.extend(p.anno);
                    up = p.parent;
                }
                hops.reverse();
                annos.reverse();
                self.distinct.push(Arc::new(FlowPath {
                    hops,
                    dropped: port.is_none(),
                    annos,
                }));
                PrefixEnd::Path(self.distinct.len() as u32 - 1)
            }
        };
        let id = self.prefixes.len() as u32;
        self.prefixes.push(Prefix {
            parent,
            hop,
            anno,
            end,
        });
        self.children.insert((parent, verdict), id);
        id
    }
}

/// A batch that left the graph through an unwired output port.
#[derive(Debug)]
pub struct Egress {
    /// Node the batch left from.
    pub node: NodeId,
    /// Output port.
    pub port: usize,
    /// The batch itself.
    pub batch: Batch,
}

/// A validated, executable element graph.
#[derive(Debug, Clone)]
pub struct CompiledGraph {
    graph: ElementGraph,
    order: Vec<NodeId>,
    wiring: Vec<Vec<Option<(NodeId, usize)>>>,
    stats: GraphStats,
    /// Node-indexed scratch inbox reused across pushes. Always drained
    /// back to empty by the end of [`CompiledGraph::push_at`]; kept here
    /// so the steady state allocates nothing per batch.
    inbox: Vec<Vec<Batch>>,
    /// True if every node is verdict-capable, i.e. whole-graph flow
    /// traces ([`CompiledGraph::trace_flow`]) are available.
    flow_cacheable: bool,
    /// Hash over all verdict-capable elements' signatures plus the
    /// wiring; changes whenever a configuration swap or rewire could
    /// change cached verdicts.
    flow_config_hash: u64,
    /// Whether elements are asked to sweep columnar header lanes;
    /// forwarded to every [`RunCtx`] (see [`CompiledGraph::set_lanes`]).
    lanes: bool,
}

impl CompiledGraph {
    /// The underlying graph (structure and elements).
    pub fn graph(&self) -> &ElementGraph {
        &self.graph
    }

    /// Topological execution order.
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &GraphStats {
        &self.stats
    }

    /// Total bytes of migratable per-flow state across every element
    /// (see [`Element::state_bytes`]) — what a live reconfiguration
    /// must move when this graph changes processors.
    pub fn state_bytes(&self) -> usize {
        (0..self.graph.node_count())
            .map(|i| self.graph.element(NodeId(i)).state_bytes())
            .sum()
    }

    /// Resets accumulated statistics.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Whether header-only elements sweep columnar lanes.
    pub fn lanes(&self) -> bool {
        self.lanes
    }

    /// Turns the lane sweeps off (or back on) for this graph. Off is the
    /// per-packet reference the differential tests compare the shipped
    /// lane path against, not a deployment setting.
    pub fn set_lanes(&mut self, on: bool) {
        self.lanes = on;
    }

    /// Drains buffered session records from every element (see
    /// [`Element::take_session_records`]), in topological node order so
    /// the record stream is deterministic.
    pub fn take_session_records(&mut self) -> Vec<crate::element::SessionRecord> {
        let mut records = Vec::new();
        self.graph
            .for_each_element_mut(|el| records.append(&mut el.take_session_records()));
        records
    }

    /// Pushes a batch into `entry` and runs the graph to quiescence,
    /// returning all egress batches in deterministic (topological, then
    /// port) order.
    pub fn push(&mut self, entry: NodeId, batch: Batch) -> Vec<Egress> {
        self.push_at(entry, batch, 0)
    }

    /// Like [`CompiledGraph::push`] with an explicit simulated timestamp
    /// handed to stateful elements.
    pub fn push_at(&mut self, entry: NodeId, batch: Batch, now_ns: u64) -> Vec<Egress> {
        self.push_at_traced(entry, batch, now_ns, &mut Recorder::disabled())
    }

    /// [`CompiledGraph::push_at`] plus telemetry: records one wall-clock
    /// span per executed element and instants for batch splits (more
    /// than one non-empty output port) and multi-input merges. With a
    /// disabled recorder this costs one branch per element and is
    /// exactly `push_at` — element state, statistics, and egress are
    /// never affected by recording.
    pub fn push_at_traced(
        &mut self,
        entry: NodeId,
        batch: Batch,
        now_ns: u64,
        rec: &mut Recorder,
    ) -> Vec<Egress> {
        let mut ctx = RunCtx {
            now_ns,
            lanes: self.lanes,
        };
        debug_assert!(
            self.inbox.iter().all(Vec::is_empty),
            "scratch inbox must start drained"
        );
        self.inbox[entry.0].push(batch);
        let mut egress = Vec::new();
        for pos in 0..self.order.len() {
            let nid = self.order[pos];
            let mut slot = std::mem::take(&mut self.inbox[nid.0]);
            if slot.is_empty() {
                self.inbox[nid.0] = slot;
                continue;
            }
            let input = if slot.len() == 1 {
                slot.pop().expect("checked length")
            } else {
                if rec.is_enabled() {
                    rec.instant(EventKind::BatchMerge {
                        node: nid.0 as u32,
                        parts: slot.len() as u32,
                    });
                }
                Batch::merge_ordered(slot.drain(..))
            };
            // Hand the (now empty) allocation back so later pushes reuse
            // its capacity instead of reallocating.
            self.inbox[nid.0] = slot;
            if input.is_empty() {
                continue;
            }
            let in_pkts = input.len() as u64;
            let in_bytes = input.total_bytes() as u64;
            let t_el = rec.start();
            let outputs = self.graph.nodes[nid.0].process(input, &mut ctx);
            debug_assert_eq!(
                outputs.len(),
                self.graph.nodes[nid.0].n_outputs(),
                "element {} returned wrong port count",
                self.graph.nodes[nid.0].name()
            );
            let out_pkts: u64 = outputs.iter().map(|b| b.len() as u64).sum();
            if rec.is_enabled() {
                rec.wall_span(
                    t_el,
                    EventKind::Element {
                        node: nid.0 as u32,
                        name: self.graph.nodes[nid.0].name().to_string(),
                        packets_in: in_pkts as u32,
                        packets_out: out_pkts as u32,
                    },
                );
                let live_ports = outputs.iter().filter(|b| !b.is_empty()).count();
                if live_ports > 1 {
                    rec.instant(EventKind::BatchSplit {
                        node: nid.0 as u32,
                        parts: live_ports as u32,
                    });
                }
            }
            let st = &mut self.stats.nodes[nid.0];
            st.packets_in += in_pkts;
            st.bytes_in += in_bytes;
            st.packets_out += out_pkts;
            st.dropped += in_pkts.saturating_sub(out_pkts);
            st.batches += 1;
            for (port, out) in outputs.into_iter().enumerate() {
                if out.is_empty() {
                    continue;
                }
                match self.wiring[nid.0].get(port).copied().flatten() {
                    Some((to, edge_idx)) => {
                        self.stats.edge_packets[edge_idx] += out.len() as u64;
                        self.stats.edge_bytes[edge_idx] += out.total_bytes() as u64;
                        self.inbox[to.0].push(out);
                    }
                    None => {
                        self.stats.egress_packets += out.len() as u64;
                        egress.push(Egress {
                            node: nid,
                            port,
                            batch: out,
                        });
                    }
                }
            }
        }
        egress
    }

    /// Convenience: pushes a batch and merges every egress batch back into
    /// one order-preserved batch (what a downstream NF in an SFC sees).
    /// A single egress batch passes through without a (costed) merge.
    pub fn push_merged(&mut self, entry: NodeId, batch: Batch) -> Batch {
        self.push_merged_traced(entry, batch, &mut Recorder::disabled())
    }

    /// [`CompiledGraph::push_merged`] recording per-element telemetry
    /// into `rec` (see [`CompiledGraph::push_at_traced`]).
    pub fn push_merged_traced(&mut self, entry: NodeId, batch: Batch, rec: &mut Recorder) -> Batch {
        let mut parts = self.push_at_traced(entry, batch, 0, rec);
        if parts.len() == 1 {
            return parts.pop().expect("checked length").batch;
        }
        Batch::merge_ordered(parts.into_iter().map(|e| e.batch))
    }

    /// True if every element publishes flow verdicts, so
    /// [`CompiledGraph::trace_flow`] can memoize whole-graph outcomes.
    pub fn flow_cacheable(&self) -> bool {
        self.flow_cacheable
    }

    /// Configuration hash covering every verdict-capable element and the
    /// wiring. External flow caches compare this against the hash they
    /// were filled under and invalidate on mismatch (rule-table swaps
    /// change element signatures, hence this hash).
    pub fn flow_config_hash(&self) -> u64 {
        self.flow_config_hash
    }

    /// Where output `port` of `node` is wired to, as `(downstream node,
    /// edge index)`; `None` means graph egress.
    pub fn port_target(&self, node: NodeId, port: usize) -> Option<(NodeId, usize)> {
        self.wiring[node.0].get(port).copied().flatten()
    }

    /// Walks one packet's flow through the graph using only element
    /// verdicts, without mutating any element or counter.
    ///
    /// Returns `None` if the graph is not flow-cacheable or any element
    /// along the walk declines to produce a verdict for this packet —
    /// callers fall back to the slow path.
    pub fn trace_flow(&self, entry: NodeId, pkt: &Packet) -> Option<FlowPath> {
        if !self.flow_cacheable {
            return None;
        }
        let mut hops = Vec::with_capacity(4);
        let mut annos = Vec::new();
        let mut node = entry;
        loop {
            let port = match self.graph.nodes[node.0].flow_verdict(pkt)? {
                FlowVerdict::Drop => {
                    hops.push(FlowHop {
                        node,
                        port: None,
                        edge: None,
                    });
                    return Some(FlowPath {
                        hops,
                        dropped: true,
                        annos,
                    });
                }
                FlowVerdict::Forward { port } => port,
                FlowVerdict::Annotate { port, slot, value } => {
                    annos.push((slot, value));
                    port
                }
            };
            match self.wiring[node.0].get(port).copied().flatten() {
                Some((to, edge)) => {
                    hops.push(FlowHop {
                        node,
                        port: Some(port),
                        edge: Some(edge),
                    });
                    node = to;
                }
                None => {
                    hops.push(FlowHop {
                        node,
                        port: Some(port),
                        edge: None,
                    });
                    return Some(FlowPath {
                        hops,
                        dropped: false,
                        annos,
                    });
                }
            }
        }
    }

    /// [`CompiledGraph::trace_flow`] for many packets at once: resolves
    /// the walk of every `batch[rows[k]]` into `traces`
    /// ([`FlowTraces::path`]`(k)`), mutating no element and no counter.
    /// `lanes` must be `batch`'s gathered [`HeaderLanes`] view and `rows`
    /// distinct indices into `batch`.
    ///
    /// Instead of walking the graph once per packet, the graph is walked
    /// once, node by node in topological order, over the *set* of rows
    /// standing at each node: the element answers with one verdict
    /// column ([`Element::flow_verdicts`] — a lane sweep where the
    /// element has one), rows are grouped by `(walk so far, verdict)`,
    /// and each distinct complete walk becomes one shared [`FlowPath`].
    /// Paths are equal, field by field, to what `trace_flow` returns.
    ///
    /// Returns `false` — with `traces` unspecified — if the graph is not
    /// flow-cacheable or any element declines a verdict for any row;
    /// callers fall back to the slow path for the whole batch.
    pub fn trace_flows(
        &self,
        entry: NodeId,
        batch: &Batch,
        lanes: &HeaderLanes,
        rows: &[u32],
        traces: &mut FlowTraces,
    ) -> bool {
        if !self.flow_cacheable {
            return false;
        }
        debug_assert!(
            {
                let mut seen = vec![false; batch.len()];
                rows.iter()
                    .all(|&r| !std::mem::replace(&mut seen[r as usize], true))
            },
            "rows must be distinct"
        );
        let t = traces;
        t.at_node.resize_with(self.graph.node_count(), Vec::new);
        t.at_node.iter_mut().for_each(Vec::clear);
        t.prefix_of.clear();
        t.prefix_of.resize(batch.len(), NO_PREFIX);
        t.prefixes.clear();
        t.children.clear();
        t.distinct.clear();
        t.row_path.clear();
        t.at_node[entry.0].extend_from_slice(rows);
        for &nid in &self.order {
            if t.at_node[nid.0].is_empty() {
                continue;
            }
            // Taken out while the walk below pushes onto other nodes'
            // lists and grows the prefix tree; handed back afterwards (a
            // declined trace forfeits the two allocations).
            let here = std::mem::take(&mut t.at_node[nid.0]);
            let mut verdicts = std::mem::take(&mut t.verdicts);
            verdicts.clear();
            if !self.graph.nodes[nid.0].flow_verdicts(batch, lanes, &here, &mut verdicts) {
                return false;
            }
            debug_assert_eq!(verdicts.len(), here.len(), "one verdict per row");
            for (&row, &verdict) in here.iter().zip(&verdicts) {
                let id = t.child(&self.wiring, t.prefix_of[row as usize], nid, verdict);
                t.prefix_of[row as usize] = id;
                if let PrefixEnd::Next(to) = t.prefixes[id as usize].end {
                    t.at_node[to.0].push(row);
                }
            }
            t.verdicts = verdicts;
            t.at_node[nid.0] = here;
        }
        for &row in rows {
            match t.prefixes[t.prefix_of[row as usize] as usize].end {
                PrefixEnd::Path(i) => t.row_path.push(i),
                PrefixEnd::Next(_) => unreachable!("topological walk ends every row"),
            }
        }
        true
    }

    /// Accounts one packet of `bytes` wire bytes travelling `path`, as if
    /// the slow path had processed it: per-node packet/byte/drop counters
    /// and per-edge counters advance identically. The byte count is
    /// constant along the path because verdict-capable elements never
    /// modify or resize packets. Batch counters are *not* touched — see
    /// [`CompiledGraph::note_batch`].
    pub fn replay_flow_stats(&mut self, path: &FlowPath, bytes: u64) {
        for hop in &path.hops {
            let st = &mut self.stats.nodes[hop.node.0];
            st.packets_in += 1;
            st.bytes_in += bytes;
            match hop.port {
                None => st.dropped += 1,
                Some(_) => st.packets_out += 1,
            }
            match hop.edge {
                Some(e) => {
                    self.stats.edge_packets[e] += 1;
                    self.stats.edge_bytes[e] += bytes;
                }
                None => {
                    if hop.port.is_some() {
                        self.stats.egress_packets += 1;
                    }
                }
            }
        }
    }

    /// Advances the batch counter of `node` by one — used by the fast
    /// path when cache hits stand in for a batch the slow path would
    /// have delivered to the node.
    pub fn note_batch(&mut self, node: NodeId) {
        self.stats.nodes[node.0].batches += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::{Counter, Discard, ProtocolClassifier, Tee};
    use nfc_packet::{headers::ip_proto, Packet};

    #[test]
    fn stats_delta_isolates_a_window_without_reset() {
        let mut a = GraphStats::new(2, 1);
        a.nodes[0].packets_in = 10;
        a.nodes[1].batches = 3;
        a.edge_packets[0] = 7;
        a.egress_packets = 5;
        let base = a.clone();
        a.nodes[0].packets_in = 25;
        a.nodes[1].batches = 8;
        a.edge_packets[0] = 11;
        a.egress_packets = 9;
        let d = a.delta(&base);
        assert_eq!(d.node(NodeId(0)).packets_in, 15);
        assert_eq!(d.node(NodeId(1)).batches, 5);
        assert_eq!(d.edge_packets(0), 4);
        assert_eq!(d.egress_packets, 4);
        // A default (empty) base yields the cumulative stats unchanged.
        assert_eq!(a.delta(&GraphStats::default()), a);
    }

    fn pkt_udp(seq: u64) -> Packet {
        let mut p = Packet::ipv4_udp([1, 1, 1, 1], [2, 2, 2, 2], 1, 2, b"u");
        p.meta.seq = seq;
        p
    }

    fn pkt_tcp(seq: u64) -> Packet {
        let mut p = Packet::ipv4_tcp([1, 1, 1, 1], [2, 2, 2, 2], 1, 2, b"t", 0);
        p.meta.seq = seq;
        p
    }

    #[test]
    fn chain_counts_and_egress() {
        let mut g = ElementGraph::new();
        let a = g.add(Counter::new("a"));
        let b = g.add(Counter::new("b"));
        g.connect(a, 0, b).unwrap();
        let mut run = g.compile().unwrap();
        let out = run.push(a, (0..5).map(pkt_udp).collect());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].batch.len(), 5);
        assert_eq!(out[0].node, b);
        assert_eq!(run.stats().node(a).packets_in, 5);
        assert_eq!(run.stats().node(b).packets_in, 5);
        assert_eq!(run.stats().edge_packets(0), 5);
    }

    #[test]
    fn classifier_splits_and_discard_drops() {
        let mut g = ElementGraph::new();
        let cl = g.add(ProtocolClassifier::new("cl", vec![ip_proto::TCP]));
        let keep = g.add(Counter::new("tcp"));
        let drop = g.add(Discard::new());
        g.connect(cl, 0, keep).unwrap();
        g.connect(cl, 1, drop).unwrap();
        let mut run = g.compile().unwrap();
        let mixed: Batch = (0..10)
            .map(|i| if i % 2 == 0 { pkt_tcp(i) } else { pkt_udp(i) })
            .collect();
        let out = run.push(cl, mixed);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].batch.len(), 5);
        assert_eq!(run.stats().node(drop).dropped, 5);
        assert_eq!(run.stats().total_dropped(), 5);
        // Split lineage recorded.
        assert_eq!(out[0].batch.lineage.splits, 1);
    }

    #[test]
    fn tee_duplicates_and_merge_preserves_order() {
        let mut g = ElementGraph::new();
        let tee = g.add(Tee::new("tee", 2));
        let x = g.add(Counter::new("x"));
        let y = g.add(Counter::new("y"));
        let join = g.add(Counter::new("join"));
        g.connect(tee, 0, x).unwrap();
        g.connect(tee, 1, y).unwrap();
        g.connect(x, 0, join).unwrap();
        g.connect(y, 0, join).unwrap();
        let mut run = g.compile().unwrap();
        let out = run.push(tee, (0..4).map(pkt_udp).collect());
        // join received both copies: 8 packets.
        assert_eq!(run.stats().node(join).packets_in, 8);
        assert_eq!(out[0].batch.len(), 8);
    }

    #[test]
    fn cycle_is_rejected() {
        let mut g = ElementGraph::new();
        let a = g.add(Counter::new("a"));
        let b = g.add(Counter::new("b"));
        g.connect(a, 0, b).unwrap();
        g.connect(b, 0, a).unwrap();
        assert!(matches!(g.compile(), Err(GraphError::Cycle(_))));
    }

    #[test]
    fn bad_wiring_is_rejected() {
        let mut g = ElementGraph::new();
        let a = g.add(Counter::new("a"));
        let b = g.add(Counter::new("b"));
        assert!(matches!(
            g.connect(a, 3, b),
            Err(GraphError::BadPort { port: 3, .. })
        ));
        g.connect(a, 0, b).unwrap();
        assert!(matches!(
            g.connect(a, 0, b),
            Err(GraphError::PortAlreadyWired { .. })
        ));
        assert!(matches!(
            g.connect(NodeId(9), 0, b),
            Err(GraphError::UnknownNode(NodeId(9)))
        ));
    }

    #[test]
    fn empty_graph_is_rejected() {
        assert!(matches!(
            ElementGraph::new().compile(),
            Err(GraphError::Empty)
        ));
    }

    #[test]
    fn entries_finds_roots() {
        let mut g = ElementGraph::new();
        let a = g.add(Counter::new("a"));
        let b = g.add(Counter::new("b"));
        let c = g.add(Counter::new("c"));
        g.connect(a, 0, c).unwrap();
        g.connect(b, 0, c).unwrap();
        assert_eq!(g.entries(), vec![a, b]);
    }

    #[test]
    fn flow_trace_matches_slow_path() {
        // classifier -> (tcp: out) / (other: out) — every node
        // verdict-capable, so the graph is flow-cacheable.
        let mut g = ElementGraph::new();
        let cl = g.add(ProtocolClassifier::new("cl", vec![ip_proto::TCP]));
        let mut run = g.compile().unwrap();
        assert!(run.flow_cacheable());

        let tcp = pkt_tcp(0);
        let udp = pkt_udp(1);
        let t_path = run.trace_flow(cl, &tcp).unwrap();
        let u_path = run.trace_flow(cl, &udp).unwrap();
        assert!(!t_path.dropped && !u_path.dropped);
        assert_eq!(t_path.egress(), Some((cl, 0)));
        assert_eq!(u_path.egress(), Some((cl, 1)));

        // Replaying the trace's stats matches a real push of the same
        // packet (modulo the batch counter, which note_batch covers).
        let mut replayed = run.clone();
        let bytes = tcp.len() as u64;
        replayed.replay_flow_stats(&t_path, bytes);
        replayed.note_batch(cl);
        run.push(cl, std::iter::once(tcp).collect());
        assert_eq!(run.stats(), replayed.stats());
    }

    #[test]
    fn non_capable_graph_is_not_cacheable() {
        let mut g = ElementGraph::new();
        let a = g.add(Counter::new("a"));
        let run = g.compile().unwrap();
        assert!(!run.flow_cacheable());
        assert_eq!(run.trace_flow(a, &pkt_udp(0)), None);
    }

    #[test]
    fn ineligible_verdict_claim_is_rejected() {
        // An element that claims capability while declaring itself a
        // payload-writing modifier must be rejected at compile time.
        use crate::element::ElementActions;
        #[derive(Debug, Clone)]
        struct BogusVerdict;
        impl Element for BogusVerdict {
            fn name(&self) -> &str {
                "bogus"
            }
            fn class(&self) -> ElementClass {
                ElementClass::Modifier
            }
            fn actions(&self) -> ElementActions {
                ElementActions::read_header().with_payload_write()
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
        }
        let mut g = ElementGraph::new();
        g.add(BogusVerdict);
        assert!(matches!(
            g.compile(),
            Err(GraphError::VerdictIneligible(NodeId(0)))
        ));
    }

    #[test]
    fn flow_config_hash_tracks_config_and_wiring() {
        let build = |protos: Vec<u8>, wire_drop: bool| {
            let mut g = ElementGraph::new();
            let cl = g.add(ProtocolClassifier::new("cl", protos));
            if wire_drop {
                let d = g.add(Discard::new());
                g.connect(cl, 1, d).unwrap();
            }
            g.compile().unwrap().flow_config_hash()
        };
        assert_eq!(
            build(vec![ip_proto::TCP], false),
            build(vec![ip_proto::TCP], false)
        );
        assert_ne!(
            build(vec![ip_proto::TCP], false),
            build(vec![ip_proto::UDP], false)
        );
        assert_ne!(
            build(vec![ip_proto::TCP], false),
            build(vec![ip_proto::TCP], true)
        );
    }

    mod trace_proptests {
        use super::*;
        use crate::element::ElementActions;
        use proptest::prelude::*;

        /// Verdict-capable test element with the *default* (row-by-row)
        /// `flow_verdicts`: annotates `slot` with the packet's wire
        /// length and forwards.
        #[derive(Debug, Clone)]
        struct Tagger {
            slot: usize,
        }

        impl Element for Tagger {
            fn name(&self) -> &str {
                "tagger"
            }
            fn class(&self) -> ElementClass {
                ElementClass::Inspector
            }
            fn actions(&self) -> ElementActions {
                ElementActions::read_header()
            }
            fn process(&mut self, mut batch: Batch, _ctx: &mut RunCtx) -> Vec<Batch> {
                for p in batch.iter_mut() {
                    p.meta.anno[self.slot] = p.len() as u64;
                }
                vec![batch]
            }
            fn clone_box(&self) -> Box<dyn Element> {
                Box::new(self.clone())
            }
            fn verdict_capable(&self) -> bool {
                true
            }
            fn flow_verdict(&self, pkt: &Packet) -> Option<FlowVerdict> {
                Some(FlowVerdict::Annotate {
                    port: 0,
                    slot: self.slot,
                    value: pkt.len() as u64,
                })
            }
        }

        /// UDP / TCP / ICMP over IPv4, IPv6 UDP, non-IP frames and
        /// headers truncated inside L4 and inside L3, over a small
        /// address space so one batch repeats flows.
        fn mixed_batch(rows: &[(u8, u8, u16)]) -> Batch {
            rows.iter()
                .enumerate()
                .map(|(i, &(kind, a, sp))| {
                    let a = a % 4;
                    let udp =
                        Packet::ipv4_udp([10, 0, 0, a], [8, 8, a, 8], sp % 4 + 1, 53, b"udp!");
                    let mut p = match kind % 7 {
                        0 => udp,
                        1 => Packet::ipv4_tcp([9, a, 9, 9], [7, 7, a, 7], sp % 4 + 1, 443, b"t", 2),
                        2 => {
                            let mut icmp = udp;
                            let mut ip = icmp.ipv4().expect("built as IPv4");
                            ip.protocol = 1; // ICMP
                            ip.compute_checksum();
                            icmp.set_ipv4(&ip);
                            icmp
                        }
                        3 => Packet::ipv6_udp([a; 16], [2; 16], sp % 4 + 1, 5353, b"6"),
                        4 => Packet::from_bytes(vec![a; 60]),
                        5 => Packet::from_bytes(udp.data()[..38].to_vec()),
                        _ => Packet::from_bytes(udp.data()[..20 + usize::from(a)].to_vec()),
                    };
                    p.meta.seq = i as u64;
                    p
                })
                .collect()
        }

        /// The rows of `n` selected by the bits of `pick`, rotated so
        /// they are not in ascending order.
        fn pick_rows(n: usize, pick: u64) -> Vec<u32> {
            let mut rows: Vec<u32> = (0..n as u32)
                .filter(|r| pick >> (r % 64) & 1 == 1)
                .collect();
            let by = pick as usize % rows.len().max(1);
            rows.rotate_left(by);
            rows
        }

        /// `trace_flows(rows)[k]` ≡ `trace_flow(batch[rows[k]])`, with
        /// `traces` carrying an earlier batch's state into the call.
        fn assert_traces_match(
            run: &CompiledGraph,
            entry: NodeId,
            batch: &Batch,
            rows: &[u32],
            traces: &mut FlowTraces,
        ) -> Result<(), TestCaseError> {
            let lanes = batch.header_lanes();
            prop_assert!(run.trace_flows(entry, batch, &lanes, rows, traces));
            prop_assert_eq!(traces.len(), rows.len());
            for (k, &row) in rows.iter().enumerate() {
                let scalar = run.trace_flow(entry, batch.get(row as usize).unwrap());
                prop_assert_eq!(Some(&**traces.path(k)), scalar.as_ref(), "row {}", row);
            }
            // Shared, not copied: no two distinct paths are equal.
            let distinct = traces.distinct();
            for (i, a) in distinct.iter().enumerate() {
                prop_assert!(distinct[..i].iter().all(|b| b != a));
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// A diamond — classifier, two branches, merge — so rows
            /// reach the merge node with different walks behind them and
            /// the same verdict ahead, plus annotations on one branch
            /// and after the merge.
            #[test]
            fn diamond_traces_match_per_packet_walks(
                rows in collection::vec((0u8..7, any::<u8>(), any::<u16>()), 0..48),
                pick in any::<u64>(),
            ) {
                let mut g = ElementGraph::new();
                let cl = g.add(ProtocolClassifier::new("cl", vec![ip_proto::TCP]));
                let tcp = g.add(Tagger { slot: 2 });
                let rest = g.add(ProtocolClassifier::new("rest", vec![ip_proto::UDP]));
                let join = g.add(Tagger { slot: 3 });
                g.connect(cl, 0, tcp).unwrap();
                g.connect(cl, 1, rest).unwrap();
                g.connect(tcp, 0, join).unwrap();
                g.connect(rest, 0, join).unwrap(); // port 1 (neither): egress
                let run = g.compile().unwrap();
                prop_assert!(run.flow_cacheable());

                let batch = mixed_batch(&rows);
                let mut traces = FlowTraces::default();
                let all: Vec<u32> = (0..batch.len() as u32).collect();
                assert_traces_match(&run, cl, &batch, &all, &mut traces)?;
                assert_traces_match(&run, cl, &batch, &pick_rows(batch.len(), pick), &mut traces)?;
                // Entering mid-graph works the same way.
                assert_traces_match(&run, rest, &batch, &all, &mut traces)?;

                // The classifier's lane column is its scalar verdict.
                let lanes = batch.header_lanes();
                let sub = pick_rows(batch.len(), pick);
                let mut column = Vec::new();
                prop_assert!(run.graph().element(cl).flow_verdicts(&batch, &lanes, &sub, &mut column));
                let scalar: Vec<_> = sub
                    .iter()
                    .map(|&r| run.graph().element(cl).flow_verdict(batch.get(r as usize).unwrap()).unwrap())
                    .collect();
                prop_assert_eq!(column, scalar);
            }
        }

        /// One declining row declines the whole trace.
        #[test]
        fn a_declined_row_declines_the_trace() {
            #[derive(Debug, Clone)]
            struct DeclineTcp;
            impl Element for DeclineTcp {
                fn name(&self) -> &str {
                    "decline-tcp"
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
                    (pkt.ip_protocol() != Ok(ip_proto::TCP))
                        .then_some(FlowVerdict::Forward { port: 0 })
                }
            }
            let mut g = ElementGraph::new();
            let n = g.add(DeclineTcp);
            let run = g.compile().unwrap();
            let batch: Batch = [pkt_udp(0), pkt_tcp(1), pkt_udp(2)].into_iter().collect();
            let lanes = batch.header_lanes();
            let mut traces = FlowTraces::default();
            assert!(run.trace_flows(n, &batch, &lanes, &[0, 2], &mut traces));
            assert_eq!(traces.distinct().len(), 1, "two rows, one shared path");
            assert!(!run.trace_flows(n, &batch, &lanes, &[0, 1, 2], &mut traces));
            // The scratch survives a declined trace.
            assert!(run.trace_flows(n, &batch, &lanes, &[2], &mut traces));
            assert_eq!(traces.len(), 1);
        }
    }

    #[test]
    fn stats_reset_clears_counters() {
        let mut g = ElementGraph::new();
        let a = g.add(Counter::new("a"));
        let mut run = g.compile().unwrap();
        run.push(a, (0..3).map(pkt_udp).collect());
        assert_eq!(run.stats().node(a).packets_in, 3);
        run.reset_stats();
        assert_eq!(run.stats().node(a).packets_in, 0);
    }
}
