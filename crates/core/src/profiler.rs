//! Runtime + offline profiling (§IV-C2).
//!
//! The paper combines two information sources as graph weights:
//! *traffic-related statistics* sampled from the live element graph
//! (per-edge packet-flow distribution and per-element utilization, which
//! `nfc-click` accumulates in [`GraphStats`]) and *performance-related
//! statistics* from offline profiling (per-element processing rates on
//! CPU and GPU across packet sizes and intensities, which the calibrated
//! [`CostModel`] supplies). NFCompass "uses a dictionary to store the
//! profiling information, indexed by vertex ID and edge ID" — that
//! dictionary is [`GraphWeights`]: [`GraphWeights::nodes`] is indexed by
//! vertex (`NodeId`) and [`GraphWeights::edge_transfer_ns`] by edge.
//!
//! [`GraphStats`]: nfc_click::GraphStats

use nfc_click::{CompiledGraph, NodeId, Offload};
use nfc_hetero::cost::GpuTime;
use nfc_hetero::{CoRunContext, CostModel, ElementLoad, GpuMode};

/// Per-element profiled weight (averages per batch).
#[derive(Debug, Clone, Copy)]
pub struct NodeWeight {
    /// Average load of one batch at this element.
    pub load: ElementLoad,
    /// CPU time per batch, ns.
    pub cpu_ns: f64,
    /// GPU path breakdown per batch (kernel + transfers + dispatch);
    /// infinite kernel time for non-offloadable elements.
    pub gpu: GpuTime,
    /// Whether the element has a GPU implementation.
    pub offloadable: bool,
}

/// Profiled weights for one element graph.
#[derive(Debug, Clone)]
pub struct GraphWeights {
    /// Per-node weights, indexed by `NodeId.0`.
    pub nodes: Vec<NodeWeight>,
    /// Per-edge one-way transfer cost (ns) if the edge is cut across the
    /// PCIe boundary; indexed like `ElementGraph::edges`.
    pub edge_transfer_ns: Vec<f64>,
    /// Average batch packet count at the graph entry.
    pub entry_packets: f64,
    /// Average batch bytes at the graph entry.
    pub entry_bytes: f64,
}

/// Derives graph weights from live statistics and the cost model.
#[derive(Debug, Clone, Copy)]
pub struct Profiler {
    /// Cost model in effect.
    pub model: CostModel,
    /// GPU dispatch mode assumed for GPU-side weights.
    pub mode: GpuMode,
}

impl Profiler {
    /// Creates a profiler.
    pub fn new(model: CostModel, mode: GpuMode) -> Self {
        Profiler { model, mode }
    }

    /// Computes weights from the statistics accumulated in `run`
    /// (drive representative traffic through the compiled graph first).
    pub fn measure(&self, run: &CompiledGraph) -> GraphWeights {
        self.measure_with_corun(run, &CoRunContext::solo())
    }

    /// Like [`Profiler::measure`] with an explicit co-run context, so CPU
    /// weights reflect the cache interference the element will actually
    /// see next to its co-deployed NFs.
    pub fn measure_with_corun(&self, run: &CompiledGraph, corun: &CoRunContext) -> GraphWeights {
        self.measure_stats_with_corun(run, run.stats(), corun)
    }

    /// Like [`Profiler::measure_with_corun`] but over an explicit
    /// statistics window instead of the graph's cumulative counters —
    /// the online re-profiling path, which measures one observation
    /// window via [`GraphStats::delta`] snapshots without ever resetting
    /// the live counters.
    ///
    /// [`GraphStats::delta`]: nfc_click::GraphStats::delta
    pub fn measure_stats_with_corun(
        &self,
        run: &CompiledGraph,
        stats: &nfc_click::GraphStats,
        corun: &CoRunContext,
    ) -> GraphWeights {
        let g = run.graph();
        let ctx = corun.clone();
        let mut nodes = Vec::with_capacity(g.node_count());
        for id in g.node_ids() {
            let el = g.element(id);
            let st = stats.node(id);
            let batches = st.batches.max(1) as f64;
            let packets = (st.packets_in as f64 / batches).round() as usize;
            let bytes = (st.bytes_in as f64 / batches).round() as usize;
            let kernel = match el.offload() {
                Offload::Offloadable { kernel } => Some(kernel),
                Offload::CpuOnly => None,
            };
            let load = ElementLoad::new(el.work(), kernel, packets, bytes);
            let cpu_ns = self.model.cpu_batch_ns(&load, &ctx);
            let gpu = self.model.gpu_batch_ns(&load, self.mode);
            nodes.push(NodeWeight {
                load,
                cpu_ns,
                gpu,
                offloadable: kernel.is_some(),
            });
        }
        let edge_transfer_ns = (0..g.edges().len())
            .map(|i| {
                let batches = stats.node(g.edges()[i].from).batches.max(1) as f64;
                let bytes = stats.edge_bytes(i) as f64 / batches;
                self.model.platform().pcie.dma_latency_ns
                    + bytes / self.model.platform().pcie.bw_gbs
            })
            .collect();
        let entry = g.entries().first().copied().unwrap_or(NodeId(0));
        let est = stats.node(entry);
        let eb = est.batches.max(1) as f64;
        GraphWeights {
            nodes,
            edge_transfer_ns,
            entry_packets: est.packets_in as f64 / eb,
            entry_bytes: est.bytes_in as f64 / eb,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfc_click::KernelClass;
    use nfc_hetero::PlatformConfig;
    use nfc_nf::Nf;
    use nfc_packet::traffic::{SizeDist, TrafficGenerator, TrafficSpec};

    fn model() -> CostModel {
        CostModel::new(PlatformConfig::hpca18())
    }

    #[test]
    fn measure_reflects_traffic_and_drops() {
        let nf = Nf::ipv4_forwarder("r", 100, 1);
        let mut run = nf.graph().clone().compile().unwrap();
        let mut gen = TrafficGenerator::new(TrafficSpec::udp(SizeDist::Fixed(128)), 3);
        for _ in 0..10 {
            let b = gen.batch(64);
            run.push_merged(nf.entry(), b);
        }
        let w = Profiler::new(model(), GpuMode::Persistent).measure(&run);
        assert_eq!(w.nodes.len(), nf.graph().node_count());
        assert!((w.entry_packets - 64.0).abs() < 1e-9);
        assert!(w.entry_bytes > 0.0);
        // The lookup element is offloadable with finite GPU time; the
        // TTL/MAC stages are CPU-pinned.
        let offloadables: Vec<bool> = w.nodes.iter().map(|n| n.offloadable).collect();
        assert!(offloadables.contains(&true));
        assert!(offloadables.contains(&false));
        for n in &w.nodes {
            if n.offloadable {
                assert!(n.gpu.total().is_finite());
            }
            assert!(n.cpu_ns > 0.0);
        }
        // Edge transfers priced.
        assert_eq!(w.edge_transfer_ns.len(), nf.graph().edges().len());
        assert!(w.edge_transfer_ns.iter().all(|&t| t > 0.0));
    }

    #[test]
    fn ids_content_factor_reaches_weights() {
        use nfc_packet::traffic::PayloadPolicy;
        let nf = Nf::dpi("dpi");
        let mut run = nf.graph().clone().compile().unwrap();
        let spec = TrafficSpec::udp(SizeDist::Fixed(512)).with_payload(PayloadPolicy::MatchRatio {
            patterns: Nf::default_ids_signatures(),
            ratio: 1.0,
        });
        let mut gen = TrafficGenerator::new(spec, 5);
        for _ in 0..5 {
            run.push_merged(nf.entry(), gen.batch(64));
        }
        let w = Profiler::new(model(), GpuMode::Persistent).measure(&run);
        let matcher = w
            .nodes
            .iter()
            .find(|n| n.load.work.match_factor > 1.0)
            .expect("full-match traffic should raise the content factor");
        assert!(matcher.load.work.match_factor > 3.0);
    }

    #[test]
    fn crypto_gpu_beats_cpu_in_dictionary() {
        // The vertex entries of the weights dictionary price the IPsec
        // crypto element on both processors; at 1024 × 1024 B the GPU
        // path (kernel + transfers) must win.
        let nf = Nf::ipsec("ipsec");
        let mut run = nf.graph().clone().compile().unwrap();
        let mut gen = TrafficGenerator::new(TrafficSpec::udp(SizeDist::Fixed(1024)), 9);
        run.push_merged(nf.entry(), gen.batch(1024));
        let w = Profiler::new(model(), GpuMode::Persistent).measure(&run);
        let crypto = w
            .nodes
            .iter()
            .find(|n| n.load.kernel == Some(KernelClass::Crypto))
            .expect("IPsec has a crypto element");
        assert!(
            crypto.gpu.total() < crypto.cpu_ns,
            "large-batch crypto should be faster on GPU: {crypto:?}"
        );
    }
}
