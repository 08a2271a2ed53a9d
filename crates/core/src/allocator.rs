//! Graph-partition task allocation (§IV-C3).
//!
//! Maps the expanded element graph onto CPU and GPU, producing per-element
//! offload ratios. Three algorithms, matching the paper's design space:
//! the multilevel **KL** algorithm (primary), the light-weight
//! **seed-based agglomerative** clustering (scalable fallback), and the
//! exact **MFMC** min-cut formulation (the model the paper cites; load-
//! balance-blind, kept for ablation).
//!
//! Every plan is then ranked by [`stage_cost`], which is
//! [`Pricing::charge`] at the profiled batch: the same charge the
//! runtime computes for each batch and the simulator replays.

use crate::expansion::Expansion;
use crate::profiler::{GraphWeights, Profiler};
use nfc_click::{CompiledGraph, ElementGraph, GraphStats};
use nfc_graphpart::{agglomerative, kl, maxflow, Objective, Partition, Side};
use nfc_hetero::{CoRunContext, CostModel, ElementLoad, GpuMode};
use nfc_telemetry::Recorder;

/// Which partitioning algorithm the allocator runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionAlgo {
    /// Multilevel modified Kernighan–Lin (the paper's primary scheme).
    Kl,
    /// Seed-based agglomerative clustering (the O(k log k) fallback).
    Agglomerative,
    /// Exact max-flow/min-cut on unary + cut energy (ablation).
    Mfmc,
}

impl PartitionAlgo {
    /// The algorithm's name in traces and controller reports, one of
    /// [`nfc_telemetry::PARTITION_ALGOS`].
    pub fn label(self) -> &'static str {
        match self {
            PartitionAlgo::Kl => "kl",
            PartitionAlgo::Agglomerative => "agglomerative",
            PartitionAlgo::Mfmc => "mfmc",
        }
    }
}

/// The allocation decision for one element graph.
#[derive(Debug, Clone)]
pub struct AllocationPlan {
    /// Offload ratio per element, indexed by `NodeId.0` (0 = all CPU,
    /// 1 = all GPU), snapped to the δ grid.
    pub ratios: Vec<f64>,
    /// The partitioner's predicted makespan cost, ns per batch.
    pub predicted_cost_ns: f64,
    /// Algorithm used.
    pub algo: PartitionAlgo,
}

impl AllocationPlan {
    /// A uniform fixed ratio on offloadable elements: 0 is the all-CPU
    /// plan, 1 offloads every offloadable element fully.
    pub fn fixed_ratio(offloadable: &[bool], ratio: f64) -> Self {
        AllocationPlan {
            ratios: offloadable
                .iter()
                .map(|&o| if o { ratio } else { 0.0 })
                .collect(),
            predicted_cost_ns: f64::NAN,
            algo: PartitionAlgo::Kl,
        }
    }

    /// Mean offload ratio over offloadable elements (reporting).
    pub fn mean_offload(&self, offloadable: &[bool]) -> f64 {
        let xs: Vec<f64> = self
            .ratios
            .iter()
            .zip(offloadable)
            .filter(|(_, &o)| o)
            .map(|(&r, _)| r)
            .collect();
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    }
}

/// What prices a stage: its cost model (a synthesized stage keeps the
/// cores of every NF merged into it), its co-run context and its
/// effective GPU dispatch mode. The planners and the runtime price a
/// stage only through it, so a plan is ranked by the charge the
/// simulator replays.
#[derive(Debug, Clone)]
pub struct Pricing {
    /// The stage's cost model.
    pub model: CostModel,
    /// The stage's cache co-runners.
    pub corun: CoRunContext,
    /// Dispatch mode in effect: the runtime downgrades a stage to
    /// launch-per-batch when the SM-residency pass spills it.
    pub mode: GpuMode,
}

/// The element sums of one stage's charge for one batch, from
/// [`Pricing::charge`]. Callers add what is not per element: the
/// carve and re-merge of a partial offload, one DMA each way sized by
/// `gpu_bytes`, and at run time the batch's functional splits and
/// merges.
#[derive(Debug, Clone, Copy, Default)]
pub struct Charge {
    /// CPU time of every element's CPU share, ns.
    pub cpu_ns: f64,
    /// Kernel plus dispatch time of every element's GPU share, ns.
    pub kernel_ns: f64,
    /// Largest per-element payload shipped to the device, bytes.
    pub gpu_bytes: f64,
    /// Largest per-element packet count shipped to the device.
    pub gpu_packets: usize,
    /// Elements with a GPU share (one kernel dispatch each).
    pub gpu_kernels: u32,
    /// Whether some element is split between CPU and GPU.
    pub partial: bool,
}

impl Pricing {
    /// The one statement of what a stage is charged: walks its elements'
    /// `(load, offload ratio)` pairs in graph order. A CPU-only element
    /// keeps all of its load on the CPU whatever its ratio says.
    pub fn charge(&self, elements: impl IntoIterator<Item = (ElementLoad, f64)>) -> Charge {
        let mut c = Charge::default();
        for (load, r) in elements {
            let r = if load.kernel.is_some() { r } else { 0.0 };
            if r < 1.0 {
                c.cpu_ns += self
                    .model
                    .cpu_batch_ns(&load.fraction(1.0 - r), &self.corun);
            }
            if r > 0.0 {
                let part = load.fraction(r);
                let g = self.model.gpu_batch_ns(&part, self.mode);
                c.kernel_ns += g.kernel_ns + g.dispatch_ns;
                c.gpu_bytes = c.gpu_bytes.max(part.bytes as f64);
                c.gpu_packets = c.gpu_packets.max(part.packets);
                c.gpu_kernels += 1;
            }
            if r > 0.0 && r < 1.0 {
                c.partial = true;
            }
        }
        c
    }

    /// [`Pricing::charge`] of the profiled batch under per-element
    /// `ratios` (a missing ratio is 0).
    pub fn profiled_charge(&self, weights: &GraphWeights, ratios: &[f64]) -> Charge {
        self.charge(
            weights
                .nodes
                .iter()
                .enumerate()
                .map(|(i, w)| (w.load, ratios.get(i).copied().unwrap_or(0.0))),
        )
    }

    /// One DMA of `bytes` over the PCIe link, ns.
    pub fn dma_ns(&self, bytes: f64) -> f64 {
        let pcie = self.model.platform().pcie;
        pcie.dma_latency_ns + bytes / pcie.bw_gbs
    }

    /// Profiles `run` over the statistics window `stats` under this
    /// stage's model, co-runners and dispatch mode.
    pub fn profile(&self, run: &CompiledGraph, stats: &GraphStats) -> GraphWeights {
        Profiler::new(self.model, self.mode).measure_stats_with_corun(run, stats, &self.corun)
    }
}

/// Cost of one stage under per-element `ratios`, ns per batch: the
/// [`Pricing::charge`] of the profiled batch, plus the carve and
/// re-merge of a partial offload and one DMA each way, as the pipeline
/// bottleneck max(CPU side, GPU side).
pub fn stage_cost(pricing: &Pricing, weights: &GraphWeights, ratios: &[f64]) -> f64 {
    let c = pricing.profiled_charge(weights, ratios);
    let batch = weights.entry_packets.round().max(1.0) as usize;
    let mut cpu = c.cpu_ns;
    if c.partial {
        cpu += pricing.model.carve_ns(batch) + pricing.model.offload_merge_ns(batch);
    }
    let mut gpu = c.kernel_ns;
    if c.gpu_kernels > 0 {
        gpu += 2.0 * pricing.dma_ns(c.gpu_bytes);
    }
    cpu.max(gpu)
}

/// The paper's "dynamic task adaption" (§IV-C3): coordinate descent on
/// the δ grid refining a partitioner's ratios against [`stage_cost`].
/// Converges in a few sweeps.
pub fn adapt_ratios(
    pricing: &Pricing,
    weights: &GraphWeights,
    plan: &mut AllocationPlan,
    delta: f64,
) {
    let steps = (1.0 / delta).round().max(1.0) as i64;
    let mut best_cost = stage_cost(pricing, weights, &plan.ratios);
    for _ in 0..4 {
        let mut improved = false;
        for i in 0..plan.ratios.len() {
            if !weights.nodes[i].offloadable {
                continue;
            }
            let mut current = plan.ratios[i];
            for s in 0..=steps {
                let r = s as f64 / steps as f64;
                if (r - current).abs() < 1e-9 {
                    continue;
                }
                plan.ratios[i] = r;
                let c = stage_cost(pricing, weights, &plan.ratios);
                if c + 1e-9 < best_cost {
                    best_cost = c;
                    current = r;
                    improved = true;
                } else {
                    plan.ratios[i] = current;
                }
            }
        }
        if !improved {
            break;
        }
    }
    plan.predicted_cost_ns = best_cost;
}

/// Runs the selected partitioner over the profiled, expanded graph.
pub fn allocate(
    graph: &ElementGraph,
    weights: &GraphWeights,
    algo: PartitionAlgo,
    delta: f64,
) -> AllocationPlan {
    allocate_traced(graph, weights, algo, delta, &mut Recorder::disabled())
}

/// [`allocate`], recording the partitioner's per-pass telemetry
/// (KL refinement passes, agglomerative merge summaries) into `rec`.
pub fn allocate_traced(
    graph: &ElementGraph,
    weights: &GraphWeights,
    algo: PartitionAlgo,
    delta: f64,
    rec: &mut Recorder,
) -> AllocationPlan {
    let exp = Expansion::expand(graph, weights, delta);
    let objective = Objective::default();
    let partition = match algo {
        PartitionAlgo::Kl => kl::partition_traced(
            &exp.part,
            kl::KlOptions {
                objective,
                ..Default::default()
            },
            rec,
        ),
        PartitionAlgo::Agglomerative => {
            // Seed only the GPU side explicitly; the CPU-pinned I/O nodes
            // provide the CPU anchors. Seeding both sides inside the
            // slice mesh makes heavy-edge merging glue nearly everything
            // to whichever seed comes first.
            let seeds: Vec<_> = agglomerative::default_seeds(&exp.part)
                .into_iter()
                .filter(|s| s.side == Side::Gpu)
                .collect();
            agglomerative::partition_traced(&exp.part, &seeds, objective, rec)
        }
        PartitionAlgo::Mfmc => {
            let unary: Vec<(f64, f64)> = (0..exp.part.len())
                .map(|v| {
                    let w = exp.part.weight(v);
                    match exp.part.pin(v) {
                        Some(Side::Cpu) => (w[0], f64::INFINITY),
                        Some(Side::Gpu) => (f64::INFINITY, w[1]),
                        None => (w[0], w[1]),
                    }
                })
                .collect();
            let edges: Vec<(usize, usize, f64)> = exp.part.edges().to_vec();
            let labels = maxflow::mfmc_assign(&unary, &edges);
            Partition(
                labels
                    .into_iter()
                    .map(|g| if g { Side::Gpu } else { Side::Cpu })
                    .collect(),
            )
        }
    };
    let predicted_cost_ns = objective.cost(&exp.part, &partition);
    AllocationPlan {
        ratios: exp.ratios(&partition),
        predicted_cost_ns,
        algo,
    }
}

/// Warm-started re-partition: the online entry point. Runs the selected
/// partitioner seeded from the ratios of the plan currently in effect —
/// agglomerative clustering anchors on the previous cut's strongest
/// per-side nodes ([`agglomerative::seeds_from_partition`]), KL refines
/// the previous cut directly instead of re-coarsening
/// ([`kl::refine_partition_traced`]) — and keeps whichever of the cold
/// and warm candidates scores better under [`stage_cost`]. Warm-starting
/// makes the fast path cheaper *and*, for nested δ grids, monotone: a
/// finer δ can only improve on the coarser plan it starts from.
pub fn allocate_warm_traced(
    graph: &ElementGraph,
    weights: &GraphWeights,
    prev_ratios: &[f64],
    algo: PartitionAlgo,
    delta: f64,
    pricing: &Pricing,
    rec: &mut Recorder,
) -> AllocationPlan {
    let exp = Expansion::expand(graph, weights, delta);
    let objective = Objective::default();
    let warm_part = exp.partition_from_ratios(prev_ratios);
    let warm_partition = match algo {
        PartitionAlgo::Kl => kl::refine_partition_traced(
            &exp.part,
            &warm_part,
            kl::KlOptions {
                objective,
                ..Default::default()
            },
            rec,
        ),
        PartitionAlgo::Agglomerative => {
            let seeds: Vec<_> = agglomerative::seeds_from_partition(&exp.part, &warm_part)
                .into_iter()
                .filter(|s| s.side == Side::Gpu)
                .collect();
            agglomerative::partition_traced(&exp.part, &seeds, objective, rec)
        }
        // MFMC is exact: warm starts cannot change its answer.
        PartitionAlgo::Mfmc => {
            return allocate_traced(graph, weights, algo, delta, rec);
        }
    };
    let mut warm = AllocationPlan {
        ratios: exp.ratios(&warm_partition),
        predicted_cost_ns: objective.cost(&exp.part, &warm_partition),
        algo,
    };
    // The previous plan itself (snapped to this δ grid) is always a
    // candidate: re-planning can then never regress below the plan in
    // effect, and with nested grids a finer δ is monotonically no worse.
    let mut carry = AllocationPlan {
        ratios: exp.ratios(&warm_part),
        predicted_cost_ns: f64::NAN,
        algo,
    };
    let mut cold = allocate_traced(graph, weights, algo, delta, rec);
    adapt_ratios(pricing, weights, &mut warm, delta);
    adapt_ratios(pricing, weights, &mut carry, delta);
    adapt_ratios(pricing, weights, &mut cold, delta);
    // adapt_ratios scores every candidate with stage_cost, so the
    // comparison is apples-to-apples; ties prefer warm/carry (fewer
    // ratio changes to apply during the swap).
    let mut best = warm;
    for cand in [carry, cold] {
        if cand.predicted_cost_ns + 1e-9 < best.predicted_cost_ns {
            best = cand;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::Profiler;
    use nfc_hetero::{CostModel, GpuMode, PlatformConfig};
    use nfc_nf::Nf;
    use nfc_packet::traffic::{SizeDist, TrafficGenerator, TrafficSpec};

    fn weights_for(nf: &Nf, pkt: usize, batch: usize) -> GraphWeights {
        let mut run = nf.graph().clone().compile().unwrap();
        let mut gen = TrafficGenerator::new(TrafficSpec::udp(SizeDist::Fixed(pkt)), 3);
        for _ in 0..8 {
            run.push_merged(nf.entry(), gen.batch(batch));
        }
        let model = CostModel::new(PlatformConfig::hpca18());
        Profiler::new(model, GpuMode::Persistent).measure(&run)
    }

    #[test]
    fn ipsec_gets_partial_offload_from_kl() {
        // The paper's Figure 6 behaviour must emerge from the allocator:
        // IPsec lands at an interior offload ratio.
        let nf = Nf::ipsec("ipsec");
        let w = weights_for(&nf, 512, 256);
        let plan = allocate(nf.graph(), &w, PartitionAlgo::Kl, 0.1);
        let r = plan.ratios[nf.entry().0];
        assert!(
            (0.3..=1.0).contains(&r),
            "IPsec should be mostly offloaded, got {r}"
        );
        assert!(plan.predicted_cost_ns.is_finite());
    }

    #[test]
    fn ipv4_stays_on_cpu() {
        // Figure 15: "GTA does not offload tasks to GPU at all for IPv4".
        let nf = Nf::ipv4_forwarder("r", 100, 1);
        let w = weights_for(&nf, 64, 256);
        for algo in [PartitionAlgo::Kl, PartitionAlgo::Agglomerative] {
            let plan = allocate(nf.graph(), &w, algo, 0.1);
            let total: f64 = plan.ratios.iter().sum();
            assert!(
                total < 0.15,
                "{algo:?} should keep IPv4 on CPU, ratios {:?}",
                plan.ratios
            );
        }
    }

    #[test]
    fn ratios_snap_to_delta_grid() {
        let nf = Nf::ipsec("ipsec");
        let w = weights_for(&nf, 512, 256);
        let plan = allocate(nf.graph(), &w, PartitionAlgo::Kl, 0.1);
        for r in &plan.ratios {
            let snapped = (r * 10.0).round() / 10.0;
            assert!((r - snapped).abs() < 1e-9, "ratio {r} not on the 10% grid");
        }
    }

    #[test]
    fn all_algorithms_produce_valid_plans() {
        let nf = Nf::dpi("dpi");
        let w = weights_for(&nf, 512, 256);
        for algo in [
            PartitionAlgo::Kl,
            PartitionAlgo::Agglomerative,
            PartitionAlgo::Mfmc,
        ] {
            let plan = allocate(nf.graph(), &w, algo, 0.1);
            assert_eq!(plan.ratios.len(), nf.graph().node_count());
            assert!(plan.ratios.iter().all(|r| (0.0..=1.0).contains(r)));
            assert_eq!(plan.algo, algo);
        }
    }

    #[test]
    fn warm_start_never_loses_to_cold() {
        let pricing = Pricing {
            model: CostModel::new(PlatformConfig::hpca18()),
            corun: CoRunContext::solo(),
            mode: GpuMode::Persistent,
        };
        for nf in [Nf::ipsec("ipsec"), Nf::dpi("dpi")] {
            let w = weights_for(&nf, 512, 256);
            let mut cold = allocate(nf.graph(), &w, PartitionAlgo::Kl, 0.1);
            adapt_ratios(&pricing, &w, &mut cold, 0.1);
            for algo in [
                PartitionAlgo::Kl,
                PartitionAlgo::Agglomerative,
                PartitionAlgo::Mfmc,
            ] {
                let warm = allocate_warm_traced(
                    nf.graph(),
                    &w,
                    &cold.ratios,
                    algo,
                    0.1,
                    &pricing,
                    &mut Recorder::disabled(),
                );
                assert_eq!(warm.ratios.len(), nf.graph().node_count());
                assert!(warm.ratios.iter().all(|r| (0.0..=1.0).contains(r)));
                if algo != PartitionAlgo::Mfmc {
                    assert!(
                        warm.predicted_cost_ns <= stage_cost(&pricing, &w, &cold.ratios) + 1e-6,
                        "{algo:?} warm plan must not be worse than its warm start"
                    );
                }
            }
        }
    }

    #[test]
    fn helper_plans() {
        let offloadable = [true, false, true];
        let gpu = AllocationPlan::fixed_ratio(&offloadable, 1.0);
        assert_eq!(gpu.ratios, vec![1.0, 0.0, 1.0]);
        let cpu = AllocationPlan::fixed_ratio(&offloadable, 0.0);
        assert_eq!(cpu.ratios, vec![0.0; 3]);
        let fixed = AllocationPlan::fixed_ratio(&offloadable, 0.7);
        assert_eq!(fixed.ratios, vec![0.7, 0.0, 0.7]);
        assert!((fixed.mean_offload(&offloadable) - 0.7).abs() < 1e-9);
    }
}
