//! Property-based tests for the graph-partitioning algorithms: validity
//! invariants on random graphs and optimality comparisons against brute
//! force on small instances.

use nfc_graphpart::{agglomerative, kl, maxflow, Objective, PartGraph, Partition, Side};
use proptest::prelude::*;

/// Builds a random, connected-ish partition graph from proptest inputs.
fn build_graph(
    weights: &[(f64, f64, u8)], // (cpu, gpu, pin: 0=none 1=cpu 2=gpu-ish->none)
    extra_edges: &[(usize, usize, f64)],
) -> PartGraph {
    let mut g = PartGraph::new();
    for &(cpu, gpu, pin) in weights {
        match pin % 3 {
            1 => {
                g.add_pinned(cpu, f64::INFINITY, Side::Cpu);
            }
            _ => {
                g.add_node(cpu, gpu);
            }
        }
    }
    // Spanning chain keeps things connected.
    for i in 1..g.len() {
        g.add_edge(i - 1, i, 0.5);
    }
    for &(u, v, w) in extra_edges {
        let (u, v) = (u % g.len(), v % g.len());
        if u != v {
            g.add_edge(u.min(v), u.max(v), w);
        }
    }
    g
}

fn weight_strategy() -> impl Strategy<Value = Vec<(f64, f64, u8)>> {
    proptest::collection::vec((1.0f64..100.0, 1.0f64..100.0, any::<u8>()), 2..24)
}

fn edge_strategy() -> impl Strategy<Value = Vec<(usize, usize, f64)>> {
    proptest::collection::vec((any::<usize>(), any::<usize>(), 0.1f64..10.0), 0..16)
}

/// Exhaustive optimum for small graphs.
fn brute_force(g: &PartGraph, obj: &Objective) -> f64 {
    let free: Vec<usize> = (0..g.len()).filter(|&v| g.pin(v).is_none()).collect();
    let mut best = f64::INFINITY;
    for mask in 0u64..(1u64 << free.len()) {
        let mut sides: Vec<Side> = (0..g.len())
            .map(|v| g.pin(v).unwrap_or(Side::Cpu))
            .collect();
        for (bit, &v) in free.iter().enumerate() {
            if mask >> bit & 1 == 1 {
                sides[v] = Side::Gpu;
            }
        }
        best = best.min(obj.cost(g, &Partition(sides)));
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kl_always_respects_pins_and_assigns_everyone(
        weights in weight_strategy(),
        extra in edge_strategy(),
    ) {
        let g = build_graph(&weights, &extra);
        let part = kl::partition(&g, kl::KlOptions::default());
        prop_assert_eq!(part.0.len(), g.len());
        prop_assert!(part.respects_pins(&g));
    }

    #[test]
    fn agglomerative_respects_pins(
        weights in weight_strategy(),
        extra in edge_strategy(),
    ) {
        let g = build_graph(&weights, &extra);
        let seeds = agglomerative::default_seeds(&g);
        let part = agglomerative::partition(&g, &seeds, Objective::default());
        prop_assert_eq!(part.0.len(), g.len());
        prop_assert!(part.respects_pins(&g));
    }

    #[test]
    fn kl_never_worse_than_trivial_partitions(
        weights in weight_strategy(),
        extra in edge_strategy(),
    ) {
        let g = build_graph(&weights, &extra);
        let obj = Objective::default();
        let part = kl::partition(&g, kl::KlOptions::default());
        let cost = obj.cost(&g, &part);
        // All-CPU is always a legal plan (pins are CPU-only here).
        let all_cpu = Partition::all(g.len(), Side::Cpu);
        prop_assert!(
            cost <= obj.cost(&g, &all_cpu) + 1e-6,
            "KL {} worse than all-CPU {}",
            cost,
            obj.cost(&g, &all_cpu)
        );
    }

    #[test]
    fn kl_close_to_brute_force_on_small_graphs(
        weights in proptest::collection::vec((1.0f64..50.0, 1.0f64..50.0, any::<u8>()), 2..10),
        extra in proptest::collection::vec((any::<usize>(), any::<usize>(), 0.1f64..5.0), 0..6),
    ) {
        let g = build_graph(&weights, &extra);
        let obj = Objective::default();
        let part = kl::partition(&g, kl::KlOptions::default());
        let kl_cost = obj.cost(&g, &part);
        let opt = brute_force(&g, &obj);
        // Heuristic should land within 40% of the true optimum on tiny
        // instances (it is usually exact; KL is a local search).
        prop_assert!(
            kl_cost <= opt * 1.4 + 1e-6,
            "KL {} vs optimum {}",
            kl_cost,
            opt
        );
    }

    #[test]
    fn mfmc_matches_brute_force_energy(
        unary in proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0), 1..9),
        edges in proptest::collection::vec((any::<usize>(), any::<usize>(), 0.0f64..5.0), 0..10),
    ) {
        let n = unary.len();
        let edges: Vec<(usize, usize, f64)> = edges
            .into_iter()
            .filter_map(|(u, v, w)| {
                let (u, v) = (u % n, v % n);
                (u != v).then_some((u, v, w))
            })
            .collect();
        let labels = maxflow::mfmc_assign(&unary, &edges);
        let energy = |ls: &[bool]| -> f64 {
            let mut e = 0.0;
            for (v, &(c, g)) in unary.iter().enumerate() {
                e += if ls[v] { g } else { c };
            }
            for &(u, v, w) in &edges {
                if ls[u] != ls[v] {
                    e += w;
                }
            }
            e
        };
        let got = energy(&labels);
        let mut best = f64::INFINITY;
        for mask in 0u32..(1u32 << n) {
            let ls: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
            best = best.min(energy(&ls));
        }
        prop_assert!((got - best).abs() < 1e-6, "mfmc {} vs optimum {}", got, best);
    }

    #[test]
    fn objective_cost_is_consistent(
        weights in weight_strategy(),
        extra in edge_strategy(),
        flips in any::<u64>(),
    ) {
        let g = build_graph(&weights, &extra);
        let obj = Objective::default();
        let sides: Vec<Side> = (0..g.len())
            .map(|v| {
                g.pin(v).unwrap_or(if flips >> (v % 64) & 1 == 1 {
                    Side::Gpu
                } else {
                    Side::Cpu
                })
            })
            .collect();
        let part = Partition(sides);
        let loads = obj.loads(&g, &part);
        let cut = obj.cut(&g, &part);
        prop_assert!(loads[0] >= 0.0 && loads[1] >= 0.0 && cut >= 0.0);
        prop_assert!((obj.cost(&g, &part) - (loads[0].max(loads[1]) + cut)).abs() < 1e-9);
    }
}

/// δ-ablation on the paper chains: refining the slice granularity from
/// 20 % through 10 % to 5 % while warm-starting each re-partition from
/// the coarser plan must never produce a worse execution-consistent
/// stage cost. The δ grids nest (1/5 ⊂ 1/10 ⊂ 1/20), so the previous
/// plan is always representable on the finer grid and the warm
/// allocator's carry candidate guarantees monotonicity.
mod delta_ablation {
    use nfc_core::allocator::{allocate_warm_traced, PartitionAlgo, Pricing};
    use nfc_core::profiler::{GraphWeights, Profiler};
    use nfc_core::{Policy, Sfc};
    use nfc_hetero::{CoRunContext, CostModel, GpuMode, PlatformConfig};
    use nfc_nf::Nf;
    use nfc_packet::traffic::{SizeDist, TrafficGenerator, TrafficSpec};
    use nfc_telemetry::Recorder;

    fn profile(nf: &Nf, pkt: usize) -> GraphWeights {
        let mut run = nf.graph().clone().compile().expect("catalog compiles");
        let mut gen = TrafficGenerator::new(TrafficSpec::udp(SizeDist::Fixed(pkt)), 3);
        for _ in 0..8 {
            run.push_merged(nf.entry(), gen.batch(256));
        }
        let model = CostModel::new(PlatformConfig::hpca18());
        Profiler::new(model, GpuMode::Persistent).measure(&run)
    }

    fn ablate(nf: &Nf, pkt: usize, algo: PartitionAlgo) {
        let weights = profile(nf, pkt);
        let model = CostModel::new(PlatformConfig::hpca18());
        let corun = CoRunContext::solo();
        let mut prev_ratios = vec![0.0; weights.nodes.len()];
        let mut prev_cost = f64::INFINITY;
        for delta in [0.2, 0.1, 0.05] {
            let plan = allocate_warm_traced(
                nf.graph(),
                &weights,
                &prev_ratios,
                algo,
                delta,
                &Pricing {
                    model,
                    corun: corun.clone(),
                    mode: GpuMode::Persistent,
                },
                &mut Recorder::disabled(),
            );
            assert!(
                plan.predicted_cost_ns <= prev_cost + 1e-6,
                "{} {algo:?}: δ={delta} cost {} worse than coarser {}",
                nf.name(),
                plan.predicted_cost_ns,
                prev_cost
            );
            prev_cost = plan.predicted_cost_ns;
            prev_ratios = plan.ratios;
        }
    }

    #[test]
    fn finer_delta_never_worse_on_paper_chains() {
        for algo in [PartitionAlgo::Kl, PartitionAlgo::Agglomerative] {
            ablate(&Nf::ipsec("ipsec"), 512, algo);
            ablate(&Nf::dpi("dpi"), 512, algo);
            ablate(&Nf::ipv4_forwarder("router", 100, 2), 64, algo);
        }
    }

    /// The same monotonicity, end-to-end: the paper's default policy at
    /// finer δ must not lose throughput on the heavy chain.
    #[test]
    fn finer_delta_never_worse_end_to_end() {
        let run = |delta: f64| {
            let sfc = Sfc::new("heavy", vec![Nf::ipsec("ipsec"), Nf::dpi("dpi")]);
            let mut dep = nfc_core::Deployment::new(sfc, Policy::nfcompass()).with_batch_size(256);
            dep.delta = delta;
            let mut t = TrafficGenerator::new(TrafficSpec::udp(SizeDist::Fixed(512)), 42);
            dep.run(&mut t, 20).report.throughput_gbps
        };
        let coarse = run(0.2);
        let fine = run(0.05);
        assert!(
            fine >= 0.9 * coarse,
            "δ=0.05 throughput {fine} collapsed vs δ=0.2 {coarse}"
        );
    }
}
