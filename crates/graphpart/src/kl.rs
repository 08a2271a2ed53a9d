//! Modified Kernighan–Lin partitioning with METIS-style multilevel
//! coarsening.
//!
//! The paper (§IV-C3): "Our first graph partitioning algorithm is
//! implemented as a modified Kernighan-Lin (KL) Algorithm using METIS.
//! ... The algorithm iteratively swaps X and Y, two subsets of elements
//! that belong to G1 and G2, and then examines the gain function
//! determined by the removed edges and balanced tasks between two
//! graphs."
//!
//! Implementation notes: the refinement is a Fiduccia–Mattheyses-style
//! single-move variant of KL (the standard "modified KL"): each pass
//! tentatively moves every unlocked, unpinned node once in best-gain
//! order, then rolls back to the best prefix. Gains are computed against
//! the full makespan objective, which folds the paper's "removed edges
//! and balanced tasks" into one number. Multilevel coarsening uses
//! heavy-edge matching as in METIS.

use crate::graph::{Objective, PartGraph, Partition, Side};
use nfc_telemetry::{EventKind, Recorder};

/// Options for the KL partitioner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KlOptions {
    /// Maximum refinement passes per level.
    pub max_passes: usize,
    /// Coarsen until at most this many nodes remain.
    pub coarsen_to: usize,
    /// Objective parameters.
    pub objective: Objective,
}

impl Default for KlOptions {
    fn default() -> Self {
        KlOptions {
            max_passes: 12,
            coarsen_to: 32,
            objective: Objective::default(),
        }
    }
}

/// Partitions `g` with multilevel KL.
///
/// Pinned nodes never move. Returns a partition respecting all pins.
pub fn partition(g: &PartGraph, opts: KlOptions) -> Partition {
    partition_traced(g, opts, &mut Recorder::disabled())
}

/// [`partition`] recording one telemetry event per refinement pass
/// (moves applied, objective cost before/after) into `rec`.
pub fn partition_traced(g: &PartGraph, opts: KlOptions, rec: &mut Recorder) -> Partition {
    if g.is_empty() {
        return Partition(Vec::new());
    }
    multilevel(g, &opts, 0, rec)
}

/// Flat (single-level) KL refinement from a greedy initial assignment —
/// exposed for comparing multilevel against flat.
pub fn partition_flat(g: &PartGraph, opts: KlOptions) -> Partition {
    partition_flat_traced(g, opts, &mut Recorder::disabled())
}

/// [`partition_flat`] with per-pass telemetry (see [`partition_traced`]).
pub fn partition_flat_traced(g: &PartGraph, opts: KlOptions, rec: &mut Recorder) -> Partition {
    let mut part = greedy_initial(g);
    refine(g, &mut part, &opts, rec);
    part
}

/// Warm-start refinement: runs the KL refinement passes from `warm`
/// instead of a greedy seed — the incremental re-partition entry point
/// for online re-planning, where the previous cut is usually a few
/// moves away from the new optimum. Sides of `warm` are re-clamped to
/// the graph's pins first, so a warm partition from a *different*
/// pin configuration (e.g. after an NF gained offloadable work) is
/// still legal. The result never costs more than `warm` under `opts`'
/// objective: refinement passes only apply improving prefixes.
pub fn refine_partition_traced(
    g: &PartGraph,
    warm: &Partition,
    opts: KlOptions,
    rec: &mut Recorder,
) -> Partition {
    if g.is_empty() {
        return Partition(Vec::new());
    }
    let mut part = if warm.0.len() == g.len() {
        warm.clone()
    } else {
        greedy_initial(g)
    };
    for v in 0..g.len() {
        if let Some(p) = g.pin(v) {
            part.0[v] = p;
        }
    }
    refine(g, &mut part, &opts, rec);
    part
}

/// [`refine_partition_traced`] without telemetry.
pub fn refine_partition(g: &PartGraph, warm: &Partition, opts: KlOptions) -> Partition {
    refine_partition_traced(g, warm, opts, &mut Recorder::disabled())
}

fn multilevel(g: &PartGraph, opts: &KlOptions, depth: usize, rec: &mut Recorder) -> Partition {
    if g.len() <= opts.coarsen_to || depth > 20 {
        return partition_flat_traced(g, *opts, rec);
    }
    // --- Coarsen: heavy-edge matching ---
    let n = g.len();
    let mut matched = vec![usize::MAX; n];
    // Visit nodes in order of total incident weight (heaviest first).
    let mut order: Vec<usize> = (0..n).collect();
    let incident: Vec<f64> = (0..n)
        .map(|v| g.neighbors(v).iter().map(|(_, w)| w).sum())
        .collect();
    order.sort_by(|&a, &b| incident[b].partial_cmp(&incident[a]).unwrap());
    for &v in &order {
        if matched[v] != usize::MAX {
            continue;
        }
        // Heaviest unmatched, pin-compatible neighbour.
        let mut best: Option<(usize, f64)> = None;
        for &(u, w) in g.neighbors(v) {
            if matched[u] != usize::MAX {
                continue;
            }
            let compatible = match (g.pin(v), g.pin(u)) {
                (Some(a), Some(b)) => a == b,
                _ => true,
            };
            if compatible && best.map(|(_, bw)| w > bw).unwrap_or(true) {
                best = Some((u, w));
            }
        }
        match best {
            Some((u, _)) => {
                matched[v] = u;
                matched[u] = v;
            }
            None => matched[v] = v,
        }
    }
    // Build the coarse graph.
    let mut coarse_id = vec![usize::MAX; n];
    let mut coarse = PartGraph::new();
    for v in 0..n {
        if coarse_id[v] != usize::MAX {
            continue;
        }
        let u = matched[v];
        let (w, pin) = if u == v {
            (g.weight(v), g.pin(v))
        } else {
            let wv = g.weight(v);
            let wu = g.weight(u);
            ([wv[0] + wu[0], wv[1] + wu[1]], g.pin(v).or(g.pin(u)))
        };
        let id = match pin {
            Some(side) => coarse.add_pinned(w[0], w[1], side),
            None => coarse.add_node(w[0], w[1]),
        };
        coarse_id[v] = id;
        if u != v {
            coarse_id[u] = id;
        }
    }
    // Aggregate parallel edges; the ordered map fixes the coarse graph's
    // edge order, and with it adjacency order, float summation order and
    // tie-breaks in `refine`.
    let mut agg: std::collections::BTreeMap<(usize, usize), f64> =
        std::collections::BTreeMap::new();
    for &(u, v, w) in g.edges() {
        let (cu, cv) = (coarse_id[u], coarse_id[v]);
        if cu == cv {
            continue;
        }
        let key = (cu.min(cv), cu.max(cv));
        *agg.entry(key).or_insert(0.0) += w;
    }
    for ((u, v), w) in agg {
        coarse.add_edge(u, v, w);
    }
    // If matching made no progress, fall back to flat refinement.
    if coarse.len() == n {
        return partition_flat_traced(g, *opts, rec);
    }
    // --- Recurse, then project and refine ---
    let coarse_part = multilevel(&coarse, opts, depth + 1, rec);
    let mut part = Partition(
        (0..n)
            .map(|v| coarse_part.side(coarse_id[v]))
            .collect::<Vec<_>>(),
    );
    // Re-apply pins (coarse pin may have come from the partner node).
    for v in 0..n {
        if let Some(p) = g.pin(v) {
            part.0[v] = p;
        }
    }
    refine(g, &mut part, opts, rec);
    part
}

/// Greedy initial assignment: each unpinned node goes to its cheaper side.
fn greedy_initial(g: &PartGraph) -> Partition {
    Partition(
        (0..g.len())
            .map(|v| {
                g.pin(v).unwrap_or({
                    let w = g.weight(v);
                    if w[0] <= w[1] {
                        Side::Cpu
                    } else {
                        Side::Gpu
                    }
                })
            })
            .collect(),
    )
}

/// One FM-style refinement: repeated passes of tentative best-gain moves
/// with rollback to the best prefix.
fn refine(g: &PartGraph, part: &mut Partition, opts: &KlOptions, rec: &mut Recorder) {
    let obj = &opts.objective;
    let n = g.len();
    for pass in 0..opts.max_passes {
        let mut loads = obj.loads(g, part);
        let mut cut = obj.cut(g, part);
        let start_cost = loads[0].max(loads[1]) + obj.transfer_penalty * cut;
        let mut locked = vec![false; n];
        for (v, lock) in locked.iter_mut().enumerate() {
            if g.pin(v).is_some() {
                *lock = true;
            }
        }
        // Tentative move sequence.
        let mut seq: Vec<usize> = Vec::new();
        let mut best_cost = start_cost;
        let mut best_len = 0usize;
        let mut cur = part.clone();
        loop {
            // Pick the unlocked node whose move most reduces the cost.
            let mut best_move: Option<(usize, f64, f64, [f64; 2])> = None;
            for (v, &is_locked) in locked.iter().enumerate() {
                if is_locked {
                    continue;
                }
                let from = cur.side(v);
                let to = from.other();
                let w = g.weight(v);
                let mut new_loads = loads;
                new_loads[from.index()] -= w[from.index()];
                new_loads[to.index()] += w[to.index()];
                let mut new_cut = cut;
                for &(u, ew) in g.neighbors(v) {
                    if cur.side(u) == from {
                        new_cut += ew;
                    } else {
                        new_cut -= ew;
                    }
                }
                let new_cost = new_loads[0].max(new_loads[1]) + obj.transfer_penalty * new_cut;
                if best_move.map(|(_, c, _, _)| new_cost < c).unwrap_or(true) {
                    best_move = Some((v, new_cost, new_cut, new_loads));
                }
            }
            let Some((v, new_cost, new_cut, new_loads)) = best_move else {
                break;
            };
            cur.0[v] = cur.0[v].other();
            locked[v] = true;
            loads = new_loads;
            cut = new_cut;
            seq.push(v);
            if new_cost < best_cost - 1e-12 {
                best_cost = new_cost;
                best_len = seq.len();
            }
        }
        if best_len == 0 {
            break; // no improving prefix this pass
        }
        // Apply the best prefix to `part`.
        for &v in &seq[..best_len] {
            part.0[v] = part.0[v].other();
        }
        if rec.is_enabled() {
            rec.instant(EventKind::PartitionPass {
                algo: "kl",
                pass: pass as u32,
                moved: best_len as u32,
                cost_before: start_cost,
                cost_after: best_cost,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two clusters of GPU-friendly work joined to CPU-pinned I/O by a
    /// heavy edge: the partitioner should offload the compute cluster.
    fn offload_graph() -> PartGraph {
        let mut g = PartGraph::new();
        let io = g.add_pinned(5.0, f64::INFINITY, Side::Cpu);
        let crypto1 = g.add_node(100.0, 10.0);
        let crypto2 = g.add_node(100.0, 10.0);
        let out = g.add_pinned(5.0, f64::INFINITY, Side::Cpu);
        g.add_edge(io, crypto1, 2.0);
        g.add_edge(crypto1, crypto2, 50.0);
        g.add_edge(crypto2, out, 2.0);
        g
    }

    #[test]
    fn offloads_gpu_friendly_cluster() {
        let g = offload_graph();
        let part = partition(&g, KlOptions::default());
        assert!(part.respects_pins(&g));
        assert_eq!(part.side(1), Side::Gpu);
        assert_eq!(part.side(2), Side::Gpu);
        // Makespan: max(10, 20) + 4 = 24 vs all-CPU 210.
        let obj = Objective::default();
        assert!(obj.cost(&g, &part) < 30.0);
    }

    #[test]
    fn keeps_cpu_cheap_work_on_cpu() {
        // GPU is slower for this work: everything should stay on CPU.
        let mut g = PartGraph::new();
        let a = g.add_node(10.0, 100.0);
        let b = g.add_node(10.0, 100.0);
        g.add_edge(a, b, 5.0);
        let part = partition(&g, KlOptions::default());
        assert_eq!(part.side(a), Side::Cpu);
        assert_eq!(part.side(b), Side::Cpu);
    }

    #[test]
    fn balances_parallel_work() {
        // Many independent equal nodes, equally fast everywhere: the
        // makespan objective should split them roughly in half.
        let mut g = PartGraph::new();
        for _ in 0..20 {
            g.add_node(10.0, 10.0);
        }
        let part = partition(&g, KlOptions::default());
        let obj = Objective::default();
        let loads = obj.loads(&g, &part);
        assert!((loads[0] - loads[1]).abs() <= 20.0, "loads {loads:?}");
    }

    #[test]
    fn avoids_cutting_heavy_edges() {
        // Chain with a huge internal edge and light external edges: the
        // heavy edge must not be cut.
        let mut g = PartGraph::new();
        let a = g.add_node(50.0, 10.0);
        let b = g.add_node(50.0, 10.0);
        let c = g.add_pinned(10.0, f64::INFINITY, Side::Cpu);
        g.add_edge(a, b, 1000.0);
        g.add_edge(b, c, 1.0);
        let part = partition(&g, KlOptions::default());
        assert_eq!(part.side(a), part.side(b));
    }

    #[test]
    fn multilevel_handles_larger_graphs() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(3);
        let mut g = PartGraph::new();
        for i in 0..300 {
            let cpu = rng.gen_range(5.0..50.0);
            // Half the nodes are GPU-friendly.
            let gpu = if i % 2 == 0 { cpu / 8.0 } else { cpu * 3.0 };
            g.add_node(cpu, gpu);
        }
        for i in 1..300 {
            g.add_edge(i - 1, i, rng.gen_range(0.1..2.0));
            if i % 7 == 0 {
                let j = rng.gen_range(0..i);
                if j != i {
                    g.add_edge(j, i, rng.gen_range(0.1..2.0));
                }
            }
        }
        let obj = Objective::default();
        let part = partition(&g, KlOptions::default());
        let all_cpu = Partition::all(300, Side::Cpu);
        assert!(
            obj.cost(&g, &part) < 0.7 * obj.cost(&g, &all_cpu),
            "multilevel should clearly beat all-CPU: {} vs {}",
            obj.cost(&g, &part),
            obj.cost(&g, &all_cpu)
        );
    }

    #[test]
    fn multilevel_kl_is_deterministic_on_tie_rich_graphs() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        // The shape δ-expansion produces: groups of equal-weight slices,
        // well above `coarsen_to`, so every gain comparison is a tie
        // that only edge order can break.
        const N: usize = 120;
        for seed in 0..4u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut g = PartGraph::new();
            for i in 0..N {
                let cpu = 10.0 + (i / 20) as f64;
                g.add_node(cpu, cpu / 2.0);
            }
            for i in 1..N {
                g.add_edge(i - 1, i, 1.0);
            }
            for i in 20..N {
                g.add_edge(i - 20, i, 1.0);
            }
            for _ in 0..40 {
                let (a, b) = (rng.gen_range(0..N), rng.gen_range(0..N));
                if a != b {
                    g.add_edge(a, b, 1.0);
                }
            }
            let first = partition(&g, KlOptions::default());
            for _ in 0..10 {
                assert_eq!(
                    partition(&g, KlOptions::default()),
                    first,
                    "seed {seed}: identical calls must return identical partitions"
                );
            }
        }
    }

    #[test]
    fn flat_and_multilevel_both_respect_pins() {
        let g = offload_graph();
        for part in [
            partition(&g, KlOptions::default()),
            partition_flat(&g, KlOptions::default()),
        ] {
            assert!(part.respects_pins(&g));
        }
    }

    #[test]
    fn empty_graph() {
        let part = partition(&PartGraph::new(), KlOptions::default());
        assert!(part.0.is_empty());
    }

    #[test]
    fn warm_refine_never_worse_and_fixes_stale_cut() {
        let g = offload_graph();
        let obj = Objective::default();
        // Stale warm start: everything on the CPU (e.g. the plan from a
        // no-offload traffic mix). Refinement must recover the offload.
        let warm = Partition::all(g.len(), Side::Cpu);
        let refined = refine_partition(&g, &warm, KlOptions::default());
        assert!(refined.respects_pins(&g));
        assert!(obj.cost(&g, &refined) <= obj.cost(&g, &warm));
        assert_eq!(refined.side(1), Side::Gpu);
        // Warm-starting from the optimum keeps it.
        let again = refine_partition(&g, &refined, KlOptions::default());
        assert_eq!(obj.cost(&g, &again), obj.cost(&g, &refined));
        // A wrong-length warm partition falls back to a greedy seed.
        let fallback = refine_partition(&g, &Partition(Vec::new()), KlOptions::default());
        assert!(fallback.respects_pins(&g));
    }

    #[test]
    fn traced_partition_emits_improving_passes_without_changing_result() {
        use nfc_telemetry::{EventKind, Recorder};
        // Equal-cost parallel nodes: the greedy seed puts everything on
        // one side, so refinement must apply balancing passes.
        let mut g = PartGraph::new();
        for _ in 0..20 {
            g.add_node(10.0, 10.0);
        }
        let mut rec = Recorder::with_capacity(256);
        let traced = partition_traced(&g, KlOptions::default(), &mut rec);
        assert_eq!(traced.0, partition(&g, KlOptions::default()).0);
        let passes: Vec<(f64, f64)> = rec
            .events()
            .filter_map(|e| match e.kind {
                EventKind::PartitionPass {
                    algo: "kl",
                    cost_before,
                    cost_after,
                    moved,
                    ..
                } => {
                    assert!(moved > 0, "recorded passes applied moves");
                    Some((cost_before, cost_after))
                }
                _ => None,
            })
            .collect();
        assert!(!passes.is_empty(), "balancing needs at least one pass");
        for (before, after) in passes {
            assert!(after < before, "recorded passes improve the objective");
        }
    }
}
