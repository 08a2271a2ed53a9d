//! Dinic max-flow / min-cut and the MFMC task-assignment formulation.
//!
//! The paper motivates its allocator with Max-Flow/Min-Cut clustering
//! ("MFMC is widely used to model flow-based clustering problems ... to
//! find the graph partitions with the least inter-cluster communication
//! costs"). This module provides the exact solver for that formulation:
//! binary CPU/GPU labeling minimizing `Σ unary(v, side) + Σ w_e · [cut]`
//! reduces to an s–t min cut, solved with Dinic's algorithm. It is exact
//! for that energy but blind to load *balance*, which is why the paper
//! (and our allocator) layer KL's balance term on top — `figures
//! ablations` quantifies the gap.

/// Dinic max-flow solver over an explicit residual graph.
#[derive(Debug, Clone)]
pub struct Dinic {
    // Edge list: to, capacity; reverse edge at idx ^ 1.
    to: Vec<usize>,
    cap: Vec<f64>,
    head: Vec<Vec<usize>>,
    n: usize,
}

impl Dinic {
    /// Creates a solver with `n` nodes.
    pub fn new(n: usize) -> Self {
        Dinic {
            to: Vec::new(),
            cap: Vec::new(),
            head: vec![Vec::new(); n],
            n,
        }
    }

    /// Adds a directed edge `u -> v` with capacity `c` (and a zero-capacity
    /// reverse edge).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or `c < 0`.
    pub fn add_edge(&mut self, u: usize, v: usize, c: f64) {
        assert!(u < self.n && v < self.n, "endpoint out of range");
        assert!(c >= 0.0, "negative capacity");
        self.head[u].push(self.to.len());
        self.to.push(v);
        self.cap.push(c);
        self.head[v].push(self.to.len());
        self.to.push(u);
        self.cap.push(0.0);
    }

    /// Adds an undirected edge (capacity `c` both ways).
    pub fn add_undirected(&mut self, u: usize, v: usize, c: f64) {
        self.head[u].push(self.to.len());
        self.to.push(v);
        self.cap.push(c);
        self.head[v].push(self.to.len());
        self.to.push(u);
        self.cap.push(c);
    }

    fn bfs(&self, s: usize, level: &mut [i32]) {
        level.iter_mut().for_each(|l| *l = -1);
        level[s] = 0;
        let mut q = std::collections::VecDeque::from([s]);
        while let Some(u) = q.pop_front() {
            for &e in &self.head[u] {
                if self.cap[e] > 1e-12 && level[self.to[e]] < 0 {
                    level[self.to[e]] = level[u] + 1;
                    q.push_back(self.to[e]);
                }
            }
        }
    }

    fn dfs(&mut self, u: usize, t: usize, f: f64, level: &[i32], iter: &mut [usize]) -> f64 {
        if u == t {
            return f;
        }
        while iter[u] < self.head[u].len() {
            let e = self.head[u][iter[u]];
            let v = self.to[e];
            if self.cap[e] > 1e-12 && level[v] == level[u] + 1 {
                let d = self.dfs(v, t, f.min(self.cap[e]), level, iter);
                if d > 1e-12 {
                    self.cap[e] -= d;
                    self.cap[e ^ 1] += d;
                    return d;
                }
            }
            iter[u] += 1;
        }
        0.0
    }

    /// Computes the max flow from `s` to `t`, consuming residual capacity.
    pub fn max_flow(&mut self, s: usize, t: usize) -> f64 {
        let mut flow = 0.0;
        let mut level = vec![-1i32; self.n];
        loop {
            self.bfs(s, &mut level);
            if level[t] < 0 {
                return flow;
            }
            let mut iter = vec![0usize; self.n];
            loop {
                let f = self.dfs(s, t, f64::INFINITY, &level, &mut iter);
                if f <= 1e-12 {
                    break;
                }
                flow += f;
            }
        }
    }

    /// After [`Dinic::max_flow`], returns which nodes are on the source
    /// side of the min cut.
    pub fn min_cut_source_side(&self, s: usize) -> Vec<bool> {
        let mut seen = vec![false; self.n];
        seen[s] = true;
        let mut q = std::collections::VecDeque::from([s]);
        while let Some(u) = q.pop_front() {
            for &e in &self.head[u] {
                if self.cap[e] > 1e-12 && !seen[self.to[e]] {
                    seen[self.to[e]] = true;
                    q.push_back(self.to[e]);
                }
            }
        }
        seen
    }
}

/// Exact MFMC assignment: minimizes
/// `Σ_v cost(v, side_v) + Σ_{(u,v)} w · [side_u ≠ side_v]`.
///
/// `unary[v] = (cpu_cost, gpu_cost)`; infinite costs pin a node. Returns
/// `true` for GPU.
pub fn mfmc_assign(unary: &[(f64, f64)], edges: &[(usize, usize, f64)]) -> Vec<bool> {
    let n = unary.len();
    if n == 0 {
        return Vec::new();
    }
    // Source = CPU side, sink = GPU side. Node u cut from source (=GPU
    // label) pays cap(s->u); classic construction: cap(s->u) = gpu_cost
    // (paid when u labeled CPU? sign conventions:) we use:
    //   s->v capacity = cost if v is GPU (cut when v on GPU side of... )
    // Standard: label v = sink-side => pays cap(s->v). So cap(s->v) must
    // be the cost of the sink label (GPU), cap(v->t) the cost of CPU.
    let big = 1e18;
    let s = n;
    let t = n + 1;
    let mut dinic = Dinic::new(n + 2);
    for (v, &(cpu, gpu)) in unary.iter().enumerate() {
        dinic.add_edge(s, v, if gpu.is_finite() { gpu } else { big });
        dinic.add_edge(v, t, if cpu.is_finite() { cpu } else { big });
    }
    for &(u, v, w) in edges {
        dinic.add_undirected(u, v, w);
    }
    dinic.max_flow(s, t);
    let source_side = dinic.min_cut_source_side(s);
    // Source side keeps the s->v edge uncut, i.e. does NOT pay the GPU
    // cost => source side is CPU... cut edges are s->v for v on sink side.
    // v on sink side pays cap(s->v) = gpu cost => sink side = GPU? No:
    // if v is on the SOURCE side, the cut severs v->t (cap = cpu cost):
    // v pays the CPU cost => source side = CPU label. Sink side pays
    // cap(s->v) = gpu cost => GPU label.
    (0..n).map(|v| !source_side[v]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn textbook_max_flow() {
        // Classic 4-node example: s=0, t=3; max flow 2+1=... construct:
        // 0->1 (3), 0->2 (2), 1->2 (5), 1->3 (2), 2->3 (3). Max flow = 5.
        let mut d = Dinic::new(4);
        d.add_edge(0, 1, 3.0);
        d.add_edge(0, 2, 2.0);
        d.add_edge(1, 2, 5.0);
        d.add_edge(1, 3, 2.0);
        d.add_edge(2, 3, 3.0);
        assert!((d.max_flow(0, 3) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn min_cut_separates() {
        let mut d = Dinic::new(4);
        d.add_edge(0, 1, 10.0);
        d.add_edge(1, 2, 1.0); // bottleneck
        d.add_edge(2, 3, 10.0);
        assert!((d.max_flow(0, 3) - 1.0).abs() < 1e-9);
        let side = d.min_cut_source_side(0);
        assert_eq!(side, vec![true, true, false, false]);
    }

    #[test]
    fn mfmc_prefers_cheap_labels() {
        // Two independent nodes: one cheap on CPU, one cheap on GPU.
        let unary = vec![(1.0, 100.0), (100.0, 1.0)];
        let labels = mfmc_assign(&unary, &[]);
        assert_eq!(labels, vec![false, true]);
    }

    #[test]
    fn mfmc_strong_edge_keeps_pair_together() {
        // Node 0 slightly prefers CPU, node 1 slightly prefers GPU, but a
        // heavy edge forces them together on the globally cheaper side.
        let unary = vec![(1.0, 3.0), (3.0, 1.0)];
        let labels = mfmc_assign(&unary, &[(0, 1, 100.0)]);
        assert_eq!(labels[0], labels[1]);
    }

    #[test]
    fn mfmc_respects_infinite_pins() {
        let unary = vec![(1.0, f64::INFINITY), (1000.0, 1.0)];
        let labels = mfmc_assign(&unary, &[(0, 1, 0.5)]);
        assert!(!labels[0], "infinite GPU cost pins node 0 to CPU");
        assert!(labels[1]);
    }

    #[test]
    fn mfmc_energy_is_optimal_on_small_instances() {
        // Brute-force check on random 8-node instances.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..20 {
            let n = 8;
            let unary: Vec<(f64, f64)> = (0..n)
                .map(|_| (rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)))
                .collect();
            let edges: Vec<(usize, usize, f64)> = (0..10)
                .map(|_| {
                    let u = rng.gen_range(0..n);
                    let mut v = rng.gen_range(0..n);
                    while v == u {
                        v = rng.gen_range(0..n);
                    }
                    (u, v, rng.gen_range(0.0..5.0))
                })
                .collect();
            let energy = |labels: &[bool]| -> f64 {
                let mut e = 0.0;
                for (v, &(c, g)) in unary.iter().enumerate() {
                    e += if labels[v] { g } else { c };
                }
                for &(u, v, w) in &edges {
                    if labels[u] != labels[v] {
                        e += w;
                    }
                }
                e
            };
            let got = energy(&mfmc_assign(&unary, &edges));
            let mut best = f64::INFINITY;
            for mask in 0..(1u32 << n) {
                let labels: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
                best = best.min(energy(&labels));
            }
            assert!((got - best).abs() < 1e-6, "got {got}, optimal {best}");
        }
    }

    #[test]
    fn empty_instance() {
        assert!(mfmc_assign(&[], &[]).is_empty());
    }
}
