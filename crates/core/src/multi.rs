//! Multi-tenant deployment: several SFCs co-running on one platform.
//!
//! The paper's co-existence interference study (§III-C, Figure 8e) and
//! its multi-SFC allocator design ("With n SFCs we have 2n initial
//! graphs") presume a multi-tenant server: independent chains share the
//! GPUs, the PCIe links, the I/O cores and — through the cache — each
//! other's performance. [`MultiDeployment`] runs several [`Deployment`]s
//! against *one* simulator: GPU command queues serialize kernels from
//! different tenants (paying context switches), DMA contends on the
//! shared links, and every stage's co-run context includes the other
//! tenants' NFs. Per-tenant throughput/latency reports come from
//! separate [`StatsAccumulator`]s.
//!
//! [`StatsAccumulator`]: nfc_hetero::sim::StatsAccumulator

use crate::runtime::{dominant_kernel, BatchResult, Deployment, PlatformResources, RunOutcome};
use nfc_click::KernelClass;
use nfc_hetero::sim::StatsAccumulator;
use nfc_hetero::PipelineSim;
use nfc_packet::traffic::TrafficGenerator;

/// Co-runs several prepared deployments on one simulated platform.
pub struct MultiDeployment {
    tenants: Vec<Deployment>,
}

impl MultiDeployment {
    /// Creates a multi-tenant run from per-tenant deployments. All
    /// tenants share one platform (the first tenant's cost model defines
    /// it).
    pub fn new(tenants: Vec<Deployment>) -> Self {
        MultiDeployment { tenants }
    }

    /// Number of tenants.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// True when no tenants are configured.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// Runs `n_batches` batches per tenant (interleaved by arrival time),
    /// returning one outcome per tenant.
    ///
    /// # Panics
    ///
    /// Panics if `traffics.len() != self.len()`.
    pub fn run(&mut self, traffics: &mut [TrafficGenerator], n_batches: usize) -> Vec<RunOutcome> {
        assert_eq!(
            traffics.len(),
            self.tenants.len(),
            "one traffic generator per tenant"
        );
        if self.tenants.is_empty() {
            return Vec::new();
        }
        let model = *self.tenants[0].model();
        let mut sim = PipelineSim::new();
        let res = PlatformResources::register(&mut sim, &model);
        // Cross-tenant interference: each tenant's stages see the other
        // tenants' dominant NF kernels as cache co-runners.
        let all_kernels: Vec<Vec<Option<KernelClass>>> = self
            .tenants
            .iter()
            .map(|dep| dep.sfc().nfs().iter().map(dominant_kernel).collect())
            .collect();
        let mut user_base = 1u64;
        let mut prepared = Vec::with_capacity(self.tenants.len());
        for (i, (dep, traffic)) in self.tenants.iter_mut().zip(traffics.iter_mut()).enumerate() {
            let extra: Vec<Option<KernelClass>> = all_kernels
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .flat_map(|(_, ks)| ks.iter().copied())
                .collect();
            prepared.push(dep.prepare(
                &mut sim,
                &res,
                traffic,
                &extra,
                &mut user_base,
                &nfc_telemetry::TelemetryHandle::disabled(),
            ));
        }
        let batch_sizes: Vec<usize> = self.tenants.iter().map(|d| d.batch_size).collect();
        let mut stats: Vec<StatsAccumulator> = (0..self.tenants.len())
            .map(|_| StatsAccumulator::new())
            .collect();
        // Interleave: one batch per tenant per round, processed in
        // arrival order so shared-resource contention is realistic.
        for _ in 0..n_batches {
            let mut round: Vec<(usize, nfc_packet::Batch)> = traffics
                .iter_mut()
                .enumerate()
                .map(|(i, t)| (i, t.batch(batch_sizes[i])))
                .collect();
            round.sort_by_key(|(_, b)| b.get(0).map(|p| p.meta.arrival_ns).unwrap_or(0));
            // Each tenant's arrivals only move forward, so the earliest
            // first arrival of this round bounds every later request; a
            // single tenant's would not, since tenants interleave.
            if let Some(p) = round.first().and_then(|(_, b)| b.get(0)) {
                sim.retire_before(p.meta.arrival_ns as f64);
            }
            for (i, batch) in round {
                match prepared[i].process_batch(&mut sim, &res, batch) {
                    BatchResult::Completed {
                        mean_arrival,
                        completed,
                        out,
                    } => stats[i].record_completion(
                        mean_arrival,
                        completed,
                        out.len(),
                        out.total_bytes(),
                    ),
                    BatchResult::Dropped { mean_arrival } => stats[i].record_drop(mean_arrival),
                }
            }
        }
        prepared
            .into_iter()
            .zip(stats)
            .map(|(p, s)| p.into_outcome(s.report()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Policy, Sfc};
    use nfc_nf::Nf;
    use nfc_packet::traffic::{SizeDist, TrafficSpec};

    fn gen(pkt: usize, seed: u64, gbps: f64) -> TrafficGenerator {
        TrafficGenerator::new(
            TrafficSpec::udp(SizeDist::Fixed(pkt)).with_rate_gbps(gbps),
            seed,
        )
    }

    fn solo_gbps(nf: Nf, pkt: usize) -> f64 {
        let mut dep =
            Deployment::new(Sfc::new("solo", vec![nf]), Policy::CpuOnly).with_batch_size(256);
        let mut t = gen(pkt, 1, 40.0);
        dep.run(&mut t, 20).report.throughput_gbps
    }

    #[test]
    fn corun_degrades_cache_sensitive_tenants() {
        // Figure 8(e) by simulation: DPI co-running with DPI loses
        // throughput versus its solo run.
        let solo = solo_gbps(Nf::dpi("dpi"), 1024);
        let mut multi = MultiDeployment::new(vec![
            Deployment::new(Sfc::new("a", vec![Nf::dpi("dpi-a")]), Policy::CpuOnly)
                .with_batch_size(256),
            Deployment::new(Sfc::new("b", vec![Nf::dpi("dpi-b")]), Policy::CpuOnly)
                .with_batch_size(256),
        ]);
        let mut traffics = vec![gen(1024, 1, 40.0), gen(1024, 2, 40.0)];
        let outs = multi.run(&mut traffics, 20);
        for o in &outs {
            let drop = 1.0 - o.report.throughput_gbps / solo;
            assert!(
                drop > 0.05 && drop < 0.6,
                "co-run drop should be visible: solo {solo}, corun {}",
                o.report.throughput_gbps
            );
        }
    }

    #[test]
    fn gpu_tenants_contend_on_shared_queues() {
        // Two GPU-hungry tenants sharing the GPUs are each slower than a
        // solo GPU run at the same offered load.
        let solo = {
            let mut dep = Deployment::new(
                Sfc::new("solo", vec![Nf::ipsec("e")]),
                Policy::GpuOnly {
                    mode: nfc_hetero::GpuMode::LaunchPerBatch,
                },
            )
            .with_batch_size(64);
            dep.run(&mut gen(256, 1, 40.0), 25).report.throughput_gbps
        };
        let mk = |n: &str| {
            Deployment::new(
                Sfc::new(n, vec![Nf::ipsec(n)]),
                Policy::GpuOnly {
                    mode: nfc_hetero::GpuMode::LaunchPerBatch,
                },
            )
            .with_batch_size(64)
        };
        let mut multi = MultiDeployment::new(vec![mk("a"), mk("b"), mk("c"), mk("d")]);
        let mut traffics = vec![
            gen(256, 1, 40.0),
            gen(256, 2, 40.0),
            gen(256, 3, 40.0),
            gen(256, 4, 40.0),
        ];
        let outs = multi.run(&mut traffics, 25);
        let avg: f64 =
            outs.iter().map(|o| o.report.throughput_gbps).sum::<f64>() / outs.len() as f64;
        assert!(
            avg < solo,
            "4 tenants on 2 GPUs should each see less than solo ({avg} vs {solo})"
        );
    }

    #[test]
    fn per_tenant_reports_are_independent() {
        // A light tenant next to a heavy tenant keeps much lower latency.
        let mut multi = MultiDeployment::new(vec![
            Deployment::new(Sfc::new("light", vec![Nf::probe("p")]), Policy::CpuOnly)
                .with_batch_size(128),
            Deployment::new(Sfc::new("heavy", vec![Nf::dpi("d")]), Policy::CpuOnly)
                .with_batch_size(128),
        ]);
        let mut traffics = vec![gen(64, 1, 10.0), gen(1024, 2, 40.0)];
        let outs = multi.run(&mut traffics, 20);
        assert_eq!(outs.len(), 2);
        assert!(outs[0].report.p50_latency_ns < outs[1].report.p50_latency_ns);
        assert!(outs[0].egress_packets > 0 && outs[1].egress_packets > 0);
    }

    #[test]
    fn one_tenant_equals_single_box() {
        // The single-box member of the "N = 1 cluster ≡ single box"
        // family: a lone tenant has no co-runners, so the shared-platform
        // loop must reproduce `Deployment::run` bit for bit.
        let dep = || {
            let chain = vec![
                Nf::firewall("fw", 200, 1),
                Nf::ipsec("ipsec"),
                Nf::dpi("dpi"),
            ];
            Deployment::new(Sfc::new("fw-ipsec-dpi", chain), Policy::nfcompass())
                .with_batch_size(128)
        };
        let solo = dep().run(&mut gen(512, 7, 30.0), 40);
        let mut outs = MultiDeployment::new(vec![dep()]).run(&mut [gen(512, 7, 30.0)], 40);
        let multi = outs.pop().expect("one tenant");
        assert!(outs.is_empty());
        assert_eq!(solo.report, multi.report);
        assert_eq!(solo.stage_stats, multi.stage_stats);
        assert_eq!(solo.stage_offloads, multi.stage_offloads);
        assert_eq!(
            (solo.egress_packets, solo.egress_bytes, solo.merge_conflicts),
            (
                multi.egress_packets,
                multi.egress_bytes,
                multi.merge_conflicts
            )
        );
        assert_eq!(
            (solo.width, solo.effective_length, solo.flow_cache),
            (multi.width, multi.effective_length, multi.flow_cache)
        );
    }

    #[test]
    fn empty_multi_run() {
        let mut multi = MultiDeployment::new(vec![]);
        assert!(multi.is_empty());
        let outs = multi.run(&mut [], 5);
        assert!(outs.is_empty());
    }
}

#[cfg(test)]
mod determinism_tests {
    use super::*;
    use crate::{Policy, Sfc};
    use nfc_nf::Nf;
    use nfc_packet::traffic::{SizeDist, TrafficSpec};

    #[test]
    fn multi_tenant_runs_are_deterministic() {
        let run = || {
            let mut multi = MultiDeployment::new(vec![
                Deployment::new(Sfc::new("a", vec![Nf::dpi("a")]), Policy::CpuOnly)
                    .with_batch_size(128),
                Deployment::new(Sfc::new("b", vec![Nf::ipsec("b")]), Policy::Optimal)
                    .with_batch_size(128),
            ]);
            let mut traffics = vec![
                TrafficGenerator::new(TrafficSpec::udp(SizeDist::Fixed(512)), 1),
                TrafficGenerator::new(TrafficSpec::udp(SizeDist::Fixed(256)), 2),
            ];
            multi
                .run(&mut traffics, 10)
                .into_iter()
                .map(|o| (o.egress_packets, o.report.throughput_gbps.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
