//! The calibrated cost model: CPU, GPU, PCIe and re-organization costs.

use crate::calib;
use crate::interference::CoRunContext;
use crate::platform::PlatformConfig;
use nfc_click::{KernelClass, WorkProfile};

/// The work one element performs on (a portion of) one batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElementLoad {
    /// The element's work profile, content terms included.
    pub work: WorkProfile,
    /// GPU kernel family, if offloadable.
    pub kernel: Option<KernelClass>,
    /// Packets in this portion.
    pub packets: usize,
    /// Total wire bytes in this portion.
    pub bytes: usize,
}

impl ElementLoad {
    /// `work` over `packets` packets of `bytes` wire bytes in total.
    pub fn new(
        work: WorkProfile,
        kernel: Option<KernelClass>,
        packets: usize,
        bytes: usize,
    ) -> Self {
        ElementLoad {
            work,
            kernel,
            packets,
            bytes,
        }
    }

    /// Average packet length.
    pub fn avg_len(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.bytes as f64 / self.packets as f64
        }
    }

    /// Total CPU cycles of pure element work (no batching/cache effects).
    pub fn raw_cycles(&self) -> f64 {
        self.packets as f64 * self.work.per_packet
            + self.bytes as f64 * self.work.per_byte * self.work.match_factor
    }

    /// Scales the load to a fraction of the batch (used by offload-ratio
    /// splits; fractions round to whole packets).
    pub fn fraction(&self, f: f64) -> ElementLoad {
        let packets = (self.packets as f64 * f).round() as usize;
        let bytes = (self.bytes as f64 * f).round() as usize;
        ElementLoad {
            packets,
            bytes,
            ..*self
        }
    }
}

/// GPU execution mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuMode {
    /// Launch and tear down a kernel per dispatched batch (the
    /// "un-optimized framework" of §III-B2).
    LaunchPerBatch,
    /// NFCompass's persistent kernel: resident GPU threads poll for work.
    Persistent,
}

/// GPU batch-time breakdown, ns.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GpuTime {
    /// Kernel dispatch (launch/teardown or persistent doorbell).
    pub dispatch_ns: f64,
    /// Host-to-device DMA.
    pub h2d_ns: f64,
    /// Kernel execution.
    pub kernel_ns: f64,
    /// Device-to-host DMA.
    pub d2h_ns: f64,
}

impl GpuTime {
    /// Total GPU path time.
    pub fn total(&self) -> f64 {
        self.dispatch_ns + self.h2d_ns + self.kernel_ns + self.d2h_ns
    }
}

/// The calibrated cost model over a [`PlatformConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    platform: PlatformConfig,
    /// Dedicated CPU cores per NF instance (RSS-parallel workers).
    pub cores_per_nf: usize,
    /// GPU context-switch penalty charged by the simulated GPU queues
    /// when they change users, ns. Defaults to the calibrated
    /// [`calib::GPU_CONTEXT_SWITCH_NS`]; overriding it perturbs the
    /// *simulated platform* without touching the planner's predictions,
    /// which is how the drift-watchdog tests inject a miscalibrated
    /// model.
    pub gpu_ctx_switch_ns: f64,
}

impl CostModel {
    /// Creates the model for a platform with the default per-NF core
    /// allocation.
    pub fn new(platform: PlatformConfig) -> Self {
        CostModel {
            platform,
            cores_per_nf: calib::DEFAULT_CORES_PER_NF,
            gpu_ctx_switch_ns: calib::GPU_CONTEXT_SWITCH_NS,
        }
    }

    /// Overrides the per-NF core allocation.
    pub fn with_cores_per_nf(mut self, cores: usize) -> Self {
        self.cores_per_nf = cores.max(1);
        self
    }

    /// Overrides the simulated GPU context-switch penalty.
    pub fn with_gpu_ctx_switch_ns(mut self, ns: f64) -> Self {
        self.gpu_ctx_switch_ns = ns.max(0.0);
        self
    }

    /// The platform being modeled.
    pub fn platform(&self) -> &PlatformConfig {
        &self.platform
    }

    fn ns_per_cycle(&self) -> f64 {
        self.platform.cpu.ns_per_cycle()
    }

    /// Cache slowdown factor for a batch whose payload-touching data
    /// footprint plus hot table share exceeds the per-core cache budget.
    pub fn cache_factor(&self, load: &ElementLoad) -> f64 {
        // Only payload-touching elements stream packet bytes through the
        // cache; header-only elements touch ~64 B per packet.
        let data = if load.work.per_byte > 0.0 {
            2 * load.bytes // in + out
        } else {
            64 * load.packets
        };
        let table_hot = calib::table_footprint_bytes(load.kernel) / 16;
        let footprint = data + table_hot;
        let budget = calib::CPU_CACHE_BUDGET_BYTES;
        if footprint <= budget {
            1.0
        } else {
            1.0 + calib::CACHE_PENALTY_SLOPE * (footprint as f64 / budget as f64).log2()
        }
    }

    /// CPU time to process `load` on this NF's core allocation, ns.
    pub fn cpu_batch_ns(&self, load: &ElementLoad, corun: &CoRunContext) -> f64 {
        if load.packets == 0 {
            return 0.0;
        }
        let cycles = calib::CPU_BATCH_OVERHEAD_CYCLES + load.raw_cycles();
        let factor = self.cache_factor(load) * corun.cpu_factor(load.kernel);
        cycles * factor * self.ns_per_cycle() / self.cores_per_nf as f64
    }

    /// Packet I/O time (RX + TX descriptor work on the I/O core), ns.
    pub fn io_batch_ns(&self, packets: usize) -> f64 {
        packets as f64 * calib::IO_CYCLES_PER_PACKET * self.ns_per_cycle()
    }

    /// GPU path time breakdown for `load`.
    pub fn gpu_batch_ns(&self, load: &ElementLoad, mode: GpuMode) -> GpuTime {
        if load.packets == 0 {
            return GpuTime::default();
        }
        let Some(kernel) = load.kernel else {
            // Non-offloadable work cannot run on the GPU; model as
            // prohibitive so schedulers never pick it.
            return GpuTime {
                kernel_ns: f64::INFINITY,
                ..GpuTime::default()
            };
        };
        let dispatch_ns = match mode {
            GpuMode::LaunchPerBatch => calib::GPU_LAUNCH_NS,
            GpuMode::Persistent => calib::GPU_PERSISTENT_DISPATCH_NS,
        };
        let dma = |bytes: usize| -> f64 {
            self.platform.pcie.dma_latency_ns + bytes as f64 / self.platform.pcie.bw_gbs
        };
        let mut net_speedup = calib::gpu_class_efficiency(kernel) / calib::GPU_LANE_SLOWDOWN;
        if kernel == KernelClass::Classification {
            net_speedup *= calib::classification_rule_parallel_boost(load.work.per_packet);
        }
        let divergence_factor = 1.0 + load.work.divergence * calib::divergence_sensitivity(kernel);
        let throughput_ns =
            load.raw_cycles() * self.ns_per_cycle() * divergence_factor / net_speedup;
        // Pipeline-latency floor: one packet's work on a GPU lane, times
        // the number of serialized waves beyond the parallel width.
        let waves = load.packets.div_ceil(calib::GPU_PARALLEL_WIDTH);
        let per_pkt_cycles = load.work.cycles(load.avg_len() as usize) * load.work.match_factor;
        let latency_floor =
            per_pkt_cycles * calib::GPU_LANE_SLOWDOWN * self.ns_per_cycle() * waves as f64;
        GpuTime {
            dispatch_ns,
            h2d_ns: dma(load.bytes),
            kernel_ns: throughput_ns.max(latency_floor),
            d2h_ns: dma(load.bytes),
        }
    }

    /// Batch-split re-organization cost (Figure 5), ns on the CPU.
    pub fn split_ns(&self, packets: usize, ways: usize) -> f64 {
        (calib::SPLIT_CYCLES_FIXED * ways as f64 + calib::SPLIT_CYCLES_PER_PACKET * packets as f64)
            * self.ns_per_cycle()
    }

    /// Cheap offload-fraction carve cost (descriptor handoff to the
    /// offload queue), ns.
    pub fn carve_ns(&self, packets: usize) -> f64 {
        (calib::OFFLOAD_CARVE_CYCLES_FIXED
            + calib::OFFLOAD_CARVE_CYCLES_PER_PACKET * packets as f64)
            * self.ns_per_cycle()
    }

    /// Ordered completion-queue re-merge after a partial offload, ns.
    pub fn offload_merge_ns(&self, packets: usize) -> f64 {
        (calib::OFFLOAD_MERGE_CYCLES_FIXED
            + calib::OFFLOAD_MERGE_CYCLES_PER_PACKET * packets as f64)
            * self.ns_per_cycle()
    }

    /// Ordered merge cost (completion-queue release / XOR branch merge), ns.
    pub fn merge_ns(&self, packets: usize) -> f64 {
        (calib::MERGE_CYCLES_FIXED + calib::MERGE_CYCLES_PER_PACKET * packets as f64)
            * self.ns_per_cycle()
    }

    /// Cost of tearing down a stage's established kernel context during
    /// a live plan swap, ns on the GPU queue.
    pub fn kernel_teardown_ns(&self) -> f64 {
        calib::GPU_KERNEL_TEARDOWN_NS
    }

    /// Cost of cold-launching a stage's kernel context for a new plan,
    /// ns on the GPU queue. Persistent kernels pay the full cold price
    /// (module load + buffer registration); launch-per-batch mode only
    /// pays an ordinary launch, since it never keeps a context warm.
    pub fn kernel_cold_launch_ns(&self, mode: GpuMode) -> f64 {
        match mode {
            GpuMode::Persistent => calib::GPU_KERNEL_COLD_LAUNCH_NS,
            GpuMode::LaunchPerBatch => calib::GPU_LAUNCH_NS,
        }
    }

    /// Cost of migrating `bytes` of stateful-NF state during a plan
    /// swap: CPU repack plus one DMA-shaped transfer, ns.
    pub fn state_migration_ns(&self, bytes: usize) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        self.platform.pcie.dma_latency_ns
            + bytes as f64 / self.platform.pcie.bw_gbs
            + bytes as f64 * calib::STATE_REPACK_NS_PER_BYTE
    }

    /// Steady-state throughput (Gbps) of a two-sided pipeline processing
    /// batches of `load` with fraction `ratio` offloaded to the GPU —
    /// the quantity Figure 6 sweeps. The bottleneck is the slowest of
    /// the CPU portion, the GPU portion, and packet I/O.
    pub fn offload_throughput_gbps(
        &self,
        load: &ElementLoad,
        ratio: f64,
        mode: GpuMode,
        corun: &CoRunContext,
    ) -> f64 {
        let cpu_part = load.fraction(1.0 - ratio);
        let gpu_part = load.fraction(ratio);
        let cpu_ns = self.cpu_batch_ns(&cpu_part, corun);
        let gpu_ns = if ratio > 0.0 {
            self.gpu_batch_ns(&gpu_part, mode).total()
        } else {
            0.0
        };
        let io_ns = self.io_batch_ns(load.packets);
        let bottleneck = cpu_ns.max(gpu_ns).max(io_ns);
        if bottleneck == 0.0 {
            return 0.0;
        }
        // Wire bits include preamble/IFG as a line-rate measure would.
        let bits = (load.bytes + 20 * load.packets) as f64 * 8.0;
        bits / bottleneck
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::new(PlatformConfig::hpca18())
    }

    /// IPsec-like load: heavy per-byte crypto work.
    fn ipsec_load(batch: usize, pkt: usize) -> ElementLoad {
        ElementLoad::new(
            WorkProfile::new(150.0, 22.0),
            Some(KernelClass::Crypto),
            batch,
            batch * pkt,
        )
    }

    /// IPv4-forwarder-like load: light header-only work.
    fn ipv4_load(batch: usize, pkt: usize) -> ElementLoad {
        ElementLoad::new(
            WorkProfile::per_packet(107.0),
            Some(KernelClass::Lookup),
            batch,
            batch * pkt,
        )
    }

    /// DPI-like load: per-byte DFA walking.
    fn dpi_load(batch: usize, pkt: usize) -> ElementLoad {
        ElementLoad::new(
            WorkProfile::new(120.0, 9.0),
            Some(KernelClass::PatternMatch),
            batch,
            batch * pkt,
        )
    }

    fn best_ratio(m: &CostModel, load: &ElementLoad, mode: GpuMode) -> f64 {
        let solo = CoRunContext::solo();
        let mut best = (0.0, f64::MIN);
        for i in 0..=10 {
            let r = i as f64 / 10.0;
            let t = m.offload_throughput_gbps(load, r, mode, &solo);
            if t > best.1 {
                best = (r, t);
            }
        }
        best.0
    }

    #[test]
    fn fig6_ipsec_optimum_is_partial_offload_near_70_percent() {
        // Paper Figure 6: "offloading 70% of input packets to GPU while
        // processing the rest packets on CPU can yield the best
        // performance" for IPsec.
        let m = model();
        let r = best_ratio(&m, &ipsec_load(256, 64), GpuMode::Persistent);
        assert!(
            (0.5..=0.9).contains(&r),
            "IPsec optimum should be interior near 0.7, got {r}"
        );
        // And the optimum strictly beats both extremes.
        let solo = CoRunContext::solo();
        let t = |x| m.offload_throughput_gbps(&ipsec_load(256, 64), x, GpuMode::Persistent, &solo);
        assert!(t(r) > t(0.0) && t(r) > t(1.0));
    }

    #[test]
    fn fig6_ipv4_prefers_cpu_only() {
        // Figure 15 note: "GTA does not offload tasks to GPU at all for
        // IPv4" — fixed DMA latency swamps the small lookup work.
        let m = model();
        let r = best_ratio(&m, &ipv4_load(256, 64), GpuMode::Persistent);
        assert_eq!(r, 0.0, "IPv4 should not benefit from offload");
    }

    #[test]
    fn fig6_dpi_prefers_heavy_offload() {
        let m = model();
        let r = best_ratio(&m, &dpi_load(256, 512), GpuMode::Persistent);
        assert!(r >= 0.6, "DPI should want most work on the GPU, got {r}");
    }

    #[test]
    fn launch_per_batch_hurts_offload() {
        // §III-B2: frequent kernel launch/teardown offsets acceleration.
        let m = model();
        let solo = CoRunContext::solo();
        let load = ipsec_load(64, 64);
        let persistent = m.offload_throughput_gbps(&load, 0.7, GpuMode::Persistent, &solo);
        let launchy = m.offload_throughput_gbps(&load, 0.7, GpuMode::LaunchPerBatch, &solo);
        assert!(
            persistent > 1.2 * launchy,
            "persistent {persistent} should clearly beat launch-per-batch {launchy}"
        );
    }

    #[test]
    fn fig8_throughput_grows_with_batch_then_dpi_cpu_declines() {
        let m = model();
        let solo = CoRunContext::solo();
        let tput = |batch: usize| {
            let load = dpi_load(batch, 1024);
            let bits = (load.bytes + 20 * load.packets) as f64 * 8.0;
            bits / m.cpu_batch_ns(&load, &solo)
        };
        // Rising region: amortizing per-batch overhead.
        assert!(tput(64) > tput(32));
        // Falling region past 256 (cache footprint), per Figure 8(d).
        assert!(
            tput(1024) < tput(256),
            "CPU DPI should decline past batch 256: t(256)={}, t(1024)={}",
            tput(256),
            tput(1024)
        );
        // IPv4 (header-only) keeps improving or stays flat.
        let tput4 = |batch: usize| {
            let load = ipv4_load(batch, 64);
            let bits = (load.bytes + 20 * load.packets) as f64 * 8.0;
            bits / m.cpu_batch_ns(&load, &solo)
        };
        assert!(tput4(1024) >= tput4(64));
    }

    #[test]
    fn full_match_dpi_is_4_to_5x_slower() {
        let m = model();
        let solo = CoRunContext::solo();
        let mut full = dpi_load(256, 512);
        full.work.match_factor = calib::DPI_FULL_MATCH_FACTOR;
        let no_match = dpi_load(256, 512);
        let ratio = m.cpu_batch_ns(&full, &solo) / m.cpu_batch_ns(&no_match, &solo);
        assert!(
            (3.0..=5.5).contains(&ratio),
            "full-match should cost ~4-5x, got {ratio}"
        );
    }

    #[test]
    fn divergence_penalizes_pattern_match_most() {
        let m = model();
        let mut diverged = dpi_load(256, 512);
        diverged.work.divergence = 1.0;
        let uniform = dpi_load(256, 512);
        let kd = m.gpu_batch_ns(&diverged, GpuMode::Persistent).kernel_ns;
        let ku = m.gpu_batch_ns(&uniform, GpuMode::Persistent).kernel_ns;
        assert!(kd > 1.5 * ku);
        // Crypto barely cares.
        let mut c = ipsec_load(256, 512);
        c.work.divergence = 1.0;
        let cu = ipsec_load(256, 512);
        let r = m.gpu_batch_ns(&c, GpuMode::Persistent).kernel_ns
            / m.gpu_batch_ns(&cu, GpuMode::Persistent).kernel_ns;
        assert!(r < 1.1);
    }

    #[test]
    fn non_offloadable_load_is_infinite_on_gpu() {
        let m = model();
        let load = ElementLoad::new(WorkProfile::per_packet(50.0), None, 64, 64 * 64);
        assert!(m
            .gpu_batch_ns(&load, GpuMode::Persistent)
            .total()
            .is_infinite());
    }

    #[test]
    fn split_and_merge_costs_scale() {
        let m = model();
        assert!(m.split_ns(64, 2) > 0.0);
        assert!(m.split_ns(128, 2) > m.split_ns(64, 2));
        assert!(m.split_ns(64, 4) > m.split_ns(64, 2));
        assert!(m.merge_ns(128) > m.merge_ns(64));
    }

    #[test]
    fn empty_loads_cost_nothing() {
        let m = model();
        let load = ipv4_load(0, 64);
        assert_eq!(m.cpu_batch_ns(&load, &CoRunContext::solo()), 0.0);
        assert_eq!(m.gpu_batch_ns(&load, GpuMode::Persistent).total(), 0.0);
    }

    #[test]
    fn fraction_rounds_packets() {
        let load = ipv4_load(10, 64);
        assert_eq!(load.fraction(0.7).packets, 7);
        assert_eq!(load.fraction(0.0).packets, 0);
        assert_eq!(load.fraction(1.0).packets, 10);
    }

    #[test]
    fn reconfiguration_costs_dominate_steady_state_dispatch() {
        let m = model();
        // A cold relaunch must cost far more than a steady-state
        // persistent dispatch — that asymmetry is what the controller's
        // cooldown amortizes.
        assert!(m.kernel_cold_launch_ns(GpuMode::Persistent) > 10.0 * calib::GPU_LAUNCH_NS);
        assert!(m.kernel_teardown_ns() > calib::GPU_LAUNCH_NS);
        // Launch-per-batch never keeps a context warm: cold == ordinary.
        assert_eq!(
            m.kernel_cold_launch_ns(GpuMode::LaunchPerBatch),
            calib::GPU_LAUNCH_NS
        );
        // State migration scales with bytes and is free when stateless.
        assert_eq!(m.state_migration_ns(0), 0.0);
        assert!(m.state_migration_ns(1 << 20) > m.state_migration_ns(1 << 10));
    }

    #[test]
    fn corun_reduces_throughput() {
        let m = model();
        let load = dpi_load(256, 512);
        let solo = CoRunContext::solo();
        let busy = CoRunContext::new([Some(KernelClass::PatternMatch), Some(KernelClass::Lookup)]);
        assert!(m.cpu_batch_ns(&load, &busy) > m.cpu_batch_ns(&load, &solo));
    }
}
