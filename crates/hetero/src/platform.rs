//! The machine description from the paper's Table I.

/// CPU description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuSpec {
    /// Core frequency in GHz.
    pub freq_ghz: f64,
    /// Sockets.
    pub sockets: usize,
    /// Physical cores per socket.
    pub cores_per_socket: usize,
    /// L1 data cache per core, bytes.
    pub l1_bytes: usize,
    /// L2 cache per core, bytes.
    pub l2_bytes: usize,
    /// L3 cache per socket, bytes.
    pub l3_bytes: usize,
}

impl CpuSpec {
    /// Nanoseconds per cycle.
    pub fn ns_per_cycle(&self) -> f64 {
        1.0 / self.freq_ghz
    }
}

/// GPU description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSpec {
    /// Number of discrete GPUs.
    pub count: usize,
    /// CUDA cores per GPU.
    pub cuda_cores: usize,
    /// Memory bandwidth per GPU, GB/s.
    pub mem_bw_gbps: f64,
    /// Streaming multiprocessors per GPU (Titan X Maxwell: 24).
    pub sm_count: usize,
}

/// PCIe link description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcieSpec {
    /// Effective unidirectional bandwidth, GB/s (PCIe 3.0 x16 ≈ 12 GB/s
    /// achievable).
    pub bw_gbs: f64,
    /// Per-DMA setup latency including driver/ring overhead, ns. This
    /// fixed floor is what makes tiny lookups not worth offloading
    /// (Figure 15: GTA never offloads IPv4).
    pub dma_latency_ns: f64,
}

/// NIC description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NicSpec {
    /// Number of ports.
    pub ports: usize,
    /// Line rate per port, Gbps.
    pub gbps_per_port: f64,
}

/// The full platform (paper Table I).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlatformConfig {
    /// CPU complex.
    pub cpu: CpuSpec,
    /// GPU complex.
    pub gpu: GpuSpec,
    /// PCIe interconnect.
    pub pcie: PcieSpec,
    /// NICs.
    pub nic: NicSpec,
}

impl PlatformConfig {
    /// The paper's testbed: SuperMicro 8048B, 4× Xeon E7-4809 v2 (1.9 GHz,
    /// 6 cores, 64 KB L1 / 256 KB L2 per core, 12 MB L3 per socket), 2×
    /// NVIDIA Titan X (3072 CUDA cores, 336.5 GB/s), 4× 10 GbE.
    pub fn hpca18() -> Self {
        PlatformConfig {
            cpu: CpuSpec {
                freq_ghz: 1.9,
                sockets: 4,
                cores_per_socket: 6,
                l1_bytes: 64 * 1024,
                l2_bytes: 256 * 1024,
                l3_bytes: 12 * 1024 * 1024,
            },
            gpu: GpuSpec {
                count: 2,
                cuda_cores: 3072,
                mem_bw_gbps: 336.5,
                sm_count: 24,
            },
            pcie: PcieSpec {
                bw_gbs: 12.0,
                dma_latency_ns: 2_000.0,
            },
            nic: NicSpec {
                ports: 4,
                gbps_per_port: 10.0,
            },
        }
    }
}

impl Default for PlatformConfig {
    fn default() -> Self {
        Self::hpca18()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_constants() {
        let p = PlatformConfig::hpca18();
        assert_eq!((p.cpu.sockets, p.cpu.cores_per_socket), (4, 6));
        assert!((p.cpu.ns_per_cycle() - 0.5263).abs() < 1e-3);
        assert_eq!(p.gpu.count, 2);
        assert_eq!(p.gpu.cuda_cores, 3072);
        assert_eq!((p.nic.ports, p.nic.gbps_per_port), (4, 10.0));
    }
}
