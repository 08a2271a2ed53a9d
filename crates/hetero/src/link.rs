//! Inter-server link cost model for the simulated rack.
//!
//! A cluster deployment shards one SFC's flows across several servers;
//! every batch shard that crosses a machine boundary pays for the wire the
//! same way a GPU offload pays for PCIe today: a serialization cost
//! proportional to bytes, a per-packet framing cost, and a fixed
//! propagation/NIC latency. The cost is *charged on the simulated
//! timeline* — the cluster runtime schedules a span on the link's
//! resource so concurrent shards queue behind one another exactly like
//! DMA transfers queue on `pcie-h2d`.

/// Inter-server link description: bandwidth, propagation latency, and
/// per-packet serialization overhead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Usable wire bandwidth in gigabits per second.
    pub bandwidth_gbps: f64,
    /// Fixed one-way latency (propagation + NIC + switch hop), ns.
    pub latency_ns: f64,
    /// Per-packet framing/serialization cost, ns. Captures the
    /// per-descriptor DMA and header-processing work that does not
    /// amortize with packet size.
    pub per_packet_ns: f64,
}

impl LinkSpec {
    /// Top-of-rack 40 GbE: 1.2 µs one-way latency, 30 ns/packet
    /// serialization.
    pub fn rack_40g() -> Self {
        LinkSpec {
            bandwidth_gbps: 40.0,
            latency_ns: 1_200.0,
            per_packet_ns: 30.0,
        }
    }

    /// Time to ship `packets` packets totalling `bytes` wire bytes
    /// across the link, in nanoseconds. Zero when the shard is empty —
    /// an unused link charges nothing.
    pub fn transfer_ns(&self, packets: usize, bytes: usize) -> f64 {
        if packets == 0 {
            return 0.0;
        }
        let wire_ns = (bytes as f64) * 8.0 / self.bandwidth_gbps;
        self.latency_ns + self.per_packet_ns * packets as f64 + wire_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_shard_is_free() {
        assert_eq!(LinkSpec::rack_40g().transfer_ns(0, 0), 0.0);
        assert_eq!(LinkSpec::rack_40g().transfer_ns(0, 4096), 0.0);
    }

    #[test]
    fn transfer_charges_latency_framing_and_wire_time() {
        let link = LinkSpec::rack_40g();
        // 64 packets x 1500 B at 40 Gbps: 768000 bits / 40 = 19200 ns
        // wire, 64 x 30 = 1920 ns framing, 1200 ns latency.
        let got = link.transfer_ns(64, 64 * 1500);
        let want = 1_200.0 + 64.0 * 30.0 + 19_200.0;
        assert!((got - want).abs() < 1e-9, "got {got}, want {want}");
    }

    #[test]
    fn faster_link_is_cheaper_for_bulk() {
        let bulk = 256 * 1500;
        let ten_g = LinkSpec {
            bandwidth_gbps: 10.0,
            latency_ns: 1_500.0,
            per_packet_ns: 50.0,
        };
        let slow = ten_g.transfer_ns(256, bulk);
        let fast = LinkSpec::rack_40g().transfer_ns(256, bulk);
        assert!(fast < slow);
    }

    #[test]
    fn small_packets_are_framing_dominated() {
        let link = LinkSpec::rack_40g();
        // 64 B packets: wire time 12.8 ns/pkt is dwarfed by the 30 ns
        // framing cost — the model must keep them distinct so the
        // cluster placement sees min-size floods as per-packet bound.
        let n = 1000;
        let total = link.transfer_ns(n, n * 64);
        let framing = link.per_packet_ns * n as f64;
        let wire = (n * 64) as f64 * 8.0 / link.bandwidth_gbps;
        assert!(framing > wire);
        assert!((total - (link.latency_ns + framing + wire)).abs() < 1e-9);
    }
}
