//! Synthetic traffic generation covering every workload in the paper.
//!
//! The paper drives its testbed with Netperf and a DPDK packet generator
//! producing: fixed-size frames (64 B TCP for the SFC re-organization study,
//! 64/128/1500 B for the real-SFC validation), uniform random sizes, and the
//! Intel IMIX distribution (61.22 % 64 B, 23.47 % 536 B, 15.31 % 1360 B) for
//! the task-allocation study. DPI traffic additionally varies the *match
//! ratio* (full-match vs no-match payloads, Figure 8).
//!
//! [`TrafficGenerator`] is deterministic given a seed, so every experiment
//! in the repository is reproducible bit-for-bit.

use crate::{Batch, Packet};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Frame-size distribution (total wire length including Ethernet header).
#[derive(Debug, Clone, PartialEq)]
pub enum SizeDist {
    /// Every frame has exactly this many bytes.
    Fixed(usize),
    /// Uniform random in `[min, max]`.
    Uniform {
        /// Smallest frame size.
        min: usize,
        /// Largest frame size.
        max: usize,
    },
    /// The Intel IMIX mix the paper cites: 61.22 % 64 B, 23.47 % 536 B,
    /// 15.31 % 1360 B.
    Imix,
    /// Arbitrary empirical distribution of `(size, weight)` pairs.
    Empirical(Vec<(usize, f64)>),
}

impl SizeDist {
    /// Draws one frame size.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        match self {
            SizeDist::Fixed(n) => *n,
            SizeDist::Uniform { min, max } => rng.gen_range(*min..=*max),
            SizeDist::Imix => {
                let x: f64 = rng.gen();
                if x < 0.6122 {
                    64
                } else if x < 0.6122 + 0.2347 {
                    536
                } else {
                    1360
                }
            }
            SizeDist::Empirical(pairs) => {
                let total: f64 = pairs.iter().map(|(_, w)| w).sum();
                let mut x: f64 = rng.gen::<f64>() * total;
                for (size, w) in pairs {
                    if x < *w {
                        return *size;
                    }
                    x -= w;
                }
                pairs.last().map(|(s, _)| *s).unwrap_or(64)
            }
        }
    }

    /// Expected frame size in bytes (used to convert offered Gbps into
    /// packets/second).
    pub fn mean(&self) -> f64 {
        match self {
            SizeDist::Fixed(n) => *n as f64,
            SizeDist::Uniform { min, max } => (*min + *max) as f64 / 2.0,
            SizeDist::Imix => 0.6122 * 64.0 + 0.2347 * 536.0 + 0.1531 * 1360.0,
            SizeDist::Empirical(pairs) => {
                let total: f64 = pairs.iter().map(|(_, w)| w).sum();
                if total == 0.0 {
                    return 64.0;
                }
                pairs.iter().map(|(s, w)| *s as f64 * w).sum::<f64>() / total
            }
        }
    }
}

/// Transport protocol of generated packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L4Proto {
    /// UDP (the paper's default Netperf load).
    Udp,
    /// TCP (used by the SFC re-organization experiments).
    Tcp,
}

/// Network protocol of generated packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpVersion {
    /// IPv4.
    V4,
    /// IPv6 (the IPv6-router characterization).
    V6,
}

/// How payload bytes are filled.
///
/// For [`PayloadPolicy::MatchRatio`], non-matching filler is drawn from
/// lowercase ASCII, so patterns containing at least one byte outside
/// `a..=z` can never match accidentally. The default IDS rule sets in
/// `nfc-nf` use uppercase signatures for exactly this reason.
#[derive(Debug, Clone, PartialEq)]
pub enum PayloadPolicy {
    /// All zero bytes.
    Zeros,
    /// Uniform random bytes.
    Random,
    /// Lowercase ASCII filler; with probability `ratio` one of `patterns`
    /// is embedded at a random offset (DPI full-match vs no-match traffic).
    MatchRatio {
        /// Signature strings to embed.
        patterns: Vec<Vec<u8>>,
        /// Probability that a packet contains a signature.
        ratio: f64,
    },
}

/// Flow population the generator draws 5-tuples from.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSpec {
    /// Number of concurrent flows.
    pub count: usize,
    /// IPv4 source CIDR as `(base, prefix_len)`.
    pub src_cidr: (u32, u8),
    /// IPv4 destination CIDR as `(base, prefix_len)`.
    pub dst_cidr: (u32, u8),
    /// Destination port range.
    pub dst_ports: (u16, u16),
    /// Zipf skew exponent `s` for flow popularity: flow `i` is drawn with
    /// probability proportional to `1/(i+1)^s`. `0.0` (the default) keeps
    /// the historical uniform draw — real SFC traffic is heavily skewed
    /// (a small number of elephant flows carry most packets), which is
    /// what the flow-aware fast path exploits.
    pub skew: f64,
}

impl Default for FlowSpec {
    fn default() -> Self {
        FlowSpec {
            count: 1024,
            src_cidr: (u32::from_be_bytes([10, 0, 0, 0]), 8),
            dst_cidr: (u32::from_be_bytes([172, 16, 0, 0]), 12),
            dst_ports: (1, 65535),
            skew: 0.0,
        }
    }
}

impl FlowSpec {
    /// Sets the Zipf skew exponent (builder-style).
    pub fn with_skew(mut self, skew: f64) -> Self {
        assert!(skew >= 0.0 && skew.is_finite(), "skew must be >= 0");
        self.skew = skew;
        self
    }
}

/// Complete description of a synthetic traffic load.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficSpec {
    /// Transport protocol.
    pub l4: L4Proto,
    /// IP version.
    pub ip: IpVersion,
    /// Frame-size distribution.
    pub size: SizeDist,
    /// Payload fill policy.
    pub payload: PayloadPolicy,
    /// Flow population.
    pub flows: FlowSpec,
    /// Offered load in Gbps; determines simulated inter-arrival times.
    pub rate_gbps: f64,
}

impl TrafficSpec {
    /// UDP/IPv4 traffic with the given size distribution at the paper's
    /// default 40 Gbps per generator.
    pub fn udp(size: SizeDist) -> Self {
        TrafficSpec {
            l4: L4Proto::Udp,
            ip: IpVersion::V4,
            size,
            payload: PayloadPolicy::Zeros,
            flows: FlowSpec::default(),
            rate_gbps: 40.0,
        }
    }

    /// TCP/IPv4 traffic (the SFC re-organization experiments use 64 B TCP).
    pub fn tcp(size: SizeDist) -> Self {
        TrafficSpec {
            l4: L4Proto::Tcp,
            ..TrafficSpec::udp(size)
        }
    }

    /// Switches to IPv6 (the IPv6 router characterization).
    pub fn with_ip_version(mut self, ip: IpVersion) -> Self {
        self.ip = ip;
        self
    }

    /// Sets the payload policy.
    pub fn with_payload(mut self, payload: PayloadPolicy) -> Self {
        self.payload = payload;
        self
    }

    /// Sets the flow population.
    pub fn with_flows(mut self, flows: FlowSpec) -> Self {
        self.flows = flows;
        self
    }

    /// Sets the offered load in Gbps.
    pub fn with_rate_gbps(mut self, rate: f64) -> Self {
        self.rate_gbps = rate;
        self
    }
}

#[derive(Debug, Clone)]
struct FlowDef {
    src_v4: [u8; 4],
    dst_v4: [u8; 4],
    src_v6: [u8; 16],
    dst_v6: [u8; 16],
    src_port: u16,
    dst_port: u16,
}

/// Deterministic synthetic traffic source.
///
/// # Example
///
/// ```
/// use nfc_packet::traffic::{SizeDist, TrafficGenerator, TrafficSpec};
///
/// let mut gen = TrafficGenerator::new(TrafficSpec::udp(SizeDist::Fixed(64)), 7);
/// let batch = gen.batch(8);
/// assert!(batch.iter().all(|p| p.len() == 64));
/// // Same seed, same packets:
/// let mut gen2 = TrafficGenerator::new(TrafficSpec::udp(SizeDist::Fixed(64)), 7);
/// assert_eq!(gen2.batch(8), batch);
/// ```
#[derive(Debug, Clone)]
pub struct TrafficGenerator {
    spec: TrafficSpec,
    rng: SmallRng,
    flows: Vec<FlowDef>,
    /// Cumulative Zipf weights over flow indices; `None` when the spec's
    /// skew is zero, which keeps the historical uniform draw (and its
    /// exact RNG call sequence) bit-identical.
    zipf_cdf: Option<Vec<f64>>,
    seq: u64,
    now_ns: f64,
}

impl TrafficGenerator {
    /// Creates a generator; identical `(spec, seed)` pairs produce
    /// identical packet streams.
    pub fn new(spec: TrafficSpec, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let flows: Vec<FlowDef> = (0..spec.flows.count.max(1))
            .map(|_| Self::make_flow(&spec.flows, &mut rng))
            .collect();
        let zipf_cdf = (spec.flows.skew > 0.0).then(|| {
            let s = spec.flows.skew;
            let mut acc = 0.0;
            let mut cdf: Vec<f64> = (0..flows.len())
                .map(|i| {
                    acc += ((i + 1) as f64).powf(-s);
                    acc
                })
                .collect();
            let total = acc;
            for c in &mut cdf {
                *c /= total;
            }
            cdf
        });
        TrafficGenerator {
            spec,
            rng,
            flows,
            zipf_cdf,
            seq: 0,
            now_ns: 0.0,
        }
    }

    fn make_flow(fs: &FlowSpec, rng: &mut SmallRng) -> FlowDef {
        let pick = |cidr: (u32, u8), rng: &mut SmallRng| -> u32 {
            let (base, plen) = cidr;
            let host_bits = 32 - u32::from(plen);
            let mask = if plen == 0 { 0 } else { u32::MAX << host_bits };
            (base & mask) | (rng.gen::<u32>() & !mask)
        };
        let src = pick(fs.src_cidr, rng);
        let dst = pick(fs.dst_cidr, rng);
        let mut src_v6 = [0u8; 16];
        let mut dst_v6 = [0u8; 16];
        src_v6[0] = 0x20;
        src_v6[1] = 0x01;
        src_v6[12..16].copy_from_slice(&src.to_be_bytes());
        rng.fill(&mut src_v6[4..12]);
        dst_v6[0] = 0x20;
        dst_v6[1] = 0x01;
        dst_v6[12..16].copy_from_slice(&dst.to_be_bytes());
        rng.fill(&mut dst_v6[4..12]);
        FlowDef {
            src_v4: src.to_be_bytes(),
            dst_v4: dst.to_be_bytes(),
            src_v6,
            dst_v6,
            src_port: rng.gen_range(1024..=65535),
            dst_port: rng.gen_range(fs.dst_ports.0..=fs.dst_ports.1),
        }
    }

    /// The spec this generator was built from.
    pub fn spec(&self) -> &TrafficSpec {
        &self.spec
    }

    /// Current simulated time (ns) — advances as packets are emitted at the
    /// configured offered rate.
    pub fn now_ns(&self) -> u64 {
        self.now_ns as u64
    }

    /// Fast-forwards the generator's clock to at least `ns` (used to
    /// splice traffic phases onto one continuous timeline).
    pub fn advance_to(&mut self, ns: u64) {
        self.now_ns = self.now_ns.max(ns as f64);
    }

    /// The sequence number the next packet will carry.
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// Fast-forwards the sequence counter to at least `seq`, so spliced
    /// phases continue one numbering instead of each restarting at 0
    /// (IPsec derives its ESP number and IV from it).
    pub fn advance_seq_to(&mut self, seq: u64) {
        self.seq = self.seq.max(seq);
    }

    fn fill_payload(&mut self, buf: &mut Vec<u8>, len: usize) {
        buf.clear();
        buf.resize(len, 0);
        match &self.spec.payload {
            PayloadPolicy::Zeros => {}
            PayloadPolicy::Random => self.rng.fill(&mut buf[..]),
            PayloadPolicy::MatchRatio { patterns, ratio } => {
                for b in buf.iter_mut() {
                    *b = self.rng.gen_range(b'a'..=b'z');
                }
                if !patterns.is_empty() && self.rng.gen::<f64>() < *ratio {
                    let pat = &patterns[self.rng.gen_range(0..patterns.len())];
                    if pat.len() <= len {
                        let off = self.rng.gen_range(0..=len - pat.len());
                        buf[off..off + pat.len()].copy_from_slice(pat);
                    }
                }
            }
        }
    }

    /// Generates the next packet.
    pub fn packet(&mut self) -> Packet {
        let frame = self.spec.size.sample(&mut self.rng);
        let flow_idx = match &self.zipf_cdf {
            None => self.rng.gen_range(0..self.flows.len()),
            Some(cdf) => {
                // Inverse-CDF sampling: binary search for the first bucket
                // whose cumulative weight exceeds the uniform draw.
                let u: f64 = self.rng.gen();
                cdf.partition_point(|&c| c <= u).min(self.flows.len() - 1)
            }
        };
        let (hdr_len, proto_tcp) = match (self.spec.ip, self.spec.l4) {
            (IpVersion::V4, L4Proto::Udp) => (14 + 20 + 8, false),
            (IpVersion::V4, L4Proto::Tcp) => (14 + 20 + 20, true),
            (IpVersion::V6, L4Proto::Udp) => (14 + 40 + 8, false),
            (IpVersion::V6, L4Proto::Tcp) => (14 + 40 + 20, true),
        };
        let payload_len = frame.saturating_sub(hdr_len);
        let mut payload = Vec::new();
        self.fill_payload(&mut payload, payload_len);
        let flow = self.flows[flow_idx].clone();
        let mut pkt = match (self.spec.ip, proto_tcp) {
            (IpVersion::V4, false) => Packet::ipv4_udp(
                flow.src_v4,
                flow.dst_v4,
                flow.src_port,
                flow.dst_port,
                &payload,
            ),
            (IpVersion::V4, true) => Packet::ipv4_tcp(
                flow.src_v4,
                flow.dst_v4,
                flow.src_port,
                flow.dst_port,
                &payload,
                crate::headers::tcp_flags::ACK,
            ),
            (IpVersion::V6, _) => Packet::ipv6_udp(
                flow.src_v6,
                flow.dst_v6,
                flow.src_port,
                flow.dst_port,
                &payload,
            ),
        };
        pkt.meta.seq = self.seq;
        self.seq += 1;
        pkt.meta.arrival_ns = self.now_ns as u64;
        pkt.meta.flow_hash = pkt
            .five_tuple()
            .map(|t| t.rss_hash())
            .unwrap_or(flow_idx as u32);
        // Advance simulated time by the wire time of this frame at the
        // offered rate (frame + 20 B preamble/IFG).
        let bits = (pkt.len() + 20) as f64 * 8.0;
        self.now_ns += bits / self.spec.rate_gbps;
        pkt
    }

    /// Generates a batch of `n` packets.
    pub fn batch(&mut self, n: usize) -> Batch {
        (0..n).map(|_| self.packet()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imix_mean_matches_paper_mix() {
        let m = SizeDist::Imix.mean();
        assert!((m - (0.6122 * 64.0 + 0.2347 * 536.0 + 0.1531 * 1360.0)).abs() < 1e-9);
    }

    #[test]
    fn imix_frequencies_approximate_spec() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut counts = [0usize; 3];
        for _ in 0..20_000 {
            match SizeDist::Imix.sample(&mut rng) {
                64 => counts[0] += 1,
                536 => counts[1] += 1,
                1360 => counts[2] += 1,
                other => panic!("unexpected size {other}"),
            }
        }
        let f64s: Vec<f64> = counts.iter().map(|&c| c as f64 / 20_000.0).collect();
        assert!((f64s[0] - 0.6122).abs() < 0.02);
        assert!((f64s[1] - 0.2347).abs() < 0.02);
        assert!((f64s[2] - 0.1531).abs() < 0.02);
    }

    #[test]
    fn empirical_dist_respects_weights() {
        let d = SizeDist::Empirical(vec![(100, 1.0), (200, 3.0)]);
        assert!((d.mean() - 175.0).abs() < 1e-9);
        let mut rng = SmallRng::seed_from_u64(2);
        let n200 = (0..10_000).filter(|_| d.sample(&mut rng) == 200).count();
        assert!((n200 as f64 / 10_000.0 - 0.75).abs() < 0.02);
    }

    #[test]
    fn generator_is_deterministic() {
        let spec = TrafficSpec::udp(SizeDist::Imix).with_payload(PayloadPolicy::Random);
        let a = TrafficGenerator::new(spec.clone(), 99).batch(64);
        let b = TrafficGenerator::new(spec, 99).batch(64);
        assert_eq!(a, b);
    }

    #[test]
    fn fixed_64b_frames_are_64_bytes() {
        let mut gen = TrafficGenerator::new(TrafficSpec::udp(SizeDist::Fixed(64)), 0);
        assert!(gen.batch(100).iter().all(|p| p.len() == 64));
    }

    #[test]
    fn tcp_spec_produces_tcp() {
        let mut gen = TrafficGenerator::new(TrafficSpec::tcp(SizeDist::Fixed(64)), 0);
        let b = gen.batch(10);
        assert!(b.iter().all(|p| p.tcp().is_ok()));
    }

    #[test]
    fn ipv6_spec_produces_ipv6() {
        let spec = TrafficSpec::udp(SizeDist::Fixed(128)).with_ip_version(IpVersion::V6);
        let mut gen = TrafficGenerator::new(spec, 0);
        assert!(gen.batch(10).iter().all(|p| p.is_ipv6()));
    }

    #[test]
    fn match_ratio_controls_pattern_presence() {
        let pattern = b"EVIL_SIGNATURE".to_vec();
        for (ratio, lo, hi) in [(0.0, 0, 0), (1.0, 1000, 1000), (0.5, 380, 620)] {
            let spec =
                TrafficSpec::udp(SizeDist::Fixed(512)).with_payload(PayloadPolicy::MatchRatio {
                    patterns: vec![pattern.clone()],
                    ratio,
                });
            let mut gen = TrafficGenerator::new(spec, 5);
            let hits = gen
                .batch(1000)
                .iter()
                .filter(|p| {
                    p.l4_payload()
                        .unwrap()
                        .windows(pattern.len())
                        .any(|w| w == pattern.as_slice())
                })
                .count();
            assert!(hits >= lo && hits <= hi, "ratio {ratio}: {hits} hits");
        }
    }

    #[test]
    fn arrival_times_match_offered_rate() {
        let spec = TrafficSpec::udp(SizeDist::Fixed(64)).with_rate_gbps(10.0);
        let mut gen = TrafficGenerator::new(spec, 0);
        let b = gen.batch(1000);
        let last = b.get(999).unwrap().meta.arrival_ns;
        // 1000 frames * 84 bytes * 8 bits / 10 Gbps = 67.2 us.
        let expect = 999.0 * 84.0 * 8.0 / 10.0;
        assert!((last as f64 - expect).abs() < 100.0, "last={last}");
    }

    #[test]
    fn flows_stay_within_cidrs() {
        let flows = FlowSpec {
            count: 64,
            src_cidr: (u32::from_be_bytes([192, 168, 0, 0]), 16),
            dst_cidr: (u32::from_be_bytes([10, 1, 2, 0]), 24),
            dst_ports: (80, 80),
            ..FlowSpec::default()
        };
        let spec = TrafficSpec::udp(SizeDist::Fixed(64)).with_flows(flows);
        let mut gen = TrafficGenerator::new(spec, 3);
        for p in &gen.batch(200) {
            let ip = p.ipv4().unwrap();
            assert_eq!(&ip.src[..2], &[192, 168]);
            assert_eq!(&ip.dst[..3], &[10, 1, 2]);
            assert_eq!(p.udp().unwrap().dst_port, 80);
        }
    }

    /// Per-flow packet counts, sorted most-popular-first.
    fn flow_shares(skew: f64, n_flows: usize, n_pkts: usize) -> Vec<f64> {
        let flows = FlowSpec {
            count: n_flows,
            ..FlowSpec::default()
        }
        .with_skew(skew);
        let spec = TrafficSpec::udp(SizeDist::Fixed(64)).with_flows(flows);
        let mut gen = TrafficGenerator::new(spec, 11);
        let mut counts: std::collections::HashMap<crate::FiveTuple, usize> =
            std::collections::HashMap::new();
        for p in &gen.batch(n_pkts) {
            *counts.entry(p.five_tuple().unwrap()).or_default() += 1;
        }
        let mut shares: Vec<f64> = counts.values().map(|&c| c as f64 / n_pkts as f64).collect();
        shares.sort_by(|a, b| b.partial_cmp(a).unwrap());
        shares
    }

    #[test]
    fn zipf_skew_concentrates_traffic() {
        let shares = flow_shares(1.0, 64, 20_000);
        // Zipf(1.0) over 64 flows: the heaviest flow carries 1/H(64) ≈ 21 %
        // of packets and the top 8 carry ≈ 57 %.
        assert!(
            (0.17..=0.25).contains(&shares[0]),
            "top share {}",
            shares[0]
        );
        let top8: f64 = shares.iter().take(8).sum();
        assert!(top8 > 0.50, "top-8 share {top8}");
    }

    #[test]
    fn zero_skew_stays_uniform() {
        let shares = flow_shares(0.0, 64, 20_000);
        // Uniform draw: every flow sits near 1/64 ≈ 1.6 %.
        assert!(shares[0] < 0.05, "top share {}", shares[0]);
        assert_eq!(shares.len(), 64);
    }

    #[test]
    fn skewed_generator_is_deterministic() {
        let spec = TrafficSpec::udp(SizeDist::Imix)
            .with_flows(FlowSpec::default().with_skew(1.2))
            .with_payload(PayloadPolicy::Random);
        let a = TrafficGenerator::new(spec.clone(), 99).batch(64);
        let b = TrafficGenerator::new(spec, 99).batch(64);
        assert_eq!(a, b);
    }

    #[test]
    fn sequence_numbers_are_monotonic() {
        let mut gen = TrafficGenerator::new(TrafficSpec::udp(SizeDist::Imix), 0);
        let b = gen.batch(50);
        for (i, p) in b.iter().enumerate() {
            assert_eq!(p.meta.seq, i as u64);
        }
    }
}
