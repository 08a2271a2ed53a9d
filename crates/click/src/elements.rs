//! Generic, reusable Click elements shared by all network functions.

use crate::element::{
    config_hash, Element, ElementActions, ElementClass, ElementSignature, FlowVerdict, RunCtx,
};
use nfc_packet::{Batch, HeaderLanes, Packet};

/// Counts packets and bytes passing through (Click `Counter`).
#[derive(Debug, Clone)]
pub struct Counter {
    name: String,
    packets: u64,
    bytes: u64,
}

impl Counter {
    /// Creates a counter with an instance name.
    pub fn new(name: impl Into<String>) -> Self {
        Counter {
            name: name.into(),
            packets: 0,
            bytes: 0,
        }
    }

    /// Packets seen so far.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Bytes seen so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Element for Counter {
    fn name(&self) -> &str {
        &self.name
    }

    fn class(&self) -> ElementClass {
        ElementClass::Inspector
    }

    fn actions(&self) -> ElementActions {
        ElementActions::default()
    }

    fn process(&mut self, batch: Batch, _ctx: &mut RunCtx) -> Vec<Batch> {
        self.packets += batch.len() as u64;
        self.bytes += batch.total_bytes() as u64;
        vec![batch]
    }

    fn clone_box(&self) -> Box<dyn Element> {
        Box::new(self.clone())
    }

    fn base_cost(&self) -> f64 {
        5.0
    }
}

/// Silently drops every packet (Click `Discard`).
#[derive(Debug, Clone, Default)]
pub struct Discard;

impl Discard {
    /// Creates a discard sink.
    pub fn new() -> Self {
        Discard
    }
}

impl Element for Discard {
    fn name(&self) -> &str {
        "discard"
    }

    fn class(&self) -> ElementClass {
        ElementClass::Sink
    }

    fn actions(&self) -> ElementActions {
        ElementActions::default().with_drop()
    }

    fn n_outputs(&self) -> usize {
        0
    }

    fn process(&mut self, _batch: Batch, _ctx: &mut RunCtx) -> Vec<Batch> {
        Vec::new()
    }

    fn clone_box(&self) -> Box<dyn Element> {
        Box::new(self.clone())
    }

    fn signature(&self) -> ElementSignature {
        ElementSignature::new("discard", 0)
    }

    fn base_cost(&self) -> f64 {
        1.0
    }
}

/// Duplicates every packet onto `n` output ports (Click `Tee`) — the
/// traffic-duplication primitive of the paper's SFC parallelization
/// (§IV-B1: "it just creates the copy of network packets and distributes
/// them").
#[derive(Debug, Clone)]
pub struct Tee {
    name: String,
    n: usize,
}

impl Tee {
    /// Creates a tee with `n` outputs.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(name: impl Into<String>, n: usize) -> Self {
        assert!(n > 0, "Tee needs at least one output");
        Tee {
            name: name.into(),
            n,
        }
    }
}

impl Element for Tee {
    fn name(&self) -> &str {
        &self.name
    }

    fn class(&self) -> ElementClass {
        ElementClass::Classifier
    }

    fn actions(&self) -> ElementActions {
        ElementActions::default()
    }

    fn n_outputs(&self) -> usize {
        self.n
    }

    fn process(&mut self, batch: Batch, _ctx: &mut RunCtx) -> Vec<Batch> {
        let mut out = vec![batch.clone(); self.n.saturating_sub(1)];
        out.push(batch);
        out
    }

    fn clone_box(&self) -> Box<dyn Element> {
        Box::new(self.clone())
    }

    fn signature(&self) -> ElementSignature {
        ElementSignature::new("tee", self.n as u64)
    }

    fn base_cost(&self) -> f64 {
        // Duplication copies packet buffers.
        30.0 * self.n as f64
    }
}

/// Routes packets whose IP protocol is in the configured set to port 0,
/// everything else to port 1.
#[derive(Debug, Clone)]
pub struct ProtocolClassifier {
    name: String,
    protos: Vec<u8>,
}

impl ProtocolClassifier {
    /// Creates a classifier matching the given IP protocol numbers.
    pub fn new(name: impl Into<String>, protos: Vec<u8>) -> Self {
        ProtocolClassifier {
            name: name.into(),
            protos,
        }
    }

    /// Output port of `p` from its parsed headers.
    fn route(&self, p: &Packet) -> usize {
        match p.ip_protocol() {
            Ok(proto) if self.protos.contains(&proto) => 0,
            _ => 1,
        }
    }

    /// Output port of row `i` (packet `p`) off the proto lane; rows the
    /// lane does not cover (IPv6, non-IP) take [`Self::route`].
    fn route_row(&self, lanes: &HeaderLanes, i: usize, p: &Packet) -> usize {
        if lanes.l3v4_mask()[i] {
            usize::from(!self.protos.contains(&lanes.proto()[i]))
        } else {
            self.route(p)
        }
    }
}

impl Element for ProtocolClassifier {
    fn name(&self) -> &str {
        &self.name
    }

    fn class(&self) -> ElementClass {
        ElementClass::Classifier
    }

    fn actions(&self) -> ElementActions {
        ElementActions::read_header()
    }

    fn n_outputs(&self) -> usize {
        2
    }

    fn process(&mut self, mut batch: Batch, ctx: &mut RunCtx) -> Vec<Batch> {
        if ctx.lanes {
            // Columnar sweep: one chunked pass over the proto lane for
            // IPv4 rows, per-packet fallback (IPv6, non-IP) elsewhere.
            let lanes = batch.shared_lanes();
            let routes: Vec<usize> = batch
                .iter()
                .enumerate()
                .map(|(i, p)| self.route_row(&lanes, i, p))
                .collect();
            return batch.split_by(2, |i, _| routes[i]);
        }
        batch.split_by(2, |_, p| self.route(p))
    }

    fn clone_box(&self) -> Box<dyn Element> {
        Box::new(self.clone())
    }

    fn signature(&self) -> ElementSignature {
        ElementSignature::new("proto-classifier", config_hash(&self.protos))
    }

    fn base_cost(&self) -> f64 {
        15.0
    }

    fn verdict_capable(&self) -> bool {
        true
    }

    fn flow_verdict(&self, pkt: &Packet) -> Option<FlowVerdict> {
        Some(FlowVerdict::Forward {
            port: self.route(pkt),
        })
    }

    fn flow_verdicts(
        &self,
        batch: &Batch,
        lanes: &HeaderLanes,
        rows: &[u32],
        out: &mut Vec<FlowVerdict>,
    ) -> bool {
        out.extend(rows.iter().map(|&row| {
            let i = row as usize;
            let p = batch.get(i).expect("row within the batch");
            FlowVerdict::Forward {
                port: self.route_row(lanes, i, p),
            }
        }));
        true
    }
}

/// Routes packets by destination-port ranges: output `i` for the first
/// matching range, last output for no match.
#[derive(Debug, Clone)]
pub struct PortClassifier {
    name: String,
    ranges: Vec<(u16, u16)>,
}

impl PortClassifier {
    /// Creates a classifier with one output per `(lo, hi)` range plus a
    /// default output.
    pub fn new(name: impl Into<String>, ranges: Vec<(u16, u16)>) -> Self {
        PortClassifier {
            name: name.into(),
            ranges,
        }
    }
}

impl Element for PortClassifier {
    fn name(&self) -> &str {
        &self.name
    }

    fn class(&self) -> ElementClass {
        ElementClass::Classifier
    }

    fn actions(&self) -> ElementActions {
        ElementActions::read_header()
    }

    fn n_outputs(&self) -> usize {
        self.ranges.len() + 1
    }

    fn process(&mut self, batch: Batch, _ctx: &mut RunCtx) -> Vec<Batch> {
        let ranges = self.ranges.clone();
        let default = ranges.len();
        batch.split_by(default + 1, |_, p| {
            let port = p
                .udp()
                .map(|u| u.dst_port)
                .or_else(|_| p.tcp().map(|t| t.dst_port));
            match port {
                Ok(dp) => ranges
                    .iter()
                    .position(|&(lo, hi)| dp >= lo && dp <= hi)
                    .unwrap_or(default),
                Err(_) => default,
            }
        })
    }

    fn clone_box(&self) -> Box<dyn Element> {
        Box::new(self.clone())
    }

    fn signature(&self) -> ElementSignature {
        let mut cfg = Vec::new();
        for (lo, hi) in &self.ranges {
            cfg.extend_from_slice(&lo.to_be_bytes());
            cfg.extend_from_slice(&hi.to_be_bytes());
        }
        ElementSignature::new("port-classifier", config_hash(&cfg))
    }

    fn base_cost(&self) -> f64 {
        20.0
    }
}

/// Validates IP headers, dropping malformed packets (Click
/// `CheckIPHeader`). The shared "header classifier" stage the paper's
/// Figure 10 de-duplicates between firewall and IDS.
#[derive(Debug, Clone, Default)]
pub struct CheckIpHeader;

impl CheckIpHeader {
    /// Creates a header checker.
    pub fn new() -> Self {
        CheckIpHeader
    }
}

impl Element for CheckIpHeader {
    fn name(&self) -> &str {
        "check-ip-header"
    }

    fn class(&self) -> ElementClass {
        ElementClass::Inspector
    }

    fn actions(&self) -> ElementActions {
        ElementActions::read_header().with_drop()
    }

    fn process(&mut self, mut batch: Batch, _ctx: &mut RunCtx) -> Vec<Batch> {
        batch.retain(|p| {
            if p.is_ipv4() {
                p.ipv4()
                    .map(|ip| ip.ttl > 0 && ip.total_len as usize <= p.len() - Packet::L3_OFFSET)
                    .unwrap_or(false)
            } else if p.is_ipv6() {
                p.ipv6().is_ok()
            } else {
                false
            }
        });
        vec![batch]
    }

    fn clone_box(&self) -> Box<dyn Element> {
        Box::new(self.clone())
    }

    fn signature(&self) -> ElementSignature {
        ElementSignature::new("check-ip-header", 0)
    }

    fn base_cost(&self) -> f64 {
        25.0
    }
}

/// Decrements the IPv4 TTL / IPv6 hop limit, updating the checksum
/// incrementally and dropping expired packets (Click `DecIPTTL`).
#[derive(Debug, Clone, Default)]
pub struct DecTtl;

impl DecTtl {
    /// Creates a TTL decrementer.
    pub fn new() -> Self {
        DecTtl
    }
}

/// The non-IPv4 arm of [`DecTtl`], shared by the lane sweep's uncovered
/// rows and the per-packet path: decrements an IPv6 hop limit in place.
/// `false` drops the packet (hop limit expiring, or not IP at all).
fn dec_hop_limit(p: &mut Packet) -> bool {
    match p.ipv6() {
        Ok(mut ip6) if ip6.hop_limit > 1 => {
            ip6.hop_limit -= 1;
            p.set_ipv6(&ip6);
            true
        }
        _ => false,
    }
}

impl Element for DecTtl {
    fn name(&self) -> &str {
        "dec-ttl"
    }

    fn class(&self) -> ElementClass {
        ElementClass::Modifier
    }

    fn actions(&self) -> ElementActions {
        ElementActions::read_header()
            .with_header_write()
            .with_drop()
    }

    fn process(&mut self, mut batch: Batch, ctx: &mut RunCtx) -> Vec<Batch> {
        let mut keep: Vec<bool> = Vec::with_capacity(batch.len());
        if ctx.lanes {
            // One SWAR pass over the TTL lane — eight TTL bytes per word —
            // decrements every IPv4 row; the scatter pass fixes the
            // checksum with the same RFC 1624 update the per-packet path
            // uses, so egress bytes are identical. IPv6 and non-IP rows
            // take the per-packet arm.
            let mut lanes = batch.header_lanes();
            let ipv4_keep = lanes.dec_ttl_ipv4();
            for i in 0..lanes.len() {
                keep.push(if lanes.ipv4_mask()[i] {
                    nfc_packet::simd::get_bit(&ipv4_keep, i)
                } else {
                    dec_hop_limit(batch.get_mut(i).expect("lane index in range"))
                });
            }
            lanes.write_back(&mut batch);
        } else {
            for p in batch.iter_mut() {
                if let Ok(mut ip) = p.ipv4() {
                    if ip.ttl <= 1 {
                        keep.push(false);
                        continue;
                    }
                    let old = u16::from_be_bytes([ip.ttl, ip.protocol]);
                    ip.ttl -= 1;
                    let new = u16::from_be_bytes([ip.ttl, ip.protocol]);
                    ip.checksum = nfc_packet::checksum::update16(ip.checksum, old, new);
                    p.set_ipv4(&ip);
                    keep.push(true);
                } else {
                    keep.push(dec_hop_limit(p));
                }
            }
        }
        let mut i = 0;
        batch.retain(|_| {
            let k = keep[i];
            i += 1;
            k
        });
        vec![batch]
    }

    fn clone_box(&self) -> Box<dyn Element> {
        Box::new(self.clone())
    }

    fn signature(&self) -> ElementSignature {
        ElementSignature::new("dec-ttl", 0)
    }

    fn base_cost(&self) -> f64 {
        12.0
    }
}

/// Distributes packets across `n` outputs by flow hash (the branch element
/// used in the Figure 5 batch-split characterization; same-flow packets
/// always take the same branch).
#[derive(Debug, Clone)]
pub struct HashSwitch {
    name: String,
    n: usize,
}

impl HashSwitch {
    /// Creates a hash switch with `n` outputs.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(name: impl Into<String>, n: usize) -> Self {
        assert!(n > 0, "HashSwitch needs at least one output");
        HashSwitch {
            name: name.into(),
            n,
        }
    }
}

impl Element for HashSwitch {
    fn name(&self) -> &str {
        &self.name
    }

    fn class(&self) -> ElementClass {
        ElementClass::Classifier
    }

    fn actions(&self) -> ElementActions {
        ElementActions::read_header()
    }

    fn n_outputs(&self) -> usize {
        self.n
    }

    fn process(&mut self, batch: Batch, _ctx: &mut RunCtx) -> Vec<Batch> {
        let n = self.n;
        batch.split_by(n, |_, p| (p.meta.flow_hash as usize) % n)
    }

    fn clone_box(&self) -> Box<dyn Element> {
        Box::new(self.clone())
    }

    fn signature(&self) -> ElementSignature {
        ElementSignature::new("hash-switch", self.n as u64)
    }

    fn base_cost(&self) -> f64 {
        18.0
    }
}

/// Writes a color into a packet annotation slot (Click `Paint`); used by
/// the orchestrator to tag which parallel branch a duplicate belongs to.
#[derive(Debug, Clone)]
pub struct Paint {
    name: String,
    color: u64,
}

impl Paint {
    /// Creates a painter that writes `color` into annotation slot 0.
    pub fn new(name: impl Into<String>, color: u64) -> Self {
        Paint {
            name: name.into(),
            color,
        }
    }
}

impl Element for Paint {
    fn name(&self) -> &str {
        &self.name
    }

    fn class(&self) -> ElementClass {
        ElementClass::Inspector
    }

    fn actions(&self) -> ElementActions {
        // Annotations are metadata, not packet bytes: no header/payload write.
        ElementActions::default()
    }

    fn process(&mut self, mut batch: Batch, _ctx: &mut RunCtx) -> Vec<Batch> {
        for p in batch.iter_mut() {
            p.meta.anno[0] = self.color;
        }
        vec![batch]
    }

    fn clone_box(&self) -> Box<dyn Element> {
        Box::new(self.clone())
    }

    fn signature(&self) -> ElementSignature {
        ElementSignature::new("paint", self.color)
    }

    fn base_cost(&self) -> f64 {
        4.0
    }
}

/// A configurable synthetic element for characterization experiments:
/// charges a chosen per-packet/per-byte work profile and optionally
/// hash-splits its batch across `outputs` ports (the paper's Figure 5
/// "branch test element").
#[derive(Debug, Clone)]
pub struct SyntheticWork {
    name: String,
    work: crate::element::WorkProfile,
    outputs: usize,
}

impl SyntheticWork {
    /// Creates a pass-through element with the given work profile.
    pub fn new(name: impl Into<String>, per_packet: f64, per_byte: f64) -> Self {
        SyntheticWork {
            name: name.into(),
            work: crate::element::WorkProfile::new(per_packet, per_byte),
            outputs: 1,
        }
    }

    /// Makes the element a branch: packets hash-split across `n` ports.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn with_outputs(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one output");
        self.outputs = n;
        self
    }
}

impl Element for SyntheticWork {
    fn name(&self) -> &str {
        &self.name
    }

    fn class(&self) -> ElementClass {
        if self.outputs > 1 {
            ElementClass::Classifier
        } else {
            ElementClass::Inspector
        }
    }

    fn actions(&self) -> ElementActions {
        ElementActions::read_header()
    }

    fn n_outputs(&self) -> usize {
        self.outputs
    }

    fn process(&mut self, batch: Batch, _ctx: &mut RunCtx) -> Vec<Batch> {
        if self.outputs == 1 {
            vec![batch]
        } else {
            let n = self.outputs;
            batch.split_by(n, |_, p| (p.meta.flow_hash as usize) % n)
        }
    }

    fn clone_box(&self) -> Box<dyn Element> {
        Box::new(self.clone())
    }

    fn signature(&self) -> ElementSignature {
        ElementSignature::new(
            "synthetic-work",
            config_hash(
                &[
                    self.work.per_packet.to_bits().to_be_bytes(),
                    self.work.per_byte.to_bits().to_be_bytes(),
                ]
                .concat(),
            ) ^ self.outputs as u64,
        )
    }

    fn base_cost(&self) -> f64 {
        self.work.per_packet
    }

    fn work(&self) -> crate::element::WorkProfile {
        self.work
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfc_packet::headers::ip_proto;

    fn ctx() -> RunCtx {
        RunCtx::default()
    }

    fn udp(seq: u64) -> Packet {
        let mut p = Packet::ipv4_udp([9, 9, 9, 9], [8, 8, 8, 8], 40000, 53, b"abc");
        p.meta.seq = seq;
        p.meta.flow_hash = seq as u32;
        p
    }

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new("c");
        c.process((0..3).map(udp).collect(), &mut ctx());
        c.process((0..2).map(udp).collect(), &mut ctx());
        assert_eq!(c.packets(), 5);
        assert!(c.bytes() > 0);
    }

    #[test]
    fn discard_has_no_outputs() {
        let mut d = Discard::new();
        assert_eq!(d.n_outputs(), 0);
        assert!(d.process((0..3).map(udp).collect(), &mut ctx()).is_empty());
    }

    #[test]
    fn tee_duplicates_payload_bytes() {
        let mut t = Tee::new("t", 3);
        let out = t.process((0..2).map(udp).collect(), &mut ctx());
        assert_eq!(out.len(), 3);
        for b in &out {
            assert_eq!(b.len(), 2);
        }
        assert_eq!(out[0], out[2]);
    }

    #[test]
    fn protocol_classifier_routes() {
        let mut c = ProtocolClassifier::new("c", vec![ip_proto::UDP]);
        let tcp = Packet::ipv4_tcp([1, 1, 1, 1], [2, 2, 2, 2], 1, 2, b"", 0);
        let mut batch = Batch::new();
        batch.push(udp(0));
        batch.push(tcp);
        let out = c.process(batch, &mut ctx());
        assert_eq!(out[0].len(), 1);
        assert_eq!(out[1].len(), 1);
    }

    #[test]
    fn port_classifier_ranges_and_default() {
        let mut c = PortClassifier::new("p", vec![(1, 99), (100, 199)]);
        assert_eq!(c.n_outputs(), 3);
        let mk = |port| Packet::ipv4_udp([1, 1, 1, 1], [2, 2, 2, 2], 5, port, b"");
        let batch: Batch = [mk(50), mk(150), mk(5000)].into_iter().collect();
        let out = c.process(batch, &mut ctx());
        assert_eq!(out[0].len(), 1);
        assert_eq!(out[1].len(), 1);
        assert_eq!(out[2].len(), 1);
    }

    #[test]
    fn check_ip_header_drops_garbage() {
        let mut c = CheckIpHeader::new();
        let mut batch = Batch::new();
        batch.push(udp(0));
        batch.push(Packet::from_bytes(vec![0u8; 30])); // not IP
        let mut expired = udp(1);
        let mut ip = expired.ipv4().unwrap();
        ip.ttl = 0;
        ip.compute_checksum();
        expired.set_ipv4(&ip);
        batch.push(expired);
        let out = c.process(batch, &mut ctx());
        assert_eq!(out[0].len(), 1);
    }

    #[test]
    fn dec_ttl_updates_checksum_incrementally() {
        let mut d = DecTtl::new();
        let p = udp(0);
        let before = p.ipv4().unwrap();
        let out = d.process([p].into_iter().collect(), &mut ctx());
        let after = out[0].get(0).unwrap().ipv4().unwrap();
        assert_eq!(after.ttl, before.ttl - 1);
        // Recomputing from scratch must agree with the incremental update.
        let mut check = after;
        check.compute_checksum();
        assert_eq!(check.checksum, after.checksum);
    }

    #[test]
    fn dec_ttl_drops_expiring() {
        let mut d = DecTtl::new();
        let mut p = udp(0);
        let mut ip = p.ipv4().unwrap();
        ip.ttl = 1;
        ip.compute_checksum();
        p.set_ipv4(&ip);
        let out = d.process([p].into_iter().collect(), &mut ctx());
        assert!(out[0].is_empty());
    }

    #[test]
    fn hash_switch_is_flow_sticky() {
        let mut h = HashSwitch::new("h", 4);
        let batch: Batch = (0..16).map(udp).collect();
        let out = h.process(batch, &mut ctx());
        assert_eq!(out.iter().map(Batch::len).sum::<usize>(), 16);
        // Same flow hash -> same port on a second run.
        let batch2: Batch = (0..16).map(udp).collect();
        let out2 = h.process(batch2, &mut ctx());
        for (a, b) in out.iter().zip(&out2) {
            let s1: Vec<u64> = a.iter().map(|p| p.meta.seq).collect();
            let s2: Vec<u64> = b.iter().map(|p| p.meta.seq).collect();
            assert_eq!(s1, s2);
        }
    }

    #[test]
    fn paint_tags_annotation() {
        let mut p = Paint::new("p", 7);
        let out = p.process((0..2).map(udp).collect(), &mut ctx());
        assert!(out[0].iter().all(|pkt| pkt.meta.anno[0] == 7));
    }

    fn mixed_traffic() -> Batch {
        let mut b = Batch::new();
        for i in 0..8u64 {
            let mut p =
                Packet::ipv4_udp([10, 0, 0, i as u8], [8, 8, 8, 8], 1000 + i as u16, 53, b"u");
            p.meta.seq = i;
            b.push(p);
        }
        let mut t = Packet::ipv4_tcp([9, 9, 9, 9], [7, 7, 7, 7], 80, 443, b"t", 1);
        t.meta.seq = 8;
        b.push(t);
        let mut six = Packet::ipv6_udp([1; 16], [2; 16], 53, 5353, b"6");
        six.meta.seq = 9;
        b.push(six);
        let mut junk = Packet::from_bytes(vec![0xEE; 24]);
        junk.meta.seq = 10;
        b.push(junk);
        let mut expiring = Packet::ipv4_udp([4, 4, 4, 4], [5, 5, 5, 5], 1, 2, b"x");
        let mut ip = expiring.ipv4().unwrap();
        ip.ttl = 1;
        ip.compute_checksum();
        expiring.set_ipv4(&ip);
        expiring.meta.seq = 11;
        b.push(expiring);
        b
    }

    fn lanes_ctx() -> RunCtx {
        RunCtx {
            lanes: true,
            ..RunCtx::default()
        }
    }

    #[test]
    fn protocol_classifier_lanes_match_per_packet() {
        let mut scalar = ProtocolClassifier::new("c", vec![ip_proto::UDP]);
        let mut vectored = scalar.clone();
        let a = scalar.process(mixed_traffic(), &mut ctx());
        let b = vectored.process(mixed_traffic(), &mut lanes_ctx());
        assert_eq!(a, b);
    }

    #[test]
    fn dec_ttl_lanes_match_per_packet() {
        let mut scalar = DecTtl::new();
        let mut vectored = DecTtl::new();
        let a = scalar.process(mixed_traffic(), &mut ctx());
        let b = vectored.process(mixed_traffic(), &mut lanes_ctx());
        assert_eq!(a, b);
        // Lane path really decremented and kept checksums valid.
        let after = b[0].get(0).unwrap().ipv4().unwrap();
        let mut check = after;
        check.compute_checksum();
        assert_eq!(check.checksum, after.checksum);
    }

    #[test]
    fn signatures_dedupe_identical_configs_only() {
        let a = ProtocolClassifier::new("x", vec![6]);
        let b = ProtocolClassifier::new("y", vec![6]);
        let c = ProtocolClassifier::new("z", vec![17]);
        assert_eq!(a.signature(), b.signature());
        assert_ne!(a.signature(), c.signature());
    }

    mod lane_proptests {
        use super::*;
        use proptest::prelude::*;

        fn build_batch(rows: &[(u8, u8, u8, u16)]) -> Batch {
            rows.iter()
                .enumerate()
                .map(|(i, &(k, a, ttl, sp))| {
                    let mut p = match k % 4 {
                        0 => Packet::ipv4_udp([10, a, 0, 1], [8, 8, a, 8], sp, 53, b"u"),
                        1 => Packet::ipv4_tcp([9, a, 9, 9], [7, 7, a, 7], sp, 443, b"t", 2),
                        2 => Packet::ipv6_udp([a; 16], [2; 16], sp, 5353, b"6"),
                        _ => Packet::from_bytes(vec![a; 4 + (ttl as usize % 40)]),
                    };
                    if let Ok(mut ip) = p.ipv4() {
                        ip.ttl = ttl;
                        ip.compute_checksum();
                        p.set_ipv4(&ip);
                    }
                    p.meta.seq = i as u64;
                    p.meta.flow_hash = u32::from(a);
                    p
                })
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// DecTtl (checksum-updating SWAR sweep) and
            /// ProtocolClassifier lane sweeps stay bit-identical to their
            /// per-packet paths on arbitrary traffic: ragged sizes,
            /// TTL-expiring packets, rows outside the lane masks.
            #[test]
            fn dec_ttl_and_classifier_lanes_match_scalar(
                rows in collection::vec(
                    (0u8..4, any::<u8>(), any::<u8>(), 1u16..u16::MAX),
                    0..32,
                ),
                protos in collection::vec(any::<u8>(), 1..3),
            ) {
                let batch = build_batch(&rows);
                let mut ttl_s = DecTtl::new();
                let mut ttl_l = DecTtl::new();
                prop_assert_eq!(
                    ttl_s.process(batch.clone(), &mut ctx()),
                    ttl_l.process(batch.clone(), &mut lanes_ctx())
                );
                let mut cl_s = ProtocolClassifier::new("c", protos.clone());
                let mut cl_l = cl_s.clone();
                prop_assert_eq!(
                    cl_s.process(batch.clone(), &mut ctx()),
                    cl_l.process(batch, &mut lanes_ctx())
                );
            }
        }
    }
}
