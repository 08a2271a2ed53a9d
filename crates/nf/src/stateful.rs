//! Stateful packet processing: TCP stream reassembly, streaming IDS and
//! traffic shaping.
//!
//! The paper's §III-B1b identifies *re-organization caused by stateful
//! processing* as an aggregated SFC overhead: "the stateful processing
//! ensures the in-order processing of packet in the same connection. To
//! guarantee the stateful processing, the incoming packets are buffered
//! and then offloaded ... Such buffering-based approach requires a large
//! amount of memory budget and may significantly increase the latency of
//! traffics." This module provides that substrate:
//!
//! * [`StreamReassembly`] — per-flow TCP sequence-number buffering that
//!   releases packets in order and reports its buffer occupancy (the
//!   memory-budget overhead the paper measures).
//! * [`StreamIds`] — an IDS that carries Aho–Corasick automaton state
//!   *across* packets of a flow, catching signatures split over packet
//!   boundaries (what a per-packet matcher misses).
//! * [`TokenBucketShaper`] — a rate limiter occupying the `Shaper`
//!   traffic class (the class the synthesizer must never move
//!   classifiers across).

use crate::ac::AhoCorasick;
use nfc_click::element::{
    Element, ElementActions, ElementClass, ElementSignature, KernelClass, Offload, RunCtx,
    WorkProfile,
};
use nfc_packet::{Batch, FiveTuple, Packet};
use std::collections::HashMap;
use std::sync::Arc;

/// Per-flow reassembly state.
#[derive(Debug, Clone, Default)]
struct FlowState {
    /// Next expected TCP sequence number (None until the first packet).
    next_seq: Option<u32>,
    /// Out-of-order packets keyed by sequence number.
    pending: HashMap<u32, Packet>,
}

/// TCP stream reassembly: buffers out-of-order segments per flow and
/// releases them in sequence-number order. Non-TCP packets pass through
/// untouched. Flows are keyed by the 5-tuple.
///
/// The element is [`ElementClass::Stateful`]; its buffer occupancy is the
/// "memory budget" overhead of §III-B1b and is exported via
/// [`StreamReassembly::buffered`].
#[derive(Debug, Clone, Default)]
pub struct StreamReassembly {
    flows: HashMap<FiveTuple, FlowState>,
    buffered: usize,
    max_buffered: usize,
    released: u64,
}

impl StreamReassembly {
    /// Creates an empty reassembler.
    pub fn new() -> Self {
        StreamReassembly::default()
    }

    /// Segments currently buffered (out of order).
    pub fn buffered(&self) -> usize {
        self.buffered
    }

    /// High-water mark of buffered segments.
    pub fn max_buffered(&self) -> usize {
        self.max_buffered
    }

    /// Packets released in order so far.
    pub fn released(&self) -> u64 {
        self.released
    }

    /// Active flows being tracked.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    fn payload_len(p: &Packet) -> u32 {
        p.l4_payload().map(|pl| pl.len() as u32).unwrap_or(0)
    }
}

impl Element for StreamReassembly {
    fn name(&self) -> &str {
        "stream-reassembly"
    }

    fn class(&self) -> ElementClass {
        ElementClass::Stateful
    }

    fn actions(&self) -> ElementActions {
        ElementActions::read_header()
    }

    fn process(&mut self, batch: Batch, _ctx: &mut RunCtx) -> Vec<Batch> {
        let mut out = Batch::with_capacity(batch.len());
        for pkt in batch {
            let Ok(tcp) = pkt.tcp() else {
                out.push(pkt); // non-TCP passes through
                continue;
            };
            let Ok(tuple) = pkt.five_tuple() else {
                out.push(pkt);
                continue;
            };
            let state = self.flows.entry(tuple).or_default();
            let expected = *state.next_seq.get_or_insert(tcp.seq);
            if tcp.seq == expected {
                // In order: release it and any consecutive pending ones.
                let mut next = expected.wrapping_add(Self::payload_len(&pkt).max(1));
                self.released += 1;
                out.push(pkt);
                while let Some(p) = state.pending.remove(&next) {
                    self.buffered -= 1;
                    next = next.wrapping_add(Self::payload_len(&p).max(1));
                    self.released += 1;
                    out.push(p);
                }
                state.next_seq = Some(next);
            } else if tcp.seq.wrapping_sub(expected) < u32::MAX / 2 {
                // Future segment: buffer it.
                if state.pending.insert(tcp.seq, pkt).is_none() {
                    self.buffered += 1;
                    self.max_buffered = self.max_buffered.max(self.buffered);
                }
            }
            // Past (duplicate/retransmitted) segments are dropped.
        }
        vec![out]
    }

    fn signature(&self) -> ElementSignature {
        ElementSignature::new("stream-reassembly", 0)
    }

    fn work(&self) -> WorkProfile {
        // Flow-table probe plus occasional buffer churn.
        WorkProfile::per_packet(90.0)
    }

    fn state_bytes(&self) -> usize {
        // Per-flow bookkeeping plus the wire bytes of buffered
        // out-of-order segments (the dominant term under reordering).
        let buffered_bytes: usize = self
            .flows
            .values()
            .flat_map(|f| f.pending.values())
            .map(|p| p.len())
            .sum();
        self.flows.len() * 48 + buffered_bytes
    }
}

/// A streaming IDS: Aho–Corasick state is carried across the packets of
/// each flow, so signatures split across packet boundaries still match.
/// Requires in-order input (place it after [`StreamReassembly`]).
#[derive(Debug, Clone)]
pub struct StreamIds {
    ac: Arc<AhoCorasick>,
    states: HashMap<FiveTuple, u32>,
    alerts: u64,
    cfg: u64,
}

impl StreamIds {
    /// Creates the streaming matcher.
    pub fn new(ac: Arc<AhoCorasick>, cfg: u64) -> Self {
        StreamIds {
            ac,
            states: HashMap::new(),
            alerts: 0,
            cfg,
        }
    }

    /// Cross-packet alerts raised so far.
    pub fn alerts(&self) -> u64 {
        self.alerts
    }

    /// Flows with live automaton state.
    pub fn flow_count(&self) -> usize {
        self.states.len()
    }
}

impl Element for StreamIds {
    fn name(&self) -> &str {
        "stream-ids"
    }

    fn class(&self) -> ElementClass {
        ElementClass::Stateful
    }

    fn actions(&self) -> ElementActions {
        ElementActions::read_all().with_drop()
    }

    fn offload(&self) -> Offload {
        Offload::Offloadable {
            kernel: KernelClass::PatternMatch,
        }
    }

    fn process(&mut self, mut batch: Batch, _ctx: &mut RunCtx) -> Vec<Batch> {
        let mut keep = Vec::with_capacity(batch.len());
        let mut alerts = 0u64;
        for pkt in batch.iter() {
            let (matched, tuple) = match (pkt.l4_payload(), pkt.five_tuple()) {
                (Ok(payload), Ok(tuple)) => {
                    let state = self.states.get(&tuple).copied().unwrap_or(0);
                    let mut hits = Vec::new();
                    let next = self.ac.scan_streaming(state, payload, &mut hits);
                    self.states.insert(tuple, next);
                    (!hits.is_empty(), Some(tuple))
                }
                _ => (false, None),
            };
            if matched {
                alerts += 1;
                if let Some(t) = tuple {
                    // Reset the flow state once flagged.
                    self.states.remove(&t);
                }
            }
            keep.push(!matched);
        }
        self.alerts += alerts;
        let mut i = 0;
        batch.retain(|_| {
            let k = keep[i];
            i += 1;
            k
        });
        vec![batch]
    }

    fn signature(&self) -> ElementSignature {
        ElementSignature::new("stream-ids", self.cfg)
    }

    fn work(&self) -> WorkProfile {
        WorkProfile::new(140.0, 9.0)
    }

    fn state_bytes(&self) -> usize {
        // One automaton state per live flow (key + u32 + map overhead).
        self.states.len() * 24
    }
}

/// A token-bucket traffic shaper ([`ElementClass::Shaper`]): passes
/// packets while tokens last, drops the excess. Tokens refill with
/// simulated time (from [`RunCtx::now_ns`]).
#[derive(Debug, Clone)]
pub struct TokenBucketShaper {
    rate_bytes_per_sec: f64,
    burst_bytes: f64,
    tokens: f64,
    last_ns: u64,
    dropped: u64,
}

impl TokenBucketShaper {
    /// Creates a shaper with the given sustained rate and burst size.
    pub fn new(rate_bytes_per_sec: f64, burst_bytes: f64) -> Self {
        TokenBucketShaper {
            rate_bytes_per_sec,
            burst_bytes,
            tokens: burst_bytes,
            last_ns: 0,
            dropped: 0,
        }
    }

    /// Packets dropped for exceeding the rate.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Element for TokenBucketShaper {
    fn name(&self) -> &str {
        "token-bucket"
    }

    fn class(&self) -> ElementClass {
        ElementClass::Shaper
    }

    fn actions(&self) -> ElementActions {
        ElementActions::read_header().with_drop()
    }

    fn process(&mut self, mut batch: Batch, ctx: &mut RunCtx) -> Vec<Batch> {
        let dt_s = ctx.now_ns.saturating_sub(self.last_ns) as f64 / 1e9;
        self.last_ns = ctx.now_ns;
        self.tokens = (self.tokens + dt_s * self.rate_bytes_per_sec).min(self.burst_bytes);
        let mut dropped = 0u64;
        let mut keep = Vec::with_capacity(batch.len());
        for p in batch.iter() {
            let need = p.len() as f64;
            if self.tokens >= need {
                self.tokens -= need;
                keep.push(true);
            } else {
                dropped += 1;
                keep.push(false);
            }
        }
        self.dropped += dropped;
        let mut i = 0;
        batch.retain(|_| {
            let k = keep[i];
            i += 1;
            k
        });
        vec![batch]
    }

    fn signature(&self) -> ElementSignature {
        ElementSignature::new(
            "token-bucket",
            (self.rate_bytes_per_sec as u64) ^ ((self.burst_bytes as u64) << 20),
        )
    }

    fn work(&self) -> WorkProfile {
        WorkProfile::per_packet(15.0)
    }

    fn state_bytes(&self) -> usize {
        // Bucket level + refill timestamp.
        16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfc_packet::headers::tcp_flags;

    fn ctx() -> RunCtx {
        RunCtx::default()
    }

    fn tcp_pkt(seq_no: u32, payload: &[u8]) -> Packet {
        let mut p = Packet::ipv4_tcp(
            [1, 1, 1, 1],
            [2, 2, 2, 2],
            1000,
            80,
            payload,
            tcp_flags::ACK,
        );
        let mut t = p.tcp().expect("tcp");
        t.seq = seq_no;
        p.set_tcp(&t).expect("set");
        p
    }

    #[test]
    fn in_order_stream_passes_straight_through() {
        let mut r = StreamReassembly::new();
        let batch: Batch = [tcp_pkt(0, b"aaaa"), tcp_pkt(4, b"bbbb"), tcp_pkt(8, b"cc")]
            .into_iter()
            .collect();
        let out = r.process(batch, &mut ctx()).pop().expect("one port");
        assert_eq!(out.len(), 3);
        assert_eq!(r.buffered(), 0);
        assert_eq!(r.released(), 3);
    }

    #[test]
    fn out_of_order_segments_are_reordered() {
        let mut r = StreamReassembly::new();
        // Arrive 0, 8, 4 -> release 0, then buffer 8, then 4 releases 4+8.
        let b1: Batch = [tcp_pkt(0, b"aaaa")].into_iter().collect();
        let out1 = r.process(b1, &mut ctx()).pop().expect("port");
        assert_eq!(out1.len(), 1);
        let b2: Batch = [tcp_pkt(8, b"cccc")].into_iter().collect();
        let out2 = r.process(b2, &mut ctx()).pop().expect("port");
        assert_eq!(out2.len(), 0);
        assert_eq!(r.buffered(), 1);
        let b3: Batch = [tcp_pkt(4, b"bbbb")].into_iter().collect();
        let out3 = r.process(b3, &mut ctx()).pop().expect("port");
        assert_eq!(out3.len(), 2);
        assert_eq!(r.buffered(), 0);
        let seqs: Vec<u32> = out3.iter().map(|p| p.tcp().unwrap().seq).collect();
        assert_eq!(seqs, vec![4, 8]);
        assert_eq!(r.max_buffered(), 1);
    }

    #[test]
    fn duplicate_segments_are_dropped() {
        let mut r = StreamReassembly::new();
        let b: Batch = [tcp_pkt(0, b"aaaa"), tcp_pkt(0, b"aaaa")]
            .into_iter()
            .collect();
        let out = r.process(b, &mut ctx()).pop().expect("port");
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn flows_are_independent() {
        let mut r = StreamReassembly::new();
        let mut other = tcp_pkt(100, b"xx");
        // different flow: change source port
        let mut t = other.tcp().unwrap();
        t.src_port = 2000;
        other.set_tcp(&t).unwrap();
        let b: Batch = [tcp_pkt(0, b"aa"), other].into_iter().collect();
        let out = r.process(b, &mut ctx()).pop().expect("port");
        assert_eq!(out.len(), 2);
        assert_eq!(r.flow_count(), 2);
    }

    #[test]
    fn non_tcp_passes_through() {
        let mut r = StreamReassembly::new();
        let udp = Packet::ipv4_udp([1, 1, 1, 1], [2, 2, 2, 2], 5, 6, b"u");
        let out = r
            .process([udp].into_iter().collect(), &mut ctx())
            .pop()
            .expect("port");
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn stream_ids_catches_split_signatures() {
        let ac = Arc::new(AhoCorasick::new(["SPLIT_SIGNATURE"]));
        let mut per_packet = crate::elements::IdsMatch::new(
            ac.clone(),
            Arc::new(Vec::new()),
            crate::elements::IdsMode::Drop,
            1,
        );
        let mut streaming = StreamIds::new(ac, 1);
        // Signature split across two in-order TCP segments.
        let part1 = tcp_pkt(0, b"xxxxSPLIT_SI");
        let part2 = tcp_pkt(12, b"GNATUREyyyy");
        let batch = || -> Batch { [part1.clone(), part2.clone()].into_iter().collect() };
        // Per-packet matcher misses it entirely.
        let out = per_packet.process(batch(), &mut ctx()).pop().expect("port");
        assert_eq!(
            out.len(),
            2,
            "per-packet IDS cannot see the split signature"
        );
        // Streaming matcher drops the completing segment.
        let out = streaming.process(batch(), &mut ctx()).pop().expect("port");
        assert_eq!(out.len(), 1);
        assert_eq!(streaming.alerts(), 1);
    }

    #[test]
    fn stream_ids_tracks_flows_separately() {
        let ac = Arc::new(AhoCorasick::new(["EVIL"]));
        let mut ids = StreamIds::new(ac, 2);
        // Flow A sends "EV", flow B sends "IL": no match on either.
        let a = tcp_pkt(0, b"EV");
        let mut b = tcp_pkt(0, b"IL");
        let mut t = b.tcp().unwrap();
        t.src_port = 9999;
        b.set_tcp(&t).unwrap();
        let out = ids
            .process([a, b].into_iter().collect(), &mut ctx())
            .pop()
            .expect("port");
        assert_eq!(out.len(), 2);
        assert_eq!(ids.alerts(), 0);
        assert_eq!(ids.flow_count(), 2);
    }

    #[test]
    fn token_bucket_enforces_rate() {
        // 1000 bytes/s, burst 200 bytes; 64 B packets.
        let mut shaper = TokenBucketShaper::new(1000.0, 200.0);
        let mk = || Packet::ipv4_udp([1, 1, 1, 1], [2, 2, 2, 2], 1, 2, &[0u8; 22]); // 64 B
        let mut ctx0 = RunCtx {
            now_ns: 0,
            ..RunCtx::default()
        };
        // Burst allows 3 packets (192 B), 4th dropped.
        let batch: Batch = (0..4).map(|_| mk()).collect();
        let out = shaper.process(batch, &mut ctx0).pop().expect("port");
        assert_eq!(out.len(), 3);
        assert_eq!(shaper.dropped(), 1);
        // One second later: 1000 bytes of new tokens -> capped at burst
        // 200 -> 3 more packets.
        let mut ctx1 = RunCtx {
            now_ns: 1_000_000_000,
            ..RunCtx::default()
        };
        let out = shaper
            .process((0..5).map(|_| mk()).collect(), &mut ctx1)
            .pop()
            .expect("port");
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn shaper_class_blocks_synthesizer_hoisting() {
        assert_eq!(
            TokenBucketShaper::new(1.0, 1.0).class(),
            ElementClass::Shaper
        );
    }
}
