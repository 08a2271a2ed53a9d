//! Columnar (SoA) header lanes over a [`Batch`].
//!
//! The per-packet accessors ([`Packet::ipv4`](crate::Packet::ipv4), [`Packet::five_tuple`](crate::Packet::five_tuple), …)
//! re-parse Ethernet and IPv4 headers on every call, striding across
//! `Arc`-backed buffers. Header-only elements (ACL classifiers, LPM
//! lookups, load balancers, TTL decrementers, NAT's tuple extraction)
//! only need a handful of fixed-offset fields, so [`HeaderLanes`] gathers
//! them once into contiguous per-field columns that sweep loops can chunk
//! through without touching packet buffers again.
//!
//! # Validity masks
//!
//! Lanes are only meaningful for packets the per-packet parsers would
//! accept, and elements must fall back to the per-packet path for the
//! rest (IPv6 and malformed traffic) to stay bit-identical. Three masks
//! replicate the exact accessor predicates:
//!
//! * [`HeaderLanes::ipv4_mask`] — `Packet::ipv4()` succeeds. Note the
//!   accessor parses at [`Packet::L3_OFFSET`](crate::Packet::L3_OFFSET) *without* consulting the
//!   ethertype, so the mask does the same.
//! * [`HeaderLanes::l3v4_mask`] — `Packet::ip_protocol()` succeeds via
//!   the IPv4 arm (Ethernet parses, ethertype is IPv4, IPv4 parses).
//! * [`HeaderLanes::tuple_mask`] — `Packet::five_tuple()` succeeds with
//!   an IPv4 UDP/TCP tuple (the L4 header is in-bounds too).
//!
//! # Writeback
//!
//! Column mutations are *lazy*: nothing touches a packet until
//! [`HeaderLanes::write_back`] scatters changed fields home. Untouched
//! packets are never written, preserving copy-on-write buffer sharing
//! and [`crate::FlowKey`] memos; changed packets go through
//! [`Packet::data_mut`](crate::Packet::data_mut), which triggers exactly the same CoW clone and
//! memo invalidation as the per-packet setters. The TTL is the one
//! writable column: [`HeaderLanes::set_ttl`] and the wide-word
//! [`HeaderLanes::dec_ttl_ipv4`] rewrite it, and write-back fixes the
//! IPv4 header checksum incrementally (RFC 1624) with the same update
//! the per-packet TTL decrement emits, so the scattered bytes are
//! identical to its bytes. Every other column is read-only; header
//! rewrites such as NAT's go through the per-packet setters.

use crate::headers::ip_proto;
use crate::{checksum, simd, Batch};

/// Byte offset of the Ethernet ethertype field.
const ETHERTYPE: usize = 12;
/// Byte offset of the IPv4 TTL field.
const IP_TTL: usize = 22;
/// Byte offset of the IPv4 protocol field.
const IP_PROTO: usize = 23;
/// Byte offset of the IPv4 header checksum.
const IP_CSUM: usize = 24;
/// Byte offset of the IPv4 source address.
const IP_SRC: usize = 26;
/// Byte offset of the IPv4 destination address.
const IP_DST: usize = 30;
/// Byte offset of the L4 source port (IHL is pinned to 5).
const L4_SPORT: usize = 34;
/// Byte offset of the L4 destination port.
const L4_DPORT: usize = 36;
/// Minimum wire length for a parsable IPv4 header (14 + 20).
const MIN_V4: usize = 34;
/// Minimum wire length for an in-bounds UDP header (34 + 8).
const MIN_V4_UDP: usize = 42;
/// Minimum wire length for an in-bounds TCP header (34 + 20).
const MIN_V4_TCP: usize = 54;

/// A structure-of-arrays view of one batch's IPv4/L4 header fields.
///
/// Built by [`Batch::header_lanes`]. Columns for packets outside the
/// relevant validity mask hold zeros and must not be interpreted.
#[derive(Debug, Clone)]
pub struct HeaderLanes {
    len: usize,
    src_ip: Vec<u32>,
    dst_ip: Vec<u32>,
    src_port: Vec<u16>,
    dst_port: Vec<u16>,
    proto: Vec<u8>,
    ttl: Vec<u8>,
    wire_len: Vec<u32>,
    ipv4: Vec<bool>,
    l3v4: Vec<bool>,
    tuple: Vec<bool>,
    // Packed duplicates of the ipv4/tuple masks (bit i of word i/64 =
    // row i), populated in the same gather pass so the wide-word sweeps
    // ([`crate::simd`]) can slice 8-row chunk masks without re-packing.
    ipv4_bits: Vec<u64>,
    tuple_bits: Vec<u64>,
    // Pre-mutation copy of the TTL column, the one writable column, for
    // dirty detection at writeback. Materialized lazily by the first
    // mutation so the read-only sweep path (shared, memoized views)
    // never pays for it.
    orig_ttl: Vec<u8>,
}

impl HeaderLanes {
    /// Gathers columns from `batch` with one sequential pass of direct
    /// byte loads per packet.
    pub fn gather(batch: &Batch) -> HeaderLanes {
        let n = batch.len();
        let mut lanes = HeaderLanes {
            len: n,
            src_ip: vec![0; n],
            dst_ip: vec![0; n],
            src_port: vec![0; n],
            dst_port: vec![0; n],
            proto: vec![0; n],
            ttl: vec![0; n],
            wire_len: vec![0; n],
            ipv4: vec![false; n],
            l3v4: vec![false; n],
            tuple: vec![false; n],
            ipv4_bits: vec![0; simd::bit_capacity(n)],
            tuple_bits: vec![0; simd::bit_capacity(n)],
            orig_ttl: Vec::new(),
        };
        for (i, pkt) in batch.iter().enumerate() {
            let buf = pkt.data();
            lanes.wire_len[i] = buf.len() as u32;
            if buf.len() < MIN_V4 {
                continue;
            }
            // One wide load covers the ethertype (bytes 12–13) and the
            // IPv4 version/IHL byte (14): ver_ihl == 0x45 is parity with
            // `Packet::ipv4()` (parse at L3_OFFSET, no ethertype check),
            // the 0x0800 compare with the IPv4 arm of
            // `Packet::ip_protocol()`.
            let w = u32::from_be_bytes([
                buf[ETHERTYPE],
                buf[ETHERTYPE + 1],
                buf[ETHERTYPE + 2],
                buf[ETHERTYPE + 3],
            ]);
            if (w >> 8) & 0xFF != 0x45 {
                continue;
            }
            lanes.ipv4[i] = true;
            simd::set_bit(&mut lanes.ipv4_bits, i);
            lanes.src_ip[i] = u32::from_be_bytes([
                buf[IP_SRC],
                buf[IP_SRC + 1],
                buf[IP_SRC + 2],
                buf[IP_SRC + 3],
            ]);
            lanes.dst_ip[i] = u32::from_be_bytes([
                buf[IP_DST],
                buf[IP_DST + 1],
                buf[IP_DST + 2],
                buf[IP_DST + 3],
            ]);
            lanes.proto[i] = buf[IP_PROTO];
            lanes.ttl[i] = buf[IP_TTL];
            let eth_v4 = (w >> 16) == 0x0800;
            lanes.l3v4[i] = eth_v4;
            // Parity with a V4 `Packet::five_tuple()` success: UDP/TCP
            // protocol and the full L4 header in-bounds.
            let l4_ok = match buf[IP_PROTO] {
                ip_proto::UDP => buf.len() >= MIN_V4_UDP,
                ip_proto::TCP => buf.len() >= MIN_V4_TCP,
                _ => false,
            };
            if eth_v4 && l4_ok {
                lanes.tuple[i] = true;
                simd::set_bit(&mut lanes.tuple_bits, i);
                lanes.src_port[i] = u16::from_be_bytes([buf[L4_SPORT], buf[L4_SPORT + 1]]);
                lanes.dst_port[i] = u16::from_be_bytes([buf[L4_DPORT], buf[L4_DPORT + 1]]);
            }
        }
        lanes
    }

    /// Snapshots the TTL column before the first mutation (no-op on
    /// later calls), so writeback can diff against pre-mutation values.
    fn ensure_orig(&mut self) {
        if self.orig_ttl.is_empty() {
            self.orig_ttl = self.ttl.clone();
        }
    }

    /// Number of packets (rows).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the view covers no packets.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Source IPv4 addresses, valid under [`HeaderLanes::ipv4_mask`].
    pub fn src_ip(&self) -> &[u32] {
        &self.src_ip
    }

    /// Destination IPv4 addresses, valid under [`HeaderLanes::ipv4_mask`].
    pub fn dst_ip(&self) -> &[u32] {
        &self.dst_ip
    }

    /// L4 source ports, valid under [`HeaderLanes::tuple_mask`].
    pub fn src_port(&self) -> &[u16] {
        &self.src_port
    }

    /// L4 destination ports, valid under [`HeaderLanes::tuple_mask`].
    pub fn dst_port(&self) -> &[u16] {
        &self.dst_port
    }

    /// IP protocol numbers, valid under [`HeaderLanes::ipv4_mask`].
    pub fn proto(&self) -> &[u8] {
        &self.proto
    }

    /// IPv4 TTLs, valid under [`HeaderLanes::ipv4_mask`].
    pub fn ttl(&self) -> &[u8] {
        &self.ttl
    }

    /// Wire length of each packet (always valid).
    pub fn wire_len(&self) -> &[u32] {
        &self.wire_len
    }

    /// Rows where `Packet::ipv4()` succeeds.
    pub fn ipv4_mask(&self) -> &[bool] {
        &self.ipv4
    }

    /// Rows where `Packet::ip_protocol()` succeeds via its IPv4 arm.
    pub fn l3v4_mask(&self) -> &[bool] {
        &self.l3v4
    }

    /// Rows where `Packet::five_tuple()` yields an IPv4 UDP/TCP tuple.
    pub fn tuple_mask(&self) -> &[bool] {
        &self.tuple
    }

    /// Packed form of [`HeaderLanes::ipv4_mask`] (bit `i` of word
    /// `i / 64` = row `i`), for the wide-word sweeps in [`crate::simd`].
    pub fn ipv4_bits(&self) -> &[u64] {
        &self.ipv4_bits
    }

    /// Packed form of [`HeaderLanes::tuple_mask`].
    pub fn tuple_bits(&self) -> &[u64] {
        &self.tuple_bits
    }

    /// Wide-word TTL sweep over all IPv4 rows at once
    /// ([`simd::dec_ttl_swar`]): rows with TTL ≥ 2 are decremented in
    /// the column (scattered home with checksum fixup by
    /// [`HeaderLanes::write_back`]) and set in the returned packed
    /// keep-bits; IPv4 rows with TTL 0/1 stay untouched and unset
    /// (expired), non-IPv4 rows stay untouched and unset (caller
    /// fallback). Bit-identical to looping `set_ttl(i, ttl - 1)` over
    /// the IPv4 mask.
    pub fn dec_ttl_ipv4(&mut self) -> Vec<u64> {
        self.ensure_orig();
        simd::dec_ttl_swar(&mut self.ttl, &self.ipv4_bits)
    }

    /// Rewrites the TTL column for row `i`.
    pub fn set_ttl(&mut self, i: usize, v: u8) {
        self.ensure_orig();
        self.ttl[i] = v;
    }

    /// Scatters the TTL column back into `batch`, fixing the IPv4 header
    /// checksum incrementally.
    ///
    /// Packets whose TTL is unchanged are never touched: their buffers
    /// stay shared and their flow-key memos survive. Changed packets take
    /// one [`Packet::data_mut`](crate::Packet::data_mut) (CoW clone + memo
    /// invalidation, exactly like the per-packet setters).
    ///
    /// # Panics
    ///
    /// Panics if `batch` does not have exactly as many packets as the
    /// view was gathered from.
    pub fn write_back(self, batch: &mut Batch) {
        assert_eq!(
            batch.len(),
            self.len,
            "write_back on a batch of different size"
        );
        if self.orig_ttl.is_empty() {
            return; // no column was ever mutated: strict no-op
        }
        for i in 0..self.len {
            if !self.ipv4[i] || self.ttl[i] == self.orig_ttl[i] {
                continue;
            }
            let buf = batch.get_mut(i).expect("length checked above").data_mut();
            let old = u16::from_be_bytes([self.orig_ttl[i], self.proto[i]]);
            let new = u16::from_be_bytes([self.ttl[i], self.proto[i]]);
            let c = checksum::update16(
                u16::from_be_bytes([buf[IP_CSUM], buf[IP_CSUM + 1]]),
                old,
                new,
            );
            buf[IP_CSUM..IP_CSUM + 2].copy_from_slice(&c.to_be_bytes());
            buf[IP_TTL] = self.ttl[i];
        }
    }
}

impl Batch {
    /// Gathers a columnar [`HeaderLanes`] view of this batch (see the
    /// [`crate::lanes`] module docs for masks and writeback semantics).
    pub fn header_lanes(&self) -> HeaderLanes {
        match self.cached_lanes() {
            Some(l) => (**l).clone(),
            None => HeaderLanes::gather(self),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{headers::ip_proto, Packet};

    fn mixed_batch() -> Batch {
        let mut b = Batch::new();
        b.push(Packet::ipv4_udp(
            [10, 0, 0, 1],
            [10, 0, 0, 2],
            1111,
            53,
            b"u",
        ));
        b.push(Packet::ipv4_tcp(
            [192, 168, 1, 9],
            [172, 16, 0, 1],
            40000,
            443,
            b"t",
            7,
        ));
        b.push(Packet::ipv6_udp([1; 16], [2; 16], 5353, 53, b"six"));
        b.push(Packet::from_bytes(vec![0u8; 10]));
        // IPv4 but ESP: parses as IPv4, no UDP/TCP tuple.
        let mut esp = Packet::ipv4_udp([10, 0, 0, 3], [10, 0, 0, 4], 1, 2, b"e");
        let mut ip = esp.ipv4().unwrap();
        ip.protocol = ip_proto::ESP;
        esp.set_ipv4(&ip);
        b.push(esp);
        b
    }

    #[test]
    fn masks_match_per_packet_parsers() {
        let batch = mixed_batch();
        let lanes = batch.header_lanes();
        for (i, p) in batch.iter().enumerate() {
            assert_eq!(lanes.ipv4_mask()[i], p.ipv4().is_ok(), "ipv4 mask row {i}");
            let l3v4 = matches!(p.ethernet().map(|e| e.ethertype), Ok(et)
                if et == crate::headers::EtherType::Ipv4)
                && p.ipv4().is_ok();
            assert_eq!(lanes.l3v4_mask()[i], l3v4, "l3v4 mask row {i}");
            let tuple_v4 = p
                .five_tuple()
                .map(|t| matches!(t.src, std::net::IpAddr::V4(_)))
                .unwrap_or(false);
            assert_eq!(lanes.tuple_mask()[i], tuple_v4, "tuple mask row {i}");
        }
    }

    #[test]
    fn gather_matches_accessors() {
        let batch = mixed_batch();
        let lanes = batch.header_lanes();
        for (i, p) in batch.iter().enumerate() {
            assert_eq!(lanes.wire_len()[i] as usize, p.len());
            if lanes.ipv4_mask()[i] {
                let ip = p.ipv4().unwrap();
                assert_eq!(lanes.src_ip()[i], ip.src_u32());
                assert_eq!(lanes.dst_ip()[i], ip.dst_u32());
                assert_eq!(lanes.proto()[i], ip.protocol);
                assert_eq!(lanes.ttl()[i], ip.ttl);
            }
            if lanes.tuple_mask()[i] {
                let t = p.five_tuple().unwrap();
                assert_eq!(lanes.src_port()[i], t.src_port);
                assert_eq!(lanes.dst_port()[i], t.dst_port);
            }
        }
    }

    #[test]
    fn untouched_writeback_preserves_sharing_and_memos() {
        let mut batch = mixed_batch();
        // Memoize flow keys and clone to create shared buffers.
        for p in batch.iter_mut() {
            let _ = p.flow_key();
        }
        let shadow = batch.clone();
        let lanes = batch.header_lanes();
        lanes.write_back(&mut batch);
        for (i, (p, s)) in batch.iter().zip(shadow.iter()).enumerate() {
            assert!(p.shares_buffer(s), "row {i} buffer was cloned needlessly");
            assert_eq!(p.cached_flow_key().is_some(), s.cached_flow_key().is_some());
        }
    }

    #[test]
    fn ttl_writeback_matches_per_packet_path() {
        let mut via_lanes = mixed_batch();
        let mut via_pkts = mixed_batch();
        let mut lanes = via_lanes.header_lanes();
        for i in 0..lanes.len() {
            if lanes.ipv4_mask()[i] {
                let t = lanes.ttl()[i];
                lanes.set_ttl(i, t.wrapping_sub(1));
            }
        }
        lanes.write_back(&mut via_lanes);
        for p in via_pkts.iter_mut() {
            if let Ok(mut ip) = p.ipv4() {
                let old = u16::from_be_bytes([ip.ttl, ip.protocol]);
                ip.ttl = ip.ttl.wrapping_sub(1);
                let new = u16::from_be_bytes([ip.ttl, ip.protocol]);
                ip.checksum = checksum::update16(ip.checksum, old, new);
                p.set_ipv4(&ip);
            }
        }
        assert_eq!(via_lanes, via_pkts);
    }

    #[test]
    fn swar_ttl_sweep_matches_scalar_lane_path() {
        let mut via_swar = mixed_batch();
        let mut via_scalar = mixed_batch();
        let mut lanes_a = via_swar.header_lanes();
        let keep = lanes_a.dec_ttl_ipv4();
        let mut lanes_b = via_scalar.header_lanes();
        let mut keep_ref = vec![0u64; crate::simd::bit_capacity(lanes_b.len())];
        for i in 0..lanes_b.len() {
            if lanes_b.ipv4_mask()[i] && lanes_b.ttl()[i] >= 2 {
                let t = lanes_b.ttl()[i];
                lanes_b.set_ttl(i, t - 1);
                crate::simd::set_bit(&mut keep_ref, i);
            }
        }
        assert_eq!(keep, keep_ref);
        lanes_a.write_back(&mut via_swar);
        lanes_b.write_back(&mut via_scalar);
        assert_eq!(via_swar, via_scalar);
    }

    #[test]
    fn packed_bits_mirror_bool_masks() {
        let batch = mixed_batch();
        let lanes = batch.header_lanes();
        for i in 0..lanes.len() {
            assert_eq!(
                crate::simd::get_bit(lanes.ipv4_bits(), i),
                lanes.ipv4_mask()[i],
                "ipv4 bit {i}"
            );
            assert_eq!(
                crate::simd::get_bit(lanes.tuple_bits(), i),
                lanes.tuple_mask()[i],
                "tuple bit {i}"
            );
        }
    }

    #[test]
    fn writeback_invalidates_memo_only_on_changed_rows() {
        let mut batch = mixed_batch();
        for p in batch.iter_mut() {
            let _ = p.flow_key();
        }
        let mut lanes = batch.header_lanes();
        // Change only row 0 (IPv4/UDP).
        lanes.set_ttl(0, 9);
        lanes.write_back(&mut batch);
        assert!(batch.get(0).unwrap().cached_flow_key().is_none());
        assert!(batch.get(1).unwrap().cached_flow_key().is_some());
        let ip = batch.get(0).unwrap().ipv4().unwrap();
        assert_eq!(ip.ttl, 9);
        let mut copy = ip;
        assert_eq!(copy.compute_checksum(), ip.checksum);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// One random packet: v4 UDP, v4 TCP, v6 UDP, raw junk, or v4
        /// with a tuple-less protocol (ESP).
        fn build_packet(kind: u8, a: u8, b: u8, sp: u16, dp: u16) -> Packet {
            match kind % 5 {
                0 => Packet::ipv4_udp([10, a, b, 1], [172, 16, a, b], sp, dp, b"udp payload"),
                1 => Packet::ipv4_tcp([10, a, 1, b], [192, 168, a, b], sp, dp, b"tcp", 0x10),
                2 => {
                    let mut src = [0u8; 16];
                    let mut dst = [0u8; 16];
                    src[0] = 0x20;
                    src[15] = a;
                    dst[0] = 0x20;
                    dst[15] = b;
                    Packet::ipv6_udp(src, dst, sp, dp, b"six")
                }
                3 => Packet::from_bytes(vec![a; 4 + (b as usize % 40)]),
                _ => {
                    let mut p = Packet::ipv4_udp([10, a, b, 2], [172, 16, b, a], sp, dp, b"esp");
                    let mut ip = p.ipv4().unwrap();
                    ip.protocol = ip_proto::ESP;
                    ip.compute_checksum();
                    p.set_ipv4(&ip);
                    p
                }
            }
        }

        fn build_batch(rows: &[(u8, u8, u8, u16, u16)]) -> Batch {
            rows.iter()
                .map(|&(k, a, b, sp, dp)| build_packet(k, a, b, sp, dp))
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Gather → write_back with no mutation is a strict no-op:
            /// bytes, buffer sharing and flow-key memos all survive, for
            /// any mix of packet kinds, memoized rows and CoW clones.
            #[test]
            fn untouched_roundtrip_is_identity(
                rows in collection::vec(
                    (0u8..5, any::<u8>(), any::<u8>(), 1u16..u16::MAX, 1u16..u16::MAX),
                    0..24,
                ),
                memo_seed in any::<u64>(),
            ) {
                let mut batch = build_batch(&rows);
                for (i, p) in batch.iter_mut().enumerate() {
                    if memo_seed >> (i % 64) & 1 == 1 {
                        let _ = p.flow_key();
                    }
                }
                let shadow = batch.clone();
                let lanes = batch.header_lanes();
                lanes.write_back(&mut batch);
                prop_assert_eq!(&batch, &shadow);
                for (p, s) in batch.iter().zip(shadow.iter()) {
                    prop_assert!(p.shares_buffer(s));
                    prop_assert_eq!(
                        p.cached_flow_key().is_some(),
                        s.cached_flow_key().is_some()
                    );
                }
            }

            /// Gather → mutate → scatter: after arbitrary per-row TTL
            /// rewrites through the lanes, every packet re-parses to the
            /// mutated value, the IPv4 header checksum still verifies,
            /// memos survive exactly on untouched rows, and untouched
            /// rows never pay a CoW clone.
            #[test]
            fn mutated_scatter_matches_per_packet_parsers(
                rows in collection::vec(
                    (0u8..5, any::<u8>(), any::<u8>(), 1u16..u16::MAX, 1u16..u16::MAX),
                    1..24,
                ),
                touch_seed in any::<u64>(),
                new_ttl in 1u8..255,
            ) {
                let mut batch = build_batch(&rows);
                for p in batch.iter_mut() {
                    let _ = p.flow_key();
                }
                let shadow = batch.clone();
                let mut lanes = batch.header_lanes();
                let mut touched = vec![false; lanes.len()];
                for (i, touch) in touched.iter_mut().enumerate() {
                    if touch_seed >> (i % 64) & 1 == 0 {
                        continue;
                    }
                    if lanes.ipv4_mask()[i] {
                        // Writing the TTL a row already has changes
                        // nothing, so that row counts as untouched.
                        *touch = lanes.ttl()[i] != new_ttl;
                        lanes.set_ttl(i, new_ttl);
                    }
                }
                let ipv4_mask = lanes.ipv4_mask().to_vec();
                lanes.write_back(&mut batch);
                for (i, (p, s)) in batch.iter().zip(shadow.iter()).enumerate() {
                    if !touched[i] {
                        prop_assert!(p.shares_buffer(s), "row {} cloned needlessly", i);
                        // Memo state unchanged (tuple-less packets never
                        // had one to keep).
                        prop_assert_eq!(
                            p.cached_flow_key().is_some(),
                            s.cached_flow_key().is_some()
                        );
                        continue;
                    }
                    // Mutated rows: memo dropped, checksum verifies,
                    // parsers see the lane values.
                    prop_assert!(p.cached_flow_key().is_none());
                    prop_assert!(ipv4_mask[i]);
                    let ip = p.ipv4().unwrap();
                    let mut copy = ip;
                    prop_assert_eq!(copy.compute_checksum(), ip.checksum);
                    prop_assert_eq!(ip.ttl, new_ttl);
                }
            }
        }
    }
}
