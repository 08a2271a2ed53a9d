//! Owned packet buffers with header accessors.

use crate::checksum;
use crate::flow::{FiveTuple, FlowKey};
use crate::headers::{ip_proto, EtherType, Ethernet, Ipv4, Ipv6, MacAddr, Tcp, Udp};
use crate::{PacketError, Result};
use std::sync::Arc;

/// Per-packet metadata carried alongside the wire bytes.
///
/// This plays the role of Click's packet annotations: sequence numbers for
/// order preservation (the `GPUCompletionQueue` design from Snap releases a
/// batch only once every packet is done), the arrival timestamp used for
/// latency accounting, and a small annotation area NF elements may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PacketMeta {
    /// Monotonic sequence number assigned at generation/RX time.
    pub seq: u64,
    /// Arrival time at the NIC, in simulated nanoseconds.
    pub arrival_ns: u64,
    /// RSS-style flow hash, filled in by the I/O path.
    pub flow_hash: u32,
    /// Input NIC port.
    pub port_in: u16,
    /// General-purpose annotation slots (Click paint/annotation analogue).
    pub anno: [u64; 2],
}

/// An owned, mutable network packet with a copy-on-write buffer.
///
/// The byte buffer is authoritative; header accessors parse on demand and
/// `set_*` methods re-emit into the buffer. Packets generated by this crate
/// always carry Ethernet + IPv4/IPv6 + UDP/TCP with no options or extension
/// headers, which matches the traffic the paper evaluates.
///
/// The buffer is `Arc`-backed: [`Packet::clone`] is a refcount bump, so
/// duplicating a batch across re-organized SFC branches costs O(1) per
/// packet, and the first mutation through any `set_*`/`*_mut` accessor
/// copies the bytes out ([`Arc::make_mut`]). Read-only branches
/// therefore never copy payloads at all.
///
/// # Example
///
/// ```
/// use nfc_packet::Packet;
///
/// let pkt = Packet::ipv4_udp([10, 0, 0, 1], [10, 0, 0, 2], 5000, 53, &[1, 2, 3]);
/// assert_eq!(pkt.ipv4().unwrap().dst, [10, 0, 0, 2]);
/// assert_eq!(pkt.l4_payload().unwrap(), &[1, 2, 3]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Packet {
    buf: Arc<Vec<u8>>,
    /// Metadata annotations (public: compound passive data in the C spirit).
    pub meta: PacketMeta,
    /// Lazily computed 5-tuple key; invalidated on every buffer write.
    flow_memo: Option<FlowKey>,
}

/// Equality compares wire bytes and metadata only: the flow-key memo is a
/// cache of the bytes, so two packets differing only in whether the memo
/// has been computed are the same packet.
impl PartialEq for Packet {
    fn eq(&self, other: &Self) -> bool {
        self.buf == other.buf && self.meta == other.meta
    }
}

impl Eq for Packet {}

impl Packet {
    /// Wraps raw wire bytes.
    pub fn from_bytes(buf: Vec<u8>) -> Self {
        Packet {
            buf: Arc::new(buf),
            meta: PacketMeta::default(),
            flow_memo: None,
        }
    }

    /// The copy-on-write escape hatch: exclusive access to the bytes,
    /// copying them out first if any other packet still shares them.
    ///
    /// Every mutator funnels through here, so this is also where the
    /// flow-key memo is invalidated: any write could change the 5-tuple.
    fn buf_mut(&mut self) -> &mut Vec<u8> {
        self.flow_memo = None;
        Arc::make_mut(&mut self.buf)
    }

    /// True when both packets still share one underlying buffer (i.e.
    /// neither side has written since the clone).
    pub fn shares_buffer(&self, other: &Packet) -> bool {
        Arc::ptr_eq(&self.buf, &other.buf)
    }

    /// Number of packets currently sharing this buffer.
    pub fn buffer_refcount(&self) -> usize {
        Arc::strong_count(&self.buf)
    }

    /// Builds an Ethernet/IPv4/UDP packet with the given payload.
    ///
    /// IPv4 and UDP checksums are computed; MAC addresses are locally
    /// administered placeholders rewritten by forwarding elements.
    pub fn ipv4_udp(src: [u8; 4], dst: [u8; 4], sport: u16, dport: u16, payload: &[u8]) -> Self {
        Self::build_v4(src, dst, sport, dport, ip_proto::UDP, payload, 0)
    }

    /// Builds an Ethernet/IPv4/TCP packet with the given payload and flags.
    pub fn ipv4_tcp(
        src: [u8; 4],
        dst: [u8; 4],
        sport: u16,
        dport: u16,
        payload: &[u8],
        flags: u8,
    ) -> Self {
        Self::build_v4(src, dst, sport, dport, ip_proto::TCP, payload, flags)
    }

    fn build_v4(
        src: [u8; 4],
        dst: [u8; 4],
        sport: u16,
        dport: u16,
        proto: u8,
        payload: &[u8],
        tcp_flags: u8,
    ) -> Self {
        let l4_len = if proto == ip_proto::TCP {
            Tcp::LEN
        } else {
            Udp::LEN
        };
        let total = Ethernet::LEN + Ipv4::LEN + l4_len + payload.len();
        let mut buf = vec![0u8; total];
        Ethernet {
            dst: MacAddr([0x02, 0, 0, 0, 0, 2]),
            src: MacAddr([0x02, 0, 0, 0, 0, 1]),
            ethertype: EtherType::Ipv4,
        }
        .emit(&mut buf);
        let mut ip = Ipv4 {
            dscp_ecn: 0,
            total_len: (Ipv4::LEN + l4_len + payload.len()) as u16,
            ident: 0,
            flags_frag: 0x4000,
            ttl: 64,
            protocol: proto,
            checksum: 0,
            src,
            dst,
        };
        ip.compute_checksum();
        ip.emit(&mut buf[Ethernet::LEN..]);
        let l4_off = Ethernet::LEN + Ipv4::LEN;
        buf[l4_off + l4_len..].copy_from_slice(payload);
        let ph = checksum::pseudo_header_v4(src, dst, proto, (l4_len + payload.len()) as u16);
        if proto == ip_proto::TCP {
            let mut tcp = Tcp {
                src_port: sport,
                dst_port: dport,
                seq: 0,
                ack: 0,
                flags: tcp_flags,
                window: 65535,
                checksum: 0,
                urgent: 0,
            };
            tcp.emit(&mut buf[l4_off..]);
            let c = !checksum::fold(checksum::sum(&buf[l4_off..], ph));
            tcp.checksum = c;
            tcp.emit(&mut buf[l4_off..]);
        } else {
            let mut udp = Udp {
                src_port: sport,
                dst_port: dport,
                len: (Udp::LEN + payload.len()) as u16,
                checksum: 0,
            };
            udp.emit(&mut buf[l4_off..]);
            let c = !checksum::fold(checksum::sum(&buf[l4_off..], ph));
            udp.checksum = if c == 0 { 0xFFFF } else { c };
            udp.emit(&mut buf[l4_off..]);
        }
        Packet::from_bytes(buf)
    }

    /// Builds an Ethernet/IPv6/UDP packet with the given payload.
    pub fn ipv6_udp(src: [u8; 16], dst: [u8; 16], sport: u16, dport: u16, payload: &[u8]) -> Self {
        let total = Ethernet::LEN + Ipv6::LEN + Udp::LEN + payload.len();
        let mut buf = vec![0u8; total];
        Ethernet {
            dst: MacAddr([0x02, 0, 0, 0, 0, 2]),
            src: MacAddr([0x02, 0, 0, 0, 0, 1]),
            ethertype: EtherType::Ipv6,
        }
        .emit(&mut buf);
        let l4_plus = (Udp::LEN + payload.len()) as u16;
        Ipv6 {
            traffic_class: 0,
            flow_label: 0,
            payload_len: l4_plus,
            next_header: ip_proto::UDP,
            hop_limit: 64,
            src,
            dst,
        }
        .emit(&mut buf[Ethernet::LEN..]);
        let l4_off = Ethernet::LEN + Ipv6::LEN;
        buf[l4_off + Udp::LEN..].copy_from_slice(payload);
        let mut udp = Udp {
            src_port: sport,
            dst_port: dport,
            len: l4_plus,
            checksum: 0,
        };
        udp.emit(&mut buf[l4_off..]);
        let ph = checksum::pseudo_header_v6(src, dst, ip_proto::UDP, u32::from(l4_plus));
        let c = !checksum::fold(checksum::sum(&buf[l4_off..], ph));
        udp.checksum = if c == 0 { 0xFFFF } else { c };
        udp.emit(&mut buf[l4_off..]);
        Packet::from_bytes(buf)
    }

    /// Total wire length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns true if the packet holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Raw bytes.
    pub fn data(&self) -> &[u8] {
        &self.buf
    }

    /// Mutable raw bytes (copies out of a shared buffer first).
    pub fn data_mut(&mut self) -> &mut [u8] {
        self.buf_mut()
    }

    /// Parses the Ethernet header.
    ///
    /// # Errors
    ///
    /// Propagates parse errors from [`Ethernet::parse`].
    pub fn ethernet(&self) -> Result<Ethernet> {
        Ethernet::parse(&self.buf)
    }

    /// Rewrites the Ethernet header.
    pub fn set_ethernet(&mut self, eth: &Ethernet) {
        eth.emit(self.buf_mut());
    }

    /// Offset of the L3 header.
    pub const L3_OFFSET: usize = Ethernet::LEN;

    /// True if the EtherType says IPv4.
    pub fn is_ipv4(&self) -> bool {
        matches!(self.ethernet().map(|e| e.ethertype), Ok(EtherType::Ipv4))
    }

    /// True if the EtherType says IPv6.
    pub fn is_ipv6(&self) -> bool {
        matches!(self.ethernet().map(|e| e.ethertype), Ok(EtherType::Ipv6))
    }

    /// Parses the IPv4 header.
    ///
    /// # Errors
    ///
    /// Fails if the packet is not IPv4 or is truncated.
    pub fn ipv4(&self) -> Result<Ipv4> {
        Ipv4::parse(&self.buf[Self::L3_OFFSET.min(self.buf.len())..])
    }

    /// Rewrites the IPv4 header (caller keeps the checksum consistent, e.g.
    /// via [`Ipv4::compute_checksum`] or [`crate::checksum::update32`]).
    pub fn set_ipv4(&mut self, ip: &Ipv4) {
        ip.emit(&mut self.buf_mut()[Self::L3_OFFSET..]);
    }

    /// Parses the IPv6 header.
    ///
    /// # Errors
    ///
    /// Fails if the packet is not IPv6 or is truncated.
    pub fn ipv6(&self) -> Result<Ipv6> {
        Ipv6::parse(&self.buf[Self::L3_OFFSET.min(self.buf.len())..])
    }

    /// Rewrites the IPv6 header.
    pub fn set_ipv6(&mut self, ip: &Ipv6) {
        ip.emit(&mut self.buf_mut()[Self::L3_OFFSET..]);
    }

    /// Offset of the L4 header, determined by the IP version.
    ///
    /// # Errors
    ///
    /// Fails on non-IP packets.
    pub fn l4_offset(&self) -> Result<usize> {
        match self.ethernet()?.ethertype {
            EtherType::Ipv4 => Ok(Self::L3_OFFSET + Ipv4::LEN),
            EtherType::Ipv6 => Ok(Self::L3_OFFSET + Ipv6::LEN),
            EtherType::Other(v) => Err(PacketError::InvalidField {
                field: "ethertype",
                value: u64::from(v),
            }),
        }
    }

    /// The IP protocol / next-header value.
    ///
    /// # Errors
    ///
    /// Fails on non-IP packets.
    pub fn ip_protocol(&self) -> Result<u8> {
        match self.ethernet()?.ethertype {
            EtherType::Ipv4 => Ok(self.ipv4()?.protocol),
            EtherType::Ipv6 => Ok(self.ipv6()?.next_header),
            EtherType::Other(v) => Err(PacketError::InvalidField {
                field: "ethertype",
                value: u64::from(v),
            }),
        }
    }

    /// Parses the UDP header.
    ///
    /// # Errors
    ///
    /// Fails if the packet does not carry UDP.
    pub fn udp(&self) -> Result<Udp> {
        if self.ip_protocol()? != ip_proto::UDP {
            return Err(PacketError::InvalidField {
                field: "ip.protocol",
                value: u64::from(self.ip_protocol()?),
            });
        }
        Udp::parse(&self.buf[self.l4_offset()?..])
    }

    /// Rewrites the UDP header.
    ///
    /// # Errors
    ///
    /// Fails on non-IP packets.
    pub fn set_udp(&mut self, udp: &Udp) -> Result<()> {
        let off = self.l4_offset()?;
        udp.emit(&mut self.buf_mut()[off..]);
        Ok(())
    }

    /// Parses the TCP header.
    ///
    /// # Errors
    ///
    /// Fails if the packet does not carry TCP.
    pub fn tcp(&self) -> Result<Tcp> {
        if self.ip_protocol()? != ip_proto::TCP {
            return Err(PacketError::InvalidField {
                field: "ip.protocol",
                value: u64::from(self.ip_protocol()?),
            });
        }
        Tcp::parse(&self.buf[self.l4_offset()?..])
    }

    /// Rewrites the TCP header.
    ///
    /// # Errors
    ///
    /// Fails on non-IP packets.
    pub fn set_tcp(&mut self, tcp: &Tcp) -> Result<()> {
        let off = self.l4_offset()?;
        tcp.emit(&mut self.buf_mut()[off..]);
        Ok(())
    }

    /// Byte offset where the L4 payload begins.
    ///
    /// # Errors
    ///
    /// Fails on non-IP or non-UDP/TCP packets.
    pub fn l4_payload_offset(&self) -> Result<usize> {
        let l4 = self.l4_offset()?;
        match self.ip_protocol()? {
            ip_proto::UDP => Ok(l4 + Udp::LEN),
            ip_proto::TCP => Ok(l4 + Tcp::LEN),
            ip_proto::ESP => Ok(l4),
            other => Err(PacketError::InvalidField {
                field: "ip.protocol",
                value: u64::from(other),
            }),
        }
    }

    /// The application payload bytes.
    ///
    /// # Errors
    ///
    /// Fails on non-IP or non-UDP/TCP packets.
    pub fn l4_payload(&self) -> Result<&[u8]> {
        let off = self.l4_payload_offset()?;
        Ok(&self.buf[off.min(self.buf.len())..])
    }

    /// Mutable application payload bytes.
    ///
    /// # Errors
    ///
    /// Fails on non-IP or non-UDP/TCP packets.
    pub fn l4_payload_mut(&mut self) -> Result<&mut [u8]> {
        let off = self.l4_payload_offset()?;
        let len = self.buf.len();
        Ok(&mut self.buf_mut()[off.min(len)..])
    }

    /// The refusal checks shared by [`Packet::replace_l4_payload`] and
    /// [`Packet::rewrite_l4_payload`], made before either writes a byte:
    /// the frame must hold its whole L4 header (a frame cut inside it has
    /// no payload slot to replace) and the resized frame's IP length must
    /// fit its 16-bit field. Returns the payload offset and that length.
    fn l4_resize(&self, new_len: usize) -> Result<(usize, u16)> {
        let off = self.l4_payload_offset()?;
        if off > self.buf.len() {
            return Err(PacketError::Truncated {
                what: "l4 header",
                needed: off,
                available: self.buf.len(),
            });
        }
        // IPv4 counts its own header in `total_len`; IPv6's `payload_len`
        // starts after it.
        let counted_from = if self.is_ipv4() {
            Self::L3_OFFSET
        } else {
            Self::L3_OFFSET + Ipv6::LEN
        };
        let ip_len = off - counted_from + new_len;
        let ip_len = u16::try_from(ip_len).map_err(|_| PacketError::InvalidField {
            field: "ip.total_len",
            value: ip_len as u64,
        })?;
        Ok((off, ip_len))
    }

    /// Writes `ip_len` into the IP length field — IPv4 `total_len`, with
    /// the header checksum recomputed, or IPv6 `payload_len` — of a frame
    /// that passed [`Packet::l4_resize`], whose IP header therefore parses.
    fn set_ip_len(&mut self, ip_len: u16) -> Result<()> {
        if self.is_ipv4() {
            let mut ip = self.ipv4()?;
            ip.total_len = ip_len;
            ip.compute_checksum();
            self.set_ipv4(&ip);
        } else {
            let mut ip = self.ipv6()?;
            ip.payload_len = ip_len;
            self.set_ipv6(&ip);
        }
        Ok(())
    }

    /// Replaces the L4 payload, growing or shrinking the packet, and fixes
    /// the IP length fields (checksums are the caller's responsibility,
    /// matching how IPsec encapsulation rewrites packets).
    ///
    /// # Errors
    ///
    /// Fails, leaving the packet untouched, on non-IP or non-UDP/TCP
    /// packets, on a frame cut inside its L4 header, and when the resized
    /// frame would exceed 65 535 bytes of IP length.
    pub fn replace_l4_payload(&mut self, new_payload: &[u8]) -> Result<()> {
        let (off, ip_len) = self.l4_resize(new_payload.len())?;
        let buf = self.buf_mut();
        buf.truncate(off);
        buf.extend_from_slice(new_payload);
        self.set_ip_len(ip_len)
    }

    /// [`Packet::replace_l4_payload`] for a payload computed from the old
    /// one: `fill(old_payload, new_payload)` writes the `new_len` new
    /// bytes (handed over zeroed) straight into the packet's next buffer,
    /// which is allocated once at its final size with the headers copied
    /// in front. Packets sharing the old buffer keep it, unmodified; an
    /// encapsulating element therefore never copies a shared frame just
    /// to overwrite most of it.
    ///
    /// # Errors
    ///
    /// Fails exactly when [`Packet::replace_l4_payload`] does; `fill` is
    /// then never called and the packet is untouched.
    pub fn rewrite_l4_payload(
        &mut self,
        new_len: usize,
        fill: impl FnOnce(&[u8], &mut [u8]),
    ) -> Result<()> {
        let (off, ip_len) = self.l4_resize(new_len)?;
        let mut frame = Vec::with_capacity(off + new_len);
        frame.extend_from_slice(&self.buf[..off]);
        frame.resize(off + new_len, 0);
        fill(&self.buf[off..], &mut frame[off..]);
        match Arc::get_mut(&mut self.buf) {
            Some(own) => *own = frame,
            None => self.buf = Arc::new(frame),
        }
        self.set_ip_len(ip_len)
    }

    /// Extracts the 5-tuple flow key.
    ///
    /// # Errors
    ///
    /// Fails on non-IP or non-UDP/TCP packets.
    pub fn five_tuple(&self) -> Result<FiveTuple> {
        FiveTuple::of(self)
    }

    /// The memoized [`FlowKey`]: parsed and hashed on first call, then
    /// served from the memo until a buffer write invalidates it (all
    /// mutators funnel through the copy-on-write accessor). Cloned packets
    /// inherit a still-valid memo — their bytes are shared.
    ///
    /// # Errors
    ///
    /// Fails on non-IP or non-UDP/TCP packets.
    pub fn flow_key(&mut self) -> Result<FlowKey> {
        if let Some(k) = self.flow_memo {
            return Ok(k);
        }
        let k = FlowKey::of(self)?;
        self.flow_memo = Some(k);
        Ok(k)
    }

    /// Stores `key` as the flow-key memo; it must equal
    /// [`FlowKey::of`] on this packet.
    pub(crate) fn memoize_flow_key(&mut self, key: FlowKey) {
        self.flow_memo = Some(key);
    }

    /// The flow-key memo, if currently valid (no write since computation).
    pub fn cached_flow_key(&self) -> Option<FlowKey> {
        self.flow_memo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipv4_udp_construction_is_consistent() {
        let pkt = Packet::ipv4_udp([10, 0, 0, 1], [10, 0, 0, 2], 1111, 2222, &[0xAA; 18]);
        let ip = pkt.ipv4().unwrap();
        assert_eq!(ip.total_len as usize, pkt.len() - Ethernet::LEN);
        // Header checksum verifies: summing the header must give 0xFFFF.
        let hdr = &pkt.data()[Ethernet::LEN..Ethernet::LEN + Ipv4::LEN];
        assert_eq!(crate::checksum::fold(crate::checksum::sum(hdr, 0)), 0xFFFF);
        let udp = pkt.udp().unwrap();
        assert_eq!(udp.len as usize, Udp::LEN + 18);
        assert_eq!(pkt.l4_payload().unwrap(), &[0xAA; 18]);
    }

    #[test]
    fn udp_checksum_validates() {
        let pkt = Packet::ipv4_udp([1, 2, 3, 4], [5, 6, 7, 8], 42, 4242, b"hello world");
        let ip = pkt.ipv4().unwrap();
        let l4 = pkt.l4_offset().unwrap();
        let ph = checksum::pseudo_header_v4(ip.src, ip.dst, ip_proto::UDP, (pkt.len() - l4) as u16);
        // Including the transmitted checksum, the sum must fold to 0xFFFF.
        assert_eq!(checksum::fold(checksum::sum(&pkt.data()[l4..], ph)), 0xFFFF);
    }

    #[test]
    fn tcp_packet_flags() {
        let pkt = Packet::ipv4_tcp([1, 1, 1, 1], [2, 2, 2, 2], 80, 8080, b"x", 0x12);
        assert_eq!(pkt.tcp().unwrap().flags, 0x12);
        assert!(pkt.udp().is_err());
    }

    #[test]
    fn ipv6_udp_construction() {
        let pkt = Packet::ipv6_udp([1; 16], [2; 16], 10, 20, &[1, 2, 3, 4]);
        assert!(pkt.is_ipv6());
        let ip6 = pkt.ipv6().unwrap();
        assert_eq!(ip6.payload_len as usize, Udp::LEN + 4);
        assert_eq!(pkt.l4_payload().unwrap(), &[1, 2, 3, 4]);
    }

    #[test]
    fn replace_payload_fixes_lengths() {
        let mut pkt = Packet::ipv4_udp([1, 2, 3, 4], [5, 6, 7, 8], 1, 2, &[0u8; 10]);
        pkt.replace_l4_payload(&[7u8; 100]).unwrap();
        let ip = pkt.ipv4().unwrap();
        assert_eq!(ip.total_len as usize, Ipv4::LEN + Udp::LEN + 100);
        assert_eq!(pkt.l4_payload().unwrap().len(), 100);
        // Header checksum still verifies after the rewrite.
        let hdr = &pkt.data()[Ethernet::LEN..Ethernet::LEN + Ipv4::LEN];
        assert_eq!(crate::checksum::fold(crate::checksum::sum(hdr, 0)), 0xFFFF);
    }

    /// One frame per header stack the rewriters accept, plus one they
    /// refuse: IPv4 and IPv6, UDP and TCP (the IPv6/TCP frame is a UDP
    /// one relabelled, which moves its payload offset), and ARP.
    fn frame(kind: usize, payload: &[u8]) -> Packet {
        match kind % 5 {
            0 => Packet::ipv4_udp([1, 2, 3, 4], [5, 6, 7, 8], 1, 2, payload),
            1 => Packet::ipv4_tcp([1, 2, 3, 4], [5, 6, 7, 8], 1, 2, payload, 0x10),
            2 => Packet::ipv6_udp([1; 16], [2; 16], 1, 2, payload),
            3 => {
                let mut p = Packet::ipv6_udp([1; 16], [2; 16], 1, 2, payload);
                p.data_mut()[Packet::L3_OFFSET + 6] = ip_proto::TCP;
                p
            }
            _ => {
                let mut buf = vec![0u8; 60];
                buf[12..14].copy_from_slice(&[0x08, 0x06]);
                Packet::from_bytes(buf)
            }
        }
    }

    #[test]
    fn payload_rewriters_refuse_a_frame_cut_inside_its_l4_header() {
        for kind in 0..4 {
            let whole = frame(kind, &[0xAB; 32]);
            let off = whole.l4_payload_offset().unwrap();
            let mut cut = Packet::from_bytes(whole.data()[..off - 3].to_vec());
            let before = cut.clone();
            let refused = PacketError::Truncated {
                what: "l4 header",
                needed: off,
                available: off - 3,
            };
            assert_eq!(cut.replace_l4_payload(&[7; 40]), Err(refused.clone()));
            let filled = cut.rewrite_l4_payload(40, |_, _| panic!("nothing to fill"));
            assert_eq!(filled, Err(refused));
            // Nothing was written: same bytes, still the sibling's buffer.
            assert_eq!(cut, before);
            assert!(cut.shares_buffer(&before));
        }
    }

    #[test]
    fn payload_rewriters_refuse_an_ip_length_past_16_bits() {
        for kind in 0..4 {
            let mut pkt = frame(kind, &[0xAB; 32]);
            let before = pkt.clone();
            let hdrs = pkt.l4_payload_offset().unwrap() - Packet::L3_OFFSET;
            let counted = if pkt.is_ipv4() {
                hdrs
            } else {
                hdrs - Ipv6::LEN
            };
            // The largest payload that fits, then one byte more.
            let fits = usize::from(u16::MAX) - counted;
            pkt.replace_l4_payload(&vec![1; fits]).unwrap();
            pkt.rewrite_l4_payload(fits, |_, new| new.fill(2)).unwrap();
            assert_eq!(pkt.len(), Packet::L3_OFFSET + hdrs + fits);
            let mut pkt = before.clone();
            let refused = PacketError::InvalidField {
                field: "ip.total_len",
                value: u64::from(u16::MAX) + 1,
            };
            let too_long = vec![1; fits + 1];
            assert_eq!(pkt.replace_l4_payload(&too_long), Err(refused.clone()));
            let filled = pkt.rewrite_l4_payload(fits + 1, |_, _| panic!("nothing to fill"));
            assert_eq!(filled, Err(refused));
            assert_eq!(pkt, before);
            assert!(pkt.shares_buffer(&before));
        }
    }

    #[test]
    fn rewrite_l4_payload_sees_the_old_payload_and_a_zeroed_slot() {
        let mut pkt = Packet::ipv6_udp([1; 16], [2; 16], 10, 20, b"abcdef");
        pkt.rewrite_l4_payload(4, |old, new| {
            assert_eq!(old, b"abcdef");
            assert_eq!(new, [0; 4]);
            new.copy_from_slice(&old[2..]);
        })
        .unwrap();
        assert_eq!(pkt.l4_payload().unwrap(), b"cdef");
        assert_eq!(pkt.ipv6().unwrap().payload_len as usize, Udp::LEN + 4);
    }

    mod rewrite_proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// `rewrite_l4_payload` is `replace_l4_payload` minus the
            /// copies: same bytes, same `Result`, same memo, and a CoW
            /// sibling that keeps the old bytes and is let go of exactly
            /// when the call succeeds.
            #[test]
            fn rewrite_equals_replace(
                kind in 0usize..5,
                old in collection::vec(any::<u8>(), 0..96),
                new in collection::vec(any::<u8>(), 0..192),
                // Most frames whole, the rest cut anywhere, headers included.
                cut in (0u8..3, 0usize..200),
                memo in any::<bool>(),
            ) {
                let whole = frame(kind, &old);
                let keep = match cut {
                    (0, at) => at.min(whole.len()),
                    _ => whole.len(),
                };
                let mut sibling = Packet::from_bytes(whole.data()[..keep].to_vec());
                if memo {
                    let _ = sibling.flow_key();
                }
                let (mut replaced, mut rewritten) = (sibling.clone(), sibling.clone());

                let want = replaced.replace_l4_payload(&new);
                let got = rewritten.rewrite_l4_payload(new.len(), |was, slot| {
                    assert_eq!(was, &sibling.data()[sibling.len() - was.len()..]);
                    slot.copy_from_slice(&new);
                });
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(rewritten.data(), replaced.data());
                prop_assert_eq!(rewritten.cached_flow_key(), replaced.cached_flow_key());
                for side in [&replaced, &rewritten] {
                    prop_assert_eq!(side.shares_buffer(&sibling), want.is_err());
                }
                prop_assert_eq!(sibling.data(), &whole.data()[..keep]);
                if want.is_ok() {
                    prop_assert_eq!(rewritten.l4_payload().unwrap(), &new[..]);
                }
            }
        }
    }

    #[test]
    fn clone_shares_until_first_write() {
        let a = Packet::ipv4_udp([1, 2, 3, 4], [5, 6, 7, 8], 1, 2, &[9u8; 64]);
        let mut b = a.clone();
        assert!(a.shares_buffer(&b));
        assert_eq!(a.buffer_refcount(), 2);
        // A write through any mutable accessor breaks sharing...
        b.data_mut()[0] ^= 0xFF;
        assert!(!a.shares_buffer(&b));
        assert_eq!(a.buffer_refcount(), 1);
        // ...and never leaks into the original.
        assert_eq!(a.data()[0], b.data()[0] ^ 0xFF);
        assert_eq!(&a.data()[1..], &b.data()[1..]);
    }

    #[test]
    fn flow_key_is_memoized_until_header_write() {
        let mut pkt = Packet::ipv4_udp([10, 0, 0, 1], [10, 0, 0, 2], 1111, 53, b"q");
        assert!(pkt.cached_flow_key().is_none());
        let k = pkt.flow_key().unwrap();
        assert_eq!(pkt.cached_flow_key(), Some(k));
        assert_eq!(k.tuple(), &pkt.five_tuple().unwrap());
        // Metadata writes do not touch the buffer: memo stays valid.
        pkt.meta.anno[0] = 99;
        assert_eq!(pkt.cached_flow_key(), Some(k));
        // A header rewrite invalidates the memo...
        let mut ip = pkt.ipv4().unwrap();
        ip.dst = [192, 168, 0, 1];
        ip.compute_checksum();
        pkt.set_ipv4(&ip);
        assert!(pkt.cached_flow_key().is_none());
        // ...and recomputation observes the new tuple.
        let k2 = pkt.flow_key().unwrap();
        assert_ne!(k, k2);
        assert_eq!(k2.tuple().dst, std::net::IpAddr::from([192, 168, 0, 1]));
    }

    #[test]
    fn flow_memo_survives_clone_and_is_ignored_by_eq() {
        let mut a = Packet::ipv4_tcp([1, 1, 1, 1], [2, 2, 2, 2], 5, 80, b"x", 0);
        let plain = a.clone();
        let key = a.flow_key().unwrap();
        // The memo is a cache, not part of packet identity.
        assert_eq!(a, plain);
        // Clones share bytes, so the memo stays valid on the clone...
        let mut b = a.clone();
        assert_eq!(b.cached_flow_key(), Some(key));
        // ...and a write on the clone invalidates only the clone's memo.
        b.data_mut()[0] ^= 1;
        assert!(b.cached_flow_key().is_none());
        assert_eq!(a.cached_flow_key(), Some(key));
    }

    #[test]
    fn non_ip_packet_errors() {
        let mut buf = vec![0u8; 60];
        buf[12] = 0x08;
        buf[13] = 0x06; // ARP
        let pkt = Packet::from_bytes(buf);
        assert!(pkt.l4_offset().is_err());
        assert!(pkt.five_tuple().is_err());
    }
}
