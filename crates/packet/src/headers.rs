//! Wire-format protocol headers: Ethernet, IPv4, IPv6, UDP, TCP.
//!
//! Headers are plain structs decoded from / encoded to big-endian byte
//! slices. The decoded form is the working representation used by NF code;
//! [`Packet`](crate::Packet) keeps the raw bytes authoritative and re-emits
//! headers after mutation.

use crate::{PacketError, Result};

/// A 48-bit IEEE 802 MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xFF; 6]);
}

impl std::fmt::Display for MacAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let o = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            o[0], o[1], o[2], o[3], o[4], o[5]
        )
    }
}

impl From<u64> for MacAddr {
    fn from(v: u64) -> Self {
        let b = v.to_be_bytes();
        MacAddr([b[2], b[3], b[4], b[5], b[6], b[7]])
    }
}

/// EtherType values used in this reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// IPv4 (0x0800).
    Ipv4,
    /// IPv6 (0x86DD).
    Ipv6,
    /// Anything else, carried verbatim.
    Other(u16),
}

impl EtherType {
    /// Wire value.
    pub fn value(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Ipv6 => 0x86DD,
            EtherType::Other(v) => v,
        }
    }

    /// Decodes a wire value.
    pub fn from_value(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            0x86DD => EtherType::Ipv6,
            other => EtherType::Other(other),
        }
    }
}

/// Ethernet II header (14 bytes, no VLAN tag support needed by the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ethernet {
    /// Destination MAC.
    pub dst: MacAddr,
    /// Source MAC.
    pub src: MacAddr,
    /// EtherType of the payload.
    pub ethertype: EtherType,
}

impl Ethernet {
    /// Encoded length in bytes.
    pub const LEN: usize = 14;

    /// Parses an Ethernet header from the front of `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`PacketError::Truncated`] if `buf` is shorter than 14 bytes.
    pub fn parse(buf: &[u8]) -> Result<Self> {
        if buf.len() < Self::LEN {
            return Err(PacketError::Truncated {
                what: "ethernet",
                needed: Self::LEN,
                available: buf.len(),
            });
        }
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        dst.copy_from_slice(&buf[0..6]);
        src.copy_from_slice(&buf[6..12]);
        Ok(Ethernet {
            dst: MacAddr(dst),
            src: MacAddr(src),
            ethertype: EtherType::from_value(u16::from_be_bytes([buf[12], buf[13]])),
        })
    }

    /// Writes the header into the front of `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than 14 bytes.
    pub fn emit(&self, buf: &mut [u8]) {
        buf[0..6].copy_from_slice(&self.dst.0);
        buf[6..12].copy_from_slice(&self.src.0);
        buf[12..14].copy_from_slice(&self.ethertype.value().to_be_bytes());
    }
}

/// IP protocol numbers used in this reproduction.
pub mod ip_proto {
    /// TCP.
    pub const TCP: u8 = 6;
    /// UDP.
    pub const UDP: u8 = 17;
    /// IPsec Encapsulating Security Payload.
    pub const ESP: u8 = 50;
}

/// IPv4 header (20 bytes; options are not generated by our traffic sources).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4 {
    /// Differentiated services + ECN byte.
    pub dscp_ecn: u8,
    /// Total length including header.
    pub total_len: u16,
    /// Identification field.
    pub ident: u16,
    /// Flags (3 bits) + fragment offset (13 bits).
    pub flags_frag: u16,
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol.
    pub protocol: u8,
    /// Header checksum as read from / to be written to the wire.
    pub checksum: u16,
    /// Source address.
    pub src: [u8; 4],
    /// Destination address.
    pub dst: [u8; 4],
}

impl Ipv4 {
    /// Encoded length in bytes (no options).
    pub const LEN: usize = 20;

    /// Parses an IPv4 header.
    ///
    /// # Errors
    ///
    /// Returns [`PacketError::Truncated`] on short input and
    /// [`PacketError::InvalidField`] if the version nibble is not 4 or the
    /// IHL indicates options (unsupported by our generators).
    pub fn parse(buf: &[u8]) -> Result<Self> {
        if buf.len() < Self::LEN {
            return Err(PacketError::Truncated {
                what: "ipv4",
                needed: Self::LEN,
                available: buf.len(),
            });
        }
        let ver_ihl = buf[0];
        if ver_ihl >> 4 != 4 {
            return Err(PacketError::InvalidField {
                field: "ipv4.version",
                value: u64::from(ver_ihl >> 4),
            });
        }
        if ver_ihl & 0x0F != 5 {
            return Err(PacketError::InvalidField {
                field: "ipv4.ihl",
                value: u64::from(ver_ihl & 0x0F),
            });
        }
        Ok(Ipv4 {
            dscp_ecn: buf[1],
            total_len: u16::from_be_bytes([buf[2], buf[3]]),
            ident: u16::from_be_bytes([buf[4], buf[5]]),
            flags_frag: u16::from_be_bytes([buf[6], buf[7]]),
            ttl: buf[8],
            protocol: buf[9],
            checksum: u16::from_be_bytes([buf[10], buf[11]]),
            src: [buf[12], buf[13], buf[14], buf[15]],
            dst: [buf[16], buf[17], buf[18], buf[19]],
        })
    }

    /// Writes the header into `buf`, using the stored [`Ipv4::checksum`].
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than 20 bytes.
    pub fn emit(&self, buf: &mut [u8]) {
        buf[0] = 0x45;
        buf[1] = self.dscp_ecn;
        buf[2..4].copy_from_slice(&self.total_len.to_be_bytes());
        buf[4..6].copy_from_slice(&self.ident.to_be_bytes());
        buf[6..8].copy_from_slice(&self.flags_frag.to_be_bytes());
        buf[8] = self.ttl;
        buf[9] = self.protocol;
        buf[10..12].copy_from_slice(&self.checksum.to_be_bytes());
        buf[12..16].copy_from_slice(&self.src);
        buf[16..20].copy_from_slice(&self.dst);
    }

    /// Recomputes [`Ipv4::checksum`] from the other fields and returns it.
    pub fn compute_checksum(&mut self) -> u16 {
        let mut tmp = [0u8; Self::LEN];
        let saved = self.checksum;
        self.checksum = 0;
        self.emit(&mut tmp);
        self.checksum = saved;
        let c = crate::checksum::checksum(&tmp);
        self.checksum = c;
        c
    }

    /// Source address as a `u32` in host order (for LPM lookups).
    pub fn src_u32(&self) -> u32 {
        u32::from_be_bytes(self.src)
    }

    /// Destination address as a `u32` in host order (for LPM lookups).
    pub fn dst_u32(&self) -> u32 {
        u32::from_be_bytes(self.dst)
    }
}

/// IPv6 header (40 bytes, no extension headers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv6 {
    /// Traffic class.
    pub traffic_class: u8,
    /// Flow label (20 bits).
    pub flow_label: u32,
    /// Payload length (excluding the 40-byte header).
    pub payload_len: u16,
    /// Next header (protocol).
    pub next_header: u8,
    /// Hop limit.
    pub hop_limit: u8,
    /// Source address.
    pub src: [u8; 16],
    /// Destination address.
    pub dst: [u8; 16],
}

impl Ipv6 {
    /// Encoded length in bytes.
    pub const LEN: usize = 40;

    /// Parses an IPv6 header.
    ///
    /// # Errors
    ///
    /// Returns [`PacketError::Truncated`] on short input and
    /// [`PacketError::InvalidField`] if the version nibble is not 6.
    pub fn parse(buf: &[u8]) -> Result<Self> {
        if buf.len() < Self::LEN {
            return Err(PacketError::Truncated {
                what: "ipv6",
                needed: Self::LEN,
                available: buf.len(),
            });
        }
        if buf[0] >> 4 != 6 {
            return Err(PacketError::InvalidField {
                field: "ipv6.version",
                value: u64::from(buf[0] >> 4),
            });
        }
        let mut src = [0u8; 16];
        let mut dst = [0u8; 16];
        src.copy_from_slice(&buf[8..24]);
        dst.copy_from_slice(&buf[24..40]);
        Ok(Ipv6 {
            traffic_class: (buf[0] << 4) | (buf[1] >> 4),
            flow_label: (u32::from(buf[1] & 0x0F) << 16)
                | (u32::from(buf[2]) << 8)
                | u32::from(buf[3]),
            payload_len: u16::from_be_bytes([buf[4], buf[5]]),
            next_header: buf[6],
            hop_limit: buf[7],
            src,
            dst,
        })
    }

    /// Writes the header into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than 40 bytes.
    pub fn emit(&self, buf: &mut [u8]) {
        buf[0] = 0x60 | (self.traffic_class >> 4);
        buf[1] = (self.traffic_class << 4) | ((self.flow_label >> 16) as u8 & 0x0F);
        buf[2] = (self.flow_label >> 8) as u8;
        buf[3] = self.flow_label as u8;
        buf[4..6].copy_from_slice(&self.payload_len.to_be_bytes());
        buf[6] = self.next_header;
        buf[7] = self.hop_limit;
        buf[8..24].copy_from_slice(&self.src);
        buf[24..40].copy_from_slice(&self.dst);
    }

    /// Destination address as a `u128` in host order (for longest-prefix
    /// match / binary-search lookups).
    pub fn dst_u128(&self) -> u128 {
        u128::from_be_bytes(self.dst)
    }
}

/// UDP header (8 bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Udp {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Length of UDP header plus payload.
    pub len: u16,
    /// Checksum (0 = not computed, legal for IPv4).
    pub checksum: u16,
}

impl Udp {
    /// Encoded length in bytes.
    pub const LEN: usize = 8;

    /// Parses a UDP header.
    ///
    /// # Errors
    ///
    /// Returns [`PacketError::Truncated`] on short input.
    pub fn parse(buf: &[u8]) -> Result<Self> {
        if buf.len() < Self::LEN {
            return Err(PacketError::Truncated {
                what: "udp",
                needed: Self::LEN,
                available: buf.len(),
            });
        }
        Ok(Udp {
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
            len: u16::from_be_bytes([buf[4], buf[5]]),
            checksum: u16::from_be_bytes([buf[6], buf[7]]),
        })
    }

    /// Writes the header into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than 8 bytes.
    pub fn emit(&self, buf: &mut [u8]) {
        buf[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        buf[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        buf[4..6].copy_from_slice(&self.len.to_be_bytes());
        buf[6..8].copy_from_slice(&self.checksum.to_be_bytes());
    }
}

/// TCP header (20 bytes, options not generated).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tcp {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number.
    pub ack: u32,
    /// Flags byte (CWR..FIN).
    pub flags: u8,
    /// Receive window.
    pub window: u16,
    /// Checksum.
    pub checksum: u16,
    /// Urgent pointer.
    pub urgent: u16,
}

/// TCP flag bit constants.
pub mod tcp_flags {
    /// FIN.
    pub const FIN: u8 = 0x01;
    /// SYN.
    pub const SYN: u8 = 0x02;
    /// RST.
    pub const RST: u8 = 0x04;
    /// PSH.
    pub const PSH: u8 = 0x08;
    /// ACK.
    pub const ACK: u8 = 0x10;
}

impl Tcp {
    /// Encoded length in bytes (data offset 5).
    pub const LEN: usize = 20;

    /// Parses a TCP header.
    ///
    /// # Errors
    ///
    /// Returns [`PacketError::Truncated`] on short input.
    pub fn parse(buf: &[u8]) -> Result<Self> {
        if buf.len() < Self::LEN {
            return Err(PacketError::Truncated {
                what: "tcp",
                needed: Self::LEN,
                available: buf.len(),
            });
        }
        Ok(Tcp {
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
            seq: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
            ack: u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]),
            flags: buf[13],
            window: u16::from_be_bytes([buf[14], buf[15]]),
            checksum: u16::from_be_bytes([buf[16], buf[17]]),
            urgent: u16::from_be_bytes([buf[18], buf[19]]),
        })
    }

    /// Writes the header into `buf` with data offset 5.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than 20 bytes.
    pub fn emit(&self, buf: &mut [u8]) {
        buf[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        buf[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        buf[4..8].copy_from_slice(&self.seq.to_be_bytes());
        buf[8..12].copy_from_slice(&self.ack.to_be_bytes());
        buf[12] = 5 << 4;
        buf[13] = self.flags;
        buf[14..16].copy_from_slice(&self.window.to_be_bytes());
        buf[16..18].copy_from_slice(&self.checksum.to_be_bytes());
        buf[18..20].copy_from_slice(&self.urgent.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ethernet_roundtrip() {
        let eth = Ethernet {
            dst: MacAddr([1, 2, 3, 4, 5, 6]),
            src: MacAddr([7, 8, 9, 10, 11, 12]),
            ethertype: EtherType::Ipv4,
        };
        let mut buf = [0u8; Ethernet::LEN];
        eth.emit(&mut buf);
        assert_eq!(Ethernet::parse(&buf).unwrap(), eth);
    }

    #[test]
    fn ethernet_truncated() {
        assert!(matches!(
            Ethernet::parse(&[0u8; 13]),
            Err(PacketError::Truncated {
                what: "ethernet",
                ..
            })
        ));
    }

    #[test]
    fn ipv4_roundtrip_and_checksum() {
        let mut ip = Ipv4 {
            dscp_ecn: 0,
            total_len: 115,
            ident: 0,
            flags_frag: 0x4000,
            ttl: 64,
            protocol: ip_proto::UDP,
            checksum: 0,
            src: [192, 168, 0, 1],
            dst: [192, 168, 0, 199],
        };
        assert_eq!(ip.compute_checksum(), 0xB861);
        let mut buf = [0u8; Ipv4::LEN];
        ip.emit(&mut buf);
        assert_eq!(Ipv4::parse(&buf).unwrap(), ip);
    }

    #[test]
    fn ipv4_rejects_wrong_version() {
        let mut buf = [0u8; Ipv4::LEN];
        buf[0] = 0x65;
        assert!(matches!(
            Ipv4::parse(&buf),
            Err(PacketError::InvalidField {
                field: "ipv4.version",
                ..
            })
        ));
    }

    #[test]
    fn ipv6_roundtrip() {
        let ip6 = Ipv6 {
            traffic_class: 0xAB,
            flow_label: 0xF_FFFF,
            payload_len: 1024,
            next_header: ip_proto::TCP,
            hop_limit: 255,
            src: [1; 16],
            dst: [2; 16],
        };
        let mut buf = [0u8; Ipv6::LEN];
        ip6.emit(&mut buf);
        assert_eq!(Ipv6::parse(&buf).unwrap(), ip6);
    }

    #[test]
    fn udp_tcp_roundtrip() {
        let udp = Udp {
            src_port: 1234,
            dst_port: 53,
            len: 40,
            checksum: 0xBEEF,
        };
        let mut buf = [0u8; Udp::LEN];
        udp.emit(&mut buf);
        assert_eq!(Udp::parse(&buf).unwrap(), udp);

        let tcp = Tcp {
            src_port: 4000,
            dst_port: 443,
            seq: 0xDEAD_BEEF,
            ack: 0x1234_5678,
            flags: tcp_flags::SYN | tcp_flags::ACK,
            window: 65535,
            checksum: 0,
            urgent: 0,
        };
        let mut buf = [0u8; Tcp::LEN];
        tcp.emit(&mut buf);
        assert_eq!(Tcp::parse(&buf).unwrap(), tcp);
    }

    #[test]
    fn mac_display() {
        assert_eq!(
            MacAddr([0xDE, 0xAD, 0, 0, 0, 1]).to_string(),
            "de:ad:00:00:00:01"
        );
    }
}
