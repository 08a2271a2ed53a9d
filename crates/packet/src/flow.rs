//! Flow identification: 5-tuples and a deterministic RSS-style hash.

use crate::headers::{ip_proto, EtherType};
use crate::{Packet, PacketError, Result};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// The classic connection 5-tuple.
///
/// Used by the firewall ACL matcher, NAT's connection table, the load
/// balancer's consistent hashing, and the IDS's stateful stream reassembly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FiveTuple {
    /// Source address.
    pub src: IpAddr,
    /// Destination address.
    pub dst: IpAddr,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// IP protocol number.
    pub proto: u8,
}

impl FiveTuple {
    /// Extracts the 5-tuple from a packet.
    ///
    /// # Errors
    ///
    /// Fails on non-IP packets or IP protocols other than UDP/TCP.
    pub fn of(pkt: &Packet) -> Result<FiveTuple> {
        let eth = pkt.ethernet()?;
        let (src, dst, proto): (IpAddr, IpAddr, u8) = match eth.ethertype {
            EtherType::Ipv4 => {
                let ip = pkt.ipv4()?;
                (
                    IpAddr::V4(Ipv4Addr::from(ip.src)),
                    IpAddr::V4(Ipv4Addr::from(ip.dst)),
                    ip.protocol,
                )
            }
            EtherType::Ipv6 => {
                let ip = pkt.ipv6()?;
                (
                    IpAddr::V6(Ipv6Addr::from(ip.src)),
                    IpAddr::V6(Ipv6Addr::from(ip.dst)),
                    ip.next_header,
                )
            }
            EtherType::Other(v) => {
                return Err(PacketError::InvalidField {
                    field: "ethertype",
                    value: u64::from(v),
                })
            }
        };
        let (src_port, dst_port) = match proto {
            ip_proto::UDP => {
                let u = pkt.udp()?;
                (u.src_port, u.dst_port)
            }
            ip_proto::TCP => {
                let t = pkt.tcp()?;
                (t.src_port, t.dst_port)
            }
            other => {
                return Err(PacketError::InvalidField {
                    field: "ip.protocol",
                    value: u64::from(other),
                })
            }
        };
        Ok(FiveTuple {
            src,
            dst,
            src_port,
            dst_port,
            proto,
        })
    }

    /// The reverse-direction tuple (swap src/dst), as needed by NAT's
    /// return-path lookups.
    pub fn reversed(&self) -> FiveTuple {
        FiveTuple {
            src: self.dst,
            dst: self.src,
            src_port: self.dst_port,
            dst_port: self.src_port,
            proto: self.proto,
        }
    }

    /// Deterministic RSS-style hash used to steer packets to RX queues and
    /// as the flow annotation. FNV-1a over the canonical byte encoding: the
    /// same flow always lands on the same queue, which is the property the
    /// paper's stateful NFs rely on.
    pub fn rss_hash(&self) -> u32 {
        let mut h = Fnv1a::new();
        match self.src {
            IpAddr::V4(a) => h.write(&a.octets()),
            IpAddr::V6(a) => h.write(&a.octets()),
        }
        match self.dst {
            IpAddr::V4(a) => h.write(&a.octets()),
            IpAddr::V6(a) => h.write(&a.octets()),
        }
        h.write(&self.src_port.to_be_bytes());
        h.write(&self.dst_port.to_be_bytes());
        h.write(&[self.proto]);
        h.finish()
    }

    /// A symmetric variant of [`FiveTuple::rss_hash`] that maps both
    /// directions of a connection to the same value (stateful NFs need to
    /// see both directions on one core).
    pub fn symmetric_hash(&self) -> u32 {
        self.rss_hash() ^ self.reversed().rss_hash()
    }
}

/// A 5-tuple bundled with its precomputed [`FiveTuple::rss_hash`].
///
/// This is the key of the flow-aware fast path: hashing walks every tuple
/// byte, so the hash is computed once and carried with the tuple. Packets
/// memoize their key ([`Packet::flow_key`]) and the memo is invalidated
/// whenever header bytes are written, which the copy-on-write buffer makes
/// detectable — every mutation funnels through one accessor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey {
    tuple: FiveTuple,
    hash: u32,
}

impl FlowKey {
    /// Extracts the key from a packet (parsing + one hash pass).
    ///
    /// # Errors
    ///
    /// Fails on non-IP packets or IP protocols other than UDP/TCP.
    pub fn of(pkt: &Packet) -> Result<FlowKey> {
        Ok(Self::from_tuple(FiveTuple::of(pkt)?))
    }

    /// Wraps an already-extracted tuple, hashing it once.
    pub fn from_tuple(tuple: FiveTuple) -> FlowKey {
        FlowKey {
            hash: tuple.rss_hash(),
            tuple,
        }
    }

    /// The key of an IPv4 tuple given as header-lane values (big-endian
    /// `u32` addresses), hashed with [`rss_hash_v4`]: equal to
    /// [`FlowKey::of`] on the packet the lanes were gathered from.
    pub(crate) fn from_v4(src: u32, dst: u32, src_port: u16, dst_port: u16, proto: u8) -> FlowKey {
        FlowKey {
            tuple: FiveTuple {
                src: IpAddr::V4(Ipv4Addr::from(src)),
                dst: IpAddr::V4(Ipv4Addr::from(dst)),
                src_port,
                dst_port,
                proto,
            },
            hash: rss_hash_v4(src, dst, src_port, dst_port, proto),
        }
    }

    /// The underlying 5-tuple.
    pub fn tuple(&self) -> &FiveTuple {
        &self.tuple
    }

    /// The memoized [`FiveTuple::rss_hash`] of the tuple.
    pub fn hash(&self) -> u32 {
        self.hash
    }
}

impl std::fmt::Display for FlowKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} [{:08x}]", self.tuple, self.hash)
    }
}

impl std::fmt::Display for FiveTuple {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{} -> {}:{} proto {}",
            self.src, self.src_port, self.dst, self.dst_port, self.proto
        )
    }
}

/// Minimal 32-bit FNV-1a hasher (deterministic across runs, unlike
/// `std::collections::hash_map::DefaultHasher`).
#[derive(Debug, Clone, Copy)]
struct Fnv1a(u32);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0x811C_9DC5)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u32::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0193);
        }
    }

    fn finish(self) -> u32 {
        self.0
    }
}

/// Hashes arbitrary bytes with FNV-1a; used for payload-content hashing in
/// the WAN optimizer's deduplication cache.
pub fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// [`FiveTuple::rss_hash`] computed directly from raw IPv4 lane values
/// (big-endian `u32` addresses as produced by header lanes), without
/// constructing a tuple. Identical to the tuple hash for V4/V4 tuples.
pub fn rss_hash_v4(src: u32, dst: u32, src_port: u16, dst_port: u16, proto: u8) -> u32 {
    let mut h = Fnv1a::new();
    h.write(&src.to_be_bytes());
    h.write(&dst.to_be_bytes());
    h.write(&src_port.to_be_bytes());
    h.write(&dst_port.to_be_bytes());
    h.write(&[proto]);
    h.finish()
}

/// [`FiveTuple::symmetric_hash`] from raw IPv4 lane values; see
/// [`rss_hash_v4`].
pub fn symmetric_hash_v4(src: u32, dst: u32, src_port: u16, dst_port: u16, proto: u8) -> u32 {
    rss_hash_v4(src, dst, src_port, dst_port, proto)
        ^ rss_hash_v4(dst, src, dst_port, src_port, proto)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FiveTuple {
        FiveTuple {
            src: IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)),
            dst: IpAddr::V4(Ipv4Addr::new(10, 0, 0, 2)),
            src_port: 1234,
            dst_port: 80,
            proto: ip_proto::TCP,
        }
    }

    #[test]
    fn extraction_matches_construction() {
        let pkt = Packet::ipv4_tcp([10, 0, 0, 1], [10, 0, 0, 2], 1234, 80, b"", 0);
        assert_eq!(pkt.five_tuple().unwrap(), sample());
    }

    #[test]
    fn reversed_is_involution() {
        let t = sample();
        assert_eq!(t.reversed().reversed(), t);
        assert_ne!(t.reversed(), t);
    }

    #[test]
    fn hash_is_deterministic_and_direction_sensitive() {
        let t = sample();
        assert_eq!(t.rss_hash(), t.rss_hash());
        assert_ne!(t.rss_hash(), t.reversed().rss_hash());
    }

    #[test]
    fn symmetric_hash_matches_both_directions() {
        let t = sample();
        assert_eq!(t.symmetric_hash(), t.reversed().symmetric_hash());
    }

    #[test]
    fn ipv6_tuple() {
        let pkt = Packet::ipv6_udp([1; 16], [2; 16], 53, 5353, b"q");
        let t = pkt.five_tuple().unwrap();
        assert_eq!(t.proto, ip_proto::UDP);
        assert_eq!(t.src, IpAddr::V6(Ipv6Addr::from([1u8; 16])));
    }

    #[test]
    fn fnv_vector() {
        // FNV-1a("a") = 0xe40c292c
        assert_eq!(fnv1a(b"a"), 0xE40C_292C);
    }

    #[test]
    fn lane_hashes_match_tuple_hashes() {
        let t = sample();
        let (IpAddr::V4(s), IpAddr::V4(d)) = (t.src, t.dst) else {
            unreachable!()
        };
        let (s, d) = (u32::from(s), u32::from(d));
        assert_eq!(
            rss_hash_v4(s, d, t.src_port, t.dst_port, t.proto),
            t.rss_hash()
        );
        assert_eq!(
            symmetric_hash_v4(s, d, t.src_port, t.dst_port, t.proto),
            t.symmetric_hash()
        );
    }

    #[test]
    fn flow_key_carries_matching_hash() {
        let t = sample();
        let k = FlowKey::from_tuple(t);
        assert_eq!(*k.tuple(), t);
        assert_eq!(k.hash(), t.rss_hash());
        let pkt = Packet::ipv4_tcp([10, 0, 0, 1], [10, 0, 0, 2], 1234, 80, b"", 0);
        assert_eq!(FlowKey::of(&pkt).unwrap(), k);
        let v4 = FlowKey::from_v4(0x0a00_0001, 0x0a00_0002, 1234, 80, ip_proto::TCP);
        assert_eq!(v4, k);
    }
}
