//! Longest-prefix-match route lookup structures.
//!
//! The paper's forwarder characterization (§III-A2) notes that "the IPv4
//! table lookup takes two memory accesses and IPv6 table lookup takes up
//! to 7 memory lookups", and that IPv6 performs "binary search ... for
//! every destination address". Those are precisely the classic
//! **DIR-24-8** direct-index scheme (PacketShader's choice) and
//! **Waldvogel's binary search on prefix lengths**, both implemented here.

use std::collections::HashMap;

/// A route: IPv4 `prefix/len -> next_hop`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteV4 {
    /// Network prefix (host byte order, upper `len` bits significant).
    pub prefix: u32,
    /// Prefix length, 0..=32.
    pub len: u8,
    /// Opaque next-hop id (indexes a neighbour table).
    pub next_hop: u32,
}

/// Simple binary-trie LPM: the correctness oracle for [`Dir24_8`].
#[derive(Debug, Clone, Default)]
pub struct TrieV4 {
    // node = (children[2], next_hop)
    nodes: Vec<([i32; 2], Option<u32>)>,
}

impl TrieV4 {
    /// Creates an empty trie.
    pub fn new() -> Self {
        TrieV4 {
            nodes: vec![([-1, -1], None)],
        }
    }

    /// Inserts a route, replacing any previous route with the same prefix.
    ///
    /// # Panics
    ///
    /// Panics if `len > 32`.
    pub fn insert(&mut self, route: RouteV4) {
        assert!(route.len <= 32, "prefix length {} > 32", route.len);
        let mut node = 0usize;
        for i in 0..route.len {
            let bit = ((route.prefix >> (31 - i)) & 1) as usize;
            if self.nodes[node].0[bit] < 0 {
                self.nodes.push(([-1, -1], None));
                let idx = (self.nodes.len() - 1) as i32;
                self.nodes[node].0[bit] = idx;
            }
            node = self.nodes[node].0[bit] as usize;
        }
        self.nodes[node].1 = Some(route.next_hop);
    }

    /// Longest-prefix-match lookup.
    pub fn lookup(&self, addr: u32) -> Option<u32> {
        let mut node = 0usize;
        let mut best = self.nodes[0].1;
        for i in 0..32 {
            let bit = ((addr >> (31 - i)) & 1) as usize;
            let child = self.nodes[node].0[bit];
            if child < 0 {
                break;
            }
            node = child as usize;
            if let Some(nh) = self.nodes[node].1 {
                best = Some(nh);
            }
        }
        best
    }

    /// Number of trie nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

/// DIR-24-8-style two-level direct-index lookup table.
///
/// Level 1 directly indexes the top `first_bits` of the address; entries
/// either hold a next hop or point into a level-2 block covering the
/// remaining bits — at most **two memory accesses** per lookup, matching
/// the paper's IPv4 cost model. `first_bits = 24` reproduces the classic
/// layout; smaller values trade memory for the same access pattern (the
/// NF catalog uses 20 to keep test memory reasonable).
#[derive(Debug, Clone)]
pub struct Dir24_8 {
    first_bits: u8,
    // 0 = no route; else (next_hop + 1) or (block_index | MSB).
    tbl1: Vec<u32>,
    tbl2: Vec<u32>, // blocks of 1 << (32 - first_bits) entries, 0 = no route
}

const SECOND_LEVEL_FLAG: u32 = 1 << 31;

impl Dir24_8 {
    /// Builds the table from routes: prefixes up to `first_bits` long
    /// fill level 1, longer ones force their bucket into a level-2 block.
    ///
    /// # Panics
    ///
    /// Panics if `first_bits` is not in `8..=24`.
    pub fn from_routes(routes: &[RouteV4], first_bits: u8) -> Self {
        assert!((8..=24).contains(&first_bits), "first_bits must be 8..=24");
        let l1_size = 1usize << first_bits;
        let l2_block = 1usize << (32 - first_bits);
        let mut tbl1 = vec![0u32; l1_size];
        // Fill level 1 with the LPM of each bucket's base address using
        // only prefixes with len <= first_bits.
        let mut short: Vec<RouteV4> = routes
            .iter()
            .copied()
            .filter(|r| r.len <= first_bits)
            .collect();
        short.sort_by_key(|r| r.len);
        for r in &short {
            let span = 1usize << (first_bits - r.len);
            let base = if r.len == 0 {
                0
            } else {
                ((r.prefix >> (32 - first_bits)) as usize >> (first_bits - r.len))
                    << (first_bits - r.len)
            };
            for e in &mut tbl1[base..base + span] {
                *e = r.next_hop + 1;
            }
        }
        // Long prefixes force their bucket into level 2.
        let mut tbl2: Vec<u32> = Vec::new();
        let mut block_of: HashMap<usize, usize> = HashMap::new();
        let mut long: Vec<RouteV4> = routes
            .iter()
            .copied()
            .filter(|r| r.len > first_bits)
            .collect();
        long.sort_by_key(|r| r.len);
        for r in &long {
            let bucket = (r.prefix >> (32 - first_bits)) as usize;
            let block = *block_of.entry(bucket).or_insert_with(|| {
                let idx = tbl2.len() / l2_block;
                // Initialize the block with the level-1 default.
                tbl2.extend(std::iter::repeat_n(tbl1[bucket], l2_block));
                tbl1[bucket] = SECOND_LEVEL_FLAG | idx as u32;
                idx
            });
            let rem_bits = 32 - first_bits;
            let within = (r.prefix as usize) & (l2_block - 1);
            let span = 1usize << (rem_bits - (r.len - first_bits));
            let base =
                (within >> (rem_bits - (r.len - first_bits))) << (rem_bits - (r.len - first_bits));
            let start = block * l2_block + base;
            for e in &mut tbl2[start..start + span] {
                *e = r.next_hop + 1;
            }
        }
        Dir24_8 {
            first_bits,
            tbl1,
            tbl2,
        }
    }

    /// Looks up `addr`, returning the next hop — one or two array reads.
    pub fn lookup(&self, addr: u32) -> Option<u32> {
        let e = self.tbl1[(addr >> (32 - self.first_bits)) as usize];
        if e == 0 {
            return None;
        }
        if e & SECOND_LEVEL_FLAG == 0 {
            return Some(e - 1);
        }
        let block = (e & !SECOND_LEVEL_FLAG) as usize;
        let l2_block = 1usize << (32 - self.first_bits);
        let within = (addr as usize) & (l2_block - 1);
        let e2 = self.tbl2[block * l2_block + within];
        if e2 == 0 {
            None
        } else {
            Some(e2 - 1)
        }
    }

    /// Eight [`Dir24_8::lookup`]s at once over a lane chunk. The
    /// first-level loads are issued as an independent fixed-width pass
    /// (no cross-lane dependencies, so they pipeline), then each lane
    /// resolves its (rare) second-level indirection. Results are
    /// lane-for-lane identical to `lookup`.
    pub fn lookup8(&self, addrs: &[u32; 8]) -> [Option<u32>; 8] {
        let shift = 32 - u32::from(self.first_bits);
        let mut e1 = [0u32; 8];
        for (e, &a) in e1.iter_mut().zip(addrs.iter()) {
            *e = self.tbl1[(a >> shift) as usize];
        }
        let mut out = [None; 8];
        for l in 0..8 {
            let e = e1[l];
            if e == 0 {
                continue;
            }
            if e & SECOND_LEVEL_FLAG == 0 {
                out[l] = Some(e - 1);
                continue;
            }
            let block = (e & !SECOND_LEVEL_FLAG) as usize;
            let l2_block = 1usize << (32 - self.first_bits);
            let within = (addrs[l] as usize) & (l2_block - 1);
            let e2 = self.tbl2[block * l2_block + within];
            out[l] = e2.checked_sub(1);
        }
        out
    }
}

/// A route: IPv6 `prefix/len -> next_hop`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteV6 {
    /// Network prefix (upper `len` bits significant).
    pub prefix: u128,
    /// Prefix length, 0..=128.
    pub len: u8,
    /// Opaque next-hop id.
    pub next_hop: u32,
}

#[derive(Debug, Clone, Default)]
struct V6Entry {
    next_hop: Option<u32>,
    marker_bmp: Option<u32>,
    has_marker: bool,
}

/// Waldvogel binary search on prefix lengths for IPv6.
///
/// One hash table per distinct prefix length; lookup binary-searches the
/// sorted length array, guided by *markers* (truncated prefixes inserted
/// on the search path of longer prefixes) carrying their best-matching
/// prefix so failed descents can recover — `ceil(log2(#lengths))` hash
/// probes, the "up to 7 memory lookups" the paper cites.
#[derive(Debug, Clone, Default)]
pub struct WaldvogelV6 {
    lens: Vec<u8>,
    tables: Vec<HashMap<u128, V6Entry>>,
}

fn truncate_v6(addr: u128, len: u8) -> u128 {
    if len == 0 {
        0
    } else {
        addr >> (128 - len as u32)
    }
}

impl WaldvogelV6 {
    /// Builds the structure from a route set.
    pub fn build(routes: &[RouteV6]) -> Self {
        let mut lens: Vec<u8> = routes.iter().map(|r| r.len).collect();
        lens.sort_unstable();
        lens.dedup();
        let mut tables: Vec<HashMap<u128, V6Entry>> = vec![HashMap::new(); lens.len()];
        // Real entries.
        for r in routes {
            let li = lens.binary_search(&r.len).expect("len present");
            tables[li]
                .entry(truncate_v6(r.prefix, r.len))
                .or_default()
                .next_hop = Some(r.next_hop);
        }
        // Naive oracle for marker bmp computation (build-time only).
        let best_le = |addr_prefix: u128, plen: u8, max_len: u8| -> Option<u32> {
            let mut best: Option<(u8, u32)> = None;
            for r in routes {
                if r.len > max_len || r.len > plen {
                    continue;
                }
                let a = truncate_v6(addr_prefix << (128 - plen as u32), r.len);
                if a == truncate_v6(r.prefix, r.len)
                    && best.map(|(l, _)| r.len >= l).unwrap_or(true)
                {
                    best = Some((r.len, r.next_hop));
                }
            }
            best.map(|(_, nh)| nh)
        };
        // Markers along each route's binary-search path.
        for r in routes {
            let (mut lo, mut hi) = (0isize, lens.len() as isize - 1);
            while lo <= hi {
                let mid = ((lo + hi) / 2) as usize;
                let ml = lens[mid];
                match ml.cmp(&r.len) {
                    std::cmp::Ordering::Less => {
                        // Search proceeds right through this node: leave a marker.
                        let key = truncate_v6(r.prefix, ml);
                        let e = tables[mid].entry(key).or_default();
                        e.has_marker = true;
                        if e.marker_bmp.is_none() {
                            e.marker_bmp = best_le(key, ml, ml);
                        }
                        lo = mid as isize + 1;
                    }
                    std::cmp::Ordering::Equal => break,
                    std::cmp::Ordering::Greater => hi = mid as isize - 1,
                }
            }
        }
        WaldvogelV6 { lens, tables }
    }

    /// Longest-prefix-match lookup by binary search on prefix lengths.
    pub fn lookup(&self, addr: u128) -> Option<u32> {
        let mut best: Option<u32> = None;
        let (mut lo, mut hi) = (0isize, self.lens.len() as isize - 1);
        while lo <= hi {
            let mid = ((lo + hi) / 2) as usize;
            let key = truncate_v6(addr, self.lens[mid]);
            match self.tables[mid].get(&key) {
                Some(e) => {
                    if let Some(nh) = e.next_hop {
                        best = Some(nh);
                    } else if let Some(b) = e.marker_bmp {
                        best = Some(b);
                    }
                    lo = mid as isize + 1;
                }
                None => hi = mid as isize - 1,
            }
        }
        best
    }

    /// Oracle linear-scan lookup used by tests.
    pub fn lookup_linear(routes: &[RouteV6], addr: u128) -> Option<u32> {
        routes
            .iter()
            .filter(|r| truncate_v6(addr, r.len) == truncate_v6(r.prefix, r.len))
            .max_by_key(|r| r.len)
            .map(|r| r.next_hop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r4(a: [u8; 4], len: u8, nh: u32) -> RouteV4 {
        RouteV4 {
            prefix: u32::from_be_bytes(a),
            len,
            next_hop: nh,
        }
    }

    #[test]
    fn trie_longest_prefix_wins() {
        let mut t = TrieV4::new();
        t.insert(r4([10, 0, 0, 0], 8, 1));
        t.insert(r4([10, 1, 0, 0], 16, 2));
        t.insert(r4([10, 1, 2, 0], 24, 3));
        assert_eq!(t.lookup(u32::from_be_bytes([10, 1, 2, 3])), Some(3));
        assert_eq!(t.lookup(u32::from_be_bytes([10, 1, 9, 9])), Some(2));
        assert_eq!(t.lookup(u32::from_be_bytes([10, 9, 9, 9])), Some(1));
        assert_eq!(t.lookup(u32::from_be_bytes([11, 0, 0, 1])), None);
    }

    #[test]
    fn trie_default_route() {
        let mut t = TrieV4::new();
        t.insert(r4([0, 0, 0, 0], 0, 99));
        t.insert(r4([192, 168, 0, 0], 16, 1));
        assert_eq!(t.lookup(u32::from_be_bytes([8, 8, 8, 8])), Some(99));
        assert_eq!(t.lookup(u32::from_be_bytes([192, 168, 1, 1])), Some(1));
    }

    #[test]
    fn dir24_8_matches_trie() {
        let routes = vec![
            r4([10, 0, 0, 0], 8, 1),
            r4([10, 1, 0, 0], 16, 2),
            r4([10, 1, 2, 0], 24, 3),
            r4([10, 1, 2, 128], 25, 4),
            r4([10, 1, 2, 64], 27, 5),
            r4([0, 0, 0, 0], 0, 0),
        ];
        let dir = Dir24_8::from_routes(&routes, 24);
        let mut trie = TrieV4::new();
        for r in &routes {
            trie.insert(*r);
        }
        for probe in [
            [10, 1, 2, 200],
            [10, 1, 2, 70],
            [10, 1, 2, 3],
            [10, 1, 5, 5],
            [10, 77, 1, 1],
            [1, 2, 3, 4],
        ] {
            let a = u32::from_be_bytes(probe);
            assert_eq!(dir.lookup(a), trie.lookup(a), "probe {probe:?}");
        }
    }

    #[test]
    fn lookup8_matches_scalar_lookup() {
        // Mixed chunk: hits via tbl1, hits via the second level, default
        // route, and misses (no-default table exercised separately).
        let routes = vec![
            r4([10, 0, 0, 0], 8, 1),
            r4([10, 1, 0, 0], 16, 2),
            r4([10, 1, 2, 0], 24, 3),
            r4([10, 1, 2, 128], 25, 4),
            r4([10, 1, 2, 64], 27, 5),
        ];
        let dir = Dir24_8::from_routes(&routes, 16);
        let mut state = 0xdead_beef_u64;
        let mut addrs = [0u32; 8];
        for trial in 0..256 {
            for a in addrs.iter_mut() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                // Bias toward 10.x so second-level blocks are exercised.
                *a = if state & 1 == 0 {
                    0x0a01_0000 | (state >> 33) as u32 & 0xFFFF
                } else {
                    (state >> 32) as u32
                };
            }
            let wide = dir.lookup8(&addrs);
            for (l, &a) in addrs.iter().enumerate() {
                assert_eq!(wide[l], dir.lookup(a), "trial {trial} lane {l} addr {a:#x}");
            }
        }
    }

    #[test]
    fn dir24_8_small_first_level_agrees() {
        let routes = vec![
            r4([10, 0, 0, 0], 8, 1),
            r4([10, 1, 2, 0], 24, 3),
            r4([10, 1, 2, 128], 30, 4),
        ];
        let d16 = Dir24_8::from_routes(&routes, 16);
        let d24 = Dir24_8::from_routes(&routes, 24);
        for probe in 0..1000u32 {
            let a = u32::from_be_bytes([10, 1, 2, (probe % 256) as u8]);
            assert_eq!(d16.lookup(a), d24.lookup(a));
        }
    }

    fn rv6(bytes: [u8; 16], len: u8, nh: u32) -> RouteV6 {
        RouteV6 {
            prefix: u128::from_be_bytes(bytes),
            len,
            next_hop: nh,
        }
    }

    #[test]
    fn waldvogel_basic() {
        let mut p1 = [0u8; 16];
        p1[0] = 0x20;
        p1[1] = 0x01;
        let mut p2 = p1;
        p2[2] = 0x0d;
        p2[3] = 0xb8;
        let routes = vec![rv6(p1, 16, 1), rv6(p2, 32, 2)];
        let w = WaldvogelV6::build(&routes);
        let mut addr = p2;
        addr[15] = 1;
        assert_eq!(w.lookup(u128::from_be_bytes(addr)), Some(2));
        let mut addr2 = p1;
        addr2[2] = 0xFF;
        assert_eq!(w.lookup(u128::from_be_bytes(addr2)), Some(1));
        assert_eq!(w.lookup(0), None);
    }

    #[test]
    fn waldvogel_marker_recovery() {
        // Classic trap: a long prefix pulls the search right, where nothing
        // matches; the marker's bmp must recover the short match.
        let short = rv6([0x20, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], 8, 7);
        let mut long_bytes = [0u8; 16];
        long_bytes[0] = 0x20;
        long_bytes[1] = 0xAA;
        long_bytes[2] = 0xBB;
        let long = rv6(long_bytes, 64, 9);
        let w = WaldvogelV6::build(&[short, long]);
        // Address matching `short` and the first 24 bits of `long` but not
        // all 64: search goes right at len 8 (marker), fails at 64, and
        // must fall back to bmp = 7.
        let mut addr = long_bytes;
        addr[7] = 0xFF; // diverge inside the /64
        assert_eq!(w.lookup(u128::from_be_bytes(addr)), Some(7));
        // Full match on long prefix.
        assert_eq!(w.lookup(u128::from_be_bytes(long_bytes)), Some(9));
    }

    #[test]
    fn waldvogel_matches_linear_oracle_randomized() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(11);
        let routes: Vec<RouteV6> = (0..200)
            .map(|i| {
                let len = *[16u8, 24, 32, 40, 48, 56, 64, 96].get(i % 8).unwrap();
                // Top-aligned prefix: upper `len` bits random, rest zero.
                let prefix: u128 = rng.gen::<u128>() >> (128 - len as u32) << (128 - len as u32);
                RouteV6 {
                    prefix,
                    len,
                    next_hop: i as u32,
                }
            })
            .collect();
        let w = WaldvogelV6::build(&routes);
        for _ in 0..2000 {
            // Probe near route prefixes to exercise matches.
            let r = routes[rng.gen_range(0..routes.len())];
            let noise: u128 = rng.gen::<u128>() >> r.len.min(127);
            let addr = r.prefix | noise;
            assert_eq!(
                w.lookup(addr),
                WaldvogelV6::lookup_linear(&routes, addr),
                "addr {addr:#034x}"
            );
            // And fully random probes.
            let addr2: u128 = rng.gen();
            assert_eq!(w.lookup(addr2), WaldvogelV6::lookup_linear(&routes, addr2));
        }
    }
}
