//! Firewall access-control lists with a ClassBench-style rule generator.
//!
//! The paper's real-SFC validation (Figure 17) uses "three real ACLs
//! \[ClassBench\]" with 200, 1 000 and 10 000 rules. ClassBench rule files
//! are not redistributable, so [`synth`] generates structurally similar
//! rule sets: prefix-nested source/destination CIDR pairs, port ranges
//! drawn from the common ClassBench port classes, and protocol wildcards,
//! all deterministic from a seed. See DESIGN.md §2 for the substitution
//! rationale.

use nfc_packet::FiveTuple;
use std::net::IpAddr;

/// ACL rule action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Pass the packet.
    Allow,
    /// Drop the packet.
    Deny,
}

/// A single 5-tuple classification rule (first match wins).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rule {
    /// Source prefix `(value, len)`, host byte order.
    pub src: (u32, u8),
    /// Destination prefix `(value, len)`.
    pub dst: (u32, u8),
    /// Source-port range, inclusive.
    pub sport: (u16, u16),
    /// Destination-port range, inclusive.
    pub dport: (u16, u16),
    /// Protocol filter (`None` = any).
    pub proto: Option<u8>,
    /// Action when matched.
    pub action: Action,
}

impl Rule {
    /// A rule matching everything, with the given action.
    pub fn any(action: Action) -> Self {
        Rule {
            src: (0, 0),
            dst: (0, 0),
            sport: (0, u16::MAX),
            dport: (0, u16::MAX),
            proto: None,
            action,
        }
    }

    fn prefix_matches(addr: u32, (value, len): (u32, u8)) -> bool {
        if len == 0 {
            return true;
        }
        let shift = 32 - u32::from(len);
        (addr >> shift) == (value >> shift)
    }

    /// Checks whether a v4 5-tuple matches this rule.
    pub fn matches(&self, t: &FiveTuple) -> bool {
        let (src, dst) = match (t.src, t.dst) {
            (IpAddr::V4(s), IpAddr::V4(d)) => (u32::from(s), u32::from(d)),
            _ => return false,
        };
        self.matches_v4(src, dst, t.src_port, t.dst_port, t.proto)
    }

    /// [`Rule::matches`] on raw IPv4 lane values (big-endian `u32`
    /// addresses), skipping `IpAddr` construction — the header-lane sweep
    /// entry point. `matches` delegates here for V4 tuples, so the two
    /// paths cannot diverge.
    pub fn matches_v4(&self, src: u32, dst: u32, src_port: u16, dst_port: u16, proto: u8) -> bool {
        Self::prefix_matches(src, self.src)
            && Self::prefix_matches(dst, self.dst)
            && (self.sport.0..=self.sport.1).contains(&src_port)
            && (self.dport.0..=self.dport.1).contains(&dst_port)
            && self.proto.map(|p| p == proto).unwrap_or(true)
    }
}

/// Protocol sentinel in a [`MaskRule`]: match any protocol.
const PROTO_ANY: u16 = 256;

/// A [`Rule`] pre-lowered for the columnar sweep: prefix tests become
/// one AND + compare against a precomputed mask/value pair, and the
/// protocol wildcard a sentinel compare, so [`AclTable::classify_v4`]'s
/// inner loop is branch-light and free of per-row shift computation.
#[derive(Debug, Clone, Copy)]
struct MaskRule {
    smask: u32,
    sval: u32,
    dmask: u32,
    dval: u32,
    sport: (u16, u16),
    dport: (u16, u16),
    proto: u16,
    action: Action,
}

impl MaskRule {
    fn lower(r: &Rule) -> MaskRule {
        let pfx = |(value, len): (u32, u8)| {
            if len == 0 {
                (0, 0)
            } else {
                // Same truncation `prefix_matches` applies by shifting
                // both sides: bits beyond the prefix never participate.
                let mask = u32::MAX << (32 - u32::from(len.min(32)));
                (mask, value & mask)
            }
        };
        let (smask, sval) = pfx(r.src);
        let (dmask, dval) = pfx(r.dst);
        MaskRule {
            smask,
            sval,
            dmask,
            dval,
            sport: r.sport,
            dport: r.dport,
            proto: r.proto.map_or(PROTO_ANY, u16::from),
            action: r.action,
        }
    }
}

/// An ordered, first-match-wins rule table.
#[derive(Debug, Clone)]
pub struct AclTable {
    rules: Vec<Rule>,
    lowered: Vec<MaskRule>,
    /// Indices (into `lowered`, priority order) of the rules a UDP
    /// packet could match: protocol wildcard or UDP rules. A UDP packet
    /// can never match a TCP-only rule, so the sweep skips them wholesale.
    udp_rules: Vec<u32>,
    /// Same partition for TCP packets.
    tcp_rules: Vec<u32>,
    default: Action,
}

/// Result of a classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// The action to take.
    pub action: Action,
    /// Index of the matching rule (`None` = default action).
    pub rule: Option<usize>,
}

impl AclTable {
    /// Creates a table with the given rules and default action for
    /// unmatched traffic.
    pub fn new(rules: Vec<Rule>, default: Action) -> Self {
        let lowered: Vec<MaskRule> = rules.iter().map(MaskRule::lower).collect();
        let partition = |p: u16| -> Vec<u32> {
            lowered
                .iter()
                .enumerate()
                .filter(|(_, r)| r.proto == PROTO_ANY || r.proto == p)
                .map(|(i, _)| i as u32)
                .collect()
        };
        let udp_rules = partition(u16::from(nfc_packet::headers::ip_proto::UDP));
        let tcp_rules = partition(u16::from(nfc_packet::headers::ip_proto::TCP));
        AclTable {
            rules,
            lowered,
            udp_rules,
            tcp_rules,
            default,
        }
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True if the table has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The rules, in priority order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// First-match classification. Linear scan — the classification *tree*
    /// cost growth with rule count that Figure 17 measures is modeled by
    /// the element cost function, while this provides the functional
    /// verdict.
    pub fn classify(&self, t: &FiveTuple) -> Verdict {
        for (i, r) in self.rules.iter().enumerate() {
            if r.matches(t) {
                return Verdict {
                    action: r.action,
                    rule: Some(i),
                };
            }
        }
        Verdict {
            action: self.default,
            rule: None,
        }
    }

    /// [`AclTable::classify`] on raw IPv4 lane values, one row at a
    /// time: the oracle [`AclTable::classify_v4_batch`] — what the
    /// header-lane sweep runs — is tested against. Scans the pre-lowered
    /// `MaskRule`s (one AND + compare per prefix, no per-row shifts or
    /// `IpAddr` unwrapping).
    /// UDP and TCP packets scan only their protocol partition — rules a
    /// packet of that protocol could never match are skipped wholesale,
    /// and the in-partition protocol compare is dropped (every rule in
    /// the partition matches the protocol by construction). Conjuncts
    /// run destination-prefix first: synthetic (and real ClassBench)
    /// destination prefixes are never shorter than /16, making them the
    /// most selective test. Verdicts are identical to `classify` for V4
    /// tuples.
    pub fn classify_v4(
        &self,
        src: u32,
        dst: u32,
        src_port: u16,
        dst_port: u16,
        proto: u8,
    ) -> Verdict {
        use nfc_packet::headers::ip_proto;
        let partition = match proto {
            ip_proto::UDP => &self.udp_rules,
            ip_proto::TCP => &self.tcp_rules,
            _ => return self.classify_v4_any(src, dst, src_port, dst_port, proto),
        };
        for &i in partition {
            let r = &self.lowered[i as usize];
            if (dst & r.dmask) == r.dval
                && (src & r.smask) == r.sval
                && dst_port >= r.dport.0
                && dst_port <= r.dport.1
                && src_port >= r.sport.0
                && src_port <= r.sport.1
            {
                return Verdict {
                    action: r.action,
                    rule: Some(i as usize),
                };
            }
        }
        Verdict {
            action: self.default,
            rule: None,
        }
    }

    /// Full-table scan for protocols without a precomputed partition.
    fn classify_v4_any(
        &self,
        src: u32,
        dst: u32,
        src_port: u16,
        dst_port: u16,
        proto: u8,
    ) -> Verdict {
        let proto = u16::from(proto);
        for (i, r) in self.lowered.iter().enumerate() {
            if (dst & r.dmask) == r.dval
                && (src & r.smask) == r.sval
                && dst_port >= r.dport.0
                && dst_port <= r.dport.1
                && src_port >= r.sport.0
                && src_port <= r.sport.1
                && (r.proto == PROTO_ANY || r.proto == proto)
            {
                return Verdict {
                    action: r.action,
                    rule: Some(i),
                };
            }
        }
        Verdict {
            action: self.default,
            rule: None,
        }
    }

    /// Wide-word batch form of [`AclTable::classify_v4`]: classifies
    /// every row selected by the packed `tuple_bits` mask straight off
    /// the lane columns, eight rows per compare
    /// ([`nfc_packet::simd::and_eq_mask8`] /
    /// [`nfc_packet::simd::range_mask8`]), returning one verdict per
    /// selected row (`None` on unselected rows — the caller's per-packet
    /// fallback).
    ///
    /// The scan preserves first-match-wins and the per-protocol
    /// partitions exactly: selected rows are compacted per partition
    /// (UDP / TCP / a scalar fallback for anything else), padded to a
    /// multiple of eight with permanently-inactive lanes, and swept
    /// rules-outer with a per-chunk active mask. A row's lane
    /// deactivates at its first matching rule — later rules cannot
    /// overwrite its verdict — and the destination-prefix compare runs
    /// first with a chunk-level short-circuit, mirroring the scalar
    /// conjunct order. Rows still active after the last rule take the
    /// default action. Verdicts are identical to `classify_v4` row by
    /// row.
    pub fn classify_v4_batch(
        &self,
        src: &[u32],
        dst: &[u32],
        src_port: &[u16],
        dst_port: &[u16],
        proto: &[u8],
        tuple_bits: &[u64],
    ) -> Vec<Option<Verdict>> {
        use nfc_packet::headers::ip_proto;
        use nfc_packet::simd;
        let n = dst.len();
        let mut out: Vec<Option<Verdict>> = vec![None; n];
        let mut udp_rows: Vec<u32> = Vec::new();
        let mut tcp_rows: Vec<u32> = Vec::new();
        for i in 0..n {
            if !simd::get_bit(tuple_bits, i) {
                continue;
            }
            match proto[i] {
                ip_proto::UDP => udp_rows.push(i as u32),
                ip_proto::TCP => tcp_rows.push(i as u32),
                // The tuple mask only admits UDP/TCP, but stay total:
                // anything else takes the scalar generic scan.
                p => {
                    out[i] = Some(self.classify_v4_any(src[i], dst[i], src_port[i], dst_port[i], p))
                }
            }
        }
        for (rows, partition) in [(&udp_rows, &self.udp_rules), (&tcp_rows, &self.tcp_rules)] {
            if rows.is_empty() {
                continue;
            }
            let chunks = rows.len().div_ceil(simd::LANES);
            let padded = chunks * simd::LANES;
            let mut csrc = vec![0u32; padded];
            let mut cdst = vec![0u32; padded];
            let mut csp = vec![0u16; padded];
            let mut cdp = vec![0u16; padded];
            for (k, &row) in rows.iter().enumerate() {
                let row = row as usize;
                csrc[k] = src[row];
                cdst[k] = dst[row];
                csp[k] = src_port[row];
                cdp[k] = dst_port[row];
            }
            // Active lane masks; padding lanes start (and stay) dead.
            let mut active = vec![0xFFu8; chunks];
            if rows.len() % simd::LANES != 0 {
                active[chunks - 1] = (1u8 << (rows.len() % simd::LANES)) - 1;
            }
            let mut remaining = rows.len();
            'rules: for &ri in partition.iter() {
                let r = &self.lowered[ri as usize];
                for (c, slot) in active.iter_mut().enumerate() {
                    let a = *slot;
                    if a == 0 {
                        continue;
                    }
                    let base = c * simd::LANES;
                    let lane = |col: &[u32]| -> [u32; simd::LANES] {
                        col[base..base + simd::LANES].try_into().expect("chunk")
                    };
                    let lane16 = |col: &[u16]| -> [u16; simd::LANES] {
                        col[base..base + simd::LANES].try_into().expect("chunk")
                    };
                    let mut m = a & simd::and_eq_mask8(&lane(&cdst), r.dmask, r.dval);
                    if m == 0 {
                        continue;
                    }
                    m &= simd::and_eq_mask8(&lane(&csrc), r.smask, r.sval);
                    if m != 0 {
                        m &= simd::range_mask8(&lane16(&cdp), r.dport.0, r.dport.1);
                    }
                    if m != 0 {
                        m &= simd::range_mask8(&lane16(&csp), r.sport.0, r.sport.1);
                    }
                    if m == 0 {
                        continue;
                    }
                    *slot = a & !m;
                    remaining -= m.count_ones() as usize;
                    let verdict = Verdict {
                        action: r.action,
                        rule: Some(ri as usize),
                    };
                    for l in 0..simd::LANES {
                        if m >> l & 1 == 1 {
                            out[rows[base + l] as usize] = Some(verdict);
                        }
                    }
                    if remaining == 0 {
                        break 'rules;
                    }
                }
            }
            if remaining > 0 {
                let default = Verdict {
                    action: self.default,
                    rule: None,
                };
                for (c, &a) in active.iter().enumerate() {
                    for l in 0..simd::LANES {
                        let k = c * simd::LANES + l;
                        if a >> l & 1 == 1 && k < rows.len() {
                            out[rows[k] as usize] = Some(default);
                        }
                    }
                }
            }
        }
        out
    }

    /// A configuration hash for element-signature de-duplication.
    pub fn config_hash(&self) -> u64 {
        let mut bytes = Vec::with_capacity(self.rules.len() * 16);
        for r in &self.rules {
            bytes.extend_from_slice(&r.src.0.to_be_bytes());
            bytes.push(r.src.1);
            bytes.extend_from_slice(&r.dst.0.to_be_bytes());
            bytes.push(r.dst.1);
            bytes.extend_from_slice(&r.sport.0.to_be_bytes());
            bytes.extend_from_slice(&r.sport.1.to_be_bytes());
            bytes.extend_from_slice(&r.dport.0.to_be_bytes());
            bytes.extend_from_slice(&r.dport.1.to_be_bytes());
            bytes.push(r.proto.unwrap_or(255));
            bytes.push(matches!(r.action, Action::Deny) as u8);
        }
        nfc_click::element::config_hash(&bytes)
    }
}

/// ClassBench-style synthetic rule generation.
pub mod synth {
    use super::{Action, Rule};
    use nfc_packet::headers::ip_proto;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// ClassBench-like destination-port classes: wildcard, well-known
    /// services, ephemeral ranges, exact ports.
    const PORT_CLASSES: &[(u16, u16)] = &[
        (0, u16::MAX),
        (80, 80),
        (443, 443),
        (22, 22),
        (53, 53),
        (0, 1023),
        (1024, u16::MAX),
        (8000, 8999),
    ];

    /// Generates `n` deterministic, structurally ClassBench-like rules.
    ///
    /// Rules are grouped into "prefix trees": a small set of base CIDRs
    /// from which rules derive nested longer prefixes, mimicking the
    /// prefix-nesting structure of real filter sets. Roughly 25 % of
    /// rules deny; the final table is used with a default-allow or
    /// default-deny policy by the caller.
    pub fn generate(n: usize, seed: u64) -> Vec<Rule> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n_trees = (n / 16).clamp(4, 64);
        let trees: Vec<(u32, u32)> = (0..n_trees)
            .map(|_| {
                (
                    rng.gen::<u32>() & 0xFFFF_0000,
                    rng.gen::<u32>() & 0xFFFF_0000,
                )
            })
            .collect();
        (0..n)
            .map(|_| {
                let (sbase, dbase) = trees[rng.gen_range(0..trees.len())];
                let slen = *[0u8, 8, 16, 24, 32].get(rng.gen_range(0..5)).unwrap_or(&16);
                let dlen = *[16u8, 24, 28, 32].get(rng.gen_range(0..4)).unwrap_or(&24);
                let src = if slen <= 16 {
                    sbase
                } else {
                    sbase | (rng.gen::<u32>() & 0x0000_FFFF)
                };
                let dst = if dlen <= 16 {
                    dbase
                } else {
                    dbase | (rng.gen::<u32>() & 0x0000_FFFF)
                };
                Rule {
                    src: (src, slen),
                    dst: (dst, dlen),
                    sport: (0, u16::MAX),
                    dport: PORT_CLASSES[rng.gen_range(0..PORT_CLASSES.len())],
                    proto: [None, Some(ip_proto::TCP), Some(ip_proto::UDP)][rng.gen_range(0..3)],
                    action: if rng.gen::<f64>() < 0.25 {
                        Action::Deny
                    } else {
                        Action::Allow
                    },
                }
            })
            .collect()
    }

    /// Produces a 5-tuple guaranteed to match `rule` (for tests and for
    /// generating traffic that exercises deep rules).
    pub fn tuple_matching(rule: &Rule, rng: &mut SmallRng) -> nfc_packet::FiveTuple {
        use std::net::{IpAddr, Ipv4Addr};
        let fill = |(value, len): (u32, u8), rng: &mut SmallRng| -> u32 {
            if len == 0 {
                rng.gen()
            } else if len == 32 {
                value
            } else {
                let shift = 32 - u32::from(len);
                (value >> shift << shift) | (rng.gen::<u32>() & ((1 << shift) - 1))
            }
        };
        nfc_packet::FiveTuple {
            src: IpAddr::V4(Ipv4Addr::from(fill(rule.src, rng))),
            dst: IpAddr::V4(Ipv4Addr::from(fill(rule.dst, rng))),
            src_port: rng.gen_range(rule.sport.0..=rule.sport.1),
            dst_port: rng.gen_range(rule.dport.0..=rule.dport.1),
            proto: rule.proto.unwrap_or(ip_proto::UDP),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfc_packet::headers::ip_proto;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::net::{IpAddr, Ipv4Addr};

    fn t(src: [u8; 4], dst: [u8; 4], sp: u16, dp: u16, proto: u8) -> FiveTuple {
        FiveTuple {
            src: IpAddr::V4(Ipv4Addr::from(src)),
            dst: IpAddr::V4(Ipv4Addr::from(dst)),
            src_port: sp,
            dst_port: dp,
            proto,
        }
    }

    #[test]
    fn first_match_wins() {
        let rules = vec![
            Rule {
                src: (u32::from_be_bytes([10, 0, 0, 0]), 8),
                dst: (0, 0),
                sport: (0, u16::MAX),
                dport: (80, 80),
                proto: Some(ip_proto::TCP),
                action: Action::Deny,
            },
            Rule::any(Action::Allow),
        ];
        let acl = AclTable::new(rules, Action::Deny);
        let v = acl.classify(&t([10, 1, 1, 1], [8, 8, 8, 8], 5000, 80, ip_proto::TCP));
        assert_eq!(v.action, Action::Deny);
        assert_eq!(v.rule, Some(0));
        let v = acl.classify(&t([10, 1, 1, 1], [8, 8, 8, 8], 5000, 443, ip_proto::TCP));
        assert_eq!(v.action, Action::Allow);
        assert_eq!(v.rule, Some(1));
    }

    #[test]
    fn default_action_applies() {
        let acl = AclTable::new(vec![], Action::Deny);
        let v = acl.classify(&t([1, 1, 1, 1], [2, 2, 2, 2], 1, 2, ip_proto::UDP));
        assert_eq!(v.action, Action::Deny);
        assert_eq!(v.rule, None);
    }

    #[test]
    fn prefix_len_zero_matches_all() {
        assert!(Rule::any(Action::Allow).matches(&t([255, 0, 0, 1], [0, 0, 0, 1], 9, 9, 6)));
    }

    #[test]
    fn proto_filter() {
        let mut r = Rule::any(Action::Allow);
        r.proto = Some(ip_proto::TCP);
        assert!(r.matches(&t([1, 1, 1, 1], [2, 2, 2, 2], 1, 2, ip_proto::TCP)));
        assert!(!r.matches(&t([1, 1, 1, 1], [2, 2, 2, 2], 1, 2, ip_proto::UDP)));
    }

    #[test]
    fn ipv6_tuples_never_match_v4_rules() {
        let r = Rule::any(Action::Deny);
        let t6 = FiveTuple {
            src: IpAddr::V6([1u8; 16].into()),
            dst: IpAddr::V6([2u8; 16].into()),
            src_port: 1,
            dst_port: 2,
            proto: 17,
        };
        assert!(!r.matches(&t6));
    }

    #[test]
    fn synth_is_deterministic_and_sized() {
        let a = synth::generate(200, 7);
        let b = synth::generate(200, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 200);
        assert_ne!(a, synth::generate(200, 8));
    }

    #[test]
    fn synth_rules_are_matchable() {
        let rules = synth::generate(100, 3);
        let acl = AclTable::new(rules.clone(), Action::Allow);
        let mut rng = SmallRng::seed_from_u64(1);
        for (i, r) in rules.iter().enumerate() {
            let tuple = synth::tuple_matching(r, &mut rng);
            let v = acl.classify(&tuple);
            // An earlier rule may shadow this one, but some rule matches.
            assert!(v.rule.is_some(), "rule {i} produced unmatchable tuple");
            assert!(v.rule.unwrap() <= i);
        }
    }

    #[test]
    fn classify_v4_agrees_with_classify() {
        use rand::Rng;
        let acl = AclTable::new(synth::generate(300, 9), Action::Allow);
        let mut rng = SmallRng::seed_from_u64(2);
        let check = |tuple: FiveTuple| {
            let (IpAddr::V4(s), IpAddr::V4(d)) = (tuple.src, tuple.dst) else {
                unreachable!("synth tuples are V4")
            };
            assert_eq!(
                acl.classify(&tuple),
                acl.classify_v4(
                    u32::from(s),
                    u32::from(d),
                    tuple.src_port,
                    tuple.dst_port,
                    tuple.proto
                ),
                "diverged on {tuple:?}"
            );
        };
        for r in acl.rules().to_vec() {
            let mut tuple = synth::tuple_matching(&r, &mut rng);
            check(tuple);
            // Exercise every protocol partition (UDP/TCP fast paths and
            // the generic fallback) against the same address/port tuple.
            for proto in [ip_proto::UDP, ip_proto::TCP, 50u8, 1u8] {
                tuple.proto = proto;
                check(tuple);
            }
        }
        // Random (mostly non-matching) tuples hit the default-verdict path.
        for _ in 0..500 {
            check(t(
                rng.gen::<u32>().to_be_bytes(),
                rng.gen::<u32>().to_be_bytes(),
                rng.gen(),
                rng.gen(),
                [ip_proto::UDP, ip_proto::TCP, 50][rng.gen_range(0..3)],
            ));
        }
    }

    #[test]
    fn classify_v4_batch_agrees_with_classify_v4() {
        use rand::Rng;
        // Mix matchable tuples (deep rule hits) with random traffic and
        // sweep every row count class mod 8, plus rows outside the tuple
        // mask and a stray non-UDP/TCP protocol.
        let acl = AclTable::new(synth::generate(256, 11), Action::Allow);
        let mut rng = SmallRng::seed_from_u64(5);
        for n in [0usize, 1, 7, 8, 9, 16, 53, 200] {
            let mut src = vec![0u32; n];
            let mut dst = vec![0u32; n];
            let mut sp = vec![0u16; n];
            let mut dp = vec![0u16; n];
            let mut proto = vec![0u8; n];
            let mut bits = vec![0u64; nfc_packet::simd::bit_capacity(n)];
            for i in 0..n {
                if rng.gen::<f64>() < 0.5 && !acl.rules().is_empty() {
                    let r = acl.rules()[rng.gen_range(0..acl.len())];
                    let tuple = synth::tuple_matching(&r, &mut rng);
                    let (IpAddr::V4(s), IpAddr::V4(d)) = (tuple.src, tuple.dst) else {
                        unreachable!()
                    };
                    src[i] = u32::from(s);
                    dst[i] = u32::from(d);
                    sp[i] = tuple.src_port;
                    dp[i] = tuple.dst_port;
                    proto[i] = tuple.proto;
                } else {
                    src[i] = rng.gen();
                    dst[i] = rng.gen();
                    sp[i] = rng.gen();
                    dp[i] = rng.gen();
                    proto[i] = [ip_proto::UDP, ip_proto::TCP, 50][rng.gen_range(0..3)];
                }
                if rng.gen::<f64>() < 0.85 {
                    nfc_packet::simd::set_bit(&mut bits, i);
                }
            }
            let got = acl.classify_v4_batch(&src, &dst, &sp, &dp, &proto, &bits);
            for i in 0..n {
                if nfc_packet::simd::get_bit(&bits, i) {
                    assert_eq!(
                        got[i],
                        Some(acl.classify_v4(src[i], dst[i], sp[i], dp[i], proto[i])),
                        "n={n} row {i}"
                    );
                } else {
                    assert_eq!(got[i], None, "n={n} row {i} outside mask");
                }
            }
        }
    }

    #[test]
    fn config_hash_distinguishes_tables() {
        let a = AclTable::new(synth::generate(50, 1), Action::Allow);
        let b = AclTable::new(synth::generate(50, 2), Action::Allow);
        let a2 = AclTable::new(synth::generate(50, 1), Action::Allow);
        assert_eq!(a.config_hash(), a2.config_hash());
        assert_ne!(a.config_hash(), b.config_hash());
    }

    #[test]
    fn deny_fraction_is_about_a_quarter() {
        let rules = synth::generate(2000, 5);
        let denies = rules.iter().filter(|r| r.action == Action::Deny).count() as f64;
        assert!((denies / 2000.0 - 0.25).abs() < 0.05);
    }
}
