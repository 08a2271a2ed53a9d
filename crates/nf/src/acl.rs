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

    /// [`Rule::matches`] on raw IPv4 values (big-endian `u32`
    /// addresses), skipping `IpAddr` construction. `matches` delegates
    /// here for V4 tuples, so the two paths cannot diverge.
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

/// A [`Rule`] pre-lowered for the index walk: prefix tests become one
/// AND + compare against a precomputed mask/value pair, and the
/// protocol wildcard a sentinel compare, so no row pays a per-rule
/// shift or `IpAddr` unwrapping.
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

    /// [`Rule::matches_v4`] on the lowered form, destination first.
    fn matches(&self, src: u32, dst: u32, src_port: u16, dst_port: u16, proto: u8) -> bool {
        (dst & self.dmask) == self.dval
            && (src & self.smask) == self.sval
            && (self.dport.0..=self.dport.1).contains(&dst_port)
            && (self.sport.0..=self.sport.1).contains(&src_port)
            && (self.proto == PROTO_ANY || self.proto == u16::from(proto))
    }
}

/// Destination bits the index buckets rules on. A rule whose
/// destination prefix is at least this long sits in exactly one bucket;
/// ClassBench (and [`synth`]) destination prefixes are never shorter,
/// and the `wide` list keeps any shorter rule correct. Keys are `u16`.
const KEY_BITS: u32 = 16;

/// An ordered, first-match-wins rule table, indexed on the destination
/// prefix (a one-dimensional tuple-space search).
#[derive(Debug, Clone)]
pub struct AclTable {
    rules: Vec<Rule>,
    lowered: Vec<MaskRule>,
    /// Sorted bucket keys: the top [`KEY_BITS`] destination bits.
    keys: Vec<u16>,
    /// Bucket `k` holds `members[starts[k]..starts[k + 1]]`.
    starts: Vec<u32>,
    /// Every bucket's rule indices, each bucket in priority order.
    members: Vec<u32>,
    /// Rules with a destination shorter than /16, in priority order.
    wide: Vec<u32>,
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
        let key_mask = u32::MAX << (32 - KEY_BITS);
        let (mut bucketed, mut wide) = (Vec::new(), Vec::new());
        for (i, r) in lowered.iter().enumerate() {
            if r.dmask & key_mask == key_mask {
                bucketed.push(((r.dval >> (32 - KEY_BITS)) as u16, i as u32));
            } else {
                wide.push(i as u32);
            }
        }
        // Stable: each bucket keeps its rules in priority order.
        bucketed.sort_by_key(|&(key, _)| key);
        let (mut keys, mut starts) = (Vec::new(), Vec::new());
        for (at, &(key, _)) in bucketed.iter().enumerate() {
            if keys.last() != Some(&key) {
                keys.push(key);
                starts.push(at as u32);
            }
        }
        starts.push(bucketed.len() as u32);
        AclTable {
            rules,
            lowered,
            keys,
            starts,
            members: bucketed.into_iter().map(|(_, i)| i).collect(),
            wide,
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

    /// First-match classification by a linear scan of every rule: the
    /// reference the index ([`AclTable::classify_v4`]) is tested
    /// against, and what the per-packet path runs. The classification
    /// *tree* cost growth with rule count that Figure 17 measures is
    /// modeled by the element cost function, not by this scan.
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

    /// [`AclTable::classify`] on raw IPv4 lane values, through the
    /// destination-prefix index: the first match in the packet's bucket,
    /// then the first match among the `wide` rules that outrank it. The
    /// lower rule index wins, so the verdict (rule included) is the
    /// linear scan's.
    pub fn classify_v4(
        &self,
        src: u32,
        dst: u32,
        src_port: u16,
        dst_port: u16,
        proto: u8,
    ) -> Verdict {
        let key = (dst >> (32 - KEY_BITS)) as u16;
        let bucket = match self.keys.binary_search(&key) {
            Ok(k) => &self.members[self.starts[k] as usize..self.starts[k + 1] as usize],
            Err(_) => &[],
        };
        let hit =
            |&&i: &&u32| self.lowered[i as usize].matches(src, dst, src_port, dst_port, proto);
        let bucketed = bucket.iter().find(hit).copied();
        // Only a wide rule that outranks the bucket's match can win.
        let rank = bucketed.unwrap_or(u32::MAX);
        let wide = self
            .wide
            .iter()
            .take_while(|&&i| i < rank)
            .find(hit)
            .copied();
        match wide.or(bucketed) {
            Some(i) => Verdict {
                action: self.lowered[i as usize].action,
                rule: Some(i as usize),
            },
            None => Verdict {
                action: self.default,
                rule: None,
            },
        }
    }

    /// [`AclTable::classify_v4`] over lane columns: one verdict per row
    /// selected by the packed `tuple_bits` mask, `None` on unselected
    /// rows (the caller's per-packet fallback).
    pub fn classify_v4_batch(
        &self,
        src: &[u32],
        dst: &[u32],
        src_port: &[u16],
        dst_port: &[u16],
        proto: &[u8],
        tuple_bits: &[u64],
    ) -> Vec<Option<Verdict>> {
        (0..dst.len())
            .map(|i| {
                nfc_packet::simd::get_bit(tuple_bits, i)
                    .then(|| self.classify_v4(src[i], dst[i], src_port[i], dst_port[i], proto[i]))
            })
            .collect()
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
            // Every protocol, rule-bound or not, on the same address/port
            // tuple.
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

    /// One tuple through the index, by row and as a one-row batch; the
    /// two must agree.
    fn indexed(acl: &AclTable, t: &FiveTuple) -> Verdict {
        let (IpAddr::V4(s), IpAddr::V4(d)) = (t.src, t.dst) else {
            unreachable!("V4 tuples only")
        };
        let (s, d) = (u32::from(s), u32::from(d));
        let row = acl.classify_v4(s, d, t.src_port, t.dst_port, t.proto);
        let batch =
            acl.classify_v4_batch(&[s], &[d], &[t.src_port], &[t.dst_port], &[t.proto], &[1]);
        assert_eq!(batch, vec![Some(row)], "{t:?}");
        row
    }

    const ICMP: u8 = 1;

    fn dst_rule(dst: [u8; 4], len: u8, action: Action) -> Rule {
        Rule {
            dst: (u32::from_be_bytes(dst), len),
            ..Rule::any(action)
        }
    }

    #[test]
    fn a_wide_rule_outranks_a_later_bucketed_rule() {
        let acl = AclTable::new(
            vec![
                dst_rule([172, 16, 0, 0], 12, Action::Deny),
                dst_rule([172, 17, 2, 0], 24, Action::Allow),
            ],
            Action::Allow,
        );
        let hit = t([10, 0, 0, 1], [172, 17, 2, 9], 1, 2, ip_proto::UDP);
        let want = Verdict {
            action: Action::Deny,
            rule: Some(0),
        };
        assert_eq!(acl.classify(&hit), want);
        assert_eq!(indexed(&acl, &hit), want);
    }

    #[test]
    fn a_bucketed_rule_outranks_a_later_wide_rule() {
        let acl = AclTable::new(
            vec![
                dst_rule([172, 17, 2, 0], 24, Action::Allow),
                dst_rule([172, 16, 0, 0], 12, Action::Deny),
            ],
            Action::Allow,
        );
        for (dst, rule, action) in [
            ([172, 17, 2, 9], 0, Action::Allow),
            ([172, 17, 3, 9], 1, Action::Deny),
        ] {
            let hit = t([10, 0, 0, 1], dst, 1, 2, ip_proto::TCP);
            let want = Verdict {
                action,
                rule: Some(rule),
            };
            assert_eq!(acl.classify(&hit), want);
            assert_eq!(indexed(&acl, &hit), want);
        }
    }

    #[test]
    fn other_protocols_classify_through_the_index() {
        let icmp = Rule {
            proto: Some(ICMP),
            ..dst_rule([172, 17, 0, 0], 16, Action::Deny)
        };
        let esp = Rule {
            proto: Some(ip_proto::ESP),
            ..dst_rule([172, 16, 0, 0], 12, Action::Deny)
        };
        let acl = AclTable::new(vec![icmp, esp], Action::Allow);
        for (proto, rule) in [
            (ICMP, Some(0)),
            (ip_proto::ESP, Some(1)),
            (ip_proto::UDP, None),
        ] {
            let pkt = t([10, 0, 0, 1], [172, 17, 2, 9], 0, 0, proto);
            assert_eq!(acl.classify(&pkt).rule, rule, "proto {proto}");
            assert_eq!(indexed(&acl, &pkt).rule, rule, "proto {proto}");
        }
    }

    mod index_oracle {
        use super::*;
        use proptest::prelude::*;
        use rand::Rng;

        const PROTOS: [Option<u8>; 4] =
            [None, Some(ip_proto::TCP), Some(ip_proto::UDP), Some(ICMP)];

        fn ports((a, b): (u16, u16), wildcard: bool) -> (u16, u16) {
            if wildcard {
                (0, u16::MAX)
            } else {
                (a.min(b), a.max(b))
            }
        }

        /// Destinations /0–/32 over four /16s of 172.16.0.0/14, so
        /// buckets repeat and the `wide` list interleaves with them by
        /// rank; mixed ports, protocols and actions.
        fn rule() -> impl Strategy<Value = Rule> {
            (
                (0u32..4, any::<u16>(), 0u8..=32),
                (any::<u32>(), 0u8..=32),
                (
                    (any::<u16>(), any::<u16>()),
                    (any::<u16>(), any::<u16>()),
                    (any::<bool>(), any::<bool>()),
                ),
                0usize..PROTOS.len(),
                any::<bool>(),
            )
                .prop_map(|((base, low, dlen), src, (sp, dp, wild), proto, deny)| {
                    Rule {
                        src,
                        dst: (0xAC10_0000 | base << 16 | u32::from(low), dlen),
                        sport: ports(sp, wild.0),
                        dport: ports(dp, wild.1),
                        proto: PROTOS[proto],
                        action: if deny { Action::Deny } else { Action::Allow },
                    }
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The index, by row and by batch, and the reference scan all
            /// return the first rule that matches, on tuples built to
            /// match a random rule and on uniform ones (destinations
            /// inside the rules' /14, so buckets are probed and missed).
            #[test]
            fn index_matches_the_first_matching_rule(
                rules in collection::vec(rule(), 0..48),
                deny_default in any::<bool>(),
                rows in collection::vec((any::<bool>(), any::<u64>(), any::<bool>()), 0..80),
            ) {
                let default = if deny_default { Action::Deny } else { Action::Allow };
                let acl = AclTable::new(rules.clone(), default);
                let tuples: Vec<FiveTuple> = rows
                    .iter()
                    .map(|&(from_rule, bits, _)| {
                        let mut r = SmallRng::seed_from_u64(bits);
                        if from_rule && !rules.is_empty() {
                            synth::tuple_matching(&rules[r.gen_range(0..rules.len())], &mut r)
                        } else {
                            t(
                                r.gen::<u32>().to_be_bytes(),
                                (0xAC10_0000 | r.gen::<u32>() >> 14).to_be_bytes(),
                                r.gen(),
                                r.gen(),
                                [ip_proto::UDP, ip_proto::TCP, ICMP, ip_proto::ESP][r.gen_range(0..4)],
                            )
                        }
                    })
                    .collect();
                let (mut src, mut dst) = (Vec::new(), Vec::new());
                for tuple in &tuples {
                    let (IpAddr::V4(s), IpAddr::V4(d)) = (tuple.src, tuple.dst) else {
                        unreachable!("V4 tuples only")
                    };
                    src.push(u32::from(s));
                    dst.push(u32::from(d));
                }
                let sp: Vec<u16> = tuples.iter().map(|t| t.src_port).collect();
                let dp: Vec<u16> = tuples.iter().map(|t| t.dst_port).collect();
                let proto: Vec<u8> = tuples.iter().map(|t| t.proto).collect();
                let selected: Vec<bool> = rows.iter().map(|&(_, _, selected)| selected).collect();
                let batch = acl.classify_v4_batch(
                    &src,
                    &dst,
                    &sp,
                    &dp,
                    &proto,
                    &nfc_packet::simd::pack_bools(&selected),
                );
                prop_assert_eq!(batch.len(), tuples.len());
                for (i, tuple) in tuples.iter().enumerate() {
                    let first = rules.iter().position(|r| r.matches(tuple));
                    let want = Verdict {
                        action: first.map_or(default, |k| rules[k].action),
                        rule: first,
                    };
                    prop_assert_eq!(acl.classify(tuple), want);
                    prop_assert_eq!(acl.classify_v4(src[i], dst[i], sp[i], dp[i], proto[i]), want);
                    prop_assert_eq!(batch[i], selected[i].then_some(want));
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
