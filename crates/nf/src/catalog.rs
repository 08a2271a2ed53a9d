//! The NF catalog: assembles each network function as an element graph.
//!
//! Each constructor returns an [`Nf`] whose element graph reproduces the
//! packet-action behaviour of the paper's Table II (validated by tests
//! against [`NfKind::table2_profile`]). The firewall and IDS share a
//! structurally identical leading header-classifier element so the NF
//! synthesizer can de-duplicate it — the paper's Figure 10 example.

use crate::ac::AhoCorasick;
use crate::acl::{synth, AclTable, Action};
use crate::dfa::Dfa;
use crate::elements::{
    FirewallFilter, IdsMatch, IdsMode, IpLookup, IpsecEncrypt, IpsecSa, Ipv6Lookup, LoadBalancer,
    MacRewrite, Nat, Probe, Proxy, SessionLog, WanOptimizer,
};
use crate::lpm::{Dir24_8, RouteV4, RouteV6, WaldvogelV6};
use nfc_click::element::config_hash;
use nfc_click::elements::{CheckIpHeader, DecTtl, ProtocolClassifier};
use nfc_click::{ElementActions, ElementGraph, NodeId};
use nfc_packet::headers::{ip_proto, MacAddr};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The network function types used across the paper's experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NfKind {
    /// Passive traffic probe.
    Probe,
    /// Intrusion detection (inline: may drop).
    Ids,
    /// Deep packet inspection (alert-only IDS variant).
    Dpi,
    /// ACL firewall.
    Firewall,
    /// Source NAT.
    Nat,
    /// L4 load balancer.
    LoadBalancer,
    /// WAN optimizer (dedup).
    WanOptimizer,
    /// Application proxy.
    Proxy,
    /// IPv4 forwarder/router.
    Ipv4Forwarder,
    /// IPv6 forwarder/router.
    Ipv6Forwarder,
    /// IPsec encryption gateway.
    IpsecGateway,
}

impl NfKind {
    /// The paper's Table II action matrix for the seven NF types it lists;
    /// rows for the characterization workloads (forwarders, IPsec) follow
    /// their definitions. Fields: header/payload read, header/payload
    /// write, add/remove bytes, drop.
    pub fn table2_profile(self) -> ElementActions {
        let mk = |rh, rp, wh, wp, rs, dr| ElementActions {
            reads_header: rh,
            reads_payload: rp,
            writes_header: wh,
            writes_payload: wp,
            resizes: rs,
            may_drop: dr,
        };
        match self {
            NfKind::Probe => mk(true, false, false, false, false, false),
            NfKind::Ids => mk(true, true, false, false, false, true),
            NfKind::Dpi => mk(true, true, false, false, false, false),
            NfKind::Firewall => mk(true, false, false, false, false, false),
            NfKind::Nat => mk(true, false, true, false, false, false),
            NfKind::LoadBalancer => mk(true, false, false, false, false, false),
            NfKind::WanOptimizer => mk(true, true, true, true, true, true),
            NfKind::Proxy => mk(true, true, false, true, false, false),
            NfKind::Ipv4Forwarder => mk(true, false, true, false, false, true),
            NfKind::Ipv6Forwarder => mk(true, false, true, false, false, true),
            NfKind::IpsecGateway => mk(true, true, true, true, true, false),
        }
    }

    /// Short display label used by experiment output.
    pub fn label(self) -> &'static str {
        match self {
            NfKind::Probe => "Probe",
            NfKind::Ids => "IDS",
            NfKind::Dpi => "DPI",
            NfKind::Firewall => "FW",
            NfKind::Nat => "NAT",
            NfKind::LoadBalancer => "LB",
            NfKind::WanOptimizer => "WanOpt",
            NfKind::Proxy => "Proxy",
            NfKind::Ipv4Forwarder => "IPv4",
            NfKind::Ipv6Forwarder => "IPv6",
            NfKind::IpsecGateway => "IPsec",
        }
    }
}

impl std::fmt::Display for NfKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A named network function: an element graph plus its kind.
#[derive(Debug, Clone)]
pub struct Nf {
    name: String,
    kind: NfKind,
    graph: ElementGraph,
}

impl Nf {
    /// Wraps an arbitrary element graph as an NF.
    pub fn from_graph(name: impl Into<String>, kind: NfKind, graph: ElementGraph) -> Self {
        Nf {
            name: name.into(),
            kind,
            graph,
        }
    }

    /// Instance name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// NF type.
    pub fn kind(&self) -> NfKind {
        self.kind
    }

    /// The element graph.
    pub fn graph(&self) -> &ElementGraph {
        &self.graph
    }

    /// Consumes the NF, returning its graph.
    pub fn into_graph(self) -> ElementGraph {
        self.graph
    }

    /// The single entry node.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no entry (cannot happen for catalog NFs).
    pub fn entry(&self) -> NodeId {
        self.graph.entries()[0]
    }

    /// True if any element keeps cross-packet state (flow tables,
    /// dedup caches) — used by the orchestrator's stateful-past-dropper
    /// rule.
    pub fn is_stateful(&self) -> bool {
        self.graph
            .node_ids()
            .any(|id| self.graph.element(id).class() == nfc_click::ElementClass::Stateful)
    }

    /// Action profile derived from the graph: the union of all element
    /// actions. For the NF types in the paper's Table II this equals
    /// [`NfKind::table2_profile`] (asserted by tests).
    pub fn action_profile(&self) -> ElementActions {
        self.graph
            .node_ids()
            .map(|id| self.graph.element(id).actions())
            .fold(ElementActions::default(), ElementActions::union)
    }

    // -- catalog constructors -------------------------------------------

    /// A passive probe.
    pub fn probe(name: impl Into<String>) -> Self {
        let mut g = ElementGraph::new();
        g.add(Probe::new());
        Nf::from_graph(name, NfKind::Probe, g)
    }

    /// The shared leading classifier the firewall and IDS both use
    /// (Figure 10's de-duplicable "header classifier").
    fn header_classifier() -> ProtocolClassifier {
        ProtocolClassifier::new("hdr-classifier", vec![ip_proto::TCP, ip_proto::UDP])
    }

    /// A firewall with `n_rules` synthetic ClassBench-style rules.
    /// Matches the paper's evaluation setup: deny rules are counted, not
    /// enforced (Table II: firewall Drop = N).
    pub fn firewall(name: impl Into<String>, n_rules: usize, seed: u64) -> Self {
        Self::firewall_with(name, synth::generate(n_rules, seed), false)
    }

    /// A firewall over explicit rules; `enforce` turns on inline dropping.
    pub fn firewall_with(
        name: impl Into<String>,
        rules: Vec<crate::acl::Rule>,
        enforce: bool,
    ) -> Self {
        let acl = Arc::new(AclTable::new(rules, Action::Allow));
        let mut g = ElementGraph::new();
        let cl = g.add(Self::header_classifier());
        let fw = g.add(FirewallFilter::new(acl, enforce));
        g.connect(cl, 0, fw).expect("valid wiring");
        Nf::from_graph(name, NfKind::Firewall, g)
    }

    /// A session-logging firewall (NetScreen/ASA-style built / teardown
    /// / deny records): tracks up to `capacity` concurrent flows in a
    /// CLOCK table and cuts a structured record per session lifecycle
    /// transition, drained by the runtime into `session` telemetry
    /// events. `deny_rules` (possibly empty) classifies flows against an
    /// ACL; denies are recorded, not enforced, matching the paper's
    /// never-drop firewall setup (Table II: firewall Drop = N).
    pub fn session_log(
        name: impl Into<String>,
        capacity: usize,
        deny_rules: Vec<crate::acl::Rule>,
    ) -> Self {
        let deny =
            (!deny_rules.is_empty()).then(|| Arc::new(AclTable::new(deny_rules, Action::Allow)));
        let mut g = ElementGraph::new();
        let cl = g.add(Self::header_classifier());
        let sl = g.add(SessionLog::new(capacity, deny));
        g.connect(cl, 0, sl).expect("valid wiring");
        Nf::from_graph(name, NfKind::Firewall, g)
    }

    /// The default IDS signature set: uppercase fixed strings (so the
    /// traffic generator's lowercase no-match filler never hits) plus two
    /// realistic regex rules.
    pub fn default_ids_signatures() -> Vec<Vec<u8>> {
        [
            "ATTACK_SHELLCODE",
            "SQL_UNION_SELECT",
            "CMD_EXEC_BIN_SH",
            "XSS_SCRIPT_TAG",
            "TRAVERSAL_DOTDOT",
            "BOTNET_BEACON_77",
            "RANSOM_NOTE_HDR",
            "EXPLOIT_CVE_0DAY",
        ]
        .iter()
        .map(|s| s.as_bytes().to_vec())
        .collect()
    }

    pub(crate) fn default_ids_dfas() -> Vec<Dfa> {
        vec![
            Dfa::compile(r"GET /[\w/]*\.php\?\w+=").expect("static pattern compiles"),
            Dfa::compile(r"USER \w+ PASS \w+").expect("static pattern compiles"),
        ]
    }

    /// An inline IDS (drops on match) with the default rule set.
    pub fn ids(name: impl Into<String>) -> Self {
        Self::ids_with(
            name,
            Self::default_ids_signatures(),
            Self::default_ids_dfas(),
            IdsMode::Drop,
        )
    }

    /// An alert-only DPI with the default rule set.
    pub fn dpi(name: impl Into<String>) -> Self {
        Self::ids_with(
            name,
            Self::default_ids_signatures(),
            Self::default_ids_dfas(),
            IdsMode::Alert,
        )
    }

    /// An IDS/DPI over explicit rules.
    pub fn ids_with(
        name: impl Into<String>,
        patterns: Vec<Vec<u8>>,
        dfas: Vec<Dfa>,
        mode: IdsMode,
    ) -> Self {
        let cfg = ids_rules_hash(&patterns, dfas.iter().map(|d| d.pattern()));
        let ac = Arc::new(AhoCorasick::new(patterns));
        let kind = if mode == IdsMode::Drop {
            NfKind::Ids
        } else {
            NfKind::Dpi
        };
        let mut g = ElementGraph::new();
        let cl = g.add(Self::header_classifier());
        let ids = g.add(IdsMatch::new(ac, Arc::new(dfas), mode, cfg));
        g.connect(cl, 0, ids).expect("valid wiring");
        Nf::from_graph(name, kind, g)
    }

    /// A source NAT.
    pub fn nat(name: impl Into<String>, public_ip: [u8; 4]) -> Self {
        let mut g = ElementGraph::new();
        g.add(Nat::new(public_ip));
        Nf::from_graph(name, NfKind::Nat, g)
    }

    /// An L4 load balancer with `backends` outputs.
    pub fn load_balancer(name: impl Into<String>, backends: usize) -> Self {
        let mut g = ElementGraph::new();
        g.add(LoadBalancer::new("lb", backends));
        Nf::from_graph(name, NfKind::LoadBalancer, g)
    }

    /// A WAN optimizer.
    pub fn wan_optimizer(name: impl Into<String>) -> Self {
        let mut g = ElementGraph::new();
        g.add(WanOptimizer::new(4096, 3));
        Nf::from_graph(name, NfKind::WanOptimizer, g)
    }

    /// An application proxy rewriting a host token.
    pub fn proxy(name: impl Into<String>) -> Self {
        let mut g = ElementGraph::new();
        g.add(Proxy::new(
            &b"Host: origin.internal"[..],
            &b"Host: cache.edge.net"[..],
        ));
        Nf::from_graph(name, NfKind::Proxy, g)
    }

    /// An IPv4 forwarder over `n_routes` synthetic routes.
    pub fn ipv4_forwarder(name: impl Into<String>, n_routes: usize, seed: u64) -> Self {
        Self::ipv4_forwarder_with(name, synth_routes_v4(n_routes, seed))
    }

    /// An IPv4 forwarder over explicit routes.
    pub fn ipv4_forwarder_with(name: impl Into<String>, routes: Vec<RouteV4>) -> Self {
        let mut cfg_bytes = Vec::new();
        for r in &routes {
            cfg_bytes.extend_from_slice(&r.prefix.to_be_bytes());
            cfg_bytes.push(r.len);
            cfg_bytes.extend_from_slice(&r.next_hop.to_be_bytes());
        }
        let cfg = config_hash(&cfg_bytes);
        // 20 first-level bits: same two-access pattern as DIR-24-8 at 4 MB
        // instead of 64 MB per table (documented in DESIGN.md).
        let table = Arc::new(Dir24_8::from_routes(&routes, 20));
        let mut g = ElementGraph::new();
        let chk = g.add(CheckIpHeader::new());
        let lk = g.add(IpLookup::new(table, cfg));
        let ttl = g.add(DecTtl::new());
        let mac = g.add(MacRewrite::new(MacAddr([0x02, 0, 0, 0, 0, 0x10])));
        g.connect_chain(&[chk, lk, ttl, mac]).expect("valid wiring");
        Nf::from_graph(name, NfKind::Ipv4Forwarder, g)
    }

    /// An IPv6 forwarder over `n_routes` synthetic routes.
    pub fn ipv6_forwarder(name: impl Into<String>, n_routes: usize, seed: u64) -> Self {
        let routes = synth_routes_v6(n_routes, seed);
        let mut cfg_bytes = Vec::new();
        for r in &routes {
            cfg_bytes.extend_from_slice(&r.prefix.to_be_bytes());
            cfg_bytes.push(r.len);
        }
        let cfg = config_hash(&cfg_bytes);
        let table = Arc::new(WaldvogelV6::build(&routes));
        let mut g = ElementGraph::new();
        let chk = g.add(CheckIpHeader::new());
        let lk = g.add(Ipv6Lookup::new(table, cfg));
        let ttl = g.add(DecTtl::new());
        let mac = g.add(MacRewrite::new(MacAddr([0x02, 0, 0, 0, 0, 0x11])));
        g.connect_chain(&[chk, lk, ttl, mac]).expect("valid wiring");
        Nf::from_graph(name, NfKind::Ipv6Forwarder, g)
    }

    /// A stateful, stream-aware IDS: TCP stream reassembly followed by a
    /// cross-packet Aho–Corasick matcher (catches signatures split over
    /// segment boundaries; paper §III-B1b's buffering-based stateful
    /// processing).
    pub fn stream_ids(name: impl Into<String>) -> Self {
        use crate::stateful::{StreamIds, StreamReassembly};
        let patterns = Self::default_ids_signatures();
        let cfg = ids_rules_hash(&patterns, []);
        let ac = Arc::new(AhoCorasick::new(patterns));
        let mut g = ElementGraph::new();
        let re = g.add(StreamReassembly::new());
        let ids = g.add(StreamIds::new(ac, cfg));
        g.connect(re, 0, ids).expect("valid wiring");
        Nf::from_graph(name, NfKind::Ids, g)
    }

    /// An IPsec encryption gateway with the example SA.
    pub fn ipsec(name: impl Into<String>) -> Self {
        Self::ipsec_with(name, IpsecSa::example())
    }

    /// An IPsec encryption gateway with an explicit SA.
    pub fn ipsec_with(name: impl Into<String>, sa: IpsecSa) -> Self {
        let mut g = ElementGraph::new();
        g.add(IpsecEncrypt::new(sa));
        Nf::from_graph(name, NfKind::IpsecGateway, g)
    }
}

/// Configuration hash of an IDS rule set: one hash over every literal
/// and regex, each length-prefixed behind a domain tag, so no two
/// distinct rule sets share a signature by how their bytes concatenate
/// (`["AB", "C"]` vs `["A", "BC"]`).
fn ids_rules_hash<'a>(literals: &[Vec<u8>], regexes: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut bytes = Vec::new();
    let rules = literals
        .iter()
        .map(|l| (b'L', l.as_slice()))
        .chain(regexes.into_iter().map(|r| (b'R', r.as_bytes())));
    for (tag, rule) in rules {
        bytes.push(tag);
        bytes.extend_from_slice(&(rule.len() as u64).to_be_bytes());
        bytes.extend_from_slice(rule);
    }
    config_hash(&bytes)
}

/// Generates `n` deterministic IPv4 routes covering the traffic
/// generator's default destination pool (172.16.0.0/12) plus random
/// prefixes, so forwarder NFs route the default workloads.
pub fn synth_routes_v4(n: usize, seed: u64) -> Vec<RouteV4> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut routes = vec![
        RouteV4 {
            prefix: 0,
            len: 0,
            next_hop: 0,
        },
        RouteV4 {
            prefix: u32::from_be_bytes([172, 16, 0, 0]),
            len: 12,
            next_hop: 1,
        },
    ];
    routes.extend((0..n.saturating_sub(2)).map(|i| {
        let len = *[12u8, 16, 20, 24].get(i % 4).unwrap();
        RouteV4 {
            prefix: rng.gen::<u32>() >> (32 - u32::from(len)) << (32 - u32::from(len)),
            len,
            next_hop: (i % 250) as u32 + 2,
        }
    }));
    routes
}

/// Generates `n` deterministic IPv6 routes covering the traffic
/// generator's 2001::/16 source pool.
pub fn synth_routes_v6(n: usize, seed: u64) -> Vec<RouteV6> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let base = (0x2001u128) << 112;
    let mut routes = vec![RouteV6 {
        prefix: base,
        len: 16,
        next_hop: 1,
    }];
    routes.extend((0..n.saturating_sub(1)).map(|i| {
        let len = *[24u8, 32, 40, 48, 56, 64].get(i % 6).unwrap();
        // Random bits between the /16 base and the prefix length,
        // top-aligned as RouteV6 requires.
        let extra_bits = u32::from(len) - 16;
        let rand_top: u128 = (rng.gen::<u128>() >> (128 - extra_bits)) << (128 - u32::from(len));
        RouteV6 {
            prefix: base | rand_top,
            len,
            next_hop: (i % 250) as u32 + 2,
        }
    }));
    routes
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfc_click::{ElementClass, ElementSignature, WorkProfile};
    use nfc_packet::traffic::{PayloadPolicy, SizeDist, TrafficGenerator, TrafficSpec};

    fn drive(nf: &Nf, batch: nfc_packet::Batch) -> nfc_packet::Batch {
        let mut run = nf.graph().clone().compile().expect("compiles");
        run.push_merged(nf.entry(), batch)
    }

    #[test]
    fn all_catalog_nfs_compile_and_run() {
        let nfs = vec![
            Nf::probe("p"),
            Nf::firewall("fw", 200, 1),
            Nf::ids("ids"),
            Nf::dpi("dpi"),
            Nf::nat("nat", [203, 0, 113, 1]),
            Nf::load_balancer("lb", 4),
            Nf::wan_optimizer("wan"),
            Nf::proxy("proxy"),
            Nf::ipv4_forwarder("r4", 1000, 2),
            Nf::ipsec("ipsec"),
        ];
        let mut gen = TrafficGenerator::new(
            TrafficSpec::udp(SizeDist::Imix).with_payload(PayloadPolicy::Random),
            1,
        );
        for nf in &nfs {
            let out = drive(nf, gen.batch(32));
            // Every NF passes most traffic (drops only malformed/denied).
            assert!(
                nf.kind() == NfKind::Ids || out.len() >= 16,
                "{} swallowed traffic: {} out",
                nf.name(),
                out.len()
            );
        }
    }

    #[test]
    fn table2_profiles_match_derived_profiles() {
        let cases = vec![
            Nf::probe("p"),
            Nf::firewall("fw", 100, 1),
            Nf::ids("ids"),
            Nf::nat("nat", [1, 2, 3, 4]),
            Nf::load_balancer("lb", 2),
            Nf::wan_optimizer("wan"),
            Nf::proxy("proxy"),
            Nf::ipsec("ipsec"),
        ];
        for nf in cases {
            assert_eq!(
                nf.action_profile(),
                nf.kind().table2_profile(),
                "profile mismatch for {}",
                nf.name()
            );
        }
    }

    #[test]
    fn ipv4_forwarder_routes_default_traffic() {
        let nf = Nf::ipv4_forwarder("r4", 100, 7);
        let mut gen = TrafficGenerator::new(TrafficSpec::udp(SizeDist::Fixed(128)), 5);
        let batch = gen.batch(64);
        let out = drive(&nf, batch);
        // Default route + 172.16/12 route cover everything.
        assert_eq!(out.len(), 64);
        // TTL decremented, MACs rewritten.
        let p = out.get(0).unwrap();
        assert_eq!(p.ipv4().unwrap().ttl, 63);
        assert_eq!(p.ethernet().unwrap().src, MacAddr([0x02, 0, 0, 0, 0, 0x10]));
    }

    #[test]
    fn ipv6_forwarder_routes_v6_traffic() {
        use nfc_packet::traffic::IpVersion;
        let nf = Nf::ipv6_forwarder("r6", 100, 7);
        let spec = TrafficSpec::udp(SizeDist::Fixed(128)).with_ip_version(IpVersion::V6);
        let mut gen = TrafficGenerator::new(spec, 5);
        let out = drive(&nf, gen.batch(32));
        assert_eq!(out.len(), 32);
        assert_eq!(out.get(0).unwrap().ipv6().unwrap().hop_limit, 63);
    }

    #[test]
    fn ids_drops_exactly_matching_traffic() {
        let nf = Nf::ids("ids");
        let sigs = Nf::default_ids_signatures();
        let spec = TrafficSpec::udp(SizeDist::Fixed(256)).with_payload(PayloadPolicy::MatchRatio {
            patterns: sigs,
            ratio: 0.5,
        });
        let mut gen = TrafficGenerator::new(spec, 9);
        let batch = gen.batch(400);
        let out = drive(&nf, batch);
        let frac = out.len() as f64 / 400.0;
        assert!((frac - 0.5).abs() < 0.08, "pass fraction {frac}");
    }

    #[test]
    fn firewall_and_ids_share_header_classifier_signature() {
        let fw = Nf::firewall("fw", 50, 1);
        let ids = Nf::ids("ids");
        let sig_of = |nf: &Nf| {
            nf.graph()
                .node_ids()
                .map(|id| nf.graph().element(id).signature())
                .find(|s| s.kind == "proto-classifier")
                .expect("has classifier")
        };
        assert_eq!(sig_of(&fw), sig_of(&ids));
    }

    #[test]
    fn distinct_ids_rule_sets_have_distinct_signatures() {
        let sig = |literals: &[&str], regex: Option<&str>| {
            let literals = literals.iter().map(|l| l.as_bytes().to_vec()).collect();
            let dfas = regex
                .map(|r| Dfa::compile(r).expect("compiles"))
                .into_iter()
                .collect();
            let nf = Nf::ids_with("ids", literals, dfas, IdsMode::Drop);
            let g = nf.graph();
            let sigs: Vec<_> = g.node_ids().map(|id| g.element(id).signature()).collect();
            sigs.into_iter()
                .find(|s| s.kind == "ids-match")
                .expect("has matcher")
        };
        // Same bytes, split differently.
        assert_ne!(sig(&["AB", "C"], None), sig(&["A", "BC"], None));
        // Same bytes as a literal and as a regex.
        assert_ne!(sig(&["A.B"], None), sig(&[], Some("A.B")));
        assert_eq!(sig(&["AB", "C"], None), sig(&["AB", "C"], None));
    }

    #[test]
    fn synth_routes_cover_defaults() {
        let routes = synth_routes_v4(100, 1);
        let table = Dir24_8::from_routes(&routes, 16);
        assert!(table.lookup(u32::from_be_bytes([172, 16, 5, 5])).is_some());
        assert!(table.lookup(u32::from_be_bytes([8, 8, 8, 8])).is_some()); // default
        let v6 = synth_routes_v6(50, 1);
        let w = WaldvogelV6::build(&v6);
        let addr = (0x2001u128) << 112 | 0xABCD;
        assert!(w.lookup(addr).is_some());
    }

    #[test]
    fn nf_kind_labels_are_unique() {
        let kinds = [
            NfKind::Probe,
            NfKind::Ids,
            NfKind::Dpi,
            NfKind::Firewall,
            NfKind::Nat,
            NfKind::LoadBalancer,
            NfKind::WanOptimizer,
            NfKind::Proxy,
            NfKind::Ipv4Forwarder,
            NfKind::Ipv6Forwarder,
            NfKind::IpsecGateway,
        ];
        let labels: std::collections::HashSet<_> = kinds.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), kinds.len());
    }

    /// What every node of `g` reports about itself: its state, its
    /// signature and its cost.
    fn node_reports(g: &ElementGraph) -> Vec<(usize, ElementSignature, WorkProfile)> {
        g.node_ids()
            .map(|id| {
                let el = g.element(id);
                (el.state_bytes(), el.signature(), el.work())
            })
            .collect()
    }

    /// Cloning is the blanket `ElementClone`, so every element kind of
    /// the catalog must clone deep: driving a clone of an NF with
    /// stateful traffic leaves the original as built. A second clone
    /// taken afterwards reports at every node what a freshly built NF
    /// reports, and turns the same traffic into the same egress bytes
    /// and `GraphStats`.
    #[test]
    fn a_driven_clone_leaves_every_catalog_nf_as_built() {
        use crate::acl::Rule;
        use nfc_packet::traffic::{FlowSpec, IpVersion};
        // Each NF, and whether driving it changes what its nodes report
        // (live flow state, or the matchers' content terms).
        let catalog: [(fn() -> Nf, bool); 14] = [
            (|| Nf::probe("probe"), false),
            (|| Nf::firewall("fw", 64, 1), false),
            (
                || {
                    let deny = Rule {
                        dst: (u32::from_be_bytes([172, 16, 0, 0]), 14),
                        dport: (0, 32767),
                        ..Rule::any(Action::Deny)
                    };
                    Nf::firewall_with("fw-deny", vec![deny], true)
                },
                false,
            ),
            (
                || Nf::session_log("session", 64, synth::generate(64, 2)),
                true,
            ),
            (|| Nf::ids("ids"), true),
            (|| Nf::dpi("dpi"), true),
            (|| Nf::stream_ids("stream-ids"), true),
            (|| Nf::nat("nat", [203, 0, 113, 1]), true),
            (|| Nf::load_balancer("lb", 4), false),
            (|| Nf::wan_optimizer("wan"), true),
            (|| Nf::proxy("proxy"), false),
            (|| Nf::ipv4_forwarder("r4", 64, 3), false),
            (|| Nf::ipv6_forwarder("r6", 64, 4), false),
            (|| Nf::ipsec("ipsec"), false),
        ];
        // Eight flows repeated over six batches, two of them IPv6, half
        // the payloads carrying an IDS signature.
        let traffic = |ip| {
            let spec = TrafficSpec::tcp(SizeDist::Fixed(256))
                .with_ip_version(ip)
                .with_flows(FlowSpec {
                    count: 8,
                    ..FlowSpec::default()
                })
                .with_payload(PayloadPolicy::MatchRatio {
                    patterns: Nf::default_ids_signatures(),
                    ratio: 0.5,
                });
            TrafficGenerator::new(spec, 9)
        };
        let (mut v4, mut v6) = (traffic(IpVersion::V4), traffic(IpVersion::V6));
        let batches: Vec<_> = (0..6)
            .map(|i| {
                if i % 3 == 2 {
                    v6.batch(32)
                } else {
                    v4.batch(32)
                }
            })
            .collect();
        let drive_all = |g: ElementGraph, entry: NodeId| {
            let mut run = g.compile().expect("compiles");
            let mut egress = Vec::new();
            for (t, b) in batches.iter().enumerate() {
                let out = run.push_at(entry, b.clone(), t as u64 * 10_000);
                egress.extend(out.into_iter().map(|e| (e.node, e.port, e.batch)));
            }
            (egress, run)
        };
        for (build, driving_shows) in catalog {
            let original = build();
            let (_, driven) = drive_all(original.graph().clone(), original.entry());
            let second = original.clone();
            let fresh = build();
            let name = fresh.name();
            assert_eq!(
                node_reports(second.graph()),
                node_reports(fresh.graph()),
                "{name}: a clone taken after driving another is not as built"
            );
            assert_eq!(
                node_reports(driven.graph()) != node_reports(fresh.graph()),
                driving_shows,
                "{name}: the traffic should (or should not) show in the driven clone"
            );
            for id in driven.graph().node_ids() {
                let el = driven.graph().element(id);
                assert!(
                    el.class() != ElementClass::Stateful || el.state_bytes() > 0,
                    "{name}: stateful `{}` reports no state after driving",
                    el.name()
                );
            }
            let (second_out, second_run) = drive_all(second.into_graph(), original.entry());
            let (fresh_out, fresh_run) = drive_all(fresh.graph().clone(), fresh.entry());
            assert!(!fresh_out.is_empty(), "{name} forwarded nothing");
            assert!(second_out == fresh_out, "{name}: egress differs");
            assert_eq!(second_run.stats(), fresh_run.stats(), "{name}");
            assert_eq!(
                node_reports(second_run.graph()),
                node_reports(fresh_run.graph()),
                "{name}"
            );
        }
    }
}

#[cfg(test)]
mod stream_ids_tests {
    use super::*;
    use nfc_packet::headers::tcp_flags;
    use nfc_packet::{Batch, Packet};

    fn tcp_seg(flow_port: u16, seq_no: u32, payload: &[u8], pkt_seq: u64) -> Packet {
        let mut p = Packet::ipv4_tcp(
            [10, 0, 0, 1],
            [172, 16, 0, 1],
            flow_port,
            443,
            payload,
            tcp_flags::ACK,
        );
        let mut t = p.tcp().expect("tcp");
        t.seq = seq_no;
        p.set_tcp(&t).expect("set");
        p.meta.seq = pkt_seq;
        p
    }

    #[test]
    fn stream_ids_nf_catches_split_signature_even_out_of_order() {
        let nf = Nf::stream_ids("sids");
        assert!(nf.is_stateful());
        let mut run = nf.graph().clone().compile().expect("compiles");
        // Signature "SQL_UNION_SELECT" split across two segments that
        // arrive out of order; reassembly must reorder, streaming match
        // must fire.
        let batch: Batch = [
            tcp_seg(1000, 8, b"_SELECTzz", 0), // future segment first
            tcp_seg(1000, 0, b"xxSQL_UNION", 1),
            tcp_seg(2000, 0, b"innocent data", 2),
        ]
        .into_iter()
        .collect();
        let out = run.push_merged(nf.entry(), batch);
        // The completing segment of the malicious flow is dropped; the
        // innocent flow and the first (not-yet-matching) segment pass.
        let survivors: Vec<u64> = out.iter().map(|p| p.meta.seq).collect();
        assert!(survivors.contains(&2), "innocent flow passes");
        assert_eq!(out.len(), 2, "one segment of the malicious flow dropped");
    }

    #[test]
    fn stream_ids_profile_is_stateful_dropper() {
        let nf = Nf::stream_ids("sids");
        let p = nf.action_profile();
        assert!(p.may_drop && p.reads_payload && !p.writes_payload);
    }
}

/// The IDS against its reference scans (`AhoCorasick::is_match` and
/// `Dfa::is_match`, packet by packet) on well-formed and hostile frames.
#[cfg(test)]
mod ids_tests {
    use super::*;
    use nfc_click::element::{Element, RunCtx};
    use nfc_packet::headers::tcp_flags;
    use nfc_packet::{Batch, Packet};
    use proptest::prelude::*;

    /// Payload pieces: signatures, halves that join into one, regex
    /// material, and filler.
    const TOKENS: [&[u8]; 8] = [
        b"ATTACK_SHELLCODE",
        b"SQL_UNION",
        b"_SELECT",
        b"GET /a/b.php?id=",
        b"USER bob PASS pw",
        b"USER ",
        b"zzzzzzzzzzzzzzzzzzzzzzzz",
        b"q",
    ];

    /// UDP/TCP over IPv4, IPv6 UDP, and hostile frames: cut anywhere
    /// (zero-length included), non-IP, and cut inside the L4 header.
    fn frame(kind: u8, tokens: &[usize], cut: usize, seq: usize) -> Packet {
        let payload: Vec<u8> = tokens.iter().flat_map(|&t| TOKENS[t]).copied().collect();
        let (src, dst) = ([10, 0, 0, 1], [172, 16, 0, 9]);
        let udp = Packet::ipv4_udp(src, dst, 4444, 80, &payload);
        let tcp = Packet::ipv4_tcp(src, dst, 5555, 443, &payload, tcp_flags::ACK);
        let cut_to = |p: &Packet, len: usize| Packet::from_bytes(p.data()[..len].to_vec());
        let mut p = match kind {
            0 | 1 => udp,
            2 => tcp,
            3 => {
                let (mut s6, mut d6) = ([0u8; 16], [0u8; 16]);
                (s6[0], s6[15], d6[0], d6[15]) = (0x20, 1, 0x20, 2);
                Packet::ipv6_udp(s6, d6, 6666, 53, &payload)
            }
            4 => cut_to(&udp, cut % (udp.len() + 1)),
            5 => Packet::from_bytes(Vec::new()),
            6 => {
                let mut bytes = udp.data().to_vec();
                bytes[12..14].copy_from_slice(&[0x88, 0xB5]);
                Packet::from_bytes(bytes)
            }
            7 => cut_to(&udp, 34 + cut % 8),
            _ => cut_to(&tcp, 34 + cut % 20),
        };
        p.meta.seq = seq as u64;
        p
    }

    fn frames(rows: &[(u8, Vec<usize>, usize)], first_seq: usize) -> Batch {
        rows.iter()
            .enumerate()
            .map(|(i, (kind, tokens, cut))| frame(*kind, tokens, *cut, first_seq + i))
            .collect()
    }

    fn rows(max: usize) -> impl Strategy<Value = Vec<(u8, Vec<usize>, usize)>> {
        collection::vec(
            (
                0u8..9,
                collection::vec(0usize..TOKENS.len(), 0..8),
                any::<usize>(),
            ),
            0..max,
        )
    }

    fn seqs(b: &Batch) -> Vec<u64> {
        b.iter().map(|p| p.meta.seq).collect()
    }

    /// `IdsMatch` as it was before the product automaton: the reference
    /// scans per packet, with the element's alert accounting.
    struct Reference {
        ac: AhoCorasick,
        dfas: Vec<Dfa>,
        drop: bool,
        alerts: u64,
        recent_alerts: f64,
        recent_processed: f64,
    }

    impl Reference {
        fn hit(&self, p: &Packet) -> bool {
            let payload = p.l4_payload().unwrap_or(&[]);
            self.ac.is_match(payload) || self.dfas.iter().any(|d| d.is_match(payload))
        }

        fn process(&mut self, batch: &Batch) -> Batch {
            let hit: Vec<bool> = batch.iter().map(|p| self.hit(p)).collect();
            let alerts = hit.iter().filter(|&&h| h).count();
            self.alerts += alerts as u64;
            self.recent_alerts += alerts as f64;
            self.recent_processed += hit.len() as f64;
            if self.recent_processed > 2048.0 {
                self.recent_alerts /= 2.0;
                self.recent_processed /= 2.0;
            }
            batch
                .iter()
                .zip(&hit)
                .filter(|&(_, &h)| !(self.drop && h))
                .map(|(p, _)| p.clone())
                .collect()
        }

        fn match_fraction(&self) -> f64 {
            if self.recent_processed < 1.0 {
                0.0
            } else {
                (self.recent_alerts / self.recent_processed).clamp(0.0, 1.0)
            }
        }
    }

    fn rule_set(match_empty: bool) -> (Vec<Vec<u8>>, Vec<Dfa>) {
        let mut dfas = Nf::default_ids_dfas();
        if match_empty {
            dfas.push(Dfa::compile("").expect("compiles"));
        }
        (Nf::default_ids_signatures(), dfas)
    }

    #[test]
    fn unparseable_frames_scan_as_the_empty_payload() {
        // A non-IP frame carrying a signature: no L4 payload to scan.
        let junk: Batch = [frame(6, &[0], 0, 0)].into_iter().collect();
        assert!(junk.get(0).expect("one frame").l4_payload().is_err());
        for (match_empty, alerts) in [(false, 0), (true, 1)] {
            let (literals, dfas) = rule_set(match_empty);
            let ac = Arc::new(AhoCorasick::new(literals));
            let mut ids = IdsMatch::new(ac, Arc::new(dfas), IdsMode::Alert, 0);
            ids.process(junk.clone(), &mut RunCtx::default());
            assert_eq!(ids.alerts(), alerts, "match_empty = {match_empty}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Egress, `alerts()` and `match_fraction()` bits equal the
        /// per-packet reference, in both modes, over enough batches for
        /// the recent-match window to decay.
        #[test]
        fn ids_match_equals_per_packet_reference(
            batches in collection::vec(rows(400), 1..10),
            drop in any::<bool>(),
            match_empty in any::<bool>(),
        ) {
            let (literals, dfas) = rule_set(match_empty);
            let mode = if drop { IdsMode::Drop } else { IdsMode::Alert };
            let ac = Arc::new(AhoCorasick::new(&literals));
            let mut ids = IdsMatch::new(ac, Arc::new(dfas.clone()), mode, 0);
            let mut reference = Reference {
                ac: AhoCorasick::new(&literals),
                dfas,
                drop,
                alerts: 0,
                recent_alerts: 0.0,
                recent_processed: 0.0,
            };
            let mut seq = 0;
            for rows in &batches {
                let batch = frames(rows, seq);
                seq += rows.len();
                let want = reference.process(&batch);
                let got = ids.process(batch, &mut RunCtx::default());
                prop_assert_eq!(got, vec![want]);
            }
            prop_assert_eq!(ids.alerts(), reference.alerts);
            prop_assert_eq!(ids.match_fraction().to_bits(), reference.match_fraction().to_bits());
        }

        /// Hostile frames through the catalog IDS and DPI: nothing
        /// panics, the DPI passes everything, and the IDS drops exactly
        /// the TCP/UDP frames whose payload (empty when it does not
        /// parse) matches.
        #[test]
        fn hostile_frames_through_ids_and_dpi(rows in rows(64)) {
            let batch = frames(&rows, 0);
            let (literals, dfas) = rule_set(false);
            let reference = Reference {
                ac: AhoCorasick::new(literals),
                dfas,
                drop: true,
                alerts: 0,
                recent_alerts: 0.0,
                recent_processed: 0.0,
            };
            let scanned = |p: &Packet| {
                matches!(p.ip_protocol(), Ok(ip_proto::TCP | ip_proto::UDP)) && reference.hit(p)
            };
            let want: Vec<u64> = batch.iter().filter(|p| !scanned(p)).map(|p| p.meta.seq).collect();
            let run = |nf: Nf| {
                let mut run = nf.graph().clone().compile().expect("compiles");
                run.push_merged(nf.entry(), batch.clone())
            };
            prop_assert_eq!(seqs(&run(Nf::ids("ids"))), want);
            prop_assert_eq!(seqs(&run(Nf::dpi("dpi"))), seqs(&batch));
        }
    }
}
