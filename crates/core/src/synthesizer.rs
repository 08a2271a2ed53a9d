//! The NF synthesizer: merging consecutive NFs' element graphs.
//!
//! §IV-B2 lists four sources of redundancy in chained Click NFs —
//! repeated network I/O, late drops, repeated general elements (IP
//! lookup, header classification), and repeated field writes. The
//! synthesizer concatenates the element graphs of a sequential NF chain
//! and then:
//!
//! 1. **De-duplicates** elements whose [`ElementSignature`]s match an
//!    earlier element that is still *valid* (no intervening element wrote
//!    a packet region the earlier element read) — Figure 10's shared
//!    header classifier.
//! 2. **Hoists droppers**: read-only, drop-capable elements bubble ahead
//!    of modifiers whose write set is disjoint from their read set, so
//!    doomed packets stop consuming compute. Per the paper's rule,
//!    "classifiers are not allowed to move across modifiers or shapers"
//!    unless provably disjoint, and nothing moves across stateful
//!    elements.
//!
//! [`ElementSignature`]: nfc_click::ElementSignature

use nfc_click::element::{Element, ElementActions, ElementClass, ElementSignature};
use nfc_click::{ElementGraph, NodeId};
use nfc_nf::Nf;
use std::collections::HashMap;

/// What the synthesizer did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SynthesisReport {
    /// Elements in the concatenated graph before optimization.
    pub before: usize,
    /// Elements removed as redundant.
    pub removed: usize,
    /// Dropper/modifier swaps performed.
    pub hoisted: usize,
    /// Elements in the final graph.
    pub after: usize,
}

fn reads_overlap_writes(reader: &ElementActions, writer: &ElementActions) -> bool {
    (reader.reads_header && (writer.writes_header || writer.resizes))
        || (reader.reads_payload && (writer.writes_payload || writer.resizes))
}

/// A mutable working representation: boxed elements + single-input
/// adjacency (port-indexed successors).
struct Work {
    nodes: Vec<Option<Box<dyn Element>>>,
    // succ[node][port] = Some(target)
    succ: Vec<Vec<Option<usize>>>,
}

impl Work {
    fn from_nfs(nfs: &[&Nf]) -> Self {
        let mut nodes: Vec<Option<Box<dyn Element>>> = Vec::new();
        let mut succ: Vec<Vec<Option<usize>>> = Vec::new();
        let mut prev_exits: Vec<(usize, usize)> = Vec::new(); // (node, port)
        for nf in nfs {
            let g = nf.graph();
            let base = nodes.len();
            for id in g.node_ids() {
                let el = g.element(id).clone_box();
                succ.push(vec![None; el.n_outputs()]);
                nodes.push(Some(el));
            }
            for e in g.edges() {
                succ[base + e.from.0][e.port] = Some(base + e.to.0);
            }
            let entry = base + nf.entry().0;
            // Wire every unwired output of the previous NF into this entry.
            for (n, p) in prev_exits.drain(..) {
                succ[n][p] = Some(entry);
            }
            // Collect this NF's unwired outputs.
            for id in g.node_ids() {
                for (port, tgt) in succ[base + id.0].iter().enumerate() {
                    if tgt.is_none() {
                        prev_exits.push((base + id.0, port));
                    }
                }
            }
        }
        Work { nodes, succ }
    }

    fn preds(&self, v: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (u, ports) in self.succ.iter().enumerate() {
            for (p, t) in ports.iter().enumerate() {
                if *t == Some(v) {
                    out.push((u, p));
                }
            }
        }
        out
    }

    fn live_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_some()).count()
    }

    fn entry(&self) -> Option<usize> {
        let mut has_in = vec![false; self.nodes.len()];
        for ports in &self.succ {
            for t in ports.iter().flatten() {
                has_in[*t] = true;
            }
        }
        (0..self.nodes.len()).find(|&i| self.nodes[i].is_some() && !has_in[i])
    }

    fn topo(&self) -> Vec<usize> {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        for ports in &self.succ {
            for t in ports.iter().flatten() {
                indeg[*t] += 1;
            }
        }
        let mut q: Vec<usize> = (0..n)
            .filter(|&i| self.nodes[i].is_some() && indeg[i] == 0)
            .collect();
        let mut order = Vec::new();
        let mut head = 0;
        while head < q.len() {
            let u = q[head];
            head += 1;
            order.push(u);
            for t in self.succ[u].clone().into_iter().flatten() {
                indeg[t] -= 1;
                if indeg[t] == 0 && self.nodes[t].is_some() {
                    q.push(t);
                }
            }
        }
        order
    }

    fn into_graph(mut self) -> ElementGraph {
        // Prune nodes unreachable from the entry.
        if let Some(entry) = self.entry() {
            let mut reach = vec![false; self.nodes.len()];
            let mut stack = vec![entry];
            while let Some(u) = stack.pop() {
                if reach[u] {
                    continue;
                }
                reach[u] = true;
                for t in self.succ[u].iter().flatten() {
                    stack.push(*t);
                }
            }
            for (node, ok) in self.nodes.iter_mut().zip(&reach) {
                if !ok {
                    *node = None;
                }
            }
        }
        let mut g = ElementGraph::new();
        let mut map: HashMap<usize, NodeId> = HashMap::new();
        for (i, n) in self.nodes.iter().enumerate() {
            if let Some(el) = n {
                map.insert(i, g.add_boxed(el.clone()));
            }
        }
        for (u, ports) in self.succ.iter().enumerate() {
            if self.nodes[u].is_none() {
                continue;
            }
            for (p, t) in ports.iter().enumerate() {
                if let Some(t) = t {
                    if self.nodes[*t].is_some() {
                        g.connect(map[&u], p, map[t]).expect("rebuild wiring");
                    }
                }
            }
        }
        g
    }
}

/// Context entry: an element already computed on this path, with its
/// action profile and the output port the path corresponds to. The port
/// is what makes removing a duplicate *classifier* sound: each incoming
/// edge is rerouted to the duplicate's same-port successor, so bypass
/// ports keep their sequential semantics.
type Ctx = HashMap<ElementSignature, (ElementActions, usize)>;

fn dedup(work: &mut Work) -> usize {
    let order = work.topo();
    // Context per *edge* `(node, port)` — what is known on paths leaving
    // that port.
    let mut edge_ctx: HashMap<(usize, usize), Ctx> = HashMap::new();
    let mut removed = 0usize;
    for v in order {
        if work.nodes[v].is_none() {
            continue;
        }
        // An element is "already computed" at v only if every incoming
        // path computed it; each path keeps its own port for rerouting.
        let preds = work.preds(v);
        let incoming: Vec<Ctx> = preds
            .iter()
            .map(|&(u, p)| edge_ctx.get(&(u, p)).cloned().unwrap_or_default())
            .collect();
        let computed = |sig: &ElementSignature| {
            !incoming.is_empty() && incoming.iter().all(|c| c.contains_key(sig))
        };
        // Past v, a port is known only where every path took the same one.
        let mut ctx: Ctx = incoming.first().cloned().unwrap_or_default();
        ctx.retain(|k, (_, port)| {
            incoming
                .iter()
                .all(|c| c.get(k).is_some_and(|(_, p)| p == port))
        });
        let el = work.nodes[v].as_ref().expect("live node");
        let sig = el.signature();
        let acts = el.actions();
        let class = el.class();
        let n_out = work.succ[v].len();
        let pure_reader = !acts.writes_header && !acts.writes_payload && !acts.resizes;
        let dedupable = pure_reader
            && sig.kind != "unique"
            && matches!(class, ElementClass::Classifier | ElementClass::Inspector);
        if dedupable && computed(&sig) {
            // Redundant: reroute each incoming edge to this node's
            // successor on the port that edge's path already took at the
            // earlier duplicate.
            for &(u, p) in &preds {
                let port = edge_ctx
                    .get(&(u, p))
                    .and_then(|c| c.get(&sig))
                    .map(|(_, port)| *port)
                    .unwrap_or(0);
                work.succ[u][p] = work.succ[v].get(port).copied().flatten();
            }
            work.succ[v].iter_mut().for_each(|t| *t = None);
            work.nodes[v] = None;
            removed += 1;
            continue;
        }
        // Writers invalidate context entries that read what they write.
        if acts.writes_header || acts.writes_payload || acts.resizes {
            ctx.retain(|_, (earlier, _)| !reads_overlap_writes(earlier, &acts));
        }
        // Propagate per out-port, recording which port each path takes.
        for port in 0..n_out {
            let mut out = ctx.clone();
            if dedupable {
                out.insert(sig.clone(), (acts, port));
            }
            edge_ctx.insert((v, port), out);
        }
    }
    removed
}

fn hoist(work: &mut Work) -> usize {
    let mut swaps = 0usize;
    loop {
        let mut changed = false;
        for m in 0..work.nodes.len() {
            let Some(mel) = work.nodes[m].as_ref() else {
                continue;
            };
            // m: a non-dropping, non-stateful modifier with one output.
            let macts = mel.actions();
            let m_is_modifier = matches!(mel.class(), ElementClass::Modifier)
                && !macts.may_drop
                && work.succ[m].len() == 1;
            if !m_is_modifier {
                continue;
            }
            let Some(d) = work.succ[m][0] else { continue };
            let Some(del) = work.nodes[d].as_ref() else {
                continue;
            };
            let dacts = del.actions();
            let d_reads_only = !dacts.writes_header && !dacts.writes_payload && !dacts.resizes;
            // Single-output only: hoisting a multi-output classifier
            // would change which elements its bypass ports skip — the
            // paper's "processing path must not be modified" rule.
            let d_is_dropper = dacts.may_drop
                && d_reads_only
                && work.succ[d].len() == 1
                && !matches!(del.class(), ElementClass::Stateful | ElementClass::Shaper);
            // Only hoist when the dropper's reads are disjoint from the
            // modifier's writes (the "provably disjoint" rule).
            if !d_is_dropper || reads_overlap_writes(&dacts, &macts) {
                continue;
            }
            // d must be reachable only via m (single predecessor).
            if work.preds(d).len() != 1 {
                continue;
            }
            // Swap: preds(m) -> d; d.port0 -> m; m.port0 -> old d.port0.
            let d_next = work.succ[d].first().copied().flatten();
            for (u, p) in work.preds(m) {
                work.succ[u][p] = Some(d);
            }
            work.succ[d][0] = Some(m);
            work.succ[m][0] = d_next;
            swaps += 1;
            changed = true;
        }
        if !changed {
            return swaps;
        }
    }
}

/// Synthesizes a sequential run of NFs into one merged NF.
///
/// The merged NF keeps the first NF's kind for labeling; its name is the
/// `+`-joined member names.
pub fn synthesize(nfs: &[&Nf]) -> (Nf, SynthesisReport) {
    assert!(!nfs.is_empty(), "cannot synthesize an empty chain");
    let mut work = Work::from_nfs(nfs);
    let before = work.live_count();
    let removed = dedup(&mut work);
    let hoisted = hoist(&mut work);
    let after = work.live_count();
    let name = nfs.iter().map(|nf| nf.name()).collect::<Vec<_>>().join("+");
    let graph = work.into_graph();
    (
        Nf::from_graph(name, nfs[0].kind(), graph),
        SynthesisReport {
            before,
            removed,
            hoisted,
            after,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfc_packet::traffic::{PayloadPolicy, SizeDist, TrafficGenerator, TrafficSpec};
    use nfc_packet::Batch;

    fn drive(nf: &Nf, batch: Batch) -> Batch {
        let mut run = nf.graph().clone().compile().expect("compiles");
        run.push_merged(nf.entry(), batch)
    }

    #[test]
    fn fig10_firewall_ids_share_header_classifier() {
        let fw = Nf::firewall("fw", 100, 1);
        let ids = Nf::ids("ids");
        let (merged, report) = synthesize(&[&fw, &ids]);
        // fw: classifier + filter; ids: classifier + matcher -> one
        // classifier removed.
        assert_eq!(report.before, 4);
        assert_eq!(report.removed, 1);
        assert_eq!(report.after, 3);
        assert_eq!(merged.name(), "fw+ids");
    }

    #[test]
    fn synthesized_fw_ids_is_functionally_equivalent() {
        let fw = Nf::firewall("fw", 100, 1);
        let ids = Nf::ids("ids");
        let (merged, _) = synthesize(&[&fw, &ids]);
        let spec = TrafficSpec::udp(SizeDist::Fixed(256)).with_payload(PayloadPolicy::MatchRatio {
            patterns: Nf::default_ids_signatures(),
            ratio: 0.4,
        });
        let mut gen = TrafficGenerator::new(spec, 5);
        let batch = gen.batch(128);
        let seq_out = drive(&ids, drive(&fw, batch.clone()));
        let syn_out = drive(&merged, batch);
        assert_eq!(seq_out.len(), syn_out.len());
        for (a, b) in seq_out.iter().zip(syn_out.iter()) {
            assert_eq!(a.meta.seq, b.meta.seq);
            assert_eq!(a.data(), b.data());
        }
    }

    #[test]
    fn identical_firewalls_dedup_fully() {
        // Two identical firewalls: classifier AND filter both dedup.
        let fw1 = Nf::firewall("a", 50, 9);
        let fw2 = Nf::firewall("b", 50, 9);
        let (_, report) = synthesize(&[&fw1, &fw2]);
        assert_eq!(report.removed, 2);
        // Different rule sets: only the classifier dedups.
        let fw3 = Nf::firewall("c", 50, 10);
        let (_, report) = synthesize(&[&fw1, &fw3]);
        assert_eq!(report.removed, 1);
    }

    #[test]
    fn distinct_ids_rule_sets_both_survive_synthesis() {
        use nfc_nf::elements::IdsMode;
        let ids = |name: &str, literals: [&str; 2]| {
            let literals = literals.map(|l| l.as_bytes().to_vec()).to_vec();
            Nf::ids_with(name, literals, Vec::new(), IdsMode::Drop)
        };
        // The two rule sets concatenate to the same bytes: only the
        // shared header classifier is redundant.
        let (a, b) = (ids("a", ["AB", "C"]), ids("b", ["A", "BC"]));
        let (merged, report) = synthesize(&[&a, &b]);
        assert_eq!(report.removed, 1, "{report:?}");
        // Payloads built from A and C, never AB or BC: `a` drops those
        // with a C, `b` those with an A.
        let batch: Batch = [&b"xxAxx"[..], b"xxCxx", b"xAxCx", b"CxxA", b"benign"]
            .iter()
            .enumerate()
            .map(|(i, payload)| {
                let mut p =
                    nfc_packet::Packet::ipv4_udp([10, 0, 0, 1], [172, 16, 0, 9], 4444, 80, payload);
                p.meta.seq = i as u64;
                p
            })
            .collect();
        let seq_out = drive(&b, drive(&a, batch.clone()));
        let syn_out = drive(&merged, batch);
        let seqs = |b: &Batch| b.iter().map(|p| p.meta.seq).collect::<Vec<_>>();
        assert_eq!(seqs(&seq_out), [4]);
        assert_eq!(seqs(&syn_out), seqs(&seq_out));
    }

    /// An enforcing, classifier-free firewall (a single-output dropper).
    fn filter_only_fw(seed: u64) -> Nf {
        use nfc_nf::acl::{synth, AclTable, Action};
        use nfc_nf::elements::FirewallFilter;
        use std::sync::Arc;
        let acl = Arc::new(AclTable::new(synth::generate(50, seed), Action::Allow));
        let mut g = ElementGraph::new();
        g.add(FirewallFilter::new(acl, true));
        Nf::from_graph("fw", nfc_nf::NfKind::Firewall, g)
    }

    #[test]
    fn hoist_moves_firewall_ahead_of_proxy() {
        // proxy (payload modifier) then enforcing firewall (header-only
        // dropper): the filter hoists ahead of the proxy.
        let proxy = Nf::proxy("proxy");
        let fw = filter_only_fw(3);
        let (merged, report) = synthesize(&[&proxy, &fw]);
        assert_eq!(report.hoisted, 1, "expected one hoist, got {report:?}");
        let entry_kind = merged.graph().element(merged.entry()).signature().kind;
        assert_eq!(entry_kind, "firewall-filter");
    }

    #[test]
    fn hoist_respects_read_write_overlap() {
        // IPsec writes payload+header; an enforcing firewall reads the
        // header -> must NOT hoist across.
        let ipsec = Nf::ipsec("ipsec");
        let fw = filter_only_fw(4);
        let (merged, report) = synthesize(&[&ipsec, &fw]);
        assert_eq!(report.hoisted, 0);
        let entry_kind = merged.graph().element(merged.entry()).signature().kind;
        assert_eq!(entry_kind, "ipsec-encrypt", "ipsec must stay first");
    }

    #[test]
    fn hoisted_pipeline_is_functionally_equivalent_modulo_order() {
        // Hoisting only changes *which packets reach the modifier*, not
        // the surviving set or their final bytes (dropper is read-only &
        // disjoint).
        let proxy = Nf::proxy("proxy");
        let fw = filter_only_fw(3);
        let (merged, _) = synthesize(&[&proxy, &fw]);
        let mut gen = TrafficGenerator::new(
            TrafficSpec::udp(SizeDist::Fixed(128)).with_payload(PayloadPolicy::Random),
            8,
        );
        let batch = gen.batch(128);
        let seq_out = drive(&fw, drive(&proxy, batch.clone()));
        let syn_out = drive(&merged, batch);
        assert_eq!(seq_out.len(), syn_out.len());
        for (a, b) in seq_out.iter().zip(syn_out.iter()) {
            assert_eq!(a.data(), b.data());
        }
    }

    #[test]
    fn a_duplicate_past_a_join_of_two_ports_survives() {
        // The session log's classifier sends TCP/UDP through the log and
        // everything else around it; both paths join at the probe. Past
        // the join no single port is known, so the firewall's classifier
        // stays: removing it would route TCP/UDP around the filter.
        use nfc_nf::acl::{Action, Rule};
        let deny = Rule {
            dst: (u32::from_be_bytes([172, 16, 0, 0]), 12),
            ..Rule::any(Action::Deny)
        };
        let log = Nf::session_log("log", 64, Vec::new());
        let probe = Nf::probe("probe");
        let fw = Nf::firewall_with("fw", vec![deny], true);
        let (merged, report) = synthesize(&[&log, &probe, &fw]);
        assert_eq!(report.removed, 0, "{report:?}");
        let spec = TrafficSpec::udp(SizeDist::Fixed(128));
        let batch = TrafficGenerator::new(spec, 3).batch(64);
        // The rule denies the generator's whole destination pool.
        assert!(drive(&fw, batch.clone()).is_empty());
        assert!(drive(&merged, batch).is_empty());
    }

    #[test]
    fn single_nf_is_identity() {
        let fw = Nf::firewall("fw", 10, 1);
        let (merged, report) = synthesize(&[&fw]);
        assert_eq!(report.removed, 0);
        assert_eq!(report.before, report.after);
        assert_eq!(merged.graph().node_count(), fw.graph().node_count());
    }

    #[test]
    #[should_panic(expected = "empty chain")]
    fn empty_chain_panics() {
        synthesize(&[]);
    }

    #[test]
    fn chain_of_three_with_shared_stages() {
        // fw + ids + dpi: all three share the header classifier.
        let fw = Nf::firewall("fw", 30, 1);
        let ids = Nf::ids("ids");
        let dpi = Nf::dpi("dpi");
        let (_, report) = synthesize(&[&fw, &ids, &dpi]);
        assert_eq!(report.removed, 2, "two duplicate classifiers: {report:?}");
    }
}
