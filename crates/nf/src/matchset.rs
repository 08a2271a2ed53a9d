//! One verdict automaton for an IDS rule set.
//!
//! The IDS asks one question per payload: does any literal or any regex
//! occur in it? Answered with [`AhoCorasick::is_match`] and then each
//! [`Dfa::is_match`], that is one dependent chain of table loads per
//! automaton per byte. [`MatchSet`] answers it with one chain: the
//! product of the Aho–Corasick automaton and every DFA, built once.
//!
//! * **Byte classes.** Two bytes are equivalent when every component
//!   maps them identically from every state the product can expand, so
//!   a product row holds one entry per class instead of 256.
//! * **Sink.** A tuple in which any component accepts collapses into one
//!   absorbing state, numbered 0, so the verdict is "the scan ended in
//!   state 0". A start state that already accepts (`Dfa::compile("")`)
//!   *is* the sink.
//! * **Premultiplied rows.** A state is stored as `id * n_classes`, so a
//!   step is `s = next[s + class[b]]`: no multiply, no per-byte branch.
//! * **Lanes.** [`MatchSet::scan`] walks four payloads in lock-step over
//!   their common prefix — four independent load chains the core
//!   overlaps — then finishes each tail alone, and stops early once every
//!   lane is in the sink (checked every [`EXIT_STRIDE`] bytes).
//! * **Budget.** Automata fold into one product while its reachable
//!   state count stays within [`Dfa::DEFAULT_STATE_LIMIT`]; one that does
//!   not fit starts the next group, and the verdict is the OR over the
//!   groups. Every rule set in this repository is one group.

use crate::ac::AhoCorasick;
use crate::dfa::Dfa;
use std::collections::HashMap;

/// Payloads walked in lock-step.
const LANES: usize = 4;

/// Bytes between checks for "every lane has matched".
const EXIT_STRIDE: usize = 64;

/// The absorbing accept state (premultiplied, and unmultiplied: 0).
const SINK: usize = 0;

/// The verdict automaton of an Aho–Corasick automaton plus regex DFAs.
#[derive(Debug)]
pub(crate) struct MatchSet {
    groups: Vec<Product>,
}

impl MatchSet {
    /// Builds the product automaton of `ac` and `dfas`.
    pub(crate) fn new(ac: &AhoCorasick, dfas: &[Dfa]) -> Self {
        Self::with_budget(ac, dfas, Dfa::DEFAULT_STATE_LIMIT)
    }

    /// [`MatchSet::new`] with an explicit per-group state budget.
    fn with_budget(ac: &AhoCorasick, dfas: &[Dfa], budget: usize) -> Self {
        let components: Vec<Component> =
            std::iter::once(Component::new(ac.transitions(), |s| ac.accepts(s)))
                .chain(
                    dfas.iter()
                        .map(|d| Component::new(d.transitions(), |s| d.accepts(s))),
                )
                .collect();
        let mut groups = Vec::new();
        let mut members: Vec<&Component> = Vec::new();
        let mut built = None;
        for c in &components {
            members.push(c);
            // An automaton alone always fits: it is never larger than
            // its own table.
            let limit = if members.len() == 1 {
                usize::MAX
            } else {
                budget
            };
            if let Some(p) = Product::build(&members, limit) {
                built = Some(p);
                continue;
            }
            groups.extend(built.take());
            members = vec![c];
            built = Product::build(&members, usize::MAX);
        }
        groups.extend(built);
        MatchSet { groups }
    }

    /// Appends to `hits` whether each payload contains any literal or
    /// regex match — `ac.is_match(p) || dfas.iter().any(|d| d.is_match(p))`.
    pub(crate) fn scan<'a>(
        &self,
        payloads: impl IntoIterator<Item = &'a [u8]>,
        hits: &mut Vec<bool>,
    ) {
        let mut payloads = payloads.into_iter().peekable();
        while payloads.peek().is_some() {
            // A short final group runs with empty payloads in the spare
            // lanes; their verdicts are discarded.
            let mut quad: [&[u8]; LANES] = [&[]; LANES];
            let mut filled = 0;
            for (slot, p) in quad.iter_mut().zip(payloads.by_ref()) {
                *slot = p;
                filled += 1;
            }
            let mut hit = [false; LANES];
            for g in &self.groups {
                for (h, s) in hit.iter_mut().zip(g.run(quad)) {
                    *h |= s == SINK;
                }
            }
            hits.extend_from_slice(&hit[..filled]);
        }
    }
}

/// One automaton as the product sees it: `next[state * 256 + byte]` from
/// start state 0, whether each state accepts, and its own byte classes.
struct Component<'a> {
    next: &'a [u32],
    accepts: Vec<bool>,
    classes: [u8; 256],
}

impl<'a> Component<'a> {
    fn new(next: &'a [u32], accepts: impl Fn(usize) -> bool) -> Self {
        let accepts: Vec<bool> = (0..next.len() / 256).map(accepts).collect();
        // Rows of accepting states are never expanded: the product turns
        // them into the sink.
        let mut classes = [0u8; 256];
        for s in (0..accepts.len()).filter(|&s| !accepts[s]) {
            refine(&mut classes, |b| next[s * 256 + b]);
        }
        Component {
            next,
            accepts,
            classes,
        }
    }
}

/// Splits every class of `classes` by `key(byte)`, renumbering densely in
/// byte order. Returns the class count.
fn refine(classes: &mut [u8; 256], key: impl Fn(usize) -> u32) -> usize {
    let mut ids: HashMap<(u8, u32), u8> = HashMap::new();
    for (b, class) in classes.iter_mut().enumerate() {
        // At most 256 classes, so the next fresh id always fits a u8.
        let fresh = ids.len() as u8;
        *class = *ids.entry((*class, key(b))).or_insert(fresh);
    }
    ids.len()
}

/// The product of a group of components over their joint byte classes.
#[derive(Debug)]
struct Product {
    class: [u8; 256],
    /// `next[s + class[b]]` is the premultiplied successor of premultiplied
    /// state `s`; row 0 is the sink's, all zeros.
    next: Vec<u32>,
    /// Premultiplied start state.
    start: usize,
}

impl Product {
    /// BFS over the reachable state tuples of `parts`, or `None` once more
    /// than `limit` states are reachable.
    fn build(parts: &[&Component], limit: usize) -> Option<Product> {
        let mut class = [0u8; 256];
        let mut n_classes = 1;
        for c in parts {
            n_classes = refine(&mut class, |b| u32::from(c.classes[b]));
        }
        let mut rep = vec![0usize; n_classes];
        for b in (0..256).rev() {
            rep[usize::from(class[b])] = b;
        }
        let accepts = |t: &[u32]| parts.iter().zip(t).any(|(c, &s)| c.accepts[s as usize]);
        // `tuples[id]` is the state tuple of product state `id`; id 0 is
        // the sink, which has none.
        let mut tuples: Vec<Vec<u32>> = vec![Vec::new()];
        let mut index: HashMap<Vec<u32>, usize> = HashMap::new();
        let start = vec![0u32; parts.len()];
        if !accepts(&start) {
            index.insert(start.clone(), 1);
            tuples.push(start);
        }
        let start = (tuples.len() - 1) * n_classes;
        let mut next = vec![0u32; n_classes];
        let mut t = Vec::with_capacity(parts.len());
        let mut id = 1;
        while id < tuples.len() {
            for &b in &rep {
                t.clear();
                t.extend(
                    parts
                        .iter()
                        .zip(&tuples[id])
                        .map(|(c, &s)| c.next[s as usize * 256 + b]),
                );
                let to = if accepts(&t) {
                    SINK
                } else if let Some(&to) = index.get(t.as_slice()) {
                    to
                } else {
                    if tuples.len() >= limit {
                        return None;
                    }
                    index.insert(t.clone(), tuples.len());
                    tuples.push(t.clone());
                    tuples.len() - 1
                };
                next.push(u32::try_from(to * n_classes).expect("product table indexes fit u32"));
            }
            id += 1;
        }
        Some(Product { class, next, start })
    }

    fn step(&self, s: usize, b: u8) -> usize {
        self.next[s + usize::from(self.class[usize::from(b)])] as usize
    }

    /// Walks `bytes` from `s`, stopping early in the sink.
    fn walk(&self, mut s: usize, bytes: &[u8]) -> usize {
        for chunk in bytes.chunks(EXIT_STRIDE) {
            if s == SINK {
                break;
            }
            for &b in chunk {
                s = self.step(s, b);
            }
        }
        s
    }

    /// Final states of four payloads: lock-step over the common prefix,
    /// then each tail alone.
    fn run(&self, p: [&[u8]; LANES]) -> [usize; LANES] {
        let common = p.iter().map(|x| x.len()).min().unwrap_or(0);
        let mut s = [self.start; LANES];
        let mut off = 0;
        while off < common && s != [SINK; LANES] {
            let end = common.min(off + EXIT_STRIDE);
            let [l0, l1, l2, l3] = p.map(|x| &x[off..end]);
            for (((&a, &b), &c), &d) in l0.iter().zip(l1).zip(l2).zip(l3) {
                s = [
                    self.step(s[0], a),
                    self.step(s[1], b),
                    self.step(s[2], c),
                    self.step(s[3], d),
                ];
            }
            off = end;
        }
        for (s, x) in s.iter_mut().zip(p) {
            *s = self.walk(*s, &x[off..]);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn reference(ac: &AhoCorasick, dfas: &[Dfa], p: &[u8]) -> bool {
        ac.is_match(p) || dfas.iter().any(|d| d.is_match(p))
    }

    fn verdicts(m: &MatchSet, payloads: &[Vec<u8>]) -> Vec<bool> {
        let mut hits = Vec::new();
        m.scan(payloads.iter().map(Vec::as_slice), &mut hits);
        hits
    }

    fn default_rules() -> (AhoCorasick, Vec<Dfa>) {
        let ac = AhoCorasick::new(crate::Nf::default_ids_signatures());
        (ac, crate::Nf::default_ids_dfas())
    }

    #[test]
    fn default_rules_fold_into_one_group() {
        let (ac, dfas) = default_rules();
        let m = MatchSet::new(&ac, &dfas);
        assert_eq!(m.groups.len(), 1);
        let p = &m.groups[0];
        let n_classes = usize::from(*p.class.iter().max().expect("256 bytes")) + 1;
        assert_eq!(p.next.len() % n_classes, 0);
        assert!(p.next.iter().all(|&t| (t as usize) < p.next.len()));
        // A budget of one folds nothing: one group per automaton.
        assert_eq!(MatchSet::with_budget(&ac, &dfas, 1).groups.len(), 3);
    }

    #[test]
    fn edge_rule_sets() {
        let none = AhoCorasick::new(Vec::<&str>::new());
        let payloads = vec![Vec::new(), b"abc".to_vec(), vec![0; 200]];
        // Nothing to match: never a hit.
        assert_eq!(verdicts(&MatchSet::new(&none, &[]), &payloads), [false; 3]);
        // A start state that accepts is the sink: every payload, even
        // the empty one, matches.
        let empty = Dfa::compile("").expect("compiles");
        let m = MatchSet::new(&none, std::slice::from_ref(&empty));
        assert_eq!(m.groups[0].start, SINK);
        assert_eq!(verdicts(&m, &payloads), [true; 3]);
    }

    #[test]
    fn signatures_at_lane_and_exit_boundaries() {
        let (ac, dfas) = default_rules();
        let m = MatchSet::new(&ac, &dfas);
        let sig = b"SQL_UNION_SELECT";
        let mut payloads = Vec::new();
        for len in [0usize, 15, 16, 63, 64, 65, 127, 128, 300] {
            for at in [0, 48, 56, 62, 63, 64, 120, len.saturating_sub(sig.len())] {
                let mut p = vec![b'q'; len];
                if at + sig.len() <= len {
                    p[at..at + sig.len()].copy_from_slice(sig);
                }
                payloads.push(p);
            }
        }
        payloads.push(b"USER bob PASS hunter2".to_vec());
        payloads.push(b"GET /a/b.php?x=1".to_vec());
        let want: Vec<bool> = payloads.iter().map(|p| reference(&ac, &dfas, p)).collect();
        assert!(want.iter().any(|&h| h) && want.iter().any(|&h| !h));
        for n in 0..payloads.len() {
            assert_eq!(verdicts(&m, &payloads[..n]), want[..n], "first {n}");
        }
    }

    /// The bytes literals are made of, binary ones included.
    const SIG: [u8; 5] = [b'A', b'B', b'C', 0x00, 0xFF];

    /// Payload bytes: mostly filler no rule uses, else [`SIG`] bytes.
    fn byte() -> impl Strategy<Value = u8> {
        (0usize..16).prop_map(|i| SIG.get(i).copied().unwrap_or(b'z'))
    }

    /// Literals of 0..5 [`SIG`] bytes; a set of them is often empty, has
    /// duplicates, or has one literal inside another.
    fn literal() -> impl Strategy<Value = Vec<u8>> {
        collection::vec(0usize..SIG.len(), 0..5)
            .prop_map(|ix| ix.into_iter().map(|i| SIG[i]).collect())
    }

    /// Small regexes: classes, `* + ?`, alternation, and `""`.
    fn regex() -> impl Strategy<Value = String> {
        const ATOMS: [&str; 7] = ["A", "B", "C", "[AB]", "[^C]", ".", "(AB|C)"];
        const QUANTS: [&str; 5] = ["", "", "*", "+", "?"];
        let term =
            collection::vec((0usize..ATOMS.len(), 0usize..QUANTS.len()), 0..4).prop_map(|parts| {
                parts
                    .into_iter()
                    .map(|(a, q)| format!("{}{}", ATOMS[a], QUANTS[q]))
                    .collect::<String>()
            });
        collection::vec(term, 1..3).prop_map(|alts| alts.join("|"))
    }

    /// A payload of ragged length and, when the flag is set, which
    /// literal to plant where: at offset 0, at the end, or straddling the
    /// 64-byte exit boundary.
    fn payload() -> impl Strategy<Value = (Vec<u8>, bool, usize, u8)> {
        (
            collection::vec(byte(), 0..300),
            any::<bool>(),
            any::<usize>(),
            0u8..3,
        )
    }

    fn plant(mut p: Vec<u8>, lit: &[u8], at: u8) -> Vec<u8> {
        if lit.len() <= p.len() {
            let off = match at {
                0 => 0,
                1 => p.len() - lit.len(),
                _ => 62.min(p.len() - lit.len()),
            };
            p[off..off + lit.len()].copy_from_slice(lit);
        }
        p
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The product scan's verdicts equal the reference scans', for
        /// one group and for a budget small enough to force several.
        #[test]
        fn product_scan_matches_reference_scans(
            literals in collection::vec(literal(), 0..6),
            regexes in collection::vec(regex(), 0..3),
            raw in collection::vec(payload(), 0..23),
            budget in 1usize..12,
        ) {
            let ac = AhoCorasick::new(&literals);
            let dfas: Vec<Dfa> = regexes
                .iter()
                .map(|r| Dfa::compile(r).expect("generated regexes parse"))
                .collect();
            let payloads: Vec<Vec<u8>> = raw
                .into_iter()
                .map(|(p, planted, i, at)| match literals.len() {
                    n if planted && n > 0 => plant(p, &literals[i % n], at),
                    _ => p,
                })
                .collect();
            let want: Vec<bool> = payloads.iter().map(|p| reference(&ac, &dfas, p)).collect();
            prop_assert_eq!(verdicts(&MatchSet::new(&ac, &dfas), &payloads), want.clone());
            let tight = MatchSet::with_budget(&ac, &dfas, budget);
            prop_assert_eq!(verdicts(&tight, &payloads), want);
        }
    }
}
