//! NF order-dependency analysis — the paper's Tables II and III.
//!
//! Two NFs appearing consecutively in a chain may be *parallelized*
//! (duplicated traffic, XOR merge) when running them concurrently cannot
//! change the observable outcome. §IV-B1 frames this as instruction-
//! pipeline hazards over the packet regions (header, payload):
//!
//! * **RAR** (read after read) — always safe.
//! * **WAR** (write after read) — safe: the reader branch sees the
//!   original packet, which is exactly what sequential execution showed
//!   it.
//! * **RAW** (read after write) — unsafe: the later reader must see the
//!   earlier writer's output.
//! * **WAW** (write after write) — unsafe at region granularity; the
//!   paper's `*` cases (provably disjoint fields) require field-level
//!   write-set tracking, which [`parallelizable`] approximates by
//!   treating header and payload as separate regions.
//! * **Drop** by either NF — always safe: the XOR merge discards a packet
//!   dropped by any branch, reproducing sequential drop semantics.
//!
//! Resizing NFs (IPsec encapsulation, WAN-optimizer dedup) additionally
//! change packet *length*, which XOR-merging cannot reconcile with any
//! other branch's writes; a resizer therefore only parallelizes with pure
//! readers.

use nfc_click::ElementActions;

/// Decides whether two NFs with the given action profiles, appearing in
/// chain order `first` then `second`, may run in parallel (Table III).
pub fn parallelizable(first: &ElementActions, second: &ElementActions) -> bool {
    // RAW: the later NF reads a region the earlier one writes.
    let raw = (first.writes_header && second.reads_header)
        || (first.writes_payload && second.reads_payload);
    // WAW: both write the same region.
    let waw = (first.writes_header && second.writes_header)
        || (first.writes_payload && second.writes_payload);
    if raw || waw {
        return false;
    }
    // A resizer cannot XOR-merge with another writer (and vice versa).
    let second_writes = second.writes_header || second.writes_payload || second.resizes;
    let first_writes = first.writes_header || first.writes_payload || first.resizes;
    if (first.resizes && second_writes) || (second.resizes && first_writes) {
        return false;
    }
    true
}

/// Decides pairwise parallelizability for whole NFs, adding one rule on
/// top of [`parallelizable`]: a *stateful* later NF may not run parallel
/// to a drop-capable earlier NF. In sequence the stateful NF only
/// observes surviving packets; in parallel it would also mutate its state
/// (NAT port allocations, WAN-optimizer caches) for packets the dropper
/// discards, changing observable outputs for surviving flows.
pub fn parallelizable_nfs(
    first: &ElementActions,
    second: &ElementActions,
    second_stateful: bool,
) -> bool {
    if first.may_drop && second_stateful {
        return false;
    }
    parallelizable(first, second)
}

/// Greedy chain re-organization: assigns each NF (in chain order) to a
/// parallel *branch*, keeping NFs sequential within a branch. NF `j` may
/// join a branch only if it is pairwise parallelizable (in chain order)
/// with every NF in every *other* branch. Placement minimizes the
/// resulting longest branch; at most `max_branches` branches are used
/// (`1` reproduces the sequential chain). `stateful[i]` marks NFs with
/// cross-packet state (see [`parallelizable_nfs`]).
///
/// Returns branches as lists of chain indices; concatenating branches in
/// index order yields a permutation of `0..profiles.len()`.
pub fn assign_branches(
    profiles: &[ElementActions],
    stateful: &[bool],
    max_branches: usize,
) -> Vec<Vec<usize>> {
    let pair_ok = |a: usize, b: usize| -> bool {
        parallelizable_nfs(&profiles[a], &profiles[b], stateful[b])
    };
    let max_branches = max_branches.max(1);
    let mut branches: Vec<Vec<usize>> = Vec::new();
    for j in 0..profiles.len() {
        // Candidate branches where j conflicts with no member of any
        // OTHER branch.
        let mut best: Option<(usize, usize)> = None; // (resulting_len, branch)
        for b in 0..branches.len() {
            let ok = branches
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != b)
                .flat_map(|(_, m)| m.iter())
                .all(|&i| {
                    let (a, z) = if i < j { (i, j) } else { (j, i) };
                    pair_ok(a, z)
                });
            if ok {
                let len = branches[b].len() + 1;
                if best.map(|(l, _)| len < l).unwrap_or(true) {
                    best = Some((len, b));
                }
            }
        }
        // Opening a new branch gives length 1 — prefer it when legal.
        let can_open = branches.len() < max_branches
            && branches
                .iter()
                .flatten()
                .all(|&i| pair_ok(i.min(j), i.max(j)));
        match (best, can_open) {
            (Some((len, _)), true) if len > 1 => branches.push(vec![j]),
            (Some((_, b)), _) => branches[b].push(j),
            (None, true) => branches.push(vec![j]),
            (None, false) => {
                // j depends on members of several branches, so no branch
                // keeps it parallel to all of them: serialise those
                // branches into the first of them, in chain order, and
                // run j after them.
                let mut conflicting =
                    (0..branches.len()).filter(|&b| branches[b].iter().any(|&i| !pair_ok(i, j)));
                let first = conflicting.next().expect("j conflicts somewhere");
                let rest: Vec<usize> = conflicting.collect();
                for &b in rest.iter().rev() {
                    let members = branches.remove(b);
                    branches[first].extend(members);
                }
                branches[first].sort_unstable();
                branches[first].push(j);
            }
        }
    }
    branches
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfc_nf::NfKind;

    fn p(kind: NfKind) -> ElementActions {
        kind.table2_profile()
    }

    #[test]
    fn rar_pairs_parallelize() {
        // Firewall then LB: both read-only.
        assert!(parallelizable(
            &p(NfKind::Firewall),
            &p(NfKind::LoadBalancer)
        ));
        // Probe then IDS.
        assert!(parallelizable(&p(NfKind::Probe), &p(NfKind::Ids)));
    }

    #[test]
    fn paper_example_ids_then_proxy() {
        // §IV-B1: "IDS and WAN-proxy are parallelizable" (IDS reads, may
        // drop; proxy writes payload afterwards = WAR).
        assert!(parallelizable(&p(NfKind::Ids), &p(NfKind::Proxy)));
        // Reverse order is RAW on payload (proxy writes, IDS reads): x.
        assert!(!parallelizable(&p(NfKind::Proxy), &p(NfKind::Ids)));
    }

    #[test]
    fn nat_then_reader_is_raw() {
        // "NAT always changes the packet header": anything reading the
        // header afterwards cannot parallelize with it.
        assert!(!parallelizable(&p(NfKind::Nat), &p(NfKind::Firewall)));
        assert!(!parallelizable(&p(NfKind::Nat), &p(NfKind::Ids)));
    }

    #[test]
    fn waw_header_writers_conflict() {
        assert!(!parallelizable(&p(NfKind::Nat), &p(NfKind::Nat)));
    }

    #[test]
    fn drops_are_safe() {
        // IDS (drops) then firewall (read-only).
        assert!(parallelizable(&p(NfKind::Ids), &p(NfKind::Firewall)));
    }

    #[test]
    fn resizer_only_pairs_with_pure_readers() {
        // WanOpt resizes: ok with probe, not with proxy (payload writer).
        assert!(!parallelizable(&p(NfKind::WanOptimizer), &p(NfKind::Proxy)));
        assert!(!parallelizable(&p(NfKind::Proxy), &p(NfKind::WanOptimizer)));
        // IPsec (resizes) then probe: probe reads header, IPsec writes it
        // -> RAW, conservative no.
        assert!(!parallelizable(&p(NfKind::IpsecGateway), &p(NfKind::Probe)));
        // Probe then IPsec: WAR, but IPsec resizes and probe is a pure
        // reader -> allowed.
        assert!(parallelizable(&p(NfKind::Probe), &p(NfKind::IpsecGateway)));
    }

    #[test]
    fn four_identical_firewalls_fully_parallelize() {
        // Figure 13(b): a chain of four read-only NFs collapses to
        // effective length 1.
        let profiles = vec![p(NfKind::Firewall); 4];
        let branches = assign_branches(&profiles, &[false; 4], 4);
        assert_eq!(branches.len(), 4);
        assert!(branches.iter().all(|b| b.len() == 1));
    }

    #[test]
    fn width_limit_gives_config_c() {
        // Figure 13(c): the same chain limited to 2 branches -> 2x2.
        let profiles = vec![p(NfKind::Ids); 4];
        let branches = assign_branches(&profiles, &[false; 4], 2);
        assert_eq!(branches.len(), 2);
        assert_eq!(branches.iter().map(Vec::len).max(), Some(2));
    }

    #[test]
    fn sequential_fallback_for_dependent_chain() {
        // FW -> router(NAT-like header writer) -> NAT: writers serialize.
        let profiles = vec![
            p(NfKind::Firewall),
            p(NfKind::Ipv4Forwarder),
            p(NfKind::Nat),
        ];
        let branches = assign_branches(&profiles, &[false, false, true], 4);
        // Router writes header; NAT writes header: RAW/WAW chains force
        // them into one branch after the firewall.
        let longest = branches.iter().map(Vec::len).max().unwrap();
        assert!(longest >= 2, "writers must stay sequential: {branches:?}");
        // Order within branches preserved.
        for b in &branches {
            assert!(b.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn an_nf_depending_on_two_branches_runs_after_both() {
        // Proxy (payload writer) and router (header writer) parallelize;
        // the WAN optimizer reads both regions, so it must follow both,
        // and the two branches it depends on serialise into one.
        let profiles = vec![
            p(NfKind::Proxy),
            p(NfKind::Ipv4Forwarder),
            p(NfKind::WanOptimizer),
        ];
        let branches = assign_branches(&profiles, &[false, false, true], 4);
        assert_eq!(branches, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn stateful_nf_not_parallelized_past_dropper() {
        // IDS (drops) then NAT (stateful): must stay sequential even
        // though the action regions alone would allow WAR parallelism.
        assert!(parallelizable(&p(NfKind::Ids), &p(NfKind::Nat)));
        assert!(!parallelizable_nfs(&p(NfKind::Ids), &p(NfKind::Nat), true));
        let profiles = vec![p(NfKind::Ids), p(NfKind::Nat)];
        let branches = assign_branches(&profiles, &[false, true], 4);
        assert_eq!(branches, vec![vec![0, 1]]);
    }

    #[test]
    fn max_branches_one_is_identity() {
        let profiles = vec![p(NfKind::Firewall); 5];
        let branches = assign_branches(&profiles, &[false; 5], 1);
        assert_eq!(branches, vec![vec![0, 1, 2, 3, 4]]);
    }

    #[test]
    fn all_indices_covered_exactly_once() {
        let profiles = vec![
            p(NfKind::Firewall),
            p(NfKind::Nat),
            p(NfKind::Ids),
            p(NfKind::Probe),
            p(NfKind::LoadBalancer),
        ];
        let stateful = vec![false, true, false, false, false];
        for width in 1..=4 {
            let branches = assign_branches(&profiles, &stateful, width);
            let mut all: Vec<usize> = branches.iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(all, vec![0, 1, 2, 3, 4], "width {width}");
        }
    }
}
