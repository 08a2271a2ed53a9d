//! The SFC orchestrator: chain re-organization and XOR-based merging.
//!
//! §IV-B1: the orchestrator "analyzes the order-dependency of NFs in a
//! SFC and examines if certain NFs could be processed in parallel",
//! duplicating traffic to parallel branches and merging the results with
//! exclusive-or logic: each branch's output is XORed with the original
//! packet to extract its modified bits, the modifications are ORed
//! together, and the aggregate is XORed back onto the original packet.
//!
//! [`xor_merge`] computes that result without paying for the formula's
//! copies: with copy-on-write branch duplicates, a branch that never
//! wrote a packet still shares its buffer and contributes nothing, and
//! a packet exactly one branch wrote merges to that branch's output
//! (`orig ^ (orig ^ out) = out`), passed through by refcount. Only
//! packets two or more branches wrote get a new buffer. The simulated
//! timeline still charges the full merge (`CostModel::merge_ns`).

use crate::depend;
use crate::sfc::Sfc;
use nfc_packet::{Batch, Packet};
use std::collections::HashMap;

/// A re-organized SFC: parallel branches, each a sequential sub-chain of
/// indices into the original chain. One branch = the original sequential
/// chain (Figure 13 a); four singleton branches = fully parallel (b);
/// two branches of two = width-limited (c).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReorgSfc {
    branches: Vec<Vec<usize>>,
}

impl ReorgSfc {
    /// Re-organizes `sfc` using Table II/III dependency analysis, with at
    /// most `max_branches` parallel branches.
    pub fn analyze(sfc: &Sfc, max_branches: usize) -> Self {
        let profiles: Vec<_> = sfc.nfs().iter().map(|nf| nf.action_profile()).collect();
        let stateful: Vec<bool> = sfc.nfs().iter().map(|nf| nf.is_stateful()).collect();
        ReorgSfc {
            branches: depend::assign_branches(&profiles, &stateful, max_branches),
        }
    }

    /// The unmodified sequential plan.
    pub fn sequential(sfc: &Sfc) -> Self {
        ReorgSfc {
            branches: vec![(0..sfc.len()).collect()],
        }
    }

    /// Builds a plan from explicit branches (for reproducing the paper's
    /// fixed configurations).
    pub fn from_branches(branches: Vec<Vec<usize>>) -> Self {
        ReorgSfc { branches }
    }

    /// The branches (chain indices).
    pub fn branches(&self) -> &[Vec<usize>] {
        &self.branches
    }

    /// Effective SFC length: the longest branch (the paper's
    /// "effective length of SFC configuration").
    pub fn effective_length(&self) -> usize {
        self.branches.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Number of parallel branches.
    pub fn width(&self) -> usize {
        self.branches.len()
    }
}

/// Merges parallel-branch outputs for one packet, paper-style:
/// `result = orig ^ OR_i(orig ^ out_i)`.
///
/// * A packet dropped by any branch (absent from `outputs`) is dropped.
/// * If exactly one branch resized the packet and every other branch
///   returned it unmodified, the resized packet wins.
/// * Two branches resizing differently, or a resize combined with another
///   branch's modification, is a merge conflict → packet dropped (the
///   orchestrator only parallelizes NFs for which this cannot happen; the
///   check is defense in depth).
///
/// The result always carries the original's `meta`, and its bytes are
/// the formula's, computed without the formula's copies. An output that
/// still shares the original's buffer (CoW: its branch never wrote it)
/// is never read. With no same-length writer the result is a refcount
/// clone of the original; with exactly one it is a refcount clone of
/// that writer's output, since `orig ^ (orig ^ out) = out`. Only two or
/// more writers build a new buffer, in one pass over the bytes.
pub fn xor_merge(original: &Packet, outputs: &[Option<&Packet>]) -> Option<Packet> {
    let mut resized: Option<&Packet> = None;
    for out in outputs {
        let out = (*out)?; // drop wins
        if out.len() != original.len() {
            match resized {
                // Identical resized outputs agree (e.g. the paper's
                // prescribed chains of identical NFs): accept one copy.
                Some(prev) if prev.data() == out.data() => {}
                Some(_) => return None, // diverging resizers: conflict
                None => resized = Some(out),
            }
        }
    }
    let mut written = outputs
        .iter()
        .flatten()
        .copied()
        .filter(|o| o.len() == original.len() && !o.shares_buffer(original));
    let mut merged = match resized {
        Some(r) => {
            // An unshared copy whose bytes equal the original's is not a
            // modification; any other same-length write is a conflict.
            if written.any(|o| o.data() != original.data()) {
                return None;
            }
            r.clone()
        }
        None => match (written.next(), written.next()) {
            (None, _) => original.clone(),
            (Some(w), None) => w.clone(),
            (Some(a), Some(b)) => {
                let orig = original.data();
                let mut bytes: Vec<u8> = orig
                    .iter()
                    .zip(a.data())
                    .zip(b.data())
                    .map(|((&o, &x), &y)| o ^ ((o ^ x) | (o ^ y)))
                    .collect();
                // Further writers fold in: `o ^ r` is the aggregate so far.
                for w in written {
                    for ((r, &o), &y) in bytes.iter_mut().zip(orig).zip(w.data()) {
                        *r = o ^ ((o ^ *r) | (o ^ y));
                    }
                }
                Packet::from_bytes(bytes)
            }
        },
    };
    merged.meta = original.meta;
    Some(merged)
}

fn is_seq_sorted(batch: &Batch) -> bool {
    batch
        .iter()
        .zip(batch.iter().skip(1))
        .all(|(a, b)| a.meta.seq <= b.meta.seq)
}

/// Merges per-branch output batches against the pre-duplication batch,
/// matching packets by sequence number. Returns the merged batch in
/// original order, plus the number of merge conflicts encountered.
///
/// Hot path: element graphs restore sequence order at every join, so the
/// branch outputs are normally sorted subsequences of the original and a
/// cursor sweep matches packets with no per-batch allocation; packets
/// every branch still shares (CoW) pass straight through without XOR
/// work, and a packet one branch wrote passes through as that branch's
/// output (see [`xor_merge`]). The per-branch hash maps survive only as
/// a fallback for out-of-order outputs.
pub fn merge_branch_batches(original: &Batch, branch_outputs: &[Batch]) -> (Batch, u64) {
    let mut merged = Batch::with_capacity(original.len());
    let mut conflicts = 0u64;
    let sorted = is_seq_sorted(original) && branch_outputs.iter().all(is_seq_sorted);
    if sorted {
        let mut cursors = vec![0usize; branch_outputs.len()];
        let mut outs: Vec<Option<&Packet>> = Vec::with_capacity(branch_outputs.len());
        for orig in original.iter() {
            outs.clear();
            let mut all_shared = true;
            for (branch, cur) in branch_outputs.iter().zip(cursors.iter_mut()) {
                // Skip past sequence numbers the original no longer has
                // (defensive; branches cannot normally invent packets).
                while branch.get(*cur).is_some_and(|p| p.meta.seq < orig.meta.seq) {
                    *cur += 1;
                }
                let hit = match branch.get(*cur) {
                    Some(p) if p.meta.seq == orig.meta.seq => {
                        *cur += 1;
                        Some(p)
                    }
                    _ => None, // branch dropped this packet
                };
                all_shared &= hit.is_some_and(|p| p.shares_buffer(orig));
                outs.push(hit);
            }
            if all_shared {
                // No branch wrote the packet: the merge result is the
                // original, still sharing its buffer.
                merged.push(orig.clone());
            } else {
                match xor_merge(orig, &outs) {
                    Some(p) => merged.push(p),
                    None => {
                        if outs.iter().all(|o| o.is_some()) {
                            conflicts += 1;
                        }
                    }
                }
            }
        }
    } else {
        let mut by_seq: Vec<HashMap<u64, &Packet>> = branch_outputs
            .iter()
            .map(|b| b.iter().map(|p| (p.meta.seq, p)).collect())
            .collect();
        for orig in original.iter() {
            let outs: Vec<Option<&Packet>> = by_seq
                .iter_mut()
                .map(|m| m.remove(&orig.meta.seq))
                .collect();
            // A branch that dropped the packet yields None -> drop wins.
            match xor_merge(orig, &outs) {
                Some(p) => merged.push(p),
                None => {
                    if outs.iter().all(|o| o.is_some()) {
                        conflicts += 1;
                    }
                }
            }
        }
    }
    merged.lineage = original.lineage;
    merged.lineage.merges += 1;
    (merged, conflicts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfc_nf::Nf;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn pkt(seq: u64, payload: &[u8]) -> Packet {
        let mut p = Packet::ipv4_udp([10, 0, 0, 1], [172, 16, 0, 2], 1000, 2000, payload);
        p.meta.seq = seq;
        p
    }

    /// The merge as the formula reads, byte by byte: every same-length
    /// output's diff is ORed into a zeroed aggregate, which is XORed back
    /// onto a copy of the original. `xor_merge` must agree with it on
    /// every input.
    fn reference_xor_merge(original: &Packet, outputs: &[Option<&Packet>]) -> Option<Packet> {
        if outputs.iter().any(|o| o.is_none()) {
            return None; // drop wins
        }
        let orig_bytes = original.data();
        let mut resized: Option<&Packet> = None;
        let mut agg = vec![0u8; orig_bytes.len()];
        let mut any_same_len_mod = false;
        for out in outputs.iter().flatten() {
            if out.shares_buffer(original) {
                continue;
            }
            if out.len() != original.len() {
                match resized {
                    Some(prev) if prev.data() == out.data() => continue,
                    Some(_) => return None, // diverging resizers: conflict
                    None => {}
                }
                resized = Some(out);
                continue;
            }
            for (a, b) in agg.iter_mut().zip(orig_bytes.iter().zip(out.data())) {
                let diff = b.0 ^ b.1;
                if diff != 0 {
                    any_same_len_mod = true;
                }
                *a |= diff;
            }
        }
        if let Some(r) = resized {
            if any_same_len_mod {
                return None; // resize + modification: conflict
            }
            let mut merged = r.clone();
            merged.meta = original.meta;
            return Some(merged);
        }
        let mut merged = original.clone();
        for (dst, diff) in merged.data_mut().iter_mut().zip(agg.iter()) {
            *dst ^= diff;
        }
        Some(merged)
    }

    /// `merge_branch_batches` through the reference: outputs matched by
    /// seq, a conflict counted where every branch kept the packet.
    fn reference_merge(original: &Batch, branch_outputs: &[Batch]) -> (Batch, u64) {
        let mut merged = Batch::new();
        let mut conflicts = 0u64;
        for orig in original.iter() {
            let outs: Vec<Option<&Packet>> = branch_outputs
                .iter()
                .map(|b| b.iter().find(|p| p.meta.seq == orig.meta.seq))
                .collect();
            match reference_xor_merge(orig, &outs) {
                Some(p) => merged.push(p),
                None if outs.iter().all(|o| o.is_some()) => conflicts += 1,
                None => {}
            }
        }
        merged.lineage = original.lineage;
        merged.lineage.merges += 1;
        (merged, conflicts)
    }

    /// Resized payloads: the original's payload is 3..=48 bytes, so each
    /// resizes it; the first two have one length and diverge in content,
    /// so two resizers agree only when they draw the same one.
    const RESIZED: [&[u8]; 3] = [&[0xA5; 60], &[0x5A; 60], &[0xA5; 2]];

    fn original_packet(rng: &mut SmallRng, seq: u64) -> Packet {
        let payload: Vec<u8> = (0..rng.gen_range(3..=48)).map(|_| rng.gen()).collect();
        let (a, b) = (rng.gen::<u16>(), rng.gen::<u16>());
        let mut p = match rng.gen_range(0..3) {
            0 => Packet::ipv4_udp([10, 0, 0, 1], [172, 16, 0, 2], a, b, &payload),
            1 => Packet::ipv4_tcp([10, 0, 0, 1], [172, 16, 0, 2], a, b, &payload, 0x18),
            _ => Packet::ipv6_udp([0xfd; 16], [0xfe; 16], a, b, &payload),
        };
        p.meta.seq = seq;
        p.meta.arrival_ns = rng.gen();
        p.meta.anno = [rng.gen(), rng.gen()];
        p
    }

    /// One branch's output for `orig`: dropped, still shared, an unshared
    /// identical copy, a same-length writer flipping header and/or
    /// payload bytes, or a resizer. Outputs may carry their own
    /// annotations, which the merge must not keep.
    fn branch_output(orig: &Packet, rng: &mut SmallRng) -> Option<Packet> {
        let mut out = orig.clone();
        if rng.gen_bool(0.5) {
            out.meta.anno = [rng.gen(), rng.gen()];
        }
        match rng.gen_range(0..5) {
            0 => return None,
            1 => {}
            2 => {
                out.data_mut();
            }
            3 => {
                let split = orig.l4_payload_offset().unwrap();
                let region = rng.gen_range(0..3); // header, payload, both
                let data = out.data_mut();
                for _ in 0..rng.gen_range(1..=4) {
                    let header = region == 0 || (region == 2 && rng.gen_bool(0.5));
                    let at = if header {
                        rng.gen_range(0..split)
                    } else {
                        rng.gen_range(split..data.len())
                    };
                    data[at] ^= rng.gen_range(1..=255u8);
                }
            }
            _ => out
                .replace_l4_payload(RESIZED[rng.gen_range(0..RESIZED.len())])
                .unwrap(),
        }
        Some(out)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `xor_merge` and `merge_branch_batches` equal the byte-wise
        /// reference on batches of 1–4 branches: bytes, `meta`, drops,
        /// conflicts and lineage, with branch outputs in seq order (the
        /// cursor sweep) or shuffled (the hash-map fallback).
        #[test]
        fn merge_matches_bytewise_reference(seed in any::<u64>()) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let width = rng.gen_range(1..=4usize);
            let mut original: Batch =
                (0..rng.gen_range(1..=12u64)).map(|i| original_packet(&mut rng, i)).collect();
            original.lineage.splits = rng.gen_range(0..3);
            let mut branches = vec![Batch::new(); width];
            for orig in original.iter() {
                let outs: Vec<Option<Packet>> =
                    (0..width).map(|_| branch_output(orig, &mut rng)).collect();
                let refs: Vec<Option<&Packet>> = outs.iter().map(Option::as_ref).collect();
                let got = xor_merge(orig, &refs);
                prop_assert_eq!(&got, &reference_xor_merge(orig, &refs), "seq {}", orig.meta.seq);
                for (branch, out) in branches.iter_mut().zip(outs) {
                    branch.extend(out);
                }
            }
            if rng.gen_bool(0.5) {
                let b = rng.gen_range(0..width);
                let mut pkts: Vec<Packet> = branches[b].iter().cloned().collect();
                for i in (1..pkts.len()).rev() {
                    pkts.swap(i, rng.gen_range(0..=i));
                }
                branches[b] = pkts.into_iter().collect();
            }
            let (got, conflicts) = merge_branch_batches(&original, &branches);
            let (want, want_conflicts) = reference_merge(&original, &branches);
            prop_assert_eq!(conflicts, want_conflicts);
            prop_assert_eq!(got.lineage, want.lineage);
            let seqs = |b: &Batch| b.iter().map(|p| p.meta.seq).collect::<Vec<_>>();
            prop_assert_eq!(seqs(&got), seqs(&want));
            prop_assert_eq!(&got, &want);
        }
    }

    #[test]
    fn lone_writer_merge_shares_the_writers_buffer() {
        let orig = pkt(5, &[0u8; 16]);
        let reader = orig.clone();
        let mut writer = orig.clone();
        writer.l4_payload_mut().unwrap()[2] = 0x42;
        let merged = xor_merge(&orig, &[Some(&reader), Some(&writer)]).unwrap();
        assert!(merged.shares_buffer(&writer));
        assert_eq!(merged.data(), writer.data());
    }

    #[test]
    fn merged_meta_is_the_originals_not_the_writers() {
        let mut orig = pkt(6, &[0u8; 16]);
        orig.meta.anno = [1, 2];
        let mut writer = orig.clone();
        writer.data_mut()[0] ^= 0xFF;
        writer.meta.anno = [7, 9];
        writer.meta.arrival_ns = 99;
        let merged = xor_merge(&orig, &[Some(&orig.clone()), Some(&writer)]).unwrap();
        assert_eq!(merged.meta, orig.meta);
    }

    #[test]
    fn identical_same_length_writers_are_accepted() {
        // The forced-branch shape: every branch runs the same writer.
        let orig = pkt(7, &[0u8; 16]);
        let mut a = orig.clone();
        a.l4_payload_mut().unwrap()[0] = 0xEE;
        let b = Packet::from_bytes(a.data().to_vec());
        let merged = xor_merge(&orig, &[Some(&a), Some(&b)]).unwrap();
        assert_eq!(merged.data(), a.data());
        assert_eq!(merged.meta, orig.meta);
    }

    #[test]
    fn analyze_reduces_readonly_chain() {
        let sfc = Sfc::new(
            "fw4",
            (0..4)
                .map(|i| Nf::firewall(format!("fw{i}"), 50, 1))
                .collect(),
        );
        let plan = ReorgSfc::analyze(&sfc, 4);
        assert_eq!(plan.effective_length(), 1);
        assert_eq!(plan.width(), 4);
        let plan2 = ReorgSfc::analyze(&sfc, 2);
        assert_eq!(plan2.effective_length(), 2);
        let seq = ReorgSfc::sequential(&sfc);
        assert_eq!(seq.effective_length(), 4);
        assert_eq!(seq.width(), 1);
    }

    #[test]
    fn xor_merge_combines_disjoint_writes() {
        let orig = pkt(1, &[0u8; 8]);
        // Branch A flips payload byte 0; branch B flips payload byte 3.
        let mut a = orig.clone();
        a.l4_payload_mut().unwrap()[0] = 0xAA;
        let mut b = orig.clone();
        b.l4_payload_mut().unwrap()[3] = 0xBB;
        let merged = xor_merge(&orig, &[Some(&a), Some(&b)]).unwrap();
        let pl = merged.l4_payload().unwrap();
        assert_eq!(pl[0], 0xAA);
        assert_eq!(pl[3], 0xBB);
        assert_eq!(pl[1], 0);
    }

    #[test]
    fn xor_merge_drop_wins() {
        let orig = pkt(1, b"x");
        let a = orig.clone();
        assert!(xor_merge(&orig, &[Some(&a), None]).is_none());
    }

    #[test]
    fn xor_merge_unmodified_passthrough() {
        let orig = pkt(2, b"hello");
        let a = orig.clone();
        let b = orig.clone();
        let merged = xor_merge(&orig, &[Some(&a), Some(&b)]).unwrap();
        assert_eq!(merged.data(), orig.data());
    }

    #[test]
    fn xor_merge_single_resizer_wins() {
        let orig = pkt(3, b"abc");
        let mut resized = orig.clone();
        resized.replace_l4_payload(b"much longer payload").unwrap();
        let reader = orig.clone();
        let merged = xor_merge(&orig, &[Some(&reader), Some(&resized)]).unwrap();
        assert_eq!(merged.l4_payload().unwrap(), b"much longer payload");
        assert_eq!(merged.meta.seq, 3);
    }

    #[test]
    fn xor_merge_conflicts_are_detected() {
        let orig = pkt(4, b"abcdef");
        let mut resized = orig.clone();
        resized.replace_l4_payload(b"zz").unwrap();
        let mut modified = orig.clone();
        modified.l4_payload_mut().unwrap()[0] = b'X';
        // resize + modification
        assert!(xor_merge(&orig, &[Some(&resized), Some(&modified)]).is_none());
        // two resizers
        let mut r2 = orig.clone();
        r2.replace_l4_payload(b"yyy").unwrap();
        assert!(xor_merge(&orig, &[Some(&resized), Some(&r2)]).is_none());
    }

    #[test]
    fn merge_batches_matches_by_seq_and_counts_conflicts() {
        let original: Batch = (0..4).map(|i| pkt(i, &[0u8; 4])).collect();
        // Branch 0 passes everything; branch 1 drops seq 2 and modifies 1.
        let b0 = original.clone();
        let mut b1 = original.clone();
        b1.retain(|p| p.meta.seq != 2);
        for p in b1.iter_mut() {
            if p.meta.seq == 1 {
                p.l4_payload_mut().unwrap()[0] = 7;
            }
        }
        let (merged, conflicts) = merge_branch_batches(&original, &[b0, b1]);
        assert_eq!(conflicts, 0);
        let seqs: Vec<u64> = merged.iter().map(|p| p.meta.seq).collect();
        assert_eq!(seqs, vec![0, 1, 3]);
        assert_eq!(merged.get(1).unwrap().l4_payload().unwrap()[0], 7);
        assert_eq!(merged.lineage.merges, 1);
    }

    #[test]
    fn sequential_equivalence_for_parallelizable_nfs() {
        // Running FW | IDS in parallel with XOR merge must equal running
        // them sequentially (both read-only, IDS drops).
        use nfc_packet::traffic::{PayloadPolicy, SizeDist, TrafficGenerator, TrafficSpec};
        let fw = Nf::firewall("fw", 100, 1);
        let ids = Nf::ids("ids");
        let spec = TrafficSpec::udp(SizeDist::Fixed(256)).with_payload(PayloadPolicy::MatchRatio {
            patterns: Nf::default_ids_signatures(),
            ratio: 0.3,
        });
        let mut gen = TrafficGenerator::new(spec, 11);
        let batch = gen.batch(64);

        // Sequential.
        let mut fw_run = fw.graph().clone().compile().unwrap();
        let mut ids_run = ids.graph().clone().compile().unwrap();
        let mid = fw_run.push_merged(fw.entry(), batch.clone());
        let seq_out = ids_run.push_merged(ids.entry(), mid);

        // Parallel + merge.
        let mut fw_run2 = fw.graph().clone().compile().unwrap();
        let mut ids_run2 = ids.graph().clone().compile().unwrap();
        let out_fw = fw_run2.push_merged(fw.entry(), batch.clone());
        let out_ids = ids_run2.push_merged(ids.entry(), batch.clone());
        let (par_out, conflicts) = merge_branch_batches(&batch, &[out_fw, out_ids]);

        assert_eq!(conflicts, 0);
        let s1: Vec<u64> = seq_out.iter().map(|p| p.meta.seq).collect();
        let s2: Vec<u64> = par_out.iter().map(|p| p.meta.seq).collect();
        assert_eq!(s1, s2, "same packets survive");
        for (a, b) in seq_out.iter().zip(par_out.iter()) {
            assert_eq!(a.data(), b.data(), "identical bytes");
        }
    }
}
