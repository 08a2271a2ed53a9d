//! Packet batches — the unit of work for elements and offload.
//!
//! The paper's Figure 5 characterization shows that *batch splitting* at
//! Click branch points (a large batch re-organized into several smaller
//! per-output batches) is a dominant SFC overhead. [`Batch`] therefore
//! tracks split/merge bookkeeping ([`BatchLineage`]) so the simulator can
//! charge re-organization costs, and supports order-preserving merges via
//! packet sequence numbers (the Snap `GPUCompletionQueue` design).

use crate::lanes::HeaderLanes;
use crate::{FlowKey, Packet, PacketMeta, Result};
use std::sync::Arc;

/// How a batch came to exist; used by the performance model to charge
/// re-organization overheads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchLineage {
    /// Number of split operations this batch's packets have been through.
    pub splits: u32,
    /// Number of merge operations this batch's packets have been through.
    pub merges: u32,
}

/// An ordered collection of packets processed as one unit.
///
/// # Example
///
/// ```
/// use nfc_packet::{Batch, Packet};
///
/// let mut batch = Batch::new();
/// batch.push(Packet::ipv4_udp([1, 1, 1, 1], [2, 2, 2, 2], 1, 2, b"a"));
/// batch.push(Packet::ipv4_udp([1, 1, 1, 1], [2, 2, 2, 2], 1, 3, b"b"));
/// let (evens, _odds): (Vec<_>, Vec<_>) = (0..2).partition(|i| i % 2 == 0);
/// let parts = batch.split_by(2, |i, _| evens.contains(&i) as usize);
/// assert_eq!(parts[0].len(), 1);
/// assert_eq!(parts[1].len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Batch {
    pkts: Vec<Packet>,
    /// Split/merge history.
    pub lineage: BatchLineage,
    /// Memoized columnar header view (see [`Batch::shared_lanes`]).
    /// Invalidated by every mutable packet access; excluded from
    /// equality. `Batch::clone` shares it by refcount, so CoW branch
    /// duplicates of a warmed batch never re-gather.
    lanes_memo: Option<Arc<HeaderLanes>>,
}

impl PartialEq for Batch {
    fn eq(&self, other: &Self) -> bool {
        self.pkts == other.pkts && self.lineage == other.lineage
    }
}

impl Eq for Batch {}

impl Batch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Batch::default()
    }

    /// Creates an empty batch with capacity for `n` packets.
    pub fn with_capacity(n: usize) -> Self {
        Batch {
            pkts: Vec::with_capacity(n),
            lineage: BatchLineage::default(),
            lanes_memo: None,
        }
    }

    /// Number of packets.
    pub fn len(&self) -> usize {
        self.pkts.len()
    }

    /// True when the batch holds no packets.
    pub fn is_empty(&self) -> bool {
        self.pkts.is_empty()
    }

    /// Total wire bytes across all packets.
    pub fn total_bytes(&self) -> usize {
        self.pkts.iter().map(Packet::len).sum()
    }

    /// Appends a packet.
    pub fn push(&mut self, pkt: Packet) {
        self.lanes_memo = None;
        self.pkts.push(pkt);
    }

    /// Removes and returns the last packet.
    pub fn pop(&mut self) -> Option<Packet> {
        self.lanes_memo = None;
        self.pkts.pop()
    }

    /// Borrowing iterator over packets.
    pub fn iter(&self) -> std::slice::Iter<'_, Packet> {
        self.pkts.iter()
    }

    /// Mutable iterator over packets.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, Packet> {
        self.lanes_memo = None;
        self.pkts.iter_mut()
    }

    /// Mutable metadata of every packet, in order. Metadata is not header
    /// bytes, so the memoized lanes view stays valid.
    pub fn metas_mut(&mut self) -> impl Iterator<Item = &mut PacketMeta> {
        self.pkts.iter_mut().map(|p| &mut p.meta)
    }

    /// Memoizes every packet's [`Packet::flow_key`]: a packet that holds
    /// a memo keeps it, IPv4 UDP/TCP rows are keyed from `lanes` (this
    /// batch's view) and the rest parsed. Only the memos are written, so
    /// the memoized lanes view stays valid; read the keys back with
    /// [`Packet::cached_flow_key`].
    ///
    /// # Errors
    ///
    /// Fails at the first packet that has no flow key (non-IP, or an IP
    /// protocol other than UDP/TCP).
    pub fn memoize_flow_keys(&mut self, lanes: &HeaderLanes) -> Result<()> {
        debug_assert_eq!(lanes.len(), self.pkts.len(), "lanes of this batch");
        for (i, p) in self.pkts.iter_mut().enumerate() {
            if p.cached_flow_key().is_some() {
                continue;
            }
            let key = if lanes.tuple_mask()[i] {
                FlowKey::from_v4(
                    lanes.src_ip()[i],
                    lanes.dst_ip()[i],
                    lanes.src_port()[i],
                    lanes.dst_port()[i],
                    lanes.proto()[i],
                )
            } else {
                FlowKey::of(p)?
            };
            p.memoize_flow_key(key);
        }
        Ok(())
    }

    /// Access by index.
    pub fn get(&self, i: usize) -> Option<&Packet> {
        self.pkts.get(i)
    }

    /// Mutable access by index.
    pub fn get_mut(&mut self, i: usize) -> Option<&mut Packet> {
        self.lanes_memo = None;
        self.pkts.get_mut(i)
    }

    /// Drains all packets out of the batch.
    pub fn drain(&mut self) -> std::vec::Drain<'_, Packet> {
        self.lanes_memo = None;
        self.pkts.drain(..)
    }

    /// Keeps only packets satisfying `pred` (drop semantics: IDS/firewall
    /// discards), returning how many were dropped.
    pub fn retain<F: FnMut(&Packet) -> bool>(&mut self, pred: F) -> usize {
        self.lanes_memo = None;
        let before = self.pkts.len();
        self.pkts.retain(pred);
        before - self.pkts.len()
    }

    /// The memoized [`HeaderLanes`] view: gathered on first call, then
    /// served by refcount bump until any mutable packet access (push,
    /// pop, retain, `iter_mut`, `get_mut`, …) invalidates the memo.
    ///
    /// Because [`Batch::clone`] shares the memo, warming a batch *before*
    /// CoW branch duplication means every read-only branch sweeps the
    /// same gathered columns — the gather is paid once per ingress batch
    /// instead of once per header-only element. Elements that mutate
    /// columns need an owned view; see [`Batch::header_lanes`].
    pub fn shared_lanes(&mut self) -> Arc<HeaderLanes> {
        if let Some(l) = &self.lanes_memo {
            return Arc::clone(l);
        }
        let l = Arc::new(HeaderLanes::gather(self));
        self.lanes_memo = Some(Arc::clone(&l));
        l
    }

    /// The currently memoized lanes view, if still valid.
    pub fn cached_lanes(&self) -> Option<&Arc<HeaderLanes>> {
        self.lanes_memo.as_ref()
    }

    /// Splits the batch into `n_outputs` batches according to `route`,
    /// which maps `(index, packet)` to an output port. This models the
    /// Click-branch re-organization of Figure 5: every produced batch
    /// carries an incremented split count.
    ///
    /// Packets routed to ports `>= n_outputs` are dropped (Click's
    /// `Discard` convention for unwired ports).
    pub fn split_by<F: FnMut(usize, &Packet) -> usize>(
        mut self,
        n_outputs: usize,
        mut route: F,
    ) -> Vec<Batch> {
        // Even-routing capacity guess; skewed routes waste a little
        // space but never reallocate more than the old empty-vec start.
        let n = self.pkts.len();
        let memo = self.lanes_memo.take();
        let per_port = n / n_outputs.max(1) + 1;
        let mut out: Vec<Batch> = (0..n_outputs)
            .map(|_| Batch {
                pkts: Vec::with_capacity(per_port),
                lineage: BatchLineage {
                    splits: self.lineage.splits + 1,
                    merges: self.lineage.merges,
                },
                lanes_memo: None,
            })
            .collect();
        for (i, pkt) in self.pkts.drain(..).enumerate() {
            let port = route(i, &pkt);
            if port < n_outputs {
                out[port].push(pkt);
            }
        }
        // Degenerate split (every packet routed to one port): the rows
        // of that output are the input rows in order, so a memoized
        // lanes view is still valid there — hand it through so chained
        // header-only elements keep sweeping without a re-gather.
        if let Some(memo) = memo {
            if let Some(full) = out.iter_mut().find(|b| b.pkts.len() == n) {
                full.lanes_memo = Some(memo);
            }
        }
        out
    }

    /// Merges several batches into one, restoring the original packet order
    /// by sequence number. This is the order-preserving release point the
    /// paper adopts from Snap's `GPUCompletionQueue`.
    ///
    /// A single input batch is a passthrough: it moves through untouched
    /// and no merge is counted, since nothing was re-organized. (The old
    /// behavior counted one merge even then, and `CompiledGraph::push_at`
    /// carried a compensating `merges -= 1`; both are gone.)
    pub fn merge_ordered<I: IntoIterator<Item = Batch>>(parts: I) -> Batch {
        let mut iter = parts.into_iter();
        let Some(first) = iter.next() else {
            return Batch::new();
        };
        let Some(second) = iter.next() else {
            return first;
        };
        let mut lineage = first.lineage;
        let mut pkts = first.pkts;
        let append = |part: Batch, pkts: &mut Vec<Packet>, lineage: &mut BatchLineage| {
            lineage.splits = lineage.splits.max(part.lineage.splits);
            lineage.merges = lineage.merges.max(part.lineage.merges);
            let mut tail = part.pkts;
            pkts.append(&mut tail);
        };
        append(second, &mut pkts, &mut lineage);
        for part in iter {
            append(part, &mut pkts, &mut lineage);
        }
        // Stable sort: concatenated per-branch runs are already sorted,
        // so this is close to a linear merge in practice.
        pkts.sort_by_key(|p| p.meta.seq);
        lineage.merges += 1;
        Batch {
            pkts,
            lineage,
            lanes_memo: None,
        }
    }
}

impl FromIterator<Packet> for Batch {
    fn from_iter<I: IntoIterator<Item = Packet>>(iter: I) -> Self {
        Batch {
            pkts: iter.into_iter().collect(),
            lineage: BatchLineage::default(),
            lanes_memo: None,
        }
    }
}

impl Extend<Packet> for Batch {
    fn extend<I: IntoIterator<Item = Packet>>(&mut self, iter: I) {
        self.lanes_memo = None;
        self.pkts.extend(iter);
    }
}

impl IntoIterator for Batch {
    type Item = Packet;
    type IntoIter = std::vec::IntoIter<Packet>;

    fn into_iter(self) -> Self::IntoIter {
        self.pkts.into_iter()
    }
}

impl<'a> IntoIterator for &'a Batch {
    type Item = &'a Packet;
    type IntoIter = std::slice::Iter<'a, Packet>;

    fn into_iter(self) -> Self::IntoIter {
        self.pkts.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(seq: u64) -> Packet {
        let mut p = Packet::ipv4_udp([1, 1, 1, 1], [2, 2, 2, 2], 1, 2, b"x");
        p.meta.seq = seq;
        p
    }

    #[test]
    fn split_routes_and_counts() {
        let batch: Batch = (0..10).map(pkt).collect();
        let parts = batch.split_by(2, |i, _| i % 2);
        assert_eq!(parts[0].len(), 5);
        assert_eq!(parts[1].len(), 5);
        assert_eq!(parts[0].lineage.splits, 1);
    }

    #[test]
    fn split_drops_unwired_ports() {
        let batch: Batch = (0..6).map(pkt).collect();
        let parts = batch.split_by(2, |i, _| i % 3);
        assert_eq!(parts[0].len() + parts[1].len(), 4);
    }

    #[test]
    fn merge_restores_sequence_order() {
        let batch: Batch = (0..8).map(pkt).collect();
        let parts = batch.split_by(3, |i, _| i % 3);
        let merged = Batch::merge_ordered(parts);
        assert_eq!(merged.len(), 8);
        let seqs: Vec<u64> = merged.iter().map(|p| p.meta.seq).collect();
        assert_eq!(seqs, (0..8).collect::<Vec<_>>());
        assert_eq!(merged.lineage.merges, 1);
        assert_eq!(merged.lineage.splits, 1);
    }

    #[test]
    fn merge_of_single_batch_is_a_passthrough() {
        let batch: Batch = (0..4).map(pkt).collect();
        let parts = batch.split_by(1, |_, _| 0);
        let merged = Batch::merge_ordered(parts);
        assert_eq!(merged.len(), 4);
        assert_eq!(merged.lineage.merges, 0, "no merge for a single part");
        assert_eq!(merged.lineage.splits, 1);
        // Empty input merges to an empty batch.
        assert!(Batch::merge_ordered(std::iter::empty()).is_empty());
    }

    #[test]
    fn retain_reports_drop_count() {
        let mut batch: Batch = (0..10).map(pkt).collect();
        let dropped = batch.retain(|p| p.meta.seq % 2 == 0);
        assert_eq!(dropped, 5);
        assert_eq!(batch.len(), 5);
    }

    /// Keys read off the lanes equal the parsed keys (an IPv6 row is
    /// parsed), and neither memoizing them nor writing metadata drops
    /// the lanes memo; a packet without a flow key fails the call.
    #[test]
    fn flow_keys_from_lanes_equal_parsed_keys_and_keep_the_lanes() {
        let mut b: Batch = [
            Packet::ipv4_udp([10, 0, 0, 1], [10, 0, 0, 2], 1111, 53, b"u"),
            Packet::ipv4_tcp([192, 168, 1, 9], [172, 16, 0, 1], 40000, 443, b"t", 7),
            Packet::ipv6_udp([1; 16], [2; 16], 5353, 53, b"six"),
        ]
        .into_iter()
        .collect();
        let lanes = b.shared_lanes();
        b.memoize_flow_keys(&lanes).unwrap();
        b.metas_mut().for_each(|m| m.anno[0] = 7);
        assert!(b.cached_lanes().is_some_and(|l| Arc::ptr_eq(l, &lanes)));
        for p in b.iter() {
            assert_eq!(p.cached_flow_key(), Some(FlowKey::of(p).unwrap()));
            assert_eq!(p.meta.anno[0], 7);
        }
        b.push(Packet::from_bytes(vec![0u8; 10]));
        let lanes = b.shared_lanes();
        assert!(b.memoize_flow_keys(&lanes).is_err());
    }

    #[test]
    fn total_bytes_sums_packets() {
        let batch: Batch = (0..4).map(pkt).collect();
        let one = pkt(0).len();
        assert_eq!(batch.total_bytes(), 4 * one);
    }
}
