//! Per-worker event ring buffers.
//!
//! A [`Recorder`] is a single-owner (hence lock-free) bounded ring of
//! [`Event`]s. Each `par_map` worker unit, the pipeline simulator, and
//! the planner hold their own recorder; recorders are absorbed into the
//! shared sink in deterministic (input-index) order after the parallel
//! section joins, so the merged stream never depends on thread timing.
//!
//! The disabled recorder ([`Recorder::disabled`]) is allocation-free and
//! every emit method early-returns on it, so instrumented hot paths cost
//! one predictable branch when telemetry is off.

use crate::event::{wall_now_ns, Event, EventKind, SimStamp};
use std::collections::{BTreeMap, VecDeque};

/// Default per-recorder ring capacity (events). When a ring is full the
/// oldest event is overwritten and counted in [`Recorder::dropped`],
/// flight-recorder style.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// A bounded single-owner event ring.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    enabled: bool,
    track: u32,
    batch: u64,
    capacity: usize,
    ring: VecDeque<Event>,
    dropped: u64,
    dropped_by_cat: BTreeMap<&'static str, u64>,
}

impl Recorder {
    /// The no-op recorder: records nothing, allocates nothing.
    #[inline]
    pub fn disabled() -> Self {
        Recorder::default()
    }

    /// An enabled recorder holding at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Recorder {
            enabled: true,
            track: 0,
            batch: 0,
            capacity: capacity.max(1),
            ring: VecDeque::new(),
            dropped: 0,
            dropped_by_cat: BTreeMap::new(),
        }
    }

    /// Whether emit calls record anything. Call sites that allocate to
    /// build an [`EventKind`] (names, strings) should guard on this.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the display lane used for wall-clock events (branch index,
    /// worker id, ...).
    #[inline]
    pub fn set_track(&mut self, track: u32) {
        self.track = track;
    }

    /// Current display lane.
    #[inline]
    pub fn track(&self) -> u32 {
        self.track
    }

    /// Sets the batch lineage tag stamped on every subsequently recorded
    /// event (`0` clears the tag). The runtime tags the span of events
    /// belonging to one packet batch so the attribution layer can
    /// re-join them from a trace.
    #[inline]
    pub fn set_batch(&mut self, batch: u64) {
        self.batch = batch;
    }

    /// Current batch lineage tag (`0` when untagged).
    #[inline]
    pub fn batch(&self) -> u64 {
        self.batch
    }

    /// Reads the wall clock for a span begin; `0` when disabled so the
    /// disabled path never touches the clock.
    #[inline]
    pub fn start(&self) -> u64 {
        if self.enabled {
            wall_now_ns()
        } else {
            0
        }
    }

    /// Records a wall-clock instant on the current track.
    #[inline]
    pub fn instant(&mut self, kind: EventKind) {
        if !self.enabled {
            return;
        }
        let now = wall_now_ns();
        self.push(Event {
            wall_ns: now,
            wall_dur_ns: 0,
            sim: None,
            track: self.track,
            batch: self.batch,
            kind,
        });
    }

    /// Records a wall-clock span that began at `begin_ns` (a prior
    /// [`Recorder::start`] read) and ends now.
    #[inline]
    pub fn wall_span(&mut self, begin_ns: u64, kind: EventKind) {
        if !self.enabled {
            return;
        }
        let now = wall_now_ns();
        self.push(Event {
            wall_ns: begin_ns,
            wall_dur_ns: now.saturating_sub(begin_ns),
            sim: None,
            track: self.track,
            batch: self.batch,
            kind,
        });
    }

    /// Records a simulated-time span on resource/queue lane `track`.
    #[inline]
    pub fn sim_span(&mut self, track: u32, start_ns: f64, end_ns: f64, kind: EventKind) {
        if !self.enabled {
            return;
        }
        let now = wall_now_ns();
        self.push(Event {
            wall_ns: now,
            wall_dur_ns: 0,
            sim: Some(SimStamp { start_ns, end_ns }),
            track,
            batch: self.batch,
            kind,
        });
    }

    /// Records a simulated-time instant on resource/queue lane `track`.
    #[inline]
    pub fn sim_instant(&mut self, track: u32, at_ns: f64, kind: EventKind) {
        self.sim_span(track, at_ns, at_ns, kind);
    }

    #[inline]
    fn push(&mut self, ev: Event) {
        debug_assert!(
            ev.kind.in_vocabulary(),
            "label outside its vocabulary: {ev:?}"
        );
        if self.ring.len() >= self.capacity {
            if let Some(old) = self.ring.pop_front() {
                self.dropped += 1;
                *self.dropped_by_cat.entry(old.kind.category()).or_insert(0) += 1;
            }
        }
        self.ring.push_back(ev);
    }

    /// Appends every event of `other` (in order), accumulating its drop
    /// counts (total and per category). Used for the deterministic
    /// per-worker merge.
    pub fn absorb(&mut self, other: Recorder) {
        if !self.enabled {
            return;
        }
        self.dropped += other.dropped;
        for (cat, n) in other.dropped_by_cat {
            *self.dropped_by_cat.entry(cat).or_insert(0) += n;
        }
        for ev in other.ring {
            self.push(ev);
        }
    }

    /// Events currently held, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.ring.iter()
    }

    /// The most recently recorded event (`None` when disabled or empty).
    pub fn last(&self) -> Option<&Event> {
        self.ring.back()
    }

    /// Consumes the recorder, yielding its events oldest first.
    pub fn into_events(self) -> impl Iterator<Item = Event> {
        self.ring.into_iter()
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when no events are held.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events overwritten because the ring was full, split by the
    /// dropped event's category.
    pub fn dropped_by_category(&self) -> &BTreeMap<&'static str, u64> {
        &self.dropped_by_cat
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split(parts: u32) -> EventKind {
        EventKind::BatchSplit { node: 0, parts }
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::disabled();
        assert!(!r.is_enabled());
        r.instant(split(1));
        r.wall_span(r.start(), split(2));
        r.sim_span(3, 0.0, 10.0, split(3));
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut r = Recorder::with_capacity(3);
        for i in 0..5 {
            r.instant(split(i));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let parts: Vec<u32> = r
            .events()
            .map(|e| match e.kind {
                EventKind::BatchSplit { parts, .. } => parts,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(parts, [2, 3, 4], "oldest events are overwritten first");
    }

    #[test]
    fn absorb_preserves_order_and_drops() {
        let mut a = Recorder::with_capacity(16);
        a.instant(split(0));
        let mut b = Recorder::with_capacity(2);
        for i in 10..13 {
            b.instant(split(i));
        }
        a.absorb(b);
        let parts: Vec<u32> = a
            .events()
            .map(|e| match e.kind {
                EventKind::BatchSplit { parts, .. } => parts,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(parts, [0, 11, 12]);
        assert_eq!(a.dropped(), 1);
    }

    #[test]
    fn spans_measure_wall_time() {
        let mut r = Recorder::with_capacity(4);
        let t = r.start();
        std::hint::black_box((0..1000).sum::<u64>());
        r.wall_span(t, split(0));
        let ev = r.events().next().expect("one event");
        assert_eq!(ev.wall_ns, t);
        assert!(ev.sim.is_none());
    }

    #[test]
    fn batch_tag_stamps_until_cleared() {
        let mut r = Recorder::with_capacity(8);
        r.instant(split(0));
        r.set_batch(42);
        r.instant(split(1));
        r.sim_span(0, 1.0, 2.0, split(2));
        r.set_batch(0);
        r.instant(split(3));
        let tags: Vec<u64> = r.events().map(|e| e.batch).collect();
        assert_eq!(tags, [0, 42, 42, 0]);
    }

    #[test]
    fn drops_are_counted_per_category() {
        let mut r = Recorder::with_capacity(2);
        r.instant(split(0)); // category "batch"
        r.instant(EventKind::FlowCacheBatch { hits: 1, misses: 0 });
        r.instant(split(1)); // evicts the batch event
        r.instant(split(2)); // evicts the flow-cache event
        assert_eq!(r.dropped(), 2);
        assert_eq!(r.dropped_by_category().get("batch"), Some(&1));
        assert_eq!(r.dropped_by_category().get("flow-cache"), Some(&1));
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// Tags an event so its producing worker and per-worker sequence
        /// number survive the merge.
        fn tagged(worker: u32, seq: u32) -> EventKind {
            EventKind::BatchSplit {
                node: worker,
                parts: seq,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Merging per-worker rings (in any interleaving of absorb
            /// calls, with arbitrary per-worker event counts and ring
            /// capacities) preserves each worker's event order and the
            /// total dropped count.
            #[test]
            fn absorb_preserves_per_worker_order_and_drop_totals(
                counts in collection::vec(0usize..40, 1..6),
                caps in collection::vec(1usize..16, 1..6),
                order_seed in any::<u64>(),
            ) {
                let workers = counts.len();
                let mut rings: Vec<Recorder> = (0..workers)
                    .map(|w| {
                        let cap = caps[w % caps.len()];
                        let mut r = Recorder::with_capacity(cap);
                        r.set_track(w as u32);
                        for seq in 0..counts[w] {
                            r.instant(tagged(w as u32, seq as u32));
                        }
                        r
                    })
                    .collect();
                let expected_dropped: u64 = rings.iter().map(|r| r.dropped()).sum();
                // Surviving per-worker sequences, in ring order.
                let survivors: Vec<Vec<u32>> = rings
                    .iter()
                    .map(|r| {
                        r.events()
                            .map(|e| match e.kind {
                                EventKind::BatchSplit { parts, .. } => parts,
                                _ => unreachable!(),
                            })
                            .collect()
                    })
                    .collect();
                // Absorb in an arbitrary interleaving-derived order.
                let mut order: Vec<usize> = (0..workers).collect();
                let mut s = order_seed;
                for i in (1..workers).rev() {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                    order.swap(i, (s >> 33) as usize % (i + 1));
                }
                let total: usize = survivors.iter().map(Vec::len).sum();
                let mut master = Recorder::with_capacity(total.max(1));
                for &w in &order {
                    master.absorb(std::mem::take(&mut rings[w]));
                }
                // Total drop count is the sum of per-worker drops (the
                // master ring was sized to fit every survivor).
                prop_assert_eq!(master.dropped(), expected_dropped);
                let per_cat: u64 = master.dropped_by_category().values().sum();
                prop_assert_eq!(per_cat, expected_dropped);
                // Each worker's surviving events appear in their original
                // relative order.
                for (w, expect) in survivors.iter().enumerate() {
                    let got: Vec<u32> = master
                        .events()
                        .filter_map(|e| match e.kind {
                            EventKind::BatchSplit { node, parts } if node == w as u32 => {
                                Some(parts)
                            }
                            _ => None,
                        })
                        .collect();
                    prop_assert_eq!(&got, expect, "worker {} order", w);
                }
            }
        }
    }
}
