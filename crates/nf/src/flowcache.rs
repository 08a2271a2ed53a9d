//! A bounded, generation-stamped CLOCK cache shared by the flow-aware
//! fast path (`nfc-core`) and stateful elements that need a bounded
//! table (e.g. the WAN optimizer's dedup fingerprint store).
//!
//! Design targets, in order:
//!
//! * **Bounded** — capacity is fixed at construction; insertions past
//!   capacity evict, they never grow the table or flush it wholesale.
//! * **O(1) everything** — the table is 4-way set-associative with a
//!   per-set CLOCK hand, so lookup, insert and eviction touch at most
//!   [`WAYS`] slots.
//! * **Cheap bulk invalidation** — [`ClockTable::invalidate_all`] bumps a
//!   generation counter instead of clearing storage; stale entries are
//!   reclaimed lazily as sets are revisited. This is what makes
//!   configuration-swap invalidation (ACL rule reloads) affordable on
//!   the datapath.

use std::fmt::Debug;

/// Associativity of each set: an entry with hash `h` can live in any of
/// the `WAYS` slots of set `h & set_mask`.
pub const WAYS: usize = 4;

#[derive(Debug, Clone)]
struct Slot<K, V> {
    key: K,
    value: V,
    generation: u64,
    referenced: bool,
}

/// Hit/miss/eviction counters for one [`ClockTable`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing (or only a stale-generation entry).
    pub misses: u64,
    /// Live entries displaced to make room for an insertion.
    pub evictions: u64,
    /// Bulk invalidations ([`ClockTable::invalidate_all`] calls).
    pub invalidations: u64,
}

impl CacheCounters {
    /// Element-wise sum, for aggregating per-stage caches into a
    /// deployment-wide total.
    pub fn merge(self, other: CacheCounters) -> CacheCounters {
        CacheCounters {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
            invalidations: self.invalidations + other.invalidations,
        }
    }
}

/// A bounded set-associative cache with CLOCK (second-chance) eviction
/// and generation-stamped lazy invalidation.
///
/// Callers supply the hash alongside the key on every operation, so keys
/// that already carry a precomputed hash (like `nfc_packet::FlowKey`)
/// are never re-hashed.
#[derive(Debug, Clone)]
pub struct ClockTable<K, V> {
    slots: Vec<Option<Slot<K, V>>>,
    /// Per-set CLOCK hand (next way to consider for eviction).
    hands: Vec<u8>,
    set_mask: usize,
    generation: u64,
    len: usize,
    counters: CacheCounters,
}

impl<K: Eq + Clone + Debug, V: Debug> ClockTable<K, V> {
    /// Creates a table holding at least `capacity` entries (rounded up to
    /// a power-of-two number of [`WAYS`]-wide sets, minimum one set).
    pub fn with_capacity(capacity: usize) -> Self {
        let sets = (capacity.max(WAYS) / WAYS).next_power_of_two();
        ClockTable {
            slots: std::iter::repeat_with(|| None).take(sets * WAYS).collect(),
            hands: vec![0; sets],
            set_mask: sets - 1,
            generation: 0,
            len: 0,
            counters: CacheCounters::default(),
        }
    }

    /// Total slots available.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Live entries (entries of the current generation).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no live entries exist.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current generation stamp.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Accumulated hit/miss/eviction counters.
    pub fn counters(&self) -> CacheCounters {
        self.counters
    }

    fn set_base(&self, hash: u64) -> usize {
        ((hash as usize) & self.set_mask) * WAYS
    }

    /// The slot holding `key`'s live entry, if any.
    fn find(&self, hash: u64, key: &K) -> Option<usize> {
        let base = self.set_base(hash);
        (base..base + WAYS).find(|&i| {
            self.slots[i]
                .as_ref()
                .is_some_and(|slot| slot.generation == self.generation && slot.key == *key)
        })
    }

    /// Looks up `key`, marking the entry recently-used on a hit. Entries
    /// from before the last [`ClockTable::invalidate_all`] are misses.
    pub fn get(&mut self, hash: u64, key: &K) -> Option<&V> {
        self.get_mut(hash, key).map(|v| &*v)
    }

    /// Looks up `key` without touching counters or referenced bits.
    pub fn peek(&self, hash: u64, key: &K) -> Option<&V> {
        self.peek_slot(hash, key).map(|(_, value)| value)
    }

    /// [`ClockTable::peek`] that also names the slot holding the entry,
    /// for callers that classify a whole batch first and account it
    /// afterwards with [`ClockTable::commit_lookups`] — or not at all, if
    /// the batch ends up not using the table.
    pub fn peek_slot(&self, hash: u64, key: &K) -> Option<(usize, &V)> {
        self.find(hash, key).map(|i| (i, self.value_at(i)))
    }

    /// The value in `slot`, as named by [`ClockTable::peek_slot`]. Only
    /// meaningful while the table is unmodified since that lookup:
    /// [`ClockTable::commit_lookups`] sets referenced bits and moves
    /// nothing, but an insert may overwrite the slot.
    ///
    /// # Panics
    ///
    /// Panics if `slot` does not name an occupied slot.
    pub fn value_at(&self, slot: usize) -> &V {
        &self.slots[slot]
            .as_ref()
            .expect("slot named by peek_slot")
            .value
    }

    /// Accounts lookups classified by [`ClockTable::peek_slot`] exactly
    /// as the same sequence of [`ClockTable::get`] calls would have: one
    /// hit and a set referenced bit per entry of `hit_slots`, `misses`
    /// misses. The table must not have been modified in between.
    ///
    /// # Panics
    ///
    /// Panics if a slot index does not name an occupied slot.
    pub fn commit_lookups(&mut self, hit_slots: impl IntoIterator<Item = usize>, misses: u64) {
        for slot in hit_slots {
            self.slots[slot]
                .as_mut()
                .expect("slot named by peek_slot")
                .referenced = true;
            self.counters.hits += 1;
        }
        self.counters.misses += misses;
    }

    /// Like [`ClockTable::get`] but returns a mutable value reference.
    pub fn get_mut(&mut self, hash: u64, key: &K) -> Option<&mut V> {
        let Some(i) = self.find(hash, key) else {
            self.counters.misses += 1;
            return None;
        };
        self.counters.hits += 1;
        let slot = self.slots[i].as_mut().expect("found live");
        slot.referenced = true;
        Some(&mut slot.value)
    }

    /// Inserts (or overwrites) `key`. Victim preference within the set:
    /// the same live key, then an empty slot, then a stale-generation
    /// slot, then the CLOCK scan (clearing referenced bits until an
    /// unreferenced entry is found).
    pub fn insert(&mut self, hash: u64, key: K, value: V) {
        let base = self.set_base(hash);
        let generation = self.generation;
        let mut empty = None;
        let mut stale = None;
        for way in 0..WAYS {
            match &self.slots[base + way] {
                Some(slot) if slot.generation == generation => {
                    if slot.key == key {
                        self.slots[base + way] = Some(Slot {
                            key,
                            value,
                            generation,
                            referenced: true,
                        });
                        return;
                    }
                }
                Some(_) => stale = Some(way),
                None => empty = Some(way),
            }
        }
        let way = match empty.or(stale) {
            Some(way) => {
                self.len += 1;
                way
            }
            None => {
                // CLOCK scan: give referenced entries a second chance.
                let set = base / WAYS;
                let mut hand = usize::from(self.hands[set]);
                loop {
                    let slot = self.slots[base + hand].as_mut().expect("set is full");
                    if slot.referenced {
                        slot.referenced = false;
                        hand = (hand + 1) % WAYS;
                    } else {
                        break;
                    }
                }
                self.hands[set] = ((hand + 1) % WAYS) as u8;
                self.counters.evictions += 1;
                hand
            }
        };
        self.slots[base + way] = Some(Slot {
            key,
            value,
            generation,
            referenced: true,
        });
    }

    /// Invalidates every entry in O(1) by advancing the generation.
    /// Storage is reclaimed lazily as sets are touched again.
    pub fn invalidate_all(&mut self) {
        self.generation += 1;
        self.len = 0;
        self.counters.invalidations += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_is_power_of_two_sets() {
        let t: ClockTable<u32, u32> = ClockTable::with_capacity(100);
        assert_eq!(t.capacity(), 128);
        assert!(t.capacity().is_multiple_of(WAYS));
        let tiny: ClockTable<u32, u32> = ClockTable::with_capacity(1);
        assert_eq!(tiny.capacity(), WAYS);
    }

    #[test]
    fn get_after_insert_round_trips() {
        let mut t = ClockTable::with_capacity(16);
        t.insert(7, 7u32, "seven");
        t.insert(9, 9u32, "nine");
        assert_eq!(t.get(7, &7), Some(&"seven"));
        assert_eq!(t.get(9, &9), Some(&"nine"));
        assert_eq!(t.get(8, &8), None);
        assert_eq!(t.len(), 2);
        let c = t.counters();
        assert_eq!((c.hits, c.misses), (2, 1));
    }

    #[test]
    fn deferred_accounting_matches_get_and_is_optional() {
        // One full set: every insert below lands in it.
        let fill = || {
            let mut t = ClockTable::with_capacity(WAYS);
            for k in 0..WAYS as u32 + 1 {
                t.insert(0, k, k); // the last insert clears every referenced bit
            }
            t
        };
        let (mut eager, mut deferred, mut unused) = (fill(), fill(), fill());
        let before = unused.counters();
        // Classifying with peek_slot and never committing leaves no trace.
        assert!(unused.peek_slot(0, &2).is_some());
        assert!(unused.peek_slot(0, &99).is_none());
        assert_eq!(unused.counters(), before);
        // Committing is the same as having called `get`.
        assert_eq!(eager.get(0, &2), Some(&2));
        assert_eq!(eager.get(0, &99), None);
        let (slot, value) = deferred.peek_slot(0, &2).expect("live entry");
        assert_eq!(*value, 2);
        deferred.commit_lookups([slot], 1);
        assert_eq!(deferred.counters(), eager.counters());
        // The referenced bit decides the victims of the next two inserts:
        // key 2 survives where the lookup was accounted and is evicted
        // where it was not.
        for t in [&mut eager, &mut deferred, &mut unused] {
            t.insert(0, 100, 100);
            t.insert(0, 101, 101);
        }
        let live = |t: &ClockTable<u32, u32>| -> Vec<u32> {
            (0..102).filter(|k| t.peek(0, k).is_some()).collect()
        };
        assert_eq!(live(&eager), live(&deferred));
        assert_ne!(live(&eager), live(&unused));
    }

    #[test]
    fn insert_overwrites_same_key() {
        let mut t = ClockTable::with_capacity(16);
        t.insert(7, 7u32, 1u32);
        t.insert(7, 7u32, 2u32);
        assert_eq!(t.get(7, &7), Some(&2));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn eviction_is_bounded_and_admits_new_keys() {
        // Force a single set by keeping the hash constant: after WAYS
        // inserts the set is full, and every further insert must evict
        // rather than refuse admission (regression guard for the old
        // WanOptimizer clear-at-capacity behaviour).
        let mut t = ClockTable::with_capacity(WAYS);
        for k in 0..(WAYS as u32 * 3) {
            t.insert(0, k, k);
            assert_eq!(t.get(0, &k), Some(&k), "new key {k} must be admitted");
            assert!(t.len() <= WAYS);
        }
        assert_eq!(t.counters().evictions as usize, WAYS * 2);
    }

    #[test]
    fn clock_prefers_unreferenced_victims() {
        let mut t = ClockTable::with_capacity(WAYS);
        for k in 0..WAYS as u32 {
            t.insert(0, k, k);
        }
        // Touch key 0 so its referenced bit is set, then clear all bits
        // via one CLOCK rotation triggered by inserting a new key.
        for k in 0..WAYS as u32 {
            t.get(0, &k);
        }
        t.insert(0, 100u32, 100);
        assert_eq!(t.get(0, &100), Some(&100));
        // Exactly one old key was displaced.
        let survivors = (0..WAYS as u32).filter(|k| t.get(0, k).is_some()).count();
        assert_eq!(survivors, WAYS - 1);
    }

    #[test]
    fn generation_invalidates_everything_lazily() {
        let mut t = ClockTable::with_capacity(16);
        for k in 0..8u32 {
            t.insert(u64::from(k), k, k);
        }
        assert_eq!(t.len(), 8);
        t.invalidate_all();
        assert!(t.is_empty());
        assert_eq!(t.generation(), 1);
        for k in 0..8u32 {
            assert_eq!(t.get(u64::from(k), &k), None, "stale entry {k} must miss");
        }
        // Re-inserting over stale slots keeps len consistent.
        t.insert(3, 3u32, 33);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(3, &3), Some(&33));
        assert_eq!(t.counters().invalidations, 1);
    }
}
