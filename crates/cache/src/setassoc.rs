//! A generic set-associative array with true-LRU replacement.
//!
//! The same structure backs the private L1s (key = line address) and the
//! multi-versioned shared L2 in `tls-core`, where the key is a *(line
//! address, version owner)* pair so that several speculative versions of
//! one line occupy several ways of the same set — exactly the paper's
//! "multiple versions of each cache line [managed] by using the different
//! ways of each associative set".

use std::fmt::Debug;

/// One resident entry: key, payload, and recency stamp.
#[derive(Debug, Clone)]
struct Entry<K, V> {
    key: K,
    value: V,
    stamp: u64,
}

/// Result of inserting into a set that may already be full.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inserted<K, V> {
    /// There was a free way; nothing was displaced.
    Placed,
    /// The LRU entry (subject to the eviction filter) was displaced.
    Evicted(K, V),
    /// Every resident entry was protected by the eviction filter; the new
    /// entry was **not** inserted. The caller decides what to do (the
    /// TLS L2 treats this as a speculative-overflow stall/violation).
    SetFull,
}

/// A set-associative array of `K → V` with true-LRU replacement.
///
/// Not a timing model: time enters only through the monotonically
/// increasing use counter used for LRU ordering.
///
/// A set gets storage only when it is first filled: all sets share one
/// slab of `ways`-slot chunks, and a zeroed index maps each set to its
/// chunk. Building or dropping a large, sparsely used array (the 16,384
/// sets of a 2 MB L2 for a run that touches a few hundred lines) then
/// costs a few allocations instead of one per set. A set's resident
/// entries are the `Some` prefix of its chunk, kept in the order a
/// per-set `Vec` would hold them (push, swap-remove, in-order retain).
#[derive(Debug, Clone)]
pub struct SetAssoc<K, V> {
    /// Per set, 1 + the index of its chunk in `slab`, or 0 while the set
    /// has never been filled.
    chunk_of: Vec<u32>,
    /// `ways` slots per chunk, chunks in first-fill order.
    slab: Vec<Option<Entry<K, V>>>,
    ways: usize,
    tick: u64,
}

impl<K: Copy + Eq + Debug, V> SetAssoc<K, V> {
    /// An empty array with `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero, or if `sets` does not fit a
    /// `u32`.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0, "cache must have at least one set and way");
        assert!(u32::try_from(sets).is_ok(), "cache has more than u32::MAX sets");
        SetAssoc { chunk_of: vec![0; sets], slab: Vec::new(), ways, tick: 0 }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.chunk_of.len()
    }

    /// Ways per set.
    pub fn ways(&self) -> usize {
        self.ways
    }

    fn bump(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// The slots of `set`'s chunk (empty for a set never filled).
    fn slots(&self, set: usize) -> &[Option<Entry<K, V>>] {
        match self.chunk_of[set] as usize {
            0 => &[],
            c => &self.slab[(c - 1) * self.ways..c * self.ways],
        }
    }

    fn slots_mut(&mut self, set: usize) -> &mut [Option<Entry<K, V>>] {
        match self.chunk_of[set] as usize {
            0 => &mut [],
            c => &mut self.slab[(c - 1) * self.ways..c * self.ways],
        }
    }

    /// Looks up `key` in `set`, refreshing its recency on hit.
    pub fn probe(&mut self, set: usize, key: K) -> Option<&mut V> {
        let stamp = self.bump();
        let entry = self.slots_mut(set).iter_mut().flatten().find(|e| e.key == key)?;
        entry.stamp = stamp;
        Some(&mut entry.value)
    }

    /// Looks up `key` without updating recency (for monitoring / asserts).
    pub fn peek(&self, set: usize, key: K) -> Option<&V> {
        self.slots(set).iter().flatten().find(|e| e.key == key).map(|e| &e.value)
    }

    /// Finds the first entry of `set` matching `pred` in a single scan,
    /// refreshing its recency on hit; a miss leaves the LRU clock
    /// untouched. Returns the matching key.
    ///
    /// Equivalent to a `set_iter_mut().find(...)` followed by a
    /// [`probe`](SetAssoc::probe) of the found key, but walks the set
    /// once instead of twice.
    pub fn touch_where(&mut self, set: usize, mut pred: impl FnMut(&K) -> bool) -> Option<K> {
        let tick = self.tick + 1;
        let entry = self.slots_mut(set).iter_mut().flatten().find(|e| pred(&e.key))?;
        entry.stamp = tick;
        let key = entry.key;
        self.tick = tick;
        Some(key)
    }

    /// Inserts `key → value`, evicting the least-recently-used entry for
    /// which `may_evict` returns true if the set is full.
    ///
    /// If the set is full and *no* entry may be evicted, returns
    /// [`Inserted::SetFull`] and does not insert.
    ///
    /// # Panics
    ///
    /// Panics if `key` is already resident — update via
    /// [`probe`](SetAssoc::probe) instead; duplicate keys would corrupt
    /// LRU state.
    pub fn insert_with(
        &mut self,
        set: usize,
        key: K,
        value: V,
        mut may_evict: impl FnMut(&K, &V) -> bool,
    ) -> Inserted<K, V> {
        assert!(self.peek(set, key).is_none(), "duplicate insert of key {key:?} into set {set}");
        let stamp = self.bump();
        if self.chunk_of[set] == 0 {
            self.slab.resize_with(self.slab.len() + self.ways, || None);
            // Chunks never outnumber sets, whose count `new` bounds.
            self.chunk_of[set] = (self.slab.len() / self.ways) as u32;
        }
        let slots = self.slots_mut(set);
        if let Some(free) = slots.iter_mut().find(|s| s.is_none()) {
            *free = Some(Entry { key, value, stamp });
            return Inserted::Placed;
        }
        let victim = slots
            .iter()
            .flatten()
            .enumerate()
            .filter(|(_, e)| may_evict(&e.key, &e.value))
            .min_by_key(|(_, e)| e.stamp)
            .map(|(i, _)| i);
        match victim {
            Some(i) => {
                let old = slots[i].replace(Entry { key, value, stamp }).expect("full set");
                Inserted::Evicted(old.key, old.value)
            }
            None => Inserted::SetFull,
        }
    }

    /// Inserts with unconditional LRU eviction.
    pub fn insert(&mut self, set: usize, key: K, value: V) -> Inserted<K, V> {
        self.insert_with(set, key, value, |_, _| true)
    }

    /// Removes and returns the entry for `key`, if resident. The set's
    /// last entry takes the removed one's place.
    pub fn remove(&mut self, set: usize, key: K) -> Option<V> {
        let slots = self.slots_mut(set);
        let i = slots.iter().flatten().position(|e| e.key == key)?;
        let last = slots.iter().flatten().count() - 1;
        slots.swap(i, last);
        slots[last].take().map(|e| e.value)
    }

    /// Drops every entry for which the predicate returns false, visiting
    /// sets in order and each set's entries in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) {
        for set in 0..self.sets() {
            let slots = self.slots_mut(set);
            let mut kept = 0;
            for i in 0..slots.len() {
                let Some(e) = &mut slots[i] else { break };
                if keep(&e.key, &mut e.value) {
                    slots.swap(kept, i);
                    kept += 1;
                } else {
                    slots[i] = None;
                }
            }
        }
    }

    /// Iterates over all resident `(set, key, value)` triples, set by set.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &K, &V)> + '_ {
        (0..self.sets())
            .flat_map(move |s| self.slots(s).iter().flatten().map(move |e| (s, &e.key, &e.value)))
    }

    /// Mutable iteration over all resident entries of one set.
    pub fn set_iter_mut(&mut self, set: usize) -> impl Iterator<Item = (&K, &mut V)> + '_ {
        self.slots_mut(set).iter_mut().flatten().map(|e| (&e.key, &mut e.value))
    }

    /// Number of resident entries across all sets.
    pub fn len(&self) -> usize {
        self.slab.iter().flatten().count()
    }

    /// True if nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of resident entries in one set.
    pub fn set_len(&self, set: usize) -> usize {
        self.slots(set).iter().flatten().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_free_ways_before_evicting() {
        let mut c: SetAssoc<u64, u32> = SetAssoc::new(1, 2);
        assert_eq!(c.insert(0, 1, 10), Inserted::Placed);
        assert_eq!(c.insert(0, 2, 20), Inserted::Placed);
        assert_eq!(c.insert(0, 3, 30), Inserted::Evicted(1, 10));
    }

    #[test]
    fn probe_refreshes_lru() {
        let mut c: SetAssoc<u64, u32> = SetAssoc::new(1, 2);
        c.insert(0, 1, 10);
        c.insert(0, 2, 20);
        assert_eq!(c.probe(0, 1), Some(&mut 10)); // 1 is now MRU
        assert_eq!(c.insert(0, 3, 30), Inserted::Evicted(2, 20));
    }

    #[test]
    fn peek_does_not_refresh_lru() {
        let mut c: SetAssoc<u64, u32> = SetAssoc::new(1, 2);
        c.insert(0, 1, 10);
        c.insert(0, 2, 20);
        assert_eq!(c.peek(0, 1), Some(&10));
        assert_eq!(c.insert(0, 3, 30), Inserted::Evicted(1, 10));
    }

    #[test]
    fn eviction_filter_protects_entries() {
        let mut c: SetAssoc<u64, bool> = SetAssoc::new(1, 2);
        c.insert(0, 1, true); // protected
        c.insert(0, 2, false);
        // Only unprotected entries may be evicted.
        assert_eq!(c.insert_with(0, 3, false, |_, v| !*v), Inserted::Evicted(2, false));
        // Now 1 (protected) and 3 (protected after update) fill the set.
        *c.probe(0, 3).unwrap() = true;
        assert_eq!(c.insert_with(0, 4, false, |_, v| !*v), Inserted::SetFull);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn remove_and_retain() {
        let mut c: SetAssoc<u64, u32> = SetAssoc::new(2, 2);
        c.insert(0, 1, 10);
        c.insert(1, 2, 20);
        c.insert(1, 3, 30);
        assert_eq!(c.remove(1, 2), Some(20));
        assert_eq!(c.remove(1, 2), None);
        c.retain(|_, v| *v > 10);
        assert_eq!(c.len(), 1);
        assert_eq!(c.peek(1, 3), Some(&30));
    }

    #[test]
    fn same_key_different_sets_coexist() {
        let mut c: SetAssoc<u64, u32> = SetAssoc::new(2, 1);
        c.insert(0, 7, 1);
        c.insert(1, 7, 2);
        assert_eq!(c.peek(0, 7), Some(&1));
        assert_eq!(c.peek(1, 7), Some(&2));
    }

    #[test]
    #[should_panic(expected = "duplicate insert")]
    fn duplicate_insert_panics() {
        let mut c: SetAssoc<u64, u32> = SetAssoc::new(1, 2);
        c.insert(0, 1, 10);
        c.insert(0, 1, 11);
    }

    #[test]
    fn tuple_keys_model_versions() {
        // (line, owner) keys: two versions of line 5 in one set.
        let mut c: SetAssoc<(u64, u8), u32> = SetAssoc::new(1, 4);
        c.insert(0, (5, 0), 100);
        c.insert(0, (5, 1), 200);
        assert_eq!(c.peek(0, (5, 0)), Some(&100));
        assert_eq!(c.peek(0, (5, 1)), Some(&200));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn touch_where_refreshes_only_on_hit() {
        let mut c: SetAssoc<(u64, u8), u32> = SetAssoc::new(1, 3);
        c.insert(0, (5, 0), 100);
        c.insert(0, (5, 1), 200);
        c.insert(0, (9, 0), 300);
        // Hit: finds the first matching entry and makes it MRU.
        assert_eq!(c.touch_where(0, |k| k.0 == 5), Some((5, 0)));
        // Miss: no recency churn, so the LRU order is unchanged and the
        // untouched (5, 1) is the next victim.
        assert_eq!(c.touch_where(0, |k| k.0 == 77), None);
        assert_eq!(c.insert(0, (1, 0), 400), Inserted::Evicted((5, 1), 200));
    }

    #[test]
    fn touch_where_matches_find_plus_probe_tick_sequence() {
        // The merged scan must bump the LRU clock exactly like the old
        // two-pass find-then-probe: once per hit, zero per miss.
        let mut a: SetAssoc<(u64, u8), u32> = SetAssoc::new(1, 4);
        let mut b: SetAssoc<(u64, u8), u32> = SetAssoc::new(1, 4);
        for c in [&mut a, &mut b] {
            c.insert(0, (5, 0), 1);
            c.insert(0, (5, 1), 2);
            c.insert(0, (6, 0), 3);
        }
        // Old idiom on `a`.
        for line in [5u64, 6, 7, 5] {
            let found =
                a.set_iter_mut(0).find_map(|(k, _)| if k.0 == line { Some(*k) } else { None });
            if let Some(key) = found {
                a.probe(0, key);
            }
        }
        // New idiom on `b`.
        for line in [5u64, 6, 7, 5] {
            b.touch_where(0, |k| k.0 == line);
        }
        // Same LRU state ⇒ same victim on the next two inserts.
        assert_eq!(a.insert(0, (8, 0), 9), b.insert(0, (8, 0), 9));
        assert_eq!(a.insert(0, (9, 0), 9), b.insert(0, (9, 0), 9));
    }

    #[test]
    fn iter_covers_everything() {
        let mut c: SetAssoc<u64, u32> = SetAssoc::new(4, 2);
        for i in 0..6u64 {
            c.insert((i % 4) as usize, i, i as u32);
        }
        assert_eq!(c.iter().count(), 6);
    }
}
