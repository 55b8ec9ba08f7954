//! Property tests of the cache building blocks against reference models.

use proptest::prelude::*;
use std::collections::HashSet;
use tls_cache::{CacheParams, Inserted, L1Data, SetAssoc, VictimBuffer};
use tls_trace::Addr;

#[derive(Debug, Clone)]
enum SaOp {
    Insert(u8, u16),
    /// Insert under a filter that lets only values with bit `n % 16` set
    /// be evicted.
    InsertFiltered(u8, u16, u8),
    Probe(u8),
    Remove(u8),
    /// `touch_where` on set `n % SETS` for keys `≡ n (mod 3)`.
    Touch(u8),
    /// `retain` flipping every value's low bit and dropping the keys
    /// with `(k ^ n) % 5 == 0`.
    Retain(u8),
}

fn sa_op() -> impl Strategy<Value = SaOp> {
    prop_oneof![
        3 => (any::<u8>(), any::<u16>()).prop_map(|(k, v)| SaOp::Insert(k, v)),
        2 => (any::<u8>(), any::<u16>(), any::<u8>())
            .prop_map(|(k, v, n)| SaOp::InsertFiltered(k, v, n)),
        2 => any::<u8>().prop_map(SaOp::Probe),
        1 => any::<u8>().prop_map(SaOp::Remove),
        1 => any::<u8>().prop_map(SaOp::Touch),
        1 => any::<u8>().prop_map(SaOp::Retain),
    ]
}

/// Reference model: the layout `SetAssoc` had before its sets shared one
/// slab, a `Vec` of `(key, value, stamp)` per set, with the same LRU
/// clock. Every observable order (eviction victims, `remove`'s swap,
/// `retain`'s visiting order, set-major iteration) must match it.
struct RefSetAssoc {
    sets: Vec<Vec<(u8, u16, u64)>>,
    ways: usize,
    tick: u64,
}

impl RefSetAssoc {
    fn new(sets: usize, ways: usize) -> Self {
        RefSetAssoc { sets: vec![Vec::new(); sets], ways, tick: 0 }
    }

    fn probe(&mut self, set: usize, key: u8) -> Option<&mut u16> {
        self.tick += 1;
        let e = self.sets[set].iter_mut().find(|e| e.0 == key)?;
        e.2 = self.tick;
        Some(&mut e.1)
    }

    fn touch_where(&mut self, set: usize, pred: impl Fn(&u8) -> bool) -> Option<u8> {
        let e = self.sets[set].iter_mut().find(|e| pred(&e.0))?;
        self.tick += 1;
        e.2 = self.tick;
        Some(e.0)
    }

    fn insert_with(
        &mut self,
        set: usize,
        key: u8,
        value: u16,
        may_evict: impl Fn(&u8, &u16) -> bool,
    ) -> Inserted<u8, u16> {
        self.tick += 1;
        let stamp = self.tick;
        let s = &mut self.sets[set];
        if s.len() < self.ways {
            s.push((key, value, stamp));
            return Inserted::Placed;
        }
        let victim = s
            .iter()
            .enumerate()
            .filter(|(_, e)| may_evict(&e.0, &e.1))
            .min_by_key(|(_, e)| e.2)
            .map(|(i, _)| i);
        match victim {
            Some(i) => {
                let old = std::mem::replace(&mut s[i], (key, value, stamp));
                Inserted::Evicted(old.0, old.1)
            }
            None => Inserted::SetFull,
        }
    }

    fn remove(&mut self, set: usize, key: u8) -> Option<u16> {
        let i = self.sets[set].iter().position(|e| e.0 == key)?;
        Some(self.sets[set].swap_remove(i).1)
    }

    fn retain(&mut self, mut keep: impl FnMut(&u8, &mut u16) -> bool) {
        for s in &mut self.sets {
            s.retain_mut(|e| keep(&e.0, &mut e.1));
        }
    }

    fn iter(&self) -> Vec<(usize, u8, u16)> {
        let mut out = Vec::new();
        for (s, entries) in self.sets.iter().enumerate() {
            out.extend(entries.iter().map(|e| (s, e.0, e.1)));
        }
        out
    }

    fn contains(&self, set: usize, key: u8) -> bool {
        self.sets[set].iter().any(|e| e.0 == key)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The set-associative array behaves as a bounded map with exactly
    /// the per-set-`Vec` reference's observable behaviour: every insert
    /// outcome (including which key is evicted under a filter), probe,
    /// touch and remove result, `retain`'s visiting order, `iter()`'s
    /// order, and every set's occupancy, which never exceeds the ways.
    #[test]
    fn setassoc_is_a_bounded_map(ops in proptest::collection::vec(sa_op(), 1..300)) {
        const SETS: usize = 4;
        const WAYS: usize = 3;
        let mut c: SetAssoc<u8, u16> = SetAssoc::new(SETS, WAYS);
        let mut r = RefSetAssoc::new(SETS, WAYS);
        let set_of = |k: u8| (k as usize) % SETS;

        for op in ops {
            match op {
                SaOp::Insert(k, v) | SaOp::InsertFiltered(k, v, _)
                    if r.contains(set_of(k), k) =>
                {
                    // Duplicate inserts panic by contract; update via
                    // probe instead.
                    *c.probe(set_of(k), k).expect("resident key probes") = v;
                    *r.probe(set_of(k), k).expect("reference agrees") = v;
                }
                SaOp::Insert(k, v) => {
                    let got = c.insert(set_of(k), k, v);
                    prop_assert!(got != Inserted::SetFull, "unfiltered insert");
                    prop_assert_eq!(got, r.insert_with(set_of(k), k, v, |_, _| true));
                }
                SaOp::InsertFiltered(k, v, n) => {
                    let evictable = |_: &u8, v: &u16| (*v >> (n % 16)) & 1 == 1;
                    let got = c.insert_with(set_of(k), k, v, evictable);
                    prop_assert_eq!(got, r.insert_with(set_of(k), k, v, evictable));
                }
                SaOp::Probe(k) => {
                    let got = c.probe(set_of(k), k).map(|v| *v);
                    prop_assert_eq!(got, r.probe(set_of(k), k).map(|v| *v));
                }
                SaOp::Remove(k) => {
                    prop_assert_eq!(c.remove(set_of(k), k), r.remove(set_of(k), k));
                }
                SaOp::Touch(n) => {
                    let pred = |k: &u8| k % 3 == n % 3;
                    let set = set_of(n);
                    prop_assert_eq!(c.touch_where(set, pred), r.touch_where(set, pred));
                }
                SaOp::Retain(n) => {
                    let (mut seen, mut want) = (Vec::new(), Vec::new());
                    c.retain(|k, v| {
                        seen.push(*k);
                        *v ^= 1;
                        (k ^ n) % 5 != 0
                    });
                    r.retain(|k, v| {
                        want.push(*k);
                        *v ^= 1;
                        (k ^ n) % 5 != 0
                    });
                    prop_assert_eq!(seen, want, "retain visiting order");
                }
            }
            // Observable state after every step.
            let got: Vec<(usize, u8, u16)> = c.iter().map(|(s, k, v)| (s, *k, *v)).collect();
            prop_assert_eq!(got, r.iter(), "iter() order");
            prop_assert_eq!(c.len(), r.iter().len());
            for s in 0..SETS {
                prop_assert_eq!(c.set_len(s), r.sets[s].len());
                prop_assert!(c.set_len(s) <= WAYS);
            }
        }
    }

    /// The victim buffer never exceeds capacity, never duplicates keys,
    /// and `take` finds exactly the still-buffered entries.
    #[test]
    fn victim_buffer_is_a_bounded_set(
        keys in proptest::collection::vec(0u16..40, 1..200),
        cap in 1usize..8,
    ) {
        let mut v: VictimBuffer<u16, u16> = VictimBuffer::new(cap);
        let mut resident: HashSet<u16> = HashSet::new();
        for (i, k) in keys.iter().enumerate() {
            if resident.contains(k) {
                // Contract: no duplicate inserts; take first.
                prop_assert!(v.take(*k).is_some());
                resident.remove(k);
            }
            if let Some((lost, _)) = v.insert(*k, i as u16) {
                prop_assert!(resident.remove(&lost) || lost == *k,
                    "displaced key {lost} was not resident");
            }
            if cap > 0 {
                resident.insert(*k);
            }
            prop_assert!(v.len() <= cap);
            prop_assert_eq!(v.len(), resident.len());
        }
        for k in resident.clone() {
            prop_assert!(v.take(k).is_some(), "resident key {k} must be takeable");
        }
        prop_assert!(v.is_empty());
    }

    /// L1 sanity: a line read after a fill hits until invalidated; the
    /// speculative flash-invalidate drops exactly the modified lines.
    #[test]
    fn l1_read_after_fill_hits_until_invalidated(
        lines in proptest::collection::vec(0u64..64, 1..60),
        spec_writes in proptest::collection::vec(0u64..64, 0..20),
    ) {
        let mut c = L1Data::new(CacheParams::new(64 * 32, 2, 32)); // 32 sets... 64 lines
        let mut maybe_resident: HashSet<u64> = HashSet::new();
        for l in &lines {
            c.fill(Addr(l * 32), false);
            maybe_resident.insert(*l);
        }
        let mut dirty: HashSet<u64> = HashSet::new();
        for l in &spec_writes {
            if c.write(Addr(l * 32), true) == tls_cache::L1WriteOutcome::Hit {
                dirty.insert(*l);
            }
        }
        let dropped = c.invalidate_speculative();
        prop_assert_eq!(dropped, dirty.len() as u64);
        for l in dirty {
            prop_assert!(!c.read(Addr(l * 32), false).hit, "dirty line {l} must be gone");
        }
    }
}
