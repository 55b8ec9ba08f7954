//! Execution-time accounting — the stacked categories of Figures 5 and 6.
//!
//! Every CPU is in exactly one [`CycleCategory`] each cycle. Cycles accrue
//! into the *current sub-thread's* ledger bucket; when a violation rewinds
//! sub-threads `k..`, everything those buckets accumulated is
//! re-classified as **Failed** ("includes all time spent executing failed
//! code"), exactly as the paper attributes it.

use crate::chaos::FaultClass;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::AddAssign;

/// What a CPU spent one cycle doing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CycleCategory {
    /// Executing instructions that were ultimately kept.
    #[default]
    Busy,
    /// Stalled with the oldest instruction waiting on the memory
    /// hierarchy.
    CacheMiss,
    /// Blocked acquiring a latch held by another CPU (escaped
    /// synchronization).
    Latch,
    /// Finished executing, waiting for the homefree token to commit.
    Sync,
    /// Stalled waiting for the TSO store buffer to drain (a full buffer
    /// on store dispatch, a partially-covering forward on load, or a
    /// flush at one of the protocol's ordering points). Always zero
    /// under [`crate::MemoryModel::Sc`].
    DrainStall,
    /// No speculative thread available to run.
    Idle,
    /// Work later undone by a violation (assigned retroactively).
    Failed,
}

/// All categories, in the order Figure 5's legend lists them (the
/// TSO-only [`CycleCategory::DrainStall`] slots in beside the other
/// ordering stalls).
pub const ALL_CATEGORIES: [CycleCategory; 7] = [
    CycleCategory::Idle,
    CycleCategory::Failed,
    CycleCategory::Latch,
    CycleCategory::Sync,
    CycleCategory::DrainStall,
    CycleCategory::CacheMiss,
    CycleCategory::Busy,
];

impl fmt::Display for CycleCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CycleCategory::Busy => "Busy",
            CycleCategory::CacheMiss => "Cache Miss",
            CycleCategory::Latch => "Latch Stall",
            CycleCategory::Sync => "Sync",
            CycleCategory::DrainStall => "Drain Stall",
            CycleCategory::Idle => "Idle",
            CycleCategory::Failed => "Failed",
        };
        f.write_str(s)
    }
}

/// CPU-cycles per category. For an `n`-CPU run of `c` cycles,
/// [`Breakdown::total`] equals `n * c`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Breakdown {
    /// Cycles spent executing retained work.
    pub busy: u64,
    /// Cycles stalled on the memory hierarchy.
    pub cache_miss: u64,
    /// Cycles blocked on latches.
    pub latch: u64,
    /// Cycles waiting to commit.
    pub sync: u64,
    /// Cycles stalled on TSO store-buffer drains (zero under SC).
    pub drain_stall: u64,
    /// Cycles with no thread to run.
    pub idle: u64,
    /// Cycles of work that was rewound.
    pub failed: u64,
}

impl Breakdown {
    /// Adds one cycle of `category`.
    pub fn add(&mut self, category: CycleCategory, cycles: u64) {
        *self.slot_mut(category) += cycles;
    }

    /// Cycles recorded under `category`.
    pub fn get(&self, category: CycleCategory) -> u64 {
        match category {
            CycleCategory::Busy => self.busy,
            CycleCategory::CacheMiss => self.cache_miss,
            CycleCategory::Latch => self.latch,
            CycleCategory::Sync => self.sync,
            CycleCategory::DrainStall => self.drain_stall,
            CycleCategory::Idle => self.idle,
            CycleCategory::Failed => self.failed,
        }
    }

    fn slot_mut(&mut self, category: CycleCategory) -> &mut u64 {
        match category {
            CycleCategory::Busy => &mut self.busy,
            CycleCategory::CacheMiss => &mut self.cache_miss,
            CycleCategory::Latch => &mut self.latch,
            CycleCategory::Sync => &mut self.sync,
            CycleCategory::DrainStall => &mut self.drain_stall,
            CycleCategory::Idle => &mut self.idle,
            CycleCategory::Failed => &mut self.failed,
        }
    }

    /// Sum over all categories.
    pub fn total(&self) -> u64 {
        self.busy
            + self.cache_miss
            + self.latch
            + self.sync
            + self.drain_stall
            + self.idle
            + self.failed
    }

    /// Collapses every non-idle category into `failed` and returns the
    /// result (used when a whole ledger bucket is rewound).
    #[must_use]
    pub fn into_failed(self) -> Breakdown {
        Breakdown { failed: self.total(), ..Breakdown::default() }
    }
}

impl AddAssign for Breakdown {
    fn add_assign(&mut self, rhs: Self) {
        self.busy += rhs.busy;
        self.cache_miss += rhs.cache_miss;
        self.latch += rhs.latch;
        self.sync += rhs.sync;
        self.drain_stall += rhs.drain_stall;
        self.idle += rhs.idle;
        self.failed += rhs.failed;
    }
}

impl fmt::Display for Breakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = self.total().max(1) as f64;
        for c in ALL_CATEGORIES {
            write!(f, "{}: {:.1}%  ", c, 100.0 * self.get(c) as f64 / t)?;
        }
        Ok(())
    }
}

/// Per-sub-thread cycle ledger of one running epoch.
///
/// Bucket `k` holds the cycles accrued since sub-thread `k` began (and
/// after sub-thread `k + 1` began, bucket `k + 1` takes over). A rewind to
/// sub-thread `k` converts buckets `k..` wholly into Failed time.
#[derive(Debug, Clone, Default)]
pub struct SubThreadLedger {
    buckets: Vec<Breakdown>,
}

impl SubThreadLedger {
    /// A ledger with the initial sub-thread's bucket open.
    pub fn new() -> Self {
        SubThreadLedger { buckets: vec![Breakdown::default()] }
    }

    /// Opens the bucket for the next sub-thread.
    pub fn push_subthread(&mut self) {
        self.buckets.push(Breakdown::default());
    }

    /// Index of the newest bucket.
    pub fn current(&self) -> usize {
        self.buckets.len() - 1
    }

    /// Adds one cycle of `category` to the newest bucket.
    pub fn record(&mut self, category: CycleCategory) {
        self.record_n(category, 1);
    }

    /// Adds `cycles` cycles of `category` to the newest bucket in one
    /// step — the bulk form used when the simulator fast-forwards over a
    /// stretch of provably identical stall cycles.
    pub fn record_n(&mut self, category: CycleCategory, cycles: u64) {
        let last = self.buckets.last_mut().expect("ledger always has a bucket");
        last.add(category, cycles);
    }

    /// Merges bucket `m` into bucket `m-1` (sub-thread context
    /// recycling): the cycles stay attributed, under the surviving
    /// checkpoint.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= m < buckets`.
    pub fn merge_bucket(&mut self, m: usize) {
        assert!(m >= 1 && m < self.buckets.len(), "cannot merge bucket {m}");
        let b = self.buckets.remove(m);
        self.buckets[m - 1] += b;
    }

    /// Rewinds to sub-thread `k`: buckets `k..` become Failed time, which
    /// is returned; bucket `k` is re-opened empty.
    ///
    /// # Panics
    ///
    /// Panics if `k` is beyond the newest bucket.
    pub fn rewind_to(&mut self, k: usize) -> Breakdown {
        assert!(k < self.buckets.len(), "rewind to unstarted sub-thread {k}");
        let mut failed = Breakdown::default();
        for b in self.buckets.drain(k..) {
            failed += b.into_failed();
        }
        self.buckets.push(Breakdown::default());
        failed
    }

    /// Closes the ledger (epoch committed), returning the summed kept
    /// time.
    pub fn commit(self) -> Breakdown {
        let mut sum = Breakdown::default();
        for b in self.buckets {
            sum += b;
        }
        sum
    }

    /// Total cycles currently in buckets `k..` — the amount of execution a
    /// rewind to `k` would discard (used for profile attribution).
    pub fn cycles_since(&self, k: usize) -> u64 {
        self.buckets.iter().skip(k).map(Breakdown::total).sum()
    }
}

/// Per-class counters for the chaos harness: how many faults of each
/// class were actually applied, how many found no eligible target, and
/// how many recoverable protocol errors the machine absorbed.
///
/// All zero on a fault-free run, so the struct rides along in every
/// [`crate::report::SimReport`] at no cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Applied [`FaultClass::SpuriousPrimary`] events.
    pub spurious_primary: u64,
    /// Applied [`FaultClass::SpuriousSecondary`] events.
    pub spurious_secondary: u64,
    /// Applied [`FaultClass::VictimSqueeze`] events.
    pub victim_squeeze: u64,
    /// Applied [`FaultClass::ForcedMerge`] events.
    pub forced_merge: u64,
    /// Applied [`FaultClass::DelayedToken`] events.
    pub delayed_token: u64,
    /// Applied [`FaultClass::LatchHazard`] events.
    pub latch_hazard: u64,
    /// Applied [`FaultClass::StuckDrain`] events.
    pub stuck_drain: u64,
    /// Applied [`FaultClass::ReorderedDrain`] events.
    pub reordered_drain: u64,
    /// Applied [`FaultClass::DroppedEntry`] events.
    pub dropped_entry: u64,
    /// Events that fired with no eligible target (e.g. a merge when no
    /// epoch had two checkpoints) and were dropped.
    pub skipped: u64,
    /// Recoverable protocol errors absorbed during the run (see
    /// [`crate::report::SimReport::protocol_errors`]).
    pub protocol_errors: u64,
}

impl FaultStats {
    /// Counts one applied fault of `class`.
    pub fn record(&mut self, class: FaultClass) {
        *self.slot_mut(class) += 1;
    }

    /// Applied-fault count for `class`.
    pub fn get(&self, class: FaultClass) -> u64 {
        match class {
            FaultClass::SpuriousPrimary => self.spurious_primary,
            FaultClass::SpuriousSecondary => self.spurious_secondary,
            FaultClass::VictimSqueeze => self.victim_squeeze,
            FaultClass::ForcedMerge => self.forced_merge,
            FaultClass::DelayedToken => self.delayed_token,
            FaultClass::LatchHazard => self.latch_hazard,
            FaultClass::StuckDrain => self.stuck_drain,
            FaultClass::ReorderedDrain => self.reordered_drain,
            FaultClass::DroppedEntry => self.dropped_entry,
        }
    }

    /// Total faults applied, across every class.
    pub fn applied(&self) -> u64 {
        crate::chaos::ALL_FAULT_CLASSES.iter().map(|&c| self.get(c)).sum()
    }

    fn slot_mut(&mut self, class: FaultClass) -> &mut u64 {
        match class {
            FaultClass::SpuriousPrimary => &mut self.spurious_primary,
            FaultClass::SpuriousSecondary => &mut self.spurious_secondary,
            FaultClass::VictimSqueeze => &mut self.victim_squeeze,
            FaultClass::ForcedMerge => &mut self.forced_merge,
            FaultClass::DelayedToken => &mut self.delayed_token,
            FaultClass::LatchHazard => &mut self.latch_hazard,
            FaultClass::StuckDrain => &mut self.stuck_drain,
            FaultClass::ReorderedDrain => &mut self.reordered_drain,
            FaultClass::DroppedEntry => &mut self.dropped_entry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_total() {
        let mut b = Breakdown::default();
        b.add(CycleCategory::Busy, 10);
        b.add(CycleCategory::Idle, 5);
        assert_eq!(b.total(), 15);
        assert_eq!(b.get(CycleCategory::Busy), 10);
    }

    #[test]
    fn into_failed_collapses() {
        let mut b = Breakdown::default();
        b.add(CycleCategory::Busy, 7);
        b.add(CycleCategory::CacheMiss, 3);
        let f = b.into_failed();
        assert_eq!(f.failed, 10);
        assert_eq!(f.busy, 0);
    }

    #[test]
    fn ledger_rewind_reclassifies_tail_buckets() {
        let mut l = SubThreadLedger::new();
        l.record(CycleCategory::Busy); // sub 0
        l.push_subthread();
        l.record(CycleCategory::Busy); // sub 1
        l.record(CycleCategory::CacheMiss); // sub 1
        l.push_subthread();
        l.record(CycleCategory::Busy); // sub 2
        assert_eq!(l.current(), 2);
        assert_eq!(l.cycles_since(1), 3);

        let failed = l.rewind_to(1);
        assert_eq!(failed.failed, 3);
        assert_eq!(l.current(), 1); // bucket 1 re-opened

        l.record(CycleCategory::Busy);
        let kept = l.commit();
        assert_eq!(kept.busy, 2); // sub 0 + replayed sub 1
        assert_eq!(kept.failed, 0); // failed time was extracted, not kept
    }

    #[test]
    fn ledger_commit_sums_buckets() {
        let mut l = SubThreadLedger::new();
        l.record(CycleCategory::Sync);
        l.push_subthread();
        l.record(CycleCategory::Busy);
        let b = l.commit();
        assert_eq!(b.sync, 1);
        assert_eq!(b.busy, 1);
        assert_eq!(b.total(), 2);
    }

    #[test]
    fn merge_bucket_folds_cycles_down() {
        let mut l = SubThreadLedger::new();
        l.record(CycleCategory::Busy); // sub 0
        l.push_subthread();
        l.record(CycleCategory::CacheMiss); // sub 1
        l.push_subthread();
        l.record(CycleCategory::Sync); // sub 2
        l.merge_bucket(1);
        assert_eq!(l.current(), 1);
        let kept = l.commit();
        assert_eq!((kept.busy, kept.cache_miss, kept.sync), (1, 1, 1));
    }

    #[test]
    #[should_panic(expected = "cannot merge bucket")]
    fn merge_bucket_zero_panics() {
        let mut l = SubThreadLedger::new();
        l.push_subthread();
        l.merge_bucket(0);
    }

    #[test]
    #[should_panic(expected = "unstarted sub-thread")]
    fn rewind_past_end_panics() {
        let mut l = SubThreadLedger::new();
        let _ = l.rewind_to(3);
    }

    #[test]
    fn fault_stats_record_and_sum() {
        let mut s = FaultStats::default();
        s.record(FaultClass::ForcedMerge);
        s.record(FaultClass::ForcedMerge);
        s.record(FaultClass::LatchHazard);
        s.skipped += 1;
        assert_eq!(s.get(FaultClass::ForcedMerge), 2);
        assert_eq!(s.get(FaultClass::LatchHazard), 1);
        assert_eq!(s.applied(), 3, "skipped events are not applied");
    }

    #[test]
    fn display_covers_all_categories() {
        let mut b = Breakdown::default();
        b.add(CycleCategory::Failed, 1);
        let s = format!("{b}");
        for c in ALL_CATEGORIES {
            assert!(s.contains(&format!("{c}")), "missing {c} in {s}");
        }
    }
}
