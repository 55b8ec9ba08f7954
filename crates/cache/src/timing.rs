//! Contention timing models: L2 banks, the memory bus, and miss handlers.
//!
//! These are deliberately simple queueing models — each resource tracks
//! when it next becomes free and requests are serviced in arrival order —
//! which is how the paper's own simulator models "bandwidth and contention"
//! of the crossbar, banks and main memory.

use crate::MemParams;
use tls_trace::Addr;

/// The line-interleaved L2 bank array.
///
/// A request occupies its bank for [`MemParams::bank_service_cycles`]
/// (line transfer over the 8 B/cycle crossbar port); a busy bank delays the
/// request start.
#[derive(Debug, Clone)]
pub struct BankArray {
    next_free: Vec<u64>,
    service: u64,
    line_shift: u32,
    busy_cycles: u64,
}

impl BankArray {
    /// A bank array per `params`, with lines of `1 << line_shift` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `params.l2_banks` is zero.
    pub fn new(params: &MemParams, line_shift: u32) -> Self {
        assert!(params.l2_banks > 0, "need at least one L2 bank");
        BankArray {
            next_free: vec![0; params.l2_banks],
            service: params.bank_service_cycles.max(1),
            line_shift,
            busy_cycles: 0,
        }
    }

    /// The bank index serving `addr` (line-interleaved).
    pub fn bank_of(&self, addr: Addr) -> usize {
        ((addr.0 >> self.line_shift) % self.next_free.len() as u64) as usize
    }

    /// Books the bank for a request arriving at `cycle`; returns the cycle
    /// at which the bank *starts* serving it.
    pub fn book(&mut self, addr: Addr, cycle: u64) -> u64 {
        let bank = self.bank_of(addr);
        let start = cycle.max(self.next_free[bank]);
        if start > cycle {
            self.busy_cycles += start - cycle;
        }
        self.next_free[bank] = start + self.service;
        start
    }

    /// Total cycles requests spent queued behind busy banks (a measure of
    /// L2 contention).
    pub fn queueing_cycles(&self) -> u64 {
        self.busy_cycles
    }
}

/// The main-memory channel: one new access may begin per
/// [`MemParams::mem_issue_interval`] cycles.
#[derive(Debug, Clone)]
pub struct MemBus {
    next_issue: u64,
    interval: u64,
    accesses: u64,
}

impl MemBus {
    /// A memory bus per `params`.
    pub fn new(params: &MemParams) -> Self {
        MemBus { next_issue: 0, interval: params.mem_issue_interval.max(1), accesses: 0 }
    }

    /// Books the channel for an access arriving at `cycle`; returns the
    /// cycle at which the access begins.
    pub fn book(&mut self, cycle: u64) -> u64 {
        let start = cycle.max(self.next_issue);
        self.next_issue = start + self.interval;
        self.accesses += 1;
        start
    }

    /// Total memory accesses issued.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }
}

/// A bounded set of outstanding misses (miss status holding registers).
///
/// A CPU whose MSHRs are all busy cannot issue another miss; the paper's
/// cores have 128 data and 2 instruction miss handlers.
#[derive(Debug, Clone)]
pub struct MshrFile {
    completions: Vec<u64>,
    capacity: usize,
    full_rejections: u64,
}

impl MshrFile {
    /// An MSHR file with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "need at least one MSHR");
        MshrFile { completions: Vec::with_capacity(capacity), capacity, full_rejections: 0 }
    }

    /// Retires entries whose miss completed at or before `cycle`, then
    /// reports whether a new miss can be accepted.
    #[inline]
    pub fn can_accept(&mut self, cycle: u64) -> bool {
        self.completions.retain(|&c| c > cycle);
        let ok = self.completions.len() < self.capacity;
        if !ok {
            self.full_rejections += 1;
        }
        ok
    }

    /// Registers a miss that will complete at `completion_cycle`.
    ///
    /// # Panics
    ///
    /// Panics if the file is full — call [`can_accept`](Self::can_accept)
    /// first.
    pub fn add(&mut self, completion_cycle: u64) {
        assert!(self.completions.len() < self.capacity, "MSHR overflow");
        self.completions.push(completion_cycle);
    }

    /// Outstanding misses not yet retired by `can_accept`.
    pub fn outstanding(&self) -> usize {
        self.completions.len()
    }

    /// The earliest fill completing strictly after `cycle`, if any.
    ///
    /// Entries at or before `cycle` are already logically retired (they
    /// are dropped lazily by [`can_accept`](Self::can_accept)) and are
    /// ignored, so this is a sound wake-up candidate for an event-driven
    /// caller.
    pub fn next_completion_after(&self, cycle: u64) -> Option<u64> {
        self.completions.iter().copied().filter(|&c| c > cycle).min()
    }

    /// How often a miss found the file full.
    pub fn full_rejections(&self) -> u64 {
        self.full_rejections
    }

    /// Forgets all outstanding misses (used on pipeline flushes: the
    /// fills still happen but no longer block new requests — a small
    /// simplification that only matters across violations).
    pub fn clear(&mut self) {
        self.completions.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> MemParams {
        MemParams::paper_default()
    }

    #[test]
    fn banks_are_line_interleaved() {
        let b = BankArray::new(&params(), 5);
        assert_eq!(b.bank_of(Addr(0)), 0);
        assert_eq!(b.bank_of(Addr(32)), 1);
        assert_eq!(b.bank_of(Addr(64)), 2);
        assert_eq!(b.bank_of(Addr(96)), 3);
        assert_eq!(b.bank_of(Addr(128)), 0);
    }

    #[test]
    fn same_bank_requests_queue() {
        let mut b = BankArray::new(&params(), 5);
        assert_eq!(b.book(Addr(0), 100), 100);
        assert_eq!(b.book(Addr(128), 100), 104); // same bank, queued
        assert_eq!(b.book(Addr(32), 100), 100); // different bank
        assert_eq!(b.queueing_cycles(), 4);
    }

    #[test]
    fn idle_bank_serves_immediately() {
        let mut b = BankArray::new(&params(), 5);
        b.book(Addr(0), 0);
        assert_eq!(b.book(Addr(0), 1000), 1000);
    }

    #[test]
    fn mem_bus_paces_accesses() {
        let mut m = MemBus::new(&params());
        assert_eq!(m.book(10), 10);
        assert_eq!(m.book(11), 30);
        assert_eq!(m.book(60), 60);
        assert_eq!(m.accesses(), 3);
    }

    #[test]
    fn mshr_capacity_limits_outstanding_misses() {
        let mut f = MshrFile::new(2);
        assert!(f.can_accept(0));
        f.add(100);
        assert!(f.can_accept(0));
        f.add(200);
        assert!(!f.can_accept(50)); // both still outstanding
        assert!(f.can_accept(150)); // first retired
        assert_eq!(f.outstanding(), 1);
        assert_eq!(f.full_rejections(), 1);
    }

    #[test]
    fn mshr_next_completion_skips_retired_entries() {
        let mut f = MshrFile::new(4);
        f.add(100);
        f.add(40);
        f.add(200);
        assert_eq!(f.next_completion_after(0), Some(40));
        assert_eq!(f.next_completion_after(40), Some(100));
        assert_eq!(f.next_completion_after(150), Some(200));
        assert_eq!(f.next_completion_after(200), None);
    }

    #[test]
    fn mshr_clear_forgets_everything() {
        let mut f = MshrFile::new(1);
        f.add(1000);
        f.clear();
        assert!(f.can_accept(0));
    }

    #[test]
    #[should_panic(expected = "MSHR overflow")]
    fn mshr_overflow_panics() {
        let mut f = MshrFile::new(1);
        f.add(10);
        f.add(20);
    }
}
