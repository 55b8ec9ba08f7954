//! TSO store buffers and the commit-serializability auditor.
//!
//! Under [`crate::MemoryModel::Tso`] each CPU owns a bounded FIFO
//! [`StoreBuffer`]: a retiring store enters the buffer instead of the
//! memory system, and buffered stores *drain* — are applied to the
//! speculative cache hierarchy, oldest first — at the protocol's
//! ordering points: sync operations, latch acquisition, the
//! homefree-token handoff, and epoch commit (plus whenever the buffer
//! is full and another store wants in). Loads probe their own CPU's
//! buffer youngest-first — TSO's same-address store-to-load forwarding
//! — and only reach the cache hierarchy on a miss. Cycles a CPU spends
//! waiting on a drain are accounted as
//! [`crate::CycleCategory::DrainStall`].
//!
//! The companion [`HbAuditor`] is the commit-time serializability
//! check: it maintains the happens-before order the committed epochs
//! claim (commit-order edges plus per-line write-write edges from the
//! last observed writer) and reports a structured breach — never a
//! panic — whenever adding an epoch would close a cycle, i.e. whenever
//! a commit would have to be ordered *before* something that already
//! committed. The paired store-flow invariant (every logged store is
//! either still buffered or was drained: [`Tso::store_flow`], checked
//! at every commit and rewind) is what turns a silently dropped buffer
//! entry into a detected [`crate::ProtocolError`].
//!
//! [`Tso`] is the simulator's TSO component (`None` is SC).

use crate::chaos::FaultClass;
use crate::config::{MemoryModel, MAX_CPUS};
use crate::l2spec::AccessCtx;
use std::collections::HashMap;
use tls_trace::{Addr, OpKind, Pc};

/// One store held in a CPU's TSO store buffer, carrying everything the
/// memory system needs to apply it at drain time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferedStore {
    /// Op cursor within the owning epoch at dispatch time (rewinds
    /// truncate the buffer by this, exactly like the oracle store log).
    pub cursor: usize,
    /// Store address.
    pub addr: Addr,
    /// Store size in bytes.
    pub size: u8,
    /// Program counter of the store (violation attribution).
    pub pc: Pc,
    /// Sub-thread context the store dispatched under.
    pub sub: u8,
    /// Whether the owning epoch was speculative at dispatch time.
    pub speculative: bool,
}

impl BufferedStore {
    /// Byte range `[addr, addr + size)` of the store.
    fn range(&self) -> (u64, u64) {
        (self.addr.0, self.addr.0 + self.size as u64)
    }
}

/// What probing the store buffer for a load found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardOutcome {
    /// The youngest overlapping store fully covers the load: forward it
    /// (the load completes without touching the cache hierarchy).
    Hit,
    /// An overlapping store only partially covers the load: the buffer
    /// must drain past it before the load can issue (real TSO hardware
    /// stalls exactly here rather than merging bytes).
    Conflict,
    /// No buffered store overlaps the load; it issues to the caches.
    Miss,
}

/// A bounded FIFO store buffer — one per CPU under TSO.
///
/// The buffer is pure mechanism: it holds entries, forwards, drains
/// oldest-first, and truncates on rewind. Counters and drain *policy*
/// (when to drain, what a stall costs) live in the simulator.
#[derive(Debug, Clone)]
pub struct StoreBuffer {
    entries: Vec<BufferedStore>,
    capacity: usize,
}

impl StoreBuffer {
    /// An empty buffer of `capacity` entries (at least 1).
    pub fn new(capacity: usize) -> StoreBuffer {
        StoreBuffer { entries: Vec::with_capacity(capacity.max(1)), capacity: capacity.max(1) }
    }

    /// Entries currently buffered.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when another store would not fit.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends a store at the young end.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full — the simulator drains before
    /// pushing, so a full-buffer push is a protocol bug.
    pub fn push(&mut self, entry: BufferedStore) {
        assert!(
            !self.is_full(),
            "store buffer overflow: push into a full {}-entry buffer",
            self.capacity
        );
        self.entries.push(entry);
    }

    /// Removes and returns the oldest entry (the one a drain applies).
    pub fn pop_oldest(&mut self) -> Option<BufferedStore> {
        if self.entries.is_empty() {
            None
        } else {
            Some(self.entries.remove(0))
        }
    }

    /// Oldest entry without removing it.
    pub fn peek_oldest(&self) -> Option<&BufferedStore> {
        self.entries.first()
    }

    /// Probes the buffer for a load of `size` bytes at `addr`,
    /// youngest entry first (TSO forwards the *newest* same-address
    /// store).
    pub fn forward(&self, addr: Addr, size: u8) -> ForwardOutcome {
        let (ls, le) = (addr.0, addr.0 + size as u64);
        for e in self.entries.iter().rev() {
            let (ss, se) = e.range();
            if ss < le && ls < se {
                return if ss <= ls && le <= se {
                    ForwardOutcome::Hit
                } else {
                    ForwardOutcome::Conflict
                };
            }
        }
        ForwardOutcome::Miss
    }

    /// Rewind support: discards every entry dispatched at or after op
    /// `cursor`, returning how many were dropped. Entries arrive in
    /// dispatch order so this is normally a suffix, but it is written
    /// as a filter: a chaos reordered-drain fault can leave the two
    /// oldest entries out of cursor order, and a rewind between them
    /// must still keep the older one.
    pub fn truncate_from(&mut self, cursor: usize) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| e.cursor < cursor);
        before - self.entries.len()
    }

    /// Iterates the buffered entries, oldest first (store-flow audit).
    pub fn iter(&self) -> impl Iterator<Item = &BufferedStore> {
        self.entries.iter()
    }

    /// Remaps sub-thread ids after the owning epoch merged its context
    /// `m` into `m-1` (mirrors the simulator's pending-violation remap:
    /// ids at or above `m` shift down, never below `m-1`).
    pub fn remap_merged_sub(&mut self, m: u8) {
        for e in &mut self.entries {
            if e.sub >= m {
                e.sub = (e.sub - 1).max(m - 1);
            }
        }
    }

    /// Chaos hook ([`crate::chaos::FaultClass::ReorderedDrain`]): swaps
    /// the two oldest entries so the next drain applies them out of
    /// program order. Returns false (and does nothing) with fewer than
    /// two entries buffered.
    pub fn swap_oldest_pair(&mut self) -> bool {
        if self.entries.len() < 2 {
            return false;
        }
        self.entries.swap(0, 1);
        true
    }

    /// Chaos hook ([`crate::chaos::FaultClass::DroppedEntry`]):
    /// silently discards the oldest entry — the store is lost without
    /// ever reaching the memory system. The serializability auditor's
    /// store-flow invariant must detect the hole.
    pub fn drop_oldest(&mut self) -> Option<BufferedStore> {
        self.pop_oldest()
    }
}

/// The store buffer's verdict on one dispatching op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dispatch {
    /// The op goes on to the caches.
    Pass,
    /// Completed locally: a buffered store or a forwarded load.
    Bypass,
    /// Drain first; the drain-stall event's cause code (1 = full
    /// buffer, 2 = forwarding conflict, 3 = ordering point).
    Stall(u64),
}

/// The TSO memory model on the machine: the per-CPU buffers, the drain
/// engine's state and the TSO counters.
#[derive(Debug, Default)]
pub(crate) struct Tso {
    bufs: Vec<StoreBuffer>,
    /// Per CPU: cycle before which drains are frozen (stuck-drain fault).
    stuck_until: [u64; MAX_CPUS],
    /// Per CPU: inside a drain-stall episode.
    episode: [bool; MAX_CPUS],
    /// Stores that entered a store buffer.
    pub(crate) buffered_stores: u64,
    /// Loads satisfied by same-address store-to-load forwarding.
    pub(crate) forwarded_loads: u64,
    /// Buffered stores retired into the memory system.
    pub(crate) store_drains: u64,
}

impl Tso {
    /// The component for `model`, or `None` under SC.
    pub(crate) fn new(model: MemoryModel, cpus: usize) -> Option<Tso> {
        let MemoryModel::Tso { buffer_entries } = model else { return None };
        Some(Tso {
            bufs: (0..cpus).map(|_| StoreBuffer::new(buffer_entries)).collect(),
            ..Tso::default()
        })
    }

    pub(crate) fn holds_stores(&self, cpu: usize) -> bool {
        !self.bufs[cpu].is_empty()
    }

    /// Whether any CPU's buffer holds a store (such a buffer drains one
    /// entry per stalled cycle, so those cycles are not repeats).
    pub(crate) fn any_buffered(&self) -> bool {
        self.bufs.iter().any(|b| !b.is_empty())
    }

    /// Dispatch hook for a load or store at op `cursor`: a store enters
    /// the buffer; a load probes it youngest-first for forwarding.
    pub(crate) fn dispatch(
        &mut self,
        kind: OpKind,
        pc: Pc,
        cursor: usize,
        ctx: AccessCtx,
    ) -> Dispatch {
        let buf = &mut self.bufs[ctx.cpu];
        match kind {
            OpKind::Store { .. } if buf.is_full() => Dispatch::Stall(1),
            OpKind::Store { addr, size } => {
                let (sub, speculative) = (ctx.sub, ctx.speculative);
                buf.push(BufferedStore { cursor, addr, size, pc, sub, speculative });
                self.buffered_stores += 1;
                Dispatch::Bypass
            }
            OpKind::Load { addr, size } => match buf.forward(addr, size) {
                ForwardOutcome::Hit => {
                    self.forwarded_loads += 1;
                    Dispatch::Bypass
                }
                ForwardOutcome::Conflict => Dispatch::Stall(2),
                ForwardOutcome::Miss => Dispatch::Pass,
            },
            _ => Dispatch::Pass,
        }
    }

    /// Drain hook: one entry leaves `cpu`'s buffer per cycle whenever the
    /// CPU is stalled — at an explicit ordering point (`stall`: full
    /// buffer, forwarding conflict, latch acquire; a finished epoch still
    /// holding stores adds the pre-commit flush) or opportunistically
    /// while it waits on anything else (`idle`). A stuck-drain fault
    /// freezes drains until its window closes; the buffer simply holds.
    /// Returns the entry for the memory system to apply.
    pub(crate) fn drain(
        &mut self,
        cpu: usize,
        now: u64,
        finished: bool,
        idle: bool,
        stall: &mut Option<u64>,
    ) -> Option<BufferedStore> {
        if finished && stall.is_none() && self.holds_stores(cpu) {
            *stall = Some(3);
        }
        if now < self.stuck_until[cpu] || !(stall.is_some() || idle) {
            return None;
        }
        let e = self.bufs[cpu].pop_oldest()?;
        self.store_drains += 1;
        Some(e)
    }

    /// The entries `cpu` still buffers when a drain-stall episode starts
    /// this cycle (one event per episode, not per stalled cycle).
    pub(crate) fn episode_start(&mut self, cpu: usize, stalled: bool) -> Option<u64> {
        let starts = stalled && !self.episode[cpu];
        self.episode[cpu] = stalled;
        starts.then(|| self.bufs[cpu].len() as u64)
    }

    /// Merge hook: buffered stores replay under remapped context ids.
    pub(crate) fn merge(&mut self, cpu: usize, m: u8) {
        self.bufs[cpu].remap_merged_sub(m);
    }

    /// Rewind hook: `cpu`'s buffer and the epoch's drain mirror forget
    /// the stores at or after op `cursor`.
    pub(crate) fn rewind(
        &mut self,
        cpu: usize,
        cursor: usize,
        drained: &mut Vec<(usize, Addr, u8)>,
    ) {
        self.bufs[cpu].truncate_from(cursor);
        drained.retain(|&(c, _, _)| c < cursor);
    }

    /// Commit hook (the buffer has already drained).
    pub(crate) fn commit(&mut self, cpu: usize) {
        self.episode[cpu] = false;
    }

    /// TSO store-flow identity: every store the epoch on `cpu` logged
    /// must be accounted for — drained into the memory system (the
    /// epoch's drain mirror) or still sitting in the CPU's buffer.
    /// Compared as op-cursor multisets (a reordered drain permutes the
    /// mirror, which is legal; a *missing* cursor is a lost store).
    /// Returns the first imbalance found.
    pub(crate) fn store_flow(
        &self,
        cpu: usize,
        logged: &[(usize, Addr, u8)],
        drained: &[(usize, Addr, u8)],
    ) -> Option<String> {
        let buf = &self.bufs[cpu];
        let mut seen: Vec<usize> =
            drained.iter().map(|&(c, _, _)| c).chain(buf.iter().map(|e| e.cursor)).collect();
        seen.sort_unstable();
        let logged: Vec<usize> = logged.iter().map(|&(c, _, _)| c).collect();
        if logged == seen {
            return None;
        }
        let missing = logged.iter().find(|c| !seen.contains(c));
        Some(format!(
            "store-flow violation: epoch logged {} stores but {} drained and {} are buffered{}",
            logged.len(),
            drained.len(),
            buf.len(),
            missing.map(|c| format!(" (first lost store: op cursor {c})")).unwrap_or_default()
        ))
    }

    /// Chaos hook: applies a store-buffer fault class to the first CPU
    /// with a buffered store; returns whether one was found.
    pub(crate) fn apply_fault(&mut self, class: FaultClass, now: u64, duration: u64) -> bool {
        match class {
            FaultClass::StuckDrain => match self.bufs.iter().position(|b| !b.is_empty()) {
                Some(cpu) => {
                    self.stuck_until[cpu] = self.stuck_until[cpu].max(now + duration.max(1));
                    true
                }
                None => false,
            },
            FaultClass::ReorderedDrain => self.bufs.iter_mut().any(|b| b.swap_oldest_pair()),
            // Silently lose the oldest buffered store of the first CPU
            // that has one: the machine must *not* survive this — the
            // commit-time store-flow audit reports the hole.
            FaultClass::DroppedEntry => self.bufs.iter_mut().any(|b| b.drop_oldest().is_some()),
            _ => unreachable!("{class} is not a store-buffer fault"),
        }
    }
}

/// The commit-time happens-before auditor.
///
/// Nodes are committed epochs; edges are (a) commit order — each commit
/// happens-before the next — and (b) per-line write-write order: the
/// epoch whose store the committed image last absorbed for a line
/// happens-before any epoch that overwrites it. Both edge families must
/// agree with logical epoch order; an epoch that commits with a smaller
/// order than an edge predecessor would close a cycle, and the auditor
/// reports it as a breach (the simulator turns breaches into structured
/// [`crate::ProtocolError`]s, never panics).
#[derive(Debug, Default)]
pub struct HbAuditor {
    /// Logical order of the last committed writer per cache line.
    last_writer: HashMap<u64, u32>,
    /// Order of the most recently committed epoch.
    last_commit: Option<u32>,
    /// Breaches found (count mirrors `SimReport::serializability_breaches`).
    breaches: u64,
}

impl HbAuditor {
    /// A fresh auditor with no committed epochs.
    pub fn new() -> HbAuditor {
        HbAuditor::default()
    }

    /// Breaches found so far.
    pub fn breaches(&self) -> u64 {
        self.breaches
    }

    /// Records the commit of epoch `order` with the given written cache
    /// lines, returning a description of the first happens-before cycle
    /// it would close (or `None` when the commit is serializable).
    pub fn commit_epoch(
        &mut self,
        order: u32,
        lines: impl IntoIterator<Item = u64>,
    ) -> Option<String> {
        let mut breach = None;
        for line in lines {
            match self.last_writer.get(&line) {
                Some(&w) if w >= order => {
                    if breach.is_none() {
                        breach = Some(format!(
                            "happens-before cycle: epoch {order} overwrites line {line:#x} \
                             whose last committed writer is epoch {w}"
                        ));
                    }
                    self.last_writer.insert(line, order.max(w));
                }
                _ => {
                    self.last_writer.insert(line, order);
                }
            }
        }
        if breach.is_none() {
            if let Some(prev) = self.last_commit {
                if order <= prev {
                    breach = Some(format!(
                        "happens-before cycle: epoch {order} committed after epoch {prev} \
                         but is not ordered after it"
                    ));
                }
            }
        }
        self.last_commit = Some(self.last_commit.map_or(order, |p| p.max(order)));
        if breach.is_some() {
            self.breaches += 1;
        }
        breach
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(cursor: usize, addr: u64, size: u8) -> BufferedStore {
        BufferedStore {
            cursor,
            addr: Addr(addr),
            size,
            pc: Pc::new(0, 0),
            sub: 0,
            speculative: true,
        }
    }

    #[test]
    fn fifo_order_and_capacity() {
        let mut b = StoreBuffer::new(2);
        assert!(b.is_empty() && !b.is_full());
        b.push(entry(0, 0x100, 8));
        b.push(entry(1, 0x200, 8));
        assert!(b.is_full());
        assert_eq!(b.pop_oldest().unwrap().addr, Addr(0x100));
        assert_eq!(b.pop_oldest().unwrap().addr, Addr(0x200));
        assert_eq!(b.pop_oldest(), None);
    }

    #[test]
    #[should_panic(expected = "store buffer overflow")]
    fn push_into_full_buffer_panics() {
        let mut b = StoreBuffer::new(1);
        b.push(entry(0, 0x100, 8));
        b.push(entry(1, 0x200, 8));
    }

    #[test]
    fn forwarding_prefers_the_youngest_cover() {
        let mut b = StoreBuffer::new(4);
        b.push(entry(0, 0x100, 8));
        b.push(entry(1, 0x100, 8)); // younger store to the same address
        assert_eq!(b.forward(Addr(0x100), 8), ForwardOutcome::Hit);
        assert_eq!(b.forward(Addr(0x104), 4), ForwardOutcome::Hit);
        assert_eq!(b.forward(Addr(0x180), 8), ForwardOutcome::Miss);
    }

    #[test]
    fn partial_overlap_is_a_conflict() {
        let mut b = StoreBuffer::new(4);
        b.push(entry(0, 0x104, 4));
        // Load of [0x100, 0x108): overlaps but is not covered.
        assert_eq!(b.forward(Addr(0x100), 8), ForwardOutcome::Conflict);
        // A younger full-width store shadows the narrow one.
        b.push(entry(1, 0x100, 8));
        assert_eq!(b.forward(Addr(0x100), 8), ForwardOutcome::Hit);
    }

    #[test]
    fn truncate_from_drops_the_rewound_suffix() {
        let mut b = StoreBuffer::new(4);
        b.push(entry(10, 0x100, 8));
        b.push(entry(20, 0x200, 8));
        b.push(entry(30, 0x300, 8));
        assert_eq!(b.truncate_from(20), 2);
        assert_eq!(b.len(), 1);
        assert_eq!(b.peek_oldest().unwrap().cursor, 10);
        assert_eq!(b.truncate_from(0), 1);
        assert!(b.is_empty());
    }

    #[test]
    fn chaos_hooks_swap_and_drop() {
        let mut b = StoreBuffer::new(4);
        assert!(!b.swap_oldest_pair(), "needs two entries");
        b.push(entry(0, 0x100, 8));
        assert!(!b.swap_oldest_pair());
        b.push(entry(1, 0x200, 8));
        assert!(b.swap_oldest_pair());
        assert_eq!(b.peek_oldest().unwrap().addr, Addr(0x200));
        assert_eq!(b.drop_oldest().unwrap().addr, Addr(0x200));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn merge_remap_shifts_sub_ids_down() {
        let mut b = StoreBuffer::new(4);
        b.push(BufferedStore { sub: 1, ..entry(0, 0x100, 8) });
        b.push(BufferedStore { sub: 2, ..entry(1, 0x200, 8) });
        b.push(BufferedStore { sub: 3, ..entry(2, 0x300, 8) });
        b.remap_merged_sub(2);
        let subs: Vec<u8> = b.iter().map(|e| e.sub).collect();
        assert_eq!(subs, [1, 1, 2]);
    }

    #[test]
    fn hb_auditor_accepts_serializable_commits() {
        let mut a = HbAuditor::new();
        assert_eq!(a.commit_epoch(0, [0x100, 0x140]), None);
        assert_eq!(a.commit_epoch(1, [0x100]), None);
        assert_eq!(a.commit_epoch(2, [0x180]), None);
        assert_eq!(a.breaches(), 0);
    }

    #[test]
    fn hb_auditor_flags_commit_order_cycles() {
        let mut a = HbAuditor::new();
        assert_eq!(a.commit_epoch(1, [0x100]), None);
        let breach = a.commit_epoch(0, [0x200]).expect("out-of-order commit");
        assert!(breach.contains("happens-before cycle"), "{breach}");
        assert_eq!(a.breaches(), 1);
    }

    #[test]
    fn hb_auditor_flags_write_write_inversions() {
        let mut a = HbAuditor::new();
        assert_eq!(a.commit_epoch(2, [0x100]), None);
        assert_eq!(a.commit_epoch(3, []), None);
        // A commit claiming an order at or below the line's last
        // committed writer inverts the WW edge.
        let b = a.commit_epoch(2, [0x100]).expect("WW inversion");
        assert!(b.contains("last committed writer"), "{b}");
        assert_eq!(a.breaches(), 1);
    }
}
