//! The per-CPU pipeline model.

use crate::{CpuConfig, FuPorts, Gshare, ICache};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use tls_trace::{Addr, OpKind, TraceOp};

/// Which side of the memory interface an access is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemKind {
    /// A data load; its completion cycle gates dependent instructions.
    Load,
    /// A data store; it drains through the write-through hierarchy.
    Store,
}

/// What the head of the reorder buffer is waiting on, when retirement
/// stalls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeadStall {
    /// Nothing — the ROB is empty.
    None,
    /// The oldest instruction is an outstanding load (a cache miss, from
    /// the accounting point of view).
    Memory,
    /// The oldest instruction is still executing (ALU latency, store
    /// drain, branch resolution).
    Execute,
}

/// Result of one retirement step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetireResult {
    /// Instructions retired this cycle (0..=issue width).
    pub retired: usize,
    /// Why the next instruction could not retire, if any.
    pub head_stall: HeadStall,
    /// Occupancy of the reorder buffer after retirement.
    pub rob_len: usize,
}

/// Cumulative core counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreStats {
    /// Instructions dispatched into the ROB.
    pub dispatched: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Conditional branches executed.
    pub branches: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Pipeline flushes requested by the TLS layer (violations).
    pub flushes: u64,
    /// Instruction-cache fetch misses.
    pub icache_misses: u64,
}

#[derive(Debug, Clone, Copy)]
struct RobEntry {
    completion: u64,
    is_load: bool,
}

/// One out-of-order core.
///
/// Driving protocol, once per simulated cycle:
///
/// 1. [`begin_cycle`](Core::begin_cycle) with the current cycle number;
/// 2. [`retire`](Core::retire) — in-order retirement of completed work;
/// 3. repeatedly [`dispatch`](Core::dispatch) while
///    [`can_dispatch`](Core::can_dispatch) and instructions are available.
///
/// The core never sees latch operations — the TLS layer serializes those
/// itself — and has no notion of threads or speculation: rewinds reach it
/// only as [`flush`](Core::flush).
#[derive(Debug, Clone)]
pub struct Core {
    cfg: CpuConfig,
    rob: VecDeque<RobEntry>,
    int_ports: FuPorts,
    fp_ports: FuPorts,
    mem_ports: FuPorts,
    br_ports: FuPorts,
    predictor: Gshare,
    icache: Option<ICache>,
    /// Completion cycles of recently dispatched ops, for dependence
    /// distances.
    recent: VecDeque<u64>,
    fetch_stall_until: u64,
    cur_cycle: u64,
    dispatched_this_cycle: usize,
    stats: CoreStats,
}

impl Core {
    /// A fresh core at cycle 0.
    pub fn new(cfg: CpuConfig) -> Self {
        Core {
            rob: VecDeque::with_capacity(cfg.rob_entries),
            int_ports: FuPorts::new(cfg.int_ports),
            fp_ports: FuPorts::new(cfg.fp_ports),
            mem_ports: FuPorts::new(cfg.mem_ports),
            br_ports: FuPorts::new(cfg.branch_ports),
            predictor: Gshare::new(cfg.gshare_bytes, cfg.gshare_history_bits),
            icache: (cfg.icache_bytes > 0).then(|| ICache::new(cfg.icache_bytes, cfg.icache_ways)),
            recent: VecDeque::with_capacity(cfg.dep_window),
            fetch_stall_until: 0,
            cur_cycle: 0,
            dispatched_this_cycle: 0,
            cfg,
            stats: CoreStats::default(),
        }
    }

    /// The configuration this core was built with.
    pub fn config(&self) -> &CpuConfig {
        &self.cfg
    }

    /// Starts a new cycle. Cycles must be non-decreasing.
    #[inline]
    pub fn begin_cycle(&mut self, cycle: u64) {
        debug_assert!(cycle >= self.cur_cycle, "time ran backwards");
        self.cur_cycle = cycle;
        self.dispatched_this_cycle = 0;
    }

    /// True if another instruction may dispatch this cycle: issue width
    /// not exhausted, ROB space available, and the front end is not
    /// refilling after a mispredict or flush.
    #[inline]
    pub fn can_dispatch(&self) -> bool {
        self.dispatched_this_cycle < self.cfg.issue_width
            && self.rob.len() < self.cfg.rob_entries
            && self.cur_cycle >= self.fetch_stall_until
    }

    /// Dispatches one instruction. `kind` is `op.kind()`, decoded once by
    /// the caller (which has already dispatched on it). For loads and
    /// stores, `mem` is invoked with `(execute_cycle, address, kind)` and
    /// must return the access completion cycle (`>= execute_cycle`).
    /// Returns the instruction's completion cycle.
    ///
    /// # Panics
    ///
    /// Panics if called while [`can_dispatch`](Core::can_dispatch) is
    /// false, or on a latch op (those never reach the core).
    #[inline]
    pub fn dispatch(
        &mut self,
        op: &TraceOp,
        kind: OpKind,
        mem: impl FnOnce(u64, Addr, MemKind) -> u64,
    ) -> u64 {
        assert!(self.can_dispatch(), "dispatch while the core is stalled");
        debug_assert_eq!(kind, op.kind(), "kind is the op's own decoding");
        // Instruction fetch: a miss stalls the front end for the L2
        // round trip (the op itself still dispatches this cycle — it was
        // already in the fetch buffer; its successors pay the stall).
        if let Some(ic) = self.icache.as_mut() {
            if !ic.fetch(op.pc()) {
                self.stats.icache_misses += 1;
                self.fetch_stall_until =
                    self.fetch_stall_until.max(self.cur_cycle + self.cfg.icache_miss_penalty);
            }
        }
        let mut ready = self.cur_cycle;
        let dep = op.dep() as usize;
        if dep > 0 && dep <= self.recent.len() {
            ready = ready.max(self.recent[self.recent.len() - dep]);
        }
        let (completion, is_load) = match kind {
            OpKind::IntAlu { latency } => {
                let occ = Self::occupancy(latency);
                let start = self.int_ports.book(ready, occ);
                (start + latency as u64, false)
            }
            OpKind::FpAlu { latency } => {
                let occ = Self::occupancy(latency);
                let start = self.fp_ports.book(ready, occ);
                (start + latency as u64, false)
            }
            OpKind::Branch { taken } => {
                let start = self.br_ports.book(ready, 1);
                let completion = start + 1;
                self.stats.branches += 1;
                if !self.predictor.predict_and_update(op.pc(), taken) {
                    self.stats.mispredicts += 1;
                    self.fetch_stall_until =
                        self.fetch_stall_until.max(completion + self.cfg.mispredict_penalty);
                }
                (completion, false)
            }
            OpKind::Load { addr, .. } => {
                let start = self.mem_ports.book(ready, 1);
                let completion = mem(start, addr, MemKind::Load);
                debug_assert!(completion >= start, "memory completed before it started");
                self.stats.loads += 1;
                (completion, true)
            }
            OpKind::Store { addr, .. } => {
                let start = self.mem_ports.book(ready, 1);
                let completion = mem(start, addr, MemKind::Store);
                debug_assert!(completion >= start, "memory completed before it started");
                self.stats.stores += 1;
                (completion, false)
            }
            OpKind::LatchAcquire(_) | OpKind::LatchRelease(_) => {
                panic!("latch ops are synchronized by the TLS layer, not the core")
            }
        };
        self.rob.push_back(RobEntry { completion: completion.max(self.cur_cycle + 1), is_load });
        if self.recent.len() == self.cfg.dep_window {
            self.recent.pop_front();
        }
        self.recent.push_back(completion);
        self.dispatched_this_cycle += 1;
        self.stats.dispatched += 1;
        completion
    }

    /// Divides occupy their unit for the full latency; everything else is
    /// pipelined.
    fn occupancy(latency: u8) -> u64 {
        if latency >= 8 {
            latency as u64
        } else {
            1
        }
    }

    /// Retires completed instructions in order, up to the issue width.
    #[inline]
    pub fn retire(&mut self) -> RetireResult {
        let mut retired = 0;
        while retired < self.cfg.issue_width {
            match self.rob.front() {
                Some(e) if e.completion <= self.cur_cycle => {
                    self.rob.pop_front();
                    retired += 1;
                }
                _ => break,
            }
        }
        self.stats.retired += retired as u64;
        let head_stall = match self.rob.front() {
            None => HeadStall::None,
            Some(e) if e.is_load => HeadStall::Memory,
            Some(_) => HeadStall::Execute,
        };
        RetireResult { retired, head_stall, rob_len: self.rob.len() }
    }

    /// Squashes all in-flight instructions (TLS violation recovery) and
    /// stalls the front end for the refill penalty.
    pub fn flush(&mut self) {
        self.rob.clear();
        self.recent.clear();
        self.int_ports.flush();
        self.fp_ports.flush();
        self.mem_ports.flush();
        self.br_ports.flush();
        self.fetch_stall_until = self.cur_cycle + self.cfg.mispredict_penalty;
        if let Some(ic) = self.icache.as_mut() {
            ic.redirect();
        }
        self.stats.flushes += 1;
    }

    /// True when nothing is in flight (an epoch may commit only once its
    /// core has drained).
    pub fn is_drained(&self) -> bool {
        self.rob.is_empty()
    }

    /// True while the front end is refilling (mispredict or flush).
    pub fn fetch_stalled(&self) -> bool {
        self.cur_cycle < self.fetch_stall_until
    }

    /// Completion cycle of the oldest in-flight instruction, if any.
    ///
    /// Until that cycle an otherwise-quiescent core cannot retire (and,
    /// with a full ROB, cannot dispatch either), so this is a wake-up
    /// candidate for an event-driven caller.
    pub fn next_retire_cycle(&self) -> Option<u64> {
        self.rob.front().map(|e| e.completion)
    }

    /// The cycle at which the front end resumes fetching after the most
    /// recent mispredict or flush (may be in the past).
    pub fn fetch_resume_cycle(&self) -> u64 {
        self.fetch_stall_until
    }

    /// In-flight instructions in the reorder buffer (occupancy gauge
    /// for the observability layer's sampled metrics).
    pub fn rob_occupancy(&self) -> usize {
        self.rob.len()
    }

    /// Cumulative counters.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// The branch predictor (exposed for reporting).
    pub fn predictor(&self) -> &Gshare {
        &self.predictor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tls_trace::{latency, Pc};

    fn no_mem(_: u64, _: Addr, _: MemKind) -> u64 {
        unreachable!("no memory op expected")
    }

    /// Dispatches `op` with its own decoding, as the simulator does.
    fn dispatch(core: &mut Core, op: &TraceOp, mem: impl FnOnce(u64, Addr, MemKind) -> u64) {
        core.dispatch(op, op.kind(), mem);
    }

    /// Runs `ops` to completion on a paper-default core with `mem_latency`
    /// for every memory access; returns total cycles.
    fn run(cfg: CpuConfig, ops: &[TraceOp], mem_latency: u64) -> u64 {
        let mut core = Core::new(cfg);
        let mut next = 0;
        let mut cycle = 0;
        loop {
            core.begin_cycle(cycle);
            let r = core.retire();
            if next == ops.len() && r.rob_len == 0 {
                return cycle;
            }
            while next < ops.len() && core.can_dispatch() {
                dispatch(&mut core, &ops[next], |start, _, _| start + mem_latency);
                next += 1;
            }
            cycle += 1;
        }
    }

    #[test]
    fn independent_int_stream_is_port_limited() {
        // 2 int ports: 400 independent 1-cycle int ops take ~200 cycles.
        let ops: Vec<TraceOp> =
            (0..400).map(|_| TraceOp::int_alu(Pc::new(0, 1), latency::INT)).collect();
        let cycles = run(CpuConfig::paper_default(), &ops, 0);
        assert!((200..=215).contains(&cycles), "got {cycles}");
    }

    #[test]
    fn dependence_chain_serializes() {
        // Each op depends on the previous one: IPC 1.
        let ops: Vec<TraceOp> =
            (0..100).map(|_| TraceOp::int_alu(Pc::new(0, 1), latency::INT).with_dep(1)).collect();
        let cycles = run(CpuConfig::paper_default(), &ops, 0);
        assert!((100..=110).contains(&cycles), "got {cycles}");
    }

    #[test]
    fn divide_latency_dominates() {
        let ops: Vec<TraceOp> =
            (0..4).map(|_| TraceOp::int_alu(Pc::new(0, 2), latency::INT_DIV).with_dep(1)).collect();
        let cycles = run(CpuConfig::paper_default(), &ops, 0);
        assert!(cycles >= 4 * 76, "got {cycles}");
    }

    #[test]
    fn load_latency_blocks_dependents() {
        let ops = vec![
            TraceOp::load(Pc::new(0, 3), Addr(64), 8),
            TraceOp::int_alu(Pc::new(0, 4), latency::INT).with_dep(1),
        ];
        let cycles = run(CpuConfig::paper_default(), &ops, 50);
        assert!(cycles >= 51, "got {cycles}");
    }

    #[test]
    fn independent_loads_overlap() {
        // One mem port, 75-cycle misses, but non-blocking: 8 loads should
        // take ~75 + 8, not 8 * 75.
        let ops: Vec<TraceOp> =
            (0..8).map(|i| TraceOp::load(Pc::new(0, 5), Addr(64 * i), 8)).collect();
        let cycles = run(CpuConfig::paper_default(), &ops, 75);
        assert!(cycles < 150, "got {cycles}");
    }

    #[test]
    fn mispredicts_stall_the_front_end() {
        // Random-looking branch outcomes: many mispredicts, so 100
        // branches take far longer than 100 port-limited cycles.
        let mut taken = false;
        let mut flips = 0u32;
        let ops: Vec<TraceOp> = (0..100)
            .map(|i| {
                // A pattern long enough (period 26) that an 8-bit history
                // cannot capture it while it warms up.
                flips += 1;
                if flips.is_multiple_of(13) || i % 7 == 0 {
                    taken = !taken;
                }
                TraceOp::branch(Pc::new(0, (i % 3) as u16), taken)
            })
            .collect();
        let mut core = Core::new(CpuConfig::paper_default());
        let mut next = 0;
        let mut cycle = 0;
        loop {
            core.begin_cycle(cycle);
            let r = core.retire();
            if next == ops.len() && r.rob_len == 0 {
                break;
            }
            while next < ops.len() && core.can_dispatch() {
                dispatch(&mut core, &ops[next], no_mem);
                next += 1;
            }
            cycle += 1;
        }
        assert!(core.stats().mispredicts > 0);
        assert!(cycle > 100, "mispredict penalties should slow this down, got {cycle}");
    }

    #[test]
    fn rob_fills_behind_a_long_miss() {
        let mut ops = vec![TraceOp::load(Pc::new(0, 6), Addr(0), 8)];
        for _ in 0..300 {
            ops.push(TraceOp::int_alu(Pc::new(0, 7), latency::INT));
        }
        let mut core = Core::new(CpuConfig::paper_default());
        let mut next = 0;
        let mut saw_full_rob = false;
        let mut saw_mem_stall = false;
        for cycle in 0..2000 {
            core.begin_cycle(cycle);
            let r = core.retire();
            if r.retired == 0 && r.head_stall == HeadStall::Memory {
                saw_mem_stall = true;
            }
            if r.rob_len == core.config().rob_entries {
                saw_full_rob = true;
            }
            while next < ops.len() && core.can_dispatch() {
                dispatch(&mut core, &ops[next], |start, _, _| start + 500);
                next += 1;
            }
            if next == ops.len() && core.is_drained() {
                break;
            }
        }
        assert!(saw_mem_stall, "head should have blocked on the miss");
        assert!(saw_full_rob, "128 younger ops should have filled the ROB");
    }

    #[test]
    fn flush_clears_inflight_work() {
        let mut core = Core::new(CpuConfig::paper_default());
        core.begin_cycle(0);
        dispatch(&mut core, &TraceOp::load(Pc::new(0, 8), Addr(0), 8), |s, _, _| s + 1000);
        assert!(!core.is_drained());
        core.flush();
        assert!(core.is_drained());
        assert!(core.fetch_stalled() || core.config().mispredict_penalty == 0);
        assert_eq!(core.stats().flushes, 1);
    }

    #[test]
    #[should_panic(expected = "latch ops")]
    fn latch_op_panics() {
        let mut core = Core::new(CpuConfig::paper_default());
        core.begin_cycle(0);
        dispatch(&mut core, &TraceOp::latch_acquire(Pc::new(0, 9), tls_trace::LatchId(0)), no_mem);
    }

    #[test]
    #[should_panic(expected = "stalled")]
    fn overdispatch_panics() {
        let mut core = Core::new(CpuConfig::scalar_test());
        core.begin_cycle(0);
        dispatch(&mut core, &TraceOp::int_alu(Pc::new(0, 0), 1), no_mem);
        // width 1: second dispatch in the same cycle must panic
        dispatch(&mut core, &TraceOp::int_alu(Pc::new(0, 0), 1), no_mem);
    }

    #[test]
    fn retire_is_in_order_and_width_limited() {
        // No instruction cache: cold fetch misses would stall the front
        // end and obscure the width check.
        let mut cfg = CpuConfig::paper_default();
        cfg.icache_bytes = 0;
        let mut core = Core::new(cfg);
        core.begin_cycle(0);
        for _ in 0..4 {
            dispatch(&mut core, &TraceOp::int_alu(Pc::new(0, 0), 1), no_mem);
        }
        core.begin_cycle(1);
        for _ in 0..4 {
            dispatch(&mut core, &TraceOp::int_alu(Pc::new(0, 0), 1), no_mem);
        }
        core.begin_cycle(2);
        let r = core.retire();
        assert!(r.retired <= 4);
        assert!(r.rob_len >= 4 - r.retired);
    }

    #[test]
    fn cold_icache_miss_stalls_the_front_end() {
        let mut core = Core::new(CpuConfig::paper_default());
        core.begin_cycle(0);
        dispatch(&mut core, &TraceOp::int_alu(Pc::new(7, 0), 1), no_mem);
        assert_eq!(core.stats().icache_misses, 1);
        assert!(!core.can_dispatch(), "fetch refill in progress");
        core.begin_cycle(core.config().icache_miss_penalty);
        assert!(core.can_dispatch());
        // Same line again: warm.
        dispatch(&mut core, &TraceOp::int_alu(Pc::new(7, 0), 1), no_mem);
        assert_eq!(core.stats().icache_misses, 1);
    }
}
