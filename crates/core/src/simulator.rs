//! The cycle-stepped chip-multiprocessor simulator.
//!
//! Each simulated cycle proceeds in four phases:
//!
//! 1. **Execute** — every CPU retires completed instructions and
//!    dispatches new ones from its epoch's trace. Loads and stores flow
//!    through the private L1 into the shared [`SpecL2`], which records
//!    speculative state and reports dependence readers; the phase also
//!    classifies the cycle into a [`CycleCategory`] bucket of the epoch's
//!    sub-thread ledger.
//! 2. **Violations** — read-after-write and overflow violations detected
//!    during execution are applied: the violated thread rewinds to the
//!    reported sub-thread, and logically-later threads receive secondary
//!    violations routed through their [`StartTable`]s (Figure 4b).
//! 3. **Commit** — the oldest epoch, once finished and drained, commits
//!    its speculative state and passes the homefree token.
//! 4. **Schedule** — free CPUs pick up the next epochs of the current
//!    region; a region barrier separates regions.
//!
//! [`Machine`] is the paper's protocol core: epochs and their sub-thread
//! checkpoints, the memory system, start tables, latches, violations,
//! commit and scheduling. Every other mechanism is an owned component
//! called at fixed hooks (dispatch, drain, rewind, merge, commit, end of
//! run): [`Tso`] (store buffers; `None` is SC), [`ValueSpec`] (value
//! prediction; `None` when off), [`Chaos`] (fault injection) and
//! [`Checks`] (auditor, serializability audits, oracle).

use crate::accounting::{Breakdown, CycleCategory, FaultStats, SubThreadLedger};
use crate::chaos::{Chaos, FaultClass, FaultEvent, RunOptions};
use crate::checks::Checks;
use crate::config::{CmpConfig, ExhaustionPolicy, SecondaryPolicy, MAX_CPUS, MAX_SUBTHREADS};
use crate::envelope::Envelope;
use crate::l2spec::{AccessCtx, L2Outcome, PendingViolation, SpecL2, ViolationKind};
use crate::latch::{LatchError, LatchTable};
use crate::membuf::{Dispatch, Tso};
use crate::predictor::DependencePredictor;
use crate::profile::{DependenceProfiler, ExposedLoadTable};
use crate::report::{LivelockReport, SimReport, ViolationCounts};
use crate::vpredict::{VLoad, ValueSpec};
use std::collections::VecDeque;
use tls_cache::{CacheStats, L1Data, MshrFile};
use tls_cpu::{Core, CoreStats, HeadStall, MemKind};
use tls_obs::{CycleClass, Event, EventKind, Observer};
use tls_trace::{Addr, LatchId, OpKind, Pc, ProgramView, RegionView, TraceOp, TraceProgram};

/// Maps an accounting category onto the observer's dispatch-time cycle
/// class. `Failed` never appears at dispatch time — rewinds reclassify
/// retroactively, which the observer learns via `note_failed`.
fn cycle_class(cat: CycleCategory) -> CycleClass {
    match cat {
        CycleCategory::Busy | CycleCategory::Failed => CycleClass::Busy,
        CycleCategory::CacheMiss => CycleClass::CacheMiss,
        CycleCategory::Latch => CycleClass::Latch,
        CycleCategory::Sync => CycleClass::Sync,
        // The observer's sample schema predates the TSO model; a drain
        // stall is a commit-ordering wait, so it reads as Sync there
        // (the full-resolution category still lands in the breakdown).
        CycleCategory::DrainStall => CycleClass::Sync,
        CycleCategory::Idle => CycleClass::Idle,
    }
}

/// Emits one event into the attached observer, if any. A macro rather
/// than a method so call sites holding disjoint field borrows (the
/// core, the current run) still compile; the disabled path is the one
/// `Option` discriminant test.
macro_rules! emit {
    // An event about `$run`'s epoch at its current sub-thread.
    ($self:ident, $kind:expr, $cpu:expr, $run:ident, $a:expr, $b:expr) => {
        emit!($self, $kind, $cpu, $run.order, $run.cur_sub(), $a, $b)
    };
    ($self:ident, $kind:expr, $cpu:expr, $epoch:expr, $sub:expr, $a:expr, $b:expr) => {
        if let Some(o) = $self.obs.as_deref_mut() {
            let cycle = $self.cycle;
            o.events.push(Event {
                cycle,
                a: $a,
                b: $b,
                epoch: $epoch,
                kind: $kind,
                cpu: $cpu as u8,
                sub: $sub,
            });
        }
    };
}

/// Sentinel for an absent [`StartTable`] cell.
const NO_ENTRY: u8 = u8::MAX;

/// One thread's record of when other threads' sub-threads began,
/// relative to its own sub-threads (paper §2.2).
///
/// "When a sub-thread begins, it sends a `subthreadstart` message to all
/// logically-later threads. On receipt ... each thread records the
/// identifier of its currently-executing sub-thread in the table-entry for
/// the sub-thread that sent the message."
///
/// Stored as a flat `MAX_CPUS × MAX_SUBTHREADS` byte grid (64 bytes, no
/// hashing): the table is consulted on every secondary violation and
/// written on every sub-thread broadcast, and hashing each `(cpu, sub)`
/// key cost more than the lookup itself.
#[derive(Debug, Clone)]
pub struct StartTable {
    entries: [[u8; MAX_SUBTHREADS]; MAX_CPUS],
}

impl Default for StartTable {
    fn default() -> Self {
        StartTable { entries: [[NO_ENTRY; MAX_SUBTHREADS]; MAX_CPUS] }
    }
}

impl StartTable {
    /// An empty table (a fresh epoch).
    pub fn new() -> Self {
        StartTable::default()
    }

    /// Records that `(cpu, sub)` started while this thread was executing
    /// its sub-thread `local_sub`.
    pub fn record(&mut self, cpu: usize, sub: u8, local_sub: u8) {
        debug_assert!(local_sub != NO_ENTRY, "local sub-thread id collides with the sentinel");
        self.entries[cpu][sub as usize] = local_sub;
    }

    /// The sub-thread this thread must rewind to when `(cpu, sub)` is
    /// restarted. A missing entry means this thread began after that
    /// sub-thread did, so *all* of its work is suspect: rewind to 0.
    pub fn restart_point(&self, cpu: usize, sub: u8) -> u8 {
        match self.entries[cpu][sub as usize] {
            NO_ENTRY => 0,
            local => local,
        }
    }

    /// Forgets entries for `cpu` (its epoch committed).
    pub fn forget_cpu(&mut self, cpu: usize) {
        self.entries[cpu] = [NO_ENTRY; MAX_SUBTHREADS];
    }

    /// Remaps keys after `cpu` merged its sub-thread `m` into `m-1`:
    /// entries for `(cpu, m)` fold into `(cpu, m-1)` (keeping the earlier
    /// local restart point — the conservative choice) and higher
    /// sub-thread keys shift down.
    pub fn remap_keys_for(&mut self, cpu: usize, m: u8) {
        debug_assert!(m >= 1, "sub-thread 0 cannot merge downward");
        let m = m as usize;
        let row = &mut self.entries[cpu];
        // The sentinel is the largest id, so `min` keeps a present entry.
        row[m - 1] = row[m - 1].min(row[m]);
        row.copy_within(m + 1.., m);
        row[MAX_SUBTHREADS - 1] = NO_ENTRY;
    }

    /// Remaps recorded local sub-threads after this thread merged its own
    /// sub-thread `m` into `m-1`.
    pub fn remap_values(&mut self, m: u8) {
        for row in &mut self.entries {
            for local in row {
                if *local != NO_ENTRY && *local >= m {
                    *local -= 1;
                }
            }
        }
    }

    /// All entries `((sender_cpu, sender_sub), local_sub)` — for the
    /// invariant auditor's consistency checks.
    pub fn iter(&self) -> impl Iterator<Item = ((usize, u8), u8)> + '_ {
        self.entries.iter().enumerate().flat_map(|(cpu, row)| {
            row.iter()
                .enumerate()
                .filter(|&(_, &local)| local != NO_ENTRY)
                .map(move |(sub, &local)| ((cpu, sub as u8), local))
        })
    }
}

/// The execution state of one epoch on one CPU.
#[derive(Debug, Default)]
struct EpochRun<'p> {
    /// Global logical order (commit order).
    order: u32,
    ops: &'p [TraceOp],
    /// Next op to dispatch.
    cursor: usize,
    /// Op index where each started sub-thread began; `checkpoints.len()-1`
    /// is the current sub-thread.
    checkpoints: Vec<usize>,
    /// Instructions between sub-thread starts for this epoch.
    spacing: u64,
    ledger: SubThreadLedger,
    start_table: StartTable,
    /// The latch this epoch blocked on, retried first thing next cycle;
    /// while set, the epoch waits (as Latch) and dispatches nothing.
    latch_retry: Option<LatchId>,
    /// Latches held, with the op index of each acquisition (so a partial
    /// rewind releases only acquisitions made after the rewind point —
    /// escaped critical sections that completed are never reopened).
    held_latches: Vec<(LatchId, usize)>,
    /// Stalled by the dependence predictor this cycle.
    waiting_sync: bool,
    /// Cursor of the last predictor stall already counted.
    last_sync_cursor: Option<usize>,
    /// Cursor reached the end and the core drained; awaiting the token.
    finished: bool,
    /// Cycle category recorded in the last step; a quiet streak repeats
    /// it, so fast-forward replays it for skipped cycles.
    last_category: CycleCategory,
    /// Write log: `(op cursor, addr, size)` of every store dispatched
    /// and not yet undone by a rewind, sorted by cursor. Kept when the
    /// differential oracle is enabled (it becomes the committed image),
    /// when value prediction is on (the commit-time store counts drive
    /// the synthetic value model), and when the auditor runs under TSO
    /// (the store-flow identity compares it with `drained` and the
    /// store buffer).
    stores: Vec<(usize, Addr, u8)>,
    /// TSO drain mirror of `stores`: `(op cursor, addr, size)` of every
    /// buffered store already retired into the memory system. The
    /// store-flow invariant — `stores` equals `drained` plus the live
    /// buffer contents — is what catches a chaos-dropped buffer entry.
    /// Populated under the same condition as `stores`; always empty
    /// under SC. Not cursor-sorted (a reordered-drain fault permutes it).
    drained: Vec<(usize, Addr, u8)>,
    /// Exposed speculative loads tracked for value prediction, sorted by
    /// cursor and truncated on rewind exactly like `stores`. Empty
    /// unless [`crate::VPredictConfig`] is enabled.
    vloads: Vec<VLoad>,
    /// Consecutive rewinds of this epoch with no intervening commit by
    /// *any* epoch (forward-progress watchdog input).
    rewind_streak: u64,
    /// PCs implicated in the current streak's RAW violations
    /// (deduplicated, capped at [`STORM_PC_CAP`]).
    storm_pcs: Vec<u32>,
    /// Packed load/store PCs of the streak's most recent RAW violation
    /// (event payload for [`EventKind::Livelock`]).
    last_raw_pcs: u64,
    /// Index into `Machine::livelocks` once this streak crossed the
    /// threshold, so continued storming updates `storm_len` in place.
    livelock_idx: Option<usize>,
    /// Progress fallback engaged: run serially — stall while speculative
    /// (outside any held critical section) until homefree.
    serialized: bool,
}

/// Bound on per-streak PC collection ([`EpochRun::storm_pcs`]).
const STORM_PC_CAP: usize = 16;

impl<'p> EpochRun<'p> {
    fn cur_sub(&self) -> u8 {
        (self.checkpoints.len() - 1) as u8
    }
}

/// The memory side of the machine: everything a load/store touches.
struct MemSystem {
    l1s: Vec<L1Data>,
    l2: SpecL2,
    mshrs: Vec<MshrFile>,
    exposed: Vec<ExposedLoadTable>,
    pending: Vec<PendingViolation>,
    /// Swapped with `pending` to drain it without reallocating.
    spare: Vec<PendingViolation>,
    /// Reused L2-outcome buffer: accesses are serviced one at a time, so
    /// a single buffer keeps the victim/reader vectors' capacity across
    /// the whole run instead of allocating per access. Commits reuse its
    /// overflow-victim vector too.
    scratch: L2Outcome,
    /// Track sub-threads in the L1 (the §2.2 extension, off by default).
    l1_subthread_aware: bool,
    /// Whether the most recent access was an exposure-recorded load
    /// (read by the value predictor's tracking hook right after the
    /// dispatch callback returns; accesses are serviced one at a time).
    last_exposed: bool,
}

impl MemSystem {
    /// Services one access; returns its completion cycle. Violations and
    /// overflow events are queued on `pending`.
    fn access(
        &mut self,
        op: &TraceOp,
        ctx: AccessCtx,
        orders: &[Option<u32>],
        start: u64,
        kind: MemKind,
    ) -> u64 {
        let (addr, size) = match op.kind() {
            OpKind::Load { addr, size } | OpKind::Store { addr, size } => (addr, size),
            _ => unreachable!("memory callback on a non-memory op"),
        };
        self.last_exposed = false;
        match kind {
            MemKind::Load => {
                let l1 = self.l1s[ctx.cpu].read_sub(addr, ctx.speculative, ctx.sub);
                if l1.hit {
                    if l1.newly_spec_loaded && self.l2.note_l1_load(addr, size, ctx) {
                        self.exposed[ctx.cpu].record(addr, op.pc());
                        self.last_exposed = true;
                    }
                    return start + 1;
                }
                let mut out = std::mem::take(&mut self.scratch);
                self.l2.read_into(start + 1, addr, size, ctx, &mut out);
                if ctx.speculative && out.exposed {
                    self.exposed[ctx.cpu].record(addr, op.pc());
                    self.last_exposed = true;
                }
                self.queue_overflow(&out.overflow_victims, addr, orders);
                self.l1s[ctx.cpu].fill_sub(addr, ctx.speculative, ctx.sub);
                self.mshrs[ctx.cpu].add(out.completion);
                let completion = out.completion;
                self.scratch = out;
                completion
            }
            MemKind::Store => {
                self.write(addr, size, op.pc(), ctx, orders, start);
                start + 1
            }
        }
    }

    /// Applies one store to the hierarchy at cycle `now`: a dispatched
    /// store under SC, or a TSO store-buffer entry replayed at drain time
    /// with its captured context. Dependence readers are judged against
    /// the *current* epoch orders: a RAW violation targets whoever is
    /// logically later when the store becomes visible.
    fn write(
        &mut self,
        addr: Addr,
        size: u8,
        pc: Pc,
        ctx: AccessCtx,
        orders: &[Option<u32>],
        now: u64,
    ) {
        self.l1s[ctx.cpu].write_sub(addr, ctx.speculative, ctx.sub);
        let mut out = std::mem::take(&mut self.scratch);
        self.l2.write_into(now + 1, addr, size, ctx, &mut out);
        self.queue_overflow(&out.overflow_victims, addr, orders);
        // RAW violations: only logically-later readers.
        let my_order = orders[ctx.cpu].expect("storer is running");
        for &(cpu, sub) in &out.readers {
            if let Some(order) = orders[cpu].filter(|&o| o > my_order) {
                self.pending.push(PendingViolation {
                    cpu,
                    sub,
                    order,
                    kind: ViolationKind::Raw,
                    line: addr,
                    store_pc: Some(pc),
                });
            }
        }
        self.scratch = out;
        // Aggressive update propagation: other L1 copies of the
        // line are invalidated so later loads re-fetch from the L2.
        for (i, l1) in self.l1s.iter_mut().enumerate() {
            if i != ctx.cpu {
                l1.invalidate_line(addr.align_down(l1.params().line_shift()));
            }
        }
    }

    fn queue_overflow(&mut self, victims: &[(usize, u8)], line: Addr, orders: &[Option<u32>]) {
        for &(cpu, sub) in victims {
            if let Some(order) = orders[cpu] {
                self.pending.push(PendingViolation {
                    cpu,
                    sub,
                    order,
                    kind: ViolationKind::Overflow,
                    line,
                    store_pc: None,
                });
            }
        }
    }

    /// Rewind: drops `cpu`'s misses and speculative L1 state from `sub`
    /// on, and its L2 state unless the sabotage test clears `wash_l2`.
    fn rewind(&mut self, cpu: usize, sub: u8, wash_l2: bool) {
        self.mshrs[cpu].clear();
        if self.l1_subthread_aware {
            self.l1s[cpu].invalidate_speculative_from(sub);
        } else {
            self.l1s[cpu].invalidate_speculative();
        }
        if wash_l2 {
            self.l2.rewind(cpu, sub);
        }
    }

    /// Commit: `cpu`'s speculative state becomes architectural.
    fn commit(&mut self, cpu: usize, orders: &[Option<u32>]) {
        let mut out = std::mem::take(&mut self.scratch);
        out.overflow_victims.clear();
        self.l2.commit_into(cpu, &mut out.overflow_victims);
        self.queue_overflow(&out.overflow_victims, Addr(0), orders);
        self.scratch = out;
        self.l1s[cpu].clear_speculative_marks();
        self.exposed[cpu].clear();
    }
}

/// The chip-multiprocessor simulator.
///
/// Construct once with a [`CmpConfig`]; each [`run`](CmpSimulator::run)
/// simulates one [`TraceProgram`](tls_trace::TraceProgram) from scratch
/// and is deterministic: the same program and configuration always
/// produce the same report.
#[derive(Debug, Clone)]
pub struct CmpSimulator {
    config: CmpConfig,
}

impl CmpSimulator {
    /// A simulator for the given machine.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`CmpConfig::validate`]).
    pub fn new(config: CmpConfig) -> Self {
        config.validate();
        CmpSimulator { config }
    }

    /// The machine configuration.
    pub fn config(&self) -> &CmpConfig {
        &self.config
    }

    /// Simulates `program` and returns the report.
    ///
    /// In debug builds (i.e. every test) the invariant auditor and the
    /// sequential differential oracle run alongside the simulation and
    /// panic on any protocol breakage; release builds skip both so the
    /// paper's experiments pay nothing for them.
    ///
    /// # Panics
    ///
    /// Panics if the run exceeds `config.max_cycles` (when nonzero) — the
    /// safety valve for misbehaving workloads — or, in debug builds, if
    /// an invariant audit fails.
    pub fn run(&self, program: &TraceProgram) -> SimReport {
        self.run_with(program, RunOptions::checked_default())
    }

    /// Simulates `program` under explicit chaos/audit options: an
    /// optional seeded [`crate::chaos::FaultPlan`], the invariant
    /// auditor, and the sequential differential oracle.
    ///
    /// # Panics
    ///
    /// Panics on `max_cycles` overrun, and on audit failure when
    /// `opts.panic_on_audit_failure` is set; with it clear, audit
    /// failures abort the run and are reported in
    /// [`SimReport::audit_failures`].
    pub fn run_with(&self, program: &TraceProgram, opts: RunOptions) -> SimReport {
        self.run_observed(program, opts, None)
    }

    /// Simulates `program` with an optional [`Observer`] attached: the
    /// observer's event ring and metrics recorder fill as the run
    /// proceeds, ready for Perfetto export and time-series plotting.
    ///
    /// Observation is strictly passive — the returned report is
    /// byte-identical to an unobserved run's (enforced by
    /// `tests/observation_neutrality.rs`), idle-cycle fast-forward stays
    /// effective (each skipped span is recorded as one synthetic
    /// [`tls_obs::EventKind::IdleSpan`] event), and passing `None` costs
    /// a single predictable branch per hook.
    ///
    /// # Panics
    ///
    /// As [`run_with`](CmpSimulator::run_with).
    pub fn run_observed(
        &self,
        program: &TraceProgram,
        opts: RunOptions,
        obs: Option<&mut Observer>,
    ) -> SimReport {
        self.run_view(&program.view(), opts, obs)
    }

    /// Simulates a borrowed [`ProgramView`] — the entry point every other
    /// `run*` method funnels into. Views cost nothing to build from an
    /// owned program and are also what the harness's memory-mapped trace
    /// store serves, so a multi-gigabyte trace corpus can be simulated
    /// without ever materializing an owned `TraceProgram`.
    ///
    /// # Panics
    ///
    /// As [`run_with`](CmpSimulator::run_with).
    pub fn run_view(
        &self,
        view: &ProgramView<'_>,
        opts: RunOptions,
        obs: Option<&mut Observer>,
    ) -> SimReport {
        Machine::new(&self.config, view, opts, obs).run().0
    }

    /// As [`run_view`](CmpSimulator::run_view) with no observer, also
    /// returning the run's [`Envelope`]: what it read of its sub-thread
    /// configuration, so a caller can tell which other configurations
    /// would produce the same report.
    ///
    /// # Panics
    ///
    /// As [`run_with`](CmpSimulator::run_with).
    pub fn run_envelope(&self, view: &ProgramView<'_>, opts: RunOptions) -> (SimReport, Envelope) {
        Machine::new(&self.config, view, opts, None).run()
    }
}

/// Scheduling state of one CPU.
///
/// `Running` is boxed: `execute_cpu`, `force_merge` and `commit_ready`
/// take the run out of its slot and put it back, every cycle for every
/// CPU, and moving a pointer is far cheaper than moving the whole
/// `EpochRun` (inline, those moves were a fifth of the host time of a
/// Figure-5 simulation, nearly all of it in `memmove`).
#[derive(Debug)]
enum Slot<'p> {
    Free,
    Running(Box<EpochRun<'p>>),
}

/// Per-cycle op-examination budget per CPU (latch ops and sub-thread
/// boundaries bypass the core's issue-width accounting, so bound them
/// separately).
const OPS_PER_CYCLE_CAP: usize = 64;

/// The machine of one run: the protocol core plus its mechanism
/// components.
struct Machine<'p> {
    cfg: &'p CmpConfig,
    program: &'p ProgramView<'p>,
    cores: Vec<Core>,
    mem: MemSystem,
    latches: LatchTable,
    slots: Vec<Slot<'p>>,
    /// Epochs of the current region not yet started, as contiguous op
    /// runs (borrowed straight from the view — owned or memory-mapped).
    region_queue: VecDeque<&'p [TraceOp]>,
    region_index: usize,
    next_order: u32,
    /// Logical order of the epoch the homefree token waits for — also
    /// the number of epochs committed so far.
    next_commit: u32,
    cycle: u64,
    // --- results ---
    acct: Breakdown,
    violations: ViolationCounts,
    subthreads_started: u64,
    subthread_merges: u64,
    /// What the sub-thread boundary checks read of the configuration.
    envelope: Envelope,
    profiler: DependenceProfiler,
    /// The §1.2 synchronizing dependence predictor; absent when
    /// `cfg.predictor.enabled` is off, so nothing trains a table that
    /// nothing reads.
    predictor: Option<DependencePredictor>,
    /// Violation storms flagged by the forward-progress watchdog.
    livelocks: Vec<LivelockReport>,
    /// Reused buffer of secondary violations: `(cpu, epoch, target sub)`.
    later_scratch: Vec<(usize, u32, u8)>,
    // --- the [`RunOptions`] the protocol reads ---
    /// `fast_forward`.
    skip_quiet: bool,
    livelock_threshold: u64,
    progress_fallback: bool,
    /// Whether epochs keep their write log ([`EpochRun::stores`]) for the
    /// oracle, the value model's store counts and the store-flow audit.
    log_stores: bool,
    // --- mechanism components ---
    tso: Option<Tso>,
    vp: Option<ValueSpec>,
    chaos: Chaos,
    checks: Checks,
    /// Attached observer (event ring + metrics), or `None` for a plain
    /// run. Observation is passive: every hook only reads machine state
    /// and appends to the observer's own buffers.
    obs: Option<&'p mut Observer>,
    /// Last-seen value of the L2's victim-insert counter (observer
    /// bookkeeping; diffed per CPU per cycle to emit spill events).
    victim_inserts_seen: u64,
}

impl<'p> Machine<'p> {
    fn new(
        cfg: &'p CmpConfig,
        program: &'p ProgramView<'p>,
        opts: RunOptions,
        obs: Option<&'p mut Observer>,
    ) -> Self {
        let n = cfg.cpus;
        let tso = Tso::new(cfg.memory_model, n);
        let vp = ValueSpec::new(cfg);
        let log_stores = opts.oracle || vp.is_some() || (opts.audit && tso.is_some());
        Machine {
            cfg,
            program,
            cores: (0..n).map(|_| Core::new(cfg.cpu)).collect(),
            mem: MemSystem {
                l1s: (0..n).map(|_| L1Data::new(cfg.l1)).collect(),
                l2: SpecL2::new(
                    cfg.l2,
                    cfg.mem,
                    cfg.victim_entries,
                    n,
                    cfg.subthreads.contexts,
                    cfg.track_dependences,
                ),
                mshrs: (0..n).map(|_| MshrFile::new(cfg.mem.data_mshrs)).collect(),
                exposed: (0..n)
                    .map(|_| ExposedLoadTable::new(cfg.exposed_load_entries, cfg.l2.line_shift()))
                    .collect(),
                pending: Vec::new(),
                spare: Vec::new(),
                scratch: L2Outcome::default(),
                l1_subthread_aware: cfg.l1_subthread_aware,
                last_exposed: false,
            },
            latches: LatchTable::new(),
            slots: (0..n).map(|_| Slot::Free).collect(),
            region_queue: VecDeque::new(),
            region_index: 0,
            next_order: 0,
            next_commit: 0,
            cycle: 0,
            acct: Breakdown::default(),
            violations: ViolationCounts::default(),
            subthreads_started: 0,
            subthread_merges: 0,
            envelope: Envelope::default(),
            profiler: DependenceProfiler::new(1024),
            predictor: cfg.predictor.enabled.then(|| DependencePredictor::new(&cfg.predictor)),
            livelocks: Vec::new(),
            later_scratch: Vec::new(),
            skip_quiet: opts.fast_forward,
            livelock_threshold: opts.livelock_threshold,
            progress_fallback: opts.progress_fallback,
            log_stores,
            tso,
            vp,
            chaos: Chaos::new(&opts),
            checks: Checks::new(&opts, program, cfg.l2.line_shift()),
            obs,
            victim_inserts_seen: 0,
        }
    }

    fn run(mut self) -> (SimReport, Envelope) {
        self.schedule();
        while !self.done() {
            let quiet = !self.step();
            self.cycle += 1;
            if self.checks.aborted {
                break;
            }
            // Fast-forward clamps its target to `max_cycles + 1`, so the
            // overrun fires at the same cycle count either way.
            if quiet && self.skip_quiet && !self.done() {
                self.fast_forward();
            }
            if self.cfg.max_cycles > 0 && self.cycle > self.cfg.max_cycles {
                panic!(
                    "simulation of '{}' exceeded {} cycles (region {}, {} committed)",
                    self.program.name, self.cfg.max_cycles, self.region_index, self.next_commit
                );
            }
            if self.obs.is_some() {
                self.sample_metrics();
            }
        }
        if self.checks.aborted {
            // Partial run: fold the cycles of still-running epochs into
            // the global accounting so the identity holds even here.
            for s in &mut self.slots {
                if let Slot::Running(r) = std::mem::replace(s, Slot::Free) {
                    self.acct += r.ledger.commit();
                }
            }
        } else {
            self.end_of_run_checks();
        }
        let envelope =
            if self.checks.failures.is_empty() { self.envelope } else { Envelope::EXACT };
        (self.finish(), envelope)
    }

    fn done(&self) -> bool {
        self.region_index >= self.program.regions.len()
            && self.region_queue.is_empty()
            && self.slots.iter().all(|s| matches!(s, Slot::Free))
    }

    /// One simulated cycle. Returns whether anything *happened*: a fault
    /// touched the machine, a CPU retired/dispatched/advanced, a
    /// violation was pending, an epoch committed, or the scheduler placed
    /// work. A `false` return certifies the machine is quiescent — every
    /// subsequent cycle will be identical until the next timed event — so
    /// the caller may [`fast_forward`](Machine::fast_forward).
    fn step(&mut self) -> bool {
        let mut active = self.apply_due_faults();
        let orders = self.orders_snapshot();
        // Each core is borrowed across its CPU's dispatch loop, which calls
        // machine methods: measurably faster than re-indexing `self.cores`.
        let mut cores = std::mem::take(&mut self.cores);
        for (cpu, core) in cores.iter_mut().enumerate() {
            active |= self.execute_cpu(cpu, core, &orders);
            if self.obs.is_some() {
                self.note_victim_spills(cpu, &orders);
            }
        }
        self.cores = cores;
        active |= !self.mem.pending.is_empty();
        self.apply_violations();
        let committed = self.next_commit;
        self.commit_ready();
        let scheduled = (self.next_order, self.region_index);
        self.schedule();
        active || self.next_commit != committed || (self.next_order, self.region_index) != scheduled
    }

    /// Emits a victim-spill event when `cpu`'s just-executed accesses
    /// displaced speculative lines into the victim cache (observer
    /// attached only; the L2's monotonic insert counter is diffed so
    /// the protocol engine needs no observer plumbing of its own).
    fn note_victim_spills(&mut self, cpu: usize, orders: &[Option<u32>]) {
        let total = self.mem.l2.victim_inserts();
        let delta = total - self.victim_inserts_seen;
        self.victim_inserts_seen = total;
        if delta > 0 {
            let epoch = orders[cpu].unwrap_or(u32::MAX);
            emit!(self, EventKind::VictimSpill, cpu, epoch, 0, delta, 0);
        }
    }

    /// Takes a due metrics sample (observer attached only): cumulative
    /// per-CPU cycle classes plus point-in-time occupancy gauges.
    fn sample_metrics(&mut self) {
        let Some(o) = self.obs.as_deref_mut() else { return };
        if !o.metrics.due(self.cycle) {
            return;
        }
        let rob: Vec<u64> = self.cores.iter().map(|c| c.rob_occupancy() as u64).collect();
        let spec_lines = self.mem.l2.spec_lines() as u64;
        let victim_lines = self.mem.l2.victim_len() as u64;
        let mshr: u64 = self.mem.mshrs.iter().map(|m| m.outstanding() as u64).sum();
        o.metrics.sample(self.cycle, rob, spec_lines, victim_lines, mshr);
    }

    fn orders_snapshot(&self) -> [Option<u32>; MAX_CPUS] {
        let mut orders = [None; MAX_CPUS];
        for (cpu, s) in self.slots.iter().enumerate() {
            if let Slot::Running(r) = s {
                orders[cpu] = Some(r.order);
            }
        }
        orders
    }

    /// The next cycle at which a quiescent machine can change state: the
    /// earliest of every core's ROB-head completion and fetch-stall
    /// expiry, every MSHR fill, the homefree-token release, and the
    /// chaos injector's next due event. `None` means no timed event is
    /// pending (the machine would spin to `max_cycles`).
    ///
    /// L2 banks, the memory bus, and FU ports are deliberately absent:
    /// they book `max(now, next_free)`, so arriving late at them is
    /// indistinguishable from having waited.
    fn next_event_cycle(&self) -> Option<u64> {
        // The last *stepped* cycle is `self.cycle - 1` (the caller has
        // already advanced the counter). Any event strictly after it —
        // including one at `self.cycle` itself, which forbids skipping —
        // can change the machine's answer.
        let prev = self.cycle - 1;
        let mut next = u64::MAX;
        let mut consider = |at: u64| {
            if at > prev && at < next {
                next = at;
            }
        };
        for core in &self.cores {
            if let Some(at) = core.next_retire_cycle() {
                consider(at);
            }
            consider(core.fetch_resume_cycle());
        }
        for mshr in &self.mem.mshrs {
            if let Some(at) = mshr.next_completion_after(prev) {
                consider(at);
            }
        }
        for at in self.chaos.wakeups() {
            consider(at);
        }
        (next != u64::MAX).then_some(next)
    }

    /// Jumps over cycles in which provably nothing can happen.
    ///
    /// Called only after a quiescent [`step`](Machine::step): no CPU
    /// could retire, dispatch, or move its cursor, no violation was
    /// pending, and neither commit nor schedule had work. Every input
    /// that could change that answer is time-gated and enumerated by
    /// [`next_event_cycle`](Machine::next_event_cycle), so the cycles in
    /// between are byte-for-byte repeats of the one just simulated: each
    /// CPU re-records the same category, and nothing else moves. They are
    /// accounted in bulk and skipped.
    fn fast_forward(&mut self) {
        // Armed faults probe for an eligible target every cycle — their
        // eligibility is state- not time-gated, so never skip past them.
        // A non-empty store buffer drains one entry per stalled cycle,
        // so those cycles are not repeats either.
        if self.chaos.has_armed()
            || !self.mem.pending.is_empty()
            || self.tso.as_ref().is_some_and(Tso::any_buffered)
        {
            return;
        }
        let Some(target) = self.next_event_cycle() else { return };
        // The overrun panic must fire at the same cycle count it would
        // have without fast-forward (its message carries no cycle value,
        // and a quiet streak changes no other reported state).
        let target =
            if self.cfg.max_cycles > 0 { target.min(self.cfg.max_cycles + 1) } else { target };
        if target <= self.cycle {
            return;
        }
        let skipped = target - self.cycle;
        for cpu in 0..self.cfg.cpus {
            let category = match &mut self.slots[cpu] {
                Slot::Free => {
                    self.acct.add(CycleCategory::Idle, skipped);
                    CycleCategory::Idle
                }
                Slot::Running(r) => {
                    r.ledger.record_n(r.last_category, skipped);
                    r.last_category
                }
            };
            if let Some(o) = self.obs.as_deref_mut() {
                o.metrics.tick_n(cpu, cycle_class(category), skipped);
            }
        }
        // One synthetic record keeps the timeline truthful across the
        // skip: every CPU repeated its category for [cycle, target).
        emit!(self, EventKind::IdleSpan, Event::NO_CPU, u32::MAX, 0, target, 0);
        self.cycle = target;
    }

    /// Expires timed faults and applies every event the plan schedules
    /// at or before this cycle. Returns whether anything touched the
    /// machine (fast-forward must not skip it).
    fn apply_due_faults(&mut self) -> bool {
        let mut active = false;
        if let Some(cap) = self.chaos.victim_restore_due(self.cycle) {
            let displaced = self.mem.l2.set_victim_capacity(cap);
            debug_assert!(displaced.is_empty(), "growing the victim cache displaces nothing");
            active = true;
        }
        active |= self.chaos.arm_due(self.cycle);
        if !self.chaos.has_armed() {
            return active;
        }
        // Each armed fault fires at the first cycle in its window with an
        // eligible target; a window that closes without one is skipped.
        for ev in self.chaos.take_armed() {
            let applied = self.apply_fault(ev);
            active |= self.chaos.settle(ev, applied, self.cycle);
        }
        active
    }

    /// Attempts one fault; returns whether it found a target and applied.
    fn apply_fault(&mut self, ev: FaultEvent) -> bool {
        let until = self.cycle + ev.duration.max(1);
        match ev.class {
            FaultClass::SpuriousPrimary => self.inject_violation(false),
            FaultClass::SpuriousSecondary => self.inject_violation(true),
            FaultClass::VictimSqueeze => {
                // False while a squeeze is already in flight.
                let squeezed = self.chaos.squeeze_victims(until, self.mem.l2.victim_capacity());
                if squeezed {
                    let orders = self.orders_snapshot();
                    let victims = self.mem.l2.set_victim_capacity(0);
                    self.mem.queue_overflow(&victims, Addr(0), &orders);
                }
                squeezed
            }
            FaultClass::ForcedMerge => self.force_merge(),
            FaultClass::DelayedToken => {
                self.chaos.delay_token(until);
                true
            }
            FaultClass::LatchHazard => match self.latches.held().first() {
                Some(&latch) => {
                    // Latch audits are best-effort from here on: the
                    // owner's bookkeeping is deliberately desynchronized.
                    self.chaos.latch_hazard = true;
                    self.latches.force_release(latch);
                    true
                }
                None => false,
            },
            // Store-buffer chaos: every class needs a TSO machine with
            // at least one buffered store — on an SC machine (or with
            // every buffer drained) the event stays armed until its
            // window closes and is counted skipped.
            FaultClass::StuckDrain | FaultClass::ReorderedDrain | FaultClass::DroppedEntry => {
                self.tso.as_mut().is_some_and(|t| t.apply_fault(ev.class, self.cycle, ev.duration))
            }
        }
    }

    /// Queues a spurious violation. `full_restart` picks the youngest
    /// speculative epoch and rewinds it to sub-thread 0 (the worst case);
    /// otherwise the oldest speculative epoch rewinds to its current
    /// sub-thread, which also drives secondary violations through every
    /// later thread's start table.
    fn inject_violation(&mut self, full_restart: bool) -> bool {
        // Orders are unique, so the tuples order by epoch.
        let candidates = self.slots.iter().enumerate().filter_map(|(cpu, s)| match s {
            Slot::Running(r) if r.order > self.next_commit => Some((r.order, cpu, r.cur_sub())),
            _ => None,
        });
        let target = if full_restart { candidates.max() } else { candidates.min() };
        let Some((order, cpu, cur_sub)) = target else { return false };
        self.mem.pending.push(PendingViolation {
            cpu,
            sub: if full_restart { 0 } else { cur_sub },
            order,
            kind: ViolationKind::Injected,
            line: Addr(0),
            store_pc: None,
        });
        true
    }

    /// Forces a sub-thread context merge on the first speculative epoch
    /// that has one to give — as if its context supply were exhausted.
    fn force_merge(&mut self) -> bool {
        for cpu in 0..self.cfg.cpus {
            let Slot::Running(mut run) = std::mem::replace(&mut self.slots[cpu], Slot::Free) else {
                continue;
            };
            let eligible = run.order > self.next_commit && run.checkpoints.len() >= 2;
            if eligible {
                self.merge_one_context(cpu, &mut run);
            }
            self.slots[cpu] = Slot::Running(run);
            if eligible {
                return true;
            }
        }
        false
    }

    /// Recycles one sub-thread context of `cpu`'s running epoch (taken
    /// out of its slot) by merging the adjacent checkpoint pair with the
    /// smallest combined span. Shared by the Merge exhaustion policy and
    /// the chaos harness's forced-merge fault.
    fn merge_one_context(&mut self, cpu: usize, run: &mut EpochRun<'p>) {
        let m = (1..run.checkpoints.len())
            .min_by_key(|&k| {
                let end = run.checkpoints.get(k + 1).copied().unwrap_or(run.cursor);
                end - run.checkpoints[k - 1]
            })
            .expect("at least two checkpoints");
        run.checkpoints.remove(m);
        run.ledger.merge_bucket(m);
        run.start_table.remap_values(m as u8);
        self.mem.l2.merge_subthread(cpu, m as u8);
        for s in &mut self.slots {
            if let Slot::Running(o) = s {
                o.start_table.remap_keys_for(cpu, m as u8);
            }
        }
        for v in &mut self.mem.pending {
            if v.cpu == cpu && v.sub >= m as u8 {
                v.sub = (v.sub - 1).max(m as u8 - 1);
            }
        }
        // TSO: buffered (not yet drained) stores carry the context id
        // they will replay under; remap them with everything else.
        if let Some(tso) = &mut self.tso {
            tso.merge(cpu, m as u8);
        }
        self.subthread_merges += 1;
        emit!(self, EventKind::SubThreadMerge, cpu, run, 0, 0);
    }

    /// Records a serializability breach [`Checks`] found, with its event.
    fn serializability_breach(&mut self, cpu: usize, epoch: u32, message: String) {
        let n = self.checks.breach(self.cycle, message);
        emit!(self, EventKind::SerializabilityBreach, cpu, epoch, 0, 0, n);
    }

    /// One CPU's execute phase. Returns whether the epoch made progress
    /// — retired, dispatched, moved its cursor, started or merged a
    /// sub-thread, finished, or hit a latch error. A no-progress cycle
    /// recomputes exactly the state it inherited, which is what licenses
    /// fast-forwarding streaks of them.
    fn execute_cpu(&mut self, cpu: usize, core: &mut Core, orders: &[Option<u32>]) -> bool {
        let mut run = match std::mem::replace(&mut self.slots[cpu], Slot::Free) {
            Slot::Free => {
                self.acct.add(CycleCategory::Idle, 1);
                if let Some(o) = self.obs.as_deref_mut() {
                    o.metrics.tick(cpu, CycleClass::Idle);
                }
                return false;
            }
            Slot::Running(r) => r,
        };
        let cursor_in = run.cursor;
        let checkpoints_in = run.checkpoints.len();
        let finished_in = run.finished;
        let started_in = self.subthreads_started;
        let merges_in = self.subthread_merges;
        core.begin_cycle(self.cycle);
        let retired = core.retire();
        let speculative = run.order > self.next_commit;
        let mut dispatched = 0usize;
        let mut examined = 0usize;
        let mut latch_errors: Vec<LatchError> = Vec::new();
        run.waiting_sync = false;
        // TSO bookkeeping for this cycle. `drain_stall` carries the
        // cause code when the CPU hit an explicit ordering point (1 =
        // full buffer, 2 = forwarding conflict, 3 = ordering-point
        // flush).
        let mut drain_stall: Option<u64> = None;
        // What the dispatch loop reads on every op is read once, here:
        // the loop calls `&mut self` methods, after which the compiler
        // must reload any field of `self` it reads again.
        let (tso, vp, log_stores) = (self.tso.is_some(), self.vp.is_some(), self.log_stores);
        let (now, sync_predictor) = (self.cycle, self.predictor.is_some());
        let contexts = self.cfg.subthreads.contexts;
        let merge = contexts >= 2 && self.cfg.subthreads.exhaustion == ExhaustionPolicy::Merge;
        // This cycle's share of the run's envelope, folded in once at the
        // end: what the boundary checks below read of the configuration.
        let (mut longest_quiet, mut attempted, mut found_full) = (0u64, false, false);

        // Retry a latch we blocked on last cycle; while it stays taken,
        // the epoch dispatches nothing.
        if let Some(latch) = run.latch_retry {
            if self.latches.try_acquire(cpu, latch) {
                run.latch_retry = None;
                run.held_latches.push((latch, run.cursor));
                run.cursor += 1;
            }
        }
        let mut blocked = run.latch_retry.is_some();

        while !blocked && run.cursor < run.ops.len() && examined < OPS_PER_CYCLE_CAP {
            examined += 1;
            // Progress fallback: a serialized (livelock-degraded) epoch
            // dispatches nothing while speculative — it waits, as Sync,
            // for the homefree token, then runs non-speculatively so no
            // further violation can touch it. Inside an escaped critical
            // section it keeps running: stalling while holding a latch an
            // older epoch needs would deadlock the machine.
            if run.serialized && speculative && run.held_latches.is_empty() {
                run.waiting_sync = true;
                break;
            }
            // Sub-thread boundary: checkpoint and broadcast.
            let since = (run.cursor - *run.checkpoints.last().expect("nonempty")) as u64;
            // Checkpoints are never placed inside an escaped critical
            // section: escaped operations are not rolled back, so a
            // rewind target between a latch acquire and its release
            // would replay an unbalanced half of the section. The
            // boundary is simply deferred a few instructions until the
            // latches are released.
            let eligible = speculative && run.held_latches.is_empty();
            if eligible && since < run.spacing {
                longest_quiet = longest_quiet.max(since);
            }
            let boundary = eligible && since >= run.spacing;
            if boundary {
                attempted = true;
                if (run.checkpoints.len() as u8) == contexts {
                    found_full = true;
                    if merge {
                        // Recycle a context: merge the adjacent checkpoint
                        // pair with the smallest combined span.
                        self.merge_one_context(cpu, &mut run);
                    }
                }
            }
            if boundary && (run.checkpoints.len() as u8) < contexts {
                run.checkpoints.push(run.cursor);
                run.ledger.push_subthread();
                self.subthreads_started += 1;
                let new_sub = run.cur_sub();
                emit!(self, EventKind::SubThreadStart, cpu, run, run.cursor as u64, 0);
                for (other, order) in orders.iter().enumerate() {
                    if other != cpu && order.is_some_and(|o| o > run.order) {
                        if let Slot::Running(o) = &mut self.slots[other] {
                            let local = o.cur_sub();
                            o.start_table.record(cpu, new_sub, local);
                        }
                    }
                }
                continue;
            }
            let op = &run.ops[run.cursor];
            match op.kind() {
                OpKind::LatchAcquire(latch) => {
                    // TSO ordering point: older stores must be visible
                    // before the critical section opens, so the buffer
                    // drains fully before the acquire is attempted.
                    if tso && self.tso.as_ref().is_some_and(|t| t.holds_stores(cpu)) {
                        drain_stall = Some(3);
                        break;
                    }
                    if self.latches.try_acquire(cpu, latch) {
                        run.held_latches.push((latch, run.cursor));
                        run.cursor += 1;
                    } else {
                        run.latch_retry = Some(latch);
                        blocked = true;
                        emit!(self, EventKind::LatchStall, cpu, run, latch.0 as u64, 0);
                    }
                }
                OpKind::LatchRelease(latch) => {
                    if let Err(e) = self.latches.release(cpu, latch) {
                        latch_errors.push(e);
                    }
                    if let Some(i) = run.held_latches.iter().rposition(|(l, _)| *l == latch) {
                        run.held_latches.remove(i);
                    }
                    run.cursor += 1;
                }
                kind => {
                    if !core.can_dispatch() {
                        break;
                    }
                    // TSO: a store enters this CPU's bounded buffer
                    // (reaching the caches only when it drains) and a
                    // load probes the buffer youngest-first for
                    // same-address forwarding. Either bypass completes
                    // locally in one cycle — exactly a store's SC
                    // latency — so TSO's timing delta comes entirely
                    // from drain stalls, never from the bypass itself.
                    let ctx = AccessCtx { cpu, sub: run.cur_sub(), speculative };
                    let mut bypass = false;
                    if tso && matches!(kind, OpKind::Load { .. } | OpKind::Store { .. }) {
                        let t = self.tso.as_mut().expect("TSO machine");
                        match t.dispatch(kind, op.pc(), run.cursor, ctx) {
                            Dispatch::Stall(cause) => {
                                drain_stall = Some(cause);
                                break;
                            }
                            gate => bypass = gate == Dispatch::Bypass,
                        }
                    }
                    if !bypass && matches!(kind, OpKind::Load { .. }) {
                        if !self.mem.mshrs[cpu].can_accept(now) {
                            break;
                        }
                        // §1.2 alternative: synchronize predicted-violating
                        // loads until this thread is the oldest. Never
                        // inside an escaped critical section: the thread
                        // holds a latch the older threads may need, and
                        // escaped operations are not speculative anyway.
                        if sync_predictor && speculative && run.held_latches.is_empty() {
                            let predictor = self.predictor.as_mut();
                            if let Some(p) = predictor.filter(|p| p.predicts_violation(op.pc())) {
                                if run.last_sync_cursor != Some(run.cursor) {
                                    run.last_sync_cursor = Some(run.cursor);
                                    p.note_synchronization();
                                }
                                run.waiting_sync = true;
                                break;
                            }
                        }
                    }
                    if log_stores {
                        if let OpKind::Store { addr, size } = kind {
                            run.stores.push((run.cursor, addr, size));
                        }
                    }
                    if bypass {
                        core.dispatch(op, |start, _, _| start + 1);
                    } else {
                        let mem = &mut self.mem;
                        core.dispatch(op, |start, _, mk| mem.access(op, ctx, orders, start, mk));
                        // Value prediction covers exposed speculative loads:
                        // the access callback (synchronous) just flagged
                        // whether this load recorded an exposure. (A
                        // forwarded load consumes this CPU's own buffered
                        // value: no exposure, no prediction to track.)
                        if vp && speculative && self.mem.last_exposed {
                            if let OpKind::Load { addr, .. } = kind {
                                let v = self.vp.as_mut().expect("value-prediction machine");
                                v.track(&mut run.vloads, run.cursor, addr, op.pc());
                            }
                        }
                    }
                    run.cursor += 1;
                    dispatched += 1;
                }
            }
        }

        self.envelope.fold(longest_quiet, attempted, found_full);
        if run.cursor == run.ops.len() && core.is_drained() && !blocked {
            run.finished = true;
        }

        // TSO drain engine: one entry per cycle leaves the buffer
        // whenever the CPU is stalled — at an explicit ordering point
        // (full buffer, forwarding conflict, latch acquire, the
        // pre-commit flush of a finished epoch) or opportunistically
        // while it waits on anything else. The drained store reaches the
        // memory system with the context it dispatched under.
        let mut drained_one = false;
        if tso {
            let t = self.tso.as_mut().expect("TSO machine");
            let idle = dispatched == 0 && retired.retired == 0;
            if let Some(e) = t.drain(cpu, self.cycle, run.finished, idle, &mut drain_stall) {
                let ctx = AccessCtx { cpu, sub: e.sub, speculative: e.speculative };
                self.mem.write(e.addr, e.size, e.pc, ctx, orders, self.cycle);
                if log_stores {
                    run.drained.push((e.cursor, e.addr, e.size));
                }
                drained_one = true;
            }
        }

        let category = if retired.retired > 0 || dispatched > 0 {
            CycleCategory::Busy
        } else if drain_stall.is_some() {
            CycleCategory::DrainStall
        } else if blocked {
            CycleCategory::Latch
        } else if run.waiting_sync || run.finished {
            CycleCategory::Sync
        } else if retired.head_stall == HeadStall::Memory {
            CycleCategory::CacheMiss
        } else {
            CycleCategory::Busy
        };
        run.ledger.record(category);
        run.last_category = category;
        // One drain-stall event per stall episode, at its start.
        let stalled = category == CycleCategory::DrainStall;
        if let Some(buffered) = self.tso.as_mut().and_then(|t| t.episode_start(cpu, stalled)) {
            let buffered = buffered + drained_one as u64;
            emit!(self, EventKind::DrainStall, cpu, run, buffered, drain_stall.unwrap_or(0));
        }
        if let Some(o) = self.obs.as_deref_mut() {
            o.metrics.tick(cpu, cycle_class(category));
        }
        let progress = retired.retired > 0
            || dispatched > 0
            || drained_one
            || run.cursor != cursor_in
            || run.checkpoints.len() != checkpoints_in
            || run.finished != finished_in
            || self.subthreads_started != started_in
            || self.subthread_merges != merges_in
            || !latch_errors.is_empty();
        self.slots[cpu] = Slot::Running(run);
        for e in latch_errors {
            self.checks.latch_error(self.cycle, self.chaos.latch_hazard, e);
        }
        progress
    }

    fn apply_violations(&mut self) {
        if self.mem.pending.is_empty() {
            return;
        }
        // Swap the queue with the spare vector so draining it (and
        // anything queued while we work) never reallocates.
        let mut pending = std::mem::take(&mut self.mem.spare);
        std::mem::swap(&mut pending, &mut self.mem.pending);
        for v in pending.drain(..) {
            let (order, cur_sub) = match &self.slots[v.cpu] {
                Slot::Running(r) => (r.order, r.cur_sub()),
                Slot::Free => continue, // epoch committed before detection
            };
            // Stale if the slot was recycled or the state already rewound.
            if order != v.order || v.sub > cur_sub {
                continue;
            }
            // Looked up once (the table read is side-effect free) and
            // shared by the event stream, predictor and profiler.
            let raw_load_pc: Option<Pc> =
                if matches!(v.kind, ViolationKind::Raw | ViolationKind::ValueMispredict) {
                    self.mem.exposed[v.cpu].lookup(v.line)
                } else {
                    None
                };
            let pcs = Event::pack_pcs(raw_load_pc.map(|p| p.0), v.store_pc.map(|p| p.0));
            // Value prediction: a RAW violation whose line was consumed
            // only through predicted loads is suppressed — the victim
            // keeps running on the predicted values, and the guess is
            // settled at commit time. One unpredicted load on the line
            // and the violation stands (the thread consumed a value
            // nobody vouched for).
            if let (Some(vp), Slot::Running(r), ViolationKind::Raw) =
                (&self.vp, &mut self.slots[v.cpu], v.kind)
            {
                if vp.suppress(&mut r.vloads, v.line) {
                    emit!(self, EventKind::ValuePredicted, v.cpu, order, v.sub, v.line.0, pcs);
                    continue;
                }
            }
            match v.kind {
                ViolationKind::Raw => {
                    self.violations.primary += 1;
                    emit!(self, EventKind::ViolationRaw, v.cpu, order, v.sub, v.line.0, pcs);
                    // Feed the forward-progress watchdog: remember the
                    // PCs implicated in the victim's current storm.
                    if let Slot::Running(r) = &mut self.slots[v.cpu] {
                        r.last_raw_pcs = pcs;
                        for pc in [raw_load_pc, v.store_pc].into_iter().flatten() {
                            if r.storm_pcs.len() < STORM_PC_CAP && !r.storm_pcs.contains(&pc.0) {
                                r.storm_pcs.push(pc.0);
                            }
                        }
                    }
                }
                ViolationKind::Overflow => {
                    self.violations.overflow += 1;
                    emit!(self, EventKind::ViolationOverflow, v.cpu, order, v.sub, v.line.0, 0);
                }
                ViolationKind::Secondary => {
                    self.violations.secondary += 1;
                    emit!(self, EventKind::ViolationSecondary, v.cpu, order, v.sub, 0, 0);
                }
                // Chaos injections are counted in FaultStats, not in the
                // machine's dependence statistics (the secondaries they
                // cascade into are real protocol work and still count).
                ViolationKind::Injected => {
                    emit!(self, EventKind::ViolationInjected, v.cpu, order, v.sub, 0, 0);
                }
                // A suppressed RAW whose prediction failed commit-time
                // validation: the deferred rewind lands here, through
                // the same sub-thread machinery as a direct violation.
                ViolationKind::ValueMispredict => {
                    if let Some(vp) = &mut self.vp {
                        vp.value_mispredicts += 1;
                    }
                    emit!(self, EventKind::ValueMispredict, v.cpu, order, v.sub, v.line.0, pcs);
                }
            }
            // Attribute the about-to-be-discarded cycles to the dependence
            // (§3.1: the exposed-load table provides the load PC).
            if matches!(v.kind, ViolationKind::Raw | ViolationKind::ValueMispredict) {
                let cycles = match &self.slots[v.cpu] {
                    Slot::Running(r) => r.ledger.cycles_since(v.sub as usize),
                    Slot::Free => 0,
                };
                if let (Some(p), Some(pc)) = (&mut self.predictor, raw_load_pc) {
                    p.train(pc);
                }
                self.profiler.attribute(raw_load_pc, v.store_pc, cycles);
            }
            self.rewind(v.cpu, v.sub);
            // Secondary violations for logically-later threads.
            let mut later = std::mem::take(&mut self.later_scratch);
            for (cpu, s) in self.slots.iter().enumerate() {
                let Slot::Running(r) = s else { continue };
                let target = match self.cfg.secondary {
                    SecondaryPolicy::StartTable => r.start_table.restart_point(v.cpu, v.sub),
                    SecondaryPolicy::RestartAll => 0,
                };
                if r.order > order && target <= r.cur_sub() {
                    later.push((cpu, r.order, target));
                }
            }
            for &(cpu, victim_order, target) in &later {
                self.violations.secondary += 1;
                emit!(
                    self,
                    EventKind::ViolationSecondary,
                    cpu,
                    victim_order,
                    target,
                    order as u64,
                    0
                );
                self.rewind(cpu, target);
            }
            later.clear();
            self.later_scratch = later;
        }
        self.mem.spare = pending;
    }

    /// Rewinds `cpu` to sub-thread `sub`: discards speculative state,
    /// flushes the pipeline and re-classifies the discarded cycles as
    /// Failed.
    fn rewind(&mut self, cpu: usize, sub: u8) {
        let mut latch_errors: Vec<LatchError> = Vec::new();
        let mut flow_breach: Option<(u32, String)> = None;
        {
            let Slot::Running(run) = &mut self.slots[cpu] else { return };
            debug_assert!((sub as usize) < run.checkpoints.len());
            let failed = run.ledger.rewind_to(sub as usize);
            self.acct += failed;
            let discarded = failed.total();
            let ops_rewound = (run.cursor - run.checkpoints[sub as usize]) as u64;
            emit!(self, EventKind::Rewind, cpu, run.order, sub, discarded, ops_rewound);
            if let Some(o) = self.obs.as_deref_mut() {
                o.metrics.note_failed(cpu, discarded);
            }
            run.cursor = run.checkpoints[sub as usize];
            run.checkpoints.truncate(sub as usize + 1);
            run.finished = false;
            run.latch_retry = None;
            self.cores[cpu].flush();
            self.mem.rewind(cpu, sub, !self.chaos.sabotage_rewind);
            // Escaped synchronization: only acquisitions the rewind undoes
            // are released; critical sections that completed (or that the
            // rewind target sits inside) keep their latches, so the replay's
            // re-entrant acquires and the eventual releases stay balanced.
            let rewound_to = run.cursor;
            let latches = &mut self.latches;
            run.held_latches.retain(|&(latch, at)| {
                if at >= rewound_to {
                    if let Err(e) = latches.release(cpu, latch) {
                        latch_errors.push(e);
                    }
                    return false;
                }
                true
            });
            // TSO: the store-flow identity is audited on the pre-rewind
            // state (truncation must not mask a chaos-dropped entry),
            // then the buffer and the drain mirror forget the rewound
            // suffix.
            if let Some(tso) = &mut self.tso {
                if self.checks.auditing() {
                    let breach = tso.store_flow(cpu, &run.stores, &run.drained);
                    flow_breach = breach.map(|msg| (run.order, msg));
                }
                tso.rewind(cpu, rewound_to, &mut run.drained);
            }
            // The write log forgets the stores the rewind undid;
            // re-execution re-records them, keeping commit exactly-once.
            let keep = run.stores.partition_point(|&(c, _, _)| c < rewound_to);
            run.stores.truncate(keep);
            // Tracked value-predicted loads past the rewind point are
            // discarded the same way (their predictions were never
            // consumed by anything that survives).
            ValueSpec::rewind(&mut run.vloads, rewound_to);
            // Forward-progress watchdog: commit-free consecutive rewinds
            // of one epoch past the threshold are a violation storm. The
            // homefree token only protects the oldest epoch; this is the
            // detector for everyone younger.
            run.rewind_streak += 1;
            let (threshold, streak) = (self.livelock_threshold, run.rewind_streak);
            if threshold > 0 && streak >= threshold {
                match run.livelock_idx {
                    // Storm already flagged: track how long it grows.
                    Some(i) => self.livelocks[i].storm_len = streak,
                    None => {
                        emit!(self, EventKind::Livelock, cpu, run, streak, run.last_raw_pcs);
                        run.serialized |= self.progress_fallback;
                        run.livelock_idx = Some(self.livelocks.len());
                        self.livelocks.push(LivelockReport {
                            epoch: run.order,
                            detected_at_cycle: self.cycle,
                            storm_len: streak,
                            violation_pcs: run.storm_pcs.clone(),
                            serialized: self.progress_fallback,
                        });
                    }
                }
            }
        }
        if let Some((epoch, msg)) = flow_breach {
            self.serializability_breach(cpu, epoch, msg);
        }
        for e in latch_errors {
            self.checks.latch_error(self.cycle, self.chaos.latch_hazard, e);
        }
        self.audit_after_rewind(cpu, sub);
    }

    fn commit_ready(&mut self) {
        // Delayed-token fault: the homefree token is withheld; finished
        // epochs accrue Sync time until it is released.
        if self.chaos.token_withheld(self.cycle) {
            return;
        }
        loop {
            let ready = self.slots.iter().position(
                |s| matches!(s, Slot::Running(r) if r.finished && r.order == self.next_commit),
            );
            let Some(cpu) = ready else { break };
            // TSO: the homefree handoff is an ordering point — the
            // committing epoch's buffer must fully drain (one entry
            // per stalled cycle in `execute_cpu`, accounted as
            // DrainStall) before its state becomes architectural.
            if self.tso.as_ref().is_some_and(|t| t.holds_stores(cpu)) {
                break;
            }
            // Value-prediction settlement: the epoch is next-to-commit,
            // so every older store is architecturally visible and the
            // synthetic value model is exact. A prediction that carried
            // a suppressed violation and turns out wrong becomes a
            // deferred violation through the ordinary rewind path — the
            // commit is withheld this cycle and the epoch re-executes
            // from the implicated sub-thread (non-speculatively, since
            // it holds the token, so the replay cannot mispredict again).
            if let (Some(vp), Slot::Running(r)) = (&self.vp, &self.slots[cpu]) {
                if let Some(v) = vp.validate(&r.vloads, cpu, r.order, &r.checkpoints) {
                    self.mem.pending.push(v);
                    break;
                }
            }
            let Slot::Running(run) = std::mem::replace(&mut self.slots[cpu], Slot::Free) else {
                unreachable!()
            };
            let order = run.order;
            // Commit-time serializability audits (armed with the
            // invariant auditor). Both failures surface as structured
            // protocol errors — never panics — so a chaos run asserts
            // on the evidence: (1) the TSO store-flow identity, where
            // a dropped buffer entry leaves a hole between the write
            // log and the drain mirror; (2) the happens-before order
            // of the committed write-set. The oracle folds the write
            // log into its committed image.
            let flow = (self.tso.as_ref())
                .filter(|_| self.checks.auditing())
                .and_then(|t| t.store_flow(cpu, &run.stores, &run.drained));
            let hb = self.checks.commit_epoch(order, &run.stores);
            for msg in [flow, hb].into_iter().flatten() {
                self.serializability_breach(cpu, order, msg);
            }
            if let Some(vp) = &mut self.vp {
                vp.commit(&run.vloads, &run.stores);
            }
            emit!(self, EventKind::Commit, cpu, run, run.ops.len() as u64, 0);
            self.acct += run.ledger.commit();
            let orders = self.orders_snapshot();
            self.mem.commit(cpu, &orders);
            if let Some(tso) = &mut self.tso {
                tso.commit(cpu);
            }
            self.latches.release_all(cpu);
            for s in &mut self.slots {
                if let Slot::Running(r) = s {
                    r.start_table.forget_cpu(cpu);
                    // A commit is forward progress: every surviving
                    // epoch's watchdog streak restarts. (`serialized`
                    // survives — a degraded epoch stays serial until it
                    // commits.)
                    r.rewind_streak = 0;
                    r.storm_pcs.clear();
                    r.livelock_idx = None;
                }
            }
            self.audit_after_commit(cpu, order);
            self.next_commit += 1;
            // The homefree token moves to the next-oldest epoch.
            let committed = self.next_commit as u64;
            emit!(self, EventKind::TokenHandoff, cpu, self.next_commit, 0, committed, 0);
        }
    }

    fn schedule(&mut self) {
        // Region barrier: advance only when everything committed.
        while self.region_queue.is_empty()
            && self.slots.iter().all(|s| matches!(s, Slot::Free))
            && self.region_index < self.program.regions.len()
        {
            match &self.program.regions[self.region_index] {
                RegionView::Sequential(e) => self.region_queue.push_back(*e),
                RegionView::Parallel(es) => self.region_queue.extend(es.iter().copied()),
            }
            self.region_index += 1;
            if !self.region_queue.is_empty() {
                break;
            }
        }
        for cpu in 0..self.cfg.cpus {
            if matches!(self.slots[cpu], Slot::Free) {
                let Some(epoch) = self.region_queue.pop_front() else { break };
                let spacing = self
                    .cfg
                    .subthreads
                    .spacing
                    .spacing_for(epoch.len(), self.cfg.subthreads.contexts);
                let order = self.next_order;
                self.next_order += 1;
                emit!(self, EventKind::EpochStart, cpu, order, 0, epoch.len() as u64, 0);
                let run = EpochRun {
                    order,
                    ops: epoch,
                    checkpoints: vec![0],
                    spacing,
                    ledger: SubThreadLedger::new(),
                    last_raw_pcs: Event::pack_pcs(None, None),
                    ..EpochRun::default()
                };
                self.slots[cpu] = Slot::Running(Box::new(run));
            }
        }
    }

    /// Audits run after each rewind: the rewound sub-threads must leave
    /// no speculative residue in the L2, and the structural invariants of
    /// every running epoch must hold.
    fn audit_after_rewind(&mut self, cpu: usize, sub: u8) {
        self.audit_machine(None, "post-rewind", |l2| l2.audit_subthread_residue(cpu, sub));
    }

    /// Audits run as each epoch commits: commits happen in logical order
    /// and the committing CPU leaves nothing speculative behind.
    fn audit_after_commit(&mut self, cpu: usize, order: u32) {
        let token = self.next_commit;
        let out_of_order = (order != token).then(|| {
            format!("out-of-order commit: epoch {order} committed while the token was at {token}")
        });
        self.audit_machine(out_of_order, "post-commit", |l2| l2.audit_cpu_clear(cpu));
    }

    /// Audit runs only: records `first`, then what the `stage` residue
    /// audit of the L2 finds, then the structural invariants of every
    /// running epoch that fail: strictly increasing checkpoints, ledger
    /// buckets in lockstep with checkpoints, sane start-table entries,
    /// per-epoch logs that end before the cursor, and latch bookkeeping
    /// consistent with the global table.
    fn audit_machine(
        &mut self,
        first: Option<String>,
        stage: &str,
        residue: impl FnOnce(&SpecL2) -> Vec<String>,
    ) {
        if !self.checks.auditing() {
            return;
        }
        let mut failures: Vec<String> = first.into_iter().collect();
        if self.cfg.track_dependences {
            failures.extend(residue(&self.mem.l2).into_iter().map(|msg| format!("{stage}: {msg}")));
        }
        let contexts = self.cfg.subthreads.contexts;
        for (cpu, s) in self.slots.iter().enumerate() {
            let Slot::Running(run) = s else { continue };
            if !run.checkpoints.windows(2).all(|w| w[0] < w[1]) {
                failures.push(format!(
                    "cpu {cpu}: checkpoints not strictly increasing: {:?}",
                    run.checkpoints
                ));
            }
            if run.checkpoints.len() > contexts.max(1) as usize {
                failures.push(format!(
                    "cpu {cpu}: {} live sub-threads exceed {contexts} contexts",
                    run.checkpoints.len()
                ));
            }
            if run.ledger.current() + 1 != run.checkpoints.len() {
                failures.push(format!(
                    "cpu {cpu}: {} ledger buckets for {} checkpoints",
                    run.ledger.current() + 1,
                    run.checkpoints.len()
                ));
            }
            for ((sender, sub), local) in run.start_table.iter() {
                // `local` may legitimately exceed the *current* sub-thread
                // after a rewind (restart_point guards with `target > cur`),
                // but every recorded value must be a valid context id from
                // a real, different CPU.
                if sender == cpu || sender >= self.cfg.cpus || sub >= contexts || local >= contexts
                {
                    failures.push(format!(
                        "cpu {cpu}: corrupt start-table entry ({sender},{sub})->{local}"
                    ));
                }
            }
            // What a rewind undoes must leave the epoch's logs: a stale
            // entry at or past the cursor would commit (or validate) an
            // access the epoch is about to replay.
            let logged = run.stores.iter().chain(&run.drained).map(|&(c, _, _)| c);
            if let Some(c) = logged.chain(run.vloads.iter().map(|vl| vl.cursor)).max() {
                if c >= run.cursor {
                    failures.push(format!(
                        "cpu {cpu}: logged access at op {c} is not before the cursor {}",
                        run.cursor
                    ));
                }
            }
            if !self.chaos.latch_hazard {
                for &(latch, _) in &run.held_latches {
                    if self.latches.owner(latch) != Some(cpu) {
                        failures.push(format!(
                            "cpu {cpu}: held latch {latch:?} is not owned in the latch table"
                        ));
                    }
                }
            }
        }
        for f in failures {
            self.checks.fail(self.cycle, f);
        }
    }

    /// End-of-run checks. The auditor: with every epoch committed there
    /// must be no speculative metadata or versions left anywhere in the
    /// hierarchy. Then the differential oracle's sequential replay.
    fn end_of_run_checks(&mut self) {
        if self.checks.auditing() && self.cfg.track_dependences {
            for msg in self.mem.l2.audit_quiescent() {
                self.checks.fail(self.cycle, format!("end-of-run: {msg}"));
            }
        }
        self.checks.oracle_replay(self.cycle, self.program);
    }

    fn finish(self) -> SimReport {
        let mut l1 = CacheStats::default();
        for c in &self.mem.l1s {
            l1 += c.stats();
        }
        let mut core = CoreStats::default();
        for c in &self.cores {
            let s = c.stats();
            core.dispatched += s.dispatched;
            core.retired += s.retired;
            core.branches += s.branches;
            core.mispredicts += s.mispredicts;
            core.loads += s.loads;
            core.stores += s.stores;
            core.flushes += s.flushes;
            core.icache_misses += s.icache_misses;
        }
        debug_assert_eq!(
            self.acct.total(),
            self.cycle * self.cfg.cpus as u64,
            "accounting identity: every CPU-cycle is categorized exactly once"
        );
        // Scan-epoch accounting: every epoch commits by the end of the
        // run, so the committed scan epochs are exactly the program's
        // scan-module epochs.
        let (scan_epochs, scan_epoch_ops) =
            self.program.epochs_of_module(tls_trace::SCAN_LOOP_MODULE);
        let tso = self.tso.as_ref();
        let vp = self.vp.as_ref();
        SimReport {
            name: self.program.name.to_string(),
            total_cycles: self.cycle,
            cpus: self.cfg.cpus,
            breakdown: self.acct,
            violations: self.violations,
            committed_epochs: self.next_commit as u64,
            subthreads_started: self.subthreads_started,
            subthread_merges: self.subthread_merges,
            scan_epochs,
            scan_epoch_ops,
            dispatched_ops: core.dispatched,
            program_ops: self.program.total_ops() as u64,
            l1,
            l2: self.mem.l2.stats(),
            victim: self.mem.l2.victim_stats(),
            mem_accesses: self.mem.l2.mem_accesses(),
            core,
            latch_acquisitions: self.latches.acquisitions(),
            predictor_synchronizations: self
                .predictor
                .as_ref()
                .map_or(0, DependencePredictor::synchronizations),
            predicted_hits: vp.map_or(0, |v| v.predicted_hits),
            value_mispredicts: vp.map_or(0, |v| v.value_mispredicts),
            buffered_stores: tso.map_or(0, |t| t.buffered_stores),
            forwarded_loads: tso.map_or(0, |t| t.forwarded_loads),
            store_drains: tso.map_or(0, |t| t.store_drains),
            serializability_breaches: self.checks.breaches,
            profile: self.profiler.report(),
            faults: FaultStats { protocol_errors: self.checks.errors_seen, ..self.chaos.finish() },
            protocol_errors: self.checks.protocol_errors,
            audit_failures: self.checks.failures,
            livelocks: self.livelocks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SpacingPolicy, SubThreadConfig};
    use tls_trace::{OpSink, ProgramBuilder};

    fn cfg() -> CmpConfig {
        CmpConfig::test_small()
    }

    fn run_with(config: CmpConfig, p: &TraceProgram) -> SimReport {
        CmpSimulator::new(config).run(p)
    }

    #[test]
    fn start_table_merge_remap_folds_and_shifts() {
        let mut t = StartTable::new();
        t.record(1, 1, 1);
        t.record(1, 2, 3);
        t.record(1, 3, 0);
        // cpu 1 merges its sub-thread 2 into 1: the pair folds to the
        // earlier restart point and sub-thread 3 shifts down to 2.
        t.remap_keys_for(1, 2);
        assert_eq!(t.restart_point(1, 1), 1);
        assert_eq!(t.restart_point(1, 2), 0);
        assert_eq!(t.iter().filter(|&((cpu, _), _)| cpu == 1).count(), 2);
        // Folding into an absent entry keeps the present one.
        let mut t = StartTable::new();
        t.record(2, 1, 1);
        t.remap_keys_for(2, 1);
        assert_eq!(t.iter().collect::<Vec<_>>(), [((2, 0), 1)]);
    }

    #[test]
    fn empty_program_takes_zero_cycles() {
        let p = TraceProgram::new("empty", vec![]);
        let r = run_with(cfg(), &p);
        assert_eq!(r.total_cycles, 0);
        assert_eq!(r.breakdown.total(), 0);
        assert_eq!(r.committed_epochs, 0);
    }

    #[test]
    fn sequential_program_idles_three_cpus() {
        let mut b = ProgramBuilder::new("seq");
        b.int_ops(Pc::new(0, 0), 4000);
        let p = b.finish();
        let r = run_with(cfg(), &p);
        assert_eq!(r.committed_epochs, 1);
        assert_eq!(r.violations.primary, 0);
        // 3 of 4 CPUs idle the whole run.
        let idle_frac = r.breakdown.idle as f64 / r.breakdown.total() as f64;
        assert!(idle_frac > 0.70, "idle fraction {idle_frac}");
        assert_eq!(r.breakdown.total(), r.total_cycles * 4);
    }

    #[test]
    fn independent_epochs_run_in_parallel() {
        // Sequential version as reference.
        let mut seq = ProgramBuilder::new("seq");
        seq.int_ops(Pc::new(0, 0), 16_000);
        let seq = seq.finish();

        let mut par = ProgramBuilder::new("par");
        par.begin_parallel();
        for _ in 0..4 {
            par.begin_epoch();
            par.int_ops(Pc::new(0, 0), 4000);
            par.end_epoch();
        }
        par.end_parallel();
        let par = par.finish();

        let rs = run_with(cfg(), &seq);
        let rp = run_with(cfg(), &par);
        assert_eq!(rp.committed_epochs, 4);
        assert_eq!(rp.violations.total(), 0);
        let speedup = rp.speedup_vs(&rs);
        assert!(speedup > 3.0, "speedup {speedup}");
    }

    /// Epoch 0 stores late; epoch 1 loads that address mid-way.
    fn raw_program(work: usize, load_at: usize) -> TraceProgram {
        let mut b = ProgramBuilder::new("raw");
        b.begin_parallel();
        b.begin_epoch();
        b.int_ops(Pc::new(1, 0), work);
        b.store(Pc::new(1, 1), Addr(0x8000), 8);
        b.end_epoch();
        b.begin_epoch();
        b.int_ops(Pc::new(2, 0), load_at);
        b.load(Pc::new(2, 1), Addr(0x8000), 8);
        b.int_ops(Pc::new(2, 2), work - load_at);
        b.end_epoch();
        b.end_parallel();
        b.finish()
    }

    #[test]
    fn raw_dependence_is_detected_and_rewound() {
        let p = raw_program(4000, 100);
        let r = run_with(cfg(), &p);
        assert!(r.violations.primary >= 1, "violations: {:?}", r.violations);
        assert!(r.breakdown.failed > 0);
        assert_eq!(r.committed_epochs, 2);
        // The profiler attributes the failure to the right PC pair.
        let top = &r.profile[0];
        assert_eq!(top.store_pc, Some(Pc::new(1, 1)));
        assert_eq!(top.load_pc, Some(Pc::new(2, 1)));
    }

    #[test]
    fn subthreads_reduce_failed_cycles_for_midthread_loads() {
        let p = raw_program(6000, 3000);
        let mut no_sub = cfg();
        no_sub.subthreads = SubThreadConfig::disabled();
        let mut with_sub = cfg();
        with_sub.subthreads = SubThreadConfig {
            contexts: 8,
            spacing: SpacingPolicy::Every(500),
            exhaustion: ExhaustionPolicy::Merge,
        };
        let r0 = run_with(no_sub, &p);
        let r1 = run_with(with_sub, &p);
        assert!(r0.violations.primary >= 1 && r1.violations.primary >= 1);
        assert!(
            r1.breakdown.failed < r0.breakdown.failed,
            "sub-threads should rewind less: {} vs {}",
            r1.breakdown.failed,
            r0.breakdown.failed
        );
        assert!(r1.total_cycles <= r0.total_cycles);
        assert!(r1.subthreads_started > 0);
    }

    #[test]
    fn no_speculation_mode_sees_no_violations() {
        let p = raw_program(4000, 100);
        let mut c = cfg();
        c.track_dependences = false;
        let r = run_with(c, &p);
        assert_eq!(r.violations.total(), 0);
        assert_eq!(r.breakdown.failed, 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let p = raw_program(5000, 2500);
        let a = run_with(cfg(), &p);
        let b = run_with(cfg(), &p);
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.breakdown, b.breakdown);
        assert_eq!(a.violations, b.violations);
    }

    #[test]
    fn latch_contention_stalls() {
        let mut b = ProgramBuilder::new("latch");
        b.begin_parallel();
        for _ in 0..2 {
            b.begin_epoch();
            b.latch_acquire(Pc::new(3, 0), LatchId(7));
            b.int_ops(Pc::new(3, 1), 3000);
            b.latch_release(Pc::new(3, 2), LatchId(7));
            b.end_epoch();
        }
        b.end_parallel();
        let p = b.finish();
        let r = run_with(cfg(), &p);
        assert!(r.breakdown.latch > 1000, "latch stall cycles: {}", r.breakdown.latch);
        assert_eq!(r.latch_acquisitions, 2);
        assert_eq!(r.violations.total(), 0);
    }

    #[test]
    fn start_table_secondary_violations_beat_restart_all() {
        // Epoch 0 stores X at its end. Epochs 1..4 load X immediately,
        // then do long independent work. With RestartAll, every
        // violation of epoch 1 also restarts epochs 2 and 3 from scratch;
        // with the start table they only rewind to the sub-thread they
        // were in when epoch 1's restarted sub-thread began.
        let mut b = ProgramBuilder::new("secondary");
        b.begin_parallel();
        b.begin_epoch();
        b.int_ops(Pc::new(1, 0), 6000);
        b.store(Pc::new(1, 1), Addr(0x9000), 8);
        b.end_epoch();
        b.begin_epoch();
        b.load(Pc::new(2, 0), Addr(0x9000), 8);
        b.int_ops(Pc::new(2, 1), 6000);
        b.end_epoch();
        for i in 0..2u16 {
            b.begin_epoch();
            b.int_ops(Pc::new(3 + i, 0), 6000);
            b.end_epoch();
        }
        b.end_parallel();
        let p = b.finish();

        let mut table = cfg();
        table.secondary = SecondaryPolicy::StartTable;
        table.subthreads = SubThreadConfig {
            contexts: 8,
            spacing: SpacingPolicy::Every(500),
            exhaustion: ExhaustionPolicy::Merge,
        };
        let mut all = table;
        all.secondary = SecondaryPolicy::RestartAll;

        let rt = run_with(table, &p);
        let ra = run_with(all, &p);
        assert!(rt.violations.primary >= 1);
        assert!(
            rt.breakdown.failed <= ra.breakdown.failed,
            "start table should not fail more: {} vs {}",
            rt.breakdown.failed,
            ra.breakdown.failed
        );
        assert!(rt.total_cycles <= ra.total_cycles);
    }

    #[test]
    fn commit_order_follows_epoch_order() {
        // Epoch 1 is much shorter than epoch 0 but must commit second;
        // it accrues Sync time while waiting for the token.
        let mut b = ProgramBuilder::new("token");
        b.begin_parallel();
        b.begin_epoch();
        b.int_ops(Pc::new(0, 0), 8000);
        b.end_epoch();
        b.begin_epoch();
        b.int_ops(Pc::new(0, 1), 100);
        b.end_epoch();
        b.end_parallel();
        let p = b.finish();
        let r = run_with(cfg(), &p);
        assert_eq!(r.committed_epochs, 2);
        assert!(r.breakdown.sync > 1000, "sync cycles: {}", r.breakdown.sync);
    }

    #[test]
    fn region_barrier_orders_regions() {
        // parallel region, then a sequential store, then a parallel load:
        // no violation may cross the barrier.
        let mut b = ProgramBuilder::new("barrier");
        b.begin_parallel();
        b.begin_epoch();
        b.load(Pc::new(0, 0), Addr(0xA000), 8);
        b.int_ops(Pc::new(0, 1), 500);
        b.end_epoch();
        b.end_parallel();
        b.store(Pc::new(0, 2), Addr(0xA000), 8);
        b.begin_parallel();
        b.begin_epoch();
        b.load(Pc::new(0, 3), Addr(0xA000), 8);
        b.end_epoch();
        b.end_parallel();
        let p = b.finish();
        let r = run_with(cfg(), &p);
        assert_eq!(r.violations.total(), 0);
        assert_eq!(r.committed_epochs, 3);
    }

    #[test]
    fn update_propagation_avoids_violations_for_late_loads() {
        // Epoch 0 stores early; epoch 1 loads *late* (after long work).
        // By then the store has propagated to the L2: no violation.
        let mut b = ProgramBuilder::new("propagate");
        b.begin_parallel();
        b.begin_epoch();
        b.store(Pc::new(0, 0), Addr(0xB000), 8);
        b.int_ops(Pc::new(0, 1), 200);
        b.end_epoch();
        b.begin_epoch();
        b.int_ops(Pc::new(0, 2), 5000);
        b.load(Pc::new(0, 3), Addr(0xB000), 8);
        b.end_epoch();
        b.end_parallel();
        let p = b.finish();
        let r = run_with(cfg(), &p);
        assert_eq!(r.violations.primary, 0, "late load should see the propagated value");
    }

    #[test]
    fn dependence_predictor_synchronizes_trained_loads() {
        // Eight epochs all read-modify-write one shared counter at their
        // midpoint: the classic pattern the predictor learns.
        let mut b = ProgramBuilder::new("rmw-chain");
        b.begin_parallel();
        for e in 0..8u16 {
            b.begin_epoch();
            b.int_ops(Pc::new(e, 0), 2000);
            b.load(Pc::new(9, 1), Addr(0xC000), 8); // same PC across epochs
            b.store(Pc::new(9, 2), Addr(0xC000), 8);
            b.int_ops(Pc::new(e, 3), 2000);
            b.end_epoch();
        }
        b.end_parallel();
        let p = b.finish();

        let off = cfg();
        let mut on = off;
        on.predictor = crate::PredictorConfig::aggressive();
        let r_off = run_with(off, &p);
        let r_on = run_with(on, &p);
        assert_eq!(r_off.predictor_synchronizations, 0);
        assert!(r_on.predictor_synchronizations > 0, "trained loads must stall");
        assert!(
            r_on.violations.primary < r_off.violations.primary,
            "synchronization avoids violations: {} vs {}",
            r_on.violations.primary,
            r_off.violations.primary
        );
        assert!(r_on.breakdown.sync > 0);
        // Both terminate and commit everything (no sync deadlock).
        assert_eq!(r_on.committed_epochs, 8);
    }

    /// The RMW-chain collider of the predictor test, parameterised by
    /// the shared address (whose hash picks the value-model class).
    fn rmw_chain(addr: Addr, epochs: u16) -> TraceProgram {
        let mut b = ProgramBuilder::new("rmw-chain");
        b.begin_parallel();
        for e in 0..epochs {
            b.begin_epoch();
            b.int_ops(Pc::new(e, 0), 2000);
            b.load(Pc::new(9, 1), addr, 8); // same PC across epochs
            b.store(Pc::new(9, 2), addr, 8);
            b.int_ops(Pc::new(e, 3), 2000);
            b.end_epoch();
        }
        b.end_parallel();
        b.finish()
    }

    #[test]
    fn value_prediction_suppresses_constant_class_raws() {
        // 0xC000 hashes to the constant value-model class: every commit
        // trains the same value, so once the table warms up the exposed
        // load is predicted, the RAW is suppressed, and validation at
        // commit time always passes.
        let p = rmw_chain(Addr(0xC000), 8);
        let off = cfg();
        let mut on = off;
        on.vpredict = crate::VPredictConfig::prophet();
        let r_off = run_with(off, &p);
        let r_on = run_with(on, &p);
        assert_eq!(r_off.predicted_hits, 0);
        assert_eq!(r_off.value_mispredicts, 0);
        assert!(r_on.predicted_hits > 0, "warm table must suppress RAWs");
        assert_eq!(r_on.value_mispredicts, 0, "constant class never validates wrong");
        assert!(
            r_on.violations.primary < r_off.violations.primary,
            "suppression avoids violations: {} vs {}",
            r_on.violations.primary,
            r_off.violations.primary
        );
        assert_eq!(r_on.committed_epochs, 8);
        assert_eq!(r_off.committed_epochs, 8);
    }

    #[test]
    fn value_misprediction_rewinds_instead_of_committing() {
        // 0xC080 hashes to the noisy class: the value changes with every
        // committed store, so an eager (threshold-1) predictor keeps
        // predicting stale values. Every such suppression must be caught
        // by commit-time validation and converted into a rewind — never
        // a wrong commit.
        let p = rmw_chain(Addr(0xC080), 8);
        let mut on = cfg();
        on.vpredict = crate::VPredictConfig { enabled: true, entries: 1024, threshold: 1 };
        let r = run_with(on, &p);
        assert!(r.value_mispredicts > 0, "noisy class must mispredict");
        assert_eq!(r.committed_epochs, 8, "mispredicts rewind, not wedge");
        assert!(r.audit_failures.is_empty(), "{:?}", r.audit_failures);
        assert!(r.protocol_errors.is_empty(), "{:?}", r.protocol_errors);
    }

    #[test]
    fn disabled_value_predictor_changes_nothing() {
        // Table geometry must not leak into timing when the predictor is
        // off: a disabled config with exotic sizing produces the same
        // report as the default, byte for byte.
        let p = rmw_chain(Addr(0xC000), 8);
        let mut exotic = cfg();
        exotic.vpredict = crate::VPredictConfig { enabled: false, entries: 8192, threshold: 3 };
        let r_default = run_with(cfg(), &p);
        let r_exotic = run_with(exotic, &p);
        assert_eq!(
            serde_json::to_string(&r_default).unwrap(),
            serde_json::to_string(&r_exotic).unwrap()
        );
        assert_eq!(r_default.predicted_hits, 0);
        assert_eq!(r_default.value_mispredicts, 0);
    }

    #[test]
    fn context_merging_keeps_checkpoints_recent() {
        // One long epoch (20k ops) with tiny spacing exhausts 4 contexts
        // almost immediately; with merging, a late violation still
        // rewinds only a short distance.
        let mut b = ProgramBuilder::new("merge");
        b.begin_parallel();
        b.begin_epoch();
        b.int_ops(Pc::new(0, 0), 20_000);
        b.store(Pc::new(0, 1), Addr(0xD000), 8);
        b.end_epoch();
        b.begin_epoch();
        b.load(Pc::new(1, 0), Addr(0xD000), 8); // early load: unavoidable
        b.int_ops(Pc::new(1, 1), 19_000);
        b.load(Pc::new(1, 2), Addr(0xD040), 8); // late load
        b.int_ops(Pc::new(1, 3), 1000);
        b.end_epoch();
        b.begin_epoch();
        b.int_ops(Pc::new(2, 0), 19_500);
        b.store(Pc::new(2, 1), Addr(0xD040), 8);
        b.end_epoch();
        b.end_parallel();
        let p = b.finish();

        let mut merge = cfg();
        merge.subthreads = SubThreadConfig {
            contexts: 4,
            spacing: SpacingPolicy::Every(500),
            exhaustion: ExhaustionPolicy::Merge,
        };
        let mut stop = merge;
        stop.subthreads.exhaustion = ExhaustionPolicy::Stop;
        let r_merge = run_with(merge, &p);
        let r_stop = run_with(stop, &p);
        assert!(r_merge.subthread_merges > 0);
        assert_eq!(r_stop.subthread_merges, 0);
        // Note: epoch 1's late load (from epoch 2... epoch 2 is LATER, so
        // it cannot violate epoch 1; the early load from epoch 0 does).
        // What merging must preserve is correctness: everything commits
        // and the accounting identity holds under heavy recycling.
        assert_eq!(r_merge.committed_epochs, 3);
        assert_eq!(r_merge.breakdown.total(), r_merge.total_cycles * 4);
    }

    #[test]
    fn speculative_overflow_violates_and_recovers() {
        // No victim cache, and a speculative thread that writes more
        // same-set lines than the L2's associativity can hold: its state
        // must overflow, the thread restart, and the run still complete.
        let mut b = ProgramBuilder::new("overflow");
        b.begin_parallel();
        b.begin_epoch();
        b.int_ops(Pc::new(0, 0), 30_000); // keep the writer speculative
        b.end_epoch();
        b.begin_epoch();
        // 16KB 4-way 32B L2 = 128 sets; stride 4096 maps to one set.
        for i in 0..8u64 {
            b.store(Pc::new(1, 1), Addr(0x4_0000 + i * 4096), 8);
            b.int_ops(Pc::new(1, 2), 50);
        }
        b.int_ops(Pc::new(1, 3), 1000);
        b.end_epoch();
        b.end_parallel();
        let p = b.finish();
        let mut c = cfg();
        c.victim_entries = 0;
        let r = run_with(c, &p);
        assert!(r.violations.overflow >= 1, "violations: {:?}", r.violations);
        assert_eq!(r.committed_epochs, 2);
    }

    #[test]
    fn victim_cache_absorbs_the_same_overflow() {
        let mut b = ProgramBuilder::new("absorbed");
        b.begin_parallel();
        b.begin_epoch();
        b.int_ops(Pc::new(0, 0), 30_000);
        b.end_epoch();
        b.begin_epoch();
        for i in 0..8u64 {
            b.store(Pc::new(1, 1), Addr(0x4_0000 + i * 4096), 8);
            b.int_ops(Pc::new(1, 2), 50);
        }
        b.int_ops(Pc::new(1, 3), 1000);
        b.end_epoch();
        b.end_parallel();
        let p = b.finish();
        let mut c = cfg();
        c.victim_entries = 64;
        let r = run_with(c, &p);
        assert_eq!(r.violations.overflow, 0, "the victim cache must absorb the spill");
    }

    #[test]
    fn exposed_table_conflicts_degrade_profile_to_unknown_pcs() {
        // A 1-entry exposed-load table: the second exposed load evicts
        // the first, so the violation's load PC is unattributable —
        // exactly the "moderate-sized direct-mapped table" trade-off of
        // §3.1. The violation itself is still detected.
        let mut b = ProgramBuilder::new("conflict");
        b.begin_parallel();
        b.begin_epoch();
        b.int_ops(Pc::new(1, 0), 4000);
        b.store(Pc::new(1, 1), Addr(0x8000), 8);
        b.end_epoch();
        b.begin_epoch();
        b.load(Pc::new(2, 1), Addr(0x8000), 8);
        b.load(Pc::new(2, 2), Addr(0x8000 + 32 * 256), 8); // conflicting table slot
        b.int_ops(Pc::new(2, 3), 4000);
        b.end_epoch();
        b.end_parallel();
        let p = b.finish();
        let mut c = cfg();
        c.exposed_load_entries = 1;
        let r = run_with(c, &p);
        assert!(r.violations.primary >= 1);
        let top = &r.profile[0];
        assert_eq!(top.load_pc, None, "conflicting table entry must be evicted");
        assert_eq!(top.store_pc, Some(Pc::new(1, 1)));
    }

    #[test]
    fn eight_cpu_machine_runs_wide_programs() {
        let mut b = ProgramBuilder::new("wide");
        b.begin_parallel();
        for t in 0..16u16 {
            b.begin_epoch();
            b.int_ops(Pc::new(t, 0), 2000);
            b.store(Pc::new(t, 1), Addr(0x9_0000 + 64 * t as u64), 8);
            b.end_epoch();
        }
        b.end_parallel();
        let p = b.finish();
        let mut c = cfg();
        c.cpus = 8;
        let r = run_with(c, &p);
        assert_eq!(r.committed_epochs, 16);
        assert_eq!(r.breakdown.total(), r.total_cycles * 8);
        // A 4-CPU run of the same program takes longer.
        let r4 = run_with(cfg(), &p);
        assert!(r4.total_cycles > r.total_cycles);
    }

    #[test]
    fn wasted_work_is_measured() {
        let p = raw_program(4000, 100);
        let r = run_with(cfg(), &p);
        assert!(r.dispatched_ops > r.program_ops);
        assert!(r.wasted_work_ratio() > 0.0);
    }

    // --- chaos harness ---

    use crate::chaos::{FaultClass, FaultPlan};

    /// Runs with a fault plan, audits and oracle on, panicking on any
    /// invariant breakage — chaos tests fail loudly.
    fn run_chaos(config: CmpConfig, p: &TraceProgram, plan: FaultPlan) -> SimReport {
        CmpSimulator::new(config)
            .run_with(p, RunOptions { plan: Some(plan), ..RunOptions::default() })
    }

    /// Four independent epochs: no genuine dependences, so any recovery
    /// activity observed under chaos is the harness's doing.
    fn independent_program() -> TraceProgram {
        let mut b = ProgramBuilder::new("independent");
        b.begin_parallel();
        for t in 0..4u16 {
            b.begin_epoch();
            b.int_ops(Pc::new(t, 0), 4000);
            b.store(Pc::new(t, 1), Addr(0xE000 + 64 * t as u64), 8);
            b.end_epoch();
        }
        b.end_parallel();
        b.finish()
    }

    #[test]
    fn spurious_primary_rewinds_without_counting_as_raw() {
        let p = independent_program();
        let r = run_chaos(cfg(), &p, FaultPlan::single(FaultClass::SpuriousPrimary, 300, 0));
        assert_eq!(r.faults.spurious_primary, 1);
        assert_eq!(r.violations.primary, 0, "injected violations are not RAW statistics");
        assert!(r.breakdown.failed > 0, "the rewind must discard real work");
        assert_eq!(r.committed_epochs, 4);
        assert!(r.audit_failures.is_empty());
    }

    #[test]
    fn spurious_secondary_restarts_the_youngest_epoch() {
        let p = independent_program();
        let r = run_chaos(cfg(), &p, FaultPlan::single(FaultClass::SpuriousSecondary, 300, 0));
        assert_eq!(r.faults.spurious_secondary, 1);
        assert!(r.breakdown.failed > 0);
        assert_eq!(r.committed_epochs, 4);
    }

    #[test]
    fn forced_merge_recycles_a_live_context() {
        let p = independent_program();
        let r = run_chaos(cfg(), &p, FaultPlan::single(FaultClass::ForcedMerge, 1000, 0));
        assert_eq!(r.faults.forced_merge, 1);
        assert!(r.subthread_merges >= 1);
        assert_eq!(r.committed_epochs, 4);
    }

    #[test]
    fn delayed_token_stalls_commit_but_not_correctness() {
        let p = independent_program();
        let base = run_with(cfg(), &p);
        let r = run_chaos(cfg(), &p, FaultPlan::single(FaultClass::DelayedToken, 10, 3000));
        assert_eq!(r.faults.delayed_token, 1);
        assert!(r.total_cycles >= 3010, "token withheld until cycle 3010: {}", r.total_cycles);
        assert!(r.total_cycles > base.total_cycles);
        assert!(r.breakdown.sync > base.breakdown.sync, "finished epochs wait on the token");
        assert_eq!(r.committed_epochs, 4);
    }

    #[test]
    fn victim_squeeze_forces_the_overflow_path() {
        // Same spill pattern the 64-entry victim cache absorbs cleanly;
        // squeezing it mid-run must surface overflow violations and the
        // machine must still finish correctly once capacity returns.
        let mut b = ProgramBuilder::new("squeezed");
        b.begin_parallel();
        b.begin_epoch();
        b.int_ops(Pc::new(0, 0), 30_000);
        b.end_epoch();
        b.begin_epoch();
        for i in 0..8u64 {
            b.store(Pc::new(1, 1), Addr(0x4_0000 + i * 4096), 8);
            b.int_ops(Pc::new(1, 2), 50);
        }
        b.int_ops(Pc::new(1, 3), 1000);
        b.end_epoch();
        b.end_parallel();
        let p = b.finish();
        let mut c = cfg();
        c.victim_entries = 64;
        let clean = run_with(c, &p);
        assert_eq!(clean.violations.overflow, 0);
        let r = run_chaos(c, &p, FaultPlan::single(FaultClass::VictimSqueeze, 2000, 400));
        assert_eq!(r.faults.victim_squeeze, 1);
        assert!(r.violations.overflow >= 1, "violations: {:?}", r.violations);
        assert_eq!(r.committed_epochs, 2);
    }

    #[test]
    fn latch_hazard_is_absorbed_as_a_protocol_error() {
        let mut b = ProgramBuilder::new("hazard");
        b.begin_parallel();
        for _ in 0..2 {
            b.begin_epoch();
            b.latch_acquire(Pc::new(3, 0), LatchId(7));
            b.int_ops(Pc::new(3, 1), 3000);
            b.latch_release(Pc::new(3, 2), LatchId(7));
            b.end_epoch();
        }
        b.end_parallel();
        let p = b.finish();
        let r = run_chaos(cfg(), &p, FaultPlan::single(FaultClass::LatchHazard, 500, 0));
        assert_eq!(r.faults.latch_hazard, 1);
        assert!(r.faults.protocol_errors >= 1, "the orphaned release must surface");
        assert!(!r.protocol_errors.is_empty());
        assert!(r.protocol_errors[0].message.contains("latch"));
        assert_eq!(r.committed_epochs, 2, "the machine keeps running");
    }

    #[test]
    fn faults_with_no_target_are_skipped() {
        // A sequential program has no speculative epoch to injure.
        let mut b = ProgramBuilder::new("seq-chaos");
        b.int_ops(Pc::new(0, 0), 2000);
        let p = b.finish();
        let r = run_chaos(cfg(), &p, FaultPlan::single(FaultClass::SpuriousPrimary, 100, 0));
        assert_eq!(r.faults.applied(), 0);
        assert_eq!(r.faults.skipped, 1);
        assert_eq!(r.committed_epochs, 1);
    }

    #[test]
    fn seeded_plans_replay_identically() {
        let p = independent_program();
        let plan = FaultPlan::generate(42, &crate::chaos::ALL_FAULT_CLASSES, 3000, 6);
        let a = run_chaos(cfg(), &p, plan.clone());
        let b = run_chaos(cfg(), &p, plan);
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.breakdown, b.breakdown);
        assert_eq!(a.faults, b.faults);
    }

    // --- TSO memory model ---

    use crate::config::MemoryModel;

    fn tso_cfg(buffer_entries: usize) -> CmpConfig {
        let mut c = cfg();
        c.memory_model = MemoryModel::Tso { buffer_entries };
        c
    }

    /// Four independent epochs that keep their store buffers busy: a
    /// store every few ops, all to per-epoch lines.
    fn store_heavy_program() -> TraceProgram {
        let mut b = ProgramBuilder::new("store-heavy");
        b.begin_parallel();
        for t in 0..4u16 {
            b.begin_epoch();
            for i in 0..64u64 {
                b.int_ops(Pc::new(t, 0), 40);
                b.store(Pc::new(t, 1), Addr(0xE000 + 0x1000 * t as u64 + 8 * i), 8);
            }
            b.end_epoch();
        }
        b.end_parallel();
        b.finish()
    }

    #[test]
    fn sc_reports_no_tso_activity() {
        let r = run_with(cfg(), &store_heavy_program());
        assert_eq!(r.buffered_stores, 0);
        assert_eq!(r.forwarded_loads, 0);
        assert_eq!(r.store_drains, 0);
        assert_eq!(r.serializability_breaches, 0);
        assert_eq!(r.breakdown.drain_stall, 0);
    }

    #[test]
    fn tso_buffers_and_drains_every_store() {
        // Debug `run()` arms the invariant auditor and the sequential
        // oracle, so passing proves TSO commits the same logical state.
        let r = run_with(tso_cfg(4), &store_heavy_program());
        assert_eq!(r.committed_epochs, 4);
        assert_eq!(r.buffered_stores, 4 * 64);
        assert_eq!(r.store_drains, r.buffered_stores, "no rewinds: every store drains");
        assert!(r.breakdown.drain_stall > 0, "a 4-entry buffer must backpressure 64 stores");
        assert_eq!(r.serializability_breaches, 0);
        assert!(r.protocol_errors.is_empty(), "{:?}", r.protocol_errors);
    }

    #[test]
    fn tso_detects_raw_dependences_at_drain_time() {
        // The same cross-epoch RAW as the SC test: the store becomes
        // visible only when it drains, and the violation must still be
        // detected, attributed, and recovered through sub-threads.
        let p = raw_program(4000, 100);
        let r = run_with(tso_cfg(4), &p);
        assert!(r.violations.primary >= 1, "violations: {:?}", r.violations);
        assert_eq!(r.committed_epochs, 2);
        let top = &r.profile[0];
        assert_eq!(top.store_pc, Some(Pc::new(1, 1)));
        assert_eq!(top.load_pc, Some(Pc::new(2, 1)));
    }

    #[test]
    fn tso_forwards_same_address_loads_from_the_buffer() {
        let mut b = ProgramBuilder::new("forward");
        b.begin_parallel();
        b.begin_epoch();
        b.int_ops(Pc::new(0, 0), 100);
        b.store(Pc::new(0, 1), Addr(0xF000), 8);
        b.load(Pc::new(0, 2), Addr(0xF000), 8);
        b.int_ops(Pc::new(0, 3), 100);
        b.end_epoch();
        b.end_parallel();
        let p = b.finish();
        let r = run_with(tso_cfg(4), &p);
        assert!(r.forwarded_loads >= 1, "the buffered store must forward");
        assert_eq!(r.committed_epochs, 1);
    }

    #[test]
    fn tso_drains_before_latch_acquisition() {
        let mut b = ProgramBuilder::new("latch-order");
        b.begin_parallel();
        for t in 0..2u16 {
            b.begin_epoch();
            // The stores sit buffered through the int_ops (a busy CPU
            // does not drain), so the acquire meets a 16-deep backlog
            // that outlasts the pipeline: pure drain-stall cycles.
            for i in 0..16u64 {
                b.store(Pc::new(t, 0), Addr(0xE800 + 0x400 * t as u64 + 8 * i), 8);
            }
            b.int_ops(Pc::new(t, 1), 50);
            b.latch_acquire(Pc::new(t, 2), LatchId(3));
            b.int_ops(Pc::new(t, 3), 500);
            b.latch_release(Pc::new(t, 4), LatchId(3));
            b.end_epoch();
        }
        b.end_parallel();
        let p = b.finish();
        let r = run_with(tso_cfg(32), &p);
        assert!(r.breakdown.drain_stall > 0, "the acquire must wait for the drain");
        assert_eq!(r.committed_epochs, 2);
        assert_eq!(r.latch_acquisitions, 2);
    }

    #[test]
    fn tso_run_is_deterministic() {
        let p = store_heavy_program();
        let a = run_with(tso_cfg(4), &p);
        let b = run_with(tso_cfg(4), &p);
        assert_eq!(serde_json::to_string(&a).unwrap(), serde_json::to_string(&b).unwrap());
    }

    #[test]
    fn stuck_drain_is_survived() {
        let p = store_heavy_program();
        let r = run_chaos(tso_cfg(4), &p, FaultPlan::single(FaultClass::StuckDrain, 300, 400));
        assert_eq!(r.faults.stuck_drain, 1, "a busy buffer must be found at cycle 300");
        assert_eq!(r.committed_epochs, 4);
        assert_eq!(r.serializability_breaches, 0);
        assert!(r.protocol_errors.is_empty(), "{:?}", r.protocol_errors);
    }

    #[test]
    fn reordered_drain_is_survived() {
        // Speculative L2 state is keyed by (epoch, sub-thread), not by
        // drain arrival, so an out-of-order drain of two independent
        // stores commits the same logical state — proven by the oracle.
        let p = store_heavy_program();
        let r = run_chaos(tso_cfg(4), &p, FaultPlan::single(FaultClass::ReorderedDrain, 300, 400));
        assert_eq!(r.faults.reordered_drain, 1);
        assert_eq!(r.committed_epochs, 4);
        assert_eq!(r.serializability_breaches, 0);
        assert!(r.protocol_errors.is_empty(), "{:?}", r.protocol_errors);
    }

    #[test]
    fn dropped_entry_is_detected_not_survived() {
        // The store is silently lost from the buffer; the commit-time
        // store-flow audit must report it as a structured protocol
        // error (never a panic) while the machine keeps running.
        let p = store_heavy_program();
        let r = run_chaos(tso_cfg(4), &p, FaultPlan::single(FaultClass::DroppedEntry, 300, 400));
        assert_eq!(r.faults.dropped_entry, 1);
        assert!(r.serializability_breaches >= 1, "the lost store must be detected");
        assert!(
            r.protocol_errors.iter().any(|e| e.message.contains("store-flow")),
            "{:?}",
            r.protocol_errors
        );
        assert_eq!(r.committed_epochs, 4, "detection is evidence, not a crash");
    }

    #[test]
    fn store_buffer_faults_are_skipped_on_sc() {
        let p = store_heavy_program();
        for class in crate::chaos::STORE_BUFFER_FAULT_CLASSES {
            let r = run_chaos(cfg(), &p, FaultPlan::single(class, 300, 400));
            assert_eq!(r.faults.applied(), 0, "{class}: no SC machine has a store buffer");
            assert_eq!(r.faults.skipped, 1);
            assert_eq!(r.serializability_breaches, 0);
        }
    }

    #[test]
    fn sabotaged_rewind_is_caught_by_the_auditor() {
        // Break the recovery path on purpose: skip the speculative-L2
        // cleanup during rewind. The invariant auditor — not a downstream
        // assert — must report the residue immediately after the rewind.
        let p = raw_program(4000, 100);
        let r = CmpSimulator::new(cfg()).run_with(
            &p,
            RunOptions {
                sabotage_rewind: true,
                panic_on_audit_failure: false,
                ..RunOptions::default()
            },
        );
        assert!(
            r.audit_failures.iter().any(|f| f.contains("post-rewind")),
            "auditor must flag the sabotage: {:?}",
            r.audit_failures
        );
    }
}
