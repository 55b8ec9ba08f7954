//! Deterministic chaos harness: seeded fault plans for the TLS protocol.
//!
//! A [`FaultPlan`] is a seeded, reproducible schedule of protocol-level
//! perturbations — spurious violations, victim-cache squeezes, forced
//! sub-thread merges, a delayed homefree token, latch hazards — that the
//! simulator applies at exact cycle points. Because the whole machine is
//! deterministic, a (program, config, plan) triple replays bit-for-bit,
//! which is what lets the differential oracle and the invariant auditor
//! turn "the protocol survived" into a checkable property rather than a
//! hope. See `DESIGN.md` §7 for the fault model and the invariants each
//! class is meant to stress.
//!
//! `Chaos` is the simulator's chaos component.

use crate::accounting::FaultStats;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The classes of protocol-level faults the harness can inject.
///
/// Each class exercises one recovery path of the sub-threaded TLS
/// protocol; none of them models a data error — faults perturb *when*
/// the protocol machinery runs, never *what* the program computes, so
/// the sequential oracle must still match afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultClass {
    /// A spurious primary (RAW-like) violation against the oldest
    /// speculative epoch, rewinding it to its newest checkpoint and
    /// cascading secondary violations through the start tables.
    SpuriousPrimary,
    /// A spurious violation against the youngest speculative epoch at
    /// sub-thread 0 — a full epoch restart, the pre-sub-thread penalty.
    SpuriousSecondary,
    /// The victim cache is squeezed to capacity zero for the fault's
    /// duration, forcing displaced speculative versions through the
    /// L2 overflow path.
    VictimSqueeze,
    /// One sub-thread context of a running speculative epoch is merged
    /// away, as if the context supply had been exhausted early.
    ForcedMerge,
    /// The homefree token is withheld for the fault's duration: no
    /// epoch may commit until the token is released again.
    DelayedToken,
    /// A held latch is forcibly released out from under its owner; the
    /// owner's own release must then surface as a recoverable
    /// [`crate::report::ProtocolError`], not a crash.
    LatchHazard,
    /// One CPU's TSO store buffer refuses to drain for the fault's
    /// duration: drain points stall (as DrainStall cycles) until the
    /// window closes. Requires [`crate::MemoryModel::Tso`] and a
    /// non-empty buffer; must be *survived* — timing changes, the
    /// committed state does not.
    StuckDrain,
    /// The two oldest entries of one CPU's store buffer are swapped, so
    /// the next drains apply them out of program order. The versioned
    /// L2 keys speculative state by epoch, not arrival time, so this
    /// too must be *survived*.
    ReorderedDrain,
    /// The oldest entry of one CPU's store buffer is silently discarded
    /// — the store never reaches the memory system. The
    /// serializability auditor's store-flow invariant must *detect*
    /// this as a structured protocol error at the next commit or
    /// rewind; surviving it silently is the failure mode this class
    /// exists to preclude.
    DroppedEntry,
}

/// Every fault class, in a fixed order (stable across runs and useful
/// for sweeps and report tables).
pub const ALL_FAULT_CLASSES: [FaultClass; 9] = [
    FaultClass::SpuriousPrimary,
    FaultClass::SpuriousSecondary,
    FaultClass::VictimSqueeze,
    FaultClass::ForcedMerge,
    FaultClass::DelayedToken,
    FaultClass::LatchHazard,
    FaultClass::StuckDrain,
    FaultClass::ReorderedDrain,
    FaultClass::DroppedEntry,
];

/// The store-buffer fault classes (the PR 10 additions), in matrix
/// order: the first two are survivable, the third must be detected.
pub const STORE_BUFFER_FAULT_CLASSES: [FaultClass; 3] =
    [FaultClass::StuckDrain, FaultClass::ReorderedDrain, FaultClass::DroppedEntry];

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            FaultClass::SpuriousPrimary => "spurious-primary",
            FaultClass::SpuriousSecondary => "spurious-secondary",
            FaultClass::VictimSqueeze => "victim-squeeze",
            FaultClass::ForcedMerge => "forced-merge",
            FaultClass::DelayedToken => "delayed-token",
            FaultClass::LatchHazard => "latch-hazard",
            FaultClass::StuckDrain => "stuck-drain",
            FaultClass::ReorderedDrain => "reordered-drain",
            FaultClass::DroppedEntry => "dropped-entry",
        };
        f.write_str(name)
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Cycle at which the fault fires (start of the cycle, before any
    /// CPU executes).
    pub at_cycle: u64,
    /// What kind of perturbation to apply.
    pub class: FaultClass,
    /// How long the perturbation lasts, for the classes with an extent
    /// ([`FaultClass::VictimSqueeze`], [`FaultClass::DelayedToken`]).
    /// For instantaneous classes this is instead the *arming window*:
    /// the fault stays pending for this many cycles past `at_cycle`,
    /// firing at the first cycle with an eligible target, and is skipped
    /// only if the window closes without one.
    pub duration: u64,
}

/// A seeded, reproducible schedule of faults.
///
/// Plans are data: they serialize, compare, and replay. The same seed,
/// class set, horizon and count always generate the same plan.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The seed the plan was generated from (0 for hand-built plans).
    pub seed: u64,
    /// Scheduled faults, sorted by [`FaultEvent::at_cycle`].
    pub events: Vec<FaultEvent>,
}

/// SplitMix64 step: the plan generator's own tiny RNG, kept inline so
/// `tls-core` needs no runtime RNG dependency and plans stay stable no
/// matter what the workspace's `rand` resolves to.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// Generates a plan of `count` faults drawn from `classes`, spread
    /// over cycles `1..horizon`, with durations of roughly 100-500
    /// cycles for the classes that have one. The target-seeking
    /// store-buffer saboteurs ([`FaultClass::ReorderedDrain`] and
    /// [`FaultClass::DroppedEntry`]) instead stay armed to the end of
    /// the horizon: on store-sparse programs a narrow window would skip
    /// most of the time, and a drop that never fires detects nothing.
    ///
    /// Panics if `classes` is empty.
    pub fn generate(seed: u64, classes: &[FaultClass], horizon: u64, count: usize) -> FaultPlan {
        assert!(!classes.is_empty(), "fault plan needs at least one class");
        let horizon = horizon.max(2);
        let mut state = seed ^ 0xC4A0_5D1E_C4A0_5D1E;
        // Warm the stream so nearby seeds diverge immediately.
        let _ = splitmix64(&mut state);
        let mut events: Vec<FaultEvent> = (0..count)
            .map(|_| {
                let class = classes[(splitmix64(&mut state) % classes.len() as u64) as usize];
                let at_cycle = 1 + splitmix64(&mut state) % (horizon - 1);
                // Always draw, so the stream stays identical for plans
                // that never pick a target-seeking class.
                let drawn = 100 + splitmix64(&mut state) % 400;
                let duration = match class {
                    FaultClass::ReorderedDrain | FaultClass::DroppedEntry => horizon,
                    _ => drawn,
                };
                FaultEvent { at_cycle, class, duration }
            })
            .collect();
        events.sort_by_key(|e| e.at_cycle);
        FaultPlan { seed, events }
    }

    /// A plan with a single fault — handy for targeted tests.
    pub fn single(class: FaultClass, at_cycle: u64, duration: u64) -> FaultPlan {
        FaultPlan { seed: 0, events: vec![FaultEvent { at_cycle, class, duration }] }
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// The classes of storage-level faults the disk chaos harness injects.
///
/// Unlike [`FaultClass`], these *do* corrupt data — they model the
/// failure modes of a physical disk under power loss — so the recovery
/// path (checksum detection plus WAL REDO) is what restores the "the
/// sequential oracle must still match" guarantee after a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DiskFaultClass {
    /// A page write is torn at an arbitrary byte boundary: the prefix of
    /// the new envelope lands, the suffix keeps the old on-disk bytes.
    /// The page checksum must reject every such mix.
    TornWrite,
    /// A page write is silently dropped: the old envelope stays on disk,
    /// checksum-valid but stale. REDO must roll it forward from its
    /// page LSN.
    LostWrite,
    /// One bit of the written envelope flips. The page checksum must
    /// detect it.
    BitFlip,
}

/// Every disk fault class, in a fixed order.
pub const ALL_DISK_FAULT_CLASSES: [DiskFaultClass; 3] =
    [DiskFaultClass::TornWrite, DiskFaultClass::LostWrite, DiskFaultClass::BitFlip];

impl fmt::Display for DiskFaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            DiskFaultClass::TornWrite => "torn-write",
            DiskFaultClass::LostWrite => "lost-write",
            DiskFaultClass::BitFlip => "bit-flip",
        };
        f.write_str(name)
    }
}

/// One scheduled disk fault, addressed by *write index*: the Nth page
/// write the pager issues after its initial checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiskFaultEvent {
    /// Zero-based index of the disk write this fault corrupts.
    pub at_write: u64,
    /// What kind of corruption to apply.
    pub class: DiskFaultClass,
    /// Class-specific argument: the tear's byte boundary within the
    /// envelope ([`DiskFaultClass::TornWrite`]) or the bit index to flip
    /// ([`DiskFaultClass::BitFlip`]); unused for lost writes. Consumers
    /// reduce it modulo the envelope size, so any `u64` is valid.
    pub arg: u64,
}

/// A seeded, reproducible schedule of disk faults.
///
/// Same contract as [`FaultPlan`]: plans are data, and the same seed,
/// class set, horizon and count always generate the same plan.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DiskFaultPlan {
    /// The seed the plan was generated from (0 for hand-built plans).
    pub seed: u64,
    /// Scheduled faults, sorted by [`DiskFaultEvent::at_write`], at most
    /// one per write index.
    pub events: Vec<DiskFaultEvent>,
}

impl DiskFaultPlan {
    /// Generates a plan of up to `count` faults drawn from `classes`,
    /// spread over write indices `0..horizon` (duplicate indices are
    /// dropped, so dense plans may come out slightly short).
    ///
    /// Panics if `classes` is empty.
    pub fn generate(
        seed: u64,
        classes: &[DiskFaultClass],
        horizon: u64,
        count: usize,
    ) -> DiskFaultPlan {
        assert!(!classes.is_empty(), "disk fault plan needs at least one class");
        let horizon = horizon.max(1);
        let mut state = seed ^ 0xD15C_FA17_D15C_FA17;
        let _ = splitmix64(&mut state);
        let mut events: Vec<DiskFaultEvent> = (0..count)
            .map(|_| {
                let class = classes[(splitmix64(&mut state) % classes.len() as u64) as usize];
                let at_write = splitmix64(&mut state) % horizon;
                let arg = splitmix64(&mut state);
                DiskFaultEvent { at_write, class, arg }
            })
            .collect();
        events.sort_by_key(|e| e.at_write);
        events.dedup_by_key(|e| e.at_write);
        DiskFaultPlan { seed, events }
    }

    /// A plan with a single fault — handy for targeted tests.
    pub fn single(class: DiskFaultClass, at_write: u64, arg: u64) -> DiskFaultPlan {
        DiskFaultPlan { seed: 0, events: vec![DiskFaultEvent { at_write, class, arg }] }
    }

    /// The fault scheduled for write index `idx`, if any.
    pub fn for_write(&self, idx: u64) -> Option<DiskFaultEvent> {
        self.events.binary_search_by_key(&idx, |e| e.at_write).ok().map(|i| self.events[i])
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Cursor over a plan's events during one run.
///
/// The simulator drains due events at the top of each cycle; the
/// injector just tracks how far into the (sorted) schedule the run has
/// advanced.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    events: Vec<FaultEvent>,
    next: usize,
}

impl FaultInjector {
    /// Builds an injector over `plan` (events re-sorted defensively so
    /// hand-built plans behave like generated ones).
    pub fn new(plan: &FaultPlan) -> FaultInjector {
        let mut events = plan.events.clone();
        events.sort_by_key(|e| e.at_cycle);
        FaultInjector { events, next: 0 }
    }

    /// Returns every event scheduled at or before `cycle` that has not
    /// fired yet.
    pub fn due(&mut self, cycle: u64) -> Vec<FaultEvent> {
        let start = self.next;
        while self.next < self.events.len() && self.events[self.next].at_cycle <= cycle {
            self.next += 1;
        }
        self.events[start..self.next].to_vec()
    }

    /// True once every scheduled event has fired.
    pub fn exhausted(&self) -> bool {
        self.next >= self.events.len()
    }

    /// Events that have not come due yet (a run ending early never
    /// delivers them; they count as skipped).
    pub fn remaining(&self) -> usize {
        self.events.len() - self.next
    }

    /// Cycle of the next scheduled event, if any — the injector's
    /// wake-up candidate for an event-driven caller.
    pub fn next_due(&self) -> Option<u64> {
        self.events.get(self.next).map(|e| e.at_cycle)
    }
}

/// Options for [`crate::CmpSimulator::run_with`]: which fault plan to
/// apply and how strictly to check the run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Faults to inject, if any.
    pub plan: Option<FaultPlan>,
    /// Run the invariant auditor after every rewind and commit.
    pub audit: bool,
    /// Track committed stores and compare the final memory image
    /// against a sequential replay of the program.
    pub oracle: bool,
    /// Panic on the first audit failure (the default: tests fail loud).
    /// When false the run aborts cleanly and failures are reported in
    /// [`crate::report::SimReport::audit_failures`].
    pub panic_on_audit_failure: bool,
    /// Test-only sabotage: skip the speculative-L2 cleanup on rewind,
    /// to prove the auditor catches a broken recovery path.
    pub sabotage_rewind: bool,
    /// Skip runs of provably event-free cycles instead of stepping
    /// through them one by one. Cycle-exact — every report field is
    /// identical either way (see `tests/fastforward_equivalence.rs`) —
    /// so this is on by default; the switch exists for that equivalence
    /// test and for debugging.
    pub fast_forward: bool,
    /// Forward-progress watchdog threshold: an epoch that rewinds this
    /// many consecutive times without *any* epoch committing in between
    /// is flagged as a violation storm and recorded in
    /// [`crate::report::SimReport::livelocks`]. Detection is passive —
    /// it never changes timing — and `0` disables it entirely.
    pub livelock_threshold: u64,
    /// When a storm is flagged, degrade the storming epoch to serial
    /// execution: it stalls (as Sync) until it holds the homefree token
    /// and then runs non-speculatively, which forecloses further
    /// violations — the way a real TLS runtime would bound retries.
    /// Off by default because it *does* change timing.
    pub progress_fallback: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            plan: None,
            audit: true,
            oracle: true,
            panic_on_audit_failure: true,
            sabotage_rewind: false,
            fast_forward: true,
            livelock_threshold: 64,
            progress_fallback: false,
        }
    }
}

impl RunOptions {
    /// Options for a chaos sweep: faults in, audits and oracle on, and
    /// failures collected in the report instead of panicking.
    pub fn chaos(plan: FaultPlan) -> RunOptions {
        RunOptions { plan: Some(plan), panic_on_audit_failure: false, ..RunOptions::default() }
    }

    /// The options [`crate::CmpSimulator::run`] uses: the invariant
    /// auditor and the differential oracle are on in debug builds and
    /// **off in release builds**, so the optimized hot path performs no
    /// auditing work (asserted by `release_defaults_do_no_auditing`).
    pub fn checked_default() -> RunOptions {
        let checked = cfg!(debug_assertions);
        RunOptions { audit: checked, oracle: checked, ..RunOptions::default() }
    }
}

/// The chaos harness on the machine: the injector, the faults in flight
/// and their ledger. The machine applies each fault to its own state;
/// this component decides when, and remembers what is still in effect.
#[derive(Debug, Default)]
pub(crate) struct Chaos {
    injector: FaultInjector,
    /// Due events still waiting for an eligible target; each stays armed
    /// until its window (`at_cycle + duration`) closes, then is skipped.
    armed: Vec<FaultEvent>,
    stats: FaultStats,
    /// The homefree token is withheld until this cycle (delayed-token
    /// fault).
    token_until: u64,
    /// Restore the victim cache to this capacity at this cycle
    /// (victim-squeeze fault).
    victim_restore: Option<(u64, usize)>,
    /// A latch hazard was injected, so latch-consistency audits and the
    /// unexpected-release check are suspended for the rest of the run.
    pub(crate) latch_hazard: bool,
    /// Test-only sabotage: rewinds skip washing the L2.
    pub(crate) sabotage_rewind: bool,
}

impl Chaos {
    pub(crate) fn new(opts: &RunOptions) -> Chaos {
        Chaos {
            injector: opts.plan.as_ref().map(FaultInjector::new).unwrap_or_default(),
            sabotage_rewind: opts.sabotage_rewind,
            ..Chaos::default()
        }
    }

    /// Step hook (cycle start), first half: the victim-cache capacity to
    /// restore now that a squeeze window closed, if one did.
    #[inline]
    pub(crate) fn victim_restore_due(&mut self, now: u64) -> Option<usize> {
        let (_, cap) = self.victim_restore.filter(|&(at, _)| now >= at)?;
        self.victim_restore = None;
        Some(cap)
    }

    /// Step hook, second half: arms every event the plan schedules at or
    /// before `now`; returns whether any fell due.
    #[inline]
    pub(crate) fn arm_due(&mut self, now: u64) -> bool {
        !self.injector.exhausted() && self.arm(now)
    }

    fn arm(&mut self, now: u64) -> bool {
        let before = self.armed.len();
        self.armed.extend(self.injector.due(now));
        self.armed.len() != before
    }

    /// Hands over the armed events for the machine to try; each goes
    /// back through [`settle`](Chaos::settle).
    pub(crate) fn take_armed(&mut self) -> Vec<FaultEvent> {
        std::mem::take(&mut self.armed)
    }

    /// Settles one armed event the machine tried at `now`: an applied
    /// fault is counted; one whose window closed without an eligible
    /// target is skipped; any other stays armed. Returns whether the
    /// event left the armed set (fast-forward must not skip that cycle).
    pub(crate) fn settle(&mut self, ev: FaultEvent, applied: bool, now: u64) -> bool {
        if applied {
            self.stats.record(ev.class);
        } else if now >= ev.at_cycle + ev.duration.max(1) {
            self.stats.skipped += 1;
        } else {
            self.armed.push(ev);
            return false;
        }
        true
    }

    /// Whether an armed event is waiting for a target: its eligibility
    /// is state-gated, so no cycle may be skipped past it.
    #[inline]
    pub(crate) fn has_armed(&self) -> bool {
        !self.armed.is_empty()
    }

    /// Victim-squeeze fault: schedules the restore of capacity `cap` at
    /// cycle `until`; false while an earlier squeeze is in flight.
    pub(crate) fn squeeze_victims(&mut self, until: u64, cap: usize) -> bool {
        if self.victim_restore.is_some() {
            return false;
        }
        self.victim_restore = Some((until, cap));
        true
    }

    /// Delayed-token fault: the homefree token is withheld until `until`.
    pub(crate) fn delay_token(&mut self, until: u64) {
        self.token_until = self.token_until.max(until);
    }

    /// Whether the homefree token is withheld at `now`.
    #[inline]
    pub(crate) fn token_withheld(&self, now: u64) -> bool {
        now < self.token_until
    }

    /// The cycles at which chaos next changes the machine.
    #[inline]
    pub(crate) fn wakeups(&self) -> impl Iterator<Item = u64> {
        let restore = self.victim_restore.map(|(at, _)| at);
        [Some(self.token_until), self.injector.next_due(), restore].into_iter().flatten()
    }

    /// End-of-run hook: faults still armed (or never due) count as
    /// skipped, so applied + skipped equals the plan's length.
    pub(crate) fn finish(mut self) -> FaultStats {
        self.stats.skipped += (self.armed.len() + self.injector.remaining()) as u64;
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = FaultPlan::generate(7, &ALL_FAULT_CLASSES, 10_000, 16);
        let b = FaultPlan::generate(7, &ALL_FAULT_CLASSES, 10_000, 16);
        let c = FaultPlan::generate(8, &ALL_FAULT_CLASSES, 10_000, 16);
        assert_eq!(a, b);
        assert_ne!(a, c, "nearby seeds should produce different plans");
    }

    #[test]
    fn events_are_sorted_and_inside_the_horizon() {
        let p = FaultPlan::generate(3, &ALL_FAULT_CLASSES, 5_000, 32);
        assert_eq!(p.len(), 32);
        assert!(p.events.windows(2).all(|w| w[0].at_cycle <= w[1].at_cycle));
        assert!(p.events.iter().all(|e| e.at_cycle >= 1 && e.at_cycle < 5_000));
        let seeks_target =
            |c: FaultClass| matches!(c, FaultClass::ReorderedDrain | FaultClass::DroppedEntry);
        assert!(p
            .events
            .iter()
            .filter(|e| !seeks_target(e.class))
            .all(|e| (100..500).contains(&e.duration)));
        // Target-seeking saboteurs stay armed to the horizon.
        assert!(p.events.iter().filter(|e| seeks_target(e.class)).all(|e| e.duration == 5_000));
        assert!(p.events.iter().any(|e| seeks_target(e.class)), "grid should draw a saboteur");
    }

    #[test]
    fn single_class_plans_only_draw_that_class() {
        let p = FaultPlan::generate(11, &[FaultClass::DelayedToken], 1_000, 8);
        assert!(p.events.iter().all(|e| e.class == FaultClass::DelayedToken));
    }

    #[test]
    fn injector_drains_in_order() {
        let plan = FaultPlan {
            seed: 0,
            events: vec![
                FaultEvent { at_cycle: 10, class: FaultClass::ForcedMerge, duration: 0 },
                FaultEvent { at_cycle: 10, class: FaultClass::DelayedToken, duration: 50 },
                FaultEvent { at_cycle: 40, class: FaultClass::LatchHazard, duration: 0 },
            ],
        };
        let mut inj = FaultInjector::new(&plan);
        assert!(inj.due(5).is_empty());
        assert_eq!(inj.due(10).len(), 2);
        assert!(inj.due(20).is_empty());
        assert!(!inj.exhausted());
        assert_eq!(inj.due(1_000).len(), 1);
        assert!(inj.exhausted());
    }

    #[test]
    fn injector_reports_next_due_cycle() {
        let plan = FaultPlan {
            seed: 0,
            events: vec![
                FaultEvent { at_cycle: 10, class: FaultClass::ForcedMerge, duration: 0 },
                FaultEvent { at_cycle: 40, class: FaultClass::LatchHazard, duration: 0 },
            ],
        };
        let mut inj = FaultInjector::new(&plan);
        assert_eq!(inj.next_due(), Some(10));
        let _ = inj.due(10);
        assert_eq!(inj.next_due(), Some(40));
        let _ = inj.due(100);
        assert_eq!(inj.next_due(), None);
    }

    /// The release-build guarantee behind the fast path: the defaults
    /// `CmpSimulator::run` uses must not enable the auditor or the
    /// oracle outside debug builds, so release runs pay nothing for the
    /// chaos-harness checks.
    #[test]
    fn release_defaults_do_no_auditing() {
        let opts = RunOptions::checked_default();
        if cfg!(debug_assertions) {
            assert!(opts.audit && opts.oracle, "debug builds keep the checks on");
        } else {
            assert!(!opts.audit, "release hot path must not run the auditor");
            assert!(!opts.oracle, "release hot path must not track the oracle");
        }
        assert!(opts.fast_forward, "the fast path is the default");
    }

    #[test]
    fn plan_round_trips_through_json() {
        let p = FaultPlan::generate(5, &ALL_FAULT_CLASSES, 2_000, 6);
        let s = serde_json::to_string(&p).expect("serialize");
        let q: FaultPlan = serde_json::from_str(&s).expect("deserialize");
        assert_eq!(p, q);
    }

    #[test]
    fn disk_plan_generation_is_deterministic_per_seed() {
        let a = DiskFaultPlan::generate(7, &ALL_DISK_FAULT_CLASSES, 500, 16);
        let b = DiskFaultPlan::generate(7, &ALL_DISK_FAULT_CLASSES, 500, 16);
        let c = DiskFaultPlan::generate(8, &ALL_DISK_FAULT_CLASSES, 500, 16);
        assert_eq!(a, b);
        assert_ne!(a, c, "nearby seeds should produce different plans");
    }

    #[test]
    fn disk_plan_indexes_at_most_one_fault_per_write() {
        let p = DiskFaultPlan::generate(3, &ALL_DISK_FAULT_CLASSES, 40, 64);
        assert!(p.events.windows(2).all(|w| w[0].at_write < w[1].at_write));
        assert!(p.events.iter().all(|e| e.at_write < 40));
        for e in &p.events {
            assert_eq!(p.for_write(e.at_write), Some(*e));
        }
        assert_eq!(p.for_write(40), None);
    }

    #[test]
    fn disk_plan_round_trips_through_json() {
        let p = DiskFaultPlan::generate(5, &[DiskFaultClass::TornWrite], 100, 6);
        let s = serde_json::to_string(&p).expect("serialize");
        let q: DiskFaultPlan = serde_json::from_str(&s).expect("deserialize");
        assert_eq!(p, q);
        assert!(p.events.iter().all(|e| e.class == DiskFaultClass::TornWrite));
    }
}
