//! The compact binary event record and its taxonomy.

/// Sentinel for "no PC" in a packed PC payload word (a real
/// `tls_trace::Pc` is a `u32`, but `u32::MAX` is never a valid one —
/// it would need epoch 65535 *and* offset 65535).
pub const NO_PC: u32 = u32::MAX;

/// What happened. One variant per lifecycle transition of the
/// sub-threaded TLS protocol; see each variant for how the [`Event`]
/// payload words `a`/`b` are used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// An epoch was placed on a CPU. `a` = epoch length in ops.
    EpochStart = 0,
    /// A sub-thread checkpoint was taken. `sub` = the new context id,
    /// `a` = op cursor at the boundary.
    SubThreadStart = 1,
    /// Two adjacent sub-thread contexts were merged (context-supply
    /// exhaustion or a chaos forced-merge). `sub` = the current
    /// context id after the merge.
    SubThreadMerge = 2,
    /// A primary (RAW) violation was applied. `sub` = rewind target,
    /// `a` = conflicting line address, `b` = packed PCs: low 32 bits
    /// the exposed load PC, high 32 bits the offending store PC
    /// ([`NO_PC`] when unknown).
    ViolationRaw = 3,
    /// A secondary violation cascaded from an older epoch's rewind.
    /// `sub` = rewind target, `a` = the triggering epoch's order.
    ViolationSecondary = 4,
    /// Speculative state overflowed the L2 + victim cache. `sub` =
    /// rewind target, `a` = displaced line address.
    ViolationOverflow = 5,
    /// A chaos-injected spurious violation. `sub` = rewind target.
    ViolationInjected = 6,
    /// A rewind ran. `sub` = target sub-thread, `a` = discarded
    /// (failed) cycles, `b` = ops rewound.
    Rewind = 7,
    /// The homefree token moved on after a commit. `epoch` = the new
    /// token holder's order, `a` = total epochs committed so far.
    TokenHandoff = 8,
    /// An epoch committed. `a` = its op count.
    Commit = 9,
    /// Speculative line(s) were displaced into the victim cache by
    /// this CPU's accesses this cycle. `a` = how many.
    VictimSpill = 10,
    /// A latch acquire blocked (start of a stall episode). `a` = the
    /// latch id.
    LatchStall = 11,
    /// Synthetic: idle-cycle fast-forward skipped a provably-quiescent
    /// span. `cycle` = span start, `a` = span end (exclusive). The
    /// machine-wide record that keeps timelines truthful — every CPU
    /// repeated its previous cycle category for the whole span.
    IdleSpan = 12,
    /// The forward-progress watchdog flagged a violation storm: this
    /// epoch rewound `a` consecutive times without any epoch committing
    /// in between. `sub` = rewind target of the tripping rewind, `b` =
    /// packed PCs of the most recent RAW conflict ([`NO_PC`] when the
    /// storm was not RAW-driven).
    Livelock = 13,
    /// A buffer-pool frame was evicted. `a` = the evicted region's base
    /// address, `b` = 1 if the eviction flushed a dirty page first.
    /// Emitted by the MiniDB pager (`cycle` is its event sequence
    /// number, not a simulated cycle — pager events are recorded at
    /// workload-recording time, before simulation).
    FrameEvict = 14,
    /// A dirty page was written to the simulated disk. `a` = region
    /// base address, `b` = the page LSN stamped into the envelope.
    FrameFlush = 15,
    /// Recovery (or a live read-repair after a checksum/LSN mismatch)
    /// replayed log state onto a page. `a` = region base address,
    /// `b` = the LSN recovered to.
    RecoveryReplay = 16,
    /// A RAW violation was suppressed because every exposed load on the
    /// conflicting line carried a value prediction (settled at commit).
    /// `sub` = the sub-thread the violation would have rewound to, `a` =
    /// conflicting line address, `b` = packed load/store PCs as in
    /// [`EventKind::ViolationRaw`].
    ValuePredicted = 17,
    /// A value prediction validated wrong at commit time; the epoch
    /// rewinds instead of committing. `sub` = rewind target, `a` = the
    /// mispredicted line address, `b` = packed PCs (store [`NO_PC`]).
    ValueMispredict = 18,
    /// A CPU spent this cycle stalled on a TSO store-buffer drain.
    /// Emitted once at the *start* of each stall episode (not per
    /// cycle). `a` = buffered entries at stall start, `b` = 1 when the
    /// stall came from a full buffer, 2 from a load-forwarding
    /// conflict, 3 from an ordering-point flush.
    DrainStall = 19,
    /// The commit-serializability auditor found a happens-before cycle
    /// or a store-flow violation. `a` = the implicated line address (0
    /// when not line-specific), `b` = total breaches so far.
    SerializabilityBreach = 20,
}

/// Every event kind, in discriminant order (stable for count tables).
pub const ALL_EVENT_KINDS: [EventKind; 21] = [
    EventKind::EpochStart,
    EventKind::SubThreadStart,
    EventKind::SubThreadMerge,
    EventKind::ViolationRaw,
    EventKind::ViolationSecondary,
    EventKind::ViolationOverflow,
    EventKind::ViolationInjected,
    EventKind::Rewind,
    EventKind::TokenHandoff,
    EventKind::Commit,
    EventKind::VictimSpill,
    EventKind::LatchStall,
    EventKind::IdleSpan,
    EventKind::Livelock,
    EventKind::FrameEvict,
    EventKind::FrameFlush,
    EventKind::RecoveryReplay,
    EventKind::ValuePredicted,
    EventKind::ValueMispredict,
    EventKind::DrainStall,
    EventKind::SerializabilityBreach,
];

impl EventKind {
    /// Stable snake_case label (JSON field names, count tables).
    pub fn label(self) -> &'static str {
        match self {
            EventKind::EpochStart => "epoch_start",
            EventKind::SubThreadStart => "subthread_start",
            EventKind::SubThreadMerge => "subthread_merge",
            EventKind::ViolationRaw => "violation_raw",
            EventKind::ViolationSecondary => "violation_secondary",
            EventKind::ViolationOverflow => "violation_overflow",
            EventKind::ViolationInjected => "violation_injected",
            EventKind::Rewind => "rewind",
            EventKind::TokenHandoff => "token_handoff",
            EventKind::Commit => "commit",
            EventKind::VictimSpill => "victim_spill",
            EventKind::LatchStall => "latch_stall",
            EventKind::IdleSpan => "idle_span",
            EventKind::Livelock => "livelock",
            EventKind::FrameEvict => "frame_evict",
            EventKind::FrameFlush => "frame_flush",
            EventKind::RecoveryReplay => "recovery_replay",
            EventKind::ValuePredicted => "value_predicted",
            EventKind::ValueMispredict => "value_mispredict",
            EventKind::DrainStall => "drain_stall",
            EventKind::SerializabilityBreach => "serializability_breach",
        }
    }
}

/// One traced occurrence: a fixed-size, copyable record (40 bytes) so a
/// million of them ring-buffer without allocation or indirection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Simulated cycle at which the event was emitted.
    pub cycle: u64,
    /// First payload word; meaning depends on [`EventKind`].
    pub a: u64,
    /// Second payload word; meaning depends on [`EventKind`].
    pub b: u64,
    /// Logical epoch order, or `u32::MAX` when no epoch is involved.
    pub epoch: u32,
    /// What happened.
    pub kind: EventKind,
    /// CPU index, or [`Event::NO_CPU`] for machine-wide events.
    pub cpu: u8,
    /// Sub-thread context id (0 when not meaningful).
    pub sub: u8,
}

impl Event {
    /// `cpu` value for machine-wide events ([`EventKind::IdleSpan`]).
    pub const NO_CPU: u8 = u8::MAX;

    /// Packs an optional load PC and an optional store PC into one
    /// payload word ([`NO_PC`] marks absence).
    pub fn pack_pcs(load: Option<u32>, store: Option<u32>) -> u64 {
        let lo = load.unwrap_or(NO_PC) as u64;
        let hi = store.unwrap_or(NO_PC) as u64;
        lo | (hi << 32)
    }

    /// Inverse of [`Event::pack_pcs`].
    pub fn unpack_pcs(b: u64) -> (Option<u32>, Option<u32>) {
        let lo = (b & 0xFFFF_FFFF) as u32;
        let hi = (b >> 32) as u32;
        ((lo != NO_PC).then_some(lo), (hi != NO_PC).then_some(hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pcs_round_trip() {
        for (l, s) in [(None, None), (Some(7u32), None), (None, Some(9)), (Some(1), Some(2))] {
            assert_eq!(Event::unpack_pcs(Event::pack_pcs(l, s)), (l, s));
        }
    }

    #[test]
    fn kinds_are_distinct_and_labelled() {
        let mut labels: Vec<&str> = ALL_EVENT_KINDS.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), ALL_EVENT_KINDS.len());
    }
}
