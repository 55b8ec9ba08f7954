//! What one run read of its sub-thread configuration.
//!
//! The protocol reads a [`SubThreadConfig`] in two places only (§2.2).
//! The spacing is a threshold: a thread attempts a new sub-thread when
//! it is speculative, holds no latch, and has run `spacing` instructions
//! since its last checkpoint. The context count and the exhaustion
//! policy are read when such an attempt finds every context in use. A
//! run that records the largest gap it saw below the threshold, whether
//! it ever attempted, and whether an attempt ever found the contexts
//! full therefore knows which other configurations would have replayed
//! it step for step. DESIGN.md §9.8 gives the argument in full.

use crate::config::{SpacingPolicy, SubThreadConfig};

/// The envelope of one run: what it read of its [`SubThreadConfig`].
///
/// [`CmpSimulator::run_envelope`](crate::CmpSimulator::run_envelope)
/// returns it beside the report. [`Envelope::covers`] says whether a run
/// of the same program on the same machine, with another sub-thread
/// configuration, would produce the same report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Envelope {
    /// The largest instruction count since the last checkpoint seen at an
    /// eligible boundary check (speculative, no latch held) that did not
    /// attempt a sub-thread.
    pub(crate) longest_quiet: u64,
    /// Some boundary check reached the spacing.
    pub(crate) attempted: bool,
    /// Some attempt found every context in use.
    pub(crate) found_full: bool,
}

impl Envelope {
    /// The envelope that covers no configuration but the run's own: what
    /// a run whose audits failed reports, since the audits read the
    /// context count.
    pub(crate) const EXACT: Envelope =
        Envelope { longest_quiet: u64::MAX, attempted: true, found_full: true };

    /// Folds one CPU-cycle's boundary checks into the envelope.
    pub(crate) fn fold(&mut self, longest_quiet: u64, attempted: bool, found_full: bool) {
        self.longest_quiet = self.longest_quiet.max(longest_quiet);
        self.attempted |= attempted;
        self.found_full |= found_full;
    }

    /// Whether the envelope covers no configuration but `ran`, the one
    /// its run had: `EvenDivision` spacing, or an attempt found the
    /// contexts full.
    pub fn is_exact(&self, ran: &SubThreadConfig) -> bool {
        ran.spacing == SpacingPolicy::EvenDivision || (self.attempted && self.found_full)
    }

    /// Whether a run with sub-thread configuration `asked` would replay
    /// the run that recorded this envelope, which ran `ran`, everything
    /// else about the program and machine being equal. Both must space
    /// sub-threads [`SpacingPolicy::Every`] some count: `EvenDivision`
    /// derives its spacing from the context count before the run starts.
    ///
    /// - A run that never attempted a sub-thread replays at any spacing
    ///   above its longest quiet stretch, with any contexts and either
    ///   exhaustion policy.
    /// - A run whose attempts never found the contexts full replays at
    ///   the same spacing with at least as many contexts and either
    ///   policy.
    pub fn covers(&self, ran: &SubThreadConfig, asked: &SubThreadConfig) -> bool {
        let (SpacingPolicy::Every(ran_every), SpacingPolicy::Every(asked_every)) =
            (ran.spacing, asked.spacing)
        else {
            return false;
        };
        // The thresholds the machine compares against (`spacing_for`).
        let (ran_spacing, asked_spacing) = (ran_every.max(1), asked_every.max(1));
        if !self.attempted {
            return asked_spacing > self.longest_quiet;
        }
        !self.found_full && ran_spacing == asked_spacing && asked.contexts >= ran.contexts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExhaustionPolicy;
    use crate::{CmpConfig, CmpSimulator, RunOptions, SimReport};
    use tls_trace::{Addr, OpSink, Pc, ProgramBuilder, TraceProgram};

    /// Four parallel epochs of `ops` integer ops each, the later three
    /// reading a word the first one writes at its end: every speculative
    /// thread is violated, so its checkpoints decide how much it replays.
    fn program(ops: usize) -> TraceProgram {
        let mut b = ProgramBuilder::new("envelope");
        b.begin_parallel();
        b.begin_epoch();
        b.int_ops(Pc::new(1, 0), ops);
        b.store(Pc::new(1, 1), Addr(0x100), 8);
        b.end_epoch();
        for e in 0..3u16 {
            b.begin_epoch();
            b.int_ops(Pc::new(2 + e, 0), ops / 2);
            b.load(Pc::new(2 + e, 1), Addr(0x100), 8);
            b.int_ops(Pc::new(2 + e, 2), ops / 2);
            b.end_epoch();
        }
        b.end_parallel();
        b.finish()
    }

    fn sub(contexts: u8, spacing: u64, exhaustion: ExhaustionPolicy) -> SubThreadConfig {
        SubThreadConfig { contexts, spacing: SpacingPolicy::Every(spacing), exhaustion }
    }

    fn run(program: &TraceProgram, sub: SubThreadConfig) -> (SimReport, Envelope) {
        let mut cfg = CmpConfig::paper_default();
        cfg.subthreads = sub;
        CmpSimulator::new(cfg).run_envelope(&program.view(), RunOptions::checked_default())
    }

    fn json(r: &SimReport) -> String {
        serde_json::to_string(r).expect("report serializes")
    }

    const POLICIES: [ExhaustionPolicy; 2] = [ExhaustionPolicy::Merge, ExhaustionPolicy::Stop];

    #[test]
    fn a_run_without_attempts_replays_at_every_larger_spacing() {
        let p = program(1200);
        let ran = sub(2, 5000, ExhaustionPolicy::Merge);
        let (report, env) = run(&p, ran);
        assert!(!env.attempted && !env.found_full, "{env:?}");
        assert!(env.longest_quiet >= 600 && env.longest_quiet < 5000, "{env:?}");
        for spacing in [env.longest_quiet + 1, 5000, 20_000, u64::MAX] {
            for contexts in [1, 2, 4, 8] {
                for exhaustion in POLICIES {
                    let asked = sub(contexts, spacing, exhaustion);
                    assert!(env.covers(&ran, &asked), "{asked:?}");
                    assert_eq!(json(&run(&p, asked).0), json(&report), "{asked:?}");
                }
            }
        }
        // At the longest quiet stretch itself the thread attempts, so the
        // envelope stops there (and with two contexts, a sub-thread starts).
        let at = sub(2, env.longest_quiet, ExhaustionPolicy::Merge);
        assert!(!env.covers(&ran, &at));
        assert!(run(&p, at).0.subthreads_started > 0);
    }

    #[test]
    fn a_run_never_full_replays_with_more_contexts_under_either_policy() {
        let p = program(1200);
        let ran = sub(4, 500, ExhaustionPolicy::Stop);
        let (report, env) = run(&p, ran);
        assert!(env.attempted && !env.found_full, "{env:?}");
        assert!(report.subthreads_started > 0);
        for contexts in 4..=8 {
            for exhaustion in POLICIES {
                let asked = sub(contexts, 500, exhaustion);
                assert!(env.covers(&ran, &asked), "{asked:?}");
                assert_eq!(json(&run(&p, asked).0), json(&report), "{asked:?}");
            }
        }
        for other in [sub(3, 500, ExhaustionPolicy::Stop), sub(8, 600, ExhaustionPolicy::Stop)] {
            assert!(!env.covers(&ran, &other), "{other:?}");
        }
        // EvenDivision reads the context count before the run starts.
        let even = SubThreadConfig { spacing: SpacingPolicy::EvenDivision, ..ran };
        assert!(!env.covers(&ran, &even) && !env.covers(&even, &ran));
    }

    #[test]
    fn a_one_context_run_with_attempts_found_the_contexts_full() {
        // One context disables sub-threads by finding the contexts full
        // at every attempt: no sub-thread starts, yet the run read its
        // context count, and two contexts at the same spacing differ.
        let p = program(1200);
        let ran = sub(1, 500, ExhaustionPolicy::Merge);
        let (report, env) = run(&p, ran);
        assert_eq!(report.subthreads_started, 0);
        assert!(env.attempted && env.found_full, "{env:?}");
        let more = sub(2, 500, ExhaustionPolicy::Merge);
        assert!(!env.covers(&ran, &more));
        assert_ne!(json(&run(&p, more).0), json(&report));
    }
}
