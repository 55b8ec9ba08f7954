//! The simulator's checks component: the state of the invariant
//! auditor, the commit-time happens-before audit, the sequential
//! differential oracle, and the record of audit failures and protocol
//! errors. The machine runs the audits that walk its own state and
//! reports what they find here; arming the checks changes no simulated
//! timing.

use crate::chaos::RunOptions;
use crate::latch::LatchError;
use crate::membuf::HbAuditor;
use crate::report::ProtocolError;
use std::collections::HashMap;
use tls_trace::{Addr, OpKind, ProgramView, RegionView};

/// Recorded failures and protocol errors are capped at this many each.
const RECORD_CAP: usize = 32;

/// The auditor, the serializability audits and the oracle of one run.
#[derive(Debug, Default)]
pub(crate) struct Checks {
    // The [`RunOptions`] switches.
    audit: bool,
    oracle: bool,
    panic_on_failure: bool,
    line_shift: u32,
    hb: HbAuditor,
    /// Sequential op-index base of each epoch by logical order, matching
    /// [`ProgramView::iter_ops`] — the oracle's token space.
    epoch_base: Vec<u64>,
    /// Committed symbolic memory image: byte address → global index of
    /// the last committed store writing it (oracle only).
    image: HashMap<u64, u64>,
    /// Happens-before cycles and store-flow violations detected.
    pub(crate) breaches: u64,
    /// Recoverable protocol errors: the full count, then the first few.
    pub(crate) errors_seen: u64,
    pub(crate) protocol_errors: Vec<ProtocolError>,
    pub(crate) failures: Vec<String>,
    /// An audit failed (non-panicking mode): finish the current step,
    /// then stop.
    pub(crate) aborted: bool,
}

impl Checks {
    /// The checks `opts` arms for `program` (L2 lines of `1 << line_shift`).
    pub(crate) fn new(opts: &RunOptions, program: &ProgramView<'_>, line_shift: u32) -> Checks {
        let epoch_base = (program.regions.iter())
            .flat_map(|region| match region {
                RegionView::Sequential(e) => std::slice::from_ref(e),
                RegionView::Parallel(es) => &es[..],
            })
            .scan(0u64, |base, e| {
                let start = *base;
                *base += e.len() as u64;
                Some(start)
            })
            .collect();
        Checks {
            audit: opts.audit,
            oracle: opts.oracle,
            panic_on_failure: opts.panic_on_audit_failure,
            line_shift,
            epoch_base,
            ..Checks::default()
        }
    }

    /// Whether the invariant auditor and the serializability audits are
    /// armed.
    pub(crate) fn auditing(&self) -> bool {
        self.audit
    }

    /// Registers an invariant-audit failure: panic when configured to
    /// (the test default), otherwise collect it and stop the run after
    /// the current step completes.
    pub(crate) fn fail(&mut self, cycle: u64, msg: String) {
        if self.panic_on_failure {
            panic!("invariant audit failed at cycle {cycle}: {msg}");
        }
        if self.failures.len() < RECORD_CAP {
            self.failures.push(format!("cycle {cycle}: {msg}"));
        }
        self.aborted = true;
    }

    fn protocol_error(&mut self, cycle: u64, message: String) {
        self.errors_seen += 1;
        if self.protocol_errors.len() < RECORD_CAP {
            self.protocol_errors.push(ProtocolError { cycle, message });
        }
    }

    /// Records a recoverable latch protocol error; an unexpected one (no
    /// latch hazard was injected) is also an invariant-audit failure.
    pub(crate) fn latch_error(&mut self, cycle: u64, latch_hazard: bool, e: LatchError) {
        let message = e.to_string();
        if self.audit && !latch_hazard {
            self.fail(cycle, format!("unexpected latch protocol error: {message}"));
        }
        self.protocol_error(cycle, message);
    }

    /// Records a serializability breach as a recoverable [`ProtocolError`]
    /// — never a panic, so the chaos grid proves *detection*, not a
    /// crash. Returns the breach count so far (the event's payload).
    pub(crate) fn breach(&mut self, cycle: u64, message: String) -> u64 {
        self.breaches += 1;
        self.protocol_error(cycle, message);
        self.breaches
    }

    /// Commit hook. The oracle folds the epoch's surviving write log
    /// into the committed image; tokens are global op indices, so the
    /// image can be compared byte-for-byte with a sequential replay. The
    /// auditor checks the happens-before order of the committed write-set
    /// (commit-order edges plus per-line write-write edges) and returns
    /// the breach it finds.
    pub(crate) fn commit_epoch(
        &mut self,
        order: u32,
        stores: &[(usize, Addr, u8)],
    ) -> Option<String> {
        if self.oracle {
            let base = self.epoch_base[order as usize];
            for &(cursor, addr, size) in stores {
                let token = base + cursor as u64;
                for b in 0..size as u64 {
                    self.image.insert(addr.0 + b, token);
                }
            }
        }
        if !self.audit {
            return None;
        }
        let mut lines: Vec<u64> =
            stores.iter().map(|&(_, a, _)| a.align_down(self.line_shift).0).collect();
        lines.sort_unstable();
        lines.dedup();
        self.hb.commit_epoch(order, lines)
    }

    /// End-of-run hook of the differential oracle: replay the program
    /// sequentially as a symbolic last-writer image and compare with
    /// what the speculative machine committed. The simulator models no
    /// data values, so two runs agree exactly when every byte's last
    /// writer (in logical order) agrees.
    pub(crate) fn oracle_replay(&mut self, cycle: u64, program: &ProgramView<'_>) {
        if !self.oracle {
            return;
        }
        let mut expected: HashMap<u64, u64> = HashMap::new();
        for (i, op) in program.iter_ops().enumerate() {
            if let OpKind::Store { addr, size } = op.kind() {
                for b in 0..size as u64 {
                    expected.insert(addr.0 + b, i as u64);
                }
            }
        }
        let image = &self.image;
        if expected != *image {
            let mut diffs: Vec<u64> = expected
                .keys()
                .chain(image.keys())
                .filter(|a| expected.get(*a) != image.get(*a))
                .copied()
                .collect();
            diffs.sort_unstable();
            diffs.dedup();
            let shown: Vec<String> = diffs.iter().take(4).map(|a| format!("{a:#x}")).collect();
            self.fail(
                cycle,
                format!(
                    "oracle divergence: committed image disagrees with the sequential replay \
                     at {} bytes (first: {shown:?})",
                    diffs.len()
                ),
            );
        }
    }
}
