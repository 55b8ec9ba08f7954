//! Value prediction on exposed speculative loads — the *Prophet*
//! alternative to stalling or rewinding (ROADMAP item 2a).
//!
//! Where the synchronizing [`DependencePredictor`](crate::predictor)
//! avoids a violation by *waiting* for the homefree thread, a value
//! predictor avoids it by *guessing*: when a speculative thread performs
//! an exposed load (one that creates a cross-thread RAW hazard), the
//! predictor supplies the value it expects the logically-earlier thread
//! to produce. If a conflicting store later arrives for that line, the
//! violation is **suppressed** — the speculative thread keeps running on
//! the predicted value — and the guess is settled at commit time, when
//! the thread is next-to-commit and every older store is architecturally
//! visible. A correct guess turns the would-be RAW violation into a
//! silent hit ([`SimReport::predicted_hits`](crate::SimReport)); a wrong
//! one routes through the ordinary sub-thread rewind path
//! ([`SimReport::value_mispredicts`](crate::SimReport)), so correctness
//! never depends on prediction accuracy.
//!
//! Two predictors share a PC-indexed, direct-mapped table, as in
//! Prophet: **last-value** (the next instance repeats the previous
//! committed value) and **stride** (it differs by a constant delta).
//! Stride wins when both are confident, last-value otherwise, and below
//! both confidence thresholds the load is not covered at all — an
//! uncovered exposed load violates exactly as it does today.
//!
//! ## The synthetic value model
//!
//! Trace records carry no data values (a [`tls_trace::TraceOp`] is 16
//! bytes of PC/kind/address), so the machine needs a deterministic stand
//! -in for "the value at `addr`". [`value_model`] defines it as a pure
//! function of the address and the number of *committed* stores to that
//! address so far — exposed loads by definition consume values produced
//! by logically-earlier threads, and at validation time (next-to-commit)
//! exactly the committed stores are visible. Address-hash classes give
//! the sweep realistic texture: about half of all addresses hold
//! constants (last-value predictable), a quarter walk a fixed stride
//! (stride predictable), and a quarter are noisy (every write changes
//! the value unpredictably, so covering loads *will* mispredict and
//! exercise the rewind fallback). The model is shared by the simulator's
//! trainer and validator, and by the kernel microbenchmark.
//!
//! [`ValueSpec`] is the simulator's value-prediction component.

use crate::config::CmpConfig;
use crate::l2spec::{PendingViolation, ViolationKind};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use tls_trace::{Addr, Pc};

/// Configuration of the value predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VPredictConfig {
    /// Enable value prediction on exposed speculative loads.
    pub enabled: bool,
    /// Entries in the PC-indexed table (power of two).
    pub entries: usize,
    /// Confidence (in consecutive confirmations) at which a predictor
    /// starts covering loads; saturates at 3.
    pub threshold: u8,
}

impl VPredictConfig {
    /// Disabled — the default everywhere; the machine behaves (and its
    /// reports serialize) exactly as it did before the subsystem landed.
    pub fn disabled() -> Self {
        VPredictConfig { enabled: false, entries: 1024, threshold: 2 }
    }

    /// The Prophet-style baseline: a 1024-entry table that covers a load
    /// after two consecutive confirmations.
    pub fn prophet() -> Self {
        VPredictConfig { enabled: true, entries: 1024, threshold: 2 }
    }
}

impl Default for VPredictConfig {
    fn default() -> Self {
        VPredictConfig::disabled()
    }
}

/// One direct-mapped table entry: last committed value plus the delta to
/// the one before it, each with its own saturating confidence.
#[derive(Debug, Clone, Copy, Default)]
struct VEntry {
    tag: u32,
    last: u64,
    stride: u64,
    conf_last: u8,
    conf_stride: u8,
}

/// A combined last-value/stride value predictor, PC-indexed and
/// direct-mapped (displacement takes over the entry, as in the
/// [`DependencePredictor`](crate::predictor::DependencePredictor)).
#[derive(Debug, Clone)]
pub struct ValuePredictor {
    table: Vec<VEntry>,
    mask: usize,
    threshold: u8,
    trainings: u64,
    probes: u64,
    covered: u64,
}

impl ValuePredictor {
    /// A predictor per `config`.
    ///
    /// # Panics
    ///
    /// Panics unless `config.entries` is a nonzero power of two.
    pub fn new(config: &VPredictConfig) -> Self {
        assert!(
            config.entries > 0 && config.entries.is_power_of_two(),
            "value-predictor table must be a power of two"
        );
        ValuePredictor {
            table: vec![VEntry::default(); config.entries],
            mask: config.entries - 1,
            threshold: config.threshold.clamp(1, 3),
            trainings: 0,
            probes: 0,
            covered: 0,
        }
    }

    fn index(&self, pc: Pc) -> usize {
        // Same module-bit mixing as the dependence predictor.
        let h = pc.0 ^ (pc.0 >> 13);
        h as usize & self.mask
    }

    /// The value predicted for the load at `pc`, or `None` when the
    /// entry is cold, displaced, or below both confidence thresholds
    /// (an uncovered load violates exactly as without prediction).
    pub fn probe(&mut self, pc: Pc) -> Option<u64> {
        self.probes += 1;
        let e = self.table[self.index(pc)];
        if e.tag != pc.0 {
            return None;
        }
        let v = if e.conf_stride >= self.threshold {
            Some(e.last.wrapping_add(e.stride))
        } else if e.conf_last >= self.threshold {
            Some(e.last)
        } else {
            None
        };
        if v.is_some() {
            self.covered += 1;
        }
        v
    }

    /// Trains on the value an exposed load actually consumed, observed
    /// at the owning epoch's commit (the only point where the value is
    /// architecturally settled).
    pub fn train(&mut self, pc: Pc, value: u64) {
        self.trainings += 1;
        let i = self.index(pc);
        let e = &mut self.table[i];
        if e.tag == pc.0 {
            let delta = value.wrapping_sub(e.last);
            if delta == e.stride {
                e.conf_stride = (e.conf_stride + 1).min(3);
            } else {
                e.stride = delta;
                e.conf_stride = 1;
            }
            if value == e.last {
                e.conf_last = (e.conf_last + 1).min(3);
            } else {
                e.conf_last = 1;
            }
            e.last = value;
        } else {
            // Direct-mapped displacement: take over the entry cold.
            *e = VEntry { tag: pc.0, last: value, stride: 0, conf_last: 1, conf_stride: 0 };
        }
    }

    /// Commit-time trainings performed.
    pub fn trainings(&self) -> u64 {
        self.trainings
    }

    /// Exposed loads probed.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Probes that produced a prediction.
    pub fn covered(&self) -> u64 {
        self.covered
    }
}

/// One exposed speculative load tracked by the value predictor: where
/// it happened, what was predicted for it, and whether a conflicting
/// store arrived (so the prediction is actually load-bearing and must
/// validate at commit). A running epoch keeps its own, sorted by cursor
/// and truncated on rewind exactly like its write log.
#[derive(Debug, Clone, Copy)]
pub(crate) struct VLoad {
    /// Op index of the load within its epoch.
    pub(crate) cursor: usize,
    /// The exact byte address — the value model's key.
    addr: Addr,
    /// The load's PC (commit-time training key).
    pc: Pc,
    /// The predicted value, or `None` when the predictor declined.
    predicted: Option<u64>,
    /// A logically-earlier store hit this line after the load: the RAW
    /// violation was suppressed on the strength of the prediction.
    conflicted: bool,
}

/// Value prediction on the machine: the predictor, the value model's
/// clock and the counters. The tracked loads belong to each running
/// epoch and are passed to every hook.
#[derive(Debug)]
pub(crate) struct ValueSpec {
    predictor: ValuePredictor,
    /// Committed stores per exact byte address (the value model's clock).
    commit_counts: HashMap<u64, u64>,
    line_shift: u32,
    /// Suppressed RAW violations whose predictions validated correct.
    pub(crate) predicted_hits: u64,
    /// Predictions that validated wrong and rewound instead.
    pub(crate) value_mispredicts: u64,
}

impl ValueSpec {
    /// The component for `cfg`, or `None` when prediction is off.
    pub(crate) fn new(cfg: &CmpConfig) -> Option<ValueSpec> {
        cfg.vpredict.enabled.then(|| ValueSpec {
            predictor: ValuePredictor::new(&cfg.vpredict),
            commit_counts: HashMap::new(),
            line_shift: cfg.l2.line_shift(),
            predicted_hits: 0,
            value_mispredicts: 0,
        })
    }

    /// Dispatch hook: probes the predictor for an exposed speculative
    /// load at op `cursor` and tracks it in `loads`. Tracking is
    /// timing-passive — the probe neither stalls nor accelerates the
    /// load.
    pub(crate) fn track(&mut self, loads: &mut Vec<VLoad>, cursor: usize, addr: Addr, pc: Pc) {
        let predicted = self.predictor.probe(pc);
        loads.push(VLoad { cursor, addr, pc, predicted, conflicted: false });
    }

    /// Violation hook: a RAW violation on L2 `line` is suppressed when
    /// every load the victim tracked on that line was predicted; the
    /// guess is settled at commit. One unpredicted load and it stands.
    pub(crate) fn suppress(&self, loads: &mut [VLoad], line: Addr) -> bool {
        let shift = self.line_shift;
        let on_line = |vl: &VLoad| vl.addr.align_down(shift) == line.align_down(shift);
        if !loads.iter().any(on_line)
            || loads.iter().any(|vl| on_line(vl) && vl.predicted.is_none())
        {
            return false;
        }
        for vl in loads.iter_mut().filter(|vl| on_line(vl)) {
            vl.conflicted = true;
        }
        true
    }

    /// Rewind hook: forget the loads at or after op `cursor`.
    pub(crate) fn rewind(loads: &mut Vec<VLoad>, cursor: usize) {
        let keep = loads.partition_point(|vl| vl.cursor < cursor);
        loads.truncate(keep);
    }

    /// Commit hook, settlement: checks the load-bearing predictions of
    /// epoch `order` (next-to-commit and finished, on `cpu`) against the
    /// value model, exact now. Returns the deferred violation for the
    /// *earliest* wrong one, targeting the sub-thread that performed the
    /// load — everything before it consumed validated values and
    /// survives the rewind.
    pub(crate) fn validate(
        &self,
        loads: &[VLoad],
        cpu: usize,
        order: u32,
        checkpoints: &[usize],
    ) -> Option<PendingViolation> {
        let wrong = loads.iter().filter(|vl| vl.conflicted).find(|vl| {
            let predicted = vl.predicted.expect("conflicted implies predicted");
            predicted != value_model(vl.addr, self.stores_to(vl.addr))
        })?;
        let sub = (checkpoints.partition_point(|&c| c <= wrong.cursor) - 1) as u8;
        Some(PendingViolation {
            cpu,
            sub,
            order,
            kind: ViolationKind::ValueMispredict,
            line: wrong.addr.align_down(self.line_shift),
            store_pc: None,
        })
    }

    /// Commit hook, training. Every conflicted prediction validated
    /// correct: the would-be RAW violations are now silent hits. Trains
    /// on all tracked loads (hits and untaken predictions alike), then
    /// advances the value model's per-address store counts by the
    /// epoch's write log.
    pub(crate) fn commit(&mut self, loads: &[VLoad], stores: &[(usize, Addr, u8)]) {
        for vl in loads {
            self.predictor.train(vl.pc, value_model(vl.addr, self.stores_to(vl.addr)));
            self.predicted_hits += vl.conflicted as u64;
        }
        for &(_, addr, _) in stores {
            *self.commit_counts.entry(addr.0).or_insert(0) += 1;
        }
    }

    fn stores_to(&self, addr: Addr) -> u64 {
        self.commit_counts.get(&addr.0).copied().unwrap_or(0)
    }
}

/// SplitMix64 finalizer — a cheap, well-distributed 64-bit mixer.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The deterministic synthetic value at `addr` after `k` committed
/// stores to it (see the module doc). Address-hash classes:
/// `h % 4 ∈ {0, 1}` → constant, `2` → stride walk, `3` → noisy.
pub fn value_model(addr: Addr, k: u64) -> u64 {
    let h = mix(addr.0);
    match h % 4 {
        0 | 1 => h,
        2 => h.wrapping_add(k.wrapping_mul(8)),
        _ => mix(h ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn predictor(threshold: u8) -> ValuePredictor {
        ValuePredictor::new(&VPredictConfig { enabled: true, entries: 64, threshold })
    }

    #[test]
    fn cold_table_predicts_nothing() {
        let mut p = predictor(1);
        assert_eq!(p.probe(Pc::new(1, 1)), None);
        assert_eq!(p.covered(), 0);
        assert_eq!(p.probes(), 1);
    }

    #[test]
    fn last_value_repeats_after_threshold() {
        let mut p = predictor(2);
        let pc = Pc::new(3, 7);
        p.train(pc, 42);
        assert_eq!(p.probe(pc), None, "one confirmation is below threshold");
        p.train(pc, 42);
        assert_eq!(p.probe(pc), Some(42));
        assert_eq!(p.trainings(), 2);
    }

    #[test]
    fn stride_walk_is_extrapolated() {
        let mut p = predictor(2);
        let pc = Pc::new(5, 5);
        p.train(pc, 100);
        p.train(pc, 108); // stride 8, conf 1
        p.train(pc, 116); // stride 8, conf 2 → covered
        assert_eq!(p.probe(pc), Some(124));
        p.train(pc, 124);
        assert_eq!(p.probe(pc), Some(132));
    }

    #[test]
    fn stride_beats_last_value_when_both_confident() {
        let mut p = predictor(1);
        let pc = Pc::new(2, 2);
        p.train(pc, 10);
        p.train(pc, 20);
        p.train(pc, 30);
        // conf_last is 1 from the takeover but the stride is confirmed:
        // the prediction must extrapolate, not repeat.
        assert_eq!(p.probe(pc), Some(40));
    }

    #[test]
    fn changing_values_drop_coverage() {
        let mut p = predictor(2);
        let pc = Pc::new(4, 4);
        p.train(pc, 7);
        p.train(pc, 7);
        assert_eq!(p.probe(pc), Some(7));
        p.train(pc, 1234); // breaks both the constant and any stride
        assert_eq!(p.probe(pc), None, "one disagreement resets confidence");
    }

    #[test]
    fn displacement_takes_over_cold() {
        let mut p = predictor(1);
        // A nonzero PC: the all-zero tag doubles as "empty", exactly as
        // in the dependence predictor's table.
        let a = Pc::new(1, 0);
        p.train(a, 5);
        p.train(a, 5);
        assert_eq!(p.probe(a), Some(5));
        // Find a colliding PC (same index, different tag).
        let mut b = None;
        'outer: for m in 0..64u16 {
            for s in 0..64u16 {
                let cand = Pc::new(m, s);
                if cand != a && cand.0 != 0 && p.index(cand) == p.index(a) {
                    b = Some(cand);
                    break 'outer;
                }
            }
        }
        let b = b.expect("collision exists in a 64-entry table");
        p.train(b, 9);
        assert_eq!(p.probe(a), None, "displaced");
        assert_eq!(p.probe(b), Some(9));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_table_size_panics() {
        let _ = ValuePredictor::new(&VPredictConfig { enabled: true, entries: 48, threshold: 1 });
    }

    #[test]
    fn value_model_is_deterministic_and_classed() {
        // Pure function: same inputs, same outputs.
        assert_eq!(value_model(Addr(0x4000), 3), value_model(Addr(0x4000), 3));
        // Find one address of each class in a small pool.
        let (mut constant, mut stride, mut noisy) = (None, None, None);
        for i in 0..64u64 {
            let a = Addr(0x4000 + 8 * i);
            let h = mix(a.0);
            match h % 4 {
                0 | 1 => constant = constant.or(Some(a)),
                2 => stride = stride.or(Some(a)),
                _ => noisy = noisy.or(Some(a)),
            }
        }
        let c = constant.expect("constant class present");
        assert_eq!(value_model(c, 0), value_model(c, 17));
        let s = stride.expect("stride class present");
        assert_eq!(value_model(s, 5).wrapping_sub(value_model(s, 4)), 8);
        let n = noisy.expect("noisy class present");
        assert_ne!(value_model(n, 0), value_model(n, 1));
    }

    #[test]
    fn last_value_predictor_learns_the_constant_class() {
        // End-to-end: training on the value model's constant class makes
        // the predictor's guess match the model for any store count.
        let mut p = predictor(2);
        let pc = Pc::new(9, 1);
        let addr = (0..64u64)
            .map(|i| Addr(0x7000 + 8 * i))
            .find(|a| mix(a.0) % 4 <= 1)
            .expect("constant class present");
        p.train(pc, value_model(addr, 0));
        p.train(pc, value_model(addr, 1));
        assert_eq!(p.probe(pc), Some(value_model(addr, 99)));
    }
}
