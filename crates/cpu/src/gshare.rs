//! The gshare branch predictor (Table 1: "GShare (16KB, 8 history bits)").

use tls_trace::Pc;

/// A gshare predictor: a table of 2-bit saturating counters indexed by the
/// branch PC XORed with the global branch-history register.
///
/// ```
/// use tls_cpu::Gshare;
/// use tls_trace::Pc;
///
/// let mut p = Gshare::new(16 * 1024, 8);
/// let pc = Pc::new(1, 1);
/// // An always-taken branch trains quickly.
/// for _ in 0..4 { p.predict_and_update(pc, true); }
/// assert!(p.predict_and_update(pc, true));
/// ```
#[derive(Debug, Clone)]
pub struct Gshare {
    counters: Vec<u8>,
    mask: u32,
    history: u32,
    history_mask: u32,
    lookups: u64,
    mispredicts: u64,
}

impl Gshare {
    /// A predictor with `table_bytes` of 2-bit counters (4 counters per
    /// byte) and `history_bits` of global history.
    ///
    /// # Panics
    ///
    /// Panics if `table_bytes` is zero or the entry count is not a power
    /// of two, or if `history_bits` exceeds 31.
    pub fn new(table_bytes: usize, history_bits: u32) -> Self {
        let entries = table_bytes * 4;
        assert!(entries > 0 && entries.is_power_of_two(), "gshare table must be a power of two");
        assert!(history_bits <= 31, "history too long");
        Gshare {
            // Initialize to weakly taken: backward loop branches predict
            // well from the start, as real tables warmed by prior code do.
            counters: vec![2; entries],
            mask: entries as u32 - 1,
            history: 0,
            history_mask: (1u32 << history_bits) - 1,
            lookups: 0,
            mispredicts: 0,
        }
    }

    fn index(&self, pc: Pc) -> usize {
        // Branch PCs are word-granular; fold the history into the low bits.
        ((pc.0 ^ self.history) & self.mask) as usize
    }

    /// Predicts the branch at `pc`, then updates the counter and global
    /// history with the actual outcome. Returns whether the *prediction*
    /// was correct.
    #[inline]
    pub fn predict_and_update(&mut self, pc: Pc, taken: bool) -> bool {
        let i = self.index(pc);
        let predicted_taken = self.counters[i] >= 2;
        let correct = predicted_taken == taken;
        self.lookups += 1;
        if !correct {
            self.mispredicts += 1;
        }
        if taken {
            self.counters[i] = (self.counters[i] + 1).min(3);
        } else {
            self.counters[i] = self.counters[i].saturating_sub(1);
        }
        self.history = ((self.history << 1) | taken as u32) & self.history_mask;
        correct
    }

    /// Branches predicted so far.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Mispredictions so far.
    pub fn mispredicts(&self) -> u64 {
        self.mispredicts
    }

    /// Misprediction ratio in `0..=1` (0 before any lookup).
    pub fn mispredict_ratio(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.lookups as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_a_biased_branch() {
        let mut p = Gshare::new(1024, 8);
        let pc = Pc::new(0, 4);
        for _ in 0..8 {
            p.predict_and_update(pc, true);
        }
        assert!(p.predict_and_update(pc, true));
        // After heavy taken-training, a single not-taken mispredicts.
        assert!(!p.predict_and_update(pc, false));
    }

    #[test]
    fn learns_a_history_pattern() {
        // Alternating T/N/T/N is perfectly predictable with history.
        let mut p = Gshare::new(4096, 8);
        let pc = Pc::new(0, 8);
        let mut outcome = false;
        for _ in 0..64 {
            outcome = !outcome;
            p.predict_and_update(pc, outcome);
        }
        let before = p.mispredicts();
        for _ in 0..64 {
            outcome = !outcome;
            p.predict_and_update(pc, outcome);
        }
        assert_eq!(p.mispredicts(), before, "pattern should be fully learned");
    }

    #[test]
    fn ratio_accounts_lookups() {
        let mut p = Gshare::new(64, 2);
        let pc = Pc::new(0, 0);
        p.predict_and_update(pc, true);
        p.predict_and_update(pc, true);
        assert_eq!(p.lookups(), 2);
        assert!(p.mispredict_ratio() <= 0.5);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_table_panics() {
        let _ = Gshare::new(3, 2);
    }
}
