//! Shared evaluation vocabulary: workload scale, per-benchmark instance
//! counts, the paper machine, and terminal rendering of breakdown stacks.
//!
//! These helpers used to live in `tls-bench`; they moved here so the
//! experiment plans (and the `suite` driver) can use them without a
//! dependency cycle. `tls-bench` re-exports them unchanged.

use tls_core::{CmpConfig, SimReport};
use tls_minidb::{TpccConfig, Transaction};

/// Workload scale selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Full single-warehouse TPC-C (the paper's configuration).
    Paper,
    /// Milliseconds-fast scaled-down population.
    Test,
}

impl Scale {
    /// The matching TPC-C configuration.
    pub fn tpcc(self) -> TpccConfig {
        match self {
            Scale::Paper => TpccConfig::paper(),
            Scale::Test => TpccConfig::test(),
        }
    }

    /// The scale's `--scale` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Paper => "paper",
            Scale::Test => "test",
        }
    }
}

/// How many transaction instances each benchmark records.
///
/// Per transaction size at paper scale (small transactions record more
/// instances so runs are not dominated by a single parameter draw); test
/// scale halves the count (minimum one instance) so the fast path is
/// genuinely faster while every benchmark still executes.
pub fn instances(txn: Transaction, scale: Scale) -> usize {
    let base = match txn {
        Transaction::NewOrder => 4,
        Transaction::NewOrder150 => 1,
        Transaction::Delivery => 1,
        Transaction::DeliveryOuter => 1,
        Transaction::StockLevel => 2,
        Transaction::Payment => 6,
        Transaction::OrderStatus => 6,
    };
    match scale {
        Scale::Paper => base,
        Scale::Test => base.div_ceil(2),
    }
}

/// The paper's 4-CPU machine (Table 1 + baseline sub-threads).
pub fn paper_machine() -> CmpConfig {
    let mut cfg = CmpConfig::paper_default();
    // Safety valve: no benchmark should exceed this.
    cfg.max_cycles = 4_000_000_000;
    cfg
}

/// One row of a breakdown table, normalized to a reference cycle count.
pub fn breakdown_row(report: &SimReport, reference: u64) -> String {
    let stack = report.normalized_stack(reference);
    let total: f64 = stack.iter().map(|(_, v)| v).sum();
    let cells: Vec<String> =
        stack.iter().map(|(n, v)| format!("{}={:5.3}", initials(n), v)).collect();
    format!("{} | total={:5.3}", cells.join(" "), total)
}

/// Renders a normalized breakdown as an ASCII stacked bar, 50 characters
/// per 1.0 of normalized time: `I` idle, `F` failed, `L` latch, `S` sync,
/// `M` cache miss, `D` drain stall, `B` busy — the Figure 5 bars in
/// terminal form. An
/// unknown category renders as `?` (with a warning on stderr) rather than
/// aborting the whole harness run.
pub fn render_stack(stack: &[(&'static str, f64)]) -> String {
    const CHARS_PER_UNIT: f64 = 50.0;
    let mut bar = String::new();
    let mut carry = 0.0;
    for (name, value) in stack {
        let glyph = match *name {
            "Idle" => 'I',
            "Failed" => 'F',
            "Latch Stall" => 'L',
            "Sync" => 'S',
            "Cache Miss" => 'M',
            "Drain Stall" => 'D',
            "Busy" => 'B',
            other => {
                eprintln!("warning: unknown breakdown category '{other}', rendering as '?'");
                '?'
            }
        };
        // Carry fractional cells so the bar length tracks the total.
        let exact = value * CHARS_PER_UNIT + carry;
        let cells = exact.floor() as usize;
        carry = exact - cells as f64;
        bar.extend(std::iter::repeat_n(glyph, cells));
    }
    bar
}

/// Four-letter column label of a breakdown category; unknown categories
/// degrade to `"????"` with a warning instead of panicking.
pub fn initials(name: &str) -> &'static str {
    match name {
        "Idle" => "idle",
        "Failed" => "fail",
        "Latch Stall" => "ltch",
        "Sync" => "sync",
        "Cache Miss" => "miss",
        "Drain Stall" => "drai",
        "Busy" => "busy",
        other => {
            eprintln!("warning: unknown breakdown category '{other}', rendering as '????'");
            "????"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_scale_records_fewer_instances() {
        for txn in Transaction::ALL {
            let paper = instances(txn, Scale::Paper);
            let test = instances(txn, Scale::Test);
            assert!(test >= 1, "{txn:?} must run at least once");
            assert!(test <= paper, "{txn:?} test > paper");
        }
        // The knob is live: multi-instance benchmarks genuinely shrink.
        assert!(
            instances(Transaction::Payment, Scale::Test)
                < instances(Transaction::Payment, Scale::Paper)
        );
        assert!(
            instances(Transaction::NewOrder, Scale::Test)
                < instances(Transaction::NewOrder, Scale::Paper)
        );
    }

    #[test]
    fn render_stack_length_tracks_total() {
        let stack = vec![("Idle", 0.5), ("Busy", 0.5)];
        let bar = render_stack(&stack);
        assert_eq!(bar.len(), 50);
        assert!(bar.starts_with('I') && bar.ends_with('B'));
        let half = vec![("Busy", 0.25)];
        assert_eq!(render_stack(&half).len(), 12);
    }

    #[test]
    fn unknown_category_degrades_instead_of_panicking() {
        let stack = vec![("Busy", 0.1), ("Gremlins", 0.1)];
        let bar = render_stack(&stack);
        assert_eq!(bar.len(), 10);
        assert!(bar.contains('?'));
        assert_eq!(initials("Gremlins"), "????");
    }
}
