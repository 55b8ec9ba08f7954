//! Shared code for the standalone tools in `src/bin/`.
//!
//! Every paper artifact (Table 2, Figures 2/5/6, the ablations and the
//! extension studies) comes from the declarative plans in `tls-harness`,
//! run by `cargo run --release -p tls-harness --bin suite -- --filter
//! <plan>`. The binaries here are the tools that are not plans:
//!
//! | binary | what it does |
//! |---|---|
//! | `table1` | Table 1 — simulation parameters (`--json DIR`) |
//! | `chaos` | fault-injection survival matrix; exits non-zero below its gate |
//! | `recovery` | MiniDB crash-recovery oracle over seeded disk faults |
//! | `kernel` | per-op host costs of the simulator and store, writes `BENCH_kernel.json` |
//! | `probe` | development probe (all experiments for one benchmark) |
//! | `benchmark` | the repository benchmark defined by `BENCHMARK.json` |
//!
//! The evaluation vocabulary ([`Scale`], [`instances`], [`paper_machine`],
//! the stack renderers) lives in `tls-harness::eval` and is re-exported
//! here unchanged.

#![forbid(unsafe_code)]

use tls_core::experiment::BenchmarkPrograms;
use tls_minidb::{Tpcc, TpccConfig, Transaction};

pub use tls_harness::eval::{
    breakdown_row, initials, instances, paper_machine, render_stack, Scale,
};

/// Records the (plain, TLS) program pair for one benchmark.
pub fn record_benchmark(cfg: &TpccConfig, txn: Transaction, count: usize) -> BenchmarkPrograms {
    let (plain, tls) = Tpcc::record_pair(cfg, txn, count);
    BenchmarkPrograms { plain, tls }
}

/// The optional `--json DIR` output directory.
pub fn json_dir(args: &[String]) -> Option<std::path::PathBuf> {
    args.iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from)
}

/// Writes `value` as pretty JSON under `dir/name.json` when requested.
pub fn write_json<T: serde::Serialize>(dir: &Option<std::path::PathBuf>, name: &str, value: &T) {
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir).expect("create json dir");
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, serde_json::to_string_pretty(value).expect("serialize"))
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        eprintln!("wrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn record_benchmark_produces_both_traces() {
        let progs = record_benchmark(&TpccConfig::test(), Transaction::NewOrder, 1);
        assert_eq!(progs.plain.stats().epochs, 0);
        assert!(progs.tls.stats().epochs >= 5);
    }
}
