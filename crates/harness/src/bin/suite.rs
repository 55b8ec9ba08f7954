//! The unified evaluation driver: every figure/table/study of the
//! reproduction as one parallel, cached, regression-checked run.
//!
//! Usage: `cargo run --release -p tls-harness --bin suite -- [options]`
//! (see `--help` for the option list).

use tls_harness::{suite, sweep};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("trace") => suite::run_trace_verb(&args[1..]),
        Some("workload") => suite::run_workload_verb(&args[1..]),
        Some("sweep") => sweep::run_sweep_verb(&args[1..]),
        _ => match suite::SuiteOptions::parse(&args) {
            Ok(opts) => suite::run_suite(&opts),
            Err(e) => e.report(),
        },
    };
    std::process::exit(code);
}
