//! Development probe: run one benchmark through all five Figure-5
//! experiments and print the raw dynamics (used to calibrate the workload
//! against Table 2 / Figure 5 shapes; not itself a paper artifact).

use tls_bench::{breakdown_row, paper_machine, record_benchmark};
use tls_core::experiment::{run_benchmark, ExperimentKind};
use tls_harness::cli::{self, Shared};
use tls_minidb::Transaction;

const USAGE: &str = "usage: probe [<benchmark>] [--scale paper|test] [--profile]\n";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut txn = None;
    let mut profile = false;
    // A name must parse: silently running all seven benchmarks on a typo
    // wastes minutes and hides the mistake.
    let parsed = cli::parse(&args, USAGE, &[Shared::Scale], |arg, _| {
        match arg {
            "--profile" => profile = true,
            name if txn.is_none() && !name.starts_with("--") => txn = Some(cli::benchmark(name)?),
            _ => return Ok(false),
        }
        Ok(true)
    });
    let scale = match parsed {
        Ok(shared) => shared.scale,
        Err(e) => std::process::exit(e.report()),
    };
    let txns = txn.map_or_else(|| Transaction::ALL.to_vec(), |t| vec![t]);
    let machine = paper_machine();
    for txn in txns {
        let count = tls_bench::instances(txn, scale);
        let progs = record_benchmark(&scale.tpcc(), txn, count);
        let stats = progs.tls.stats();
        println!(
            "\n=== {} ({} txns): {} ops, {} epochs avg {:.0} ops, coverage {:.1}%",
            txn.label(),
            count,
            stats.total_ops,
            stats.epochs,
            stats.avg_epoch_ops(),
            100.0 * stats.coverage()
        );
        let results = run_benchmark(&machine, &progs);
        let seq = results
            .iter()
            .find(|(k, _)| *k == ExperimentKind::Sequential)
            .map(|(_, r)| r.total_cycles)
            .unwrap();
        for (kind, r) in &results {
            println!(
                "{:14} {:>12} cyc  speedup {:5.2}  viol p/s/o {:>4}/{:>4}/{:>3}  subs {:>4}  {}",
                kind.label(),
                r.total_cycles,
                seq as f64 / r.total_cycles as f64,
                r.violations.primary,
                r.violations.secondary,
                r.violations.overflow,
                r.subthreads_started,
                breakdown_row(r, seq),
            );
            if profile {
                for e in r.profile.iter().take(6) {
                    println!(
                        "    load {:?} <- store {:?}: {} failed cycles over {} violations",
                        e.load_pc, e.store_pc, e.failed_cycles, e.violations
                    );
                }
            }
        }
    }
}
