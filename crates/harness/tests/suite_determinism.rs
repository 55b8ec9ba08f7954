//! End-to-end determinism guarantees of the harness:
//!
//! * any `--jobs` value produces byte-identical artifacts;
//! * a cache-cold run and a cache-warm (disk snapshot) run produce
//!   byte-identical artifacts;
//! * the suite driver's baseline comparison accepts its own output.
//!
//! Runs a representative subset of plans at test scale (debug-build
//! simulation is slow; the full matrix runs in CI via
//! `suite --scale test`).

use std::collections::BTreeMap;
use std::path::PathBuf;
use tls_harness::eval::{paper_machine, Scale};
use tls_harness::plan::{find_plan, PlanCtx};
use tls_harness::runner::JobPool;
use tls_harness::store::HarnessStore;

const PLANS: [&str; 3] = ["figure2", "table2", "tuning_curve"];

fn run_plans(store: &HarnessStore, jobs: usize) -> BTreeMap<&'static str, (String, String)> {
    let pool = JobPool::new(jobs);
    let ctx = PlanCtx { scale: Scale::Test, machine: paper_machine(), store, pool: &pool };
    PLANS
        .iter()
        .map(|&name| {
            let plan = find_plan(name).expect("plan exists");
            let out = (plan.run)(&ctx);
            (name, (out.json, out.text))
        })
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tls-suite-{tag}-{}", std::process::id()))
}

#[test]
fn jobs_1_and_jobs_8_are_byte_identical() {
    let store = HarnessStore::new(None, true);
    let serial = run_plans(&store, 1);
    let parallel = run_plans(&store, 8);
    for name in PLANS {
        assert_eq!(serial[name].0, parallel[name].0, "{name} JSON differs across --jobs");
        assert_eq!(serial[name].1, parallel[name].1, "{name} text differs across --jobs");
    }
}

#[test]
fn cold_and_warm_caches_are_byte_identical() {
    let dir = temp_dir("coldwarm");
    let _ = std::fs::remove_dir_all(&dir);

    let cold_store = HarnessStore::new(Some(dir.clone()), true);
    let cold = run_plans(&cold_store, 2);
    assert!(cold_store.stats.snapshot()[2] > 0, "cold run must record traces");

    let warm_store = HarnessStore::new(Some(dir.clone()), true);
    let warm = run_plans(&warm_store, 2);
    assert_eq!(warm_store.stats.snapshot()[2], 0, "warm run must not re-record");
    assert!(
        warm_store.stats.snapshot()[1] + warm_store.stats.snapshot()[4] > 0,
        "warm run must hit the disk cache"
    );

    for name in PLANS {
        assert_eq!(cold[name].0, warm[name].0, "{name} JSON differs cold vs warm");
        assert_eq!(cold[name].1, warm[name].1, "{name} text differs cold vs warm");
    }

    // An uncached from-scratch run agrees too: the cache is transparent.
    let uncached = run_plans(&HarnessStore::uncached(), 1);
    for name in PLANS {
        assert_eq!(cold[name].0, uncached[name].0, "{name} JSON differs vs uncached");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn suite_driver_round_trips_through_its_own_baseline() {
    let out_a = temp_dir("suite-a");
    let out_b = temp_dir("suite-b");
    let traces = temp_dir("suite-traces");
    for d in [&out_a, &out_b, &traces] {
        let _ = std::fs::remove_dir_all(d);
    }

    let args: Vec<String> = [
        "--scale",
        "test",
        "--filter",
        "figure2,table2",
        "--quiet",
        "--traces",
        traces.to_str().unwrap(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();

    let mut opts = tls_harness::suite::SuiteOptions::parse(&args).expect("parse");
    opts.out_dir = out_a.clone();
    opts.bench_path = out_a.join("BENCH_suite.json");
    assert_eq!(tls_harness::suite::run_suite(&opts), 0, "first run succeeds");
    assert!(out_a.join("figure2.json").is_file());
    assert!(out_a.join("BENCH_suite.json").is_file());

    // Second run, compared against the first: no drift.
    let mut opts = tls_harness::suite::SuiteOptions::parse(&args).expect("parse");
    opts.out_dir = out_b.clone();
    opts.bench_path = out_b.join("BENCH_suite.json");
    opts.baseline = Some(out_a.clone());
    assert_eq!(tls_harness::suite::run_suite(&opts), 0, "no drift against own baseline");

    // Tamper with a cycle count in the baseline: the comparison fails.
    let path = out_a.join("table2.json");
    let json = std::fs::read_to_string(&path).expect("read artifact");
    let tampered = json.replacen("\"exec_mcycles\":", "\"exec_mcycles_renamed\":", 1);
    assert_ne!(json, tampered, "tamper must change the artifact");
    std::fs::write(&path, tampered).expect("rewrite");
    let mut opts = tls_harness::suite::SuiteOptions::parse(&args).expect("parse");
    opts.out_dir = out_b.clone();
    opts.bench_path = out_b.join("BENCH_suite.json");
    opts.baseline = Some(out_a.clone());
    assert_eq!(tls_harness::suite::run_suite(&opts), 1, "drift must fail the run");

    for d in [&out_a, &out_b, &traces] {
        let _ = std::fs::remove_dir_all(d);
    }
}
