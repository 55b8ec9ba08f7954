//! End-to-end properties of the batched sweep engine:
//!
//! 1. **Worker-count neutrality** — the JSONL row stream and the summary
//!    artifact are byte-identical at `--jobs 1` and `--jobs 4`.
//! 2. **Batching is an optimization, not a semantic** — every sampled
//!    row equals a from-scratch individual simulation of the same
//!    (seed, machine) point, down to the embedded report JSON.
//! 3. **Crash resume** — truncating the row file mid-line (what a
//!    `kill -9` leaves behind) and re-running with `--resume` converges
//!    on the byte-identical full artifact without re-running the intact
//!    prefix.
//! 4. **Rows splice cached bytes** — every report a cold pass of the CI
//!    grid caches is the canonical encoding of itself, its cache entry
//!    carries its cycle count, and a warm pass that neither simulates nor
//!    decodes writes the same rows as a cold and an uncached pass.

use std::path::{Path, PathBuf};
use tls_core::{CmpSimulator, RunOptions, SimReport};
use tls_harness::store::HarnessStore;
use tls_harness::sweep::{run_sweep, SweepOptions, SweepPlan, SweepSpec};
use tls_harness::Scale;

const GRID: &str = r#"{
    "name": "itest",
    "benchmark": "payment",
    "count": 1,
    "seeds": [11, 12],
    "spacings": [1500, 4000],
    "contexts": [2, 4],
    "mem_latencies": [50, 100]
}"#;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tls-sweep-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn options(tag: &str, traces: &Path, jobs: usize) -> SweepOptions {
    SweepOptions {
        spec_path: PathBuf::new(),
        scale: Scale::Test,
        jobs,
        out_dir: fresh_dir(tag),
        trace_dir: Some(traces.to_path_buf()),
        filter: None,
        resume: false,
        bench_path: fresh_dir(tag).join("BENCH.json"),
        baseline_sample: 0,
        quiet: true,
    }
}

#[test]
fn sweep_rows_are_worker_count_neutral_and_match_individual_sims() {
    let traces = fresh_dir("traces");
    let plan = SweepPlan::new(SweepSpec::parse(GRID).expect("grid parses"), Scale::Test);
    assert_eq!(plan.spec.total_points(), 16);

    let serial = options("serial", &traces, 1);
    let wide = options("wide", &traces, 4);
    let a = run_sweep(&plan, &serial).expect("serial sweep");
    let b = run_sweep(&plan, &wide).expect("wide sweep");
    assert_eq!(a.executed_points, 16);
    assert_eq!(b.executed_points, 16);

    let rows_a = std::fs::read(&a.rows_path).expect("serial rows");
    let rows_b = std::fs::read(&b.rows_path).expect("wide rows");
    assert_eq!(rows_a, rows_b, "row stream depends on worker count");
    let sum_a = std::fs::read(&a.summary_path).expect("serial summary");
    let sum_b = std::fs::read(&b.summary_path).expect("wide summary");
    assert_eq!(sum_a, sum_b, "summary depends on worker count");

    // Re-simulate a sample of points individually — cold store, no
    // report cache — and check each row embeds exactly that report.
    let text = String::from_utf8(rows_a).expect("utf8 rows");
    let rows: Vec<&str> = text.lines().collect();
    assert_eq!(rows.len(), 16);
    let selected = plan.selected(None);
    let store = HarnessStore::new(Some(traces.clone()), false);
    for idx in [0usize, 5, 10, 15] {
        let (ci, point) = selected[idx];
        let (cfg, _) = plan.config(ci);
        let programs = store.programs(&plan.trace_key(point.seed));
        let report = CmpSimulator::new(*cfg).run_view(
            &programs.tls.view(),
            RunOptions::checked_default(),
            None,
        );
        let expected_tail =
            format!("\"report\":{}}}", serde_json::to_string(&report).expect("serialize"));
        assert!(
            rows[idx].ends_with(&expected_tail),
            "row {idx} ({}) does not embed the individually-computed report",
            point.key()
        );
        assert!(rows[idx].contains(&format!("\"point\":\"{}\"", point.key())));
    }

    for dir in [&serial.out_dir, &wide.out_dir, &traces] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn torn_row_file_resumes_to_the_byte_identical_artifact() {
    let traces = fresh_dir("rtraces");
    let plan = SweepPlan::new(SweepSpec::parse(GRID).expect("grid parses"), Scale::Test);

    let full_opts = options("rfull", &traces, 2);
    let full = run_sweep(&plan, &full_opts).expect("full sweep");
    let full_rows = std::fs::read(&full.rows_path).expect("full rows");

    // Leave a torn prefix: 7 whole rows plus half of the 8th.
    let torn_opts = {
        let mut o = options("rtorn", &traces, 2);
        o.resume = true;
        o
    };
    std::fs::create_dir_all(&torn_opts.out_dir).expect("mkdir");
    let torn_path = torn_opts.out_dir.join("sweep_itest.jsonl");
    let text = String::from_utf8(full_rows.clone()).expect("utf8");
    let offsets: Vec<usize> = text.match_indices('\n').map(|(i, _)| i + 1).collect();
    assert!(offsets.len() >= 8);
    let cut = offsets[6] + (offsets[7] - offsets[6]) / 2;
    std::fs::write(&torn_path, &full_rows[..cut]).expect("write torn prefix");

    let resumed = run_sweep(&plan, &torn_opts).expect("resumed sweep");
    assert_eq!(resumed.resumed_points, 7, "intact rows are not re-run");
    assert_eq!(resumed.executed_points, 9, "torn + missing rows are re-run");
    let resumed_rows = std::fs::read(&resumed.rows_path).expect("resumed rows");
    assert_eq!(resumed_rows, full_rows, "resume converges on the full artifact");
    let resumed_summary = std::fs::read(&resumed.summary_path).expect("resumed summary");
    let full_summary = std::fs::read(&full.summary_path).expect("full summary");
    assert_eq!(resumed_summary, full_summary, "aggregates fold resumed rows in");

    for dir in [&full_opts.out_dir, &torn_opts.out_dir, &traces] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn ci_grid_rows_splice_cached_report_bytes() {
    let plan = SweepPlan::new(
        SweepSpec::parse(include_str!("../specs/sweep_grid.json")).expect("CI grid parses"),
        Scale::Test,
    );
    let points = plan.spec.total_points() as u64;
    let traces = fresh_dir("ci-traces");
    // (rows, summary, store counters) of one pass; `None` runs uncached.
    let pass = |tag: &str, cache: Option<&Path>, jobs: usize| {
        let mut opts = options(tag, &traces, jobs);
        opts.trace_dir = cache.map(Path::to_path_buf);
        let out = run_sweep(&plan, &opts).expect("sweep");
        let rows = std::fs::read(&out.rows_path).expect("rows");
        let summary = std::fs::read(&out.summary_path).expect("summary");
        let _ = std::fs::remove_dir_all(&opts.out_dir);
        (rows, summary, out.store_stats.snapshot())
    };

    let (rows, summary, cold) = pass("ci-cold", Some(&traces), 2);
    assert_eq!(cold[5] + cold[13], points, "a cold pass simulates or envelope-answers each point");

    // Every cached report is its own canonical compact encoding, and the
    // cycle count its cache entry carries is the report's.
    let store = HarnessStore::new(Some(traces.clone()), true);
    for (ci, point) in plan.selected(None) {
        let programs = store.programs(&plan.trace_key(point.seed));
        let (cfg, cfg_json) = plan.config(ci);
        let entry = store.report_json(&programs.tls, cfg, cfg_json);
        let decoded: SimReport = serde_json::from_str(&entry.json).expect("cached report decodes");
        let canonical = serde_json::to_string(&decoded).expect("report serializes");
        assert_eq!(entry.json, canonical, "{}: cached bytes are not canonical", point.key());
        assert_eq!(entry.total_cycles, decoded.total_cycles, "{}", point.key());
    }
    let read = store.stats.snapshot();
    assert_eq!((read[4], read[5]), (points, 0), "every entry was read from its cache file");

    for jobs in [1, 2] {
        let (warm_rows, warm_summary, warm) = pass(&format!("ci-warm{jobs}"), Some(&traces), jobs);
        assert_eq!(warm_rows, rows, "warm rows at --jobs {jobs}");
        assert_eq!(warm_summary, summary, "warm summary at --jobs {jobs}");
        assert_eq!(warm[4], points, "a warm pass reads every report from disk");
        assert_eq!(warm[5], 0, "a warm pass simulates nothing");
        assert_eq!(warm[12], 0, "a warm pass decodes no report");
        let (bare_rows, bare_summary, _) = pass(&format!("ci-bare{jobs}"), None, jobs);
        assert_eq!(bare_rows, rows, "uncached rows at --jobs {jobs}");
        assert_eq!(bare_summary, summary, "uncached summary at --jobs {jobs}");
    }
    let _ = std::fs::remove_dir_all(&traces);
}
