//! Fault-tolerant suite runtime, end to end: a forced plan panic plus a
//! pre-corrupted snapshot must not stop the campaign (both quarantined,
//! remaining plans complete, exit non-zero with a structured summary),
//! and a suite killed with SIGKILL mid-run must resume to artifacts
//! byte-identical to an uninterrupted run.

use std::path::{Path, PathBuf};
use std::process::Command;
use tls_harness::suite::{run_suite, SuiteOptions};

const PLANS: &str = "figure2,table2";
const ARTIFACTS: [&str; 4] = ["figure2.json", "figure2.txt", "table2.json", "table2.txt"];

fn fresh_base(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tls-suite-ft-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

fn opts(out: &Path, traces: &Path, bench: &Path) -> SuiteOptions {
    SuiteOptions {
        scale: tls_harness::Scale::Test,
        jobs: 2,
        filter: Some(PLANS.to_string()),
        out_dir: out.to_path_buf(),
        trace_dir: Some(traces.to_path_buf()),
        bench_path: bench.to_path_buf(),
        quiet: true,
        ..SuiteOptions::default()
    }
}

#[test]
fn forced_panic_and_corrupt_snapshot_quarantine_without_stopping_the_suite() {
    let base = fresh_base("quarantine");
    let traces = base.join("traces");

    // Healthy reference run: populates the snapshot cache and the
    // artifacts the degraded run must still match for healthy plans.
    let reference = opts(&base.join("ref"), &traces, &base.join("bench_ref.json"));
    assert_eq!(run_suite(&reference), 0, "reference run must pass");

    // Corrupt every trace snapshot the suite just wrote.
    let mut corrupted = 0;
    for entry in std::fs::read_dir(&traces).expect("traces dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "trace") {
            let mut bytes = std::fs::read(&path).expect("read snapshot");
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xFF;
            std::fs::write(&path, &bytes).expect("corrupt snapshot");
            corrupted += 1;
        }
    }
    assert!(corrupted > 0, "the reference run should have cached trace snapshots");

    // Degraded run: one plan forced to panic, every snapshot corrupt.
    let mut degraded = opts(&base.join("out"), &traces, &base.join("bench.json"));
    degraded.force_panic = Some("table2".to_string());
    assert_eq!(run_suite(&degraded), 1, "a quarantined plan means a non-zero exit");

    // The healthy plan still completed, byte-identical to the reference.
    let healthy = std::fs::read(base.join("out/figure2.json")).expect("healthy plan artifact");
    assert_eq!(healthy, std::fs::read(base.join("ref/figure2.json")).unwrap());
    assert!(!base.join("out/table2.json").exists(), "quarantined plan writes no artifact");

    // Structured failure summary in the bench report.
    let bench = std::fs::read_to_string(base.join("bench.json")).expect("bench report");
    assert!(bench.contains("\"failures\""), "bench has a failures section: {bench}");
    assert!(bench.contains("table2") && bench.contains("panicked"), "{bench}");
    assert!(bench.contains("forced panic via --force-panic"), "{bench}");

    // Every corrupt snapshot was quarantined (with evidence) and healed.
    let bench_json = serde::parse(&bench).expect("bench report is JSON");
    let field = |obj: &serde::Value, name: &str| -> serde::Value {
        obj.as_object()
            .and_then(|pairs| pairs.iter().find(|(k, _)| k == name))
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| panic!("bench report missing '{name}': {bench}"))
    };
    let quarantined = match field(&field(&bench_json, "cache"), "snapshots_quarantined") {
        serde::Value::Int(n) => n as u64,
        other => panic!("snapshots_quarantined is not a number: {other:?}"),
    };
    assert_eq!(quarantined, corrupted, "every corrupt snapshot healed");
    assert!(traces.join("quarantine").is_dir(), "quarantine dir holds the evidence");

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn kill_minus_nine_then_resume_produces_byte_identical_artifacts() {
    let base = fresh_base("resume");
    let suite = env!("CARGO_BIN_EXE_suite");
    let traces = base.join("traces");
    let args = |out: &Path, bench: &str| -> Vec<String> {
        [
            "--scale",
            "test",
            "--filter",
            PLANS,
            "--out",
            out.to_str().unwrap(),
            "--traces",
            traces.to_str().unwrap(),
            "--bench",
            base.join(bench).to_str().unwrap(),
            "--quiet",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    };

    // Uninterrupted reference run.
    let cold = base.join("cold");
    let status = Command::new(suite).args(args(&cold, "bench_cold.json")).status().unwrap();
    assert!(status.success(), "cold run failed");

    // Victim run: SIGKILL lands wherever it lands — possibly before the
    // first plan, possibly after the last. Every landing point must
    // resume to the same bytes.
    let warm = base.join("warm");
    let mut victim =
        Command::new(suite).args(args(&warm, "bench_victim.json")).spawn().expect("spawn victim");
    std::thread::sleep(std::time::Duration::from_millis(300));
    let _ = victim.kill(); // SIGKILL on unix; already-exited is fine
    let _ = victim.wait();

    let mut resume_args = args(&warm, "bench_resume.json");
    resume_args.push("--resume".to_string());
    let status = Command::new(suite).args(resume_args).status().unwrap();
    assert!(status.success(), "resumed run failed");

    for name in ARTIFACTS {
        let a = std::fs::read(cold.join(name)).unwrap_or_else(|e| panic!("cold {name}: {e}"));
        let b = std::fs::read(warm.join(name)).unwrap_or_else(|e| panic!("warm {name}: {e}"));
        assert_eq!(a, b, "{name} differs between cold and killed+resumed runs");
    }
    assert!(warm.join(".run_manifest.jsonl").is_file(), "manifest records completions");

    let _ = std::fs::remove_dir_all(&base);
}
