//! `benchmark` — the repository benchmark.
//!
//! Four batch workloads drive the harness's public entry points on a
//! two-worker pool and are timed from outside; a traced run records spans
//! around each layer call and splits host time by layer. Every run checks
//! its outputs against the invariants and the committed artifacts, and
//! any seed but the default adds a held-out pass on reseeded inputs. See
//! README.md beside this file for the metrics, the workloads and the
//! measured spreads.
//!
//! ```text
//! cargo run --release -p tls-bench --bin benchmark -- \
//!     --workload sweep_ci --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The same file also builds as a package of its own, from the manifest
//! beside it (`--manifest-path crates/bench/src/bin/benchmark/Cargo.toml`).
//!
//! Each metric is printed as `workload metric value unit`; the last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. The exit code is 0 only when every operation
//! succeeded and every check passed.

mod checks;
mod report;
mod spans;
mod stats;
mod workloads;

use checks::Tally;
use report::Metric;
use serde::Value;
use spans::Tracer;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use tls_harness::JobPool;
use workloads::{Env, LayerWork, RunResult, Seed, Workload, WORKERS};

const USAGE: &str = "\
usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--repeat N]
  --workload  tpcc_figure5 | collider_mechanisms | sweep_ci | sweep_ci_warm
              (default: all four, each in a child process)
  --seed      workload seed; 1 (the default) runs in the suite's order, any
              other seed shuffles the order and adds a held-out pass on
              inputs reseeded from it
  --seconds   length of the timed phase, whole seconds >= 1 (default 15)
  --trace     1 records spans and reports the per-layer metrics (default 0)
  --repeat    runs N child processes on seeds S, S+1, ..., S+N-1 (S from
              --seed) and prints each metric's median and quartiles";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a =
        Args { workload: None, seed: Seed::DEFAULT.0, seconds: 15, trace: false, repeat: 1 };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: Result<&String, String>| -> Result<u64, String> {
            let v = v?;
            v.parse().map_err(|_| format!("{flag} needs a whole number, got '{v}'"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value?;
                a.workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload '{v}'"))?);
            }
            "--seed" => a.seed = number(value)?,
            "--seconds" => a.seconds = number(value)?.max(1),
            "--trace" => {
                a.trace = match value?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got '{v}'")),
                }
            }
            "--repeat" => a.repeat = number(value)?.max(1) as usize,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match a.workload {
        Some(w) if a.repeat == 1 => run_one(w, &a),
        _ => run_children(&a),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The repository root, fixed at build time: the nearest directory above
/// the building manifest (this package's or tls-bench's) that holds
/// `BENCHMARK.json`. The benchmark reads the committed artifacts and the
/// sweep grid there and writes only under its `target/benchmark/`.
fn repo_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = manifest.ancestors().find(|d| d.join("BENCHMARK.json").is_file());
    root.unwrap_or(manifest).to_path_buf()
}

/// A directory removed when dropped (also when the run fails).
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one workload in this process and prints its result.
fn run_one(w: Workload, a: &Args) -> bool {
    let root = repo_root();
    let out_dir = root.join("target/benchmark");
    let scratch = Scratch(out_dir.join(format!("run-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&scratch.0) {
        eprintln!("benchmark: cannot create {}: {e}", scratch.0.display());
        return false;
    }
    let tracer = Tracer::new();
    let tally = Tally::default();
    let env = Env {
        root: &root,
        scratch: &scratch.0,
        tracer: &tracer,
        tally: &tally,
        pool: JobPool::new(WORKERS),
        seed: Seed(a.seed),
        work: LayerWork::default(),
    };
    eprintln!(
        "benchmark: {} seed {} for {} s{}",
        w.name(),
        a.seed,
        a.seconds,
        if a.trace { ", traced" } else { "" }
    );
    let r = match workloads::run(w, &env, a.seconds as f64, a.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark: {}: {e}", w.name());
            return false;
        }
    };
    let metrics = if a.trace {
        let spans = tracer.spans();
        let metrics = report::per_layer(&r, &spans, &env.work);
        if let Err(e) = write_trace_files(&out_dir, w, a.seed, &r, &spans, &metrics, &tracer) {
            tally.fail(&format!("trace output: {e}"));
        }
        metrics
    } else {
        report::end_to_end(&r)
    };
    for m in &metrics {
        println!("{} {} {} {}", w.name(), m.name, m.value, m.unit);
    }
    let ok = tally.failed() == 0;
    let named: Vec<(String, f64, String)> =
        metrics.iter().map(|m| (m.name.to_string(), m.value, m.unit.to_string())).collect();
    println!("{}", result_json(ok, tally.attempted(), tally.failed(), &named));
    ok
}

/// Writes the per-layer table and the Chrome trace of a traced run.
fn write_trace_files(
    out_dir: &Path,
    w: Workload,
    seed: u64,
    r: &RunResult,
    spans: &[spans::Span],
    metrics: &[Metric],
    tracer: &Tracer,
) -> std::io::Result<()> {
    let stem = out_dir.join(format!("{}-seed{seed}", w.name()));
    let layers = stem.with_extension("layers.json");
    let trace = stem.with_extension("trace.json");
    std::fs::write(&layers, report::layer_table_json(w.name(), seed, r, spans, metrics))?;
    std::fs::write(&trace, spans::chrome_trace(spans, w.name(), tracer.main_thread()))?;
    eprintln!("benchmark: wrote {} and {}", layers.display(), trace.display());
    Ok(())
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, String)],
) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        fields.join(",")
    )
}

/// A child's parsed result line.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

fn parse_result(line: &str) -> Option<ChildResult> {
    let v = serde::parse(line).ok()?;
    let get = |k: &str| v.as_object()?.iter().find(|(n, _)| n == k).map(|(_, v)| v);
    let int = |k: &str| match get(k) {
        Some(Value::Int(n)) => u64::try_from(*n).ok(),
        _ => None,
    };
    let metrics = get("metrics")?
        .as_object()?
        .iter()
        .map(|(name, m)| {
            let pairs = m.as_object()?;
            let field = |k: &str| pairs.iter().find(|(n, _)| n == k).map(|(_, v)| v);
            let value = match field("value")? {
                Value::Float(x) => *x,
                Value::Int(n) => *n as f64,
                _ => return None,
            };
            Some((name.clone(), value, field("unit")?.as_str()?.to_string()))
        })
        .collect::<Option<Vec<_>>>()?;
    Some(ChildResult {
        correct: matches!(get("correct"), Some(Value::Bool(true))),
        attempted: int("attempted")?,
        failed: int("failed")?,
        metrics,
    })
}

/// Runs each selected workload `--repeat` times, each run in a fresh
/// child process on its own seed, and prints every metric's median (and,
/// over several runs, its quartiles and relative spread).
fn run_children(a: &Args) -> bool {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot locate this executable: {e}");
            return false;
        }
    };
    let workloads = a.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let (mut ok, mut attempted, mut failed) = (true, 0, 0);
    let mut summary = Vec::new();
    for w in &workloads {
        let mut runs: Vec<Vec<(String, f64, String)>> = Vec::new();
        for i in 0..a.repeat {
            let seed = a.seed.wrapping_add(i as u64);
            let out = Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &seed.to_string()])
                .args([
                    "--seconds",
                    &a.seconds.to_string(),
                    "--trace",
                    if a.trace { "1" } else { "0" },
                ])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output();
            let out = match out {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("benchmark: cannot run {}: {e}", exe.display());
                    ok = false;
                    continue;
                }
            };
            ok &= out.status.success();
            let stdout = String::from_utf8_lossy(&out.stdout);
            let lines: Vec<&str> = stdout.lines().collect();
            let Some(res) = lines.last().and_then(|l| parse_result(l)) else {
                eprintln!("benchmark: {} seed {seed} printed no result", w.name());
                ok = false;
                continue;
            };
            if a.repeat == 1 {
                lines[..lines.len() - 1].iter().for_each(|l| println!("{l}"));
            }
            ok &= res.correct;
            attempted += res.attempted;
            failed += res.failed;
            runs.push(res.metrics);
        }
        let Some(first) = runs.first() else { continue };
        for (name, _, unit) in first {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|m| m.iter().find(|(n, _, _)| n == name).map(|(_, v, _)| *v))
                .collect();
            let (q1, q2, q3) = stats::quartiles(&values);
            if a.repeat > 1 {
                println!(
                    "{} {name} median {q2} q1 {q1} q3 {q3} spread {:.4} {unit} n={}",
                    w.name(),
                    stats::relative_spread(&values),
                    values.len()
                );
            }
            let key =
                if workloads.len() > 1 { format!("{}.{name}", w.name()) } else { name.clone() };
            summary.push((key, q2, unit.clone()));
        }
    }
    println!("{}", result_json(ok && failed == 0, attempted.max(1), failed, &summary));
    ok && failed == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::{END_TO_END, PER_LAYER};
    use workloads::{Pass, SimTotals, StoreTotals};

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&args("--workload sweep_ci --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: Some(Workload::SweepCi),
                seed: 7,
                seconds: 10,
                trace: true,
                repeat: 1
            }
        );
        assert_eq!(parse_args(&[]).unwrap().workload, None);
        for bad in ["--workload nope", "--seed x", "--trace 2", "--seconds", "--frob 1"] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn seeds_order_the_work_and_seed_one_keeps_the_suite_order() {
        assert_eq!(Seed::DEFAULT, Seed(1));
        assert_eq!(Seed::DEFAULT.held_out(), None, "the default seed runs the committed inputs");
        assert_eq!(Seed(11).held_out(), Some(11));
        assert_eq!(Seed(1).permutation(35, 9), (0..35).collect::<Vec<_>>());
        let p = Seed(11).permutation(35, 9);
        assert_eq!(p, Seed(11).permutation(35, 9), "a seed always draws the same order");
        assert_ne!(p, (0..35).collect::<Vec<_>>());
        assert_ne!(p, Seed(11).permutation(35, 10), "streams draw different orders");
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..35).collect::<Vec<_>>(), "a permutation of the jobs");
    }

    fn fake_run() -> RunResult {
        let pass = |traced, wall_s| Pass {
            wall_s,
            sim_cycles: 4_000_000,
            points: 35,
            speedup: 1.9,
            sim: SimTotals::default(),
            store: StoreTotals::default(),
            traced,
        };
        RunResult {
            setup_s: vec![1.0, 1.5, 1.2],
            passes: vec![pass(false, 2.5), pass(true, 1.0), pass(false, 2.0), pass(false, 3.0)],
            timed_s: 4.0,
            timed_cpu_s: 7.0,
            peak_rss_kb: 2048,
        }
    }

    #[test]
    fn end_to_end_timings_come_from_the_fastest_untraced_pass() {
        let m = report::end_to_end(&fake_run());
        let get = |n: &str| m.iter().find(|x| x.name == n).unwrap().value;
        assert_eq!(get("setup_s"), 1.2);
        assert_eq!(get("wall_s"), 2.0);
        assert_eq!(get("sim_mcycles_per_host_s"), 2.0);
        assert_eq!(get("points_per_hour"), 35.0 * 1800.0);
        assert_eq!(get("peak_rss_mb"), 2.0);
        assert_eq!(get("sim_speedup"), 1.9);
    }

    /// The `(name, unit)` lists `BENCHMARK.json` declares under `key`.
    fn declared(key: &str) -> Vec<(String, String)> {
        let path = repo_root().join("BENCHMARK.json");
        let doc = serde::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json")).unwrap();
        let list = doc.as_object().unwrap().iter().find(|(k, _)| k == key).unwrap().1.clone();
        list.as_array()
            .unwrap()
            .iter()
            .map(|m| {
                let f = |k: &str| {
                    m.as_object().unwrap().iter().find(|(n, _)| n == k).unwrap().1.as_str().unwrap()
                };
                (f("name").to_string(), f("unit").to_string())
            })
            .collect()
    }

    fn emitted(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect()
    }

    #[test]
    fn emitted_metrics_are_exactly_the_declared_ones() {
        let run = fake_run();
        assert_eq!(emitted(&report::end_to_end(&run)), declared("end_to_end"));
        let spans = Vec::new();
        assert_eq!(
            emitted(&report::per_layer(&run, &spans, &LayerWork::default())),
            declared("per_layer")
        );
        let workloads: Vec<String> = {
            let path = repo_root().join("BENCHMARK.json");
            let doc = serde::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
            let list =
                doc.as_object().unwrap().iter().find(|(k, _)| k == "workloads").unwrap().1.clone();
            list.as_array()
                .unwrap()
                .iter()
                .map(|w| w.as_object().unwrap()[0].1.as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
    }

    /// This package's directory, relative to the repository root.
    const PACKAGE_DIR: &str = "crates/bench/src/bin/benchmark";

    /// The settings of `manifest`'s `[profile.release]` table.
    fn release_profile(manifest: &str) -> Vec<&str> {
        manifest
            .lines()
            .map(str::trim)
            .skip_while(|l| *l != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect()
    }

    #[test]
    fn the_package_builds_with_the_workspace_release_profile() {
        let read = |p: &str| std::fs::read_to_string(repo_root().join(p)).expect(p);
        let (ours, workspace) = (read(&format!("{PACKAGE_DIR}/Cargo.toml")), read("Cargo.toml"));
        assert!(!release_profile(&ours).is_empty());
        assert_eq!(release_profile(&ours), release_profile(&workspace));
    }

    #[test]
    fn benchmark_json_runs_this_package() {
        let doc =
            serde::parse(&std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap())
                .unwrap();
        let strings = |key: &str| -> Vec<String> {
            let (_, v) = doc.as_object().unwrap().iter().find(|(k, _)| k == key).unwrap();
            v.as_array().unwrap().iter().map(|s| s.as_str().unwrap().to_string()).collect()
        };
        assert_eq!(strings("paths"), [PACKAGE_DIR]);
        assert!(strings("command").contains(&format!("{PACKAGE_DIR}/Cargo.toml")));
    }

    #[test]
    fn metric_names_and_units_use_the_allowed_characters() {
        let name_ok = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(name), "{name}");
            assert!(unit_ok(unit), "{unit}");
        }
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len(), "names are unique");
    }

    #[test]
    fn result_line_round_trips() {
        let metrics = vec![("wall_s".to_string(), 1.25, "s".to_string())];
        let line = result_json(true, 3, 0, &metrics);
        let r = parse_result(&line).expect("parses");
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (3, 0));
        assert_eq!(r.metrics, metrics);
    }
}
