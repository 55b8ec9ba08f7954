//! The unified suite driver behind the `suite` binary.
//!
//! Runs any subset of the evaluation plans through the parallel runner
//! and the snapshot store, writes `results/<plan>.{json,txt}`, optionally
//! compares the JSON artifacts against a previous `results/` tree
//! (failing on cycle-count drift), and records per-plan wall time plus
//! simulated-cycles-per-host-second throughput in `BENCH_suite.json`.

use crate::cli::{self, CliError, Shared, SharedArgs};
use crate::eval::{paper_machine, Scale};
use crate::plan::{all_plans, Plan, PlanCtx};
use crate::runner::{self, JobPool, Protection};
use crate::store::HarnessStore;
use serde::{Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Everything `suite` accepts on its command line.
#[derive(Debug, Clone)]
pub struct SuiteOptions {
    /// Workload scale (`--scale paper|test`).
    pub scale: Scale,
    /// Worker threads (`--jobs N`, default = available parallelism).
    pub jobs: usize,
    /// Comma-separated plan-name substrings (`--filter fig,table2`).
    pub filter: Option<String>,
    /// Artifact output directory (`--out`, default `results`).
    pub out_dir: PathBuf,
    /// Snapshot cache directory (`--traces`, default `traces`); `None`
    /// after `--no-cache`.
    pub trace_dir: Option<PathBuf>,
    /// Previous results tree to regression-compare against (`--baseline`).
    pub baseline: Option<PathBuf>,
    /// Where to write the timing report (`--bench`, default
    /// `BENCH_suite.json`).
    pub bench_path: PathBuf,
    /// Suppress the plans' human-readable tables on stdout (`--quiet`).
    pub quiet: bool,
    /// List plans and exit (`--list`).
    pub list: bool,
    /// Skip plans already recorded as completed in the out-dir's run
    /// manifest (`--resume`) — the crash-recovery path.
    pub resume: bool,
    /// Per-plan deadline in seconds (`--job-timeout SECS`); an
    /// overrunning plan is retried once, then quarantined.
    pub job_timeout: Option<f64>,
    /// Test hook: force the named plan to panic (`--force-panic PLAN`),
    /// exercising the quarantine path end to end.
    pub force_panic: Option<String>,
}

impl Default for SuiteOptions {
    fn default() -> Self {
        SuiteOptions {
            scale: Scale::Paper,
            jobs: JobPool::available(),
            filter: None,
            out_dir: PathBuf::from("results"),
            trace_dir: Some(PathBuf::from("traces")),
            baseline: None,
            bench_path: PathBuf::from("BENCH_suite.json"),
            quiet: false,
            list: false,
            resume: false,
            job_timeout: None,
            force_panic: None,
        }
    }
}

pub const USAGE: &str = "\
usage: suite [options]
       suite trace <benchmark> [--scale paper|test] [--out DIR]
                   [--traces DIR | --no-cache]
       suite workload <spec.json> [--scale paper|test] [--jobs N]
                   [--out DIR] [--traces DIR | --no-cache]
       suite sweep <grid.json> [--scale paper|test] [--jobs N]
                   [--filter KEYS] [--out DIR] [--traces DIR | --no-cache]
                   [--resume] [--bench PATH] [--baseline-sample N] [--quiet]
  --scale paper|test     workload scale (default: paper)
  --jobs N               worker threads (default: available cores)
  --filter A,B           run only plans whose name contains A or B
  --out DIR              artifact directory (default: results)
  --traces DIR           snapshot cache directory (default: traces)
  --no-cache             disable the snapshot/report cache entirely
  --baseline DIR         compare artifacts against a previous results tree;
                         exit 1 on cycle-count drift
  --bench PATH           timing report (default: BENCH_suite.json)
  --quiet                do not print the plans' tables to stdout
  --list                 list available plans and exit
  --resume               skip plans already completed per the out-dir's
                         .run_manifest.jsonl (crash/interrupt recovery);
                         for sweep: keep the row file's valid prefix and
                         run only the remaining grid points
  --baseline-sample N    (sweep) points to time one-simulation-per-job
                         for the speedup comparison (default: 8)
  --job-timeout SECS     per-plan deadline; an overrunning plan is
                         retried once, then quarantined
  --force-panic PLAN     test hook: make the named plan panic, to
                         exercise the quarantine path
";

impl SuiteOptions {
    /// Parses a `suite` command line.
    pub fn parse(args: &[String]) -> Result<SuiteOptions, CliError> {
        let mut opts = SuiteOptions::default();
        let shared = cli::parse(args, USAGE, cli::ALL, |arg, rest| {
            match arg {
                "--filter" => opts.filter = Some(rest.value(arg)?.to_string()),
                "--baseline" => opts.baseline = Some(rest.value(arg)?.into()),
                "--bench" => opts.bench_path = rest.value(arg)?.into(),
                "--quiet" => opts.quiet = true,
                "--list" => opts.list = true,
                "--resume" => opts.resume = true,
                "--job-timeout" => {
                    let v = rest.value(arg)?;
                    let secs = v.parse::<f64>().ok().filter(|s| s.is_finite() && *s > 0.0);
                    opts.job_timeout = Some(secs.ok_or_else(|| {
                        cli::bad(format!("--job-timeout needs positive seconds, got '{v}'"))
                    })?);
                }
                "--force-panic" => opts.force_panic = Some(rest.value(arg)?.to_string()),
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        opts.scale = shared.scale;
        opts.jobs = shared.jobs;
        opts.out_dir = shared.out_dir;
        opts.trace_dir = shared.trace_dir;
        Ok(opts)
    }

    /// The plans selected by `--filter` (all of them without a filter).
    /// Needles substring-match plan names; a needle that matches no
    /// plan is a typed error (a misspelled plan name used to silently
    /// select nothing) naming the offender.
    pub fn selected_plans(&self) -> Result<Vec<Plan>, String> {
        let plans = all_plans();
        match &self.filter {
            None => Ok(plans),
            Some(f) => {
                let needles: Vec<&str> =
                    f.split(',').map(str::trim).filter(|s| !s.is_empty()).collect();
                if let Some(bad) =
                    needles.iter().find(|n| !plans.iter().any(|p| p.name.contains(*n)))
                {
                    return Err(format!("--filter '{bad}' matches no plan"));
                }
                Ok(plans
                    .into_iter()
                    .filter(|p| needles.iter().any(|n| p.name.contains(n)))
                    .collect())
            }
        }
    }
}

#[derive(Serialize)]
struct BenchPlan {
    name: &'static str,
    wall_s: f64,
    sim_cycles: u64,
    sim_mcycles_per_s: f64,
}

#[derive(Serialize)]
struct BenchCache {
    trace_mem_hits: u64,
    trace_disk_hits: u64,
    trace_records: u64,
    populations: u64,
    report_mem_hits: u64,
    report_disk_hits: u64,
    report_sims: u64,
    envelope_hits: u64,
    snapshots_quarantined: u64,
}

/// Aggregate buffer-pool activity across every paged recording of the
/// run (the `pool_pressure` plan; zero when it didn't run).
#[derive(Serialize)]
struct BenchPager {
    evictions: u64,
    flushes: u64,
    recovery_replays: u64,
    pages_quarantined: u64,
}

/// One quarantined plan in `BENCH_suite.json` — the structured failure
/// summary the suite exits non-zero with.
#[derive(Serialize)]
struct BenchFailure {
    plan: String,
    kind: String,
    message: String,
    duration_s: f64,
    attempts: u32,
}

#[derive(Serialize)]
struct BenchSuite {
    scale: &'static str,
    jobs: usize,
    prewarm_s: f64,
    plans: Vec<BenchPlan>,
    total_wall_s: f64,
    total_sim_cycles: u64,
    sim_mcycles_per_host_s: f64,
    cache: BenchCache,
    pager: BenchPager,
    baseline: Option<String>,
    /// Plans served from the run manifest instead of re-executed.
    resumed: Vec<String>,
    /// Plans that panicked or overran their deadline and were
    /// quarantined; non-empty makes the suite exit non-zero.
    failures: Vec<BenchFailure>,
}

/// Name of the append-only completion log inside the out dir: one
/// fsynced JSON line per completed plan, keyed by scale and a hash of
/// the machine configuration so `--resume` never trusts stale entries.
const MANIFEST_NAME: &str = ".run_manifest.jsonl";

#[derive(Serialize, Deserialize)]
struct ManifestEntry {
    plan: String,
    scale: String,
    config_hash: String,
    sim_cycles: u64,
    wall_s: f64,
}

/// Content-address of the suite configuration a manifest entry is valid
/// for (the same FNV-1a the snapshot store keys caches with).
fn config_hash(machine: &tls_core::CmpConfig) -> String {
    let json = serde_json::to_string(machine).expect("config serializes");
    format!("{:016x}", crate::codec::fnv1a(json.as_bytes()))
}

/// Reads the manifest (if any), returning completed plans matching this
/// run's scale and config hash: plan name → (sim_cycles, wall_s).
fn load_manifest(path: &Path, scale: &str, hash: &str) -> HashMap<String, (u64, f64)> {
    let mut done = HashMap::new();
    let Ok(text) = std::fs::read_to_string(path) else { return done };
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        // A torn final line (crash mid-write despite the fsync-per-line
        // discipline) parses as an error and is simply ignored: the
        // plan it named re-runs.
        let Ok(value) = serde::parse(line) else { continue };
        let Ok(entry) = ManifestEntry::deserialize(&value) else { continue };
        if entry.scale == scale && entry.config_hash == hash {
            done.insert(entry.plan, (entry.sim_cycles, entry.wall_s));
        }
    }
    done
}

/// SIGINT flag: the handler only sets it; `run_suite` checks it between
/// plans, so in-flight work always finishes and the manifest stays
/// consistent. Non-unix builds never set it.
mod sigint {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static INTERRUPTED: AtomicBool = AtomicBool::new(false);

    pub fn interrupted() -> bool {
        INTERRUPTED.load(Ordering::SeqCst)
    }

    #[cfg(unix)]
    pub fn install() {
        extern "C" fn on_sigint(_: i32) {
            INTERRUPTED.store(true, Ordering::SeqCst);
        }
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        unsafe {
            signal(SIGINT, on_sigint as extern "C" fn(i32) as usize);
        }
    }

    #[cfg(not(unix))]
    pub fn install() {}
}

/// The `suite trace <benchmark>` verb: one observed run producing a
/// Perfetto timeline and a metrics time series. Returns the process
/// exit code.
pub fn run_trace_verb(args: &[String]) -> i32 {
    let mut txn = None;
    let parsed =
        cli::parse(args, USAGE, &[Shared::Scale, Shared::Out, Shared::Traces], |arg, _| {
            if txn.is_some() || arg.starts_with("--") {
                return Ok(false);
            }
            txn = Some(cli::benchmark(arg)?);
            Ok(true)
        });
    let shared = match parsed {
        Ok(shared) => shared,
        Err(e) => return e.report(),
    };
    let Some(txn) = txn else {
        return cli::bad(format!("suite trace: which benchmark? {}", cli::valid_benchmarks()))
            .report();
    };
    let store = HarnessStore::new(shared.trace_dir, true);
    let req = crate::observe::ObserveRequest::new(txn, shared.scale, shared.out_dir);
    match crate::observe::observe_run(&store, &req) {
        Ok(out) => {
            println!(
                "{}: {} cycles, {} event(s) kept ({} dropped), {} livelock(s), \
                 report drift: none",
                txn.label(),
                out.report.total_cycles,
                out.events_kept,
                out.events_dropped,
                out.report.livelocks.len()
            );
            println!("wrote {}", out.trace_path.display());
            println!("wrote {}", out.metrics_path.display());
            println!("open the trace in https://ui.perfetto.dev (Open trace file)");
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

/// The `suite workload <spec.json>` verb: parse a declarative workload
/// spec, compile it to a `(plain, tls)` trace pair and run it through
/// record → simulate → report. A malformed spec exits 2 with the typed
/// field/line error and the list of valid fields (the same convention
/// the probe binary uses for unknown benchmarks). Returns the process
/// exit code.
pub fn run_workload_verb(args: &[String]) -> i32 {
    let mut spec_path = None;
    let parsed = cli::parse(args, USAGE, cli::ALL, |arg, _| {
        if spec_path.is_some() || arg.starts_with("--") {
            return Ok(false);
        }
        spec_path = Some(PathBuf::from(arg));
        Ok(true)
    });
    let SharedArgs { scale, jobs, out_dir, trace_dir } = match parsed {
        Ok(shared) => shared,
        Err(e) => return e.report(),
    };
    let Some(spec_path) = spec_path else {
        return cli::bad(format!("suite workload: which spec file?\n{USAGE}")).report();
    };
    let src = match std::fs::read_to_string(&spec_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: read {}: {e}", spec_path.display());
            return 1;
        }
    };
    let spec = match crate::workload::WorkloadSpec::parse(&src) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("{}: {e}", spec_path.display());
            eprintln!("valid fields:");
            for (name, what) in crate::workload::WorkloadSpec::valid_fields() {
                eprintln!("  {name:<20} {what}");
            }
            return 2;
        }
    };
    let pool = JobPool::new(jobs);
    let store = HarnessStore::new(trace_dir, true);
    let ctx = PlanCtx { scale, machine: paper_machine(), store: &store, pool: &pool };
    let out = crate::plans::workload::run_spec(&ctx, &spec);
    print!("{}", out.text);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("error: cannot create {}: {e}", out_dir.display());
        return 1;
    }
    let stem = format!("workload_{}", spec.name);
    let json_path = out_dir.join(format!("{stem}.json"));
    let txt_path = out_dir.join(format!("{stem}.txt"));
    for (path, body) in [(&json_path, &out.json), (&txt_path, &out.text)] {
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("error: write {}: {e}", path.display());
            return 1;
        }
    }
    eprintln!("wrote {}", json_path.display());
    eprintln!("wrote {}", txt_path.display());
    0
}

/// Runs the suite; returns the process exit code.
pub fn run_suite(opts: &SuiteOptions) -> i32 {
    let plans = match opts.selected_plans() {
        Ok(plans) => plans,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!("valid plans:");
            for p in all_plans() {
                eprintln!("  {:<20} {}", p.name, p.title);
            }
            return 2;
        }
    };
    if opts.list || plans.is_empty() {
        if plans.is_empty() {
            eprintln!("no plan matches --filter {:?}", opts.filter.as_deref().unwrap_or(""));
        }
        for p in all_plans() {
            println!("{:<14} {}", p.name, p.title);
        }
        return if opts.list { 0 } else { 2 };
    }

    sigint::install();
    let pool = JobPool::new(opts.jobs);
    let store = HarnessStore::new(opts.trace_dir.clone(), true);
    let ctx = PlanCtx { scale: opts.scale, machine: paper_machine(), store: &store, pool: &pool };
    let cfg_hash = config_hash(&ctx.machine);
    let manifest_path = opts.out_dir.join(MANIFEST_NAME);
    let completed: HashMap<String, (u64, f64)> = if opts.resume {
        load_manifest(&manifest_path, opts.scale.name(), &cfg_hash)
    } else {
        HashMap::new()
    };

    let suite_start = Instant::now();
    // Pre-record every distinct workload trace through the pool so plan
    // execution starts from a warm in-memory store.
    let prewarm_start = Instant::now();
    let mut keys = Vec::new();
    for plan in &plans {
        for key in (plan.traces)(&ctx) {
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
    }
    // Each key's population stays leased until the prewarm ends, so a
    // scale and seed is populated once however the misses overlap (and
    // not at all when every snapshot is on disk).
    let populations: Vec<_> = keys.iter().map(|key| store.population(&key.cfg)).collect();
    let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = keys
        .iter()
        .map(|key| {
            let key = key.clone();
            let store = &store;
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                store.programs(&key);
            });
            job
        })
        .collect();
    pool.run(jobs);
    drop(populations);
    let prewarm_s = prewarm_start.elapsed().as_secs_f64();
    let stats = store.stats.snapshot();
    eprintln!(
        "prewarm: {} trace pair(s) recorded from {} population(s), {} from disk, {prewarm_s:.3}s",
        stats[2], stats[11], stats[1]
    );

    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        eprintln!("error: cannot create {}: {e}", opts.out_dir.display());
        return 1;
    }

    let mut manifest =
        match std::fs::OpenOptions::new().create(true).append(true).open(&manifest_path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("error: open {}: {e}", manifest_path.display());
                return 1;
            }
        };
    let protection = Protection {
        timeout: opts.job_timeout.map(Duration::from_secs_f64),
        ..Protection::default()
    };

    let mut bench_plans = Vec::new();
    // Plans whose artifacts are on disk from this run or a resumed one:
    // the baseline comparison covers exactly these.
    let mut compared: Vec<Plan> = Vec::new();
    let mut resumed: Vec<String> = Vec::new();
    let mut failures: Vec<BenchFailure> = Vec::new();
    let mut interrupted = false;
    for plan in &plans {
        if sigint::interrupted() {
            interrupted = true;
            break;
        }
        let json_path = opts.out_dir.join(format!("{}.json", plan.name));
        let txt_path = opts.out_dir.join(format!("{}.txt", plan.name));
        // Crash-safe resume: a manifest entry plus both artifacts on
        // disk means the plan's work is already done and byte-exact.
        if let Some(&(sim_cycles, wall_s)) = completed.get(plan.name) {
            if json_path.is_file() && txt_path.is_file() {
                eprintln!("resumed {} from {}", plan.name, MANIFEST_NAME);
                bench_plans.push(BenchPlan {
                    name: plan.name,
                    wall_s,
                    sim_cycles,
                    sim_mcycles_per_s: sim_cycles as f64 / 1e6 / wall_s.max(1e-9),
                });
                compared.push(*plan);
                resumed.push(plan.name.to_string());
                continue;
            }
            eprintln!(
                "note: {} is in the manifest but its artifacts are missing; re-running",
                plan.name
            );
        }
        let t0 = Instant::now();
        let forced = opts.force_panic.as_deref() == Some(plan.name);
        let result = runner::run_protected(plan.name, protection, || {
            if forced {
                panic!("forced panic via --force-panic");
            }
            (plan.run)(&ctx)
        });
        let wall_s = t0.elapsed().as_secs_f64();
        let out = match result {
            Ok(out) => out,
            Err(f) => {
                // Quarantine the plan and keep going: the rest of the
                // campaign is still worth its wall-clock.
                failures.push(BenchFailure {
                    plan: f.key.clone(),
                    kind: f.kind.to_string(),
                    message: f.message.clone(),
                    duration_s: f.duration_s,
                    attempts: f.attempts,
                });
                continue;
            }
        };
        if !opts.quiet {
            println!("==> {} ({})", plan.name, plan.title);
            print!("{}", out.text);
        }
        if let Err(e) = std::fs::write(&json_path, &out.json) {
            eprintln!("error: write {}: {e}", json_path.display());
            return 1;
        }
        if let Err(e) = std::fs::write(&txt_path, &out.text) {
            eprintln!("error: write {}: {e}", txt_path.display());
            return 1;
        }
        eprintln!("wrote {} ({wall_s:.3}s)", json_path.display());
        // Log completion only after both artifacts landed; one fsynced
        // line per plan keeps the manifest torn-write-proof.
        let entry = ManifestEntry {
            plan: plan.name.to_string(),
            scale: opts.scale.name().to_string(),
            config_hash: cfg_hash.clone(),
            sim_cycles: out.sim_cycles,
            wall_s,
        };
        let mut line = serde_json::to_string(&entry).expect("manifest entry serializes");
        line.push('\n');
        if let Err(e) = manifest.write_all(line.as_bytes()).and_then(|()| manifest.sync_all()) {
            eprintln!("error: append {}: {e}", manifest_path.display());
            return 1;
        }
        bench_plans.push(BenchPlan {
            name: plan.name,
            wall_s,
            sim_cycles: out.sim_cycles,
            sim_mcycles_per_s: out.sim_cycles as f64 / 1e6 / wall_s.max(1e-9),
        });
        compared.push(*plan);
    }
    let total_wall_s = suite_start.elapsed().as_secs_f64();
    let total_sim_cycles: u64 = bench_plans.iter().map(|p| p.sim_cycles).sum();

    let stats = store.stats.snapshot();
    let bench = BenchSuite {
        scale: opts.scale.name(),
        jobs: pool.workers(),
        prewarm_s,
        plans: bench_plans,
        total_wall_s,
        total_sim_cycles,
        sim_mcycles_per_host_s: total_sim_cycles as f64 / 1e6 / total_wall_s.max(1e-9),
        cache: BenchCache {
            trace_mem_hits: stats[0],
            trace_disk_hits: stats[1],
            trace_records: stats[2],
            populations: stats[11],
            report_mem_hits: stats[3],
            report_disk_hits: stats[4],
            report_sims: stats[5],
            envelope_hits: stats[13],
            snapshots_quarantined: stats[6],
        },
        pager: BenchPager {
            evictions: stats[7],
            flushes: stats[8],
            recovery_replays: stats[9],
            pages_quarantined: stats[10],
        },
        baseline: opts.baseline.as_ref().map(|p| p.display().to_string()),
        resumed,
        failures,
    };
    let mut bench_json = serde_json::to_string_pretty(&bench).expect("serialize bench report");
    bench_json.push('\n');
    // A prior `suite sweep` run may have merged its section into this
    // file; carry it across instead of clobbering it.
    if let Some(serde::Value::Object(old)) =
        std::fs::read_to_string(&opts.bench_path).ok().and_then(|t| serde::parse(&t).ok())
    {
        if let Some((_, sweep)) = old.into_iter().find(|(k, _)| k == "sweep") {
            if let Ok(serde::Value::Object(mut pairs)) = serde::parse(&bench_json) {
                pairs.push(("sweep".to_string(), sweep));
                let mut merged = String::new();
                serde::Value::Object(pairs).write(&mut merged, Some(2), 0);
                merged.push('\n');
                bench_json = merged;
            }
        }
    }
    if let Err(e) = std::fs::write(&opts.bench_path, bench_json) {
        eprintln!("error: write {}: {e}", opts.bench_path.display());
        return 1;
    }
    eprintln!("wrote {}", opts.bench_path.display());

    if interrupted {
        eprintln!(
            "interrupted: {} of {} plan(s) completed; manifest flushed",
            bench.plans.len(),
            plans.len()
        );
        eprintln!(
            "resume with: suite --resume --scale {} --out {}{}",
            opts.scale.name(),
            opts.out_dir.display(),
            opts.filter.as_deref().map(|f| format!(" --filter {f}")).unwrap_or_default()
        );
        return 130;
    }

    if let Some(baseline) = &opts.baseline {
        // A quarantined plan wrote no fresh artifact, so its baseline
        // diff is meaningless — compare only what actually completed.
        if compared.len() < plans.len() {
            eprintln!(
                "note: {} quarantined plan(s) excluded from the baseline comparison",
                plans.len() - compared.len()
            );
        }
        let drifts = compare_against_baseline(&compared, &opts.out_dir, baseline);
        if !drifts.is_empty() {
            eprintln!(
                "regression: {} artifact difference(s) vs {}:",
                drifts.len(),
                baseline.display()
            );
            for d in drifts.iter().take(20) {
                eprintln!("  {d}");
            }
            if drifts.len() > 20 {
                eprintln!("  ... and {} more", drifts.len() - 20);
            }
            return 1;
        }
        eprintln!("baseline comparison: {} artifact(s) identical", compared.len());
    }

    if !bench.failures.is_empty() {
        eprintln!("suite completed with {} quarantined plan(s):", bench.failures.len());
        for f in &bench.failures {
            eprintln!(
                "  {} {} after {:.3}s (attempt {}): {}",
                f.plan, f.kind, f.duration_s, f.attempts, f.message
            );
        }
        return 1;
    }
    0
}

/// Compares each plan's fresh artifact to `baseline/<name>.json`.
/// Returns human-readable descriptions of every difference (cycle-count
/// drift or structural change); an empty vector means no drift.
fn compare_against_baseline(plans: &[Plan], out_dir: &Path, baseline: &Path) -> Vec<String> {
    let mut drifts = Vec::new();
    for plan in plans {
        let base_path = baseline.join(format!("{}.json", plan.name));
        let new_path = out_dir.join(format!("{}.json", plan.name));
        let base = match std::fs::read_to_string(&base_path) {
            Ok(s) => s,
            Err(_) => {
                eprintln!("note: no baseline artifact {}, skipping", base_path.display());
                continue;
            }
        };
        let new = match std::fs::read_to_string(&new_path) {
            Ok(s) => s,
            Err(e) => {
                drifts.push(format!("{}: unreadable fresh artifact: {e}", plan.name));
                continue;
            }
        };
        match (serde::parse(&base), serde::parse(&new)) {
            (Ok(b), Ok(n)) => diff_values(plan.name, &b, &n, &mut drifts),
            (Err(e), _) => drifts.push(format!("{}: baseline is not JSON: {}", plan.name, e.0)),
            (_, Err(e)) => {
                drifts.push(format!("{}: fresh artifact is not JSON: {}", plan.name, e.0))
            }
        }
    }
    drifts
}

/// Structural JSON diff. Every leaf difference is reported; differences
/// under a key containing `cycles` are flagged as cycle drift.
fn diff_values(path: &str, a: &Value, b: &Value, drifts: &mut Vec<String>) {
    match (a, b) {
        (Value::Object(pa), Value::Object(pb)) => {
            if pa.len() != pb.len() || pa.iter().zip(pb.iter()).any(|((ka, _), (kb, _))| ka != kb) {
                drifts.push(format!("{path}: object keys changed"));
                return;
            }
            for ((k, va), (_, vb)) in pa.iter().zip(pb.iter()) {
                diff_values(&format!("{path}.{k}"), va, vb, drifts);
            }
        }
        (Value::Array(xa), Value::Array(xb)) => {
            if xa.len() != xb.len() {
                drifts.push(format!("{path}: array length {} -> {}", xa.len(), xb.len()));
                return;
            }
            for (i, (va, vb)) in xa.iter().zip(xb.iter()).enumerate() {
                diff_values(&format!("{path}[{i}]"), va, vb, drifts);
            }
        }
        _ => {
            if a != b {
                let kind = if path
                    .rsplit(['.', '[', ']'])
                    .next()
                    .map(|_| path.to_ascii_lowercase().contains("cycles"))
                    .unwrap_or(false)
                {
                    "cycle drift"
                } else {
                    "drift"
                };
                drifts.push(format!("{path}: {kind}: {a} -> {b}"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let o = SuiteOptions::parse(&args(&[
            "--scale",
            "test",
            "--jobs",
            "8",
            "--filter",
            "fig",
            "--out",
            "r",
            "--baseline",
            "old",
            "--quiet",
        ]))
        .unwrap();
        assert_eq!(o.scale, Scale::Test);
        assert_eq!(o.jobs, 8);
        assert_eq!(o.out_dir, PathBuf::from("r"));
        assert_eq!(o.baseline, Some(PathBuf::from("old")));
        assert!(o.quiet);
        let names: Vec<_> =
            o.selected_plans().expect("filter matches").iter().map(|p| p.name).collect();
        assert_eq!(names, vec!["figure2", "figure5", "figure6"]);
    }

    #[test]
    fn unknown_filter_needle_is_a_typed_error() {
        let mut o = SuiteOptions::parse(&args(&["--filter", "figure9"])).unwrap();
        let err = o.selected_plans().err().expect("no plan is figure9");
        assert!(err.contains("figure9"), "{err}");
        // A mix of one good and one bad needle still errors: the bad
        // needle names a plan the user wanted and did not get.
        o.filter = Some("figure2,predection".to_string());
        let err = o.selected_plans().err().expect("typo'd needle");
        assert!(err.contains("predection"), "{err}");
        // Matching needles keep their substring semantics.
        o.filter = Some("prediction_frontier".to_string());
        let names: Vec<_> =
            o.selected_plans().expect("exact name").iter().map(|p| p.name).collect();
        assert_eq!(names, vec!["prediction_frontier"]);
    }

    #[test]
    fn rejects_unknown_arguments() {
        // A malformed command line is a usage error naming the offending
        // token: exit 2, never a panic.
        for bad in [
            &["--bogus"][..],
            &["--scale", "huge"],
            &["--jobs", "many"],
            &["--out"],
            &["--job-timeout", "-1"],
            &["--compare-serial"],
            &["--no-compare-serial"],
        ] {
            let err = SuiteOptions::parse(&args(bad)).expect_err("rejected");
            assert!(err.to_string().contains(bad[bad.len() - 1]), "{bad:?}: {err}");
            assert_eq!(err.report(), 2, "{bad:?}");
        }
        assert_eq!(SuiteOptions::parse(&args(&["--help"])).unwrap_err().report(), 0);
        // The verbs share the parser; each rejects the flags it does not
        // take (`trace` has no --jobs) before doing any work.
        for bad in [
            &["new_order", "--scale", "huge"][..],
            &["new_order", "--jobs", "many"],
            &["new_order", "--out"],
            &["no_such_benchmark"],
            &[],
        ] {
            assert_eq!(run_trace_verb(&args(bad)), 2, "trace {bad:?}");
        }
        for bad in [
            &["spec.json", "--scale", "huge"][..],
            &["spec.json", "--jobs", "many"],
            &["spec.json", "--traces"],
            &["spec.json", "--bogus"],
            &[],
        ] {
            assert_eq!(run_workload_verb(&args(bad)), 2, "workload {bad:?}");
        }
        // `probe` takes only the shared --scale flag.
        let probe = cli::parse(&args(&["--scale", "huge"]), "", &[Shared::Scale], |_, _| Ok(false));
        assert_eq!(probe.expect_err("unknown scale").report(), 2);
    }

    #[test]
    fn diff_flags_cycle_drift() {
        let a = serde::parse(r#"[{"name":"x","total_cycles":10}]"#).unwrap();
        let b = serde::parse(r#"[{"name":"x","total_cycles":11}]"#).unwrap();
        let mut drifts = Vec::new();
        diff_values("t", &a, &b, &mut drifts);
        assert_eq!(drifts.len(), 1);
        assert!(drifts[0].contains("cycle drift"), "{drifts:?}");

        let mut same = Vec::new();
        diff_values("t", &a, &a, &mut same);
        assert!(same.is_empty());
    }

    #[test]
    fn diff_flags_structural_changes() {
        let a = serde::parse(r#"{"rows":[1,2]}"#).unwrap();
        let b = serde::parse(r#"{"rows":[1,2,3]}"#).unwrap();
        let mut drifts = Vec::new();
        diff_values("t", &a, &b, &mut drifts);
        assert_eq!(drifts.len(), 1);
        assert!(drifts[0].contains("array length"));
    }
}
