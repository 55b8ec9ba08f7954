//! The batched multi-seed sweep engine behind `suite sweep`.
//!
//! A parameter sweep — N workload seeds × sub-thread spacings × context
//! counts × memory latencies — used to cost one full store round-trip
//! *per point*: open the snapshot, decode every op into owned buffers,
//! fingerprint, simulate, write a report container. A [`SweepPlan`]
//! restructures that into the shape the zero-copy store is built for:
//!
//! 1. **One map per seed.** Points are grouped by workload seed (the
//!    only axis that changes the trace). Every seed's snapshot is opened
//!    (or recorded) once, before any point runs, with the seeds side by
//!    side on the pool — served in place via
//!    [`crate::mapped::TraceView`] — and every simulation of a seed
//!    borrows the same mapped records.
//! 2. **Interned machine configs.** The (spacing × contexts ×
//!    mem-latency) grid is materialized once as `(CmpConfig, canonical
//!    JSON)` pairs; every seed reuses them, and the report-cache key is
//!    streamed from the pre-serialized JSON
//!    ([`crate::store::HarnessStore::simulate_keyed`]) instead of
//!    re-serializing the config per point.
//! 3. **Deterministic streaming output.** Points fan across the
//!    [`JobPool`] in submission order, so the JSONL row stream is
//!    byte-identical for any `--jobs` value. Each job renders its own
//!    row around the report's canonical JSON bytes
//!    ([`crate::store::HarnessStore::report_json`]): a cached report is
//!    spliced in as read, never decoded. Rows append to
//!    `<out>/sweep_<name>.jsonl` as each seed group completes, and
//!    `--resume` validates the surviving prefix after a crash (torn or
//!    out-of-order tails are truncated, finished points are not re-run).
//!
//! The verb also measures the *one-simulation-per-job equivalent* on a
//! sample of points — map and verify the snapshot, simulate, and write
//! the report with an fsync, each point on its own — and reports both throughputs (points/hour), their ratio, and the
//! process's peak RSS in a `sweep` section merged into
//! `BENCH_suite.json`.

use crate::cli::{self, CliError};
use crate::codec::{encode_container, KIND_SIM_REPORT};
use crate::eval::{instances, paper_machine, Scale};
use crate::mapped::{MapOutcome, TraceView};
use crate::runner::JobPool;
use crate::store::{HarnessStore, ReportJson, StoreStats, StoredPrograms, TraceKey};
use crate::suite::USAGE;
use serde::{Serialize, Value};
use std::collections::HashMap;
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use tls_core::{
    CmpConfig, CmpSimulator, MemoryModel, RunOptions, SpacingPolicy, VPredictConfig, MAX_SUBTHREADS,
};
use tls_minidb::Transaction;

/// A declarative sweep grid: what `suite sweep <grid.json>` consumes.
///
/// The cartesian product `seeds × spacings × contexts × mem_latencies`
/// defines the points; `seeds` vary the recorded workload, the other
/// three axes vary the simulated machine.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Sweep name (`[A-Za-z0-9_-]+`; artifact file stem).
    pub name: String,
    /// The TPC-C benchmark recorded per seed.
    pub benchmark: Transaction,
    /// Back-to-back transaction instances per recording (0 = the
    /// scale's default for the benchmark).
    pub count: usize,
    /// Workload RNG seeds (one trace pair recorded per seed).
    pub seeds: Vec<u64>,
    /// Sub-thread spacings in speculative instructions.
    pub spacings: Vec<u64>,
    /// Sub-thread contexts per speculative thread.
    pub contexts: Vec<u8>,
    /// Minimum L1-miss-to-memory latencies in cycles.
    pub mem_latencies: Vec<u64>,
    /// Value-predictor table sizes (powers of two; 0 = predictor off).
    /// Empty leaves the axis out entirely: point keys, config grid and
    /// row bytes are identical to a grid written before the axis
    /// existed.
    pub vpredict_entries: Vec<usize>,
    /// Memory models (`sc` or `tso<N>` with N buffer entries). Empty
    /// leaves the axis out, exactly like `vpredict_entries`.
    pub memory_models: Vec<MemoryModel>,
}

/// Parses a memory-model axis value: `sc`, or `tso<N>` with N = buffer
/// entries in 1..=256.
pub fn parse_memory_model(s: &str) -> Option<MemoryModel> {
    if s == "sc" {
        return Some(MemoryModel::Sc);
    }
    let n: usize = s.strip_prefix("tso")?.parse().ok()?;
    (1..=256).contains(&n).then_some(MemoryModel::Tso { buffer_entries: n })
}

/// The stable key-component name of a memory model (`sc` / `tso<N>`).
pub fn memory_model_name(m: MemoryModel) -> String {
    match m {
        MemoryModel::Sc => "sc".to_string(),
        MemoryModel::Tso { buffer_entries } => format!("tso{buffer_entries}"),
    }
}

/// A typed sweep-spec failure: which field, what is wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepError {
    /// The offending field, when attributable.
    pub field: Option<String>,
    /// What is wrong with it.
    pub message: String,
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.field {
            Some(field) => write!(f, "field '{field}': {}", self.message),
            None => f.write_str(&self.message),
        }
    }
}

impl std::error::Error for SweepError {}

impl SweepSpec {
    /// Every field a grid file may contain (printed on a parse error).
    pub fn valid_fields() -> &'static [(&'static str, &'static str)] {
        &[
            ("name", "sweep name, [A-Za-z0-9_-]+ (artifact file stem)"),
            ("benchmark", "TPC-C benchmark name (e.g. payment, new_order)"),
            ("count", "transaction instances per recording (0 = scale default)"),
            ("seeds", "array of workload RNG seeds, 1..=64 entries"),
            ("spacings", "array of sub-thread spacings in instructions, >= 1"),
            ("contexts", "array of sub-thread context counts, 1..=8"),
            ("mem_latencies", "array of memory latencies in cycles, >= 1"),
            ("vpredict_entries", "array of value-predictor table sizes (2^k; 0 = off); optional"),
            (
                "memory_models",
                "array of memory models: \"sc\" or \"tsoN\" (N buffer entries); optional",
            ),
        ]
    }

    /// Parses a grid from JSON source text; unknown fields, type
    /// mismatches and out-of-range values are typed [`SweepError`]s.
    pub fn parse(src: &str) -> Result<SweepSpec, SweepError> {
        let value = serde::parse(src)
            .map_err(|e| SweepError { field: None, message: format!("not JSON: {e}") })?;
        let Value::Object(pairs) = &value else {
            return Err(SweepError {
                field: None,
                message: "grid must be a JSON object".to_string(),
            });
        };
        let err =
            |field: &str, message: String| SweepError { field: Some(field.to_string()), message };
        let u64s = |field: &str, v: &Value| -> Result<Vec<u64>, SweepError> {
            let Value::Array(items) = v else {
                return Err(err(field, "expected an array of unsigned integers".to_string()));
            };
            items
                .iter()
                .map(|i| match i {
                    Value::Int(n) if *n >= 0 => Ok(*n as u64),
                    _ => Err(err(field, "expected unsigned integers".to_string())),
                })
                .collect()
        };
        let mut spec = SweepSpec {
            name: String::new(),
            benchmark: Transaction::Payment,
            count: 0,
            seeds: Vec::new(),
            spacings: Vec::new(),
            contexts: Vec::new(),
            mem_latencies: Vec::new(),
            vpredict_entries: Vec::new(),
            memory_models: Vec::new(),
        };
        let mut saw_benchmark = false;
        for (key, v) in pairs {
            match key.as_str() {
                "name" => match v {
                    Value::Str(s) => spec.name = s.clone(),
                    _ => return Err(err("name", "expected a string".to_string())),
                },
                "benchmark" => match v {
                    Value::Str(s) => match Transaction::from_cli_name(s) {
                        Some(t) => {
                            spec.benchmark = t;
                            saw_benchmark = true;
                        }
                        None => {
                            let names: Vec<&str> =
                                Transaction::ALL.iter().map(|t| t.trace_name()).collect();
                            return Err(err(
                                "benchmark",
                                format!("unknown benchmark '{s}' (valid: {})", names.join(", ")),
                            ));
                        }
                    },
                    _ => return Err(err("benchmark", "expected a string".to_string())),
                },
                "count" => match v {
                    Value::Int(n) if *n >= 0 => spec.count = *n as usize,
                    _ => return Err(err("count", "expected an unsigned integer".to_string())),
                },
                "seeds" => spec.seeds = u64s("seeds", v)?,
                "spacings" => spec.spacings = u64s("spacings", v)?,
                "contexts" => {
                    spec.contexts = u64s("contexts", v)?
                        .into_iter()
                        .map(|n| {
                            u8::try_from(n)
                                .ok()
                                .filter(|c| (1..=MAX_SUBTHREADS as u8).contains(c))
                                .ok_or_else(|| {
                                    err(
                                        "contexts",
                                        format!("contexts must be 1..={MAX_SUBTHREADS}, got {n}"),
                                    )
                                })
                        })
                        .collect::<Result<_, _>>()?
                }
                "mem_latencies" => spec.mem_latencies = u64s("mem_latencies", v)?,
                "vpredict_entries" => {
                    spec.vpredict_entries =
                        u64s("vpredict_entries", v)?.into_iter().map(|n| n as usize).collect()
                }
                "memory_models" => {
                    let Value::Array(items) = v else {
                        return Err(err(
                            "memory_models",
                            "expected an array of strings".to_string(),
                        ));
                    };
                    spec.memory_models = items
                        .iter()
                        .map(|i| match i {
                            Value::Str(s) => parse_memory_model(s).ok_or_else(|| {
                                err(
                                    "memory_models",
                                    format!("'{s}' is not 'sc' or 'tsoN' (N in 1..=256)"),
                                )
                            }),
                            _ => Err(err("memory_models", "expected strings".to_string())),
                        })
                        .collect::<Result<_, _>>()?
                }
                other => {
                    return Err(SweepError {
                        field: Some(other.to_string()),
                        message: "unknown field".to_string(),
                    })
                }
            }
        }
        if !saw_benchmark {
            return Err(SweepError {
                field: Some("benchmark".to_string()),
                message: "required".to_string(),
            });
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Checks every value constraint.
    pub fn validate(&self) -> Result<(), SweepError> {
        let err = |field: &str, message: String| {
            Err(SweepError { field: Some(field.to_string()), message })
        };
        if self.name.is_empty()
            || self.name.len() > 64
            || !self.name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return err("name", "must be 1..=64 chars of [A-Za-z0-9_-]".to_string());
        }
        if self.seeds.is_empty() || self.seeds.len() > 64 {
            return err("seeds", format!("need 1..=64 seeds, got {}", self.seeds.len()));
        }
        if self.spacings.is_empty() || self.spacings.contains(&0) {
            return err("spacings", "need at least one spacing, all >= 1".to_string());
        }
        if self.contexts.is_empty() {
            return err("contexts", "need at least one context count".to_string());
        }
        if self.mem_latencies.is_empty() || self.mem_latencies.contains(&0) {
            return err("mem_latencies", "need at least one latency, all >= 1".to_string());
        }
        if let Some(bad) = self.vpredict_entries.iter().find(|&&n| n != 0 && !n.is_power_of_two()) {
            return err(
                "vpredict_entries",
                format!("table sizes must be powers of two (or 0 = off), got {bad}"),
            );
        }
        Ok(())
    }

    /// The value-predictor axis as grid values: `[None]` when the axis
    /// is absent (so the product and keys match the pre-axis layout).
    fn vpredict_axis(&self) -> Vec<Option<usize>> {
        if self.vpredict_entries.is_empty() {
            vec![None]
        } else {
            self.vpredict_entries.iter().map(|&n| Some(n)).collect()
        }
    }

    /// The memory-model axis as grid values: `[None]` when absent, so
    /// model-less grids keep their pre-axis keys and row bytes.
    fn memory_model_axis(&self) -> Vec<Option<MemoryModel>> {
        if self.memory_models.is_empty() {
            vec![None]
        } else {
            self.memory_models.iter().map(|&m| Some(m)).collect()
        }
    }

    /// Points in the grid (before filtering).
    pub fn total_points(&self) -> usize {
        self.seeds.len()
            * self.spacings.len()
            * self.contexts.len()
            * self.mem_latencies.len()
            * self.vpredict_axis().len()
            * self.memory_model_axis().len()
    }
}

/// One grid point: a workload seed plus a machine configuration index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepPoint {
    /// Workload RNG seed.
    pub seed: u64,
    /// Sub-thread spacing in speculative instructions.
    pub spacing: u64,
    /// Sub-thread contexts.
    pub contexts: u8,
    /// Minimum memory latency in cycles.
    pub mem_latency: u64,
    /// Value-predictor table size (`None` when the grid has no
    /// `vpredict_entries` axis; `Some(0)` = axis present, predictor off).
    pub vpredict_entries: Option<usize>,
    /// Memory model (`None` when the grid has no `memory_models` axis).
    pub memory_model: Option<MemoryModel>,
}

impl SweepPoint {
    /// The point's stable key — what `--filter` substring-matches and
    /// what each JSONL row carries. Grids without a `vpredict_entries`
    /// or `memory_models` axis keep the pre-axis key shape, byte for
    /// byte.
    pub fn key(&self) -> String {
        let mut key = format!(
            "seed={}/spacing={}/ctx={}/mem={}",
            self.seed, self.spacing, self.contexts, self.mem_latency
        );
        if let Some(vp) = self.vpredict_entries {
            key.push_str(&format!("/vp={vp}"));
        }
        if let Some(m) = self.memory_model {
            key.push_str(&format!("/mm={}", memory_model_name(m)));
        }
        key
    }
}

/// A compiled sweep: the point sequence (seed-major, so each seed's
/// trace maps exactly once) and the interned machine-configuration grid
/// shared across seeds.
pub struct SweepPlan {
    /// The parsed grid.
    pub spec: SweepSpec,
    /// Workload scale.
    pub scale: Scale,
    /// `(config, canonical JSON)` per (spacing, contexts, mem) triple,
    /// in grid order — built once, reused by every seed.
    configs: Vec<(CmpConfig, String)>,
    /// `(config index, point)` in canonical execution order.
    points: Vec<(usize, SweepPoint)>,
}

impl SweepPlan {
    /// Compiles `spec` at `scale`: interns the machine grid and lays the
    /// points out seed-major.
    pub fn new(spec: SweepSpec, scale: Scale) -> SweepPlan {
        let base = paper_machine();
        let vp_axis = spec.vpredict_axis();
        let mm_axis = spec.memory_model_axis();
        // One machine per (spacing, contexts, mem, vp, mm) tuple, with
        // the point it stands for minus the seed.
        let mut configs = Vec::new();
        let mut axes = Vec::new();
        for &spacing in &spec.spacings {
            for &contexts in &spec.contexts {
                for &mem_latency in &spec.mem_latencies {
                    for &vpredict_entries in &vp_axis {
                        for &memory_model in &mm_axis {
                            let mut cfg = base;
                            cfg.subthreads.spacing = SpacingPolicy::Every(spacing);
                            cfg.subthreads.contexts = contexts;
                            cfg.mem.mem_min_latency = mem_latency;
                            if let Some(entries) = vpredict_entries.filter(|&n| n > 0) {
                                cfg.vpredict =
                                    VPredictConfig { entries, ..VPredictConfig::prophet() };
                            }
                            if let Some(model) = memory_model {
                                cfg.memory_model = model;
                            }
                            let mut json = String::new();
                            cfg.serialize(&mut json);
                            configs.push((cfg, json));
                            axes.push(SweepPoint {
                                seed: 0,
                                spacing,
                                contexts,
                                mem_latency,
                                vpredict_entries,
                                memory_model,
                            });
                        }
                    }
                }
            }
        }
        let points = spec
            .seeds
            .iter()
            .flat_map(|&seed| {
                axes.iter().enumerate().map(move |(ci, p)| (ci, SweepPoint { seed, ..*p }))
            })
            .collect();
        SweepPlan { spec, scale, configs, points }
    }

    /// The machine configuration and canonical JSON of config `i`.
    pub fn config(&self, i: usize) -> (&CmpConfig, &str) {
        let (cfg, json) = &self.configs[i];
        (cfg, json)
    }

    /// Points surviving `--filter` (comma-separated substrings matched
    /// against [`SweepPoint::key`]; `None` keeps everything), in
    /// execution order.
    pub fn selected(&self, filter: Option<&str>) -> Vec<(usize, SweepPoint)> {
        match filter {
            None => self.points.clone(),
            Some(f) => {
                let needles: Vec<&str> =
                    f.split(',').map(str::trim).filter(|s| !s.is_empty()).collect();
                self.points
                    .iter()
                    .filter(|(_, p)| {
                        let key = p.key();
                        needles.iter().any(|n| key.contains(n))
                    })
                    .copied()
                    .collect()
            }
        }
    }

    /// Like [`SweepPlan::selected`], but a needle that matches no point
    /// key is a typed error naming the needle and every matchable key
    /// component of this grid — a silent empty selection would write an
    /// empty row file that reads as "sweep done".
    pub fn selected_checked(
        &self,
        filter: Option<&str>,
    ) -> Result<Vec<(usize, SweepPoint)>, SweepError> {
        if let Some(f) = filter {
            for needle in f.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                if !self.points.iter().any(|(_, p)| p.key().contains(needle)) {
                    return Err(SweepError {
                        field: Some("--filter".to_string()),
                        message: format!(
                            "'{needle}' matches none of the {} point keys; matchable \
                             components: {}",
                            self.points.len(),
                            self.matchable_components()
                        ),
                    });
                }
            }
        }
        Ok(self.selected(filter))
    }

    /// The key components `--filter` can substring-match in this grid,
    /// with their actual axis values (`seed={1,2} spacing={1000} ...`).
    fn matchable_components(&self) -> String {
        let list = |name: &str, values: Vec<String>| format!("{name}={{{}}}", values.join(","));
        let mut out = vec![
            list("seed", self.spec.seeds.iter().map(|v| v.to_string()).collect()),
            list("spacing", self.spec.spacings.iter().map(|v| v.to_string()).collect()),
            list("ctx", self.spec.contexts.iter().map(|v| v.to_string()).collect()),
            list("mem", self.spec.mem_latencies.iter().map(|v| v.to_string()).collect()),
        ];
        if !self.spec.vpredict_entries.is_empty() {
            out.push(list(
                "vp",
                self.spec.vpredict_entries.iter().map(|v| v.to_string()).collect(),
            ));
        }
        if !self.spec.memory_models.is_empty() {
            out.push(list(
                "mm",
                self.spec.memory_models.iter().map(|&m| memory_model_name(m)).collect(),
            ));
        }
        out.join(" ")
    }

    /// The snapshot key of one seed's recording.
    pub fn trace_key(&self, seed: u64) -> TraceKey {
        let mut cfg = self.scale.tpcc();
        cfg.seed = seed;
        let count = if self.spec.count > 0 {
            self.spec.count
        } else {
            instances(self.spec.benchmark, self.scale)
        };
        TraceKey { cfg, txn: self.spec.benchmark, count }
    }
}

/// Renders one JSONL row, newline included. Field order is fixed and
/// the report is spliced in as its cached canonical compact JSON, so the
/// stream is byte-identical for any worker count, any cache temperature,
/// and across resumes.
fn render_row(point: &SweepPoint, fingerprint: u64, report: &ReportJson) -> String {
    use std::fmt::Write as _;
    let mut row = String::with_capacity(report.json.len() + 192);
    writeln!(
        row,
        "{{\"point\":\"{}\",\"seed\":{},\"spacing\":{},\"contexts\":{},\"mem_latency\":{},\
         \"fingerprint\":\"{fingerprint:016x}\",\"total_cycles\":{},\"report\":{}}}",
        point.key(),
        point.seed,
        point.spacing,
        point.contexts,
        point.mem_latency,
        report.total_cycles,
        report.json,
    )
    .expect("write to string");
    row
}

/// Result of validating an existing row file for `--resume`: how many
/// leading rows are intact and in expected order, and their cycle counts
/// (fed into the aggregates without re-running the points).
struct ResumState {
    /// Valid leading rows (also the index of the first point to run).
    rows: usize,
    /// Byte length of the valid prefix.
    bytes: usize,
    /// `total_cycles` of each valid row, in order.
    cycles: Vec<u64>,
}

/// Validates `text` against the expected point sequence. A row that
/// fails to parse, carries the wrong point key, or ends without a
/// newline (a torn tail from `kill -9`) ends the valid prefix.
fn validate_rows(text: &str, expected: &[(usize, SweepPoint)]) -> ResumState {
    let mut state = ResumState { rows: 0, bytes: 0, cycles: Vec::new() };
    let mut offset = 0;
    for line in text.split_inclusive('\n') {
        if !line.ends_with('\n') {
            break; // torn tail
        }
        if state.rows >= expected.len() {
            break; // stale rows beyond this grid — truncate them
        }
        let Ok(v) = serde::parse(line) else { break };
        let Value::Object(pairs) = &v else { break };
        let get = |k: &str| pairs.iter().find(|(key, _)| key == k).map(|(_, v)| v);
        let Some(Value::Str(point)) = get("point") else { break };
        let Some(Value::Int(cycles)) = get("total_cycles") else { break };
        if *point != expected[state.rows].1.key() || *cycles < 0 {
            break;
        }
        offset += line.len();
        state.cycles.push(*cycles as u64);
        state.rows += 1;
        state.bytes = offset;
    }
    state
}

/// Peak resident-set size of this process in kilobytes, from
/// `/proc/self/status` `VmHWM` (0 where unavailable).
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0 };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
        }
    }
    0
}

/// Running per-configuration aggregate across seeds.
#[derive(Debug, Clone, Copy, Serialize)]
struct ConfigAgg {
    spacing: u64,
    contexts: u8,
    mem_latency: u64,
    points: usize,
    mean_cycles: f64,
    min_cycles: u64,
    max_cycles: u64,
}

/// The `sweep` section of `BENCH_suite.json`.
#[derive(Serialize)]
struct BenchSweep {
    name: String,
    scale: &'static str,
    jobs: usize,
    grid_points: usize,
    selected_points: usize,
    resumed_points: usize,
    executed_points: usize,
    /// Simulations the executed points took.
    report_sims: u64,
    /// Executed points answered by a run of another sub-thread
    /// configuration.
    envelope_hits: u64,
    wall_s: f64,
    points_per_hour: f64,
    peak_rss_kb: u64,
    total_sim_cycles: u64,
    baseline_sample: usize,
    baseline_wall_s: f64,
    baseline_points_per_hour: f64,
    speedup_vs_baseline: f64,
}

/// Everything `suite sweep` accepts on its command line.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// The grid file.
    pub spec_path: PathBuf,
    /// Workload scale override (`--scale`; the grid itself has no scale).
    pub scale: Scale,
    /// Worker threads.
    pub jobs: usize,
    /// Artifact directory (rows + summary land here).
    pub out_dir: PathBuf,
    /// Snapshot cache directory; `None` after `--no-cache`.
    pub trace_dir: Option<PathBuf>,
    /// Comma-separated point-key substrings.
    pub filter: Option<String>,
    /// Resume a partial row file instead of restarting.
    pub resume: bool,
    /// Where the `sweep` bench section is merged.
    pub bench_path: PathBuf,
    /// Points to measure the one-simulation-per-job equivalent on
    /// (0 disables the comparison).
    pub baseline_sample: usize,
    /// Suppress the summary table on stdout.
    pub quiet: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            spec_path: PathBuf::new(),
            scale: Scale::Paper,
            jobs: JobPool::available(),
            out_dir: PathBuf::from("results"),
            trace_dir: Some(PathBuf::from("traces")),
            filter: None,
            resume: false,
            bench_path: PathBuf::from("BENCH_suite.json"),
            baseline_sample: 8,
            quiet: false,
        }
    }
}

/// What a sweep run produced (the verb prints from this; tests assert
/// on it).
pub struct SweepOutcome {
    /// Path of the JSONL row stream.
    pub rows_path: PathBuf,
    /// Path of the aggregate summary artifact.
    pub summary_path: PathBuf,
    /// Rows taken from a previous run via `--resume`.
    pub resumed_points: usize,
    /// Points simulated by this run.
    pub executed_points: usize,
    /// Simulated cycles across executed points.
    pub total_sim_cycles: u64,
    /// Wall time of the batched run, in seconds.
    pub wall_s: f64,
    /// The human-readable summary table.
    pub summary_text: String,
    /// The run's report and trace cache counters.
    pub store_stats: StoreStats,
}

/// Runs a sweep end to end: resume-validate, batch per seed, stream
/// rows, aggregate, and write the summary artifact. Returns an error
/// string suitable for stderr.
pub fn run_sweep(plan: &SweepPlan, opts: &SweepOptions) -> Result<SweepOutcome, String> {
    let selected = plan.selected(opts.filter.as_deref());
    if selected.is_empty() {
        return Err(format!(
            "no point matches --filter {:?} (grid has {} points)",
            opts.filter.as_deref().unwrap_or(""),
            plan.spec.total_points()
        ));
    }
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.out_dir.display()))?;
    let rows_path = opts.out_dir.join(format!("sweep_{}.jsonl", plan.spec.name));
    let summary_path = opts.out_dir.join(format!("sweep_{}_summary.json", plan.spec.name));

    // --resume: keep the longest valid prefix of an existing row file.
    let mut resumed_cycles: Vec<u64> = Vec::new();
    if opts.resume {
        if let Ok(text) = std::fs::read_to_string(&rows_path) {
            let state = validate_rows(&text, &selected);
            if state.bytes < text.len() {
                eprintln!(
                    "resume: truncating {} byte(s) of torn/stale tail after {} valid row(s)",
                    text.len() - state.bytes,
                    state.rows
                );
                std::fs::write(&rows_path, &text.as_bytes()[..state.bytes])
                    .map_err(|e| format!("truncate {}: {e}", rows_path.display()))?;
            } else if state.rows > 0 {
                eprintln!("resume: {} valid row(s) kept", state.rows);
            }
            resumed_cycles = state.cycles;
        }
    } else {
        // A fresh run never appends to stale rows.
        let _ = std::fs::remove_file(&rows_path);
    }
    let resumed_points = resumed_cycles.len();
    let todo = &selected[resumed_points..];

    let mut rows_file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&rows_path)
        .map_err(|e| format!("open {}: {e}", rows_path.display()))?;

    let store = HarnessStore::new(opts.trace_dir.clone(), true);
    let pool = JobPool::new(opts.jobs);

    // Aggregates fold in resumed rows first, so the summary is the same
    // whether the run was interrupted or not.
    // (points, sum, min, max) of total cycles, indexed by config.
    let mut aggs = vec![(0usize, 0u64, u64::MAX, 0u64); plan.configs.len()];
    let mut fold = |ci: usize, cycles: u64| {
        let a = &mut aggs[ci];
        *a = (a.0 + 1, a.1 + cycles, a.2.min(cycles), a.3.max(cycles));
    };
    for ((ci, _), &cycles) in selected.iter().zip(&resumed_cycles) {
        fold(*ci, cycles);
    }

    let start = Instant::now();
    let mut executed = 0usize;
    let mut total_sim_cycles = 0u64;
    // Every seed's trace pair, mapped or recorded side by side on the
    // pool before any point runs, so no worker idles while a seed records.
    let mut seeds: Vec<u64> = todo.iter().map(|(_, point)| point.seed).collect();
    seeds.sort_unstable();
    seeds.dedup();
    let jobs: Vec<Box<dyn FnOnce() -> Arc<StoredPrograms> + Send + '_>> = seeds
        .iter()
        .map(|&seed| {
            let store = &store;
            let job: Box<dyn FnOnce() -> Arc<StoredPrograms> + Send + '_> =
                Box::new(move || store.programs(&plan.trace_key(seed)));
            job
        })
        .collect();
    let recorded: HashMap<u64, Arc<StoredPrograms>> =
        seeds.into_iter().zip(pool.run(jobs)).collect();
    // Seed-major batching: each contiguous run of same-seed points fans
    // its configs across the pool.
    let mut i = 0;
    while i < todo.len() {
        let seed = todo[i].1.seed;
        let mut j = i;
        while j < todo.len() && todo[j].1.seed == seed {
            j += 1;
        }
        let group = &todo[i..j];
        let programs = &recorded[&seed];
        // Each job renders its own row; this thread only concatenates.
        let jobs: Vec<Box<dyn FnOnce() -> (String, u64) + Send + '_>> = group
            .iter()
            .map(|(ci, point)| {
                let (cfg, json) = plan.config(*ci);
                let programs = programs.clone();
                let store = &store;
                let job: Box<dyn FnOnce() -> (String, u64) + Send + '_> = Box::new(move || {
                    let report = store.report_json(&programs.tls, cfg, json);
                    (render_row(point, programs.tls.fingerprint(), &report), report.total_cycles)
                });
                job
            })
            .collect();
        let rows = pool.run(jobs);
        let mut chunk = String::with_capacity(rows.iter().map(|(row, _)| row.len()).sum());
        for ((ci, _), (row, cycles)) in group.iter().zip(&rows) {
            chunk.push_str(row);
            fold(*ci, *cycles);
            total_sim_cycles += cycles;
            executed += 1;
        }
        rows_file
            .write_all(chunk.as_bytes())
            .map_err(|e| format!("append {}: {e}", rows_path.display()))?;
        i = j;
    }
    rows_file.flush().map_err(|e| format!("flush {}: {e}", rows_path.display()))?;
    let wall_s = start.elapsed().as_secs_f64();

    // Aggregate summary, in config (grid) order, over the configs the
    // selection touched.
    let mut summary: Vec<ConfigAgg> = Vec::new();
    for (ci, &(points, sum, min_cycles, max_cycles)) in
        aggs.iter().enumerate().filter(|(_, a)| a.0 > 0)
    {
        let (cfg, _) = plan.config(ci);
        let spacing = match cfg.subthreads.spacing {
            SpacingPolicy::Every(n) => n,
            SpacingPolicy::EvenDivision => 0,
        };
        summary.push(ConfigAgg {
            spacing,
            contexts: cfg.subthreads.contexts,
            mem_latency: cfg.mem.mem_min_latency,
            points,
            mean_cycles: sum as f64 / points as f64,
            min_cycles,
            max_cycles,
        });
    }
    let mut summary_text = String::new();
    use std::fmt::Write as _;
    writeln!(
        summary_text,
        "{:<10} {:>8} {:>6} {:>6} {:>14} {:>14} {:>14}",
        "spacing", "ctx", "mem", "seeds", "mean cycles", "min", "max"
    )
    .expect("write to string");
    for a in &summary {
        writeln!(
            summary_text,
            "{:<10} {:>8} {:>6} {:>6} {:>14.0} {:>14} {:>14}",
            a.spacing,
            a.contexts,
            a.mem_latency,
            a.points,
            a.mean_cycles,
            a.min_cycles,
            a.max_cycles
        )
        .expect("write to string");
    }
    let mut summary_json = serde_json::to_string_pretty(&summary).expect("serialize summary");
    summary_json.push('\n');
    std::fs::write(&summary_path, summary_json)
        .map_err(|e| format!("write {}: {e}", summary_path.display()))?;

    Ok(SweepOutcome {
        rows_path,
        summary_path,
        resumed_points,
        executed_points: executed,
        total_sim_cycles,
        wall_s,
        summary_text,
        store_stats: store.stats,
    })
}

/// The one-simulation-per-job equivalent of one point: map and verify
/// the snapshot file, simulate, and persist the report container with an
/// fsync, sharing nothing with other points. Returns the simulated
/// cycles (so the caller can sanity-check against the batched rows).
fn baseline_point(
    trace_path: &Path,
    key_hash: u64,
    cfg: &CmpConfig,
    scratch: &Path,
    idx: usize,
) -> Result<u64, String> {
    let view = match TraceView::open(trace_path, key_hash) {
        MapOutcome::Mapped(view) => view,
        other => return Err(format!("baseline open {}: {other:?}", trace_path.display())),
    };
    let programs = StoredPrograms::from_view(Arc::new(*view));
    let report =
        CmpSimulator::new(*cfg).run_view(&programs.tls.view(), RunOptions::checked_default(), None);
    let json = serde_json::to_string(&report).expect("report serializes");
    let container = encode_container(KIND_SIM_REPORT, key_hash ^ idx as u64, json.as_bytes());
    let path = scratch.join(format!("{idx}.rpt"));
    std::fs::File::create(&path)
        .and_then(|mut f| {
            f.write_all(&container)?;
            f.sync_all()
        })
        .map_err(|e| format!("baseline write {}: {e}", path.display()))?;
    Ok(report.total_cycles)
}

/// Measures the one-simulation-per-job equivalent on the first `sample`
/// selected points. Returns `(points timed, wall seconds)`; `(0, 0.0)`
/// when disabled, cache-less, or nothing is on disk to read.
fn measure_baseline(
    plan: &SweepPlan,
    opts: &SweepOptions,
    selected: &[(usize, SweepPoint)],
) -> Result<(usize, f64), String> {
    let Some(trace_dir) = &opts.trace_dir else { return Ok((0, 0.0)) };
    let sample = opts.baseline_sample.min(selected.len());
    if sample == 0 {
        return Ok((0, 0.0));
    }
    let scratch = opts.out_dir.join(format!(".sweep_{}_baseline", plan.spec.name));
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
    let start = Instant::now();
    for (idx, (ci, point)) in selected[..sample].iter().enumerate() {
        let key = plan.trace_key(point.seed);
        let trace_path = trace_dir.join(key.file_name());
        let (cfg, _) = plan.config(*ci);
        baseline_point(&trace_path, key.hash(), cfg, &scratch, idx)?;
    }
    let wall = start.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&scratch);
    Ok((sample, wall))
}

/// The grid axes with two or more values along which no report changed:
/// every two `selected` points that differ only in that axis have the
/// same report bytes in `rows` (the row file, one row per point in
/// order).
fn idle_axes(plan: &SweepPlan, selected: &[(usize, SweepPoint)], rows: &str) -> Vec<&'static str> {
    // Each axis with the function that blanks it out of a point.
    type Blank = fn(&mut SweepPoint);
    let spec = &plan.spec;
    let axes: [(&str, usize, Blank); 6] = [
        ("seeds", spec.seeds.len(), |p| p.seed = 0),
        ("spacings", spec.spacings.len(), |p| p.spacing = 0),
        ("contexts", spec.contexts.len(), |p| p.contexts = 0),
        ("mem_latencies", spec.mem_latencies.len(), |p| p.mem_latency = 0),
        ("vpredict_entries", spec.vpredict_entries.len(), |p| p.vpredict_entries = None),
        ("memory_models", spec.memory_models.len(), |p| p.memory_model = None),
    ];
    let reports: Vec<&str> =
        rows.lines().map(|row| row.find(",\"report\":").map_or(row, |at| &row[at..])).collect();
    let mut idle = Vec::new();
    for (name, _, blank) in axes.into_iter().filter(|&(_, values, _)| values >= 2) {
        let mut seen: HashMap<String, &str> = HashMap::new();
        let changed = selected.iter().zip(&reports).any(|((_, point), report)| {
            let mut rest = *point;
            blank(&mut rest);
            *seen.entry(rest.key()).or_insert(report) != *report
        });
        if !changed {
            idle.push(name);
        }
    }
    idle
}

/// Merges `section` into the JSON object at `path` under the `sweep`
/// key, preserving every other key (so a sweep after a suite run
/// augments `BENCH_suite.json` instead of clobbering it).
fn merge_bench_section(path: &Path, section: &BenchSweep) -> Result<(), String> {
    let section_json = serde_json::to_string(section).expect("bench section serializes");
    let section_value =
        serde::parse(&section_json).map_err(|e| format!("bench section reparse: {}", e.0))?;
    let mut pairs = match std::fs::read_to_string(path).ok().and_then(|t| serde::parse(&t).ok()) {
        Some(Value::Object(pairs)) => pairs,
        _ => Vec::new(),
    };
    pairs.retain(|(k, _)| k != "sweep");
    pairs.push(("sweep".to_string(), section_value));
    let mut out = String::new();
    Value::Object(pairs).write(&mut out, Some(2), 0);
    out.push('\n');
    std::fs::write(path, out).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Parses the `suite sweep` command line.
pub fn parse_sweep_args(args: &[String]) -> Result<SweepOptions, CliError> {
    let mut opts = SweepOptions::default();
    let mut spec_path = None;
    let shared = cli::parse(args, USAGE, cli::ALL, |arg, rest| {
        match arg {
            "--filter" => opts.filter = Some(rest.value(arg)?.to_string()),
            "--resume" => opts.resume = true,
            "--bench" => opts.bench_path = rest.value(arg)?.into(),
            "--baseline-sample" => opts.baseline_sample = rest.parsed(arg, "a number")?,
            "--quiet" => opts.quiet = true,
            path if spec_path.is_none() && !path.starts_with("--") => {
                spec_path = Some(PathBuf::from(path))
            }
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    opts.spec_path =
        spec_path.ok_or_else(|| cli::bad(format!("suite sweep: which grid file?\n{USAGE}")))?;
    opts.scale = shared.scale;
    opts.jobs = shared.jobs;
    opts.out_dir = shared.out_dir;
    opts.trace_dir = shared.trace_dir;
    Ok(opts)
}

/// The `suite sweep <grid.json>` verb. Returns the process exit code.
pub fn run_sweep_verb(args: &[String]) -> i32 {
    let opts = match parse_sweep_args(args) {
        Ok(o) => o,
        Err(e) => return e.report(),
    };
    let src = match std::fs::read_to_string(&opts.spec_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: read {}: {e}", opts.spec_path.display());
            return 1;
        }
    };
    let spec = match SweepSpec::parse(&src) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("{}: {e}", opts.spec_path.display());
            eprintln!("valid fields:");
            for (name, what) in SweepSpec::valid_fields() {
                eprintln!("  {name:<16} {what}");
            }
            return 2;
        }
    };
    let plan = SweepPlan::new(spec, opts.scale);
    // A filter matching nothing is a usage error (exit 2), not an empty
    // row file masquerading as a finished sweep.
    let selected = match plan.selected_checked(opts.filter.as_deref()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("suite sweep: {e}");
            return 2;
        }
    };
    let out = match run_sweep(&plan, &opts) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let stats = out.store_stats.snapshot();
    if !opts.quiet {
        print!("{}", out.summary_text);
        println!(
            "simulated {} of {} point(s); {} answered by a run of another sub-thread \
             configuration, {} read from disk",
            stats[5], out.executed_points, stats[13], stats[4]
        );
        match std::fs::read_to_string(&out.rows_path) {
            Ok(rows) => {
                let idle = idle_axes(&plan, &selected, &rows);
                if !idle.is_empty() {
                    println!("axes that changed no report: {}", idle.join(", "));
                }
            }
            Err(e) => eprintln!("warning: read {}: {e}", out.rows_path.display()),
        }
    }
    eprintln!(
        "sweep {}: {} point(s) ({} resumed) in {:.3}s — {:.0} points/hour, peak RSS {} kB",
        plan.spec.name,
        out.resumed_points + out.executed_points,
        out.resumed_points,
        out.wall_s,
        3600.0 * out.executed_points as f64 / out.wall_s.max(1e-9),
        peak_rss_kb(),
    );
    eprintln!("wrote {}", out.rows_path.display());
    eprintln!("wrote {}", out.summary_path.display());

    let (baseline_sample, baseline_wall_s) = match measure_baseline(&plan, &opts, &selected) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("warning: baseline comparison skipped: {e}");
            (0, 0.0)
        }
    };
    let points_per_hour = 3600.0 * out.executed_points as f64 / out.wall_s.max(1e-9);
    let baseline_points_per_hour = if baseline_sample > 0 {
        3600.0 * baseline_sample as f64 / baseline_wall_s.max(1e-9)
    } else {
        0.0
    };
    let speedup = if baseline_points_per_hour > 0.0 {
        points_per_hour / baseline_points_per_hour
    } else {
        0.0
    };
    if baseline_sample > 0 {
        eprintln!(
            "one-sim-per-job equivalent: {:.0} points/hour over {} sample point(s) \
             ({speedup:.2}x batched speedup)",
            baseline_points_per_hour, baseline_sample
        );
    }
    let section = BenchSweep {
        name: plan.spec.name.clone(),
        scale: opts.scale.name(),
        jobs: opts.jobs,
        grid_points: plan.spec.total_points(),
        selected_points: selected.len(),
        resumed_points: out.resumed_points,
        executed_points: out.executed_points,
        report_sims: stats[5],
        envelope_hits: stats[13],
        wall_s: out.wall_s,
        points_per_hour,
        peak_rss_kb: peak_rss_kb(),
        total_sim_cycles: out.total_sim_cycles,
        baseline_sample,
        baseline_wall_s,
        baseline_points_per_hour,
        speedup_vs_baseline: speedup,
    };
    if let Err(e) = merge_bench_section(&opts.bench_path, &section) {
        eprintln!("error: {e}");
        return 1;
    }
    eprintln!("merged sweep section into {}", opts.bench_path.display());
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_src() -> &'static str {
        r#"{
            "name": "demo",
            "benchmark": "payment",
            "count": 1,
            "seeds": [1, 2],
            "spacings": [1000, 5000],
            "contexts": [2, 8],
            "mem_latencies": [75]
        }"#
    }

    #[test]
    fn parses_a_grid() {
        let spec = SweepSpec::parse(grid_src()).expect("parse");
        assert_eq!(spec.name, "demo");
        assert_eq!(spec.benchmark, Transaction::Payment);
        assert_eq!(spec.total_points(), 8);
    }

    #[test]
    fn rejects_bad_grids() {
        assert!(SweepSpec::parse("not json").is_err());
        assert!(SweepSpec::parse(r#"{"name":"x"}"#).is_err(), "empty axes");
        let bad_ctx = grid_src().replace("[2, 8]", "[0]");
        assert!(SweepSpec::parse(&bad_ctx).is_err(), "context 0");
        let bad_bench = grid_src().replace("payment", "bogus");
        assert!(SweepSpec::parse(&bad_bench).is_err(), "unknown benchmark");
        let unknown = grid_src().replace("\"count\"", "\"frobnicate\"");
        assert!(SweepSpec::parse(&unknown).is_err(), "unknown field");
    }

    #[test]
    fn a_repeated_field_is_an_error_not_the_last_value() {
        // The grid used to take the last value of a repeated field, and
        // derived impls the first.
        let twice = grid_src().replace("\"seeds\": [1, 2],", "\"seeds\": [1, 2], \"seeds\": [3],");
        let e = SweepSpec::parse(&twice).expect_err("repeated field");
        assert!(e.message.contains("duplicate key `seeds`"), "{e}");
        let opts = r#"{"per_thread_log":true,"no_global_stats":true,"latch_free":true,"latch_free":false}"#;
        let e = serde_json::from_str::<tls_minidb::OptLevel>(opts).expect_err("repeated field");
        assert!(e.to_string().contains("duplicate key `latch_free`"), "{e}");
    }

    #[test]
    fn points_are_seed_major_and_filterable() {
        let plan = SweepPlan::new(SweepSpec::parse(grid_src()).unwrap(), Scale::Test);
        let all = plan.selected(None);
        assert_eq!(all.len(), 8);
        // Seed-major: the first half is seed 1, the second seed 2.
        assert!(all[..4].iter().all(|(_, p)| p.seed == 1));
        assert!(all[4..].iter().all(|(_, p)| p.seed == 2));
        // Config indices repeat identically across seeds.
        let firsts: Vec<usize> = all[..4].iter().map(|(ci, _)| *ci).collect();
        let seconds: Vec<usize> = all[4..].iter().map(|(ci, _)| *ci).collect();
        assert_eq!(firsts, seconds);
        let filtered = plan.selected(Some("seed=2/spacing=5000"));
        assert_eq!(filtered.len(), 2);
        assert!(filtered.iter().all(|(_, p)| p.seed == 2 && p.spacing == 5000));
    }

    #[test]
    fn resume_validation_keeps_the_valid_prefix_only() {
        let plan = SweepPlan::new(SweepSpec::parse(grid_src()).unwrap(), Scale::Test);
        let pts = plan.selected(None);
        let row = |i: usize, cycles: u64| {
            format!("{{\"point\":\"{}\",\"total_cycles\":{cycles}}}\n", pts[i].1.key())
        };
        // Two good rows, then a torn third.
        let text = format!("{}{}{}", row(0, 10), row(1, 20), "{\"point\":\"seed=");
        let state = validate_rows(&text, &pts);
        assert_eq!(state.rows, 2);
        assert_eq!(state.cycles, vec![10, 20]);
        assert_eq!(state.bytes, row(0, 10).len() + row(1, 20).len());
        // A wrong-order row ends the prefix even though it parses.
        let text = format!("{}{}", row(1, 20), row(0, 10));
        assert_eq!(validate_rows(&text, &pts).rows, 0);
        // Garbage is rejected outright.
        assert_eq!(validate_rows("nonsense\n", &pts).rows, 0);
    }

    #[test]
    fn vpredict_axis_is_opt_in() {
        // Absent axis: keys and point count match the pre-axis layout.
        let plan = SweepPlan::new(SweepSpec::parse(grid_src()).unwrap(), Scale::Test);
        assert!(plan.selected(None).iter().all(|(_, p)| !p.key().contains("/vp=")));

        // Present axis: the product grows and keys carry the suffix.
        let src = grid_src().replace(
            "\"mem_latencies\": [75]",
            "\"mem_latencies\": [75],\n\"vpredict_entries\": [0, 1024]",
        );
        let spec = SweepSpec::parse(&src).expect("parse with axis");
        assert_eq!(spec.total_points(), 16);
        let plan = SweepPlan::new(spec, Scale::Test);
        let pts = plan.selected(None);
        assert!(pts.iter().all(|(_, p)| p.key().contains("/vp=")));
        let filtered = plan.selected(Some("/vp=1024"));
        assert_eq!(filtered.len(), 8);
        // vp=0 leaves the predictor off; vp=1024 turns it on.
        let off = pts.iter().find(|(_, p)| p.vpredict_entries == Some(0)).unwrap();
        let on = pts.iter().find(|(_, p)| p.vpredict_entries == Some(1024)).unwrap();
        assert!(!plan.config(off.0).0.vpredict.enabled);
        let on_cfg = plan.config(on.0).0;
        assert!(on_cfg.vpredict.enabled);
        assert_eq!(on_cfg.vpredict.entries, 1024);

        // Non-power-of-two sizes are rejected.
        let bad = grid_src().replace(
            "\"mem_latencies\": [75]",
            "\"mem_latencies\": [75],\n\"vpredict_entries\": [48]",
        );
        assert!(SweepSpec::parse(&bad).is_err());
    }

    #[test]
    fn memory_model_axis_is_opt_in() {
        // Absent axis: keys and point count match the pre-axis layout.
        let plan = SweepPlan::new(SweepSpec::parse(grid_src()).unwrap(), Scale::Test);
        assert!(plan.selected(None).iter().all(|(_, p)| !p.key().contains("/mm=")));

        // Present axis: the product grows and keys carry the suffix.
        let src = grid_src().replace(
            "\"mem_latencies\": [75]",
            "\"mem_latencies\": [75],\n\"memory_models\": [\"sc\", \"tso8\"]",
        );
        let spec = SweepSpec::parse(&src).expect("parse with axis");
        assert_eq!(spec.total_points(), 16);
        let plan = SweepPlan::new(spec, Scale::Test);
        let pts = plan.selected(None);
        assert!(pts.iter().all(|(_, p)| p.key().contains("/mm=")));
        let filtered = plan.selected(Some("/mm=tso8"));
        assert_eq!(filtered.len(), 8);
        // sc keeps the SC baseline; tso8 configures an 8-entry buffer.
        let sc = pts.iter().find(|(_, p)| p.memory_model == Some(MemoryModel::Sc)).unwrap();
        let tso = pts
            .iter()
            .find(|(_, p)| p.memory_model == Some(MemoryModel::Tso { buffer_entries: 8 }))
            .unwrap();
        assert_eq!(plan.config(sc.0).0.memory_model, MemoryModel::Sc);
        assert_eq!(plan.config(tso.0).0.memory_model, MemoryModel::Tso { buffer_entries: 8 });

        // Unknown model names are rejected.
        let bad = grid_src().replace(
            "\"mem_latencies\": [75]",
            "\"mem_latencies\": [75],\n\"memory_models\": [\"psc\"]",
        );
        assert!(SweepSpec::parse(&bad).is_err());
        assert!(parse_memory_model("tso0").is_none(), "zero-entry buffer");
        assert!(parse_memory_model("tso257").is_none(), "over the cap");
    }

    #[test]
    fn zero_match_filter_is_a_typed_error() {
        let plan = SweepPlan::new(SweepSpec::parse(grid_src()).unwrap(), Scale::Test);
        // A live needle passes through unchanged.
        let ok = plan.selected_checked(Some("seed=2")).expect("matching filter");
        assert_eq!(ok, plan.selected(Some("seed=2")));
        // A dead needle errors even when another needle matches — a
        // typo'd component must never silently shrink the grid.
        let err = plan.selected_checked(Some("seed=2,spacing=9999")).unwrap_err();
        assert_eq!(err.field.as_deref(), Some("--filter"));
        assert!(err.message.contains("spacing=9999"), "{err}");
        assert!(err.message.contains("spacing={1000,5000}"), "lists matchable values: {err}");
        assert!(!err.message.contains("vp={"), "no vp axis in this grid: {err}");
        // No filter, no error.
        assert_eq!(plan.selected_checked(None).expect("unfiltered").len(), 8);
    }

    #[test]
    fn config_json_is_interned_and_canonical() {
        let plan = SweepPlan::new(SweepSpec::parse(grid_src()).unwrap(), Scale::Test);
        let (cfg, json) = plan.config(0);
        let mut fresh = String::new();
        cfg.serialize(&mut fresh);
        assert_eq!(json, fresh);
        // Distinct configs serialize distinctly (the cache key depends
        // on it).
        let (_, other) = plan.config(1);
        assert_ne!(json, other);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_kb() > 0);
        }
    }

    #[test]
    fn parse_args_round_trips() {
        let args: Vec<String> = ["grid.json", "--scale", "test", "--jobs", "3", "--resume"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let o = parse_sweep_args(&args).expect("parse");
        assert_eq!(o.spec_path, PathBuf::from("grid.json"));
        assert_eq!(o.scale, Scale::Test);
        assert_eq!(o.jobs, 3);
        assert!(o.resume);
        let bad = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        for args in [
            &["--bogus"][..],
            &[],
            &["grid.json", "--scale", "huge"],
            &["grid.json", "--jobs", "many"],
            &["grid.json", "--baseline-sample"],
            &["grid.json", "--compare-serial"],
        ] {
            let err = parse_sweep_args(&bad(args)).expect_err("rejected");
            assert!(matches!(err, CliError::Usage(_)), "{args:?}");
            assert_eq!(run_sweep_verb(&bad(args)), 2, "{args:?}");
        }
    }
}
