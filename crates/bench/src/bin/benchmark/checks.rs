//! The correctness gate: operation accounting, the invariants every
//! simulation report must satisfy at any seed, and the committed
//! artifacts the default seed must reproduce.

use serde::Value;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use tls_core::SimReport;

/// Operations attempted and failed during one run. An operation is one
/// recording, compilation, simulation or sweep point; it fails when it
/// panics or when a check on its output fails.
#[derive(Default)]
pub struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
}

impl Tally {
    /// Counts `n` attempted operations.
    pub fn attempt(&self, n: u64) {
        self.attempted.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts one failed operation and says why on stderr.
    pub fn fail(&self, why: &str) {
        self.failed.fetch_add(1, Ordering::Relaxed);
        eprintln!("benchmark: FAILED {why}");
    }

    /// Runs one operation, counting it; a panic counts as a failure and
    /// yields `None`.
    pub fn op<T>(&self, key: &str, f: impl FnOnce() -> T) -> Option<T> {
        self.attempt(1);
        match tls_harness::capture(key, f) {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(&e.to_string());
                None
            }
        }
    }

    /// Operations attempted so far.
    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    /// Operations failed so far.
    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }
}

/// Every invariant a healthy simulation keeps, as a list of violations
/// (empty when the report is healthy).
pub fn report_problems(r: &SimReport, expected_epochs: u64) -> Vec<String> {
    let mut out = Vec::new();
    let cpu_cycles = r.total_cycles * r.cpus as u64;
    if r.breakdown.total() != cpu_cycles {
        out.push(format!(
            "ledger {} != {} cycles x {} cpus",
            r.breakdown.total(),
            r.total_cycles,
            r.cpus
        ));
    }
    if r.committed_epochs != expected_epochs {
        out.push(format!("committed {} of {expected_epochs} epochs", r.committed_epochs));
    }
    if !r.audit_failures.is_empty() {
        out.push(format!("audit failures: {:?}", r.audit_failures));
    }
    if !r.protocol_errors.is_empty() {
        out.push(format!("protocol errors: {:?}", r.protocol_errors));
    }
    if !r.livelocks.is_empty() {
        out.push(format!("{} livelock(s)", r.livelocks.len()));
    }
    if r.serializability_breaches != 0 {
        out.push(format!("{} serializability breaches", r.serializability_breaches));
    }
    out
}

/// Checks one report, counting a failure (not a new operation) when an
/// invariant is broken.
pub fn check_report(tally: &Tally, what: &str, r: &SimReport, expected_epochs: u64) -> bool {
    let problems = report_problems(r, expected_epochs);
    if !problems.is_empty() {
        tally.fail(&format!("{what}: {}", problems.join("; ")));
    }
    problems.is_empty()
}

fn load_json(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    serde::parse(&text).map_err(|e| format!("parse {}: {}", path.display(), e.0))
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.as_object()
        .and_then(|pairs| pairs.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field '{key}'"))
}

fn u64_field(v: &Value, key: &str) -> Result<u64, String> {
    match field(v, key)? {
        Value::Int(n) => u64::try_from(*n).map_err(|_| format!("'{key}' out of range")),
        _ => Err(format!("'{key}' is not an integer")),
    }
}

fn f64_field(v: &Value, key: &str) -> Result<f64, String> {
    match field(v, key)? {
        Value::Float(x) => Ok(*x),
        Value::Int(n) => Ok(*n as f64),
        _ => Err(format!("'{key}' is not a number")),
    }
}

fn str_field<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    field(v, key)?.as_str().ok_or_else(|| format!("'{key}' is not a string"))
}

fn array<'a>(v: &'a Value, what: &str) -> Result<&'a [Value], String> {
    v.as_array().ok_or_else(|| format!("{what} is not an array"))
}

/// The 35 `total_cycles` of `results/figure5.json`, benchmark-major in
/// the file's order (Figure-5 bar order within each benchmark).
pub fn figure5_cycles(root: &Path) -> Result<Vec<u64>, String> {
    let doc = load_json(&root.join("results/figure5.json"))?;
    let mut out = Vec::new();
    for panel in array(&doc, "figure5")? {
        for bar in array(field(panel, "bars")?, "bars")? {
            out.push(u64_field(bar, "total_cycles")?);
        }
    }
    Ok(out)
}

/// One committed collider point: `(memory model, mechanism, spacing)`
/// identifies the simulation; the speedup pins its SEQUENTIAL reference.
#[derive(Debug, Clone, PartialEq)]
pub struct ColliderRow {
    /// `sc`, `tso-4`, … (prediction_frontier rows are all `sc`).
    pub memory_model: String,
    /// Mechanism name as the plans spell it.
    pub mechanism: String,
    /// Checkpoint spacing (0 for mechanisms that never checkpoint).
    pub spacing: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// SEQUENTIAL cycles / `cycles`, as the plan computed it.
    pub speedup: f64,
}

/// The `scan_collision` rows of `results/memory_order.json` and
/// `results/prediction_frontier.json`.
pub fn collider_rows(root: &Path) -> Result<Vec<ColliderRow>, String> {
    let mut out = Vec::new();
    for (file, has_model) in
        [("results/memory_order.json", true), ("results/prediction_frontier.json", false)]
    {
        let doc = load_json(&root.join(file))?;
        for row in array(&doc, file)? {
            if str_field(row, "workload")? != "scan_collision" {
                continue;
            }
            let row_of = |row: &Value| -> Result<ColliderRow, String> {
                Ok(ColliderRow {
                    memory_model: if has_model {
                        str_field(row, "memory_model")?.to_string()
                    } else {
                        "sc".to_string()
                    },
                    mechanism: str_field(row, "mechanism")?.to_string(),
                    spacing: u64_field(row, "spacing")?,
                    cycles: u64_field(row, "cycles")?,
                    speedup: f64_field(row, "speedup_vs_sequential")?,
                })
            };
            out.push(row_of(row).map_err(|e| format!("{file}: {e}"))?);
        }
    }
    Ok(out)
}

/// The identifying fields of one sweep row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepRowKey {
    /// The point key (`seed=1/spacing=500/ctx=1/mem=25`).
    pub point: String,
    /// The trace fingerprint, as rendered in the row.
    pub fingerprint: String,
    /// Simulated cycles.
    pub total_cycles: u64,
}

/// Parses one JSONL sweep row into its key fields and its report.
pub fn parse_sweep_row(line: &str) -> Result<(SweepRowKey, Option<SimReport>), String> {
    let v = serde::parse(line).map_err(|e| format!("sweep row: {}", e.0))?;
    let key = SweepRowKey {
        point: str_field(&v, "point")?.to_string(),
        fingerprint: str_field(&v, "fingerprint")?.to_string(),
        total_cycles: u64_field(&v, "total_cycles")?,
    };
    // The committed rows predate some report fields, so only rows this
    // build wrote are decoded as reports.
    let report = field(&v, "report").ok().and_then(|r| serde::from_value::<SimReport>(r).ok());
    Ok((key, report))
}

/// The key fields of every row of `results-sweep/sweep_ci.jsonl`.
pub fn sweep_reference(root: &Path) -> Result<Vec<SweepRowKey>, String> {
    let path = root.join("results-sweep/sweep_ci.jsonl");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    text.lines().map(|l| parse_sweep_row(l).map(|(k, _)| k)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_counts_panics_as_failures() {
        let t = Tally::default();
        assert_eq!(t.op("ok", || 3), Some(3));
        assert_eq!(t.op("boom", || -> u32 { panic!("injected") }), None);
        t.attempt(2);
        assert_eq!((t.attempted(), t.failed()), (4, 1));
    }

    #[test]
    fn sweep_rows_parse_without_report_fields() {
        let row = r#"{"point":"seed=1/spacing=500/ctx=1/mem=25","seed":1,"fingerprint":"e5d0","total_cycles":1696,"report":{"name":"payment"}}"#;
        let (key, report) = parse_sweep_row(row).expect("row parses");
        assert_eq!(key.point, "seed=1/spacing=500/ctx=1/mem=25");
        assert_eq!((key.fingerprint.as_str(), key.total_cycles), ("e5d0", 1696));
        assert!(report.is_none(), "an incomplete report is not decoded");
        assert!(parse_sweep_row("{}").is_err());
    }
}
