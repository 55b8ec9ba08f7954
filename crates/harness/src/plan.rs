//! Declarative experiment plans.
//!
//! A [`Plan`] names one artifact of the evaluation (`figure5`,
//! `ablations`, …) and knows how to (a) enumerate the workload traces it
//! needs — so the suite can pre-record them through the parallel runner —
//! and (b) produce the artifact: fan its independent (benchmark ×
//! experiment × configuration) simulations across the [`JobPool`],
//! assemble the results **in plan order**, and render both the JSON
//! artifact and its human-readable table.
//!
//! Because jobs are pure and results are assembled positionally, a plan's
//! output is byte-identical for any `--jobs` value and for cold or warm
//! snapshot caches.

use crate::eval::{instances, Scale};
use crate::runner::JobPool;
use crate::store::{HarnessStore, KeyedProgram, StoredPrograms, TraceKey};
use std::sync::Arc;
use tls_core::experiment::ExperimentKind;
use tls_core::{CmpConfig, SimReport};
use tls_minidb::Transaction;

/// Everything a plan needs to run.
pub struct PlanCtx<'a> {
    /// Workload scale.
    pub scale: Scale,
    /// The base machine configuration (the paper's 4-CPU chip).
    pub machine: CmpConfig,
    /// Trace-snapshot and simulation-report store.
    pub store: &'a HarnessStore,
    /// The parallel runner.
    pub pool: &'a JobPool,
}

impl PlanCtx<'_> {
    /// The snapshot key of a benchmark at this context's scale.
    pub fn trace_key(&self, txn: Transaction) -> TraceKey {
        TraceKey { cfg: self.scale.tpcc(), txn, count: instances(txn, self.scale) }
    }

    /// The recorded `(plain, tls)` pair of a benchmark (recording or
    /// replaying a snapshot as needed).
    pub fn programs(&self, txn: Transaction) -> Arc<StoredPrograms> {
        self.store.programs(&self.trace_key(txn))
    }

    /// Runs `program` on `cfg` through the report cache.
    pub fn sim(&self, program: &KeyedProgram, cfg: &CmpConfig) -> Arc<SimReport> {
        self.store.simulate(program, cfg)
    }

    /// Runs one Figure-5 experiment on a benchmark — the cached
    /// equivalent of [`tls_core::experiment::run_experiment`].
    pub fn experiment(&self, kind: ExperimentKind, programs: &StoredPrograms) -> Arc<SimReport> {
        let cfg = kind.configure(&self.machine);
        let tls = kind.uses_tls_trace();
        let program = if kind.serialized() {
            programs.serialized(tls)
        } else if tls {
            &programs.tls
        } else {
            &programs.plain
        };
        self.sim(program, &cfg)
    }
}

/// A boxed job for [`JobPool::run`].
pub type Job<'env, T> = Box<dyn FnOnce() -> T + Send + 'env>;

/// What a plan produces.
pub struct PlanOutput {
    /// The pretty-printed JSON artifact (`results/<name>.json`).
    pub json: String,
    /// The human-readable rendering (`results/<name>.txt` / stdout).
    pub text: String,
    /// Total simulated cycles across every report the plan consumed —
    /// the numerator of the suite's cycles-per-host-second throughput.
    pub sim_cycles: u64,
}

/// One declarative artifact generator.
#[derive(Clone, Copy)]
pub struct Plan {
    /// Artifact name (`figure5`); also the output file stem.
    pub name: &'static str,
    /// One-line description shown by `suite --list`.
    pub title: &'static str,
    /// The workload traces the plan will ask for, in stable order.
    pub traces: fn(&PlanCtx) -> Vec<TraceKey>,
    /// Produces the artifact.
    pub run: fn(&PlanCtx) -> PlanOutput,
}

/// Every plan, in the order the suite runs them.
pub fn all_plans() -> Vec<Plan> {
    vec![
        crate::plans::figure2::plan(),
        crate::plans::figure5::plan(),
        crate::plans::figure6::plan(),
        crate::plans::table2::plan(),
        crate::plans::ablations::plan(),
        crate::plans::scalability::plan(),
        crate::plans::tuning_curve::plan(),
        crate::plans::spec_contrast::plan(),
        crate::plans::pool_pressure::plan(),
        crate::plans::scan_collision::plan(),
        crate::plans::prediction_frontier::plan(),
        crate::plans::memory_order::plan(),
        crate::plans::workload::plan(),
    ]
}

/// Looks up a plan by artifact name.
pub fn find_plan(name: &str) -> Option<Plan> {
    all_plans().into_iter().find(|p| p.name == name)
}

/// Pretty-prints a serializable artifact.
pub fn to_artifact_json<T: serde::Serialize>(rows: &T) -> String {
    let mut json = serde_json::to_string_pretty(rows).expect("serialize artifact");
    json.push('\n');
    json
}
