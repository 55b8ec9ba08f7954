//! # tls-harness — parallel experiment-execution subsystem
//!
//! The fourth subsystem of the reproduction (beside the simulator, the
//! protocol model and the workload): infrastructure for *running* the
//! evaluation quickly and reproducibly.
//!
//! - [`codec`] / [`store`] — a versioned, checksummed snapshot format
//!   for recorded trace pairs and simulation reports, cached under
//!   `traces/` and keyed by a hash of the workload configuration, so
//!   repeated suite runs skip both TPC-C recording and repeated
//!   simulation of identical (program, machine) inputs.
//! - [`runner`] — a deterministic scoped-thread job pool: results come
//!   back in submission order regardless of worker count, so every
//!   artifact is byte-identical for any `--jobs` value.
//! - [`plan`] / [`plans`] — the evaluation artifacts
//!   (figure2/figure5/figure6/table2/ablations/scalability/
//!   tuning_curve/spec_contrast/pool_pressure/scan_collision/workload)
//!   as declarative [`plan::Plan`]s over the shared runner and store.
//! - [`suite`] — the unified driver: filtering, baseline regression
//!   comparison, and `BENCH_suite.json` throughput accounting.
//! - [`cli`] — the one command-line parser behind `suite`, its verbs and
//!   the `probe` tool: shared flags, typed exit-2 usage errors.
//! - [`eval`] — shared evaluation helpers (scales, instance counts, the
//!   paper machine, text-bar rendering).
//! - [`observe`] — observed runs behind the `suite trace` verb: a
//!   Perfetto timeline plus a metrics time series per benchmark, with a
//!   zero-drift guarantee against the unobserved (cached) report.
//! - [`workload`] — the declarative workload language: JSON specs
//!   (operation mix, Zipfian key skew, scan lengths) compiled into
//!   `(plain, tls)` trace pairs with range scans speculatively
//!   parallelized, behind the `suite workload` verb and the
//!   `scan_collision` / `workload` plans.
//! - [`sweep`] — the batched multi-seed parameter-sweep engine behind
//!   the `suite sweep` verb: seed-major grids over (spacing × contexts ×
//!   memory latency), one zero-copy map per seed, interned machine
//!   configs, deterministic JSONL row streams with crash `--resume`.

pub mod cli;
pub mod codec;
pub mod eval;
pub mod mapped;
pub mod observe;
pub mod plan;
pub mod plans;
pub mod runner;
pub mod store;
pub mod suite;
pub mod sweep;
pub mod workload;

pub use codec::{decode_pair, encode_pair, SnapshotError};
pub use eval::{breakdown_row, initials, instances, paper_machine, render_stack, Scale};
pub use mapped::{MapOutcome, Mapping, TraceView};
pub use observe::{observe_run, ObserveOutcome, ObserveRequest};
pub use plan::{all_plans, find_plan, Plan, PlanCtx, PlanOutput};
pub use runner::{capture, run_protected, FailureKind, JobFailure, JobPool, Protection};
pub use store::{HarnessStore, StoreStats, TraceKey};
pub use sweep::{run_sweep, run_sweep_verb, SweepOptions, SweepPlan, SweepPoint, SweepSpec};
pub use workload::{compile, CompiledWorkload, MixWeights, SpecError, WorkloadSpec, Zipf};
