//! Observed benchmark runs: the engine behind the `suite trace` verb.
//!
//! An observed run replays one TPC-C benchmark through the snapshot
//! store exactly as the evaluation plans do, but with a
//! [`tls_core::Observer`] attached. It then
//!
//! 1. asserts **zero drift**: the observed [`SimReport`] must serialize
//!    byte-for-byte identically to the (possibly cached) unobserved
//!    report for the same program and machine — observation is passive
//!    or it is broken;
//! 2. writes `trace_<txn>.perfetto.json`, a Chrome `trace_event`
//!    timeline loadable in `ui.perfetto.dev`;
//! 3. writes `metrics_<txn>.json`, the sampled per-CPU cycle-class and
//!    machine-pressure time series.

use crate::eval::{instances, paper_machine, Scale};
use crate::store::{HarnessStore, TraceKey};
use std::path::PathBuf;
use tls_core::obs::perfetto::{self, TraceMeta};
use tls_core::{CmpSimulator, Observer, RunOptions, SimReport};
use tls_minidb::Transaction;

/// What to observe and where to put the artifacts.
#[derive(Debug, Clone)]
pub struct ObserveRequest {
    /// The benchmark to record, simulate and trace.
    pub txn: Transaction,
    /// Workload scale (paper or test).
    pub scale: Scale,
    /// Directory receiving the two artifacts.
    pub out_dir: PathBuf,
    /// Event-ring capacity (defaults to
    /// [`tls_core::obs::DEFAULT_RING_CAPACITY`]).
    pub ring_capacity: usize,
    /// Metrics sampling interval in cycles (defaults to
    /// [`tls_core::obs::DEFAULT_METRICS_INTERVAL`]).
    pub metrics_interval: u64,
}

impl ObserveRequest {
    /// A request with the default ring and sampling parameters.
    pub fn new(txn: Transaction, scale: Scale, out_dir: PathBuf) -> Self {
        ObserveRequest {
            txn,
            scale,
            out_dir,
            ring_capacity: tls_core::obs::DEFAULT_RING_CAPACITY,
            metrics_interval: tls_core::obs::DEFAULT_METRICS_INTERVAL,
        }
    }
}

/// Everything an observed run produced.
#[derive(Debug)]
pub struct ObserveOutcome {
    /// The run's report (identical to the unobserved one).
    pub report: SimReport,
    /// Path of the Perfetto timeline artifact.
    pub trace_path: PathBuf,
    /// Path of the metrics time-series artifact.
    pub metrics_path: PathBuf,
    /// Events retained in the ring at the end of the run.
    pub events_kept: usize,
    /// Events overwritten by ring overflow (0 with a large enough ring).
    pub events_dropped: u64,
}

/// Runs `req.txn` with observation attached and writes both artifacts.
///
/// The baseline (unobserved) report comes from [`HarnessStore::simulate`]
/// — served from the report cache when warm — so a drift here also
/// catches an observed run diverging from cached suite artifacts.
pub fn observe_run(store: &HarnessStore, req: &ObserveRequest) -> Result<ObserveOutcome, String> {
    let key =
        TraceKey { cfg: req.scale.tpcc(), txn: req.txn, count: instances(req.txn, req.scale) };
    let programs = store.programs(&key);
    let machine = paper_machine();
    let baseline = store.simulate(&programs.tls, &machine);

    let mut observer = Observer::new(machine.cpus, req.ring_capacity, req.metrics_interval);
    let observed = CmpSimulator::new(machine).run_view(
        &programs.tls.view(),
        RunOptions::checked_default(),
        Some(&mut observer),
    );

    let baseline_json =
        serde_json::to_string(&*baseline).map_err(|e| format!("serialize baseline: {e:?}"))?;
    let observed_json =
        serde_json::to_string(&observed).map_err(|e| format!("serialize observed: {e:?}"))?;
    if baseline_json != observed_json {
        return Err(format!(
            "observation is not passive: observed report for {} differs from baseline",
            req.txn.trace_name()
        ));
    }

    std::fs::create_dir_all(&req.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", req.out_dir.display()))?;

    let meta = TraceMeta {
        program: programs.tls.name().to_string(),
        cpus: observed.cpus,
        total_cycles: observed.total_cycles,
    };
    let trace_json = perfetto::export(&meta, observer.events.iter().copied());
    let trace_path = req.out_dir.join(format!("trace_{}.perfetto.json", req.txn.trace_name()));
    std::fs::write(&trace_path, &trace_json)
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;

    let series = observer.metrics.series(programs.tls.name());
    let mut metrics_json =
        serde_json::to_string_pretty(&series).map_err(|e| format!("serialize metrics: {e:?}"))?;
    metrics_json.push('\n');
    let metrics_path = req.out_dir.join(format!("metrics_{}.json", req.txn.trace_name()));
    std::fs::write(&metrics_path, metrics_json)
        .map_err(|e| format!("write {}: {e}", metrics_path.display()))?;

    Ok(ObserveOutcome {
        report: observed,
        trace_path,
        metrics_path,
        events_kept: observer.events.len(),
        events_dropped: observer.events.dropped(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observed_run_writes_both_artifacts_and_stays_neutral() {
        let dir = std::env::temp_dir().join(format!("tls-observe-{}", std::process::id()));
        let store = HarnessStore::uncached();
        let req = ObserveRequest::new(Transaction::Payment, Scale::Test, dir.clone());
        let out = observe_run(&store, &req).expect("observed run succeeds");
        assert!(out.report.total_cycles > 0);
        assert!(out.events_kept > 0, "a real run emits events");
        assert_eq!(out.events_dropped, 0, "default ring holds a test-scale run");
        let trace = std::fs::read_to_string(&out.trace_path).unwrap();
        assert!(serde::parse(&trace).is_ok(), "Perfetto artifact is valid JSON");
        let metrics = std::fs::read_to_string(&out.metrics_path).unwrap();
        assert!(serde::parse(&metrics).is_ok(), "metrics artifact is valid JSON");
        std::fs::remove_dir_all(&dir).ok();
    }
}
