//! What a run reports: the end-to-end metrics of an untraced run, the
//! per-layer metrics of a traced run, and the layer table file.
//!
//! The metric lists here are the ones `BENCHMARK.json` declares; a unit
//! test keeps the two identical.

use crate::spans::{self, LayerRow, Phase, Span};
use crate::stats::median;
use crate::workloads::{LayerWork, RunResult, WORKERS};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit as declared.
    pub unit: &'static str,
}

/// End-to-end metrics `(name, unit)`, measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_mcycles_per_host_s", "Mcycles/s"),
    ("points_per_hour", "points/h"),
    ("peak_rss_mb", "MB"),
    ("sim_speedup", "x"),
];

/// Per-layer metrics `(name, unit)`, from a traced run. Host-time rows
/// cover only layers that every workload calls, so no time reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("passes", "count"),
    ("trace_overhead", "x"),
    ("runner.busy_ratio", "ratio"),
    ("runner.layer_coverage", "ratio"),
    ("runner.job.calls", "count"),
    ("runner.job.s", "s"),
    ("runner.job.self_s", "s"),
    ("minidb.record.calls", "count"),
    ("minidb.record.s", "s"),
    ("minidb.record.p50_ms", "ms"),
    ("minidb.recorded_ops_per_s", "ops/s"),
    ("codec.encode_pair_file.calls", "count"),
    ("codec.encode_pair_file.s", "s"),
    ("codec.encode_mb_per_s", "MB/s"),
    ("mapped.open.calls", "count"),
    ("mapped.open.s", "s"),
    ("mapped.open.p50_ms", "ms"),
    ("mapped.open_mb_per_s", "MB/s"),
    ("store.serialized.calls", "count"),
    ("store.serialized.s", "s"),
    ("store.serialized.p50_ms", "ms"),
    ("store.simulate.calls", "count"),
    ("store.simulate.s", "s"),
    ("store.simulate.p50_ms", "ms"),
    ("store.simulate.p90_ms", "ms"),
    ("store.cache_overhead_s", "s"),
    ("core.run_view.calls", "count"),
    ("core.run_view.s", "s"),
    ("core.run_view.p50_ms", "ms"),
    ("core.run_view.p90_ms", "ms"),
    ("core.host_ns_per_sim_cycle", "ns"),
    ("core.host_ns_per_dispatched_op", "ns"),
    ("core.cycles.busy", "cycles"),
    ("core.cycles.cache_miss", "cycles"),
    ("core.cycles.latch", "cycles"),
    ("core.cycles.sync", "cycles"),
    ("core.cycles.drain_stall", "cycles"),
    ("core.cycles.idle", "cycles"),
    ("core.cycles.failed", "cycles"),
    ("core.dispatched_ops", "count"),
    ("core.useful_work_ratio", "ratio"),
    ("core.violations.primary", "count"),
    ("core.violations.secondary", "count"),
    ("core.violations.overflow", "count"),
    ("core.subthreads_started", "count"),
    ("core.subthread_merges", "count"),
    ("core.mem_accesses", "count"),
    ("cache.l1.hit_ratio", "ratio"),
    ("cache.l2.hit_ratio", "ratio"),
    ("cache.victim.accesses", "count"),
    ("cpu.branch_mispredicts", "count"),
    ("cpu.icache_misses", "count"),
    ("vpredict.predicted_hits", "count"),
    ("vpredict.value_mispredicts", "count"),
    ("predictor.synchronizations", "count"),
    ("membuf.buffered_stores", "count"),
    ("membuf.forwarded_loads", "count"),
    ("membuf.store_drains", "count"),
    ("store.trace_records", "count"),
    ("store.trace_disk_hits", "count"),
    ("store.report_sims", "count"),
    ("store.report_disk_hits", "count"),
];

/// Collects metrics in declaration order, taking each unit from `table`.
struct Sheet {
    table: &'static [(&'static str, &'static str)],
    out: Vec<Metric>,
}

impl Sheet {
    fn new(table: &'static [(&'static str, &'static str)]) -> Sheet {
        Sheet { table, out: Vec::new() }
    }

    fn put(&mut self, name: &'static str, value: f64) {
        let &(name, unit) =
            self.table.iter().find(|(n, _)| *n == name).expect("every reported metric is declared");
        // A ratio over an empty denominator is reported as 0, never as a
        // non-number the JSON line cannot carry.
        let value = if value.is_finite() { value } else { 0.0 };
        self.out.push(Metric { name, value, unit });
    }

    fn finish(self) -> Vec<Metric> {
        let names: Vec<&str> = self.out.iter().map(|m| m.name).collect();
        let declared: Vec<&str> = self.table.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, declared, "metrics are reported in declaration order, each once");
        self.out
    }
}

/// The end-to-end metrics. `setup_s` is the median set-up; the pass
/// timings come from the fastest untraced pass. Every pass does the same
/// work, and on a shared host interference only ever adds time: over
/// repeated runs of one input the fastest pass moved by 2–4% where the
/// median pass moved by up to 15%.
pub fn end_to_end(r: &RunResult) -> Vec<Metric> {
    let best = r
        .passes
        .iter()
        .filter(|p| !p.traced)
        .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
        .expect("an untraced run has passes");
    let mut s = Sheet::new(END_TO_END);
    s.put("setup_s", median(&r.setup_s));
    s.put("wall_s", best.wall_s);
    s.put("sim_mcycles_per_host_s", best.sim_cycles as f64 / best.wall_s / 1e6);
    s.put("points_per_hour", best.points as f64 * 3600.0 / best.wall_s);
    s.put("peak_rss_mb", r.peak_rss_kb as f64 / 1024.0);
    s.put("sim_speedup", best.speedup);
    s.finish()
}

/// Span rows for the stdout metrics: recording by `Tpcc::record_pair`
/// and by `workload::compile` are both MiniDB recording.
fn family(s: &Span) -> Option<&'static str> {
    Some(match s.name {
        "minidb.record_pair" | "workload.compile" => "minidb.record",
        name => name,
    })
}

fn in_phase(phase: Phase) -> impl Fn(&Span) -> Option<&'static str> {
    move |s| (s.phase == phase).then_some(s.name)
}

/// The per-layer metrics of a traced run.
pub fn per_layer(r: &RunResult, spans: &[Span], work: &LayerWork) -> Vec<Metric> {
    let all = spans::layer_table(spans, family);
    let row = |name: &str| all.get(name).cloned().unwrap_or_default();
    let load = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed) as f64;

    let traced: Vec<f64> = r.passes.iter().filter(|p| p.traced).map(|p| p.wall_s).collect();
    let untraced: Vec<f64> = r.passes.iter().filter(|p| !p.traced).map(|p| p.wall_s).collect();
    // Busy time is the summed duration of the traced passes' root spans
    // (pool jobs, or the opaque sweep call); the layers' self time inside
    // them is what the table attributes.
    let pass_spans: Vec<Span> = spans.iter().filter(|s| s.phase == Phase::Pass).cloned().collect();
    let selfs = spans::self_times(&pass_spans);
    let busy: u64 = pass_spans.iter().filter(|s| s.parent.is_none()).map(Span::dur_ns).sum();
    let covered: u64 =
        pass_spans.iter().zip(&selfs).filter(|(s, _)| s.name != "runner.job").map(|(_, n)| n).sum();
    // Store time outside the simulator, over the distinct probe inputs
    // (each timed through the store and through the bare simulator); a
    // store that served its reports from disk simulated none of them.
    let sims_share = load(&work.probe_store_sims) / load(&work.probe_distinct);
    let cache_overhead_ns = load(&work.probe_store_ns) - sims_share * load(&work.probe_bare_ns);

    let mut s = Sheet::new(PER_LAYER);
    s.put("passes", r.passes.len() as f64);
    s.put("trace_overhead", median(&traced) / median(&untraced));
    s.put("runner.busy_ratio", r.timed_cpu_s / (r.timed_s * WORKERS as f64));
    s.put("runner.layer_coverage", covered as f64 / busy as f64);
    let job = row("runner.job");
    s.put("runner.job.calls", job.calls as f64);
    s.put("runner.job.s", job.total_s);
    s.put("runner.job.self_s", job.self_s);
    let rec = row("minidb.record");
    s.put("minidb.record.calls", rec.calls as f64);
    s.put("minidb.record.s", rec.total_s);
    s.put("minidb.record.p50_ms", rec.p50_ms);
    s.put("minidb.recorded_ops_per_s", load(&work.recorded_ops) / rec.total_s);
    let enc = row("codec.encode_pair_file");
    s.put("codec.encode_pair_file.calls", enc.calls as f64);
    s.put("codec.encode_pair_file.s", enc.total_s);
    s.put("codec.encode_mb_per_s", load(&work.encoded_bytes) / 1e6 / enc.total_s);
    let open = row("mapped.open");
    s.put("mapped.open.calls", open.calls as f64);
    s.put("mapped.open.s", open.total_s);
    s.put("mapped.open.p50_ms", open.p50_ms);
    s.put("mapped.open_mb_per_s", load(&work.opened_bytes) / 1e6 / open.total_s);
    let ser = row("store.serialized");
    s.put("store.serialized.calls", ser.calls as f64);
    s.put("store.serialized.s", ser.total_s);
    s.put("store.serialized.p50_ms", ser.p50_ms);
    let sim = row("store.simulate");
    s.put("store.simulate.calls", sim.calls as f64);
    s.put("store.simulate.s", sim.total_s);
    s.put("store.simulate.p50_ms", sim.p50_ms);
    s.put("store.simulate.p90_ms", sim.p90_ms);
    s.put("store.cache_overhead_s", cache_overhead_ns / 1e9);
    let rv = row("core.run_view");
    s.put("core.run_view.calls", rv.calls as f64);
    s.put("core.run_view.s", rv.total_s);
    s.put("core.run_view.p50_ms", rv.p50_ms);
    s.put("core.run_view.p90_ms", rv.p90_ms);
    s.put("core.host_ns_per_sim_cycle", rv.total_s * 1e9 / load(&work.run_view_cycles));
    s.put("core.host_ns_per_dispatched_op", rv.total_s * 1e9 / load(&work.run_view_ops));

    let first = r.passes.first().cloned().expect("a run has passes");
    let (t, b) = (&first.sim, &first.sim.breakdown);
    s.put("core.cycles.busy", b.busy as f64);
    s.put("core.cycles.cache_miss", b.cache_miss as f64);
    s.put("core.cycles.latch", b.latch as f64);
    s.put("core.cycles.sync", b.sync as f64);
    s.put("core.cycles.drain_stall", b.drain_stall as f64);
    s.put("core.cycles.idle", b.idle as f64);
    s.put("core.cycles.failed", b.failed as f64);
    s.put("core.dispatched_ops", t.dispatched_ops as f64);
    s.put("core.useful_work_ratio", t.program_ops as f64 / t.dispatched_ops as f64);
    s.put("core.violations.primary", t.violations.primary as f64);
    s.put("core.violations.secondary", t.violations.secondary as f64);
    s.put("core.violations.overflow", t.violations.overflow as f64);
    s.put("core.subthreads_started", t.subthreads_started as f64);
    s.put("core.subthread_merges", t.subthread_merges as f64);
    s.put("core.mem_accesses", t.mem_accesses as f64);
    s.put("cache.l1.hit_ratio", t.l1_hits as f64 / t.l1_accesses as f64);
    s.put("cache.l2.hit_ratio", t.l2_hits as f64 / t.l2_accesses as f64);
    s.put("cache.victim.accesses", t.victim_accesses as f64);
    s.put("cpu.branch_mispredicts", t.branch_mispredicts as f64);
    s.put("cpu.icache_misses", t.icache_misses as f64);
    s.put("vpredict.predicted_hits", t.predicted_hits as f64);
    s.put("vpredict.value_mispredicts", t.value_mispredicts as f64);
    s.put("predictor.synchronizations", t.synchronizations as f64);
    s.put("membuf.buffered_stores", t.buffered_stores as f64);
    s.put("membuf.forwarded_loads", t.forwarded_loads as f64);
    s.put("membuf.store_drains", t.store_drains as f64);
    s.put("store.trace_records", first.store.trace_records as f64);
    s.put("store.trace_disk_hits", first.store.trace_disk_hits as f64);
    s.put("store.report_sims", first.store.report_sims as f64);
    s.put("store.report_disk_hits", first.store.report_disk_hits as f64);
    s.finish()
}

fn row_json(row: &LayerRow) -> String {
    format!(
        "{{\"calls\":{},\"total_s\":{},\"self_s\":{},\"p50_ms\":{},\"p90_ms\":{}}}",
        row.calls, row.total_s, row.self_s, row.p50_ms, row.p90_ms
    )
}

fn table_json(table: &BTreeMap<&'static str, LayerRow>) -> String {
    let rows: Vec<String> = table.iter().map(|(n, r)| format!("\"{n}\":{}", row_json(r))).collect();
    format!("{{{}}}", rows.join(","))
}

/// The per-layer table of a traced run as JSON: every span name per
/// phase, the split of the opaque `store.programs` set-up call into the
/// layers its probes measured, and the reported metrics.
pub fn layer_table_json(
    workload: &str,
    seed: u64,
    r: &RunResult,
    spans: &[Span],
    metrics: &[Metric],
) -> String {
    let phases: Vec<String> = [Phase::Setup, Phase::Probe, Phase::Pass]
        .iter()
        .map(|&p| {
            format!("\"{}\":{}", p.name(), table_json(&spans::layer_table(spans, in_phase(p))))
        })
        .collect();
    let setup = spans::layer_table(spans, in_phase(Phase::Setup));
    let probe = spans::layer_table(spans, in_phase(Phase::Probe));
    let total = |t: &BTreeMap<&'static str, LayerRow>, n: &str| t.get(n).map_or(0.0, |r| r.total_s);
    let mut split = String::from("null");
    if let Some(programs) = setup.get("store.programs") {
        // One set-up's store.programs calls against one probe round over
        // the same keys (summed busy seconds on both sides).
        let per_setup = programs.total_s / r.setup_s.len() as f64;
        let (rec, enc, open) = (
            total(&probe, "minidb.record_pair"),
            total(&probe, "codec.encode_pair_file"),
            total(&probe, "mapped.open"),
        );
        split = format!(
            "{{\"store.programs_s\":{per_setup},\"minidb.record_pair_s\":{rec},\
             \"codec.encode_pair_file_s\":{enc},\"mapped.open_s\":{open},\
             \"store.write_and_rest_s\":{}}}",
            per_setup - rec - enc - open
        );
    }
    format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"workers\":{WORKERS},\"setups\":{},\
         \"passes\":{},\"traced_passes\":{},\"layers\":{{{}}},\"store_programs_split\":{split},\
         \"sim_speedup\":{},\"metrics\":{{{}}}}}\n",
        r.setup_s.len(),
        r.passes.len(),
        r.passes.iter().filter(|p| p.traced).count(),
        phases.join(","),
        r.passes.first().map_or(0.0, |p| p.speedup),
        metrics.iter().map(|m| format!("\"{}\":{}", m.name, m.value)).collect::<Vec<_>>().join(","),
    )
}
