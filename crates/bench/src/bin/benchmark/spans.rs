//! Host-time spans recorded in memory around the benchmark's calls into
//! each layer, the self-time arithmetic over them, and their export as a
//! per-layer table and a Chrome `trace_event` file.
//!
//! Spans wrap calls made from the benchmark's own code; nothing inside
//! the program is instrumented, so an opaque call (`store.programs`,
//! `sweep.run_sweep`) is one span whose split into layers comes from the
//! probe calls (see `workloads.rs`).

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Which part of a run a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Untimed preparation of the workload's inputs.
    Setup,
    /// Calls that split an opaque layer into its parts (traced runs only).
    Probe,
    /// A timed pass.
    Pass,
}

impl Phase {
    /// Lower-case name, as written to the trace files.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Probe => "probe",
            Phase::Pass => "pass",
        }
    }

    fn from_u32(v: u32) -> Phase {
        match v {
            0 => Phase::Setup,
            1 => Phase::Probe,
            _ => Phase::Pass,
        }
    }
}

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The span open on the same thread when this one started.
    pub parent: Option<u64>,
    /// `module.function` of the called layer.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the OS thread that ran the call.
    pub thread: u64,
    /// Phase of the run when the span started.
    pub phase: Phase,
    /// Timed-pass number (0 outside passes).
    pub pass: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    static CURRENT: Cell<Option<u64>> = const { Cell::new(None) };
    static THREAD: Cell<u64> = const { Cell::new(0) };
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

fn thread_index() -> u64 {
    THREAD.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// The span recorder. Disabled, [`Tracer::span`] is a plain call.
pub struct Tracer {
    epoch: Instant,
    enabled: AtomicBool,
    phase: AtomicU32,
    pass: AtomicU32,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    main_thread: u64,
}

impl Tracer {
    /// A disabled tracer owned by the calling (main) thread.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            phase: AtomicU32::new(0),
            pass: AtomicU32::new(0),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            main_thread: thread_index(),
        }
    }

    /// Turns recording on or off for the spans that start from now on.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// Tags the spans that start from now on with `phase` and `pass`.
    pub fn enter(&self, phase: Phase, pass: u32) {
        self.phase.store(phase as u32, Ordering::SeqCst);
        self.pass.store(pass, Ordering::SeqCst);
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled.load(Ordering::SeqCst) {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = CURRENT.with(|c| c.replace(Some(id)));
        let _guard = Open {
            tracer: self,
            id,
            parent,
            name,
            start_ns: self.now_ns(),
            phase: Phase::from_u32(self.phase.load(Ordering::SeqCst)),
            pass: self.pass.load(Ordering::SeqCst),
        };
        f()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// The thread index of the thread that created the tracer.
    pub fn main_thread(&self) -> u64 {
        self.main_thread
    }
}

/// An open span; closing it (also when the call unwinds) records it and
/// restores the thread's enclosing span.
struct Open<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
    phase: Phase,
    pass: u32,
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: self.start_ns,
            end_ns: self.tracer.now_ns(),
            thread: thread_index(),
            phase: self.phase,
            pass: self.pass,
        };
        CURRENT.with(|c| c.set(self.parent));
        // A poisoned list only loses this span; Drop must not panic.
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
fn covered(lo: u64, hi: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> =
        intervals.iter().map(|&(s, e)| (s.max(lo), e.min(hi))).filter(|(s, e)| s < e).collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of every span, in order: its duration minus the part of it
/// that its children cover. Children that overlap each other (or run
/// past their parent) are counted once, and only inside the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| s.dur_ns() - covered(s.start_ns, s.end_ns, kids))
        .collect()
}

/// One row of the per-layer table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerRow {
    /// Calls (the sample count of the percentiles).
    pub calls: u64,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed self time, seconds.
    pub self_s: f64,
    /// Median call duration, milliseconds.
    pub p50_ms: f64,
    /// 90th-percentile call duration, milliseconds.
    pub p90_ms: f64,
}

/// The per-layer table: spans grouped under the row name `row` gives
/// them (`None` leaves a span out).
pub fn layer_table(
    spans: &[Span],
    row: impl Fn(&Span) -> Option<&'static str>,
) -> BTreeMap<&'static str, LayerRow> {
    let selfs = self_times(spans);
    let mut groups: BTreeMap<&'static str, (Vec<f64>, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        if let Some(name) = row(s) {
            let g = groups.entry(name).or_default();
            g.0.push(s.dur_ns() as f64);
            g.1 += self_ns;
        }
    }
    groups
        .into_iter()
        .map(|(name, (durs, self_ns))| {
            let row = LayerRow {
                calls: durs.len() as u64,
                total_s: durs.iter().sum::<f64>() / 1e9,
                self_s: self_ns as f64 / 1e9,
                p50_ms: crate::stats::percentile(&durs, 50.0) / 1e6,
                p90_ms: crate::stats::percentile(&durs, 90.0) / 1e6,
            };
            (name, row)
        })
        .collect()
}

/// Display track of every span: 0 for work on the main thread, and for
/// pool work the lowest worker track free when the span's root started.
/// Pool threads are recreated on every `JobPool::run`, so OS thread ids
/// would give one track per batch; at most `workers` roots overlap, so
/// this assignment needs exactly one track per worker.
fn tracks(spans: &[Span], main_thread: u64) -> Vec<u64> {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let root_of = |mut i: usize| {
        while let Some(&p) = spans[i].parent.and_then(|p| index.get(&p)) {
            i = p;
        }
        i
    };
    let mut roots: Vec<usize> =
        (0..spans.len()).filter(|&i| root_of(i) == i && spans[i].thread != main_thread).collect();
    roots.sort_by_key(|&i| spans[i].start_ns);
    let mut root_track: HashMap<usize, u64> = HashMap::new();
    let mut busy_until: Vec<u64> = Vec::new();
    for i in roots {
        let t = match busy_until.iter().position(|&end| end <= spans[i].start_ns) {
            Some(t) => t,
            None => {
                busy_until.push(0);
                busy_until.len() - 1
            }
        };
        busy_until[t] = spans[i].end_ns;
        root_track.insert(i, t as u64 + 1);
    }
    (0..spans.len()).map(|i| root_track.get(&root_of(i)).copied().unwrap_or(0)).collect()
}

/// The spans as a Chrome `trace_event` JSON document (opens in
/// ui.perfetto.dev): one complete event per span, one track per worker.
pub fn chrome_trace(spans: &[Span], workload: &str, main_thread: u64) -> String {
    let tracks = tracks(spans, main_thread);
    let mut events = Vec::new();
    let track_count = tracks.iter().copied().max().unwrap_or(0);
    for t in 0..=track_count {
        let name = if t == 0 { "main".to_string() } else { format!("worker {t}") };
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{t},\"args\":{{\"name\":\"{name}\"}}}}"
        ));
    }
    for (s, t) in spans.iter().zip(&tracks) {
        let mut e = String::new();
        write!(
            e,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{t},\
             \"args\":{{\"workload\":\"{workload}\",\"phase\":\"{}\",\"pass\":{},\"id\":{},\"parent\":{}}}}}",
            s.name,
            s.phase.name(),
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.phase.name(),
            s.pass,
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
        )
        .expect("write to string");
        events.push(e);
    }
    format!("{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64, thread: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            start_ns: start,
            end_ns: end,
            thread,
            phase: Phase::Pass,
            pass: 1,
        }
    }

    #[test]
    fn self_time_of_nested_spans() {
        // root [0,100) > child [10,40) > grandchild [20,30); child2 [50,90).
        let spans = vec![
            span(1, None, 0, 100, 1),
            span(2, Some(1), 10, 40, 1),
            span(3, Some(2), 20, 30, 1),
            span(4, Some(1), 50, 90, 1),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Children [10,60) and [40,80) overlap on [40,60); a third runs
        // past the parent's end and only its inside part counts.
        let spans = vec![
            span(1, None, 0, 100, 1),
            span(2, Some(1), 10, 60, 1),
            span(3, Some(1), 40, 80, 1),
            span(4, Some(1), 90, 130, 1),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 70 - 10);
        assert_eq!(covered(0, 10, &[(5, 20), (0, 3)]), 8);
        assert_eq!(covered(0, 10, &[]), 0);
    }

    #[test]
    fn tracer_records_parents_and_survives_panics() {
        let t = Tracer::new();
        t.span("off", || ());
        t.set_enabled(true);
        t.enter(Phase::Probe, 0);
        t.span("outer", || t.span("inner", || ()));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.span("boom", || panic!("injected"))
        }));
        assert!(caught.is_err());
        t.span("after", || ());
        let spans = t.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["inner", "outer", "boom", "after"]);
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert_eq!(spans[1].parent, None);
        assert_eq!(spans[3].parent, None, "an unwound span restores its parent");
        assert!(spans.iter().all(|s| s.phase == Phase::Probe));
    }

    #[test]
    fn layer_table_aggregates_by_name() {
        let mut spans = vec![span(1, None, 0, 4_000_000, 2), span(2, Some(1), 0, 1_000_000, 2)];
        spans[0].name = "runner.job";
        spans[1].name = "store.simulate";
        let table = layer_table(&spans, |s| Some(s.name));
        let job = &table["runner.job"];
        assert_eq!(job.calls, 1);
        assert!((job.total_s - 0.004).abs() < 1e-12 && (job.self_s - 0.003).abs() < 1e-12);
        assert_eq!(table["store.simulate"].p90_ms, 1.0);
    }

    #[test]
    fn worker_tracks_reuse_free_slots() {
        // Three pool roots on fresh threads; two overlap, the third starts
        // after the first ended. A main-thread span stays on track 0.
        let spans = vec![
            span(1, None, 0, 10, 5),
            span(2, None, 5, 20, 6),
            span(3, None, 12, 30, 7),
            span(4, Some(3), 13, 14, 7),
            span(5, None, 40, 50, 1),
        ];
        assert_eq!(tracks(&spans, 1), vec![1, 2, 1, 1, 0]);
        let doc = chrome_trace(&spans, "w", 1);
        assert!(serde::parse(&doc).is_ok(), "{doc}");
        assert!(doc.contains("\"worker 2\"") && !doc.contains("\"worker 3\""));
    }
}
