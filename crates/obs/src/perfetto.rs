//! Perfetto / Chrome `trace_event` JSON export.
//!
//! [`export`] turns a run's event stream into a JSON document that
//! opens directly in `ui.perfetto.dev` (or `chrome://tracing`). Layout:
//!
//! * one *process* per run, named after the program;
//! * two *tracks* (threads) per CPU — `cpu N` carries the epoch slice
//!   with its sub-thread slices nested inside plus instant events
//!   (violations, token handoffs, spills, latch stalls), and
//!   `cpu N ✗rewound` carries the spans a rewind discarded, visually
//!   separated so wasted work is obvious at a glance;
//! * one `machine` track carrying the synthetic fast-forward spans
//!   (cycles the simulator proved quiescent and skipped).
//!
//! Timestamps are simulated cycles mapped 1:1 onto trace microseconds.
//!
//! The exporter is a small state machine over the (possibly truncated)
//! ring: an epoch whose `EpochStart` was overwritten is synthesized at
//! the first event that mentions it, and slices still open when the
//! stream ends are closed at the run's final cycle — so an overflowing
//! ring degrades to a truncated-but-valid timeline, never a broken one.

use crate::event::{Event, EventKind};

/// Identification for one exported run.
#[derive(Debug, Clone)]
pub struct TraceMeta {
    /// Program name (becomes the Perfetto process name).
    pub program: String,
    /// CPU count of the simulated machine (fixes the track layout).
    pub cpus: usize,
    /// Final cycle of the run; closes any still-open slice.
    pub total_cycles: u64,
}

/// A closed sub-thread span awaiting its epoch's flush.
#[derive(Debug, Clone, Copy)]
struct SubSlice {
    sub: u8,
    start: u64,
    end: u64,
}

/// Reconstruction state for one CPU's currently-running epoch.
#[derive(Debug, Default)]
struct OpenEpoch {
    order: u32,
    start: u64,
    /// Closed sub-thread spans that are still live (will commit).
    kept: Vec<SubSlice>,
    /// Closed sub-thread spans a rewind discarded.
    rewound: Vec<SubSlice>,
    /// The sub-thread currently executing: (id, span start).
    open_sub: Option<(u8, u64)>,
}

/// JSON writer for the `traceEvents` array.
struct W {
    out: String,
    first: bool,
}

impl W {
    fn new() -> Self {
        W { out: String::with_capacity(1 << 16), first: true }
    }

    /// Starts one event object; the caller appends `"key":value` pairs
    /// via the `push_*` helpers and ends with [`W::close`].
    fn open(&mut self) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.out.push_str("\n{");
    }

    fn field_str(&mut self, key: &str, val: &str) {
        self.key(key);
        serde::write_json_string(val, &mut self.out);
    }

    fn field_num(&mut self, key: &str, val: u64) {
        self.key(key);
        self.out.push_str(&val.to_string());
    }

    /// Appends a raw, pre-serialized JSON value.
    fn field_raw(&mut self, key: &str, json: &str) {
        self.key(key);
        self.out.push_str(json);
    }

    fn key(&mut self, key: &str) {
        if !self.out.ends_with('{') {
            self.out.push(',');
        }
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
    }

    fn close(&mut self) {
        self.out.push('}');
    }
}

fn exec_tid(cpu: usize) -> u64 {
    (cpu as u64) * 2
}

fn rewind_tid(cpu: usize) -> u64 {
    (cpu as u64) * 2 + 1
}

fn machine_tid(cpus: usize) -> u64 {
    (cpus as u64) * 2
}

/// Emits one complete (`ph:"X"`) slice.
fn slice(w: &mut W, tid: u64, name: &str, ts: u64, dur: u64, args: Option<&str>) {
    w.open();
    w.field_str("name", name);
    w.field_str("ph", "X");
    w.field_num("ts", ts);
    w.field_num("dur", dur.max(1));
    w.field_num("pid", 0);
    w.field_num("tid", tid);
    if let Some(a) = args {
        w.field_raw("args", a);
    }
    w.close();
}

/// Emits one thread-scoped instant (`ph:"i"`) event.
fn instant(w: &mut W, tid: u64, name: &str, ts: u64, args: Option<&str>) {
    w.open();
    w.field_str("name", name);
    w.field_str("ph", "i");
    w.field_str("s", "t");
    w.field_num("ts", ts);
    w.field_num("pid", 0);
    w.field_num("tid", tid);
    if let Some(a) = args {
        w.field_raw("args", a);
    }
    w.close();
}

/// Emits one `ph:"M"` metadata record.
fn metadata(w: &mut W, name: &str, tid: Option<u64>, args: &str) {
    w.open();
    w.field_str("name", name);
    w.field_str("ph", "M");
    w.field_num("pid", 0);
    if let Some(t) = tid {
        w.field_num("tid", t);
    }
    w.field_raw("args", args);
    w.close();
}

fn pc_json(pc: Option<u32>) -> String {
    match pc {
        Some(p) => format!("\"{:#x}\"", p),
        None => "\"?\"".to_string(),
    }
}

impl OpenEpoch {
    fn begin(order: u32, cycle: u64) -> Self {
        OpenEpoch {
            order,
            start: cycle,
            kept: Vec::new(),
            rewound: Vec::new(),
            open_sub: Some((0, cycle)),
        }
    }

    /// Closes the open sub-thread span at `cycle` into `kept` (or
    /// `rewound`); zero-length spans are dropped.
    fn close_sub(&mut self, cycle: u64, discarded: bool) {
        if let Some((sub, start)) = self.open_sub.take() {
            if cycle > start {
                let s = SubSlice { sub, start, end: cycle };
                if discarded {
                    self.rewound.push(s);
                } else {
                    self.kept.push(s);
                }
            }
        }
    }

    /// Flushes the epoch as slices ending at `end`.
    fn flush(mut self, w: &mut W, cpu: usize, end: u64) {
        self.close_sub(end, false);
        let end = end.max(self.start + 1);
        slice(
            w,
            exec_tid(cpu),
            &format!("epoch {}", self.order),
            self.start,
            end - self.start,
            None,
        );
        for s in &self.kept {
            let e = s.end.min(end);
            slice(
                w,
                exec_tid(cpu),
                &format!("sub {}", s.sub),
                s.start,
                e.saturating_sub(s.start),
                None,
            );
        }
        for s in &self.rewound {
            let e = s.end.min(end);
            slice(
                w,
                rewind_tid(cpu),
                &format!("rewound sub {}", s.sub),
                s.start,
                e.saturating_sub(s.start),
                None,
            );
        }
    }
}

/// Exports `events` (emission-ordered, e.g.
/// [`EventSink::events`](crate::EventSink::events)) as a Chrome
/// `trace_event` JSON document.
pub fn export(meta: &TraceMeta, events: impl IntoIterator<Item = Event>) -> String {
    let mut w = W::new();
    metadata(&mut w, "process_name", None, &{
        let mut a = String::from("{\"name\":");
        serde::write_json_string(&format!("tls-sim: {}", meta.program), &mut a);
        a.push('}');
        a
    });
    for cpu in 0..meta.cpus {
        let exec = exec_tid(cpu);
        let rew = rewind_tid(cpu);
        metadata(&mut w, "thread_name", Some(exec), &format!("{{\"name\":\"cpu {cpu}\"}}"));
        metadata(&mut w, "thread_sort_index", Some(exec), &format!("{{\"sort_index\":{exec}}}"));
        metadata(&mut w, "thread_name", Some(rew), &format!("{{\"name\":\"cpu {cpu} ✗rewound\"}}"));
        metadata(&mut w, "thread_sort_index", Some(rew), &format!("{{\"sort_index\":{rew}}}"));
    }
    let mtid = machine_tid(meta.cpus);
    metadata(&mut w, "thread_name", Some(mtid), "{\"name\":\"machine\"}");
    metadata(&mut w, "thread_sort_index", Some(mtid), &format!("{{\"sort_index\":{mtid}}}"));

    let mut open: Vec<Option<OpenEpoch>> = (0..meta.cpus).map(|_| None).collect();
    // An epoch whose start record was overwritten by ring overflow is
    // synthesized at the first surviving event that mentions it.
    let ensure_open = |open: &mut Vec<Option<OpenEpoch>>, ev: &Event| {
        let cpu = ev.cpu as usize;
        let stale = match &open[cpu] {
            Some(e) => ev.epoch != u32::MAX && e.order != ev.epoch,
            None => true,
        };
        if stale {
            if let Some(prev) = open[cpu].take() {
                // Never observed committing — close it where the
                // successor shows up.
                return Some((prev, cpu));
            }
            open[cpu] = Some(OpenEpoch::begin(ev.epoch, ev.cycle));
            return None;
        }
        None
    };

    for ev in events {
        let cpu = ev.cpu as usize;
        let machine_wide = matches!(
            ev.kind,
            EventKind::IdleSpan
                | EventKind::FrameEvict
                | EventKind::FrameFlush
                | EventKind::RecoveryReplay
        );
        if !machine_wide && cpu >= meta.cpus {
            continue; // corrupt record; skip rather than panic
        }
        match ev.kind {
            EventKind::EpochStart => {
                if let Some(prev) = open[cpu].take() {
                    prev.flush(&mut w, cpu, ev.cycle);
                }
                open[cpu] = Some(OpenEpoch::begin(ev.epoch, ev.cycle));
            }
            EventKind::SubThreadStart => {
                if let Some((prev, pcpu)) = ensure_open(&mut open, &ev) {
                    prev.flush(&mut w, pcpu, ev.cycle);
                    open[cpu] = Some(OpenEpoch::begin(ev.epoch, ev.cycle));
                }
                let e = open[cpu].as_mut().expect("ensured");
                e.close_sub(ev.cycle, false);
                e.open_sub = Some((ev.sub, ev.cycle));
            }
            EventKind::Rewind => {
                if let Some((prev, pcpu)) = ensure_open(&mut open, &ev) {
                    prev.flush(&mut w, pcpu, ev.cycle);
                    open[cpu] = Some(OpenEpoch::begin(ev.epoch, ev.cycle));
                }
                let e = open[cpu].as_mut().expect("ensured");
                // Everything from the target checkpoint on is discarded:
                // the open span and every kept span at or past the target.
                e.close_sub(ev.cycle, true);
                let target = ev.sub;
                let (kept, gone): (Vec<_>, Vec<_>) = e.kept.drain(..).partition(|s| s.sub < target);
                e.kept = kept;
                e.rewound.extend(gone);
                e.open_sub = Some((target, ev.cycle));
                instant(
                    &mut w,
                    exec_tid(cpu),
                    &format!("rewind → sub {target}"),
                    ev.cycle,
                    Some(&format!("{{\"failed_cycles\":{},\"ops_rewound\":{}}}", ev.a, ev.b)),
                );
            }
            EventKind::Commit => {
                if let Some(e) = open[cpu].take() {
                    e.flush(&mut w, cpu, ev.cycle);
                } else {
                    // Start record lost to overflow: represent the epoch
                    // by a point-sized slice so the commit still shows.
                    OpenEpoch::begin(ev.epoch, ev.cycle.saturating_sub(1))
                        .flush(&mut w, cpu, ev.cycle);
                }
            }
            EventKind::ViolationRaw => {
                let (load, store) = Event::unpack_pcs(ev.b);
                instant(
                    &mut w,
                    exec_tid(cpu),
                    "RAW violation",
                    ev.cycle,
                    Some(&format!(
                        "{{\"line\":\"{:#x}\",\"load_pc\":{},\"store_pc\":{},\"rewind_to_sub\":{}}}",
                        ev.a,
                        pc_json(load),
                        pc_json(store),
                        ev.sub
                    )),
                );
            }
            EventKind::ViolationSecondary => {
                instant(
                    &mut w,
                    exec_tid(cpu),
                    "secondary violation",
                    ev.cycle,
                    Some(&format!(
                        "{{\"triggered_by_epoch\":{},\"rewind_to_sub\":{}}}",
                        ev.a, ev.sub
                    )),
                );
            }
            EventKind::ViolationOverflow => {
                instant(
                    &mut w,
                    exec_tid(cpu),
                    "overflow violation",
                    ev.cycle,
                    Some(&format!("{{\"line\":\"{:#x}\",\"rewind_to_sub\":{}}}", ev.a, ev.sub)),
                );
            }
            EventKind::ViolationInjected => {
                instant(
                    &mut w,
                    exec_tid(cpu),
                    "injected violation",
                    ev.cycle,
                    Some(&format!("{{\"rewind_to_sub\":{}}}", ev.sub)),
                );
            }
            EventKind::ValuePredicted => {
                let (load, store) = Event::unpack_pcs(ev.b);
                instant(
                    &mut w,
                    exec_tid(cpu),
                    "RAW suppressed (value predicted)",
                    ev.cycle,
                    Some(&format!(
                        "{{\"line\":\"{:#x}\",\"load_pc\":{},\"store_pc\":{},\"would_rewind_to_sub\":{}}}",
                        ev.a,
                        pc_json(load),
                        pc_json(store),
                        ev.sub
                    )),
                );
            }
            EventKind::ValueMispredict => {
                let (load, _) = Event::unpack_pcs(ev.b);
                instant(
                    &mut w,
                    exec_tid(cpu),
                    "value mispredict",
                    ev.cycle,
                    Some(&format!(
                        "{{\"line\":\"{:#x}\",\"load_pc\":{},\"rewind_to_sub\":{}}}",
                        ev.a,
                        pc_json(load),
                        ev.sub
                    )),
                );
            }
            EventKind::TokenHandoff => {
                instant(
                    &mut w,
                    exec_tid(cpu),
                    &format!("homefree → epoch {}", ev.epoch),
                    ev.cycle,
                    Some(&format!("{{\"committed\":{}}}", ev.a)),
                );
            }
            EventKind::VictimSpill => {
                instant(
                    &mut w,
                    exec_tid(cpu),
                    "victim spill",
                    ev.cycle,
                    Some(&format!("{{\"lines\":{}}}", ev.a)),
                );
            }
            EventKind::LatchStall => {
                instant(
                    &mut w,
                    exec_tid(cpu),
                    "latch stall",
                    ev.cycle,
                    Some(&format!("{{\"latch\":{}}}", ev.a)),
                );
            }
            EventKind::SubThreadMerge => {
                instant(&mut w, exec_tid(cpu), "sub-thread merge", ev.cycle, None);
            }
            EventKind::Livelock => {
                let (load, store) = Event::unpack_pcs(ev.b);
                instant(
                    &mut w,
                    exec_tid(cpu),
                    &format!("livelock: epoch {} storming", ev.epoch),
                    ev.cycle,
                    Some(&format!(
                        "{{\"storm_len\":{},\"rewind_to_sub\":{},\"load_pc\":{},\"store_pc\":{}}}",
                        ev.a,
                        ev.sub,
                        pc_json(load),
                        pc_json(store)
                    )),
                );
            }
            EventKind::IdleSpan => {
                slice(
                    &mut w,
                    mtid,
                    "fast-forward",
                    ev.cycle,
                    ev.a.saturating_sub(ev.cycle),
                    Some(&format!("{{\"skipped_cycles\":{}}}", ev.a.saturating_sub(ev.cycle))),
                );
            }
            EventKind::FrameEvict => {
                instant(
                    &mut w,
                    mtid,
                    "frame evict",
                    ev.cycle,
                    Some(&format!("{{\"region\":\"{:#x}\",\"flushed\":{}}}", ev.a, ev.b)),
                );
            }
            EventKind::FrameFlush => {
                instant(
                    &mut w,
                    mtid,
                    "frame flush",
                    ev.cycle,
                    Some(&format!("{{\"region\":\"{:#x}\",\"page_lsn\":{}}}", ev.a, ev.b)),
                );
            }
            EventKind::RecoveryReplay => {
                instant(
                    &mut w,
                    mtid,
                    "recovery replay",
                    ev.cycle,
                    Some(&format!("{{\"region\":\"{:#x}\",\"to_lsn\":{}}}", ev.a, ev.b)),
                );
            }
            EventKind::DrainStall => {
                let cause = match ev.b {
                    1 => "full buffer",
                    2 => "forward conflict",
                    3 => "ordering point",
                    _ => "unknown",
                };
                instant(
                    &mut w,
                    exec_tid(cpu),
                    "drain stall",
                    ev.cycle,
                    Some(&format!("{{\"buffered\":{},\"cause\":\"{cause}\"}}", ev.a)),
                );
            }
            EventKind::SerializabilityBreach => {
                instant(
                    &mut w,
                    exec_tid(cpu),
                    "SERIALIZABILITY BREACH",
                    ev.cycle,
                    Some(&format!("{{\"line\":\"{:#x}\",\"breaches\":{}}}", ev.a, ev.b)),
                );
            }
        }
    }
    for (cpu, e) in open.into_iter().enumerate() {
        if let Some(e) = e {
            let end = meta.total_cycles.max(e.start + 1);
            e.flush(&mut w, cpu, end);
        }
    }

    let mut doc = String::with_capacity(w.out.len() + 64);
    doc.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    doc.push_str(&w.out);
    doc.push_str("\n]}\n");
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventKind;
    use serde::Value;

    fn ev(cycle: u64, kind: EventKind, cpu: u8, epoch: u32, sub: u8, a: u64, b: u64) -> Event {
        Event { cycle, a, b, epoch, kind, cpu, sub }
    }

    fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
        v.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn get_str<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
        get(v, key).and_then(|v| v.as_str())
    }

    fn get_u64(v: &Value, key: &str) -> Option<u64> {
        match get(v, key) {
            Some(Value::Int(i)) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    #[test]
    fn exports_valid_json_with_nested_slices() {
        let meta = TraceMeta { program: "p\"q".into(), cpus: 2, total_cycles: 100 };
        let events = vec![
            ev(0, EventKind::EpochStart, 0, 0, 0, 10, 0),
            ev(0, EventKind::EpochStart, 1, 1, 0, 10, 0),
            ev(5, EventKind::SubThreadStart, 1, 1, 1, 3, 0),
            ev(8, EventKind::ViolationRaw, 1, 1, 1, 0x4000, Event::pack_pcs(Some(3), Some(9))),
            ev(8, EventKind::Rewind, 1, 1, 1, 3, 2),
            ev(20, EventKind::Commit, 0, 0, 0, 10, 0),
            ev(20, EventKind::TokenHandoff, 0, 1, 0, 1, 0),
            ev(40, EventKind::IdleSpan, Event::NO_CPU, u32::MAX, 0, 60, 0),
            ev(60, EventKind::Commit, 1, 1, 1, 10, 0),
        ];
        let json = export(&meta, events);
        let v = serde::parse(&json).expect("exported JSON parses");
        let tes = get(&v, "traceEvents").and_then(|t| t.as_array()).expect("traceEvents array");
        assert!(tes.len() > 10);
        // The rewound span of cpu 1 sub 1 lands on the rewind track.
        let rewound = tes
            .iter()
            .any(|e| get_str(e, "name") == Some("rewound sub 1") && get_u64(e, "tid") == Some(3));
        assert!(rewound, "rewound span missing: {json}");
        // Sub slices nest inside their epoch slice on the same track.
        let mut subs_checked = 0;
        for e in tes {
            let name = get_str(e, "name").unwrap_or("");
            if get_str(e, "ph") == Some("X") && name.starts_with("sub ") {
                let tid = get_u64(e, "tid").unwrap();
                let ts = get_u64(e, "ts").unwrap();
                let dur = get_u64(e, "dur").unwrap();
                let parent = tes.iter().any(|p| {
                    get_str(p, "ph") == Some("X")
                        && get_str(p, "name").is_some_and(|n| n.starts_with("epoch "))
                        && get_u64(p, "tid") == Some(tid)
                        && get_u64(p, "ts").unwrap() <= ts
                        && get_u64(p, "ts").unwrap() + get_u64(p, "dur").unwrap() >= ts + dur
                });
                assert!(parent, "sub slice not nested: {name} ts={ts}");
                subs_checked += 1;
            }
        }
        assert!(subs_checked > 0, "no sub slices exported");
    }

    #[test]
    fn tolerates_truncated_streams() {
        let meta = TraceMeta { program: "t".into(), cpus: 1, total_cycles: 50 };
        // No EpochStart (lost to ring overflow), open at end of stream.
        let events = vec![
            ev(10, EventKind::SubThreadStart, 0, 4, 1, 0, 0),
            ev(30, EventKind::Commit, 0, 4, 1, 0, 0),
            ev(35, EventKind::EpochStart, 0, 5, 0, 0, 0),
        ];
        let json = export(&meta, events);
        let v = serde::parse(&json).expect("parses");
        let tes = get(&v, "traceEvents").and_then(|t| t.as_array()).unwrap();
        let epochs: Vec<&str> = tes
            .iter()
            .filter(|e| get_str(e, "ph") == Some("X"))
            .filter_map(|e| get_str(e, "name"))
            .filter(|n| n.starts_with("epoch "))
            .collect();
        assert_eq!(epochs, vec!["epoch 4", "epoch 5"]);
    }
}
