//! Observation is strictly passive: for any program, machine
//! configuration and ring capacity, a run with an [`Observer`] attached
//! must produce a byte-identical [`SimReport`] to an unobserved run —
//! including when the event ring overflows and starts overwriting its
//! oldest records. A second battery checks the Perfetto exporter's
//! output: it must parse as JSON, and every sub-thread slice must nest
//! inside its epoch's span on the same track.

use subthreads::core::synthetic::{
    independent, latched_rmw, pipeline, sequential_heavy, shared_dependences, Dependence,
};
use subthreads::core::{
    CmpConfig, CmpSimulator, ExhaustionPolicy, Observer, RunOptions, SecondaryPolicy,
    SpacingPolicy, SubThreadConfig,
};
use subthreads::obs::perfetto::{self, TraceMeta};
use subthreads::obs::EventKind;
use subthreads::trace::TraceProgram;

fn machines() -> Vec<(&'static str, CmpConfig)> {
    let mut base = CmpConfig::test_small();
    base.max_cycles = 5_000_000;
    let mut all_or_nothing = base;
    all_or_nothing.subthreads = SubThreadConfig::disabled();
    let mut dense_subs = base;
    dense_subs.subthreads = SubThreadConfig {
        contexts: 8,
        spacing: SpacingPolicy::Every(17),
        exhaustion: ExhaustionPolicy::Merge,
    };
    let mut restart_all = base;
    restart_all.secondary = SecondaryPolicy::RestartAll;
    restart_all.subthreads.exhaustion = ExhaustionPolicy::Stop;
    // The paper's machine (2 MB L2, 75-cycle memory) with sub-thread
    // starts spread evenly over each thread.
    let mut paper = CmpConfig::paper_default();
    paper.subthreads.spacing = SpacingPolicy::EvenDivision;
    paper.max_cycles = base.max_cycles;
    vec![
        ("test_small", base),
        ("all_or_nothing", all_or_nothing),
        ("dense_subthreads", dense_subs),
        ("restart_all", restart_all),
        ("paper_even_division", paper),
    ]
}

fn programs() -> Vec<(&'static str, TraceProgram)> {
    vec![
        ("independent", independent(4, 400)),
        ("pipeline", pipeline(4, 500, 0.2, 0.8)),
        ("latched_rmw", latched_rmw(4, 400, 0.5)),
        (
            "shared_deps",
            shared_dependences(4, 600, &[Dependence::new(0.3, 0.4), Dependence::new(0.7, 0.6)]),
        ),
        // Mostly one epoch at a time: unobserved runs step it in
        // stretches, observed ones cycle by cycle.
        ("sequential_heavy", sequential_heavy(4, 300)),
    ]
}

/// Sink off vs sink on vs overflowing sink: three byte-identical
/// reports for every program x machine combination.
#[test]
fn observed_reports_are_byte_identical() {
    let mut overflowed = 0usize;
    for (pname, program) in &programs() {
        for (mname, cfg) in machines() {
            let what = format!("{pname}/{mname}");
            let opts = RunOptions { audit: false, oracle: false, ..RunOptions::default() };
            let sim = CmpSimulator::new(cfg);
            let plain =
                serde_json::to_string(&sim.run_with(program, opts.clone())).expect("serialize");

            // A ring big enough to keep every event.
            let mut full = Observer::new(cfg.cpus, 1 << 20, 1024);
            let observed = sim.run_observed(program, opts.clone(), Some(&mut full));
            assert_eq!(
                plain,
                serde_json::to_string(&observed).expect("serialize"),
                "observation changed the report for {what}"
            );
            assert_eq!(full.events.dropped(), 0, "{what}: 1M-entry ring overflowed");
            assert!(!full.events.is_empty(), "{what}: no events from a real run");

            // A ring so small it must overflow; the report still must
            // not move, and the drop accounting must add up.
            let mut tiny = Observer::new(cfg.cpus, 8, 1024);
            let observed = sim.run_observed(program, opts.clone(), Some(&mut tiny));
            assert_eq!(
                plain,
                serde_json::to_string(&observed).expect("serialize"),
                "an overflowing ring changed the report for {what}"
            );
            if tiny.events.dropped() > 0 {
                overflowed += 1;
                assert_eq!(
                    tiny.events.dropped() + tiny.events.len() as u64,
                    full.events.len() as u64,
                    "{what}: dropped + kept != total emitted"
                );
            }
        }
    }
    assert!(overflowed > 0, "no combination overflowed an 8-entry ring");
}

/// The synthetic idle-span events exist precisely so that observed
/// timelines stay truthful across fast-forward skips: with fast-forward
/// off, no IdleSpan is ever emitted; with it on, the non-IdleSpan event
/// stream is identical.
#[test]
fn fast_forward_only_adds_idle_spans() {
    let (_, cfg) = machines()[0];
    let program = independent(4, 400);
    let base = RunOptions { audit: false, oracle: false, ..RunOptions::default() };
    let sim = CmpSimulator::new(cfg);

    let mut ff_on = Observer::new(cfg.cpus, 1 << 20, 1024);
    sim.run_observed(&program, base.clone(), Some(&mut ff_on));
    let mut ff_off = Observer::new(cfg.cpus, 1 << 20, 1024);
    sim.run_observed(&program, RunOptions { fast_forward: false, ..base }, Some(&mut ff_off));

    assert_eq!(ff_off.events.count(EventKind::IdleSpan), 0);
    assert!(ff_on.events.count(EventKind::IdleSpan) > 0, "miss-bound run never skipped");
    let strip = |o: &Observer| -> Vec<_> {
        o.events.iter().filter(|e| e.kind != EventKind::IdleSpan).copied().collect()
    };
    assert_eq!(strip(&ff_on), strip(&ff_off), "fast-forward changed the real event stream");
}

fn get<'v>(v: &'v serde::Value, key: &str) -> Option<&'v serde::Value> {
    v.as_object()?.iter().find(|(k, _)| k == key).map(|(_, val)| val)
}

fn get_u64(v: &serde::Value, key: &str) -> Option<u64> {
    match get(v, key)? {
        serde::Value::Int(i) => u64::try_from(*i).ok(),
        _ => None,
    }
}

fn get_str<'v>(v: &'v serde::Value, key: &str) -> Option<&'v str> {
    get(v, key)?.as_str()
}

/// Exports a real (violation-heavy) run and checks the trace_event
/// structure: parseable JSON, and on each execution track every
/// sub-thread slice lies within its enclosing epoch slice.
#[test]
fn perfetto_export_parses_and_slices_nest() {
    let (_, cfg) = machines()[2]; // dense sub-threads: many slices
    let program = pipeline(4, 500, 0.2, 0.8);
    let opts = RunOptions { audit: false, oracle: false, ..RunOptions::default() };
    let sim = CmpSimulator::new(cfg);
    let mut obs = Observer::new(cfg.cpus, 1 << 20, 1024);
    let report = sim.run_observed(&program, opts, Some(&mut obs));

    let meta = TraceMeta {
        program: program.name.clone(),
        cpus: report.cpus,
        total_cycles: report.total_cycles,
    };
    let json = perfetto::export(&meta, obs.events.iter().copied());
    let doc = serde::parse(&json).expect("exported trace parses as JSON");
    let events = get(&doc, "traceEvents").and_then(|v| v.as_array()).expect("traceEvents array");
    assert!(!events.is_empty());

    // Collect complete slices per tid, partition into epoch spans and
    // sub-thread spans by name.
    let mut epochs: Vec<(u64, u64, u64)> = Vec::new(); // (tid, start, end)
    let mut subs: Vec<(u64, u64, u64, String)> = Vec::new();
    for ev in events {
        if get_str(ev, "ph") != Some("X") {
            continue;
        }
        let tid = get_u64(ev, "tid").expect("slice tid");
        let ts = get_u64(ev, "ts").expect("slice ts");
        let dur = get_u64(ev, "dur").expect("slice dur");
        let name = get_str(ev, "name").expect("slice name").to_string();
        if name.starts_with("epoch ") {
            epochs.push((tid, ts, ts + dur));
        } else if name.starts_with("sub ") {
            subs.push((tid, ts, ts + dur, name));
        }
    }
    assert!(!epochs.is_empty(), "no epoch slices exported");
    assert!(!subs.is_empty(), "no sub-thread slices exported");
    for (tid, start, end, name) in &subs {
        let inside =
            epochs.iter().any(|(etid, estart, eend)| etid == tid && estart <= start && end <= eend);
        assert!(inside, "slice '{name}' [{start}, {end}) on tid {tid} nests in no epoch span");
    }
}
