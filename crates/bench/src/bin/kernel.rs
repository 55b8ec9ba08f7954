//! Kernel microbenchmarks: host cost of the simulator's hot paths,
//! written to `BENCH_kernel.json` so future PRs can spot kernel
//! regressions without re-deriving a measurement protocol.
//!
//! Three layers are measured:
//!
//! 1. **`SpecL2` accesses** — ns/op for speculative reads and writes
//!    against a resident working set (the per-memory-op cost of the
//!    protocol engine).
//! 2. **Commit/rewind** — ns/op for a full speculative-epoch lifecycle
//!    (touch lines, then commit or rewind them).
//! 3. **Whole-machine runs** — simulated Mcycles per host-second on
//!    synthetic programs, with idle-cycle fast-forward on vs off. The
//!    `ff_speedup` ratio is the direct before/after of the fast-forward
//!    optimization; the reports are asserted identical both ways. Each
//!    run is also timed with an [`Observer`] attached
//!    (`mcycles_per_host_s_obs_on` / `obs_overhead`) — the observed
//!    report is asserted identical too, and the overhead column is the
//!    evidence behind the "<3% with the sink on" claim in
//!    `EXPERIMENTS.md`.
//!
//! Usage: `kernel [--out PATH]` (default `BENCH_kernel.json`).

#![forbid(unsafe_code)]

use serde::Serialize;
use std::time::Instant;
use tls_core::synthetic::{shared_dependences, Dependence};
use tls_core::{
    AccessCtx, CmpConfig, CmpSimulator, L2Outcome, Observer, RunOptions, SpacingPolicy, SpecL2,
};
use tls_trace::{Addr, OpSink, Pc, ProgramBuilder, TraceProgram};

#[derive(Serialize)]
struct OpBench {
    name: &'static str,
    ns_per_op: f64,
    ops: u64,
}

#[derive(Serialize)]
struct RunBench {
    name: &'static str,
    sim_cycles: u64,
    mcycles_per_host_s_ff_on: f64,
    mcycles_per_host_s_ff_off: f64,
    ff_speedup: f64,
    /// Throughput with an event sink + metrics recorder attached
    /// (fast-forward on). The observed report is asserted identical.
    mcycles_per_host_s_obs_on: f64,
    /// Host-time cost of observation: obs-on wall time over plain wall
    /// time (1.00 = free; the acceptance bar is <= 1.03).
    obs_overhead: f64,
}

#[derive(Serialize)]
struct PagerBench {
    /// Pool frames of the measured run.
    frames: usize,
    /// ns per pin (hit + miss paths combined) across the oracle
    /// workload, pool thrashing.
    ns_per_pin: f64,
    /// ns per crash point for a full REDO recovery + logical diff.
    ns_per_crash_point: f64,
    /// Crash points checked (all green, or the bench aborts).
    crash_points: u64,
    /// The run's buffer-pool counters.
    counters: tls_minidb::PagerCounters,
}

#[derive(Serialize)]
struct WorkloadCompilerBench {
    /// Spec compiled (the example spec the suite's `workload` plan runs).
    spec: &'static str,
    /// Host ms for one full compile (two recordings: plain + TLS).
    compile_ms: f64,
    /// Recorded ops per host-second across both recordings.
    ops_per_host_s: f64,
    /// Total ops of the `(plain, tls)` pair.
    program_ops: u64,
    /// Speculative scan epochs the TLS recording carries.
    scan_epochs: u64,
    /// Ops inside those epochs.
    scan_epoch_ops: u64,
    /// Simulated Mcycles per host-second running the TLS recording.
    sim_mcycles_per_host_s: f64,
}

#[derive(Serialize)]
struct TraceStoreBench {
    /// Dynamic ops of the measured snapshot (both programs of the pair).
    trace_ops: u64,
    /// Snapshot size on disk in bytes.
    trace_bytes: u64,
    /// ns per op for the owned warm path: read the file, parse the
    /// structure, copy every record into heap programs, fingerprint both
    /// (what every warm store open cost before the zero-copy store).
    decode_ns_per_op: f64,
    /// Ops per host-second through the owned decode path.
    decode_ops_per_s: f64,
    /// ns per op for the zero-copy warm path: map the file, then one walk
    /// that yields the checksum and all four fingerprints (both programs
    /// and both serialized forms), then one record-validation pass — no
    /// op copies.
    mmap_ns_per_op: f64,
    /// Ops per host-second through the mapped path.
    mmap_ops_per_s: f64,
    /// decode time over map time for the same snapshot.
    mmap_speedup: f64,
    /// Grid points of the timed warm sweep below.
    sweep_points: usize,
    /// Batched sweep throughput at test scale, trace snapshots warm but
    /// report cache cold — so this times map-once + simulate, the
    /// engine's steady state on new grids.
    sweep_points_per_hour: f64,
}

#[derive(Serialize)]
struct VpredictBench {
    /// ns per predictor training (tag match, confidence update).
    ns_per_train: f64,
    /// ns per prediction probe against a warm table.
    ns_per_probe: f64,
    /// ns per commit-time validation (synthetic value-model evaluation
    /// plus the predicted-value comparison).
    ns_per_validate: f64,
    /// Simulated cycles of the collider program, predictor off.
    sim_cycles_off: u64,
    /// Simulated cycles with the Prophet-style predictor on (lower:
    /// suppressed RAWs stop burning failed cycles).
    sim_cycles_on: u64,
    mcycles_per_host_s_off: f64,
    mcycles_per_host_s_on: f64,
    /// Host wall-time ratio on/off for the same program (the price of
    /// probe + train + validate inside the simulation loop).
    host_overhead: f64,
    /// Suppressed RAWs that validated at commit in the measured run.
    predicted_hits: u64,
    /// Suppressions that failed validation and rewound.
    value_mispredicts: u64,
}

#[derive(Serialize)]
struct MembufBench {
    /// ns per buffered store (FIFO push into a non-full buffer).
    ns_per_buffered_store: f64,
    /// ns per same-address load probe against a warm buffer (youngest-
    /// first scan ending in a forwarding hit).
    ns_per_forwarded_load: f64,
    /// ns per full drain of a 32-entry buffer (fill + pop to empty).
    ns_per_full_drain: f64,
    /// Simulated cycles of the RMW collider on the SC baseline.
    sim_cycles_sc: u64,
    /// Simulated cycles under `MemoryModel::Tso { buffer_entries: 8 }`.
    sim_cycles_tso: u64,
    mcycles_per_host_s_sc: f64,
    mcycles_per_host_s_tso: f64,
    /// Host wall-time ratio tso/sc for the same program (the price of
    /// buffer probes + the drain engine inside the simulation loop).
    host_overhead: f64,
    /// Stores buffered in the measured TSO run (must be nonzero).
    buffered_stores: u64,
    /// Loads forwarded from the buffer in the measured TSO run.
    forwarded_loads: u64,
    /// Drain-stall cycles of the measured TSO run.
    drain_stall_cycles: u64,
}

#[derive(Serialize)]
struct KernelBench {
    ops: Vec<OpBench>,
    runs: Vec<RunBench>,
    pager: PagerBench,
    workload: WorkloadCompilerBench,
    trace_store: TraceStoreBench,
    vpredict: VpredictBench,
    membuf: MembufBench,
}

fn machine() -> CmpConfig {
    let mut c = CmpConfig::paper_default();
    c.subthreads.spacing = SpacingPolicy::EvenDivision;
    c.max_cycles = 500_000_000;
    c
}

/// Median-of-samples wall time for `f`, in seconds.
fn time_s<R>(samples: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

fn spec_l2(cfg: &CmpConfig) -> SpecL2 {
    SpecL2::new(cfg.l2, cfg.mem, cfg.victim_entries, cfg.cpus, cfg.subthreads.contexts, true)
}

/// ns/op for speculative loads over a line-resident working set.
fn bench_read(cfg: &CmpConfig) -> OpBench {
    let mut l2 = spec_l2(cfg);
    let lines: Vec<Addr> = (0..256u64).map(|i| Addr(0x4_0000 + i * 64)).collect();
    let ctx = AccessCtx { cpu: 1, sub: 1, speculative: true };
    // Warm the set so the steady state is all hits.
    let mut out = L2Outcome::default();
    for &a in &lines {
        l2.read_into(0, a, 8, ctx, &mut out);
    }
    const ROUNDS: u64 = 2000;
    let ops = ROUNDS * lines.len() as u64;
    let secs = time_s(5, || {
        for r in 0..ROUNDS {
            for &a in &lines {
                l2.read_into(r, a, 8, ctx, &mut out);
            }
        }
    });
    OpBench { name: "specl2_read_hit", ns_per_op: secs * 1e9 / ops as f64, ops }
}

/// ns/op for speculative stores that cross-check reader lists.
fn bench_write(cfg: &CmpConfig) -> OpBench {
    let mut l2 = spec_l2(cfg);
    let lines: Vec<Addr> = (0..256u64).map(|i| Addr(0x8_0000 + i * 64)).collect();
    let reader = AccessCtx { cpu: 2, sub: 0, speculative: true };
    let writer = AccessCtx { cpu: 1, sub: 1, speculative: true };
    let mut out = L2Outcome::default();
    for &a in &lines {
        l2.read_into(0, a, 8, reader, &mut out);
    }
    const ROUNDS: u64 = 2000;
    let ops = ROUNDS * lines.len() as u64;
    let secs = time_s(5, || {
        for r in 0..ROUNDS {
            for &a in &lines {
                l2.write_into(r, a, 8, writer, &mut out);
            }
        }
    });
    OpBench { name: "specl2_write_readers", ns_per_op: secs * 1e9 / ops as f64, ops }
}

/// ns/op for a touch-then-commit / touch-then-rewind epoch lifecycle.
fn bench_commit_rewind(cfg: &CmpConfig) -> Vec<OpBench> {
    let ctx = AccessCtx { cpu: 1, sub: 0, speculative: true };
    let lines: Vec<Addr> = (0..512u64).map(|i| Addr(0xC_0000 + i * 64)).collect();
    const ROUNDS: u64 = 200;
    let ops = ROUNDS * lines.len() as u64;
    let mut overflow = Vec::new();
    let mut out = L2Outcome::default();

    let mut l2 = spec_l2(cfg);
    let commit_secs = time_s(5, || {
        for r in 0..ROUNDS {
            for &a in &lines {
                l2.write_into(r, a, 8, ctx, &mut out);
            }
            overflow.clear();
            l2.commit_into(ctx.cpu, &mut overflow);
        }
    });

    let mut l2 = spec_l2(cfg);
    let rewind_secs = time_s(5, || {
        for r in 0..ROUNDS {
            for &a in &lines {
                l2.write_into(r, a, 8, ctx, &mut out);
            }
            l2.rewind(ctx.cpu, 0);
        }
    });

    vec![
        OpBench { name: "specl2_touch_commit", ns_per_op: commit_secs * 1e9 / ops as f64, ops },
        OpBench { name: "specl2_touch_rewind", ns_per_op: rewind_secs * 1e9 / ops as f64, ops },
    ]
}

/// A dependence-free compute-heavy program (the dispatch-bound regime).
fn compute_heavy(epochs: usize, ops: usize) -> TraceProgram {
    let mut b = ProgramBuilder::new("kernel-compute");
    b.begin_parallel();
    for e in 0..epochs {
        b.begin_epoch();
        for i in 0..ops {
            let pc = Pc::new(e as u16, (i % 64) as u16);
            match i % 5 {
                0 => b.load(pc, Addr(0x1_0000 + e as u64 * 4096 + (i as u64 % 64) * 8), 8),
                1 => b.branch(pc, i % 3 == 0),
                _ => b.int_alu(pc),
            }
        }
        b.end_epoch();
    }
    b.end_parallel();
    b.finish()
}

/// A miss-heavy program: strided loads far apart, so cores spend most
/// cycles waiting on 75-cycle memory fills (the fast-forward regime).
fn memory_bound(epochs: usize, loads: usize) -> TraceProgram {
    let mut b = ProgramBuilder::new("kernel-membound");
    b.begin_parallel();
    for e in 0..epochs {
        b.begin_epoch();
        for i in 0..loads {
            let pc = Pc::new(e as u16, (i % 64) as u16);
            // Distinct lines, > L2 apart in the steady state.
            b.load(pc, Addr(0x100_0000 + (e as u64 * loads as u64 + i as u64) * 4096), 8);
            b.int_alu(pc);
        }
        b.end_epoch();
    }
    b.end_parallel();
    b.finish()
}

fn bench_run(name: &'static str, program: &TraceProgram) -> RunBench {
    let cfg = machine();
    let opts_on = RunOptions { audit: false, oracle: false, ..RunOptions::default() };
    let opts_off = RunOptions { fast_forward: false, ..opts_on.clone() };

    let on = CmpSimulator::new(cfg).run_with(program, opts_on.clone());
    let off = CmpSimulator::new(cfg).run_with(program, opts_off.clone());
    let (a, b) = (serde_json::to_string(&on).unwrap(), serde_json::to_string(&off).unwrap());
    assert_eq!(a, b, "{name}: fast-forward changed the report");
    let mut observer = Observer::with_defaults(cfg.cpus);
    let observed =
        CmpSimulator::new(cfg).run_observed(program, opts_on.clone(), Some(&mut observer));
    assert_eq!(
        a,
        serde_json::to_string(&observed).unwrap(),
        "{name}: observation changed the report"
    );

    let cycles = on.total_cycles;
    let s_on = time_s(5, || CmpSimulator::new(cfg).run_with(program, opts_on.clone()));
    let s_off = time_s(5, || CmpSimulator::new(cfg).run_with(program, opts_off.clone()));
    // One observer reused across samples: the ring overwrites in place,
    // so the measurement captures the steady-state hook cost rather
    // than a fresh 40 MB ring allocation per run.
    let mut obs = Observer::with_defaults(cfg.cpus);
    let s_obs =
        time_s(5, || CmpSimulator::new(cfg).run_observed(program, opts_on.clone(), Some(&mut obs)));
    RunBench {
        name,
        sim_cycles: cycles,
        mcycles_per_host_s_ff_on: cycles as f64 / 1e6 / s_on,
        mcycles_per_host_s_ff_off: cycles as f64 / 1e6 / s_off,
        ff_speedup: s_off / s_on,
        mcycles_per_host_s_obs_on: cycles as f64 / 1e6 / s_obs,
        obs_overhead: s_obs / s_on,
    }
}

/// Host cost of the MiniDB buffer-pool hot paths: pin/miss/evict
/// traffic from the recovery-oracle workload, plus full REDO recovery
/// per crash point. Every crash point is also *checked* — a red oracle
/// aborts the bench rather than reporting a timing for wrong results.
fn bench_pager() -> PagerBench {
    use tls_core::DiskFaultPlan;
    use tls_minidb::oracle::run_workload;

    const FRAMES: usize = 24;
    const MTRS: usize = 24;
    let secs = time_s(3, || run_workload(1, MTRS, FRAMES, DiskFaultPlan::default(), false));
    let w = run_workload(1, MTRS, FRAMES, DiskFaultPlan::default(), false);
    let counters = w.pager().counters();
    let pins = (counters.hits + counters.misses).max(1);
    let crash_points = w.last_lsn() + 1;
    let check_secs =
        time_s(3, || w.check_all_crash_points().expect("recovery oracle must be green"));
    PagerBench {
        frames: FRAMES,
        ns_per_pin: secs * 1e9 / pins as f64,
        ns_per_crash_point: check_secs * 1e9 / crash_points as f64,
        crash_points,
        counters,
    }
}

/// Host cost of the declarative-workload compiler: spec → `(plain, tls)`
/// trace pair, plus the simulator's throughput on the compiled TLS
/// recording. The scan-epoch counters are asserted non-zero — a compile
/// that stopped parallelizing scans would report a timing for the wrong
/// program.
fn bench_workload_compiler() -> WorkloadCompilerBench {
    use tls_harness::workload::{compile, WorkloadSpec};
    use tls_trace::SCAN_LOOP_MODULE;

    let spec = WorkloadSpec::example();
    let compile_secs = time_s(3, || compile(&spec));
    let c = compile(&spec);
    let program_ops = (c.plain.total_ops() + c.tls.total_ops()) as u64;
    let (scan_epochs, scan_epoch_ops) = c.tls.epochs_of_module(SCAN_LOOP_MODULE);
    assert!(scan_epochs > 0, "example spec must compile speculative scan epochs");

    let cfg = machine();
    let opts = RunOptions { audit: false, oracle: false, ..RunOptions::default() };
    let rep = CmpSimulator::new(cfg).run_with(&c.tls, opts.clone());
    let sim_secs = time_s(3, || CmpSimulator::new(cfg).run_with(&c.tls, opts.clone()));
    WorkloadCompilerBench {
        spec: "example",
        compile_ms: compile_secs * 1e3,
        ops_per_host_s: program_ops as f64 / compile_secs,
        program_ops,
        scan_epochs,
        scan_epoch_ops,
        sim_mcycles_per_host_s: rep.total_cycles as f64 / 1e6 / sim_secs,
    }
}

/// Host cost of the snapshot read paths, owned decode vs zero-copy map,
/// on a real recorded benchmark — plus the batched sweep engine's
/// points/hour at test scale. Both decoders are verified against each
/// other before timing: a fast path serving different ops would be a
/// timing for the wrong data.
fn bench_trace_store() -> TraceStoreBench {
    use std::sync::Arc;
    use tls_harness::codec::{decode_pair_file, program_bytes};
    use tls_harness::mapped::{MapOutcome, TraceView};
    use tls_harness::store::{HarnessStore, StoredPrograms, TraceKey};
    use tls_harness::sweep::{run_sweep, SweepOptions, SweepPlan, SweepSpec};
    use tls_harness::Scale;
    use tls_minidb::Transaction;

    let dir = std::env::temp_dir().join(format!("tls-kernel-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let traces = dir.join("traces");
    let store = HarnessStore::new(Some(traces.clone()), true);
    // A big-enough recording that per-op cost dominates per-open cost
    // (the syscall + container validation amortize away, as they do on
    // the multi-megabyte paper-scale snapshots).
    let key = TraceKey { cfg: Scale::Test.tpcc(), txn: Transaction::Payment, count: 128 };
    store.programs(&key);
    let path = traces.join(key.file_name());
    let hash = key.hash();
    let bytes = std::fs::read(&path).expect("snapshot written");
    let trace_bytes = bytes.len() as u64;

    // Cross-check the two read paths before timing either.
    let owned = decode_pair_file(&bytes, hash).expect("owned decode");
    let MapOutcome::Mapped(view) = TraceView::open(&path, hash) else {
        panic!("fresh snapshot must map");
    };
    assert_eq!(program_bytes(&view.tls().to_program()), program_bytes(&owned.tls));
    let trace_ops = (owned.plain.view().total_ops() + owned.tls.view().total_ops()) as u64;

    // Both timings produce a StoredPrograms ready for report-cache
    // lookups of the recorded pair. The mapped one has done more: its
    // open also fingerprinted both serialized forms, which the owned one
    // would copy and fingerprint on first use.
    let decode_secs = time_s(7, || {
        let bytes = std::fs::read(&path).expect("read snapshot");
        StoredPrograms::new(decode_pair_file(&bytes, hash).expect("owned decode"))
    });
    let mmap_secs = time_s(7, || match TraceView::open(&path, hash) {
        MapOutcome::Mapped(v) => StoredPrograms::from_view(Arc::new(*v)),
        other => panic!("snapshot stopped mapping: {other:?}"),
    });

    // Sweep throughput: snapshots warm, report cache cold — every point
    // simulates, no point re-decodes.
    let grid = r#"{
        "name": "kernel",
        "benchmark": "payment",
        "count": 1,
        "seeds": [1, 2],
        "spacings": [1000, 2500, 5000, 10000],
        "contexts": [2, 4],
        "mem_latencies": [50, 75]
    }"#;
    let plan = SweepPlan::new(SweepSpec::parse(grid).expect("grid parses"), Scale::Test);
    let opts = SweepOptions {
        scale: Scale::Test,
        jobs: 1,
        out_dir: dir.join("out"),
        trace_dir: Some(traces.clone()),
        baseline_sample: 0,
        quiet: true,
        ..SweepOptions::default()
    };
    run_sweep(&plan, &opts).expect("prewarm sweep"); // record both seeds
    let _ = std::fs::remove_dir_all(traces.join("reports"));
    let _ = std::fs::remove_file(opts.out_dir.join("sweep_kernel.jsonl"));
    let out = run_sweep(&plan, &opts).expect("timed sweep");
    let sweep_points = out.executed_points;
    let sweep_pph = 3600.0 * sweep_points as f64 / out.wall_s.max(1e-9);

    let _ = std::fs::remove_dir_all(&dir);
    TraceStoreBench {
        trace_ops,
        trace_bytes,
        decode_ns_per_op: decode_secs * 1e9 / trace_ops as f64,
        decode_ops_per_s: trace_ops as f64 / decode_secs,
        mmap_ns_per_op: mmap_secs * 1e9 / trace_ops as f64,
        mmap_ops_per_s: trace_ops as f64 / mmap_secs,
        mmap_speedup: decode_secs / mmap_secs,
        sweep_points,
        sweep_points_per_hour: sweep_pph,
    }
}

/// Host cost of the value-prediction paths: the predictor's train and
/// probe table operations, the commit-time validation kernel, and the
/// whole-machine throughput delta on a cross-epoch RMW collider whose
/// shared value the last-value predictor learns. The collider run
/// asserts `predicted_hits > 0` — a predictor that stopped suppressing
/// would make the on/off delta a timing of nothing.
fn bench_vpredict() -> VpredictBench {
    use tls_core::{value_model, VPredictConfig, ValuePredictor};

    // Table micro-ops over a 256-PC working set (warm, steady state).
    let pcs: Vec<Pc> = (0..256u16).map(|i| Pc::new(i / 64 + 1, i % 64)).collect();
    let mut p = ValuePredictor::new(&VPredictConfig::prophet());
    for &pc in &pcs {
        p.train(pc, 7);
        p.train(pc, 7);
    }
    const ROUNDS: u64 = 4000;
    let ops = ROUNDS * pcs.len() as u64;
    let train_secs = time_s(5, || {
        for _ in 0..ROUNDS {
            for &pc in &pcs {
                p.train(pc, 7);
            }
        }
    });
    let probe_secs = time_s(5, || {
        let mut hits = 0u64;
        for _ in 0..ROUNDS {
            for &pc in &pcs {
                hits += p.probe(pc).is_some() as u64;
            }
        }
        hits
    });
    let validate_secs = time_s(5, || {
        let mut wrong = 0u64;
        for r in 0..ROUNDS {
            for (i, _) in pcs.iter().enumerate() {
                let addr = Addr(0x4_0000 + i as u64 * 8);
                wrong += (value_model(addr, r) != 7) as u64;
            }
        }
        wrong
    });

    // Whole-machine delta: every epoch read-modify-writes one shared
    // word at a constant-class address (0xC000 hashes to the constant
    // value model), so a warm table turns the RAW chain into silent
    // hits.
    let mut b = ProgramBuilder::new("kernel-vpredict");
    b.begin_parallel();
    for e in 0..16u16 {
        b.begin_epoch();
        b.int_ops(Pc::new(e, 0), 2000);
        b.load(Pc::new(99, 1), Addr(0xC000), 8);
        b.store(Pc::new(99, 2), Addr(0xC000), 8);
        b.int_ops(Pc::new(e, 3), 2000);
        b.end_epoch();
    }
    b.end_parallel();
    let program = b.finish();

    let cfg_off = machine();
    let mut cfg_on = cfg_off;
    cfg_on.vpredict = VPredictConfig::prophet();
    let opts = RunOptions { audit: false, oracle: false, ..RunOptions::default() };
    let off = CmpSimulator::new(cfg_off).run_with(&program, opts.clone());
    let on = CmpSimulator::new(cfg_on).run_with(&program, opts.clone());
    assert!(on.predicted_hits > 0, "collider must exercise suppression");
    let s_off = time_s(5, || CmpSimulator::new(cfg_off).run_with(&program, opts.clone()));
    let s_on = time_s(5, || CmpSimulator::new(cfg_on).run_with(&program, opts.clone()));

    VpredictBench {
        ns_per_train: train_secs * 1e9 / ops as f64,
        ns_per_probe: probe_secs * 1e9 / ops as f64,
        ns_per_validate: validate_secs * 1e9 / ops as f64,
        sim_cycles_off: off.total_cycles,
        sim_cycles_on: on.total_cycles,
        mcycles_per_host_s_off: off.total_cycles as f64 / 1e6 / s_off,
        mcycles_per_host_s_on: on.total_cycles as f64 / 1e6 / s_on,
        host_overhead: s_on / s_off,
        predicted_hits: on.predicted_hits,
        value_mispredicts: on.value_mispredicts,
    }
}

/// Host cost of the TSO store-buffer paths: the buffer's push, forward
/// and drain micro-ops, and the whole-machine SC-vs-TSO throughput
/// delta on the RMW collider. SC mode is asserted byte-invisible — a
/// config that carried a TSO geometry and was reset to SC must produce
/// the identical report — and the TSO run is asserted to actually
/// buffer and forward (a timing of an idle buffer would measure
/// nothing).
fn bench_membuf() -> MembufBench {
    use tls_core::{BufferedStore, ForwardOutcome, MemoryModel, StoreBuffer};

    let entry = |i: u64| BufferedStore {
        cursor: i as usize,
        addr: Addr(0x6000 + (i % 64) * 8),
        size: 8,
        pc: Pc::new(1, (i % 64) as u16),
        sub: 0,
        speculative: true,
    };

    // Push/pop steady state: the buffer cycles between 31 and 32 live
    // entries, so every push pays the realistic non-empty-Vec cost.
    const ROUNDS: u64 = 200_000;
    let mut buf = StoreBuffer::new(32);
    for i in 0..31 {
        buf.push(entry(i));
    }
    let push_secs = time_s(5, || {
        for i in 0..ROUNDS {
            buf.push(entry(i));
            buf.pop_oldest();
        }
    });

    // Forwarding probe: youngest entry hits immediately (the common
    // same-address store-then-load pattern).
    let probe_addr = buf.iter().last().expect("non-empty").addr;
    let forward_secs = time_s(5, || {
        let mut hits = 0u64;
        for _ in 0..ROUNDS {
            hits += matches!(buf.forward(probe_addr, 8), ForwardOutcome::Hit) as u64;
        }
        hits
    });

    // Full drain: fill 32 entries, pop to empty.
    const DRAIN_ROUNDS: u64 = 20_000;
    let mut buf = StoreBuffer::new(32);
    let drain_secs = time_s(5, || {
        for _ in 0..DRAIN_ROUNDS {
            for i in 0..32 {
                buf.push(entry(i));
            }
            while buf.pop_oldest().is_some() {}
        }
    });

    // Whole-machine delta on the same collider bench_vpredict uses.
    let mut b = ProgramBuilder::new("kernel-membuf");
    b.begin_parallel();
    for e in 0..16u16 {
        b.begin_epoch();
        b.int_ops(Pc::new(e, 0), 2000);
        b.load(Pc::new(99, 1), Addr(0xC000), 8);
        b.store(Pc::new(99, 2), Addr(0xC000), 8);
        b.int_ops(Pc::new(e, 3), 2000);
        b.end_epoch();
    }
    b.end_parallel();
    let program = b.finish();

    let cfg_sc = machine();
    let mut cfg_tso = cfg_sc;
    cfg_tso.memory_model = MemoryModel::Tso { buffer_entries: 8 };
    let opts = RunOptions { audit: false, oracle: false, ..RunOptions::default() };
    let sc = CmpSimulator::new(cfg_sc).run_with(&program, opts.clone());
    let tso = CmpSimulator::new(cfg_tso).run_with(&program, opts.clone());
    assert!(tso.buffered_stores > 0, "collider must buffer stores under TSO");
    // SC after a TSO geometry must be byte-identical to plain SC.
    let mut cfg_reset = cfg_tso;
    cfg_reset.memory_model = MemoryModel::Sc;
    let reset = CmpSimulator::new(cfg_reset).run_with(&program, opts.clone());
    assert_eq!(
        serde_json::to_string(&sc).unwrap(),
        serde_json::to_string(&reset).unwrap(),
        "SC report changed after carrying a TSO geometry"
    );
    let s_sc = time_s(5, || CmpSimulator::new(cfg_sc).run_with(&program, opts.clone()));
    let s_tso = time_s(5, || CmpSimulator::new(cfg_tso).run_with(&program, opts.clone()));

    MembufBench {
        ns_per_buffered_store: push_secs * 1e9 / ROUNDS as f64,
        ns_per_forwarded_load: forward_secs * 1e9 / ROUNDS as f64,
        ns_per_full_drain: drain_secs * 1e9 / DRAIN_ROUNDS as f64,
        sim_cycles_sc: sc.total_cycles,
        sim_cycles_tso: tso.total_cycles,
        mcycles_per_host_s_sc: sc.total_cycles as f64 / 1e6 / s_sc,
        mcycles_per_host_s_tso: tso.total_cycles as f64 / 1e6 / s_tso,
        host_overhead: s_tso / s_sc,
        buffered_stores: tso.buffered_stores,
        forwarded_loads: tso.forwarded_loads,
        drain_stall_cycles: tso.breakdown.drain_stall,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = String::from("BENCH_kernel.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out_path = it.next().expect("--out needs a value").clone(),
            other => {
                eprintln!("unknown argument '{other}'\nusage: kernel [--out PATH]");
                std::process::exit(2);
            }
        }
    }

    let cfg = machine();
    let mut ops = vec![bench_read(&cfg), bench_write(&cfg)];
    ops.extend(bench_commit_rewind(&cfg));

    let runs = vec![
        bench_run("compute_heavy_160k_ops", &compute_heavy(8, 20_000)),
        bench_run("memory_bound_8k_misses", &memory_bound(8, 1_000)),
        bench_run("violation_churn", &shared_dependences(8, 4_000, &[Dependence::new(0.5, 0.5)])),
    ];

    for b in &ops {
        println!("{:<24} {:>9.1} ns/op  ({} ops)", b.name, b.ns_per_op, b.ops);
    }
    for r in &runs {
        println!(
            "{:<24} {:>7.2} Mc/s ff-on  {:>7.2} Mc/s ff-off  ({:.2}x, {} cycles)  \
             {:>7.2} Mc/s obs-on ({:.3}x)",
            r.name,
            r.mcycles_per_host_s_ff_on,
            r.mcycles_per_host_s_ff_off,
            r.ff_speedup,
            r.sim_cycles,
            r.mcycles_per_host_s_obs_on,
            r.obs_overhead
        );
    }

    let pager = bench_pager();
    let c = &pager.counters;
    println!(
        "{:<24} {:>9.1} ns/pin  {:>9.0} ns/crash-point ({} points green)",
        "pager_oracle", pager.ns_per_pin, pager.ns_per_crash_point, pager.crash_points
    );
    println!(
        "{:<24} hits {} misses {} evictions {} flushes {} replays {} mtrs {}",
        "pager_counters", c.hits, c.misses, c.evictions, c.flushes, c.recovery_replays, c.mtrs
    );

    let workload = bench_workload_compiler();
    println!(
        "{:<24} {:>9.2} ms/compile  {:>7.2} Mops/s  ({} ops, {} scan epochs, {} scan ops)  \
         {:>7.2} Mc/s sim",
        "workload_compiler",
        workload.compile_ms,
        workload.ops_per_host_s / 1e6,
        workload.program_ops,
        workload.scan_epochs,
        workload.scan_epoch_ops,
        workload.sim_mcycles_per_host_s
    );

    let trace_store = bench_trace_store();
    println!(
        "{:<24} {:>9.2} ns/op decode  {:>9.3} ns/op mmap  ({:.2}x; {} ops, {} bytes)",
        "trace_store",
        trace_store.decode_ns_per_op,
        trace_store.mmap_ns_per_op,
        trace_store.mmap_speedup,
        trace_store.trace_ops,
        trace_store.trace_bytes
    );
    println!(
        "{:<24} {:>9.0} points/hour warm ({} points, test scale)",
        "sweep_engine", trace_store.sweep_points_per_hour, trace_store.sweep_points
    );

    let vpredict = bench_vpredict();
    println!(
        "{:<24} {:>6.1} ns/train  {:>6.1} ns/probe  {:>6.1} ns/validate  \
         {:>7.2} Mc/s off  {:>7.2} Mc/s on ({:.3}x host, {} hits, {} mispredicts)",
        "vpredict",
        vpredict.ns_per_train,
        vpredict.ns_per_probe,
        vpredict.ns_per_validate,
        vpredict.mcycles_per_host_s_off,
        vpredict.mcycles_per_host_s_on,
        vpredict.host_overhead,
        vpredict.predicted_hits,
        vpredict.value_mispredicts
    );

    let membuf = bench_membuf();
    println!(
        "{:<24} {:>6.1} ns/store  {:>6.1} ns/forward  {:>8.1} ns/drain32  \
         {:>7.2} Mc/s sc  {:>7.2} Mc/s tso ({:.3}x host, {} buffered, {} forwarded)",
        "membuf",
        membuf.ns_per_buffered_store,
        membuf.ns_per_forwarded_load,
        membuf.ns_per_full_drain,
        membuf.mcycles_per_host_s_sc,
        membuf.mcycles_per_host_s_tso,
        membuf.host_overhead,
        membuf.buffered_stores,
        membuf.forwarded_loads
    );

    let mut json = serde_json::to_string_pretty(&KernelBench {
        ops,
        runs,
        pager,
        workload,
        trace_store,
        vpredict,
        membuf,
    })
    .expect("serialize kernel bench");
    json.push('\n');
    std::fs::write(&out_path, json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    eprintln!("wrote {out_path}");
}
