//! Kernel microbenchmarks: the host cost of single simulator and store
//! operations, written to `BENCH_kernel.json`.
//!
//! Every figure is ns per operation on a warm structure, timed outside
//! any whole-machine run:
//!
//! 1. **`SpecL2`**: speculative reads and writes against a resident
//!    working set, and the touch-then-commit / touch-then-rewind epoch
//!    lifecycle.
//! 2. **Pager**: buffer-pool pins and full REDO recovery per crash point
//!    on the recovery-oracle workload (asserted green).
//! 3. **Value predictor**: train, probe and commit-time validation.
//! 4. **Store buffer**: push, forward and a full 32-entry drain.
//!
//! Whole-machine throughput, and the snapshot store's map and open
//! costs, are measured by the repository benchmark (`BENCHMARK.json`),
//! with repeated samples and calibrated bounds.
//!
//! Usage: `kernel [--out PATH]` (default `BENCH_kernel.json`).

#![forbid(unsafe_code)]

use serde::Serialize;
use std::time::Instant;
use tls_core::{AccessCtx, CmpConfig, L2Outcome, SpecL2};
use tls_trace::{Addr, Pc};

#[derive(Serialize)]
struct OpBench {
    name: &'static str,
    ns_per_op: f64,
    ops: u64,
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
struct VpredictBench {
    /// ns per predictor training (tag match, confidence update).
    ns_per_train: f64,
    /// ns per prediction probe against a warm table.
    ns_per_probe: f64,
    /// ns per commit-time validation (synthetic value-model evaluation
    /// plus the predicted-value comparison).
    ns_per_validate: f64,
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
}

#[derive(Serialize)]
struct KernelBench {
    ops: Vec<OpBench>,
    pager: PagerBench,
    vpredict: VpredictBench,
    membuf: MembufBench,
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

/// Host cost of the value-prediction paths: the predictor's train and
/// probe table operations and the commit-time validation kernel.
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

    VpredictBench {
        ns_per_train: train_secs * 1e9 / ops as f64,
        ns_per_probe: probe_secs * 1e9 / ops as f64,
        ns_per_validate: validate_secs * 1e9 / ops as f64,
    }
}

/// Host cost of the TSO store-buffer paths: the buffer's push, forward
/// and drain micro-ops.
fn bench_membuf() -> MembufBench {
    use tls_core::{BufferedStore, ForwardOutcome, StoreBuffer};

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

    MembufBench {
        ns_per_buffered_store: push_secs * 1e9 / ROUNDS as f64,
        ns_per_forwarded_load: forward_secs * 1e9 / ROUNDS as f64,
        ns_per_full_drain: drain_secs * 1e9 / DRAIN_ROUNDS as f64,
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

    let cfg = CmpConfig::paper_default();
    let mut ops = vec![bench_read(&cfg), bench_write(&cfg)];
    ops.extend(bench_commit_rewind(&cfg));

    for b in &ops {
        println!("{:<24} {:>9.1} ns/op  ({} ops)", b.name, b.ns_per_op, b.ops);
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

    let vpredict = bench_vpredict();
    println!(
        "{:<24} {:>6.1} ns/train  {:>6.1} ns/probe  {:>6.1} ns/validate",
        "vpredict", vpredict.ns_per_train, vpredict.ns_per_probe, vpredict.ns_per_validate
    );

    let membuf = bench_membuf();
    println!(
        "{:<24} {:>6.1} ns/store  {:>6.1} ns/forward  {:>8.1} ns/drain32",
        "membuf",
        membuf.ns_per_buffered_store,
        membuf.ns_per_forwarded_load,
        membuf.ns_per_full_drain
    );

    let mut json = serde_json::to_string_pretty(&KernelBench { ops, pager, vpredict, membuf })
        .expect("serialize kernel bench");
    json.push('\n');
    std::fs::write(&out_path, json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    eprintln!("wrote {out_path}");
}
