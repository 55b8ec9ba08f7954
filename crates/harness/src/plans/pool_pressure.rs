//! The **pool_pressure** plan: how a disk-backed buffer pool interacts
//! with sub-thread spacing.
//!
//! NEW ORDER is re-recorded through the MiniDB pager at several pool
//! sizes. A tight pool makes transactions fault pages back in — misses,
//! evictions and writebacks all emit trace operations against the
//! shared frame directory, so paging pressure both lengthens epochs and
//! adds dependences, exactly the "internal database structures"
//! dynamics the paper blames for violations. For each pool the TLS
//! trace is then simulated across a sweep of sub-thread spacings,
//! against a SEQUENTIAL reference recorded through the *same* pool.
//!
//! Pool sizing: the first recording runs fully resident (one cold miss
//! per touched page, zero evictions), which measures the workload's
//! touched-page footprint and its pin high-water mark — the pool-size
//! hard floor, since a mini-transaction's pages are unevictable while
//! it runs. The pressure pools then keep fractions of the *evictable
//! headroom* between that floor and the full footprint, which stays
//! meaningful even when one transaction pins most of a small database.
//!
//! Paged recordings bypass the `TraceKey` snapshot cache (the key
//! cannot express a pool size). All six halves page databases forked
//! from one population through the store's population memo. The
//! recordings run as jobs in the pool and results assemble
//! positionally, so output stays byte-identical for any `--jobs`.
//! Simulations still flow through the content-addressed report cache
//! via [`KeyedProgram`] fingerprints.

use crate::plan::{to_artifact_json, Job, Plan, PlanCtx, PlanOutput};
use crate::population::Lease;
use crate::store::{StoredPrograms, TraceKey};
use serde::Serialize;
use std::fmt::Write as _;
use std::sync::Arc;
use tls_core::experiment::{BenchmarkPrograms, ExperimentKind};
use tls_core::{DiskFaultPlan, SimReport, SpacingPolicy};
use tls_minidb::{OptLevel, PagerCounters, Tpcc, Transaction};

const TXN: Transaction = Transaction::NewOrder;

/// Transactions recorded per pool — several times the benchmark's
/// normal instance count, so the workload genuinely cycles pages
/// through the pressure pools.
const COUNT_MULT: usize = 6;

/// The pressure pools, as fractions of the evictable headroom kept
/// (floor + headroom × num/den frames).
const PRESSURE_POOLS: [(&str, usize, usize); 2] = [("half", 1, 2), ("quarter", 1, 4)];

/// Frames added above the measured pin high-water mark when flooring a
/// pressure pool: room for the clock hand to find a victim.
const FLOOR_SLACK: usize = 4;

/// Sub-thread spacings (speculative instructions between checkpoints).
const SPACINGS: [u64; 3] = [500, 2000, 8000];

// Per pool: 1 SEQUENTIAL reference job, then one TLS job per spacing.
const JOBS_PER_POOL: usize = 1 + SPACINGS.len();

#[derive(Serialize)]
struct Point {
    pool: &'static str,
    frames: usize,
    touched_pages: usize,
    spacing: u64,
    cycles: u64,
    speedup_vs_sequential: f64,
    violations: u64,
    pager_hits: u64,
    pager_misses: u64,
    pager_evictions: u64,
    pager_flushes: u64,
}

/// The pool_pressure plan.
pub fn plan() -> Plan {
    Plan {
        name: "pool_pressure",
        title: "Extension — buffer-pool pressure × sub-thread spacing",
        traces,
        run,
    }
}

fn traces(_ctx: &PlanCtx) -> Vec<TraceKey> {
    // Paged recordings cannot live in the TraceKey snapshot cache;
    // nothing to pre-record.
    Vec::new()
}

type Recorded = (Arc<StoredPrograms>, PagerCounters, usize);

/// Records the `(plain, tls)` NEW ORDER pair through a pool of `frames`
/// frames (`None` = fully resident; no disk faults — chaos belongs to
/// the recovery oracle, this plan measures timing), each half on its own
/// database from `population`. Returns the pair plus the TLS recording's
/// pool counters and the frame count used.
fn record_paged(ctx: &PlanCtx, population: Lease, frames: Option<usize>) -> Recorded {
    let count = crate::eval::instances(TXN, ctx.scale) * COUNT_MULT;
    let record = |mut db: Tpcc, tls: bool| {
        let pages = db.env.registered_pages();
        let frames = frames.unwrap_or(pages).min(pages);
        db.attach_pager(frames, DiskFaultPlan::default(), false);
        let program = if tls { db.record(TXN, count) } else { db.record_plain(TXN, count) };
        (program, db.pager_counters().expect("paged"), frames)
    };
    let (plain, _, _) = record(population.fork(OptLevel::none()), false);
    let (tls, counters, frames) = record(population.fork(ctx.scale.tpcc().opts), true);
    let pair = StoredPrograms::new(BenchmarkPrograms { plain, tls });
    (Arc::new(pair), counters, frames)
}

fn run(ctx: &PlanCtx) -> PlanOutput {
    // Phase 1: the resident recording measures the touched-page
    // footprint (cold misses = distinct pages touched, no evictions)
    // and the pin high-water mark (the pool-size hard floor).
    // Every recording pages a database forked from one population,
    // which this lease keeps until the jobs below hold their own.
    let cfg = ctx.scale.tpcc();
    let population = ctx.store.population(&cfg);
    let resident = record_paged(ctx, ctx.store.population(&cfg), None);
    let touched = resident.1.misses as usize;
    let floor = resident.1.max_pinned as usize + FLOOR_SLACK;
    let headroom = touched.saturating_sub(floor);

    // Phase 2: the pressure recordings, fanned across the pool (pure:
    // workload seed + pool size determine every byte).
    let rec_jobs: Vec<Job<Recorded>> = PRESSURE_POOLS
        .iter()
        .map(|&(_, num, den)| {
            let frames = floor + headroom * num / den;
            let population = ctx.store.population(&cfg);
            Box::new(move || record_paged(ctx, population, Some(frames))) as Job<Recorded>
        })
        .collect();
    drop(population);
    let mut recorded = vec![resident];
    recorded.extend(ctx.pool.run(rec_jobs));
    for (_, counters, _) in &recorded {
        ctx.store.stats.record_pager(counters, 0);
    }

    // Phase 3: simulations, assembled positionally.
    let mut jobs: Vec<Job<Arc<SimReport>>> = Vec::new();
    for (progs, _, _) in &recorded {
        {
            let progs = progs.clone();
            jobs.push(Box::new(move || ctx.experiment(ExperimentKind::Sequential, &progs)));
        }
        for &spacing in &SPACINGS {
            let progs = progs.clone();
            jobs.push(Box::new(move || {
                let mut cfg = ctx.machine;
                cfg.subthreads.spacing = SpacingPolicy::Every(spacing);
                ctx.sim(&progs.tls, &cfg)
            }));
        }
    }
    let reports = ctx.pool.run(jobs);

    let pool_names: Vec<&'static str> =
        std::iter::once("resident").chain(PRESSURE_POOLS.iter().map(|&(n, _, _)| n)).collect();
    let mut text = String::new();
    writeln!(
        text,
        "{:<9} {:>7} {:>8} {:>8} {:>12} {:>9} {:>6} {:>9} {:>8} {:>7} {:>7}",
        "pool",
        "frames",
        "touched",
        "spacing",
        "cycles",
        "speedup",
        "viol",
        "hits",
        "misses",
        "evict",
        "flush"
    )
    .unwrap();
    let mut rows = Vec::new();
    let mut sim_cycles = 0u64;
    for (p, name) in pool_names.iter().enumerate() {
        let (_, counters, frames) = &recorded[p];
        let base = p * JOBS_PER_POOL;
        let seq = reports[base].total_cycles;
        sim_cycles += seq;
        for (s, &spacing) in SPACINGS.iter().enumerate() {
            let r = &reports[base + 1 + s];
            sim_cycles += r.total_cycles;
            let point = Point {
                pool: name,
                frames: *frames,
                touched_pages: touched,
                spacing,
                cycles: r.total_cycles,
                speedup_vs_sequential: seq as f64 / r.total_cycles as f64,
                violations: r.violations.total(),
                pager_hits: counters.hits,
                pager_misses: counters.misses,
                pager_evictions: counters.evictions,
                pager_flushes: counters.flushes,
            };
            writeln!(
                text,
                "{:<9} {:>7} {:>8} {:>8} {:>12} {:>8.2}x {:>6} {:>9} {:>8} {:>7} {:>7}",
                point.pool,
                point.frames,
                point.touched_pages,
                point.spacing,
                point.cycles,
                point.speedup_vs_sequential,
                point.violations,
                point.pager_hits,
                point.pager_misses,
                point.pager_evictions,
                point.pager_flushes
            )
            .unwrap();
            rows.push(point);
        }
    }
    PlanOutput { json: to_artifact_json(&rows), text, sim_cycles }
}
