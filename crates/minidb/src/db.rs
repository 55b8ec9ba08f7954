//! The database back end: catalog, logging policy, optimization levels.

use crate::btree::PageAlloc;
use crate::wal::{LocalLog, Wal};
use crate::{BTree, Env};
use serde::{Deserialize, Serialize};
use tls_trace::{Addr, LatchId, Pc};

/// Well-known latches of the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatchName {
    /// Protects the shared log tail.
    Log,
    /// Protects the page allocator.
    PageAlloc,
    /// Protects the global statistics counters.
    Stats,
    /// Protects the buffer-pool frame directory.
    Pager,
}

impl LatchName {
    /// The latch id used in traces.
    pub fn id(self) -> LatchId {
        LatchId(match self {
            LatchName::Log => 0,
            LatchName::PageAlloc => 1,
            LatchName::Stats => 2,
            LatchName::Pager => 3,
        })
    }
}

/// Which dependence-removal optimizations are applied to the engine —
/// the knobs of the paper's §3.2 iterative tuning process. Each flag
/// removes one *class* of cross-thread dependence the profiler surfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OptLevel {
    /// Replace the shared log tail with per-thread log buffers.
    pub per_thread_log: bool,
    /// Drop the global row-count statistics counters.
    pub no_global_stats: bool,
    /// Remove latches from the log and allocator fast paths.
    pub latch_free: bool,
}

impl OptLevel {
    /// The unmodified engine: every dependence present.
    pub fn none() -> Self {
        OptLevel { per_thread_log: false, no_global_stats: false, latch_free: false }
    }

    /// The fully TLS-tuned engine the paper evaluates.
    pub fn fully_optimized() -> Self {
        OptLevel { per_thread_log: true, no_global_stats: true, latch_free: true }
    }

    /// The cumulative tuning sequence, in the order the profiler surfaces
    /// the dependences (run `tuning_curve` to see each step's profile
    /// pointing at the next): `(step name, configuration)`.
    pub fn tuning_steps() -> Vec<(&'static str, OptLevel)> {
        vec![
            ("unoptimized", OptLevel::none()),
            ("+ remove global statistics", OptLevel { no_global_stats: true, ..OptLevel::none() }),
            (
                "+ per-thread log buffers",
                OptLevel { per_thread_log: true, no_global_stats: true, latch_free: false },
            ),
            ("+ latch-free structures", OptLevel::fully_optimized()),
        ]
    }
}

const DB_MODULE: u16 = 0x08;
const SITE_STATS: u16 = 8;

/// The engine: shared allocator, log, statistics and tree catalog glue.
/// Copyable: all state lives in simulated memory.
#[derive(Debug, Clone, Copy)]
pub struct Db {
    /// Page allocator shared by all trees.
    pub alloc: PageAlloc,
    /// The shared write-ahead log.
    pub wal: Wal,
    /// Active optimization level.
    pub opts: OptLevel,
    stats_cell: Addr,
}

impl Db {
    /// Creates the engine state inside `env`.
    pub fn new(env: &mut Env, opts: OptLevel) -> Self {
        let alloc = PageAlloc::new(env, DB_MODULE);
        let wal = Wal::new(env, 1 << 20, DB_MODULE, LatchName::Log.id());
        let stats_cell = env.alloc(8, 8);
        env.mem.poke_u64(stats_cell, 0);
        Db { alloc, wal, opts, stats_cell }
    }

    /// Creates a table (a B+-tree) with rows of `value_size` bytes,
    /// profiled under `module`.
    pub fn create_tree(&self, env: &mut Env, value_size: u16, module: u16) -> BTree {
        BTree::create(env, &self.alloc, value_size, module)
    }

    /// Allocates a per-thread log buffer (used by epochs when
    /// `per_thread_log` is on).
    pub fn local_log(&self, env: &mut Env) -> LocalLog {
        LocalLog::new(env, 1 << 14, DB_MODULE)
    }

    /// Logs a row modification of `payload` bytes, honoring the
    /// optimization level: per-thread buffer if available and enabled,
    /// otherwise the shared tail (latched unless latch-free).
    ///
    /// # Panics
    ///
    /// Panics if a single record cannot fit the shared log buffer — row
    /// payloads are bounded well below the 1 MiB buffer, so an oversized
    /// record is an engine bug, not a runtime condition.
    pub fn log(&self, env: &mut Env, payload: u64, local: Option<&mut LocalLog>) {
        match (self.opts.per_thread_log, local) {
            (true, Some(buf)) => buf.append(env, payload),
            _ => self
                .wal
                .append(env, payload, !self.opts.latch_free)
                .unwrap_or_else(|e| panic!("row log append failed: {e}")),
        }
    }

    /// Commits a speculative thread's private log buffer: one shared LSN
    /// reservation covering everything it appended. Call at the end of
    /// each epoch body when `per_thread_log` is enabled.
    ///
    /// # Panics
    ///
    /// Panics if the buffer's contents exceed the shared log capacity
    /// (local buffers are 16 KiB against a 1 MiB shared log, so this is
    /// unreachable absent an engine bug).
    pub fn log_commit(&self, env: &mut Env, local: &LocalLog) {
        if self.opts.per_thread_log {
            self.wal
                .reserve(env, local.used().max(8), !self.opts.latch_free)
                .unwrap_or_else(|e| panic!("log commit reservation failed: {e}"));
        }
    }

    /// Bumps the global modified-row statistics counter (a recorded
    /// read-modify-write on a shared cell), unless optimized away.
    pub fn bump_stats(&self, env: &mut Env) {
        if self.opts.no_global_stats {
            return;
        }
        let pc = Pc::new(DB_MODULE, SITE_STATS);
        if !self.opts.latch_free {
            env.latch_acquire(pc, LatchName::Stats.id());
        }
        let n = env.load_u64(pc, self.stats_cell);
        env.alu(pc, 2);
        env.store_u64(pc, self.stats_cell, n + 1);
        if !self.opts.latch_free {
            env.latch_release(pc, LatchName::Stats.id());
        }
    }

    /// Rows counted by the statistics (unrecorded, for tests).
    pub fn stats_count(&self, env: &Env) -> u64 {
        env.mem.peek_u64(self.stats_cell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tls_trace::OpKind;

    #[test]
    fn trees_share_the_allocator() {
        let mut env = Env::new();
        let db = Db::new(&mut env, OptLevel::none());
        let _a = db.create_tree(&mut env, 16, 0x10);
        let _b = db.create_tree(&mut env, 32, 0x11);
        assert_eq!(db.alloc.pages(&env), 2);
    }

    #[test]
    fn stats_bump_is_a_shared_rmw_unless_optimized() {
        let mut env = Env::new();
        let db = Db::new(&mut env, OptLevel::none());
        env.rec.start("t", false);
        db.bump_stats(&mut env);
        let p = env.rec.finish();
        assert_eq!(db.stats_count(&env), 1);
        assert!(p.iter_ops().any(|o| matches!(o.kind(), OpKind::LatchAcquire(_))));
        assert!(p.iter_ops().any(|o| o.is_store()));

        let db2 = Db { opts: OptLevel::fully_optimized(), ..db };
        env.rec.start("t2", false);
        db2.bump_stats(&mut env);
        let p2 = env.rec.finish();
        assert_eq!(p2.total_ops(), 0, "optimized stats are free");
    }

    #[test]
    fn log_routes_by_optimization_level() {
        let mut env = Env::new();
        let db = Db::new(&mut env, OptLevel::fully_optimized());
        let mut local = db.local_log(&mut env);
        db.log(&mut env, 32, Some(&mut local));
        assert_eq!(db.wal.tail(&env), 0, "shared tail untouched");
        assert!(local.used() > 0);

        let db_unopt = Db { opts: OptLevel::none(), ..db };
        db_unopt.log(&mut env, 32, None);
        assert!(db_unopt.wal.tail(&env) > 0);
    }

    #[test]
    fn tuning_steps_are_monotone() {
        let steps = OptLevel::tuning_steps();
        assert_eq!(steps.len(), 4);
        assert_eq!(steps[0].1, OptLevel::none());
        assert_eq!(steps[3].1, OptLevel::fully_optimized());
    }
}
